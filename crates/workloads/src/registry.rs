//! A uniform way to name, parameterise and instantiate every workload —
//! the eight paper macrobenchmarks, the five synthetic traffic patterns
//! and the two latency-sensitive RPC service workloads — used by the
//! campaign engine, the harness binaries and the integration tests.
//!
//! The whole registry is generated by one `workload_registry!` invocation:
//! the [`Workload`] enum, [`Workload::ALL`], the name/class/communication
//! tables and the program dispatch all come from the same entry list, so a
//! new workload **cannot** be registered partially — in particular the
//! valid-name list printed by [`UnknownWorkload`] is derived, never
//! hand-maintained.

use serde::{Deserialize, Serialize};

use cni_core::machine::Program;

use crate::appbt::{self, AppbtParams};
use crate::barnes::{self, BarnesParams};
use crate::dsmc::{self, DsmcParams};
use crate::em3d::{self, Em3dParams};
use crate::gauss::{self, GaussParams};
use crate::moldyn::{self, MoldynParams};
use crate::rpc::{self, RpcParams};
use crate::spsolve::{self, SpsolveParams};
use crate::synthetic::{self, SyntheticParams};
use crate::unstructured::{self, UnstructuredParams};

/// Whether a workload reproduces one of the paper's applications, generates
/// a synthetic traffic pattern, or drives latency-sensitive service
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// One of the eight §4.2 macrobenchmarks.
    Paper,
    /// A parameterized synthetic traffic generator.
    Synthetic,
    /// A latency-sensitive request/response service workload whose figure
    /// of merit is the tail-latency histogram, not bulk speedup.
    Service,
}

/// Defines the complete workload registry in one place. Every per-workload
/// table ([`Workload::ALL`], [`Workload::name`], [`Workload::class`],
/// [`Workload::communication`], [`Workload::programs`]) is expanded from the
/// same entry list, so the tables cannot drift apart and the
/// [`UnknownWorkload`] error's valid-name list always matches the registry.
macro_rules! workload_registry {
    ($(
        $(#[$meta:meta])*
        $variant:ident {
            name: $name:literal,
            class: $class:ident,
            communication: $comm:literal,
            programs: $module:ident($field:ident: $ptype:ty),
        }
    )+) => {
        /// Every registered workload: the eight macrobenchmarks of the
        /// paper's evaluation (Table 3 plus the three this reproduction
        /// restores), then the five synthetic traffic patterns, then the
        /// latency-sensitive RPC service workloads.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub enum Workload {
            $( $(#[$meta])* $variant, )+
        }

        impl Workload {
            /// Number of registered workloads.
            pub const COUNT: usize = [$($name),+].len();

            /// Every workload, in registry order (paper suite first, then
            /// the synthetic patterns).
            pub const ALL: [Workload; Workload::COUNT] = [ $(Workload::$variant,)+ ];

            /// The workload's name as used on the command line and in every
            /// generated table.
            pub fn name(self) -> &'static str {
                match self { $(Workload::$variant => $name,)+ }
            }

            /// Paper macrobenchmark or synthetic pattern?
            pub fn class(self) -> WorkloadClass {
                match self { $(Workload::$variant => WorkloadClass::$class,)+ }
            }

            /// The key communication pattern (Table 3's middle column for
            /// the paper suite; the generator shape for synthetics).
            pub fn communication(self) -> &'static str {
                match self { $(Workload::$variant => $comm,)+ }
            }

            /// Builds one program per node for this workload.
            pub fn programs(
                self,
                nodes: usize,
                params: &WorkloadParams,
            ) -> Vec<Box<dyn Program>> {
                match self {
                    $(Workload::$variant => $module::programs(nodes, &params.$field),)+
                }
            }
        }

        /// Parameters for every registered workload, one field per entry.
        #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
        pub struct WorkloadParams {
            $(
                #[doc = concat!("`", $name, "` parameters.")]
                pub $field: $ptype,
            )+
        }
    };
}

workload_registry! {
    /// Fine-grain DAG solver.
    Spsolve {
        name: "spsolve",
        class: Paper,
        communication: "fine-grain messages",
        programs: spsolve(spsolve: SpsolveParams),
    }
    /// Gaussian elimination with pivot-row broadcast.
    Gauss {
        name: "gauss",
        class: Paper,
        communication: "one-to-all broadcast",
        programs: gauss(gauss: GaussParams),
    }
    /// Electromagnetic wave propagation on a bipartite graph.
    Em3d {
        name: "em3d",
        class: Paper,
        communication: "fine-grain messages",
        programs: em3d(em3d: Em3dParams),
    }
    /// Molecular dynamics with a bulk ring reduction.
    Moldyn {
        name: "moldyn",
        class: Paper,
        communication: "bulk reduction",
        programs: moldyn(moldyn: MoldynParams),
    }
    /// NAS BT with near-neighbour shared-memory exchange.
    Appbt {
        name: "appbt",
        class: Paper,
        communication: "near neighbor",
        programs: appbt(appbt: AppbtParams),
    }
    /// Barnes-Hut N-body with top-of-tree cell lookups.
    Barnes {
        name: "barnes",
        class: Paper,
        communication: "tree cell request/response",
        programs: barnes(barnes: BarnesParams),
    }
    /// Direct simulation Monte Carlo particle migration.
    Dsmc {
        name: "dsmc",
        class: Paper,
        communication: "bulk ring migration",
        programs: dsmc(dsmc: DsmcParams),
    }
    /// Iterative solver on an irregularly partitioned mesh.
    Unstructured {
        name: "unstructured",
        class: Paper,
        communication: "irregular halo exchange",
        programs: unstructured(unstructured: UnstructuredParams),
    }
    /// Synthetic: uniformly random destinations.
    Uniform {
        name: "uniform",
        class: Synthetic,
        communication: "uniform random",
        programs: synthetic(uniform: SyntheticParams),
    }
    /// Synthetic: traffic converging on node 0.
    Hotspot {
        name: "hotspot",
        class: Synthetic,
        communication: "hotspot convergence",
        programs: synthetic(hotspot: SyntheticParams),
    }
    /// Synthetic: nearest-neighbour ring exchange.
    Ring {
        name: "ring",
        class: Synthetic,
        communication: "nearest-neighbor ring",
        programs: synthetic(ring: SyntheticParams),
    }
    /// Synthetic: dense all-to-all exchange.
    AllToAll {
        name: "alltoall",
        class: Synthetic,
        communication: "all-to-all exchange",
        programs: synthetic(alltoall: SyntheticParams),
    }
    /// Synthetic: staggered on/off burst sources.
    Bursty {
        name: "bursty",
        class: Synthetic,
        communication: "bursty on/off",
        programs: synthetic(bursty: SyntheticParams),
    }
    /// Service: closed-loop RPC clients with think time.
    RpcClosed {
        name: "rpc-closed",
        class: Service,
        communication: "closed-loop request/response",
        programs: rpc(rpc_closed: RpcParams),
    }
    /// Service: open-loop RPC with Poisson-like arrivals.
    RpcOpen {
        name: "rpc-open",
        class: Service,
        communication: "open-loop request/response",
        programs: rpc(rpc_open: RpcParams),
    }
}

impl Workload {
    /// Parses a benchmark name (case-insensitive, surrounding whitespace
    /// ignored). For an error that lists the valid names — what a CLI should
    /// print — use the [`std::str::FromStr`] impl instead.
    pub fn parse(name: &str) -> Option<Workload> {
        name.parse().ok()
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a string names no known workload. Its [`Display`]
/// lists the valid names — generated from [`Workload::ALL`], so the list
/// always matches the registry — and harness binaries surface it verbatim
/// instead of a bare usage error.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload {
    /// The string that failed to parse.
    pub input: String,
}

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown workload {:?}; valid workloads: ", self.input)?;
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(w.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownWorkload {}

impl std::str::FromStr for Workload {
    type Err = UnknownWorkload;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == lower)
            .ok_or_else(|| UnknownWorkload {
                input: s.to_owned(),
            })
    }
}

/// The three input-size tiers every harness understands: `quick` for smoke
/// runs, `scaled` for the scaled-down defaults (what tests and the
/// generated `RESULTS.md` use), `paper` for the full Table 3 inputs.
///
/// A tier bundles the [`WorkloadParams`] with the machine size the
/// macrobenchmarks run at, so a campaign cell is fully specified by
/// `(workload, NI, bus, tier)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ParamsTier {
    /// Tiny inputs on an 8-node machine — seconds, for smoke tests.
    Quick,
    /// The scaled-down defaults on the paper's 16-node machine.
    #[default]
    Scaled,
    /// The full Table 3 inputs on the paper's 16-node machine (slow).
    Paper,
}

impl ParamsTier {
    /// All tiers, smallest first.
    pub const ALL: [ParamsTier; 3] = [ParamsTier::Quick, ParamsTier::Scaled, ParamsTier::Paper];

    /// The tier's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ParamsTier::Quick => "quick",
            ParamsTier::Scaled => "scaled",
            ParamsTier::Paper => "paper",
        }
    }

    /// The workload parameters this tier runs.
    pub fn params(self) -> WorkloadParams {
        match self {
            ParamsTier::Quick => WorkloadParams::tiny(),
            ParamsTier::Scaled => WorkloadParams::scaled(),
            ParamsTier::Paper => WorkloadParams::paper(),
        }
    }

    /// The machine size the macrobenchmarks use at this tier.
    pub fn nodes(self) -> usize {
        match self {
            ParamsTier::Quick => 8,
            ParamsTier::Scaled | ParamsTier::Paper => 16,
        }
    }
}

impl std::fmt::Display for ParamsTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a string names no known [`ParamsTier`]; the
/// [`Display`](std::fmt::Display) lists the valid tiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTier {
    /// The string that failed to parse.
    pub input: String,
}

impl std::fmt::Display for UnknownTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown input tier {:?}; valid tiers: quick, scaled, paper",
            self.input
        )
    }
}

impl std::error::Error for UnknownTier {}

impl std::str::FromStr for ParamsTier {
    type Err = UnknownTier;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        ParamsTier::ALL
            .into_iter()
            .find(|t| t.name() == lower)
            .ok_or_else(|| UnknownTier {
                input: s.to_owned(),
            })
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self::scaled()
    }
}

impl WorkloadParams {
    /// The scaled-down defaults used by tests and quick harness runs. Every
    /// synthetic pattern gets its own constructor so the per-pattern knobs
    /// (hotspot fraction, burst windows, message sizes) differ by default.
    pub fn scaled() -> Self {
        WorkloadParams {
            spsolve: SpsolveParams::default(),
            gauss: GaussParams::default(),
            em3d: Em3dParams::default(),
            moldyn: MoldynParams::default(),
            appbt: AppbtParams::default(),
            barnes: BarnesParams::default(),
            dsmc: DsmcParams::default(),
            unstructured: UnstructuredParams::default(),
            uniform: SyntheticParams::uniform(),
            hotspot: SyntheticParams::hotspot(),
            ring: SyntheticParams::ring(),
            alltoall: SyntheticParams::all_to_all(),
            bursty: SyntheticParams::bursty(),
            rpc_closed: RpcParams::closed(),
            rpc_open: RpcParams::open(),
        }
    }

    /// The paper's full input sizes (Table 3; the synthetic patterns run
    /// their heavier [`SyntheticParams::paper_scale`] variants).
    pub fn paper() -> Self {
        WorkloadParams {
            spsolve: SpsolveParams::paper(),
            gauss: GaussParams::paper(),
            em3d: Em3dParams::paper(),
            moldyn: MoldynParams::paper(),
            appbt: AppbtParams::paper(),
            barnes: BarnesParams::paper(),
            dsmc: DsmcParams::paper(),
            unstructured: UnstructuredParams::paper(),
            uniform: SyntheticParams::uniform().paper_scale(),
            hotspot: SyntheticParams::hotspot().paper_scale(),
            ring: SyntheticParams::ring().paper_scale(),
            alltoall: SyntheticParams::all_to_all().paper_scale(),
            bursty: SyntheticParams::bursty().paper_scale(),
            rpc_closed: RpcParams::closed().paper_scale(),
            rpc_open: RpcParams::open().paper_scale(),
        }
    }

    /// An even smaller configuration for fast smoke tests.
    pub fn tiny() -> Self {
        WorkloadParams {
            spsolve: SpsolveParams {
                elements: 64,
                layers: 4,
                ..SpsolveParams::default()
            },
            gauss: GaussParams {
                n: 8,
                ..GaussParams::default()
            },
            em3d: Em3dParams {
                graph_nodes: 32,
                iterations: 2,
                ..Em3dParams::default()
            },
            moldyn: MoldynParams {
                particles: 32,
                iterations: 2,
                ..MoldynParams::default()
            },
            appbt: AppbtParams {
                cube: 4,
                iterations: 1,
                ..AppbtParams::default()
            },
            barnes: BarnesParams {
                bodies: 32,
                iterations: 2,
                ..BarnesParams::default()
            },
            dsmc: DsmcParams {
                cells: 16,
                iterations: 2,
                ..DsmcParams::default()
            },
            unstructured: UnstructuredParams {
                mesh_nodes: 48,
                iterations: 2,
                ..UnstructuredParams::default()
            },
            uniform: SyntheticParams {
                phases: 2,
                messages_per_phase: 6,
                ..SyntheticParams::uniform()
            },
            hotspot: SyntheticParams {
                phases: 2,
                messages_per_phase: 6,
                ..SyntheticParams::hotspot()
            },
            ring: SyntheticParams {
                phases: 2,
                messages_per_phase: 4,
                ..SyntheticParams::ring()
            },
            alltoall: SyntheticParams {
                phases: 2,
                messages_per_phase: 1,
                ..SyntheticParams::all_to_all()
            },
            bursty: SyntheticParams {
                phases: 4,
                messages_per_phase: 8,
                ..SyntheticParams::bursty()
            },
            rpc_closed: RpcParams {
                requests_per_client: 6,
                ..RpcParams::closed()
            },
            rpc_open: RpcParams {
                requests_per_client: 6,
                ..RpcParams::open()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::machine::{Machine, MachineConfig};
    use cni_nic::taxonomy::NiKind;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(Workload::parse(&w.name().to_uppercase()), Some(w));
            assert_eq!(Workload::parse(&format!("  {} ", w.name())), Some(w));
            assert!(!w.communication().is_empty());
        }
        assert_eq!(Workload::parse("linpack"), None);
    }

    #[test]
    fn registry_covers_the_paper_suite_and_the_synthetic_patterns() {
        assert_eq!(Workload::ALL.len(), Workload::COUNT);
        let class_count =
            |class: WorkloadClass| Workload::ALL.iter().filter(|w| w.class() == class).count();
        assert!(
            class_count(WorkloadClass::Paper) >= 8,
            "the paper evaluates eight macrobenchmarks"
        );
        assert!(
            class_count(WorkloadClass::Synthetic) >= 5,
            "at least five synthetic patterns"
        );
        assert!(
            class_count(WorkloadClass::Service) >= 2,
            "closed-loop and open-loop RPC service workloads"
        );
        // The service workloads the latency campaign sweeps, pinned in
        // registry order (the campaign derives its cell list from this
        // filter, so the pin also pins the RESULTS.md row order).
        let service: Vec<&str> = Workload::ALL
            .iter()
            .filter(|w| w.class() == WorkloadClass::Service)
            .map(|w| w.name())
            .collect();
        assert_eq!(service, ["rpc-closed", "rpc-open"]);
        // Names are unique — a duplicate would shadow a workload in FromStr.
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Workload::ALL.len());
    }

    #[test]
    fn unknown_workload_error_list_matches_the_registry_exactly() {
        let err = "linpack".parse::<Workload>().unwrap_err();
        let message = err.to_string();
        assert!(message.contains("\"linpack\""), "{message}");
        // The list after the colon must be exactly the registry's names in
        // registry order — no omissions, no extras, no hand-maintained
        // ordering to forget.
        let expected = Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(", ");
        let listed = message
            .rsplit("valid workloads: ")
            .next()
            .expect("error message names the valid workloads");
        assert_eq!(listed, expected, "{message}");
    }

    #[test]
    fn tiers_parse_and_carry_their_inputs() {
        for tier in ParamsTier::ALL {
            assert_eq!(tier.name().parse::<ParamsTier>().unwrap(), tier);
            assert!(tier.nodes() >= 8);
        }
        assert_eq!("QUICK".parse::<ParamsTier>().unwrap(), ParamsTier::Quick);
        assert_eq!(ParamsTier::Scaled.params(), WorkloadParams::scaled());
        assert_eq!(ParamsTier::Paper.params(), WorkloadParams::paper());
        let err = "huge".parse::<ParamsTier>().unwrap_err();
        assert!(err.to_string().contains("quick, scaled, paper"));
    }

    #[test]
    fn every_workload_completes_on_a_small_machine() {
        let params = WorkloadParams::tiny();
        for w in Workload::ALL {
            let nodes = 4;
            let cfg = MachineConfig::isca96(nodes, NiKind::Cni16Qm);
            let mut machine = Machine::new(cfg, w.programs(nodes, &params));
            let report = machine.run();
            assert!(report.completed, "{w} did not complete");
            assert!(report.cycles > 0);
        }
    }

    #[test]
    fn paper_parameters_are_larger_than_scaled() {
        let scaled = WorkloadParams::scaled();
        let paper = WorkloadParams::paper();
        assert!(paper.spsolve.elements > scaled.spsolve.elements);
        assert!(paper.gauss.n > scaled.gauss.n);
        assert!(paper.em3d.graph_nodes > scaled.em3d.graph_nodes);
        assert!(paper.moldyn.iterations > scaled.moldyn.iterations);
        assert!(paper.appbt.cube > scaled.appbt.cube);
        assert!(paper.barnes.bodies > scaled.barnes.bodies);
        assert!(paper.dsmc.cells > scaled.dsmc.cells);
        assert!(paper.unstructured.mesh_nodes > scaled.unstructured.mesh_nodes);
        assert!(paper.hotspot.messages_per_phase > scaled.hotspot.messages_per_phase);
        assert!(paper.bursty.phases > scaled.bursty.phases);
        assert!(paper.rpc_closed.requests_per_client > scaled.rpc_closed.requests_per_client);
        assert!(paper.rpc_open.requests_per_client > scaled.rpc_open.requests_per_client);
    }

    #[test]
    fn per_pattern_synthetic_knobs_are_independent() {
        let params = WorkloadParams::scaled();
        assert!(params.hotspot.hotspot_fraction > 0.0);
        assert_eq!(params.uniform.hotspot_fraction, 0.0);
        assert!(params.bursty.burst_off > 0);
        assert_eq!(params.ring.burst_off, 0);
        assert!(params.ring.message_bytes > params.uniform.message_bytes);
    }
}
