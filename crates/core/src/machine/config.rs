//! Machine configuration.

use serde::{Deserialize, Serialize};

use cni_mem::system::DeviceLocation;
use cni_net::faults::FaultConfig;
use cni_nic::cq_model::CqOptimizations;
use cni_nic::taxonomy::NiKind;
use cni_sim::sharded::{LookaheadMode, SpecTuning};
use cni_sim::time::Cycle;

/// How a machine's nodes are partitioned into shards for the epoch-driven
/// execution model (see [`crate::machine`]'s module docs).
///
/// Every policy produces **bit-identical simulation results** — sharding
/// changes how the simulator schedules its own work, never what it computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ShardPolicy {
    /// One shard: the classic single event loop (the default).
    #[default]
    Single,
    /// Pick the shard count from the host's core count
    /// ([`cni_sim::pool::auto_jobs`]) and the machine size: one shard per
    /// core, as wide as the [`ShardPolicy::AUTO_MIN_NODES_PER_SHARD`]-node
    /// floor allows. See [`ShardPolicy::resolve_for`] for the exact rule.
    /// How many threads advance the shards is [`MachineConfig::parallel`]'s
    /// business, not the policy's.
    Auto,
    /// Exactly this many shards, clamped to `1..=nodes`.
    Fixed(usize),
}

impl ShardPolicy {
    /// [`ShardPolicy::Auto`] never cuts shards smaller than this many nodes:
    /// below it, the per-epoch barrier outweighs what a shard's worth of
    /// events can amortize (measured in the `scaling` sweep).
    pub const AUTO_MIN_NODES_PER_SHARD: usize = 16;

    /// The shard count this policy yields for a machine of `nodes` nodes,
    /// reading the host's parallelism for [`ShardPolicy::Auto`].
    pub fn resolve(self, nodes: usize) -> usize {
        self.resolve_for(nodes, cni_sim::pool::auto_jobs())
    }

    /// The shard count this policy yields for a machine of `nodes` nodes on
    /// a host with `cores` usable cores. Pure — the testable core of
    /// [`ShardPolicy::resolve`]; only [`ShardPolicy::Auto`] looks at
    /// `cores`.
    ///
    /// The auto rule: one shard per core, but never shards smaller than
    /// [`ShardPolicy::AUTO_MIN_NODES_PER_SHARD`] nodes — a 64-node machine
    /// on a 32-core host gets 4 shards, not 32, and a one-core host gets
    /// one shard (extra shards on one thread measured no faster).
    pub fn resolve_for(self, nodes: usize, cores: usize) -> usize {
        let shards = match self {
            ShardPolicy::Single => 1,
            ShardPolicy::Auto => cores.min(nodes / Self::AUTO_MIN_NODES_PER_SHARD),
            ShardPolicy::Fixed(n) => n,
        };
        shards.clamp(1, nodes.max(1))
    }
}

/// The epoch driver's speculation knobs, grouped.
///
/// Both are simulator-performance knobs: simulated results are
/// bit-identical under every combination (determinism invariant 7).
/// Grouping them keeps [`MachineConfig`]'s builder surface flat — one
/// [`MachineConfig::with_speculation`] call configures the whole planner —
/// and gives campaign/scaling code a single value to sweep.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeculationConfig {
    /// How the epoch driver plans its horizons: fixed one-latency epochs
    /// (the default), or speculative execution past the horizon with
    /// rollback.
    pub lookahead: LookaheadMode,
    /// Speculation pacer tuning. All observables are globally merged, so
    /// any tuning keeps the gamble schedule identical across shard counts
    /// and worker counts.
    pub pacer: SpecTuning,
}

impl SpeculationConfig {
    /// The default planner with a different lookahead mode — the common
    /// case for callers that only care about fixed/speculative.
    pub fn with_lookahead(lookahead: LookaheadMode) -> Self {
        SpeculationConfig {
            lookahead,
            ..Self::default()
        }
    }
}

/// Configuration of a simulated parallel machine (§4.1).
///
/// Only what callers vary is a field. The rest of the paper's machine is
/// fixed: the Table 2 cost model ([`cni_mem::timing::TIMING`]), the
/// four-message window ([`cni_net::window::DEFAULT_WINDOW`]), the 256 KB
/// processor cache ([`cni_mem::system::PROC_CACHE_BYTES`]), the receive batch
/// ([`super::RECV_BATCH`]) and the delivery retry interval
/// ([`super::DELIVERY_RETRY_INTERVAL`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of nodes (the paper simulates 16).
    pub nodes: usize,
    /// Which network interface every node uses.
    pub ni_kind: NiKind,
    /// Which bus the NI sits on.
    pub device_location: DeviceLocation,
    /// Whether the processor cache snarfs device writebacks (§5.1.2).
    pub snarfing: bool,
    /// Cachable-queue optimisations (all on for the paper's configuration).
    pub cq_opts: CqOptimizations,
    /// Hard stop for the simulation (guards against livelock in buggy
    /// workloads).
    pub max_cycles: Cycle,
    /// How the nodes are partitioned into independently-advancing shards.
    /// Purely a simulator-performance knob: simulated results are
    /// bit-identical for every policy.
    pub shards: ShardPolicy,
    /// Whether shards advance on worker threads — one per shard up to the
    /// host's core count, each owning a contiguous block of shards —
    /// instead of all on the calling thread. Results are bit-identical either way; only wall-clock
    /// differs. `false` keeps the whole run on one thread. Ignored when the
    /// policy resolves to a single shard.
    pub parallel: bool,
    /// Deterministic fault injection and the reliable-delivery protocol
    /// that recovers from it. All-zero (the default) disables the layer
    /// entirely: the machine takes its historical code path and every
    /// simulated result stays byte-identical.
    pub faults: FaultConfig,
    /// The epoch driver's grouped speculation knobs (lookahead mode and
    /// pacer tuning). Simulator-performance knobs
    /// like [`MachineConfig::shards`]: simulated results are bit-identical
    /// under every combination.
    pub speculation: SpeculationConfig,
}

impl MachineConfig {
    /// The paper's configuration with the NI on the coherent memory bus.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn isca96(nodes: usize, ni_kind: NiKind) -> Self {
        assert!(nodes > 0, "a machine needs at least one node");
        MachineConfig {
            nodes,
            ni_kind,
            device_location: DeviceLocation::MemoryBus,
            snarfing: false,
            cq_opts: CqOptimizations::default(),
            max_cycles: 2_000_000_000,
            shards: ShardPolicy::default(),
            parallel: false,
            faults: FaultConfig::default(),
            speculation: SpeculationConfig::default(),
        }
    }

    /// The paper's configuration with the NI on the coherent I/O bus.
    ///
    /// # Panics
    ///
    /// Panics if `ni_kind` is `CNI16Qm`: main memory cannot be the home for
    /// queues behind a coherent I/O bus (§2.3), so the paper does not
    /// evaluate that combination and neither do we.
    pub fn isca96_io(nodes: usize, ni_kind: NiKind) -> Self {
        assert!(
            ni_kind != NiKind::Cni16Qm,
            "CNI16Qm cannot be implemented on a coherent I/O bus (§2.3)"
        );
        MachineConfig {
            device_location: DeviceLocation::IoBus,
            ..Self::isca96(nodes, ni_kind)
        }
    }

    /// The `NI2w`-on-the-cache-bus upper-bound configuration used in the
    /// "alternate buses" comparisons of Figures 6c, 7c and 8c.
    pub fn isca96_cache_bus(nodes: usize) -> Self {
        MachineConfig {
            device_location: DeviceLocation::CacheBus,
            ..Self::isca96(nodes, NiKind::Ni2w)
        }
    }

    /// Convenience constructor dispatching on the bus name used in the
    /// figures.
    pub fn for_bus(nodes: usize, ni_kind: NiKind, location: DeviceLocation) -> Self {
        match location {
            DeviceLocation::MemoryBus => Self::isca96(nodes, ni_kind),
            DeviceLocation::IoBus => Self::isca96_io(nodes, ni_kind),
            DeviceLocation::CacheBus => {
                assert!(
                    ni_kind == NiKind::Ni2w,
                    "only NI2w is evaluated on the cache bus"
                );
                Self::isca96_cache_bus(nodes)
            }
        }
    }

    /// Returns a copy with snarfing enabled (Figure 7a's `CNI16Qm + snarf`
    /// series).
    pub fn with_snarfing(mut self) -> Self {
        self.snarfing = true;
        self
    }

    /// Returns a copy with the given CQ optimisation settings (ablations).
    pub fn with_cq_opts(mut self, opts: CqOptimizations) -> Self {
        self.cq_opts = opts;
        self
    }

    /// Returns a copy using the given shard policy (simulator-performance
    /// knob; simulated results are bit-identical for every policy).
    pub fn with_shards(mut self, policy: ShardPolicy) -> Self {
        self.shards = policy;
        self
    }

    /// Returns a copy that advances shards on up to one worker thread per
    /// host core (bit-identical results, different wall-clock). Only
    /// meaningful together with a multi-shard
    /// [`MachineConfig::with_shards`] policy.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Returns a copy with the given fault-injection configuration. A
    /// non-zero configuration also activates the reliable-delivery protocol
    /// (per-destination sequence numbers, receive-side dedup, ack-driven
    /// retransmission).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Returns a copy with the epoch driver's speculation knobs — lookahead
    /// mode and pacer tuning — set in one call.
    pub fn with_speculation(mut self, speculation: SpeculationConfig) -> Self {
        self.speculation = speculation;
        self
    }

    /// The number of shards this configuration resolves to.
    pub fn shard_count(&self) -> usize {
        self.shards.resolve(self.nodes)
    }

    /// How many threads advance the shards: with
    /// [`MachineConfig::parallel`], one per shard up to the host's core
    /// count ([`cni_sim::pool::auto_jobs`]); otherwise one, the calling
    /// thread.
    pub fn workers(&self) -> usize {
        if self.parallel {
            self.shard_count().min(cni_sim::pool::auto_jobs())
        } else {
            1
        }
    }

    /// Whether the machine will advance its shards on more than one thread.
    pub fn exec_parallel(&self) -> bool {
        self.workers() > 1
    }

    /// The per-node memory-system configuration implied by this machine
    /// configuration.
    pub fn node_mem_config(&self) -> cni_mem::system::NodeMemConfig {
        cni_mem::system::NodeMemConfig {
            device_cache_blocks: if self.device_location == DeviceLocation::CacheBus {
                None
            } else {
                self.ni_kind.spec().device_cache_blocks
            },
            device_location: self.device_location,
            snarfing: self.snarfing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_machine_matches_the_paper() {
        use crate::machine::{DELIVERY_RETRY_INTERVAL, RECV_BATCH};
        use cni_mem::system::PROC_CACHE_BYTES;
        use cni_mem::timing::TIMING;
        let cfg = MachineConfig::isca96(16, NiKind::Cni16Qm);
        assert_eq!(cfg.nodes, 16);
        assert_eq!(cfg.device_location, DeviceLocation::MemoryBus);
        assert!(!cfg.snarfing);
        assert_eq!(cni_net::window::DEFAULT_WINDOW, 4);
        assert_eq!(PROC_CACHE_BYTES, 256 * 1024);
        assert_eq!(TIMING.network_latency, 100);
        assert_eq!(RECV_BATCH, 8);
        assert_eq!(DELIVERY_RETRY_INTERVAL, 64);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = MachineConfig::isca96(0, NiKind::Ni2w);
    }

    #[test]
    #[should_panic(expected = "I/O bus")]
    fn cni16qm_on_io_bus_is_rejected() {
        let _ = MachineConfig::isca96_io(4, NiKind::Cni16Qm);
    }

    #[test]
    #[should_panic(expected = "cache bus")]
    fn coherent_ni_on_cache_bus_is_rejected() {
        let _ = MachineConfig::for_bus(4, NiKind::Cni4, DeviceLocation::CacheBus);
    }

    #[test]
    fn node_mem_config_mirrors_the_taxonomy() {
        let cfg = MachineConfig::isca96(2, NiKind::Cni512Q);
        let mem = cfg.node_mem_config();
        assert_eq!(mem.device_cache_blocks, Some(512));
        let cfg = MachineConfig::isca96_cache_bus(2);
        assert_eq!(cfg.node_mem_config().device_cache_blocks, None);
    }

    #[test]
    fn shard_policies_resolve_sanely() {
        assert_eq!(ShardPolicy::Single.resolve(64), 1);
        assert_eq!(ShardPolicy::Fixed(4).resolve(64), 4);
        assert_eq!(ShardPolicy::Fixed(0).resolve(64), 1);
        assert_eq!(ShardPolicy::Fixed(200).resolve(64), 64);
        let cfg = MachineConfig::isca96(64, NiKind::Ni2w).with_shards(ShardPolicy::Fixed(4));
        assert_eq!(cfg.shard_count(), 4);
        assert!(!cfg.parallel);
    }

    /// `ShardPolicy::Auto` resolves the shard count from the host shape
    /// deterministically: single-core hosts stay on one shard, multi-core
    /// hosts go as wide as the cores and the 16-node-per-shard floor allow,
    /// and everything clamps at the node count.
    #[test]
    fn auto_policy_resolution_covers_host_shapes() {
        let auto = ShardPolicy::Auto;
        // (nodes, cores) -> shard count.
        let expectations = [
            // One core: one shard, whatever the machine size.
            (16, 1, 1),
            (64, 1, 1),
            (256, 1, 1),
            (1024, 1, 1),
            // Many cores: one shard per core, floored at 16 nodes per shard.
            (16, 8, 1),
            (32, 2, 2),
            (64, 4, 4),
            (64, 64, 4),
            (256, 16, 16),
            (1024, 64, 64),
            // Clamping at the node count and degenerate core counts.
            (2, 64, 1),
            (1, 1, 1),
            (512, 0, 1),
        ];
        for (nodes, cores, want) in expectations {
            assert_eq!(
                auto.resolve_for(nodes, cores),
                want,
                "Auto at {nodes} nodes / {cores} cores"
            );
        }
        // The host-reading entry points agree with the pure ones.
        let cores = cni_sim::pool::auto_jobs();
        assert_eq!(auto.resolve(100), auto.resolve_for(100, cores));
        let cfg = MachineConfig::isca96(100, NiKind::Cni512Q).with_shards(ShardPolicy::Auto);
        assert_eq!(cfg.shard_count(), auto.resolve_for(100, cores));
        // Auto picks only the shard count: the `parallel` flag decides whether
        // more than the calling thread runs them, at most one per core.
        assert_eq!(cfg.workers(), 1);
        let parallel = cfg.with_parallel(true);
        assert!(parallel.parallel);
        assert_eq!(parallel.workers(), parallel.shard_count().min(cores));
    }

    #[test]
    fn builder_style_modifiers() {
        let cfg = MachineConfig::isca96(2, NiKind::Cni16Qm).with_snarfing();
        assert!(cfg.snarfing);
        assert!(cfg.node_mem_config().snarfing);
        let opts = CqOptimizations {
            sense_reverse: false,
            ..CqOptimizations::default()
        };
        let cfg = cfg.with_cq_opts(opts);
        assert!(!cfg.cq_opts.sense_reverse);
    }

    #[test]
    fn faults_default_to_zero_and_take_the_builder() {
        let cfg = MachineConfig::isca96(2, NiKind::Ni2w);
        assert!(cfg.faults.is_zero(), "the default machine is fault-free");
        let cfg = cfg.with_faults(FaultConfig::lossy(7, 10_000));
        assert!(cfg.faults.enabled());
        assert_eq!(cfg.faults.drop_ppm, 10_000);
    }
}
