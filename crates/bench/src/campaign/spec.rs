//! [`ExperimentSpec`]: the pure, digestable definition of one campaign cell.
//!
//! A spec captures **everything that determines a cell's simulated result**
//! — workload, NI, bus, input tier, machine size, fault rate, microbenchmark
//! parameters — and nothing that doesn't. Simulator-performance knobs
//! (shard policy, worker threads) are deliberately *not* part of the
//! spec: the repository's determinism invariant (see `tests/harness`
//! and `tests/properties.rs`) is that they never change a simulated result,
//! so two runs differing only in those knobs share one cache entry.
//!
//! There are four kinds of cell: the two microbenchmarks
//! ([`ExperimentSpec::Latency`], [`ExperimentSpec::Bandwidth`], which also
//! carry the §2.2 ablation's CQ switches), one workload run
//! ([`ExperimentSpec::Run`], behind every macrobenchmark panel) and the
//! Table 1 data ([`ExperimentSpec::Taxonomy`]). Every panel that looks at
//! the same simulation builds the same spec, so the campaign engine's
//! digest dedup runs it once.
//!
//! [`ExperimentSpec::canonical`] renders the spec as a canonical JSON
//! string; [`ExperimentSpec::digest`] hashes it (together with a schema
//! fingerprint that covers the Table 2 cost model and the per-tier workload
//! parameters, so editing the model invalidates stale cache entries
//! automatically); [`ExperimentSpec::execute`] runs the cell and returns its
//! result as a canonical JSON string — the exact bytes that are cached on
//! disk and compared across executor modes.

use cni_core::digest::Fnv64;
use cni_core::machine::{
    LookaheadMode, MachineConfig, ShardPolicy, SpeculationConfig, DELIVERY_RETRY_INTERVAL,
    RECV_BATCH,
};
use cni_core::micro::{round_trip_latency, stream_bandwidth, BandwidthParams, LatencyParams};
use cni_mem::system::{DeviceLocation, PROC_CACHE_BYTES};
use cni_mem::timing::TIMING;
use cni_net::faults::FaultConfig;
use cni_net::window::DEFAULT_WINDOW;
use cni_nic::cq_model::CqOptimizations;
use cni_nic::taxonomy::{NiKind, QueueHome, QueuePointers};
use cni_sim::stats::{LatencyHistogram, Merge};
use cni_workloads::{ParamsTier, Workload};

use crate::{report_digest, run_workload_stats, RunStats};

/// Version tag of the spec encoding and the result encodings. Bump when a
/// cell's canonical or result JSON changes shape, so stale cache entries
/// can never be misread.
const SPEC_SCHEMA: &str = "cni-campaign-v6";

/// Simulator-performance knobs applied when executing a cell. None of these
/// affect simulated results (the determinism tests prove it), so none of
/// them participate in [`ExperimentSpec::digest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecKnobs {
    /// Shard policy for every machine the cell builds. The default is
    /// [`ShardPolicy::Single`]: campaign cells already run concurrently with
    /// each other, so per-cell sharding would oversubscribe the host.
    pub shards: ShardPolicy,
    /// Whether sharded machines advance on worker threads.
    pub parallel: bool,
}

impl Default for ExecKnobs {
    fn default() -> Self {
        ExecKnobs {
            shards: ShardPolicy::Single,
            parallel: false,
        }
    }
}

/// The pure definition of one experiment cell. See the module docs for the
/// digest/execute contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExperimentSpec {
    /// One point of the Figure 6 round-trip latency sweep (§5.1.1): a
    /// two-node machine, one message size. The §2.2 ablation varies `opts`
    /// on `CNI512Q`; with the default optimisations the cell is a Figure 6
    /// point.
    Latency {
        /// Network interface.
        ni: NiKind,
        /// Which bus the NI sits on.
        location: DeviceLocation,
        /// User message size in bytes.
        message_bytes: usize,
        /// Round trips measured.
        iterations: usize,
        /// Which CQ optimisations are enabled.
        opts: CqOptimizations,
    },
    /// One point of the Figure 7 streaming-bandwidth sweep (§5.1.2), with
    /// CQ optimisations as for [`ExperimentSpec::Latency`].
    Bandwidth {
        /// Network interface.
        ni: NiKind,
        /// Which bus the NI sits on.
        location: DeviceLocation,
        /// Whether the processor cache snarfs device writebacks (the
        /// `CNI16Qm + snarf` series of Figure 7a).
        snarfing: bool,
        /// User message size in bytes.
        message_bytes: usize,
        /// Messages streamed.
        messages: usize,
        /// Which CQ optimisations are enabled.
        opts: CqOptimizations,
    },
    /// One workload run: `workload` on an `nodes`-node machine with `ni` on
    /// `location`, at input tier `tier`, under the
    /// [`cni_net::faults::FaultConfig::lossy`] preset at `fault_ppm` parts
    /// per million (none at `0`) and the epoch driver's `lookahead` mode.
    /// The result carries every statistic a renderer reads — cycles, bus
    /// occupancy, the epoch schedule and what speculation paid, fabric and
    /// fault counters, request-latency quantiles and the report digest — so
    /// one cell serves Figure 8, the occupancy, lookahead, resilience and
    /// tail-latency panels alike, and a simulation two panels share runs
    /// once.
    Run {
        /// The benchmark.
        workload: Workload,
        /// Network interface.
        ni: NiKind,
        /// Which bus the NI sits on.
        location: DeviceLocation,
        /// Machine size in nodes.
        nodes: usize,
        /// Input-size tier.
        tier: ParamsTier,
        /// Loss intensity in parts per million (the `lossy` preset derives
        /// corruption, duplication and delay rates from it).
        fault_ppm: u32,
        /// The epoch driver's lookahead mode. It changes the schedule
        /// statistics, never the simulated result (determinism invariant
        /// 7).
        lookahead: LookaheadMode,
    },
    /// The Table 1 taxonomy — pure data, no simulation; a cell so Table 1
    /// renders through the same pipeline as everything else.
    Taxonomy,
}

/// Seed of the resilience sweep's fault plans. One fixed constant: the sweep
/// is a deterministic experiment, not a sampling exercise.
pub const RESILIENCE_FAULT_SEED: u64 = 0x15CA_96C4_1F00;

/// Cycle ceiling of a fault-injected run. Such runs do strictly more work
/// than clean ones; a generous-but-finite ceiling turns an unrecoverable
/// cell into a loud abort (with pending-work diagnostics) instead of an
/// unbounded hang.
const FAULTY_MAX_CYCLES: u64 = 50_000_000;

/// Canonical token for a bus location.
pub fn location_token(location: DeviceLocation) -> &'static str {
    match location {
        DeviceLocation::CacheBus => "cache",
        DeviceLocation::MemoryBus => "memory",
        DeviceLocation::IoBus => "io",
    }
}

/// Fingerprint of everything a spec implies but does not spell out: the
/// default machine configuration (cycle limit and the other defaults the
/// cells inherit), the machine constants it no longer carries (the Table 2
/// cost model, window size, processor cache capacity, receive batch and
/// retry interval), the default CQ optimisations, the fault seed and each
/// tier's workload parameters. Mixed into every digest so a change to the model or the
/// inputs orphans stale cache entries instead of serving them. (The
/// simulator's *code* is deliberately not covered — after a
/// behaviour-changing code edit, regenerate with `--cold`.)
fn schema_fingerprint() -> u64 {
    static FINGERPRINT: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    // A per-process constant (digest() runs per cell, per pass), computed
    // once.
    *FINGERPRINT.get_or_init(|| {
        let mut hasher = Fnv64::new();
        hasher.write_str(SPEC_SCHEMA);
        // Debug output includes every field, so any default the cells
        // inherit (not just `TIMING`) perturbs the fingerprint when
        // edited. The wall-clock knobs it also sweeps in (shards, parallel,
        // speculation) are constants of `isca96`, so they never vary
        // between runs.
        hasher.write_str(&format!("{:?}", MachineConfig::isca96(2, NiKind::Ni2w)));
        hasher.write_str(&format!("{TIMING:?}"));
        for constant in [DEFAULT_WINDOW, PROC_CACHE_BYTES, RECV_BATCH] {
            hasher.write_u64(constant as u64);
        }
        hasher.write_u64(DELIVERY_RETRY_INTERVAL);
        hasher.write_u64(RESILIENCE_FAULT_SEED);
        hasher.write_str(&format!("{:?}", CqOptimizations::default()));
        for tier in ParamsTier::ALL {
            hasher.write_str(&format!("{:?}", tier.params()));
        }
        hasher.finish()
    })
}

/// The CQ optimisation switches as canonical JSON members.
fn opts_json(opts: CqOptimizations) -> String {
    format!(
        r#""lazy_pointers":{},"valid_bits":{},"sense_reverse":{}"#,
        opts.lazy_pointers, opts.valid_bits, opts.sense_reverse
    )
}

/// Label suffix naming each disabled CQ optimisation (empty by default).
fn opts_label(opts: CqOptimizations) -> String {
    [
        (opts.lazy_pointers, "/no-lazy"),
        (opts.valid_bits, "/no-valid"),
        (opts.sense_reverse, "/no-sense"),
    ]
    .into_iter()
    .filter(|&(on, _)| !on)
    .map(|(_, name)| name)
    .collect()
}

impl ExperimentSpec {
    /// The canonical JSON encoding of the spec — the digested text, also
    /// embedded in `--json` output so a cache entry is self-describing.
    pub fn canonical(&self) -> String {
        match *self {
            ExperimentSpec::Latency {
                ni,
                location,
                message_bytes,
                iterations,
                opts,
            } => format!(
                r#"{{"kind":"latency","ni":"{ni}","location":"{}","message_bytes":{message_bytes},"iterations":{iterations},{}}}"#,
                location_token(location),
                opts_json(opts)
            ),
            ExperimentSpec::Bandwidth {
                ni,
                location,
                snarfing,
                message_bytes,
                messages,
                opts,
            } => format!(
                r#"{{"kind":"bandwidth","ni":"{ni}","location":"{}","snarfing":{snarfing},"message_bytes":{message_bytes},"messages":{messages},{}}}"#,
                location_token(location),
                opts_json(opts)
            ),
            ExperimentSpec::Run {
                workload,
                ni,
                location,
                nodes,
                tier,
                fault_ppm,
                lookahead,
            } => format!(
                r#"{{"kind":"run","workload":"{workload}","ni":"{ni}","location":"{}","nodes":{nodes},"tier":"{tier}","fault_ppm":{fault_ppm},"lookahead":"{lookahead}"}}"#,
                location_token(location)
            ),
            ExperimentSpec::Taxonomy => r#"{"kind":"taxonomy"}"#.to_owned(),
        }
    }

    /// The cache key: FNV-1a over the schema fingerprint and the canonical
    /// encoding. Equal digests ⇒ equal simulated results (by the
    /// determinism invariant); the executor also uses this to run each
    /// distinct spec once per campaign set, however many cells share it.
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv64::new();
        hasher.write_u64(schema_fingerprint());
        hasher.write_str(&self.canonical());
        hasher.finish()
    }

    /// What a [`ExperimentSpec::Run`] cell simulates: the workload, the
    /// machine it runs on and the input tier (`None` for the other kinds).
    /// The fault preset and its cycle ceiling join the machine only when
    /// `fault_ppm > 0`, so a zero-rate cell is the same simulation as the
    /// clean run. Distinct `Run` digests map to distinct simulations (a
    /// test over every report campaign checks it), so the digest dedup runs
    /// each simulation once.
    pub fn run_setup(&self) -> Option<(Workload, MachineConfig, ParamsTier)> {
        let ExperimentSpec::Run {
            workload,
            ni,
            location,
            nodes,
            tier,
            fault_ppm,
            lookahead,
        } = *self
        else {
            return None;
        };
        let mut cfg = MachineConfig::for_bus(nodes, ni, location)
            .with_speculation(SpeculationConfig::with_lookahead(lookahead));
        if fault_ppm > 0 {
            cfg = cfg.with_faults(FaultConfig::lossy(RESILIENCE_FAULT_SEED, fault_ppm));
            cfg.max_cycles = FAULTY_MAX_CYCLES;
        }
        Some((workload, cfg, tier))
    }

    /// Runs the cell and returns its result as canonical JSON — the exact
    /// bytes cached on disk. Pure with respect to the spec: byte-identical
    /// on every host, executor mode and [`ExecKnobs`] choice.
    pub fn execute(&self, knobs: &ExecKnobs) -> String {
        let tune = |cfg: MachineConfig| cfg.with_shards(knobs.shards).with_parallel(knobs.parallel);
        match *self {
            ExperimentSpec::Latency {
                ni,
                location,
                message_bytes,
                iterations,
                opts,
            } => {
                let cfg = tune(MachineConfig::for_bus(2, ni, location).with_cq_opts(opts));
                let report = round_trip_latency(
                    &cfg,
                    &LatencyParams {
                        message_bytes,
                        iterations,
                    },
                );
                format!(
                    r#"{{"round_trip_micros":{},"round_trip_cycles":{}}}"#,
                    report.round_trip_micros, report.round_trip_cycles
                )
            }
            ExperimentSpec::Bandwidth {
                ni,
                location,
                snarfing,
                message_bytes,
                messages,
                opts,
            } => {
                let mut cfg = MachineConfig::for_bus(2, ni, location).with_cq_opts(opts);
                if snarfing {
                    cfg = cfg.with_snarfing();
                }
                let report = stream_bandwidth(
                    &tune(cfg),
                    &BandwidthParams {
                        message_bytes,
                        messages,
                    },
                );
                format!(
                    r#"{{"relative":{},"mbytes_per_sec":{},"bytes":{},"cycles":{}}}"#,
                    report.relative, report.mbytes_per_sec, report.bytes, report.cycles
                )
            }
            ExperimentSpec::Run { .. } => {
                let (workload, cfg, tier) = self.run_setup().expect("a run cell has a setup");
                let RunStats {
                    report,
                    outcome,
                    checkpoints: ckpt,
                } = run_workload_stats(workload, &tune(cfg), &tier.params());
                let f = report.fabric;
                // Quantiles come from the machine-total histogram, merged
                // from the per-node histograms with the associative
                // [`Merge`] — the same integers whatever the shard count,
                // executor mode or lookahead mode (invariant 7). The epoch
                // and checkpoint statistics describe the cell's lookahead
                // mode's schedule, deterministic like the simulated numbers
                // (invariant across shard counts and executor modes), so
                // they are safe to cache alongside.
                let hist =
                    LatencyHistogram::merged(report.node_stats.iter().map(|s| s.request_latency));
                format!(
                    r#"{{"cycles":{},"memory_bus_busy":{},"io_bus_busy":{},"epochs":{},"epoch_extensions":{},"mean_epoch_len":{:.1},"max_epoch_len":{},"spec_commits":{},"spec_rollbacks":{},"spec_reexec_cycles":{},"ckpt_bytes":{},"dirty_fraction":{:.4},"messages":{},"payload_bytes":{},"faults_dropped":{},"corruptions_detected":{},"dup_discards":{},"retransmits":{},"timeouts":{},"requests":{},"p50":{},"p99":{},"p999":{},"max":{},"report_digest":"{:016x}"}}"#,
                    report.cycles,
                    report.memory_bus_busy,
                    report.io_bus_busy,
                    outcome.epochs,
                    outcome.extensions,
                    outcome.mean_epoch_len(),
                    outcome.max_epoch_len,
                    outcome.spec_commits,
                    outcome.spec_rollbacks,
                    outcome.spec_reexec_cycles,
                    ckpt.bytes,
                    ckpt.dirty_fraction(),
                    f.messages,
                    f.payload_bytes,
                    f.faults_dropped,
                    f.corruptions_detected,
                    f.dup_discards,
                    f.retransmits,
                    f.timeouts,
                    hist.count(),
                    hist.quantile_permille(500),
                    hist.quantile_permille(990),
                    hist.quantile_permille(999),
                    hist.max(),
                    report_digest(&report)
                )
            }
            ExperimentSpec::Taxonomy => {
                let rows: Vec<String> = NiKind::ALL
                    .into_iter()
                    .map(|kind| {
                        let spec = kind.spec();
                        let opt = |v: Option<usize>| {
                            v.map_or("null".to_owned(), |n| n.to_string())
                        };
                        format!(
                            r#"{{"label":"{}","exposed_words":{},"exposed_blocks":{},"queue_capacity_blocks":{},"device_cache_blocks":{},"pointers":"{}","home":"{}","coherent":{}}}"#,
                            spec.label,
                            opt(spec.exposed_words),
                            opt(spec.exposed_blocks),
                            spec.queue_capacity_blocks,
                            opt(spec.device_cache_blocks),
                            match spec.pointers {
                                QueuePointers::Implicit => "implicit",
                                QueuePointers::Explicit => "explicit",
                            },
                            match spec.home {
                                QueueHome::Device => "device",
                                QueueHome::MainMemory => "main memory",
                            },
                            kind.is_coherent()
                        )
                    })
                    .collect();
                format!(r#"{{"rows":[{}]}}"#, rows.join(","))
            }
        }
    }

    /// A short human label for progress output and `--json`, e.g.
    /// `run/gauss/CNI16Q/memory/16n/scaled` or
    /// `run/em3d/CNI512Q/memory/16n/scaled/20000ppm/speculative`.
    pub fn label(&self) -> String {
        match *self {
            ExperimentSpec::Latency {
                ni,
                location,
                message_bytes,
                opts,
                ..
            } => format!(
                "latency/{ni}/{}/{message_bytes}B{}",
                location_token(location),
                opts_label(opts)
            ),
            ExperimentSpec::Bandwidth {
                ni,
                location,
                snarfing,
                message_bytes,
                opts,
                ..
            } => format!(
                "bandwidth/{ni}{}/{}/{message_bytes}B{}",
                if snarfing { "+snarf" } else { "" },
                location_token(location),
                opts_label(opts)
            ),
            ExperimentSpec::Run {
                workload,
                ni,
                location,
                nodes,
                tier,
                fault_ppm,
                lookahead,
            } => {
                let mut label = format!(
                    "run/{workload}/{ni}/{}/{nodes}n/{tier}",
                    location_token(location)
                );
                if fault_ppm > 0 {
                    label.push_str(&format!("/{fault_ppm}ppm"));
                }
                if lookahead != LookaheadMode::Fixed {
                    label.push_str(&format!("/{lookahead}"));
                }
                label
            }
            ExperimentSpec::Taxonomy => "taxonomy".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_specs_and_ignore_exec_knobs() {
        let a = ExperimentSpec::Latency {
            ni: NiKind::Cni16Q,
            location: DeviceLocation::MemoryBus,
            message_bytes: 64,
            iterations: 6,
            opts: CqOptimizations::default(),
        };
        let b = ExperimentSpec::Latency {
            ni: NiKind::Cni16Q,
            location: DeviceLocation::MemoryBus,
            message_bytes: 128,
            iterations: 6,
            opts: CqOptimizations::default(),
        };
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.digest());
        // Exec knobs are not part of the spec, so the digest cannot see
        // them; the result they produce is identical too.
        let single = a.execute(&ExecKnobs::default());
        let sharded = a.execute(&ExecKnobs {
            shards: ShardPolicy::Fixed(2),
            parallel: true,
        });
        assert_eq!(single, sharded, "shard policy must not change results");
    }

    #[test]
    fn results_are_canonical_json() {
        let spec = ExperimentSpec::Taxonomy;
        let json = crate::json::Json::parse(&spec.execute(&ExecKnobs::default())).unwrap();
        let rows = json.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].get("label").unwrap().as_str(), Some("NI2w"));
        assert_eq!(rows[4].get("home").unwrap().as_str(), Some("main memory"));
    }

    #[test]
    fn canonical_encodings_parse_as_json() {
        let specs = [
            ExperimentSpec::Latency {
                ni: NiKind::Ni2w,
                location: DeviceLocation::IoBus,
                message_bytes: 8,
                iterations: 2,
                opts: CqOptimizations::none(),
            },
            ExperimentSpec::Bandwidth {
                ni: NiKind::Cni16Qm,
                location: DeviceLocation::MemoryBus,
                snarfing: true,
                message_bytes: 512,
                messages: 4,
                opts: CqOptimizations::default(),
            },
            ExperimentSpec::Run {
                workload: Workload::Em3d,
                ni: NiKind::Cni512Q,
                location: DeviceLocation::MemoryBus,
                nodes: 8,
                tier: ParamsTier::Quick,
                fault_ppm: 20_000,
                lookahead: LookaheadMode::Speculative,
            },
            ExperimentSpec::Taxonomy,
        ];
        for spec in specs {
            let parsed = crate::json::Json::parse(&spec.canonical()).unwrap();
            assert!(parsed.get("kind").is_some(), "{}", spec.canonical());
            assert!(!spec.label().is_empty());
        }
    }
}
