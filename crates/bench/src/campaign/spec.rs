//! [`ExperimentSpec`]: the pure, digestable definition of one campaign cell.
//!
//! A spec captures **everything that determines a cell's simulated result**
//! — workload, NI, bus, input tier, machine size, microbenchmark parameters
//! — and nothing that doesn't. Simulator-performance knobs (shard policy,
//! worker threads) are deliberately *not* part of the
//! spec: the repository's determinism invariant (see `tests/harness`
//! and `tests/properties.rs`) is that they never change a simulated result,
//! so two runs differing only in those knobs share one cache entry.
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
use cni_mem::timing::TimingConfig;
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
const SPEC_SCHEMA: &str = "cni-campaign-v5";

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
    /// two-node machine, one message size.
    Latency {
        /// Network interface.
        ni: NiKind,
        /// Which bus the NI sits on.
        location: DeviceLocation,
        /// User message size in bytes.
        message_bytes: usize,
        /// Round trips measured.
        iterations: usize,
    },
    /// One point of the Figure 7 streaming-bandwidth sweep (§5.1.2).
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
    },
    /// One macrobenchmark run (Figure 8 / §5.2): `workload` on an
    /// `nodes`-node machine with `ni` on `location`, at input tier `tier`.
    /// The result carries cycles *and* bus-occupancy counters, so the same
    /// cell serves both the speedup and the occupancy panels.
    Macro {
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
    },
    /// One cachable-queue ablation variant (§2.2): `CNI512Q` on the memory
    /// bus with the given optimisation switches, measured on the 64-byte
    /// round trip and the 2 KB stream.
    Ablation {
        /// Which CQ optimisations are enabled.
        opts: CqOptimizations,
        /// Round trips measured.
        iterations: usize,
        /// Messages streamed.
        messages: usize,
    },
    /// One point of the resilience sweep: `workload` on an `nodes`-node
    /// machine with `ni` on the memory bus, under the
    /// [`cni_net::faults::FaultConfig::lossy`] preset at `fault_ppm` parts
    /// per million, recovered by the reliable-delivery protocol. The result
    /// carries cycles, wire traffic and the fault-accounting counters, so
    /// one cell serves both the goodput and the accounting panels.
    Resilience {
        /// The benchmark.
        workload: Workload,
        /// Network interface.
        ni: NiKind,
        /// Loss intensity in parts per million (the `lossy` preset derives
        /// corruption, duplication and delay rates from it).
        fault_ppm: u32,
        /// Machine size in nodes.
        nodes: usize,
        /// Input-size tier.
        tier: ParamsTier,
    },
    /// One tail-latency service run: a [`cni_workloads::WorkloadClass::Service`]
    /// workload (closed- or open-loop RPC) on an `nodes`-node machine with
    /// `ni` on the memory bus. The result carries the run cycles plus the
    /// machine-total latency histogram's deterministic integer quantiles
    /// (p50/p99/p99.9/max) — merged from the per-node
    /// [`cni_core::machine::NodeStats::request_latency`] histograms, which
    /// compose bit-identically across shard counts, executor modes and
    /// lookahead modes.
    Service {
        /// The service workload.
        workload: Workload,
        /// Network interface.
        ni: NiKind,
        /// Machine size in nodes.
        nodes: usize,
        /// Input-size tier.
        tier: ParamsTier,
    },
    /// One speculative-lookahead schedule measurement: `workload` on an
    /// `nodes`-node machine with `ni` on the memory bus, driven with
    /// [`LookaheadMode::Speculative`]. The simulated result is bit-identical
    /// to the matching [`ExperimentSpec::Macro`] cell (determinism
    /// invariant 7 — the result JSON repeats the report digest so the
    /// campaign can assert it); what this cell measures is the *schedule*:
    /// epochs, committed and rolled-back gambles, and the re-executed
    /// cycles rollbacks paid.
    Speculation {
        /// The benchmark.
        workload: Workload,
        /// Network interface.
        ni: NiKind,
        /// Machine size in nodes.
        nodes: usize,
        /// Input-size tier.
        tier: ParamsTier,
    },
    /// The Table 1 taxonomy — pure data, no simulation; a cell so Table 1
    /// renders through the same pipeline as everything else.
    Taxonomy,
}

/// Seed of the resilience sweep's fault plans. One fixed constant: the sweep
/// is a deterministic experiment, not a sampling exercise.
pub const RESILIENCE_FAULT_SEED: u64 = 0x15CA_96C4_1F00;

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
/// retry interval), the default CQ optimisations and each tier's workload
/// parameters. Mixed into every digest so a change to the model or the
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
        // inherit (not just TimingConfig) perturbs the fingerprint when
        // edited. The wall-clock knobs it also sweeps in (shards, parallel,
        // speculation) are constants of `isca96`, so they never vary
        // between runs.
        hasher.write_str(&format!("{:?}", MachineConfig::isca96(2, NiKind::Ni2w)));
        hasher.write_str(&format!("{:?}", TimingConfig::isca96()));
        for constant in [DEFAULT_WINDOW, PROC_CACHE_BYTES, RECV_BATCH] {
            hasher.write_u64(constant as u64);
        }
        hasher.write_u64(DELIVERY_RETRY_INTERVAL);
        hasher.write_str(&format!("{:?}", CqOptimizations::default()));
        for tier in ParamsTier::ALL {
            hasher.write_str(&format!("{:?}", tier.params()));
        }
        hasher.finish()
    })
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
            } => format!(
                r#"{{"kind":"latency","ni":"{ni}","location":"{}","message_bytes":{message_bytes},"iterations":{iterations}}}"#,
                location_token(location)
            ),
            ExperimentSpec::Bandwidth {
                ni,
                location,
                snarfing,
                message_bytes,
                messages,
            } => format!(
                r#"{{"kind":"bandwidth","ni":"{ni}","location":"{}","snarfing":{snarfing},"message_bytes":{message_bytes},"messages":{messages}}}"#,
                location_token(location)
            ),
            ExperimentSpec::Macro {
                workload,
                ni,
                location,
                nodes,
                tier,
            } => format!(
                r#"{{"kind":"macro","workload":"{workload}","ni":"{ni}","location":"{}","nodes":{nodes},"tier":"{tier}"}}"#,
                location_token(location)
            ),
            ExperimentSpec::Ablation {
                opts,
                iterations,
                messages,
            } => format!(
                r#"{{"kind":"ablation","lazy_pointers":{},"valid_bits":{},"sense_reverse":{},"iterations":{iterations},"messages":{messages}}}"#,
                opts.lazy_pointers, opts.valid_bits, opts.sense_reverse
            ),
            ExperimentSpec::Resilience {
                workload,
                ni,
                fault_ppm,
                nodes,
                tier,
            } => format!(
                r#"{{"kind":"resilience","workload":"{workload}","ni":"{ni}","fault_ppm":{fault_ppm},"fault_seed":{RESILIENCE_FAULT_SEED},"nodes":{nodes},"tier":"{tier}"}}"#
            ),
            ExperimentSpec::Service {
                workload,
                ni,
                nodes,
                tier,
            } => format!(
                r#"{{"kind":"service","workload":"{workload}","ni":"{ni}","location":"memory","nodes":{nodes},"tier":"{tier}"}}"#
            ),
            ExperimentSpec::Speculation {
                workload,
                ni,
                nodes,
                tier,
            } => format!(
                r#"{{"kind":"speculation","workload":"{workload}","ni":"{ni}","location":"memory","nodes":{nodes},"tier":"{tier}"}}"#
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
            } => {
                let cfg = tune(MachineConfig::for_bus(2, ni, location));
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
            } => {
                let mut cfg = MachineConfig::for_bus(2, ni, location);
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
            ExperimentSpec::Macro {
                workload,
                ni,
                location,
                nodes,
                tier,
            } => {
                let cfg = tune(MachineConfig::for_bus(nodes, ni, location));
                let RunStats {
                    report, outcome, ..
                } = run_workload_stats(workload, &cfg, &tier.params());
                // The epoch statistics describe the driver's schedule under
                // the config-default lookahead mode — deterministic like the
                // simulated numbers (invariant across shard counts, executor
                // modes), so they are safe to cache alongside.
                format!(
                    r#"{{"cycles":{},"memory_bus_busy":{},"io_bus_busy":{},"epochs":{},"mean_epoch_len":{:.1},"max_epoch_len":{},"report_digest":"{:016x}"}}"#,
                    report.cycles,
                    report.memory_bus_busy,
                    report.io_bus_busy,
                    outcome.epochs,
                    outcome.mean_epoch_len(),
                    outcome.max_epoch_len,
                    report_digest(&report)
                )
            }
            ExperimentSpec::Ablation {
                opts,
                iterations,
                messages,
            } => {
                let cfg = tune(MachineConfig::isca96(2, NiKind::Cni512Q).with_cq_opts(opts));
                let latency = round_trip_latency(
                    &cfg,
                    &LatencyParams {
                        message_bytes: 64,
                        iterations,
                    },
                );
                let bandwidth = stream_bandwidth(
                    &cfg,
                    &BandwidthParams {
                        message_bytes: 2048,
                        messages,
                    },
                );
                format!(
                    r#"{{"round_trip_micros":{},"relative_bandwidth":{}}}"#,
                    latency.round_trip_micros, bandwidth.relative
                )
            }
            ExperimentSpec::Resilience {
                workload,
                ni,
                fault_ppm,
                nodes,
                tier,
            } => {
                let mut cfg = tune(
                    MachineConfig::isca96(nodes, ni)
                        .with_faults(FaultConfig::lossy(RESILIENCE_FAULT_SEED, fault_ppm)),
                );
                // Fault-injected runs do strictly more work than clean ones;
                // a generous-but-finite ceiling turns an unrecoverable cell
                // into a loud abort (with pending-work diagnostics) instead
                // of an unbounded hang.
                cfg.max_cycles = 50_000_000;
                let report = run_workload_stats(workload, &cfg, &tier.params()).report;
                let f = report.fabric;
                format!(
                    r#"{{"cycles":{},"messages":{},"payload_bytes":{},"faults_dropped":{},"corruptions_detected":{},"dup_discards":{},"retransmits":{},"timeouts":{},"report_digest":"{:016x}"}}"#,
                    report.cycles,
                    f.messages,
                    f.payload_bytes,
                    f.faults_dropped,
                    f.corruptions_detected,
                    f.dup_discards,
                    f.retransmits,
                    f.timeouts,
                    report_digest(&report)
                )
            }
            ExperimentSpec::Service {
                workload,
                ni,
                nodes,
                tier,
            } => {
                let cfg = tune(MachineConfig::for_bus(nodes, ni, DeviceLocation::MemoryBus));
                let report = run_workload_stats(workload, &cfg, &tier.params()).report;
                // Quantiles come from the machine-total histogram, merged
                // from the per-node histograms with the associative
                // [`Merge`] — the same integers whatever the shard count,
                // executor mode or lookahead mode (invariant 7).
                let hist =
                    LatencyHistogram::merged(report.node_stats.iter().map(|s| s.request_latency));
                format!(
                    r#"{{"cycles":{},"requests":{},"p50":{},"p99":{},"p999":{},"max":{},"report_digest":"{:016x}"}}"#,
                    report.cycles,
                    hist.count(),
                    hist.quantile_permille(500),
                    hist.quantile_permille(990),
                    hist.quantile_permille(999),
                    hist.max(),
                    report_digest(&report)
                )
            }
            ExperimentSpec::Speculation {
                workload,
                ni,
                nodes,
                tier,
            } => {
                let cfg = tune(MachineConfig::for_bus(nodes, ni, DeviceLocation::MemoryBus))
                    .with_speculation(SpeculationConfig::with_lookahead(
                        LookaheadMode::Speculative,
                    ));
                let RunStats {
                    report,
                    outcome,
                    checkpoints: ckpt,
                } = run_workload_stats(workload, &cfg, &tier.params());
                // The digest must match the conservative Macro cell for the
                // same (workload, ni, nodes, tier) — invariant 7. The
                // schedule statistics are what differ: gambles committed and
                // rolled back, plus the cycles re-executed paying for the
                // rollbacks — and what the incremental checkpoints paid for
                // the gambles in bytes and dirty fraction.
                format!(
                    r#"{{"cycles":{},"epochs":{},"epoch_extensions":{},"mean_epoch_len":{:.1},"max_epoch_len":{},"spec_commits":{},"spec_rollbacks":{},"spec_reexec_cycles":{},"ckpt_bytes":{},"dirty_fraction":{:.4},"report_digest":"{:016x}"}}"#,
                    report.cycles,
                    outcome.epochs,
                    outcome.extensions,
                    outcome.mean_epoch_len(),
                    outcome.max_epoch_len,
                    outcome.spec_commits,
                    outcome.spec_rollbacks,
                    outcome.spec_reexec_cycles,
                    ckpt.bytes,
                    ckpt.dirty_fraction(),
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
    /// `macro/gauss/CNI16Q/memory/16n/scaled`.
    pub fn label(&self) -> String {
        match *self {
            ExperimentSpec::Latency {
                ni,
                location,
                message_bytes,
                ..
            } => format!("latency/{ni}/{}/{message_bytes}B", location_token(location)),
            ExperimentSpec::Bandwidth {
                ni,
                location,
                snarfing,
                message_bytes,
                ..
            } => format!(
                "bandwidth/{ni}{}/{}/{message_bytes}B",
                if snarfing { "+snarf" } else { "" },
                location_token(location)
            ),
            ExperimentSpec::Macro {
                workload,
                ni,
                location,
                nodes,
                tier,
            } => format!(
                "macro/{workload}/{ni}/{}/{nodes}n/{tier}",
                location_token(location)
            ),
            ExperimentSpec::Ablation { opts, .. } => format!(
                "ablation/lazy={}/valid={}/sense={}",
                opts.lazy_pointers, opts.valid_bits, opts.sense_reverse
            ),
            ExperimentSpec::Resilience {
                workload,
                ni,
                fault_ppm,
                nodes,
                tier,
            } => format!("resilience/{workload}/{ni}/{fault_ppm}ppm/{nodes}n/{tier}"),
            ExperimentSpec::Service {
                workload,
                ni,
                nodes,
                tier,
            } => format!("service/{workload}/{ni}/{nodes}n/{tier}"),
            ExperimentSpec::Speculation {
                workload,
                ni,
                nodes,
                tier,
            } => format!("speculation/{workload}/{ni}/{nodes}n/{tier}"),
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
        };
        let b = ExperimentSpec::Latency {
            ni: NiKind::Cni16Q,
            location: DeviceLocation::MemoryBus,
            message_bytes: 128,
            iterations: 6,
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
            },
            ExperimentSpec::Bandwidth {
                ni: NiKind::Cni16Qm,
                location: DeviceLocation::MemoryBus,
                snarfing: true,
                message_bytes: 512,
                messages: 4,
            },
            ExperimentSpec::Macro {
                workload: Workload::Gauss,
                ni: NiKind::Cni4,
                location: DeviceLocation::MemoryBus,
                nodes: 4,
                tier: ParamsTier::Quick,
            },
            ExperimentSpec::Ablation {
                opts: CqOptimizations::none(),
                iterations: 2,
                messages: 4,
            },
            ExperimentSpec::Resilience {
                workload: Workload::Em3d,
                ni: NiKind::Cni512Q,
                fault_ppm: 20_000,
                nodes: 8,
                tier: ParamsTier::Quick,
            },
            ExperimentSpec::Service {
                workload: Workload::RpcClosed,
                ni: NiKind::Cni16Q,
                nodes: 8,
                tier: ParamsTier::Quick,
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
