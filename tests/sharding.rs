//! Shard-equivalence properties: sharding is a simulator-performance knob,
//! never a results knob.
//!
//! Every test compares full [`RunReport`]s — execution cycles, fabric
//! traffic, bus occupancy and per-node statistics — across the 1-shard
//! sequential run (the reference), an N-shard sequential run and an N-shard
//! parallel run of the *same* machine. The reports must be bit-identical:
//! the epoch driver's lookahead plus the canonical `(arrival, origin, seq)`
//! merge order make per-node event order a pure function of the simulation
//! (see the `cni::core::machine` module docs for the argument).
//!
//! Randomization follows the house style of `tests/properties.rs`: many
//! cases derived from a fixed master seed via [`DetRng`], so a failure
//! reproduces exactly and names its case.

use cni::core::machine::{Machine, MachineConfig, RunReport, ShardPolicy};
use cni::nic::NiKind;
use cni::sim::rng::DetRng;
use cni::workloads::{Workload, WorkloadParams};

fn run(cfg: MachineConfig, workload: Workload, params: &WorkloadParams) -> RunReport {
    let programs = workload.programs(cfg.nodes, params);
    Machine::new(cfg, programs).run()
}

/// Like [`run`], but also returns the epoch driver's outcome so tests can
/// assert speculation (or any other lookahead machinery) actually engaged.
fn run_with_outcome(
    cfg: MachineConfig,
    workload: Workload,
    params: &WorkloadParams,
) -> (RunReport, cni::core::machine::EpochOutcome) {
    let programs = workload.programs(cfg.nodes, params);
    let mut machine = Machine::new(cfg, programs);
    let report = machine.run();
    let outcome = *machine
        .epoch_outcome()
        .expect("run() always records an epoch outcome");
    (report, outcome)
}

/// Sequential 1-shard, sequential N-shard and parallel N-shard runs are
/// bit-identical for every NI kind, across four workloads with different
/// communication patterns (fine-grain spsolve and em3d, broadcast-heavy
/// gauss, convergent hotspot) and randomized machine/shard shapes, plus one
/// fixed case: em3d on a 6-node CNI16Qm machine split into 3 shards.
#[test]
fn sharding_never_changes_results() {
    let check = |kind: NiKind, workload: Workload, nodes: usize, shards: usize| {
        let params = WorkloadParams::tiny();
        let case = format!("{kind}/{workload}: {nodes} nodes, {shards} shards");

        let reference = run(MachineConfig::isca96(nodes, kind), workload, &params);
        assert!(reference.completed, "{case}: reference did not complete");

        let sequential = run(
            MachineConfig::isca96(nodes, kind).with_shards(ShardPolicy::Fixed(shards)),
            workload,
            &params,
        );
        assert_eq!(
            sequential, reference,
            "{case}: sequential N-shard run diverged"
        );

        let parallel = run(
            MachineConfig::isca96(nodes, kind)
                .with_shards(ShardPolicy::Fixed(shards))
                .with_parallel(true),
            workload,
            &params,
        );
        assert_eq!(parallel, reference, "{case}: parallel N-shard run diverged");
    };

    let mut rng = DetRng::new(0x5AAD);
    for kind in NiKind::ALL {
        for workload in [
            Workload::Spsolve,
            Workload::Gauss,
            Workload::Em3d,
            Workload::Hotspot,
        ] {
            let nodes = 3 + rng.gen_index(8); // 3..=10
            let shards = 2 + rng.gen_index(nodes - 1); // 2..=nodes
            check(kind, workload, nodes, shards);
        }
    }
    // The draws give CNI16Qm/em3d 5 nodes on 5 shards; also cover the
    // uneven 6-node, 3-shard split.
    check(NiKind::Cni16Qm, Workload::Em3d, 6, 3);
}

/// The acceptance-scale case: a 256-node machine on 8 shards — sequential
/// and parallel — is bit-identical to the 1-shard sequential run.
#[test]
fn large_machine_shards_bit_identically() {
    let nodes = 256;
    let mut params = WorkloadParams::tiny();
    // Keep the debug-build runtime sane while still crossing shard
    // boundaries constantly: a small weak-scaled em3d graph with half its
    // edges remote.
    params.em3d.graph_nodes = nodes * 4;
    params.em3d.remote_fraction = 0.5;
    params.em3d.iterations = 2;

    let reference = run(
        MachineConfig::isca96(nodes, NiKind::Cni512Q),
        Workload::Em3d,
        &params,
    );
    assert!(reference.completed, "256-node reference did not complete");
    assert!(
        reference.fabric.messages > 1_000,
        "the 256-node case should exercise real cross-shard traffic, got {}",
        reference.fabric.messages
    );

    for parallel in [false, true] {
        let report = run(
            MachineConfig::isca96(nodes, NiKind::Cni512Q)
                .with_shards(ShardPolicy::Fixed(8))
                .with_parallel(parallel),
            Workload::Em3d,
            &params,
        );
        assert_eq!(
            report, reference,
            "256-node 8-shard (parallel = {parallel}) run diverged"
        );
    }
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(auto.resolve(100), auto.resolve_for(100, cores));
    let cfg = MachineConfig::isca96(100, NiKind::Cni512Q).with_shards(ShardPolicy::Auto);
    assert_eq!(cfg.shard_count(), auto.resolve_for(100, cores));
    // Auto picks only the shard count: the `parallel` flag decides whether
    // more than the calling thread runs them, at most one per core.
    assert_eq!(cfg.workers(), 1);
    let parallel = cfg.with_parallel(true);
    assert_eq!(parallel.workers(), parallel.shard_count().min(cores));
}

/// Randomized property: with the exchange-skipping barrier, every
/// execution layout — `Auto`, and explicitly parallel shardings on the
/// persistent worker pool — stays bit-identical to `ShardPolicy::Single`,
/// for all five NI kinds. The workload mix includes compute-heavy skeletons
/// (moldyn, appbt) whose quiescent stretches run exchange-free, so the
/// skip path itself is exercised, not just the dense-traffic path.
#[test]
fn barrier_skipping_layouts_match_single_for_every_ni() {
    let mut rng = DetRng::new(0xBA77_1E55);
    let workloads = [Workload::Moldyn, Workload::Appbt, Workload::Em3d];
    for kind in NiKind::ALL {
        for &workload in &workloads {
            let nodes = 4 + rng.gen_index(7); // 4..=10
            let shards = 2 + rng.gen_index(3); // 2..=4
            let params = WorkloadParams::tiny();
            let case = format!("{kind}/{workload}: {nodes} nodes, {shards} shards");

            let reference = run(
                MachineConfig::isca96(nodes, kind).with_shards(ShardPolicy::Single),
                workload,
                &params,
            );
            assert!(reference.completed, "{case}: reference did not complete");

            let auto = run(
                MachineConfig::isca96(nodes, kind).with_shards(ShardPolicy::Auto),
                workload,
                &params,
            );
            assert_eq!(auto, reference, "{case}: Auto layout diverged");

            let parallel = run(
                MachineConfig::isca96(nodes, kind)
                    .with_shards(ShardPolicy::Fixed(shards))
                    .with_parallel(true),
                workload,
                &params,
            );
            assert_eq!(
                parallel, reference,
                "{case}: parallel worker-pool run diverged"
            );
        }
    }
}

/// The workloads this PR added beyond the original five — the restored
/// paper macrobenchmarks (request/response barnes, variable-size-ring dsmc,
/// irregular-halo unstructured) and one synthetic pattern (hotspot
/// convergence) — shard bit-identically too: 1-shard sequential vs N-shard
/// sequential vs N-shard parallel vs `Auto`, for every NI kind, with
/// randomized machine/shard shapes in the house style.
#[test]
fn new_workloads_shard_bit_identically() {
    let mut rng = DetRng::new(0x6E77_3713);
    let workloads = [
        Workload::Barnes,
        Workload::Dsmc,
        Workload::Unstructured,
        Workload::Hotspot,
    ];
    for kind in NiKind::ALL {
        for &workload in &workloads {
            let nodes = 4 + rng.gen_index(7); // 4..=10
            let shards = 2 + rng.gen_index(3); // 2..=4
            let params = WorkloadParams::tiny();
            let case = format!("{kind}/{workload}: {nodes} nodes, {shards} shards");

            let reference = run(MachineConfig::isca96(nodes, kind), workload, &params);
            assert!(reference.completed, "{case}: reference did not complete");
            assert!(
                reference.fabric.messages > 0,
                "{case}: the case must exercise real network traffic"
            );

            let sequential = run(
                MachineConfig::isca96(nodes, kind).with_shards(ShardPolicy::Fixed(shards)),
                workload,
                &params,
            );
            assert_eq!(
                sequential, reference,
                "{case}: sequential N-shard run diverged"
            );

            let parallel = run(
                MachineConfig::isca96(nodes, kind)
                    .with_shards(ShardPolicy::Fixed(shards))
                    .with_parallel(true),
                workload,
                &params,
            );
            assert_eq!(parallel, reference, "{case}: parallel N-shard run diverged");

            let auto = run(
                MachineConfig::isca96(nodes, kind).with_shards(ShardPolicy::Auto),
                workload,
                &params,
            );
            assert_eq!(auto, reference, "{case}: Auto layout diverged");
        }
    }
}

/// Determinism invariant 5: fault-injection verdicts are a pure function of
/// `(seed, origin, per-node net_seq)`, so a lossy run — drops, detected
/// corruptions, duplicates, delays, plus the reliable-delivery recovery
/// machinery (dedup, acks, retransmission timers) — shards bit-identically
/// too: 1-shard sequential vs N-shard sequential vs N-shard parallel vs
/// `Auto`, for every NI kind across two workloads, with randomized
/// machine/shard shapes in the house style. Every case asserts the faults
/// actually fired, so the equality is never vacuous.
#[test]
fn fault_injection_shards_bit_identically() {
    use cni::net::faults::FaultConfig;
    let mut rng = DetRng::new(0xFA17_5EED);
    for kind in NiKind::ALL {
        for workload in [Workload::Em3d, Workload::Gauss] {
            let nodes = 4 + rng.gen_index(7); // 4..=10
            let shards = 2 + rng.gen_index(3); // 2..=4
            let params = WorkloadParams::tiny();
            let faults = FaultConfig {
                seed: rng.next_u64(),
                drop_ppm: 150_000,
                corrupt_ppm: 100_000,
                duplicate_ppm: 100_000,
                delay_ppm: 100_000,
                ..FaultConfig::default()
            };
            let case = format!(
                "{kind}/{workload}: {nodes} nodes, {shards} shards, fault seed {:#x}",
                faults.seed
            );
            let cfg = || MachineConfig::isca96(nodes, kind).with_faults(faults.clone());

            let reference = run(cfg(), workload, &params);
            assert!(
                reference.completed,
                "{case}: lossy reference did not complete"
            );
            let f = reference.fabric;
            assert!(
                f.faults_dropped > 0 && f.corruptions_detected > 0,
                "{case}: rates this high must drop and corrupt something \
                 (dropped {}, corrupted {})",
                f.faults_dropped,
                f.corruptions_detected
            );

            let sequential = run(
                cfg().with_shards(ShardPolicy::Fixed(shards)),
                workload,
                &params,
            );
            assert_eq!(
                sequential, reference,
                "{case}: sequential N-shard lossy run diverged"
            );

            let parallel = run(
                cfg()
                    .with_shards(ShardPolicy::Fixed(shards))
                    .with_parallel(true),
                workload,
                &params,
            );
            assert_eq!(
                parallel, reference,
                "{case}: parallel N-shard lossy run diverged"
            );

            let auto = run(cfg().with_shards(ShardPolicy::Auto), workload, &params);
            assert_eq!(auto, reference, "{case}: Auto lossy layout diverged");
        }
    }
}

/// Fail-stop/freeze windows (a node unreachable for an interval, then
/// recovered by retransmission) are part of the same invariant: the outage
/// is judged against stamp-pure times, so it shards bit-identically.
#[test]
fn outage_windows_shard_bit_identically() {
    use cni::net::faults::{FailWindow, FaultConfig};
    let params = WorkloadParams::tiny();
    let faults = FaultConfig {
        seed: 0x00D0_0DAD,
        drop_ppm: 50_000,
        fail_windows: vec![
            FailWindow {
                node: 1,
                from: 2_000,
                until: 60_000,
            },
            FailWindow {
                node: 4,
                from: 10_000,
                until: 45_000,
            },
        ],
        ..FaultConfig::default()
    };
    let cfg = || MachineConfig::isca96(6, NiKind::Cni16Q).with_faults(faults.clone());

    let reference = run(cfg(), Workload::Em3d, &params);
    assert!(
        reference.completed,
        "the frozen nodes must recover once their windows close"
    );
    assert!(
        reference.fabric.faults_dropped > 0,
        "traffic into the outage windows must be destroyed"
    );

    for parallel in [false, true] {
        let report = run(
            cfg()
                .with_shards(ShardPolicy::Fixed(3))
                .with_parallel(parallel),
            Workload::Em3d,
            &params,
        );
        assert_eq!(
            report, reference,
            "outage run (parallel = {parallel}) diverged"
        );
    }
}

/// Determinism invariant 7 meets invariant 5: speculation under fault
/// injection. Retransmission timers, duplicate suppression and fault
/// verdicts are all part of the state a rollback must restore, and the
/// lossy mix keeps conflicting traffic flowing into the gambled horizon —
/// so this is the densest rollback workout in the suite. For every NI kind
/// across two workloads with randomized machine/shard shapes, a speculative
/// lossy run — sequential and parallel — is bit-identical to the
/// fixed-lookahead single-shard reference, and every case asserts both that
/// the faults fired and that speculation actually resolved rounds (commit
/// or rollback), so the equality is never vacuous.
#[test]
fn speculative_lookahead_is_unobservable_under_faults() {
    use cni::core::machine::{LookaheadMode, SpeculationConfig};
    use cni::net::faults::FaultConfig;
    let mut rng = DetRng::new(0x09EC_FA17);
    for kind in NiKind::ALL {
        for workload in [Workload::Em3d, Workload::Gauss] {
            let nodes = 4 + rng.gen_index(7); // 4..=10
            let shards = 2 + rng.gen_index(3); // 2..=4
            let params = WorkloadParams::tiny();
            let faults = FaultConfig {
                seed: rng.next_u64(),
                drop_ppm: 150_000,
                corrupt_ppm: 100_000,
                duplicate_ppm: 100_000,
                delay_ppm: 100_000,
                ..FaultConfig::default()
            };
            let case = format!(
                "{kind}/{workload}: {nodes} nodes, {shards} shards, fault seed {:#x}",
                faults.seed
            );
            let cfg = || MachineConfig::isca96(nodes, kind).with_faults(faults.clone());

            let reference = run(cfg(), workload, &params);
            assert!(
                reference.completed,
                "{case}: lossy reference did not complete"
            );
            assert!(
                reference.fabric.faults_dropped > 0,
                "{case}: rates this high must drop something"
            );

            for parallel in [false, true] {
                let (speculative, outcome) = run_with_outcome(
                    cfg()
                        .with_shards(ShardPolicy::Fixed(shards))
                        .with_parallel(parallel)
                        .with_speculation(SpeculationConfig::with_lookahead(
                            LookaheadMode::Speculative,
                        )),
                    workload,
                    &params,
                );
                assert_eq!(
                    speculative, reference,
                    "{case}: speculative lossy run (parallel = {parallel}) diverged"
                );
                assert!(
                    outcome.spec_commits + outcome.spec_rollbacks > 0,
                    "{case}: speculation never resolved a round (parallel = {parallel})"
                );
            }
        }
    }
}

/// Rollback under the two adversarial fault shapes: fail-stop outage
/// windows (a frozen node's retransmission backlog floods the reopening
/// window) and inert retransmission timers (`retransmit: false` with
/// duplicate/delay noise arms timers that fire, rearm and do nothing —
/// checkpointed and restored across every rollback without poisoning the
/// schedule). Both must stay bit-identical to the conservative reference.
#[test]
fn speculative_rollback_survives_outages_and_inert_timers() {
    use cni::core::machine::{LookaheadMode, SpeculationConfig};
    use cni::net::faults::{FailWindow, FaultConfig};
    let params = WorkloadParams::tiny();

    let outage = FaultConfig {
        seed: 0x00D0_0DAD,
        drop_ppm: 50_000,
        fail_windows: vec![
            FailWindow {
                node: 1,
                from: 2_000,
                until: 60_000,
            },
            FailWindow {
                node: 4,
                from: 10_000,
                until: 45_000,
            },
        ],
        ..FaultConfig::default()
    };
    let inert_timers = FaultConfig {
        seed: 0x1E47_0000,
        duplicate_ppm: 120_000,
        delay_ppm: 120_000,
        retransmit: false,
        // An RTO shorter than the ack round trip guarantees the inert
        // timers actually expire (and rearm, and expire again) mid-run.
        rto_cycles: 60,
        ..FaultConfig::default()
    };

    for (label, faults) in [("outage", outage), ("inert-timers", inert_timers)] {
        let cfg = || MachineConfig::isca96(6, NiKind::Cni16Q).with_faults(faults.clone());

        let reference = run(cfg(), Workload::Em3d, &params);
        assert!(reference.completed, "{label}: reference did not complete");
        if label == "outage" {
            assert!(
                reference.fabric.faults_dropped > 0,
                "{label}: traffic into the windows must be destroyed"
            );
        } else {
            assert!(
                reference.fabric.dup_discards > 0,
                "{label}: the duplicate rate must fire"
            );
            assert!(
                reference.fabric.timeouts > 0,
                "{label}: the inert timers must actually expire"
            );
        }

        for parallel in [false, true] {
            let (speculative, outcome) = run_with_outcome(
                cfg()
                    .with_shards(ShardPolicy::Fixed(3))
                    .with_parallel(parallel)
                    .with_speculation(SpeculationConfig::with_lookahead(
                        LookaheadMode::Speculative,
                    )),
                Workload::Em3d,
                &params,
            );
            assert_eq!(
                speculative, reference,
                "{label}: speculative run (parallel = {parallel}) diverged"
            );
            assert!(
                outcome.spec_commits + outcome.spec_rollbacks > 0,
                "{label}: speculation never resolved a round (parallel = {parallel})"
            );
        }
    }
}

/// The service workloads' figure of merit — the tail of the merged
/// request-latency histogram — is part of the determinism contract, not just
/// a by-product of report equality. For both RPC disciplines across every NI
/// kind with randomized machine/shard shapes, the 1-shard sequential
/// reference, sequential N-shard, parallel N-shard and `Auto` layouts must
/// agree on the full `RunReport` *and* explicitly on p50/p99/p99.9 read from
/// the machine-total histogram; a speculative-lookahead run must match too,
/// with speculation proven to have actually resolved rounds.
#[test]
fn rpc_tail_latencies_shard_bit_identically() {
    use cni::core::machine::{LookaheadMode, RunReport, SpeculationConfig};
    use cni::sim::stats::{LatencyHistogram, Merge};

    fn tail(report: &RunReport) -> (u64, u64, u64) {
        let hist = LatencyHistogram::merged(report.node_stats.iter().map(|s| s.request_latency));
        (
            hist.quantile_permille(500),
            hist.quantile_permille(990),
            hist.quantile_permille(999),
        )
    }

    let mut rng = DetRng::new(0x59C0_7A11);
    for kind in NiKind::ALL {
        for workload in [Workload::RpcClosed, Workload::RpcOpen] {
            let nodes = 4 + rng.gen_index(7); // 4..=10
            let shards = 2 + rng.gen_index(3); // 2..=4
            let params = WorkloadParams::tiny();
            let case = format!("{kind}/{workload}: {nodes} nodes, {shards} shards");

            let reference = run(
                MachineConfig::isca96(nodes, kind).with_shards(ShardPolicy::Single),
                workload,
                &params,
            );
            assert!(reference.completed, "{case}: reference did not complete");
            let hist =
                LatencyHistogram::merged(reference.node_stats.iter().map(|s| s.request_latency));
            assert!(
                hist.count() > 0,
                "{case}: the run must record request latencies"
            );
            let reference_tail = tail(&reference);

            let layouts: [(&str, MachineConfig); 3] = [
                (
                    "sequential N-shard",
                    MachineConfig::isca96(nodes, kind).with_shards(ShardPolicy::Fixed(shards)),
                ),
                (
                    "parallel N-shard",
                    MachineConfig::isca96(nodes, kind)
                        .with_shards(ShardPolicy::Fixed(shards))
                        .with_parallel(true),
                ),
                (
                    "Auto",
                    MachineConfig::isca96(nodes, kind).with_shards(ShardPolicy::Auto),
                ),
            ];
            for (label, cfg) in layouts {
                let report = run(cfg, workload, &params);
                assert_eq!(report, reference, "{case}: {label} run diverged");
                assert_eq!(
                    tail(&report),
                    reference_tail,
                    "{case}: {label} run changed the latency tail"
                );
            }

            let (speculative, outcome) = run_with_outcome(
                MachineConfig::isca96(nodes, kind)
                    .with_shards(ShardPolicy::Fixed(shards))
                    .with_parallel(true)
                    .with_speculation(SpeculationConfig::with_lookahead(
                        LookaheadMode::Speculative,
                    )),
                workload,
                &params,
            );
            assert_eq!(speculative, reference, "{case}: speculative run diverged");
            assert_eq!(
                tail(&speculative),
                reference_tail,
                "{case}: speculation changed the latency tail"
            );
            assert!(
                outcome.spec_commits + outcome.spec_rollbacks > 0,
                "{case}: speculation never resolved a round"
            );
        }
    }
}
