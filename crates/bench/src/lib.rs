//! Benchmark harness for regenerating every table and figure of the paper's
//! evaluation (§5).
//!
//! # The campaign engine
//!
//! Every figure is defined declaratively in [`campaign::figures`] as a
//! [`campaign::Campaign`] — a grid of pure [`campaign::ExperimentSpec`]
//! cells — and executed by [`campaign::run_campaigns`]: cells are
//! deduplicated and cached on disk by config digest, and the remaining ones
//! run concurrently on a work-stealing pool. The `report` binary executes
//! every campaign and renders the generated `RESULTS.md` at the repo root.
//! Every workload simulation is one [`campaign::ExperimentSpec::Run`] cell,
//! so panels that read the same run share it and it executes once:
//!
//! ```text
//! cargo run --release -p cni-bench --bin report            # regenerate RESULTS.md
//! cargo run --release -p cni-bench --bin report -- --json  # machine-readable superset
//! cargo run --release -p cni-bench --bin report -- --ci    # cold run (what CI diffs)
//! ```
//!
//! `report --only NAME` runs a single campaign and prints its section
//! (`cargo run --release -p cni-bench --bin report -- --only NAME`):
//!
//! | experiment | campaign | `NAME` |
//! |------------|----------|--------|
//! | Figure 6 (round-trip latency)      | [`campaign::figures::fig6_campaign`]      | `fig6` |
//! | Figure 7 (bandwidth)               | [`campaign::figures::fig7_campaign`]      | `fig7` |
//! | Figure 8 (macrobenchmark speedups) | [`campaign::figures::fig8_campaign`]      | `fig8` |
//! | §5.2 bus-occupancy reduction       | [`campaign::figures::occupancy_campaign`] | `occupancy` |
//! | Lookahead schedules (beyond the paper) | [`campaign::figures::lookahead_campaign`] | `lookahead` |
//! | §2.2 CQ ablation                   | [`campaign::figures::ablation_campaign`]  | `ablation` |
//! | Table 1 (taxonomy)                 | [`campaign::figures::taxonomy_campaign`]  | `taxonomy` |
//! | Resilience sweep (beyond the paper) | [`campaign::figures::resilience_campaign`] | `resilience` |
//! | Tail-latency sweep (beyond the paper) | [`campaign::figures::latency_campaign`] | `latency` |
//!
//! This crate root keeps only the shared primitives the campaigns and the
//! harness binaries build on: the figure size sweeps, the NI-per-bus sets,
//! the weak-scaled inputs `SCALING_ref.txt` pins ([`CI_WORKLOADS`],
//! [`scaling_params`]), [`run_workload_stats`] and [`report_digest`].
//! There is exactly one implementation of each figure sweep — the campaign
//! definition in [`campaign::figures`].
//!
//! # Benchmark workflow
//!
//! Two distinct kinds of measurement live in this crate — don't mix them up:
//!
//! **Simulated results** (the paper's metrics: cycles, speedups, occupancy)
//! come from the harness binaries above. They are deterministic: the same
//! inputs produce bit-identical numbers on any machine, regardless of shard
//! policy or worker count. Each binary takes `quick` (tiny inputs,
//! seconds), `scaled` (the default) or `paper` (Table 3 inputs, slower),
//! plus `--json`, `--jobs N` and `--cold` (see [`cli`]).
//!
//! **Simulator performance** (wall-clock of the simulator itself) comes from
//! the one Criterion bench and from `perfbench/` at the repo root:
//!
//! ```text
//! cargo bench -p cni-bench --bench queue_ops    # event queue + host CQ
//! ```
//!
//! `queue_ops` races the timing-wheel `cni_sim::EventQueue` against a
//! `std::collections::BinaryHeap` baseline under machine-loop-shaped churn.
//! Complete simulated experiments are timed end to end, with repeated and
//! normalised samples, by `perfbench/`. The perf trajectory across PRs is
//! recorded in `BENCH_seed.json` at the repo root, regenerated with:
//!
//! ```text
//! cargo run --release -p cni-bench --bin report -- --only fig8 --cold --json > BENCH_seed.json
//! ```
//!
//! (`--cold` makes every cell simulate, so the recorded `wall_seconds`
//! times real work rather than cache reads) and summarized in ROADMAP.md's
//! Performance section.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod json;

use cni_core::machine::{CheckpointStats, EpochOutcome, Machine, MachineConfig, RunReport};
use cni_mem::system::DeviceLocation;
use cni_nic::taxonomy::NiKind;
use cni_workloads::{Workload, WorkloadParams};

/// The message sizes swept by Figure 6 (bytes).
pub const FIG6_SIZES: [usize; 6] = [8, 16, 32, 64, 128, 256];

/// The message sizes swept by Figure 7 (bytes).
pub const FIG7_SIZES: [usize; 7] = [8, 32, 64, 256, 512, 2048, 4096];

/// The set of NIs the paper evaluates on a given bus (§5: all five on the
/// memory bus, all but `CNI16Qm` on the I/O bus, only `NI2w` on the cache
/// bus).
pub fn ni_set_for(location: DeviceLocation) -> Vec<NiKind> {
    match location {
        DeviceLocation::MemoryBus => NiKind::ALL.to_vec(),
        DeviceLocation::IoBus => NiKind::ALL
            .into_iter()
            .filter(|&k| k != NiKind::Cni16Qm)
            .collect(),
        DeviceLocation::CacheBus => vec![NiKind::Ni2w],
    }
}

/// The workloads whose sharded determinism digests `scaling --ci` pins in
/// `SCALING_ref.txt`: the trajectory workload plus the macrobenchmarks and
/// the synthetic pattern added beyond the original five, each with a
/// different communication shape (fine-grain graph, request/response
/// hotspot, variable-size ring, irregular halo, synthetic convergence).
pub const CI_WORKLOADS: [Workload; 5] = [
    Workload::Em3d,
    Workload::Barnes,
    Workload::Dsmc,
    Workload::Unstructured,
    Workload::Hotspot,
];

/// Inputs weak-scaled so every machine node owns the same share of the
/// workload regardless of the machine size — the inputs of the `scaling`
/// sweep (`quick` picks its smaller set, the one `SCALING_ref.txt` pins).
pub fn scaling_params(workload: Workload, nodes: usize, quick: bool) -> WorkloadParams {
    let mut params = WorkloadParams::tiny();
    match workload {
        Workload::Em3d => {
            params.em3d.graph_nodes = nodes * if quick { 8 } else { 32 };
            params.em3d.degree = 5;
            params.em3d.iterations = if quick { 4 } else { 25 };
        }
        Workload::Barnes => {
            params.barnes.bodies = nodes * if quick { 4 } else { 16 };
            params.barnes.iterations = if quick { 2 } else { 6 };
        }
        Workload::Dsmc => {
            params.dsmc.cells = nodes * if quick { 4 } else { 16 };
            params.dsmc.iterations = if quick { 3 } else { 10 };
        }
        Workload::Unstructured => {
            params.unstructured.mesh_nodes = nodes * if quick { 8 } else { 32 };
            params.unstructured.iterations = if quick { 2 } else { 8 };
        }
        Workload::Hotspot => {
            // messages_per_phase is already per node, so the pattern
            // weak-scales by construction; just lengthen the run.
            params.hotspot.phases = if quick { 3 } else { 8 };
        }
        // Any other workload runs its tiny inputs unscaled — fine for a
        // one-off sweep, but the CI set above is the weak-scaled one.
        _ => {}
    }
    params
}

/// Everything one completed workload run reports.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// The simulated results.
    pub report: RunReport,
    /// The epoch driver's schedule — epochs executed, exchanges,
    /// speculative commits and rollbacks. It is as deterministic as the
    /// report for a given lookahead mode (and invariant across shard counts
    /// and executor modes).
    pub outcome: EpochOutcome,
    /// What speculative gambles paid in copied nodes and bytes; all zeros
    /// under fixed lookahead, which never checkpoints.
    pub checkpoints: CheckpointStats,
}

/// Runs one workload on one machine configuration and returns its
/// [`RunStats`]. Panics loudly — naming the cycle limit — when the run
/// aborted, instead of letting a truncated result masquerade as a
/// measurement.
pub fn run_workload_stats(
    workload: Workload,
    cfg: &MachineConfig,
    params: &WorkloadParams,
) -> RunStats {
    let programs = workload.programs(cfg.nodes, params);
    let mut machine = Machine::new(cfg.clone(), programs);
    let report = machine.run();
    assert!(
        !report.aborted,
        "{workload} on {} ({}) hit the cycle limit (max_cycles = {}) — \
         results would be silently truncated; {}",
        cfg.ni_kind,
        cfg.device_location,
        cfg.max_cycles,
        report.pending_summary()
    );
    assert!(
        report.completed,
        "{workload} did not complete on {} ({})",
        cfg.ni_kind, cfg.device_location
    );
    let outcome = machine
        .epoch_outcome()
        .copied()
        .expect("a completed run always has an epoch outcome");
    RunStats {
        report,
        outcome,
        checkpoints: machine.checkpoint_stats(),
    }
}

/// A deterministic 64-bit digest of everything a [`RunReport`] observes:
/// completion, cycles, bus occupancy, fabric traffic and per-node stats.
///
/// Simulated results are bit-identical across machines, shard policies and
/// execution modes, so this digest is stable: CI pins the digest of a
/// reference scaling run and fails if any refactor perturbs the simulation.
pub fn report_digest(report: &RunReport) -> u64 {
    // FNV-1a over the report's scalar fields, in a fixed order. The write
    // sequence is load-bearing: `SCALING_ref.txt` pins a digest produced by
    // exactly this ordering.
    let mut hasher = cni_core::digest::Fnv64::new();
    hasher.write_u64(u64::from(report.completed));
    hasher.write_u64(u64::from(report.aborted));
    hasher.write_u64(report.cycles);
    hasher.write_u64(report.memory_bus_busy);
    hasher.write_u64(report.io_bus_busy);
    for &busy in &report.memory_bus_busy_per_node {
        hasher.write_u64(busy);
    }
    hasher.write_u64(report.fabric.messages);
    hasher.write_u64(report.fabric.wire_bytes);
    hasher.write_u64(report.fabric.payload_bytes);
    for stats in &report.node_stats {
        hasher.write_u64(stats.sent_messages);
        hasher.write_u64(stats.sent_bytes);
        hasher.write_u64(stats.sent_fragments);
        hasher.write_u64(stats.received_fragments);
        hasher.write_u64(stats.received_messages);
        hasher.write_u64(stats.received_bytes);
        hasher.write_u64(stats.compute_cycles);
        hasher.write_u64(stats.send_full_retries);
        hasher.write_u64(stats.local_messages);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::micro::{round_trip_latency, LatencyParams};

    #[test]
    fn ni_sets_match_the_papers_evaluation() {
        assert_eq!(ni_set_for(DeviceLocation::MemoryBus).len(), 5);
        assert_eq!(ni_set_for(DeviceLocation::IoBus).len(), 4);
        assert!(!ni_set_for(DeviceLocation::IoBus).contains(&NiKind::Cni16Qm));
        assert_eq!(ni_set_for(DeviceLocation::CacheBus), vec![NiKind::Ni2w]);
    }

    /// 64-byte round-trip latency of `ni` on `location`, in microseconds.
    fn latency_64b(ni: NiKind, location: DeviceLocation) -> f64 {
        let cfg = MachineConfig::for_bus(2, ni, location);
        round_trip_latency(
            &cfg,
            &LatencyParams {
                message_bytes: 64,
                iterations: 6,
            },
        )
        .round_trip_micros
    }

    #[test]
    fn fig6_shape_cnis_beat_ni2w_and_io_bus_is_slower() {
        let ni2w = latency_64b(NiKind::Ni2w, DeviceLocation::MemoryBus);
        for ni in NiKind::COHERENT {
            let cni = latency_64b(ni, DeviceLocation::MemoryBus);
            assert!(
                cni < ni2w,
                "{ni} should have lower 64-byte latency than NI2w ({cni:.2} vs {ni2w:.2} µs)"
            );
        }
        let mem = latency_64b(NiKind::Cni512Q, DeviceLocation::MemoryBus);
        let io = latency_64b(NiKind::Cni512Q, DeviceLocation::IoBus);
        assert!(io > mem, "the I/O bus must be slower than the memory bus");
    }

    #[test]
    fn fig8_shape_on_a_small_machine() {
        // gauss exercises the block-transfer advantage (2 KB broadcasts) that
        // separates the CNIs from NI2w even at tiny input sizes; the
        // fine-grain benchmarks need larger inputs before the gap opens up
        // (see the scaled-tier Figure 8 tables in RESULTS.md).
        let params = WorkloadParams::tiny();
        let cycles = |ni| {
            run_workload_stats(Workload::Gauss, &MachineConfig::isca96(4, ni), &params)
                .report
                .cycles
        };
        let baseline = cycles(NiKind::Ni2w);
        let qm = baseline as f64 / cycles(NiKind::Cni16Qm) as f64;
        let q16 = baseline as f64 / cycles(NiKind::Cni16Q) as f64;
        assert!(qm > 1.0, "CNI16Qm should speed gauss up (got {qm:.2})");
        assert!(q16 > 1.0, "CNI16Q should speed gauss up (got {q16:.2})");
    }
}
