//! Sharding slices of the differential harness (`tests/harness`): shard
//! count, worker count, lookahead mode and fault injection never change a
//! simulated result. Every case runs six ways against the 1-shard
//! fixed-lookahead reference; each test names the part of the knob matrix
//! it covers and asserts what its cases must have exercised.

mod harness;

use cni::workloads::Workload;
use harness::{Batch, Case, Evidence, FaultShape};

fn batch(test: &str) -> Batch {
    Batch::new("sharding", test)
}

/// The quick-tier registry grid: every workload × every NI kind,
/// fault-free on the memory bus at the quick tier's inputs and node count,
/// on 2..=8 shards.
#[test]
fn sharding_never_changes_results() {
    let mut batch = batch("sharding_never_changes_results");
    batch.grid();
    batch.require(&[
        Evidence::Commits,
        Evidence::Parked,
        Evidence::SkippedSteps,
        Evidence::OneNodePerShard,
        Evidence::MultiWorker,
    ]);
}

/// The acceptance-scale case: a 256-node machine on 8 shards.
#[test]
fn large_machine_shards_bit_identically() {
    let mut batch = batch("large_machine_shards_bit_identically");
    let reference = batch.check(Case::large());
    assert!(
        reference.fabric.messages > 1_000,
        "the 256-node case should exercise real cross-shard traffic, got {}",
        reference.fabric.messages
    );
}

/// Compute-heavy skeletons (moldyn, appbt) and em3d, whose quiescent
/// stretches skip the cross-shard exchange, for every NI kind.
#[test]
fn barrier_skipping_layouts_match_single_for_every_ni() {
    let mut batch = batch("barrier_skipping_layouts_match_single_for_every_ni");
    batch.product(
        &[Workload::Moldyn, Workload::Appbt, Workload::Em3d],
        &[FaultShape::None],
    );
    batch.require(&[Evidence::SkippedExchanges]);
}

/// The macrobenchmarks beyond the original five (request/response barnes,
/// variable-size-ring dsmc, irregular-halo unstructured) and hotspot
/// convergence, for every NI kind.
#[test]
fn new_workloads_shard_bit_identically() {
    let mut batch = batch("new_workloads_shard_bit_identically");
    batch.product(
        &[
            Workload::Barnes,
            Workload::Dsmc,
            Workload::Unstructured,
            Workload::Hotspot,
        ],
        &[FaultShape::None],
    );
    batch.require(&[Evidence::Commits]);
}

/// Determinism invariant 5: fault verdicts are stamp-pure, so lossy and
/// drop-heavy runs, with the reliable-delivery recovery machinery, shard
/// bit-identically for every NI kind.
#[test]
fn fault_injection_shards_bit_identically() {
    let mut batch = batch("fault_injection_shards_bit_identically");
    batch.product(
        &[Workload::Em3d, Workload::Gauss],
        &[FaultShape::Lossy, FaultShape::DropHeavy],
    );
    batch.require(&[
        Evidence::Drops,
        Evidence::Corruptions,
        Evidence::DupDiscards,
        Evidence::SkippedSteps,
    ]);
}

/// Outage windows (a node unreachable for an interval, then recovered by
/// retransmission) are judged against stamp-pure times, so they shard
/// bit-identically too.
#[test]
fn outage_windows_shard_bit_identically() {
    let mut batch = batch("outage_windows_shard_bit_identically");
    batch.product(&[Workload::Em3d], &[FaultShape::Outage]);
    batch.require(&[Evidence::OutageDrops]);
}

/// Determinism invariant 7 meets invariant 5: under the lossy mix,
/// retransmission timers, duplicate suppression, fault verdicts and parked
/// processor steps are all state a rollback must restore.
#[test]
fn speculative_lookahead_is_unobservable_under_faults() {
    let mut batch = batch("speculative_lookahead_is_unobservable_under_faults");
    batch.product(&[Workload::Em3d, Workload::Gauss], &[FaultShape::Lossy]);
    batch.require(&[
        Evidence::Commits,
        Evidence::Rollbacks,
        Evidence::Drops,
        Evidence::SkippedSteps,
    ]);
}

/// Rollback under the two adversarial fault shapes: outage windows, whose
/// retransmission backlog floods the reopening window, and inert
/// retransmission timers that fire, rearm and do nothing inside
/// checkpointed rounds.
#[test]
fn speculative_rollback_survives_outages_and_inert_timers() {
    let mut batch = batch("speculative_rollback_survives_outages_and_inert_timers");
    batch.product(
        &[Workload::Em3d],
        &[FaultShape::Outage, FaultShape::InertTimers],
    );
    batch.require(&[
        Evidence::Rollbacks,
        Evidence::OutageDrops,
        Evidence::InertTimeouts,
        Evidence::DupDiscards,
    ]);
}

/// Both RPC disciplines for every NI kind: report equality covers the
/// per-node request-latency histograms the tail quantiles are read from.
#[test]
fn rpc_tail_latencies_shard_bit_identically() {
    let mut batch = batch("rpc_tail_latencies_shard_bit_identically");
    batch.product(
        &[Workload::RpcClosed, Workload::RpcOpen],
        &[FaultShape::None],
    );
    batch.require(&[Evidence::LatencySamples]);
}
