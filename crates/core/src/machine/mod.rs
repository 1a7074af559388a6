//! The full-machine simulation model.
//!
//! A [`Machine`] is N nodes — each with a processor, a 256 KB MOESI cache,
//! one of the five NI devices, a memory bus and (optionally) a coherent I/O
//! bus — connected by a latency-only network with per-destination
//! sliding-window flow control ([`cni_net`]). There is no fabric object:
//! every network message and every acknowledgement arrives
//! `TIMING.network_latency` cycles after it leaves, and each shard counts
//! the traffic in a [`FabricStats`]. Workloads are [`Program`]s; the
//! machine drives them with a discrete-event loop:
//!
//! * `ProcStep` events run a node's processor: drain the NI receive queue,
//!   dispatch reassembled messages to the program, push buffered outgoing
//!   fragments into the NI, and fall back to the program's idle hook. A
//!   fragment ([`crate::msg::FragPayload`]) moves by value from the
//!   software send buffer into the NI send queue, out of it at injection,
//!   into the destination's receive queue and out again to the reassembler.
//!   A refused send or delivery hands it back; no side table tracks it.
//! * `Net` events carrying a data message deliver it to the destination NI
//!   and generate acknowledgements for the sender's sliding window. A
//!   refused delivery waits in the network and is retried every
//!   [`DELIVERY_RETRY_INTERVAL`] cycles, modelling backpressure. It is
//!   parked in the node, and only the attempts the NI says can change
//!   something actually run (`WakeParked`; see the "Receive backpressure"
//!   section of `ARCHITECTURE.md`).
//! * `Net` events carrying an acknowledgement release window credits and
//!   trigger further injections.
//!
//! Idle nodes do not spin in the event queue: they are woken by the next
//! arrival, and the bus occupancy their uncached status polling would have
//! generated is accounted in bulk (see
//! [`cni_mem::system::NodeMemSystem::note_uncached_idle_polling`]). Nor do
//! processors blocked by the sliding window: once a step only polls, the
//! next one is parked and the polls are materialised when an event on the
//! node needs them (`WakeStep`; see the "Send backpressure" section of
//! `ARCHITECTURE.md`).
//!
//! # Sharded execution
//!
//! The machine does not run one global event loop. Its nodes are partitioned
//! into contiguous **shards** ([`ShardPolicy`]), each with its own event
//! queue and per-shard fabric statistics, and the shards advance in
//! lock-step **epochs** of `network_latency` cycles driven by
//! [`cni_sim::sharded::run_epochs`]. All shards advance on the calling
//! thread, or, with [`MachineConfig::with_parallel`], on one worker per
//! host core ([`MachineConfig::workers`]), each owning a contiguous block
//! of shards; the workers rendezvous at atomic epoch barriers, and epochs
//! that emitted no traffic skip the cross-shard exchange. Under
//! speculative lookahead ([`SpeculationConfig::lookahead`]) the planner
//! instead gambles past the one-latency grid and rolls back when an arrival
//! lands inside the gamble; see [`cni_sim::sharded`]'s module docs for why
//! neither the worker count nor the lookahead mode can change results.
//! [`ShardPolicy::Auto`] picks the shard count from the host's core count
//! and the machine size, so callers that just want the fastest correct run
//! can stop hand-tuning.
//!
//! **Lookahead argument.** The fabric imposes a fixed latency `L` on every
//! network message and every acknowledgement, and nodes interact *only*
//! through the fabric. An event emitted at cycle `t` therefore arrives no
//! earlier than `t + L`; with epochs of length `L`, anything emitted during
//! epoch `e` arrives in epoch `e + 1` or later. Once the cross-shard traffic
//! addressed to an epoch has been delivered at its opening barrier, every
//! shard can process that epoch to completion without ever looking at
//! another shard — the classic conservative-PDES horizon.
//!
//! **Determinism argument.** Lookahead makes parallel execution *safe*; one
//! more ingredient makes it **bit-identical across shard counts and
//! worker counts**. All network-borne events — including traffic between
//! nodes of the *same* shard — are staged in an epoch router and inserted at
//! the boundary of their arrival epoch, ordered by the sharding-invariant
//! key `(arrival cycle, origin node, per-origin-node sequence number)`
//! ([`cni_sim::sharded::Stamp`], stamped from [`node::NodeCore::net_seq`]).
//! A node's event order is then a pure function of the simulation: locally
//! scheduled events (`ProcStep`, `WakeParked`, `RetxTimer`) sit at
//! points fixed by the node's own deterministic execution, network events
//! sit at points fixed by the epoch grid and the canonical key, and
//! same-cycle FIFO order is the insertion order those rules pin down.
//! Parked deliveries and parked processor steps keep the FIFO position
//! their event would have had, recorded as a queue sequence number, and
//! run exactly there. Since nodes cannot affect each
//! other within a cycle (any interaction rides the fabric and lands `≥ L`
//! later), per-node event-order invariance implies whole-run invariance:
//! the 1-shard run and an N-shard run on any number of workers produce
//! identical [`RunReport`]s bit for bit
//! (the differential harness in `tests/harness` proves this property over
//! randomized machines).
//!
//! The run drains completely — every queued event and every in-flight
//! message is consumed — unless the cycle limit aborts it first
//! ([`RunReport::aborted`]); completion is then simply "did every program
//! finish".

pub mod config;
pub mod node;
mod parked;
pub mod program;
mod shard;
mod spin;

use cni_mem::timing::TIMING;
use cni_net::fabric::FabricStats;
use cni_sim::event::QueueStats;
use cni_sim::sharded::run_epochs;
use cni_sim::stats::Merge;
use cni_sim::time::Cycle;

pub use cni_sim::sharded::{EpochOutcome, LookaheadMode, SpecTuning};
pub use config::{MachineConfig, ShardPolicy, SpeculationConfig};
pub use node::{NodeCore, NodeStats, ReliableState};
pub use program::{IdleProgram, ProcCtx, Program};
pub use shard::{
    CheckpointStats, DispatchStats, ShardCheckpoint, DELIVERY_RETRY_INTERVAL, RECV_BATCH,
};

use shard::MachineShard;

/// Work one node still had queued when a run hit its cycle limit.
///
/// Only populated on aborted runs ([`RunReport::aborted`]) and only for
/// nodes with something pending, in ascending node order — so it is as
/// deterministic as the rest of the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingWork {
    /// The node's index.
    pub node: usize,
    /// Window credits held for in-flight (unacknowledged) messages; a full
    /// window here is what blocks further sends.
    pub blocked_sends: usize,
    /// Software-buffered outgoing fragments the NI has not accepted yet.
    pub outgoing: usize,
    /// Reassembled messages not yet dispatched to the program.
    pub inbox: usize,
    /// Fragments sitting in the NI send queue.
    pub ni_send: usize,
    /// Fragments sitting in the NI receive queue.
    pub ni_recv: usize,
    /// Reliable-delivery messages awaiting acknowledgement (zero without
    /// fault injection).
    pub unacked: usize,
}

/// Summary of a completed (or aborted) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Whether every program reported completion (and the run was not cut
    /// short by the cycle limit).
    pub completed: bool,
    /// Whether the run hit [`MachineConfig::max_cycles`] with work still
    /// pending. Distinguishes a cycle-limit abort (`aborted = true`) from a
    /// clean incompletion such as a deadlocked workload whose events simply
    /// drained (`completed = false, aborted = false`).
    pub aborted: bool,
    /// The cycle at which the last program finished its work (for aborted
    /// runs: the epoch horizon at which the run was cut off).
    pub cycles: Cycle,
    /// Memory-bus busy cycles summed over all nodes.
    pub memory_bus_busy: Cycle,
    /// I/O-bus busy cycles summed over all nodes.
    pub io_bus_busy: Cycle,
    /// Per-node memory-bus busy cycles.
    pub memory_bus_busy_per_node: Vec<Cycle>,
    /// Network traffic statistics (merged across shards).
    pub fabric: FabricStats,
    /// Per-node workload statistics.
    pub node_stats: Vec<NodeStats>,
    /// Per-node pending-work summary for aborted runs (empty otherwise);
    /// see [`PendingWork`]. Diagnostic only — excluded from report digests.
    pub pending: Vec<PendingWork>,
}

impl RunReport {
    /// Human-readable rendering of [`RunReport::pending`] for abort
    /// diagnostics, one line per node with queued work.
    pub fn pending_summary(&self) -> String {
        if self.pending.is_empty() {
            return String::from("no pending work recorded");
        }
        let mut out = String::from("pending work at abort:");
        for p in &self.pending {
            out.push_str(&format!(
                "\n  node {}: {} blocked sends, {} outgoing, {} inbox, \
                 {} ni-send, {} ni-recv, {} unacked",
                p.node, p.blocked_sends, p.outgoing, p.inbox, p.ni_send, p.ni_recv, p.unacked
            ));
        }
        out
    }
}

/// A simulated parallel machine.
pub struct Machine {
    cfg: MachineConfig,
    shards: Vec<MachineShard>,
    /// `bounds[s]` is the global index of shard `s`'s first node.
    bounds: Vec<usize>,
    outcome: Option<EpochOutcome>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nodes", &self.cfg.nodes)
            .field("shards", &self.shards.len())
            .field("ni", &self.cfg.ni_kind)
            .field("bus", &self.cfg.device_location)
            .finish()
    }
}

impl Machine {
    /// Builds a machine running one program per node, partitioned into
    /// shards according to [`MachineConfig::shards`].
    ///
    /// # Panics
    ///
    /// Panics if the number of programs differs from the number of nodes.
    /// (The network latency and [`DELIVERY_RETRY_INTERVAL`] are checked at
    /// compile time: the epoch execution model needs at least one cycle of
    /// lookahead, and a refused delivery retried in the same cycle would
    /// retry forever.)
    pub fn new(cfg: MachineConfig, mut programs: Vec<Box<dyn Program>>) -> Self {
        assert_eq!(
            programs.len(),
            cfg.nodes,
            "expected one program per node ({} nodes, {} programs)",
            cfg.nodes,
            programs.len()
        );
        let shard_count = cfg.shard_count();
        let mut shards = Vec::with_capacity(shard_count);
        let mut bounds = Vec::with_capacity(shard_count);
        // Contiguous, balanced partition: shard s owns [s*N/S, (s+1)*N/S).
        for s in 0..shard_count {
            let lo = s * cfg.nodes / shard_count;
            let hi = (s + 1) * cfg.nodes / shard_count;
            bounds.push(lo);
            let nodes = (lo..hi).map(|i| NodeCore::new(i, &cfg)).collect();
            let shard_programs: Vec<Box<dyn Program>> = programs.drain(..hi - lo).collect();
            shards.push(MachineShard::new(lo, nodes, shard_programs, &cfg));
        }
        Machine {
            cfg,
            shards,
            bounds,
            outcome: None,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of shards the machine is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn locate(&self, index: usize) -> (usize, usize) {
        assert!(index < self.cfg.nodes, "node {index} out of range");
        let shard = self.bounds.partition_point(|&b| b <= index) - 1;
        (shard, index - self.bounds[shard])
    }

    /// Read access to a node's runtime state.
    pub fn node(&self, index: usize) -> &NodeCore {
        let (shard, slot) = self.locate(index);
        self.shards[shard].node(slot)
    }

    /// Downcasts a node's program to a concrete type (for reading results
    /// after a run).
    pub fn program_as<T: 'static>(&self, index: usize) -> Option<&T> {
        let (shard, slot) = self.locate(index);
        self.shards[shard]
            .program(slot)
            .as_any()
            .downcast_ref::<T>()
    }

    /// Network fabric statistics, merged across shards.
    pub fn fabric_stats(&self) -> FabricStats {
        FabricStats::merged(self.shards.iter().map(|s| s.fabric_stats()))
    }

    /// Speculative-checkpoint cost accounting, merged across shards:
    /// nodes copied vs node-rounds (dirty fraction), approximate bytes
    /// captured, and journal-capacity highwater marks. All zeros unless a
    /// run actually speculated. Simulator telemetry — not part of the
    /// simulated machine's state.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        let mut stats = CheckpointStats::default();
        for shard in &self.shards {
            stats.merge(&shard.checkpoint_stats());
        }
        stats
    }

    /// Work counters merged across shards: events dispatched per kind,
    /// parked-delivery traffic and skipped processor steps (see
    /// [`DispatchStats`]). Simulator telemetry
    /// — not part of the simulated result, and excluded from report
    /// digests.
    pub fn dispatch_stats(&self) -> DispatchStats {
        DispatchStats::merged(self.shards.iter().map(|s| s.dispatch_stats()))
    }

    /// Event-queue work counters merged across shards: events scheduled,
    /// and those that waited in a queue's far heap (see [`QueueStats`]).
    /// Simulator telemetry — not part of the simulated result, and excluded
    /// from report digests. Spills depend on the shard layout.
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats::merged(self.shards.iter().map(|s| s.queue_stats()))
    }

    /// The epoch driver's summary of the last [`Machine::run`]: epochs
    /// executed, exchanges performed, speculative rounds resolved. `None`
    /// before the first run. Simulator telemetry — not part of the simulated
    /// result, and excluded from report digests.
    pub fn epoch_outcome(&self) -> Option<&EpochOutcome> {
        self.outcome.as_ref()
    }

    /// Runs the machine until every event has drained (or the configured
    /// cycle limit is reached) and returns a report.
    ///
    /// The report is bit-identical for every [`ShardPolicy`] and worker
    /// count — sharding only changes the simulator's wall-clock.
    pub fn run(&mut self) -> RunReport {
        for shard in &mut self.shards {
            shard.prime();
        }
        let epoch = TIMING.network_latency;
        let bounds = self.bounds.clone();
        let shard_of = move |node: u32| bounds.partition_point(|&b| b <= node as usize) - 1;
        // `run_epochs` clamps the workers to the shard partition fixed at
        // construction, even if the visible core count changed since.
        let outcome = run_epochs(
            &mut self.shards,
            &shard_of,
            epoch,
            self.cfg.max_cycles,
            self.cfg.workers(),
            self.cfg.speculation.lookahead,
            self.cfg.speculation.pacer,
        );
        self.outcome = Some(outcome);
        self.report()
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    fn report(&mut self) -> RunReport {
        let aborted = self.outcome.as_ref().is_some_and(|o| o.aborted);
        // An aborted run stops with processors still parked behind the
        // window: catch them up to the last executed horizon before reading
        // any processor time, statistics or bus total. The cut-off is then
        // mapped back onto the *fixed* epoch grid from the last dispatched
        // event, a skipped step counting as one: a speculative final round
        // processes exactly the events a fixed-mode run would have before
        // aborting, so anchoring on the grid keeps aborted reports
        // bit-identical across lookahead modes instead of leaking the
        // gambled horizon.
        let epoch = TIMING.network_latency;
        let cut = match self.outcome {
            Some(o) if o.aborted && o.epochs > 0 => {
                let last = self
                    .shards
                    .iter_mut()
                    .map(|s| s.finish_aborted(o.last_horizon))
                    .max()
                    .unwrap_or(0);
                ((last / epoch) * epoch).saturating_add(epoch)
            }
            Some(o) if o.aborted => o.last_horizon,
            _ => 0,
        };
        let all_done = self.shards.iter().all(|s| s.programs_done());
        // A run that drained (rather than aborting) has consumed every event
        // and every in-flight message, which must leave every node quiescent
        // — the invariant the old loop checked before declaring completion.
        debug_assert!(
            aborted
                || self
                    .shards
                    .iter()
                    .all(|s| s.nodes().iter().all(|n| n.is_quiescent())),
            "a drained run left a node with queued work"
        );
        // Report where an aborted run was cut off, not just how far the
        // processors got.
        let cycles = self
            .shards
            .iter()
            .map(|s| s.max_proc_time())
            .max()
            .unwrap_or(0)
            .max(cut);
        let memory_bus_busy_per_node: Vec<Cycle> = self
            .shards
            .iter()
            .flat_map(|s| s.nodes().iter().map(|n| n.mem.memory_bus().busy_cycles()))
            .collect();
        // On an abort, capture what each node still had queued — the
        // difference between "the workload livelocked retransmitting into a
        // black hole" and "the cycle budget was simply too small" is
        // invisible without it. Nodes with nothing pending are omitted.
        let pending: Vec<PendingWork> = if aborted {
            self.shards
                .iter()
                .flat_map(|s| s.nodes().iter())
                .map(|n| PendingWork {
                    node: n.id.index(),
                    blocked_sends: n.window.total_in_flight(),
                    outgoing: n.outgoing.len(),
                    inbox: n.inbox.len(),
                    ni_send: n.ni.send_queue_len(),
                    ni_recv: n.ni.recv_queue_len(),
                    unacked: n.rel.as_ref().map_or(0, |r| r.unacked.len()),
                })
                .filter(|p| {
                    p.blocked_sends + p.outgoing + p.inbox + p.ni_send + p.ni_recv + p.unacked > 0
                })
                .collect()
        } else {
            Vec::new()
        };
        RunReport {
            completed: all_done && !aborted,
            aborted,
            cycles,
            memory_bus_busy: memory_bus_busy_per_node.iter().sum(),
            io_bus_busy: self
                .shards
                .iter()
                .flat_map(|s| s.nodes().iter().map(|n| n.mem.io_bus().busy_cycles()))
                .sum(),
            memory_bus_busy_per_node,
            fabric: self.fabric_stats(),
            node_stats: self
                .shards
                .iter()
                .flat_map(|s| s.nodes().iter().map(|n| n.stats))
                .collect(),
            pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AmMessage;
    use cni_net::message::NodeId;
    use cni_nic::taxonomy::NiKind;
    use std::any::Any;

    /// Sends `count` small messages to node 1 and completes.
    #[derive(Clone)]
    struct Pitcher {
        count: usize,
        sent: usize,
    }

    impl Program for Pitcher {
        fn start(&mut self, _ctx: &mut ProcCtx<'_>) {}
        fn on_message(&mut self, _ctx: &mut ProcCtx<'_>, _msg: AmMessage) {}
        fn on_idle(&mut self, ctx: &mut ProcCtx<'_>) -> bool {
            if self.sent < self.count {
                ctx.send_am(NodeId(1), 1, 12, vec![self.sent as u64]);
                self.sent += 1;
                true
            } else {
                false
            }
        }
        fn is_done(&self) -> bool {
            self.sent >= self.count
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn clone_box(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    /// Counts messages until it has seen `expect` of them.
    #[derive(Clone)]
    struct Catcher {
        expect: usize,
        got: usize,
        last_value: u64,
    }

    impl Program for Catcher {
        fn start(&mut self, _ctx: &mut ProcCtx<'_>) {}
        fn on_message(&mut self, _ctx: &mut ProcCtx<'_>, msg: AmMessage) {
            self.got += 1;
            self.last_value = msg.data.first().copied().unwrap_or(0);
        }
        fn on_idle(&mut self, _ctx: &mut ProcCtx<'_>) -> bool {
            false
        }
        fn is_done(&self) -> bool {
            self.got >= self.expect
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn clone_box(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    fn pitch_catch_programs(count: usize, nodes: usize) -> Vec<Box<dyn Program>> {
        (0..nodes)
            .map(|i| -> Box<dyn Program> {
                match i {
                    0 => Box::new(Pitcher { count, sent: 0 }),
                    1 => Box::new(Catcher {
                        expect: count,
                        got: 0,
                        last_value: 0,
                    }),
                    _ => Box::new(IdleProgram),
                }
            })
            .collect()
    }

    fn run_pitch_catch(kind: NiKind, count: usize) -> (Machine, RunReport) {
        let cfg = MachineConfig::isca96(2, kind);
        let mut machine = Machine::new(cfg, pitch_catch_programs(count, 2));
        let report = machine.run();
        (machine, report)
    }

    #[test]
    fn messages_flow_end_to_end_on_every_ni() {
        for kind in NiKind::ALL {
            let (machine, report) = run_pitch_catch(kind, 20);
            assert!(report.completed, "{kind}: run did not complete");
            assert!(!report.aborted, "{kind}: run aborted");
            let catcher = machine.program_as::<Catcher>(1).unwrap();
            assert_eq!(catcher.got, 20, "{kind}: lost messages");
            assert_eq!(catcher.last_value, 19, "{kind}: messages out of order");
            assert_eq!(
                report.fabric.messages, 20,
                "{kind}: unexpected fabric traffic"
            );
            assert!(report.cycles > 0);
        }
    }

    #[test]
    fn coherent_nis_use_less_memory_bus_than_ni2w() {
        let (_, ni2w) = run_pitch_catch(NiKind::Ni2w, 50);
        let (_, cni) = run_pitch_catch(NiKind::Cni16Qm, 50);
        assert!(
            cni.memory_bus_busy < ni2w.memory_bus_busy,
            "CNI ({}) should occupy the memory bus less than NI2w ({})",
            cni.memory_bus_busy,
            ni2w.memory_bus_busy
        );
    }

    #[test]
    fn cni_finishes_the_stream_faster_than_ni2w() {
        let (_, ni2w) = run_pitch_catch(NiKind::Ni2w, 50);
        let (_, cni) = run_pitch_catch(NiKind::Cni512Q, 50);
        assert!(
            cni.cycles < ni2w.cycles,
            "CNI512Q ({}) should beat NI2w ({})",
            cni.cycles,
            ni2w.cycles
        );
    }

    #[test]
    #[should_panic(expected = "one program per node")]
    fn program_count_must_match_node_count() {
        let cfg = MachineConfig::isca96(2, NiKind::Ni2w);
        let _ = Machine::new(cfg, vec![Box::new(IdleProgram)]);
    }

    #[test]
    fn local_sends_complete_without_network_traffic() {
        #[derive(Clone)]
        struct LocalTalker {
            done: bool,
        }
        impl Program for LocalTalker {
            fn start(&mut self, ctx: &mut ProcCtx<'_>) {
                ctx.send_am(ctx.node_id(), 5, 32, vec![1]);
            }
            fn on_message(&mut self, _ctx: &mut ProcCtx<'_>, msg: AmMessage) {
                assert_eq!(msg.handler, 5);
                self.done = true;
            }
            fn on_idle(&mut self, _ctx: &mut ProcCtx<'_>) -> bool {
                false
            }
            fn is_done(&self) -> bool {
                self.done
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn clone_box(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
        }
        let cfg = MachineConfig::isca96(1, NiKind::Cni16Qm);
        let mut machine = Machine::new(cfg, vec![Box::new(LocalTalker { done: false })]);
        let report = machine.run();
        assert!(report.completed);
        assert_eq!(report.fabric.messages, 0);
        assert_eq!(report.node_stats[0].local_messages, 1);
    }

    #[test]
    fn sharded_runs_match_the_single_shard_run_bit_for_bit() {
        let reference = {
            let cfg = MachineConfig::isca96(4, NiKind::Cni16Q);
            Machine::new(cfg, pitch_catch_programs(25, 4)).run()
        };
        for policy in [ShardPolicy::Fixed(2), ShardPolicy::Fixed(4)] {
            for parallel in [false, true] {
                let cfg = MachineConfig::isca96(4, NiKind::Cni16Q)
                    .with_shards(policy)
                    .with_parallel(parallel);
                let report = Machine::new(cfg, pitch_catch_programs(25, 4)).run();
                assert_eq!(
                    report, reference,
                    "{policy:?} parallel={parallel} diverged from the single-shard run"
                );
            }
        }
    }

    /// Mutation check that the differential oracle has teeth for the
    /// incremental restore: two deliberately broken restores —
    /// [`Sabotage::SkipNodeRestore`] leaves the first dirtied node
    /// un-rewound on every rollback, [`Sabotage::SkipQueueDelta`] drops an
    /// event from every queue rewind — must each be caught, either by the
    /// report comparison against the fixed-lookahead single-shard reference
    /// or by an internal invariant panicking mid-run. The honest control on
    /// the same fixture must match the reference *and* actually roll back,
    /// so the sabotage targets a path the fixture provably executes.
    #[test]
    fn sabotaged_incremental_restores_are_caught_by_the_oracle() {
        use shard::Sabotage;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let reference = Machine::new(
            MachineConfig::isca96(4, NiKind::Cni16Q),
            pitch_catch_programs(25, 4),
        )
        .run();
        assert!(reference.completed);
        let run = |sabotage: Option<Sabotage>| {
            let mut cfg = MachineConfig::isca96(4, NiKind::Cni16Q)
                .with_shards(ShardPolicy::Fixed(2))
                .with_speculation(SpeculationConfig::with_lookahead(
                    LookaheadMode::Speculative,
                ));
            // A sabotaged run can lose the event that would finish it; cap
            // it well past the honest run's length instead of the default
            // two billion cycles.
            cfg.max_cycles = 4 * reference.cycles;
            let mut machine = Machine::new(cfg, pitch_catch_programs(25, 4));
            for shard in &mut machine.shards {
                shard.sabotage = sabotage;
            }
            let report = machine.run();
            (report, machine.outcome.expect("run() records an outcome"))
        };

        let (honest, outcome) = run(None);
        assert_eq!(honest, reference, "control: honest restore diverged");
        assert!(
            outcome.spec_rollbacks > 0,
            "control: the fixture must roll back, or the sabotages below are vacuous"
        );

        for sabotage in [Sabotage::SkipNodeRestore, Sabotage::SkipQueueDelta] {
            // A sabotaged run may legitimately panic on an internal
            // invariant before it produces a report; silence the hook so
            // the expected panic does not spam the log.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let result = catch_unwind(AssertUnwindSafe(|| run(Some(sabotage)).0));
            std::panic::set_hook(hook);
            let caught = match result {
                Err(_) => true,
                Ok(report) => report != reference,
            };
            assert!(
                caught,
                "{sabotage:?}: the differential oracle failed to notice a \
                 sabotaged incremental restore"
            );
        }
    }

    #[test]
    fn shard_partition_is_contiguous_and_covers_every_node() {
        let cfg = MachineConfig::isca96(10, NiKind::Ni2w).with_shards(ShardPolicy::Fixed(3));
        let machine = Machine::new(cfg, (0..10).map(|_| Box::new(IdleProgram) as _).collect());
        assert_eq!(machine.shard_count(), 3);
        for i in 0..10 {
            assert_eq!(machine.node(i).id, NodeId(i));
        }
    }

    #[test]
    fn cycle_limit_abort_is_reported_distinctly() {
        // An endless pitcher: never done, always sending.
        #[derive(Clone)]
        struct Firehose;
        impl Program for Firehose {
            fn start(&mut self, _ctx: &mut ProcCtx<'_>) {}
            fn on_message(&mut self, _ctx: &mut ProcCtx<'_>, _msg: AmMessage) {}
            fn on_idle(&mut self, ctx: &mut ProcCtx<'_>) -> bool {
                ctx.send_am(NodeId(1), 1, 12, vec![]);
                true
            }
            fn is_done(&self) -> bool {
                false
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn clone_box(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
        }
        let mut cfg = MachineConfig::isca96(2, NiKind::Cni512Q);
        cfg.max_cycles = 20_000;
        let mut machine = Machine::new(
            cfg,
            vec![
                Box::new(Firehose),
                Box::new(Catcher {
                    expect: usize::MAX,
                    got: 0,
                    last_value: 0,
                }),
            ],
        );
        let report = machine.run();
        assert!(report.aborted, "the firehose must hit the cycle limit");
        assert!(!report.completed);
        assert!(report.cycles >= 20_000, "abort cycle not reported");

        // A clean incompletion (deadlocked waiter) drains without aborting.
        let cfg = MachineConfig::isca96(2, NiKind::Cni512Q);
        let mut machine = Machine::new(
            cfg,
            vec![
                Box::new(IdleProgram),
                Box::new(Catcher {
                    expect: 1,
                    got: 0,
                    last_value: 0,
                }),
            ],
        );
        let report = machine.run();
        assert!(!report.completed, "the catcher never gets its message");
        assert!(!report.aborted, "a drained run is not an abort");
        assert!(
            report.pending.is_empty(),
            "a drained run has no pending work"
        );
        assert_eq!(report.pending_summary(), "no pending work recorded");
    }

    #[test]
    fn lossy_runs_recover_through_retransmission_on_every_ni() {
        use cni_net::faults::FaultConfig;
        for kind in NiKind::ALL {
            let faults = FaultConfig {
                drop_ppm: 150_000,
                corrupt_ppm: 100_000,
                duplicate_ppm: 100_000,
                delay_ppm: 100_000,
                ..FaultConfig::default()
            };
            let cfg = MachineConfig::isca96(2, kind).with_faults(faults);
            let mut machine = Machine::new(cfg, pitch_catch_programs(40, 2));
            let report = machine.run();
            assert!(report.completed, "{kind}: lossy run did not recover");
            assert!(!report.aborted, "{kind}: lossy run aborted");
            let catcher = machine.program_as::<Catcher>(1).unwrap();
            assert_eq!(catcher.got, 40, "{kind}: reliable delivery lost data");
            let f = report.fabric;
            assert!(
                f.faults_dropped + f.corruptions_detected > 0,
                "{kind}: fault rates this high must hit some messages"
            );
            assert!(
                f.retransmits >= f.faults_dropped.min(f.timeouts),
                "{kind}: losses were not retransmitted"
            );
            assert!(
                f.messages > 40,
                "{kind}: retransmissions and duplicates add wire traffic"
            );
        }
    }

    #[test]
    fn total_loss_without_retransmission_aborts_with_pending_work() {
        use cni_net::faults::FaultConfig;
        // Every message is destroyed and nothing is ever resent: the
        // pitcher's window fills, its unacked set never drains, and the
        // retransmission timer keeps the run alive to the cycle limit.
        let faults = FaultConfig {
            drop_ppm: 1_000_000,
            retransmit: false,
            ..FaultConfig::default()
        };
        let mut cfg = MachineConfig::isca96(2, NiKind::Cni512Q).with_faults(faults);
        cfg.max_cycles = 400_000;
        let mut machine = Machine::new(cfg, pitch_catch_programs(10, 2));
        let report = machine.run();
        assert!(report.aborted, "a 100% drop rate cannot drain");
        assert!(!report.completed);
        assert!(report.fabric.faults_dropped > 0);
        assert!(report.fabric.timeouts > 0, "timeouts count without resends");
        assert_eq!(report.fabric.retransmits, 0, "retransmission was off");
        let pitcher = report
            .pending
            .iter()
            .find(|p| p.node == 0)
            .expect("the pitcher has work stuck in flight");
        assert!(pitcher.unacked > 0, "unacked messages must be reported");
        assert!(pitcher.blocked_sends > 0, "window credits are held");
        let summary = report.pending_summary();
        assert!(
            summary.contains("node 0") && summary.contains("unacked"),
            "summary names the stuck node: {summary}"
        );
    }
}
