//! One shard of a sharded machine: a contiguous group of nodes, their
//! programs, a local event queue and per-shard network statistics.
//!
//! The event handlers here are the machine model proper — processor steps,
//! NI deliveries, acknowledgements, retransmission timers. They are identical in
//! spirit to the original monolithic `Machine::run` handlers, with one
//! structural difference: network-bound traffic ([`NetEvent`]: data
//! messages and acknowledgements) is never scheduled directly. It is
//! emitted into the epoch driver's [`Outbox`] stamped with `(origin node,
//! per-node sequence)` and delivered at the boundary of the epoch in which
//! it arrives — even when source and destination share a shard. See
//! [`crate::machine`]'s module docs for why this uniform routing is what
//! makes results independent of the shard count.

use cni_mem::timing::TIMING;
use cni_net::fabric::FabricStats;
use cni_net::faults::{FaultDecision, FaultPlan};
use cni_net::message::NodeId;
use cni_nic::device::{DeliverOutcome, EmptyPolls, SendOutcome};
use cni_sim::event::{EventQueue, QueueStats};
use cni_sim::sharded::{Outbox, ShardSim, Stamp};
use cni_sim::stats::Merge;
use cni_sim::time::Cycle;

use crate::msg::FragPayload;

use super::config::MachineConfig;
use super::node::{NodeCore, PendingTx};
use super::program::{IdleProgram, ProcCtx, Program};
use super::spin::ParkedStep;

/// Maximum fragments the processor drains from the NI, and reassembled
/// messages it hands to its program, per scheduling step.
pub const RECV_BATCH: usize = 8;

/// Cycles between attempts when the receiving NI refuses a delivery: the
/// message backs up into the network and is offered again this much later.
pub const DELIVERY_RETRY_INTERVAL: Cycle = 64;

const _: () = assert!(
    DELIVERY_RETRY_INTERVAL >= 1,
    "a refused delivery needs a retry interval of at least one cycle"
);
const _: () = assert!(
    TIMING.network_latency >= 1,
    "the sharded machine needs a network latency of at least one cycle of lookahead"
);

/// Wire-level metadata the fault layer and the reliable-delivery protocol
/// attach to a network message. With fault injection disabled (the default)
/// every message carries no sequence number and is never corrupted, and the
/// machine behaves exactly as it did before the protocol existed.
#[derive(Debug, Clone, Copy)]
pub(super) struct WireMeta {
    /// The sender's per-destination sequence number (receive-side dedup and
    /// ack matching); `None` when the protocol is disabled.
    pub(super) tx_seq: Option<u64>,
    /// Whether the fault layer corrupted the message in flight. The
    /// receiver's CRC check detects it and discards the message.
    pub(super) corrupted: bool,
}

/// Events a shard schedules in its local queue. Node-local events
/// (`ProcStep`, `WakeStep`, `WakeParked`, `RetxTimer`) are
/// scheduled directly; network-borne ones (`Net`) only ever enter through
/// the epoch router.
#[derive(Debug, Clone)]
pub(super) enum Event {
    /// Run one scheduling step of a node's processor.
    ProcStep(NodeId),
    /// A node's parked processor step is due (see [`super::spin`]); the
    /// step itself runs at the top of this or an earlier same-cycle
    /// dispatch on the node.
    WakeStep(NodeId),
    /// A network message — data or acknowledgement — arrives at its node.
    Net(NetEvent),
    /// A node's parked deliveries have an attempt due that must really run
    /// (see [`super::parked`]); the attempts themselves run at the top of
    /// this or any earlier same-cycle dispatch on the node.
    WakeParked(NodeId),
    /// The node's retransmission timer expires: scan for unacknowledged
    /// messages past their deadline.
    RetxTimer(NodeId),
}

impl Event {
    /// The one node this event's handler mutates — its named node (an ack
    /// lands at the original sender). Handlers never touch any other
    /// node's state: cross-node effects ride the outbox even within a
    /// shard, which is exactly what makes one dirty bit per dispatch a
    /// complete write-set.
    fn node(&self) -> NodeId {
        match self {
            Event::ProcStep(id)
            | Event::WakeStep(id)
            | Event::WakeParked(id)
            | Event::RetxTimer(id) => *id,
            Event::Net(msg) => msg.node(),
        }
    }
}

/// Network-borne traffic routed between shards at epoch boundaries.
#[derive(Debug, Clone)]
pub(super) enum NetEvent {
    /// A network message headed for its destination NI (the fragment names
    /// the destination).
    Arrival(FragPayload, WireMeta),
    /// An acknowledgement returning to `src` for a message it sent to `dst`.
    Ack {
        /// The original sender (where the ack arrives).
        src: NodeId,
        /// The destination that acknowledged.
        dst: NodeId,
        /// The acknowledged sequence number (reliable delivery only).
        seq: Option<u64>,
        /// Whether the fault layer corrupted the ack in flight.
        corrupted: bool,
    },
}

impl NetEvent {
    /// The node the message lands on: a data message's destination, an
    /// ack's original sender.
    fn node(&self) -> NodeId {
        match self {
            NetEvent::Arrival(frag, _) => frag.dst,
            NetEvent::Ack { src, .. } => *src,
        }
    }

    /// Marks the message as corrupted in flight; the receiver's CRC check
    /// will discard it.
    fn corrupt(&mut self) {
        match self {
            NetEvent::Arrival(_, meta) => meta.corrupted = true,
            NetEvent::Ack { corrupted, .. } => *corrupted = true,
        }
    }
}

/// A contiguous slice of the machine, advancing independently within epochs.
pub(super) struct MachineShard {
    /// Global index of the first node owned by this shard.
    base: usize,
    nodes: Vec<NodeCore>,
    programs: Vec<Box<dyn Program>>,
    events: EventQueue<Event>,
    /// Per-shard network statistics; they merge at reporting time. Every
    /// message and acknowledgement arrives `TIMING.network_latency` cycles
    /// after it is sent.
    fabric: FabricStats,
    /// Compiled fault plan; `None` (the default) disables fault injection
    /// and the reliable-delivery protocol entirely.
    faults: Option<FaultPlan>,
    /// Deliveries parked across this shard's nodes — outstanding work the
    /// speculation pacer's load signal must see, as it saw their polled
    /// retries.
    parked: u64,
    /// Nodes whose processor step is parked spinning
    /// ([`ParkedStep::Spinning`]): pending steps the pacer's load signal
    /// counts, one each, as it counted their queued `ProcStep`s.
    spinning: u64,
    /// Queued `WakeStep` events whose due step already ran at the top of an
    /// earlier dispatch: they stand for no pending step, so the load signal
    /// does not count them.
    stale_wakes: u64,
    /// A lower bound on the spinning nodes' next steps in the epoch-grid
    /// slot of the earliest, as of the last `advance` (see
    /// [`ShardSim::next_event_time`]).
    spin_next: Option<Cycle>,
    /// Per-node dirty bitset (one bit per local slot): bit set means the
    /// node (and its program) may have diverged from the checkpoint mirror
    /// since the last [`ShardSim::snapshot`]. Set by the `advance` dispatch
    /// loop — every dispatched event mutates exactly one node, the one it
    /// names (cross-node effects ride the outbox, even intra-shard) — and
    /// cleared whenever mirror and live state re-synchronize.
    dirty: Vec<u64>,
    /// A deliberately broken restore the oracle tests inject (`None`
    /// restores honestly).
    #[cfg(test)]
    pub(super) sabotage: Option<Sabotage>,
    /// Accumulated checkpoint-cost accounting for this shard.
    ckpt_stats: CheckpointStats,
    /// Work counters (telemetry; never rewound).
    dispatch: DispatchStats,
}

/// Deliberately broken restores: mutations of [`ShardSim::restore`] that
/// the oracle tests inject to prove the differential check notices a
/// restore that rewinds too little.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Sabotage {
    /// Leave the first dirtied node un-rewound on every restore.
    SkipNodeRestore,
    /// Drop the earliest pending event after every queue rewind.
    SkipQueueDelta,
}

impl std::fmt::Debug for MachineShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineShard")
            .field("base", &self.base)
            .field("nodes", &self.nodes.len())
            .field("now", &self.events.now())
            .field("pending", &self.events.len())
            .finish()
    }
}

impl MachineShard {
    /// Builds a shard owning nodes `base..base + nodes.len()`.
    pub(super) fn new(
        base: usize,
        nodes: Vec<NodeCore>,
        programs: Vec<Box<dyn Program>>,
        cfg: &MachineConfig,
    ) -> Self {
        debug_assert_eq!(nodes.len(), programs.len());
        let dirty = vec![0u64; nodes.len().div_ceil(64)];
        MachineShard {
            base,
            nodes,
            programs,
            events: EventQueue::new(),
            fabric: FabricStats::default(),
            faults: cfg.faults.enabled().then(|| FaultPlan::new(&cfg.faults)),
            parked: 0,
            spinning: 0,
            stale_wakes: 0,
            spin_next: None,
            dirty,
            #[cfg(test)]
            sabotage: None,
            ckpt_stats: CheckpointStats::default(),
            dispatch: DispatchStats::default(),
        }
    }

    /// Ends an aborted run at `horizon`, the last executed epoch's: catches
    /// every spinning node up on the steps the run skipped before it, then
    /// returns the time of the last dispatched event, a skipped step
    /// counting as one. The machine's abort reporting maps this back onto
    /// the fixed epoch grid so aborted runs report identical cycle counts
    /// under every lookahead mode.
    pub(super) fn finish_aborted(&mut self, horizon: Cycle) -> Cycle {
        let mut last = self.events.now();
        for slot in 0..self.nodes.len() {
            if let Some(polls) = self.skip_spins(slot, horizon, 0) {
                last = last.max(polls.last);
            }
        }
        last
    }

    /// Read access to a node by its index *within this shard*.
    pub(super) fn node(&self, slot: usize) -> &NodeCore {
        &self.nodes[slot]
    }

    /// The nodes owned by this shard, in global order.
    pub(super) fn nodes(&self) -> &[NodeCore] {
        &self.nodes
    }

    /// A program by its index within this shard.
    pub(super) fn program(&self, slot: usize) -> &dyn Program {
        self.programs[slot].as_ref()
    }

    /// Whether every program on this shard has reported completion.
    pub(super) fn programs_done(&self) -> bool {
        self.programs.iter().all(|p| p.is_done())
    }

    /// This shard's fabric statistics.
    pub(super) fn fabric_stats(&self) -> FabricStats {
        self.fabric
    }

    /// Latest processor time across this shard's nodes.
    pub(super) fn max_proc_time(&self) -> Cycle {
        self.nodes.iter().map(|n| n.proc_time).max().unwrap_or(0)
    }

    /// This shard's work counters.
    pub(super) fn dispatch_stats(&self) -> DispatchStats {
        self.dispatch
    }

    /// This shard's event-queue work counters.
    pub(super) fn queue_stats(&self) -> QueueStats {
        self.events.stats()
    }

    /// Checkpoint cost accounting, with the live delta journal's current
    /// capacity folded into the highwater mark.
    pub(super) fn checkpoint_stats(&self) -> CheckpointStats {
        let mut stats = self.ckpt_stats;
        stats.journal_capacity = stats
            .journal_capacity
            .max(self.events.delta_capacity() as u64);
        stats
    }

    /// Schedules the initial `ProcStep` for every node (cycle 0).
    pub(super) fn prime(&mut self) {
        for slot in 0..self.nodes.len() {
            let id = self.nodes[slot].id;
            self.schedule_step(id, 0);
        }
    }

    fn slot(&self, id: NodeId) -> usize {
        let slot = id.index() - self.base;
        debug_assert!(slot < self.nodes.len(), "{id} is not on this shard");
        slot
    }

    /// Records that a node (and its program) may now diverge from the
    /// checkpoint mirror. Every dispatched event mutates exactly one node —
    /// the one named in its variant (acks land on the sender) — because all
    /// cross-node traffic, even intra-shard, rides the outbox/router, so
    /// one bit per dispatch is a complete write-set.
    fn mark_dirty(&mut self, slot: usize) {
        self.dirty[slot >> 6] |= 1u64 << (slot & 63);
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn schedule_step(&mut self, id: NodeId, at: Cycle) {
        let slot = self.slot(id);
        let node = &mut self.nodes[slot];
        if !node.step_scheduled {
            node.step_scheduled = true;
            let at = at.max(self.events.now());
            self.events.schedule(at, Event::ProcStep(id));
        }
    }

    fn proc_step(&mut self, id: NodeId, event_time: Cycle, outbox: &mut Outbox<NetEvent>) {
        let slot = self.slot(id);
        // Temporarily take the program out so it can borrow the node through
        // a `ProcCtx` without aliasing.
        let mut program: Box<dyn Program> =
            std::mem::replace(&mut self.programs[slot], Box::new(IdleProgram));
        let node = &mut self.nodes[slot];
        node.step_scheduled = false;
        let mut t = event_time.max(node.proc_time);

        // Account for the uncached status polling an idle processor would
        // have performed (NI2w and CNI4 poll uncached registers; the CQ-based
        // CNIs poll in their cache and generate no bus traffic).
        if let Some(since) = node.idle_since.take() {
            if !node.ni.kind().uses_explicit_queues() {
                node.mem.note_uncached_idle_polling(t.saturating_sub(since));
            }
        }

        if !node.started {
            node.started = true;
            let mut ctx = ProcCtx::new(node, t);
            program.start(&mut ctx);
            t = ctx.finish();
        }

        let mut did_work = false;

        // 1. Drain the NI receive queue (bounded per step).
        for _ in 0..RECV_BATCH {
            let poll = node.ni.proc_poll(t, &mut node.mem);
            t = poll.done;
            if !poll.available {
                break;
            }
            let Some(rx) = node.ni.proc_receive(t, &mut node.mem) else {
                break;
            };
            t = rx.done;
            did_work = true;
            node.stats.received_fragments += 1;
            node.stats.received_bytes += rx.frag.payload_bytes as u64;
            if let Some(msg) = node.assembler.push(rx.frag) {
                node.inbox.push_back(msg);
            }
        }

        // 2. Dispatch reassembled messages to the program.
        for _ in 0..RECV_BATCH {
            let Some(msg) = node.inbox.pop_front() else {
                break;
            };
            node.stats.received_messages += 1;
            did_work = true;
            let mut ctx = ProcCtx::new(node, t);
            program.on_message(&mut ctx, msg);
            t = ctx.finish();
        }

        // 3. Push buffered outgoing fragments into the NI until either the NI
        //    fills or the sliding window for the head fragment's destination
        //    is exhausted (§4.1: the *processor* blocks after four
        //    unacknowledged network messages per destination and falls back
        //    to draining receives).
        while let Some(front) = node.outgoing.front() {
            let dst = front.dst;
            if !node.window.can_send(dst) {
                node.stats.send_full_retries += 1;
                break;
            }
            // The fragment moves into the NI; a refused one comes back and
            // returns to the buffer's front, keeping FIFO order.
            let frag = node.outgoing.pop_front().expect("front() was Some");
            match node.ni.proc_send(t, &mut node.mem, frag) {
                SendOutcome::Accepted { done } => {
                    t = done;
                    assert!(node.window.try_acquire(dst), "window checked above");
                    node.stats.sent_fragments += 1;
                    did_work = true;
                }
                SendOutcome::Full { done, frag } => {
                    t = done;
                    node.outgoing.push_front(frag);
                    node.stats.send_full_retries += 1;
                    break;
                }
            }
        }

        // 4. Idle hook when nothing else happened.
        if !did_work && !program.is_done() {
            let outgoing = node.outgoing.len();
            let mut ctx = ProcCtx::new(node, t);
            did_work = program.on_idle(&mut ctx);
            let idle_end = ctx.finish();
            debug_assert!(
                did_work || (idle_end == t && node.outgoing.len() == outgoing),
                "an idle hook that made progress returned false"
            );
            t = idle_end;
        }

        node.proc_time = t;

        // 5. Decide how this node continues.
        let can_push_more = node
            .outgoing
            .front()
            .map(|f| node.ni.send_has_room() && node.window.can_send(f.dst))
            .unwrap_or(false);
        let more_local_work =
            !node.inbox.is_empty() || node.ni.recv_queue_len() > 0 || can_push_more;
        let wants_step = did_work || more_local_work;
        if wants_step {
            // Borrow of `node` ends before scheduling.
            let at = t;
            self.programs[slot] = program;
            self.schedule_step(id, at);
            self.try_inject(id, at, outbox);
            return;
        }
        node.idle_since = Some(t);
        // A pure spin: the next step would find everything as this one did.
        let spin = !did_work && node.window_blocked();
        self.programs[slot] = program;
        if spin {
            self.park_step(slot, t);
        }
        self.try_inject(id, t, outbox);
    }

    /// Parks the next step of the node in `slot`, a pure window-blocked
    /// spin at `at`, at the FIFO position its `ProcStep` would take.
    fn park_step(&mut self, slot: usize, at: Cycle) {
        let node = &mut self.nodes[slot];
        debug_assert!(!node.step_scheduled && node.step == ParkedStep::None);
        debug_assert_eq!(node.proc_time, at, "a step parks where the last one ended");
        node.step_scheduled = true;
        node.step = ParkedStep::Spinning;
        node.step_key = self.events.next_seq();
        self.spinning += 1;
    }

    /// Catches the node in `slot` up on the spinning steps that precede the
    /// event popped at `now` with sequence number `seq` (see
    /// [`NodeCore::skip_spins`]), and marks it dirty if any did.
    fn skip_spins(&mut self, slot: usize, now: Cycle, seq: u64) -> Option<EmptyPolls> {
        let cur = self.events.next_seq();
        let polls = self.nodes[slot].skip_spins(now, seq, cur)?;
        self.mark_dirty(slot);
        self.dispatch.skipped += polls.count;
        Some(polls)
    }

    /// Runs what the node in `slot` has parked ahead of the event popped at
    /// `now` with sequence number `seq`: its skipped spins, or its due step.
    /// Returns whether a due step ran.
    fn run_parked_step(
        &mut self,
        slot: usize,
        now: Cycle,
        seq: u64,
        outbox: &mut Outbox<NetEvent>,
    ) -> bool {
        let node = &mut self.nodes[slot];
        match node.step {
            ParkedStep::Spinning => {
                self.skip_spins(slot, now, seq);
                false
            }
            ParkedStep::Due if node.step_precedes(now, seq) => {
                // Its `WakeStep` pops no later than the step's cycle.
                debug_assert_eq!(node.proc_time, now, "a due step was never woken");
                node.step = ParkedStep::None;
                let id = node.id;
                self.dispatch.proc_step += 1;
                self.proc_step(id, now, outbox);
                true
            }
            _ => false,
        }
    }

    /// Once an event changed what a spinning node's next step would find,
    /// that step must run: it becomes due, with a `WakeStep` at its cycle.
    fn wake_step(&mut self, slot: usize) {
        let node = &mut self.nodes[slot];
        if node.step != ParkedStep::Spinning || node.window_blocked() {
            return;
        }
        node.step = ParkedStep::Due;
        let (id, at) = (node.id, node.proc_time);
        self.spinning -= 1;
        self.events.schedule(at, Event::WakeStep(id));
    }

    fn try_inject(&mut self, id: NodeId, now: Cycle, outbox: &mut Outbox<NetEvent>) {
        let slot = self.slot(id);
        let mut wake_at = None;
        let mut arm_timer = None;
        {
            let node = &mut self.nodes[slot];
            // The NI injects whatever sits in its send queue: window admission
            // already happened when the processor handed the fragment to the
            // NI, so there is no head-of-line blocking here.
            while let Some((ready, frag)) = node.ni.device_take_for_injection(now, &mut node.mem) {
                let dst = frag.dst;
                // Under the reliable-delivery protocol every fragment gets a
                // per-destination sequence number and a retransmission copy
                // held until the acknowledgement arrives.
                let tx_seq = node.rel.as_mut().map(|rel| {
                    let seq = rel.tx_next[dst.index()];
                    rel.tx_next[dst.index()] += 1;
                    rel.unacked.insert(
                        (dst.index() as u32, seq),
                        PendingTx {
                            frag: frag.clone(),
                            deadline: ready + rel.rto,
                            backoff: rel.rto,
                        },
                    );
                    seq
                });
                self.fabric.note_send(frag.payload_bytes);
                let meta = WireMeta {
                    tx_seq,
                    corrupted: false,
                };
                Self::emit(
                    &self.faults,
                    &mut self.fabric,
                    node,
                    outbox,
                    ready,
                    ready + TIMING.network_latency,
                    NetEvent::Arrival(frag, meta),
                );
            }
            // Arm the retransmission timer for anything newly in flight.
            if let Some(rel) = &mut node.rel {
                if let Some(next) = rel.unacked.values().map(|p| p.deadline).min() {
                    if rel.timer_at.is_none_or(|t| next < t) {
                        rel.timer_at = Some(next);
                        arm_timer = Some(next);
                    }
                }
            }
            // A node that went idle with buffered fragments takes another
            // step once the NI has send room. When the step that left it
            // idle was a pure window-blocked spin, the next one would only
            // poll again: `proc_step` has parked it (see `super::spin`),
            // and this wake finds it already pending.
            if node.idle_since.is_some() && !node.outgoing.is_empty() && node.ni.send_has_room() {
                wake_at = Some(now);
            }
        }
        if let Some(at) = arm_timer {
            self.events.schedule(at, Event::RetxTimer(id));
        }
        if let Some(at) = wake_at {
            self.schedule_step(id, at);
        }
    }

    /// Stamps one outgoing network message — data or acknowledgement —
    /// and stages it in the outbox to arrive at `arrives_at`, rolling its
    /// fate through the fault layer when one is configured. Always consumes
    /// a `net_seq` per staged copy so fault verdicts stay a pure function of
    /// the stamp and `(origin, seq)` never repeats.
    fn emit(
        faults: &Option<FaultPlan>,
        fabric: &mut FabricStats,
        node: &mut NodeCore,
        outbox: &mut Outbox<NetEvent>,
        sent_at: Cycle,
        arrives_at: Cycle,
        mut msg: NetEvent,
    ) {
        let target = msg.node().index() as u32;
        let stamp = Stamp {
            origin: node.id.index() as u32,
            seq: node.net_seq,
        };
        node.net_seq += 1;
        let Some(plan) = faults else {
            outbox.send(target, arrives_at, stamp, msg);
            return;
        };
        // Traffic to or from a node inside an outage window dies in the
        // fabric. The receiving end is judged at the arrival time, so a
        // frozen node starts receiving again the moment its window closes.
        if plan.node_down(stamp.origin, sent_at) || plan.node_down(target, arrives_at) {
            fabric.faults_dropped += 1;
            return;
        }
        match plan.decide(stamp.origin, stamp.seq) {
            FaultDecision::Deliver => outbox.send(target, arrives_at, stamp, msg),
            FaultDecision::Drop => fabric.faults_dropped += 1,
            FaultDecision::Corrupt => {
                msg.corrupt();
                outbox.send(target, arrives_at, stamp, msg);
            }
            FaultDecision::Duplicate => {
                // The fabric materializes a second copy. It gets its own
                // stamp — `(origin, seq)` must never repeat, the canonical
                // merge order depends on that — but is not re-rolled (one
                // fault per injection) and not re-counted as an injection.
                outbox.send(target, arrives_at, stamp, msg.clone());
                let copy = Stamp {
                    origin: stamp.origin,
                    seq: node.net_seq,
                };
                node.net_seq += 1;
                outbox.send(target, arrives_at, copy, msg);
            }
            FaultDecision::Delay(k) => outbox.send(target, arrives_at + k, stamp, msg),
        }
    }

    fn deliver(
        &mut self,
        id: NodeId,
        frag: FragPayload,
        meta: WireMeta,
        now: Cycle,
        outbox: &mut Outbox<NetEvent>,
    ) {
        let slot = self.slot(id);
        let src = frag.src;
        // The fault layer sits in front of the NI: a corrupted arrival
        // fails the CRC check and is discarded without an acknowledgement
        // (the sender's retransmission timer recovers it), and a sequence
        // number the receiver already accepted is a duplicate — discarded,
        // but re-acknowledged in case the original ack was lost.
        if meta.corrupted {
            self.fabric.corruptions_detected += 1;
            return;
        }
        let node = &mut self.nodes[slot];
        let duplicate = meta.tx_seq.is_some_and(|seq| {
            node.rel
                .as_ref()
                .is_some_and(|rel| rel.seen[src.index()].contains(seq))
        });
        let acked_at = if duplicate {
            self.fabric.dup_discards += 1;
            now
        } else {
            // The fragment moves into the NI; a refused one comes back.
            match node.ni.device_deliver(now, &mut node.mem, frag) {
                DeliverOutcome::Accepted { done } => {
                    // The sequence number is consumed only once the NI
                    // accepts: a refused copy retries and must still dedup
                    // against a retransmission accepted in the meantime —
                    // so parked copies of it now retry as duplicates.
                    if let (Some(rel), Some(tx_seq)) = (&mut node.rel, meta.tx_seq) {
                        rel.seen[src.index()].insert(tx_seq);
                        if !node.parked.is_empty() {
                            node.parked.mark_dup(src.index(), tx_seq);
                        }
                    }
                    done
                }
                DeliverOutcome::Refused(frag) => {
                    // Backpressure: the message waits in the network and is
                    // offered again a retry interval later, parked in the
                    // node at the position its retry event would take.
                    let at = now + DELIVERY_RETRY_INTERVAL;
                    node.parked.park(at, self.events.next_seq(), frag, meta);
                    self.parked += 1;
                    self.dispatch.parked += 1;
                    return;
                }
            }
        };
        let wake = !duplicate && node.idle_since.is_some();
        // Acknowledge back to the sender's sliding window. The ack is
        // network traffic, so it takes the epoch router like any other
        // cross-node event.
        let ack = NetEvent::Ack {
            src,
            dst: id,
            seq: meta.tx_seq,
            corrupted: false,
        };
        let arrives_at = acked_at + TIMING.network_latency;
        Self::emit(
            &self.faults,
            &mut self.fabric,
            node,
            outbox,
            acked_at,
            arrives_at,
            ack,
        );
        if wake {
            self.schedule_step(id, acked_at);
        }
    }

    /// Runs the parked attempts on the node in `slot` that precede the
    /// event popped at `now` with sequence number `seq`: skipped refusals
    /// advance in place, attempts that must really execute are delivered
    /// here, in the order their polled retries would pop.
    fn run_parked(&mut self, slot: usize, now: Cycle, seq: u64, outbox: &mut Outbox<NetEvent>) {
        loop {
            let cur = self.events.next_seq();
            let node = &mut self.nodes[slot];
            if node.parked.is_empty() {
                return;
            }
            // A due step run ahead of the event, or an attempt run here, may
            // have changed what the next attempt would find.
            node.parked.blocked = node.ni.delivery_blocked(&node.mem);
            let skipped = &mut self.dispatch.skipped_deliveries;
            let Some(parked) = node.parked.next_due(now, seq, cur, skipped) else {
                return;
            };
            let id = node.id;
            self.parked -= 1;
            self.dispatch.woken += 1;
            self.deliver(id, parked.frag, parked.meta, now, outbox);
        }
    }

    /// Makes sure a `WakeParked` event is pending at the node's earliest
    /// parked attempt that must really execute, if there is one. Runs after
    /// every event dispatched on the node, so it re-asks the device whatever
    /// the event changed: a receive that freed a slot, a device fill that
    /// evicted a CQ's head-pointer block, a snooped invalidation.
    fn wake_parked(&mut self, slot: usize) {
        let node = &mut self.nodes[slot];
        if node.parked.is_empty() {
            return;
        }
        node.parked.blocked = node.ni.delivery_blocked(&node.mem);
        let Some(at) = node.parked.wake_time() else {
            return;
        };
        if node.parked.wake_at.is_none_or(|w| at < w) {
            node.parked.wake_at = Some(at);
            let id = node.id;
            self.events.schedule(at, Event::WakeParked(id));
        }
    }

    fn handle_ack(
        &mut self,
        src: NodeId,
        dst: NodeId,
        seq: Option<u64>,
        corrupted: bool,
        now: Cycle,
        outbox: &mut Outbox<NetEvent>,
    ) {
        // A corrupted ack fails the sender-side CRC check and is discarded;
        // the message it acknowledged will simply be retransmitted and
        // re-acknowledged.
        if corrupted {
            self.fabric.corruptions_detected += 1;
            return;
        }
        let slot = self.slot(src);
        let wake = {
            let node = &mut self.nodes[slot];
            // Under reliable delivery only the first ack of a sequence
            // number releases the window credit and clears the
            // retransmission copy; re-acks (duplicate discards, duplicated
            // or retransmitted acks) are informational.
            let fresh = match (&mut node.rel, seq) {
                (Some(rel), Some(seq)) => rel.unacked.remove(&(dst.index() as u32, seq)).is_some(),
                _ => true,
            };
            if fresh {
                node.window.release(dst);
            }
            // A sender that blocked on the window wakes up to resume pushing
            // its buffered fragments.
            fresh && node.idle_since.is_some() && !node.outgoing.is_empty()
        };
        if wake {
            self.schedule_step(src, now);
        }
        self.try_inject(src, now, outbox);
    }

    /// Retransmission-timer expiry: every unacknowledged message past its
    /// deadline times out. With retransmission enabled the copy is resent —
    /// fresh stamp, fresh fault roll, same sequence number so the receiver
    /// can dedup — and either way the backoff doubles up to its cap and the
    /// timer re-arms while work is pending. The re-arming is what keeps an
    /// unrecoverable run alive until `max_cycles` aborts it into the
    /// pending-work diagnostics instead of silently draining.
    fn retx_timer(&mut self, id: NodeId, now: Cycle, outbox: &mut Outbox<NetEvent>) {
        let slot = self.slot(id);
        let due: Vec<(u32, u64)> = {
            let node = &mut self.nodes[slot];
            let Some(rel) = &mut node.rel else { return };
            if rel.timer_at != Some(now) {
                return; // superseded by an earlier re-arm
            }
            rel.timer_at = None;
            rel.unacked
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&k, _)| k)
                .collect()
        };
        for (dst_index, seq) in due {
            self.fabric.timeouts += 1;
            let node = &mut self.nodes[slot];
            let rel = node.rel.as_mut().expect("timer only runs with faults on");
            let retransmit = rel.retransmit;
            let rto_cap = rel.rto_cap;
            let entry = rel
                .unacked
                .get_mut(&(dst_index, seq))
                .expect("due entries are not removed mid-scan");
            entry.backoff = (entry.backoff * 2).min(rto_cap);
            entry.deadline = now + entry.backoff;
            if !retransmit {
                continue;
            }
            let frag = entry.frag.clone();
            self.fabric.retransmits += 1;
            self.fabric.note_send(frag.payload_bytes);
            let meta = WireMeta {
                tx_seq: Some(seq),
                corrupted: false,
            };
            Self::emit(
                &self.faults,
                &mut self.fabric,
                node,
                outbox,
                now,
                now + TIMING.network_latency,
                NetEvent::Arrival(frag, meta),
            );
        }
        // Re-arm for the earliest remaining deadline.
        let arm = {
            let node = &mut self.nodes[slot];
            let rel = node.rel.as_mut().expect("timer only runs with faults on");
            match rel.unacked.values().map(|p| p.deadline).min() {
                Some(next) if rel.timer_at.is_none_or(|t| next < t) => {
                    rel.timer_at = Some(next);
                    Some(next)
                }
                _ => None,
            }
        };
        if let Some(at) = arm {
            self.events.schedule(at, Event::RetxTimer(id));
        }
    }
}

/// Deterministic work counters for a shard's (or whole machine's) runs:
/// events dispatched per kind, plus the traffic through parked deliveries
/// and the processor steps skipped while parked.
/// Simulator telemetry, not simulated state — excluded from
/// [`super::RunReport`] and its digests, and never rewound: an event
/// re-executed after a speculative rollback counts again. The counts are
/// therefore exact and repeatable for one configuration (what tests pin
/// with `==`), but differ between lookahead modes. Within one lookahead
/// mode the machine-wide merge is invariant across shard counts and worker
/// counts: every event belongs to one node, and the speculation schedule
/// that decides what re-executes is itself partition-invariant.
/// The differential harness (`tests/harness`) asserts this on every case
/// it runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Processor steps run: `ProcStep` events, and parked steps that had to
    /// run for real (their `WakeStep` events are not counted apart).
    pub proc_step: u64,
    /// Window-blocked processor steps skipped while parked, then
    /// materialised in bulk (see the "Send backpressure" section of
    /// `ARCHITECTURE.md`). Dispatching one event per poll would have run
    /// `proc_step + skipped` steps.
    pub skipped: u64,
    /// Network data messages dispatched at their destination.
    pub net_arrival: u64,
    /// Acknowledgements dispatched at the original sender.
    pub ack_arrival: u64,
    /// `WakeParked` events dispatched.
    pub wake_parked: u64,
    /// `RetxTimer` events dispatched.
    pub retx_timer: u64,
    /// Refused deliveries parked — first refusals and re-refused attempts
    /// alike.
    pub parked: u64,
    /// Parked attempts that really executed.
    pub woken: u64,
    /// Parked attempts skipped as refusals that would change nothing. In a
    /// run that drained, one event per attempt would have been
    /// `woken + skipped_deliveries` retries.
    pub skipped_deliveries: u64,
}

impl DispatchStats {
    fn count(&mut self, event: &Event) {
        let counter = match event {
            Event::ProcStep(_) => &mut self.proc_step,
            // Counted as the step it runs, if it runs one.
            Event::WakeStep(_) => return,
            Event::Net(NetEvent::Arrival(..)) => &mut self.net_arrival,
            Event::Net(NetEvent::Ack { .. }) => &mut self.ack_arrival,
            Event::WakeParked(_) => &mut self.wake_parked,
            Event::RetxTimer(_) => &mut self.retx_timer,
        };
        *counter += 1;
    }
}

impl Merge for DispatchStats {
    fn merge(&mut self, other: &Self) {
        self.proc_step += other.proc_step;
        self.skipped += other.skipped;
        self.net_arrival += other.net_arrival;
        self.ack_arrival += other.ack_arrival;
        self.wake_parked += other.wake_parked;
        self.retx_timer += other.retx_timer;
        self.parked += other.parked;
        self.woken += other.woken;
        self.skipped_deliveries += other.skipped_deliveries;
    }
}

/// Accumulated cost accounting for a shard's (or whole machine's)
/// speculative checkpoints — what the `scaling` benchmark's
/// checkpoint-bytes and dirty-fraction columns report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshots taken.
    pub snapshots: u64,
    /// Nodes actually copied into checkpoint mirrors across all snapshots.
    pub copied_nodes: u64,
    /// Nodes that *would* have been copied by full-clone snapshots
    /// (`shard size × snapshots`), so `copied_nodes / node_rounds` is the
    /// dirty fraction — what dirty tracking saves.
    pub node_rounds: u64,
    /// Approximate bytes captured across all snapshots: node copies (a
    /// whole-node copy counts [`NodeCore::approx_bytes`], an incremental
    /// re-sync only the touched cache sets plus the rest of the node),
    /// plus fabric.
    pub bytes: u64,
    /// Approximate bytes of the single most expensive snapshot — the
    /// buffer-shrink regression guard.
    pub peak_bytes: u64,
    /// Largest event-queue delta-journal capacity observed, in entries;
    /// stays at or under [`cni_sim::event::DELTA_TRIM_ENTRIES`] across
    /// commits once the post-commit trim runs.
    pub journal_capacity: u64,
}

impl Merge for CheckpointStats {
    /// Folds another shard's accounting into this one (sums, except the
    /// capacity highwater marks, which take the max).
    fn merge(&mut self, other: &Self) {
        self.snapshots += other.snapshots;
        self.copied_nodes += other.copied_nodes;
        self.node_rounds += other.node_rounds;
        self.bytes += other.bytes;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.journal_capacity = self.journal_capacity.max(other.journal_capacity);
    }
}

impl CheckpointStats {
    /// Fraction of node state the snapshots actually copied: 1.0 if every
    /// snapshot copied every node, activity-proportional otherwise.
    pub fn dirty_fraction(&self) -> f64 {
        if self.node_rounds == 0 {
            0.0
        } else {
            self.copied_nodes as f64 / self.node_rounds as f64
        }
    }
}

/// A reusable snapshot of what a `MachineShard` mutates while advancing,
/// apart from its event queue: the nodes (memory system, NI device, queues,
/// protocol state), their programs and the per-shard network statistics. The
/// immutable run configuration — the compiled fault plan, batch sizes,
/// retry intervals — is deliberately *not* captured: [`FaultPlan`] verdicts
/// are stamp-pure (`&self`), so a restored shard replays them identically.
///
/// The driver reuses one buffer per shard across speculative rounds
/// (`Option` state starts empty and is filled on the first snapshot), so
/// steady-state checkpointing re-clones into existing allocations instead
/// of growing fresh ones.
///
/// The node/program vectors are a *mirror* maintained across rounds: the
/// first snapshot fills them completely (`synced`), and every later
/// snapshot re-copies only the slots the shard dirtied since the previous
/// one, and within a slot only the cache sets written since
/// (`NodeCore::sync_into`). The event queue is not copied at all — it
/// rewinds through its in-place delta journal.
#[derive(Default)]
pub struct ShardCheckpoint {
    nodes: Vec<NodeCore>,
    programs: Vec<Box<dyn Program>>,
    fabric: FabricStats,
    parked: u64,
    spinning: u64,
    stale_wakes: u64,
    /// Whether the node/program mirror has been filled at least once.
    synced: bool,
}

impl ShardSim for MachineShard {
    type Msg = NetEvent;
    type Checkpoint = ShardCheckpoint;

    fn snapshot(&mut self, into: &mut ShardCheckpoint) {
        let mut node_bytes = 0u64;
        let copied = if !into.synced {
            into.nodes.clone_from(&self.nodes);
            into.programs.clone_from(&self.programs);
            into.synced = true;
            for node in &mut self.nodes {
                node.mem.mark_synced();
            }
            node_bytes = self.nodes.iter().map(|n| n.approx_bytes() as u64).sum();
            self.nodes.len() as u64
        } else {
            // Re-sync only the slots dirtied since the last snapshot, and
            // within them only the cache sets written: the mirror still
            // matches the live state everywhere else — after a commit, the
            // gamble's own writes are exactly the marks; after a restore,
            // mirror and live were re-equalized outright.
            let mut copied = 0u64;
            for (word, &bits) in self.dirty.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let slot = (word << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    node_bytes += self.nodes[slot].sync_into(&mut into.nodes[slot]) as u64;
                    into.programs[slot].clone_from(&self.programs[slot]);
                    copied += 1;
                }
            }
            copied
        };
        self.dirty.fill(0);
        // Arm (or re-arm) the in-place delta journal instead of cloning the
        // queue; a rollback replays the journal, a commit drops it.
        self.events.mark_delta();
        into.fabric = self.fabric;
        into.parked = self.parked;
        into.spinning = self.spinning;
        into.stale_wakes = self.stale_wakes;

        let bytes = node_bytes + std::mem::size_of::<FabricStats>() as u64;
        self.ckpt_stats.snapshots += 1;
        self.ckpt_stats.copied_nodes += copied;
        self.ckpt_stats.node_rounds += self.nodes.len() as u64;
        self.ckpt_stats.bytes += bytes;
        self.ckpt_stats.peak_bytes = self.ckpt_stats.peak_bytes.max(bytes);
    }

    fn restore(&mut self, from: &ShardCheckpoint) {
        // Copy back exactly the slots the gamble dirtied — nothing else
        // diverged from the mirror.
        #[cfg(test)]
        let mut skip = usize::from(self.sabotage == Some(Sabotage::SkipNodeRestore));
        for (word, &bits) in self.dirty.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let slot = (word << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                #[cfg(test)]
                if skip > 0 {
                    skip -= 1;
                    continue;
                }
                self.nodes[slot].rewind_from(&from.nodes[slot]);
                self.programs[slot].clone_from(&from.programs[slot]);
            }
        }
        self.ckpt_stats.journal_capacity = self
            .ckpt_stats
            .journal_capacity
            .max(self.events.delta_capacity() as u64);
        self.events.rollback_delta();
        #[cfg(test)]
        if self.sabotage == Some(Sabotage::SkipQueueDelta) {
            self.events.pop();
        }
        self.dirty.fill(0);
        self.fabric = from.fabric;
        self.parked = from.parked;
        self.spinning = from.spinning;
        self.stale_wakes = from.stale_wakes;
    }

    fn commit_speculation(&mut self) {
        self.ckpt_stats.journal_capacity = self
            .ckpt_stats
            .journal_capacity
            .max(self.events.delta_capacity() as u64);
        self.events.commit_delta();
    }

    fn accept(&mut self, at: Cycle, msg: NetEvent) {
        // The driver delivers at the epoch boundary: every parked attempt
        // and skipped step before it happened before this event is
        // scheduled (and none after it), so advance them now, while their
        // keys can still tell.
        let slot = self.slot(msg.node());
        // Arrivals are delivered on the one-latency epoch grid.
        let boundary = at - at % TIMING.network_latency;
        if !self.nodes[slot].parked.is_empty() {
            self.mark_dirty(slot);
            let cur = self.events.next_seq();
            let skipped = &mut self.dispatch.skipped_deliveries;
            let due = self.nodes[slot].parked.next_due(boundary, 0, cur, skipped);
            debug_assert!(
                due.is_none(),
                "parked attempts due before {boundary} were never woken"
            );
        }
        self.skip_spins(slot, boundary, 0);
        self.events.schedule(at, Event::Net(msg));
    }

    fn advance(&mut self, horizon: Cycle, outbox: &mut Outbox<NetEvent>) {
        while let Some((now, seq, event)) = self.events.pop_before_seq(horizon) {
            let slot = self.slot(event.node());
            self.mark_dirty(slot);
            self.dispatch.count(&event);
            let ran_due = self.run_parked_step(slot, now, seq, outbox);
            let wake = matches!(event, Event::WakeStep(_));
            if ran_due != wake {
                // A due step ran ahead of its own wake, which goes stale; or
                // this wake is one such, and stands for nothing.
                if ran_due {
                    self.stale_wakes += 1;
                } else {
                    self.stale_wakes -= 1;
                }
            }
            self.run_parked(slot, now, seq, outbox);
            match event {
                Event::ProcStep(id) => self.proc_step(id, now, outbox),
                Event::WakeStep(_) => {}
                Event::Net(NetEvent::Arrival(frag, meta)) => {
                    self.deliver(frag.dst, frag, meta, now, outbox)
                }
                Event::Net(NetEvent::Ack {
                    src,
                    dst,
                    seq,
                    corrupted,
                }) => self.handle_ack(src, dst, seq, corrupted, now, outbox),
                Event::WakeParked(_) => {
                    let parked = &mut self.nodes[slot].parked;
                    if parked.wake_at == Some(now) {
                        parked.wake_at = None;
                    }
                }
                Event::RetxTimer(id) => self.retx_timer(id, now, outbox),
            }
            self.wake_parked(slot);
            self.wake_step(slot);
        }
        // A spinning node's steps before `horizon` count as dispatched, so
        // its next one lies in `[horizon, horizon + one poll)`, inside
        // `horizon`'s grid slot, or at its recorded cycle if that is later.
        self.spin_next = if self.spinning == 0 {
            None
        } else {
            self.nodes
                .iter()
                .filter(|n| n.step == ParkedStep::Spinning)
                .map(|n| n.proc_time.max(horizon))
                .min()
        };
    }

    fn next_event_time(&self) -> Option<Cycle> {
        match (self.events.peek_time(), self.spin_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Parked deliveries and spinning steps count as the pending events
    /// they stand for; stale wakes stand for none.
    fn pending_len(&self) -> u64 {
        self.events.len() as u64 + self.parked + self.spinning - self.stale_wakes
    }
}
