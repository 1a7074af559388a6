//! Per-node runtime state.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cni_mem::addr::RegionAllocator;
use cni_mem::system::{DeviceLocation, NodeMemSystem};
use cni_net::faults::FaultConfig;
use cni_net::message::NodeId;
use cni_net::window::SlidingWindow;
use cni_nic::cdr::Cni4Device;
use cni_nic::cniq::CniQDevice;
use cni_nic::device::{NiDevice, SendOutcome};
use cni_nic::ni2w::Ni2wDevice;
use cni_nic::taxonomy::NiKind;
use cni_sim::stats::{LatencyHistogram, Merge};
use cni_sim::time::Cycle;

use crate::msg::{AmMessage, Assembler, FragPayload, OutgoingMsg};

use super::config::MachineConfig;
use super::parked::ParkedDeliveries;
use super::spin::ParkedStep;

/// Receive-side dedup state for one source: a contiguous "everything below
/// this is seen" watermark plus the sparse set of seen sequence numbers
/// above it (delays can reorder arrivals, so the set is not always
/// contiguous). Memory stays bounded because the watermark compacts the set
/// as gaps fill.
#[derive(Debug, Default, Clone)]
pub struct SeenSeqs {
    below: u64,
    sparse: BTreeSet<u64>,
}

impl SeenSeqs {
    /// Whether `seq` has been seen before.
    pub fn contains(&self, seq: u64) -> bool {
        seq < self.below || self.sparse.contains(&seq)
    }

    /// Marks `seq` seen. Returns `true` when it was new.
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq < self.below || !self.sparse.insert(seq) {
            return false;
        }
        while self.sparse.remove(&self.below) {
            self.below += 1;
        }
        true
    }
}

/// One message awaiting acknowledgement (and, on timeout, retransmission).
#[derive(Debug, Clone)]
pub struct PendingTx {
    /// A copy of the in-flight fragment, kept for retransmission.
    pub frag: FragPayload,
    /// Cycle at which the retransmission timer considers the message lost.
    pub deadline: Cycle,
    /// Current backoff; doubles per timeout up to the configured cap.
    pub backoff: Cycle,
}

/// Reliable-delivery protocol state, present only when fault injection is
/// enabled ([`FaultConfig::enabled`]). With the all-zero default
/// configuration this is `None` and the machine takes its historical,
/// protocol-free code path.
#[derive(Debug, Clone)]
pub struct ReliableState {
    /// Per-destination next send sequence number.
    pub tx_next: Vec<u64>,
    /// Unacknowledged messages keyed by `(destination, sequence)`; the
    /// `BTreeMap` keeps timeout scans in a deterministic order.
    pub unacked: BTreeMap<(u32, u64), PendingTx>,
    /// Per-source receive dedup.
    pub seen: Vec<SeenSeqs>,
    /// Cycle of the earliest scheduled retransmission-timer event, if any.
    pub timer_at: Option<Cycle>,
    /// Whether timed-out messages are actually resent.
    pub retransmit: bool,
    /// Initial retransmission timeout.
    pub rto: Cycle,
    /// Backoff cap.
    pub rto_cap: Cycle,
}

impl ReliableState {
    fn new(num_nodes: usize, faults: &FaultConfig) -> Self {
        ReliableState {
            tx_next: vec![0; num_nodes],
            unacked: BTreeMap::new(),
            seen: vec![SeenSeqs::default(); num_nodes],
            timer_at: None,
            retransmit: faults.retransmit,
            rto: faults.rto_cycles.max(1),
            rto_cap: faults.rto_cap_cycles.max(faults.rto_cycles.max(1)),
        }
    }
}

/// Statistics one node collects over a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeStats {
    /// User messages sent by the program.
    pub sent_messages: u64,
    /// User payload bytes sent by the program.
    pub sent_bytes: u64,
    /// Fragments handed to the NI.
    pub sent_fragments: u64,
    /// Fragments received from the NI.
    pub received_fragments: u64,
    /// User messages delivered to the program.
    pub received_messages: u64,
    /// User payload bytes delivered to the program.
    pub received_bytes: u64,
    /// Cycles the program spent in explicit computation.
    pub compute_cycles: Cycle,
    /// Times a processor-side send found the NI full and had to back off.
    pub send_full_retries: u64,
    /// Messages sent node-locally (same interface, no network).
    pub local_messages: u64,
    /// End-to-end request latencies recorded by service programs via
    /// [`crate::machine::ProcCtx::record_request_latency`]. Empty for
    /// workloads that never record one; included in [`Merge`] and the
    /// report's equality, so the cross-shard/lookahead bit-identity tests
    /// cover it for free.
    pub request_latency: LatencyHistogram,
}

impl Merge for NodeStats {
    fn merge(&mut self, other: &Self) {
        self.sent_messages += other.sent_messages;
        self.sent_bytes += other.sent_bytes;
        self.sent_fragments += other.sent_fragments;
        self.received_fragments += other.received_fragments;
        self.received_messages += other.received_messages;
        self.received_bytes += other.received_bytes;
        self.compute_cycles += other.compute_cycles;
        self.send_full_retries += other.send_full_retries;
        self.local_messages += other.local_messages;
        self.request_latency.merge(&other.request_latency);
    }
}

/// The runtime state of one simulated node.
///
/// `Clone` captures the complete node — memory system, NI device, queues,
/// reliable-delivery protocol — which is what makes speculative epoch
/// checkpoints possible (see [`crate::machine::ShardCheckpoint`]);
/// `clone_from` copies into the target's existing buffers.
///
/// Mutation contract for the dirty-tracked incremental checkpoints: the
/// shard mutates a `NodeCore` (and its paired program) only while
/// dispatching an event that names this node, so the shard's per-node
/// dirty bit — set once at dispatch — is a *complete* record of
/// divergence from the checkpoint mirror. Anything that adds a
/// mutation path outside event dispatch must also mark the node dirty,
/// or the sabotage oracle in the `cni_core::machine` unit tests
/// (`sabotaged_incremental_restores_are_caught_by_the_oracle`) will show
/// restores losing state. The one such path today: an epoch-boundary delivery to
/// a node with parked deliveries advances them first, and marks it.
///
/// Within a dirty node, the checkpoint re-sync and rewind
/// (`NodeCore::sync_into` / `NodeCore::rewind_from`) copy only the cache
/// sets written since the last sync. That record is complete only
/// because every write to a cache set goes through the cache's one
/// set-marking helper (the set vector is private to
/// [`cni_mem::moesi::Cache`]); a new cache operation must write through
/// it too.
pub struct NodeCore {
    /// Node identity.
    pub id: NodeId,
    /// Number of nodes in the machine (exposed to programs).
    pub num_nodes: usize,
    /// The node's memory system (caches and buses).
    pub mem: NodeMemSystem,
    /// The node's network interface; its queues hold the fragments in it.
    pub ni: Box<dyn NiDevice<FragPayload>>,
    /// Sliding-window flow control for outgoing network messages.
    pub window: SlidingWindow,
    /// Reassembly state for incoming fragments.
    pub assembler: Assembler,
    /// Software send buffer: messages the program has sent whose fragments
    /// the NI has not all accepted yet, because its send queue or the
    /// sliding window was full — the "buffer messages in user space" path
    /// of the paper's deadlock-avoidance rule (§4.1). The head message is
    /// cut into fragments as the NI takes them.
    pub outgoing: VecDeque<OutgoingMsg>,
    /// Fully reassembled messages waiting to be dispatched to the program.
    pub inbox: VecDeque<AmMessage>,
    /// The processor's local time.
    pub proc_time: Cycle,
    /// Set while the node is idle (waiting for messages); holds the time the
    /// node went idle so uncached-polling occupancy can be accounted.
    pub idle_since: Option<Cycle>,
    /// Whether the node's next processor step is pending: a queued
    /// `ProcStep` event, or a step parked behind the sliding window.
    pub step_scheduled: bool,
    /// Whether the program's `start` hook has run.
    pub started: bool,
    /// Next per-sender user-message id.
    pub next_msg_id: u64,
    /// Per-node network-emission counter: every network message and every
    /// acknowledgement this node emits gets the next value. Together with
    /// the node id it forms the sharding-invariant stamp the epoch router
    /// sorts cross-shard traffic by (see [`crate::machine`]'s module docs).
    pub net_seq: u64,
    /// Reliable-delivery protocol state; `None` when fault injection is
    /// disabled (the default), in which case the node behaves exactly as it
    /// did before the protocol existed.
    pub rel: Option<ReliableState>,
    /// Statistics.
    pub stats: NodeStats,
    /// Deliveries the network holds because the NI receive queue refused
    /// them (see [`super::parked`]).
    pub(super) parked: ParkedDeliveries,
    /// The next processor step, while it is parked behind the sliding
    /// window instead of queued (see [`super::spin`]). A parked step is
    /// due at `proc_time`, with queue key `step_key`.
    pub(super) step: ParkedStep,
    /// The parked step's queue key.
    pub(super) step_key: u64,
}

impl Clone for NodeCore {
    fn clone(&self) -> Self {
        NodeCore {
            id: self.id,
            num_nodes: self.num_nodes,
            mem: self.mem.clone(),
            ni: self.ni.clone(),
            window: self.window.clone(),
            assembler: self.assembler.clone(),
            outgoing: self.outgoing.clone(),
            inbox: self.inbox.clone(),
            proc_time: self.proc_time,
            idle_since: self.idle_since,
            step_scheduled: self.step_scheduled,
            started: self.started,
            next_msg_id: self.next_msg_id,
            net_seq: self.net_seq,
            rel: self.rel.clone(),
            stats: self.stats,
            parked: self.parked.clone(),
            step: self.step,
            step_key: self.step_key,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.mem.clone_from(&source.mem);
        self.clone_uncached_from(source);
    }
}

impl std::fmt::Debug for NodeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCore")
            .field("id", &self.id)
            .field("ni", &self.ni.kind())
            .field("proc_time", &self.proc_time)
            .field("outgoing", &self.outgoing_fragments())
            .field("inbox", &self.inbox.len())
            .finish()
    }
}

/// Builds the NI device implied by the machine configuration.
fn build_ni(cfg: &MachineConfig) -> Box<dyn NiDevice<FragPayload>> {
    let mut alloc = RegionAllocator::new();
    match cfg.ni_kind {
        NiKind::Ni2w => Box::new(Ni2wDevice::new()),
        NiKind::Cni4 => Box::new(Cni4Device::new(&mut alloc)),
        NiKind::Cni16Q | NiKind::Cni512Q | NiKind::Cni16Qm => Box::new(
            CniQDevice::with_optimizations(cfg.ni_kind, &mut alloc, cfg.cq_opts),
        ),
    }
}

impl NodeCore {
    /// Creates the runtime state for node `index` of a machine.
    pub fn new(index: usize, cfg: &MachineConfig) -> Self {
        assert!(
            cfg.device_location != DeviceLocation::CacheBus || cfg.ni_kind == NiKind::Ni2w,
            "only NI2w is modelled on the cache bus"
        );
        NodeCore {
            id: NodeId(index),
            num_nodes: cfg.nodes,
            mem: NodeMemSystem::new(cfg.node_mem_config()),
            ni: build_ni(cfg),
            window: SlidingWindow::default(),
            assembler: Assembler::new(),
            outgoing: VecDeque::new(),
            inbox: VecDeque::new(),
            proc_time: 0,
            idle_since: None,
            step_scheduled: false,
            started: false,
            next_msg_id: 0,
            net_seq: 0,
            rel: cfg
                .faults
                .enabled()
                .then(|| ReliableState::new(cfg.nodes, &cfg.faults)),
            stats: NodeStats::default(),
            parked: ParkedDeliveries::default(),
            step: ParkedStep::None,
            step_key: 0,
        }
    }

    /// Approximate in-memory footprint of this node's checkpointable
    /// state, in bytes: what a whole copy of the node moves — the inline
    /// struct, the caches' set vectors and the dominant heap buffers
    /// (fragments in the NI queues, parked fragments, software send buffer,
    /// delivered inbox); the send buffer counts the fragments its messages
    /// have left, as if they were already cut. The unit of
    /// [`crate::machine::CheckpointStats`] byte accounting — an estimate
    /// cheap enough to take per snapshot, not an allocator-exact census, so
    /// snapshots are compared in a consistent currency rather than measured
    /// absolutely.
    pub fn approx_bytes(&self) -> usize {
        self.uncached_bytes() + self.mem.cache_bytes()
    }

    /// [`NodeCore::approx_bytes`] without the caches' set vectors.
    fn uncached_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.ni.send_queue_len()
                + self.ni.recv_queue_len()
                + self.outgoing_fragments()
                + self.parked.len())
                * std::mem::size_of::<FragPayload>()
            + self.inbox.len() * std::mem::size_of::<AmMessage>()
    }

    /// Step 3 of a processor step: hands the send buffer's fragments to the
    /// NI from `t` until the NI refuses one or the sliding window for the
    /// head message's destination is exhausted (§4.1: the *processor*
    /// blocks after four unacknowledged network messages per destination
    /// and falls back to draining receives). The head fragment is cut as
    /// the NI takes it; a refused one is dropped and the message's cursor
    /// stays on it. Returns the time the processor is done and whether the
    /// NI accepted anything.
    pub(super) fn push_outgoing(&mut self, mut t: Cycle) -> (Cycle, bool) {
        let mut pushed = false;
        while let Some(head) = self.outgoing.front_mut() {
            let dst = head.dst;
            if !self.window.can_send(dst) {
                self.stats.send_full_retries += 1;
                break;
            }
            match self.ni.proc_send(t, &mut self.mem, head.fragment()) {
                SendOutcome::Accepted { done } => {
                    t = done;
                    assert!(self.window.try_acquire(dst), "window checked above");
                    self.stats.sent_fragments += 1;
                    pushed = true;
                    if head.advance() {
                        self.outgoing.pop_front();
                    }
                }
                SendOutcome::Full { done, .. } => {
                    t = done;
                    self.stats.send_full_retries += 1;
                    break;
                }
            }
        }
        (t, pushed)
    }

    /// Fragments the software send buffer's messages have left to hand to
    /// the NI.
    pub fn outgoing_fragments(&self) -> usize {
        self.outgoing.iter().map(OutgoingMsg::fragments_left).sum()
    }

    /// Brings `mirror` — a copy of this node as of the last sync — up to
    /// date: the caches copy only the sets written since then, every other
    /// field is `clone_from`'d into the mirror's buffers. Returns the
    /// approximate bytes copied, in [`NodeCore::approx_bytes`]' currency.
    pub(crate) fn sync_into(&mut self, mirror: &mut NodeCore) -> usize {
        mirror.clone_uncached_from(self);
        self.uncached_bytes() + self.mem.sync_into(&mut mirror.mem)
    }

    /// Rewinds this node to `mirror`, its state as of the last sync,
    /// copying back only the cache sets written since then.
    pub(crate) fn rewind_from(&mut self, mirror: &NodeCore) {
        self.clone_uncached_from(mirror);
        self.mem.rewind_from(&mirror.mem);
    }

    /// Every field but the memory system, into `self`'s existing buffers.
    fn clone_uncached_from(&mut self, source: &NodeCore) {
        // Destructured so that a new field cannot silently miss checkpoints.
        let NodeCore {
            id,
            num_nodes,
            mem: _,
            ni,
            window,
            assembler,
            outgoing,
            inbox,
            proc_time,
            idle_since,
            step_scheduled,
            started,
            next_msg_id,
            net_seq,
            rel,
            stats,
            parked,
            step,
            step_key,
        } = source;
        self.id = *id;
        self.num_nodes = *num_nodes;
        self.ni.clone_from(ni);
        self.window.clone_from(window);
        self.assembler.clone_from(assembler);
        self.outgoing.clone_from(outgoing);
        self.inbox.clone_from(inbox);
        self.proc_time = *proc_time;
        self.idle_since = *idle_since;
        self.step_scheduled = *step_scheduled;
        self.started = *started;
        self.next_msg_id = *next_msg_id;
        self.net_seq = *net_seq;
        self.rel.clone_from(rel);
        self.stats = *stats;
        self.parked.clone_from(parked);
        self.step = *step;
        self.step_key = *step_key;
    }

    /// Whether the node has nothing left to do locally (its program may still
    /// be waiting for remote messages). Unacknowledged reliable-delivery
    /// messages count as pending work: their retransmission timers keep the
    /// run alive until the ack arrives. So do deliveries parked behind a
    /// full receive queue.
    pub fn is_quiescent(&self) -> bool {
        self.parked.is_empty()
            && self.outgoing.is_empty()
            && self.inbox.is_empty()
            && self.ni.send_queue_len() == 0
            && self.ni.recv_queue_len() == 0
            && self.rel.as_ref().is_none_or(|r| r.unacked.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_get_the_configured_ni() {
        for kind in NiKind::ALL {
            let cfg = MachineConfig::isca96(4, kind);
            let node = NodeCore::new(2, &cfg);
            assert_eq!(node.ni.kind(), kind);
            assert_eq!(node.id, NodeId(2));
            assert_eq!(node.num_nodes, 4);
            assert!(node.is_quiescent());
        }
    }

    #[test]
    fn io_bus_nodes_route_device_accesses_through_the_bridge() {
        let cfg = MachineConfig::isca96_io(2, NiKind::Cni512Q);
        let node = NodeCore::new(0, &cfg);
        assert_eq!(node.mem.device_location(), DeviceLocation::IoBus);
    }

    #[test]
    fn cache_bus_nodes_have_no_device_cache() {
        let cfg = MachineConfig::isca96_cache_bus(2);
        let node = NodeCore::new(0, &cfg);
        assert!(node.mem.device_cache().is_none());
    }

    #[test]
    fn reliable_state_exists_exactly_when_faults_are_enabled() {
        let cfg = MachineConfig::isca96(4, NiKind::Cni16Q);
        assert!(NodeCore::new(0, &cfg).rel.is_none());
        let cfg = cfg.with_faults(cni_net::faults::FaultConfig::lossy(1, 50_000));
        let node = NodeCore::new(0, &cfg);
        let rel = node.rel.expect("non-zero faults enable the protocol");
        assert_eq!(rel.tx_next.len(), 4);
        assert_eq!(rel.seen.len(), 4);
        assert!(node.outgoing.is_empty(), "fresh node starts quiescent");
    }

    /// An NI2w whose send FIFO is full refuses the head fragment: the
    /// message's cursor stays on it, and once the FIFO drains a slot the
    /// same fragment goes next.
    #[test]
    fn a_refused_fragment_is_offered_again() {
        let mut node = NodeCore::new(0, &MachineConfig::isca96(4, NiKind::Ni2w));
        let filler = OutgoingMsg::new(NodeId(0), NodeId(2), 0, AmMessage::new(0, 0, vec![]));
        let mut t = 0;
        let mut fillers = 0;
        while node.ni.send_has_room() {
            let sent = node.ni.proc_send(t, &mut node.mem, filler.fragment());
            assert!(sent.is_accepted());
            t = sent.done();
            fillers += 1;
        }
        let msg = AmMessage::new(0, 2048, vec![]);
        node.outgoing
            .push_back(OutgoingMsg::new(NodeId(0), NodeId(1), 1, msg));

        let (done, pushed) = node.push_outgoing(t);
        assert!(!pushed, "the full FIFO refuses");
        assert_eq!(node.stats.send_full_retries, 1);
        assert_eq!(node.outgoing_fragments(), 9, "the cursor did not move");
        assert_eq!(node.outgoing[0].fragment().frag_index, 0);

        let (_, filler_frag) = node
            .ni
            .device_take_for_injection(done, &mut node.mem)
            .unwrap();
        assert_eq!(filler_frag.msg_id, 0);
        let (mut t, pushed) = node.push_outgoing(done);
        assert!(pushed);
        assert_eq!(node.outgoing_fragments(), 8);
        for _ in 1..fillers {
            t = node
                .ni
                .device_take_for_injection(t, &mut node.mem)
                .unwrap()
                .0;
        }
        let (_, frag) = node.ni.device_take_for_injection(t, &mut node.mem).unwrap();
        assert_eq!((frag.msg_id, frag.frag_index, frag.frag_count), (1, 0, 9));
    }

    /// The send buffer is counted in fragments, as if its messages were
    /// already cut: a 2 048-byte message is nine of them.
    #[test]
    fn buffered_messages_count_their_fragments() {
        let mut node = NodeCore::new(0, &MachineConfig::isca96(4, NiKind::Cni16Q));
        let empty = node.approx_bytes();
        let msg = AmMessage::new(0, 2048, vec![]);
        node.outgoing
            .push_back(OutgoingMsg::new(NodeId(0), NodeId(1), 0, msg));
        assert_eq!(
            node.approx_bytes() - empty,
            9 * std::mem::size_of::<FragPayload>()
        );
    }

    #[test]
    fn seen_seqs_dedups_and_compacts_out_of_order_arrivals() {
        let mut seen = SeenSeqs::default();
        assert!(seen.insert(0));
        assert!(seen.insert(2)); // a delayed seq 1 is still in flight
        assert!(!seen.insert(0), "replay below the watermark");
        assert!(!seen.insert(2), "replay in the sparse set");
        assert!(seen.contains(0) && seen.contains(2) && !seen.contains(1));
        assert!(seen.insert(1), "the gap fills");
        assert_eq!(seen.below, 3, "watermark compacts through the gap");
        assert!(seen.sparse.is_empty(), "nothing sparse after compaction");
        assert!(!seen.insert(1), "watermark remembers compacted seqs");
    }
}
