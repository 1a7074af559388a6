//! The program interface: how workloads run on simulated processors.
//!
//! A [`Program`] is an event-driven state machine, matching the paper's
//! active-message programming model (§4.1): computation happens in message
//! handlers plus an idle hook that initiates new work. The machine calls the
//! hooks in program order on each node's processor and charges every
//! messaging operation through the [`ProcCtx`] handed to the hook.

use std::any::Any;

use cni_net::message::NodeId;
use cni_sim::time::Cycle;

use crate::msg::{fragment_message_with, AmMessage};

use super::node::NodeCore;

/// A per-node workload.
///
/// Programs must be `Send`: the sharded machine model moves each node's
/// program onto the worker thread that owns its shard.
pub trait Program: Send {
    /// Called once, before any messages are processed.
    fn start(&mut self, ctx: &mut ProcCtx<'_>);

    /// Called when a complete user message addressed to this node has been
    /// extracted from the NI and reassembled.
    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage);

    /// Called when the node has no incoming messages and nothing buffered to
    /// push. Return `true` if the hook made progress (it will be called again
    /// immediately), `false` if the node is waiting for messages (it will
    /// sleep until one arrives).
    fn on_idle(&mut self, ctx: &mut ProcCtx<'_>) -> bool;

    /// Whether this node's share of the computation is complete.
    fn is_done(&self) -> bool;

    /// Downcasting support so harnesses can read results after a run.
    fn as_any(&self) -> &dyn Any;

    /// Clones the program behind the trait object. Speculative execution
    /// checkpoints a node's full state — program included — so it can rewind
    /// a mispredicted epoch; every program must therefore be cloneable.
    fn clone_box(&self) -> Box<dyn Program>;
}

impl Clone for Box<dyn Program> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A placeholder program that does nothing (used internally while a node's
/// real program is temporarily moved out during a hook call, and useful for
/// nodes that only ever react to messages in tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdleProgram;

impl Program for IdleProgram {
    fn start(&mut self, _ctx: &mut ProcCtx<'_>) {}
    fn on_message(&mut self, _ctx: &mut ProcCtx<'_>, _msg: AmMessage) {}
    fn on_idle(&mut self, _ctx: &mut ProcCtx<'_>) -> bool {
        false
    }
    fn is_done(&self) -> bool {
        true
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(*self)
    }
}

/// Fixed per-fragment software overhead of the messaging layer (header
/// formatting, bookkeeping) charged by [`ProcCtx::send`], in cycles.
pub const SEND_SOFTWARE_OVERHEAD: Cycle = 10;

/// The processor context handed to program hooks.
///
/// All methods charge simulated time; the node's processor resumes at
/// [`ProcCtx::now`] when the hook returns.
pub struct ProcCtx<'a> {
    node: &'a mut NodeCore,
    now: Cycle,
}

impl<'a> ProcCtx<'a> {
    /// Creates a context positioned at `now` (machine-internal).
    pub(crate) fn new(node: &'a mut NodeCore, now: Cycle) -> Self {
        ProcCtx { node, now }
    }

    /// Finalises the context and returns the processor's new local time.
    pub(crate) fn finish(self) -> Cycle {
        self.now
    }

    /// The current simulated time on this node's processor.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// This node's identity.
    pub fn node_id(&self) -> NodeId {
        self.node.id
    }

    /// Number of nodes in the machine.
    pub fn num_nodes(&self) -> usize {
        self.node.num_nodes
    }

    /// Charges `cycles` of computation.
    pub fn compute(&mut self, cycles: Cycle) {
        self.now += cycles;
        self.node.stats.compute_cycles += cycles;
    }

    /// Records one completed request's end-to-end latency into this node's
    /// deterministic tail-latency histogram
    /// ([`super::NodeStats::request_latency`]).
    ///
    /// Service programs call this on the client node when a response
    /// arrives, with `cycles = ctx.now() - send_cycle` (the send cycle
    /// travels inside the request payload and is echoed back by the
    /// server). Recording happens inside event dispatch of this node, so
    /// the dirty-tracking mutation contract holds and the histogram is
    /// covered by every cross-shard/lookahead bit-identity check on
    /// [`super::RunReport`].
    pub fn record_request_latency(&mut self, cycles: Cycle) {
        self.node.stats.request_latency.record(cycles);
    }

    /// Sends a user message to `dst`.
    ///
    /// The message is fragmented into 256-byte network messages and buffered;
    /// the machine hands the fragments to the NI (charging the NI-specific
    /// send costs) as soon as the NI and the flow-control window allow.
    /// Sending to the local node uses the same interface and delivers through
    /// the local inbox (§2.2: "the message sender and receiver have the same
    /// interface abstraction whether the other end is local or remote").
    pub fn send(&mut self, dst: NodeId, msg: AmMessage) {
        assert!(
            dst.index() < self.node.num_nodes,
            "destination {dst} out of range for a {}-node machine",
            self.node.num_nodes
        );
        let bytes = msg.bytes;
        self.node.stats.sent_messages += 1;
        self.node.stats.sent_bytes += bytes as u64;
        let msg_id = self.node.next_msg_id;
        self.node.next_msg_id += 1;

        if dst == self.node.id {
            // Local delivery: same abstraction, no network. Charge roughly the
            // cost of enqueueing and dequeueing through a local cachable
            // queue: a handful of cache hits per 8 bytes copied.
            let copy_cycles = (bytes as Cycle).div_ceil(8).max(1) + 2 * SEND_SOFTWARE_OVERHEAD;
            self.now += copy_cycles;
            let mut local = msg;
            local.src = self.node.id;
            self.node.inbox.push_back(local);
            self.node.stats.local_messages += 1;
            return;
        }

        // Fragments go straight into the outgoing buffer — no intermediate
        // Vec per message on the send path.
        let outgoing = &mut self.node.outgoing;
        let count = fragment_message_with(self.node.id, dst, msg_id, msg, |frag| {
            outgoing.push_back(frag);
        });
        self.now += SEND_SOFTWARE_OVERHEAD * count as Cycle;
    }

    /// Convenience wrapper: sends a small active message carrying `data`
    /// words with a logical payload of `bytes`.
    pub fn send_am(&mut self, dst: NodeId, handler: u16, bytes: usize, data: Vec<u64>) {
        self.send(dst, AmMessage::new(handler, bytes, data));
    }

    /// Sends the same message to every other node (one-to-all broadcast, the
    /// gauss communication pattern). The local node is excluded.
    pub fn broadcast(&mut self, msg: AmMessage) {
        for n in 0..self.node.num_nodes {
            let dst = NodeId(n);
            if dst != self.node.id {
                self.send(dst, msg.clone());
            }
        }
    }

    /// Number of fragments this node has buffered but not yet pushed into the
    /// NI (a measure of backpressure visible to adaptive workloads).
    pub fn pending_outgoing(&self) -> usize {
        self.node.outgoing.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::config::MachineConfig;
    use cni_nic::taxonomy::NiKind;

    fn node() -> NodeCore {
        NodeCore::new(0, &MachineConfig::isca96(4, NiKind::Cni16Qm))
    }

    #[test]
    fn compute_advances_time_and_stats() {
        let mut n = node();
        let mut ctx = ProcCtx::new(&mut n, 100);
        ctx.compute(250);
        assert_eq!(ctx.now(), 350);
        let t = ctx.finish();
        assert_eq!(t, 350);
        assert_eq!(n.stats.compute_cycles, 250);
    }

    #[test]
    fn send_fragments_into_the_outgoing_buffer() {
        let mut n = node();
        let mut ctx = ProcCtx::new(&mut n, 0);
        ctx.send_am(NodeId(2), 7, 1000, vec![1, 2]);
        let elapsed = ctx.finish();
        assert_eq!(n.outgoing.len(), 5); // 1000 bytes => 5 fragments
        assert_eq!(n.stats.sent_messages, 1);
        assert_eq!(n.stats.sent_bytes, 1000);
        assert_eq!(elapsed, 5 * SEND_SOFTWARE_OVERHEAD);
    }

    #[test]
    fn local_send_goes_straight_to_the_inbox() {
        let mut n = node();
        let mut ctx = ProcCtx::new(&mut n, 0);
        ctx.send_am(NodeId(0), 3, 64, vec![9]);
        let t = ctx.finish();
        assert!(t > 0);
        assert_eq!(n.inbox.len(), 1);
        assert_eq!(n.outgoing.len(), 0);
        assert_eq!(n.stats.local_messages, 1);
        assert_eq!(n.inbox[0].src, NodeId(0));
    }

    #[test]
    fn broadcast_reaches_every_other_node() {
        let mut n = node();
        let mut ctx = ProcCtx::new(&mut n, 0);
        ctx.broadcast(AmMessage::new(1, 12, vec![]));
        ctx.finish();
        assert_eq!(n.stats.sent_messages, 3);
        assert_eq!(n.outgoing.len(), 3);
        assert_eq!(n.stats.local_messages, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_an_invalid_node_panics() {
        let mut n = node();
        let mut ctx = ProcCtx::new(&mut n, 0);
        ctx.send_am(NodeId(9), 0, 8, vec![]);
    }

    #[test]
    fn idle_program_is_trivially_done() {
        let p = IdleProgram;
        assert!(p.is_done());
        assert!(p.as_any().downcast_ref::<IdleProgram>().is_some());
    }
}
