//! Event-driven send backpressure: the parked processor.
//!
//! A processor whose head fragment the sliding window refuses goes back to
//! polling its receive queue (§4.1). When a step finds nothing to receive,
//! the window still refusing the head fragment, room in the NI and an idle
//! hook that makes no progress, every further step does exactly the same:
//! one empty poll, one more `send_full_retries`, the same time to the next
//! step. Only an event on the node can change that — an acknowledgement
//! that frees window credit, an arrival that fills the receive queue — and
//! nothing else touches the node's NI or memory system. So the shard stops
//! dispatching such steps: the node *parks* its next step
//! ([`ParkedStep::Spinning`]) and the skipped steps are materialised
//! lazily, in bulk, by [`NodeCore::skip_spins`]: CQ devices poll in their
//! cache at a fixed cost, in closed form; NI2w and CNI4 polls occupy the
//! bus, so they are replayed one by one without touching the event queue.
//!
//! A skipped step still holds a FIFO position, as a parked delivery does
//! (see [`super::parked`]): its cycle on the poll grid and its queue key,
//! the [`EventQueue::next_seq`](cni_sim::event::EventQueue::next_seq) value
//! at the moment it would have rescheduled itself. The shard catches a
//! spinning node up before anything else is scheduled on it — at the top of
//! every dispatch on the node, for the steps that precede the popped event,
//! and at every epoch-boundary delivery to it — so each key it records is
//! what the polled step would have carried. Once an event changes what the
//! next step would find, that step is [`ParkedStep::Due`]: it runs for real
//! from its recorded position, at the top of the first dispatch on the node
//! that it precedes, and a `WakeStep` event at its cycle makes sure there is
//! one.

use cni_nic::device::EmptyPolls;
use cni_sim::time::Cycle;

use super::node::NodeCore;

/// A node's next processor step, when it is held outside the event queue.
/// A parked step sits at the node's `proc_time`, where the step before it
/// ended, with queue key [`NodeCore::step_key`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) enum ParkedStep {
    /// Not parked: the next step, if any, is a queued `ProcStep` event.
    #[default]
    None,
    /// The parked step and every one after it is a pure window-blocked
    /// spin; none of them is queued.
    Spinning,
    /// The parked step must really run; a `WakeStep` event is queued at its
    /// cycle.
    Due,
}

impl NodeCore {
    /// Whether the node's parked step runs before the event popped at
    /// `now` with sequence number `seq` (keys are `next_seq` values, so an
    /// event with `seq >= key` was scheduled after the step).
    pub(super) fn step_precedes(&self, now: Cycle, seq: u64) -> bool {
        self.proc_time < now || (self.proc_time == now && self.step_key <= seq)
    }

    /// Whether the processor is blocked by the sliding window with nothing
    /// else to do: the window refuses the head of the send buffer, the NI
    /// has send room, and nothing waits to be received or delivered. A step
    /// that ends so, and whose program's idle hook made no progress, is
    /// followed by identical steps.
    pub(super) fn window_blocked(&self) -> bool {
        self.outgoing
            .front()
            .is_some_and(|f| !self.window.can_send(f.dst))
            && self.ni.send_has_room()
            && self.inbox.is_empty()
            && self.ni.recv_queue_len() == 0
            && self.parked.is_empty()
    }

    /// Runs the spinning steps that precede the event popped at `now` with
    /// sequence number `seq` (`seq = 0`: before anything scheduled at
    /// `now`), as the polled steps would have: one empty poll and one
    /// `send_full_retries` each. The next step stays parked at the end of
    /// the last poll, with key `cur`, the queue's current `next_seq`.
    /// Returns the polls, or `None` when no step precedes the event.
    pub(super) fn skip_spins(&mut self, now: Cycle, seq: u64, cur: u64) -> Option<EmptyPolls> {
        if self.step != ParkedStep::Spinning || !self.step_precedes(now, seq) {
            return None;
        }
        // The first skipped step precedes the event; every later one was
        // rescheduled after it was popped, so precedes it only from an
        // earlier cycle.
        let polls = self
            .ni
            .proc_poll_empty_until(self.proc_time, now, &mut self.mem);
        self.stats.send_full_retries += polls.count;
        self.proc_time = polls.done;
        self.idle_since = Some(polls.done);
        self.step_key = cur;
        Some(polls)
    }
}
