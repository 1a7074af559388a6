//! The common interface all five NI device models implement.
//!
//! The machine model (in `cni-core`) drives devices through this trait:
//! processor-side calls happen in program order on the simulated processor's
//! time line, device-side calls happen at event times (network arrivals,
//! injection opportunities). Every call receives the node's
//! [`NodeMemSystem`] so the device can charge its bus transactions and
//! coherence actions.

use cni_mem::system::NodeMemSystem;
use cni_sim::time::Cycle;

use crate::frag::Payload;
use crate::taxonomy::NiKind;

/// Outcome of a processor-side send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome<P> {
    /// The fragment was enqueued; the processor is free at `done`.
    Accepted {
        /// Cycle at which the processor finishes the send.
        done: Cycle,
    },
    /// The NI send queue was full; `done` is the time spent discovering that.
    /// The fragment comes back to the caller, which must drain incoming
    /// messages (deadlock avoidance, §4.1) and retry.
    Full {
        /// Cycle at which the processor finishes the failed attempt.
        done: Cycle,
        /// The refused fragment.
        frag: P,
    },
}

impl<P> SendOutcome<P> {
    /// Completion time regardless of outcome.
    pub fn done(&self) -> Cycle {
        match *self {
            SendOutcome::Accepted { done } | SendOutcome::Full { done, .. } => done,
        }
    }

    /// Whether the fragment was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, SendOutcome::Accepted { .. })
    }
}

/// Outcome of a processor-side poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollOutcome {
    /// Cycle at which the poll completes.
    pub done: Cycle,
    /// Whether a message is available to receive.
    pub available: bool,
}

/// Outcome of a processor-side receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiveOutcome<P> {
    /// Cycle at which the message is fully copied to user space and the NI
    /// queue entry has been released.
    pub done: Cycle,
    /// The fragment received.
    pub frag: P,
}

/// Outcome of a device-side delivery of an arriving network message. A
/// refusal hands the fragment back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverOutcome<P> {
    /// The device stored the message; an acknowledgement may be generated at
    /// `done`.
    Accepted {
        /// Cycle at which the device finished storing the message.
        done: Cycle,
    },
    /// The device's receive queue is full and the refusal itself did device
    /// work (a CQ re-reads the processor's head pointer over the bus on
    /// every attempt), so the network holds the message and polls: it
    /// retries every `DELIVERY_RETRY_INTERVAL` cycles, each attempt charged
    /// like the first.
    Refused(P),
    /// The device's receive queue is full and the refusal was *pure*: it
    /// changed no device or bus state, and every retry fails the same way
    /// until the processor next calls [`NiDevice::proc_receive`] on this
    /// device — the only call that frees receive space. The network still
    /// holds the message on the same retry grid, but the machine parks it
    /// instead of dispatching each futile attempt.
    Blocked(P),
}

impl<P> DeliverOutcome<P> {
    /// Whether the message was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, DeliverOutcome::Accepted { .. })
    }
}

/// A network-interface device model.
///
/// Implementations: [`crate::ni2w::Ni2wDevice`], [`crate::cdr::Cni4Device`]
/// and [`crate::cniq::CniQDevice`] (which covers `CNI16Q`, `CNI512Q` and
/// `CNI16Qm`).
///
/// Devices are generic over the fragment type `P` their queues hold. They
/// must be `Send`: the sharded machine model moves each node — NI included —
/// onto the worker thread that owns its shard.
pub trait NiDevice<P: Payload>: Send {
    /// Which taxonomy entry this device implements.
    fn kind(&self) -> NiKind;

    // ------------------------------------------------------------------
    // Processor side
    // ------------------------------------------------------------------

    /// Attempts to enqueue one outgoing fragment.
    fn proc_send(&mut self, now: Cycle, mem: &mut NodeMemSystem, frag: P) -> SendOutcome<P>;

    /// Polls for an incoming fragment without consuming it.
    fn proc_poll(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> PollOutcome;

    /// Receives (copies to user space and pops) the fragment at the head of
    /// the receive queue. Returns `None` if the queue is empty — callers
    /// normally poll first.
    fn proc_receive(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> Option<ReceiveOutcome<P>>;

    // ------------------------------------------------------------------
    // Device side
    // ------------------------------------------------------------------

    /// If an outgoing fragment is ready, performs the device-side work to
    /// extract it (e.g. pulling CQ blocks out of the processor cache) and
    /// returns it along with the cycle at which it is ready to inject into
    /// the network.
    fn device_take_for_injection(
        &mut self,
        now: Cycle,
        mem: &mut NodeMemSystem,
    ) -> Option<(Cycle, P)>;

    /// Delivers an arriving network message to the device.
    fn device_deliver(&mut self, now: Cycle, mem: &mut NodeMemSystem, frag: P)
        -> DeliverOutcome<P>;

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Fragments waiting in the send queue (not yet injected).
    fn send_queue_len(&self) -> usize;

    /// Fragments waiting in the receive queue (not yet received by the
    /// processor).
    fn recv_queue_len(&self) -> usize;

    /// Whether the send path currently has room for another fragment.
    fn send_has_room(&self) -> bool;

    /// Clones the device behind the trait object. Speculative execution
    /// checkpoints a node's full state — queues and in-flight device work
    /// included — so it can rewind a mispredicted epoch.
    fn clone_box(&self) -> Box<dyn NiDevice<P>>;
}

impl<P: Payload> Clone for Box<dyn NiDevice<P>> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::Frag;
    use crate::{Cni4Device, CniQDevice, Ni2wDevice};
    use cni_mem::addr::RegionAllocator;
    use cni_mem::system::{DeviceLocation, NodeMemConfig};

    #[test]
    fn send_outcome_helpers() {
        let a = SendOutcome::<()>::Accepted { done: 10 };
        let f = SendOutcome::Full { done: 7, frag: () };
        assert!(a.is_accepted());
        assert!(!f.is_accepted());
        assert_eq!(a.done(), 10);
        assert_eq!(f.done(), 7);
    }

    #[test]
    fn deliver_outcome_helpers() {
        assert!(DeliverOutcome::<()>::Accepted { done: 1 }.is_accepted());
        assert!(!DeliverOutcome::Refused(()).is_accepted());
        assert!(!DeliverOutcome::Blocked(()).is_accepted());
    }

    /// Every device, over every queue it has: a refused send or delivery
    /// hands back the very fragment it was given, and injection and
    /// receive return the accepted fragments in FIFO order, each with its
    /// identity.
    #[test]
    fn refusals_hand_the_fragment_back_and_queues_stay_fifo() {
        for kind in NiKind::ALL {
            let mut mem = NodeMemSystem::new(NodeMemConfig {
                device_cache_blocks: kind.spec().device_cache_blocks,
                device_location: DeviceLocation::MemoryBus,
                ..NodeMemConfig::default()
            });
            let mut alloc = RegionAllocator::new();
            let mut ni: Box<dyn NiDevice<Frag>> = match kind {
                NiKind::Ni2w => Box::new(Ni2wDevice::new()),
                NiKind::Cni4 => Box::new(Cni4Device::new(&mut alloc)),
                _ => Box::new(CniQDevice::new(kind, &mut alloc)),
            };
            let mut ids = 0u64..;
            let mut now = 0;

            let mut sent = Vec::new();
            loop {
                let frag = Frag(ids.next().unwrap(), 100);
                match ni.proc_send(now, &mut mem, frag) {
                    SendOutcome::Accepted { done } => {
                        now = done;
                        sent.push(frag);
                    }
                    SendOutcome::Full { done, frag: back } => {
                        assert_eq!(back, frag, "{kind}: refused send");
                        now = done;
                        break;
                    }
                }
            }
            assert_eq!(ni.send_queue_len(), sent.len(), "{kind}");
            for want in sent {
                let (done, got) = ni
                    .device_take_for_injection(now, &mut mem)
                    .unwrap_or_else(|| panic!("{kind}: {want:?} was not injected"));
                assert_eq!(got, want, "{kind}: injection order");
                now = done;
            }
            assert!(
                ni.device_take_for_injection(now, &mut mem).is_none(),
                "{kind}"
            );

            let mut delivered = Vec::new();
            loop {
                let frag = Frag(ids.next().unwrap(), 100);
                match ni.device_deliver(now, &mut mem, frag) {
                    DeliverOutcome::Accepted { done } => {
                        now = done;
                        delivered.push(frag);
                    }
                    DeliverOutcome::Refused(back) | DeliverOutcome::Blocked(back) => {
                        assert_eq!(back, frag, "{kind}: refused delivery");
                        break;
                    }
                }
            }
            assert_eq!(ni.recv_queue_len(), delivered.len(), "{kind}");
            for want in delivered {
                let rx = ni
                    .proc_receive(now, &mut mem)
                    .unwrap_or_else(|| panic!("{kind}: {want:?} was not received"));
                assert_eq!(rx.frag, want, "{kind}: receive order");
                now = rx.done;
            }
            assert!(ni.proc_receive(now, &mut mem).is_none(), "{kind}");
        }
    }
}
