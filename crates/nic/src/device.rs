//! The common interface all five NI device models implement.
//!
//! The machine model (in `cni-core`) drives devices through this trait:
//! processor-side calls happen in program order on the simulated processor's
//! time line, device-side calls happen at event times (network arrivals,
//! injection opportunities). Every call receives the node's
//! [`NodeMemSystem`] so the device can charge its bus transactions and
//! coherence actions.

use std::any::Any;

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

/// Outcome of a run of empty processor-side polls
/// ([`NiDevice::proc_poll_empty_until`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyPolls {
    /// Polls made.
    pub count: u64,
    /// Cycle at which the last poll started.
    pub last: Cycle,
    /// Cycle at which the last poll completed.
    pub done: Cycle,
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
    /// The device's receive queue is full. The network holds the message
    /// and offers it again every `DELIVERY_RETRY_INTERVAL` cycles. Whether
    /// such an attempt can do anything is [`NiDevice::delivery_blocked`].
    Refused(P),
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
pub trait NiDevice<P: Payload>: Any + Send {
    /// Which taxonomy entry this device implements.
    fn kind(&self) -> NiKind;

    // ------------------------------------------------------------------
    // Processor side
    // ------------------------------------------------------------------

    /// Attempts to enqueue one outgoing fragment.
    fn proc_send(&mut self, now: Cycle, mem: &mut NodeMemSystem, frag: P) -> SendOutcome<P>;

    /// Polls for an incoming fragment without consuming it.
    fn proc_poll(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> PollOutcome;

    /// Polls an empty receive queue back to back from `now`, as a processor
    /// spinning on it does, until a poll completes at or after `until`;
    /// always polls at least once. The caller guarantees that the queue
    /// stays empty and that nothing touched the device or the node's memory
    /// system since the device's last call, an empty poll. Devices whose
    /// repeated poll has a fixed cost answer in closed form; the default
    /// polls one at a time.
    fn proc_poll_empty_until(
        &mut self,
        now: Cycle,
        until: Cycle,
        mem: &mut NodeMemSystem,
    ) -> EmptyPolls {
        let mut polls = EmptyPolls {
            count: 0,
            last: now,
            done: now,
        };
        loop {
            let poll = self.proc_poll(polls.done, mem);
            debug_assert!(!poll.available, "an empty poll found a message");
            polls = EmptyPolls {
                count: polls.count + 1,
                last: polls.done,
                done: poll.done,
            };
            if polls.done >= until {
                return polls;
            }
        }
    }

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

    /// Whether a delivery attempted now would be refused without changing
    /// any device or memory-system state. Every such attempt fails the same
    /// way until something changes the device or the node's memory system,
    /// so the machine skips them instead of dispatching each one.
    fn delivery_blocked(&self, mem: &NodeMemSystem) -> bool;

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

    /// Copies the device into `target`: in place, reusing its queue
    /// buffers, when `target` is a device of the same type, else into a
    /// fresh box. Checkpoint re-syncs and rewinds copy every dirty node's
    /// NI this way.
    fn clone_into_box(&self, target: &mut Box<dyn NiDevice<P>>);
}

/// [`NiDevice::clone_into_box`] for a device type `D`.
pub(crate) fn clone_into_box<P: Payload, D: NiDevice<P> + Clone>(
    source: &D,
    target: &mut Box<dyn NiDevice<P>>,
) {
    match (&mut **target as &mut dyn Any).downcast_mut::<D>() {
        Some(same) => same.clone_from(source),
        None => *target = Box::new(source.clone()),
    }
}

impl<P: Payload> Clone for Box<dyn NiDevice<P>> {
    fn clone(&self) -> Self {
        self.clone_box()
    }

    fn clone_from(&mut self, source: &Self) {
        source.clone_into_box(self);
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
    }

    fn mem(kind: NiKind) -> NodeMemSystem {
        NodeMemSystem::new(NodeMemConfig {
            device_cache_blocks: kind.spec().device_cache_blocks,
            device_location: DeviceLocation::MemoryBus,
            ..NodeMemConfig::default()
        })
    }

    fn device(kind: NiKind) -> Box<dyn NiDevice<Frag>> {
        let mut alloc = RegionAllocator::new();
        match kind {
            NiKind::Ni2w => Box::new(Ni2wDevice::new()),
            NiKind::Cni4 => Box::new(Cni4Device::new(&mut alloc)),
            _ => Box::new(CniQDevice::new(kind, &mut alloc)),
        }
    }

    /// Every device, over every queue it has: a refused send or delivery
    /// hands back the very fragment it was given, and injection and
    /// receive return the accepted fragments in FIFO order, each with its
    /// identity.
    #[test]
    fn refusals_hand_the_fragment_back_and_queues_stay_fifo() {
        for kind in NiKind::ALL {
            let mut mem = mem(kind);
            let mut ni = device(kind);
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
                    DeliverOutcome::Refused(back) => {
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

    /// The device's full state, queues included, through its concrete type.
    fn state(ni: &dyn NiDevice<Frag>) -> String {
        let any = ni as &dyn Any;
        if let Some(d) = any.downcast_ref::<Ni2wDevice<Frag>>() {
            format!("{d:?}")
        } else if let Some(d) = any.downcast_ref::<Cni4Device<Frag>>() {
            format!("{d:?}")
        } else {
            let d = any.downcast_ref::<CniQDevice<Frag>>().unwrap();
            format!("{d:?}")
        }
    }

    /// `clone_from` between boxed devices copies in place when both are of
    /// one device type, and replaces the box otherwise; either way the
    /// target ends equal to a fresh clone of the source.
    #[test]
    fn boxed_clone_from_copies_in_place_within_a_device_type() {
        for from in NiKind::ALL {
            let mut mem = mem(from);
            let mut source = device(from);
            let mut now = 0;
            for id in 0..2 {
                now = source.proc_send(now, &mut mem, Frag(id, 100)).done();
                if let DeliverOutcome::Accepted { done } =
                    source.device_deliver(now, &mut mem, Frag(10 + id, 100))
                {
                    now = done;
                }
            }
            for to in NiKind::ALL {
                let mut target = device(to);
                let before = &*target as *const dyn NiDevice<Frag> as *const u8;
                target.clone_from(&source);
                let after = &*target as *const dyn NiDevice<Frag> as *const u8;
                let same_type =
                    from == to || (from.uses_explicit_queues() && to.uses_explicit_queues());
                assert_eq!(before == after, same_type, "{from} into {to}");
                assert_eq!(target.kind(), from, "{from} into {to}");
                assert_eq!(state(&*target), state(&*source.clone()), "{from} into {to}");
            }
        }
    }
}
