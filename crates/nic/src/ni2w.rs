//! `NI2w`: the conventional, CM-5-like network interface (§3).
//!
//! All accesses to the NI queues are uncached. A send first checks an
//! uncachable status register to make sure there is room, then writes the
//! message to an uncachable device register backed by a hardware FIFO, one
//! 8-byte double word at a time. A receive checks an uncached status
//! register, then reads the message from an uncachable device register with
//! implicit clear-on-read (pop) semantics. Two 4-byte words of the message
//! are exposed at a time, hence the name.

use std::collections::VecDeque;

use cni_mem::system::NodeMemSystem;
use cni_sim::time::Cycle;

use crate::cq_model::ENTRY_BLOCKS;
use crate::device::{
    clone_into_box, DeliverOutcome, NiDevice, PollOutcome, ReceiveOutcome, SendOutcome,
};
use crate::frag::Payload;
use crate::taxonomy::NiKind;

/// Per-direction hardware FIFO capacity in network messages: the 16-block
/// FIFO holds four, matching the small CM-5 FIFOs.
const FIFO_CAPACITY: usize = NiKind::Ni2w.spec().queue_capacity_blocks / ENTRY_BLOCKS;

/// The `NI2w` device model.
#[derive(Debug)]
pub struct Ni2wDevice<P> {
    send_fifo: VecDeque<P>,
    recv_fifo: VecDeque<P>,
}

impl<P: Clone> Clone for Ni2wDevice<P> {
    fn clone(&self) -> Self {
        Ni2wDevice {
            send_fifo: self.send_fifo.clone(),
            recv_fifo: self.recv_fifo.clone(),
        }
    }

    /// Copies into `self`'s existing FIFOs.
    fn clone_from(&mut self, source: &Self) {
        let Ni2wDevice {
            send_fifo,
            recv_fifo,
        } = source;
        self.send_fifo.clone_from(send_fifo);
        self.recv_fifo.clone_from(recv_fifo);
    }
}

impl<P> Ni2wDevice<P> {
    /// Creates an `NI2w` with empty FIFOs.
    pub fn new() -> Self {
        Ni2wDevice {
            send_fifo: VecDeque::new(),
            recv_fifo: VecDeque::new(),
        }
    }
}

impl<P> Default for Ni2wDevice<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Payload> NiDevice<P> for Ni2wDevice<P> {
    fn kind(&self) -> NiKind {
        NiKind::Ni2w
    }

    fn proc_send(&mut self, now: Cycle, mem: &mut NodeMemSystem, frag: P) -> SendOutcome<P> {
        // 1. Check the uncached send-status register.
        let mut t = mem.proc_uncached_load(now);
        if !self.send_has_room() {
            return SendOutcome::Full { done: t, frag };
        }
        // 2. Write the message, one uncached 8-byte store per double word.
        for _ in 0..frag.dwords() {
            t = mem.proc_uncached_store(t);
        }
        self.send_fifo.push_back(frag);
        SendOutcome::Accepted { done: t }
    }

    fn proc_poll(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> PollOutcome {
        // Every poll reads the uncached receive-status register — this is the
        // overhead CDRs/CQs eliminate.
        let done = mem.proc_uncached_load(now);
        PollOutcome {
            done,
            available: !self.recv_fifo.is_empty(),
        }
    }

    fn proc_receive(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> Option<ReceiveOutcome<P>> {
        // Read the message one uncached 8-byte load at a time; the read of
        // the hardware receive queue is an implicit pop (clear-on-read).
        let frag = self.recv_fifo.pop_front()?;
        let mut t = now;
        for _ in 0..frag.dwords() {
            t = mem.proc_uncached_load(t);
        }
        Some(ReceiveOutcome { done: t, frag })
    }

    fn device_take_for_injection(
        &mut self,
        now: Cycle,
        _mem: &mut NodeMemSystem,
    ) -> Option<(Cycle, P)> {
        // The message already sits in the device's hardware FIFO; injection
        // needs no further bus work.
        self.send_fifo.pop_front().map(|frag| (now, frag))
    }

    fn device_deliver(
        &mut self,
        now: Cycle,
        mem: &mut NodeMemSystem,
        frag: P,
    ) -> DeliverOutcome<P> {
        if self.delivery_blocked(mem) {
            return DeliverOutcome::Refused(frag);
        }
        self.recv_fifo.push_back(frag);
        DeliverOutcome::Accepted { done: now }
    }

    /// A full FIFO refuses without touching any state.
    fn delivery_blocked(&self, _mem: &NodeMemSystem) -> bool {
        self.recv_fifo.len() >= FIFO_CAPACITY
    }

    fn send_queue_len(&self) -> usize {
        self.send_fifo.len()
    }

    fn recv_queue_len(&self) -> usize {
        self.recv_fifo.len()
    }

    fn send_has_room(&self) -> bool {
        self.send_fifo.len() < FIFO_CAPACITY
    }

    fn clone_box(&self) -> Box<dyn NiDevice<P>> {
        Box::new(self.clone())
    }

    fn clone_into_box(&self, target: &mut Box<dyn NiDevice<P>>) {
        clone_into_box(self, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::Frag;
    use cni_mem::system::{DeviceLocation, NodeMemConfig, NodeMemSystem};

    fn mem(location: DeviceLocation) -> NodeMemSystem {
        NodeMemSystem::new(NodeMemConfig {
            device_cache_blocks: None,
            device_location: location,
            ..NodeMemConfig::default()
        })
    }

    #[test]
    fn send_cost_is_status_check_plus_one_store_per_dword() {
        let mut m = mem(DeviceLocation::MemoryBus);
        let mut ni = Ni2wDevice::<Frag>::new();
        // 64-byte payload + 12-byte header = 76 bytes = 10 double words.
        let frag = Frag(0, 64);
        let out = ni.proc_send(0, &mut m, frag);
        assert!(out.is_accepted());
        assert_eq!(out.done(), 28 + 10 * 12);
        assert_eq!(ni.send_queue_len(), 1);
    }

    #[test]
    fn receive_cost_is_one_uncached_load_per_dword() {
        let mut m = mem(DeviceLocation::MemoryBus);
        let mut ni = Ni2wDevice::<Frag>::new();
        let frag = Frag(3, 64);
        assert!(ni.device_deliver(0, &mut m, frag).is_accepted());
        let poll = ni.proc_poll(0, &mut m);
        assert!(poll.available);
        assert_eq!(poll.done, 28);
        let rx = ni.proc_receive(poll.done, &mut m).unwrap();
        assert_eq!(rx.frag, frag);
        assert_eq!(rx.done - poll.done, 10 * 28);
        assert_eq!(ni.recv_queue_len(), 0);
    }

    #[test]
    fn io_bus_accesses_are_slower() {
        let mut m = mem(DeviceLocation::IoBus);
        let mut ni = Ni2wDevice::<Frag>::new();
        let poll = ni.proc_poll(0, &mut m);
        assert_eq!(poll.done, 48);
        let frag = Frag(0, 4);
        let out = ni.proc_send(poll.done, &mut m, frag);
        // Status (48) + 2 double words (header 12 + payload 4 = 16 bytes).
        assert_eq!(out.done() - poll.done, 48 + 2 * 32);
    }

    #[test]
    fn cache_bus_accesses_are_cheap() {
        let mut m = mem(DeviceLocation::CacheBus);
        let mut ni = Ni2wDevice::<Frag>::new();
        let poll = ni.proc_poll(0, &mut m);
        assert_eq!(poll.done, 4);
    }

    #[test]
    fn send_fifo_fills_up_and_recovers() {
        let mut m = mem(DeviceLocation::MemoryBus);
        let mut ni = Ni2wDevice::<Frag>::new();
        let mut now = 0;
        for i in 0..4 {
            let out = ni.proc_send(now, &mut m, Frag(i, 8));
            assert!(out.is_accepted());
            now = out.done();
        }
        let out = ni.proc_send(now, &mut m, Frag(9, 8));
        assert_eq!(
            out,
            SendOutcome::Full {
                done: now + 28,
                frag: Frag(9, 8)
            }
        );
        assert_eq!(ni.send_queue_len(), 4);
        assert!(!ni.send_has_room());
        // The device injects one message, freeing a slot.
        assert!(ni.device_take_for_injection(out.done(), &mut m).is_some());
        assert!(ni.send_has_room());
    }

    #[test]
    fn receive_fifo_refuses_when_full() {
        let mut m = mem(DeviceLocation::MemoryBus);
        let mut ni = Ni2wDevice::<Frag>::new();
        for i in 0..4 {
            assert!(ni.device_deliver(0, &mut m, Frag(i, 8)).is_accepted());
        }
        assert_eq!(
            ni.device_deliver(0, &mut m, Frag(4, 8)),
            DeliverOutcome::Refused(Frag(4, 8))
        );
        assert_eq!(
            ni.recv_queue_len(),
            4,
            "a refusal leaves the FIFO as it was"
        );
    }

    #[test]
    fn receive_on_empty_queue_returns_none() {
        let mut m = mem(DeviceLocation::MemoryBus);
        let mut ni = Ni2wDevice::<Frag>::new();
        assert!(ni.proc_receive(0, &mut m).is_none());
    }
}
