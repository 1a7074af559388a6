//! `CNI4`: cachable device registers exposing one network message (§2.1, §3).
//!
//! `CNI4` extends the baseline `NI2w` by exposing a full 256-byte network
//! message through four cachable device-register (CDR) blocks, exploiting the
//! memory bus's block-transfer capability. Status and control registers
//! remain uncached. Because CDRs are reused for every message, the receiver
//! must run the explicit **three-cycle handshake** after consuming a message:
//!
//! 1. an uncached store issues the explicit clear/pop,
//! 2. a memory barrier makes sure the device has seen it,
//! 3. the device invalidates the CDR blocks and the processor confirms the
//!    invalidation by reading an uncached status register.
//!
//! The handshake sits on the critical path of every message, which is why
//! `CNI4` trails the CQ-based CNIs (§5.1).

use std::collections::VecDeque;

use cni_mem::addr::{BlockAddr, BlockHome, RegionAllocator};
use cni_mem::system::NodeMemSystem;
use cni_mem::timing::TIMING;
use cni_sim::time::Cycle;

use crate::device::{DeliverOutcome, NiDevice, PollOutcome, ReceiveOutcome, SendOutcome};
use crate::frag::{word_hit_cycles, Payload};
use crate::taxonomy::NiKind;

/// Number of CDR blocks per direction (one 256-byte network message).
pub const CDR_BLOCKS: usize = 4;

/// The `CNI4` device model.
#[derive(Debug, Clone)]
pub struct Cni4Device<P> {
    send_cdr: BlockAddr,
    recv_cdr: BlockAddr,
    /// Message written into the send CDRs by the processor, not yet pulled by
    /// the device.
    send_exposed: Option<P>,
    /// Message currently exposed through the receive CDRs.
    recv_exposed: Option<P>,
    /// Messages buffered behind the exposed one in the device FIFO.
    recv_fifo: VecDeque<P>,
    /// Total receive-side buffering (exposed message + FIFO) in messages.
    recv_capacity: usize,
}

impl<P: Payload> Cni4Device<P> {
    /// Creates a `CNI4`, allocating its CDR blocks from `alloc`.
    pub fn new(alloc: &mut RegionAllocator) -> Self {
        let send_cdr = alloc.alloc_blocks(CDR_BLOCKS as u64);
        let recv_cdr = alloc.alloc_blocks(CDR_BLOCKS as u64);
        Cni4Device {
            send_cdr,
            recv_cdr,
            send_exposed: None,
            recv_exposed: None,
            recv_fifo: VecDeque::new(),
            recv_capacity: NiKind::Cni4.spec().queue_capacity_messages(),
        }
    }

    fn buffered_receives(&self) -> usize {
        self.recv_fifo.len() + usize::from(self.recv_exposed.is_some())
    }

    /// Moves the next buffered message into the receive CDRs (device-side
    /// work: the writes invalidate any stale processor copies).
    fn expose_next_receive(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> Cycle {
        if self.recv_exposed.is_some() {
            return now;
        }
        let Some(frag) = self.recv_fifo.pop_front() else {
            return now;
        };
        let mut t = now;
        for b in 0..frag.blocks() {
            t = mem.device_write_block(t, self.recv_cdr.offset(b as u64), BlockHome::Device);
        }
        self.recv_exposed = Some(frag);
        t
    }
}

impl<P: Payload> NiDevice<P> for Cni4Device<P> {
    fn kind(&self) -> NiKind {
        NiKind::Cni4
    }

    fn proc_send(&mut self, now: Cycle, mem: &mut NodeMemSystem, frag: P) -> SendOutcome<P> {
        // 1. Uncached status check: is the send CDR free?
        let mut t = mem.proc_uncached_load(now);
        if self.send_exposed.is_some() {
            return SendOutcome::Full { done: t, frag };
        }
        // 2. Write the message into the send CDR blocks using ordinary
        //    coherent stores; the block transfers happen when the device
        //    pulls them.
        for b in 0..frag.blocks() {
            t = mem.proc_cached_write(t, self.send_cdr.offset(b as u64), BlockHome::Device);
        }
        t += word_hit_cycles(&frag);
        // 3. Uncached store signalling "message ready".
        t = mem.proc_uncached_store(t);
        self.send_exposed = Some(frag);
        SendOutcome::Accepted { done: t }
    }

    fn proc_poll(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> PollOutcome {
        // CNI4 still polls an uncached status register (§5.1.1) — only the
        // data path is cachable.
        let done = mem.proc_uncached_load(now);
        PollOutcome {
            done,
            available: self.recv_exposed.is_some(),
        }
    }

    fn proc_receive(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> Option<ReceiveOutcome<P>> {
        let frag = self.recv_exposed.take()?;
        let mut t = now;
        // Read the message out of the CDR blocks: one cache-to-cache block
        // transfer per block, then word-granularity hits.
        for b in 0..frag.blocks() {
            t = mem.proc_cached_read(t, self.recv_cdr.offset(b as u64), BlockHome::Device);
        }
        t += word_hit_cycles(&frag);

        // The three-cycle handshake that makes CDR reuse safe (§2.1):
        // (1) explicit clear via an uncached store,
        t = mem.proc_uncached_store(t);
        // (2) make sure the device has seen it. `proc_uncached_store` already
        //     returns the time the store is visible on the bus, so the
        //     store-buffer flush costs only the barrier instruction itself.
        t += TIMING.cache_hit;
        // (3) the device invalidates the CDR blocks and the processor
        //     confirms by reading the uncached status register.
        for b in 0..frag.blocks() {
            t = mem.device_write_block(t, self.recv_cdr.offset(b as u64), BlockHome::Device);
        }
        t = mem.proc_uncached_load(t);

        // Device-side: expose the next buffered message, if any. This work
        // overlaps with the processor's next instructions but occupies the
        // bus.
        let _ = self.expose_next_receive(t, mem);

        Some(ReceiveOutcome { done: t, frag })
    }

    fn device_take_for_injection(
        &mut self,
        now: Cycle,
        mem: &mut NodeMemSystem,
    ) -> Option<(Cycle, P)> {
        let frag = self.send_exposed.take()?;
        let mut t = now;
        for b in 0..frag.blocks() {
            t = mem.device_read_block(t, self.send_cdr.offset(b as u64), BlockHome::Device);
        }
        Some((t, frag))
    }

    fn device_deliver(
        &mut self,
        now: Cycle,
        mem: &mut NodeMemSystem,
        frag: P,
    ) -> DeliverOutcome<P> {
        // Full buffering refuses without touching any state; only
        // `proc_receive` frees an entry, so the refusal stands until then.
        if self.buffered_receives() >= self.recv_capacity {
            return DeliverOutcome::Blocked(frag);
        }
        if self.recv_exposed.is_none() {
            // Write straight into the CDRs.
            self.recv_fifo.push_back(frag);
            let done = self.expose_next_receive(now, mem);
            DeliverOutcome::Accepted { done }
        } else {
            // Buffer behind the exposed message in the device FIFO (internal,
            // no bus traffic until it is exposed).
            self.recv_fifo.push_back(frag);
            DeliverOutcome::Accepted { done: now }
        }
    }

    fn send_queue_len(&self) -> usize {
        usize::from(self.send_exposed.is_some())
    }

    fn recv_queue_len(&self) -> usize {
        self.buffered_receives()
    }

    fn send_has_room(&self) -> bool {
        self.send_exposed.is_none()
    }

    fn clone_box(&self) -> Box<dyn NiDevice<P>> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::Frag;
    use cni_mem::system::{DeviceLocation, NodeMemConfig};

    fn mem() -> NodeMemSystem {
        NodeMemSystem::new(NodeMemConfig {
            device_cache_blocks: Some(CDR_BLOCKS * 2),
            device_location: DeviceLocation::MemoryBus,
            ..NodeMemConfig::default()
        })
    }

    fn device() -> Cni4Device<Frag> {
        let mut alloc = RegionAllocator::new();
        Cni4Device::new(&mut alloc)
    }

    #[test]
    fn send_uses_block_writes_not_uncached_stores() {
        let mut m = mem();
        let mut ni = device();
        let frag = Frag(0, 244); // full message: 4 blocks
        let out = ni.proc_send(0, &mut m, frag);
        assert!(out.is_accepted());
        // Compared to NI2w's 32 uncached stores (32 × 12 = 384 cycles of bus
        // occupancy), CNI4 should be far cheaper on the send side.
        assert!(out.done() < 28 + 384, "send took {} cycles", out.done());
        assert_eq!(ni.send_queue_len(), 1);
    }

    #[test]
    fn send_is_full_until_device_pulls_the_message() {
        let mut m = mem();
        let mut ni = device();
        let out = ni.proc_send(0, &mut m, Frag(0, 100));
        assert!(out.is_accepted());
        let second = ni.proc_send(out.done(), &mut m, Frag(1, 100));
        assert!(
            !second.is_accepted(),
            "CDR is busy until the device reads it"
        );
        let (t, _) = ni.device_take_for_injection(second.done(), &mut m).unwrap();
        let third = ni.proc_send(t, &mut m, Frag(2, 100));
        assert!(third.is_accepted());
    }

    #[test]
    fn receive_includes_the_three_cycle_handshake() {
        let mut m = mem();
        let mut ni = device();
        let frag = Frag(5, 244);
        assert!(ni.device_deliver(0, &mut m, frag).is_accepted());
        let poll = ni.proc_poll(1000, &mut m);
        assert!(poll.available);
        let rx = ni.proc_receive(poll.done, &mut m).unwrap();
        assert_eq!(rx.frag, frag);
        // Data: one cache-to-cache transfer per block, then one hit per
        // further word.
        let data = 4 * 42 + (64 - 4);
        // Handshake: the uncached clear store, the barrier, the device's
        // invalidation of each CDR block, the uncached status load.
        let handshake = 12 + 1 + 4 * 12 + 28;
        assert_eq!(rx.done - poll.done, data + handshake);
    }

    #[test]
    fn fifo_buffers_behind_the_exposed_message() {
        let mut m = mem();
        let mut ni = device();
        for i in 0..4 {
            assert!(ni.device_deliver(0, &mut m, Frag(i, 12)).is_accepted());
        }
        assert_eq!(ni.recv_queue_len(), 4);
        assert_eq!(
            ni.device_deliver(0, &mut m, Frag(9, 12)),
            DeliverOutcome::Blocked(Frag(9, 12))
        );
        // Receiving the exposed message exposes the next one.
        let poll = ni.proc_poll(0, &mut m);
        let rx = ni.proc_receive(poll.done, &mut m).unwrap();
        let poll = ni.proc_poll(rx.done, &mut m);
        assert!(
            poll.available,
            "next buffered message should now be exposed"
        );
        assert_eq!(ni.recv_queue_len(), 3);
    }

    #[test]
    fn receive_on_empty_device_returns_none() {
        let mut m = mem();
        let mut ni = device();
        assert!(ni.proc_receive(0, &mut m).is_none());
        let poll = ni.proc_poll(0, &mut m);
        assert!(!poll.available);
    }

    #[test]
    fn small_messages_touch_fewer_blocks() {
        let mut m = mem();
        let mut ni = device();
        // 12-byte payload + 12-byte header = 24 bytes: one block.
        let frag = Frag(0, 12);
        assert!(ni.device_deliver(0, &mut m, frag).is_accepted());
        let poll = ni.proc_poll(500, &mut m);
        let rx = ni.proc_receive(poll.done, &mut m).unwrap();
        let small_cost = rx.done - poll.done;

        // A full 244-byte message costs noticeably more.
        let mut m2 = mem();
        let mut ni2 = device();
        assert!(ni2.device_deliver(0, &mut m2, Frag(1, 244)).is_accepted());
        let poll2 = ni2.proc_poll(500, &mut m2);
        let rx2 = ni2.proc_receive(poll2.done, &mut m2).unwrap();
        assert!(rx2.done - poll2.done > small_cost);
    }
}
