//! The cachable-queue CNIs: `CNI16Q`, `CNI512Q` and `CNI16Qm` (§3).
//!
//! All three expose their send and receive queues to the processor as
//! cachable queues with explicit head and tail pointers; they differ only in
//! queue capacity and in where the queue's home is:
//!
//! * `CNI16Q` — 16-block queues backed by device memory.
//! * `CNI512Q` — 512-block queues backed by device memory; the larger
//!   capacity absorbs bursts and makes shadow-head refreshes rarer.
//! * `CNI16Qm` — a 16-block device cache in front of a 512-block receive
//!   queue whose home is main memory, so overflowing messages spill to memory
//!   automatically instead of backing up into the network. Following the
//!   paper, only receive-side memory buffering is modelled; the send queue is
//!   a 16-block device-homed CQ.

use cni_mem::addr::RegionAllocator;
use cni_mem::system::NodeMemSystem;
use cni_sim::time::Cycle;

use crate::cq_model::{CqConfig, CqOptimizations, DeviceToProcCq, ProcToDeviceCq};
use crate::device::{
    clone_into_box, DeliverOutcome, EmptyPolls, NiDevice, PollOutcome, ReceiveOutcome, SendOutcome,
};
use crate::frag::Payload;
use crate::taxonomy::{NiKind, QueueHome};

/// A CQ-based coherent network interface (`CNI16Q`, `CNI512Q` or `CNI16Qm`).
#[derive(Debug)]
pub struct CniQDevice<P> {
    kind: NiKind,
    send_cq: ProcToDeviceCq<P>,
    recv_cq: DeviceToProcCq<P>,
}

impl<P: Clone> Clone for CniQDevice<P> {
    fn clone(&self) -> Self {
        CniQDevice {
            kind: self.kind,
            send_cq: self.send_cq.clone(),
            recv_cq: self.recv_cq.clone(),
        }
    }

    /// Copies into `self`'s existing queues.
    fn clone_from(&mut self, source: &Self) {
        let CniQDevice {
            kind,
            send_cq,
            recv_cq,
        } = source;
        self.kind = *kind;
        self.send_cq.clone_from(send_cq);
        self.recv_cq.clone_from(recv_cq);
    }
}

impl<P: Payload> CniQDevice<P> {
    /// Creates a CQ-based CNI of the given kind, allocating its queues from
    /// `alloc` with the default optimisations enabled.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not one of the CQ-based devices.
    pub fn new(kind: NiKind, alloc: &mut RegionAllocator) -> Self {
        Self::with_optimizations(kind, alloc, CqOptimizations::default())
    }

    /// Creates a CQ-based CNI with explicit optimisation settings (used by
    /// the ablation benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not one of the CQ-based devices.
    pub fn with_optimizations(
        kind: NiKind,
        alloc: &mut RegionAllocator,
        opts: CqOptimizations,
    ) -> Self {
        assert!(
            kind.uses_explicit_queues(),
            "{kind} is not a CQ-based device"
        );
        let spec = kind.spec();
        // Send queue: device-homed; for CNI16Qm the paper only studies
        // memory buffering at the receiver, so the send queue stays at the
        // device-cache size.
        let send_capacity_blocks = match kind {
            NiKind::Cni512Q => spec.queue_capacity_blocks,
            _ => spec.device_cache_blocks.unwrap_or(16),
        };
        let send_cfg = CqConfig::allocate(
            alloc,
            send_capacity_blocks,
            QueueHome::Device.block_home(),
            opts,
        );
        // Receive queue: full capacity, homed per the taxonomy.
        let recv_cfg = CqConfig::allocate(
            alloc,
            spec.queue_capacity_blocks,
            spec.home.block_home(),
            opts,
        );
        CniQDevice {
            kind,
            send_cq: ProcToDeviceCq::new(send_cfg),
            recv_cq: DeviceToProcCq::new(recv_cfg),
        }
    }
}

impl<P: Payload> NiDevice<P> for CniQDevice<P> {
    fn kind(&self) -> NiKind {
        self.kind
    }

    fn proc_send(&mut self, now: Cycle, mem: &mut NodeMemSystem, frag: P) -> SendOutcome<P> {
        self.send_cq.proc_enqueue(now, mem, frag)
    }

    fn proc_poll(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> PollOutcome {
        self.recv_cq.proc_poll(now, mem)
    }

    fn proc_poll_empty_until(
        &mut self,
        now: Cycle,
        until: Cycle,
        mem: &mut NodeMemSystem,
    ) -> EmptyPolls {
        self.recv_cq.proc_poll_empty_until(now, until, mem)
    }

    fn proc_receive(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> Option<ReceiveOutcome<P>> {
        self.recv_cq
            .proc_dequeue(now, mem)
            .map(|(done, frag)| ReceiveOutcome { done, frag })
    }

    fn device_take_for_injection(
        &mut self,
        now: Cycle,
        mem: &mut NodeMemSystem,
    ) -> Option<(Cycle, P)> {
        self.send_cq.device_dequeue(now, mem)
    }

    fn device_deliver(
        &mut self,
        now: Cycle,
        mem: &mut NodeMemSystem,
        frag: P,
    ) -> DeliverOutcome<P> {
        self.recv_cq.device_enqueue(now, mem, frag)
    }

    fn delivery_blocked(&self, mem: &NodeMemSystem) -> bool {
        self.recv_cq.enqueue_blocked(mem)
    }

    fn send_queue_len(&self) -> usize {
        self.send_cq.len()
    }

    fn recv_queue_len(&self) -> usize {
        self.recv_cq.len()
    }

    fn send_has_room(&self) -> bool {
        self.send_cq.has_room()
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
    use cni_mem::system::{DeviceLocation, NodeMemConfig};

    fn mem_for(kind: NiKind) -> NodeMemSystem {
        NodeMemSystem::new(NodeMemConfig {
            device_cache_blocks: kind.spec().device_cache_blocks,
            device_location: DeviceLocation::MemoryBus,
            ..NodeMemConfig::default()
        })
    }

    fn device(kind: NiKind) -> CniQDevice<Frag> {
        let mut alloc = RegionAllocator::new();
        CniQDevice::new(kind, &mut alloc)
    }

    #[test]
    #[should_panic(expected = "not a CQ-based device")]
    fn non_cq_kinds_are_rejected() {
        let mut alloc = RegionAllocator::new();
        let _ = CniQDevice::<Frag>::new(NiKind::Ni2w, &mut alloc);
    }

    /// Fragments the send queue accepts before reporting `Full`, and the
    /// receive queue before refusing, with nothing draining either.
    fn capacities(kind: NiKind) -> (usize, usize) {
        let mut m = mem_for(kind);
        let mut ni = device(kind);
        let mut now = 0;
        let mut send = 0;
        while let SendOutcome::Accepted { done } = ni.proc_send(now, &mut m, Frag(send, 244)) {
            now = done;
            send += 1;
        }
        let mut recv = 0;
        loop {
            match ni.device_deliver(now, &mut m, Frag(recv, 244)) {
                DeliverOutcome::Accepted { done } => now = done,
                DeliverOutcome::Refused(frag) => {
                    assert_eq!(frag, Frag(recv, 244), "{kind}: the refusal hands it back");
                    break;
                }
            }
            recv += 1;
        }
        assert_eq!(
            (ni.send_queue_len(), ni.recv_queue_len()),
            (send as usize, recv as usize)
        );
        (send as usize, recv as usize)
    }

    #[test]
    fn queue_capacities_follow_the_taxonomy() {
        assert_eq!(capacities(NiKind::Cni16Q), (4, 4));
        assert_eq!(capacities(NiKind::Cni512Q), (128, 128));
        // CNI16Qm buffers receives in main memory behind its 16-block
        // device cache; its send queue stays at the device-cache size.
        assert_eq!(capacities(NiKind::Cni16Qm), (4, 128));
    }

    #[test]
    fn end_to_end_send_and_receive_round_trip() {
        for kind in [NiKind::Cni16Q, NiKind::Cni512Q, NiKind::Cni16Qm] {
            let mut m = mem_for(kind);
            let mut ni = device(kind);
            let frag = Frag(42, 200);

            let out = ni.proc_send(0, &mut m, frag);
            assert!(out.is_accepted(), "{kind}: send should be accepted");
            let (inj, taken) = ni
                .device_take_for_injection(out.done(), &mut m)
                .expect("device should see the pending message");
            assert_eq!(taken, frag);

            // Deliver it back (loopback) and receive it.
            let deliver = ni.device_deliver(inj, &mut m, frag);
            assert!(deliver.is_accepted(), "{kind}: delivery should be accepted");
            let poll = ni.proc_poll(inj + 1000, &mut m);
            assert!(poll.available, "{kind}: poll should see the message");
            let rx = ni.proc_receive(poll.done, &mut m).unwrap();
            assert_eq!(rx.frag, frag);
            assert_eq!(ni.recv_queue_len(), 0);
        }
    }

    #[test]
    fn empty_polls_are_cache_hits_after_warmup() {
        let mut m = mem_for(NiKind::Cni512Q);
        let mut ni = device(NiKind::Cni512Q);
        let p0 = ni.proc_poll(0, &mut m);
        let p1 = ni.proc_poll(p0.done, &mut m);
        let p2 = ni.proc_poll(p1.done, &mut m);
        assert!(!p2.available);
        assert_eq!(
            p2.done - p1.done,
            2,
            "warm empty poll must hit in the cache"
        );
        // Contrast: NI2w pays an uncached load (28 cycles) per poll.
    }

    #[test]
    fn cni16qm_absorbs_bursts_that_overflow_cni16q() {
        // Deliver a burst of 16 messages without the processor draining.
        let burst = 16;
        let mut refused_16q = 0;
        let mut m = mem_for(NiKind::Cni16Q);
        let mut ni = device(NiKind::Cni16Q);
        let mut now = 0;
        for i in 0..burst {
            match ni.device_deliver(now, &mut m, Frag(i, 244)) {
                DeliverOutcome::Accepted { done } => now = done,
                _ => refused_16q += 1,
            }
        }
        assert!(
            refused_16q > 0,
            "CNI16Q's 4-entry queue must refuse part of the burst"
        );

        let mut m = mem_for(NiKind::Cni16Qm);
        let mut ni = device(NiKind::Cni16Qm);
        let mut now = 0;
        let mut refused_qm = 0;
        for i in 0..burst {
            match ni.device_deliver(now, &mut m, Frag(i, 244)) {
                DeliverOutcome::Accepted { done } => now = done,
                _ => refused_qm += 1,
            }
        }
        assert_eq!(
            refused_qm, 0,
            "CNI16Qm overflows to memory instead of refusing"
        );
        assert!(
            m.device_cache().unwrap().writebacks() > 0,
            "the overflow must show up as writebacks to main memory"
        );
    }

    #[test]
    fn send_queue_full_reported_to_processor() {
        let mut m = mem_for(NiKind::Cni16Q);
        let mut ni = device(NiKind::Cni16Q);
        let mut now = 0;
        let mut accepted = 0;
        for i in 0..8 {
            match ni.proc_send(now, &mut m, Frag(i, 244)) {
                SendOutcome::Accepted { done } => {
                    accepted += 1;
                    now = done;
                }
                SendOutcome::Full { .. } => break,
            }
        }
        assert_eq!(accepted, 4, "16-block send queue holds four messages");
        assert!(!ni.send_has_room());
    }
}
