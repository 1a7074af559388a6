//! The latency-only network fabric.
//!
//! Topology is ignored (§4.1): every message experiences the same fixed wire
//! latency. The fabric is a passive component — the machine model owns the
//! global event queue, so [`Fabric::send`] simply computes the delivery time
//! and returns a [`Delivery`] record for the caller to schedule. The fabric
//! also computes acknowledgement arrival times for the sliding-window flow
//! control and keeps aggregate traffic statistics.

use serde::{Deserialize, Serialize};

use cni_sim::stats::Merge;
use cni_sim::time::Cycle;

use crate::message::{NetMessage, NodeId, NET_MESSAGE_BYTES};

/// A scheduled delivery returned by [`Fabric::send`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery<P> {
    /// The message in flight.
    pub message: NetMessage<P>,
    /// Cycle at which the first byte arrives at the destination NI.
    pub arrives_at: Cycle,
}

/// Aggregate fabric statistics.
///
/// Counters are purely additive, so a sharded machine accumulates one
/// `FabricStats` per shard (no shared mutable fabric on the hot path) and
/// [`Merge::merge`]s them at reporting time; the merged totals are
/// identical to what a single shared fabric would have counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricStats {
    /// Network messages injected.
    pub messages: u64,
    /// Wire bytes injected (messages × 256).
    pub wire_bytes: u64,
    /// User payload bytes injected.
    pub payload_bytes: u64,
    /// Messages the fault layer destroyed in flight (drops plus traffic to
    /// or from a node inside an outage window). Zero without fault
    /// injection.
    pub faults_dropped: u64,
    /// Messages that arrived corrupted and were discarded by the receiving
    /// NI's CRC check. Zero without fault injection.
    pub corruptions_detected: u64,
    /// Duplicate arrivals discarded by receive-side sequence-number dedup.
    /// Zero without fault injection.
    pub dup_discards: u64,
    /// Messages retransmitted by the reliable-delivery protocol. Zero
    /// without fault injection.
    pub retransmits: u64,
    /// Retransmission-timer expiries (counted even when retransmission is
    /// disabled). Zero without fault injection.
    pub timeouts: u64,
}

impl Merge for FabricStats {
    fn merge(&mut self, other: &Self) {
        self.messages += other.messages;
        self.wire_bytes += other.wire_bytes;
        self.payload_bytes += other.payload_bytes;
        self.faults_dropped += other.faults_dropped;
        self.corruptions_detected += other.corruptions_detected;
        self.dup_discards += other.dup_discards;
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
    }
}

/// The network fabric.
///
/// ```
/// use cni_net::fabric::Fabric;
/// use cni_net::message::NodeId;
///
/// let mut fabric = Fabric::new(100);
/// let d = fabric.send(50, NodeId(0), NodeId(1), 64, "payload");
/// assert_eq!(d.arrives_at, 150);
/// assert_eq!(fabric.stats().messages, 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fabric {
    latency: Cycle,
    next_seq: u64,
    stats: FabricStats,
}

impl Fabric {
    /// Creates a fabric with the given one-way wire latency in cycles.
    pub fn new(latency: Cycle) -> Self {
        Fabric {
            latency,
            next_seq: 0,
            stats: FabricStats::default(),
        }
    }

    /// The paper's 100-cycle fabric.
    pub fn isca96() -> Self {
        Self::new(100)
    }

    /// A fresh fabric with the same latency and zeroed statistics — one per
    /// shard of a sharded machine. Sequence numbers restart per fork; they
    /// are only unique within one fabric and carry no simulation semantics.
    pub fn fork(&self) -> Fabric {
        Fabric::new(self.latency)
    }

    /// One-way latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Injects one network message at `now`, returning its delivery record.
    ///
    /// `payload_bytes` is the number of *user* bytes carried (≤ 244); the
    /// wire always carries a full 256-byte message.
    pub fn send<P>(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        payload: P,
    ) -> Delivery<P> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.messages += 1;
        self.stats.wire_bytes += NET_MESSAGE_BYTES as u64;
        self.stats.payload_bytes += payload_bytes as u64;
        Delivery {
            message: NetMessage {
                src,
                dst,
                seq,
                payload_bytes,
                payload,
            },
            arrives_at: now + self.latency,
        }
    }

    /// Time at which an acknowledgement generated at the destination at
    /// `accepted_at` arrives back at the source.
    pub fn ack_arrival(&self, accepted_at: Cycle) -> Cycle {
        accepted_at + self.latency
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Records a message the fault layer destroyed in flight.
    pub fn note_fault_drop(&mut self) {
        self.stats.faults_dropped += 1;
    }

    /// Records a corrupted arrival discarded by the receiver's CRC check.
    pub fn note_corruption_detected(&mut self) {
        self.stats.corruptions_detected += 1;
    }

    /// Records a duplicate arrival discarded by receive-side dedup.
    pub fn note_dup_discard(&mut self) {
        self.stats.dup_discards += 1;
    }

    /// Records one retransmission by the reliable-delivery protocol.
    pub fn note_retransmit(&mut self) {
        self.stats.retransmits += 1;
    }

    /// Records one retransmission-timer expiry.
    pub fn note_timeout(&mut self) {
        self.stats.timeouts += 1;
    }
}

impl Default for Fabric {
    fn default() -> Self {
        Self::isca96()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_time_adds_the_wire_latency() {
        let mut f = Fabric::isca96();
        let d = f.send(1000, NodeId(2), NodeId(5), 12, ());
        assert_eq!(d.arrives_at, 1100);
        assert_eq!(d.message.src, NodeId(2));
        assert_eq!(d.message.dst, NodeId(5));
    }

    #[test]
    fn sequence_numbers_are_unique_and_monotonic() {
        let mut f = Fabric::new(10);
        let a = f.send(0, NodeId(0), NodeId(1), 1, ());
        let b = f.send(0, NodeId(1), NodeId(0), 1, ());
        assert!(b.message.seq > a.message.seq);
    }

    #[test]
    fn stats_account_wire_and_payload_bytes() {
        let mut f = Fabric::new(10);
        f.send(0, NodeId(0), NodeId(1), 244, ());
        f.send(0, NodeId(0), NodeId(1), 12, ());
        let s = f.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.wire_bytes, 512);
        assert_eq!(s.payload_bytes, 256);
    }

    #[test]
    fn ack_arrival_is_symmetric() {
        let f = Fabric::new(100);
        assert_eq!(f.ack_arrival(400), 500);
    }

    #[test]
    fn forked_shard_stats_merge_to_the_shared_totals() {
        let mut shared = Fabric::new(10);
        let mut a = shared.fork();
        let mut b = shared.fork();
        for i in 0..5 {
            shared.send(0, NodeId(0), NodeId(1), 100 + i, ());
        }
        for i in 0..3 {
            a.send(0, NodeId(0), NodeId(1), 100 + i, ());
        }
        for i in 3..5 {
            b.send(0, NodeId(2), NodeId(3), 100 + i, ());
        }
        let merged = FabricStats::merged([a.stats(), b.stats()]);
        assert_eq!(merged, shared.stats());
        assert_eq!(a.latency(), 10);
    }

    #[test]
    fn fault_counters_merge_like_traffic_counters() {
        let mut a = Fabric::new(10);
        let mut b = Fabric::new(10);
        a.note_fault_drop();
        a.note_retransmit();
        a.note_timeout();
        b.note_corruption_detected();
        b.note_dup_discard();
        b.note_timeout();
        let merged = FabricStats::merged([a.stats(), b.stats()]);
        assert_eq!(merged.faults_dropped, 1);
        assert_eq!(merged.corruptions_detected, 1);
        assert_eq!(merged.dup_discards, 1);
        assert_eq!(merged.retransmits, 1);
        assert_eq!(merged.timeouts, 2);
        assert_eq!(merged.messages, 0, "fault counters are separate totals");
    }
}
