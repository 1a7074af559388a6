//! Traffic statistics of the latency-only network.
//!
//! Topology is ignored (§4.1): every network message and every
//! acknowledgement arrives exactly `TIMING.network_latency` cycles after it
//! leaves, so the machine model computes arrival times itself and there is
//! no fabric object. What remains of the network's state is its counters.

use serde::{Deserialize, Serialize};

use cni_sim::stats::Merge;

use crate::message::NET_MESSAGE_BYTES;

/// Aggregate fabric statistics.
///
/// Counters are purely additive, so a sharded machine accumulates one
/// `FabricStats` per shard and [`Merge::merge`]s them at reporting time;
/// the merged totals are identical to what one machine-wide set would have
/// counted.
///
/// ```
/// use cni_net::FabricStats;
///
/// let mut stats = FabricStats::default();
/// stats.note_send(64);
/// assert_eq!((stats.messages, stats.wire_bytes, stats.payload_bytes), (1, 256, 64));
/// ```
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

impl FabricStats {
    /// Counts one network message injected carrying `payload_bytes` of user
    /// payload (≤ 244); the wire always carries a full 256-byte message.
    pub fn note_send(&mut self, payload_bytes: usize) {
        self.messages += 1;
        self.wire_bytes += NET_MESSAGE_BYTES as u64;
        self.payload_bytes += payload_bytes as u64;
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_account_wire_and_payload_bytes() {
        let mut s = FabricStats::default();
        s.note_send(244);
        s.note_send(12);
        assert_eq!(s.messages, 2);
        assert_eq!(s.wire_bytes, 512);
        assert_eq!(s.payload_bytes, 256);
    }

    #[test]
    fn forked_shard_stats_merge_to_the_shared_totals() {
        let mut shared = FabricStats::default();
        let mut a = FabricStats::default();
        let mut b = FabricStats::default();
        for i in 0..5 {
            shared.note_send(100 + i);
        }
        for i in 0..3 {
            a.note_send(100 + i);
        }
        for i in 3..5 {
            b.note_send(100 + i);
        }
        assert_eq!(FabricStats::merged([a, b]), shared);
    }

    #[test]
    fn fault_counters_merge_like_traffic_counters() {
        let a = FabricStats {
            faults_dropped: 1,
            retransmits: 1,
            timeouts: 1,
            ..FabricStats::default()
        };
        let b = FabricStats {
            corruptions_detected: 1,
            dup_discards: 1,
            timeouts: 1,
            ..FabricStats::default()
        };
        let merged = FabricStats::merged([a, b]);
        assert_eq!(merged.faults_dropped, 1);
        assert_eq!(merged.corruptions_detected, 1);
        assert_eq!(merged.dup_discards, 1);
        assert_eq!(merged.retransmits, 1);
        assert_eq!(merged.timeouts, 2);
        assert_eq!(merged.messages, 0, "fault counters are separate totals");
    }
}
