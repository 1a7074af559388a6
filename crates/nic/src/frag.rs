//! Fragment references: what actually flows through the NI queues.
//!
//! The simulator does not carry payload bytes through the memory-system
//! model; it carries *references*. A [`FragRef`] identifies one network
//! message's worth of user payload (at most 244 bytes) by an opaque token the
//! messaging layer allocated, plus the byte count needed for timing and
//! bandwidth accounting. The messaging layer keeps a side table mapping
//! tokens back to the real payload (an active-message descriptor, a bulk
//! fragment, ...).

use serde::{Deserialize, Serialize};

use cni_mem::addr::blocks_for_bytes;
use cni_mem::timing::TIMING;
use cni_net::message::NET_HEADER_BYTES;
use cni_sim::time::Cycle;

/// A reference to one network message's worth of payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FragRef {
    /// Opaque token assigned by the messaging layer.
    pub token: u64,
    /// User payload bytes carried (≤ 244).
    pub payload_bytes: usize,
}

impl FragRef {
    /// Creates a fragment reference.
    ///
    /// # Panics
    ///
    /// Panics if `payload_bytes` exceeds the 244-byte network payload limit.
    pub fn new(token: u64, payload_bytes: usize) -> Self {
        assert!(
            payload_bytes <= cni_net::message::NET_PAYLOAD_BYTES,
            "fragment payload {payload_bytes} exceeds the network payload capacity"
        );
        FragRef {
            token,
            payload_bytes,
        }
    }

    /// Bytes this fragment occupies in an NI queue: payload plus the 12-byte
    /// network header the NI stores alongside it.
    pub fn queue_bytes(&self) -> usize {
        self.payload_bytes + NET_HEADER_BYTES
    }

    /// Number of 64-byte cache blocks the fragment's queue entry touches.
    pub fn blocks(&self) -> usize {
        blocks_for_bytes(self.queue_bytes())
    }

    /// Number of 8-byte double words the fragment's queue entry touches
    /// (uncached NIs move data one double word at a time).
    pub fn dwords(&self) -> usize {
        cni_mem::addr::dwords_for_bytes(self.queue_bytes())
    }

    /// Number of 4-byte words written/read when accessing the fragment's
    /// data through the cache (one access per word).
    pub fn words(&self) -> usize {
        cni_mem::addr::words_for_bytes(self.queue_bytes())
    }

    /// Cycles of cache hits to read or write the fragment's words once its
    /// blocks are held: one per word beyond the first of each block. The
    /// per-word copy cost of every cachable queue (the CQs and CNI4's CDRs).
    pub(crate) fn word_hit_cycles(&self) -> Cycle {
        TIMING.cache_hit * self.words().saturating_sub(self.blocks()) as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_word_accounting_includes_the_header() {
        let f = FragRef::new(1, 12); // spsolve/em3d payloads
        assert_eq!(f.queue_bytes(), 24);
        assert_eq!(f.blocks(), 1);
        assert_eq!(f.dwords(), 3);
        assert_eq!(f.words(), 6);

        let full = FragRef::new(2, 244);
        assert_eq!(full.queue_bytes(), 256);
        assert_eq!(full.blocks(), 4);
        assert_eq!(full.dwords(), 32);
        assert_eq!(full.words(), 64);
    }

    #[test]
    fn mid_size_fragments_round_up_to_blocks() {
        let f = FragRef::new(3, 64);
        assert_eq!(f.queue_bytes(), 76);
        assert_eq!(f.blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_fragments_are_rejected() {
        let _ = FragRef::new(0, 245);
    }
}
