//! Fragments: what actually flows through the NI queues.
//!
//! An NI queue entry holds the fragment itself — one network message's worth
//! of user payload (at most 244 bytes), moved into the queue on a send or a
//! delivery and moved out again on injection or receive. A refused send or
//! delivery hands the fragment back. The NI keeps no side table.
//!
//! The simulator does not carry payload bytes through the memory-system
//! model, so the device models read only the fragment's byte count, which
//! every [`Payload`] reports; the provided methods turn it into the blocks,
//! double words and words an access touches.

use cni_mem::addr::{blocks_for_bytes, dwords_for_bytes, words_for_bytes};
use cni_mem::timing::TIMING;
use cni_net::message::{NET_HEADER_BYTES, NET_PAYLOAD_BYTES};
use cni_sim::time::Cycle;

/// One network message's worth of payload, as an NI queue entry holds it.
pub trait Payload: Clone + Send + 'static {
    /// User payload bytes carried (≤ 244).
    fn payload_bytes(&self) -> usize;

    /// Bytes this fragment occupies in an NI queue: payload plus the 12-byte
    /// network header the NI stores alongside it.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the 244-byte network payload limit.
    fn queue_bytes(&self) -> usize {
        let payload_bytes = self.payload_bytes();
        assert!(
            payload_bytes <= NET_PAYLOAD_BYTES,
            "fragment payload {payload_bytes} exceeds the network payload capacity"
        );
        payload_bytes + NET_HEADER_BYTES
    }

    /// Number of 64-byte cache blocks the fragment's queue entry touches.
    fn blocks(&self) -> usize {
        blocks_for_bytes(self.queue_bytes())
    }

    /// Number of 8-byte double words the fragment's queue entry touches
    /// (uncached NIs move data one double word at a time).
    fn dwords(&self) -> usize {
        dwords_for_bytes(self.queue_bytes())
    }

    /// Number of 4-byte words written/read when accessing the fragment's
    /// data through the cache (one access per word).
    fn words(&self) -> usize {
        words_for_bytes(self.queue_bytes())
    }
}

/// Cycles of cache hits to read or write a fragment's words once its blocks
/// are held: one per word beyond the first of each block. The per-word copy
/// cost of every cachable queue (the CQs and CNI4's CDRs).
pub(crate) fn word_hit_cycles(frag: &impl Payload) -> Cycle {
    TIMING.cache_hit * frag.words().saturating_sub(frag.blocks()) as Cycle
}

/// A test fragment: an identity and a payload size.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frag(pub u64, pub usize);

#[cfg(test)]
impl Payload for Frag {
    fn payload_bytes(&self) -> usize {
        self.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_word_accounting_includes_the_header() {
        let f = Frag(1, 12); // spsolve/em3d payloads
        assert_eq!(f.queue_bytes(), 24);
        assert_eq!(f.blocks(), 1);
        assert_eq!(f.dwords(), 3);
        assert_eq!(f.words(), 6);

        let full = Frag(2, 244);
        assert_eq!(full.queue_bytes(), 256);
        assert_eq!(full.blocks(), 4);
        assert_eq!(full.dwords(), 32);
        assert_eq!(full.words(), 64);
    }

    #[test]
    fn mid_size_fragments_round_up_to_blocks() {
        let f = Frag(3, 64);
        assert_eq!(f.queue_bytes(), 76);
        assert_eq!(f.blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_fragments_are_rejected() {
        let _ = Frag(0, 245).queue_bytes();
    }
}
