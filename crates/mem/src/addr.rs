//! Block addresses and block geometry.
//!
//! The simulator never stores actual payload bytes in the memory system —
//! message payloads travel with the higher-level message records — so an
//! "address" only needs to identify a cache block for coherence and timing
//! purposes. Addresses are allocated from per-purpose regions (send queue,
//! receive queue, user buffers, ...) by the NI and machine models.

use serde::{Deserialize, Serialize};

/// Cache/memory block size in bytes (64-byte address and transfer blocks,
/// §4.1).
pub const CACHE_BLOCK_BYTES: usize = 64;

/// Word size the paper uses when the taxonomy subscript is given in words
/// (`NI2w` exposes two 4-byte words).
pub const WORD_BYTES: usize = 4;

/// The identity of a 64-byte cache block.
///
/// The inner value is a block *number*, not a byte address: block `n` covers
/// byte addresses `n * 64 .. (n + 1) * 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// Block containing byte address `byte`.
    pub fn containing(byte: u64) -> Self {
        BlockAddr(byte / CACHE_BLOCK_BYTES as u64)
    }

    /// The `n`-th block after this one.
    pub fn offset(self, n: u64) -> Self {
        BlockAddr(self.0 + n)
    }
}

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

/// Where requests for a block go when no cache holds it, and where dirty
/// evictions are written back (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockHome {
    /// Main memory on the memory bus: plentiful, allows CQs to overflow
    /// gracefully (the `CNI16Qm` design).
    Memory,
    /// The NI device itself: device registers, CDRs and device-homed CQs
    /// (`CNI4`, `CNI16Q`, `CNI512Q`).
    Device,
}

/// Number of cache blocks needed to hold `bytes` bytes.
///
/// ```
/// use cni_mem::addr::blocks_for_bytes;
/// assert_eq!(blocks_for_bytes(1), 1);
/// assert_eq!(blocks_for_bytes(64), 1);
/// assert_eq!(blocks_for_bytes(65), 2);
/// assert_eq!(blocks_for_bytes(256), 4);
/// ```
pub fn blocks_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(CACHE_BLOCK_BYTES).max(1)
}

/// Number of 4-byte words needed to hold `bytes` bytes.
pub fn words_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(WORD_BYTES).max(1)
}

/// Number of 8-byte double-words needed to hold `bytes` bytes. Uncached NI
/// accesses in the cost model move 8 bytes at a time (Table 2).
pub fn dwords_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(8).max(1)
}

/// A simple bump allocator handing out disjoint block regions.
///
/// The machine model uses one of these per node to lay out send/receive
/// queues, user buffers and workload data so that distinct structures never
/// alias (and therefore never create artificial cache conflicts unless the
/// direct-mapped cache genuinely maps them to the same set).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegionAllocator {
    next: u64,
}

impl RegionAllocator {
    /// New allocator starting at block zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `blocks` contiguous blocks and returns the first.
    pub fn alloc_blocks(&mut self, blocks: u64) -> BlockAddr {
        let start = self.next;
        self.next += blocks.max(1);
        BlockAddr(start)
    }

    /// Allocates enough contiguous blocks to hold `bytes` bytes.
    pub fn alloc_bytes(&mut self, bytes: usize) -> BlockAddr {
        self.alloc_blocks(blocks_for_bytes(bytes) as u64)
    }

    /// Number of blocks handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_geometry() {
        assert_eq!(BlockAddr::containing(0), BlockAddr(0));
        assert_eq!(BlockAddr::containing(63), BlockAddr(0));
        assert_eq!(BlockAddr::containing(64), BlockAddr(1));
        assert_eq!(BlockAddr(3).offset(2), BlockAddr(5));
    }

    #[test]
    fn size_helpers() {
        assert_eq!(blocks_for_bytes(0), 1);
        assert_eq!(blocks_for_bytes(256), 4);
        assert_eq!(words_for_bytes(12), 3);
        assert_eq!(dwords_for_bytes(12), 2);
        assert_eq!(dwords_for_bytes(64), 8);
    }

    #[test]
    fn allocator_hands_out_disjoint_regions() {
        let mut a = RegionAllocator::new();
        let q1 = a.alloc_bytes(256); // 4 blocks
        let q2 = a.alloc_bytes(64);
        let q3 = a.alloc_blocks(512);
        assert_eq!(q1, BlockAddr(0));
        assert_eq!(q2, BlockAddr(4));
        assert_eq!(q3, BlockAddr(5));
        assert_eq!(a.allocated(), 517);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(BlockAddr(7).to_string(), "blk#7");
    }
}
