//! Direct-mapped MOESI cache model.
//!
//! The paper assumes write-allocate caches kept consistent by a MOESI
//! write-invalidate protocol (§2, citing Sweazey & Smith). Both the 256 KB
//! processor cache and the (much smaller) CNI device caches are direct-mapped
//! with 64-byte blocks (§4.1). This module models only coherence *state* —
//! data movement cost is charged by [`crate::system::NodeMemSystem`] using the
//! [`crate::timing`] tables.
//!
//! The model answers three questions:
//!
//! 1. What happens on a processor/device access (hit, miss, upgrade)?
//! 2. What must be evicted to make room (and does the victim need a
//!    writeback)?
//! 3. How does the cache react to a snooped bus transaction (supply data,
//!    downgrade, invalidate)?

use serde::{Deserialize, Serialize};

use crate::addr::{BlockAddr, BlockHome, CACHE_BLOCK_BYTES};

/// MOESI coherence states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MoesiState {
    /// Dirty, exclusive: this cache owns the only copy and it differs from
    /// the home.
    Modified,
    /// Dirty, shared: this cache owns the block (must supply data and write
    /// it back on eviction) but other caches may hold Shared copies.
    Owned,
    /// Clean, exclusive: only copy, identical to the home.
    Exclusive,
    /// Clean (from this cache's point of view), possibly shared.
    Shared,
    /// Not present.
    Invalid,
}

impl MoesiState {
    /// Does this state confer write permission without a bus transaction?
    pub fn can_write_silently(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Exclusive)
    }

    /// Does this state hold valid (readable) data?
    pub fn is_valid(self) -> bool {
        !matches!(self, MoesiState::Invalid)
    }

    /// Must a line in this state be written back to its home when evicted or
    /// invalidated?
    pub fn is_dirty(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Owned)
    }

    /// Is this cache responsible for supplying data to a snooped read?
    pub fn supplies_data(self) -> bool {
        // Under MOESI, M/O/E owners supply data cache-to-cache. A Shared
        // holder could also supply it on some buses, but MBus lets the home
        // respond; we follow the conservative choice.
        matches!(
            self,
            MoesiState::Modified | MoesiState::Owned | MoesiState::Exclusive
        )
    }
}

/// The cache's reaction to a snooped bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopAction {
    /// Previous state of the line (Invalid if the block was not cached).
    pub prev: MoesiState,
    /// Whether this cache supplies the data cache-to-cache.
    pub supplies_data: bool,
    /// Whether this cache had to write the block back to its home (only on
    /// invalidating snoops of dirty lines when the requester does not take
    /// ownership of the dirty data — in this model the requester always does,
    /// so this is informational).
    pub was_dirty: bool,
}

/// The result of an access lookup (before any fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Data present with sufficient permission; no bus transaction needed.
    Hit,
    /// Data present but a write needs an ownership upgrade (invalidate other
    /// copies). The line stays in place.
    UpgradeMiss,
    /// Data absent; a full fetch (and possibly an eviction) is needed.
    Miss,
}

/// A victim that must leave the cache to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block being evicted.
    pub block: BlockAddr,
    /// Its state at eviction time.
    pub state: MoesiState,
    /// Home of the evicted block (where a writeback, if needed, goes).
    pub home: BlockHome,
}

impl Eviction {
    /// Whether the eviction requires a writeback bus transaction.
    pub fn needs_writeback(&self) -> bool {
        self.state.is_dirty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Line {
    block: BlockAddr,
    state: MoesiState,
    home: BlockHome,
}

/// A direct-mapped, write-allocate MOESI cache.
///
/// ```
/// use cni_mem::moesi::{Cache, MoesiState, AccessOutcome};
/// use cni_mem::addr::{BlockAddr, BlockHome};
///
/// let mut cache = Cache::new(256 * 1024);
/// let blk = BlockAddr(7);
/// assert_eq!(cache.lookup(blk), MoesiState::Invalid);
/// assert_eq!(cache.classify_read(blk), AccessOutcome::Miss);
/// cache.fill(blk, MoesiState::Exclusive, BlockHome::Memory);
/// assert_eq!(cache.classify_read(blk), AccessOutcome::Hit);
/// assert_eq!(cache.classify_write(blk), AccessOutcome::Hit);
/// ```
///
/// The cache also records which sets it wrote since it was last
/// synchronised with a checkpoint mirror (one bit per set), so
/// [`Cache::sync_into`] and [`Cache::rewind_from`] move only those sets
/// instead of the whole set vector. Every write to a set goes through
/// `set_mut`, the one place that marks it.
#[derive(Debug, Serialize, Deserialize)]
pub struct Cache {
    sets: Vec<Option<Line>>,
    /// One bit per set written since the last sync.
    touched: Vec<u64>,
    counts: CacheCounts,
}

/// The cache's event counters, copied whole on every sync.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct CacheCounts {
    hits: u64,
    misses: u64,
    upgrade_misses: u64,
    evictions: u64,
    writebacks: u64,
    snoop_invalidations: u64,
    snarf_fills: u64,
}

impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache {
            sets: self.sets.clone(),
            touched: self.touched.clone(),
            counts: self.counts,
        }
    }

    /// Copies into `self`'s existing buffers: a whole-cache checkpoint
    /// re-copies the set vector without reallocating it.
    fn clone_from(&mut self, source: &Self) {
        let Cache {
            sets,
            touched,
            counts,
        } = source;
        self.sets.clone_from(sets);
        self.touched.clone_from(touched);
        self.counts = *counts;
    }
}

/// Copies the sets marked in `touched` from `from` to `to` and clears the
/// marks; returns how many sets it copied.
fn copy_touched_sets(touched: &mut [u64], from: &[Option<Line>], to: &mut [Option<Line>]) -> usize {
    assert_eq!(from.len(), to.len(), "mirror has a different geometry");
    let mut copied = 0;
    for (word, bits) in touched.iter_mut().enumerate() {
        let mut bits = std::mem::take(bits);
        copied += bits.count_ones() as usize;
        while bits != 0 {
            let idx = (word << 6) | bits.trailing_zeros() as usize;
            bits &= bits - 1;
            to[idx] = from[idx];
        }
    }
    copied
}

impl Cache {
    /// Creates a direct-mapped cache of `size_bytes` capacity with 64-byte
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a positive multiple of the block size.
    pub fn new(size_bytes: usize) -> Self {
        assert!(
            size_bytes >= CACHE_BLOCK_BYTES && size_bytes.is_multiple_of(CACHE_BLOCK_BYTES),
            "cache size must be a positive multiple of {CACHE_BLOCK_BYTES} bytes, got {size_bytes}"
        );
        let num_sets = size_bytes / CACHE_BLOCK_BYTES;
        Cache {
            sets: vec![None; num_sets],
            touched: vec![0; num_sets.div_ceil(64)],
            counts: CacheCounts::default(),
        }
    }

    /// Bytes one set occupies in the set vector — the unit a checkpoint
    /// re-sync copies per touched set.
    pub const SET_BYTES: usize = std::mem::size_of::<Option<Line>>();

    /// Bytes of the whole set vector (what a full copy of the cache moves).
    pub fn set_vector_bytes(&self) -> usize {
        self.sets.len() * Self::SET_BYTES
    }

    /// Copies into `mirror` — a cache that equalled this one at the last
    /// sync — the sets written since then, plus the counters, and clears
    /// the marks. Returns the number of sets copied.
    pub fn sync_into(&mut self, mirror: &mut Cache) -> usize {
        mirror.counts = self.counts;
        copy_touched_sets(&mut self.touched, &self.sets, &mut mirror.sets)
    }

    /// Undoes every write since the last sync by copying the written sets,
    /// and the counters, back from `mirror`, and clears the marks.
    pub fn rewind_from(&mut self, mirror: &Cache) {
        self.counts = mirror.counts;
        copy_touched_sets(&mut self.touched, &mirror.sets, &mut self.sets);
    }

    /// Clears the write marks after the cache was cloned whole into its
    /// mirror: the two are equal, so nothing is left to re-sync.
    pub fn mark_synced(&mut self) {
        self.touched.fill(0);
    }

    /// Number of sets (== number of blocks for a direct-mapped cache).
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    fn set_index(&self, block: BlockAddr) -> usize {
        (block.0 % self.sets.len() as u64) as usize
    }

    fn line(&self, block: BlockAddr) -> Option<&Line> {
        let idx = self.set_index(block);
        self.sets[idx].as_ref().filter(|l| l.block == block)
    }

    /// The one way to write a set: marks it for the next sync.
    fn set_mut(&mut self, idx: usize) -> &mut Option<Line> {
        self.touched[idx >> 6] |= 1 << (idx & 63);
        &mut self.sets[idx]
    }

    fn line_mut(&mut self, block: BlockAddr) -> Option<&mut Line> {
        let idx = self.set_index(block);
        self.set_mut(idx).as_mut().filter(|l| l.block == block)
    }

    /// Current state of `block` (Invalid if not present).
    pub fn lookup(&self, block: BlockAddr) -> MoesiState {
        self.line(block)
            .map(|l| l.state)
            .unwrap_or(MoesiState::Invalid)
    }

    /// Classifies a read access without changing state.
    pub fn classify_read(&self, block: BlockAddr) -> AccessOutcome {
        if self.lookup(block).is_valid() {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss
        }
    }

    /// Classifies a write access without changing state.
    pub fn classify_write(&self, block: BlockAddr) -> AccessOutcome {
        match self.lookup(block) {
            MoesiState::Modified | MoesiState::Exclusive => AccessOutcome::Hit,
            MoesiState::Owned | MoesiState::Shared => AccessOutcome::UpgradeMiss,
            MoesiState::Invalid => AccessOutcome::Miss,
        }
    }

    /// Records `hits` demand hits (the system model classifies and charges
    /// them; the cache only counts).
    pub fn note_hits(&mut self, hits: u64) {
        self.counts.hits += hits;
    }

    /// Returns the victim that a fill of `block` would displace, if any.
    pub fn peek_victim(&self, block: BlockAddr) -> Option<Eviction> {
        let idx = self.set_index(block);
        match &self.sets[idx] {
            Some(line) if line.block != block && line.state.is_valid() => Some(Eviction {
                block: line.block,
                state: line.state,
                home: line.home,
            }),
            _ => None,
        }
    }

    /// Installs `block` in `state`, returning the eviction it displaced (if
    /// the victim was valid). Counts a miss.
    pub fn fill(
        &mut self,
        block: BlockAddr,
        state: MoesiState,
        home: BlockHome,
    ) -> Option<Eviction> {
        self.counts.misses += 1;
        let victim = self.peek_victim(block);
        if let Some(ev) = &victim {
            self.counts.evictions += 1;
            if ev.needs_writeback() {
                self.counts.writebacks += 1;
            }
        }
        let idx = self.set_index(block);
        *self.set_mut(idx) = Some(Line { block, state, home });
        victim
    }

    /// Installs a block obtained by snarfing a bus transfer (fills only; does
    /// not count as a demand miss). Returns the eviction, if any.
    ///
    /// Data snarfing (§5.1.2): a cache with a tag match in Invalid state, or
    /// an empty set, may grab data it observes on the bus. Real snarfing
    /// implementations require an address (tag) match; we model the common
    /// case where the receive-queue blocks were previously cached and later
    /// invalidated, so the tag still matches.
    pub fn snarf_fill(&mut self, block: BlockAddr, home: BlockHome) -> bool {
        let idx = self.set_index(block);
        let can_snarf = match &self.sets[idx] {
            None => false, // no tag allocated: nothing to match against
            Some(line) => line.block == block && line.state == MoesiState::Invalid,
        };
        if can_snarf {
            *self.set_mut(idx) = Some(Line {
                block,
                state: MoesiState::Shared,
                home,
            });
            self.counts.snarf_fills += 1;
        }
        can_snarf
    }

    /// Transitions an already-present block to a new state.
    ///
    /// # Panics
    ///
    /// Panics if the block is not present; callers must fill first.
    pub fn set_state(&mut self, block: BlockAddr, state: MoesiState) {
        match self.line_mut(block) {
            Some(line) => line.state = state,
            None => panic!("set_state on absent block {block}"),
        }
    }

    /// Records an upgrade miss (write to a Shared/Owned line) and grants
    /// ownership, transitioning the line to Modified.
    ///
    /// # Panics
    ///
    /// Panics if the block is not present.
    pub fn upgrade_to_modified(&mut self, block: BlockAddr) {
        self.counts.upgrade_misses += 1;
        self.set_state(block, MoesiState::Modified);
    }

    /// Reacts to a snooped coherent read (another agent wants a Shared copy).
    ///
    /// M → O, E → S; O and S are unchanged; Invalid does nothing.
    pub fn snoop_read(&mut self, block: BlockAddr) -> SnoopAction {
        let prev = self.lookup(block);
        let supplies = prev.supplies_data();
        let was_dirty = prev.is_dirty();
        match prev {
            MoesiState::Modified => self.set_state(block, MoesiState::Owned),
            MoesiState::Exclusive => self.set_state(block, MoesiState::Shared),
            _ => {}
        }
        SnoopAction {
            prev,
            supplies_data: supplies,
            was_dirty,
        }
    }

    /// Reacts to a snooped invalidating transaction (read-exclusive or
    /// invalidate): the local copy, if any, is invalidated and dirty data is
    /// handed to the requester.
    pub fn snoop_invalidate(&mut self, block: BlockAddr) -> SnoopAction {
        let prev = self.lookup(block);
        let supplies = prev.supplies_data();
        let was_dirty = prev.is_dirty();
        if prev.is_valid() {
            self.set_state(block, MoesiState::Invalid);
            self.counts.snoop_invalidations += 1;
        }
        SnoopAction {
            prev,
            supplies_data: supplies,
            was_dirty,
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.sets
            .iter()
            .filter(|l| matches!(l, Some(line) if line.state.is_valid()))
            .count()
    }

    /// Demand hits observed so far.
    pub fn hits(&self) -> u64 {
        self.counts.hits
    }

    /// Demand misses observed so far.
    pub fn misses(&self) -> u64 {
        self.counts.misses
    }

    /// Upgrade (ownership) misses observed so far.
    pub fn upgrade_misses(&self) -> u64 {
        self.counts.upgrade_misses
    }

    /// Evictions observed so far.
    pub fn evictions(&self) -> u64 {
        self.counts.evictions
    }

    /// Dirty writebacks observed so far.
    pub fn writebacks(&self) -> u64 {
        self.counts.writebacks
    }

    /// Lines invalidated by snoops so far.
    pub fn snoop_invalidations(&self) -> u64 {
        self.counts.snoop_invalidations
    }

    /// Blocks grabbed off the bus by snarfing so far.
    pub fn snarf_fills(&self) -> u64 {
        self.counts.snarf_fills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_sim::rng::DetRng;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn new_cache_is_empty_and_misses() {
        let cache = Cache::new(1024);
        assert_eq!(cache.num_sets(), 16);
        assert_eq!(cache.lookup(blk(3)), MoesiState::Invalid);
        assert_eq!(cache.classify_read(blk(3)), AccessOutcome::Miss);
        assert_eq!(cache.classify_write(blk(3)), AccessOutcome::Miss);
        assert_eq!(cache.resident_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn cache_size_must_be_block_multiple() {
        let _ = Cache::new(100);
    }

    #[test]
    fn fill_then_hit() {
        let mut cache = Cache::new(1024);
        assert!(cache
            .fill(blk(5), MoesiState::Exclusive, BlockHome::Memory)
            .is_none());
        assert_eq!(cache.classify_read(blk(5)), AccessOutcome::Hit);
        assert_eq!(cache.classify_write(blk(5)), AccessOutcome::Hit);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn shared_write_requires_upgrade() {
        let mut cache = Cache::new(1024);
        cache.fill(blk(5), MoesiState::Shared, BlockHome::Memory);
        assert_eq!(cache.classify_write(blk(5)), AccessOutcome::UpgradeMiss);
        cache.upgrade_to_modified(blk(5));
        assert_eq!(cache.lookup(blk(5)), MoesiState::Modified);
        assert_eq!(cache.upgrade_misses(), 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts_and_writes_back_dirty_victim() {
        let mut cache = Cache::new(1024); // 16 sets
        cache.fill(blk(1), MoesiState::Modified, BlockHome::Memory);
        // Block 17 maps to the same set as block 1 (17 mod 16 == 1).
        let ev = cache
            .fill(blk(17), MoesiState::Exclusive, BlockHome::Memory)
            .unwrap();
        assert_eq!(ev.block, blk(1));
        assert!(ev.needs_writeback());
        assert_eq!(cache.lookup(blk(1)), MoesiState::Invalid);
        assert_eq!(cache.lookup(blk(17)), MoesiState::Exclusive);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.writebacks(), 1);
    }

    #[test]
    fn clean_victim_needs_no_writeback() {
        let mut cache = Cache::new(1024);
        cache.fill(blk(2), MoesiState::Shared, BlockHome::Memory);
        let ev = cache
            .fill(blk(18), MoesiState::Shared, BlockHome::Memory)
            .unwrap();
        assert!(!ev.needs_writeback());
        assert_eq!(cache.writebacks(), 0);
    }

    #[test]
    fn snoop_read_downgrades_owner() {
        let mut cache = Cache::new(1024);
        cache.fill(blk(9), MoesiState::Modified, BlockHome::Memory);
        let action = cache.snoop_read(blk(9));
        assert!(action.supplies_data);
        assert!(action.was_dirty);
        assert_eq!(action.prev, MoesiState::Modified);
        assert_eq!(cache.lookup(blk(9)), MoesiState::Owned);

        cache.fill(blk(10), MoesiState::Exclusive, BlockHome::Memory);
        let action = cache.snoop_read(blk(10));
        assert!(action.supplies_data);
        assert!(!action.was_dirty);
        assert_eq!(cache.lookup(blk(10)), MoesiState::Shared);
    }

    #[test]
    fn snoop_read_of_shared_or_absent_supplies_nothing() {
        let mut cache = Cache::new(1024);
        cache.fill(blk(9), MoesiState::Shared, BlockHome::Memory);
        assert!(!cache.snoop_read(blk(9)).supplies_data);
        assert!(!cache.snoop_read(blk(99)).supplies_data);
        assert_eq!(cache.lookup(blk(9)), MoesiState::Shared);
    }

    #[test]
    fn snoop_invalidate_clears_the_line() {
        let mut cache = Cache::new(1024);
        cache.fill(blk(4), MoesiState::Owned, BlockHome::Device);
        let action = cache.snoop_invalidate(blk(4));
        assert!(action.supplies_data);
        assert!(action.was_dirty);
        assert_eq!(cache.lookup(blk(4)), MoesiState::Invalid);
        assert_eq!(cache.snoop_invalidations(), 1);
        // Invalidating an absent block is a no-op.
        let action = cache.snoop_invalidate(blk(40));
        assert_eq!(action.prev, MoesiState::Invalid);
        assert_eq!(cache.snoop_invalidations(), 1);
    }

    #[test]
    fn snarf_requires_invalid_tag_match() {
        let mut cache = Cache::new(1024);
        // Nothing allocated in the set: cannot snarf.
        assert!(!cache.snarf_fill(blk(6), BlockHome::Memory));
        // Valid line: cannot snarf (already have data).
        cache.fill(blk(6), MoesiState::Shared, BlockHome::Memory);
        assert!(!cache.snarf_fill(blk(6), BlockHome::Memory));
        // Invalidated line with matching tag: snarf succeeds.
        cache.snoop_invalidate(blk(6));
        assert!(cache.snarf_fill(blk(6), BlockHome::Memory));
        assert_eq!(cache.lookup(blk(6)), MoesiState::Shared);
        assert_eq!(cache.snarf_fills(), 1);
        // A different block mapping to the same set does not tag-match.
        cache.snoop_invalidate(blk(6));
        assert!(!cache.snarf_fill(blk(22), BlockHome::Memory));
    }

    /// The cache's state as a checkpoint sees it: everything but the
    /// write marks, which record divergence rather than state.
    fn assert_same_state(got: &Cache, want: &Cache, what: &str) {
        assert_eq!(got.counts, want.counts, "{what}: counters");
        for (set, (g, w)) in got.sets.iter().zip(&want.sets).enumerate() {
            assert_eq!(g, w, "{what}: set {set}");
        }
        assert_eq!(got.sets.len(), want.sets.len(), "{what}: geometry");
    }

    /// One random operation from every kind that writes a set or a counter.
    fn mutate(cache: &mut Cache, rng: &mut DetRng) {
        // Three blocks per set, so fills collide and evict.
        let block = blk(rng.gen_range(3 * cache.num_sets() as u64));
        let state = [
            MoesiState::Modified,
            MoesiState::Owned,
            MoesiState::Exclusive,
            MoesiState::Shared,
            MoesiState::Invalid,
        ][rng.gen_index(5)];
        match rng.gen_index(7) {
            0 | 1 => {
                let home = if rng.gen_bool(0.5) {
                    BlockHome::Memory
                } else {
                    BlockHome::Device
                };
                cache.fill(block, state, home);
            }
            2 => {
                cache.snarf_fill(block, BlockHome::Memory);
            }
            3 => {
                // Tag-matching lines only: set_state panics on the rest.
                if cache.line(block).is_some() {
                    cache.set_state(block, state);
                }
            }
            4 => {
                cache.snoop_read(block);
            }
            5 => {
                cache.snoop_invalidate(block);
            }
            _ => {
                if cache.classify_write(block) == AccessOutcome::UpgradeMiss {
                    cache.upgrade_to_modified(block);
                } else {
                    cache.note_hits(1);
                }
            }
        }
    }

    /// The touched-set contract behind incremental checkpoints: after every
    /// `sync_into` the mirror equals a whole clone of the cache, and a
    /// `rewind_from` after any run of writes returns the cache to exactly
    /// that clone — for random mixes of every set-writing operation, with
    /// whole re-clones (`clone_from` + `mark_synced`) interleaved.
    #[test]
    fn touched_set_sync_and_rewind_match_whole_clones() {
        for case in 0..24 {
            let mut rng = DetRng::new(0x5e7_7ac4 ^ case);
            // 16..=271 sets: one to five bitmap words, some partly used.
            let mut live = Cache::new(CACHE_BLOCK_BYTES * (16 + rng.gen_index(256)));
            let mut mirror = live.clone();
            let mut synced = live.clone();
            for round in 0..60 {
                let what = format!("case {case} round {round}");
                for _ in 0..rng.gen_index(40) {
                    mutate(&mut live, &mut rng);
                }
                match rng.gen_index(5) {
                    0 => {
                        mirror.clone_from(&live);
                        live.mark_synced();
                        synced = live.clone();
                    }
                    1 | 2 => {
                        live.sync_into(&mut mirror);
                        synced = live.clone();
                        assert_same_state(&mirror, &synced, &format!("{what}: sync"));
                    }
                    _ => {
                        live.rewind_from(&mirror);
                        assert_same_state(&live, &synced, &format!("{what}: rewind"));
                    }
                }
                assert!(
                    live.touched.iter().all(|&w| w == 0),
                    "{what}: marks survive a sync"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "absent block")]
    fn set_state_on_absent_block_panics() {
        let mut cache = Cache::new(1024);
        cache.set_state(blk(1), MoesiState::Shared);
    }
}
