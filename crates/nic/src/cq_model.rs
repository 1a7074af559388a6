//! Simulation models of cachable queues (§2.2).
//!
//! A cachable queue (CQ) is a contiguous region of coherent cache blocks
//! managed as a circular queue of fixed-size entries (one 256-byte network
//! message = four 64-byte blocks per entry). The sender writes message blocks
//! and advances the tail; the receiver polls the head entry's valid bit,
//! reads the blocks and advances the head. Three optimisations minimise bus
//! traffic:
//!
//! * **Lazy (shadow) pointers** — the producer keeps a possibly stale copy of
//!   the consumer's head pointer and only re-reads the real pointer when the
//!   shadow says the queue is full.
//! * **Message valid bits** — the consumer detects arrivals by examining the
//!   head entry itself instead of reading the producer's tail pointer, so an
//!   empty-queue poll hits in the cache.
//! * **Sense reverse** — the encoding of "valid" alternates on each pass
//!   around the queue, so the consumer never has to write the entry to clear
//!   the valid bit.
//!
//! Two directional models are provided: [`ProcToDeviceCq`] (the send queue:
//! processor produces, CNI consumes) and [`DeviceToProcCq`] (the receive
//! queue: CNI produces, processor consumes). Each optimisation can be
//! disabled individually through [`CqOptimizations`] for the ablation
//! benchmarks.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use cni_mem::addr::{BlockAddr, BlockHome, RegionAllocator};
use cni_mem::system::NodeMemSystem;
use cni_mem::timing::TIMING;
use cni_sim::time::Cycle;

use crate::device::{DeliverOutcome, PollOutcome, SendOutcome};
use crate::frag::{word_hit_cycles, Payload};

/// Number of 64-byte blocks per CQ entry (one 256-byte network message).
pub const ENTRY_BLOCKS: usize = 4;

/// Which CQ optimisations are enabled (§2.2). All three default to on, which
/// is the configuration the paper evaluates; the ablation benches turn them
/// off one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CqOptimizations {
    /// Producer keeps a shadow copy of the consumer's head pointer.
    pub lazy_pointers: bool,
    /// Consumer polls the head entry's valid bit instead of the tail pointer.
    pub valid_bits: bool,
    /// Valid-bit encoding alternates per pass, avoiding an explicit clear.
    pub sense_reverse: bool,
}

impl Default for CqOptimizations {
    fn default() -> Self {
        CqOptimizations {
            lazy_pointers: true,
            valid_bits: true,
            sense_reverse: true,
        }
    }
}

impl CqOptimizations {
    /// The plain, unoptimised queue (every check reads the other side's
    /// pointer, and the consumer clears valid bits).
    pub fn none() -> Self {
        CqOptimizations {
            lazy_pointers: false,
            valid_bits: false,
            sense_reverse: false,
        }
    }
}

/// Static layout and behaviour of one CQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CqConfig {
    /// First block of the queue's data region.
    pub base: BlockAddr,
    /// Block holding the consumer-maintained head pointer (and the consumer's
    /// sense bit).
    pub head_ptr_block: BlockAddr,
    /// Block holding the producer-maintained tail pointer (and the producer's
    /// sense bit and shadow head).
    pub tail_ptr_block: BlockAddr,
    /// Queue capacity in entries (each entry is [`ENTRY_BLOCKS`] blocks).
    pub capacity_entries: usize,
    /// Home of the queue's blocks.
    pub home: BlockHome,
    /// Enabled optimisations.
    pub opts: CqOptimizations,
}

impl CqConfig {
    /// Lays out a queue of `capacity_blocks` data blocks (rounded down to a
    /// whole number of entries, minimum one entry) plus its two pointer
    /// blocks from `alloc`.
    pub fn allocate(
        alloc: &mut RegionAllocator,
        capacity_blocks: usize,
        home: BlockHome,
        opts: CqOptimizations,
    ) -> Self {
        let capacity_entries = (capacity_blocks / ENTRY_BLOCKS).max(1);
        let base = alloc.alloc_blocks((capacity_entries * ENTRY_BLOCKS) as u64);
        let head_ptr_block = alloc.alloc_blocks(1);
        let tail_ptr_block = alloc.alloc_blocks(1);
        CqConfig {
            base,
            head_ptr_block,
            tail_ptr_block,
            capacity_entries,
            home,
            opts,
        }
    }

    /// First block of entry slot `slot`.
    pub fn entry_block(&self, slot: usize) -> BlockAddr {
        self.base.offset((slot * ENTRY_BLOCKS) as u64)
    }
}

/// Statistics one queue collects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CqStats {
    /// Entries enqueued.
    pub enqueues: u64,
    /// Entries dequeued.
    pub dequeues: u64,
    /// Enqueue attempts that found the queue full.
    pub full_stalls: u64,
    /// Times the producer had to refresh its shadow head pointer.
    pub shadow_refreshes: u64,
    /// Polls that found the queue empty.
    pub empty_polls: u64,
    /// Polls that found a message.
    pub successful_polls: u64,
}

/// Shared pointer state for one queue, and the fragments it holds.
#[derive(Debug, Clone)]
struct CqState<P> {
    /// Total entries ever enqueued (producer pointer).
    tail: u64,
    /// Total entries ever dequeued (consumer pointer).
    head: u64,
    /// Producer's stale copy of `head`.
    shadow_head: u64,
    /// Producer sense bit (flips each pass).
    producer_sense: bool,
    /// Consumer sense bit (flips each pass).
    consumer_sense: bool,
    /// Fragments resident in the queue.
    entries: VecDeque<P>,
    stats: CqStats,
}

impl<P> CqState<P> {
    fn new() -> Self {
        CqState {
            tail: 0,
            head: 0,
            shadow_head: 0,
            producer_sense: true,
            consumer_sense: true,
            entries: VecDeque::new(),
            stats: CqStats::default(),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn slot_of(&self, index: u64, capacity: usize) -> usize {
        (index % capacity as u64) as usize
    }

    fn advance_producer(&mut self, capacity: usize) {
        self.tail += 1;
        if self.tail.is_multiple_of(capacity as u64) {
            self.producer_sense = !self.producer_sense;
        }
    }

    fn advance_consumer(&mut self, capacity: usize) {
        self.head += 1;
        if self.head.is_multiple_of(capacity as u64) {
            self.consumer_sense = !self.consumer_sense;
        }
    }
}

// ---------------------------------------------------------------------------
// Send queue: processor produces, device consumes
// ---------------------------------------------------------------------------

/// The send-side cachable queue (processor → CNI device).
#[derive(Debug, Clone)]
pub struct ProcToDeviceCq<P> {
    cfg: CqConfig,
    state: CqState<P>,
    /// Count of message-ready signals the device has received but not yet
    /// consumed (§3: the CNIiQ send is optimised with an uncached
    /// message-ready store; the device keeps a pending-message counter).
    pending_signals: u64,
}

impl<P: Payload> ProcToDeviceCq<P> {
    /// Creates a send queue with the given layout.
    pub fn new(cfg: CqConfig) -> Self {
        ProcToDeviceCq {
            cfg,
            state: CqState::new(),
            pending_signals: 0,
        }
    }

    /// The queue's layout.
    pub fn config(&self) -> &CqConfig {
        &self.cfg
    }

    /// Statistics.
    pub fn stats(&self) -> CqStats {
        self.state.stats
    }

    /// Entries currently waiting for the device.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.state.len() == 0
    }

    /// Whether the queue actually has room for another entry right now
    /// (simulator introspection — the timed protocol checks the producer's
    /// possibly stale shadow head, refreshing it lazily before giving up).
    pub fn has_room(&self) -> bool {
        self.state.entries.len() < self.cfg.capacity_entries
    }

    /// Producer sense bit (exposed for tests of the sense-reverse protocol).
    pub fn producer_sense(&self) -> bool {
        self.state.producer_sense
    }

    /// Processor-side enqueue of one fragment; a full queue hands it back.
    pub fn proc_enqueue(&mut self, now: Cycle, mem: &mut NodeMemSystem, frag: P) -> SendOutcome<P> {
        let cap = self.cfg.capacity_entries as u64;
        let mut t = now;

        // 1. Space check. With lazy pointers the producer consults its shadow
        //    head (a cache hit in its own pointer block) and only reads the
        //    consumer's head pointer when the shadow indicates full. Without
        //    lazy pointers it reads the head pointer every time.
        t = mem.proc_cached_read(t, self.cfg.tail_ptr_block, self.cfg.home);
        let must_read_head = if self.cfg.opts.lazy_pointers {
            self.state.tail - self.state.shadow_head >= cap
        } else {
            true
        };
        if must_read_head {
            t = mem.proc_cached_read(t, self.cfg.head_ptr_block, self.cfg.home);
            self.state.shadow_head = self.state.head;
            self.state.stats.shadow_refreshes += 1;
        }
        if self.state.tail - self.state.shadow_head >= cap {
            self.state.stats.full_stalls += 1;
            return SendOutcome::Full { done: t, frag };
        }

        // 2. Write the message blocks. In steady state the device holds the
        //    blocks Shared (it read them last pass), so each block write is
        //    an ownership upgrade (one invalidation); the remaining words of
        //    each block hit in the cache.
        let slot = self
            .state
            .slot_of(self.state.tail, self.cfg.capacity_entries);
        let first_block = self.cfg.entry_block(slot);
        for b in 0..frag.blocks() {
            t = mem.proc_cached_write(t, first_block.offset(b as u64), self.cfg.home);
        }
        t += word_hit_cycles(&frag);

        // 3. Write the valid bit / sense word (part of the first block —
        //    already owned, so a hit). Without sense reverse the producer
        //    also has to have cleared it... the clearing cost is charged to
        //    the *consumer* side (see `DeviceToProcCq::proc_dequeue`), which
        //    is where the paper places it.
        t += TIMING.cache_hit;

        // 4. Advance the tail pointer (private to the producer: a hit after
        //    the first access).
        t = mem.proc_cached_write(t, self.cfg.tail_ptr_block, self.cfg.home);

        // 5. Message-ready signal: a single uncached store is cheaper than a
        //    coherent block transfer for one word of control information
        //    (§2.1, §3).
        t = mem.proc_uncached_store(t);
        self.pending_signals += 1;

        self.state.entries.push_back(frag);
        self.state.advance_producer(self.cfg.capacity_entries);
        self.state.stats.enqueues += 1;
        SendOutcome::Accepted { done: t }
    }

    /// Device-side dequeue: the device pulls the message blocks out of the
    /// processor cache (or its own backing store) and hands the fragment to
    /// the injection path.
    pub fn device_dequeue(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> Option<(Cycle, P)> {
        if self.pending_signals == 0 {
            return None;
        }
        let frag = self.state.entries.pop_front()?;
        let slot = self
            .state
            .slot_of(self.state.head, self.cfg.capacity_entries);
        let first_block = self.cfg.entry_block(slot);
        let mut t = now;
        for b in 0..frag.blocks() {
            t = mem.device_read_block(t, first_block.offset(b as u64), self.cfg.home);
        }
        // Advance the device's head pointer. The pointer lives in the
        // consumer's (device's) state; bus traffic only occurs when the
        // processor still holds a copy from a shadow-head refresh.
        t = mem.device_write_block(t, self.cfg.head_ptr_block, self.cfg.home);

        self.pending_signals -= 1;
        self.state.advance_consumer(self.cfg.capacity_entries);
        self.state.stats.dequeues += 1;
        Some((t, frag))
    }
}

// ---------------------------------------------------------------------------
// Receive queue: device produces, processor consumes
// ---------------------------------------------------------------------------

/// The receive-side cachable queue (CNI device → processor).
#[derive(Debug, Clone)]
pub struct DeviceToProcCq<P> {
    cfg: CqConfig,
    state: CqState<P>,
    /// The device's stale copy of the processor's head pointer.
    device_shadow_head: u64,
}

impl<P: Payload> DeviceToProcCq<P> {
    /// Creates a receive queue with the given layout.
    pub fn new(cfg: CqConfig) -> Self {
        DeviceToProcCq {
            cfg,
            state: CqState::new(),
            device_shadow_head: 0,
        }
    }

    /// The queue's layout.
    pub fn config(&self) -> &CqConfig {
        &self.cfg
    }

    /// Statistics.
    pub fn stats(&self) -> CqStats {
        self.state.stats
    }

    /// Entries currently waiting for the processor.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.state.len() == 0
    }

    /// Consumer sense bit (exposed for tests of the sense-reverse protocol).
    pub fn consumer_sense(&self) -> bool {
        self.state.consumer_sense
    }

    /// Device-side enqueue of an arriving network message; a full queue
    /// hands it back.
    pub fn device_enqueue(
        &mut self,
        now: Cycle,
        mem: &mut NodeMemSystem,
        frag: P,
    ) -> DeliverOutcome<P> {
        let cap = self.cfg.capacity_entries as u64;
        let mut t = now;

        // Space check with the device's shadow of the processor's head.
        let must_read_head = if self.cfg.opts.lazy_pointers {
            self.state.tail - self.device_shadow_head >= cap
        } else {
            true
        };
        if must_read_head {
            t = mem.device_read_block(t, self.cfg.head_ptr_block, self.cfg.home);
            self.device_shadow_head = self.state.head;
            self.state.stats.shadow_refreshes += 1;
        }
        if self.state.tail - self.device_shadow_head >= cap {
            self.state.stats.full_stalls += 1;
            return DeliverOutcome::Refused(frag);
        }

        // Write the message blocks into the queue. Each write invalidates the
        // processor's copy from the previous pass (one invalidation per
        // block); for memory-homed queues the device cache may overflow,
        // producing writebacks (the CNI16Qm behaviour).
        let slot = self
            .state
            .slot_of(self.state.tail, self.cfg.capacity_entries);
        let first_block = self.cfg.entry_block(slot);
        for b in 0..frag.blocks() {
            t = mem.device_write_block(t, first_block.offset(b as u64), self.cfg.home);
        }

        self.state.entries.push_back(frag);
        self.state.advance_producer(self.cfg.capacity_entries);
        self.state.stats.enqueues += 1;
        DeliverOutcome::Accepted { done: t }
    }

    /// Processor-side poll: examine the head entry's valid bit.
    pub fn proc_poll(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> PollOutcome {
        let mut t = now;
        if self.cfg.opts.valid_bits {
            // Read the head entry's first block. If nothing new arrived the
            // processor still holds the block from the previous pass and the
            // poll hits in its cache; if the device wrote it, the read misses
            // and fetches the data (which the subsequent receive then finds
            // in the cache).
            let slot = self
                .state
                .slot_of(self.state.head, self.cfg.capacity_entries);
            t = mem.proc_cached_read(t, self.cfg.entry_block(slot), self.cfg.home);
        } else {
            // Without valid bits the consumer must read the producer's tail
            // pointer, which the device updates on every enqueue: a miss per
            // arrival and often a miss even when empty.
            t = mem.proc_cached_read(t, self.cfg.tail_ptr_block, self.cfg.home);
        }
        // Compare the sense/valid word: a register-to-register compare.
        t += TIMING.cache_hit;
        let available = !self.state.entries.is_empty();
        if available {
            self.state.stats.successful_polls += 1;
        } else {
            self.state.stats.empty_polls += 1;
        }
        PollOutcome { done: t, available }
    }

    /// Processor-side dequeue of the head entry.
    pub fn proc_dequeue(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> Option<(Cycle, P)> {
        let frag = self.state.entries.pop_front()?;
        let slot = self
            .state
            .slot_of(self.state.head, self.cfg.capacity_entries);
        let first_block = self.cfg.entry_block(slot);
        let mut t = now;
        // Read every block of the message (the first one usually hits thanks
        // to the poll that just fetched it), plus the per-word copy cost.
        for b in 0..frag.blocks() {
            t = mem.proc_cached_read(t, first_block.offset(b as u64), self.cfg.home);
        }
        t += word_hit_cycles(&frag);

        if !self.cfg.opts.sense_reverse {
            // Without sense reverse the consumer must clear the valid bit,
            // which requires ownership of the entry's first block: an
            // upgrade (invalidation) per entry.
            t = mem.proc_cached_write(t, first_block, self.cfg.home);
        }

        // Advance the head pointer (usually a hit; occasionally upgraded
        // after the device refreshed its shadow copy).
        t = mem.proc_cached_write(t, self.cfg.head_ptr_block, self.cfg.home);

        self.state.advance_consumer(self.cfg.capacity_entries);
        self.state.stats.dequeues += 1;
        Some((t, frag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::Frag;
    use cni_mem::system::{DeviceLocation, NodeMemConfig};

    fn mem_system(device_cache_blocks: usize) -> NodeMemSystem {
        NodeMemSystem::new(NodeMemConfig {
            device_cache_blocks: Some(device_cache_blocks),
            device_location: DeviceLocation::MemoryBus,
            ..NodeMemConfig::default()
        })
    }

    fn send_queue(capacity_blocks: usize, home: BlockHome) -> ProcToDeviceCq<Frag> {
        let mut alloc = RegionAllocator::new();
        ProcToDeviceCq::new(CqConfig::allocate(
            &mut alloc,
            capacity_blocks,
            home,
            CqOptimizations::default(),
        ))
    }

    fn recv_queue(capacity_blocks: usize, home: BlockHome) -> DeviceToProcCq<Frag> {
        let mut alloc = RegionAllocator::new();
        DeviceToProcCq::new(CqConfig::allocate(
            &mut alloc,
            capacity_blocks,
            home,
            CqOptimizations::default(),
        ))
    }

    #[test]
    fn config_layout_is_disjoint() {
        let mut alloc = RegionAllocator::new();
        let cfg = CqConfig::allocate(
            &mut alloc,
            16,
            BlockHome::Device,
            CqOptimizations::default(),
        );
        assert_eq!(cfg.capacity_entries, 4);
        assert_eq!(cfg.entry_block(0), cfg.base);
        assert_eq!(cfg.entry_block(1), cfg.base.offset(4));
        assert!(cfg.head_ptr_block.0 >= cfg.base.0 + 16);
        assert_ne!(cfg.head_ptr_block, cfg.tail_ptr_block);
    }

    #[test]
    fn send_enqueue_then_device_dequeue_round_trip() {
        let mut mem = mem_system(16);
        let mut q = send_queue(16, BlockHome::Device);
        let frag = Frag(1, 244);
        let out = q.proc_enqueue(0, &mut mem, frag);
        assert!(out.is_accepted());
        assert_eq!(q.len(), 1);
        let (done, got) = q.device_dequeue(out.done(), &mut mem).unwrap();
        assert_eq!(got, frag);
        assert!(done > out.done());
        assert!(q.is_empty());
        assert_eq!(q.stats().enqueues, 1);
        assert_eq!(q.stats().dequeues, 1);
    }

    #[test]
    fn device_dequeue_without_signal_returns_none() {
        let mut mem = mem_system(16);
        let mut q = send_queue(16, BlockHome::Device);
        assert!(q.device_dequeue(0, &mut mem).is_none());
    }

    #[test]
    fn send_queue_fills_and_reports_full() {
        let mut mem = mem_system(16);
        let mut q = send_queue(16, BlockHome::Device); // 4 entries
        let mut now = 0;
        for i in 0..4 {
            let out = q.proc_enqueue(now, &mut mem, Frag(i, 100));
            assert!(out.is_accepted(), "entry {i} should fit");
            now = out.done();
        }
        let out = q.proc_enqueue(now, &mut mem, Frag(99, 100));
        assert!(!out.is_accepted());
        assert_eq!(q.stats().full_stalls, 1);
        // Draining one entry frees a slot.
        let (t, _) = q.device_dequeue(out.done(), &mut mem).unwrap();
        let out = q.proc_enqueue(t, &mut mem, Frag(99, 100));
        assert!(out.is_accepted());
    }

    #[test]
    fn lazy_pointers_bound_shadow_refreshes() {
        // Producer and consumer proceed in lock step with the queue at most
        // one entry deep: the shadow head should be refreshed only when the
        // producer wraps into apparent fullness, i.e. far less than once per
        // message.
        let mut mem = mem_system(64);
        let mut q = send_queue(64, BlockHome::Device); // 16 entries
        let mut now = 0;
        for i in 0..64 {
            let out = q.proc_enqueue(now, &mut mem, Frag(i, 244));
            assert!(out.is_accepted());
            now = out.done();
            let (t, _) = q.device_dequeue(now, &mut mem).unwrap();
            now = t;
        }
        assert!(
            q.stats().shadow_refreshes <= 8,
            "expected few shadow refreshes, got {}",
            q.stats().shadow_refreshes
        );
    }

    #[test]
    fn without_lazy_pointers_every_enqueue_reads_the_head() {
        let mut alloc = RegionAllocator::new();
        let opts = CqOptimizations {
            lazy_pointers: false,
            ..CqOptimizations::default()
        };
        let cfg = CqConfig::allocate(&mut alloc, 64, BlockHome::Device, opts);
        let mut q = ProcToDeviceCq::<Frag>::new(cfg);
        let mut mem = mem_system(64);
        let mut now = 0;
        for i in 0..10 {
            let out = q.proc_enqueue(now, &mut mem, Frag(i, 244));
            now = out.done();
            let (t, _) = q.device_dequeue(now, &mut mem).unwrap();
            now = t;
        }
        assert_eq!(q.stats().shadow_refreshes, 10);
    }

    #[test]
    fn steady_state_sender_block_cost_is_an_upgrade_not_a_fetch() {
        // After one full pass, writing a block the device holds Shared should
        // cost an invalidation (12 cycles) rather than a 42-cycle data fetch.
        let mut mem = mem_system(16);
        let mut q = send_queue(16, BlockHome::Device);
        let frag = Frag(0, 244);
        let mut now = 0;
        // Warm up: several complete passes.
        for i in 0..8 {
            let out = q.proc_enqueue(now, &mut mem, Frag(i, 244));
            now = out.done();
            let (t, _) = q.device_dequeue(now, &mut mem).unwrap();
            now = t;
        }
        let upgrades_before = mem.proc_cache().upgrade_misses();
        let out = q.proc_enqueue(now, &mut mem, frag);
        let upgrades_after = mem.proc_cache().upgrade_misses();
        assert!(out.is_accepted());
        assert_eq!(
            upgrades_after - upgrades_before,
            frag.blocks() as u64,
            "each block should be acquired with an ownership upgrade"
        );
    }

    #[test]
    fn recv_poll_hits_when_empty_and_misses_on_arrival() {
        let mut mem = mem_system(16);
        let mut q = recv_queue(16, BlockHome::Device);
        // Cold poll: the first access to the head block is a miss.
        let p0 = q.proc_poll(0, &mut mem);
        assert!(!p0.available);
        // Subsequent empty polls hit in the cache: 2 cycles (read hit +
        // compare).
        let p1 = q.proc_poll(p0.done, &mut mem);
        assert!(!p1.available);
        assert_eq!(p1.done - p0.done, 2);
        assert_eq!(q.stats().empty_polls, 2);

        // A message arrives: the device invalidates the head block, so the
        // next poll misses and sees the message.
        let out = q.device_enqueue(p1.done, &mut mem, Frag(7, 12));
        assert!(out.is_accepted());
        let p2 = q.proc_poll(1000, &mut mem);
        assert!(p2.available);
        assert!(p2.done - 1000 > 2, "arrival poll should miss");
    }

    #[test]
    fn recv_dequeue_returns_fragments_in_order() {
        let mut mem = mem_system(64);
        let mut q = recv_queue(64, BlockHome::Device);
        let mut now = 0;
        for i in 0..5 {
            match q.device_enqueue(now, &mut mem, Frag(i, 200)) {
                DeliverOutcome::Accepted { done } => now = done,
                refused => panic!("queue should not be full: {refused:?}"),
            }
        }
        for i in 0..5 {
            let (t, frag) = q.proc_dequeue(now, &mut mem).unwrap();
            assert_eq!(frag, Frag(i, 200));
            now = t;
        }
        assert!(q.proc_dequeue(now, &mut mem).is_none());
    }

    #[test]
    fn recv_queue_refuses_when_full() {
        let mut mem = mem_system(16);
        let mut q = recv_queue(16, BlockHome::Device); // 4 entries
        let mut now = 0;
        for i in 0..4 {
            match q.device_enqueue(now, &mut mem, Frag(i, 244)) {
                DeliverOutcome::Accepted { done } => now = done,
                refused => panic!("should fit: {refused:?}"),
            }
        }
        assert!(!q.device_enqueue(now, &mut mem, Frag(9, 244)).is_accepted());
        assert_eq!(q.stats().full_stalls, 1);
    }

    #[test]
    fn memory_homed_queue_overflows_to_memory_with_writebacks() {
        // A 512-block (128-entry) memory-homed receive queue behind a
        // 16-block device cache: streaming in more messages than the device
        // cache can hold must generate writebacks to memory.
        let mut alloc = RegionAllocator::new();
        let cfg = CqConfig::allocate(
            &mut alloc,
            512,
            BlockHome::Memory,
            CqOptimizations::default(),
        );
        let mut q = DeviceToProcCq::<Frag>::new(cfg);
        let mut mem = mem_system(16);
        let mut now = 0;
        for i in 0..32 {
            match q.device_enqueue(now, &mut mem, Frag(i, 244)) {
                DeliverOutcome::Accepted { done } => now = done,
                refused => panic!("512-block queue should absorb 32 messages: {refused:?}"),
            }
        }
        assert!(
            mem.device_cache().unwrap().writebacks() > 0,
            "device cache overflow should write back to main memory"
        );
        // And the processor can still drain every message (from memory or the
        // device cache).
        for i in 0..32 {
            let (t, frag) = q.proc_dequeue(now, &mut mem).unwrap();
            assert_eq!(frag, Frag(i, 244));
            now = t;
        }
    }

    #[test]
    fn sense_reverse_avoids_consumer_writes_to_entries() {
        // With sense reverse the consumer never writes message blocks, so the
        // only upgrade misses come from the head-pointer block.
        let mut mem = mem_system(64);
        let mut q = recv_queue(64, BlockHome::Device);
        let mut now = 0;
        for i in 0..16 {
            if let DeliverOutcome::Accepted { done } = q.device_enqueue(now, &mut mem, Frag(i, 244))
            {
                now = done;
            }
            let (t, _) = q.proc_dequeue(now, &mut mem).unwrap();
            now = t;
        }
        let with_sense = mem.proc_cache().upgrade_misses() + mem.proc_cache().misses();

        // Same workload without sense reverse: the consumer's clear of the
        // valid bit adds roughly one coherence action per entry.
        let mut alloc = RegionAllocator::new();
        let opts = CqOptimizations {
            sense_reverse: false,
            ..CqOptimizations::default()
        };
        let cfg = CqConfig::allocate(&mut alloc, 64, BlockHome::Device, opts);
        let mut q2 = DeviceToProcCq::<Frag>::new(cfg);
        let mut mem2 = mem_system(64);
        let mut now = 0;
        for i in 0..16 {
            if let DeliverOutcome::Accepted { done } =
                q2.device_enqueue(now, &mut mem2, Frag(i, 244))
            {
                now = done;
            }
            let (t, _) = q2.proc_dequeue(now, &mut mem2).unwrap();
            now = t;
        }
        let without_sense = mem2.proc_cache().upgrade_misses() + mem2.proc_cache().misses();
        assert!(
            without_sense > with_sense,
            "sense reverse should reduce coherence actions ({with_sense} vs {without_sense})"
        );
    }

    #[test]
    fn sense_bits_flip_once_per_pass() {
        let mut mem = mem_system(16);
        let mut q = send_queue(16, BlockHome::Device); // 4 entries per pass
        let mut now = 0;
        assert!(q.producer_sense());
        for i in 0..4 {
            let out = q.proc_enqueue(now, &mut mem, Frag(i, 12));
            now = out.done();
            let (t, _) = q.device_dequeue(now, &mut mem).unwrap();
            now = t;
        }
        assert!(!q.producer_sense(), "sense must flip after one full pass");

        let mut r = recv_queue(16, BlockHome::Device);
        assert!(r.consumer_sense());
        let mut now = 0;
        for i in 0..4 {
            if let DeliverOutcome::Accepted { done } = r.device_enqueue(now, &mut mem, Frag(i, 12))
            {
                now = done;
            }
            let (t, _) = r.proc_dequeue(now, &mut mem).unwrap();
            now = t;
        }
        assert!(!r.consumer_sense());
    }
}
