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

use crate::device::{DeliverOutcome, EmptyPolls, PollOutcome, SendOutcome};
use crate::frag::{word_hit_cycles, Payload};

/// Number of 64-byte blocks per CQ entry (one 256-byte network message).
pub const ENTRY_BLOCKS: usize = 4;

/// Cycles a poll spends comparing the valid (or tail) word it read: a
/// register-to-register compare.
const POLL_COMPARE: Cycle = TIMING.cache_hit;

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

/// Shared pointer state for one queue, and the fragments it holds.
#[derive(Debug)]
struct CqState<P> {
    /// Total entries ever enqueued (producer pointer).
    tail: u64,
    /// Total entries ever dequeued (consumer pointer).
    head: u64,
    /// The producer's stale copy of `head`: the processor's on the send
    /// queue, the device's on the receive queue.
    shadow_head: u64,
    /// Fragments resident in the queue.
    entries: VecDeque<P>,
}

impl<P: Clone> Clone for CqState<P> {
    fn clone(&self) -> Self {
        CqState {
            tail: self.tail,
            head: self.head,
            shadow_head: self.shadow_head,
            entries: self.entries.clone(),
        }
    }

    /// Copies into `self`'s existing entry buffer.
    fn clone_from(&mut self, source: &Self) {
        let CqState {
            tail,
            head,
            shadow_head,
            entries,
        } = source;
        self.tail = *tail;
        self.head = *head;
        self.shadow_head = *shadow_head;
        self.entries.clone_from(entries);
    }
}

impl<P> CqState<P> {
    fn new() -> Self {
        CqState {
            tail: 0,
            head: 0,
            shadow_head: 0,
            entries: VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn slot_of(&self, index: u64, capacity: usize) -> usize {
        (index % capacity as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Send queue: processor produces, device consumes
// ---------------------------------------------------------------------------

/// The send-side cachable queue (processor → CNI device).
#[derive(Debug)]
pub struct ProcToDeviceCq<P> {
    cfg: CqConfig,
    state: CqState<P>,
}

impl<P: Clone> Clone for ProcToDeviceCq<P> {
    fn clone(&self) -> Self {
        ProcToDeviceCq {
            cfg: self.cfg,
            state: self.state.clone(),
        }
    }

    /// Copies into `self`'s existing entry buffer.
    fn clone_from(&mut self, source: &Self) {
        let ProcToDeviceCq { cfg, state } = source;
        self.cfg = *cfg;
        self.state.clone_from(state);
    }
}

impl<P: Payload> ProcToDeviceCq<P> {
    /// Creates a send queue with the given layout.
    pub fn new(cfg: CqConfig) -> Self {
        ProcToDeviceCq {
            cfg,
            state: CqState::new(),
        }
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
        }
        if self.state.tail - self.state.shadow_head >= cap {
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
        //    (§2.1, §3). The device's pending-message count is the queue
        //    length.
        t = mem.proc_uncached_store(t);

        self.state.entries.push_back(frag);
        self.state.tail += 1;
        SendOutcome::Accepted { done: t }
    }

    /// Device-side dequeue: the device pulls the message blocks out of the
    /// processor cache (or its own backing store) and hands the fragment to
    /// the injection path.
    pub fn device_dequeue(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> Option<(Cycle, P)> {
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

        self.state.head += 1;
        Some((t, frag))
    }
}

// ---------------------------------------------------------------------------
// Receive queue: device produces, processor consumes
// ---------------------------------------------------------------------------

/// The receive-side cachable queue (CNI device → processor).
#[derive(Debug)]
pub struct DeviceToProcCq<P> {
    cfg: CqConfig,
    state: CqState<P>,
}

impl<P: Clone> Clone for DeviceToProcCq<P> {
    fn clone(&self) -> Self {
        DeviceToProcCq {
            cfg: self.cfg,
            state: self.state.clone(),
        }
    }

    /// Copies into `self`'s existing entry buffer.
    fn clone_from(&mut self, source: &Self) {
        let DeviceToProcCq { cfg, state } = source;
        self.cfg = *cfg;
        self.state.clone_from(state);
    }
}

impl<P: Payload> DeviceToProcCq<P> {
    /// Creates a receive queue with the given layout.
    pub fn new(cfg: CqConfig) -> Self {
        DeviceToProcCq {
            cfg,
            state: CqState::new(),
        }
    }

    /// Entries currently waiting for the processor.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.state.len() == 0
    }

    /// Whether [`device_enqueue`](Self::device_enqueue) would refuse now
    /// without changing any state: the queue is full, the shadow head is
    /// current, and the head re-read would hit in the device cache.
    pub fn enqueue_blocked(&self, mem: &NodeMemSystem) -> bool {
        self.state.len() >= self.cfg.capacity_entries
            && self.state.shadow_head == self.state.head
            && mem.device_state(self.cfg.head_ptr_block).is_valid()
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
            self.state.tail - self.state.shadow_head >= cap
        } else {
            true
        };
        if must_read_head {
            t = mem.device_read_block(t, self.cfg.head_ptr_block, self.cfg.home);
            self.state.shadow_head = self.state.head;
        }
        if self.state.tail - self.state.shadow_head >= cap {
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
        self.state.tail += 1;
        DeliverOutcome::Accepted { done: t }
    }

    /// The block a poll reads: the head entry's first block with valid
    /// bits, else the producer's tail pointer.
    fn poll_block(&self) -> BlockAddr {
        if self.cfg.opts.valid_bits {
            let slot = self
                .state
                .slot_of(self.state.head, self.cfg.capacity_entries);
            self.cfg.entry_block(slot)
        } else {
            self.cfg.tail_ptr_block
        }
    }

    /// Processor-side poll: examine the head entry's valid bit.
    ///
    /// With valid bits the poll reads the head entry's first block. If
    /// nothing new arrived the processor still holds the block from the
    /// previous pass and the poll hits in its cache; if the device wrote it,
    /// the read misses and fetches the data (which the subsequent receive
    /// then finds in the cache). Without valid bits the consumer must read
    /// the producer's tail pointer, which the device updates on every
    /// enqueue: a miss per arrival and often a miss even when empty.
    pub fn proc_poll(&mut self, now: Cycle, mem: &mut NodeMemSystem) -> PollOutcome {
        let t = mem.proc_cached_read(now, self.poll_block(), self.cfg.home);
        PollOutcome {
            done: t + POLL_COMPARE,
            available: !self.state.entries.is_empty(),
        }
    }

    /// Empty polls from `now` until one completes at or after `until` (see
    /// [`NiDevice::proc_poll_empty_until`](crate::device::NiDevice::proc_poll_empty_until)),
    /// in closed form: after an empty poll the processor still holds the
    /// block it read, so each further one is a hit plus the compare.
    pub fn proc_poll_empty_until(
        &mut self,
        now: Cycle,
        until: Cycle,
        mem: &mut NodeMemSystem,
    ) -> EmptyPolls {
        debug_assert!(self.state.entries.is_empty(), "the queue is not empty");
        const POLL: Cycle = TIMING.cache_hit + POLL_COMPARE;
        let count = until.saturating_sub(now).div_ceil(POLL).max(1);
        let done = mem.proc_cached_rereads(now, self.poll_block(), count) + count * POLL_COMPARE;
        EmptyPolls {
            count,
            last: done - POLL,
            done,
        }
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

        self.state.head += 1;
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
        assert!(matches!(out, SendOutcome::Full { frag, .. } if frag == Frag(99, 100)));
        assert_eq!(q.len(), 4);
        // Draining one entry frees a slot.
        let (t, _) = q.device_dequeue(out.done(), &mut mem).unwrap();
        let out = q.proc_enqueue(t, &mut mem, Frag(99, 100));
        assert!(out.is_accepted());
    }

    /// Producer and consumer in lock step, the 16-entry queue at most one
    /// entry deep: returns the processor-cache misses of `messages`
    /// enqueues. Every read of the consumer's head pointer misses, since
    /// the device advanced it (and invalidated the processor's copy) since
    /// the last one.
    fn lock_step_misses(opts: CqOptimizations, messages: u64) -> u64 {
        let mut alloc = RegionAllocator::new();
        let cfg = CqConfig::allocate(&mut alloc, 64, BlockHome::Device, opts);
        let mut q = ProcToDeviceCq::<Frag>::new(cfg);
        let mut mem = mem_system(64);
        let mut now = 0;
        for i in 0..messages {
            let out = q.proc_enqueue(now, &mut mem, Frag(i, 244));
            assert!(out.is_accepted());
            now = out.done();
            let (t, _) = q.device_dequeue(now, &mut mem).unwrap();
            now = t;
        }
        mem.proc_cache().misses()
    }

    #[test]
    fn lazy_pointers_bound_shadow_refreshes() {
        // The shadow head is refreshed only when the producer wraps into
        // apparent fullness, at most once per pass: far less than once per
        // message.
        let plain = CqOptimizations {
            lazy_pointers: false,
            ..CqOptimizations::default()
        };
        let saved = lock_step_misses(plain, 64) - lock_step_misses(CqOptimizations::default(), 64);
        assert!(saved >= 64 - 8, "lazy pointers saved only {saved} misses");
    }

    #[test]
    fn without_lazy_pointers_every_enqueue_reads_the_head() {
        // Ten messages never fill the shadow's view of a 16-entry queue, so
        // the lazy producer never reads the head; the plain one reads it,
        // and misses, on every enqueue.
        let plain = CqOptimizations {
            lazy_pointers: false,
            ..CqOptimizations::default()
        };
        assert_eq!(
            lock_step_misses(plain, 10) - lock_step_misses(CqOptimizations::default(), 10),
            10
        );
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
        let cache = mem.proc_cache();
        assert_eq!((cache.misses(), cache.hits()), (1, 1));

        // A message arrives: the device invalidates the head block, so the
        // next poll misses and sees the message.
        let out = q.device_enqueue(p1.done, &mut mem, Frag(7, 12));
        assert!(out.is_accepted());
        let p2 = q.proc_poll(1000, &mut mem);
        assert!(p2.available);
        assert!(p2.done - 1000 > 2, "arrival poll should miss");
    }

    #[test]
    fn empty_poll_runs_match_polling_one_at_a_time() {
        for valid_bits in [true, false] {
            let mut alloc = RegionAllocator::new();
            let opts = CqOptimizations {
                valid_bits,
                ..CqOptimizations::default()
            };
            let cfg = CqConfig::allocate(&mut alloc, 16, BlockHome::Device, opts);
            let mut q = DeviceToProcCq::<Frag>::new(cfg);
            let mut mem = mem_system(16);
            let warm = q.proc_poll(0, &mut mem).done;
            for until in [warm, warm + 1, warm + 2, warm + 101] {
                let (mut polled, mut polled_mem) = (q.clone(), mem.clone());
                let mut want = EmptyPolls {
                    count: 0,
                    last: warm,
                    done: warm,
                };
                while want.count == 0 || want.done < until {
                    let poll = polled.proc_poll(want.done, &mut polled_mem);
                    assert!(!poll.available);
                    want = EmptyPolls {
                        count: want.count + 1,
                        last: want.done,
                        done: poll.done,
                    };
                }
                let (mut closed, mut closed_mem) = (q.clone(), mem.clone());
                let got = closed.proc_poll_empty_until(warm, until, &mut closed_mem);
                assert_eq!(got, want, "valid_bits={valid_bits} until={until}");
                let counts = |m: &NodeMemSystem| (m.proc_cache().hits(), m.proc_cache().misses());
                assert_eq!(counts(&closed_mem), counts(&polled_mem));
            }
        }
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
        assert!(matches!(
            q.device_enqueue(now, &mut mem, Frag(9, 244)),
            DeliverOutcome::Refused(frag) if frag == Frag(9, 244)
        ));
        assert_eq!(q.len(), 4);
    }

    /// What a refused enqueue costs and changes: bus busy cycles, device
    /// cache counters, the shadow head and the queue.
    fn refusal_footprint(q: &DeviceToProcCq<Frag>, mem: &NodeMemSystem) -> [u64; 6] {
        let dev = mem.device_cache().unwrap();
        [
            mem.memory_bus().busy_cycles(),
            dev.hits(),
            dev.misses(),
            dev.writebacks(),
            q.state.shadow_head,
            q.len() as u64,
        ]
    }

    #[test]
    fn a_full_queue_whose_head_rereads_hit_refuses_purely() {
        let mut mem = mem_system(16);
        let mut q = recv_queue(16, BlockHome::Memory); // 4 entries
        let mut now = 0;
        for i in 0..4 {
            match q.device_enqueue(now, &mut mem, Frag(i, 244)) {
                DeliverOutcome::Accepted { done } => now = done,
                refused => panic!("should fit: {refused:?}"),
            }
        }
        // The first refusal reads the head pointer into the device cache.
        assert!(!q.enqueue_blocked(&mem), "the head block is not cached yet");
        assert!(!q.device_enqueue(now, &mut mem, Frag(8, 244)).is_accepted());
        assert_eq!(q.state.shadow_head, q.state.head);
        assert!(q.enqueue_blocked(&mem));

        // Every further attempt hits and changes nothing.
        let before = refusal_footprint(&q, &mem);
        for i in 0..3 {
            assert!(matches!(
                q.device_enqueue(now + 64 * i, &mut mem, Frag(9, 244)),
                DeliverOutcome::Refused(frag) if frag == Frag(9, 244)
            ));
            assert_eq!(refusal_footprint(&q, &mem), before);
            assert!(q.enqueue_blocked(&mem));
        }

        // A device fill that conflicts with the head-pointer block in the
        // direct-mapped device cache evicts it: the next attempt re-reads
        // the head from memory over the bus.
        let sets = mem.device_cache().unwrap().num_sets() as u64;
        let conflicting = BlockAddr(q.cfg.head_ptr_block.0 + sets);
        now = mem.device_read_block(now, conflicting, BlockHome::Memory);
        assert!(!q.enqueue_blocked(&mem), "the head block was evicted");
        let busy = mem.memory_bus().busy_cycles();
        assert!(!q.device_enqueue(now, &mut mem, Frag(9, 244)).is_accepted());
        assert!(
            mem.memory_bus().busy_cycles() > busy,
            "the re-read went to the bus"
        );
        assert!(q.enqueue_blocked(&mem), "and refilled the head block");

        // The processor's dequeue writes the head pointer, invalidating the
        // device's copy: the queue has room again.
        now = q.proc_dequeue(now, &mut mem).unwrap().0;
        assert!(!q.enqueue_blocked(&mem));
        assert!(q.device_enqueue(now, &mut mem, Frag(9, 244)).is_accepted());
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
    fn every_pass_around_the_queue_costs_the_same() {
        // Sense reverse makes the valid-bit encoding alternate per pass, so
        // after the cold first pass a pass around a 4-entry queue is
        // indistinguishable from the last: same cycles, same misses.
        let mut mem = mem_system(16);
        let mut send = send_queue(16, BlockHome::Device);
        let mut recv = recv_queue(16, BlockHome::Device);
        let mut now = 0;
        let mut passes = Vec::new();
        for pass in 0..4 {
            let (start, misses) = (now, mem.proc_cache().misses());
            for i in 0..4 {
                now = send
                    .proc_enqueue(now, &mut mem, Frag(pass * 4 + i, 244))
                    .done();
                let (t, frag) = send.device_dequeue(now, &mut mem).unwrap();
                match recv.device_enqueue(t, &mut mem, frag) {
                    DeliverOutcome::Accepted { done } => now = done,
                    refused => panic!("a drained queue refused: {refused:?}"),
                }
                let (t, got) = recv.proc_dequeue(now, &mut mem).unwrap();
                assert_eq!(got, frag, "FIFO across the wrap");
                now = t;
            }
            passes.push((now - start, mem.proc_cache().misses() - misses));
        }
        assert!(passes[1..].iter().all(|&p| p == passes[1]), "{passes:?}");
    }
}
