//! Ordered event queue.
//!
//! The simulator is a classic discrete-event design: components schedule
//! future work as events, and a central loop pops the earliest event and
//! dispatches it. [`EventQueue`] keeps events ordered by time and, within a
//! single cycle, by insertion order (FIFO) so simulations are deterministic
//! regardless of the queue's internal layout.
//!
//! The queue is a ring of one-cycle buckets over one entry slab, with far
//! events in a binary heap:
//!
//! * **Slab.** Every pending event is an entry of one `Vec`; buckets, the
//!   heap and the free list hold `u32` indices into it.
//! * **Ring.** 2¹⁰ buckets, one cycle each, cover the cycles
//!   `[now, now + 1024)`; an event there is appended to bucket `at & 1023`,
//!   a `(head, tail)` list linked through the entries. A 1 024-bit
//!   occupancy bitmap, with one summary bit per 64-bit word, finds the first
//!   occupied bucket from the clock's own, wrapping around, with two or
//!   three `trailing_zeros` instructions. The bucket table is allocated at
//!   the first schedule, so an unused queue costs no allocation.
//! * **Far heap.** An event 1 024 or more cycles ahead waits in a
//!   `BinaryHeap` keyed by `(time, schedule order, slab index)`. Every time
//!   the clock advances, the entries the ring now covers migrate into it in
//!   key order.
//!
//! Nothing cascades: an entry is linked into its bucket once, either when
//! it is scheduled or when it migrates. The slab, the heap and the bucket
//! table keep their capacity, so the queue performs **no allocation in
//! steady state** — the property the machine model's hot loop depends on.
//!
//! Each bucket holds exactly one cycle, so FIFO-within-cycle is the list
//! order. A migration appends far entries in schedule order, and no event
//! can be linked into a cycle's bucket directly before every far entry of
//! that cycle has migrated: an event goes straight to the ring only once
//! the clock is within 1 024 cycles of it, and by then so is every earlier
//! far entry of its cycle. So the queue pops in `(time, schedule order)`
//! order, which the unit tests and `tests/properties.rs` pin against a
//! test-only binary-heap reference model under randomized schedules.
//! Scheduling an event *in the past* (disallowed, and caught by a debug
//! assertion) clamps it to the current cycle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::stats::Merge;
use crate::time::Cycle;

/// log2 of the ring's bucket count.
const RING_BITS: u32 = 10;
/// One-cycle buckets in the ring: an event fewer than this many cycles
/// ahead of the clock is linked straight into its bucket, a later one waits
/// in the far heap.
const RING: Cycle = 1 << RING_BITS;
/// Occupancy words, 64 buckets each; `summary` has one bit per word.
const WORDS: usize = RING as usize / 64;
/// The end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// Retained capacity ceiling for the delta journal's pop log: after a
/// [`EventQueue::commit_delta`] the buffer is trimmed back to at most this
/// many entries, so one dense speculative phase cannot pin a huge allocation
/// for the rest of the run.
pub const DELTA_TRIM_ENTRIES: usize = 1024;

/// One slab entry: a pending event, or a free entry on the free list.
#[derive(Clone)]
struct Entry<E> {
    at: Cycle,
    /// The FIFO tie-break the event was scheduled with; the speculative
    /// delta journal also tells pre-mark entries from post-mark ones by it
    /// (see [`EventQueue::rollback_delta`]).
    seq: u64,
    /// The next entry of the same bucket, or of the free list.
    next: u32,
    /// `None` while the entry is free.
    event: Option<E>,
}

/// Queue work counters: telemetry, never rewound (an event re-scheduled
/// after a speculative rollback counts again). `spills` depends on the
/// shard layout: a shard's clock, and so which events are far, depends on
/// what else its queue holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled.
    pub schedules: u64,
    /// Schedules 1 024 or more cycles ahead of the clock, which waited in
    /// the far heap and migrated into the ring later.
    pub spills: u64,
}

impl Merge for QueueStats {
    fn merge(&mut self, other: &Self) {
        self.schedules += other.schedules;
        self.spills += other.spills;
    }
}

/// Journal of everything popped since the last [`EventQueue::mark_delta`],
/// plus the clock and sequence counter at the mark. Entries scheduled after
/// the mark carry sequence numbers `>= mark_seq`, so a rollback can identify
/// and discard them without the queue ever storing a full snapshot of
/// itself.
#[derive(Clone)]
struct Journal<E> {
    active: bool,
    mark_seq: u64,
    mark_now: Cycle,
    popped: Vec<(Cycle, u64, E)>,
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use cni_sim::event::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(3, "c");
/// q.schedule(1, "a");
/// q.schedule(1, "b"); // same cycle: FIFO order preserved
/// assert_eq!(q.pop(), Some((1, "a")));
/// assert_eq!(q.pop(), Some((1, "b")));
/// assert_eq!(q.pop(), Some((3, "c")));
/// ```
///
/// Cloning a queue (requires `E: Clone`) captures its exact state — pending
/// entries, FIFO tie-breaking sequence and clock — so a clone replays the
/// exact same pop sequence as the original.
#[derive(Clone)]
pub struct EventQueue<E> {
    slab: Vec<Entry<E>>,
    /// Head of the free list.
    free: u32,
    /// `[head, tail]` of each bucket's list, meaningful only where
    /// `occupied` has the bucket's bit. Empty until the first schedule.
    buckets: Vec<[u32; 2]>,
    occupied: [u64; WORDS],
    /// Bit `w` set iff `occupied[w] != 0`.
    summary: u64,
    /// Entries `RING` or more cycles ahead of the clock, by
    /// `(at, seq, slab index)`.
    far: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    len: usize,
    next_seq: u64,
    /// The simulation clock: the time of the most recently popped event,
    /// and the first cycle the ring covers. Every pending event is at or
    /// after it.
    now: Cycle,
    journal: Journal<E>,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at cycle zero.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            buckets: Vec::new(),
            occupied: [0; WORDS],
            summary: 0,
            far: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            now: 0,
            journal: Journal {
                active: false,
                mark_seq: 0,
                mark_now: 0,
                popped: Vec::new(),
            },
            stats: QueueStats::default(),
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// This queue's work counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules `event` to fire at absolute cycle `at`.
    ///
    /// Scheduling an event in the past (before [`EventQueue::now`]) usually
    /// indicates a modelling error, so debug builds assert against it. In
    /// release builds it is clamped to the current cycle.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling an event at {at} before the current time {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.schedules += 1;
        self.len += 1;
        let idx = self.alloc(at, seq, event);
        if at - self.now < RING {
            self.link(at, idx);
        } else {
            self.stats.spills += 1;
            self.far.push(Reverse((at, seq, idx)));
        }
    }

    /// Exact cycle of the earliest pending event, if any.
    ///
    /// Answers without mutating the queue, and the answer is **exact** (not
    /// a lower bound): the sharded driver places the next epoch on the grid
    /// cell containing this cycle, so an early answer would plan epochs that
    /// pop nothing. Agreement with the reference model is pinned in
    /// `tests/properties.rs`.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.summary != 0 {
            Some(self.slab[self.buckets[self.first_bucket()][0] as usize].at)
        } else {
            self.far.peek().map(|&Reverse((at, ..))| at)
        }
    }

    /// Pops the earliest event, advancing the simulation clock to its time.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        debug_assert!(
            !self.journal.active,
            "pop() bypasses the delta journal; use pop_before inside a marked window"
        );
        let (at, _, event) = self.pop_entry(Cycle::MAX)?;
        Some((at, event))
    }

    /// Pops the earliest event only if it fires strictly before `horizon` —
    /// the epoch primitive of the sharded machine driver.
    ///
    /// Returns `None` (without advancing the clock) when the queue is empty
    /// or its earliest event is at or past the horizon; the queue remains
    /// fully usable and later events stay pending. `pop_before(Cycle::MAX)`
    /// is equivalent to [`EventQueue::pop`].
    pub fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, E)>
    where
        E: Clone,
    {
        self.pop_before_seq(horizon)
            .map(|(at, _, event)| (at, event))
    }

    /// [`EventQueue::pop_before`] that also returns the popped event's
    /// sequence number — the FIFO tie-break it was scheduled with. Callers
    /// that model deferred events outside the queue compare it against
    /// [`EventQueue::next_seq`] values they recorded, to tell whether such an
    /// event would have been scheduled before or after the popped one.
    pub fn pop_before_seq(&mut self, horizon: Cycle) -> Option<(Cycle, u64, E)>
    where
        E: Clone,
    {
        let (at, seq, event) = self.pop_entry(horizon)?;
        if self.journal.active {
            self.journal.popped.push((at, seq, event.clone()));
        }
        Some((at, seq, event))
    }

    /// The sequence number the next [`EventQueue::schedule`] will assign.
    /// Every event already scheduled has a smaller one, every event
    /// scheduled later a larger or equal one.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Removes all pending events without changing the clock.
    pub fn clear(&mut self) {
        debug_assert!(
            !self.journal.active,
            "clear() would lose entries the delta journal needs to restore"
        );
        self.slab.clear();
        self.free = NIL;
        self.occupied = [0; WORDS];
        self.summary = 0;
        self.far.clear();
        self.len = 0;
    }

    /// Pops the earliest entry if it fires before `horizon`. A refusal
    /// changes nothing.
    fn pop_entry(&mut self, horizon: Cycle) -> Option<(Cycle, u64, E)> {
        let bucket = if self.summary != 0 {
            // Every far entry lies beyond every ring entry.
            let bucket = self.first_bucket();
            if self.slab[self.buckets[bucket][0] as usize].at >= horizon {
                return None;
            }
            bucket
        } else {
            let &Reverse((at, ..)) = self.far.peek()?;
            if at >= horizon {
                return None;
            }
            // The ring is empty: move the clock to the heap's minimum, whose
            // migration fills its bucket.
            self.now = at;
            self.migrate();
            (at & (RING - 1)) as usize
        };
        let [head, tail] = self.buckets[bucket];
        if head == tail {
            let word = bucket / 64;
            self.occupied[word] &= !(1 << (bucket % 64));
            if self.occupied[word] == 0 {
                self.summary &= !(1 << word);
            }
        } else {
            self.buckets[bucket][0] = self.slab[head as usize].next;
        }
        let (at, seq) = (self.slab[head as usize].at, self.slab[head as usize].seq);
        let event = self.release(head);
        self.len -= 1;
        if at != self.now {
            self.now = at;
            self.migrate();
        }
        Some((at, seq, event))
    }

    /// The bucket of the earliest ring entry: the first occupied bucket at
    /// or after the clock's, wrapping around. Requires a non-empty ring.
    fn first_bucket(&self) -> usize {
        let start = (self.now & (RING - 1)) as usize;
        let word = start / 64;
        let here = self.occupied[word] & (!0 << (start % 64));
        if here != 0 {
            return word * 64 + here.trailing_zeros() as usize;
        }
        // A later word, else the lowest occupied one: all of the ring's
        // entries in `start`'s own word then lie below `start`, wrapped.
        let later = self.summary & (!1 << word);
        let word = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
        word * 64 + self.occupied[word].trailing_zeros() as usize
    }

    /// Moves every far entry the ring covers into its bucket, in
    /// `(at, seq)` order.
    fn migrate(&mut self) {
        while let Some(&Reverse((at, _, idx))) = self.far.peek() {
            if at - self.now >= RING {
                break;
            }
            self.far.pop();
            self.link(at, idx);
        }
    }

    /// Appends entry `idx` to the bucket of cycle `at`, which the ring
    /// covers.
    fn link(&mut self, at: Cycle, idx: u32) {
        self.slab[idx as usize].next = NIL;
        let bucket = (at & (RING - 1)) as usize;
        let (word, bit) = (bucket / 64, 1 << (bucket % 64));
        if self.occupied[word] & bit == 0 {
            self.buckets[bucket] = [idx, idx];
            self.occupied[word] |= bit;
            self.summary |= 1 << word;
        } else {
            let tail = std::mem::replace(&mut self.buckets[bucket][1], idx);
            self.slab[tail as usize].next = idx;
        }
    }

    /// Stores an event in a free entry (or a new one) and returns its index.
    fn alloc(&mut self, at: Cycle, seq: u64, event: E) -> u32 {
        let entry = Entry {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free != NIL {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = entry;
            return idx;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![[0; 2]; RING as usize];
        }
        let idx = u32::try_from(self.slab.len())
            .ok()
            .filter(|&idx| idx != NIL)
            .expect("event queue slab outgrew u32 indices");
        self.slab.push(entry);
        idx
    }

    /// Returns entry `idx`, already unlinked, to the free list, handing back
    /// its event.
    fn release(&mut self, idx: u32) -> E {
        let entry = &mut self.slab[idx as usize];
        entry.next = self.free;
        self.free = idx;
        entry.event.take().expect("a pending entry holds its event")
    }

    // -- Speculative delta journal -----------------------------------------
    //
    // The sharded driver's incremental checkpoints need to rewind the queue
    // to a marked point without ever cloning it. The journal makes that
    // possible with two observations:
    //
    // * every entry scheduled after the mark carries a wrapper sequence
    //   number `>= mark_seq`, so it can be discarded on rollback;
    // * every entry popped after the mark is logged (time, seq, clone), so
    //   it can be re-inserted on rollback.
    //
    // Rebuilding in ascending `(at, seq)` order reproduces FIFO-within-cycle
    // exactly — the wrapper hands out sequence numbers in schedule order, so
    // sorted reinsertion is the original insertion order.

    /// Starts (or restarts) a delta window at the current queue state.
    ///
    /// While the window is active every [`EventQueue::pop_before`] is logged
    /// so [`EventQueue::rollback_delta`] can rewind the queue to this exact
    /// state. Re-marking while a window is active simply moves the mark —
    /// the speculative driver re-marks on every snapshot.
    pub fn mark_delta(&mut self) {
        self.journal.active = true;
        self.journal.mark_seq = self.next_seq;
        self.journal.mark_now = self.now;
        self.journal.popped.clear();
    }

    /// Ends the delta window, keeping the current (post-speculation) state.
    ///
    /// Also trims the journal's retained buffer to [`DELTA_TRIM_ENTRIES`] so
    /// a single dense speculative phase cannot pin a large allocation for
    /// the rest of the run.
    pub fn commit_delta(&mut self) {
        self.journal.active = false;
        self.journal.popped.clear();
        if self.journal.popped.capacity() > DELTA_TRIM_ENTRIES {
            self.journal.popped.shrink_to(DELTA_TRIM_ENTRIES);
        }
    }

    /// Rewinds the queue to the state captured by the last
    /// [`EventQueue::mark_delta`]: entries scheduled since the mark are
    /// dropped, entries popped since the mark are re-inserted, and the clock
    /// and sequence counter return to their marked values. The window ends.
    pub fn rollback_delta(&mut self)
    where
        E: Clone,
    {
        assert!(
            self.journal.active,
            "rollback_delta without a matching mark_delta"
        );
        let mark_seq = self.journal.mark_seq;
        // The survivors' keys gather in the far heap's own buffer: its
        // pre-mark entries, the ring's, then the logged pre-mark pops.
        // Entries scheduled since the mark return to the free list.
        let mut keys = std::mem::take(&mut self.far).into_vec();
        keys.retain(|&Reverse((_, seq, idx))| {
            seq < mark_seq || {
                self.release(idx);
                false
            }
        });
        for word in 0..WORDS {
            let mut bits = self.occupied[word];
            while bits != 0 {
                let mut idx = self.buckets[word * 64 + bits.trailing_zeros() as usize][0];
                bits &= bits - 1;
                while idx != NIL {
                    let Entry { at, seq, next, .. } = self.slab[idx as usize];
                    if seq < mark_seq {
                        keys.push(Reverse((at, seq, idx)));
                    } else {
                        self.release(idx);
                    }
                    idx = next;
                }
            }
        }
        self.occupied = [0; WORDS];
        self.summary = 0;
        let mut popped = std::mem::take(&mut self.journal.popped);
        for (at, seq, event) in popped.drain(..) {
            if seq < mark_seq {
                keys.push(Reverse((at, seq, self.alloc(at, seq, event))));
            }
        }
        self.journal.popped = popped;
        // Every survivor fires at or after the marked clock. Ascending
        // order links each bucket in schedule order, and leaves the far
        // suffix already a valid heap.
        self.now = self.journal.mark_now;
        keys.sort_unstable_by_key(|&Reverse(key)| key);
        let near = keys.partition_point(|&Reverse((at, ..))| at - self.now < RING);
        for &Reverse((at, _, idx)) in &keys[..near] {
            self.link(at, idx);
        }
        self.len = keys.len();
        keys.drain(..near);
        self.far = BinaryHeap::from(keys);
        self.next_seq = mark_seq;
        self.journal.active = false;
    }

    /// Number of pops logged in the active delta window.
    pub fn delta_len(&self) -> usize {
        self.journal.popped.len()
    }

    /// Retained capacity of the delta journal's pop log, in entries — the
    /// quantity [`DELTA_TRIM_ENTRIES`] caps across commits.
    pub fn delta_capacity(&self) -> usize {
        self.journal.popped.capacity()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use std::time::{Duration, Instant};

    /// The queue's contract in its plainest form — a binary heap ordered by
    /// `(time, schedule order)`, marked by a copy of itself — that the
    /// queue is pinned against.
    #[derive(Default)]
    struct HeapModel {
        heap: ModelHeap,
        next_seq: u64,
        now: Cycle,
        marked: Option<(ModelHeap, u64, Cycle)>,
    }

    /// `(time, schedule order, event)`, earliest first.
    type ModelHeap = BinaryHeap<Reverse<(Cycle, u64, u64)>>;

    impl HeapModel {
        fn schedule(&mut self, at: Cycle, event: u64) {
            self.heap.push(Reverse((at, self.next_seq, event)));
            self.next_seq += 1;
        }

        fn pop_before_seq(&mut self, horizon: Cycle) -> Option<(Cycle, u64, u64)> {
            if self
                .heap
                .peek()
                .is_none_or(|Reverse((at, ..))| *at >= horizon)
            {
                return None;
            }
            let Reverse(popped) = self.heap.pop()?;
            self.now = popped.0;
            Some(popped)
        }

        fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, u64)> {
            self.pop_before_seq(horizon)
                .map(|(at, _, event)| (at, event))
        }

        fn pop(&mut self) -> Option<(Cycle, u64)> {
            self.pop_before(Cycle::MAX)
        }

        fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|Reverse((at, ..))| *at)
        }

        fn mark(&mut self) {
            self.marked = Some((self.heap.clone(), self.next_seq, self.now));
        }

        fn rollback(&mut self) {
            (self.heap, self.next_seq, self.now) = self.marked.take().expect("marked");
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(7, ());
        q.schedule(9, ());
        q.pop();
        assert_eq!(q.now(), 7);
        q.pop();
        assert_eq!(q.now(), 9);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(1, ());
        q.schedule(2, ());
        q.schedule(5_000, ());
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // The queue keeps working after a clear.
        q.schedule(5, ());
        assert_eq!(q.pop(), Some((5, ())));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.schedule(99, ());
        assert_eq!(q.peek_time(), Some(99));
        assert_eq!(q.now(), 0);
    }

    #[test]
    fn wheel_handles_far_future_events_across_levels() {
        let mut q = EventQueue::new();
        // Ring and far-heap times, up to far beyond the ring.
        let times = [
            1u64,
            63,
            64,
            4095,
            4096,
            1 << 20,
            1 << 35,
            1 << 52,
            u64::MAX / 2,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.peek_time(), Some(t));
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_preserves_fifo_through_cascades() {
        let mut q = EventQueue::new();
        // Two far-heap entries for one cycle, then, after an intervening
        // pop, a third for the same cycle, still beyond the ring.
        q.schedule(10_000, 0);
        q.schedule(10_000, 1);
        q.schedule(5, 99);
        assert_eq!(q.pop(), Some((5, 99)));
        q.schedule(10_000, 2);
        assert_eq!(q.pop(), Some((10_000, 0)));
        assert_eq!(q.pop(), Some((10_000, 1)));
        assert_eq!(q.pop(), Some((10_000, 2)));
    }

    #[test]
    fn ring_boundary_distances_split_between_ring_and_heap() {
        let mut q = EventQueue::new();
        for (i, at) in [RING + 1, RING, RING - 1, RING, RING - 1]
            .into_iter()
            .enumerate()
        {
            q.schedule(at, i);
        }
        // `RING - 1` is the ring's last cycle; `RING` is the first far one.
        assert_eq!(q.stats().schedules, 5);
        assert_eq!(q.stats().spills, 3);
        assert_eq!(q.far.len(), 3);
        assert_eq!(q.peek_time(), Some(RING - 1));
        assert_eq!(q.pop(), Some((RING - 1, 2)));
        // The clock moved: both far cycles are in the ring now.
        assert!(q.far.is_empty());
        for expected in [(RING - 1, 4), (RING, 1), (RING, 3), (RING + 1, 0)] {
            assert_eq!(q.pop(), Some(expected));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_entry_precedes_a_later_direct_insert_at_its_cycle() {
        let mut q = EventQueue::new();
        let at = RING + 5;
        q.schedule(at, "far");
        q.schedule(10, "step");
        assert_eq!(q.stats().spills, 1);
        assert_eq!(q.pop(), Some((10, "step")));
        // `at` is now 1 019 cycles ahead: this one goes straight to the
        // ring, behind the far entry that migrated into the same bucket.
        q.schedule(at, "direct");
        assert_eq!(q.stats().spills, 1);
        assert_eq!(q.pop(), Some((at, "far")));
        assert_eq!(q.pop(), Some((at, "direct")));
    }

    #[test]
    fn bucket_indices_wrap_around_the_ring() {
        let mut q = EventQueue::new();
        let base = 3 * RING - 3;
        q.schedule(base, 0);
        assert_eq!(q.pop(), Some((base, 0)));
        // Cycles past the ring's last index land in low buckets, below the
        // clock's own.
        let times = [base + 2, base + 3, base + 4, base + 700, base + RING - 1];
        for (i, &at) in times.iter().enumerate().rev() {
            q.schedule(at, i);
        }
        assert_eq!(q.stats().spills, 1, "only the first schedule was far");
        for (i, &at) in times.iter().enumerate() {
            assert_eq!(q.peek_time(), Some(at));
            assert_eq!(q.pop(), Some((at, i)));
        }
    }

    #[test]
    fn refused_pop_before_with_a_far_minimum_mutates_nothing() {
        let mut q = EventQueue::new();
        q.schedule(5_000, "far");
        assert_eq!(q.pop_before(4_999), None);
        assert_eq!(q.pop_before(5_000), None);
        assert_eq!((q.now(), q.len(), q.far.len()), (0, 1, 1));
        assert_eq!(q.summary, 0, "the refusal migrated an entry");
        // A later schedule below the horizon keeps its exact time.
        q.schedule(100, "near");
        assert_eq!(q.pop_before(4_000), Some((100, "near")));
        assert_eq!(q.pop(), Some((5_000, "far")));
    }

    #[test]
    fn rollback_keeps_survivors_in_both_ring_and_far_heap() {
        let mut q = EventQueue::new();
        for (i, at) in [3, 40, 40, RING + 50, 3 * RING, 3 * RING]
            .into_iter()
            .enumerate()
        {
            q.schedule(at, i);
        }
        let reference = q.clone();
        q.mark_delta();
        assert_eq!(q.pop_before(41), Some((3, 0)));
        assert_eq!(q.pop_before(41), Some((40, 1)));
        q.schedule(45, 10);
        q.schedule(3 * RING, 11);
        q.schedule(2 * RING + 100, 12);
        q.rollback_delta();
        assert_eq!((q.now(), q.len(), q.next_seq()), (0, 6, 6));
        assert_eq!(q.far.len(), 3, "far entries stay in the heap");
        let mut a = q.clone();
        let mut b = reference;
        for _ in 0..7 {
            assert_eq!(a.peek_time(), b.peek_time());
            assert_eq!(a.pop(), b.pop());
        }
        // The three dropped entries went back to the free list, and the two
        // re-inserted pops took two of them: the third is reused.
        assert_eq!(q.slab.len(), 7);
        q.schedule(2 * RING, 13);
        assert_eq!(q.slab.len(), 7);
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(5, "a");
        q.schedule(99, "b");
        assert_eq!(q.pop_before(5), None, "horizon is exclusive");
        assert_eq!(q.pop_before(6), Some((5, "a")));
        assert_eq!(q.pop_before(99), None);
        assert_eq!(q.pop_before(Cycle::MAX), Some((99, "b")));
        assert_eq!(q.pop_before(Cycle::MAX), None, "empty");
    }

    #[test]
    fn refused_pop_before_leaves_the_queue_untouched() {
        let mut q = EventQueue::new();
        q.schedule(110, "far");
        assert_eq!(q.pop_before(100), None);
        assert_eq!(q.now(), 0, "refusal advanced the clock");
        // A later schedule below the refused horizon keeps its exact time.
        q.schedule(50, "near");
        assert_eq!(q.pop_before(100), Some((50, "near")));
        assert_eq!(q.pop(), Some((110, "far")));
    }

    #[test]
    fn backends_pop_before_identically_under_random_churn() {
        let mut rng = DetRng::new(0x90B0);
        let mut heap = HeapModel::default();
        let mut queue = EventQueue::new();
        let mut next_id = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.55) || queue.is_empty() {
                let delta = match rng.gen_index(8) {
                    0 => rng.gen_range(1 << 16),
                    1..=2 => rng.gen_range(2_000),
                    _ => rng.gen_range(16),
                };
                let at = heap.now + delta;
                heap.schedule(at, next_id);
                queue.schedule(at, next_id);
                next_id += 1;
            } else {
                // Horizons land before, inside and beyond the pending range.
                let horizon = heap.now + rng.gen_range(3_000);
                assert_eq!(heap.pop_before(horizon), queue.pop_before(horizon));
                assert_eq!(heap.now, queue.now());
            }
        }
        loop {
            let (h, q) = (heap.pop(), queue.pop());
            assert_eq!(h, q);
            if h.is_none() {
                break;
            }
        }
    }

    #[test]
    fn delta_rollback_restores_the_marked_state_under_random_churn() {
        let mut rng = DetRng::new(0xDE17A);
        let mut q = EventQueue::new();
        let mut next_id = 0u64;
        for round in 0..200 {
            // Build up some pre-mark state.
            for _ in 0..rng.gen_index(6) {
                q.schedule(q.now() + rng.gen_range(2_000), next_id);
                next_id += 1;
            }
            let reference = q.clone();
            q.mark_delta();
            // A speculative burst: interleaved pops and schedules.
            for _ in 0..rng.gen_index(12) {
                if rng.gen_bool(0.5) {
                    q.schedule(q.now() + rng.gen_range(500), next_id);
                    next_id += 1;
                } else {
                    let horizon = q.now() + rng.gen_range(3_000);
                    q.pop_before(horizon);
                }
            }
            if round % 2 == 0 {
                q.rollback_delta();
                // The rewound queue must replay exactly like the clone taken
                // at the mark.
                let mut a = q.clone();
                let mut b = reference.clone();
                assert_eq!(a.len(), b.len());
                assert_eq!(a.now(), b.now());
                loop {
                    let (x, y) = (a.pop_before(Cycle::MAX), b.pop_before(Cycle::MAX));
                    assert_eq!(x, y);
                    if x.is_none() {
                        break;
                    }
                }
            } else {
                q.commit_delta();
            }
        }
    }

    #[test]
    fn commit_trims_the_journal_buffer() {
        let mut q = EventQueue::new();
        for i in 0..(DELTA_TRIM_ENTRIES as u64 * 4) {
            q.schedule(i, i);
        }
        q.mark_delta();
        while q.pop_before(Cycle::MAX).is_some() {}
        assert!(q.delta_len() == DELTA_TRIM_ENTRIES * 4);
        assert!(q.delta_capacity() >= DELTA_TRIM_ENTRIES * 4);
        q.commit_delta();
        assert!(
            q.delta_capacity() <= DELTA_TRIM_ENTRIES,
            "retained {} entries of journal capacity after commit",
            q.delta_capacity()
        );
    }

    #[test]
    fn backends_pop_identically_under_random_churn() {
        // A compact in-crate version of the reference-model property (the
        // full randomized suite lives in tests/properties.rs).
        let mut rng = DetRng::new(0xC0FFEE);
        let mut heap = HeapModel::default();
        let mut queue = EventQueue::new();
        let mut next_id = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.6) || queue.is_empty() {
                // Small offsets force plenty of same-cycle ties.
                let at = heap.now + rng.gen_range(8);
                heap.schedule(at, next_id);
                queue.schedule(at, next_id);
                next_id += 1;
            } else {
                assert_eq!(heap.pop(), queue.pop());
            }
        }
        loop {
            let (h, q) = (heap.pop(), queue.pop());
            assert_eq!(h, q);
            if h.is_none() {
                break;
            }
        }
    }

    /// What the model check's random histories reached, summed over cases.
    #[derive(Debug, Default)]
    struct Reached {
        spills: u64,
        wrapped_pops: u64,
        refusals_with_far_minimum: u64,
        rollbacks_split_between_ring_and_heap: u64,
    }

    /// One random history of schedules, `pop_before`s, marks, commits and
    /// rollbacks, checked against the model after every operation.
    fn run_case(seed: u64, reached: &mut Reached) -> Result<(), String> {
        fn diff<T: std::fmt::Debug>(what: &str, op: usize, got: &T, want: &T) -> String {
            format!("op {op}: {what}: queue {got:?}, model {want:?}")
        }
        let mut rng = DetRng::new(seed);
        let mut model = HeapModel::default();
        let mut q = EventQueue::new();
        for op in 0..400 {
            match rng.gen_index(16) {
                0..=6 => {
                    // Distances cluster at the ring's edge and in it.
                    let delta = match rng.gen_index(6) {
                        0 => rng.gen_range(4),
                        1 => RING - 2 + rng.gen_range(4),
                        2 => rng.gen_range(3 * RING),
                        3 => rng.gen_range(1 << 20),
                        _ => rng.gen_range(64),
                    };
                    model.schedule(model.now + delta, op as u64);
                    q.schedule(model.now + delta, op as u64);
                }
                7..=12 => {
                    let horizon = match rng.gen_index(4) {
                        0 => Cycle::MAX,
                        _ => model.now + rng.gen_range(2 * RING),
                    };
                    let far_minimum = q.summary == 0 && !q.far.is_empty();
                    let before = q.now();
                    let (got, want) = (q.pop_before_seq(horizon), model.pop_before_seq(horizon));
                    if got != want {
                        return Err(diff("pop_before", op, &got, &want));
                    }
                    match got {
                        None if far_minimum => reached.refusals_with_far_minimum += 1,
                        Some((at, ..)) if at & (RING - 1) < before & (RING - 1) => {
                            reached.wrapped_pops += 1
                        }
                        _ => {}
                    }
                }
                13 => {
                    q.mark_delta();
                    model.mark();
                }
                14 if model.marked.is_some() => {
                    q.commit_delta();
                    model.marked = None;
                }
                15 if model.marked.is_some() => {
                    q.rollback_delta();
                    model.rollback();
                    if q.summary != 0 && !q.far.is_empty() {
                        reached.rollbacks_split_between_ring_and_heap += 1;
                    }
                }
                _ => {}
            }
            let got = (q.now(), q.len(), q.next_seq(), q.peek_time());
            let want = (
                model.now,
                model.heap.len(),
                model.next_seq,
                model.peek_time(),
            );
            if got != want {
                return Err(diff("(now, len, next_seq, peek_time)", op, &got, &want));
            }
        }
        reached.spills += q.stats().spills;
        loop {
            let (got, want) = (
                q.pop_before_seq(Cycle::MAX),
                model.pop_before_seq(Cycle::MAX),
            );
            if got != want {
                return Err(diff("drain", 400, &got, &want));
            }
            if got.is_none() {
                return Ok(());
            }
        }
    }

    /// `DIFF_SEED`/`DIFF_FUZZ_MS`, as the differential harness reads them.
    fn env_u64(name: &str) -> Option<u64> {
        let raw = std::env::var(name).ok()?;
        let s: String = raw.trim().chars().filter(|&c| c != '_').collect();
        let value = match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        };
        Some(value.unwrap_or_else(|| panic!("{name}={raw:?} is not a hex or decimal u64")))
    }

    /// The queue against the heap model: 300 random histories from a
    /// pinned seed, or from `DIFF_SEED`, drawn until `DIFF_FUZZ_MS`
    /// milliseconds have passed if that is set. A failure prints the
    /// command that replays the failing history.
    #[test]
    fn queue_matches_heap_model() {
        let master = env_u64("DIFF_SEED").unwrap_or(0x0e7e_17a1_b0c4_e729);
        let budget = env_u64("DIFF_FUZZ_MS").map(Duration::from_millis);
        let started = Instant::now();
        let mut seeds = DetRng::new(master);
        let mut reached = Reached::default();
        let mut cases = 0;
        while match budget {
            Some(budget) => started.elapsed() < budget,
            None => cases < 300,
        } {
            let seed = if cases == 0 { master } else { seeds.next_u64() };
            let repro = format!(
                "repro: DIFF_SEED={seed:#x} cargo test -p cni-sim --lib queue_matches_heap_model"
            );
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_case(seed, &mut reached)
            }));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(diff)) => panic!("{diff}\n{repro}"),
                Err(panic) => {
                    eprintln!("{repro}");
                    std::panic::resume_unwind(panic)
                }
            }
            cases += 1;
        }
        eprintln!("event queue: {cases} histories from DIFF_SEED={master:#x}: {reached:?}");
        let Reached {
            spills,
            wrapped_pops,
            refusals_with_far_minimum,
            rollbacks_split_between_ring_and_heap,
        } = reached;
        for (what, n) in [
            ("far-heap spills", spills),
            ("pops from a wrapped bucket", wrapped_pops),
            (
                "refusals with the minimum in the far heap",
                refusals_with_far_minimum,
            ),
            (
                "rollbacks with survivors in ring and heap",
                rollbacks_split_between_ring_and_heap,
            ),
        ] {
            assert!(
                n > 0,
                "no {what} in {cases} histories from DIFF_SEED={master:#x}"
            );
        }
    }
}
