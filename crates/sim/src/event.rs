//! Ordered event queue.
//!
//! The simulator is a classic discrete-event design: components schedule
//! future work as events, and a central loop pops the earliest event and
//! dispatches it. [`EventQueue`] keeps events ordered by time and, within a
//! single cycle, by insertion order (FIFO) so simulations are deterministic
//! regardless of the queue's internal layout.
//!
//! The queue is a hierarchical timing wheel: eleven levels of 64 one-cycle
//! (level 0) to 64¹⁰-cycle (level 10) slots, each with a 64-bit occupancy
//! bitmap. Scheduling is `O(1)` (compute level and slot from `time ^ now`,
//! append to the slot's deque); popping finds the lowest occupied level
//! with two or three `trailing_zeros` instructions and cascades coarse
//! slots toward level 0 as time advances. Slot deques retain their
//! capacity, so the wheel performs **no allocation in steady state** — the
//! property the machine model's hot loop depends on.
//!
//! Each level-0 slot holds exactly one cycle, so FIFO-within-cycle is the
//! deque order, and cascading preserves insertion order: the wheel pops in
//! `(time, schedule order)` order, which the unit tests and
//! `tests/properties.rs` pin against a test-only binary-heap reference
//! model under randomized schedules. Scheduling an event *in the past*
//! (disallowed, and caught by a debug assertion) clamps it to the current
//! cycle.

use std::collections::VecDeque;

use crate::time::Cycle;

// ---------------------------------------------------------------------------
// Hierarchical timing wheel
// ---------------------------------------------------------------------------

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (one `u64` occupancy bitmap covers a whole level).
const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
/// Levels needed so the wheel spans the full 64-bit cycle range
/// (`6 bits × 11 levels = 66 bits`).
const LEVELS: usize = 11;

#[derive(Clone)]
struct WheelSlot<E> {
    /// `(time, wrapper sequence number, event)`. The wheel orders by time
    /// and deque position alone; the sequence number rides along so the
    /// speculative delta journal can tell pre-mark entries from post-mark
    /// ones (see [`EventQueue::rollback_delta`]).
    entries: VecDeque<(Cycle, u64, E)>,
}

#[derive(Clone)]
struct WheelLevel<E> {
    /// Bit `s` set iff `slots[s]` is non-empty.
    occupied: u64,
    slots: Vec<WheelSlot<E>>,
}

/// A hierarchical timing wheel keyed by absolute cycle.
///
/// Invariants (all relative to `elapsed`, the time of the last pop):
///
/// * every pending entry's time `t` satisfies `t >= elapsed`;
/// * an entry lives at level `l` = index of the highest 6-bit group in which
///   `t` and `elapsed` differ (level 0 if `t == elapsed`), in slot
///   `(t >> 6l) & 63`;
/// * hence every level-0 slot holds exactly one cycle's events, in insertion
///   order, and all entries in a lower level precede all entries in any
///   higher level.
#[derive(Clone)]
struct Wheel<E> {
    levels: Vec<WheelLevel<E>>,
    elapsed: Cycle,
    len: usize,
    /// Reused cascade buffer so redistribution never allocates in steady
    /// state.
    scratch: Vec<(Cycle, u64, E)>,
}

fn level_for(at: Cycle, elapsed: Cycle) -> usize {
    let diff = at ^ elapsed;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
    }
}

fn slot_for(at: Cycle, level: usize) -> usize {
    ((at >> (LEVEL_BITS as usize * level)) & (SLOTS_PER_LEVEL as u64 - 1)) as usize
}

/// First cycle covered by `slot` of `level`, given the current `elapsed`.
fn slot_start(elapsed: Cycle, level: usize, slot: usize) -> Cycle {
    let low_bits = LEVEL_BITS as usize * level;
    let high_bits = low_bits + LEVEL_BITS as usize;
    let high = if high_bits >= 64 {
        0
    } else {
        (elapsed >> high_bits) << high_bits
    };
    high | ((slot as Cycle) << low_bits)
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            levels: (0..LEVELS)
                .map(|_| WheelLevel {
                    occupied: 0,
                    slots: (0..SLOTS_PER_LEVEL)
                        .map(|_| WheelSlot {
                            entries: VecDeque::new(),
                        })
                        .collect(),
                })
                .collect(),
            elapsed: 0,
            len: 0,
            scratch: Vec::new(),
        }
    }

    fn schedule(&mut self, at: Cycle, seq: u64, event: E) {
        // Past events (a modelling error, debug-asserted against by the
        // `EventQueue` wrapper) are clamped to the current cycle.
        let at = at.max(self.elapsed);
        self.insert(at, seq, event);
        self.len += 1;
    }

    fn insert(&mut self, at: Cycle, seq: u64, event: E) {
        let level = level_for(at, self.elapsed);
        let slot = slot_for(at, level);
        let lvl = &mut self.levels[level];
        lvl.slots[slot].entries.push_back((at, seq, event));
        lvl.occupied |= 1u64 << slot;
    }

    fn pop(&mut self) -> Option<(Cycle, u64, E)> {
        self.pop_before(Cycle::MAX)
    }

    /// Pops the earliest event strictly before `horizon`, or `None` if the
    /// wheel is empty or its earliest event is at or past the horizon.
    ///
    /// This is the epoch primitive the sharded machine driver runs on: a
    /// shard drains its queue with `pop_before(epoch_end)` and stops exactly
    /// at the epoch boundary without ever observing a later event. A refused
    /// pop leaves the wheel untouched — in particular `elapsed` does not
    /// advance, so a later `schedule` close to the current time keeps its
    /// exact time instead of being clamped to a cascaded slot start.
    fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, u64, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let (level, slot) = self
                .min_position()
                .expect("len > 0 implies an occupied slot");
            if level == 0 {
                // A level-0 slot holds exactly one cycle's events; the front
                // entry's time is the queue minimum.
                let lvl = &mut self.levels[0];
                if lvl.slots[slot]
                    .entries
                    .front()
                    .is_some_and(|(at, _, _)| *at >= horizon)
                {
                    return None;
                }
                let (at, seq, event) = lvl.slots[slot]
                    .entries
                    .pop_front()
                    .expect("occupancy bit was set");
                if lvl.slots[slot].entries.is_empty() {
                    lvl.occupied &= !(1u64 << slot);
                }
                self.len -= 1;
                debug_assert!(at >= self.elapsed);
                self.elapsed = at;
                return Some((at, seq, event));
            }
            // Cascade the coarse slot down: advance the wheel to the slot's
            // first cycle and redistribute its entries, which all land at
            // strictly lower levels. Draining through `scratch` preserves
            // insertion order, so FIFO-within-cycle survives the cascade.
            let start = slot_start(self.elapsed, level, slot);
            if start >= horizon {
                // Every entry in this slot — and, by the level ordering
                // invariant, every pending entry — is at or past the horizon.
                return None;
            }
            // When the horizon falls *inside* this slot's covered range, the
            // slot's earliest entry (the queue minimum: lowest occupied
            // level, earliest slot) decides the outcome — check it before
            // cascading so a refusal performs no state change at all. Slots
            // the horizon clears entirely skip the scan, so `pop` (horizon
            // `Cycle::MAX`) never pays for it.
            let span = 1u64 << (LEVEL_BITS as usize * level);
            if horizon < start.saturating_add(span) {
                let earliest = self.levels[level].slots[slot]
                    .entries
                    .iter()
                    .map(|(at, _, _)| *at)
                    .min()
                    .expect("occupancy bit was set");
                if earliest >= horizon {
                    return None;
                }
            }
            debug_assert!(start >= self.elapsed);
            let mut scratch = std::mem::take(&mut self.scratch);
            let lvl = &mut self.levels[level];
            scratch.extend(lvl.slots[slot].entries.drain(..));
            lvl.occupied &= !(1u64 << slot);
            self.elapsed = start;
            for (at, seq, event) in scratch.drain(..) {
                self.insert(at, seq, event);
            }
            self.scratch = scratch;
        }
    }

    /// The lowest occupied `(level, slot)` — the position holding the queue
    /// minimum. Entries at a lower level always precede entries at any
    /// higher level, so the next event is in the lowest occupied level's
    /// earliest slot (lowest set bit: slot indices never wrap past the
    /// current position, because `elapsed` only advances to the time of a
    /// popped — i.e. globally earliest — event). This is the one scan both
    /// `pop_before` and `peek_time` resolve positions through.
    fn min_position(&self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let level = self
            .levels
            .iter()
            .position(|l| l.occupied != 0)
            .expect("len > 0 implies an occupied slot");
        let slot = self.levels[level].occupied.trailing_zeros() as usize;
        Some((level, slot))
    }

    /// Exact time of the earliest pending event, without mutating the wheel.
    fn next_occupied(&self) -> Option<Cycle> {
        let (level, slot) = self.min_position()?;
        // Level-0 slots hold a single cycle; coarser slots can mix cycles, so
        // scan for the minimum (peeks are rare — the hot loop only pops).
        self.levels[level].slots[slot]
            .entries
            .iter()
            .map(|(at, _, _)| *at)
            .min()
    }

    fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for lvl in &mut self.levels {
            let mut occupied = lvl.occupied;
            while occupied != 0 {
                let slot = occupied.trailing_zeros() as usize;
                lvl.slots[slot].entries.clear();
                occupied &= occupied - 1;
            }
            lvl.occupied = 0;
        }
        self.len = 0;
    }
}

// ---------------------------------------------------------------------------
// Public queue
// ---------------------------------------------------------------------------

/// Retained capacity ceiling for the delta journal's pop log: after a
/// [`EventQueue::commit_delta`] the buffer is trimmed back to at most this
/// many entries, so one dense speculative phase cannot pin a huge allocation
/// for the rest of the run.
pub const DELTA_TRIM_ENTRIES: usize = 1024;

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

impl<E> Journal<E> {
    fn new() -> Self {
        Journal {
            active: false,
            mark_seq: 0,
            mark_now: 0,
            popped: Vec::new(),
        }
    }
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
    wheel: Wheel<E>,
    next_seq: u64,
    now: Cycle,
    journal: Journal<E>,
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
            wheel: Wheel::new(),
            next_seq: 0,
            now: 0,
            journal: Journal::new(),
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.schedule(at, seq, event);
    }

    /// Exact cycle of the earliest pending event, if any.
    ///
    /// Answers without mutating the queue, and the answer is **exact** (not
    /// a lower bound): the sharded driver places the next epoch on the grid
    /// cell containing this cycle, so an early answer would plan epochs that
    /// pop nothing. Agreement with the reference model is pinned in
    /// `tests/properties.rs`.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.wheel.next_occupied()
    }

    /// Pops the earliest event, advancing the simulation clock to its time.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        debug_assert!(
            !self.journal.active,
            "pop() bypasses the delta journal; use pop_before inside a marked window"
        );
        let (at, _, event) = self.wheel.pop()?;
        // The clock never moves backwards even if an event was scheduled in
        // the past (see `schedule`).
        self.now = self.now.max(at);
        Some((self.now, event))
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
        let (at, seq, event) = self.wheel.pop_before(horizon)?;
        if self.journal.active {
            self.journal.popped.push((at, seq, event.clone()));
        }
        self.now = self.now.max(at);
        Some((self.now, seq, event))
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
        self.wheel.clear();
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
        let mark_now = self.journal.mark_now;
        // Survivors: pending entries from before the mark, plus logged pops
        // from before the mark.
        let mut survivors: Vec<(Cycle, u64, E)> = Vec::new();
        let wheel = &mut self.wheel;
        for lvl in &mut wheel.levels {
            let mut occupied = lvl.occupied;
            while occupied != 0 {
                let slot = occupied.trailing_zeros() as usize;
                survivors.extend(
                    lvl.slots[slot]
                        .entries
                        .drain(..)
                        .filter(|(_, seq, _)| *seq < mark_seq),
                );
                occupied &= occupied - 1;
            }
            lvl.occupied = 0;
        }
        wheel.len = 0;
        // Every survivor fires at or after the marked clock, so the wheel's
        // level invariant holds when re-anchored there (a refused pop never
        // moves `elapsed`, so `elapsed == now` between wrapper calls).
        wheel.elapsed = mark_now;
        survivors.extend(
            self.journal
                .popped
                .drain(..)
                .filter(|(_, seq, _)| *seq < mark_seq),
        );
        survivors.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        for (at, seq, event) in survivors {
            wheel.insert(at, seq, event);
            wheel.len += 1;
        }
        self.now = mark_now;
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The queue's contract in its plainest form — a binary heap ordered by
    /// `(time, schedule order)` — that the wheel is pinned against.
    #[derive(Default)]
    struct HeapModel {
        heap: BinaryHeap<Reverse<(Cycle, u64, u64)>>,
        next_seq: u64,
        now: Cycle,
    }

    impl HeapModel {
        fn schedule(&mut self, at: Cycle, event: u64) {
            self.heap.push(Reverse((at, self.next_seq, event)));
            self.next_seq += 1;
        }

        fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, u64)> {
            if self
                .heap
                .peek()
                .is_none_or(|Reverse((at, ..))| *at >= horizon)
            {
                return None;
            }
            let Reverse((at, _, event)) = self.heap.pop()?;
            self.now = at;
            Some((at, event))
        }

        fn pop(&mut self) -> Option<(Cycle, u64)> {
            self.pop_before(Cycle::MAX)
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
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
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
        // One event per wheel level, far beyond the level-0 horizon.
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
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_preserves_fifo_through_cascades() {
        let mut q = EventQueue::new();
        // Two batches for the same far-future cycle, scheduled around an
        // intervening pop that forces a cascade before the second batch.
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
        // 110 sits in a coarse wheel slot whose range straddles the
        // horizon; the refusal must not cascade-and-clamp.
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
        let mut wheel = EventQueue::new();
        let mut next_id = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.55) || wheel.is_empty() {
                let delta = match rng.gen_index(8) {
                    0 => rng.gen_range(1 << 16),
                    1..=2 => rng.gen_range(2_000),
                    _ => rng.gen_range(16),
                };
                let at = heap.now + delta;
                heap.schedule(at, next_id);
                wheel.schedule(at, next_id);
                next_id += 1;
            } else {
                // Horizons land before, inside and beyond the pending range.
                let horizon = heap.now + rng.gen_range(3_000);
                assert_eq!(heap.pop_before(horizon), wheel.pop_before(horizon));
                assert_eq!(heap.now, wheel.now());
            }
        }
        loop {
            let (h, w) = (heap.pop(), wheel.pop());
            assert_eq!(h, w);
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
        let mut wheel = EventQueue::new();
        let mut next_id = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.6) || wheel.is_empty() {
                // Small offsets force plenty of same-cycle ties.
                let at = heap.now + rng.gen_range(8);
                heap.schedule(at, next_id);
                wheel.schedule(at, next_id);
                next_id += 1;
            } else {
                assert_eq!(heap.pop(), wheel.pop());
            }
        }
        loop {
            let (h, w) = (heap.pop(), wheel.pop());
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
    }
}
