//! Allocation budgets of a machine run, counted exactly.
//!
//! A counting global allocator tallies every allocation the test thread
//! makes while [`Machine::run`] executes. Both runs below use two shards
//! driven sequentially, so all of the machine's work happens on that one
//! thread and the counts repeat exactly from run to run: they are work
//! counters, not timings, and hold in debug and release builds alike.
//!
//! Two budgets:
//!
//! - the coherence hot path allocates nothing: a fixed-lookahead run makes
//!   far fewer allocations than it has coherence transitions;
//! - speculative checkpoints copy into long-lived mirrors: the speculative
//!   run of the same workload allocates at most a small multiple of the
//!   fixed run's bytes, instead of one cache set vector per node copy.
//!
//! And one check on the event queue alone: once warmed up, schedule/pop
//! churn allocates nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cni::core::machine::{LookaheadMode, Machine, MachineConfig, ShardPolicy, SpeculationConfig};
use cni::nic::NiKind;
use cni::sim::event::EventQueue;
use cni::sim::rng::DetRng;
use cni::workloads::{Workload, WorkloadParams};

/// Passes every request to [`System`], counting the calling thread's
/// allocations (a `realloc` counts as one allocation of its new size).
struct Counting;

thread_local! {
    // `const`-initialised without a destructor, so reading them from inside
    // the allocator neither allocates nor registers thread-exit hooks.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread is being torn down, when
    // nothing measured runs any more.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one run allocated, and how much coherence work it did.
#[derive(Debug)]
struct Tally {
    allocs: u64,
    bytes: u64,
    /// Cache state changes that reach the bus or a snoop: demand and
    /// upgrade misses, snoop invalidations and snarf fills, summed over
    /// every node's processor and device caches.
    transitions: u64,
    rounds_rolled_back: u64,
}

fn run(lookahead: LookaheadMode) -> Tally {
    let cfg = MachineConfig::isca96(8, NiKind::Cni16Q)
        .with_shards(ShardPolicy::Fixed(2))
        .with_parallel(false)
        .with_speculation(SpeculationConfig::with_lookahead(lookahead));
    let programs = Workload::Gauss.programs(cfg.nodes, &WorkloadParams::tiny());
    let mut machine = Machine::new(cfg, programs);

    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let report = machine.run();
    let allocs = ALLOCS.with(Cell::get) - before.0;
    let bytes = BYTES.with(Cell::get) - before.1;
    assert!(report.completed, "{lookahead:?}: gauss did not complete");

    let transitions = (0..8)
        .map(|i| {
            let mem = &machine.node(i).mem;
            std::iter::once(mem.proc_cache())
                .chain(mem.device_cache())
                .map(|c| {
                    c.misses() + c.upgrade_misses() + c.snoop_invalidations() + c.snarf_fills()
                })
                .sum::<u64>()
        })
        .sum();
    let outcome = machine.epoch_outcome().expect("run records an outcome");
    Tally {
        allocs,
        bytes,
        transitions,
        rounds_rolled_back: outcome.spec_rollbacks,
    }
}

#[test]
fn coherence_and_checkpoints_stay_within_allocation_budgets() {
    let fixed = run(LookaheadMode::Fixed);
    let spec = run(LookaheadMode::Speculative);
    println!("fixed {fixed:?}\nspeculative {spec:?}");

    assert!(
        fixed.transitions > 1_000,
        "the fixture must exercise the caches ({} transitions)",
        fixed.transitions
    );
    assert!(
        fixed.allocs * 10 < fixed.transitions,
        "the coherence path allocates: {} allocations for {} transitions",
        fixed.allocs,
        fixed.transitions
    );

    assert!(
        spec.rounds_rolled_back > 0,
        "the fixture must roll speculative rounds back"
    );
    assert!(
        spec.bytes <= 8 * fixed.bytes,
        "speculative checkpoints reallocate: {} bytes against the fixed run's {}",
        spec.bytes,
        fixed.bytes
    );
}

/// One pass of hold-and-churn on `q`: a standing population of 256 events,
/// each pop followed by a reschedule, mostly near the clock and every
/// sixteenth far beyond the queue's ring (1 024 cycles), then a drain.
fn churn(q: &mut EventQueue<u64>, seed: u64) {
    let mut rng = DetRng::new(seed);
    for i in 0..256 {
        q.schedule(q.now() + rng.gen_range(4_096), i);
    }
    for step in 0..20_000u64 {
        let (at, ev) = q.pop().expect("the population never drains mid-churn");
        let delta = if step % 16 == 0 {
            1_024 + rng.gen_range(1 << 16)
        } else {
            rng.gen_range(600)
        };
        q.schedule(at + delta, ev);
    }
    while q.pop().is_some() {}
}

#[test]
fn warmed_up_event_queue_churn_allocates_nothing() {
    let mut q = EventQueue::new();
    churn(&mut q, 0x5EED);
    let before = ALLOCS.with(Cell::get);
    churn(&mut q, 0x5EED);
    churn(&mut q, 0x5EED);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        allocs, 0,
        "a warmed-up queue allocated {allocs} times under churn"
    );
}
