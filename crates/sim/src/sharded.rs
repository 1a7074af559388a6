//! Conservative parallel discrete-event execution over shards.
//!
//! A large simulated machine is partitioned into **shards**, each owning a
//! disjoint slice of the model state and its own
//! [`EventQueue`](crate::event::EventQueue). Shards advance in lock-step
//! **epochs** of a fixed length chosen to be at most the model's minimum
//! cross-shard latency (the classic conservative-PDES *lookahead*): no event
//! emitted during an epoch can arrive inside the same epoch, so every shard
//! can process its epoch independently — sequentially or on its own thread —
//! without ever observing a cross-shard event out of order.
//!
//! Cross-shard traffic never goes straight into a destination queue. Emitters
//! hand `(target, arrival cycle, stamp, message)` records to an [`Outbox`];
//! at the epoch barrier the driver routes them into per-shard staging areas,
//! and at the start of the epoch in which they arrive they are delivered in
//! the canonical order `(arrival cycle, origin, per-origin sequence)`. The
//! [`Stamp`] is assigned by the *emitting* entity from a counter that
//! advances with its own deterministic execution, so the canonical order is
//! a pure function of the simulation — independent of shard count, shard
//! assignment, and thread scheduling. This is what makes an N-shard parallel
//! run **bit-identical** to the 1-shard sequential run: per-entity event
//! order is invariant, and (by the lookahead argument) nothing else can
//! matter.
//!
//! The driver itself is model-agnostic: anything implementing [`ShardSim`]
//! can be run with [`run_epochs`], in [`ExecMode::Sequential`] (shards
//! round-robined on the calling thread) or [`ExecMode::Parallel`]. Both modes
//! execute the exact same event schedule, because they share one planner.
//!
//! # One planner, two executors
//!
//! Every schedule decision lives in a single `Planner`: it owns the router
//! (the staged cross-shard traffic), the speculation pacer and the
//! accumulating [`EpochOutcome`]. Each round it picks the next epoch
//! (fast-forwarding over empty stretches), decides whether to abort or
//! gamble, hands out the due arrivals, and later routes the emissions and
//! settles a gamble. The two executors only move events and advance shards.
//! The sequential executor owns the planner outright: no lock, no dynamic
//! dispatch, no allocation per round.
//!
//! [`ExecMode::Parallel`] runs a **persistent worker pool**: one worker per
//! shard, spawned once per run, synchronized purely through atomics. The
//! calling thread plans round one before any worker exists. Each epoch then
//! ends in a sense barrier on an atomic arrival counter; the *last* worker
//! to arrive becomes that barrier's **finisher**. Only the finisher touches
//! the planner, which sits in one `Mutex`. That lock is never contended:
//! every other worker is waiting at the barrier, and the finisher unlocks
//! before it publishes the next plan by bumping the atomic generation
//! counter that releases them. Workers report what the planner reads (next
//! event, load, earliest held arrival) through per-shard atomic slots.
//! There is no per-epoch channel traffic, no dedicated router thread to
//! wake, and no allocation in the steady state: outboxes and staging
//! buffers are handed over by `Vec` swaps that retain their capacity.
//!
//! The expensive part of a barrier — the cross-shard exchange — is skipped
//! entirely whenever it has nothing to do: workers raise a shared
//! "any-outbox-non-empty" flag only when they actually emitted, and a
//! finisher that observes the flag clear absorbs nothing, while a router
//! with nothing staged answers every query in O(1). Quiescent stretches
//! therefore run exchange-free, paying only the atomic barrier itself. The
//! *rendezvous* still happens every epoch — with a lookahead of exactly one
//! epoch, a shard cannot know that no other shard emitted until that
//! shard's epoch is complete, so skipping the barrier itself would race the
//! very traffic it is waiting for. Skipping the exchange preserves the
//! lookahead argument unchanged, and bit-identical results with it: an
//! epoch with no emissions and no staged arrivals routes nothing and
//! delivers nothing in either mode.
//!
//! # Speculative epochs
//!
//! The fixed epoch length is the *minimum* sound lookahead, not the best
//! one: quiet stretches — compute-heavy phases, retransmission back-off
//! grinds, trailing drains — still pay one barrier per grid slot.
//! [`LookaheadMode::Speculative`] is the optimistic answer: every round, all
//! shards checkpoint themselves ([`ShardSim::snapshot`]) and optimistically
//! execute [`SPEC_DEPTH`] grid slots past the planned horizon with their
//! emissions *held aside* instead of routed. The driver then validates the
//! gamble against the emissions that actually happened: if the earliest
//! held arrival lands at or past the speculated horizon, nothing inside the
//! window could have been observed — the round **commits** and the held
//! traffic is routed normally. Otherwise some arrival `a` lands inside the
//! window; the round **rolls back**: every shard restores its checkpoint
//! ([`ShardSim::restore`]) and re-executes conservatively up to `C =
//! grid(a)`, the last grid point the arrival provably cannot reach.
//!
//! The rollback is exact, not approximate. The speculated window received
//! no deliveries, so the re-execution `[start, C)` is a deterministic
//! *prefix* of the speculative run — and every one of its emissions arrives
//! at or past the earliest conflicting arrival `a ≥ C` (were there an
//! earlier one, *it* would have been the conflict), so routing the re-run's
//! emissions with floor `C` satisfies the same lookahead `debug_assert` as
//! a committed round. Speculation is therefore **unobservable**: commit and
//! rollback both leave exactly the state a conservative run would have, and
//! results stay bit-identical across both lookahead modes
//! (determinism invariant 7 in `ARCHITECTURE.md`).
//!
//! Both executors speculate in lock-step rounds — one uniform speculated
//! horizon for every shard, all-or-nothing validation — because per-shard
//! divergent horizons are unsound: a lagging shard's post-rollback re-run
//! emits *different* traffic than its speculative run did, which could land
//! inside a leading shard's already-committed window (the classic Time
//! Warp cascade). The planner decides the gamble and its verdict; the
//! sequential executor holds the checkpoints and the held-aside outboxes
//! itself, while each parallel worker keeps its own checkpoint on its stack
//! and reports only its earliest held arrival. A shared exponential pacer
//! (capped at [`SPEC_PENALTY_CAP`] conservative rounds) keeps dense
//! workloads from paying checkpoint + rollback every round; it reads only
//! globally merged state, so commit/rollback counts are invariant across
//! shard counts and execution modes just like every other epoch statistic.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::Duration;

use crate::time::Cycle;

/// Deterministic merge key for cross-shard events.
///
/// `origin` identifies the emitting entity (for the machine model, a node);
/// `seq` is that entity's emission counter. Because an entity emits in its
/// own deterministic execution order, stamps are a pure function of the
/// simulation and identical under every sharding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stamp {
    /// The emitting entity (e.g. the node that injected the message).
    pub origin: u32,
    /// The entity's emission sequence number.
    pub seq: u64,
}

/// One cross-shard event in flight.
#[derive(Debug)]
struct Outbound<M> {
    /// Global index of the target entity (the driver maps it to a shard).
    target: u32,
    /// Absolute cycle at which the event arrives.
    at: Cycle,
    /// Canonical merge key.
    stamp: Stamp,
    /// The event payload.
    msg: M,
}

/// Collects the cross-shard events a shard emits while advancing one epoch.
///
/// Every network-bound event goes through the outbox — including events whose
/// target lives on the *same* shard. Uniform routing is load-bearing: it
/// pins the queue-insertion point of every remote event to an epoch boundary
/// in every sharding, which is what keeps FIFO-within-cycle order invariant
/// across shard counts.
#[derive(Debug)]
pub struct Outbox<M> {
    staged: Vec<Outbound<M>>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox { staged: Vec::new() }
    }

    /// Emits `msg` towards global entity `target`, arriving at cycle `at`.
    ///
    /// `at` must be at or beyond the end of the epoch being advanced — the
    /// driver debug-asserts the lookahead when routing.
    pub fn send(&mut self, target: u32, at: Cycle, stamp: Stamp, msg: M) {
        self.staged.push(Outbound {
            target,
            at,
            stamp,
            msg,
        });
    }

    /// Number of staged events.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Whether the outbox is empty.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Earliest arrival among the staged events — what validates a gamble.
    fn earliest_arrival(&self) -> Option<Cycle> {
        self.staged.iter().map(|ev| ev.at).min()
    }
}

/// One shard of a sharded discrete-event model.
///
/// `Send` is required so shards can move to worker threads in
/// [`ExecMode::Parallel`].
pub trait ShardSim: Send {
    /// Cross-shard event payload.
    type Msg: Send;

    /// Delivers a routed event into the shard's local queue at cycle `at`.
    ///
    /// The driver calls this at the start of the epoch containing `at`, in
    /// canonical `(at, stamp)` order, before [`ShardSim::advance`] for that
    /// epoch. Implementations simply schedule the event; FIFO insertion
    /// order *is* the canonical order.
    fn accept(&mut self, at: Cycle, msg: Self::Msg);

    /// Processes every local event strictly before `horizon`, pushing
    /// cross-shard emissions into `outbox`.
    fn advance(&mut self, horizon: Cycle, outbox: &mut Outbox<Self::Msg>);

    /// Cycle of the earliest pending local event, if any — used by the
    /// driver to fast-forward over empty epochs and to detect termination.
    fn next_event_time(&self) -> Option<Cycle>;

    /// Number of events pending in the shard's local queue, plus any work
    /// the shard defers outside it and would otherwise have queued (the
    /// machine model's parked deliveries). Summed across
    /// shards this is the machine-wide pending-event population — the
    /// local half of the load observable the speculation pacer reads (the
    /// other half being the router's staged count). Both halves are
    /// partition-invariant (every event lives in exactly one shard's
    /// queue), which keeps the gamble schedule identical across shard
    /// counts and drivers (invariant 7). Must be O(1): both drivers read
    /// it every planning round under [`LookaheadMode::Speculative`].
    ///
    /// The default of 0 blinds the pacer to local load — sound in the
    /// sense that it only makes the pacer gamble more, but implementors
    /// that run speculatively should override it so dense windows (where
    /// the pop journal would clone every dispatched event) are refused.
    fn pending_len(&self) -> u64 {
        0
    }

    /// Reusable checkpoint buffer for [`LookaheadMode::Speculative`]. The
    /// driver allocates one per shard via `Default` and hands the same
    /// buffer back to every [`ShardSim::snapshot`], so implementations can
    /// `clone_from` into it and reach steady-state speculation without
    /// fresh allocations. Shards that do not support speculation use `()`.
    type Checkpoint: Send + Default;

    /// Captures the shard's complete mutable state into `into`, such that a
    /// later [`ShardSim::restore`] rewinds the shard to this exact point:
    /// after restore, the same `advance` calls must replay the same event
    /// sequence and the same emissions. Takes `&mut self` so incremental
    /// implementations can reset their dirty tracking and arm in-place
    /// delta journals as part of the capture. Only required for
    /// [`LookaheadMode::Speculative`]; the default panics.
    fn snapshot(&mut self, _into: &mut Self::Checkpoint) {
        unimplemented!("this ShardSim does not support speculative checkpoints")
    }

    /// Rewinds the shard to the state captured by [`ShardSim::snapshot`].
    /// Only required for [`LookaheadMode::Speculative`]; the default panics.
    fn restore(&mut self, _from: &Self::Checkpoint) {
        unimplemented!("this ShardSim does not support speculative checkpoints")
    }

    /// Notifies the shard that the last speculative round validated clean
    /// and its snapshot will never be restored — incremental checkpoints
    /// release their delta journals here. Called by the driver before the
    /// next round's deliveries (a rolled-back round gets
    /// [`ShardSim::restore`] instead). The default is a no-op, which is
    /// correct for full-clone checkpoints.
    fn commit_speculation(&mut self) {}
}

/// How [`run_epochs`] executes the shards of each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// All shards advance on the calling thread, in shard order.
    #[default]
    Sequential,
    /// A persistent worker pool, one worker per shard, rendezvousing at
    /// atomic epoch barriers (see the module docs). Produces bit-identical
    /// results to [`ExecMode::Sequential`].
    Parallel,
}

/// Whether the epoch planner may gamble past the fixed grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookaheadMode {
    /// Every epoch is exactly one `epoch` long on the fixed grid — the
    /// classic conservative-PDES schedule.
    #[default]
    Fixed,
    /// Optimistic execution with rollback: shards checkpoint themselves
    /// ([`ShardSim::snapshot`]), run [`SPEC_DEPTH`] grid slots past the
    /// planned horizon with emissions held aside, and either commit (no
    /// held arrival lands inside the window) or restore and re-execute
    /// conservatively (see the module docs). Requires shards to implement
    /// [`ShardSim::snapshot`]/[`ShardSim::restore`]; produces bit-identical
    /// simulated results to [`LookaheadMode::Fixed`].
    Speculative,
}

impl std::fmt::Display for LookaheadMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LookaheadMode::Fixed => "fixed",
            LookaheadMode::Speculative => "speculative",
        })
    }
}

/// Baseline grid slots a speculative round runs past the planned horizon.
pub const SPEC_DEPTH: Cycle = 4;

/// Ceiling on how many grid slots a deepened gamble may run past the
/// planned horizon (see [`SpecTuning::depth_max`]).
pub const SPEC_DEPTH_MAX: Cycle = 32;

/// Ceiling on the speculation pacer's exponential penalty: after a rollback
/// the driver runs `penalty` conservative rounds (doubling per consecutive
/// rollback up to this cap, resetting on commit) before gambling again.
pub const SPEC_PENALTY_CAP: Cycle = 64;

/// Tuning knobs for the speculation pacer ([`LookaheadMode::Speculative`]).
///
/// All observables the pacer consumes are merged *global* quantities
/// (machine-wide load — router-staged traffic plus pending queue events —
/// drive-wide commit/rollback counts, mean epoch length), so any tuning
/// produces a gamble schedule that is identical
/// across shard counts and execution modes — the knobs trade wasted
/// speculative work against depth, never determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecTuning {
    /// Baseline gamble depth in grid slots (default [`SPEC_DEPTH`]).
    pub depth: Cycle,
    /// Ceiling the commit-streak deepening may grow the depth to (default
    /// [`SPEC_DEPTH_MAX`]). Quiet workloads that keep committing double
    /// their depth every four consecutive commits up to this cap.
    pub depth_max: Cycle,
    /// Machine-wide load (router-staged events plus pending queue events,
    /// see [`ShardSim::pending_len`]) above which a round is considered
    /// dense and the gamble refused outright: heavy traffic means a held
    /// arrival will almost surely land inside any window, and every event
    /// popped inside a gamble is journalled — so on dense rounds the
    /// snapshot would be pure overhead.
    pub dense_staged: u64,
    /// Once at least this many rollbacks have accumulated while commits
    /// stay under a quarter of them, the pacer gives up on the drive
    /// entirely — the workload has proven persistently hostile.
    pub give_up_rollbacks: u64,
    /// Ceiling on the exponential rollback penalty (default
    /// [`SPEC_PENALTY_CAP`]).
    pub penalty_cap: Cycle,
}

impl Default for SpecTuning {
    fn default() -> Self {
        SpecTuning {
            depth: SPEC_DEPTH,
            depth_max: SPEC_DEPTH_MAX,
            dense_staged: 256,
            give_up_rollbacks: 6,
            penalty_cap: SPEC_PENALTY_CAP,
        }
    }
}

/// The deterministic speculation throttle. One per drive — global, not
/// per-shard — so the speculation schedule is a pure function of the
/// simulation and identical across shard counts and execution modes
/// (invariant 7): every observable [`SpecPacer::decide`] consumes is
/// globally merged state both drivers agree on at every planning round.
#[derive(Debug, Default)]
struct SpecPacer {
    tuning: SpecTuning,
    /// Conservative rounds still owed after the last rollback.
    cooldown: Cycle,
    /// Penalty the *next* rollback doubles from.
    penalty: Cycle,
    /// Consecutive committed gambles — the deepening signal.
    streak: u64,
    /// Latched when the drive's commit ratio proves speculation hopeless.
    gave_up: bool,
}

impl SpecPacer {
    /// Consulted exactly once per planning round under
    /// [`LookaheadMode::Speculative`]: `Some(depth)` approves a gamble of
    /// `depth` grid slots, `None` sits the round out. The observables:
    ///
    /// * `load` — events staged at the router plus events pending in the
    ///   shard queues ([`ShardSim::pending_len`]); above
    ///   [`SpecTuning::dense_staged`] the gamble is refused, so dense
    ///   workloads pay no speculation overhead at all. The pending half
    ///   matters: at workload startup nothing is staged yet, but the
    ///   queues already hold the full first wave — gambling there
    ///   journals every popped event for nothing;
    /// * the drive's commit/rollback counts in `outcome`; persistently
    ///   hostile workloads trip [`SpecTuning::give_up_rollbacks`] and latch
    ///   the pacer off;
    /// * the mean executed-epoch length in `outcome`; only
    ///   workloads whose epochs already run past the grid (mean ≥ 2×
    ///   `epoch`, i.e. gambles have been paying) earn commit-streak
    ///   deepening past the baseline depth.
    fn decide(&mut self, load: u64, outcome: &EpochOutcome, epoch: Cycle) -> Option<Cycle> {
        let (commits, rollbacks) = (outcome.spec_commits, outcome.spec_rollbacks);
        if self.gave_up || (rollbacks >= self.tuning.give_up_rollbacks && commits * 4 <= rollbacks)
        {
            self.gave_up = true;
            return None;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if load > self.tuning.dense_staged {
            return None;
        }
        let quiet = outcome.epochs > 0
            && outcome.epoch_cycles >= epoch.saturating_mul(2).saturating_mul(outcome.epochs);
        let depth = if quiet {
            (self.tuning.depth << (self.streak / 4).min(6)).min(self.tuning.depth_max)
        } else {
            self.tuning.depth
        };
        Some(depth.max(1))
    }

    fn committed(&mut self) {
        self.penalty = 0;
        self.streak += 1;
    }

    fn rolled_back(&mut self) {
        self.streak = 0;
        self.penalty = (self.penalty * 2).clamp(1, self.tuning.penalty_cap);
        self.cooldown = self.penalty;
    }
}

/// Summary of a completed [`run_epochs`] drive.
///
/// Every field is invariant across shard counts and execution modes: the
/// planner reads only globally merged state. `routed_events` and `aborted`
/// are invariant across lookahead modes too; the epoch-shape statistics
/// naturally differ between [`LookaheadMode::Fixed`] and
/// [`LookaheadMode::Speculative`], which is the point. The all-zero
/// `Default` is the outcome of a drive with nothing to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochOutcome {
    /// Epochs actually executed (empty epochs are skipped, not counted).
    pub epochs: u64,
    /// Epochs whose close required a cross-shard exchange (some shard
    /// emitted traffic). Mode-invariant: an epoch's emissions are part of
    /// the bit-identical schedule, so sequential and parallel runs count the
    /// same epochs. `epochs - exchanges` barriers ran exchange-free.
    pub exchanges: u64,
    /// Cross-shard events routed through the barriers.
    pub routed_events: u64,
    /// Whether the drive stopped at the cycle limit with work still pending
    /// (queued events or staged cross-shard traffic), as opposed to running
    /// until fully drained.
    pub aborted: bool,
    /// Exclusive end of the last executed epoch (0 if none ran).
    pub last_horizon: Cycle,
    /// Epochs whose executed horizon ran past their planned grid slot: every
    /// committed speculative round, and every rolled-back one whose
    /// re-execution still reached past the slot (always 0 under
    /// [`LookaheadMode::Fixed`]).
    pub extensions: u64,
    /// Total simulated cycles covered by executed epochs (saturating), so
    /// `epoch_cycles / epochs` is the mean epoch length.
    pub epoch_cycles: u64,
    /// Length of the longest executed epoch in cycles.
    pub max_epoch_len: Cycle,
    /// Speculative rounds that validated clean and committed (always 0
    /// outside [`LookaheadMode::Speculative`]). A committed round also
    /// counts as an extension — its horizon ran past the planned grid slot.
    pub spec_commits: u64,
    /// Speculative rounds that conflicted, restored their checkpoints and
    /// re-executed conservatively (always 0 outside
    /// [`LookaheadMode::Speculative`]).
    pub spec_rollbacks: u64,
    /// Simulated cycles re-executed after rollbacks (saturating) — the
    /// wasted-work measure: `spec_reexec_cycles / epoch_cycles` is the
    /// fraction of the schedule that ran twice.
    pub spec_reexec_cycles: u64,
    /// Deepest gamble attempted, in grid slots past the planned horizon
    /// (0 outside [`LookaheadMode::Speculative`] or when no round gambled).
    /// Exceeds [`SPEC_DEPTH`] only when the pacer's commit-streak deepening
    /// kicked in on a quiet workload.
    pub spec_max_depth: Cycle,
}

impl EpochOutcome {
    /// Records one executed epoch `[start, horizon)` planned on the fixed
    /// grid as `[start, planned)`.
    fn note_epoch(&mut self, start: Cycle, planned: Cycle, horizon: Cycle) {
        self.epochs += 1;
        self.last_horizon = horizon;
        if horizon > planned {
            self.extensions += 1;
        }
        let len = horizon - start;
        self.epoch_cycles = self.epoch_cycles.saturating_add(len);
        self.max_epoch_len = self.max_epoch_len.max(len);
    }

    /// Mean executed-epoch length in cycles (0 if none ran).
    pub fn mean_epoch_len(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.epoch_cycles as f64 / self.epochs as f64
        }
    }
}

/// Cross-shard events staged at the router, per destination shard.
///
/// Staging order is irrelevant (deliveries sort by the canonical key and
/// [`Router::earliest_from`] takes a minimum), which lets
/// [`Router::take_due_into`] partition with `swap_remove` instead of
/// reallocating.
struct Router<M> {
    staged: Vec<Vec<(Cycle, Stamp, M)>>,
    /// Running total across `staged`, kept in sync by `absorb` /
    /// `take_due_into` so reading it never walks the buckets. It is the
    /// router half of the pacer's load observable, and shard-count-invariant
    /// because *all* network traffic (even intra-shard) routes through here.
    staged_count: u64,
    routed: u64,
}

impl<M> Router<M> {
    fn new(shards: usize) -> Self {
        Router {
            staged: (0..shards).map(|_| Vec::new()).collect(),
            staged_count: 0,
            routed: 0,
        }
    }

    /// Absorbs a drained outbox buffer, mapping each event to its target
    /// shard. `floor` is the horizon of the epoch that emitted the events:
    /// the lookahead guarantees nothing arrives before it.
    fn absorb(
        &mut self,
        staged: &mut Vec<Outbound<M>>,
        shard_of: &dyn Fn(u32) -> usize,
        floor: Cycle,
    ) {
        for ev in staged.drain(..) {
            debug_assert!(
                ev.at >= floor,
                "lookahead violation: event for entity {} arrives at {} inside the epoch ending at {}",
                ev.target,
                ev.at,
                floor
            );
            self.routed += 1;
            self.staged_count += 1;
            self.staged[shard_of(ev.target)].push((ev.at, ev.stamp, ev.msg));
        }
    }

    /// Earliest staged arrival at or after `at` — one a
    /// `take_due_into(_, at, _)` pass leaves staged; with `at = 0`, the
    /// earliest staged arrival overall. O(1) when nothing is staged.
    fn earliest_from(&self, at: Cycle) -> Option<Cycle> {
        if self.staged_count == 0 {
            return None;
        }
        self.staged
            .iter()
            .flatten()
            .map(|&(arr, _, _)| arr)
            .filter(|&arr| arr >= at)
            .min()
    }

    /// Moves the events for shard `dst` arriving before `horizon` into
    /// `out`, in canonical `(arrival, origin, seq)` order. `out` must be
    /// empty; its capacity is reused across epochs.
    fn take_due_into(&mut self, dst: usize, horizon: Cycle, out: &mut Vec<(Cycle, Stamp, M)>) {
        debug_assert!(out.is_empty());
        let pending = &mut self.staged[dst];
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 < horizon {
                out.push(pending.swap_remove(i));
                self.staged_count -= 1;
            } else {
                i += 1;
            }
        }
        // The canonical key is globally unique ((origin, seq) never repeats),
        // so this sort is a total order and the extraction order above is
        // immaterial.
        out.sort_unstable_by_key(|(at, stamp, _)| (*at, *stamp));
    }
}

/// Plans the next epoch: the epoch-grid slot containing the earliest pending
/// work, or `None` when everything has drained.
fn next_epoch(
    next_events: impl Iterator<Item = Option<Cycle>>,
    next_arrival: Option<Cycle>,
    epoch: Cycle,
) -> Option<(Cycle, Cycle)> {
    let earliest = next_events.flatten().chain(next_arrival).min()?;
    let start = (earliest / epoch) * epoch;
    Some((start, start.saturating_add(epoch)))
}

/// Horizon of the last epoch the fixed grid can execute before `max_cycles`
/// aborts the run. Gambled horizons never cross it, which is what makes an
/// aborted run process the exact same event set under either
/// [`LookaheadMode`]: both process every reachable event strictly before
/// this cycle, then abort (the next plan's start exceeds `max_cycles` iff
/// the earliest remaining event is at or past it).
fn epoch_limit(max_cycles: Cycle, epoch: Cycle) -> Cycle {
    ((max_cycles / epoch) * epoch).saturating_add(epoch)
}

/// The horizon a speculative round gambles on: `depth` grid slots (the
/// pacer's [`SpecPacer::decide`] answer) past `planned`, clipped by the
/// grid slot of the earliest *staged* arrival at or past `planned` (those
/// deliveries must happen at their own epoch starts; speculation never
/// skips a delivery point) and by `limit` (abort exactness, see
/// [`epoch_limit`]). Returns `planned` itself when there is no room to
/// speculate.
///
/// The result is always a grid point. That is required for bit-identity:
/// an arrival enters its destination queue at its delivering epoch's grid
/// boundary, *before* any same-cycle event scheduled by a pop past that
/// boundary, so an off-grid horizon would flip same-cycle insertion order.
fn spec_horizon(
    planned: Cycle,
    held_arrival: Option<Cycle>,
    epoch: Cycle,
    limit: Cycle,
    depth: Cycle,
) -> Cycle {
    let grid = |at: Cycle| (at / epoch) * epoch;
    let deep = planned.saturating_add(epoch.saturating_mul(depth));
    let clip = held_arrival.map_or(Cycle::MAX, grid);
    planned.max(deep.min(clip).min(limit))
}

/// One planned epoch: `[start, horizon)`, planned on the fixed grid as
/// `[start, planned)`. Arrivals due before `planned` are delivered at its
/// start in every lookahead mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    start: Cycle,
    planned: Cycle,
    horizon: Cycle,
}

/// What one planning round tells the executor to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// Every queue and the router have drained.
    Done,
    /// The next epoch would start past `max_cycles` with work pending.
    Abort,
    /// Deliver, then advance every shard to the window's horizon.
    Run(Window),
    /// Deliver, snapshot, then advance to the gambled horizon with the
    /// emissions held aside; [`Planner::resolve`] settles the round.
    Spec(Window),
}

/// The epoch planner both executors share. It owns the router, the
/// speculation pacer and the accumulating [`EpochOutcome`], and makes every
/// schedule decision exactly once: fast-forward and abort, the gamble and
/// its verdict, and the epoch and exchange accounting. The executors only
/// move events and advance shards, so the two cannot disagree on the
/// schedule (invariant 7).
struct Planner<M> {
    router: Router<M>,
    pacer: SpecPacer,
    outcome: EpochOutcome,
    /// The round being executed. It is recorded into the outcome when the
    /// next round is planned, by which time a gamble's verdict is known.
    current: Option<Window>,
    /// Whether `current` has routed any emissions — an exchange.
    exchanged: bool,
    epoch: Cycle,
    max_cycles: Cycle,
    /// Gamble ceiling (see [`epoch_limit`]).
    limit: Cycle,
    lookahead: LookaheadMode,
}

impl<M> Planner<M> {
    /// Plans the next round from every shard's earliest pending event.
    /// `load` (the summed [`ShardSim::pending_len`]) is called only under
    /// [`LookaheadMode::Speculative`], and the held-arrival scan runs only
    /// once the pacer approves a gamble. A refused round thus costs what a
    /// fixed-lookahead one does.
    fn plan(
        &mut self,
        next_events: impl Iterator<Item = Option<Cycle>>,
        load: impl FnOnce() -> u64,
    ) -> Round {
        if let Some(done) = self.current.take() {
            self.outcome
                .note_epoch(done.start, done.planned, done.horizon);
            if std::mem::take(&mut self.exchanged) {
                self.outcome.exchanges += 1;
            }
        }
        let Some((start, planned)) =
            next_epoch(next_events, self.router.earliest_from(0), self.epoch)
        else {
            return Round::Done;
        };
        if start > self.max_cycles {
            self.outcome.aborted = true;
            return Round::Abort;
        }
        let horizon = match self.lookahead {
            LookaheadMode::Fixed => planned,
            LookaheadMode::Speculative => {
                let load = self.router.staged_count + load();
                // A refused gamble (pacer cooldown, or no room past the
                // planned slot) runs on the fixed grid.
                let decision = self.pacer.decide(load, &self.outcome, self.epoch);
                decision.map_or(planned, |depth| {
                    let held = self.router.earliest_from(planned);
                    spec_horizon(planned, held, self.epoch, self.limit, depth)
                })
            }
        };
        let window = Window {
            start,
            planned,
            horizon,
        };
        self.current = Some(window);
        if horizon > planned {
            let depth = (horizon - planned) / self.epoch;
            self.outcome.spec_max_depth = self.outcome.spec_max_depth.max(depth);
            return Round::Spec(window);
        }
        Round::Run(window)
    }

    /// [`Planner::plan`] read straight off the shards: every round of the
    /// sequential executor and the first round of the parallel one.
    fn plan_shards<S: ShardSim<Msg = M>>(&mut self, shards: &[S]) -> Round {
        self.plan(shards.iter().map(|s| s.next_event_time()), || {
            shards.iter().map(|s| s.pending_len()).sum()
        })
    }

    /// Moves the arrivals for shard `shard` due before `planned` into
    /// `inbound`, in canonical order. Deliveries use the *planned* grid
    /// horizon: the gamble clip guarantees nothing is staged in
    /// `[planned, horizon)`, and the grid boundary is the delivery point
    /// both lookahead modes share.
    fn deliver(&mut self, shard: usize, planned: Cycle, inbound: &mut Vec<(Cycle, Stamp, M)>) {
        if self.router.staged_count > 0 {
            self.router.take_due_into(shard, planned, inbound);
        }
    }

    /// Routes a drained outbox buffer; a non-empty one makes the round an
    /// exchange. `floor` is the horizon of the round that emitted it: the
    /// lookahead guarantees nothing arrives before it.
    fn absorb(
        &mut self,
        staged: &mut Vec<Outbound<M>>,
        shard_of: &dyn Fn(u32) -> usize,
        floor: Cycle,
    ) {
        self.exchanged |= !staged.is_empty();
        self.router.absorb(staged, shard_of, floor);
    }

    /// Settles the speculative round in flight, given the earliest arrival
    /// among its held emissions. `None` commits: nothing lands inside the
    /// window, so the executor routes the held emissions with the gambled
    /// horizon as their floor. `Some(commit)` rolls back: an arrival `a`
    /// lands inside the window, so every shard restores its checkpoint and
    /// re-executes to `commit = grid(a)`, the last grid point `a` cannot
    /// reach. The re-run is a prefix of the gamble, so its emissions all
    /// arrive at or past `a >= commit`, and `commit` is a sound floor for
    /// them too.
    fn resolve(&mut self, held: Option<Cycle>) -> Option<Cycle> {
        let round = self.current.as_mut().expect("a gamble is in flight");
        let rollback = held
            .filter(|&a| a < round.horizon)
            .map(|a| round.planned.max((a / self.epoch) * self.epoch));
        let o = &mut self.outcome;
        match rollback {
            None => {
                o.spec_commits += 1;
                self.pacer.committed();
            }
            Some(commit) => {
                o.spec_rollbacks += 1;
                o.spec_reexec_cycles = o.spec_reexec_cycles.saturating_add(commit - round.start);
                round.horizon = commit;
                self.pacer.rolled_back();
            }
        }
        rollback
    }

    fn into_outcome(self) -> EpochOutcome {
        EpochOutcome {
            routed_events: self.router.routed,
            ..self.outcome
        }
    }
}

/// Drives `shards` in lock-step epochs of `epoch` cycles until every queue
/// and every in-flight cross-shard event has drained, or until the first
/// epoch starting beyond `max_cycles`.
///
/// `shard_of` maps a global entity index (the `target` of
/// [`Outbox::send`]) to the index of the shard that owns it. `epoch` must
/// not exceed the model's minimum cross-shard latency (debug-asserted while
/// routing) and must be non-zero.
///
/// Empty stretches of simulated time are skipped: the driver fast-forwards
/// to the epoch-grid slot containing the earliest pending event, so idle
/// machines cost nothing. The epoch grid itself (multiples of `epoch`) is
/// fixed, which keeps delivery points — and therefore results — independent
/// of the fast-forwarding. Under [`LookaheadMode::Speculative`] rounds may
/// gamble past the grid slot (see the module docs); deliveries still happen
/// at the planned grid boundary, so results are bit-identical across
/// lookahead modes too.
///
/// # Panics
///
/// Panics if `epoch` is zero or `shards` is empty.
pub fn run_epochs<S: ShardSim>(
    shards: &mut [S],
    shard_of: &(dyn Fn(u32) -> usize + Sync),
    epoch: Cycle,
    max_cycles: Cycle,
    mode: ExecMode,
    lookahead: LookaheadMode,
    tuning: SpecTuning,
) -> EpochOutcome {
    assert!(epoch > 0, "epoch length must be non-zero");
    assert!(!shards.is_empty(), "need at least one shard");
    let planner = Planner {
        router: Router::new(shards.len()),
        pacer: SpecPacer {
            tuning,
            ..SpecPacer::default()
        },
        outcome: EpochOutcome::default(),
        current: None,
        exchanged: false,
        epoch,
        max_cycles,
        limit: epoch_limit(max_cycles, epoch),
        lookahead,
    };
    match mode {
        ExecMode::Sequential => run_sequential(shards, shard_of, planner),
        ExecMode::Parallel => run_parallel(shards, shard_of, planner),
    }
}

fn run_sequential<S: ShardSim>(
    shards: &mut [S],
    shard_of: &dyn Fn(u32) -> usize,
    mut planner: Planner<S::Msg>,
) -> EpochOutcome {
    let mut outbox = Outbox::new();
    let mut inbound: Vec<(Cycle, Stamp, S::Msg)> = Vec::new();
    // Speculation state, allocated lazily on the first speculative round:
    // one reusable checkpoint buffer and one held-aside outbox per shard.
    let mut checkpoints: Vec<S::Checkpoint> = Vec::new();
    let mut held: Vec<Outbox<S::Msg>> = Vec::new();
    loop {
        let (window, gamble) = match planner.plan_shards(shards) {
            Round::Done | Round::Abort => return planner.into_outcome(),
            Round::Run(window) => (window, false),
            Round::Spec(window) => (window, true),
        };
        if gamble && checkpoints.is_empty() {
            checkpoints = shards.iter().map(|_| S::Checkpoint::default()).collect();
            held = shards.iter().map(|_| Outbox::new()).collect();
        }
        for (i, shard) in shards.iter_mut().enumerate() {
            // A gamble delivers *before* its snapshot, so a restore rewinds
            // to a state that already owns the round's arrivals.
            planner.deliver(i, window.planned, &mut inbound);
            for (at, _, msg) in inbound.drain(..) {
                shard.accept(at, msg);
            }
            if gamble {
                shard.snapshot(&mut checkpoints[i]);
                shard.advance(window.horizon, &mut held[i]);
            } else {
                shard.advance(window.horizon, &mut outbox);
                planner.absorb(&mut outbox.staged, shard_of, window.horizon);
            }
        }
        if !gamble {
            continue;
        }
        let earliest = held.iter().filter_map(Outbox::earliest_arrival).min();
        match planner.resolve(earliest) {
            None => {
                for (shard, out) in shards.iter_mut().zip(&mut held) {
                    shard.commit_speculation();
                    planner.absorb(&mut out.staged, shard_of, window.horizon);
                }
            }
            Some(commit) => {
                for ((shard, out), checkpoint) in shards.iter_mut().zip(&mut held).zip(&checkpoints)
                {
                    out.staged.clear();
                    shard.restore(checkpoint);
                    shard.advance(commit, &mut outbox);
                    planner.absorb(&mut outbox.staged, shard_of, commit);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel worker pool
// ---------------------------------------------------------------------------

/// `next_event` sentinel for "shard has no pending events".
const NO_EVENT: u64 = u64::MAX;

/// Published plan states (`Shared::plan_state`).
const PLAN_RUN: u64 = 0;
/// The drive is over (drained or aborted); workers exit.
const PLAN_STOP: u64 = 1;
/// Speculative round: snapshot, then run to the published (optimistic)
/// horizon with emissions held for validation.
const PLAN_SPEC: u64 = 2;
/// Rollback round: restore the checkpoint and re-execute conservatively to
/// the published (validated) horizon.
const PLAN_REEXEC: u64 = 3;

/// The `(plan_state, plan_horizon)` pair that publishes `round`.
fn publication(round: Round) -> (u64, Cycle) {
    match round {
        Round::Done | Round::Abort => (PLAN_STOP, 0),
        Round::Run(window) => (PLAN_RUN, window.horizon),
        Round::Spec(window) => (PLAN_SPEC, window.horizon),
    }
}

/// Spins before a waiting worker parks. Zero when the host has a single
/// core: there, every spin steals the quantum from the worker being waited
/// on. On multi-core hosts a short spin window catches the common case
/// (another core publishes within nanoseconds) without a syscall.
fn spin_limit() -> u32 {
    static LIMIT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *LIMIT.get_or_init(|| match std::thread::available_parallelism() {
        Ok(cores) if cores.get() > 1 => 256,
        _ => 0,
    })
}

/// Per-worker communication slot. Workers write their own slot between
/// barriers; the barrier's finisher reads and refills every slot while the
/// other workers wait, so the mutexes are never contended.
struct Slot<M> {
    /// The shard's earliest pending event after its last epoch (`NO_EVENT`
    /// when drained).
    next_event: AtomicU64,
    /// Events due in the epoch being published, in canonical order. Filled
    /// by the finisher, drained by the owning worker; capacity is reused.
    inbound: Mutex<Vec<(Cycle, Stamp, M)>>,
    /// The shard's emissions from the epoch just executed. Swapped in by the
    /// owning worker (only when non-empty — the exchange-skip fast path),
    /// drained by the finisher; capacity is reused.
    outbound: Mutex<Vec<Outbound<M>>>,
    /// The worker's thread handle, registered before its first wait so any
    /// finisher can unpark it.
    thread: Mutex<Option<Thread>>,
    /// Earliest arrival among the shard's emissions from the speculative
    /// round just executed (`NO_EVENT` when it emitted nothing). The
    /// finisher validates the round against the minimum over all slots.
    spec_min: AtomicU64,
    /// The shard's pending-event count after its last epoch
    /// ([`ShardSim::pending_len`]) — the planner sums the slots into the
    /// pacer's load observable. Only written under
    /// [`LookaheadMode::Speculative`].
    pending: AtomicU64,
}

/// State shared by the worker pool: the per-slot hand-off, the barrier, the
/// published plan and the planner.
struct Shared<M> {
    slots: Vec<Slot<M>>,
    /// Only a barrier's finisher locks the planner, while every other
    /// worker waits, and it unlocks before publishing — so the lock is
    /// never contended.
    planner: Mutex<Planner<M>>,
    /// Workers arrived at the current epoch's barrier. The worker that
    /// brings it to `slots.len()` becomes the finisher.
    arrived: AtomicUsize,
    /// Barrier generation: bumped (release) once per published plan;
    /// workers acquire it to observe the plan.
    generation: AtomicU64,
    /// Raised by any worker whose epoch emitted cross-shard traffic;
    /// cleared by the finisher. Clear means the exchange can be skipped.
    any_traffic: AtomicBool,
    /// `PLAN_RUN`, `PLAN_STOP`, `PLAN_SPEC` or `PLAN_REEXEC`.
    plan_state: AtomicU64,
    /// Exclusive end of the published epoch.
    plan_horizon: AtomicU64,
    /// Raised by a panicking worker's drop guard so the others stop waiting
    /// and the scope can propagate the panic.
    poisoned: AtomicBool,
}

impl<M> Shared<M> {
    fn unpark_all(&self) {
        for slot in &self.slots {
            if let Some(thread) = &*slot.thread.lock().unwrap() {
                thread.unpark();
            }
        }
    }

    /// Publishes a plan and releases every waiting worker.
    fn publish(&self, state: u64, horizon: Cycle) {
        self.plan_state.store(state, Ordering::Relaxed);
        self.plan_horizon.store(horizon, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Release);
        self.unpark_all();
    }

    /// Waits until the generation moves past `seen` (or the pool is
    /// poisoned), returning the new generation. Spins briefly (multi-core
    /// hosts only), then parks; the unpark token set by [`Shared::publish`]
    /// makes the handoff race-free, and the generous timeout turns any lost
    /// wakeup into a stall instead of a deadlock.
    fn wait_past(&self, seen: u64) -> u64 {
        let mut spins = 0u32;
        loop {
            let generation = self.generation.load(Ordering::Acquire);
            if generation != seen || self.poisoned.load(Ordering::Relaxed) {
                return generation;
            }
            if spins < spin_limit() {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park_timeout(Duration::from_millis(5));
            }
        }
    }
}

/// Wakes the pool if its thread unwinds, so a worker panic propagates as a
/// panic instead of deadlocking the barrier.
struct PoisonOnPanic<'a, M>(&'a Shared<M>);

impl<M> Drop for PoisonOnPanic<'_, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
            self.0.generation.fetch_add(1, Ordering::Release);
            self.0.unpark_all();
        }
    }
}

/// Reads an atomic slot field, mapping the `NO_EVENT` sentinel to `None`.
fn slot_time(at: &AtomicU64) -> Option<Cycle> {
    let at = at.load(Ordering::Relaxed);
    (at != NO_EVENT).then_some(at)
}

/// The barrier finisher: settles the round the workers just executed
/// (published as `state` up to `horizon`), routes its emissions (only if
/// any), plans the next round, hands out its due arrivals and publishes it.
fn finish<M: Send>(
    shared: &Shared<M>,
    shard_of: &(dyn Fn(u32) -> usize + Sync),
    state: u64,
    horizon: Cycle,
) {
    // Reset the barrier before releasing anyone: released workers start
    // arriving at the *next* barrier immediately.
    shared.arrived.store(0, Ordering::Relaxed);
    let slots = &shared.slots;
    let mut planner = shared.planner.lock().unwrap();
    if state == PLAN_SPEC {
        let earliest = slots.iter().filter_map(|s| slot_time(&s.spec_min)).min();
        if let Some(commit) = planner.resolve(earliest) {
            // Discard the speculative emissions — the re-execution re-emits
            // the surviving prefix itself — and reset the traffic flag so
            // only re-executed emissions count.
            shared.any_traffic.store(false, Ordering::Relaxed);
            for slot in slots {
                slot.outbound.lock().unwrap().clear();
            }
            drop(planner);
            shared.publish(PLAN_REEXEC, commit);
            return;
        }
    }
    // The exchange-skip fast path: nothing emitted, nothing to absorb.
    if shared.any_traffic.swap(false, Ordering::Relaxed) {
        for slot in slots {
            planner.absorb(&mut slot.outbound.lock().unwrap(), shard_of, horizon);
        }
    }
    let round = planner.plan(slots.iter().map(|s| slot_time(&s.next_event)), || {
        slots
            .iter()
            .map(|s| s.pending.load(Ordering::Relaxed))
            .sum()
    });
    if let Round::Run(window) | Round::Spec(window) = round {
        for (i, slot) in slots.iter().enumerate() {
            planner.deliver(i, window.planned, &mut slot.inbound.lock().unwrap());
        }
    }
    let (state, horizon) = publication(round);
    drop(planner);
    shared.publish(state, horizon);
}

/// One worker's run loop: wait for a plan, deliver the inbound, advance the
/// shard, hand over emissions, arrive at the barrier (finishing it if last).
///
/// Speculative rounds split the normal body in two: `PLAN_SPEC` delivers
/// the inbound, snapshots into the worker-local checkpoint and runs
/// optimistically (emission minimum reported via `Slot::spec_min`);
/// `PLAN_REEXEC` restores the checkpoint and re-runs conservatively. The
/// checkpoint lives on the worker's stack — it is never shared.
fn run_worker<S: ShardSim>(
    shard: &mut S,
    index: usize,
    shared: &Shared<S::Msg>,
    shard_of: &(dyn Fn(u32) -> usize + Sync),
    lookahead: LookaheadMode,
) {
    let slot = &shared.slots[index];
    *slot.thread.lock().unwrap() = Some(std::thread::current());
    let _poison = PoisonOnPanic(shared);
    let mut outbox = Outbox::new();
    let mut checkpoint = S::Checkpoint::default();
    let mut generation = 0u64;
    // Whether the previous round speculated from this shard's checkpoint —
    // resolved here, at the start of the next round, once the plan state
    // reveals the verdict (re-execute = rolled back, anything else =
    // committed).
    let mut speculated = false;
    loop {
        generation = shared.wait_past(generation);
        if shared.poisoned.load(Ordering::Relaxed) {
            break;
        }
        let state = shared.plan_state.load(Ordering::Relaxed);
        if state == PLAN_STOP {
            break;
        }
        let horizon = shared.plan_horizon.load(Ordering::Relaxed);
        if state != PLAN_REEXEC {
            if speculated {
                shard.commit_speculation();
            }
            // A rollback re-executes from the checkpoint: its due arrivals
            // were already delivered before the snapshot was taken.
            let mut inbound = slot.inbound.lock().unwrap();
            for (at, _, msg) in inbound.drain(..) {
                shard.accept(at, msg);
            }
        } else {
            shard.restore(&checkpoint);
        }
        speculated = state == PLAN_SPEC;
        if state == PLAN_SPEC {
            shard.snapshot(&mut checkpoint);
        }
        shard.advance(horizon, &mut outbox);
        if state == PLAN_SPEC {
            let a_min = outbox.earliest_arrival().unwrap_or(NO_EVENT);
            slot.spec_min.store(a_min, Ordering::Relaxed);
        }
        if !outbox.is_empty() {
            shared.any_traffic.store(true, Ordering::Relaxed);
            let mut outbound = slot.outbound.lock().unwrap();
            debug_assert!(outbound.is_empty(), "previous epoch's emissions unrouted");
            std::mem::swap(&mut *outbound, &mut outbox.staged);
        }
        slot.next_event.store(
            shard.next_event_time().unwrap_or(NO_EVENT),
            Ordering::Relaxed,
        );
        // Only the speculative planner reads the load slot (and
        // `pending_len` is O(1), so this costs one store).
        if lookahead == LookaheadMode::Speculative {
            slot.pending.store(shard.pending_len(), Ordering::Relaxed);
        }
        // The release half of this increment publishes everything the worker
        // wrote above; the finisher's acquire half (reading the last value of
        // the release sequence) observes all of it.
        let arrived = shared.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == shared.slots.len() {
            finish(shared, shard_of, state, horizon);
        }
    }
}

fn run_parallel<S: ShardSim>(
    shards: &mut [S],
    shard_of: &(dyn Fn(u32) -> usize + Sync),
    mut planner: Planner<S::Msg>,
) -> EpochOutcome {
    let lookahead = planner.lookahead;
    // Round one is planned on the calling thread, before any worker exists;
    // the barrier finishers plan every later round.
    let round = planner.plan_shards(shards);
    let (state, horizon) = publication(round);
    if state == PLAN_STOP {
        return planner.into_outcome();
    }
    let shared = Shared {
        slots: shards
            .iter()
            .map(|_| Slot {
                next_event: AtomicU64::new(NO_EVENT),
                inbound: Mutex::new(Vec::new()),
                outbound: Mutex::new(Vec::new()),
                thread: Mutex::new(None),
                spec_min: AtomicU64::new(NO_EVENT),
                pending: AtomicU64::new(0),
            })
            .collect(),
        planner: Mutex::new(planner),
        arrived: AtomicUsize::new(0),
        // The initial plan is published before any worker starts waiting.
        generation: AtomicU64::new(1),
        any_traffic: AtomicBool::new(false),
        plan_state: AtomicU64::new(state),
        plan_horizon: AtomicU64::new(horizon),
        poisoned: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        for (index, shard) in shards.iter_mut().enumerate() {
            let shared = &shared;
            scope.spawn(move || run_worker(shard, index, shared, shard_of, lookahead));
        }
        // The scope join is the only wait: the pool drives itself to
        // completion (or to a propagating panic).
    });
    shared.planner.into_inner().unwrap().into_outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    const LATENCY: Cycle = 10;

    /// A toy model: `n` counters pass tokens around a ring with a fixed
    /// latency, each hop charging the receiving counter. Between hops each
    /// counter grinds through `local_work` purely local events (one per
    /// epoch-length stride), so rings with large `local_work` spend most
    /// epochs emitting nothing — the exchange-skip regime. Deterministic and
    /// (for `local_work = 0`) communication-heavy, so it exercises routing,
    /// stamps, epochs and the quiescent fast path. Like the machine model's
    /// fragments, the message carries its destination so `accept` can
    /// address the exact entity.
    #[derive(Debug, Clone)]
    enum Ev {
        Hop { dst: u32, token: u64 },
        Local { dst: u32, left: u64 },
    }

    /// Everything a [`RingShard`] mutates while advancing; the immutable
    /// configuration (`base`, `total`, `local_work`) is not captured.
    #[derive(Default)]
    struct RingCheckpoint {
        hops_left: Vec<u64>,
        sum: Vec<u64>,
        seq: Vec<u64>,
        events: Option<EventQueue<(u32, Ev)>>,
    }

    struct RingShard {
        base: u32,
        total: u32,
        local_work: u64,
        hops_left: Vec<u64>,
        sum: Vec<u64>,
        seq: Vec<u64>,
        events: EventQueue<(u32, Ev)>,
    }

    impl RingShard {
        fn new(base: u32, count: u32, total: u32, hops: u64, local_work: u64) -> Self {
            let mut events = EventQueue::new();
            for i in 0..count {
                // Every counter starts with one token at cycle `global id`.
                events.schedule(
                    u64::from(base + i),
                    (
                        base + i,
                        Ev::Hop {
                            dst: base + i,
                            token: 1,
                        },
                    ),
                );
            }
            RingShard {
                base,
                total,
                local_work,
                hops_left: vec![hops; count as usize],
                sum: vec![0; count as usize],
                seq: vec![0; count as usize],
                events,
            }
        }

        fn hop(&mut self, id: u32, token: u64, now: Cycle, outbox: &mut Outbox<Ev>) {
            let slot = (id - self.base) as usize;
            if self.hops_left[slot] == 0 {
                return;
            }
            self.hops_left[slot] -= 1;
            let next = (id + 1) % self.total;
            let stamp = Stamp {
                origin: id,
                seq: self.seq[slot],
            };
            self.seq[slot] += 1;
            outbox.send(
                next,
                now + LATENCY,
                stamp,
                Ev::Hop {
                    dst: next,
                    token: token + 1,
                },
            );
        }
    }

    impl ShardSim for RingShard {
        type Msg = Ev;
        type Checkpoint = RingCheckpoint;

        fn snapshot(&mut self, into: &mut Self::Checkpoint) {
            into.hops_left.clone_from(&self.hops_left);
            into.sum.clone_from(&self.sum);
            into.seq.clone_from(&self.seq);
            into.events = Some(self.events.clone());
        }

        fn restore(&mut self, from: &Self::Checkpoint) {
            self.hops_left.clone_from(&from.hops_left);
            self.sum.clone_from(&from.sum);
            self.seq.clone_from(&from.seq);
            self.events = from
                .events
                .as_ref()
                .expect("restore before snapshot")
                .clone();
        }

        fn accept(&mut self, at: Cycle, msg: Self::Msg) {
            let dst = match &msg {
                Ev::Hop { dst, .. } | Ev::Local { dst, .. } => *dst,
            };
            self.events.schedule(at, (dst, msg));
        }

        fn advance(&mut self, horizon: Cycle, outbox: &mut Outbox<Self::Msg>) {
            while let Some((now, (id, event))) = self.events.pop_before(horizon) {
                match event {
                    Ev::Hop { token, .. } => {
                        let slot = (id - self.base) as usize;
                        self.sum[slot] = self.sum[slot].wrapping_mul(31).wrapping_add(token ^ now);
                        if self.local_work > 0 {
                            // Grind locally before passing the token on; the
                            // grind is node-local, so these epochs emit
                            // nothing.
                            self.events.schedule(
                                now + LATENCY,
                                (
                                    id,
                                    Ev::Local {
                                        dst: id,
                                        left: self.local_work,
                                    },
                                ),
                            );
                        } else {
                            self.hop(id, token, now, outbox);
                        }
                    }
                    Ev::Local { left, .. } => {
                        let slot = (id - self.base) as usize;
                        self.sum[slot] = self.sum[slot].wrapping_mul(17).wrapping_add(now);
                        if left > 1 {
                            self.events.schedule(
                                now + LATENCY,
                                (
                                    id,
                                    Ev::Local {
                                        dst: id,
                                        left: left - 1,
                                    },
                                ),
                            );
                        } else {
                            let token = self.sum[slot];
                            self.hop(id, token, now, outbox);
                        }
                    }
                }
            }
        }

        fn next_event_time(&self) -> Option<Cycle> {
            self.events.peek_time()
        }

        fn pending_len(&self) -> u64 {
            self.events.len() as u64
        }
    }

    fn run_ring_with(
        total: u32,
        shard_count: u32,
        hops: u64,
        local_work: u64,
        mode: ExecMode,
        lookahead: LookaheadMode,
    ) -> (Vec<u64>, EpochOutcome) {
        run_ring_until(
            total,
            shard_count,
            hops,
            local_work,
            Cycle::MAX,
            mode,
            lookahead,
        )
    }

    fn run_ring_until(
        total: u32,
        shard_count: u32,
        hops: u64,
        local_work: u64,
        max_cycles: Cycle,
        mode: ExecMode,
        lookahead: LookaheadMode,
    ) -> (Vec<u64>, EpochOutcome) {
        let mut shards = Vec::new();
        let per = total / shard_count;
        for s in 0..shard_count {
            let base = s * per;
            let count = if s == shard_count - 1 {
                total - base
            } else {
                per
            };
            shards.push(RingShard::new(base, count, total, hops, local_work));
        }
        let bounds: Vec<u32> = (0..shard_count).map(|s| s * per).collect();
        let shard_of = move |node: u32| -> usize { bounds.partition_point(|&b| b <= node) - 1 };
        let outcome = run_epochs(
            &mut shards,
            &shard_of,
            LATENCY,
            max_cycles,
            mode,
            lookahead,
            SpecTuning::default(),
        );
        let mut sums = Vec::new();
        for shard in &shards {
            sums.extend_from_slice(&shard.sum);
        }
        (sums, outcome)
    }

    fn run_ring(
        total: u32,
        shard_count: u32,
        hops: u64,
        mode: ExecMode,
    ) -> (Vec<u64>, EpochOutcome) {
        run_ring_with(total, shard_count, hops, 0, mode, LookaheadMode::Fixed)
    }

    #[test]
    fn sharded_ring_is_invariant_across_shard_counts_and_modes() {
        // The dense ring and the grinding ring. Results must match the
        // fixed single-shard run everywhere, and the whole epoch outcome
        // must match the single-shard run of the same lookahead mode: the
        // planner reads only globally merged state.
        for (total, hops, local_work) in [(12, 40, 0), (6, 4, 30)] {
            let run = |shards, mode, lookahead| {
                run_ring_with(total, shards, hops, local_work, mode, lookahead)
            };
            let (reference, _) = run(1, ExecMode::Sequential, LookaheadMode::Fixed);
            for lookahead in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
                let (_, outcome) = run(1, ExecMode::Sequential, lookahead);
                for shard_count in [1, 2, 3, 4] {
                    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                        let (sums, other) = run(shard_count, mode, lookahead);
                        let case =
                            format!("{total}-ring, {shard_count} shards {mode:?} ({lookahead})");
                        assert_eq!(sums, reference, "{case} diverged");
                        assert_eq!(other, outcome, "{case} changed the epoch outcome");
                    }
                }
            }
        }
    }

    #[test]
    fn drive_terminates_and_counts_epochs() {
        let (_, outcome) = run_ring(4, 2, 5, ExecMode::Sequential);
        assert!(!outcome.aborted);
        assert!(outcome.epochs > 0);
        assert!(outcome.routed_events > 0);
        assert!(outcome.last_horizon > 0);
        assert!(outcome.exchanges <= outcome.epochs);
    }

    #[test]
    fn quiescent_epochs_skip_the_exchange() {
        // 30 local grind events between consecutive hops: the overwhelming
        // majority of epochs emit nothing and must not count as exchanges.
        // Pinned to fixed lookahead — speculation collapses those quiet
        // epochs (covered below), which would defeat the "many epochs, few
        // exchanges" shape this test needs.
        let fixed = LookaheadMode::Fixed;
        let (reference, seq) = run_ring_with(6, 1, 4, 30, ExecMode::Sequential, fixed);
        for shard_count in [2, 3] {
            let (sums, outcome) = run_ring_with(6, shard_count, 4, 30, ExecMode::Sequential, fixed);
            assert_eq!(sums, reference, "{shard_count} sequential shards diverged");
            assert_eq!(outcome, seq, "sequential outcome changed with sharding");
            let (sums, outcome) = run_ring_with(6, shard_count, 4, 30, ExecMode::Parallel, fixed);
            assert_eq!(sums, reference, "{shard_count} parallel shards diverged");
            assert_eq!(
                outcome.exchanges, seq.exchanges,
                "exchange count must be mode-invariant"
            );
            assert_eq!(outcome.epochs, seq.epochs);
        }
        assert!(
            seq.exchanges * 4 < seq.epochs,
            "grinding ring should skip most exchanges: {} of {} epochs exchanged",
            seq.exchanges,
            seq.epochs
        );
    }

    #[test]
    fn speculative_commits_on_quiet_rings_and_rolls_back_on_dense_ones() {
        // The grinding ring is speculation's best case: long emission-free
        // stretches mean most gambles validate cleanly and each commit
        // swallows up to SPEC_DEPTH grid slots.
        let (reference, fixed) =
            run_ring_with(6, 1, 4, 30, ExecMode::Sequential, LookaheadMode::Fixed);
        let (sums, spec) = run_ring_with(
            6,
            1,
            4,
            30,
            ExecMode::Sequential,
            LookaheadMode::Speculative,
        );
        assert_eq!(sums, reference, "speculation changed simulated results");
        assert_eq!(spec.routed_events, fixed.routed_events);
        assert!(spec.spec_commits > 0, "quiet ring should commit gambles");
        assert!(
            spec.epochs * 2 < fixed.epochs,
            "commits should collapse the grind: {} vs {} fixed epochs",
            spec.epochs,
            fixed.epochs
        );
        // The dense ring is the adversarial case: every slot carries a hop,
        // so gambles keep colliding with arrivals and roll back. Results
        // still must not move — that is the whole point.
        let (dense_ref, _) = run_ring(12, 1, 40, ExecMode::Sequential);
        let (dense_sums, dense) = run_ring_with(
            12,
            1,
            40,
            0,
            ExecMode::Sequential,
            LookaheadMode::Speculative,
        );
        assert_eq!(dense_sums, dense_ref, "rollback changed simulated results");
        assert!(dense.spec_rollbacks > 0, "dense ring should roll back");
    }

    #[test]
    fn speculative_outcome_is_invariant_across_shards_and_modes() {
        // Every speculation decision (gamble horizon, validation minimum,
        // pacer cooldown) is a function of global state only, so the whole
        // commit/rollback schedule — not just the results — must be
        // identical for any sharding and either driver.
        for (total, hops, local_work) in [(6, 4, 30), (12, 40, 0)] {
            let (reference, outcome) = run_ring_with(
                total,
                1,
                hops,
                local_work,
                ExecMode::Sequential,
                LookaheadMode::Speculative,
            );
            for shard_count in [2, 3] {
                for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                    let (sums, other) = run_ring_with(
                        total,
                        shard_count,
                        hops,
                        local_work,
                        mode,
                        LookaheadMode::Speculative,
                    );
                    assert_eq!(sums, reference, "{shard_count} shards {mode:?} diverged");
                    assert_eq!(
                        other, outcome,
                        "speculation schedule changed with {shard_count} shards {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn grinding_ring_epoch_schedule_is_pinned() {
        // Exact epoch-shape pins for one known schedule (6 counters, 4 hops,
        // 30-link grind chains). A planner change that moves any of these
        // numbers is observable in RESULTS.md — it must fail here first, not
        // surface as a silent benchmark drift.
        let (_, fixed) = run_ring_with(6, 2, 4, 30, ExecMode::Sequential, LookaheadMode::Fixed);
        let (_, spec) = run_ring_with(
            6,
            2,
            4,
            30,
            ExecMode::Sequential,
            LookaheadMode::Speculative,
        );
        for (name, outcome) in [("fixed", &fixed), ("spec", &spec)] {
            assert_eq!(
                outcome.routed_events, 24,
                "{name}: 6 counters hop 4 times each"
            );
            assert!(!outcome.aborted, "{name}");
        }
        assert_eq!(fixed.epochs, 155);
        assert_eq!(fixed.extensions, 0);
        assert_eq!(fixed.epoch_cycles, 1550);
        assert_eq!(fixed.max_epoch_len, LATENCY);
        // Speculation executes the same event set on a different epoch grid:
        // a clean final gamble may run past the last event, so its cycle sum
        // can exceed the fixed grid's — only the *results* are pinned equal.
        // The commit-streak deepening shows up here: after four consecutive
        // commits the quiet ring's gambles double to 8 grid slots.
        assert_eq!(spec.epochs, 34);
        assert_eq!(spec.spec_commits, 26);
        assert_eq!(spec.spec_rollbacks, 4);
        assert_eq!(spec.spec_reexec_cycles, 5 * LATENCY);
        assert_eq!(spec.extensions, 27);
        assert_eq!(spec.max_epoch_len, 9 * LATENCY);
        assert_eq!(spec.spec_max_depth, 8);
        assert!(
            spec.spec_max_depth > SPEC_DEPTH,
            "the quiet ring must deepen past the baseline depth"
        );
        assert!(
            spec.spec_commits + spec.spec_rollbacks <= spec.epochs,
            "every speculative round resolves into exactly one executed epoch"
        );
    }

    #[test]
    fn cycle_limit_aborts_with_pending_work() {
        // An endless dense ring, and the quiet grinding ring cut mid-run so
        // the abort lands inside a gamble's clip.
        // Both drivers must record the very same abort, and every lookahead
        // mode must process the same event set before it.
        for (total, hops, local_work, max_cycles) in [(4, u64::MAX, 0, 100), (6, 4, 30, 725)] {
            let (reference, _) = run_ring_until(
                total,
                2,
                hops,
                local_work,
                max_cycles,
                ExecMode::Sequential,
                LookaheadMode::Fixed,
            );
            for lookahead in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
                let run =
                    |mode| run_ring_until(total, 2, hops, local_work, max_cycles, mode, lookahead);
                let (sums, seq) = run(ExecMode::Sequential);
                let (par_sums, par) = run(ExecMode::Parallel);
                assert!(
                    seq.aborted,
                    "{lookahead}: the ring must hit the cycle limit"
                );
                // Gambles are clamped to the first epoch past
                // the limit, so aborts land on the same boundary either way.
                assert!(seq.last_horizon <= max_cycles + LATENCY, "{lookahead}");
                assert_eq!(sums, reference, "{lookahead}: aborted at a different point");
                assert_eq!(par_sums, reference, "{lookahead}: parallel diverged");
                assert_eq!(
                    par, seq,
                    "{lookahead}: the drivers recorded different aborts"
                );
            }
        }
    }

    #[test]
    fn empty_shards_finish_immediately() {
        for lookahead in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let mut shards = vec![RingShard::new(0, 2, 4, 0, 0), RingShard::new(2, 2, 4, 0, 0)];
                for shard in &mut shards {
                    shard.events.clear();
                }
                let shard_of = |node: u32| usize::from(node >= 2);
                let outcome = run_epochs(
                    &mut shards,
                    &shard_of,
                    LATENCY,
                    Cycle::MAX,
                    mode,
                    lookahead,
                    SpecTuning::default(),
                );
                assert_eq!(outcome, EpochOutcome::default(), "{mode:?} {lookahead}");
            }
        }
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        /// Panics while advancing its first epoch.
        struct Bomb {
            armed: bool,
        }
        impl ShardSim for Bomb {
            type Msg = ();
            type Checkpoint = ();
            fn accept(&mut self, _at: Cycle, _msg: ()) {}
            fn advance(&mut self, _horizon: Cycle, _outbox: &mut Outbox<()>) {
                if self.armed {
                    panic!("bomb went off");
                }
            }
            fn next_event_time(&self) -> Option<Cycle> {
                Some(1)
            }
        }
        let result = std::panic::catch_unwind(|| {
            let mut shards = vec![Bomb { armed: true }, Bomb { armed: false }];
            let shard_of = |_node: u32| 0usize;
            run_epochs(
                &mut shards,
                &shard_of,
                LATENCY,
                100,
                ExecMode::Parallel,
                LookaheadMode::Fixed,
                SpecTuning::default(),
            )
        });
        assert!(result.is_err(), "the worker panic must propagate");
    }
}
