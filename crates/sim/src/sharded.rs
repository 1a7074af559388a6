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
//! execute the exact same event schedule.
//!
//! # The parallel rendezvous
//!
//! [`ExecMode::Parallel`] runs a **persistent worker pool**: one worker per
//! shard, spawned once per run, synchronized purely through atomics. Each
//! epoch ends in a sense barrier on an atomic arrival counter; the *last*
//! worker to arrive becomes that barrier's **finisher**, absorbs every
//! shard's outbox, plans the next epoch (including fast-forwarding over
//! empty stretches) and publishes it by bumping an atomic generation counter
//! that releases the other workers. There is no per-epoch channel traffic,
//! no dedicated router thread to wake, and no allocation in the steady
//! state: outboxes and staging buffers are handed over by `Vec` swaps that
//! retain their capacity.
//!
//! The expensive part of a barrier — the cross-shard exchange — is skipped
//! entirely whenever it has nothing to do: workers raise a shared
//! "any-outbox-non-empty" flag only when they actually emitted, and a
//! finisher that observes the flag clear (and no staged traffic pending)
//! never touches the router. Quiescent stretches therefore run
//! exchange-free, paying only the atomic barrier itself. The *rendezvous*
//! still happens every epoch — with a lookahead of exactly one epoch, a
//! shard cannot know that no other shard emitted until that shard's epoch is
//! complete, so skipping the barrier itself would race the very traffic it
//! is waiting for. Skipping the exchange preserves the lookahead argument
//! unchanged, and bit-identical results with it: an epoch with no emissions
//! and no staged arrivals routes nothing and delivers nothing in either
//! mode.
//!
//! # Adaptive lookahead
//!
//! The fixed epoch length is the *minimum* sound lookahead, not the best
//! one. Under [`LookaheadMode::Adaptive`] (the default) the planner asks
//! every shard for a traffic forecast — [`ShardSim::earliest_emission`], a
//! conservative lower bound on the next cycle at which the shard could hand
//! anything to its outbox — and extends the epoch's horizon to
//! `forecast floor + epoch`: an emission at cycle `t ≥ floor` arrives at
//! `t + latency ≥ floor + epoch`, so nothing can land inside the extended
//! window. Two clamps keep the extension sound and abort-exact: the horizon
//! never crosses the earliest *staged* arrival at or past the planned
//! horizon (those events must be delivered at their epoch start before any
//! shard advances past them), and never crosses the horizon of the last
//! epoch the fixed-lookahead grid could execute before `max_cycles` (so a
//! run that aborts at the cycle limit processes the exact same event set —
//! and reports the exact same result — under either mode). Quiet stretches
//! — compute-heavy phases, retransmission back-off grinds, trailing drains —
//! thus collapse many empty epochs (and their barriers, exchanges and
//! router passes) into one. Extension changes *when barriers happen*, never
//! what any shard observes: deliveries still happen at the planned epoch
//! start, per-shard event order is untouched, and every simulated result
//! stays bit-identical across `Fixed`/`Adaptive`, shard counts and
//! execution modes. The router's lookahead `debug_assert` checks the
//! forecast contract on every absorbed event, so a shard whose forecast
//! over-promises fails loudly in test builds.
//!
//! # Speculative epochs
//!
//! The adaptive planner is conservative: it only extends when the shards'
//! forecasts *prove* the window is quiet, which on dense workloads is never.
//! [`LookaheadMode::Speculative`] is the optimistic half: every round, all
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
//! results stay bit-identical across all three lookahead modes
//! (determinism invariant 7 in `ARCHITECTURE.md`).
//!
//! Both drivers speculate in lock-step rounds — one uniform speculated
//! horizon for every shard, all-or-nothing validation — because per-shard
//! divergent horizons are unsound: a lagging shard's post-rollback re-run
//! emits *different* traffic than its speculative run did, which could land
//! inside a leading shard's already-committed window (the classic Time
//! Warp cascade). A shared exponential pacer (capped at
//! [`SPEC_PENALTY_CAP`] conservative rounds) keeps dense workloads from
//! paying checkpoint + rollback every round; it is part of the deterministic
//! schedule, so commit/rollback counts are invariant across shard counts
//! and execution modes just like every other epoch statistic.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
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

    /// Conservative forecast: a lower bound on the earliest cycle at which
    /// this shard could push an event into its [`Outbox`], assuming no
    /// further [`ShardSim::accept`] deliveries. `None` promises the shard
    /// cannot emit at all until something is delivered to it.
    ///
    /// The adaptive planner ([`LookaheadMode::Adaptive`]) extends epoch
    /// horizons to `forecast + epoch`, so the contract is load-bearing: a
    /// forecast later than a real emission breaks the lookahead argument
    /// (the router debug-asserts it on every absorbed event). Returning
    /// *earlier* than any real emission is always sound — it just extends
    /// less. The default implementation treats every pending event as a
    /// potential emitter, which is sound for any model.
    fn earliest_emission(&self) -> Option<Cycle> {
        self.next_event_time()
    }

    /// Cheap hint that *every* pending local event is a potential emitter —
    /// i.e. [`ShardSim::earliest_emission`] would return exactly
    /// [`ShardSim::next_event_time`]. The adaptive planner then reuses the
    /// event time it already peeked for the epoch plan instead of peeking
    /// the queue a second time — the peek is the planner's only per-epoch
    /// cost on shards that never extend, so this is what keeps the adaptive
    /// default at wall-clock parity with fixed lookahead on dense
    /// workloads. `false` is always safe; the planner just calls
    /// [`ShardSim::earliest_emission`].
    fn all_pending_emit(&self) -> bool {
        false
    }

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

/// The forecast [`extend_horizon`] sees for one shard, reusing the epoch
/// plan's already-peeked `next_event` when the shard promises every pending
/// event can emit.
fn forecast_of<S: ShardSim>(shard: &S, next_event: Option<Cycle>) -> Option<Cycle> {
    if shard.all_pending_emit() {
        debug_assert_eq!(
            shard.earliest_emission(),
            next_event,
            "all_pending_emit promised earliest_emission == next_event_time"
        );
        next_event
    } else {
        shard.earliest_emission()
    }
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

/// Whether the epoch planner may extend horizons past the fixed grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookaheadMode {
    /// Every epoch is exactly one `epoch` long on the fixed grid — the
    /// classic conservative-PDES schedule. Kept as the A/B baseline.
    Fixed,
    /// Horizons extend to the shards' traffic forecast
    /// ([`ShardSim::earliest_emission`]) plus one epoch, collapsing quiet
    /// stretches into single epochs (see the module docs). Produces
    /// bit-identical simulated results to [`LookaheadMode::Fixed`].
    #[default]
    Adaptive,
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
            LookaheadMode::Adaptive => "adaptive",
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
#[derive(Debug)]
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
    fn new(tuning: SpecTuning) -> Self {
        SpecPacer {
            tuning,
            cooldown: 0,
            penalty: 0,
            streak: 0,
            gave_up: false,
        }
    }

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
    /// * `commits`/`rollbacks` — the drive's commit ratio; persistently
    ///   hostile workloads trip [`SpecTuning::give_up_rollbacks`] and latch
    ///   the pacer off;
    /// * `epochs`/`epoch_cycles` — the mean executed-epoch length; only
    ///   workloads whose epochs already run past the grid (mean ≥ 2×
    ///   `epoch`, i.e. gambles have been paying) earn commit-streak
    ///   deepening past the baseline depth.
    fn decide(
        &mut self,
        load: u64,
        commits: u64,
        rollbacks: u64,
        epochs: u64,
        epoch_cycles: u64,
        epoch: Cycle,
    ) -> Option<Cycle> {
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
        let quiet = epochs > 0 && epoch_cycles >= epoch.saturating_mul(2).saturating_mul(epochs);
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
/// `routed_events` and `aborted` are invariant across shard counts,
/// execution modes *and* lookahead modes. The epoch-shape statistics
/// (`epochs`, `exchanges`, `extensions`, `epoch_cycles`, `max_epoch_len`,
/// `last_horizon`) are invariant across execution modes and — whenever
/// shard forecasts reduce to global minima, which holds unless a shard
/// declines to forecast while others emit — across shard counts too; they
/// naturally differ between [`LookaheadMode::Fixed`] and
/// [`LookaheadMode::Adaptive`], which is the point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Epochs whose horizon the adaptive planner extended past the fixed
    /// grid slot (always 0 under [`LookaheadMode::Fixed`]).
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
    fn empty() -> Self {
        EpochOutcome {
            epochs: 0,
            exchanges: 0,
            routed_events: 0,
            aborted: false,
            last_horizon: 0,
            extensions: 0,
            epoch_cycles: 0,
            max_epoch_len: 0,
            spec_commits: 0,
            spec_rollbacks: 0,
            spec_reexec_cycles: 0,
            spec_max_depth: 0,
        }
    }

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
/// [`Router::next_arrival`] takes a minimum), which lets
/// [`Router::take_due_into`] partition with `swap_remove` instead of
/// reallocating.
struct Router<M> {
    staged: Vec<Vec<(Cycle, Stamp, M)>>,
    /// Running total across `staged` — kept in sync by `absorb` /
    /// `take_due_into` so `staged_len` never walks the buckets.
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

    /// Whether any events are staged for any shard.
    fn has_staged(&self) -> bool {
        self.staged_count > 0
    }

    /// Total staged events across all shards — the traffic-density
    /// observable the speculation pacer consumes. Shard-count-invariant
    /// because *all* network traffic routes through the outbox (even
    /// intra-shard), so the staged population depends only on the
    /// simulation, not the partitioning. Maintained as a counter so the
    /// per-round pacer consult costs O(1), not a scan of the backlog.
    fn staged_len(&self) -> u64 {
        self.staged_count
    }

    /// Earliest staged arrival across all shards.
    fn next_arrival(&self) -> Option<Cycle> {
        self.staged
            .iter()
            .flat_map(|v| v.iter().map(|(at, _, _)| *at))
            .min()
    }

    /// Earliest staged arrivals split around `at`: the minimum strictly
    /// before it (delivered by a `take_due_into(_, at, _)` pass) and the
    /// minimum at or after it (left staged by that pass).
    fn arrival_split(&self, at: Cycle) -> (Option<Cycle>, Option<Cycle>) {
        let mut due: Option<Cycle> = None;
        let mut held: Option<Cycle> = None;
        for &(arr, _, _) in self.staged.iter().flatten() {
            let bucket = if arr < at { &mut due } else { &mut held };
            *bucket = Some(bucket.map_or(arr, |b| b.min(arr)));
        }
        (due, held)
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
/// aborts the run. Extended horizons never cross it, which is what makes an
/// aborted run process the exact same event set under either
/// [`LookaheadMode`]: both process every reachable event strictly before
/// this cycle, then abort (the next plan's start exceeds `max_cycles` iff
/// the earliest remaining event is at or past it).
fn epoch_limit(max_cycles: Cycle, epoch: Cycle) -> Cycle {
    ((max_cycles / epoch) * epoch).saturating_add(epoch)
}

/// The adaptive extension: pushes `planned` (the fixed-grid horizon) out to
/// the forecast floor plus one epoch, clamped by the earliest staged
/// arrival at or past `planned` and by `limit` (see [`epoch_limit`]).
///
/// `floor` — the earliest cycle at which *anything* could emit — is the
/// minimum of every shard's [`ShardSim::earliest_emission`] and of any
/// staged arrival due *inside* the planned epoch (`due_arrival`: a delivery
/// can trigger an emission at its arrival cycle). An emission at `t ≥ floor`
/// arrives at `t + latency ≥ floor + epoch` (the driver requires `epoch ≤`
/// the model's minimum latency). Staged arrivals at or past `planned`
/// (`held_arrival` is the earliest of them — note: *not* necessarily the
/// router's global minimum, which may be due this epoch) are not delivered
/// this epoch, hence the clip.
///
/// Every bound is rounded *down* to the epoch grid, so extended horizons
/// are always grid points and an extension collapses whole fixed-grid
/// epochs exactly. This is required for bit-identity, not just causality:
/// an arrival at cycle `a` enters its destination's event queue at the grid
/// boundary `(a / epoch) * epoch` (the start of the epoch that delivers
/// it), *before* any same-cycle local event scheduled by a pop past that
/// boundary. An off-grid horizon would run those pops first and flip
/// same-cycle insertion order. Grid-rounding `floor + epoch` (the earliest
/// possible arrival of this epoch's emissions) and the held arrival keeps
/// every insertion boundary outside the extended window.
fn extend_horizon(
    forecasts: impl Iterator<Item = Option<Cycle>>,
    due_arrival: Option<Cycle>,
    held_arrival: Option<Cycle>,
    planned: Cycle,
    epoch: Cycle,
    limit: Cycle,
) -> Cycle {
    let grid = |at: Cycle| (at / epoch) * epoch;
    let floor = forecasts.flatten().chain(due_arrival).min();
    let clip = held_arrival.map_or(Cycle::MAX, grid);
    let candidate = floor.map_or(Cycle::MAX, |f| grid(f.saturating_add(epoch)));
    planned.max(candidate.min(clip).min(limit))
}

/// The horizon a speculative round gambles on: `depth` grid slots (the
/// pacer's [`SpecPacer::decide`] answer) past `planned`, clipped — like the
/// adaptive extension — by the grid slot of the earliest *staged* arrival
/// at or past `planned` (those deliveries must happen at their own epoch
/// starts; speculation never skips a delivery point) and by `limit` (abort
/// exactness, see [`epoch_limit`]). Returns `planned` itself when there is
/// no room to speculate.
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
/// of the fast-forwarding. Under [`LookaheadMode::Adaptive`] horizons
/// additionally extend past the grid slot when the shards' traffic
/// forecasts allow it (see the module docs); deliveries still happen at the
/// planned grid boundary, so results are bit-identical across lookahead
/// modes too.
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

    match mode {
        ExecMode::Sequential => {
            run_sequential(shards, shard_of, epoch, max_cycles, lookahead, tuning)
        }
        ExecMode::Parallel => run_parallel(shards, shard_of, epoch, max_cycles, lookahead, tuning),
    }
}

fn run_sequential<S: ShardSim>(
    shards: &mut [S],
    shard_of: &dyn Fn(u32) -> usize,
    epoch: Cycle,
    max_cycles: Cycle,
    lookahead: LookaheadMode,
    tuning: SpecTuning,
) -> EpochOutcome {
    let limit = epoch_limit(max_cycles, epoch);
    let grid = |at: Cycle| (at / epoch) * epoch;
    let mut router = Router::new(shards.len());
    let mut outbox = Outbox::new();
    let mut inbound: Vec<(Cycle, Stamp, S::Msg)> = Vec::new();
    // Per-shard earliest event times, peeked once per epoch and shared by
    // the plan and the adaptive forecast (see `forecast_of`).
    let mut times: Vec<Option<Cycle>> = Vec::with_capacity(shards.len());
    // Speculation state, allocated lazily on the first speculative round:
    // one reusable checkpoint buffer and one held-aside outbox per shard.
    let mut pacer = SpecPacer::new(tuning);
    let mut checkpoints: Vec<S::Checkpoint> = Vec::new();
    let mut spec_outboxes: Vec<Outbox<S::Msg>> = Vec::new();
    let mut outcome = EpochOutcome::empty();
    loop {
        times.clear();
        times.extend(shards.iter().map(|s| s.next_event_time()));
        let plan = next_epoch(times.iter().copied(), router.next_arrival(), epoch);
        let Some((start, planned)) = plan else {
            break; // fully drained
        };
        if start > max_cycles {
            outcome.aborted = true;
            break;
        }

        // The optimistic path: checkpoint, run past the horizon with
        // emissions held aside, validate, then commit or rewind. Either
        // way the round ends in exactly the state a conservative run
        // would be in (see the module docs for the argument).
        if lookahead == LookaheadMode::Speculative {
            let load = router.staged_len() + shards.iter().map(|s| s.pending_len()).sum::<u64>();
            let decision = pacer.decide(
                load,
                outcome.spec_commits,
                outcome.spec_rollbacks,
                outcome.epochs,
                outcome.epoch_cycles,
                epoch,
            );
            // The backlog scan for the held-arrival minimum only runs once
            // the pacer has approved a gamble: refused rounds (the common
            // case on dense workloads) cost O(1), same as fixed lookahead.
            let gamble = decision
                .map(|depth| {
                    let held = router.arrival_split(planned).1;
                    spec_horizon(planned, held, epoch, limit, depth)
                })
                .unwrap_or(planned);
            if gamble > planned {
                outcome.spec_max_depth = outcome.spec_max_depth.max((gamble - planned) / epoch);
                if checkpoints.is_empty() {
                    checkpoints = shards.iter().map(|_| S::Checkpoint::default()).collect();
                    spec_outboxes = shards.iter().map(|_| Outbox::new()).collect();
                }
                let routed_before = router.routed;
                for (i, shard) in shards.iter_mut().enumerate() {
                    // Deliver the due arrivals *before* the snapshot, so a
                    // restore rewinds to a state that already owns them.
                    router.take_due_into(i, planned, &mut inbound);
                    for (at, _, msg) in inbound.drain(..) {
                        shard.accept(at, msg);
                    }
                    shard.snapshot(&mut checkpoints[i]);
                    shard.advance(gamble, &mut spec_outboxes[i]);
                }
                let conflict = spec_outboxes
                    .iter()
                    .flat_map(|o| o.staged.iter().map(|ev| ev.at))
                    .min()
                    .filter(|&a| a < gamble);
                match conflict {
                    None => {
                        // Clean: nothing landed inside the window. Route the
                        // held emissions with the speculated horizon as the
                        // lookahead floor — the validation just proved it.
                        outcome.spec_commits += 1;
                        outcome.note_epoch(start, planned, gamble);
                        for (shard, spec) in shards.iter_mut().zip(&mut spec_outboxes) {
                            shard.commit_speculation();
                            router.absorb(&mut spec.staged, shard_of, gamble);
                        }
                        pacer.committed();
                    }
                    Some(a_min) => {
                        // An arrival at `a_min` lands inside the window:
                        // rewind and re-execute up to the last grid point it
                        // cannot reach. The re-run is a prefix of the
                        // speculative run, so its emissions all arrive at or
                        // past `a_min >= commit` — floor `commit` holds.
                        let commit = planned.max(grid(a_min));
                        outcome.spec_rollbacks += 1;
                        outcome.spec_reexec_cycles =
                            outcome.spec_reexec_cycles.saturating_add(commit - start);
                        outcome.note_epoch(start, planned, commit);
                        for (i, shard) in shards.iter_mut().enumerate() {
                            spec_outboxes[i].staged.clear();
                            shard.restore(&checkpoints[i]);
                            shard.advance(commit, &mut outbox);
                            router.absorb(&mut outbox.staged, shard_of, commit);
                        }
                        pacer.rolled_back();
                    }
                }
                if router.routed > routed_before {
                    outcome.exchanges += 1;
                }
                continue;
            }
        }

        let horizon = match lookahead {
            // Speculative rounds that sat out (pacer cooldown, or no room
            // past the planned slot) fall back to the fixed grid.
            LookaheadMode::Fixed | LookaheadMode::Speculative => planned,
            LookaheadMode::Adaptive => {
                let (due, held) = router.arrival_split(planned);
                extend_horizon(
                    shards.iter().zip(&times).map(|(s, &t)| forecast_of(s, t)),
                    due,
                    held,
                    planned,
                    epoch,
                    limit,
                )
            }
        };
        outcome.note_epoch(start, planned, horizon);
        let routed_before = router.routed;
        for (i, shard) in shards.iter_mut().enumerate() {
            // Deliveries use the *planned* grid horizon: the extension clip
            // guarantees no staged arrival lies in [planned, horizon), so
            // the due set is identical — but the grid boundary is the
            // delivery point every lookahead mode shares.
            router.take_due_into(i, planned, &mut inbound);
            for (at, _, msg) in inbound.drain(..) {
                shard.accept(at, msg);
            }
            shard.advance(horizon, &mut outbox);
            router.absorb(&mut outbox.staged, shard_of, horizon);
        }
        if router.routed > routed_before {
            outcome.exchanges += 1;
        }
    }
    outcome.routed_events = router.routed;
    outcome
}

// ---------------------------------------------------------------------------
// Parallel worker pool
// ---------------------------------------------------------------------------

/// `next_event` sentinel for "shard has no pending events".
const NO_EVENT: u64 = u64::MAX;

/// Published plan states (`Shared::plan_state`).
const PLAN_RUN: u64 = 0;
const PLAN_DONE: u64 = 1;
const PLAN_ABORT: u64 = 2;
/// Speculative round: snapshot, then run to the published (optimistic)
/// horizon with emissions held for validation.
const PLAN_SPEC: u64 = 3;
/// Rollback round: restore the checkpoint and re-execute conservatively to
/// the published (validated) horizon.
const PLAN_REEXEC: u64 = 4;

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
    /// The shard's traffic forecast after its last epoch
    /// ([`ShardSim::earliest_emission`]; `NO_EVENT` when it cannot emit).
    earliest_emission: AtomicU64,
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

/// State shared by the worker pool: the barrier, the published plan, the
/// staged cross-shard traffic and the accumulating outcome.
struct Shared<M> {
    slots: Vec<Slot<M>>,
    /// Staged cross-shard traffic. Only ever locked by a barrier's finisher
    /// (and by the caller after the pool has exited), and only when there is
    /// routing work to do.
    router: Mutex<Router<M>>,
    /// Workers arrived at the current epoch's barrier. The worker that
    /// brings it to `slots.len()` becomes the finisher.
    arrived: AtomicUsize,
    /// Barrier generation: bumped (release) once per published plan;
    /// workers acquire it to observe the plan.
    generation: AtomicU64,
    /// Raised by any worker whose epoch emitted cross-shard traffic;
    /// cleared by the finisher. Clear means the exchange can be skipped.
    any_traffic: AtomicBool,
    /// Whether the router holds staged (not yet delivered) events. Written
    /// only by finishers, which are serialized by the barrier.
    staged_pending: AtomicBool,
    /// `PLAN_RUN`, `PLAN_DONE` or `PLAN_ABORT`.
    plan_state: AtomicU64,
    /// Exclusive end of the published epoch (valid when `plan_state` is
    /// `PLAN_RUN`).
    plan_horizon: AtomicU64,
    /// Raised by a panicking worker's drop guard so the others stop waiting
    /// and the scope can propagate the panic.
    poisoned: AtomicBool,
    epochs: AtomicU64,
    exchanges: AtomicU64,
    last_horizon: AtomicU64,
    // The epoch-shape statistics below are written only by finishers, which
    // the barrier serializes — plain load/store suffices.
    extensions: AtomicU64,
    epoch_cycles: AtomicU64,
    max_epoch_len: AtomicU64,
    aborted: AtomicBool,
    // Speculation bookkeeping. `spec_start`/`spec_planned` carry the
    // in-flight round's plan from its publishing finisher to the resolving
    // one (stats are recorded at resolution, when the true horizon is
    // known). All are written only under barrier serialization; the pacer
    // mutex is never contended for the same reason.
    spec_start: AtomicU64,
    spec_planned: AtomicU64,
    spec_commits: AtomicU64,
    spec_rollbacks: AtomicU64,
    spec_reexec_cycles: AtomicU64,
    spec_max_depth: AtomicU64,
    pacer: Mutex<SpecPacer>,
    epoch: Cycle,
    max_cycles: Cycle,
    /// Extension ceiling (see [`epoch_limit`]).
    limit: Cycle,
    lookahead: LookaheadMode,
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

/// Records one executed epoch's shape into the shared outcome counters —
/// the atomic mirror of [`EpochOutcome::note_epoch`]. Only ever called by a
/// barrier finisher, so plain load/store suffices.
fn note_epoch_shared<M>(shared: &Shared<M>, start: Cycle, planned: Cycle, horizon: Cycle) {
    shared.epochs.fetch_add(1, Ordering::Relaxed);
    shared.last_horizon.store(horizon, Ordering::Relaxed);
    if horizon > planned {
        shared.extensions.fetch_add(1, Ordering::Relaxed);
    }
    let len = horizon - start;
    let sum = shared.epoch_cycles.load(Ordering::Relaxed);
    shared
        .epoch_cycles
        .store(sum.saturating_add(len), Ordering::Relaxed);
    let max = shared.max_epoch_len.load(Ordering::Relaxed);
    shared.max_epoch_len.store(max.max(len), Ordering::Relaxed);
}

/// The barrier finisher: absorbs emitted traffic (only if any), plans the
/// next epoch, distributes its due arrivals and publishes it.
///
/// `floor` is the horizon of the epoch that just completed — the lookahead
/// floor for everything absorbed here.
fn finish_epoch<M: Send>(
    shared: &Shared<M>,
    shard_of: &(dyn Fn(u32) -> usize + Sync),
    floor: Cycle,
) {
    // Reset the barrier before releasing anyone: released workers start
    // arriving at the *next* barrier immediately.
    shared.arrived.store(0, Ordering::Relaxed);

    let traffic = shared.any_traffic.swap(false, Ordering::Relaxed);
    let staged = shared.staged_pending.load(Ordering::Relaxed);
    // The exchange-skip fast path: nothing emitted, nothing staged — the
    // router cannot have work, so don't even lock it.
    let mut router: Option<MutexGuard<'_, Router<M>>> = if traffic || staged {
        Some(shared.router.lock().unwrap())
    } else {
        None
    };
    if traffic {
        let router = router.as_mut().expect("locked when traffic was emitted");
        for slot in &shared.slots {
            router.absorb(&mut slot.outbound.lock().unwrap(), shard_of, floor);
        }
        shared.exchanges.fetch_add(1, Ordering::Relaxed);
    }

    let next_events = shared.slots.iter().map(|slot| {
        let at = slot.next_event.load(Ordering::Relaxed);
        (at != NO_EVENT).then_some(at)
    });
    let next_arrival = router.as_ref().and_then(|r| r.next_arrival());
    match next_epoch(next_events, next_arrival, shared.epoch) {
        None => shared.publish(PLAN_DONE, 0),
        Some((start, _)) if start > shared.max_cycles => {
            shared.aborted.store(true, Ordering::Relaxed);
            shared.publish(PLAN_ABORT, 0);
        }
        Some((start, planned)) => {
            if shared.lookahead == LookaheadMode::Speculative {
                // The pacer is consulted exactly once per planning round,
                // on the same globally-merged observables the sequential
                // driver reads at the same point — keeping its schedule
                // identical across drivers and shard counts.
                let load = router.as_ref().map_or(0, |r| r.staged_len())
                    + shared
                        .slots
                        .iter()
                        .map(|slot| slot.pending.load(Ordering::Relaxed))
                        .sum::<u64>();
                let decision = shared.pacer.lock().unwrap().decide(
                    load,
                    shared.spec_commits.load(Ordering::Relaxed),
                    shared.spec_rollbacks.load(Ordering::Relaxed),
                    shared.epochs.load(Ordering::Relaxed),
                    shared.epoch_cycles.load(Ordering::Relaxed),
                    shared.epoch,
                );
                // As in the sequential driver, the held-arrival scan is
                // deferred until the pacer approves — a refused round does
                // no backlog work.
                let gamble = decision
                    .map(|depth| {
                        let held = router.as_ref().and_then(|r| r.arrival_split(planned).1);
                        spec_horizon(planned, held, shared.epoch, shared.limit, depth)
                    })
                    .unwrap_or(planned);
                if gamble > planned {
                    let depth = (gamble - planned) / shared.epoch;
                    let max = shared.spec_max_depth.load(Ordering::Relaxed);
                    shared
                        .spec_max_depth
                        .store(max.max(depth), Ordering::Relaxed);
                    if let Some(router) = router.as_mut() {
                        for (i, slot) in shared.slots.iter().enumerate() {
                            router.take_due_into(i, planned, &mut slot.inbound.lock().unwrap());
                        }
                        shared
                            .staged_pending
                            .store(router.has_staged(), Ordering::Relaxed);
                    }
                    drop(router);
                    // Epoch stats are recorded at *resolution* (finish_spec),
                    // once the true horizon is known.
                    shared.spec_start.store(start, Ordering::Relaxed);
                    shared.spec_planned.store(planned, Ordering::Relaxed);
                    shared.publish(PLAN_SPEC, gamble);
                    return;
                }
            }
            let horizon = match shared.lookahead {
                // Speculative rounds that sat out (pacer cooldown, or no
                // room past the planned slot) fall back to the fixed grid.
                LookaheadMode::Fixed | LookaheadMode::Speculative => planned,
                LookaheadMode::Adaptive => {
                    let forecasts = shared.slots.iter().map(|slot| {
                        let at = slot.earliest_emission.load(Ordering::Relaxed);
                        (at != NO_EVENT).then_some(at)
                    });
                    let (due, held) = router
                        .as_ref()
                        .map_or((None, None), |r| r.arrival_split(planned));
                    extend_horizon(forecasts, due, held, planned, shared.epoch, shared.limit)
                }
            };
            note_epoch_shared(shared, start, planned, horizon);
            if let Some(router) = router.as_mut() {
                for (i, slot) in shared.slots.iter().enumerate() {
                    // The planned grid horizon, matching the sequential
                    // driver: the extension clip guarantees nothing is
                    // staged in [planned, horizon).
                    router.take_due_into(i, planned, &mut slot.inbound.lock().unwrap());
                }
                shared
                    .staged_pending
                    .store(router.has_staged(), Ordering::Relaxed);
            }
            drop(router);
            shared.publish(PLAN_RUN, horizon);
        }
    }
}

/// Resolves a speculative round once every worker has arrived: validate the
/// held emissions against the gambled horizon, then either commit the round
/// (and chain straight into [`finish_epoch`]) or publish a rollback plan.
fn finish_spec<M: Send>(
    shared: &Shared<M>,
    shard_of: &(dyn Fn(u32) -> usize + Sync),
    gamble: Cycle,
) {
    let start = shared.spec_start.load(Ordering::Relaxed);
    let planned = shared.spec_planned.load(Ordering::Relaxed);
    let a_min = shared
        .slots
        .iter()
        .map(|slot| slot.spec_min.load(Ordering::Relaxed))
        .min()
        .unwrap_or(NO_EVENT);
    if a_min >= gamble {
        // Clean: no emission lands inside the speculated window (`NO_EVENT`
        // means nothing was emitted at all). The held outbounds are real —
        // finish_epoch absorbs them with the gambled horizon as the floor.
        shared.spec_commits.fetch_add(1, Ordering::Relaxed);
        note_epoch_shared(shared, start, planned, gamble);
        shared.pacer.lock().unwrap().committed();
        finish_epoch(shared, shard_of, gamble);
    } else {
        // Conflict: an arrival at `a_min` lands inside the window. Commit
        // the longest grid prefix it cannot reach and re-execute to there.
        let commit = planned.max((a_min / shared.epoch) * shared.epoch);
        shared.spec_rollbacks.fetch_add(1, Ordering::Relaxed);
        let sum = shared.spec_reexec_cycles.load(Ordering::Relaxed);
        shared
            .spec_reexec_cycles
            .store(sum.saturating_add(commit - start), Ordering::Relaxed);
        note_epoch_shared(shared, start, planned, commit);
        shared.pacer.lock().unwrap().rolled_back();
        // Discard the speculative emissions — the re-execution re-emits the
        // surviving prefix itself — and reset the traffic flag so only
        // re-executed emissions count.
        shared.any_traffic.store(false, Ordering::Relaxed);
        for slot in &shared.slots {
            slot.outbound.lock().unwrap().clear();
        }
        shared.arrived.store(0, Ordering::Relaxed);
        shared.publish(PLAN_REEXEC, commit);
    }
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
) {
    *shared.slots[index].thread.lock().unwrap() = Some(std::thread::current());
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
        if !matches!(state, PLAN_RUN | PLAN_SPEC | PLAN_REEXEC) {
            break;
        }
        let horizon = shared.plan_horizon.load(Ordering::Relaxed);
        if state != PLAN_REEXEC {
            if speculated {
                shard.commit_speculation();
            }
            // A rollback re-executes from the checkpoint: its due arrivals
            // were already delivered before the snapshot was taken.
            let mut inbound = shared.slots[index].inbound.lock().unwrap();
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
            let a_min = outbox.staged.iter().map(|ev| ev.at).min();
            shared.slots[index]
                .spec_min
                .store(a_min.unwrap_or(NO_EVENT), Ordering::Relaxed);
        }
        if !outbox.is_empty() {
            shared.any_traffic.store(true, Ordering::Relaxed);
            let mut outbound = shared.slots[index].outbound.lock().unwrap();
            debug_assert!(outbound.is_empty(), "previous epoch's emissions unrouted");
            std::mem::swap(&mut *outbound, &mut outbox.staged);
        }
        let next_event = shard.next_event_time();
        shared.slots[index]
            .next_event
            .store(next_event.unwrap_or(NO_EVENT), Ordering::Relaxed);
        // Only the speculative planner reads the load slot (and
        // `pending_len` is O(1), so this costs one store).
        if shared.lookahead == LookaheadMode::Speculative {
            shared.slots[index]
                .pending
                .store(shard.pending_len(), Ordering::Relaxed);
        }
        // Only the adaptive planner reads the forecast slot; fixed mode
        // skips the (possibly second) queue peek entirely.
        if shared.lookahead == LookaheadMode::Adaptive {
            shared.slots[index].earliest_emission.store(
                forecast_of(shard, next_event).unwrap_or(NO_EVENT),
                Ordering::Relaxed,
            );
        }
        // The release half of this increment publishes everything the worker
        // wrote above; the finisher's acquire half (reading the last value of
        // the release sequence) observes all of it.
        let arrived = shared.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == shared.slots.len() {
            if state == PLAN_SPEC {
                finish_spec(shared, shard_of, horizon);
            } else {
                finish_epoch(shared, shard_of, horizon);
            }
        }
    }
}

fn run_parallel<S: ShardSim>(
    shards: &mut [S],
    shard_of: &(dyn Fn(u32) -> usize + Sync),
    epoch: Cycle,
    max_cycles: Cycle,
    lookahead: LookaheadMode,
    tuning: SpecTuning,
) -> EpochOutcome {
    let limit = epoch_limit(max_cycles, epoch);
    let mut outcome = EpochOutcome::empty();
    // Plan the first epoch on the calling thread (the workers plan every
    // subsequent one at their barriers).
    let times: Vec<Option<Cycle>> = shards.iter().map(|s| s.next_event_time()).collect();
    let Some((start, planned)) = next_epoch(times.iter().copied(), None, epoch) else {
        return outcome; // nothing scheduled at all
    };
    if start > max_cycles {
        outcome.aborted = true;
        return outcome;
    }
    let mut initial_state = PLAN_RUN;
    let mut pacer = SpecPacer::new(tuning);
    let horizon = match lookahead {
        LookaheadMode::Fixed => planned,
        LookaheadMode::Adaptive => extend_horizon(
            shards.iter().zip(&times).map(|(s, &t)| forecast_of(s, t)),
            None,
            None,
            planned,
            epoch,
            limit,
        ),
        LookaheadMode::Speculative => {
            // Round one has nothing staged and no history, but the queues
            // already hold their initial load — the same pacer consultation
            // order (and the same load observable) as the sequential driver
            // keeps the two speculation schedules identical.
            let load = shards.iter().map(|s| s.pending_len()).sum::<u64>();
            let gamble = pacer
                .decide(load, 0, 0, 0, 0, epoch)
                .map(|depth| spec_horizon(planned, None, epoch, limit, depth))
                .unwrap_or(planned);
            if gamble > planned {
                outcome.spec_max_depth = (gamble - planned) / epoch;
                initial_state = PLAN_SPEC;
                gamble
            } else {
                planned
            }
        }
    };
    if initial_state == PLAN_RUN {
        outcome.note_epoch(start, planned, horizon);
    }
    let shared = Shared {
        slots: shards
            .iter()
            .map(|_| Slot {
                next_event: AtomicU64::new(NO_EVENT),
                earliest_emission: AtomicU64::new(NO_EVENT),
                inbound: Mutex::new(Vec::new()),
                outbound: Mutex::new(Vec::new()),
                thread: Mutex::new(None),
                spec_min: AtomicU64::new(NO_EVENT),
                pending: AtomicU64::new(0),
            })
            .collect(),
        router: Mutex::new(Router::new(shards.len())),
        arrived: AtomicUsize::new(0),
        generation: AtomicU64::new(0),
        any_traffic: AtomicBool::new(false),
        staged_pending: AtomicBool::new(false),
        plan_state: AtomicU64::new(initial_state),
        plan_horizon: AtomicU64::new(horizon),
        poisoned: AtomicBool::new(false),
        epochs: AtomicU64::new(outcome.epochs),
        exchanges: AtomicU64::new(0),
        last_horizon: AtomicU64::new(horizon),
        extensions: AtomicU64::new(outcome.extensions),
        epoch_cycles: AtomicU64::new(outcome.epoch_cycles),
        max_epoch_len: AtomicU64::new(outcome.max_epoch_len),
        aborted: AtomicBool::new(false),
        spec_start: AtomicU64::new(start),
        spec_planned: AtomicU64::new(planned),
        spec_commits: AtomicU64::new(0),
        spec_rollbacks: AtomicU64::new(0),
        spec_reexec_cycles: AtomicU64::new(0),
        spec_max_depth: AtomicU64::new(outcome.spec_max_depth),
        pacer: Mutex::new(pacer),
        epoch,
        max_cycles,
        limit,
        lookahead,
    };
    // Publish the initial plan before any worker starts waiting.
    shared.generation.store(1, Ordering::Release);
    std::thread::scope(|scope| {
        for (index, shard) in shards.iter_mut().enumerate() {
            let shared = &shared;
            scope.spawn(move || run_worker(shard, index, shared, shard_of));
        }
        // The scope join is the only wait: the pool drives itself to
        // completion (or to a propagating panic).
    });
    outcome.epochs = shared.epochs.load(Ordering::Relaxed);
    outcome.exchanges = shared.exchanges.load(Ordering::Relaxed);
    outcome.aborted = shared.aborted.load(Ordering::Relaxed);
    outcome.last_horizon = shared.last_horizon.load(Ordering::Relaxed);
    outcome.extensions = shared.extensions.load(Ordering::Relaxed);
    outcome.epoch_cycles = shared.epoch_cycles.load(Ordering::Relaxed);
    outcome.max_epoch_len = shared.max_epoch_len.load(Ordering::Relaxed);
    outcome.spec_commits = shared.spec_commits.load(Ordering::Relaxed);
    outcome.spec_rollbacks = shared.spec_rollbacks.load(Ordering::Relaxed);
    outcome.spec_reexec_cycles = shared.spec_reexec_cycles.load(Ordering::Relaxed);
    outcome.spec_max_depth = shared.spec_max_depth.load(Ordering::Relaxed);
    outcome.routed_events = shared.router.lock().unwrap().routed;
    outcome
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
        forecast: Vec<Option<Cycle>>,
        events: Option<EventQueue<(u32, Ev)>>,
    }

    struct RingShard {
        base: u32,
        total: u32,
        local_work: u64,
        hops_left: Vec<u64>,
        sum: Vec<u64>,
        seq: Vec<u64>,
        /// Honest per-counter traffic forecast: the cycle at which the
        /// counter's pending event chain next reaches `hop` (a pending
        /// `Hop` emits as soon as it pops; a local grind chain emits when
        /// its last link pops). `None` once the counter has emitted and is
        /// waiting for the token to come around again.
        forecast: Vec<Option<Cycle>>,
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
                forecast: (0..count).map(|i| Some(u64::from(base + i))).collect(),
                events,
            }
        }

        fn hop(&mut self, id: u32, token: u64, now: Cycle, outbox: &mut Outbox<Ev>) {
            let slot = (id - self.base) as usize;
            self.forecast[slot] = None;
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
            into.forecast.clone_from(&self.forecast);
            into.events = Some(self.events.clone());
        }

        fn restore(&mut self, from: &Self::Checkpoint) {
            self.hops_left.clone_from(&from.hops_left);
            self.sum.clone_from(&from.sum);
            self.seq.clone_from(&from.seq);
            self.forecast.clone_from(&from.forecast);
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
            if matches!(msg, Ev::Hop { .. }) {
                // A freshly delivered token emits no earlier than its own
                // arrival (later if the counter grinds first) — deliberately
                // conservative; the pop below tightens it to the chain end.
                self.forecast[(dst - self.base) as usize] = Some(at);
            }
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
                            // nothing. The chain's last link (`left == 1`)
                            // pops exactly `local_work` strides from now and
                            // calls `hop` — the exact next emission time.
                            self.forecast[slot] = Some(now + LATENCY * self.local_work);
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

        fn earliest_emission(&self) -> Option<Cycle> {
            self.forecast.iter().flatten().copied().min()
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
            Cycle::MAX,
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
        let (reference, _) = run_ring(12, 1, 40, ExecMode::Sequential);
        for lookahead in [
            LookaheadMode::Fixed,
            LookaheadMode::Adaptive,
            LookaheadMode::Speculative,
        ] {
            for shard_count in [1, 2, 3, 4] {
                let (seq, _) =
                    run_ring_with(12, shard_count, 40, 0, ExecMode::Sequential, lookahead);
                assert_eq!(
                    seq, reference,
                    "{shard_count} sequential shards ({lookahead}) diverged"
                );
                let (par, _) = run_ring_with(12, shard_count, 40, 0, ExecMode::Parallel, lookahead);
                assert_eq!(
                    par, reference,
                    "{shard_count} parallel shards ({lookahead}) diverged"
                );
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
        // Pinned to fixed lookahead — the adaptive planner collapses those
        // quiet epochs outright (covered by the test below), which would
        // defeat the "many epochs, few exchanges" shape this test needs.
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
    fn adaptive_lookahead_collapses_quiet_epochs() {
        // The same grinding ring as above: under adaptive lookahead the
        // per-counter forecasts point at the grind-chain ends, so the
        // planner folds each ~30-epoch quiet stretch into one long epoch.
        // Simulated results must not move; only the epoch shape may.
        let (reference, fixed) =
            run_ring_with(6, 1, 4, 30, ExecMode::Sequential, LookaheadMode::Fixed);
        let (sums, adaptive) =
            run_ring_with(6, 1, 4, 30, ExecMode::Sequential, LookaheadMode::Adaptive);
        assert_eq!(sums, reference, "lookahead mode changed simulated results");
        assert_eq!(adaptive.routed_events, fixed.routed_events);
        assert_eq!(adaptive.exchanges, fixed.exchanges);
        assert!(adaptive.extensions > 0, "no horizon extension taken");
        assert!(
            adaptive.epochs * 4 < fixed.epochs,
            "adaptive should collapse the grind: {} vs {} fixed epochs",
            adaptive.epochs,
            fixed.epochs
        );
        assert!(adaptive.max_epoch_len > LATENCY);
        assert!(adaptive.mean_epoch_len() > fixed.mean_epoch_len());
        // The forecast minima the planner sees are global, so the epoch
        // shape itself is invariant across shard counts and exec modes.
        for shard_count in [1, 2, 3] {
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let (sums, outcome) =
                    run_ring_with(6, shard_count, 4, 30, mode, LookaheadMode::Adaptive);
                assert_eq!(sums, reference, "{shard_count} shards {mode:?} diverged");
                assert_eq!(
                    outcome, adaptive,
                    "adaptive outcome changed with {shard_count} shards {mode:?}"
                );
            }
        }
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
        let (_, adaptive) =
            run_ring_with(6, 2, 4, 30, ExecMode::Sequential, LookaheadMode::Adaptive);
        let (_, spec) = run_ring_with(
            6,
            2,
            4,
            30,
            ExecMode::Sequential,
            LookaheadMode::Speculative,
        );
        for (name, outcome) in [("fixed", &fixed), ("adaptive", &adaptive), ("spec", &spec)] {
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
        assert_eq!(adaptive.epochs, 10);
        assert_eq!(adaptive.extensions, 5);
        assert_eq!(adaptive.epoch_cycles, 1550);
        assert_eq!(adaptive.max_epoch_len, 30 * LATENCY);
        assert!(adaptive.mean_epoch_len() > fixed.mean_epoch_len());
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
        for lookahead in [
            LookaheadMode::Fixed,
            LookaheadMode::Adaptive,
            LookaheadMode::Speculative,
        ] {
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let mut shards = vec![
                    RingShard::new(0, 2, 4, u64::MAX, 0),
                    RingShard::new(2, 2, 4, u64::MAX, 0),
                ];
                let shard_of = |node: u32| usize::from(node >= 2);
                let outcome = run_epochs(
                    &mut shards,
                    &shard_of,
                    LATENCY,
                    100,
                    mode,
                    lookahead,
                    SpecTuning::default(),
                );
                assert!(
                    outcome.aborted,
                    "{mode:?} {lookahead}: an endless ring must hit the cycle limit"
                );
                // Adaptive extension is clamped to the first epoch past the
                // limit, so aborts land on the same boundary either way.
                assert!(
                    outcome.last_horizon <= 100 + LATENCY,
                    "{mode:?} {lookahead}"
                );
            }
        }
    }

    #[test]
    fn empty_shards_finish_immediately() {
        for lookahead in [
            LookaheadMode::Fixed,
            LookaheadMode::Adaptive,
            LookaheadMode::Speculative,
        ] {
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
                assert_eq!(outcome, EpochOutcome::empty(), "{mode:?} {lookahead}");
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
