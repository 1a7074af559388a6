//! Conservative parallel discrete-event execution over shards.
//!
//! A large simulated machine is partitioned into **shards**, each owning a
//! disjoint slice of the model state and its own
//! [`EventQueue`](crate::event::EventQueue). Shards advance in lock-step
//! **epochs** of a fixed length chosen to be at most the model's minimum
//! cross-shard latency (the classic conservative-PDES *lookahead*): no event
//! emitted during an epoch can arrive inside the same epoch, so every shard
//! can process its epoch independently — on whichever worker thread owns it —
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
//! assignment, and thread scheduling. This is what makes an N-shard run on
//! any number of workers **bit-identical** to the 1-shard run: per-entity event
//! order is invariant, and (by the lookahead argument) nothing else can
//! matter.
//!
//! The driver itself is model-agnostic: anything implementing [`ShardSim`]
//! can be run with [`run_epochs`] on any number of worker threads. Every
//! worker count executes the exact same event schedule, because one planner
//! makes every schedule decision.
//!
//! # One planner, one executor
//!
//! Every schedule decision lives in a single `Planner`: it owns the router
//! (the staged cross-shard traffic), the speculation pacer and the
//! accumulating [`EpochOutcome`]. Each round it picks the next epoch
//! (fast-forwarding over empty stretches), decides whether to abort or
//! gamble, hands out the due arrivals, and later routes the emissions and
//! settles a gamble. The executor only moves events and advances shards.
//!
//! The executor splits the shards into `workers` contiguous **blocks** and
//! advances every block one step per round, the way a quantum-barrier
//! simulator puts many target nodes on each host processor. The calling
//! thread is the coordinator: it owns the planner and runs block 0 itself.
//! One worker is therefore the plain sequential loop — no thread, no lock,
//! no atomic, no allocation per round. With more workers, one helper thread
//! per further block is spawned once per run. Each round the coordinator
//! posts every helper its step and due arrivals, bumps an atomic generation
//! counter to release them, runs block 0, and waits on an atomic arrival
//! counter until every helper is back; then it routes the emissions and
//! plans the next round while the helpers wait. A waiter spins briefly,
//! then parks. Each helper's hand-off sits in one `Mutex` that is never
//! contended, because the coordinator touches it only while that helper
//! waits. Outboxes and staging buffers keep their capacity across rounds,
//! so the steady state allocates nothing. Callers size `workers` to the
//! host, not to the partition: with no more workers than cores, nobody
//! waits for a thread that cannot run.
//!
//! The expensive part of a barrier — the cross-shard exchange — costs
//! nothing when it has nothing to do: a block that emitted nothing hands
//! over an empty outbox, and a router with nothing staged answers every
//! query in O(1). Quiescent stretches therefore run exchange-free, paying
//! only the rendezvous itself. The rendezvous still happens every epoch —
//! with a lookahead of exactly one epoch, a shard cannot know that no other
//! shard emitted until that shard's epoch is complete, so skipping the
//! barrier itself would race the very traffic it is waiting for. Skipping
//! the exchange preserves the lookahead argument unchanged, and
//! bit-identical results with it: an epoch with no emissions and no staged
//! arrivals routes nothing and delivers nothing on any worker count.
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
//! Blocks speculate in lock-step rounds — one uniform speculated
//! horizon for every shard, all-or-nothing validation — because per-shard
//! divergent horizons are unsound: a lagging shard's post-rollback re-run
//! emits *different* traffic than its speculative run did, which could land
//! inside a leading shard's already-committed window (the classic Time
//! Warp cascade). The planner decides the gamble and its verdict from the
//! earliest held arrival over all blocks. Each block snapshots, holds and
//! restores its own shards, and a rollback re-runs every block to the
//! commit point. A shared exponential pacer
//! (capped at [`SPEC_PENALTY_CAP`] conservative rounds) keeps dense
//! workloads from paying checkpoint + rollback every round; it reads only
//! globally merged state, so commit/rollback counts are invariant across
//! shard counts and worker counts just like every other epoch statistic.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
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
/// `Send` is required so a block of shards can move to a helper thread of
/// [`run_epochs`].
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
    /// counts and worker counts (invariant 7). Must be O(1): every block
    /// reports it after every step.
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
/// across shard counts and worker counts — the knobs trade wasted
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
/// simulation and identical across shard counts and worker counts
/// (invariant 7): every observable [`SpecPacer::decide`] consumes is
/// globally merged state, the same for every partition.
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
/// Every field is invariant across shard counts and worker counts: the
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
    /// emitted traffic). Worker-count-invariant: an epoch's emissions are
    /// part of the bit-identical schedule, so every layout counts the same
    /// epochs. `epochs - exchanges` barriers ran exchange-free.
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

/// The epoch planner. It owns the router, the speculation pacer and the
/// accumulating [`EpochOutcome`], and makes every schedule decision exactly
/// once: fast-forward and abort, the gamble and its verdict, and the epoch
/// and exchange accounting. The executor only moves events and advances
/// shards, so no worker count can change the schedule (invariant 7).
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
    /// Plans the next round from every block's [`Summary`]. The pending
    /// counts are summed only under [`LookaheadMode::Speculative`], and the
    /// held-arrival scan runs only once the pacer approves a gamble. A
    /// refused round thus costs what a fixed-lookahead one does.
    fn plan(&mut self, blocks: &[Summary]) -> Round {
        if let Some(done) = self.current.take() {
            self.outcome
                .note_epoch(done.start, done.planned, done.horizon);
            if std::mem::take(&mut self.exchanged) {
                self.outcome.exchanges += 1;
            }
        }
        let next_events = blocks.iter().map(|b| b.next_event);
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
                let load = self.router.staged_count + blocks.iter().map(|b| b.pending).sum::<u64>();
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
/// routing) and must be non-zero. `workers` is the number of threads that
/// advance the shards, clamped to `1..=shards.len()`; one worker runs
/// everything on the calling thread. Every worker count executes the same
/// schedule (see the module docs).
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
/// Panics if `epoch` is zero or `shards` is empty, and propagates a panic
/// raised by any shard.
pub fn run_epochs<S: ShardSim>(
    shards: &mut [S],
    shard_of: &dyn Fn(u32) -> usize,
    epoch: Cycle,
    max_cycles: Cycle,
    workers: usize,
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
    let blocks = split_into_blocks(shards, workers.clamp(1, shards.len()));
    let summaries = blocks.iter().map(|(_, mail)| mail.summary).collect();
    let mut blocks = blocks.into_iter();
    let (own, mail) = blocks.next().expect("at least one block");
    let (helpers, mails): (Vec<_>, Vec<_>) = blocks.map(|(b, m)| (b, Mutex::new(m))).unzip();
    let mut coordinator = Coordinator {
        summaries,
        planner,
        shard_of,
        own,
        mail,
        helpers: &mails,
        barrier: None,
    };
    if helpers.is_empty() {
        coordinator.drive();
        return coordinator.planner.into_outcome();
    }
    let barrier = Barrier {
        generation: AtomicU64::new(0),
        arrived: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        coordinator: std::thread::current(),
        helpers: OnceLock::new(),
    };
    std::thread::scope(|scope| {
        let barrier = &barrier;
        let threads = helpers
            .into_iter()
            .zip(&mails)
            .map(|(block, mail)| {
                let spawned = scope.spawn(move || run_helper(block, mail, barrier));
                spawned.thread().clone()
            })
            .collect();
        barrier.helpers.get_or_init(|| threads);
        let _stop = StopOnPanic(barrier);
        coordinator.barrier = Some(barrier);
        coordinator.drive();
        // Finished, or a helper panicked: either way the helpers leave, and
        // the scope join propagates any panic.
        barrier.stop();
    });
    coordinator.planner.into_outcome()
}

/// Splits `shards` into `workers` contiguous blocks, as even as possible
/// and the larger ones last (block 0 also plans), each with its mail.
fn split_into_blocks<S: ShardSim>(
    shards: &mut [S],
    workers: usize,
) -> Vec<(Block<'_, S>, Mail<S::Msg>)> {
    let total = shards.len();
    let mut rest = shards;
    let mut first = 0;
    (0..workers)
        .map(|b| {
            let (shards, tail) =
                std::mem::take(&mut rest).split_at_mut((total - first) / (workers - b));
            rest = tail;
            let block = Block {
                shards,
                checkpoints: Vec::new(),
                speculated: false,
            };
            let mail = Mail {
                step: Step::Run(0),
                first,
                inbound: block.shards.iter().map(|_| Vec::new()).collect(),
                outbox: Outbox::new(),
                summary: block.summary(),
            };
            first += block.shards.len();
            (block, mail)
        })
        .collect()
}

/// What every block does in one step of the drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Deliver, then advance every shard to the horizon.
    Run(Cycle),
    /// Deliver, snapshot, then advance to the gambled horizon. The
    /// emissions stay held in the block's outbox until the planner settles
    /// the gamble.
    Spec(Cycle),
    /// The gamble rolled back: drop the held emissions, restore every
    /// checkpoint and re-execute conservatively to the commit point.
    Reexec(Cycle),
}

/// What the planner reads off a block after each step.
#[derive(Debug, Clone, Copy, Default)]
struct Summary {
    /// Earliest pending event over the block's shards.
    next_event: Option<Cycle>,
    /// Summed [`ShardSim::pending_len`] over the block's shards.
    pending: u64,
}

/// What the coordinator and a block exchange each step: the step and its
/// due arrivals going in, the emissions and a [`Summary`] coming out.
/// Block 0's mail is a plain local of the calling thread. A helper's sits in
/// a `Mutex` that is never contended: the coordinator only locks it while
/// the helper waits at the barrier.
struct Mail<M> {
    step: Step,
    /// Index of the block's first shard in the whole partition.
    first: usize,
    /// Arrivals due this step, one buffer per shard of the block, in
    /// canonical order; capacity is reused.
    inbound: Vec<Vec<(Cycle, Stamp, M)>>,
    /// The block's emissions from its last step, all its shards together.
    outbox: Outbox<M>,
    summary: Summary,
}

/// One worker's contiguous run of shards, with what the worker keeps to
/// itself: one checkpoint per shard for gambles, and whether the last
/// gamble is still unsettled.
struct Block<'a, S: ShardSim> {
    shards: &'a mut [S],
    checkpoints: Vec<S::Checkpoint>,
    speculated: bool,
}

impl<S: ShardSim> Block<'_, S> {
    /// Executes `mail.step`. This is the only place shards advance.
    fn run(&mut self, mail: &mut Mail<S::Msg>) {
        match mail.step {
            Step::Run(horizon) | Step::Spec(horizon) => {
                let gamble = matches!(mail.step, Step::Spec(_));
                self.settle();
                if gamble && self.checkpoints.is_empty() {
                    self.checkpoints = self
                        .shards
                        .iter()
                        .map(|_| S::Checkpoint::default())
                        .collect();
                }
                for (i, (shard, inbound)) in
                    self.shards.iter_mut().zip(&mut mail.inbound).enumerate()
                {
                    // A gamble delivers *before* its snapshot, so a restore
                    // rewinds to a state that already owns the arrivals.
                    for (at, _, msg) in inbound.drain(..) {
                        shard.accept(at, msg);
                    }
                    if gamble {
                        shard.snapshot(&mut self.checkpoints[i]);
                    }
                    shard.advance(horizon, &mut mail.outbox);
                }
                self.speculated = gamble;
            }
            Step::Reexec(commit) => {
                mail.outbox.staged.clear();
                for (shard, checkpoint) in self.shards.iter_mut().zip(&self.checkpoints) {
                    shard.restore(checkpoint);
                    shard.advance(commit, &mut mail.outbox);
                }
                self.speculated = false;
            }
        }
        mail.summary = self.summary();
    }

    /// Commits the last gamble if it is still unsettled. Any step but a
    /// re-execution, and the end of the drive, means it validated clean.
    fn settle(&mut self) {
        if std::mem::take(&mut self.speculated) {
            for shard in self.shards.iter_mut() {
                shard.commit_speculation();
            }
        }
    }

    fn summary(&self) -> Summary {
        Summary {
            next_event: self.shards.iter().filter_map(S::next_event_time).min(),
            pending: self.shards.iter().map(S::pending_len).sum(),
        }
    }
}

/// Applies `f` to every block's mail, block 0 first. Only the helpers'
/// mails take a lock.
fn for_each_mail<M>(
    own: &mut Mail<M>,
    helpers: &[Mutex<Mail<M>>],
    mut f: impl FnMut(&mut Mail<M>),
) {
    f(own);
    for mail in helpers {
        f(&mut mail.lock().unwrap());
    }
}

/// The calling thread's side of the drive. It owns the planner and block 0,
/// and with more than one worker it releases and awaits the helpers.
struct Coordinator<'a, S: ShardSim> {
    planner: Planner<S::Msg>,
    shard_of: &'a dyn Fn(u32) -> usize,
    own: Block<'a, S>,
    mail: Mail<S::Msg>,
    helpers: &'a [Mutex<Mail<S::Msg>>],
    /// `None` with one worker.
    barrier: Option<&'a Barrier>,
    /// Every block's summary after its last step, block 0 first.
    summaries: Vec<Summary>,
}

impl<S: ShardSim> Coordinator<'_, S> {
    fn drive(&mut self) {
        loop {
            let (window, gamble) = match self.planner.plan(&self.summaries) {
                Round::Done | Round::Abort => break,
                Round::Run(window) => (window, false),
                Round::Spec(window) => (window, true),
            };
            let step = if gamble {
                Step::Spec(window.horizon)
            } else {
                Step::Run(window.horizon)
            };
            let planner = &mut self.planner;
            for_each_mail(&mut self.mail, self.helpers, |mail| {
                for (i, inbound) in mail.inbound.iter_mut().enumerate() {
                    planner.deliver(mail.first + i, window.planned, inbound);
                }
                mail.step = step;
            });
            if !self.step_all() {
                return;
            }
            let mut floor = window.horizon;
            if gamble {
                let mut held = None;
                for_each_mail(&mut self.mail, self.helpers, |mail| {
                    held = held.into_iter().chain(mail.outbox.earliest_arrival()).min();
                });
                if let Some(commit) = self.planner.resolve(held) {
                    for_each_mail(&mut self.mail, self.helpers, |mail| {
                        mail.step = Step::Reexec(commit);
                    });
                    if !self.step_all() {
                        return;
                    }
                    floor = commit;
                }
            }
            let (planner, shard_of) = (&mut self.planner, self.shard_of);
            let mut summaries = self.summaries.iter_mut();
            for_each_mail(&mut self.mail, self.helpers, |mail| {
                planner.absorb(&mut mail.outbox.staged, shard_of, floor);
                *summaries.next().expect("one summary per block") = mail.summary;
            });
        }
        self.own.settle();
    }

    /// Runs the posted step on every block: releases the helpers, runs
    /// block 0 here, and waits for the helpers to arrive. Returns `false`
    /// if a helper panicked instead.
    fn step_all(&mut self) -> bool {
        let Some(barrier) = self.barrier else {
            self.own.run(&mut self.mail);
            return true;
        };
        // No helper arrives again before the generation moves.
        barrier.arrived.store(0, Ordering::Relaxed);
        barrier.generation.fetch_add(1, Ordering::Release);
        barrier.wake_helpers();
        self.own.run(&mut self.mail);
        barrier.wait(|| barrier.arrived.load(Ordering::Acquire) == barrier.helper_count())
    }
}

/// How many times a waiting thread spins before it parks. Workers never
/// outnumber the host's cores, so the thread waited on is running, usually
/// on another core, and a short spin catches it without a syscall.
const SPINS: u32 = 256;

/// The rendezvous between the coordinator and its helpers.
struct Barrier {
    /// Bumped (release) by the coordinator once per posted step.
    generation: AtomicU64,
    /// Helpers done with the current step; the last one wakes the
    /// coordinator.
    arrived: AtomicUsize,
    /// Raised when the drive is over — finished, or a thread panicked.
    stop: AtomicBool,
    coordinator: Thread,
    /// The helper threads, registered once they are spawned.
    helpers: OnceLock<Vec<Thread>>,
}

impl Barrier {
    /// Spins, then parks, until `done` holds (`true`) or the drive stops
    /// (`false`). The unpark token makes the hand-off race-free, and the
    /// timeout turns any lost wake-up into a stall instead of a deadlock.
    fn wait(&self, done: impl Fn() -> bool) -> bool {
        let mut spins = 0;
        loop {
            if done() {
                return true;
            }
            if self.stop.load(Ordering::Acquire) {
                return false;
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park_timeout(Duration::from_millis(5));
            }
        }
    }

    fn helper_count(&self) -> usize {
        self.helpers.get().map_or(0, Vec::len)
    }

    fn wake_helpers(&self) {
        for thread in self.helpers.get().into_iter().flatten() {
            thread.unpark();
        }
    }

    /// Ends the drive and wakes every thread to notice.
    fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.coordinator.unpark();
        self.wake_helpers();
    }
}

/// Stops the drive if its thread unwinds, so a panic in any block (or in
/// the planner) releases the other threads and propagates through the
/// scope join instead of deadlocking it.
struct StopOnPanic<'a>(&'a Barrier);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// A helper worker: runs its block once per posted step and arrives at the
/// barrier, until the drive stops.
fn run_helper<S: ShardSim>(mut block: Block<'_, S>, mail: &Mutex<Mail<S::Msg>>, barrier: &Barrier) {
    let _stop = StopOnPanic(barrier);
    let mut seen = 0;
    while barrier.wait(|| barrier.generation.load(Ordering::Acquire) != seen) {
        seen += 1;
        block.run(&mut mail.lock().unwrap());
        if barrier.arrived.fetch_add(1, Ordering::AcqRel) + 1 == barrier.helper_count() {
            barrier.coordinator.unpark();
        }
    }
    block.settle();
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
        workers: usize,
        lookahead: LookaheadMode,
    ) -> (Vec<u64>, EpochOutcome) {
        run_ring_until(
            total,
            shard_count,
            hops,
            local_work,
            Cycle::MAX,
            workers,
            lookahead,
        )
    }

    fn run_ring_until(
        total: u32,
        shard_count: u32,
        hops: u64,
        local_work: u64,
        max_cycles: Cycle,
        workers: usize,
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
            workers,
            lookahead,
            SpecTuning::default(),
        );
        let mut sums = Vec::new();
        for shard in &shards {
            sums.extend_from_slice(&shard.sum);
        }
        (sums, outcome)
    }

    fn run_ring(total: u32, shard_count: u32, hops: u64) -> (Vec<u64>, EpochOutcome) {
        run_ring_with(total, shard_count, hops, 0, 1, LookaheadMode::Fixed)
    }

    /// The worker counts each multi-worker check runs for `shards` shards:
    /// one, two, three and one per shard, so that uneven blocks (3 shards
    /// on 2 workers, 4 on 3) are covered.
    fn worker_counts(shards: u32) -> Vec<usize> {
        let shards = shards as usize;
        let mut counts: Vec<usize> = [1, 2, 3, shards]
            .into_iter()
            .filter(|&w| w <= shards)
            .collect();
        counts.dedup();
        counts
    }

    #[test]
    fn sharded_ring_is_invariant_across_shard_counts_and_modes() {
        // The dense ring and the grinding ring. Results must match the
        // fixed single-shard run everywhere, and the whole epoch outcome
        // must match the single-shard run of the same lookahead mode: the
        // planner reads only globally merged state.
        for (total, hops, local_work) in [(12, 40, 0), (6, 4, 30)] {
            let run = |shards, workers, lookahead| {
                run_ring_with(total, shards, hops, local_work, workers, lookahead)
            };
            let (reference, _) = run(1, 1, LookaheadMode::Fixed);
            for lookahead in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
                let (_, outcome) = run(1, 1, lookahead);
                for shard_count in [1, 2, 3, 4] {
                    for workers in worker_counts(shard_count) {
                        let (sums, other) = run(shard_count, workers, lookahead);
                        let case = format!(
                            "{total}-ring, {shard_count} shards on {workers} workers ({lookahead})"
                        );
                        assert_eq!(sums, reference, "{case} diverged");
                        assert_eq!(other, outcome, "{case} changed the epoch outcome");
                    }
                }
            }
        }
    }

    #[test]
    fn drive_terminates_and_counts_epochs() {
        let (_, outcome) = run_ring(4, 2, 5);
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
        let (reference, seq) = run_ring_with(6, 1, 4, 30, 1, fixed);
        for shard_count in [2, 3] {
            for workers in worker_counts(shard_count) {
                let (sums, outcome) = run_ring_with(6, shard_count, 4, 30, workers, fixed);
                let case = format!("{shard_count} shards on {workers} workers");
                assert_eq!(sums, reference, "{case} diverged");
                assert_eq!(outcome, seq, "{case} changed the exchange count");
            }
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
        let (reference, fixed) = run_ring_with(6, 1, 4, 30, 1, LookaheadMode::Fixed);
        let (sums, spec) = run_ring_with(6, 1, 4, 30, 1, LookaheadMode::Speculative);
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
        let (dense_ref, _) = run_ring(12, 1, 40);
        let (dense_sums, dense) = run_ring_with(12, 1, 40, 0, 1, LookaheadMode::Speculative);
        assert_eq!(dense_sums, dense_ref, "rollback changed simulated results");
        assert!(dense.spec_rollbacks > 0, "dense ring should roll back");
    }

    #[test]
    fn speculative_outcome_is_invariant_across_shards_and_modes() {
        // Every speculation decision (gamble horizon, validation minimum,
        // pacer cooldown) is a function of global state only, so the whole
        // commit/rollback schedule — not just the results — must be
        // identical for any sharding and any worker count.
        for (total, hops, local_work) in [(6, 4, 30), (12, 40, 0)] {
            let spec = LookaheadMode::Speculative;
            let (reference, outcome) = run_ring_with(total, 1, hops, local_work, 1, spec);
            for shard_count in [2, 3] {
                for workers in worker_counts(shard_count) {
                    let (sums, other) =
                        run_ring_with(total, shard_count, hops, local_work, workers, spec);
                    let case = format!("{shard_count} shards on {workers} workers");
                    assert_eq!(sums, reference, "{case} diverged");
                    assert_eq!(other, outcome, "speculation schedule changed with {case}");
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
        let (_, fixed) = run_ring_with(6, 2, 4, 30, 1, LookaheadMode::Fixed);
        let (_, spec) = run_ring_with(6, 2, 4, 30, 1, LookaheadMode::Speculative);
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
        // Every layout must record the very same abort, and every lookahead
        // mode must process the same event set before it.
        for (total, hops, local_work, max_cycles) in [(4, u64::MAX, 0, 100), (6, 4, 30, 725)] {
            let (reference, _) = run_ring_until(
                total,
                2,
                hops,
                local_work,
                max_cycles,
                1,
                LookaheadMode::Fixed,
            );
            for lookahead in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
                let run = |shards, workers| {
                    run_ring_until(
                        total, shards, hops, local_work, max_cycles, workers, lookahead,
                    )
                };
                let (_, seq) = run(2, 1);
                assert!(
                    seq.aborted,
                    "{lookahead}: the ring must hit the cycle limit"
                );
                // Gambles are clamped to the first epoch past
                // the limit, so aborts land on the same boundary either way.
                assert!(seq.last_horizon <= max_cycles + LATENCY, "{lookahead}");
                for shard_count in [2, 3, 4] {
                    for workers in worker_counts(shard_count) {
                        let (sums, outcome) = run(shard_count, workers);
                        let case =
                            format!("{lookahead}, {shard_count} shards on {workers} workers");
                        assert_eq!(sums, reference, "{case}: aborted at a different point");
                        assert_eq!(outcome, seq, "{case}: recorded a different abort");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_shards_finish_immediately() {
        for lookahead in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
            for shard_count in [2, 3, 4] {
                for workers in worker_counts(shard_count) {
                    let mut shards: Vec<RingShard> = (0..shard_count)
                        .map(|s| RingShard::new(s, 1, shard_count, 0, 0))
                        .collect();
                    for shard in &mut shards {
                        shard.events.clear();
                    }
                    let shard_of = |node: u32| node as usize;
                    let outcome = run_epochs(
                        &mut shards,
                        &shard_of,
                        LATENCY,
                        Cycle::MAX,
                        workers,
                        lookahead,
                        SpecTuning::default(),
                    );
                    let case = format!("{shard_count} shards on {workers} workers, {lookahead}");
                    assert_eq!(outcome, EpochOutcome::default(), "{case}");
                }
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
        // Three shards on two workers split 1 + 2: shard 0 is block 0, run
        // by the calling thread; shards 1 and 2 belong to the helper.
        for armed in [0, 2] {
            let result = std::panic::catch_unwind(|| {
                let mut shards: Vec<Bomb> = (0..3).map(|s| Bomb { armed: s == armed }).collect();
                let shard_of = |_node: u32| 0usize;
                run_epochs(
                    &mut shards,
                    &shard_of,
                    LATENCY,
                    100,
                    2,
                    LookaheadMode::Fixed,
                    SpecTuning::default(),
                )
            });
            assert!(result.is_err(), "the panic in shard {armed} must propagate");
        }
    }
}
