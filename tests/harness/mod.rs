//! The differential harness: no simulator-performance knob changes a
//! simulated result (determinism invariants 3, 5, 7 and 8 in
//! `ARCHITECTURE.md`).
//!
//! One [`DetRng`] generator draws every case: workload, NI kind, a bus
//! valid for it, snarfing, machine size, shard count, speculation-pacer
//! tuning and one of five fault shapes. One checker runs each case six
//! ways: the 1-shard fixed-lookahead reference; N shards on one worker and
//! on `min(N, cores)` workers, under fixed and under speculative lookahead;
//! and one shard under speculative lookahead. It asserts that
//!
//! - every [`RunReport`] equals the reference's (cycles, bus occupancy,
//!   fabric and per-node statistics, RPC latency histograms included);
//! - [`DispatchStats`] and [`EpochOutcome`] are equal across shard and
//!   worker counts within one lookahead mode.
//!
//! The default batch is split into named slices, one test each, so a
//! failure names the part of the knob matrix it broke:
//!
//! - `tests/sharding.rs`: the quick-tier registry grid (every
//!   `Workload::ALL` × `NiKind::ALL` pair, fault-free on the memory bus at
//!   the quick tier's inputs and node count), the 256-node, 8-shard em3d
//!   case, and one slice per workload family and fault shape;
//! - `tests/speculation.rs`: every NI kind on every bus valid for it, with
//!   and without snarfing;
//! - `tests/differential.rs`: randomized rounds over the whole matrix, and
//!   the fuzz loop.
//!
//! Each slice ends by asserting that its equalities were not vacuous:
//! speculation committed and rolled back, the faults it injects fired,
//! deliveries parked, and so on, as the slice names.
//!
//! Two environment knobs:
//!
//! - `DIFF_SEED=<hex-or-decimal>` replaces the pinned master seed that every
//!   slice derives its cases from (CI passes a random one and echoes it to
//!   the job log);
//! - `DIFF_FUZZ_MS=<millis>` makes `tests/differential.rs` keep drawing
//!   randomized rounds until that many milliseconds have passed.
//!
//! Every failure message carries a one-line repro: the command with its
//! seed and test name, the case index and the case's description.

// Each test binary that includes this module uses a different part of it.
#![allow(dead_code)]

use std::time::Duration;

use cni::core::machine::{
    DispatchStats, EpochOutcome, LookaheadMode, Machine, MachineConfig, RunReport, ShardPolicy,
    SpecTuning, SpeculationConfig,
};
use cni::mem::system::DeviceLocation;
use cni::net::faults::{FailWindow, FaultConfig};
use cni::nic::NiKind;
use cni::sim::rng::DetRng;
use cni::workloads::{ParamsTier, Workload, WorkloadParams};

/// Master seed used when `DIFF_SEED` is not set. The default batch is part
/// of the deterministic test suite, so this value is as pinned as any other
/// seed in the repo.
const DEFAULT_SEED: u64 = 0xd1ff_5eed_0c4a_11e5;

/// Resolves the master seed: `DIFF_SEED` (hex with `0x` prefix, or
/// decimal; underscores allowed) or the pinned default.
pub fn master_seed() -> u64 {
    match std::env::var("DIFF_SEED") {
        Ok(raw) => parse_seed(&raw)
            .unwrap_or_else(|| panic!("DIFF_SEED={raw:?} is not a hex or decimal u64")),
        Err(_) => DEFAULT_SEED,
    }
}

pub fn parse_seed(raw: &str) -> Option<u64> {
    let s: String = raw.trim().chars().filter(|&c| c != '_').collect();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Optional fuzz budget: `DIFF_FUZZ_MS` in milliseconds.
pub fn fuzz_budget() -> Option<Duration> {
    let raw = std::env::var("DIFF_FUZZ_MS").ok()?;
    let ms: u64 = raw
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("DIFF_FUZZ_MS={raw:?} is not a u64 millisecond count"));
    Some(Duration::from_millis(ms))
}

/// The fault environments a case can run in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultShape {
    /// A perfect fabric: the fault layer is structurally absent.
    None,
    /// The resilience campaign's mix: drops, corruptions, duplicates and
    /// delays.
    Lossy,
    /// One message in five dropped, nothing else.
    DropHeavy,
    /// Two nodes unreachable for a window each, recovered by retransmission
    /// once the windows close; no other faults, so every destroyed message
    /// is an outage drop.
    Outage,
    /// Retransmission off, duplicate and delay noise, and an RTO shorter
    /// than the ack round trip: timers fire, rearm and do nothing, and every
    /// rollback must restore them.
    InertTimers,
}

impl FaultShape {
    pub const ALL: [FaultShape; 5] = [
        FaultShape::None,
        FaultShape::Lossy,
        FaultShape::DropHeavy,
        FaultShape::Outage,
        FaultShape::InertTimers,
    ];

    fn draw(self, rng: &mut DetRng, nodes: usize) -> FaultConfig {
        let seed = rng.next_u64();
        match self {
            FaultShape::None => FaultConfig::default(),
            FaultShape::Lossy => FaultConfig::lossy(seed, 150_000),
            FaultShape::DropHeavy => FaultConfig {
                seed,
                drop_ppm: 200_000,
                ..FaultConfig::default()
            },
            FaultShape::Outage => {
                let mut window = || {
                    let from = rng.gen_range(5_000);
                    FailWindow {
                        node: rng.gen_index(nodes) as u32,
                        from,
                        until: from + 5_000 + rng.gen_range(45_000),
                    }
                };
                FaultConfig {
                    seed,
                    fail_windows: vec![window(), window()],
                    ..FaultConfig::default()
                }
            }
            FaultShape::InertTimers => FaultConfig {
                seed,
                duplicate_ppm: 120_000,
                delay_ppm: 120_000,
                retransmit: false,
                rto_cycles: 60,
                ..FaultConfig::default()
            },
        }
    }
}

/// The buses an NI kind may sit on.
fn locations(kind: NiKind) -> &'static [DeviceLocation] {
    match kind {
        NiKind::Ni2w => &[
            DeviceLocation::MemoryBus,
            DeviceLocation::IoBus,
            DeviceLocation::CacheBus,
        ],
        // Memory-homed queues cannot sit behind the I/O bus (§2.3).
        NiKind::Cni16Qm => &[DeviceLocation::MemoryBus],
        _ => &[DeviceLocation::MemoryBus, DeviceLocation::IoBus],
    }
}

/// One point of the knob matrix.
#[derive(Debug, Clone)]
pub struct Case {
    /// Which part of the batch the case belongs to.
    origin: &'static str,
    workload: Workload,
    params: WorkloadParams,
    kind: NiKind,
    /// The bus the NI sits on; with the NI kind it decides whether nodes
    /// have a device cache (every CNI off the cache bus) or not (`NI2w`).
    location: DeviceLocation,
    /// Processor-cache snarfing (`CNI16Qm` only): a set written by a bus
    /// snoop rather than a demand access, which rollbacks must rewind too.
    snarfing: bool,
    nodes: usize,
    shards: usize,
    shape: FaultShape,
    faults: FaultConfig,
    tuning: SpecTuning,
}

/// A speculation-pacer tuning: every case exercises a different
/// refuse/deepen/give-up regime.
fn draw_tuning(rng: &mut DetRng) -> SpecTuning {
    let depth = 1 + rng.gen_range(6);
    SpecTuning {
        depth,
        depth_max: depth * (1 + rng.gen_range(8)),
        dense_staged: [32, 256, 2_048][rng.gen_index(3)],
        give_up_rollbacks: 2 + rng.gen_range(7),
        penalty_cap: 1 << (2 + rng.gen_index(5)),
    }
}

impl Case {
    /// One cell of the quick-tier registry grid: fault-free on the memory
    /// bus, the one bus every NI is valid on. Only the performance knobs
    /// are drawn, with at least two shards so every cell crosses a shard
    /// boundary.
    fn grid(rng: &mut DetRng, workload: Workload, kind: NiKind) -> Case {
        let nodes = ParamsTier::Quick.nodes();
        Case {
            origin: "quick grid",
            workload,
            params: ParamsTier::Quick.params(),
            kind,
            location: DeviceLocation::MemoryBus,
            snarfing: false,
            nodes,
            shards: 2 + rng.gen_index(nodes - 1),
            shape: FaultShape::None,
            faults: FaultConfig::default(),
            tuning: draw_tuning(rng),
        }
    }

    /// A case with machine size, shards, faults and tuning drawn. `bus_turn`
    /// picks the bus (and, for `CNI16Qm`, snarfing) by rotation, so
    /// consecutive turns cover every valid choice.
    fn random(
        rng: &mut DetRng,
        workload: Workload,
        kind: NiKind,
        shape: FaultShape,
        bus_turn: usize,
    ) -> Case {
        let buses = locations(kind);
        let nodes = 4 + rng.gen_index(7); // 4..=10
        Case {
            origin: "random",
            workload,
            params: WorkloadParams::tiny(),
            kind,
            location: buses[bus_turn % buses.len()],
            snarfing: kind == NiKind::Cni16Qm && bus_turn.is_multiple_of(2),
            nodes,
            shards: 1 + rng.gen_index(nodes),
            shape,
            faults: shape.draw(rng, nodes),
            tuning: draw_tuning(rng),
        }
    }

    /// The acceptance-scale case: a 256-node machine on 8 shards. A small
    /// weak-scaled em3d graph with half its edges remote keeps the run
    /// short while crossing shard boundaries constantly.
    pub fn large() -> Case {
        let nodes = 256;
        let mut params = WorkloadParams::tiny();
        params.em3d.graph_nodes = nodes * 4;
        params.em3d.remote_fraction = 0.5;
        params.em3d.iterations = 2;
        Case {
            origin: "256-node em3d",
            workload: Workload::Em3d,
            params,
            kind: NiKind::Cni512Q,
            location: DeviceLocation::MemoryBus,
            snarfing: false,
            nodes,
            shards: 8,
            shape: FaultShape::None,
            faults: FaultConfig::default(),
            tuning: SpecTuning::default(),
        }
    }

    fn config(&self, lookahead: LookaheadMode, shards: usize, parallel: bool) -> MachineConfig {
        let cfg = MachineConfig::for_bus(self.nodes, self.kind, self.location)
            .with_shards(ShardPolicy::Fixed(shards))
            .with_parallel(parallel)
            .with_faults(self.faults.clone())
            .with_speculation(SpeculationConfig {
                lookahead,
                pacer: self.tuning,
            });
        if self.snarfing {
            cfg.with_snarfing()
        } else {
            cfg
        }
    }

    fn describe(&self) -> String {
        let faults = match self.shape {
            FaultShape::None => "no faults".to_string(),
            shape => format!("{shape:?} faults (seed {:#x})", self.faults.seed),
        };
        format!(
            "{}: {}/{} on the {}{}, {} nodes, {} shards, {faults}, pacer {:?}",
            self.origin,
            self.kind,
            self.workload,
            self.location,
            if self.snarfing { " with snarfing" } else { "" },
            self.nodes,
            self.shards,
            self.tuning
        )
    }
}

/// What one machine run produced.
struct Run {
    report: RunReport,
    dispatch: DispatchStats,
    outcome: EpochOutcome,
    workers: usize,
}

fn run(case: &Case, cfg: MachineConfig) -> Run {
    let workers = cfg.workers();
    let programs = case.workload.programs(case.nodes, &case.params);
    let mut machine = Machine::new(cfg, programs);
    let report = machine.run();
    Run {
        report,
        dispatch: machine.dispatch_stats(),
        outcome: *machine
            .epoch_outcome()
            .expect("run() always records an epoch outcome"),
        workers,
    }
}

/// What a slice must show it exercised; [`Batch::require`] asserts each is
/// nonzero (or true) across the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    Commits,
    Rollbacks,
    Drops,
    Corruptions,
    DupDiscards,
    OutageDrops,
    InertTimeouts,
    Parked,
    SkippedExchanges,
    LatencySamples,
    OneNodePerShard,
    /// Required only on a host with at least two cores.
    MultiWorker,
}

/// Slice-wide evidence that the equalities were not vacuous.
#[derive(Debug, Default)]
pub struct Tally {
    pub cases: usize,
    commits: u64,
    rollbacks: u64,
    drops: u64,
    corruptions: u64,
    dup_discards: u64,
    outage_drops: u64,
    inert_timeouts: u64,
    parked: u64,
    skipped_exchanges: u64,
    latency_samples: u64,
    one_node_per_shard: bool,
    multi_worker: bool,
}

impl Tally {
    fn add(&mut self, case: &Case, reference: &Run, speculative: &Run) {
        let fabric = &reference.report.fabric;
        self.cases += 1;
        self.commits += speculative.outcome.spec_commits;
        self.rollbacks += speculative.outcome.spec_rollbacks;
        match case.shape {
            FaultShape::Outage => self.outage_drops += fabric.faults_dropped,
            _ => self.drops += fabric.faults_dropped,
        }
        self.corruptions += fabric.corruptions_detected;
        self.dup_discards += fabric.dup_discards;
        if case.shape == FaultShape::InertTimers {
            self.inert_timeouts += fabric.timeouts;
        }
        self.parked += reference.dispatch.parked;
        self.skipped_exchanges += reference.outcome.epochs - reference.outcome.exchanges;
        self.latency_samples += reference
            .report
            .node_stats
            .iter()
            .map(|s| s.request_latency.count())
            .sum::<u64>();
        self.one_node_per_shard |= case.shards == case.nodes;
    }

    fn shows(&self, evidence: Evidence) -> bool {
        match evidence {
            Evidence::Commits => self.commits > 0,
            Evidence::Rollbacks => self.rollbacks > 0,
            Evidence::Drops => self.drops > 0,
            Evidence::Corruptions => self.corruptions > 0,
            Evidence::DupDiscards => self.dup_discards > 0,
            Evidence::OutageDrops => self.outage_drops > 0,
            Evidence::InertTimeouts => self.inert_timeouts > 0,
            Evidence::Parked => self.parked > 0,
            Evidence::SkippedExchanges => self.skipped_exchanges > 0,
            Evidence::LatencySamples => self.latency_samples > 0,
            Evidence::OneNodePerShard => self.one_node_per_shard,
            Evidence::MultiWorker => self.multi_worker || cni::sim::pool::auto_jobs() < 2,
        }
    }
}

/// One slice of the batch: its seed, its repro command, its case stream
/// and its tally.
pub struct Batch {
    pub seed: u64,
    command: String,
    rng: DetRng,
    pub tally: Tally,
}

impl Batch {
    /// The slice run by `test` in the test target `target`. Its cases are
    /// drawn from the master seed mixed with the test's name, so each
    /// slice has its own stream and `DIFF_SEED` redraws them all.
    pub fn new(target: &str, test: &str) -> Batch {
        let seed = master_seed();
        Batch::with_command(
            seed,
            test,
            format!("DIFF_SEED={seed:#x} cargo test --test {target} {test}"),
        )
    }

    /// Like [`Batch::new`] with an explicit repro command, for a fuzz loop
    /// whose command must carry its budget too.
    pub fn with_command(seed: u64, test: &str, command: String) -> Batch {
        // FNV-1a over the test name.
        let name = test.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Batch {
            seed,
            command,
            rng: DetRng::new(seed ^ name),
            tally: Tally::default(),
        }
    }

    /// Runs `case` six ways, checks them against the reference and each
    /// other, folds what they exercised into the tally and returns the
    /// reference report.
    pub fn check(&mut self, case: Case) -> RunReport {
        use LookaheadMode::{Fixed, Speculative};
        let repro = format!(
            "repro: {} (case #{}: {})",
            self.command,
            self.tally.cases,
            case.describe()
        );
        let reference = run(&case, case.config(Fixed, 1, false));
        assert!(
            reference.report.completed,
            "{repro}\nthe reference did not complete:\n{}",
            reference.report.pending_summary()
        );
        assert!(
            reference.report.fabric.messages > 0,
            "{repro}\nthe reference sent no network message, so there was no order to keep"
        );
        let speculative = run(&case, case.config(Speculative, 1, false));
        assert_eq!(
            speculative.report, reference.report,
            "{repro}\nthe 1-shard speculative run diverged from the reference"
        );
        for (lookahead, base) in [(Fixed, &reference), (Speculative, &speculative)] {
            for parallel in [false, true] {
                let layout = format!(
                    "{lookahead:?} lookahead on {} shards, parallel = {parallel}",
                    case.shards
                );
                let sharded = run(&case, case.config(lookahead, case.shards, parallel));
                assert_eq!(
                    sharded.report, reference.report,
                    "{repro}\n{layout}: the report diverged from the reference"
                );
                assert_eq!(
                    sharded.dispatch, base.dispatch,
                    "{repro}\n{layout}: DispatchStats differ from the 1-shard run"
                );
                assert_eq!(
                    sharded.outcome, base.outcome,
                    "{repro}\n{layout}: EpochOutcome differs from the 1-shard run"
                );
                self.tally.multi_worker |= sharded.workers > 1;
            }
        }
        self.tally.add(&case, &reference, &speculative);
        reference.report
    }

    /// The quick-tier registry grid: every `Workload::ALL` × `NiKind::ALL`
    /// pair, fault-free on the memory bus.
    pub fn grid(&mut self) {
        for workload in Workload::ALL {
            for kind in NiKind::ALL {
                let case = Case::grid(&mut self.rng, workload, kind);
                self.check(case);
            }
        }
    }

    /// One randomized case per NI kind × workload × fault shape. Each
    /// kind's buses rotate from a drawn offset.
    pub fn product(&mut self, workloads: &[Workload], shapes: &[FaultShape]) {
        for kind in NiKind::ALL {
            let mut bus_turn = self.rng.gen_index(6);
            for &workload in workloads {
                for &shape in shapes {
                    let case = Case::random(&mut self.rng, workload, kind, shape, bus_turn);
                    bus_turn += 1;
                    self.check(case);
                }
            }
        }
    }

    /// Every NI kind on every bus valid for it (`CNI16Qm` with and without
    /// snarfing), each with a drawn workload and the fault-free or the lossy
    /// shape.
    pub fn every_bus(&mut self) {
        for kind in NiKind::ALL {
            let turns = if kind == NiKind::Cni16Qm {
                2
            } else {
                locations(kind).len()
            };
            for bus_turn in 0..turns {
                let workload = Workload::ALL[self.rng.gen_index(Workload::ALL.len())];
                let shape = [FaultShape::None, FaultShape::Lossy][self.rng.gen_index(2)];
                let case = Case::random(&mut self.rng, workload, kind, shape, bus_turn);
                self.check(case);
            }
        }
    }

    /// Three cases per NI kind with drawn workloads. Bus and fault shape
    /// rotate from drawn offsets: each kind's cases reach every bus valid
    /// for it (and both snarfing settings), the round's 15 cases hold every
    /// fault shape three times, and the kind-shape pairing changes from
    /// round to round.
    pub fn random_round(&mut self) {
        let mut shape_turn = self.rng.gen_index(FaultShape::ALL.len());
        for kind in NiKind::ALL {
            let bus_offset = self.rng.gen_index(6);
            for turn in 0..3 {
                let shape = FaultShape::ALL[shape_turn % FaultShape::ALL.len()];
                shape_turn += 1;
                let workload = Workload::ALL[self.rng.gen_index(Workload::ALL.len())];
                let case = Case::random(&mut self.rng, workload, kind, shape, bus_offset + turn);
                self.check(case);
            }
        }
    }

    /// Asserts that the slice showed every piece of `evidence`.
    pub fn require(&self, evidence: &[Evidence]) {
        for &what in evidence {
            assert!(
                self.tally.shows(what),
                "repro: {}: no {what:?} in {} cases",
                self.command,
                self.tally.cases
            );
        }
    }
}
