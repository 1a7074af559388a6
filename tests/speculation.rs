//! Differential harness for speculative epoch execution (determinism
//! invariant 7): speculation — commit *or* rollback — must be unobservable
//! in results.
//!
//! The correctness oracle is the repo's existing bit-identity machinery:
//! every case compares full [`RunReport`]s (the same comparison
//! `tests/sharding.rs` uses) *and* the [`report_digest`] fingerprint the
//! scaling harness pins in `SCALING_ref.txt`, across three lookahead
//! policies — the fixed-grid single-shard reference, an adaptive run and
//! speculative runs on both epoch drivers (sequential and the persistent
//! worker pool). If a rollback ever restored less than the full pre-gamble
//! state, or a commit ever differed from the conservative re-execution it
//! replaced, the digests diverge.
//!
//! Cases are drawn from a master seed in the house style of
//! `tests/properties.rs`, with two environment knobs for CI's fuzz step:
//!
//! - `SPEC_SEED=<hex-or-decimal>` overrides the master seed (CI passes a
//!   randomized value and echoes it to the job log);
//! - `SPEC_FUZZ_MS=<millis>` turns the fixed batch into a time-boxed fuzz
//!   loop that keeps drawing fresh cases until the budget is spent.
//!
//! Every assertion message carries the master seed and a one-line repro
//! command, so any failure — fuzzed or not — reproduces exactly.

use std::time::{Duration, Instant};

use cni::core::machine::{
    CheckpointStrategy, EpochOutcome, LookaheadMode, Machine, MachineConfig, RunReport,
    ShardPolicy, SpecTuning,
};
use cni::mem::system::DeviceLocation;
use cni::net::faults::FaultConfig;
use cni::nic::NiKind;
use cni::sim::rng::DetRng;
use cni::workloads::{Workload, WorkloadParams};
use cni_bench::report_digest;

/// Master seed used when `SPEC_SEED` is not set. The default batch is part
/// of the deterministic test suite, so this value is as pinned as any other
/// seed in the repo.
const DEFAULT_SEED: u64 = 0x5bec_0597_ec1a_7e08;

/// Cases per NI kind in the fixed batch (ignored under `SPEC_FUZZ_MS`).
const CASES_PER_KIND: usize = 2;

/// Resolves the master seed: `SPEC_SEED` (hex with `0x` prefix, or
/// decimal; underscores allowed) or the pinned default.
fn master_seed() -> u64 {
    match std::env::var("SPEC_SEED") {
        Ok(raw) => parse_seed(&raw)
            .unwrap_or_else(|| panic!("SPEC_SEED={raw:?} is not a hex or decimal u64")),
        Err(_) => DEFAULT_SEED,
    }
}

fn parse_seed(raw: &str) -> Option<u64> {
    let s: String = raw.trim().chars().filter(|&c| c != '_').collect();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Optional time box: `SPEC_FUZZ_MS` in milliseconds.
fn fuzz_budget() -> Option<Duration> {
    let raw = std::env::var("SPEC_FUZZ_MS").ok()?;
    let ms: u64 = raw
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("SPEC_FUZZ_MS={raw:?} is not a u64 millisecond count"));
    Some(Duration::from_millis(ms))
}

/// One randomized configuration of the differential matrix.
#[derive(Debug)]
struct Case {
    workload: Workload,
    kind: NiKind,
    /// The bus the NI sits on; with the NI kind it decides whether nodes
    /// have a device cache (every CNI off the cache bus) or not (`NI2w`).
    location: DeviceLocation,
    /// Processor-cache snarfing (`CNI16Qm` only): a set written by a bus
    /// snoop rather than a demand access, which rollbacks must rewind too.
    snarfing: bool,
    nodes: usize,
    shards: usize,
    faults: Option<FaultConfig>,
    /// Randomized pacer observable thresholds: every case exercises a
    /// different refuse/deepen/give-up regime, and the schedule must still
    /// be identical across drivers and checkpoint strategies.
    tuning: SpecTuning,
}

/// Workload pool: the paper macrobenchmarks with distinct communication
/// patterns plus one synthetic convergence pattern, all cheap at tiny size.
const WORKLOADS: [Workload; 6] = [
    Workload::Em3d,
    Workload::Gauss,
    Workload::Spsolve,
    Workload::Barnes,
    Workload::Dsmc,
    Workload::Hotspot,
];

impl Case {
    /// Draws a case. Fault rates include zero (clean speculation) and two
    /// lossy mixes that force retransmission traffic into the gambled
    /// horizon, so rollback paths are exercised alongside commits.
    fn draw(rng: &mut DetRng, kind: NiKind) -> Case {
        let workload = WORKLOADS[rng.gen_index(WORKLOADS.len())];
        let locations: &[DeviceLocation] = match kind {
            NiKind::Ni2w => &[
                DeviceLocation::MemoryBus,
                DeviceLocation::IoBus,
                DeviceLocation::CacheBus,
            ],
            // Memory-homed queues cannot sit behind the I/O bus (§2.3).
            NiKind::Cni16Qm => &[DeviceLocation::MemoryBus],
            _ => &[DeviceLocation::MemoryBus, DeviceLocation::IoBus],
        };
        let location = locations[rng.gen_index(locations.len())];
        let snarfing = kind == NiKind::Cni16Qm && rng.gen_bool(0.5);
        let nodes = 4 + rng.gen_index(7); // 4..=10
        let shards = 1 + rng.gen_index(4); // 1..=4
        let faults = match rng.gen_index(3) {
            0 => None,
            1 => Some(FaultConfig {
                seed: rng.next_u64(),
                drop_ppm: 80_000,
                corrupt_ppm: 60_000,
                duplicate_ppm: 60_000,
                delay_ppm: 60_000,
                ..FaultConfig::default()
            }),
            _ => Some(FaultConfig {
                seed: rng.next_u64(),
                drop_ppm: 200_000,
                ..FaultConfig::default()
            }),
        };
        let depth = 1 + rng.gen_index(6) as u64;
        let tuning = SpecTuning {
            depth,
            depth_max: depth * (1 + rng.gen_index(8) as u64),
            dense_staged: [32, 256, 2_048][rng.gen_index(3)],
            give_up_rollbacks: 2 + rng.gen_index(7) as u64,
            penalty_cap: 1 << (2 + rng.gen_index(5)),
        };
        Case {
            workload,
            kind,
            location,
            snarfing,
            nodes,
            shards,
            faults,
            tuning,
        }
    }

    fn config(&self) -> MachineConfig {
        let mut cfg =
            MachineConfig::for_bus(self.nodes, self.kind, self.location).with_pacer(self.tuning);
        if self.snarfing {
            cfg = cfg.with_snarfing();
        }
        match &self.faults {
            Some(f) => cfg.with_faults(f.clone()),
            None => cfg,
        }
    }

    fn describe(&self) -> String {
        let faults = match &self.faults {
            Some(f) => format!("faults(seed {:#x}, drop {} ppm)", f.seed, f.drop_ppm),
            None => "no faults".to_string(),
        };
        format!(
            "{}/{} on the {}{}: {} nodes, {} shards, {}, pacer {:?}",
            self.kind,
            self.workload,
            self.location,
            if self.snarfing { " with snarfing" } else { "" },
            self.nodes,
            self.shards,
            faults,
            self.tuning
        )
    }
}

/// Runs one machine and returns its report plus the epoch driver's outcome.
fn run(
    cfg: MachineConfig,
    workload: Workload,
    params: &WorkloadParams,
) -> (RunReport, EpochOutcome) {
    let programs = workload.programs(cfg.nodes, params);
    let mut machine = Machine::new(cfg, programs);
    let report = machine.run();
    let outcome = *machine
        .epoch_outcome()
        .expect("run() always records an epoch outcome");
    (report, outcome)
}

/// Executes one differential case; returns the speculative outcome totals
/// (sequential driver) for the non-vacuity tally.
fn check_case(case: &Case, seed: u64, index: usize) -> EpochOutcome {
    let params = WorkloadParams::tiny();
    // The one-line repro: re-running the test with the printed seed regrows
    // the identical case sequence, including this case at this index.
    let repro = format!(
        "repro: SPEC_SEED={seed:#x} cargo test --test speculation -- differential (case #{index}: {})",
        case.describe()
    );

    let (reference, _) = run(
        case.config()
            .with_shards(ShardPolicy::Single)
            .with_lookahead(LookaheadMode::Fixed),
        case.workload,
        &params,
    );
    assert!(reference.completed, "{repro}: reference did not complete");
    let want = report_digest(&reference);

    let (adaptive, _) = run(
        case.config()
            .with_shards(ShardPolicy::Fixed(case.shards))
            .with_lookahead(LookaheadMode::Adaptive),
        case.workload,
        &params,
    );
    assert_eq!(adaptive, reference, "{repro}: adaptive run diverged");
    assert_eq!(
        report_digest(&adaptive),
        want,
        "{repro}: adaptive digest diverged"
    );

    let mut spec_outcome = None;
    for strategy in [CheckpointStrategy::Full, CheckpointStrategy::Incremental] {
        for parallel in [false, true] {
            let (speculative, outcome) = run(
                case.config()
                    .with_shards(ShardPolicy::Fixed(case.shards))
                    .with_parallel(parallel)
                    .with_lookahead(LookaheadMode::Speculative)
                    .with_checkpoint(strategy),
                case.workload,
                &params,
            );
            assert_eq!(
                speculative, reference,
                "{repro}: speculative run ({strategy:?}, parallel = {parallel}) diverged"
            );
            assert_eq!(
                report_digest(&speculative),
                want,
                "{repro}: speculative digest ({strategy:?}, parallel = {parallel}) diverged"
            );
            // The gamble/commit/rollback schedule is deterministic,
            // driver-invariant *and* checkpoint-strategy-invariant (how a
            // snapshot is stored cannot leak into what the pacer sees), so
            // all four speculative runs must agree on it exactly.
            match spec_outcome {
                None => spec_outcome = Some(outcome),
                Some(first) => assert_eq!(
                    outcome, first,
                    "{repro}: drivers/strategies disagreed on the speculation \
                     schedule ({strategy:?}, parallel = {parallel})"
                ),
            }
        }
    }
    spec_outcome.expect("the speculative matrix ran")
}

/// The differential matrix. In the default batch mode this runs
/// `CASES_PER_KIND` randomized cases for every NI kind; under
/// `SPEC_FUZZ_MS` it keeps drawing cases round-robin across NI kinds until
/// the time budget is spent.
#[test]
fn differential_speculation_is_unobservable() {
    let seed = master_seed();
    let mut rng = DetRng::new(seed);
    let mut commits = 0u64;
    let mut rollbacks = 0u64;
    let mut cases = 0usize;

    if let Some(budget) = fuzz_budget() {
        let start = Instant::now();
        // Always complete at least one full NI sweep, even on a tiny budget.
        loop {
            for kind in NiKind::ALL {
                let case = Case::draw(&mut rng, kind);
                let outcome = check_case(&case, seed, cases);
                commits += outcome.spec_commits;
                rollbacks += outcome.spec_rollbacks;
                cases += 1;
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        println!(
            "spec-fuzz: seed {seed:#x}, {cases} cases in {:?} \
             ({commits} commits, {rollbacks} rollbacks)",
            start.elapsed()
        );
    } else {
        for kind in NiKind::ALL {
            for _ in 0..CASES_PER_KIND {
                let case = Case::draw(&mut rng, kind);
                let outcome = check_case(&case, seed, cases);
                commits += outcome.spec_commits;
                rollbacks += outcome.spec_rollbacks;
                cases += 1;
            }
        }
    }

    // Non-vacuity: the matrix must exercise both resolution paths. Any
    // healthy batch speculates every first round, and the lossy mixes force
    // conflicts; a batch with zero commits or zero rollbacks means the
    // speculative path silently stopped running.
    assert!(
        commits > 0,
        "seed {seed:#x}: no case committed a speculative round ({cases} cases)"
    );
    assert!(
        rollbacks > 0,
        "seed {seed:#x}: no case rolled a speculative round back ({cases} cases)"
    );
}

/// Mutation-style check that the oracle has teeth for *incremental*
/// restores, not just full-clone ones: two deliberately broken checkpoint
/// strategies — [`CheckpointStrategy::SkipNodeRestore`] leaves the first
/// dirtied node un-rewound on every rollback, and
/// [`CheckpointStrategy::SkipQueueDelta`] drops one journaled event from
/// every queue rewind — must each be caught, either by this harness's own
/// report/digest comparison or by an internal invariant panicking mid-run.
/// A control run with the honest incremental strategy on the same fixture
/// must match the reference bit for bit *and* actually roll back, so the
/// sabotage targets a path the fixture provably executes.
#[test]
fn sabotaged_incremental_restores_are_caught_by_the_oracle() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let params = WorkloadParams::tiny();
    // The appbt grinding fixture from `tests/properties.rs`: its pinned
    // speculative schedule commits and rolls back under the default pacer.
    let speculative = |strategy: CheckpointStrategy| {
        MachineConfig::isca96(6, NiKind::Cni16Qm)
            .with_shards(ShardPolicy::Fixed(2))
            .with_lookahead(LookaheadMode::Speculative)
            .with_checkpoint(strategy)
    };

    let (reference, _) = run(
        MachineConfig::isca96(6, NiKind::Cni16Qm)
            .with_shards(ShardPolicy::Single)
            .with_lookahead(LookaheadMode::Fixed),
        Workload::Appbt,
        &params,
    );
    assert!(reference.completed);
    let want = report_digest(&reference);

    let (honest, outcome) = run(
        speculative(CheckpointStrategy::Incremental),
        Workload::Appbt,
        &params,
    );
    assert_eq!(honest, reference, "control: honest incremental diverged");
    assert_eq!(report_digest(&honest), want);
    assert!(
        outcome.spec_rollbacks > 0,
        "control: the fixture must roll back, or the sabotages below are vacuous"
    );

    for sabotage in [
        CheckpointStrategy::SkipNodeRestore,
        CheckpointStrategy::SkipQueueDelta,
    ] {
        // A sabotaged run may legitimately panic on an internal invariant
        // (e.g. the emitter census) before it ever produces a report;
        // silence the hook so the expected panic does not spam the log.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(speculative(sabotage), Workload::Appbt, &params).0
        }));
        std::panic::set_hook(hook);
        let caught = match outcome {
            Err(_) => true,
            Ok(report) => report != reference || report_digest(&report) != want,
        };
        assert!(
            caught,
            "{sabotage:?}: the differential oracle failed to notice a \
             sabotaged incremental restore"
        );
    }
}

/// Seed parsing accepts the formats CI and humans actually type.
#[test]
fn seed_parsing_formats() {
    assert_eq!(parse_seed("0x10"), Some(16));
    assert_eq!(parse_seed("0X10"), Some(16));
    assert_eq!(parse_seed("42"), Some(42));
    assert_eq!(parse_seed(" 0xdead_beef "), Some(0xdead_beef));
    assert_eq!(parse_seed("1_000"), Some(1000));
    assert_eq!(parse_seed("zebra"), None);
    assert_eq!(parse_seed(""), None);
}
