//! Host-time benchmark of the CNI simulator.
//!
//! Four workloads drive the simulator through its public API only
//! (`Workload::programs`, `Machine::new`, `Machine::run`,
//! `Machine::epoch_outcome`, `Machine::checkpoint_stats`,
//! `campaign::run_campaigns`, `ExperimentSpec::execute`). Every repetition
//! is checked against pinned simulated output; a repetition that differs
//! counts as failed. See `README.md` in this directory for the metrics, the
//! layer map and how to run it.
#![forbid(unsafe_code)]

pub mod trace;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use cni_bench::campaign::figures::{render_results_markdown, report_campaigns};
use cni_bench::campaign::{
    run_campaigns, CacheMode, Campaign, CampaignSetRun, CellOutcome, ExecKnobs, RunOptions,
};
use cni_core::digest::Fnv64;
use cni_core::machine::{
    CheckpointStats, EpochOutcome, LookaheadMode, Machine, MachineConfig, NodeStats, PendingWork,
    RunReport, ShardPolicy, SpeculationConfig,
};
use cni_net::{FabricStats, FaultConfig};
use cni_nic::taxonomy::NiKind;
use cni_sim::rng::DetRng;
use cni_workloads::gauss::GaussParams;
use cni_workloads::{ParamsTier, RpcParams, Workload, WorkloadParams};

use trace::{HookTotals, Trace};

/// The seed that selects the repository's default inputs, whose outputs
/// are pinned in [`PINNED_DIGESTS`].
pub const DEFAULT_SEED: u64 = 0;

/// [`full_digest`] of each machine workload's full-size run at
/// [`DEFAULT_SEED`].
pub const PINNED_DIGESTS: [(Bench, u64); 3] = [
    (Bench::Em3d1024, 0x5193_5c2e_78e1_e049),
    (Bench::GaussSpec, 0xb7b0_e1b9_43da_e4ed),
    (Bench::RpcLossy, 0x9c95_7993_8440_603f),
];

/// The committed scaled-tier report that `report-scaled` must reproduce
/// byte for byte.
pub const RESULTS_MD: &str = include_str!("../../RESULTS.md");

/// Worker threads of the `report-scaled` campaign pool in the traced run.
pub const REPORT_JOBS: usize = 2;

/// Worker threads of the timed `report-scaled` repetitions: one, so that
/// the calling thread runs every cell and its CPU time is the run's.
const TIMED_REPORT_JOBS: usize = 1;

/// Fewest timed repetitions a run reports, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Host seconds a fresh `--setup-only` process spends setting up; one runs
/// after every timed repetition, and `setup_s` is the mean of their
/// medians. In a process that has already run the workload, set-up time
/// depends on what the allocator kept of the memory the run freed: on a
/// 2-vCPU Xeon VM, `rpc-lossy` set up in about 2.1 ms in some such processes
/// and 3.8 ms in others. A fresh process sets up from the same state every
/// time, as a user's does, and spreading the processes over the whole run
/// lets `setup_s` see the same host as `run_s`.
const SETUP_PROCESS_S: f64 = 0.1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// em3d weak-scaled to 1,024 nodes: dense fine-grain traffic.
    Em3d1024,
    /// gauss (Table 3 inputs, 16 nodes) under speculative lookahead.
    GaussSpec,
    /// Open-loop RPC on a saturated NI over a lossy fabric.
    RpcLossy,
    /// Every `RESULTS.md` campaign at the scaled tier, uncached.
    ReportScaled,
}

impl Bench {
    /// Every workload the benchmark runs.
    pub const ALL: [Bench; 4] = [
        Bench::Em3d1024,
        Bench::GaussSpec,
        Bench::RpcLossy,
        Bench::ReportScaled,
    ];

    /// The workloads `BENCHMARK.json` gates on, in its order. `em3d-1024`
    /// is left out: on a shared 2-vCPU Xeon VM its run time followed other
    /// tenants' use of the shared cache more closely than any other
    /// workload's, and its spread over ten runs exceeded the largest bound a
    /// metric may have (see `README.md`).
    pub const GATED: [Bench; 3] = [Bench::GaussSpec, Bench::RpcLossy, Bench::ReportScaled];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Em3d1024 => "em3d-1024",
            Bench::GaussSpec => "gauss-spec",
            Bench::RpcLossy => "rpc-lossy",
            Bench::ReportScaled => "report-scaled",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Whether `--seed` changes the workload's inputs. gauss and the report
    /// campaigns have no input seed.
    pub fn seeded(self) -> bool {
        matches!(self, Bench::Em3d1024 | Bench::RpcLossy)
    }
}

/// Full-size inputs, or the reduced variant the self-test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's inputs.
    Full,
    /// Small inputs with the same configuration, for the self-test.
    Reduced,
}

/// `seed` salted with `salt`: one independent input seed per randomised
/// input.
fn derive_seed(seed: u64, salt: u64) -> u64 {
    DetRng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// One single-machine workload: its inputs and the machine they run on.
#[derive(Debug, Clone)]
pub struct MachineCase {
    /// The registry workload.
    pub workload: Workload,
    /// Its inputs.
    pub params: WorkloadParams,
    /// The machine.
    pub cfg: MachineConfig,
}

impl MachineCase {
    /// The case behind a machine workload; `None` for `report-scaled`.
    pub fn new(bench: Bench, seed: u64, size: Size) -> Option<MachineCase> {
        let reduced = size == Size::Reduced;
        let reseed = seed != DEFAULT_SEED;
        let mut params = WorkloadParams::tiny();
        let (workload, cfg) = match bench {
            Bench::Em3d1024 => {
                // Weak-scaled the way `scaling big` builds it.
                let nodes = if reduced { 64 } else { 1024 };
                params.em3d.graph_nodes = nodes * if reduced { 8 } else { 32 };
                params.em3d.degree = 5;
                params.em3d.iterations = if reduced { 4 } else { 25 };
                if reseed {
                    params.em3d.seed = derive_seed(seed, 1);
                }
                let cfg = MachineConfig::isca96(nodes, NiKind::Cni512Q)
                    .with_shards(ShardPolicy::Fixed(2))
                    .with_parallel(false);
                (Workload::Em3d, cfg)
            }
            Bench::GaussSpec => {
                let nodes = if reduced { 8 } else { 16 };
                params.gauss = if reduced {
                    GaussParams::default()
                } else {
                    GaussParams::paper()
                };
                // Sequential, like em3d-1024: on a 2-vCPU VM the parallel
                // barrier ran 3-4x slower for minutes at a time whenever the
                // host took one vCPU away.
                let cfg = MachineConfig::isca96(nodes, NiKind::Cni16Q)
                    .with_shards(ShardPolicy::Fixed(2))
                    .with_parallel(false)
                    .with_speculation(SpeculationConfig {
                        lookahead: LookaheadMode::Speculative,
                        ..SpeculationConfig::default()
                    });
                (Workload::Gauss, cfg)
            }
            Bench::RpcLossy => {
                let nodes = if reduced { 16 } else { 64 };
                params.rpc_open = RpcParams {
                    servers: if reduced { 4 } else { 8 },
                    requests_per_client: if reduced { 6 } else { 24 },
                    ..RpcParams::open()
                };
                let mut fault_seed = 7;
                if reseed {
                    params.rpc_open.seed = derive_seed(seed, 2);
                    fault_seed = derive_seed(seed, 3);
                }
                // Two sequential shards under speculative lookahead, so that
                // a gated workload drives the epoch planner and checkpoints;
                // the saturated NI keeps the pacer refusing most rounds.
                let cfg = MachineConfig::isca96_io(nodes, NiKind::Ni2w)
                    .with_shards(ShardPolicy::Fixed(2))
                    .with_parallel(false)
                    .with_speculation(SpeculationConfig {
                        lookahead: LookaheadMode::Speculative,
                        ..SpeculationConfig::default()
                    })
                    .with_faults(FaultConfig::lossy(fault_seed, 20_000));
                (Workload::RpcOpen, cfg)
            }
            Bench::ReportScaled => return None,
        };
        Some(MachineCase {
            workload,
            params,
            cfg,
        })
    }

    /// The same inputs on one sequential shard under fixed lookahead: the
    /// golden run a non-default seed is checked against.
    pub fn reference(&self) -> MachineCase {
        let mut cfg = self
            .cfg
            .clone()
            .with_shards(ShardPolicy::Fixed(1))
            .with_parallel(false);
        cfg.speculation = SpeculationConfig {
            lookahead: LookaheadMode::Fixed,
            ..SpeculationConfig::default()
        };
        MachineCase {
            cfg,
            ..self.clone()
        }
    }

    /// The traced run's comparison variant, if the workload has one:
    /// gauss under fixed lookahead (same output, no speculation) and the
    /// RPC service on a fault-free fabric (different output).
    pub fn comparison(&self, bench: Bench) -> Option<MachineCase> {
        let mut cfg = self.cfg.clone();
        match bench {
            Bench::GaussSpec => cfg.speculation.lookahead = LookaheadMode::Fixed,
            Bench::RpcLossy => cfg.faults = FaultConfig::default(),
            Bench::Em3d1024 | Bench::ReportScaled => return None,
        }
        Some(MachineCase {
            cfg,
            ..self.clone()
        })
    }
}

/// A 64-bit FNV-1a digest of every field of a [`RunReport`], including the
/// per-node latency histograms, the fault counters and the pending-work
/// summary. The exhaustive destructuring makes a new report field a compile
/// error here until it is hashed.
pub fn full_digest(report: &RunReport) -> u64 {
    let RunReport {
        completed,
        aborted,
        cycles,
        memory_bus_busy,
        io_bus_busy,
        memory_bus_busy_per_node,
        fabric,
        node_stats,
        pending,
    } = report;
    let mut h = Fnv64::new();
    for v in [
        u64::from(*completed),
        u64::from(*aborted),
        *cycles,
        *memory_bus_busy,
        *io_bus_busy,
        memory_bus_busy_per_node.len() as u64,
    ] {
        h.write_u64(v);
    }
    for &busy in memory_bus_busy_per_node {
        h.write_u64(busy);
    }
    let FabricStats {
        messages,
        wire_bytes,
        payload_bytes,
        faults_dropped,
        corruptions_detected,
        dup_discards,
        retransmits,
        timeouts,
    } = fabric;
    for v in [
        messages,
        wire_bytes,
        payload_bytes,
        faults_dropped,
        corruptions_detected,
        dup_discards,
        retransmits,
        timeouts,
    ] {
        h.write_u64(*v);
    }
    h.write_u64(node_stats.len() as u64);
    for stats in node_stats {
        let NodeStats {
            sent_messages,
            sent_bytes,
            sent_fragments,
            received_fragments,
            received_messages,
            received_bytes,
            compute_cycles,
            send_full_retries,
            local_messages,
            request_latency,
        } = stats;
        for v in [
            sent_messages,
            sent_bytes,
            sent_fragments,
            received_fragments,
            received_messages,
            received_bytes,
            compute_cycles,
            send_full_retries,
            local_messages,
        ] {
            h.write_u64(*v);
        }
        h.write_u64(request_latency.count());
        h.write_u64(request_latency.sum());
        h.write_u64(request_latency.max());
        for &bucket in request_latency.buckets() {
            h.write_u64(bucket);
        }
    }
    h.write_u64(pending.len() as u64);
    for p in pending {
        let PendingWork {
            node,
            blocked_sends,
            outgoing,
            inbox,
            ni_send,
            ni_recv,
            unacked,
        } = p;
        for v in [
            node,
            blocked_sends,
            outgoing,
            inbox,
            ni_send,
            ni_recv,
            unacked,
        ] {
            h.write_u64(*v as u64);
        }
    }
    h.finish()
}

/// The output a repetition must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// [`full_digest`] of a machine workload's report.
    Digest(u64),
    /// The rendered report markdown.
    Markdown(String),
}

/// Checks a machine run's report against its expected digest.
pub fn check_report(report: &RunReport, expected: &Expected) -> Result<(), String> {
    if report.aborted {
        return Err(format!(
            "hit the cycle limit at cycle {}; {}",
            report.cycles,
            report.pending_summary()
        ));
    }
    if !report.completed {
        return Err("did not complete".to_owned());
    }
    match expected {
        Expected::Digest(want) => {
            let got = full_digest(report);
            if got == *want {
                Ok(())
            } else {
                Err(format!("report digest {got:016x}, expected {want:016x}"))
            }
        }
        Expected::Markdown(_) => Err("a machine run has no markdown to check".to_owned()),
    }
}

/// Checks rendered report markdown against the expected text, naming the
/// first line that differs.
pub fn check_markdown(markdown: &str, expected: &Expected) -> Result<(), String> {
    let Expected::Markdown(want) = expected else {
        return Err("a campaign run has no report digest to check".to_owned());
    };
    if markdown == want {
        return Ok(());
    }
    let line = markdown
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| markdown.lines().count().min(want.lines().count()));
    Err(format!(
        "rendered report differs from the expected one at line {} ({} vs {} bytes)",
        line + 1,
        markdown.len(),
        want.len()
    ))
}

/// One machine run, with the host time of each public call.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// `Workload::programs`.
    pub gen_s: f64,
    /// `Machine::new`.
    pub build_s: f64,
    /// `Machine::run`.
    pub run_s: f64,
    /// CPU seconds of `Machine::run` on the calling thread, which runs
    /// every shard (0 if they could not be read).
    pub run_cpu_s: f64,
    /// The simulated result.
    pub report: RunReport,
    /// The epoch driver's summary.
    pub outcome: EpochOutcome,
    /// Speculative checkpoint accounting.
    pub ckpt: CheckpointStats,
    /// Hook and clone totals over all nodes (zero when untraced).
    pub hooks: HookTotals,
}

/// Builds and runs `case`'s machine. With a trace, every node's program is
/// wrapped in the hook decorator and the three calls are logged as spans.
pub fn run_machine(case: &MachineCase, trace: Option<&mut Trace>) -> MachineRun {
    let t0 = Instant::now();
    let programs = case.workload.programs(case.cfg.nodes, &case.params);
    let t1 = Instant::now();
    let (programs, node_hooks) = if trace.is_some() {
        let (wrapped, hooks) = trace::wrap(programs);
        (wrapped, Some(hooks))
    } else {
        (programs, None)
    };
    let t2 = Instant::now();
    let mut machine = Machine::new(case.cfg.clone(), programs);
    let t3 = Instant::now();
    let cpu3 = thread_cpu_s();
    let report = machine.run();
    let t4 = Instant::now();
    let cpu4 = thread_cpu_s();
    let outcome = *machine
        .epoch_outcome()
        .expect("a machine that ran has an epoch outcome");
    let ckpt = machine.checkpoint_stats();
    let mut hooks = HookTotals::default();
    if let (Some(trace), Some(node_hooks)) = (trace, node_hooks) {
        trace.record("workloads.Workload::programs", None, t0, t1);
        trace.record("core.Machine::new", None, t2, t3);
        let run = trace.record("core.Machine::run", None, t3, t4);
        trace.record_nodes(run, &node_hooks);
        for h in &node_hooks {
            hooks.add(&h.totals());
        }
    }
    MachineRun {
        gen_s: (t1 - t0).as_secs_f64(),
        build_s: (t3 - t2).as_secs_f64(),
        run_s: (t4 - t3).as_secs_f64(),
        run_cpu_s: cpu_between(cpu3, cpu4),
        report,
        outcome,
        ckpt,
        hooks,
    }
}

/// The `report-scaled` campaign set; the reduced variant runs the quick
/// tier over two workloads.
pub fn report_grid(size: Size) -> Vec<Campaign> {
    match size {
        Size::Full => report_campaigns(ParamsTier::Scaled, &Workload::ALL),
        Size::Reduced => report_campaigns(ParamsTier::Quick, &[Workload::Gauss, Workload::RpcOpen]),
    }
}

/// Host seconds of one set-up of `bench`'s full-size inputs:
/// `Workload::programs` plus `Machine::new`, or building the campaign grid
/// for `report-scaled`. What was built is dropped after the clock stops.
fn setup_once(bench: Bench, seed: u64) -> f64 {
    let case = MachineCase::new(bench, seed, Size::Full);
    let started = Instant::now();
    let elapsed = match &case {
        Some(case) => {
            let programs = case.workload.programs(case.cfg.nodes, &case.params);
            let machine = Machine::new(case.cfg.clone(), programs);
            let elapsed = started.elapsed();
            drop(machine);
            elapsed
        }
        None => {
            let campaigns = report_grid(Size::Full);
            let elapsed = started.elapsed();
            drop(campaigns);
            elapsed
        }
    };
    elapsed.as_secs_f64()
}

/// Median host seconds of `bench`'s full-size set-up, repeated in this
/// process for `seconds` (at least [`MIN_REPS`] times). This is what a
/// `--setup-only` process prints.
pub fn setup_median(bench: Bench, seed: u64, seconds: f64) -> f64 {
    let mut samples = Vec::new();
    repeat(seconds, MIN_REPS, |_| samples.push(setup_once(bench, seed)));
    median(&samples)
}

/// [`setup_median`] of one fresh `--setup-only` process of `exe`, waited
/// for.
fn setup_process(exe: &Path, bench: Bench, seed: u64) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["--workload", bench.name(), "--seed", &seed.to_string()])
        .args(["--setup-only", &SETUP_PROCESS_S.to_string()])
        .output()
        .map_err(|err| format!("could not start {}: {err}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(seconds) if out.status.success() && seconds > 0.0 => Ok(seconds),
        _ => Err(format!(
            "set-up process ({}) printed {:?}",
            out.status,
            stdout.trim()
        )),
    }
}

/// Repeats `rep`, one timed repetition returning its host and CPU seconds,
/// until `opts.seconds` have passed (at least [`MIN_REPS`] times). The
/// [`ReferenceKernel`] runs before the first repetition and after each,
/// and a [`setup_process`] after each. Returns the timings and
/// `setup_s`: the mean of those processes' medians, or 0 if one failed,
/// which the command line reports as unmeasurable.
fn timed_with_setups(
    opts: &Options,
    mut rep: impl FnMut(usize) -> Option<(f64, f64)>,
) -> (Timings, f64) {
    let mut timings = Timings::default();
    let mut setups = Vec::new();
    let mut kernel = ReferenceKernel::new();
    let mut before = kernel.cpu_s();
    repeat(opts.seconds, MIN_REPS, |i| {
        let timed = rep(i);
        let after = kernel.cpu_s();
        if let Some((wall, cpu)) = timed {
            timings.push(wall, cpu, (before + after) / 2.0);
        }
        before = after;
        setups.push(setup_process(&opts.exe, opts.bench, opts.seed));
    });
    let setup_s = match setups.into_iter().collect::<Result<Vec<f64>, String>>() {
        Ok(medians) => medians.iter().sum::<f64>() / medians.len() as f64,
        Err(why) => {
            eprintln!("perfbench: could not measure setup_s: {why}");
            0.0
        }
    };
    (timings, setup_s)
}

/// One uncached campaign-set run.
#[derive(Debug)]
pub struct ReportRun {
    /// `run_campaigns`.
    pub run_s: f64,
    /// CPU seconds of `run_campaigns` on the calling thread, which runs
    /// every cell when `jobs` is 1 (0 if they could not be read).
    pub run_cpu_s: f64,
    /// Its outcome.
    pub set: CampaignSetRun,
    /// The rendered report.
    pub markdown: String,
}

/// Runs the campaigns uncached on `jobs` pool workers and renders the
/// report markdown.
pub fn run_report(campaigns: &[Campaign], jobs: usize) -> ReportRun {
    let started = Instant::now();
    let cpu_started = thread_cpu_s();
    let set = run_campaigns(
        campaigns,
        &RunOptions {
            jobs,
            cache: CacheMode::Disabled,
            knobs: ExecKnobs::default(),
        },
    );
    let run_s = started.elapsed().as_secs_f64();
    let run_cpu_s = cpu_between(cpu_started, thread_cpu_s());
    let markdown = render_results_markdown(&set);
    ReportRun {
        run_s,
        run_cpu_s,
        set,
        markdown,
    }
}

/// Executes each unique cell of a pooled run once more, one at a time in
/// digest order, logging one span per `ExperimentSpec::execute` under
/// `parent`. Returns each cell's digest, host seconds and result JSON.
pub fn trace_cells(
    pooled: &CampaignSetRun,
    trace: &mut Trace,
    parent: usize,
) -> Vec<(u64, f64, String)> {
    let mut cells: Vec<&CellOutcome> = pooled.digest_index().into_values().collect();
    cells.sort_by_key(|cell| cell.digest);
    let knobs = ExecKnobs::default();
    cells
        .into_iter()
        .map(|cell| {
            let start = Instant::now();
            let json = cell.spec.execute(&knobs);
            let end = Instant::now();
            trace.record(
                format!("campaign.ExperimentSpec::execute {}", cell.spec.label()),
                Some(parent),
                start,
                end,
            );
            (cell.digest, (end - start).as_secs_f64(), json)
        })
        .collect()
}

/// The expected output of `bench` at `seed`: at full size, the pinned
/// digest for the default seed (or any seed, if the workload has no input
/// seed), otherwise a single-shard fixed-lookahead run of the same inputs;
/// for `report-scaled`, the committed `RESULTS.md` (full size) or a
/// one-worker run (reduced).
pub fn expected_output(bench: Bench, seed: u64, size: Size) -> Expected {
    match MachineCase::new(bench, seed, size) {
        Some(case) => {
            if (seed == DEFAULT_SEED || !bench.seeded()) && size == Size::Full {
                let pinned = PINNED_DIGESTS
                    .iter()
                    .find(|(b, _)| *b == bench)
                    .map(|&(_, d)| d)
                    .expect("every machine workload has a pinned digest");
                return Expected::Digest(pinned);
            }
            Expected::Digest(full_digest(&run_machine(&case.reference(), None).report))
        }
        None => match size {
            Size::Full => Expected::Markdown(RESULTS_MD.to_owned()),
            Size::Reduced => Expected::Markdown(run_report(&report_grid(size), 1).markdown),
        },
    }
}

/// What a benchmark invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub bench: Bench,
    /// Input seed ([`DEFAULT_SEED`] for the repository's inputs).
    pub seed: u64,
    /// Measuring time; the run repeats until it has passed.
    pub seconds: f64,
    /// The traced per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// Input size of the timed runs (set-up is always measured at full
    /// size).
    pub size: Size,
    /// The benchmark's executable, started again with `--setup-only` to
    /// measure `setup_s`.
    pub exe: PathBuf,
}

/// One reported figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The host and configuration a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Shards per simulated machine, as resolved.
    pub shards: usize,
    /// How the shards (or, for the report, the cells) execute.
    pub exec: &'static str,
    /// Campaign pool workers: for the report, 1 in the timed repetitions
    /// and 2 in the traced run's pooled rounds; 1 for the machine workloads.
    pub jobs: usize,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

impl Host {
    fn new(bench: Bench, seed: u64, trace: bool) -> Host {
        let (shards, exec, jobs) = match MachineCase::new(bench, seed, Size::Full) {
            Some(case) => {
                let exec = if case.cfg.exec_parallel() {
                    "parallel"
                } else {
                    "sequential"
                };
                (case.cfg.shard_count(), exec, 1)
            }
            None if trace => (1, "campaign pool", REPORT_JOBS),
            None => (1, "campaign pool", TIMED_REPORT_JOBS),
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shards,
            exec,
            jobs,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: checkout_commit().unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// The record as JSON object members (without braces).
    pub fn json_members(&self) -> String {
        format!(
            r#""nproc":{},"shards":{},"exec":"{}","jobs":{},"profile":"{}","commit":"{}""#,
            self.nproc, self.shards, self.exec, self.jobs, self.profile, self.commit
        )
    }
}

/// The commit the checkout's `.git` points at, read without running git.
fn checkout_commit() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// CPU seconds the calling thread has run (the first field of
/// `/proc/thread-self/schedstat`, in nanoseconds). Time the thread spent
/// waiting for a CPU, or that the hypervisor gave to another guest, is not
/// counted.
pub fn thread_cpu_s() -> Option<f64> {
    // The kernel updates a running thread's count only at scheduler ticks;
    // yielding brings it up to date to the nanosecond.
    std::thread::yield_now();
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// Events [`ReferenceKernel::run`] dispatches per call.
const REFERENCE_EVENTS: u64 = 2_000_000;

/// CPU seconds [`ReferenceKernel::run`] took on the development host (a
/// 2-vCPU Xeon VM, see `README.md`) in a quiet minute. `run_norm_s` and
/// `setup_s` are times scaled to a host on which it takes this long.
pub const REFERENCE_S: f64 = 0.29;

/// A fixed discrete-event loop that does not change with the simulator: a
/// binary-heap event queue, a heap-allocated payload per event, and a
/// 2 MB node table touched at random. Timed around each repetition, it
/// shows how fast the shared host is at that moment for this mix of work.
/// The table and the queue are allocated once, before anything is timed,
/// so the kernel adds the same 2 MB to every run's `peak_rss_mb`.
struct ReferenceKernel {
    table: Vec<[u64; 8]>,
    queue: BinaryHeap<Reverse<(u64, usize, Vec<u64>)>>,
}

impl ReferenceKernel {
    const NODES: usize = 1 << 15;
    const IN_FLIGHT: usize = 1024;

    /// Allocates the table and the queue.
    fn new() -> ReferenceKernel {
        ReferenceKernel {
            table: vec![[0; 8]; Self::NODES],
            queue: BinaryHeap::with_capacity(Self::IN_FLIGHT + 1),
        }
    }

    /// Dispatches `events` events from the same initial state every time,
    /// and returns a digest of the table.
    fn run(&mut self, events: u64) -> u64 {
        self.table.fill([0; 8]);
        self.queue.clear();
        let mut rng = DetRng::new(0x5EED_CA11_B4A7_E000);
        for node in 0..Self::IN_FLIGHT {
            let payload = vec![node as u64; 4];
            self.queue
                .push(Reverse((rng.gen_range(1_000), node, payload)));
        }
        let mut digest = Fnv64::new();
        for _ in 0..events {
            let Some(Reverse((at, node, payload))) = self.queue.pop() else {
                break;
            };
            let slot = &mut self.table[node];
            for (i, word) in payload.iter().enumerate() {
                slot[i & 7] = slot[i & 7].wrapping_mul(0x100_0000_01B3) ^ word;
            }
            digest.write_u64(slot[0]);
            let len = 2 + (slot[1] & 7) as usize;
            let next: Vec<u64> = (0..len).map(|i| slot[i & 7] ^ at).collect();
            let dest = rng.gen_index(Self::NODES);
            self.queue
                .push(Reverse((at + 1 + rng.gen_range(500), dest, next)));
        }
        digest.finish()
    }

    /// CPU seconds of one full-size [`ReferenceKernel::run`] on this thread
    /// (0 if they could not be read).
    fn cpu_s(&mut self) -> f64 {
        let started = thread_cpu_s();
        std::hint::black_box(self.run(std::hint::black_box(REFERENCE_EVENTS)));
        cpu_between(started, thread_cpu_s())
    }
}

/// CPU seconds between two readings, or 0 if either could not be taken,
/// which the command line reports as unmeasurable.
fn cpu_between(start: Option<f64>, end: Option<f64>) -> f64 {
    match (start, end) {
        (Some(start), Some(end)) => end - start,
        _ => 0.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Repetitions whose output was checked.
    pub attempted: u64,
    /// Repetitions that aborted, did not complete, panicked or failed the
    /// output check.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Figures printed for people but not gated (e.g. `failed_runs`).
    pub notes: Vec<Metric>,
    /// Where and how it was measured.
    pub host: Host,
    /// The span log of a traced run.
    pub trace: Option<Trace>,
}

/// Counts checked repetitions; a failure is reported on stderr, never
/// raised.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one repetition, catching a panic, and checks its output.
    fn rep<T>(
        &mut self,
        what: &str,
        body: impl FnOnce() -> T,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(body));
        let verdict = match &result {
            Ok(value) => check(value),
            Err(_) => Err("panicked".to_owned()),
        };
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: {what} failed: {why}");
        }
        result.ok()
    }
}

/// Repeats `round` until `seconds` have passed and at least `min` rounds
/// ran.
fn repeat(seconds: f64, min: usize, mut round: impl FnMut(usize)) {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut n = 0;
    while n < min || started.elapsed() < budget {
        round(n);
        n += 1;
    }
}

/// Runs the benchmark against the output [`expected_output`] gives.
pub fn run(opts: &Options) -> Outcome {
    run_against(opts, &expected_output(opts.bench, opts.seed, opts.size))
}

/// Runs the benchmark, counting every repetition whose output differs from
/// `expected` as failed.
pub fn run_against(opts: &Options, expected: &Expected) -> Outcome {
    let mut tally = Tally::default();
    let host = Host::new(opts.bench, opts.seed, opts.trace);
    let case = MachineCase::new(opts.bench, opts.seed, opts.size);
    let (metrics, mut notes, trace) = match (case, opts.trace) {
        (Some(case), true) => {
            let (metrics, trace) = traced_machine(opts, &case, expected, &mut tally);
            (metrics, Vec::new(), Some(trace))
        }
        (None, true) => {
            let (metrics, trace) = traced_report(opts, expected, &mut tally);
            (metrics, Vec::new(), Some(trace))
        }
        (Some(case), false) => {
            let (metrics, notes) = untraced_machine(opts, &case, expected, &mut tally);
            (metrics, notes, None)
        }
        (None, false) => {
            let (metrics, notes) = untraced_report(opts, expected, &mut tally);
            (metrics, notes, None)
        }
    };
    notes.push(Metric {
        name: "failed_runs",
        value: ratio(tally.failed as f64, tally.attempted as f64),
        unit: "ratio",
    });
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        host,
        trace,
    }
}

/// End-to-end metric names, units and directions, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("run_norm_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per timed repetition: the timed call's host seconds and CPU seconds,
/// and the mean CPU seconds of the [`ReferenceKernel`] runs just before
/// and just after it.
#[derive(Debug, Default)]
struct Timings {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    reference: Vec<f64>,
}

impl Timings {
    fn push(&mut self, wall: f64, cpu: f64, reference: f64) {
        self.wall.push(wall);
        self.cpu.push(cpu);
        self.reference.push(reference);
    }

    /// The end-to-end metrics and the figures printed beside them, given
    /// the mean set-up seconds of the run's set-up processes.
    /// `run_norm_s` is the median over repetitions of CPU seconds /
    /// reference seconds, times [`REFERENCE_S`]: each repetition is scaled
    /// by the host's speed at its own moment, so a slow-down that lasts
    /// longer than a repetition cancels. `setup_s` is scaled the same way,
    /// by the run's median reference seconds: each set-up process is too
    /// short to carry a reference run of its own.
    fn end_to_end(&self, setup_unscaled_s: f64) -> (Vec<Metric>, Vec<Metric>) {
        let scaled: Vec<f64> = self
            .cpu
            .iter()
            .zip(&self.reference)
            .map(|(&cpu, &reference)| ratio(cpu, reference))
            .collect();
        let peak = peak_rss_mb().unwrap_or(0.0);
        let setup_s = ratio(setup_unscaled_s, median(&self.reference)) * REFERENCE_S;
        let values = [median(&scaled) * REFERENCE_S, setup_s, peak];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric { name, value, unit })
            .collect();
        let note = |name, values: &[f64]| Metric {
            name,
            value: median(values),
            unit: "s",
        };
        let notes = vec![
            Metric {
                name: "repetitions",
                value: self.cpu.len() as f64,
                unit: "count",
            },
            note("run_s", &self.wall),
            note("run_cpu_s", &self.cpu),
            note("reference_cpu_s", &self.reference),
            note("setup_unscaled_s", &[setup_unscaled_s]),
        ];
        (metrics, notes)
    }
}

fn untraced_machine(
    opts: &Options,
    case: &MachineCase,
    expected: &Expected,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<Metric>) {
    let check = |run: &MachineRun| check_report(&run.report, expected);
    // One warm-up repetition lets allocator pools and page tables settle.
    tally.rep("warm-up repetition", || run_machine(case, None), check);
    let mut messages = 0.0;
    let (timings, setup_s) = timed_with_setups(opts, |i| {
        let what = format!("repetition {i}");
        let run = tally.rep(&what, || run_machine(case, None), check)?;
        messages = run.report.fabric.messages as f64;
        Some((run.run_s, run.run_cpu_s))
    });
    let (metrics, mut notes) = timings.end_to_end(setup_s);
    notes.push(Metric {
        name: "sim_msgs_per_s",
        value: ratio(messages, median(&timings.wall)),
        unit: "messages/s",
    });
    (metrics, notes)
}

fn untraced_report(
    opts: &Options,
    expected: &Expected,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<Metric>) {
    let check = |run: &ReportRun| check_markdown(&run.markdown, expected);
    let campaigns = report_grid(opts.size);
    tally.rep(
        "warm-up repetition",
        || run_report(&campaigns, TIMED_REPORT_JOBS),
        check,
    );
    let mut cells = 0.0;
    let (timings, setup_s) = timed_with_setups(opts, |i| {
        let what = format!("repetition {i}");
        let run = tally.rep(&what, || run_report(&campaigns, TIMED_REPORT_JOBS), check)?;
        cells = run.set.unique_cells as f64;
        Some((run.run_s, run.run_cpu_s))
    });
    let (metrics, mut notes) = timings.end_to_end(setup_s);
    notes.push(Metric {
        name: "cells_per_s",
        value: ratio(cells, median(&timings.wall)),
        unit: "cells/s",
    });
    (metrics, notes)
}

/// Per-layer metric names, units and directions, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: [(&str, &str, &str); 41] = [
    ("workloads.gen_s", "s", "lower"),
    ("workloads.hook_s", "s", "lower"),
    ("workloads.hook_calls", "count", "lower"),
    ("workloads.idle_useful_ratio", "ratio", "higher"),
    ("core.build_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.ns_per_msg", "ns", "lower"),
    ("core.send_full_retries", "count", "lower"),
    ("core.send_accept_ratio", "ratio", "higher"),
    ("core.sim_msgs_per_s", "messages/s", "higher"),
    ("mem.memory_bus_busy_cycles", "cycles", "lower"),
    ("mem.io_bus_busy_cycles", "cycles", "lower"),
    ("net.messages", "count", "lower"),
    ("net.retransmits", "count", "lower"),
    ("net.timeouts", "count", "lower"),
    ("net.faults_dropped", "count", "lower"),
    ("net.dup_discards", "count", "lower"),
    ("net.corruptions_detected", "count", "lower"),
    ("net.goodput_ratio", "ratio", "higher"),
    ("net.loss_overhead", "ratio", "lower"),
    ("sharded.epochs", "count", "lower"),
    ("sharded.exchanges", "count", "lower"),
    ("sharded.routed_events", "count", "lower"),
    ("sharded.mean_epoch_len", "cycles", "higher"),
    ("sharded.ns_per_epoch", "ns", "lower"),
    ("sharded.spec_commits", "count", "higher"),
    ("sharded.spec_rollbacks", "count", "lower"),
    ("sharded.spec_commit_ratio", "ratio", "higher"),
    ("sharded.spec_reexec_cycles", "cycles", "lower"),
    ("checkpoint.snapshots", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.peak_bytes", "bytes", "lower"),
    ("checkpoint.dirty_fraction", "ratio", "lower"),
    ("checkpoint.program_clones", "count", "lower"),
    ("checkpoint.program_clone_s", "s", "lower"),
    ("checkpoint.spec_overhead", "ratio", "lower"),
    ("campaign.cells", "count", "higher"),
    ("campaign.cell_s_sum", "s", "lower"),
    ("campaign.slowest_cell_s", "s", "lower"),
    ("pool.busy_ratio", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
];

/// Fills [`PER_LAYER`] from `values`; a metric a workload does not
/// exercise reads 0.
fn per_layer(values: &HashMap<&'static str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The per-layer figures of a traced run that are exact counts: identical
/// on every run of one config.
pub fn is_exact(unit: &str) -> bool {
    matches!(unit, "count" | "cycles" | "bytes")
}

fn traced_machine(
    opts: &Options,
    case: &MachineCase,
    expected: &Expected,
    tally: &mut Tally,
) -> (Vec<Metric>, Trace) {
    let mut trace = Trace::default();
    let comparison = case.comparison(opts.bench);
    // The fault-free variant has its own output: its first run pins it.
    let mut comparison_expected = match opts.bench {
        Bench::GaussSpec => Some(expected.clone()),
        _ => None,
    };
    let check = |run: &MachineRun| check_report(&run.report, expected);
    // What a traced repetition must repeat exactly from round to round.
    let counts = |run: &MachineRun| (run.hooks.calls, run.hooks.clones, run.outcome);
    tally.rep("warm-up repetition", || run_machine(case, None), check);
    let (mut plain_s, mut traced_s, mut comparison_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut gen_s, mut build_s, mut hook_s, mut clone_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<MachineRun> = None;
    repeat(opts.seconds, 2, |round| {
        // Alternate which variant runs first, so drift spreads evenly.
        for step in 0..3 {
            match (step + round) % 3 {
                0 => {
                    let what = format!("untraced round {round}");
                    if let Some(run) = tally.rep(&what, || run_machine(case, None), check) {
                        plain_s.push(run.run_s);
                    }
                }
                1 => {
                    let what = format!("traced round {round}");
                    let previous = last.as_ref().map(counts);
                    let traced = tally.rep(
                        &what,
                        || run_machine(case, Some(&mut trace)),
                        |run| {
                            check(run)?;
                            match previous {
                                Some(prev) if prev != counts(run) => {
                                    Err("hook calls, clones or the epoch outcome differ from \
                                     the previous traced round"
                                        .to_owned())
                                }
                                _ => Ok(()),
                            }
                        },
                    );
                    if let Some(run) = traced {
                        traced_s.push(run.run_s);
                        gen_s.push(run.gen_s);
                        build_s.push(run.build_s);
                        hook_s.push(run.hooks.hook_ns as f64 / 1e9);
                        clone_s.push(run.hooks.clone_ns as f64 / 1e9);
                        last = Some(run);
                    }
                }
                _ => {
                    let Some(other) = &comparison else { continue };
                    let what = format!("comparison round {round}");
                    let ran = tally.rep(
                        &what,
                        || run_machine(other, None),
                        |run| {
                            let first = Expected::Digest(full_digest(&run.report));
                            check_report(
                                &run.report,
                                comparison_expected.as_ref().unwrap_or(&first),
                            )
                        },
                    );
                    if let Some(run) = ran {
                        comparison_s.push(run.run_s);
                        comparison_expected
                            .get_or_insert(Expected::Digest(full_digest(&run.report)));
                    }
                }
            }
        }
    });
    let Some(run) = last else {
        // Every traced repetition failed, and the failures are counted.
        return (per_layer(&HashMap::new()), trace);
    };
    let report = &run.report;
    let outcome = &run.outcome;
    let fabric = &report.fabric;
    let plain = median(&plain_s);
    let traced = median(&traced_s);
    let hooks = median(&hook_s);
    let clones = median(&clone_s);
    // Every machine workload runs on one thread, so this is the host time
    // `Machine::run` spent outside the workload's code.
    let self_s = traced - hooks - clones;
    let messages = fabric.messages as f64;
    let fragments: u64 = report.node_stats.iter().map(|s| s.sent_fragments).sum();
    let retries: u64 = report.node_stats.iter().map(|s| s.send_full_retries).sum();
    let comparison_overhead = ratio(plain, median(&comparison_s));
    let values: HashMap<&'static str, f64> = [
        ("workloads.gen_s", median(&gen_s)),
        ("workloads.hook_s", hooks),
        ("workloads.hook_calls", run.hooks.calls as f64),
        (
            "workloads.idle_useful_ratio",
            ratio(run.hooks.idle_useful as f64, run.hooks.idle_calls as f64),
        ),
        ("core.build_s", median(&build_s)),
        ("core.self_s", self_s),
        ("core.ns_per_msg", ratio(self_s * 1e9, messages)),
        ("core.send_full_retries", retries as f64),
        (
            "core.send_accept_ratio",
            ratio(fragments as f64, (fragments + retries) as f64),
        ),
        ("core.sim_msgs_per_s", ratio(messages, plain)),
        ("mem.memory_bus_busy_cycles", report.memory_bus_busy as f64),
        ("mem.io_bus_busy_cycles", report.io_bus_busy as f64),
        ("net.messages", messages),
        ("net.retransmits", fabric.retransmits as f64),
        ("net.timeouts", fabric.timeouts as f64),
        ("net.faults_dropped", fabric.faults_dropped as f64),
        ("net.dup_discards", fabric.dup_discards as f64),
        (
            "net.corruptions_detected",
            fabric.corruptions_detected as f64,
        ),
        (
            "net.goodput_ratio",
            ratio(messages - fabric.retransmits as f64, messages),
        ),
        (
            "net.loss_overhead",
            if opts.bench == Bench::RpcLossy {
                comparison_overhead
            } else {
                0.0
            },
        ),
        ("sharded.epochs", outcome.epochs as f64),
        ("sharded.exchanges", outcome.exchanges as f64),
        ("sharded.routed_events", outcome.routed_events as f64),
        ("sharded.mean_epoch_len", outcome.mean_epoch_len()),
        (
            "sharded.ns_per_epoch",
            ratio(self_s * 1e9, outcome.epochs as f64),
        ),
        ("sharded.spec_commits", outcome.spec_commits as f64),
        ("sharded.spec_rollbacks", outcome.spec_rollbacks as f64),
        (
            "sharded.spec_commit_ratio",
            ratio(
                outcome.spec_commits as f64,
                (outcome.spec_commits + outcome.spec_rollbacks) as f64,
            ),
        ),
        (
            "sharded.spec_reexec_cycles",
            outcome.spec_reexec_cycles as f64,
        ),
        ("checkpoint.snapshots", run.ckpt.snapshots as f64),
        ("checkpoint.bytes", run.ckpt.bytes as f64),
        ("checkpoint.peak_bytes", run.ckpt.peak_bytes as f64),
        ("checkpoint.dirty_fraction", run.ckpt.dirty_fraction()),
        ("checkpoint.program_clones", run.hooks.clones as f64),
        ("checkpoint.program_clone_s", clones),
        (
            "checkpoint.spec_overhead",
            if opts.bench == Bench::GaussSpec {
                comparison_overhead
            } else {
                0.0
            },
        ),
        ("trace.overhead", ratio(traced, plain)),
    ]
    .into_iter()
    .collect();
    (per_layer(&values), trace)
}

fn traced_report(opts: &Options, expected: &Expected, tally: &mut Tally) -> (Vec<Metric>, Trace) {
    let mut trace = Trace::default();
    let campaigns = report_grid(opts.size);
    let check = |run: &ReportRun| check_markdown(&run.markdown, expected);
    let (mut pool_s, mut serial_s, mut traced_s, mut sums, mut slowest) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut cells = 0.0;
    repeat(opts.seconds, 2, |round| {
        let what = format!("pooled round {round}");
        let Some(pooled) = tally.rep(&what, || run_report(&campaigns, REPORT_JOBS), check) else {
            return;
        };
        pool_s.push(pooled.run_s);
        cells = pooled.set.unique_cells as f64;
        let what = format!("one-worker round {round}");
        if let Some(serial) = tally.rep(&what, || run_report(&campaigns, 1), check) {
            serial_s.push(serial.run_s);
        }
        // Each traced cell must reproduce the pooled run's result bytes.
        let index = pooled.set.digest_index();
        let what = format!("traced round {round}");
        let start = Instant::now();
        let parent = trace.begin("campaign.traced_cells", None);
        let traced = tally.rep(
            &what,
            || trace_cells(&pooled.set, &mut trace, parent),
            |cells: &Vec<(u64, f64, String)>| match cells
                .iter()
                .find(|(digest, _, json)| index.get(digest).map(|c| &c.json) != Some(json))
            {
                Some((digest, _, _)) => Err(format!("cell {digest:016x} differs")),
                None => Ok(()),
            },
        );
        trace.end(parent);
        if let Some(cells) = traced {
            traced_s.push(start.elapsed().as_secs_f64());
            sums.push(cells.iter().map(|c| c.1).sum::<f64>());
            slowest.push(cells.iter().map(|c| c.1).fold(0.0, f64::max));
        }
    });
    let cell_s_sum = median(&sums);
    let values: HashMap<&'static str, f64> = [
        ("campaign.cells", cells),
        ("campaign.cell_s_sum", cell_s_sum),
        ("campaign.slowest_cell_s", median(&slowest)),
        (
            "pool.busy_ratio",
            ratio(cell_s_sum, REPORT_JOBS as f64 * median(&pool_s)),
        ),
        (
            "trace.overhead",
            ratio(median(&traced_s), median(&serial_s)),
        ),
    ]
    .into_iter()
    .collect();
    (per_layer(&values), trace)
}
