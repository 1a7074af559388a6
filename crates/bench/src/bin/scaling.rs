//! Scaling sweep: machine sizes × shard counts, on one worker and on the
//! parallel pool.
//!
//! The paper evaluates 16-node machines; this harness drives the sharded
//! execution model past that — 16/64/256 (and with `big` 1024) nodes — and
//! records, per configuration, the simulated result digest, the number of
//! worker threads that advanced the shards, the events the simulator
//! dispatched and the ones parking let it skip (`Machine::dispatch_stats`),
//! the events its queues scheduled and the ones that waited in a far heap
//! (`Machine::queue_stats`; the spills depend on the shard layout), and the
//! simulator's own wall-clock. Simulated results are
//! **bit-identical across shard counts, worker counts and lookahead
//! modes** (the run fails loudly if they are not); only the wall-clock
//! column varies.
//!
//! The `mode` column says how a row was configured: `seq` runs every shard
//! on the calling thread, `par` sets `MachineConfig::parallel` (one worker
//! per shard, at most one per host core), and `auto` is
//! `ShardPolicy::Auto` with `parallel` set. The `workers` column is what
//! that resolved to on this host.
//!
//! Run with `cargo run --release -p cni-bench --bin scaling -- [quick|big]
//! [--workload NAME] [--lookahead fixed|speculative] [--json] [--ci]`.
//!
//! * `quick` sweeps 16/64 nodes with smaller inputs; `big` adds 1024 nodes.
//! * `--workload` picks the workload swept (default em3d, the ROADMAP
//!   trajectory workload). Every workload in [`CI_WORKLOADS`] weak-scales
//!   with the machine: inputs grow proportionally to the node count.
//! * `--lookahead` selects the epoch planner's horizon policy (default
//!   fixed, the config default): `fixed` pins every horizon to the
//!   `network_latency` grid, and `speculative` gambles past the horizon
//!   with checkpoint/rollback (the commit/rollback/re-executed-cycle
//!   counters appear in the table and JSON, with the checkpoint-bytes and
//!   dirty-fraction columns showing what the gambles' snapshots copied).
//!   The digest column must be identical in both modes.
//! * `--json` emits the sweep as one JSON row per configuration,
//!   including the epoch statistics (epochs, extensions, mean/max epoch
//!   length, speculation commits/rollbacks/re-executed cycles) that make the
//!   speculation rates observable per configuration.
//! * `--ci` runs the 64-node / 4-shard smoke configuration (1 shard, 4
//!   shards on one worker, 4 shards on the parallel pool, plus whatever
//!   `ShardPolicy::Auto` resolves to) **for every CI workload** — em3d and
//!   the four workloads this repo added beyond the paper's figures — under
//!   both lookahead modes, cross-checks that every report is bit-identical,
//!   and prints one reference digest line per workload; CI diffs the block
//!   against `SCALING_ref.txt`, so sharded bit-identity is pinned across
//!   communication patterns, not just em3d's.
//!
//! The default workload is em3d (fine-grain messaging) with the graph scaled
//! proportionally to the machine — weak scaling, so the event population per
//! epoch grows with the node count, which is exactly the regime the sharded
//! loop and its event queues are built for.

use std::time::Instant;

use cni_bench::{report_digest, scaling_params, CI_WORKLOADS};
use cni_core::machine::{
    LookaheadMode, Machine, MachineConfig, RunReport, ShardPolicy, SpeculationConfig,
};
use cni_nic::taxonomy::NiKind;
use cni_workloads::Workload;

struct Row {
    nodes: usize,
    shards: usize,
    mode: &'static str,
    workers: usize,
    lookahead: LookaheadMode,
    cycles: u64,
    digest: u64,
    epochs: u64,
    extensions: u64,
    mean_epoch_len: f64,
    max_epoch_len: u64,
    spec_commits: u64,
    spec_rollbacks: u64,
    spec_reexec_cycles: u64,
    ckpt_bytes: u64,
    dirty_fraction: f64,
    events: u64,
    skipped: u64,
    schedules: u64,
    spills: u64,
    wall_seconds: f64,
}

fn run_one(
    workload: Workload,
    nodes: usize,
    shards: usize,
    parallel: bool,
    lookahead: LookaheadMode,
    quick: bool,
) -> (RunReport, Row) {
    run_policy(
        workload,
        nodes,
        ShardPolicy::Fixed(shards),
        parallel,
        lookahead,
        quick,
    )
}

fn run_policy(
    workload: Workload,
    nodes: usize,
    policy: ShardPolicy,
    parallel: bool,
    lookahead: LookaheadMode,
    quick: bool,
) -> (RunReport, Row) {
    let cfg = MachineConfig::isca96(nodes, NiKind::Cni512Q)
        .with_shards(policy)
        .with_parallel(parallel)
        .with_speculation(SpeculationConfig::with_lookahead(lookahead));
    let shards = cfg.shard_count();
    let workers = cfg.workers();
    let mode = match (policy, parallel) {
        (ShardPolicy::Auto, _) => "auto",
        (_, true) => "par",
        (_, false) => "seq",
    };
    let params = scaling_params(workload, nodes, quick);
    let programs = workload.programs(nodes, &params);
    let mut machine = Machine::new(cfg, programs);
    let started = Instant::now();
    let report = machine.run();
    let wall_seconds = started.elapsed().as_secs_f64();
    if report.aborted {
        eprintln!(
            "scaling: {workload} at {nodes} nodes / {shards} shards hit the cycle limit — aborting"
        );
        std::process::exit(1);
    }
    let outcome = machine.epoch_outcome();
    let ckpt = machine.checkpoint_stats();
    let d = machine.dispatch_stats();
    let queue = machine.queue_stats();
    let row = Row {
        nodes,
        shards,
        mode,
        workers,
        lookahead,
        cycles: report.cycles,
        digest: report_digest(&report),
        epochs: outcome.map_or(0, |o| o.epochs),
        extensions: outcome.map_or(0, |o| o.extensions),
        mean_epoch_len: outcome.map_or(0.0, |o| o.mean_epoch_len()),
        max_epoch_len: outcome.map_or(0, |o| o.max_epoch_len),
        spec_commits: outcome.map_or(0, |o| o.spec_commits),
        spec_rollbacks: outcome.map_or(0, |o| o.spec_rollbacks),
        spec_reexec_cycles: outcome.map_or(0, |o| o.spec_reexec_cycles),
        ckpt_bytes: ckpt.bytes,
        dirty_fraction: ckpt.dirty_fraction(),
        // A parked step that ran counts as its one `ProcStep`.
        events: d.proc_step + d.net_arrival + d.ack_arrival + d.wake_parked + d.retx_timer,
        skipped: d.skipped + d.skipped_deliveries,
        schedules: queue.schedules,
        spills: queue.spills,
        wall_seconds,
    };
    (report, row)
}

fn sweep(
    workload: Workload,
    node_counts: &[usize],
    lookahead: LookaheadMode,
    quick: bool,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &nodes in node_counts {
        let mut reference: Option<RunReport> = None;
        for &shards in &[1usize, 4, 16] {
            if shards > nodes {
                continue;
            }
            let modes: &[bool] = if shards == 1 {
                &[false]
            } else {
                &[false, true]
            };
            for &parallel in modes {
                let (report, row) = run_one(workload, nodes, shards, parallel, lookahead, quick);
                match &reference {
                    None => reference = Some(report),
                    Some(reference) => {
                        if report != *reference {
                            eprintln!(
                                "scaling: {workload} {nodes}-node run with {shards} shards ({}) \
                                 diverged from the 1-shard reference — determinism bug",
                                row.mode
                            );
                            std::process::exit(1);
                        }
                    }
                }
                rows.push(row);
            }
        }
        // What ShardPolicy::Auto picks on this host, on the parallel pool,
        // digest-checked like every other configuration.
        let (report, row) = run_policy(workload, nodes, ShardPolicy::Auto, true, lookahead, quick);
        if let Some(reference) = &reference {
            if report != *reference {
                eprintln!(
                    "scaling: {workload} {nodes}-node auto run ({} shards, {} workers) \
                     diverged from the 1-shard reference — determinism bug",
                    row.shards, row.workers
                );
                std::process::exit(1);
            }
        }
        rows.push(row);
    }
    rows
}

fn rows_json(rows: &[Row]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                r#"{{"nodes":{},"shards":{},"mode":"{}","workers":{},"lookahead":"{}","cycles":{},"digest":"{:016x}","epochs":{},"extensions":{},"mean_epoch_len":{:.1},"max_epoch_len":{},"spec_commits":{},"spec_rollbacks":{},"spec_reexec_cycles":{},"ckpt_bytes":{},"dirty_fraction":{:.4},"events":{},"skipped":{},"schedules":{},"spills":{},"wall_seconds":{:.3}}}"#,
                r.nodes,
                r.shards,
                r.mode,
                r.workers,
                r.lookahead,
                r.cycles,
                r.digest,
                r.epochs,
                r.extensions,
                r.mean_epoch_len,
                r.max_epoch_len,
                r.spec_commits,
                r.spec_rollbacks,
                r.spec_reexec_cycles,
                r.ckpt_bytes,
                r.dirty_fraction,
                r.events,
                r.skipped,
                r.schedules,
                r.spills,
                r.wall_seconds
            )
        })
        .collect();
    body.join(",")
}

fn print_table(workload: Workload, rows: &[Row]) {
    println!(
        "Scaling sweep: {workload}, CNI512Q, weak-scaled inputs (digest is the simulated-result hash)"
    );
    println!(
        "{:>7} {:>7} {:>5} {:>7} {:>11} {:>14} {:>18} {:>8} {:>7} {:>7} {:>5} {:>11} {:>6} {:>11} {:>11} {:>11} {:>9} {:>10}",
        "nodes",
        "shards",
        "mode",
        "workers",
        "lookahead",
        "cycles",
        "digest",
        "epochs",
        "ext",
        "commit",
        "rb",
        "ckpt-bytes",
        "dirty",
        "events",
        "skipped",
        "schedules",
        "spills",
        "wall (s)"
    );
    for r in rows {
        println!(
            "{:>7} {:>7} {:>5} {:>7} {:>11} {:>14} {:>18x} {:>8} {:>7} {:>7} {:>5} {:>11} {:>6.3} {:>11} {:>11} {:>11} {:>9} {:>10.3}",
            r.nodes,
            r.shards,
            r.mode,
            r.workers,
            r.lookahead,
            r.cycles,
            r.digest,
            r.epochs,
            r.extensions,
            r.spec_commits,
            r.spec_rollbacks,
            r.ckpt_bytes,
            r.dirty_fraction,
            r.events,
            r.skipped,
            r.schedules,
            r.spills,
            r.wall_seconds
        );
    }
    println!("\nEvery digest within one node count must match: sharding and");
    println!("lookahead are simulator-performance knobs, never results knobs.");
}

/// The CI smoke configuration, per workload: 64 nodes, 1-vs-4 shards, one
/// worker and the parallel pool, both lookahead modes, plus whatever
/// `ShardPolicy::Auto` resolves to on the CI host. The printed digest block
/// is computed from the fixed-lookahead reference, and every other run is
/// cross-checked against it — so the committed
/// `SCALING_ref.txt` lines stay valid (and unchanged) whichever lookahead
/// mode a run uses.
fn run_ci() {
    let quick = true;
    for workload in CI_WORKLOADS {
        let (reference, base) = run_one(workload, 64, 1, false, LookaheadMode::Fixed, quick);
        for lookahead in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
            for (shards, parallel) in [(1usize, false), (4, false), (4, true)] {
                let (report, row) = run_one(workload, 64, shards, parallel, lookahead, quick);
                if report != reference {
                    eprintln!(
                        "scaling --ci: {workload} 64-node run with {shards} shards ({}, {} \
                         lookahead) diverged from the fixed-lookahead 1-shard reference — \
                         determinism bug",
                        row.mode, lookahead
                    );
                    std::process::exit(1);
                }
            }
            let (report, row) = run_policy(workload, 64, ShardPolicy::Auto, true, lookahead, quick);
            if report != reference {
                eprintln!(
                    "scaling --ci: {workload} 64-node auto run ({} shards, {} workers, {} \
                     lookahead) diverged from the fixed-lookahead 1-shard reference — \
                     determinism bug",
                    row.shards, row.workers, lookahead
                );
                std::process::exit(1);
            }
        }
        // One line per workload; CI pins the whole block in SCALING_ref.txt.
        println!("scaling-digest {workload} 64n {:016x}", base.digest);
    }
}

const USAGE: &str = "scaling [quick|big] [--workload NAME] \
                     [--lookahead fixed|speculative] [--json] [--ci]";

fn usage_error(message: &str) -> ! {
    cni_bench::cli::usage_error(USAGE, message);
}

fn main() {
    let mut json = false;
    let mut ci = false;
    let mut mode: Option<String> = None;
    let mut workload: Option<Workload> = None;
    let mut lookahead: Option<LookaheadMode> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--ci" => ci = true,
            "--workload" => match args.next() {
                Some(name) => match name.parse::<Workload>() {
                    Ok(w) => workload = Some(w),
                    Err(err) => usage_error(&err.to_string()),
                },
                None => usage_error("--workload takes a benchmark name"),
            },
            "--lookahead" => match args.next().as_deref() {
                Some("fixed") => lookahead = Some(LookaheadMode::Fixed),
                Some("speculative") => lookahead = Some(LookaheadMode::Speculative),
                Some(other) => usage_error(&format!(
                    "--lookahead takes fixed or speculative, got {other:?}"
                )),
                None => usage_error("--lookahead takes fixed or speculative"),
            },
            "quick" | "big" | "scaled" if mode.is_none() => mode = Some(arg),
            other => usage_error(&format!("unrecognized argument {other:?}")),
        }
    }
    if ci {
        if workload.is_some() || json || mode.is_some() || lookahead.is_some() {
            usage_error(
                "--ci runs its fixed smoke configuration (quick inputs, 64 nodes, \
                 em3d/barnes/dsmc/unstructured/hotspot, both lookahead modes) and prints \
                 the digest block CI pins; it cannot be combined with a mode, --workload, \
                 --lookahead or --json",
            );
        }
        run_ci();
        return;
    }
    let workload = workload.unwrap_or(Workload::Em3d);
    let lookahead = lookahead.unwrap_or_default();
    let mode = mode.as_deref().unwrap_or("scaled");
    let (node_counts, quick): (&[usize], bool) = match mode {
        "quick" => (&[16, 64], true),
        "scaled" => (&[16, 64, 256], false),
        "big" => (&[16, 64, 256, 1024], false),
        _ => unreachable!("mode validated above"),
    };

    let started = Instant::now();
    let rows = sweep(workload, node_counts, lookahead, quick);
    let wall_seconds = started.elapsed().as_secs_f64();

    if json {
        println!(
            r#"{{"experiment":"scaling","workload":"{workload}","mode":"{mode}","lookahead":"{lookahead}","wall_seconds":{wall_seconds:.3},"rows":[{}]}}"#,
            rows_json(&rows)
        );
    } else {
        print_table(workload, &rows);
        println!("\nharness wall time: {wall_seconds:.2}s");
    }
}
