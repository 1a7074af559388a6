//! Workload-registry smoke: runs **every** registered workload once per NI
//! kind at the quick tier and exits non-zero if any run aborts or fails to
//! complete.
//!
//! Run with `cargo run --release -p cni-bench --bin smoke --
//! [quick|scaled|paper]`.
//!
//! This is CI's first line of defence for the registry: a workload that was
//! added to the `Workload` enum but aborts (deadlocks against its cycle
//! limit, panics in a handler, never drains) fails the build here — with
//! the offending `(workload, NI)` pair named — *before* the much larger
//! campaign digest check runs. The grid is `Workload::ALL × NiKind::ALL` on
//! the memory bus (the one bus every NI is valid on), so an entry can never
//! be skipped by a stale hand-maintained list.

use std::time::Instant;

use cni_bench::run_workload_stats;
use cni_core::machine::MachineConfig;
use cni_nic::taxonomy::NiKind;
use cni_workloads::{ParamsTier, Workload};

const USAGE: &str = "smoke [quick|scaled|paper]";

fn main() {
    let mut tier = ParamsTier::Quick;
    for arg in std::env::args().skip(1) {
        match arg.parse::<ParamsTier>() {
            Ok(t) => tier = t,
            Err(err) => cni_bench::cli::usage_error(USAGE, &err.to_string()),
        }
    }
    let nodes = tier.nodes();
    let params = tier.params();
    let started = Instant::now();
    let mut runs = 0usize;
    println!(
        "workload-registry smoke: {} workloads x {} NIs, {nodes} nodes, `{tier}` inputs",
        Workload::ALL.len(),
        NiKind::ALL.len()
    );
    for workload in Workload::ALL {
        for ni in NiKind::ALL {
            let cfg = MachineConfig::isca96(nodes, ni);
            // Panics (non-zero exit) with the workload, NI and cycle limit
            // named if the run aborts or fails to complete.
            let report = run_workload_stats(workload, &cfg, &params).report;
            runs += 1;
            println!(
                "  ok {workload:>12} / {ni:<8} {:>12} cycles, {:>6} messages",
                report.cycles, report.fabric.messages
            );
        }
    }
    println!(
        "smoke: {runs} runs completed cleanly in {:.2}s",
        started.elapsed().as_secs_f64()
    );
}
