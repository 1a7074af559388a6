//! Regenerates Figure 8 (§5.2): macrobenchmark speedups over `NI2w` on the
//! memory bus for every NI on the memory bus (a), the I/O bus (b) and the
//! alternate-buses comparison (c) — a thin front-end over
//! [`cni_bench::campaign::figures::fig8_campaign`].
//!
//! Run with `cargo run --release -p cni-bench --bin fig8 --
//! [quick|scaled|paper] [--jobs N] [--cold] [--no-cache] [--cache DIR]
//! [--json] [--workload NAME]...`.
//!
//! * `--json` emits the sweep in the trajectory format of `BENCH_seed.json`
//!   (per-panel `(ni, cycles, speedup)` rows plus the harness wall-clock).
//!   Because that `wall_seconds` field *is* the simulator-performance
//!   trajectory metric, `--json` **forces a cold run** — a cached
//!   wall-clock would time nothing.
//! * `--workload` restricts the sweep (unknown names list the valid ones).

use cni_bench::campaign::figures::{fig8_campaign, fig8_trajectory_json, render_markdown};
use cni_bench::campaign::{run_campaign, CacheMode};
use cni_bench::cli::CampaignCli;

const USAGE: &str = "fig8 [quick|scaled|paper] [--jobs N] [--cold] [--no-cache] [--cache DIR] \
                     [--json] [--workload NAME]...";

fn main() {
    let cli = CampaignCli::parse(USAGE);
    cli.reject_rest(USAGE);
    let workloads = cli.workloads_or_all();
    let campaign = fig8_campaign(cli.tier, &workloads);
    let mut opts = cli.run_options();
    if cli.json {
        // The trajectory JSON's wall_seconds must measure real simulation.
        if let CacheMode::ReadWrite(dir) = opts.cache {
            opts.cache = CacheMode::WriteOnly(dir);
        }
    }
    let run = run_campaign(&campaign, &opts);
    if cli.json {
        println!(
            "{}",
            fig8_trajectory_json(&run.campaigns[0], run.wall_seconds)
        );
        return;
    }
    println!("## {}\n", run.campaigns[0].title);
    print!("{}", render_markdown(&run.campaigns[0]));
    println!("\n{}", CampaignCli::summary_line(&run));
}
