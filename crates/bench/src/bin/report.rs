//! The one experiment front-end: runs every paper-figure campaign (Figures
//! 6/7/8, the §5.2 occupancy panel, the §2.2 CQ ablation and Table 1)
//! through the campaign engine and writes the generated `RESULTS.md`.
//!
//! Run with `cargo run --release -p cni-bench --bin report --
//! [quick|scaled|paper] [--jobs N] [--cold] [--no-cache] [--cache DIR]
//! [--json] [--workload NAME]... [--out PATH] [--ci] [--only CAMPAIGN]`.
//!
//! * `--only CAMPAIGN` runs one campaign (`fig6`, `fig7`, `fig8`,
//!   `occupancy`, `lookahead`, `ablation`, `resilience`, `latency` or
//!   `taxonomy`) and prints its section to stdout — or, with `--json`, that
//!   campaign's data. An unknown name lists the valid ones.
//!
//! * Cells are cached on disk by config digest (default cache:
//!   `$CNI_CAMPAIGN_CACHE` or `target/campaign-cache`), so a re-run only
//!   executes changed cells; `--cold` forces everything to execute.
//! * `--json` prints the machine-readable superset of every figure's data
//!   to stdout instead of writing `RESULTS.md`.
//! * `--ci` is the CI freshness check: a full **cold** scaled-tier run that
//!   rewrites `RESULTS.md` in place — CI then fails if `git diff` shows the
//!   committed copy was stale. Simulated results are machine-independent,
//!   so any diff is a real change, never host noise.

use std::path::PathBuf;

use cni_bench::campaign::figures::{render_markdown, render_results_markdown, report_campaigns};
use cni_bench::campaign::{run_campaign, run_campaigns, set_json, CacheMode};
use cni_bench::cli::{usage_error, CampaignCli};
use cni_workloads::ParamsTier;

const USAGE: &str = "report [quick|scaled|paper] [--jobs N] [--cold] [--no-cache] \
                     [--cache DIR] [--json] [--workload NAME]... [--out PATH] [--ci] \
                     [--only CAMPAIGN]";

/// The campaigns whose grid `--workload` restricts.
const WORKLOAD_CAMPAIGNS: [&str; 3] = ["fig8", "occupancy", "lookahead"];

fn main() {
    let mut cli = CampaignCli::parse(USAGE);
    let mut out_path: Option<PathBuf> = None;
    let mut ci = false;
    let mut only: Option<String> = None;
    let rest: Vec<String> = cli.rest.drain(..).collect();
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ci" => ci = true,
            "--only" => match it.next() {
                Some(name) => only = Some(name),
                None => usage_error(USAGE, "--only takes a campaign name"),
            },
            "--out" => match it.next() {
                Some(path) => out_path = Some(PathBuf::from(path)),
                None => usage_error(USAGE, "--out takes a path"),
            },
            other => usage_error(USAGE, &format!("unrecognized argument {other:?}")),
        }
    }
    let campaigns = report_campaigns(cli.tier, &cli.workloads_or_all());
    if let Some(name) = only {
        if ci || out_path.is_some() {
            usage_error(
                USAGE,
                "--only prints one campaign to stdout; drop --ci and --out",
            );
        }
        let Some(campaign) = campaigns.iter().find(|c| c.name == name) else {
            let names: Vec<&str> = campaigns.iter().map(|c| c.name).collect();
            usage_error(
                USAGE,
                &format!(
                    "unknown campaign {name:?}; expected one of: {}",
                    names.join(", ")
                ),
            );
        };
        if !cli.workloads.is_empty() && !WORKLOAD_CAMPAIGNS.contains(&campaign.name) {
            usage_error(
                USAGE,
                &format!("{name} has a fixed grid; it takes no --workload"),
            );
        }
        let run = run_campaign(campaign, &cli.run_options());
        if cli.json {
            println!("{}", set_json(&run, campaign.name, ""));
        } else {
            println!("## {}\n", run.campaigns[0].title);
            print!("{}", render_markdown(&run.campaigns[0]));
            println!("\n{}", CampaignCli::summary_line(&run));
        }
        return;
    }
    if ci
        && (cli.tier != ParamsTier::Scaled
            || !cli.workloads.is_empty()
            || cli.json
            || out_path.is_some())
    {
        usage_error(
            USAGE,
            "--ci regenerates the full scaled-tier RESULTS.md in place; it cannot be \
             combined with a tier, --workload, --json or --out",
        );
    }
    // A restricted or non-default-tier report is not the file CI pins;
    // refuse to clobber the committed RESULTS.md with it.
    let partial = cli.tier != ParamsTier::Scaled || !cli.workloads.is_empty();
    if partial && out_path.is_none() && !cli.json {
        usage_error(
            USAGE,
            "a tier or --workload selection produces a partial report; write it \
             somewhere explicit with --out PATH (RESULTS.md is the full scaled-tier \
             report that CI diffs)",
        );
    }
    let out_path = out_path.unwrap_or_else(|| PathBuf::from("RESULTS.md"));

    let mut opts = cli.run_options();
    if ci {
        // The freshness check must actually simulate, not read a (possibly
        // CI-cache-restored) result back.
        if let CacheMode::ReadWrite(dir) = opts.cache {
            opts.cache = CacheMode::WriteOnly(dir);
        }
    }
    let run = run_campaigns(&campaigns, &opts);

    if cli.json {
        println!(
            "{}",
            set_json(&run, "report", &format!(r#","tier":"{}""#, cli.tier))
        );
        return;
    }

    let markdown = render_results_markdown(&run);
    if let Err(err) = std::fs::write(&out_path, &markdown) {
        eprintln!("report: could not write {}: {err}", out_path.display());
        std::process::exit(1);
    }
    println!(
        "wrote {} ({} campaigns); {}",
        out_path.display(),
        run.campaigns.len(),
        CampaignCli::summary_line(&run)
    );
}
