//! Command line of the simulator benchmark; see `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload em3d-1024 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the host record and every metric by name and unit, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes its span log under `.bench_trace/`
//! at the checkout root.
//!
//! With `--setup-only S` it instead sets the workload up for `S` seconds and
//! prints the median set-up time as its only line; an untraced run starts
//! itself that way to measure `setup_s` in fresh processes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::{Bench, Options, Outcome, Size, DEFAULT_SEED};

const USAGE: &str = "perfbench --workload em3d-1024|gauss-spec|rpc-lossy|report-scaled \
                     [--seed N] [--seconds S] [--trace 0|1] [--setup-only S]";

fn seconds(flag: &str, value: &str) -> Result<f64, String> {
    value
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .ok_or_else(|| format!("{flag} takes a number in (0, 600], got {value:?}"))
}

/// The options, and the seconds of `--setup-only` if given.
fn parse(
    mut args: impl Iterator<Item = String>,
    exe: PathBuf,
) -> Result<(Options, Option<f64>), String> {
    let mut opts = Options {
        bench: Bench::Em3d1024,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        exe,
    };
    let mut bench = None;
    let mut setup_only = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench = Some(
                    Bench::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, got {value:?}"))?;
            }
            "--seconds" => opts.seconds = seconds(&flag, &value)?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            "--setup-only" => setup_only = Some(seconds(&flag, &value)?),
            _ => return Err(format!("unrecognized argument {flag:?}")),
        }
    }
    opts.bench = bench.ok_or("--workload is required")?;
    Ok((opts, setup_only))
}

fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#,
            m.name, m.value, m.unit
        );
    }
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

fn main() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: cannot locate its own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (opts, setup_only) = match parse(std::env::args().skip(1), exe) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("perfbench: {err}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(seconds) = setup_only {
        println!(
            "{}",
            perfbench::setup_median(opts.bench, opts.seed, seconds)
        );
        return ExitCode::SUCCESS;
    }
    let outcome = perfbench::run(&opts);
    // These read 0 only when they could not be measured.
    if let Some(m) = outcome
        .metrics
        .iter()
        .find(|m| matches!(m.name, "run_norm_s" | "setup_s" | "peak_rss_mb") && m.value == 0.0)
    {
        eprintln!("perfbench: cannot report {}", m.name);
        return ExitCode::FAILURE;
    }

    let name = opts.bench.name();
    println!(
        "perfbench {name} seed={} seconds={} trace={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("host {{{}}}", outcome.host.json_members());
    if !opts.bench.seeded() {
        println!("note: {name} has no input seed; --seed does not change its inputs");
    }
    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!("{:<30} {:>22} {}", m.name, m.value, m.unit);
    }
    if let Some(trace) = &outcome.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_trace");
        let path = dir.join(format!("{name}-seed{}.json", opts.seed));
        let header = format!(
            r#""workload":"{name}","seed":{},"host":{{{}}}"#,
            opts.seed,
            outcome.host.json_members()
        );
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace.to_json(&header)));
        match written {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                trace.spans().len(),
                path.display()
            ),
            Err(err) => eprintln!("perfbench: could not write {}: {err}", path.display()),
        }
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
