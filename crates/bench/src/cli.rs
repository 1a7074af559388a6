//! Shared command-line plumbing for the harness binaries.
//!
//! Both campaign front-ends (`report` and `fig8`) accept the same
//! vocabulary, parsed here once instead of per-binary:
//!
//! * `quick` / `scaled` / `paper` — the input tier
//!   ([`cni_workloads::ParamsTier`]; default `scaled`);
//! * `--jobs N` — executor worker threads (default: host parallelism);
//! * `--cold` — ignore cached results (every cell executes; results are
//!   still recorded for future runs);
//! * `--no-cache` — disable the cache entirely;
//! * `--cache DIR` — cache directory (default `$CNI_CAMPAIGN_CACHE` or
//!   `target/campaign-cache`);
//! * `--json` — machine-readable output;
//! * `--workload NAME` — restrict macrobenchmark campaigns to the named
//!   workload (repeatable). Unknown names fail with an error **listing the
//!   valid workloads** — never a bare usage line.
//!
//! Flags a binary defines for itself (e.g. `report --ci`) come back in
//! [`CampaignCli::rest`] for the binary to interpret; anything it does not
//! recognise there should go to [`usage_error`].

use std::path::PathBuf;

use cni_workloads::{ParamsTier, Workload};

use crate::campaign::{default_cache_dir, CacheMode, ExecKnobs, RunOptions};

/// Prints `message` and the usage line, then exits with status 2.
pub fn usage_error(usage: &str, message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// The options shared by every campaign front-end (see the module docs).
#[derive(Debug, Clone)]
pub struct CampaignCli {
    /// Input tier (default [`ParamsTier::Scaled`]).
    pub tier: ParamsTier,
    /// Executor worker threads (`0` = host parallelism).
    pub jobs: usize,
    /// Execute every cell even if cached (`--cold`).
    pub cold: bool,
    /// Disable the result cache entirely (`--no-cache`).
    pub no_cache: bool,
    /// Explicit cache directory (`--cache DIR`).
    pub cache_dir: Option<PathBuf>,
    /// Emit machine-readable JSON (`--json`).
    pub json: bool,
    /// Workload filter (`--workload`, repeatable; empty = all).
    pub workloads: Vec<Workload>,
    /// Arguments this parser did not recognise, in order, for the binary's
    /// own flags.
    pub rest: Vec<String>,
}

impl CampaignCli {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn parse(usage: &str) -> CampaignCli {
        Self::parse_from(std::env::args().skip(1), usage)
    }

    /// Parses an explicit argument list (testable core of
    /// [`CampaignCli::parse`]).
    pub fn parse_from(args: impl IntoIterator<Item = String>, usage: &str) -> CampaignCli {
        let mut cli = CampaignCli {
            tier: ParamsTier::Scaled,
            jobs: 0,
            cold: false,
            no_cache: false,
            cache_dir: None,
            json: false,
            workloads: Vec::new(),
            rest: Vec::new(),
        };
        let mut tier_set = false;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "quick" | "scaled" | "paper" => {
                    if tier_set {
                        usage_error(usage, &format!("input tier given twice ({arg:?})"));
                    }
                    tier_set = true;
                    cli.tier = arg.parse().expect("tier names validated above");
                }
                "--jobs" => match it.next().as_deref().map(str::parse) {
                    Some(Ok(n)) => cli.jobs = n,
                    _ => usage_error(usage, "--jobs takes a worker count"),
                },
                "--cold" => cli.cold = true,
                "--no-cache" => cli.no_cache = true,
                "--cache" => match it.next() {
                    Some(dir) => cli.cache_dir = Some(PathBuf::from(dir)),
                    None => usage_error(usage, "--cache takes a directory"),
                },
                "--json" => cli.json = true,
                "--workload" => match it.next() {
                    Some(name) => match name.parse::<Workload>() {
                        Ok(workload) => cli.workloads.push(workload),
                        Err(err) => usage_error(usage, &err.to_string()),
                    },
                    None => usage_error(usage, "--workload takes a benchmark name"),
                },
                _ => cli.rest.push(arg),
            }
        }
        cli
    }

    /// The [`RunOptions`] these flags imply.
    pub fn run_options(&self) -> RunOptions {
        let cache = if self.no_cache {
            CacheMode::Disabled
        } else {
            let dir = self.cache_dir.clone().unwrap_or_else(default_cache_dir);
            if self.cold {
                CacheMode::WriteOnly(dir)
            } else {
                CacheMode::ReadWrite(dir)
            }
        };
        RunOptions {
            jobs: self.jobs,
            cache,
            knobs: ExecKnobs::default(),
        }
    }

    /// The workload filter, defaulting to every registered workload
    /// ([`Workload::ALL`]).
    pub fn workloads_or_all(&self) -> Vec<Workload> {
        if self.workloads.is_empty() {
            Workload::ALL.to_vec()
        } else {
            self.workloads.clone()
        }
    }

    /// Fails with [`usage_error`] if any unrecognised arguments remain —
    /// for binaries with no flags of their own beyond the shared set.
    pub fn reject_rest(&self, usage: &str) {
        if let Some(arg) = self.rest.first() {
            usage_error(usage, &format!("unrecognized argument {arg:?}"));
        }
    }

    /// One summary line for human output: cell counts, cache behaviour and
    /// wall time. Deliberately **not** part of `RESULTS.md`.
    pub fn summary_line(run: &crate::campaign::CampaignSetRun) -> String {
        format!(
            "{} unique cells: {} executed, {} from cache ({:.2}s)",
            run.unique_cells, run.executed, run.cache_hits, run.wall_seconds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shared_vocabulary() {
        let args = [
            "paper",
            "--jobs",
            "4",
            "--cold",
            "--json",
            "--workload",
            "gauss",
            "--workload",
            "EM3D",
            "--ci",
            "--cache",
            "/tmp/x",
        ];
        let cli = CampaignCli::parse_from(args.into_iter().map(str::to_owned), "test");
        assert_eq!(cli.tier, ParamsTier::Paper);
        assert_eq!(cli.jobs, 4);
        assert!(cli.cold && cli.json);
        assert_eq!(cli.workloads, vec![Workload::Gauss, Workload::Em3d]);
        assert_eq!(
            cli.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(cli.rest, vec!["--ci".to_owned()]);
        assert!(matches!(cli.run_options().cache, CacheMode::WriteOnly(_)));
    }

    #[test]
    fn defaults_are_scaled_tier_with_a_read_write_cache() {
        let cli = CampaignCli::parse_from(std::iter::empty(), "test");
        assert_eq!(cli.tier, ParamsTier::Scaled);
        assert_eq!(cli.workloads_or_all(), Workload::ALL.to_vec());
        assert!(matches!(cli.run_options().cache, CacheMode::ReadWrite(_)));
    }
}
