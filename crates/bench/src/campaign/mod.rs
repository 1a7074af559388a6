//! The campaign runner: one declarative, parallel, cached experiment engine
//! behind every figure of the paper's evaluation (§5).
//!
//! A [`Campaign`] is a named grid of cells, each cell a pure
//! [`ExperimentSpec`] — the full definition of one simulation: a workload
//! run ([`ExperimentSpec::Run`]: workload × NI × bus × input tier ×
//! machine size × fault rate × lookahead mode), one microbenchmark point
//! ([`ExperimentSpec::Latency`], [`ExperimentSpec::Bandwidth`]) or the
//! Table 1 data ([`ExperimentSpec::Taxonomy`]).
//! [`run_campaigns`] executes a set of campaigns:
//!
//! 1. every cell is keyed by [`ExperimentSpec::digest`] — a portable FNV-1a
//!    hash of its canonical encoding plus a schema fingerprint covering the
//!    Table 2 cost model and the per-tier inputs;
//! 2. distinct digests are **deduplicated** across the whole set: the
//!    occupancy panel, the fixed-lookahead half of the lookahead table, the
//!    tail-latency sweep and the zero-rate resilience column are Figure 8's
//!    memory-bus runs, and the ablation's all-optimisations row is the
//!    Figure 6/7 `CNI512Q` point, so each executes once;
//! 3. digests with a result already in the on-disk cache are **skipped**
//!    (re-running a campaign only executes changed cells);
//! 4. the remaining cells execute **concurrently** on
//!    [`cni_sim::pool::run_indexed`] workers, claimed from a shared index so
//!    an uneven mix of cheap and expensive simulations keeps every worker
//!    busy.
//!
//! Determinism: simulated results are bit-identical on every host and under
//! every simulator-performance knob, so a cell's result JSON is a pure
//! function of its spec. The executor preserves that end to end — results
//! are stored and returned **by cell, never by completion order**, making a
//! `--jobs 1` run byte-identical to a fully parallel one, and a cache hit
//! byte-identical to a fresh execution (the cache stores the producer's
//! exact bytes). `crates/bench/tests/campaign.rs` pins both properties.
//!
//! # Example
//!
//! A minimal two-cell campaign, executed without a cache:
//!
//! ```
//! use cni_bench::campaign::{run_campaign, Campaign, RunOptions, ExperimentSpec};
//! use cni_mem::system::DeviceLocation;
//! use cni_nic::cq_model::CqOptimizations;
//! use cni_nic::taxonomy::NiKind;
//! use cni_workloads::ParamsTier;
//!
//! let campaign = Campaign {
//!     name: "mini",
//!     title: "A minimal two-cell campaign".to_owned(),
//!     tier: ParamsTier::Quick,
//!     workloads: vec![],
//!     cells: vec![
//!         ExperimentSpec::Taxonomy,
//!         ExperimentSpec::Latency {
//!             ni: NiKind::Cni16Q,
//!             location: DeviceLocation::MemoryBus,
//!             message_bytes: 8,
//!             iterations: 2,
//!             opts: CqOptimizations::default(),
//!         },
//!     ],
//! };
//! let run = run_campaign(&campaign, &RunOptions::default());
//! assert_eq!(run.executed, 2); // no cache: every unique cell executed
//! let cells = &run.campaigns[0].cells;
//! assert!(cells[0].json.contains("\"rows\""));
//! assert!(cells[1].json.contains("round_trip_micros"));
//! ```

pub mod figures;
pub mod spec;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cni_workloads::{ParamsTier, Workload};

pub use spec::{ExecKnobs, ExperimentSpec};

/// A named grid of experiment cells — one paper figure, table or panel set.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Stable short name (`fig6`, `occupancy`, …) used for dispatch and
    /// machine-readable output.
    pub name: &'static str,
    /// Human title, e.g. `Figure 6 — round-trip latency`.
    pub title: String,
    /// The input tier the cells were generated for (renderers rebuild the
    /// sweep layout from it).
    pub tier: ParamsTier,
    /// The workloads the grid covers (empty for microbenchmark campaigns).
    pub workloads: Vec<Workload>,
    /// The cells, in the renderer's canonical order.
    pub cells: Vec<ExperimentSpec>,
}

/// Where cell results are cached between runs.
#[derive(Debug, Clone, Default)]
pub enum CacheMode {
    /// No cache: every unique cell executes, nothing is written.
    #[default]
    Disabled,
    /// Normal operation: read hits, write misses.
    ReadWrite(PathBuf),
    /// A **cold** run: ignore existing entries (every unique cell executes)
    /// but still record results for future runs.
    WriteOnly(PathBuf),
}

/// Options for [`run_campaigns`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads for cell execution; `0` means the host's available
    /// parallelism, `1` runs cells inline in order.
    pub jobs: usize,
    /// Result cache mode.
    pub cache: CacheMode,
    /// Simulator-performance knobs passed to every cell (never part of the
    /// cache key — they cannot change results).
    pub knobs: ExecKnobs,
}

/// One executed (or cache-loaded) cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's spec (copied from the campaign).
    pub spec: ExperimentSpec,
    /// The spec's canonical encoding.
    pub canonical: String,
    /// The cache key.
    pub digest: u64,
    /// The result, as the producer's exact JSON bytes.
    pub json: String,
    /// Whether the result came from the on-disk cache.
    pub cached: bool,
}

/// One campaign's outcome within a [`CampaignSetRun`].
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Campaign name.
    pub name: &'static str,
    /// Campaign title.
    pub title: String,
    /// Input tier the campaign was generated for.
    pub tier: ParamsTier,
    /// Workloads the campaign covers.
    pub workloads: Vec<Workload>,
    /// Per-cell outcomes, in campaign cell order.
    pub cells: Vec<CellOutcome>,
}

/// The outcome of one [`run_campaigns`] call.
#[derive(Debug, Clone)]
pub struct CampaignSetRun {
    /// Per-campaign outcomes, in input order.
    pub campaigns: Vec<CampaignRun>,
    /// Distinct specs across the whole set (cells minus duplicates).
    pub unique_cells: usize,
    /// Unique cells that actually executed this run — the execution counter
    /// the cache tests assert on: a warm re-run reports `0`.
    pub executed: usize,
    /// Unique cells served from the on-disk cache.
    pub cache_hits: usize,
    /// Wall-clock of the whole run (host-dependent; never rendered into
    /// `RESULTS.md`).
    pub wall_seconds: f64,
}

/// The default on-disk cache directory: `$CNI_CAMPAIGN_CACHE` if set,
/// otherwise `target/campaign-cache` under the current directory.
pub fn default_cache_dir() -> PathBuf {
    match std::env::var_os("CNI_CAMPAIGN_CACHE") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target").join("campaign-cache"),
    }
}

fn cache_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.json"))
}

/// The envelope prefix of a cache entry for `digest`; the result's exact
/// bytes follow, then a closing `}`.
fn cache_envelope_prefix(digest: u64) -> String {
    format!(r#"{{"digest":"{digest:016x}","result":"#)
}

/// Reads a cached result, validating the entry end to end: it must parse as
/// JSON, carry the envelope of exactly this digest (so a renamed or
/// cross-copied file can never serve the wrong cell) and not be truncated.
/// Anything else — a torn write that slipped past the atomic rename, disk
/// corruption, a stale pre-envelope entry — is reported once and treated as
/// a miss, so the cell re-runs and the entry is rewritten; a corrupted
/// entry is never propagated into results.
fn cache_read(dir: &Path, digest: u64) -> Option<String> {
    let path = cache_path(dir, digest);
    let text = std::fs::read_to_string(&path).ok()?;
    let valid = || -> Option<String> {
        let prefix = cache_envelope_prefix(digest);
        let inner = text.strip_prefix(prefix.as_str())?.strip_suffix('}')?;
        // The envelope pins the digest textually; parsing the whole entry
        // rejects truncated or garbled result bytes.
        crate::json::Json::parse(&text).ok()?;
        crate::json::Json::parse(inner).ok()?;
        Some(inner.to_owned())
    };
    match valid() {
        Some(inner) => Some(inner),
        None => {
            eprintln!(
                "campaign: discarding corrupt cache entry {} (re-running the cell)",
                path.display()
            );
            None
        }
    }
}

/// Best-effort cache write: the cache is an optimisation, so failures warn
/// instead of aborting the run. The result is wrapped in a digest envelope
/// (see [`cache_read`]) and entries appear atomically (temp file + rename)
/// so a concurrent harness binary sharing the cache directory can never
/// read a torn entry.
fn cache_write(dir: &Path, digest: u64, json: &str) {
    let path = cache_path(dir, digest);
    let tmp = dir.join(format!("{digest:016x}.tmp.{}", std::process::id()));
    let entry = format!("{}{json}}}", cache_envelope_prefix(digest));
    let result = std::fs::write(&tmp, entry).and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(err) = result {
        let _ = std::fs::remove_file(&tmp);
        eprintln!(
            "campaign: could not write cache entry {}: {err}",
            path.display()
        );
    }
}

/// Executes a set of campaigns with deduplication, caching and parallel
/// execution (see the module docs for the exact pipeline).
///
/// # Panics
///
/// Panics if a cell's simulation aborts or fails to complete — a truncated
/// measurement must never be cached or rendered.
pub fn run_campaigns(campaigns: &[Campaign], opts: &RunOptions) -> CampaignSetRun {
    let started = Instant::now();

    // 1. Digest every cell; collect distinct specs in first-seen order so
    //    execution order (and therefore `--jobs 1` behaviour) is stable.
    //    `owner` remembers which campaign first contributed each digest, so
    //    a panicking cell can be attributed in its panic message.
    let mut slot_of: HashMap<u64, usize> = HashMap::new();
    let mut owner: HashMap<u64, &'static str> = HashMap::new();
    let mut unique: Vec<(u64, ExperimentSpec)> = Vec::new();
    for campaign in campaigns {
        for spec in &campaign.cells {
            let digest = spec.digest();
            slot_of.entry(digest).or_insert_with(|| {
                owner.insert(digest, campaign.name);
                unique.push((digest, *spec));
                unique.len() - 1
            });
        }
    }

    // 2. Resolve from the cache.
    let (read_dir, write_dir): (Option<&Path>, Option<&Path>) = match &opts.cache {
        CacheMode::Disabled => (None, None),
        CacheMode::ReadWrite(dir) => (Some(dir), Some(dir)),
        CacheMode::WriteOnly(dir) => (None, Some(dir)),
    };
    let mut results: Vec<Option<(String, bool)>> = vec![None; unique.len()];
    let mut cache_hits = 0;
    if let Some(dir) = read_dir {
        for (slot, (digest, _)) in unique.iter().enumerate() {
            if let Some(json) = cache_read(dir, *digest) {
                results[slot] = Some((json, true));
                cache_hits += 1;
            }
        }
    }

    // 3. Execute what's left, concurrently.
    let pending: Vec<usize> = (0..unique.len())
        .filter(|&s| results[s].is_none())
        .collect();
    let executed = pending.len();
    let fresh = cni_sim::pool::run_indexed(opts.jobs, pending.len(), |i| {
        let (digest, spec) = unique[pending[i]];
        // A cell that dies (a workload bug, an aborted run) would otherwise
        // surface as a bare worker-thread panic with no hint of which of
        // the hundreds of cells it was; re-raise with campaign, cell and
        // cache-key context attached.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.execute(&opts.knobs)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                panic!(
                    "campaign {:?} cell {} (digest {digest:016x}) panicked: {msg}",
                    owner[&digest],
                    spec.label()
                )
            })
    });
    if let Some(dir) = write_dir {
        if !fresh.is_empty() {
            if let Err(err) = std::fs::create_dir_all(dir) {
                eprintln!(
                    "campaign: could not create cache directory {}: {err}",
                    dir.display()
                );
            } else {
                for (&slot, json) in pending.iter().zip(&fresh) {
                    cache_write(dir, unique[slot].0, json);
                }
            }
        }
    }
    for (slot, json) in pending.into_iter().zip(fresh) {
        results[slot] = Some((json, false));
    }

    // 4. Assemble per-campaign outcomes in cell order.
    let runs = campaigns
        .iter()
        .map(|campaign| CampaignRun {
            name: campaign.name,
            title: campaign.title.clone(),
            tier: campaign.tier,
            workloads: campaign.workloads.clone(),
            cells: campaign
                .cells
                .iter()
                .map(|spec| {
                    let digest = spec.digest();
                    let (json, cached) = results[slot_of[&digest]]
                        .clone()
                        .expect("every unique spec was resolved");
                    CellOutcome {
                        spec: *spec,
                        canonical: spec.canonical(),
                        digest,
                        json,
                        cached,
                    }
                })
                .collect(),
        })
        .collect();

    CampaignSetRun {
        campaigns: runs,
        unique_cells: unique.len(),
        executed,
        cache_hits,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// [`run_campaigns`] for a single campaign.
pub fn run_campaign(campaign: &Campaign, opts: &RunOptions) -> CampaignSetRun {
    run_campaigns(std::slice::from_ref(campaign), opts)
}

impl CampaignSetRun {
    /// Lookup of a cell's parsed result by spec digest, across every
    /// campaign in the set — how renderers resolve cross-panel references
    /// (e.g. Figure 8's `NI2w`-on-the-memory-bus baseline).
    pub fn digest_index(&self) -> HashMap<u64, &CellOutcome> {
        let mut index = HashMap::new();
        for run in &self.campaigns {
            for cell in &run.cells {
                index.entry(cell.digest).or_insert(cell);
            }
        }
        index
    }
}

/// Machine-readable rendering of a whole set run: every cell's spec, cache
/// key, provenance and result, in campaign order. This is the superset of
/// what the per-figure `--json` flags emit.
pub fn set_json(run: &CampaignSetRun, experiment: &str, extra: &str) -> String {
    let campaigns: Vec<String> = run
        .campaigns
        .iter()
        .map(|campaign| {
            let cells: Vec<String> = campaign
                .cells
                .iter()
                .map(|cell| {
                    format!(
                        r#"{{"label":"{}","digest":"{:016x}","cached":{},"spec":{},"result":{}}}"#,
                        cell.spec.label(),
                        cell.digest,
                        cell.cached,
                        cell.canonical,
                        cell.json
                    )
                })
                .collect();
            format!(
                r#"{{"name":"{}","title":"{}","tier":"{}","cells":[{}]}}"#,
                campaign.name,
                campaign.title,
                campaign.tier,
                cells.join(",")
            )
        })
        .collect();
    format!(
        r#"{{"experiment":"{experiment}"{extra},"unique_cells":{},"executed":{},"cache_hits":{},"wall_seconds":{:.3},"campaigns":[{}]}}"#,
        run.unique_cells,
        run.executed,
        run.cache_hits,
        run.wall_seconds,
        campaigns.join(",")
    )
}
