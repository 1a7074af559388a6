//! Integration tests of the campaign engine's two core guarantees:
//!
//! * **Executor determinism** — a parallel campaign run produces per-cell
//!   JSON byte-identical to a cell-by-cell sequential (`jobs = 1`) run.
//! * **Caching** — a second run over an unchanged campaign executes zero
//!   cells (verified by the engine's execution counter) and still returns
//!   byte-identical results; changing one cell re-executes only that cell.

use std::path::PathBuf;

use cni_bench::campaign::figures::{
    ablation_campaign, fig8_campaign, latency_campaign, render_markdown, resilience_campaign,
};
use cni_bench::campaign::{
    run_campaign, run_campaigns, CacheMode, Campaign, ExperimentSpec, RunOptions,
};
use cni_mem::system::DeviceLocation;
use cni_nic::taxonomy::NiKind;
use cni_workloads::{ParamsTier, Workload};

/// A per-test scratch cache directory, removed on drop.
struct ScratchCache {
    dir: PathBuf,
}

impl ScratchCache {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("cni-campaign-test-{}-{name}", std::process::id()));
        // A stale directory from a crashed run must not leak hits into this
        // test.
        let _ = std::fs::remove_dir_all(&dir);
        ScratchCache { dir }
    }
}

impl Drop for ScratchCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A small but non-trivial campaign: one macrobenchmark across every panel
/// of Figure 8 at the quick tier (8-node machines, tiny inputs).
fn small_macro_campaign() -> Campaign {
    fig8_campaign(ParamsTier::Quick, &[Workload::Gauss])
}

#[test]
fn parallel_and_sequential_executions_are_byte_identical() {
    let campaign = small_macro_campaign();
    let sequential = run_campaign(
        &campaign,
        &RunOptions {
            jobs: 1,
            cache: CacheMode::Disabled,
            ..RunOptions::default()
        },
    );
    let parallel = run_campaign(
        &campaign,
        &RunOptions {
            jobs: 8,
            cache: CacheMode::Disabled,
            ..RunOptions::default()
        },
    );
    assert_eq!(sequential.executed, parallel.executed);
    let seq_cells = &sequential.campaigns[0].cells;
    let par_cells = &parallel.campaigns[0].cells;
    assert_eq!(seq_cells.len(), par_cells.len());
    for (seq, par) in seq_cells.iter().zip(par_cells) {
        assert_eq!(seq.digest, par.digest);
        assert_eq!(
            seq.json,
            par.json,
            "cell {} diverged between jobs=1 and jobs=8",
            seq.spec.label()
        );
    }
    // And the rendered figure, being a pure function of the cells, matches
    // byte-for-byte too.
    assert_eq!(
        render_markdown(&sequential.campaigns[0]),
        render_markdown(&parallel.campaigns[0])
    );
}

#[test]
fn second_run_is_a_full_cache_hit_with_identical_bytes() {
    let scratch = ScratchCache::new("warm");
    let campaign = ablation_campaign(ParamsTier::Quick);
    let opts = RunOptions {
        jobs: 2,
        cache: CacheMode::ReadWrite(scratch.dir.clone()),
        ..RunOptions::default()
    };
    let first = run_campaign(&campaign, &opts);
    assert_eq!(first.executed, first.unique_cells);
    assert_eq!(first.cache_hits, 0);
    let second = run_campaign(&campaign, &opts);
    assert_eq!(second.executed, 0, "warm re-run must execute zero cells");
    assert_eq!(second.cache_hits, second.unique_cells);
    for (a, b) in first.campaigns[0]
        .cells
        .iter()
        .zip(&second.campaigns[0].cells)
    {
        assert!(!a.cached && b.cached);
        assert_eq!(a.json, b.json, "cache must return the producer's bytes");
    }
}

#[test]
fn changing_one_cell_executes_only_that_cell() {
    let scratch = ScratchCache::new("delta");
    let base = Campaign {
        name: "delta",
        title: "cache-delta probe".to_owned(),
        tier: ParamsTier::Quick,
        workloads: vec![],
        cells: vec![
            ExperimentSpec::Taxonomy,
            ExperimentSpec::Latency {
                ni: NiKind::Cni16Q,
                location: DeviceLocation::MemoryBus,
                message_bytes: 8,
                iterations: 2,
            },
        ],
    };
    let opts = RunOptions {
        jobs: 1,
        cache: CacheMode::ReadWrite(scratch.dir.clone()),
        ..RunOptions::default()
    };
    assert_eq!(run_campaign(&base, &opts).executed, 2);
    let mut grown = base.clone();
    grown.cells.push(ExperimentSpec::Latency {
        ni: NiKind::Cni16Q,
        location: DeviceLocation::MemoryBus,
        message_bytes: 16, // the one changed cell
        iterations: 2,
    });
    let run = run_campaign(&grown, &opts);
    assert_eq!(run.executed, 1, "only the new cell may execute");
    assert_eq!(run.cache_hits, 2);
}

#[test]
fn duplicate_specs_execute_once_within_a_set() {
    let cell = ExperimentSpec::Latency {
        ni: NiKind::Cni512Q,
        location: DeviceLocation::MemoryBus,
        message_bytes: 8,
        iterations: 2,
    };
    let one = Campaign {
        name: "one",
        title: "dup probe".to_owned(),
        tier: ParamsTier::Quick,
        workloads: vec![],
        cells: vec![cell, cell],
    };
    let two = Campaign {
        name: "two",
        title: "dup probe".to_owned(),
        tier: ParamsTier::Quick,
        workloads: vec![],
        cells: vec![cell],
    };
    let run = run_campaigns(&[one, two], &RunOptions::default());
    assert_eq!(run.unique_cells, 1);
    assert_eq!(run.executed, 1, "three cells, one distinct spec, one run");
    let jsons: Vec<&str> = run
        .campaigns
        .iter()
        .flat_map(|c| c.cells.iter().map(|cell| cell.json.as_str()))
        .collect();
    assert_eq!(jsons.len(), 3);
    assert!(jsons.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn corrupt_cache_entries_are_discarded_and_re_run() {
    let scratch = ScratchCache::new("corrupt");
    let campaign = ablation_campaign(ParamsTier::Quick);
    let opts = RunOptions {
        jobs: 1,
        cache: CacheMode::ReadWrite(scratch.dir.clone()),
        ..RunOptions::default()
    };
    let first = run_campaign(&campaign, &opts);
    let reference: Vec<String> = first.campaigns[0]
        .cells
        .iter()
        .map(|c| c.json.clone())
        .collect();

    // Damage the entries between runs, a different way each: truncation
    // (torn write), garbage (disk corruption) and a digest-envelope
    // mismatch (an entry copied or renamed onto the wrong cell's key).
    let cells = &first.campaigns[0].cells;
    let path = |digest: u64| scratch.dir.join(format!("{digest:016x}.json"));
    let truncated = std::fs::read_to_string(path(cells[0].digest)).unwrap();
    std::fs::write(path(cells[0].digest), &truncated[..truncated.len() / 2]).unwrap();
    std::fs::write(path(cells[1].digest), "not json at all {{{").unwrap();
    let other = std::fs::read_to_string(path(cells[3].digest)).unwrap();
    std::fs::write(path(cells[2].digest), other).unwrap();

    let second = run_campaign(&campaign, &opts);
    assert_eq!(
        second.executed, 3,
        "exactly the three damaged cells re-run; the intact ones hit"
    );
    assert_eq!(second.cache_hits, second.unique_cells - 3);
    for (cell, expected) in second.campaigns[0].cells.iter().zip(&reference) {
        assert_eq!(
            &cell.json,
            expected,
            "cell {} must recover its original bytes, never serve corruption",
            cell.spec.label()
        );
    }

    // The re-run repaired the entries: a third run is a full hit.
    let third = run_campaign(&campaign, &opts);
    assert_eq!(third.executed, 0, "re-run must rewrite the damaged entries");
}

#[test]
fn a_panicking_cell_names_its_campaign_and_digest() {
    // A 100% loss rate with the `lossy` preset destroys every message and
    // every retransmission: the run can never drain, hits the resilience
    // cell's cycle ceiling and panics out of `run_workload_stats`.
    let cell = ExperimentSpec::Resilience {
        workload: Workload::Em3d,
        ni: NiKind::Cni512Q,
        fault_ppm: 1_000_000,
        nodes: 2,
        tier: ParamsTier::Quick,
    };
    let campaign = Campaign {
        name: "boom",
        title: "panic-context probe".to_owned(),
        tier: ParamsTier::Quick,
        workloads: vec![],
        cells: vec![cell],
    };
    let result = std::panic::catch_unwind(|| {
        run_campaign(
            &campaign,
            &RunOptions {
                jobs: 1,
                cache: CacheMode::Disabled,
                ..RunOptions::default()
            },
        )
    });
    let payload = result.expect_err("a cell that aborts must panic the run");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or("");
    assert!(
        msg.contains("campaign \"boom\""),
        "panic must name the campaign: {msg}"
    );
    assert!(
        msg.contains(&format!("{:016x}", cell.digest())),
        "panic must carry the cell digest: {msg}"
    );
    assert!(
        msg.contains("resilience/em3d/CNI512Q/1000000ppm"),
        "panic must carry the cell label: {msg}"
    );
    assert!(
        msg.contains("pending work at abort"),
        "the abort diagnostics must ride along: {msg}"
    );
}

#[test]
fn resilience_section_is_byte_identical_across_executor_modes() {
    let scratch = ScratchCache::new("resilience");
    let campaign = resilience_campaign(ParamsTier::Quick);
    let render = |opts: &RunOptions| {
        let run = run_campaign(&campaign, opts);
        render_markdown(&run.campaigns[0])
    };
    // Cold sequential, cold parallel, then warm: all the same bytes.
    let cold_seq = render(&RunOptions {
        jobs: 1,
        cache: CacheMode::WriteOnly(scratch.dir.clone()),
        ..RunOptions::default()
    });
    let cold_par = render(&RunOptions {
        jobs: 8,
        cache: CacheMode::Disabled,
        ..RunOptions::default()
    });
    let warm = render(&RunOptions {
        jobs: 4,
        cache: CacheMode::ReadWrite(scratch.dir.clone()),
        ..RunOptions::default()
    });
    assert_eq!(cold_seq, cold_par, "jobs=1 vs jobs=8 diverged");
    assert_eq!(cold_seq, warm, "cold vs warm diverged");
    assert!(cold_seq.contains("### Fault accounting"), "{cold_seq}");
}

/// The acceptance gate for the tail-latency sweep: the rendered section is
/// byte-identical across `--jobs 1`, parallel, warm-cache and cold runs, and
/// its quantiles are the same integers wherever they were computed.
#[test]
fn latency_section_is_byte_identical_across_executor_modes() {
    let scratch = ScratchCache::new("latency");
    let campaign = latency_campaign(ParamsTier::Quick);
    let render = |opts: &RunOptions| {
        let run = run_campaign(&campaign, opts);
        render_markdown(&run.campaigns[0])
    };
    // Cold sequential, cold parallel, then warm: all the same bytes.
    let cold_seq = render(&RunOptions {
        jobs: 1,
        cache: CacheMode::WriteOnly(scratch.dir.clone()),
        ..RunOptions::default()
    });
    let cold_par = render(&RunOptions {
        jobs: 8,
        cache: CacheMode::Disabled,
        ..RunOptions::default()
    });
    let warm = render(&RunOptions {
        jobs: 4,
        cache: CacheMode::ReadWrite(scratch.dir.clone()),
        ..RunOptions::default()
    });
    assert_eq!(cold_seq, cold_par, "jobs=1 vs jobs=8 diverged");
    assert_eq!(cold_seq, warm, "cold vs warm diverged");
    assert!(cold_seq.contains("### rpc-closed"), "{cold_seq}");
    assert!(cold_seq.contains("### rpc-open"), "{cold_seq}");
    assert!(cold_seq.contains("| p99.9 |"), "{cold_seq}");
}

#[test]
fn cold_mode_executes_but_still_records() {
    let scratch = ScratchCache::new("cold");
    let campaign = Campaign {
        name: "cold",
        title: "cold probe".to_owned(),
        tier: ParamsTier::Quick,
        workloads: vec![],
        cells: vec![ExperimentSpec::Taxonomy],
    };
    let cold = RunOptions {
        jobs: 1,
        cache: CacheMode::WriteOnly(scratch.dir.clone()),
        ..RunOptions::default()
    };
    assert_eq!(run_campaign(&campaign, &cold).executed, 1);
    // Cold again: the existing entry is ignored.
    assert_eq!(run_campaign(&campaign, &cold).executed, 1);
    // Warm: the entry the cold runs recorded is served.
    let warm = RunOptions {
        jobs: 1,
        cache: CacheMode::ReadWrite(scratch.dir.clone()),
        ..RunOptions::default()
    };
    let run = run_campaign(&campaign, &warm);
    assert_eq!(run.executed, 0);
    assert_eq!(run.cache_hits, 1);
}
