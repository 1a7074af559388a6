//! Randomized rounds of the differential harness over the whole knob
//! matrix, and its fuzz loop. The harness itself (generator, checker,
//! repro format) is `tests/harness`; `tests/sharding.rs` and
//! `tests/speculation.rs` run its fixed slices.
//!
//! `DIFF_SEED=<seed> DIFF_FUZZ_MS=<millis> cargo test --release --test
//! differential` keeps drawing rounds from that seed until the budget is
//! spent.

mod harness;

use std::time::Instant;

use harness::{fuzz_budget, master_seed, parse_seed, Batch, Evidence};

/// One randomized round (every NI kind, every fault shape, drawn workloads
/// and buses), then, under `DIFF_FUZZ_MS`, more rounds until the budget is
/// spent.
#[test]
fn perf_knobs_never_change_results() {
    const TEST: &str = "perf_knobs_never_change_results";
    let start = Instant::now();
    let budget = fuzz_budget();
    let mut batch = match budget {
        Some(b) => {
            let seed = master_seed();
            Batch::with_command(
                seed,
                TEST,
                format!(
                    "DIFF_SEED={seed:#x} DIFF_FUZZ_MS={} cargo test --release --test differential {TEST}",
                    b.as_millis()
                ),
            )
        }
        None => Batch::new("differential", TEST),
    };
    batch.random_round();
    if let Some(budget) = budget {
        while start.elapsed() < budget {
            batch.random_round();
        }
        println!(
            "differential fuzz: seed {:#x}, {} cases in {:.1?}: {:?}",
            batch.seed,
            batch.tally.cases,
            start.elapsed(),
            batch.tally
        );
    }
    batch.require(&[
        Evidence::Commits,
        Evidence::Drops,
        Evidence::Corruptions,
        Evidence::OutageDrops,
        Evidence::InertTimeouts,
        Evidence::MultiWorker,
    ]);
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
