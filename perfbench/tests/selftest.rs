//! Self-test of the benchmark: the reduced variant of every workload
//! repeats its counts and digests exactly, a wrong pinned output is
//! reported as a failed run rather than a panic, and `BENCHMARK.json`
//! names exactly the gated workloads and the metrics the benchmark prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cni_bench::json::Json;
use perfbench::{
    expected_output, full_digest, is_exact, run_against, run_machine, Bench, Expected, MachineCase,
    Options, Size, END_TO_END, PER_LAYER,
};

fn reduced(bench: Bench, trace: bool) -> Options {
    Options {
        bench,
        seed: 5,
        seconds: 0.0,
        trace,
        size: Size::Reduced,
        exe: env!("CARGO_BIN_EXE_perfbench").into(),
    }
}

#[test]
fn reduced_runs_repeat_their_counts_and_digests() {
    for bench in Bench::ALL {
        let opts = reduced(bench, true);
        let expected = expected_output(bench, opts.seed, opts.size);
        let first = run_against(&opts, &expected);
        let second = run_against(&opts, &expected);
        for outcome in [&first, &second] {
            assert!(outcome.attempted > 0, "{}", bench.name());
            assert_eq!(
                outcome.failed,
                0,
                "{} failed its output check",
                bench.name()
            );
        }
        let names: Vec<&str> = first.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, listed, "{}", bench.name());
        for (a, b) in first.metrics.iter().zip(&second.metrics) {
            if is_exact(a.unit) {
                assert_eq!(a, b, "{} count {} moved", bench.name(), a.name);
            }
        }
        if let Some(case) = MachineCase::new(bench, opts.seed, opts.size) {
            let digest = |case: &MachineCase| full_digest(&run_machine(case, None).report);
            assert_eq!(digest(&case), digest(&case), "{}", bench.name());
            assert_eq!(
                Expected::Digest(digest(&case)),
                expected,
                "{}",
                bench.name()
            );
        }
    }
}

#[test]
fn a_wrong_pinned_output_counts_as_failed_not_a_panic() {
    let wrong = [
        (Bench::Em3d1024, Expected::Digest(0xDEAD_BEEF)),
        (Bench::RpcLossy, Expected::Digest(0xDEAD_BEEF)),
        (
            Bench::ReportScaled,
            Expected::Markdown("# not the report\n".to_owned()),
        ),
    ];
    for (bench, expected) in wrong {
        let outcome = run_against(&reduced(bench, false), &expected);
        assert!(outcome.attempted > 0, "{}", bench.name());
        assert_eq!(outcome.failed, outcome.attempted, "{}", bench.name());
        let failed_runs = outcome.notes.iter().find(|m| m.name == "failed_runs");
        assert_eq!(failed_runs.map(|m| m.value), Some(1.0), "{}", bench.name());
    }
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the checkout root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        json.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
            .iter()
            .map(|entry| {
                entry
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("every entry has a name")
                    .to_owned()
            })
            .collect()
    };
    let workloads: Vec<&str> = Bench::GATED.iter().map(|b| b.name()).collect();
    assert_eq!(names("workloads"), workloads);
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names("end_to_end"), end_to_end);
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names("per_layer"), per_layer);

    let untraced = run_against(
        &reduced(Bench::GaussSpec, false),
        &expected_output(Bench::GaussSpec, 5, Size::Reduced),
    );
    let printed: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(printed, end_to_end);
    assert!(untraced.metrics.iter().all(|m| m.value > 0.0));
}
