//! Criterion bench wrapping the Figure 6 round-trip latency microbenchmark.
//!
//! Each Criterion sample runs one complete simulated ping-pong experiment, so
//! the reported wall-clock time tracks simulator cost while the printed
//! simulated microseconds (see `report --only fig6`) track the paper's metric.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cni_core::machine::MachineConfig;
use cni_core::micro::{round_trip_latency, LatencyParams};
use cni_mem::system::DeviceLocation;
use cni_nic::taxonomy::NiKind;

fn bench_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_round_trip");
    group.sample_size(10);
    for location in [DeviceLocation::MemoryBus, DeviceLocation::IoBus] {
        for ni in [NiKind::Ni2w, NiKind::Cni4, NiKind::Cni512Q] {
            let cfg = MachineConfig::for_bus(2, ni, location);
            let label = format!("{ni}@{location:?}");
            group.bench_with_input(BenchmarkId::new("64B", &label), &cfg, |b, cfg| {
                b.iter(|| {
                    round_trip_latency(
                        cfg,
                        &LatencyParams {
                            message_bytes: 64,
                            iterations: 8,
                        },
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_latency);
criterion_main!(benches);
