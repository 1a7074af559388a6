//! Criterion benches of the simulator's queue hot paths.
//!
//! Two groups:
//!
//! * `event_queue` — the bucket ring behind `cni_sim::EventQueue` against a
//!   `std::collections::BinaryHeap` baseline (the queue's original
//!   implementation, written out below) under a hold-and-churn pattern
//!   shaped like the machine model's event loop: a standing population of
//!   pending events, each pop followed by a reschedule a short distance
//!   into the future, plus occasional events beyond the ring's 1 024 cycles
//!   that wait in its far heap. The ring must win: on a 2-vCPU x86-64 host
//!   its median time is 0.45–0.49 / 0.44–0.49 / 0.64–0.69 of the heap's at
//!   64 / 1 024 / 8 192 pending events.
//! * `host_cq` — the host-usable cachable queue (`cni_core::cq`) against
//!   `std::sync::mpsc`, exercising the same single-producer /
//!   single-consumer pattern the paper's CQs target.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cni_core::cq::cachable_queue;
use cni_sim::event::EventQueue;
use cni_sim::rng::DetRng;
use cni_sim::time::Cycle;

const MESSAGES: usize = 10_000;
const CHURN_OPS: usize = 10_000;

/// The two queues the `event_queue` group races.
trait Queue: Default {
    fn schedule(&mut self, at: Cycle, event: u64);
    fn pop(&mut self) -> Option<(Cycle, u64)>;
}

impl Queue for EventQueue<u64> {
    fn schedule(&mut self, at: Cycle, event: u64) {
        EventQueue::schedule(self, at, event);
    }

    fn pop(&mut self) -> Option<(Cycle, u64)> {
        EventQueue::pop(self)
    }
}

/// The baseline: a binary heap of `(time, schedule order)`-ordered entries,
/// `O(log n)` per push and pop.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(Cycle, u64, u64)>>,
    next_seq: u64,
}

impl Queue for HeapQueue {
    fn schedule(&mut self, at: Cycle, event: u64) {
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(Cycle, u64)> {
        self.heap.pop().map(|Reverse((at, _, event))| (at, event))
    }
}

/// One simulated event-loop run: build a standing population of `pending`
/// events, churn pop→reschedule `CHURN_OPS` times, then drain.
fn event_queue_churn<Q: Queue>(pending: usize) -> u64 {
    let mut q = Q::default();
    let mut rng = DetRng::new(0xBEEF);
    for i in 0..pending as u64 {
        q.schedule(rng.gen_range(1 << 12), i);
    }
    let mut acc = 0u64;
    for step in 0..CHURN_OPS {
        let (at, ev) = q.pop().expect("population never drains during churn");
        acc = acc.wrapping_add(at ^ ev);
        // Mostly near-future reschedules (bus transactions, processor steps),
        // occasionally one beyond the ring (idle timeouts, retry backoff).
        let delta = if step % 64 == 0 {
            1_024 + rng.gen_range(1 << 16)
        } else {
            1 + rng.gen_range(512)
        };
        q.schedule(at + delta, ev);
    }
    while let Some((at, ev)) = q.pop() {
        acc = acc.wrapping_add(at ^ ev);
    }
    acc
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(20);
    for pending in [64usize, 1024, 8192] {
        group.bench_with_input(
            BenchmarkId::new("heap", pending),
            &pending,
            |b, &pending| b.iter(|| event_queue_churn::<HeapQueue>(pending)),
        );
        group.bench_with_input(
            BenchmarkId::new("ring", pending),
            &pending,
            |b, &pending| b.iter(|| event_queue_churn::<EventQueue<u64>>(pending)),
        );
    }
    group.finish();
}

fn bench_host_cq(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_cq");
    group.sample_size(20);

    group.bench_function("cachable_queue_ping_pong", |b| {
        b.iter(|| {
            let (mut tx, mut rx) = cachable_queue::<u64>(64);
            let mut sum = 0u64;
            for i in 0..MESSAGES as u64 {
                tx.try_send(i).unwrap();
                sum = sum.wrapping_add(rx.try_recv().unwrap());
            }
            sum
        })
    });

    group.bench_function("std_mpsc_ping_pong", |b| {
        b.iter(|| {
            let (tx, rx) = mpsc::channel::<u64>();
            let mut sum = 0u64;
            for i in 0..MESSAGES as u64 {
                tx.send(i).unwrap();
                sum = sum.wrapping_add(rx.recv().unwrap());
            }
            sum
        })
    });

    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_host_cq);
criterion_main!(benches);
