//! Property-based tests of the core data structures and invariants.
//!
//! The build environment has no access to crates.io, so instead of a
//! proptest-style framework these properties run over many randomized cases
//! driven by the simulator's own deterministic RNG ([`DetRng`]): every case
//! derives from a fixed master seed, so a failure reproduces exactly and the
//! failing case's seed appears in the assertion message.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cni::core::cq::cachable_queue;
use cni::core::machine::{LookaheadMode, SpeculationConfig};
use cni::core::msg::{AmMessage, Assembler, OutgoingMsg};
use cni::net::message::{fragments_for_bytes, NodeId, NET_PAYLOAD_BYTES};
use cni::net::window::{SlidingWindow, DEFAULT_WINDOW};
use cni::sim::event::EventQueue;
use cni::sim::rng::DetRng;

const CASES: u64 = 64;

/// The host cachable queue behaves exactly like a bounded FIFO for any
/// interleaving of sends and receives.
#[test]
fn cachable_queue_matches_a_reference_fifo() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xA11CE ^ case);
        let capacity = 1 + rng.gen_index(31);
        let ops = 1 + rng.gen_index(500);
        let (mut tx, mut rx) = cachable_queue::<u64>(capacity);
        let mut reference = VecDeque::new();
        let mut next = 0u64;
        for _ in 0..ops {
            if rng.gen_bool(0.5) {
                let ok = tx.try_send(next).is_ok();
                let expected_ok = reference.len() < capacity;
                assert_eq!(ok, expected_ok, "case {case}: try_send admission");
                if ok {
                    reference.push_back(next);
                }
                next += 1;
            } else {
                let got = rx.try_recv();
                let expected = reference.pop_front();
                assert_eq!(got, expected, "case {case}: try_recv order");
            }
        }
        // Drain what is left: order must match the reference exactly.
        while let Some(expected) = reference.pop_front() {
            assert_eq!(rx.try_recv(), Some(expected), "case {case}: drain");
        }
        assert_eq!(rx.try_recv(), None, "case {case}: queue must end empty");
    }
}

/// Fragmentation always covers the full payload with fragments of at most
/// the network payload size, and reassembly completes exactly on the last
/// fragment regardless of arrival order.
#[test]
fn fragmentation_reassembly_round_trip() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xF4A6 ^ case);
        let bytes = rng.gen_index(10_000);
        let handler = rng.gen_range(u64::from(u16::MAX) + 1) as u16;
        let mut out = OutgoingMsg::new(
            NodeId(3),
            NodeId(1),
            42,
            AmMessage::new(handler, bytes, vec![7]),
        );
        let mut frags = vec![out.fragment()];
        while !out.advance() {
            frags.push(out.fragment());
        }
        assert_eq!(frags.len(), fragments_for_bytes(bytes), "case {case}");
        assert_eq!(
            frags.iter().map(|f| f.payload_bytes).sum::<usize>(),
            bytes,
            "case {case}: fragments must cover the payload"
        );
        assert!(frags.iter().all(|f| f.payload_bytes <= NET_PAYLOAD_BYTES));

        // Reassemble in a shuffled order.
        let mut order: Vec<usize> = (0..frags.len()).collect();
        rng.shuffle(&mut order);
        let mut assembler = Assembler::new();
        let mut completed = None;
        for (count, &i) in order.iter().enumerate() {
            let result = assembler.push(frags[i].clone());
            if count + 1 < frags.len() {
                assert!(result.is_none(), "case {case}: early completion");
            } else {
                completed = result;
            }
        }
        let msg = completed.expect("last fragment completes the message");
        assert_eq!(msg.handler, handler, "case {case}");
        assert_eq!(msg.bytes, bytes, "case {case}");
        assert_eq!(msg.src, NodeId(3), "case {case}");
    }
}

/// The sliding window never admits more than its limit per destination and
/// always recovers after releases. Destinations are sparse, high ids first
/// touched out of order (node 1023 before node 0), so the per-destination
/// counters grow past ids that stay untouched and must read as empty.
#[test]
fn sliding_window_invariants() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x51D3 ^ case);
        let limit = DEFAULT_WINDOW;
        let ops = 1 + rng.gen_index(200);
        let mut window = SlidingWindow::default();
        let ids = [1023, 512 + rng.gen_index(511), 0, 1 + rng.gen_index(64)];
        let mut in_flight = [0usize; 4];
        // The highest id is touched first, every case.
        assert!(window.try_acquire(NodeId(ids[0])), "case {case}");
        in_flight[0] = 1;
        for _ in 0..ops {
            let slot = rng.gen_index(4);
            let node = NodeId(ids[slot]);
            if rng.gen_bool(0.5) {
                let ok = window.try_acquire(node);
                assert_eq!(ok, in_flight[slot] < limit, "case {case}: admission");
                if ok {
                    in_flight[slot] += 1;
                }
            } else if in_flight[slot] > 0 {
                window.release(node);
                in_flight[slot] -= 1;
            }
            assert!(window.in_flight(node) <= limit, "case {case}: over limit");
            assert_eq!(window.in_flight(node), in_flight[slot], "case {case}");
            assert_eq!(
                window.can_send(node),
                in_flight[slot] < limit,
                "case {case}"
            );
        }
        for (slot, &id) in ids.iter().enumerate() {
            assert_eq!(window.in_flight(NodeId(id)), in_flight[slot], "case {case}");
        }
        // Ids never used as a destination, inside and past the counters.
        for untouched in [100, 511, 1024, 4096] {
            assert_eq!(window.in_flight(NodeId(untouched)), 0, "case {case}");
            assert!(window.can_send(NodeId(untouched)), "case {case}");
        }
        assert_eq!(
            window.total_in_flight(),
            in_flight.iter().sum::<usize>(),
            "case {case}"
        );
    }
}

/// The event queue always pops events in non-decreasing time order and
/// preserves FIFO order among same-cycle events.
#[test]
fn event_queue_ordering() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xE7E2 ^ case);
        let n = 1 + rng.gen_index(200);
        let mut q = EventQueue::new();
        for i in 0..n {
            let t = rng.gen_range(1000);
            q.schedule(t, (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        let mut popped = 0;
        while let Some((at, (t, i))) = q.pop() {
            popped += 1;
            assert_eq!(at, t, "case {case}: clock vs event time");
            if let Some((lt, li)) = last {
                assert!(
                    t > lt || (t == lt && i > li),
                    "case {case}: ordering violated at ({t},{i}) after ({lt},{li})"
                );
            }
            last = Some((t, i));
        }
        assert_eq!(popped, n, "case {case}: events lost");
    }
}

/// The event queue's contract in its plainest form: a binary heap ordered
/// by `(time, schedule order)`. Test-only — the reference the event queue
/// is pinned against.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    next_seq: u64,
    now: u64,
}

impl HeapModel {
    fn schedule(&mut self, at: u64, event: u64) {
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let Reverse((at, _, event)) = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }
}

/// The event queue pops events in *exactly* the order of the binary-heap
/// reference model under randomized schedules, including same-cycle FIFO
/// ties and interleaved schedule/pop churn that sends events to the far
/// heap and migrates them back into the ring.
#[test]
fn wheel_and_heap_backends_are_pop_order_identical() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x9E37 ^ case);
        let mut heap = HeapModel::default();
        let mut queue = EventQueue::new();
        let mut next_id = 0u64;
        let ops = 200 + rng.gen_index(800);
        for _ in 0..ops {
            if rng.gen_bool(0.55) || queue.is_empty() {
                // Mix short offsets (same-cycle ties, ring traffic) with
                // occasional far-future events (the far heap).
                let delta = match rng.gen_index(10) {
                    0 => rng.gen_range(1 << 20),
                    1..=3 => rng.gen_range(5_000),
                    _ => rng.gen_range(8),
                };
                let at = heap.now + delta;
                heap.schedule(at, next_id);
                queue.schedule(at, next_id);
                next_id += 1;
            } else {
                let (h, w) = (heap.pop(), queue.pop());
                assert_eq!(h, w, "case {case}: queue diverged from the model mid-churn");
            }
            assert_eq!(
                heap.heap.len(),
                queue.len(),
                "case {case}: length divergence"
            );
            assert_eq!(heap.now, queue.now(), "case {case}: clock divergence");
            // Epoch planning places the peeked time on the epoch grid, so
            // it must be exact (not a lower bound).
            assert_eq!(
                heap.peek_time(),
                queue.peek_time(),
                "case {case}: peek_time divergence"
            );
        }
        // Drain: the full remaining sequence must match exactly.
        loop {
            let (h, w) = (heap.pop(), queue.pop());
            assert_eq!(
                h, w,
                "case {case}: queue diverged from the model while draining"
            );
            if h.is_none() {
                break;
            }
        }
    }
}

/// Deterministic RNG: same seed, same stream; bounded values stay in range.
#[test]
fn det_rng_is_deterministic_and_bounded() {
    for case in 0..CASES {
        let seed = DetRng::new(case).next_u64();
        let bound = 1 + DetRng::new(!case).gen_range(10_000);
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..100 {
            let x = a.gen_range(bound);
            assert_eq!(x, b.gen_range(bound), "case {case}");
            assert!(x < bound, "case {case}");
        }
    }
}

/// Epoch-planner schedule pins: for one known grinding schedule — appbt's
/// compute phases between sparse exchanges on a fixed 6-node, 2-shard
/// machine — the exact [`EpochOutcome`] of both lookahead modes is pinned,
/// the machine-level analog of the sharded driver's grinding-ring unit
/// pins. Results stay bit-identical across modes (invariant 7); what this
/// pins is the *planner's* behaviour, so an accidental change to horizon
/// planning, extension accounting or the speculation pacer shows up as a
/// schedule diff even though every result digest still matches.
///
/// Speculation gambles past the horizon and validates afterwards,
/// committing most rounds and paying for the rest with re-executed cycles.
///
/// The speculative line pins the PR 9 observable-driven pacer (commit
/// ratio, staged-plus-pending load, mean epoch length): any change to its
/// decision function moves this exact gamble/commit/rollback/depth
/// sequence, on any worker count, and fails loudly here.
#[test]
fn lookahead_epoch_schedules_are_pinned() {
    use cni::core::machine::{EpochOutcome, LookaheadMode, Machine, MachineConfig, ShardPolicy};
    use cni::nic::NiKind;
    use cni::workloads::{Workload, WorkloadParams};

    let params = WorkloadParams::tiny();
    let grid: u64 = 100; // network_latency × the 10-cycle net clock divider
    let expected = [
        (
            LookaheadMode::Fixed,
            EpochOutcome {
                epochs: 33,
                exchanges: 18,
                routed_events: 92,
                aborted: false,
                last_horizon: 5_100,
                extensions: 0,
                epoch_cycles: 33 * grid,
                max_epoch_len: grid,
                spec_commits: 0,
                spec_rollbacks: 0,
                spec_reexec_cycles: 0,
                spec_max_depth: 0,
            },
        ),
        (
            LookaheadMode::Speculative,
            EpochOutcome {
                epochs: 27,
                exchanges: 17,
                routed_events: 92,
                aborted: false,
                last_horizon: 5_100,
                extensions: 7,
                epoch_cycles: 4_600,
                max_epoch_len: 5 * grid,
                spec_commits: 6,
                spec_rollbacks: 4,
                spec_reexec_cycles: 700,
                spec_max_depth: 4,
            },
        ),
    ];

    let mut reports = Vec::new();
    for (mode, want) in expected {
        for parallel in [false, true] {
            let cfg = MachineConfig::isca96(6, NiKind::Cni16Qm)
                .with_shards(ShardPolicy::Fixed(2))
                .with_parallel(parallel)
                .with_speculation(SpeculationConfig::with_lookahead(mode));
            let mut machine =
                Machine::new(cfg.clone(), Workload::Appbt.programs(cfg.nodes, &params));
            let report = machine.run();
            assert!(report.completed, "{mode} (parallel = {parallel})");
            let outcome = *machine.epoch_outcome().expect("outcome recorded");
            assert_eq!(
                outcome, want,
                "{mode} (parallel = {parallel}): the pinned epoch schedule moved"
            );
            reports.push(report);
        }
        // Derived pin: speculation grows the mean epoch length (cycles per
        // epoch) past the fixed grid; the fixed mode sits exactly on it.
        let mean_num = want.epoch_cycles;
        let mean_den = want.epochs;
        match mode {
            LookaheadMode::Speculative => assert!(mean_num > grid * mean_den),
            LookaheadMode::Fixed => assert_eq!(mean_num, grid * mean_den),
        }
    }
    for report in &reports[1..] {
        assert_eq!(
            *report, reports[0],
            "lookahead modes must stay bit-identical in results"
        );
    }
}

/// Incremental checkpoints stay cheaper than full clones, and the
/// post-commit trim keeps the event-queue delta journal's capacity bounded.
/// The appbt fixture's checkpoint accounting is pinned exactly, so any
/// change to what a snapshot copies shows up here. Guards two regressions
/// at once: (a) the dirty tracker silently degrading to copy-everything
/// (the dirty fraction would reach 1.0 and the byte counts would jump), and
/// (b) checkpoint buffers never shrinking after a large speculative phase.
#[test]
fn incremental_checkpoints_stay_cheaper_than_full_clones() {
    use cni::core::machine::{LookaheadMode, Machine, MachineConfig, ShardPolicy};
    use cni::nic::NiKind;
    use cni::sim::event::DELTA_TRIM_ENTRIES;
    use cni::workloads::{Workload, WorkloadParams};

    let params = WorkloadParams::tiny();
    let cfg = MachineConfig::isca96(6, NiKind::Cni16Qm)
        .with_shards(ShardPolicy::Fixed(2))
        .with_speculation(SpeculationConfig::with_lookahead(
            LookaheadMode::Speculative,
        ));
    let mut machine = Machine::new(cfg.clone(), Workload::Appbt.programs(cfg.nodes, &params));
    assert!(machine.run().completed, "run did not complete");
    let stats = machine.checkpoint_stats();

    // 20 snapshots of two 3-node shards cover 60 node-rounds, of which
    // dirty tracking copies 41. The bytes count 4 per copied cache set.
    assert_eq!(
        (
            stats.snapshots,
            stats.copied_nodes,
            stats.node_rounds,
            stats.bytes,
            stats.peak_bytes
        ),
        (20, 41, 60, 153_552, 53_176),
        "checkpoint accounting moved (snapshots, copied nodes, node-rounds, bytes, peak bytes)"
    );
    assert!(
        stats.dirty_fraction() < 1.0,
        "dirty tracking degraded to copy-everything: fraction {}",
        stats.dirty_fraction()
    );
    // The post-commit trim caps the delta journal's retained capacity.
    assert!(
        stats.journal_capacity <= DELTA_TRIM_ENTRIES as u64,
        "delta journal capacity {} escaped the {DELTA_TRIM_ENTRIES}-entry trim",
        stats.journal_capacity
    );
}

/// Zero-rate transparency: with every fault rate at 0.0 (the default), the
/// reliable-delivery protocol is structurally absent and the machine takes
/// its historical code path byte for byte. Pinned two ways: (a) the
/// committed `SCALING_ref.txt` reference digests — produced before the
/// fault layer existed — are recomputed here for all five CI workloads, on
/// the `scaling` sweep's own inputs, and must still match; (b) an
/// *explicitly* attached all-zero fault config (even with protocol knobs
/// flipped) produces a bit-identical [`RunReport`].
#[test]
fn zero_fault_rates_leave_reports_byte_identical_to_seed() {
    use cni::core::machine::{Machine, MachineConfig};
    use cni::net::faults::FaultConfig;
    use cni::nic::NiKind;
    use cni_bench::{report_digest, scaling_params, CI_WORKLOADS};

    let reference: std::collections::HashMap<&str, &str> = include_str!("../SCALING_ref.txt")
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let tag = parts.next()?;
            (tag == "scaling-digest").then_some(())?;
            Some((parts.next()?, parts.nth(1)?))
        })
        .collect();
    assert_eq!(
        reference.len(),
        CI_WORKLOADS.len(),
        "SCALING_ref.txt pins one line per CI workload"
    );

    let nodes = 64;
    // Every line of the `scaling --ci` sweep, with the weak-scaled quick
    // inputs the scaling binary uses.
    for workload in CI_WORKLOADS {
        let params = scaling_params(workload, nodes, true);
        let run = |cfg: MachineConfig| {
            Machine::new(cfg.clone(), workload.programs(cfg.nodes, &params)).run()
        };

        let default_cfg = MachineConfig::isca96(nodes, NiKind::Cni512Q);
        assert!(
            default_cfg.faults.is_zero(),
            "the default configuration must carry zero fault rates"
        );
        let report = run(default_cfg.clone());
        assert!(
            report.completed,
            "{workload}: reference run did not complete"
        );
        let digest = format!("{:016x}", report_digest(&report));
        let key = workload.to_string();
        assert_eq!(
            Some(digest.as_str()),
            reference.get(key.as_str()).copied(),
            "{workload}: the zero-rate digest must stay byte-identical to the \
             committed SCALING_ref.txt line from before the fault layer existed"
        );

        // An explicit zero-rate config — protocol knobs flipped, rates all
        // zero — is still fully transparent.
        let explicit = run(default_cfg.with_faults(FaultConfig {
            retransmit: false,
            rto_cycles: 17,
            ..FaultConfig::default()
        }));
        assert_eq!(
            explicit, report,
            "{workload}: an all-zero fault config must be a structural no-op"
        );
    }
}

/// Full-report digest: every [`RunReport`](cni::core::machine::RunReport)
/// field, pending-work diagnostics included, through its `Debug` rendering.
fn full_report_digest(report: &cni::core::machine::RunReport) -> u64 {
    let mut digest = cni::core::digest::Fnv64::new();
    digest.write_str(&format!("{report:?}"));
    digest.finish()
}

/// Receive backpressure is bit-identical to per-attempt polling: the
/// machine parks refused deliveries instead of dispatching a retry every
/// `DELIVERY_RETRY_INTERVAL` cycles. These digests were recorded while
/// every attempt still ran as its own event, on retry-heavy fixtures
/// (hundreds to thousands of refused attempts each, except CNI512Q's and
/// CNI16Qm's all-to-all, whose queues never fill), and every layout and
/// lookahead mode must reproduce them. NI2w and CNI4 run on 8 I/O-bus
/// nodes. CNI16Q runs there too. CNI512Q's and CNI16Qm's 128-entry receive
/// queues fill only with more than 32 senders, so they run on 40
/// memory-bus nodes.
#[test]
fn parked_deliveries_match_polled_reference_digests() {
    use cni::core::machine::{LookaheadMode, Machine, MachineConfig, ShardPolicy};
    use cni::mem::system::DeviceLocation::{self, IoBus, MemoryBus};
    use cni::net::faults::FaultConfig;
    use cni::nic::NiKind::{self, Cni16Q, Cni16Qm, Cni4, Cni512Q, Ni2w};
    use cni::workloads::Workload::{self, AllToAll, Gauss, Hotspot, RpcOpen};
    use cni::workloads::WorkloadParams;

    let params = WorkloadParams::tiny();
    // (NI, bus, nodes, workload, lossy fabric, digest)
    #[rustfmt::skip]
    let pinned: [(NiKind, DeviceLocation, usize, Workload, bool, u64); 28] = [
        (Ni2w, IoBus, 8, AllToAll, false, 0x54ca52348877b844),
        (Ni2w, IoBus, 8, AllToAll, true, 0x7adbf1b08a96c66d),
        (Ni2w, IoBus, 8, Hotspot, false, 0xe736e73c7f3eefe4),
        (Ni2w, IoBus, 8, Hotspot, true, 0x6a586bbaa6947218),
        (Ni2w, IoBus, 8, RpcOpen, false, 0xde02740bb0565635),
        (Ni2w, IoBus, 8, RpcOpen, true, 0x8f41f0ac7bc59306),
        (Ni2w, IoBus, 8, Gauss, false, 0x604a35b290c9cf6f),
        (Ni2w, IoBus, 8, Gauss, true, 0x968f073d07d6f9a2),
        (Cni4, IoBus, 8, AllToAll, false, 0x21c7c27c6b6ab9df),
        (Cni4, IoBus, 8, AllToAll, true, 0xd0ce594d9305072d),
        (Cni4, IoBus, 8, Hotspot, false, 0xab35e372650362de),
        (Cni4, IoBus, 8, Hotspot, true, 0x87abbeecf4f6c0bb),
        (Cni4, IoBus, 8, RpcOpen, false, 0x1d3f88717bd15784),
        (Cni4, IoBus, 8, RpcOpen, true, 0x22f1e9f6d7caf64a),
        (Cni4, IoBus, 8, Gauss, false, 0xa7e78a65905ef1f5),
        (Cni4, IoBus, 8, Gauss, true, 0xdb8576b1a04d111f),
        (Cni16Q, IoBus, 8, AllToAll, false, 0x0d01efd9adba5255),
        (Cni16Q, IoBus, 8, AllToAll, true, 0x8a81b87a8d1fe066),
        (Cni16Q, IoBus, 8, Hotspot, false, 0x4a41e340a4286254),
        (Cni16Q, IoBus, 8, Hotspot, true, 0x985cfb920176356c),
        (Cni512Q, MemoryBus, 40, AllToAll, false, 0x55801ff37748ca97),
        (Cni512Q, MemoryBus, 40, AllToAll, true, 0xfdf054dc512bbd2d),
        (Cni512Q, MemoryBus, 40, Hotspot, false, 0x7d10ef7c17cec9d4),
        (Cni512Q, MemoryBus, 40, Hotspot, true, 0x4675eaeffc310e2c),
        (Cni16Qm, MemoryBus, 40, AllToAll, false, 0x76d1725712ea6ffb),
        (Cni16Qm, MemoryBus, 40, AllToAll, true, 0x3604890d57e4b48f),
        (Cni16Qm, MemoryBus, 40, Hotspot, false, 0x80cba087940bcb56),
        (Cni16Qm, MemoryBus, 40, Hotspot, true, 0xe04d78c266131bc7),
    ];
    let layouts = [
        (ShardPolicy::Single, false),
        (ShardPolicy::Fixed(2), false),
        (ShardPolicy::Fixed(2), true),
    ];
    for (ni, bus, nodes, workload, lossy, want) in pinned {
        for (policy, parallel) in layouts {
            for mode in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
                let mut cfg = MachineConfig::for_bus(nodes, ni, bus)
                    .with_shards(policy)
                    .with_parallel(parallel)
                    .with_speculation(SpeculationConfig::with_lookahead(mode));
                if lossy {
                    cfg = cfg.with_faults(FaultConfig::lossy(7, 20_000));
                }
                let report = Machine::new(cfg, workload.programs(nodes, &params)).run();
                assert!(report.completed, "{ni} {workload} lossy={lossy}");
                assert_eq!(
                    full_report_digest(&report),
                    want,
                    "{ni} {workload} lossy={lossy} {policy:?} parallel={parallel} {mode}: \
                     diverged from the polled reference"
                );
            }
        }
    }
}

/// An NI2w run cut off by the cycle limit while deliveries wait behind full
/// receive queues reports the same abort point and the same pending work
/// as the polled reference. (The cut-off reads the last dispatched event,
/// which parked attempts no longer are; it cannot move, because a node
/// with parked deliveries has its next processor step — and so its
/// processor time — past the cut-off.)
#[test]
fn aborted_backpressure_run_matches_polled_reference() {
    use cni::core::digest::fnv64_of_str;
    use cni::core::machine::{LookaheadMode, Machine, MachineConfig, ShardPolicy};
    use cni::net::faults::FaultConfig;
    use cni::nic::NiKind;
    use cni::workloads::{Workload, WorkloadParams};

    let params = WorkloadParams::tiny();
    // (workload, lossy fabric, max_cycles, reported cycles, pending digest)
    let pinned: [(Workload, bool, u64, u64, u64); 2] = [
        (Workload::Hotspot, true, 6_050, 7_412, 0x30b1c47c362acb7d),
        (Workload::RpcOpen, false, 6_050, 10_196, 0x540a5e3a4b89638c),
    ];
    for (workload, lossy, max_cycles, cycles, summary) in pinned {
        for (policy, parallel) in [
            (ShardPolicy::Single, false),
            (ShardPolicy::Fixed(2), false),
            (ShardPolicy::Fixed(2), true),
        ] {
            for mode in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
                let mut cfg = MachineConfig::isca96_io(8, NiKind::Ni2w)
                    .with_shards(policy)
                    .with_parallel(parallel)
                    .with_speculation(SpeculationConfig::with_lookahead(mode));
                if lossy {
                    cfg = cfg.with_faults(FaultConfig::lossy(7, 20_000));
                }
                cfg.max_cycles = max_cycles;
                let report = Machine::new(cfg, workload.programs(8, &params)).run();
                let label = format!("{workload} lossy={lossy} {policy:?} {parallel} {mode}");
                assert!(report.aborted, "{label}");
                assert_eq!(report.cycles, cycles, "{label}");
                assert_eq!(
                    fnv64_of_str(&report.pending_summary()),
                    summary,
                    "{label}: {}",
                    report.pending_summary()
                );
            }
        }
    }
}

/// Deterministic work counters, pinned exactly: the dispatch profile of a
/// small backpressure fixture, identical across layouts under fixed
/// lookahead. Polling re-dispatched each refused delivery every
/// `DELIVERY_RETRY_INTERVAL` cycles — 3 416 retry events on this fixture
/// with NI2w, 1 530 with CNI16Q — where parking needs 18 (NI2w) and 33
/// (CNI16Q) wake-ups for the attempts that can succeed, and skips the rest:
/// `woken + skipped_deliveries` is the polled retry count. A regression
/// back to polling fails here. On the send side, the window-blocked
/// processor steps that only poll are skipped: `proc_step + skipped` is
/// the step count of per-poll dispatch.
///
/// The lossy case runs the same fixture over a fabric that drops,
/// corrupts, duplicates and delays at rates high enough that data
/// messages and acknowledgements each take every fault branch, plus an
/// outage window on the hotspot that swallows both kinds; its dispatch
/// and fabric counters pin the emit path's fault handling exactly.
#[test]
fn backpressure_dispatch_counts_are_pinned() {
    use cni::core::machine::{DispatchStats, Machine, MachineConfig, ShardPolicy};
    use cni::net::faults::{FailWindow, FaultConfig};
    use cni::net::FabricStats;
    use cni::nic::NiKind;
    use cni::workloads::{Workload, WorkloadParams};

    let params = WorkloadParams::tiny();
    let run = |ni: NiKind, faults: &FaultConfig, policy: ShardPolicy, parallel: bool| {
        let cfg = MachineConfig::isca96_io(8, ni)
            .with_shards(policy)
            .with_parallel(parallel)
            .with_speculation(SpeculationConfig::with_lookahead(LookaheadMode::Fixed))
            .with_faults(faults.clone());
        let mut machine = Machine::new(cfg, Workload::Hotspot.programs(8, &params));
        let report = machine.run();
        assert!(report.completed, "{ni}");
        (machine.dispatch_stats(), report.fabric)
    };
    let layouts = [
        (ShardPolicy::Single, false),
        (ShardPolicy::Fixed(2), false),
        (ShardPolicy::Fixed(2), true),
    ];

    let reliable = FaultConfig::default();
    let ni2w = DispatchStats {
        proc_step: 118,
        skipped: 446 - 118,
        net_arrival: 96,
        ack_arrival: 96,
        wake_parked: 18,
        retx_timer: 0,
        parked: 45,
        woken: 45,
        skipped_deliveries: 3_416 - 45,
    };
    let cni16q = DispatchStats {
        proc_step: 139,
        skipped: 5_686 - 139,
        net_arrival: 96,
        ack_arrival: 96,
        wake_parked: 33,
        retx_timer: 0,
        parked: 53,
        woken: 53,
        skipped_deliveries: 1_530 - 53,
    };
    for (ni, want) in [(NiKind::Ni2w, ni2w), (NiKind::Cni16Q, cni16q)] {
        for (policy, parallel) in layouts {
            assert_eq!(
                run(ni, &reliable, policy, parallel).0,
                want,
                "{ni} {policy:?} {parallel}"
            );
        }
    }

    let lossy = FaultConfig {
        fail_windows: vec![FailWindow {
            node: 0,
            from: 4_000,
            until: 6_000,
        }],
        ..FaultConfig::lossy(7, 200_000)
    };
    let want = (
        DispatchStats {
            proc_step: 136,
            skipped: 540 - 136,
            net_arrival: 211,
            ack_arrival: 146,
            wake_parked: 36,
            retx_timer: 118,
            parked: 90,
            woken: 90,
            skipped_deliveries: 4_240,
        },
        FabricStats {
            messages: 265,
            wire_bytes: 67_840,
            payload_bytes: 8_480,
            faults_dropped: 122,
            corruptions_detected: 40,
            dup_discards: 95,
            retransmits: 169,
            timeouts: 169,
        },
    );
    for (policy, parallel) in layouts {
        assert_eq!(
            run(NiKind::Ni2w, &lossy, policy, parallel),
            want,
            "lossy {policy:?} {parallel}"
        );
    }
}

/// A processor blocked by the sliding window parks instead of dispatching
/// one step per empty poll, and the skipped steps are materialised lazily;
/// simulated output must not move. These reports, dispatch profiles and
/// speculative epoch schedules (epochs, commits, rollbacks, re-executed
/// cycles, under a load-sensitive pacer) were recorded while every window-blocked poll still ran as its
/// own `ProcStep`: hotspot at 8 nodes on every NI kind and every bus valid
/// for it but the cache bus, fault-free and lossy, plus an em3d cell whose
/// every message is lost, so the run aborts at its 50 M-cycle ceiling with
/// both processors spinning. `proc_step + skipped` is the polled step count.
/// The retries column counts every delivery attempt after the first, run
/// or skipped (`woken + skipped_deliveries`); for the CQ rows, whose
/// refusals were still polled then, it is the reference's retry-event
/// count. The wake, parked and woken columns, and the speculative
/// schedules of two CQ rows, were re-pinned when CQ refusals began to park:
/// an epoch that held nothing but retries is no longer planned.
#[test]
fn window_blocked_spins_match_polled_reference() {
    use cni::core::machine::{DispatchStats, Machine, MachineConfig, RunReport, SpecTuning};
    use cni::mem::system::DeviceLocation::{IoBus, MemoryBus};
    use cni::net::faults::FaultConfig;
    use cni::nic::NiKind::{Cni16Q, Cni16Qm, Cni4, Cni512Q, Ni2w};
    use cni::workloads::{ParamsTier, Workload, WorkloadParams};

    // Dispatch counts as per-event polling would see them: (steps, net
    // arrivals, acks, delivery retries, parked wakes, retransmission
    // timers, parked, woken).
    let polled = |d: DispatchStats| {
        [
            d.proc_step + d.skipped,
            d.net_arrival,
            d.ack_arrival,
            d.woken + d.skipped_deliveries,
            d.wake_parked,
            d.retx_timer,
            d.parked,
            d.woken,
        ]
    };
    let check = |label: &str, machine: &Machine, report: &RunReport, digest: u64, want| {
        assert_eq!(full_report_digest(report), digest, "{label}: report moved");
        let got = machine.dispatch_stats();
        assert_eq!(polled(got), want, "{label}: {got:?}");
        got
    };

    #[rustfmt::skip]
    let pinned = [
        (Ni2w, MemoryBus, false, 0xa7b7ee405918ed57, [723, 96, 96, 1891, 20, 0, 43, 43], [94, 6, 2, 200]),
        (Ni2w, MemoryBus, true, 0x1762dc054710d4ca, [717, 202, 151, 2409, 42, 103, 84, 84], [142, 1, 6, 900]),
        (Ni2w, IoBus, false, 0xe736e73c7f3eefe4, [446, 96, 96, 3416, 18, 0, 45, 45], [114, 4, 1, 100]),
        (Ni2w, IoBus, true, 0x37cce5d3d427edb1, [560, 206, 154, 5621, 37, 108, 96, 96], [174, 11, 4, 500]),
        (Cni4, MemoryBus, false, 0xe92abf233956cba6, [342, 96, 96, 1370, 26, 0, 44, 44], [75, 1, 4, 800]),
        (Cni4, MemoryBus, true, 0x3809509f7fa04373, [426, 183, 132, 930, 34, 152, 53, 53], [143, 16, 13, 1600]),
        (Cni4, IoBus, false, 0xab35e372650362de, [271, 96, 96, 2705, 29, 0, 44, 44], [120, 3, 6, 600]),
        (Cni4, IoBus, true, 0x80045c1cd75d9083, [426, 190, 136, 2947, 47, 165, 76, 76], [188, 16, 10, 1100]),
        (Cni16Q, MemoryBus, false, 0x91f66b1cdf3a0640, [3080, 96, 96, 831, 32, 0, 53, 53], [52, 2, 1, 100]),
        (Cni16Q, MemoryBus, true, 0x0c5c0effdcc8fa76, [5078, 195, 136, 494, 45, 154, 56, 56], [132, 1, 6, 700]),
        (Cni16Q, IoBus, false, 0x4a41e340a4286254, [5686, 96, 96, 1530, 33, 0, 53, 53], [90, 6, 0, 0]),
        (Cni16Q, IoBus, true, 0xab078e8450bf9adf, [6324, 205, 149, 1191, 52, 167, 69, 69], [165, 8, 15, 1700]),
        (Cni512Q, MemoryBus, false, 0x3c45f368f2e7c86a, [487, 96, 96, 0, 0, 0, 0, 0], [30, 5, 0, 0]),
        (Cni512Q, MemoryBus, true, 0xe009b54cf5a22cac, [1702, 178, 125, 0, 0, 138, 0, 0], [132, 1, 6, 600]),
        (Cni512Q, IoBus, false, 0x29b8d80aa0cc5148, [631, 96, 96, 0, 0, 0, 0, 0], [38, 5, 0, 0]),
        (Cni512Q, IoBus, true, 0x515633da974a4630, [1360, 175, 134, 0, 0, 146, 0, 0], [151, 3, 6, 600]),
        (Cni16Qm, MemoryBus, false, 0x9600a8dab290261c, [1633, 96, 96, 0, 0, 0, 0, 0], [46, 7, 0, 0]),
        (Cni16Qm, MemoryBus, true, 0x5669c0a4608de4c1, [2605, 179, 128, 0, 0, 139, 0, 0], [127, 10, 9, 1100]),
    ];
    let params = WorkloadParams::tiny();
    let pacer = SpecTuning {
        dense_staged: 8,
        give_up_rollbacks: u64::MAX,
        ..SpecTuning::default()
    };
    let mut skipped = 0;
    for (kind, bus, lossy, digest, counts, schedule) in pinned {
        for mode in [LookaheadMode::Fixed, LookaheadMode::Speculative] {
            let mut cfg =
                MachineConfig::for_bus(8, kind, bus).with_speculation(SpeculationConfig {
                    lookahead: mode,
                    pacer,
                });
            if lossy {
                cfg = cfg.with_faults(FaultConfig::lossy(7, 200_000));
            }
            let mut machine = Machine::new(cfg, Workload::Hotspot.programs(8, &params));
            let report = machine.run();
            assert!(report.completed);
            let label = format!("{kind} on the {bus}, lossy={lossy}, {mode}");
            if mode == LookaheadMode::Fixed {
                skipped += check(&label, &machine, &report, digest, counts).skipped;
                continue;
            }
            // Parked spins leave the pacer's load and the planner's next
            // event as they were, so the speculative schedule is pinned
            // too, even with a pacer that refuses a gamble once more than
            // eight events are pending.
            assert_eq!(full_report_digest(&report), digest, "{label}: report moved");
            let o = machine.epoch_outcome().expect("the run recorded one");
            assert_eq!(
                [
                    o.epochs,
                    o.spec_commits,
                    o.spec_rollbacks,
                    o.spec_reexec_cycles
                ],
                schedule,
                "{label}: the epoch schedule moved"
            );
        }
    }
    assert!(skipped > 0, "no window-blocked step was skipped");

    // The resilience campaign's em3d/CNI512Q cell at a 100% loss rate
    // (`RESILIENCE_FAULT_SEED`), at 2 nodes.
    let mut cfg = MachineConfig::isca96(2, Cni512Q)
        .with_faults(FaultConfig::lossy(0x15CA_96C4_1F00, 1_000_000));
    cfg.max_cycles = 50_000_000;
    let mut machine = Machine::new(cfg, Workload::Em3d.programs(2, &ParamsTier::Quick.params()));
    let report = machine.run();
    assert!(report.aborted && report.cycles == 50_000_100);
    let polled_steps = 49_999_360;
    let got = check(
        "aborted em3d",
        &machine,
        &report,
        0xbf74cbe520f935a7,
        [polled_steps, 0, 0, 0, 0, 7848, 0, 0],
    );
    assert!(
        got.proc_step * 100 <= polled_steps,
        "a spinning processor still dispatches {} steps",
        got.proc_step
    );
}
