//! The microbenchmarks of §5.1: round-trip latency (Figure 6) and
//! process-to-process bandwidth (Figure 7).
//!
//! Both microbenchmarks measure *process to process* performance: data starts
//! in the sending processor's cache and ends in the receiving processor's
//! cache, including the messaging-layer overhead of copying between user
//! buffers and the network interface, exactly as footnoted in §5.1.

use std::any::Any;

use serde::{Deserialize, Serialize};

use cni_mem::timing::TIMING;
use cni_net::message::NodeId;
use cni_sim::stats::LatencyHistogram;
use cni_sim::time::{bytes_per_cycles_to_mbps, cycles_to_micros, Cycle};

use crate::machine::{Machine, MachineConfig, ProcCtx, Program};
use crate::msg::AmMessage;

/// Handler id used by the microbenchmark programs.
const H_PING: u16 = 1;
/// Handler id used for the echo reply.
const H_PONG: u16 = 2;
/// Handler id used by the bandwidth stream.
const H_DATA: u16 = 3;

/// The maximum bandwidth two processors on the same coherent memory bus can
/// sustain through a local cachable queue, in MB/s — the normalisation
/// constant of Figure 7 (144 MB/s with the paper's parameters).
///
/// Per 256-byte (4-block) message the steady-state local queue costs one
/// invalidation plus one cache-to-cache transfer per block, plus the word
/// accesses on both sides and a small amortised pointer overhead.
pub fn local_queue_max_bandwidth_mbps() -> f64 {
    let per_message: Cycle = 4 * (TIMING.invalidate_memory_bus + TIMING.c2c_from_device_memory_bus)
        + 128 * TIMING.cache_hit
        + 8;
    bytes_per_cycles_to_mbps(256, per_message)
}

// ---------------------------------------------------------------------------
// Round-trip latency (Figure 6)
// ---------------------------------------------------------------------------

/// Parameters of the round-trip latency microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyParams {
    /// User message size in bytes (the figure sweeps 8–256).
    pub message_bytes: usize,
    /// Number of round trips to measure.
    pub iterations: usize,
}

impl Default for LatencyParams {
    fn default() -> Self {
        LatencyParams {
            message_bytes: 64,
            iterations: 32,
        }
    }
}

/// Result of the round-trip latency microbenchmark.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Mean round-trip time in processor cycles.
    pub round_trip_cycles: Cycle,
    /// Mean round-trip time in microseconds (the unit of Figure 6).
    pub round_trip_micros: f64,
    /// Distribution of the individual round trips.
    pub samples: LatencyHistogram,
}

/// The pinging side of the latency microbenchmark.
#[derive(Clone)]
struct PingProgram {
    peer: NodeId,
    bytes: usize,
    iterations: usize,
    completed: usize,
    outstanding_since: Option<Cycle>,
    samples: LatencyHistogram,
}

impl Program for PingProgram {
    fn start(&mut self, ctx: &mut ProcCtx<'_>) {
        self.outstanding_since = Some(ctx.now());
        ctx.send_am(self.peer, H_PING, self.bytes, vec![]);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        debug_assert_eq!(msg.handler, H_PONG);
        if let Some(t0) = self.outstanding_since.take() {
            self.samples.record(ctx.now().saturating_sub(t0));
        }
        self.completed += 1;
        if self.completed < self.iterations {
            self.outstanding_since = Some(ctx.now());
            ctx.send_am(self.peer, H_PING, self.bytes, vec![]);
        }
    }

    fn is_done(&self) -> bool {
        self.completed >= self.iterations
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// The echoing side of the latency microbenchmark.
#[derive(Clone)]
struct EchoProgram {
    peer: NodeId,
    bytes: usize,
    iterations: usize,
    echoed: usize,
}

impl Program for EchoProgram {
    fn start(&mut self, _ctx: &mut ProcCtx<'_>) {}

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        debug_assert_eq!(msg.handler, H_PING);
        self.echoed += 1;
        ctx.send_am(self.peer, H_PONG, self.bytes, vec![]);
    }

    fn is_done(&self) -> bool {
        self.echoed >= self.iterations
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// Runs the process-to-process round-trip latency microbenchmark on a
/// two-node machine with the given configuration.
///
/// # Panics
///
/// Panics if the configuration has fewer than two nodes or the run does not
/// complete within the configured cycle budget.
pub fn round_trip_latency(cfg: &MachineConfig, params: &LatencyParams) -> LatencyReport {
    assert!(cfg.nodes >= 2, "the latency microbenchmark needs two nodes");
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|i| -> Box<dyn Program> {
            match i {
                0 => Box::new(PingProgram {
                    peer: NodeId(1),
                    bytes: params.message_bytes,
                    iterations: params.iterations,
                    completed: 0,
                    outstanding_since: None,
                    samples: LatencyHistogram::new(),
                }),
                1 => Box::new(EchoProgram {
                    peer: NodeId(0),
                    bytes: params.message_bytes,
                    iterations: params.iterations,
                    echoed: 0,
                }),
                _ => Box::new(crate::machine::IdleProgram),
            }
        })
        .collect();
    let mut machine = Machine::new(cfg.clone(), programs);
    let report = machine.run();
    assert!(
        !report.aborted,
        "latency microbenchmark hit the cycle limit (max_cycles = {}) on {}",
        cfg.max_cycles, cfg.ni_kind
    );
    assert!(
        report.completed,
        "latency microbenchmark did not complete ({} iterations of {} bytes on {})",
        params.iterations, params.message_bytes, cfg.ni_kind
    );
    let ping = machine
        .program_as::<PingProgram>(0)
        .expect("node 0 runs the ping program");
    let samples = ping.samples;
    let mean = if samples.is_empty() {
        0.0
    } else {
        samples.sum() as f64 / samples.count() as f64
    };
    LatencyReport {
        round_trip_cycles: mean.round() as Cycle,
        round_trip_micros: cycles_to_micros(mean.round() as Cycle),
        samples,
    }
}

// ---------------------------------------------------------------------------
// Bandwidth (Figure 7)
// ---------------------------------------------------------------------------

/// Parameters of the bandwidth microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandwidthParams {
    /// User message size in bytes (the figure sweeps 8–4096).
    pub message_bytes: usize,
    /// Number of messages to stream.
    pub messages: usize,
}

impl Default for BandwidthParams {
    fn default() -> Self {
        BandwidthParams {
            message_bytes: 256,
            messages: 128,
        }
    }
}

/// Result of the bandwidth microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthReport {
    /// Achieved process-to-process bandwidth in MB/s.
    pub mbytes_per_sec: f64,
    /// Bandwidth relative to the two-processor local-queue maximum (the
    /// normalisation of Figure 7's vertical axis).
    pub relative: f64,
    /// Total user bytes moved.
    pub bytes: u64,
    /// Cycles from start to the last message being consumed.
    pub cycles: Cycle,
}

/// The streaming sender.
#[derive(Clone)]
struct StreamSender {
    peer: NodeId,
    bytes: usize,
    messages: usize,
    sent: usize,
    /// Cap on software-buffered fragments so the sender models an application
    /// that respects backpressure instead of allocating unbounded memory.
    max_pending: usize,
}

impl Program for StreamSender {
    fn start(&mut self, _ctx: &mut ProcCtx<'_>) {}

    fn on_message(&mut self, _ctx: &mut ProcCtx<'_>, _msg: AmMessage) {}

    fn on_idle(&mut self, ctx: &mut ProcCtx<'_>) -> bool {
        if self.sent >= self.messages {
            return false;
        }
        if ctx.pending_outgoing() >= self.max_pending {
            // Let the NI drain before producing more.
            return false;
        }
        ctx.send_am(self.peer, H_DATA, self.bytes, vec![self.sent as u64]);
        self.sent += 1;
        true
    }

    fn is_done(&self) -> bool {
        self.sent >= self.messages
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// The streaming receiver.
#[derive(Clone)]
struct StreamReceiver {
    expected: usize,
    received: usize,
    bytes: u64,
    last_at: Cycle,
}

impl Program for StreamReceiver {
    fn start(&mut self, _ctx: &mut ProcCtx<'_>) {}

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        debug_assert_eq!(msg.handler, H_DATA);
        self.received += 1;
        self.bytes += msg.bytes as u64;
        self.last_at = ctx.now();
    }

    fn is_done(&self) -> bool {
        self.received >= self.expected
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// Runs the one-way streaming bandwidth microbenchmark on a two-node machine.
///
/// # Panics
///
/// Panics if the configuration has fewer than two nodes or the run does not
/// complete within the configured cycle budget.
pub fn stream_bandwidth(cfg: &MachineConfig, params: &BandwidthParams) -> BandwidthReport {
    assert!(
        cfg.nodes >= 2,
        "the bandwidth microbenchmark needs two nodes"
    );
    let programs: Vec<Box<dyn Program>> = (0..cfg.nodes)
        .map(|i| -> Box<dyn Program> {
            match i {
                0 => Box::new(StreamSender {
                    peer: NodeId(1),
                    bytes: params.message_bytes,
                    messages: params.messages,
                    sent: 0,
                    max_pending: 64,
                }),
                1 => Box::new(StreamReceiver {
                    expected: params.messages,
                    received: 0,
                    bytes: 0,
                    last_at: 0,
                }),
                _ => Box::new(crate::machine::IdleProgram),
            }
        })
        .collect();
    let mut machine = Machine::new(cfg.clone(), programs);
    let report = machine.run();
    assert!(
        !report.aborted,
        "bandwidth microbenchmark hit the cycle limit (max_cycles = {}) on {}",
        cfg.max_cycles, cfg.ni_kind
    );
    assert!(
        report.completed,
        "bandwidth microbenchmark did not complete ({} x {} bytes on {})",
        params.messages, params.message_bytes, cfg.ni_kind
    );
    let receiver = machine
        .program_as::<StreamReceiver>(1)
        .expect("node 1 runs the receiver");
    let cycles = receiver.last_at.max(1);
    let bytes = receiver.bytes;
    let mbps = bytes_per_cycles_to_mbps(bytes, cycles);
    BandwidthReport {
        mbytes_per_sec: mbps,
        relative: mbps / local_queue_max_bandwidth_mbps(),
        bytes,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_nic::taxonomy::NiKind;

    #[test]
    fn normalisation_constant_matches_the_paper() {
        let mbps = local_queue_max_bandwidth_mbps();
        assert!(
            (140.0..=155.0).contains(&mbps),
            "local-queue max bandwidth {mbps:.1} MB/s should be close to the paper's 144 MB/s"
        );
    }

    #[test]
    fn round_trip_latency_is_positive_and_scales_with_size() {
        let cfg = MachineConfig::isca96(2, NiKind::Cni512Q);
        let small = round_trip_latency(
            &cfg,
            &LatencyParams {
                message_bytes: 8,
                iterations: 8,
            },
        );
        let large = round_trip_latency(
            &cfg,
            &LatencyParams {
                message_bytes: 256,
                iterations: 8,
            },
        );
        assert!(small.round_trip_cycles > 0);
        assert!(large.round_trip_cycles > small.round_trip_cycles);
        assert!(large.round_trip_micros > 0.0);
        assert_eq!(small.samples.count(), 8);
    }

    #[test]
    fn cnis_beat_ni2w_on_round_trip_latency() {
        let params = LatencyParams {
            message_bytes: 64,
            iterations: 8,
        };
        let ni2w = round_trip_latency(&MachineConfig::isca96(2, NiKind::Ni2w), &params);
        let cni = round_trip_latency(&MachineConfig::isca96(2, NiKind::Cni16Qm), &params);
        assert!(
            cni.round_trip_cycles < ni2w.round_trip_cycles,
            "CNI16Qm ({}) should have lower latency than NI2w ({})",
            cni.round_trip_cycles,
            ni2w.round_trip_cycles
        );
    }

    #[test]
    fn bandwidth_improves_with_message_size_and_cni() {
        let msgs = 32;
        let cni_small = stream_bandwidth(
            &MachineConfig::isca96(2, NiKind::Cni512Q),
            &BandwidthParams {
                message_bytes: 64,
                messages: msgs,
            },
        );
        let cni_large = stream_bandwidth(
            &MachineConfig::isca96(2, NiKind::Cni512Q),
            &BandwidthParams {
                message_bytes: 2048,
                messages: msgs,
            },
        );
        assert!(cni_large.mbytes_per_sec > cni_small.mbytes_per_sec);

        let ni2w = stream_bandwidth(
            &MachineConfig::isca96(2, NiKind::Ni2w),
            &BandwidthParams {
                message_bytes: 2048,
                messages: msgs,
            },
        );
        assert!(
            cni_large.mbytes_per_sec > ni2w.mbytes_per_sec,
            "CNI512Q ({:.1} MB/s) should out-stream NI2w ({:.1} MB/s)",
            cni_large.mbytes_per_sec,
            ni2w.mbytes_per_sec
        );
        assert!(
            cni_large.relative <= 1.05,
            "relative bandwidth should not exceed the local maximum by much"
        );
    }
}
