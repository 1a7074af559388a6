//! Deterministic fault injection for the network fabric.
//!
//! The paper's evaluation (§4.1) assumes a perfectly reliable network: the
//! sliding-window protocol does flow control, never recovery. This module
//! makes unreliability a first-class, *deterministic* dimension of the
//! design space: a [`FaultPlan`] decides, per network message, whether the
//! fabric delivers it intact, drops it, corrupts it (detectably — a modelled
//! CRC failure at the receiving NI), duplicates it, or delays it by a few
//! extra cycles.
//!
//! Determinism is the load-bearing property. Every message a node emits
//! carries a sharding-invariant stamp `(origin node, per-node net_seq)` —
//! the same stamp the epoch router sorts cross-shard traffic by — and the
//! fault decision is a **pure function of `(seed, origin, net_seq)`**:
//!
//! ```
//! use cni_net::faults::{FaultConfig, FaultPlan};
//!
//! let plan = FaultPlan::new(&FaultConfig::lossy(42, 250_000));
//! // Same stamp, same verdict — regardless of call order, shard count or
//! // execution mode.
//! assert_eq!(plan.decide(3, 17), plan.decide(3, 17));
//! ```
//!
//! Rates are integers in parts per million (not floats) so configurations
//! hash, compare and render identically everywhere. An all-zero
//! configuration ([`FaultConfig::is_zero`]) disables the whole layer: the
//! machine model takes its historical code path, byte-identical to a build
//! without fault support.

use serde::{Deserialize, Serialize};

use cni_sim::rng::DetRng;
use cni_sim::time::Cycle;

/// One million: the denominator of every fault rate.
pub const PPM: u64 = 1_000_000;

/// A per-node outage window: while `from <= cycle < until`, the node is
/// down — fail-stop if the window never closes, freeze-and-recover if it
/// does. The fabric drops every message a down node would have emitted or
/// received; recovery relies on the reliable-delivery protocol's
/// retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailWindow {
    /// The affected node's index.
    pub node: u32,
    /// First cycle of the outage (inclusive).
    pub from: Cycle,
    /// First cycle after the outage (exclusive); `Cycle::MAX` = fail-stop.
    pub until: Cycle,
}

/// Configuration of the fault-injection layer and the reliable-delivery
/// protocol that recovers from it.
///
/// The default configuration is all-zero — no faults, protocol disabled —
/// and leaves every simulated result byte-identical to a machine without
/// the fault layer (pinned by `tests/properties.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the per-message decision function.
    pub seed: u64,
    /// Probability a message vanishes in the fabric, in parts per million.
    pub drop_ppm: u32,
    /// Probability a message arrives corrupted (detectably; the receiving
    /// NI's CRC check discards it without an acknowledgement), in ppm.
    pub corrupt_ppm: u32,
    /// Probability the fabric delivers a second copy of a message, in ppm.
    pub duplicate_ppm: u32,
    /// Probability a message is delayed past the base wire latency, in ppm.
    pub delay_ppm: u32,
    /// Maximum extra delay in cycles; the actual delay of a delayed message
    /// is uniform in `1..=max_delay_cycles`.
    pub max_delay_cycles: Cycle,
    /// Per-node outage windows (fail-stop / freeze).
    pub fail_windows: Vec<FailWindow>,
    /// Whether timed-out messages are retransmitted. With this off the
    /// protocol still detects loss (timeout counters fire and re-arm) but
    /// never recovers — useful for driving livelock diagnostics.
    pub retransmit: bool,
    /// Initial retransmission timeout in cycles (should comfortably exceed
    /// one round trip).
    pub rto_cycles: Cycle,
    /// Cap of the exponential retransmission backoff, in cycles.
    pub rto_cap_cycles: Cycle,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0x15CA_96FA_0175,
            drop_ppm: 0,
            corrupt_ppm: 0,
            duplicate_ppm: 0,
            delay_ppm: 0,
            max_delay_cycles: 150,
            fail_windows: Vec::new(),
            retransmit: true,
            rto_cycles: 800,
            rto_cap_cycles: 51_200,
        }
    }
}

impl FaultConfig {
    /// Whether every fault rate is zero and no outage windows exist — the
    /// configuration under which the whole layer (decisions, sequence
    /// numbers, retransmission timers) is disabled.
    pub fn is_zero(&self) -> bool {
        self.drop_ppm == 0
            && self.corrupt_ppm == 0
            && self.duplicate_ppm == 0
            && self.delay_ppm == 0
            && self.fail_windows.is_empty()
    }

    /// Whether the fault layer (and with it the reliable-delivery protocol)
    /// is active.
    pub fn enabled(&self) -> bool {
        !self.is_zero()
    }

    /// A degraded-fabric preset used by the resilience campaign: drops at
    /// `loss_ppm`, corruption at half of it, duplication and delay at a
    /// quarter each. `loss_ppm` is clamped to one million.
    pub fn lossy(seed: u64, loss_ppm: u32) -> FaultConfig {
        let loss_ppm = loss_ppm.min(PPM as u32);
        FaultConfig {
            seed,
            drop_ppm: loss_ppm,
            corrupt_ppm: loss_ppm / 2,
            duplicate_ppm: loss_ppm / 4,
            delay_ppm: loss_ppm / 4,
            ..FaultConfig::default()
        }
    }
}

/// The fate of one network message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Delivered intact at the nominal arrival time.
    Deliver,
    /// Lost in the fabric: never arrives, no trace at the receiver.
    Drop,
    /// Arrives, but the receiving NI's CRC check fails; the message is
    /// discarded without an acknowledgement.
    Corrupt,
    /// Delivered intact, and the fabric delivers a second copy at the same
    /// arrival time.
    Duplicate,
    /// Delivered intact, `k` cycles later than the nominal arrival time.
    Delay(Cycle),
}

/// A compiled fault plan: per-message verdicts as a pure function of the
/// message stamp, plus per-node outage lookups.
///
/// The per-message thresholds are cumulative and saturate at one million,
/// so over-specified rates degrade gracefully (drop wins, then corruption,
/// then duplication, then delay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    drop_below: u64,
    corrupt_below: u64,
    duplicate_below: u64,
    delay_below: u64,
    max_delay_cycles: Cycle,
    fail_windows: Vec<FailWindow>,
}

impl FaultPlan {
    /// Compiles a configuration into a plan.
    pub fn new(cfg: &FaultConfig) -> FaultPlan {
        let drop_below = u64::from(cfg.drop_ppm).min(PPM);
        let corrupt_below = (drop_below + u64::from(cfg.corrupt_ppm)).min(PPM);
        let duplicate_below = (corrupt_below + u64::from(cfg.duplicate_ppm)).min(PPM);
        let delay_below = (duplicate_below + u64::from(cfg.delay_ppm)).min(PPM);
        FaultPlan {
            seed: cfg.seed,
            drop_below,
            corrupt_below,
            duplicate_below,
            delay_below,
            max_delay_cycles: cfg.max_delay_cycles.max(1),
            fail_windows: cfg.fail_windows.clone(),
        }
    }

    /// The fate of the message stamped `(origin, seq)` — a pure function of
    /// `(seed, origin, seq)`, so every shard count and execution mode
    /// reaches the same verdict.
    pub fn decide(&self, origin: u32, seq: u64) -> FaultDecision {
        // Mix the stamp into the seed with the SplitMix64 multipliers; the
        // generator then whitens the combination.
        let mixed = self
            .seed
            .wrapping_add(u64::from(origin).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut rng = DetRng::new(mixed);
        let roll = rng.gen_range(PPM);
        if roll < self.drop_below {
            FaultDecision::Drop
        } else if roll < self.corrupt_below {
            FaultDecision::Corrupt
        } else if roll < self.duplicate_below {
            FaultDecision::Duplicate
        } else if roll < self.delay_below {
            FaultDecision::Delay(1 + rng.gen_range(self.max_delay_cycles))
        } else {
            FaultDecision::Deliver
        }
    }

    /// Whether `node` is inside an outage window at `at`.
    pub fn node_down(&self, node: u32, at: Cycle) -> bool {
        self.fail_windows
            .iter()
            .any(|w| w.node == node && w.from <= at && at < w.until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASES: u64 = 64;

    #[test]
    fn default_config_is_zero_and_disabled() {
        let cfg = FaultConfig::default();
        assert!(cfg.is_zero());
        assert!(!cfg.enabled());
        let plan = FaultPlan::new(&cfg);
        for seq in 0..1000 {
            assert_eq!(plan.decide(0, seq), FaultDecision::Deliver);
        }
    }

    #[test]
    fn decisions_are_pure_in_seed_origin_and_seq() {
        for case in 0..CASES {
            let mut rng = DetRng::new(0xFA_0175 ^ case);
            let cfg = FaultConfig::lossy(rng.next_u64(), 400_000);
            let plan_a = FaultPlan::new(&cfg);
            let plan_b = FaultPlan::new(&cfg);
            // Probe in different orders: verdicts depend only on the stamp.
            let mut stamps: Vec<(u32, u64)> = (0..200)
                .map(|_| (rng.gen_range(64) as u32, rng.gen_range(10_000)))
                .collect();
            let forward: Vec<_> = stamps.iter().map(|&(o, s)| plan_a.decide(o, s)).collect();
            stamps.reverse();
            let backward: Vec<_> = stamps.iter().map(|&(o, s)| plan_b.decide(o, s)).collect();
            for (i, &(o, s)) in stamps.iter().enumerate() {
                assert_eq!(
                    backward[i],
                    forward[stamps.len() - 1 - i],
                    "case {case}: verdict for ({o}, {s}) depended on call order"
                );
            }
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = FaultConfig {
            drop_ppm: 200_000,
            corrupt_ppm: 100_000,
            duplicate_ppm: 50_000,
            delay_ppm: 50_000,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(&cfg);
        let n = 200_000u64;
        let mut counts = [0u64; 5];
        for seq in 0..n {
            let i = match plan.decide(7, seq) {
                FaultDecision::Deliver => 0,
                FaultDecision::Drop => 1,
                FaultDecision::Corrupt => 2,
                FaultDecision::Duplicate => 3,
                FaultDecision::Delay(_) => 4,
            };
            counts[i] += 1;
        }
        let frac = |c: u64| c as f64 / n as f64;
        assert!((frac(counts[1]) - 0.2).abs() < 0.01, "drop {:?}", counts);
        assert!((frac(counts[2]) - 0.1).abs() < 0.01, "corrupt {:?}", counts);
        assert!((frac(counts[3]) - 0.05).abs() < 0.01, "dup {:?}", counts);
        assert!((frac(counts[4]) - 0.05).abs() < 0.01, "delay {:?}", counts);
        assert!((frac(counts[0]) - 0.6).abs() < 0.01, "deliver {:?}", counts);
    }

    #[test]
    fn over_specified_rates_saturate_instead_of_panicking() {
        let cfg = FaultConfig {
            drop_ppm: 900_000,
            corrupt_ppm: 900_000,
            duplicate_ppm: 900_000,
            delay_ppm: 900_000,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(&cfg);
        for seq in 0..10_000 {
            // Nothing is ever plainly delivered, and nothing past the
            // saturated corruption band is reachable.
            let d = plan.decide(0, seq);
            assert!(
                matches!(d, FaultDecision::Drop | FaultDecision::Corrupt),
                "unexpected verdict {d:?}"
            );
        }
    }

    #[test]
    fn delays_stay_within_the_configured_maximum() {
        let cfg = FaultConfig {
            delay_ppm: 1_000_000,
            max_delay_cycles: 37,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(&cfg);
        for seq in 0..10_000 {
            match plan.decide(1, seq) {
                FaultDecision::Delay(k) => {
                    assert!((1..=37).contains(&k), "delay {k} out of range")
                }
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn fail_windows_cover_exactly_their_interval() {
        let cfg = FaultConfig {
            fail_windows: vec![
                FailWindow {
                    node: 2,
                    from: 100,
                    until: 200,
                },
                FailWindow {
                    node: 5,
                    from: 0,
                    until: Cycle::MAX,
                },
            ],
            ..FaultConfig::default()
        };
        assert!(!cfg.is_zero(), "outage windows alone enable the layer");
        let plan = FaultPlan::new(&cfg);
        assert!(!plan.node_down(2, 99));
        assert!(plan.node_down(2, 100));
        assert!(plan.node_down(2, 199));
        assert!(!plan.node_down(2, 200));
        assert!(plan.node_down(5, 0));
        assert!(plan.node_down(5, u64::MAX - 1));
        assert!(!plan.node_down(3, 150));
    }

    #[test]
    fn lossy_preset_scales_with_the_loss_rate() {
        let calm = FaultPlan::new(&FaultConfig::lossy(1, 0));
        for seq in 0..1000 {
            assert_eq!(calm.decide(0, seq), FaultDecision::Deliver);
        }
        assert!(FaultConfig::lossy(1, 0).is_zero());
        let harsh = FaultConfig::lossy(1, 2_000_000);
        assert_eq!(harsh.drop_ppm, PPM as u32, "loss clamps at 100%");
    }
}
