//! Synthetic traffic patterns: parameterized generators beyond the paper.
//!
//! The ISCA96 evaluation (and the retrospectives that cite it) stresses that
//! NI results only generalize across *diverse* communication patterns. The
//! eight macrobenchmarks cover the application side; this module covers the
//! pattern space directly with five deterministic generators:
//!
//! | pattern | shape | knob highlights |
//! |---|---|---|
//! | [`SyntheticPattern::UniformRandom`] | every message to a uniformly random peer | `messages_per_phase`, `message_bytes` |
//! | [`SyntheticPattern::Hotspot`] | a fraction of all traffic converges on node 0 | `hotspot_fraction` |
//! | [`SyntheticPattern::Ring`] | nearest-neighbour exchange around a ring (alternating ±1) | `message_bytes` |
//! | [`SyntheticPattern::AllToAll`] | every node sends to every other node each phase | `messages_per_phase` (per peer) |
//! | [`SyntheticPattern::Bursty`] | on/off phases, staggered across nodes | `burst_on`, `burst_off` |
//!
//! Every pattern runs on the [`phased`] skeleton: compute, emit the phase's
//! messages, wait for the phase's expected arrivals, advance. The whole
//! schedule — destinations, counts, expected arrivals — is precomputed by
//! [`TrafficPlan::build`] from a [`DetRng`] seed, so runs are bit-identical
//! across hosts, shard policies and execution modes like every other
//! workload in the registry.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::HandlerId;
use cni_net::message::NodeId;
use cni_sim::rng::DetRng;
use cni_sim::time::Cycle;

use crate::phased::{self, Phased, Phases};

/// Handler id for a synthetic payload message.
pub const H_PAYLOAD: u16 = 90;

/// The five synthetic communication patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyntheticPattern {
    /// Each message goes to a uniformly random other node.
    UniformRandom,
    /// `hotspot_fraction` of every node's messages target node 0; the rest
    /// are uniform.
    Hotspot,
    /// Nearest-neighbour exchange around a ring: messages alternate between
    /// the +1 and −1 neighbours (a 1-D torus).
    Ring,
    /// Every node sends `messages_per_phase` messages to **each** other node
    /// every phase — the densest exchange.
    AllToAll,
    /// On/off sources: a node only transmits during its on-window, and the
    /// windows are staggered around the ring so bursts collide at receivers.
    Bursty,
}

impl SyntheticPattern {
    /// The pattern's short name (used in workload tables).
    pub fn name(self) -> &'static str {
        match self {
            SyntheticPattern::UniformRandom => "uniform-random",
            SyntheticPattern::Hotspot => "hotspot",
            SyntheticPattern::Ring => "ring",
            SyntheticPattern::AllToAll => "all-to-all",
            SyntheticPattern::Bursty => "bursty on/off",
        }
    }

    /// A stable per-pattern seed tag, so every pattern's default [`DetRng`]
    /// stream is distinct by construction (deriving it from the display
    /// name would silently collide for equal-length names).
    fn seed_tag(self) -> u64 {
        match self {
            SyntheticPattern::UniformRandom => 1,
            SyntheticPattern::Hotspot => 2,
            SyntheticPattern::Ring => 3,
            SyntheticPattern::AllToAll => 4,
            SyntheticPattern::Bursty => 5,
        }
    }
}

/// Parameters of one synthetic workload instance. Each registered pattern
/// carries its own copy, so the knobs are tunable per pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticParams {
    /// Which pattern this instance generates.
    pub pattern: SyntheticPattern,
    /// Number of phases (each phase is send-all-then-wait-all).
    pub phases: usize,
    /// Messages per node per active phase (for [`SyntheticPattern::AllToAll`],
    /// per **peer** per phase).
    pub messages_per_phase: usize,
    /// Payload bytes per message.
    pub message_bytes: usize,
    /// Fraction of messages aimed at node 0
    /// ([`SyntheticPattern::Hotspot`] only).
    pub hotspot_fraction: f64,
    /// Phases a bursty source stays on ([`SyntheticPattern::Bursty`] only).
    pub burst_on: usize,
    /// Phases a bursty source stays off ([`SyntheticPattern::Bursty`] only).
    pub burst_off: usize,
    /// Cycles of computation per phase.
    pub compute_per_phase: Cycle,
    /// Seed for the deterministic destination draws.
    pub seed: u64,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams::uniform()
    }
}

impl SyntheticParams {
    fn base(pattern: SyntheticPattern) -> Self {
        SyntheticParams {
            pattern,
            phases: 4,
            messages_per_phase: 16,
            message_bytes: 64,
            hotspot_fraction: 0.0,
            burst_on: 0,
            burst_off: 0,
            compute_per_phase: 200,
            seed: 0x5E17_0000 | pattern.seed_tag(),
        }
    }

    /// Uniform-random defaults: small fine-grain messages.
    pub fn uniform() -> Self {
        SyntheticParams {
            message_bytes: 32,
            ..Self::base(SyntheticPattern::UniformRandom)
        }
    }

    /// Hotspot defaults: half of all traffic converges on node 0.
    pub fn hotspot() -> Self {
        SyntheticParams {
            hotspot_fraction: 0.5,
            message_bytes: 32,
            ..Self::base(SyntheticPattern::Hotspot)
        }
    }

    /// Ring defaults: bulk nearest-neighbour transfers.
    pub fn ring() -> Self {
        SyntheticParams {
            message_bytes: 256,
            messages_per_phase: 8,
            ..Self::base(SyntheticPattern::Ring)
        }
    }

    /// All-to-all defaults: a dense 128-byte exchange, two messages per
    /// peer per phase.
    pub fn all_to_all() -> Self {
        SyntheticParams {
            messages_per_phase: 2,
            message_bytes: 128,
            phases: 3,
            ..Self::base(SyntheticPattern::AllToAll)
        }
    }

    /// Bursty defaults: two phases on, two off, staggered around the ring.
    pub fn bursty() -> Self {
        SyntheticParams {
            phases: 6,
            burst_on: 2,
            burst_off: 2,
            messages_per_phase: 24,
            message_bytes: 64,
            ..Self::base(SyntheticPattern::Bursty)
        }
    }

    /// The heavier variant used by the `paper` tier: 4× the messages over
    /// 2× the phases.
    pub fn paper_scale(self) -> Self {
        SyntheticParams {
            phases: self.phases * 2,
            messages_per_phase: self.messages_per_phase * 4,
            ..self
        }
    }

    /// Whether a node transmits during `phase` (always true except for the
    /// staggered off-windows of [`SyntheticPattern::Bursty`]).
    pub fn phase_is_on(&self, node: usize, phase: usize) -> bool {
        if self.pattern != SyntheticPattern::Bursty {
            return true;
        }
        let period = (self.burst_on + self.burst_off).max(1);
        (phase + node) % period < self.burst_on
    }
}

/// The precomputed schedule of one synthetic run: per (node, phase)
/// destination counts, and the arrivals every node waits for per phase.
#[derive(Debug)]
pub struct TrafficPlan {
    /// `outgoing[node][phase]` = sorted (destination, message count).
    pub outgoing: Vec<Vec<Vec<(usize, usize)>>>,
    /// `expected_in[node][phase]` = messages arriving during that phase.
    pub expected_in: Vec<Vec<usize>>,
    /// The parameters the plan was built from.
    pub params: SyntheticParams,
}

impl TrafficPlan {
    /// Builds the full schedule deterministically from the seed.
    pub fn build(params: &SyntheticParams, nodes: usize) -> Arc<TrafficPlan> {
        assert!(nodes > 0, "need at least one node");
        let mut rng = DetRng::new(params.seed);
        let mut outgoing = vec![vec![Vec::new(); params.phases]; nodes];
        let mut expected_in = vec![vec![0usize; params.phases]; nodes];
        for phase in 0..params.phases {
            for (src, src_outgoing) in outgoing.iter_mut().enumerate() {
                if nodes == 1 || !params.phase_is_on(src, phase) {
                    continue;
                }
                let mut counts = HashMap::<usize, usize>::new();
                match params.pattern {
                    SyntheticPattern::UniformRandom | SyntheticPattern::Hotspot => {
                        for _ in 0..params.messages_per_phase {
                            let dst = if params.pattern == SyntheticPattern::Hotspot
                                && src != 0
                                && rng.gen_bool(params.hotspot_fraction)
                            {
                                0
                            } else {
                                let mut t = rng.gen_index(nodes - 1);
                                if t >= src {
                                    t += 1;
                                }
                                t
                            };
                            *counts.entry(dst).or_insert(0) += 1;
                        }
                    }
                    SyntheticPattern::Ring | SyntheticPattern::Bursty => {
                        // Alternate between the two ring neighbours.
                        let right = (src + 1) % nodes;
                        let left = (src + nodes - 1) % nodes;
                        for m in 0..params.messages_per_phase {
                            let dst = if m % 2 == 0 { right } else { left };
                            *counts.entry(dst).or_insert(0) += 1;
                        }
                    }
                    SyntheticPattern::AllToAll => {
                        for dst in 0..nodes {
                            if dst != src {
                                *counts.entry(dst).or_insert(0) += params.messages_per_phase;
                            }
                        }
                    }
                }
                for (&dst, &count) in &counts {
                    expected_in[dst][phase] += count;
                }
                let mut sorted: Vec<(usize, usize)> = counts.into_iter().collect();
                sorted.sort_unstable();
                src_outgoing[phase] = sorted;
            }
        }
        Arc::new(TrafficPlan {
            outgoing,
            expected_in,
            params: *params,
        })
    }
}

/// One node's synthetic plan: compute, then send the phase's scheduled
/// messages.
#[derive(Clone)]
pub struct Synthetic(Arc<TrafficPlan>);

impl Phases for Synthetic {
    const ARRIVAL: HandlerId = H_PAYLOAD;

    fn count(&self) -> usize {
        self.0.params.phases
    }

    fn send(&self, me: usize, phase: usize, ctx: &mut ProcCtx<'_>) {
        let params = &self.0.params;
        ctx.compute(params.compute_per_phase);
        for &(dst, count) in &self.0.outgoing[me][phase] {
            for _ in 0..count {
                ctx.send_am(
                    NodeId(dst),
                    H_PAYLOAD,
                    params.message_bytes,
                    vec![phase as u64],
                );
            }
        }
    }

    fn expected(&self, me: usize, phase: usize) -> usize {
        self.0.expected_in[me][phase]
    }
}

/// The per-node synthetic traffic program.
pub type SyntheticProgram = Phased<Synthetic>;

/// Builds one synthetic program per node from the pattern's parameters.
pub fn programs(nodes: usize, params: &SyntheticParams) -> Vec<Box<dyn Program>> {
    let plan = Synthetic(TrafficPlan::build(params, nodes));
    phased::programs(nodes, |_| plan.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::machine::{Machine, MachineConfig};
    use cni_nic::taxonomy::NiKind;

    fn all_patterns() -> [SyntheticParams; 5] {
        [
            SyntheticParams::uniform(),
            SyntheticParams::hotspot(),
            SyntheticParams::ring(),
            SyntheticParams::all_to_all(),
            SyntheticParams::bursty(),
        ]
    }

    #[test]
    fn plans_are_deterministic_and_balanced() {
        for params in all_patterns() {
            let a = TrafficPlan::build(&params, 4);
            let b = TrafficPlan::build(&params, 4);
            assert_eq!(a.outgoing, b.outgoing, "{}", params.pattern.name());
            assert_eq!(a.expected_in, b.expected_in);
            let sent: usize = a.outgoing.iter().flatten().flatten().map(|&(_, c)| c).sum();
            let expected: usize = a.expected_in.iter().flatten().sum();
            assert_eq!(sent, expected, "{}", params.pattern.name());
            assert!(sent > 0, "{} generated no traffic", params.pattern.name());
        }
    }

    #[test]
    fn hotspot_concentrates_on_node_zero() {
        let plan = TrafficPlan::build(&SyntheticParams::hotspot(), 8);
        let to_zero: usize = plan.expected_in[0].iter().sum();
        let elsewhere: usize = plan.expected_in[1..]
            .iter()
            .map(|p| p.iter().sum::<usize>())
            .sum();
        let avg_other = elsewhere as f64 / 7.0;
        assert!(
            to_zero as f64 > 2.0 * avg_other,
            "node 0 receives {to_zero}, average peer {avg_other:.1}"
        );
    }

    #[test]
    fn ring_only_talks_to_neighbours() {
        let nodes = 6;
        let plan = TrafficPlan::build(&SyntheticParams::ring(), nodes);
        for (src, phases) in plan.outgoing.iter().enumerate() {
            for (dst, _) in phases.iter().flatten() {
                let dist = (src + nodes - dst) % nodes;
                assert!(
                    dist == 1 || dist == nodes - 1,
                    "{src} -> {dst} is not a ring edge"
                );
            }
        }
    }

    #[test]
    fn all_to_all_reaches_every_peer_every_phase() {
        let nodes = 5;
        let params = SyntheticParams::all_to_all();
        let plan = TrafficPlan::build(&params, nodes);
        for (src, phases) in plan.outgoing.iter().enumerate() {
            for phase in phases {
                assert_eq!(phase.len(), nodes - 1, "node {src} must reach every peer");
                assert!(phase.iter().all(|&(_, c)| c == params.messages_per_phase));
            }
        }
    }

    #[test]
    fn bursty_sources_have_off_phases() {
        let params = SyntheticParams::bursty();
        let plan = TrafficPlan::build(&params, 4);
        let mut off_phases = 0;
        for phases in &plan.outgoing {
            off_phases += phases.iter().filter(|p| p.is_empty()).count();
        }
        assert!(off_phases > 0, "bursty sources must go quiet sometimes");
        // And the windows are staggered: not every node is off in the same
        // phase.
        for phase in 0..params.phases {
            let on = (0..4).filter(|&n| params.phase_is_on(n, phase)).count();
            assert!(on > 0, "phase {phase} has no active source");
        }
    }

    #[test]
    fn every_pattern_completes_on_a_small_machine() {
        for params in all_patterns() {
            let nodes = 4;
            let cfg = MachineConfig::isca96(nodes, NiKind::Cni16Qm);
            let mut machine = Machine::new(cfg, programs(nodes, &params));
            let report = machine.run();
            assert!(
                report.completed,
                "{} did not complete",
                params.pattern.name()
            );
            for i in 0..nodes {
                let p = machine.program_as::<SyntheticProgram>(i).unwrap();
                assert_eq!(p.phases_done(), params.phases);
            }
        }
    }

    #[test]
    fn single_node_plans_are_silent() {
        for params in all_patterns() {
            let plan = TrafficPlan::build(&params, 1);
            assert_eq!(plan.expected_in.iter().flatten().sum::<usize>(), 0);
        }
    }
}
