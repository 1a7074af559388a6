//! `moldyn`: molecular dynamics with a bulk reduction protocol (§4.2).
//!
//! The main communication is a custom bulk reduction that accounts for
//! roughly 40 % of the application's time with `NI2w`. One execution of the
//! reduction iterates as many times as there are processors; in each of these
//! steps a processor sends 1.5 kilobytes to the same neighbouring processor
//! (a ring) and waits for the corresponding data from its other neighbour
//! before proceeding.

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::HandlerId;
use cni_net::message::NodeId;
use cni_sim::time::Cycle;

use crate::phased::{self, Phased, Phases};

/// Handler id for a reduction chunk.
pub const H_REDUCE: u16 = 40;

/// Parameters of the moldyn workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoldynParams {
    /// Number of particles (drives the force-computation cost).
    pub particles: usize,
    /// Number of outer iterations (each runs one full reduction).
    pub iterations: usize,
    /// Bytes sent to the neighbour in every reduction step (1.5 KB in the
    /// paper).
    pub reduction_bytes: usize,
    /// Cycles of force computation per particle per iteration.
    pub compute_per_particle: Cycle,
}

impl Default for MoldynParams {
    fn default() -> Self {
        MoldynParams {
            particles: 256,
            iterations: 4,
            reduction_bytes: 1536,
            compute_per_particle: 60,
        }
    }
}

impl MoldynParams {
    /// The paper's input: 2048 particles, 30 iterations.
    pub fn paper() -> Self {
        MoldynParams {
            particles: 2048,
            iterations: 30,
            reduction_bytes: 1536,
            compute_per_particle: 60,
        }
    }
}

/// One node's moldyn plan. Each outer iteration is `nodes` phases, one per
/// reduction step: phase `iteration · nodes + step`. Every step sends one
/// chunk to the next node of the ring and waits for the chunk from the
/// previous one; the first step of an iteration also computes the
/// non-bonded forces.
#[derive(Clone)]
pub struct Moldyn {
    nodes: usize,
    params: MoldynParams,
}

impl Phases for Moldyn {
    const ARRIVAL: HandlerId = H_REDUCE;

    fn count(&self) -> usize {
        self.params.iterations * self.nodes
    }

    fn send(&self, me: usize, phase: usize, ctx: &mut ProcCtx<'_>) {
        if phase.is_multiple_of(self.nodes) {
            ctx.compute(
                self.params.particles as Cycle * self.params.compute_per_particle
                    / self.nodes as Cycle,
            );
        }
        if self.nodes > 1 {
            ctx.send_am(
                NodeId((me + 1) % self.nodes),
                H_REDUCE,
                self.params.reduction_bytes,
                vec![phase as u64],
            );
        }
    }

    fn expected(&self, _me: usize, _phase: usize) -> usize {
        usize::from(self.nodes > 1)
    }

    fn complete(&self, ctx: &mut ProcCtx<'_>) {
        // Fold the received chunk into the local accumulation.
        ctx.compute(self.params.reduction_bytes as Cycle / 8);
    }
}

/// The per-processor moldyn program.
pub type MoldynProgram = Phased<Moldyn>;

/// Builds one moldyn program per node.
pub fn programs(nodes: usize, params: &MoldynParams) -> Vec<Box<dyn Program>> {
    let plan = Moldyn {
        nodes,
        params: *params,
    };
    phased::programs(nodes, |_| plan.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::machine::{Machine, MachineConfig};
    use cni_net::message::fragments_for_bytes;
    use cni_nic::taxonomy::NiKind;

    #[test]
    fn reduction_ring_completes_every_iteration() {
        let params = MoldynParams {
            particles: 64,
            iterations: 3,
            ..MoldynParams::default()
        };
        let nodes = 4;
        let cfg = MachineConfig::isca96(nodes, NiKind::Cni512Q);
        let mut machine = Machine::new(cfg, programs(nodes, &params));
        let report = machine.run();
        assert!(report.completed, "moldyn did not complete");
        for i in 0..nodes {
            let p = machine.program_as::<MoldynProgram>(i).unwrap();
            assert_eq!(p.phases_done(), params.iterations * nodes);
        }
        // Every processor sends one 1.5 KB chunk per step, `nodes` steps per
        // iteration.
        let chunks = (nodes * nodes * params.iterations) as u64;
        let expected = chunks * fragments_for_bytes(params.reduction_bytes) as u64;
        assert_eq!(report.fabric.messages, expected);
    }

    #[test]
    fn single_node_moldyn_degenerates_to_pure_compute() {
        let params = MoldynParams {
            particles: 32,
            iterations: 2,
            ..MoldynParams::default()
        };
        let cfg = MachineConfig::isca96(1, NiKind::Cni16Qm);
        let mut machine = Machine::new(cfg, programs(1, &params));
        let report = machine.run();
        assert!(report.completed);
        assert_eq!(report.fabric.messages, 0);
    }

    #[test]
    fn paper_input_is_larger_than_default() {
        assert!(MoldynParams::paper().particles > MoldynParams::default().particles);
    }
}
