//! `em3d`: three-dimensional electromagnetic wave propagation (§4.2).
//!
//! The application iterates over a bipartite graph of E and H nodes; on each
//! iteration every graph node pushes a small update (12-byte payload) along
//! each of its edges through a custom update protocol. Only edges that cross
//! a processor boundary generate network messages (10 % of edges with the
//! paper's parameters). Many small updates are in flight simultaneously,
//! creating the same bursty traffic as spsolve.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::HandlerId;
use cni_net::message::NodeId;
use cni_sim::rng::DetRng;
use cni_sim::time::Cycle;

use crate::phased::{self, Phased, Phases};

/// Handler id for an edge update.
pub const H_UPDATE: u16 = 30;

/// Payload bytes per update message (two integers plus a tag, §4.2).
pub const UPDATE_BYTES: usize = 12;

/// Parameters of the em3d workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Em3dParams {
    /// Number of graph nodes.
    pub graph_nodes: usize,
    /// Out-degree of every graph node.
    pub degree: usize,
    /// Fraction of edges whose target lives on a different processor.
    pub remote_fraction: f64,
    /// Number of iterations.
    pub iterations: usize,
    /// Cycles of computation per owned graph node per iteration.
    pub compute_per_node: Cycle,
    /// Seed for the deterministic graph generator.
    pub seed: u64,
}

impl Default for Em3dParams {
    fn default() -> Self {
        Em3dParams {
            graph_nodes: 256,
            degree: 5,
            remote_fraction: 0.10,
            iterations: 4,
            compute_per_node: 20,
            seed: 0xE3D,
        }
    }
}

impl Em3dParams {
    /// The paper's input: 1 K nodes, degree 5, 10 % remote, 10 iterations.
    pub fn paper() -> Self {
        Em3dParams {
            graph_nodes: 1024,
            degree: 5,
            remote_fraction: 0.10,
            iterations: 10,
            compute_per_node: 20,
            seed: 0xE3D,
        }
    }
}

/// The communication structure every processor needs: how many remote updates
/// it sends (and to whom), and how many it expects to receive, per iteration.
#[derive(Debug)]
pub struct Em3dGraph {
    /// For each processor, the list of (destination processor, edge count).
    pub outgoing: Vec<Vec<(usize, usize)>>,
    /// For each processor, the number of remote updates expected per
    /// iteration.
    pub expected_in: Vec<usize>,
    /// Graph nodes owned by each processor.
    pub owned_nodes: Vec<usize>,
}

impl Em3dGraph {
    /// Builds the bipartite graph's communication structure deterministically.
    pub fn build(params: &Em3dParams, nodes: usize) -> Arc<Em3dGraph> {
        assert!(nodes > 0, "need at least one processor");
        let mut rng = DetRng::new(params.seed);
        let mut outgoing_counts = vec![HashMap::<usize, usize>::new(); nodes];
        let mut expected_in = vec![0usize; nodes];
        let mut owned_nodes = vec![0usize; nodes];
        for g in 0..params.graph_nodes {
            let owner = g % nodes;
            owned_nodes[owner] += 1;
            for _ in 0..params.degree {
                let remote = nodes > 1 && rng.gen_bool(params.remote_fraction);
                if remote {
                    // Pick a different processor uniformly.
                    let mut target = rng.gen_index(nodes - 1);
                    if target >= owner {
                        target += 1;
                    }
                    *outgoing_counts[owner].entry(target).or_insert(0) += 1;
                    expected_in[target] += 1;
                }
                // Local edges generate no network traffic.
            }
        }
        let outgoing = outgoing_counts
            .into_iter()
            .map(|m| {
                let mut v: Vec<(usize, usize)> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        Arc::new(Em3dGraph {
            outgoing,
            expected_in,
            owned_nodes,
        })
    }
}

/// One node's em3d plan: compute on the owned graph nodes, then push every
/// remote update of the iteration at once — the bursty pattern §4.2
/// describes.
#[derive(Clone)]
pub struct Em3d {
    graph: Arc<Em3dGraph>,
    params: Em3dParams,
}

impl Phases for Em3d {
    const ARRIVAL: HandlerId = H_UPDATE;

    fn count(&self) -> usize {
        self.params.iterations
    }

    fn send(&self, me: usize, iteration: usize, ctx: &mut ProcCtx<'_>) {
        ctx.compute(self.graph.owned_nodes[me] as Cycle * self.params.compute_per_node);
        for &(dst, count) in &self.graph.outgoing[me] {
            for _ in 0..count {
                ctx.send_am(NodeId(dst), H_UPDATE, UPDATE_BYTES, vec![iteration as u64]);
            }
        }
    }

    fn expected(&self, me: usize, _iteration: usize) -> usize {
        self.graph.expected_in[me]
    }
}

/// The per-processor em3d program.
pub type Em3dProgram = Phased<Em3d>;

/// Builds one em3d program per node.
pub fn programs(nodes: usize, params: &Em3dParams) -> Vec<Box<dyn Program>> {
    let plan = Em3d {
        graph: Em3dGraph::build(params, nodes),
        params: *params,
    };
    phased::programs(nodes, |_| plan.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::machine::{Machine, MachineConfig};
    use cni_nic::taxonomy::NiKind;

    #[test]
    fn graph_generation_is_deterministic_and_balanced() {
        let params = Em3dParams::default();
        let a = Em3dGraph::build(&params, 4);
        let b = Em3dGraph::build(&params, 4);
        assert_eq!(a.expected_in, b.expected_in);
        assert_eq!(a.owned_nodes.iter().sum::<usize>(), params.graph_nodes);
        let total_edges = params.graph_nodes * params.degree;
        let remote: usize = a.expected_in.iter().sum();
        let frac = remote as f64 / total_edges as f64;
        assert!(
            (0.05..=0.2).contains(&frac),
            "remote fraction {frac:.3} should be near the configured 10 %"
        );
        // Sent and expected counts must agree globally.
        let sent: usize = a
            .outgoing
            .iter()
            .flat_map(|o| o.iter().map(|(_, c)| *c))
            .sum();
        assert_eq!(sent, remote);
    }

    #[test]
    fn single_processor_runs_have_no_remote_edges() {
        let g = Em3dGraph::build(&Em3dParams::default(), 1);
        assert_eq!(g.expected_in.iter().sum::<usize>(), 0);
    }

    #[test]
    fn em3d_completes_all_iterations() {
        let params = Em3dParams {
            graph_nodes: 64,
            iterations: 3,
            ..Em3dParams::default()
        };
        let nodes = 4;
        let cfg = MachineConfig::isca96(nodes, NiKind::Cni16Qm);
        let mut machine = Machine::new(cfg, programs(nodes, &params));
        let report = machine.run();
        assert!(report.completed, "em3d did not complete");
        for i in 0..nodes {
            let p = machine.program_as::<Em3dProgram>(i).unwrap();
            assert_eq!(p.phases_done(), params.iterations);
        }
        let graph = Em3dGraph::build(&params, nodes);
        assert_eq!(
            report.fabric.messages,
            (graph.expected_in.iter().sum::<usize>() * params.iterations) as u64
        );
    }
}
