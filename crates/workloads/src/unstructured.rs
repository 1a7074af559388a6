//! `unstructured`: iterative solver on an unstructured mesh (§4.2).
//!
//! The mesh is partitioned into contiguous — but deliberately *unequal* —
//! slabs of vertices; every sweep updates each vertex from its edge
//! neighbours, and edges cut by the partition generate halo-exchange
//! messages. Edge endpoints are drawn with a locality bias, so most cut
//! edges connect adjacent partitions but a tail of long-range edges keeps
//! the communication graph irregular: unlike em3d's uniformly random
//! bipartite graph, both the partition sizes and the neighbour sets here
//! are skewed.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::HandlerId;
use cni_net::message::NodeId;
use cni_sim::rng::DetRng;
use cni_sim::time::Cycle;

use crate::phased::{self, Phased, Phases};

/// Handler id for a halo update.
pub const H_HALO: u16 = 80;

/// Parameters of the unstructured workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnstructuredParams {
    /// Number of mesh vertices.
    pub mesh_nodes: usize,
    /// Average edges per vertex.
    pub degree: usize,
    /// Fraction of a vertex's edges drawn uniformly over the whole mesh
    /// (the rest stay within a local window, so cut edges mostly connect
    /// adjacent partitions).
    pub long_range_fraction: f64,
    /// Number of sweeps.
    pub iterations: usize,
    /// Bytes per halo update (one vertex state record).
    pub update_bytes: usize,
    /// Cycles of relaxation per owned vertex per sweep.
    pub compute_per_node: Cycle,
    /// Seed for the deterministic mesh generator.
    pub seed: u64,
}

impl Default for UnstructuredParams {
    fn default() -> Self {
        UnstructuredParams {
            mesh_nodes: 192,
            degree: 4,
            long_range_fraction: 0.2,
            iterations: 3,
            update_bytes: 24,
            compute_per_node: 25,
            seed: 0x0575,
        }
    }
}

impl UnstructuredParams {
    /// A paper-scale input: a ~9.4 K-vertex mesh, 8 sweeps.
    pub fn paper() -> Self {
        UnstructuredParams {
            mesh_nodes: 9428,
            degree: 4,
            long_range_fraction: 0.2,
            iterations: 8,
            update_bytes: 24,
            compute_per_node: 25,
            seed: 0x0575,
        }
    }
}

/// The mesh's communication structure: per-processor outgoing halo counts
/// and expected arrivals per sweep.
#[derive(Debug)]
pub struct UnstructuredMesh {
    /// For each processor, the sorted list of (destination, updates per
    /// sweep).
    pub outgoing: Vec<Vec<(usize, usize)>>,
    /// Halo updates each processor expects per sweep.
    pub expected_in: Vec<usize>,
    /// Vertices owned by each processor (deliberately imbalanced).
    pub owned_vertices: Vec<usize>,
}

impl UnstructuredMesh {
    /// Builds the partition and cut-edge structure deterministically.
    pub fn build(params: &UnstructuredParams, nodes: usize) -> Arc<UnstructuredMesh> {
        assert!(nodes > 0, "need at least one processor");
        let mut rng = DetRng::new(params.seed);

        // Imbalanced contiguous partition: each slab gets 0.5×–1.5× of the
        // even share, the remainder going to the last processor.
        let even = params.mesh_nodes / nodes;
        let mut owned_vertices = vec![0usize; nodes];
        let mut assigned = 0;
        for (i, slab) in owned_vertices.iter_mut().enumerate() {
            let remaining = params.mesh_nodes - assigned;
            let want = ((even as f64) * (0.5 + rng.gen_f64())).round() as usize;
            *slab = if i + 1 == nodes {
                remaining
            } else {
                want.min(remaining)
            };
            assigned += *slab;
        }
        let owner_of = |vertex: usize| -> usize {
            let mut start = 0;
            for (i, &count) in owned_vertices.iter().enumerate() {
                if vertex < start + count {
                    return i;
                }
                start += count;
            }
            nodes - 1
        };

        // Edges with a locality window: neighbours land within ±window
        // vertices unless the draw is long-range.
        let window = (params.mesh_nodes / nodes.max(2)).max(1);
        let mut outgoing_counts = vec![HashMap::<usize, usize>::new(); nodes];
        let mut expected_in = vec![0usize; nodes];
        for v in 0..params.mesh_nodes {
            let owner = owner_of(v);
            for _ in 0..params.degree {
                let u = if rng.gen_bool(params.long_range_fraction) {
                    rng.gen_index(params.mesh_nodes)
                } else {
                    let lo = v.saturating_sub(window);
                    let hi = (v + window).min(params.mesh_nodes - 1);
                    lo + rng.gen_index(hi - lo + 1)
                };
                let peer = owner_of(u);
                if peer != owner {
                    // A cut edge: both endpoints exchange halo updates every
                    // sweep.
                    *outgoing_counts[owner].entry(peer).or_insert(0) += 1;
                    expected_in[peer] += 1;
                    *outgoing_counts[peer].entry(owner).or_insert(0) += 1;
                    expected_in[owner] += 1;
                }
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
        Arc::new(UnstructuredMesh {
            outgoing,
            expected_in,
            owned_vertices,
        })
    }
}

/// One node's unstructured plan: relax the owned vertices, then send every
/// halo update of the sweep.
#[derive(Clone)]
pub struct Unstructured {
    mesh: Arc<UnstructuredMesh>,
    params: UnstructuredParams,
}

impl Phases for Unstructured {
    const ARRIVAL: HandlerId = H_HALO;

    fn count(&self) -> usize {
        self.params.iterations
    }

    fn send(&self, me: usize, sweep: usize, ctx: &mut ProcCtx<'_>) {
        ctx.compute(self.mesh.owned_vertices[me] as Cycle * self.params.compute_per_node);
        for &(dst, count) in &self.mesh.outgoing[me] {
            for _ in 0..count {
                ctx.send_am(
                    NodeId(dst),
                    H_HALO,
                    self.params.update_bytes,
                    vec![sweep as u64],
                );
            }
        }
    }

    fn expected(&self, me: usize, _sweep: usize) -> usize {
        self.mesh.expected_in[me]
    }
}

/// The per-processor unstructured program.
pub type UnstructuredProgram = Phased<Unstructured>;

/// Builds one unstructured program per node.
pub fn programs(nodes: usize, params: &UnstructuredParams) -> Vec<Box<dyn Program>> {
    let plan = Unstructured {
        mesh: UnstructuredMesh::build(params, nodes),
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
    fn mesh_is_deterministic_imbalanced_and_symmetric() {
        let params = UnstructuredParams::default();
        let a = UnstructuredMesh::build(&params, 4);
        let b = UnstructuredMesh::build(&params, 4);
        assert_eq!(a.outgoing, b.outgoing);
        assert_eq!(a.owned_vertices.iter().sum::<usize>(), params.mesh_nodes);
        assert!(
            a.owned_vertices.windows(2).any(|w| w[0] != w[1]),
            "partition {:?} should be imbalanced",
            a.owned_vertices
        );
        // Sent and expected totals agree globally.
        let sent: usize = a
            .outgoing
            .iter()
            .flat_map(|o| o.iter().map(|&(_, c)| c))
            .sum();
        assert_eq!(sent, a.expected_in.iter().sum::<usize>());
        assert!(sent > 0, "a 4-way partition must cut some edges");
    }

    #[test]
    fn single_processor_runs_have_no_halo() {
        let m = UnstructuredMesh::build(&UnstructuredParams::default(), 1);
        assert_eq!(m.expected_in.iter().sum::<usize>(), 0);
    }

    #[test]
    fn unstructured_completes_every_sweep() {
        let params = UnstructuredParams {
            mesh_nodes: 96,
            iterations: 2,
            ..UnstructuredParams::default()
        };
        let nodes = 4;
        let cfg = MachineConfig::isca96(nodes, NiKind::Cni512Q);
        let mut machine = Machine::new(cfg, programs(nodes, &params));
        let report = machine.run();
        assert!(report.completed, "unstructured did not complete");
        for i in 0..nodes {
            let p = machine.program_as::<UnstructuredProgram>(i).unwrap();
            assert_eq!(p.phases_done(), params.iterations);
        }
        let mesh = UnstructuredMesh::build(&params, nodes);
        assert_eq!(
            report.fabric.messages,
            (mesh.expected_in.iter().sum::<usize>() * params.iterations) as u64
        );
    }

    #[test]
    fn paper_input_is_larger_than_default() {
        assert!(UnstructuredParams::paper().mesh_nodes > UnstructuredParams::default().mesh_nodes);
    }
}
