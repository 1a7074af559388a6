//! `appbt`: the NAS block-tridiagonal CFD kernel (§4.2).
//!
//! The cube is divided into sub-cubes among processors; communication happens
//! between neighbouring processors along sub-cube boundaries through the
//! default invalidation-based shared-memory protocol — i.e. request/response
//! pairs moving 128-byte blocks. The paper notes the benchmark exhibits a hot
//! spot in which one processor receives about twice as many messages as the
//! others; the skeleton reproduces it by directing extra requests at node 0.

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::{AmMessage, HandlerId};
use cni_net::message::NodeId;
use cni_sim::time::Cycle;

use crate::phased::{self, Phased, Phases};

/// Handler id for a shared-memory block request.
pub const H_REQUEST: u16 = 50;
/// Handler id for a shared-memory block response.
pub const H_RESPONSE: u16 = 51;

/// Bytes in a request message (address plus protocol header).
pub const REQUEST_BYTES: usize = 12;
/// Bytes in a response message (one shared-memory block).
pub const BLOCK_BYTES: usize = 128;

/// Parameters of the appbt workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppbtParams {
    /// Problem cube edge length (per the paper, 24 gives 24³ cells).
    pub cube: usize,
    /// Number of iterations.
    pub iterations: usize,
    /// Number of 128-byte boundary blocks exchanged with each neighbour per
    /// iteration. Derived from the cube size when zero.
    pub blocks_per_face: usize,
    /// Cycles of computation per owned cell per iteration.
    pub compute_per_cell: Cycle,
}

impl Default for AppbtParams {
    fn default() -> Self {
        AppbtParams {
            cube: 8,
            iterations: 2,
            blocks_per_face: 0,
            compute_per_cell: 4,
        }
    }
}

impl AppbtParams {
    /// The paper's input: a 24×24×24 cube, 4 iterations.
    pub fn paper() -> Self {
        AppbtParams {
            cube: 24,
            iterations: 4,
            blocks_per_face: 0,
            compute_per_cell: 4,
        }
    }

    /// Number of 128-byte blocks that cover one face of this node's sub-cube.
    pub fn face_blocks(&self, nodes: usize) -> usize {
        if self.blocks_per_face > 0 {
            return self.blocks_per_face;
        }
        // A face of the local sub-cube holds roughly (cube² / nodes^(2/3))
        // cells of 8 bytes each; express it in 128-byte blocks.
        let face_cells = (self.cube * self.cube) as f64 / (nodes as f64).powf(2.0 / 3.0);
        ((face_cells * 8.0 / BLOCK_BYTES as f64).ceil() as usize).max(1)
    }
}

/// Arranges `nodes` processors in a 3D grid and returns each node's
/// neighbours (at most six).
pub fn neighbors(nodes: usize, me: usize) -> Vec<usize> {
    // Factor `nodes` into a roughly cubic grid px × py × pz.
    let mut px = (nodes as f64).cbrt().round().max(1.0) as usize;
    while !nodes.is_multiple_of(px) {
        px -= 1;
    }
    let rest = nodes / px;
    let mut py = (rest as f64).sqrt().round().max(1.0) as usize;
    while !rest.is_multiple_of(py) {
        py -= 1;
    }
    let pz = rest / py;
    let (x, y, z) = (me % px, (me / px) % py, me / (px * py));
    let idx = |x: usize, y: usize, z: usize| x + px * (y + py * z);
    let mut out = Vec::new();
    if px > 1 {
        out.push(idx((x + 1) % px, y, z));
        out.push(idx((x + px - 1) % px, y, z));
    }
    if py > 1 {
        out.push(idx(x, (y + 1) % py, z));
        out.push(idx(x, (y + py - 1) % py, z));
    }
    if pz > 1 {
        out.push(idx(x, y, (z + 1) % pz));
        out.push(idx(x, y, (z + pz - 1) % pz));
    }
    out.sort_unstable();
    out.dedup();
    out.retain(|&n| n != me);
    out
}

/// One node's appbt plan: compute on the local sub-cube, request every
/// boundary block of the iteration from the neighbours (and node 0), and
/// answer the requests other nodes send here.
#[derive(Clone)]
pub struct Appbt {
    nodes: usize,
    params: AppbtParams,
    /// Where the iteration's block requests go: the grid neighbours, plus
    /// node 0 for every other node.
    targets: Vec<usize>,
    /// Blocks requested from each target per iteration.
    blocks: usize,
    requests_served: u64,
}

impl Appbt {
    /// Creates the plan for processor `me` of `nodes`.
    pub fn new(me: usize, nodes: usize, params: AppbtParams) -> Self {
        let mut targets = neighbors(nodes, me);
        if me != 0 && nodes > 1 {
            // Hot spot: one extra block set is fetched from node 0 (on top of
            // its normal share if it is already a neighbour), so node 0 ends
            // up serving roughly twice as many requests as its peers.
            targets.push(0);
        }
        Appbt {
            nodes,
            params,
            targets,
            blocks: params.face_blocks(nodes),
            requests_served: 0,
        }
    }

    /// Requests this node has answered (the hot-spot metric).
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }
}

impl Phases for Appbt {
    const ARRIVAL: HandlerId = H_RESPONSE;

    fn count(&self) -> usize {
        self.params.iterations
    }

    fn send(&self, _me: usize, iteration: usize, ctx: &mut ProcCtx<'_>) {
        let owned_cells =
            (self.params.cube * self.params.cube * self.params.cube) / self.nodes.max(1);
        ctx.compute(owned_cells as Cycle * self.params.compute_per_cell);
        for &dst in &self.targets {
            for b in 0..self.blocks {
                ctx.send_am(
                    NodeId(dst),
                    H_REQUEST,
                    REQUEST_BYTES,
                    vec![iteration as u64, b as u64],
                );
            }
        }
    }

    fn expected(&self, _me: usize, _iteration: usize) -> usize {
        self.targets.len() * self.blocks
    }

    fn serve(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        assert_eq!(msg.handler, H_REQUEST, "appbt: unexpected handler");
        // Serve the block: a small protocol-handler cost plus the 128-byte
        // data response.
        self.requests_served += 1;
        ctx.compute(20);
        ctx.send_am(msg.src, H_RESPONSE, BLOCK_BYTES, msg.data);
    }
}

/// The per-processor appbt program.
pub type AppbtProgram = Phased<Appbt>;

/// Builds one appbt program per node.
pub fn programs(nodes: usize, params: &AppbtParams) -> Vec<Box<dyn Program>> {
    phased::programs(nodes, |me| Appbt::new(me, nodes, *params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::machine::{Machine, MachineConfig};
    use cni_nic::taxonomy::NiKind;

    #[test]
    fn neighbor_grids_are_symmetric() {
        for nodes in [2, 4, 8, 16] {
            for me in 0..nodes {
                let n = neighbors(nodes, me);
                assert!(!n.is_empty(), "{me} of {nodes} has no neighbours");
                assert!(n.iter().all(|&x| x < nodes));
                for &peer in &n {
                    assert!(
                        neighbors(nodes, peer).contains(&me),
                        "{me} and {peer} must be mutual neighbours in a {nodes}-node grid"
                    );
                }
            }
        }
    }

    #[test]
    fn appbt_completes_and_node_zero_is_the_hot_spot() {
        let params = AppbtParams {
            cube: 6,
            iterations: 2,
            ..AppbtParams::default()
        };
        let nodes = 8;
        let cfg = MachineConfig::isca96(nodes, NiKind::Cni512Q);
        let mut machine = Machine::new(cfg, programs(nodes, &params));
        let report = machine.run();
        assert!(report.completed, "appbt did not complete");
        let served: Vec<u64> = (0..nodes)
            .map(|i| {
                machine
                    .program_as::<AppbtProgram>(i)
                    .unwrap()
                    .plan()
                    .requests_served()
            })
            .collect();
        let others_avg: f64 = served[1..].iter().sum::<u64>() as f64 / (nodes - 1) as f64;
        assert!(
            served[0] as f64 > 1.5 * others_avg,
            "node 0 ({}) should serve roughly twice the requests of its peers (avg {:.1})",
            served[0],
            others_avg
        );
        for i in 0..nodes {
            assert_eq!(
                machine.program_as::<AppbtProgram>(i).unwrap().phases_done(),
                params.iterations
            );
        }
    }

    #[test]
    fn face_block_derivation_scales_with_cube_size() {
        let small = AppbtParams {
            cube: 8,
            ..AppbtParams::default()
        };
        let big = AppbtParams {
            cube: 24,
            ..AppbtParams::default()
        };
        assert!(big.face_blocks(16) > small.face_blocks(16));
        let explicit = AppbtParams {
            blocks_per_face: 5,
            ..AppbtParams::default()
        };
        assert_eq!(explicit.face_blocks(16), 5);
    }
}
