//! `barnes`: hierarchical Barnes-Hut N-body simulation (§4.2).
//!
//! Forces are computed by walking an octree of bodies; a processor owns a
//! contiguous slab of bodies and most tree cells it touches are local, but
//! every force walk also reads cells owned by other processors. The skeleton
//! reproduces that traffic as request/response pairs: a small cell request,
//! answered with one multipole-expansion record. Walks concentrate near the
//! top of the tree, so a configurable fraction of remote lookups lands on the
//! processor owning the root — a milder cousin of appbt's hot spot.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::{AmMessage, HandlerId};
use cni_net::message::NodeId;
use cni_sim::rng::DetRng;
use cni_sim::time::Cycle;

use crate::phased::{self, Phased, Phases};

/// Handler id for a tree-cell request.
pub const H_CELL_REQUEST: u16 = 60;
/// Handler id for a tree-cell response.
pub const H_CELL_RESPONSE: u16 = 61;

/// Bytes in a cell request (cell id plus walk bookkeeping).
pub const REQUEST_BYTES: usize = 16;

/// Parameters of the barnes workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BarnesParams {
    /// Number of bodies in the system.
    pub bodies: usize,
    /// Number of force-computation iterations (tree rebuilds between them).
    pub iterations: usize,
    /// Average remote tree-cell lookups per owned body per iteration.
    pub lookups_per_body: f64,
    /// Fraction of remote lookups that hit the root owner's top-of-tree
    /// cells (the contention the paper's hierarchical methods exhibit).
    pub root_fraction: f64,
    /// Bytes in a cell response (one multipole-expansion record).
    pub cell_bytes: usize,
    /// Cycles of force computation per owned body per iteration.
    pub compute_per_body: Cycle,
    /// Seed for the deterministic walk generator.
    pub seed: u64,
}

impl Default for BarnesParams {
    fn default() -> Self {
        BarnesParams {
            bodies: 128,
            iterations: 3,
            lookups_per_body: 2.0,
            root_fraction: 0.25,
            cell_bytes: 96,
            compute_per_body: 40,
            seed: 0xBA51,
        }
    }
}

impl BarnesParams {
    /// A paper-scale input in the spirit of the SPLASH suite the ISCA96
    /// evaluation drew from: 16 K bodies, 4 iterations.
    pub fn paper() -> Self {
        BarnesParams {
            bodies: 16_384,
            iterations: 4,
            lookups_per_body: 0.5,
            root_fraction: 0.25,
            cell_bytes: 96,
            compute_per_body: 40,
            seed: 0xBA51,
        }
    }
}

/// The deterministic walk structure: how many cell requests each processor
/// issues to each other processor per iteration.
#[derive(Debug)]
pub struct BarnesWalks {
    /// For each processor, the sorted list of (destination, request count).
    pub requests: Vec<Vec<(usize, usize)>>,
    /// Bodies owned by each processor.
    pub owned_bodies: Vec<usize>,
}

impl BarnesWalks {
    /// Builds the remote-lookup structure deterministically from the seed.
    pub fn build(params: &BarnesParams, nodes: usize) -> Arc<BarnesWalks> {
        assert!(nodes > 0, "need at least one processor");
        let mut rng = DetRng::new(params.seed);
        let mut requests = vec![HashMap::<usize, usize>::new(); nodes];
        let mut owned_bodies = vec![0usize; nodes];
        for body in 0..params.bodies {
            let owner = body % nodes;
            owned_bodies[owner] += 1;
            if nodes == 1 {
                continue;
            }
            // Poisson-ish integer lookup count around the configured mean.
            let whole = params.lookups_per_body as usize;
            let extra = usize::from(rng.gen_bool(params.lookups_per_body - whole as f64));
            for _ in 0..whole + extra {
                let target = if owner != 0 && rng.gen_bool(params.root_fraction) {
                    0 // the root owner's top-of-tree cells
                } else {
                    let mut t = rng.gen_index(nodes - 1);
                    if t >= owner {
                        t += 1;
                    }
                    t
                };
                *requests[owner].entry(target).or_insert(0) += 1;
            }
        }
        let requests = requests
            .into_iter()
            .map(|m| {
                let mut v: Vec<(usize, usize)> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        Arc::new(BarnesWalks {
            requests,
            owned_bodies,
        })
    }
}

/// One node's barnes plan: build the tree and walk the local share of it,
/// issue every remote cell lookup of the iteration at once, and answer the
/// lookups other nodes send here.
#[derive(Clone)]
pub struct Barnes {
    walks: Arc<BarnesWalks>,
    params: BarnesParams,
    lookups: usize,
    cells_served: u64,
}

impl Barnes {
    /// Cell requests this node has answered (the root owner serves the most).
    pub fn cells_served(&self) -> u64 {
        self.cells_served
    }
}

impl Phases for Barnes {
    const ARRIVAL: HandlerId = H_CELL_RESPONSE;

    fn count(&self) -> usize {
        self.params.iterations
    }

    fn send(&self, me: usize, iteration: usize, ctx: &mut ProcCtx<'_>) {
        ctx.compute(self.walks.owned_bodies[me] as Cycle * self.params.compute_per_body);
        for &(dst, count) in &self.walks.requests[me] {
            for _ in 0..count {
                ctx.send_am(
                    NodeId(dst),
                    H_CELL_REQUEST,
                    REQUEST_BYTES,
                    vec![iteration as u64],
                );
            }
        }
    }

    fn expected(&self, _me: usize, _iteration: usize) -> usize {
        self.lookups
    }

    fn serve(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        assert_eq!(msg.handler, H_CELL_REQUEST, "barnes: unexpected handler");
        // Look the cell up and ship the multipole record back.
        self.cells_served += 1;
        ctx.compute(15);
        ctx.send_am(msg.src, H_CELL_RESPONSE, self.params.cell_bytes, msg.data);
    }
}

/// The per-processor barnes program.
pub type BarnesProgram = Phased<Barnes>;

/// Builds one barnes program per node.
pub fn programs(nodes: usize, params: &BarnesParams) -> Vec<Box<dyn Program>> {
    let walks = BarnesWalks::build(params, nodes);
    phased::programs(nodes, |me| Barnes {
        walks: Arc::clone(&walks),
        params: *params,
        lookups: walks.requests[me].iter().map(|&(_, c)| c).sum(),
        cells_served: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::machine::{Machine, MachineConfig};
    use cni_nic::taxonomy::NiKind;

    #[test]
    fn walk_generation_is_deterministic_and_balanced() {
        let params = BarnesParams::default();
        let a = BarnesWalks::build(&params, 4);
        let b = BarnesWalks::build(&params, 4);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.owned_bodies.iter().sum::<usize>(), params.bodies);
        let total: usize = a.requests.iter().flatten().map(|&(_, c)| c).sum();
        let mean = params.bodies as f64 * params.lookups_per_body;
        assert!(
            (total as f64) > 0.5 * mean && (total as f64) < 1.5 * mean,
            "total lookups {total} should be near the configured mean {mean}"
        );
    }

    #[test]
    fn single_processor_runs_have_no_remote_lookups() {
        let w = BarnesWalks::build(&BarnesParams::default(), 1);
        assert!(w.requests.iter().all(Vec::is_empty));
    }

    #[test]
    fn barnes_completes_and_the_root_owner_serves_the_most_cells() {
        let params = BarnesParams {
            bodies: 64,
            iterations: 2,
            ..BarnesParams::default()
        };
        let nodes = 8;
        let cfg = MachineConfig::isca96(nodes, NiKind::Cni512Q);
        let mut machine = Machine::new(cfg, programs(nodes, &params));
        let report = machine.run();
        assert!(report.completed, "barnes did not complete");
        let served: Vec<u64> = (0..nodes)
            .map(|i| {
                machine
                    .program_as::<BarnesProgram>(i)
                    .unwrap()
                    .plan()
                    .cells_served()
            })
            .collect();
        let others_avg = served[1..].iter().sum::<u64>() as f64 / (nodes - 1) as f64;
        assert!(
            served[0] as f64 > others_avg,
            "node 0 ({}) should serve more cells than the average peer ({others_avg:.1})",
            served[0]
        );
        for i in 0..nodes {
            assert_eq!(
                machine
                    .program_as::<BarnesProgram>(i)
                    .unwrap()
                    .phases_done(),
                params.iterations
            );
        }
    }

    #[test]
    fn paper_input_is_larger_than_default() {
        assert!(BarnesParams::paper().bodies > BarnesParams::default().bodies);
    }
}
