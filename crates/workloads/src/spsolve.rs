//! `spsolve`: a very fine-grained iterative sparse-matrix solver (§4.2).
//!
//! Active messages propagate down the edges of a directed acyclic graph; all
//! computation happens at DAG nodes inside the handlers. Each message carries
//! a 12-byte payload and the computation per message is a single double-word
//! addition, so messaging overhead dominates — the workload the CNIs help
//! most. Several messages can be in flight at once, producing bursty traffic.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::AmMessage;
use cni_net::message::NodeId;
use cni_sim::rng::DetRng;

/// Handler id for a DAG-edge update message.
pub const H_UPDATE: u16 = 10;

/// Payload bytes per update message (12 bytes, §4.2).
pub const UPDATE_BYTES: usize = 12;

/// Cycles charged per double-word addition at a DAG node.
pub const ADD_COST: u64 = 10;

/// Parameters of the spsolve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpsolveParams {
    /// Number of DAG elements.
    pub elements: usize,
    /// Number of DAG layers (dependences only go from one layer to the next).
    pub layers: usize,
    /// Average out-degree of a DAG element.
    pub avg_degree: usize,
    /// Seed for the deterministic DAG generator.
    pub seed: u64,
}

impl Default for SpsolveParams {
    fn default() -> Self {
        // Scaled-down default that keeps debug-mode simulations quick.
        SpsolveParams {
            elements: 512,
            layers: 16,
            avg_degree: 3,
            seed: 0x5B50,
        }
    }
}

impl SpsolveParams {
    /// The paper's input: 3720 elements.
    pub fn paper() -> Self {
        SpsolveParams {
            elements: 3720,
            layers: 32,
            avg_degree: 3,
            seed: 0x5B50,
        }
    }
}

/// The DAG shared (read-only) by every node's program.
#[derive(Debug)]
pub struct Dag {
    /// Owning processor of each element.
    pub owner: Vec<usize>,
    /// Number of incoming edges of each element.
    pub indegree: Vec<u32>,
    /// Outgoing edges of each element.
    pub successors: Vec<Vec<u32>>,
}

impl Dag {
    /// Builds the layered random DAG deterministically from the parameters.
    pub fn build(params: &SpsolveParams, nodes: usize) -> Arc<Dag> {
        assert!(nodes > 0, "need at least one processor");
        let n = params.elements.max(1);
        let layers = params.layers.clamp(1, n);
        let mut rng = DetRng::new(params.seed);
        let per_layer = n.div_ceil(layers);
        let layer_of = |e: usize| (e / per_layer).min(layers - 1);

        let mut indegree = vec![0u32; n];
        let mut successors = vec![Vec::new(); n];
        for (e, succ) in successors.iter_mut().enumerate() {
            let layer = layer_of(e);
            if layer + 1 >= layers {
                continue;
            }
            let next_start = (layer + 1) * per_layer;
            let next_end = (((layer + 2) * per_layer).min(n)).max(next_start + 1);
            if next_start >= n {
                continue;
            }
            let degree = 1 + rng.gen_index(params.avg_degree.max(1) * 2);
            for _ in 0..degree {
                let target =
                    next_start + rng.gen_index((next_end - next_start).min(n - next_start));
                succ.push(target as u32);
                indegree[target] += 1;
            }
        }
        // Round-robin ownership interleaves every layer across processors,
        // like the original irregular distribution.
        let owner = (0..n).map(|e| e % nodes).collect();
        Arc::new(Dag {
            owner,
            indegree,
            successors,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Total number of edges.
    pub fn edges(&self) -> usize {
        self.successors.iter().map(|s| s.len()).sum()
    }
}

/// The per-processor spsolve program.
#[derive(Clone)]
pub struct SpsolveProgram {
    me: usize,
    dag: Arc<Dag>,
    remaining_deps: HashMap<u32, u32>,
    owned: Vec<u32>,
    fired: usize,
}

impl SpsolveProgram {
    /// Creates the program for processor `me`.
    pub fn new(me: usize, dag: Arc<Dag>) -> Self {
        let owned: Vec<u32> = (0..dag.len() as u32)
            .filter(|&e| dag.owner[e as usize] == me)
            .collect();
        let remaining_deps = owned
            .iter()
            .map(|&e| (e, dag.indegree[e as usize]))
            .collect();
        SpsolveProgram {
            me,
            dag,
            remaining_deps,
            owned,
            fired: 0,
        }
    }

    /// Number of elements fired so far.
    pub fn fired(&self) -> usize {
        self.fired
    }

    fn fire_ready(&mut self, ctx: &mut ProcCtx<'_>, start: Vec<u32>) {
        let mut worklist = start;
        while let Some(e) = worklist.pop() {
            self.fired += 1;
            ctx.compute(ADD_COST);
            let succs = self.dag.successors[e as usize].clone();
            for s in succs {
                let owner = self.dag.owner[s as usize];
                if owner == self.me {
                    let deps = self
                        .remaining_deps
                        .get_mut(&s)
                        .expect("owned element has a dependence entry");
                    *deps -= 1;
                    if *deps == 0 {
                        worklist.push(s);
                    }
                } else {
                    ctx.send_am(NodeId(owner), H_UPDATE, UPDATE_BYTES, vec![u64::from(s)]);
                }
            }
        }
    }
}

impl Program for SpsolveProgram {
    fn start(&mut self, ctx: &mut ProcCtx<'_>) {
        let sources: Vec<u32> = self
            .owned
            .iter()
            .copied()
            .filter(|e| self.dag.indegree[*e as usize] == 0)
            .collect();
        self.fire_ready(ctx, sources);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        debug_assert_eq!(msg.handler, H_UPDATE);
        let element = msg.data[0] as u32;
        let deps = self
            .remaining_deps
            .get_mut(&element)
            .expect("update for an element this node owns");
        *deps -= 1;
        if *deps == 0 {
            self.fire_ready(ctx, vec![element]);
        }
    }

    fn is_done(&self) -> bool {
        self.fired >= self.owned.len()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// Builds one spsolve program per node.
pub fn programs(nodes: usize, params: &SpsolveParams) -> Vec<Box<dyn Program>> {
    let dag = Dag::build(params, nodes);
    (0..nodes)
        .map(|i| Box::new(SpsolveProgram::new(i, Arc::clone(&dag))) as Box<dyn Program>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::machine::{Machine, MachineConfig};
    use cni_nic::taxonomy::NiKind;

    #[test]
    fn dag_generation_is_deterministic_and_acyclic_by_construction() {
        let params = SpsolveParams::default();
        let a = Dag::build(&params, 4);
        let b = Dag::build(&params, 4);
        assert_eq!(a.indegree, b.indegree);
        assert_eq!(a.successors, b.successors);
        assert_eq!(a.len(), params.elements);
        assert!(a.edges() > 0);
        let remote = a
            .successors
            .iter()
            .enumerate()
            .any(|(e, succs)| succs.iter().any(|&s| a.owner[s as usize] != a.owner[e]));
        assert!(remote, "round-robin ownership must create remote edges");
        // Layered construction: every edge goes to a strictly larger element
        // index, so the graph cannot contain a cycle.
        for (e, succs) in a.successors.iter().enumerate() {
            for &s in succs {
                assert!((s as usize) > e);
            }
        }
    }

    #[test]
    fn paper_input_is_larger_than_the_scaled_default() {
        assert!(SpsolveParams::paper().elements > SpsolveParams::default().elements);
    }

    #[test]
    fn spsolve_completes_and_fires_every_element() {
        let params = SpsolveParams {
            elements: 128,
            layers: 8,
            avg_degree: 2,
            seed: 7,
        };
        let nodes = 4;
        let cfg = MachineConfig::isca96(nodes, NiKind::Cni512Q);
        let mut machine = Machine::new(cfg, programs(nodes, &params));
        let report = machine.run();
        assert!(report.completed, "spsolve did not complete");
        let mut fired = 0;
        for i in 0..nodes {
            let p = machine.program_as::<SpsolveProgram>(i).unwrap();
            assert_eq!(p.fired(), p.owned.len());
            fired += p.fired();
        }
        assert_eq!(fired, params.elements);
        assert!(
            report.fabric.messages > 0,
            "expected remote DAG edges to generate traffic"
        );
    }
}
