//! `gauss`: Gaussian elimination with pivot-row broadcast (§4.2).
//!
//! The key communication pattern is a one-to-all broadcast of the pivot row
//! (two kilobytes for the paper's 512×512 matrix) at every elimination step.
//! Rows are distributed round-robin; the owner of row `k` broadcasts it once
//! it has applied pivot `k − 1`, and every processor eliminates its own rows
//! below the pivot before accepting the next one.

use std::any::Any;

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::AmMessage;
use cni_sim::time::Cycle;

/// Handler id for a pivot-row broadcast.
pub const H_PIVOT: u16 = 20;

/// Parameters of the gauss workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaussParams {
    /// Matrix dimension (number of pivot steps).
    pub n: usize,
    /// Bytes broadcast per pivot row (2 KB for the paper's matrix).
    pub row_bytes: usize,
    /// Cycles of elimination work per owned row per pivot.
    pub eliminate_cost_per_row: Cycle,
}

impl Default for GaussParams {
    fn default() -> Self {
        GaussParams {
            n: 64,
            row_bytes: 2048,
            eliminate_cost_per_row: 256,
        }
    }
}

impl GaussParams {
    /// The paper's input: a 512×512 matrix with 2 KB pivot rows.
    pub fn paper() -> Self {
        GaussParams {
            n: 512,
            row_bytes: 2048,
            eliminate_cost_per_row: 256,
        }
    }
}

/// The per-processor gauss program.
#[derive(Clone)]
pub struct GaussProgram {
    me: usize,
    nodes: usize,
    params: GaussParams,
    /// Pivots fully processed by this node.
    pivots_done: usize,
    /// Pivot broadcasts that arrived ahead of order (rare, but possible when
    /// flow control delays an earlier broadcast's fragments).
    pending: std::collections::BTreeSet<usize>,
}

impl GaussProgram {
    /// Creates the program for processor `me` of `nodes`.
    pub fn new(me: usize, nodes: usize, params: GaussParams) -> Self {
        GaussProgram {
            me,
            nodes,
            params,
            pivots_done: 0,
            pending: std::collections::BTreeSet::new(),
        }
    }

    /// Pivot steps this node has completed.
    pub fn pivots_done(&self) -> usize {
        self.pivots_done
    }

    fn owns(&self, row: usize) -> bool {
        row % self.nodes == self.me
    }

    /// Rows this node owns that still lie below pivot `k`.
    fn owned_rows_below(&self, k: usize) -> usize {
        (k + 1..self.params.n).filter(|&r| self.owns(r)).count()
    }

    /// Applies every pivot that is ready, in order. A pivot is ready once all
    /// earlier pivots have been applied; if this node owns the following row
    /// it broadcasts it and applies it locally (the broadcaster does not
    /// receive its own broadcast).
    fn process_ready_pivots(&mut self, ctx: &mut ProcCtx<'_>) {
        while self.pending.remove(&self.pivots_done) {
            let k = self.pivots_done;
            let rows = self.owned_rows_below(k) as Cycle;
            ctx.compute(rows * self.params.eliminate_cost_per_row);
            self.pivots_done += 1;
            let next = k + 1;
            if next < self.params.n && self.owns(next) {
                ctx.broadcast(AmMessage::new(
                    H_PIVOT,
                    self.params.row_bytes,
                    vec![next as u64],
                ));
                self.pending.insert(next);
            }
        }
    }
}

impl Program for GaussProgram {
    fn start(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.owns(0) && self.params.n > 0 {
            ctx.broadcast(AmMessage::new(H_PIVOT, self.params.row_bytes, vec![0]));
            self.pending.insert(0);
            self.process_ready_pivots(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        debug_assert_eq!(msg.handler, H_PIVOT);
        let k = msg.data[0] as usize;
        self.pending.insert(k);
        self.process_ready_pivots(ctx);
    }

    fn is_done(&self) -> bool {
        self.pivots_done >= self.params.n
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// Builds one gauss program per node.
pub fn programs(nodes: usize, params: &GaussParams) -> Vec<Box<dyn Program>> {
    (0..nodes)
        .map(|i| Box::new(GaussProgram::new(i, nodes, *params)) as Box<dyn Program>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::machine::{Machine, MachineConfig};
    use cni_net::message::fragments_for_bytes;
    use cni_nic::taxonomy::NiKind;

    #[test]
    fn every_node_processes_every_pivot() {
        let params = GaussParams {
            n: 16,
            row_bytes: 2048,
            eliminate_cost_per_row: 64,
        };
        let nodes = 4;
        let cfg = MachineConfig::isca96(nodes, NiKind::Cni512Q);
        let mut machine = Machine::new(cfg, programs(nodes, &params));
        let report = machine.run();
        assert!(report.completed, "gauss did not complete");
        for i in 0..nodes {
            let p = machine.program_as::<GaussProgram>(i).unwrap();
            assert_eq!(p.pivots_done(), params.n);
        }
        // Every pivot is broadcast to the other (nodes - 1) processors, each
        // broadcast fragmenting into ceil(2048 / 244) network messages.
        let expected =
            (params.n as u64) * (nodes as u64 - 1) * fragments_for_bytes(params.row_bytes) as u64;
        assert_eq!(report.fabric.messages, expected);
    }

    #[test]
    fn paper_input_is_larger_than_default() {
        assert!(GaussParams::paper().n > GaussParams::default().n);
    }
}
