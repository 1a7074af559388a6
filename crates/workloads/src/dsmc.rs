//! `dsmc`: direct simulation Monte Carlo of rarefied gas flow (§4.2).
//!
//! Space is divided into cells distributed across processors; on every
//! timestep a fraction of each processor's particles drifts across a cell
//! boundary into a neighbouring processor's domain. The skeleton reproduces
//! that as one bulk migration message per neighbour per timestep — a ring of
//! variable-size transfers whose byte counts are drawn deterministically per
//! (timestep, direction), so traffic intensity fluctuates over time the way
//! the real application's does.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::HandlerId;
use cni_net::message::NodeId;
use cni_sim::rng::DetRng;
use cni_sim::time::Cycle;

use crate::phased::{self, Phased, Phases};

/// Handler id for a particle-migration batch.
pub const H_MIGRATE: u16 = 70;

/// Parameters of the dsmc workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DsmcParams {
    /// Number of spatial cells (drives the per-step collision cost).
    pub cells: usize,
    /// Average particles per cell.
    pub particles_per_cell: usize,
    /// Number of timesteps.
    pub iterations: usize,
    /// Mean fraction of a processor's particles that migrates per step.
    pub migrate_fraction: f64,
    /// Bytes per migrating particle record (position, velocity, species).
    pub particle_bytes: usize,
    /// Cycles of move/collide computation per cell per step.
    pub compute_per_cell: Cycle,
    /// Seed for the deterministic migration draws.
    pub seed: u64,
}

impl Default for DsmcParams {
    fn default() -> Self {
        DsmcParams {
            cells: 64,
            particles_per_cell: 8,
            iterations: 4,
            migrate_fraction: 0.08,
            particle_bytes: 48,
            compute_per_cell: 30,
            seed: 0xD5AC,
        }
    }
}

impl DsmcParams {
    /// A paper-scale input: 2048 cells × 24 particles (≈ 49 K particles),
    /// 10 timesteps.
    pub fn paper() -> Self {
        DsmcParams {
            cells: 2048,
            particles_per_cell: 24,
            iterations: 10,
            migrate_fraction: 0.08,
            particle_bytes: 48,
            compute_per_cell: 30,
            seed: 0xD5AC,
        }
    }
}

/// The deterministic migration schedule: per (timestep, processor), how many
/// particles leave toward each ring neighbour, and how many bulk messages
/// each processor expects to receive.
#[derive(Debug)]
pub struct DsmcSchedule {
    /// `migrants[step][node]` = (to the right neighbour, to the left).
    pub migrants: Vec<Vec<(usize, usize)>>,
    /// `expected_in[step][node]` = migration messages arriving that step.
    pub expected_in: Vec<Vec<usize>>,
    /// Cells owned by each processor.
    pub owned_cells: Vec<usize>,
}

impl DsmcSchedule {
    /// Builds the migration schedule deterministically from the seed.
    pub fn build(params: &DsmcParams, nodes: usize) -> Arc<DsmcSchedule> {
        assert!(nodes > 0, "need at least one processor");
        let mut rng = DetRng::new(params.seed);
        let mut owned_cells = vec![0usize; nodes];
        for c in 0..params.cells {
            owned_cells[c % nodes] += 1;
        }
        let mut migrants = Vec::with_capacity(params.iterations);
        let mut expected_in = Vec::with_capacity(params.iterations);
        for _step in 0..params.iterations {
            let mut step_migrants = vec![(0usize, 0usize); nodes];
            let mut step_expected = vec![0usize; nodes];
            if nodes > 1 {
                for (node, out) in step_migrants.iter_mut().enumerate() {
                    let particles = owned_cells[node] * params.particles_per_cell;
                    let mean = particles as f64 * params.migrate_fraction;
                    // 0.5×–1.5× jitter around the mean, split between the two
                    // directions — bursty steps and quiet steps both occur.
                    let total = (mean * (0.5 + rng.gen_f64())).round() as usize;
                    let right = rng.gen_index(total + 1);
                    *out = (right, total - right);
                    if out.0 > 0 {
                        step_expected[(node + 1) % nodes] += 1;
                    }
                    if out.1 > 0 {
                        step_expected[(node + nodes - 1) % nodes] += 1;
                    }
                }
            }
            migrants.push(step_migrants);
            expected_in.push(step_expected);
        }
        Arc::new(DsmcSchedule {
            migrants,
            expected_in,
            owned_cells,
        })
    }
}

/// One node's dsmc plan: move and collide the local particles, then ship
/// the step's migrants to the two ring neighbours.
#[derive(Clone)]
pub struct Dsmc {
    nodes: usize,
    schedule: Arc<DsmcSchedule>,
    params: DsmcParams,
}

impl Phases for Dsmc {
    const ARRIVAL: HandlerId = H_MIGRATE;

    fn count(&self) -> usize {
        self.params.iterations
    }

    fn send(&self, me: usize, step: usize, ctx: &mut ProcCtx<'_>) {
        ctx.compute(self.schedule.owned_cells[me] as Cycle * self.params.compute_per_cell);
        let (right, left) = self.schedule.migrants[step][me];
        for (count, dst) in [
            (right, (me + 1) % self.nodes),
            (left, (me + self.nodes - 1) % self.nodes),
        ] {
            if count > 0 {
                ctx.send_am(
                    NodeId(dst),
                    H_MIGRATE,
                    count * self.params.particle_bytes,
                    vec![step as u64, count as u64],
                );
            }
        }
    }

    fn expected(&self, me: usize, step: usize) -> usize {
        self.schedule.expected_in[step][me]
    }

    fn complete(&self, ctx: &mut ProcCtx<'_>) {
        // Insert the arrivals into the local cell lists.
        ctx.compute(20);
    }
}

/// The per-processor dsmc program.
pub type DsmcProgram = Phased<Dsmc>;

/// Builds one dsmc program per node.
pub fn programs(nodes: usize, params: &DsmcParams) -> Vec<Box<dyn Program>> {
    let plan = Dsmc {
        nodes,
        schedule: DsmcSchedule::build(params, nodes),
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
    fn schedule_is_deterministic_and_fluctuates_over_time() {
        let params = DsmcParams::default();
        let a = DsmcSchedule::build(&params, 4);
        let b = DsmcSchedule::build(&params, 4);
        assert_eq!(a.migrants, b.migrants);
        assert_eq!(a.owned_cells.iter().sum::<usize>(), params.cells);
        // The per-step totals should not all be equal — the jitter is the
        // point of the schedule.
        let per_step: Vec<usize> = a
            .migrants
            .iter()
            .map(|step| step.iter().map(|&(r, l)| r + l).sum())
            .collect();
        assert!(per_step.iter().sum::<usize>() > 0);
        assert!(
            per_step.windows(2).any(|w| w[0] != w[1]),
            "per-step migrant totals {per_step:?} should fluctuate"
        );
    }

    #[test]
    fn single_processor_runs_have_no_migration() {
        let s = DsmcSchedule::build(&DsmcParams::default(), 1);
        assert!(s.migrants.iter().flatten().all(|&m| m == (0, 0)));
    }

    #[test]
    fn dsmc_completes_every_timestep() {
        let params = DsmcParams {
            cells: 32,
            iterations: 3,
            ..DsmcParams::default()
        };
        let nodes = 4;
        let cfg = MachineConfig::isca96(nodes, NiKind::Cni16Qm);
        let mut machine = Machine::new(cfg, programs(nodes, &params));
        let report = machine.run();
        assert!(report.completed, "dsmc did not complete");
        for i in 0..nodes {
            let p = machine.program_as::<DsmcProgram>(i).unwrap();
            assert_eq!(p.phases_done(), params.iterations);
        }
    }

    #[test]
    fn paper_input_is_larger_than_default() {
        let paper = DsmcParams::paper();
        let scaled = DsmcParams::default();
        assert!(paper.cells * paper.particles_per_cell > scaled.cells * scaled.particles_per_cell);
    }
}
