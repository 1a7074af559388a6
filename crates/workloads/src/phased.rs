//! The bulk-synchronous program skeleton shared by the phased workloads.
//!
//! em3d, unstructured, dsmc, barnes, appbt, moldyn and the synthetic
//! patterns run the same loop on every node: compute, send the phase's
//! messages, wait for the phase's expected arrivals, advance. [`Phased`] is
//! that loop; a workload supplies only its plan, an implementation of
//! [`Phases`].
//!
//! An arrival carries its phase in `data[0]` and is counted for that phase,
//! so a message from a node that has run ahead waits for the phase it
//! belongs to instead of completing the current one early.

use std::any::Any;
use std::collections::HashMap;

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::{AmMessage, HandlerId};

/// One node's share of a bulk-synchronous workload, phase by phase.
pub trait Phases: Clone + Send + 'static {
    /// The handler of the messages a phase waits for. Their `data[0]` is the
    /// phase they belong to.
    const ARRIVAL: HandlerId;

    /// Number of phases.
    fn count(&self) -> usize;

    /// Charges node `me`'s computation for `phase` and sends the phase's
    /// messages.
    fn send(&self, me: usize, phase: usize, ctx: &mut ProcCtx<'_>);

    /// The `ARRIVAL` messages node `me` waits for before `phase` completes.
    fn expected(&self, me: usize, phase: usize) -> usize;

    /// Runs when a phase's arrivals are all in, before the next phase
    /// starts.
    fn complete(&self, _ctx: &mut ProcCtx<'_>) {}

    /// Handles a message that is not an `ARRIVAL` (a request to answer).
    fn serve(&mut self, _ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        panic!("unexpected handler {}", msg.handler);
    }
}

/// The per-node program of a bulk-synchronous workload.
#[derive(Clone)]
pub struct Phased<P> {
    me: usize,
    plan: P,
    phase: usize,
    sent: bool,
    /// `ARRIVAL` messages received per phase, for the current phase and
    /// any later one a node that runs ahead has already reached.
    arrivals: HashMap<usize, usize>,
}

impl<P: Phases> Phased<P> {
    /// Creates the program for node `me`.
    pub fn new(me: usize, plan: P) -> Self {
        Phased {
            me,
            plan,
            phase: 0,
            sent: false,
            arrivals: HashMap::new(),
        }
    }

    /// Completed phases.
    pub fn phases_done(&self) -> usize {
        self.phase
    }

    /// The node's plan.
    pub fn plan(&self) -> &P {
        &self.plan
    }

    /// Sends the current phase's messages if that is still to do, and
    /// moves on through every phase whose arrivals are all in.
    fn advance(&mut self, ctx: &mut ProcCtx<'_>) {
        while self.phase < self.plan.count() {
            if !self.sent {
                self.plan.send(self.me, self.phase, ctx);
                self.sent = true;
            }
            let got = self.arrivals.get(&self.phase).copied().unwrap_or(0);
            if got < self.plan.expected(self.me, self.phase) {
                return;
            }
            self.arrivals.remove(&self.phase);
            self.plan.complete(ctx);
            self.phase += 1;
            self.sent = false;
        }
    }
}

impl<P: Phases> Program for Phased<P> {
    fn start(&mut self, ctx: &mut ProcCtx<'_>) {
        self.advance(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        if msg.handler == P::ARRIVAL {
            *self.arrivals.entry(msg.data[0] as usize).or_insert(0) += 1;
            self.advance(ctx);
        } else {
            self.plan.serve(ctx, msg);
        }
    }

    fn is_done(&self) -> bool {
        self.phase >= self.plan.count()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// Builds one [`Phased`] program per node from each node's plan.
pub fn programs<P: Phases>(
    nodes: usize,
    mut plan: impl FnMut(usize) -> P,
) -> Vec<Box<dyn Program>> {
    (0..nodes)
        .map(|me| Box::new(Phased::new(me, plan(me))) as Box<dyn Program>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use cni_core::machine::{Machine, MachineConfig};
    use cni_net::message::NodeId;
    use cni_nic::taxonomy::NiKind;
    use cni_sim::time::Cycle;

    const PHASES: usize = 4;
    const SLOW: Cycle = 100_000;

    /// Nodes 1 and 2 each send node 0 one message a phase and wait for
    /// nothing; node 2 computes `SLOW` cycles before each. Node 0 sends
    /// nothing and waits for both, so node 1's arrivals for phases 1–3
    /// reach it while its phase 0 still waits on node 2. Every phase start
    /// is logged as (node, phase, cycle).
    #[derive(Clone, Default)]
    struct Toy(Arc<Mutex<Vec<(usize, usize, Cycle)>>>);

    impl Phases for Toy {
        const ARRIVAL: HandlerId = 7;

        fn count(&self) -> usize {
            PHASES
        }

        fn send(&self, me: usize, phase: usize, ctx: &mut ProcCtx<'_>) {
            self.0.lock().unwrap().push((me, phase, ctx.now()));
            if me == 2 {
                ctx.compute(SLOW);
            }
            if me != 0 {
                ctx.send_am(NodeId(0), Self::ARRIVAL, 12, vec![phase as u64]);
            }
        }

        fn expected(&self, me: usize, _phase: usize) -> usize {
            if me == 0 {
                2
            } else {
                0
            }
        }
    }

    #[test]
    fn arrivals_from_a_node_running_ahead_count_for_their_own_phase() {
        let nodes = 3;
        let toy = Toy::default();
        let programs = programs(nodes, |_| toy.clone());
        let mut machine = Machine::new(MachineConfig::isca96(nodes, NiKind::Cni16Qm), programs);
        let report = machine.run();
        assert!(report.completed, "the toy plan did not complete");
        for i in 0..nodes {
            let p = machine.program_as::<Phased<Toy>>(i).unwrap();
            assert_eq!(p.phases_done(), PHASES, "node {i}");
        }
        assert_eq!(report.fabric.messages, (2 * PHASES) as u64);
        // Node 0 starts phase p only once node 2's phase p - 1 message,
        // sent `SLOW` cycles after node 2 started that phase, is in.
        let log = toy.0.lock().unwrap();
        let start = |node, phase| log.iter().find(|e| (e.0, e.1) == (node, phase)).unwrap().2;
        for phase in 1..PHASES {
            assert!(
                start(0, phase) > start(2, phase - 1) + SLOW,
                "node 0 started phase {phase} before node 2's phase {} message",
                phase - 1
            );
        }
    }
}
