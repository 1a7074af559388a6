//! Latency-sensitive RPC service workloads: request/response traffic
//! beyond the paper.
//!
//! The ISCA96 evaluation ranks NI designs by bulk-synchronous speedup; a
//! network interface serving interactive traffic is ranked by *tail
//! latency* under request/response load. This module provides the two
//! canonical load-generation disciplines over the same client/server
//! machine shape:
//!
//! | discipline | shape | what it measures |
//! |---|---|---|
//! | [`RpcMode::ClosedLoop`] | fixed clients, each waits for its response, thinks, repeats | latency under self-limiting load |
//! | [`RpcMode::OpenLoop`] | deterministic Poisson-like arrivals injected regardless of responses | latency under offered load, queueing included |
//!
//! The first [`RpcParams::servers`] nodes run a reactive server program
//! (reply to every request after [`RpcParams::service_cycles`] of work);
//! the remaining nodes are clients. Each request carries its send cycle in
//! the payload; the server echoes it back, and the client records
//! `now - sent_at` into the node's deterministic tail-latency histogram
//! via [`ProcCtx::record_request_latency`] — so per-request end-to-end
//! latency lands in [`cni_core::machine::NodeStats::request_latency`] and
//! inherits every cross-shard/lookahead bit-identity guarantee the report
//! already has.
//!
//! Like `synthetic.rs`, the whole schedule — server choice per request,
//! start stagger, open-loop arrival cycles — is precomputed by
//! [`RequestPlan::build`] from a [`DetRng`] seed. Open-loop inter-arrival
//! gaps are geometric draws (the discrete analogue of exponential
//! inter-arrivals, i.e. a Poisson-like process) sampled with integer-only
//! Bernoulli trials, so plans are bit-identical across hosts.

use std::any::Any;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::AmMessage;
use cni_net::message::NodeId;
use cni_sim::rng::DetRng;
use cni_sim::time::Cycle;

/// Handler id for an RPC request.
pub const H_REQUEST: u16 = 91;
/// Handler id for an RPC response.
pub const H_RESPONSE: u16 = 92;

/// How far an idle open-loop client advances its clock per hook call while
/// waiting for its next scheduled send. Bounding the jump keeps response
/// processing within one slice of its arrival instead of letting the
/// client's processor leap a whole inter-arrival gap ahead.
const IDLE_SLICE: Cycle = 50;

/// The two load-generation disciplines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RpcMode {
    /// A fixed set of clients; each sends one request, waits for the
    /// response, thinks for [`RpcParams::think_cycles`], then repeats.
    /// Load is self-limiting: a slow server slows the clients down.
    ClosedLoop,
    /// Requests are injected at precomputed Poisson-like arrival cycles
    /// regardless of outstanding responses, so server-side queueing shows
    /// up in the tail instead of throttling the offered load.
    OpenLoop,
}

impl RpcMode {
    /// The discipline's short name (used in workload tables).
    pub fn name(self) -> &'static str {
        match self {
            RpcMode::ClosedLoop => "closed-loop",
            RpcMode::OpenLoop => "open-loop",
        }
    }

    /// A stable per-mode seed tag (same scheme as the synthetic patterns:
    /// never derive the seed from a display string).
    fn seed_tag(self) -> u64 {
        match self {
            RpcMode::ClosedLoop => 1,
            RpcMode::OpenLoop => 2,
        }
    }
}

/// Parameters of one RPC workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RpcParams {
    /// Which load-generation discipline drives the clients.
    pub mode: RpcMode,
    /// Server fan-in: the first `servers` nodes run the server program
    /// (clamped to `nodes - 1` so there is always at least one client on
    /// machines with two or more nodes).
    pub servers: usize,
    /// Requests each client issues over the run.
    pub requests_per_client: usize,
    /// Request payload bytes.
    pub request_bytes: usize,
    /// Response payload bytes.
    pub response_bytes: usize,
    /// Closed-loop think time between a response and the next request.
    pub think_cycles: Cycle,
    /// Server computation charged per request before the response.
    pub service_cycles: Cycle,
    /// Open-loop mean inter-arrival gap in cycles (the geometric draw's
    /// mean; ignored by [`RpcMode::ClosedLoop`]).
    pub mean_interarrival: Cycle,
    /// Seed for the deterministic schedule draws.
    pub seed: u64,
}

impl Default for RpcParams {
    fn default() -> Self {
        RpcParams::closed()
    }
}

impl RpcParams {
    fn base(mode: RpcMode) -> Self {
        RpcParams {
            mode,
            servers: 2,
            requests_per_client: 16,
            request_bytes: 64,
            response_bytes: 128,
            think_cycles: 300,
            service_cycles: 150,
            mean_interarrival: 0,
            seed: 0x59C0_0000 | mode.seed_tag(),
        }
    }

    /// Closed-loop defaults: small requests, modest think time.
    pub fn closed() -> Self {
        Self::base(RpcMode::ClosedLoop)
    }

    /// Open-loop defaults: Poisson-like arrivals with a mean gap a bit
    /// above the expected service round trip, so queues form but drain.
    pub fn open() -> Self {
        RpcParams {
            think_cycles: 0,
            mean_interarrival: 400,
            ..Self::base(RpcMode::OpenLoop)
        }
    }

    /// The heavier variant used by the `paper` tier: 4× the requests.
    pub fn paper_scale(self) -> Self {
        RpcParams {
            requests_per_client: self.requests_per_client * 4,
            ..self
        }
    }

    /// Effective server count on a machine of `nodes` nodes.
    pub fn servers_for(&self, nodes: usize) -> usize {
        self.servers
            .clamp(1, nodes.saturating_sub(1).max(1))
            .min(nodes)
    }
}

/// The precomputed schedule of one RPC run.
#[derive(Debug)]
pub struct RequestPlan {
    /// Effective server count (nodes `0..servers` serve, the rest are
    /// clients).
    pub servers: usize,
    /// `targets[client][r]` = server node id of that client's request `r`.
    pub targets: Vec<Vec<usize>>,
    /// Per-client start stagger in cycles, so clients don't fire in
    /// lockstep at cycle zero.
    pub stagger: Vec<Cycle>,
    /// Open-loop only: `send_at[client][r]` = absolute cycle at which
    /// request `r` is injected (empty vectors for closed loop).
    pub send_at: Vec<Vec<Cycle>>,
    /// The parameters the plan was built from.
    pub params: RpcParams,
}

impl RequestPlan {
    /// Builds the full schedule deterministically from the seed.
    pub fn build(params: &RpcParams, nodes: usize) -> Arc<RequestPlan> {
        assert!(nodes > 0, "need at least one node");
        let servers = params.servers_for(nodes);
        let clients = nodes.saturating_sub(servers);
        let mut rng = DetRng::new(params.seed);
        let mut targets = Vec::with_capacity(clients);
        let mut stagger = Vec::with_capacity(clients);
        let mut send_at = Vec::with_capacity(clients);
        let spread = params
            .think_cycles
            .max(params.mean_interarrival)
            .max(IDLE_SLICE);
        for _client in 0..clients {
            targets.push(
                (0..params.requests_per_client)
                    .map(|_| rng.gen_index(servers))
                    .collect(),
            );
            let start = rng.gen_range(spread);
            stagger.push(start);
            if params.mode == RpcMode::OpenLoop {
                let mut at = start;
                send_at.push(
                    (0..params.requests_per_client)
                        .map(|_| {
                            at += geometric_gap(&mut rng, params.mean_interarrival);
                            at
                        })
                        .collect(),
                );
            } else {
                send_at.push(Vec::new());
            }
        }
        Arc::new(RequestPlan {
            servers,
            targets,
            stagger,
            send_at,
            params: *params,
        })
    }
}

/// A geometric inter-arrival gap with the given mean — the discrete
/// analogue of exponential (Poisson-process) inter-arrivals — sampled with
/// integer-only Bernoulli trials so the draw is bit-identical everywhere.
/// Capped at 8× the mean to bound the tail.
fn geometric_gap(rng: &mut DetRng, mean: Cycle) -> Cycle {
    let mean = mean.max(1);
    let p = 1.0 / mean as f64;
    let cap = mean * 8;
    let mut gap = 1;
    while gap < cap && !rng.gen_bool(p) {
        gap += 1;
    }
    gap
}

/// The reactive server program: replies to every request after charging
/// the configured service time. Never gates completion (`is_done` is
/// always `true`, like [`cni_core::machine::IdleProgram`]); the clients
/// decide when the run is over.
#[derive(Clone)]
pub struct RpcServer {
    plan: Arc<RequestPlan>,
    served: usize,
}

impl RpcServer {
    /// Creates the server program.
    pub fn new(plan: Arc<RequestPlan>) -> Self {
        RpcServer { plan, served: 0 }
    }

    /// Requests this server has answered.
    pub fn served(&self) -> usize {
        self.served
    }
}

impl Program for RpcServer {
    fn start(&mut self, _ctx: &mut ProcCtx<'_>) {}

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        debug_assert_eq!(msg.handler, H_REQUEST);
        self.served += 1;
        ctx.compute(self.plan.params.service_cycles);
        let client = msg.data[0] as usize;
        // Echo the client's payload (client id + send cycle) back.
        ctx.send_am(
            NodeId(client),
            H_RESPONSE,
            self.plan.params.response_bytes,
            msg.data,
        );
    }

    fn is_done(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// The client program, driving either discipline from the shared plan.
#[derive(Clone)]
pub struct RpcClient {
    me: usize,
    /// Index into the plan's client-ordinal arrays (`me - servers`).
    ordinal: usize,
    plan: Arc<RequestPlan>,
    sent: usize,
    responses: usize,
}

impl RpcClient {
    /// Creates the client program for node `me`.
    pub fn new(me: usize, plan: Arc<RequestPlan>) -> Self {
        let ordinal = me - plan.servers;
        RpcClient {
            me,
            ordinal,
            plan,
            sent: 0,
            responses: 0,
        }
    }

    /// Responses this client has received.
    pub fn responses(&self) -> usize {
        self.responses
    }

    fn total(&self) -> usize {
        self.plan.targets[self.ordinal].len()
    }

    fn send_request(&mut self, ctx: &mut ProcCtx<'_>) {
        let server = self.plan.targets[self.ordinal][self.sent];
        ctx.send_am(
            NodeId(server),
            H_REQUEST,
            self.plan.params.request_bytes,
            vec![self.me as u64, ctx.now()],
        );
        self.sent += 1;
    }

    /// Open-loop pacing: walk the clock toward the next scheduled send in
    /// bounded slices, injecting every request whose cycle has come.
    /// Returns whether the hook made progress.
    fn pace_open_loop(&mut self, ctx: &mut ProcCtx<'_>) -> bool {
        if self.sent >= self.total() {
            return false;
        }
        let due = self.plan.send_at[self.ordinal][self.sent];
        if ctx.now() >= due {
            self.send_request(ctx);
        } else {
            ctx.compute((due - ctx.now()).min(IDLE_SLICE));
        }
        true
    }
}

impl Program for RpcClient {
    fn start(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.total() == 0 {
            return;
        }
        match self.plan.params.mode {
            RpcMode::ClosedLoop => {
                ctx.compute(self.plan.stagger[self.ordinal]);
                self.send_request(ctx);
            }
            // Open-loop sends are driven entirely by the idle hook's
            // schedule walk (the stagger is folded into `send_at`).
            RpcMode::OpenLoop => {}
        }
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        debug_assert_eq!(msg.handler, H_RESPONSE);
        debug_assert_eq!(msg.data[0] as usize, self.me);
        let sent_at = msg.data[1];
        ctx.record_request_latency(ctx.now().saturating_sub(sent_at));
        self.responses += 1;
        if self.plan.params.mode == RpcMode::ClosedLoop && self.sent < self.total() {
            ctx.compute(self.plan.params.think_cycles);
            self.send_request(ctx);
        }
    }

    fn on_idle(&mut self, ctx: &mut ProcCtx<'_>) -> bool {
        match self.plan.params.mode {
            RpcMode::ClosedLoop => false,
            RpcMode::OpenLoop => self.pace_open_loop(ctx),
        }
    }

    fn is_done(&self) -> bool {
        self.responses >= self.total()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// Builds the per-node programs: servers on nodes `0..servers`, clients on
/// the rest.
pub fn programs(nodes: usize, params: &RpcParams) -> Vec<Box<dyn Program>> {
    let plan = RequestPlan::build(params, nodes);
    (0..nodes)
        .map(|i| {
            if i < plan.servers {
                Box::new(RpcServer::new(Arc::clone(&plan))) as Box<dyn Program>
            } else {
                Box::new(RpcClient::new(i, Arc::clone(&plan))) as Box<dyn Program>
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_core::machine::{Machine, MachineConfig};
    use cni_nic::taxonomy::NiKind;
    use cni_sim::stats::{LatencyHistogram, Merge};

    fn both_modes() -> [RpcParams; 2] {
        [RpcParams::closed(), RpcParams::open()]
    }

    #[test]
    fn plans_are_deterministic_and_target_servers_only() {
        for params in both_modes() {
            let a = RequestPlan::build(&params, 6);
            let b = RequestPlan::build(&params, 6);
            assert_eq!(a.targets, b.targets, "{}", params.mode.name());
            assert_eq!(a.send_at, b.send_at);
            assert_eq!(a.stagger, b.stagger);
            assert_eq!(a.servers, 2);
            let requests: usize = a.targets.iter().map(Vec::len).sum();
            assert_eq!(requests, 4 * params.requests_per_client);
            for per_client in &a.targets {
                assert!(per_client.iter().all(|&s| s < a.servers));
            }
        }
    }

    #[test]
    fn open_loop_schedules_are_strictly_increasing() {
        let plan = RequestPlan::build(&RpcParams::open(), 5);
        for (client, schedule) in plan.send_at.iter().enumerate() {
            assert_eq!(schedule.len(), plan.params.requests_per_client);
            for pair in schedule.windows(2) {
                assert!(pair[0] < pair[1], "client {client}: {pair:?}");
            }
        }
    }

    #[test]
    fn geometric_gaps_have_roughly_the_requested_mean() {
        let mut rng = DetRng::new(7);
        let mean = 200;
        let n = 4000u64;
        let total: u64 = (0..n).map(|_| geometric_gap(&mut rng, mean)).sum();
        let observed = total / n;
        assert!(
            (mean / 2..=mean * 2).contains(&observed),
            "observed mean {observed} vs requested {mean}"
        );
    }

    #[test]
    fn single_node_machines_are_silent_and_complete() {
        for params in both_modes() {
            let plan = RequestPlan::build(&params, 1);
            assert!(
                plan.targets.iter().all(Vec::is_empty),
                "{}",
                params.mode.name()
            );
            let cfg = MachineConfig::isca96(1, NiKind::Cni16Qm);
            let report = Machine::new(cfg, programs(1, &params)).run();
            assert!(report.completed);
            assert_eq!(report.fabric.messages, 0);
        }
    }

    #[test]
    fn every_mode_completes_and_records_latencies_on_a_small_machine() {
        for params in both_modes() {
            let nodes = 4;
            let cfg = MachineConfig::isca96(nodes, NiKind::Cni16Qm);
            let mut machine = Machine::new(cfg, programs(nodes, &params));
            let report = machine.run();
            assert!(report.completed, "{} did not complete", params.mode.name());
            let clients = nodes - 2;
            let expected = clients * params.requests_per_client;
            let total =
                LatencyHistogram::merged(report.node_stats.iter().map(|s| s.request_latency));
            assert_eq!(
                total.count() as usize,
                expected,
                "{}: every request must record exactly one latency",
                params.mode.name()
            );
            assert!(total.max() > 0, "{}", params.mode.name());
            assert!(
                total.quantile_permille(500) <= total.quantile_permille(990),
                "{}",
                params.mode.name()
            );
            // Servers answered everything, clients saw everything.
            let served: usize = (0..2)
                .map(|i| machine.program_as::<RpcServer>(i).unwrap().served())
                .sum();
            assert_eq!(served, expected, "{}", params.mode.name());
            for i in 2..nodes {
                let c = machine.program_as::<RpcClient>(i).unwrap();
                assert_eq!(c.responses(), params.requests_per_client);
            }
            // Only clients record latencies, and only into their own node.
            for (i, stats) in report.node_stats.iter().enumerate() {
                if i < 2 {
                    assert!(stats.request_latency.is_empty(), "server {i} recorded");
                } else {
                    assert_eq!(
                        stats.request_latency.count() as usize,
                        params.requests_per_client
                    );
                }
            }
        }
    }

    #[test]
    fn latencies_grow_when_the_server_gets_slower() {
        let fast = RpcParams::closed();
        let slow = RpcParams {
            service_cycles: fast.service_cycles * 40,
            ..fast
        };
        let run = |params: &RpcParams| {
            let cfg = MachineConfig::isca96(4, NiKind::Cni16Qm);
            let report = Machine::new(cfg, programs(4, params)).run();
            assert!(report.completed);
            LatencyHistogram::merged(report.node_stats.iter().map(|s| s.request_latency))
        };
        let fast_h = run(&fast);
        let slow_h = run(&slow);
        assert!(
            slow_h.quantile_permille(500) > fast_h.quantile_permille(500),
            "median must reflect service time: fast {} vs slow {}",
            fast_h.quantile_permille(500),
            slow_h.quantile_permille(500)
        );
    }
}
