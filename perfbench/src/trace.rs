//! The traced run's instruments, all outside the simulator: a [`Program`]
//! decorator that counts and times the workload hooks and program clones of
//! one node, and an in-memory span log written out when the run ends.

use std::any::Any;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cni_core::machine::{ProcCtx, Program};
use cni_core::msg::AmMessage;

/// One node's hook and clone counters.
///
/// They live behind an `Arc` that the decorator and every checkpoint clone
/// of it share, so a rollback that restores a program clone does not erase
/// host work already spent. Each node has its own instance, padded to a
/// cache line, so the two shard threads never write the same line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct NodeHooks {
    calls: AtomicU64,
    hook_ns: AtomicU64,
    idle_calls: AtomicU64,
    idle_useful: AtomicU64,
    clones: AtomicU64,
    clone_ns: AtomicU64,
}

/// Adds `by` to a counter that only one thread writes at a time: a node's
/// hooks and clones run on the thread that currently owns its shard, and
/// shards change hands only across the executor's barrier. A plain load and
/// store therefore suffices, and avoids a locked add on every hook.
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl NodeHooks {
    fn hook(&self, start: Instant) {
        bump(&self.hook_ns, ns_since(start));
        bump(&self.calls, 1);
    }

    fn idle(&self, start: Instant, progressed: bool) {
        self.hook(start);
        bump(&self.idle_calls, 1);
        bump(&self.idle_useful, u64::from(progressed));
    }

    fn cloned(&self, start: Instant) {
        bump(&self.clone_ns, ns_since(start));
        bump(&self.clones, 1);
    }

    /// A snapshot of the counters, read after the run has finished.
    pub fn totals(&self) -> HookTotals {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        HookTotals {
            calls: read(&self.calls),
            hook_ns: read(&self.hook_ns),
            idle_calls: read(&self.idle_calls),
            idle_useful: read(&self.idle_useful),
            clones: read(&self.clones),
            clone_ns: read(&self.clone_ns),
        }
    }
}

/// Plain totals of one node's (or, summed, a machine's) [`NodeHooks`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HookTotals {
    /// `start`, `on_message` and `on_idle` calls.
    pub calls: u64,
    /// Host nanoseconds spent inside those calls.
    pub hook_ns: u64,
    /// `on_idle` calls.
    pub idle_calls: u64,
    /// `on_idle` calls that returned `true` (made progress).
    pub idle_useful: u64,
    /// `clone_box` calls (checkpoint snapshots and restores).
    pub clones: u64,
    /// Host nanoseconds spent inside them.
    pub clone_ns: u64,
}

impl HookTotals {
    /// Folds another node's totals into these.
    pub fn add(&mut self, other: &HookTotals) {
        self.calls += other.calls;
        self.hook_ns += other.hook_ns;
        self.idle_calls += other.idle_calls;
        self.idle_useful += other.idle_useful;
        self.clones += other.clones;
        self.clone_ns += other.clone_ns;
    }
}

/// Wraps a node's program and times every public call into it.
struct Traced {
    inner: Box<dyn Program>,
    hooks: Arc<NodeHooks>,
}

impl Program for Traced {
    fn start(&mut self, ctx: &mut ProcCtx<'_>) {
        let started = Instant::now();
        self.inner.start(ctx);
        self.hooks.hook(started);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: AmMessage) {
        let started = Instant::now();
        self.inner.on_message(ctx, msg);
        self.hooks.hook(started);
    }

    fn on_idle(&mut self, ctx: &mut ProcCtx<'_>) -> bool {
        let started = Instant::now();
        let progressed = self.inner.on_idle(ctx);
        self.hooks.idle(started, progressed);
        progressed
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn clone_box(&self) -> Box<dyn Program> {
        let started = Instant::now();
        let inner = self.inner.clone_box();
        self.hooks.cloned(started);
        Box::new(Traced {
            inner,
            hooks: Arc::clone(&self.hooks),
        })
    }
}

/// Wraps every program of a machine; returns the wrapped programs and the
/// per-node counters, in node order.
pub fn wrap(programs: Vec<Box<dyn Program>>) -> (Vec<Box<dyn Program>>, Vec<Arc<NodeHooks>>) {
    let hooks: Vec<Arc<NodeHooks>> = programs.iter().map(|_| Arc::default()).collect();
    let wrapped = programs
        .into_iter()
        .zip(&hooks)
        .map(|(inner, hooks)| {
            Box::new(Traced {
                inner,
                hooks: Arc::clone(hooks),
            }) as Box<dyn Program>
        })
        .collect();
    (wrapped, hooks)
}

/// One recorded interval: a call into a layer, timed from outside it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.Machine::run`.
    pub name: String,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-node hook totals attached to the `Machine::run` span that produced
/// them. Hooks are far too many to log one span each; their count and
/// summed duration are the per-node aggregate of those spans.
#[derive(Debug, Clone)]
pub struct NodeAggregate {
    /// Index of the `Machine::run` span.
    pub parent: usize,
    /// Node index.
    pub node: usize,
    /// That node's totals.
    pub totals: HookTotals,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    nodes: Vec<NodeAggregate>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            nodes: Vec::new(),
        }
    }
}

impl Trace {
    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its index (for use as a parent).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span that children can name as their parent; close it with
    /// [`Trace::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened with [`Trace::begin`].
    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.offset(Instant::now());
    }

    /// Attaches per-node hook totals to the run span `parent`.
    pub fn record_nodes(&mut self, parent: usize, hooks: &[Arc<NodeHooks>]) {
        self.nodes
            .extend(hooks.iter().enumerate().map(|(node, h)| NodeAggregate {
                parent,
                node,
                totals: h.totals(),
            }));
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as one JSON object; `header` holds extra leading members
    /// (without braces), e.g. the host record.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{{header},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                r#"{sep}{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"node_hooks\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let t = &n.totals;
            let _ = write!(
                out,
                r#"{sep}{{"parent":{},"node":{},"calls":{},"hook_ns":{},"idle_calls":{},"idle_useful":{},"clones":{},"clone_ns":{}}}"#,
                n.parent,
                n.node,
                t.calls,
                t.hook_ns,
                t.idle_calls,
                t.idle_useful,
                t.clones,
                t.clone_ns
            );
        }
        out.push_str("]}");
        out
    }
}
