//! The macrobenchmarks of the CNI paper (§4.2, Table 3) plus synthetic
//! traffic patterns.
//!
//! The paper's evaluation spans eight applications; each is reimplemented
//! here as its *communication skeleton*: the message sizes, fan-out,
//! dependence structure and burstiness of the original, with the
//! computation charged as cycles.
//!
//! | benchmark | key communication       | paper input              |
//! |-----------|--------------------------|--------------------------|
//! | spsolve   | fine-grain messages (12 B payload) down a DAG | 3720 elements |
//! | gauss     | one-to-all broadcast of a 2 KB pivot row        | 512×512 matrix |
//! | em3d      | fine-grain updates (12 B payload) over a bipartite graph | 1 K nodes, degree 5, 10 % remote, 10 iterations |
//! | moldyn    | bulk reduction: 1.5 KB to a neighbour, P steps per reduction | 2048 particles, 30 iterations |
//! | appbt     | near-neighbour exchange of 128-byte shared-memory blocks | 24³ cube, 4 iterations |
//! | barnes    | tree-cell request/response with top-of-tree contention | 16 K bodies, 4 iterations |
//! | dsmc      | variable-size bulk ring migration per timestep | 2048 cells × 24 particles, 10 steps |
//! | unstructured | irregular halo exchange over an imbalanced mesh partition | ~9.4 K vertices, 8 sweeps |
//!
//! Beyond the paper, the [`synthetic`] module generates five parameterized
//! traffic patterns (uniform-random, hotspot, nearest-neighbour ring,
//! all-to-all, bursty on/off) through the same [`Program`] interface, so
//! NI results can be checked against the whole pattern space, not just the
//! application sample. The [`rpc`] module adds two latency-sensitive
//! request/response service workloads (closed-loop with think time,
//! open-loop with deterministic Poisson-like arrivals) whose figure of
//! merit is the end-to-end tail-latency histogram rather than bulk
//! speedup.
//!
//! Six of the applications and every synthetic pattern are bulk-synchronous
//! (compute, send, wait for the phase's arrivals), so they share one
//! program, [`phased::Phased`], and keep only their per-phase plans. gauss
//! (a pivot pipeline), spsolve (DAG firing) and rpc (a service loop) write
//! their own [`Program`]s.
//!
//! Every workload is deterministic for a given seed and node count, and
//! every workload's full paper-scale input is available alongside a
//! scaled-down default that keeps simulation times reasonable. The
//! [`registry`] module is the single source of truth: one macro invocation
//! defines the [`Workload`] enum, its name table and its program dispatch.
//!
//! [`Program`]: cni_core::machine::Program
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appbt;
pub mod barnes;
pub mod dsmc;
pub mod em3d;
pub mod gauss;
pub mod moldyn;
pub mod phased;
pub mod registry;
pub mod rpc;
pub mod spsolve;
pub mod synthetic;
pub mod unstructured;

pub use registry::{
    ParamsTier, UnknownTier, UnknownWorkload, Workload, WorkloadClass, WorkloadParams,
};
pub use rpc::{RpcMode, RpcParams};
pub use synthetic::{SyntheticParams, SyntheticPattern};
