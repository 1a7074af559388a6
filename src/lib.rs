//! Facade crate for the coherent network interface (CNI) reproduction.
//!
//! This crate re-exports the workspace crates so that examples, integration
//! tests and downstream users can depend on a single package:
//!
//! * [`sim`] — discrete-event simulation engine.
//! * [`mem`] — MOESI caches, buses and the Table 2 memory timing.
//! * [`net`] — network fabric and sliding-window flow control.
//! * [`nic`] — the five network-interface device models and the taxonomy.
//! * [`core`] — cachable queues / device registers, the machine model and the
//!   user-level messaging layer.
//! * [`workloads`] — the five macrobenchmarks of the paper.
//!
//! # Quick start
//!
//! The doctested example below is `examples/quickstart.rs` in miniature —
//! `cargo test -q` runs it, so the public API surface it exercises cannot
//! rot. It compares one coherent NI against the conventional uncached
//! `NI2w` on the paper's two microbenchmarks (Figures 6 and 7): coherent
//! NIs move whole 64-byte cache blocks per bus transaction and poll in the
//! cache, so they win on both metrics (§5.1).
//!
//! ```
//! use cni::core::machine::MachineConfig;
//! use cni::core::micro::{
//!     round_trip_latency, stream_bandwidth, BandwidthParams, LatencyParams,
//! };
//! use cni::nic::NiKind;
//!
//! let latency = LatencyParams { message_bytes: 64, iterations: 8 };
//! let bandwidth = BandwidthParams { message_bytes: 2048, messages: 16 };
//!
//! let ni2w = MachineConfig::isca96(2, NiKind::Ni2w);
//! let cni = MachineConfig::isca96(2, NiKind::Cni512Q);
//!
//! let ni2w_lat = round_trip_latency(&ni2w, &latency);
//! let cni_lat = round_trip_latency(&cni, &latency);
//! assert!(cni_lat.round_trip_micros < ni2w_lat.round_trip_micros);
//!
//! let ni2w_bw = stream_bandwidth(&ni2w, &bandwidth);
//! let cni_bw = stream_bandwidth(&cni, &bandwidth);
//! assert!(cni_bw.mbytes_per_sec > ni2w_bw.mbytes_per_sec);
//! ```
//!
//! Full machine runs drive one [`core::machine::Program`] per node through
//! the discrete-event loop; [`core::machine::ShardPolicy::Auto`] picks the
//! fastest execution layout for the host without changing a single
//! simulated number:
//!
//! ```
//! use cni::core::machine::{Machine, MachineConfig, ShardPolicy};
//! use cni::nic::NiKind;
//! use cni::workloads::{Workload, WorkloadParams};
//!
//! let params = WorkloadParams::tiny();
//! let programs = Workload::Spsolve.programs(4, &params);
//! let cfg = MachineConfig::isca96(4, NiKind::Cni16Qm).with_shards(ShardPolicy::Auto);
//! let report = Machine::new(cfg, programs).run();
//! assert!(report.completed);
//! assert!(report.fabric.messages > 0);
//!
//! // Sharding is a simulator-performance knob, never a results knob.
//! let single = Machine::new(
//!     MachineConfig::isca96(4, NiKind::Cni16Qm),
//!     Workload::Spsolve.programs(4, &params),
//! )
//! .run();
//! assert_eq!(report, single);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cni_core as core;
pub use cni_mem as mem;
pub use cni_net as net;
pub use cni_nic as nic;
pub use cni_sim as sim;
pub use cni_workloads as workloads;
