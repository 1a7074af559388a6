//! The paper's primary contribution (§2–§3), packaged as a reusable library.
//!
//! *Coherent Network Interfaces for Fine-Grain Communication* (Mukherjee,
//! Falsafi, Hill, Wood — ISCA 1996) introduces two mechanisms for letting a
//! network interface talk to a processor through ordinary cache coherence:
//! **cachable device registers** (CDRs) and **cachable queues** (CQs)
//! optimised with lazy pointers, message valid bits and sense reverse. This
//! crate provides:
//!
//! * [`cq`] — a host-usable, cache-line-aligned single-producer
//!   single-consumer queue implementing exactly the CQ algorithm (valid
//!   bits + sense reverse + lazy shadow pointers), plus a single-slot
//!   CDR-style channel. These run on real shared memory and are
//!   independently useful.
//! * [`msg`] — the user-level messaging layer the simulated machines run:
//!   active messages and fragmentation/reassembly to 256-byte network
//!   messages. A message waits whole in the send buffer (`OutgoingMsg`),
//!   which cuts each fragment as the NI takes it; a fragment then stays one
//!   value to `Assembler::push`, and the NI queues hold it in between.
//! * [`machine`] — the full-machine simulation model: N nodes, each with a
//!   processor, a 256 KB MOESI cache, one of the five NI devices, memory and
//!   I/O buses and a latency-only network with sliding-window flow control.
//! * [`micro`] — the round-trip latency and bandwidth microbenchmarks of
//!   Figures 6 and 7.
//! * [`digest`] — the portable FNV-1a digests that pin simulated results
//!   (`SCALING_ref.txt`) and key the campaign result cache.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cq;
pub mod digest;
pub mod machine;
pub mod micro;
pub mod msg;
