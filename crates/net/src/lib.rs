//! Network fabric for the CNI (ISCA 1996) reproduction.
//!
//! The paper deliberately keeps the network simple (§4.1): topology is
//! ignored, network messages are a fixed 256 bytes (12 bytes of which are
//! header), every message takes 100 processor cycles from the injection of
//! its last byte at the source to the arrival of its first byte at the
//! destination, and flow control is a per-destination sliding window of four
//! unacknowledged messages enforced in hardware at the end points.
//!
//! This crate provides those pieces but the latency, which the machine model
//! adds itself (`TIMING.network_latency`): there is no fabric component.
//!
//! * [`message`] — node identifiers, the fixed network-message format and
//!   fragmentation helpers.
//! * [`window`] — the per-destination sliding-window flow control.
//! * [`fabric`] — the network's traffic statistics.
//! * [`faults`] — deterministic fault injection (drop / corrupt / duplicate
//!   / delay / per-node outages) applied to each injected message, with
//!   per-message verdicts that are a pure function of the message stamp.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod faults;
pub mod message;
pub mod window;

pub use fabric::FabricStats;
pub use faults::{FailWindow, FaultConfig, FaultDecision, FaultPlan};
pub use message::{
    fragments_for_bytes, NodeId, NET_HEADER_BYTES, NET_MESSAGE_BYTES, NET_PAYLOAD_BYTES,
};
pub use window::SlidingWindow;
