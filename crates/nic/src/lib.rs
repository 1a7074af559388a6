//! Network-interface device models for the CNI (ISCA 1996) reproduction.
//!
//! The paper evaluates five NI designs (Table 1):
//!
//! | device    | exposed queue              | pointers | home        |
//! |-----------|----------------------------|----------|-------------|
//! | `NI2w`    | 2 uncached words           | —        | device FIFO |
//! | `CNI4`    | 4 cache blocks (CDRs)      | —        | device      |
//! | `CNI16Q`  | 16-block cachable queue    | explicit | device      |
//! | `CNI512Q` | 512-block cachable queue   | explicit | device      |
//! | `CNI16Qm` | 16-block device cache over a 512-block queue | explicit | main memory |
//!
//! Every device implements [`device::NiDevice`], which separates the
//! *processor-side* operations (send, poll, receive — executed in program
//! order by the simulated processor and charged against the node's
//! [`cni_mem::system::NodeMemSystem`]) from the *device-side* operations
//! (pulling send-queue entries for injection, accepting arriving network
//! messages — driven by the machine's event loop).
//!
//! The devices' queues hold the fragments themselves: every device is
//! generic over a fragment type that reports its byte count
//! ([`frag::Payload`]), a fragment moves in on a send or delivery and out on
//! injection or receive, and a refused send or delivery hands it back.
//!
//! The taxonomy itself ([`taxonomy::NiKind`]) is reused by the machine
//! model, the benchmark harness and the documentation.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdr;
pub mod cniq;
pub mod cq_model;
pub mod device;
pub mod frag;
pub mod ni2w;
pub mod taxonomy;

pub use cdr::Cni4Device;
pub use cniq::CniQDevice;
pub use device::{DeliverOutcome, NiDevice, PollOutcome, ReceiveOutcome, SendOutcome};
pub use frag::Payload;
pub use ni2w::Ni2wDevice;
pub use taxonomy::{NiKind, NiSpec, QueueHome, QueuePointers};
