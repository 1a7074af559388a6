//! Memory-system substrate for the CNI (ISCA 1996) reproduction.
//!
//! The paper's evaluation hinges on how processor ↔ network-interface
//! communication exercises the node's memory system: uncached device-register
//! accesses versus coherent cache-block transfers over the memory bus or a
//! coherent I/O bus. This crate provides that substrate:
//!
//! * [`addr`] — block addresses, block geometry and homes.
//! * [`moesi`] — a direct-mapped, write-allocate MOESI cache model with
//!   snooping (duplicate-tag behaviour is implicit: snoops never stall the
//!   processor in this model).
//! * [`timing`] — the Table 2 bus-occupancy cost model, [`TIMING`].
//! * [`bus`] — a single-outstanding-transaction bus as a timeline resource
//!   that totals its busy cycles.
//! * [`system`] — [`system::NodeMemSystem`], which composes the above into
//!   the per-node memory system the NI device models drive. It charges every
//!   bus transaction through one path, and the §4.1 memory-bus ↔ I/O-bus
//!   bridge (buffered writes, blocking reads, NACKs) is that path's bridged
//!   route.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bus;
pub mod moesi;
pub mod system;
pub mod timing;

pub use addr::{BlockAddr, BlockHome, CACHE_BLOCK_BYTES};
pub use bus::Bus;
pub use moesi::{Cache, MoesiState, SnoopAction};
pub use system::{DeviceLocation, NodeMemConfig, NodeMemSystem};
pub use timing::{TimingConfig, TIMING};
