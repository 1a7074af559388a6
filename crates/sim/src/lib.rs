//! Discrete-event simulation engine for the CNI (ISCA 1996) reproduction.
//!
//! This is the methodology layer (§4 of the paper): the paper's results come
//! from a cycle-level discrete-event simulation, and this crate is that
//! engine — including the conservative-PDES shard driver ([`sharded`]) that
//! lets the reproduction scale past the paper's 16-node machines without
//! changing a single simulated result, and the fork-join job pool ([`pool`])
//! the campaign runner uses to execute independent experiments concurrently.
//!
//! This crate is deliberately free of any architecture-specific knowledge: it
//! provides the time base ([`time::Cycle`]), an ordered event queue
//! ([`event::EventQueue`]), statistic primitives ([`stats`]) and a
//! deterministic random-number generator ([`rng::DetRng`]). The memory
//! system, network and NI device models in the sibling crates are built on
//! top of these primitives.
//!
//! # Example
//!
//! ```
//! use cni_sim::event::EventQueue;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(10, Ev::Pong);
//! q.schedule(5, Ev::Ping);
//! assert_eq!(q.pop(), Some((5, Ev::Ping)));
//! assert_eq!(q.pop(), Some((10, Ev::Pong)));
//! assert_eq!(q.pop(), None);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod pool;
pub mod rng;
pub mod sharded;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::DetRng;
pub use sharded::{run_epochs, EpochOutcome, Outbox, ShardSim, Stamp};
pub use time::{cycles_to_micros, Cycle, PROCESSOR_HZ};
