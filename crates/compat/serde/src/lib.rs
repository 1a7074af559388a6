//! Offline stand-in for `serde`.
//!
//! Models no part of the paper — this is build plumbing so the reproduction
//! compiles without reaching crates.io.
//!
//! The build environment cannot reach crates.io, so this tiny crate provides
//! the two trait names and the derive macros the workspace imports. The
//! derives (from the sibling `serde_derive` shim) expand to nothing; the
//! traits are empty markers. No code in the workspace currently calls any
//! serde functionality — harness binaries that need machine-readable output
//! (e.g. `report --json`) format JSON by hand. Point the workspace `serde`
//! dependency back at the registry crate to restore the real thing.
#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize` (never implemented by the no-op
/// derive; present so `use serde::Serialize` keeps resolving).
pub trait Serialize {}

/// Marker stand-in for `serde::Deserialize` (see [`Serialize`]).
pub trait Deserialize<'de>: Sized {}
