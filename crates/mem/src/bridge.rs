//! The memory-bus ↔ I/O-bus bridge.
//!
//! §4.1: "An I/O bridge connects the memory and I/O buses. The bridge buffers
//! writes and coherent invalidations, but blocks on reads. When transactions
//! are simultaneously initiated on the two buses, the I/O bridge NACKs the
//! I/O bus transaction to prevent deadlock. Fairness is preserved by ensuring
//! that the next I/O bus transaction succeeds."
//!
//! We model the bridge at transaction granularity. A *bridged* transaction
//! (a processor access to an I/O-bus device, or an I/O-bus device access to
//! processor cache or memory) needs both buses:
//!
//! * **Reads** hold both buses for the duration (the bridge blocks).
//! * **Writes / invalidations** are buffered: the initiating side holds its
//!   own bus for the full occupancy but the far bus only for the far-side
//!   share.
//! * If the far bus is busy at the moment the transaction would cross the
//!   bridge and the initiator is the I/O side, the transaction is NACKed and
//!   retried after [`crate::timing::TimingConfig::bridge_nack_penalty`]
//!   cycles; the retry is guaranteed to succeed (fairness).

use serde::{Deserialize, Serialize};

use cni_sim::time::Cycle;

use crate::bus::{Bus, BusGrant};
use crate::timing::TimingConfig;

/// Which side initiates a bridged transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BridgeInitiator {
    /// The processor (or processor cache) on the memory bus.
    MemorySide,
    /// The NI device (or its cache) on the I/O bus.
    IoSide,
}

/// Whether the bridge may buffer the transaction or must block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BridgeMode {
    /// Reads block: both buses are held for the whole transaction.
    Blocking,
    /// Writes and invalidations are buffered: the far bus is held only for
    /// the far-side share of the occupancy.
    Buffered,
}

/// Statistics the bridge collects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BridgeStats {
    /// Transactions that crossed the bridge.
    pub crossings: u64,
    /// Transactions that were NACKed at least once.
    pub nacks: u64,
}

/// The I/O bridge.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Bridge {
    stats: BridgeStats,
}

impl Bridge {
    /// Creates a bridge with zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> BridgeStats {
        self.stats
    }

    /// Executes a bridged transaction.
    ///
    /// * `earliest` — earliest start time requested by the initiator.
    /// * `io_occupancy` — the full I/O-bus occupancy (Table 2 I/O column).
    /// * `mem_share` — the memory-bus share of that occupancy.
    /// * `kind` — statistics label.
    ///
    /// Returns the grant as seen by the initiator (start on its own bus, end
    /// when the whole transaction completes).
    #[allow(clippy::too_many_arguments)]
    pub fn bridged(
        &mut self,
        initiator: BridgeInitiator,
        mode: BridgeMode,
        earliest: Cycle,
        io_occupancy: Cycle,
        mem_share: Cycle,
        memory_bus: &mut Bus,
        io_bus: &mut Bus,
        timing: &TimingConfig,
        kind: &'static str,
    ) -> BusGrant {
        self.stats.crossings += 1;
        let mut start_request = earliest;

        // Deadlock avoidance: if the I/O side initiates while the memory bus
        // is busy, the bridge NACKs it once; the retry (after the penalty)
        // is guaranteed to succeed because the memory-side transaction that
        // won the race will have been granted by then.
        if initiator == BridgeInitiator::IoSide && !memory_bus.is_free_at(start_request) {
            self.stats.nacks += 1;
            start_request += timing.bridge_nack_penalty;
        }

        // The transaction cannot cross until both buses can take it.
        let start = start_request.max(io_bus.free_at()).max(match mode {
            BridgeMode::Blocking => memory_bus.free_at(),
            // Buffered transactions only need the memory bus for the
            // trailing share; it still cannot start before the memory bus
            // frees up enough, but we approximate by aligning starts.
            BridgeMode::Buffered => memory_bus.free_at(),
        });

        let io_grant = io_bus.occupy(start, io_occupancy, kind);
        let mem_occupancy = match mode {
            BridgeMode::Blocking => io_occupancy.min(io_grant.end - io_grant.start),
            BridgeMode::Buffered => mem_share,
        };
        let _mem_grant = memory_bus.occupy(io_grant.start, mem_occupancy, kind);

        BusGrant {
            start: io_grant.start,
            end: io_grant.end,
            wait: io_grant.start.saturating_sub(earliest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusKind;

    fn setup() -> (Bridge, Bus, Bus, TimingConfig) {
        (
            Bridge::new(),
            Bus::new(BusKind::MemoryBus),
            Bus::new(BusKind::IoBus),
            TimingConfig::isca96(),
        )
    }

    #[test]
    fn blocking_read_holds_both_buses() {
        let (mut bridge, mut mem, mut io, t) = setup();
        let g = bridge.bridged(
            BridgeInitiator::MemorySide,
            BridgeMode::Blocking,
            0,
            48,
            28,
            &mut mem,
            &mut io,
            &t,
            "uncached_load",
        );
        assert_eq!(g.start, 0);
        assert_eq!(g.end, 48);
        assert_eq!(io.busy_cycles(), 48);
        assert_eq!(mem.busy_cycles(), 48);
        assert_eq!(bridge.stats().crossings, 1);
        assert_eq!(bridge.stats().nacks, 0);
    }

    #[test]
    fn buffered_write_releases_the_memory_bus_early() {
        let (mut bridge, mut mem, mut io, t) = setup();
        let g = bridge.bridged(
            BridgeInitiator::MemorySide,
            BridgeMode::Buffered,
            0,
            32,
            12,
            &mut mem,
            &mut io,
            &t,
            "uncached_store",
        );
        assert_eq!(g.end, 32);
        assert_eq!(io.busy_cycles(), 32);
        assert_eq!(mem.busy_cycles(), 12);
    }

    #[test]
    fn io_initiator_is_nacked_when_memory_bus_is_busy() {
        let (mut bridge, mut mem, mut io, t) = setup();
        // Processor-side transaction holds the memory bus until cycle 42.
        mem.occupy(0, 42, "c2c");
        let g = bridge.bridged(
            BridgeInitiator::IoSide,
            BridgeMode::Blocking,
            0,
            76,
            42,
            &mut mem,
            &mut io,
            &t,
            "c2c_from_device",
        );
        assert_eq!(bridge.stats().nacks, 1);
        // The retried transaction starts after the memory bus frees up (42)
        // and no earlier than the NACK penalty.
        assert!(g.start >= 42);
        assert_eq!(g.end, g.start + 76);
    }

    #[test]
    fn io_initiator_with_idle_memory_bus_is_not_nacked() {
        let (mut bridge, mut mem, mut io, t) = setup();
        let g = bridge.bridged(
            BridgeInitiator::IoSide,
            BridgeMode::Blocking,
            10,
            76,
            42,
            &mut mem,
            &mut io,
            &t,
            "c2c",
        );
        assert_eq!(bridge.stats().nacks, 0);
        assert_eq!(g.start, 10);
    }

    #[test]
    fn contention_on_the_io_bus_serialises_transactions() {
        let (mut bridge, mut mem, mut io, t) = setup();
        let a = bridge.bridged(
            BridgeInitiator::MemorySide,
            BridgeMode::Blocking,
            0,
            48,
            28,
            &mut mem,
            &mut io,
            &t,
            "load",
        );
        let b = bridge.bridged(
            BridgeInitiator::MemorySide,
            BridgeMode::Blocking,
            0,
            48,
            28,
            &mut mem,
            &mut io,
            &t,
            "load",
        );
        assert_eq!(a.end, 48);
        assert_eq!(b.start, 48);
        assert_eq!(b.end, 96);
    }
}
