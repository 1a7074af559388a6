//! Single-outstanding-transaction buses as timeline resources.
//!
//! Both the memory bus and the coherent I/O bus in the paper's system support
//! only one outstanding transaction (§4.1). We therefore model a bus as a
//! timeline: a transaction asks to start no earlier than `earliest` and the
//! bus grants it the first interval after its previous transaction finished.
//! Contention between the processor cache and the CNI cache on the same node
//! falls out of this naturally, which is exactly the effect §5.2 discusses for
//! `moldyn` on the I/O bus.

use serde::Serialize;

use cni_sim::time::Cycle;

pub use crate::timing::BusKind;

/// The grant a bus returns for a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// Cycle at which the transaction actually started (≥ the requested
    /// earliest start).
    pub start: Cycle,
    /// Cycle at which the bus becomes free again (start + occupancy).
    pub end: Cycle,
    /// Cycles spent waiting for the bus (start − earliest).
    pub wait: Cycle,
}

/// A multiplexed bus with a single outstanding transaction.
///
/// ```
/// use cni_mem::bus::{Bus, BusKind};
///
/// let mut bus = Bus::new(BusKind::MemoryBus);
/// let a = bus.occupy(0, 42);
/// let b = bus.occupy(10, 42);
/// assert_eq!(a.start, 0);
/// assert_eq!(a.end, 42);
/// // The second transaction wanted to start at 10 but the bus was busy.
/// assert_eq!(b.start, 42);
/// assert_eq!(b.wait, 32);
/// assert_eq!(bus.busy_cycles(), 84);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Bus {
    kind: BusKind,
    free_at: Cycle,
    busy: Cycle,
    total_wait: Cycle,
}

impl Bus {
    /// Creates an idle bus.
    pub fn new(kind: BusKind) -> Self {
        Bus {
            kind,
            free_at: 0,
            busy: 0,
            total_wait: 0,
        }
    }

    /// Which bus this is.
    pub fn kind(&self) -> BusKind {
        self.kind
    }

    /// The cycle at which the bus next becomes free.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Grants a transaction of `occupancy` cycles that may start no earlier
    /// than `earliest`, and adds them to the busy total.
    pub fn occupy(&mut self, earliest: Cycle, occupancy: Cycle) -> BusGrant {
        let start = earliest.max(self.free_at);
        let end = start + occupancy;
        self.free_at = end;
        self.busy += occupancy;
        let wait = start - earliest;
        self.total_wait += wait;
        BusGrant { start, end, wait }
    }

    /// Records occupancy that happened "in the background" without advancing
    /// the bus timeline — used to account for the bus cycles an idle,
    /// spin-polling processor burns on uncached status reads (§5.2's
    /// occupancy comparison) without simulating every individual poll.
    pub fn record_untimed(&mut self, cycles: Cycle) {
        self.busy += cycles;
    }

    /// Whether the bus would be free at `at`.
    pub fn is_free_at(&self, at: Cycle) -> bool {
        at >= self.free_at
    }

    /// Total busy cycles accumulated so far.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy
    }

    /// Total cycles transactions spent waiting for the bus.
    pub fn wait_cycles(&self) -> Cycle {
        self.total_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_back_to_back_transactions() {
        let mut bus = Bus::new(BusKind::MemoryBus);
        let a = bus.occupy(0, 10);
        let b = bus.occupy(0, 10);
        let c = bus.occupy(0, 10);
        assert_eq!((a.start, a.end), (0, 10));
        assert_eq!((b.start, b.end), (10, 20));
        assert_eq!((c.start, c.end), (20, 30));
        assert_eq!(bus.busy_cycles(), 30);
    }

    #[test]
    fn idle_gaps_are_not_counted_as_busy() {
        let mut bus = Bus::new(BusKind::IoBus);
        bus.occupy(0, 5);
        let g = bus.occupy(100, 5);
        assert_eq!(g.start, 100);
        assert_eq!(g.wait, 0);
        assert_eq!(bus.busy_cycles(), 10);
    }

    #[test]
    fn wait_cycles_accumulate_under_contention() {
        let mut bus = Bus::new(BusKind::MemoryBus);
        bus.occupy(0, 42);
        let g = bus.occupy(1, 42);
        assert_eq!(g.wait, 41);
        assert_eq!(bus.wait_cycles(), 41);
    }
}
