//! Single-outstanding-transaction buses as timeline resources.
//!
//! Both the memory bus and the coherent I/O bus in the paper's system support
//! only one outstanding transaction (§4.1). We therefore model a bus as a
//! timeline: a transaction asks to start no earlier than `earliest` and the
//! bus grants it the first interval after its previous transaction finished.
//! Contention between the processor cache and the CNI cache on the same node
//! falls out of this naturally, which is exactly the effect §5.2 discusses for
//! `moldyn` on the I/O bus.

use cni_sim::time::Cycle;

/// A multiplexed bus with a single outstanding transaction.
///
/// ```
/// use cni_mem::bus::Bus;
///
/// let mut bus = Bus::default();
/// assert_eq!(bus.occupy(0, 42), 42);
/// // The second transaction wanted to start at 10 but the bus was busy
/// // until 42.
/// assert_eq!(bus.occupy(10, 42), 84);
/// assert_eq!(bus.busy_cycles(), 84);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Bus {
    free_at: Cycle,
    busy: Cycle,
}

impl Bus {
    /// The cycle at which the bus next becomes free.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Grants a transaction of `occupancy` cycles that may start no earlier
    /// than `earliest`, adds them to the busy total and returns the cycle
    /// at which the bus is free again.
    pub fn occupy(&mut self, earliest: Cycle, occupancy: Cycle) -> Cycle {
        self.free_at = earliest.max(self.free_at) + occupancy;
        self.busy += occupancy;
        self.free_at
    }

    /// Records occupancy that happened "in the background" without advancing
    /// the bus timeline — used to account for the bus cycles an idle,
    /// spin-polling processor burns on uncached status reads (§5.2's
    /// occupancy comparison) without simulating every individual poll.
    pub fn record_untimed(&mut self, cycles: Cycle) {
        self.busy += cycles;
    }

    /// Total busy cycles accumulated so far.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_back_to_back_transactions() {
        let mut bus = Bus::default();
        assert_eq!(bus.occupy(0, 10), 10);
        assert_eq!(bus.occupy(0, 10), 20);
        assert_eq!(bus.occupy(0, 10), 30);
        assert_eq!(bus.busy_cycles(), 30);
    }

    #[test]
    fn idle_gaps_are_not_counted_as_busy() {
        let mut bus = Bus::default();
        bus.occupy(0, 5);
        assert_eq!(bus.occupy(100, 5), 105);
        assert_eq!(bus.busy_cycles(), 10);
    }
}
