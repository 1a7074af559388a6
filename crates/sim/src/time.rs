//! Time base for the simulator.
//!
//! Everything in the reproduction is expressed in **processor cycles** of the
//! 200 MHz dual-issue SPARC-like processor the paper models (§4.1). The
//! memory bus runs at 100 MHz (one bus cycle = 2 processor cycles) and the
//! coherent I/O bus at 50 MHz (one bus cycle = 4 processor cycles); the bus
//! occupancies of Table 2 are already given in processor cycles, so the
//! conversion constants below are mostly needed for reporting (e.g.
//! microseconds on the vertical axis of Figure 6 and MB/s in Figure 7).

/// A point in simulated time, measured in 200 MHz processor cycles.
pub type Cycle = u64;

/// Processor clock frequency in hertz (200 MHz, §4.1).
pub const PROCESSOR_HZ: u64 = 200_000_000;

/// Memory bus clock frequency in hertz (100 MHz multiplexed coherent bus).
pub const MEMORY_BUS_HZ: u64 = 100_000_000;

/// I/O bus clock frequency in hertz (50 MHz multiplexed coherent bus).
pub const IO_BUS_HZ: u64 = 50_000_000;

/// Number of processor cycles per memory-bus cycle.
pub const CYCLES_PER_MEMORY_BUS_CYCLE: u64 = PROCESSOR_HZ / MEMORY_BUS_HZ;

/// Number of processor cycles per I/O-bus cycle.
pub const CYCLES_PER_IO_BUS_CYCLE: u64 = PROCESSOR_HZ / IO_BUS_HZ;

/// Converts a cycle count to microseconds of simulated time.
///
/// ```
/// use cni_sim::time::cycles_to_micros;
/// // 200 cycles at 200 MHz is one microsecond.
/// assert!((cycles_to_micros(200) - 1.0).abs() < 1e-12);
/// ```
pub fn cycles_to_micros(cycles: Cycle) -> f64 {
    cycles as f64 / (PROCESSOR_HZ as f64 / 1_000_000.0)
}

/// Converts a byte count moved in `cycles` cycles into a bandwidth in MB/s.
///
/// Returns zero for a zero-cycle interval so callers do not have to special
/// case empty measurements.
///
/// ```
/// use cni_sim::time::bytes_per_cycles_to_mbps;
/// // 64 bytes every 89 cycles at 200 MHz is roughly 144 MB/s, the paper's
/// // normalisation constant for Figure 7.
/// let mbps = bytes_per_cycles_to_mbps(64, 89);
/// assert!(mbps > 140.0 && mbps < 148.0);
/// ```
pub fn bytes_per_cycles_to_mbps(bytes: u64, cycles: Cycle) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    let seconds = cycles as f64 / PROCESSOR_HZ as f64;
    (bytes as f64 / 1_000_000.0) / seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_clock_ratios_match_the_paper() {
        assert_eq!(CYCLES_PER_MEMORY_BUS_CYCLE, 2);
        assert_eq!(CYCLES_PER_IO_BUS_CYCLE, 4);
    }

    #[test]
    fn zero_cycles_gives_zero_bandwidth() {
        assert_eq!(bytes_per_cycles_to_mbps(1024, 0), 0.0);
    }

    #[test]
    fn bandwidth_scales_linearly_with_bytes() {
        let one = bytes_per_cycles_to_mbps(64, 100);
        let two = bytes_per_cycles_to_mbps(128, 100);
        assert!((two - 2.0 * one).abs() < 1e-9);
    }
}
