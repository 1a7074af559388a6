//! Per-destination sliding-window flow control.
//!
//! §4.1: "We model hardware flow control at the end points using a hardware
//! sliding window protocol. A processor can send up to four network messages
//! per destination before it blocks waiting for acknowledgments."
//!
//! The window is owned by the sending NI. `try_acquire` grabs a credit if one
//! is available; `release` returns a credit when the acknowledgement arrives.

use serde::{Deserialize, Serialize};

use crate::message::NodeId;

/// Window size used by the paper: unacknowledged network messages allowed
/// per destination.
pub const DEFAULT_WINDOW: usize = 4;

/// Per-destination sliding window of [`DEFAULT_WINDOW`] messages.
///
/// ```
/// use cni_net::window::SlidingWindow;
/// use cni_net::message::NodeId;
///
/// let mut w = SlidingWindow::default();
/// let dst = NodeId(3);
/// for _ in 0..4 {
///     assert!(w.try_acquire(dst));
/// }
/// assert!(!w.try_acquire(dst)); // window full
/// w.release(dst);
/// assert!(w.try_acquire(dst));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlidingWindow {
    /// Unacknowledged messages per destination, indexed by
    /// [`NodeId::index`]. Grows on a destination's first acquire; entries
    /// past the end read as zero.
    in_flight: Vec<u8>,
}

impl SlidingWindow {
    /// Messages currently unacknowledged towards `dst`.
    pub fn in_flight(&self, dst: NodeId) -> usize {
        self.in_flight.get(dst.index()).map_or(0, |&n| n.into())
    }

    /// Whether a send to `dst` would be admitted right now.
    pub fn can_send(&self, dst: NodeId) -> bool {
        self.in_flight(dst) < DEFAULT_WINDOW
    }

    /// Attempts to take a credit towards `dst`. Returns `false` if the
    /// window is full.
    pub fn try_acquire(&mut self, dst: NodeId) -> bool {
        let i = dst.index();
        if i >= self.in_flight.len() {
            self.in_flight.resize(i + 1, 0);
        }
        let n = &mut self.in_flight[i];
        if usize::from(*n) < DEFAULT_WINDOW {
            *n += 1;
            true
        } else {
            false
        }
    }

    /// Returns a credit for `dst` (an acknowledgement arrived).
    ///
    /// # Panics
    ///
    /// Panics if no message was in flight to `dst` — that indicates a
    /// protocol bug in the caller.
    pub fn release(&mut self, dst: NodeId) {
        match self.in_flight.get_mut(dst.index()) {
            Some(n) if *n > 0 => *n -= 1,
            _ => panic!("release without acquire for {dst}"),
        }
    }

    /// Total messages currently unacknowledged across all destinations.
    pub fn total_in_flight(&self) -> usize {
        self.in_flight.iter().map(|&n| usize::from(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_window_is_four() {
        let mut w = SlidingWindow::default();
        let dst = NodeId(2);
        for _ in 0..4 {
            assert!(w.try_acquire(dst));
        }
        assert!(!w.try_acquire(dst));
    }

    #[test]
    fn window_is_per_destination() {
        let mut w = SlidingWindow::default();
        for _ in 0..4 {
            assert!(w.try_acquire(NodeId(0)));
        }
        assert!(w.try_acquire(NodeId(1)));
        assert!(!w.try_acquire(NodeId(0)));
        assert_eq!(w.total_in_flight(), 5);
    }

    #[test]
    fn release_restores_credit() {
        let mut w = SlidingWindow::default();
        let dst = NodeId(7);
        for _ in 0..4 {
            assert!(w.try_acquire(dst));
        }
        assert!(!w.can_send(dst));
        w.release(dst);
        assert!(w.can_send(dst));
        assert_eq!(w.in_flight(dst), 3);
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn release_without_acquire_panics() {
        let mut w = SlidingWindow::default();
        w.release(NodeId(0));
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn release_to_a_drained_destination_panics() {
        let mut w = SlidingWindow::default();
        assert!(w.try_acquire(NodeId(1)));
        w.release(NodeId(1));
        w.release(NodeId(1));
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn release_to_an_untouched_destination_below_a_touched_one_panics() {
        // Acquiring towards node 9 sizes the counters past node 3, which
        // was never touched and so has nothing to release.
        let mut w = SlidingWindow::default();
        assert!(w.try_acquire(NodeId(9)));
        w.release(NodeId(3));
    }
}
