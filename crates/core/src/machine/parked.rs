//! Event-driven receive backpressure: deliveries parked behind a full NI
//! receive queue.
//!
//! A refused delivery stays in the network, which offers it again every
//! [`DELIVERY_RETRY_INTERVAL`] cycles. The shard parks it here, in its
//! node's state, and after every event on the node asks the device whether
//! an attempt made now would change nothing
//! ([`NiDevice::delivery_blocked`](cni_nic::device::NiDevice::delivery_blocked)).
//! While that holds, the node is [`blocked`](ParkedDeliveries::blocked) and
//! its attempts are skipped. The attempts that execute are every attempt
//! while the node is not blocked, and the next attempt of a copy that
//! turned into a duplicate (the receiver accepted another copy of the same
//! sequence number, so the attempt re-acknowledges instead of being
//! refused).
//!
//! Skipped attempts still *happen* in the model: each one would have
//! rescheduled its retry with a fresh FIFO position, and that position
//! decides the order of same-cycle events on the node — who gets a freed
//! receive slot, and in which order `net_seq` stamps are consumed. So each
//! parked delivery keeps the position its polled retry would hold: its next
//! attempt cycle `at` (on its own retry grid) and its queue key, the
//! [`EventQueue::next_seq`](cni_sim::event::EventQueue::next_seq) value at
//! the moment the skipped attempt would have rescheduled it. An event
//! popped with sequence number `s` at cycle `at` was scheduled after the
//! retry iff `s >= key`. The shard advances the skipped attempts lazily,
//! just before anything is scheduled on the node (at the top of every
//! dispatch and at every epoch-boundary delivery), so the key it records is
//! exactly what the polled attempt would have seen.
//!
//! Deliveries are grouped by retry phase (`at` modulo the interval) into
//! lanes. Within a lane they sit in the order their polled retries would
//! pop, as runs sharing one `(at, key)`: a skipped round moves a whole run
//! to the back of its lane in O(1), and a lane that is one settled run
//! jumps any number of rounds at once.

use std::collections::VecDeque;

use cni_sim::time::Cycle;

use crate::msg::FragPayload;

use super::shard::WireMeta;
use super::DELIVERY_RETRY_INTERVAL;

/// One refused delivery the network holds for a later attempt.
#[derive(Debug, Clone)]
pub(super) struct Parked {
    /// The held message.
    pub(super) frag: FragPayload,
    /// Its wire metadata.
    pub(super) meta: WireMeta,
    /// Another copy of the same sequence number was accepted since this
    /// one parked: its next attempt is a duplicate discard, not a refusal.
    dup: bool,
}

/// Consecutive parked deliveries (in pop order) whose next attempts share
/// one cycle and one queue key.
#[derive(Debug, Clone, Copy)]
struct Run {
    at: Cycle,
    key: u64,
    len: usize,
    /// Members flagged [`Parked::dup`].
    dups: usize,
}

/// The parked deliveries of one retry phase, in pop order.
#[derive(Debug)]
struct Lane {
    phase: Cycle,
    parked: VecDeque<Parked>,
    runs: VecDeque<Run>,
}

impl Clone for Lane {
    fn clone(&self) -> Self {
        Lane {
            phase: self.phase,
            parked: self.parked.clone(),
            runs: self.runs.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Lane {
            phase,
            parked,
            runs,
        } = source;
        self.phase = *phase;
        self.parked.clone_from(parked);
        self.runs.clone_from(runs);
    }
}

impl Lane {
    /// Appends deliveries whose next attempt is `(at, key)` — always the
    /// latest position in the lane, since keys only grow and every run
    /// already sits at or before `at`.
    fn push_run(&mut self, at: Cycle, key: u64, len: usize, dups: usize) {
        match self.runs.back_mut() {
            Some(back) if back.at == at && back.key == key => {
                back.len += len;
                back.dups += dups;
            }
            _ => self.runs.push_back(Run { at, key, len, dups }),
        }
    }
}

/// A node's parked deliveries (see the module docs).
#[derive(Debug, Default)]
pub struct ParkedDeliveries {
    lanes: Vec<Lane>,
    /// Parked deliveries, and those of them flagged [`Parked::dup`]
    /// (`u32` keeps [`super::NodeCore`] at its checkpointed size).
    len: u32,
    dups: u32,
    /// A lower bound on every lane's next attempt: catch-ups before it
    /// have nothing to do.
    next_at: Cycle,
    /// The device would refuse an attempt without changing any state, as
    /// of the last time the shard asked.
    pub(super) blocked: bool,
    /// Cycle of the earliest pending `WakeParked` event, if any.
    pub(super) wake_at: Option<Cycle>,
}

impl Clone for ParkedDeliveries {
    fn clone(&self) -> Self {
        ParkedDeliveries {
            lanes: self.lanes.clone(),
            len: self.len,
            dups: self.dups,
            next_at: self.next_at,
            blocked: self.blocked,
            wake_at: self.wake_at,
        }
    }

    /// Copies into `self`'s existing lane buffers.
    fn clone_from(&mut self, source: &Self) {
        let ParkedDeliveries {
            lanes,
            len,
            dups,
            next_at,
            blocked,
            wake_at,
        } = source;
        self.lanes.clone_from(lanes);
        self.len = *len;
        self.dups = *dups;
        self.next_at = *next_at;
        self.blocked = *blocked;
        self.wake_at = *wake_at;
    }
}

impl ParkedDeliveries {
    /// Number of parked deliveries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Parks a delivery whose next attempt is `at`, with queue key `key`.
    pub(super) fn park(&mut self, at: Cycle, key: u64, frag: FragPayload, meta: WireMeta) {
        let phase = at % DELIVERY_RETRY_INTERVAL;
        let lane = match self.lanes.iter().position(|l| l.phase == phase) {
            Some(i) => &mut self.lanes[i],
            None => {
                self.lanes.push(Lane {
                    phase,
                    parked: VecDeque::new(),
                    runs: VecDeque::new(),
                });
                self.lanes.last_mut().expect("just pushed")
            }
        };
        lane.parked.push_back(Parked {
            frag,
            meta,
            dup: false,
        });
        lane.push_run(at, key, 1, 0);
        self.next_at = if self.len == 0 {
            at
        } else {
            self.next_at.min(at)
        };
        self.len += 1;
    }

    /// Cycle of the earliest attempt that must really execute — every
    /// attempt once the node is no longer blocked, else only duplicates'.
    pub(super) fn wake_time(&self) -> Option<Cycle> {
        if self.len == 0 || (self.blocked && self.dups == 0) {
            return None;
        }
        self.lanes
            .iter()
            .filter_map(|lane| {
                lane.runs
                    .iter()
                    .find(|r| !self.blocked || r.dups > 0)
                    .map(|r| r.at)
            })
            .min()
    }

    /// Flags every parked copy of `(src, seq)` as a duplicate: the receiver
    /// just accepted another copy, so their next attempts re-acknowledge.
    pub(super) fn mark_dup(&mut self, src: usize, seq: u64) {
        for lane in &mut self.lanes {
            let mut run = 0;
            let mut run_end = lane.runs.front().map_or(0, |r| r.len);
            for (i, p) in lane.parked.iter_mut().enumerate() {
                while i >= run_end {
                    run += 1;
                    run_end += lane.runs[run].len;
                }
                if !p.dup && p.frag.src.index() == src && p.meta.tx_seq == Some(seq) {
                    p.dup = true;
                    lane.runs[run].dups += 1;
                    self.dups += 1;
                }
            }
        }
    }

    /// Advances every attempt scheduled before the event popped at cycle
    /// `t` with sequence number `seq` (`seq = 0` for "before anything
    /// scheduled at `t`": keys are never 0, since a delivery only parks
    /// while a popped event is dispatched, after the queue handed out at
    /// least one sequence number) and returns the next one that must really
    /// execute, removed from the set; `None` once nothing left precedes the
    /// event. Skipped attempts are refusals: they reschedule a retry
    /// interval later with key `cur`, the queue's current
    /// [`next_seq`](cni_sim::event::EventQueue::next_seq), and are counted
    /// into `skipped`. A returned delivery is always due at `t` itself —
    /// attempts that must execute at an earlier cycle have their own
    /// `WakeParked` event.
    pub(super) fn next_due(
        &mut self,
        t: Cycle,
        seq: u64,
        cur: u64,
        skipped: &mut u64,
    ) -> Option<Parked> {
        if self.len == 0 || self.next_at > t {
            return None;
        }
        let mut next_at = Cycle::MAX;
        let mut li = 0;
        while li < self.lanes.len() {
            let lane = &mut self.lanes[li];
            while let Some(&run) = lane.runs.front() {
                if run.at > t || (run.at == t && run.key > seq) {
                    break;
                }
                if !self.blocked || run.dups > 0 {
                    debug_assert_eq!(run.at, t, "a due parked delivery was never woken");
                    let parked = lane.parked.pop_front().expect("runs cover the lane");
                    let front = lane.runs.front_mut().expect("checked above");
                    front.len -= 1;
                    if parked.dup {
                        front.dups -= 1;
                        self.dups -= 1;
                    }
                    if front.len == 0 {
                        lane.runs.pop_front();
                    }
                    if !self.blocked || parked.dup {
                        self.len -= 1;
                        if lane.parked.is_empty() {
                            self.lanes.swap_remove(li);
                        }
                        return Some(parked);
                    }
                    // Blocked: refused again without running.
                    *skipped += 1;
                    lane.parked.push_back(parked);
                    lane.push_run(t + DELIVERY_RETRY_INTERVAL, cur, 1, 0);
                } else if run.key == cur && lane.runs.len() == 1 {
                    // Nothing was scheduled since this run's last skipped
                    // round, so it stays one run: jump every round left.
                    // (Its key is newer than anything already popped, so
                    // it precedes only from an earlier cycle.)
                    debug_assert!(run.at < t);
                    let rounds = (t - run.at).div_ceil(DELIVERY_RETRY_INTERVAL);
                    *skipped += rounds * run.len as u64;
                    lane.runs[0].at += rounds * DELIVERY_RETRY_INTERVAL;
                } else {
                    *skipped += run.len as u64;
                    lane.runs.pop_front();
                    if run.len < lane.parked.len() {
                        lane.parked.rotate_left(run.len);
                    }
                    lane.push_run(run.at + DELIVERY_RETRY_INTERVAL, cur, run.len, run.dups);
                }
            }
            next_at = next_at.min(lane.runs.front().map_or(Cycle::MAX, |r| r.at));
            li += 1;
        }
        self.next_at = next_at;
        None
    }
}
