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
//! Deliveries are grouped by retry phase (`at` modulo the interval) into a
//! table of 64 lanes, allocated at the node's first park and kept for the
//! node's life, so no park searches for its lane and no emptied lane gives
//! back its buffers. Within a lane, deliveries sit in the order their
//! polled retries would pop, as runs sharing one `(at, key)`; the first
//! run is stored inline in the lane, the rest in a side queue. A skipped
//! round moves a whole run to the back of its lane in O(1), and a blocked
//! lane that is one duplicate-free run — nearly every lane of a saturated
//! receiver — jumps any number of rounds by rewriting its inline head,
//! without touching its queues.
//!
//! A catch-up only looks at lanes that can hold an attempt before it: an
//! occupancy mask, and the position of the last complete catch-up (every
//! attempt lies at or after that cycle), select the phases of the cycles
//! in between; a catch-up no later than the last complete one returns at
//! once. [`ParkedDeliveries::mark_dup`] visits only the lanes that may
//! hold an unflagged copy from the sender: a per-sender lane mask, set at
//! park and rebuilt by each visit, names them.

use std::collections::VecDeque;

use cni_sim::time::Cycle;

use crate::msg::FragPayload;

use super::shard::WireMeta;
use super::DELIVERY_RETRY_INTERVAL;

/// One lane per retry phase; the occupancy mask is one `u64`.
const LANES: usize = 64;
const _: () = assert!(DELIVERY_RETRY_INTERVAL == LANES as Cycle);

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
/// one cycle and one queue key. `len == 0` marks an empty lane's head.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    at: Cycle,
    key: u64,
    len: u32,
    /// Members flagged [`Parked::dup`].
    dups: u32,
}

/// The parked deliveries of one retry phase, in pop order.
#[derive(Debug, Default)]
struct Lane {
    /// The first run, inline.
    head: Run,
    /// The runs after `head`.
    rest: VecDeque<Run>,
    parked: VecDeque<Parked>,
}

impl Clone for Lane {
    fn clone(&self) -> Self {
        Lane {
            head: self.head,
            rest: self.rest.clone(),
            parked: self.parked.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.head = source.head;
        self.rest.clone_from(&source.rest);
        self.parked.clone_from(&source.parked);
    }
}

impl Lane {
    /// Appends deliveries whose next attempt is `(at, key)` — always the
    /// latest position in the lane, since keys only grow and every run
    /// already sits at or before `at`.
    fn push_run(&mut self, at: Cycle, key: u64, len: u32, dups: u32) {
        let back = self.rest.back_mut().unwrap_or(&mut self.head);
        if back.len == 0 {
            *back = Run { at, key, len, dups };
        } else if back.at == at && back.key == key {
            back.len += len;
            back.dups += dups;
        } else {
            self.rest.push_back(Run { at, key, len, dups });
        }
    }

    /// Drops the head run; the next one, if any, becomes the head.
    fn pop_run(&mut self) {
        self.head = self.rest.pop_front().unwrap_or_default();
    }
}

/// The lanes of a node that has parked at least once.
#[derive(Debug)]
struct LaneTable {
    lanes: [Lane; LANES],
    /// Per sender, a superset of the lanes holding a copy from it not
    /// yet flagged [`Parked::dup`].
    senders: Vec<u64>,
}

impl Default for LaneTable {
    fn default() -> Self {
        LaneTable {
            lanes: std::array::from_fn(|_| Lane::default()),
            senders: Vec::new(),
        }
    }
}

impl Clone for LaneTable {
    fn clone(&self) -> Self {
        LaneTable {
            lanes: self.lanes.clone(),
            senders: self.senders.clone(),
        }
    }

    /// Copies into `self`'s existing lane buffers.
    fn clone_from(&mut self, source: &Self) {
        for (lane, from) in self.lanes.iter_mut().zip(&source.lanes) {
            lane.clone_from(from);
        }
        self.senders.clone_from(&source.senders);
    }
}

/// A node's parked deliveries (see the module docs).
#[derive(Debug, Default)]
pub struct ParkedDeliveries {
    /// `None` until the node first parks.
    table: Option<Box<LaneTable>>,
    /// Parked deliveries, and those of them flagged [`Parked::dup`]
    /// (`u32` keeps [`super::NodeCore`] at its checkpointed size).
    len: u32,
    dups: u32,
    /// Bit `p` is set iff lane `p` is non-empty.
    occupied: u64,
    /// The position `(t, seq)` of the last catch-up that left nothing
    /// before it. Every parked attempt lies after it, at cycle `t` or
    /// later.
    caught_up: (Cycle, u64),
    /// The device would refuse an attempt without changing any state, as
    /// of the last time the shard asked.
    pub(super) blocked: bool,
    /// Cycle of the earliest pending `WakeParked` event, if any.
    pub(super) wake_at: Option<Cycle>,
}

impl Clone for ParkedDeliveries {
    fn clone(&self) -> Self {
        ParkedDeliveries {
            table: self.table.clone(),
            len: self.len,
            dups: self.dups,
            occupied: self.occupied,
            caught_up: self.caught_up,
            blocked: self.blocked,
            wake_at: self.wake_at,
        }
    }

    /// Copies into `self`'s existing lane table.
    fn clone_from(&mut self, source: &Self) {
        let ParkedDeliveries {
            table,
            len,
            dups,
            occupied,
            caught_up,
            blocked,
            wake_at,
        } = source;
        self.table.clone_from(table);
        self.len = *len;
        self.dups = *dups;
        self.occupied = *occupied;
        self.caught_up = *caught_up;
        self.blocked = *blocked;
        self.wake_at = *wake_at;
    }
}

/// Iterates the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (bit < LANES).then_some(bit)
    })
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
        debug_assert!(
            (at, key) > self.caught_up,
            "a delivery parked before a catch-up"
        );
        let phase = (at % DELIVERY_RETRY_INTERVAL) as usize;
        let table = self.table.get_or_insert_with(Box::default);
        if meta.tx_seq.is_some() {
            let src = frag.src.index();
            if src >= table.senders.len() {
                table.senders.resize(src + 1, 0);
            }
            table.senders[src] |= 1 << phase;
        }
        let lane = &mut table.lanes[phase];
        lane.parked.push_back(Parked {
            frag,
            meta,
            dup: false,
        });
        lane.push_run(at, key, 1, 0);
        self.occupied |= 1 << phase;
        self.len += 1;
    }

    /// Cycle of the earliest attempt that must really execute — every
    /// attempt once the node is no longer blocked, else only duplicates'.
    pub(super) fn wake_time(&self) -> Option<Cycle> {
        if self.len == 0 || (self.blocked && self.dups == 0) {
            return None;
        }
        let table = self
            .table
            .as_deref()
            .expect("parked deliveries live in the table");
        bits(self.occupied)
            .filter_map(|phase| {
                let lane = &table.lanes[phase];
                std::iter::once(&lane.head)
                    .chain(&lane.rest)
                    .find(|r| !self.blocked || r.dups > 0)
                    .map(|r| r.at)
            })
            .min()
    }

    /// Flags every parked copy of `(src, seq)` as a duplicate: the receiver
    /// just accepted another copy, so their next attempts re-acknowledge.
    pub(super) fn mark_dup(&mut self, src: usize, seq: u64) {
        let Some(table) = self.table.as_deref_mut() else {
            return;
        };
        let Some(lanes) = table.senders.get_mut(src) else {
            return;
        };
        let visit = std::mem::take(lanes);
        for phase in bits(visit) {
            let lane = &mut table.lanes[phase];
            let mut run = &mut lane.head;
            let mut run_end = run.len as usize;
            let mut rest = lane.rest.iter_mut();
            for (i, p) in lane.parked.iter_mut().enumerate() {
                while i >= run_end {
                    run = rest.next().expect("runs cover the lane");
                    run_end += run.len as usize;
                }
                if !p.dup && p.frag.src.index() == src {
                    if p.meta.tx_seq == Some(seq) {
                        p.dup = true;
                        run.dups += 1;
                        self.dups += 1;
                    } else {
                        table.senders[src] |= 1 << phase;
                    }
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
        if self.occupied == 0 || (t, seq) <= self.caught_up {
            return None;
        }
        // Every attempt lies at or after `caught_up.0`, so only the phases
        // of the cycles up to `t` can hold one that precedes the event.
        // They are visited in cycle order, `t`'s own phase last, as their
        // polled retries would pop.
        let since = t - self.caught_up.0;
        let window = if since >= DELIVERY_RETRY_INTERVAL - 1 {
            u64::MAX
        } else {
            u64::MAX << (LANES as Cycle - 1 - since)
        };
        let first = (t + 1) % DELIVERY_RETRY_INTERVAL;
        let due = self.occupied.rotate_right(first as u32) & window;
        let table = self
            .table
            .as_deref_mut()
            .expect("parked deliveries live in the table");
        for offset in bits(due) {
            let phase = (offset + first as usize) % LANES;
            let lane = &mut table.lanes[phase];
            while (lane.head.at, lane.head.key) <= (t, seq) {
                let run = lane.head;
                if !self.blocked || run.dups > 0 {
                    debug_assert_eq!(run.at, t, "a due parked delivery was never woken");
                    let parked = lane.parked.pop_front().expect("runs cover the lane");
                    lane.head.len -= 1;
                    if parked.dup {
                        lane.head.dups -= 1;
                        self.dups -= 1;
                    }
                    if lane.head.len == 0 {
                        lane.pop_run();
                    }
                    if !self.blocked || parked.dup {
                        self.len -= 1;
                        if lane.head.len == 0 {
                            self.occupied &= !(1 << phase);
                        }
                        return Some(parked);
                    }
                    // Blocked: refused again without running.
                    *skipped += 1;
                    lane.parked.push_back(parked);
                    lane.push_run(t + DELIVERY_RETRY_INTERVAL, cur, 1, 0);
                } else if lane.rest.is_empty() {
                    // The lane is one duplicate-free run, refused round
                    // after round: its first skipped round re-keys it to
                    // `cur`, newer than anything already popped, so it
                    // keeps skipping while it lies at an earlier cycle.
                    let rounds = (t - run.at).div_ceil(DELIVERY_RETRY_INTERVAL).max(1);
                    *skipped += rounds * u64::from(run.len);
                    lane.head.at += rounds * DELIVERY_RETRY_INTERVAL;
                    lane.head.key = cur;
                } else {
                    *skipped += u64::from(run.len);
                    lane.pop_run();
                    lane.parked.rotate_left(run.len as usize);
                    lane.push_run(run.at + DELIVERY_RETRY_INTERVAL, cur, run.len, run.dups);
                }
            }
        }
        self.caught_up = (t, seq);
        None
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use cni_net::message::NodeId;
    use cni_sim::rng::DetRng;

    use super::*;
    use crate::msg::AmMessage;

    /// What the lanes stand for: every parked copy an explicit retry,
    /// popped in `(at, key, insertion)` order and, when skipped,
    /// rescheduled a retry interval later under the queue's current key.
    #[derive(Default)]
    struct Polled {
        /// `(at, key, insertion, id, src, seq, dup)`.
        retries: Vec<(Cycle, u64, u64, u64, usize, u64, bool)>,
        inserted: u64,
        blocked: bool,
    }

    impl Polled {
        fn park(&mut self, at: Cycle, key: u64, id: u64, src: usize, seq: u64) {
            let order = self.inserted;
            self.inserted += 1;
            self.retries.push((at, key, order, id, src, seq, false));
        }

        fn next_due(&mut self, t: Cycle, seq: u64, cur: u64, skipped: &mut u64) -> Option<u64> {
            loop {
                let (i, &(at, key, ..)) = self
                    .retries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| (r.0, r.1, r.2))?;
                if (at, key) > (t, seq) {
                    return None;
                }
                let mut retry = self.retries.swap_remove(i);
                if !self.blocked || retry.6 {
                    return Some(retry.3);
                }
                *skipped += 1;
                retry.0 += DELIVERY_RETRY_INTERVAL;
                retry.1 = cur;
                retry.2 = self.inserted;
                self.inserted += 1;
                self.retries.push(retry);
            }
        }

        fn wake_time(&self) -> Option<Cycle> {
            let runs = |r: &&(Cycle, u64, u64, u64, usize, u64, bool)| !self.blocked || r.6;
            self.retries.iter().filter(runs).map(|r| r.0).min()
        }

        fn mark_dup(&mut self, src: usize, seq: u64) {
            for r in &mut self.retries {
                if r.4 == src && r.5 == seq {
                    r.6 = true;
                }
            }
        }

        fn dups(&self) -> usize {
            self.retries.iter().filter(|r| r.6).count()
        }
    }

    /// Parked copy `id` of `(src, seq)`.
    fn copy(id: u64, src: usize, seq: u64) -> (FragPayload, WireMeta) {
        let frag = FragPayload {
            src: NodeId(src),
            dst: NodeId(0),
            msg_id: id,
            frag_index: 0,
            frag_count: 1,
            payload_bytes: 8,
            message: Arc::new(AmMessage::new(0, 8, Vec::new())),
        };
        let meta = WireMeta {
            tx_seq: Some(seq),
            corrupted: false,
        };
        (frag, meta)
    }

    /// Situations a batch must reach for its equalities to mean anything.
    #[derive(Debug, Default)]
    struct Reached {
        multi_run_lanes: u64,
        ties_key_after_seq: u64,
        dups_run_while_blocked: u64,
        lanes_refilled: u64,
        multi_round_jumps: u64,
    }

    /// Drives the lanes and the polled model through one random history
    /// the way the shard does: catch-ups at non-decreasing event positions
    /// (never past a wake), epoch-boundary catch-ups at `(t, 0)`, parks a
    /// retry interval ahead under the current key, acceptances flagging
    /// duplicates, and the device's blocked verdict flipping between
    /// events. Returns the first difference.
    fn run_case(seed: u64, reached: &mut Reached) -> Result<(), String> {
        let mut rng = DetRng::new(seed);
        let srcs = 1 + rng.gen_index(4);
        let seqs = 1 + rng.gen_range(10);
        let flip = 0.05 + 0.4 * rng.gen_f64();
        let steps = 50 + rng.gen_index(400);
        let mut lanes = ParkedDeliveries::default();
        let mut polled = Polled::default();
        let mut t: Cycle = rng.gen_range(200);
        let mut last_seq = 0;
        let mut cur = 1 + rng.gen_range(5);
        let mut accepted = HashSet::new();
        let mut next_id = 0;
        let (mut skipped, mut polled_skipped) = (0, 0);
        let mut emptied = 0u64;
        for step in 0..steps {
            let diff = |what: &str, lanes: &dyn std::fmt::Debug, polled: &dyn std::fmt::Debug| {
                Err(format!(
                    "step {step}: {what}: lanes {lanes:?}, polled {polled:?}"
                ))
            };
            let wake = lanes.wake_time();
            if wake != polled.wake_time() {
                return diff("wake_time", &wake, &polled.wake_time());
            }
            let gap = match rng.gen_range(10) {
                0..=5 => rng.gen_range(3),
                6..=8 => rng.gen_range(DELIVERY_RETRY_INTERVAL),
                _ => DELIVERY_RETRY_INTERVAL + rng.gen_range(400),
            };
            let next = wake.map_or(t + gap, |w| w.min(t + gap));
            if next < t {
                return diff("wake before now", &wake, &t);
            }
            if next - t >= 2 * DELIVERY_RETRY_INTERVAL && lanes.blocked && lanes.len > 0 {
                reached.multi_round_jumps += 1;
            }
            let boundary = rng.gen_bool(0.1);
            let seq = if boundary {
                0
            } else if next == t && last_seq + 1 < cur && rng.gen_bool(0.7) {
                last_seq + 1 + rng.gen_range(cur - last_seq - 1)
            } else if next > t && rng.gen_bool(0.7) {
                1 + rng.gen_range(cur)
            } else {
                cur.max(last_seq + 1)
            };
            t = next;
            if !boundary {
                last_seq = seq;
                cur = cur.max(seq + 1);
            }
            if let Some(table) = lanes.table.as_deref() {
                let phase = (t % DELIVERY_RETRY_INTERVAL) as usize;
                let head = table.lanes[phase].head;
                if head.len > 0 && head.at == t && head.key > seq {
                    reached.ties_key_after_seq += 1;
                }
                let multi = table.lanes.iter().filter(|l| !l.rest.is_empty()).count();
                reached.multi_run_lanes += multi as u64;
            }
            // The catch-up, and what each attempt that runs finds.
            loop {
                let got = lanes.next_due(t, seq, cur, &mut skipped);
                let want = polled.next_due(t, seq, cur, &mut polled_skipped);
                let id = got.as_ref().map(|p| p.frag.msg_id);
                if id != want {
                    return diff("delivery", &id, &want);
                }
                if skipped != polled_skipped {
                    return diff("skipped", &skipped, &polled_skipped);
                }
                let Some(parked) = got else {
                    break;
                };
                if boundary {
                    return diff("delivery at an epoch boundary", &id, &want);
                }
                let bit = 1 << (t % DELIVERY_RETRY_INTERVAL);
                if lanes.occupied & bit == 0 {
                    emptied |= bit;
                }
                if parked.dup {
                    reached.dups_run_while_blocked += u64::from(lanes.blocked);
                } else if rng.gen_bool(0.5) {
                    let (src, seq) = (parked.frag.src.index(), parked.meta.tx_seq.unwrap());
                    polled.park(
                        t + DELIVERY_RETRY_INTERVAL,
                        cur,
                        parked.frag.msg_id,
                        src,
                        seq,
                    );
                    lanes.park(t + DELIVERY_RETRY_INTERVAL, cur, parked.frag, parked.meta);
                } else {
                    let (src, seq) = (parked.frag.src.index(), parked.meta.tx_seq.unwrap());
                    accepted.insert((src, seq));
                    lanes.mark_dup(src, seq);
                    polled.mark_dup(src, seq);
                    cur += rng.gen_range(3);
                }
                if rng.gen_bool(flip) {
                    lanes.blocked = !lanes.blocked;
                    polled.blocked = lanes.blocked;
                }
            }
            // The event itself: an arrival, refused or accepted, or
            // anything else that schedules events.
            if boundary || rng.gen_bool(0.5) {
                let (src, seq) = (rng.gen_index(srcs), 1 + rng.gen_range(seqs));
                if accepted.contains(&(src, seq)) {
                    // A duplicate: discarded before the NI.
                } else if rng.gen_bool(0.75) && !boundary {
                    let bit = 1 << (t % DELIVERY_RETRY_INTERVAL);
                    if emptied & bit != 0 && lanes.occupied & bit == 0 {
                        reached.lanes_refilled += 1;
                    }
                    emptied &= !bit;
                    let (frag, meta) = copy(next_id, src, seq);
                    polled.park(t + DELIVERY_RETRY_INTERVAL, cur, next_id, src, seq);
                    lanes.park(t + DELIVERY_RETRY_INTERVAL, cur, frag, meta);
                    next_id += 1;
                } else if !boundary {
                    accepted.insert((src, seq));
                    lanes.mark_dup(src, seq);
                    polled.mark_dup(src, seq);
                }
            }
            cur += rng.gen_range(4);
            if rng.gen_bool(flip) {
                lanes.blocked = !lanes.blocked;
                polled.blocked = lanes.blocked;
            }
            if lanes.len() != polled.retries.len() {
                return diff("len", &lanes.len(), &polled.retries.len());
            }
            if lanes.dups as usize != polled.dups() {
                return diff("dups", &lanes.dups, &polled.dups());
            }
        }
        Ok(())
    }

    /// `DIFF_SEED`/`DIFF_FUZZ_MS`, as the differential harness reads them.
    fn env_u64(name: &str) -> Option<u64> {
        let raw = std::env::var(name).ok()?;
        let s: String = raw.trim().chars().filter(|&c| c != '_').collect();
        let value = match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        };
        Some(value.unwrap_or_else(|| panic!("{name}={raw:?} is not a hex or decimal u64")))
    }

    /// The lanes against the polled model: 3 000 random histories from a
    /// pinned seed, or from `DIFF_SEED`, drawn until `DIFF_FUZZ_MS`
    /// milliseconds have passed if that is set. A failure prints the
    /// command that replays the failing history first.
    #[test]
    fn lanes_match_polled_retries() {
        let master = env_u64("DIFF_SEED").unwrap_or(0x9a2c_ed1a_4e5f_0028);
        let budget = env_u64("DIFF_FUZZ_MS").map(Duration::from_millis);
        let started = Instant::now();
        let mut seeds = DetRng::new(master);
        let mut reached = Reached::default();
        let mut cases = 0;
        while match budget {
            Some(budget) => started.elapsed() < budget,
            None => cases < 3_000,
        } {
            let seed = if cases == 0 { master } else { seeds.next_u64() };
            let repro = format!(
                "repro: DIFF_SEED={seed:#x} cargo test -p cni-core --lib lanes_match_polled_retries"
            );
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_case(seed, &mut reached)
            }));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(diff)) => panic!("{diff}\n{repro}"),
                Err(panic) => {
                    eprintln!("{repro}");
                    std::panic::resume_unwind(panic)
                }
            }
            cases += 1;
        }
        eprintln!("parked lanes: {cases} histories from DIFF_SEED={master:#x}: {reached:?}");
        let Reached {
            multi_run_lanes,
            ties_key_after_seq,
            dups_run_while_blocked,
            lanes_refilled,
            multi_round_jumps,
        } = reached;
        for (what, n) in [
            ("multi-run lanes", multi_run_lanes),
            ("ties at `at == t` with key after seq", ties_key_after_seq),
            ("duplicates run while blocked", dups_run_while_blocked),
            ("lanes emptied and refilled", lanes_refilled),
            ("multi-round jumps", multi_round_jumps),
        ] {
            assert!(
                n > 0,
                "no {what} in {cases} histories from DIFF_SEED={master:#x}"
            );
        }
    }
}
