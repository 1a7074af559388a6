//! Host-usable cachable queues.
//!
//! The simulator in [`crate::machine`] models the *timing* of cachable queues
//! on a 1996 memory bus; this module implements the same algorithm as a real,
//! lock-free single-producer / single-consumer queue you can use today. The
//! design maps one-to-one onto §2.2 of the paper:
//!
//! * each queue entry lives in its own cache-line-sized slot (64-byte
//!   alignment) so producer and consumer never false-share message data;
//! * a **valid word** stored with every entry carries the producer's current
//!   **sense**, so the consumer detects arrivals by reading the entry it is
//!   waiting for — never the producer's tail pointer;
//! * **sense reverse** means the consumer never writes the entry to clear the
//!   valid word: the encoding of "valid" simply flips on every pass around
//!   the ring;
//! * the producer keeps a **lazy (shadow) copy of the consumer's head** and
//!   re-reads the real head only when the shadow says the queue is full.
//!
//! The only atomics are one `AtomicU32` per slot (the valid/sense word) and
//! one `AtomicU64` per side (head and tail), with acquire/release ordering —
//! exactly the coherence traffic the paper's CQ generates.
//!
//! A single-slot [`CdrChannel`] is also provided: the software analogue of a
//! cachable device register with an explicit reuse handshake.
//!
//! This is the only module in the crate that uses `unsafe`; the two uses are
//! the standard SPSC slot hand-off and carry SAFETY arguments.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Error returned by [`CqSender::try_send`] when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull<T>(
    /// The value that could not be enqueued, handed back to the caller.
    pub T,
);

impl<T> std::fmt::Display for QueueFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cachable queue is full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for QueueFull<T> {}

/// A slot: the message payload plus the valid/sense word, padded to (at
/// least) a cache line so neighbouring slots never share a line.
#[repr(align(64))]
struct Slot<T> {
    /// 0 = never written; otherwise 1 + (sense bit) of the pass that wrote it.
    valid: AtomicU32,
    value: UnsafeCell<Option<T>>,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            valid: AtomicU32::new(EMPTY),
            value: UnsafeCell::new(None),
        }
    }
}

const EMPTY: u32 = 0;

fn sense_word(sense: bool) -> u32 {
    // 1 on odd passes, 2 on even passes — never equal to EMPTY.
    if sense {
        1
    } else {
        2
    }
}

/// Shared ring storage.
struct Ring<T> {
    slots: Box<[Slot<T>]>,
    /// Consumer's head index (total dequeues), written only by the consumer.
    head: AtomicU64,
    /// Producer's tail index (total enqueues), written only by the producer.
    tail: AtomicU64,
}

// SAFETY: the value cell of each slot is accessed by exactly one side at a
// time: the producer writes it strictly before publishing the slot's valid
// word with Release ordering, and the consumer reads it strictly after
// observing that word with Acquire ordering; the head/tail protocol prevents
// the producer from reusing a slot until the consumer has advanced past it.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

/// The sending (producer) half of a cachable queue.
pub struct CqSender<T> {
    ring: Arc<Ring<T>>,
    /// Producer-private running tail (mirrors `ring.tail`).
    tail: u64,
    /// Lazy copy of the consumer's head (§2.2 "lazy pointers").
    shadow_head: u64,
    /// Producer sense: flips every pass around the ring.
    sense: bool,
    /// How many times the shadow head had to be refreshed (observability for
    /// tests and benchmarks).
    shadow_refreshes: u64,
}

/// The receiving (consumer) half of a cachable queue.
pub struct CqReceiver<T> {
    ring: Arc<Ring<T>>,
    /// Consumer-private running head (mirrors `ring.head`).
    head: u64,
    /// Consumer sense: flips every pass around the ring.
    sense: bool,
}

/// Creates a cachable queue with capacity for `capacity` messages.
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Example
///
/// ```
/// let (mut tx, mut rx) = cni_core::cq::cachable_queue::<u64>(8);
/// tx.try_send(7).unwrap();
/// assert_eq!(rx.try_recv(), Some(7));
/// assert_eq!(rx.try_recv(), None);
/// ```
pub fn cachable_queue<T>(capacity: usize) -> (CqSender<T>, CqReceiver<T>) {
    assert!(capacity > 0, "cachable queue capacity must be positive");
    let slots: Vec<Slot<T>> = (0..capacity).map(|_| Slot::new()).collect();
    let ring = Arc::new(Ring {
        slots: slots.into_boxed_slice(),
        head: AtomicU64::new(0),
        tail: AtomicU64::new(0),
    });
    (
        CqSender {
            ring: Arc::clone(&ring),
            tail: 0,
            shadow_head: 0,
            sense: true,
            shadow_refreshes: 0,
        },
        CqReceiver {
            ring,
            head: 0,
            sense: true,
        },
    )
}

impl<T> CqSender<T> {
    /// Queue capacity in messages.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }

    /// Number of times the producer had to re-read the consumer's head
    /// pointer. With lazy pointers this grows roughly twice per pass around
    /// the ring rather than once per message.
    pub fn shadow_refreshes(&self) -> u64 {
        self.shadow_refreshes
    }

    /// Attempts to enqueue `value`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] carrying the value back if the queue is full
    /// even after refreshing the shadow head.
    pub fn try_send(&mut self, value: T) -> Result<(), QueueFull<T>> {
        let capacity = self.ring.slots.len() as u64;
        if self.tail - self.shadow_head >= capacity {
            // Lazy pointer refresh: only now read the consumer's head.
            self.shadow_head = self.ring.head.load(Ordering::Acquire);
            self.shadow_refreshes += 1;
            if self.tail - self.shadow_head >= capacity {
                return Err(QueueFull(value));
            }
        }
        let idx = (self.tail % capacity) as usize;
        let slot = &self.ring.slots[idx];
        // SAFETY: the head/tail protocol guarantees the consumer is not
        // reading this slot (it has not been published for the current pass).
        unsafe {
            *slot.value.get() = Some(value);
        }
        // Publish with the producer's current sense (the "valid bit").
        slot.valid.store(sense_word(self.sense), Ordering::Release);
        self.tail += 1;
        self.ring.tail.store(self.tail, Ordering::Release);
        if self.tail.is_multiple_of(capacity) {
            self.sense = !self.sense;
        }
        Ok(())
    }

    /// Enqueues `value`, spinning until space is available.
    ///
    /// Intended for tests and benchmarks; production callers usually want
    /// [`CqSender::try_send`] plus their own back-off policy.
    pub fn send_blocking(&mut self, mut value: T) {
        let mut spins = 0u32;
        loop {
            match self.try_send(value) {
                Ok(()) => return,
                Err(QueueFull(v)) => {
                    value = v;
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        // Give the consumer a chance to run on small machines.
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }
}

impl<T> std::fmt::Debug for CqSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CqSender")
            .field("capacity", &self.capacity())
            .field("tail", &self.tail)
            .field("shadow_head", &self.shadow_head)
            .field("sense", &self.sense)
            .finish()
    }
}

impl<T> CqReceiver<T> {
    /// Queue capacity in messages.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }

    /// Whether a message is available, by examining the head slot's valid
    /// word (never the producer's tail pointer) — the "message valid bit"
    /// optimisation that makes empty polls cache hits.
    pub fn poll(&self) -> bool {
        let capacity = self.ring.slots.len() as u64;
        let idx = (self.head % capacity) as usize;
        self.ring.slots[idx].valid.load(Ordering::Acquire) == sense_word(self.sense)
    }

    /// Attempts to dequeue the next message.
    pub fn try_recv(&mut self) -> Option<T> {
        if !self.poll() {
            return None;
        }
        let capacity = self.ring.slots.len() as u64;
        let idx = (self.head % capacity) as usize;
        let slot = &self.ring.slots[idx];
        // SAFETY: `poll` observed this pass's valid word with Acquire
        // ordering, so the producer's write of the value happens-before this
        // read, and the producer will not touch the slot again until the
        // consumer publishes a new head below.
        let value = unsafe { (*slot.value.get()).take() };
        // Sense reverse: no write to the slot's valid word is needed.
        self.head += 1;
        self.ring.head.store(self.head, Ordering::Release);
        if self.head.is_multiple_of(capacity) {
            self.sense = !self.sense;
        }
        value
    }

    /// Dequeues, spinning until a message arrives.
    pub fn recv_blocking(&mut self) -> T {
        let mut spins = 0u32;
        loop {
            if let Some(v) = self.try_recv() {
                return v;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                // Give the producer a chance to run on small machines.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl<T> std::fmt::Debug for CqReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CqReceiver")
            .field("capacity", &self.capacity())
            .field("head", &self.head)
            .field("sense", &self.sense)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// CDR channel
// ---------------------------------------------------------------------------

/// A single-slot channel modelled on a cachable device register (§2.1).
///
/// One side writes a value into the block; the other reads it and must issue
/// an explicit [`CdrChannel::clear`] before the block can be reused — the
/// software analogue of the explicit handshake CDRs require because cache
/// blocks have no atomic clear-on-read.
///
/// ```
/// use cni_core::cq::CdrChannel;
/// let cdr = CdrChannel::new();
/// assert!(cdr.publish(5).is_ok());
/// assert!(cdr.publish(6).is_err(), "CDR is busy until cleared");
/// assert_eq!(cdr.read(), Some(5));
/// cdr.clear();
/// assert!(cdr.publish(6).is_ok());
/// ```
#[derive(Debug)]
pub struct CdrChannel<T> {
    state: std::sync::Mutex<Option<T>>,
}

impl<T> Default for CdrChannel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CdrChannel<T> {
    /// Creates an empty CDR channel.
    pub fn new() -> Self {
        CdrChannel {
            state: std::sync::Mutex::new(None),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<T>> {
        // A poisoned lock would mean a writer panicked mid-`Option` update;
        // the `Option` is always left in a valid state, so recover.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes a value.
    ///
    /// # Errors
    ///
    /// Returns the value back if the register still holds unconsumed data
    /// (the reader has not issued the clear handshake yet).
    pub fn publish(&self, value: T) -> Result<(), T> {
        let mut guard = self.lock();
        if guard.is_some() {
            Err(value)
        } else {
            *guard = Some(value);
            Ok(())
        }
    }

    /// Reads the current value without consuming it (readers may re-read the
    /// register, just like re-reading a cache block).
    pub fn read(&self) -> Option<T>
    where
        T: Clone,
    {
        self.lock().clone()
    }

    /// The explicit reuse handshake: marks the register empty.
    pub fn clear(&self) {
        *self.lock() = None;
    }

    /// Whether the register currently holds a value.
    pub fn is_occupied(&self) -> bool {
        self.lock().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = cachable_queue::<u8>(0);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let (mut tx, mut rx) = cachable_queue(4);
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.try_recv(), Some(i));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn full_queue_hands_the_value_back() {
        let (mut tx, mut rx) = cachable_queue(2);
        tx.try_send("a").unwrap();
        tx.try_send("b").unwrap();
        let err = tx.try_send("c").unwrap_err();
        assert_eq!(err.0, "c");
        assert_eq!(rx.try_recv(), Some("a"));
        tx.try_send("c").unwrap();
        assert_eq!(rx.try_recv(), Some("b"));
        assert_eq!(rx.try_recv(), Some("c"));
    }

    #[test]
    fn poll_reports_availability_without_consuming() {
        let (mut tx, mut rx) = cachable_queue(2);
        assert!(!rx.poll());
        tx.try_send(1u8).unwrap();
        assert!(rx.poll());
        assert!(rx.poll(), "poll must not consume");
        assert_eq!(rx.try_recv(), Some(1));
        assert!(!rx.poll());
    }

    #[test]
    fn queue_works_across_many_passes_exercising_sense_reverse() {
        let (mut tx, mut rx) = cachable_queue(3);
        for i in 0..1000u32 {
            tx.try_send(i).unwrap();
            assert_eq!(rx.try_recv(), Some(i));
        }
    }

    #[test]
    fn lazy_pointers_bound_shadow_refreshes() {
        let (mut tx, mut rx) = cachable_queue(64);
        // Keep the queue at most half full: the producer should almost never
        // have to re-read the consumer's head pointer.
        for i in 0..10_000u32 {
            tx.try_send(i).unwrap();
            if i % 2 == 1 {
                rx.try_recv().unwrap();
                rx.try_recv().unwrap();
            }
        }
        assert!(
            tx.shadow_refreshes() <= 2 * (10_000 / 64) + 2,
            "too many shadow refreshes: {}",
            tx.shadow_refreshes()
        );
    }

    #[test]
    fn two_thread_stress_preserves_every_message() {
        let (mut tx, mut rx) = cachable_queue::<u64>(16);
        const N: u64 = 20_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.send_blocking(i);
            }
        });
        let consumer = thread::spawn(move || {
            let mut expected = 0u64;
            let mut checksum = 0u64;
            while expected < N {
                let v = rx.recv_blocking();
                assert_eq!(v, expected, "messages must arrive in order");
                checksum = checksum.wrapping_add(v);
                expected += 1;
            }
            checksum
        });
        producer.join().unwrap();
        let checksum = consumer.join().unwrap();
        assert_eq!(checksum, (0..N).sum::<u64>());
    }

    #[test]
    fn scoped_stress_with_bursty_producer() {
        let (mut tx, mut rx) = cachable_queue::<u32>(8);
        thread::scope(|s| {
            s.spawn(move || {
                for burst in 0..100u32 {
                    for i in 0..37 {
                        tx.send_blocking(burst * 37 + i);
                    }
                }
            });
            s.spawn(move || {
                for expected in 0..100u32 * 37 {
                    assert_eq!(rx.recv_blocking(), expected);
                }
                assert_eq!(rx.try_recv(), None);
            });
        });
    }

    #[test]
    fn cdr_channel_requires_explicit_clear() {
        let cdr = CdrChannel::new();
        assert!(!cdr.is_occupied());
        cdr.publish(1).unwrap();
        assert!(cdr.is_occupied());
        assert_eq!(cdr.read(), Some(1));
        // Still occupied until the explicit handshake.
        assert_eq!(cdr.publish(2), Err(2));
        cdr.clear();
        assert_eq!(cdr.read(), None);
        cdr.publish(2).unwrap();
        assert_eq!(cdr.read(), Some(2));
    }

    #[test]
    fn queue_full_error_formats() {
        let err = QueueFull(42u8);
        assert!(err.to_string().contains("full"));
    }
}
