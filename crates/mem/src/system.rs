//! Per-node memory system: processor cache, device cache and the two buses.
//!
//! [`NodeMemSystem`] is the substrate the NI device models drive. Every
//! processor-side and device-side access is decomposed into MOESI state
//! changes (handled by [`crate::moesi::Cache`]) and bus transactions. Every
//! bus transaction is charged in one place, `NodeMemSystem::transact`, on
//! [`crate::bus::Bus`] timelines with the Table 2 occupancies in
//! [`crate::timing::TIMING`].
//!
//! # The I/O bridge
//!
//! §4.1: "An I/O bridge connects the memory and I/O buses. The bridge buffers
//! writes and coherent invalidations, but blocks on reads. When transactions
//! are simultaneously initiated on the two buses, the I/O bridge NACKs the
//! I/O bus transaction to prevent deadlock. Fairness is preserved by ensuring
//! that the next I/O bus transaction succeeds."
//!
//! The bridge is not an object here but the *bridged* route of a
//! transaction, at transaction granularity. A bridged transaction (a
//! processor access to an I/O-bus device, or an I/O-bus device access to
//! processor cache or memory) starts once both buses are free:
//!
//! * **Reads** hold both buses for the full I/O-bus occupancy (the bridge
//!   blocks).
//! * **Writes and invalidations** are buffered: the I/O bus is held for the
//!   full occupancy, the memory bus only for its memory-bus share.
//! * An **I/O-side** transaction that finds the memory bus busy is NACKed
//!   once and retried after [`crate::timing::TimingConfig::bridge_nack_penalty`]
//!   cycles; the retry is guaranteed to succeed (fairness).
//!
//! There is one `NodeMemSystem` per simulated node. The two caches it manages
//! are the 256 KB processor cache and, for coherent NIs, the CNI device
//! cache; uncached NIs (`NI2w`) have no device cache and only use the
//! uncached-access operations.

use serde::{Deserialize, Serialize};

use cni_sim::time::Cycle;

use crate::addr::{BlockAddr, BlockHome, CACHE_BLOCK_BYTES};
use crate::bus::Bus;
use crate::moesi::{AccessOutcome, Cache, Eviction, MoesiState};
use crate::timing::TIMING;

/// Where the NI device lives in the node (§1, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceLocation {
    /// On the processor's cache bus (uncached accesses only; used for the
    /// `NI2w` upper-bound configuration).
    CacheBus,
    /// On the coherent memory bus.
    MemoryBus,
    /// On the coherent I/O bus, reached through the bridge.
    IoBus,
}

impl std::fmt::Display for DeviceLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeviceLocation::CacheBus => "cache bus",
            DeviceLocation::MemoryBus => "memory bus",
            DeviceLocation::IoBus => "I/O bus",
        })
    }
}

/// Processor cache capacity in bytes (256 KB, §4.1).
pub const PROC_CACHE_BYTES: usize = 256 * 1024;

/// Configuration of a node's memory system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMemConfig {
    /// Device (CNI) cache capacity in 64-byte blocks; `None` for uncached NIs.
    pub device_cache_blocks: Option<usize>,
    /// Where the device sits.
    pub device_location: DeviceLocation,
    /// Whether the processor cache snarfs device writebacks it observes on
    /// the memory bus (§5.1.2).
    pub snarfing: bool,
}

impl Default for NodeMemConfig {
    fn default() -> Self {
        NodeMemConfig {
            device_cache_blocks: Some(16),
            device_location: DeviceLocation::MemoryBus,
            snarfing: false,
        }
    }
}

/// A bus transaction, named by what it moves between whom.
#[derive(Debug, Clone, Copy)]
enum Txn {
    /// Processor uncached 8-byte load from a device register.
    UncachedLoad,
    /// Processor uncached 8-byte store to a device register.
    UncachedStore,
    /// 64-byte block, device → processor cache.
    DeviceToProc,
    /// 64-byte block, processor cache → device.
    ProcToDevice,
    /// 64-byte block, main memory → device.
    MemoryToDevice,
    /// 64-byte block between the processor cache and main memory.
    ProcMemory,
    /// Address-only invalidate / ownership upgrade.
    Invalidate,
    /// 64-byte writeback of a dirty memory-homed block the device evicted.
    DeviceWriteback,
}

/// Which buses a transaction holds, and for how many cycles.
enum Route {
    /// Between the processor and a cache-bus device: no shared bus.
    Local(Cycle),
    /// The memory bus only.
    Memory(Cycle),
    /// Across the bridge: the I/O bus for `io` cycles and the memory bus for
    /// `mem`, both from the same start. A blocking read has `mem == io`; a
    /// buffered write or invalidation holds the memory bus only for its
    /// memory-bus share.
    /// `io_side` marks a transaction the I/O-bus side initiates, which the
    /// bridge NACKs once if the memory bus is busy.
    Bridged {
        io_side: bool,
        io: Cycle,
        mem: Cycle,
    },
}

impl Route {
    /// A read across the bridge, which blocks: both buses are held for the
    /// full I/O-bus occupancy.
    fn blocking(io_side: bool, io: Cycle) -> Route {
        Route::Bridged {
            io_side,
            io,
            mem: io,
        }
    }
}

impl Txn {
    /// The route of this transaction for a device at `location`.
    ///
    /// # Panics
    ///
    /// Panics for a coherent transfer with a cache-bus device: devices on
    /// the cache bus are accessed uncached in this study.
    fn route(self, location: DeviceLocation) -> Route {
        use DeviceLocation::{CacheBus, IoBus, MemoryBus};
        use Route::{Bridged, Local, Memory};
        let t = &TIMING;
        match (self, location) {
            (Txn::UncachedLoad, CacheBus) => Local(t.uncached_load_cache_bus),
            (Txn::UncachedLoad, MemoryBus) => Memory(t.uncached_load_memory_bus),
            (Txn::UncachedLoad, IoBus) => Route::blocking(false, t.uncached_load_io_bus),
            (Txn::UncachedStore, CacheBus) => Local(t.uncached_store_cache_bus),
            (Txn::UncachedStore, MemoryBus) => Memory(t.uncached_store_memory_bus),
            (Txn::UncachedStore, IoBus) => Bridged {
                io_side: false,
                io: t.uncached_store_io_bus,
                mem: t.uncached_store_memory_bus,
            },
            (Txn::ProcMemory, _) => Memory(t.memory_transfer),
            (Txn::Invalidate, CacheBus | MemoryBus) => Memory(t.invalidate_memory_bus),
            (Txn::Invalidate, IoBus) => Bridged {
                io_side: false,
                io: t.invalidate_io_bus,
                mem: t.invalidate_memory_bus,
            },
            (_, CacheBus) => panic!("coherent transfers are not modelled on the cache bus"),
            (Txn::DeviceToProc, MemoryBus) => Memory(t.c2c_from_device_memory_bus),
            (Txn::DeviceToProc, IoBus) => Route::blocking(false, t.c2c_from_device_io_bus),
            (Txn::ProcToDevice, MemoryBus) => Memory(t.c2c_to_device_memory_bus),
            (Txn::ProcToDevice, IoBus) => Route::blocking(true, t.c2c_to_device_io_bus),
            (Txn::MemoryToDevice, MemoryBus) => Memory(t.memory_transfer),
            (Txn::MemoryToDevice, IoBus) => Route::blocking(true, t.c2c_from_device_io_bus),
            (Txn::DeviceWriteback, MemoryBus) => Memory(t.memory_transfer),
            (Txn::DeviceWriteback, IoBus) => Bridged {
                io_side: true,
                io: t.c2c_to_device_io_bus,
                mem: t.memory_transfer,
            },
        }
    }
}

/// The per-node memory system.
#[derive(Debug)]
pub struct NodeMemSystem {
    location: DeviceLocation,
    snarfing: bool,
    proc_cache: Cache,
    dev_cache: Option<Cache>,
    memory_bus: Bus,
    io_bus: Bus,
}

impl Clone for NodeMemSystem {
    fn clone(&self) -> Self {
        NodeMemSystem {
            proc_cache: self.proc_cache.clone(),
            dev_cache: self.dev_cache.clone(),
            ..*self
        }
    }

    /// Copies into `self`'s existing buffers (the caches' set vectors).
    fn clone_from(&mut self, source: &Self) {
        self.proc_cache.clone_from(&source.proc_cache);
        self.dev_cache.clone_from(&source.dev_cache);
        self.clone_uncached_from(source);
    }
}

impl NodeMemSystem {
    /// Builds a memory system from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if a device cache is configured for a cache-bus device (the
    /// cache bus carries no coherent transactions in this study).
    pub fn new(cfg: NodeMemConfig) -> Self {
        if cfg.device_location == DeviceLocation::CacheBus {
            assert!(
                cfg.device_cache_blocks.is_none(),
                "cache-bus NIs are uncached; they cannot have a coherent device cache"
            );
        }
        NodeMemSystem {
            location: cfg.device_location,
            snarfing: cfg.snarfing,
            proc_cache: Cache::new(PROC_CACHE_BYTES),
            dev_cache: cfg
                .device_cache_blocks
                .map(|blocks| Cache::new(blocks * CACHE_BLOCK_BYTES)),
            memory_bus: Bus::default(),
            io_bus: Bus::default(),
        }
    }

    /// Where the device sits.
    pub fn device_location(&self) -> DeviceLocation {
        self.location
    }

    /// Processor-cache coherence state of `block`.
    pub fn proc_state(&self, block: BlockAddr) -> MoesiState {
        self.proc_cache.lookup(block)
    }

    /// Device-cache coherence state of `block` (Invalid if there is no device
    /// cache).
    pub fn device_state(&self, block: BlockAddr) -> MoesiState {
        self.dev_cache
            .as_ref()
            .map(|c| c.lookup(block))
            .unwrap_or(MoesiState::Invalid)
    }

    /// Read-only access to the processor cache (statistics).
    pub fn proc_cache(&self) -> &Cache {
        &self.proc_cache
    }

    /// Read-only access to the device cache (statistics).
    pub fn device_cache(&self) -> Option<&Cache> {
        self.dev_cache.as_ref()
    }

    /// Bytes of both caches' set vectors: what a whole copy of them moves.
    pub fn cache_bytes(&self) -> usize {
        self.proc_cache.set_vector_bytes()
            + self.dev_cache.as_ref().map_or(0, Cache::set_vector_bytes)
    }

    /// Brings `mirror` — a copy of this system as of the last sync — up to
    /// date: the caches copy only the sets written since then (see
    /// [`Cache::sync_into`]), the buses are copied. Returns the bytes of
    /// cache sets copied.
    pub fn sync_into(&mut self, mirror: &mut NodeMemSystem) -> usize {
        mirror.clone_uncached_from(self);
        let sets = self.proc_cache.sync_into(&mut mirror.proc_cache)
            + match (&mut self.dev_cache, &mut mirror.dev_cache) {
                (Some(live), Some(mirror)) => live.sync_into(mirror),
                (None, None) => 0,
                _ => panic!("mirror has a different device-cache configuration"),
            };
        sets * Cache::SET_BYTES
    }

    /// Rewinds this system to `mirror`, its state as of the last sync:
    /// the caches copy back only the sets written since then (see
    /// [`Cache::rewind_from`]), the buses are copied.
    pub fn rewind_from(&mut self, mirror: &NodeMemSystem) {
        self.clone_uncached_from(mirror);
        self.proc_cache.rewind_from(&mirror.proc_cache);
        match (&mut self.dev_cache, &mirror.dev_cache) {
            (Some(live), Some(mirror)) => live.rewind_from(mirror),
            (None, None) => {}
            _ => panic!("mirror has a different device-cache configuration"),
        }
    }

    /// Clears the caches' write marks after this system was cloned whole
    /// into its mirror (see [`Cache::mark_synced`]).
    pub fn mark_synced(&mut self) {
        self.proc_cache.mark_synced();
        if let Some(dev) = &mut self.dev_cache {
            dev.mark_synced();
        }
    }

    /// Everything but the caches.
    fn clone_uncached_from(&mut self, source: &Self) {
        let NodeMemSystem {
            location,
            snarfing,
            proc_cache: _,
            dev_cache: _,
            memory_bus,
            io_bus,
        } = *source;
        self.location = location;
        self.snarfing = snarfing;
        self.memory_bus = memory_bus;
        self.io_bus = io_bus;
    }

    /// Read-only access to the memory bus (occupancy statistics).
    pub fn memory_bus(&self) -> &Bus {
        &self.memory_bus
    }

    /// Read-only access to the I/O bus (occupancy statistics).
    pub fn io_bus(&self) -> &Bus {
        &self.io_bus
    }

    /// Accounts for `idle_cycles` of processor spin-polling on an *uncached*
    /// NI status register while the node had nothing else to do.
    ///
    /// The machine model fast-forwards idle periods instead of simulating
    /// every poll; this method charges the bus occupancy those polls would
    /// have generated (one uncached load back-to-back) so that the §5.2
    /// memory-bus-occupancy comparison remains faithful. It never advances
    /// the bus timeline, so it is a tally rather than a transaction: each
    /// poll adds its uncached-load occupancy to the device's bus, and its
    /// memory-bus uncached-load occupancy to the memory bus. Cached polling
    /// (the CQ-based CNIs) generates no bus traffic and needs no equivalent.
    pub fn note_uncached_idle_polling(&mut self, idle_cycles: Cycle) {
        let per_poll = match self.location {
            DeviceLocation::CacheBus => return,
            DeviceLocation::MemoryBus => TIMING.uncached_load_memory_bus,
            DeviceLocation::IoBus => TIMING.uncached_load_io_bus,
        };
        let polls = idle_cycles / per_poll;
        if self.location == DeviceLocation::IoBus {
            self.io_bus.record_untimed(polls * per_poll);
        }
        self.memory_bus
            .record_untimed(polls * TIMING.uncached_load_memory_bus);
    }

    // ------------------------------------------------------------------
    // Uncached (device-register) accesses
    // ------------------------------------------------------------------

    /// Processor uncached 8-byte load from an NI device register.
    ///
    /// Returns the cycle at which the load's value is available to the
    /// processor (loads always stall).
    pub fn proc_uncached_load(&mut self, now: Cycle) -> Cycle {
        self.transact(now, Txn::UncachedLoad)
    }

    /// Processor uncached 8-byte store to an NI device register.
    ///
    /// Returns the cycle at which the store is visible at the device. The
    /// caller models store-buffer behaviour: for fire-and-forget control
    /// stores the processor may proceed earlier; for stores followed by a
    /// memory barrier it must wait for the returned cycle.
    pub fn proc_uncached_store(&mut self, now: Cycle) -> Cycle {
        self.transact(now, Txn::UncachedStore)
    }

    // ------------------------------------------------------------------
    // Processor coherent accesses
    // ------------------------------------------------------------------

    /// Processor coherent load of `block` whose home is `home`.
    ///
    /// Returns the cycle at which the data is available.
    pub fn proc_cached_read(&mut self, now: Cycle, block: BlockAddr, home: BlockHome) -> Cycle {
        if self.proc_cache.classify_read(block) == AccessOutcome::Hit {
            self.proc_cache.note_hit();
            return now + TIMING.cache_hit;
        }
        // Who supplies the data, and does the device keep a copy?
        let snoop = self.dev_cache.as_mut().map(|c| c.snoop_read(block));
        let device_supplies = snoop.is_some_and(|s| s.supplies_data);
        let done = if device_supplies || home == BlockHome::Device {
            self.transact(now, Txn::DeviceToProc)
        } else {
            self.transact(now, Txn::ProcMemory)
        };
        // A copy the device keeps, even one it did not supply, makes the
        // processor's copy Shared.
        let fill_state = if snoop.is_some_and(|s| s.prev.is_valid()) {
            MoesiState::Shared
        } else {
            MoesiState::Exclusive
        };
        let eviction = self.proc_cache.fill(block, fill_state, home);
        self.handle_proc_eviction(done, eviction)
    }

    /// Processor coherent store to `block` whose home is `home`
    /// (write-allocate).
    ///
    /// Returns the cycle at which the store has retired (ownership obtained).
    pub fn proc_cached_write(&mut self, now: Cycle, block: BlockAddr, home: BlockHome) -> Cycle {
        match self.proc_cache.classify_write(block) {
            AccessOutcome::Hit => {
                self.proc_cache.note_hit();
                self.proc_cache.set_state(block, MoesiState::Modified);
                now + TIMING.cache_hit
            }
            AccessOutcome::UpgradeMiss => {
                // Address-only invalidation; the device copy (if any) is
                // invalidated by the snoop.
                if let Some(dev) = self.dev_cache.as_mut() {
                    dev.snoop_invalidate(block);
                }
                let done = self.transact(now, Txn::Invalidate);
                self.proc_cache.upgrade_to_modified(block);
                done
            }
            AccessOutcome::Miss => {
                // Read-exclusive: fetch the data and invalidate other copies.
                let device_supplied = self
                    .dev_cache
                    .as_mut()
                    .is_some_and(|c| c.snoop_invalidate(block).supplies_data);
                let done = if device_supplied || home == BlockHome::Device {
                    self.transact(now, Txn::DeviceToProc)
                } else {
                    self.transact(now, Txn::ProcMemory)
                };
                let eviction = self.proc_cache.fill(block, MoesiState::Modified, home);
                self.handle_proc_eviction(done, eviction)
            }
        }
    }

    // ------------------------------------------------------------------
    // Device-side coherent accesses
    // ------------------------------------------------------------------

    /// The CNI device obtains a readable copy of `block` (e.g. to inject an
    /// outgoing message into the network).
    ///
    /// Returns the cycle at which the device holds the data.
    pub fn device_read_block(&mut self, now: Cycle, block: BlockAddr, home: BlockHome) -> Cycle {
        assert!(
            self.location != DeviceLocation::CacheBus,
            "cache-bus devices perform no coherent transactions"
        );
        if self
            .dev_cache
            .as_ref()
            .is_some_and(|dev| dev.lookup(block).is_valid())
        {
            return now + TIMING.cache_hit;
        }
        let done = if self.proc_cache.snoop_read(block).supplies_data {
            self.transact(now, Txn::ProcToDevice)
        } else {
            match home {
                BlockHome::Memory => self.transact(now, Txn::MemoryToDevice),
                // Device-homed data not in the device cache lives in the
                // device's own backing store: no bus transaction.
                BlockHome::Device => now + TIMING.cache_hit,
            }
        };
        self.device_fill(done, block, MoesiState::Shared, home)
    }

    /// The CNI device obtains an exclusive (writable) copy of `block`,
    /// invalidating the processor's copy — used when the device writes an
    /// incoming message into a receive-queue block.
    ///
    /// Returns the cycle at which the device owns the block.
    pub fn device_write_block(&mut self, now: Cycle, block: BlockAddr, home: BlockHome) -> Cycle {
        assert!(
            self.location != DeviceLocation::CacheBus,
            "cache-bus devices perform no coherent transactions"
        );
        if let Some(dev) = self.dev_cache.as_mut() {
            if dev.lookup(block).can_write_silently() {
                dev.set_state(block, MoesiState::Modified);
                return now + TIMING.cache_hit;
            }
        }
        let proc_action = self.proc_cache.snoop_invalidate(block);
        let done = if proc_action.was_dirty {
            // The dirty data travels to the device with the invalidating
            // transaction (read-exclusive).
            self.transact(now, Txn::ProcToDevice)
        } else if proc_action.prev.is_valid() || home == BlockHome::Memory {
            // Address-only invalidation of a clean processor copy, or the
            // device obtaining ownership of a memory-homed block.
            self.transact(now, Txn::Invalidate)
        } else {
            now + TIMING.cache_hit
        };
        self.device_fill(done, block, MoesiState::Modified, home)
    }

    // ------------------------------------------------------------------
    // Bus transactions and writebacks
    // ------------------------------------------------------------------

    /// Charges `txn`, requested at `now`, on the buses its route holds and
    /// returns the cycle at which it completes. Every bus transaction of
    /// the memory system goes through here.
    fn transact(&mut self, now: Cycle, txn: Txn) -> Cycle {
        match txn.route(self.location) {
            Route::Local(cycles) => now + cycles,
            Route::Memory(cycles) => self.memory_bus.occupy(now, cycles),
            Route::Bridged { io_side, io, mem } => {
                // Deadlock avoidance: the bridge NACKs an I/O-side
                // transaction that meets a busy memory bus; the retry after
                // the penalty is guaranteed to succeed.
                let request = if io_side && self.memory_bus.free_at() > now {
                    now + TIMING.bridge_nack_penalty
                } else {
                    now
                };
                // The transaction cannot cross until both buses can take it.
                let start = request
                    .max(self.io_bus.free_at())
                    .max(self.memory_bus.free_at());
                self.memory_bus.occupy(start, mem);
                self.io_bus.occupy(start, io)
            }
        }
    }

    /// Fills `block` into the device cache, if there is one, and writes back
    /// a dirty victim after `done`.
    fn device_fill(
        &mut self,
        done: Cycle,
        block: BlockAddr,
        state: MoesiState,
        home: BlockHome,
    ) -> Cycle {
        let Some(dev) = self.dev_cache.as_mut() else {
            return done;
        };
        match dev.fill(block, state, home) {
            Some(ev) if ev.needs_writeback() => self.writeback_from_device(done, ev),
            _ => done,
        }
    }

    fn writeback_from_device(&mut self, now: Cycle, ev: Eviction) -> Cycle {
        match ev.home {
            // Internal to the device, free.
            BlockHome::Device => now,
            BlockHome::Memory => {
                let done = self.transact(now, Txn::DeviceWriteback);
                // Data snarfing (§5.1.2): the processor cache grabs device
                // writebacks it observes on the memory bus if it still has a
                // matching invalid tag.
                if self.snarfing {
                    self.proc_cache.snarf_fill(ev.block, ev.home);
                }
                done
            }
        }
    }

    fn handle_proc_eviction(&mut self, now: Cycle, eviction: Option<Eviction>) -> Cycle {
        match eviction {
            Some(ev) if ev.needs_writeback() => match ev.home {
                BlockHome::Memory => self.transact(now, Txn::ProcMemory),
                BlockHome::Device => self.transact(now, Txn::ProcToDevice),
            },
            _ => now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_bus_system() -> NodeMemSystem {
        NodeMemSystem::new(NodeMemConfig::default())
    }

    fn io_bus_system() -> NodeMemSystem {
        NodeMemSystem::new(NodeMemConfig {
            device_location: DeviceLocation::IoBus,
            ..NodeMemConfig::default()
        })
    }

    fn cache_bus_system() -> NodeMemSystem {
        NodeMemSystem::new(NodeMemConfig {
            device_location: DeviceLocation::CacheBus,
            device_cache_blocks: None,
            ..NodeMemConfig::default()
        })
    }

    #[test]
    fn uncached_access_costs_follow_table_2() {
        let mut mem = memory_bus_system();
        assert_eq!(mem.proc_uncached_load(0), 28);
        assert_eq!(mem.proc_uncached_store(28), 40);

        let mut io = io_bus_system();
        assert_eq!(io.proc_uncached_load(0), 48);
        assert_eq!(io.proc_uncached_store(48), 48 + 32);

        let mut cb = cache_bus_system();
        assert_eq!(cb.proc_uncached_load(0), 4);
        assert_eq!(cb.proc_uncached_store(0), 4);
        // Cache-bus accesses never touch the memory bus.
        assert_eq!(cb.memory_bus().busy_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "uncached")]
    fn cache_bus_device_cannot_have_a_cache() {
        let _ = NodeMemSystem::new(NodeMemConfig {
            device_location: DeviceLocation::CacheBus,
            device_cache_blocks: Some(4),
            ..NodeMemConfig::default()
        });
    }

    #[test]
    fn proc_read_miss_from_memory_then_hit() {
        let mut sys = memory_bus_system();
        let blk = BlockAddr(100);
        let done = sys.proc_cached_read(0, blk, BlockHome::Memory);
        assert_eq!(done, 42);
        assert_eq!(sys.proc_state(blk), MoesiState::Exclusive);
        // Second read hits.
        let done = sys.proc_cached_read(done, blk, BlockHome::Memory);
        assert_eq!(done, 43);
        assert_eq!(sys.proc_cache().hits(), 1);
        assert_eq!(sys.proc_cache().misses(), 1);
    }

    #[test]
    fn proc_read_miss_supplied_by_device_cache() {
        let mut sys = memory_bus_system();
        let blk = BlockAddr(5);
        // The device writes the block first (incoming message).
        let t0 = sys.device_write_block(0, blk, BlockHome::Device);
        assert_eq!(sys.device_state(blk), MoesiState::Modified);
        // The processor read pulls it cache-to-cache: 42 cycles.
        let done = sys.proc_cached_read(t0, blk, BlockHome::Device);
        assert_eq!(done - t0, 42);
        assert_eq!(sys.proc_state(blk), MoesiState::Shared);
        assert_eq!(sys.device_state(blk), MoesiState::Owned);
    }

    #[test]
    fn proc_write_upgrade_invalidate_and_silent_hit() {
        let mut sys = memory_bus_system();
        let blk = BlockAddr(9);
        sys.proc_cached_read(0, blk, BlockHome::Memory); // Exclusive
                                                         // Exclusive write hits silently.
        let done = sys.proc_cached_write(50, blk, BlockHome::Memory);
        assert_eq!(done, 51);
        assert_eq!(sys.proc_state(blk), MoesiState::Modified);
    }

    #[test]
    fn proc_write_to_shared_block_needs_invalidation() {
        let mut sys = memory_bus_system();
        let blk = BlockAddr(9);
        // Device writes, processor reads => processor Shared, device Owned.
        sys.device_write_block(0, blk, BlockHome::Device);
        let t = sys.proc_cached_read(0, blk, BlockHome::Device);
        assert_eq!(sys.proc_state(blk), MoesiState::Shared);
        // Processor write now needs an upgrade and invalidates the device copy.
        let before_upgrades = sys.proc_cache().upgrade_misses();
        let done = sys.proc_cached_write(t, blk, BlockHome::Device);
        assert_eq!(done - t, 12);
        assert_eq!(sys.proc_cache().upgrade_misses(), before_upgrades + 1);
        assert_eq!(sys.proc_state(blk), MoesiState::Modified);
        assert_eq!(sys.device_state(blk), MoesiState::Invalid);
    }

    #[test]
    fn device_pulls_dirty_block_from_processor() {
        let mut sys = memory_bus_system();
        let blk = BlockAddr(40);
        sys.proc_cached_write(0, blk, BlockHome::Device);
        assert_eq!(sys.proc_state(blk), MoesiState::Modified);
        let done = sys.device_read_block(100, blk, BlockHome::Device);
        assert_eq!(done - 100, 42);
        assert_eq!(sys.proc_state(blk), MoesiState::Owned);
        assert_eq!(sys.device_state(blk), MoesiState::Shared);
        // A second device read hits in the device cache.
        let again = sys.device_read_block(done, blk, BlockHome::Device);
        assert_eq!(again - done, 1);
    }

    #[test]
    fn device_write_invalidates_processor_copy() {
        let mut sys = memory_bus_system();
        let blk = BlockAddr(70);
        sys.proc_cached_read(0, blk, BlockHome::Memory);
        assert!(sys.proc_state(blk).is_valid());
        let done = sys.device_write_block(100, blk, BlockHome::Memory);
        assert!(done > 100);
        assert_eq!(sys.proc_state(blk), MoesiState::Invalid);
        assert_eq!(sys.device_state(blk), MoesiState::Modified);
    }

    /// Writes `blocks` distinct blocks with `home` into the 16-block device
    /// cache and returns the system afterwards.
    fn device_writes(blocks: u64, home: BlockHome) -> NodeMemSystem {
        let mut sys = memory_bus_system();
        let mut now = 0;
        for i in 0..blocks {
            now = sys.device_write_block(now, BlockAddr(i), home);
        }
        sys
    }

    #[test]
    fn device_cache_overflow_writes_back_to_memory_home() {
        // A 16-block device cache receiving 17 distinct memory-homed blocks
        // must write back a dirty victim: the 17th write costs its ownership
        // invalidation plus one memory transfer on the memory bus.
        let fits = device_writes(16, BlockHome::Memory);
        let overflows = device_writes(17, BlockHome::Memory);
        assert_eq!(fits.device_cache().unwrap().writebacks(), 0);
        assert_eq!(overflows.device_cache().unwrap().writebacks(), 1);
        assert_eq!(
            overflows.memory_bus().busy_cycles() - fits.memory_bus().busy_cycles(),
            TIMING.invalidate_memory_bus + TIMING.memory_transfer
        );
    }

    #[test]
    fn device_homed_overflow_is_free_of_bus_traffic() {
        // The same overflow with device-homed blocks writes the victim back
        // into the device's own backing store: no memory-bus cycles at all.
        let sys = device_writes(17, BlockHome::Device);
        assert_eq!(sys.device_cache().unwrap().writebacks(), 1);
        assert_eq!(sys.memory_bus().busy_cycles(), 0);
    }

    #[test]
    fn snarfing_turns_device_writebacks_into_processor_hits() {
        let cfg = NodeMemConfig {
            snarfing: true,
            device_cache_blocks: Some(1),
            ..NodeMemConfig::default()
        };
        let mut sys = NodeMemSystem::new(cfg);
        let blk = BlockAddr(3);
        // The processor previously cached the block, then the device took it
        // over (receive-queue reuse), leaving an invalid tag in the processor
        // cache.
        sys.proc_cached_read(0, blk, BlockHome::Memory);
        sys.device_write_block(50, blk, BlockHome::Memory);
        assert_eq!(sys.proc_state(blk), MoesiState::Invalid);
        // Device evicts the dirty block (cache is a single block; writing any
        // other block forces the victim out).
        sys.device_write_block(100, BlockAddr(99), BlockHome::Memory);
        // With snarfing the processor grabbed the data off the bus.
        assert_eq!(sys.proc_state(blk), MoesiState::Shared);
        let before_misses = sys.proc_cache().misses();
        let done = sys.proc_cached_read(200, blk, BlockHome::Memory);
        assert_eq!(done, 201, "snarfed block should hit");
        assert_eq!(sys.proc_cache().misses(), before_misses);
    }

    #[test]
    fn io_bus_transfers_occupy_both_buses() {
        let mut sys = io_bus_system();
        let blk = BlockAddr(8);
        sys.device_write_block(0, blk, BlockHome::Device);
        let done = sys.proc_cached_read(10, blk, BlockHome::Device);
        // 76 cycles of I/O-bus occupancy for the cache-to-cache transfer.
        assert!(done >= 10 + 76);
        assert!(sys.io_bus().busy_cycles() >= 76);
        assert!(sys.memory_bus().busy_cycles() >= 42);
    }

    /// A processor read of a block the device holds Shared fills Shared,
    /// whether or not the device supplied the data, so the processor's next
    /// write must invalidate the device copy instead of hitting silently.
    #[test]
    fn proc_read_of_a_device_shared_block_fills_shared() {
        for (location, invalidate) in [
            (DeviceLocation::MemoryBus, TIMING.invalidate_memory_bus),
            (DeviceLocation::IoBus, TIMING.invalidate_io_bus),
        ] {
            for home in [BlockHome::Device, BlockHome::Memory] {
                let mut sys = NodeMemSystem::new(NodeMemConfig {
                    device_location: location,
                    ..NodeMemConfig::default()
                });
                let blk = BlockAddr(21);
                let t = sys.device_read_block(0, blk, home);
                assert_eq!(sys.device_state(blk), MoesiState::Shared);
                let t = sys.proc_cached_read(t, blk, home);
                assert_eq!(
                    sys.proc_state(blk),
                    MoesiState::Shared,
                    "{location}, {home:?} home: read fill"
                );
                let done = sys.proc_cached_write(t, blk, home);
                assert_eq!(done - t, invalidate, "{location}, {home:?} home: write");
                assert_eq!(sys.proc_state(blk), MoesiState::Modified);
                assert_eq!(sys.device_state(blk), MoesiState::Invalid);
            }
        }
    }

    // The I/O bridge: the bridged route of `transact`.

    #[test]
    fn blocking_read_holds_both_buses() {
        let mut sys = io_bus_system();
        assert_eq!(sys.proc_uncached_load(0), 48);
        assert_eq!(sys.io_bus().busy_cycles(), 48);
        assert_eq!(sys.memory_bus().busy_cycles(), 48);
        // The memory bus stays held until the read completes.
        assert_eq!(
            sys.proc_cached_read(0, BlockAddr(1), BlockHome::Memory),
            48 + 42
        );
    }

    #[test]
    fn buffered_write_releases_the_memory_bus_early() {
        let mut sys = io_bus_system();
        assert_eq!(sys.proc_uncached_store(0), 32);
        assert_eq!(sys.io_bus().busy_cycles(), 32);
        assert_eq!(sys.memory_bus().busy_cycles(), 12);
        // A memory-bus-only transfer may start once the memory-bus share is
        // done, while the I/O bus is still busy.
        assert_eq!(
            sys.proc_cached_read(0, BlockAddr(1), BlockHome::Memory),
            12 + 42
        );
    }

    #[test]
    fn io_initiator_is_nacked_when_memory_bus_is_busy() {
        let mut sys = io_bus_system();
        // A processor read from memory holds the memory bus until cycle 42.
        assert_eq!(sys.proc_cached_read(0, BlockAddr(1), BlockHome::Memory), 42);
        // The device's fetch from memory at cycle 30 is NACKed once: it
        // retries 16 cycles later, not when the memory bus frees at 42.
        let done = sys.device_read_block(30, BlockAddr(2), BlockHome::Memory);
        assert_eq!(done, 30 + 16 + 76);
        // A processor-side transaction meeting the busy bus only waits.
        assert_eq!(sys.proc_uncached_load(done - 1), done + 48);
    }

    #[test]
    fn io_initiator_with_idle_memory_bus_is_not_nacked() {
        let mut sys = io_bus_system();
        assert_eq!(
            sys.device_read_block(10, BlockAddr(2), BlockHome::Memory),
            10 + 76
        );
        assert_eq!(sys.io_bus().busy_cycles(), 76);
        assert_eq!(sys.memory_bus().busy_cycles(), 76);
    }

    #[test]
    fn contention_on_the_io_bus_serialises_transactions() {
        let mut sys = io_bus_system();
        assert_eq!(sys.proc_uncached_load(0), 48);
        assert_eq!(sys.proc_uncached_load(0), 96);
        assert_eq!(sys.io_bus().busy_cycles(), 96);
    }

    #[test]
    fn contending_loads_wait_for_the_memory_bus() {
        let mut sys = memory_bus_system();
        assert_eq!(sys.proc_uncached_load(0), 28);
        // Requested at 1, the second load waits 27 cycles for the bus.
        assert_eq!(sys.proc_uncached_load(1), 56);
        assert_eq!(sys.memory_bus().busy_cycles(), 56);
    }

    /// Fast-forwarded idle polling is a tally: one uncached load's
    /// occupancy per whole poll on the device's bus and on the memory bus,
    /// with neither bus timeline advanced.
    #[test]
    fn idle_polling_tally_charges_whole_polls() {
        // (system, I/O-bus busy, memory-bus busy) after 1000 idle cycles.
        let rows = [
            // The polls never leave the cache bus.
            (cache_bus_system(), 0, 0),
            // 1000 / 28 = 35 polls of 28 cycles.
            (memory_bus_system(), 0, 35 * 28),
            // 1000 / 48 = 20 polls of 48 I/O-bus cycles, but only 28
            // memory-bus cycles each, while a timed I/O-bus poll holds the
            // memory bus 48 (`blocking_read_holds_both_buses`). CHANGES.md
            // records this discrepancy as a FOUND line; mending it is a model
            // change.
            (io_bus_system(), 20 * 48, 20 * 28),
        ];
        for (mut sys, io, memory) in rows {
            let location = sys.device_location();
            sys.note_uncached_idle_polling(1000);
            assert_eq!(sys.io_bus().busy_cycles(), io, "{location}");
            assert_eq!(sys.memory_bus().busy_cycles(), memory, "{location}");
            assert_eq!(sys.io_bus().free_at(), 0, "{location}");
            assert_eq!(sys.memory_bus().free_at(), 0, "{location}");
        }
    }
}
