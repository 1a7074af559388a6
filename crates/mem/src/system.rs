//! Per-node memory system: processor cache + device cache + buses + bridge.
//!
//! [`NodeMemSystem`] is the substrate the NI device models drive. Every
//! processor-side and device-side access is decomposed into MOESI state
//! changes (handled by [`crate::moesi::Cache`]) and bus transactions (charged
//! on [`crate::bus::Bus`] timelines using the Table 2 occupancies in
//! [`crate::timing::TimingConfig`]).
//!
//! There is one `NodeMemSystem` per simulated node. The two caches it manages
//! are the 256 KB processor cache and, for coherent NIs, the CNI device
//! cache; uncached NIs (`NI2w`) have no device cache and only use the
//! uncached-access operations.

use serde::{Deserialize, Serialize};

use cni_sim::time::Cycle;

use crate::addr::{BlockAddr, BlockHome};
use crate::bridge::{Bridge, BridgeInitiator, BridgeMode, BridgeStats};
use crate::bus::{Bus, BusKind};
use crate::moesi::{AccessOutcome, Cache, MoesiState};
use crate::timing::TimingConfig;

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

impl DeviceLocation {
    /// The bus kind used for timing lookups of device accesses.
    pub fn bus_kind(self) -> BusKind {
        match self {
            DeviceLocation::CacheBus => BusKind::CacheBus,
            DeviceLocation::MemoryBus => BusKind::MemoryBus,
            DeviceLocation::IoBus => BusKind::IoBus,
        }
    }
}

impl std::fmt::Display for DeviceLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.bus_kind())
    }
}

/// Processor cache capacity in bytes (256 KB, §4.1).
pub const PROC_CACHE_BYTES: usize = 256 * 1024;

/// Configuration of a node's memory system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMemConfig {
    /// Processor cache capacity in bytes ([`PROC_CACHE_BYTES`] in the
    /// paper's machine).
    pub proc_cache_bytes: usize,
    /// Device (CNI) cache capacity in 64-byte blocks; `None` for uncached NIs.
    pub device_cache_blocks: Option<usize>,
    /// Where the device sits.
    pub device_location: DeviceLocation,
    /// Cost model.
    pub timing: TimingConfig,
    /// Whether the processor cache snarfs device writebacks it observes on
    /// the memory bus (§5.1.2).
    pub snarfing: bool,
}

impl Default for NodeMemConfig {
    fn default() -> Self {
        NodeMemConfig {
            proc_cache_bytes: PROC_CACHE_BYTES,
            device_cache_blocks: Some(16),
            device_location: DeviceLocation::MemoryBus,
            timing: TimingConfig::isca96(),
            snarfing: false,
        }
    }
}

/// The per-node memory system.
#[derive(Debug)]
pub struct NodeMemSystem {
    cfg: NodeMemConfig,
    proc_cache: Cache,
    dev_cache: Option<Cache>,
    memory_bus: Bus,
    io_bus: Bus,
    bridge: Bridge,
}

impl Clone for NodeMemSystem {
    fn clone(&self) -> Self {
        NodeMemSystem {
            cfg: self.cfg.clone(),
            proc_cache: self.proc_cache.clone(),
            dev_cache: self.dev_cache.clone(),
            memory_bus: self.memory_bus.clone(),
            io_bus: self.io_bus.clone(),
            bridge: self.bridge.clone(),
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
        let proc_cache = Cache::new("proc", cfg.proc_cache_bytes);
        let dev_cache = cfg
            .device_cache_blocks
            .map(|blocks| Cache::new("device", blocks * crate::addr::CACHE_BLOCK_BYTES));
        NodeMemSystem {
            proc_cache,
            dev_cache,
            memory_bus: Bus::new(BusKind::MemoryBus),
            io_bus: Bus::new(BusKind::IoBus),
            bridge: Bridge::new(),
            cfg,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &NodeMemConfig {
        &self.cfg
    }

    /// The cost model in use.
    pub fn timing(&self) -> &TimingConfig {
        &self.cfg.timing
    }

    /// Where the device sits.
    pub fn device_location(&self) -> DeviceLocation {
        self.cfg.device_location
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
    /// [`Cache::sync_into`]), the buses and bridge are cloned. Returns the
    /// bytes of cache sets copied.
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
    /// [`Cache::rewind_from`]), the buses and bridge are cloned.
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
            cfg,
            proc_cache: _,
            dev_cache: _,
            memory_bus,
            io_bus,
            bridge,
        } = source;
        self.cfg.clone_from(cfg);
        self.memory_bus.clone_from(memory_bus);
        self.io_bus.clone_from(io_bus);
        self.bridge.clone_from(bridge);
    }

    /// Read-only access to the memory bus (occupancy statistics).
    pub fn memory_bus(&self) -> &Bus {
        &self.memory_bus
    }

    /// Read-only access to the I/O bus (occupancy statistics).
    pub fn io_bus(&self) -> &Bus {
        &self.io_bus
    }

    /// Bridge statistics.
    pub fn bridge_stats(&self) -> BridgeStats {
        self.bridge.stats()
    }

    /// Accounts for `idle_cycles` of processor spin-polling on an *uncached*
    /// NI status register while the node had nothing else to do.
    ///
    /// The machine model fast-forwards idle periods instead of simulating
    /// every poll; this method charges the bus occupancy those polls would
    /// have generated (one uncached load back-to-back) so that the §5.2
    /// memory-bus-occupancy comparison remains faithful. It never advances
    /// the bus timeline. Cached polling (the CQ-based CNIs) generates no bus
    /// traffic and needs no equivalent.
    pub fn note_uncached_idle_polling(&mut self, idle_cycles: Cycle) {
        if idle_cycles == 0 {
            return;
        }
        let t = self.cfg.timing;
        match self.cfg.device_location {
            DeviceLocation::CacheBus => {}
            DeviceLocation::MemoryBus => {
                let per = t.uncached_load(BusKind::MemoryBus);
                let polls = idle_cycles / per.max(1);
                self.memory_bus.record_untimed("idle_poll", polls * per);
            }
            DeviceLocation::IoBus => {
                let per = t.uncached_load(BusKind::IoBus);
                let polls = idle_cycles / per.max(1);
                self.io_bus.record_untimed("idle_poll", polls * per);
                self.memory_bus
                    .record_untimed("idle_poll", polls * t.uncached_load(BusKind::MemoryBus));
            }
        }
    }

    // ------------------------------------------------------------------
    // Uncached (device-register) accesses
    // ------------------------------------------------------------------

    /// Processor uncached 8-byte load from an NI device register.
    ///
    /// Returns the cycle at which the load's value is available to the
    /// processor (loads always stall).
    pub fn proc_uncached_load(&mut self, now: Cycle) -> Cycle {
        let t = self.cfg.timing;
        match self.cfg.device_location {
            DeviceLocation::CacheBus => now + t.uncached_load(BusKind::CacheBus),
            DeviceLocation::MemoryBus => {
                self.memory_bus
                    .occupy(now, t.uncached_load(BusKind::MemoryBus), "uncached_load")
                    .end
            }
            DeviceLocation::IoBus => {
                self.bridge
                    .bridged(
                        BridgeInitiator::MemorySide,
                        BridgeMode::Blocking,
                        now,
                        t.uncached_load(BusKind::IoBus),
                        t.uncached_load(BusKind::MemoryBus),
                        &mut self.memory_bus,
                        &mut self.io_bus,
                        &t,
                        "uncached_load",
                    )
                    .end
            }
        }
    }

    /// Processor uncached 8-byte store to an NI device register.
    ///
    /// Returns the cycle at which the store is visible at the device. The
    /// caller models store-buffer behaviour: for fire-and-forget control
    /// stores the processor may proceed earlier; for stores followed by a
    /// memory barrier it must wait for the returned cycle.
    pub fn proc_uncached_store(&mut self, now: Cycle) -> Cycle {
        let t = self.cfg.timing;
        match self.cfg.device_location {
            DeviceLocation::CacheBus => now + t.uncached_store(BusKind::CacheBus),
            DeviceLocation::MemoryBus => {
                self.memory_bus
                    .occupy(now, t.uncached_store(BusKind::MemoryBus), "uncached_store")
                    .end
            }
            DeviceLocation::IoBus => {
                self.bridge
                    .bridged(
                        BridgeInitiator::MemorySide,
                        BridgeMode::Buffered,
                        now,
                        t.uncached_store(BusKind::IoBus),
                        t.uncached_store(BusKind::MemoryBus),
                        &mut self.memory_bus,
                        &mut self.io_bus,
                        &t,
                        "uncached_store",
                    )
                    .end
            }
        }
    }

    // ------------------------------------------------------------------
    // Processor coherent accesses
    // ------------------------------------------------------------------

    /// Processor coherent load of `block` whose home is `home`.
    ///
    /// Returns the cycle at which the data is available.
    pub fn proc_cached_read(&mut self, now: Cycle, block: BlockAddr, home: BlockHome) -> Cycle {
        let t = self.cfg.timing;
        match self.proc_cache.classify_read(block) {
            AccessOutcome::Hit => {
                self.proc_cache.note_hit();
                now + t.cache_hit
            }
            _ => {
                // Who supplies the data?
                let device_supplies = self
                    .dev_cache
                    .as_mut()
                    .map(|c| c.snoop_read(block).supplies_data)
                    .unwrap_or(false);
                let done = if device_supplies || home == BlockHome::Device {
                    self.device_to_proc_transfer(now, "c2c_from_device")
                } else {
                    // From main memory on the memory bus.
                    self.memory_bus
                        .occupy(now, t.memory_transfer, "memory_read")
                        .end
                };
                let fill_state = if device_supplies {
                    MoesiState::Shared
                } else {
                    MoesiState::Exclusive
                };
                let eviction = self.proc_cache.fill(block, fill_state, home);

                self.handle_proc_eviction(done, eviction)
            }
        }
    }

    /// Processor coherent store to `block` whose home is `home`
    /// (write-allocate).
    ///
    /// Returns the cycle at which the store has retired (ownership obtained).
    pub fn proc_cached_write(&mut self, now: Cycle, block: BlockAddr, home: BlockHome) -> Cycle {
        let t = self.cfg.timing;
        match self.proc_cache.classify_write(block) {
            AccessOutcome::Hit => {
                self.proc_cache.note_hit();
                self.proc_cache.set_state(block, MoesiState::Modified);
                now + t.cache_hit
            }
            AccessOutcome::UpgradeMiss => {
                // Address-only invalidation; the device copy (if any) is
                // invalidated by the snoop.
                if let Some(dev) = self.dev_cache.as_mut() {
                    dev.snoop_invalidate(block);
                }
                let done = self.invalidate_transaction(now, "proc_upgrade");
                self.proc_cache.upgrade_to_modified(block);
                done
            }
            AccessOutcome::Miss => {
                // Read-exclusive: fetch the data and invalidate other copies.
                let device_supplied = self
                    .dev_cache
                    .as_mut()
                    .map(|c| c.snoop_invalidate(block).supplies_data)
                    .unwrap_or(false);
                let done = if device_supplied || home == BlockHome::Device {
                    self.device_to_proc_transfer(now, "c2c_from_device")
                } else {
                    self.memory_bus
                        .occupy(now, t.memory_transfer, "memory_read_excl")
                        .end
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
        let t = self.cfg.timing;
        assert!(
            self.cfg.device_location != DeviceLocation::CacheBus,
            "cache-bus devices perform no coherent transactions"
        );
        if let Some(dev) = self.dev_cache.as_ref() {
            if dev.lookup(block).is_valid() {
                return now + t.cache_hit;
            }
        }
        let proc_supplies = self.proc_cache.snoop_read(block).supplies_data;
        let done = if proc_supplies {
            self.proc_to_device_transfer(now, "c2c_to_device")
        } else {
            match home {
                BlockHome::Memory => self.memory_to_device_transfer(now, "device_memory_read"),
                // Device-homed data not in the device cache lives in the
                // device's own backing store: no bus transaction.
                BlockHome::Device => now + t.cache_hit,
            }
        };
        if self.dev_cache.is_some() {
            let eviction = {
                let dev = self.dev_cache.as_mut().expect("device cache present");
                dev.fill(block, MoesiState::Shared, home)
            };
            return self.handle_device_eviction(done, eviction);
        }
        done
    }

    /// The CNI device obtains an exclusive (writable) copy of `block`,
    /// invalidating the processor's copy — used when the device writes an
    /// incoming message into a receive-queue block.
    ///
    /// Returns the cycle at which the device owns the block.
    pub fn device_write_block(&mut self, now: Cycle, block: BlockAddr, home: BlockHome) -> Cycle {
        let t = self.cfg.timing;
        assert!(
            self.cfg.device_location != DeviceLocation::CacheBus,
            "cache-bus devices perform no coherent transactions"
        );
        if let Some(dev) = self.dev_cache.as_ref() {
            if dev.lookup(block).can_write_silently() {
                let dev = self.dev_cache.as_mut().expect("device cache present");
                dev.set_state(block, MoesiState::Modified);
                return now + t.cache_hit;
            }
        }
        let proc_action = self.proc_cache.snoop_invalidate(block);
        let done = if proc_action.was_dirty {
            // The dirty data travels to the device with the invalidating
            // transaction (read-exclusive).
            self.proc_to_device_transfer(now, "c2c_to_device_excl")
        } else if proc_action.prev.is_valid() {
            // Address-only invalidation of a clean processor copy.
            self.invalidate_transaction(now, "device_invalidate")
        } else {
            match home {
                // The device still must obtain ownership from the home.
                BlockHome::Memory => self.invalidate_transaction(now, "device_ownership"),
                BlockHome::Device => now + t.cache_hit,
            }
        };
        if self.dev_cache.is_some() {
            let eviction = {
                let dev = self.dev_cache.as_mut().expect("device cache present");
                dev.fill(block, MoesiState::Modified, home)
            };
            return self.handle_device_eviction(done, eviction);
        }
        done
    }

    // ------------------------------------------------------------------
    // Internal transfer helpers
    // ------------------------------------------------------------------

    fn device_to_proc_transfer(&mut self, now: Cycle, kind: &'static str) -> Cycle {
        let t = self.cfg.timing;
        match self.cfg.device_location {
            DeviceLocation::MemoryBus => {
                self.memory_bus
                    .occupy(now, t.c2c_from_device(BusKind::MemoryBus), kind)
                    .end
            }
            DeviceLocation::IoBus => {
                self.bridge
                    .bridged(
                        BridgeInitiator::MemorySide,
                        BridgeMode::Blocking,
                        now,
                        t.c2c_from_device(BusKind::IoBus),
                        t.c2c_from_device(BusKind::MemoryBus),
                        &mut self.memory_bus,
                        &mut self.io_bus,
                        &t,
                        kind,
                    )
                    .end
            }
            DeviceLocation::CacheBus => unreachable!("checked by callers"),
        }
    }

    fn proc_to_device_transfer(&mut self, now: Cycle, kind: &'static str) -> Cycle {
        let t = self.cfg.timing;
        match self.cfg.device_location {
            DeviceLocation::MemoryBus => {
                self.memory_bus
                    .occupy(now, t.c2c_to_device(BusKind::MemoryBus), kind)
                    .end
            }
            DeviceLocation::IoBus => {
                self.bridge
                    .bridged(
                        BridgeInitiator::IoSide,
                        BridgeMode::Blocking,
                        now,
                        t.c2c_to_device(BusKind::IoBus),
                        t.c2c_to_device(BusKind::MemoryBus),
                        &mut self.memory_bus,
                        &mut self.io_bus,
                        &t,
                        kind,
                    )
                    .end
            }
            DeviceLocation::CacheBus => unreachable!("checked by callers"),
        }
    }

    fn memory_to_device_transfer(&mut self, now: Cycle, kind: &'static str) -> Cycle {
        let t = self.cfg.timing;
        match self.cfg.device_location {
            DeviceLocation::MemoryBus => self.memory_bus.occupy(now, t.memory_transfer, kind).end,
            DeviceLocation::IoBus => {
                self.bridge
                    .bridged(
                        BridgeInitiator::IoSide,
                        BridgeMode::Blocking,
                        now,
                        t.c2c_from_device(BusKind::IoBus),
                        t.memory_transfer,
                        &mut self.memory_bus,
                        &mut self.io_bus,
                        &t,
                        kind,
                    )
                    .end
            }
            DeviceLocation::CacheBus => unreachable!("checked by callers"),
        }
    }

    fn invalidate_transaction(&mut self, now: Cycle, kind: &'static str) -> Cycle {
        let t = self.cfg.timing;
        match self.cfg.device_location {
            DeviceLocation::CacheBus | DeviceLocation::MemoryBus => {
                self.memory_bus
                    .occupy(now, t.invalidate(BusKind::MemoryBus), kind)
                    .end
            }
            DeviceLocation::IoBus => {
                self.bridge
                    .bridged(
                        BridgeInitiator::MemorySide,
                        BridgeMode::Buffered,
                        now,
                        t.invalidate(BusKind::IoBus),
                        t.invalidate(BusKind::MemoryBus),
                        &mut self.memory_bus,
                        &mut self.io_bus,
                        &t,
                        kind,
                    )
                    .end
            }
        }
    }

    fn writeback_from_device(&mut self, now: Cycle, block: BlockAddr, home: BlockHome) -> Cycle {
        let t = self.cfg.timing;
        let done = match home {
            BlockHome::Device => now, // internal to the device, free
            BlockHome::Memory => match self.cfg.device_location {
                DeviceLocation::MemoryBus => {
                    self.memory_bus
                        .occupy(now, t.memory_transfer, "device_writeback")
                        .end
                }
                DeviceLocation::IoBus => {
                    self.bridge
                        .bridged(
                            BridgeInitiator::IoSide,
                            BridgeMode::Buffered,
                            now,
                            t.c2c_to_device(BusKind::IoBus),
                            t.memory_transfer,
                            &mut self.memory_bus,
                            &mut self.io_bus,
                            &t,
                            "device_writeback",
                        )
                        .end
                }
                DeviceLocation::CacheBus => unreachable!("checked by callers"),
            },
        };
        // Data snarfing (§5.1.2): the processor cache grabs device writebacks
        // it observes on the memory bus if it still has a matching invalid
        // tag. Only meaningful for memory-homed blocks.
        if self.cfg.snarfing && home == BlockHome::Memory {
            self.proc_cache.snarf_fill(block, home);
        }
        done
    }

    fn handle_proc_eviction(
        &mut self,
        now: Cycle,
        eviction: Option<crate::moesi::Eviction>,
    ) -> Cycle {
        let t = self.cfg.timing;
        match eviction {
            Some(ev) if ev.needs_writeback() => match ev.home {
                BlockHome::Memory => {
                    self.memory_bus
                        .occupy(now, t.memory_transfer, "proc_writeback")
                        .end
                }
                BlockHome::Device => self.proc_to_device_transfer(now, "proc_writeback_to_device"),
            },
            _ => now,
        }
    }

    fn handle_device_eviction(
        &mut self,
        now: Cycle,
        eviction: Option<crate::moesi::Eviction>,
    ) -> Cycle {
        match eviction {
            Some(ev) if ev.needs_writeback() => self.writeback_from_device(now, ev.block, ev.home),
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

    #[test]
    fn device_cache_overflow_writes_back_to_memory_home() {
        // A 16-block device cache receiving 17 distinct memory-homed blocks
        // must write back a dirty victim.
        let mut sys = memory_bus_system();
        let mut now = 0;
        for i in 0..17u64 {
            now = sys.device_write_block(now, BlockAddr(i), BlockHome::Memory);
        }
        let dev = sys.device_cache().unwrap();
        assert!(
            dev.writebacks() >= 1,
            "expected at least one overflow writeback"
        );
        assert!(sys.memory_bus().occupancy().count_for("device_writeback") >= 1);
    }

    #[test]
    fn device_homed_overflow_is_free_of_bus_traffic() {
        let mut sys = memory_bus_system();
        let mut now = 0;
        for i in 0..17u64 {
            now = sys.device_write_block(now, BlockAddr(i), BlockHome::Device);
        }
        assert_eq!(
            sys.memory_bus().occupancy().count_for("device_writeback"),
            0
        );
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
}
