//! The NIiX / CNIiX taxonomy (§3, Table 1).
//!
//! The taxonomy is modelled after Agarwal et al.'s DiriX classification of
//! directory protocols. `NIiX` denotes a traditional (uncached) network
//! interface and `CNIiX` a coherent one; the subscript `i` is the amount of
//! NI queue exposed to the processor (in cache blocks, or 4-byte words with a
//! `w` suffix); the placeholder `X` is empty (no explicit queue pointers),
//! `Q` (memory-based queue with explicit head/tail pointers homed on the
//! device) or `Qm` (explicit queue homed in main memory).

use serde::{Deserialize, Serialize};

use cni_mem::addr::BlockHome;

/// How the exposed portion of the NI queue is managed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueuePointers {
    /// Only part or all of one message is exposed; reuse is managed with an
    /// explicit handshake (or clear-on-read for uncached devices).
    Implicit,
    /// The exposed queue is a memory-based circular queue with explicit head
    /// and tail pointers.
    Explicit,
}

/// Where the NI queue's backing storage lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueHome {
    /// The device itself (hardware FIFO or device SRAM).
    Device,
    /// Main memory (the `Qm` suffix).
    MainMemory,
}

impl QueueHome {
    /// The [`BlockHome`] used for coherence/writeback purposes.
    pub fn block_home(self) -> BlockHome {
        match self {
            QueueHome::Device => BlockHome::Device,
            QueueHome::MainMemory => BlockHome::Memory,
        }
    }
}

/// The five network interfaces evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NiKind {
    /// `NI2w` — CM-5-like NI exposing two uncached 4-byte words.
    Ni2w,
    /// `CNI4` — four cachable device-register blocks (one 256-byte network
    /// message), device-homed, explicit-handshake reuse.
    Cni4,
    /// `CNI16Q` — 16-block cachable queue, device-homed.
    Cni16Q,
    /// `CNI512Q` — 512-block cachable queue, device-homed.
    Cni512Q,
    /// `CNI16Qm` — 16-block device cache over a 512-block queue homed in
    /// main memory.
    Cni16Qm,
}

impl NiKind {
    /// All five devices in the order the paper lists them.
    pub const ALL: [NiKind; 5] = [
        NiKind::Ni2w,
        NiKind::Cni4,
        NiKind::Cni16Q,
        NiKind::Cni512Q,
        NiKind::Cni16Qm,
    ];

    /// The four coherent devices.
    pub const COHERENT: [NiKind; 4] = [
        NiKind::Cni4,
        NiKind::Cni16Q,
        NiKind::Cni512Q,
        NiKind::Cni16Qm,
    ];

    /// The device's specification (Table 1 row).
    pub const fn spec(self) -> NiSpec {
        match self {
            NiKind::Ni2w => NiSpec {
                kind: self,
                label: "NI2w",
                exposed_words: Some(2),
                exposed_blocks: None,
                queue_capacity_blocks: 16, // hardware FIFO: 4 network messages
                device_cache_blocks: None,
                pointers: QueuePointers::Implicit,
                home: QueueHome::Device,
            },
            NiKind::Cni4 => NiSpec {
                kind: self,
                label: "CNI4",
                exposed_words: None,
                exposed_blocks: Some(4),
                queue_capacity_blocks: 16, // one exposed message + device FIFO
                device_cache_blocks: Some(4),
                pointers: QueuePointers::Implicit,
                home: QueueHome::Device,
            },
            NiKind::Cni16Q => NiSpec {
                kind: self,
                label: "CNI16Q",
                exposed_words: None,
                exposed_blocks: Some(16),
                queue_capacity_blocks: 16,
                device_cache_blocks: Some(16),
                pointers: QueuePointers::Explicit,
                home: QueueHome::Device,
            },
            NiKind::Cni512Q => NiSpec {
                kind: self,
                label: "CNI512Q",
                exposed_words: None,
                exposed_blocks: Some(512),
                queue_capacity_blocks: 512,
                device_cache_blocks: Some(512),
                pointers: QueuePointers::Explicit,
                home: QueueHome::Device,
            },
            NiKind::Cni16Qm => NiSpec {
                kind: self,
                label: "CNI16Qm",
                exposed_words: None,
                exposed_blocks: Some(16),
                queue_capacity_blocks: 512,
                device_cache_blocks: Some(16),
                pointers: QueuePointers::Explicit,
                home: QueueHome::MainMemory,
            },
        }
    }

    /// Whether the device participates in the coherence protocol.
    pub fn is_coherent(self) -> bool {
        !matches!(self, NiKind::Ni2w)
    }

    /// Whether the device uses explicit memory-based queue pointers.
    pub fn uses_explicit_queues(self) -> bool {
        self.spec().pointers == QueuePointers::Explicit
    }

    /// Display label matching the paper's notation.
    pub fn label(self) -> &'static str {
        self.spec().label
    }

    /// Parses a label such as `"CNI16Qm"` (case-insensitive).
    pub fn parse(label: &str) -> Option<NiKind> {
        let lower = label.to_ascii_lowercase();
        NiKind::ALL
            .into_iter()
            .find(|k| k.label().to_ascii_lowercase() == lower)
    }
}

impl std::fmt::Display for NiKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A row of Table 1 plus the derived device parameters used by the models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NiSpec {
    /// Which device this describes.
    pub kind: NiKind,
    /// The paper's label.
    pub label: &'static str,
    /// Exposed queue size in 4-byte words (only for `NI2w`).
    pub exposed_words: Option<usize>,
    /// Exposed queue size in 64-byte cache blocks (for coherent devices).
    pub exposed_blocks: Option<usize>,
    /// Total per-direction queue capacity in blocks used for flow control.
    pub queue_capacity_blocks: usize,
    /// Device cache size in blocks (None for uncached devices).
    pub device_cache_blocks: Option<usize>,
    /// Queue pointer management.
    pub pointers: QueuePointers,
    /// Queue home.
    pub home: QueueHome,
}

impl NiSpec {
    /// Per-direction queue capacity expressed in 256-byte network messages
    /// (four blocks per message).
    pub fn queue_capacity_messages(&self) -> usize {
        (self.queue_capacity_blocks / 4).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_rows() {
        let ni2w = NiKind::Ni2w.spec();
        assert_eq!(ni2w.exposed_words, Some(2));
        assert_eq!(ni2w.pointers, QueuePointers::Implicit);
        assert_eq!(ni2w.home, QueueHome::Device);
        assert!(!NiKind::Ni2w.is_coherent());

        let cni4 = NiKind::Cni4.spec();
        assert_eq!(cni4.exposed_blocks, Some(4));
        assert_eq!(cni4.pointers, QueuePointers::Implicit);

        let cni16q = NiKind::Cni16Q.spec();
        assert_eq!(cni16q.exposed_blocks, Some(16));
        assert_eq!(cni16q.pointers, QueuePointers::Explicit);
        assert_eq!(cni16q.home, QueueHome::Device);

        let cni512q = NiKind::Cni512Q.spec();
        assert_eq!(cni512q.exposed_blocks, Some(512));
        assert_eq!(cni512q.queue_capacity_messages(), 128);

        let qm = NiKind::Cni16Qm.spec();
        assert_eq!(qm.device_cache_blocks, Some(16));
        assert_eq!(qm.queue_capacity_blocks, 512);
        assert_eq!(qm.home, QueueHome::MainMemory);
        assert_eq!(qm.home.block_home(), cni_mem::addr::BlockHome::Memory);
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for kind in NiKind::ALL {
            assert_eq!(NiKind::parse(kind.label()), Some(kind));
            assert_eq!(NiKind::parse(&kind.label().to_lowercase()), Some(kind));
        }
        assert_eq!(NiKind::parse("NI128Q"), None);
    }

    #[test]
    fn coherent_set_excludes_ni2w() {
        assert!(!NiKind::COHERENT.contains(&NiKind::Ni2w));
        for kind in NiKind::COHERENT {
            assert!(kind.is_coherent());
        }
    }

    #[test]
    fn explicit_queue_devices() {
        assert!(!NiKind::Ni2w.uses_explicit_queues());
        assert!(!NiKind::Cni4.uses_explicit_queues());
        assert!(NiKind::Cni16Q.uses_explicit_queues());
        assert!(NiKind::Cni512Q.uses_explicit_queues());
        assert!(NiKind::Cni16Qm.uses_explicit_queues());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(NiKind::Cni16Qm.to_string(), "CNI16Qm");
        assert_eq!(NiKind::Ni2w.to_string(), "NI2w");
    }
}
