//! The user-level messaging layer.
//!
//! All five macrobenchmarks (and the microbenchmarks) are written against a
//! small messaging interface modelled on the paper's use of Tempest active
//! messages (§4.1): a user message names a destination node, a handler and a
//! payload; the layer fragments it into 256-byte network messages (244
//! payload bytes each after the 12-byte header), moves the fragments through
//! the NI, and reassembles them at the destination before invoking the
//! handler.
//!
//! The types in this module are pure data structures — the timing of every
//! operation is charged by the machine model in [`crate::machine`]. Keeping
//! them separate makes them easy to unit test and reuse.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cni_net::message::{fragments_for_bytes, NodeId, NET_PAYLOAD_BYTES};
use cni_nic::frag::Payload;

/// Identifies the handler a message should be dispatched to at the receiver.
pub type HandlerId = u16;

/// A user-level (active) message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmMessage {
    /// Sending node (filled in by the messaging layer).
    pub src: NodeId,
    /// Receiver-side handler to invoke.
    pub handler: HandlerId,
    /// Logical payload size in bytes (drives fragmentation and timing).
    pub bytes: usize,
    /// Small inline data words carried for the workload's logic (node ids,
    /// values, ...). These are part of the payload, not in addition to it.
    pub data: Vec<u64>,
}

impl AmMessage {
    /// Creates a message with the given handler, logical size and inline
    /// data.
    pub fn new(handler: HandlerId, bytes: usize, data: Vec<u64>) -> Self {
        AmMessage {
            src: NodeId(0),
            handler,
            bytes,
            data,
        }
    }
}

/// One network message's worth of a user message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragPayload {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Per-sender user-message identifier (for reassembly).
    pub msg_id: u64,
    /// Index of this fragment within the user message.
    pub frag_index: u32,
    /// Total number of fragments in the user message.
    pub frag_count: u32,
    /// User payload bytes carried by this fragment (≤ 244).
    pub payload_bytes: usize,
    /// The full user message, shared by every fragment (the simulator does
    /// not split actual bytes — timing uses `payload_bytes`).
    pub message: Arc<AmMessage>,
}

/// The NI queues hold fragments themselves.
impl Payload for FragPayload {
    fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }
}

/// Splits a user message into per-network-message fragments.
///
/// ```
/// use cni_core::msg::{fragment_message, AmMessage};
/// use cni_net::message::NodeId;
///
/// let msg = AmMessage::new(3, 1000, vec![]);
/// let frags = fragment_message(NodeId(0), NodeId(1), 7, msg);
/// assert_eq!(frags.len(), 5); // 1000 bytes / 244-byte fragments
/// assert_eq!(frags.iter().map(|f| f.payload_bytes).sum::<usize>(), 1000);
/// ```
pub fn fragment_message(
    src: NodeId,
    dst: NodeId,
    msg_id: u64,
    message: AmMessage,
) -> Vec<FragPayload> {
    let mut frags = Vec::with_capacity(fragments_for_bytes(message.bytes));
    fragment_message_with(src, dst, msg_id, message, |frag| frags.push(frag));
    frags
}

/// Splits a user message into fragments, handing each to `sink` — the
/// allocation-free core of [`fragment_message`], used by the machine's send
/// path to append fragments straight into a node's software send buffer
/// without materialising an intermediate `Vec` per message.
///
/// Returns the number of fragments produced.
pub fn fragment_message_with(
    src: NodeId,
    dst: NodeId,
    msg_id: u64,
    mut message: AmMessage,
    mut sink: impl FnMut(FragPayload),
) -> usize {
    message.src = src;
    let total = message.bytes;
    let count = fragments_for_bytes(total);
    let shared = Arc::new(message);
    let mut remaining = total;
    for i in 0..count {
        let payload_bytes = remaining
            .min(NET_PAYLOAD_BYTES)
            .max(if total == 0 { 0 } else { 1 });
        remaining = remaining.saturating_sub(payload_bytes);
        sink(FragPayload {
            src,
            dst,
            msg_id,
            frag_index: i as u32,
            frag_count: count as u32,
            payload_bytes,
            message: Arc::clone(&shared),
        });
    }
    count
}

/// Reassembles fragments back into user messages at the receiver.
#[derive(Debug, Default)]
pub struct Assembler {
    partial: HashMap<(NodeId, u64), (u32, Arc<AmMessage>)>,
}

impl Clone for Assembler {
    fn clone(&self) -> Self {
        Assembler {
            partial: self.partial.clone(),
        }
    }

    /// Copies into `self`'s existing table.
    fn clone_from(&mut self, source: &Self) {
        self.partial.clone_from(&source.partial);
    }
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts one fragment; returns the completed message when the last
    /// fragment of a user message arrives.
    ///
    /// The fragment is consumed: when the final fragment's arrival leaves the
    /// assembler holding the only reference to the shared message, the
    /// message is moved out instead of cloned, so steady-state reassembly
    /// never copies payload data.
    pub fn push(&mut self, frag: FragPayload) -> Option<AmMessage> {
        let key = (frag.src, frag.msg_id);
        let frag_count = frag.frag_count;
        let FragPayload { message, .. } = frag;
        if frag_count <= 1 {
            // Complete on arrival: message ids are unique per sender, and
            // reliable delivery discards duplicates before reassembly.
            return Some(unshare(message));
        }
        let arrived = match self.partial.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Drop this fragment's reference before the completion check
                // so `unshare` below can move the message out.
                drop(message);
                let e = e.get_mut();
                e.0 += 1;
                e.0
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((1, message));
                1
            }
        };
        if arrived >= frag_count {
            let (_, msg) = self.partial.remove(&key).expect("entry just updated");
            Some(unshare(msg))
        } else {
            None
        }
    }
}

/// The message, moved out when no other fragment still shares it.
fn unshare(msg: Arc<AmMessage>) -> AmMessage {
    Arc::try_unwrap(msg).unwrap_or_else(|shared| AmMessage::clone(&shared))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_are_a_single_fragment() {
        let frags = fragment_message(NodeId(0), NodeId(1), 0, AmMessage::new(1, 12, vec![7]));
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].payload_bytes, 12);
        assert_eq!(frags[0].frag_count, 1);
        assert_eq!(frags[0].message.data, vec![7]);
        assert_eq!(frags[0].src, NodeId(0));
        assert_eq!(frags[0].message.src, NodeId(0));
    }

    #[test]
    fn zero_byte_messages_still_produce_one_fragment() {
        let frags = fragment_message(NodeId(2), NodeId(3), 1, AmMessage::new(0, 0, vec![]));
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].payload_bytes, 0);
    }

    #[test]
    fn large_messages_fragment_and_preserve_total_bytes() {
        for bytes in [245, 488, 2048, 4096] {
            let frags = fragment_message(NodeId(0), NodeId(1), 9, AmMessage::new(2, bytes, vec![]));
            assert_eq!(frags.len(), fragments_for_bytes(bytes));
            assert_eq!(frags.iter().map(|f| f.payload_bytes).sum::<usize>(), bytes);
            assert!(frags.iter().all(|f| f.payload_bytes <= NET_PAYLOAD_BYTES));
            for (i, f) in frags.iter().enumerate() {
                assert_eq!(f.frag_index, i as u32);
                assert_eq!(f.frag_count, frags.len() as u32);
            }
        }
    }

    #[test]
    fn assembler_completes_only_after_every_fragment() {
        let mut asm = Assembler::new();
        let frags = fragment_message(NodeId(4), NodeId(0), 3, AmMessage::new(9, 1000, vec![1]));
        let n = frags.len();
        let again = frags.clone();
        for (i, frag) in frags.into_iter().enumerate() {
            let result = asm.push(frag);
            if i + 1 < n {
                assert!(result.is_none());
            } else {
                let msg = result.expect("last fragment completes the message");
                assert_eq!(msg.handler, 9);
                assert_eq!(msg.bytes, 1000);
                assert_eq!(msg.src, NodeId(4));
            }
        }
        // The completed message left nothing behind: the same fragments
        // arriving again assemble a second copy only at their last one.
        let mut results = again.into_iter().map(|frag| asm.push(frag).is_some());
        assert!(results.by_ref().take(n - 1).all(|done| !done));
        assert_eq!(results.next(), Some(true));
    }

    #[test]
    fn assembler_handles_interleaved_senders() {
        let mut asm = Assembler::new();
        let a = fragment_message(NodeId(1), NodeId(0), 0, AmMessage::new(1, 500, vec![]));
        let b = fragment_message(NodeId(2), NodeId(0), 0, AmMessage::new(2, 500, vec![]));
        // Interleave fragments from the two senders.
        let mut done = 0;
        for (fa, fb) in a.into_iter().zip(b) {
            if asm.push(fa).is_some() {
                done += 1;
            }
            if asm.push(fb).is_some() {
                done += 1;
            }
        }
        assert_eq!(done, 2);
    }
}
