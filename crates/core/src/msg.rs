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

/// One user message in a node's software send buffer, cut into fragments
/// only as the NI takes them.
///
/// Fragment `i` of `n = fragments_for_bytes(bytes)` carries the next
/// `min(244, bytes left)` payload bytes; a 0-byte message is one 0-byte
/// fragment. [`OutgoingMsg::fragment`] cuts the head fragment without
/// consuming it, so a send the NI refuses leaves the cursor where it was;
/// [`OutgoingMsg::advance`] moves past an accepted one.
///
/// ```
/// use cni_core::msg::{AmMessage, OutgoingMsg};
/// use cni_net::message::NodeId;
///
/// let mut msg = OutgoingMsg::new(NodeId(0), NodeId(1), 7, AmMessage::new(3, 1000, vec![]));
/// assert_eq!(msg.fragments_left(), 5); // 1000 bytes / 244-byte fragments
/// let mut bytes = 0;
/// loop {
///     bytes += msg.fragment().payload_bytes;
///     if msg.advance() {
///         break;
///     }
/// }
/// assert_eq!(bytes, 1000);
/// ```
#[derive(Debug, Clone)]
pub struct OutgoingMsg {
    /// Destination node.
    pub dst: NodeId,
    /// Per-sender user-message identifier (for reassembly).
    msg_id: u64,
    /// Index of the head fragment, the next one offered to the NI.
    next: u32,
    /// Total number of fragments in the message.
    count: u32,
    /// Payload bytes not yet carried by an accepted fragment.
    remaining: usize,
    /// The message, shared by every fragment cut from it.
    message: Arc<AmMessage>,
}

impl OutgoingMsg {
    /// Stamps `message` as sent by `src` and buffers it whole, cursor on
    /// its first fragment.
    pub fn new(src: NodeId, dst: NodeId, msg_id: u64, mut message: AmMessage) -> Self {
        message.src = src;
        OutgoingMsg {
            dst,
            msg_id,
            next: 0,
            count: fragments_for_bytes(message.bytes) as u32,
            remaining: message.bytes,
            message: Arc::new(message),
        }
    }

    /// The head fragment, cut for the NI; the cursor does not move.
    pub fn fragment(&self) -> FragPayload {
        FragPayload {
            src: self.message.src,
            dst: self.dst,
            msg_id: self.msg_id,
            frag_index: self.next,
            frag_count: self.count,
            payload_bytes: self.remaining.min(NET_PAYLOAD_BYTES),
            message: Arc::clone(&self.message),
        }
    }

    /// Moves the cursor past the head fragment, once the NI accepted it.
    /// Returns `true` when that was the last one.
    pub fn advance(&mut self) -> bool {
        self.remaining -= self.remaining.min(NET_PAYLOAD_BYTES);
        self.next += 1;
        self.next == self.count
    }

    /// Fragments not yet accepted, the head included.
    pub fn fragments_left(&self) -> usize {
        (self.count - self.next) as usize
    }
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

    /// Every fragment of `msg`, cut and accepted in turn.
    fn fragments(mut msg: OutgoingMsg) -> Vec<FragPayload> {
        let mut frags = vec![msg.fragment()];
        while !msg.advance() {
            frags.push(msg.fragment());
        }
        frags
    }

    fn fragment_message(src: NodeId, dst: NodeId, msg_id: u64, msg: AmMessage) -> Vec<FragPayload> {
        fragments(OutgoingMsg::new(src, dst, msg_id, msg))
    }

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

    /// Fragment `i` of `count` carries `min(244, bytes - 244 * i)` bytes,
    /// the rule written out here apart from `OutgoingMsg`; a 0-byte
    /// message is one 0-byte fragment.
    #[test]
    fn fragments_follow_the_splitting_rule() {
        for bytes in [0usize, 1, 244, 245, 2048] {
            let count = bytes.div_ceil(NET_PAYLOAD_BYTES).max(1);
            let want: Vec<(u32, u32, usize)> = (0..count)
                .map(|i| {
                    let left = bytes - i * NET_PAYLOAD_BYTES;
                    (i as u32, count as u32, left.min(NET_PAYLOAD_BYTES))
                })
                .collect();
            let msg = OutgoingMsg::new(NodeId(0), NodeId(1), 4, AmMessage::new(0, bytes, vec![]));
            assert_eq!(msg.fragments_left(), count, "{bytes} B");
            let got: Vec<(u32, u32, usize)> = fragments(msg)
                .iter()
                .map(|f| (f.frag_index, f.frag_count, f.payload_bytes))
                .collect();
            assert_eq!(got, want, "{bytes} B");
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
