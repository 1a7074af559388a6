//! Node identities and the fixed-size network message format.

use serde::{Deserialize, Serialize};

/// Total size of a network message on the wire (§4.1).
pub const NET_MESSAGE_BYTES: usize = 256;

/// Header overhead carried by every network message (§5.1, footnote 2).
pub const NET_HEADER_BYTES: usize = 12;

/// User payload capacity of one network message.
pub const NET_PAYLOAD_BYTES: usize = NET_MESSAGE_BYTES - NET_HEADER_BYTES;

/// Identity of a node in the parallel machine (the paper simulates 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The node's index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// Number of 256-byte network messages needed to carry `user_bytes` of user
/// payload, accounting for the 12-byte per-message header.
///
/// ```
/// use cni_net::message::fragments_for_bytes;
/// assert_eq!(fragments_for_bytes(0), 1);
/// assert_eq!(fragments_for_bytes(8), 1);
/// assert_eq!(fragments_for_bytes(244), 1);
/// assert_eq!(fragments_for_bytes(245), 2);
/// assert_eq!(fragments_for_bytes(4096), 17);
/// ```
pub fn fragments_for_bytes(user_bytes: usize) -> usize {
    user_bytes.div_ceil(NET_PAYLOAD_BYTES).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_capacity_is_244_bytes() {
        assert_eq!(NET_PAYLOAD_BYTES, 244);
    }

    #[test]
    fn fragment_counts_match_the_papers_footnote() {
        // The microbenchmarks send user messages of 8..4096 bytes; each
        // network message carries at most 244 user bytes.
        assert_eq!(fragments_for_bytes(64), 1);
        assert_eq!(fragments_for_bytes(256), 2);
        assert_eq!(fragments_for_bytes(488), 2);
        assert_eq!(fragments_for_bytes(489), 3);
        assert_eq!(fragments_for_bytes(2048), 9);
    }

    #[test]
    fn node_id_display_and_conversion() {
        let n: NodeId = 3usize.into();
        assert_eq!(n.index(), 3);
        assert_eq!(n.to_string(), "n3");
    }
}
