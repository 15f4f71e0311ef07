//! The protocol's wire vocabulary.
//!
//! Every message is addressed processor-to-processor and carries `O(log n)`
//! bits: node names, virtual-node keys ([`VKey`]), or one [`WireTree`]
//! description. Bulk transfers (fragment collections, buckets) are chunked
//! into one message per tree so the Lemma 4 `O(log n)` message-size claim
//! stays observable — [`Payload::bits`] is what E3 reports.

use fg_core::plan::{JoinStep, WireTree};
use fg_core::{Slot, VKey};
use fg_graph::NodeId;

/// Where a described/collected tree is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// A shatter fragment, identified by its seed key; trees accumulate at
    /// the seed's owner.
    Fragment(VKey),
    /// A `BT_v` merge in progress, identified by the merging anchor.
    Merge(VKey),
}

impl Target {
    pub(crate) fn owner(self) -> NodeId {
        match self {
            Target::Fragment(k) | Target::Merge(k) => k.owner(),
        }
    }
}

/// One protocol message's payload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Payload {
    /// "Your virtual node `key` has a removed descendant" — climbs from the
    /// victim's neighbourhood to the tree root (the shatter pre-pass).
    TaintUp { key: VKey },
    /// "Your parent was freed; you now head fragment `frag`" — the shatter
    /// walk descending through red nodes.
    Detach { key: VKey, frag: VKey },
    /// "Anchor `anchor` sits in fragment `frag`" — reported to the
    /// fragment's seed so it can route the bucket to the smallest anchor.
    AnchorFrag { anchor: VKey, frag: VKey },
    /// "Fill in your leaf's parent pointer and forward this tree
    /// description" — sent to the representative's owner, which alone
    /// knows the representative's current parent.
    Describe {
        target: Target,
        root: VKey,
        size: u32,
        height: u32,
        rep: Slot,
        last: bool,
    },
    /// A completed tree description arriving at its collector.
    CollectTree {
        target: Target,
        tree: WireTree,
        last: bool,
    },
    /// One tree of a fragment's bucket, delivered to the smallest anchor.
    BucketTree { anchor: VKey, tree: WireTree },
    /// "Create the helper for this join" — one `ComputeHaft` plan step,
    /// sent to the simulator slot's owner.
    MakeHelper { step: JoinStep },
    /// "Your virtual node `key` now hangs under `parent`."
    SetParent { key: VKey, parent: VKey },
    /// "You head a haft to be stripped; emit parts to `collector` and
    /// forward down the right spine."
    Strip { root: VKey, collector: VKey },
    /// "You were detached as a (complete) strip part; describe yourself to
    /// `collector`."
    StripDetach { key: VKey, collector: VKey },
    /// A `BT_v` child position reporting its merged haft (or `None` if its
    /// whole subtree was empty) to the parent `anchor`.
    HaftUp {
        anchor: VKey,
        haft: Option<WireTree>,
    },
}

impl Payload {
    /// Delivery priority inside one round: helper creation must land
    /// before parent pointers or strips that reference the new node, and a
    /// strip's closing part (`last`) must land after its sibling parts —
    /// the deepest non-final part of a spine walk arrives in the same
    /// round as the final one.
    pub(crate) fn priority(&self) -> u8 {
        match self {
            Payload::MakeHelper { .. } => 0,
            Payload::SetParent { .. } => 1,
            Payload::CollectTree { last: true, .. } => 3,
            _ => 2,
        }
    }

    /// Estimated payload size in bits, with node names costing
    /// `name_bits = ⌈log₂ n⌉` (Lemma 4's message-size unit).
    pub(crate) fn bits(&self, name_bits: u64) -> u64 {
        let slot = 2 * name_bits; // (owner, other)
        let vkey = slot + 1; // slot + real/helper flag
        let wire = vkey + 2 * name_bits + slot + vkey + 1; // root, size+height, rep, rep_parent
        let target = vkey + 1;
        match self {
            Payload::TaintUp { .. } => vkey,
            Payload::Detach { .. } | Payload::AnchorFrag { .. } => 2 * vkey,
            Payload::Describe { .. } => target + vkey + 2 * name_bits + slot + 1,
            Payload::CollectTree { .. } => target + wire + 1,
            Payload::BucketTree { .. } => vkey + wire,
            Payload::MakeHelper { .. } => 2 * vkey + 2 * slot + 2 * name_bits,
            Payload::SetParent { .. } | Payload::Strip { .. } | Payload::StripDetach { .. } => {
                2 * vkey
            }
            Payload::HaftUp { haft, .. } => vkey + 1 + if haft.is_some() { wire } else { 0 },
        }
    }
}

/// The canonical within-round delivery key: `(priority, sender, seq)`.
///
/// Priorities encode the protocol's only real ordering constraints (see
/// [`Payload::priority`]); the `(sender, seq)` tiebreak is an arbitrary
/// but *total* deterministic order, so a round's messages are always
/// delivered in one sequence, independent of the order they were sent
/// in. Within one round the key is unique: a sender numbers its outgoing
/// messages with a per-repair counter.
pub(crate) type OrderKey = (u8, u32, u32);

/// An addressed in-flight message.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Message {
    pub src: NodeId,
    pub dst: NodeId,
    /// Per-sender sequence number (monotone within one repair).
    pub seq: u32,
    pub payload: Payload,
}

impl Message {
    /// The canonical delivery key of this message.
    pub(crate) fn key(&self) -> OrderKey {
        (self.payload.priority(), self.src.raw(), self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::NodeId;

    #[test]
    fn every_payload_is_logarithmic_in_names() {
        let slot = Slot::new(NodeId::new(1), NodeId::new(2));
        let wire = WireTree::leaf(slot);
        let payloads = [
            Payload::TaintUp { key: slot.real() },
            Payload::CollectTree {
                target: Target::Fragment(slot.real()),
                tree: wire,
                last: true,
            },
            Payload::HaftUp {
                anchor: slot.real(),
                haft: Some(wire),
            },
        ];
        for p in payloads {
            // Doubling the name width must no more than double-ish the
            // payload: sizes are linear in name_bits (no hidden vectors).
            let small = p.bits(8);
            let large = p.bits(16);
            assert!(large <= 2 * small, "{p:?}");
            assert!(small > 0);
        }
    }

    #[test]
    fn helper_creation_outranks_parent_pointers() {
        let slot = Slot::new(NodeId::new(1), NodeId::new(2));
        let step = JoinStep {
            left: slot.real(),
            right: slot.helper(),
            slot,
            rep: slot,
            size: 2,
            height: 1,
        };
        assert!(
            Payload::MakeHelper { step }.priority()
                < Payload::SetParent {
                    key: slot.real(),
                    parent: slot.helper()
                }
                .priority()
        );
    }
}
