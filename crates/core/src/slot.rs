//! Edge slots and virtual-node keys.
//!
//! The paper's Table 1 keys every piece of repair state by an *edge of `G'`
//! seen from one endpoint*: processor `v` keeps fields for each edge
//! `(v, x)` it ever acquired. We call that oriented view a [`Slot`].
//!
//! Each slot owns up to two virtual nodes in the reconstruction forest:
//!
//! * the **real node** `Real(v, x)` — `v`'s endpoint of the edge, which
//!   becomes a leaf of a reconstruction tree once `x` is deleted, and
//! * the **helper node** `Helper(v, x)` — the at-most-one internal tree
//!   node that `v` simulates on behalf of this edge (Lemma 3.1).

use fg_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An edge of `G'` as seen from one endpoint: `owner` keeps this slot for
/// its edge to `other`.
///
/// Every `G'`-edge `(u, w)` yields exactly two slots: `(u → w)` and
/// `(w → u)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Slot {
    /// The processor holding this slot's state.
    pub owner: NodeId,
    /// The other endpoint of the `G'`-edge.
    pub other: NodeId,
}

impl Slot {
    /// Creates the slot for `owner`'s edge to `other`.
    ///
    /// # Panics
    ///
    /// Panics if `owner == other` (the graphs are simple).
    pub fn new(owner: NodeId, other: NodeId) -> Self {
        assert_ne!(owner, other, "a slot needs two distinct endpoints");
        Slot { owner, other }
    }

    /// The same edge seen from the opposite endpoint.
    pub fn reversed(self) -> Self {
        Slot {
            owner: self.other,
            other: self.owner,
        }
    }

    /// The key of the real (leaf) node for this slot.
    pub fn real(self) -> VKey {
        VKey {
            slot: self,
            kind: VKind::Real,
        }
    }

    /// The key of the helper node for this slot.
    pub fn helper(self) -> VKey {
        VKey {
            slot: self,
            kind: VKind::Helper,
        }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.owner, self.other)
    }
}

/// Which of a slot's two virtual nodes a [`VKey`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VKind {
    /// The leaf node: the slot owner's endpoint of the edge.
    Real,
    /// The internal node simulated by the slot owner.
    Helper,
}

/// Identity of a virtual node in the reconstruction forest.
///
/// Ordered by `(owner, other, kind)` so that a `BTreeMap` range scan over
/// one owner visits all of a processor's virtual nodes — which is exactly
/// what a deletion must collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VKey {
    /// The slot this virtual node belongs to.
    pub slot: Slot,
    /// Leaf or helper.
    pub kind: VKind,
}

/// The per-owner remainder of a [`VKey`]: `(other, kind)`.
///
/// The forest keeps one map of virtual nodes per owner (owners are dense
/// ids), sorted by this local key; because the full key order is
/// `(owner, other, kind)`, iterating owners in order and each map in
/// local order visits keys in exactly the global `VKey` order.
pub type LocalKey = (NodeId, VKind);

impl VKey {
    /// The processor that hosts (simulates) this virtual node.
    pub fn owner(self) -> NodeId {
        self.slot.owner
    }

    /// The per-owner part of the key (see `LocalKey`).
    pub fn local(self) -> LocalKey {
        (self.slot.other, self.kind)
    }

    /// Reassembles a key from an owner and its local part.
    pub fn from_local(owner: NodeId, (other, kind): LocalKey) -> Self {
        VKey {
            slot: Slot::new(owner, other),
            kind,
        }
    }

    /// Whether this is a leaf (real) node.
    pub fn is_real(self) -> bool {
        self.kind == VKind::Real
    }

    /// Whether this is a helper node.
    pub fn is_helper(self) -> bool {
        self.kind == VKind::Helper
    }
}

impl fmt::Display for VKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            VKind::Real => write!(f, "real({})", self.slot),
            VKind::Helper => write!(f, "helper({})", self.slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn slot_reversal() {
        let s = Slot::new(n(1), n(2));
        assert_eq!(s.reversed(), Slot::new(n(2), n(1)));
        assert_eq!(s.reversed().reversed(), s);
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn slot_rejects_self_edge() {
        let _ = Slot::new(n(3), n(3));
    }

    #[test]
    fn vkey_kinds() {
        let s = Slot::new(n(1), n(2));
        assert!(s.real().is_real());
        assert!(!s.real().is_helper());
        assert!(s.helper().is_helper());
        assert_eq!(s.real().owner(), n(1));
        assert_ne!(s.real(), s.helper());
    }

    #[test]
    fn vkeys_group_by_owner_in_order() {
        // All keys of owner 1 sort before any key of owner 2.
        let a = Slot::new(n(1), n(9)).helper();
        let b = Slot::new(n(2), n(0)).real();
        assert!(a < b);
    }

    #[test]
    fn local_key_roundtrip_preserves_order() {
        let a = Slot::new(n(1), n(4)).real();
        let b = Slot::new(n(1), n(4)).helper();
        let c = Slot::new(n(1), n(9)).real();
        assert!(a.local() < b.local() && b.local() < c.local());
        for key in [a, b, c] {
            assert_eq!(VKey::from_local(key.owner(), key.local()), key);
        }
    }

    #[test]
    fn display_forms() {
        let s = Slot::new(n(1), n(2));
        assert_eq!(s.to_string(), "n1→n2");
        assert_eq!(s.real().to_string(), "real(n1→n2)");
        assert_eq!(s.helper().to_string(), "helper(n1→n2)");
    }
}
