//! Binary snapshot codec for [`ForgivingGraph`] — the checkpoint half of
//! the durability layer (DESIGN.md §11).
//!
//! A snapshot captures the engine's entire logical state: the insert-only
//! ghost graph `G'`, the alive set, the reconstruction forest, the
//! placement policy and the cumulative statistics. The healed image `G`
//! is **not** stored: it is, by the engine's own invariant
//! ([`ForgivingGraph::check_invariants`]), a pure function of the other
//! pieces — surviving original edges plus the homomorphic image of the
//! forest — so the decoder rebuilds it the same way the invariant checker
//! computes its "expected" image. Storing less than the full state keeps
//! the format small and makes a decoded snapshot structurally incapable
//! of disagreeing with the image invariant.
//!
//! The format is hand-rolled (the workspace builds offline; the vendored
//! `serde` is a no-op stub) and versioned by a leading magic. All
//! integers are little-endian. Iteration orders are the workspace's
//! deterministic orders (sorted adjacency, global [`VKey`] order), so
//! encoding the same state always yields the same bytes — which is what
//! lets the store layer name snapshot files by content hash.
//!
//! Round-trip guarantee: `from_snapshot_bytes(snapshot_bytes(fg)) == fg`
//! under [`ForgivingGraph`]'s `PartialEq` (forest equality compares the
//! living virtual nodes, not allocation history).

use crate::engine::{ForgivingGraph, PlacementPolicy};
use crate::forest::{Forest, VNode};
use crate::image::ImageGraph;
use crate::slot::{Slot, VKey, VKind};
use crate::stats::EngineStats;
use fg_graph::{Graph, NodeId};

/// Leading magic: format name + version. Bump on any layout change.
const MAGIC: &[u8; 4] = b"FGS1";

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_vkey(out: &mut Vec<u8>, key: VKey) {
    put_u32(out, key.slot.owner.raw());
    put_u32(out, key.slot.other.raw());
    out.push(match key.kind {
        VKind::Real => 0,
        VKind::Helper => 1,
    });
}

fn put_opt_vkey(out: &mut Vec<u8>, key: Option<VKey>) {
    match key {
        None => out.push(0),
        Some(k) => {
            out.push(1);
            put_vkey(out, k);
        }
    }
}

/// A bounds-checked little-endian reader over the snapshot bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| format!("snapshot truncated at byte {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn vkey(&mut self) -> Result<VKey, String> {
        let owner = NodeId::new(self.u32()?);
        let other = NodeId::new(self.u32()?);
        if owner == other {
            return Err("snapshot slot with equal endpoints".into());
        }
        let kind = match self.u8()? {
            0 => VKind::Real,
            1 => VKind::Helper,
            k => return Err(format!("unknown virtual-node kind {k}")),
        };
        Ok(VKey {
            slot: Slot::new(owner, other),
            kind,
        })
    }

    fn opt_vkey(&mut self) -> Result<Option<VKey>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.vkey()?)),
            f => Err(format!("bad Option flag {f}")),
        }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl ForgivingGraph {
    /// Serializes the engine's logical state into the deterministic
    /// binary snapshot format (see the module docs). Equal states encode
    /// to equal bytes, so content-hash naming of snapshots is stable.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let n = self.nodes_ever();
        let mut out = Vec::with_capacity(64 + 9 * self.ghost.edge_count() + 40 * self.forest.len());
        out.extend_from_slice(MAGIC);
        out.push(match self.policy {
            PlacementPolicy::PaperExact => 0,
            PlacementPolicy::Adjacent => 1,
        });

        let s = self.stats;
        for word in [
            s.inserts,
            s.deletes,
            s.helpers_created,
            s.helpers_freed,
            s.leaves_created,
            s.leaves_removed,
            s.edges_added,
            s.edges_dropped,
            s.rep_fallbacks,
            s.btv_rounds,
        ] {
            put_u64(&mut out, word);
        }

        put_u32(&mut out, n as u32);
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        for (i, &alive) in self.alive.iter().enumerate() {
            if alive {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&bitmap);

        put_u32(&mut out, self.ghost.edge_count() as u32);
        for e in self.ghost.edges() {
            put_u32(&mut out, e.lo().raw());
            put_u32(&mut out, e.hi().raw());
        }

        put_u32(&mut out, self.forest.len() as u32);
        for (key, node) in self.forest.iter() {
            put_vkey(&mut out, key);
            put_opt_vkey(&mut out, node.parent);
            put_opt_vkey(&mut out, node.left);
            put_opt_vkey(&mut out, node.right);
            put_u32(&mut out, node.leaves);
            put_u32(&mut out, node.height);
            put_u32(&mut out, node.rep.owner.raw());
            put_u32(&mut out, node.rep.other.raw());
        }
        out
    }

    /// Decodes a snapshot produced by [`ForgivingGraph::snapshot_bytes`],
    /// rebuilding the healed image from the ghost ∩ alive edges plus the
    /// forest links, and re-runs the full structural audit
    /// ([`ForgivingGraph::check_invariants`]) before handing the state
    /// back.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first structural
    /// problem: truncation, an unknown magic/version, or decoded state
    /// that fails the engine invariants. Callers that need to
    /// distinguish *corrupt bytes* from *valid bytes of a different
    /// format version* should verify a content hash first — the store
    /// layer does.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut cur = Cursor::new(bytes);
        if cur.take(4)? != MAGIC {
            return Err("not an FGS1 snapshot (bad magic)".into());
        }
        let policy = match cur.u8()? {
            0 => PlacementPolicy::PaperExact,
            1 => PlacementPolicy::Adjacent,
            p => return Err(format!("unknown placement policy {p}")),
        };

        let stats = EngineStats {
            inserts: cur.u64()?,
            deletes: cur.u64()?,
            helpers_created: cur.u64()?,
            helpers_freed: cur.u64()?,
            leaves_created: cur.u64()?,
            leaves_removed: cur.u64()?,
            edges_added: cur.u64()?,
            edges_dropped: cur.u64()?,
            rep_fallbacks: cur.u64()?,
            btv_rounds: cur.u64()?,
        };

        let n = cur.u32()? as usize;
        let bitmap = cur.take(n.div_ceil(8))?;
        let alive: Vec<bool> = (0..n)
            .map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
            .collect();

        let mut ghost = Graph::with_capacity(n);
        for _ in 0..n {
            ghost.add_node();
        }
        let edges = cur.u32()?;
        for _ in 0..edges {
            let lo = NodeId::new(cur.u32()?);
            let hi = NodeId::new(cur.u32()?);
            if lo.index() >= n || hi.index() >= n {
                return Err(format!("ghost edge ({lo},{hi}) out of range"));
            }
            ghost
                .add_edge(lo, hi)
                .map_err(|e| format!("bad ghost edge ({lo},{hi}): {e}"))?;
        }

        let vnodes = cur.u32()?;
        let mut pairs = Vec::with_capacity(vnodes as usize);
        for _ in 0..vnodes {
            let key = cur.vkey()?;
            let parent = cur.opt_vkey()?;
            let left = cur.opt_vkey()?;
            let right = cur.opt_vkey()?;
            let leaves = cur.u32()?;
            let height = cur.u32()?;
            let rep_owner = NodeId::new(cur.u32()?);
            let rep_other = NodeId::new(cur.u32()?);
            if rep_owner == rep_other {
                return Err(format!("{key}: representative with equal endpoints"));
            }
            pairs.push((
                key,
                VNode {
                    parent,
                    left,
                    right,
                    leaves,
                    height,
                    rep: Slot::new(rep_owner, rep_other),
                },
            ));
        }
        if !cur.done() {
            return Err(format!(
                "{} trailing bytes after snapshot",
                bytes.len() - cur.pos
            ));
        }
        // Keys arrive in iteration order (strictly increasing); a
        // duplicate would panic in the forest, so reject it here instead.
        for w in pairs.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("forest keys out of order at {}", w[1].0));
            }
        }
        let forest = Forest::from_pairs(pairs);

        // Rebuild the image exactly the way `check_invariants` computes
        // its expected image: surviving original edges plus one unit per
        // forest parent→child link, then tombstone the dead processors.
        let mut image = ImageGraph::new();
        for _ in 0..n {
            image.add_node();
        }
        for e in ghost.edges() {
            if alive[e.lo().index()] && alive[e.hi().index()] {
                image.inc(e.lo(), e.hi());
            }
        }
        for (key, node) in forest.iter() {
            for child in node.left.iter().chain(node.right.iter()) {
                image.inc(key.owner(), child.owner());
            }
        }
        for (i, &is_alive) in alive.iter().enumerate() {
            if !is_alive {
                let v = NodeId::new(i as u32);
                if image.simple().degree(v) != 0 {
                    return Err(format!("dead node {v} still has image edges"));
                }
                image.remove_node(v);
            }
        }

        let fg = ForgivingGraph {
            ghost,
            alive,
            forest,
            image,
            policy,
            stats,
            profile: None,
        };
        fg.check_invariants()
            .map_err(|e| format!("decoded snapshot violates engine invariants: {e}"))?;
        Ok(fg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelfHealer;
    use fg_graph::generators;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A state with deletions, repairs and post-repair inserts.
    fn churned() -> ForgivingGraph {
        let mut fg = ForgivingGraph::from_graph(&generators::barabasi_albert(32, 2, 9)).unwrap();
        let _ = fg.delete(n(0)).unwrap();
        let _ = fg.delete(n(5)).unwrap();
        let _ = fg.insert(&[n(1), n(2), n(3)]).unwrap();
        let _ = fg.delete(n(1)).unwrap();
        fg
    }

    #[test]
    fn round_trip_is_identity() {
        let fg = churned();
        let bytes = fg.snapshot_bytes();
        let back = ForgivingGraph::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back, fg);
        assert_eq!(back.stats(), fg.stats());
        assert_eq!(SelfHealer::epoch(&back), SelfHealer::epoch(&fg));
        back.check_invariants().unwrap();
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(churned().snapshot_bytes(), churned().snapshot_bytes());
    }

    #[test]
    fn restored_state_replays_identically() {
        let mut a = churned();
        let mut b = ForgivingGraph::from_snapshot_bytes(&a.snapshot_bytes()).unwrap();
        // Digest-for-digest identical behaviour after restore.
        for event in [
            crate::NetworkEvent::delete(n(3)),
            crate::NetworkEvent::insert([n(2), n(4)]),
            crate::NetworkEvent::delete(n(7)),
        ] {
            let da = a.apply_event(&event).unwrap().digest();
            let db = b.apply_event(&event).unwrap().digest();
            assert_eq!(da, db);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn empty_engine_round_trips() {
        let fg = ForgivingGraph::new();
        let back = ForgivingGraph::from_snapshot_bytes(&fg.snapshot_bytes()).unwrap();
        assert_eq!(back, fg);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let fg = churned();
        let mut bytes = fg.snapshot_bytes();
        let err = ForgivingGraph::from_snapshot_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(
            err.contains("truncated") || err.contains("out of order"),
            "{err}"
        );
        bytes[0] ^= 0xff;
        let err = ForgivingGraph::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = churned().snapshot_bytes();
        bytes.push(0);
        let err = ForgivingGraph::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }
}
