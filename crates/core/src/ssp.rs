//! Stub–scion pairs (SSPs).
//!
//! SSPs make every bunch replica self-sufficient for reachability decisions
//! (paper, Section 3.1). They are simpler than RPC-system SSPs: they are not
//! indirections and do no marshaling — just auxiliary records.
//!
//! *Inter-bunch* SSPs describe references crossing bunch boundaries; the
//! stub sits with the source object (at the node that created the
//! reference — it is **not** replicated with the bunch, a single SSP keeps
//! the target alive system-wide), the scion with the target bunch.
//!
//! *Intra-bunch* SSPs run opposite to the ownerPtr: when ownership of an
//! object leaves a node that holds stubs for it, the new owner gets an
//! intra-bunch *stub* and the old owner keeps an intra-bunch *scion*, which
//! preserves the old owner's replica — and therefore the inter-bunch stubs
//! stored there — until the object dies everywhere (Section 3.2, 6.2).
//!
//! # Representation
//!
//! Each table keeps two structures in lockstep: an ordered `Vec` (the
//! deterministic view — reports, wire images, and BGC root scans iterate
//! it, so replay stays bit-exact) and an owned `HashSet` membership index
//! keyed by the dedup tuple, which answers the duplicate checks of
//! `add_*` in O(1) instead of a table scan. The index is never iterated,
//! so its hash order cannot leak into any output. Tables are per-replica
//! state reached only through `&mut` (under the protocol lock in the
//! parallel runtime), so a plain set suffices. Mutation goes through methods — `add_*`,
//! `retain_*`, `replace` — that keep both structures in step; the ordered
//! views are exposed read-only via [`StubTable::inter`]-style accessors.

use std::collections::HashSet;

use bmx_common::{Addr, BunchId, NodeId, Oid};

/// Globally unique identifier of one stub–scion pair.
///
/// Minted at the node that creates the reference; both halves carry it, so
/// the scion cleaner can match scions against reported stub tables exactly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SspId {
    /// The node that created the pair.
    pub node: NodeId,
    /// Creation counter at that node.
    pub seq: u64,
}

/// Source half of an inter-bunch SSP: "this bunch replica holds a reference
/// into another bunch".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterStub {
    /// Pair identity.
    pub id: SspId,
    /// Bunch of the source object.
    pub source_bunch: BunchId,
    /// Source object (the one containing the reference).
    pub source_oid: Oid,
    /// Bunch of the target object.
    pub target_bunch: BunchId,
    /// Address of the target as known when the stub was (re)recorded.
    pub target_addr: Addr,
    /// Target OID if it was resolvable at creation.
    pub target_oid: Option<Oid>,
    /// The node holding the matching scion.
    pub scion_at: NodeId,
}

/// Target half of an inter-bunch SSP: "an object of this bunch is referenced
/// from another bunch". A root of the bunch garbage collector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterScion {
    /// Pair identity.
    pub id: SspId,
    /// Node holding the stub.
    pub source_node: NodeId,
    /// Bunch of the source object.
    pub source_bunch: BunchId,
    /// Bunch of the target object (the bunch this scion protects).
    pub target_bunch: BunchId,
    /// Local current address of the target (updated by the local BGC).
    pub target_addr: Addr,
    /// Target OID if known.
    pub target_oid: Option<Oid>,
}

/// Stub half of an intra-bunch SSP, held by the (once-)new owner; forwards
/// liveness to the inter-bunch stubs kept at `scion_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntraStub {
    /// The object whose ownership moved.
    pub oid: Oid,
    /// Its bunch.
    pub bunch: BunchId,
    /// The old owner holding the matching scion (and the preserved stubs).
    pub scion_at: NodeId,
}

/// Scion half of an intra-bunch SSP, held by the old owner; preserves the
/// local replica (a root of the local BGC — but one that suppresses the
/// exiting ownerPtr, Section 6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntraScion {
    /// The object whose ownership moved.
    pub oid: Oid,
    /// Its bunch.
    pub bunch: BunchId,
    /// The node holding the matching stub (the then-new owner).
    pub stub_at: NodeId,
}

/// The stub table of one bunch replica: outgoing reachability it asserts.
#[derive(Clone, Debug, Default)]
pub struct StubTable {
    /// Inter-bunch stubs created at this node (ordered, deterministic).
    inter: Vec<InterStub>,
    /// Intra-bunch stubs held at this node (ordered, deterministic).
    intra: Vec<IntraStub>,
    /// Membership index over `(source_oid, target_addr)`.
    addr_index: HashSet<(Oid, Addr)>,
    /// Membership index over `(source_oid, target_oid)` for stubs whose
    /// target OID was resolvable.
    oid_index: HashSet<(Oid, Oid)>,
    /// Membership index over `(oid, scion_at)` for intra stubs.
    intra_index: HashSet<(Oid, NodeId)>,
}

impl StubTable {
    /// Inter-bunch stubs, in insertion order.
    #[inline]
    pub fn inter(&self) -> &[InterStub] {
        &self.inter
    }

    /// Intra-bunch stubs, in insertion order.
    #[inline]
    pub fn intra(&self) -> &[IntraStub] {
        &self.intra
    }

    /// Adds an inter-bunch stub unless an equivalent one (same source object
    /// and same resolved target) is already present. Returns whether it was
    /// added. The duplicate check is two index probes, not a table scan.
    pub fn add_inter(&mut self, stub: InterStub) -> bool {
        let dup = self
            .addr_index
            .contains(&(stub.source_oid, stub.target_addr))
            || stub
                .target_oid
                .is_some_and(|t| self.oid_index.contains(&(stub.source_oid, t)));
        if dup {
            return false;
        }
        self.addr_index.insert((stub.source_oid, stub.target_addr));
        if let Some(t) = stub.target_oid {
            self.oid_index.insert((stub.source_oid, t));
        }
        self.inter.push(stub);
        true
    }

    /// Adds an intra-bunch stub, deduplicating by `(oid, scion_at)`.
    /// Returns whether it was added.
    pub fn add_intra(&mut self, stub: IntraStub) -> bool {
        if !self.intra_index.insert((stub.oid, stub.scion_at)) {
            return false;
        }
        self.intra.push(stub);
        true
    }

    /// Keeps only the inter-bunch stubs satisfying `f`; dropped entries
    /// leave the membership index.
    pub fn retain_inter(&mut self, mut f: impl FnMut(&InterStub) -> bool) {
        let (addr_index, oid_index) = (&mut self.addr_index, &mut self.oid_index);
        self.inter.retain(|s| {
            let keep = f(s);
            if !keep {
                addr_index.remove(&(s.source_oid, s.target_addr));
                if let Some(t) = s.target_oid {
                    oid_index.remove(&(s.source_oid, t));
                }
            }
            keep
        });
    }

    /// Keeps only the intra-bunch stubs satisfying `f`.
    pub fn retain_intra(&mut self, mut f: impl FnMut(&IntraStub) -> bool) {
        let intra_index = &mut self.intra_index;
        self.intra.retain(|s| {
            let keep = f(s);
            if !keep {
                intra_index.remove(&(s.oid, s.scion_at));
            }
            keep
        });
    }

    /// Replaces the whole table (a BGC publication regenerates it); the
    /// index is rebuilt from the new entries.
    pub fn replace(&mut self, inter: Vec<InterStub>, intra: Vec<IntraStub>) {
        self.addr_index = inter
            .iter()
            .map(|s| (s.source_oid, s.target_addr))
            .collect();
        self.oid_index = inter
            .iter()
            .filter_map(|s| s.target_oid.map(|t| (s.source_oid, t)))
            .collect();
        self.intra_index = intra.iter().map(|s| (s.oid, s.scion_at)).collect();
        self.inter = inter;
        self.intra = intra;
    }

    /// Inter-bunch stubs whose source is `oid`.
    pub fn inter_for(&self, oid: Oid) -> impl Iterator<Item = &InterStub> {
        self.inter().iter().filter(move |s| s.source_oid == oid)
    }

    /// Whether any stub (inter or intra) concerns `oid`.
    pub fn mentions(&self, oid: Oid) -> bool {
        self.inter().iter().any(|s| s.source_oid == oid)
            || self.intra().iter().any(|s| s.oid == oid)
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.inter().len() + self.intra().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.inter().is_empty() && self.intra().is_empty()
    }
}

/// The scion table of one bunch replica: incoming reachability it honours.
#[derive(Clone, Debug, Default)]
pub struct ScionTable {
    /// Inter-bunch scions protecting objects of this bunch (ordered).
    inter: Vec<InterScion>,
    /// Intra-bunch scions preserving local replicas for remote stub sites.
    intra: Vec<IntraScion>,
    /// Membership index over pair ids.
    id_index: HashSet<SspId>,
    /// Membership index over `(oid, stub_at)` for intra scions.
    intra_index: HashSet<(Oid, NodeId)>,
}

impl ScionTable {
    /// Inter-bunch scions, in insertion order.
    #[inline]
    pub fn inter(&self) -> &[InterScion] {
        &self.inter
    }

    /// Mutable view of the inter-bunch scions for in-place `target_addr`
    /// rewrites (BGC reference update, from-space retirement). Identity
    /// fields (`id`) must not be changed through this — the membership
    /// index keys on them.
    #[inline]
    pub fn inter_mut(&mut self) -> &mut [InterScion] {
        &mut self.inter
    }

    /// Intra-bunch scions, in insertion order.
    #[inline]
    pub fn intra(&self) -> &[IntraScion] {
        &self.intra
    }

    /// Adds an inter-bunch scion, deduplicating by pair id. Returns whether
    /// it was added. The duplicate check is one index probe.
    pub fn add_inter(&mut self, scion: InterScion) -> bool {
        if !self.id_index.insert(scion.id) {
            return false;
        }
        self.inter.push(scion);
        true
    }

    /// Adds an intra-bunch scion, deduplicating by `(oid, stub_at)`.
    /// Returns whether it was added.
    pub fn add_intra(&mut self, scion: IntraScion) -> bool {
        if !self.intra_index.insert((scion.oid, scion.stub_at)) {
            return false;
        }
        self.intra.push(scion);
        true
    }

    /// Keeps only the inter-bunch scions satisfying `f` (the cleaner's
    /// retirement path); dropped ids are retired from the index.
    pub fn retain_inter(&mut self, mut f: impl FnMut(&InterScion) -> bool) {
        let id_index = &mut self.id_index;
        self.inter.retain(|s| {
            let keep = f(s);
            if !keep {
                id_index.remove(&s.id);
            }
            keep
        });
    }

    /// Keeps only the intra-bunch scions satisfying `f`.
    pub fn retain_intra(&mut self, mut f: impl FnMut(&IntraScion) -> bool) {
        let intra_index = &mut self.intra_index;
        self.intra.retain(|s| {
            let keep = f(s);
            if !keep {
                intra_index.remove(&(s.oid, s.stub_at));
            }
            keep
        });
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.inter().len() + self.intra().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.inter().is_empty() && self.intra().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub(seq: u64, src: u64, tgt_addr: u64) -> InterStub {
        InterStub {
            id: SspId {
                node: NodeId(0),
                seq,
            },
            source_bunch: BunchId(1),
            source_oid: Oid(src),
            target_bunch: BunchId(2),
            target_addr: Addr(tgt_addr),
            target_oid: None,
            scion_at: NodeId(1),
        }
    }

    #[test]
    fn inter_stub_dedupes_by_source_and_target() {
        let mut t = StubTable::default();
        assert!(t.add_inter(stub(1, 10, 0x100)));
        assert!(
            !t.add_inter(stub(2, 10, 0x100)),
            "same ref, new id: duplicate"
        );
        assert!(
            t.add_inter(stub(3, 10, 0x200)),
            "same source, new target: distinct"
        );
        assert!(t.add_inter(stub(4, 11, 0x100)), "new source: distinct");
        assert_eq!(t.inter().len(), 3);
        assert_eq!(t.inter_for(Oid(10)).count(), 2);
    }

    #[test]
    fn inter_stub_dedupes_by_target_oid_when_known() {
        let mut t = StubTable::default();
        let mut a = stub(1, 10, 0x100);
        a.target_oid = Some(Oid(5));
        let mut b = stub(2, 10, 0x900); // different addr (target moved)...
        b.target_oid = Some(Oid(5)); // ...but same object
        assert!(t.add_inter(a));
        assert!(!t.add_inter(b));
    }

    #[test]
    fn intra_stub_dedupe() {
        let mut t = StubTable::default();
        let s = IntraStub {
            oid: Oid(1),
            bunch: BunchId(1),
            scion_at: NodeId(2),
        };
        assert!(t.add_intra(s));
        assert!(!t.add_intra(s));
        assert!(t.add_intra(IntraStub {
            scion_at: NodeId(3),
            ..s
        }));
        assert_eq!(t.len(), 2);
        assert!(t.mentions(Oid(1)));
        assert!(!t.mentions(Oid(9)));
    }

    #[test]
    fn scion_table_dedupe() {
        let mut t = ScionTable::default();
        let sc = InterScion {
            id: SspId {
                node: NodeId(0),
                seq: 1,
            },
            source_node: NodeId(0),
            source_bunch: BunchId(1),
            target_bunch: BunchId(2),
            target_addr: Addr(0x100),
            target_oid: Some(Oid(5)),
        };
        assert!(t.add_inter(sc.clone()));
        assert!(!t.add_inter(sc));
        let ic = IntraScion {
            oid: Oid(1),
            bunch: BunchId(2),
            stub_at: NodeId(4),
        };
        assert!(t.add_intra(ic));
        assert!(!t.add_intra(ic));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn retain_retires_index_entries_and_readds_cleanly() {
        let mut t = StubTable::default();
        assert!(t.add_inter(stub(1, 10, 0x100)));
        assert!(t.add_inter(stub(2, 11, 0x200)));
        t.retain_inter(|s| s.source_oid != Oid(10));
        assert_eq!(t.inter().len(), 1);
        assert!(
            t.add_inter(stub(3, 10, 0x100)),
            "retired key must be re-insertable"
        );
        let mut sc = ScionTable::default();
        let mk = |seq| InterScion {
            id: SspId {
                node: NodeId(0),
                seq,
            },
            source_node: NodeId(0),
            source_bunch: BunchId(1),
            target_bunch: BunchId(2),
            target_addr: Addr(0x100),
            target_oid: None,
        };
        assert!(sc.add_inter(mk(1)));
        assert!(sc.add_inter(mk(2)));
        sc.retain_inter(|s| s.id.seq != 1);
        assert_eq!(sc.inter().len(), 1);
        assert!(sc.add_inter(mk(1)), "retired id re-insertable");
    }

    #[test]
    fn replace_rebuilds_the_index() {
        let mut t = StubTable::default();
        assert!(t.add_inter(stub(1, 10, 0x100)));
        t.replace(vec![stub(7, 20, 0x700)], Vec::new());
        assert!(t.add_inter(stub(8, 10, 0x100)), "old entries retired");
        assert!(!t.add_inter(stub(9, 20, 0x700)), "new entries indexed");
        let cl = t.clone();
        assert_eq!(cl.inter(), t.inter(), "clone keeps the ordered view");
        let mut cl = cl;
        assert!(
            !cl.add_inter(stub(10, 20, 0x700)),
            "clone rebuilt its index"
        );
    }
}
