//! The per-node relocation directory.
//!
//! After a bunch garbage collection, the same object legitimately lives at
//! different addresses on different nodes (paper, Section 4.2); each node
//! therefore keeps a *local* view of where objects are: the current local
//! address per OID, and the set of forwarding edges (`from → to`) its own
//! collections performed or it learned from relocation records. Following a
//! pointer through [`Directory::resolve`] is the reproduction's version of
//! the paper's "special operation ... to perform pointer comparison"
//! (Section 4.2) — two references denote the same object iff they resolve to
//! the same address.
//!
//! # Examples
//!
//! ```
//! use bmx_common::{Addr, Oid};
//! use bmx_gc::Directory;
//!
//! let mut dir = Directory::new();
//! dir.set_addr(Oid(1), Addr(0x1_0000));
//! // Two collections move the object twice.
//! dir.record_move(Oid(1), Addr(0x1_0000), Addr(0x2_0000));
//! dir.record_move(Oid(1), Addr(0x2_0000), Addr(0x3_0000));
//! // Any historical name resolves to the current copy...
//! assert_eq!(dir.resolve(Addr(0x1_0000)), Addr(0x3_0000));
//! // ...and the pointer-comparison operation sees through the chain.
//! assert!(dir.ptr_eq(Addr(0x1_0000), Addr(0x3_0000)));
//! assert_eq!(dir.addr_of(Oid(1)), Some(Addr(0x3_0000)));
//! ```

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use bmx_common::{Addr, Oid};
use bmx_dsm::Relocation;

/// Node-local knowledge of object locations and forwarding edges.
///
/// Each forwarding edge is stored once, in `edges`, keyed by its
/// from-address together with the relocation record that created it:
/// following a chain, answering "is this address forwarded?", and
/// collecting the reuse protocol's address-change payload all read that
/// one map. `reloc_by_oid` and `reloc_by_to` are secondary indexes into
/// the same records.
#[derive(Default, Clone)]
pub struct Directory {
    addr_of: BTreeMap<Oid, Addr>,
    /// Forwarding edges by from-address, possibly chained over multiple
    /// collections.
    edges: BTreeMap<Addr, Relocation>,
    /// Each OID's latest recorded move, for building grant relocations.
    reloc_by_oid: BTreeMap<Oid, Relocation>,
    /// The record that moved an object *to* an address.
    reloc_by_to: BTreeMap<Addr, Relocation>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current local address of `oid`, if known.
    pub fn addr_of(&self, oid: Oid) -> Option<Addr> {
        self.addr_of.get(&oid).copied()
    }

    /// Records the local address of `oid` (allocation, mapping, or install).
    pub fn set_addr(&mut self, oid: Oid, addr: Addr) {
        self.addr_of.insert(oid, addr);
    }

    /// Forgets `oid` (its local replica was reclaimed).
    pub fn drop_oid(&mut self, oid: Oid) {
        // Forwarding edges stay: stale pointers may still need them; they
        // die with the from-space reuse protocol.
        self.addr_of.remove(&oid);
        self.reloc_by_oid.remove(&oid);
    }

    /// Follows forwarding edges from `addr` to the current address.
    ///
    /// Chains (an object moved again in a later collection) are followed to
    /// the end; an address with no edge resolves to itself.
    pub fn resolve(&self, addr: Addr) -> Addr {
        self.resolve_hops(addr).0
    }

    /// [`resolve`](Directory::resolve), also returning the number of
    /// forwarding edges followed (the metrics plane histograms chain
    /// lengths to show relocation debt building up).
    pub fn resolve_hops(&self, addr: Addr) -> (Addr, u32) {
        let mut cur = addr;
        let mut hops = 0;
        while let Some(r) = self.edges.get(&cur) {
            cur = r.to;
            hops += 1;
            // An acyclic chain cannot follow more edges than exist.
            assert!(
                hops as usize <= self.edges.len(),
                "forwarding cycle at {addr}"
            );
        }
        (cur, hops)
    }

    /// The paper's pointer-comparison operation: do `a` and `b` denote the
    /// same object despite forwarding?
    pub fn ptr_eq(&self, a: Addr, b: Addr) -> bool {
        self.resolve(a) == self.resolve(b)
    }

    /// Records a move of `oid` from `from` to `to` and indexes the
    /// relocation record. Returns `false` if an edge from `from` was
    /// already known (idempotent re-application).
    ///
    /// The OID's current-address entry advances only when the move extends
    /// *this* replica's chain (`addr_of == from`). Relocation records from
    /// different source nodes may arrive in any relative order; an edge
    /// further down the chain (or for a replica this node does not track)
    /// must not teleport `addr_of` away from the local copy.
    ///
    /// A *conflicting* edge — same `from`, different `to` — is refused,
    /// not overwritten. Collections at different replica sites legitimately
    /// move the same object to different addresses (Section 4.2); the
    /// first edge this node recorded is the one its own copy (or knowledge)
    /// followed, and replacing it would dead-end local resolution mid-chain
    /// at an address this replica never populated.
    pub fn record_move(&mut self, oid: Oid, from: Addr, to: Addr) -> bool {
        let r = Relocation { oid, from, to };
        match self.edges.entry(from) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(slot) => {
                assert_ne!(from, to, "degenerate relocation for {oid}");
                slot.insert(r);
            }
        }
        self.reloc_by_oid.insert(oid, r);
        self.reloc_by_to.insert(to, r);
        if self.addr_of.get(&oid) == Some(&from) {
            let cur = self.resolve(to);
            self.addr_of.insert(oid, cur);
        }
        true
    }

    /// Whether a forwarding edge from `addr` exists.
    pub fn is_forwarded_from(&self, addr: Addr) -> bool {
        self.edges.contains_key(&addr)
    }

    /// The relocation record that moved `oid`, if any is still retained.
    pub fn reloc_of(&self, oid: Oid) -> Option<Relocation> {
        self.reloc_by_oid.get(&oid).copied()
    }

    /// The relocation record involving `addr` as either end, if any.
    pub fn reloc_touching(&self, addr: Addr) -> Option<Relocation> {
        self.edges
            .get(&addr)
            .or_else(|| self.reloc_by_to.get(&addr))
            .copied()
    }

    /// Every retained relocation record whose from-address lies in
    /// `[start, start + len_words)` — the final address-change payload of
    /// the from-space reuse protocol.
    pub fn relocs_from_range(&self, start: Addr, len_words: u64) -> Vec<Relocation> {
        self.edges
            .range(start..start.add_words(len_words))
            .map(|(_, r)| *r)
            .collect()
    }

    /// Drops forwarding edges and relocation records whose *from* address
    /// lies in `[start, start + len_words)` — called when that from-space
    /// range is reused and the edges are guaranteed unnecessary
    /// (Section 4.5).
    pub fn forget_range(&mut self, start: Addr, len_words: u64) {
        for r in self.relocs_from_range(start, len_words) {
            self.edges.remove(&r.from);
            // The secondary indexes may already point at a later move of
            // the same object (or a later move to the same address); those
            // records belong to edges outside the range and stay.
            if self.reloc_by_oid.get(&r.oid) == Some(&r) {
                self.reloc_by_oid.remove(&r.oid);
            }
            if self.reloc_by_to.get(&r.to) == Some(&r) {
                self.reloc_by_to.remove(&r.to);
            }
        }
    }

    /// Number of known objects.
    pub fn len(&self) -> usize {
        self.addr_of.len()
    }

    /// Whether the directory knows no objects.
    pub fn is_empty(&self) -> bool {
        self.addr_of.is_empty()
    }

    /// All `(oid, current address)` pairs, for table rebuilding.
    pub fn entries(&self) -> impl Iterator<Item = (Oid, Addr)> + '_ {
        self.addr_of.iter().map(|(&o, &a)| (o, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_follows_chains() {
        let mut d = Directory::new();
        d.set_addr(Oid(1), Addr(0x100));
        d.record_move(Oid(1), Addr(0x100), Addr(0x200));
        d.record_move(Oid(1), Addr(0x200), Addr(0x300));
        assert_eq!(d.resolve(Addr(0x100)), Addr(0x300));
        assert_eq!(d.resolve(Addr(0x200)), Addr(0x300));
        assert_eq!(d.resolve(Addr(0x300)), Addr(0x300));
        assert_eq!(d.resolve(Addr(0x999)), Addr(0x999));
        assert_eq!(d.addr_of(Oid(1)), Some(Addr(0x300)));
    }

    #[test]
    fn ptr_eq_sees_through_forwarding() {
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x200));
        assert!(d.ptr_eq(Addr(0x100), Addr(0x200)));
        assert!(!d.ptr_eq(Addr(0x100), Addr(0x300)));
    }

    #[test]
    fn record_move_is_idempotent() {
        let mut d = Directory::new();
        assert!(d.record_move(Oid(1), Addr(0x100), Addr(0x200)));
        assert!(!d.record_move(Oid(1), Addr(0x100), Addr(0x200)));
    }

    #[test]
    fn out_of_order_edges_do_not_move_the_local_replica() {
        // The local replica sits at F; an edge further down the chain
        // (T1 -> T2, learned from another node before F -> T1) must not
        // teleport addr_of; once the missing edge arrives, addr_of jumps to
        // the end of the chain.
        let mut d = Directory::new();
        d.set_addr(Oid(5), Addr(0xF00));
        d.record_move(Oid(5), Addr(0x1000), Addr(0x2000)); // downstream edge
        assert_eq!(d.addr_of(Oid(5)), Some(Addr(0xF00)), "replica stays put");
        d.record_move(Oid(5), Addr(0xF00), Addr(0x1000)); // the missing link
        assert_eq!(d.addr_of(Oid(5)), Some(Addr(0x2000)), "chain resolved");
        assert_eq!(d.resolve(Addr(0xF00)), Addr(0x2000));
    }

    #[test]
    fn divergent_relocation_does_not_clobber_the_local_chain() {
        // This node's copy went 0x100 -> 0x200 (its own collection, or the
        // first record it applied). Another replica site later moves *its*
        // copy of the same object 0x100 -> 0x900; applying that record must
        // not redirect local resolution to an address this replica never
        // populated.
        let mut d = Directory::new();
        d.set_addr(Oid(3), Addr(0x100));
        assert!(d.record_move(Oid(3), Addr(0x100), Addr(0x200)));
        assert!(!d.record_move(Oid(3), Addr(0x100), Addr(0x900)), "refused");
        assert_eq!(d.resolve(Addr(0x100)), Addr(0x200));
        assert_eq!(d.addr_of(Oid(3)), Some(Addr(0x200)));
    }

    #[test]
    fn reloc_lookups() {
        let mut d = Directory::new();
        d.record_move(Oid(7), Addr(0x100), Addr(0x200));
        let r = d.reloc_of(Oid(7)).unwrap();
        assert_eq!((r.from, r.to), (Addr(0x100), Addr(0x200)));
        assert_eq!(d.reloc_touching(Addr(0x100)).unwrap().oid, Oid(7));
        assert_eq!(d.reloc_touching(Addr(0x200)).unwrap().oid, Oid(7));
        assert!(d.reloc_touching(Addr(0x300)).is_none());
    }

    #[test]
    fn forget_range_drops_edges_and_records() {
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x800));
        d.record_move(Oid(2), Addr(0x1000), Addr(0x880));
        d.forget_range(Addr(0x100), 16); // covers 0x100..0x180
        assert_eq!(d.resolve(Addr(0x100)), Addr(0x100), "edge gone");
        assert!(d.reloc_of(Oid(1)).is_none());
        assert_eq!(d.resolve(Addr(0x1000)), Addr(0x880), "other edge kept");
        assert!(d.reloc_of(Oid(2)).is_some());
    }

    #[test]
    fn forget_range_keeps_the_later_move_of_a_twice_moved_object() {
        // 0x100 -> 0x800 -> 0x1000; reusing the range holding 0x100 must
        // drop exactly the first edge. The second is still live: it is the
        // OID's current record and the payload for reusing 0x800's range.
        let mut d = Directory::new();
        d.set_addr(Oid(1), Addr(0x100));
        d.record_move(Oid(1), Addr(0x100), Addr(0x800));
        d.record_move(Oid(1), Addr(0x800), Addr(0x1000));
        d.forget_range(Addr(0x100), 16);
        let live = Relocation {
            oid: Oid(1),
            from: Addr(0x800),
            to: Addr(0x1000),
        };
        assert!(
            d.relocs_from_range(Addr(0x100), 16).is_empty(),
            "stale edge gone"
        );
        assert!(!d.is_forwarded_from(Addr(0x100)));
        assert!(d.reloc_touching(Addr(0x100)).is_none());
        assert_eq!(d.resolve(Addr(0x800)), Addr(0x1000));
        assert_eq!(d.reloc_of(Oid(1)), Some(live));
        assert_eq!(d.reloc_touching(Addr(0x1000)), Some(live));
        assert_eq!(d.relocs_from_range(Addr(0x800), 16), vec![live]);
        assert_eq!(d.addr_of(Oid(1)), Some(Addr(0x1000)));
    }

    #[test]
    fn drop_oid_keeps_forwarding() {
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x200));
        d.drop_oid(Oid(1));
        assert_eq!(d.addr_of(Oid(1)), None);
        assert_eq!(
            d.resolve(Addr(0x100)),
            Addr(0x200),
            "stale pointers still resolve"
        );
    }

    #[test]
    fn long_acyclic_chains_are_not_cycles() {
        let mut d = Directory::new();
        for i in 0..100u64 {
            d.record_move(Oid(1), Addr(0x100 + 8 * i), Addr(0x100 + 8 * (i + 1)));
        }
        assert_eq!(d.resolve_hops(Addr(0x100)), (Addr(0x100 + 8 * 100), 100));
    }

    #[test]
    #[should_panic(expected = "forwarding cycle")]
    fn cycles_are_detected() {
        let mut d = Directory::new();
        d.record_move(Oid(1), Addr(0x100), Addr(0x200));
        d.record_move(Oid(1), Addr(0x200), Addr(0x100));
        d.resolve(Addr(0x100));
    }
}
