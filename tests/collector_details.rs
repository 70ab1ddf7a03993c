//! Pointed tests for individual sentences of the paper's Section 4.

use bmx_repro::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// §4.2: "an inconsistent copy of the object is sufficient, because
/// scanning an old version results in making a more conservative decision
/// about the referenced objects reachability, ensuring that they will not
/// be erroneously collected if not dead."
///
/// Node 1 holds a *stale* replica of H whose field still points at T; the
/// owner already cleared that field. Node 1's BGC scans the stale copy and
/// keeps its local T replica — conservative, exactly as specified.
#[test]
fn scanning_stale_replicas_is_conservative() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let (n0, n1) = (n(0), n(1));
    let b = c.create_bunch(n0).unwrap();
    let h = c.alloc(n0, b, &ObjSpec::with_refs(1, &[0])).unwrap();
    let t = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.write_ref(n0, h, 0, t).unwrap();
    c.add_root(n0, h);
    c.map_bunch(n1, b, n0).unwrap();
    c.add_root(n1, h);
    // Node 1 syncs once: its replica of H points at T.
    c.acquire_read(n1, h).unwrap();
    c.release(n1, h).unwrap();
    // The owner clears the reference; node 1's read token is invalidated
    // but its *bytes* still show the old pointer.
    c.acquire_write(n0, h).unwrap();
    c.write_ref(n0, h, 0, Addr::NULL).unwrap();
    c.release(n0, h).unwrap();
    assert_eq!(
        c.token_at(n1, h).unwrap(),
        Token::None,
        "stale = inconsistent copy"
    );

    // Node 1 collects on its stale view: T survives there (conservative).
    let s1 = c.run_bgc(n1, b).unwrap();
    assert_eq!(s1.reclaimed, 0, "stale scan keeps T at node 1");
    // The conservatism propagates: node 1's report lists an exiting
    // ownerPtr for T, so even the owner — whose consistent view says T is
    // dead — must keep it. Nothing live anywhere can be lost.
    let s0 = c.run_bgc(n0, b).unwrap();
    assert_eq!(s0.reclaimed, 0, "node 1's stale replica still shields T");
    // Once node 1 synchronizes on H (fresh copy without the pointer), its
    // next collection drops its T replica and stops shielding it...
    c.acquire_read(n1, h).unwrap();
    c.release(n1, h).unwrap();
    let s1 = c.run_bgc(n1, b).unwrap();
    assert_eq!(s1.reclaimed, 1, "conservatism ends at the next sync point");
    // ...and the owner finally reclaims T.
    let s0 = c.run_bgc(n0, b).unwrap();
    assert_eq!(
        s0.reclaimed, 1,
        "T dies at the owner after the shield drops"
    );
    c.assert_gc_acquired_no_tokens();
}

/// §4.3: "An inter-bunch stub will not be added to the new stub table if
/// the corresponding local object no longer includes the inter-bunch
/// reference associated with the stub."
#[test]
fn stub_dropped_when_the_reference_is_overwritten() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b1 = c.create_bunch(n0).unwrap();
    let b2 = c.create_bunch(n0).unwrap();
    let src = c.alloc(n0, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    let t1 = c.alloc(n0, b2, &ObjSpec::data(1)).unwrap();
    let t2 = c.alloc(n0, b2, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, src);
    c.write_ref(n0, src, 0, t1).unwrap();
    assert_eq!(c.gc.node(n0).bunch(b1).unwrap().stub_table.inter().len(), 1);
    // Re-point at t2: a second SSP appears (t1's stub is now dangling-ish
    // until the next collection rebuilds the table).
    c.write_ref(n0, src, 0, t2).unwrap();
    assert_eq!(c.gc.node(n0).bunch(b1).unwrap().stub_table.inter().len(), 2);
    // The BGC regenerates: only the live reference's stub survives.
    c.run_bgc(n0, b1).unwrap();
    let stubs = &c.gc.node(n0).bunch(b1).unwrap().stub_table.inter();
    assert_eq!(stubs.len(), 1);
    assert_eq!(stubs[0].target_addr, t2);
    // And B2's collection then reclaims the unshielded t1.
    let s = c.run_bgc(n0, b2).unwrap();
    assert_eq!(s.reclaimed, 1);
}

/// Scion target addresses are themselves rewritten when the target bunch's
/// collection relocates the protected object.
#[test]
fn scion_targets_follow_relocations() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b1 = c.create_bunch(n0).unwrap();
    let b2 = c.create_bunch(n0).unwrap();
    let src = c.alloc(n0, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    let tgt = c.alloc(n0, b2, &ObjSpec::data(1)).unwrap();
    c.write_data(n0, tgt, 0, 5).unwrap();
    c.add_root(n0, src);
    c.write_ref(n0, src, 0, tgt).unwrap();
    let before = c.gc.node(n0).bunch(b2).unwrap().scion_table.inter()[0].target_addr;
    // Collect B2: the target (owned locally) moves; the scion is a root, so
    // the object survives and the scion's address is updated.
    c.run_bgc(n0, b2).unwrap();
    let after = c.gc.node(n0).bunch(b2).unwrap().scion_table.inter()[0].target_addr;
    assert_ne!(before, after, "the scion followed the copy");
    assert_eq!(c.read_data(n0, tgt, 0).unwrap(), 5);
    // B1's source still reads the target through forwarding; after B1's own
    // collection its field points directly at the new address.
    c.run_bgc(n0, b1).unwrap();
    let src_now = c.gc.node(n0).directory.resolve(src);
    assert_eq!(
        bmx_repro::addr::object::read_ref_field(&c.mems[0], src_now, 0).unwrap(),
        after
    );
}

/// To-space overflow: collecting a bunch whose live data exceeds one
/// segment spills into additional to-space segments transparently.
#[test]
fn to_space_spills_across_segments() {
    let mut cfg = ClusterConfig::with_nodes(1);
    cfg.segment_words = 256; // tiny segments
    let mut c = Cluster::new(cfg);
    let n0 = n(0);
    let b = c.create_bunch(n0).unwrap();
    // ~40 objects x 5 words each = 200 words live, spread over several
    // 256-word segments by the builder.
    let list = bmx_repro::workloads::lists::build_list(&mut c, n0, b, 40, 0).unwrap();
    let rid = c.add_root(n0, list.head);
    let segs_before = c.server.borrow().bunch(b).unwrap().segments.len();
    let s = c.run_bgc(n0, b).unwrap();
    assert_eq!(s.copied, 40);
    let segs_after = c.server.borrow().bunch(b).unwrap().segments.len();
    assert!(segs_after > segs_before, "to-space needed fresh segments");
    let head = c.root(n0, rid).unwrap();
    assert_eq!(
        bmx_repro::workloads::lists::read_payloads(&c, n0, head).unwrap(),
        (0..40).collect::<Vec<_>>()
    );
}

/// Mutator roots pointing outside the collected group are ignored by that
/// collection (per-bunch independence) but keep their own bunches' objects
/// alive in theirs.
#[test]
fn roots_are_scoped_to_the_collected_group() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b1 = c.create_bunch(n0).unwrap();
    let b2 = c.create_bunch(n0).unwrap();
    let o1 = c.alloc(n0, b1, &ObjSpec::data(1)).unwrap();
    let o2 = c.alloc(n0, b2, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, o1);
    c.add_root(n0, o2);
    let s1 = c.run_bgc(n0, b1).unwrap();
    assert_eq!(s1.live, 1, "only B1's object counted");
    let s2 = c.run_bgc(n0, b2).unwrap();
    assert_eq!(s2.live, 1, "only B2's object counted");
}

/// Objects the mutator re-acquires after losing their replicas (reclaimed
/// locally, still live remotely) are re-materialized by the grant.
#[test]
fn locally_reclaimed_replicas_can_be_refetched() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let (n0, n1) = (n(0), n(1));
    let b = c.create_bunch(n0).unwrap();
    let o = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    c.write_data(n0, o, 0, 31).unwrap();
    c.add_root(n0, o);
    c.map_bunch(n1, b, n0).unwrap();
    // Node 1 never roots O: its replica dies at its first collection.
    let s = c.run_bgc(n1, b).unwrap();
    assert_eq!(s.reclaimed, 1);
    assert!(c.oid_at_local(n1, o).is_err(), "replica gone at node 1");
    // A later acquire re-materializes it through the grant.
    c.acquire_read(n1, o).unwrap();
    assert_eq!(c.read_data(n1, o, 0).unwrap(), 31);
    c.release(n1, o).unwrap();
}

/// §4.3, per reference: a source object holding two inter-bunch
/// references loses exactly the stub of the one it overwrote; the other
/// stub survives the regeneration unchanged.
#[test]
fn overwriting_one_of_two_references_cuts_exactly_its_stub() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b1 = c.create_bunch(n0).unwrap();
    let b2 = c.create_bunch(n0).unwrap();
    let src = c.alloc(n0, b1, &ObjSpec::with_refs(2, &[0, 1])).unwrap();
    let t1 = c.alloc(n0, b2, &ObjSpec::data(1)).unwrap();
    let t2 = c.alloc(n0, b2, &ObjSpec::data(1)).unwrap();
    let t3 = c.alloc(n0, b2, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, src);
    c.write_ref(n0, src, 0, t1).unwrap();
    c.write_ref(n0, src, 1, t2).unwrap();
    c.write_ref(n0, src, 1, t3).unwrap();
    let before = c.gc.node(n0).bunch(b1).unwrap().stub_table.inter().to_vec();
    assert_eq!(before.len(), 3);
    c.run_bgc(n0, b1).unwrap();
    let after = c.gc.node(n0).bunch(b1).unwrap().stub_table.inter().to_vec();
    // B1's collection moves only B1's objects: B2 targets keep their
    // addresses, so the survivors are the old stubs of t1 and t3 verbatim.
    let kept: Vec<_> = before
        .iter()
        .filter(|s| s.target_addr != t2)
        .cloned()
        .collect();
    assert_eq!(after, kept, "only the t2 stub is cut");
    let s = c.run_bgc(n0, b2).unwrap();
    assert_eq!(s.reclaimed, 1, "t2 alone lost its scion");
    assert_eq!(s.live, 2);
}

/// A stub recorded before its target moved still matches the reference
/// afterwards: retention compares resolved addresses, and the kept stub
/// carries the target's new address.
#[test]
fn stub_of_a_moved_target_is_kept() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(1));
    let n0 = n(0);
    let b1 = c.create_bunch(n0).unwrap();
    let b2 = c.create_bunch(n0).unwrap();
    let src = c.alloc(n0, b1, &ObjSpec::with_refs(1, &[0])).unwrap();
    let tgt = c.alloc(n0, b2, &ObjSpec::data(1)).unwrap();
    c.add_root(n0, src);
    c.write_ref(n0, src, 0, tgt).unwrap();
    let stub = c.gc.node(n0).bunch(b1).unwrap().stub_table.inter()[0].clone();
    assert_eq!(stub.target_addr, tgt);
    // B2's collection copies the target; B1's stub still names the old
    // address, and B1's source field too.
    assert_eq!(c.run_bgc(n0, b2).unwrap().copied, 1);
    let moved = c.gc.node(n0).directory.resolve(tgt);
    assert_ne!(moved, tgt);
    c.run_bgc(n0, b1).unwrap();
    let stubs = c.gc.node(n0).bunch(b1).unwrap().stub_table.inter().to_vec();
    assert_eq!(stubs.len(), 1, "the stub survived the move");
    assert_eq!(stubs[0].id, stub.id, "same SSP, not a new one");
    assert_eq!(stubs[0].target_addr, moved);
    // The target stays protected through further collections.
    let s = c.run_bgc(n0, b2).unwrap();
    assert_eq!((s.live, s.reclaimed), (1, 0));
}

/// A non-owned replica stays where it was when its segment retires to
/// from-space; when it dies at a later collection, the sweep still finds
/// it there and reclaims it.
#[test]
fn non_owned_replica_dies_in_retired_from_space() {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let (n0, n1) = (n(0), n(1));
    let b = c.create_bunch(n0).unwrap();
    let o = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    let p = c.alloc(n0, b, &ObjSpec::data(1)).unwrap();
    let root_o = c.add_root(n0, o);
    c.add_root(n0, p);
    c.map_bunch(n1, b, n0).unwrap();
    c.add_root(n1, o);
    // Ownership of O moves to node 1.
    c.acquire_write(n1, o).unwrap();
    c.write_data(n1, o, 0, 7).unwrap();
    c.release(n1, o).unwrap();
    let oid = c.oid_at(n0, o).unwrap();
    assert!(!c.engine.is_owner(n0, oid));

    // Node 0 copies P (owned) and scans O in place: O's segment retires
    // to from-space with O's live replica still in it.
    let s = c.run_bgc(n0, b).unwrap();
    assert_eq!((s.copied, s.scanned, s.reclaimed), (1, 1, 0));
    let o_seg = c.server.borrow().segment_of(o).unwrap().id;
    assert!(c
        .gc
        .node(n0)
        .bunch(b)
        .unwrap()
        .pending_from
        .contains(&o_seg));
    assert_eq!(c.gc.node(n0).directory.addr_of(oid), Some(o));

    // Node 0 drops its root: the next collection reclaims the replica in
    // from-space, while node 1's copy lives on.
    c.remove_root(n0, root_o).unwrap();
    let s = c.run_bgc(n0, b).unwrap();
    assert_eq!((s.live, s.reclaimed), (1, 1));
    assert!(c.oid_at_local(n0, o).is_err(), "replica gone at node 0");
    assert_eq!(c.gc.node(n0).directory.addr_of(oid), None);
    c.acquire_read(n1, o).unwrap();
    assert_eq!(c.read_data(n1, o, 0).unwrap(), 7);
    c.release(n1, o).unwrap();
}
