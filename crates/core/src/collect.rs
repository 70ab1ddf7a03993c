//! The bunch garbage collector — and, run over a group, the group collector.
//!
//! One invocation of [`collect`] collects the local replica of every bunch
//! in `group` at one node, independently of every other node (paper,
//! Sections 4 and 7). The algorithm:
//!
//! 1. **Roots** — the mutator stack, the inter-bunch scions whose source
//!    bunch lies *outside* the group (this exclusion is what lets the group
//!    collector reclaim intra-group inter-bunch cycles, Section 7), the
//!    intra-bunch scions, and the entering ownerPtrs.
//! 2. **Trace** — strong roots first, then intra-bunch-scion roots; objects
//!    reachable only from the latter are preserved but publish no exiting
//!    ownerPtr, which is the cycle-breaking rule of Section 6.2.
//! 3. **Copy/scan** — a locally *owned* live object is copied to to-space
//!    and a forwarding pointer is written into its from-space header; this
//!    is purely local, no token is acquired (Section 4.2). A non-owned live
//!    object — whose replica may be inconsistent — is merely scanned in
//!    place: scanning stale data is safe because it can only make
//!    reachability more conservative.
//! 4. **Local reference update** — every live object's pointer fields, the
//!    mutator roots, and the scion target addresses are rewritten through
//!    the local forwarding knowledge, again without tokens (Section 4.4).
//!    Remote replicas are *not* touched: their updates travel lazily as
//!    piggy-backed relocation records.
//! 5. **Reclamation** — the sweep walks the object-map of every mapped
//!    segment of the bunch, reading each header in place, and drops the
//!    replicas that are neither live nor forwarded.
//! 6. **Table regeneration & publish** (Section 4.3) — a new stub table
//!    (inter-bunch stubs whose source object is live and still holds the
//!    reference; intra-bunch stubs whose object is live locally) and a new
//!    exiting-ownerPtr list (live, non-owned, strongly reachable replicas);
//!    the spaces swap, and the reachability report goes out to every node
//!    that has the bunch mapped or holds scions matched by the old or new
//!    stub table.
//!
//! One collection costs time linear in its live objects, its SSP entries
//! and the headers of the segments it sweeps (retired from-space included
//! until it is reused): the trace records each inter-bunch reference as a
//! `(source, resolved target)` pair, and an old stub is kept iff its
//! pair is in that set; every move is tagged with its bunch when copied,
//! and each bunch's replica holders are looked up once per collection.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use bmx_addr::layout::HEADER_WORDS;
use bmx_addr::object::{self, ObjectImage, ObjectView};
use bmx_addr::NodeMemory;
use bmx_common::WORD_BYTES;
use bmx_common::{Addr, BmxError, BunchId, NodeId, NodeStats, Oid, Result, SegmentId, StatKind};
use bmx_dsm::{DsmEngine, GcIntegration, Relocation};
use bmx_metrics::{self as metrics, Ctr, Gge, Hst};
use bmx_profile::{self as profile, SpanKind};
use bmx_trace::{self as trace, GcPhase, SspKind, TraceEvent};

use crate::msg::ReachabilityReport;
use crate::ssp::InterStub;
use crate::state::GcState;

/// Counters from one collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Locally owned live objects copied to to-space.
    pub copied: u64,
    /// Words copied (headers included).
    pub copied_words: u64,
    /// Non-owned live objects scanned in place.
    pub scanned: u64,
    /// Dead local replicas reclaimed.
    pub reclaimed: u64,
    /// Words of dead replicas reclaimed.
    pub reclaimed_words: u64,
    /// Live objects found (copied + scanned).
    pub live: u64,
}

/// Result of one collection.
pub struct CollectOutcome {
    /// Reachability reports, one per collected bunch, with the remote
    /// destinations each must reach. The local scion cleaner must process
    /// each report too (scions for locally mapped target bunches live on
    /// this same node).
    pub reports: Vec<(Vec<NodeId>, ReachabilityReport)>,
    /// Local replicas that died: the caller drops their DSM replica
    /// records. (The collector takes the engine immutably so that "the GC
    /// cannot drive the protocol" is structural, not just discipline.)
    pub dead: Vec<Oid>,
    /// Collection counters.
    pub stats: CollectStats,
}

#[derive(Clone, Copy)]
pub(crate) struct LiveObj {
    pub(crate) oid: Oid,
    pub(crate) bunch: BunchId,
    pub(crate) owned: bool,
    pub(crate) strong: bool,
}

pub(crate) struct InterRef {
    source_oid: Oid,
    target: Addr,
}

/// The persistent working state of a collection — separated from the
/// borrows so the incremental collector can keep it alive across bounded
/// work increments (see [`crate::incremental`]).
pub(crate) struct TraceCore {
    pub(crate) group: BTreeSet<BunchId>,
    pub(crate) to_segs: BTreeMap<BunchId, Vec<SegmentId>>,
    /// Live objects keyed by their final (post-copy) address.
    pub(crate) live: BTreeMap<Addr, LiveObj>,
    pub(crate) visited: BTreeSet<Addr>,
    pub(crate) inter_refs: Vec<InterRef>,
    /// This run's moves, each tagged with the bunch of the moved object.
    pub(crate) new_relocs: Vec<(BunchId, Relocation)>,
    pub(crate) dead_oids: Vec<Oid>,
    pub(crate) out: CollectStats,
    /// Live words per bunch (headers included), for the per-bunch
    /// live-bytes metric. Maintained only while metrics are enabled.
    pub(crate) live_words_by_bunch: BTreeMap<BunchId, u64>,
}

impl TraceCore {
    /// Fresh working state for a collection of `group`.
    pub(crate) fn new(group: &[BunchId]) -> TraceCore {
        TraceCore {
            group: group.iter().copied().collect(),
            to_segs: BTreeMap::new(),
            live: BTreeMap::new(),
            visited: BTreeSet::new(),
            inter_refs: Vec::new(),
            new_relocs: Vec::new(),
            dead_oids: Vec::new(),
            out: CollectStats::default(),
            live_words_by_bunch: BTreeMap::new(),
        }
    }
}

/// Stopwatch for the per-phase / whole-pause metrics and the profiler's
/// BGC phase spans. Inert (no clock reads at all) when both planes are
/// disabled; the readings feed only observability, never the
/// simulation, so determinism is untouched.
pub(crate) struct PhaseClock {
    start: Option<std::time::Instant>,
    last: Option<std::time::Instant>,
    /// The previous lap's end on the profiler clock, µs since its epoch.
    last_us: u64,
}

/// The profiler span a phase counter corresponds to, for runs profiled
/// under real threads (the counters alone cannot show *when* a phase
/// ran relative to the acquires it paused).
fn phase_span(ctr: Ctr) -> Option<SpanKind> {
    match ctr {
        Ctr::BgcRootsMicros => Some(SpanKind::BgcRoots),
        Ctr::BgcTraceMicros => Some(SpanKind::BgcTrace),
        Ctr::BgcUpdateMicros => Some(SpanKind::BgcUpdate),
        Ctr::BgcSweepMicros => Some(SpanKind::BgcSweep),
        Ctr::BgcPublishMicros => Some(SpanKind::BgcPublish),
        _ => None,
    }
}

impl PhaseClock {
    pub(crate) fn start() -> PhaseClock {
        let now = (metrics::enabled() || profile::enabled()).then(std::time::Instant::now);
        PhaseClock {
            start: now,
            last: now,
            last_us: profile::now_us(),
        }
    }

    /// Credits the time since the previous lap to `ctr` (and, when
    /// profiling, records the lap as that phase's span).
    pub(crate) fn lap(&mut self, node: NodeId, ctr: Ctr) {
        if let Some(prev) = self.last {
            let now = std::time::Instant::now();
            let us = now.duration_since(prev).as_micros() as u64;
            metrics::add(node, ctr, us);
            if profile::enabled() {
                if let Some(kind) = phase_span(ctr) {
                    profile::record(kind, node, self.last_us, us);
                }
                self.last_us = profile::now_us();
            }
            self.last = Some(now);
        }
    }

    /// Records the whole elapsed span as one collection pause.
    pub(crate) fn finish(self, node: NodeId) {
        if let Some(start) = self.start {
            metrics::observe(
                node,
                Hst::BgcPauseMicros,
                start.elapsed().as_micros() as u64,
            );
            metrics::bump(node, Ctr::BgcCollections);
        }
    }
}

/// Re-derives `node`'s drain-watched gauges (from-space retention, scion
/// and stub table sizes) from the GC state. Called after every event that
/// can move them: a collection's publish, a reuse-protocol drain, a
/// cleaner cut. No-op when metrics are disabled.
pub fn refresh_node_gauges(gc: &GcState, node: NodeId) {
    if !metrics::enabled() {
        return;
    }
    let seg_words = gc.server.borrow().segment_words();
    let mut from_words = 0u64;
    let mut scions = 0u64;
    let mut stubs = 0u64;
    for brs in gc.node(node).bunches.values() {
        from_words += brs.pending_from.len() as u64 * seg_words;
        scions += (brs.scion_table.inter().len() + brs.scion_table.intra().len()) as u64;
        stubs += (brs.stub_table.inter().len() + brs.stub_table.intra().len()) as u64;
    }
    metrics::gauge_set(node, Gge::FromSpaceRetainedWords, from_words);
    metrics::gauge_set(node, Gge::ScionTableSize, scions);
    metrics::gauge_set(node, Gge::StubTableSize, stubs);
}

pub(crate) struct Ctx<'a> {
    pub(crate) gc: &'a mut GcState,
    pub(crate) engine: &'a DsmEngine,
    pub(crate) mem: &'a mut NodeMemory,
    pub(crate) stats: &'a mut NodeStats,
    pub(crate) node: NodeId,
    pub(crate) core: &'a mut TraceCore,
}

/// Collects the local replicas of `group` at `node`.
///
/// With a single-bunch group this is the paper's BGC; with the set of all
/// locally mapped bunches it is the GGC under the locality heuristic.
/// The collector never acquires a token: it takes the DSM engine immutably.
pub fn collect(
    gc: &mut GcState,
    engine: &DsmEngine,
    mem: &mut NodeMemory,
    stats: &mut NodeStats,
    node: NodeId,
    group: &[BunchId],
) -> Result<CollectOutcome> {
    for &b in group {
        if !gc.node(node).bunches.contains_key(&b) {
            return Err(BmxError::BunchUnmapped { node, bunch: b });
        }
    }
    let mut core = TraceCore::new(group);
    let mut ctx = Ctx {
        gc,
        engine,
        mem,
        stats,
        node,
        core: &mut core,
    };

    let lead = group[0];
    let mut clock = PhaseClock::start();
    ctx.phase(lead, GcPhase::Roots);
    let (strong_roots, intra_roots) = ctx.gather_roots();
    clock.lap(node, Ctr::BgcRootsMicros);
    ctx.phase(lead, GcPhase::Trace);
    ctx.trace(strong_roots, true)?;
    ctx.trace(intra_roots, false)?;
    clock.lap(node, Ctr::BgcTraceMicros);
    ctx.phase(lead, GcPhase::Update);
    ctx.update_references()?;
    clock.lap(node, Ctr::BgcUpdateMicros);
    ctx.phase(lead, GcPhase::Sweep);
    ctx.sweep()?;
    clock.lap(node, Ctr::BgcSweepMicros);
    ctx.phase(lead, GcPhase::Publish);
    let reports = ctx.regenerate_and_publish()?;
    clock.lap(node, Ctr::BgcPublishMicros);
    clock.finish(node);
    refresh_node_gauges(gc, node);
    Ok(CollectOutcome {
        reports,
        dead: core.dead_oids,
        stats: core.out,
    })
}

impl Ctx<'_> {
    pub(crate) fn phase(&self, bunch: BunchId, phase: GcPhase) {
        trace::emit(self.node, TraceEvent::BgcPhase { bunch, phase });
    }

    fn resolve(&self, addr: Addr) -> Addr {
        self.gc.node(self.node).directory.resolve(addr)
    }

    fn in_group(&self, addr: Addr) -> Option<BunchId> {
        self.gc
            .bunch_of(addr)
            .filter(|b| self.core.group.contains(b))
    }

    /// Roots per Section 4.1: mutator stacks, scions, entering ownerPtrs.
    pub(crate) fn gather_roots(&self) -> (Vec<Addr>, Vec<Addr>) {
        let ns = self.gc.node(self.node);
        let mut strong = Vec::new();
        let mut intra = Vec::new();
        for &addr in ns.roots.values() {
            if self.in_group(self.resolve(addr)).is_some() {
                strong.push(addr);
            }
        }
        for &b in &self.core.group {
            let Some(brs) = ns.bunch(b) else { continue };
            for s in brs.scion_table.inter() {
                // GGC rule: scions whose source bunch is inside the group do
                // not root — that is what lets intra-group cycles die.
                if !self.core.group.contains(&s.source_bunch) {
                    strong.push(s.target_addr);
                }
            }
            for s in brs.scion_table.intra() {
                if let Some(a) = ns.directory.addr_of(s.oid) {
                    intra.push(a);
                }
            }
        }
        for (oid, st) in self.engine.replicas(self.node) {
            if self.core.group.contains(&st.bunch) && !st.entering.is_empty() {
                if let Some(a) = ns.directory.addr_of(oid) {
                    strong.push(a);
                }
            }
        }
        (strong, intra)
    }

    pub(crate) fn trace(&mut self, roots: Vec<Addr>, strong: bool) -> Result<()> {
        let mut stack = roots;
        self.trace_bounded(&mut stack, strong, None)?;
        Ok(())
    }

    /// Traces at most `budget` objects from `stack` (all of them when
    /// `budget` is `None`). Returns the number of objects processed; the
    /// stack retains the unprocessed remainder, which is what lets the
    /// incremental collector interleave with the mutator.
    pub(crate) fn trace_bounded(
        &mut self,
        stack: &mut Vec<Addr>,
        strong: bool,
        budget: Option<usize>,
    ) -> Result<usize> {
        let mut done = 0;
        while let Some(raw) = stack.pop() {
            if raw.is_null() {
                continue;
            }
            let addr = self.resolve(raw);
            if self.core.visited.contains(&addr) {
                continue;
            }
            // A root or field may point at something this replica has never
            // materialized (e.g. a scion for an object allocated remotely
            // after mapping). Treat as opaque: conservative, nothing to do
            // locally — the owner's replica keeps it alive there.
            let Ok(view) = object::view(self.mem, addr) else {
                continue;
            };
            if view.is_forwarded() {
                // Header-level forwarding the directory did not know about
                // cannot normally happen (record_move maintains both), but
                // following it is the conservative move.
                stack.push(view.forwarding);
                continue;
            }
            let Some(bunch) = self.in_group(addr) else {
                continue;
            };
            done += 1;
            let owned = self.engine.is_owner(self.node, view.oid);
            let final_addr = if owned {
                let dst = self.copy_object(bunch, addr)?;
                self.core.out.copied += 1;
                self.core.out.copied_words += HEADER_WORDS + view.size;
                self.stats.bump(StatKind::ObjectsCopied);
                self.stats
                    .add(StatKind::WordsCopied, HEADER_WORDS + view.size);
                dst
            } else {
                self.core.out.scanned += 1;
                self.stats.bump(StatKind::ObjectsScanned);
                addr
            };
            self.core.visited.insert(addr);
            self.core.visited.insert(final_addr);
            self.core.out.live += 1;
            if metrics::enabled() {
                *self.core.live_words_by_bunch.entry(bunch).or_default() +=
                    HEADER_WORDS + view.size;
            }
            self.core.live.insert(
                final_addr,
                LiveObj {
                    oid: view.oid,
                    bunch,
                    owned,
                    strong,
                },
            );
            for (_, t) in object::ref_fields(self.mem, final_addr)? {
                if t.is_null() {
                    continue;
                }
                let tr = self.resolve(t);
                match self.gc.bunch_of(tr) {
                    Some(tb) if self.core.group.contains(&tb) => stack.push(tr),
                    Some(_) => {
                        self.core.inter_refs.push(InterRef {
                            source_oid: view.oid,
                            target: tr,
                        });
                    }
                    None => {}
                }
            }
            if budget.is_some_and(|b| done >= b) {
                break;
            }
        }
        Ok(done)
    }

    /// Copies one locally owned object to to-space and leaves a forwarding
    /// header. Strictly local: "this header modification ... does not imply
    /// acquiring the object's write token" (Section 4.2).
    fn copy_object(&mut self, bunch: BunchId, from: Addr) -> Result<Addr> {
        let img = ObjectImage::capture(self.mem, from)?;
        let need = HEADER_WORDS + img.data.len() as u64;
        let seg_id = self.target_seg_with_space(bunch, need)?;
        let dst = {
            let seg = self.mem.segment(seg_id)?;
            seg.info.base.add_words(seg.alloc_cursor)
        };
        object::install_object_at(self.mem, dst, &img)?;
        object::set_forwarding(self.mem, from, dst)?;
        self.gc
            .node_mut(self.node)
            .directory
            .record_move(img.oid, from, dst);
        trace::emit(
            self.node,
            TraceEvent::Relocate {
                oid: img.oid,
                from,
                to: dst,
            },
        );
        self.core.new_relocs.push((
            bunch,
            Relocation {
                oid: img.oid,
                from,
                to: dst,
            },
        ));
        Ok(dst)
    }

    fn target_seg_with_space(&mut self, bunch: BunchId, need: u64) -> Result<SegmentId> {
        if let Some(&last) = self.core.to_segs.get(&bunch).and_then(|v| v.last()) {
            if self.mem.segment(last)?.free_words() >= need {
                return Ok(last);
            }
        }
        let info = self.gc.server.borrow_mut().alloc_segment(bunch)?;
        if need > info.words {
            return Err(BmxError::OutOfMemory { bunch, words: need });
        }
        self.mem.map_segment(info);
        self.core.to_segs.entry(bunch).or_default().push(info.id);
        Ok(info.id)
    }

    /// Rewrites every live object's pointer fields, the mutator roots, and
    /// the scion addresses through the local forwarding knowledge.
    pub(crate) fn update_references(&mut self) -> Result<()> {
        let addrs: Vec<Addr> = self.core.live.keys().copied().collect();
        for addr in addrs {
            for (f, t) in object::ref_fields(self.mem, addr)? {
                if t.is_null() {
                    continue;
                }
                let tr = self.resolve(t);
                if tr != t {
                    object::write_ref_field(self.mem, addr, f, tr)?;
                }
            }
        }
        let ns = self.gc.node_mut(self.node);
        let root_updates: Vec<(u64, Addr)> = ns
            .roots
            .iter()
            .map(|(&id, &a)| (id, a, ns.directory.resolve(a)))
            .filter(|&(_, a, r)| a != r)
            .map(|(id, _, r)| (id, r))
            .collect();
        for (id, r) in root_updates {
            ns.set_root(id, r);
        }
        for &b in &self.core.group {
            let Some(brs) = ns.bunches.get_mut(&b) else {
                continue;
            };
            for s in brs.scion_table.inter_mut() {
                s.target_addr = ns.directory.resolve(s.target_addr);
            }
        }
        Ok(())
    }

    /// Drops dead local replicas from the collected spaces.
    ///
    /// Sweeps every locally mapped segment of each collected bunch — the
    /// current space, the retired from-space, and *foreign* to-space
    /// segments that relocation records caused this node to map (replicas
    /// installed there die like any other) — except the to-space segments
    /// this very run created, which hold only live copies.
    pub(crate) fn sweep(&mut self) -> Result<()> {
        for &b in &self.core.group.clone() {
            let fresh: Vec<SegmentId> = self.core.to_segs.get(&b).cloned().unwrap_or_default();
            let seg_ids: Vec<SegmentId> = self
                .mem
                .mapped_segments()
                .into_iter()
                .filter(|&sid| {
                    self.mem.segment(sid).is_ok_and(|s| s.info.bunch == b) && !fresh.contains(&sid)
                })
                .collect();
            for seg_id in seg_ids {
                if !self.mem.has_segment(seg_id) {
                    continue;
                }
                // Read the headers from the segment in hand; collect the
                // dead replicas first, then reclaim them in address order.
                let seg = self.mem.segment(seg_id)?;
                let dead: Vec<ObjectView> = seg
                    .object_map
                    .iter_ones()
                    .map(|off| object::view_in(seg, off as u64))
                    .filter(|v| !v.is_forwarded() && !self.core.live.contains_key(&v.addr))
                    .collect();
                for v in &dead {
                    self.core.out.reclaimed += 1;
                    self.core.out.reclaimed_words += v.footprint();
                    self.stats.bump(StatKind::ObjectsReclaimed);
                    self.stats.add(StatKind::WordsReclaimed, v.footprint());
                    let ns = self.gc.node_mut(self.node);
                    if ns.directory.addr_of(v.oid) == Some(v.addr) {
                        ns.directory.drop_oid(v.oid);
                    }
                    // The replica record disappears: the next report's
                    // exiting list will no longer mention it, and the scion
                    // cleaner at the owner will drop the entering ownerPtr
                    // (Section 6.2). The engine is only touched through this
                    // record-drop — never through a token.
                    self.drop_replica_record(v.oid);
                }
                let seg = self.mem.segment_mut(seg_id)?;
                for v in &dead {
                    seg.object_map
                        .clear(v.addr.words_from(seg.info.base) as usize);
                }
            }
        }
        Ok(())
    }

    fn drop_replica_record(&mut self, oid: Oid) {
        // The engine reference is immutable in `Ctx`, so record the drop;
        // the caller applies it after the collection (`CollectOutcome`).
        self.core.dead_oids.push(oid);
    }

    /// Builds the new stub tables and exiting lists, swaps spaces, and
    /// prepares the reports (Section 4.3).
    pub(crate) fn regenerate_and_publish(
        &mut self,
    ) -> Result<Vec<(Vec<NodeId>, ReachabilityReport)>> {
        let mut reports = Vec::new();
        // The live objects of each bunch, in OID order (it orders the
        // exiting list), partitioned in one pass over the live set.
        let mut live_by_bunch: BTreeMap<BunchId, BTreeMap<Oid, (bool, bool)>> = BTreeMap::new();
        for l in self.core.live.values() {
            live_by_bunch
                .entry(l.bunch)
                .or_default()
                .insert(l.oid, (l.owned, l.strong));
        }
        // Each collected bunch's replica holders, looked up once.
        let mapped: BTreeMap<BunchId, Vec<NodeId>> = self
            .core
            .group
            .iter()
            .map(|&b| (b, self.gc.mapped_nodes(b)))
            .collect();
        // Every inter-bunch reference the trace saw, as (source, resolved
        // target): a stub is retained iff its pair is in here. Membership
        // only, so the hash order never reaches a report.
        let held: HashSet<(Oid, Addr)> = self
            .core
            .inter_refs
            .iter()
            .map(|r| (r.source_oid, r.target))
            .collect();
        for &b in &self.core.group.clone() {
            let live_of_bunch = live_by_bunch.remove(&b).unwrap_or_default();
            // Stub retention.
            let (old_inter, old_intra) = {
                let brs = self.gc.node(self.node).bunch(b).expect("mapped");
                (
                    brs.stub_table.inter().to_vec(),
                    brs.stub_table.intra().to_vec(),
                )
            };
            let new_inter: Vec<InterStub> = old_inter
                .iter()
                .filter(|s| live_of_bunch.contains_key(&s.source_oid))
                .filter_map(|s| {
                    let target_addr = self.resolve(s.target_addr);
                    held.contains(&(s.source_oid, target_addr))
                        .then(|| InterStub {
                            target_addr,
                            ..s.clone()
                        })
                })
                .collect();
            let new_intra: Vec<_> = old_intra
                .iter()
                .filter(|s| live_of_bunch.contains_key(&s.oid))
                .copied()
                .collect();
            // Exiting ownerPtrs: live, non-owned, strongly reachable; an
            // object alive only through an intra-bunch scion publishes none
            // (the cycle-breaking rule of Section 6.2).
            let exiting: Vec<(Oid, NodeId)> = live_of_bunch
                .iter()
                .filter(|(_, &(owned, strong))| !owned && strong)
                .filter_map(|(&oid, _)| {
                    self.engine
                        .obj_state(self.node, oid)
                        .map(|st| (oid, st.owner_hint))
                })
                .collect();
            // Report destinations: replica holders of the bunch, scion sites
            // of the old and new stub tables, exiting-ptr targets.
            let mut dests: BTreeSet<NodeId> = mapped[&b].iter().copied().collect();
            dests.extend(old_inter.iter().map(|s| s.scion_at));
            dests.extend(new_inter.iter().map(|s| s.scion_at));
            dests.extend(old_intra.iter().map(|s| s.scion_at));
            dests.extend(new_intra.iter().map(|s| s.scion_at));
            dests.extend(exiting.iter().map(|&(_, n)| n));
            dests.remove(&self.node);

            let bunch_relocs: Vec<Relocation> = self
                .core
                .new_relocs
                .iter()
                .filter(|&&(rb, _)| rb == b)
                .map(|&(_, r)| r)
                .collect();
            // Swap spaces and store the new tables.
            let epoch = {
                let brs = self.gc.node_mut(self.node).bunch_mut(b).expect("mapped");
                brs.stub_table.replace(new_inter.clone(), new_intra.clone());
                if let Some(to) = self.core.to_segs.remove(&b) {
                    let old = std::mem::replace(&mut brs.alloc_segments, to);
                    brs.pending_from.extend(old);
                }
                brs.relocations.extend(bunch_relocs);
                brs.epoch.bump()
            };
            if trace::enabled() {
                let inter_cut = (old_inter.len() - new_inter.len()) as u64;
                if inter_cut > 0 {
                    trace::emit(
                        self.node,
                        TraceEvent::SspCut {
                            kind: SspKind::InterStub,
                            count: inter_cut,
                        },
                    );
                }
                let intra_cut = (old_intra.len() - new_intra.len()) as u64;
                if intra_cut > 0 {
                    trace::emit(
                        self.node,
                        TraceEvent::SspCut {
                            kind: SspKind::IntraStub,
                            count: intra_cut,
                        },
                    );
                }
                trace::emit(self.node, TraceEvent::ReportPublish { bunch: b, epoch });
            }
            if metrics::enabled() {
                let words = self.core.live_words_by_bunch.get(&b).copied().unwrap_or(0);
                metrics::set_bunch_live_bytes(self.node, b.0 as u64, words * WORD_BYTES);
            }
            reports.push((
                dests,
                ReachabilityReport {
                    from: self.node,
                    bunch: b,
                    epoch,
                    inter_stubs: new_inter,
                    intra_stubs: new_intra,
                    exiting,
                },
            ));
        }
        // Lazy relocation propagation: queue every local move for every
        // replica holder of its bunch; the records ride the next DSM
        // message to each destination (Section 4.4). `queue_forward` skips
        // this node itself.
        for (b, r) in std::mem::take(&mut self.core.new_relocs) {
            GcIntegration::queue_forward(self.gc, self.node, &mapped[&b], &[r]);
        }
        Ok(reports
            .into_iter()
            .map(|(dests, rep)| (dests.into_iter().collect(), rep))
            .collect())
    }
}
