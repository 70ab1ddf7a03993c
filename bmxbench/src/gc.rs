//! The collector workloads on the deterministic tick cluster.
//!
//! Node 0 roots `HOLDERS` holders in bunch A; each points through a
//! cross-node inter-bunch reference (stub at node 0, scion at node 1) to a
//! target in bunch B, created at node 1. Each round replaces a seeded tenth
//! of the holders with a fresh holder/target pair in one write bracket —
//! the old pair becomes distributed garbage — then collects A at node 0
//! and B at node 1. `gc-churn` also runs the from-space reuse protocol on
//! both after every round; `gc-churn-noreuse` leaves from-space alone.
//! Everything is one thread, so every count repeats exactly for a seed.

use std::time::Instant;

use bmx::{audit, Cluster, ClusterConfig, ObjSpec};
use bmx_common::{BunchId, NodeId, Oid, SplitMix64, StatKind};
use bmx_profile::SpanKind;

use crate::hist::{ns_since, Hist};
use crate::report::{median, Report, Traffic};
use crate::spans;

const HOLDERS: usize = 10_000;
/// Holders replaced per round.
const CHURN: usize = HOLDERS / 10;
/// Heaps built per run (the last one is churned); `setup_s` is the median
/// build time.
const SETUPS: usize = 11;
/// The exact counts cover this many rounds from the first one.
const EXACT_ROUNDS: usize = 4;
/// Rounds per heap: a fixed amount of work, so runs are comparable even
/// though later rounds cost more than early ones (from-space and
/// forwarding chains grow). Two `run_bgc` samples per round, so one
/// heap's pause p90 has ten samples beyond it. Without from-space reuse
/// every collection of B adds forwarding hops to the targets' original
/// addresses, and `Directory::resolve_hops` panics ("forwarding cycle")
/// at 64 hops: runs of about 60 rounds hit it in the final check, runs of
/// 50 have not.
const ROUNDS: usize = 50;
/// An untraced run churns `--seconds / PASS_SECONDS` heaps (at least
/// one) of `ROUNDS` rounds each; one heap takes about 24 s on a 2-vCPU
/// host, so a run takes longer than `--seconds` asks; a second heap
/// narrows the run-to-run spread of `brackets_per_s`.
const PASS_SECONDS: u64 = 15;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
/// Holder field pointing at the target.
const REF: u64 = 0;
/// Holder field carrying the replacement's tag.
const TAG: u64 = 1;

/// One holder/target pair as the mutator created it.
#[derive(Clone, Copy)]
struct Pair {
    root: u64,
    target_oid: Oid,
    tag: u64,
}

struct Heap {
    c: Cluster,
    a: BunchId,
    b: BunchId,
    pairs: Vec<Pair>,
    next_tag: u64,
}

/// Call-site timings (ns) of the mutator and allocator calls.
#[derive(Default)]
struct Calls {
    alloc: Hist,
    write_ref_inter: Hist,
    acquire_write: Hist,
    release: Hist,
    write_data: Hist,
    bracket: Hist,
}

/// Allocates a fresh pair and links it in one write bracket at node 0.
/// `root` re-points an existing root slot; `None` adds one. Returns the
/// pair and the bracket's time (ns).
fn link(h: &mut Heap, calls: &mut Calls, root: Option<u64>) -> bmx_common::Result<(Pair, u64)> {
    let c = &mut h.c;
    let t = Instant::now();
    let target = c.alloc(N1, h.b, &ObjSpec::data(2))?;
    calls.alloc.record(ns_since(t));
    let target_oid = c.oid_at_local(N1, target)?;
    let t = Instant::now();
    let holder = c.alloc(N0, h.a, &ObjSpec::with_refs(2, &[REF]))?;
    calls.alloc.record(ns_since(t));
    let tag = h.next_tag;
    h.next_tag += 1;

    let t0 = Instant::now();
    c.acquire_write(N0, holder)?;
    calls.acquire_write.record(ns_since(t0));
    let t = Instant::now();
    c.write_ref(N0, holder, REF, target)?;
    calls.write_ref_inter.record(ns_since(t));
    let t = Instant::now();
    c.write_data(N0, holder, TAG, tag)?;
    calls.write_data.record(ns_since(t));
    let t = Instant::now();
    c.release(N0, holder)?;
    calls.release.record(ns_since(t));
    let bracket = ns_since(t0);
    calls.bracket.record(bracket);

    let root = match root {
        Some(id) => {
            c.set_root(N0, id, holder);
            id
        }
        None => c.add_root(N0, holder),
    };
    let pair = Pair {
        root,
        target_oid,
        tag,
    };
    Ok((pair, bracket))
}

/// Builds the cluster and links every holder. Returns the heap and the
/// setup growth ratio: mean `write_ref` time over the last quarter of the
/// links divided by the mean over the first quarter.
fn build() -> (Heap, f64) {
    let mut c = Cluster::new(ClusterConfig::with_nodes(2));
    let a = c.create_bunch(N0).expect("create A");
    let b = c.create_bunch(N1).expect("create B");
    let mut h = Heap {
        c,
        a,
        b,
        pairs: Vec::with_capacity(HOLDERS),
        next_tag: 1,
    };
    let mut calls = Calls::default();
    let mut link_ns = Vec::with_capacity(HOLDERS);
    for _ in 0..HOLDERS {
        let before = calls.write_ref_inter.sum();
        let (p, _) = link(&mut h, &mut calls, None).expect("set-up link");
        link_ns.push(calls.write_ref_inter.sum() - before);
        h.pairs.push(p);
    }
    let q = HOLDERS / 4;
    let first: f64 = link_ns[..q].iter().sum();
    let last: f64 = link_ns[HOLDERS - q..].iter().sum();
    (h, last / first)
}

/// What one round did.
struct Round {
    secs: f64,
    reclaimed: u64,
    /// The p99 of the round's brackets, µs.
    bracket_p99_us: f64,
}

/// Collector observations. The phase sums come from traced rounds only.
#[derive(Default)]
struct Gc {
    pause: Hist,
    reuse: Hist,
    /// Per-phase µs summed over the traced `run_bgc` calls.
    phases: [f64; 5],
    calls: u64,
    /// Live objects and inter-bunch SSP entries those calls saw.
    live: u64,
    ssps: u64,
    /// `run_bgc` time the phase spans do not cover.
    self_us: f64,
}

const PHASES: [(SpanKind, &str); 5] = [
    (SpanKind::BgcRoots, "roots"),
    (SpanKind::BgcTrace, "trace"),
    (SpanKind::BgcUpdate, "update"),
    (SpanKind::BgcSweep, "sweep"),
    (SpanKind::BgcPublish, "publish"),
];

/// Inter-bunch stubs plus scions of `bunch` at `node`.
fn ssp_entries(c: &Cluster, node: NodeId, bunch: BunchId) -> u64 {
    c.gc.node(node).bunch(bunch).map_or(0, |b| {
        (b.stub_table.inter().len() + b.scion_table.inter().len()) as u64
    })
}

fn collect(h: &mut Heap, node: NodeId, bunch: BunchId, gc: &mut Gc, traced: bool) {
    let ssps = ssp_entries(&h.c, node, bunch);
    let t = Instant::now();
    let stats = h.c.run_bgc(node, bunch).expect("run_bgc");
    let took = t.elapsed();
    gc.pause.record(took.as_nanos() as u64);
    if traced {
        // One thread, so the harvest holds exactly this call's spans.
        let (recs, _) = spans::harvest();
        let mut phase_us = 0.0;
        for (sum, (kind, _)) in gc.phases.iter_mut().zip(PHASES) {
            let us: u64 = recs
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.dur_us)
                .sum();
            *sum += us as f64;
            phase_us += us as f64;
        }
        gc.calls += 1;
        gc.live += stats.live;
        gc.ssps += ssps;
        gc.self_us += (took.as_secs_f64() * 1e6 - phase_us).max(0.0);
    }
}

/// Exact counters; over the first rounds they must repeat for a seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Exact {
    copied: u64,
    scions_cleaned: u64,
    stub_table_msgs: u64,
    reclaimed: u64,
    /// Digest of which holder slots were replaced, in order.
    pattern: u64,
}

fn exact_now(c: &Cluster, pattern: u64) -> Exact {
    Exact {
        copied: c.total_stat(StatKind::ObjectsCopied),
        scions_cleaned: c.total_stat(StatKind::ScionsCleaned),
        stub_table_msgs: c.total_stat(StatKind::StubTableMessages),
        reclaimed: c.total_stat(StatKind::ObjectsReclaimed),
        pattern,
    }
}

impl Exact {
    fn since(self, base: Exact) -> Exact {
        Exact {
            copied: self.copied - base.copied,
            scions_cleaned: self.scions_cleaned - base.scions_cleaned,
            stub_table_msgs: self.stub_table_msgs - base.stub_table_msgs,
            reclaimed: self.reclaimed - base.reclaimed,
            pattern: self.pattern,
        }
    }
}

/// Observations of one kind of round (traced or untraced).
#[derive(Default)]
struct Side {
    rounds: Vec<Round>,
    calls: Calls,
    gc: Gc,
}

impl Side {
    /// Sum of `f(round)` over the rounds, per second of round time.
    fn rate(&self, f: impl Fn(&Round) -> f64) -> f64 {
        let secs: f64 = self.rounds.iter().map(|r| r.secs).sum();
        self.rounds.iter().map(f).sum::<f64>() / secs
    }
}

/// The seeded churn generator.
struct Churn {
    rng: SplitMix64,
    pattern: u64,
    reuse: bool,
}

impl Churn {
    fn new(seed: u64, reuse: bool) -> Churn {
        Churn {
            rng: SplitMix64::new(seed ^ 0x6C_C4A2),
            pattern: 0,
            reuse,
        }
    }

    /// Replaces `CHURN` seeded holders, collects both bunches, and (with
    /// reuse) reclaims both from-spaces.
    fn round(&mut self, h: &mut Heap, side: &mut Side, traced: bool) {
        let t0 = Instant::now();
        let reclaimed0 = h.c.total_stat(StatKind::ObjectsReclaimed);
        // Seeded distinct picks: a partial Fisher-Yates over holder slots.
        let mut slots: Vec<usize> = (0..HOLDERS).collect();
        let mut brackets = Hist::default();
        for k in 0..CHURN {
            let j = k + self.rng.next_below((HOLDERS - k) as u64) as usize;
            slots.swap(k, j);
            let slot = slots[k];
            self.pattern =
                self.pattern.rotate_left(7) ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let root = h.pairs[slot].root;
            let (pair, ns) = link(h, &mut side.calls, Some(root)).expect("churn link");
            h.pairs[slot] = pair;
            brackets.record(ns);
        }
        let collections = [(N0, h.a), (N1, h.b)];
        for (node, bunch) in collections {
            collect(h, node, bunch, &mut side.gc, traced);
        }
        if self.reuse {
            for (node, bunch) in collections {
                let t = Instant::now();
                h.c.reuse_from_space(node, bunch).expect("reuse_from_space");
                side.gc.reuse.record(ns_since(t));
            }
        }
        side.rounds.push(Round {
            secs: t0.elapsed().as_secs_f64(),
            reclaimed: h.c.total_stat(StatKind::ObjectsReclaimed) - reclaimed0,
            bracket_p99_us: brackets.quantile(0.99) / 1e3,
        });
    }

    /// Churns `rounds` rounds into `plain`. With `trace`, odd rounds are
    /// traced into `traced` instead, so both sides see the same heap
    /// history. Returns the exact counts of the first `EXACT_ROUNDS`
    /// rounds.
    fn run(
        &mut self,
        h: &mut Heap,
        rounds: usize,
        trace: bool,
        plain: &mut Side,
        traced: &mut Side,
    ) -> Exact {
        let base = exact_now(&h.c, 0);
        let mut exact = None;
        for n in 0..rounds.max(EXACT_ROUNDS) {
            if trace && n % 2 == 1 {
                spans::start();
                self.round(h, traced, true);
                bmx_profile::disable();
            } else {
                self.round(h, plain, false);
            }
            if n + 1 == EXACT_ROUNDS {
                exact = Some(exact_now(&h.c, self.pattern).since(base));
            }
        }
        exact.expect("the loop runs the exact rounds")
    }
}

/// Audits the final heap: the structural audit, liveness of every current
/// holder and target, and every holder still carrying its own tag and
/// pointing at its own target.
fn check(h: &mut Heap, report: &mut Report) -> u64 {
    let mut live = Vec::with_capacity(2 * h.pairs.len());
    // unrooted, unreadable, wrong tag, pointing at another object
    let mut wrong = [0u64; 4];
    for p in h.pairs.clone() {
        let Some(holder) = h.c.root(N0, p.root) else {
            wrong[0] += 1;
            continue;
        };
        live.push((N0, holder));
        if let Some(t) = h.c.gc.node(N1).directory.addr_of(p.target_oid) {
            live.push((N1, t));
        }
        if h.c.acquire_read(N0, holder).is_err() {
            wrong[1] += 1;
            continue;
        }
        if h.c.read_data(N0, holder, TAG).ok() != Some(p.tag) {
            wrong[2] += 1;
        }
        // The pointer as node 0 holds it, resolved the way an acquire of
        // it would be: through the target bunch's creator.
        let target =
            h.c.read_ref(N0, holder, REF)
                .and_then(|t| h.c.oid_at(N1, t));
        if target.ok() != Some(p.target_oid) {
            wrong[3] += 1;
        }
        let _ = h.c.release(N0, holder);
    }
    let mut findings = audit::audit(&h.c);
    findings.extend(audit::audit_liveness(&h.c, &live));
    for f in findings.iter().take(3) {
        report.note(format!("check: audit [{:?}] {}", f.node, f.what));
    }
    report.note(format!(
        "check: {} audit findings; of {} holders: {} unrooted, {} unreadable, {} wrong tag, {} pointing at another object",
        findings.len(),
        h.pairs.len(),
        wrong[0],
        wrong[1],
        wrong[2],
        wrong[3]
    ));
    findings.len() as u64 + wrong.iter().sum::<u64>()
}

pub fn run(reuse: bool, seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut growth = Vec::with_capacity(SETUPS);
    let mut heap = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (h, g) = build();
        setups.push(t.elapsed().as_secs_f64());
        growth.push(g);
        heap = Some(h);
    }
    let mut h = heap.expect("at least one set-up");
    let (mut plain, mut traced) = (Side::default(), Side::default());
    let before = Traffic::of(&h.c);
    let exact = Churn::new(seed, reuse).run(&mut h, ROUNDS, trace, &mut plain, &mut traced);
    let after = Traffic::of(&h.c);
    report.attempted = h.next_tag - 1;
    report.failed = check(&mut h, report);
    drop(h);
    // An untraced run fills its seconds with further passes, each on a
    // fresh heap, since one heap cannot take more than `ROUNDS` rounds.
    let passes = if trace {
        1
    } else {
        (seconds / PASS_SECONDS).max(1)
    };
    for pass in 1..passes {
        let (mut h, _) = build();
        let seed = seed.wrapping_add(pass << 32);
        Churn::new(seed, reuse).run(&mut h, ROUNDS, false, &mut plain, &mut traced);
        report.attempted += h.next_tag - 1;
        report.failed += check(&mut h, report);
    }
    report.value("setup_s", median(&mut setups));
    report.note(format!(
        "setup_s: median of {} builds of {HOLDERS} linked holders",
        setups.len()
    ));
    if !trace {
        let b = &plain.calls.bracket;
        let mut p99s: Vec<f64> = plain.rounds.iter().map(|r| r.bracket_p99_us).collect();
        report.value("brackets_per_s", plain.rate(|_| CHURN as f64));
        report.value("bracket_p99_us", median(&mut p99s));
        report.note(format!(
            "brackets_per_s: {passes} heaps x {ROUNDS} rounds of {CHURN} replacement brackets, over their time incl. collection"
        ));
        report.note(format!(
            "brackets: {} timed at the call site; bracket_p50_us = {} us; bracket_p99_us is the median over {} rounds of each round's p99 ({} beyond it); whole-run p99 {} us",
            b.count(),
            b.quantile(0.50) / 1e3,
            p99s.len(),
            CHURN / 100,
            b.quantile(0.99) / 1e3
        ));
        collector_notes(&plain, report);
    } else {
        report.value(
            "trace.untraced_brackets_per_s",
            plain.rate(|_| CHURN as f64),
        );
        report.value("trace.traced_brackets_per_s", traced.rate(|_| CHURN as f64));
        report.quantile("trace.untraced_bgc_pause_p50_ms", &plain.gc.pause, 0.5, 1e6);
        report.quantile("trace.traced_bgc_pause_p50_ms", &traced.gc.pause, 0.5, 1e6);
        after.record_since(&before, (ROUNDS * CHURN) as f64, report);
        per_layer(&traced, exact, median(&mut growth), report);
    }
}

fn collector_notes(p: &Side, report: &mut Report) {
    let pause = &p.gc.pause;
    report.note(format!(
        "collector: reclaimed_per_s = {} 1/s (over {} rounds)",
        p.rate(|r| r.reclaimed as f64),
        p.rounds.len()
    ));
    report.note(format!(
        "collector: bgc_pause_p50_ms = {} ms, bgc_pause_p90_ms = {} ms ({} run_bgc calls, {} beyond p90)",
        pause.quantile(0.5) / 1e6,
        pause.quantile(0.9) / 1e6,
        pause.count(),
        pause.beyond(0.9)
    ));
}

fn per_layer(p: &Side, exact: Exact, growth: f64, report: &mut Report) {
    let g = &p.gc;
    let calls = g.calls.max(1) as f64;
    let live = g.live.max(1) as f64;
    for (sum, (_, name)) in g.phases.iter().zip(PHASES) {
        report.value(&format!("gc.bgc.{name}_us"), sum / calls);
        report.value(&format!("gc.bgc.{name}_us_per_live"), sum / live);
    }
    report.value(
        "gc.publish_us_per_scion",
        g.phases[4] / g.ssps.max(1) as f64,
    );
    report.value("gc.run_bgc.self_us", g.self_us / calls);
    let c = &p.calls;
    report.quantile("gc.write_ref_inter_us.p50", &c.write_ref_inter, 0.50, 1e3);
    report.quantile("gc.write_ref_inter_us.p99", &c.write_ref_inter, 0.99, 1e3);
    report.quantile("gc.reuse_from_space_us.p50", &g.reuse, 0.50, 1e3);
    report.value("gc.objects_copied", exact.copied as f64);
    report.value("gc.scions_cleaned", exact.scions_cleaned as f64);
    report.value("gc.stub_table_msgs", exact.stub_table_msgs as f64);
    report.note(format!(
        "exact counts over the first {EXACT_ROUNDS} rounds: copied {} scions_cleaned {} stub_table_msgs {} reclaimed {} pattern {:016x}",
        exact.copied, exact.scions_cleaned, exact.stub_table_msgs, exact.reclaimed, exact.pattern
    ));
    report.value("gc.setup_growth_ratio", growth);
    report.value("gc.reclaimed_per_s", p.rate(|r| r.reclaimed as f64));
    report.quantile("gc.bgc_pause_p50_ms", &g.pause, 0.5, 1e6);
    report.quantile("gc.bgc_pause_p90_ms", &g.pause, 0.9, 1e6);
    report.quantile("addr.alloc_us.p50", &c.alloc, 0.50, 1e3);
    report.quantile("addr.alloc_us.p99", &c.alloc, 0.99, 1e3);
    report.quantile("api.acquire_write_us.p50", &c.acquire_write, 0.50, 1e3);
    report.quantile("api.acquire_write_us.p99", &c.acquire_write, 0.99, 1e3);
    report.quantile("api.release_us.p50", &c.release, 0.50, 1e3);
    report.quantile("api.release_us.p99", &c.release, 0.99, 1e3);
    report.quantile("api.write_data_us.p50", &c.write_data, 0.50, 1e3);
    report.note(format!(
        "traced rounds: {} (interleaved with as many untraced), run_bgc calls: {} ({} beyond p90), write_ref samples: {}",
        p.rounds.len(),
        g.pause.count(),
        g.pause.beyond(0.9),
        c.write_ref_inter.count()
    ));
}

/// Set-up plus `EXACT_ROUNDS` untraced rounds; returns their exact counts.
fn exact_counts(reuse: bool, seed: u64) -> Exact {
    let (mut h, _) = build();
    let (mut plain, mut traced) = (Side::default(), Side::default());
    Churn::new(seed, reuse).run(&mut h, EXACT_ROUNDS, false, &mut plain, &mut traced)
}

/// One seed twice must give identical exact counts; the next seed must
/// churn a different set of holders.
pub fn self_check(seed: u64) -> Result<String, String> {
    let mut lines = Vec::new();
    for reuse in [false, true] {
        let a = exact_counts(reuse, seed);
        let b = exact_counts(reuse, seed);
        if a != b {
            return Err(format!("reuse={reuse}: seed {seed} gave {a:?}, then {b:?}"));
        }
        let other = seed.wrapping_add(1);
        let c = exact_counts(reuse, other);
        if c.pattern == a.pattern {
            return Err(format!(
                "reuse={reuse}: seeds {seed} and {other} churned the same holders"
            ));
        }
        lines.push(format!(
            "self-check ok (reuse={reuse}): seed {seed} repeats {a:?}; seed {other} churns differently (pattern {:016x})",
            c.pattern
        ));
    }
    Ok(lines.join("\n"))
}
