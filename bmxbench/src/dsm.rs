//! The three DSM workloads on the parallel runtime (`bmx::ParallelCluster`):
//! two nodes, one closed-loop mutator thread per node, each waiting for
//! its bracket to finish before starting the next.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bmx::{ClusterConfig, NodeHandle, ObjSpec, ParallelCluster, Shutdown};
use bmx_common::{Addr, NodeId, SplitMix64, StatKind};
use bmx_profile::SpanKind;

use crate::hist::{ns_since, Hist};
use crate::report::{median, Report, Traffic};
use crate::spans::{self, SpanStats};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Each thread writes 16 objects its own node owns: no DSM traffic.
    OwnedWrites,
    /// Both threads write the same 4 objects: every acquire may migrate
    /// the token.
    SharedWrites,
    /// Both threads bracket 64 shared objects, 90% reads.
    ReadMostly,
}

impl Shape {
    fn objects(self) -> usize {
        match self {
            Shape::OwnedWrites => 16,
            Shape::SharedWrites => 4,
            Shape::ReadMostly => 64,
        }
    }

    fn read_pct(self) -> u64 {
        match self {
            Shape::ReadMostly => 90,
            _ => 0,
        }
    }
}

const NODES: u32 = 2;
/// The counter field every write bracket increments.
const FIELD: u64 = 0;
/// Clusters built per run; `setup_s` is their median build time.
const SETUPS: usize = 31;
/// Untimed brackets each thread runs before the window, so tokens and
/// copies sit where the steady state keeps them.
const WARMUP: u64 = 5_000;
/// Span rings are harvested this often in the traced window.
const HARVEST: Duration = Duration::from_millis(50);
/// The untraced window is cut into slices this long; `brackets_per_s` is
/// the median of the slices' rates, so a few slices in which the host
/// stalled the runtime's threads do not move it.
const SLICE: Duration = Duration::from_millis(250);
/// Clusters the untraced window is split over.
const ROUNDS: u64 = 8;

/// Brackets one mutator has finished, on a cache line of its own so the
/// sampler's reads do not slow the other mutator.
#[repr(align(128))]
#[derive(Default)]
struct Progress(AtomicU64);

/// A built cluster plus its objects and per-thread assignment.
struct Rig {
    pc: ParallelCluster,
    objs: Vec<Addr>,
    /// Node whose view is read back in the final check, per object.
    home: Vec<NodeId>,
    /// Object indices each thread (one per node) brackets.
    lanes: Vec<Vec<usize>>,
    /// Per object: increments whose `write_data` returned `Ok`.
    issued: Vec<u64>,
    failed: u64,
    attempted: u64,
}

/// Call-site timings of each handle call (ns), traced windows only.
#[derive(Default)]
struct Api {
    acquire_write: Hist,
    acquire_read: Hist,
    release: Hist,
    read_data: Hist,
    write_data: Hist,
}

impl Api {
    fn merge(&mut self, o: &Api) {
        self.acquire_write.merge(&o.acquire_write);
        self.acquire_read.merge(&o.acquire_read);
        self.release.merge(&o.release);
        self.read_data.merge(&o.read_data);
        self.write_data.merge(&o.write_data);
    }
}

/// Times `f` into `slot` when call timing is on.
fn timed<R>(api: &mut Option<Api>, slot: fn(&mut Api) -> &mut Hist, f: impl FnOnce() -> R) -> R {
    match api {
        Some(a) => {
            let t = Instant::now();
            let r = f();
            slot(a).record(ns_since(t));
            r
        }
        None => f(),
    }
}

fn build(shape: Shape) -> Rig {
    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
    let handles: Vec<NodeHandle> = (0..NODES).map(|i| pc.handle(NodeId(i))).collect();
    let per = shape.objects();
    let spec = ObjSpec::data(2);
    let mut objs = Vec::new();
    let mut home = Vec::new();
    let mut lanes = Vec::new();
    if shape == Shape::OwnedWrites {
        for h in &handles {
            let bunch = h.create_bunch().expect("create bunch");
            let first = objs.len();
            for _ in 0..per {
                let o = h.alloc(bunch, &spec).expect("alloc");
                h.add_root(o).expect("root");
                objs.push(o);
                home.push(h.node());
            }
            lanes.push((first..first + per).collect());
        }
    } else {
        let h0 = &handles[0];
        let bunch = h0.create_bunch().expect("create bunch");
        for _ in 0..per {
            let o = h0.alloc(bunch, &spec).expect("alloc");
            h0.add_root(o).expect("root");
            objs.push(o);
            home.push(h0.node());
        }
        for h in &handles[1..] {
            h.map_bunch(bunch, h0.node()).expect("map bunch");
            for &o in &objs {
                h.add_root(o).expect("root");
            }
        }
        lanes = (0..NODES).map(|_| (0..per).collect()).collect();
    }
    assert!(pc.quiesce(Duration::from_secs(10)), "set-up quiesce");
    Rig {
        issued: vec![0; objs.len()],
        pc,
        objs,
        home,
        lanes,
        failed: 0,
        attempted: 0,
    }
}

enum Window {
    /// Each thread runs this many brackets.
    Count(u64),
    /// Threads run until the sampler stops them.
    Timed(Duration),
}

/// What a window (or several, absorbed) measured.
#[derive(Default)]
struct Sampled {
    /// Seconds the window lasted.
    elapsed: f64,
    /// Brackets per second of each slice of an untraced timed window.
    slices: Vec<f64>,
    /// Call-site latency (ns) of every bracket of the window.
    lat: Hist,
    api: Api,
    spans: SpanStats,
}

impl Sampled {
    /// Brackets per second over the whole window.
    fn rate(&self) -> f64 {
        self.lat.count() as f64 / self.elapsed
    }

    /// Adds an untraced window's brackets and slices.
    fn absorb(&mut self, o: Sampled) {
        self.elapsed += o.elapsed;
        self.slices.extend(o.slices);
        self.lat.merge(&o.lat);
    }
}

/// Runs one window of brackets on every lane; folds the lanes' issued
/// increments and failures into the rig.
fn run_lanes(rig: &mut Rig, shape: Shape, seed: u64, window: Window, traced: bool) -> Sampled {
    let stop = AtomicBool::new(false);
    let start = Barrier::new(rig.lanes.len() + 1);
    let limit = match window {
        Window::Count(n) => n,
        Window::Timed(_) => u64::MAX,
    };
    let mut spans = SpanStats::default();
    let progress: Vec<Progress> = rig.lanes.iter().map(|_| Progress::default()).collect();
    let mut slices = Vec::new();
    let (lanes, elapsed) = std::thread::scope(|scope| {
        let threads: Vec<_> = rig
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let h = rig.pc.handle(NodeId(i as u32));
                let (objs, stop, start, done) = (&rig.objs, &stop, &start, &progress[i]);
                let rng = SplitMix64::new(seed.wrapping_add((i as u64 + 1) << 40));
                let read_pct = shape.read_pct();
                std::thread::Builder::new()
                    .name(format!("bench-mutator-{i}"))
                    .spawn_scoped(scope, move || {
                        start.wait();
                        mutate(&h, objs, lane, rng, read_pct, limit, traced, stop, done)
                    })
                    .expect("spawn mutator")
            })
            .collect();
        if traced {
            spans::start();
        }
        start.wait();
        let t0 = Instant::now();
        if let Window::Timed(len) = window {
            let end = t0 + len;
            let finished = || -> u64 { progress.iter().map(|p| p.0.load(Ordering::Relaxed)).sum() };
            let (mut mark, mut at) = (0, t0);
            loop {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                let step = if traced { HARVEST } else { SLICE };
                std::thread::sleep(step.min(end - now));
                if traced {
                    spans.harvest();
                } else {
                    let (n, t) = (finished(), Instant::now());
                    slices.push((n - mark) as f64 / (t - at).as_secs_f64());
                    (mark, at) = (n, t);
                }
            }
            stop.store(true, Ordering::Relaxed);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let lanes: Vec<Lane> = threads
            .into_iter()
            .map(|t| t.join().expect("mutator thread panicked"))
            .collect();
        (lanes, elapsed)
    });
    let mut lat = Hist::default();
    let mut api = Api::default();
    for lane in lanes {
        for (a, b) in rig.issued.iter_mut().zip(&lane.issued) {
            *a += b;
        }
        rig.failed += lane.failed + lane.regressions;
        rig.attempted += lane.brackets;
        lat.merge(&lane.lat);
        if let Some(a) = &lane.api {
            api.merge(a);
        }
    }
    if traced {
        spans.harvest();
        bmx_profile::disable();
    }
    Sampled {
        elapsed,
        slices,
        lat,
        api,
        spans,
    }
}

/// One thread's results over a window.
#[derive(Default)]
struct Lane {
    brackets: u64,
    failed: u64,
    /// Reads that saw a counter below one this thread saw before.
    regressions: u64,
    issued: Vec<u64>,
    lat: Hist,
    api: Option<Api>,
}

/// One mutator thread: closed-loop brackets until `limit` or `stop`.
#[allow(clippy::too_many_arguments)]
fn mutate(
    h: &NodeHandle,
    objs: &[Addr],
    lane: &[usize],
    mut rng: SplitMix64,
    read_pct: u64,
    limit: u64,
    traced: bool,
    stop: &AtomicBool,
    done: &Progress,
) -> Lane {
    let mut out = Lane {
        issued: vec![0; objs.len()],
        api: traced.then(Api::default),
        ..Lane::default()
    };
    let mut seen = vec![0u64; objs.len()];
    while out.brackets < limit && !stop.load(Ordering::Relaxed) {
        let i = lane[rng.next_below(lane.len() as u64) as usize];
        let read = rng.next_below(100) < read_pct;
        let o = objs[i];
        let api = &mut out.api;
        let t0 = Instant::now();
        let acquired = if read {
            timed(api, |a| &mut a.acquire_read, || h.acquire_read(o))
        } else {
            timed(api, |a| &mut a.acquire_write, || h.acquire_write(o))
        };
        let mut ok = acquired.is_ok();
        if ok {
            match timed(api, |a| &mut a.read_data, || h.read_data(o, FIELD)) {
                Ok(v) => {
                    if v < seen[i] {
                        out.regressions += 1;
                    }
                    seen[i] = v;
                    if !read {
                        match timed(api, |a| &mut a.write_data, || h.write_data(o, FIELD, v + 1)) {
                            Ok(()) => {
                                out.issued[i] += 1;
                                seen[i] = v + 1;
                            }
                            Err(_) => ok = false,
                        }
                    }
                }
                Err(_) => ok = false,
            }
            if timed(api, |a| &mut a.release, || h.release(o)).is_err() {
                ok = false;
            }
        }
        out.lat.record(ns_since(t0));
        out.brackets += 1;
        done.0.store(out.brackets, Ordering::Relaxed);
        if !ok {
            out.failed += 1;
        }
    }
    out
}

/// Envelope and protocol counters, read under the protocol lock.
#[derive(Clone, Copy, Default)]
struct Counters {
    traffic: Traffic,
    logical: u64,
    invalidations: u64,
    image_words: u64,
}

fn counters(h: &NodeHandle) -> Counters {
    h.with(|c| {
        let mut k = Counters {
            traffic: Traffic::of(c),
            ..Counters::default()
        };
        k.logical = c.total_stat(StatKind::DsmLogicalMessages);
        k.invalidations = c.total_stat(StatKind::Invalidations);
        k.image_words = c.total_stat(StatKind::ImageWordsCopied);
        Ok(k)
    })
    .expect("read counters")
}

/// Stops the runtime, then checks every object's final value against the
/// increments issued and the transport's conservation. Returns the number
/// of findings (lost or extra increments count one each).
fn check(rig: Rig, shared: bool, report: &mut Report) -> u64 {
    let Rig {
        pc,
        objs,
        home,
        issued,
        ..
    } = rig;
    let quiet = pc.quiesce(Duration::from_secs(10));
    let (mut cluster, sr) = match pc.shutdown(Shutdown::Drain) {
        Ok(x) => x,
        Err(e) => {
            report.note(format!("check: shutdown failed: {e}"));
            return 1;
        }
    };
    let mut findings = u64::from(!quiet);
    if sr.delivered + sr.dropped != sr.sent || sr.dropped != 0 {
        report.note(format!(
            "check: transport conservation broken: sent {} delivered {} dropped {}",
            sr.sent, sr.delivered, sr.dropped
        ));
        findings += 1;
    }
    if cluster.settle(100_000).is_err() {
        findings += 1;
    }
    let (mut lost, mut extra, mut disagree) = (0u64, 0u64, 0u64);
    for ((&o, &node), &want) in objs.iter().zip(&home).zip(&issued) {
        let mut read_at = |n: NodeId| {
            cluster
                .acquire_read(n, o)
                .and_then(|()| cluster.read_data(n, o, FIELD))
                .and_then(|v| cluster.release(n, o).map(|()| v))
        };
        let at_home = read_at(node);
        match at_home {
            Ok(v) if v < want => lost += want - v,
            Ok(v) => extra += v - want,
            Err(_) => findings += 1,
        }
        // Every other node that maps the object must agree after settle.
        if shared {
            let at_home = at_home.ok();
            for n in (0..NODES).map(NodeId).filter(|&n| n != node) {
                if read_at(n).ok() != at_home {
                    disagree += 1;
                }
            }
        }
    }
    let total: u64 = issued.iter().sum();
    report.note(format!(
        "check: {} objects, {total} increments issued, {lost} lost, {extra} extra, {disagree} replicas disagreeing after settle",
        objs.len()
    ));
    findings + lost + extra + disagree
}

/// Runs the untimed warm-up brackets on a fresh rig.
fn warm_up(rig: &mut Rig, shape: Shape, seed: u64) {
    run_lanes(rig, shape, seed ^ 0x5741_524D, Window::Count(WARMUP), false);
    assert!(rig.pc.quiesce(Duration::from_secs(10)), "warm-up quiesce");
}

pub fn run(shape: Shape, seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let r = build(shape);
        setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = rig.replace(r) {
            let _ = old.pc.shutdown(Shutdown::Drain);
        }
    }
    let rig: Rig = rig.expect("at least one set-up");
    report.value("setup_s", median(&mut setups));
    report.note(format!(
        "setup_s: median of {SETUPS} cluster builds (spawn, allocate, map, quiesce)"
    ));
    let seed = seed ^ 0xB0D1;
    let window = Duration::from_secs(seconds);
    let shared = shape != Shape::OwnedWrites;
    if !traced {
        // The window is split over fresh clusters, each with its own
        // threads, so no one placement of the threads on the cores sets
        // the run's rate.
        let mut rig = Some(rig);
        let mut all = Sampled::default();
        for round in 0..ROUNDS {
            let mut r = rig.take().unwrap_or_else(|| build(shape));
            let seed = seed.wrapping_add(round << 32);
            warm_up(&mut r, shape, seed);
            let s = run_lanes(
                &mut r,
                shape,
                seed,
                Window::Timed(window / ROUNDS as u32),
                false,
            );
            all.absorb(s);
            // Warm-up brackets are checked too, so they count as attempted.
            report.attempted += r.attempted;
            report.failed += r.failed + check(r, shared, report);
        }
        end_to_end(&all, report);
    } else {
        // Same cluster, same mix: an untraced half, then a traced half.
        let mut rig = rig;
        warm_up(&mut rig, shape, seed);
        let half = window / 2;
        let plain = run_lanes(&mut rig, shape, seed, Window::Timed(half), false);
        let h0 = rig.pc.handle(NodeId(0));
        let before = counters(&h0);
        let s = run_lanes(&mut rig, shape, seed ^ 0x7A, Window::Timed(half), true);
        let after = counters(&h0);
        report.value("trace.untraced_brackets_per_s", plain.rate());
        report.value("trace.traced_brackets_per_s", s.rate());
        per_layer(&s, before, after, report);
        report.attempted = rig.attempted;
        report.failed = rig.failed;
        report.failed += check(rig, shared, report);
    }
}

fn end_to_end(s: &Sampled, report: &mut Report) {
    let n = s.lat.count();
    let mut slices = s.slices.clone();
    // `median` sorts the slices, so the first is the slowest.
    report.value("brackets_per_s", median(&mut slices));
    report.note(format!(
        "brackets_per_s: median of {} slices of {} ms over {ROUNDS} clusters (slowest {:.0}, fastest {:.0}); window mean {:.0}",
        slices.len(),
        SLICE.as_millis(),
        slices.first().copied().unwrap_or(0.0),
        slices.last().copied().unwrap_or(0.0),
        s.rate()
    ));
    report.value("bracket_p99_us", s.lat.quantile(0.99) / 1e3);
    report.note(format!(
        "brackets: {n} over the window, each timed at the call site; bracket_p50_us = {} us, bracket_p99_us with {} beyond it",
        s.lat.quantile(0.50) / 1e3,
        s.lat.beyond(0.99)
    ));
}

fn per_layer(s: &Sampled, before: Counters, after: Counters, report: &mut Report) {
    let brackets = s.lat.count().max(1) as f64;
    let sp = &s.spans;
    let wait = sp.kind(SpanKind::MutexWait);
    let hold = sp.kind(SpanKind::MutexHold);
    report.quantile("parallel.mutex_wait_us.p50", wait, 0.50, 1.0);
    report.quantile("parallel.mutex_wait_us.p99", wait, 0.99, 1.0);
    report.quantile("parallel.mutex_hold_us.p50", hold, 0.50, 1.0);
    report.quantile("parallel.mutex_hold_us.p99", hold, 0.99, 1.0);
    report.value(
        "parallel.mutex_holds_per_bracket",
        hold.count() as f64 / brackets,
    );
    report.quantile(
        "parallel.park_us.p99",
        sp.kind(SpanKind::AcquirePark),
        0.99,
        1.0,
    );
    report.quantile(
        "parallel.wake_us.p99",
        sp.kind(SpanKind::AcquireWake),
        0.99,
        1.0,
    );

    let a = &s.api;
    report.quantile("api.acquire_write_us.p50", &a.acquire_write, 0.50, 1e3);
    report.quantile("api.acquire_write_us.p99", &a.acquire_write, 0.99, 1e3);
    report.quantile("api.acquire_read_us.p50", &a.acquire_read, 0.50, 1e3);
    report.quantile("api.acquire_read_us.p99", &a.acquire_read, 0.99, 1e3);
    report.quantile("api.release_us.p50", &a.release, 0.50, 1e3);
    report.quantile("api.release_us.p99", &a.release, 0.99, 1e3);
    report.quantile("api.read_data_us.p50", &a.read_data, 0.50, 1e3);
    report.quantile("api.write_data_us.p50", &a.write_data, 0.50, 1e3);

    let acquires = sp.acquires.max(1) as f64;
    let writes = a.acquire_write.count().max(1) as f64;
    report.value("dsm.blocking_acquire_frac", sp.blocking as f64 / acquires);
    report.quantile("dsm.reserve_claim_us.p99", &sp.reserve_claim, 0.99, 1.0);
    let per_bracket = |a: u64, b: u64| (a - b) as f64 / brackets;
    report.value(
        "dsm.logical_msgs_per_bracket",
        per_bracket(after.logical, before.logical),
    );
    report.value(
        "dsm.invalidations_per_write",
        (after.invalidations - before.invalidations) as f64 / writes,
    );
    report.value(
        "dsm.image_words_per_bracket",
        per_bracket(after.image_words, before.image_words),
    );

    after
        .traffic
        .record_since(&before.traffic, brackets, report);
    let apply = sp.kind(SpanKind::DriverApply);
    report.quantile("net.driver_apply_us.p50", apply, 0.50, 1.0);
    report.quantile("net.driver_apply_us.p99", apply, 0.99, 1.0);

    let b = &sp.budget;
    for (name, h) in [
        ("submit", &b.submit),
        ("poll", &b.poll),
        ("park", &b.park),
        ("wake", &b.wake),
        ("reserve_claim", &b.reserve_claim),
    ] {
        report.quantile(&format!("budget.{name}_us.p50"), h, 0.50, 1.0);
        report.quantile(&format!("budget.{name}_us.p99"), h, 0.99, 1.0);
    }
    if let Some(c) = b.coverage() {
        report.value("budget.coverage", c);
    }
    report.note(format!(
        "traced window: {} brackets, {} acquires stitched ({} blocking), {} span harvests, {} full rings, {} mutex holds",
        s.lat.count(),
        sp.acquires,
        sp.blocking,
        sp.harvests,
        sp.overflowed,
        hold.count()
    ));
}
