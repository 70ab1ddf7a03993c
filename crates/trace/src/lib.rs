//! `bmx-trace`: causal event tracing for the BMX reproduction.
//!
//! The paper's safety argument is temporal — scions are retired only
//! *after* a covering reachability epoch, addresses re-align *at* token
//! acquires, the collector *never* blocks the consistency protocol — so
//! when a chaos seed trips an assert, the question is always "what order
//! did these things actually happen in?". Aggregate counters can't answer
//! that. This crate captures a typed, causally-stamped event stream:
//!
//! * **Events** ([`TraceEvent`]) are fixed-size and allocation-free;
//!   emitting one when tracing is disabled is a thread-local flag check.
//! * **Clocks**: each node carries a Lamport clock, advanced on every
//!   local event and merged at message delivery from the stamp
//!   piggy-backed on every `Envelope`. Sorting the merged stream by
//!   `(lamport, node, seq)` yields a total order consistent with
//!   happens-before.
//! * **Sinks** ([`TraceSink`]): a bounded [`RingSink`] flight recorder
//!   (production default — fixed memory, newest-N window), an unbounded
//!   [`VecSink`] for tests and exports, a [`DiscardSink`] that keeps
//!   nothing (for measuring emission cost), or nothing at all (tracing
//!   disabled).
//! * **Exporters** ([`chrome`]): Chrome `trace_event` JSON — load it in
//!   `chrome://tracing` or <https://ui.perfetto.dev> — and a merged
//!   human-readable timeline.
//! * **Queries** ([`query`]): temporal invariants checked directly on a
//!   captured trace (scion-retirement ordering, address-update
//!   happens-before, the Section-5 acquire invariants).
//!
//! Tracing is observational only: no simulation state, RNG draw, or wire
//! size depends on whether a recorder is installed, so a traced run is
//! bit-identical to an untraced run with the same seed (tier-1 enforces
//! this).
//!
//! The recorder is thread-local because the whole simulated cluster lives
//! on one thread, which keeps the hot path free of atomics and locks.

pub mod chrome;
mod event;
pub mod query;
mod sink;

pub use event::{
    AccessMode, AlarmKind, FaultKind, GcPhase, MsgLane, ReuseStep, SspKind, TraceEvent, TraceRecord,
};
pub use sink::{DiscardSink, RingSink, TraceSink, VecSink};

use std::cell::{Cell, RefCell};

use bmx_common::NodeId;

struct Recorder {
    /// Per-node Lamport clocks, indexed by `NodeId.0`; grows on demand.
    clocks: Vec<u64>,
    /// Current simulated tick, pushed in by the network's `tick()`.
    now: u64,
    /// Thread-wide emission counter (merge tie-breaker).
    seq: u64,
    sink: Box<dyn TraceSink>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

// Process-global recorder, used only when the current thread has no
// thread-local recorder installed. The parallel runtime (`bmx::parallel`)
// emits protocol events from per-node driver threads and any number of
// mutator threads; a shared recorder is the only way those emissions merge
// into one causally-ordered stream. All protocol emissions there happen
// under the cluster's protocol lock, so the mutex below is essentially
// uncontended. The deterministic simulation never installs it, keeping
// the single-threaded hot path free of atomics beyond one relaxed load.
static GLOBAL_ON: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static GLOBAL: std::sync::Mutex<Option<Recorder>> = std::sync::Mutex::new(None);

/// Runs `f` against the active recorder: the thread-local one if present,
/// else the process-global one, else returns `R::default()`.
fn with_recorder<R: Default>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    let mut f = Some(f);
    let local = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.as_mut().map(|rec| (f.take().expect("unused"))(rec))
    });
    if let Some(out) = local {
        return out;
    }
    if GLOBAL_ON.load(std::sync::atomic::Ordering::Acquire) {
        let mut g = GLOBAL.lock().expect("trace global recorder");
        if let Some(rec) = g.as_mut() {
            if let Some(f) = f.take() {
                return f(rec);
            }
        }
    }
    R::default()
}

/// Install `sink` as the process-global trace destination, shared by all
/// threads that have no thread-local recorder of their own. Used by the
/// parallel runtime; the deterministic simulation uses [`install`].
pub fn install_global(sink: Box<dyn TraceSink>) {
    let mut g = GLOBAL.lock().expect("trace global recorder");
    *g = Some(Recorder {
        clocks: Vec::new(),
        now: 0,
        seq: 0,
        sink,
    });
    GLOBAL_ON.store(true, std::sync::atomic::Ordering::Release);
}

/// Convenience: a process-global unbounded capture buffer.
pub fn install_global_vec() {
    install_global(Box::new(VecSink::new()));
}

/// Disable and drop the process-global recorder.
pub fn disable_global() {
    GLOBAL_ON.store(false, std::sync::atomic::Ordering::Release);
    *GLOBAL.lock().expect("trace global recorder") = None;
}

/// Drain the process-global sink (oldest first), leaving it installed.
pub fn take_global() -> Vec<TraceRecord> {
    let mut g = GLOBAL.lock().expect("trace global recorder");
    match g.as_mut() {
        Some(rec) => rec.sink.drain(),
        None => Vec::new(),
    }
}

/// Copy the process-global sink's retained records (oldest first)
/// without disturbing them: the flight recorder keeps flying. Used by
/// the post-mortem blackbox, which must not consume the trace a later
/// test assertion (or a second dump) still wants. Implemented as a
/// drain-then-re-record under the global lock, so concurrent emitters
/// never observe a half-empty recorder.
pub fn snapshot_global() -> Vec<TraceRecord> {
    let mut g = GLOBAL.lock().expect("trace global recorder");
    match g.as_mut() {
        Some(rec) => {
            let records = rec.sink.drain();
            for r in &records {
                rec.sink.record(*r);
            }
            records
        }
        None => Vec::new(),
    }
}

impl Recorder {
    fn clock(&mut self, node: NodeId) -> &mut u64 {
        let idx = node.0 as usize;
        if idx >= self.clocks.len() {
            self.clocks.resize(idx + 1, 0);
        }
        &mut self.clocks[idx]
    }
}

/// Is a recorder installed on this thread? Instrumentation sites that need
/// more than constructing a fixed-size event (e.g. a table lookup for an
/// event field) should guard on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get()) || GLOBAL_ON.load(std::sync::atomic::Ordering::Relaxed)
}

/// Install `sink` as this thread's trace destination and enable tracing.
/// Replaces (and drops) any previously installed sink.
pub fn install(sink: Box<dyn TraceSink>) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            clocks: Vec::new(),
            now: 0,
            seq: 0,
            sink,
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Convenience: install a bounded flight recorder keeping the newest
/// `capacity` records.
pub fn install_ring(capacity: usize) {
    install(Box::new(RingSink::new(capacity)));
}

/// Convenience: install an unbounded capture buffer.
pub fn install_vec() {
    install(Box::new(VecSink::new()));
}

/// Disable tracing and drop the installed recorder (clocks included).
pub fn disable() {
    ENABLED.with(|e| e.set(false));
    RECORDER.with(|r| *r.borrow_mut() = None);
}

/// Update the recorder's notion of the current simulated tick. Called by
/// the network clock; a no-op when tracing is disabled.
#[inline]
pub fn set_now(tick: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|rec| {
        rec.now = tick;
    });
}

/// Emit `event` at `node`: tick the node's Lamport clock and hand the
/// stamped record to the sink. Returns the Lamport stamp — senders
/// piggy-back it on the outgoing `Envelope` — or 0 when tracing is
/// disabled (the stamp is then never read, so the constant is harmless).
#[inline]
pub fn emit(node: NodeId, event: TraceEvent) -> u64 {
    if !enabled() {
        return 0;
    }
    emit_slow(node, event)
}

#[cold]
fn emit_slow(node: NodeId, event: TraceEvent) -> u64 {
    with_recorder(|rec| {
        let clk = rec.clock(node);
        *clk += 1;
        let lamport = *clk;
        rec.seq += 1;
        let record = TraceRecord {
            node,
            tick: rec.now,
            lamport,
            seq: rec.seq,
            event,
        };
        rec.sink.record(record);
        lamport
    })
}

/// Read `node`'s current Lamport clock without advancing it. Returns 0
/// when tracing is disabled. Synchronous cross-node operations (direct
/// calls that bypass the message layer, e.g. mapping a bunch served by
/// another node) pair this with [`observe`] to record the causal edge the
/// missing message would have carried.
pub fn clock(node: NodeId) -> u64 {
    if !enabled() {
        return 0;
    }
    with_recorder(|rec| *rec.clock(node))
}

/// Merge a remote Lamport stamp into `node`'s clock (message delivery):
/// the clock jumps to `max(local, remote)` so the next event at `node`
/// is stamped strictly after both. A no-op when tracing is disabled.
#[inline]
pub fn observe(node: NodeId, remote_lamport: u64) {
    if !enabled() || remote_lamport == 0 {
        return;
    }
    with_recorder(|rec| {
        let clk = rec.clock(node);
        *clk = (*clk).max(remote_lamport);
    });
}

/// Copy out everything the sink currently retains (oldest first) without
/// disturbing the recorder. Empty when tracing is disabled.
pub fn snapshot() -> Vec<TraceRecord> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        match r.as_mut() {
            Some(rec) => {
                let out = rec.sink.drain();
                for item in &out {
                    rec.sink.record(*item);
                }
                out
            }
            None => Vec::new(),
        }
    })
}

/// Drain the sink: take everything retained (oldest first), leaving the
/// recorder installed and its clocks intact.
pub fn take() -> Vec<TraceRecord> {
    RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => rec.sink.drain(),
        None => Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmx_common::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn ev() -> TraceEvent {
        TraceEvent::TokenRelease {
            oid: bmx_common::Oid(7),
        }
    }

    #[test]
    fn disabled_tracing_is_a_no_op() {
        disable();
        assert!(!enabled());
        assert_eq!(emit(n(0), ev()), 0);
        assert!(take().is_empty());
    }

    #[test]
    fn emit_ticks_the_per_node_clock() {
        install_vec();
        assert_eq!(emit(n(0), ev()), 1);
        assert_eq!(emit(n(0), ev()), 2);
        assert_eq!(emit(n(1), ev()), 1, "clocks are per node");
        let recs = take();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].lamport, 1);
        assert_eq!(recs[1].lamport, 2);
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        disable();
    }

    #[test]
    fn observe_merges_remote_clock() {
        install_vec();
        let sent = emit(n(0), ev());
        assert_eq!(sent, 1);
        observe(n(1), sent);
        let delivered = emit(n(1), ev());
        assert!(
            delivered > sent,
            "receive must be stamped after the matching send"
        );
        disable();
    }

    #[test]
    fn snapshot_does_not_consume() {
        install_ring(8);
        emit(n(0), ev());
        emit(n(0), ev());
        assert_eq!(snapshot().len(), 2);
        assert_eq!(snapshot().len(), 2, "snapshot leaves the ring intact");
        assert_eq!(take().len(), 2);
        assert!(take().is_empty(), "take drains");
        disable();
    }

    #[test]
    fn ring_sink_wraparound_keeps_newest() {
        let mut ring = RingSink::new(4);
        for i in 0..10u64 {
            ring.record(TraceRecord {
                node: n(0),
                tick: i,
                lamport: i + 1,
                seq: i + 1,
                event: ev(),
            });
        }
        assert_eq!(ring.len(), 4);
        let kept: Vec<u64> = ring.drain().iter().map(|r| r.tick).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "newest N, oldest first");
        assert!(ring.is_empty());
    }
}
