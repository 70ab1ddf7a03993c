//! Per-layer numbers from the program's own span profiler
//! (`bmx_profile`): span durations by kind, and an acquire-phase budget
//! stitched per acquire from the flow ids the runtime already stamps.
//!
//! Rings are bounded, so a traced run harvests them periodically: copy
//! every thread's ring out, start a fresh profiler session, and fold the
//! copy into running histograms.

use std::collections::HashMap;

use bmx_profile::{SpanKind, SpanRec};

use crate::hist::Hist;

/// Ring slots per thread; a harvest interval must stay below this many
/// spans per thread or the oldest spans of the interval are lost (counted
/// in [`SpanStats::overflowed`]).
pub const RING: usize = 1 << 19;

const KINDS: usize = SpanKind::BgcPublish as usize + 1;

/// Starts a fresh profiler session.
pub fn start() {
    bmx_profile::enable(RING);
}

/// Copies out every span recorded since the last harvest and starts a
/// fresh session. Returns the spans and the number of rings that filled
/// up (and so may have dropped spans).
pub fn harvest() -> (Vec<SpanRec>, u64) {
    let threads = bmx_profile::snapshot_all();
    bmx_profile::enable(RING);
    let full = threads.iter().filter(|t| t.spans.len() >= RING).count() as u64;
    (threads.into_iter().flat_map(|t| t.spans).collect(), full)
}

/// Everything one acquire flow left in one harvest.
#[derive(Default)]
struct Flow {
    /// (node, start, end) of the whole `acquire` span.
    acquire: Option<(u32, u64, u64)>,
    submit: u64,
    polls: u32,
    poll: u64,
    park: u64,
    wake: u64,
    /// Mutator-side phase intervals, for coverage.
    intervals: Vec<(u64, u64)>,
    /// (node, end) of every `driver/apply` carrying this flow.
    applies: Vec<(u32, u64)>,
    /// (node, at) of the reserve-claim mark.
    claim: Option<(u32, u64)>,
}

/// Acquire-phase budget: per blocking acquire, the time spent in each
/// phase (summed over repeated polls/parks).
#[derive(Default)]
pub struct Budget {
    pub submit: Hist,
    pub poll: Hist,
    pub park: Hist,
    pub wake: Hist,
    pub reserve_claim: Hist,
    /// Union of the mutator-side phase spans, summed over acquires.
    covered_us: u64,
    /// Whole `acquire` spans, summed over the same acquires.
    acquire_us: u64,
}

impl Budget {
    /// Share of the `acquire` spans' time that the phase spans cover
    /// (`None` without blocking acquires).
    pub fn coverage(&self) -> Option<f64> {
        (self.acquire_us > 0).then(|| self.covered_us as f64 / self.acquire_us as f64)
    }
}

#[derive(Default)]
pub struct SpanStats {
    kinds: Vec<Hist>,
    /// Gap between a grant's `driver/apply` at the acquiring node and the
    /// waiter's reserve-claim mark.
    pub reserve_claim: Hist,
    pub acquires: u64,
    pub blocking: u64,
    pub budget: Budget,
    pub overflowed: u64,
    pub harvests: u64,
}

impl SpanStats {
    /// Durations (µs) of every span of `kind`.
    pub fn kind(&self, kind: SpanKind) -> &Hist {
        &self.kinds[kind as usize]
    }

    /// Harvests the rings and folds the spans in.
    pub fn harvest(&mut self) {
        let (spans, full) = harvest();
        self.overflowed += full;
        self.harvests += 1;
        self.ingest(&spans);
    }

    pub fn ingest(&mut self, spans: &[SpanRec]) {
        if self.kinds.is_empty() {
            self.kinds = vec![Hist::default(); KINDS];
        }
        let mut flows: HashMap<u64, Flow> = HashMap::new();
        for s in spans {
            self.kinds[s.kind as usize].record(s.dur_us);
            if s.flow == 0 {
                continue;
            }
            let end = s.start_us + s.dur_us;
            let f = flows.entry(s.flow).or_default();
            match s.kind {
                SpanKind::Acquire => f.acquire = Some((s.node, s.start_us, end)),
                SpanKind::AcquireSubmit => {
                    f.submit += s.dur_us;
                    f.intervals.push((s.start_us, end));
                }
                SpanKind::AcquirePoll => {
                    f.polls += 1;
                    f.poll += s.dur_us;
                    f.intervals.push((s.start_us, end));
                }
                SpanKind::AcquirePark => {
                    f.park += s.dur_us;
                    f.intervals.push((s.start_us, end));
                }
                SpanKind::AcquireWake => {
                    f.wake += s.dur_us;
                    f.intervals.push((s.start_us, end));
                }
                SpanKind::DriverApply => f.applies.push((s.node, end)),
                SpanKind::ReserveClaim => f.claim = Some((s.node, s.start_us)),
                _ => {}
            }
        }
        for f in flows.values_mut() {
            let claim_gap = f.claim.and_then(|(node, at)| {
                f.applies
                    .iter()
                    .filter(|&&(n, end)| n == node && end <= at)
                    .map(|&(_, end)| at - end)
                    .min()
            });
            if let Some(gap) = claim_gap {
                self.reserve_claim.record(gap);
            }
            // Flows cut by a harvest boundary lack their acquire span.
            let Some((_, start, end)) = f.acquire else {
                continue;
            };
            self.acquires += 1;
            if f.polls == 0 {
                continue;
            }
            self.blocking += 1;
            let b = &mut self.budget;
            b.submit.record(f.submit);
            b.poll.record(f.poll);
            b.park.record(f.park);
            b.wake.record(f.wake);
            if let Some(gap) = claim_gap {
                b.reserve_claim.record(gap);
            }
            b.covered_us += union_within(&mut f.intervals, start, end);
            b.acquire_us += end - start;
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: SpanKind, node: u32, start_us: u64, dur_us: u64, flow: u64) -> SpanRec {
        SpanRec {
            kind,
            node,
            start_us,
            dur_us,
            flow,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 9), (0, 3), (2, 4), (8, 20)];
        assert_eq!(union_within(&mut iv, 1, 15), 3 + 10);
    }

    #[test]
    fn blocking_acquire_is_budgeted() {
        // Node 1 acquires (flow 7): submit, park, wake+poll; node 0's
        // driver applies the request, node 1's driver applies the grant,
        // the waiter claims 13 µs after that apply ends.
        let spans = [
            rec(SpanKind::Acquire, 1, 100, 50, 7),
            rec(SpanKind::AcquireSubmit, 1, 100, 2, 7),
            rec(SpanKind::AcquirePark, 1, 102, 40, 7),
            rec(SpanKind::AcquireWake, 1, 142, 8, 7),
            rec(SpanKind::AcquirePoll, 1, 146, 4, 7),
            rec(SpanKind::DriverApply, 0, 110, 5, 7),
            rec(SpanKind::DriverApply, 1, 130, 6, 7),
            rec(SpanKind::ReserveClaim, 1, 149, 0, 7),
            rec(SpanKind::Acquire, 0, 300, 1, 8),
            rec(SpanKind::AcquireSubmit, 0, 300, 1, 8),
        ];
        let mut st = SpanStats::default();
        st.ingest(&spans);
        assert_eq!(st.acquires, 2);
        assert_eq!(st.blocking, 1);
        assert_eq!(st.reserve_claim.count(), 1);
        assert!((st.reserve_claim.quantile(0.5) - 13.5).abs() < 1e-9);
        assert_eq!(st.budget.coverage(), Some(1.0));
        assert_eq!(st.kind(SpanKind::DriverApply).count(), 2);
    }
}
