//! Metric names, units and the result line.

use std::collections::BTreeMap;

use bmx::Cluster;
use bmx_net::MsgClass;

use crate::hist::Hist;

pub type Metric = (&'static str, &'static str, &'static str);

/// End-to-end metrics (printed with `--trace 0`): name, unit, which way
/// is better. `bracket_p99_us` is measured and printed but not part of the
/// result: on the collector workload its median moved by up to 39% between
/// two sets of runs as the host's speed changed.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", "lower"),
    ("brackets_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics (printed with `--trace 1`): name, unit, which way is
/// better. A metric a workload does not exercise reads 0. Per-layer
/// numbers that no listed workload exercises (`api.acquire_read_us.*` on
/// read-mostly, `gc.reuse_from_space_us.p50` on gc-churn) are recorded
/// but only printed in the report.
pub const PER_LAYER: &[Metric] = &[
    // bmx::parallel — protocol mutex, drivers, wake cells.
    ("parallel.mutex_wait_us.p50", "us", "lower"),
    ("parallel.mutex_wait_us.p99", "us", "lower"),
    ("parallel.mutex_hold_us.p50", "us", "lower"),
    ("parallel.mutex_hold_us.p99", "us", "lower"),
    ("parallel.mutex_holds_per_bracket", "count", "lower"),
    ("parallel.park_us.p99", "us", "lower"),
    ("parallel.wake_us.p99", "us", "lower"),
    // bmx::mutator — call-site timings of each handle call.
    ("api.acquire_write_us.p50", "us", "lower"),
    ("api.acquire_write_us.p99", "us", "lower"),
    ("api.release_us.p50", "us", "lower"),
    ("api.release_us.p99", "us", "lower"),
    ("api.read_data_us.p50", "us", "lower"),
    ("api.write_data_us.p50", "us", "lower"),
    // dsm — token engine.
    ("dsm.blocking_acquire_frac", "ratio", "lower"),
    ("dsm.reserve_claim_us.p99", "us", "lower"),
    ("dsm.logical_msgs_per_bracket", "count", "lower"),
    ("dsm.invalidations_per_write", "count", "lower"),
    ("dsm.image_words_per_bracket", "count", "lower"),
    // net — transport and staging network.
    ("net.envelopes_per_bracket", "count", "lower"),
    ("net.envelopes_by_class.dsm", "count", "lower"),
    ("net.envelopes_by_class.scion", "count", "lower"),
    ("net.envelopes_by_class.stub_table", "count", "lower"),
    ("net.envelopes_by_class.gc_background", "count", "lower"),
    ("net.bytes_per_bracket", "B", "lower"),
    ("net.driver_apply_us.p50", "us", "lower"),
    ("net.driver_apply_us.p99", "us", "lower"),
    // Acquire-phase budget over blocking acquires (E14 seed).
    ("budget.submit_us.p50", "us", "lower"),
    ("budget.submit_us.p99", "us", "lower"),
    ("budget.poll_us.p50", "us", "lower"),
    ("budget.poll_us.p99", "us", "lower"),
    ("budget.park_us.p50", "us", "lower"),
    ("budget.park_us.p99", "us", "lower"),
    ("budget.wake_us.p50", "us", "lower"),
    ("budget.wake_us.p99", "us", "lower"),
    ("budget.reserve_claim_us.p50", "us", "lower"),
    ("budget.reserve_claim_us.p99", "us", "lower"),
    ("budget.coverage", "ratio", "higher"),
    // core — bunch collector, cleaner, barrier.
    ("gc.bgc.roots_us", "us", "lower"),
    ("gc.bgc.trace_us", "us", "lower"),
    ("gc.bgc.update_us", "us", "lower"),
    ("gc.bgc.sweep_us", "us", "lower"),
    ("gc.bgc.publish_us", "us", "lower"),
    ("gc.bgc.roots_us_per_live", "us", "lower"),
    ("gc.bgc.trace_us_per_live", "us", "lower"),
    ("gc.bgc.update_us_per_live", "us", "lower"),
    ("gc.bgc.sweep_us_per_live", "us", "lower"),
    ("gc.bgc.publish_us_per_live", "us", "lower"),
    ("gc.publish_us_per_scion", "us", "lower"),
    ("gc.run_bgc.self_us", "us", "lower"),
    ("gc.write_ref_inter_us.p50", "us", "lower"),
    ("gc.write_ref_inter_us.p99", "us", "lower"),
    ("gc.objects_copied", "count", "lower"),
    ("gc.scions_cleaned", "count", "higher"),
    ("gc.stub_table_msgs", "count", "lower"),
    ("gc.setup_growth_ratio", "ratio", "lower"),
    ("gc.reclaimed_per_s", "1/s", "higher"),
    ("gc.bgc_pause_p50_ms", "ms", "lower"),
    ("gc.bgc_pause_p90_ms", "ms", "lower"),
    // addr — segments and allocation.
    ("addr.alloc_us.p50", "us", "lower"),
    ("addr.alloc_us.p99", "us", "lower"),
    // Tracing overhead: the same workload untraced, then traced.
    ("trace.untraced_brackets_per_s", "1/s", "higher"),
    ("trace.traced_brackets_per_s", "1/s", "higher"),
    ("trace.untraced_bgc_pause_p50_ms", "ms", "lower"),
    ("trace.traced_bgc_pause_p50_ms", "ms", "lower"),
];

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    pub fn value(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Records `h`'s `q` quantile divided by `div`, unless `h` is empty
    /// (the metric then reads as not exercised).
    pub fn quantile(&mut self, name: &str, h: &Hist, q: f64, div: f64) {
        if h.count() > 0 {
            self.value(name, h.quantile(q) / div);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Recorded values whose names are not in `table`: measured by this
    /// workload only, so printed in the report but not in the result.
    pub fn extra<'a>(&'a self, table: &'a [Metric]) -> impl Iterator<Item = (&'a str, f64)> {
        self.values
            .iter()
            .filter(|(name, _)| !table.iter().any(|m| m.0 == name.as_str()))
            .map(|(name, &v)| (name.as_str(), v))
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result object: `table`'s metrics, each 0 when not measured.
    pub fn json(&self, table: &[Metric]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit, _)| {
                let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Envelopes sent per class (`MsgClass::ALL` order) and payload bytes, as
/// the cluster's network counts them.
#[derive(Clone, Copy, Default)]
pub struct Traffic {
    envelopes: [u64; 4],
    bytes: u64,
}

impl Traffic {
    pub fn of(c: &Cluster) -> Traffic {
        let mut t = Traffic::default();
        for (i, class) in MsgClass::ALL.into_iter().enumerate() {
            let s = c.net.class_stats(class);
            t.envelopes[i] = s.sent;
            t.bytes += s.bytes;
        }
        t
    }

    /// Records the `net.*` per-bracket counts of the traffic since `before`.
    pub fn record_since(&self, before: &Traffic, brackets: f64, report: &mut Report) {
        let mut total = 0.0;
        for (i, class) in ["dsm", "scion", "stub_table", "gc_background"]
            .iter()
            .enumerate()
        {
            let e = (self.envelopes[i] - before.envelopes[i]) as f64 / brackets;
            report.value(&format!("net.envelopes_by_class.{class}"), e);
            total += e;
        }
        report.value("net.envelopes_per_bracket", total);
        report.value(
            "net.bytes_per_bracket",
            (self.bytes - before.bytes) as f64 / brackets,
        );
    }
}

/// Median of `xs` (0 when empty); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = doc.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.value("setup_s", 0.5);
        let line = r.json(END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for &(name, _, _) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
        }
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
