//! The per-layer metrics a traced run prints, and the helpers the
//! workloads' traced runs share.

use std::collections::BTreeMap;

use printed_microprocessors::obs;

use crate::spans::{Tracer, TILING_TOLERANCE};
use crate::stats::{median, Report};
use crate::timed_phase;

/// Every per-layer metric with its unit, in output order. A traced run
/// prints all of them; a layer its workload's op does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("eval.figure7_ms", "ms"),
    ("eval.lint_summary_ms", "ms"),
    ("eval.static_report_ms", "ms"),
    ("eval.diff_report_ms", "ms"),
    ("eval.figure8_ms", "ms"),
    ("eval.fault_summary_ms", "ms"),
    ("eval.tmr_comparison_ms", "ms"),
    ("eval.rest_ms", "ms"),
    ("core.generate_ms", "ms"),
    ("netlist.lint_ms", "ms"),
    ("netlist.opt_ms", "ms"),
    ("netlist.dataflow_ms", "ms"),
    ("netlist.dataflow_calls", "count"),
    ("netlist.dataflow_baseline_ms", "ms"),
    ("netlist.sta_ms", "ms"),
    ("baselines.netlist_ms", "ms"),
    ("netlist.campaign_ms.mult8_p1_8_2", "ms"),
    ("netlist.campaign_ms.mult16_p1_8_2", "ms"),
    ("netlist.campaign_ms.mult16_p1_16_2", "ms"),
    ("netlist.campaign_ms.thold8_p1_8_2", "ms"),
    ("netlist.fault.runs", "count"),
    ("netlist.fault.bitsliced.words", "count"),
    ("netlist.fault.lane_utilization", "frac"),
    ("netlist.fault.hang_frac", "frac"),
    ("netlist.golden_ms", "ms"),
    ("resilience.checkpoint_ms", "ms"),
    ("resilience.resume_ms", "ms"),
    ("resilience.resumed_slots", "count"),
    ("campaign.rest_ms", "ms"),
    ("shop.proto.parse_ms", "ms"),
    ("shop.quote.build_ms", "ms"),
    ("shop.quote.content_key_ms", "ms"),
    ("shop.cache.lookup_ms", "ms"),
    ("shop.cache.store_ms", "ms"),
    ("shop.quote.price_ms", "ms"),
    ("shop.journal_ms", "ms"),
    ("shop.queue_ms", "ms"),
    ("shop.transport_ms", "ms"),
    ("shop.cache_hit_frac", "frac"),
    ("shop.coalesced", "count"),
    ("shop.rejected", "count"),
    ("obs.trace_overhead_frac", "frac"),
];

/// Per-layer values a traced run measured, keyed by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The [`PER_LAYER`] name equal to `name`.
///
/// # Panics
///
/// When `name` is not listed: a benchmark bug.
pub fn key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// Total wall-clock nanoseconds and count of every registry span path
/// ending in `name` (the program nests its spans under the calling
/// stage's).
pub fn registry_span(name: &str) -> (u64, u64) {
    let mut ns = 0;
    let mut count = 0;
    for (path, s) in obs::global().snapshot_spans() {
        if path == name || path.ends_with(&format!(".{name}")) {
            ns += s.total_ns;
            count += s.count;
        }
    }
    (ns, count)
}

/// Traced p50 over untraced p50, minus one.
pub fn trace_overhead(traced_ms: &[f64], plain_ms: &[f64]) -> f64 {
    median(traced_ms) / median(plain_ms) - 1.0
}

/// The two halves of a traced run of a single-threaded workload.
pub struct Halves {
    /// Op times of the untraced half, ms.
    pub plain_ms: Vec<f64>,
    /// Op times of the traced half, ms.
    pub traced_ms: Vec<f64>,
    /// The traced half's spans.
    pub tracer: Tracer,
}

impl Halves {
    /// Runs `op` untraced for half of `seconds`, then with the obs
    /// registry on and a recording tracer for the other half.
    pub fn run(seconds: f64, min_ops: usize, mut op: impl FnMut(usize, &mut Tracer)) -> Halves {
        let mut untraced = Tracer::new(false);
        let plain_ms = timed_phase(seconds / 2.0, min_ops, |i| op(i, &mut untraced));
        obs::global().reset();
        obs::set_level(obs::Level::Summary);
        let mut tracer = Tracer::new(true);
        let traced_ms = timed_phase(seconds / 2.0, min_ops, |i| op(i, &mut tracer));
        obs::set_level(obs::Level::Off);
        Halves { plain_ms, traced_ms, tracer }
    }

    /// Mean self time of `span` per traced op, ms.
    pub fn per_op_ms(&self, span: &str) -> f64 {
        self.tracer.self_ns(span) as f64 / 1e6 / self.traced_ms.len() as f64
    }

    /// The tiling check: the traced ops' span self times must add up to
    /// their op times within [`TILING_TOLERANCE`].
    pub fn check_tiling(&self, workload: &str, report: &mut Report) {
        let measured_ns = (self.traced_ms.iter().sum::<f64>() * 1e6) as u64;
        let gap = self.tracer.tiling_error(measured_ns);
        println!("{workload}: layer self times tile the op time within {:.4}%", gap * 100.0);
        if gap > TILING_TOLERANCE {
            report.problem(format!("layer self times miss the op time by {:.2}%", gap * 100.0));
        }
    }
}

/// Prints the layers a workload measured and appends every
/// [`PER_LAYER`] metric to `report`; a name the workload set that is not
/// listed fails the run.
pub fn emit(workload: &str, report: &mut Report, layers: &Layers) {
    for (name, value) in layers {
        println!("{workload}: layer {name} = {value:.4}");
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            report.problem(format!("unlisted per-layer metric {name}"));
        }
    }
    for &(name, unit) in PER_LAYER {
        report.metric(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert_eq!(key("shop.queue_ms"), "shop.queue_ms");
    }
}
