//! Per-layer figures of traced `offtarget search` processes, read from
//! their `--metrics` output. A counter or phase the output does not carry
//! is reported absent (left out, with a note on stderr) rather than as 0.

use crate::http::Json;
use crate::{stats, Outcome};
use std::path::Path;

/// One traced search: its wall time and its `--metrics` document.
pub struct Sample {
    pub wall_s: f64,
    metrics: Json,
}

impl Sample {
    pub fn read(metrics_file: &Path, wall_s: f64) -> Result<Sample, String> {
        let text = std::fs::read_to_string(metrics_file)
            .map_err(|e| format!("read {}: {e}", metrics_file.display()))?;
        let metrics = Json::parse(text.trim())
            .map_err(|e| format!("parse {}: {e}", metrics_file.display()))?;
        Ok(Sample { wall_s, metrics })
    }

    pub fn phase(&self, name: &str) -> Option<f64> {
        self.metrics.num(&["phases", name])
    }

    pub fn counter(&self, name: &str) -> Option<f64> {
        self.metrics.num(&["counters", name])
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics.num(&["gauges", name])
    }

    /// Seconds inside the engine: the four phases of the metrics output.
    pub fn engine_s(&self) -> Option<f64> {
        ["genome_load_s", "guide_compile_s", "kernel_scan_s", "report_s"]
            .iter()
            .map(|p| self.phase(p))
            .sum()
    }
}

/// The median of `f` over `samples`, or `None` when any sample lacks it.
pub fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> Option<f64>) -> Option<f64> {
    let values: Option<Vec<f64>> = samples.iter().map(f).collect();
    values.filter(|v| !v.is_empty()).map(|v| stats::median(&v))
}

/// Records `value` as a per-layer metric, or notes that it is absent.
pub fn emit(out: &mut Outcome, name: String, value: Option<f64>, unit: &'static str) {
    match value {
        Some(v) if v.is_finite() => out.metric(name, v, unit),
        _ => eprintln!("perfbench: {name}: absent from the program's output"),
    }
}

/// `a / b`, or `None` when either is absent or `b` is 0.
pub fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if b != 0.0 => Some(a / b),
        _ => None,
    }
}

/// The engine-side figures every traced search yields, under `engines`
/// (and `cli` for the remainder of the process wall time once
/// `outside_s` — index open or FASTA parse — and the engine phases are
/// taken out).
pub fn emit_search_layers(
    out: &mut Outcome,
    engines: &str,
    cli: &str,
    samples: &[Sample],
    genome_len: usize,
    outside_s: impl Fn(&Sample) -> Option<f64>,
) {
    emit(out, format!("{engines}.load_s"), median_of(samples, |s| s.phase("genome_load_s")), "s");
    let kernel = median_of(samples, |s| s.phase("kernel_scan_s"));
    emit(
        out,
        format!("{engines}.kernel_ns_per_base"),
        kernel.map(|k| k * 1e9 / genome_len as f64),
        "ns",
    );
    emit(
        out,
        format!("{engines}.pam_anchors_tested"),
        median_of(samples, |s| s.counter("pam_anchors_tested")),
        "count",
    );
    emit(
        out,
        format!("{engines}.raw_hits"),
        median_of(samples, |s| s.counter("raw_hits")),
        "count",
    );
    let other = median_of(samples, |s| Some(s.wall_s - outside_s(s)? - s.engine_s()?));
    emit(out, format!("{cli}.other_s"), other, "s");
}
