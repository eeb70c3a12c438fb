//! Prometheus text-exposition rendering of a [`SearchMetrics`].
//!
//! One search produces one scrape-shaped snapshot: every phase span,
//! every [`crispr_model::EngineCounters`] field, every named gauge, the
//! parallel-deployment statistics, and every latency histogram in the
//! cumulative `_bucket{le=...}`/`_sum`/`_count` form Prometheus
//! histograms use. All series carry the `offtarget_` prefix; counters
//! end in `_total` and seconds-valued series end in `_seconds`, per
//! the Prometheus naming conventions.

use crispr_model::{Histogram, SearchMetrics, HISTOGRAM_BUCKETS};
use std::fmt::Write as _;

/// Renders the metrics snapshot in Prometheus text format.
pub fn render(metrics: &SearchMetrics) -> String {
    let mut out = String::with_capacity(4096);

    let _ = writeln!(out, "# HELP offtarget_engine_info Engine that produced this snapshot.");
    let _ = writeln!(out, "# TYPE offtarget_engine_info gauge");
    let _ =
        writeln!(out, "offtarget_engine_info{{engine=\"{}\"}} 1", escape_label(&metrics.engine));

    let _ = writeln!(out, "# HELP offtarget_phase_seconds Wall-clock seconds per search phase.");
    let _ = writeln!(out, "# TYPE offtarget_phase_seconds gauge");
    let p = &metrics.phases;
    for (phase, value) in [
        ("genome_load", p.genome_load_s),
        ("guide_compile", p.guide_compile_s),
        ("kernel_scan", p.kernel_scan_s),
        ("report", p.report_s),
    ] {
        let _ = writeln!(out, "offtarget_phase_seconds{{phase=\"{phase}\"}} {}", num(value));
    }

    let c = &metrics.counters;
    for (name, help, value) in [
        ("windows_scanned", "Candidate site windows enumerated.", c.windows_scanned),
        ("pam_anchors_tested", "Windows passing a PAM anchor check.", c.pam_anchors_tested),
        ("seed_survivors", "Candidates surviving the seed filter.", c.seed_survivors),
        ("bit_steps", "Per-symbol automaton/register update steps.", c.bit_steps),
        ("early_exits", "Comparisons abandoned over the mismatch budget.", c.early_exits),
        (
            "multiseed_candidates",
            "Fragment hits at PAM-anchored windows (batched engines).",
            c.multiseed_candidates,
        ),
        (
            "multiseed_positions",
            "Anchored windows with at least one fragment hit (batched engines).",
            c.multiseed_positions,
        ),
        ("candidates_verified", "Candidates fully verified by scoring.", c.candidates_verified),
        ("raw_hits", "Hits emitted before normalization.", c.raw_hits),
        ("faults_injected", "Failpoint faults raised during the search.", c.faults_injected),
        ("chunks_retried", "Chunk scans re-queued after a failure.", c.chunks_retried),
        ("chunks_failed", "Chunk scans that exhausted their retry budget.", c.chunks_failed),
        ("degraded_paths", "Graceful-degradation fallbacks taken.", c.degraded_paths),
    ] {
        let _ = writeln!(out, "# HELP offtarget_{name}_total {help}");
        let _ = writeln!(out, "# TYPE offtarget_{name}_total counter");
        let _ = writeln!(out, "offtarget_{name}_total {value}");
    }

    if let Some(par) = &metrics.parallel {
        let _ = writeln!(out, "# HELP offtarget_parallel_chunks_total Chunks enqueued.");
        let _ = writeln!(out, "# TYPE offtarget_parallel_chunks_total counter");
        let _ = writeln!(out, "offtarget_parallel_chunks_total {}", par.chunks_total);
        let _ = writeln!(out, "# HELP offtarget_parallel_workers Worker threads deployed.");
        let _ = writeln!(out, "# TYPE offtarget_parallel_workers gauge");
        let _ = writeln!(out, "offtarget_parallel_workers {}", par.threads.len());
        let _ = writeln!(
            out,
            "# HELP offtarget_worker_busy_seconds Seconds each worker spent scanning."
        );
        let _ = writeln!(out, "# TYPE offtarget_worker_busy_seconds gauge");
        for (i, t) in par.threads.iter().enumerate() {
            let _ =
                writeln!(out, "offtarget_worker_busy_seconds{{worker=\"{i}\"}} {}", num(t.busy_s));
        }
    }

    if !metrics.gauges.is_empty() {
        let _ = writeln!(out, "# HELP offtarget_gauge Named engine/model gauges.");
        let _ = writeln!(out, "# TYPE offtarget_gauge gauge");
        for (name, value) in &metrics.gauges {
            let _ =
                writeln!(out, "offtarget_gauge{{name=\"{}\"}} {}", escape_label(name), num(*value));
        }
    }

    for (name, h) in &metrics.histograms {
        render_histogram(&mut out, name, h);
    }

    out
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    // "chunk_scan_s" → "offtarget_chunk_scan_seconds"
    let base = match name.strip_suffix("_s") {
        Some(stem) => format!("offtarget_{stem}_seconds"),
        None => format!("offtarget_{name}"),
    };
    let _ = writeln!(out, "# HELP {base} Log2-bucketed latency histogram.");
    let _ = writeln!(out, "# TYPE {base} histogram");
    let mut cumulative = 0u64;
    for i in 0..HISTOGRAM_BUCKETS {
        cumulative += h.buckets[i];
        let bound = Histogram::bucket_bound_s(i);
        if bound.is_infinite() {
            let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {cumulative}");
        } else if h.buckets[i] > 0 || cumulative > 0 {
            // Skip the long run of leading empty buckets, but keep
            // every bucket from the first observation up so the
            // cumulative series stays monotone and complete.
            let _ = writeln!(out, "{base}_bucket{{le=\"{bound:e}\"}} {cumulative}");
        }
    }
    let _ = writeln!(out, "{base}_sum {}", num(h.sum_s));
    let _ = writeln!(out, "{base}_count {}", h.count());
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Prometheus sample value: finite floats as-is, non-finite as NaN.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "NaN".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_model::{ParallelMetrics, ThreadStats};

    fn sample() -> SearchMetrics {
        let mut m = SearchMetrics::new("parallel(bitparallel)");
        m.phases.kernel_scan_s = 0.25;
        m.counters.windows_scanned = 1000;
        m.counters.raw_hits = 5;
        m.set_gauge("worker_utilization", 0.9);
        m.observe("chunk_scan_s", 0.001);
        m.observe("chunk_scan_s", 0.004);
        m.parallel = Some(ParallelMetrics {
            threads: vec![
                ThreadStats { chunks: 2, busy_s: 0.125, raw_hits: 3 },
                ThreadStats { chunks: 1, busy_s: 0.0625, raw_hits: 2 },
            ],
            chunks_total: 3,
            ..ParallelMetrics::default()
        });
        m
    }

    #[test]
    fn renders_all_series_families() {
        let out = render(&sample());
        assert!(out.contains("offtarget_engine_info{engine=\"parallel(bitparallel)\"} 1"));
        assert!(out.contains("offtarget_phase_seconds{phase=\"kernel_scan\"} 0.25"));
        assert!(out.contains("offtarget_windows_scanned_total 1000"));
        assert!(out.contains("offtarget_raw_hits_total 5"));
        assert!(out.contains("offtarget_gauge{name=\"worker_utilization\"} 0.9"));
        assert!(out.contains("offtarget_parallel_chunks_total 3"));
        assert!(out.contains("offtarget_parallel_workers 2"));
        assert!(out.contains("offtarget_worker_busy_seconds{worker=\"0\"} 0.125"));
        assert!(out.contains("offtarget_chunk_scan_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("offtarget_chunk_scan_seconds_count 2"));
        assert!(out.contains("offtarget_chunk_scan_seconds_sum 0.005"));
    }

    #[test]
    fn histogram_bucket_series_is_cumulative_and_monotone() {
        let out = render(&sample());
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("offtarget_chunk_scan_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "non-monotone: {counts:?}");
        assert_eq!(*counts.last().unwrap(), 2, "+Inf bucket equals count");
    }

    #[test]
    fn every_counter_field_is_rendered() {
        // Guards against a new EngineCounters field being forgotten
        // here: count the *_total series (13 counters + 1 parallel).
        let out = render(&sample());
        let totals = out.lines().filter(|l| !l.starts_with('#') && l.contains("_total ")).count();
        assert_eq!(totals, 14, "unexpected counter series count:\n{out}");
    }

    #[test]
    fn text_format_shape_is_lintable() {
        // Every non-comment line is `name{labels} value` or `name value`,
        // and every series has a preceding TYPE comment.
        let out = render(&sample());
        for line in out.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!series.is_empty());
            assert!(value.parse::<f64>().is_ok() || value == "NaN", "unparseable value in: {line}");
        }
    }

    #[test]
    fn labels_are_escaped() {
        let mut m = SearchMetrics::new("eng\"ine\\x");
        m.set_gauge("a\"b", 1.0);
        let out = render(&m);
        assert!(out.contains("engine=\"eng\\\"ine\\\\x\""));
        assert!(out.contains("name=\"a\\\"b\""));
    }
}
