use crate::Platform;
use crispr_engines::{CancelKind, ChunkFailure};
use crispr_guides::Hit;
use crispr_model::{SearchMetrics, TimingBreakdown};

/// The outcome of one [`crate::OffTargetSearch`] run.
///
/// A report may be *partial*: the pipeline survived, but some genome
/// chunks exhausted their retry budget. The recovered hits and full
/// metrics are still here — the partial-results contract — with the
/// per-chunk provenance in [`SearchReport::chunk_failures`]. A report may
/// also be *cancelled*: the run's cancel token tripped before every
/// chunk was scanned, and the hits and metrics cover the chunks that
/// completed. Callers that must not act on incomplete data branch on
/// [`SearchReport::is_partial`] and [`SearchReport::cancelled`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    platform: Platform,
    hits: Vec<Hit>,
    metrics: SearchMetrics,
    genome_len: usize,
    guide_count: usize,
    k: usize,
    chunk_failures: Vec<ChunkFailure>,
    cancelled: Option<CancelKind>,
    chunks_scanned: u64,
    chunks_total: u64,
}

impl SearchReport {
    pub(crate) fn new(
        platform: Platform,
        hits: Vec<Hit>,
        metrics: SearchMetrics,
        genome_len: usize,
        guide_count: usize,
        k: usize,
    ) -> SearchReport {
        SearchReport {
            platform,
            hits,
            metrics,
            genome_len,
            guide_count,
            k,
            chunk_failures: Vec::new(),
            cancelled: None,
            chunks_scanned: 0,
            chunks_total: 0,
        }
    }

    pub(crate) fn with_failures(
        mut self,
        failures: Vec<ChunkFailure>,
        chunks_total: u64,
    ) -> SearchReport {
        self.chunk_failures = failures;
        self.chunks_total = chunks_total;
        self
    }

    pub(crate) fn with_cancellation(
        mut self,
        kind: CancelKind,
        chunks_scanned: u64,
        chunks_total: u64,
    ) -> SearchReport {
        self.cancelled = Some(kind);
        self.chunks_scanned = chunks_scanned;
        self.chunks_total = chunks_total;
        self
    }

    /// The platform that produced this report.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The normalized hit set.
    pub fn hits(&self) -> &[Hit] {
        &self.hits
    }

    /// Consumes the report, returning the hits.
    pub fn into_hits(self) -> Vec<Hit> {
        self.hits
    }

    /// Timing: measured wall-clock for CPU platforms, modeled for
    /// accelerators (see [`Platform::is_modeled`]). Derived from
    /// [`SearchReport::metrics`] — `kernel_s` covers the scan only, with
    /// guide compilation attributed to `config_s`.
    pub fn timing(&self) -> TimingBreakdown {
        self.metrics.timing()
    }

    /// The full observability record behind [`SearchReport::timing`]:
    /// phase spans, engine work counters, parallel-deployment statistics
    /// and model gauges.
    pub fn metrics(&self) -> &SearchMetrics {
        &self.metrics
    }

    /// Genome bases scanned.
    pub fn genome_len(&self) -> usize {
        self.genome_len
    }

    /// Guides searched.
    pub fn guide_count(&self) -> usize {
        self.guide_count
    }

    /// The mismatch budget.
    pub fn max_mismatches(&self) -> usize {
        self.k
    }

    /// Kernel throughput in input megabytes per second.
    pub fn kernel_throughput_mbps(&self) -> f64 {
        crispr_model::throughput_mbps(self.genome_len, self.timing().kernel_s)
    }

    /// Whether this report is partial: some chunks failed every retry and
    /// [`SearchReport::hits`] covers only the chunks that survived.
    pub fn is_partial(&self) -> bool {
        !self.chunk_failures.is_empty()
    }

    /// Provenance of every chunk that exhausted its retry budget, sorted
    /// by genome position; empty for a complete run.
    pub fn chunk_failures(&self) -> &[ChunkFailure] {
        &self.chunk_failures
    }

    /// Why the run stopped before scanning every chunk, when its cancel
    /// token tripped (a manual trip or an expired deadline); `None` for
    /// a run that was not cut short. [`SearchReport::hits`] then covers
    /// only the chunks that completed.
    pub fn cancelled(&self) -> Option<CancelKind> {
        self.cancelled
    }

    /// Chunks scanned to completion when this report is cancelled (zero
    /// otherwise).
    pub fn chunks_scanned(&self) -> u64 {
        self.chunks_scanned
    }

    /// Total chunks the run would have scanned when this report is
    /// partial or cancelled (zero for a complete run — chunk accounting
    /// lives in [`SearchReport::metrics`] there).
    pub fn chunks_total(&self) -> u64 {
        self.chunks_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let timing = TimingBreakdown { kernel_s: 2.0, ..TimingBreakdown::default() };
        let metrics = SearchMetrics::from_timing("scalar-reference", &timing);
        let report = SearchReport::new(Platform::CpuScalar, Vec::new(), metrics, 4_000_000, 5, 3);
        assert_eq!(report.platform(), Platform::CpuScalar);
        assert!(report.hits().is_empty());
        assert_eq!(report.guide_count(), 5);
        assert_eq!(report.max_mismatches(), 3);
        assert_eq!(report.timing(), timing);
        assert_eq!(report.metrics().engine, "scalar-reference");
        assert!((report.kernel_throughput_mbps() - 2.0).abs() < 1e-9);
        assert!(report.into_hits().is_empty());
    }
}
