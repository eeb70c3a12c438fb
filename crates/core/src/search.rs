use crate::{Platform, SearchReport};
use crispr_engines::{
    CancelKind, CancelToken, ChunkFailure, Engine, EngineError, ParallelEngine, ScanSource,
    SearchError,
};
use crispr_genome::diskindex::GenomeIndex;
use crispr_genome::{Genome, PackedGenome};
use crispr_guides::{Guide, Hit};
use crispr_model::SearchMetrics;
use std::sync::Arc;
use std::time::Instant;

/// Where the reference sequence comes from: an in-memory
/// [`PackedGenome`] (FASTA/synthetic path) or an opened on-disk
/// [`GenomeIndex`]; either way the packed payloads are scanned without
/// re-deriving.
#[derive(Debug, Clone)]
enum GenomeSource {
    Packed(PackedGenome),
    Index(Arc<GenomeIndex>),
}

/// Builder for a complete off-target search; see the crate docs for an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct OffTargetSearch {
    source: GenomeSource,
    guides: Vec<Guide>,
    k: usize,
    platform: Platform,
    threads: usize,
    chunk_retries: u32,
    input_degradations: u64,
    shard: Option<usize>,
    index_load_s: f64,
    /// Seconds [`OffTargetSearch::new`] spent packing its genome,
    /// charged to every run's `genome_load_s`.
    pack_s: f64,
    cancel: CancelToken,
}

impl OffTargetSearch {
    /// Starts a search over `genome` with defaults: no guides yet, k = 3,
    /// the bit-parallel CPU platform, single-threaded. The genome is
    /// packed once here (charged to `genome_load_s`) and scanned as
    /// [`OffTargetSearch::from_packed`] would.
    pub fn new(genome: Genome) -> OffTargetSearch {
        let pack_start = Instant::now();
        let packed = genome.pack();
        let pack_s = pack_start.elapsed().as_secs_f64();
        OffTargetSearch { pack_s, ..OffTargetSearch::from_source(GenomeSource::Packed(packed)) }
    }

    /// Starts a search over a genome already in packed form — what
    /// [`crispr_genome::fasta::read_packed_resilient`] returns. CPU
    /// platforms scan its words and bitmaps in place, serially or in
    /// packed chunks; the modeled accelerators unpack it once, charged
    /// to `genome_load_s`.
    pub fn from_packed(genome: PackedGenome) -> OffTargetSearch {
        OffTargetSearch::from_source(GenomeSource::Packed(genome))
    }

    /// Starts a search over an opened on-disk index. CPU platforms scan
    /// each contig or chunk as a view of the index's packed words and
    /// bitmaps, in place (optionally in shards, see
    /// [`OffTargetSearch::shard`]), so they charge nothing to
    /// `genome_load_s`; the modeled accelerators unpack the genome once,
    /// charged to `genome_load_s`. Hit sets are identical to
    /// [`OffTargetSearch::new`] on the genome the index was built from.
    pub fn from_index(index: Arc<GenomeIndex>) -> OffTargetSearch {
        OffTargetSearch::from_source(GenomeSource::Index(index))
    }

    fn from_source(source: GenomeSource) -> OffTargetSearch {
        OffTargetSearch {
            source,
            guides: Vec::new(),
            k: 3,
            platform: Platform::CpuBitParallel,
            threads: 1,
            chunk_retries: crispr_engines::DEFAULT_CHUNK_RETRIES,
            input_degradations: 0,
            shard: None,
            index_load_s: 0.0,
            pack_s: 0.0,
            cancel: CancelToken::none(),
        }
    }

    /// Scans CPU platforms in chunks of `len` window starts (plus the
    /// `site_len − 1` overlap) through the chunked driver, at the run's
    /// thread count. Every chunk is a view of its contig, so sharding
    /// copies nothing. Hits and counters are unchanged, except
    /// `bit_steps`, which re-steps the overlaps.
    /// Ignored by the modeled platforms.
    ///
    /// # Panics
    ///
    /// Panics if `len` is `Some(0)`: a shard holds at least one window
    /// start.
    pub fn shard(mut self, len: Option<usize>) -> OffTargetSearch {
        assert!(len != Some(0), "shard length must be at least 1");
        self.shard = len;
        self
    }

    /// Records how long opening and validating the index file took (the
    /// caller holds the timer; the open happens before this builder
    /// exists), surfaced as the `index_load_s` gauge.
    pub fn index_load_seconds(mut self, seconds: f64) -> OffTargetSearch {
        self.index_load_s = seconds;
        self
    }

    /// Adds one guide.
    pub fn guide(mut self, guide: Guide) -> OffTargetSearch {
        self.guides.push(guide);
        self
    }

    /// Adds many guides.
    pub fn guides(mut self, guides: impl IntoIterator<Item = Guide>) -> OffTargetSearch {
        self.guides.extend(guides);
        self
    }

    /// Sets the mismatch budget.
    pub fn max_mismatches(mut self, k: usize) -> OffTargetSearch {
        self.k = k;
        self
    }

    /// Selects the execution platform.
    pub fn platform(mut self, platform: Platform) -> OffTargetSearch {
        self.platform = platform;
        self
    }

    /// Sets the per-chunk retry budget for chunked runs (how many times a
    /// failed chunk is re-queued before it is reported in a
    /// partial-result error). Ignored by a serial run without a shard
    /// length.
    pub fn chunk_retries(mut self, retries: u32) -> OffTargetSearch {
        self.chunk_retries = retries;
        self
    }

    /// Records degradation events that happened while *loading* the
    /// inputs (e.g. a strict FASTA parse that fell back to lossy), so
    /// they surface in the report's `degraded_paths` counter alongside
    /// the engine's own degradations.
    pub fn input_degradations(mut self, count: u64) -> OffTargetSearch {
        self.input_degradations = count;
        self
    }

    /// Runs CPU platforms on `threads` worker threads (ignored by the
    /// modeled accelerators, whose parallelism is part of the model).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> OffTargetSearch {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Arms a cooperative [`CancelToken`] for the run: CPU platforms poll
    /// it at every chunk or contig boundary, so a manual trip or an
    /// expired deadline stops the scan within one chunk-scan. The run
    /// still returns a report, flagged by [`SearchReport::cancelled`],
    /// with the hits recovered from completed chunks and the metrics of
    /// the work done. The modeled accelerators check only before they
    /// start (their kernels are closed-form models).
    pub fn cancel_token(mut self, cancel: CancelToken) -> OffTargetSearch {
        self.cancel = cancel;
        self
    }

    /// Shorthand for [`OffTargetSearch::cancel_token`] with a
    /// deadline-armed token: the run is cancelled once `timeout` has
    /// elapsed from this call.
    pub fn deadline(self, timeout: std::time::Duration) -> OffTargetSearch {
        self.cancel_token(CancelToken::with_deadline(timeout))
    }

    /// Executes the search.
    ///
    /// A run that stopped short still returns `Ok`, with the recovered
    /// hits and the metrics of the work done:
    ///
    /// * some chunks of a chunked run failed every retry — the failure
    ///   provenance is in [`SearchReport::chunk_failures`], and
    ///   [`SearchReport::is_partial`] is set (the CLI's exit code 3 and
    ///   the serve layer's 206 responses are built on this);
    /// * the cancel token tripped — [`SearchReport::cancelled`] says why
    ///   (the CLI's exit code 4).
    ///
    /// Check both before treating the hit set as complete.
    ///
    /// # Errors
    ///
    /// Guide-validation, compilation, or platform-capacity errors from the
    /// selected backend.
    pub fn run(&self) -> Result<SearchReport, EngineError> {
        let (hits, mut metrics, shortfall) = match self.cancel.check() {
            // A token already tripped when the run starts (deadline in
            // the past, client gone) fails fast before any compile or
            // unpack work — this is also the only cancellation point the
            // modeled accelerators get, since their kernels are
            // closed-form models.
            Err(kind) => {
                (Vec::new(), SearchMetrics::default(), Some(Shortfall::Cancelled(kind, 0, 0)))
            }
            Ok(()) => self.dispatch()?,
        };
        metrics.counters.degraded_paths += self.input_degradations;
        metrics.phases.genome_load_s += self.pack_s;
        if let GenomeSource::Index(index) = &self.source {
            metrics.set_gauge("index_cache", 1.0);
            metrics.set_gauge("index_mmap", if index.mapped() { 1.0 } else { 0.0 });
            metrics.set_gauge("index_load_s", self.index_load_s);
            if let Some(shard) = self.shard {
                metrics.set_gauge("index_shard_len", shard as f64);
            }
        }
        if let Some(Shortfall::Cancelled(_, chunks_scanned, chunks_total)) = shortfall {
            // A run cut short is labelled by its platform whether or not
            // an engine had started, so the label does not depend on
            // where the trip landed.
            metrics.engine = self.platform.name().to_string();
            metrics.set_gauge("chunks_scanned", chunks_scanned as f64);
            metrics.set_gauge("chunks_total", chunks_total as f64);
        }
        let report = SearchReport::new(
            self.platform,
            hits,
            metrics,
            self.total_len(),
            self.guides.len(),
            self.k,
        );
        Ok(match shortfall {
            None => report,
            Some(Shortfall::Failed(failures, chunks_total)) => {
                report.with_failures(failures, chunks_total)
            }
            Some(Shortfall::Cancelled(kind, chunks_scanned, chunks_total)) => {
                report.with_cancellation(kind, chunks_scanned, chunks_total)
            }
        })
    }

    /// Runs the selected platform on a live token: a CPU platform's
    /// engine through [`OffTargetSearch::run_cpu`], a modeled accelerator
    /// on a byte-per-base copy of the genome, unpacked here once and
    /// charged to `genome_load_s`.
    fn dispatch(&self) -> Result<Outcome, EngineError> {
        if let Some(engine) = self.platform.cpu_engine() {
            return self.run_cpu(engine.as_ref());
        }
        let (genome, unpack_s) = self.unpacked()?;
        let (hits, mut metrics) = match self.platform {
            Platform::Ap => {
                let report = crispr_ap::ApSearch::new().run(&genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("ap-modeled", &report.timing);
                m.counters.raw_hits = report.hits.len() as u64;
                m.set_gauge("streams", report.streams as f64);
                m.set_gauge("passes", report.passes as f64);
                m.set_gauge("stall_cycles", report.stall_cycles as f64);
                m.set_gauge("chips_used", report.placement.chips_used as f64);
                m.set_gauge("stes_used", report.placement.stes_used as f64);
                m.set_gauge("ste_utilization", report.placement.utilization);
                (report.hits, m)
            }
            Platform::Fpga => {
                let report = crispr_fpga::FpgaSearch::new().run(&genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("fpga-modeled", &report.timing);
                m.counters.raw_hits = report.hits.len() as u64;
                m.set_gauge("passes", report.passes as f64);
                m.set_gauge("designs", report.designs.len() as f64);
                if let Some(d) = report.designs.first() {
                    m.set_gauge("instances", d.instances as f64);
                    m.set_gauge("clock_hz", d.clock_hz);
                    m.set_gauge("lut_utilization", d.utilization);
                }
                (report.hits, m)
            }
            Platform::GpuInfant2 => {
                let report = crispr_gpu::Infant2Search::new().run(&genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("gpu-infant2-modeled", &report.timing);
                m.counters.raw_hits = report.hits.len() as u64;
                m.set_gauge("mean_active_states", report.mean_active);
                m.set_gauge("bytes_per_symbol", report.bytes_per_symbol);
                (report.hits, m)
            }
            Platform::GpuCasOffinder => {
                let report =
                    crispr_gpu::CasOffinderGpuSearch::new().run(&genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("gpu-cas-offinder-modeled", &report.timing);
                m.counters.raw_hits = report.hits.len() as u64;
                m.set_gauge("kernel_bytes", report.kernel_bytes);
                (report.hits, m)
            }
            cpu => unreachable!("{cpu} runs its CPU engine"),
        };
        metrics.phases.genome_load_s += unpack_s;
        Ok((hits, metrics, None))
    }

    /// Runs a CPU engine with full metering: the engine attributes guide
    /// compilation to the config bucket and the scan to the kernel
    /// bucket, so `kernel_s` no longer absorbs compile time the way the
    /// old lumped measurement did.
    ///
    /// A serial run without a shard length takes the engine's own serial
    /// driver; threaded or sharded runs go through `ParallelEngine`, whose
    /// chunk length is the shard. Both go through the engine's
    /// prepare/scan split (`Engine::prepare` once, `PreparedSearch::scan`
    /// per contig or chunk view — see DESIGN.md §7.1), so
    /// `guide_compile_s` is paid once regardless of `threads`, and either
    /// driver reads the packed genome or the index in place.
    ///
    /// A run that stopped short is *not* an error at this level: the
    /// drivers deliver the recovered hits inside
    /// [`SearchError::Partial`] or the cancellation variants and fill
    /// `metrics` before returning, so those branches unwrap both and
    /// hand the shortfall up for the report.
    fn run_cpu(&self, engine: &(dyn Engine + Sync)) -> Result<Outcome, EngineError> {
        let mut metrics = SearchMetrics::default();
        let source = match &self.source {
            GenomeSource::Packed(genome) => ScanSource::Packed(genome),
            GenomeSource::Index(index) => ScanSource::Index(index),
        };
        let result = if self.threads > 1 || self.shard.is_some() {
            let mut parallel =
                ParallelEngine::new(engine, self.threads).with_retry_limit(self.chunk_retries);
            if let Some(len) = self.shard {
                parallel = parallel.with_chunk_len(len);
            }
            parallel.search_cancellable(source, &self.guides, self.k, &self.cancel, &mut metrics)
        } else {
            engine.search_cancellable(source, &self.guides, self.k, &self.cancel, &mut metrics)
        };
        let (hits, shortfall) = match result {
            Ok(hits) => (hits, None),
            Err(SearchError::Partial { failures, chunks_total, hits }) => {
                (hits, Some(Shortfall::Failed(failures, chunks_total)))
            }
            Err(e) if e.is_cancelled() => {
                let (hits, scanned, total, deadline) = e.into_cancelled()?;
                let kind =
                    if deadline { CancelKind::DeadlineExceeded } else { CancelKind::Cancelled };
                (hits, Some(Shortfall::Cancelled(kind, scanned, total)))
            }
            Err(e) => return Err(e),
        };
        Ok((hits, metrics, shortfall))
    }

    /// Total reference length without materializing anything.
    fn total_len(&self) -> usize {
        match &self.source {
            GenomeSource::Packed(genome) => genome.total_len(),
            GenomeSource::Index(index) => index.total_len(),
        }
    }

    /// A byte-per-base copy of the source for the modeled platforms,
    /// with the seconds the unpack took.
    fn unpacked(&self) -> Result<(Genome, f64), EngineError> {
        let start = Instant::now();
        let genome = match &self.source {
            GenomeSource::Packed(genome) => genome.unpack(),
            GenomeSource::Index(index) => index.to_genome()?,
        };
        Ok((genome, start.elapsed().as_secs_f64()))
    }
}

/// Why a run stopped before scanning every chunk.
enum Shortfall {
    /// Some chunks failed every retry: the failed chunks plus the total
    /// the deployment enqueued.
    Failed(Vec<ChunkFailure>, u64),
    /// The cancel token tripped, after `chunks_scanned` of
    /// `chunks_total` chunks.
    Cancelled(CancelKind, u64, u64),
}

/// What a platform run hands back to [`OffTargetSearch::run`]: the hits,
/// the metrics, and how it fell short, if it did.
type Outcome = (Vec<Hit>, SearchMetrics, Option<Shortfall>);

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_genome::synth::SynthSpec;
    use crispr_guides::genset::{self, PlantPlan};
    use crispr_guides::Pam;

    fn workload() -> (Genome, Vec<Guide>, Vec<Hit>) {
        let genome = SynthSpec::new(20_000).seed(61).generate();
        let guides = genset::random_guides(2, 20, &Pam::ngg(), 62);
        let (genome, hits) =
            genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(2, 2), 63);
        (genome, guides, hits)
    }

    #[test]
    fn every_platform_agrees() {
        let (genome, guides, planted) = workload();
        let mut reference: Option<Vec<Hit>> = None;
        for platform in Platform::ALL {
            let report = OffTargetSearch::new(genome.clone())
                .guides(guides.clone())
                .max_mismatches(2)
                .platform(platform)
                .run()
                .unwrap_or_else(|e| panic!("{platform}: {e}"));
            match &reference {
                None => reference = Some(report.hits().to_vec()),
                Some(r) => assert_eq!(report.hits(), &r[..], "{platform}"),
            }
        }
        let reference = reference.unwrap();
        for hit in &planted {
            assert!(reference.contains(hit), "planted {hit} missing");
        }
    }

    #[test]
    fn threads_do_not_change_results() {
        let (genome, guides, _) = workload();
        let single = OffTargetSearch::new(genome.clone())
            .guides(guides.clone())
            .max_mismatches(2)
            .run()
            .unwrap();
        let multi =
            OffTargetSearch::new(genome).guides(guides).max_mismatches(2).threads(4).run().unwrap();
        assert_eq!(single.hits(), multi.hits());
    }

    #[test]
    fn modeled_platforms_report_nonzero_buckets() {
        let (genome, guides, _) = workload();
        let report = OffTargetSearch::new(genome)
            .guides(guides)
            .max_mismatches(2)
            .platform(Platform::Ap)
            .run()
            .unwrap();
        let t = report.timing();
        assert!(t.kernel_s > 0.0 && t.transfer_s > 0.0 && t.config_s > 0.0);
        assert!(report.kernel_throughput_mbps() > 0.0);
    }

    #[test]
    fn every_platform_populates_metrics() {
        let (genome, guides, _) = workload();
        for platform in Platform::ALL {
            let report = OffTargetSearch::new(genome.clone())
                .guides(guides.clone())
                .max_mismatches(2)
                .platform(platform)
                .run()
                .unwrap_or_else(|e| panic!("{platform}: {e}"));
            let m = report.metrics();
            assert!(!m.engine.is_empty(), "{platform}: engine label missing");
            assert!(m.phases.kernel_scan_s > 0.0, "{platform}: no kernel span");
            assert!(m.phases.total_s() > 0.0, "{platform}: empty phase spans");
            assert_eq!(m.timing(), report.timing(), "{platform}: timing mismatch");
            if !platform.is_modeled() {
                // Every measured CPU engine increments at least one
                // algorithm-specific counter beyond raw hits.
                let c = &m.counters;
                assert!(
                    c.windows_scanned
                        + c.pam_anchors_tested
                        + c.seed_survivors
                        + c.bit_steps
                        + c.candidates_verified
                        > 0,
                    "{platform}: no engine-specific counters"
                );
            }
        }
    }

    #[test]
    fn kernel_time_excludes_guide_compile() {
        // The DFA engine's subset construction dominates its runtime on a
        // small genome; with phase-accurate attribution it lands in
        // config_s, not kernel_s (the old lumped measurement put
        // everything in kernel_s).
        let (genome, guides, _) = workload();
        let report = OffTargetSearch::new(genome)
            .guides(guides)
            .max_mismatches(2)
            .platform(Platform::CpuDfa)
            .run()
            .unwrap();
        let t = report.timing();
        assert!(t.config_s > 0.0, "compile time not attributed");
        assert_eq!(t.kernel_s, report.metrics().phases.kernel_scan_s);
        assert!(report.metrics().gauge("dfa_states").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn partial_runs_return_recovered_hits_and_provenance() {
        let (genome, guides, _) = workload();
        let clean = OffTargetSearch::new(genome.clone())
            .guides(guides.clone())
            .max_mismatches(2)
            .threads(4)
            .run()
            .unwrap();
        assert!(!clean.is_partial() && clean.chunk_failures().is_empty());

        // One guaranteed fire, no retries: exactly one chunk is lost, and
        // the run must still return Ok — report, hits, metrics intact.
        let _scenario = crispr_failpoint::FailScenario::setup("parallel.chunk=error:1.0,21,1");
        let report = OffTargetSearch::new(genome)
            .guides(guides)
            .max_mismatches(2)
            .threads(4)
            .chunk_retries(0)
            .run()
            .unwrap();
        assert!(report.is_partial());
        assert_eq!(report.chunk_failures().len(), 1);
        assert!(report.chunks_total() > 1);
        assert!(!report.chunk_failures()[0].contig_name.is_empty());
        assert!(report.hits().iter().all(|h| clean.hits().binary_search(h).is_ok()));
        let m = report.metrics();
        assert_eq!(m.counters.chunks_failed, 1);
        assert!(m.phases.kernel_scan_s > 0.0, "metrics survive the partial outcome");
        assert!(m.parallel.is_some());
    }

    #[test]
    fn threaded_run_reports_parallel_metrics() {
        let (genome, guides, _) = workload();
        let report =
            OffTargetSearch::new(genome).guides(guides).max_mismatches(2).threads(4).run().unwrap();
        let m = report.metrics();
        assert_eq!(m.engine, "parallel");
        let p = m.parallel.as_ref().expect("parallel stats");
        assert_eq!(p.threads.len(), 4);
        assert!(p.chunks_total >= 1);
        assert!(m.counters.any_nonzero());
    }
}
