use crate::{Platform, SearchReport};
use crispr_engines::{
    BitParallelEngine, CancelToken, CasOffinderCpuEngine, CasotEngine, DfaEngine, Engine,
    EngineError, NfaEngine, ParallelEngine, ScalarEngine, ScanSource, SearchError,
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

    /// Starts a search over an opened on-disk index. Single-threaded CPU
    /// platforms scan the index's packed payloads directly (optionally in
    /// bounded-memory shards, see [`OffTargetSearch::shard`]); threaded
    /// runs copy the packed payloads out once and fan packed chunks out,
    /// and the modeled accelerators unpack the genome once — either cost
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

    /// Streams each contig of an indexed scan in shards of `len` window
    /// starts, bounding resident memory by one shard instead of one
    /// contig — hits and counters are unchanged. Ignored on the
    /// in-memory path and by threaded/modeled runs.
    pub fn shard(mut self, len: Option<usize>) -> OffTargetSearch {
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

    /// Sets the per-chunk retry budget for multi-threaded runs (how many
    /// times a failed chunk is re-queued before it is reported in a
    /// partial-result error). Ignored when `threads` is 1.
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
    /// it at every chunk/contig/shard boundary, so a manual trip or an
    /// expired deadline stops the scan within one chunk-scan and
    /// surfaces as [`SearchError::Cancelled`] /
    /// [`SearchError::DeadlineExceeded`] carrying the hits recovered
    /// from completed chunks. The modeled accelerators check only
    /// between phases (their kernels are closed-form models).
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
    /// A multi-threaded run in which some chunks failed every retry still
    /// returns `Ok`: the report carries the recovered hits and full
    /// metrics, with the failure provenance in
    /// [`SearchReport::chunk_failures`] — check
    /// [`SearchReport::is_partial`] before treating the hit set as
    /// complete. (This is the partial-results contract the CLI's exit
    /// code 3 and the serve layer's 206 responses are built on.)
    ///
    /// # Errors
    ///
    /// Guide-validation, compilation, or platform-capacity errors from the
    /// selected backend.
    pub fn run(&self) -> Result<SearchReport, EngineError> {
        // A token already tripped when the run starts (deadline in the
        // past, client gone) fails fast before any compile or unpack
        // work — this is also the only cancellation point the modeled
        // accelerators get, since their kernels are closed-form models.
        if let Err(kind) = self.cancel.check() {
            return Err(SearchError::from_cancel(kind, Vec::new(), 0, 0));
        }
        // Modeled accelerators consume a byte-per-base genome; it is
        // unpacked here (once) and the unpack charged below.
        let modeled_genome = if self.platform.is_modeled() { Some(self.unpacked()?) } else { None };
        let (hits, mut metrics, partial) = match self.platform {
            Platform::CpuScalar => self.run_cpu(ScalarEngine::new())?,
            Platform::CpuCasOffinder => self.run_cpu(CasOffinderCpuEngine::new())?,
            Platform::CpuCasot => self.run_cpu(CasotEngine::new())?,
            Platform::CpuBitParallel => self.run_cpu(BitParallelEngine::new())?,
            Platform::CpuBitParallelBatched => self.run_cpu(BitParallelEngine::batched())?,
            Platform::CpuCasOffinderBatched => self.run_cpu(CasOffinderCpuEngine::batched())?,
            Platform::CpuCasotBatched => self.run_cpu(CasotEngine::batched())?,
            Platform::CpuNfa => self.run_cpu(NfaEngine::new())?,
            Platform::CpuDfa => self.run_cpu(DfaEngine::new())?,
            Platform::Ap => {
                let (genome, _) = modeled_genome.as_ref().expect("modeled platform");
                let report = crispr_ap::ApSearch::new().run(genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("ap-modeled", &report.timing);
                m.counters.raw_hits = report.hits.len() as u64;
                m.set_gauge("streams", report.streams as f64);
                m.set_gauge("passes", report.passes as f64);
                m.set_gauge("stall_cycles", report.stall_cycles as f64);
                m.set_gauge("chips_used", report.placement.chips_used as f64);
                m.set_gauge("stes_used", report.placement.stes_used as f64);
                m.set_gauge("ste_utilization", report.placement.utilization);
                (report.hits, m, None)
            }
            Platform::Fpga => {
                let (genome, _) = modeled_genome.as_ref().expect("modeled platform");
                let report = crispr_fpga::FpgaSearch::new().run(genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("fpga-modeled", &report.timing);
                m.counters.raw_hits = report.hits.len() as u64;
                m.set_gauge("passes", report.passes as f64);
                m.set_gauge("designs", report.designs.len() as f64);
                if let Some(d) = report.designs.first() {
                    m.set_gauge("instances", d.instances as f64);
                    m.set_gauge("clock_hz", d.clock_hz);
                    m.set_gauge("lut_utilization", d.utilization);
                }
                (report.hits, m, None)
            }
            Platform::GpuInfant2 => {
                let (genome, _) = modeled_genome.as_ref().expect("modeled platform");
                let report = crispr_gpu::Infant2Search::new().run(genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("gpu-infant2-modeled", &report.timing);
                m.counters.raw_hits = report.hits.len() as u64;
                m.set_gauge("mean_active_states", report.mean_active);
                m.set_gauge("bytes_per_symbol", report.bytes_per_symbol);
                (report.hits, m, None)
            }
            Platform::GpuCasOffinder => {
                let (genome, _) = modeled_genome.as_ref().expect("modeled platform");
                let report =
                    crispr_gpu::CasOffinderGpuSearch::new().run(genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("gpu-cas-offinder-modeled", &report.timing);
                m.counters.raw_hits = report.hits.len() as u64;
                m.set_gauge("kernel_bytes", report.kernel_bytes);
                (report.hits, m, None)
            }
        };
        metrics.counters.degraded_paths += self.input_degradations;
        metrics.phases.genome_load_s += self.pack_s;
        if let Some((_, unpack_s)) = &modeled_genome {
            metrics.phases.genome_load_s += unpack_s;
        }
        if let GenomeSource::Index(index) = &self.source {
            metrics.set_gauge("index_cache", 1.0);
            metrics.set_gauge("index_mmap", if index.mapped() { 1.0 } else { 0.0 });
            metrics.set_gauge("index_load_s", self.index_load_s);
            if let Some(shard) = self.shard {
                metrics.set_gauge("index_shard_len", shard as f64);
            }
        }
        let report = SearchReport::new(
            self.platform,
            hits,
            metrics,
            self.total_len(),
            self.guides.len(),
            self.k,
        );
        Ok(match partial {
            Some((failures, chunks_total)) => report.with_failures(failures, chunks_total),
            None => report,
        })
    }

    /// Runs a CPU engine (parallel-wrapped when `threads > 1`) with full
    /// metering: the engine attributes guide compilation to the config
    /// bucket and the scan to the kernel bucket, so `kernel_s` no longer
    /// absorbs compile time the way the old lumped measurement did.
    ///
    /// Both paths go through the engine's prepare/scan split
    /// (`Engine::prepare` once, `PreparedSearch::scan_packed` per contig
    /// or chunk — see DESIGN.md §7.1), so `guide_compile_s` is paid once
    /// regardless of `threads`, and the parallel wrapper fans the same
    /// prepared searcher out over borrowed packed chunks.
    ///
    /// A partial outcome (some chunks failed every retry) is *not* an
    /// error at this level: the parallel deployment delivers the
    /// recovered hits inside [`SearchError::Partial`] and fully populates
    /// `metrics` before returning, so the partial branch unwraps both and
    /// hands the failure provenance up for the report.
    #[allow(clippy::type_complexity)]
    fn run_cpu<E: Engine + Sync>(
        &self,
        engine: E,
    ) -> Result<(Vec<Hit>, SearchMetrics, Option<PartialOutcome>), EngineError> {
        let mut metrics = SearchMetrics::default();
        if self.threads > 1 {
            let copied;
            let source = match &self.source {
                GenomeSource::Packed(genome) => genome,
                GenomeSource::Index(index) => {
                    // Workers scan packed chunks: the index's payloads are
                    // copied out once (charged to genome_load_s), never
                    // unpacked.
                    let copy_start = Instant::now();
                    copied = index.to_packed();
                    metrics.phases.genome_load_s += copy_start.elapsed().as_secs_f64();
                    &copied
                }
            };
            let result = ParallelEngine::new(engine, self.threads)
                .with_retry_limit(self.chunk_retries)
                .search_cancellable(
                    ScanSource::Packed(source),
                    &self.guides,
                    self.k,
                    &self.cancel,
                    &mut metrics,
                );
            match result {
                Ok(hits) => Ok((hits, metrics, None)),
                Err(SearchError::Partial { failures, chunks_total, hits }) => {
                    Ok((hits, metrics, Some((failures, chunks_total))))
                }
                Err(e) => Err(e),
            }
        } else {
            let hits = match &self.source {
                GenomeSource::Packed(genome) => engine.search_cancellable(
                    ScanSource::Packed(genome),
                    &self.guides,
                    self.k,
                    &self.cancel,
                    &mut metrics,
                )?,
                GenomeSource::Index(index) => engine.search_indexed_cancellable(
                    index,
                    self.shard,
                    &self.guides,
                    self.k,
                    &self.cancel,
                    &mut metrics,
                )?,
            };
            Ok((hits, metrics, None))
        }
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

/// Chunk-failure provenance of a partial run: the failed chunks plus the
/// total the deployment enqueued.
type PartialOutcome = (Vec<crispr_engines::ChunkFailure>, u64);

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
