//! Multi-threaded, panic-isolated deployment of any engine by genome
//! chunking.
//!
//! The inner engine compiles its guide set exactly once
//! ([`Engine::prepare`]); workers then scan overlapping chunks of each
//! contig through the shared [`PreparedSearch`] — no per-chunk
//! recompilation and no per-chunk genome copies. Every chunk is a
//! [`PackedView`] of its contig at any start offset: the resident words
//! and bitmaps of a packed genome ([`ScanSource::Packed`]), or those of
//! an opened index read in place from its mapping
//! ([`ScanSource::Index`]), so workers charge nothing to `genome_load_s`.
//! Contigs shorter than one site hold no window and yield no chunk.
//! Chunks overlap by `site_len − 1` bases so no window is lost at a
//! boundary; hits are shifted back to contig coordinates and
//! re-normalized (overlap regions produce duplicate hits by
//! construction; normalization removes them). This is the standard way
//! the paper's CPU tools scale to many cores, and the fixture for the
//! chunking ablation.
//!
//! # Fault isolation and self-healing
//!
//! Worker failure is treated as a normal operating condition, not a
//! process event. Every chunk scan runs inside `catch_unwind`, so a
//! panicking inner engine (or an injected fault at the `parallel.chunk`
//! failpoint) unwinds back to the worker loop instead of tearing down the
//! thread. A failed chunk is re-queued for a fresh attempt — with a fresh
//! per-attempt metrics scratch, so counters stay identical to a clean run
//! — up to [`ParallelEngine::with_retry_limit`] retries; a chunk that
//! exhausts its budget is *reported* in a structured
//! [`SearchError::Partial`] carrying full provenance
//! ([`crate::ChunkFailure`]) while every healthy chunk's hits are still
//! aggregated. Aggregation itself uses an mpsc channel (workers own their
//! buffers and send once, at exit), so no lock can be poisoned by a
//! worker's death; the shared work queue is accessed through a
//! poison-recovering guard for the same reason.
//!
//! Phase attribution: `guide_compile_s` is charged once, on the parent,
//! and is independent of thread and chunk counts; the parent's
//! `kernel_scan_s` is the fan-out wall-clock; the workers' own phase sums
//! (CPU-seconds across threads, so they may exceed wall-clock) are
//! reported separately as [`ParallelMetrics::worker_phases`].

use crate::engine::{Engine, PreparedSearch};
use crate::error::ChunkFailure;
use crate::{CancelToken, EngineError, SearchError};
use crispr_genome::diskindex::GenomeIndex;
use crispr_genome::{PackedGenome, PackedView};
use crispr_guides::{normalize, Guide, Hit};
use crispr_model::{ParallelMetrics, SearchMetrics, ThreadStats};
use crispr_trace as trace;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Instant;

/// Default number of *re-queues* a failed chunk gets before it is
/// reported as failed (so a chunk is attempted at most this plus one
/// times).
pub const DEFAULT_CHUNK_RETRIES: u32 = 3;

/// Locks a mutex, recovering from poisoning. The queue it guards is a
/// plain `VecDeque` whose operations never leave it half-mutated across
/// an unwind, so a poisoned guard is safe to adopt — and the scan
/// boundaries that *can* unwind are already fenced by `catch_unwind`.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

use crate::degrade::panic_cause;

/// What a driver scans: resident packed contigs or an opened on-disk
/// index. Either way every contig, and every chunk of one, reaches
/// [`PreparedSearch::scan`] as a [`PackedView`] of its words and bitmaps
/// in place.
#[derive(Debug, Clone, Copy)]
pub enum ScanSource<'g> {
    /// A packed genome held in memory.
    Packed(&'g PackedGenome),
    /// An opened [`GenomeIndex`], viewed straight from its mapping (or
    /// its owned bytes).
    Index(&'g GenomeIndex),
}

impl<'g> From<&'g PackedGenome> for ScanSource<'g> {
    fn from(genome: &'g PackedGenome) -> ScanSource<'g> {
        ScanSource::Packed(genome)
    }
}

impl<'g> ScanSource<'g> {
    /// Number of contigs.
    pub fn contig_count(self) -> usize {
        match self {
            ScanSource::Packed(g) => g.contig_count(),
            ScanSource::Index(index) => index.contig_count(),
        }
    }

    /// Name of contig `ci`.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn contig_name(self, ci: usize) -> &'g str {
        match self {
            ScanSource::Packed(g) => g.contigs()[ci].name(),
            ScanSource::Index(index) => index.contig_name(ci),
        }
    }

    /// Contig `ci`, viewed whole.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn view(self, ci: usize) -> PackedView<'g> {
        match self {
            ScanSource::Packed(g) => g.contigs()[ci].view(),
            ScanSource::Index(index) => index.contig_view(ci),
        }
    }
}

/// One unit of work: a contig chunk plus its retry history.
struct ChunkItem<'g> {
    contig: u32,
    offset: u64,
    view: PackedView<'g>,
    attempts: u32,
    /// When the item was last re-queued after a failure; the dequeue
    /// side turns it into the `retry_backoff_s` histogram.
    requeued_at: Option<Instant>,
}

/// Everything one worker learned, sent over the aggregation channel when
/// the worker drains the queue.
struct WorkerReport {
    stats: ThreadStats,
    local: SearchMetrics,
    hits: Vec<Hit>,
    failures: Vec<ChunkFailure>,
}

/// Scan-side deployment parameters for [`scan_prepared`]: how an
/// already-compiled [`PreparedSearch`] is fanned out over a genome.
///
/// This is the reusable half of [`ParallelEngine`] — the serve layer
/// drives cached prepared searches through it directly, skipping the
/// compile phase entirely on a cache hit.
#[derive(Debug, Clone)]
pub struct ScanDeployment {
    /// Worker threads to fan chunks out over (≥ 1).
    pub threads: usize,
    /// Re-queues a failed chunk gets before it is reported in
    /// [`SearchError::Partial`].
    pub retry_limit: u32,
    /// Per-chunk base length override; `None` derives it from the
    /// contig length and thread count.
    pub chunk_len: Option<usize>,
    /// Cooperative cancellation token, polled before every chunk
    /// attempt. Defaults to [`CancelToken::none`] (checks are free).
    pub cancel: CancelToken,
}

impl ScanDeployment {
    /// A deployment over `threads` workers with the default retry budget.
    pub fn new(threads: usize) -> ScanDeployment {
        assert!(threads > 0, "need at least one thread");
        ScanDeployment {
            threads,
            retry_limit: DEFAULT_CHUNK_RETRIES,
            chunk_len: None,
            cancel: CancelToken::none(),
        }
    }

    /// Overrides the per-chunk retry budget.
    pub fn with_retry_limit(mut self, retries: u32) -> ScanDeployment {
        self.retry_limit = retries;
        self
    }

    /// Arms a cooperative [`CancelToken`] (deadline or manual trip);
    /// workers poll it before every chunk attempt, so a trip stops the
    /// fan-out within one chunk-scan.
    pub fn with_cancel(mut self, cancel: CancelToken) -> ScanDeployment {
        self.cancel = cancel;
        self
    }
}

/// Parallel wrapper around an inner [`Engine`].
#[derive(Debug)]
pub struct ParallelEngine<E> {
    inner: E,
    threads: usize,
    chunk_len: Option<usize>,
    retry_limit: u32,
}

impl<E: Engine + Sync> ParallelEngine<E> {
    /// Wraps `inner`, using `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(inner: E, threads: usize) -> ParallelEngine<E> {
        assert!(threads > 0, "need at least one thread");
        ParallelEngine { inner, threads, chunk_len: None, retry_limit: DEFAULT_CHUNK_RETRIES }
    }

    /// Overrides the per-chunk retry budget (default
    /// [`DEFAULT_CHUNK_RETRIES`]): how many times a failed chunk is
    /// re-queued before being reported in [`SearchError::Partial`]. Zero
    /// means fail-fast-per-chunk — one attempt, no healing.
    pub fn with_retry_limit(mut self, retries: u32) -> ParallelEngine<E> {
        self.retry_limit = retries;
        self
    }

    /// Overrides the per-chunk base length (normally `contig length /
    /// thread count`): each chunk then holds `chunk_len` window starts
    /// plus the `site_len − 1` overlap; every chunk is a view of its
    /// contig, so any length copies nothing — `search --index --shard N`
    /// is this knob. Adversarially
    /// small chunks (around one site length) maximize boundary traffic
    /// and are how the chunk-boundary regressions pin down overlap
    /// handling.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn with_chunk_len(mut self, chunk_len: usize) -> ParallelEngine<E> {
        assert!(chunk_len > 0, "chunk length must be positive");
        self.chunk_len = Some(chunk_len);
        self
    }

    /// The inner engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

/// Splits contigs into overlapping chunk work items viewing the genome:
/// `(contig index, chunk start, chunk view)`. A contig shorter than one
/// site holds no window and yields no chunk — the serial driver skips it
/// too, so both drivers meter the same bases.
fn chunks<'g>(
    source: ScanSource<'g>,
    site_len: usize,
    deployment: &ScanDeployment,
) -> Vec<(u32, u64, PackedView<'g>)> {
    let mut work = Vec::new();
    for ci in 0..source.contig_count() {
        let contig = source.view(ci);
        let total = contig.len();
        if total < site_len {
            continue;
        }
        let base_len = match deployment.chunk_len {
            Some(len) => len,
            None => {
                let chunk_count = deployment.threads.min(total / site_len.max(1)).max(1);
                total.div_ceil(chunk_count)
            }
        };
        let mut start = 0usize;
        while start < total {
            let end = (start + base_len + site_len - 1).min(total);
            work.push((ci as u32, start as u64, contig.slice(start, end - start)));
            if end == total {
                break;
            }
            start += base_len;
        }
    }
    work
}

/// Fans an already-compiled [`PreparedSearch`] out over a genome —
/// resident or indexed, see [`ScanSource`] — with the
/// full self-healing machinery of [`ParallelEngine`]: per-chunk panic
/// isolation, bounded retries, and structured partiality. This is the
/// scan half of the engine, exposed so callers holding a cached prepared
/// search (the serve layer) can skip the compile phase entirely.
///
/// `m.phases.guide_compile_s` is *not* touched — compile cost belongs to
/// whoever ran [`Engine::prepare`]. Scan-side fault fires are metered as
/// a delta into `m.counters.faults_injected`.
///
/// # Errors
///
/// [`SearchError::Partial`] when some chunks exhausted their retry
/// budget — carrying the recovered hits and per-chunk provenance, with
/// `m` fully populated (the partial-results contract: metrics and hits
/// survive the failure).
pub fn scan_prepared<'g>(
    prepared: &dyn PreparedSearch,
    source: impl Into<ScanSource<'g>>,
    deployment: &ScanDeployment,
    m: &mut SearchMetrics,
) -> Result<Vec<Hit>, EngineError> {
    assert!(deployment.threads > 0, "need at least one thread");
    let source = source.into();
    let faults = crispr_failpoint::FireMark::now();
    let site_len = prepared.site_len();
    let work = chunks(source, site_len, deployment);
    let chunks_total = work.len() as u64;
    let chunk_len_min = work.iter().map(|(_, _, v)| v.len() as u64).min().unwrap_or(0);
    let chunk_len_max = work.iter().map(|(_, _, v)| v.len() as u64).max().unwrap_or(0);

    let scan_start = Instant::now();
    let queue: Mutex<VecDeque<ChunkItem<'_>>> = Mutex::new(
        work.into_iter()
            .map(|(contig, offset, view)| ChunkItem {
                contig,
                offset,
                view,
                attempts: 0,
                requeued_at: None,
            })
            .collect(),
    );
    let retry_limit = deployment.retry_limit;
    let overlap = site_len.saturating_sub(1) as u64;
    let (tx, rx) = mpsc::channel::<WorkerReport>();

    let fanout_span = trace::span("phase:fanout");
    std::thread::scope(|scope| {
        for w in 0..deployment.threads {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || {
                trace::name_thread(&format!("worker-{w}"));
                let mut report = WorkerReport {
                    stats: ThreadStats::default(),
                    local: SearchMetrics::default(),
                    hits: Vec::new(),
                    failures: Vec::new(),
                };
                loop {
                    // Cooperative cancellation: one relaxed load before
                    // each chunk attempt. A tripped token stops this
                    // worker from taking new work; the chunk it already
                    // finished keeps its exact counters.
                    if deployment.cancel.check().is_err() {
                        break;
                    }
                    let item = lock_unpoisoned(queue).pop_front();
                    let Some(mut item) = item else { break };
                    if let Some(requeued_at) = item.requeued_at.take() {
                        report
                            .local
                            .observe("retry_backoff_s", requeued_at.elapsed().as_secs_f64());
                    }
                    let chunk_span = trace::span_args("chunk", item.contig as u64, item.offset);
                    let busy_start = Instant::now();
                    // The whole attempt — failpoint, scan, metrics —
                    // runs behind the unwind fence with a *fresh*
                    // per-attempt metrics scratch: a failed attempt
                    // contributes nothing, so counters after healing
                    // equal a clean run's.
                    let attempt = catch_unwind(AssertUnwindSafe(
                        || -> Result<(Vec<Hit>, SearchMetrics), String> {
                            crispr_failpoint::hit("parallel.chunk").map_err(|e| e.to_string())?;
                            let mut buf = Vec::new();
                            let mut scratch = SearchMetrics::default();
                            prepared
                                .scan(&item.view, &mut buf, &mut scratch)
                                .map_err(|e| e.to_string())?;
                            Ok((buf, scratch))
                        },
                    ));
                    let attempt_s = busy_start.elapsed().as_secs_f64();
                    report.stats.busy_s += attempt_s;
                    drop(chunk_span);
                    let outcome = match attempt {
                        Ok(result) => result,
                        Err(payload) => Err(panic_cause(payload)),
                    };
                    item.attempts += 1;
                    match outcome {
                        Ok((buf, scratch)) => {
                            if item.attempts > 1 {
                                trace::instant("chunk_heal", item.contig as u64, item.offset);
                            }
                            report.local.observe("chunk_scan_s", attempt_s);
                            let len = item.view.len() as u64;
                            trace::progress::add(len - overlap.min(len));
                            report.stats.chunks += 1;
                            report.stats.raw_hits += buf.len() as u64;
                            report.local.phases.merge(&scratch.phases);
                            report.local.counters.merge(&scratch.counters);
                            report.hits.extend(buf.into_iter().map(|mut h| {
                                h.contig = item.contig;
                                h.pos += item.offset;
                                h
                            }));
                        }
                        Err(_cause) if item.attempts <= retry_limit => {
                            // Heal: back of the queue, so healthy work
                            // drains first and a flapping chunk's
                            // retries are spread over time.
                            trace::instant("chunk_retry", item.contig as u64, item.offset);
                            report.local.counters.chunks_retried += 1;
                            item.requeued_at = Some(Instant::now());
                            lock_unpoisoned(queue).push_back(item);
                        }
                        Err(cause) => {
                            trace::instant("chunk_fail", item.contig as u64, item.offset);
                            report.local.counters.chunks_failed += 1;
                            report.failures.push(ChunkFailure {
                                contig: item.contig,
                                contig_name: String::new(),
                                start: item.offset,
                                len: item.view.len() as u64,
                                attempts: item.attempts,
                                cause,
                            });
                        }
                    }
                }
                // Hand this worker's events to the collector before
                // the scope joins the thread — the TLS destructor
                // would do it too, but explicitly flushing keeps the
                // ordering obvious.
                trace::flush_thread();
                // A receiver that vanished means the parent is gone;
                // nothing useful to do with the report then.
                let _ = tx.send(report);
            });
        }
    });
    drop(fanout_span);
    drop(tx);
    let wall_s = scan_start.elapsed().as_secs_f64();
    m.phases.kernel_scan_s += wall_s;

    let mut parallel = ParallelMetrics {
        threads: Vec::with_capacity(deployment.threads),
        chunks_total,
        chunk_len_min,
        chunk_len_max,
        overlap: site_len.saturating_sub(1) as u64,
        worker_phases: Default::default(),
    };
    let mut hits: Vec<Hit> = Vec::new();
    let mut failures: Vec<ChunkFailure> = Vec::new();
    for report in rx.iter() {
        // Workers never compile (the shared prepared search already
        // is), so their summed phases are pure scan-side CPU time.
        m.counters.raw_hits += report.stats.raw_hits;
        parallel.threads.push(report.stats);
        parallel.worker_phases.merge(&report.local.phases);
        m.counters.merge(&report.local.counters);
        m.merge_histograms(&report.local.histograms);
        hits.extend(report.hits);
        failures.extend(report.failures);
    }
    m.set_gauge("worker_utilization", parallel.utilization(wall_s));
    m.set_gauge("straggler_ratio", parallel.straggler_ratio());
    let max_busy_s = parallel.max_busy_s();
    let chunks_scanned: u64 = parallel.threads.iter().map(|t| t.chunks).sum();
    m.parallel = Some(parallel);
    // Worker gauges are not merged upward, so ratio gauges over the
    // merged counters are computed here, after the fold.
    m.finalize_derived_gauges();

    let report_start = Instant::now();
    {
        let _span = trace::span("phase:report");
        normalize(&mut hits);
    }
    m.phases.report_s += report_start.elapsed().as_secs_f64();
    // The shortest wall-clock this run could reach with perfect load
    // balance: the serial compile and report phases, plus the busiest
    // worker's scan time.
    m.set_gauge("critical_path_s", m.phases.guide_compile_s + max_busy_s + m.phases.report_s);
    m.counters.faults_injected += faults.fired_since();

    // A trip observed after every chunk already completed is not a
    // cancellation: the full answer exists, so it is returned. Only a
    // run that actually stopped short surfaces the typed error — with
    // the hits recovered from completed chunks, already normalized.
    if chunks_scanned < chunks_total {
        if let Err(kind) = deployment.cancel.check() {
            return Err(SearchError::from_cancel(kind, hits, chunks_scanned, chunks_total));
        }
    }

    if !failures.is_empty() {
        for failure in &mut failures {
            failure.contig_name = source.contig_name(failure.contig as usize).to_string();
        }
        failures.sort_by_key(|f| (f.contig, f.start));
        return Err(SearchError::Partial { failures, chunks_total, hits });
    }
    Ok(hits)
}

impl<E: Engine + Sync> Engine for ParallelEngine<E> {
    fn name(&self) -> &'static str {
        "parallel"
    }

    /// Delegates to the inner engine: the parallel wrapper is a scan-side
    /// deployment, not a different compiler. (The prepared search returned
    /// here scans serially; the fan-out lives in
    /// [`ParallelEngine::search_cancellable`].)
    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        self.inner.prepare(guides, k)
    }

    /// Compiles once, then fans `source`'s chunks out over the workers
    /// ([`scan_prepared`]).
    ///
    /// # Errors
    ///
    /// Same as the inner engine's, plus [`SearchError::Partial`] when
    /// some chunks exhausted their retry budget.
    fn search_cancellable(
        &self,
        source: ScanSource<'_>,
        guides: &[Guide],
        k: usize,
        cancel: &CancelToken,
        m: &mut SearchMetrics,
    ) -> Result<Vec<Hit>, EngineError> {
        m.engine = self.name().to_string();
        // Faults fired during prepare are metered here; scan-side fires
        // are metered by `scan_prepared`'s own delta.
        let faults = crispr_failpoint::FireMark::now();
        let compile_start = Instant::now();
        let prepared = {
            let _span = trace::span("phase:guide_compile");
            self.inner.prepare(guides, k)?
        };
        m.phases.guide_compile_s += compile_start.elapsed().as_secs_f64();
        prepared.record_gauges(m);
        m.counters.faults_injected += faults.fired_since();

        let deployment = ScanDeployment {
            threads: self.threads,
            retry_limit: self.retry_limit,
            chunk_len: self.chunk_len,
            cancel: cancel.clone(),
        };
        scan_prepared(prepared.as_ref(), source, &deployment, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::planted_workload;
    use crate::{BitParallelEngine, CasOffinderCpuEngine, ScalarEngine};
    use crispr_failpoint::FailScenario;

    /// Holds the failpoint scenario lock with nothing armed, so a clean
    /// run neither meets nor consumes faults armed by a test running on
    /// another thread.
    fn unarmed() -> FailScenario {
        FailScenario::setup("")
    }

    #[test]
    fn parallel_equals_serial_bitparallel() {
        let _unarmed = unarmed();
        let (genome, guides, _) = planted_workload(71, 3);
        let serial = BitParallelEngine::new().search(&genome, &guides, 3).unwrap();
        for threads in [1, 2, 4, 7] {
            let par = ParallelEngine::new(BitParallelEngine::new(), threads)
                .search(&genome, &guides, 3)
                .unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_equals_serial_brute_force() {
        let _unarmed = unarmed();
        let (genome, guides, _) = planted_workload(72, 2);
        let serial = CasOffinderCpuEngine::new().search(&genome, &guides, 2).unwrap();
        let par = ParallelEngine::new(CasOffinderCpuEngine::new(), 3)
            .search(&genome, &guides, 2)
            .unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    fn chunk_boundaries_do_not_lose_hits() {
        let _unarmed = unarmed();
        // A genome barely larger than one site, forcing overlap handling.
        let (genome, guides, _) = planted_workload(73, 1);
        let truth = ScalarEngine::new().search(&genome, &guides, 1).unwrap();
        let par = ParallelEngine::new(ScalarEngine::new(), 16).search(&genome, &guides, 1).unwrap();
        assert_eq!(par, truth);
    }

    #[test]
    fn inner_errors_propagate() {
        let _unarmed = unarmed();
        let genome = crispr_genome::Genome::from_seq("ACGT".parse().unwrap());
        let engine = ParallelEngine::new(ScalarEngine::new(), 2);
        assert!(engine.search(&genome, &[], 1).is_err());
    }

    /// Builds a multi-contig genome whose contig lengths straddle the
    /// chunk size: below one site, exactly one site, below one chunk,
    /// and many chunks long.
    fn straddling_genome() -> crispr_genome::Genome {
        use crispr_genome::synth::SynthSpec;
        let piece = |len: usize, seed: u64| {
            SynthSpec::new(len).seed(seed).generate().contigs()[0].seq().clone()
        };
        let mut genome = crispr_genome::Genome::new();
        genome.add_contig("tiny", piece(10, 91)).unwrap(); // shorter than a site: skipped
        genome.add_contig("one-site", piece(23, 92)).unwrap(); // exactly one window
        genome.add_contig("sub-chunk", piece(40, 93)).unwrap(); // smaller than one chunk
        genome.add_contig("long", piece(12_000, 94)).unwrap(); // splits into many chunks
        genome
    }

    #[test]
    fn multi_contig_chunking_matches_serial() {
        let _unarmed = unarmed();
        use crispr_guides::genset::{self, PlantPlan};
        let guides = genset::random_guides(3, 20, &crispr_guides::Pam::ngg(), 95);
        let (genome, planted) =
            genset::plant_offtargets(straddling_genome(), &guides, &PlantPlan::uniform(3, 2), 96);
        let truth = ScalarEngine::new().search(&genome, &guides, 3).unwrap();
        for threads in [1, 2, 4, 9] {
            let par = ParallelEngine::new(BitParallelEngine::new(), threads)
                .search(&genome, &guides, 3)
                .unwrap();
            assert_eq!(par, truth, "threads={threads}");
            for hit in planted.iter().filter(|h| h.mismatches <= 3) {
                assert!(par.binary_search(hit).is_ok(), "planted hit {hit} missing");
            }
        }
    }

    #[test]
    fn chunk_boundary_duplicates_are_removed() {
        let _unarmed = unarmed();
        // Overlapping chunks re-discover boundary-window hits; the merged
        // result must still be strictly sorted and duplicate-free.
        let (genome, guides, _) = planted_workload(74, 2);
        let par = ParallelEngine::new(ScalarEngine::new(), 16).search(&genome, &guides, 2).unwrap();
        assert!(par.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
    }

    #[test]
    fn adversarial_chunk_lens_keep_batched_hits_exact() {
        let _unarmed = unarmed();
        // The batched path finds one site through several seed fragments;
        // without its streaming dedup, overlap windows at chunk boundaries
        // emit duplicate raw hits and double-counted verifier work. Chunk
        // lengths of site_len − 1, site_len, and site_len + 1 maximize
        // boundary traffic (nearly every window touches an overlap).
        let (genome, guides, _) = planted_workload(77, 3);
        let truth = ScalarEngine::new().search(&genome, &guides, 3).unwrap();
        let site_len = guides[0].site_len();
        let serial = {
            let mut m = SearchMetrics::default();
            let hits =
                BitParallelEngine::batched().search_metered(&genome, &guides, 3, &mut m).unwrap();
            assert_eq!(hits, truth);
            m
        };
        for chunk_len in [site_len - 1, site_len, site_len + 1] {
            for threads in [1, 3, 8] {
                let engine = ParallelEngine::new(BitParallelEngine::batched(), threads)
                    .with_chunk_len(chunk_len);
                let mut m = SearchMetrics::default();
                let hits = engine.search_metered(&genome, &guides, 3, &mut m).unwrap();
                assert_eq!(hits, truth, "chunk_len={chunk_len} threads={threads}");
                assert!(hits.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
                // Chunk windows partition contig windows exactly, so the
                // merged counters — raw hits included — must equal the
                // serial scan's, whatever the chunk geometry.
                assert_eq!(m.counters, serial.counters, "chunk_len={chunk_len} threads={threads}");
                let p = m.parallel.as_ref().expect("parallel stats present");
                assert_eq!(p.worker_phases.genome_load_s, 0.0, "chunks are views, never copies");
            }
        }
    }

    #[test]
    fn metered_parallel_fills_stats_and_counters() {
        let _unarmed = unarmed();
        let (genome, guides, _) = planted_workload(75, 2);
        let engine = ParallelEngine::new(BitParallelEngine::new(), 3);
        let mut m = SearchMetrics::default();
        let hits = engine.search_metered(&genome, &guides, 2, &mut m).unwrap();
        let serial = BitParallelEngine::new().search(&genome, &guides, 2).unwrap();
        assert_eq!(hits, serial);
        assert_eq!(m.engine, "parallel");
        let p = m.parallel.as_ref().expect("parallel stats present");
        assert_eq!(p.threads.len(), 3);
        assert!(p.chunks_total >= 1);
        assert_eq!(p.threads.iter().map(|t| t.chunks).sum::<u64>(), p.chunks_total);
        assert!(p.chunk_len_min > 0 && p.chunk_len_min <= p.chunk_len_max);
        assert_eq!(p.overlap, 22); // site_len 23 → overlap 22
                                   // Counters merged up from the inner engines; raw hits include
                                   // boundary duplicates, so they bound the deduplicated output.
        assert!(m.counters.windows_scanned > 0);
        assert!(m.counters.bit_steps > 0);
        assert!(m.counters.raw_hits >= hits.len() as u64);
        assert!(m.phases.kernel_scan_s > 0.0);
        let utilization = m.gauge("worker_utilization").expect("worker_utilization gauge");
        assert!((0.0..=1.0 + 1e-9).contains(&utilization));
        let straggler = m.gauge("straggler_ratio").expect("straggler_ratio gauge");
        assert!(straggler >= 1.0 - 1e-9, "straggler ratio is max/median: {straggler}");
        let critical = m.gauge("critical_path_s").expect("critical_path_s gauge");
        assert!(critical > 0.0);
        assert!(
            critical <= m.phases.total_s() + 1e-9,
            "critical path cannot exceed the summed serial phases plus scan wall-clock"
        );
        // Every successful chunk attempt lands one chunk_scan_s sample.
        let h = m.histogram("chunk_scan_s").expect("chunk_scan_s histogram");
        assert_eq!(h.count(), p.chunks_total);
        // A clean run never waits on a retry.
        assert!(m.histogram("retry_backoff_s").is_none());
    }

    #[test]
    fn injected_chunk_faults_self_heal() {
        let (genome, guides, _) = planted_workload(78, 2);
        let engine = ParallelEngine::new(BitParallelEngine::new(), 3);
        let clean = {
            let _unarmed = unarmed();
            engine.search(&genome, &guides, 2).unwrap()
        };
        // Two guaranteed fires, then the site exhausts; the default
        // retry budget re-queues both failed chunks.
        let _scenario = FailScenario::setup("parallel.chunk=panic:1.0,5,2");
        let mut m = SearchMetrics::default();
        let hits = engine.search_metered(&genome, &guides, 2, &mut m).unwrap();
        assert_eq!(hits, clean);
        assert_eq!(m.counters.chunks_retried, 2);
        assert_eq!(m.counters.chunks_failed, 0);
        assert_eq!(m.counters.faults_injected, 2);
        // Each re-queued chunk was dequeued again, so each healing
        // records one backoff sample; failed attempts record no
        // chunk_scan_s sample, so its count still equals chunks_total.
        let backoff = m.histogram("retry_backoff_s").expect("retry_backoff_s histogram");
        assert_eq!(backoff.count(), 2);
        let p = m.parallel.as_ref().expect("parallel stats present");
        assert_eq!(m.histogram("chunk_scan_s").map(|h| h.count()), Some(p.chunks_total));
        // The imbalance gauges survive a healed run.
        assert!(m.gauge("worker_utilization").is_some());
        assert!(m.gauge("straggler_ratio").is_some());
        assert!(m.gauge("critical_path_s").is_some());
    }

    #[test]
    fn persistent_faults_become_structured_partial_errors() {
        let (genome, guides, _) = planted_workload(79, 1);
        let engine = ParallelEngine::new(ScalarEngine::new(), 2).with_retry_limit(1);
        let _scenario = FailScenario::setup("parallel.chunk=error");
        let err = engine.search(&genome, &guides, 1).unwrap_err();
        let SearchError::Partial { failures, chunks_total, hits } = err else {
            panic!("expected Partial");
        };
        assert_eq!(failures.len() as u64, chunks_total);
        assert!(hits.is_empty());
        assert!(failures.iter().all(|f| f.attempts == 2 && !f.contig_name.is_empty()));
    }

    #[test]
    fn partial_errors_carry_the_recovered_hits() {
        // One guaranteed fire, no retries: exactly one chunk fails and the
        // partial error must deliver every other chunk's hits — the
        // recovered set plus the failed chunk's windows re-scanned clean
        // must reconstruct the full hit set.
        let (genome, guides, _) = planted_workload(81, 2);
        let engine = ParallelEngine::new(BitParallelEngine::new(), 4).with_retry_limit(0);
        let clean = {
            let _unarmed = unarmed();
            engine.search(&genome, &guides, 2).unwrap()
        };
        let _scenario = FailScenario::setup("parallel.chunk=error:1.0,13,1");
        let mut m = SearchMetrics::default();
        let err = engine.search_metered(&genome, &guides, 2, &mut m).unwrap_err();
        let SearchError::Partial { failures, chunks_total, hits } = err else {
            panic!("expected Partial");
        };
        assert_eq!(failures.len(), 1);
        assert!(chunks_total > 1);
        // Recovered hits are normalized (sorted, deduplicated) and are a
        // subset of the clean run's.
        assert!(hits.windows(2).all(|w| w[0] < w[1]));
        assert!(hits.iter().all(|h| clean.binary_search(h).is_ok()));
        // Every clean hit outside the failed chunk's span was recovered.
        let f = &failures[0];
        let lost = |h: &Hit| h.contig == f.contig && h.pos >= f.start && h.pos < f.start + f.len;
        for hit in clean.iter().filter(|h| !lost(h)) {
            assert!(hits.binary_search(hit).is_ok(), "recoverable hit {hit} missing");
        }
        // The metrics passed in survive the partial outcome.
        assert_eq!(m.counters.chunks_failed, 1);
        assert!(m.parallel.is_some());
    }

    #[test]
    fn scan_prepared_reuses_a_cached_compile() {
        let _unarmed = unarmed();
        // The serve-layer path: prepare once, scan many times through the
        // public deployment function. Results must match the engine
        // driver's, and no compile time may be charged to the scan.
        let (genome, guides, _) = planted_workload(82, 2);
        let packed = genome.pack();
        let truth = BitParallelEngine::new().search(&genome, &guides, 2).unwrap();
        let prepared = BitParallelEngine::new().prepare(&guides, 2).unwrap();
        let deployment = ScanDeployment::new(3);
        for _ in 0..2 {
            let mut m = SearchMetrics::default();
            let hits = scan_prepared(prepared.as_ref(), &packed, &deployment, &mut m).unwrap();
            assert_eq!(hits, truth);
            assert_eq!(m.phases.guide_compile_s, 0.0, "scan must not charge compile");
            assert!(m.phases.kernel_scan_s > 0.0);
        }
    }

    #[test]
    fn packed_chunks_match_the_serial_scan_and_copy_nothing() {
        // Whole-contig and sub-contig chunks (adversarially short ones
        // included) are views of the resident words and bitmaps at any
        // start: hits and counters equal the serial scan's, and no
        // worker charges a load.
        let _unarmed = unarmed();
        let (genome, guides, _) = planted_workload(83, 2);
        let packed = genome.pack();
        let site_len = guides[0].site_len();
        for engine in [BitParallelEngine::new(), BitParallelEngine::batched()] {
            let prepared = engine.prepare(&guides, 2).unwrap();
            let mut serial_m = SearchMetrics::default();
            let serial = crate::scan_genome_cancellable(
                prepared.as_ref(),
                ScanSource::Packed(&packed),
                &CancelToken::none(),
                &mut serial_m,
            )
            .unwrap();
            for (threads, chunk_len) in [(1, None), (3, None), (2, Some(site_len)), (3, Some(997))]
            {
                let deployment = ScanDeployment { chunk_len, ..ScanDeployment::new(threads) };
                let mut m = SearchMetrics::default();
                let hits = scan_prepared(prepared.as_ref(), &packed, &deployment, &mut m).unwrap();
                let at = format!("{} threads={threads} chunk_len={chunk_len:?}", engine.name());
                assert_eq!(hits, serial, "{at}");
                let mut counters = m.counters;
                counters.bit_steps = serial_m.counters.bit_steps; // overlaps re-step
                assert_eq!(counters, serial_m.counters, "{at}");
                let p = m.parallel.as_ref().unwrap();
                assert_eq!((m.phases.genome_load_s, p.worker_phases.genome_load_s), (0.0, 0.0));
            }
        }
    }

    #[test]
    fn compile_is_charged_once_and_chunks_are_borrowed() {
        let _unarmed = unarmed();
        let (genome, guides, _) = planted_workload(76, 2);
        let engine = ParallelEngine::new(BitParallelEngine::new(), 4);
        let mut m = SearchMetrics::default();
        let _ = engine.search_metered(&genome, &guides, 2, &mut m).unwrap();
        let p = m.parallel.as_ref().expect("parallel stats present");
        // Workers scan a shared prepared search: no compile time may be
        // attributed inside the fan-out, whatever the chunk count.
        assert_eq!(p.worker_phases.guide_compile_s, 0.0);
        assert!(p.worker_phases.kernel_scan_s > 0.0);
        // Chunks are views of the packed contigs, never copies.
        assert_eq!(p.worker_phases.genome_load_s, 0.0);
        // The parent still reports the one-time compile.
        assert!(m.phases.guide_compile_s > 0.0);
    }
}
