//! Fault-injection tier: deterministic failpoints armed at every pipeline
//! site, checking the robustness contract end to end.
//!
//! The contract under test (DESIGN.md §9):
//!
//! * **Hit-set invariance** — a search that survives injected faults
//!   (through retries or degradation fallbacks) returns *exactly* the
//!   hits and scan counters of a clean run. Faults may cost time, never
//!   correctness.
//! * **Structured partiality** — a chunk that fails every retry is
//!   reported in [`SearchError::Partial`] with full provenance (contig
//!   name, byte range, attempts, cause) while every healthy chunk's hits
//!   are still aggregated. No process abort, no poisoned lock.
//! * **Observability** — every fault leaves a trace in the metrics
//!   counters (`faults_injected`, `chunks_retried`, `chunks_failed`,
//!   `degraded_paths`).
//!
//! Every test takes the global [`FailScenario`] lock — for its clean
//! baseline too ([`baseline`]) — so the tier is serialized within this
//! binary: no baseline meets faults armed by a test on another thread,
//! and no injection state leaks into other tests.

use crispr_offtarget::core::{OffTargetSearch, Platform};
use crispr_offtarget::engines::{
    BitParallelEngine, CasOffinderCpuEngine, Engine, ParallelEngine, ScalarEngine, SearchError,
};
use crispr_offtarget::failpoint::{self, FailScenario};
use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::{fasta, Genome};
use crispr_offtarget::guides::genset::{self, PlantPlan};
use crispr_offtarget::guides::{io as guide_io, Guide, Pam};
use crispr_offtarget::model::SearchMetrics;

/// Runs a clean baseline under the scenario lock with nothing armed.
fn baseline<T>(run: impl FnOnce() -> T) -> T {
    let _unarmed = FailScenario::setup("");
    run()
}

/// A multi-contig planted workload big enough to split into many chunks.
fn workload(seed: u64, k: usize) -> (Genome, Vec<Guide>) {
    let genome = SynthSpec::new(12_000).seed(seed).contigs(3).generate();
    let guides = genset::random_guides(2, 20, &Pam::ngg(), seed + 1);
    let (genome, _) =
        genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(k, 2), seed + 2);
    (genome, guides)
}

#[test]
fn chunk_panics_heal_to_clean_hits_and_counters() {
    let (genome, guides) = workload(201, 2);
    let engine = ParallelEngine::new(BitParallelEngine::new(), 4);
    let mut clean_m = SearchMetrics::default();
    let clean = baseline(|| engine.search_metered(&genome, &guides, 2, &mut clean_m).unwrap());

    // Three guaranteed panics, then the site exhausts: the default retry
    // budget (3 re-queues per chunk) absorbs them all.
    let _scenario = FailScenario::setup("parallel.chunk=panic:1.0,7,3");
    let mut m = SearchMetrics::default();
    let hits = engine.search_metered(&genome, &guides, 2, &mut m).unwrap();

    assert_eq!(hits, clean, "healed run must return the clean hit set");
    assert_eq!(m.counters.faults_injected, 3);
    assert_eq!(m.counters.chunks_retried, 3);
    assert_eq!(m.counters.chunks_failed, 0);
    // Failed attempts contribute nothing: scan-side counters equal a
    // clean run's, fault bookkeeping aside.
    assert_eq!(m.counters.windows_scanned, clean_m.counters.windows_scanned);
    assert_eq!(m.counters.raw_hits, clean_m.counters.raw_hits);
    assert_eq!(m.counters.candidates_verified, clean_m.counters.candidates_verified);
}

#[test]
fn chunk_error_faults_heal_like_panics() {
    let (genome, guides) = workload(211, 1);
    let engine = ParallelEngine::new(CasOffinderCpuEngine::new(), 3);
    let clean = baseline(|| engine.search(&genome, &guides, 1).unwrap());

    let _scenario = FailScenario::setup("parallel.chunk=error:1.0,11,2");
    let mut m = SearchMetrics::default();
    let hits = engine.search_metered(&genome, &guides, 1, &mut m).unwrap();

    assert_eq!(hits, clean);
    assert_eq!(m.counters.faults_injected, 2);
    assert_eq!(m.counters.chunks_retried, 2);
    assert_eq!(m.counters.chunks_failed, 0);
}

#[test]
fn exhausted_retries_report_partial_with_provenance() {
    let (genome, guides) = workload(202, 1);
    // Persistent fault, retry budget 2: every chunk is attempted exactly
    // three times, then reported — never aborted, never silently dropped.
    let engine = ParallelEngine::new(CasOffinderCpuEngine::new(), 3).with_retry_limit(2);
    let _scenario = FailScenario::setup("parallel.chunk=panic");
    let mut m = SearchMetrics::default();
    let err = engine.search_metered(&genome, &guides, 1, &mut m).unwrap_err();

    assert!(err.is_partial());
    let SearchError::Partial { failures, chunks_total, hits } = err else {
        panic!("expected Partial, got something else");
    };
    assert_eq!(failures.len() as u64, chunks_total, "every chunk failed");
    assert!(hits.is_empty(), "no chunk survived, so no hits to recover");
    for failure in &failures {
        assert!(!failure.contig_name.is_empty(), "deployment fills contig names");
        assert_eq!(failure.attempts, 3, "1 initial + 2 retries");
        assert!(failure.cause.contains("parallel.chunk"), "cause: {}", failure.cause);
    }
    assert!(
        failures.windows(2).all(|w| (w[0].contig, w[0].start) < (w[1].contig, w[1].start)),
        "failures are sorted by genome position"
    );
    assert_eq!(m.counters.chunks_failed, chunks_total);
    assert_eq!(m.counters.chunks_retried, 2 * chunks_total);
}

#[test]
fn one_poisoned_chunk_still_recovers_the_rest() {
    let (genome, guides) = workload(203, 2);
    let engine = ParallelEngine::new(BitParallelEngine::new(), 4).with_retry_limit(0);
    let clean = baseline(|| engine.search(&genome, &guides, 2).unwrap());

    // Exactly one fire, no retries allowed: one chunk fails, every other
    // chunk's hits are still aggregated into the partial report.
    let _scenario = FailScenario::setup("parallel.chunk=panic:1.0,3,1");
    let err = engine.search(&genome, &guides, 2).unwrap_err();
    let SearchError::Partial { failures, chunks_total, hits } = err else {
        panic!("expected Partial");
    };
    assert_eq!(failures.len(), 1);
    assert!(chunks_total > 1, "workload must split into several chunks");
    assert!(hits.len() <= clean.len());
    assert!(hits.iter().all(|h| clean.binary_search(h).is_ok()), "recovered hits are real hits");
    let failure = &failures[0];
    assert_eq!(
        failure.contig_name,
        genome.contigs()[failure.contig as usize].name(),
        "provenance names the failing contig"
    );
}

#[test]
fn build_site_faults_degrade_instead_of_failing() {
    let (genome, guides) = workload(204, 2);
    let truth = baseline(|| ScalarEngine::new().search(&genome, &guides, 2).unwrap());

    // (spec, engine): the batched path owns the shared seed automaton
    // (multiseed.build); the per-guide path owns the PAM-anchor
    // prefilter (prefilter.build). Either way the accelerator is an
    // optimization, so losing it must cost time, not hits.
    let cases: [(&str, BitParallelEngine); 3] = [
        ("multiseed.build=panic", BitParallelEngine::batched()),
        ("prefilter.build=error", BitParallelEngine::new()),
        ("multiseed.build=panic;prefilter.build=panic", BitParallelEngine::batched()),
    ];
    for (spec, engine) in cases {
        let _scenario = FailScenario::setup(spec);
        let mut m = SearchMetrics::default();
        let hits = engine.search_metered(&genome, &guides, 2, &mut m).unwrap();
        assert_eq!(hits, truth, "degraded run must still match the oracle ({spec})");
        assert!(m.counters.degraded_paths > 0, "degradation is counted ({spec})");
        assert!(m.counters.faults_injected > 0, "fault is metered ({spec})");
    }
}

#[test]
fn io_site_faults_surface_as_structured_errors() {
    {
        let _scenario = FailScenario::setup("fasta.read=error");
        let err = fasta::read_genome(b">c\nACGT\n".as_slice()).unwrap_err();
        assert!(err.to_string().contains("fasta.read"), "{err}");
    }
    {
        let _scenario = FailScenario::setup("guides.read=error");
        let err = guide_io::read_guides(b"g1 GATTACAGATTACAGATTAC NGG\n".as_slice()).unwrap_err();
        assert!(err.to_string().contains("guides.read"), "{err}");
    }
}

/// The all-sites sweep: every known failpoint armed in one scenario
/// (delays on the I/O parse sites, capped panics on the chunk site,
/// persistent faults on both build sites), driven through the top-level
/// API exactly as the CLI does. The run must heal to the clean hit set.
#[test]
fn every_site_armed_at_once_heals_to_clean_hits() {
    let (genome, guides) = workload(205, 2);
    let clean = baseline(|| {
        OffTargetSearch::new(genome.clone())
            .guides(guides.clone())
            .max_mismatches(2)
            .platform(Platform::CpuBitParallel)
            .threads(4)
            .run()
            .unwrap()
    });

    let _scenario = FailScenario::setup(
        "parallel.chunk=panic:1.0,17,2;prefilter.build=error;multiseed.build=panic;\
         fasta.read=delay1;guides.read=delay1",
    );
    // Round-trip the inputs through the parsers so the I/O sites fire.
    let mut fa = Vec::new();
    fasta::write_genome(&mut fa, &genome, 70).unwrap();
    let reread_genome = fasta::read_genome(fa.as_slice()).unwrap();
    let mut gtext = Vec::new();
    guide_io::write_guides(&mut gtext, &guides).unwrap();
    let reread_guides = guide_io::read_guides(gtext.as_slice()).unwrap();

    let report = OffTargetSearch::new(reread_genome)
        .guides(reread_guides)
        .max_mismatches(2)
        .platform(Platform::CpuBitParallel)
        .threads(4)
        .run()
        .unwrap();

    assert_eq!(report.hits(), clean.hits(), "faulted pipeline must heal to clean hits");
    let counters = &report.metrics().counters;
    assert_eq!(counters.chunks_retried, 2);
    assert_eq!(counters.chunks_failed, 0);
    assert!(counters.degraded_paths > 0, "prefilter fallback taken");
    // Both delays, both chunk panics, and the build fault all fired.
    assert!(failpoint::fired_total() >= 5, "fired {}", failpoint::fired_total());
}

/// The rotating CI leg: probabilistic chunk faults stream from a per-run
/// `FAULT_SEED` (CI passes the run id; any fixed default locally). The
/// fire cap (6) is kept below what the retry budget can absorb for even
/// a single chunk (8 re-queues), so healing is *guaranteed* whatever the
/// seed — a hit-set divergence here is a real bug, replayable from the
/// seed in the failure message.
#[test]
fn rotating_seed_probabilistic_faults_heal() {
    let seed: u64 =
        std::env::var("FAULT_SEED").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(0xFA017);
    let (genome, guides) = workload(207, 2);
    let engine = ParallelEngine::new(BitParallelEngine::new(), 4).with_retry_limit(8);
    let clean = baseline(|| engine.search(&genome, &guides, 2).unwrap());

    let _scenario = FailScenario::setup(&format!("parallel.chunk=panic:0.3,{seed},6"));
    let mut m = SearchMetrics::default();
    let hits = engine
        .search_metered(&genome, &guides, 2, &mut m)
        .unwrap_or_else(|e| panic!("FAULT_SEED={seed}: healing failed: {e}"));
    assert_eq!(hits, clean, "FAULT_SEED={seed}: healed hits diverge from clean run");
    assert_eq!(m.counters.chunks_failed, 0, "FAULT_SEED={seed}");
    assert_eq!(m.counters.chunks_retried, m.counters.faults_injected, "FAULT_SEED={seed}");
}

#[test]
fn retry_budget_zero_is_fail_fast_but_still_structured() {
    let (genome, guides) = workload(206, 1);
    let engine = ParallelEngine::new(BitParallelEngine::new(), 2).with_retry_limit(0);
    let _scenario = FailScenario::setup("parallel.chunk=error");
    let err = engine.search(&genome, &guides, 1).unwrap_err();
    let SearchError::Partial { failures, .. } = err else { panic!("expected Partial") };
    assert!(failures.iter().all(|f| f.attempts == 1), "no retries at budget zero");
}
