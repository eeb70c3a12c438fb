use crate::{CancelToken, EngineError, ScanSource, SearchError};
use crispr_genome::pamindex::AnchorScanner;
use crispr_genome::{Base, Genome, IupacCode, PackedView, Strand};
use crispr_guides::{normalize, Guide, Hit, SitePattern};
use crispr_model::SearchMetrics;
use crispr_trace as trace;
use std::time::Instant;

/// The compiled, reusable half of a search: guides × budget lowered to an
/// engine's internal tables, ready to scan any number of genome ranges
/// without recompiling.
///
/// [`PreparedSearch::scan`] appends *raw* hits: `contig` is left 0 and
/// `pos` is view-relative; the caller re-bases and normalizes
/// ([`scan_genome`] does both, the parallel deployment shifts by chunk
/// offset first). Implementations attribute their scan to
/// `kernel_scan_s` and their own counters; they never touch
/// `guide_compile_s`, which belongs to [`Engine::prepare`] alone. That
/// invariant is what makes compile cost independent of how many ranges
/// (chunks, genomes) are scanned.
pub trait PreparedSearch: Send + Sync {
    /// Uniform site length of the compiled guide set.
    fn site_len(&self) -> usize;

    /// Scans one forward-strand range of a packed contig — borrowed
    /// words and base bitmaps, resident or read in place from an index —
    /// appending raw hits. Anchored kernels intersect the view's
    /// bitmaps; symbol-reading kernels consume its 2-bit codes. Nothing
    /// is copied or unpacked, so nothing is charged to `genome_load_s`.
    ///
    /// # Errors
    ///
    /// Scan-phase failures only (e.g. a DFA transition-table fault);
    /// guide-set problems are rejected by [`Engine::prepare`].
    fn scan(
        &self,
        view: &PackedView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError>;

    /// Records compile-time gauges (automaton state counts, seed counts,
    /// anchor rates) into `m`. Called once per metered search, not per
    /// range.
    fn record_gauges(&self, _m: &mut SearchMetrics) {}
}

/// A complete off-target search: genome × guides × mismatch budget →
/// normalized hits.
///
/// Implementations must return *identical* hit sets for identical inputs:
/// each hit is a `(contig, pos, guide, strand)` site whose spacer matches
/// with `mismatches ≤ k` and whose PAM is valid, positions being
/// forward-strand leftmost-base coordinates, sorted and deduplicated (see
/// [`crispr_guides::normalize`]).
///
/// The trait is split into a compile phase ([`Engine::prepare`]) and a
/// scan phase ([`PreparedSearch::scan`]); `search`/`search_metered`
/// are drivers over that split and rarely need overriding.
pub trait Engine {
    /// A short stable name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Compiles `guides` at budget `k` into a reusable [`PreparedSearch`].
    ///
    /// This is the expensive half of a search — pattern tables, register
    /// banks, automata, anchor scanners are all built here, once. The
    /// returned value scans arbitrarily many slices or genomes.
    ///
    /// # Errors
    ///
    /// Implementation-specific; see each engine. All engines reject
    /// invalid guide sets via [`crispr_guides::GuideError`].
    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError>;

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::prepare`], plus scan-phase failures.
    fn search(&self, genome: &Genome, guides: &[Guide], k: usize) -> Result<Vec<Hit>, EngineError> {
        self.search_metered(genome, guides, k, &mut SearchMetrics::default())
    }

    /// Runs the search while filling `metrics` — the observability hook.
    ///
    /// The hit set is identical to [`Engine::search`]. A convenience for
    /// tests and benches holding a byte-per-base genome: it is packed
    /// once (charged to `genome_load_s`) and scanned like any
    /// [`ScanSource::Packed`], so it runs the kernels production runs.
    /// The default driver charges [`Engine::prepare`] to
    /// `guide_compile_s` exactly once and delegates per-range attribution
    /// to the prepared search.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::search`].
    fn search_metered(
        &self,
        genome: &Genome,
        guides: &[Guide],
        k: usize,
        metrics: &mut SearchMetrics,
    ) -> Result<Vec<Hit>, EngineError> {
        let pack_start = Instant::now();
        let packed = genome.pack();
        metrics.phases.genome_load_s += pack_start.elapsed().as_secs_f64();
        let source = ScanSource::Packed(&packed);
        self.search_cancellable(source, guides, k, &CancelToken::none(), metrics)
    }

    /// [`Engine::search_metered`] over any [`ScanSource`] — resident
    /// packed contigs or an opened index — with a cooperative
    /// [`CancelToken`]: the token is polled at every contig boundary, so
    /// a manual trip or an expired deadline stops the scan within one
    /// contig-scan and surfaces as [`SearchError::Cancelled`] /
    /// [`SearchError::DeadlineExceeded`] carrying the hits recovered from
    /// the contigs already scanned.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::search_metered`], plus the cancellation
    /// variants.
    fn search_cancellable(
        &self,
        source: ScanSource<'_>,
        guides: &[Guide],
        k: usize,
        cancel: &CancelToken,
        metrics: &mut SearchMetrics,
    ) -> Result<Vec<Hit>, EngineError> {
        // Fault fires are metered as a delta over the whole search so
        // prepare-time degradations count too. (The parallel deployment
        // overrides this method and meters its own delta.)
        let faults = crispr_failpoint::FireMark::now();
        metrics.engine = self.name().to_string();
        let compile_start = Instant::now();
        let prepared = {
            let _span = trace::span("phase:guide_compile");
            self.prepare(guides, k)?
        };
        metrics.phases.guide_compile_s += compile_start.elapsed().as_secs_f64();
        prepared.record_gauges(metrics);
        let result = scan_genome_cancellable(prepared.as_ref(), source, cancel, metrics);
        metrics.counters.faults_injected += faults.fired_since();
        result
    }
}

/// A borrowed engine is the engine: every method forwards, overrides
/// included, so a boxed or shared engine can be handed to a driver that
/// takes one by value, such as [`crate::ParallelEngine`].
impl<E: Engine + ?Sized> Engine for &E {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        (**self).prepare(guides, k)
    }

    fn search(&self, genome: &Genome, guides: &[Guide], k: usize) -> Result<Vec<Hit>, EngineError> {
        (**self).search(genome, guides, k)
    }

    fn search_metered(
        &self,
        genome: &Genome,
        guides: &[Guide],
        k: usize,
        metrics: &mut SearchMetrics,
    ) -> Result<Vec<Hit>, EngineError> {
        (**self).search_metered(genome, guides, k, metrics)
    }

    fn search_cancellable(
        &self,
        source: ScanSource<'_>,
        guides: &[Guide],
        k: usize,
        cancel: &CancelToken,
        metrics: &mut SearchMetrics,
    ) -> Result<Vec<Hit>, EngineError> {
        (**self).search_cancellable(source, guides, k, cancel, metrics)
    }
}

/// Drives a prepared search over every contig of `genome`, packed once
/// here (a test convenience, like [`Engine::search`]): scan each contig,
/// re-base contig indices, count raw hits, normalize (attributed to
/// `report_s`).
///
/// # Errors
///
/// Propagates [`PreparedSearch::scan`] failures.
pub fn scan_genome(
    prepared: &dyn PreparedSearch,
    genome: &Genome,
    m: &mut SearchMetrics,
) -> Result<Vec<Hit>, EngineError> {
    scan_genome_cancellable(prepared, ScanSource::Packed(&genome.pack()), &CancelToken::none(), m)
}

/// Finalizes a run stopped by a tripped token: the completed chunks keep
/// their exact counters (same merge discipline as a clean run — the PR 4
/// identity), the recovered hits are normalized, and the result is the
/// typed cancellation error.
fn finish_cancelled(
    kind: crate::CancelKind,
    mut hits: Vec<Hit>,
    chunks_scanned: u64,
    chunks_total: u64,
    m: &mut SearchMetrics,
) -> EngineError {
    m.counters.raw_hits += hits.len() as u64;
    m.finalize_derived_gauges();
    let report_start = Instant::now();
    normalize(&mut hits);
    m.phases.report_s += report_start.elapsed().as_secs_f64();
    SearchError::from_cancel(kind, hits, chunks_scanned, chunks_total)
}

/// [`scan_genome`] over any [`ScanSource`], with a cooperative
/// [`CancelToken`] polled once per contig (one relaxed load; see
/// `cancel.rs` for why checks sit at chunk boundaries). Each contig —
/// resident or in the index mapping — reaches [`PreparedSearch::scan`]
/// as a view of its words and bitmaps, in place. A contig shorter than
/// one site holds no window and is not scanned, as in the chunked
/// driver. On a trip, the hits recovered from fully-scanned contigs are
/// normalized and returned inside the typed cancellation error.
///
/// # Errors
///
/// Propagates scan failures, plus [`SearchError::Cancelled`] /
/// [`SearchError::DeadlineExceeded`].
pub fn scan_genome_cancellable(
    prepared: &dyn PreparedSearch,
    source: ScanSource<'_>,
    cancel: &CancelToken,
    m: &mut SearchMetrics,
) -> Result<Vec<Hit>, EngineError> {
    let site_len = prepared.site_len();
    let contigs: Vec<(usize, PackedView<'_>)> = (0..source.contig_count())
        .map(|ci| (ci, source.view(ci)))
        .filter(|(_, view)| view.len() >= site_len)
        .collect();
    let chunks_total = contigs.len() as u64;
    let mut hits = Vec::new();
    for (scanned, &(ci, view)) in contigs.iter().enumerate() {
        let len = view.len();
        if let Err(kind) = cancel.check() {
            return Err(finish_cancelled(kind, hits, scanned as u64, chunks_total, m));
        }
        let before = hits.len();
        let contig_start = Instant::now();
        {
            let _span = trace::span_args("contig", ci as u64, len as u64);
            prepared.scan(&view, &mut hits, m)?;
        }
        // The serial driver scans one contig where the parallel one
        // scans one chunk; both feed the same latency histogram so
        // chunked and unchunked runs stay comparable.
        m.observe("chunk_scan_s", contig_start.elapsed().as_secs_f64());
        trace::progress::add(len as u64);
        for hit in &mut hits[before..] {
            hit.contig = ci as u32;
        }
    }
    m.counters.raw_hits += hits.len() as u64;
    m.finalize_derived_gauges();
    let report_start = Instant::now();
    {
        let _span = trace::span("phase:report");
        normalize(&mut hits);
    }
    m.phases.report_s += report_start.elapsed().as_secs_f64();
    Ok(hits)
}

/// One site window of a view, read for per-position base tests: a single
/// extracted word when the site fits 32 bases (every real guide's does),
/// so all patterns tested at the window share one read; longer sites read
/// the view base by base.
#[derive(Clone, Copy)]
pub(crate) struct Site<'a, 'v> {
    view: &'a PackedView<'v>,
    start: usize,
    word: Option<u64>,
}

impl<'a, 'v> Site<'a, 'v> {
    /// The `len`-base window of `view` at `start`.
    #[inline]
    pub(crate) fn read(view: &'a PackedView<'v>, start: usize, len: usize) -> Site<'a, 'v> {
        Site { view, start, word: (len <= 32).then(|| view.window_word(start, len)) }
    }

    /// The base at site offset `offset`.
    #[inline]
    pub(crate) fn base(&self, offset: usize) -> Base {
        match self.word {
            Some(word) => Base::from_code((word >> (2 * offset)) as u8),
            None => self.view.base(self.start + offset),
        }
    }
}

/// Validates a guide set the way the compilers do, returning the uniform
/// site length.
pub(crate) fn validate_guides(guides: &[Guide], k: usize) -> Result<usize, EngineError> {
    if guides.is_empty() {
        return Err(crispr_guides::GuideError::NoGuides.into());
    }
    if k > 30 {
        return Err(crispr_guides::GuideError::BudgetTooLarge(k).into());
    }
    let site_len = guides[0].site_len();
    for g in guides {
        // A budget at or above the spacer length matches every window
        // that carries a valid PAM — reject it as a degenerate request.
        if k >= g.spacer().len() {
            return Err(crispr_guides::GuideError::BudgetExceedsSpacer {
                k,
                spacer_len: g.spacer().len(),
            }
            .into());
        }
        if g.site_len() != site_len {
            return Err(crispr_guides::GuideError::MixedSiteLengths {
                expected: site_len,
                found: g.site_len(),
            }
            .into());
        }
    }
    Ok(site_len)
}

/// Both-strand patterns for a guide set, tagged with guide indices.
pub(crate) fn patterns(guides: &[Guide]) -> Vec<SitePattern> {
    let mut out = Vec::with_capacity(guides.len() * 2);
    for (i, g) in guides.iter().enumerate() {
        for strand in Strand::BOTH {
            out.push(SitePattern::from_guide(g, strand).with_guide_index(i as u32));
        }
    }
    out
}

/// Combined candidate rate above which anchor prefiltering stops paying:
/// past one window in four, the verifier does brute-force-shaped work and
/// the full scan is cheaper.
pub(crate) const ANCHOR_MAX_RATE: f64 = 0.25;

/// One anchor group: the shared scanner plus the indices of the patterns
/// it fronts.
pub(crate) type AnchorGroup = (AnchorScanner, Vec<usize>);

/// Groups `patterns` by PAM-anchor signature — the selective (degeneracy
/// < 4) uncounted positions, which for every real PAM are exactly the
/// positions a window must match outright. All patterns sharing a
/// signature (e.g. every forward-strand `NGG` pattern) share one
/// [`AnchorScanner`]; the per-group member lists index back into
/// `patterns`.
///
/// Returns `None` when prefiltering is inapplicable: some pattern has no
/// selective anchor (`Pam::none()`), or the summed per-group hit rate
/// exceeds `max_rate` and a full scan is cheaper than anchor-and-verify.
pub(crate) fn anchor_groups(patterns: &[SitePattern], max_rate: f64) -> Option<Vec<AnchorGroup>> {
    type Signature = Vec<(usize, IupacCode)>;
    let mut signatures: Vec<(Signature, Vec<usize>)> = Vec::new();
    for (pi, pattern) in patterns.iter().enumerate() {
        let signature: Signature = pattern
            .positions()
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.counted && p.class.degeneracy() < 4)
            .map(|(i, p)| (i, p.class))
            .collect();
        if signature.is_empty() {
            return None;
        }
        match signatures.iter_mut().find(|(s, _)| *s == signature) {
            Some((_, members)) => members.push(pi),
            None => signatures.push((signature, vec![pi])),
        }
    }
    let groups: Vec<AnchorGroup> = signatures
        .into_iter()
        .map(|(signature, members)| {
            (AnchorScanner::new(signature).expect("signature is non-empty"), members)
        })
        .collect();
    let rate: f64 = groups.iter().map(|(scanner, _)| scanner.hit_rate()).sum();
    (rate <= max_rate).then_some(groups)
}

/// Sum of per-group anchor hit rates — the gauge value engines publish as
/// `anchor_rate` when the prefilter is active.
pub(crate) fn anchor_rate(groups: &[AnchorGroup]) -> f64 {
    groups.iter().map(|(scanner, _)| scanner.hit_rate()).sum()
}

/// The ground-truth engine: scores every window of every contig against
/// every pattern with [`SitePattern::score_window`]. O(genome × guides ×
/// site length) — used as the oracle in tests and as the "no algorithmic
/// idea at all" lower bound in ablations. Deliberately unfiltered: the
/// oracle must not share the prefilter whose correctness it vouches for.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarEngine {
    _private: (),
}

impl ScalarEngine {
    /// Creates the engine.
    pub fn new() -> ScalarEngine {
        ScalarEngine::default()
    }
}

/// Prepared form of [`ScalarEngine`]: the pattern list, nothing more.
#[derive(Debug)]
struct ScalarPrepared {
    patterns: Vec<SitePattern>,
    site_len: usize,
    k: usize,
}

impl PreparedSearch for ScalarPrepared {
    fn site_len(&self) -> usize {
        self.site_len
    }

    fn scan(
        &self,
        view: &PackedView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        if view.len() < self.site_len {
            return Ok(());
        }
        let _kernel = trace::span("kernel:scalar");
        let scan_start = Instant::now();
        // The current window, shifted one base at a time along the view.
        let mut window: Vec<Base> = view.bases().take(self.site_len - 1).collect();
        for (start, base) in view.bases().skip(self.site_len - 1).enumerate() {
            window.push(base);
            if window.len() > self.site_len {
                window.remove(0);
            }
            m.counters.windows_scanned += 1;
            for pattern in &self.patterns {
                m.counters.candidates_verified += 1;
                if let Some(mm) = pattern.score_window(&window) {
                    if mm <= self.k {
                        out.push(Hit {
                            contig: 0,
                            pos: start as u64,
                            guide: pattern.guide_index(),
                            strand: pattern.strand(),
                            mismatches: mm as u8,
                        });
                    }
                }
            }
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
        Ok(())
    }
}

impl Engine for ScalarEngine {
    fn name(&self) -> &'static str {
        "scalar-reference"
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        let site_len = validate_guides(guides, k)?;
        Ok(Box::new(ScalarPrepared { patterns: patterns(guides), site_len, k }))
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crispr_genome::synth::SynthSpec;
    use crispr_guides::genset::{self, PlantPlan};
    use crispr_guides::Pam;

    /// A small planted workload: (genome, guides, expected-subset hits).
    pub fn planted_workload(seed: u64, k: usize) -> (Genome, Vec<Guide>, Vec<Hit>) {
        let genome = SynthSpec::new(30_000).seed(seed).generate();
        let guides = genset::random_guides(3, 20, &Pam::ngg(), seed + 1);
        let (genome, hits) =
            genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(k, 2), seed + 2);
        (genome, guides, hits)
    }

    /// Asserts `engine` equals the scalar oracle on a planted workload and
    /// covers all planted hits with mismatches ≤ k.
    pub fn assert_engine_correct<E: Engine>(engine: &E, seed: u64, k: usize) {
        let (genome, guides, planted) = planted_workload(seed, k);
        let got = engine.search(&genome, &guides, k).unwrap();
        let truth = ScalarEngine::new().search(&genome, &guides, k).unwrap();
        let (only_got, only_truth) = crispr_guides::diff(&got, &truth);
        assert!(
            only_got.is_empty() && only_truth.is_empty(),
            "{}: spurious {:?}, missing {:?}",
            engine.name(),
            &only_got[..only_got.len().min(5)],
            &only_truth[..only_truth.len().min(5)]
        );
        for hit in planted.iter().filter(|h| (h.mismatches as usize) <= k) {
            assert!(got.binary_search(hit).is_ok(), "{}: planted hit {hit} missing", engine.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_genome::DnaSeq;
    use crispr_guides::Pam;

    fn tiny_genome(text: &str) -> Genome {
        Genome::from_seq(text.parse::<DnaSeq>().unwrap())
    }

    #[test]
    fn scalar_engine_finds_planted_exact_site() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let genome = tiny_genome("TTTTGATTACAGATTACAGATTACTGGAAAA");
        let hits = ScalarEngine::new().search(&genome, &[guide], 0).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].pos, 4);
        assert_eq!(hits[0].strand, Strand::Forward);
        assert_eq!(hits[0].mismatches, 0);
    }

    #[test]
    fn scalar_engine_finds_reverse_site() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let site: DnaSeq = "GATTACAGATTACAGATTACAGG".parse().unwrap();
        let mut text: DnaSeq = "CCCC".parse().unwrap();
        text.extend_from_seq(&site.revcomp());
        text.extend_from_seq(&"AAAA".parse().unwrap());
        let hits = ScalarEngine::new().search(&Genome::from_seq(text), &[guide], 0).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].pos, 4);
        assert_eq!(hits[0].strand, Strand::Reverse);
    }

    #[test]
    fn scalar_engine_respects_budget() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        // Two mismatches in the site.
        let genome = tiny_genome("TTTTGATCACAGATTACAGATTGCTGGAAAA");
        assert!(ScalarEngine::new()
            .search(&genome, std::slice::from_ref(&guide), 1)
            .unwrap()
            .is_empty());
        let hits = ScalarEngine::new().search(&genome, &[guide], 2).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].mismatches, 2);
    }

    #[test]
    fn short_contigs_are_skipped() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let genome = tiny_genome("ACGT");
        assert!(ScalarEngine::new().search(&genome, &[guide], 3).unwrap().is_empty());
    }

    #[test]
    fn validation_is_enforced() {
        let genome = tiny_genome("ACGTACGT");
        assert!(matches!(
            ScalarEngine::new().search(&genome, &[], 1),
            Err(EngineError::Guide(crispr_guides::GuideError::NoGuides))
        ));
    }

    #[test]
    fn prepared_search_is_reusable_across_genomes() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let prepared = ScalarEngine::new().prepare(std::slice::from_ref(&guide), 0).unwrap();
        assert_eq!(prepared.site_len(), 23);
        let a = tiny_genome("TTTTGATTACAGATTACAGATTACTGGAAAA");
        let b = tiny_genome("GATTACAGATTACAGATTACAGGCCCC");
        let mut m = SearchMetrics::default();
        let hits_a = scan_genome(prepared.as_ref(), &a, &mut m).unwrap();
        let hits_b = scan_genome(prepared.as_ref(), &b, &mut m).unwrap();
        assert_eq!(
            hits_a,
            ScalarEngine::new().search(&a, std::slice::from_ref(&guide), 0).unwrap()
        );
        assert_eq!(hits_b, ScalarEngine::new().search(&b, &[guide], 0).unwrap());
    }

    #[test]
    fn a_tripped_token_stops_the_packed_serial_scan_before_any_contig() {
        let (genome, guides, _) = test_support::planted_workload(84, 2);
        let mut split = Genome::new();
        for (i, piece) in genome.contigs()[0].seq().as_slice().chunks(7_000).enumerate() {
            split
                .add_contig(format!("c{i}"), crispr_genome::DnaSeq::from_bases(piece.to_vec()))
                .unwrap();
        }
        let packed = split.pack();
        let engine = crate::BitParallelEngine::new();
        let run = |cancel: &CancelToken, m: &mut SearchMetrics| {
            engine.search_cancellable(ScanSource::Packed(&packed), &guides, 2, cancel, m)
        };
        let mut clean_m = SearchMetrics::default();
        let clean = run(&CancelToken::none(), &mut clean_m).unwrap();
        assert_eq!(clean, engine.search(&split, &guides, 2).unwrap());

        let token = CancelToken::new();
        token.cancel();
        let mut cancelled_m = SearchMetrics::default();
        let err = run(&token, &mut cancelled_m).unwrap_err();
        let (hits, scanned, total, deadline) = err.into_cancelled().expect("typed cancellation");
        assert!(hits.is_empty() && !deadline);
        assert_eq!((scanned, total), (0, packed.contig_count() as u64));
        assert_eq!(cancelled_m.counters.windows_scanned, 0);

        let mut rerun_m = SearchMetrics::default();
        assert_eq!(run(&CancelToken::none(), &mut rerun_m).unwrap(), clean);
        assert_eq!(rerun_m.counters, clean_m.counters);
    }

    #[test]
    fn anchor_groups_cover_ngg_both_strands() {
        let guides = vec![
            Guide::new("a", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap(),
            Guide::new("b", "ACGTACGTACGTACGTACGT".parse().unwrap(), Pam::ngg()).unwrap(),
        ];
        let pats = patterns(&guides);
        let groups = anchor_groups(&pats, ANCHOR_MAX_RATE).expect("NGG is anchorable");
        // One forward group, one reverse group, each with both guides.
        assert_eq!(groups.len(), 2);
        let mut members: Vec<usize> = groups.iter().flat_map(|(_, m)| m.iter().copied()).collect();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3]);
        for (scanner, _) in &groups {
            assert!((scanner.hit_rate() - 1.0 / 16.0).abs() < 1e-12);
            assert_eq!(scanner.pairs().len(), 2);
        }
    }

    #[test]
    fn pamless_guides_are_not_anchorable() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::none()).unwrap();
        assert!(anchor_groups(&patterns(&[guide]), ANCHOR_MAX_RATE).is_none());
    }
}
