//! Batched multi-guide scanning: one pass over the genome serves the
//! whole guide set.
//!
//! The per-guide engines pay anchor-and-verify work per pattern at every
//! PAM-anchored window, so kernel time grows linearly with guide count —
//! the opposite of the paper's AP model, where thousands of guide
//! automata consume one streamed genome together. This module restores
//! that shape on the CPU with a three-stage cascade that runs the
//! cheapest, most selective test first:
//!
//! 1. **PAM-anchor intersection.** Patterns are grouped by PAM-anchor
//!    signature, and each group's
//!    [`CandidateMask`](crispr_genome::pamindex::CandidateMask) marks the
//!    window starts whose anchor positions all match — one bitwise pass
//!    over the base bitmaps per group, exactly as in [`crate::prefilter`].
//!    Only these anchored windows (about 1/16 of positions per `NGG`
//!    strand) go further, just as the paper's automata require the PAM
//!    before they report a site.
//! 2. **Fragment lookup.** Each pattern's counted (spacer) run is split
//!    into `k + 1` pigeonhole fragments (a window within `k` mismatches
//!    must match at least one fragment *exactly*, the guarantee of
//!    exact-seed filtration tools). Within a group the
//!    fragments are tabulated per *slot*, keyed by the fragment's
//!    `(offset, length)` inside the window: a slot maps a fragment code to
//!    the patterns whose fragment sits there. An anchored window is read
//!    once as a packed word (batched sites are at most 32 bases), and each
//!    slot then costs one shift-and-mask and one lookup, whatever the
//!    guide count — a dense CSR table for fragments of up to 8 bases, a
//!    small open-addressed table behind a presence filter for longer ones.
//! 3. **Packed verification.** Each distinct proposed pattern is verified
//!    once against the same window word: one shift, one XOR and one
//!    popcount. The anchor already proved the PAM, so `Some(mm ≤ k)` is
//!    exactly a hit.
//!
//! Several fragments of one pattern can fire at one window; a per-pattern
//! stamp of the last window that proposed it keeps that to one verify.
//! Results are byte-identical to every other engine;
//! `multiseed_candidates` / `multiseed_positions` meter the lookup stage
//! and the `guides_per_candidate` derived gauge reports its fan-in.

use crate::engine::AnchorGroup;
use crate::prefilter::PackedPattern;
use crate::EngineError;
use crispr_genome::kmer::pack_qgram;
use crispr_genome::{Base, PackedView};
use crispr_guides::{Guide, Hit, SitePattern};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// Longest fragment looked up in a dense table: `4^8` codes, 256 KiB of
/// CSR offsets per slot. Longer fragments (k = 0 and 1 on 20-nt spacers)
/// go to a [`SparseTable`].
const DENSE_LEN_MAX: usize = 8;

/// Size of a [`SparseTable`]'s presence filter, as a power of two in bits.
const FILTER_BITS: u32 = 16;

/// Multiplicative hash of a fragment code; the presence-filter bit and the
/// first probed bucket both come from its top bits.
#[inline]
fn mix(code: u64) -> u64 {
    code.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Code → pattern range for fragments too long for a dense table: an
/// open-addressed table behind a `2^16`-bit presence filter, so the
/// common miss costs one multiply and one predictable bit test.
#[derive(Debug)]
struct SparseTable {
    filter: Vec<u64>,
    /// `(code, lo, hi)` buckets, probed linearly; `lo == hi` marks an
    /// empty bucket.
    buckets: Vec<(u64, u32, u32)>,
    /// `64 − log2(buckets.len())`: shifts a hash down to a bucket index.
    shift: u32,
}

impl SparseTable {
    /// Tabulates distinct codes with their (non-empty) pattern ranges.
    fn new(runs: &[(u64, u32, u32)]) -> SparseTable {
        let size = (2 * runs.len()).next_power_of_two().max(2);
        let mut table = SparseTable {
            filter: vec![0; 1 << (FILTER_BITS - 6)],
            buckets: vec![(0, 0, 0); size],
            shift: 64 - size.trailing_zeros(),
        };
        for &(code, lo, hi) in runs {
            let hash = mix(code);
            let bit = (hash >> (64 - FILTER_BITS)) as usize;
            table.filter[bit / 64] |= 1 << (bit % 64);
            let mut i = (hash >> table.shift) as usize;
            while table.buckets[i].1 != table.buckets[i].2 {
                i = (i + 1) & (size - 1);
            }
            table.buckets[i] = (code, lo, hi);
        }
        table
    }

    /// The pattern range of `code`; empty when it is not tabulated.
    #[inline]
    fn range(&self, code: u64) -> (u32, u32) {
        let hash = mix(code);
        let bit = (hash >> (64 - FILTER_BITS)) as usize;
        if self.filter[bit / 64] >> (bit % 64) & 1 == 0 {
            return (0, 0);
        }
        let wrap = self.buckets.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        loop {
            let (key, lo, hi) = self.buckets[i];
            if lo == hi || key == code {
                return (lo, hi);
            }
            i = (i + 1) & wrap;
        }
    }
}

/// Code → pattern-range resolution of one [`Slot`].
#[derive(Debug)]
enum Lookup {
    /// CSR offsets over all `4^len` codes.
    Dense(Vec<u32>),
    /// Filtered open addressing over the codes present.
    Sparse(SparseTable),
}

/// One pigeonhole fragment of one pattern. The field order is the sort
/// order that lays a group's fragments out slot by slot, code by code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Fragment {
    /// Start within the site window.
    offset: usize,
    /// Length in bases.
    len: usize,
    /// The bases in [`pack_qgram`] layout.
    code: u64,
    pattern: u32,
}

/// The fragments that sit at one `(offset, length)` of an anchor group's
/// windows, keyed by fragment code.
#[derive(Debug)]
struct Slot {
    /// Fragment start within the site window.
    offset: usize,
    /// Fragment length in bases.
    len: usize,
    lookup: Lookup,
    /// Pattern indices, grouped by fragment code in lookup order.
    patterns: Vec<u32>,
}

impl Slot {
    /// Tabulates one slot's fragments: sorted, all at one offset and
    /// length.
    fn new(frags: &[Fragment]) -> Slot {
        let (offset, len) = (frags[0].offset, frags[0].len);
        let patterns = frags.iter().map(|f| f.pattern).collect();
        let lookup = if len <= DENSE_LEN_MAX {
            let mut offsets = vec![0u32; (1 << (2 * len)) + 1];
            for f in frags {
                offsets[f.code as usize + 1] += 1;
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
            Lookup::Dense(offsets)
        } else {
            let mut runs = Vec::new();
            let mut lo = 0u32;
            for run in frags.chunk_by(|a, b| a.code == b.code) {
                let hi = lo + run.len() as u32;
                runs.push((run[0].code, lo, hi));
                lo = hi;
            }
            Lookup::Sparse(SparseTable::new(&runs))
        };
        Slot { offset, len, lookup, patterns }
    }

    /// The patterns whose fragment in this slot matches `site`, a site
    /// window read as one word, exactly.
    #[inline]
    fn proposals(&self, site: u64) -> &[u32] {
        let code = (site >> (2 * self.offset)) & (u64::MAX >> (64 - 2 * self.len));
        let (lo, hi) = match &self.lookup {
            Lookup::Dense(offsets) => (offsets[code as usize], offsets[code as usize + 1]),
            Lookup::Sparse(table) => table.range(code),
        };
        &self.patterns[lo as usize..hi as usize]
    }
}

/// The compiled batched deployment for one pattern set: the anchor
/// groups, each group's fragment slots, and one packed verifier per
/// pattern. Built once, scans any number of views.
#[derive(Debug)]
pub struct MultiSeedScan {
    /// `(scanner, member pattern indices)` per PAM-anchor signature.
    groups: Vec<AnchorGroup>,
    /// Fragment slots per group, indexed like `groups`.
    slots: Vec<Vec<Slot>>,
    /// Packed verifiers indexed like the pattern list.
    verifiers: Vec<PackedPattern>,
    site_len: usize,
    k: usize,
    /// Total fragment occurrences compiled in.
    seeds_total: usize,
    /// Distinct `(length, code)` fragments: the accepting states of the
    /// equivalent multi-pattern automaton.
    states: usize,
    /// Summed per-group anchor hit rate (the `anchor_rate` gauge value).
    rate: f64,
}

/// Register-local counter accumulators for one cascade pass, flushed into
/// [`SearchMetrics`] once at the end — a read-modify-write through the
/// metrics struct per proposal costs measurably at high guide counts.
#[derive(Default)]
struct ScanTallies {
    candidates: u64,
    positions: u64,
    pam_tested: u64,
    verified: u64,
    early: u64,
}

impl MultiSeedScan {
    /// Compiles the batched deployment for `patterns` at budget `k`, or
    /// `None` when batching does not apply and the caller should fall
    /// back to its per-guide path: a pattern is unanchorable
    /// (`Pam::none()`) or does not lower to the packed compare, an anchor
    /// falls outside the window, the site exceeds 32 bases (the kernel
    /// reads each anchored window as one packed word), or the pigeonhole
    /// split is infeasible (fewer counted bases than `k + 1` segments).
    pub fn build(patterns: &[SitePattern], site_len: usize, k: usize) -> Option<MultiSeedScan> {
        if patterns.is_empty() || site_len > 32 {
            return None;
        }
        let verifiers: Vec<PackedPattern> =
            patterns.iter().map(PackedPattern::new).collect::<Option<_>>()?;
        // Unlike the per-guide prefilter there is no maximum-rate cutoff:
        // every pattern is verified only where the anchor holds, so the
        // anchor pays at any PAM density.
        let groups = crate::engine::anchor_groups(patterns, f64::INFINITY)?;
        if groups.iter().any(|(scanner, _)| scanner.span() > site_len) {
            return None;
        }

        // Pigeonhole split: k+1 near-equal fragments of each pattern's
        // counted run, tabulated per group by their place in the window.
        // The run is contiguous (`PackedPattern::new` checked it), so a
        // fragment's bases are `offset..offset + len` of the window.
        let segments = k + 1;
        let mut slots = Vec::with_capacity(groups.len());
        let mut codes: Vec<(usize, u64)> = Vec::new();
        for (_, members) in &groups {
            let mut frags = Vec::with_capacity(members.len() * segments);
            for &pi in members {
                let counted: Vec<(usize, Base)> = patterns[pi]
                    .positions()
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.counted)
                    .map(|(i, p)| (i, p.class.bases().next().expect("spacer bases are concrete")))
                    .collect();
                let n = counted.len();
                if n < segments {
                    return None;
                }
                for s in 0..segments {
                    let run = &counted[s * n / segments..(s + 1) * n / segments];
                    let bases: Vec<Base> = run.iter().map(|&(_, b)| b).collect();
                    let code = pack_qgram(&bases);
                    codes.push((run.len(), code));
                    frags.push(Fragment {
                        offset: run[0].0,
                        len: run.len(),
                        code,
                        pattern: pi as u32,
                    });
                }
            }
            frags.sort_unstable();
            slots.push(
                frags
                    .chunk_by(|a, b| (a.offset, a.len) == (b.offset, b.len))
                    .map(Slot::new)
                    .collect(),
            );
        }
        let seeds_total = codes.len();
        codes.sort_unstable();
        codes.dedup();

        let rate = crate::engine::anchor_rate(&groups);
        Some(MultiSeedScan {
            groups,
            slots,
            verifiers,
            site_len,
            k,
            seeds_total,
            states: codes.len(),
            rate,
        })
    }

    /// Compiles the deployment from a guide set the way the engines do
    /// (both-strand patterns, validated uniform site length).
    ///
    /// # Errors
    ///
    /// Guide-set validation failures ([`crispr_guides::GuideError`]);
    /// `Ok(None)` means the set is valid but not batchable (see
    /// [`MultiSeedScan::build`]).
    pub fn from_guides(guides: &[Guide], k: usize) -> Result<Option<MultiSeedScan>, EngineError> {
        let site_len = crate::engine::validate_guides(guides, k)?;
        let patterns = crate::engine::patterns(guides);
        Ok(MultiSeedScan::build(&patterns, site_len, k))
    }

    /// Uniform site length of the compiled pattern set.
    pub fn site_len(&self) -> usize {
        self.site_len
    }

    /// Mismatch budget the pigeonhole split was compiled for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total fragment occurrences compiled in.
    pub fn seeds(&self) -> usize {
        self.seeds_total
    }

    /// Distinct fragments across all slots — the accepting states of the
    /// equivalent multi-pattern automaton.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Summed per-group PAM-anchor hit rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Enumerates the fragment stage alone: every distinct
    /// `(pattern index, window start)` pair whose window matches at least
    /// one of the pattern's fragments exactly, sorted. It reads the slot
    /// tables the kernel reads, but at *every* window start of `view`,
    /// before the anchor intersection and verification — the surface the
    /// pigeonhole property tests probe.
    pub fn seed_candidates(&self, view: &PackedView<'_>) -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        if view.len() < self.site_len {
            return out;
        }
        for start in 0..=view.len() - self.site_len {
            let site = view.window_word(start, self.site_len);
            for slot in self.slots.iter().flatten() {
                out.extend(slot.proposals(site).iter().map(|&p| (p, start)));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Scans one view through the full cascade — the anchor intersection
    /// reads its stored base bitmaps, the fragment lookup and verify its
    /// packed words — appending view-relative hits. Counter semantics
    /// relative to the per-guide anchored scan on the same view:
    /// `windows_scanned` and `candidates_verified` are identical (the
    /// latter counts exactly the hits), and `pam_anchors_tested` /
    /// `early_exits` count the subset of its events whose window matched
    /// one of the pattern's fragments. `multiseed_candidates` counts
    /// fragment matches at anchored windows and `multiseed_positions` the
    /// anchored windows (one per anchor group) with at least one.
    pub(crate) fn scan(&self, view: &PackedView<'_>, out: &mut Vec<Hit>, m: &mut SearchMetrics) {
        if view.len() < self.site_len {
            return;
        }
        let scan_start = Instant::now();
        m.counters.windows_scanned += (view.len() + 1 - self.site_len) as u64;
        // The last window start that proposed each pattern. A pattern
        // belongs to one group and each group visits a start once, so a
        // matching stamp means another of its fragments already proposed
        // this window.
        let mut last = vec![usize::MAX; self.verifiers.len()];
        let mut tallies = ScanTallies::default();
        for ((scanner, _), slots) in self.groups.iter().zip(&self.slots) {
            let anchored = scanner.candidates(view, self.site_len);
            for start in &anchored {
                let site = view.window_word(start, self.site_len);
                let mut fired = false;
                for slot in slots {
                    let proposed = slot.proposals(site);
                    tallies.candidates += proposed.len() as u64;
                    fired |= !proposed.is_empty();
                    for &pattern in proposed {
                        let pattern = pattern as usize;
                        if last[pattern] == start {
                            continue;
                        }
                        last[pattern] = start;
                        tallies.pam_tested += 1;
                        let verifier = &self.verifiers[pattern];
                        match verifier.verify_site(site, self.k) {
                            Some(mm) => {
                                tallies.verified += 1;
                                out.push(Hit {
                                    contig: 0,
                                    pos: start as u64,
                                    guide: verifier.guide_index(),
                                    strand: verifier.strand(),
                                    mismatches: mm as u8,
                                });
                            }
                            None => tallies.early += 1,
                        }
                    }
                }
                tallies.positions += u64::from(fired);
            }
        }
        m.counters.multiseed_candidates += tallies.candidates;
        m.counters.multiseed_positions += tallies.positions;
        m.counters.pam_anchors_tested += tallies.pam_tested;
        m.counters.candidates_verified += tallies.verified;
        m.counters.early_exits += tallies.early;
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
    }
}

/// [`crate::PreparedSearch`] wrapper over a [`MultiSeedScan`] — what
/// [`crate::BitParallelEngine::batched`] returns from `prepare` when the
/// set is batchable.
#[derive(Debug)]
pub(crate) struct MultiSeedPrepared {
    scan: MultiSeedScan,
}

impl MultiSeedPrepared {
    pub(crate) fn new(scan: MultiSeedScan) -> MultiSeedPrepared {
        MultiSeedPrepared { scan }
    }
}

impl crate::engine::PreparedSearch for MultiSeedPrepared {
    fn site_len(&self) -> usize {
        self.scan.site_len
    }

    fn scan(
        &self,
        view: &PackedView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:multiseed");
        self.scan.scan(view, out, m);
        Ok(())
    }

    fn record_gauges(&self, m: &mut SearchMetrics) {
        m.set_gauge("anchor_rate", self.scan.rate);
        m.set_gauge("seed_automaton_states", self.scan.states as f64);
        m.set_gauge("multiseed_seeds", self.scan.seeds_total as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{patterns, ScalarEngine};
    use crate::Engine;
    use crispr_guides::Pam;

    fn guides(pam: Pam) -> Vec<Guide> {
        vec![
            Guide::new("a", "GATTACAGATTACAGATTAC".parse().unwrap(), pam.clone()).unwrap(),
            Guide::new("b", "ACGTACGTACGTACGTACGT".parse().unwrap(), pam).unwrap(),
        ]
    }

    #[test]
    fn builds_for_real_pams_and_counts_seeds() {
        for k in [0usize, 1, 2, 3] {
            let scan = MultiSeedScan::from_guides(&guides(Pam::ngg()), k)
                .unwrap()
                .unwrap_or_else(|| panic!("k={k} should batch"));
            // 2 guides × 2 strands × (k+1) fragments.
            assert_eq!(scan.seeds(), 4 * (k + 1), "k={k}");
            assert!(scan.states() >= 1 && scan.states() <= scan.seeds());
            assert!((scan.rate() - 0.125).abs() < 1e-12);
            assert_eq!(scan.site_len(), 23);
            assert_eq!(scan.k(), k);
        }
    }

    #[test]
    fn pamless_and_infeasible_sets_fall_back() {
        assert!(MultiSeedScan::from_guides(&guides(Pam::none()), 1).unwrap().is_none());
        // A budget at or above the spacer length is rejected outright by
        // validation before batching is even considered.
        let short = vec![Guide::new("s", "ACGT".parse().unwrap(), Pam::ngg()).unwrap()];
        assert!(matches!(
            MultiSeedScan::from_guides(&short, 5),
            Err(crate::EngineError::Guide(crispr_guides::GuideError::BudgetExceedsSpacer {
                k: 5,
                spacer_len: 4
            }))
        ));
        // A 40-base spacer makes a 43-base site, longer than one word.
        let long = vec![Guide::new("l", "ACGT".repeat(10).parse().unwrap(), Pam::ngg()).unwrap()];
        assert!(MultiSeedScan::from_guides(&long, 0).unwrap().is_none());
    }

    #[test]
    fn seed_candidates_cover_an_exact_site() {
        let guide_set = guides(Pam::ngg());
        let scan = MultiSeedScan::from_guides(&guide_set, 2).unwrap().unwrap();
        let text: crispr_genome::DnaSeq = "TTTTGATTACAGATTACAGATTACTGGAAAA".parse().unwrap();
        let genome = crispr_genome::Genome::from_seq(text.clone()).pack();
        let cands = scan.seed_candidates(&genome.contigs()[0].view());
        // Pattern 0 is guide a's forward pattern; its site starts at 4.
        assert!(cands.contains(&(0, 4)), "{cands:?}");
        // No out-of-bounds starts.
        assert!(cands.iter().all(|&(_, s)| s + scan.site_len() <= text.len()));
    }

    #[test]
    fn scan_matches_scalar_oracle_on_planted_workload() {
        let (genome, guide_set, _) = crate::engine::test_support::planted_workload(301, 3);
        let truth = ScalarEngine::new().search(&genome, &guide_set, 3).unwrap();
        let scan = MultiSeedScan::from_guides(&guide_set, 3).unwrap().unwrap();
        let prepared = MultiSeedPrepared::new(scan);
        let mut m = SearchMetrics::default();
        let hits = crate::engine::scan_genome(&prepared, &genome, &mut m).unwrap();
        assert_eq!(hits, truth);
        assert!(m.counters.multiseed_candidates >= m.counters.multiseed_positions);
        assert!(m.counters.multiseed_positions > 0);
        assert!(m.gauge("guides_per_candidate").unwrap() >= 1.0);
    }

    #[test]
    fn views_at_any_offset_match_the_scalar_oracle() {
        // k = 0 and 1 fragments (20 and 10 bases) take the sparse lookup,
        // k ≥ 2 fragments the dense one.
        for k in 0..=4usize {
            let (genome, guide_set, _) = crate::engine::test_support::planted_workload(311, k);
            let packed = genome.pack();
            let contig = packed.contigs()[0].view();
            let site_len = guide_set[0].site_len();
            // Whole contig, an unaligned sub-range, exactly one site, one
            // base short of a site, and far shorter than a site.
            let views = [
                contig,
                contig.slice(7, 4_993),
                contig.slice(100, site_len),
                contig.slice(0, site_len - 1),
                contig.slice(0, 5),
            ];
            let scan = MultiSeedScan::build(&patterns(&guide_set), site_len, k)
                .expect("planted guides batch");
            let oracle = ScalarEngine::new().prepare(&guide_set, k).unwrap();
            for view in views {
                let (mut hits, mut m) = (Vec::new(), SearchMetrics::default());
                scan.scan(&view, &mut hits, &mut m);
                let mut truth = Vec::new();
                oracle.scan(&view, &mut truth, &mut SearchMetrics::default()).unwrap();
                crispr_guides::normalize(&mut hits);
                crispr_guides::normalize(&mut truth);
                let at = format!("k={k} len={}", view.len());
                assert_eq!(hits, truth, "{at}");
                assert_eq!(m.counters.candidates_verified, truth.len() as u64, "{at}");
                if view.len() == contig.len() {
                    assert!(!hits.is_empty(), "{at}: workload plants hits");
                }
            }
        }
    }

    #[test]
    fn window_stamp_dedup_is_exact() {
        // A window matching a pattern everywhere fires all its fragments,
        // yet each (pattern, start) must be verified and emitted once.
        let g = vec![Guide::new("g", "AAAAAAAAAAAAAAAAAAAA".parse().unwrap(), Pam::ngg()).unwrap()];
        let scan = MultiSeedScan::from_guides(&g, 3).unwrap().unwrap();
        let text: crispr_genome::DnaSeq =
            format!("{}AGG{}", "A".repeat(20), "A".repeat(10)).parse().unwrap();
        let genome = crispr_genome::Genome::from_seq(text).pack();
        let mut m = SearchMetrics::default();
        let mut hits = Vec::new();
        scan.scan(&genome.contigs()[0].view(), &mut hits, &mut m);
        // The one anchored window fires all four fragments …
        assert_eq!(m.counters.multiseed_candidates, 4);
        assert_eq!(m.counters.multiseed_positions, 1);
        // … but reaches the verifier once.
        assert_eq!(m.counters.pam_anchors_tested, 1);
        assert_eq!(m.counters.candidates_verified, 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn sparse_table_finds_every_code_and_only_those() {
        let codes: Vec<u64> =
            (0..700u64).map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 24).collect();
        let runs: Vec<(u64, u32, u32)> =
            codes.iter().enumerate().map(|(i, &c)| (c, i as u32, i as u32 + 1)).collect();
        let table = SparseTable::new(&runs);
        for &(code, lo, hi) in &runs {
            assert_eq!(table.range(code), (lo, hi), "code {code:#x}");
        }
        for probe in (0..5_000u64).map(|i| i * 7_919 + 3) {
            if !codes.contains(&probe) {
                assert_eq!(table.range(probe), (0, 0), "absent code {probe:#x}");
            }
        }
        // Code 0 is a valid fragment (all A) and must not alias an empty
        // bucket.
        let zero = SparseTable::new(&[(0, 0, 2)]);
        assert_eq!(zero.range(0), (0, 2));
        assert_eq!(zero.range(1), (0, 0));
    }

    #[test]
    fn mixed_layouts_share_anchor_groups_with_their_own_slots() {
        // A 20-nt spacer with NGG and a 21-nt spacer with GG carry the
        // same anchors (G at 21–22 forward, C at 0–1 reverse) but place
        // their fragments at different offsets.
        let guide_set = vec![
            Guide::new("ngg", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap(),
            Guide::new(
                "gg",
                "ACGTTGCAACGTTGCAACGTA".parse().unwrap(),
                Pam::new("GG", crispr_guides::PamSide::Three).unwrap(),
            )
            .unwrap(),
        ];
        for k in 0..=4usize {
            let scan = MultiSeedScan::from_guides(&guide_set, k).unwrap().expect("batches");
            assert_eq!(scan.groups.len(), 2, "k={k}: one group per strand");
            for (slots, (_, members)) in scan.slots.iter().zip(&scan.groups) {
                assert_eq!(members.len(), 2, "k={k}: both guides share the anchor");
                let keys: std::collections::BTreeSet<(usize, usize)> =
                    slots.iter().map(|s| (s.offset, s.len)).collect();
                assert_eq!(keys.len(), slots.len(), "k={k}: one slot per (offset, len)");
                assert!(slots.len() > k + 1, "k={k}: the layouts need their own slots");
            }
        }
    }

    #[test]
    fn fragment_offsets_map_to_site_starts() {
        // Reverse-strand NGG patterns carry their counted run at offsets
        // 3..23; fragment offsets must account for that.
        let g = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let pats = patterns(std::slice::from_ref(&g));
        let scan = MultiSeedScan::build(&pats, 23, 1).unwrap();
        let site: crispr_genome::DnaSeq = "GATTACAGATTACAGATTACAGG".parse().unwrap();
        let mut text: crispr_genome::DnaSeq = "CCCC".parse().unwrap();
        text.extend_from_seq(&site.revcomp());
        text.extend_from_seq(&"AAAA".parse().unwrap());
        let genome = crispr_genome::Genome::from_seq(text).pack();
        let cands = scan.seed_candidates(&genome.contigs()[0].view());
        // Pattern 1 is the reverse-strand pattern; its site starts at 4.
        assert!(cands.contains(&(1, 4)), "{cands:?}");
    }

    #[test]
    fn sparse_lookup_handles_long_fragments() {
        // 24-base spacer at k=0 → one 24-base fragment, beyond the dense
        // table limit.
        let g =
            vec![Guide::new("g", "GATTACAGATTACAGATTACGATT".parse().unwrap(), Pam::ngg()).unwrap()];
        let scan = MultiSeedScan::from_guides(&g, 0).unwrap().unwrap();
        assert!(scan.slots.iter().flatten().all(|s| matches!(s.lookup, Lookup::Sparse(_))));
        let genome = crispr_genome::Genome::from_seq(
            format!("TTTT{}TGGAAAA", "GATTACAGATTACAGATTACGATT").parse().unwrap(),
        );
        let truth = ScalarEngine::new().search(&genome, &g, 0).unwrap();
        let prepared = MultiSeedPrepared::new(scan);
        let hits =
            crate::engine::scan_genome(&prepared, &genome, &mut SearchMetrics::default()).unwrap();
        assert_eq!(hits, truth);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn sites_longer_than_a_word_fall_back() {
        for spacer_len in [30usize, 70] {
            let g = Guide::new("g", "A".repeat(spacer_len).parse().unwrap(), Pam::ngg()).unwrap();
            let pats = patterns(std::slice::from_ref(&g));
            assert!(MultiSeedScan::build(&pats, pats[0].len(), 1).is_none(), "{spacer_len}");
        }
    }
}
