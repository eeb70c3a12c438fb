//! The shared PAM-anchor prefilter deployment: anchor with
//! [`crispr_genome::pamindex`], verify candidates on the 2-bit packing.
//!
//! Every CPU engine whose patterns carry a selective PAM can trade its
//! full per-window scan for anchor-and-verify: one linear bitwise pass
//! marks the windows whose PAM positions match
//! ([`crispr_genome::pamindex::AnchorScanner`]), and
//! only those — ~1/16 of positions for `NGG`, both strands together ~1/8
//! — reach a packed XOR/popcount spacer comparison. The filter is
//! *PAM-exact*: a window passes the anchor iff its PAM matches, because
//! the anchor signature contains every uncounted position with degeneracy
//! < 4 and the remaining uncounted positions (`N`) match any base. The
//! prefiltered scan therefore produces byte-identical hits to the full
//! scan it replaces, and `pam_anchors_tested` counts the same events
//! either way — which is what lets the existing counters meter filter
//! efficiency directly.

use crate::engine::AnchorGroup;
use crate::simd::{self, SimdBackend};
use crispr_genome::pamindex::CandidateMask;
use crispr_genome::{PackedSeq, PackedView, Strand};
use crispr_guides::{Hit, SitePattern};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// One pattern lowered to the packed-verify form: the concrete spacer run
/// as a [`PackedSeq`] plus its offset within the site. PAM positions are
/// *absent* — the anchor already proved them.
#[derive(Debug)]
pub(crate) struct PackedPattern {
    spacer: PackedSeq,
    spacer_offset: usize,
    /// The whole spacer as one right-aligned 2-bit word when it fits 32
    /// bases (every real guide does) — the one-XOR verify fast path.
    word: Option<u64>,
    guide_index: u32,
    strand: Strand,
}

impl PackedPattern {
    /// Lowers `pattern`, or `None` when the packed compare does not apply:
    /// the counted run is non-contiguous or contains a degenerate class.
    /// Real guide patterns (concrete spacer, IUPAC PAM) always lower.
    pub(crate) fn new(pattern: &SitePattern) -> Option<PackedPattern> {
        let mut bases = Vec::new();
        let mut spacer_offset = None;
        for (i, pos) in pattern.positions().iter().enumerate() {
            if !pos.counted {
                continue;
            }
            let offset = *spacer_offset.get_or_insert(i);
            if i != offset + bases.len() || pos.class.degeneracy() != 1 {
                return None;
            }
            bases.push(pos.class.bases().next().expect("degeneracy 1 has a base"));
        }
        let spacer = PackedSeq::from_bases(&bases);
        let word = (bases.len() <= 32).then(|| spacer.window_word(0, bases.len()));
        Some(PackedPattern {
            spacer,
            spacer_offset: spacer_offset?,
            word,
            guide_index: pattern.guide_index(),
            strand: pattern.strand(),
        })
    }

    /// Index of the originating guide within its set.
    pub(crate) fn guide_index(&self) -> u32 {
        self.guide_index
    }

    /// Strand this pattern represents.
    pub(crate) fn strand(&self) -> Strand {
        self.strand
    }

    /// Verifies one site window read as a single word (base `i` of the
    /// window at bits `2i`; PAM positions assumed already proven by an
    /// anchor pass): `Some(mm)` with the exact spacer mismatch count when
    /// `mm ≤ k`, `None` past the budget. One shift, one XOR and one
    /// popcount, so the batched kernel reads each anchored window once
    /// however many patterns it proposes.
    ///
    /// # Panics
    ///
    /// Panics if the spacer does not fit one word; the batched kernel
    /// only takes sites of at most 32 bases.
    #[inline]
    pub(crate) fn verify_site(&self, site: u64, k: usize) -> Option<usize> {
        let word = self.word.expect("batched sites fit one word");
        let spacer =
            (site >> (2 * self.spacer_offset)) & (u64::MAX >> (64 - 2 * self.spacer.len()));
        let diff = spacer ^ word;
        let mm = ((diff | (diff >> 1)) & 0x5555_5555_5555_5555).count_ones() as usize;
        (mm <= k).then_some(mm)
    }
}

/// Signature-grouped anchor scanners for `patterns` plus their summed hit
/// rate, or `None` when anchoring does not apply (unanchorable pattern,
/// rate above [`crate::engine::ANCHOR_MAX_RATE`], or an anchor outside
/// the window). The common planning step for every prefiltered engine;
/// engines with bespoke verifiers (CasOT's seed split) consume the plan
/// directly instead of through [`AnchoredScan`].
pub(crate) fn anchor_plan(
    patterns: &[SitePattern],
    site_len: usize,
) -> Option<(Vec<AnchorGroup>, f64)> {
    let groups = crate::engine::anchor_groups(patterns, crate::engine::ANCHOR_MAX_RATE)?;
    if groups.iter().any(|(scanner, _)| scanner.span() > site_len) {
        return None;
    }
    let rate = crate::engine::anchor_rate(&groups);
    Some((groups, rate))
}

/// A compiled anchor-and-verify deployment for one pattern set: anchor
/// scanners grouped by PAM signature, plus one packed verifier per
/// pattern. Built once at [`crate::Engine::prepare`] time, scanned against
/// any number of views.
#[derive(Debug)]
pub(crate) struct AnchoredScan {
    /// `(scanner, member pattern indices)` per distinct anchor signature.
    groups: Vec<AnchorGroup>,
    /// Verifiers indexed like the pattern list the groups refer into.
    verifiers: Vec<PackedPattern>,
    site_len: usize,
    /// Summed per-group anchor hit rate — the `anchor_rate` gauge value.
    rate: f64,
    /// The kernel backend resolved at build time.
    backend: SimdBackend,
    /// Per group: the shared `(window start offset, window length)` of the
    /// members' one-word verifiers when the blocked SIMD verify applies
    /// (all members lower to one word over the same spacer window — true
    /// for real guide sets, where a group shares one PAM signature).
    block_keys: Vec<Option<(usize, usize)>>,
}

impl AnchoredScan {
    /// Compiles the deployment, or `None` when prefiltering does not
    /// apply: some pattern is unanchorable (`Pam::none()`), the combined
    /// candidate rate exceeds [`crate::engine::ANCHOR_MAX_RATE`] (full
    /// scan is cheaper), an anchor falls outside the window, or a pattern
    /// does not lower to the packed compare.
    pub fn build(
        patterns: &[SitePattern],
        site_len: usize,
        backend: SimdBackend,
    ) -> Option<AnchoredScan> {
        let (groups, rate) = anchor_plan(patterns, site_len)?;
        let verifiers = patterns.iter().map(PackedPattern::new).collect::<Option<Vec<_>>>()?;
        let block_keys = groups
            .iter()
            .map(|(_, members)| {
                let first = &verifiers[members[0]];
                let key = (first.spacer_offset, first.spacer.len());
                members
                    .iter()
                    .all(|&pi| {
                        let v = &verifiers[pi];
                        v.word.is_some() && (v.spacer_offset, v.spacer.len()) == key
                    })
                    .then_some(key)
            })
            .collect();
        Some(AnchoredScan { groups, verifiers, site_len, rate, backend, block_keys })
    }

    /// Summed anchor hit rate across groups.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The kernel backend this deployment dispatches to.
    pub fn backend(&self) -> SimdBackend {
        self.backend
    }

    /// Scans one view: anchor on its stored base bitmaps, then verify
    /// candidates against its packed words (`kernel_scan_s`), appending
    /// view-relative hits. Counter semantics match the unfiltered
    /// brute-force scan: `windows_scanned` counts all windows,
    /// `pam_anchors_tested` counts `(window, pattern)` PAM passes, and
    /// verification outcomes land in `candidates_verified` /
    /// `early_exits`.
    pub fn scan(&self, view: &PackedView<'_>, k: usize, out: &mut Vec<Hit>, m: &mut SearchMetrics) {
        if view.len() < self.site_len {
            return;
        }
        let scan_start = Instant::now();
        m.counters.windows_scanned += (view.len() + 1 - self.site_len) as u64;
        let blocked = self.backend != SimdBackend::Scalar;
        for (gi, (scanner, members)) in self.groups.iter().enumerate() {
            let mask = scanner.candidates(view, self.site_len);
            match self.block_keys[gi] {
                Some((offset, len)) if blocked => {
                    self.scan_group_blocked(members, &mask, offset, len, view, k, out, m);
                }
                _ => self.scan_group_scalar(members, &mask, view, k, out, m),
            }
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
    }

    /// The original one-candidate-at-a-time verify loop.
    fn scan_group_scalar(
        &self,
        members: &[usize],
        mask: &CandidateMask,
        view: &PackedView<'_>,
        k: usize,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) {
        for start in mask {
            // Group members share a PAM signature, hence a spacer
            // offset and length: extract the window word once per
            // candidate and XOR it against each member's spacer word.
            let mut cached = (usize::MAX, 0usize);
            let mut window = 0u64;
            for &pi in members {
                m.counters.pam_anchors_tested += 1;
                let v = &self.verifiers[pi];
                let verdict = match v.word {
                    Some(word) => {
                        let key = (start + v.spacer_offset, v.spacer.len());
                        if key != cached {
                            window = view.window_word(key.0, key.1);
                            cached = key;
                        }
                        let diff = window ^ word;
                        let lanes = (diff | (diff >> 1)) & 0x5555_5555_5555_5555;
                        let mm = lanes.count_ones() as usize;
                        (mm <= k).then_some(mm)
                    }
                    None => view.count_mismatches(&v.spacer, start + v.spacer_offset, k),
                };
                match verdict {
                    Some(mm) => {
                        m.counters.candidates_verified += 1;
                        out.push(Hit {
                            contig: 0,
                            pos: start as u64,
                            guide: v.guide_index,
                            strand: v.strand,
                            mismatches: mm as u8,
                        });
                    }
                    None => m.counters.early_exits += 1,
                }
            }
        }
    }

    /// Blocked verify: pull [`simd::BLOCK`] candidate window words at
    /// once, then run every member's spacer against the whole block with
    /// the lane-parallel XOR/popcount kernel. Counter events and emitted
    /// hits are identical to the scalar loop — only the iteration shape
    /// changes (member-major within a block instead of start-major), and
    /// hit order is re-normalized by the caller's report phase.
    #[allow(clippy::too_many_arguments)]
    fn scan_group_blocked(
        &self,
        members: &[usize],
        mask: &CandidateMask,
        offset: usize,
        len: usize,
        view: &PackedView<'_>,
        k: usize,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) {
        let starts: Vec<usize> = mask.iter().collect();
        let mut pam_tested = 0u64;
        let mut verified = 0u64;
        let mut early = 0u64;
        let mut counts = [0u32; simd::BLOCK];
        for chunk in starts.chunks(simd::BLOCK) {
            // Short tail chunks repeat the last start; surplus lanes are
            // computed and discarded.
            let mut window_starts = [chunk[chunk.len() - 1] + offset; simd::BLOCK];
            for (slot, &start) in window_starts.iter_mut().zip(chunk) {
                *slot = start + offset;
            }
            let windows = view.window_words(&window_starts, len);
            for &pi in members {
                let v = &self.verifiers[pi];
                let word = v.word.expect("blocked groups lower to one-word verifiers");
                simd::mismatch_counts(self.backend, &windows, word, &mut counts);
                pam_tested += chunk.len() as u64;
                for (j, &start) in chunk.iter().enumerate() {
                    let mm = counts[j] as usize;
                    if mm <= k {
                        verified += 1;
                        out.push(Hit {
                            contig: 0,
                            pos: start as u64,
                            guide: v.guide_index,
                            strand: v.strand,
                            mismatches: mm as u8,
                        });
                    } else {
                        early += 1;
                    }
                }
            }
        }
        m.counters.pam_anchors_tested += pam_tested;
        m.counters.candidates_verified += verified;
        m.counters.early_exits += early;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::patterns;
    use crispr_guides::{Guide, Pam};

    fn guide(pam: Pam) -> Guide {
        Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), pam).unwrap()
    }

    #[test]
    fn builds_for_every_real_pam() {
        for (pam, rate) in [
            (Pam::ngg(), 2.0 / 16.0),
            (Pam::nag(), 2.0 / 16.0),
            (Pam::nrg(), 2.0 / 8.0),
            (Pam::nngrrt(), 2.0 / 64.0),
            (Pam::tttv(), 2.0 * (3.0 / 4.0) / 64.0),
        ] {
            let pats = patterns(&[guide(pam.clone())]);
            let scan = AnchoredScan::build(&pats, pats[0].len(), SimdBackend::Scalar)
                .unwrap_or_else(|| panic!("{pam:?} should anchor"));
            assert!((scan.rate() - rate).abs() < 1e-12, "{pam:?}");
        }
    }

    #[test]
    fn pamless_patterns_do_not_build() {
        let pats = patterns(&[guide(Pam::none())]);
        assert!(AnchoredScan::build(&pats, pats[0].len(), SimdBackend::Scalar).is_none());
    }

    #[test]
    fn anchored_scan_matches_brute_force_on_every_backend() {
        let pats = patterns(&[guide(Pam::ngg())]);
        let site_len = pats[0].len();
        let text: crispr_genome::DnaSeq =
            "TTTTGATTACAGATTACAGATTACTGGAAAAGATTACAGATTACAGATCACAGGCC".parse().unwrap();
        let genome = crispr_genome::Genome::from_seq(text.clone()).pack();
        let k = 2;

        let mut want = Vec::new();
        for start in 0..=text.len() - site_len {
            for p in &pats {
                if let Some(mm) = p.score_window(&text.as_slice()[start..start + site_len]) {
                    if mm <= k {
                        want.push((start as u64, p.guide_index(), p.strand(), mm as u8));
                    }
                }
            }
        }
        want.sort_unstable();

        let mut reference: Option<crispr_model::EngineCounters> = None;
        for backend in SimdBackend::ALL {
            if !backend.available() {
                continue;
            }
            let scan = AnchoredScan::build(&pats, site_len, backend).unwrap();
            assert_eq!(scan.backend(), backend);
            let mut m = SearchMetrics::default();
            let mut got = Vec::new();
            scan.scan(&genome.contigs()[0].view(), k, &mut got, &mut m);
            let mut got_keys: Vec<_> =
                got.iter().map(|h| (h.pos, h.guide, h.strand, h.mismatches)).collect();
            got_keys.sort_unstable();
            assert_eq!(got_keys, want, "backend {}", backend.name());
            assert!(m.counters.pam_anchors_tested > 0);
            assert!(m.counters.windows_scanned >= m.counters.pam_anchors_tested);
            // Counter identity across backends: same events, any lane shape.
            match reference {
                None => reference = Some(m.counters),
                Some(expect) => {
                    assert_eq!(m.counters, expect, "counters diverged on {}", backend.name())
                }
            }
        }
    }
}
