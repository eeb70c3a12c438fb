//! PAM-anchor prefiltering: one linear pass over the base bitmaps of a
//! [`PackedView`] that yields a bitmask of candidate site starts.
//!
//! Off-target sites are anchored by their PAM: only ~1/16 of genome
//! positions carry an `NGG`, yet a full scan pays per-pattern work at
//! *every* position. An [`AnchorScanner`] holds the selective anchor
//! positions of one pattern class — e.g. forward-strand `NGG` requires
//! `G` at site offsets 21 and 22 — and intersects per-class position
//! bitmaps shifted by each anchor offset. The result is a
//! [`CandidateMask`] whose set bits are exactly the window starts where
//! every anchor position matches; engines verify only those. This is the
//! pre-alignment-filter shape of GateKeeper-class tools: a cheap bitwise
//! pass over bit-vectors of the reference in front of an expensive
//! verifier.
//!
//! ```
//! use crispr_genome::pamindex::AnchorScanner;
//! use crispr_genome::{Genome, IupacCode};
//!
//! // Forward-strand NGG on a 23-base site: G at offsets 21 and 22.
//! let g = IupacCode::from_ascii(b'G').unwrap();
//! let scanner = AnchorScanner::new(vec![(21, g), (22, g)]).unwrap();
//! let text: crispr_genome::DnaSeq =
//!     "ACGTACGTACGTACGTACGTAGGACGTACGTACGTACGTACGTACGG".parse()?;
//! let genome = Genome::from_seq(text).pack();
//! let candidates = scanner.candidates(&genome.contigs()[0].view(), 23);
//! // Two anchored windows: the planted AGG at 21 and the trailing CGG.
//! assert_eq!(candidates.iter().collect::<Vec<_>>(), vec![0, 24]);
//! # Ok::<(), crispr_genome::GenomeError>(())
//! ```

use crate::{Base, IupacCode, PackedSeq, PackedView};

/// The four concrete-base position bitmaps of one sequence — the exact
/// per-base masks [`PackedSeq::match_mask`] is built from, precomputed
/// and stored so the anchor pass and an on-disk index read them without
/// touching the packed bases. Any IUPAC class mask is the OR of its
/// member base masks, bit for bit what `match_mask` would have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseMasks {
    /// One bitmap per base in [`Base::ALL`] order; bit `p % 64` of word
    /// `p / 64` is set iff position `p` holds that base.
    masks: [Vec<u64>; 4],
    len: usize,
}

impl BaseMasks {
    /// Computes the four bitmaps of `packed` — one
    /// [`PackedSeq::match_mask`] pass per concrete base.
    pub fn build(packed: &PackedSeq) -> BaseMasks {
        let masks = Base::ALL.map(|b| packed.match_mask(IupacCode::from_base(b)));
        BaseMasks { masks, len: packed.len() }
    }

    /// Reassembles from raw bitmap words (A, C, G, T order) — the
    /// deserialization entry point. Bits beyond `len` in each last word
    /// are cleared so stored tail garbage cannot leak spurious anchor
    /// matches. Returns `None` when any bitmap's word count does not
    /// match `len`.
    pub fn from_raw_parts(mut masks: [Vec<u64>; 4], len: usize) -> Option<BaseMasks> {
        let words = len.div_ceil(64);
        if masks.iter().any(|m| m.len() != words) {
            return None;
        }
        if !len.is_multiple_of(64) {
            for mask in &mut masks {
                if let Some(last) = mask.last_mut() {
                    *last &= (1u64 << (len % 64)) - 1;
                }
            }
        }
        Some(BaseMasks { masks, len })
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the masks cover an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The position bitmap of one concrete base.
    pub fn mask(&self, base: Base) -> &[u64] {
        &self.masks[base.code() as usize]
    }
}

/// The selective anchor positions of one pattern class: `(site offset,
/// accepted bases)` pairs that a window must satisfy to be a candidate.
#[derive(Debug, Clone)]
pub struct AnchorScanner {
    /// Anchor pairs sorted by offset.
    pairs: Vec<(usize, IupacCode)>,
    /// Distinct classes among the pairs (mask computed once per class).
    classes: Vec<IupacCode>,
    /// One past the largest anchored offset.
    span: usize,
}

impl AnchorScanner {
    /// Builds a scanner from anchor pairs. Returns `None` when there is
    /// nothing to anchor on — no pairs at all, or a pair whose class
    /// accepts no base (the scan would be degenerate either way).
    pub fn new(mut pairs: Vec<(usize, IupacCode)>) -> Option<AnchorScanner> {
        if pairs.is_empty() || pairs.iter().any(|&(_, c)| c.degeneracy() == 0) {
            return None;
        }
        pairs.sort_by_key(|&(offset, _)| offset);
        let span = pairs.last().expect("non-empty").0 + 1;
        let mut classes: Vec<IupacCode> = Vec::new();
        for &(_, class) in &pairs {
            if !classes.contains(&class) {
                classes.push(class);
            }
        }
        Some(AnchorScanner { pairs, classes, span })
    }

    /// The anchor pairs, sorted by offset.
    pub fn pairs(&self) -> &[(usize, IupacCode)] {
        &self.pairs
    }

    /// One past the largest anchored offset — the minimum window length
    /// this scanner can filter for.
    pub fn span(&self) -> usize {
        self.span
    }

    /// Expected fraction of random positions passing all anchors —
    /// `NGG`'s two concrete positions give 1/16, `NRG`'s 1/8.
    pub fn hit_rate(&self) -> f64 {
        self.pairs.iter().map(|&(_, c)| f64::from(c.degeneracy()) / 4.0).product()
    }

    /// Candidate starts in `view`: positions where a `window`-length
    /// site fits and every anchor position matches its class, read from
    /// the view's base bitmaps at any start offset.
    ///
    /// The intersection runs 256 bits (four accumulator words) at a time
    /// with a per-block early exit — once a block's accumulator has gone
    /// all-zero, the remaining anchor pairs skip it entirely. On
    /// PAM-sparse genomes most blocks die after the first one or two
    /// pairs, cutting the pass from `pairs × words` toward `words` AND
    /// operations; the fixed four-word block also hands vector units four
    /// independent 64-bit lanes per step with no cross-lane carries.
    ///
    /// # Panics
    ///
    /// Panics if `window < self.span()` (an anchor would fall outside the
    /// window).
    pub fn candidates(&self, view: &PackedView<'_>, window: usize) -> CandidateMask {
        assert!(window >= self.span, "window {window} shorter than anchor span {}", self.span);
        let limit = (view.len() + 1).saturating_sub(window.max(1));
        let words = limit.div_ceil(64);
        if words == 0 {
            return CandidateMask { words: Vec::new(), limit: 0 };
        }
        // Each class bitmap covers the view's words; view position `p`
        // sits at bit `lead + p` of it.
        let class_masks: Vec<_> = self.classes.iter().map(|&c| (c, view.class_bits(c))).collect();
        let mut acc = vec![u64::MAX; words];
        for block in (0..words).step_by(4) {
            let block_end = (block + 4).min(words);
            for &(offset, class) in &self.pairs {
                let (mask, lead) = &class_masks
                    .iter()
                    .find(|(c, _)| *c == class)
                    .expect("every pair class is cached")
                    .1;
                let word_shift = (lead + offset) / 64;
                let bit_shift = (lead + offset) % 64;
                let mut alive = 0u64;
                for (i, word) in acc[block..block_end].iter_mut().enumerate() {
                    let slot = block + i;
                    let lo = mask.get(slot + word_shift).copied().unwrap_or(0) >> bit_shift;
                    let hi = if bit_shift == 0 {
                        0
                    } else {
                        mask.get(slot + word_shift + 1).copied().unwrap_or(0) << (64 - bit_shift)
                    };
                    *word &= lo | hi;
                    alive |= *word;
                }
                if alive == 0 {
                    break;
                }
            }
        }
        if !limit.is_multiple_of(64) {
            *acc.last_mut().expect("words > 0") &= (1u64 << (limit % 64)) - 1;
        }
        CandidateMask { words: acc, limit }
    }
}

/// The set of candidate window starts produced by one
/// [`AnchorScanner::candidates`] pass, as a position bitmask.
#[derive(Debug, Clone)]
pub struct CandidateMask {
    words: Vec<u64>,
    limit: usize,
}

impl CandidateMask {
    /// Number of candidate starts.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of valid window starts considered (candidates or not).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Whether `pos` is a candidate start.
    pub fn contains(&self, pos: usize) -> bool {
        pos < self.limit && self.words[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// Iterates candidate starts in ascending order.
    pub fn iter(&self) -> Candidates<'_> {
        Candidates { words: &self.words, next_word: 0, current: 0 }
    }
}

impl<'a> IntoIterator for &'a CandidateMask {
    type Item = usize;
    type IntoIter = Candidates<'a>;

    fn into_iter(self) -> Candidates<'a> {
        self.iter()
    }
}

/// Iterator over the set bits of a [`CandidateMask`].
#[derive(Debug)]
pub struct Candidates<'a> {
    words: &'a [u64],
    next_word: usize,
    current: u64,
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.next_word - 1) * 64 + bit);
            }
            if self.next_word == self.words.len() {
                return None;
            }
            self.current = self.words[self.next_word];
            self.next_word += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Base, DnaSeq, Genome, PackedGenome};

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn class(letter: u8) -> IupacCode {
        IupacCode::from_ascii(letter).unwrap()
    }

    fn packed(text: &DnaSeq) -> PackedGenome {
        Genome::from_seq(text.clone()).pack()
    }

    /// Candidate starts computed the slow way.
    fn scalar_candidates(text: &DnaSeq, pairs: &[(usize, IupacCode)], window: usize) -> Vec<usize> {
        if text.len() < window {
            return Vec::new();
        }
        (0..=text.len() - window)
            .filter(|&start| pairs.iter().all(|&(off, c)| c.matches(text[start + off])))
            .collect()
    }

    #[test]
    fn agrees_with_scalar_on_mixed_content_at_any_view_start() {
        // Deterministic but irregular content spanning several mask words.
        let mut text = DnaSeq::default();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..700 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            text.push(Base::from_code((state >> 33) as u8));
        }
        let genome = packed(&text);
        let cases: Vec<(Vec<(usize, IupacCode)>, usize)> = vec![
            (vec![(21, class(b'G')), (22, class(b'G'))], 23), // NGG forward
            (vec![(0, class(b'C')), (1, class(b'C'))], 23),   // NGG reverse image
            (vec![(21, class(b'R')), (22, class(b'G'))], 23), // NRG-ish
            (vec![(2, class(b'G')), (3, class(b'R')), (4, class(b'R')), (5, class(b'T'))], 26),
            (vec![(0, class(b'N')), (7, class(b'S'))], 9), // degenerate + N
            (vec![(63, class(b'T')), (64, class(b'A'))], 70), // word-boundary offsets
        ];
        for (pairs, window) in cases {
            let scanner = AnchorScanner::new(pairs.clone()).unwrap();
            for start in [0, 1, 37, 63, 64, 65, 300] {
                let view = genome.contigs()[0].view().slice(start, 700 - start);
                let got: Vec<usize> = scanner.candidates(&view, window).iter().collect();
                let want = scalar_candidates(&text.subseq(start..700), &pairs, window);
                assert_eq!(got, want, "pairs {pairs:?} start {start}");
            }
        }
    }

    #[test]
    fn blocked_pass_matches_scalar_on_all_lengths() {
        // Lengths straddling the 256-bit block boundary and ragged tails;
        // rare anchors so whole blocks actually die early.
        let text = seq(&"ACGTAGGTGATTACCA".repeat(40)); // 640 bases
        let pairs = vec![(5, class(b'G')), (6, class(b'G'))];
        let scanner = AnchorScanner::new(pairs.clone()).unwrap();
        for len in [0, 7, 8, 63, 64, 255, 256, 257, 300, 511, 512, 513, 640] {
            let prefix = text.subseq(0..len);
            let got: Vec<usize> =
                scanner.candidates(&packed(&prefix).contigs()[0].view(), 8).iter().collect();
            assert_eq!(got, scalar_candidates(&prefix, &pairs, 8), "len {len}");
        }
    }

    #[test]
    fn count_limit_and_contains_are_consistent() {
        let text = seq(&"ACGTAGGT".repeat(20)); // 160 bases
        let scanner = AnchorScanner::new(vec![(5, class(b'G')), (6, class(b'G'))]).unwrap();
        let mask = scanner.candidates(&packed(&text).contigs()[0].view(), 8);
        assert_eq!(mask.limit(), 153);
        let listed: Vec<usize> = mask.iter().collect();
        assert_eq!(listed.len(), mask.count());
        for &pos in &listed {
            assert!(mask.contains(pos));
        }
        assert!(!mask.contains(mask.limit()));
    }

    #[test]
    fn sequences_shorter_than_one_window_yield_nothing() {
        let scanner = AnchorScanner::new(vec![(21, class(b'G')), (22, class(b'G'))]).unwrap();
        for text in ["", "A", "ACGTACGTACGTACGTACGTAG"] {
            let mask = scanner.candidates(&packed(&seq(text)).contigs()[0].view(), 23);
            assert_eq!(mask.count(), 0, "text {text:?}");
            assert_eq!(mask.limit(), 0, "text {text:?}");
        }
    }

    #[test]
    fn hit_rates_match_pam_degeneracy() {
        let ngg = AnchorScanner::new(vec![(21, class(b'G')), (22, class(b'G'))]).unwrap();
        assert!((ngg.hit_rate() - 1.0 / 16.0).abs() < 1e-12);
        let nrg = AnchorScanner::new(vec![(21, class(b'R')), (22, class(b'G'))]).unwrap();
        assert!((nrg.hit_rate() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn unanchorable_inputs_are_rejected() {
        assert!(AnchorScanner::new(Vec::new()).is_none());
        assert!(AnchorScanner::new(vec![(3, IupacCode::NONE)]).is_none());
    }

    #[test]
    fn base_masks_reproduce_match_mask() {
        let text = seq(&"GATTACAGGCCTAGGT".repeat(11)); // 176 bases
        for len in [0usize, 1, 7, 63, 64, 65, 127, 128, 129, 176] {
            let packed = PackedSeq::from_seq(&text.subseq(0..len));
            let masks = BaseMasks::build(&packed);
            assert_eq!(masks.len(), len);
            for base in Base::ALL {
                assert_eq!(
                    masks.mask(base),
                    packed.match_mask(IupacCode::from_base(base)).as_slice(),
                    "len {len} base {base:?}"
                );
            }
        }
    }

    #[test]
    fn base_masks_raw_parts_canonicalize_tail_bits() {
        let packed = PackedSeq::from_seq(&seq(&"ACGT".repeat(10))); // 40 bases
        let built = BaseMasks::build(&packed);
        let mut raw = [
            built.mask(Base::A).to_vec(),
            built.mask(Base::C).to_vec(),
            built.mask(Base::G).to_vec(),
            built.mask(Base::T).to_vec(),
        ];
        // Pollute bits past position 40; round-trip must scrub them.
        for mask in &mut raw {
            *mask.last_mut().unwrap() |= !0u64 << 40;
        }
        let rebuilt = BaseMasks::from_raw_parts(raw, 40).unwrap();
        assert_eq!(rebuilt, built);
        // Wrong word count is rejected, not mis-read.
        assert!(BaseMasks::from_raw_parts([vec![0; 2], vec![0; 1], vec![0; 1], vec![0; 1]], 40)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "shorter than anchor span")]
    fn window_shorter_than_span_panics() {
        let scanner = AnchorScanner::new(vec![(10, class(b'G'))]).unwrap();
        let _ = scanner.candidates(&packed(&seq("ACGTACGTACGTACGT")).contigs()[0].view(), 5);
    }
}
