use crate::packed::{extract, BASES_PER_WORD};
use crate::{Base, IupacCode, PackedSeq};
use std::borrow::Cow;

/// Bits per base-bitmap word.
const BITS_PER_MASK_WORD: usize = 64;

/// A borrowed range of one packed contig: bases `[start, start + len)`
/// read in place from the contig's 2-bit words and its four per-base
/// bitmaps.
///
/// A resident [`crate::PackedContig`] hands one out
/// ([`crate::PackedContig::view`]), and so does an opened on-disk index,
/// straight from its mapping
/// ([`crate::diskindex::GenomeIndex::contig_view`]). It is the one input
/// every scan kernel reads: anchor passes intersect its bitmaps
/// ([`crate::pamindex::AnchorScanner::candidates`]), verifiers pull
/// window words from it, and automata read its 2-bit code stream.
/// Narrowing a view ([`PackedView::slice`]) copies nothing, whatever the
/// start, so every chunk of a chunked scan is a view too.
///
/// ```
/// use crispr_genome::{DnaSeq, Genome};
///
/// let genome = Genome::from_seq("ACGTACGTGG".parse::<DnaSeq>()?).pack();
/// let view = genome.contigs()[0].view().slice(3, 5);
/// let bases: DnaSeq = view.bases().collect();
/// assert_eq!(bases.to_string(), "TACGT");
/// # Ok::<(), crispr_genome::GenomeError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a> {
    /// The whole contig's 2-bit words ([`PackedSeq`] layout).
    words: &'a [u64],
    /// The whole contig's base bitmaps, in [`Base::ALL`] order.
    masks: [&'a [u64]; 4],
    /// Contig position of the view's first base.
    start: usize,
    len: usize,
}

impl<'a> PackedView<'a> {
    /// Views a whole contig of `len` bases from its 2-bit words and its
    /// four base bitmaps.
    pub(crate) fn new(words: &'a [u64], masks: [&'a [u64]; 4], len: usize) -> PackedView<'a> {
        debug_assert_eq!(words.len(), len.div_ceil(BASES_PER_WORD));
        debug_assert!(masks.iter().all(|m| m.len() == len.div_ceil(BITS_PER_MASK_WORD)));
        PackedView { words, masks, start: 0, len }
    }

    /// Bases `[start, start + len)` of this view, as a view of the same
    /// contig.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    pub fn slice(&self, start: usize, len: usize) -> PackedView<'a> {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "range [{start}, {start}+{len}) out of bounds (len {})",
            self.len
        );
        PackedView { start: self.start + start, len, ..*self }
    }

    /// Number of bases in view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 2-bit code ([`Base::code`]) of base `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` (debug builds; release builds may
    /// read a neighbouring base of the contig instead).
    #[inline]
    pub fn code(&self, index: usize) -> u8 {
        debug_assert!(index < self.len, "index {index} out of bounds (len {})", self.len);
        let p = self.start + index;
        ((self.words[p / BASES_PER_WORD] >> (2 * (p % BASES_PER_WORD))) & 3) as u8
    }

    /// The base at `index`; see [`PackedView::code`].
    #[inline]
    pub fn base(&self, index: usize) -> Base {
        Base::from_code(self.code(index))
    }

    /// The 2-bit codes of the viewed bases, in order — the symbol stream
    /// automata kernels consume.
    pub fn codes(&self) -> impl Iterator<Item = u8> + 'a {
        let view = *self;
        (0..view.len).map(move |i| view.code(i))
    }

    /// The viewed bases, in order.
    pub fn bases(&self) -> impl Iterator<Item = Base> + 'a {
        self.codes().map(Base::from_code)
    }

    /// Extracts `count ≤ 32` bases starting at `index` as a right-aligned
    /// 2-bit-per-base word; lanes beyond `count` are zero. The
    /// word-at-a-time verifiers compare it against precomputed spacer
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32` or `index + count > self.len()` (debug
    /// builds; release builds may return garbage instead).
    #[inline]
    pub fn window_word(&self, index: usize, count: usize) -> u64 {
        debug_assert!(index + count <= self.len);
        extract(self.words, self.start + index, count)
    }

    /// Extracts `N` windows of `count` bases in one call: `out[j]` equals
    /// [`PackedView::window_word`]`(starts[j], count)`. Width-generic over
    /// the lane count so a verifier can pull a whole block of candidate
    /// windows before fanning them out to the lane-parallel compare.
    pub fn window_words<const N: usize>(&self, starts: &[usize; N], count: usize) -> [u64; N] {
        starts.map(|start| self.window_word(start, count))
    }

    /// Counts mismatches between `pattern` and the window of the same
    /// length starting at `offset`, stopping once the count exceeds
    /// `limit`: `None` past the limit, otherwise `Some(count)`.
    ///
    /// This is the inner loop of the Cas-OFFinder-class brute-force
    /// engine: XOR the 2-bit lanes, OR the two bits of each lane
    /// together, popcount, 32 bases at a time. Early exit on `> limit` is
    /// what gives brute force its only mismatch-budget sensitivity.
    ///
    /// # Panics
    ///
    /// Panics if `offset + pattern.len() > self.len()`.
    pub fn count_mismatches(
        &self,
        pattern: &PackedSeq,
        offset: usize,
        limit: usize,
    ) -> Option<usize> {
        assert!(
            offset + pattern.len() <= self.len,
            "window [{}, {}) out of bounds (len {})",
            offset,
            offset + pattern.len(),
            self.len
        );
        let mut mismatches = 0usize;
        let mut done = 0usize;
        while done < pattern.len() {
            let take = (pattern.len() - done).min(BASES_PER_WORD);
            let diff = self.window_word(offset + done, take) ^ pattern.window_word(done, take);
            // Collapse each 2-bit lane to its low bit: lane != 0 ⇔ mismatch.
            let lane_hit = (diff | (diff >> 1)) & 0x5555_5555_5555_5555;
            mismatches += lane_hit.count_ones() as usize;
            if mismatches > limit {
                return None;
            }
            done += take;
        }
        Some(mismatches)
    }

    /// The bitmap of the positions whose base `class` accepts, over the
    /// bitmap words that cover the view, and the bit at which view
    /// position 0 sits in the first of them. A one-base class borrows
    /// its stored bitmap; a degenerate class ORs its member bitmaps over
    /// the covering words only, so its cost follows the view, not the
    /// contig. Bits outside the view are not cleared.
    pub(crate) fn class_bits(&self, class: IupacCode) -> (Cow<'a, [u64]>, usize) {
        let first = self.start / BITS_PER_MASK_WORD;
        let end = (self.start + self.len).div_ceil(BITS_PER_MASK_WORD);
        let lead = self.start % BITS_PER_MASK_WORD;
        let mask = |base: Base| -> &'a [u64] { &self.masks[base.code() as usize][first..end] };
        let bits = match class.degeneracy() {
            1 => Cow::Borrowed(mask(class.bases().next().expect("one member base"))),
            _ => {
                let mut out = vec![0u64; end - first];
                for base in class.bases() {
                    for (slot, &word) in out.iter_mut().zip(mask(base)) {
                        *slot |= word;
                    }
                }
                Cow::Owned(out)
            }
        };
        (bits, lead)
    }
}

#[cfg(test)]
mod tests {
    use crate::pamindex::BaseMasks;
    use crate::{DnaSeq, Genome, IupacCode, PackedContig, PackedGenome, PackedSeq};

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn packed(text: &DnaSeq) -> PackedGenome {
        Genome::from_seq(text.clone()).pack()
    }

    #[test]
    fn slices_read_the_bases_they_cover() {
        let text = seq(&"GATTACAGGCCTAGGTACGTT".repeat(9)); // 189 bases
        let genome = packed(&text);
        let whole = genome.contigs()[0].view();
        for (start, len) in [(0, 0), (0, 189), (1, 31), (31, 34), (32, 64), (63, 126), (188, 1)] {
            let view = whole.slice(start, len);
            assert_eq!(view.len(), len);
            let got: DnaSeq = view.bases().collect();
            assert_eq!(got, text.subseq(start..start + len), "{start}+{len}");
            // A slice of a slice is a slice of the contig.
            if len > 2 {
                let inner: DnaSeq = view.slice(1, len - 2).bases().collect();
                assert_eq!(inner, text.subseq(start + 1..start + len - 1), "{start}+{len} inner");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        let genome = packed(&seq("ACGTACGT"));
        let _ = genome.contigs()[0].view().slice(5, 4);
    }

    #[test]
    fn count_mismatches_exact() {
        let genome = packed(&seq("AAAACGTAAAA"));
        let view = genome.contigs()[0].view();
        let pat = PackedSeq::from_seq(&seq("ACGT"));
        assert_eq!(view.count_mismatches(&pat, 3, 0), Some(0));
        assert_eq!(view.count_mismatches(&pat, 0, 4), Some(3)); // AAAA vs ACGT
        assert_eq!(view.count_mismatches(&pat, 0, 2), None);
    }

    #[test]
    fn count_mismatches_spanning_words_at_any_view_start() {
        // A 40-base pattern straddles the 32-base word boundary, and the
        // view starts are not word-aligned either.
        let text = seq(&"ACGTTGCA".repeat(20)); // 160 bases
        let genome = packed(&text);
        let pat_seq = seq(&"ACGT".repeat(10));
        let pat = PackedSeq::from_seq(&pat_seq);
        for view_start in [0, 1, 17, 33] {
            let view = genome.contigs()[0].view().slice(view_start, 160 - view_start);
            for offset in 0..=view.len() - pat.len() {
                let at = view_start + offset;
                let expected = text.subseq(at..at + 40).hamming_distance(&pat_seq);
                assert_eq!(view.count_mismatches(&pat, offset, 40), Some(expected), "{at}");
            }
        }
    }

    #[test]
    fn early_exit_respects_limit() {
        let genome = packed(&seq(&"A".repeat(64)));
        let view = genome.contigs()[0].view();
        let pat = PackedSeq::from_seq(&seq(&"C".repeat(64)));
        assert_eq!(view.count_mismatches(&pat, 0, 63), None);
        assert_eq!(view.count_mismatches(&pat, 0, 64), Some(64));
    }

    #[test]
    fn window_words_match_window_word() {
        let text = seq(&"ACGTGGTACCTA".repeat(12)); // 144 bases
        let genome = packed(&text);
        let view = genome.contigs()[0].view().slice(5, 139);
        for count in [1, 5, 20, 31, 32] {
            let starts = [0, 1, 31, 32, 33, 63, 100, 139 - count];
            let block = view.window_words(&starts, count);
            for (j, &start) in starts.iter().enumerate() {
                let expect = PackedSeq::from_seq(&text.subseq(5 + start..5 + start + count));
                assert_eq!(block[j], expect.window_word(0, count), "start {start} count {count}");
            }
        }
    }

    #[test]
    fn class_bits_cover_the_view_and_agree_with_the_bases() {
        let text = seq(&"GATTACAGGCCTAGGTCA".repeat(12)); // 216 bases
        let contig = PackedContig::new(
            "c",
            PackedSeq::from_seq(&text),
            BaseMasks::build(&PackedSeq::from_seq(&text)),
        );
        for (start, len) in [(0, 216), (1, 63), (63, 66), (64, 64), (100, 116), (215, 1)] {
            let view = contig.view().slice(start, len);
            for letter in *b"ACGTRYSWKMBDHVN" {
                let class = IupacCode::from_ascii(letter).unwrap();
                let (bits, lead) = view.class_bits(class);
                assert_eq!(bits.len(), (lead + len).div_ceil(64), "{start}+{len}");
                for p in 0..len {
                    let bit = bits[(lead + p) / 64] >> ((lead + p) % 64) & 1 == 1;
                    assert_eq!(bit, class.matches(text[start + p]), "{start}+{len} pos {p}");
                }
            }
        }
    }
}
