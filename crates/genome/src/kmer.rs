//! Q-gram (k-mer) indexing over 2-bit-packed DNA — the substrate for
//! filtration-style engines and repeat analysis.
//!
//! A [`QGramIndex`] maps every packed q-gram of a sequence to its sorted
//! occurrence positions. Construction is one linear scan with a rolling
//! 2-bit code; queries are hash lookups. Q is limited to 32 bases (64
//! bits).

use crate::{Base, DnaSeq};
use std::collections::HashMap;

/// Packs `q ≤ 32` bases into a little-endian 2-bit code (base `i` at bits
/// `2i`), matching [`crate::PackedSeq`]'s layout.
pub fn pack_qgram(bases: &[Base]) -> u64 {
    assert!(bases.len() <= 32, "q-grams are limited to 32 bases");
    let mut value = 0u64;
    for (i, base) in bases.iter().enumerate() {
        value |= (base.code() as u64) << (2 * i);
    }
    value
}

/// A streaming rolling q-gram register: feed bases left to right and read
/// back the packed code of the window *ending* at the fed base.
///
/// This is the one-pass primitive of [`QGramIndex`] construction: per
/// symbol it costs a shift, an OR and a mask, and after `q` symbols the
/// register always holds the code of the latest window in [`pack_qgram`]
/// layout (base `i` of the window at bits `2i`).
///
/// ```
/// use crispr_genome::kmer::{pack_qgram, QGramRoller};
/// use crispr_genome::DnaSeq;
///
/// let seq: DnaSeq = "GATTACA".parse()?;
/// let mut roller = QGramRoller::new(3);
/// let mut codes = Vec::new();
/// for (i, &base) in seq.as_slice().iter().enumerate() {
///     let code = roller.push(base);
///     if i + 1 >= 3 {
///         codes.push(code);
///     }
/// }
/// assert_eq!(codes[0], pack_qgram(&seq.as_slice()[0..3]));
/// # Ok::<(), crispr_genome::GenomeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QGramRoller {
    rolling: u64,
    shift: u32,
    mask: u64,
}

impl QGramRoller {
    /// Creates a roller for windows of `q` bases.
    ///
    /// # Panics
    ///
    /// Panics if `q` is 0 or greater than 32.
    pub fn new(q: usize) -> QGramRoller {
        assert!((1..=32).contains(&q), "q must be within 1..=32");
        let mask = if q == 32 { u64::MAX } else { (1u64 << (2 * q)) - 1 };
        QGramRoller { rolling: 0, shift: 2 * (q as u32 - 1), mask }
    }

    /// Rolls `base` in and returns the code of the window ending at it.
    /// The return value is only a complete window once `q` bases have
    /// been pushed; the caller tracks that warm-up.
    #[inline]
    pub fn push(&mut self, base: Base) -> u64 {
        // Rolling code: drop the oldest base, append the newest at the
        // high end of the window.
        self.rolling = ((self.rolling >> 2) | ((base.code() as u64) << self.shift)) & self.mask;
        self.rolling
    }
}

/// An index of all `q`-grams of one sequence.
///
/// ```
/// use crispr_genome::kmer::QGramIndex;
///
/// let seq = "ACGTACGT".parse()?;
/// let index = QGramIndex::build(&seq, 4);
/// let hits = index.lookup_seq(&"ACGT".parse()?);
/// assert_eq!(hits, &[0, 4]);
/// # Ok::<(), crispr_genome::GenomeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QGramIndex {
    q: usize,
    map: HashMap<u64, Vec<u32>>,
}

impl QGramIndex {
    /// Builds the index over every window of `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is 0 or greater than 32.
    pub fn build(seq: &DnaSeq, q: usize) -> QGramIndex {
        QGramIndex::build_from_bases(seq.as_slice(), q)
    }

    /// Builds the index over every window of a borrowed base slice — the
    /// entry point for engines scanning borrowed genome slices.
    ///
    /// # Panics
    ///
    /// Panics if `q` is 0 or greater than 32.
    pub fn build_from_bases(seq: &[Base], q: usize) -> QGramIndex {
        assert!((1..=32).contains(&q), "q must be within 1..=32");
        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        if seq.len() >= q {
            let mut roller = QGramRoller::new(q);
            for (i, &base) in seq.iter().enumerate() {
                let code = roller.push(base);
                if i + 1 >= q {
                    map.entry(code).or_default().push((i + 1 - q) as u32);
                }
            }
        }
        QGramIndex { q, map }
    }

    /// The q this index was built with.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of distinct q-grams present.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Occurrence positions of a packed q-gram (sorted ascending), empty
    /// if absent.
    pub fn lookup(&self, qgram: u64) -> &[u32] {
        self.map.get(&qgram).map_or(&[], Vec::as_slice)
    }

    /// Occurrence positions of a q-gram given as a sequence.
    ///
    /// # Panics
    ///
    /// Panics if `seq.len() != q`.
    pub fn lookup_seq(&self, seq: &DnaSeq) -> &[u32] {
        assert_eq!(seq.len(), self.q, "query length must equal q");
        self.lookup(pack_qgram(seq.as_slice()))
    }

    /// Count of the most frequent q-gram — a crude repeat-content signal.
    pub fn max_multiplicity(&self) -> usize {
        self.map.values().map(Vec::len).max().unwrap_or(0)
    }
}

/// Largest `q` the dense table supports: `4^q + 1` offset slots must stay
/// small next to the positions they index (q = 12 → 64 Mi slots).
pub const DENSE_Q_MAX: usize = 12;

/// A dense CSR (compressed sparse row) q-gram table: `offsets` has
/// `4^q + 1` prefix-sum entries and `positions[offsets[c]..offsets[c+1]]`
/// are the ascending occurrence positions of packed code `c`.
///
/// Same answers as [`QGramIndex`], different trade: O(1) array lookup
/// with no hashing, and — the reason it exists — a layout that is two
/// flat `u32` arrays, serializable to an on-disk genome index verbatim
/// and reconstructible from it without rebuilding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseQGrams {
    q: usize,
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl DenseQGrams {
    /// Builds the table over every window of `seq` in two counting
    /// passes (count per code, prefix-sum, fill).
    ///
    /// # Panics
    ///
    /// Panics if `q` is 0 or greater than [`DENSE_Q_MAX`].
    pub fn build(seq: &DnaSeq, q: usize) -> DenseQGrams {
        DenseQGrams::build_from_bases(seq.as_slice(), q)
    }

    /// Builds the table over a borrowed base slice.
    ///
    /// # Panics
    ///
    /// Panics if `q` is 0 or greater than [`DENSE_Q_MAX`].
    pub fn build_from_bases(seq: &[Base], q: usize) -> DenseQGrams {
        assert!((1..=DENSE_Q_MAX).contains(&q), "q must be within 1..={DENSE_Q_MAX}");
        let buckets = 1usize << (2 * q);
        let mut offsets = vec![0u32; buckets + 1];
        if seq.len() < q {
            return DenseQGrams { q, offsets, positions: Vec::new() };
        }
        let mut roller = QGramRoller::new(q);
        for (i, &base) in seq.iter().enumerate() {
            let code = roller.push(base);
            if i + 1 >= q {
                offsets[code as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..buckets].to_vec();
        let mut positions = vec![0u32; *offsets.last().expect("buckets + 1 > 0") as usize];
        let mut roller = QGramRoller::new(q);
        for (i, &base) in seq.iter().enumerate() {
            let code = roller.push(base) as usize;
            if i + 1 >= q {
                positions[cursor[code] as usize] = (i + 1 - q) as u32;
                cursor[code] += 1;
            }
        }
        DenseQGrams { q, offsets, positions }
    }

    /// Reassembles a table from its two flat arrays — the
    /// deserialization entry point. Returns `None` unless the CSR
    /// invariants hold: `q` in range, `4^q + 1` offsets starting at 0,
    /// monotone non-decreasing, and ending exactly at `positions.len()`.
    pub fn from_raw_parts(q: usize, offsets: Vec<u32>, positions: Vec<u32>) -> Option<DenseQGrams> {
        if !(1..=DENSE_Q_MAX).contains(&q) || offsets.len() != (1usize << (2 * q)) + 1 {
            return None;
        }
        if offsets[0] != 0 || *offsets.last().expect("non-empty") as usize != positions.len() {
            return None;
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        Some(DenseQGrams { q, offsets, positions })
    }

    /// The q this table was built with.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Occurrence positions of a packed q-gram code, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 4^q`.
    pub fn lookup(&self, code: u64) -> &[u32] {
        let c = code as usize;
        &self.positions[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Number of distinct q-grams present.
    pub fn distinct(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// The raw prefix-sum array (`4^q + 1` entries) — the serialization
    /// view.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw position array — the serialization view.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn finds_all_occurrences() {
        let index = QGramIndex::build(&seq("ACGTACGTAC"), 3);
        assert_eq!(index.lookup_seq(&seq("ACG")), &[0, 4]);
        assert_eq!(index.lookup_seq(&seq("TAC")), &[3, 7]);
        assert_eq!(index.lookup_seq(&seq("GGG")), &[] as &[u32]);
    }

    #[test]
    fn rolling_code_matches_direct_packing() {
        let text = seq("GATTACAGATTACA");
        let q = 5;
        let index = QGramIndex::build(&text, q);
        for start in 0..=text.len() - q {
            let window = text.subseq(start..start + q);
            let positions = index.lookup(pack_qgram(window.as_slice()));
            assert!(positions.contains(&(start as u32)), "start {start}");
        }
    }

    #[test]
    fn q_boundaries() {
        let text = seq(&"ACGT".repeat(20));
        let idx32 = QGramIndex::build(&text, 32);
        assert_eq!(idx32.lookup_seq(&text.subseq(0..32)).first(), Some(&0));
        let idx1 = QGramIndex::build(&seq("AACA"), 1);
        assert_eq!(idx1.lookup_seq(&seq("A")), &[0, 1, 3]);
        // Sequence shorter than q → empty index.
        assert_eq!(QGramIndex::build(&seq("AC"), 3).distinct(), 0);
    }

    #[test]
    fn repeat_signal() {
        let unique = QGramIndex::build(&seq("ACGTGCTA"), 4);
        assert_eq!(unique.max_multiplicity(), 1);
        let repeaty = QGramIndex::build(&seq(&"ACGT".repeat(10)), 4);
        assert!(repeaty.max_multiplicity() >= 9);
    }

    #[test]
    #[should_panic(expected = "1..=32")]
    fn q_zero_rejected() {
        let _ = QGramIndex::build(&seq("ACGT"), 0);
    }

    #[test]
    fn roller_matches_direct_packing_at_every_q() {
        let text = seq(&"GATTACAGGCCTAGGT".repeat(5));
        for q in [1usize, 2, 5, 13, 31, 32] {
            let mut roller = QGramRoller::new(q);
            for (i, &base) in text.as_slice().iter().enumerate() {
                let code = roller.push(base);
                if i + 1 >= q {
                    let start = i + 1 - q;
                    assert_eq!(code, pack_qgram(&text.as_slice()[start..start + q]), "q={q} i={i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=32")]
    fn roller_rejects_oversized_q() {
        let _ = QGramRoller::new(33);
    }

    #[test]
    fn dense_table_agrees_with_hash_index() {
        let text = seq(&"GATTACAGGCCTAGGTACGT".repeat(7)); // 140 bases
        for q in [1usize, 2, 5, 8] {
            let dense = DenseQGrams::build(&text, q);
            let hashed = QGramIndex::build(&text, q);
            for code in 0..(1u64 << (2 * q)) {
                assert_eq!(dense.lookup(code), hashed.lookup(code), "q={q} code={code}");
            }
            assert_eq!(dense.distinct(), hashed.distinct(), "q={q}");
        }
    }

    #[test]
    fn dense_table_handles_short_and_empty_sequences() {
        for text in ["", "A", "AC"] {
            let dense = DenseQGrams::build(&seq(text), 3);
            assert_eq!(dense.positions().len(), 0, "text {text:?}");
            assert_eq!(dense.distinct(), 0, "text {text:?}");
        }
    }

    #[test]
    fn dense_raw_parts_round_trip_and_rejection() {
        let built = DenseQGrams::build(&seq(&"ACGTGATTACA".repeat(9)), 4);
        let again = DenseQGrams::from_raw_parts(
            built.q(),
            built.offsets().to_vec(),
            built.positions().to_vec(),
        )
        .unwrap();
        assert_eq!(again, built);
        // Broken CSR invariants are rejected, not mis-read.
        assert!(DenseQGrams::from_raw_parts(4, vec![0; 3], Vec::new()).is_none());
        let mut bad = built.offsets().to_vec();
        bad[1] = bad[1].wrapping_add(1_000_000);
        assert!(DenseQGrams::from_raw_parts(4, bad, built.positions().to_vec()).is_none());
        assert!(DenseQGrams::from_raw_parts(0, vec![0], Vec::new()).is_none());
    }

    #[test]
    #[should_panic(expected = "1..=12")]
    fn dense_rejects_oversized_q() {
        let _ = DenseQGrams::build(&seq("ACGT"), DENSE_Q_MAX + 1);
    }
}
