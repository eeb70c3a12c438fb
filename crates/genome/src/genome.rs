use crate::pamindex::BaseMasks;
use crate::{Base, DnaSeq, GenomeError, PackedSeq, PackedView};
use std::fmt;

/// Which strand of the double helix a site lies on.
///
/// Off-target search always scans both strands: a guide can bind the
/// protospacer on either. Coordinates reported for [`Strand::Reverse`] sites
/// refer to the *forward*-strand position of the site's leftmost base, the
/// convention Cas-OFFinder uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strand {
    /// The forward (`+`, Watson) strand as stored.
    Forward,
    /// The reverse (`-`, Crick) strand; sequences are read reverse-
    /// complemented.
    Reverse,
}

impl Strand {
    /// Both strands, forward first.
    pub const BOTH: [Strand; 2] = [Strand::Forward, Strand::Reverse];

    /// The opposite strand.
    pub fn flip(self) -> Strand {
        match self {
            Strand::Forward => Strand::Reverse,
            Strand::Reverse => Strand::Forward,
        }
    }

    /// The conventional `+`/`-` symbol.
    pub fn symbol(self) -> char {
        match self {
            Strand::Forward => '+',
            Strand::Reverse => '-',
        }
    }
}

impl fmt::Display for Strand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A named contiguous sequence (chromosome, scaffold, or synthetic contig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contig {
    name: String,
    seq: DnaSeq,
}

impl Contig {
    /// Creates a contig.
    pub fn new(name: impl Into<String>, seq: DnaSeq) -> Contig {
        Contig { name: name.into(), seq }
    }

    /// The contig name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The forward-strand sequence.
    pub fn seq(&self) -> &DnaSeq {
        &self.seq
    }

    /// Length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the contig holds no bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A reference genome: an ordered collection of named contigs.
///
/// ```
/// use crispr_genome::{Genome, DnaSeq};
///
/// let mut genome = Genome::new();
/// genome.add_contig("chr1", "ACGTACGTAA".parse()?)?;
/// assert_eq!(genome.total_len(), 10);
/// assert_eq!(genome.contig("chr1").unwrap().len(), 10);
/// # Ok::<(), crispr_genome::GenomeError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Genome {
    contigs: Vec<Contig>,
}

impl Genome {
    /// Creates an empty genome.
    pub fn new() -> Genome {
        Genome::default()
    }

    /// Creates a genome holding a single contig named `"contig0"`.
    pub fn from_seq(seq: DnaSeq) -> Genome {
        let mut g = Genome::new();
        // Infallible: a fresh genome cannot already hold "contig0".
        g.add_contig("contig0", seq).expect("fresh genome has no contigs");
        g
    }

    /// Appends a contig.
    ///
    /// # Errors
    ///
    /// [`GenomeError::DuplicateContig`] if a contig with this name is
    /// already present — duplicate names would make name-based lookups
    /// and hit provenance ambiguous.
    pub fn add_contig(&mut self, name: impl Into<String>, seq: DnaSeq) -> Result<(), GenomeError> {
        let name = name.into();
        if self.contig(&name).is_some() {
            return Err(GenomeError::DuplicateContig(name));
        }
        self.contigs.push(Contig::new(name, seq));
        Ok(())
    }

    /// The contigs in insertion order.
    pub fn contigs(&self) -> &[Contig] {
        &self.contigs
    }

    /// Looks up a contig by name.
    pub fn contig(&self, name: &str) -> Option<&Contig> {
        self.contigs.iter().find(|c| c.name == name)
    }

    /// Looks up a contig by name, failing with [`GenomeError::UnknownContig`].
    pub fn contig_or_err(&self, name: &str) -> Result<&Contig, GenomeError> {
        self.contig(name).ok_or_else(|| GenomeError::UnknownContig(name.to_string()))
    }

    /// Total bases across all contigs.
    pub fn total_len(&self) -> usize {
        self.contigs.iter().map(|c| c.len()).sum()
    }

    /// Number of contigs.
    pub fn contig_count(&self) -> usize {
        self.contigs.len()
    }

    /// Whether the genome has no contigs.
    pub fn is_empty(&self) -> bool {
        self.contigs.is_empty()
    }

    /// Iterates fixed-length windows of `len` bases over one contig and
    /// strand. Reverse-strand windows are reported at their forward-strand
    /// coordinates but contain reverse-complemented sequence.
    pub fn windows(&self, contig_idx: usize, strand: Strand, len: usize) -> WindowIter<'_> {
        WindowIter { contig: &self.contigs[contig_idx], strand, len, pos: 0 }
    }

    /// Packs every contig into the scan-ready [`PackedGenome`] form: the
    /// 2-bit words plus the four per-base bitmaps, exactly what an
    /// on-disk index stores for the same contigs.
    pub fn pack(&self) -> PackedGenome {
        let contigs = self
            .contigs
            .iter()
            .map(|c| {
                let seq = PackedSeq::from_seq(c.seq());
                let masks = BaseMasks::build(&seq);
                PackedContig::new(c.name.clone(), seq, masks)
            })
            .collect();
        PackedGenome { contigs }
    }
}

/// One contig in scan-ready packed form: its 2-bit words plus the four
/// per-base bitmaps the PAM-anchor pass intersects — 0.75 byte per base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedContig {
    name: String,
    seq: PackedSeq,
    masks: BaseMasks,
}

impl PackedContig {
    /// Creates a packed contig.
    ///
    /// # Panics
    ///
    /// Panics if `masks` does not cover exactly the bases of `seq`.
    pub fn new(name: impl Into<String>, seq: PackedSeq, masks: BaseMasks) -> PackedContig {
        assert_eq!(seq.len(), masks.len(), "bitmaps must cover the packed bases");
        PackedContig { name: name.into(), seq, masks }
    }

    /// The contig name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The 2-bit packed bases.
    pub fn seq(&self) -> &PackedSeq {
        &self.seq
    }

    /// The per-base bitmaps.
    pub fn masks(&self) -> &BaseMasks {
        &self.masks
    }

    /// The whole contig as a [`PackedView`], borrowing its words and
    /// bitmaps; [`PackedView::slice`] narrows it to a chunk.
    pub fn view(&self) -> PackedView<'_> {
        PackedView::new(self.seq.words(), Base::ALL.map(|b| self.masks.mask(b)), self.len())
    }

    /// Length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the contig holds no bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A reference genome held in packed form — the words and bitmaps an
/// on-disk index stores for the same contigs, so the scan kernels read
/// either one through the same [`PackedView`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedGenome {
    contigs: Vec<PackedContig>,
}

impl PackedGenome {
    /// The contigs in order.
    pub fn contigs(&self) -> &[PackedContig] {
        &self.contigs
    }

    /// Number of contigs.
    pub fn contig_count(&self) -> usize {
        self.contigs.len()
    }

    /// Total bases across all contigs.
    pub fn total_len(&self) -> usize {
        self.contigs.iter().map(PackedContig::len).sum()
    }

    /// Unpacks every contig back to byte-per-base form — the inverse of
    /// [`Genome::pack`], for consumers that read [`crate::DnaSeq`]s.
    pub fn unpack(&self) -> Genome {
        self.contigs.iter().map(|c| Contig::new(c.name.clone(), c.seq.unpack())).collect()
    }
}

impl From<Genome> for PackedGenome {
    fn from(genome: Genome) -> PackedGenome {
        genome.pack()
    }
}

impl FromIterator<PackedContig> for PackedGenome {
    fn from_iter<I: IntoIterator<Item = PackedContig>>(iter: I) -> PackedGenome {
        PackedGenome { contigs: iter.into_iter().collect() }
    }
}

impl FromIterator<Contig> for Genome {
    fn from_iter<I: IntoIterator<Item = Contig>>(iter: I) -> Genome {
        Genome { contigs: iter.into_iter().collect() }
    }
}

/// Iterator over fixed-length windows of a contig; see [`Genome::windows`].
#[derive(Debug)]
pub struct WindowIter<'a> {
    contig: &'a Contig,
    strand: Strand,
    len: usize,
    pos: usize,
}

impl<'a> Iterator for WindowIter<'a> {
    /// `(forward-strand start position, window sequence)`.
    type Item = (usize, DnaSeq);

    fn next(&mut self) -> Option<(usize, DnaSeq)> {
        if self.len == 0 || self.pos + self.len > self.contig.len() {
            return None;
        }
        let start = self.pos;
        self.pos += 1;
        let window = self.contig.seq().subseq(start..start + self.len);
        let window = match self.strand {
            Strand::Forward => window,
            Strand::Reverse => window.revcomp(),
        };
        Some((start, window))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.contig.len() + 1).saturating_sub(self.pos + self.len);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for WindowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome(s: &str) -> Genome {
        Genome::from_seq(s.parse().unwrap())
    }

    #[test]
    fn strand_flip_and_symbol() {
        assert_eq!(Strand::Forward.flip(), Strand::Reverse);
        assert_eq!(Strand::Reverse.flip(), Strand::Forward);
        assert_eq!(Strand::Forward.to_string(), "+");
        assert_eq!(Strand::Reverse.to_string(), "-");
    }

    #[test]
    fn contig_lookup() {
        let mut g = Genome::new();
        g.add_contig("chr1", "ACGT".parse().unwrap()).unwrap();
        g.add_contig("chr2", "TTTT".parse().unwrap()).unwrap();
        assert_eq!(g.contig_count(), 2);
        assert_eq!(g.total_len(), 8);
        assert_eq!(g.contig("chr2").unwrap().seq().to_string(), "TTTT");
        assert!(g.contig("chrX").is_none());
        assert!(matches!(g.contig_or_err("chrX"), Err(GenomeError::UnknownContig(_))));
    }

    #[test]
    fn duplicate_contig_names_are_rejected() {
        let mut g = Genome::new();
        g.add_contig("chr1", "ACGT".parse().unwrap()).unwrap();
        let err = g.add_contig("chr1", "TTTT".parse().unwrap()).unwrap_err();
        assert!(matches!(err, GenomeError::DuplicateContig(ref n) if n == "chr1"), "{err}");
        // The rejected contig was not appended.
        assert_eq!(g.contig_count(), 1);
        assert_eq!(g.contig("chr1").unwrap().seq().to_string(), "ACGT");
    }

    #[test]
    fn forward_windows() {
        let g = genome("ACGTA");
        let windows: Vec<_> = g.windows(0, Strand::Forward, 3).collect();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0], (0, "ACG".parse().unwrap()));
        assert_eq!(windows[2], (2, "GTA".parse().unwrap()));
    }

    #[test]
    fn reverse_windows_are_revcomp_at_forward_coords() {
        let g = genome("ACGTA");
        let windows: Vec<_> = g.windows(0, Strand::Reverse, 3).collect();
        assert_eq!(windows[0], (0, "CGT".parse().unwrap())); // revcomp(ACG)
    }

    #[test]
    fn window_iter_exact_size() {
        let g = genome("ACGTACGT");
        let iter = g.windows(0, Strand::Forward, 4);
        assert_eq!(iter.len(), 5);
        assert_eq!(iter.count(), 5);
        // Window longer than the contig yields nothing.
        assert_eq!(g.windows(0, Strand::Forward, 9).count(), 0);
        // Zero-length windows yield nothing rather than looping forever.
        assert_eq!(g.windows(0, Strand::Forward, 0).count(), 0);
    }

    #[test]
    fn pack_matches_contigs() {
        let mut g = Genome::new();
        g.add_contig("a", "ACGT".parse().unwrap()).unwrap();
        g.add_contig("b", "GGCC".parse().unwrap()).unwrap();
        let packed = g.pack();
        assert_eq!(packed.contig_count(), 2);
        assert_eq!(packed.total_len(), 8);
        let b = &packed.contigs()[1];
        assert_eq!((b.name(), b.seq().unpack().to_string()), ("b", "GGCC".to_string()));
        assert_eq!(b.masks(), &BaseMasks::build(b.seq()));
        assert_eq!(packed.unpack(), g);
    }
}
