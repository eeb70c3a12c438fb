//! FASTA reading and writing.
//!
//! Supports the subset of FASTA the off-target pipeline needs: `>`-prefixed
//! headers (the first whitespace-delimited token is the contig name), and
//! sequence lines over `ACGTacgt`. Ambiguous bases (`N` runs common in real
//! assemblies) are *skipped* by [`read_genome_lossy`] — the same
//! preprocessing Cas-OFFinder applies — or rejected by the strict
//! [`read_genome`].
//!
//! One streaming parser backs every reader. It pulls the source through a
//! fixed buffer, writes each contig's bases straight into 2-bit words,
//! and builds the contig's anchor bitmaps when the contig ends, so its
//! output is the scan-ready [`PackedGenome`] and its resident memory is
//! the packed genome (0.75 byte per base) plus the buffer. The
//! byte-per-base readers unpack that output.
//!
//! Line rules (every reader): a line ends at `\n`; trailing whitespace
//! (`str::trim_end`, so `\r`, tab, VT, FF, space and the Unicode
//! spaces) is ignored; blank lines are skipped; a line that is not valid
//! UTF-8 is an I/O error ([`std::io::ErrorKind::InvalidData`]). Every
//! other byte of a sequence line counts toward the `offset` that
//! [`GenomeError::InvalidBase`] reports, valid or not. Within one line an
//! invalid UTF-8 error wins over a malformed-record or invalid-base
//! error; a duplicate contig name is reported when its record ends.

use crate::pamindex::BaseMasks;
use crate::{Base, Genome, GenomeError, PackedContig, PackedGenome, PackedSeq};
use std::collections::HashSet;
use std::io::{self, Read, Write};

/// Bytes requested from the source per read.
const READ_CHUNK: usize = 256 * 1024;

/// Reads a genome from FASTA, rejecting any non-`ACGT` sequence byte.
///
/// # Errors
///
/// [`GenomeError::MalformedFasta`] if sequence data precedes the first
/// header; [`GenomeError::InvalidBase`] on the first invalid byte;
/// [`GenomeError::DuplicateContig`] on a repeated contig name;
/// [`GenomeError::Io`] on read failure or a line that is not UTF-8.
pub fn read_genome<R: Read>(reader: R) -> Result<Genome, GenomeError> {
    Ok(parse(reader, false)?.genome.unpack())
}

/// Reads a genome from FASTA, silently dropping bytes that are not
/// `ACGTacgt` (ambiguity codes, gaps). This mirrors how the published tools
/// preprocess reference assemblies.
///
/// # Errors
///
/// [`GenomeError::MalformedFasta`], [`GenomeError::DuplicateContig`] or
/// [`GenomeError::Io`] as for [`read_genome`].
pub fn read_genome_lossy<R: Read>(reader: R) -> Result<Genome, GenomeError> {
    Ok(parse(reader, true)?.genome.unpack())
}

/// Reads a genome from an in-memory FASTA image, degrading gracefully:
/// see [`read_packed_resilient`], whose output this unpacks.
///
/// # Errors
///
/// Same as [`read_packed_resilient`].
pub fn read_genome_resilient(bytes: &[u8]) -> Result<(Genome, bool), GenomeError> {
    let (genome, degraded) = read_packed_resilient(bytes)?;
    Ok((genome.unpack(), degraded))
}

/// Reads a genome from FASTA straight into packed form, degrading
/// gracefully: invalid sequence bytes are dropped (as the published
/// tools do) with a warning on stderr naming the first one, in a single
/// pass. The result equals a strict parse where that succeeds and a
/// lossy parse where the strict one fails on an invalid base.
///
/// Returns the genome plus whether any byte was dropped, so callers can
/// count the degradation. Structural failures (malformed records,
/// duplicate contig names, injected I/O faults) are not recoverable by
/// dropping bytes and still error.
///
/// # Errors
///
/// [`GenomeError::MalformedFasta`], [`GenomeError::DuplicateContig`], or
/// [`GenomeError::Io`] — everything except `InvalidBase`.
pub fn read_packed_resilient<R: Read>(reader: R) -> Result<(PackedGenome, bool), GenomeError> {
    let parsed = parse(reader, true)?;
    if let Some((byte, offset)) = parsed.first_invalid {
        crispr_trace::instant_dyn("degrade:fasta.read");
        eprintln!(
            "warning: FASTA holds invalid DNA bases (first {:?} at offset {}); \
             dropped them (lossy parse)",
            byte as char, offset
        );
    }
    Ok((parsed.genome, parsed.first_invalid.is_some()))
}

/// What one parse produced: the genome, and in lossy mode the first
/// dropped byte with its offset.
struct Parsed {
    genome: PackedGenome,
    first_invalid: Option<(u8, usize)>,
}

fn parse<R: Read>(mut reader: R, lossy: bool) -> Result<Parsed, GenomeError> {
    let _span = crispr_trace::span("fasta:read");
    // Failpoint at the parse boundary: lets the robustness suite model a
    // reference assembly that cannot be read.
    crispr_failpoint::hit_io("fasta.read")?;
    let mut parser = Parser::new(lossy);
    let mut buf = vec![0u8; READ_CHUNK];
    loop {
        let n = match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        parser.feed(&buf[..n])?;
    }
    parser.finish()
}

/// Where the parser is within the current line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    /// Nothing of the line read yet.
    Start,
    /// A `>` line; its bytes after the `>` are held.
    Header,
    /// A sequence line, consumed as it streams by.
    Seq,
    /// A sequence line that met a byte ≥ 0x80: the rest of the line is
    /// held so it can be UTF-8 checked and Unicode-trimmed whole.
    Held,
}

/// The streaming parser's state between buffer refills.
struct Parser {
    lossy: bool,
    /// 1-based number of the line being read.
    line: usize,
    /// Sequence-line bytes consumed so far — what `InvalidBase` reports.
    offset: usize,
    state: Line,
    /// The contig being filled; `None` before the first header.
    open: Option<ContigBuilder>,
    contigs: Vec<PackedContig>,
    names: HashSet<String>,
    /// A run of ASCII whitespace not yet known to be interior (invalid
    /// bytes) or trailing (trimmed): its length and first byte.
    blanks: usize,
    blank_byte: u8,
    /// The first error found in the current line, reported when the line
    /// ends — unless the line turns out not to be UTF-8.
    pending: Option<GenomeError>,
    first_invalid: Option<(u8, usize)>,
    held: Vec<u8>,
}

impl Parser {
    fn new(lossy: bool) -> Parser {
        Parser {
            lossy,
            line: 1,
            offset: 0,
            state: Line::Start,
            open: None,
            contigs: Vec::new(),
            names: HashSet::new(),
            blanks: 0,
            blank_byte: 0,
            pending: None,
            first_invalid: None,
            held: Vec::new(),
        }
    }

    fn feed(&mut self, bytes: &[u8]) -> Result<(), GenomeError> {
        let mut i = 0;
        while i < bytes.len() {
            match self.state {
                Line::Start if bytes[i] == b'>' => {
                    self.state = Line::Header;
                    self.held.clear();
                    i += 1;
                }
                Line::Start => self.state = Line::Seq,
                Line::Header | Line::Held => {
                    let rest = &bytes[i..];
                    match rest.iter().position(|&b| b == b'\n') {
                        Some(end) => {
                            self.held.extend_from_slice(&rest[..end]);
                            i += end + 1;
                            self.end_line()?;
                        }
                        None => {
                            self.held.extend_from_slice(rest);
                            i = bytes.len();
                        }
                    }
                }
                Line::Seq => i = self.seq(bytes, i)?,
            }
        }
        Ok(())
    }

    /// Consumes sequence-line bytes from `i` until the line ends, the
    /// buffer ends, or a byte ≥ 0x80 hands the line to [`Line::Held`];
    /// returns the index after the last byte consumed.
    fn seq(&mut self, bytes: &[u8], mut i: usize) -> Result<usize, GenomeError> {
        loop {
            if self.blanks == 0 && self.pending.is_none() {
                if let Some(contig) = self.open.as_mut() {
                    // Eight bytes at a time; a word that holds a non-base
                    // byte contributes the bases before it.
                    let start = i;
                    while let Some(chunk) = bytes.get(i..i + 8) {
                        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
                        let run = leading_bases(word);
                        contig.push_codes(pack8(word), run);
                        i += run;
                        if run < 8 {
                            break;
                        }
                    }
                    self.offset += i - start;
                }
            }
            let Some(&byte) = bytes.get(i) else { return Ok(i) };
            i += 1;
            match byte {
                b'\n' => {
                    self.end_line()?;
                    return Ok(i);
                }
                b'\t' | 0x0B | 0x0C | b'\r' | b' ' => {
                    if self.blanks == 0 {
                        self.blank_byte = byte;
                    }
                    self.blanks += 1;
                }
                0x80.. => {
                    self.held.clear();
                    self.held.push(byte);
                    self.state = Line::Held;
                    return Ok(i);
                }
                _ => {
                    self.flush_blanks();
                    self.content(byte);
                }
            }
        }
    }

    /// One byte of a sequence line that survives the line's trim.
    fn content(&mut self, byte: u8) {
        if self.pending.is_some() {
            return;
        }
        let Some(contig) = self.open.as_mut() else {
            self.pending = Some(GenomeError::MalformedFasta {
                line: self.line,
                reason: "sequence data before first '>' header",
            });
            return;
        };
        match Base::from_ascii(byte) {
            Some(base) => contig.push_codes(u64::from(base.code()), 1),
            None if self.lossy => {
                self.first_invalid.get_or_insert((byte, self.offset));
            }
            None => self.pending = Some(GenomeError::InvalidBase { byte, offset: self.offset }),
        }
        self.offset += 1;
    }

    /// The whitespace run is interior after all: its bytes are content.
    fn flush_blanks(&mut self) {
        if self.blanks > 0 {
            self.content(self.blank_byte);
            self.offset += self.blanks - 1;
            self.blanks = 0;
        }
    }

    fn end_line(&mut self) -> Result<(), GenomeError> {
        match std::mem::replace(&mut self.state, Line::Start) {
            Line::Header => self.header()?,
            Line::Held => self.held_rest()?,
            Line::Start | Line::Seq => {}
        }
        self.blanks = 0;
        if let Some(e) = self.pending.take() {
            return Err(e);
        }
        self.line += 1;
        Ok(())
    }

    fn header(&mut self) -> Result<(), GenomeError> {
        let text = std::str::from_utf8(&self.held).map_err(|_| not_utf8())?;
        let name = text.split_whitespace().next().unwrap_or("").to_string();
        self.close()?;
        self.open = Some(ContigBuilder::new(name));
        Ok(())
    }

    /// Ends a line held from its first byte ≥ 0x80: the held bytes must
    /// be UTF-8, and what survives `trim_end` is content.
    fn held_rest(&mut self) -> Result<(), GenomeError> {
        let held = std::mem::take(&mut self.held);
        let text = std::str::from_utf8(&held).map_err(|_| not_utf8())?;
        let kept = text.trim_end();
        if !kept.is_empty() {
            self.flush_blanks();
            for &byte in kept.as_bytes() {
                self.content(byte);
            }
        }
        self.held = held;
        Ok(())
    }

    /// Completes the open contig, rejecting a repeated name.
    fn close(&mut self) -> Result<(), GenomeError> {
        if let Some(contig) = self.open.take() {
            if !self.names.insert(contig.name.clone()) {
                return Err(GenomeError::DuplicateContig(contig.name));
            }
            self.contigs.push(contig.finish());
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Parsed, GenomeError> {
        if self.state != Line::Start {
            self.end_line()?;
        }
        self.close()?;
        Ok(Parsed { genome: self.contigs.into_iter().collect(), first_invalid: self.first_invalid })
    }
}

/// The error `BufRead::lines` gives for a line that is not UTF-8.
fn not_utf8() -> GenomeError {
    io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8").into()
}

/// How many of the eight bytes of `word`, from its first (lowest), are
/// `ACGTacgt` before the first byte that is not.
#[inline]
fn leading_bases(word: u64) -> usize {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // Clearing bit 5 upper-cases acgt and maps no other byte onto ACGT.
    let upper = word & !0x2020_2020_2020_2020;
    // High bit of each byte set iff that byte of `upper` equals `letter`.
    let equal = |letter: u8| {
        let x = upper ^ (u64::from(letter) * 0x0101_0101_0101_0101);
        !(((x & LOW7) + LOW7) | x) & HIGH
    };
    let bases = equal(b'A') | equal(b'C') | equal(b'G') | equal(b'T');
    (!bases & HIGH).trailing_zeros() as usize / 8
}

/// The 2-bit codes of eight `ACGTacgt` bytes, base `i` at bits `2i`.
#[inline]
fn pack8(word: u64) -> u64 {
    // ((b >> 1) ^ (b >> 2)) & 3 is A=0, C=1, G=2, T=3 in either case.
    let codes = ((word >> 1) ^ (word >> 2)) & 0x0303_0303_0303_0303;
    let pairs = (codes | (codes >> 6)) & 0x000F_000F_000F_000F;
    let quads = (pairs | (pairs >> 12)) & 0x0000_00FF_0000_00FF;
    (quads | (quads >> 24)) & 0xFFFF
}

/// A contig being packed as its bases stream in.
struct ContigBuilder {
    name: String,
    words: Vec<u64>,
    /// The word being filled: bases `32 · words.len()..len`.
    word: u64,
    len: usize,
}

impl ContigBuilder {
    fn new(name: String) -> ContigBuilder {
        ContigBuilder { name, words: Vec::new(), word: 0, len: 0 }
    }

    /// Appends the first `count ≤ 8` 2-bit codes of `codes`, laid out as
    /// [`pack8`] returns them (base `i` at bits `2i`).
    #[inline]
    fn push_codes(&mut self, codes: u64, count: usize) {
        let codes = codes & ((1u64 << (2 * count)) - 1);
        let lane = self.len % 32;
        self.word |= codes << (2 * lane);
        self.len += count;
        if lane + count >= 32 {
            self.words.push(self.word);
            self.word = codes >> (2 * (32 - lane));
        }
    }

    fn finish(mut self) -> PackedContig {
        if !self.len.is_multiple_of(32) {
            self.words.push(self.word);
        }
        self.words.shrink_to_fit();
        let seq = PackedSeq::from_raw_parts(self.words, self.len).expect("one word per 32 bases");
        let masks = BaseMasks::build(&seq);
        PackedContig::new(self.name, seq, masks)
    }
}

/// Writes a genome as FASTA with `width`-column sequence lines.
///
/// # Errors
///
/// Propagates any I/O failure from `writer`.
pub fn write_genome<W: Write>(
    mut writer: W,
    genome: &Genome,
    width: usize,
) -> Result<(), GenomeError> {
    let width = width.max(1);
    for contig in genome.contigs() {
        writeln!(writer, ">{}", contig.name())?;
        let text = contig.seq().to_string();
        for chunk in text.as_bytes().chunks(width) {
            writer.write_all(chunk)?;
            writer.write_all(b"\n")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut genome = Genome::new();
        genome.add_contig("chr1", "ACGTACGTACGT".parse().unwrap()).unwrap();
        genome.add_contig("chr2", "GGGG".parse().unwrap()).unwrap();
        let mut buf = Vec::new();
        write_genome(&mut buf, &genome, 5).unwrap();
        let parsed = read_genome(buf.as_slice()).unwrap();
        assert_eq!(parsed, genome);
    }

    #[test]
    fn header_takes_first_token() {
        let fasta = b">chr1 description here\nACGT\n";
        let genome = read_genome(fasta.as_slice()).unwrap();
        assert_eq!(genome.contigs()[0].name(), "chr1");
    }

    #[test]
    fn strict_rejects_n() {
        let fasta = b">c\nACGNACGT\n";
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::InvalidBase { byte: b'N', .. })
        ));
    }

    #[test]
    fn lossy_skips_n() {
        let fasta = b">c\nACGNNNACGT\n";
        let genome = read_genome_lossy(fasta.as_slice()).unwrap();
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGACGT");
    }

    #[test]
    fn sequence_before_header_is_malformed() {
        let fasta = b"ACGT\n>c\nACGT\n";
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::MalformedFasta { line: 1, .. })
        ));
    }

    #[test]
    fn blank_lines_and_case_are_tolerated() {
        let fasta = b">c\n\nacgt\nACGT\n\n";
        let genome = read_genome(fasta.as_slice()).unwrap();
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGTACGT");
    }

    #[test]
    fn duplicate_fasta_contigs_are_rejected() {
        let fasta = b">c\nACGT\n>c\nTTTT\n";
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::DuplicateContig(ref n)) if n == "c"
        ));
    }

    #[test]
    fn resilient_read_prefers_strict() {
        let (genome, degraded) = read_genome_resilient(b">c\nACGT\n").unwrap();
        assert!(!degraded);
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGT");
    }

    #[test]
    fn resilient_read_falls_back_to_lossy_on_bad_bases() {
        let (genome, degraded) = read_genome_resilient(b">c\nACGNNNACGT\n").unwrap();
        assert!(degraded);
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGACGT");
    }

    #[test]
    fn resilient_read_still_rejects_structural_damage() {
        assert!(matches!(
            read_genome_resilient(b"ACGT\n>c\nACGT\n"),
            Err(GenomeError::MalformedFasta { .. })
        ));
    }

    #[test]
    fn injected_fasta_fault_surfaces_as_io_error() {
        let _s = crispr_failpoint::FailScenario::setup("fasta.read=error:1.0,3");
        assert!(matches!(read_genome(b">c\nACGT\n".as_slice()), Err(GenomeError::Io(_))));
    }

    #[test]
    fn multiline_wrapping_respects_width() {
        let mut genome = Genome::new();
        genome.add_contig("c", "ACGTACGTAC".parse().unwrap()).unwrap();
        let mut buf = Vec::new();
        write_genome(&mut buf, &genome, 4).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, ">c\nACGT\nACGT\nAC\n");
    }

    #[test]
    fn eight_byte_screen_accepts_exactly_acgt_in_either_case() {
        for byte in 0..=255u8 {
            for lane in 0..8 {
                let mut word = *b"ACGTacgt";
                word[lane] = byte;
                let run = if Base::from_ascii(byte).is_some() { 8 } else { lane };
                assert_eq!(leading_bases(u64::from_le_bytes(word)), run, "{byte:#04x} at {lane}");
            }
        }
    }

    #[test]
    fn eight_byte_pack_matches_per_base_codes() {
        let text = b"ACGTTGCAacgtgcatAaCcGgTt";
        for window in text.windows(8) {
            let packed = pack8(u64::from_le_bytes(window.try_into().unwrap()));
            for (i, &byte) in window.iter().enumerate() {
                let code = (packed >> (2 * i)) & 3;
                assert_eq!(code, u64::from(Base::from_ascii(byte).unwrap().code()));
            }
        }
    }

    #[test]
    fn packed_reader_equals_packing_the_strict_parse() {
        // Line lengths around the 8-byte screen and the 32-base word, so
        // single-base and eight-base pushes meet at every lane.
        let mut fasta = Vec::new();
        for (ci, width) in [1usize, 7, 8, 9, 31, 33, 64, 65].into_iter().enumerate() {
            fasta.extend(format!(">c{ci} desc\n").bytes());
            for (i, byte) in b"ACGTTGCAGGATCCAT".iter().cycle().take(300).enumerate() {
                fasta.push(if i % 3 == 0 { byte.to_ascii_lowercase() } else { *byte });
                if (i + 1) % width == 0 {
                    fasta.extend(b"\r\n");
                }
            }
            fasta.push(b'\n');
        }
        let (packed, degraded) = read_packed_resilient(fasta.as_slice()).unwrap();
        assert!(!degraded);
        assert_eq!(packed, read_genome(fasta.as_slice()).unwrap().pack());
        assert_eq!(packed.total_len(), 8 * 300);
    }

    #[test]
    fn whitespace_is_trailing_only_at_the_line_end() {
        // Interior blanks are invalid bases at their own offsets; the
        // same blanks at the end of a line (before CRLF) are trimmed.
        let fasta = b">c\nAC \t\r\nGT \tA\n";
        let genome = read_genome_lossy(fasta.as_slice()).unwrap();
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGTA");
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::InvalidBase { byte: b' ', offset: 4 })
        ));
    }

    #[test]
    fn non_ascii_lines_follow_str_rules() {
        // U+00A0 is trailing whitespace to `str::trim_end`, U+00E9 is not.
        let genome = read_genome(">c\nACGT\u{a0}\n".as_bytes()).unwrap();
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGT");
        assert!(matches!(
            read_genome(">c\nAC\u{e9}GT\n".as_bytes()),
            Err(GenomeError::InvalidBase { byte: 0xC3, offset: 2 })
        ));
        // A line that is not UTF-8 is an I/O error even after a bad base.
        assert!(matches!(
            read_genome(b">c\nNACGT\xff\n".as_slice()),
            Err(GenomeError::Io(ref e)) if e.kind() == io::ErrorKind::InvalidData
        ));
    }
}
