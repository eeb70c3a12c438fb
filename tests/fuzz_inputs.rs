//! Failure-injection / fuzz-style tests: malformed external inputs must
//! produce errors, never panics.

use crispr_offtarget::automata::anml;
use crispr_offtarget::genome::fasta;
use crispr_offtarget::guides::io as guide_io;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FASTA parsers accept or reject arbitrary bytes without
    /// panicking, and the lossy parser never errors on anything with a
    /// leading header.
    #[test]
    fn fasta_parsers_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = fasta::read_genome(bytes.as_slice());
        let mut with_header = b">f\n".to_vec();
        with_header.extend(&bytes);
        // Lossy parse of header + arbitrary bytes only fails on a stray
        // '>'-introduced structure problem, never panics.
        let _ = fasta::read_genome_lossy(with_header.as_slice());
    }

    /// The ANML parser survives arbitrary text.
    #[test]
    fn anml_parser_never_panics(text in "[ -~\n]{0,400}") {
        let _ = anml::from_anml(&text);
    }

    /// The ANML parser survives tag-shaped garbage specifically.
    #[test]
    fn anml_parser_survives_tag_soup(
        ids in prop::collection::vec("[a-z0-9]{1,4}", 0..6),
        starts in prop::collection::vec(prop::sample::select(vec!["all-input", "start-of-data", "bogus"]), 0..6),
    ) {
        let mut text = String::new();
        for (i, id) in ids.iter().enumerate() {
            let start = starts.get(i).copied().unwrap_or("all-input");
            text.push_str(&format!(
                "<state-transition-element id=\"{id}\" symbol-set=\"*\" start=\"{start}\">\n\
                 <activate-on-match element=\"{id}\"/>\n\
                 </state-transition-element>\n"
            ));
        }
        let _ = anml::from_anml(&text);
    }

    /// The guide-file parser survives arbitrary text lines.
    #[test]
    fn guide_file_parser_never_panics(text in "[ -~\tACGT\n#/]{0,300}") {
        let _ = guide_io::read_guides(text.as_bytes());
    }
}

/// Every prefix of a well-formed FASTA file — truncation mid-header,
/// mid-sequence, or mid-line — parses or rejects cleanly, never panics,
/// and any accepted genome is a prefix of the full one.
#[test]
fn truncated_fasta_never_panics_and_stays_a_prefix() {
    let full: &[u8] = b">chr1\nACGTACGTACGTACGTACGTACG\nTACGT\n>chr2\nGGGGCCCCAAAA\n";
    let complete = fasta::read_genome(full).expect("full file parses");
    for cut in 0..full.len() {
        if let Ok(genome) = fasta::read_genome(&full[..cut]) {
            for contig in genome.contigs() {
                // A cut inside a header line yields a shortened contig
                // name; only sequence content of surviving names can be
                // checked against the full file.
                let Some(reference) = complete.contig(contig.name()) else { continue };
                let got = contig.seq().to_string();
                assert!(
                    reference.seq().to_string().starts_with(&got),
                    "cut {cut}: contig {} is not a prefix",
                    contig.name()
                );
            }
        }
    }
}

/// CRLF line endings, stray blank lines, and tab/space mixtures in guide
/// files are tolerated; the parsed set matches the clean file.
#[test]
fn crlf_and_whitespace_mangled_guide_files_parse_identically() {
    let clean = "g1 GATTACAGATTACAGATTAC NGG\ng2 CATCATCATCATCATCATCA NGG\n";
    let mangled = "g1 GATTACAGATTACAGATTAC NGG\r\n\r\n  \t\r\ng2\tCATCATCATCATCATCATCA\tNGG  \r\n";
    let want = guide_io::read_guides(clean.as_bytes()).expect("clean file parses");
    let got = guide_io::read_guides(mangled.as_bytes()).expect("mangled file parses");
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.id(), w.id());
        assert_eq!(g.spacer(), w.spacer());
    }
}

/// A zero-length genome (header, no sequence) flows through the whole
/// parallel pipeline: no hits, no panic, no error.
#[test]
fn zero_length_genome_searches_to_empty() {
    use crispr_offtarget::engines::{BitParallelEngine, Engine, ParallelEngine};
    use crispr_offtarget::guides::{genset, Pam};
    let genome = fasta::read_genome(b">empty\n".as_slice()).expect("empty contig parses");
    assert_eq!(genome.total_len(), 0);
    let guides = genset::random_guides(1, 20, &Pam::ngg(), 9);
    let hits =
        ParallelEngine::new(BitParallelEngine::new(), 4).search(&genome, &guides, 3).unwrap();
    assert!(hits.is_empty());
}

#[test]
fn fasta_errors_carry_positions() {
    let err = fasta::read_genome(b"ACGT\n".as_slice()).unwrap_err();
    assert!(err.to_string().contains("line 1"));
    let err = fasta::read_genome(b">c\nAXGT\n".as_slice()).unwrap_err();
    assert!(err.to_string().contains('X'));
}

#[test]
fn anml_error_messages_name_the_line() {
    let text = "<state-transition-element symbol-set=\"*\">";
    let err = anml::from_anml(text).unwrap_err();
    assert!(err.to_string().contains("line 1"), "{err}");
}

mod index_corruption {
    //! The on-disk genome index loader against hostile bytes: every
    //! rejection is a typed [`GenomeError`] index variant, never a panic,
    //! never a silently-wrong accept.

    use crispr_offtarget::genome::diskindex::{GenomeIndex, MAGIC, VERSION};
    use crispr_offtarget::genome::synth::SynthSpec;
    use crispr_offtarget::genome::GenomeError;
    use proptest::prelude::*;

    fn index_bytes() -> Vec<u8> {
        let genome = SynthSpec::new(4_000).seed(991).contigs(2).generate();
        GenomeIndex::build(&genome, 6).unwrap().as_bytes().to_vec()
    }

    fn is_typed_index_error(err: &GenomeError) -> bool {
        matches!(
            err,
            GenomeError::IndexMagic
                | GenomeError::IndexVersion { .. }
                | GenomeError::IndexTruncated { .. }
                | GenomeError::IndexChecksum { .. }
                | GenomeError::IndexCorrupt { .. }
        )
    }

    /// Every proper prefix of a valid index is rejected with a typed
    /// error — truncation mid-header, mid-table, mid-payload, or one
    /// byte short of the trailer.
    #[test]
    fn every_truncated_prefix_is_rejected_typed() {
        let bytes = index_bytes();
        assert!(GenomeIndex::from_bytes(bytes.clone()).is_ok());
        for cut in 0..bytes.len() {
            let err = GenomeIndex::from_bytes(bytes[..cut].to_vec())
                .err()
                .unwrap_or_else(|| panic!("prefix of {cut} bytes accepted"));
            assert!(is_typed_index_error(&err), "cut {cut}: untyped error {err}");
        }
    }

    /// Every single-bit flip anywhere in the file — header, section
    /// table, payloads, pad bytes, trailer — is caught by a checksum or
    /// a structural check.
    #[test]
    fn every_single_byte_flip_is_rejected_typed() {
        let bytes = index_bytes();
        for pos in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= bit;
                let err = GenomeIndex::from_bytes(mutated)
                    .err()
                    .unwrap_or_else(|| panic!("flip at {pos} (bit {bit:#x}) accepted"));
                assert!(is_typed_index_error(&err), "flip at {pos}: untyped error {err}");
            }
        }
    }

    #[test]
    fn wrong_magic_and_version_yield_their_specific_errors() {
        let bytes = index_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[..8].copy_from_slice(b"NOTANIDX");
        assert!(matches!(GenomeIndex::from_bytes(wrong_magic), Err(GenomeError::IndexMagic)));
        let mut future_version = bytes.clone();
        future_version[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
        match GenomeIndex::from_bytes(future_version) {
            Err(GenomeError::IndexVersion { found, supported }) => {
                assert_eq!(found, VERSION + 1);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected IndexVersion, got {other:?}"),
        }
        // Magic is checked before anything else: a wrong-magic file with
        // a also-wrong version reports the magic problem.
        let mut both = bytes;
        both[..8].copy_from_slice(&[0u8; 8]);
        both[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(GenomeIndex::from_bytes(both), Err(GenomeError::IndexMagic)));
        assert_eq!(MAGIC, *b"CRISPRIX");
    }

    #[test]
    fn payload_tampering_reports_a_checksum_mismatch() {
        let bytes = index_bytes();
        // Flip a byte well inside the payload region (past header and
        // section table) — the whole-file checksum must catch it.
        let mut mutated = bytes.clone();
        let pos = bytes.len() / 2;
        mutated[pos] ^= 0x10;
        assert!(matches!(GenomeIndex::from_bytes(mutated), Err(GenomeError::IndexChecksum { .. })));
        // Zero-extending the file is not a valid index either.
        let mut padded = bytes;
        padded.extend_from_slice(&[0u8; 16]);
        let err = GenomeIndex::from_bytes(padded).unwrap_err();
        assert!(is_typed_index_error(&err), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes never panic the loader.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
            let _ = GenomeIndex::from_bytes(bytes);
        }

        /// Arbitrary bytes stuffed behind a valid header/magic never
        /// panic either — the structured-garbage case.
        #[test]
        fn magic_plus_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
            let mut file = Vec::with_capacity(12 + bytes.len());
            file.extend_from_slice(&MAGIC);
            file.extend_from_slice(&VERSION.to_le_bytes());
            file.extend_from_slice(&bytes);
            let _ = GenomeIndex::from_bytes(file);
        }
    }
}

mod reader_parity {
    //! The streaming packed FASTA parser against the line-based reader it
    //! replaced: on every input, the same contigs, or the same error
    //! variant and payload, and the same `degraded` flag.

    use crispr_offtarget::genome::{fasta, GenomeError};
    use proptest::prelude::*;
    use std::io::{self, Read};

    /// The line-based reader the streaming parser replaced, kept verbatim
    /// as the parity oracle (minus its trace span and failpoint, which
    /// do not touch the parse).
    mod oracle {
        use crispr_offtarget::genome::{Base, DnaSeq, Genome, GenomeError};
        use std::io::{BufRead, BufReader, Read};

        pub fn read_genome_resilient(bytes: &[u8]) -> Result<(Genome, bool), GenomeError> {
            match read_impl(bytes, false) {
                Ok(genome) => Ok((genome, false)),
                Err(GenomeError::InvalidBase { .. }) => {
                    read_impl(bytes, true).map(|genome| (genome, true))
                }
                Err(e) => Err(e),
            }
        }

        pub fn read_impl<R: Read>(reader: R, lossy: bool) -> Result<Genome, GenomeError> {
            let reader = BufReader::new(reader);
            let mut genome = Genome::new();
            let mut name: Option<String> = None;
            let mut seq = DnaSeq::new();
            let mut offset = 0usize;

            for (line_no, line) in reader.lines().enumerate() {
                let line = line?;
                let line = line.trim_end();
                if line.is_empty() {
                    continue;
                }
                if let Some(header) = line.strip_prefix('>') {
                    if let Some(prev) = name.take() {
                        genome.add_contig(prev, std::mem::take(&mut seq))?;
                    }
                    let token = header.split_whitespace().next().unwrap_or("");
                    name = Some(token.to_string());
                } else {
                    if name.is_none() {
                        return Err(GenomeError::MalformedFasta {
                            line: line_no + 1,
                            reason: "sequence data before first '>' header",
                        });
                    }
                    for byte in line.bytes() {
                        match Base::from_ascii(byte) {
                            Some(b) => seq.push(b),
                            None if lossy => {}
                            None => return Err(GenomeError::InvalidBase { byte, offset }),
                        }
                        offset += 1;
                    }
                }
            }
            if let Some(prev) = name {
                genome.add_contig(prev, seq)?;
            }
            Ok(genome)
        }
    }

    /// Hands its bytes out 1–7 per `read`, so buffer ends fall inside
    /// headers, base runs, CRLF pairs and multi-byte characters.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.step = (self.step * 5 + 3) % 7 + 1;
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// An error as its variant and payload; I/O errors by kind and text.
    fn describe(e: GenomeError) -> String {
        match e {
            GenomeError::Io(io) => format!("Io({:?}: {io})", io.kind()),
            other => format!("{other:?}"),
        }
    }

    fn outcome<T>(result: Result<T, GenomeError>) -> Result<T, String> {
        result.map_err(describe)
    }

    /// Asserts every reader, fed whole and in 1–7-byte reads, agrees
    /// with the oracle on `bytes`.
    fn assert_parity(bytes: &[u8], phase: usize) {
        let at = || format!("input {:?}", String::from_utf8_lossy(bytes));
        let trickle = || Trickle { data: bytes, step: phase };
        let strict = outcome(oracle::read_impl(bytes, false));
        assert_eq!(outcome(fasta::read_genome(bytes)), strict, "strict, {}", at());
        assert_eq!(outcome(fasta::read_genome(trickle())), strict, "strict trickle, {}", at());
        let lossy = outcome(oracle::read_impl(bytes, true));
        assert_eq!(outcome(fasta::read_genome_lossy(bytes)), lossy, "lossy, {}", at());
        assert_eq!(outcome(fasta::read_genome_lossy(trickle())), lossy, "lossy trickle, {}", at());
        let resilient = outcome(oracle::read_genome_resilient(bytes));
        assert_eq!(outcome(fasta::read_genome_resilient(bytes)), resilient, "resilient, {}", at());
        let packed = resilient.map(|(genome, degraded)| (genome.pack(), degraded));
        assert_eq!(outcome(fasta::read_packed_resilient(bytes)), packed, "packed, {}", at());
        assert_eq!(
            outcome(fasta::read_packed_resilient(trickle())),
            packed,
            "packed trickle, {}",
            at()
        );
    }

    /// FASTA-shaped fragments: headers (with descriptions, empty names
    /// and a repeated name), line ends, blank and whitespace-only lines,
    /// bases in both cases, N/IUPAC runs, interior and trailing ASCII
    /// and Unicode whitespace, non-ASCII letters and invalid UTF-8, plus
    /// base runs long enough for the eight-byte path.
    fn pieces() -> Vec<Vec<u8>> {
        let text = [
            ">chr1\n",
            ">chr2 a description\n",
            ">chr1\tagain\n",
            ">\n",
            ">  \r\n",
            "> spaced\n",
            ">n\u{a0}x\n",
            "\n",
            "\r\n",
            "  \n",
            "\t\r\n",
            "\x0b\x0c\n",
            "ACGT",
            "acgt",
            "GATTACA",
            "NNNN",
            "RYKMSW",
            "N",
            "AC GT",
            " ",
            "\t",
            "\x0b",
            "\x0c",
            "\r",
            "\u{a0}",
            "\u{e9}",
            "\u{2028}",
            "\u{3000}",
            "ACGTTGCAACGTTGCAACGTTGCAACGTTGCAACG",
            "ggccttaaGGCCTTAAggccttaaGGCCTTAAggccttaaGGCCTTAAggccttaaGGCCTTAAg",
        ];
        let mut pieces: Vec<Vec<u8>> = text.iter().map(|s| s.as_bytes().to_vec()).collect();
        pieces.extend([b"\xff".to_vec(), b"\xc3".to_vec(), b"\x80A".to_vec()]);
        pieces
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary sequences of FASTA fragments, half of them opened by
        /// a header so that the success paths are reached as often as
        /// the error paths.
        #[test]
        fn streaming_reader_matches_the_line_reader(
            headed in 0..2usize,
            parts in prop::collection::vec(prop::sample::select(pieces()), 0..48),
            phase in 0..7usize,
        ) {
            let mut bytes = if headed == 1 { b">first\n".to_vec() } else { Vec::new() };
            bytes.extend(parts.concat());
            assert_parity(&bytes, phase);
        }

        /// Mostly-valid files: many contigs of wrapped, mixed-case bases
        /// with CRLF or LF endings and the odd blank line.
        #[test]
        fn streaming_reader_matches_on_wrapped_contigs(
            lines in prop::collection::vec("[ACGTacgtN]{0,90}", 1..40),
            ending in prop::sample::select(vec!["\n", "\r\n", " \n", "\t\x0c\n"]),
            every in 3..9usize,
            phase in 0..7usize,
        ) {
            let mut text = String::new();
            for (i, line) in lines.iter().enumerate() {
                if i % every == 0 {
                    text.push_str(&format!(">c{} d\n", i / every));
                }
                text.push_str(line);
                text.push_str(ending);
            }
            assert_parity(text.as_bytes(), phase);
        }
    }

    /// A single-line 1 Mbp contig: far longer than the read buffer, so
    /// the line is consumed in pieces.
    #[test]
    fn a_one_megabase_line_parses_like_the_line_reader() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut bytes = b">long one line\n".to_vec();
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bytes.push(b"ACGTacgt"[(state % 8) as usize]);
        }
        bytes.extend(b"\r\n>tail\nACGT");
        assert_parity(&bytes, 0);
        assert_eq!(fasta::read_genome(bytes.as_slice()).unwrap().total_len(), 1_000_004);
    }

    /// Name checks stay linear in the contig count: 200 000 one-line
    /// contigs parse through every reader, and a repeated name planted
    /// among them is still rejected by name.
    #[test]
    fn two_hundred_thousand_contigs_parse_and_a_planted_duplicate_is_named() {
        const CONTIGS: usize = 200_000;
        let mut bytes = Vec::with_capacity(CONTIGS * 80);
        for i in 0..CONTIGS {
            bytes.extend(
                format!(
                    ">scaffold_{i}\nACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n"
                )
                .bytes(),
            );
        }
        let strict = fasta::read_genome(bytes.as_slice()).unwrap();
        assert_eq!((strict.contig_count(), strict.total_len()), (CONTIGS, CONTIGS * 60));
        assert_eq!(fasta::read_genome_lossy(bytes.as_slice()).unwrap(), strict);
        let (resilient, degraded) = fasta::read_genome_resilient(&bytes).unwrap();
        assert!(!degraded);
        assert_eq!(resilient, strict);
        let (packed, _) = fasta::read_packed_resilient(bytes.as_slice()).unwrap();
        assert_eq!(packed.contig_count(), CONTIGS);

        bytes.extend(b">scaffold_123456\nACGT\n>after\nACGT\n");
        for result in [
            fasta::read_genome(bytes.as_slice()),
            fasta::read_genome_lossy(bytes.as_slice()),
            fasta::read_genome_resilient(&bytes).map(|(genome, _)| genome),
        ] {
            let err = result.expect_err("the repeated name is rejected");
            assert!(
                matches!(err, GenomeError::DuplicateContig(ref name) if name == "scaffold_123456"),
                "{err}"
            );
        }
    }
}
