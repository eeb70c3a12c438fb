use std::fmt;

/// Error type for sequence parsing and FASTA I/O.
#[derive(Debug)]
pub enum GenomeError {
    /// A byte that is not a valid DNA base (or IUPAC code, where allowed)
    /// was encountered. Carries the offending byte and its offset.
    InvalidBase {
        /// The offending byte.
        byte: u8,
        /// Byte offset where it was found.
        offset: usize,
    },
    /// A FASTA record was structurally malformed (e.g. sequence data before
    /// the first `>` header).
    MalformedFasta {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: &'static str,
    },
    /// A contig name was not found in the genome.
    UnknownContig(String),
    /// A contig with this name is already present. Duplicate names would
    /// make name-based lookups and hit provenance ambiguous.
    DuplicateContig(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file is not an off-target genome index (magic bytes differ).
    IndexMagic,
    /// The index was written by an incompatible format version.
    IndexVersion {
        /// Version recorded in the file.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// The index file ends before the bytes its own header promises —
    /// the signature of a truncated download or partial write.
    IndexTruncated {
        /// Bytes the header layout requires.
        needed: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// A stored checksum does not match the bytes it covers.
    IndexChecksum {
        /// Which checksum failed: a section name, or `"file"` for the
        /// whole-file trailer.
        section: &'static str,
    },
    /// The index is structurally inconsistent (checksums pass but the
    /// decoded layout contradicts itself) — a writer bug, never expected
    /// from bit rot.
    IndexCorrupt {
        /// What was inconsistent.
        reason: String,
    },
    /// This host is big-endian. Scans read an index's little-endian
    /// words in place, so indexes open on little-endian hosts only.
    IndexHostEndian,
}

impl fmt::Display for GenomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenomeError::InvalidBase { byte, offset } => {
                write!(f, "invalid DNA base {:?} at offset {}", *byte as char, offset)
            }
            GenomeError::MalformedFasta { line, reason } => {
                write!(f, "malformed FASTA at line {}: {}", line, reason)
            }
            GenomeError::UnknownContig(name) => write!(f, "unknown contig {:?}", name),
            GenomeError::DuplicateContig(name) => {
                write!(f, "duplicate contig name {:?}", name)
            }
            GenomeError::Io(e) => write!(f, "i/o error: {}", e),
            GenomeError::IndexMagic => {
                write!(f, "not an offtarget genome index (magic bytes differ)")
            }
            GenomeError::IndexVersion { found, supported } => {
                write!(f, "unsupported index version {} (this build reads {})", found, supported)
            }
            GenomeError::IndexTruncated { needed, have } => {
                write!(f, "index truncated: header promises {} bytes, file has {}", needed, have)
            }
            GenomeError::IndexChecksum { section } => {
                write!(f, "index checksum mismatch in section {:?}", section)
            }
            GenomeError::IndexCorrupt { reason } => {
                write!(f, "corrupt index: {}", reason)
            }
            GenomeError::IndexHostEndian => {
                write!(f, "genome indexes hold little-endian words; this big-endian host cannot read them in place")
            }
        }
    }
}

impl std::error::Error for GenomeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenomeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GenomeError {
    fn from(e: std::io::Error) -> Self {
        GenomeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_base() {
        let e = GenomeError::InvalidBase { byte: b'X', offset: 7 };
        assert_eq!(e.to_string(), "invalid DNA base 'X' at offset 7");
    }

    #[test]
    fn display_unknown_contig() {
        let e = GenomeError::UnknownContig("chrZ".into());
        assert!(e.to_string().contains("chrZ"));
    }

    #[test]
    fn io_error_sources() {
        use std::error::Error;
        let e = GenomeError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
