//! The persistent on-disk genome index: 2-bit packed bases, per-base
//! anchor bitmaps, and optional dense q-gram tables in one versioned,
//! checksummed binary file that a scan can mmap and consume without
//! re-reading FASTA or rebuilding prefilter state.
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! 0      magic  b"CRISPRIX"                                (8 bytes)
//! 8      format version  u32  (currently 1)
//! 12     section count   u32
//! 16     total file length  u64  (trailer included)
//! 24     section table: count × { id u32, pad u32,
//!            offset u64, length u64, checksum u64 }        (32 bytes each)
//! ...    section payloads, each starting 8-byte aligned
//! end-8  whole-file checksum  u64  over bytes [0, len-8)
//! ```
//!
//! Sections (`offset`/`length` bound the payload, `checksum` covers it):
//!
//! * **meta** (id 1): `q u32`, `contig count u32`, then per contig
//!   `{ name length u32, pad u32, sequence length u64, name bytes,
//!   zero-pad to 8 }`. `q = 0` means no q-gram section was written.
//! * **packed** (id 2): per contig, `⌈len/32⌉` words of 2-bit packed
//!   bases in [`PackedSeq`] layout.
//! * **masks** (id 3): per contig, four bitmaps (A, C, G, T order) of
//!   `⌈len/64⌉` words each — the [`BaseMasks`] the PAM-anchor prefilter
//!   intersects, so an indexed scan skips the mask-building pass too.
//! * **qgram** (id 4, present iff `q > 0`): per contig, a dense CSR
//!   table — `4^q + 1` prefix-sum `u32`s then the position `u32`s
//!   ([`DenseQGrams`] layout).
//!
//! # Versioning and checksum policy
//!
//! The format version is a single monotonically bumped integer; a reader
//! accepts exactly the version it was built for and rejects everything
//! else as [`GenomeError::IndexVersion`] — no silent cross-version
//! reinterpretation. Checksums are 64-bit FNV-1a folded a word at a time
//! (with the length mixed in last, so zero-padding truncations cannot
//! alias). Every section carries its own checksum and the file carries a
//! trailing whole-file checksum: a flipped bit anywhere fails validation
//! with a typed error before any payload is interpreted.
//!
//! # mmap safety argument
//!
//! [`GenomeIndex::open`] maps the file `PROT_READ`/`MAP_PRIVATE`; the
//! header, metadata and checksums are read as bytes
//! (`u64::from_le_bytes` on copied chunks). Scans read the packed and
//! masks sections in place: [`GenomeIndex::contig_view`] hands out
//! [`PackedView`]s whose `&[u64]` words point into the index bytes. That
//! typed view is made in exactly one `unsafe` block (`as_words`), and it
//! is sound because:
//!
//! * **alignment holds** — a mapping starts on a page boundary, owned
//!   bytes are kept in a buffer that starts on an 8-byte boundary, and
//!   validation rejects any section whose offset is not a multiple of 8
//!   (every contig's run inside a section is whole words), so every word
//!   the view reads is 8-aligned; `as_words` still checks the alignment
//!   and panics rather than read a misaligned word;
//! * **every bit pattern is a valid `u64`**, and the bytes are never
//!   written while the index lives (read-only mapping, immutable buffer),
//!   so the view cannot observe a torn or invalid value;
//! * **the words are little-endian** on disk and read natively, so only
//!   little-endian hosts are supported: on a big-endian host every index
//!   constructor fails with [`GenomeError::IndexHostEndian`] before any
//!   view exists, instead of byte-swapping behind the kernels' backs.
//!
//! Validation reads the entire file once at open (the whole-file
//! checksum), after which every accessor stays within the bounds the
//! validated header promised. The remaining hazard — another process
//! truncating the file mid-scan delivering `SIGBUS` — is inherent to mmap
//! consumers; runs that cannot rule it out use the read-into-memory
//! fallback ([`GenomeIndex::from_bytes`] on `fs::read`), which is also
//! what non-Unix builds and unmappable files get automatically.

use crate::kmer::{DenseQGrams, DENSE_Q_MAX};
use crate::{Base, Genome, GenomeError, PackedGenome, PackedView};
use std::path::Path;

/// File magic: the first eight bytes of every index.
pub const MAGIC: [u8; 8] = *b"CRISPRIX";

/// The one format version this build writes and reads.
pub const VERSION: u32 = 1;

/// Default q for the dense q-gram section: 0, no section. No scan reads
/// it (the batched engine builds its seed tables from the guides), so
/// it is written only on request.
pub const DEFAULT_Q: usize = 0;

const SECTION_META: u32 = 1;
const SECTION_PACKED: u32 = 2;
const SECTION_MASKS: u32 = 3;
const SECTION_QGRAM: u32 = 4;

const HEADER_LEN: usize = 24;
const TABLE_ENTRY_LEN: usize = 32;
/// Sanity bound on the section count: the format defines four.
const MAX_SECTIONS: u32 = 8;

/// 64-bit FNV-1a folded a word (8 bytes) at a time, with the byte length
/// mixed in last. Word folding keeps validation at memory speed on warm
/// loads; the trailing length step distinguishes inputs that differ only
/// by trailing zero bytes.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        hash = hash.wrapping_mul(PRIME);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(PRIME);
    }
    hash ^= bytes.len() as u64;
    hash.wrapping_mul(PRIME)
}

fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("caller checked bounds"))
}

fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("caller checked bounds"))
}

fn corrupt(reason: impl Into<String>) -> GenomeError {
    GenomeError::IndexCorrupt { reason: reason.into() }
}

fn section_name(id: u32) -> &'static str {
    match id {
        SECTION_META => "meta",
        SECTION_PACKED => "packed",
        SECTION_MASKS => "masks",
        SECTION_QGRAM => "qgram",
        _ => "unknown",
    }
}

#[cfg(unix)]
mod mmap_sys {
    //! Minimal read-only mmap bindings. The symbols come from the C
    //! library std already links; no external crate is involved.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only memory mapping, unmapped on drop.
#[cfg(unix)]
struct MappedFile {
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

#[cfg(unix)]
// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and only ever exposed as
// an immutable byte slice; nothing writes through the pointer.
unsafe impl Send for MappedFile {}
#[cfg(unix)]
unsafe impl Sync for MappedFile {}

#[cfg(unix)]
impl MappedFile {
    /// Maps `path` read-only, or `None` when anything along the way
    /// fails (missing file, empty file, exotic filesystem) — callers
    /// fall back to reading the file into memory.
    fn map(path: &Path) -> Option<MappedFile> {
        use std::os::fd::AsRawFd;
        let file = std::fs::File::open(path).ok()?;
        let len = file.metadata().ok()?.len();
        if len == 0 || len > usize::MAX as u64 {
            return None;
        }
        let len = len as usize;
        // SAFETY: a fresh private read-only mapping of a file we hold
        // open; the result is checked against MAP_FAILED before use.
        let ptr = unsafe {
            mmap_sys::mmap(
                std::ptr::null_mut(),
                len,
                mmap_sys::PROT_READ,
                mmap_sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == mmap_sys::map_failed() || ptr.is_null() {
            return None;
        }
        Some(MappedFile { ptr, len })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; the slice's lifetime is tied to &self.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(unix)]
impl Drop for MappedFile {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact region this struct mapped.
        unsafe {
            mmap_sys::munmap(self.ptr, self.len);
        }
    }
}

/// Index bytes held in memory. The buffer carries `pad` leading bytes so
/// that the index itself starts on an 8-byte boundary, as a mapping
/// does, and its word sections can be viewed in place.
struct AlignedBytes {
    buf: Vec<u8>,
    pad: usize,
}

impl AlignedBytes {
    /// An empty buffer with room for `len` index bytes. Writes up to
    /// that length never reallocate, so the start stays aligned.
    fn with_capacity(len: usize) -> AlignedBytes {
        let mut buf: Vec<u8> = Vec::with_capacity(len + 7);
        let pad = buf.as_ptr().align_offset(8);
        buf.resize(pad, 0);
        AlignedBytes { buf, pad }
    }

    /// Adopts `bytes`, moving them only when their allocation does not
    /// start on an 8-byte boundary.
    fn adopt(bytes: Vec<u8>) -> AlignedBytes {
        if bytes.as_ptr().align_offset(8) == 0 {
            return AlignedBytes { buf: bytes, pad: 0 };
        }
        let mut aligned = AlignedBytes::with_capacity(bytes.len());
        aligned.buf.extend_from_slice(&bytes);
        aligned
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.pad..]
    }
}

/// Where the index bytes live.
enum Source {
    /// File bytes read (or built) into memory.
    Owned(AlignedBytes),
    /// A live mmap of the file.
    #[cfg(unix)]
    Mapped(MappedFile),
}

impl Source {
    fn bytes(&self) -> &[u8] {
        match self {
            Source::Owned(owned) => owned.bytes(),
            #[cfg(unix)]
            Source::Mapped(mapped) => mapped.bytes(),
        }
    }
}

/// The index bytes as native words: word `i` is bytes `8i..8i + 8`.
///
/// # Panics
///
/// Panics if `bytes` does not start on an 8-byte boundary; every
/// [`Source`] does (see the module docs).
fn as_words(bytes: &[u8]) -> &[u64] {
    assert!(bytes.as_ptr().cast::<u64>().is_aligned(), "index bytes start 8-byte aligned");
    // SAFETY: the pointer is 8-aligned (checked above) and the slice
    // covers `len / 8` whole words inside `bytes`, so it stays within
    // one live allocation or mapping for the borrow's lifetime; every
    // bit pattern is a valid `u64`, and index bytes are never written
    // while borrowed (read-only mapping, immutable buffer).
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) }
}

/// Per-contig layout resolved at open time: absolute byte offsets of the
/// contig's runs inside each section.
#[derive(Debug, Clone)]
struct ContigMeta {
    name: String,
    len: usize,
    /// Byte offset of the contig's first packed word.
    packed_start: usize,
    /// Byte offset of the contig's first mask word (A bitmap).
    masks_start: usize,
    /// Byte offset of the contig's q-gram offsets array (0 when q = 0).
    qgram_start: usize,
    /// Number of position entries in the contig's q-gram table.
    qgram_positions: usize,
}

/// A validated on-disk genome index, opened via mmap or owned bytes.
///
/// Construction validates magic, version, the whole-file checksum, every
/// per-section checksum, and the structural consistency of the decoded
/// layout; accessors afterwards only read within the bounds that
/// validation established. See the module docs for the format.
pub struct GenomeIndex {
    source: Source,
    mapped: bool,
    q: usize,
    contigs: Vec<ContigMeta>,
    total_len: usize,
}

impl std::fmt::Debug for GenomeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenomeIndex")
            .field("mapped", &self.mapped)
            .field("q", &self.q)
            .field("contigs", &self.contigs.len())
            .field("total_len", &self.total_len)
            .field("bytes", &self.source.bytes().len())
            .finish()
    }
}

impl GenomeIndex {
    /// [`GenomeIndex::build_packed`] on `genome`, packed once here: the
    /// same bytes, errors and panics.
    pub fn build(genome: &Genome, q: usize) -> Result<GenomeIndex, GenomeError> {
        GenomeIndex::build_packed(&genome.pack(), q)
    }

    /// Serializes a packed genome into a fresh in-memory index, writing
    /// each contig's words and bitmaps as they are. `q` selects the
    /// dense q-gram section (`0` omits it entirely); only that section
    /// reads bytes, so only then is each contig unpacked.
    ///
    /// # Errors
    ///
    /// Only propagates internal validation of the freshly written bytes
    /// — a failure here is a writer bug, surfaced rather than shipped.
    ///
    /// # Panics
    ///
    /// Panics if `q` is neither 0 nor within `1..=`[`DENSE_Q_MAX`].
    pub fn build_packed(genome: &PackedGenome, q: usize) -> Result<GenomeIndex, GenomeError> {
        assert!(
            q == 0 || (1..=DENSE_Q_MAX).contains(&q),
            "q must be 0 (omit) or within 1..={DENSE_Q_MAX}"
        );
        GenomeIndex::from_source(Source::Owned(serialize(genome, q)), false)
    }

    /// Validates and adopts raw index bytes — the read-to-`Vec` fallback
    /// path, and the entry point tests feed corrupted buffers through.
    ///
    /// # Errors
    ///
    /// [`GenomeError::IndexMagic`], [`GenomeError::IndexVersion`],
    /// [`GenomeError::IndexTruncated`], [`GenomeError::IndexChecksum`],
    /// or [`GenomeError::IndexCorrupt`] describing the first violation.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<GenomeIndex, GenomeError> {
        GenomeIndex::from_source(Source::Owned(AlignedBytes::adopt(bytes)), false)
    }

    /// Opens an index file: mmap on Unix when possible, otherwise (and
    /// on any mapping failure) a plain read into memory. The result of
    /// either path passes the identical validation.
    ///
    /// # Errors
    ///
    /// I/O errors reading `path`, plus everything
    /// [`GenomeIndex::from_bytes`] rejects.
    pub fn open(path: impl AsRef<Path>) -> Result<GenomeIndex, GenomeError> {
        let path = path.as_ref();
        #[cfg(unix)]
        if let Some(mapped) = MappedFile::map(path) {
            return GenomeIndex::from_source(Source::Mapped(mapped), true);
        }
        let bytes = AlignedBytes::adopt(std::fs::read(path)?);
        GenomeIndex::from_source(Source::Owned(bytes), false)
    }

    /// Writes the index bytes to `path`, crash-safely: the bytes land in
    /// a `.tmp` sibling first, are fsynced, and only then renamed over
    /// `path` — so a crash (or the `index.write` failpoint) mid-write
    /// can never leave a torn index where a valid one is expected.
    ///
    /// # Errors
    ///
    /// I/O errors from the write, fsync, or rename. On any error the
    /// temporary file is removed; a pre-existing `path` is untouched.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), GenomeError> {
        let path = path.as_ref();
        let tmp = {
            // `<path>.tmp` (appended, not substituted) so distinct
            // targets never share a staging file.
            let mut os = path.as_os_str().to_owned();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        let result = (|| -> std::io::Result<()> {
            crispr_failpoint::hit_io("index.write")?;
            let mut file = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut file, self.source.bytes())?;
            // Durability before visibility: the rename must not promote
            // bytes the OS has not committed.
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map_err(GenomeError::from)
    }

    /// The validated file bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.source.bytes()
    }

    /// Whether this index reads through a live mmap (`false`: owned
    /// bytes — built in memory or the read fallback).
    pub fn mapped(&self) -> bool {
        self.mapped
    }

    /// The q-gram section's q, or `None` when the index was written
    /// without one.
    pub fn q(&self) -> Option<usize> {
        (self.q > 0).then_some(self.q)
    }

    /// Number of contigs.
    pub fn contig_count(&self) -> usize {
        self.contigs.len()
    }

    /// Name of contig `ci`.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn contig_name(&self, ci: usize) -> &str {
        &self.contigs[ci].name
    }

    /// Length in bases of contig `ci`.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn contig_len(&self, ci: usize) -> usize {
        self.contigs[ci].len
    }

    /// Total bases across all contigs.
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// Contig `ci` as a [`PackedView`] read in place: its 2-bit words and
    /// base bitmaps point straight into the index bytes — the mapping or
    /// the owned buffer — so viewing a contig, or any chunk of it
    /// ([`PackedView::slice`]), copies nothing.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn contig_view(&self, ci: usize) -> PackedView<'_> {
        let meta = &self.contigs[ci];
        let words = as_words(self.source.bytes());
        let packed = &words[meta.packed_start / 8..][..meta.len.div_ceil(32)];
        let mask_words = meta.len.div_ceil(64);
        let masks =
            std::array::from_fn(|b| &words[meta.masks_start / 8 + b * mask_words..][..mask_words]);
        PackedView::new(packed, masks, meta.len)
    }

    /// The dense q-gram table of contig `ci`, or `None` when the index
    /// carries no q-gram section.
    ///
    /// # Errors
    ///
    /// [`GenomeError::IndexCorrupt`] when the stored table violates its
    /// CSR invariants or a position falls outside the contig (possible
    /// only through a writer bug — checksums rule out bit rot).
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn contig_qgrams(&self, ci: usize) -> Result<Option<DenseQGrams>, GenomeError> {
        if self.q == 0 {
            return Ok(None);
        }
        let meta = &self.contigs[ci];
        let bytes = self.source.bytes();
        let buckets = 1usize << (2 * self.q);
        let offsets: Vec<u32> =
            (0..=buckets).map(|i| read_u32(bytes, meta.qgram_start + 4 * i)).collect();
        let positions_start = meta.qgram_start + 4 * (buckets + 1);
        let positions: Vec<u32> =
            (0..meta.qgram_positions).map(|i| read_u32(bytes, positions_start + 4 * i)).collect();
        let table = DenseQGrams::from_raw_parts(self.q, offsets, positions)
            .ok_or_else(|| corrupt(format!("q-gram table of contig {ci} breaks CSR invariants")))?;
        if table.positions().iter().any(|&p| p as usize + self.q > meta.len) {
            return Err(corrupt(format!("q-gram position out of contig {ci} bounds")));
        }
        Ok(Some(table))
    }

    /// Materializes the full [`Genome`] by unpacking every contig — the
    /// compatibility path for consumers that need byte-per-base
    /// sequences (the modeled platforms). Skips FASTA parsing entirely;
    /// costs one linear unpack.
    ///
    /// # Errors
    ///
    /// [`GenomeError::DuplicateContig`] if the stored metadata repeats a
    /// name (rejected at open, so effectively unreachable).
    pub fn to_genome(&self) -> Result<Genome, GenomeError> {
        let mut genome = Genome::new();
        for ci in 0..self.contigs.len() {
            genome.add_contig(
                self.contigs[ci].name.clone(),
                self.contig_view(ci).bases().collect(),
            )?;
        }
        Ok(genome)
    }

    fn from_source(source: Source, mapped: bool) -> Result<GenomeIndex, GenomeError> {
        if cfg!(target_endian = "big") {
            return Err(GenomeError::IndexHostEndian);
        }
        let (q, contigs, total_len) = validate(source.bytes())?;
        Ok(GenomeIndex { source, mapped, q, contigs, total_len })
    }
}

/// One section being assembled: id plus payload bytes.
struct SectionBuf {
    id: u32,
    payload: Vec<u8>,
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

fn serialize(genome: &PackedGenome, q: usize) -> AlignedBytes {
    let mut meta = Vec::new();
    push_u32(&mut meta, q as u32);
    push_u32(&mut meta, genome.contig_count() as u32);
    let mut packed_payload = Vec::new();
    let mut masks_payload = Vec::new();
    let mut qgram_payload = Vec::new();
    for contig in genome.contigs() {
        push_u32(&mut meta, contig.name().len() as u32);
        push_u32(&mut meta, 0);
        push_u64(&mut meta, contig.len() as u64);
        meta.extend_from_slice(contig.name().as_bytes());
        pad8(&mut meta);

        for &word in contig.seq().words() {
            push_u64(&mut packed_payload, word);
        }
        for base in Base::ALL {
            for &word in contig.masks().mask(base) {
                push_u64(&mut masks_payload, word);
            }
        }
        if q > 0 {
            let table = DenseQGrams::build_from_bases(contig.seq().unpack().as_slice(), q);
            for &offset in table.offsets() {
                push_u32(&mut qgram_payload, offset);
            }
            for &pos in table.positions() {
                push_u32(&mut qgram_payload, pos);
            }
        }
    }

    let mut sections = vec![
        SectionBuf { id: SECTION_META, payload: meta },
        SectionBuf { id: SECTION_PACKED, payload: packed_payload },
        SectionBuf { id: SECTION_MASKS, payload: masks_payload },
    ];
    if q > 0 {
        sections.push(SectionBuf { id: SECTION_QGRAM, payload: qgram_payload });
    }

    let table_len = HEADER_LEN + TABLE_ENTRY_LEN * sections.len();
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = table_len;
    for section in &sections {
        cursor = cursor.next_multiple_of(8);
        offsets.push(cursor);
        cursor += section.payload.len();
    }
    let file_len = cursor.next_multiple_of(8) + 8;

    let mut file = AlignedBytes::with_capacity(file_len);
    let head = file.pad;
    let out = &mut file.buf;
    out.extend_from_slice(&MAGIC);
    push_u32(out, VERSION);
    push_u32(out, sections.len() as u32);
    push_u64(out, file_len as u64);
    for (section, &offset) in sections.iter().zip(&offsets) {
        push_u32(out, section.id);
        push_u32(out, 0);
        push_u64(out, offset as u64);
        push_u64(out, section.payload.len() as u64);
        push_u64(out, checksum(&section.payload));
    }
    for (section, &offset) in sections.iter().zip(&offsets) {
        out.resize(head + offset, 0);
        out.extend_from_slice(&section.payload);
    }
    out.resize(head + file_len - 8, 0);
    let trailer = checksum(&out[head..]);
    push_u64(out, trailer);
    file
}

/// Full validation pass: header, checksums, and structural decode.
/// Returns `(q, contig metas, total bases)`.
#[allow(clippy::type_complexity)]
fn validate(bytes: &[u8]) -> Result<(usize, Vec<ContigMeta>, usize), GenomeError> {
    let have = bytes.len() as u64;
    if bytes.len() < HEADER_LEN {
        return Err(GenomeError::IndexTruncated { needed: HEADER_LEN as u64, have });
    }
    if bytes[..8] != MAGIC {
        return Err(GenomeError::IndexMagic);
    }
    let version = read_u32(bytes, 8);
    if version != VERSION {
        return Err(GenomeError::IndexVersion { found: version, supported: VERSION });
    }
    let section_count = read_u32(bytes, 12);
    if section_count == 0 || section_count > MAX_SECTIONS {
        return Err(corrupt(format!("implausible section count {section_count}")));
    }
    let file_len = read_u64(bytes, 16);
    let table_len = HEADER_LEN + TABLE_ENTRY_LEN * section_count as usize;
    if file_len < (table_len + 8) as u64 {
        return Err(corrupt("declared file length smaller than its own header"));
    }
    if have < file_len {
        return Err(GenomeError::IndexTruncated { needed: file_len, have });
    }
    if have > file_len {
        return Err(corrupt(format!("{} trailing bytes past declared length", have - file_len)));
    }
    // Whole-file checksum first: after this, any remaining inconsistency
    // is a writer bug, not bit rot.
    let trailer = read_u64(bytes, bytes.len() - 8);
    if checksum(&bytes[..bytes.len() - 8]) != trailer {
        return Err(GenomeError::IndexChecksum { section: "file" });
    }

    let mut found: Vec<(u32, usize, usize)> = Vec::new();
    for si in 0..section_count as usize {
        let entry = HEADER_LEN + TABLE_ENTRY_LEN * si;
        let id = read_u32(bytes, entry);
        let offset = read_u64(bytes, entry + 8);
        let len = read_u64(bytes, entry + 16);
        let stored = read_u64(bytes, entry + 24);
        let end = offset.checked_add(len).filter(|&end| end <= file_len - 8);
        let (Some(_), true) = (end, offset >= table_len as u64) else {
            return Err(corrupt(format!("section {} out of file bounds", section_name(id))));
        };
        if !offset.is_multiple_of(8) {
            return Err(corrupt(format!("section {} is not 8-byte aligned", section_name(id))));
        }
        let payload = &bytes[offset as usize..(offset + len) as usize];
        if checksum(payload) != stored {
            return Err(GenomeError::IndexChecksum { section: section_name(id) });
        }
        if found.iter().any(|&(fid, _, _)| fid == id) {
            return Err(corrupt(format!("duplicate section {}", section_name(id))));
        }
        found.push((id, offset as usize, len as usize));
    }
    let section = |id: u32| -> Result<(usize, usize), GenomeError> {
        found
            .iter()
            .find(|&&(fid, _, _)| fid == id)
            .map(|&(_, off, len)| (off, len))
            .ok_or_else(|| corrupt(format!("missing section {}", section_name(id))))
    };

    // Decode meta, then check the data sections are exactly the size the
    // contig table implies.
    let (meta_off, meta_len) = section(SECTION_META)?;
    let meta_end = meta_off + meta_len;
    if meta_len < 8 {
        return Err(corrupt("meta section too short for its own header"));
    }
    let q = read_u32(bytes, meta_off) as usize;
    if q > DENSE_Q_MAX {
        return Err(corrupt(format!("q {q} exceeds supported maximum {DENSE_Q_MAX}")));
    }
    let contig_count = read_u32(bytes, meta_off + 4) as usize;
    let mut cursor = meta_off + 8;
    let mut contigs = Vec::with_capacity(contig_count.min(1 << 20));
    let mut total_len = 0usize;
    let (packed_off, packed_len) = section(SECTION_PACKED)?;
    let (masks_off, masks_len) = section(SECTION_MASKS)?;
    let qgram = if q > 0 { Some(section(SECTION_QGRAM)?) } else { None };
    let mut packed_cursor = packed_off;
    let mut masks_cursor = masks_off;
    let mut qgram_cursor = qgram.map_or(0, |(off, _)| off);
    for ci in 0..contig_count {
        if cursor + 16 > meta_end {
            return Err(corrupt(format!("meta ends inside contig {ci} record")));
        }
        let name_len = read_u32(bytes, cursor) as usize;
        let seq_len = read_u64(bytes, cursor + 8);
        if seq_len > usize::MAX as u64 {
            return Err(corrupt(format!("contig {ci} length overflows this platform")));
        }
        let seq_len = seq_len as usize;
        cursor += 16;
        if name_len > 4096 || cursor + name_len > meta_end {
            return Err(corrupt(format!("contig {ci} name runs past the meta section")));
        }
        let name = std::str::from_utf8(&bytes[cursor..cursor + name_len])
            .map_err(|_| corrupt(format!("contig {ci} name is not UTF-8")))?
            .to_string();
        if contigs.iter().any(|c: &ContigMeta| c.name == name) {
            return Err(corrupt(format!("duplicate contig name {name:?}")));
        }
        cursor = (cursor + name_len).next_multiple_of(8);

        let packed_bytes = seq_len.div_ceil(32) * 8;
        let masks_bytes = 4 * seq_len.div_ceil(64) * 8;
        let qgram_start = qgram_cursor;
        let mut qgram_positions = 0usize;
        if let Some((qg_off, qg_len)) = qgram {
            let offsets_bytes = 4 * ((1usize << (2 * q)) + 1);
            if qgram_cursor + offsets_bytes > qg_off + qg_len {
                return Err(corrupt(format!("q-gram section ends inside contig {ci} offsets")));
            }
            qgram_positions = read_u32(bytes, qgram_cursor + offsets_bytes - 4) as usize;
            qgram_cursor += offsets_bytes + 4 * qgram_positions;
            if qgram_cursor > qg_off + qg_len {
                return Err(corrupt(format!("q-gram section ends inside contig {ci} positions")));
            }
        }
        contigs.push(ContigMeta {
            name,
            len: seq_len,
            packed_start: packed_cursor,
            masks_start: masks_cursor,
            qgram_start,
            qgram_positions,
        });
        total_len = total_len
            .checked_add(seq_len)
            .ok_or_else(|| corrupt("total genome length overflows this platform"))?;
        packed_cursor += packed_bytes;
        masks_cursor += masks_bytes;
        if packed_cursor > packed_off + packed_len {
            return Err(corrupt(format!("packed section ends inside contig {ci}")));
        }
        if masks_cursor > masks_off + masks_len {
            return Err(corrupt(format!("masks section ends inside contig {ci}")));
        }
    }
    if cursor != meta_end {
        return Err(corrupt("meta section longer than its contig records"));
    }
    if packed_cursor != packed_off + packed_len {
        return Err(corrupt("packed section longer than its contigs"));
    }
    if masks_cursor != masks_off + masks_len {
        return Err(corrupt("masks section longer than its contigs"));
    }
    if let Some((qg_off, qg_len)) = qgram {
        if qgram_cursor != qg_off + qg_len {
            return Err(corrupt("q-gram section longer than its contigs"));
        }
    }
    Ok((q, contigs, total_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthSpec;
    use crate::{DnaSeq, IupacCode};

    fn sample_genome() -> Genome {
        SynthSpec::new(3_000).seed(97).contigs(3).generate()
    }

    /// The view's bases and its four base bitmaps, bit by bit.
    fn read_back(view: &PackedView<'_>) -> (DnaSeq, [Vec<bool>; 4]) {
        let bitmaps = Base::ALL.map(|base| {
            let (bits, lead) = view.class_bits(IupacCode::from_base(base));
            (0..view.len()).map(|p| bits[(lead + p) / 64] >> ((lead + p) % 64) & 1 == 1).collect()
        });
        (view.bases().collect(), bitmaps)
    }

    /// What `read_back` must return for `seq`.
    fn expected(seq: &DnaSeq) -> (DnaSeq, [Vec<bool>; 4]) {
        (seq.clone(), Base::ALL.map(|base| seq.as_slice().iter().map(|&b| b == base).collect()))
    }

    #[test]
    fn round_trip_preserves_every_payload() {
        let genome = sample_genome();
        let index = GenomeIndex::build(&genome, 4).unwrap();
        assert!(!index.mapped());
        assert_eq!(index.contig_count(), genome.contig_count());
        assert_eq!(index.total_len(), genome.total_len());
        assert_eq!(index.q(), Some(4));
        for (ci, contig) in genome.contigs().iter().enumerate() {
            assert_eq!(index.contig_name(ci), contig.name());
            assert_eq!(index.contig_len(ci), contig.len());
            assert_eq!(read_back(&index.contig_view(ci)), expected(contig.seq()), "contig {ci}");
            assert_eq!(
                index.contig_qgrams(ci).unwrap().unwrap(),
                DenseQGrams::build_from_bases(contig.seq().as_slice(), 4),
                "contig {ci}"
            );
        }
        let back = index.to_genome().unwrap();
        assert_eq!(back, genome);
    }

    #[test]
    fn ranged_views_equal_rebuilt_slices() {
        let genome = sample_genome();
        let index = GenomeIndex::build(&genome, 0).unwrap();
        assert_eq!(index.q(), None);
        assert!(index.contig_qgrams(0).unwrap().is_none());
        let contig = &genome.contigs()[1];
        for (start, len) in [(0, 0), (0, 1), (0, 64), (1, 63), (31, 66), (63, 130), (500, 377)] {
            let view = index.contig_view(1).slice(start, len);
            assert_eq!(read_back(&view), expected(&contig.seq().subseq(start..start + len)));
        }
    }

    #[test]
    fn misaligned_sections_are_rejected() {
        let genome = SynthSpec::new(300).seed(7).generate();
        let good = GenomeIndex::build(&genome, 0).unwrap().as_bytes().to_vec();
        // Shift the packed section's recorded offset by four bytes and
        // re-seal both checksums: only the alignment rule can object.
        let entry = HEADER_LEN + TABLE_ENTRY_LEN; // section 1 is packed
        let mut bad = good.clone();
        let offset = read_u64(&bad, entry + 8) + 4;
        bad[entry + 8..entry + 16].copy_from_slice(&offset.to_le_bytes());
        let len = read_u64(&bad, entry + 16) as usize;
        let sum = checksum(&bad[offset as usize..offset as usize + len]);
        bad[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
        let body = bad.len() - 8;
        let trailer = checksum(&bad[..body]);
        bad[body..].copy_from_slice(&trailer.to_le_bytes());
        let err = GenomeIndex::from_bytes(bad).expect_err("misaligned section accepted");
        assert!(err.to_string().contains("aligned"), "{err}");
    }

    #[test]
    fn open_maps_and_agrees_with_owned_bytes() {
        let genome = sample_genome();
        let built = GenomeIndex::build(&genome, 3).unwrap();
        let dir = std::env::temp_dir().join(format!("crispr-ix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.cgi");
        built.write_to(&path).unwrap();
        let opened = GenomeIndex::open(&path).unwrap();
        if cfg!(unix) {
            assert!(opened.mapped(), "unix open should mmap");
        }
        assert_eq!(opened.as_bytes(), built.as_bytes());
        assert_eq!(opened.to_genome().unwrap(), genome);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_rejected_typed() {
        let genome = SynthSpec::new(300).seed(5).contigs(2).generate();
        let good = GenomeIndex::build(&genome, 2).unwrap().as_bytes().to_vec();
        // Sampled stride keeps the test fast; the full sweep lives in the
        // fuzz suite.
        for i in (0..good.len()).step_by(7) {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            let err = GenomeIndex::from_bytes(bad)
                .err()
                .unwrap_or_else(|| panic!("flip at {i} accepted"));
            assert!(
                matches!(
                    err,
                    GenomeError::IndexMagic
                        | GenomeError::IndexVersion { .. }
                        | GenomeError::IndexTruncated { .. }
                        | GenomeError::IndexChecksum { .. }
                        | GenomeError::IndexCorrupt { .. }
                ),
                "flip at {i}: unexpected {err}"
            );
        }
    }

    #[test]
    fn truncation_and_header_tampering_yield_specific_errors() {
        let genome = SynthSpec::new(200).seed(6).generate();
        let good = GenomeIndex::build(&genome, 0).unwrap().as_bytes().to_vec();
        assert!(matches!(
            GenomeIndex::from_bytes(good[..10].to_vec()),
            Err(GenomeError::IndexTruncated { .. })
        ));
        assert!(matches!(
            GenomeIndex::from_bytes(good[..good.len() - 1].to_vec()),
            Err(GenomeError::IndexTruncated { .. })
        ));
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(matches!(GenomeIndex::from_bytes(magic), Err(GenomeError::IndexMagic)));
        let mut version = good.clone();
        version[8] = 99;
        assert!(matches!(
            GenomeIndex::from_bytes(version),
            Err(GenomeError::IndexVersion { found: 99, supported: VERSION })
        ));
        let mut body = good.clone();
        let last = body.len() - 9;
        body[last] ^= 0xff;
        assert!(matches!(GenomeIndex::from_bytes(body), Err(GenomeError::IndexChecksum { .. })));
    }

    #[test]
    fn empty_and_single_base_contigs_survive() {
        let mut genome = Genome::new();
        genome.add_contig("empty", DnaSeq::default()).unwrap();
        genome.add_contig("one", "G".parse().unwrap()).unwrap();
        genome.add_contig("some", "GATTACA".parse().unwrap()).unwrap();
        let index = GenomeIndex::build(&genome, 2).unwrap();
        assert_eq!(index.to_genome().unwrap(), genome);
        assert_eq!(index.contig_len(0), 0);
        assert!(index.contig_view(0).is_empty());
        assert_eq!(read_back(&index.contig_view(1)), expected(&"G".parse().unwrap()));
        assert_eq!(index.contig_qgrams(0).unwrap().unwrap().positions().len(), 0);
    }

    #[test]
    fn checksum_distinguishes_zero_padding() {
        assert_ne!(checksum(&[]), checksum(&[0]));
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 16]));
        assert_ne!(checksum(b"abcdefgh"), checksum(b"abcdefg"));
    }
}
