//! CPU off-target search engines: the automata-based approaches and the
//! published-tool baselines, all functionally interchangeable behind
//! [`Engine`].
//!
//! | Engine | Stands in for | Algorithm |
//! |---|---|---|
//! | [`ScalarEngine`] | ground truth | per-window IUPAC scoring (slowest, obviously correct) |
//! | [`CasOffinderCpuEngine`] | Cas-OFFinder (CPU side) | PAM-first check + 2-bit packed spacer compare with early exit |
//! | [`CasotEngine`] | CasOT | PAM-anchored scan with seed/total mismatch split |
//! | [`BitParallelEngine`] | HyperScan (single thread) | multi-pattern bit-parallel Hamming shift-and, k+1 registers; `batched()` screens the whole set through the [`multiseed`] cascade |
//! | [`NfaEngine`] | direct automata execution (what iNFAnt2 runs) | frontier simulation of the compiled mismatch automata |
//! | [`DfaEngine`] | HyperScan's DFA mode | subset-constructed DFA scan (fails loudly past its state budget) |
//! | [`ParallelEngine`] | multi-threaded deployment | genome chunking with overlap around any inner engine |
//! | [`IndelEngine`] / [`MyersMatcher`] | CasOT's indel mode | Myers bit-vector edit distance with PAM re-check |
//!
//! Every engine returns the same normalized [`crispr_guides::Hit`] set on the same
//! inputs; the integration suite enforces this pairwise.
//!
//! Searches are split into a compile phase and a scan phase:
//! [`Engine::prepare`] lowers guides × budget once into a reusable
//! [`PreparedSearch`], whose one scan method, [`PreparedSearch::scan`],
//! runs against any number of [`crispr_genome::PackedView`]s — borrowed
//! ranges of packed contigs, resident or read in place from an on-disk
//! index. That is the contract that lets [`ParallelEngine`] fan chunks
//! out without recompiling or copying, and lets callers amortize
//! compilation across genomes. Engines whose guide
//! sets carry a selective PAM additionally front their scans with the
//! shared PAM-anchor prefilter (see [`crispr_genome::pamindex`]); the
//! `without_prefilter` constructors expose the unfiltered baselines.
//!
//! ```
//! use crispr_engines::{BitParallelEngine, Engine, ScalarEngine};
//! use crispr_genome::synth::SynthSpec;
//! use crispr_guides::genset;
//!
//! let genome = SynthSpec::new(20_000).seed(1).generate();
//! let guides = genset::random_guides(2, 20, &crispr_guides::Pam::ngg(), 2);
//! let fast = BitParallelEngine::new().search(&genome, &guides, 3)?;
//! let truth = ScalarEngine::new().search(&genome, &guides, 3)?;
//! assert_eq!(fast, truth);
//! # Ok::<(), crispr_engines::EngineError>(())
//! ```

#![warn(missing_docs)]

mod bitparallel;
mod cancel;
mod casot;
mod degrade;
mod engine;
mod error;
pub mod multiseed;
mod myers;
mod naive;
mod nfa;
mod offdfa;
mod parallel;
mod prefilter;
pub mod simd;

pub use bitparallel::BitParallelEngine;
pub use cancel::{CancelKind, CancelToken};
pub use casot::CasotEngine;
pub use engine::{scan_genome, scan_genome_cancellable, Engine, PreparedSearch, ScalarEngine};
pub use error::{ChunkFailure, SearchError};

/// Historic alias for [`SearchError`], kept for source compatibility:
/// engine signatures predate the unified taxonomy.
pub type EngineError = SearchError;
pub use multiseed::MultiSeedScan;
pub use myers::{IndelEngine, MyersMatcher};
pub use naive::CasOffinderCpuEngine;
pub use nfa::{reports_to_hits, NfaEngine};
pub use offdfa::DfaEngine;
pub use parallel::{
    scan_prepared, ParallelEngine, ScanDeployment, ScanSource, DEFAULT_CHUNK_RETRIES,
};
pub use simd::SimdBackend;
