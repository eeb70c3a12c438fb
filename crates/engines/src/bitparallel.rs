//! The HyperScan-class CPU automata engine: multi-pattern bit-parallel
//! Hamming shift-and, fronted by the PAM-anchor prefilter.
//!
//! This is the mismatch automaton of [`crispr_guides::compile`] executed
//! in registers instead of state graphs: register `R_j` holds, for each
//! pattern position `i`, whether the pattern prefix `0..=i` matches the
//! text ending at the current symbol with at most `j` mismatches. The
//! per-symbol update is
//!
//! ```text
//! R_0' = ((R_0 << 1) | 1) & S[c]
//! R_j' = (((R_j << 1) | 1) & S[c]) | (((R_{j-1} << 1) | 1) & D)    j ≥ 1
//! ```
//!
//! where `S[c]` has bit `i` set iff symbol `c` is accepted at position `i`
//! (IUPAC PAM classes fall out for free) and `D` masks the *counted*
//! positions — a failed PAM position cannot be paid for from the budget.
//! A hit with exactly `j` mismatches is the high bit set in `R_j` but not
//! `R_{j-1}`. This register formulation of an NFA is what HyperScan-class
//! libraries lower small patterns to; its cost per input symbol is
//! `O(patterns × (k+1))` word operations, flat in genome content — the
//! "automata on CPU" data point of the paper.
//!
//! When the guide set is PAM-anchorable, the engine instead deploys the
//! shared [`crate::prefilter`] pass — HyperScan's own trick of cheap
//! literal prefilters in front of the automaton, here with the PAM as the
//! literal. The register machine remains the fallback for unanchorable
//! pattern sets and the ground truth the prefiltered path is tested
//! against.

use crate::degrade::guarded_accel;
use crate::engine::{patterns, validate_guides, Engine, PreparedSearch};
use crate::multiseed::{MultiSeedPrepared, MultiSeedScan};
use crate::prefilter::AnchoredScan;
use crate::simd::SimdBackend;
use crate::EngineError;
use crispr_genome::{Base, PackedView};
use crispr_guides::{Guide, Hit, SitePattern};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// All patterns' register machines in struct-of-arrays layout: the hot
/// loop walks flat, contiguous arrays (4·P accept masks, (k+1)·P
/// registers) instead of chasing one heap `Vec` per pattern — on
/// thousand-pattern sets this is worth several × in throughput, the same
/// data-layout discipline a production engine applies.
///
/// The bank itself is immutable compiled state; the mutable registers live
/// in caller-provided scratch so one compiled bank can serve concurrent
/// scans.
#[derive(Debug, Clone)]
struct RegisterBank {
    /// `S[c]` flattened as `accept[code · patterns + p]`.
    accept: Vec<u64>,
    /// Counted-position mask `D` per pattern.
    counted: Vec<u64>,
    /// High bit (site length − 1); identical for all patterns.
    top: u64,
    patterns: usize,
    k: usize,
    guide_index: Vec<u32>,
    strand: Vec<crispr_genome::Strand>,
}

impl RegisterBank {
    fn new(patterns: &[SitePattern], k: usize) -> RegisterBank {
        let n = patterns.len();
        let site_len = patterns.first().map_or(1, SitePattern::len);
        let mut bank = RegisterBank {
            accept: vec![0; 4 * n],
            counted: vec![0; n],
            top: 1 << (site_len - 1),
            patterns: n,
            k,
            guide_index: Vec::with_capacity(n),
            strand: Vec::with_capacity(n),
        };
        for (p, pattern) in patterns.iter().enumerate() {
            assert!(pattern.len() <= 64, "bit-parallel engine supports sites up to 64 bases");
            for (i, pos) in pattern.positions().iter().enumerate() {
                for base in Base::ALL {
                    if pos.class.matches(base) {
                        bank.accept[base.code() as usize * n + p] |= 1 << i;
                    }
                }
                if pos.counted {
                    bank.counted[p] |= 1 << i;
                }
            }
            bank.guide_index.push(pattern.guide_index());
            bank.strand.push(pattern.strand());
        }
        bank
    }

    /// Fresh zeroed register scratch for one scan.
    fn scratch(&self) -> Vec<u64> {
        vec![0; (self.k + 1) * self.patterns]
    }

    /// Advances every pattern by one symbol. The hot path is branch-free
    /// (it only OR-accumulates the top bits), so the per-pattern loop
    /// autovectorizes; the return value is nonzero iff *some* pattern's
    /// site ends at this symbol, and the caller then resolves exact
    /// pattern/count pairs with the (rare) [`RegisterBank::collect_hits`].
    ///
    /// `shifted` is caller-provided scratch of `patterns` words carrying
    /// `((R_{j−1} << 1) | 1)` between rows.
    #[inline]
    fn step(&self, regs: &mut [u64], code: usize, shifted: &mut [u64]) -> u64 {
        let n = self.patterns;
        let accept = &self.accept[code * n..(code + 1) * n];
        let top = self.top;
        let mut any = 0u64;

        // Row 0 (exact-prefix row) — no mismatch inflow. Stash the
        // shifted pre-update value for row 1's mismatch path.
        for p in 0..n {
            let s = (regs[p] << 1) | 1;
            let next = s & accept[p];
            shifted[p] = s;
            regs[p] = next;
            any |= next;
        }
        for j in 1..=self.k {
            let row = j * n;
            for p in 0..n {
                let s = (regs[row + p] << 1) | 1;
                let next = (s & accept[p]) | (shifted[p] & self.counted[p]);
                shifted[p] = s;
                regs[row + p] = next;
                any |= next;
            }
        }
        any & top
    }

    /// Resolves the hitting patterns after a [`RegisterBank::step`] whose
    /// return was nonzero: for each pattern whose top bit is set in some
    /// row, the lowest such row is the exact mismatch count (rows are
    /// supersets upward).
    fn collect_hits(&self, regs: &[u64], mut on_hit: impl FnMut(usize, u8)) {
        let n = self.patterns;
        let top = self.top;
        'pattern: for p in 0..n {
            for j in 0..=self.k {
                if regs[j * n + p] & top != 0 {
                    on_hit(p, j as u8);
                    continue 'pattern;
                }
            }
        }
    }
}

/// Bit-parallel multi-pattern engine; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct BitParallelEngine {
    prefilter: bool,
    batched: bool,
    simd: Option<SimdBackend>,
}

impl Default for BitParallelEngine {
    fn default() -> BitParallelEngine {
        BitParallelEngine::new()
    }
}

impl BitParallelEngine {
    /// Creates the engine (PAM-anchor prefilter enabled where applicable).
    pub fn new() -> BitParallelEngine {
        BitParallelEngine { prefilter: true, batched: false, simd: None }
    }

    /// Creates the engine with the prefilter disabled — every view runs
    /// through the register machine. The ablation baseline.
    pub fn without_prefilter() -> BitParallelEngine {
        BitParallelEngine { prefilter: false, batched: false, simd: None }
    }

    /// Creates the engine in batched multi-guide mode: where the guide
    /// set admits it, `prepare` compiles the shared seed automaton of
    /// [`crate::multiseed`] instead of per-guide anchor-and-verify, so
    /// scan cost grows with seed traffic rather than guide count.
    /// Unbatchable sets fall back to [`BitParallelEngine::new`] behavior.
    pub fn batched() -> BitParallelEngine {
        BitParallelEngine { prefilter: true, batched: true, simd: None }
    }

    /// Forces the SIMD backend the per-guide kernels dispatch to; the
    /// default defers to `OFFTARGET_SIMD` and runtime detection (see
    /// [`crate::simd`]). An unavailable choice degrades to portable. The
    /// batched kernel runs the same code on every backend.
    pub fn with_simd(mut self, backend: SimdBackend) -> BitParallelEngine {
        self.simd = Some(backend);
        self
    }
}

/// Compiled form: register bank plus, when applicable, the anchor-and-
/// verify deployment that replaces register stepping on anchorable sets.
#[derive(Debug)]
struct BitParallelPrepared {
    bank: RegisterBank,
    anchored: Option<AnchoredScan>,
    site_len: usize,
    k: usize,
    /// Accelerator builds that failed during `prepare` and were replaced
    /// by a fallback path; surfaced as `degraded_paths`.
    degraded: u64,
}

impl PreparedSearch for BitParallelPrepared {
    fn site_len(&self) -> usize {
        self.site_len
    }

    fn scan(
        &self,
        view: &PackedView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:bitparallel");
        // Both paths are linear bitwise passes over the view; meter them
        // under the same symbol count.
        m.counters.bit_steps += view.len() as u64;
        if let Some(anchored) = &self.anchored {
            anchored.scan(view, self.k, out, m);
            return Ok(());
        }

        let scan_start = Instant::now();
        m.counters.windows_scanned += (view.len() + 1).saturating_sub(self.site_len) as u64;
        let mut regs = self.bank.scratch();
        let mut shifted = vec![0u64; self.bank.patterns];
        for (end, code) in view.codes().enumerate() {
            if self.bank.step(&mut regs, code as usize, &mut shifted) != 0 {
                let pos = (end + 1 - self.site_len) as u64;
                self.bank.collect_hits(&regs, |p, mm| {
                    out.push(Hit {
                        contig: 0,
                        pos,
                        guide: self.bank.guide_index[p],
                        strand: self.bank.strand[p],
                        mismatches: mm,
                    });
                });
            }
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
        Ok(())
    }

    fn record_gauges(&self, m: &mut SearchMetrics) {
        m.counters.degraded_paths += self.degraded;
        if let Some(anchored) = &self.anchored {
            m.set_gauge("anchor_rate", anchored.rate());
            m.set_gauge("simd_backend", anchored.backend().gauge());
        }
    }
}

impl Engine for BitParallelEngine {
    fn name(&self) -> &'static str {
        if self.batched {
            "bitparallel-hyperscan-batched"
        } else {
            "bitparallel-hyperscan"
        }
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        let site_len = validate_guides(guides, k)?;
        if site_len > 64 {
            return Err(EngineError::Unsupported(format!(
                "site length {site_len} exceeds the 64-bit register width"
            )));
        }
        let pattern_list = patterns(guides);
        let mut degraded = 0;
        if self.batched {
            let scan = guarded_accel("multiseed.build", &mut degraded, || {
                MultiSeedScan::build(&pattern_list, site_len, k)
            });
            if let Some(scan) = scan {
                return Ok(Box::new(MultiSeedPrepared::new(scan)));
            }
        }
        let backend = crate::simd::resolve(self.simd);
        let anchored = if self.prefilter {
            guarded_accel("prefilter.build", &mut degraded, || {
                AnchoredScan::build(&pattern_list, site_len, backend)
            })
        } else {
            None
        };
        let bank = RegisterBank::new(&pattern_list, k);
        Ok(Box::new(BitParallelPrepared { bank, anchored, site_len, k, degraded }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::{assert_engine_correct, planted_workload};
    use crate::engine::ScalarEngine;
    use crispr_guides::Pam;

    #[test]
    fn matches_oracle_k0() {
        assert_engine_correct(&BitParallelEngine::new(), 21, 0);
    }

    #[test]
    fn matches_oracle_k3() {
        assert_engine_correct(&BitParallelEngine::new(), 22, 3);
    }

    #[test]
    fn matches_oracle_k5() {
        assert_engine_correct(&BitParallelEngine::new(), 23, 5);
    }

    #[test]
    fn register_path_matches_oracle_without_prefilter() {
        assert_engine_correct(&BitParallelEngine::without_prefilter(), 24, 3);
    }

    #[test]
    fn batched_path_matches_oracle() {
        assert_engine_correct(&BitParallelEngine::batched(), 25, 0);
        assert_engine_correct(&BitParallelEngine::batched(), 26, 3);
        assert_eq!(BitParallelEngine::batched().name(), "bitparallel-hyperscan-batched");
    }

    #[test]
    fn batched_pamless_guides_fall_back_to_registers() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::none()).unwrap();
        let (genome, _, _) = planted_workload(27, 0);
        let guides = vec![guide];
        let mut m = SearchMetrics::default();
        let batched =
            BitParallelEngine::batched().search_metered(&genome, &guides, 1, &mut m).unwrap();
        let truth = ScalarEngine::new().search(&genome, &guides, 1).unwrap();
        assert_eq!(batched, truth);
        // The fallback is the register machine, not the seed automaton.
        assert_eq!(m.counters.multiseed_candidates, 0);
        assert!(m.counters.bit_steps > 0);
    }

    #[test]
    fn prefiltered_and_register_paths_agree() {
        let (genome, guides, _) = planted_workload(31, 3);
        let fast = BitParallelEngine::new().search(&genome, &guides, 3).unwrap();
        let plain = BitParallelEngine::without_prefilter().search(&genome, &guides, 3).unwrap();
        assert_eq!(fast, plain);
    }

    #[test]
    fn pamless_guides_fall_back_to_registers() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::none()).unwrap();
        let (genome, _, _) = planted_workload(32, 0);
        let guides = vec![guide];
        let fast = BitParallelEngine::new().search(&genome, &guides, 1).unwrap();
        let truth = ScalarEngine::new().search(&genome, &guides, 1).unwrap();
        assert_eq!(fast, truth);
        // No anchor gauge when the register path runs.
        let mut m = SearchMetrics::default();
        let _ = BitParallelEngine::new().search_metered(&genome, &guides, 1, &mut m).unwrap();
        assert_eq!(m.gauge("anchor_rate"), None);
    }

    #[test]
    fn anchor_gauge_reports_pam_rate() {
        let (genome, guides, _) = planted_workload(33, 1);
        let mut m = SearchMetrics::default();
        let _ = BitParallelEngine::new().search_metered(&genome, &guides, 1, &mut m).unwrap();
        // NGG both strands: 1/16 + 1/16.
        assert!((m.gauge("anchor_rate").unwrap() - 0.125).abs() < 1e-12);
        assert!(m.counters.pam_anchors_tested > 0);
        assert!(m.counters.early_exits > 0);
    }

    #[test]
    fn pam_mismatch_never_paid_from_budget() {
        // Site with perfect spacer but broken PAM must not appear even at
        // high budget.
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let genome = crispr_genome::Genome::from_seq(
            "TTTTGATTACAGATTACAGATTACTTTAAAA".parse().unwrap(), // PAM = TTT
        );
        for engine in [BitParallelEngine::new(), BitParallelEngine::without_prefilter()] {
            let hits = engine.search(&genome, std::slice::from_ref(&guide), 6).unwrap();
            assert!(hits.iter().all(|h| h.pos != 4 || h.strand == crispr_genome::Strand::Reverse));
        }
    }

    #[test]
    fn sites_longer_than_64_are_rejected() {
        let guide = Guide::new("g", "A".repeat(70).parse().unwrap(), Pam::ngg()).unwrap();
        let genome = crispr_genome::Genome::from_seq("ACGT".parse().unwrap());
        assert!(matches!(
            BitParallelEngine::new().search(&genome, &[guide], 1),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn agrees_with_scalar_on_adversarial_tandem_repeats() {
        use crispr_genome::synth::{RepeatFamily, SynthSpec};
        let genome = SynthSpec::new(20_000)
            .seed(9)
            .repeat_family(RepeatFamily { unit_len: 23, copies: 200, divergence: 0.08 })
            .generate();
        let guides = crispr_guides::genset::guides_from_genome(&genome, 4, 20, &Pam::ngg(), 10);
        assert!(!guides.is_empty());
        for k in [1, 3] {
            let fast = BitParallelEngine::new().search(&genome, &guides, k).unwrap();
            let truth = ScalarEngine::new().search(&genome, &guides, k).unwrap();
            assert_eq!(fast, truth, "k={k}");
        }
    }
}
