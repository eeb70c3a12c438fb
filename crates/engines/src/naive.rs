//! The Cas-OFFinder-class brute-force engine (CPU flavour).
//!
//! Cas-OFFinder compares every genome window against every pattern with no
//! filtering beyond (a) checking the cheap, highly-selective PAM positions
//! first and (b) aborting a comparison as soon as the mismatch budget is
//! exceeded. Its cost therefore grows with `genome × guides` and *rises*
//! with the budget k (later early exits) — the scaling the paper contrasts
//! against automata, whose cost is flat in both. The spacer comparison
//! here runs on the 2-bit packed genome, one XOR/popcount per 32 bases.
//!
//! With the PAM-anchor prefilter (the default on anchorable guide sets),
//! the per-window PAM probing is replaced by the shared bitwise anchor
//! pass of [`crate::prefilter`] — the per-candidate verify is unchanged,
//! only the walk to the candidates gets cheaper.

use crate::degrade::guarded_accel;
use crate::engine::{patterns, validate_guides, Engine, PreparedSearch, Site};
use crate::prefilter::AnchoredScan;
use crate::simd::SimdBackend;
use crate::EngineError;
use crispr_genome::{IupacCode, PackedSeq, PackedView};
use crispr_guides::{Guide, Hit, SitePattern};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// Precompiled form of one pattern for brute-force scanning.
#[derive(Debug)]
struct Precompiled {
    /// `(offset in site, accepted bases)` for PAM (uncounted) positions.
    pam_checks: Vec<(usize, IupacCode)>,
    /// Packed concrete bases of the counted (spacer) run.
    spacer: PackedSeq,
    /// Offset of the counted run within the site.
    spacer_offset: usize,
    guide_index: u32,
    strand: crispr_genome::Strand,
}

impl Precompiled {
    fn new(pattern: &SitePattern) -> Precompiled {
        let mut pam_checks = Vec::new();
        let mut spacer = PackedSeq::new();
        let mut spacer_offset = None;
        for (i, pos) in pattern.positions().iter().enumerate() {
            if pos.counted {
                if spacer_offset.is_none() {
                    spacer_offset = Some(i);
                }
                let base =
                    pos.class.bases().next().expect("counted positions are concrete single bases");
                debug_assert_eq!(pos.class.degeneracy(), 1);
                spacer.push(base);
            } else {
                pam_checks.push((i, pos.class));
            }
        }
        let spacer_offset = spacer_offset.expect("patterns contain a spacer");
        // The packed compare assumes the counted run is contiguous, which
        // holds for every PAM side/strand combination of real guides.
        debug_assert!(pam_checks
            .iter()
            .all(|&(i, _)| i < spacer_offset || i >= spacer_offset + spacer.len()));
        Precompiled {
            pam_checks,
            spacer,
            spacer_offset,
            guide_index: pattern.guide_index(),
            strand: pattern.strand(),
        }
    }
}

/// Brute-force direct-comparison engine; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct CasOffinderCpuEngine {
    prefilter: bool,
    simd: Option<SimdBackend>,
}

impl Default for CasOffinderCpuEngine {
    fn default() -> CasOffinderCpuEngine {
        CasOffinderCpuEngine::new()
    }
}

impl CasOffinderCpuEngine {
    /// Creates the engine (PAM-anchor prefilter enabled where applicable).
    pub fn new() -> CasOffinderCpuEngine {
        CasOffinderCpuEngine { prefilter: true, simd: None }
    }

    /// Creates the engine with the prefilter disabled — the per-window
    /// PAM-probe scan of the original tool. The ablation baseline.
    pub fn without_prefilter() -> CasOffinderCpuEngine {
        CasOffinderCpuEngine { prefilter: false, simd: None }
    }

    /// Forces the SIMD backend the per-guide kernels dispatch to; the
    /// default defers to `OFFTARGET_SIMD` and runtime detection (see
    /// [`crate::simd`]). An unavailable choice degrades to portable.
    pub fn with_simd(mut self, backend: SimdBackend) -> CasOffinderCpuEngine {
        self.simd = Some(backend);
        self
    }
}

/// Compiled form: per-pattern packed verifiers plus, when applicable, the
/// shared anchor deployment.
#[derive(Debug)]
struct CasOffinderPrepared {
    compiled: Vec<Precompiled>,
    anchored: Option<AnchoredScan>,
    site_len: usize,
    k: usize,
    /// Accelerator builds that failed during `prepare` and were replaced
    /// by a fallback path; surfaced as `degraded_paths`.
    degraded: u64,
}

impl PreparedSearch for CasOffinderPrepared {
    fn site_len(&self) -> usize {
        self.site_len
    }

    fn scan(
        &self,
        view: &PackedView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:casoffinder");
        if let Some(anchored) = &self.anchored {
            anchored.scan(view, self.k, out, m);
            return Ok(());
        }
        if view.len() < self.site_len {
            return Ok(());
        }
        self.scan_brute(view, out, m);
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

impl CasOffinderPrepared {
    /// The unfiltered per-window probe-then-verify scan of the original
    /// tool; `scan` dispatches here when no anchor pass applies.
    fn scan_brute(&self, view: &PackedView<'_>, out: &mut Vec<Hit>, m: &mut SearchMetrics) {
        let scan_start = Instant::now();
        for start in 0..=view.len() - self.site_len {
            m.counters.windows_scanned += 1;
            let site = Site::read(view, start, self.site_len);
            'pattern: for p in &self.compiled {
                for &(offset, class) in &p.pam_checks {
                    if !class.matches(site.base(offset)) {
                        continue 'pattern;
                    }
                }
                m.counters.pam_anchors_tested += 1;
                if let Some(mm) = view.count_mismatches(&p.spacer, start + p.spacer_offset, self.k)
                {
                    m.counters.candidates_verified += 1;
                    out.push(Hit {
                        contig: 0,
                        pos: start as u64,
                        guide: p.guide_index,
                        strand: p.strand,
                        mismatches: mm as u8,
                    });
                } else {
                    m.counters.early_exits += 1;
                }
            }
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
    }
}

impl Engine for CasOffinderCpuEngine {
    fn name(&self) -> &'static str {
        "cas-offinder-cpu"
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        let site_len = validate_guides(guides, k)?;
        let pattern_list = patterns(guides);
        let mut degraded = 0;
        let backend = crate::simd::resolve(self.simd);
        let anchored = if self.prefilter {
            guarded_accel("prefilter.build", &mut degraded, || {
                AnchoredScan::build(&pattern_list, site_len, backend)
            })
        } else {
            None
        };
        let compiled = pattern_list.iter().map(Precompiled::new).collect();
        Ok(Box::new(CasOffinderPrepared { compiled, anchored, site_len, k, degraded }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::{assert_engine_correct, planted_workload};

    #[test]
    fn matches_oracle_k0() {
        assert_engine_correct(&CasOffinderCpuEngine::new(), 11, 0);
    }

    #[test]
    fn matches_oracle_k2() {
        assert_engine_correct(&CasOffinderCpuEngine::new(), 12, 2);
    }

    #[test]
    fn matches_oracle_k4() {
        assert_engine_correct(&CasOffinderCpuEngine::new(), 13, 4);
    }

    #[test]
    fn unfiltered_path_matches_oracle() {
        assert_engine_correct(&CasOffinderCpuEngine::without_prefilter(), 14, 2);
    }

    #[test]
    fn prefilter_preserves_pam_anchor_counter() {
        // The anchor pass is PAM-exact, so `pam_anchors_tested` must count
        // the same (window, pattern) events with and without the filter.
        let (genome, guides, _) = planted_workload(15, 2);
        let mut filtered = SearchMetrics::default();
        let mut unfiltered = SearchMetrics::default();
        let fast =
            CasOffinderCpuEngine::new().search_metered(&genome, &guides, 2, &mut filtered).unwrap();
        let slow = CasOffinderCpuEngine::without_prefilter()
            .search_metered(&genome, &guides, 2, &mut unfiltered)
            .unwrap();
        assert_eq!(fast, slow);
        assert_eq!(filtered.counters.pam_anchors_tested, unfiltered.counters.pam_anchors_tested);
        assert_eq!(filtered.counters.windows_scanned, unfiltered.counters.windows_scanned);
    }

    #[test]
    fn empty_guides_rejected() {
        let genome = crispr_genome::Genome::from_seq("ACGT".parse().unwrap());
        assert!(CasOffinderCpuEngine::new().search(&genome, &[], 1).is_err());
    }
}
