//! The CasOT-class baseline: PAM-anchored scanning with a seed/total
//! mismatch split.
//!
//! CasOT walks the genome looking for PAM occurrences (on both strands),
//! then compares each anchored candidate site against every guide,
//! checking the PAM-proximal *seed* region first under a tighter limit and
//! the full spacer second. Cost grows with `PAM density × guides × spacer
//! length` and with k (weaker early exits), the same unfavourable scaling
//! as brute force but with the PAM filter hoisted out.
//!
//! The PAM walk itself is delegated to the shared anchor prefilter
//! ([`crate::prefilter`]) when the guide set is anchorable: instead of
//! probing PAM positions window by window, one bitwise pass yields the
//! candidate starts and the seed/distal compare runs only there. The
//! verification order and the seed-limit semantics are unchanged.
//!
//! Note on absolute numbers: the published CasOT is a Perl program; this
//! reimplementation of its algorithm in Rust is dramatically faster than
//! the original, so measured speedup *ratios* versus automata engines are
//! compressed relative to the paper's 600×/29.7× (which benchmarked the
//! Perl tool). The experiment harness reports both the measured ratio and
//! a modeled one with a documented interpreter factor; see EXPERIMENTS.md.

use crate::degrade::guarded_accel;
use crate::engine::AnchorGroup;
use crate::engine::{patterns, validate_guides, Engine, PreparedSearch, Site};
use crate::prefilter::anchor_plan;
use crate::EngineError;
use crispr_genome::{Base, IupacCode, PackedView};
use crispr_guides::{Guide, Hit, SitePattern};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// PAM-anchored seed-and-compare baseline; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct CasotEngine {
    seed_len: usize,
    seed_mismatch_limit: Option<usize>,
    prefilter: bool,
}

impl Default for CasotEngine {
    fn default() -> CasotEngine {
        // CasOT's default: 12-base PAM-proximal seed, no extra seed limit
        // (so results equal the other engines'; a limit tightens them).
        CasotEngine { seed_len: 12, seed_mismatch_limit: None, prefilter: true }
    }
}

impl CasotEngine {
    /// Creates the baseline with CasOT's default 12-base seed and no seed
    /// mismatch limit (output-compatible with the other engines).
    pub fn new() -> CasotEngine {
        CasotEngine::default()
    }

    /// Sets the seed length (PAM-proximal region checked first).
    pub fn with_seed_len(mut self, seed_len: usize) -> CasotEngine {
        self.seed_len = seed_len;
        self
    }

    /// Restricts mismatches within the seed, CasOT's `-m1`-style knob.
    /// With a limit the engine returns a *subset* of the other engines'
    /// hits (biologically motivated filtering, off by default).
    pub fn with_seed_mismatch_limit(mut self, limit: usize) -> CasotEngine {
        self.seed_mismatch_limit = Some(limit);
        self
    }

    /// Disables the bitwise anchor pass — PAM positions are probed window
    /// by window as in the original tool. The ablation baseline.
    pub fn without_prefilter(mut self) -> CasotEngine {
        self.prefilter = false;
        self
    }
}

/// One pattern prepared for PAM-anchored comparison.
#[derive(Debug)]
struct Anchored {
    /// `(offset, class)` of PAM positions.
    pam: Vec<(usize, IupacCode)>,
    /// Counted positions ordered seed-first (PAM-proximal before distal).
    spacer: Vec<(usize, Base)>,
    /// How many leading entries of `spacer` form the seed.
    seed_len: usize,
    guide_index: u32,
    strand: crispr_genome::Strand,
}

impl Anchored {
    fn new(pattern: &SitePattern, seed_len: usize) -> Anchored {
        let mut pam = Vec::new();
        let mut counted: Vec<(usize, Base)> = Vec::new();
        for (i, pos) in pattern.positions().iter().enumerate() {
            if pos.counted {
                let base = pos.class.bases().next().expect("spacer positions are concrete");
                counted.push((i, base));
            } else {
                pam.push((i, pos.class));
            }
        }
        // PAM-proximal ordering: positions nearest any PAM position come
        // first. With a contiguous PAM block this is distance to the block.
        if let (Some(&(first_pam, _)), true) = (pam.first(), !pam.is_empty()) {
            let last_pam = pam.last().expect("non-empty").0;
            counted.sort_by_key(|&(i, _)| if i < first_pam { first_pam - i } else { i - last_pam });
        }
        Anchored {
            pam,
            seed_len: seed_len.min(counted.len()),
            spacer: counted,
            guide_index: pattern.guide_index(),
            strand: pattern.strand(),
        }
    }

    /// Whether the PAM positions of `site` match, probed one by one as
    /// the original tool does when no anchor pass runs.
    #[inline]
    fn pam_matches(&self, site: &Site<'_, '_>) -> bool {
        self.pam.iter().all(|&(offset, class)| class.matches(site.base(offset)))
    }
}

/// Compiled form: per-pattern seed/distal comparers plus, when the set is
/// anchorable, the grouped anchor scanners that replace per-window PAM
/// probing.
#[derive(Debug)]
struct CasotPrepared {
    anchored: Vec<Anchored>,
    /// `(scanner, member indices into anchored)` per PAM signature, with
    /// the summed anchor rate; `None` → probe windows directly.
    plan: Option<(Vec<AnchorGroup>, f64)>,
    site_len: usize,
    k: usize,
    seed_limit: usize,
    /// Accelerator builds that failed during `prepare` and were replaced
    /// by a fallback path; surfaced as `degraded_paths`.
    degraded: u64,
}

impl CasotPrepared {
    /// Seed-then-distal compare of pattern `a` against the window at
    /// `start`, whose PAM already matched (by the anchor pass or
    /// [`Anchored::pam_matches`]), counting into `m` exactly like the
    /// original per-window loop.
    #[inline]
    fn verify(
        &self,
        a: &Anchored,
        site: &Site<'_, '_>,
        start: usize,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) {
        m.counters.pam_anchors_tested += 1;
        // Seed first under the seed limit, then the rest under the total
        // budget.
        let mut mismatches = 0usize;
        for &(offset, base) in &a.spacer[..a.seed_len] {
            if site.base(offset) != base {
                mismatches += 1;
                if mismatches > self.k || mismatches > self.seed_limit {
                    m.counters.early_exits += 1;
                    return;
                }
            }
        }
        m.counters.seed_survivors += 1;
        for &(offset, base) in &a.spacer[a.seed_len..] {
            if site.base(offset) != base {
                mismatches += 1;
                if mismatches > self.k {
                    m.counters.early_exits += 1;
                    return;
                }
            }
        }
        out.push(Hit {
            contig: 0,
            pos: start as u64,
            guide: a.guide_index,
            strand: a.strand,
            mismatches: mismatches as u8,
        });
    }
}

impl PreparedSearch for CasotPrepared {
    fn site_len(&self) -> usize {
        self.site_len
    }

    fn scan(
        &self,
        view: &PackedView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        if view.len() < self.site_len {
            return Ok(());
        }
        let _kernel = crispr_trace::span("kernel:casot");
        let scan_start = Instant::now();
        if let Some((groups, _)) = &self.plan {
            m.counters.windows_scanned += (view.len() + 1 - self.site_len) as u64;
            for (scanner, members) in groups {
                for start in &scanner.candidates(view, self.site_len) {
                    let site = Site::read(view, start, self.site_len);
                    for &pi in members {
                        self.verify(&self.anchored[pi], &site, start, out, m);
                    }
                }
            }
        } else {
            for start in 0..=view.len() - self.site_len {
                m.counters.windows_scanned += 1;
                let site = Site::read(view, start, self.site_len);
                for a in self.anchored.iter().filter(|a| a.pam_matches(&site)) {
                    self.verify(a, &site, start, out, m);
                }
            }
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
        Ok(())
    }

    fn record_gauges(&self, m: &mut SearchMetrics) {
        m.counters.degraded_paths += self.degraded;
        if let Some((_, rate)) = &self.plan {
            m.set_gauge("anchor_rate", *rate);
        }
    }
}

impl Engine for CasotEngine {
    fn name(&self) -> &'static str {
        "casot"
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        let site_len = validate_guides(guides, k)?;
        let pattern_list = patterns(guides);
        let mut degraded = 0;
        let plan = if self.prefilter {
            guarded_accel("prefilter.build", &mut degraded, || anchor_plan(&pattern_list, site_len))
        } else {
            None
        };
        let anchored: Vec<Anchored> =
            pattern_list.iter().map(|p| Anchored::new(p, self.seed_len)).collect();
        Ok(Box::new(CasotPrepared {
            anchored,
            plan,
            site_len,
            k,
            seed_limit: self.seed_mismatch_limit.unwrap_or(k),
            degraded,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::assert_engine_correct;
    use crate::engine::ScalarEngine;
    use crispr_guides::genset::{self, PlantPlan};
    use crispr_guides::Pam;

    #[test]
    fn matches_oracle_k0() {
        assert_engine_correct(&CasotEngine::new(), 61, 0);
    }

    #[test]
    fn matches_oracle_k3() {
        assert_engine_correct(&CasotEngine::new(), 62, 3);
    }

    #[test]
    fn unfiltered_path_matches_oracle() {
        assert_engine_correct(&CasotEngine::new().without_prefilter(), 68, 3);
    }

    #[test]
    fn seed_limit_filters_distal_heavy_sites() {
        let genome = crispr_genome::synth::SynthSpec::new(30_000).seed(63).generate();
        let guides = genset::random_guides(2, 20, &Pam::ngg(), 64);
        let (genome, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(3, 4), 65);
        let all = CasotEngine::new().search(&genome, &guides, 3).unwrap();
        let filtered =
            CasotEngine::new().with_seed_mismatch_limit(0).search(&genome, &guides, 3).unwrap();
        assert!(filtered.len() <= all.len());
        // Every filtered hit is also an unfiltered hit.
        let (extra, _) = crispr_guides::diff(&filtered, &all);
        assert!(extra.is_empty());
        // And some multi-mismatch site should have been dropped (with 24
        // planted sites at k ≤ 3 this is overwhelmingly likely).
        assert!(filtered.len() < all.len());
        // The seed limit behaves identically without the anchor pass.
        let filtered_plain = CasotEngine::new()
            .with_seed_mismatch_limit(0)
            .without_prefilter()
            .search(&genome, &guides, 3)
            .unwrap();
        assert_eq!(filtered, filtered_plain);
    }

    #[test]
    fn seed_ordering_is_pam_proximal() {
        use crispr_genome::Strand;
        let g = crispr_guides::Guide::new("g", "ACGTACGTACGTACGTACGT".parse().unwrap(), Pam::ngg())
            .unwrap();
        let p = SitePattern::from_guide(&g, Strand::Forward);
        let a = Anchored::new(&p, 12);
        // Forward 3'-PAM: seed should start from position 19 (nearest PAM
        // at 20..23) and walk left.
        assert_eq!(a.spacer[0].0, 19);
        assert_eq!(a.spacer[1].0, 18);
        // Reverse strand: PAM occupies 0..3, seed starts at 3.
        let pr = SitePattern::from_guide(&g, Strand::Reverse);
        let ar = Anchored::new(&pr, 12);
        assert_eq!(ar.spacer[0].0, 3);
        assert_eq!(ar.spacer[1].0, 4);
    }

    #[test]
    fn no_seed_limit_equals_scalar_even_with_tiny_seed() {
        let genome = crispr_genome::synth::SynthSpec::new(10_000).seed(66).generate();
        let guides = genset::random_guides(2, 20, &Pam::ngg(), 67);
        let a = CasotEngine::new().with_seed_len(4).search(&genome, &guides, 3).unwrap();
        let b = ScalarEngine::new().search(&genome, &guides, 3).unwrap();
        assert_eq!(a, b);
    }
}
