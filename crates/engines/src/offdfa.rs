//! DFA-mode engine: determinize the compiled mismatch automata ahead of
//! time, then scan at one table lookup per symbol.
//!
//! This is HyperScan's preferred mode when the determinized machine fits —
//! scan cost is independent of pattern count — and the paper's argument
//! for spatial NFAs in a nutshell: the subset construction blows up
//! combinatorially with guides × k, so the engine takes a state budget and
//! reports [`crispr_automata::AutomataError::DfaTooLarge`] where
//! determinization stops being viable (charted by ablation A1).

use crate::engine::{validate_guides, Engine, PreparedSearch};
use crate::EngineError;
use crispr_genome::PackedView;
use crispr_guides::{compile, CompileOptions, Guide, Hit, ReportCode};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// Ahead-of-time determinizing engine with a configurable state budget.
#[derive(Debug, Clone, Copy)]
pub struct DfaEngine {
    max_states: usize,
    minimize: bool,
}

impl Default for DfaEngine {
    fn default() -> DfaEngine {
        DfaEngine { max_states: 1 << 20, minimize: false }
    }
}

impl DfaEngine {
    /// Creates the engine with a 2^20-state budget and no minimization.
    pub fn new() -> DfaEngine {
        DfaEngine::default()
    }

    /// Sets the determinization state budget.
    pub fn with_max_states(mut self, max_states: usize) -> DfaEngine {
        self.max_states = max_states;
        self
    }

    /// Enables Hopcroft minimization after determinization (slower
    /// compile, smaller table).
    pub fn minimized(mut self) -> DfaEngine {
        self.minimize = true;
        self
    }

    /// Determinized state count for a guide set — exposed for the DFA
    /// blow-up ablation.
    ///
    /// # Errors
    ///
    /// Same compilation errors as [`DfaEngine::search`].
    pub fn dfa_states(&self, guides: &[Guide], k: usize) -> Result<usize, EngineError> {
        let set = compile::compile_guides(guides, &CompileOptions::new(k))?;
        let dfa = crispr_automata::subset::determinize(&set.automaton, 4, self.max_states)?;
        let dfa = if self.minimize { crispr_automata::minimize::minimize(&dfa) } else { dfa };
        Ok(dfa.state_count())
    }
}

/// Compiled form: the determinized transition table. The subset blow-up
/// is paid exactly once here, however many views are scanned.
#[derive(Debug)]
struct DfaPrepared {
    dfa: crispr_automata::dfa::Dfa,
    site_len: usize,
}

impl PreparedSearch for DfaPrepared {
    fn site_len(&self) -> usize {
        self.site_len
    }

    fn scan(
        &self,
        view: &PackedView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:offdfa");
        let scan_start = Instant::now();
        let mut reports = Vec::new();
        self.dfa.scan_into(view.codes(), &mut reports)?;
        m.counters.bit_steps += view.len() as u64;
        m.counters.windows_scanned += (view.len() + 1).saturating_sub(self.site_len) as u64;
        for report in &reports {
            let code = ReportCode(report.code);
            out.push(Hit {
                contig: 0,
                pos: (report.pos - self.site_len) as u64,
                guide: code.guide_index(),
                strand: code.strand(),
                mismatches: code.mismatches(),
            });
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
        Ok(())
    }

    fn record_gauges(&self, m: &mut SearchMetrics) {
        m.set_gauge("dfa_states", self.dfa.state_count() as f64);
    }
}

impl Engine for DfaEngine {
    fn name(&self) -> &'static str {
        "dfa-subset"
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        validate_guides(guides, k)?;
        let set = compile::compile_guides(guides, &CompileOptions::new(k))?;
        let dfa = crispr_automata::subset::determinize(&set.automaton, 4, self.max_states)?;
        let dfa = if self.minimize { crispr_automata::minimize::minimize(&dfa) } else { dfa };
        Ok(Box::new(DfaPrepared { dfa, site_len: set.site_len }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::assert_engine_correct;

    #[test]
    fn matches_oracle_k0() {
        assert_engine_correct(&DfaEngine::new(), 51, 0);
    }

    #[test]
    fn matches_oracle_k1() {
        assert_engine_correct(&DfaEngine::new(), 52, 1);
    }

    #[test]
    fn minimized_matches_oracle_k1() {
        assert_engine_correct(&DfaEngine::new().minimized(), 53, 1);
    }

    #[test]
    fn state_budget_error_is_loud() {
        use crispr_guides::genset;
        let genome = crispr_genome::synth::SynthSpec::new(1000).seed(1).generate();
        let guides = genset::random_guides(4, 20, &crispr_guides::Pam::ngg(), 2);
        let tiny = DfaEngine::new().with_max_states(10);
        assert!(matches!(
            tiny.search(&genome, &guides, 2),
            Err(EngineError::Automata(crispr_automata::AutomataError::DfaTooLarge { .. }))
        ));
    }

    #[test]
    fn dfa_states_grow_with_k() {
        use crispr_guides::genset;
        let guides = genset::random_guides(1, 20, &crispr_guides::Pam::ngg(), 3);
        let engine = DfaEngine::new();
        let s1 = engine.dfa_states(&guides, 0).unwrap();
        let s2 = engine.dfa_states(&guides, 1).unwrap();
        let s3 = engine.dfa_states(&guides, 2).unwrap();
        assert!(s1 < s2 && s2 < s3, "{s1} {s2} {s3}");
    }
}
