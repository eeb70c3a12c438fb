//! Direct execution of the compiled mismatch automata — the functional
//! behaviour every platform simulator shares, exposed as a plain CPU
//! engine.
//!
//! Frontier simulation costs O(active states) per symbol, which for
//! mismatch grids grows with guides × k. That unfavourable constant is
//! precisely why HyperScan's register lowering ([`crate::BitParallelEngine`])
//! wins on CPU while spatial platforms, which evaluate all states in
//! parallel silicon, do not care — the comparison in ablation A1.

use crate::engine::{validate_guides, Engine, PreparedSearch};
use crate::EngineError;
use crispr_automata::sim::Simulator;
use crispr_genome::PackedView;
use crispr_guides::{compile, CompileOptions, Guide, Hit, ReportCode};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// NFA frontier-simulation engine over the compiled mismatch automata.
#[derive(Debug, Clone, Copy, Default)]
pub struct NfaEngine {
    _private: (),
}

impl NfaEngine {
    /// Creates the engine.
    pub fn new() -> NfaEngine {
        NfaEngine::default()
    }
}

/// Compiled form: the guide-set automaton. The frontier itself is
/// per-scan state, built fresh for each view so one compiled set can
/// serve concurrent scans.
#[derive(Debug)]
struct NfaPrepared {
    set: compile::CompiledSet,
}

impl PreparedSearch for NfaPrepared {
    fn site_len(&self) -> usize {
        self.set.site_len
    }

    fn scan(
        &self,
        view: &PackedView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:nfa");
        let scan_start = Instant::now();
        let mut sim = Simulator::new(&self.set.automaton);
        let mut reports = Vec::new();
        m.counters.bit_steps += view.len() as u64;
        m.counters.windows_scanned += (view.len() + 1).saturating_sub(self.set.site_len) as u64;
        for code in view.codes() {
            sim.step(code, &mut reports);
        }
        for report in &reports {
            let code = ReportCode(report.code);
            out.push(Hit {
                contig: 0,
                pos: (report.pos - self.set.site_len) as u64,
                guide: code.guide_index(),
                strand: code.strand(),
                mismatches: code.mismatches(),
            });
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
        Ok(())
    }

    fn record_gauges(&self, m: &mut SearchMetrics) {
        m.set_gauge("nfa_states", self.set.automaton.state_count() as f64);
    }
}

impl Engine for NfaEngine {
    fn name(&self) -> &'static str {
        "nfa-frontier"
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        validate_guides(guides, k)?;
        let set = compile::compile_guides(guides, &CompileOptions::new(k))?;
        Ok(Box::new(NfaPrepared { set }))
    }
}

/// Converts raw simulator reports into hits — shared by the platform
/// simulators, which produce the same report stream this engine does.
pub fn reports_to_hits(
    reports: &[crispr_automata::sim::Report],
    site_len: usize,
    contig: u32,
) -> Vec<Hit> {
    reports
        .iter()
        .map(|r| {
            let code = ReportCode(r.code);
            Hit {
                contig,
                pos: (r.pos - site_len) as u64,
                guide: code.guide_index(),
                strand: code.strand(),
                mismatches: code.mismatches(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::assert_engine_correct;

    #[test]
    fn matches_oracle_k0() {
        assert_engine_correct(&NfaEngine::new(), 31, 0);
    }

    #[test]
    fn matches_oracle_k2() {
        assert_engine_correct(&NfaEngine::new(), 32, 2);
    }

    #[test]
    fn matches_oracle_k4() {
        assert_engine_correct(&NfaEngine::new(), 33, 4);
    }

    #[test]
    fn multi_contig_positions_are_per_contig() {
        use crispr_genome::synth::SynthSpec;
        use crispr_guides::genset;
        let genome = SynthSpec::new(20_000).seed(41).contigs(4).generate();
        let guides = genset::random_guides(2, 20, &crispr_guides::Pam::ngg(), 42);
        let hits = NfaEngine::new().search(&genome, &guides, 3).unwrap();
        let truth = crate::ScalarEngine::new().search(&genome, &guides, 3).unwrap();
        assert_eq!(hits, truth);
    }
}
