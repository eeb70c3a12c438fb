use crispr_engines::{
    BitParallelEngine, CasOffinderCpuEngine, CasotEngine, DfaEngine, Engine, NfaEngine,
    ScalarEngine,
};
use crispr_model::names::unknown_value_message;
use std::fmt;

/// An execution target for an off-target search — the paper's evaluation
/// matrix as an enum, and the one table that names every engine: the CLI,
/// the daemon and [`crate::OffTargetSearch`] all resolve names and build
/// CPU engines through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Platform {
    /// Per-window scalar scoring: the obviously-correct oracle.
    CpuScalar,
    /// Cas-OFFinder's algorithm on the CPU (brute force, PAM-first,
    /// packed compare) — baseline.
    CpuCasOffinder,
    /// CasOT's algorithm (PAM-anchored seed-and-extend) — baseline.
    CpuCasot,
    /// Bit-parallel Hamming shift-and: the HyperScan-class automata-on-CPU
    /// data point.
    CpuBitParallel,
    /// The whole guide set behind the shared multi-seed automaton
    /// ([`crispr_engines::multiseed`]); a set it cannot batch runs the
    /// per-guide bit-parallel anchor-and-verify of
    /// [`Platform::CpuBitParallel`] instead.
    CpuBitParallelBatched,
    /// Direct frontier simulation of the mismatch NFAs.
    CpuNfa,
    /// Ahead-of-time subset-constructed DFA scan.
    CpuDfa,
    /// Micron Automata Processor (modeled timing, exact hits).
    Ap,
    /// FPGA spatial automata (modeled timing, exact hits).
    Fpga,
    /// iNFAnt2-class GPU NFA engine (modeled timing, exact hits).
    GpuInfant2,
    /// Cas-OFFinder's GPU kernel (modeled timing, exact hits) — baseline.
    GpuCasOffinder,
}

/// Platform names that no longer exist, each with the platform that now
/// runs its work. Read only on the error path, for the did-you-mean hint
/// edit distance cannot give.
const RETIRED: [(&str, Platform); 2] = [
    ("cpu-cas-offinder-batched", Platform::CpuBitParallelBatched),
    ("cpu-casot-batched", Platform::CpuBitParallelBatched),
];

impl Platform {
    /// Every platform, baselines and automata approaches alike.
    pub const ALL: [Platform; 11] = [
        Platform::CpuScalar,
        Platform::CpuCasOffinder,
        Platform::CpuCasot,
        Platform::CpuBitParallel,
        Platform::CpuBitParallelBatched,
        Platform::CpuNfa,
        Platform::CpuDfa,
        Platform::Ap,
        Platform::Fpga,
        Platform::GpuInfant2,
        Platform::GpuCasOffinder,
    ];

    /// The paper's comparison set: the two baselines plus the four
    /// automata platforms.
    pub const PAPER_MATRIX: [Platform; 6] = [
        Platform::CpuCasot,
        Platform::GpuCasOffinder,
        Platform::CpuBitParallel,
        Platform::GpuInfant2,
        Platform::Fpga,
        Platform::Ap,
    ];

    /// Short stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            Platform::CpuScalar => "cpu-scalar",
            Platform::CpuCasOffinder => "cpu-cas-offinder",
            Platform::CpuCasot => "cpu-casot",
            Platform::CpuBitParallel => "cpu-hyperscan",
            Platform::CpuBitParallelBatched => "cpu-hyperscan-batched",
            Platform::CpuNfa => "cpu-nfa",
            Platform::CpuDfa => "cpu-dfa",
            Platform::Ap => "ap",
            Platform::Fpga => "fpga",
            Platform::GpuInfant2 => "gpu-infant2",
            Platform::GpuCasOffinder => "gpu-cas-offinder",
        }
    }

    /// Whether the timing is an analytic model (accelerators) rather than
    /// measured wall-clock (CPU engines).
    pub fn is_modeled(self) -> bool {
        matches!(
            self,
            Platform::Ap | Platform::Fpga | Platform::GpuInfant2 | Platform::GpuCasOffinder
        )
    }

    /// The measured CPU platforms, in [`Platform::ALL`] order: the ones
    /// with a [`Platform::cpu_engine`], and the set the daemon serves.
    pub fn cpu() -> Vec<Platform> {
        Platform::ALL.into_iter().filter(|p| !p.is_modeled()).collect()
    }

    /// The engine a measured CPU platform runs, or `None` for a modeled
    /// accelerator.
    pub fn cpu_engine(self) -> Option<Box<dyn Engine + Send + Sync>> {
        Some(match self {
            Platform::CpuScalar => Box::new(ScalarEngine::new()),
            Platform::CpuCasOffinder => Box::new(CasOffinderCpuEngine::new()),
            Platform::CpuCasot => Box::new(CasotEngine::new()),
            Platform::CpuBitParallel => Box::new(BitParallelEngine::new()),
            Platform::CpuBitParallelBatched => Box::new(BitParallelEngine::batched()),
            Platform::CpuNfa => Box::new(NfaEngine::new()),
            Platform::CpuDfa => Box::new(DfaEngine::new()),
            Platform::Ap | Platform::Fpga | Platform::GpuInfant2 | Platform::GpuCasOffinder => {
                return None
            }
        })
    }

    /// Looks `name` up among `set`. An unknown name errs with the
    /// standard unknown-value message for `what`: the names in `set`,
    /// and a did-you-mean hint — the nearest name, or the successor of a
    /// retired one.
    ///
    /// # Errors
    ///
    /// The message above, when no platform in `set` is called `name`.
    pub fn parse_in(set: &[Platform], what: &str, name: &str) -> Result<Platform, String> {
        if let Some(&platform) = set.iter().find(|p| p.name() == name) {
            return Ok(platform);
        }
        let names: Vec<&str> = set.iter().map(|p| p.name()).collect();
        let mut message = unknown_value_message(what, name, &names);
        if let Some((_, successor)) = RETIRED.iter().find(|(retired, _)| *retired == name) {
            message.push_str(&format!("; did you mean {:?}?", successor.name()));
        }
        Err(message)
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Platform::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Platform::ALL.len());
    }

    #[test]
    fn classification() {
        assert!(Platform::Ap.is_modeled());
        assert!(!Platform::CpuBitParallel.is_modeled());
        assert!(Platform::GpuCasOffinder.is_modeled());
    }

    #[test]
    fn paper_matrix_is_subset_of_all() {
        for p in Platform::PAPER_MATRIX {
            assert!(Platform::ALL.contains(&p));
        }
    }

    #[test]
    fn exactly_the_measured_platforms_build_a_cpu_engine() {
        for p in Platform::ALL {
            assert_eq!(p.cpu_engine().is_some(), !p.is_modeled(), "{p}");
        }
    }

    #[test]
    fn retired_names_hint_at_their_successor() {
        for (retired, successor) in RETIRED {
            assert!(!Platform::ALL.iter().any(|p| p.name() == retired), "{retired} is live");
            let err = Platform::parse_in(&Platform::cpu(), "engine", retired).unwrap_err();
            assert!(err.contains(&format!("did you mean {:?}?", successor.name())), "{err}");
            assert_eq!(err.matches("did you mean").count(), 1, "{err}");
        }
        let err = Platform::parse_in(&Platform::cpu(), "engine", "ap").unwrap_err();
        assert!(err.contains("unknown engine \"ap\"") && !err.contains("fpga"), "{err}");
        assert_eq!(Platform::parse_in(&Platform::ALL, "platform", "ap"), Ok(Platform::Ap));
    }
}
