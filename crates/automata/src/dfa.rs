//! Dense deterministic finite automata over a small alphabet.
//!
//! A HyperScan-class engine converts small NFAs to DFAs ahead of time when
//! the determinized state count is tolerable; scanning then costs one table
//! lookup per input symbol regardless of pattern count. Because reports in
//! the homogeneous model fire on the *symbol that matches* a reporting
//! state, the DFA is a Mealy machine: report-code sets hang off
//! transitions, not states.

use crate::AutomataError;

/// A report emitted during a DFA scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DfaReport {
    /// Offset just past the symbol on which the report fired (same
    /// convention as [`crate::sim::Report::pos`]).
    pub pos: usize,
    /// The report code.
    pub code: u32,
}

/// A dense Mealy-style DFA. Build with [`DfaBuilder`] or via
/// [`crate::subset::determinize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    alphabet: usize,
    start: u32,
    table: Vec<u32>,
    outputs: Vec<u32>,
    report_sets: Vec<Vec<u32>>,
}

impl Dfa {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.table.len().checked_div(self.alphabet).unwrap_or(0)
    }

    /// Alphabet size; valid input symbols are `0..alphabet`.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// The start state.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Next state from `state` on `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `symbol` is out of range.
    #[inline]
    pub fn next(&self, state: u32, symbol: u8) -> u32 {
        self.table[state as usize * self.alphabet + symbol as usize]
    }

    /// Report codes emitted when taking the transition from `state` on
    /// `symbol`.
    #[inline]
    pub fn reports_on(&self, state: u32, symbol: u8) -> &[u32] {
        let idx = self.outputs[state as usize * self.alphabet + symbol as usize];
        &self.report_sets[idx as usize]
    }

    /// Scans `input`, returning every report in order.
    ///
    /// # Errors
    ///
    /// [`AutomataError::SymbolOutOfAlphabet`] if an input symbol is not in
    /// `0..alphabet`.
    pub fn scan(&self, input: &[u8]) -> Result<Vec<DfaReport>, AutomataError> {
        let mut reports = Vec::new();
        self.scan_into(input.iter().copied(), &mut reports)?;
        Ok(reports)
    }

    /// Scans a stream of symbols, appending reports to `reports` — the
    /// form that reads a genome's 2-bit codes in place, with no symbol
    /// buffer. See [`Dfa::scan`].
    ///
    /// # Errors
    ///
    /// [`AutomataError::SymbolOutOfAlphabet`] as for [`Dfa::scan`].
    pub fn scan_into(
        &self,
        input: impl IntoIterator<Item = u8>,
        reports: &mut Vec<DfaReport>,
    ) -> Result<(), AutomataError> {
        let mut state = self.start;
        for (i, symbol) in input.into_iter().enumerate() {
            if symbol as usize >= self.alphabet {
                return Err(AutomataError::SymbolOutOfAlphabet { symbol, alphabet: self.alphabet });
            }
            let cell = state as usize * self.alphabet + symbol as usize;
            let out = self.outputs[cell];
            if out != 0 {
                for &code in &self.report_sets[out as usize] {
                    reports.push(DfaReport { pos: i + 1, code });
                }
            }
            state = self.table[cell];
        }
        Ok(())
    }

    /// Interns `codes` (sorted, deduplicated) into the report-set pool and
    /// returns its output index. Index 0 is always the empty set.
    fn intern(&mut self, mut codes: Vec<u32>) -> u32 {
        codes.sort_unstable();
        codes.dedup();
        if codes.is_empty() {
            return 0;
        }
        if let Some(i) = self.report_sets.iter().position(|s| *s == codes) {
            return i as u32;
        }
        self.report_sets.push(codes);
        (self.report_sets.len() - 1) as u32
    }
}

/// Incremental builder for [`Dfa`].
#[derive(Debug, Clone)]
pub struct DfaBuilder {
    dfa: Dfa,
}

impl DfaBuilder {
    /// Starts a DFA over symbols `0..alphabet`.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet` is 0 or greater than 256.
    pub fn new(alphabet: usize) -> DfaBuilder {
        assert!(alphabet > 0 && alphabet <= 256, "alphabet must be within 1..=256");
        DfaBuilder {
            dfa: Dfa {
                alphabet,
                start: 0,
                table: Vec::new(),
                outputs: Vec::new(),
                report_sets: vec![Vec::new()],
            },
        }
    }

    /// Adds a state with all transitions initially self-looping, returning
    /// its id.
    pub fn add_state(&mut self) -> u32 {
        let id = self.dfa.state_count() as u32;
        self.dfa.table.extend(std::iter::repeat_n(id, self.dfa.alphabet));
        self.dfa.outputs.extend(std::iter::repeat_n(0u32, self.dfa.alphabet));
        id
    }

    /// Sets the start state.
    pub fn set_start(&mut self, state: u32) {
        self.dfa.start = state;
    }

    /// Sets the transition `from --symbol--> to`, emitting `codes`.
    ///
    /// # Panics
    ///
    /// Panics if `from`, `to` or `symbol` is out of range.
    pub fn set_transition(&mut self, from: u32, symbol: u8, to: u32, codes: Vec<u32>) {
        assert!((symbol as usize) < self.dfa.alphabet, "symbol out of alphabet");
        assert!((to as usize) < self.dfa.state_count(), "target state out of range");
        let out = self.dfa.intern(codes);
        let cell = from as usize * self.dfa.alphabet + symbol as usize;
        self.dfa.table[cell] = to;
        self.dfa.outputs[cell] = out;
    }

    /// Number of states added so far.
    pub fn state_count(&self) -> usize {
        self.dfa.state_count()
    }

    /// Freezes the DFA.
    pub fn build(self) -> Dfa {
        self.dfa
    }
}

/// Read-only view of the pieces [`crate::minimize`] needs.
pub(crate) fn parts(dfa: &Dfa) -> (usize, u32, &[u32], &[u32], &[Vec<u32>]) {
    (dfa.alphabet, dfa.start, &dfa.table, &dfa.outputs, &dfa.report_sets)
}

/// Rebuilds a DFA from minimized parts.
pub(crate) fn from_parts(
    alphabet: usize,
    start: u32,
    table: Vec<u32>,
    outputs: Vec<u32>,
    report_sets: Vec<Vec<u32>>,
) -> Dfa {
    Dfa { alphabet, start, table, outputs, report_sets }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DFA matching the literal `0 1` (two-symbol alphabet not required;
    /// alphabet of 4 like DNA) at every offset.
    fn literal01() -> Dfa {
        let mut b = DfaBuilder::new(4);
        let s0 = b.add_state(); // nothing matched
        let s1 = b.add_state(); // seen '0'
        for sym in 0..4u8 {
            b.set_transition(s0, sym, if sym == 0 { s1 } else { s0 }, vec![]);
            let codes = if sym == 1 { vec![9] } else { vec![] };
            b.set_transition(s1, sym, if sym == 0 { s1 } else { s0 }, codes);
        }
        b.set_start(s0);
        b.build()
    }

    #[test]
    fn scan_reports_on_transitions() {
        let dfa = literal01();
        let reports = dfa.scan(&[0, 1, 2, 0, 0, 1]).unwrap();
        let ends: Vec<usize> = reports.iter().map(|r| r.pos).collect();
        assert_eq!(ends, vec![2, 6]);
        assert!(reports.iter().all(|r| r.code == 9));
    }

    #[test]
    fn scan_rejects_out_of_alphabet() {
        let dfa = literal01();
        assert_eq!(
            dfa.scan(&[0, 7]),
            Err(AutomataError::SymbolOutOfAlphabet { symbol: 7, alphabet: 4 })
        );
    }

    #[test]
    fn report_sets_are_interned() {
        let mut b = DfaBuilder::new(2);
        let s = b.add_state();
        b.set_transition(s, 0, s, vec![1, 2]);
        b.set_transition(s, 1, s, vec![2, 1]); // same set, different order
        let dfa = b.build();
        assert_eq!(dfa.reports_on(s, 0), dfa.reports_on(s, 1));
        assert_eq!(dfa.report_sets.len(), 2); // empty + {1,2}
    }

    #[test]
    fn builder_validates() {
        let mut b = DfaBuilder::new(2);
        let s = b.add_state();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.set_transition(s, 5, s, vec![]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn empty_scan() {
        let dfa = literal01();
        assert!(dfa.scan(&[]).unwrap().is_empty());
        assert_eq!(dfa.state_count(), 2);
        assert_eq!(dfa.alphabet(), 4);
    }
}
