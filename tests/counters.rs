//! Counter-semantics regressions: `SearchMetrics` counters must mean the
//! same thing whichever path produced them. The batched (anchor, then
//! fragment lookup) and per-guide paths run the same workload and their
//! counters are checked against each other: identical where the semantics
//! promise identity (`windows_scanned`, `candidates_verified`, hits),
//! subset-ordered where the batched path provably does less work
//! (`pam_anchors_tested`, `early_exits`), and path-exclusive for the
//! multiseed meters. The batched meters are also pinned to a brute-force
//! count. The parallel deployment must neither copy genome bytes (a copy
//! would show in its workers' `genome_load_s`) nor change any work
//! counter relative to the serial scan.

use crispr_offtarget::engines::{BitParallelEngine, CasOffinderCpuEngine, Engine, ParallelEngine};
use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::{Base, Genome, Strand};
use crispr_offtarget::guides::genset::{self, PlantPlan};
use crispr_offtarget::guides::{Guide, Hit, Pam, SitePattern};
use crispr_offtarget::model::SearchMetrics;

const K: usize = 3;

fn workload() -> (Genome, Vec<Guide>) {
    let genome = SynthSpec::new(60_000).seed(301).generate();
    let guides = genset::random_guides(4, 20, &Pam::ngg(), 302);
    let (genome, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(K, 3), 303);
    (genome, guides)
}

fn run(engine: &dyn Engine, genome: &Genome, guides: &[Guide]) -> (Vec<Hit>, SearchMetrics) {
    let mut m = SearchMetrics::default();
    let hits = engine.search_metered(genome, guides, K, &mut m).expect("engine runs");
    (hits, m)
}

#[test]
fn batched_counters_are_consistent_with_per_guide() {
    let (genome, guides) = workload();
    for (per_guide, batched) in [
        (
            Box::new(BitParallelEngine::new()) as Box<dyn Engine>,
            Box::new(BitParallelEngine::batched()) as Box<dyn Engine>,
        ),
        (Box::new(CasOffinderCpuEngine::new()), Box::new(BitParallelEngine::batched())),
    ] {
        let (hits_pg, m_pg) = run(per_guide.as_ref(), &genome, &guides);
        let (hits_b, m_b) = run(batched.as_ref(), &genome, &guides);
        let label = per_guide.name();
        assert_eq!(hits_b, hits_pg, "{label}: hit sets must be identical");
        // Both paths enumerate every window of every long-enough contig.
        assert_eq!(m_b.counters.windows_scanned, m_pg.counters.windows_scanned, "{label}");
        // `candidates_verified` counts within-budget verifications — the
        // hit count — on both paths, so it is exactly equal.
        assert_eq!(m_b.counters.candidates_verified, m_pg.counters.candidates_verified, "{label}");
        assert_eq!(m_b.counters.candidates_verified, m_b.counters.raw_hits, "{label}");
        // The seed automaton only ever *removes* (window, pattern) pairs
        // from the anchor path's work, never adds.
        assert!(
            m_b.counters.pam_anchors_tested <= m_pg.counters.pam_anchors_tested,
            "{label}: batched {} > per-guide {}",
            m_b.counters.pam_anchors_tested,
            m_pg.counters.pam_anchors_tested
        );
        assert!(m_b.counters.pam_anchors_tested > 0, "{label}");
        assert!(m_b.counters.early_exits <= m_pg.counters.early_exits, "{label}");
        // Multiseed meters are exclusive to the batched path.
        assert!(m_b.counters.multiseed_candidates >= m_b.counters.multiseed_positions, "{label}");
        assert!(m_b.counters.multiseed_positions > 0, "{label}");
        assert_eq!(m_pg.counters.multiseed_candidates, 0, "{label}");
        assert_eq!(m_pg.counters.multiseed_positions, 0, "{label}");
        // Derived gauge and compile-time gauges surface on the batched run.
        assert!(m_b.gauge("guides_per_candidate").expect("gauge present") >= 1.0, "{label}");
        assert!(m_b.gauge("seed_automaton_states").expect("gauge present") >= 1.0, "{label}");
        assert_eq!(m_pg.gauge("guides_per_candidate"), None, "{label}");
    }
}

#[test]
fn parallel_batched_preserves_counters_and_copies_nothing() {
    let (genome, guides) = workload();
    let (serial_hits, serial_m) = run(&BitParallelEngine::batched(), &genome, &guides);
    for threads in [2, 5] {
        let engine = ParallelEngine::new(BitParallelEngine::batched(), threads);
        let (par_hits, par_m) = run(&engine, &genome, &guides);
        assert_eq!(par_hits, serial_hits, "threads={threads}");
        // Chunk windows partition the contig windows exactly, so every
        // work counter — including the multiseed meters — is invariant
        // under chunking. (`raw_hits` equality doubles as the
        // no-duplicate-at-boundary regression.)
        assert_eq!(par_m.counters, serial_m.counters, "threads={threads}");
        // Workers scan views of the packed contigs; any copy or unpack
        // would be charged to their genome_load_s.
        let workers = &par_m.parallel.as_ref().expect("parallel stats").worker_phases;
        assert_eq!(workers.genome_load_s, 0.0, "threads={threads}");
        // The derived gauge is computed after the merge, from the same
        // counters, so it matches the serial value exactly.
        assert_eq!(
            par_m.gauge("guides_per_candidate"),
            serial_m.gauge("guides_per_candidate"),
            "threads={threads}"
        );
    }
}

#[test]
fn parallel_per_guide_still_copies_nothing() {
    let (genome, guides) = workload();
    for engine in [
        ParallelEngine::new(BitParallelEngine::new(), 3),
        ParallelEngine::new(BitParallelEngine::without_prefilter(), 3),
    ] {
        let (_, m) = run(&engine, &genome, &guides);
        let workers = &m.parallel.as_ref().expect("parallel stats").worker_phases;
        assert_eq!(workers.genome_load_s, 0.0);
        assert_eq!(workers.guide_compile_s, 0.0);
    }
}

/// One pattern's pigeonhole split at budget `k`: its counted run cut into
/// `k + 1` near-equal fragments, as `(site offset, bases)`.
fn fragments(pattern: &SitePattern, k: usize) -> Vec<(usize, Vec<Base>)> {
    let counted: Vec<(usize, Base)> = pattern
        .positions()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.counted)
        .map(|(i, p)| (i, p.class.bases().next().expect("spacer bases are concrete")))
        .collect();
    let (n, parts) = (counted.len(), k + 1);
    (0..parts)
        .map(|s| {
            let run = &counted[s * n / parts..(s + 1) * n / parts];
            (run[0].0, run.iter().map(|&(_, b)| b).collect())
        })
        .collect()
}

/// The batched meters counted the slow way: the `(pattern, window)` pairs
/// whose PAM holds and that match at least one of their fragments exactly
/// (`pam_anchors_tested`), and the fragment matches at PAM-valid windows
/// (`multiseed_candidates`).
fn brute_force_meters(genome: &Genome, guides: &[Guide], k: usize) -> (u64, u64) {
    let patterns: Vec<_> = guides
        .iter()
        .flat_map(|g| [Strand::Forward, Strand::Reverse].map(|s| SitePattern::from_guide(g, s)))
        .map(|p| {
            let frags = fragments(&p, k);
            (p, frags)
        })
        .collect();
    let site_len = guides[0].site_len();
    let (mut pairs, mut matches) = (0u64, 0u64);
    for contig in genome.contigs() {
        for window in contig.seq().as_slice().windows(site_len) {
            for (pattern, frags) in &patterns {
                let pam_holds = pattern
                    .positions()
                    .iter()
                    .zip(window)
                    .all(|(p, &b)| p.counted || p.class.matches(b));
                if !pam_holds {
                    continue;
                }
                let fired = frags
                    .iter()
                    .filter(|(offset, bases)| window[*offset..*offset + bases.len()] == bases[..])
                    .count() as u64;
                pairs += u64::from(fired > 0);
                matches += fired;
            }
        }
    }
    (pairs, matches)
}

#[test]
fn batched_meters_equal_a_brute_force_count_at_every_budget() {
    for k in 0..=4usize {
        let genome = SynthSpec::new(30_000).seed(311 + k as u64).generate();
        let guides = genset::random_guides(3, 20, &Pam::ngg(), 312);
        let (genome, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(k, 3), 313);
        let (pairs, matches) = brute_force_meters(&genome, &guides, k);
        assert!(pairs > 0, "k={k}: planted sites are anchored fragment matches");
        let site_len = guides[0].site_len();
        let batched = BitParallelEngine::batched;
        for (label, engine) in [
            ("serial", Box::new(batched()) as Box<dyn Engine>),
            (
                "chunk-minus-1",
                Box::new(ParallelEngine::new(batched(), 3).with_chunk_len(site_len - 1)),
            ),
            (
                "chunk-plus-1",
                Box::new(ParallelEngine::new(batched(), 3).with_chunk_len(site_len + 1)),
            ),
            ("chunk-997", Box::new(ParallelEngine::new(batched(), 2).with_chunk_len(997))),
        ] {
            let mut m = SearchMetrics::default();
            engine.search_metered(&genome, &guides, k, &mut m).expect("engine runs");
            assert_eq!(m.counters.pam_anchors_tested, pairs, "k={k} {label}");
            assert_eq!(m.counters.multiseed_candidates, matches, "k={k} {label}");
        }
    }
}
