//! Integration: every platform reports the identical hit set (E9), across
//! budgets, PAMs and genome shapes.

use crispr_offtarget::core::{validate, OffTargetSearch, Platform};
use crispr_offtarget::genome::synth::{RepeatFamily, SynthSpec};
use crispr_offtarget::guides::genset::{self, PlantPlan};
use crispr_offtarget::guides::Pam;

#[test]
fn full_matrix_agrees_on_planted_workload() {
    let genome = SynthSpec::new(40_000).seed(101).generate();
    let guides = genset::random_guides(3, 20, &Pam::ngg(), 102);
    let (genome, planted) =
        genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(3, 2), 103);
    let report = validate::cross_validate(&genome, &guides, 3, &Platform::ALL).unwrap();
    assert!(report.all_agree(), "{:#?}", report.agreements);
    for hit in &planted {
        assert!(
            report.reference_hits.binary_search(hit).is_ok(),
            "planted hit {hit} missing from reference"
        );
    }
}

#[test]
fn matrix_agrees_at_k0_and_k5() {
    let genome = SynthSpec::new(20_000).seed(104).generate();
    let guides = genset::random_guides(2, 20, &Pam::ngg(), 105);
    for k in [0usize, 5] {
        // k=5 makes the DFA explode; exclude it there.
        let platforms: Vec<Platform> =
            Platform::ALL.into_iter().filter(|p| !(k == 5 && *p == Platform::CpuDfa)).collect();
        let report = validate::cross_validate(&genome, &guides, k, &platforms).unwrap();
        assert!(report.all_agree(), "k={k}: {:#?}", report.agreements);
    }
}

#[test]
fn matrix_agrees_with_alternative_pams() {
    for (pam, seed) in [(Pam::nrg(), 111u64), (Pam::nag(), 112), (Pam::nngrrt(), 113)] {
        let genome = SynthSpec::new(15_000).seed(seed).generate();
        let guides = genset::random_guides(2, 20, &pam, seed + 1);
        let (genome, _) =
            genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(2, 1), seed + 2);
        let platforms =
            [Platform::CpuScalar, Platform::CpuBitParallel, Platform::CpuCasOffinder, Platform::Ap];
        let report = validate::cross_validate(&genome, &guides, 2, &platforms).unwrap();
        assert!(report.all_agree(), "pam={pam}: {:#?}", report.agreements);
    }
}

#[test]
fn matrix_agrees_with_five_prime_pam() {
    let genome = SynthSpec::new(15_000).seed(121).generate();
    let guides = genset::random_guides(2, 20, &Pam::tttv(), 122);
    let platforms = [Platform::CpuScalar, Platform::CpuBitParallel, Platform::CpuCasot];
    let report = validate::cross_validate(&genome, &guides, 2, &platforms).unwrap();
    assert!(report.all_agree(), "{:#?}", report.agreements);
}

#[test]
fn repeat_rich_genomes_do_not_break_agreement() {
    let genome = SynthSpec::new(30_000)
        .seed(131)
        .repeat_family(RepeatFamily { unit_len: 23, copies: 400, divergence: 0.1 })
        .generate();
    let guides = genset::guides_from_genome(&genome, 3, 20, &Pam::ngg(), 132);
    assert!(!guides.is_empty());
    let report = validate::cross_validate(&genome, &guides, 3, &Platform::PAPER_MATRIX).unwrap();
    assert!(report.all_agree(), "{:#?}", report.agreements);
}

#[test]
fn extension_engines_agree_with_reference() {
    use crispr_offtarget::engines::{Engine, ScalarEngine};
    use crispr_offtarget::guides::stride::StridedScan;
    use crispr_offtarget::guides::CompileOptions;
    let genome = SynthSpec::new(30_000).seed(151).generate();
    let guides = genset::random_guides(3, 20, &Pam::ngg(), 152);
    let (genome, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(3, 2), 153);
    let truth = ScalarEngine::new().search(&genome, &guides, 3).unwrap();
    // 2-strided automata (§7 improvement) with host verification.
    let strided = StridedScan::compile(&guides, &CompileOptions::new(3)).unwrap();
    assert_eq!(strided.search(&genome), truth);
}

// ---------------------------------------------------------------------------
// Differential oracle harness
//
// Seeded synthetic workloads — degenerate IUPAC PAMs, short and empty
// contigs, PAM-dense regions, planted off-targets — run through every CPU
// engine variant ({prefiltered, unfiltered, batched} × serial/parallel)
// and checked hit-for-hit against the scalar oracle. On a mismatch the
// harness minimizes the genome (dropping contigs, then bisecting the
// failing one) before panicking, so the failure message is a
// counterexample small enough to paste into a unit test.
// ---------------------------------------------------------------------------

mod differential {
    use crispr_offtarget::engines::{
        BitParallelEngine, CasOffinderCpuEngine, CasotEngine, DfaEngine, Engine, NfaEngine,
        ParallelEngine, ScalarEngine, SimdBackend,
    };
    use crispr_offtarget::genome::{Base, DnaSeq, Genome};
    use crispr_offtarget::guides::genset::{self, PlantPlan};
    use crispr_offtarget::guides::{Guide, Pam, PamSide};

    /// Deterministic splitmix64 stream — the harness's only entropy
    /// source, so every combination is replayable from its seed.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_seq(rng: &mut SplitMix, len: usize) -> DnaSeq {
        (0..len).map(|_| Base::from_code(rng.below(4) as u8)).collect()
    }

    /// Random sequence with `GG`/`CC` dinucleotides injected every few
    /// bases: an adversarially PAM-dense region where anchor candidate
    /// masks stay nearly full and the seed stage carries the filtering.
    fn pam_dense_seq(rng: &mut SplitMix, len: usize) -> DnaSeq {
        let mut bases: Vec<Base> = (0..len).map(|_| Base::from_code(rng.below(4) as u8)).collect();
        let mut i = 2usize;
        while i + 1 < bases.len() {
            let pair = if rng.below(2) == 0 { Base::G } else { Base::C };
            bases[i] = pair;
            bases[i + 1] = pair;
            i += 3 + rng.below(3) as usize;
        }
        bases.into_iter().collect()
    }

    fn pam_repertoire(index: u64) -> Pam {
        match index % 5 {
            0 => Pam::ngg(),
            1 => Pam::nag(),
            2 => Pam::nrg(),
            3 => Pam::nngrrt(),
            _ => Pam::tttv(),
        }
    }

    /// One seeded workload: genome (empty/short/PAM-dense/main contigs
    /// with planted off-targets), guide set, and budget.
    fn workload(seed: u64) -> (Genome, Vec<Guide>, usize) {
        let mut rng = SplitMix(seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x14057B7E));
        let pam = pam_repertoire(seed);
        let k = rng.below(4) as usize;
        let guide_count = 1 + rng.below(3) as usize;
        let guides = genset::random_guides(guide_count, 20, &pam, seed.wrapping_add(7));
        let mut genome = Genome::new();
        if seed.is_multiple_of(3) {
            genome.add_contig("empty", std::iter::empty::<Base>().collect()).unwrap();
        }
        let short_len = rng.below(22) as usize;
        genome.add_contig("short", random_seq(&mut rng, short_len)).unwrap();
        let dense_len = 400 + rng.below(400) as usize;
        genome.add_contig("pam-dense", pam_dense_seq(&mut rng, dense_len)).unwrap();
        let main_len = 800 + rng.below(1200) as usize;
        genome.add_contig("main", random_seq(&mut rng, main_len)).unwrap();
        let (genome, _) = genset::plant_offtargets(
            genome,
            &guides,
            &PlantPlan::uniform(k, 2),
            seed.wrapping_add(13),
        );
        (genome, guides, k)
    }

    /// Every engine variant under differential test. The DFA is included
    /// only at small budgets (it fails loudly past its state budget, which
    /// is expected, not a conformance bug); the parallel variants exercise
    /// the batched path under default and adversarially tight chunking,
    /// and every other kernel family at chunk length `site_len − 1`.
    fn engine_variants(k: usize, site_len: usize) -> Vec<(&'static str, Box<dyn Engine>)> {
        let mut variants: Vec<(&'static str, Box<dyn Engine>)> = vec![
            ("bitparallel", Box::new(BitParallelEngine::new())),
            ("bitparallel-nofilter", Box::new(BitParallelEngine::without_prefilter())),
            ("bitparallel-batched", Box::new(BitParallelEngine::batched())),
            ("cas-offinder", Box::new(CasOffinderCpuEngine::new())),
            ("cas-offinder-nofilter", Box::new(CasOffinderCpuEngine::without_prefilter())),
            ("casot", Box::new(CasotEngine::new())),
            ("casot-nofilter", Box::new(CasotEngine::new().without_prefilter())),
            ("nfa", Box::new(NfaEngine::new())),
            ("parallel-batched", Box::new(ParallelEngine::new(BitParallelEngine::batched(), 4))),
            (
                "parallel-batched-chunk-minus-1",
                Box::new(
                    ParallelEngine::new(BitParallelEngine::batched(), 3)
                        .with_chunk_len(site_len - 1),
                ),
            ),
            (
                "parallel-batched-chunk-plus-1",
                Box::new(
                    ParallelEngine::new(BitParallelEngine::batched(), 3)
                        .with_chunk_len(site_len + 1),
                ),
            ),
            // Every kernel family at the tightest chunking: views that
            // start mid-word for the automata, CasOT's anchored verify
            // and the symbol-reading fallbacks of the per-guide engines.
            (
                "parallel-nfa-chunk-minus-1",
                Box::new(ParallelEngine::new(NfaEngine::new(), 3).with_chunk_len(site_len - 1)),
            ),
            (
                "parallel-casot-chunk-minus-1",
                Box::new(ParallelEngine::new(CasotEngine::new(), 3).with_chunk_len(site_len - 1)),
            ),
            (
                "parallel-bitparallel-nofilter-chunk-minus-1",
                Box::new(
                    ParallelEngine::new(BitParallelEngine::without_prefilter(), 3)
                        .with_chunk_len(site_len - 1),
                ),
            ),
            (
                "parallel-cas-offinder-nofilter-chunk-minus-1",
                Box::new(
                    ParallelEngine::new(CasOffinderCpuEngine::without_prefilter(), 3)
                        .with_chunk_len(site_len - 1),
                ),
            ),
        ];
        // A forced portable twin of the per-guide SIMD verify, so the
        // fallback stays under differential test on hardware where `auto`
        // dispatches AVX2/NEON. The batched kernel does not dispatch.
        variants.push((
            "cas-offinder-simd-portable",
            Box::new(CasOffinderCpuEngine::new().with_simd(SimdBackend::Portable)),
        ));
        if k <= 2 {
            variants.push(("dfa", Box::new(DfaEngine::new())));
        }
        variants
    }

    fn disagrees(engine: &dyn Engine, genome: &Genome, guides: &[Guide], k: usize) -> bool {
        let truth = ScalarEngine::new().search(genome, guides, k).expect("oracle runs");
        match engine.search(genome, guides, k) {
            Ok(hits) => hits != truth,
            Err(_) => true,
        }
    }

    /// Shrinks a disagreeing genome: first drop whole contigs, then
    /// repeatedly halve contigs from either end, keeping any candidate
    /// that still disagrees. Terminates because every accepted step
    /// strictly shrinks the genome.
    fn minimize(engine: &dyn Engine, genome: &Genome, guides: &[Guide], k: usize) -> Genome {
        let mut current = genome.clone();
        loop {
            let mut next = None;
            // Drop one contig at a time.
            for skip in 0..current.contigs().len() {
                if current.contigs().len() == 1 {
                    break;
                }
                let mut cand = Genome::new();
                for (ci, contig) in current.contigs().iter().enumerate() {
                    if ci != skip {
                        cand.add_contig(contig.name(), contig.seq().clone()).unwrap();
                    }
                }
                if disagrees(engine, &cand, guides, k) {
                    next = Some(cand);
                    break;
                }
            }
            // Halve one contig from the front or the back.
            if next.is_none() {
                'halve: for target in 0..current.contigs().len() {
                    let len = current.contigs()[target].len();
                    if len < 2 {
                        continue;
                    }
                    for keep_front in [true, false] {
                        let mut cand = Genome::new();
                        for (ci, contig) in current.contigs().iter().enumerate() {
                            let seq = if ci == target {
                                let range =
                                    if keep_front { 0..len - len / 2 } else { len / 2..len };
                                contig.seq().subseq(range)
                            } else {
                                contig.seq().clone()
                            };
                            cand.add_contig(contig.name(), seq).unwrap();
                        }
                        if disagrees(engine, &cand, guides, k) {
                            next = Some(cand);
                            break 'halve;
                        }
                    }
                }
            }
            match next {
                Some(cand) => current = cand,
                None => return current,
            }
        }
    }

    /// Panics with a replayable, minimized counterexample.
    fn report_failure(
        name: &str,
        engine: &dyn Engine,
        genome: &Genome,
        guides: &[Guide],
        k: usize,
        seed: u64,
    ) -> ! {
        let minimized = minimize(engine, genome, guides, k);
        let truth = ScalarEngine::new().search(&minimized, guides, k).expect("oracle runs");
        let mut msg = format!(
            "differential oracle: engine `{name}` disagrees with the scalar reference \
             (seed {seed}, k {k})\nminimized genome ({} contigs):\n",
            minimized.contigs().len()
        );
        for contig in minimized.contigs() {
            msg.push_str(&format!(
                "  >{} ({} bp)\n  {}\n",
                contig.name(),
                contig.len(),
                contig.seq()
            ));
        }
        msg.push_str("guides:\n");
        for g in guides {
            msg.push_str(&format!("  {}: spacer {} pam {}\n", g.id(), g.spacer(), g.pam()));
        }
        match engine.search(&minimized, guides, k) {
            Ok(hits) => {
                let (spurious, missing) = crispr_offtarget::guides::diff(&hits, &truth);
                msg.push_str(&format!("spurious hits: {spurious:?}\nmissing hits: {missing:?}\n"));
            }
            Err(e) => msg.push_str(&format!("engine error: {e}\n")),
        }
        panic!("{msg}");
    }

    /// Two guides whose sites share anchor groups but place their
    /// spacers differently: a 20-nt spacer with `NGG` and a 21-nt spacer
    /// with a bare `GG` both need `G` at 21–22 on the forward strand and
    /// `C` at 0–1 on the reverse, so the batched kernel must key its
    /// fragment slots per (offset, length) rather than per group.
    fn mixed_layout_workload(seed: u64, k: usize) -> (Genome, Vec<Guide>) {
        let mut rng = SplitMix(seed);
        let gg = Pam::new("GG", PamSide::Three).expect("valid motif");
        let guides = vec![
            Guide::new("ngg20", random_seq(&mut rng, 20), Pam::ngg()).unwrap(),
            Guide::new("gg21", random_seq(&mut rng, 21), gg).unwrap(),
        ];
        let mut genome = Genome::new();
        genome.add_contig("pam-dense", pam_dense_seq(&mut rng, 600)).unwrap();
        genome.add_contig("main", random_seq(&mut rng, 1500)).unwrap();
        let (genome, _) = genset::plant_offtargets(
            genome,
            &guides,
            &PlantPlan::uniform(k, 2),
            seed.wrapping_add(1),
        );
        (genome, guides)
    }

    /// Runs one workload through every variant; `seed` names it in a
    /// failure report.
    fn check_workload(genome: &Genome, guides: &[Guide], k: usize, seed: u64) {
        let truth = ScalarEngine::new().search(genome, guides, k).expect("oracle runs");
        let site_len = guides[0].site_len();
        for (name, engine) in engine_variants(k, site_len) {
            match engine.search(genome, guides, k) {
                Ok(hits) if hits == truth => {}
                _ => report_failure(name, engine.as_ref(), genome, guides, k, seed),
            }
        }
    }

    /// Runs one seeded combination through every variant.
    fn check_seed(seed: u64) {
        let (genome, guides, k) = workload(seed);
        check_workload(&genome, &guides, k, seed);
    }

    /// The fixed-seed conformance matrix: 24 seeded genome/guide-set
    /// combinations (every PAM in the repertoire at least 4 times,
    /// budgets 0..=3, 1–3 guides) × every engine variant, plus the
    /// mixed-layout guide pair at budgets 0..=4.
    #[test]
    fn oracle_matrix_fixed_seeds() {
        for seed in 0..24 {
            check_seed(seed);
        }
        for k in 0..=4usize {
            let seed = 0x5EED_0000 + k as u64;
            let (genome, guides) = mixed_layout_workload(seed, k);
            check_workload(&genome, &guides, k, seed);
        }
    }

    /// The rotating-seed leg: CI passes a per-run `DIFF_SEED` so coverage
    /// random-walks over time while any failure stays replayable from the
    /// seed printed in the panic. Locally (no `DIFF_SEED`) it runs a
    /// fixed follow-on block beyond the matrix above.
    #[test]
    fn oracle_matrix_rotating_seed() {
        let base: u64 = std::env::var("DIFF_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0xC0FF_EE00);
        for offset in 0..4 {
            check_seed(base.wrapping_add(offset).wrapping_mul(0x9E37_79B9));
        }
    }

    /// The minimizer itself must shrink and preserve disagreement — pin
    /// that with a deliberately broken "engine" that drops hits from one
    /// contig of one strand.
    #[test]
    fn minimizer_produces_a_small_disagreeing_genome() {
        struct Lossy;
        impl Engine for Lossy {
            fn name(&self) -> &'static str {
                "lossy"
            }
            fn prepare(
                &self,
                guides: &[Guide],
                k: usize,
            ) -> Result<
                Box<dyn crispr_offtarget::engines::PreparedSearch>,
                crispr_offtarget::engines::EngineError,
            > {
                ScalarEngine::new().prepare(guides, k)
            }
            fn search(
                &self,
                genome: &Genome,
                guides: &[Guide],
                k: usize,
            ) -> Result<Vec<crispr_offtarget::guides::Hit>, crispr_offtarget::engines::EngineError>
            {
                let mut hits = ScalarEngine::new().search(genome, guides, k)?;
                hits.retain(|h| h.contig != 1);
                Ok(hits)
            }
        }
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let mut rng = SplitMix(99);
        let mut genome = Genome::new();
        genome.add_contig("filler", random_seq(&mut rng, 200)).unwrap();
        let mut with_site = random_seq(&mut rng, 50);
        with_site.extend_from_seq(&"GATTACAGATTACAGATTACTGG".parse().unwrap());
        with_site.extend_from_seq(&random_seq(&mut rng, 50));
        genome.add_contig("site", with_site).unwrap();
        let guides = vec![guide];
        let truth = ScalarEngine::new().search(&genome, &guides, 0).unwrap();
        let lossy = Lossy;
        // The planted exact site sits on contig 1, which Lossy drops.
        assert!(truth.iter().any(|h| h.contig == 1));
        assert!(disagrees(&lossy, &genome, &guides, 0));
        let minimized = minimize(&lossy, &genome, &guides, 0);
        assert!(disagrees(&lossy, &minimized, &guides, 0));
        assert!(minimized.total_len() < genome.total_len());
    }
}

#[test]
fn multi_contig_coordinates_are_consistent() {
    let genome = SynthSpec::new(25_000).seed(141).contigs(5).generate();
    let guides = genset::random_guides(2, 20, &Pam::ngg(), 142);
    let (genome, planted) =
        genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(2, 2), 143);
    let report = OffTargetSearch::new(genome)
        .guides(guides)
        .max_mismatches(2)
        .platform(Platform::CpuBitParallel)
        .run()
        .unwrap();
    for hit in &planted {
        assert!(report.hits().binary_search(hit).is_ok(), "{hit} missing");
    }
    assert!(report.hits().iter().any(|h| h.contig > 0), "no hits beyond contig 0");
}
