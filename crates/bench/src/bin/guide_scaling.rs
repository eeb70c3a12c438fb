//! `guide_scaling` — how kernel time grows with the number of guides.
//!
//! The point of the batched cascade is that its per-base cost is
//! (nearly) flat in the guide count: each PAM-anchored window costs one
//! table lookup per fragment slot however many fragments are loaded, and
//! only the verification work grows with proposals. The per-guide
//! engines, by contrast, pay for every guide at every window, so their
//! kernel time is linear in the guide count. This sweep measures both paths on the same
//! planted workload at 100 → 1000 → 10000 guides and prints a markdown
//! table (for EXPERIMENTS.md) plus the growth factors the issue gates on.
//!
//! Usage: `guide_scaling [--quick]` — `--quick` drops the 10000-guide
//! point and halves the genome so CI can afford the run.

use std::time::Instant;

use crispr_bench::workloads;
use crispr_engines::{BitParallelEngine, Engine};
use crispr_genome::Genome;
use crispr_guides::Guide;
use crispr_model::SearchMetrics;

const K: usize = 3;
const SEED: u64 = 19;
const REPS: usize = 3;

fn kernel_seconds(engine: &dyn Engine, genome: &Genome, guides: &[Guide]) -> (f64, SearchMetrics) {
    let mut best = f64::INFINITY;
    let mut kept = SearchMetrics::default();
    for _ in 0..REPS {
        let mut m = SearchMetrics::default();
        engine.search_metered(genome, guides, K, &mut m).expect("engine runs");
        if m.phases.kernel_scan_s < best {
            best = m.phases.kernel_scan_s;
            kept = m;
        }
    }
    (best, kept)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let genome_len = if quick { 500_000 } else { 1_000_000 };
    let counts: &[usize] = if quick { &[100, 1000] } else { &[100, 1000, 10_000] };

    let genome = workloads::genome(genome_len, SEED);
    let batched = BitParallelEngine::batched();
    let per_guide = BitParallelEngine::new();

    println!("| guides | batched kernel (s) | per-guide kernel (s) | batched growth | per-guide growth | seed states | guides/candidate |");
    println!("|-------:|-------------------:|---------------------:|---------------:|-----------------:|------------:|-----------------:|");
    let mut base: Option<(f64, f64)> = None;
    let start = Instant::now();
    for &count in counts {
        let guides = workloads::guides(count, SEED + 1);
        let (b_secs, b_m) = kernel_seconds(&batched, &genome, &guides);
        let (p_secs, _) = kernel_seconds(&per_guide, &genome, &guides);
        let (b0, p0) = *base.get_or_insert((b_secs, p_secs));
        let states = b_m.gauge("seed_automaton_states").unwrap_or(0.0);
        let gpc = b_m.gauge("guides_per_candidate").unwrap_or(0.0);
        println!(
            "| {count} | {b_secs:.4} | {p_secs:.4} | {:.2}x | {:.2}x | {states:.0} | {gpc:.2} |",
            b_secs / b0,
            p_secs / p0,
        );
    }
    eprintln!("swept {} guide counts in {:.1}s", counts.len(), start.elapsed().as_secs_f64());
}
