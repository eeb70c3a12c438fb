//! `oneoff`: the quickstart path — `search --genome` straight from the
//! `library` FASTA with four guides and the default engine, no index
//! anywhere. Set-up is the first search on a FASTA path the program has
//! not seen, so any per-reference work a search starts to cache shows
//! there instead of vanishing from the repeated searches.

use crate::inputs::{self, guide_lines};
use crate::layers;
use crate::library::{self, check_ops, emit_end_to_end, passing_or_all, search, Op, KS};
use crate::{Ctx, Outcome};
use crispr_genome::fasta;
use std::time::Instant;

/// The guides searched: the first four of the library set.
const GUIDES: [usize; 4] = [0, 1, 2, 3];
/// Cold searches per run; their median is the set-up time.
const SETUP_REPEATS: usize = 5;

/// Writes the four-guide file and `copies` fresh copies of the FASTA.
fn stage(ctx: &Ctx, inputs: &inputs::Inputs, copies: usize) -> Result<(), String> {
    let four = guide_lines(GUIDES.iter().map(|&g| &inputs.guides[g]));
    std::fs::write(ctx.run_dir.join("four.txt"), four).map_err(|e| e.to_string())?;
    for i in 0..copies {
        std::fs::copy(&inputs.fasta, ctx.run_dir.join(format!("fresh-{i}.fa")))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = inputs::load_or_generate(&ctx.cache, inputs::LIBRARY, seed)?;
    let mut out = Outcome::default();
    stage(ctx, &inputs, SETUP_REPEATS)?;
    let four = ctx.run_dir.join("four.txt");
    let mut cold = Vec::new();
    for (i, k) in KS.iter().cycle().take(SETUP_REPEATS).enumerate() {
        let path = ctx.run_dir.join(format!("cold-{i}-k{k}.tsv"));
        let fresh = ctx.run_dir.join(format!("fresh-{i}.fa"));
        let f = search(ctx, ("--genome", &fresh), &four, *k, &[], &path, None)?;
        if out.op(f.status.success()) {
            cold.push(Op { k: *k, wall_s: f.wall_s, peak_rss_mib: f.peak_rss_mib, output: path });
        }
    }
    let fasta = ctx.run_dir.join("fresh-0.fa");
    let (ops, elapsed) = library::rounds(seconds, &mut out, |round, k| {
        let path = ctx.run_dir.join(format!("search-{round}-k{k}.tsv"));
        let f = search(ctx, ("--genome", &fasta), &four, k, &[], &path, None)?;
        Ok(vec![f.status.success().then_some(Op {
            k,
            wall_s: f.wall_s,
            peak_rss_mib: f.peak_rss_mib,
            output: path,
        })])
    })?;
    let cold_passed = check_ops(&inputs, &GUIDES, &cold, seed, &mut out);
    let setup = passing_or_all(cold.iter().zip(cold_passed).map(|(o, ok)| (o.wall_s, ok)));
    let passed = check_ops(&inputs, &GUIDES, &ops, seed, &mut out);
    emit_end_to_end(&mut out, &setup, &ops, &passed, elapsed);
    Ok(out)
}

/// The traced rerun: the FASTA parse timed in process, then searches with
/// `--metrics` and `--trace`.
pub fn traced(ctx: &Ctx, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = inputs::load_or_generate(&ctx.cache, inputs::LIBRARY, seed)?;
    let mut out = Outcome::default();
    let pass = ctx.spans.id();
    let pass_start = Instant::now();
    stage(ctx, &inputs, 1)?;
    let four = ctx.run_dir.join("four.txt");
    let fasta = ctx.run_dir.join("fresh-0.fa");
    let bytes = std::fs::read(&fasta).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    fasta::read_genome_resilient(&bytes).map_err(|e| format!("FASTA parse: {e}"))?;
    let t1 = Instant::now();
    ctx.spans.add("genome::fasta::read_genome_resilient", Some(pass), 0, t0, t1);
    let parse_s = (t1 - t0).as_secs_f64();

    let searches =
        library::traced_rounds(ctx, seconds / 3.0, &mut out, pass, |k, hits, traced| {
            search(ctx, ("--genome", &fasta), &four, k, &[], hits, traced)
        })?;
    check_ops(&inputs, &GUIDES, &searches.ops, seed, &mut out);
    ctx.spans.record(pass, "oneoff (traced)", None, 0, pass_start, Instant::now());
    let genome_len = inputs.total_len();
    for (k, samples) in &searches.samples {
        let engines = format!("engines.oneoff.k{k}");
        layers::emit_search_layers(
            &mut out,
            &engines,
            &format!("cli.oneoff.k{k}"),
            samples,
            genome_len,
            |_| Some(parse_s),
        );
        let anchors = layers::median_of(samples, |s| s.counter("pam_anchors_tested"));
        let raw = layers::median_of(samples, |s| s.counter("raw_hits"));
        layers::emit(
            &mut out,
            format!("{engines}.anchor_yield"),
            layers::ratio(raw, anchors),
            "ratio",
        );
        let untraced = searches.untraced_s.get(k).map_or(&[][..], Vec::as_slice);
        library::emit_trace_overhead(&mut out, &format!("cli.oneoff.k{k}"), samples, untraced);
    }
    Ok(out)
}
