//! `library`: index a repeat-rich ~20 Mbp genome once, then screen the
//! whole guide library with the batched engine at k = 0, 2 and 4.

use crate::inputs::{self, Inputs, Rng};
use crate::layers::{self, emit, median_of, ratio, Sample};
use crate::{brute_force_slices, check, stats, Ctx, Outcome};
use crispr_genome::diskindex::{GenomeIndex, DEFAULT_Q};
use crispr_genome::fasta;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The screened budgets: today's two cliffs and their control.
pub const KS: [u8; 3] = [0, 2, 4];
/// Index builds per run; their median is the set-up time.
const SETUP_REPEATS: usize = 3;
/// The screen's engine and thread count.
const SCREEN: &[&str] = &["--platform", "cpu-hyperscan-batched", "--threads", "1"];

/// One completed search process and where its hits went.
pub struct Op {
    pub k: u8,
    pub wall_s: f64,
    pub peak_rss_mib: f64,
    pub output: PathBuf,
}

/// Runs `offtarget search` on `source` (`--index` or `--genome` and its
/// file) with `flags`, writing hits to `out`, plus `--metrics` and
/// `--trace` files when `traced`.
pub fn search(
    ctx: &Ctx,
    source: (&str, &Path),
    guides: &Path,
    k: u8,
    flags: &[&str],
    out: &Path,
    traced: Option<(&Path, &Path)>,
) -> Result<crate::proc::Finished, String> {
    let mut args: Vec<OsString> = vec!["search".into(), source.0.into(), source.1.into()];
    args.extend(["--guides".into(), guides.into(), "-k".into(), k.to_string().into()]);
    args.extend(flags.iter().map(OsString::from));
    args.extend(["-o".into(), out.into()]);
    if let Some((metrics, trace)) = traced {
        args.extend(["--metrics".into(), metrics.into(), "--trace".into(), trace.into()]);
    }
    ctx.offtarget(&args)
}

/// Checks the hit lists of full-library searches: every output of one k
/// must be identical, pass every check in [`crate::check_hits`], and the
/// hit sets must grow with k. Returns whether each operation passed.
pub fn check_ops(
    inputs: &Inputs,
    chosen: &[usize],
    ops: &[Op],
    seed: u64,
    out: &mut Outcome,
) -> Vec<bool> {
    let mut rng = Rng::new(seed ^ 0xC0FF_EE00);
    let slices = brute_force_slices(
        inputs,
        chosen,
        24,
        *KS.last().expect("KS is not empty"),
        150_000,
        &mut rng,
    );
    let ids: Vec<&str> = chosen.iter().map(|&g| inputs.guides[g].id.as_str()).collect();
    let names = inputs.contig_names();
    // Per k: the first output's text and its hits, when it passed.
    let mut first: BTreeMap<u8, (Vec<u8>, Option<Vec<check::Hit>>)> = BTreeMap::new();
    let mut passed = Vec::with_capacity(ops.len());
    for op in ops {
        let text = match std::fs::read(&op.output) {
            Ok(text) => text,
            Err(e) => {
                out.check_failed(format!("k={}: cannot read {}: {e}", op.k, op.output.display()));
                passed.push(false);
                continue;
            }
        };
        let _ = std::fs::remove_file(&op.output);
        let ok = match first.get(&op.k) {
            Some((reference, verdict)) if *reference == text => verdict.is_some(),
            Some(_) => {
                out.check_failed(format!(
                    "k={}: output differs from the first screen at this k",
                    op.k
                ));
                false
            }
            None => {
                let verdict = std::str::from_utf8(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|t| check::parse_tsv(t, &ids, &names))
                    .and_then(|hits| {
                        crate::check_hits(inputs, chosen, op.k, &hits, &slices).map(|()| hits)
                    });
                let hits = match verdict {
                    Ok(hits) => Some(hits),
                    Err(e) => {
                        out.check_failed(format!("k={}: {e}", op.k));
                        None
                    }
                };
                let ok = hits.is_some();
                first.insert(op.k, (text, hits));
                ok
            }
        };
        passed.push(ok);
    }
    let checked: Vec<(u8, &Vec<check::Hit>)> =
        first.iter().filter_map(|(k, (_, hits))| Some((*k, hits.as_ref()?))).collect();
    for pair in checked.windows(2) {
        if let Err(e) = check::nested(pair[0].1, pair[1].1) {
            out.check_failed(format!("k={} ⊄ k={}: {e}", pair[0].0, pair[1].0));
        }
    }
    passed
}

/// Runs rounds of searches per k, rotating the k order every round, until
/// `seconds` have passed (at least one round). `search` returns each
/// search it attempted, `None` for one that failed.
pub fn rounds(
    seconds: f64,
    out: &mut Outcome,
    mut search: impl FnMut(usize, u8) -> Result<Vec<Option<Op>>, String>,
) -> Result<(Vec<Op>, f64), String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        for j in 0..KS.len() {
            let k = KS[(round + j) % KS.len()];
            for op in search(round, k)? {
                if out.op(op.is_some()) {
                    ops.extend(op);
                }
            }
        }
        round += 1;
    }
    Ok((ops, start.elapsed().as_secs_f64()))
}

/// What a traced pass's rounds yield: the searches, and per k the traced
/// searches' `--metrics` samples and the untraced twins' wall times.
pub struct Traced {
    pub ops: Vec<Op>,
    pub samples: BTreeMap<u8, Vec<Sample>>,
    pub untraced_s: BTreeMap<u8, Vec<f64>>,
}

/// A traced pass's rounds: per round and k, `search` runs untraced and
/// then with `--metrics` and `--trace`, back to back, so the overhead of
/// the instrumentation is measured at the same time as the layers.
pub fn traced_rounds(
    ctx: &Ctx,
    seconds: f64,
    out: &mut Outcome,
    pass: u64,
    search: impl Fn(u8, &Path, Option<(&Path, &Path)>) -> Result<crate::proc::Finished, String>,
) -> Result<Traced, String> {
    let mut samples: BTreeMap<u8, Vec<Sample>> = BTreeMap::new();
    let mut untraced_s: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
    let (ops, _) = rounds(seconds, out, |round, k| {
        let plain = ctx.run_dir.join(format!("plain-{round}-k{k}.tsv"));
        let path = ctx.run_dir.join(format!("traced-{round}-k{k}.tsv"));
        let metrics = ctx.run_dir.join(format!("traced-{round}-k{k}.metrics.json"));
        let trace = ctx.run_dir.join(format!("traced-{round}-k{k}.trace.json"));
        let t0 = Instant::now();
        let bare = search(k, &plain, None)?;
        let t1 = Instant::now();
        let f = search(k, &path, Some((&metrics, &trace)))?;
        let t2 = Instant::now();
        ctx.spans.add(format!("offtarget search -k {k}"), Some(pass), 0, t0, t1);
        ctx.spans.add(format!("offtarget search -k {k} --metrics --trace"), Some(pass), 0, t1, t2);
        let op = |f: &crate::proc::Finished, output: PathBuf| Op {
            k,
            wall_s: f.wall_s,
            peak_rss_mib: f.peak_rss_mib,
            output,
        };
        let bare_op = bare.status.success().then(|| op(&bare, plain));
        if bare_op.is_some() {
            untraced_s.entry(k).or_default().push(bare.wall_s);
        }
        let traced_op = match f.status.success() {
            true => {
                samples.entry(k).or_default().push(Sample::read(&metrics, f.wall_s)?);
                Some(op(&f, path))
            }
            false => None,
        };
        Ok(vec![bare_op, traced_op])
    })?;
    Ok(Traced { ops, samples, untraced_s })
}

/// `<cli>.trace_overhead_s`: the traced searches' median wall time minus
/// their untraced twins'.
pub fn emit_trace_overhead(out: &mut Outcome, cli: &str, samples: &[Sample], untraced_s: &[f64]) {
    let traced = median_of(samples, |s| Some(s.wall_s));
    let untraced = (!untraced_s.is_empty()).then(|| stats::median(untraced_s));
    if let (Some(t), Some(u)) = (traced, untraced) {
        eprintln!("perfbench: {cli}: untraced {:.1} ms, traced {:.1} ms", u * 1e3, t * 1e3);
    }
    emit(out, format!("{cli}.trace_overhead_s"), traced.zip(untraced).map(|(t, u)| t - u), "s");
}

/// The values whose operation passed its checks, or all of them when none
/// did: the run then reports `correct: false`, and still a number.
pub fn passing_or_all(values: impl Iterator<Item = (f64, bool)>) -> Vec<f64> {
    let values: Vec<(f64, bool)> = values.collect();
    let passing: Vec<f64> = values.iter().filter(|(_, ok)| *ok).map(|(v, _)| *v).collect();
    match passing.is_empty() {
        true => values.into_iter().map(|(v, _)| v).collect(),
        false => passing,
    }
}

/// Median time per k, peak memory and throughput of the operations;
/// `passed` says which passed their checks.
pub fn emit_end_to_end(
    out: &mut Outcome,
    setup: &[f64],
    ops: &[Op],
    passed: &[bool],
    elapsed_s: f64,
) {
    out.metric("setup_s", stats::median(setup), "s");
    for k in KS {
        let of_k = ops.iter().zip(passed).filter(|(o, _)| o.k == k);
        let times = passing_or_all(of_k.map(|(o, ok)| (o.wall_s * 1e3, *ok)));
        eprintln!(
            "perfbench: k={k}: {} ms",
            times.iter().map(|t| format!("{t:.1}")).collect::<Vec<_>>().join(" ")
        );
        out.metric(format!("k{k}_p50_ms"), stats::median(&times), "ms");
    }
    let peak = ops.iter().map(|o| o.peak_rss_mib).fold(f64::NAN, f64::max);
    out.metric("peak_rss_mib", peak, "MiB");
    out.metric("ops_per_s", ops.len() as f64 / elapsed_s, "1/s");
}

pub fn run(ctx: &Ctx, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = inputs::load_or_generate(&ctx.cache, inputs::LIBRARY, seed)?;
    let mut out = Outcome::default();
    let index = ctx.run_dir.join("library.idx");
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let f = ctx.offtarget(&[
            "index".as_ref(),
            "--genome".as_ref(),
            inputs.fasta.as_os_str(),
            "-o".as_ref(),
            index.as_os_str(),
        ])?;
        if out.op(f.status.success()) {
            setup.push(f.wall_s);
        }
    }
    if setup.is_empty() {
        return Err("offtarget index failed on every attempt".into());
    }
    let (ops, elapsed) = rounds(seconds, &mut out, |round, k| {
        let path = ctx.run_dir.join(format!("screen-{round}-k{k}.tsv"));
        let f = search(ctx, ("--index", &index), &inputs.guides_file, k, SCREEN, &path, None)?;
        Ok(vec![f.status.success().then_some(Op {
            k,
            wall_s: f.wall_s,
            peak_rss_mib: f.peak_rss_mib,
            output: path,
        })])
    })?;
    let all: Vec<usize> = (0..inputs.guides.len()).collect();
    let passed = check_ops(&inputs, &all, &ops, seed, &mut out);
    emit_end_to_end(&mut out, &setup, &ops, &passed, elapsed);
    Ok(out)
}

/// The traced rerun: the genome crate's FASTA parse, index build and
/// write timed in process, then screens with `--metrics` and `--trace`.
pub fn traced(ctx: &Ctx, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = inputs::load_or_generate(&ctx.cache, inputs::LIBRARY, seed)?;
    let mut out = Outcome::default();
    let pass = ctx.spans.id();
    let pass_start = Instant::now();
    let index = ctx.run_dir.join("library.idx");
    let bytes = std::fs::read(&inputs.fasta).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (genome, _) =
        fasta::read_genome_resilient(&bytes).map_err(|e| format!("FASTA parse: {e}"))?;
    let t1 = Instant::now();
    let built = GenomeIndex::build(&genome, DEFAULT_Q).map_err(|e| format!("index build: {e}"))?;
    let t2 = Instant::now();
    built.write_to(&index).map_err(|e| format!("index write: {e}"))?;
    let t3 = Instant::now();
    drop((bytes, genome, built));
    ctx.spans.add("genome::fasta::read_genome_resilient", Some(pass), 0, t0, t1);
    ctx.spans.add("genome::GenomeIndex::build", Some(pass), 0, t1, t2);
    ctx.spans.add("genome::GenomeIndex::write_to", Some(pass), 0, t2, t3);
    out.metric("genome.fasta_parse_s", (t1 - t0).as_secs_f64(), "s");
    out.metric("genome.index_build_s", (t2 - t1).as_secs_f64(), "s");
    out.metric("genome.index_write_s", (t3 - t2).as_secs_f64(), "s");
    let index_bytes = std::fs::metadata(&index).map_err(|e| e.to_string())?.len();
    out.metric("genome.index_mib", index_bytes as f64 / (1u64 << 20) as f64, "MiB");

    let screens = traced_rounds(ctx, seconds * 2.0 / 3.0, &mut out, pass, |k, hits, traced| {
        search(ctx, ("--index", &index), &inputs.guides_file, k, SCREEN, hits, traced)
    })?;
    let all: Vec<usize> = (0..inputs.guides.len()).collect();
    check_ops(&inputs, &all, &screens.ops, seed, &mut out);
    ctx.spans.record(pass, "library (traced)", None, 0, pass_start, Instant::now());

    let every: Vec<&Sample> = screens.samples.values().flatten().collect();
    let opens: Vec<f64> = every.iter().filter_map(|s| s.gauge("index_load_s")).collect();
    emit(
        &mut out,
        "genome.index_open_s".into(),
        (opens.len() == every.len()).then(|| stats::median(&opens)),
        "s",
    );
    let genome_len = inputs.total_len();
    for (k, samples) in &screens.samples {
        let engines = format!("engines.k{k}");
        layers::emit_search_layers(
            &mut out,
            &engines,
            &format!("cli.k{k}"),
            samples,
            genome_len,
            |s| s.gauge("index_load_s"),
        );
        emit(
            &mut out,
            format!("{engines}.compile_s"),
            median_of(samples, |s| s.phase("guide_compile_s")),
            "s",
        );
        let candidates = median_of(samples, |s| s.counter("multiseed_candidates"));
        emit(&mut out, format!("{engines}.multiseed_candidates"), candidates, "count");
        let raw = median_of(samples, |s| s.counter("raw_hits"));
        emit(&mut out, format!("{engines}.seed_yield"), ratio(raw, candidates), "ratio");
        emit(
            &mut out,
            format!("guides.k{k}.normalize_s"),
            median_of(samples, |s| s.phase("report_s")),
            "s",
        );
        let untraced = screens.untraced_s.get(k).map_or(&[][..], Vec::as_slice);
        emit_trace_overhead(&mut out, &format!("cli.k{k}"), samples, untraced);
    }
    Ok(out)
}
