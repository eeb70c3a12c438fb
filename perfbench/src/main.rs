//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload library|serve|oneoff [--seed N] [--seconds S] [--trace 0|1] [--repeat R]
//! ```
//!
//! Run from the root of a checkout. It builds the release `offtarget`
//! binary, generates (or reuses) the seeded inputs, runs the workload for
//! about `--seconds`, checks every output, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1` reruns
//! the workloads with the program's instrumentation on and prints the
//! per-layer metrics instead. `--repeat R` runs the workload R times
//! (seeds N, N+1, …) and prints each end-to-end metric's median,
//! quartiles and range. See README.md.

mod check;
mod http;
mod inputs;
mod layers;
mod library;
mod oneoff;
mod proc;
mod serve;
mod spans;
mod stats;

use check::{Guide, Hit};
use inputs::Inputs;
use spans::Spans;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// What one invocation measures.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Library,
    Serve,
    Oneoff,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "library" => Some(Workload::Library),
            "serve" => Some(Workload::Serve),
            "oneoff" => Some(Workload::Oneoff),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Library => "library",
            Workload::Serve => "serve",
            Workload::Oneoff => "oneoff",
        }
    }
}

/// Shared by every workload of one run.
pub struct Ctx {
    program: PathBuf,
    /// This run's working directory; removed when the run ends.
    pub run_dir: PathBuf,
    /// Cached inputs, by workload and seed.
    pub cache: PathBuf,
    pub spans: Spans,
}

impl Ctx {
    /// Runs `offtarget` with `args` to completion.
    pub fn offtarget<S: AsRef<OsStr>>(&self, args: &[S]) -> Result<proc::Finished, String> {
        proc::run(Command::new(&self.program).args(args), &self.run_dir.join("offtarget.err"))
            .map_err(|e| format!("cannot run {}: {e}", self.program.display()))
    }

    /// A `Command` for the daemon, so the caller can keep it running.
    pub fn offtarget_command(&self) -> Command {
        Command::new(&self.program)
    }
}

pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// A run's verdict: operations attempted and failed, problems the output
/// checks found, and the metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation; returns `ok`.
    pub fn op(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// Records a failed output check of an operation that had completed:
    /// the operation now counts as failed too.
    pub fn check_failed(&mut self, problem: String) {
        eprintln!("perfbench: check failed: {problem}");
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.metrics.extend(other.metrics);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A stretch of one contig searched by brute force for a sample of the
/// submitted guides (indices in submission order).
pub struct Slice {
    contig: usize,
    range: std::ops::Range<usize>,
    guides: Vec<usize>,
    expected: Vec<Hit>,
}

/// Every output check on one hit list: `hits` come from a search of the
/// guides `chosen` (indices into `inputs.guides`, in submission order) at
/// `k`, and `slices` come from [`brute_force_slices`] at a k at least as
/// large.
pub fn check_hits(
    inputs: &Inputs,
    chosen: &[usize],
    k: u8,
    hits: &[Hit],
    slices: &[Slice],
) -> Result<(), String> {
    let guides: Vec<&Guide> = chosen.iter().map(|&g| &inputs.guides[g]).collect();
    let seqs: Vec<&[u8]> = inputs.contigs.iter().map(|c| c.seq.as_slice()).collect();
    check::sorted_unique(hits)?;
    check::reverified(hits, &seqs, &guides, k)?;
    let mut planted: Vec<Hit> = inputs
        .planted
        .iter()
        .filter_map(|s| Some(Hit { guide: chosen.iter().position(|&g| g == s.guide)?, ..*s }))
        .collect();
    planted.sort();
    check::planted_reported(hits, &planted, k)?;
    for slice in slices {
        let expected: Vec<Hit> = slice.expected.iter().filter(|h| h.mm <= k).copied().collect();
        check::slice_exact(
            hits,
            &expected,
            slice.contig,
            slice.range.clone(),
            &guides,
            &slice.guides,
        )?;
    }
    Ok(())
}

/// Brute-force truth at `k` for at most `sample` of the guides `chosen`:
/// on a sampled `len`-base slice inside a large contig, on a slice ending
/// at a contig's last base, and on every small contig.
pub fn brute_force_slices(
    inputs: &Inputs,
    chosen: &[usize],
    sample: usize,
    k: u8,
    len: usize,
    rng: &mut inputs::Rng,
) -> Vec<Slice> {
    let guides: Vec<&Guide> = chosen.iter().map(|&g| &inputs.guides[g]).collect();
    // The first guides carry the contig-end sites; the rest are drawn.
    let mut picked: Vec<usize> = (0..chosen.len().min(sample / 2)).collect();
    while picked.len() < sample.min(chosen.len()) {
        let g = rng.below(chosen.len());
        if !picked.contains(&g) {
            picked.push(g);
        }
    }
    let large: Vec<usize> =
        (0..inputs.contigs.len()).filter(|&c| inputs.contigs[c].seq.len() > 2 * len).collect();
    let mut ranges = Vec::new();
    let c = large[rng.below(large.len())];
    let start = rng.below(inputs.contigs[c].seq.len() - len);
    ranges.push((c, start..start + len));
    let c = large[rng.below(large.len())];
    let end = inputs.contigs[c].seq.len();
    ranges.push((c, end - len / 4..end));
    for (c, contig) in inputs.contigs.iter().enumerate() {
        if contig.seq.len() <= 2 * len {
            ranges.push((c, 0..contig.seq.len()));
        }
    }
    ranges
        .into_iter()
        .map(|(contig, range)| {
            let seq = &inputs.contigs[contig].seq;
            let expected = check::brute_force(seq, contig, range.clone(), &guides, &picked, k);
            Slice { contig, range, guides: picked.clone(), expected }
        })
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: Workload::Library, seed: 1, seconds: 30.0, trace: false, repeat: None };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (library, serve, oneoff)")
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--repeat" => args.repeat = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {}: must be in (0, 120]", args.seconds));
    }
    Ok(args)
}

/// One run: untraced, one workload's end-to-end metrics; traced, every
/// workload's per-layer metrics, so each traced run prints the whole
/// per-layer table (the named workload runs first).
fn run_once(
    program: &Path,
    work: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let run_dir = work.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let ctx = Ctx {
        program: program.to_path_buf(),
        run_dir: run_dir.clone(),
        cache: work.join("inputs"),
        spans: Spans::new(trace),
    };
    let result = if trace {
        let order = match workload {
            Workload::Library => [Workload::Library, Workload::Oneoff, Workload::Serve],
            Workload::Serve => [Workload::Serve, Workload::Library, Workload::Oneoff],
            Workload::Oneoff => [Workload::Oneoff, Workload::Library, Workload::Serve],
        };
        order.into_iter().try_fold(Outcome::default(), |mut total, w| {
            total.merge(match w {
                Workload::Library => library::traced(&ctx, seed, seconds)?,
                Workload::Serve => serve::traced(&ctx, seed, seconds)?,
                Workload::Oneoff => oneoff::traced(&ctx, seed, seconds)?,
            });
            Ok::<Outcome, String>(total)
        })
    } else {
        match workload {
            Workload::Library => library::run(&ctx, seed, seconds),
            Workload::Serve => serve::run(&ctx, seed, seconds),
            Workload::Oneoff => oneoff::run(&ctx, seed, seconds),
        }
    };
    if trace {
        let path = work.join(format!("trace-{}-{seed}.json", workload.name()));
        match std::fs::write(&path, ctx.spans.chrome_trace()) {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = result?;
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} could not be measured", m.name));
    }
    Ok(outcome)
}

/// Runs the workload `runs` times in a row and prints each end-to-end
/// metric's median, quartiles and range over the runs.
fn steadiness(program: &Path, work: &Path, args: &Args, runs: usize) -> Result<(), String> {
    let mut per_metric: Vec<(String, &'static str, Vec<f64>)> = Vec::new();
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let outcome = run_once(program, work, args.workload, seed, args.seconds, false)?;
        println!("seed {seed}: {}", outcome.json());
        for m in outcome.metrics {
            match per_metric.iter_mut().find(|(name, _, _)| *name == m.name) {
                Some((_, _, values)) => values.push(m.value),
                None => per_metric.push((m.name, m.unit, vec![m.value])),
            }
        }
    }
    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    let mut summary = Vec::new();
    for (name, unit, values) in &per_metric {
        let med = stats::median(values);
        let [q1, _, q3] = stats::quartiles(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = (q3 - q1) / med;
        println!("{name:<16} {unit:>6} {med:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {spread:>8.4}");
        summary.push(format!(
            "\"{name}\": {{\"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"min\": {min}, \"max\": {max}, \"spread\": {spread}}}"
        ));
    }
    println!(
        "{{\"workload\": \"{}\", \"runs\": {runs}, \"metrics\": {{{}}}}}",
        args.workload.name(),
        summary.join(", ")
    );
    Ok(())
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err("run from the root of a checkout of the repository".into());
    }
    let program = proc::build_program(&root)?;
    let work = root.join(".bench_work");
    std::fs::create_dir_all(work.join("inputs")).map_err(|e| e.to_string())?;
    match args.repeat {
        Some(runs) => steadiness(&program, &work, &args, runs),
        None => {
            let outcome =
                run_once(&program, &work, args.workload, args.seed, args.seconds, args.trace)?;
            println!("{}", outcome.json());
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
