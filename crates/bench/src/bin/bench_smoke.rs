//! `bench_smoke` — the CI perf smoke: kernel ns/base per CPU engine on a
//! small canonical workload, emitted as `BENCH_cpu.json`.
//!
//! Two numbers per engine:
//!
//! * `kernel_ns_per_base` — best-of-3 kernel-phase wall time over the
//!   workload, in nanoseconds per genome base. The perf trajectory; it
//!   varies with the machine, so it is recorded but not gated.
//! * `relative` — that time divided by the scalar reference engine's
//!   time *measured in the same run*. Machine speed cancels, so this is
//!   the number the CI threshold check gates: an engine whose `relative`
//!   grows by more than [`TOLERANCE`] versus the committed baseline has
//!   genuinely regressed against the code it shipped with.
//!
//! Each row also records the best round's per-phase spans and key work
//! counters. They are not gated (the check reads only `relative`) but
//! localize a regression: a `relative` jump with unchanged counters is a
//! code-speed problem in the named phase, while moved counters mean the
//! filter cascade itself changed shape.
//!
//! The batched engine's k-sweep (k = 0..=4) is gated on its own shape:
//! no budget may cost more than [`SWEEP_MAX_RATIO`] times the k=2 row of
//! the same run, so a cliff at either end of the sweep fails the check.
//!
//! Usage:
//!
//! * `bench_smoke` — print fresh JSON to stdout (redirect to
//!   `BENCH_cpu.json` to refresh the baseline).
//! * `bench_smoke --check BENCH_cpu.json` — measure, compare `relative`
//!   per engine against the baseline file and the k-sweep against its
//!   k=2 row, exit non-zero on regression.

use std::time::Instant;

use crispr_bench::workloads;
use crispr_engines::{
    BitParallelEngine, CancelToken, CasOffinderCpuEngine, CasotEngine, Engine, NfaEngine,
    ScalarEngine, ScanSource, SimdBackend,
};
use crispr_genome::Genome;
use crispr_guides::Guide;
use crispr_model::{json, SearchMetrics};

/// Allowed growth of an engine's `relative` before the check fails.
const TOLERANCE: f64 = 0.25;
/// Workload shape: kept small so the smoke finishes in CI seconds while
/// still spanning thousands of anchor words per contig.
const GENOME_LEN: usize = 1_000_000;
const GUIDES: usize = 25;
const K: usize = 3;
const SEED: u64 = 11;
/// Timing rounds. Each round measures every engine once, in order, and
/// the per-engine minimum across rounds is reported. Interleaving rounds
/// (rather than finishing one engine's reps before the next starts)
/// means transient machine load hits every engine's round equally, so
/// each engine — including the scalar reference the `relative` column
/// divides by — gets at least one sample from the same quiet windows.
const ROUNDS: usize = 7;
/// Largest allowed ratio of any k's sweep ns/base to the k=2 row's.
const SWEEP_MAX_RATIO: f64 = 3.0;
/// Genome size for the on-disk-index rows: 100 Mbp-class, the scale at
/// which re-deriving per-genome tables on every run visibly dominates a
/// warm scan's setup. Informational (`--check` never gates it), and
/// measured only when regenerating the baseline, so `--check` CI latency
/// is unchanged.
const INDEX_GENOME_LEN: usize = 100_000_000;

/// One engine's measurement: name, best kernel seconds, and the full
/// metrics of the best round — phases and counters localize *which*
/// phase moved when the gate trips.
struct Row {
    name: &'static str,
    kernel_s: f64,
    metrics: SearchMetrics,
}

fn metered_run(engine: &dyn Engine, genome: &Genome, guides: &[Guide], k: usize) -> SearchMetrics {
    let mut m = SearchMetrics::default();
    engine.search_metered(genome, guides, k, &mut m).expect("engine runs");
    m
}

fn measure() -> Vec<Row> {
    let (genome, guides, _) = workloads::planted(GENOME_LEN, GUIDES, K, SEED);
    let engines: Vec<(&'static str, Box<dyn Engine>)> = vec![
        ("cpu-scalar", Box::new(ScalarEngine::new())),
        ("cpu-casot", Box::new(CasotEngine::new())),
        ("cpu-casot-nofilter", Box::new(CasotEngine::new().without_prefilter())),
        ("cpu-cas-offinder", Box::new(CasOffinderCpuEngine::new())),
        ("cpu-cas-offinder-nofilter", Box::new(CasOffinderCpuEngine::without_prefilter())),
        ("cpu-hyperscan", Box::new(BitParallelEngine::new())),
        ("cpu-hyperscan-nofilter", Box::new(BitParallelEngine::without_prefilter())),
        ("cpu-hyperscan-batched", Box::new(BitParallelEngine::batched())),
        ("cpu-nfa", Box::new(NfaEngine::new())),
    ];
    let mut best: Vec<Option<SearchMetrics>> = (0..engines.len()).map(|_| None).collect();
    for _ in 0..ROUNDS {
        for (i, (_, engine)) in engines.iter().enumerate() {
            let m = metered_run(engine.as_ref(), &genome, &guides, K);
            let better =
                best[i].as_ref().is_none_or(|b| m.phases.kernel_scan_s < b.phases.kernel_scan_s);
            if better {
                best[i] = Some(m);
            }
        }
    }
    engines
        .iter()
        .zip(best)
        .map(|((name, _), metrics)| {
            let metrics = metrics.expect("every engine measured");
            Row { name, kernel_s: metrics.phases.kernel_scan_s, metrics }
        })
        .collect()
}

/// Mismatch-budget sweep on the batched engine: best kernel ns/base at
/// each k in 0..=4 over the same planted workload — how the anchor,
/// fragment-lookup and verify cascade scales as the budget loosens.
fn sweep_batched() -> Vec<(usize, f64)> {
    let (genome, guides, _) = workloads::planted(GENOME_LEN, GUIDES, K, SEED);
    let engine = BitParallelEngine::batched();
    (0..=4)
        .map(|k| {
            let mut best = f64::INFINITY;
            for _ in 0..ROUNDS {
                let m = metered_run(&engine, &genome, &guides, k);
                best = best.min(m.phases.kernel_scan_s);
            }
            (k, best * 1e9 / GENOME_LEN as f64)
        })
        .collect()
}

/// The on-disk index measurement: one-time build cost, then the
/// pre-kernel setup of a warm `--index` scan (open + in-scan payload
/// reads) against the FASTA path (the streaming parse into packed words
/// and bitmaps) on the same 100 Mbp reference and engine. The
/// `setup_skip_fraction` is the acceptance number: how much of the
/// FASTA path's pre-kernel setup a warm index run skips.
struct IndexBench {
    build_s: f64,
    write_s: f64,
    index_bytes: usize,
    fasta_setup_s: f64,
    index_setup_s: f64,
    setup_skip_fraction: f64,
    fasta_kernel_s: f64,
    index_kernel_s: f64,
}

fn bench_index() -> IndexBench {
    use crispr_genome::diskindex::GenomeIndex;
    use crispr_genome::fasta;
    let (genome, guides, _) = workloads::planted(INDEX_GENOME_LEN, GUIDES, K, SEED);
    let dir = std::env::temp_dir().join(format!("offtarget-bench-index-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let fa_path = dir.join("bench.fa");
    let idx_path = dir.join("bench.idx");
    {
        let mut writer = std::io::BufWriter::new(std::fs::File::create(&fa_path).expect("fasta"));
        fasta::write_genome(&mut writer, &genome, 70).expect("write fasta");
    }

    let build_start = Instant::now();
    let index = GenomeIndex::build(&genome, 0).expect("build index");
    let build_s = build_start.elapsed().as_secs_f64();
    let index_bytes = index.as_bytes().len();
    let write_start = Instant::now();
    index.write_to(&idx_path).expect("write index");
    let write_s = write_start.elapsed().as_secs_f64();
    drop(index);
    drop(genome);

    let engine = BitParallelEngine::new();
    // The FASTA path a warm run replaces, as `search --genome` takes it:
    // parse straight into packed words and bitmaps, then scan them in
    // place (any load the scan still does lands in genome_load_s).
    let parse_start = Instant::now();
    let file = std::fs::File::open(&fa_path).expect("open fasta");
    let (reparsed, _) = fasta::read_packed_resilient(file).expect("parse fasta");
    let parse_s = parse_start.elapsed().as_secs_f64();
    let mut fasta_m = SearchMetrics::default();
    engine
        .search_cancellable(
            ScanSource::Packed(&reparsed),
            &guides,
            K,
            &CancelToken::none(),
            &mut fasta_m,
        )
        .expect("fasta scan");
    drop(reparsed);
    // The warm path: mmap the index, scan its payloads directly.
    let open_start = Instant::now();
    let reopened = GenomeIndex::open(&idx_path).expect("open index");
    let open_s = open_start.elapsed().as_secs_f64();
    let mut index_m = SearchMetrics::default();
    engine
        .search_cancellable(
            ScanSource::Index(&reopened),
            &guides,
            K,
            &CancelToken::none(),
            &mut index_m,
        )
        .expect("index scan");
    assert_eq!(
        fasta_m.counters.raw_hits, index_m.counters.raw_hits,
        "index and FASTA scans must agree before their timings mean anything"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let fasta_setup_s = parse_s + fasta_m.phases.genome_load_s;
    let index_setup_s = open_s + index_m.phases.genome_load_s;
    IndexBench {
        build_s,
        write_s,
        index_bytes,
        fasta_setup_s,
        index_setup_s,
        setup_skip_fraction: 1.0 - index_setup_s / fasta_setup_s,
        fasta_kernel_s: fasta_m.phases.kernel_scan_s,
        index_kernel_s: index_m.phases.kernel_scan_s,
    }
}

fn scalar_seconds(rows: &[Row]) -> f64 {
    rows.iter().find(|r| r.name == "cpu-scalar").expect("scalar is measured").kernel_s
}

/// The SIMD backend the auto-dispatched per-guide `cpu-hyperscan` row
/// actually ran, read back from its `simd_backend` gauge so the baseline
/// records the path the numbers belong to. (The batched kernel does not
/// dispatch.)
fn dispatched_backend(rows: &[Row]) -> &'static str {
    rows.iter()
        .find(|r| r.name == "cpu-hyperscan")
        .and_then(|r| r.metrics.gauge("simd_backend"))
        .and_then(|v| SimdBackend::ALL.into_iter().find(|b| b.gauge() == v))
        .map_or("unknown", SimdBackend::name)
}

fn render(rows: &[Row], sweep: &[(usize, f64)], index: &IndexBench) -> String {
    let scalar_s = scalar_seconds(rows);
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"workload\": {{\"genome_bases\": {GENOME_LEN}, \"guides\": {GUIDES}, \"k\": {K}, \
         \"seed\": {SEED}, \"simd_backend\": \"{}\"}},\n",
        dispatched_backend(rows)
    ));
    out.push_str(&format!(
        "  \"index\": {{\"genome_bases\": {INDEX_GENOME_LEN}, \"engine\": \"cpu-hyperscan\", \
         \"build_s\": {:.3}, \"write_s\": {:.3}, \"index_bytes\": {}, \
         \"fasta_setup_s\": {:.3}, \"index_setup_s\": {:.3}, \"setup_skip_fraction\": {:.4}, \
         \"fasta_kernel_ns_per_base\": {:.3}, \"index_kernel_ns_per_base\": {:.3}}},\n",
        index.build_s,
        index.write_s,
        index.index_bytes,
        index.fasta_setup_s,
        index.index_setup_s,
        index.setup_skip_fraction,
        index.fasta_kernel_s * 1e9 / INDEX_GENOME_LEN as f64,
        index.index_kernel_s * 1e9 / INDEX_GENOME_LEN as f64,
    ));
    let ks: Vec<String> = sweep.iter().map(|(k, ns)| format!("\"{k}\": {ns:.3}")).collect();
    out.push_str(&format!(
        "  \"ksweep\": {{\"engine\": \"cpu-hyperscan-batched\", \"ns_per_base_by_k\": {{{}}}}},\n",
        ks.join(", ")
    ));
    out.push_str("  \"engines\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let ns_per_base = row.kernel_s * 1e9 / GENOME_LEN as f64;
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let p = &row.metrics.phases;
        let c = &row.metrics.counters;
        // Alongside the gated `relative`: the best round's per-phase
        // spans and the work counters that explain them. Counters are
        // deterministic per workload; spans localize which phase a
        // `relative` regression actually lives in.
        out.push_str(&format!(
            "    \"{}\": {{\"kernel_ns_per_base\": {ns_per_base:.3}, \"relative\": {:.4},\n",
            row.name,
            row.kernel_s / scalar_s
        ));
        out.push_str(&format!(
            "      \"phases\": {{\"genome_load_s\": {:.6}, \"guide_compile_s\": {:.6}, \
             \"kernel_scan_s\": {:.6}, \"report_s\": {:.6}}},\n",
            p.genome_load_s, p.guide_compile_s, p.kernel_scan_s, p.report_s
        ));
        out.push_str(&format!(
            "      \"counters\": {{\"windows_scanned\": {}, \"pam_anchors_tested\": {}, \
             \"seed_survivors\": {}, \"bit_steps\": {}, \"early_exits\": {}, \
             \"candidates_verified\": {}, \"raw_hits\": {}}}}}{comma}\n",
            c.windows_scanned,
            c.pam_anchors_tested,
            c.seed_survivors,
            c.bit_steps,
            c.early_exits,
            c.candidates_verified,
            c.raw_hits
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn check(rows: &[Row], sweep: &[(usize, f64)], baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let baseline = json::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let engines = baseline.get("engines").ok_or("baseline has no \"engines\" member")?;
    let scalar_s = scalar_seconds(rows);
    let mut failures = Vec::new();
    for Row { name, kernel_s: secs, .. } in rows {
        let Some(was) = engines.get(name).and_then(|e| e.get("relative")).and_then(|v| v.as_f64())
        else {
            println!("  {name}: no baseline entry, skipped");
            continue;
        };
        let now = secs / scalar_s;
        let verdict = if now > was * (1.0 + TOLERANCE) {
            failures.push(name.to_string());
            "REGRESSED"
        } else {
            "ok"
        };
        println!("  {name}: relative {now:.4} vs baseline {was:.4} — {verdict}");
    }
    let k2 = sweep.iter().find(|&&(k, _)| k == 2).expect("the sweep covers k=2").1;
    for &(k, ns) in sweep {
        let ratio = ns / k2;
        let verdict = if ratio > SWEEP_MAX_RATIO {
            failures.push(format!("ksweep k={k}"));
            "CLIFF"
        } else {
            "ok"
        };
        println!("  ksweep k={k}: {ns:.3} ns/base, {ratio:.2}× k=2 — {verdict}");
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} check(s) failed (>{:.0}% vs {baseline_path}, or a k-sweep row >{SWEEP_MAX_RATIO}× \
             k=2): {}",
            failures.len(),
            TOLERANCE * 100.0,
            failures.join(", ")
        ))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let start = Instant::now();
    let rows = measure();
    eprintln!("measured {} engines in {:.1}s", rows.len(), start.elapsed().as_secs_f64());
    match args.as_slice() {
        [] => {
            let index = bench_index();
            eprintln!(
                "index: built in {:.2}s, warm setup {:.3}s vs FASTA parse {:.3}s \
                 (skips {:.1}% of pre-kernel setup)",
                index.build_s,
                index.index_setup_s,
                index.fasta_setup_s,
                index.setup_skip_fraction * 100.0
            );
            print!("{}", render(&rows, &sweep_batched(), &index));
        }
        [flag, path] if flag == "--check" => {
            if let Err(msg) = check(&rows, &sweep_batched(), path) {
                eprintln!("bench-smoke: {msg}");
                std::process::exit(1);
            }
            println!(
                "bench-smoke: within {:.0}% of baseline, k-sweep within {SWEEP_MAX_RATIO}× of k=2",
                TOLERANCE * 100.0
            );
        }
        _ => {
            eprintln!("usage: bench_smoke [--check BENCH_cpu.json]");
            std::process::exit(2);
        }
    }
}
