//! Tier 6: the observability export surface, end to end through the
//! `offtarget` binary.
//!
//! Covers the three export paths added for event-level tracing: the
//! Chrome `trace_event` timeline (`--trace`), the Prometheus text
//! snapshot (`--prom`), and metrics-to-stdout (`--metrics -`) — plus
//! the stdout-purity guarantee of `--progress` and the
//! healed-equals-clean invariant over gauges and counters. Everything
//! runs the real binary in a subprocess so each trace session owns its
//! process, exactly like production runs.

use crispr_offtarget::model::json::{self, Value};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offtarget-trace-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn offtarget(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_offtarget")).args(args).output().expect("run offtarget")
}

/// Synthesizes a multi-contig workload big enough to fan out into many
/// chunks across workers, with guides sampled from the genome so hits
/// exist.
fn synth_workload(dir: &Path) -> (PathBuf, PathBuf) {
    let genome = dir.join("genome.fa");
    let guides = dir.join("guides.txt");
    let out = offtarget(&[
        "synth",
        "--len",
        "60000",
        "--contigs",
        "2",
        "--seed",
        "5",
        "-o",
        genome.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "synth: {}", String::from_utf8_lossy(&out.stderr));
    let out = offtarget(&[
        "guides",
        "--count",
        "4",
        "--from-genome",
        genome.to_str().unwrap(),
        "--seed",
        "6",
        "-o",
        guides.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "guides: {}", String::from_utf8_lossy(&out.stderr));
    (genome, guides)
}

fn search_args<'a>(genome: &'a Path, guides: &'a Path) -> Vec<String> {
    vec![
        "search".to_string(),
        "--genome".to_string(),
        genome.to_str().unwrap().to_string(),
        "--guides".to_string(),
        guides.to_str().unwrap().to_string(),
        "-k".to_string(),
        "2".to_string(),
    ]
}

fn run(args: Vec<String>) -> std::process::Output {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    offtarget(&args)
}

#[test]
fn trace_is_valid_chrome_json_with_balanced_spans_on_worker_tracks() {
    let dir = scratch("chrome");
    let (genome, guides) = synth_workload(&dir);
    let trace_path = dir.join("trace.json");
    let mut args = search_args(&genome, &guides);
    args.extend([
        "--threads".to_string(),
        "3".to_string(),
        // Two guaranteed fault fires, well under the retry budget, so
        // the run heals and the timeline shows retry + heal events.
        "--inject".to_string(),
        "parallel.chunk=panic:1.0,5,2".to_string(),
        "--trace".to_string(),
        trace_path.to_str().unwrap().to_string(),
        "-o".to_string(),
        dir.join("hits.tsv").to_str().unwrap().to_string(),
    ]);
    let out = run(args);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = fs::read_to_string(&trace_path).expect("read trace");
    let value = json::parse(&text).unwrap_or_else(|e| panic!("trace is invalid JSON: {e}"));
    let events = value.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert!(!events.is_empty());

    let mut worker_tids = HashSet::new();
    let mut balance: HashMap<i64, i64> = HashMap::new();
    let mut names_by_tid: HashMap<i64, HashSet<String>> = HashMap::new();
    let mut retries = 0;
    let mut heals = 0;
    let mut faults = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    for event in events {
        let ph = event.get("ph").and_then(Value::as_str).expect("every event has ph");
        let tid = event.get("tid").and_then(Value::as_f64).expect("every event has tid") as i64;
        let name = event.get("name").and_then(Value::as_str).expect("every event has name");
        assert!(event.get("pid").and_then(Value::as_f64).is_some(), "every event has pid");
        let ts = event.get("ts").and_then(Value::as_f64).expect("every event has ts");
        match ph {
            "M" => {
                assert_eq!(name, "thread_name");
                let thread = event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .expect("thread_name args");
                if thread.starts_with("worker-") {
                    worker_tids.insert(tid);
                }
            }
            "B" => {
                *balance.entry(tid).or_default() += 1;
                names_by_tid.entry(tid).or_default().insert(name.to_string());
                assert!(ts >= last_ts, "events sorted by ts");
                last_ts = ts;
            }
            "E" => *balance.entry(tid).or_default() -= 1,
            "i" => {
                match name {
                    "chunk_retry" => retries += 1,
                    "chunk_heal" => heals += 1,
                    f if f.starts_with("fault:") => faults.push((tid, f.to_string())),
                    _ => {}
                }
                assert!(ts >= last_ts, "events sorted by ts");
                last_ts = ts;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(balance.values().all(|&v| v == 0), "unbalanced B/E pairs: {balance:?}");
    assert_eq!(worker_tids.len(), 3, "one named track per worker");
    // Chunk spans (and the kernels inside them) live on worker tracks.
    let chunk_tids: HashSet<i64> = names_by_tid
        .iter()
        .filter(|(_, names)| names.contains("chunk"))
        .map(|(&tid, _)| tid)
        .collect();
    assert!(!chunk_tids.is_empty() && chunk_tids.is_subset(&worker_tids));
    // The two capped fires appear as fault instants on worker threads,
    // and each produced a retry that later healed.
    assert_eq!(faults.len(), 2, "faults: {faults:?}");
    assert!(faults
        .iter()
        .all(|(tid, name)| { worker_tids.contains(tid) && name == "fault:parallel.chunk" }));
    assert_eq!(retries, 2);
    assert_eq!(heals, 2);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn prom_round_trips_every_counter_gauge_and_histogram() {
    let dir = scratch("prom");
    let (genome, guides) = synth_workload(&dir);
    let metrics_path = dir.join("m.json");
    let prom_path = dir.join("m.prom");
    let mut args = search_args(&genome, &guides);
    args.extend([
        "--threads".to_string(),
        "2".to_string(),
        "--metrics".to_string(),
        metrics_path.to_str().unwrap().to_string(),
        "--prom".to_string(),
        prom_path.to_str().unwrap().to_string(),
        "-o".to_string(),
        dir.join("hits.tsv").to_str().unwrap().to_string(),
    ]);
    let out = run(args);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let metrics = json::parse(&fs::read_to_string(&metrics_path).expect("read metrics"))
        .expect("metrics JSON parses");
    let prom = fs::read_to_string(&prom_path).expect("read prom");
    // name → value for every sample line.
    let samples: HashMap<String, f64> = prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("sample line");
            (series.to_string(), value.parse().expect("numeric sample"))
        })
        .collect();

    // Every counter field round-trips as offtarget_<field>_total.
    let counters = metrics.get("counters").expect("counters");
    let Value::Object(fields) = counters else { panic!("counters is an object") };
    assert_eq!(fields.len(), 13, "every EngineCounters field serialized");
    for (field, value) in fields {
        let series = format!("offtarget_{field}_total");
        let exported = samples.get(&series).unwrap_or_else(|| panic!("{series} missing"));
        assert_eq!(Some(*exported), value.as_f64(), "{series}");
    }
    // Every phase span round-trips.
    let phases = metrics.get("phases").expect("phases");
    for phase in ["genome_load", "guide_compile", "kernel_scan", "report"] {
        let series = format!("offtarget_phase_seconds{{phase=\"{phase}\"}}");
        let want = phases.get(&format!("{phase}_s")).and_then(Value::as_f64);
        assert_eq!(samples.get(&series).copied(), want, "{series}");
    }
    // Every gauge round-trips under offtarget_gauge{name=...}.
    let gauges = metrics.get("gauges").expect("gauges");
    let Value::Object(gauges) = gauges else { panic!("gauges is an object") };
    for (name, value) in gauges {
        let series = format!("offtarget_gauge{{name=\"{name}\"}}");
        let exported = samples.get(&series).unwrap_or_else(|| panic!("{series} missing"));
        assert_eq!(Some(*exported), value.as_f64(), "{series}");
    }
    // Histogram totals round-trip as _count/_sum, and the +Inf bucket
    // equals the count (cumulative form).
    let histograms = metrics.get("histograms").expect("histograms");
    let Value::Object(histograms) = histograms else { panic!("histograms is an object") };
    assert!(histograms.contains_key("chunk_scan_s"));
    for (name, h) in histograms {
        let base = format!("offtarget_{}_seconds", name.strip_suffix("_s").unwrap_or(name));
        let count = h.get("count").and_then(Value::as_f64);
        assert_eq!(samples.get(&format!("{base}_count")).copied(), count, "{base}_count");
        assert_eq!(
            samples.get(&format!("{base}_bucket{{le=\"+Inf\"}}")).copied(),
            count,
            "{base} +Inf bucket equals count"
        );
        let sum = h.get("sum_s").and_then(Value::as_f64).expect("sum_s");
        let exported_sum = samples[&format!("{base}_sum")];
        assert!((exported_sum - sum).abs() <= 1e-9 * sum.abs().max(1.0), "{base}_sum");
    }

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_dash_writes_json_to_stdout() {
    let dir = scratch("metrics-stdout");
    let (genome, guides) = synth_workload(&dir);
    let mut args = search_args(&genome, &guides);
    args.extend([
        "--metrics".to_string(),
        "-".to_string(),
        "-o".to_string(),
        dir.join("hits.tsv").to_str().unwrap().to_string(),
    ]);
    let out = run(args);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // With hits redirected to a file, stdout carries exactly the
    // metrics JSON document.
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let value = json::parse(stdout.trim()).expect("stdout is the metrics JSON");
    assert!(value.get("counters").is_some());

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_and_warnings_never_reach_stdout() {
    let dir = scratch("progress");
    let (genome, guides) = synth_workload(&dir);
    let mut args = search_args(&genome, &guides);
    args.extend([
        "--threads".to_string(),
        "2".to_string(),
        "--progress".to_string(),
        // A healed fault also exercises the warning path under --progress.
        "--inject".to_string(),
        "parallel.chunk=error:1.0,5,1".to_string(),
    ]);
    let out = run(args);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    // Redirected stdout is pure TSV: a header, tab-separated rows, no
    // carriage returns or status text.
    assert!(!stdout.contains('\r'), "progress redraws leaked into stdout");
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("#guide\tcontig\tpos\tstrand\tmismatches"));
    for line in lines {
        assert_eq!(line.split('\t').count(), 5, "non-TSV line on stdout: {line:?}");
    }

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn healed_and_clean_runs_agree_on_gauges_and_counters() {
    let dir = scratch("healed-gauges");
    let (genome, guides) = synth_workload(&dir);
    let run_with = |tag: &str, inject: Option<&str>| -> (String, Value) {
        let hits = dir.join(format!("{tag}.tsv"));
        let metrics = dir.join(format!("{tag}.json"));
        let mut args = search_args(&genome, &guides);
        args.extend([
            "--threads".to_string(),
            "3".to_string(),
            "--metrics".to_string(),
            metrics.to_str().unwrap().to_string(),
            "-o".to_string(),
            hits.to_str().unwrap().to_string(),
        ]);
        if let Some(spec) = inject {
            args.extend(["--inject".to_string(), spec.to_string()]);
        }
        let out = run(args);
        assert!(out.status.success(), "{tag}: {}", String::from_utf8_lossy(&out.stderr));
        let value = json::parse(&fs::read_to_string(&metrics).expect("read metrics"))
            .expect("metrics JSON parses");
        (fs::read_to_string(&hits).expect("read hits"), value)
    };
    let (clean_hits, clean) = run_with("clean", None);
    let (healed_hits, healed) = run_with("healed", Some("parallel.chunk=panic:1.0,5,2"));

    assert_eq!(clean_hits, healed_hits, "healing must reproduce the clean hit set");
    // Identical gauge *sets*: healing adds no gauge and loses none, and
    // the three load-balance gauges are present in both.
    let gauge_names = |v: &Value| -> HashSet<String> {
        let Value::Object(gauges) = v.get("gauges").expect("gauges") else {
            panic!("gauges is an object")
        };
        gauges.keys().cloned().collect()
    };
    let clean_gauges = gauge_names(&clean);
    assert_eq!(clean_gauges, gauge_names(&healed));
    for required in ["worker_utilization", "straggler_ratio", "critical_path_s"] {
        assert!(clean_gauges.contains(required), "{required} gauge missing");
    }
    // Counters are identical except the fault bookkeeping itself.
    let counter = |v: &Value, name: &str| -> f64 {
        v.get("counters").and_then(|c| c.get(name)).and_then(Value::as_f64).expect("counter")
    };
    for field in [
        "windows_scanned",
        "pam_anchors_tested",
        "seed_survivors",
        "bit_steps",
        "early_exits",
        "multiseed_candidates",
        "multiseed_positions",
        "candidates_verified",
        "raw_hits",
        "chunks_failed",
        "degraded_paths",
    ] {
        assert_eq!(counter(&clean, field), counter(&healed, field), "{field}");
    }
    assert_eq!(counter(&healed, "chunks_retried"), 2.0);
    assert_eq!(counter(&healed, "faults_injected"), 2.0);

    fs::remove_dir_all(&dir).ok();
}
