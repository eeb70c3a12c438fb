//! End-to-end tests of the `offtarget` binary, covering the JSON writer
//! regression: guide ids and contig names are arbitrary whitespace-free
//! tokens, so they must be escaped when interpolated into JSON output.

use crispr_offtarget::model::json::{self, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offtarget-cli-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const SPACER: &str = "GATTACAGATTACAGATTAC";

/// Writes a genome containing one exact site for [`SPACER`] (NGG PAM) on
/// a contig whose name needs JSON escaping, and a guide list whose id
/// needs JSON escaping.
fn write_workload(dir: &Path) -> (PathBuf, PathBuf) {
    let genome_path = dir.join("genome.fa");
    let guides_path = dir.join("guides.txt");
    fs::write(&genome_path, format!(">chr\"1\\weird\nTTTT{SPACER}TGGAAAACCCCGGGGTTTTACGT\n"))
        .expect("write genome");
    fs::write(&guides_path, format!("g\"1\\weird {SPACER} NGG\n")).expect("write guides");
    (genome_path, guides_path)
}

fn run_search(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_offtarget"))
        .arg("search")
        .args(args)
        .output()
        .expect("run offtarget")
}

#[test]
fn json_output_escapes_ids_and_includes_metrics() {
    let dir = scratch("json");
    let (genome, guides) = write_workload(&dir);
    let hits_path = dir.join("hits.json");
    let output = run_search(&[
        "--genome",
        genome.to_str().unwrap(),
        "--guides",
        guides.to_str().unwrap(),
        "-k",
        "1",
        "--format",
        "json",
        "-o",
        hits_path.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let text = fs::read_to_string(&hits_path).expect("read hits");
    let value = json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON ({e}): {text}"));

    let hits = value.get("hits").and_then(Value::as_array).expect("hits array");
    assert!(!hits.is_empty(), "planted site not found");
    assert_eq!(
        hits[0].get("guide").and_then(Value::as_str),
        Some("g\"1\\weird"),
        "guide id must round-trip through escaping"
    );
    assert_eq!(hits[0].get("contig").and_then(Value::as_str), Some("chr\"1\\weird"));

    let metrics = value.get("metrics").expect("metrics block");
    let phases = metrics.get("phases").expect("phases");
    assert!(
        phases.get("kernel_scan_s").and_then(Value::as_f64).expect("kernel span") > 0.0,
        "kernel span must be populated"
    );
    let counters = metrics.get("counters").expect("counters");
    assert!(counters.get("windows_scanned").and_then(Value::as_f64).unwrap_or(0.0) > 0.0);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_get_a_did_you_mean_hint() {
    let output = run_search(&["--genom", "x.fa"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown flag --genom") && stderr.contains("did you mean --genome?"),
        "stderr: {stderr}"
    );

    // Far-off garbage gets no hint, just the rejection.
    let output = run_search(&["--zzzzzzzz", "1"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag --zzzzzzzz"), "stderr: {stderr}");
    assert!(!stderr.contains("did you mean"), "stderr: {stderr}");
}

#[test]
fn retired_batched_platforms_fail_with_a_hint() {
    let dir = scratch("retired");
    let (genome, guides) = write_workload(&dir);
    let (genome, guides) = (genome.to_str().unwrap(), guides.to_str().unwrap());
    // The daemon's engine is checked before its genome is read, so a
    // missing genome file means nothing binds a port either way.
    let missing = dir.join("missing.fa");
    let search =
        ["search", "--genome", genome, "--guides", guides, "--platform", "cpu-casot-batched"];
    let serve = [
        "serve",
        "--genome",
        missing.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--platform",
        "cpu-cas-offinder-batched",
    ];
    for args in [&search[..], &serve[..]] {
        let retired = args.last().unwrap();
        let output = Command::new(env!("CARGO_BIN_EXE_offtarget"))
            .args(args)
            .output()
            .expect("run offtarget");
        assert!(!output.status.success(), "{retired} was accepted");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(&format!("\"{retired}\" (one of: cpu-scalar")), "{stderr}");
        assert!(stderr.contains("did you mean \"cpu-hyperscan-batched\"?"), "{stderr}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_capped_faults_heal_to_the_clean_hit_set() {
    let dir = scratch("inject-heal");
    let (genome, guides) = write_workload(&dir);
    let clean_path = dir.join("clean.tsv");
    let faulted_path = dir.join("faulted.tsv");
    let metrics_path = dir.join("metrics.json");
    let base = |out: &Path| {
        vec![
            "--genome".to_string(),
            genome.to_str().unwrap().to_string(),
            "--guides".to_string(),
            guides.to_str().unwrap().to_string(),
            "-k".to_string(),
            "1".to_string(),
            "--threads".to_string(),
            "2".to_string(),
            "-o".to_string(),
            out.to_str().unwrap().to_string(),
        ]
    };
    let clean_args = base(&clean_path);
    let output = run_search(&clean_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let mut faulted_args = base(&faulted_path);
    faulted_args.extend(
        ["--inject", "parallel.chunk=panic:1.0,7,2", "--metrics", metrics_path.to_str().unwrap()]
            .map(String::from),
    );
    let output = run_search(&faulted_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    // Healing is invisible in the output: identical hit files.
    let clean = fs::read_to_string(&clean_path).expect("clean hits");
    let faulted = fs::read_to_string(&faulted_path).expect("faulted hits");
    assert_eq!(clean, faulted, "faulted run must heal to the clean hit set");
    assert!(clean.lines().count() > 1, "workload must produce hits");

    // ... but visible in the metrics.
    let metrics = json::parse(&fs::read_to_string(&metrics_path).expect("metrics"))
        .expect("metrics JSON parses");
    let counters = metrics.get("counters").expect("counters");
    let counter = |name: &str| counters.get(name).and_then(Value::as_f64).expect(name);
    assert_eq!(counter("faults_injected"), 2.0);
    assert_eq!(counter("chunks_retried"), 2.0);
    assert_eq!(counter("chunks_failed"), 0.0);

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_faults_exit_with_the_partial_code() {
    let dir = scratch("inject-partial");
    let (genome, guides) = write_workload(&dir);
    let output = run_search(&[
        "--genome",
        genome.to_str().unwrap(),
        "--guides",
        guides.to_str().unwrap(),
        "-k",
        "1",
        "--threads",
        "2",
        "--retries",
        "0",
        "--inject",
        "parallel.chunk=panic",
        "-o",
        dir.join("hits.tsv").to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(3), "partial results get exit code 3");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("partial result"), "stderr: {stderr}");
    assert!(stderr.contains("failed chunk"), "stderr: {stderr}");

    fs::remove_dir_all(&dir).ok();
}

/// The partial-results contract, end to end: an injected fault that
/// survives every retry must still leave the recovered hit TSV, the
/// `--metrics` JSON, and the `--prom` text on disk — all mutually
/// consistent — alongside exit code 3.
#[test]
fn partial_runs_still_write_hits_metrics_and_prom() {
    let dir = scratch("partial-outputs");
    let run = |cmd: &str, args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_offtarget"))
            .arg(cmd)
            .args(args)
            .output()
            .expect("run offtarget");
        (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
    };
    // A synthesized workload big enough to split into several chunks.
    let genome = dir.join("genome.fa");
    let guides = dir.join("guides.txt");
    let (code, stderr) = run(
        "synth",
        &["--len", "30000", "--seed", "5", "--contigs", "2", "-o", genome.to_str().unwrap()],
    );
    assert_eq!(code, Some(0), "synth: {stderr}");
    let (code, stderr) = run(
        "guides",
        &[
            "--count",
            "4",
            "--from-genome",
            genome.to_str().unwrap(),
            "--seed",
            "9",
            "-o",
            guides.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(0), "guides: {stderr}");

    let hits_path = dir.join("hits.tsv");
    let metrics_path = dir.join("metrics.json");
    let prom_path = dir.join("metrics.prom");
    // Exactly one chunk fails (one guaranteed fire, no retries).
    let (code, stderr) = run(
        "search",
        &[
            "--genome",
            genome.to_str().unwrap(),
            "--guides",
            guides.to_str().unwrap(),
            "-k",
            "3",
            "--threads",
            "4",
            "--retries",
            "0",
            "--inject",
            "parallel.chunk=error:1.0,7,1",
            "-o",
            hits_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--prom",
            prom_path.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(3), "stderr: {stderr}");
    assert!(stderr.contains("partial result"), "stderr: {stderr}");
    assert!(stderr.contains("failed chunk"), "stderr: {stderr}");

    // stderr names the recovered count; the TSV must hold exactly that
    // many data rows.
    let recovered: usize = stderr
        .lines()
        .find_map(|l| l.split_once(" hits recovered")?.0.rsplit(['(', ' ']).next())
        .expect("stderr names the recovered hit count")
        .parse()
        .expect("recovered count parses");
    let tsv = fs::read_to_string(&hits_path).expect("partial run still writes the hit TSV");
    assert!(tsv.starts_with("#guide\tcontig\tpos\tstrand\tmismatches"), "tsv: {tsv}");
    let rows = tsv.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count();
    assert_eq!(rows, recovered, "TSV rows must match the reported recovery\n{tsv}");

    let metrics = json::parse(&fs::read_to_string(&metrics_path).expect("metrics written"))
        .expect("metrics JSON parses");
    let counters = metrics.get("counters").expect("counters");
    let counter = |name: &str| counters.get(name).and_then(Value::as_f64).expect(name);
    assert_eq!(counter("chunks_failed"), 1.0, "exactly the injected chunk failed");
    assert_eq!(counter("faults_injected"), 1.0);
    assert!(counter("chunks_retried") == 0.0, "retries were disabled");

    let prom = fs::read_to_string(&prom_path).expect("prom written");
    assert!(prom.contains("offtarget_chunks_failed_total 1"), "prom: {prom}");
    assert!(prom.contains("offtarget_faults_injected_total 1"), "prom: {prom}");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_injection_specs_are_usage_errors() {
    // Bad --inject spec: rejected before any work happens.
    let output = run_search(&["--inject", "nonsense"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--inject"));

    // Bad OFFTARGET_INJECT: usage error (exit 2) for any subcommand.
    let output = Command::new(env!("CARGO_BIN_EXE_offtarget"))
        .arg("help")
        .env("OFFTARGET_INJECT", "bogus-spec")
        .output()
        .expect("run offtarget");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("OFFTARGET_INJECT"));
}

#[test]
fn metrics_flag_writes_standalone_json() {
    let dir = scratch("metrics");
    let (genome, guides) = write_workload(&dir);
    let metrics_path = dir.join("metrics.json");
    let output = run_search(&[
        "--genome",
        genome.to_str().unwrap(),
        "--guides",
        guides.to_str().unwrap(),
        "-k",
        "1",
        "--platform",
        "cpu-cas-offinder",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "-o",
        dir.join("hits.tsv").to_str().unwrap(),
    ]);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let text = fs::read_to_string(&metrics_path).expect("read metrics");
    let value = json::parse(&text).expect("metrics JSON parses");
    assert_eq!(value.get("engine").and_then(Value::as_str), Some("cas-offinder-cpu"));
    let counters = value.get("counters").expect("counters");
    assert!(counters.get("pam_anchors_tested").and_then(Value::as_f64).is_some());

    fs::remove_dir_all(&dir).ok();
}

/// The `--timeout` contract at the CLI boundary: a deadline that has
/// passed before the scan starts exits 4, still writes the hits file
/// (header only: no chunk completed) and the metrics sidecar, and says
/// why on stderr.
#[test]
fn an_expired_timeout_exits_4_with_a_header_only_tsv_and_sidecar() {
    let dir = scratch("timeout");
    let (genome, guides) = write_workload(&dir);
    let hits_path = dir.join("hits.tsv");
    let metrics_path = dir.join("m.json");
    let output = run_search(&[
        "--genome",
        genome.to_str().unwrap(),
        "--guides",
        guides.to_str().unwrap(),
        "--timeout",
        "0.000001",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "-o",
        hits_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(4), "stderr: {stderr}");
    assert!(stderr.contains("deadline exceeded"), "stderr: {stderr}");
    let tsv = fs::read_to_string(&hits_path).expect("hits file written");
    assert_eq!(tsv, "#guide\tcontig\tpos\tstrand\tmismatches\n");
    let text = fs::read_to_string(&metrics_path).expect("metrics sidecar written");
    let value = json::parse(&text).expect("metrics JSON parses");
    assert_eq!(value.get("engine").and_then(Value::as_str), Some("cpu-hyperscan"));
    let gauges = value.get("gauges").expect("gauges");
    assert_eq!(gauges.get("chunks_scanned").and_then(Value::as_f64), Some(0.0));

    fs::remove_dir_all(&dir).ok();
}

/// Runs another `offtarget` subcommand to completion, asserting success.
fn run_ok(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_offtarget")).args(args).output().expect("run");
    assert!(output.status.success(), "{args:?}: {}", String::from_utf8_lossy(&output.stderr));
}

/// `counters.windows_scanned` of a `--metrics` sidecar.
fn windows_scanned(path: &Path) -> f64 {
    let text = fs::read_to_string(path).expect("metrics sidecar written");
    let value = json::parse(&text).expect("metrics JSON parses");
    value.get("counters").and_then(|c| c.get("windows_scanned")).and_then(Value::as_f64).unwrap()
}

#[test]
fn a_deadline_tripped_mid_scan_writes_the_metrics_of_the_work_done() {
    let dir = scratch("timeout-metrics");
    let genome = dir.join("genome.fa");
    let guides = dir.join("guides.txt");
    let (genome_arg, guides_arg) = (genome.to_str().unwrap(), guides.to_str().unwrap());
    // Six contigs on two threads: twelve chunks.
    run_ok(&["synth", "--len", "120000", "--seed", "5", "--contigs", "6", "-o", genome_arg]);
    run_ok(&[
        "guides",
        "--count",
        "4",
        "--seed",
        "6",
        "--from-genome",
        genome_arg,
        "-o",
        guides_arg,
    ]);
    let clean_metrics = dir.join("clean.json");
    let cut_metrics = dir.join("cut.json");
    let hits = dir.join("hits.tsv");
    let search = |extra: &[&str], metrics: &Path| {
        let mut args = vec!["--genome", genome_arg, "--guides", guides_arg, "--threads", "2"];
        args.extend(["--metrics", metrics.to_str().unwrap(), "-o", hits.to_str().unwrap()]);
        args.extend(extra);
        run_search(&args)
    };
    let clean = search(&[], &clean_metrics);
    assert!(clean.status.success(), "stderr: {}", String::from_utf8_lossy(&clean.stderr));

    // Every chunk stalls 150 ms, so the 200 ms deadline trips after the
    // first chunk of each worker and before the rest.
    let cut = search(&["--inject", "parallel.chunk=delay150", "--timeout", "0.2"], &cut_metrics);
    let stderr = String::from_utf8_lossy(&cut.stderr);
    assert_eq!(cut.status.code(), Some(4), "stderr: {stderr}");
    assert!(stderr.contains("deadline exceeded"), "stderr: {stderr}");
    let cut_windows = windows_scanned(&cut_metrics);
    assert!(cut_windows > 0.0, "the completed chunks are metered");
    assert!(cut_windows <= windows_scanned(&clean_metrics));

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_zero_shard_is_a_usage_error() {
    let dir = scratch("shard-zero");
    let (genome, guides) = write_workload(&dir);
    let index = dir.join("genome.idx");
    run_ok(&["index", "--genome", genome.to_str().unwrap(), "-o", index.to_str().unwrap()]);
    let output = run_search(&[
        "--index",
        index.to_str().unwrap(),
        "--guides",
        guides.to_str().unwrap(),
        "--shard",
        "0",
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--shard 0"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    fs::remove_dir_all(&dir).ok();
}
