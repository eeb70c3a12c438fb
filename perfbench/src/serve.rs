//! `serve`: `offtarget serve --index` with two workers and every other
//! flag at its default, driven by two closed-loop connections sending
//! `POST /search` with 1–8 guides at k = 0..=4; some requests resubmit an
//! earlier guide set.

use crate::http::{self, Json, Reply};
use crate::inputs::{self, guide_lines, Inputs, Rng};
use crate::{brute_force_slices, check, proc, stats, Ctx, Outcome};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CONNECTIONS: u32 = 2;
/// Requests generated per run, far more than a run can send.
const SEQUENCE: usize = 20_000;
/// Share of requests that resubmit one of the previous 16 requests.
const RESUBMIT: f64 = 0.25;
/// Requests whose hits are also checked against a brute-force scan.
const BRUTE_FORCE_SAMPLES: usize = 4;
/// Boots per run; their median is the set-up time.
const SETUP_REPEATS: usize = 9;

struct Request {
    guides: Vec<usize>,
    k: u8,
    body: Vec<u8>,
    /// Index of the first request with the same guides and k.
    first: usize,
}

fn requests(inputs: &Inputs, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5E4E_5E4E);
    let mut out: Vec<Request> = Vec::with_capacity(SEQUENCE);
    for i in 0..SEQUENCE {
        if i >= 16 && rng.unit() < RESUBMIT {
            let first = out[i - 1 - rng.below(16)].first;
            let again = &out[first];
            let request = Request {
                guides: again.guides.clone(),
                k: again.k,
                body: again.body.clone(),
                first,
            };
            out.push(request);
            continue;
        }
        let mut guides = Vec::new();
        let count = rng.range(1, 8);
        while guides.len() < count {
            let g = rng.below(inputs.guides.len());
            if !guides.contains(&g) {
                guides.push(g);
            }
        }
        let k = rng.range(0, 4) as u8;
        let body = guide_lines(guides.iter().map(|&g| &inputs.guides[g])).into_bytes();
        out.push(Request { guides, k, body, first: i });
    }
    out
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    boot_s: f64,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns `serve --index` and waits for its first 200 on `/healthz`.
    fn boot(ctx: &Ctx, index: &Path, access_log: Option<&Path>) -> Result<Daemon, String> {
        let mut last_error = String::new();
        // A port another process takes between our probe and the daemon's
        // bind is retried on a new port; it says nothing about the program.
        for _ in 0..3 {
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free port: {e}"))?
                .port();
            let addr = SocketAddr::from(([127, 0, 0, 1], port));
            let stderr = std::fs::File::options()
                .create(true)
                .append(true)
                .open(ctx.run_dir.join("serve.err"))
                .map_err(|e| e.to_string())?;
            let mut command = ctx.offtarget_command();
            command
                .args(["serve".as_ref(), "--index".as_ref(), index.as_os_str()])
                .args(["--workers", "2", "--addr", &addr.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr)
                .env_remove("OFFTARGET_INJECT");
            if let Some(log) = access_log {
                command.args(["--access-log".as_ref(), log.as_os_str()]);
            }
            let start = Instant::now();
            let child = command.spawn().map_err(|e| format!("cannot start the daemon: {e}"))?;
            let mut daemon = Daemon { child, addr, boot_s: 0.0 };
            while start.elapsed() < Duration::from_secs(60) {
                if let Ok(Some(status)) = daemon.child.try_wait() {
                    last_error = format!("daemon exited during boot ({status})");
                    break;
                }
                if matches!(http::call(addr, "GET", "/healthz", &[], b""), Ok(r) if r.status == 200)
                {
                    daemon.boot_s = start.elapsed().as_secs_f64();
                    return Ok(daemon);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            if last_error.is_empty() {
                return Err("daemon not healthy within 60 s".into());
            }
        }
        Err(last_error)
    }

    fn metrics(&self) -> Result<HashMap<String, f64>, String> {
        let reply =
            http::call(self.addr, "GET", "/metrics", &[], b"").map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!("GET /metrics answered {}", reply.status));
        }
        Ok(http::parse_prom(&String::from_utf8_lossy(&reply.body)))
    }

    /// Graceful drain through `POST /shutdown`; waits for the exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = http::call(self.addr, "POST", "/shutdown", &[], b"");
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("daemon did not stop within 30 s of POST /shutdown".into())
    }
}

/// One request as the client saw it.
struct Sent {
    index: usize,
    latency_s: f64,
    reply: Result<Reply, String>,
    id: Option<String>,
}

/// Two closed-loop connections send `requests` in order (each takes the
/// next unsent one) until `seconds` have passed. `tag` names the request
/// ids, when requests carry them. Returns the requests and the seconds
/// from the first send to the last reply.
fn load(
    ctx: &Ctx,
    daemon: &Daemon,
    requests: &[Request],
    next: &AtomicUsize,
    seconds: f64,
    tag: Option<&str>,
    parent: u64,
) -> (Vec<Sent>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let sent = Mutex::new(Vec::new());
    let last = Mutex::new(start);
    std::thread::scope(|scope| {
        for conn in 1..=CONNECTIONS {
            let (sent, last) = (&sent, &last);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while Instant::now() < deadline {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(index) else { break };
                    let id = tag.map(|t| format!("{t}-{index}"));
                    let headers: Vec<(&str, &str)> =
                        id.iter().map(|id| ("X-Offtarget-Request-Id", id.as_str())).collect();
                    let path = format!("/search?k={}", request.k);
                    let t0 = Instant::now();
                    let reply = http::call(daemon.addr, "POST", &path, &headers, &request.body);
                    let t1 = Instant::now();
                    ctx.spans.add(
                        format!("POST /search k={}", request.k),
                        Some(parent),
                        conn,
                        t0,
                        t1,
                    );
                    mine.push(Sent {
                        index,
                        latency_s: (t1 - t0).as_secs_f64(),
                        reply: reply.map_err(|e| e.to_string()),
                        id,
                    });
                }
                let mut last = last.lock().expect("no client panics while holding the lock");
                *last = (*last).max(Instant::now());
                sent.lock().expect("no client panics while holding the lock").extend(mine);
            });
        }
    });
    let elapsed = (*last.lock().expect("clients are joined") - start).as_secs_f64();
    let mut sent = sent.into_inner().expect("clients are joined");
    sent.sort_by_key(|s| s.index);
    (sent, elapsed)
}

/// Checks every reply; returns which passed. A lost connection, a
/// non-200 answer and a failed check each fail their request.
fn check_replies(
    inputs: &Inputs,
    requests: &[Request],
    sent: &[Sent],
    seed: u64,
    out: &mut Outcome,
) -> Vec<bool> {
    let names = inputs.contig_names();
    let mut rng = Rng::new(seed ^ 0xB007_F00D);
    let distinct = sent.iter().filter(|s| requests[s.index].first == s.index).count();
    let stride = (distinct / BRUTE_FORCE_SAMPLES).max(1);
    let mut distinct_seen = 0;
    let mut first_bodies: HashMap<usize, &[u8]> = HashMap::new();
    let mut verdicts = Vec::with_capacity(sent.len());
    for s in sent {
        out.attempted += 1;
        let request = &requests[s.index];
        let reply = match &s.reply {
            Ok(reply) if reply.status == 200 => reply,
            Ok(reply) => {
                eprintln!("perfbench: request {} answered {}", s.index, reply.status);
                out.failed += 1;
                verdicts.push(false);
                continue;
            }
            Err(e) => {
                eprintln!("perfbench: request {} lost its connection: {e}", s.index);
                out.failed += 1;
                verdicts.push(false);
                continue;
            }
        };
        let verdict = match first_bodies.get(&request.first) {
            Some(body) if *body == reply.body.as_slice() => Ok(()),
            Some(_) => Err(format!(
                "request {} (a resubmission of {}) got a different body",
                s.index, request.first
            )),
            None => {
                first_bodies.insert(request.first, &reply.body);
                let slices = if request.first == s.index {
                    distinct_seen += 1;
                    if (distinct_seen - 1) % stride == 0 {
                        brute_force_slices(inputs, &request.guides, 8, request.k, 100_000, &mut rng)
                    } else {
                        Vec::new()
                    }
                } else {
                    Vec::new()
                };
                let ids: Vec<&str> =
                    request.guides.iter().map(|&g| inputs.guides[g].id.as_str()).collect();
                std::str::from_utf8(&reply.body)
                    .map_err(|e| e.to_string())
                    .and_then(|text| check::parse_tsv(text, &ids, &names))
                    .and_then(|hits| {
                        crate::check_hits(inputs, &request.guides, request.k, &hits, &slices)
                    })
                    .map_err(|e| format!("request {} (k={}): {e}", s.index, request.k))
            }
        };
        if let Err(problem) = &verdict {
            out.check_failed(problem.clone());
        }
        verdicts.push(verdict.is_ok());
    }
    verdicts
}

/// Builds the daemon's index (input preparation, not timed).
fn build_index(
    ctx: &Ctx,
    inputs: &Inputs,
    out: &mut Outcome,
    parent: Option<u64>,
) -> Result<std::path::PathBuf, String> {
    let index = ctx.run_dir.join("serve.idx");
    let start = Instant::now();
    let f = ctx.offtarget(&[
        "index".as_ref(),
        "--genome".as_ref(),
        inputs.fasta.as_os_str(),
        "-o".as_ref(),
        index.as_os_str(),
    ])?;
    ctx.spans.add("offtarget index", parent, 0, start, Instant::now());
    if !out.op(f.status.success()) {
        return Err("offtarget index failed".into());
    }
    Ok(index)
}

/// Latencies of the answered requests at `k` (every k for `None`), of
/// those that passed their checks when any did.
fn latencies_ms(sent: &[Sent], ok: &[bool], requests: &[Request], k: Option<u8>) -> Vec<f64> {
    let answered = sent.iter().zip(ok).filter(|(s, _)| s.reply.is_ok());
    let of_k = answered.filter(|(s, _)| k.is_none_or(|k| requests[s.index].k == k));
    crate::library::passing_or_all(of_k.map(|(s, ok)| (s.latency_s * 1e3, *ok)))
}

pub fn run(ctx: &Ctx, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = inputs::load_or_generate(&ctx.cache, inputs::SERVE, seed)?;
    let requests = requests(&inputs, seed);
    let mut out = Outcome::default();
    let index = build_index(ctx, &inputs, &mut out, None)?;
    let mut boots = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let booted = Daemon::boot(ctx, &index, None);
        out.op(booted.is_ok());
        let booted = booted?;
        boots.push(booted.boot_s);
        if i + 1 < SETUP_REPEATS {
            booted.stop()?;
        } else {
            daemon = Some(booted);
        }
    }
    let daemon = daemon.expect("SETUP_REPEATS > 0");
    let next = AtomicUsize::new(0);
    let (sent, elapsed) = load(ctx, &daemon, &requests, &next, seconds, None, 0);
    let peak = proc::peak_rss_mib(daemon.child.id());
    daemon.stop()?;
    let ok = check_replies(&inputs, &requests, &sent, seed, &mut out);
    out.metric("setup_s", stats::median(&boots), "s");
    for k in crate::library::KS {
        out.metric(
            format!("k{k}_p50_ms"),
            stats::median(&latencies_ms(&sent, &ok, &requests, Some(k))),
            "ms",
        );
    }
    out.metric("peak_rss_mib", peak.unwrap_or(f64::NAN), "MiB");
    let completed = ok.iter().filter(|&&ok| ok).count();
    out.metric("ops_per_s", completed as f64 / elapsed, "1/s");
    Ok(out)
}

/// One access-log line of a `/search` request.
struct Logged {
    queue_wait_s: f64,
    scan_s: f64,
    total_s: f64,
    bytes_out: f64,
}

fn access_log(path: &Path) -> Result<HashMap<String, Logged>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read access log: {e}"))?;
    let mut lines = HashMap::new();
    for line in text.lines() {
        let json = Json::parse(line).map_err(|e| format!("access log line {line:?}: {e}"))?;
        if json.str(&["route"]) != Some("/search") {
            continue;
        }
        let field =
            |name: &str| json.num(&[name]).ok_or_else(|| format!("access log lacks {name}"));
        let id = json.str(&["id"]).ok_or("access log lacks id")?.to_string();
        let logged = Logged {
            queue_wait_s: field("queue_wait_s")?,
            scan_s: field("scan_s")?,
            total_s: field("total_s")?,
            bytes_out: field("bytes_out")?,
        };
        lines.insert(id, logged);
    }
    Ok(lines)
}

/// The traced rerun: an untraced daemon and one with `--access-log` take
/// turns (untraced, traced, traced, untraced) so drift cancels in the
/// tracing overhead; traced requests carry ids, and `/metrics` is scraped
/// around the traced daemon's load.
pub fn traced(ctx: &Ctx, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = inputs::load_or_generate(&ctx.cache, inputs::SERVE, seed)?;
    let requests = requests(&inputs, seed);
    let mut out = Outcome::default();
    let pass = ctx.spans.id();
    let pass_start = Instant::now();
    let index = build_index(ctx, &inputs, &mut out, Some(pass))?;
    let log = ctx.run_dir.join("access.jsonl");
    let t0 = Instant::now();
    let plain = Daemon::boot(ctx, &index, None);
    out.op(plain.is_ok());
    let plain = plain?;
    let t1 = Instant::now();
    let logged = Daemon::boot(ctx, &index, Some(&log));
    out.op(logged.is_ok());
    let logged = logged?;
    ctx.spans.add("boot serve --index", Some(pass), 0, t0, t1);
    ctx.spans.add("boot serve --index --access-log", Some(pass), 0, t1, Instant::now());
    let before = logged.metrics()?;
    let (next_plain, next_logged) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let (mut plain_sent, mut logged_sent) = (Vec::new(), Vec::new());
    for turn in [false, true, true, false] {
        let segment = ctx.spans.id();
        let start = Instant::now();
        let (daemon, next, tag, sink) = if turn {
            (&logged, &next_logged, Some("bench"), &mut logged_sent)
        } else {
            (&plain, &next_plain, None, &mut plain_sent)
        };
        let (sent, _) = load(ctx, daemon, &requests, next, seconds / 6.0, tag, segment);
        sink.extend(sent);
        let name = if turn { "load (access log, request ids)" } else { "load (untraced)" };
        ctx.spans.record(segment, name, Some(pass), 0, start, Instant::now());
    }
    let after = logged.metrics()?;
    plain.stop()?;
    let logged_boot_s = logged.boot_s;
    logged.stop()?;
    ctx.spans.record(pass, "serve (traced)", None, 0, pass_start, Instant::now());
    let plain_ok = check_replies(&inputs, &requests, &plain_sent, seed, &mut out);
    let logged_ok = check_replies(&inputs, &requests, &logged_sent, seed, &mut out);
    let lines = access_log(&log)?;

    let gauge = |name: &str| after.get(name).copied();
    let delta = |name: &str| Some(after.get(name)? - before.get(name).copied().unwrap_or(0.0));
    let hits = delta("offtarget_serve_cache_hits_total");
    let misses = delta("offtarget_serve_cache_misses_total");
    let searches = hits.zip(misses).map(|(h, m)| h + m);
    let open = gauge("offtarget_serve_index_load_seconds");
    let unpack = gauge("offtarget_serve_index_unpack_seconds");
    use crate::layers::{emit, ratio};
    emit(&mut out, "genome.index_open_serve_s".into(), open, "s");
    emit(&mut out, "genome.index_unpack_s".into(), unpack, "s");
    let kernel = delta("offtarget_phase_seconds{phase=\"kernel_scan\"}");
    let per_base = ratio(kernel, searches).map(|s| s * 1e9 / inputs.total_len() as f64);
    emit(&mut out, "engines.serve.kernel_ns_per_base".into(), per_base, "ns");
    let compile = delta("offtarget_phase_seconds{phase=\"guide_compile\"}");
    emit(
        &mut out,
        "engines.serve.compile_ms_per_miss".into(),
        ratio(compile, misses).map(|s| s * 1e3),
        "ms",
    );
    let anchors = delta("offtarget_pam_anchors_tested_total");
    emit(
        &mut out,
        "engines.serve.pam_anchors_tested_per_request".into(),
        ratio(anchors, searches),
        "count",
    );
    let raw = delta("offtarget_raw_hits_total");
    emit(&mut out, "engines.serve.raw_hits_per_request".into(), ratio(raw, searches), "count");

    let joined: Vec<(&Sent, &Logged)> = logged_sent
        .iter()
        .zip(&logged_ok)
        .filter(|(_, ok)| **ok)
        .filter_map(|(s, _)| Some((s, lines.get(s.id.as_ref()?)?)))
        .collect();
    if joined.len() < logged_ok.iter().filter(|&&ok| ok).count() {
        out.check_failed("a traced request has no access-log line".into());
    }
    let each = |f: &dyn Fn(&Sent, &Logged) -> f64| {
        joined.iter().map(|(s, l)| f(s, l)).collect::<Vec<f64>>()
    };
    let queue = each(&|_, l| l.queue_wait_s * 1e3);
    out.metric(
        "serve.pre_admit_ms",
        stats::median(&each(&|s, l| (s.latency_s - l.total_s) * 1e3)),
        "ms",
    );
    out.metric("serve.queue_wait_ms", stats::median(&queue), "ms");
    out.metric("serve.queue_wait_p99_ms", stats::percentile(&queue, 99.0), "ms");
    out.metric("serve.scan_ms", stats::median(&each(&|_, l| l.scan_s * 1e3)), "ms");
    let other = each(&|_, l| (l.total_s - l.queue_wait_s - l.scan_s) * 1e3);
    out.metric("serve.handle_other_ms", stats::median(&other), "ms");
    emit(&mut out, "serve.cache_hit_ratio".into(), ratio(hits, searches), "ratio");
    let bytes = each(&|_, l| l.bytes_out);
    out.metric(
        "serve.bytes_out_per_request",
        bytes.iter().sum::<f64>() / bytes.len() as f64,
        "bytes",
    );
    let boot_other = open.zip(unpack).map(|(o, u)| logged_boot_s - o - u);
    emit(&mut out, "serve.boot_other_s".into(), boot_other, "s");
    let p50 = |sent: &[Sent], ok: &[bool]| stats::median(&latencies_ms(sent, ok, &requests, None));
    let (traced_p50, untraced_p50) = (p50(&logged_sent, &logged_ok), p50(&plain_sent, &plain_ok));
    eprintln!("perfbench: serve: untraced p50 {untraced_p50:.2} ms, traced p50 {traced_p50:.2} ms");
    out.metric("serve.log_overhead_ms", traced_p50 - untraced_p50, "ms");
    Ok(out)
}
