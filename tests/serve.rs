//! End-to-end tests of the serve daemon over real sockets: wire
//! compatibility with the CLI's output, cache behavior, the 206
//! partial-results path, and protocol robustness.

use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::{fasta, Genome};
use crispr_offtarget::guides::genset::{self, PlantPlan};
use crispr_offtarget::guides::{io as guide_io, Guide, Pam};
use crispr_offtarget::serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes every test that runs a scan: the failpoint registry is
/// process-global, so an inject-window in one test must not overlap
/// another test's scan.
fn scan_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A genome with planted off-targets and the guide list that finds them.
fn workload() -> (Genome, Vec<Guide>) {
    let genome = SynthSpec::new(30_000).seed(17).contigs(2).generate();
    let guides = genset::random_guides(3, 20, &Pam::ngg(), 18);
    let (genome, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(3, 2), 19);
    (genome, guides)
}

fn guides_body(guides: &[Guide]) -> Vec<u8> {
    let mut body = Vec::new();
    guide_io::write_guides(&mut body, guides).expect("serialize guides");
    body
}

/// One `Connection: close` round trip; returns (status, headers, body).
fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header/body split");
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let body = raw[split + 4..].to_vec();
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body)
}

fn start(cfg: ServeConfig) -> (Server, SocketAddr) {
    let (genome, _) = workload();
    let server = Server::start(genome, cfg).expect("start server");
    let addr = server.local_addr();
    (server, addr)
}

#[test]
fn concurrent_clients_get_hits_bit_identical_to_the_cli() {
    let _serial = scan_lock();
    let (genome, guides) = workload();

    // The CLI answer: write the same workload to disk and run the binary.
    let dir = std::env::temp_dir().join(format!("offtarget-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let genome_path = dir.join("genome.fa");
    let guides_path = dir.join("guides.txt");
    let hits_path = dir.join("hits.tsv");
    let mut fa = Vec::new();
    fasta::write_genome(&mut fa, &genome, 70).expect("serialize genome");
    std::fs::write(&genome_path, fa).expect("write genome");
    std::fs::write(&guides_path, guides_body(&guides)).expect("write guides");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_offtarget"))
        .args([
            "search",
            "--genome",
            genome_path.to_str().unwrap(),
            "--guides",
            guides_path.to_str().unwrap(),
            "-k",
            "3",
            "-o",
            hits_path.to_str().unwrap(),
        ])
        .output()
        .expect("run offtarget");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let cli_tsv = std::fs::read(&hits_path).expect("CLI hits");
    assert!(cli_tsv.len() > 40, "workload must produce hits");

    let server = Server::start(genome, ServeConfig::default()).expect("start server");
    let addr = server.local_addr();
    let body = guides_body(&guides);

    // Four clients at once; every response must be byte-identical to the
    // CLI's TSV (same hits, same order, same rendering).
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || request(addr, "POST", "/search?k=3", &body))
            })
            .collect();
        for handle in handles {
            let (status, headers, served) = handle.join().expect("client thread");
            assert_eq!(status, 200);
            assert_eq!(served, cli_tsv, "served TSV must match the CLI byte for byte");
            assert!(headers.contains_key("x-offtarget-cache"));
        }
    });

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_queries_hit_the_prepared_cache() {
    let _serial = scan_lock();
    let (server, addr) = start(ServeConfig::default());
    let (_, guides) = workload();
    let body = guides_body(&guides);

    // First query compiles (miss), the next two ride the cache (hits) —
    // sequential requests make the counters deterministic.
    let (status, headers, _) = request(addr, "POST", "/search?k=2", &body);
    assert_eq!(status, 200);
    assert_eq!(headers.get("x-offtarget-cache").map(String::as_str), Some("miss"));
    for _ in 0..2 {
        let (status, headers, _) = request(addr, "POST", "/search?k=2", &body);
        assert_eq!(status, 200);
        assert_eq!(headers.get("x-offtarget-cache").map(String::as_str), Some("hit"));
    }
    // A different budget is a different compile.
    let (_, headers, _) = request(addr, "POST", "/search?k=1", &body);
    assert_eq!(headers.get("x-offtarget-cache").map(String::as_str), Some("miss"));

    let (status, _, metrics) = request(addr, "GET", "/metrics", &[]);
    assert_eq!(status, 200);
    let text = String::from_utf8(metrics).expect("metrics are UTF-8");
    assert!(text.contains("offtarget_serve_cache_hits_total 2"), "{text}");
    assert!(text.contains("offtarget_serve_cache_misses_total 2"), "{text}");
    assert!(text.contains("offtarget_serve_requests_total"), "{text}");
    // Aggregated search metrics flow through the existing renderer.
    assert!(text.contains("offtarget_windows_scanned_total"), "{text}");
    assert!(text.contains("offtarget_serve_request_seconds_count 4"), "{text}");
    // The dispatched SIMD backend is visible to operators.
    assert!(text.contains("offtarget_gauge{name=\"simd_backend\"}"), "{text}");

    server.shutdown();
    server.join();
}

#[test]
fn partial_scans_answer_206_with_provenance() {
    let _serial = scan_lock();
    let cfg = ServeConfig {
        scan_threads: 4,
        retry_limit: 0,
        allow_inject: true,
        ..ServeConfig::default()
    };
    let (server, addr) = start(cfg);
    let (_, guides) = workload();
    let body = guides_body(&guides);

    let (status, headers, served) =
        request(addr, "POST", "/search?k=2&inject=parallel.chunk=error:1.0,7,1", &body);
    assert_eq!(status, 206, "body: {}", String::from_utf8_lossy(&served));
    let partial = headers.get("x-offtarget-partial").expect("partial header");
    let (failed, total) = partial.split_once('/').expect("failed/total");
    assert_eq!(failed, "1");
    assert!(total.parse::<u64>().unwrap() > 1);
    let text = String::from_utf8(served).expect("TSV is UTF-8");
    assert!(text.contains("# failed chunk:"), "{text}");
    let hits: usize =
        headers.get("x-offtarget-hits").and_then(|h| h.parse().ok()).expect("hits header");
    let rows = text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count();
    assert_eq!(rows, hits, "recovered hits are in the body");

    // A clean follow-up on the same daemon is whole again.
    let (status, _, _) = request(addr, "POST", "/search?k=2", &body);
    assert_eq!(status, 200);

    // JSON spelling of the same contract.
    let (status, _, served) =
        request(addr, "POST", "/search?k=2&format=json&inject=parallel.chunk=error:1.0,7,1", &body);
    assert_eq!(status, 206);
    let text = String::from_utf8(served).unwrap();
    assert!(text.contains("\"partial\": true"), "{text}");
    assert!(text.contains("\"chunk_failures\""), "{text}");

    server.shutdown();
    server.join();
}

#[test]
fn inject_is_forbidden_unless_opted_in() {
    let (server, addr) = start(ServeConfig::default());
    let (_, guides) = workload();
    let (status, _, _) =
        request(addr, "POST", "/search?inject=parallel.chunk=panic", &guides_body(&guides));
    assert_eq!(status, 403);
    server.shutdown();
    server.join();
}

#[test]
fn malformed_requests_get_4xx_not_a_crash() {
    let _serial = scan_lock();
    let cfg = ServeConfig { allow_inject: true, ..ServeConfig::default() };
    let (server, addr) = start(cfg);
    let (_, guides) = workload();
    let body = guides_body(&guides);

    let (status, _, _) = request(addr, "GET", "/nope", &[]);
    assert_eq!(status, 404);
    let (status, _, _) = request(addr, "GET", "/search", &[]);
    assert_eq!(status, 405);
    let (status, _, _) = request(addr, "POST", "/search?k=banana", &body);
    assert_eq!(status, 400);
    let (status, _, resp) = request(addr, "POST", "/search?engine=tpu", &body);
    assert_eq!(status, 400);
    let resp = String::from_utf8_lossy(&resp);
    assert!(resp.contains("one of:"), "unknown engine should list the valid set: {resp}");
    assert!(resp.contains("cpu-hyperscan-batched"), "batched variants should be listed: {resp}");
    // A near-miss of the batched engine gets a did-you-mean hint.
    let (status, _, resp) = request(addr, "POST", "/search?engine=cpu-hyperscan-batch", &body);
    assert_eq!(status, 400);
    let resp = String::from_utf8_lossy(&resp);
    assert!(resp.contains("did you mean \"cpu-hyperscan-batched\"?"), "{resp}");
    // A retired batched name is refused, with the batched engine as its hint.
    for retired in ["cpu-casot-batched", "cpu-cas-offinder-batched"] {
        let (status, _, resp) = request(addr, "POST", &format!("/search?engine={retired}"), &body);
        assert_eq!(status, 400, "{retired}");
        let resp = String::from_utf8_lossy(&resp);
        assert!(resp.contains(&format!("unknown engine \"{retired}\"")), "{resp}");
        assert!(resp.contains("did you mean \"cpu-hyperscan-batched\"?"), "{resp}");
    }
    // A modeled platform answers timing questions, not hit queries.
    let (status, _, resp) = request(addr, "POST", "/search?engine=ap", &body);
    assert_eq!(status, 400);
    let resp = String::from_utf8_lossy(&resp);
    assert!(resp.contains("unknown engine \"ap\"") && resp.contains("one of:"), "{resp}");
    // The batched engines themselves are servable.
    let (status, _, _) = request(addr, "POST", "/search?engine=cpu-hyperscan-batched&k=2", &body);
    assert_eq!(status, 200);
    let (status, _, _) = request(addr, "POST", "/search?format=xml", &body);
    assert_eq!(status, 400);
    let (status, _, _) = request(addr, "POST", "/search", b"not a guide file\n");
    assert_eq!(status, 400);
    let (status, _, _) = request(addr, "POST", "/search?inject=nonsense", &body);
    assert_eq!(status, 400);

    // Raw protocol garbage.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GARBAGE\r\n\r\n").expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    assert!(String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 400"));

    // The daemon survives all of the above.
    let (status, _, _) = request(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn healthz_reports_and_shutdown_drains() {
    let (server, addr) = start(ServeConfig::default());
    let (status, _, body) = request(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"status\":\"ok\""), "{text}");
    assert!(text.contains("\"genome_bases\":30000"), "{text}");
    assert!(text.contains("\"contigs\":2"), "{text}");

    // Remote graceful shutdown: the daemon answers, then join() returns.
    let (status, _, _) = request(addr, "POST", "/shutdown", &[]);
    assert_eq!(status, 200);
    server.join();
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may briefly accept on a dying socket; a request must fail.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").ok();
            let mut out = Vec::new();
            s.read_to_end(&mut out).unwrap_or(0) == 0
        }
    );
}

/// The `genome_load` phase the daemon reports on `/metrics`.
fn genome_load_seconds(addr: SocketAddr) -> f64 {
    let (status, _, metrics) = request(addr, "GET", "/metrics", &[]);
    assert_eq!(status, 200);
    let text = String::from_utf8(metrics).expect("metrics are UTF-8");
    text.lines()
        .find_map(|line| line.strip_prefix("offtarget_phase_seconds{phase=\"genome_load\"} "))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no genome_load sample in {text}"))
}

#[test]
fn genome_load_reports_chunk_preparation_and_nothing_else() {
    let _serial = scan_lock();
    let (_, guides) = workload();
    let body = guides_body(&guides);
    // (scan threads, engine): every chunk is a view of the resident
    // packed words and bitmaps — whole contigs at one scan thread,
    // sub-contig ranges at any start at two — and the DFA reads its
    // 2-bit codes in place, so no configuration prepares anything.
    for (scan_threads, engine) in [(1, None), (1, Some("cpu-dfa")), (2, None), (2, Some("cpu-dfa"))]
    {
        let (server, addr) = start(ServeConfig { scan_threads, ..ServeConfig::default() });
        let target = match engine {
            Some(engine) => format!("/search?k=2&engine={engine}"),
            None => "/search?k=2".to_string(),
        };
        for _ in 0..2 {
            let (status, _, _) = request(addr, "POST", &target, &body);
            assert_eq!(status, 200, "{target}");
        }
        let load_s = genome_load_seconds(addr);
        assert_eq!(load_s, 0.0, "scan_threads={scan_threads} {target}: a chunk copy came back");
        server.shutdown();
        server.join();
    }
}
