//! Deterministic fault-injection failpoints for the search pipeline.
//!
//! A *failpoint* is a named site in production code where a test, a CI
//! job, or an operator can ask for a fault to be raised: a panic, an
//! injected error, or a delay. Sites are compiled in permanently and cost
//! one relaxed atomic load when no injection is configured, so they can
//! sit on chunk, parse, and prefilter boundaries of the hot pipeline
//! without a feature gate.
//!
//! # Specs
//!
//! Faults are configured from a text spec, one or more `;`-separated
//! entries of the form
//!
//! ```text
//! site=kind[:prob[,seed[,times]]]
//! ```
//!
//! where `kind` is `panic`, `error`, or `delay<MS>` (e.g. `delay25` sleeps
//! 25 ms), `prob` is the per-hit firing probability (default 1.0), `seed`
//! makes the per-site decision stream deterministic (default 0), and
//! `times` caps the total number of fires at the site (default unlimited).
//! Examples:
//!
//! ```text
//! parallel.chunk=panic                      # every chunk scan panics
//! parallel.chunk=panic:1.0,7,3              # exactly the first 3 hits panic
//! fasta.read=error:0.5,42                   # half of reads fail, seeded
//! multiseed.build=delay10                   # build stalls 10 ms
//! serve.worker=panic:1.0,0,1                # kill one daemon worker
//! index.write=error                         # index writes fail (no torn file)
//! ```
//!
//! The CLI exposes this as `--inject <spec>`; the `OFFTARGET_INJECT`
//! environment variable carries the same grammar into any process.
//!
//! # Determinism
//!
//! Each site owns a splitmix64 stream seeded from its `seed`, advanced
//! once per hit, so the fire/no-fire decision sequence is a pure function
//! of the spec and the hit order — a retried chunk draws the *next*
//! decision, which is how "fail the first N attempts, then heal" scenarios
//! stay reproducible.
//!
//! # Test isolation
//!
//! The registry is process-global, so concurrently running tests must
//! serialize around it: [`FailScenario::setup`] takes a global lock,
//! installs a spec, and clears it (and the counters) on drop.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What a configured site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Unwind with an [`InjectedPanic`] payload.
    Panic,
    /// Return an [`InjectedFault`] error to the caller.
    Error,
    /// Sleep for the given number of milliseconds, then continue.
    Delay(u64),
}

/// The error value surfaced by error-kind failpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint {:?}", self.site)
    }
}

impl std::error::Error for InjectedFault {}

impl From<InjectedFault> for std::io::Error {
    fn from(fault: InjectedFault) -> std::io::Error {
        std::io::Error::other(fault)
    }
}

/// The panic payload used by panic-kind failpoints; the panic-hook filter
/// recognizes it and suppresses the default backtrace spew, and
/// `catch_unwind` callers downcast it to attribute the fault.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// The site that fired.
    pub site: String,
}

/// One configured site: kind, firing probability, RNG stream, fire cap.
#[derive(Debug)]
struct SiteConfig {
    kind: FailKind,
    prob: f64,
    rng: AtomicU64,
    /// Remaining fires, or `u64::MAX` for unlimited.
    remaining: AtomicU64,
}

/// Errors from parsing an injection spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending spec fragment.
    pub entry: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad injection spec {:?}: {}", self.entry, self.reason)
    }
}

impl std::error::Error for SpecError {}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Every fault fired since process start. Never reset, so a delta taken
/// across a search cannot underflow when another thread clears a
/// scenario mid-run; [`fired_total`] reports it relative to the last
/// [`clear`].
static FIRED_EVER: AtomicU64 = AtomicU64::new(0);
/// The value of [`FIRED_EVER`] at the last [`clear`].
static FIRED_AT_CLEAR: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<HashMap<String, SiteConfig>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteConfig>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Locks a mutex, recovering from poisoning: the protected state here is
/// plain data that stays consistent even if a holder unwound mid-access.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// splitmix64 step — the same tiny deterministic generator the synthetic
/// genome generator uses; good enough for fire/no-fire coin flips.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Installs (once) a panic hook that suppresses the default report for
/// [`InjectedPanic`] payloads — injected unwinds are expected events, not
/// crashes worth a backtrace — and delegates everything else to the
/// previous hook.
fn install_panic_filter() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Parses and installs an injection spec, replacing any prior
/// configuration. An empty spec clears all sites.
///
/// # Errors
///
/// [`SpecError`] naming the first malformed entry; nothing is installed
/// on error.
pub fn configure(spec: &str) -> Result<(), SpecError> {
    let mut sites = HashMap::new();
    for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        let (site, config) = parse_entry(entry)?;
        sites.insert(site, config);
    }
    install_panic_filter();
    let enabled = !sites.is_empty();
    *lock_unpoisoned(registry()) = sites;
    ENABLED.store(enabled, Ordering::Release);
    Ok(())
}

fn parse_entry(entry: &str) -> Result<(String, SiteConfig), SpecError> {
    let err = |reason: &str| SpecError { entry: entry.to_string(), reason: reason.to_string() };
    let (site, rest) = entry.split_once('=').ok_or_else(|| err("expected site=kind"))?;
    let site = site.trim();
    if site.is_empty() {
        return Err(err("empty site name"));
    }
    let (kind_text, args) = match rest.split_once(':') {
        Some((k, a)) => (k.trim(), Some(a)),
        None => (rest.trim(), None),
    };
    let kind = match kind_text {
        "panic" => FailKind::Panic,
        "error" => FailKind::Error,
        t if t.starts_with("delay") => {
            let ms = t["delay".len()..].trim();
            let ms = if ms.is_empty() {
                1
            } else {
                ms.parse().map_err(|_| err("delay milliseconds must be an integer"))?
            };
            FailKind::Delay(ms)
        }
        _ => return Err(err("kind must be panic, error, or delay<ms>")),
    };
    let mut prob = 1.0f64;
    let mut seed = 0u64;
    let mut times = u64::MAX;
    if let Some(args) = args {
        let fields: Vec<&str> = args.split(',').map(str::trim).collect();
        if fields.len() > 3 {
            return Err(err("at most prob,seed,times after ':'"));
        }
        if let Some(p) = fields.first().filter(|p| !p.is_empty()) {
            prob = p.parse().map_err(|_| err("prob must be a float"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(err("prob must be in [0, 1]"));
            }
        }
        if let Some(s) = fields.get(1).filter(|s| !s.is_empty()) {
            seed = s.parse().map_err(|_| err("seed must be an integer"))?;
        }
        if let Some(t) = fields.get(2).filter(|t| !t.is_empty()) {
            times = t.parse().map_err(|_| err("times must be an integer"))?;
        }
    }
    Ok((
        site.to_string(),
        SiteConfig { kind, prob, rng: AtomicU64::new(seed), remaining: AtomicU64::new(times) },
    ))
}

/// Reads `OFFTARGET_INJECT` and installs it when present.
///
/// # Errors
///
/// [`SpecError`] when the variable holds a malformed spec.
pub fn configure_from_env() -> Result<(), SpecError> {
    match std::env::var("OFFTARGET_INJECT") {
        Ok(spec) if !spec.trim().is_empty() => configure(&spec),
        _ => Ok(()),
    }
}

/// Clears every configured site and resets the fired counter.
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    lock_unpoisoned(registry()).clear();
    FIRED_AT_CLEAR.store(FIRED_EVER.load(Ordering::Acquire), Ordering::Release);
}

/// Total faults fired process-wide since the last [`clear`].
pub fn fired_total() -> u64 {
    FIRED_EVER.load(Ordering::Acquire).saturating_sub(FIRED_AT_CLEAR.load(Ordering::Acquire))
}

/// A reading of the process-wide fire count that [`clear`] never resets
/// — the source of the `faults_injected` metric. Drivers take a mark
/// before a search and add [`FireMark::fired_since`] after it, so a
/// scenario armed or cleared on another thread during the run cannot
/// make the delta underflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FireMark(u64);

impl FireMark {
    /// Marks the current fire count.
    pub fn now() -> FireMark {
        FireMark(FIRED_EVER.load(Ordering::Acquire))
    }

    /// Faults fired process-wide since this mark was taken.
    pub fn fired_since(self) -> u64 {
        FIRED_EVER.load(Ordering::Acquire) - self.0
    }
}

/// What a fire observer is told about one fired fault: the site name
/// and the configured kind (including the delay length), so consumers
/// can label the event without re-parsing the active spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FireEvent<'a> {
    /// The site that fired.
    pub site: &'a str,
    /// What the fire does (panic, error, or a delay of N milliseconds).
    pub kind: FailKind,
}

fn fire_observer() -> &'static OnceLock<fn(FireEvent<'_>)> {
    static FIRE_OBSERVER: OnceLock<fn(FireEvent<'_>)> = OnceLock::new();
    &FIRE_OBSERVER
}

/// Registers a process-wide observer called with a [`FireEvent`] every
/// time a fault fires (after the fired counter is bumped, before the
/// fault takes effect, on the firing thread). Write-once: the first
/// registration wins and later calls are ignored — observers are
/// infrastructure wiring (e.g. the tracing layer putting fault events
/// on a timeline), not per-test state, and are never unregistered.
pub fn set_fire_observer(observer: fn(FireEvent<'_>)) {
    let _ = fire_observer().set(observer);
}

/// Evaluates the site: decides (deterministically) whether it fires, and
/// resolves delays in place.
///
/// Returns `None` on the fast path (nothing configured, probability miss,
/// or fire cap exhausted) and after completing a delay; `Some(kind)` for
/// `Panic`/`Error`, which the `hit`/`hit_result` wrappers turn into an
/// unwind or an error value.
fn evaluate(site: &str) -> Option<FailKind> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    let guard = lock_unpoisoned(registry());
    let config = guard.get(site)?;
    if config.prob < 1.0 {
        let mut state = config.rng.load(Ordering::Relaxed);
        let draw = splitmix64(&mut state);
        config.rng.store(state, Ordering::Relaxed);
        // 53-bit uniform in [0, 1).
        let uniform = (draw >> 11) as f64 / (1u64 << 53) as f64;
        if uniform >= config.prob {
            return None;
        }
    }
    // Reserve one fire from the cap; u64::MAX means unlimited.
    let mut remaining = config.remaining.load(Ordering::Relaxed);
    loop {
        if remaining == 0 {
            return None;
        }
        let next = if remaining == u64::MAX { u64::MAX } else { remaining - 1 };
        match config.remaining.compare_exchange_weak(
            remaining,
            next,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(actual) => remaining = actual,
        }
    }
    let kind = config.kind;
    drop(guard);
    FIRED_EVER.fetch_add(1, Ordering::AcqRel);
    if let Some(observer) = fire_observer().get() {
        observer(FireEvent { site, kind });
    }
    match kind {
        FailKind::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        other => Some(other),
    }
}

/// The failpoint: checks `site` and raises whatever is configured.
///
/// Fast path (no injection): one atomic load. A `delay` fires in place, a
/// `panic` unwinds with an [`InjectedPanic`] payload, an `error` returns
/// [`InjectedFault`] for the caller to propagate.
///
/// # Errors
///
/// [`InjectedFault`] when an error-kind injection fires.
///
/// # Panics
///
/// When a panic-kind injection fires — that is the point; pair the site
/// with a `catch_unwind` isolation boundary.
pub fn hit(site: &str) -> Result<(), InjectedFault> {
    match evaluate(site) {
        None => Ok(()),
        Some(FailKind::Error) => Err(InjectedFault { site: site.to_string() }),
        Some(FailKind::Panic) | Some(FailKind::Delay(_)) => {
            std::panic::panic_any(InjectedPanic { site: site.to_string() })
        }
    }
}

/// Like [`hit`] but for sites whose only graceful reaction is to unwind:
/// both `panic` and `error` kinds raise an [`InjectedPanic`], for callers
/// that guard the whole operation with `catch_unwind` (build-site
/// degradation boundaries).
pub fn breaker(site: &str) {
    match evaluate(site) {
        None => {}
        Some(_) => std::panic::panic_any(InjectedPanic { site: site.to_string() }),
    }
}

/// Like [`hit`] but lowers error-kind fires to `std::io::Error` — for
/// I/O-shaped parse paths (FASTA, guide files).
///
/// # Errors
///
/// An injected `std::io::Error` when an error-kind injection fires.
pub fn hit_io(site: &str) -> std::io::Result<()> {
    hit(site).map_err(std::io::Error::from)
}

/// RAII scope for tests: takes the global scenario lock (serializing
/// every fault-injecting test in the process), installs `spec`, and on
/// drop clears all sites and counters.
pub struct FailScenario {
    _guard: MutexGuard<'static, ()>,
}

impl fmt::Debug for FailScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FailScenario").finish_non_exhaustive()
    }
}

impl FailScenario {
    /// Locks the global scenario mutex and installs `spec`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec — scenario specs are test fixtures, not
    /// user input.
    pub fn setup(spec: &str) -> FailScenario {
        static SCENARIO_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = lock_unpoisoned(SCENARIO_LOCK.get_or_init(|| Mutex::new(())));
        clear();
        configure(spec).expect("valid failpoint spec");
        FailScenario { _guard: guard }
    }
}

impl Drop for FailScenario {
    fn drop(&mut self) {
        clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_free_and_silent() {
        let _scenario = FailScenario::setup("");
        assert!(hit("anything").is_ok());
        assert_eq!(fired_total(), 0);
    }

    #[test]
    fn error_kind_returns_structured_fault() {
        let _scenario = FailScenario::setup("io.site=error");
        let err = hit("io.site").unwrap_err();
        assert_eq!(err.site, "io.site");
        assert!(hit("other.site").is_ok(), "unconfigured sites stay silent");
        assert_eq!(fired_total(), 1);
        let io_err = hit_io("io.site").unwrap_err();
        assert!(io_err.to_string().contains("io.site"));
    }

    #[test]
    fn panic_kind_unwinds_with_typed_payload() {
        let _scenario = FailScenario::setup("boom=panic");
        let payload = std::panic::catch_unwind(|| hit("boom")).unwrap_err();
        let injected = payload.downcast_ref::<InjectedPanic>().expect("typed payload");
        assert_eq!(injected.site, "boom");
    }

    #[test]
    fn times_caps_total_fires() {
        let _scenario = FailScenario::setup("capped=error:1.0,0,2");
        assert!(hit("capped").is_err());
        assert!(hit("capped").is_err());
        assert!(hit("capped").is_ok(), "cap exhausted");
        assert!(hit("capped").is_ok());
        assert_eq!(fired_total(), 2);
    }

    #[test]
    fn probability_stream_is_deterministic() {
        let decisions = |seed: u64| {
            let _scenario = FailScenario::setup(&format!("p=error:0.5,{seed}"));
            (0..32).map(|_| hit("p").is_err()).collect::<Vec<_>>()
        };
        let a = decisions(7);
        let b = decisions(7);
        let c = decisions(8);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different seed, different stream");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f), "prob 0.5 mixes outcomes");
    }

    #[test]
    fn delay_kind_fires_in_place() {
        let _scenario = FailScenario::setup("slow=delay1");
        let start = std::time::Instant::now();
        assert!(hit("slow").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(1));
        assert_eq!(fired_total(), 1);
    }

    #[test]
    fn breaker_unwinds_for_error_kind_too() {
        let _scenario = FailScenario::setup("build=error");
        let payload = std::panic::catch_unwind(|| breaker("build")).unwrap_err();
        assert!(payload.downcast_ref::<InjectedPanic>().is_some());
    }

    #[test]
    fn spec_errors_are_structured() {
        for bad in
            ["nokind", "s=frob", "s=panic:2.0", "s=panic:0.1,x", "s=panic:0.1,2,3,4", "=panic"]
        {
            let err = configure(bad).unwrap_err();
            assert_eq!(err.entry, bad);
        }
        // Nothing was installed by the failures.
        assert!(hit("s").is_ok());
    }

    #[test]
    fn fire_marks_survive_a_concurrent_clear() {
        let _scenario = FailScenario::setup("m=error");
        let mark = FireMark::now();
        assert!(hit("m").is_err());
        // A clear from another scenario between the mark and the read
        // resets `fired_total` but not the mark's delta.
        clear();
        assert_eq!(fired_total(), 0);
        assert_eq!(mark.fired_since(), 1);
    }

    #[test]
    fn multi_entry_specs_and_clear() {
        let _scenario = FailScenario::setup("a=error; b=delay2;; c=panic:0.0");
        assert!(hit("a").is_err());
        assert!(hit("c").is_ok(), "prob 0 never fires");
        clear();
        assert!(hit("a").is_ok());
        assert_eq!(fired_total(), 0);
    }
}
