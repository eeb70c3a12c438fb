//! The traced run's span recorder: one span (name, start, end, parent)
//! around every child process, HTTP request and in-process genome call,
//! kept in memory and written as one Chrome trace when the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    /// Chrome trace track: 0 for the main thread, 1.. for client connections.
    track: u32,
    start: Instant,
    end: Instant,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, so children can name a parent recorded after them.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(
        &self,
        id: u64,
        name: impl Into<String>,
        parent: Option<u64>,
        track: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span { id, parent, name: name.into(), track, start, end };
        self.spans.lock().expect("no span recorder panics while holding the lock").push(span);
    }

    /// Records a span with a fresh id and returns the id.
    pub fn add(
        &self,
        name: impl Into<String>,
        parent: Option<u64>,
        track: u32,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record(id, name, parent, track, start, end);
        id
    }

    /// The spans as a Chrome `trace_event` document of complete events.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans.lock().expect("no span recorder panics while holding the lock");
        let micros = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{parent}}}}}",
                    s.name.replace('\\', "\\\\").replace('"', "\\\""),
                    s.track,
                    micros(s.start),
                    micros(s.end) - micros(s.start),
                    s.id
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}
