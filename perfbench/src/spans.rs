//! In-memory spans recorded around calls into the libraries, written out
//! at the end of a traced run as Chrome `trace_event` JSON.

use dsh_simcore::Json;
use std::time::{Duration, Instant};

/// One closed span.
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start: Duration,
    dur: Duration,
    args: Json,
}

/// Span recorder: spans stay in memory until [`Spans::to_chrome`].
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

/// An open span; close it with [`Spans::close`].
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

impl Open {
    /// The span's id, for children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new(), next_id: 1 }
    }

    /// Opens a span under `parent` (0: root).
    pub fn open(&mut self, name: &str, parent: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open { id, parent, name: name.to_string(), start: Instant::now() }
    }

    /// Closes `open` now, with `args` attached; returns its duration.
    pub fn close(&mut self, open: Open, args: Json) -> Duration {
        let dur = open.start.elapsed();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start: open.start - self.origin,
            dur,
            args,
        });
        dur
    }

    /// Records an already-measured span under `parent`, starting at
    /// `start` (per-event-class time from the engine profile, laid end to
    /// end inside its `run` span).
    pub fn record(&mut self, name: &str, parent: u64, start: Duration, dur: Duration, args: Json) {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span { id, parent, name: name.to_string(), start, dur, args });
    }

    /// The recorder's clock: time since it was created.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Chrome `trace_event` document: one complete ("X") event per span,
    /// with its id and parent in `args`, and `provenance` as metadata.
    pub fn to_chrome(&self, provenance: &Json) -> Json {
        let mut events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::object()
                    .with("name", s.name.as_str())
                    .with("cat", s.name.split('.').next().unwrap_or("span"))
                    .with("ph", "X")
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with("ts", s.start.as_nanos() as f64 / 1e3)
                    .with("dur", s.dur.as_nanos() as f64 / 1e3)
                    .with("args", s.args.clone().with("span_id", s.id).with("parent", s.parent))
            })
            .collect();
        events.push(
            Json::object()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", 1u64)
                .with("args", Json::object().with("name", "dsh-perfbench")),
        );
        Json::object()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", "ns")
            .with("otherData", provenance.clone())
    }
}
