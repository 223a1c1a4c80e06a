//! In-memory spans of a traced run, written out once as Chrome-trace
//! JSON (Perfetto and `chrome://tracing` open it beside the simulator's
//! own telemetry export).
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer: the generator call, `*Run::start`, each `run_to` step,
//! `finish`, and the pieces of the throughput search. A step span
//! carries the per-group handler self time of that step as arguments
//! instead of one span per event, so a 15 M-event run stays small.

use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a recorded span (its index).
pub type SpanId = usize;

/// One closed or open span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run_to`.
    pub name: String,
    /// Start, in microseconds since the tracer's epoch.
    pub start_us: f64,
    /// End (equal to the start while open).
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Numeric arguments (counts, per-group self times).
    pub args: Vec<(String, f64)>,
}

/// A span recorder. Disabled tracers record nothing, so untraced code
/// paths can call it unconditionally.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    run_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for one workload run; `run_id` tags every span.
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            run_id,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span (no-op when disabled).
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let t = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: t,
            end_us: t,
            parent,
            args: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`], attaching `args`.
    pub fn end(&mut self, id: Option<SpanId>, args: Vec<(String, f64)>) {
        if let Some(id) = id {
            let t = self.now_us();
            let span = &mut self.spans[id];
            span.end_us = t;
            span.args = args;
        }
    }

    /// Chrome-trace JSON: one complete (`"ph":"X"`) event per span on
    /// process `run_id`, with the parent index and arguments in `args`.
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":1,\"args\":{{\"name\":\"{}\"}}}}",
            self.run_id,
            escape(process_name)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{}",
                escape(&s.name),
                self.run_id,
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                i
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{}\":{}", escape(k), json_number(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number with every digit of the f64 (non-finite values, which
/// JSON cannot hold, become `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
