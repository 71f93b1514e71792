//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON lines when the run ends.

use crate::util::push_json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: its name, the workload unit it belongs to (a spec run
/// or a serve job), and the span that caused it.
pub struct Span {
    pub name: String,
    pub unit: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str, unit: u64) -> usize {
        let now = Instant::now();
        let id = self.record(self.open.last().copied(), name, unit, now, now);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = Instant::now();
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &str, unit: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, unit);
        let value = f();
        self.end(id);
        value
    }

    /// Records an already-measured interval under `parent` (client-side
    /// event gaps of a serve job).
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &str,
        unit: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            unit,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    fn duration_ms(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        span.end.saturating_duration_since(span.start).as_secs_f64() * 1e3
    }

    /// Self time per span name, in ms: each span's duration minus the
    /// time its direct children cover.
    pub fn self_times_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                child_ms[parent] += self.duration_ms(id);
            }
        }
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            // Children recorded from the same instants as their parent
            // can exceed it by rounding; self time is never negative.
            *out.entry(span.name.clone()).or_insert(0.0) +=
                (self.duration_ms(id) - child_ms[id]).max(0.0);
        }
        out
    }

    /// Share of the root spans' wall time covered by their direct
    /// children (the per-layer calls the benchmark times).
    pub fn coverage(&self) -> f64 {
        let mut root_ms = 0.0;
        let mut covered_ms = 0.0;
        for (id, span) in self.spans.iter().enumerate() {
            match span.parent {
                None => root_ms += self.duration_ms(id),
                Some(parent) if self.spans[parent].parent.is_none() => {
                    covered_ms += self.duration_ms(id)
                }
                Some(_) => {}
            }
        }
        if root_ms > 0.0 {
            covered_ms / root_ms
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON line (times in µs since the tracer
    /// started).
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let _ = write!(out, "{{\"id\": {id}, \"parent\": ");
            match span.parent {
                Some(parent) => {
                    let _ = write!(out, "{parent}");
                }
                None => out.push_str("null"),
            }
            out.push_str(", \"name\": ");
            push_json_str(&mut out, &span.name);
            let _ = writeln!(
                out,
                ", \"unit\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                span.unit,
                at(span.start),
                at(span.end)
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
