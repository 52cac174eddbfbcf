//! In-memory spans recorded by the benchmark around its calls into each
//! layer (nothing is traced inside the program itself). Spans are kept
//! in memory and written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The design, cell, sweep or request the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder; when disabled every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span measured by the caller; `None` when off.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Starts a span whose children are recorded before it ends; finish
    /// it with [`close`](Tracer::close).
    pub fn open(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<SpanId> {
        self.record(name, req, parent, start, start)
    }

    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(end);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of its
    /// interval that its children cover (overlapping children counted
    /// once).
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.duration_ns() - covered
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time_ns(i) as f64 / 1e6)
            .collect()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                self.self_time_ns(id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, ms: u64) -> Instant {
        t.origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let (a, b) = (at(&t, 0), at(&t, 100));
        let root = t.record("root", 1, None, a, b).unwrap();
        // Overlapping children [10,30) and [20,50) cover 40 ms; a child
        // running past the parent's end counts only up to it: [90,100).
        for (s, e) in [(10, 30), (20, 50), (90, 120)] {
            let (s, e) = (at(&t, s), at(&t, e));
            t.record("child", 1, Some(root), s, e);
        }
        // A grandchild does not reduce the root's self time twice.
        let (s, e) = (at(&t, 12), at(&t, 14));
        t.record("grandchild", 1, Some(1), s, e);
        assert_eq!(t.self_time_ns(root), 50_000_000);
        assert_eq!(t.self_time_ns(1), 18_000_000);
        assert_eq!(t.self_times_ms("root"), vec![50.0]);
        assert_eq!(t.durations_ms("child"), vec![20.0, 30.0, 30.0]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, None, now, now), None);
        assert!(t.spans().is_empty());
    }
}
