//! In-memory spans recorded by the benchmark around calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request it belongs to. Spans stay in memory while a run measures
//! and are written out as JSON lines when it ends. A layer's self time is
//! its span's duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin; `None` while open.
    pub end_ns: Option<u64>,
}

/// A span store shared by the threads of one run. A disabled tracer records
/// nothing, so untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting at `start`; close it with [`Tracer::close`].
    /// Returns `None` when tracing is off.
    pub fn open(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: None,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end = self.ns(end);
            self.spans.lock().expect("span store poisoned")[id].end_ns = Some(end);
        }
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let id = self.open(name, request, parent, start);
        self.close(id, end);
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end_ns.map_or("null".to_string(), |e| e.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{end}}}",
                s.name, s.request, s.start_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Duration of `span` minus the part of it covered by `children`. Children
/// may overlap each other (parallel work) and may stick out of the parent;
/// only the union of their intervals inside the parent counts.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// Per span name: how many closed spans, their total duration and their
/// total self time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Folds closed spans into per-name totals.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
            children[p].push((s.start_ns, end));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(end) = s.end_ns else { continue };
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += end - s.start_ns;
        t.self_ns += self_time((s.start_ns, end), &children[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel children over [10, 40) and [20, 50): union is 40.
        assert_eq!(self_time((0, 100), &[(20, 50), (10, 40)]), 60);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15)]), 5);
        assert_eq!(self_time((10, 20), &[(18, 40)]), 8);
        assert_eq!(self_time((10, 20), &[(30, 40), (0, 5)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
    }

    #[test]
    fn totals_fold_by_name_and_parent() {
        let t = Tracer::new(true);
        let o = t.origin;
        let at = |ns: u64| o + std::time::Duration::from_nanos(ns);
        let root = t.open("online.ingest_batch", 1, None, at(0));
        t.record("runtime.infer", 1, root, at(10), at(40));
        t.record("spikedyn.train_image", 1, root, at(40), at(70));
        t.record("spikedyn.train_image", 1, root, at(70), at(90));
        t.close(root, at(100));
        let totals = totals(&t.spans());
        let ingest = totals["online.ingest_batch"];
        assert_eq!(
            (ingest.count, ingest.total_ns, ingest.self_ns),
            (1, 100, 20)
        );
        let train = totals["spikedyn.train_image"];
        assert_eq!((train.count, train.total_ns, train.self_ns), (2, 50, 50));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, None, now, now), None);
        assert!(t.spans().is_empty());
    }
}
