//! The text exposition format (version 1) and snapshot merging.
//!
//! A snapshot renders as one header line followed by one line per
//! metric and span:
//!
//! ```text
//! # snn-obs v1
//! counter <name> <u64>
//! gauge <name> <f64>
//! hist <name> <sum> <bucket>:<count>,...      (`-` when empty)
//! span <name> <rid> <at_us> <dur_us> [k=v ...]   (rid `-` when unattributed)
//! exemplar <name> <region> <value> <rid> [k=v ...]
//! ```
//!
//! [`Snapshot::render`] ∘ [`Snapshot::parse`] is an identity (pinned by
//! this module's tests), which is what lets the cluster router scrape a
//! shard's exposition over the wire, parse it, merge it, and re-render
//! the aggregate without loss. Merging is associative and commutative:
//! counters and gauges add, histograms add bucket-wise, spans form a
//! canonically sorted multiset. A `span` line is the journal's `event`
//! line plus `dur_us`; both go through one line codec ([`Event`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{doc_body, Event, ParseError};
use crate::metrics::{Exemplar, HistogramSnapshot, HIST_BUCKETS, HIST_REGIONS};
use crate::registry::valid_name;
use crate::trace::valid_rid;

/// The exposition header every rendered snapshot starts with.
pub const EXPO_HEADER: &str = "# snn-obs v1";

/// A point-in-time copy of one registry (or a merge of several).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained spans (insertion order for a single registry, canonical
    /// order after a merge).
    pub spans: Vec<Event>,
    /// Tail-latency exemplars by histogram name, region-ascending. At
    /// most one exemplar per (name, region); merging keeps the slowest.
    pub exemplars: BTreeMap<String, Vec<Exemplar>>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Folds `other` into `self` (see the module docs for the algebra).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        self.spans.extend(other.spans.iter().cloned());
        self.spans.sort_by(Event::canonical_cmp);
        for (name, theirs) in &other.exemplars {
            let ours = self.exemplars.entry(name.clone()).or_default();
            for e in theirs {
                match ours.iter_mut().find(|o| o.region == e.region) {
                    Some(o) => {
                        if e.beats(o) {
                            *o = e.clone();
                        }
                    }
                    None => ours.push(e.clone()),
                }
            }
            ours.sort_by_key(|e| e.region);
        }
    }

    /// The slowest exemplar retained for histogram `name` — the rid a
    /// tail-latency alert should point at.
    pub fn worst_exemplar(&self, name: &str) -> Option<&Exemplar> {
        self.exemplars
            .get(name)?
            .iter()
            .max_by(|a, b| (a.value, &b.rid).cmp(&(b.value, &a.rid)))
    }

    /// Convenience: the named histogram, or an empty one.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Convenience: the named counter, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience: the named gauge, or 0.0.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Renders the exposition text (ends with a newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{EXPO_HEADER}");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {value}");
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, c)| format!("{i}:{c}"))
                .collect();
            let buckets = if buckets.is_empty() {
                "-".to_string()
            } else {
                buckets.join(",")
            };
            let _ = writeln!(out, "hist {name} {} {buckets}", h.sum);
        }
        for span in &self.spans {
            span.render_line(&mut out, "span", true);
        }
        for (name, exemplars) in &self.exemplars {
            for e in exemplars {
                let _ = write!(out, "exemplar {name} {} {} {}", e.region, e.value, e.rid);
                for (k, v) in &e.fields {
                    let _ = write!(out, " {k}={v}");
                }
                out.push('\n');
            }
        }
        out
    }

    /// Parses text produced by [`Snapshot::render`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on a missing/unknown header, malformed
    /// lines, out-of-range buckets, or invalid names.
    pub fn parse(text: &str) -> Result<Snapshot, ParseError> {
        let err = |line: usize, reason: &str| ParseError::new("exposition", line, reason);
        let mut snap = Snapshot::new();
        for (n, kind, mut tok) in doc_body(text, "exposition", EXPO_HEADER)? {
            match kind {
                "counter" | "gauge" => {
                    let name = tok.next().ok_or_else(|| err(n, "missing name"))?;
                    if !valid_name(name) {
                        return Err(err(n, "invalid metric name"));
                    }
                    let value = tok.next().ok_or_else(|| err(n, "missing value"))?;
                    if tok.next().is_some() {
                        return Err(err(n, "trailing tokens"));
                    }
                    if kind == "counter" {
                        let v = value
                            .parse::<u64>()
                            .map_err(|_| err(n, "counter value is not a u64"))?;
                        *snap.counters.entry(name.to_string()).or_insert(0) += v;
                    } else {
                        let v = value
                            .parse::<f64>()
                            .map_err(|_| err(n, "gauge value is not a number"))?;
                        snap.gauges.insert(name.to_string(), v);
                    }
                }
                "hist" => {
                    let name = tok.next().ok_or_else(|| err(n, "missing name"))?;
                    if !valid_name(name) {
                        return Err(err(n, "invalid metric name"));
                    }
                    let sum = tok
                        .next()
                        .ok_or_else(|| err(n, "missing sum"))?
                        .parse::<u64>()
                        .map_err(|_| err(n, "hist sum is not a u64"))?;
                    let buckets = tok.next().ok_or_else(|| err(n, "missing buckets"))?;
                    if tok.next().is_some() {
                        return Err(err(n, "trailing tokens"));
                    }
                    let mut h = HistogramSnapshot::new();
                    h.sum = sum;
                    if buckets != "-" {
                        for pair in buckets.split(',') {
                            let (idx, count) = pair
                                .split_once(':')
                                .ok_or_else(|| err(n, "bucket pair is not idx:count"))?;
                            let idx = idx
                                .parse::<usize>()
                                .map_err(|_| err(n, "bucket index is not a usize"))?;
                            if idx >= HIST_BUCKETS {
                                return Err(err(n, "bucket index out of range"));
                            }
                            h.counts[idx] = count
                                .parse::<u64>()
                                .map_err(|_| err(n, "bucket count is not a u64"))?;
                        }
                    }
                    snap.histograms.insert(name.to_string(), h);
                }
                "span" => snap
                    .spans
                    .push(Event::parse_line(tok, true).map_err(|r| err(n, r))?),
                "exemplar" => {
                    let name = tok.next().ok_or_else(|| err(n, "missing name"))?;
                    if !valid_name(name) {
                        return Err(err(n, "invalid metric name"));
                    }
                    let region = tok
                        .next()
                        .ok_or_else(|| err(n, "missing region"))?
                        .parse::<usize>()
                        .map_err(|_| err(n, "region is not a usize"))?;
                    if region >= HIST_REGIONS {
                        return Err(err(n, "region out of range"));
                    }
                    let value = tok
                        .next()
                        .ok_or_else(|| err(n, "missing value"))?
                        .parse::<u64>()
                        .map_err(|_| err(n, "value is not a u64"))?;
                    let rid = tok.next().ok_or_else(|| err(n, "missing rid"))?;
                    if !valid_rid(rid) {
                        return Err(err(n, "invalid rid"));
                    }
                    let mut fields = Vec::new();
                    for pair in tok {
                        let (k, v) = pair
                            .split_once('=')
                            .ok_or_else(|| err(n, "exemplar field is not k=v"))?;
                        fields.push((k.to_string(), v.to_string()));
                    }
                    let candidate = Exemplar {
                        region,
                        value,
                        rid: rid.to_string(),
                        fields,
                    };
                    // Duplicate (name, region) lines fold like a merge:
                    // the slowest wins, so parse tolerates concatenated
                    // expositions the same way counters do.
                    let ours = snap.exemplars.entry(name.to_string()).or_default();
                    match ours.iter_mut().find(|o| o.region == region) {
                        Some(o) => {
                            if candidate.beats(o) {
                                *o = candidate;
                            }
                        }
                        None => ours.push(candidate),
                    }
                    ours.sort_by_key(|e| e.region);
                }
                _ => return Err(err(n, "unknown line kind")),
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::time::Duration;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new("t0");
        r.counter("serve.requests").add(42);
        r.gauge("serve.sessions").set(3.5);
        let h = r.histogram("serve.req.ingest_us");
        for v in [9, 9, 120, 4096] {
            h.record(v);
        }
        r.histogram("serve.empty_us");
        r.span(
            "serve.ingest",
            "t0-1",
            Duration::from_micros(120),
            &[("id", "load-1".to_string())],
        );
        r.span("serve.tick", "", Duration::from_micros(7), &[]);
        r.exemplar(
            "serve.req.ingest_us",
            4096,
            "t0-1",
            &[("verb", "ingest".to_string())],
        );
        r.exemplar("serve.req.ingest_us", 9, "t0-2", &[]);
        r.snapshot()
    }

    #[test]
    fn render_parse_is_an_identity() {
        let snap = sample_snapshot();
        let text = snap.render();
        assert!(text.starts_with(EXPO_HEADER));
        let parsed = Snapshot::parse(&text).expect("round trip");
        assert_eq!(parsed, snap);
        // And a second render is byte-identical.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn merged_snapshots_round_trip_too() {
        let a = sample_snapshot();
        let b = sample_snapshot();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.counter("serve.requests"), 84);
        assert_eq!(m.histogram("serve.req.ingest_us").count(), 8);
        assert_eq!(m.spans.len(), 4);
        let parsed = Snapshot::parse(&m.render()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn merge_is_associative() {
        let a = sample_snapshot();
        let mut b = sample_snapshot();
        b.counters.insert("other".into(), 7);
        let mut c = Snapshot::new();
        c.gauges.insert("g".into(), 2.0);
        c.spans.push(Event {
            name: "x".into(),
            rid: String::new(),
            at_us: 0,
            dur_us: 1,
            fields: vec![],
        });
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn hostile_text_is_rejected_with_line_numbers() {
        let cases = [
            ("", 1),
            ("# wrong header\n", 1),
            ("# snn-obs v1\ncounter\n", 2),
            ("# snn-obs v1\ncounter a.b notanumber\n", 2),
            ("# snn-obs v1\ncounter bad name 1\n", 2),
            ("# snn-obs v1\nhist h 0 9999:1\n", 2),
            ("# snn-obs v1\nhist h 0 5-3\n", 2),
            ("# snn-obs v1\nspan x - 1\n", 2),
            ("# snn-obs v1\nspan x !bad! 1 2\n", 2),
            ("# snn-obs v1\nwhatever\n", 2),
            ("# snn-obs v1\ncounter a 1 extra\n", 2),
            ("# snn-obs v1\nexemplar h 0 5\n", 2),
            ("# snn-obs v1\nexemplar h 9999 5 r-1\n", 2),
            ("# snn-obs v1\nexemplar h 0 x r-1\n", 2),
            ("# snn-obs v1\nexemplar h 0 5 !bad!\n", 2),
            ("# snn-obs v1\nexemplar h 0 5 r-1 loose\n", 2),
        ];
        for (text, line) in cases {
            match Snapshot::parse(text) {
                Err(e) => assert_eq!(e.line, line, "case {text:?}: {e}"),
                Ok(_) => panic!("case {text:?} must fail"),
            }
        }
    }

    #[test]
    fn exemplar_merge_keeps_the_slowest_per_region() {
        let mut a = Snapshot::new();
        a.exemplars.insert(
            "h".into(),
            vec![Exemplar {
                region: 3,
                value: 100,
                rid: "a-1".into(),
                fields: vec![],
            }],
        );
        let mut b = Snapshot::new();
        b.exemplars.insert(
            "h".into(),
            vec![
                Exemplar {
                    region: 3,
                    value: 250,
                    rid: "b-1".into(),
                    fields: vec![("verb".into(), "ingest".into())],
                },
                Exemplar {
                    region: 7,
                    value: 9000,
                    rid: "b-2".into(),
                    fields: vec![],
                },
            ],
        );
        // Merge is commutative: either direction keeps the same winners.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let ex = &ab.exemplars["h"];
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].rid, "b-1", "slower sample displaced region 3");
        assert_eq!(ab.worst_exemplar("h").unwrap().rid, "b-2");
        assert_eq!(ab.worst_exemplar("nope"), None);
        // And the merged snapshot still round-trips.
        assert_eq!(Snapshot::parse(&ab.render()).unwrap(), ab);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# snn-obs v1\n\n# a comment\ncounter a.b 1\n";
        let snap = Snapshot::parse(text).unwrap();
        assert_eq!(snap.counter("a.b"), 1);
    }
}
