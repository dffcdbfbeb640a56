//! The one telemetry event model: [`Event`], its bounded ring, and its
//! line codec.
//!
//! A span and a journal event are the same record — a dotted name, the
//! request id that caused it, a birth-relative timestamp, and free-form
//! `k=v` context — except that a span also covers a duration. A journal
//! event is therefore an [`Event`] with `dur_us = 0`.
//!
//! A registry keeps two bounded [`EventRing`]s of them, spans
//! ([`crate::SPAN_RING`]) and journal ([`crate::JOURNAL_RING`]). They
//! stay separate on purpose: per-request spans would otherwise flush
//! rare failover events out of the flight recorder.
//!
//! Both text formats write an event as one line,
//! `<tag> <name> <rid|-> <at_us> [dur_us] [k=v ...]`: the exposition's
//! `span` lines carry `dur_us`, the journal's `event` lines do not. One
//! render/parse pair ([`Event::render_line`], [`Event::parse_line`])
//! serves both, and the trace document's `node` lines too. All three
//! documents share one reader ([`doc_body`]) and one [`ParseError`].

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::registry::valid_name;
use crate::trace::valid_rid;

/// One recorded span or journal event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What ran or happened (metric-style dotted name, e.g.
    /// `serve.ingest` or `cluster.failover`).
    pub name: String,
    /// The originating request id; empty for unattributed work.
    pub rid: String,
    /// Start offset in microseconds since the recording registry's birth.
    pub at_us: u64,
    /// Duration in microseconds (0 for a journal event).
    pub dur_us: u64,
    /// Extra key/value context (e.g. `id`, `shard`, `cause`, `phase`).
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// The value of `key` in [`Event::fields`], if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Canonical ordering after a merge, so merging stays associative (a
    /// sorted multiset is order-insensitive).
    pub(crate) fn canonical_cmp(a: &Event, b: &Event) -> std::cmp::Ordering {
        (a.at_us, &a.name, &a.rid, a.dur_us, &a.fields)
            .cmp(&(b.at_us, &b.name, &b.rid, b.dur_us, &b.fields))
    }

    /// Appends `<tag> <name> <rid|-> <at_us> [dur_us] [k=v ...]\n` to
    /// `out`; `dur_us` is written only when `with_dur` is set.
    pub(crate) fn render_line(&self, out: &mut String, tag: &str, with_dur: bool) {
        let rid = if self.rid.is_empty() { "-" } else { &self.rid };
        let _ = write!(out, "{tag} {} {rid} {}", self.name, self.at_us);
        if with_dur {
            let _ = write!(out, " {}", self.dur_us);
        }
        for (k, v) in &self.fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }

    /// Parses the tokens after a line's tag, the inverse of
    /// [`Event::render_line`]. Names and field keys must be
    /// [`valid_name`]s, the rid a [`valid_rid`] or `-`.
    pub(crate) fn parse_line<'a>(
        mut tok: impl Iterator<Item = &'a str>,
        with_dur: bool,
    ) -> Result<Event, &'static str> {
        let name = tok.next().ok_or("missing name")?;
        if !valid_name(name) {
            return Err("invalid name");
        }
        let rid = match tok.next().ok_or("missing rid")? {
            "-" => String::new(),
            rid if valid_rid(rid) => rid.to_string(),
            _ => return Err("invalid rid"),
        };
        let mut number = |missing, bad| tok.next().ok_or(missing)?.parse::<u64>().map_err(|_| bad);
        let at_us = number("missing at_us", "at_us is not a u64")?;
        let dur_us = if with_dur {
            number("missing dur_us", "dur_us is not a u64")?
        } else {
            0
        };
        let mut fields = Vec::new();
        for pair in tok {
            let (k, v) = pair.split_once('=').ok_or("field is not k=v")?;
            if !valid_name(k) {
                return Err("invalid field key");
            }
            fields.push((k.to_string(), v.to_string()));
        }
        Ok(Event {
            name: name.to_string(),
            rid,
            at_us,
            dur_us,
            fields,
        })
    }
}

/// A parse error in one of the text documents (exposition, journal,
/// trace), with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Which document: `exposition`, `journal`, or `trace`.
    pub doc: &'static str,
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl ParseError {
    pub(crate) fn new(doc: &'static str, line: usize, reason: &str) -> Self {
        ParseError {
            doc,
            line,
            reason: reason.to_string(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} line {}: {}", self.doc, self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// The body of a `doc` text that must open with `header`: every line
/// after it that is neither blank nor a `#` comment, as
/// `(1-based line number, line tag, remaining tokens)`.
pub(crate) fn doc_body<'a>(
    text: &'a str,
    doc: &'static str,
    header: &str,
) -> Result<impl Iterator<Item = (usize, &'a str, std::str::Split<'a, char>)>, ParseError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim_end() == header => {}
        _ => {
            return Err(ParseError::new(
                doc,
                1,
                &format!("missing `{header}` header"),
            ))
        }
    }
    Ok(lines.filter_map(|(i, raw)| {
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut tok = line.split(' ');
        let tag = tok.next().unwrap_or_default();
        Some((i + 1, tag, tok))
    }))
}

/// A bounded ring of events. Overflow drops the *oldest* event and
/// counts the drop, so truncation is visible, never silent.
#[derive(Debug)]
pub(crate) struct EventRing {
    cap: usize,
    events: VecDeque<Event>,
    /// Events ever pushed (retained or dropped).
    pub(crate) total: u64,
    /// Events dropped to stay within `cap`.
    pub(crate) dropped: u64,
}

impl EventRing {
    pub(crate) fn new(cap: usize) -> Self {
        EventRing {
            cap,
            events: VecDeque::with_capacity(cap),
            total: 0,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, event: Event) {
        self.total += 1;
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Copies of the retained events pushed after the ring's `total` was
    /// `cursor`, oldest first (all retained events for `cursor = 0`).
    pub(crate) fn since(&self, cursor: u64) -> Vec<Event> {
        let fresh = (self.total.saturating_sub(cursor)).min(self.events.len() as u64);
        self.events
            .range(self.events.len() - fresh as usize..)
            .cloned()
            .collect()
    }

    /// Copies of the retained events stamped with `rid`, oldest first.
    pub(crate) fn of_rid(&self, rid: &str) -> Vec<Event> {
        self.events
            .iter()
            .filter(|e| e.rid == rid)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, at_us: u64) -> Event {
        Event {
            name: name.into(),
            rid: String::new(),
            at_us,
            dur_us: 0,
            fields: vec![],
        }
    }

    #[test]
    fn ring_drops_oldest_and_serves_deltas() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(event("x", i));
        }
        assert_eq!((ring.total, ring.dropped), (5, 2));
        let at = |v: Vec<Event>| v.iter().map(|e| e.at_us).collect::<Vec<_>>();
        assert_eq!(at(ring.since(0)), [2, 3, 4], "cursor 0 reads the ring");
        assert_eq!(at(ring.since(4)), [4], "only events past the cursor");
        assert_eq!(at(ring.since(5)), Vec::<u64>::new());
        assert_eq!(at(ring.since(1)), [2, 3, 4], "lost events stay lost");
    }

    #[test]
    fn line_codec_round_trips_with_and_without_duration() {
        let e = Event {
            name: "serve.ingest".into(),
            rid: "s0-1".into(),
            at_us: 17,
            dur_us: 5,
            fields: vec![("id".into(), "a".into())],
        };
        for (with_dur, text) in [
            (true, "span serve.ingest s0-1 17 5 id=a\n"),
            (false, "event serve.ingest s0-1 17 id=a\n"),
        ] {
            let mut out = String::new();
            e.render_line(&mut out, text.split(' ').next().unwrap(), with_dur);
            assert_eq!(out, text);
            let parsed = Event::parse_line(out.trim_end().split(' ').skip(1), with_dur).unwrap();
            assert_eq!(parsed.dur_us, if with_dur { 5 } else { 0 });
            assert_eq!((parsed.name, parsed.at_us), (e.name.clone(), 17));
        }
    }
}
