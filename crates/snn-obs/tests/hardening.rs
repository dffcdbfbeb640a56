//! Fuzz-ish hardening of the two text codecs (`Snapshot::parse` and
//! `JournalSnapshot::parse`) against hostile input: truncations at every
//! byte, line reorderings and duplications, and randomised byte
//! mutations. The contract under attack:
//!
//! * **No panics** — every input returns `Ok` or a clean `Err`.
//! * **Bounded allocation** — nothing in either format pre-sizes
//!   buffers from attacker-claimed lengths; a tiny input claiming huge
//!   counts parses into fixed-size structures.
//! * **Clean errors** — failures carry a 1-based line number that
//!   actually lies within the input.
//! * **One line grammar** — a `span` line is an `event` line plus
//!   `dur_us`, parsed by one codec, so both reject the same hostile
//!   field tails on the same lines.
//! * **v1 stays v1** — committed journal files read back byte for byte.

use snn_obs::{JournalSnapshot, Registry, Snapshot, HIST_BUCKETS};
use std::time::Duration;

/// A tiny deterministic xorshift generator, so the "fuzz" corpus is
/// reproducible without any external randomness dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn sample_expo() -> String {
    let r = Registry::new("fz0");
    r.counter("serve.requests").add(1234);
    r.gauge("serve.sessions").set(-3.25);
    let h = r.histogram("serve.req.ingest_us");
    for v in [0, 3, 17, 4096, u64::MAX] {
        h.record(v);
    }
    r.span(
        "serve.ingest",
        "fz0-1",
        Duration::from_micros(55),
        &[("id", "load-1".to_string()), ("bytes", "99".to_string())],
    );
    r.snapshot().render()
}

fn sample_journal() -> String {
    let r = Registry::new("fz1");
    for i in 0..8 {
        r.journal_event(
            "cluster.failover",
            "fz1-3",
            &[("id", format!("s-{i}")), ("cause", "fz1-1".to_string())],
        );
    }
    r.journal_snapshot().render()
}

/// Every prefix of a valid document parses without panicking, and any
/// error names a line inside the prefix.
fn truncations_are_clean<T>(text: &str, parse: impl Fn(&str) -> Result<T, (usize, String)>) {
    for cut in 0..=text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        let prefix = &text[..cut];
        if let Err((line, reason)) = parse(prefix) {
            let lines = prefix.lines().count().max(1);
            assert!(
                line >= 1 && line <= lines,
                "error line {line} outside {lines}-line input ({reason})"
            );
        }
    }
}

#[test]
fn truncated_expositions_never_panic() {
    truncations_are_clean(&sample_expo(), |t| {
        Snapshot::parse(t).map_err(|e| (e.line, e.reason))
    });
}

#[test]
fn truncated_journals_never_panic() {
    truncations_are_clean(&sample_journal(), |t| {
        JournalSnapshot::parse(t).map_err(|e| (e.line, e.reason))
    });
}

/// Body lines may arrive in any order (a merged artifact, a hand-edited
/// dump): reordering and duplicating them must parse or fail cleanly —
/// and pure reordering must succeed, since both formats are
/// order-insensitive below the header.
#[test]
fn reordered_and_duplicated_lines_are_handled() {
    for text in [sample_expo(), sample_journal()] {
        let mut lines: Vec<&str> = text.lines().collect();
        let header = lines.remove(0);
        lines.reverse();
        let reordered = format!("{header}\n{}\n", lines.join("\n"));
        if text.starts_with("# snn-obs") {
            Snapshot::parse(&reordered).expect("reordered exposition parses");
        } else {
            JournalSnapshot::parse(&reordered).expect("reordered journal parses");
        }
        // Duplicating every line must not panic either (counters sum,
        // gauges last-write-win, journal events repeat).
        let mut doubled = String::from(header);
        doubled.push('\n');
        for l in &lines {
            doubled.push_str(l);
            doubled.push('\n');
            doubled.push_str(l);
            doubled.push('\n');
        }
        let _ = Snapshot::parse(&doubled);
        let _ = JournalSnapshot::parse(&doubled);
    }
}

/// Randomised byte mutations: flip/insert/delete bytes all over valid
/// documents. Nothing may panic; errors must carry in-range lines.
#[test]
fn mutated_documents_never_panic() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0001);
    for base in [sample_expo(), sample_journal()] {
        for _ in 0..400 {
            let mut bytes = base.clone().into_bytes();
            for _ in 0..(1 + rng.next() % 4) {
                if bytes.is_empty() {
                    break;
                }
                let pos = (rng.next() as usize) % bytes.len();
                match rng.next() % 3 {
                    0 => bytes[pos] = (rng.next() % 256) as u8,
                    1 => {
                        bytes.remove(pos);
                    }
                    _ => bytes.insert(pos, (rng.next() % 128) as u8),
                }
            }
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            let lines = text.lines().count().max(1);
            if let Err(e) = Snapshot::parse(&text) {
                assert!(e.line >= 1 && e.line <= lines, "{e}");
            }
            if let Err(e) = JournalSnapshot::parse(&text) {
                assert!(e.line >= 1 && e.line <= lines, "{e}");
            }
        }
    }
}

/// A tiny input claiming enormous values parses into fixed-size
/// structures: the formats carry no length fields, so an attacker
/// cannot make the parser allocate beyond the input's own size.
#[test]
fn huge_claims_do_not_inflate_allocation() {
    let max = u64::MAX;
    let text = format!(
        "# snn-obs v1\nhist h {max} 0:{max},{}:{max}\n",
        HIST_BUCKETS - 1
    );
    let snap = Snapshot::parse(&text).expect("extreme-but-valid hist parses");
    let h = snap.histogram("h");
    assert_eq!(h.counts.len(), HIST_BUCKETS, "bucket vector is fixed-size");
    assert_eq!(h.sum, max);

    // An out-of-range bucket index is refused, not used to index or size
    // anything.
    let attack = format!("# snn-obs v1\nhist h 1 {}:1\n", usize::MAX);
    let err = Snapshot::parse(&attack).expect_err("out-of-range bucket refused");
    assert_eq!(err.line, 2);

    // Journal meta counters saturate the parse only through u64 checks.
    let j = format!("# snn-journal v1\nmeta total={max} dropped={max}\nevent x - {max}\n");
    let parsed = JournalSnapshot::parse(&j).expect("extreme journal parses");
    assert_eq!(parsed.events.len(), 1, "one line, one event");
}

/// The same hostile tails — bad field key, missing `=`, bad rid,
/// non-numeric time — fail on `span` and `event` lines alike, on the
/// same line.
#[test]
fn hostile_event_tails_fail_alike_on_span_and_event_lines() {
    // (tail after `<name>`, with the span's extra `dur_us` spliced in
    // after the time by `{dur}`)
    let tails = [
        "- 1{dur} b@d=1",
        "- 1{dur} =1",
        "- 1{dur} loose",
        "- 1{dur} ok=1 loose",
        "!bad! 1{dur}",
        "- x{dur}",
        "-",
        "",
    ];
    for tail in tails {
        let span = format!(
            "# snn-obs v1\ncounter c 1\nspan x {}\n",
            tail.replace("{dur}", " 2")
        );
        let event = format!(
            "# snn-journal v1\nmeta total=1 dropped=0\nevent x {}\n",
            tail.replace("{dur}", "")
        );
        let span_err = Snapshot::parse(&span).expect_err(&span);
        let event_err = JournalSnapshot::parse(&event).expect_err(&event);
        assert_eq!(span_err.line, 3, "{span:?}: {span_err}");
        assert_eq!(event_err.line, 3, "{event:?}: {event_err}");
        assert_eq!(span_err.reason, event_err.reason, "one codec, one verdict");
    }
}

/// The first lines of the committed `POSTMORTEM_cluster.journal`, verbatim.
const POSTMORTEM_V1: &str = concat!(
    "# snn-journal v1\n",
    "meta total=23 dropped=0\n",
    "event serve.open c2-1 7265 id=ch-3\n",
    "event serve.open c2-2 8250 id=ch-1\n",
    "event serve.open c2-4 9334 id=ch-2\n",
    "event serve.open c2-3 14092 id=ch-0\n",
    "event cluster.probe_fail c2-30 1075869 shard=1 strike=1\n",
    "event cluster.scrape_fail - 1092521 shard=1\n",
    "event cluster.scrape_fail - 1156556 shard=1\n",
    "event cluster.scrape_fail - 1200833 shard=1\n",
    "event cluster.scrape_fail - 1251375 shard=1\n",
    "event cluster.scrape_fail - 1296929 shard=1\n",
    "event cluster.scrape_fail - 1348734 shard=1\n",
    "event cluster.probe_fail c2-30 1360134 shard=1 strike=2\n",
    "event cluster.shard_down c2-30 1360146 shard=1\n",
    "event serve.close c2-106 1485068 id=ch-0 samples=32\n",
    "event serve.restore c2-104 1552909 id=ch-2 samples=16\n",
    "event cluster.failover c2-104 1553728 id=ch-2 cause=c2-30 from=1 to=0 seq=16\n",
    "event serve.restore c2-119 1602840 id=ch-3 samples=16\n",
    "event cluster.failover c2-119 1604894 id=ch-3 cause=c2-30 from=1 to=0 seq=16\n",
);

/// A v1 journal written by an earlier build parses and renders back
/// byte for byte.
#[test]
fn v1_postmortem_fixture_round_trips_byte_for_byte() {
    let parsed = JournalSnapshot::parse(POSTMORTEM_V1).expect("v1 fixture parses");
    assert_eq!(parsed.total, 23);
    assert_eq!(parsed.events.len(), 18);
    assert!(parsed.events.iter().all(|e| e.dur_us == 0));
    let down = parsed.of_kind("cluster.shard_down").next().expect("death");
    assert_eq!(
        (down.rid.as_str(), down.field("shard")),
        ("c2-30", Some("1"))
    );
    assert_eq!(parsed.render(), POSTMORTEM_V1);
}
