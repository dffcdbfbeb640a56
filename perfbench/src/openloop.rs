//! The open-loop generator: one thread sends requests when they fall due,
//! one thread demultiplexes replies by tag.
//!
//! At most one request per session is in flight: the server may answer the
//! frames of one session in any order and a learner is order-sensitive, so a
//! request that falls due while its session's previous one is outstanding
//! waits for that reply (head-of-line wait) and goes out from the reply
//! thread. Latency always runs from when the request was due. A refused or
//! failed request counts as a miss and is resent, so every session's stream
//! stays complete and in order.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use snn_data::Image;
use snn_serve::frame::Frame;
use snn_serve::protocol::decode_predictions;

use crate::spans::Tracer;
use crate::stats::percentile;
use crate::wire::{self, read_frame, Conn, Reply};

/// Attempts after which a request that keeps failing is abandoned.
const MAX_ATTEMPTS: u32 = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Checkpoint,
}

/// One planned request. `batch` indexes the session's batch list.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due: Duration,
    pub session: usize,
    pub kind: Kind,
    pub batch: usize,
}

/// What happened to one planned request.
#[derive(Debug, Clone)]
pub struct Record {
    pub session: usize,
    pub kind: Kind,
    pub batch: usize,
    pub due: Instant,
    /// First send.
    pub sent: Instant,
    /// Final reply.
    pub done: Instant,
    pub attempts: u32,
    /// Error replies received (each a miss).
    pub refused: u32,
    pub ok: bool,
    pub predictions: Vec<Option<u8>>,
    pub tx_bytes: usize,
    pub rx_bytes: usize,
    pub rid: Option<String>,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }
    pub fn rtt_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
    pub fn hol_wait_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// The sessions a phase drives: wire ids and each session's batch list.
pub struct Target<'a> {
    pub ids: &'a [String],
    pub batches: &'a [Vec<Vec<Image>>],
}

/// One phase's raw outcome.
#[derive(Debug)]
pub struct PhaseRun {
    pub name: &'static str,
    pub offered_sps: f64,
    pub start: Instant,
    /// When the last request completed.
    pub drained: Instant,
    pub records: Vec<Record>,
    /// Requests due inside the window but not completed when it closed.
    pub backlog_end: usize,
    /// How late the generator sent a request whose session was idle.
    pub gen_lag_max: Duration,
    /// Time spent recording the phase's spans. They are recorded after the
    /// last reply, so none of it lands on a measured latency.
    pub trace_cost: Duration,
}

struct State {
    in_flight: Vec<Option<usize>>,
    pending: Vec<VecDeque<usize>>,
    tags: HashMap<u32, usize>,
    records: Vec<Option<Record>>,
    completed: usize,
}

struct Shared<'a> {
    target: &'a Target<'a>,
    plan: &'a [Planned],
    start: Instant,
    rid_prefix: Option<&'a str>,
    state: Mutex<State>,
    writer: Mutex<&'a mut TcpStream>,
    next_tag: &'a AtomicU32,
}

impl Shared<'_> {
    fn frame(&self, i: usize) -> Frame {
        let p = self.plan[i];
        let id = &self.target.ids[p.session];
        match p.kind {
            Kind::Ingest => {
                let rid = self.rid_prefix.map(|pre| format!("{pre}{i}"));
                wire::ingest(id, &self.target.batches[p.session][p.batch], rid.as_deref())
            }
            Kind::Checkpoint => wire::checkpoint(id),
        }
    }

    fn send(&self, i: usize) -> io::Result<()> {
        let mut frame = self.frame(i);
        frame.tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let bytes = frame.encode();
        let now = Instant::now();
        {
            let mut st = self.state.lock().expect("generator state poisoned");
            st.tags.insert(frame.tag, i);
            let p = self.plan[i];
            let rec = st.records[i].get_or_insert_with(|| Record {
                session: p.session,
                kind: p.kind,
                batch: p.batch,
                due: self.start + p.due,
                sent: now,
                done: now,
                attempts: 0,
                refused: 0,
                ok: false,
                predictions: Vec::new(),
                tx_bytes: 0,
                rx_bytes: 0,
                rid: self.rid_prefix.map(|pre| format!("{pre}{i}")),
            });
            rec.attempts += 1;
            rec.tx_bytes += bytes.len();
        }
        self.writer
            .lock()
            .expect("writer poisoned")
            .write_all(&bytes)
    }

    /// Handles one reply; returns the request to send next, if any.
    fn on_reply(&self, reply: Reply, at: Instant) -> io::Result<Option<usize>> {
        let mut st = self.state.lock().expect("generator state poisoned");
        let i = st
            .tags
            .remove(&reply.tag)
            .ok_or_else(|| io::Error::other(format!("reply for unknown tag {}", reply.tag)))?;
        let session = self.plan[i].session;
        let rec = st.records[i].as_mut().expect("sent before replied");
        rec.rx_bytes += reply.wire_bytes;
        let mut retry = false;
        if reply.error_code().is_some() {
            rec.refused += 1;
            retry = rec.attempts < MAX_ATTEMPTS;
        } else {
            rec.ok = true;
            if rec.kind == Kind::Ingest {
                rec.predictions = reply
                    .field("predictions")
                    .and_then(|p| decode_predictions(p).ok())
                    .unwrap_or_default();
            }
        }
        if retry {
            return Ok(Some(i));
        }
        rec.done = at;
        st.completed += 1;
        let next = st.pending[session].pop_front();
        st.in_flight[session] = next;
        Ok(next)
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Runs one open-loop phase: sends `plan` (sorted by due time) on schedule
/// starting at `start`, waits until every request completed, and reports
/// what happened. Requests get `rid=<prefix><index>` when a prefix is
/// given. When tracing, each request becomes a `client.request` span with
/// `client.hol_wait` and `client.rtt` children, recorded once the phase has
/// drained.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    conn: &mut Conn,
    target: &Target,
    name: &'static str,
    offered_sps: f64,
    plan: &[Planned],
    window: Duration,
    rid_prefix: Option<&str>,
    tracer: &Tracer,
) -> io::Result<PhaseRun> {
    let sessions = target.ids.len();
    let next_tag = AtomicU32::new(conn.tag());
    let start = Instant::now() + Duration::from_millis(20);
    let Conn { writer, reader, .. } = conn;
    let shared = Shared {
        target,
        plan,
        start,
        rid_prefix,
        state: Mutex::new(State {
            in_flight: vec![None; sessions],
            pending: vec![VecDeque::new(); sessions],
            tags: HashMap::new(),
            records: vec![None; plan.len()],
            completed: 0,
        }),
        writer: Mutex::new(writer),
        next_tag: &next_tag,
    };
    let (gen_lag_max, backlog_end, drained) = std::thread::scope(|s| -> io::Result<_> {
        let receiver = s.spawn(|| -> io::Result<Instant> {
            let mut last = Instant::now();
            loop {
                if shared.state.lock().expect("poisoned").completed == plan.len() {
                    return Ok(last);
                }
                let frame = read_frame(reader)?;
                last = Instant::now();
                if let Some(next) = shared.on_reply(Reply::from_frame(frame), last)? {
                    shared.send(next)?;
                }
            }
        });
        let mut lag = Duration::ZERO;
        let sent: io::Result<()> = (|| {
            for (i, p) in plan.iter().enumerate() {
                let due = start + p.due;
                sleep_until(due);
                let send_now = {
                    let mut st = shared.state.lock().expect("generator state poisoned");
                    if st.in_flight[p.session].is_none() {
                        st.in_flight[p.session] = Some(i);
                        true
                    } else {
                        st.pending[p.session].push_back(i);
                        false
                    }
                };
                if send_now {
                    lag = lag.max(Instant::now().saturating_duration_since(due));
                    shared.send(i)?;
                }
            }
            Ok(())
        })();
        sleep_until(start + window);
        let backlog = {
            let st = shared.state.lock().expect("generator state poisoned");
            let due_in_window = plan.iter().filter(|p| p.due <= window).count();
            due_in_window.saturating_sub(st.completed)
        };
        let drained = receiver.join().expect("reply thread panicked");
        sent?;
        Ok((lag, backlog, drained?))
    })?;
    let records: Vec<Record> = shared
        .state
        .into_inner()
        .expect("generator state poisoned")
        .records
        .into_iter()
        .map(|r| r.expect("every planned request was sent"))
        .collect();
    let t0 = Instant::now();
    if tracer.enabled() {
        for (i, r) in records.iter().enumerate() {
            let root = tracer.record("client.request", i as u64, None, r.due, r.done);
            tracer.record("client.hol_wait", i as u64, root, r.due, r.sent);
            tracer.record("client.rtt", i as u64, root, r.sent, r.done);
        }
    }
    Ok(PhaseRun {
        name,
        offered_sps,
        start,
        drained,
        records,
        backlog_end,
        gen_lag_max,
        trace_cost: t0.elapsed(),
    })
}

/// Figures of one phase, from the client side.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub name: &'static str,
    pub offered_sps: f64,
    pub ingests: usize,
    pub p50_ms: Option<f64>,
    pub p90_ms: Option<f64>,
    pub p95_ms: Option<f64>,
    /// Ingested samples per second from the phase start until its last
    /// reply.
    pub achieved_sps: f64,
    pub backlog_end: usize,
    /// The backlog grew: more requests outstanding at the window's end than
    /// there are sessions, i.e. at least one full round behind.
    pub growing: bool,
    pub refused: u32,
    /// p90 within the limit, no growing backlog and nothing refused.
    pub met_limit: bool,
    pub gen_lag_ms: f64,
}

impl PhaseStats {
    pub fn of(run: &PhaseRun, sessions: usize, batch: usize, limit_p90_ms: f64) -> PhaseStats {
        let ingests: Vec<&Record> = run
            .records
            .iter()
            .filter(|r| r.kind == Kind::Ingest)
            .collect();
        let lat: Vec<f64> = ingests.iter().map(|r| r.latency_ms()).collect();
        let p90 = percentile(&lat, 90.0);
        let refused: u32 = run.records.iter().map(|r| r.refused).sum();
        let growing = run.backlog_end > sessions;
        let elapsed = (run.drained - run.start).as_secs_f64();
        PhaseStats {
            name: run.name,
            offered_sps: run.offered_sps,
            ingests: ingests.len(),
            p50_ms: percentile(&lat, 50.0),
            p90_ms: p90,
            p95_ms: percentile(&lat, 95.0),
            achieved_sps: (ingests.len() * batch) as f64 / elapsed,
            backlog_end: run.backlog_end,
            growing,
            refused,
            met_limit: p90.is_some_and(|p| p <= limit_p90_ms) && !growing && refused == 0,
            gen_lag_ms: run.gen_lag_max.as_secs_f64() * 1e3,
        }
    }

    pub fn json(&self) -> crate::json::Value {
        let opt = |v: Option<f64>| v.map_or(crate::json::Value::Str("n/a".into()), Into::into);
        let mut v = crate::json::Value::obj();
        v.set("phase", self.name)
            .set("offered_sps", self.offered_sps)
            .set("ingests", self.ingests)
            .set("p50_ms", opt(self.p50_ms))
            .set("p90_ms", opt(self.p90_ms))
            .set("p95_ms", opt(self.p95_ms))
            .set("achieved_sps", self.achieved_sps)
            .set("backlog_end", self.backlog_end)
            .set("growing_backlog", self.growing)
            .set("refused", u64::from(self.refused))
            .set("met_limit", self.met_limit)
            .set("gen_lag_ms", self.gen_lag_ms);
        v
    }
}

/// The closest non-decreasing sequence to `ys` in weighted least squares
/// (pool adjacent violators): each run of values that falls is replaced by
/// its weighted mean.
pub fn monotone_fit(ys: &[f64], weights: &[f64]) -> Vec<f64> {
    // Blocks of (mean, weight, length).
    let mut blocks: Vec<(f64, f64, usize)> = Vec::new();
    for (&y, &w) in ys.iter().zip(weights) {
        blocks.push((y, w, 1));
        while let [.., (y1, w1, n1), (y2, w2, n2)] = blocks[..] {
            if y1 <= y2 {
                break;
            }
            blocks.truncate(blocks.len() - 2);
            blocks.push(((y1 * w1 + y2 * w2) / (w1 + w2), w1 + w2, n1 + n2));
        }
    }
    blocks
        .iter()
        .flat_map(|&(y, _, n)| std::iter::repeat_n(y, n))
        .collect()
}

/// The highest sample rate that meets the latency limit, from the rungs of
/// a ladder of offered rates.
///
/// Queueing delay only grows with load, so the rungs' p90s, in order of
/// offered rate, are first replaced by their [`monotone_fit`] weighted by
/// requests: one short rung's p90 is noisy, and a noisy low rung would
/// otherwise cut the ladder short. A rung misses on a fitted p90 above the
/// limit, a growing backlog or a refusal. The figure is the achieved rate
/// interpolated on fitted p90 between the rung below the first miss and
/// the miss, to where p90 equals the limit; the rung's own rate when the
/// miss was on backlog or refusals alone; the top rung's rate when no rung
/// misses. When the lowest rung already misses, its rate is scaled by
/// limit ÷ p90, so the figure keeps falling as the system slows down and
/// never reads 0.
pub fn max_sps(rungs: &[PhaseStats], limit_p90_ms: f64) -> f64 {
    let mut by_rate: Vec<&PhaseStats> = rungs.iter().collect();
    by_rate.sort_by(|a, b| a.offered_sps.total_cmp(&b.offered_sps));
    let p90: Vec<f64> = by_rate
        .iter()
        .map(|r| r.p90_ms.expect("rungs are sized for a p90"))
        .collect();
    let weights: Vec<f64> = by_rate.iter().map(|r| r.ingests.max(1) as f64).collect();
    let fit = monotone_fit(&p90, &weights);
    let misses = |i: usize| fit[i] > limit_p90_ms || by_rate[i].growing || by_rate[i].refused > 0;
    let Some(miss) = (0..by_rate.len()).find(|&i| misses(i)) else {
        return by_rate.last().expect("at least one rung").achieved_sps;
    };
    let fail = by_rate[miss];
    if miss == 0 {
        return fail.achieved_sps * (limit_p90_ms / fit[0]).min(1.0);
    }
    let pass = by_rate[miss - 1];
    let (p_pass, p_fail) = (fit[miss - 1], fit[miss]);
    if p_fail <= limit_p90_ms {
        return pass.achieved_sps;
    }
    let t = (limit_p90_ms - p_pass) / (p_fail - p_pass);
    pass.achieved_sps + t * (fail.achieved_sps - pass.achieved_sps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(offered: f64, achieved: f64, p90: f64) -> PhaseStats {
        PhaseStats {
            name: "x",
            offered_sps: offered,
            ingests: 100,
            p50_ms: Some(p90 / 2.0),
            p90_ms: Some(p90),
            p95_ms: Some(p90),
            achieved_sps: achieved,
            backlog_end: 0,
            growing: false,
            refused: 0,
            met_limit: p90 <= 100.0,
            gen_lag_ms: 0.0,
        }
    }

    #[test]
    fn monotone_fit_pools_falling_runs() {
        let fit = monotone_fit(&[1.0, 3.0, 2.0, 4.0], &[1.0, 1.0, 3.0, 1.0]);
        assert_eq!(fit, vec![1.0, 2.25, 2.25, 4.0]);
        assert_eq!(monotone_fit(&[5.0, 4.0, 3.0], &[1.0; 3]), vec![4.0; 3]);
        assert_eq!(monotone_fit(&[1.0, 2.0], &[1.0; 2]), vec![1.0, 2.0]);
    }

    #[test]
    fn max_sps_interpolates_between_the_last_pass_and_the_first_miss() {
        let phases = [
            phase(100.0, 100.0, 20.0),
            phase(300.0, 300.0, 60.0),
            phase(400.0, 380.0, 140.0),
        ];
        // p90 60 → 140 crosses 100 halfway: 300 + 0.5 · (380 − 300).
        assert!((max_sps(&phases, 100.0) - 340.0).abs() < 1e-9);
    }

    #[test]
    fn max_sps_pools_a_noisy_low_rung_instead_of_stopping_there() {
        let phases = [
            phase(100.0, 100.0, 110.0),
            phase(200.0, 200.0, 70.0),
            phase(300.0, 290.0, 190.0),
        ];
        // The first two pool to 90 and pass; 90 → 190 crosses 100 at a
        // tenth: 200 + 0.1 · (290 − 200).
        assert!((max_sps(&phases, 100.0) - 209.0).abs() < 1e-9);
    }

    #[test]
    fn max_sps_takes_the_top_rung_when_nothing_missed() {
        let phases = [phase(300.0, 299.0, 60.0), phase(100.0, 101.0, 20.0)];
        assert_eq!(max_sps(&phases, 100.0), 299.0);
    }

    #[test]
    fn max_sps_stops_below_a_rung_with_a_growing_backlog() {
        let mut grow = phase(300.0, 250.0, 80.0);
        grow.growing = true;
        let phases = [phase(100.0, 100.0, 20.0), phase(200.0, 199.0, 50.0), grow];
        assert_eq!(max_sps(&phases, 100.0), 199.0);
    }

    #[test]
    fn max_sps_never_drops_to_zero_when_every_rung_misses() {
        let phases = [phase(200.0, 190.0, 400.0), phase(100.0, 100.0, 200.0)];
        // The lowest rung's rate scaled by limit ÷ p90.
        assert_eq!(max_sps(&phases, 100.0), 50.0);
        // A miss on refusals alone (p90 within the limit) keeps the rate.
        let mut refused = phase(100.0, 98.0, 50.0);
        refused.refused = 1;
        assert_eq!(max_sps(&[refused], 100.0), 98.0);
    }
}
