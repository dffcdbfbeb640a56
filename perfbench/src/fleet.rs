//! What the two wire workloads share: a fleet of learner sessions with
//! mixed network sizes, their pre-generated streams, the open-loop phase
//! plans, the phase loop ([`run`]), the server-side scrape deltas and the
//! output check.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use snn_core::rng::derive_seed;
use snn_data::{Image, Scenario, SyntheticDigits};
use snn_obs::{HistogramSnapshot, Snapshot};
use snn_serve::SessionSpec;
use spikedyn::Method;

use crate::gate::{self, SessionLog};
use crate::json::Value;
use crate::openloop::{self, Kind, PhaseRun, PhaseStats, Planned, Target};
use crate::schedule::{phase_duration, phase_schedule};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::wire::{self, Conn};
use crate::{peak_rss_mb, Args, Outcome, LIMIT_P90_MS};

/// Samples per `ingest` request (the paper's batch size).
pub const BATCH: usize = 8;

/// One open-loop phase: a fixed offered ingest rate for a fixed window.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    pub name: &'static str,
    /// Offered ingest rate, samples per second across all sessions.
    pub rate_sps: f64,
    pub window: Duration,
}

impl PhaseSpec {
    /// A phase of at least `nominal` that holds at least `min_ingests`
    /// requests at `rate_sps`.
    pub fn new(name: &'static str, rate_sps: f64, nominal: Duration, min_ingests: usize) -> Self {
        PhaseSpec {
            name,
            rate_sps,
            window: phase_duration(nominal, min_ingests, rate_sps, BATCH),
        }
    }
}

/// The sessions of one wire workload and everything sent and received.
///
/// Every phase gets sessions of its own, opened fresh before it starts and
/// closed after it ends: a learner's per-sample cost changes as it trains,
/// so fresh sessions make each phase measure the same work whatever ran
/// before it. Session `g = phase · n + i` is phase `phase`'s copy of base
/// session `i`, with its spec and a prefix of its stream.
pub struct Fleet {
    /// Sessions per phase.
    pub n: usize,
    pub specs: Vec<SessionSpec>,
    /// Current wire ids (a session moved by a client-side migration gets a
    /// new one).
    pub ids: Vec<String>,
    /// Every batch each session will send, in order.
    pub batches: Vec<Vec<Vec<Image>>>,
    pub phases: Vec<PhaseSpec>,
    /// Per phase, the planned requests sorted by due time.
    pub plans: Vec<Vec<Planned>>,
    /// Predictions returned for each session's batches, in order.
    pub served: Vec<Vec<Vec<Option<u8>>>>,
    /// Each session's checkpoint when its phase ended.
    pub finals: Vec<Vec<u8>>,
    /// Each session's modelled (train, infer) joules when its phase ended.
    pub energy: Vec<(f64, f64)>,
}

/// Seed of everything the learners train on and with: weight
/// initialisation, encoding noise and the training streams. It is fixed:
/// learning is chaotic, and between image draws one learner's accuracy and
/// work per sample swing by 10–25 %, which would swamp any bound. The
/// workload seed moves the arrival schedule and draws the held-out images.
pub const FIXED_SEED: u64 = 0x5EED_1EA2;

/// Session specs for the given excitatory-layer sizes: SpikeDyn learners
/// on 14×14 inputs with the serving defaults, one learner seed each.
pub fn specs(sizes: &[usize]) -> Vec<SessionSpec> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n_exc)| SessionSpec {
            method: Method::SpikeDyn,
            n_exc,
            seed: derive_seed(FIXED_SEED, i as u64),
            batch_size: BATCH,
            ..SessionSpec::default()
        })
        .collect()
}

impl Fleet {
    /// Plans every phase and generates every session's stream. Request
    /// slot `k` of a session is a `checkpoint` when
    /// `k % checkpoint_every == checkpoint_every - 1`; the phase rate counts
    /// ingested samples only. The seed moves the arrival offsets; the
    /// streams are fixed (see [`FIXED_SEED`]).
    pub fn build(
        seed: u64,
        base: Vec<SessionSpec>,
        phases: &[PhaseSpec],
        checkpoint_every: Option<u32>,
    ) -> Fleet {
        let n = base.len();
        let total = n * phases.len();
        let mut cursor = vec![0usize; total];
        let plans = phases
            .iter()
            .enumerate()
            .map(|(p, ph)| {
                let slot_rate = match checkpoint_every {
                    Some(c) => ph.rate_sps * c as f64 / (c - 1) as f64,
                    None => ph.rate_sps,
                };
                phase_schedule(seed, p as u64, n, slot_rate, BATCH, ph.window)
                    .into_iter()
                    .map(|d| {
                        let session = p * n + d.session;
                        let kind = match checkpoint_every {
                            Some(c) if d.k % c == c - 1 => Kind::Checkpoint,
                            _ => Kind::Ingest,
                        };
                        let batch = cursor[session];
                        if kind == Kind::Ingest {
                            cursor[session] += 1;
                        }
                        Planned {
                            due: d.at,
                            session,
                            kind,
                            batch,
                        }
                    })
                    .collect()
            })
            .collect();
        // One stream per base session, as long as its longest phase needs.
        // Every phase's copy learns a prefix of it, so phases differ in load
        // and length only: with a stream of its own per phase, the content
        // alone moved a rung's p90 by half.
        let classes: Vec<u8> = (0..10).collect();
        let streams: Vec<Vec<Vec<Image>>> = (0..n)
            .map(|i| {
                let scenario = Scenario::all()[i % Scenario::all().len()];
                let seed = derive_seed(FIXED_SEED, 100 + i as u64);
                let longest = (0..phases.len()).map(|p| cursor[p * n + i]).max();
                let samples = (longest.unwrap_or(0) * BATCH) as u64;
                let stream: Vec<Image> = scenario
                    .stream(
                        &SyntheticDigits::new(seed),
                        &classes,
                        samples.max(1),
                        seed,
                        0,
                    )
                    .into_iter()
                    .map(|img| img.downsample(2))
                    .collect();
                stream.chunks(BATCH).map(<[Image]>::to_vec).collect()
            })
            .collect();
        let batches = (0..total)
            .map(|g| streams[g % n][..cursor[g]].to_vec())
            .collect();
        Fleet {
            n,
            specs: (0..total).map(|g| base[g % n].clone()).collect(),
            ids: (0..total)
                .map(|g| format!("p{}.s{}", g / n, g % n))
                .collect(),
            served: vec![Vec::new(); total],
            finals: vec![Vec::new(); total],
            energy: vec![(0.0, 0.0); total],
            batches,
            plans,
            phases: phases.to_vec(),
        }
    }

    /// The global indices of phase `p`'s sessions.
    pub fn phase_sessions(&self, p: usize) -> std::ops::Range<usize> {
        p * self.n..(p + 1) * self.n
    }

    /// Runs phase `p`'s open-loop traffic over `conn` (see
    /// [`openloop::run_phase`]).
    pub fn run_phase(
        &self,
        conn: &mut Conn,
        p: usize,
        rid_prefix: Option<&str>,
        tracer: &Tracer,
    ) -> io::Result<PhaseRun> {
        let ph = &self.phases[p];
        let target = Target {
            ids: &self.ids,
            batches: &self.batches,
        };
        openloop::run_phase(
            conn,
            &target,
            ph.name,
            ph.rate_sps,
            &self.plans[p],
            ph.window,
            rid_prefix,
            tracer,
        )
    }

    /// Opens phase `p`'s sessions on `conn`.
    pub fn open_phase(&self, conn: &mut Conn, p: usize) -> io::Result<()> {
        for g in self.phase_sessions(p) {
            conn.call_ok(wire::open(&self.ids[g], &self.specs[g]))?;
        }
        Ok(())
    }

    /// Records phase `p`'s energy and final checkpoints, then closes its
    /// sessions.
    pub fn finish_phase(&mut self, conn: &mut Conn, p: usize) -> io::Result<()> {
        for g in self.phase_sessions(p) {
            let id = &self.ids[g];
            let r = conn.call_ok(wire::energy(id))?;
            let num = |k: &str| -> io::Result<f64> {
                r.field(k)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| io::Error::other(format!("energy reply lacks {k}")))
            };
            self.energy[g] = (num("train_j")?, num("infer_j")?);
            self.finals[g] = conn.call_ok(wire::checkpoint(id))?.payload;
            conn.call_ok(wire::close(id))?;
        }
        Ok(())
    }

    /// Appends a phase's predictions to each session's served stream.
    pub fn absorb(&mut self, run: &PhaseRun) {
        let mut ingests: Vec<_> = run
            .records
            .iter()
            .filter(|r| r.kind == Kind::Ingest)
            .collect();
        ingests.sort_by_key(|r| (r.session, r.batch));
        for r in ingests {
            let served = &mut self.served[r.session];
            assert_eq!(served.len(), r.batch, "batches are planned in stream order");
            served.push(if r.ok {
                r.predictions.clone()
            } else {
                Vec::new()
            });
        }
    }

    /// Prequential accuracy over every prediction returned (a silent
    /// network or an unfitted assignment counts as wrong).
    pub fn prequential_acc(&self) -> f64 {
        let (mut right, mut total) = (0u64, 0u64);
        for (served, batches) in self.served.iter().zip(&self.batches) {
            for (preds, batch) in served.iter().zip(batches) {
                for (p, img) in preds.iter().zip(batch) {
                    total += 1;
                    right += u64::from(*p == Some(img.label));
                }
            }
        }
        right as f64 / total.max(1) as f64
    }

    /// Checkpoints each of phase `p`'s sessions `rounds` times, one at a
    /// time; returns the call times in ms.
    pub fn checkpoint_rounds(
        &self,
        conn: &mut Conn,
        p: usize,
        rounds: usize,
    ) -> io::Result<Vec<f64>> {
        let mut ms = Vec::new();
        for _ in 0..rounds {
            for g in self.phase_sessions(p) {
                let t0 = Instant::now();
                conn.call_ok(wire::checkpoint(&self.ids[g]))?;
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        Ok(ms)
    }

    /// The wire logs the output check replays.
    pub fn logs(&self) -> Vec<SessionLog<'_>> {
        (0..self.ids.len())
            .map(|g| SessionLog {
                id: self.ids[g].clone(),
                spec: self.specs[g].clone(),
                batches: self.batches[g][..self.served[g].len()]
                    .iter()
                    .map(Vec::as_slice)
                    .collect(),
                predictions: self.served[g].clone(),
                final_checkpoint: self.finals[g].clone(),
            })
            .collect()
    }

    pub fn samples_served(&self) -> u64 {
        self.served.iter().map(|s| (s.len() * BATCH) as u64).sum()
    }
}

/// Times a metrics scrape; returns the snapshot and the call time in ms.
pub fn timed_scrape(conn: &mut Conn, verb: &str) -> io::Result<(Snapshot, f64)> {
    let t0 = Instant::now();
    let snap = wire::scrape(conn, verb)?;
    Ok((snap, t0.elapsed().as_secs_f64() * 1e3))
}

fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> HistogramSnapshot {
    let (a, b) = (before.histogram(name), after.histogram(name));
    let mut d = HistogramSnapshot::new();
    for (i, (x, y)) in a.counts.iter().zip(&b.counts).enumerate() {
        d.counts[i] = y.saturating_sub(*x);
    }
    d.sum = b.sum.saturating_sub(a.sum);
    d
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

fn gauge_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    after.gauge(name) - before.gauge(name)
}

/// Server-side figures of one phase, from scrapes taken before and after
/// it: tick scheduler, request phases, replica pool, engine and codec.
pub fn server_layers(
    before: &Snapshot,
    after: &Snapshot,
    window: Duration,
) -> Vec<(&'static str, f64)> {
    let jobs = hist_delta(before, after, "serve.tick.jobs");
    let tick = hist_delta(before, after, "serve.tick_us");
    let queue = hist_delta(before, after, "serve.phase.queue_wait_us").sum as f64;
    let exec = hist_delta(before, after, "serve.phase.exec_us").sum as f64;
    let write = hist_delta(before, after, "serve.phase.write_us").sum as f64;
    let phases = (queue + exec + write).max(1.0);
    let checkouts = gauge_delta(before, after, "runtime.pool.checkouts");
    let hits = gauge_delta(before, after, "runtime.pool.hits");
    let wait = gauge_delta(before, after, "runtime.pool.wait_us");
    let infer_samples = counter_delta(before, after, "runtime.infer.samples") as f64;
    let infer_busy = counter_delta(before, after, "runtime.infer.busy_us") as f64;
    vec![
        ("serve.ticks", tick.count() as f64),
        ("serve.jobs_per_tick", jobs.mean()),
        ("serve.tick_p99_ms", tick.quantile(0.99) as f64 / 1e3),
        ("serve.queue_share", queue / phases),
        ("serve.exec_share", exec / phases),
        ("serve.write_share", write / phases),
        ("runtime.pool_hit_rate", hits / checkouts.max(1.0)),
        ("runtime.pool_wait_us", wait / checkouts.max(1.0)),
        (
            "runtime.busy_share",
            infer_busy / (window.as_secs_f64() * 1e6),
        ),
        (
            "runtime.infer_us_per_sample",
            infer_busy / infer_samples.max(1.0),
        ),
    ]
}

/// The servers' checkpoint codec between two scrapes: mean encode and
/// decode time and mean blob size, plus the drift events counted so far.
pub fn codec_layers(before: &Snapshot, after: &Snapshot) -> Vec<(&'static str, f64)> {
    let enc = hist_delta(before, after, "online.checkpoint.encode_us");
    let enc_bytes = hist_delta(before, after, "online.checkpoint.encode_bytes");
    let dec = hist_delta(before, after, "online.checkpoint.decode_us");
    vec![
        ("online.checkpoint_ms", enc.mean() / 1e3),
        ("online.checkpoint_bytes", enc_bytes.mean()),
        ("online.restore_ms", dec.mean() / 1e3),
        (
            "online.drift_events",
            after.counter("online.drift_events") as f64,
        ),
    ]
}

/// Samples the servers' engines inferred per second of one phase
/// (prequential predictions and assignment refits), from scrapes taken
/// before and after it.
pub fn server_infer_sps(before: &Snapshot, after: &Snapshot, run: &PhaseRun) -> f64 {
    let samples = counter_delta(before, after, "runtime.infer.samples") as f64;
    samples / (run.drained - run.start).as_secs_f64()
}

/// Backpressure refusals the server counted between two scrapes.
pub fn backpressure(before: &Snapshot, after: &Snapshot) -> f64 {
    counter_delta(before, after, "serve.backpressure_rejects") as f64
}

/// Client-side per-layer figures of one phase.
pub fn client_layers(run: &PhaseRun) -> Vec<(&'static str, f64)> {
    let ingests: Vec<_> = run
        .records
        .iter()
        .filter(|r| r.kind == Kind::Ingest)
        .collect();
    let rtt: Vec<f64> = ingests.iter().map(|r| r.rtt_ms()).collect();
    let hol: Vec<f64> = ingests.iter().map(|r| r.hol_wait_ms()).collect();
    let n = ingests.len().max(1) as f64;
    vec![
        (
            "serve.client_rtt_ms.p50",
            percentile(&rtt, 50.0).unwrap_or(0.0),
        ),
        (
            "serve.client_rtt_ms.p95",
            percentile(&rtt, 95.0).unwrap_or(0.0),
        ),
        (
            "serve.hol_wait_ms.p95",
            percentile(&hol, 95.0).unwrap_or(0.0),
        ),
        (
            "serve.tx_bytes_per_req",
            ingests.iter().map(|r| r.tx_bytes).sum::<usize>() as f64 / n,
        ),
        (
            "serve.rx_bytes_per_req",
            ingests.iter().map(|r| r.rx_bytes).sum::<usize>() as f64 / n,
        ),
    ]
}

/// Mean time of `Frame::encode` and `Frame::read_from` on the workload's
/// own ingest frames, in µs.
pub fn frame_codec_us(fleet: &Fleet, frames: usize) -> (f64, f64) {
    let sample: Vec<_> = fleet
        .batches
        .iter()
        .enumerate()
        .flat_map(|(s, b)| {
            b.iter()
                .take(frames / fleet.ids.len() + 1)
                .map(move |batch| (s, batch))
        })
        .map(|(s, batch)| wire::ingest(&fleet.ids[s], batch, None))
        .collect();
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = sample
        .iter()
        .map(|f| std::hint::black_box(f.encode()))
        .collect();
    let enc = t0.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
    let t0 = Instant::now();
    for bytes in &encoded {
        let mut cursor = bytes.as_slice();
        let frame = snn_serve::Frame::read_from(&mut cursor).expect("own frame decodes");
        std::hint::black_box(frame);
    }
    let dec = t0.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
    (enc, dec)
}

/// Per-sample cost of each distinct network size, learning in process on
/// its own stream: returns (expensive ÷ cheap, per-size µs/sample).
pub fn cost_gap(fleet: &Fleet) -> (f64, Vec<(usize, f64)>) {
    let mut costs: Vec<(usize, f64)> = Vec::new();
    for (i, spec) in fleet.specs.iter().enumerate() {
        if costs.iter().any(|(n, _)| *n == spec.n_exc) {
            continue;
        }
        let mut learner = snn_online::OnlineLearner::new(spec.online_config());
        let batches = &fleet.batches[i][..fleet.batches[i].len().min(6)];
        let t0 = Instant::now();
        for b in batches {
            learner.ingest_batch(b).expect("reference learner");
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / (batches.len() * BATCH).max(1) as f64;
        costs.push((spec.n_exc, us));
    }
    let max = costs.iter().map(|c| c.1).fold(0.0, f64::max);
    let min = costs.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    (max / min, costs)
}

/// Modelled energy per served sample, from every session's `energy` reply.
pub fn energy_metrics(out: &mut Outcome, fleet: &Fleet) {
    let per = |j: f64| j * 1e3 / fleet.samples_served().max(1) as f64;
    out.put(
        "train_mj_per_sample",
        per(fleet.energy.iter().map(|e| e.0).sum()),
    );
    out.put(
        "infer_mj_per_sample",
        per(fleet.energy.iter().map(|e| e.1).sum()),
    );
}

/// How many of `repeats` set-ups run before the timed phases; the rest run
/// after them. The host's speed drifts over seconds, so set-ups spread over
/// the whole run give a steadier median than set-ups back to back.
pub fn setups_before(repeats: usize) -> usize {
    repeats.div_ceil(2)
}

/// Median of several set-ups, with the individual times for the detail.
pub fn setup_summary(times: &[f64]) -> (f64, Value) {
    (
        median(times),
        Value::Arr(times.iter().map(|&t| t.into()).collect()),
    )
}

/// A percentile the phase was sized to support; its absence is a bug in
/// the phase plan, reported as an error.
pub fn need(v: Option<f64>, what: &str) -> io::Result<f64> {
    v.ok_or_else(|| io::Error::other(format!("{what}: too few samples for the percentile")))
}

/// What a wire workload plugs into [`run`]: the server side it drives, what
/// runs alongside each phase's traffic, and what its headline phase adds.
pub trait Backend: Sized {
    /// The metrics scrape verb (`metrics` or `cluster-metrics`).
    const SCRAPE: &'static str;

    /// Starts the server side.
    fn start(args: &Args) -> io::Result<Self>;

    fn addr(&self) -> SocketAddr;

    /// Stops the server side and waits for it.
    fn shutdown(self);

    /// Runs phase `p`'s open-loop traffic and whatever goes alongside it.
    /// Requests beyond the traffic count in `out`; figures of the phase go
    /// into `detail`.
    fn drive(
        &mut self,
        conn: &mut Conn,
        fleet: &Fleet,
        p: usize,
        tracer: &Tracer,
        out: &mut Outcome,
        detail: &mut Value,
    ) -> io::Result<PhaseRun>;

    /// Runs after phase `p`'s traffic and its closing scrape, before the
    /// headline metrics are read and the phase's sessions close.
    fn after_phase(
        &mut self,
        _conn: &mut Conn,
        _fleet: &mut Fleet,
        _p: usize,
        _out: &mut Outcome,
    ) -> io::Result<()> {
        Ok(())
    }

    /// Workload-specific metrics of the headline phase, taken before its
    /// sessions close, from its run and the scrapes before and after it.
    fn headline(
        &mut self,
        conn: &mut Conn,
        fleet: &mut Fleet,
        p: usize,
        run: &PhaseRun,
        scrapes: (&Snapshot, &Snapshot),
        out: &mut Outcome,
    ) -> io::Result<()>;

    /// The timed checkpoint and migration calls, in ms, and the workload's
    /// own detail.
    fn results(&self) -> (&[f64], &[f64], Value);
}

/// The shape of a wire workload.
pub struct Shape {
    pub sizes: &'static [usize],
    pub phases: Vec<PhaseSpec>,
    /// The phase whose figures are the headline metrics.
    pub headline: &'static str,
    /// The phases `max_sps` is read from (see [`openloop::max_sps`]).
    pub rungs: &'static [&'static str],
    /// See [`Fleet::build`].
    pub checkpoint_every: Option<u32>,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// Starts one set-up: the inputs, the server side, a connection and the
/// first phase's sessions.
fn set_up<B: Backend>(args: &Args, shape: &Shape) -> io::Result<(Fleet, B, Conn)> {
    let fleet = Fleet::build(
        args.seed,
        specs(shape.sizes),
        &shape.phases,
        shape.checkpoint_every,
    );
    let backend = B::start(args)?;
    let mut conn = Conn::connect(backend.addr())?;
    fleet.open_phase(&mut conn, 0)?;
    Ok((fleet, backend, conn))
}

/// Runs a wire workload: sets it up, drives every phase on fresh sessions
/// with scrapes around it, sets it up the remaining times, then runs the
/// output check. Returns the metrics and the run's detail.
pub fn run<B: Backend>(args: &Args, shape: &Shape) -> io::Result<(Outcome, Value)> {
    let mut setups = Vec::new();
    let mut live: Option<(Fleet, B, Conn)> = None;
    for _ in 0..setups_before(shape.setup_repeats) {
        if let Some((_, backend, conn)) = live.take() {
            drop(conn);
            backend.shutdown();
        }
        let t0 = Instant::now();
        live = Some(set_up(args, shape)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (mut fleet, mut backend, mut conn) = live.expect("at least one set-up");

    let mut out = Outcome::default();
    let tracer = Tracer::new(args.trace);
    let mut scrape_ms = Vec::new();
    let mut stats = Vec::new();
    let mut detail_phases = Vec::new();
    let (mut gen_lag_ms, mut rejects): (f64, f64) = (0.0, 0.0);
    let (mut trace_s, mut phases_s) = (0.0, 0.0);
    let mut last = None;
    for p in 0..shape.phases.len() {
        if p > 0 {
            fleet.open_phase(&mut conn, p)?;
        }
        let (before, ms) = timed_scrape(&mut conn, B::SCRAPE)?;
        scrape_ms.push(ms);
        let mut extra = Value::obj();
        let run = backend.drive(&mut conn, &fleet, p, &tracer, &mut out, &mut extra)?;
        let (after, ms) = timed_scrape(&mut conn, B::SCRAPE)?;
        scrape_ms.push(ms);
        let st = PhaseStats::of(&run, fleet.n, BATCH, LIMIT_P90_MS);
        for r in &run.records {
            out.attempted += u64::from(r.attempts);
            out.failed += u64::from(r.refused) + u64::from(!r.ok);
        }
        gen_lag_ms = gen_lag_ms.max(st.gen_lag_ms);
        rejects += backpressure(&before, &after);
        trace_s += run.trace_cost.as_secs_f64();
        phases_s += (run.drained - run.start).as_secs_f64();
        backend.after_phase(&mut conn, &mut fleet, p, &mut out)?;
        if run.name == shape.headline {
            out.put("ingest_p50_ms", need(st.p50_ms, "headline p50")?);
            out.put("train_sps", st.achieved_sps);
            out.put("infer_sps", server_infer_sps(&before, &after, &run));
            let window = fleet.phases[p].window;
            for (k, v) in server_layers(&before, &after, window)
                .into_iter()
                .chain(client_layers(&run))
            {
                out.put(k, v);
            }
            backend.headline(&mut conn, &mut fleet, p, &run, (&before, &after), &mut out)?;
        }
        let mut d = st.json();
        d.set(
            "server_ticks",
            hist_delta(&before, &after, "serve.tick_us").count(),
        );
        if let Value::Obj(fields) = extra {
            for (k, v) in fields {
                d.set(&k, v);
            }
        }
        detail_phases.push(d);
        stats.push(st);
        fleet.absorb(&run);
        fleet.finish_phase(&mut conn, p)?;
        last = Some(after);
    }
    out.put("peak_rss_mb", peak_rss_mb());
    let spans_dropped = last.map_or(0, |s| s.counter("obs.spans_dropped"));
    drop(conn);
    let (checkpoint_ms, migrate_ms, mut detail) = backend.results();
    let (checkpoint_p50, migrate_p50) = (
        need(percentile(checkpoint_ms, 50.0), "checkpoint p50")?,
        need(percentile(migrate_ms, 50.0), "migrate p50")?,
    );
    detail
        .set("checkpoint_calls", checkpoint_ms.len())
        .set("migrate_calls", migrate_ms.len());
    backend.shutdown();
    while setups.len() < shape.setup_repeats {
        let t0 = Instant::now();
        let (_, backend, conn) = set_up::<B>(args, shape)?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(conn);
        backend.shutdown();
    }

    let (setup_s, setup_detail) = setup_summary(&setups);
    out.put("setup_s", setup_s);
    energy_metrics(&mut out, &fleet);
    out.put("prequential_acc", fleet.prequential_acc());
    out.put("checkpoint_p50_ms", checkpoint_p50);
    out.put("migrate_p50_ms", migrate_p50);
    let rungs: Vec<PhaseStats> = stats
        .into_iter()
        .filter(|st| shape.rungs.contains(&st.name))
        .collect();
    out.put("max_sps", openloop::max_sps(&rungs, LIMIT_P90_MS));

    // The output check: excluded from every metric above.
    for m in gate::replay(&fleet.logs(), 2) {
        out.mismatch(m);
    }
    out.put("ok_rate", out.ok_rate());

    detail
        .set(
            "sizes",
            Value::Arr(shape.sizes.iter().map(|&s| s.into()).collect()),
        )
        .set("setup_s", setup_detail)
        .set("phases", Value::Arr(detail_phases))
        .set("samples_served", fleet.samples_served());
    if args.trace {
        out.put("serve.gen_lag_ms.max", gen_lag_ms);
        out.put("serve.backpressure_rejects", rejects);
        let (enc, dec) = frame_codec_us(&fleet, 256);
        out.put("serve.frame_encode_us", enc);
        out.put("serve.frame_decode_us", dec);
        out.put("obs.scrape_ms", median(&scrape_ms));
        out.put("obs.spans_dropped", spans_dropped as f64);
        // Spans are recorded after each phase drains, so the cost of
        // tracing is the recording time itself, as a share of the phases'
        // wall time.
        out.put("trace_overhead", trace_s / phases_s);
        let path = args.out_dir().join("spans.jsonl");
        tracer.write_jsonl(&path)?;
        detail.set("spans", path.display().to_string());
    }
    Ok((out, detail))
}
