//! `serve-open`: an in-process `SnnServer` on proto 2, driven over one
//! connection by the open-loop generator.
//!
//! Sixteen sessions of mixed size: thirteen cheap ones and three expensive
//! ones whose per-sample cost is several times higher (measured on traced
//! runs as `serve.cost_gap`). A request costs a few ms to execute, so the
//! tick barrier, the scheduler queue and the mux sit on the blocking path,
//! and the slowest session of a tick sets the tick time for everyone. The
//! kernels do little here.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use snn_obs::Snapshot;
use snn_serve::{ServeLimits, ServerConfig, SnnServer};

use crate::fleet::{self, Backend, Fleet, PhaseSpec, Shape};
use crate::json::Value;
use crate::openloop::PhaseRun;
use crate::spans::Tracer;
use crate::stats::min_samples_for;
use crate::wire::{self, Conn};
use crate::{Args, Outcome};

/// Offered ingest rates in samples per second across all sessions. On the
/// reference host (2 cores) p90 reaches the limit at 420–550 and the
/// server saturates at 580–710: `lo` sits where most requests skip the
/// tick queue, `hi` where nearly all wait in it, and the ladder climbs past
/// saturation, so its top rung normally misses the limit and `max_sps`
/// lands between two rungs. Calibrated once, never recomputed per run, and
/// recorded in `BENCHMARK.json`.
pub const LO_SPS: f64 = 130.0;
pub const HI_SPS: f64 = 300.0;
pub const LADDER_SPS: [f64; 5] = [350.0, 450.0, 560.0, 670.0, 780.0];
const RUNGS: [&str; 5] = ["ladder.1", "ladder.2", "ladder.3", "ladder.4", "ladder.5"];

/// Excitatory-layer sizes of the sessions: mostly cheap, a few expensive,
/// the expensive ones spread evenly over the arrival cycle.
const SIZES: [usize; 16] = [
    500, 24, 32, 40, 24, 500, 32, 40, 24, 32, 40, 500, 24, 32, 40, 24,
];

/// Set-ups per run, half before and half after the timed phases;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 8;

/// Rounds of `checkpoint` and of client-side migration over every session
/// after each phase: spread over the whole run like the set-ups, their
/// median covers the run rather than one moment of a host whose speed
/// drifts.
const CODEC_ROUNDS: usize = 1;

fn shape(args: &Args) -> Shape {
    let frac = |f: f64| Duration::from_secs_f64(args.seconds as f64 * f);
    let (p90, p95) = (min_samples_for(90.0), min_samples_for(95.0));
    let mut phases = vec![
        PhaseSpec::new("lo", LO_SPS, frac(0.3), p90),
        PhaseSpec::new("hi", HI_SPS, frac(0.5), p95),
    ];
    for (name, &rate) in RUNGS.iter().zip(&LADDER_SPS) {
        phases.push(PhaseSpec::new(name, rate, frac(0.2), p90));
    }
    Shape {
        sizes: &SIZES,
        phases,
        headline: "hi",
        rungs: &RUNGS,
        checkpoint_every: None,
        setup_repeats: SETUP_REPEATS,
    }
}

struct Serve {
    server: SnnServer,
    trace: bool,
    checkpoint_ms: Vec<f64>,
    migrate_ms: Vec<f64>,
    detail: Value,
}

/// Moves each of phase `p`'s sessions to a new id on the same server,
/// `rounds` times: `checkpoint`, `restore` under the new id, `close` the
/// old one. Returns the time of each move in ms.
fn migrate_rounds(
    fleet: &mut Fleet,
    conn: &mut Conn,
    p: usize,
    rounds: usize,
) -> io::Result<Vec<f64>> {
    let mut ms = Vec::new();
    for round in 1..=rounds {
        for g in fleet.phase_sessions(p) {
            let new = format!("p{p}.s{}.m{round}", g % fleet.n);
            let t0 = Instant::now();
            let blob = conn.call_ok(wire::checkpoint(&fleet.ids[g]))?.payload;
            conn.call_ok(wire::restore(&new, blob))?;
            conn.call_ok(wire::close(&fleet.ids[g]))?;
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            fleet.ids[g] = new;
        }
    }
    Ok(ms)
}

impl Backend for Serve {
    const SCRAPE: &'static str = "metrics";

    fn start(args: &Args) -> io::Result<Self> {
        let server = SnnServer::start(
            "127.0.0.1:0",
            ServerConfig {
                limits: ServeLimits {
                    max_sessions: 2 * SIZES.len() + 1,
                    ..ServeLimits::default()
                },
                ..ServerConfig::default()
            },
        )?;
        let mut detail = Value::obj();
        detail.set("rates_sps", {
            let mut r = Value::obj();
            r.set("lo", LO_SPS).set("hi", HI_SPS).set(
                "ladder",
                Value::Arr(LADDER_SPS.iter().map(|&x| x.into()).collect()),
            );
            r
        });
        Ok(Serve {
            server,
            trace: args.trace,
            checkpoint_ms: Vec::new(),
            migrate_ms: Vec::new(),
            detail,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn shutdown(self) {
        self.server.shutdown();
    }

    fn drive(
        &mut self,
        conn: &mut Conn,
        fleet: &Fleet,
        p: usize,
        tracer: &Tracer,
        _out: &mut Outcome,
        _detail: &mut Value,
    ) -> io::Result<PhaseRun> {
        fleet.run_phase(conn, p, None, tracer)
    }

    /// Checkpoints and client-side migrations of the sessions that just ran
    /// phase `p`, before they close.
    fn after_phase(
        &mut self,
        conn: &mut Conn,
        fleet: &mut Fleet,
        p: usize,
        out: &mut Outcome,
    ) -> io::Result<()> {
        let checkpoints = fleet.checkpoint_rounds(conn, p, CODEC_ROUNDS)?;
        let migrations = migrate_rounds(fleet, conn, p, CODEC_ROUNDS)?;
        out.attempted += (checkpoints.len() + 3 * migrations.len()) as u64;
        self.checkpoint_ms.extend(checkpoints);
        self.migrate_ms.extend(migrations);
        Ok(())
    }

    /// The server's codec figures over the headline phase's checkpoints and
    /// migrations, and on traced runs the measured cost gap.
    fn headline(
        &mut self,
        conn: &mut Conn,
        fleet: &mut Fleet,
        _p: usize,
        _run: &PhaseRun,
        (_, after): (&Snapshot, &Snapshot),
        out: &mut Outcome,
    ) -> io::Result<()> {
        let codec = wire::scrape(conn, Self::SCRAPE)?;
        for (k, v) in fleet::codec_layers(after, &codec) {
            out.put(k, v);
        }
        if self.trace {
            let (gap, costs) = fleet::cost_gap(fleet);
            out.put("serve.cost_gap", gap);
            self.detail.set(
                "us_per_sample_by_size",
                Value::Arr(
                    costs
                        .iter()
                        .map(|(n, us)| {
                            let mut v = Value::obj();
                            v.set("n_exc", *n).set("us", *us);
                            v
                        })
                        .collect(),
                ),
            );
        }
        Ok(())
    }

    fn results(&self) -> (&[f64], &[f64], Value) {
        (&self.checkpoint_ms, &self.migrate_ms, self.detail.clone())
    }
}

pub fn run(args: &Args) -> io::Result<Outcome> {
    let (mut out, detail) = fleet::run::<Serve>(args, &shape(args))?;
    out.detail = detail;
    Ok(out)
}
