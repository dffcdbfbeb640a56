//! `cluster-migrate`: an in-process `Cluster` router over two spawned
//! shards, driven by the open-loop generator over one proto-2 connection.
//!
//! Besides the `ingest` traffic every session sends a periodic `checkpoint`
//! whose reply is a blob of about 120 KB, and a control thread
//! live-migrates one session to the other shard every [`MIGRATE_EVERY`].
//! The router relay, the ring, the checkpoint codec and blob framing do
//! the work; small ingests and large blobs share one `snn-serve` layer, so
//! a change that helps small frames but hurts blobs shows here.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use snn_cluster::{Cluster, ClusterConfig, ShardId};
use snn_obs::{Snapshot, TraceNode, TraceTree};
use snn_serve::{ServeLimits, ServerConfig};

use crate::fleet::{self, Backend, Fleet, PhaseSpec, Shape};
use crate::json::Value;
use crate::openloop::{Kind, PhaseRun};
use crate::spans::Tracer;
use crate::stats::{median, min_samples_for};
use crate::wire::{self, Conn};
use crate::{Args, Outcome};

/// The fixed offered ingest rate in samples per second across all
/// sessions, about an eighth of this workload's capacity on the reference
/// host (2 cores). A migration visits both shards and waits behind any
/// ingest executing there; at 110 samples/s about half of them waited, so
/// the median migration sat on the edge between the waiting and the
/// non-waiting mode and jumped with small changes in host speed. At this
/// rate about three quarters do not wait, and p90 stays clear of the
/// limit. Calibrated once, never recomputed per run, and recorded in
/// `BENCHMARK.json`.
pub const RATE_SPS: f64 = 60.0;

/// Excitatory-layer sizes: eight N100 learners, checkpoint blobs of about
/// 120 KB. One size on purpose: with N24–N400 sessions the tick time of
/// each shard depended on where the large learners sat as sessions moved,
/// and the latencies flipped between regimes from run to run.
const SIZES: [usize; 8] = [100; 8];

/// Every third request slot of a session is a `checkpoint`: with the light
/// ingest rate this keeps about 70 checkpoints in a 20 s run.
const CHECKPOINT_EVERY: u32 = 3;

/// One live migration per this interval while a phase runs.
pub const MIGRATE_EVERY: Duration = Duration::from_millis(200);

/// Set-ups per run, half before and half after the timed phases;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 8;

/// Request ids traced through `cluster-trace` after the headline phase.
const TRACED_RIDS: usize = 8;

/// The one phase lasts the whole `--seconds`: about 150 ingests, 100
/// migrations and 70 checkpoints at 20 s, too few ingests for a p95.
fn shape(args: &Args) -> Shape {
    let window = Duration::from_secs(args.seconds);
    Shape {
        sizes: &SIZES,
        phases: vec![PhaseSpec::new(
            "main",
            RATE_SPS,
            window,
            min_samples_for(90.0),
        )],
        headline: "main",
        rungs: &["main"],
        checkpoint_every: Some(CHECKPOINT_EVERY),
        setup_repeats: SETUP_REPEATS,
    }
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

struct Routed {
    cluster: Cluster,
    trace: bool,
    /// The shards' eviction directories, removed at shutdown.
    evict_dirs: Vec<PathBuf>,
    checkpoint_ms: Vec<f64>,
    migrate_ms: Vec<f64>,
    detail: Value,
}

/// The shard that is not `here` (the cluster has two).
fn other_shard(cluster: &Cluster, here: ShardId) -> ShardId {
    cluster
        .shard_ids()
        .into_iter()
        .find(|&s| s != here)
        .expect("two shards")
}

/// Cycles `ids` between the shards until `until`, one move per
/// [`MIGRATE_EVERY`]. Returns the call times in ms and the number of
/// failed migrations.
fn migrate_loop(cluster: &Cluster, ids: &[String], until: Instant) -> (Vec<f64>, u64) {
    let (mut ms, mut failed) = (Vec::new(), 0);
    let mut next = Instant::now() + MIGRATE_EVERY;
    for id in ids.iter().cycle() {
        if next >= until {
            break;
        }
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        if let Some(here) = cluster.session_shard(id) {
            let t0 = Instant::now();
            match cluster.migrate_session(id, other_shard(cluster, here)) {
                Ok(()) => ms.push(t0.elapsed().as_secs_f64() * 1e3),
                Err(_) => failed += 1,
            }
        }
        next += MIGRATE_EVERY;
    }
    (ms, failed)
}

fn find_phase<'a>(node: &'a TraceNode, phase: &str) -> Option<&'a TraceNode> {
    if node.phase == phase {
        return Some(node);
    }
    node.children.iter().find_map(|c| find_phase(c, phase))
}

/// Self time of the router's relay phase, in ms, for the last traced
/// ingests of `run` (read with `cluster-trace rid=`).
fn relay_self_ms(conn: &mut Conn, run: &PhaseRun) -> io::Result<Vec<f64>> {
    let mut out = Vec::new();
    for r in run
        .records
        .iter()
        .rev()
        .filter(|r| r.kind == Kind::Ingest)
        .take(TRACED_RIDS)
    {
        let Some(rid) = &r.rid else { continue };
        let reply = conn.call(wire::cluster_trace(rid))?;
        if reply.error_code().is_some() {
            continue;
        }
        let text = String::from_utf8(reply.payload).map_err(other)?;
        let tree = TraceTree::parse(&text).map_err(other)?;
        if let Some(relay) = find_phase(&tree.root, "relay") {
            out.push(relay.self_us() as f64 / 1e3);
        }
    }
    Ok(out)
}

fn relay_bytes(s: &Snapshot) -> u64 {
    ["p1", "p2"]
        .iter()
        .flat_map(|p| ["rx", "tx"].map(|d| s.counter(&format!("cluster.relay.{p}.{d}_bytes"))))
        .sum()
}

impl Backend for Routed {
    const SCRAPE: &'static str = "cluster-metrics";

    fn start(args: &Args) -> io::Result<Self> {
        let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default())?;
        let mut evict_dirs = Vec::new();
        for shard in 0..2 {
            // Evicted sessions would land here; the shards never write
            // anywhere outside the run's own directory.
            let dir = args
                .out_dir()
                .join(format!("evict-{}-{shard}", cluster.local_addr().port()));
            std::fs::create_dir_all(&dir)?;
            cluster
                .spawn_shard(ServerConfig {
                    limits: ServeLimits {
                        max_sessions: SIZES.len() + 1,
                        ..ServeLimits::default()
                    },
                    evict_dir: Some(dir.clone()),
                    ..ServerConfig::default()
                })
                .map_err(other)?;
            evict_dirs.push(dir);
        }
        let mut detail = Value::obj();
        detail.set("rate_sps", RATE_SPS);
        Ok(Routed {
            cluster,
            trace: args.trace,
            evict_dirs,
            checkpoint_ms: Vec::new(),
            migrate_ms: Vec::new(),
            detail,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.cluster.local_addr()
    }

    fn shutdown(self) {
        self.cluster.shutdown();
        for dir in &self.evict_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        if let Some(run_dir) = self.evict_dirs.first().and_then(|d| d.parent()) {
            // Gone only if nothing else (spans) lives there.
            let _ = std::fs::remove_dir(run_dir);
        }
    }

    /// The phase's traffic, with a control thread live-migrating one
    /// session per [`MIGRATE_EVERY`] alongside it.
    fn drive(
        &mut self,
        conn: &mut Conn,
        fleet: &Fleet,
        p: usize,
        tracer: &Tracer,
        out: &mut Outcome,
        detail: &mut Value,
    ) -> io::Result<PhaseRun> {
        let ph = &fleet.phases[p];
        let until = Instant::now() + ph.window;
        let cluster = &self.cluster;
        let (run, (moves, move_failures)) = std::thread::scope(|s| {
            let ids = &fleet.ids[fleet.phase_sessions(p)];
            let mover = s.spawn(|| migrate_loop(cluster, ids, until));
            let run = fleet.run_phase(conn, p, self.trace.then_some(ph.name), tracer);
            (run, mover.join().expect("migration thread panicked"))
        });
        let run = run?;
        let shards_max = cluster
            .stats()
            .shards
            .iter()
            .map(|s| s.sessions)
            .max()
            .unwrap_or(0);
        out.attempted += moves.len() as u64 + move_failures;
        out.failed += move_failures;
        detail
            .set("migrations", moves.len())
            .set("migration_failures", move_failures)
            .set("sessions_per_shard_max", shards_max);
        self.migrate_ms.extend(&moves);
        self.checkpoint_ms.extend(
            run.records
                .iter()
                .filter(|r| r.kind == Kind::Checkpoint)
                .map(|r| r.latency_ms()),
        );
        out.put("cluster.sessions_per_shard_max", shards_max as f64);
        Ok(run)
    }

    /// Relay, migration and codec figures of the phase; on traced runs the
    /// relay's self time from `cluster-trace`.
    fn headline(
        &mut self,
        conn: &mut Conn,
        _fleet: &mut Fleet,
        _p: usize,
        run: &PhaseRun,
        (before, after): (&Snapshot, &Snapshot),
        out: &mut Outcome,
    ) -> io::Result<()> {
        for (k, v) in fleet::codec_layers(before, after) {
            out.put(k, v);
        }
        let d = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
        out.put("cluster.relays", d("cluster.relays"));
        out.put(
            "cluster.relay_bytes",
            relay_bytes(after).saturating_sub(relay_bytes(before)) as f64,
        );
        let (a, b) = (
            before.histogram("cluster.migrate_bytes"),
            after.histogram("cluster.migrate_bytes"),
        );
        let moved = b.count().saturating_sub(a.count()).max(1);
        out.put(
            "cluster.migrate_bytes",
            b.sum.saturating_sub(a.sum) as f64 / moved as f64,
        );
        if self.trace {
            let relay_ms = relay_self_ms(conn, run)?;
            if !relay_ms.is_empty() {
                out.put("cluster.relay_self_ms", median(&relay_ms));
            }
            self.detail.set("relay_self_ms_samples", relay_ms.len());
        }
        Ok(())
    }

    fn results(&self) -> (&[f64], &[f64], Value) {
        (&self.checkpoint_ms, &self.migrate_ms, self.detail.clone())
    }
}

/// The one phase runs at a fixed light rate, so `max_sps` there is its
/// achieved rate, equal to `train_sps` while p90 meets the limit.
pub fn run(args: &Args) -> io::Result<Outcome> {
    let (mut out, detail) = fleet::run::<Routed>(args, &shape(args))?;
    out.detail = detail;
    Ok(out)
}
