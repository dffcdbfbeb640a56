//! The TCP front end: thread-per-connection server.
//!
//! [`SnnServer::start`] binds a listener and spawns two long-lived
//! threads — the accept loop and the tick scheduler
//! ([`crate::scheduler`]). Each accepted connection gets its own thread
//! running the shared connection loop ([`crate::conn::serve_connection`])
//! against this server's [`MuxHost`]: proto 1 lines answered one reply
//! line per request, in order, until a `hello proto=2` upgrades the
//! socket to multiplexed frames. Connection threads hold no session
//! state: a client may spread one session's requests over several
//! connections or multiplex several sessions on one connection, and
//! ordering is still per-session FIFO (the registry queues are the only
//! ordering authority).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use neuro_energy::GpuSpec;

use crate::conn::serve_connection;
use crate::mux::MuxHost;
use crate::protocol::{
    encode_predictions, extract_rid, format_response, hello_reply, hex_encode, parse_request,
    trace_reply, Request, Response, PROTO_VERSION,
};
use crate::scheduler;
use crate::session::{Job, JobOutput, JobResult, ServeError, ServeLimits, SessionManager};

/// Everything configurable about a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission and queueing limits.
    pub limits: ServeLimits,
    /// Device model used to price per-session energy reports.
    pub gpu: GpuSpec,
    /// Directory evicted sessions checkpoint into (one `<id>.sdyn` file
    /// per victim). `None` disables both the `evict` request and the
    /// idle-timeout sweep. The directory must already exist.
    pub evict_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            limits: ServeLimits::default(),
            gpu: GpuSpec::gtx_1080_ti(),
            evict_dir: None,
        }
    }
}

/// A running multi-session serving instance. Shuts down (and joins its
/// accept + scheduler threads) on [`SnnServer::shutdown`] or drop.
#[derive(Debug)]
pub struct SnnServer {
    addr: SocketAddr,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    scheduler_thread: Option<JoinHandle<()>>,
}

impl SnnServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<SnnServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let manager = Arc::new(SessionManager::new(
            config.limits,
            config.gpu,
            config.evict_dir,
        ));
        let stop = Arc::new(AtomicBool::new(false));

        let scheduler_thread = {
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || scheduler::run(manager))
        };
        let accept_thread = {
            let host = Arc::new(ServeHost {
                manager: Arc::clone(&manager),
            });
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, host, stop))
        };
        Ok(SnnServer {
            addr,
            manager,
            stop,
            accept_thread: Some(accept_thread),
            scheduler_thread: Some(scheduler_thread),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's telemetry instance name: the prefix of every rid it
    /// mints (`<instance>-<seq>`), distinct from every other server's in
    /// the process.
    pub fn instance(&self) -> &str {
        self.manager.obs().registry.instance()
    }

    /// Current server-wide counters.
    pub fn stats(&self) -> crate::session::ServerStats {
        self.manager.stats()
    }

    /// Stops accepting connections, drains queued work, and joins the
    /// server threads. Connections still open keep their sockets but all
    /// further requests are answered with `err code=shutdown`.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.manager.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.scheduler_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SnnServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn accept_loop(listener: TcpListener, host: Arc<ServeHost>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The listener is nonblocking (so shutdown can interrupt
                // accept); connections must block on reads.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let host = Arc::clone(&host);
                // Connection threads are detached: they exit on client
                // disconnect, and post-shutdown requests get error
                // responses because the registry rejects them.
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, host);
                });
            }
            // Accept errors are all transient from this loop's point of
            // view (WouldBlock on an idle listener, ECONNABORTED from a
            // client resetting mid-handshake, EMFILE under fd pressure):
            // back off and keep serving — only the stop flag ends the
            // loop. Exiting here would silently stop accepting while the
            // rest of the server looks healthy.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// The phase/parent fields of a wire-layer request span: the `request`
/// phase is the shard-local root of the trace, linking under a routing
/// tier's `relay` phase only when the rid actually rode in from one.
fn request_phase_fields(carried: bool) -> Vec<(&'static str, String)> {
    let mut fields = vec![("phase", "request".to_string())];
    if carried {
        fields.push(("parent", "relay".to_string()));
    }
    fields
}

/// Echoes a carried rid onto successful replies, so any client (or
/// relay) holding an `ok` line can hand its rid straight to
/// `trace`/`cluster-trace`. Only propagated rids are echoed: locally
/// minted ones would make otherwise-identical replies differ across
/// protocol generations.
fn stamp_rid(response: Response, rid: &str, carried: bool) -> Response {
    if !carried {
        return response;
    }
    match response {
        Response::Ok(mut pairs) => {
            if !pairs.iter().any(|(k, _)| k == "rid") {
                pairs.push(("rid".to_string(), rid.to_string()));
            }
            Response::Ok(pairs)
        }
        err => err,
    }
}

/// This server's one `hello` decision: the versioned banner with its
/// capability flags for a generation this build speaks, `proto-mismatch`
/// otherwise ([`hello_reply`]).
fn hello_banner(manager: &SessionManager, proto: u32) -> Response {
    hello_reply(
        proto,
        [
            ("server", "snn-serve".to_string()),
            ("evict", u8::from(manager.eviction_enabled()).to_string()),
            // Capability flag: this build stores shadow checkpoints (the
            // `shadow` verb). Routing tiers key failover protection off it.
            ("shadow", "1".to_string()),
            // This build keeps a flight-recorder journal and accepts
            // streaming subscriptions.
            ("journal", "1".to_string()),
            ("subscribe", "1".to_string()),
            // This build answers `trace rid=` with its per-request span and
            // journal material for cluster-wide trace assembly.
            ("trace", "1".to_string()),
        ],
    )
}

/// The session server as a [`MuxHost`]: answers one line per request
/// and samples subscription pushes, recording wire, latency and trace
/// metrics under either protocol generation.
#[derive(Debug)]
struct ServeHost {
    manager: Arc<SessionManager>,
}

impl MuxHost for ServeHost {
    fn handle_line(&self, line: &str) -> (String, String) {
        let manager = &*self.manager;
        let obs = manager.obs();
        obs.requests.inc();
        // The rid either rode in as the line's final field (a relaying
        // tier stamped it) or is minted here — the wire layer is where a
        // request first enters this server's trace. A carried rid also
        // marks this request as relayed: its request span then links
        // under the relaying tier's `relay` phase.
        let carried_rid = extract_rid(line).map(str::to_string);
        let carried = carried_rid.is_some();
        let rid = carried_rid.unwrap_or_else(|| obs.registry.mint_rid());
        let t0 = std::time::Instant::now();
        let response = match parse_request(line) {
            Ok(request) => dispatch(request, manager, &rid),
            Err(e) => Response::error("bad-request", e.to_string()),
        };
        let dur = t0.elapsed();
        let verb = line.split_whitespace().next().unwrap_or("");
        obs.record_request(verb, dur, &rid);
        // Unknown verbs collapse to one span name, mirroring the metric
        // fallback, so hostile input cannot pollute the trace ring with
        // garbage names.
        let canonical = if crate::obs::VERBS.contains(&verb) {
            verb
        } else {
            "other"
        };
        obs.registry.span(
            &format!("serve.{canonical}"),
            &rid,
            dur,
            &request_phase_fields(carried),
        );
        let reply = format_response(&stamp_rid(response, &rid, carried));
        (reply, rid)
    }

    fn on_write(&self, _proto: u32, rid: &str, dur: Duration) {
        let obs = self.manager.obs();
        obs.write_us.record_duration(dur);
        obs.registry.span(
            "serve.phase.write",
            rid,
            dur,
            &[
                ("phase", "write".to_string()),
                ("parent", "request".to_string()),
            ],
        );
    }

    fn registry(&self) -> &snn_obs::Registry {
        &self.manager.obs().registry
    }

    fn push_metrics(&self) -> Option<String> {
        (!self.manager.is_shutdown()).then(|| self.manager.metrics_text())
    }

    fn is_shutdown(&self) -> bool {
        self.manager.is_shutdown()
    }

    fn on_wire(&self, proto: u32, rx_bytes: u64, tx_bytes: u64) {
        self.manager.obs().count_wire(proto, rx_bytes, tx_bytes);
    }

    fn on_queue_wait(&self, line: &str, waited: Duration) {
        // Only relayed (rid-bearing) frames get a demux-wait node: a
        // minted rid here would never match the request span's rid.
        if let Some(rid) = extract_rid(line) {
            self.manager.obs().registry.span(
                "serve.phase.demux_wait",
                rid,
                waited,
                &[
                    ("phase", "demux_wait".to_string()),
                    ("parent", "request".to_string()),
                ],
            );
        }
    }

    fn on_flow(&self, tags_in_flight: u64, writer_queue: u64) {
        let obs = self.manager.obs();
        obs.tags_in_flight.set(tags_in_flight as f64);
        obs.writer_queue.set(writer_queue as f64);
    }

    fn on_push_drop(&self) {
        self.manager.obs().subscribe_drops.inc();
    }
}

/// Executes one request to completion (for session jobs: submit, then
/// block this connection thread on the reply channel).
fn dispatch(request: Request, manager: &SessionManager, rid: &str) -> Response {
    match request {
        // The connection loop upgrades to proto 2 on this `ok`; on an
        // upgraded connection a hello only re-reads the banner.
        Request::Hello { proto } => hello_banner(manager, proto),
        // A draining server answers ping with its shutdown state so
        // health checkers stop routing to it instead of seeing a live
        // socket and assuming a live shard.
        Request::Ping if manager.is_shutdown() => error_response(&ServeError::Shutdown),
        Request::Ping => Response::ok([
            ("pong", "1".to_string()),
            ("proto", PROTO_VERSION.to_string()),
        ]),
        Request::Stats => {
            let s = manager.stats();
            Response::ok([
                ("sessions", s.sessions.to_string()),
                ("max_sessions", s.max_sessions.to_string()),
                ("queued_jobs", s.queued_jobs.to_string()),
                ("ticks", s.ticks.to_string()),
                ("total_samples", s.total_samples.to_string()),
                ("evicted", s.evicted_sessions.to_string()),
                ("total_j", s.total_j.to_string()),
                ("uptime_s", s.uptime_s.to_string()),
            ])
        }
        // The exposition is multi-line text and responses are single
        // lines, so it travels hex-encoded in `data` like snapshots do.
        Request::Metrics => Response::ok([
            ("instance", manager.obs().registry.instance().to_string()),
            ("data", hex_encode(manager.metrics_text().as_bytes())),
        ]),
        // The flight recorder travels the same way.
        Request::Journal => Response::ok([
            ("instance", manager.obs().registry.instance().to_string()),
            ("data", hex_encode(manager.journal_text().as_bytes())),
        ]),
        // The connection loops stream subscriptions before dispatch; kept
        // so a new verb cannot be forgotten here.
        Request::Subscribe { .. } => Response::error("bad-request", "subscribe is a stream"),
        Request::Open { id, spec } => match manager.open(&id, &spec) {
            Ok(()) => {
                manager
                    .obs()
                    .registry
                    .journal_event("serve.open", rid, &[("id", id.clone())]);
                Response::ok([("id", id)])
            }
            Err(e) => {
                journal_reject(manager, rid, &id, &e);
                error_response(&e)
            }
        },
        Request::Restore { id, snapshot } => match manager.open_restored(&id, &snapshot) {
            Ok((samples, total_j)) => {
                manager.obs().registry.journal_event(
                    "serve.restore",
                    rid,
                    &[("id", id.clone()), ("samples", samples.to_string())],
                );
                Response::ok([
                    ("id", id),
                    ("samples", samples.to_string()),
                    ("total_j", total_j.to_string()),
                ])
            }
            Err(e) => {
                journal_reject(manager, rid, &id, &e);
                error_response(&e)
            }
        },
        Request::Ingest { id, images } => {
            if images.len() > manager.limits().max_batch {
                return error_response(&ServeError::BadRequest(format!(
                    "batch of {} exceeds max_batch {}",
                    images.len(),
                    manager.limits().max_batch
                )));
            }
            roundtrip(manager, &id, Job::Ingest(images), rid)
        }
        Request::Report { id } => roundtrip(manager, &id, Job::Report, rid),
        Request::Energy { id } => roundtrip(manager, &id, Job::Energy, rid),
        Request::Checkpoint { id } => roundtrip(manager, &id, Job::Checkpoint, rid),
        Request::Swap { id, snapshot } => roundtrip(manager, &id, Job::Swap(snapshot), rid),
        // Shadow store/fetch never touch a live session or the scheduler:
        // they are direct manager calls against the bounded shadow store.
        Request::Shadow { id, snapshot, seq } => match manager.store_shadow(&id, seq, snapshot) {
            Ok(()) => Response::ok([("id", id), ("seq", seq.to_string())]),
            Err(e) => error_response(&e),
        },
        Request::ShadowGet { id } => match manager.fetch_shadow(&id) {
            Some((seq, bytes)) => Response::ok([
                ("id", id),
                ("seq", seq.to_string()),
                ("data", hex_encode(&bytes)),
            ]),
            None => error_response(&ServeError::UnknownSession(id)),
        },
        Request::Evict { id } => roundtrip(manager, &id, Job::Evict, rid),
        Request::Close { id } => roundtrip(manager, &id, Job::Close, rid),
        Request::Trace { rid: target } => trace_reply(&manager.obs().registry, &target),
    }
}

/// Journals admission-class rejections (the events the post-mortem story
/// of an overloaded or flapping shard is made of); other errors already
/// surface through metrics and the wire response.
fn journal_reject(manager: &SessionManager, rid: &str, id: &str, e: &ServeError) {
    let kind = match e {
        ServeError::Admission { .. } | ServeError::DuplicateSession(_) => "serve.reject.admission",
        ServeError::Backpressure { .. } => "serve.reject.backpressure",
        _ => return,
    };
    manager
        .obs()
        .registry
        .journal_event(kind, rid, &[("id", id.to_string())]);
}

fn roundtrip(manager: &SessionManager, id: &str, job: Job, rid: &str) -> Response {
    let (tx, rx) = mpsc::channel();
    if let Err(e) = manager.submit(id, job, rid, tx) {
        journal_reject(manager, rid, id, &e);
        return error_response(&e);
    }
    match rx.recv() {
        Ok(result) => job_response(id, result),
        // The scheduler dropped the sender: only possible on shutdown.
        Err(_) => error_response(&ServeError::Shutdown),
    }
}

fn error_response(e: &ServeError) -> Response {
    Response::error(e.code(), e.to_string())
}

fn job_response(id: &str, result: JobResult) -> Response {
    let output = match result {
        Ok(output) => output,
        Err(e) => return error_response(&e),
    };
    match output {
        JobOutput::Ingested(outcome, total_j) => Response::ok([
            ("id", id.to_string()),
            ("predictions", encode_predictions(&outcome.predictions)),
            ("drifts", outcome.drift_events.len().to_string()),
            (
                "response_active",
                u8::from(outcome.response_active).to_string(),
            ),
            ("samples", outcome.samples_seen.to_string()),
            ("total_j", total_j.to_string()),
        ]),
        JobOutput::Report(report) | JobOutput::Closed(report) => Response::ok([
            ("id", id.to_string()),
            ("samples", report.samples_seen.to_string()),
            ("accuracy", report.accuracy.to_string()),
            ("forgetting", report.mean_forgetting.to_string()),
            ("drifts", report.drift_events.len().to_string()),
            ("spikes_per_sample", report.mean_exc_spikes.to_string()),
        ]),
        JobOutput::Energy(energy) => Response::ok([
            ("id", id.to_string()),
            ("train_j", energy.train_j.to_string()),
            ("infer_j", energy.infer_j.to_string()),
            ("per_sample_j", energy.per_sample_j.to_string()),
        ]),
        JobOutput::Checkpoint(bytes) => {
            Response::ok([("id", id.to_string()), ("data", hex_encode(&bytes))])
        }
        JobOutput::Swapped {
            samples_seen,
            total_j,
        } => Response::ok([
            ("id", id.to_string()),
            ("samples", samples_seen.to_string()),
            ("total_j", total_j.to_string()),
        ]),
        JobOutput::Evicted(path) => {
            Response::ok([("id", id.to_string()), ("path", path.display().to_string())])
        }
    }
}
