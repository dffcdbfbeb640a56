//! Proto 2 connection multiplexing (`DESIGN.md` §13).
//!
//! One negotiated socket carries many in-flight requests at once: every
//! request [`Frame`] names itself with a client-chosen tag, responses
//! echo the tag, and `subscribe` streams arrive as server-initiated
//! [`FLAG_PUSH`] frames on the subscription's tag. This replaces
//! thread-per-connection fan-out on the relay path: a routing tier keeps
//! **one** connection per shard and interleaves session traffic,
//! checkpoint blobs, shadow pushes, and migrations over it.
//!
//! The server half (`run_mux`) is tier-agnostic: anything that can
//! answer one protocol line implements [`MuxHost`], so the session
//! server and the cluster router share this loop (and its flow-control
//! policy) verbatim. It is entered only from
//! [`crate::conn::serve_connection`], once a line-based `hello proto=2`
//! has been accepted.
//!
//! Flow control / slow-reader policy: at most [`MAX_INFLIGHT`] requests
//! are being served per connection — the reader stops pulling frames
//! when the window is full, so a flooding client is throttled by TCP
//! backpressure, not by unbounded thread growth. Push frames are
//! sacrificial: when the shared outbound queue is full they are dropped
//! (and counted via [`MuxHost::on_push_drop`]) rather than ever
//! stalling response traffic.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use snn_obs::Registry;

use crate::conn::{sample_pushes, subscribe_ack, subscribe_interval};
use crate::frame::{line_to_frame, Frame, FrameError, FLAG_PUSH, HEADER_BYTES};
use crate::protocol::{format_response, Response, PROTO_V2};

/// Cap on concurrently served requests per multiplexed connection.
pub const MAX_INFLIGHT: usize = 64;

/// Wire size of a frame (header + body + checksum), for byte accounting.
fn wire_len(frame: &Frame) -> u64 {
    (HEADER_BYTES + frame.head.len() + frame.payload.len() + 4) as u64
}

/// A request-serving endpoint a connection can be run against, under
/// either protocol generation: [`crate::conn::serve_connection`] answers
/// proto 1 lines and runs the proto 2 demultiplexer after the upgrade.
/// Implemented by the session server and the cluster router, which
/// differ only in how a line is answered, what a subscription push
/// samples, and what they record.
pub trait MuxHost: Send + Sync + 'static {
    /// Serves one request line (no trailing newline) to completion and
    /// returns the reply line (no trailing newline) plus the rid the
    /// request was traced under. Answers `hello` too: the connection
    /// loop upgrades to proto 2 only on an `ok` to `hello proto=2`. Must
    /// never panic on hostile input.
    fn handle_line(&self, line: &str) -> (String, String);

    /// The registry whose journal feeds this host's subscription
    /// pushes (each push carries the events recorded since the last).
    fn registry(&self) -> &Registry;

    /// The metrics exposition a subscription push carries. Returning
    /// `None` ends the stream (shutdown).
    fn push_metrics(&self) -> Option<String>;

    /// Whether the host is draining; push samplers exit when true.
    fn is_shutdown(&self) -> bool;

    /// Byte accounting hook: bytes that crossed the wire under protocol
    /// generation `proto` — one proto 1 line either way, one proto 2
    /// request/response pair, or one push (`rx_bytes == 0`).
    fn on_wire(&self, proto: u32, rx_bytes: u64, tx_bytes: u64) {
        let _ = (proto, rx_bytes, tx_bytes);
    }

    /// Write-phase hook: putting the reply to the request traced under
    /// `rid` on the wire took `dur`. Under proto 1 that is the socket
    /// write; under proto 2 it is building the response frame, whose
    /// socket write happens later on the connection's shared writer
    /// thread.
    fn on_write(&self, proto: u32, rid: &str, dur: Duration) {
        let _ = (proto, rid, dur);
    }

    /// Demux queue-wait hook: `line`'s frame waited `waited` for a slot
    /// in the in-flight window before being served (zero when the window
    /// had room). Hosts turn this into the request trace's `demux_wait`
    /// phase when the line carries a rid.
    fn on_queue_wait(&self, line: &str, waited: Duration) {
        let _ = (line, waited);
    }

    /// Flow-control sample: how many tags are currently being served and
    /// how many outbound frames sit in the writer queue. Called at every
    /// demux/complete/write step; hosts publish the numbers as gauges.
    fn on_flow(&self, tags_in_flight: u64, writer_queue: u64) {
        let _ = (tags_in_flight, writer_queue);
    }

    /// A push was dropped because a subscriber's buffer was full. The
    /// subscriber sees the loss as a `seq` gap; hosts count it in one
    /// aggregate counter.
    fn on_push_drop(&self) {}
}

/// The outbound frame channel plus its depth counter: every enqueue and
/// the writer thread's dequeues keep `depth` equal to the frames queued
/// but not yet written, so hosts can publish writer-queue pressure.
#[derive(Clone)]
struct Outbound {
    tx: mpsc::SyncSender<Frame>,
    depth: Arc<AtomicU64>,
}

impl Outbound {
    fn send(&self, frame: Frame) -> Result<(), mpsc::SendError<Frame>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.send(frame) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn try_send(&self, frame: Frame) -> Result<(), mpsc::TrySendError<Frame>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(frame) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

/// Serves one upgraded (post-`hello`) proto 2 connection until the peer
/// disconnects: demultiplexes request frames, fans them out to worker
/// threads bounded by [`MAX_INFLIGHT`], and serialises tagged response
/// frames through one writer thread.
///
/// Takes the connection's existing buffered reader (bytes a client
/// pipelined behind its `hello` line must not be lost in the upgrade)
/// plus the writable stream.
///
/// # Errors
///
/// Returns the socket error that ended the connection; a clean client
/// disconnect is `Ok(())`.
pub(crate) fn run_mux<R: io::Read, H: MuxHost>(
    mut reader: R,
    stream: TcpStream,
    host: Arc<H>,
) -> io::Result<()> {
    let (raw_tx, out_rx) = mpsc::sync_channel::<Frame>(MAX_INFLIGHT);
    let out_tx = Outbound {
        tx: raw_tx,
        depth: Arc::new(AtomicU64::new(0)),
    };
    // Tags currently being served (duplicate detection + the in-flight
    // window the reader blocks on).
    let inflight = Arc::new((Mutex::new(HashSet::<u32>::new()), Condvar::new()));
    let writer_thread = {
        let depth = Arc::clone(&out_tx.depth);
        let inflight = Arc::clone(&inflight);
        let host = Arc::clone(&host);
        std::thread::spawn(move || {
            let mut writer = BufWriter::new(stream);
            for frame in out_rx {
                let queued = depth.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
                let tags = inflight.0.lock().expect("inflight lock").len() as u64;
                host.on_flow(tags, queued);
                if writer
                    .write_all(&frame.encode())
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    // The socket is gone: drain (and drop) remaining frames
                    // so senders never block on a dead connection.
                    break;
                }
            }
        })
    };
    let result = loop {
        let frame = match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => break Ok(()),
            Err(e) if e.is_recoverable() => {
                // Framing is still aligned: answer on tag 0 (the tag is
                // unknowable for a head that failed to decode) and keep
                // serving other in-flight work.
                let resp = Response::error("bad-frame", e.to_string());
                let _ = out_tx.try_send(line_to_frame(&format_response(&resp), 0, 0));
                continue;
            }
            Err(FrameError::Io(e)) => break Err(e),
            Err(e) => {
                // Desynced or hostile stream: one best-effort error
                // frame, then close — later bytes cannot be trusted.
                let resp = Response::error("bad-frame", e.to_string());
                let _ = out_tx.try_send(line_to_frame(&format_response(&resp), 0, 0));
                break Ok(());
            }
        };
        if frame.flags & FLAG_PUSH != 0 {
            let resp = Response::error("bad-frame", "push flag is server-initiated only");
            let _ = out_tx.try_send(line_to_frame(&format_response(&resp), frame.tag, 0));
            continue;
        }
        let rx_bytes = wire_len(&frame);
        if frame.head.split(' ').next() == Some("subscribe") {
            spawn_push_sampler(&frame, Arc::clone(&host), out_tx.clone());
            continue;
        }
        let waited;
        {
            let (set, cv) = &*inflight;
            let mut set = set.lock().expect("inflight lock");
            if set.contains(&frame.tag) {
                drop(set);
                let resp = Response::error(
                    "duplicate-tag",
                    format!("tag {} is already in flight", frame.tag),
                );
                let _ = out_tx.try_send(line_to_frame(&format_response(&resp), frame.tag, 0));
                continue;
            }
            // The flow-control window: stop pulling frames until a slot
            // frees up. The kernel's receive buffer then fills and the
            // client blocks in its own write — backpressure, not OOM.
            // Time spent here is the request's demux queue-wait.
            let wait0 = std::time::Instant::now();
            while set.len() >= MAX_INFLIGHT {
                set = cv.wait(set).expect("inflight lock");
            }
            waited = wait0.elapsed();
            set.insert(frame.tag);
            host.on_flow(set.len() as u64, out_tx.depth.load(Ordering::Relaxed));
        }
        let host = Arc::clone(&host);
        let out_tx = out_tx.clone();
        let inflight = Arc::clone(&inflight);
        std::thread::spawn(move || {
            let tag = frame.tag;
            let (reply, rid) = match frame.to_line() {
                Ok(line) => {
                    host.on_queue_wait(&line, waited);
                    let (reply, rid) = host.handle_line(&line);
                    (reply, Some(rid))
                }
                Err(e) => (
                    format_response(&Response::error("bad-frame", e.to_string())),
                    None,
                ),
            };
            let w0 = std::time::Instant::now();
            let response = line_to_frame(&reply, tag, 0);
            if let Some(rid) = rid {
                host.on_write(PROTO_V2, &rid, w0.elapsed());
            }
            host.on_wire(PROTO_V2, rx_bytes, wire_len(&response));
            let _ = out_tx.send(response);
            let (set, cv) = &*inflight;
            let remaining = {
                let mut set = set.lock().expect("inflight lock");
                set.remove(&tag);
                set.len() as u64
            };
            cv.notify_one();
            host.on_flow(remaining, out_tx.depth.load(Ordering::Relaxed));
        });
    };
    drop(out_tx);
    // Worker and sampler threads hold channel clones; the writer exits
    // once the last of them finishes (or immediately on socket death).
    let _ = writer_thread.join();
    result
}

/// Starts one subscription stream: an `ok interval_ms=…` ack on the
/// subscription's tag, then periodic [`FLAG_PUSH`] frames until host
/// shutdown or connection death ([`sample_pushes`]). The sampler never
/// blocks on the subscriber: full outbound queues drop the frame and
/// count it.
fn spawn_push_sampler<H: MuxHost>(frame: &Frame, host: Arc<H>, out_tx: Outbound) {
    let tag = frame.tag;
    let interval = match subscribe_interval(&frame.head) {
        Ok(interval) => interval,
        Err(reply) => {
            let _ = out_tx.try_send(line_to_frame(&format_response(&reply), tag, 0));
            return;
        }
    };
    if out_tx
        .send(line_to_frame(&subscribe_ack(interval), tag, 0))
        .is_err()
    {
        return;
    }
    std::thread::spawn(move || {
        sample_pushes(&*host, interval, |line| {
            let push = line_to_frame(&line, tag, FLAG_PUSH);
            let tx_bytes = wire_len(&push);
            out_tx
                .try_send(push)
                .map(|()| host.on_wire(PROTO_V2, 0, tx_bytes))
        });
    });
}

/// The client half of a multiplexed connection: one writer, one reader
/// thread, and a tagged in-flight table routing each response (and each
/// push stream) to its caller. Cheap to share — a routing tier keeps one
/// `Arc<MuxClient>` per shard and issues concurrent calls over it.
#[derive(Debug)]
pub struct MuxClient {
    writer: Mutex<TcpStream>,
    pending: Arc<Mutex<HashMap<u32, mpsc::Sender<Frame>>>>,
    next_tag: AtomicU32,
    dead: Arc<AtomicBool>,
    tx_bytes: AtomicU64,
    rx_bytes: Arc<AtomicU64>,
    /// Deadline applied to each call's response wait (the socket itself
    /// carries no read timeout — the reader thread must block
    /// indefinitely between frames on an idle connection).
    reply_timeout: Mutex<Option<Duration>>,
}

impl MuxClient {
    /// Wraps an already-negotiated (post-`hello ok proto=2`) socket.
    /// Spawns the demultiplexing reader thread; it exits when the socket
    /// dies or this client is dropped.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from cloning/configuring the stream.
    pub fn new(stream: TcpStream, reply_timeout: Option<Duration>) -> io::Result<Arc<MuxClient>> {
        // An inherited read timeout would make the reader thread treat an
        // idle-but-healthy connection as dead; deadlines are enforced
        // per-call via `reply_timeout` instead.
        stream.set_read_timeout(None)?;
        let read_half = stream.try_clone()?;
        let pending = Arc::new(Mutex::new(HashMap::new()));
        let dead = Arc::new(AtomicBool::new(false));
        let rx_bytes = Arc::new(AtomicU64::new(0));
        let client = Arc::new(MuxClient {
            writer: Mutex::new(stream),
            pending: Arc::clone(&pending),
            next_tag: AtomicU32::new(1),
            dead: Arc::clone(&dead),
            tx_bytes: AtomicU64::new(0),
            rx_bytes: Arc::clone(&rx_bytes),
            reply_timeout: Mutex::new(reply_timeout),
        });
        // The reader holds only the shared maps, never the Arc<MuxClient>
        // itself — otherwise Drop (which closes the socket to unblock
        // this very thread) could never run.
        std::thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            // An error or clean EOF both end the reader the same way.
            while let Ok(Some(frame)) = Frame::read_from(&mut reader) {
                rx_bytes.fetch_add(wire_len(&frame), Ordering::Relaxed);
                let mut map = pending.lock().expect("pending lock");
                let is_push = frame.flags & FLAG_PUSH != 0;
                let tag = frame.tag;
                if let Some(tx) = map.get(&tag) {
                    let delivered = tx.send(frame).is_ok();
                    // One-shot responses retire their tag here; push
                    // streams keep theirs registered until the
                    // subscriber goes away.
                    if !is_push || !delivered {
                        map.remove(&tag);
                    }
                }
                // Unknown tags are late responses for callers that
                // already timed out: dropped silently.
            }
            dead.store(true, Ordering::SeqCst);
            // Dropping every sender unblocks all waiting callers with a
            // disconnect error.
            pending.lock().expect("pending lock").clear();
        });
        Ok(client)
    }

    /// Whether the connection has died (reader thread exited).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Re-bounds every later call's response wait (`None` blocks
    /// forever).
    pub fn set_reply_timeout(&self, timeout: Option<Duration>) {
        *self.reply_timeout.lock().expect("timeout lock") = timeout;
    }

    /// Total bytes written to / read from the socket, frame overhead
    /// included.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (
            self.tx_bytes.load(Ordering::Relaxed),
            self.rx_bytes.load(Ordering::Relaxed),
        )
    }

    fn alloc_tag(&self) -> u32 {
        // Tag 0 is reserved for connection-level errors from the server.
        loop {
            let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
            if tag != 0 {
                return tag;
            }
        }
    }

    fn register(&self, tag: u32) -> mpsc::Receiver<Frame> {
        let (tx, rx) = mpsc::channel();
        self.pending.lock().expect("pending lock").insert(tag, tx);
        rx
    }

    fn send_line(&self, line: &str, tag: u32) -> io::Result<u64> {
        let bytes = line_to_frame(line, tag, 0).encode();
        let mut writer = self.writer.lock().expect("writer lock");
        writer.write_all(&bytes)?;
        writer.flush()?;
        self.tx_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes.len() as u64)
    }

    fn recv(&self, rx: &mpsc::Receiver<Frame>, tag: u32) -> io::Result<Frame> {
        let timeout = *self.reply_timeout.lock().expect("timeout lock");
        let frame = match timeout {
            Some(t) => rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => {
                    // Retire the tag so a late response is not
                    // misdelivered to a future call reusing the slot.
                    self.pending.lock().expect("pending lock").remove(&tag);
                    io::Error::new(io::ErrorKind::TimedOut, "mux reply timed out")
                }
                mpsc::RecvTimeoutError::Disconnected => disconnected(),
            })?,
            None => rx.recv().map_err(|_| disconnected())?,
        };
        Ok(frame)
    }

    /// Sends one already-formatted request line and blocks for its
    /// tagged response line — the multiplexed analogue of a line
    /// transport's write-then-read, safe to call from many threads at
    /// once.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, connection death, reply timeout, and
    /// undecodable response frames.
    pub fn call_line(&self, line: &str) -> io::Result<String> {
        self.call_line_counted(line).map(|(reply, _, _)| reply)
    }

    /// [`MuxClient::call_line`] plus this call's exact wire cost:
    /// `(reply, tx_bytes, rx_bytes)` measured on the frames actually
    /// sent and received (header and checksum included) — what a relay
    /// tier feeds into its per-protocol byte counters.
    ///
    /// # Errors
    ///
    /// Fails as [`MuxClient::call_line`] does.
    pub fn call_line_counted(&self, line: &str) -> io::Result<(String, u64, u64)> {
        if self.is_dead() {
            return Err(disconnected());
        }
        let tag = self.alloc_tag();
        let rx = self.register(tag);
        let sent = match self.send_line(line, tag) {
            Ok(sent) => sent,
            Err(e) => {
                self.pending.lock().expect("pending lock").remove(&tag);
                return Err(e);
            }
        };
        let frame = self.recv(&rx, tag)?;
        let received = wire_len(&frame);
        let reply = frame
            .to_line()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((reply, sent, received))
    }

    /// Starts a subscription stream: sends the `subscribe` line and
    /// returns the ack line plus a receiver of raw push frames on the
    /// subscription's tag.
    ///
    /// # Errors
    ///
    /// Fails as [`MuxClient::call_line`] does on the handshake.
    pub fn subscribe_line(&self, line: &str) -> io::Result<(String, mpsc::Receiver<Frame>)> {
        if self.is_dead() {
            return Err(disconnected());
        }
        let tag = self.alloc_tag();
        let (tx, rx) = mpsc::channel();
        self.pending
            .lock()
            .expect("pending lock")
            .insert(tag, tx.clone());
        if let Err(e) = self.send_line(line, tag) {
            self.pending.lock().expect("pending lock").remove(&tag);
            return Err(e);
        }
        // The ack is the first frame on the tag; delivering it retired
        // the tag (no PUSH flag), so re-register the same sender for the
        // push stream that follows.
        let ack = self.recv(&rx, tag)?;
        self.pending.lock().expect("pending lock").insert(tag, tx);
        let ack_line = ack
            .to_line()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((ack_line, rx))
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        // Unblocks the reader thread (it holds only a socket clone).
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.shutdown(Shutdown::Both);
        }
    }
}

fn disconnected() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "multiplexed connection closed",
    )
}
