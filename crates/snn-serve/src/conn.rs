//! The one connection loop both serving tiers run (`DESIGN.md` §13).
//!
//! [`crate::SnnServer`] and the cluster router hand every accepted
//! socket to [`serve_connection`]. A connection starts in the proto 1
//! line protocol — the client edge that `nc` can speak — and either
//! stays there, turns into a one-way `subscribe` stream, or upgrades to
//! multiplexed proto 2 frames ([`crate::mux`]) once the host
//! accepts `hello proto=2`. The tiers differ only in their
//! [`MuxHost`]: how a line is answered (including `hello`, which each
//! tier decides in one function), what a push samples, and which
//! metrics and spans they record.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::mux::{run_mux, MuxHost};
use crate::protocol::{
    format_response, parse_request, tokenize, Request, Response, MAX_LINE_BYTES, PROTO_V2,
    PROTO_VERSION,
};

/// How many sampled lines a proto 1 subscription buffers between its
/// sampler and its socket writer. A consumer that falls further behind
/// loses lines (reported through [`MuxHost::on_push_drop`]) instead of
/// backing the sampler up.
const SUBSCRIBE_BUFFER: usize = 8;

/// Serves one accepted connection until EOF or an unrecoverable socket
/// error. Reads proto 1 lines — never dispatching one cut short by
/// [`MAX_LINE_BYTES`] or by the client dying mid-send — and answers each
/// through [`MuxHost::handle_line`]. `subscribe` turns the connection
/// into a push stream; a `hello proto=2` the host accepts hands the
/// socket to the proto 2 demultiplexer ([`crate::mux`]). Neither ever
/// returns to request/reply lines.
///
/// # Errors
///
/// Returns the socket error that ended the connection; a clean client
/// disconnect is `Ok(())`.
pub fn serve_connection<H: MuxHost>(stream: TcpStream, host: Arc<H>) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let mut raw = String::new();
        let n = (&mut reader).take(MAX_LINE_BYTES).read_line(&mut raw)?;
        if n == 0 {
            return Ok(()); // client closed the connection
        }
        host.on_wire(PROTO_VERSION, n as u64, 0);
        if !raw.ends_with('\n') {
            // The line is incomplete: either it hit the size cap, or the
            // client died mid-send and this is the truncated tail before
            // EOF. Never dispatch a truncated line — a cut-short
            // `close id=session-10` parses as `close id=session-1`.
            if n as u64 == MAX_LINE_BYTES {
                let reply = Response::error("bad-request", "line exceeds the protocol size limit");
                write_line(&mut writer, &*host, &format_response(&reply))?;
            }
            return Ok(());
        }
        let line = raw.trim_end_matches(['\r', '\n']);
        let verb = line.split(' ').next().unwrap_or("");
        if verb == "subscribe" {
            match subscribe_interval(line) {
                Ok(interval) => return stream_lines(&mut writer, &*host, interval),
                Err(reply) => {
                    write_line(&mut writer, &*host, &format_response(&reply))?;
                    continue;
                }
            }
        }
        // The host decides whether to accept; the socket upgrades only on
        // its `ok`.
        let upgrade = verb == "hello"
            && matches!(parse_request(line), Ok(Request::Hello { proto: PROTO_V2 }));
        let (reply, rid) = host.handle_line(line);
        let w0 = Instant::now();
        write_line(&mut writer, &*host, &reply)?;
        host.on_write(PROTO_VERSION, &rid, w0.elapsed());
        if upgrade && reply.starts_with("ok") {
            return run_mux(reader, writer, host);
        }
    }
}

/// Writes one reply line (appending the newline) and counts its bytes as
/// proto 1 traffic.
fn write_line<H: MuxHost>(writer: &mut TcpStream, host: &H, reply: &str) -> io::Result<()> {
    writer.write_all(reply.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    host.on_wire(PROTO_VERSION, 0, reply.len() as u64 + 1);
    Ok(())
}

/// The sampling interval a `subscribe` line asks for (200 ms when
/// absent), clamped to 10 ms ..= 10 s. A malformed line is answered with
/// the `bad-request` reply instead.
pub(crate) fn subscribe_interval(line: &str) -> Result<Duration, Response> {
    let bad = |msg: String| Response::error("bad-request", msg);
    let (_, fields) = tokenize(line).map_err(|e| bad(e.to_string()))?;
    let ms = match fields.iter().find(|(k, _)| k == "interval_ms") {
        None => 200,
        Some((_, v)) => v
            .parse::<u64>()
            .map_err(|_| bad("interval_ms must be a non-negative int".to_string()))?,
    };
    Ok(Duration::from_millis(ms.clamp(10, 10_000)))
}

/// The `ok interval_ms=…` acknowledgement that opens a subscription.
pub(crate) fn subscribe_ack(interval: Duration) -> String {
    format_response(&Response::ok([(
        "interval_ms",
        interval.as_millis().to_string(),
    )]))
}

/// Samples one subscription until host shutdown or subscriber loss:
/// every `interval`, renders [`MuxHost::push_line`] and offers it to
/// `offer`, which never blocks. A full buffer drops the line (billed to
/// this subscriber through [`MuxHost::on_push_drop`]); a disconnected
/// one ends the stream. Each line is one
/// `push seq=<n> data=<hex exposition> journal=<hex journal delta>`,
/// whose journal part carries only events recorded since the previous
/// line, so a subscriber detects its own losses from `seq` gaps.
pub(crate) fn sample_pushes<H: MuxHost, T>(
    host: &H,
    interval: Duration,
    mut offer: impl FnMut(String) -> Result<(), mpsc::TrySendError<T>>,
) {
    let sub = host.next_subscriber();
    let mut cursor = host.journal_total();
    let mut seq = 0u64;
    loop {
        if host.is_shutdown() {
            return;
        }
        std::thread::sleep(interval);
        let Some(line) = host.push_line(seq, &mut cursor) else {
            return;
        };
        seq += 1;
        match offer(line) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(_)) => host.on_push_drop(sub),
            Err(mpsc::TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Streams a proto 1 subscription on the connection thread: the
/// acknowledgement, then one push line per sample. The sampler runs on
/// its own thread behind a bounded channel, so a stalled consumer can
/// stall nothing but its own feed; a write error (client gone) drops the
/// channel's receiver, which ends the sampler at its next offer.
fn stream_lines<H: MuxHost>(
    writer: &mut TcpStream,
    host: &H,
    interval: Duration,
) -> io::Result<()> {
    write_line(writer, host, &subscribe_ack(interval))?;
    let (tx, rx) = mpsc::sync_channel::<String>(SUBSCRIBE_BUFFER);
    std::thread::scope(|scope| {
        scope.spawn(move || sample_pushes(host, interval, |line| tx.try_send(line)));
        for line in rx {
            if write_line(writer, host, &line).is_err() {
                break;
            }
        }
    });
    Ok(())
}
