//! A raw proto-2 connection: the `hello` handshake, then tagged binary
//! frames built directly from request heads and payload bytes.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use snn_data::Image;
use snn_serve::frame::{verb_code, Frame, FLAG_DATA, HEADER_BYTES};
use snn_serve::protocol::{encode_images, parse_response, Response};
use snn_serve::{SessionSpec, PROTO_V2};

/// Both halves of one proto-2 connection.
pub struct Conn {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
    next_tag: u32,
}

impl Conn {
    /// Connects and upgrades to proto 2.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A stalled peer fails the run instead of hanging it.
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        writer.write_all(format!("hello proto={PROTO_V2}\n").as_bytes())?;
        let mut reader = BufReader::new(writer.try_clone()?);
        // The banner is the only line on the socket: nothing follows it
        // until the first frame, so the buffered reader loses nothing.
        let mut banner = String::new();
        reader.read_line(&mut banner)?;
        if !banner.starts_with("ok") || !banner.contains(&format!("proto={PROTO_V2}")) {
            return Err(io::Error::other(format!("handshake refused: {banner:?}")));
        }
        Ok(Conn {
            writer,
            reader,
            next_tag: 1,
        })
    }

    /// A fresh request tag.
    pub fn tag(&mut self) -> u32 {
        let t = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        t
    }

    /// Sends one frame and waits for its reply (no other request may be in
    /// flight on the connection).
    pub fn call(&mut self, mut frame: Frame) -> io::Result<Reply> {
        frame.tag = self.tag();
        self.writer.write_all(&frame.encode())?;
        let reply = read_frame(&mut self.reader)?;
        if reply.tag != frame.tag {
            return Err(io::Error::other("reply for another tag"));
        }
        Ok(Reply::from_frame(reply))
    }

    /// Like [`Conn::call`], but an `err` reply is an error.
    pub fn call_ok(&mut self, frame: Frame) -> io::Result<Reply> {
        let head = frame.head.clone();
        let reply = self.call(frame)?;
        match &reply.response {
            Response::Ok(_) => Ok(reply),
            Response::Err { code, msg } => Err(io::Error::other(format!(
                "{} refused: {code} {msg}",
                head.split(' ').next().unwrap_or("")
            ))),
        }
    }
}

/// Reads one frame; end of stream is an error.
pub fn read_frame(reader: &mut BufReader<TcpStream>) -> io::Result<Frame> {
    match Frame::read_from(reader) {
        Ok(Some(f)) => Ok(f),
        Ok(None) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
        Err(e) => Err(io::Error::other(e.to_string())),
    }
}

/// Bytes of the checksum that closes every frame.
const CHECKSUM_BYTES: usize = 4;

/// A decoded reply frame.
#[derive(Debug, Clone)]
pub struct Reply {
    pub tag: u32,
    pub response: Response,
    /// Raw `data=` bytes (checkpoint blobs, scrapes).
    pub payload: Vec<u8>,
    /// Frame bytes on the wire: header, head, payload and checksum.
    pub wire_bytes: usize,
}

impl Reply {
    pub fn from_frame(frame: Frame) -> Reply {
        let wire_bytes = HEADER_BYTES + frame.head.len() + frame.payload.len() + CHECKSUM_BYTES;
        let response = parse_response(&frame.head).unwrap_or_else(|e| Response::Err {
            code: "unparseable-reply".to_string(),
            msg: e.to_string(),
        });
        Reply {
            tag: frame.tag,
            response,
            payload: frame.payload,
            wire_bytes,
        }
    }

    pub fn field(&self, key: &str) -> Option<&str> {
        self.response.get(key)
    }

    pub fn error_code(&self) -> Option<&str> {
        match &self.response {
            Response::Err { code, .. } => Some(code),
            Response::Ok(_) => None,
        }
    }
}

fn frame(verb: &str, head: String, payload: Option<Vec<u8>>) -> Frame {
    Frame {
        flags: if payload.is_some() { FLAG_DATA } else { 0 },
        verb: verb_code(verb),
        tag: 0,
        head,
        payload: payload.unwrap_or_default(),
    }
}

/// `open` for a session spec.
pub fn open(id: &str, spec: &SessionSpec) -> Frame {
    let line = snn_serve::protocol::format_request(&snn_serve::Request::Open {
        id: id.to_string(),
        spec: spec.clone(),
    });
    frame("open", line, None)
}

/// `ingest` with the batch as the raw payload; `rid` rides as the last
/// field when given.
pub fn ingest(id: &str, images: &[Image], rid: Option<&str>) -> Frame {
    let head = match rid {
        Some(rid) => format!("ingest id={id} data= rid={rid}"),
        None => format!("ingest id={id} data="),
    };
    frame("ingest", head, Some(encode_images(images)))
}

pub fn checkpoint(id: &str) -> Frame {
    frame("checkpoint", format!("checkpoint id={id}"), None)
}

pub fn restore(id: &str, blob: Vec<u8>) -> Frame {
    frame("restore", format!("restore id={id} data="), Some(blob))
}

pub fn close(id: &str) -> Frame {
    frame("close", format!("close id={id}"), None)
}

pub fn energy(id: &str) -> Frame {
    frame("energy", format!("energy id={id}"), None)
}

/// A verb with no fields (`metrics`, `cluster-metrics`, `stats`).
pub fn bare(verb: &str) -> Frame {
    frame(verb, verb.to_string(), None)
}

/// `cluster-trace` for one request id.
pub fn cluster_trace(rid: &str) -> Frame {
    frame("cluster-trace", format!("cluster-trace rid={rid}"), None)
}

/// Scrapes a metrics exposition (`metrics` or `cluster-metrics`).
pub fn scrape(conn: &mut Conn, verb: &str) -> io::Result<snn_obs::Snapshot> {
    let reply = conn.call_ok(bare(verb))?;
    let text = String::from_utf8(reply.payload).map_err(|_| io::Error::other("scrape utf-8"))?;
    snn_obs::Snapshot::parse(&text).map_err(|e| io::Error::other(format!("scrape: {e}")))
}
