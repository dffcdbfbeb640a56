//! Protocol negotiation at the edges of what one build speaks
//! (`DESIGN.md` §13).
//!
//! Every tier accepts exactly protos 1 and 2 at `hello`. Anything else
//! **fails fast at `hello`** with a `proto-mismatch` the peer can read —
//! never a hang, a garbled stream, or a silent downgrade. The router's
//! relay speaks proto 2 only, so a shard that refuses `hello proto=2`
//! (a mixed-version cluster) is refused at attach and never joins the
//! ring; a peer that hangs up mid-hello fails the attach the same way.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snn_cluster::{Cluster, ClusterConfig, ClusterError};
use snn_serve::protocol::format_response;
use snn_serve::{Response, ServeClient, ServerConfig, SnnServer};

#[test]
fn unknown_future_protos_are_refused_by_default_servers() {
    let server = SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("server");
    let err = ServeClient::connect_with_proto(server.local_addr(), 7)
        .expect_err("future protocols must be refused, not guessed at");
    assert_eq!(err.server_code(), Some("proto-mismatch"), "got {err}");
}

/// A one-connection fake shard: reads the router's `hello` line, then
/// answers it with `reply` — or, given `None`, hangs up without a word.
fn fake_shard(reply: Option<Response>) -> (SocketAddr, JoinHandle<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("fake shard addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the router connects");
        let mut hello = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut hello)
            .expect("read hello");
        if let Some(reply) = reply {
            let line = format!("{}\n", format_response(&reply));
            stream.write_all(line.as_bytes()).expect("answer hello");
        }
        hello
    });
    (addr, peer)
}

#[test]
fn a_shard_refusing_proto2_is_refused_at_attach() {
    let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).expect("cluster");

    let (addr, peer) = fake_shard(Some(Response::error(
        "proto-mismatch",
        "this shard speaks proto 1..1, client sent 2",
    )));
    let err = cluster
        .attach_shard(addr)
        .expect_err("a proto-1-only shard must be refused");
    assert!(
        matches!(err, ClusterError::ProtoMismatch { .. }),
        "got {err}"
    );
    assert_eq!(peer.join().expect("fake shard"), "hello proto=2\n");
    assert!(
        cluster.shard_ids().is_empty(),
        "a refused shard never joins the ring"
    );

    // A peer that hangs up mid-hello fails the attach promptly — well
    // inside the data-plane io timeout, so the router never hangs on it.
    let (addr, peer) = fake_shard(None);
    let t0 = Instant::now();
    cluster
        .attach_shard(addr)
        .expect_err("a peer that hangs up mid-hello must be refused");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "attach took {:?}",
        t0.elapsed()
    );
    peer.join().expect("fake shard");
    assert!(cluster.shard_ids().is_empty());
    cluster.shutdown();
}
