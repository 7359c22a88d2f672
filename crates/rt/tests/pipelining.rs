//! Pipelining and partial-frame torture tests for the reactor runtime.
//!
//! Socket clients speak length-prefixed frames over one `TcpStream` and
//! may pipeline arbitrarily many requests before reading a reply. The
//! reactor must reassemble frames fed one byte at a time, keep MsgId
//! matching correct with a full window in flight, and survive a broker
//! blackout mid-pipeline.
//!
//! The interleaving fuzzer is seeded (SplitMix64) and reads its seeds
//! like the chaos sweeps: reproduce a failing seed with
//! `FLUX_CHAOS_SEED=<seed>`; widen the sweep with
//! `FLUX_CHAOS_SEEDS=<count>` (default 8).

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a test of the I/O tier drives threads and sockets"
)]

use flux_broker::client::{ClientCore, Delivery};
use flux_broker::BrokerConfig;
use flux_sim::rng::Rng;
use flux_modules::standard_modules;
use flux_rt::tcp::{connect_socket_client, TcpSession};
use flux_rt::FaultPlan;
use flux_value::Value;
use flux_wire::frame::{self, FrameDecoder, MAX_FRAME};
use flux_wire::{Message, Rank, Topic};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

/// A raw socket client: one stream, one `ClientCore` for MsgId
/// namespacing, one `FrameDecoder` for reply reassembly.
struct SocketClient {
    stream: TcpStream,
    core: ClientCore,
    id: u32,
    dec: FrameDecoder,
    scratch: Vec<u8>,
}

impl SocketClient {
    fn connect(addr: std::net::SocketAddr, rank: Rank) -> SocketClient {
        let (stream, id) = connect_socket_client(addr, TIMEOUT).expect("socket client handshake");
        SocketClient {
            stream,
            core: ClientCore::new(rank, id),
            id,
            dec: FrameDecoder::new(),
            scratch: Vec::new(),
        }
    }

    fn send(&mut self, msg: &Message) {
        frame::write_frame_into(&mut self.stream, msg, MAX_FRAME, &mut self.scratch)
            .expect("write frame");
    }

    /// Blocks (with the stream's read timeout) until the next frame.
    fn recv(&mut self, deadline: Instant) -> Message {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(msg) = self.dec.next_message(MAX_FRAME).expect("well-framed reply") {
                return msg;
            }
            assert!(Instant::now() < deadline, "timed out waiting for a reply frame");
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("broker closed the stream mid-conversation"),
                Ok(n) => self.dec.feed(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    /// Collects replies until every tag in `want` has been answered
    /// exactly once; returns tag → payload.
    fn collect(&mut self, want: &[u64]) -> HashMap<u64, Value> {
        let deadline = Instant::now() + TIMEOUT;
        let mut got = HashMap::new();
        while got.len() < want.len() {
            let msg = self.recv(deadline);
            match self.core.deliver(msg) {
                Delivery::Response { tag, msg } => {
                    assert!(!msg.is_error(), "tag {tag} errored: {:?}", msg.payload);
                    assert!(want.contains(&tag), "unexpected tag {tag}");
                    assert!(
                        got.insert(tag, msg.payload.into_value()).is_none(),
                        "tag {tag} answered twice"
                    );
                }
                Delivery::Event(_) | Delivery::Unmatched(_) => continue,
            }
        }
        got
    }
}

fn ping(core: &mut ClientCore, tag: u64) -> Message {
    core.request(Topic::from_static("cmb.ping"), Value::object(), tag)
}

/// The slowest possible peer: the handshake and every frame arrive one
/// byte per write. The reactor's decoder must reassemble them and the
/// replies must still match.
#[test]
fn byte_at_a_time_slow_client_completes_rpcs() {
    let builder = TcpSession::builder(2, 2, |_| standard_modules());
    let session = builder.start();
    let addr = session.addrs()[0];

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
    // Drip the CLIENT_HELLO sentinel one byte at a time.
    for b in flux_rt::tcp::CLIENT_HELLO.to_le_bytes() {
        stream.write_all(&[b]).expect("hello byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut raw = [0u8; 4];
    let deadline = Instant::now() + TIMEOUT;
    let mut got = 0;
    while got < 4 {
        assert!(Instant::now() < deadline, "no id reply");
        match stream.read(&mut raw[got..]) {
            Ok(0) => panic!("broker closed during handshake"),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => panic!("handshake read failed: {e}"),
        }
    }
    let id = u32::from_le_bytes(raw);
    let mut core = ClientCore::new(Rank(0), id);

    // Three pipelined pings, every frame dripped byte by byte.
    let mut wire = Vec::new();
    let mut scratch = Vec::new();
    for tag in 0..3u64 {
        frame::write_frame_into(&mut wire, &ping(&mut core, tag), MAX_FRAME, &mut scratch)
            .expect("encode");
    }
    for b in wire {
        stream.write_all(&[b]).expect("frame byte");
        stream.flush().expect("flush");
    }

    let mut client =
        SocketClient { stream, core, id, dec: FrameDecoder::new(), scratch: Vec::new() };
    let got = client.collect(&[0, 1, 2]);
    for tag in 0..3u64 {
        assert_eq!(got[&tag].get("pong").and_then(Value::as_uint), Some(0), "tag {tag}");
    }
    session.shutdown();
}

/// Seeded interleaving fuzzer: a full pipelined window of mixed RPCs is
/// encoded into one byte stream, then written in random-length slices so
/// frame boundaries land everywhere. Every reply must match its tag, on
/// every seed in the sweep.
#[test]
fn pipelined_interleaving_fuzzer() {
    let seeds = flux_rt::chaos::seeds(8);
    let builder = TcpSession::builder(4, 2, |_| standard_modules());
    let session = builder.start();

    for &seed in &seeds {
        let mut rng = Rng::seeded(seed);
        // Vary the attachment broker and window size by seed.
        let rank = Rank(rng.gen_range(0..4u32));
        let window = rng.gen_range(16..=64u64);
        let mut client = SocketClient::connect(session.addrs()[rank.index()], rank);

        // Encode the whole window into one buffer: puts, local pings,
        // and rank-addressed pings interleaved.
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        let mut want = Vec::new();
        for tag in 0..window {
            let msg = match tag % 3 {
                0 => client.core.request(
                    Topic::from_static("kvs.put"),
                    Value::from_pairs([
                        ("k", Value::from(format!("pipe.{seed}.{tag}"))),
                        ("v", Value::Int(tag as i64)),
                    ]),
                    tag,
                ),
                1 => client.core.request_to(
                    Rank(rng.gen_range(0..4u32)),
                    Topic::from_static("cmb.ping"),
                    Value::object(),
                    tag,
                ),
                _ => client.core.request(
                    Topic::from_static("cmb.ping"),
                    Value::object(),
                    tag,
                ),
            };
            frame::write_frame_into(&mut wire, &msg, MAX_FRAME, &mut scratch).expect("encode");
            want.push(tag);
        }

        // Feed the stream in random slices (1..=17 bytes) so length
        // prefixes and bodies tear at arbitrary offsets.
        let mut off = 0;
        while off < wire.len() {
            let n = (rng.gen_range(1..=17usize)).min(wire.len() - off);
            client.stream.write_all(&wire[off..off + n]).expect("slice write");
            client.stream.flush().expect("flush");
            off += n;
        }

        let got = client.collect(&want);
        assert_eq!(got.len(), want.len(), "seed {seed}: every tag answered exactly once");
        for (&tag, payload) in &got {
            if tag % 3 == 2 {
                assert_eq!(
                    payload.get("pong").and_then(Value::as_uint),
                    Some(u64::from(rank.0)),
                    "seed {seed}: local ping tag {tag} answered by the wrong broker"
                );
            }
        }
    }
    session.shutdown();
}

/// Two socket clients pipelining on the same broker concurrently: ids
/// must not collide and each stream must only carry its own replies.
#[test]
fn concurrent_socket_clients_get_distinct_ids_and_streams() {
    let builder = TcpSession::builder(2, 2, |_| standard_modules());
    let session = builder.start();
    let addr = session.addrs()[1];

    let mut a = SocketClient::connect(addr, Rank(1));
    let mut b = SocketClient::connect(addr, Rank(1));
    assert_ne!(a.id, b.id, "socket client ids collide");

    let window = 16u64;
    for tag in 0..window {
        let msg = ping(&mut a.core, tag);
        a.send(&msg);
        let msg = ping(&mut b.core, tag);
        b.send(&msg);
    }
    let want: Vec<u64> = (0..window).collect();
    let got_a = a.collect(&want);
    let got_b = b.collect(&want);
    assert_eq!(got_a.len() as u64, window);
    assert_eq!(got_b.len() as u64, window);
    session.shutdown();
}

/// Kill-mid-pipeline regression: a socket client on rank 3 keeps its
/// pipelined stream open while rank 1 — its tree parent — blacks out.
/// The stream must survive (no tearing, ids intact) and a pipelined
/// put/commit/get window sent mid-blackout must re-route through the
/// healed overlay and complete.
#[test]
fn kill_mid_pipeline_reroutes_and_completes() {
    const HB: u64 = 40_000_000;
    let plan = FaultPlan::new(0xF2).kill_epochs(Rank(1), 8..24, HB);
    let mut builder = TcpSession::builder(7, 2, |_| standard_modules());
    for r in 0..7 {
        let mut cfg = BrokerConfig::new(Rank(r), 7).with_arity(2);
        cfg.hb_period_ns = HB;
        builder.set_config(Rank(r), cfg);
    }
    builder.set_faults(&plan);
    let session = builder.start();
    let t0 = Instant::now();

    let mut client = SocketClient::connect(session.addrs()[3], Rank(3));

    // Phase 1 — before the blackout (t < 320ms): a pipelined window of
    // local pings and staged puts completes normally.
    for tag in 0..8u64 {
        let msg = if tag % 2 == 0 {
            ping(&mut client.core, tag)
        } else {
            client.core.request(
                Topic::from_static("kvs.put"),
                Value::from_pairs([
                    ("k", Value::from(format!("kmp.{tag}"))),
                    ("v", Value::Int(tag as i64)),
                ]),
                tag,
            )
        };
        client.send(&msg);
    }
    let want: Vec<u64> = (0..8).collect();
    client.collect(&want);

    // Phase 2 — mid-blackout, after detection (~550ms: kill at 320ms +
    // 3 missed 40ms heartbeats + slack): the orphaned subtree has been
    // re-parented; a pipelined put+commit+get must route around rank 1.
    let elapsed = t0.elapsed();
    if elapsed < Duration::from_millis(550) {
        std::thread::sleep(Duration::from_millis(550) - elapsed);
    }
    let put = client.core.request(
        Topic::from_static("kvs.put"),
        Value::from_pairs([("k", Value::from("kmp.reroute")), ("v", Value::Int(77))]),
        100,
    );
    let commit = client.core.request(Topic::from_static("kvs.commit"), Value::object(), 101);
    client.send(&put);
    client.send(&commit);
    let got = client.collect(&[100, 101]);
    assert!(
        flux_kvs::msg::decode_cut(&got[&101]).roots.first().is_some_and(|r| r.version >= 1),
        "commit through the re-parented tree advanced the version"
    );

    let get = client.core.request(
        Topic::from_static("kvs.get"),
        Value::from_pairs([("k", Value::from("kmp.reroute"))]),
        102,
    );
    client.send(&get);
    let got = client.collect(&[102]);
    assert_eq!(
        got[&102].get("v"),
        Some(&Value::Int(77)),
        "read-your-writes across the re-routed path"
    );
    session.shutdown();
}
