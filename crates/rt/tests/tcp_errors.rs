//! TCP framing and handshake error paths: a hostile or broken peer must
//! never hang or crash a session.
//!
//! Frame-level decoding errors are asserted directly against
//! `flux_wire::frame`; then a real two-broker `TcpSession` is abused
//! with garbage handshakes, mid-frame disconnects, and an oversized
//! length prefix, and must keep serving clients throughout. A broker
//! thread that does crash is not lost: `shutdown` re-raises its panic.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a test of the I/O tier drives threads and sockets"
)]

use flux_broker::client::ClientCore;
use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_modules::standard_modules;
use flux_rt::tcp::TcpSession;
use flux_value::Value;
use flux_wire::frame::{read_frame_into, write_frame_into, MAX_FRAME};
use flux_wire::{Message, MsgId, Rank, Topic};
use std::io::{self, Cursor, Write};
use std::net::TcpStream;
use std::time::Duration;

/// `sample_msg()` as one length-prefixed frame.
fn sample_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame_into(&mut frame, &sample_msg(), MAX_FRAME, &mut Vec::new()).unwrap();
    frame
}

/// Reads one frame from `bytes`.
fn read(bytes: &[u8]) -> io::Result<Option<Message>> {
    read_frame_into(&mut Cursor::new(bytes), MAX_FRAME, &mut Vec::new())
}

fn sample_msg() -> Message {
    Message::request(
        Topic::new("kvs.put").unwrap(),
        MsgId { origin: Rank(1), seq: 7 },
        Rank(1),
        Value::from_pairs([("k", Value::from("a.b")), ("v", Value::from(7i64))]),
    )
}

/// A stream that ends inside a frame body decodes to `UnexpectedEof`,
/// not a hang or a partial message.
#[test]
fn mid_frame_disconnect_is_unexpected_eof() {
    let buf = sample_frame();
    for cut in [1, 3, buf.len() / 2, buf.len() - 1] {
        let err = read(&buf[..cut]).unwrap_err();
        assert_eq!(
            err.kind(),
            io::ErrorKind::UnexpectedEof,
            "cut at {cut}: {err:?}"
        );
    }
}

/// A length prefix above the cap is rejected as `InvalidData` before any
/// allocation, even if no body follows.
#[test]
fn oversized_length_prefix_is_rejected() {
    let len = (MAX_FRAME as u32) + 1;
    let mut buf = len.to_le_bytes().to_vec();
    buf.extend_from_slice(&[0u8; 16]);
    let err = read(&buf).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("exceeds cap"), "{err}");
}

/// A frame whose body is not a decodable message is `InvalidData`.
#[test]
fn garbage_body_is_invalid_data() {
    let mut buf = 8u32.to_le_bytes().to_vec();
    buf.extend_from_slice(b"notamsg!");
    let err = read(&buf).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

/// A live session shrugs off hostile connections: a handshake naming an
/// out-of-range rank, a connection that dies mid-handshake, a valid
/// handshake followed by a truncated frame, and a valid handshake
/// followed by an oversized length prefix. After all four, the session
/// still routes RPCs between brokers.
#[test]
fn session_survives_hostile_peers() {
    let mut builder = TcpSession::builder(2, 2, |_| standard_modules());
    let client = builder.attach_client(Rank(1));
    let session = builder.start();
    let addr = session.addrs()[0];
    let timeout = Duration::from_secs(10);

    // 1. Handshake claiming a rank outside the session.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&9999u32.to_le_bytes()).unwrap();
        let _ = s.write_all(&sample_frame());
    }
    // 2. Connection dying two bytes into the handshake.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[0u8, 0]).unwrap();
    }
    // 3. Valid handshake, then a frame truncated mid-body.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&1u32.to_le_bytes()).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[0u8; 10]).unwrap();
    }
    // 4. Valid handshake, then a length prefix far above the cap.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&1u32.to_le_bytes()).unwrap();
        s.write_all(&(64u32 * 1024 * 1024).to_le_bytes()).unwrap();
    }

    // The session still works: rank-addressed ping crosses the real
    // sockets from rank 1's client to rank 0 and back.
    let mut core = ClientCore::new(Rank(1), client.client_id);
    client.send(core.request_to(Rank(0), Topic::from_static("cmb.ping"), Value::object(), 1));
    let pong = client.recv_timeout(timeout).expect("pong after hostile peers");
    assert_eq!(pong.payload.get("pong"), Some(&Value::Int(0)));

    // And a KVS round trip still commits through the overlay.
    client.send(core.request(
        Topic::from_static("kvs.put"),
        Value::from_pairs([("k", Value::from("err.k")), ("v", Value::from("ok"))]),
        2,
    ));
    assert!(!client.recv_timeout(timeout).expect("put ack").is_error());
    client.send(core.request(Topic::from_static("kvs.commit"), Value::object(), 3));
    assert!(!client.recv_timeout(timeout).expect("commit ack").is_error());
    client.send(core.request(
        Topic::from_static("kvs.get"),
        Value::from_pairs([("k", Value::from("err.k"))]),
        4,
    ));
    let got = client.recv_timeout(timeout).expect("get reply");
    assert_eq!(got.payload.get("v"), Some(&Value::from("ok")));

    session.shutdown();
}

/// A module that panics on every request.
struct Boom;

impl CommsModule for Boom {
    fn name(&self) -> &'static str {
        "boom"
    }

    fn handle_request(&mut self, _ctx: &mut ModuleCtx<'_>, _msg: Message) -> Handled {
        panic!("boom: a module bug");
    }
}

/// A broker thread's panic does not vanish at teardown: `shutdown` joins
/// every thread, then re-raises it.
#[test]
fn a_broker_thread_panic_resurfaces_at_shutdown() {
    let mut builder = TcpSession::builder(1, 2, |_| vec![Box::new(Boom) as Box<dyn CommsModule>]);
    let client = builder.attach_client(Rank(0));
    let session = builder.start();
    let mut core = ClientCore::new(Rank(0), client.client_id);
    client.send(core.request(Topic::from_static("boom.now"), Value::object(), 1));
    // The broker thread dies handling it, so no reply ever comes.
    assert!(client.recv_timeout(Duration::from_secs(10)).is_none());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.shutdown()));
    let payload = outcome.expect_err("shutdown re-raises the broker thread's panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom: a module bug"));
}
