//! `LinkCore` on synthetic instants: every limit path of the socket link
//! without a socket or a clock.

use super::*;
use flux_value::Value;
use flux_wire::{MsgId, MsgType, Topic};
use proptest::prelude::*;

const NS: Duration = Duration::from_nanos(1);
const MS: Duration = Duration::from_millis(1);

fn core(rank: u32, size: u32) -> LinkCore {
    LinkCore::new(Rank(rank), size, 100, Rng::seeded(7))
}

fn msg(seq: u64, payload: Value) -> Message {
    let id = MsgId { origin: Rank(0), seq };
    Message::request(Topic::from_static("test.ping"), id, Rank(0), payload)
}

fn frame(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    assert!(frame::write_frame_into(&mut out, msg, frame::MAX_FRAME, &mut Vec::new()).is_ok());
    out
}

/// Accepts a connection at `t0` and feeds it `hello` plus `rest`.
fn accept_with(
    link: &mut LinkCore,
    t0: Instant,
    hello: u32,
    rest: &[u8],
) -> (ConnId, bool, Vec<Event>) {
    let id = link.accepted(t0);
    let mut bytes = hello.to_le_bytes().to_vec();
    bytes.extend_from_slice(rest);
    let mut batch = Vec::new();
    let alive = link.received(id, &bytes, &mut batch);
    (id, alive, batch)
}

/// How many whole frames `queue` holds, or `None` if it ends inside one.
fn whole_frames(mut queue: &[u8]) -> Option<usize> {
    let mut frames = 0;
    while !queue.is_empty() {
        let len = u32::from_le_bytes(queue.get(..4)?.try_into().ok()?) as usize;
        queue = queue.get(4 + len..)?;
        frames += 1;
    }
    Some(frames)
}

/// How long after `now` rank 1 may next be dialed (zero if at once).
fn next_wait(link: &LinkCore, now: Instant) -> Duration {
    link.dials[1].retry.next_at.map_or(Duration::ZERO, |at| at.duration_since(now))
}

// Handshake.

#[test]
fn a_rank_below_the_session_size_opens_a_broker_link() {
    let t0 = Instant::now();
    let mut link = core(0, 4);
    let (id, alive, batch) = accept_with(&mut link, t0, 3, &frame(&msg(1, Value::Null)));
    assert!(alive);
    assert!(matches!(
        batch.as_slice(),
        [Event::FromBroker { from: Rank(3), msg }] if msg.header.id.seq == 1
    ));
    // A broker link is answered nothing: replies ride this broker's own
    // dialed link.
    assert!(link.outgoing(id).is_empty());
}

#[test]
fn client_hello_is_minted_a_fresh_id_echoed_before_any_frame() {
    let t0 = Instant::now();
    let mut link = core(0, 4);
    let (a, alive_a, _) = accept_with(&mut link, t0, CLIENT_HELLO, &[]);
    let (b, alive_b, batch) =
        accept_with(&mut link, t0, CLIENT_HELLO, &frame(&msg(9, Value::Null)));
    assert!(alive_a && alive_b);
    assert!(matches!(batch.as_slice(), [Event::FromClient { client: 101, .. }]));
    // Each client is minted its own id, numbered from the first socket id.
    assert_eq!(link.outgoing(a), 100u32.to_le_bytes());
    let reply = msg(2, Value::from("pong"));
    link.deliver_client(101, &reply);
    let mut expected = 101u32.to_le_bytes().to_vec();
    expected.extend_from_slice(&frame(&reply));
    assert_eq!(link.outgoing(b), expected, "the id goes out ahead of the first frame");
    // A forgotten client is unmapped: a late reply has nowhere to go.
    link.forget(b);
    link.deliver_client(101, &reply);
    assert!(link.outgoing(b).is_empty());
}

#[test]
fn a_handshake_torn_one_byte_at_a_time_completes() {
    let t0 = Instant::now();
    let mut link = core(0, 4);
    let id = link.accepted(t0);
    let mut bytes = 2u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&frame(&msg(5, Value::Null)));
    let mut batch = Vec::new();
    for b in &bytes {
        assert!(link.received(id, std::slice::from_ref(b), &mut batch));
    }
    assert!(matches!(batch.as_slice(), [Event::FromBroker { from: Rank(2), .. }]));
}

#[test]
fn any_other_handshake_is_closed() {
    let t0 = Instant::now();
    for hello in [4, 9999, CLIENT_HELLO - 1] {
        let mut link = core(0, 4);
        let (id, alive, batch) = accept_with(&mut link, t0, hello, &frame(&msg(1, Value::Null)));
        assert!(!alive, "hello {hello} closes the connection");
        assert!(batch.is_empty());
        assert_eq!(link.free, [id], "hello {hello}: the connection is forgotten");
    }
}

#[test]
fn a_handshake_incomplete_at_its_deadline_is_closed() {
    let t0 = Instant::now();
    let mut link = core(0, 4);
    let id = link.accepted(t0);
    assert!(link.received(id, &[0, 0], &mut Vec::new()));
    assert!(link.on_time(id, t0 + HANDSHAKE_TIMEOUT - NS), "just inside the deadline");
    assert!(!link.on_time(id, t0 + HANDSHAKE_TIMEOUT), "at the deadline");
    assert_eq!(link.free, [id]);
    // An identified connection has no deadline.
    let (id, _, _) = accept_with(&mut link, t0, 1, &[]);
    assert!(link.on_time(id, t0 + HANDSHAKE_TIMEOUT * 100));
}

#[test]
fn bytes_on_a_dialed_link_close_it() {
    let mut link = core(0, 2);
    let id = link.connected(Rank(1));
    assert!(!link.received(id, &[0], &mut Vec::new()));
    assert!(link.dial_due(Rank(1), Instant::now()), "the next send re-dials");
}

// The out-queue cap.

/// Pushes 1 MiB frames through `push` until the queue of `id` is past
/// [`MAX_OUTBUF`], then checks one more frame is dropped whole while the
/// connection stays and the queue stays frame-aligned.
fn fill_past_the_cap(
    link: &mut LinkCore,
    id: ConnId,
    prefix: usize,
    push: impl Fn(&mut LinkCore, &Message) -> bool,
) {
    let big = msg(1, Value::from("x".repeat(1 << 20)));
    while link.outgoing(id).len() - prefix <= MAX_OUTBUF {
        assert!(push(link, &big), "queued below the cap");
    }
    let full = link.outgoing(id).len();
    assert!(!push(link, &msg(2, Value::Null)), "dropped past the cap");
    assert_eq!(link.outgoing(id).len(), full, "dropped whole");
    let frames = whole_frames(&link.outgoing(id)[prefix..]);
    assert!(frames >= Some(MAX_OUTBUF >> 20), "a full, frame-aligned queue: {frames:?}");
    // The connection stays: once the peer catches up, frames queue again.
    link.wrote(id, full - 1);
    assert!(push(link, &msg(3, Value::Null)));
}

#[test]
fn past_the_cap_a_broker_frame_is_dropped_and_the_link_stays() {
    let mut link = core(0, 2);
    let id = link.connected(Rank(1));
    fill_past_the_cap(&mut link, id, 4, |link, m| link.send_to(Rank(1), m) == Some(id));
    assert_eq!(link.dials[1].conn, Some(id));
}

#[test]
fn past_the_cap_a_client_reply_is_dropped_and_the_client_stays() {
    let mut link = core(0, 2);
    let (id, _, _) = accept_with(&mut link, Instant::now(), CLIENT_HELLO, &[]);
    fill_past_the_cap(&mut link, id, 4, |link, m| {
        let before = link.outgoing(id).len();
        link.deliver_client(100, m);
        link.outgoing(id).len() > before
    });
    assert_eq!(link.clients.get(&100), Some(&id));
}

// Refused connects and the retry schedule.

#[test]
fn fresh_schedule_is_due_immediately() {
    let s = RetrySchedule::default();
    assert!(s.due(Instant::now()));
}

#[test]
fn failure_schedules_a_jittered_backoff() {
    let mut jitter = Rng::seeded(7);
    let mut s = RetrySchedule::default();
    let now = Instant::now();
    s.failed(now, &mut jitter);
    // The wait is uniform in [backoff/2, backoff].
    assert!(!s.due(now), "not due at the instant of failure");
    assert!(!s.due(now + INITIAL_BACKOFF / 2 - NS));
    assert!(s.due(now + INITIAL_BACKOFF), "due once the full backoff has passed");
}

#[test]
fn a_refused_connect_drops_the_frame_and_waits_for_the_schedule() {
    let t0 = Instant::now();
    let mut link = core(0, 2);
    assert!(link.dial_due(Rank(1), t0), "a fresh peer is dialed at once");
    link.connect_failed(Rank(1), t0);
    assert_eq!(link.send_to(Rank(1), &msg(1, Value::Null)), None, "the frame is dropped");
    assert!(link.conns.is_empty(), "nothing is queued anywhere");
    let wait = next_wait(&link, t0);
    assert!(!link.dial_due(Rank(1), t0 + wait - NS), "no re-dial before the schedule is due");
    assert!(link.dial_due(Rank(1), t0 + wait));
}

/// Fails five connects to rank 1, each as soon as it is due, checking
/// each wait; returns when the sixth may be tried.
fn fail_five(link: &mut LinkCore, mut now: Instant) -> Instant {
    for (lo, hi) in [(10, 20), (20, 40), (40, 80), (80, 160), (160, 320)] {
        link.connect_failed(Rank(1), now);
        let wait = next_wait(link, now);
        assert!(MS * lo <= wait && wait <= MS * hi, "wait {wait:?} outside {lo}–{hi} ms");
        now += wait;
    }
    now
}

#[test]
fn backoff_doubles_up_to_the_ceiling() {
    let mut link = core(0, 2);
    fail_five(&mut link, Instant::now());
}

#[test]
fn attempt_budget_spends_the_burst_and_cools_down() {
    let mut link = core(0, 2);
    let mut now = fail_five(&mut link, Instant::now());
    // The sixth failure spends the burst: a one-second cool-down.
    link.connect_failed(Rank(1), now);
    assert_eq!(next_wait(&link, now), MAX_BACKOFF);
    assert!(!link.dial_due(Rank(1), now + MAX_BACKOFF - NS));
    now += MAX_BACKOFF;
    assert!(link.dial_due(Rank(1), now));
    // The next burst starts over.
    link.connect_failed(Rank(1), now);
    let wait = next_wait(&link, now);
    assert!(MS * 10 <= wait && wait <= MS * 20, "{wait:?}");
}

#[test]
fn deadline_budget_spends_the_burst_even_with_attempts_left() {
    let t0 = Instant::now();
    let mut link = core(0, 2);
    link.connect_failed(Rank(1), t0);
    link.connect_failed(Rank(1), t0 + BURST_DEADLINE);
    assert_eq!(next_wait(&link, t0 + BURST_DEADLINE), MAX_BACKOFF);
}

#[test]
fn success_resets_the_schedule() {
    let t0 = Instant::now();
    let mut link = core(0, 2);
    link.connect_failed(Rank(1), t0);
    link.connect_failed(Rank(1), t0 + MS * 20);
    let id = link.connected(Rank(1));
    assert!(!link.dial_due(Rank(1), t0), "a link that is up is not dialed");
    // A write error later: the driver resets the connection.
    link.forget(id);
    assert!(link.dial_due(Rank(1), t0), "re-dialed at once");
    link.connect_failed(Rank(1), t0);
    let wait = next_wait(&link, t0);
    assert!(MS * 10 <= wait && wait <= MS * 20, "a fresh burst: {wait:?}");
}

// Write errors.

#[test]
fn a_write_error_forgets_the_link_and_its_queue_and_the_next_send_re_dials() {
    let t0 = Instant::now();
    let mut link = core(0, 2);
    let id = link.connected(Rank(1));
    assert_eq!(link.send_to(Rank(1), &msg(1, Value::Null)), Some(id));
    link.wrote(id, 2);
    link.forget(id);
    assert!(link.outgoing(id).is_empty(), "the queue is dropped");
    assert_eq!(link.send_to(Rank(1), &msg(2, Value::Null)), None, "no link: dropped");
    assert!(link.dial_due(Rank(1), t0));
    let again = link.connected(Rank(1));
    assert_eq!(link.outgoing(again), 0u32.to_le_bytes(), "a fresh link starts at its handshake");
}

// Per-link FIFO on every plane.

/// One message of `kind` (0 event, 1 tree, 2 ring), distinct by `seq`.
fn plane_msg(kind: u8, seq: u64, pad: usize) -> Message {
    let id = MsgId { origin: Rank(0), seq };
    let topic = Topic::from_static("test.fifo");
    let payload = Value::from("p".repeat(pad));
    match kind {
        0 => Message::event(topic, id, Rank(0), payload),
        1 => Message::request(topic, id, Rank(0), payload),
        _ => Message::request_to(topic, id, Rank(0), Rank(1), payload),
    }
}

proptest! {
    /// Whatever mix of event, tree and ring messages one broker sends a
    /// peer, and however the bytes tear on the way, the peer decodes the
    /// same messages in send order.
    #[test]
    fn every_plane_is_fifo_per_link(
        sends in prop::collection::vec((0u8..3, 0usize..300), 1..40),
        tears in prop::collection::vec(1usize..80, 1..16),
    ) {
        let t0 = Instant::now();
        let (mut tx, mut rx) = (core(0, 2), core(1, 2));
        prop_assert!(tx.dial_due(Rank(1), t0));
        let out = tx.connected(Rank(1));
        let sent: Vec<Message> =
            sends.iter().enumerate().map(|(i, &(kind, pad))| plane_msg(kind, i as u64, pad)).collect();
        for m in &sent {
            prop_assert_eq!(tx.send_to(Rank(1), m), Some(out));
        }
        // Each kind has one plane's shape: an event, a request up the
        // tree, a rank-addressed (ring) request.
        for (m, &(kind, _)) in sent.iter().zip(&sends) {
            prop_assert_eq!(m.header.msg_type == MsgType::Event, kind == 0);
            prop_assert_eq!(m.header.dst.is_some(), kind == 2);
        }
        let inbound = rx.accepted(t0);
        let mut batch = Vec::new();
        for tear in tears.iter().cycle() {
            let bytes = tx.outgoing(out);
            if bytes.is_empty() {
                break;
            }
            let n = (*tear).min(bytes.len());
            prop_assert!(rx.received(inbound, &bytes[..n], &mut batch));
            tx.wrote(out, n);
        }
        prop_assert_eq!(batch.len(), sent.len());
        for (ev, m) in batch.into_iter().zip(&sent) {
            match ev {
                Event::FromBroker { from, msg } => {
                    prop_assert_eq!(from, Rank(0));
                    prop_assert_eq!(&msg, m);
                }
                _ => prop_assert!(false, "not a broker frame"),
            }
        }
    }
}
