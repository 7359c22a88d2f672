//! The socket link's protocol state, without the sockets: [`LinkCore`]
//! holds every connection of one broker as plain data, and the driver in
//! [`crate::reactor`] maps it onto nonblocking sockets. It takes bytes
//! read, connect outcomes and `Instant`s, and returns decoded [`Event`]s,
//! bytes to write and connects to try; it never reads a clock, so every
//! limit path is unit-tested on synthetic instants (`link/tests.rs`).
//!
//! *Accepted* connections step through `Handshake → Broker | Client`:
//! four raw little-endian bytes name the peer — a rank below the session
//! size, or [`CLIENT_HELLO`] for a socket client, which is minted a
//! broker-local id echoed back (4 raw LE bytes) ahead of any frame.
//! Anything else is closed, as is a handshake still incomplete at
//! [`HANDSHAKE_TIMEOUT`]. Frames reassemble through [`FrameDecoder`],
//! torn at any byte. *Dialed* connections carry this broker's frames:
//! one per peer rank, opened on first send with the 4 handshake bytes
//! queued first, so every plane is FIFO per link. A refused connect
//! drops the frame and follows the peer's [`RetrySchedule`]; a failed
//! write forgets the connection and its queue, and the next send
//! re-dials. Past [`MAX_OUTBUF`] a new frame is dropped whole: the
//! connection stays and its queue stays frame-aligned (ROADMAP 5(b)
//! picks a louder outcome).

use crate::live::Event;
use crate::tcp::CLIENT_HELLO;
use flux_broker::ClientId;
use flux_sim::rng::Rng;
use flux_wire::frame::{self, FrameDecoder};
use flux_wire::{Message, Rank};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Names one connection; the driver keeps its stream in the same slot.
pub(crate) type ConnId = usize;

/// Deadline for an accepted connection to complete its 4-byte handshake
/// (guards against a connector that never identifies itself).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-connection out-queue cap, bytes. A peer this far behind gets new
/// frames dropped (frame-aligned) rather than buffered without bound.
const MAX_OUTBUF: usize = 64 * 1024 * 1024;

/// Connect attempts per burst before the burst is spent.
const MAX_ATTEMPTS: u32 = 6;

/// Backoff before the second connect attempt; doubles per attempt.
const INITIAL_BACKOFF: Duration = Duration::from_millis(20);

/// Ceiling on the per-attempt backoff, and the cool-down after a spent
/// burst.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Time budget of one burst of connect attempts.
const BURST_DEADLINE: Duration = Duration::from_secs(15);

/// Nonblocking connect-retry state for one peer: when the next attempt
/// is allowed, how the backoff grows, and when a burst's budget
/// ([`MAX_ATTEMPTS`] or [`BURST_DEADLINE`], whichever trips first) is
/// spent. It never sleeps: the link skips connects that are not
/// [`due`](RetrySchedule::due) yet. Waits are jittered uniform in
/// `[backoff/2, backoff]`, so a session's worth of brokers retrying the
/// same slow peer do not synchronize into connect storms.
#[derive(Default)]
struct RetrySchedule {
    attempts: u32,
    backoff: Duration,
    window_start: Option<Instant>,
    next_at: Option<Instant>,
}

impl RetrySchedule {
    /// Whether an attempt is allowed at `now`.
    fn due(&self, now: Instant) -> bool {
        self.next_at.is_none_or(|at| now >= at)
    }

    /// Records a failed attempt at `now`: schedules the next one after a
    /// jittered backoff, or, once the burst's budget is spent, after a
    /// [`MAX_BACKOFF`] cool-down that starts a fresh burst.
    fn failed(&mut self, now: Instant, jitter: &mut Rng) {
        self.attempts += 1;
        let window = *self.window_start.get_or_insert(now);
        if self.attempts >= MAX_ATTEMPTS || now.duration_since(window) >= BURST_DEADLINE {
            *self = RetrySchedule { next_at: Some(now + MAX_BACKOFF), ..RetrySchedule::default() };
            return;
        }
        if self.backoff.is_zero() {
            self.backoff = INITIAL_BACKOFF;
        }
        let base = self.backoff.as_nanos() as u64;
        let wait = Duration::from_nanos(base / 2 + jitter.gen_range(0..=base.div_ceil(2)));
        self.next_at = Some(now + wait);
        self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
    }
}

/// Who sent the frames an identified inbound connection carries.
#[derive(Clone, Copy)]
enum Peer {
    Broker(Rank),
    Client(ClientId),
}

impl Peer {
    fn event(self, msg: Message) -> Event {
        match self {
            Peer::Broker(from) => Event::FromBroker { from, msg },
            Peer::Client(client) => Event::FromClient { client, msg },
        }
    }
}

/// What a connection carries.
enum Role {
    /// Accepted, collecting the 4-byte peer identification.
    Handshake { got: usize, raw: [u8; 4], deadline: Instant },
    /// Accepted and identified.
    Inbound(Peer),
    /// Dialed by this broker to carry its frames to a peer rank.
    Dialed(Rank),
}

/// One connection: its role, read-side reassembly and out-queue.
struct Conn {
    role: Role,
    decoder: FrameDecoder,
    /// Queued bytes; `out[sent..]` is not yet written.
    out: Vec<u8>,
    sent: usize,
}

/// One peer rank's outbound side: its dialed connection, if one is up,
/// and the schedule its connects follow.
#[derive(Default)]
struct Dial {
    conn: Option<ConnId>,
    retry: RetrySchedule,
}

/// Every connection of one broker, as data: the sans-io half of the
/// socket link (see the module docs).
pub(crate) struct LinkCore {
    rank: Rank,
    size: u32,
    /// Connection slab; `None` slots are free.
    conns: Vec<Option<Conn>>,
    free: Vec<ConnId>,
    /// `dials[to]`: the one outbound connection to rank `to`.
    dials: Vec<Dial>,
    /// Socket-client id → its connection; written at handshake, cleared
    /// when the connection is forgotten.
    clients: HashMap<ClientId, ConnId>,
    /// Next socket-client id (starts above the channel-attached range).
    next_client: ClientId,
    /// Encode scratch shared by every outbound frame.
    scratch: Vec<u8>,
    /// Backoff jitter (decorrelates concurrent retriers; never replayed).
    jitter: Rng,
}

impl LinkCore {
    /// The link of broker `rank` in a session of `size`, numbering its
    /// socket clients from `first_client`.
    pub(crate) fn new(rank: Rank, size: u32, first_client: ClientId, jitter: Rng) -> LinkCore {
        LinkCore {
            rank,
            size,
            conns: Vec::new(),
            free: Vec::new(),
            dials: (0..size).map(|_| Dial::default()).collect(),
            clients: HashMap::new(),
            next_client: first_client,
            scratch: Vec::with_capacity(256),
            jitter,
        }
    }

    fn open(&mut self, role: Role, out: Vec<u8>) -> ConnId {
        let conn = Some(Conn { role, decoder: FrameDecoder::new(), out, sent: 0 });
        match self.free.pop() {
            Some(id) => {
                self.conns[id] = conn;
                id
            }
            None => {
                self.conns.push(conn);
                self.conns.len() - 1
            }
        }
    }

    /// Registers a connection accepted at `now`; it must identify itself
    /// within [`HANDSHAKE_TIMEOUT`].
    pub(crate) fn accepted(&mut self, now: Instant) -> ConnId {
        let deadline = now + HANDSHAKE_TIMEOUT;
        self.open(Role::Handshake { got: 0, raw: [0; 4], deadline }, Vec::new())
    }

    /// Whether to try a connect to `to` at `now`: none is up and its
    /// schedule is due.
    pub(crate) fn dial_due(&self, to: Rank, now: Instant) -> bool {
        let dial = &self.dials[to.index()];
        dial.conn.is_none() && dial.retry.due(now)
    }

    /// Records a connect to `to` that succeeded: the schedule resets and
    /// the new connection starts with its handshake queued.
    pub(crate) fn connected(&mut self, to: Rank) -> ConnId {
        let id = self.open(Role::Dialed(to), self.rank.0.to_le_bytes().to_vec());
        self.dials[to.index()] = Dial { conn: Some(id), retry: RetrySchedule::default() };
        id
    }

    /// Records a connect to `to` that failed at `now`.
    pub(crate) fn connect_failed(&mut self, to: Rank, now: Instant) {
        self.dials[to.index()].retry.failed(now, &mut self.jitter);
    }

    /// Queues `msg` for the broker at `to` and returns the connection to
    /// flush, or `None` when the frame is dropped: no connection is up
    /// (the liveness layer repairs routes) or its queue is full.
    pub(crate) fn send_to(&mut self, to: Rank, msg: &Message) -> Option<ConnId> {
        let id = self.dials[to.index()].conn?;
        self.enqueue(id, msg).then_some(id)
    }

    /// Queues a broker→client message for socket client `client`. A
    /// client that disconnected (or never existed) has nowhere for it to
    /// go, and a full queue drops it.
    pub(crate) fn deliver_client(&mut self, client: ClientId, msg: &Message) {
        if let Some(&id) = self.clients.get(&client) {
            self.enqueue(id, msg);
        }
    }

    /// Queues `msg` on connection `id` unless its queue is full. Encoding
    /// into a `Vec` fails only on an oversized frame, before any byte is
    /// queued, so the queue stays frame-aligned.
    fn enqueue(&mut self, id: ConnId, msg: &Message) -> bool {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else { return false };
        conn.out.len() - conn.sent <= MAX_OUTBUF
            && frame::write_frame_into(&mut conn.out, msg, frame::MAX_FRAME, &mut self.scratch)
                .is_ok()
    }

    /// The bytes connection `id` has queued and not yet written.
    pub(crate) fn outgoing(&self, id: ConnId) -> &[u8] {
        match self.conns.get(id).and_then(Option::as_ref) {
            Some(conn) => &conn.out[conn.sent..],
            None => &[],
        }
    }

    /// Records that the first `n` bytes of [`outgoing`](Self::outgoing)
    /// were written.
    pub(crate) fn wrote(&mut self, id: ConnId, n: usize) {
        if let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) {
            conn.sent += n;
            if conn.sent == conn.out.len() {
                conn.out.clear();
                conn.sent = 0;
            }
        }
    }

    /// Feeds `bytes` read from connection `id`: steps its handshake, then
    /// decodes every complete frame into `batch`. Returns `false` when
    /// the connection is condemned — a handshake naming no rank and no
    /// client, an unframeable stream, or bytes on a dialed link — and
    /// forgotten; the driver closes it.
    pub(crate) fn received(
        &mut self,
        id: ConnId,
        mut bytes: &[u8],
        batch: &mut Vec<Event>,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else { return false };
        if let Role::Handshake { got, raw, .. } = &mut conn.role {
            let take = bytes.len().min(4 - *got);
            raw[*got..*got + take].copy_from_slice(&bytes[..take]);
            *got += take;
            bytes = &bytes[take..];
            if *got < 4 {
                return true;
            }
            let hello = u32::from_le_bytes(*raw);
            let peer = if hello == CLIENT_HELLO {
                let client = self.next_client;
                self.next_client += 1;
                self.clients.insert(client, id);
                conn.out.extend_from_slice(&client.to_le_bytes());
                Peer::Client(client)
            } else if hello < self.size {
                Peer::Broker(Rank(hello))
            } else {
                self.forget(id);
                return false;
            };
            conn.role = Role::Inbound(peer);
        }
        let Role::Inbound(peer) = conn.role else {
            // A dialed link only carries this broker's frames out.
            self.forget(id);
            return false;
        };
        if bytes.is_empty() {
            return true;
        }
        conn.decoder.feed(bytes);
        loop {
            match conn.decoder.next_message(frame::MAX_FRAME) {
                Ok(Some(msg)) => batch.push(peer.event(msg)),
                Ok(None) => return true,
                Err(_) => {
                    // Unframeable: resynchronization is impossible.
                    self.forget(id);
                    return false;
                }
            }
        }
    }

    /// Whether connection `id` is still within its handshake deadline at
    /// `now`; a late one is forgotten.
    pub(crate) fn on_time(&mut self, id: ConnId, now: Instant) -> bool {
        let late = matches!(
            self.conns.get(id).and_then(Option::as_ref),
            Some(Conn { role: Role::Handshake { deadline, .. }, .. }) if now >= *deadline
        );
        if late {
            self.forget(id);
        }
        !late
    }

    /// Forgets connection `id` with its queued bytes: a client's id is
    /// unmapped, and a dialed peer's next send re-dials.
    pub(crate) fn forget(&mut self, id: ConnId) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::take) else { return };
        match conn.role {
            Role::Inbound(Peer::Client(client)) => {
                self.clients.remove(&client);
            }
            Role::Dialed(to) => self.dials[to.index()].conn = None,
            Role::Handshake { .. } | Role::Inbound(Peer::Broker(_)) => {}
        }
        self.free.push(id);
    }
}

#[cfg(test)]
mod tests;
