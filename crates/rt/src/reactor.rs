//! The nonblocking socket link behind [`crate::tcp`]: every socket of
//! one broker, readiness discovered by level-triggered scanning from the
//! host loop ([`crate::live`]).
//!
//! ## Shape
//!
//! There is no readiness wait yet — a `poll(2)` declared in `flux-sys`,
//! the workspace's one audited `unsafe` crate, is ROADMAP 3(b) — so the
//! link scans: every stream and the listener run with
//! `set_nonblocking(true)`, and each readiness pass of the host loop
//! drains whatever is ready — `WouldBlock` means "move on". When a full
//! pass makes no progress the host parks in the broker's command channel
//! for [`ReactorPeers::park_budget`], which backs off adaptively so an
//! idle broker costs a few wakeups per second while an active one spins
//! at full rate.
//!
//! ## State machines
//!
//! *Inbound* connections (accepted from the listener) step through
//! `Handshake → Broker | Client`: four raw little-endian bytes name the
//! peer — a rank below the session size for a broker link, the
//! [`crate::tcp::CLIENT_HELLO`] sentinel for a socket client, anything
//! else is dropped. Frames then reassemble through
//! [`flux_wire::frame::FrameDecoder`], which tolerates arbitrary tearing
//! (a frame may arrive one byte at a time). Socket clients are assigned
//! a broker-local client id on arrival, echoed back as four raw LE bytes
//! before any frames, so their [`flux_broker::client::ClientCore`] mints
//! collision-free request ids.
//!
//! *Outbound* broker→broker traffic rides a small pool of connections
//! per destination ([`POOL_SIZE`]): the event
//! plane is pinned to slot 0 — its seq-dedup requires per-link FIFO —
//! while tree/ring traffic round-robins the remaining slots, so bulk
//! frames cannot head-of-line-block liveness events. Writes buffer in a
//! per-connection out-queue flushed to `WouldBlock` each pass; connects
//! and reconnects follow the nonblocking `RetrySchedule` (jittered
//! exponential backoff, never a sleep).

use crate::live::Event;
use crate::tcp::{RetrySchedule, CLIENT_HELLO, RETRY};
use flux_broker::ClientId;
use flux_core::rng::Rng;
use flux_wire::frame::{self, FrameDecoder};
use flux_wire::{Message, Plane, Rank};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Per-attempt connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Deadline for an accepted connection to complete its 4-byte handshake
/// (guards against a connector that never identifies itself).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Outbound connections per peer broker. The event plane is pinned to
/// slot 0 (it needs per-link FIFO); tree/ring traffic round-robins the
/// remaining slots.
const POOL_SIZE: usize = 2;

/// The idle park duration when sockets were recently active.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Ceiling the idle park duration backs off to when nothing is happening.
const MAX_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Per-connection outbound buffer cap, bytes. A peer this far behind
/// gets new frames dropped (frame-aligned) rather than buffering without
/// bound.
const MAX_OUTBUF: usize = 64 * 1024 * 1024;

/// Bytes read from a ready stream per `read()` call.
const READ_CHUNK: usize = 16 * 1024;

/// Chunks read from one connection per pass before yielding to the next
/// (fairness under a firehose peer).
const READS_PER_PASS: usize = 4;

/// Connections accepted per pass.
const ACCEPTS_PER_PASS: usize = 128;

/// Flushes `buf[*sent..]` into a nonblocking stream. Returns whether any
/// bytes moved; resets the buffer once fully drained.
fn flush_buf(stream: &mut TcpStream, buf: &mut Vec<u8>, sent: &mut usize) -> io::Result<bool> {
    let mut progressed = false;
    while *sent < buf.len() {
        match stream.write(&buf[*sent..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                *sent += n;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if *sent == buf.len() && !buf.is_empty() {
        buf.clear();
        *sent = 0;
    }
    Ok(progressed)
}

/// Where an inbound connection is in its lifecycle.
enum ConnState {
    /// Collecting the 4-byte peer-identification prefix.
    Handshake { got: usize, raw: [u8; 4] },
    /// An attributed broker→broker link.
    Broker(Rank),
    /// A socket client with its assigned broker-local id.
    Client(ClientId),
}

/// One accepted connection: read state machine + buffered writes.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    decoder: FrameDecoder,
    out: Vec<u8>,
    sent: usize,
    opened: Instant,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            state: ConnState::Handshake { got: 0, raw: [0; 4] },
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            sent: 0,
            opened: Instant::now(),
            dead: true, // armed by the caller once setup succeeds
        }
    }
}

/// One slot of an outbound pool: a lazily-(re)connected nonblocking
/// stream with its write queue and retry schedule. The 4 handshake bytes
/// are staged separately so they always precede queued frames on a fresh
/// connection.
struct Uplink {
    stream: Option<TcpStream>,
    hs: [u8; 4],
    hs_left: usize,
    out: Vec<u8>,
    sent: usize,
    retry: RetrySchedule,
}

impl Uplink {
    fn new(rank: Rank) -> Uplink {
        Uplink {
            stream: None,
            hs: rank.0.to_le_bytes(),
            hs_left: 0,
            out: Vec::new(),
            sent: 0,
            retry: RetrySchedule::default(),
        }
    }

    /// Drops the stream and every queued byte (a reconnected stream
    /// cannot resume mid-frame), leaving the retry schedule as-is.
    fn reset(&mut self) {
        self.stream = None;
        self.hs_left = 0;
        self.out.clear();
        self.sent = 0;
    }

    fn try_connect(&mut self, addr: SocketAddr, jitter: &mut Rng) {
        if self.stream.is_some() || !self.retry.due(Instant::now()) {
            return;
        }
        // Bounded by the per-attempt deadline; on loopback it resolves
        // immediately either way.
        match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(stream) => {
                if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                    self.record_failure(jitter);
                    return;
                }
                self.stream = Some(stream);
                self.hs_left = 4;
                self.retry.succeeded();
            }
            Err(_) => self.record_failure(jitter),
        }
    }

    fn record_failure(&mut self, jitter: &mut Rng) {
        if !self.retry.failed(Instant::now(), &RETRY, jitter) {
            // Burst budget spent: this peer is gone for now. Queued
            // frames are dropped — the liveness layer repairs overlay
            // routes, the transport does not queue forever.
            self.out.clear();
            self.sent = 0;
        }
    }

    /// Flushes handshake bytes then queued frames. On a write error the
    /// link resets and the frames are dropped (same contract as the
    /// pre-reactor transport: a dead link loses what was in flight).
    fn flush(&mut self) -> bool {
        let Some(stream) = self.stream.as_mut() else { return false };
        let mut progressed = false;
        while self.hs_left > 0 {
            match stream.write(&self.hs[4 - self.hs_left..]) {
                Ok(0) => {
                    self.reset();
                    return progressed;
                }
                Ok(n) => {
                    self.hs_left -= n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progressed,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.reset();
                    return progressed;
                }
            }
        }
        match flush_buf(stream, &mut self.out, &mut self.sent) {
            Ok(p) => progressed || p,
            Err(_) => {
                self.reset();
                progressed
            }
        }
    }
}

/// All sockets of one broker: the listener, accepted connections
/// (broker links and socket clients), and the per-destination outbound
/// pools — the socket link of [`crate::tcp::TcpSession`].
pub(crate) struct ReactorPeers {
    size: u32,
    addrs: Vec<SocketAddr>,
    listener: TcpListener,
    /// `uplinks[to] = pool` for each destination rank.
    uplinks: Vec<Vec<Uplink>>,
    /// Round-robin cursor over the bulk (non-event) pool slots.
    next_bulk: usize,
    /// Accepted-connection slab; `None` slots are free.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Socket-client id → slab index.
    client_conn: HashMap<ClientId, usize>,
    /// Next socket-client id (starts above the channel-attached range).
    next_client: ClientId,
    /// Encode scratch shared by every outbound frame.
    scratch: Vec<u8>,
    /// Read scratch shared by every connection.
    read_buf: Vec<u8>,
    /// Backoff jitter (decorrelates concurrent retriers; never replayed).
    jitter: Rng,
}

impl ReactorPeers {
    fn new(
        rank: Rank,
        addrs: Vec<SocketAddr>,
        listener: TcpListener,
        first_socket_client: ClientId,
    ) -> io::Result<ReactorPeers> {
        listener.set_nonblocking(true)?;
        let size = addrs.len() as u32;
        let clock_seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        Ok(ReactorPeers {
            size,
            addrs,
            listener,
            uplinks: (0..size)
                .map(|_| (0..POOL_SIZE).map(|_| Uplink::new(rank)).collect())
                .collect(),
            next_bulk: 0,
            conns: Vec::new(),
            free: Vec::new(),
            client_conn: HashMap::new(),
            next_client: first_socket_client,
            scratch: Vec::with_capacity(256),
            read_buf: vec![0u8; READ_CHUNK],
            jitter: Rng::seeded(clock_seed ^ (u64::from(rank.0) << 32)),
        })
    }

    /// Binds every rank's listener before any broker runs, so every
    /// rank's first outbound connect finds a live (if not yet accepting)
    /// socket: the kernel backlog absorbs early connects.
    fn bind_all(channel_clients: &[ClientId]) -> io::Result<(Vec<SocketAddr>, Vec<ReactorPeers>)> {
        let listeners = channel_clients
            .iter()
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs =
            listeners.iter().map(TcpListener::local_addr).collect::<io::Result<Vec<_>>>()?;
        let links = listeners
            .into_iter()
            .zip(channel_clients)
            .enumerate()
            .map(|(idx, (listener, &first_socket_client))| {
                ReactorPeers::new(Rank::from(idx), addrs.clone(), listener, first_socket_client)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok((addrs, links))
    }

    /// Delivers `msg` to the broker at `to`, queued on the pool slot for
    /// `(to, plane)`: event-plane traffic is pinned to slot 0 (per-link
    /// FIFO); everything else round-robins the remaining slots.
    pub(crate) fn send_to(&mut self, to: Rank, plane: Plane, msg: Message) {
        let pool_len = self.uplinks[to.index()].len();
        let slot = if pool_len == 1 || matches!(plane, Plane::Event) {
            0
        } else {
            self.next_bulk = self.next_bulk.wrapping_add(1);
            1 + self.next_bulk % (pool_len - 1)
        };
        let link = &mut self.uplinks[to.index()][slot];
        if link.stream.is_none() {
            let addr = self.addrs[to.index()];
            link.try_connect(addr, &mut self.jitter);
            if link.stream.is_none() {
                return; // unreachable right now: dropped, liveness repairs
            }
        }
        if link.out.len() - link.sent > MAX_OUTBUF {
            return; // backpressure: peer too far behind, drop the frame
        }
        let _ = frame::write_frame_into(&mut link.out, &msg, frame::MAX_FRAME, &mut self.scratch);
        let _ = link.flush();
    }

    /// Reconnects pools whose retry came due and flushes pending bytes.
    fn service_uplinks(&mut self) -> bool {
        let mut progress = false;
        for to in 0..self.uplinks.len() {
            let addr = self.addrs[to];
            for slot in 0..self.uplinks[to].len() {
                let link = &mut self.uplinks[to][slot];
                if link.stream.is_none() && !link.out.is_empty() {
                    link.try_connect(addr, &mut self.jitter);
                }
                if link.stream.is_some() && (link.hs_left > 0 || link.out.len() > link.sent) {
                    progress |= link.flush();
                }
            }
        }
        progress
    }

    fn accept_ready(&mut self) -> bool {
        let mut progress = false;
        for _ in 0..ACCEPTS_PER_PASS {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    let mut conn = Conn::new(stream);
                    if conn.stream.set_nonblocking(true).is_ok() {
                        let _ = conn.stream.set_nodelay(true);
                        conn.dead = false;
                        match self.free.pop() {
                            Some(i) => self.conns[i] = Some(conn),
                            None => self.conns.push(Some(conn)),
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        progress
    }

    /// Reads every connection with ready bytes, stepping handshakes and
    /// decoding frames into `batch`.
    fn read_ready(&mut self, batch: &mut Vec<Event>) -> bool {
        let mut progress = false;
        let mut chunk = std::mem::take(&mut self.read_buf);
        for i in 0..self.conns.len() {
            // Take the connection out of its slot so handshake completion
            // can borrow `self` (id assignment) without aliasing.
            let Some(mut conn) = self.conns[i].take() else { continue };
            progress |= self.service_conn(&mut conn, &mut chunk, batch);
            if conn.dead {
                if let ConnState::Client(id) = conn.state {
                    self.client_conn.remove(&id);
                }
                self.free.push(i);
            } else {
                if let ConnState::Client(id) = conn.state {
                    self.client_conn.insert(id, i);
                }
                self.conns[i] = Some(conn);
            }
        }
        self.read_buf = chunk;
        progress
    }

    /// Reads one connection to `WouldBlock` (bounded per pass), feeding
    /// the handshake then the frame decoder.
    fn service_conn(&mut self, conn: &mut Conn, chunk: &mut [u8], batch: &mut Vec<Event>) -> bool {
        // A half-open peer that never finishes identifying itself is
        // dropped at the handshake deadline.
        if matches!(conn.state, ConnState::Handshake { .. })
            && conn.opened.elapsed() > HANDSHAKE_TIMEOUT
        {
            conn.dead = true;
            return false;
        }
        let mut progress = false;
        for _ in 0..READS_PER_PASS {
            let n = match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.dead = true; // clean EOF
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            };
            progress = true;
            let mut bytes = &chunk[..n];
            if let ConnState::Handshake { got, raw } = &mut conn.state {
                let take = bytes.len().min(4 - *got);
                raw[*got..*got + take].copy_from_slice(&bytes[..take]);
                *got += take;
                bytes = &bytes[take..];
                if *got == 4 {
                    let id = u32::from_le_bytes(*raw);
                    if id == CLIENT_HELLO {
                        let assigned = self.next_client;
                        self.next_client += 1;
                        conn.state = ConnState::Client(assigned);
                        // Echo the assigned id (4 raw LE bytes) ahead of
                        // any frames so the client can namespace its
                        // request ids.
                        conn.out.extend_from_slice(&assigned.to_le_bytes());
                    } else if id < self.size {
                        conn.state = ConnState::Broker(Rank(id));
                    } else {
                        conn.dead = true; // garbage handshake
                        break;
                    }
                }
            }
            if !bytes.is_empty() {
                conn.decoder.feed(bytes);
            }
            loop {
                match conn.decoder.next_message(frame::MAX_FRAME) {
                    Ok(Some(msg)) => match conn.state {
                        ConnState::Broker(from) => batch.push(Event::FromBroker { from, msg }),
                        ConnState::Client(client) => {
                            batch.push(Event::FromClient { client, msg })
                        }
                        // Unreachable: bytes are only fed post-handshake.
                        ConnState::Handshake { .. } => {}
                    },
                    Ok(None) => break,
                    Err(_) => {
                        // Unframeable stream: resynchronization is
                        // impossible, drop the connection.
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.dead || n < chunk.len() {
                break; // drained (short read) or condemned
            }
        }
        progress
    }

    /// Flushes buffered writes on accepted connections.
    fn flush_conns(&mut self) -> bool {
        let mut progress = false;
        for i in 0..self.conns.len() {
            let Some(conn) = self.conns[i].as_mut() else { continue };
            if conn.out.len() > conn.sent {
                match flush_buf(&mut conn.stream, &mut conn.out, &mut conn.sent) {
                    Ok(p) => progress |= p,
                    Err(_) => {
                        let dead = self.conns[i].take();
                        if let Some(c) = dead {
                            if let ConnState::Client(id) = c.state {
                                self.client_conn.remove(&id);
                            }
                        }
                        self.free.push(i);
                    }
                }
            }
        }
        progress
    }

    /// Wires one link per rank for a session about to start: rank `r`
    /// numbers its socket clients from `channel_clients[r]`, above its
    /// channel-attached ones. Also returns the address each rank listens
    /// on.
    pub(crate) fn wire(channel_clients: &[ClientId]) -> (Vec<SocketAddr>, Vec<ReactorPeers>) {
        // flux-lint: allow(panic) — session construction: without a bound
        // nonblocking loopback listener per rank there is no session to
        // run; `SessionBuilder::start` documents the panic.
        ReactorPeers::bind_all(channel_clients).expect("bind a loopback listener per rank")
    }

    /// Delivers a broker→client message to a socket client (the host
    /// serves channel-attached clients itself).
    pub(crate) fn deliver_client(&mut self, client: ClientId, msg: Message) {
        // A client that disconnected (or never existed) has nowhere for
        // the reply to go.
        let Some(&slot) = self.client_conn.get(&client) else { return };
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            if conn.out.len() - conn.sent <= MAX_OUTBUF {
                let _ =
                    frame::write_frame_into(&mut conn.out, &msg, frame::MAX_FRAME, &mut self.scratch);
            }
        }
    }

    /// One readiness pass over the link's sockets: due reconnects,
    /// accepts, reads (decoded frames land in `batch`), and write
    /// flushes. Returns whether any I/O progressed.
    pub(crate) fn poll_io(&mut self, batch: &mut Vec<Event>) -> bool {
        let mut progress = false;
        progress |= self.service_uplinks();
        progress |= self.accept_ready();
        progress |= self.read_ready(batch);
        progress |= self.flush_conns();
        progress
    }

    /// How long the host may park after `idle_streak` consecutive passes
    /// without progress: the poll interval, backed off exponentially to
    /// the idle ceiling.
    pub(crate) fn park_budget(&self, idle_streak: u32) -> Duration {
        POLL_INTERVAL.saturating_mul(1u32 << idle_streak.min(10)).min(MAX_POLL_INTERVAL)
    }

    /// Closes every socket (best-effort final flush first) once the host
    /// loop exits.
    pub(crate) fn close(&mut self) {
        for pool in &mut self.uplinks {
            for link in pool {
                link.flush();
                if let Some(stream) = link.stream.take() {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        for mut conn in self.conns.iter_mut().filter_map(Option::take) {
            let _ = flush_buf(&mut conn.stream, &mut conn.out, &mut conn.sent);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.client_conn.clear();
    }
}
