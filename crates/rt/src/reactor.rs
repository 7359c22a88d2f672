//! The socket driver of the live link: [`ReactorPeers`] maps one
//! broker's [`LinkCore`] onto nonblocking `std::net` sockets, scanned for
//! readiness from the host loop ([`crate::live`]).
//!
//! Every piece of protocol state — handshakes, reassembly, out-queues
//! and their cap, the per-peer connect schedule, client ids — lives in
//! the sans-io core ([`crate::link`]). The driver owns the listener and
//! one slab of streams indexed by the core's connection ids, and moves
//! bytes between the two.
//!
//! There is no readiness wait yet — a `poll(2)` declared in `flux-sys`,
//! the workspace's one audited `unsafe` crate, is ROADMAP 3(b) — so the
//! driver scans: every stream and the listener run with
//! `set_nonblocking(true)`, and each readiness pass of the host loop
//! accepts, reads and writes whatever is ready — `WouldBlock` means "move
//! on". When a full pass makes no progress the host parks in the
//! broker's command channel for [`ReactorPeers::park_budget`], which
//! backs off adaptively so an idle broker costs a few wakeups per second
//! while an active one spins at full rate. Connects are the one blocking
//! call: `TcpStream::connect_timeout` holds the host thread for up to
//! [`CONNECT_TIMEOUT`], and on loopback it returns at once.

#![expect(clippy::disallowed_types, reason = "the I/O tier")]

use crate::link::{ConnId, LinkCore};
use crate::live::Event;
use flux_broker::ClientId;
use flux_sim::rng::Rng;
use flux_wire::{Message, Rank};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Per-attempt connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// The idle park duration when sockets were recently active.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Ceiling the idle park duration backs off to when nothing is happening.
const MAX_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Bytes read from a ready stream per `read()` call.
const READ_CHUNK: usize = 16 * 1024;

/// Chunks read from one connection per pass before yielding to the next
/// (fairness under a firehose peer).
const READS_PER_PASS: usize = 4;

/// Connections accepted per pass.
const ACCEPTS_PER_PASS: usize = 128;

/// A nonblocking, no-delay stream to `addr`.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// All sockets of one broker over its [`LinkCore`] — the socket link of
/// [`crate::tcp::TcpSession`].
pub(crate) struct ReactorPeers {
    core: LinkCore,
    addrs: Vec<SocketAddr>,
    listener: TcpListener,
    /// Streams indexed by the core's connection ids; `None` slots are free.
    streams: Vec<Option<TcpStream>>,
    /// Read scratch shared by every stream.
    read_buf: Vec<u8>,
}

impl ReactorPeers {
    fn new(
        rank: Rank,
        addrs: Vec<SocketAddr>,
        listener: TcpListener,
        first_socket_client: ClientId,
    ) -> io::Result<ReactorPeers> {
        listener.set_nonblocking(true)?;
        let clock_seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        let jitter = Rng::seeded(clock_seed ^ (u64::from(rank.0) << 32));
        Ok(ReactorPeers {
            core: LinkCore::new(rank, addrs.len() as u32, first_socket_client, jitter),
            addrs,
            listener,
            streams: Vec::new(),
            read_buf: vec![0u8; READ_CHUNK],
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

    /// Wires one link per rank for a session about to start: rank `r`
    /// numbers its socket clients from `channel_clients[r]`, above its
    /// channel-attached ones. Also returns the address each rank listens
    /// on.
    #[expect(
        clippy::expect_used,
        reason = "session construction: without a bound nonblocking loopback listener per \
                  rank there is no session to run; `SessionBuilder::start` documents the panic"
    )]
    pub(crate) fn wire(channel_clients: &[ClientId]) -> (Vec<SocketAddr>, Vec<ReactorPeers>) {
        ReactorPeers::bind_all(channel_clients).expect("bind a loopback listener per rank")
    }

    fn place(&mut self, id: ConnId, stream: TcpStream) {
        if id >= self.streams.len() {
            self.streams.resize_with(id + 1, || None);
        }
        self.streams[id] = Some(stream);
    }

    /// Drops stream `id` after EOF or an I/O error; the core forgets it.
    fn reset(&mut self, id: ConnId) {
        self.streams[id] = None;
        self.core.forget(id);
    }

    /// Delivers `msg` to the broker at `to`, dialing first if the core
    /// says a connect is due. A frame with no connection to ride is
    /// dropped; the liveness layer repairs routes.
    pub(crate) fn send_to(&mut self, to: Rank, msg: Message) {
        if self.core.dial_due(to, Instant::now()) {
            match connect(self.addrs[to.index()]) {
                Ok(stream) => {
                    let id = self.core.connected(to);
                    self.place(id, stream);
                }
                Err(_) => self.core.connect_failed(to, Instant::now()),
            }
        }
        if let Some(id) = self.core.send_to(to, &msg) {
            self.flush(id);
        }
    }

    /// Queues a broker→client message for a socket client (the host
    /// serves channel-attached clients itself); the next pass writes it.
    pub(crate) fn deliver_client(&mut self, client: ClientId, msg: Message) {
        self.core.deliver_client(client, &msg);
    }

    fn accept_ready(&mut self, now: Instant) -> bool {
        let mut progress = false;
        for _ in 0..ACCEPTS_PER_PASS {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if stream.set_nonblocking(true).is_ok() {
                        let _ = stream.set_nodelay(true);
                        let id = self.core.accepted(now);
                        self.place(id, stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        progress
    }

    /// Reads stream `id` to `WouldBlock` (bounded per pass) into the
    /// core, which decodes frames into `batch`.
    fn read(&mut self, id: ConnId, batch: &mut Vec<Event>) -> bool {
        let mut progress = false;
        for _ in 0..READS_PER_PASS {
            let Some(stream) = self.streams[id].as_mut() else {
                break;
            };
            let n = match stream.read(&mut self.read_buf) {
                Ok(n) if n > 0 => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Ok(_) | Err(_) => {
                    self.reset(id); // EOF or a read error
                    break;
                }
            };
            progress = true;
            if !self.core.received(id, &self.read_buf[..n], batch) {
                self.streams[id] = None;
                break;
            }
            if n < self.read_buf.len() {
                break; // drained
            }
        }
        progress
    }

    /// Writes connection `id`'s queued bytes to `WouldBlock`. A write
    /// error resets it: a dead link loses what was in flight.
    fn flush(&mut self, id: ConnId) -> bool {
        let mut progress = false;
        while let Some(stream) = self.streams[id].as_mut() {
            let out = self.core.outgoing(id);
            if out.is_empty() {
                break;
            }
            match stream.write(out) {
                Ok(n) if n > 0 => {
                    self.core.wrote(id, n);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Ok(_) | Err(_) => {
                    self.reset(id); // a zero-byte write or a write error
                    break;
                }
            }
        }
        progress
    }

    /// One readiness pass over the link's sockets: accepts, then per
    /// connection the handshake deadline, reads (decoded frames land in
    /// `batch`) and writes. Returns whether any I/O progressed.
    pub(crate) fn poll_io(&mut self, batch: &mut Vec<Event>) -> bool {
        let now = Instant::now();
        let mut progress = self.accept_ready(now);
        for id in 0..self.streams.len() {
            if self.streams[id].is_none() {
                continue;
            }
            if !self.core.on_time(id, now) {
                self.streams[id] = None;
                continue;
            }
            progress |= self.read(id, batch);
            progress |= self.flush(id);
        }
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
        for id in 0..self.streams.len() {
            self.flush(id);
            if let Some(stream) = self.streams[id].take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}
