//! The `live_ping` workload: wall-clock `cmb.ping` over host loopback.
//!
//! One reactor broker (`TcpSession::builder(1, 2, standard_modules)`) and
//! one driver thread — together the two hardware threads the workload
//! needs. The driver is modelled on `flux_bench::rpc::drive`, with two
//! changes that keep the driver out of the numbers: the quiet phase uses
//! a blocking socket (no polling inside the round trip), and the busy
//! phase yields instead of sleeping when nothing progressed.
//!
//! A *round* is a quiet phase (one connection, one ping in flight) then a
//! busy phase (two connections, 32 in flight each) on a session that
//! stays up across rounds. Every reply is checked: errnum 0, answered by
//! rank 0, and the seeded pad echoed back intact.

use crate::stats;
use crate::sys::Usage;
use crate::trace::Tracer;
use flux_broker::client::{ClientCore, Delivery};
use flux_modules::standard_modules;
use flux_proto::CmbMethod;
use flux_rt::tcp::{connect_socket_client, TcpSession};
use flux_value::Value;
use flux_wire::frame::{read_frame_into, write_frame_into, FrameDecoder, MAX_FRAME};
use flux_wire::{Message, Rank};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests in flight per busy connection.
const WINDOW: usize = 32;

/// How long a ping may go unanswered before it counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The quiet client's own work between two pings. Long enough that the
/// reactor has finished its sweep and gone to sleep — which is where any
/// client that does anything between RPCs finds it — and shorter than
/// its first, shortest park, so every ping meets the same state. With no
/// pause the next ping races the reactor's last sweep, and the round trip
/// is 10 µs or 1 ms by a coin toss that differs from run to run.
const THINK: Duration = Duration::from_micros(100);

/// Ping counts of one round and of the warm-up that ends set-up.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Quiet-phase pings per round.
    pub quiet: usize,
    /// Busy-phase pings per connection per round.
    pub busy_per_conn: usize,
    /// Quiet pings sent before the first timed round.
    pub warmup: usize,
}

/// One socket client: the stream, its id minting, and reusable buffers.
struct Conn {
    stream: TcpStream,
    core: ClientCore,
    decoder: FrameDecoder,
    out: Vec<u8>,
    scratch: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let (stream, id) = connect_socket_client(addr, REPLY_TIMEOUT)?;
        Ok(Conn {
            stream,
            core: ClientCore::new(Rank(0), id),
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Appends one framed ping tagged `tag` to the write queue.
    fn queue_ping(&mut self, payload: &Value, tag: u64) -> io::Result<()> {
        let msg = self.core.request(CmbMethod::Ping.topic(), payload.clone(), tag);
        write_frame_into(&mut self.out, &msg, MAX_FRAME, &mut self.scratch)
    }
}

/// True if `reply` is the correct answer to the ping tagged `tag`.
fn reply_is_correct(core: &mut ClientCore, reply: Message, tag: u64, payload: &Value) -> bool {
    match core.deliver(reply) {
        Delivery::Response { tag: t, msg } => {
            t == tag
                && msg.header.errnum == 0
                && msg.payload.get("pad") == payload.get("pad")
                && msg.payload.get("pong").and_then(Value::as_int) == Some(0)
        }
        Delivery::Event(_) | Delivery::Unmatched(_) => false,
    }
}

/// What one phase did.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Pings sent.
    pub attempted: u64,
    /// Pings with a wrong, failed or missing reply.
    pub failed: u64,
    /// Wall-clock of the phase, seconds.
    pub wall_s: f64,
    /// Per-ping latency, µs, in completion order.
    pub latencies_us: Vec<f64>,
    /// Bytes the driver wrote plus bytes it read.
    pub bytes: u64,
    /// CPU time of the whole process (driver and reactor) over the phase.
    pub cpu_ns: u64,
}

/// The quiet phase: `n` pings, one at a time, on a blocking socket,
/// [`THINK`] apart. The clock of each ping starts before the request is
/// built and stops after the reply is decoded — what a caller of a
/// synchronous RPC waits.
fn quiet_phase(conn: &mut Conn, payload: &Value, n: usize) -> Phase {
    let mut phase = Phase { latencies_us: Vec::with_capacity(n), ..Phase::default() };
    let mut body = Vec::new();
    let start = Instant::now();
    for tag in 0..n as u64 {
        phase.attempted += 1;
        let issued = Instant::now();
        conn.out.clear();
        let reply = conn
            .queue_ping(payload, tag)
            .and_then(|()| conn.stream.write_all(&conn.out))
            .and_then(|()| read_frame_into(&mut conn.stream, MAX_FRAME, &mut body));
        let latency = issued.elapsed();
        match reply {
            Ok(Some(reply)) => {
                phase.bytes += (conn.out.len() + 4 + body.len()) as u64;
                phase.latencies_us.push(latency.as_secs_f64() * 1e6);
                if !reply_is_correct(&mut conn.core, reply, tag, payload) {
                    phase.failed += 1;
                }
            }
            // A dead or silent connection fails this ping and every one
            // the phase still owed.
            Ok(None) | Err(_) => {
                phase.failed += n as u64 - tag;
                phase.attempted = n as u64;
                break;
            }
        }
        // Spin, not sleep: a sleep's wake-up slack is the size of the
        // pause itself.
        let replied = Instant::now();
        while replied.elapsed() < THINK {
            std::hint::spin_loop();
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Per-connection progress of the busy phase.
struct BusyConn<'a> {
    conn: &'a mut Conn,
    sent: usize,
    issued_at: Vec<Instant>,
    done: usize,
}

/// The busy phase: every connection keeps [`WINDOW`] pings in flight
/// until it has completed `per_conn`, all driven from this one thread
/// over nonblocking sockets.
fn busy_phase(conns: &mut [Conn], payload: &Value, per_conn: usize) -> io::Result<Phase> {
    let total = conns.len() * per_conn;
    let mut phase = Phase { latencies_us: Vec::with_capacity(total), ..Phase::default() };
    let mut busy: Vec<BusyConn<'_>> = Vec::with_capacity(conns.len());
    for conn in conns {
        conn.stream.set_nonblocking(true)?;
        conn.out.clear();
        busy.push(BusyConn { conn, sent: 0, issued_at: Vec::with_capacity(per_conn), done: 0 });
    }
    let mut buf = vec![0u8; 16 * 1024];
    let cpu_before = Usage::now().cpu_ns;
    let start = Instant::now();
    let mut last_progress = start;
    let mut remaining = busy.len();
    while remaining > 0 {
        let mut progressed = false;
        for b in busy.iter_mut().filter(|b| b.done < per_conn) {
            while b.issued_at.len() < per_conn && b.issued_at.len() - b.done < WINDOW {
                let tag = b.issued_at.len() as u64;
                b.issued_at.push(Instant::now());
                b.conn.queue_ping(payload, tag)?;
                progressed = true;
            }
            while b.sent < b.conn.out.len() {
                match b.conn.stream.write(&b.conn.out[b.sent..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => {
                        b.sent += n;
                        phase.bytes += n as u64;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if b.sent == b.conn.out.len() {
                b.conn.out.clear();
                b.sent = 0;
            }
            loop {
                match b.conn.stream.read(&mut buf) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => {
                        b.conn.decoder.feed(&buf[..n]);
                        phase.bytes += n as u64;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            while let Some(reply) = b.conn.decoder.next_message(MAX_FRAME)? {
                // One broker answers one connection in order, so the
                // next reply is for the oldest ping in flight.
                let tag = b.done as u64;
                phase.latencies_us.push(b.issued_at[b.done].elapsed().as_secs_f64() * 1e6);
                if !reply_is_correct(&mut b.conn.core, reply, tag, payload) {
                    phase.failed += 1;
                }
                b.done += 1;
                if b.done == per_conn {
                    remaining -= 1;
                }
            }
        }
        if progressed {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > REPLY_TIMEOUT {
            break;
        } else {
            // Everything in flight is waiting on the reactor: give it
            // the core, but never sleep — a sleep would be in the RTT.
            std::thread::yield_now();
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.cpu_ns = Usage::now().cpu_ns.saturating_sub(cpu_before);
    phase.attempted = total as u64;
    phase.failed += (total - phase.latencies_us.len()) as u64;
    for b in &mut busy {
        b.conn.stream.set_nonblocking(false)?;
    }
    Ok(phase)
}

/// One timed round.
#[derive(Clone, Debug)]
pub struct Round {
    /// Wall-clock of the whole round, seconds.
    pub wall_s: f64,
    /// The quiet phase.
    pub quiet: Phase,
    /// The busy phase.
    pub busy: Phase,
}

/// Wall-clock cost of bringing one session up, µs-scale pieces kept
/// apart for the `rt.*` layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StartCost {
    /// `TcpSessionBuilder::start`, seconds.
    pub session_start_s: f64,
    /// Mean `connect_socket_client` of the three connections, seconds.
    pub connect_s: f64,
}

/// A running session with its three socket clients.
pub struct Bench {
    session: TcpSession,
    quiet: Conn,
    busy: [Conn; 2],
    payload: Value,
    sizes: Sizes,
}

impl Bench {
    /// Starts the broker, connects the three clients and sends the
    /// warm-up pings: everything `setup_s` covers.
    ///
    /// # Errors
    /// Fails if a connect fails or a warm-up ping goes wrong.
    pub fn start(payload: &Value, sizes: Sizes) -> io::Result<(Bench, StartCost)> {
        let t = Instant::now();
        let session = TcpSession::builder(1, 2, |_| standard_modules()).start();
        let session_start_s = t.elapsed().as_secs_f64();
        let addr = session.addrs()[0];
        let t = Instant::now();
        let conns = Conn::connect(addr)
            .and_then(|a| Ok((a, Conn::connect(addr)?)))
            .and_then(|(a, b)| Ok((a, b, Conn::connect(addr)?)));
        let (quiet, busy_a, busy_b) = match conns {
            Ok(c) => c,
            Err(e) => {
                session.shutdown();
                return Err(e);
            }
        };
        let connect_s = t.elapsed().as_secs_f64() / 3.0;
        let mut bench =
            Bench { session, quiet, busy: [busy_a, busy_b], payload: payload.clone(), sizes };
        let warmup = quiet_phase(&mut bench.quiet, payload, sizes.warmup);
        if warmup.failed > 0 {
            bench.shutdown();
            return Err(io::Error::other("warm-up ping failed"));
        }
        Ok((bench, StartCost { session_start_s, connect_s }))
    }

    /// Runs one round. `tracer` gets a `run` span with the two phases
    /// under it, each carrying its ping count.
    ///
    /// # Errors
    /// Fails if a busy connection breaks; the quiet phase reports broken
    /// connections as failed pings instead.
    pub fn round(&mut self, tracer: &mut Tracer) -> io::Result<Round> {
        let run = tracer.enter("run");
        let span = tracer.enter("quiet");
        let quiet = quiet_phase(&mut self.quiet, &self.payload, self.sizes.quiet);
        tracer.exit(span, quiet.attempted);
        let span = tracer.enter("busy");
        let busy = busy_phase(&mut self.busy, &self.payload, self.sizes.busy_per_conn);
        tracer.exit(span, (2 * self.sizes.busy_per_conn) as u64);
        let wall_s = tracer.exit(run, (self.sizes.quiet + 2 * self.sizes.busy_per_conn) as u64);
        Ok(Round { wall_s, quiet, busy: busy? })
    }

    /// Holds the connections open with no traffic for `window` and
    /// returns what the process cost meanwhile: `(cpu share of one core
    /// in percent, thread wake-ups per second)`.
    pub fn idle(&self, window: Duration) -> (f64, f64) {
        let before = Usage::now();
        let start = Instant::now();
        std::thread::sleep(window);
        let secs = start.elapsed().as_secs_f64();
        let after = Usage::now();
        (
            100.0 * after.cpu_ns.saturating_sub(before.cpu_ns) as f64 / 1e9 / secs,
            after.wakeups.saturating_sub(before.wakeups) as f64 / secs,
        )
    }

    /// Closes the clients, stops the broker and returns how long
    /// `TcpSession::shutdown` took, seconds.
    pub fn shutdown(self) -> f64 {
        let Bench { session, quiet, busy, .. } = self;
        drop((quiet, busy));
        let t = Instant::now();
        session.shutdown();
        t.elapsed().as_secs_f64()
    }
}

/// The transport floor under a ping: the median round trip, µs, of
/// `request_len` bytes out and `reply_len` bytes back between two plain
/// blocking `std::net` sockets in this process — no broker, no framing.
///
/// # Errors
/// Propagates socket errors.
pub fn rtt_floor_us(request_len: usize, reply_len: usize, n: usize) -> io::Result<f64> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let mut request = vec![0u8; request_len];
            let reply = vec![0u8; reply_len];
            for _ in 0..n {
                peer.read_exact(&mut request)?;
                peer.write_all(&reply)?;
            }
            Ok(())
        });
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let request = vec![0u8; request_len];
        let mut reply = vec![0u8; reply_len];
        let mut rtts = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            stream.write_all(&request)?;
            stream.read_exact(&mut reply)?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(stream);
        echo.join().map_err(|_| io::Error::other("echo thread panicked"))??;
        Ok(stats::median(&rtts))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ping_payload;

    #[test]
    fn a_round_completes_and_every_reply_verifies() {
        let sizes = Sizes { quiet: 50, busy_per_conn: 100, warmup: 5 };
        let (mut bench, cost) = Bench::start(&ping_payload(1), sizes).unwrap();
        assert!(cost.session_start_s > 0.0 && cost.connect_s > 0.0);
        let round = bench.round(&mut Tracer::new(false)).unwrap();
        assert_eq!((round.quiet.attempted, round.quiet.failed), (50, 0));
        assert_eq!((round.busy.attempted, round.busy.failed), (200, 0));
        assert_eq!(round.busy.latencies_us.len(), 200);
        assert!(round.busy.bytes > 200 * 64 * 2, "pads travel both ways");
        assert!(bench.shutdown() >= 0.0);
    }

    #[test]
    fn a_reply_with_the_wrong_pad_is_not_correct() {
        let (sent, expected) = (ping_payload(1), ping_payload(2));
        let mut core = ClientCore::new(Rank(0), 99);
        let echo = |core: &mut ClientCore, tag| {
            let request = core.request(CmbMethod::Ping.topic(), sent.clone(), tag);
            let mut echoed = sent.clone();
            echoed.insert("pong", Value::from(0u32));
            Message::response_to(&request, echoed)
        };
        let reply = echo(&mut core, 0);
        assert!(reply_is_correct(&mut core, reply, 0, &sent));
        // The broker echoes what it was sent, so expecting another seed's
        // pad is a wrong expectation.
        let reply = echo(&mut core, 1);
        assert!(!reply_is_correct(&mut core, reply, 1, &expected));
    }

    #[test]
    fn the_socket_floor_is_measurable() {
        assert!(rtt_floor_us(100, 140, 50).unwrap() > 0.0);
    }
}
