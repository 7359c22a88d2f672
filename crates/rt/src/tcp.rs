//! Comms sessions over real loopback TCP sockets — the live runtime: the
//! host loop and session scaffolding of [`crate::live`] over the
//! nonblocking socket link ([`crate::reactor`]).
//!
//! The closest live analogue of the prototype's ØMQ TCP overlay: one
//! thread per rank hosting the sans-io [`flux_broker::Broker`] and every
//! socket that rank owns. All sockets are nonblocking; the host
//! discovers readiness by level-triggered scanning and parks in the
//! broker's command channel when idle. There are no acceptor or reader
//! threads — a 1024-broker session costs 1024 threads, not `O(links)`.
//!
//! Wire-up: every rank binds a listener on `127.0.0.1:0` *before* any
//! broker starts, so the full address map is known up front — the moral
//! equivalent of the paper's PMI exchange of broker endpoints. Outbound
//! broker→broker traffic rides a small per-destination pool of
//! connections established lazily on first send; connects never block
//! the host — a refused connect is rescheduled by `RetrySchedule` with
//! jittered exponential backoff.
//! Each direction of a broker pair is its own connection; a link opens
//! with a 4-byte little-endian rank handshake so the accepting side can
//! attribute inbound frames.
//!
//! Clients come in two flavors: in-process channel attachments
//! ([`SessionBuilder::attach_client`](crate::SessionBuilder::attach_client),
//! the prototype's local IPC sockets), and *socket clients* — any process that connects to a
//! broker's listener, sends the [`CLIENT_HELLO`] sentinel, reads back
//! its assigned client id, and then speaks length-prefixed
//! [`flux_wire::frame`]s. Socket clients may pipeline arbitrarily many
//! requests on one stream; replies are matched by `MsgId` (see
//! [`flux_broker::client::ClientCore`]).
//!
//! Shutdown is ordered: each broker drains its channel, gets `Shutdown`,
//! flushes what it can without blocking, closes every socket, and its
//! thread is joined before `shutdown()` returns.

use crate::live::Session;
use flux_broker::ClientId;
use flux_core::rng::Rng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Handshake sentinel a socket client sends instead of a broker rank
/// (4 bytes, little-endian). The broker replies with the client's
/// assigned broker-local id — also 4 raw little-endian bytes — before
/// any frames. Real ranks are always below the session size, so the
/// sentinel cannot collide.
pub const CLIENT_HELLO: u32 = u32::MAX;

/// How one outbound link retries a refused connect.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryPolicy {
    /// Connect attempts per burst before giving up.
    pub(crate) max_attempts: u32,
    /// Backoff before the second connect attempt; doubles per attempt.
    pub(crate) initial_backoff: Duration,
    /// Ceiling on the per-attempt backoff (also the cool-down after a
    /// burst's budget is spent).
    pub(crate) max_backoff: Duration,
    /// Total time budget across one burst of connect attempts: once
    /// exceeded the link gives up, drops its queue, and cools down.
    pub(crate) deadline: Duration,
}

/// The policy every broker→broker link runs.
pub(crate) const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 6,
    initial_backoff: Duration::from_millis(20),
    max_backoff: Duration::from_secs(1),
    deadline: Duration::from_secs(15),
};

/// Nonblocking connect-retry state for one outbound link: when the next
/// attempt is allowed, how the backoff grows, and when a burst's budget
/// (attempt count or wall-clock deadline) is spent. Pure state machine —
/// it never sleeps; the link simply skips connects whose next attempt
/// isn't [`due`](RetrySchedule::due) yet. Backoff sleeps are jittered
/// uniform in `[backoff/2, backoff]` so a session's worth of brokers
/// retrying the same slow peer don't synchronize into connect storms.
#[derive(Clone, Debug, Default)]
pub(crate) struct RetrySchedule {
    attempts: u32,
    backoff: Duration,
    window_start: Option<Instant>,
    next_at: Option<Instant>,
}

impl RetrySchedule {
    /// Whether an attempt is allowed at `now`.
    pub(crate) fn due(&self, now: Instant) -> bool {
        self.next_at.is_none_or(|at| now >= at)
    }

    /// Records a successful connect: the schedule resets fully.
    pub(crate) fn succeeded(&mut self) {
        *self = RetrySchedule::default();
    }

    /// Records a failed attempt at `now`. Returns `true` if the burst
    /// may continue (a later attempt is scheduled), `false` when the
    /// budget — `max_attempts` or `deadline`, whichever trips first — is spent: the caller should drop queued traffic and
    /// the schedule enters a `max_backoff` cool-down before the next
    /// burst.
    pub(crate) fn failed(&mut self, now: Instant, policy: &RetryPolicy, jitter: &mut Rng) -> bool {
        self.attempts += 1;
        let window = *self.window_start.get_or_insert(now);
        let spent = self.attempts >= policy.max_attempts
            || now.duration_since(window) >= policy.deadline;
        if spent {
            self.attempts = 0;
            self.backoff = Duration::ZERO;
            self.window_start = None;
            self.next_at = Some(now + policy.max_backoff);
            return false;
        }
        if self.backoff.is_zero() {
            self.backoff = policy.initial_backoff;
        }
        let base = self.backoff.as_nanos() as u64;
        let wait = Duration::from_nanos(base / 2 + jitter.gen_range(0..=base.div_ceil(2)));
        self.next_at = Some(now + wait);
        self.backoff = (self.backoff * 2).min(policy.max_backoff);
        true
    }
}

/// Connects a *socket client* to a broker listening at `addr`: performs
/// the [`CLIENT_HELLO`] handshake and returns the stream plus the
/// broker-assigned client id (feed it to
/// [`flux_broker::client::ClientCore::new`] so request ids are
/// collision-free). The stream is left in blocking mode with `timeout`
/// as its read timeout; callers pipelining nonblocking I/O can flip it
/// with `set_nonblocking`.
///
/// # Errors
/// Propagates connect, write, and read failures; times out if the broker
/// does not answer the hello within `timeout`.
pub fn connect_socket_client(
    addr: SocketAddr,
    timeout: Duration,
) -> io::Result<(TcpStream, ClientId)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.write_all(&CLIENT_HELLO.to_le_bytes())?;
    let mut raw = [0u8; 4];
    stream.read_exact(&mut raw)?;
    Ok((stream, ClientId::from_le_bytes(raw)))
}

/// A comms session whose brokers are wired over loopback TCP: call
/// [`TcpSession::builder`], attach clients, then
/// [`start`](crate::SessionBuilder::start). In-process clients attach on
/// the builder; socket clients connect to [`addrs`](TcpSession::addrs)
/// after start and are assigned ids above the channel-attached range.
pub type TcpSession = Session;

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
            deadline: Duration::from_millis(400),
        }
    }

    // RetrySchedule is a pure state machine, so every timing property is
    // tested with synthetic instants — no sleeps, no flakes (the old
    // connect_with_retry tests raced the wall clock).

    #[test]
    fn fresh_schedule_is_due_immediately() {
        let s = RetrySchedule::default();
        assert!(s.due(Instant::now()));
    }

    #[test]
    fn failure_schedules_a_jittered_backoff() {
        let config = quick_config();
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::default();
        let now = Instant::now();
        assert!(s.failed(now, &config, &mut jitter), "burst continues");
        // The wait is uniform in [backoff/2, backoff].
        assert!(!s.due(now), "not due at the instant of failure");
        assert!(!s.due(now + config.initial_backoff / 2 - Duration::from_nanos(1)));
        assert!(s.due(now + config.initial_backoff), "due once the full backoff has passed");
    }

    #[test]
    fn backoff_doubles_up_to_the_ceiling() {
        let config = quick_config();
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::default();
        let mut now = Instant::now();
        let mut waits = Vec::new();
        // Wide budget so we observe growth, not give-up.
        let mut wide = config;
        wide.max_attempts = 100;
        wide.deadline = Duration::from_secs(3600);
        for _ in 0..5 {
            assert!(s.failed(now, &wide, &mut jitter));
            let next = s.next_at.unwrap();
            waits.push(next.duration_since(now));
            now = next;
        }
        // Ceiling: never above max_backoff.
        for w in &waits {
            assert!(*w <= wide.max_backoff, "wait {w:?} under ceiling");
        }
        // Growth: the last waits sit at the ceiling's jitter band.
        assert!(waits[4] >= wide.max_backoff / 2, "backoff reached the ceiling band");
    }

    #[test]
    fn attempt_budget_spends_the_burst_and_cools_down() {
        let config = quick_config(); // 3 attempts
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::default();
        let now = Instant::now();
        assert!(s.failed(now, &config, &mut jitter));
        assert!(s.failed(now, &config, &mut jitter));
        assert!(!s.failed(now, &config, &mut jitter), "third failure spends the budget");
        // Cool-down: not due until max_backoff has passed.
        assert!(!s.due(now + config.max_backoff - Duration::from_nanos(1)));
        assert!(s.due(now + config.max_backoff));
    }

    #[test]
    fn deadline_budget_spends_the_burst_even_with_attempts_left() {
        let mut config = quick_config();
        config.max_attempts = u32::MAX;
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::default();
        let t0 = Instant::now();
        assert!(s.failed(t0, &config, &mut jitter));
        // Next failure lands after the retry deadline: burst over.
        assert!(!s.failed(t0 + config.deadline, &config, &mut jitter));
    }

    #[test]
    fn success_resets_the_schedule() {
        let config = quick_config();
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::default();
        let now = Instant::now();
        assert!(s.failed(now, &config, &mut jitter));
        s.succeeded();
        assert!(s.due(now), "fresh after success");
        assert_eq!(s.attempts, 0);
    }

    #[test]
    fn client_hello_cannot_collide_with_a_rank() {
        // Ranks are u32 indices below the session size; a session of
        // u32::MAX brokers is unrepresentable (the tree parent math
        // alone overflows), so the sentinel is safe.
        assert_eq!(CLIENT_HELLO, u32::MAX);
    }
}
