//! The live (wall-clock) host.
//!
//! [`tcp::TcpSession`](crate::tcp::TcpSession) is this module's
//! [`Session`]: one thread per broker, each running the event loop
//! ([`BrokerHost::run`]) with its timer heap and fault-delay heap over
//! that broker's nonblocking socket link ([`ReactorPeers`]), plus the
//! session scaffolding ([`SessionBuilder`] → [`Session`]) and the client
//! attachment model (in-process clients talk to their local broker over
//! a channel, the moral equivalent of the prototype's IPC sockets).

use crate::faults::{FaultPlan, LinkFaults};
use crate::plane_of;
use crate::reactor::ReactorPeers;
use flux_broker::{Broker, BrokerConfig, ClientId, CommsModule, Input, Output};
use flux_wire::{Message, Plane, Rank};
use std::collections::BinaryHeap;
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::{Duration, Instant};

/// What flows into a broker thread.
pub(crate) enum Event {
    /// A message from a peer broker.
    FromBroker {
        /// Sending rank.
        from: Rank,
        /// The message.
        msg: Message,
    },
    /// A request from a locally attached client.
    FromClient {
        /// Broker-local client id.
        client: ClientId,
        /// The request.
        msg: Message,
    },
    /// Stop the broker thread.
    Shutdown,
}

/// A client connection to a broker in a live session.
///
/// In-process clients exchange messages with their local broker over a
/// channel (the prototype's local IPC socket), while broker↔broker
/// traffic rides the socket link.
pub struct LiveClient {
    /// The rank this client is attached to.
    pub rank: Rank,
    /// The broker-local client id.
    pub client_id: ClientId,
    pub(crate) tx: Sender<Event>,
    pub(crate) rx: Receiver<Message>,
}

impl LiveClient {
    /// Sends a request to the local broker.
    pub fn send(&self, msg: Message) {
        let _ = self.tx.send(Event::FromClient { client: self.client_id, msg });
    }

    /// Receives the next message (response or subscribed event), waiting
    /// up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// A fault-delayed outbound message awaiting release. Ordered by
/// `(at, seq)` so the host's `BinaryHeap` acts as a min-heap with FIFO
/// tie-breaking.
struct Delayed {
    at: Instant,
    seq: u64,
    to: Rank,
    msg: Message,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the earliest release time is the heap maximum.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The per-thread broker event loop: services due timers from a local
/// heap, drains its channel and its link's sockets, and otherwise sleeps
/// in `recv_timeout` until traffic arrives, so a broker thread is quiet
/// when the session is quiet (the low-noise design goal).
///
/// With `faults` set, every outbound broker message consults the link's
/// fault stream (drop/dup/delay), inbound traffic is discarded while
/// this rank is inside a blackout window, and delayed copies sit in
/// `delayed` until their release time.
pub(crate) struct BrokerHost {
    broker: Broker,
    rx: Receiver<Event>,
    link: ReactorPeers,
    clients: Vec<Sender<Message>>,
    epoch: Instant,
    timers: BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
    faults: Option<LinkFaults>,
    delayed: BinaryHeap<Delayed>,
    delay_seq: u64,
}

impl BrokerHost {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn silenced(&self, now_ns: u64) -> bool {
        self.faults.as_ref().is_some_and(|f| f.silenced(now_ns))
    }

    fn send_to_broker(&mut self, now_ns: u64, plane: Plane, to: Rank, msg: Message) {
        let Some(f) = &mut self.faults else {
            self.link.send_to(to, msg);
            return;
        };
        for &extra in &f.fate_on(plane, now_ns, to).copies {
            if extra == 0 {
                self.link.send_to(to, msg.clone());
            } else {
                self.delay_seq += 1;
                self.delayed.push(Delayed {
                    at: Instant::now() + Duration::from_nanos(extra),
                    seq: self.delay_seq,
                    to,
                    msg: msg.clone(),
                });
            }
        }
    }

    /// Performs `outs`, then hands the drained `Vec` back to the broker.
    fn absorb(&mut self, mut outs: Vec<Output>) {
        let now_ns = self.now_ns();
        for out in outs.drain(..) {
            match out {
                Output::ToBroker { plane, to, msg } => self.send_to_broker(now_ns, plane, to, msg),
                Output::ToClient { client, msg } => {
                    // A blacked-out broker cannot answer its clients.
                    if self.silenced(now_ns) {
                        continue;
                    }
                    if let Some(tx) = self.clients.get(client as usize) {
                        let _ = tx.send(msg);
                    } else {
                        // Not channel-attached: a socket client.
                        self.link.deliver_client(client, msg);
                    }
                }
                Output::SetTimer { delay_ns, token } => {
                    let at = Instant::now() + Duration::from_nanos(delay_ns);
                    self.timers.push(std::cmp::Reverse((at, token)));
                }
            }
        }
        self.broker.recycle(outs);
    }

    /// Fires every due timer. (Timers run even during a blackout —
    /// `absorb` suppresses their outputs — so periodic re-arm chains
    /// survive a simulated crash/restart.)
    fn service_timers(&mut self) {
        let now = Instant::now();
        while let Some(&std::cmp::Reverse((at, token))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            let now_ns = self.now_ns();
            let outs = self.broker.handle(now_ns, Input::Timer { token });
            self.absorb(outs);
        }
    }

    /// Releases fault-delayed messages that have come due.
    fn release_delayed(&mut self) {
        while let Some(d) = self.delayed.peek() {
            if d.at > Instant::now() {
                break;
            }
            let Some(d) = self.delayed.pop() else { break };
            self.link.send_to(d.to, d.msg);
        }
    }

    /// How long to park at `now` after `idle_streak` passes without
    /// progress: until the next scheduled work (timer fire or delayed
    /// release), but never past the link's poll budget.
    fn park_timeout(&self, idle_streak: u32, now: Instant) -> Duration {
        let budget = self.link.park_budget(idle_streak);
        let timer = self.timers.peek().map(|&std::cmp::Reverse((at, _))| at);
        let release = self.delayed.peek().map(|d| d.at);
        match timer.into_iter().chain(release).min() {
            Some(at) => at.saturating_duration_since(now).min(budget),
            None => budget,
        }
    }

    /// Feeds one event into the broker; returns `false` on `Shutdown`.
    fn handle_event(&mut self, ev: Event) -> bool {
        let now_ns = self.now_ns();
        let input = match ev {
            Event::Shutdown => return false,
            Event::FromBroker { from, msg } => {
                Input::FromBroker { plane: plane_of(&msg), from, msg }
            }
            Event::FromClient { client, msg } => Input::FromClient { client, msg },
        };
        // Crashed: inbound traffic is lost, local clients get no service.
        if !self.silenced(now_ns) {
            let outs = self.broker.handle(now_ns, input);
            self.absorb(outs);
        }
        true
    }

    /// Feeds every event of `batch`; returns `false` on `Shutdown`.
    fn handle_batch(&mut self, batch: &mut Vec<Event>) -> bool {
        batch.drain(..).all(|ev| self.handle_event(ev))
    }

    /// The event loop: due timers and fault releases, then the command
    /// channel (local clients, shutdown), then one readiness pass over
    /// the link's sockets; it parks in the channel — which doubles as the
    /// timer/fault-release alarm — only when a full pass moved nothing.
    pub(crate) fn run(mut self) {
        let outs = self.broker.start(self.now_ns());
        self.absorb(outs);
        let mut batch: Vec<Event> = Vec::new();
        let mut idle_streak: u32 = 0;
        'outer: loop {
            self.service_timers();
            self.release_delayed();
            let mut channel_work = false;
            loop {
                match self.rx.try_recv() {
                    Ok(ev) => {
                        channel_work = true;
                        if !self.handle_event(ev) {
                            break 'outer;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break 'outer,
                }
            }
            let io_progress = self.link.poll_io(&mut batch);
            let had_frames = !batch.is_empty();
            if !self.handle_batch(&mut batch) {
                break;
            }
            if had_frames || channel_work {
                // Replies produced this pass should hit the wire now, not
                // a park later.
                self.link.poll_io(&mut batch);
                if !self.handle_batch(&mut batch) {
                    break;
                }
            }
            if io_progress || had_frames || channel_work {
                idle_streak = 0;
                continue;
            }
            idle_streak = idle_streak.saturating_add(1);
            match self.rx.recv_timeout(self.park_timeout(idle_streak, Instant::now())) {
                Ok(ev) => {
                    idle_streak = 0;
                    if !self.handle_event(ev) {
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.link.close();
    }
}

/// One rank of a session being assembled.
struct Seat {
    config: BrokerConfig,
    modules: Vec<Box<dyn CommsModule>>,
    rx: Receiver<Event>,
    clients: Vec<Sender<Message>>,
}

/// A live session being assembled: override configs, attach clients,
/// then [`start`](SessionBuilder::start).
pub struct SessionBuilder {
    seats: Vec<Seat>,
    senders: Vec<Sender<Event>>,
    faults: Option<FaultPlan>,
}

/// A running live session: one thread per broker, each hosting the
/// sans-io [`Broker`] in the event loop over its socket link.
pub struct Session {
    addrs: Vec<SocketAddr>,
    senders: Vec<Sender<Event>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Session {
    /// Starts building a session of `size` brokers with tree `arity`;
    /// `factory` produces each rank's modules.
    pub fn builder<F>(size: u32, arity: u32, factory: F) -> SessionBuilder
    where
        F: Fn(Rank) -> Vec<Box<dyn CommsModule>>,
    {
        let (senders, seats) = (0..size)
            .map(|r| {
                let (tx, rx) = channel();
                let config = BrokerConfig::new(Rank(r), size).with_arity(arity);
                (tx, Seat { config, modules: factory(Rank(r)), rx, clients: Vec::new() })
            })
            .unzip();
        SessionBuilder { seats, senders, faults: None }
    }

    /// Session size in brokers.
    pub fn size(&self) -> u32 {
        self.senders.len() as u32
    }

    /// The loopback address each rank's broker listens on. Socket
    /// clients connect here (see [`crate::tcp::connect_socket_client`]).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Stops every broker thread and joins it. Each host closes its link
    /// on the way out: it flushes what it can without blocking, and
    /// socket clients observe EOF.
    ///
    /// # Panics
    /// Re-raises the first panic of a broker thread, once every thread
    /// is joined.
    pub fn shutdown(self) {
        for tx in &self.senders {
            let _ = tx.send(Event::Shutdown);
        }
        // Ordered teardown: every broker was just sent Shutdown, so each
        // join only waits for its thread to drain and exit.
        let mut panic = None;
        for h in self.handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl SessionBuilder {
    /// Overrides one rank's broker config (e.g. a faster heartbeat).
    pub fn set_config(&mut self, rank: Rank, config: BrokerConfig) -> &mut Self {
        self.seats[rank.index()].config = config;
        self
    }

    /// Applies a fault-injection plan to every broker's links.
    pub fn set_faults(&mut self, plan: &FaultPlan) -> &mut Self {
        self.faults = Some(plan.clone()).filter(|p| !p.is_empty());
        self
    }

    /// Attaches an in-process channel client to `rank`'s broker,
    /// returning its handle.
    pub fn attach_client(&mut self, rank: Rank) -> LiveClient {
        let (tx, rx) = channel();
        let clients = &mut self.seats[rank.index()].clients;
        let client_id = clients.len() as ClientId;
        clients.push(tx);
        LiveClient { rank, client_id, tx: self.senders[rank.index()].clone(), rx }
    }

    /// Binds every rank's listener, then launches one thread per broker.
    /// The session epoch (t = 0) is shared.
    ///
    /// # Panics
    /// Panics if a loopback listener cannot be bound or a thread cannot
    /// be spawned.
    pub fn start(self) -> Session {
        let channel_clients: Vec<ClientId> =
            self.seats.iter().map(|s| s.clients.len() as ClientId).collect();
        let (addrs, links) = ReactorPeers::wire(&channel_clients);
        let epoch = Instant::now();
        let handles = self
            .seats
            .into_iter()
            .zip(links)
            .enumerate()
            .map(|(idx, (seat, link))| {
                let host = BrokerHost {
                    broker: Broker::new(seat.config, seat.modules),
                    rx: seat.rx,
                    link,
                    clients: seat.clients,
                    epoch,
                    timers: BinaryHeap::new(),
                    faults: self.faults.as_ref().map(|p| p.for_sender(Rank::from(idx))),
                    delayed: BinaryHeap::new(),
                    delay_seq: 0,
                };
                std::thread::Builder::new()
                    .name(format!("flux-broker-{idx}"))
                    .spawn(move || host.run())
                    // flux-lint: allow(panic) — setup-time thread spawn,
                    // covered by the documented `# Panics` contract: a
                    // session that cannot start has nothing to degrade to.
                    .expect("spawn broker thread")
            })
            .collect();
        Session { addrs, senders: self.senders, handles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_proto::CmbMethod;
    use flux_value::Value;
    use flux_wire::MsgId;

    #[test]
    fn a_pending_timer_bounds_the_park_not_the_idle_budget() {
        let (_tx, rx) = channel();
        let link = ReactorPeers::wire(&[0]).1.remove(0);
        let ms = Duration::from_millis;
        // The link's backoff: 1 ms after one idle pass, doubling per pass
        // to the 10 ms ceiling (reached at streak 5, held beyond it).
        let budgets = [1, 2, 3, 4, 5, 20].map(|streak| link.park_budget(streak));
        assert_eq!(budgets, [ms(1), ms(2), ms(4), ms(8), ms(10), ms(10)]);

        let now = Instant::now();
        let mut host = BrokerHost {
            broker: Broker::new(BrokerConfig::new(Rank(0), 1), Vec::new()),
            rx,
            link,
            clients: Vec::new(),
            epoch: now,
            timers: BinaryHeap::new(),
            faults: None,
            delayed: BinaryHeap::new(),
            delay_seq: 0,
        };
        // Nothing scheduled: the idle budget alone bounds the park.
        assert_eq!(host.park_timeout(5, now), ms(10));
        // A timer due before the budget runs out bounds the park; the
        // budget still wins when it is the shorter of the two.
        host.timers.push(std::cmp::Reverse((now + ms(3), 7)));
        assert_eq!(host.park_timeout(5, now), ms(3));
        assert_eq!(host.park_timeout(1, now), ms(1));
        // So does a fault-delayed release due sooner still.
        let id = MsgId { origin: Rank(0), seq: 1 };
        let msg = Message::request(CmbMethod::Ping.topic(), id, Rank(0), Value::Null);
        host.delayed.push(Delayed { at: now + ms(2), seq: 1, to: Rank(0), msg });
        assert_eq!(host.park_timeout(5, now), ms(2));
        // Overdue scheduled work means no park at all.
        assert_eq!(host.park_timeout(5, now + Duration::from_secs(1)), Duration::ZERO);
    }
}
