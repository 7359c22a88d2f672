//! The live (wall-clock) host.
//!
//! [`tcp::TcpSession`](crate::tcp::TcpSession) is this module's
//! [`Session`]: one thread per broker, each running the event loop
//! ([`BrokerHost::run`]) over the sans-io [`Host`], with one
//! time-ordered queue of timer fires and fault-delayed sends, over that
//! broker's nonblocking socket link ([`ReactorPeers`]), plus the
//! session scaffolding ([`SessionBuilder`] → [`Session`]) and the client
//! attachment model (in-process clients talk to their local broker over
//! a channel, the moral equivalent of the prototype's IPC sockets).

use crate::faults::FaultPlan;
use crate::host::{Effect, Host};
use crate::reactor::ReactorPeers;
use flux_broker::{Broker, BrokerConfig, ClientId, CommsModule};
use flux_wire::{Message, Rank};
use std::collections::BTreeMap;
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

/// What the loop owes later: a timer fire or a fault-delayed send.
enum Owed {
    Timer(u64),
    Send(Rank, Message),
}

/// The per-thread broker event loop, a driver over the sans-io [`Host`]:
/// it services what has come due, drains its channel and its link's
/// sockets, and otherwise sleeps in `recv_timeout` until traffic
/// arrives, so a broker thread is quiet when the session is quiet (the
/// low-noise design goal).
pub(crate) struct BrokerHost {
    host: Host,
    rx: Receiver<Event>,
    io: Io,
}

/// The loop's side of every [`Effect`].
struct Io {
    link: ReactorPeers,
    clients: Vec<Sender<Message>>,
    epoch: Instant,
    /// Everything owed later, keyed by `(due, seq)`: earliest first,
    /// FIFO among equal instants.
    due: BTreeMap<(Instant, u64), Owed>,
    seq: u64,
}

impl Io {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn owe(&mut self, delay_ns: u64, owed: Owed) {
        self.seq += 1;
        self.due.insert((Instant::now() + Duration::from_nanos(delay_ns), self.seq), owed);
    }

    /// Carries out one of the host's effects: an undelayed send goes to
    /// the link at once, a delayed one and a timer onto the queue.
    fn apply(&mut self, effect: Effect) {
        match effect {
            Effect::Send { to, msg, delay_ns: 0 } => self.link.send_to(to, msg),
            Effect::Send { to, msg, delay_ns } => self.owe(delay_ns, Owed::Send(to, msg)),
            Effect::Reply { client, msg } => {
                if let Some(tx) = self.clients.get(client as usize) {
                    let _ = tx.send(msg);
                } else {
                    // Not channel-attached: a socket client.
                    self.link.deliver_client(client, msg);
                }
            }
            Effect::Timer { delay_ns, token } => self.owe(delay_ns, Owed::Timer(token)),
        }
    }
}

impl BrokerHost {
    /// Fires every due timer and releases every due delayed send, in
    /// due order.
    fn service_due(&mut self) {
        let now = Instant::now();
        while let Some(entry) = self.io.due.first_entry() {
            if entry.key().0 > now {
                break;
            }
            match entry.remove() {
                Owed::Send(to, msg) => self.io.link.send_to(to, msg),
                Owed::Timer(token) => {
                    let now_ns = self.io.now_ns();
                    self.host.timer(now_ns, token, |e| self.io.apply(e));
                }
            }
        }
    }

    /// How long to park at `now` after `idle_streak` passes without
    /// progress: until the queue's next due entry (a timer or a delayed
    /// send), but never past the link's poll budget.
    fn park_timeout(&self, idle_streak: u32, now: Instant) -> Duration {
        let budget = self.io.link.park_budget(idle_streak);
        match self.io.due.first_key_value() {
            Some((&(at, _), _)) => at.saturating_duration_since(now).min(budget),
            None => budget,
        }
    }

    /// Feeds one event into the host; returns `false` on `Shutdown`.
    fn handle_event(&mut self, ev: Event) -> bool {
        let now_ns = self.io.now_ns();
        let sink = |e| self.io.apply(e);
        match ev {
            Event::Shutdown => return false,
            Event::FromBroker { from, msg } => self.host.on_broker(now_ns, from, msg, sink),
            Event::FromClient { client, msg } => self.host.on_client(now_ns, client, msg, sink),
        }
        true
    }

    /// Feeds every event of `batch`; returns `false` on `Shutdown`.
    fn handle_batch(&mut self, batch: &mut Vec<Event>) -> bool {
        batch.drain(..).all(|ev| self.handle_event(ev))
    }

    /// The event loop: due timers and delayed sends, then the command
    /// channel (local clients, shutdown), then one readiness pass over
    /// the link's sockets; it parks in the channel — which doubles as the
    /// timer/fault-release alarm — only when a full pass moved nothing.
    pub(crate) fn run(mut self) {
        let now_ns = self.io.now_ns();
        self.host.start(now_ns, |e| self.io.apply(e));
        let mut batch: Vec<Event> = Vec::new();
        let mut idle_streak: u32 = 0;
        'outer: loop {
            self.service_due();
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
            let io_progress = self.io.link.poll_io(&mut batch);
            let had_frames = !batch.is_empty();
            if !self.handle_batch(&mut batch) {
                break;
            }
            if had_frames || channel_work {
                // Replies produced this pass should hit the wire now, not
                // a park later.
                self.io.link.poll_io(&mut batch);
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
        self.io.link.close();
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
        self.faults = Some(plan.clone());
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
                    host: Host::new(Broker::new(seat.config, seat.modules), self.faults.as_ref()),
                    rx: seat.rx,
                    io: Io { link, clients: seat.clients, epoch, due: BTreeMap::new(), seq: 0 },
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
        let host = Host::new(Broker::new(BrokerConfig::new(Rank(0), 1), Vec::new()), None);
        let io = Io { link, clients: Vec::new(), epoch: now, due: BTreeMap::new(), seq: 0 };
        let mut host = BrokerHost { host, rx, io };
        // Nothing owed: the idle budget alone bounds the park.
        assert_eq!(host.park_timeout(5, now), ms(10));
        // A timer due before the budget runs out bounds the park; the
        // budget still wins when it is the shorter of the two.
        host.io.due.insert((now + ms(3), 1), Owed::Timer(7));
        assert_eq!(host.park_timeout(5, now), ms(3));
        assert_eq!(host.park_timeout(1, now), ms(1));
        // So does a fault-delayed send due sooner still, in the same queue.
        let id = MsgId { origin: Rank(0), seq: 1 };
        let msg = Message::request(CmbMethod::Ping.topic(), id, Rank(0), Value::Null);
        host.io.due.insert((now + ms(2), 2), Owed::Send(Rank(0), msg));
        assert_eq!(host.park_timeout(5, now), ms(2));
        // Overdue scheduled work means no park at all.
        assert_eq!(host.park_timeout(5, now + Duration::from_secs(1)), Duration::ZERO);
    }
}
