//! Runtime-selectable transports.
//!
//! * [`TransportKind`] names a runtime (`sim`, `tcp`) in bench
//!   documents.
//! * [`LiveTransport`] is the one value for the live (wall-clock)
//!   runtime: the fault plan its loopback-TCP sessions run under and the
//!   per-op script timeout. [`LiveTransport::with_session`] hosts one
//!   session around a closure.
//! * [`ScriptTransport`] — runs a batch of scripted client workloads
//!   ([`Op`] sequences) to completion and reports per-op results. Both
//!   [`SimTransport`] (virtual time) and [`LiveTransport`] (each script
//!   on its own thread, through [`drive_script`]) implement it over the
//!   one [`Script`] interpreter. The KAP runner is written against this
//!   trait, so one workload runs on the simulator or over real sockets.

use crate::faults::FaultPlan;
use crate::live::LiveClient;
use crate::script::{Op, Script, ScriptClient, Step};
use crate::sim::SimSession;
use crate::tcp::TcpSession;
use flux_broker::client::ClientCore;
use flux_broker::{BrokerConfig, CommsModule, RankOverlay};
use flux_sim::{NetParams, SimTime};
use flux_wire::Rank;
use std::time::{Duration, Instant};

/// The per-rank module factory every transport consumes.
pub type ModuleFactory<'a> = &'a (dyn Fn(Rank) -> Vec<Box<dyn CommsModule>> + 'a);

/// Which runtime hosts a session, as bench documents name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Discrete-event simulator, virtual time.
    Sim,
    /// OS threads with nonblocking loopback TCP links.
    Tcp,
}

impl TransportKind {
    /// Stable name used in bench documents.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// The live (wall-clock) runtime as a value: the fault plan its
/// loopback-TCP sessions run under, and how long a script driver waits
/// for any single op's reply before recording `ETIMEDOUT`. The default
/// runs fault-free with a 30-second op timeout.
#[derive(Clone, Debug)]
pub struct LiveTransport {
    faults: Option<FaultPlan>,
    op_timeout: Duration,
}

impl Default for LiveTransport {
    fn default() -> LiveTransport {
        LiveTransport { faults: None, op_timeout: Duration::from_secs(30) }
    }
}

impl LiveTransport {
    /// Runs every session this transport opens under `plan`, so the same
    /// seeded fault schedule that drives a simulator run can wrap the TCP
    /// runtime. The op timeout is [`LiveTransport::with_op_timeout`]'s.
    pub fn with_faults(mut self, plan: FaultPlan) -> LiveTransport {
        self.faults = Some(plan);
        self
    }

    /// Overrides the per-op script timeout.
    pub fn with_op_timeout(mut self, timeout: Duration) -> LiveTransport {
        self.op_timeout = timeout;
        self
    }

    /// Hosts one loopback-TCP session of `size` brokers with tree
    /// `arity`: attaches one client per entry of `ranks`, starts the
    /// session, hands the clients to `body`, and shuts the session down
    /// when `body` returns.
    pub fn with_session<R>(
        &self,
        size: u32,
        arity: u32,
        factory: ModuleFactory<'_>,
        ranks: &[Rank],
        body: impl FnOnce(Vec<LiveClient>) -> R,
    ) -> R {
        let mut builder = TcpSession::builder(size, arity, factory);
        if let Some(plan) = &self.faults {
            builder.set_faults(plan);
        }
        let clients = ranks.iter().map(|&rank| builder.attach_client(rank)).collect();
        let session = builder.start();
        let result = body(clients);
        session.shutdown();
        result
    }
}

/// What one script recorded, on any transport: [`Script`] writes it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ScriptOutcome {
    /// Completion time of each op (ns since the session epoch).
    pub op_done_ns: Vec<u64>,
    /// Error number per op (0 = success).
    pub op_err: Vec<u32>,
    /// Reply payload per op, as the broker handed it over: a reply that
    /// many clients share is kept by reference, not copied (a pause or an
    /// abandoned op records `Null`).
    pub replies: Vec<flux_wire::Payload>,
    /// True once every op completed.
    pub finished: bool,
}

/// What a scripted run produced, across all scripts.
///
/// Equality compares the *observable* results (outcomes, virtual-time
/// makespan, event and byte counts). The wall-clock diagnostics
/// (`wall_ns`, `events_per_sec`) are excluded — they vary run to run on
/// the same input, and determinism tests compare whole reports.
#[derive(Debug, Default, Clone)]
pub struct ScriptReport {
    /// One outcome per submitted script, in submission order.
    pub outcomes: Vec<ScriptOutcome>,
    /// When the run finished (ns since the session epoch; virtual or
    /// wall-clock depending on the transport).
    pub makespan_ns: u64,
    /// Engine events processed (simulator only; 0 on live transports).
    pub events: u64,
    /// Bytes moved over all links (simulator only; 0 on live transports).
    pub bytes: u64,
    /// Host wall-clock the engine spent dispatching, ns (simulator only;
    /// live transports' makespan *is* wall time, so this stays 0).
    pub wall_ns: u64,
    /// The engine's self-reported dispatch rate, events per wall-clock
    /// second (simulator only). Diagnostic — never compare across hosts.
    pub events_per_sec: f64,
}

impl PartialEq for ScriptReport {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes
            && self.makespan_ns == other.makespan_ns
            && self.events == other.events
            && self.bytes == other.bytes
    }
}

/// Runs batches of scripted clients to completion. The abstraction the
/// KAP runner targets: one workload definition, any runtime.
pub trait ScriptTransport {
    /// Short name ("sim", "tcp").
    fn name(&self) -> &'static str;

    /// Builds a session, runs every `(rank, ops)` script against it, and
    /// tears the session down.
    fn run_scripts(
        &self,
        size: u32,
        arity: u32,
        factory: ModuleFactory<'_>,
        scripts: Vec<(Rank, Vec<Op>)>,
    ) -> ScriptReport;
}

/// The discrete-event simulator as a script runner.
#[derive(Clone, Debug, Default)]
pub struct SimTransport {
    /// Simulated network parameters.
    pub net: NetParams,
    /// Fault-injection plan applied to every broker link.
    pub faults: Option<FaultPlan>,
    /// Virtual-time deadline for the run. Required when the module set
    /// generates periodic traffic forever (e.g. heartbeats), since the
    /// event heap never drains on its own then.
    pub deadline_ns: Option<u64>,
    /// Topology of the rank-addressed RPC overlay. The default ring is
    /// the paper prototype's debugging choice; sharded KVS sessions
    /// route commit parts rank-addressed on the hot path and run the
    /// fully connected overlay instead.
    pub overlay: RankOverlay,
}

impl ScriptTransport for SimTransport {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run_scripts(
        &self,
        size: u32,
        arity: u32,
        factory: ModuleFactory<'_>,
        scripts: Vec<(Rank, Vec<Op>)>,
    ) -> ScriptReport {
        let overlay = self.overlay;
        let config =
            move |r: Rank| BrokerConfig::new(r, size).with_arity(arity).with_rank_overlay(overlay);
        let mut session =
            SimSession::with_config(size, self.net, config, factory, self.faults.as_ref());
        let handles: Vec<_> = scripts
            .into_iter()
            .map(|(rank, ops)| ScriptClient::spawn(&mut session, rank, ops))
            .collect();
        let end = match self.deadline_ns {
            Some(ns) => session.run_until(SimTime::from_nanos(ns)),
            // An unbudgeted run cannot livelock-error; if it ever did, its
            // timestamp still ends the run.
            None => session.run_until_quiet(None).unwrap_or_else(|e| e.at),
        };
        let stats = session.engine().stats();
        let outcomes = handles.iter().map(|h| h.take()).collect();
        let throughput = session.engine().throughput();
        ScriptReport {
            outcomes,
            makespan_ns: end.as_nanos(),
            events: stats.events,
            bytes: stats.bytes_delivered,
            wall_ns: throughput.wall.as_nanos() as u64,
            events_per_sec: throughput.events_per_sec,
        }
    }
}

/// Drives one op script synchronously over a live client: the live
/// driver of [`Script`], stamping completion times in wall-clock ns since
/// `epoch`. Any single op left unanswered for `op_timeout` abandons the
/// script with `ETIMEDOUT`.
pub fn drive_script(
    client: &LiveClient,
    ops: &[Op],
    epoch: Instant,
    op_timeout: Duration,
) -> ScriptOutcome {
    let mut script = Script::new(ClientCore::new(client.rank, client.client_id), ops.to_vec());
    let mut out = ScriptOutcome::default();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut step = script.issue(&mut out);
    loop {
        step = match step {
            Step::Done => return out,
            // Script drivers run on their own threads, where a pause
            // *means* a wall-clock sleep: client think time between ops.
            Step::Pause(ns) => {
                std::thread::sleep(Duration::from_nanos(ns));
                script.paused(now_ns(), &mut out)
            }
            Step::Send(msg) => {
                client.send(msg);
                let deadline = Instant::now() + op_timeout;
                loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        script.abandon(now_ns(), &mut out);
                        return out;
                    }
                    let Some(msg) = client.recv_timeout(left) else { continue };
                    if let Some(next) = script.deliver(msg, now_ns(), &mut out) {
                        break next;
                    }
                }
            }
        };
    }
}

impl ScriptTransport for LiveTransport {
    fn name(&self) -> &'static str {
        TransportKind::Tcp.name()
    }

    fn run_scripts(
        &self,
        size: u32,
        arity: u32,
        factory: ModuleFactory<'_>,
        scripts: Vec<(Rank, Vec<Op>)>,
    ) -> ScriptReport {
        let (ranks, scripts): (Vec<Rank>, Vec<Vec<Op>>) = scripts.into_iter().unzip();
        let op_timeout = self.op_timeout;
        self.with_session(size, arity, factory, &ranks, |clients| {
            let epoch = Instant::now();
            #[expect(
                clippy::expect_used,
                reason = "benchmark-harness setup; failing to spawn a driver invalidates the run"
            )]
            let drivers: Vec<_> = clients
                .into_iter()
                .zip(scripts)
                .map(|(client, ops)| {
                    std::thread::Builder::new()
                        .name(format!("flux-script-{}", client.rank.0))
                        .spawn(move || drive_script(&client, &ops, epoch, op_timeout))
                        .expect("spawn script driver")
                })
                .collect();
            // run_scripts *is* the wait for every script driver to
            // finish; nothing else runs on this thread until they do.
            #[expect(
                clippy::expect_used,
                reason = "propagating a driver thread's panic into the harness is the point: \
                          a crashed script must fail the benchmark run, not produce a partial \
                          report"
            )]
            let outcomes: Vec<ScriptOutcome> =
                drivers.into_iter().map(|d| d.join().expect("script driver panicked")).collect();
            let makespan_ns = epoch.elapsed().as_nanos() as u64;
            ScriptReport { outcomes, makespan_ns, ..ScriptReport::default() }
        })
    }
}
