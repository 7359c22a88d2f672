//! Runtime-selectable transports.
//!
//! * [`TransportKind`] names a runtime (`sim`, `threads`, `tcp`) on CLI
//!   flags and in bench documents.
//! * [`LiveTransport`] is the one value for a *live* (wall-clock)
//!   runtime: which link hosts the session, an optional fault plan, and
//!   the per-op script timeout. [`LiveTransport::with_session`] is where
//!   the link is selected.
//! * [`ScriptTransport`] — runs a batch of scripted client workloads
//!   ([`Op`] sequences) to completion and reports per-op results. Both
//!   [`SimTransport`] (virtual time) and [`LiveTransport`] (each script
//!   on its own thread) implement it. The KAP benchmark runner is written
//!   against this trait, so the same workload runs on the simulator or
//!   over real sockets.

use crate::faults::FaultPlan;
use crate::live::{LiveClient, PeerSender, SessionBuilder};
use crate::script::{Op, Outcome, ScriptClient};
use crate::sim::SimSession;
use crate::tcp::TcpSession;
use crate::threads::ThreadSession;
use flux_broker::client::{ClientCore, Delivery};
use flux_broker::{BrokerConfig, CommsModule, RankOverlay};
use flux_sim::{NetParams, SimTime};
use flux_wire::{errnum, Rank};
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The per-rank module factory every transport consumes.
pub type ModuleFactory<'a> = &'a (dyn Fn(Rank) -> Vec<Box<dyn CommsModule>> + 'a);

/// Which runtime hosts a session. Parsed from CLI flags and test
/// environment variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Discrete-event simulator, virtual time.
    Sim,
    /// OS threads with channel links.
    Threads,
    /// OS threads with nonblocking loopback TCP links.
    Tcp,
}

impl TransportKind {
    /// Stable name used on the command line and in bench documents.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Threads => "threads",
            TransportKind::Tcp => "tcp",
        }
    }

    /// The live transport for this kind, or `None` for the simulator
    /// (which runs in virtual time and has no live session form).
    pub fn live(self) -> Option<LiveTransport> {
        (self != TransportKind::Sim).then_some(LiveTransport {
            kind: self,
            faults: None,
            op_timeout: LIVE_OP_TIMEOUT,
        })
    }
}

/// A live (wall-clock) runtime as a value: the link that hosts the
/// session ([`TransportKind::Threads`] or [`TransportKind::Tcp`]), the
/// fault plan its sessions run under, and how long a script driver waits
/// for any single op's reply before recording `ETIMEDOUT`. Built by
/// [`TransportKind::live`].
#[derive(Clone, Debug)]
pub struct LiveTransport {
    kind: TransportKind,
    faults: Option<FaultPlan>,
    op_timeout: Duration,
}

impl LiveTransport {
    /// Runs every session this transport opens under `plan`, so the same
    /// seeded fault schedule that drives a simulator run can wrap the
    /// threads or TCP runtime. The per-op script timeout drops to 2
    /// seconds: lossy links make lost ops routine, and waiting the full
    /// 30-second default for each would stall chaos runs.
    pub fn with_faults(mut self, plan: FaultPlan) -> LiveTransport {
        self.faults = Some(plan);
        self.op_timeout = Duration::from_secs(2);
        self
    }

    /// Overrides the per-op script timeout.
    pub fn with_op_timeout(mut self, timeout: Duration) -> LiveTransport {
        self.op_timeout = timeout;
        self
    }

    /// Hosts one session of `size` brokers with tree `arity` over this
    /// transport's link: attaches one client per entry of `ranks`,
    /// starts the session, hands the clients to `body`, and shuts the
    /// session down when `body` returns.
    pub fn with_session<R>(
        &self,
        size: u32,
        arity: u32,
        factory: ModuleFactory<'_>,
        ranks: &[Rank],
        body: impl FnOnce(Vec<LiveClient>) -> R,
    ) -> R {
        match self.kind {
            TransportKind::Tcp => self.host(TcpSession::builder(size, arity, factory), ranks, body),
            // `TransportKind::live` builds no `Sim` value.
            TransportKind::Threads | TransportKind::Sim => {
                self.host(ThreadSession::builder(size, arity, factory), ranks, body)
            }
        }
    }

    fn host<L: PeerSender, R>(
        &self,
        mut builder: SessionBuilder<L>,
        ranks: &[Rank],
        body: impl FnOnce(Vec<LiveClient>) -> R,
    ) -> R {
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

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(TransportKind::Sim),
            "threads" => Ok(TransportKind::Threads),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport {other:?} (want sim, threads or tcp)")),
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-script results from a [`ScriptTransport`] run, mirroring the
/// simulator's [`Outcome`] in plain nanoseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ScriptOutcome {
    /// Completion time of each op (ns since the session epoch).
    pub op_done_ns: Vec<u64>,
    /// Error number per op (0 = success).
    pub op_err: Vec<u32>,
    /// Raw reply payloads per op.
    pub replies: Vec<flux_value::Value>,
    /// True once every op completed.
    pub finished: bool,
}

/// Takes the outcome over: the errnum and reply buffers move, only the
/// timestamps are converted.
impl From<Outcome> for ScriptOutcome {
    fn from(o: Outcome) -> ScriptOutcome {
        ScriptOutcome {
            op_done_ns: o.op_done.iter().map(|t| t.as_nanos()).collect(),
            op_err: o.op_err,
            replies: o.replies,
            finished: o.finished,
        }
    }
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
    /// Short name ("sim", "threads", "tcp").
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
        let mut session = match &self.faults {
            Some(plan) => {
                SimSession::with_config_and_faults(size, self.net, config, factory, plan)
            }
            None => SimSession::with_config(size, self.net, config, factory),
        };
        let handles: Vec<_> = scripts
            .into_iter()
            .map(|(rank, ops)| ScriptClient::spawn(&mut session, rank, ops))
            .collect();
        let end = match self.deadline_ns {
            Some(ns) => session.run_until(SimTime::from_nanos(ns)),
            // Unbudgeted quiescence runs cannot livelock-error; fall back
            // to the error's timestamp rather than panicking if they ever
            // could.
            None => match session.run_until_quiet(None) {
                Ok(t) => t,
                Err(e) => e.at,
            },
        };
        let stats = session.engine().stats();
        let outcomes = handles.iter().map(|h| ScriptOutcome::from(h.take())).collect();
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

/// How long a live script driver waits for any single op's reply before
/// recording `ETIMEDOUT` and abandoning the script.
const LIVE_OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Drives one op script synchronously over a live client, stamping
/// completion times relative to `epoch`. Any single op left unanswered
/// for `op_timeout` records `ETIMEDOUT` and abandons the script.
pub fn drive_script(
    client: &LiveClient,
    ops: &[Op],
    epoch: Instant,
    op_timeout: Duration,
) -> ScriptOutcome {
    let mut core = ClientCore::new(client.rank, client.client_id);
    let mut out = ScriptOutcome::default();
    for (idx, op) in ops.iter().enumerate() {
        let tag = idx as u64;
        if let Op::Pause(ns) = op {
            // Script drivers run on their own threads, where Pause
            // *means* a wall-clock sleep: client think time between ops.
            std::thread::sleep(Duration::from_nanos(*ns));
            out.op_done_ns.push(epoch.elapsed().as_nanos() as u64);
            out.op_err.push(0);
            out.replies.push(flux_value::Value::Null);
            continue;
        }
        client.send(op.to_request(&mut core, tag));
        let deadline = Instant::now() + op_timeout;
        let reply = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break None;
            }
            let Some(msg) = client.recv_timeout(left) else { continue };
            match core.deliver(msg) {
                Delivery::Response { tag: t, msg } if t == tag => break Some(msg),
                Delivery::Response { .. } | Delivery::Event(_) | Delivery::Unmatched(_) => continue,
            }
        };
        match reply {
            Some(msg) => {
                out.op_done_ns.push(epoch.elapsed().as_nanos() as u64);
                out.op_err.push(msg.header.errnum);
                out.replies.push(msg.payload.into_value());
            }
            None => {
                out.op_done_ns.push(epoch.elapsed().as_nanos() as u64);
                out.op_err.push(errnum::ETIMEDOUT);
                out.replies.push(flux_value::Value::Null);
                return out; // abandoned: finished stays false
            }
        }
    }
    out.finished = true;
    out
}

impl ScriptTransport for LiveTransport {
    fn name(&self) -> &'static str {
        self.kind.name()
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
            let drivers: Vec<_> = clients
                .into_iter()
                .zip(scripts)
                .map(|(client, ops)| {
                    std::thread::Builder::new()
                        .name(format!("flux-script-{}", client.rank.0))
                        .spawn(move || drive_script(&client, &ops, epoch, op_timeout))
                        // flux-lint: allow(panic) — benchmark-harness
                        // setup; failing to spawn a driver invalidates the
                        // run.
                        .expect("spawn script driver")
                })
                .collect();
            // flux-lint: allow(panic) — propagating a driver thread's
            // panic into the harness is the point: a crashed script must
            // fail the benchmark run, not produce a partial report.
            // run_scripts *is* the wait for every script driver to
            // finish; nothing else runs on this thread until they do.
            let outcomes: Vec<ScriptOutcome> =
                drivers.into_iter().map(|d| d.join().expect("script driver panicked")).collect();
            let makespan_ns = epoch.elapsed().as_nanos() as u64;
            ScriptReport { outcomes, makespan_ns, ..ScriptReport::default() }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_value::Value;

    #[test]
    fn an_outcome_is_handed_over_not_copied() {
        let outcome = Outcome {
            op_done: vec![SimTime::from_nanos(5), SimTime::from_nanos(9)],
            op_err: vec![0, errnum::ENOENT],
            replies: vec![Value::from_pairs([("v", Value::Int(7))]), Value::Null],
            finished: true,
        };
        let (replies, errs) = (outcome.replies.as_ptr(), outcome.op_err.as_ptr());
        let handed = ScriptOutcome::from(outcome);
        assert_eq!(handed.replies.as_ptr(), replies, "the replies' buffer moved, not a copy");
        assert_eq!(handed.op_err.as_ptr(), errs);
        assert_eq!(handed.op_done_ns, [5, 9]);
        assert_eq!(handed.op_err, [0, errnum::ENOENT]);
        assert_eq!(handed.replies[0].get("v"), Some(&Value::Int(7)));
        assert!(handed.finished);
    }
}
