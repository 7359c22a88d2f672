//! The controlled schedule runner: executes one [`Scenario`] under one
//! [`Schedule`] and checks every invariant against the outcome.
//!
//! # Scheduling model
//!
//! The simulator's event heap splits into two classes:
//!
//! * **Invisible** events — actor `Start` and message propagation
//!   (`Arrive`) legs. These never branch behaviour on their own, so the
//!   runner auto-dispatches them in default `(time, seq)` order.
//! * **Visible** events — message `Handle` legs and timers. Each one is
//!   a potential branching point: the runner computes the *eligible
//!   frontier* and consults the schedule for a deviation.
//!
//! Eligibility encodes what the transport actually guarantees: event
//! plane links are FIFO (the broker's seq dedup depends on it, and the
//! fault layer suppresses reordering there too — see
//! `LinkFaults::fate_on`), so event-plane handles on the same
//! `(from, to)` link must dispatch lowest-seq first. Everything else
//! may reorder freely. Duplication choices are restricted to
//! broker-to-broker frames, matching the fault layer's model (IPC
//! client links are reliable).

use crate::scenario::Scenario;
use crate::trace::{Choice, Schedule};
use flux_kvs::history;
use flux_proto::MethodKind;
use flux_rt::chaos::histories_for;
use flux_rt::script::ScriptClient;
use flux_rt::sim::SimSession;
use flux_rt::transport::ScriptOutcome;
use flux_sim::{ActorId, PendingEvent, PendingKind};
use flux_wire::{MsgId, MsgType};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A schedule is aborted after this many engine events: a run that busy
/// loops under some interleaving is itself a liveness violation. An
/// unperturbed scenario run takes a few hundred events; two orders of
/// magnitude of slack separates "slow schedule" from "livelock" without
/// slowing the explorer down.
pub(crate) const MAX_EVENTS: u64 = 20_000;

/// What kind of invariant a schedule violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// The event budget ran out with events still pending.
    Livelock,
    /// A client received two replies to one request on a schedule with
    /// no duplication deviations.
    DuplicateReply,
    /// A decoded RPC-kind request got no reply by quiescence.
    MissingReply,
    /// A script did not finish even though the session went quiet.
    Stalled,
    /// The per-client KVS histories are inconsistent
    /// (`flux_kvs::history::check`).
    History,
    /// The observed store version exceeds the scenario's expected number
    /// of root applies: some batch applied more than once.
    VersionOverrun,
    /// A sync point completed without making the writes it covers
    /// visible: a read after a fence, or after a wait for a version,
    /// missed a key ([`crate::Scenario::post_sync`]).
    SyncIncomplete,
}

/// An invariant violation found on one schedule.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant failed.
    pub kind: ViolationKind,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// Per visible step facts the explorer uses to generate child schedules.
#[derive(Clone, Debug)]
pub struct StepInfo {
    /// Eligible frontier size at this step.
    pub eligible: u16,
    /// For each frontier slot `n > 0`: would picking it commute with
    /// every event it overtakes (same-target check)? Commuting picks are
    /// pruned — the default order already covers their behaviour.
    pub prunable: Vec<bool>,
    /// For each frontier slot: is it a duplicable broker-to-broker frame?
    pub dupable: Vec<bool>,
}

/// The outcome of running one schedule.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// `false` if the schedule was infeasible (a deviation referenced a
    /// frontier slot that does not exist); nothing else is meaningful.
    pub valid: bool,
    /// The first invariant violation, if any.
    pub violation: Option<Violation>,
    /// Per-step branching facts for child-schedule generation.
    pub steps: Vec<StepInfo>,
    /// Total engine events dispatched.
    pub events: u64,
}

impl RunOutcome {
    fn invalid() -> RunOutcome {
        RunOutcome { valid: false, violation: None, steps: Vec::new(), events: 0 }
    }
}

/// True for events the runner treats as branching points.
fn visible(ev: &PendingEvent) -> bool {
    match &ev.kind {
        PendingKind::Timer { .. } => true,
        PendingKind::Message { handle, .. } => *handle,
        PendingKind::Start => false,
    }
}

/// The eligible frontier: all pending visible events, minus event-plane
/// handles overtaken on their own `(from, to)` link (those links are
/// FIFO in every transport).
fn eligible_frontier(pending: Vec<PendingEvent>) -> Vec<PendingEvent> {
    let mut first_on_link: HashMap<(ActorId, ActorId), u64> = HashMap::new();
    for ev in &pending {
        if let PendingKind::Message { from, msg_type: MsgType::Event, .. } = &ev.kind {
            let slot = first_on_link.entry((*from, ev.to)).or_insert(ev.seq);
            *slot = (*slot).min(ev.seq);
        }
    }
    pending
        .into_iter()
        .filter(|ev| match &ev.kind {
            PendingKind::Message { from, msg_type: MsgType::Event, .. } => {
                first_on_link[&(*from, ev.to)] == ev.seq
            }
            _ => true,
        })
        .collect()
}

/// True if this frontier event is a duplicable broker-to-broker frame.
fn dupable(session: &SimSession, ev: &PendingEvent) -> bool {
    match &ev.kind {
        PendingKind::Message { from, handle: true, .. } => {
            session.is_broker_actor(*from) && session.is_broker_actor(ev.to)
        }
        _ => false,
    }
}

/// Tracks the exactly-one-reply obligation for every decoded RPC-kind
/// client request, online, as handles are dispatched.
struct ReplyObserver {
    /// Topic → protocol method kind, from the flux-proto registry.
    kinds: HashMap<&'static str, MethodKind>,
    /// Request id → replies seen, for RPC-kind client requests. Kept
    /// ordered so the first missing-reply violation reported is stable
    /// across runs of the same schedule.
    replies: BTreeMap<MsgId, u32>,
    /// Whether the schedule duplicates frames (dup'd requests can
    /// legitimately produce duplicate replies; the client core drops
    /// them, so the strict `== 1` check only holds dup-free).
    dups: bool,
}

impl ReplyObserver {
    fn new(dups: bool) -> ReplyObserver {
        ReplyObserver {
            kinds: flux_proto::methods().into_iter().map(|s| (s.topic, s.kind)).collect(),
            replies: BTreeMap::new(),
            dups,
        }
    }

    /// Observes a visible event right before it dispatches. Returns a
    /// violation when a client sees a second reply on a dup-free run.
    fn observe(&mut self, session: &SimSession, ev: &PendingEvent) -> Option<Violation> {
        let PendingKind::Message { from, handle: true, msg_type, topic, id } = &ev.kind else {
            return None;
        };
        match msg_type {
            MsgType::Request
                if !session.is_broker_actor(*from)
                    && session.is_broker_actor(ev.to)
                    && self.kinds.get(topic.as_str()) == Some(&MethodKind::Rpc) =>
            {
                self.replies.entry(*id).or_insert(0);
            }
            MsgType::Response if !session.is_broker_actor(ev.to) => {
                if let Some(count) = self.replies.get_mut(id) {
                    *count += 1;
                    if *count > 1 && !self.dups {
                        return Some(Violation {
                            kind: ViolationKind::DuplicateReply,
                            detail: format!("request {id:?} ({topic}) answered {count} times"),
                        });
                    }
                }
            }
            _ => {}
        }
        None
    }

    /// Post-quiescence check: every tracked request must have >= 1 reply.
    fn missing(&self) -> Option<Violation> {
        for (id, count) in &self.replies {
            if *count == 0 {
                return Some(Violation {
                    kind: ViolationKind::MissingReply,
                    detail: format!("request {id:?} never answered"),
                });
            }
        }
        None
    }
}

/// Runs `scenario` under `schedule` within `max_events` engine events
/// and checks all invariants.
pub(crate) fn run_schedule(
    scenario: &Scenario,
    schedule: &Schedule,
    max_events: u64,
) -> RunOutcome {
    let mut session = scenario.build();
    let handles: Vec<_> = scenario
        .scripts
        .iter()
        .map(|(rank, ops)| ScriptClient::spawn(&mut session, *rank, ops.clone()))
        .collect();

    let mut observer = ReplyObserver::new(schedule.dups() > 0);
    let mut steps: Vec<StepInfo> = Vec::new();
    let mut events: u64 = 0;
    let mut step: u32 = 0;
    let mut violation: Option<Violation> = None;
    let mut killed = false;

    'run: loop {
        // Failure injection happens before the snapshot, so the frontier
        // at this step already excludes deliveries to the dead broker.
        if let Some((rank, at)) = scenario.kill {
            if !killed && step >= at {
                session.kill_broker(rank);
                killed = true;
            }
        }
        // Auto-phase: drain invisible events in default order. Dispatching
        // from a snapshot is safe (pending seqs stay valid until
        // dispatched); newly created invisible events surface on the next
        // snapshot round. The first all-visible snapshot doubles as the
        // frontier source.
        let snapshot = loop {
            let snapshot = session.engine().pending_events();
            let auto: Vec<u64> =
                snapshot.iter().filter(|ev| !visible(ev)).map(|ev| ev.seq).collect();
            if auto.is_empty() {
                break snapshot;
            }
            for seq in auto {
                if events >= max_events {
                    violation = Some(livelock(events));
                    break 'run;
                }
                session.engine_mut().dispatch_pending(seq);
                events += 1;
            }
        };

        let frontier = eligible_frontier(snapshot);
        if frontier.is_empty() {
            break;
        }
        if events >= max_events {
            violation = Some(livelock(events));
            break;
        }

        steps.push(step_info(&session, &frontier));

        let pick = match schedule.at(step) {
            Some(Choice::Pick(n)) => {
                if n as usize >= frontier.len() {
                    return RunOutcome::invalid();
                }
                n as usize
            }
            Some(Choice::Dup(n)) => {
                let Some(target) = frontier.get(n as usize) else {
                    return RunOutcome::invalid();
                };
                if !dupable(&session, target) {
                    return RunOutcome::invalid();
                }
                let seq = target.seq;
                session.engine_mut().duplicate_pending(seq);
                0
            }
            None => 0,
        };

        let chosen = frontier[pick].clone();
        if let Some(v) = observer.observe(&session, &chosen) {
            violation = Some(v);
            break;
        }
        session.engine_mut().dispatch_pending(chosen.seq);
        events += 1;
        step += 1;
    }

    if violation.is_none() {
        violation = post_checks(scenario, &handles, &observer);
    }
    RunOutcome { valid: true, violation, steps, events }
}

fn livelock(events: u64) -> Violation {
    Violation {
        kind: ViolationKind::Livelock,
        detail: format!("event budget exhausted after {events} events"),
    }
}

fn step_info(session: &SimSession, frontier: &[PendingEvent]) -> StepInfo {
    let target = |ev: &PendingEvent| ev.to;
    let prunable = frontier
        .iter()
        .enumerate()
        .map(|(n, ev)| {
            // Picking slot n overtakes slots 0..n. If the chosen event's
            // target actor differs from every overtaken event's target,
            // the dispatches commute (actors share no state) and the
            // default order already covers this behaviour.
            n > 0 && frontier[..n].iter().all(|other| target(other) != target(ev))
        })
        .collect();
    let dupable = frontier.iter().map(|ev| dupable(session, ev)).collect();
    StepInfo { eligible: frontier.len() as u16, prunable, dupable }
}

fn post_checks(
    scenario: &Scenario,
    handles: &[flux_rt::script::OutcomeHandle],
    observer: &ReplyObserver,
) -> Option<Violation> {
    // Transport-layer outcomes: the shape `histories_for` consumes.
    let outcomes: Vec<ScriptOutcome> = handles.iter().map(|h| h.take()).collect();

    for (i, outcome) in outcomes.iter().enumerate() {
        if !outcome.finished {
            let (rank, ops) = &scenario.scripts[i];
            return Some(Violation {
                kind: ViolationKind::Stalled,
                detail: format!(
                    "script {i} (rank {}) stalled at op {}/{} with the session quiet",
                    rank.0,
                    outcome.op_err.len(),
                    ops.len()
                ),
            });
        }
    }

    if let Some(v) = observer.missing() {
        return Some(v);
    }

    let errs = history::check(&histories_for(&scenario.scripts, &outcomes));
    if !errs.is_empty() {
        return Some(Violation { kind: ViolationKind::History, detail: errs.join("; ") });
    }

    if let Some(v) = version_overrun(scenario, &outcomes) {
        return Some(v);
    }

    if !scenario.post_sync.is_empty() {
        use flux_rt::script::Op;
        for (i, outcome) in outcomes.iter().enumerate() {
            let ops = &scenario.scripts[i].1;
            let synced = ops.iter().enumerate().find_map(|(j, op)| {
                let what = match op {
                    Op::Fence { .. } => "fence",
                    Op::WaitVersion(_) => "wait for a version",
                    _ => return None,
                };
                (outcome.op_err.get(j).copied() == Some(0)).then_some((j, what))
            });
            let Some((sync_at, what)) = synced else { continue };
            for (j, op) in ops.iter().enumerate().skip(sync_at + 1) {
                let Op::Get { key } = op else { continue };
                let Some(expect) = scenario.post_sync.get(key) else { continue };
                let Some(err) = outcome.op_err.get(j) else { continue };
                let observed =
                    (*err == 0).then(|| flux_kvs::msg::value(&outcome.replies[j]).cloned());
                if observed.as_ref().and_then(|v| v.as_ref()) != Some(expect) {
                    return Some(Violation {
                        kind: ViolationKind::SyncIncomplete,
                        detail: format!(
                            "script {i} read {key:?} after its {what} completed and saw \
                             {observed:?} instead of {expect:?}: the {what} finished before \
                             the writes it covers were visible"
                        ),
                    });
                }
            }
        }
    }

    None
}

/// The version-overrun oracle: no root that a versioned reply names —
/// every entry of a commit's or fence's frontier, the one root of a
/// version probe — is past the scenario's bound on root applies per
/// shard. A root past it means some batch applied twice.
fn version_overrun(scenario: &Scenario, outcomes: &[ScriptOutcome]) -> Option<Violation> {
    use flux_kvs::msg;
    use flux_rt::script::Op;
    if scenario.expected_applies == 0 {
        return None;
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        let ops = scenario.scripts[i].1.iter();
        for (op, (&err, reply)) in ops.zip(outcome.op_err.iter().zip(&outcome.replies)) {
            let roots = match op {
                _ if err != 0 => continue,
                Op::Commit | Op::Fence { .. } => msg::decode_cut(reply).roots,
                Op::GetVersion | Op::WaitVersion(_) => vec![msg::decode_root(reply)],
                _ => continue,
            };
            if let Some(r) = roots.iter().find(|r| r.version > scenario.expected_applies) {
                return Some(Violation {
                    kind: ViolationKind::VersionOverrun,
                    detail: format!(
                        "script {i} observed shard {} at version {} > {} expected root \
                         applies per shard: some batch applied twice",
                        r.shard, r.version, scenario.expected_applies
                    ),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_clean_on_every_live_scenario() {
        for name in Scenario::clean_names() {
            let scenario = Scenario::by_name(name).expect("known");
            let out = run_schedule(&scenario, &Schedule::empty(), MAX_EVENTS);
            assert!(out.valid);
            assert!(out.violation.is_none(), "{name}: {:?}", out.violation);
            assert!(!out.steps.is_empty());
            assert!(out.events > 0);
        }
    }

    #[test]
    fn infeasible_deviation_reports_invalid() {
        let scenario = Scenario::kvs_fence();
        let sched = Schedule::empty().extended(0, Choice::Pick(200));
        let out = run_schedule(&scenario, &sched, MAX_EVENTS);
        assert!(!out.valid);
    }

    /// A fence's frontier reply is read entry by entry: shard 1 at
    /// version 2 overruns a bound of one apply per shard, shard 1 at
    /// version 1 does not.
    #[test]
    fn a_frontier_entry_past_the_bound_is_a_version_overrun() {
        use flux_kvs::msg::{cut_reply, RootRef};
        let scenario = Scenario::kvs_shard_fence();
        assert_eq!(scenario.expected_applies, 1);
        let fence_reply = |v1| {
            let at = |shard, version| RootRef { shard, version, root: "aa".into() };
            cut_reply(2, &[at(0, 1), at(1, v1)])
        };
        let outcomes = |v1| -> Vec<ScriptOutcome> {
            scenario
                .scripts
                .iter()
                .map(|(_, ops)| ScriptOutcome {
                    op_done_ns: vec![1; ops.len()],
                    op_err: vec![0; ops.len()],
                    replies: ops
                        .iter()
                        .map(|op| match op {
                            flux_rt::script::Op::Fence { .. } => fence_reply(v1).into(),
                            _ => flux_value::Value::Null.into(),
                        })
                        .collect(),
                    finished: true,
                })
                .collect()
        };
        assert!(version_overrun(&scenario, &outcomes(1)).is_none());
        let overrun = version_overrun(&scenario, &outcomes(2)).expect("overrun");
        assert_eq!(overrun.kind, ViolationKind::VersionOverrun);
        assert!(overrun.detail.contains("shard 1 at version 2"), "{overrun}");
    }

    #[test]
    fn tiny_event_budget_reports_livelock() {
        let scenario = Scenario::kvs_fence();
        let out = run_schedule(&scenario, &Schedule::empty(), 3);
        assert!(out.valid);
        assert_eq!(out.violation.as_ref().map(|v| v.kind), Some(ViolationKind::Livelock));
    }
}
