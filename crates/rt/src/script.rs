//! Scripted client processes: one sans-io interpreter, two drivers.
//!
//! A [`Script`] runs a fixed sequence of [`Op`]s against its local broker,
//! one op in flight at a time, recording each op into a [`ScriptOutcome`].
//! It takes messages and the time as arguments; [`ScriptClient`] drives
//! it as a simulator actor, [`crate::transport::drive_script`] on a live
//! client's thread. The KAP benchmark and the examples are built from
//! these: a KAP producer is `[Barrier, Put × n, Fence]`, a consumer
//! `[Barrier, Fence, Get × m]`.

use crate::sim::SimSession;
use crate::transport::ScriptOutcome;
use flux_broker::client::{ClientCore, Delivery};
use flux_sim::{Actor, ActorId, Ctx, SimDuration};
use flux_value::Value;
use flux_wire::{errnum, Message, Payload, Rank};
use std::cell::RefCell;
use std::rc::Rc;

/// The op vocabulary lives beside `KvsClient` in `flux-kvs`; this path
/// stays for the code that names it here.
pub use flux_kvs::client::Op;

/// What a [`Script`] asks of its driver next.
#[derive(Debug)]
pub enum Step {
    /// Send this request, then hand every message to [`Script::deliver`].
    Send(Message),
    /// Wait this many nanoseconds, then call [`Script::paused`].
    Pause(u64),
    /// Every op has completed.
    Done,
}

/// The one interpreter of an op script, shared by both drivers.
pub struct Script {
    core: ClientCore,
    /// The ops not yet issued: each is consumed by its request.
    ops: std::vec::IntoIter<Op>,
    /// Index of the op in flight; the op count once every op completed.
    next: usize,
    /// Whether the op in flight is a pause.
    pausing: bool,
}

impl Script {
    /// A script that issues `ops` through `core`, starting at op 0.
    pub fn new(core: ClientCore, ops: Vec<Op>) -> Script {
        Script { core, ops: ops.into_iter(), next: 0, pausing: false }
    }

    /// Issues the current op: its request, tagged with its index, or its
    /// pause. The op moves into its request, so neither its key nor a
    /// put's value is copied. Once the ops run out, marks `out` finished.
    pub fn issue(&mut self, out: &mut ScriptOutcome) -> Step {
        let op = self.ops.next();
        self.pausing = matches!(op, Some(Op::Pause(_)));
        match op {
            None => {
                out.finished = true;
                Step::Done
            }
            Some(Op::Pause(ns)) => Step::Pause(ns),
            Some(op) => Step::Send(op.into_request(&mut self.core, self.next as u64)),
        }
    }

    /// Takes a message from the broker, arrived at `now_ns`: records the
    /// current op's reply and issues the next op. The reply's payload is
    /// recorded as handed over, so a reply the broker shares among its
    /// readers (a stored object's get reply, a fence's release) is kept
    /// by reference, never copied. Anything else returns `None` and
    /// changes nothing: an event, or a response the client core does not
    /// match, such as a copy of a reply it handed over.
    pub fn deliver(&mut self, msg: Message, now_ns: u64, out: &mut ScriptOutcome) -> Option<Step> {
        let Delivery::Response { tag, msg } = self.core.deliver(msg) else { return None };
        record(out, now_ns, msg.header.errnum, msg.payload);
        Some(self.advance(Some(tag), out))
    }

    /// The current op, a pause, elapsed at `now_ns`: records
    /// `(now_ns, 0, Null)` and issues the next op.
    pub fn paused(&mut self, now_ns: u64, out: &mut ScriptOutcome) -> Step {
        record(out, now_ns, 0, Value::Null.into());
        self.advance(None, out)
    }

    /// Gives up on the op in flight at `now_ns`: records `ETIMEDOUT` and
    /// consumes the script, so nothing more is issued and `out.finished`
    /// stays false.
    pub fn abandon(self, now_ns: u64, out: &mut ScriptOutcome) {
        record(out, now_ns, errnum::ETIMEDOUT, Value::Null.into());
    }

    /// Moves past op `next`, whose reply (`tag`) or elapsed pause
    /// (`None`) was just recorded, and issues the op after it.
    fn advance(&mut self, tag: Option<u64>, out: &mut ScriptOutcome) -> Step {
        // One op is in flight: op `next`'s request, tagged `next`, or its
        // pause, the driver's only timer. A duplicated response never
        // gets here: the client core hands a reply over once and
        // classifies any later copy as unmatched.
        debug_assert!(tag.map_or(self.pausing, |t| t == self.next as u64), "one op in flight");
        self.next += 1;
        self.issue(out)
    }
}

fn record(out: &mut ScriptOutcome, now_ns: u64, errnum: u32, reply: Payload) {
    out.op_done_ns.push(now_ns);
    out.op_err.push(errnum);
    out.replies.push(reply);
}

/// Shared handle to a simulator script's outcome, readable after the
/// simulation runs; times are virtual ns since the session started.
pub type OutcomeHandle = Rc<RefCell<ScriptOutcome>>;

/// The simulator's driver: a [`Script`] as an actor beside its broker.
pub struct ScriptClient {
    broker: ActorId,
    script: Script,
    outcome: OutcomeHandle,
}

impl ScriptClient {
    /// Attaches a scripted client to `rank` in `session`, returning the
    /// outcome handle (inspect it after running the engine).
    pub fn spawn(session: &mut SimSession, rank: Rank, ops: Vec<Op>) -> OutcomeHandle {
        let outcome = OutcomeHandle::default();
        let handle = Rc::clone(&outcome);
        session.add_client(rank, move |broker, client_id| {
            let script = Script::new(ClientCore::new(rank, client_id), ops);
            Box::new(ScriptClient { broker, script, outcome: handle })
        });
        outcome
    }

    fn follow(&self, ctx: &mut Ctx<'_>, step: Step) {
        match step {
            Step::Send(msg) => ctx.send(self.broker, msg),
            Step::Pause(ns) => ctx.set_timer(SimDuration::from_nanos(ns), 0),
            Step::Done => {}
        }
    }
}

impl Actor for ScriptClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let step = self.script.issue(&mut self.outcome.borrow_mut());
        self.follow(ctx, step);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: Message) {
        let step = self.script.deliver(msg, ctx.now().as_nanos(), &mut self.outcome.borrow_mut());
        if let Some(step) = step {
            self.follow(ctx, step);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let step = self.script.paused(ctx.now().as_nanos(), &mut self.outcome.borrow_mut());
        self.follow(ctx, step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_proto::KvsMethod;
    use flux_wire::MsgId;

    fn script(ops: Vec<Op>) -> (Script, ScriptOutcome) {
        (Script::new(ClientCore::new(Rank(1), 0), ops), ScriptOutcome::default())
    }

    fn get() -> Op {
        Op::Get { key: "a.b".into() }
    }

    fn sent(step: Option<Step>) -> Message {
        match step {
            Some(Step::Send(msg)) => msg,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn a_reply_is_recorded_and_the_next_op_carries_the_next_tag() {
        let (mut s, mut out) = script(vec![get(), Op::Commit]);
        let first = sent(Some(s.issue(&mut out)));
        assert_eq!(first.header.topic, KvsMethod::Get.topic());
        let mut reply = Message::response_to(&first, Value::Int(7));
        reply.header.errnum = errnum::ENOENT;
        let second = sent(s.deliver(reply, 50, &mut out));
        assert_eq!(second.header.topic, KvsMethod::Commit.topic());
        assert_eq!(out.op_done_ns, [50]);
        assert_eq!(out.op_err, [errnum::ENOENT]);
        assert_eq!(out.replies, [Value::Int(7)]);
        assert!(!out.finished);
        match s.core.deliver(Message::response_to(&second, Value::Null)) {
            Delivery::Response { tag, .. } => assert_eq!(tag, 1, "op 1 is tagged 1"),
            other => panic!("op 1's reply is not matched: {other:?}"),
        }
    }

    #[test]
    fn scripts_handed_one_shared_reply_record_it_without_a_copy() {
        // A broker answers every read of one stored object with one
        // payload: each script keeps a reference to it, not its own copy
        // of the 512-byte value.
        let shared = Payload::from(Value::from_pairs([("v", Value::from("x".repeat(512)))]));
        for client in [0, 1] {
            let mut s = Script::new(ClientCore::new(Rank(1), client), vec![get()]);
            let mut out = ScriptOutcome::default();
            let req = sent(Some(s.issue(&mut out)));
            let done = s.deliver(Message::response_to(&req, shared.clone()), 10, &mut out);
            assert!(matches!(done, Some(Step::Done)), "{done:?}");
            assert!(std::ptr::eq(out.replies[0].value(), shared.value()), "client {client}");
        }
    }

    #[test]
    fn a_put_moves_its_value_into_the_request_without_a_copy() {
        let val = Value::from("x".repeat(512));
        let held = val.as_str().map(str::as_ptr);
        let (mut s, mut out) = script(vec![Op::Put { key: "a.b".into(), val }]);
        let req = sent(Some(s.issue(&mut out)));
        let carried = req.payload.get("v").and_then(Value::as_str).map(str::as_ptr);
        assert!(held.is_some() && carried == held, "the op's own bytes, moved");
    }

    #[test]
    fn a_duplicated_reply_is_recorded_once() {
        let (mut s, mut out) = script(vec![get(), get()]);
        let first = sent(Some(s.issue(&mut out)));
        let reply = Message::response_to(&first, Value::Int(1));
        let second = sent(s.deliver(reply.clone(), 10, &mut out));
        assert!(s.deliver(reply, 20, &mut out).is_none(), "the copy issues nothing");
        assert_eq!(out.op_done_ns, [10]);
        let done = s.deliver(Message::response_to(&second, Value::Int(2)), 30, &mut out);
        assert!(matches!(done, Some(Step::Done)), "{done:?}");
        assert_eq!(out.op_done_ns, [10, 30]);
        assert_eq!(out.replies, [Value::Int(1), Value::Int(2)]);
        assert!(out.finished);
    }

    #[test]
    fn events_and_unmatched_responses_change_nothing() {
        let (mut s, mut out) = script(vec![get()]);
        let req = sent(Some(s.issue(&mut out)));
        let id = MsgId { origin: Rank(4), seq: 99 };
        let topic = req.header.topic.clone();
        let foreign = Message::request(topic.clone(), id, Rank(4), Value::Null);
        let strays = [
            Message::event(topic, id, Rank(0), Value::Int(1)),
            Message::response_to(&foreign, Value::Int(2)),
            req.clone(),
        ];
        for stray in strays {
            assert!(s.deliver(stray, 5, &mut out).is_none());
        }
        assert_eq!(out, ScriptOutcome::default());
        let done = s.deliver(Message::response_to(&req, Value::Null), 6, &mut out);
        assert!(matches!(done, Some(Step::Done)), "{done:?}");
        assert_eq!(out.op_done_ns, [6]);
    }

    #[test]
    fn a_pause_is_recorded_as_a_null_success() {
        let (mut s, mut out) = script(vec![Op::Pause(500), get()]);
        assert!(matches!(s.issue(&mut out), Step::Pause(500)));
        assert!(out.op_done_ns.is_empty(), "nothing is recorded before the pause elapses");
        let req = sent(Some(s.paused(700, &mut out)));
        assert_eq!(req.header.topic, KvsMethod::Get.topic());
        assert_eq!(out.op_done_ns, [700]);
        assert_eq!(out.op_err, [0]);
        assert_eq!(out.replies, [Value::Null]);
    }

    #[test]
    fn abandon_records_a_timeout_and_leaves_the_script_unfinished() {
        let (mut s, mut out) = script(vec![get(), get()]);
        sent(Some(s.issue(&mut out)));
        // `abandon` consumes the script: nothing can be issued after it.
        s.abandon(900, &mut out);
        assert_eq!(out.op_done_ns, [900]);
        assert_eq!(out.op_err, [errnum::ETIMEDOUT]);
        assert_eq!(out.replies, [Value::Null]);
        assert!(!out.finished);
    }

    #[test]
    fn an_empty_script_is_finished_at_once() {
        let (mut s, mut out) = script(Vec::new());
        assert!(matches!(s.issue(&mut out), Step::Done));
        assert!(out.finished);
        assert!(out.op_done_ns.is_empty() && out.op_err.is_empty() && out.replies.is_empty());
    }
}
