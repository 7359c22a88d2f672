//! Scripted client processes for simulator sessions.
//!
//! A [`ScriptClient`] is an actor that executes a fixed sequence of
//! [`Op`]s against its local broker, one outstanding request at a time,
//! recording the virtual completion time of every op. The KAP benchmark
//! (flux-kap) and the examples are built from these: a KAP producer is
//! `[Barrier, Put × n, Fence]`, a consumer `[Barrier, Fence, Get × m]`.

use crate::sim::SimSession;
use flux_broker::client::{ClientCore, Delivery};
use flux_sim::{Actor, ActorId, Ctx, SimDuration, SimTime};
use flux_value::Value;
use flux_proto::{BarrierMethod, KvsMethod};
use flux_wire::{Message, Rank, Topic};
use std::cell::RefCell;
use std::rc::Rc;

/// One scripted operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// `kvs.put key = val`.
    Put {
        /// Key.
        key: String,
        /// Value.
        val: Value,
    },
    /// `kvs.commit`.
    Commit,
    /// `kvs.fence name nprocs`.
    Fence {
        /// Fence name.
        name: String,
        /// Participant count.
        nprocs: u64,
    },
    /// `kvs.get key`.
    Get {
        /// Key.
        key: String,
    },
    /// `kvs.get_version`.
    GetVersion,
    /// `kvs.wait_version v`.
    WaitVersion(u64),
    /// `barrier.enter name nprocs`.
    Barrier {
        /// Barrier name.
        name: String,
        /// Participant count.
        nprocs: u64,
    },
    /// An arbitrary request.
    Request {
        /// Topic.
        topic: Topic,
        /// Payload.
        payload: Value,
    },
    /// Wait this many nanoseconds before the next op (virtual time on
    /// the simulator, wall time on live transports). Lets a workload
    /// span heartbeat epochs, so scheduled faults (blackouts,
    /// partitions) genuinely interleave with its traffic.
    Pause(u64),
}

impl Op {
    /// Builds the request message for this op (tagged `tag`), using
    /// `core` for id allocation. Shared by the simulator's
    /// [`ScriptClient`] and the live-transport script driver.
    pub fn to_request(&self, core: &mut ClientCore, tag: u64) -> Message {
        match self {
            Op::Put { key, val } => core.request(
                KvsMethod::Put.topic(),
                Value::from_pairs([("k", Value::from(key.as_str())), ("v", val.clone())]),
                tag,
            ),
            Op::Commit => core.request(KvsMethod::Commit.topic(), Value::object(), tag),
            Op::Fence { name, nprocs } => core.request(
                KvsMethod::Fence.topic(),
                Value::from_pairs([
                    ("name", Value::from(name.as_str())),
                    ("nprocs", Value::from(*nprocs as i64)),
                ]),
                tag,
            ),
            Op::Get { key } => core.request(
                KvsMethod::Get.topic(),
                Value::from_pairs([("k", Value::from(key.as_str()))]),
                tag,
            ),
            Op::GetVersion => {
                core.request(KvsMethod::GetVersion.topic(), Value::object(), tag)
            }
            Op::WaitVersion(v) => core.request(
                KvsMethod::WaitVersion.topic(),
                Value::from_pairs([("version", Value::from(*v as i64))]),
                tag,
            ),
            Op::Barrier { name, nprocs } => core.request(
                BarrierMethod::Enter.topic(),
                Value::from_pairs([
                    ("name", Value::from(name.as_str())),
                    ("nprocs", Value::from(*nprocs as i64)),
                ]),
                tag,
            ),
            Op::Request { topic, payload } => core.request(topic.clone(), payload.clone(), tag),
            // flux-lint: allow(panic) — an API misuse by the script
            // driver (both drivers special-case Pause before calling
            // here), not a runtime input.
            Op::Pause(_) => panic!("Op::Pause has no wire request; script drivers handle it"),
        }
    }
}

/// The recorded outcome of one script run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Completion time of each op, in script order.
    pub op_done: Vec<SimTime>,
    /// Error number per op (0 = success).
    pub op_err: Vec<u32>,
    /// Raw reply payloads per op.
    pub replies: Vec<Value>,
    /// True once every op has completed.
    pub finished: bool,
}

/// Shared handle to an outcome, readable after the simulation runs.
pub type OutcomeHandle = Rc<RefCell<Outcome>>;

/// The scripted client actor.
pub struct ScriptClient {
    broker: ActorId,
    core: ClientCore,
    ops: Vec<Op>,
    next: usize,
    outcome: OutcomeHandle,
}

impl ScriptClient {
    /// Attaches a scripted client to `rank` in `session`, returning the
    /// outcome handle (inspect it after running the engine).
    pub fn spawn(session: &mut SimSession, rank: Rank, ops: Vec<Op>) -> OutcomeHandle {
        let outcome: OutcomeHandle = Rc::new(RefCell::new(Outcome::default()));
        let handle = Rc::clone(&outcome);
        session.add_client(rank, move |broker, client_id| {
            Box::new(ScriptClient {
                broker,
                core: ClientCore::new(rank, client_id),
                ops,
                next: 0,
                outcome: handle,
            })
        });
        outcome
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_>) {
        let Some(op) = self.ops.get(self.next) else {
            self.outcome.borrow_mut().finished = true;
            return;
        };
        if let Op::Pause(ns) = *op {
            ctx.set_timer(SimDuration::from_nanos(ns), self.next as u64);
            return;
        }
        let msg = op.to_request(&mut self.core, self.next as u64);
        ctx.send(self.broker, msg);
    }

    fn record(&mut self, now: SimTime, errnum: u32, reply: Value) {
        let mut out = self.outcome.borrow_mut();
        out.op_done.push(now);
        out.op_err.push(errnum);
        out.replies.push(reply);
    }
}

impl Actor for ScriptClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.issue_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: Message) {
        match self.core.deliver(msg) {
            Delivery::Response { tag, msg } => {
                // Under fault injection a duplicated request can produce a
                // duplicated response; only the expected tag advances the
                // script, stale tags are dropped.
                if tag as usize != self.next {
                    return;
                }
                self.record(ctx.now(), msg.header.errnum, msg.payload.into_value());
                self.next += 1;
                self.issue_next(ctx);
            }
            Delivery::Event(_) | Delivery::Unmatched(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // A Pause op elapsed.
        if token as usize != self.next {
            return;
        }
        self.record(ctx.now(), 0, Value::Null);
        self.next += 1;
        self.issue_next(ctx);
    }
}
