//! Engine-level property tests: determinism, FIFO delivery, and cost
//! monotonicity under randomized traffic.

#![allow(clippy::disallowed_methods, reason = "a test builds its topics directly")]

use flux_sim::{Actor, ActorId, Ctx, Engine, NetParams, SimDuration, SimTime};
use flux_value::Value;
use flux_wire::{Message, MsgId, Rank, Topic};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Sends a scripted list of (delay_us, target, size) messages.
struct Sender {
    plan: Vec<(u64, ActorId, usize)>,
    sent: usize,
}

impl Actor for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_nanos(1), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: ActorId, _: Message) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let Some(&(delay_us, target, size)) = self.plan.get(self.sent) else { return };
        self.sent += 1;
        let msg = Message::event(
            Topic::from_static("t"),
            MsgId { origin: Rank(0), seq: self.sent as u64 },
            Rank(0),
            Value::from("x".repeat(size)),
        );
        ctx.send(target, msg);
        ctx.set_timer(SimDuration::from_micros(delay_us), 0);
    }
}

/// Records (sender, seq, arrival time).
#[derive(Default)]
struct Log(Vec<(ActorId, u64, u64)>);

struct Recorder {
    log: Rc<RefCell<Log>>,
}

impl Actor for Recorder {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Message) {
        self.log.borrow_mut().0.push((from, msg.header.id.seq, ctx.now().as_nanos()));
    }
}

type Plan = Vec<(u64, usize)>;

fn run(plans: &[Plan], colocate: bool) -> (Vec<(ActorId, u64, u64)>, u64) {
    let mut eng = Engine::new(NetParams::default());
    let rec_node = eng.add_node();
    let log = Rc::new(RefCell::new(Log::default()));
    let rec = eng.add_actor(rec_node, Box::new(Recorder { log: Rc::clone(&log) }));
    for plan in plans {
        let node = if colocate { rec_node } else { eng.add_node() };
        let plan = plan.iter().map(|&(d, s)| (d % 50, rec, s % 4096)).collect();
        eng.add_actor(node, Box::new(Sender { plan, sent: 0 }));
    }
    let end = eng.run();
    let l = log.borrow().0.clone();
    (l, end.as_nanos())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit-identical replay: same plans, same delivery log and end time.
    #[test]
    fn engine_is_deterministic(plans in prop::collection::vec(
        prop::collection::vec((0u64..50, 0usize..4096), 0..12), 1..5)) {
        prop_assert_eq!(run(&plans, false), run(&plans, false));
    }

    /// Per-sender FIFO: each sender's sequence numbers arrive in order.
    #[test]
    fn per_sender_fifo(plans in prop::collection::vec(
        prop::collection::vec((0u64..50, 0usize..4096), 0..12), 1..5)) {
        let (log, _) = run(&plans, false);
        let mut last: std::collections::HashMap<ActorId, u64> = Default::default();
        for (from, seq, _) in log {
            let prev = last.insert(from, seq);
            prop_assert!(prev.is_none_or(|p| p < seq), "sender {from} reordered");
        }
    }

    /// Co-located senders deliver no later than remote ones for the same
    /// plan (IPC is uniformly cheaper than the network).
    #[test]
    fn ipc_never_slower(plan in prop::collection::vec((0u64..50, 1usize..4096), 1..10)) {
        let plans = vec![plan];
        let (log_near, _) = run(&plans, true);
        let (log_far, _) = run(&plans, false);
        prop_assert_eq!(log_near.len(), log_far.len());
        for (n, f) in log_near.iter().zip(&log_far) {
            prop_assert!(n.2 <= f.2, "IPC {} vs net {}", n.2, f.2);
        }
    }

    /// The virtual clock never runs backwards in the delivery log.
    #[test]
    fn arrivals_monotone(plans in prop::collection::vec(
        prop::collection::vec((0u64..50, 0usize..4096), 0..12), 1..5)) {
        let (log, end) = run(&plans, false);
        prop_assert!(log.windows(2).all(|w| w[0].2 <= w[1].2));
        if let Some(last) = log.last() {
            prop_assert!(last.2 <= end);
        }
    }
}

#[test]
fn run_until_is_resumable_at_arbitrary_points() {
    let plans: Vec<Plan> = vec![vec![(5, 100), (5, 2000), (5, 10)]; 3];
    let (full_log, full_end) = run(&plans, false);
    // Same setup, but stepped in small deadline increments.
    let mut eng = Engine::new(NetParams::default());
    let rec_node = eng.add_node();
    let log = Rc::new(RefCell::new(Log::default()));
    let rec = eng.add_actor(rec_node, Box::new(Recorder { log: Rc::clone(&log) }));
    for plan in &plans {
        let node = eng.add_node();
        let plan = plan.iter().map(|&(d, s)| (d % 50, rec, s % 4096)).collect();
        eng.add_actor(node, Box::new(Sender { plan, sent: 0 }));
    }
    let mut t = 0;
    while eng.run_until(SimTime::from_nanos(t)) < SimTime::from_nanos(t) || t < full_end {
        t += 1_000;
        if t > full_end + 10_000 {
            break;
        }
    }
    eng.run();
    assert_eq!(log.borrow().0, full_log);
}
