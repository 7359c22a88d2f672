//! The sans-io broker host: one [`Broker`] under its rank's slice of a
//! [`FaultPlan`].
//!
//! [`Host`] is what the simulator's broker actor and the live runtime's
//! broker thread share. It takes the time and each input as arguments,
//! applies the fault plan's broker-side rules (a blacked-out broker
//! processes no input and answers no client; every send meets its
//! link's fate), and hands each resulting [`Effect`] to a sink, in the
//! broker's output order. The drivers only move effects: the simulator
//! turns them into engine actions, the live thread into socket writes,
//! channel sends and entries of its one time-ordered queue.

use crate::faults::{FaultPlan, LinkFaults};
use flux_broker::{Broker, ClientId, Input, Output};
use flux_wire::{Message, Rank};

/// One thing the host asks its driver to do.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Deliver `msg` to broker `to` after an extra `delay_ns` in flight
    /// (0 = now). A faulted send yields one of these per surviving
    /// copy, none when it is dropped.
    Send { to: Rank, msg: Message, delay_ns: u64 },
    /// Deliver `msg` to the local client `client`.
    Reply { client: ClientId, msg: Message },
    /// Call [`Host::timer`] with `token` after `delay_ns`.
    Timer { delay_ns: u64, token: u64 },
}

/// A broker and its rank's fault stream, driven by time and input.
pub(crate) struct Host {
    broker: Broker,
    /// This rank's view of the session's fault plan; `None` when the
    /// plan injects nothing.
    faults: Option<LinkFaults>,
}

impl Host {
    /// Hosts `broker` under `plan` (`None` or an empty plan: no faults).
    pub(crate) fn new(broker: Broker, plan: Option<&FaultPlan>) -> Host {
        let faults = plan.filter(|p| !p.is_empty()).map(|p| p.for_sender(broker.rank()));
        Host { broker, faults }
    }

    /// Starts the broker.
    pub(crate) fn start(&mut self, now_ns: u64, sink: impl FnMut(Effect)) {
        let outs = self.broker.start(now_ns);
        self.perform(now_ns, outs, sink);
    }

    /// Feeds a message from broker `from`; its plane is read from its
    /// shape.
    pub(crate) fn on_broker(
        &mut self,
        now_ns: u64,
        from: Rank,
        msg: Message,
        sink: impl FnMut(Effect),
    ) {
        self.input(now_ns, Input::FromBroker { plane: msg.plane(), from, msg }, sink);
    }

    /// Feeds a message from the local client `client`.
    pub(crate) fn on_client(
        &mut self,
        now_ns: u64,
        client: ClientId,
        msg: Message,
        sink: impl FnMut(Effect),
    ) {
        self.input(now_ns, Input::FromClient { client, msg }, sink);
    }

    /// Fires timer `token`. Timers still run during a blackout (their
    /// sends are cut and their replies suppressed): skipping them would
    /// break the re-arm chains periodic modules rely on, leaving a
    /// revived broker with dead timers.
    pub(crate) fn timer(&mut self, now_ns: u64, token: u64, sink: impl FnMut(Effect)) {
        let outs = self.broker.handle(now_ns, Input::Timer { token });
        self.perform(now_ns, outs, sink);
    }

    /// Feeds broker or client input; a blacked-out broker drops it.
    fn input(&mut self, now_ns: u64, input: Input, sink: impl FnMut(Effect)) {
        if !self.silenced(now_ns) {
            let outs = self.broker.handle(now_ns, input);
            self.perform(now_ns, outs, sink);
        }
    }

    /// True if this broker is inside a blackout window: it processes
    /// nothing, exactly like a crashed process (its state freezes until
    /// the window ends — the restart model).
    fn silenced(&self, now_ns: u64) -> bool {
        self.faults.as_ref().is_some_and(|f| f.silenced(now_ns))
    }

    /// Turns `outs` into effects, then hands the drained `Vec` back to
    /// the broker.
    fn perform(&mut self, now_ns: u64, mut outs: Vec<Output>, mut sink: impl FnMut(Effect)) {
        for out in outs.drain(..) {
            match out {
                Output::ToBroker { to, msg } => match &mut self.faults {
                    None => sink(Effect::Send { to, msg, delay_ns: 0 }),
                    Some(f) => {
                        for &delay_ns in &f.fate_on(msg.plane(), now_ns, to).copies {
                            sink(Effect::Send { to, msg: msg.clone(), delay_ns });
                        }
                    }
                },
                // A blacked-out broker cannot answer its clients.
                Output::ToClient { client, msg } => {
                    if !self.silenced(now_ns) {
                        sink(Effect::Reply { client, msg });
                    }
                }
                Output::SetTimer { delay_ns, token } => sink(Effect::Timer { delay_ns, token }),
            }
        }
        self.broker.recycle(outs);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "a test builds its topics directly")]
mod tests {
    use super::*;
    use flux_broker::client::ClientCore;
    use flux_broker::{BrokerConfig, CommsModule, Handled, ModuleCtx};
    use flux_value::Value;
    use flux_wire::{MsgId, Plane, Topic};

    const TICK: u64 = 1_000;

    /// Parks every request after a tree-plane notice upstream; each of
    /// its timers answers what is parked, sends a tree notice and an
    /// event upstream, and re-arms.
    #[derive(Default)]
    struct Probe {
        parked: Vec<Message>,
    }

    impl CommsModule for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }

        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            ctx.set_timer(TICK, 1);
        }

        fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
            ctx.notify_upstream(Topic::from_static("probe.seen"), Value::Null);
            let (msg, handled) = ctx.park(msg);
            self.parked.push(msg);
            handled
        }

        fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
            for req in self.parked.drain(..) {
                let _ = ctx.respond(&req, Value::Null);
            }
            ctx.notify_upstream(Topic::from_static("probe.tick"), Value::Null);
            ctx.publish(Topic::from_static("probe.event"), Value::Null);
            ctx.set_timer(TICK, token);
        }
    }

    fn probe_broker() -> Broker {
        // Rank 1 of 2: every upstream send goes to rank 0.
        Broker::new(BrokerConfig::new(Rank(1), 2), vec![Box::new(Probe::default())])
    }

    /// A started host under `plan`, and the token of its probe's timer.
    fn started(plan: Option<&FaultPlan>) -> (Host, u64) {
        let mut host = Host::new(probe_broker(), plan);
        let mut token = None;
        host.start(0, |e| match e {
            Effect::Timer { delay_ns: TICK, token: t } => token = Some(t),
            other => panic!("start: {other:?}"),
        });
        (host, token.expect("the probe arms a timer"))
    }

    fn ring_request() -> Message {
        let id = MsgId { origin: Rank(0), seq: 1 };
        Message::request_to(Topic::from_static("probe.ask"), id, Rank(0), Rank(1), Value::Null)
    }

    fn client_request() -> Message {
        ClientCore::new(Rank(1), 0).request(Topic::from_static("probe.ask"), Value::Null, 0)
    }

    /// The effects of a broker request, a client request and a timer at
    /// `now_ns`, each input's collected apart.
    fn drive(host: &mut Host, now_ns: u64, token: u64) -> [Vec<Effect>; 3] {
        let mut out: [Vec<Effect>; 3] = Default::default();
        host.on_broker(now_ns, Rank(0), ring_request(), |e| out[0].push(e));
        host.on_client(now_ns, 0, client_request(), |e| out[1].push(e));
        host.timer(now_ns, token, |e| out[2].push(e));
        out
    }

    /// `(sends, replies, timers)` among `effects`.
    fn census(effects: &[Effect]) -> (usize, usize, usize) {
        let count = |f: fn(&Effect) -> bool| effects.iter().filter(|e| f(e)).count();
        (
            count(|e| matches!(e, Effect::Send { .. })),
            count(|e| matches!(e, Effect::Reply { .. })),
            count(|e| matches!(e, Effect::Timer { .. })),
        )
    }

    #[test]
    fn a_blacked_out_host_drops_input_and_its_timer_only_re_arms() {
        let plan = FaultPlan::new(0).kill(Rank(1), 2 * TICK..4 * TICK);
        let (mut host, token) = started(Some(&plan));
        // Before the window: a client request is parked, so the timer
        // inside it has a reply to give.
        let mut before = Vec::new();
        host.on_client(TICK, 0, client_request(), |e| before.push(e));
        assert_eq!(census(&before), (1, 0, 0), "{before:?}");

        // Inside it the timer runs (its re-arm comes out); its sends are
        // cut and its reply to the parked client suppressed.
        let mut timer = Vec::new();
        host.timer(3 * TICK, token, |e| timer.push(e));
        assert!(
            matches!(timer[..], [Effect::Timer { delay_ns: TICK, token: t }] if t == token),
            "{timer:?}"
        );
        // Broker and client input is dropped unprocessed ...
        let mut input = Vec::new();
        host.on_broker(3 * TICK, Rank(0), ring_request(), |e| input.push(e));
        host.on_client(3 * TICK, 0, client_request(), |e| input.push(e));
        assert!(input.is_empty(), "{input:?}");
        // ... so the first timer after the window finds nothing parked.
        let mut after = Vec::new();
        host.timer(5 * TICK, token, |e| after.push(e));
        assert_eq!(census(&after), (2, 0, 1), "{after:?}");
    }

    #[test]
    fn after_the_window_the_same_host_answers_again() {
        let plan = FaultPlan::new(0).kill(Rank(1), 2 * TICK..4 * TICK);
        let (mut host, token) = started(Some(&plan));
        let [_, _, inside] = drive(&mut host, 3 * TICK, token);
        assert_eq!(census(&inside), (0, 0, 1), "{inside:?}");

        let [broker, client, timer] = drive(&mut host, 4 * TICK, token);
        assert_eq!(census(&broker), (1, 0, 0), "{broker:?}");
        assert_eq!(census(&client), (1, 0, 0), "{client:?}");
        // The ring reply, the tree notice and the event go out; the
        // client hears its answer.
        assert_eq!(census(&timer), (3, 1, 1), "{timer:?}");
    }

    #[test]
    fn an_empty_plan_maps_each_output_to_one_undelayed_effect() {
        for plan in [None, Some(FaultPlan::new(7))] {
            let (mut host, token) = started(plan.as_ref());
            assert!(host.faults.is_none(), "an empty plan injects nothing");
            // A bare broker fed the same inputs is the reference.
            let mut twin = probe_broker();
            twin.start(0);
            let inputs = |t| {
                [
                    Input::FromBroker { plane: Plane::Ring, from: Rank(0), msg: ring_request() },
                    Input::FromClient { client: 0, msg: client_request() },
                    Input::Timer { token: t },
                ]
            };
            let effects = drive(&mut host, TICK, token);
            for (effects, input) in effects.into_iter().zip(inputs(token)) {
                let outputs = twin.handle(TICK, input);
                assert!(!outputs.is_empty());
                assert_eq!(effects.len(), outputs.len(), "{effects:?} vs {outputs:?}");
                for (e, o) in effects.into_iter().zip(outputs) {
                    match (e, o) {
                        (
                            Effect::Send { to, msg, delay_ns },
                            Output::ToBroker { to: t, msg: m, .. },
                        ) => {
                            assert_eq!((to, &msg, delay_ns), (t, &m, 0));
                        }
                        (Effect::Reply { client, msg }, Output::ToClient { client: c, msg: m }) => {
                            assert_eq!((client, &msg), (c, &m));
                        }
                        (
                            Effect::Timer { delay_ns, token },
                            Output::SetTimer { delay_ns: d, token: t },
                        ) => {
                            assert_eq!((delay_ns, token), (d, t));
                        }
                        (e, o) => panic!("{e:?} from {o:?}"),
                    }
                }
            }
        }
    }

    /// `(plane, delay)` of every send among `effects`, in order.
    fn sends(effects: &[Effect]) -> Vec<(Plane, u64)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg, delay_ns } => {
                    assert_eq!(*to, Rank(0));
                    Some((msg.plane(), *delay_ns))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_duplicating_delaying_plan_sends_every_copy_in_fate_order() {
        let plan = FaultPlan::new(3).duplicate(1.0).delay(1.0, 1_000_000);
        let (mut host, token) = started(Some(&plan));
        let mut effects = Vec::new();
        host.on_client(TICK, 0, client_request(), |e| effects.push(e));
        host.timer(TICK, token, |e| effects.push(e));
        let sent = sends(&effects);
        assert_eq!(
            sent.iter().map(|&(plane, _)| plane).collect::<Vec<_>>(),
            [Plane::Tree, Plane::Tree, Plane::Tree, Plane::Tree, Plane::Event, Plane::Event]
        );
        // The same link's stream, drawn in the same order, is the reference.
        let mut link = plan.for_sender(Rank(1));
        let fates: Vec<u64> = [Plane::Tree, Plane::Tree, Plane::Event]
            .into_iter()
            .flat_map(|plane| link.fate_on(plane, TICK, Rank(0)).copies)
            .collect();
        assert_eq!(sent.iter().map(|&(_, delay)| delay).collect::<Vec<_>>(), fates);
        assert!(sent[0].1 != sent[1].1, "the two copies' delays differ: {sent:?}");
        assert!(sent[..4].iter().all(|&(_, delay)| delay > 0), "{sent:?}");
    }

    #[test]
    fn a_delay_plan_delays_the_tree_plane_and_never_the_event_plane() {
        let plan = FaultPlan::new(5).delay(1.0, 1_000_000);
        let (mut host, token) = started(Some(&plan));
        let mut effects = Vec::new();
        host.timer(TICK, token, |e| effects.push(e));
        let sent = sends(&effects);
        assert!(
            matches!(sent[..], [(Plane::Tree, tree), (Plane::Event, 0)] if tree > 0),
            "{sent:?}"
        );
    }
}
