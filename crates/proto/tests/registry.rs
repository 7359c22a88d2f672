//! Registry exhaustiveness: every declared method and event topic
//! round-trips through its dispatch entry point, the aggregate
//! registries cover exactly the per-enum declarations, and every
//! declared topic names a registered service. That no topic is built
//! outside the registry is clippy's `disallowed_methods` rule on
//! `Topic::new` / `Topic::from_static` (the `clippy/` tier files).

use flux_proto::{
    events, methods, BarrierMethod, CmbMethod, Event, GroupMethod, HbMethod, KvsMethod,
    LiveMethod, LogMethod, MethodSpec, MonMethod, ResvcMethod, Service, WexecMethod,
};
use std::collections::BTreeSet;

/// Round-trips one method enum: every variant dispatches back to itself
/// from its wire method string, and its spec appears in the aggregate
/// [`methods`] table with the same topic and kind.
macro_rules! round_trip {
    ($all:expr, $enum_name:ident, $specs:expr) => {
        for m in $enum_name::ALL {
            let topic = m.topic();
            assert_eq!(
                $enum_name::from_method(topic.method()),
                Some(*m),
                "{} does not dispatch back to itself",
                m.topic_str()
            );
            assert_eq!(m.topic_str(), topic.to_string(), "topic()/topic_str() disagree");
            let spec = $specs
                .iter()
                .find(|s: &&MethodSpec| s.topic == m.topic_str())
                .unwrap_or_else(|| panic!("{} missing from methods()", m.topic_str()));
            assert_eq!(spec.kind, m.kind(), "{}: kind drift", m.topic_str());
            $all.extend($enum_name::ALL.iter().map(|m| m.topic_str()));
        }
    };
}

#[test]
fn every_method_round_trips_through_dispatch() {
    let specs = methods();
    let mut all: BTreeSet<&str> = BTreeSet::new();
    round_trip!(all, CmbMethod, specs);
    round_trip!(all, HbMethod, specs);
    round_trip!(all, LiveMethod, specs);
    round_trip!(all, LogMethod, specs);
    round_trip!(all, MonMethod, specs);
    round_trip!(all, GroupMethod, specs);
    round_trip!(all, BarrierMethod, specs);
    round_trip!(all, KvsMethod, specs);
    round_trip!(all, WexecMethod, specs);
    round_trip!(all, ResvcMethod, specs);
    // The aggregate table holds exactly the union of the enums: an enum
    // missing from methods() (or from this test) fails here.
    let listed: BTreeSet<&str> = specs.iter().map(|s| s.topic).collect();
    assert_eq!(all, listed, "methods() and the per-service enums disagree");
    assert_eq!(specs.len(), listed.len(), "duplicate topic in methods()");
}

#[test]
fn unknown_methods_do_not_dispatch() {
    assert_eq!(KvsMethod::from_method("no_such_method"), None);
    assert_eq!(CmbMethod::from_method(""), None);
    // A method string from another service's namespace must not leak in.
    assert_eq!(BarrierMethod::from_method("put"), None);
}

#[test]
fn every_event_round_trips_through_dispatch() {
    let specs = events();
    for e in Event::ALL {
        assert_eq!(
            Event::from_topic_str(e.topic_str()),
            Some(*e),
            "{} does not dispatch back to itself",
            e.topic_str()
        );
        assert!(
            specs.iter().any(|s| s.topic == e.topic_str() && s.service == e.service()),
            "{} missing from events()",
            e.topic_str()
        );
    }
    assert_eq!(specs.len(), Event::ALL.len(), "events() and Event::ALL disagree");
    assert_eq!(Event::from_topic_str("kvs.nonsense"), None);
}

#[test]
fn every_topic_names_a_registered_service() {
    for spec in methods() {
        let svc = spec.topic.split('.').next().expect("topic has a service part");
        assert_eq!(
            Service::from_name(svc).map(|s| s.name()),
            Some(svc),
            "{}: unregistered service prefix",
            spec.topic
        );
    }
}
