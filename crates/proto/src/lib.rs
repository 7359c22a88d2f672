//! # flux-proto
//!
//! The typed protocol registry: one table per Table-I comms module of
//! the ICPP'14 Flux paper (`hb`, `live`, `log`, `mon`, `group`,
//! `barrier`, `kvs`, `wexec`, `resvc`) plus the broker's builtin `cmb`
//! service. Every service name, request topic, event topic, and KVS key
//! namespace the session protocol uses is declared **here** — and only
//! here. The rest of the workspace routes through these enums, so a typo
//! in a topic is a compile error and an unhandled method is an
//! exhaustiveness error, not a silently dropped message. `flux-lint`
//! enforces the "only here" part: a string literal that looks like a
//! `<service>.<method>` topic anywhere outside this crate (and tests)
//! fails the lint pass.
//!
//! ## Layout
//!
//! * [`Service`] — the service (first topic component) of every comms
//!   module a broker hosts.
//! * One method enum per service (e.g. [`KvsMethod`], [`CmbMethod`]) with
//!   `topic()`, `topic_str()`, `kind()`, and `from_method()` for
//!   dispatch. Module dispatch is an exhaustive `match` over the enum;
//!   `None` from `from_method` is the one ENOSYS path.
//! * [`Event`] — every session-wide event topic on the root-sequenced
//!   event plane.
//! * [`MethodKind`] — whether a method is request/response, one-way, or
//!   a streaming subscription; [`kind_of`] looks it up by topic (the
//!   broker's `ModuleCtx::one_way` asserts on it).
//! * Each method's `declared_errors()` — the codes its handler's own
//!   rejection paths may answer, beside [`TRANSPORT_ERRORS`] and the
//!   dispatch-level `ENOSYS`. The broker's one error-sending function
//!   asserts every refusal against them (debug builds, via [`spec_of`]),
//!   `crates/modules/tests/refusals.rs` drives every row through a
//!   session, and they also drive behaviour: `flux-kvs` treats an
//!   answer carrying a declared code as the handler's refusal (final)
//!   and any other error as lost in transit (retried).
//! * [`methods`]/[`events`] — the flattened registry, for tools and
//!   conformance tests.
//! * [`keys`] — KVS key-namespace helpers for the protocol's well-known
//!   key prefixes (`mon.samplers.*`, `mon.data.*`, `lwj.*`, ...).
//!
//! ## Adding a service or method
//!
//! Declare the method in the service's `methods!` table below (or add a
//! new table + [`Service`] variant), then handle the new enum variant at
//! every `match` the compiler flags. See DESIGN.md §12.

use flux_wire::Topic;
use std::sync::OnceLock;

/// How a declared method behaves on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Request/response: every request is answered exactly once.
    Rpc,
    /// One-way notification: never answered (malformed ones are dropped).
    OneWay,
    /// Streaming request: answered zero or more times until cancelled.
    Stream,
}

/// The services of Table I (plus the broker builtin `cmb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Service {
    /// Broker builtin: ping, info, event subscription plumbing.
    Cmb,
    /// Session heartbeat.
    Hb,
    /// Hierarchical liveness detection.
    Live,
    /// Reduced, filtered session logging.
    Log,
    /// Heartbeat-synchronized monitoring.
    Mon,
    /// Named process groups.
    Group,
    /// Collective barriers.
    Barrier,
    /// The key-value store.
    Kvs,
    /// Bulk remote execution.
    Wexec,
    /// Resource enumeration and allocation.
    Resvc,
}

impl Service {
    /// Every declared service.
    pub const ALL: &'static [Service] = &[
        Service::Cmb,
        Service::Hb,
        Service::Live,
        Service::Log,
        Service::Mon,
        Service::Group,
        Service::Barrier,
        Service::Kvs,
        Service::Wexec,
        Service::Resvc,
    ];

    /// The service name: the first component of its topics.
    pub const fn name(self) -> &'static str {
        match self {
            Service::Cmb => "cmb",
            Service::Hb => "hb",
            Service::Live => "live",
            Service::Log => "log",
            Service::Mon => "mon",
            Service::Group => "group",
            Service::Barrier => "barrier",
            Service::Kvs => "kvs",
            Service::Wexec => "wexec",
            Service::Resvc => "resvc",
        }
    }

    /// Looks a service up by name (as returned by [`Topic::service`]).
    pub fn from_name(name: &str) -> Option<Service> {
        Service::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// One row of the flattened method registry (see [`methods`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodSpec {
    /// The owning service.
    pub service: Service,
    /// The full topic string, `<service>.<method>`.
    pub topic: &'static str,
    /// Wire behaviour.
    pub kind: MethodKind,
    /// The error numbers this method's handler may put in a response
    /// header, beyond the [`TRANSPORT_ERRORS`] any RPC can surface and
    /// the dispatch-level `ENOSYS` for unknown methods. Held from both
    /// sides at run time: the broker's `respond_err` asserts (debug
    /// builds) that a code it sends for this topic is in the set, and
    /// `crates/modules/tests/refusals.rs` fails on a member no request
    /// produces. A sender may rely on them too: `flux-kvs` never
    /// retries a request refused with a declared code.
    pub declared_errors: &'static [u32],
}

/// One row of the flattened event registry (see [`events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSpec {
    /// The service that publishes it.
    pub service: Service,
    /// The full event topic string.
    pub topic: &'static str,
}

/// Validates one table's topics, once per process: `topic()` hands out
/// clones of these, so a hop pays a reference-count bump for its topic,
/// not a validation and an allocation.
fn interned(topics: impl Iterator<Item = &'static str>) -> Vec<Topic> {
    // Cannot panic: every topic_str is a declared literal, validated by
    // the registry conformance test.
    topics.map(Topic::from_static).collect()
}

/// Declares one service's method table: the enum, dispatch lookup,
/// topic construction, declared error sets, and registry rows. An
/// optional `[ERRNO, ...]` suffix after the kind names the
/// `flux_wire::errnum` constants the handler's own rejection paths may
/// produce (omitted = none).
macro_rules! methods {
    (
        $(#[$emeta:meta])*
        $enum_name:ident : $service:ident / $svc:literal {
            $($(#[$vmeta:meta])* $variant:ident = $method:literal => $kind:ident $([$($err:ident),* $(,)?])?;)+
        }
    ) => {
        $(#[$emeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $enum_name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $enum_name {
            /// Every method of this service, in declaration order.
            pub const ALL: &'static [$enum_name] = &[$($enum_name::$variant,)+];

            /// The owning [`Service`].
            const SERVICE: Service = Service::$service;

            /// The full topic string, `<service>.<method>`.
            pub const fn topic_str(self) -> &'static str {
                match self { $($enum_name::$variant => concat!($svc, ".", $method),)+ }
            }

            /// Wire behaviour of this method.
            pub const fn kind(self) -> MethodKind {
                match self { $($enum_name::$variant => MethodKind::$kind,)+ }
            }

            /// The error numbers this method's handler may put in a
            /// response header, beyond transport-level failures and the
            /// dispatch-level `ENOSYS` (see [`MethodSpec::declared_errors`]).
            pub const fn declared_errors(self) -> &'static [u32] {
                match self {
                    $($enum_name::$variant => &[$($(flux_wire::errnum::$err,)*)?],)+
                }
            }

            /// The validated [`Topic`] for this method: a clone of the
            /// process-wide one, built on this table's first call.
            pub fn topic(self) -> Topic {
                static TOPICS: OnceLock<Vec<Topic>> = OnceLock::new();
                // Variants carry no explicit discriminants, so `self as
                // usize` is the variant's index in `ALL`.
                TOPICS.get_or_init(|| interned(Self::ALL.iter().map(|m| m.topic_str())))
                    [self as usize]
                    .clone()
            }

            /// Looks a method path up, as returned by [`Topic::method`].
            /// `None` is the dispatch ENOSYS path.
            pub fn from_method(m: &str) -> Option<$enum_name> {
                match m {
                    $($method => Some($enum_name::$variant),)+
                    _ => None,
                }
            }

            /// This table's rows of the flattened registry.
            pub fn specs() -> impl Iterator<Item = MethodSpec> {
                Self::ALL.iter().map(|m| MethodSpec {
                    service: Self::SERVICE,
                    topic: m.topic_str(),
                    kind: m.kind(),
                    declared_errors: m.declared_errors(),
                })
            }
        }
    };
}

methods! {
    /// Builtin `cmb` service methods (answered by the broker itself).
    CmbMethod : Cmb / "cmb" {
        /// Echo, usable rank-addressed over the ring or locally.
        Ping = "ping" => Rpc;
        /// Rank, size, tree depth, liveness count, loaded modules.
        Info = "info" => Rpc;
        /// Subscribe the requesting client to an event-topic prefix.
        Sub = "sub" => Rpc [EINVAL];
        /// Drop one subscription of the requesting client.
        Unsub = "unsub" => Rpc [EINVAL];
    }
}

methods! {
    /// `hb` service methods.
    HbMethod : Hb / "hb" {
        /// The last heartbeat epoch this broker has seen.
        Epoch = "epoch" => Rpc;
    }
}

methods! {
    /// `live` service methods.
    LiveMethod : Live / "live" {
        /// Child-to-parent keepalive, sent on every heartbeat.
        Hello = "hello" => OneWay;
        /// Local liveness view for tools.
        Status = "status" => Rpc;
    }
}

methods! {
    /// `log` service methods.
    LogMethod : Log / "log" {
        /// Append one entry to the local ring (and forward by level).
        Msg = "msg" => Rpc [EINVAL];
        /// Merged entries climbing the tree toward the session log.
        Batch = "batch" => OneWay;
        /// The local circular debug buffer (rank-addressable).
        Dump = "dump" => Rpc;
        /// The root session log, filtered by level.
        Query = "query" => Rpc;
    }
}

methods! {
    /// `mon` service methods.
    MonMethod : Mon / "mon" {
        /// Register a sampler spec in the KVS. The sampler name is a KVS
        /// key component: one the store would refuse is refused here,
        /// with the store's code.
        Add = "add" => Rpc [EINVAL, ENAMETOOLONG];
        /// Partial aggregate climbing the tree.
        Up = "up" => OneWay;
        /// The sampler specs active on this broker.
        List = "list" => Rpc;
    }
}

methods! {
    /// `group` service methods.
    GroupMethod : Group / "group" {
        /// Record the requester as a member in the KVS. Like the other
        /// two, refuses a name that is not one key component (`EINVAL`)
        /// or makes a key the store would refuse (`ENAMETOOLONG`).
        Join = "join" => Rpc [EINVAL, ENAMETOOLONG];
        /// Remove the requester's membership record.
        Leave = "leave" => Rpc [EINVAL, ENAMETOOLONG];
        /// Group size and member list. `EINVAL` also when what the KVS
        /// holds under the name is not a membership directory.
        Info = "info" => Rpc [EINVAL, ENAMETOOLONG];
    }
}

methods! {
    /// `barrier` service methods.
    BarrierMethod : Barrier / "barrier" {
        /// Enter a named barrier; answered when it completes.
        Enter = "enter" => Rpc [EINVAL];
        /// Merged entry counts climbing the tree.
        Up = "up" => OneWay;
    }
}

methods! {
    /// `kvs` service methods.
    KvsMethod : Kvs / "kvs" {
        /// Stage `key = value` in the local dirty set. Rejects malformed
        /// payloads and oversize/overdeep keys.
        Put = "put" => Rpc [EINVAL, ENAMETOOLONG];
        /// Stage a key removal.
        Unlink = "unlink" => Rpc [EINVAL, ENAMETOOLONG];
        /// Push staged changes to the master and await the new version.
        /// Fails only on malformed batches (upstream transport errors are
        /// relayed verbatim).
        Commit = "commit" => Rpc [EINVAL];
        /// Internal: a commit batch for one shard's master, climbing the
        /// tree (one shard) or rank-addressed (N shards). Rejects
        /// malformed batches, and a batch that reaches the tree root or
        /// its addressed rank without reaching its shard's master.
        Push = "push" => Rpc [EINVAL];
        /// Collective commit: resolves once `nprocs` have entered.
        /// Rejects malformed, zero-proc, mismatched-count, and duplicate
        /// contributions.
        Fence = "fence" => Rpc [EINVAL];
        /// Internal: merged fence contributions climbing the tree.
        /// One-way: never answered, so never errs.
        FenceUp = "fence.up" => OneWay;
        /// Read a key (or directory listing) at the current root.
        /// Distinguishes key shape/size errors from tree-shape mismatches
        /// and absent keys.
        Get = "get" => Rpc [EINVAL, ENAMETOOLONG, ENOENT, ENOTDIR, EISDIR];
        /// Internal: fetch an object by content hash from upstream.
        Load = "load" => Rpc [EINVAL, ENOENT];
        /// The root version this broker has applied. Rejects a malformed
        /// shard selector.
        GetVersion = "get_version" => Rpc [EINVAL];
        /// Answered once the local version reaches the given one.
        WaitVersion = "wait_version" => Rpc [EINVAL];
        /// Stream a value on every version that changes the key.
        Watch = "watch" => Stream [EINVAL];
        /// Cancel a watch stream.
        Unwatch = "unwatch" => Rpc [EINVAL];
        /// Object-cache statistics.
        Stats = "stats" => Rpc;
    }
}

methods! {
    /// `wexec` service methods.
    WexecMethod : Wexec / "wexec" {
        /// Launch a job on the targeted ranks (fans out as an event).
        Run = "run" => Rpc [EINVAL];
        /// Signal every task of a job (fans out as an event).
        Kill = "kill" => Rpc [EINVAL];
        /// Internal: merged exit-status contributions climbing the tree.
        StatusUp = "status.up" => OneWay;
        /// Locally running tasks.
        Ps = "ps" => Rpc;
    }
}

methods! {
    /// `resvc` service methods.
    ResvcMethod : Resvc / "resvc" {
        /// Allocate `nnodes` ranks to a job (root decides). `EAGAIN`
        /// signals an honest shortage: retry after a `free`.
        Alloc = "alloc" => Rpc [EINVAL, EAGAIN];
        /// Return a job's ranks to the free set.
        Free = "free" => Rpc [EINVAL, ENOENT];
        /// Free/total counts and active allocations.
        Status = "status" => Rpc;
    }
}

/// Every session-wide event topic on the root-sequenced event plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// The session heartbeat pulse (bare service topic, no method).
    Hb,
    /// A child missed too many heartbeats and is declared dead.
    LiveDown,
    /// A declared-dead rank sent a hello again.
    LiveUp,
    /// A new KVS root: version, root hash, resolved fences.
    KvsSetroot,
    /// A named barrier completed, or the root failed it
    /// ([`BARRIER_EXIT_ERRNUM`]); waiters release.
    BarrierExit,
    /// Bulk-launch fan-out: every targeted broker starts the job.
    WexecRun,
    /// Signal fan-out to every task of a job.
    WexecKill,
    /// All tasks of a job have reported exit status.
    WexecComplete,
    /// A fault was observed; brokers dump debug rings upstream.
    LogFault,
}

impl Event {
    /// Every declared event, in declaration order.
    pub const ALL: &'static [Event] = &[
        Event::Hb,
        Event::LiveDown,
        Event::LiveUp,
        Event::KvsSetroot,
        Event::BarrierExit,
        Event::WexecRun,
        Event::WexecKill,
        Event::WexecComplete,
        Event::LogFault,
    ];

    /// The service that publishes this event.
    pub const fn service(self) -> Service {
        match self {
            Event::Hb => Service::Hb,
            Event::LiveDown | Event::LiveUp => Service::Live,
            Event::KvsSetroot => Service::Kvs,
            Event::BarrierExit => Service::Barrier,
            Event::WexecRun | Event::WexecKill | Event::WexecComplete => Service::Wexec,
            Event::LogFault => Service::Log,
        }
    }

    /// The full event topic string.
    pub const fn topic_str(self) -> &'static str {
        match self {
            Event::Hb => "hb",
            Event::LiveDown => "live.down",
            Event::LiveUp => "live.up",
            Event::KvsSetroot => "kvs.setroot",
            Event::BarrierExit => "barrier.exit",
            Event::WexecRun => "wexec.run",
            Event::WexecKill => "wexec.kill",
            Event::WexecComplete => "wexec.complete",
            Event::LogFault => "log.fault",
        }
    }

    /// The validated [`Topic`] for this event: a clone of the
    /// process-wide one, built on the first call.
    pub fn topic(self) -> Topic {
        static TOPICS: OnceLock<Vec<Topic>> = OnceLock::new();
        TOPICS.get_or_init(|| interned(Event::ALL.iter().map(|e| e.topic_str())))[self as usize]
            .clone()
    }

    /// Matches a delivered event topic against the registry.
    pub fn from_topic_str(s: &str) -> Option<Event> {
        Event::ALL.iter().copied().find(|e| e.topic_str() == s)
    }
}

/// The field of a `barrier.exit` event for a barrier the root failed
/// instead of completing, because its entries disagreed on `nprocs`: the
/// code every waiter is refused with. A completed barrier is announced
/// as `{name}`, a failed one as `{name, errnum}`.
pub const BARRIER_EXIT_ERRNUM: &str = "errnum";

/// Error numbers the transport itself puts in a response header — the
/// target rank is down (`EHOSTDOWN`), the request or its answer was
/// given up on (`ETIMEDOUT`), a frame could not be carried (`EIO`). Any
/// RPC can surface them, so no method declares them, and that is what
/// lets a sender read a declared code as the handler's own refusal.
pub const TRANSPORT_ERRORS: &[u32] =
    &[flux_wire::errnum::EIO, flux_wire::errnum::ETIMEDOUT, flux_wire::errnum::EHOSTDOWN];

/// Every row of every table, in service order, without collecting.
fn rows() -> impl Iterator<Item = MethodSpec> {
    CmbMethod::specs()
        .chain(HbMethod::specs())
        .chain(LiveMethod::specs())
        .chain(LogMethod::specs())
        .chain(MonMethod::specs())
        .chain(GroupMethod::specs())
        .chain(BarrierMethod::specs())
        .chain(KvsMethod::specs())
        .chain(WexecMethod::specs())
        .chain(ResvcMethod::specs())
}

/// The flattened method registry: every declared method of every
/// service. Tools (`flux-lint`, `flux-kap table1`) and conformance
/// tests iterate this.
pub fn methods() -> Vec<MethodSpec> {
    rows().collect()
}

/// The registry row of `topic`; `None` if no table declares it. The
/// broker consults it on every error response of a debug build.
pub fn spec_of(topic: &str) -> Option<MethodSpec> {
    rows().find(|spec| spec.topic == topic)
}

/// The declared wire behaviour of `topic`; `None` if no table declares
/// it.
pub fn kind_of(topic: &str) -> Option<MethodKind> {
    spec_of(topic).map(|spec| spec.kind)
}

/// The flattened event registry.
pub fn events() -> Vec<EventSpec> {
    Event::ALL
        .iter()
        .map(|e| EventSpec { service: e.service(), topic: e.topic_str() })
        .collect()
}

/// Well-known KVS key namespaces the protocol writes into. Keys are not
/// topics, but several share the `<service>.` spelling, so their
/// construction lives here with the rest of the protocol surface.
pub mod keys {
    /// `mon` module key space.
    pub mod mon {
        /// Directory of sampler specs.
        pub const SAMPLERS_DIR: &str = "mon.samplers";

        /// The spec key for one sampler.
        pub fn sampler_key(name: &str) -> String {
            format!("{SAMPLERS_DIR}.{name}")
        }

        /// The finalized-aggregate key for one sampler at one epoch.
        pub fn data_key(name: &str, epoch: u64) -> String {
            format!("mon.data.{name}.e{epoch}")
        }
    }

    /// `group` module key space.
    pub mod group {
        /// The membership directory of one group.
        pub fn dir(name: &str) -> String {
            format!("groups.{name}")
        }

        /// The membership key of one member of one group.
        pub fn member_key(name: &str, member: &str) -> String {
            format!("groups.{name}.{member}")
        }
    }

    /// `resvc` module key space.
    pub mod resvc {
        /// The collective fence marking resource enumeration complete.
        pub const ENUMERATE_FENCE: &str = "resvc.enumerate";

        /// The inventory key for one rank.
        pub fn resource_key(rank: u32) -> String {
            format!("resource.r{rank}")
        }
    }

    /// Lightweight-job (`lwj`) key space, shared by `wexec` and `resvc`.
    pub mod lwj {
        /// Captured standard output of one task.
        pub fn stdout_key(jobid: u64, rank: u32) -> String {
            format!("lwj.{jobid}.{rank}.stdout")
        }

        /// The completion record of a job.
        pub fn complete_key(jobid: u64) -> String {
            format!("lwj.{jobid}.complete")
        }

        /// The ranks allocated to a job.
        pub fn ranks_key(jobid: u64) -> String {
            format!("lwj.{jobid}.ranks")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_method_topic_is_valid_and_owned_by_its_service() {
        for spec in methods() {
            let topic = Topic::new(spec.topic).expect("declared topic must validate");
            assert_eq!(
                topic.service(),
                spec.service.name(),
                "{} must start with its service prefix",
                spec.topic
            );
            assert!(!topic.method().is_empty(), "{} must have a method path", spec.topic);
        }
    }

    #[test]
    fn every_event_topic_is_valid_and_owned_by_its_service() {
        for spec in events() {
            let topic = Topic::new(spec.topic).expect("declared event must validate");
            assert_eq!(topic.service(), spec.service.name());
        }
    }

    #[test]
    fn registry_topics_are_unique() {
        let mut seen = HashSet::new();
        for spec in methods() {
            assert!(seen.insert(spec.topic), "duplicate method topic {}", spec.topic);
        }
        // `wexec.run`/`wexec.kill` are both a method and its fan-out
        // event, and the bare `hb` event is not a method; events only
        // need to be unique among themselves.
        let mut seen_events = HashSet::new();
        for spec in events() {
            assert!(seen_events.insert(spec.topic), "duplicate event topic {}", spec.topic);
        }
    }

    #[test]
    fn dispatch_roundtrips() {
        for m in KvsMethod::ALL {
            let topic = m.topic();
            assert_eq!(topic.service(), "kvs");
            assert_eq!(KvsMethod::from_method(topic.method()), Some(*m));
        }
        assert_eq!(KvsMethod::from_method("no_such_method"), None);
        for m in CmbMethod::ALL {
            assert_eq!(CmbMethod::from_method(m.topic().method()), Some(*m));
        }
        for e in Event::ALL {
            assert_eq!(Event::from_topic_str(e.topic().as_str()), Some(*e));
        }
    }

    #[test]
    fn every_interned_topic_equals_a_fresh_one() {
        fn check(pairs: impl Iterator<Item = (Topic, &'static str)>) {
            for (interned, text) in pairs {
                assert_eq!(interned, Topic::new(text).expect("declared topic"), "{text}");
            }
        }
        check(CmbMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(HbMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(LiveMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(LogMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(MonMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(GroupMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(BarrierMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(KvsMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(WexecMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(ResvcMethod::ALL.iter().map(|m| (m.topic(), m.topic_str())));
        check(Event::ALL.iter().map(|e| (e.topic(), e.topic_str())));
    }

    #[test]
    fn service_names_roundtrip() {
        for s in Service::ALL {
            assert_eq!(Service::from_name(s.name()), Some(*s));
        }
        assert_eq!(Service::from_name("nope"), None);
    }

    #[test]
    fn kinds_match_protocol_semantics() {
        assert_eq!(KvsMethod::Watch.kind(), MethodKind::Stream);
        assert_eq!(KvsMethod::FenceUp.kind(), MethodKind::OneWay);
        assert_eq!(LiveMethod::Hello.kind(), MethodKind::OneWay);
        assert_eq!(BarrierMethod::Enter.kind(), MethodKind::Rpc);
        // Every internal tree-climbing reduction is one-way.
        for spec in methods() {
            if spec.topic.ends_with(".up") {
                assert_eq!(spec.kind, MethodKind::OneWay, "{}", spec.topic);
            }
        }
    }

    #[test]
    fn declared_error_sets_are_well_formed() {
        for spec in methods() {
            let errs = spec.declared_errors;
            // Every declared code is a real, named errnum...
            for &e in errs {
                assert_ne!(e, 0, "{} declares success as an error", spec.topic);
                assert_ne!(
                    flux_wire::errnum::strerror(e),
                    "unknown error",
                    "{} declares an unregistered errnum {e}",
                    spec.topic
                );
            }
            // ...listed at most once.
            let mut sorted = errs.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), errs.len(), "{} repeats an errnum", spec.topic);
            // One-way methods have no response header to carry an error.
            if spec.kind == MethodKind::OneWay {
                assert!(errs.is_empty(), "{} is one-way but declares errors", spec.topic);
            }
            // What any RPC can answer is no method's own refusal: a
            // sender tells refused from lost by membership in this set.
            for &e in TRANSPORT_ERRORS.iter().chain(&[flux_wire::errnum::ENOSYS]) {
                assert!(!errs.contains(&e), "{} declares transport-level errnum {e}", spec.topic);
            }
        }
        // Key-validating methods must declare the key-size rejection.
        for m in [KvsMethod::Put, KvsMethod::Unlink, KvsMethod::Get] {
            assert!(m.declared_errors().contains(&flux_wire::errnum::ENAMETOOLONG), "{:?}", m);
        }
    }

    #[test]
    fn spec_of_finds_every_row_and_nothing_else() {
        for spec in methods() {
            assert_eq!(spec_of(spec.topic), Some(spec));
            assert_eq!(kind_of(spec.topic), Some(spec.kind));
        }
        for stranger in ["kvs", "kvs.", "kvs.nope", "nope.get", "hb"] {
            assert_eq!(spec_of(stranger), None, "{stranger}");
        }
    }

    #[test]
    fn key_helpers_spell_the_namespaces() {
        assert_eq!(keys::mon::sampler_key("load"), "mon.samplers.load");
        assert_eq!(keys::mon::data_key("load", 7), "mon.data.load.e7");
        assert_eq!(keys::group::dir("g"), "groups.g");
        assert_eq!(keys::group::member_key("g", "r1-c2"), "groups.g.r1-c2");
        assert_eq!(keys::resvc::resource_key(3), "resource.r3");
        assert_eq!(keys::lwj::stdout_key(9, 2), "lwj.9.2.stdout");
        assert_eq!(keys::lwj::complete_key(9), "lwj.9.complete");
        assert_eq!(keys::lwj::ranks_key(9), "lwj.9.ranks");
    }
}
