//! Checkable scenarios: a session topology, module set, and scripts,
//! plus the oracle data the invariant checks need.

use flux_broker::CommsModule;
use flux_kvs::{KvsConfig, KvsModule};
use flux_modules::BarrierModule;
use flux_rt::script::Op;
use flux_rt::sim::SimSession;
use flux_sim::NetParams;
use flux_value::Value;
use flux_wire::Rank;
use std::collections::BTreeMap;

/// Which modules every broker in the scenario loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModuleSet {
    /// The KVS module only. `dedup: false` re-introduces the historical
    /// fence/push double-apply bug (the mutation smoke-test target).
    Kvs {
        /// Duplicate-frame dedup at the KVS master (production: `true`).
        dedup: bool,
        /// Master-side push batching. Legacy scenarios pin this `false`
        /// so per-push version counts stay exact — a duplicated push
        /// parked in the *same* batch as its original coalesces into one
        /// version bump, which would hide the mutants' double-apply from
        /// the version-overrun oracle.
        batch: bool,
        /// Shard-master count (1 = classic single master). Sharded
        /// scenarios place masters on ranks `0..shards` and scripts on
        /// slave ranks only.
        shards: u32,
    },
    /// KVS plus the barrier module.
    KvsBarrier {
        /// Duplicate-frame dedup at the KVS master (production: `true`).
        dedup: bool,
        /// Master-side push batching (see [`ModuleSet::Kvs`]).
        batch: bool,
    },
}

impl ModuleSet {
    fn kvs_config(dedup: bool, batch: bool, shards: u32) -> KvsConfig {
        KvsConfig {
            dedup,
            batch_window_ns: if batch { KvsConfig::default().batch_window_ns } else { 0 },
            shards,
            ..KvsConfig::default()
        }
    }

    fn build(self) -> Vec<Box<dyn CommsModule>> {
        match self {
            ModuleSet::Kvs { dedup, batch, shards } => {
                vec![Box::new(KvsModule::with_config(Self::kvs_config(dedup, batch, shards)))]
            }
            ModuleSet::KvsBarrier { dedup, batch } => vec![
                Box::new(KvsModule::with_config(Self::kvs_config(dedup, batch, 1))),
                Box::new(BarrierModule::new()),
            ],
        }
    }
}

/// One model-checking scenario: a fixed session plus its correctness
/// oracle. Scenarios are small on purpose — the explorer multiplies
/// every visible step into a branching point, so a handful of clients
/// already yields tens of thousands of distinct schedules.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable name, embedded in traces for replay lookup.
    pub name: &'static str,
    /// Broker count.
    pub size: u32,
    /// Tree arity.
    pub arity: u32,
    /// Modules loaded on every broker.
    pub modules: ModuleSet,
    /// Scripted clients: `(home rank, ops)`.
    pub scripts: Vec<(Rank, Vec<Op>)>,
    /// Failure injection: kill this rank's broker once the runner reaches
    /// the given visible step. The schedule's step counter makes the kill
    /// point deterministic across replays. The victim must host no
    /// scripts (its clients could never finish) and must not be the root.
    pub kill: Option<(Rank, u32)>,
    /// Root applies each shard sees when every fence and commit applies
    /// exactly once: no versioned reply may name a root past it (0 =
    /// skip the version-overrun check).
    pub expected_applies: u64,
    /// Key → value that any successful `Get` after a script's sync point
    /// must observe. The sync point is the script's first successful
    /// `Fence` (the fence barrier guarantees visibility of all
    /// participants' write-back sets) or `WaitVersion` (the version it
    /// waited for covers these writes).
    pub post_sync: BTreeMap<String, Value>,
}

impl Scenario {
    /// Builds a fresh session for one schedule run. `NetParams::default`
    /// keeps latencies deterministic; the explorer owns all reordering.
    pub(crate) fn build(&self) -> SimSession {
        let modules = self.modules;
        SimSession::new(self.size, self.arity, NetParams::default(), move |_rank| modules.build())
    }

    /// Looks a scenario up by its trace name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        match name {
            "kvs_fence" => Some(Self::kvs_fence()),
            "kvs_fence_mutant" => Some(Self::kvs_fence_mutant()),
            "kvs_commit" => Some(Self::kvs_commit()),
            "kvs_commit_mutant" => Some(Self::kvs_commit_mutant()),
            "kvs_commit_kill" => Some(Self::kvs_commit_kill()),
            "kvs_batch" => Some(Self::kvs_batch()),
            "kvs_shard_fence" => Some(Self::kvs_shard_fence()),
            "kvs_shard_watch" => Some(Self::kvs_shard_watch()),
            "kvs_load_chain" => Some(Self::kvs_load_chain()),
            "barrier" => Some(Self::barrier()),
            _ => None,
        }
    }

    /// Names of all scenarios expected to be violation-free on the live
    /// tree (the mutants are deliberately excluded).
    pub fn clean_names() -> &'static [&'static str] {
        &[
            "kvs_fence",
            "kvs_commit",
            "kvs_commit_kill",
            "kvs_batch",
            "kvs_shard_fence",
            "kvs_shard_watch",
            "kvs_load_chain",
            "barrier",
        ]
    }

    /// The flagship scenario: a 3-broker tree where two clients on
    /// different leaf ranks each put one key, synchronize on a fence,
    /// then read *each other's* key. Exercises put staging, fence
    /// contribution relay, root apply, setroot event propagation, and
    /// the get/load walk — every KVS interleaving class at once.
    pub fn kvs_fence() -> Scenario {
        Self::fence_scenario("kvs_fence", true)
    }

    /// [`Scenario::kvs_fence`] with master-side dedup disabled: the
    /// mutation smoke-test target. Duplicated fence contributions apply
    /// twice, so some schedule must violate an invariant.
    pub fn kvs_fence_mutant() -> Scenario {
        Self::fence_scenario("kvs_fence_mutant", false)
    }

    fn fence_scenario(name: &'static str, dedup: bool) -> Scenario {
        // Four participants, two per leaf broker: concurrent clients on
        // one broker interleave locally, the two leaf subtrees
        // interleave globally, and every participant reads its
        // neighbours' keys afterwards. This is the densest interleaving
        // space per event of any scenario here.
        const NPROCS: u64 = 4;
        let key = |i: usize| format!("mc.k{i}");
        let script = |i: usize| {
            vec![
                Op::Put { key: key(i), val: Value::from(1i64) },
                Op::Fence { name: "mc.fence".into(), nprocs: NPROCS },
                Op::Get { key: key((i + 1) % NPROCS as usize) },
                Op::Get { key: key(i) },
                Op::GetVersion,
            ]
        };
        let mut post_sync = BTreeMap::new();
        for i in 0..NPROCS as usize {
            post_sync.insert(key(i), Value::from(1i64));
        }
        Scenario {
            name,
            size: 3,
            arity: 2,
            modules: ModuleSet::Kvs { dedup, batch: false, shards: 1 },
            scripts: (0..NPROCS as usize).map(|i| (Rank(1 + (i as u32 % 2)), script(i))).collect(),
            // One fence = one root apply covering all write-back sets.
            expected_applies: 1,
            post_sync,
            kill: None,
        }
    }

    /// Independent commits from ranks 2 and 3 of a 4-broker, arity-2
    /// tree: commit → push → master apply → response unwind, where rank
    /// 3's push is forwarded by interior rank 1 and its answer unwinds
    /// through it.
    pub(crate) fn kvs_commit() -> Scenario {
        Self::commit_scenario("kvs_commit", true)
    }

    /// The `kvs_commit` scenario with master-side dedup disabled: a
    /// duplicated push frame applies twice and overruns the version.
    pub fn kvs_commit_mutant() -> Scenario {
        Self::commit_scenario("kvs_commit_mutant", false)
    }

    fn commit_scenario(name: &'static str, dedup: bool) -> Scenario {
        let c1 = vec![
            Op::Put { key: "mc.x".into(), val: Value::from(1i64) },
            Op::Commit,
            Op::Get { key: "mc.x".into() },
            Op::GetVersion,
        ];
        let c2 = vec![
            Op::Put { key: "mc.y".into(), val: Value::from(1i64) },
            Op::Commit,
            Op::Get { key: "mc.y".into() },
            Op::GetVersion,
        ];
        Scenario {
            name,
            size: 4,
            arity: 2,
            modules: ModuleSet::Kvs { dedup, batch: false, shards: 1 },
            scripts: vec![(Rank(2), c1), (Rank(3), c2)],
            expected_applies: 2,
            post_sync: BTreeMap::new(),
            kill: None,
        }
    }

    /// A commit from rank 1 while the idle leaf broker (rank 2) dies a
    /// few visible steps in. The rank-2 subtree stops being a branching
    /// source the moment it dies — events already destined for it leave
    /// the eligible frontier — so schedules only interleave the work that
    /// can still affect the outcome, and the client on the surviving
    /// branch must finish untouched under every remaining interleaving.
    pub(crate) fn kvs_commit_kill() -> Scenario {
        let c1 = vec![
            Op::Put { key: "mc.kx".into(), val: Value::from(1i64) },
            Op::Commit,
            Op::Get { key: "mc.kx".into() },
            Op::GetVersion,
        ];
        Scenario {
            name: "kvs_commit_kill",
            size: 3,
            arity: 2,
            modules: ModuleSet::Kvs { dedup: true, batch: false, shards: 1 },
            scripts: vec![(Rank(1), c1)],
            kill: Some((Rank(2), 2)),
            expected_applies: 1,
            post_sync: BTreeMap::new(),
        }
    }

    /// [`Scenario::kvs_commit`] with master-side push batching enabled:
    /// explores every interleaving of push arrival against the batch
    /// window timer. The oracle bounds (version ≤ 2 applies,
    /// read-your-writes in the history check) must hold whether the two
    /// pushes coalesce into one walk or flush separately — and a batch
    /// applied twice would still overrun the version bound.
    pub(crate) fn kvs_batch() -> Scenario {
        let c1 = vec![
            Op::Put { key: "mc.bx".into(), val: Value::from(1i64) },
            Op::Commit,
            Op::Get { key: "mc.bx".into() },
            Op::GetVersion,
        ];
        let c2 = vec![
            Op::Put { key: "mc.by".into(), val: Value::from(2i64) },
            Op::Commit,
            Op::Get { key: "mc.by".into() },
            Op::GetVersion,
        ];
        Scenario {
            name: "kvs_batch",
            size: 3,
            arity: 2,
            modules: ModuleSet::Kvs { dedup: true, batch: true, shards: 1 },
            scripts: vec![(Rank(1), c1), (Rank(2), c2)],
            expected_applies: 2,
            post_sync: BTreeMap::new(),
            kill: None,
        }
    }

    /// Two shard masters (ranks 0–1), two clients on slave ranks, each
    /// contributing a key owned by a *different* shard to one fence:
    /// the root must collect both contributions, push the remote part to
    /// the shard-1 master, and release one agreed frontier covering both
    /// shards. Explores every interleaving of fence contribution relay
    /// against the cross-shard push/ack exchange; the history oracle
    /// rejects any schedule where the fence releases with a missing
    /// shard entry or where released clients observe different
    /// frontiers.
    pub fn kvs_shard_fence() -> Scenario {
        const SHARDS: u32 = 2;
        let key = |s: u32| flux_kvs::shard::key_on_shard("mc.sf.", s, SHARDS);
        let script = |s: u32| {
            vec![
                Op::Put { key: key(s), val: Value::from(1i64) },
                Op::Fence { name: "mc.sfence".into(), nprocs: 2 },
                Op::Get { key: key((s + 1) % SHARDS) },
                Op::Get { key: key(s) },
            ]
        };
        let mut post_sync = BTreeMap::new();
        for s in 0..SHARDS {
            post_sync.insert(key(s), Value::from(1i64));
        }
        Scenario {
            name: "kvs_shard_fence",
            size: 4,
            arity: 2,
            modules: ModuleSet::Kvs { dedup: true, batch: false, shards: SHARDS },
            scripts: vec![(Rank(2), script(0)), (Rank(3), script(1))],
            // One fence: each shard applies its part once.
            expected_applies: 1,
            post_sync,
            kill: None,
        }
    }

    /// A watcher on one slave rank watching a shard-1 key while a writer
    /// on the other slave commits a cross-shard write set: the watch
    /// stream's re-check must key off the *owning* shard's root switch,
    /// and the watcher's `WaitVersion` on shard 0 must release once the
    /// commit's setroot event reaches its broker. Explores watch
    /// registration against commit push/setroot ordering across two
    /// independent shard version streams.
    pub fn kvs_shard_watch() -> Scenario {
        const SHARDS: u32 = 2;
        let k0 = flux_kvs::shard::key_on_shard("mc.sw.", 0, SHARDS);
        let k1 = flux_kvs::shard::key_on_shard("mc.sw.", 1, SHARDS);
        let watcher = vec![
            Op::Request {
                topic: flux_proto::KvsMethod::Watch.topic(),
                payload: flux_kvs::msg::key(&k1),
            },
            Op::WaitVersion(1),
            Op::Get { key: k0.clone() },
        ];
        let writer = vec![
            Op::Put { key: k0, val: Value::from(1i64) },
            Op::Put { key: k1.clone(), val: Value::from(2i64) },
            Op::Commit,
            Op::Get { key: k1 },
        ];
        Scenario {
            name: "kvs_shard_watch",
            size: 4,
            arity: 2,
            modules: ModuleSet::Kvs { dedup: true, batch: false, shards: SHARDS },
            scripts: vec![(Rank(2), watcher), (Rank(3), writer)],
            // One commit touching both shards: one apply on each.
            expected_applies: 1,
            post_sync: BTreeMap::new(),
            kill: None,
        }
    }

    /// The interior hop of the slave-cache chain, in a one-shard
    /// session: a writer on rank 2 commits two keys, and readers on rank
    /// 1 and on rank 3 (rank 1's child) wait for that version, then get
    /// both keys. Both readers fault the same objects in, so two faults
    /// of one object meet at rank 1, which serves its child's forwarded
    /// `kvs.load` and its own walk's in both orders.
    pub fn kvs_load_chain() -> Scenario {
        let (a, b) = ("mc.lc.a", "mc.lc.b");
        let writer = vec![
            Op::Put { key: a.into(), val: Value::from(1i64) },
            Op::Put { key: b.into(), val: Value::from(2i64) },
            Op::Commit,
        ];
        let reader = |probes: usize| {
            let mut ops = vec![Op::WaitVersion(1)];
            ops.extend((0..probes).map(|_| Op::GetVersion));
            ops.extend([Op::Get { key: a.into() }, Op::Get { key: b.into() }]);
            ops
        };
        Scenario {
            name: "kvs_load_chain",
            size: 4,
            arity: 2,
            modules: ModuleSet::Kvs { dedup: true, batch: false, shards: 1 },
            // The setroot event reaches rank 1 a hop before rank 3. Two
            // version probes hold rank 1's own walk back that long, so
            // the default schedule has the child's load arrive first on
            // some objects and the walk first on others; the explorer's
            // deviations swap them.
            scripts: vec![(Rank(2), writer), (Rank(1), reader(2)), (Rank(3), reader(0))],
            expected_applies: 1,
            post_sync: BTreeMap::from([(a.into(), Value::from(1i64)), (b.into(), Value::from(2i64))]),
            kill: None,
        }
    }

    /// Two clients entering one barrier across the tree: checks barrier
    /// completion (every entrant released exactly once) under reordered
    /// and duplicated `barrier.up` aggregation frames.
    pub fn barrier() -> Scenario {
        let ops = |_| {
            vec![
                Op::Barrier { name: "mc.bar".into(), nprocs: 2 },
                Op::Barrier { name: "mc.bar2".into(), nprocs: 2 },
            ]
        };
        Scenario {
            name: "barrier",
            size: 3,
            arity: 2,
            modules: ModuleSet::KvsBarrier { dedup: true, batch: false },
            scripts: vec![(Rank(1), ops(1)), (Rank(2), ops(2))],
            expected_applies: 0,
            post_sync: BTreeMap::new(),
            kill: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_finds_every_builder() {
        for name in [
            "kvs_fence",
            "kvs_fence_mutant",
            "kvs_commit",
            "kvs_commit_mutant",
            "kvs_commit_kill",
            "kvs_batch",
            "kvs_shard_fence",
            "kvs_shard_watch",
            "kvs_load_chain",
            "barrier",
        ] {
            let s = Scenario::by_name(name).expect("known scenario");
            assert_eq!(s.name, name);
            assert!(!s.scripts.is_empty());
        }
        assert!(Scenario::by_name("nope").is_none());
    }

    #[test]
    fn clean_names_resolve_and_exclude_mutants() {
        for name in Scenario::clean_names() {
            assert!(Scenario::by_name(name).is_some());
            assert!(!name.contains("mutant"));
        }
    }
}
