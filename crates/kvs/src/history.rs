//! Per-client consistency checking for chaos-test histories.
//!
//! Chaos workloads (see `flux_rt::chaos`) drive scripted clients against a
//! faulty session and record what each client observed. This module turns
//! those observations into verdicts: an empty violation list means the
//! history is explainable by the KVS consistency model (read-your-writes
//! and monotonic reads per client, monotonically advancing versions).
//!
//! The checker is deliberately conservative about *uncertainty*: a commit
//! whose response was lost ([`Event::StagedOnly`]) may or may not have
//! reached the master, so later reads may legitimately observe it — or
//! not. Only outcomes that no interleaving of the recorded operations can
//! produce are reported as violations.

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One observation in a client's history, in program order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A commit acknowledged by the session: every generation of `key`
    /// up to and including `gen` written by this client is durable on
    /// `shard`, whose version was `version` when it applied.
    Committed {
        /// The key written.
        key: String,
        /// Highest generation of `key` covered by this commit.
        gen: u64,
        /// Shard owning `key`.
        shard: u32,
        /// That shard's version reported by the commit frontier.
        version: u64,
    },
    /// A write whose commit outcome is unknown (the response was lost or
    /// the commit errored): generation `gen` of `key` may or may not be
    /// visible to later reads.
    StagedOnly {
        /// The key written.
        key: String,
        /// Generation whose durability is unknown.
        gen: u64,
    },
    /// A read of `key` observing generation `gen` (`None` = key absent).
    Read {
        /// The key read.
        key: String,
        /// Observed generation, or `None` if the key was absent.
        gen: Option<u64>,
    },
    /// An observation of one shard's version stream (a
    /// `kvs.get_version` probe, or a frontier entry).
    Version {
        /// The shard observed.
        shard: u32,
        /// The observed version.
        v: u64,
    },
    /// A contribution to the collective fence `name` whose release was
    /// acknowledged: generation `gen` of `key` (owned by `shard`) is
    /// durable. A contribution whose fence outcome is unknown must be
    /// recorded as [`Event::StagedOnly`] instead.
    Fenced {
        /// The fence name.
        name: String,
        /// The key contributed.
        key: String,
        /// Highest generation of `key` covered by the contribution.
        gen: u64,
        /// Shard owning `key`.
        shard: u32,
    },
    /// The release of fence `name`, carrying the per-shard version
    /// frontier reported by the release. All clients observing the same
    /// fence must observe the same frontier, and the frontier must cover
    /// every shard that received a contribution.
    FenceDone {
        /// The fence name.
        name: String,
        /// `(shard, version)` pairs from the release, any order.
        frontier: Vec<(u32, u64)>,
    },
}

/// Everything one scripted client observed, in program order.
#[derive(Clone, Debug)]
pub struct ClientHistory {
    /// A label for error messages (e.g. `"rank3/client0"`).
    pub client: String,
    /// Observations in program order.
    pub events: Vec<Event>,
}

/// Checks a set of per-client histories for consistency violations.
///
/// Returns human-readable violation descriptions; an empty vector means
/// the histories are consistent. Checked properties:
///
/// 1. **Writes exist**: a read observing generation `g` of a key is only
///    legal if some client wrote generation `g` (committed *or* staged —
///    a lost commit response does not mean a lost commit).
/// 2. **Read-your-writes**: after a client's commit of `gen` is
///    acknowledged, that client's later reads of the key must observe
///    `gen` or newer, and never `None`.
/// 3. **Monotonic reads**: per (client, key), observed generations never
///    go backwards, and a key never vanishes after being observed.
/// 4. **Monotonic versions**: per client and per shard, the sequence of
///    observed versions (commit responses, frontiers, and explicit
///    version probes) never decreases.
/// 5. **Fence frontier agreement**: every client observing the release
///    of a given fence observes the *same* per-shard version frontier.
/// 6. **No partial fence release**: a fence's release frontier covers
///    every shard that received a contribution, and after a client
///    observes the release its reads of fenced keys must observe the
///    fenced generations (or newer) — a fence never releases with a
///    missing shard contribution.
pub fn check(histories: &[ClientHistory]) -> Vec<String> {
    let mut violations = Vec::new();

    // Pass 1: the global set of generations ever written, per key. Using
    // the whole history (rather than a causal cut) can only under-report,
    // never false-positive. Also collects, per fence: the contributed
    // generations, the shards contributed to, and the release frontier
    // (checked for agreement across clients).
    let mut max_written: HashMap<&str, u64> = HashMap::new();
    let mut fence_keys: HashMap<&str, HashMap<&str, u64>> = HashMap::new();
    // Ordered: oracle 6a below reports its violations in fence-name order.
    let mut fence_shards: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
    let mut fence_frontiers: HashMap<&str, BTreeMap<u32, u64>> = HashMap::new();
    for h in histories {
        for ev in &h.events {
            match ev {
                Event::Committed { key, gen, .. } | Event::StagedOnly { key, gen } => {
                    let e = max_written.entry(key.as_str()).or_insert(0);
                    *e = (*e).max(*gen);
                }
                Event::Fenced { name, key, gen, shard } => {
                    let e = max_written.entry(key.as_str()).or_insert(0);
                    *e = (*e).max(*gen);
                    let fk = fence_keys.entry(name.as_str()).or_default();
                    let e = fk.entry(key.as_str()).or_insert(0);
                    *e = (*e).max(*gen);
                    fence_shards.entry(name.as_str()).or_default().insert(*shard);
                }
                Event::FenceDone { name, frontier } => {
                    let sorted: BTreeMap<u32, u64> = frontier.iter().copied().collect();
                    match fence_frontiers.get(name.as_str()) {
                        None => {
                            fence_frontiers.insert(name.as_str(), sorted);
                        }
                        Some(prev) if *prev != sorted => {
                            violations.push(format!(
                                "{}: fence {name} released with frontier {sorted:?} \
                                 but another client observed {prev:?}",
                                h.client
                            ));
                        }
                        Some(_) => {}
                    }
                }
                _ => {}
            }
        }
    }
    // Oracle 6a: the release frontier covers every contributed shard.
    for (name, shards) in &fence_shards {
        if let Some(frontier) = fence_frontiers.get(name) {
            for s in shards {
                if !frontier.contains_key(s) {
                    violations.push(format!(
                        "fence {name} released with no entry for shard {s} \
                         despite a contribution to it"
                    ));
                }
            }
        }
    }

    // Pass 2: per-client program-order checks.
    for h in histories {
        // key → highest acknowledged-committed gen by this client.
        let mut floor: HashMap<&str, u64> = HashMap::new();
        // key → gen this client must observe after a fence it saw release.
        let mut fence_floor: HashMap<&str, u64> = HashMap::new();
        // key → last gen this client observed via a read.
        let mut last_read: HashMap<&str, u64> = HashMap::new();
        // shard → highest version this client observed on that shard's
        // stream.
        let mut shard_versions: HashMap<u32, u64> = HashMap::new();
        let mut bump_version =
            |shard: u32, v: u64, what: &str, i: usize, violations: &mut Vec<String>| {
                let e = shard_versions.entry(shard).or_insert(0);
                if v < *e {
                    violations.push(format!(
                        "{}@{i}: {what} observed shard {shard} at version {v} \
                         after version {}",
                        h.client, *e
                    ));
                }
                *e = (*e).max(v);
            };
        for (i, ev) in h.events.iter().enumerate() {
            match ev {
                Event::Committed { key, gen, shard, version } => {
                    bump_version(
                        *shard,
                        *version,
                        &format!("commit of {key}#{gen}"),
                        i,
                        &mut violations,
                    );
                    let e = floor.entry(key.as_str()).or_insert(0);
                    *e = (*e).max(*gen);
                }
                Event::StagedOnly { .. } => {}
                Event::Version { shard, v } => {
                    bump_version(*shard, *v, "version probe", i, &mut violations);
                }
                Event::Fenced { key, gen, .. } => {
                    let e = floor.entry(key.as_str()).or_insert(0);
                    *e = (*e).max(*gen);
                }
                Event::FenceDone { name, frontier } => {
                    for (shard, v) in frontier {
                        bump_version(
                            *shard,
                            *v,
                            &format!("fence {name} frontier"),
                            i,
                            &mut violations,
                        );
                    }
                    // Oracle 6b: from here on this client must observe
                    // every contribution the fence gathered, whoever
                    // wrote it.
                    if let Some(fk) = fence_keys.get(name.as_str()) {
                        for (key, gen) in fk {
                            let e = fence_floor.entry(key).or_insert(0);
                            *e = (*e).max(*gen);
                        }
                    }
                }
                Event::Read { key, gen } => {
                    let floor_gen = floor.get(key.as_str()).copied().unwrap_or(0);
                    let fence_gen = fence_floor.get(key.as_str()).copied().unwrap_or(0);
                    let prev_read = last_read.get(key.as_str()).copied();
                    match gen {
                        Some(g) => {
                            let written = max_written.get(key.as_str()).copied().unwrap_or(0);
                            if *g > written {
                                violations.push(format!(
                                    "{}@{i}: read {key}#{g} but no client ever wrote \
                                     past generation {written}",
                                    h.client
                                ));
                            }
                            if *g < floor_gen {
                                violations.push(format!(
                                    "{}@{i}: read-your-writes violation: read {key}#{g} \
                                     after own commit of #{floor_gen} was acknowledged",
                                    h.client
                                ));
                            }
                            if *g < fence_gen {
                                violations.push(format!(
                                    "{}@{i}: fence violation: read {key}#{g} after a \
                                     fence covering #{fence_gen} released",
                                    h.client
                                ));
                            }
                            if let Some(prev) = prev_read {
                                if *g < prev {
                                    violations.push(format!(
                                        "{}@{i}: monotonic-reads violation: read {key}#{g} \
                                         after having read #{prev}",
                                        h.client
                                    ));
                                }
                            }
                            let e = last_read.entry(key.as_str()).or_insert(0);
                            *e = (*e).max(*g);
                        }
                        None => {
                            if floor_gen > 0 {
                                violations.push(format!(
                                    "{}@{i}: read-your-writes violation: {key} absent \
                                     after own commit of #{floor_gen} was acknowledged",
                                    h.client
                                ));
                            }
                            if fence_gen > 0 {
                                violations.push(format!(
                                    "{}@{i}: fence violation: {key} absent after a \
                                     fence covering #{fence_gen} released",
                                    h.client
                                ));
                            }
                            if let Some(prev) = prev_read {
                                violations.push(format!(
                                    "{}@{i}: monotonic-reads violation: {key} absent \
                                     after having read #{prev}",
                                    h.client
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(events: Vec<Event>) -> ClientHistory {
        ClientHistory { client: "c0".into(), events }
    }

    #[test]
    fn clean_history_passes() {
        let h = hist(vec![
            Event::Read { key: "k".into(), gen: None },
            Event::Committed { key: "k".into(), gen: 1, shard: 0, version: 5 },
            Event::Read { key: "k".into(), gen: Some(1) },
            Event::Committed { key: "k".into(), gen: 2, shard: 0, version: 7 },
            Event::Version { shard: 0, v: 7 },
            Event::Read { key: "k".into(), gen: Some(2) },
        ]);
        assert!(check(&[h]).is_empty());
    }

    #[test]
    fn staged_only_reads_are_tolerated_either_way() {
        // A lost commit response: the read may see the write or not.
        let saw = hist(vec![
            Event::StagedOnly { key: "k".into(), gen: 1 },
            Event::Read { key: "k".into(), gen: Some(1) },
        ]);
        let missed = hist(vec![
            Event::StagedOnly { key: "k".into(), gen: 1 },
            Event::Read { key: "k".into(), gen: None },
        ]);
        assert!(check(&[saw]).is_empty());
        assert!(check(&[missed]).is_empty());
    }

    #[test]
    fn read_your_writes_violation_detected() {
        let stale = hist(vec![
            Event::Committed { key: "k".into(), gen: 2, shard: 0, version: 3 },
            Event::Read { key: "k".into(), gen: Some(1) },
        ]);
        let v = check(&[stale]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("read-your-writes"), "{v:?}");

        let absent = hist(vec![
            Event::Committed { key: "k".into(), gen: 1, shard: 0, version: 3 },
            Event::Read { key: "k".into(), gen: None },
        ]);
        assert!(!check(&[absent]).is_empty());
    }

    #[test]
    fn monotonic_reads_violation_detected() {
        let writer = ClientHistory {
            client: "w".into(),
            events: vec![
                Event::Committed { key: "k".into(), gen: 1, shard: 0, version: 1 },
                Event::Committed { key: "k".into(), gen: 2, shard: 0, version: 2 },
            ],
        };
        let reader = ClientHistory {
            client: "r".into(),
            events: vec![
                Event::Read { key: "k".into(), gen: Some(2) },
                Event::Read { key: "k".into(), gen: Some(1) },
            ],
        };
        let v = check(&[writer, reader]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("monotonic-reads"), "{v:?}");
    }

    #[test]
    fn phantom_read_detected() {
        let h = hist(vec![Event::Read { key: "ghost".into(), gen: Some(3) }]);
        let v = check(&[h]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("ever wrote"), "{v:?}");
    }

    #[test]
    fn version_regression_detected() {
        let h = hist(vec![Event::Version { shard: 0, v: 9 }, Event::Version { shard: 0, v: 4 }]);
        let v = check(&[h]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("version 4 after version 9"), "{v:?}");
    }

    #[test]
    fn sharded_versions_are_independent_streams() {
        // Shard 1 at version 9 then shard 0 at version 2 is fine —
        // streams are per shard. Shard 1 regressing is not.
        let ok = hist(vec![
            Event::Version { shard: 1, v: 9 },
            Event::Version { shard: 0, v: 2 },
            Event::Committed { key: "k".into(), gen: 1, shard: 0, version: 3 },
        ]);
        assert!(check(&[ok]).is_empty());

        let bad = hist(vec![Event::Version { shard: 1, v: 9 }, Event::Version { shard: 1, v: 4 }]);
        let v = check(&[bad]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("shard 1 at version 4"), "{v:?}");
    }

    #[test]
    fn sharded_commit_gives_read_your_writes() {
        let stale = hist(vec![
            Event::Committed { key: "k".into(), gen: 2, shard: 3, version: 1 },
            Event::Read { key: "k".into(), gen: Some(1) },
        ]);
        let v = check(&[stale]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("read-your-writes"), "{v:?}");
    }

    #[test]
    fn fence_frontier_disagreement_detected() {
        let a = ClientHistory {
            client: "a".into(),
            events: vec![Event::FenceDone { name: "f".into(), frontier: vec![(0, 3), (1, 5)] }],
        };
        let b = ClientHistory {
            client: "b".into(),
            events: vec![Event::FenceDone { name: "f".into(), frontier: vec![(1, 5), (0, 3)] }],
        };
        // Same frontier, different order: consistent.
        assert!(check(&[a.clone(), b]).is_empty());

        let c = ClientHistory {
            client: "c".into(),
            events: vec![Event::FenceDone { name: "f".into(), frontier: vec![(0, 3), (1, 6)] }],
        };
        let v = check(&[a, c]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("frontier"), "{v:?}");
    }

    #[test]
    fn fence_release_missing_shard_contribution_detected() {
        // A client contributed to shard 2 but the release frontier only
        // covers shards 0 and 1: a partial release. Several are reported
        // in fence-name order, the same in every process.
        let names = ["a", "b", "c", "d", "e", "f"];
        let h = hist(
            names
                .iter()
                .flat_map(|&n| {
                    [
                        Event::Fenced { name: n.into(), key: format!("{n}.k"), gen: 1, shard: 2 },
                        Event::FenceDone { name: n.into(), frontier: vec![(0, 1), (1, 1)] },
                    ]
                })
                .collect(),
        );
        let v = check(&[h]);
        assert_eq!(v.len(), names.len(), "{v:?}");
        for (v, n) in v.iter().zip(names) {
            assert!(v.starts_with(&format!("fence {n} released with no entry for shard 2")), "{v:?}");
        }
    }

    #[test]
    fn reads_after_fence_release_must_observe_contributions() {
        let writer = ClientHistory {
            client: "w".into(),
            events: vec![
                Event::Fenced { name: "f".into(), key: "w.k".into(), gen: 2, shard: 1 },
                Event::FenceDone { name: "f".into(), frontier: vec![(1, 4)] },
            ],
        };
        let reader_ok = ClientHistory {
            client: "r0".into(),
            events: vec![
                Event::FenceDone { name: "f".into(), frontier: vec![(1, 4)] },
                Event::Read { key: "w.k".into(), gen: Some(2) },
            ],
        };
        assert!(check(&[writer.clone(), reader_ok]).is_empty());

        let reader_stale = ClientHistory {
            client: "r1".into(),
            events: vec![
                Event::FenceDone { name: "f".into(), frontier: vec![(1, 4)] },
                Event::Read { key: "w.k".into(), gen: Some(1) },
            ],
        };
        let v = check(&[writer.clone(), reader_stale]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("fence violation"), "{v:?}");

        let reader_absent = ClientHistory {
            client: "r2".into(),
            events: vec![
                Event::FenceDone { name: "f".into(), frontier: vec![(1, 4)] },
                Event::Read { key: "w.k".into(), gen: None },
            ],
        };
        assert!(!check(&[writer, reader_absent]).is_empty());
    }

    #[test]
    fn reads_before_fence_release_are_unconstrained() {
        // The same stale read is fine if it happens before this client
        // observes the release.
        let writer = ClientHistory {
            client: "w".into(),
            events: vec![
                Event::Fenced { name: "f".into(), key: "w.k".into(), gen: 2, shard: 1 },
                Event::FenceDone { name: "f".into(), frontier: vec![(1, 4)] },
            ],
        };
        let reader = ClientHistory {
            client: "r".into(),
            events: vec![
                Event::Read { key: "w.k".into(), gen: None },
                Event::Read { key: "w.k".into(), gen: Some(1) },
                Event::FenceDone { name: "f".into(), frontier: vec![(1, 4)] },
                Event::Read { key: "w.k".into(), gen: Some(2) },
            ],
        };
        assert!(check(&[writer, reader]).is_empty());
    }

    #[test]
    fn cross_client_reads_validated_against_all_writers() {
        let writer = ClientHistory {
            client: "w".into(),
            events: vec![Event::StagedOnly { key: "w.k".into(), gen: 3 }],
        };
        let reader = ClientHistory {
            client: "r".into(),
            events: vec![Event::Read { key: "w.k".into(), gen: Some(3) }],
        };
        assert!(check(&[writer, reader]).is_empty());
    }
}
