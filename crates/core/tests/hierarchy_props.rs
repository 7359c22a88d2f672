//! Property tests over the instance hierarchy: arbitrary interleavings of
//! submissions, time advances, child spawning, and elastic changes never
//! violate the three hierarchy rules, and draining completes every
//! feasible job.

use flux_core::{Fcfs, GrowError, Instance, InstanceConfig, JobSpec, JobState};
use proptest::prelude::*;

/// One random framework action.
#[derive(Debug, Clone)]
enum Action {
    Submit { nodes: u32, walltime: u64 },
    SubmitToChild { child: usize, nodes: u32, walltime: u64 },
    Advance { dt: u64 },
    SpawnChild { nodes: u32 },
    Grow { child: usize, nodes: u32 },
    Shrink { child: usize, nodes: u32 },
    CapPower { watts: u64 },
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u32..6, 1u64..500).prop_map(|(nodes, walltime)| Action::Submit { nodes, walltime }),
        (0usize..4, 1u32..4, 1u64..500)
            .prop_map(|(child, nodes, walltime)| Action::SubmitToChild { child, nodes, walltime }),
        (1u64..1000).prop_map(|dt| Action::Advance { dt }),
        (1u32..6).prop_map(|nodes| Action::SpawnChild { nodes }),
        (0usize..4, 1u32..4).prop_map(|(child, nodes)| Action::Grow { child, nodes }),
        (0usize..4, 1u32..4).prop_map(|(child, nodes)| Action::Shrink { child, nodes }),
        (500u64..20_000).prop_map(|watts| Action::CapPower { watts }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariants hold under arbitrary action sequences.
    #[test]
    fn hierarchy_invariants_hold(actions in prop::collection::vec(arb_action(), 0..40)) {
        let mut root = Instance::root(
            InstanceConfig::new("prop-root", 16).with_power(16 * 500),
            Box::new(Fcfs),
        );
        for a in actions {
            match a {
                Action::Submit { nodes, walltime } => {
                    // Keep jobs feasible for the 16-node grant.
                    root.submit(JobSpec::rigid("j", nodes.min(16), walltime));
                }
                Action::SubmitToChild { child, nodes, walltime } => {
                    let ids = root.child_ids();
                    if let Some(&id) = ids.get(child % ids.len().max(1)) {
                        let c = root.child_mut(id).expect("listed child exists");
                        let n = nodes.min(c.grant_nodes().max(1));
                        if n <= c.grant_nodes() {
                            c.submit(JobSpec::rigid("cj", n, walltime));
                        }
                    }
                }
                Action::Advance { dt } => {
                    let to = root.now_ns() + dt;
                    root.advance(to);
                }
                Action::SpawnChild { nodes } => {
                    let _ = root.spawn_child(
                        InstanceConfig::new("c", nodes),
                        Box::new(Fcfs),
                    );
                }
                Action::Grow { child, nodes } => {
                    let ids = root.child_ids();
                    if let Some(&id) = ids.get(child % ids.len().max(1)) {
                        let r = root.request_grow(id, nodes, u64::from(nodes) * 100);
                        prop_assert!(matches!(r, Ok(()) | Err(GrowError::Insufficient)));
                    }
                }
                Action::Shrink { child, nodes } => {
                    let ids = root.child_ids();
                    if let Some(&id) = ids.get(child % ids.len().max(1)) {
                        let _ = root.shrink_child(id, nodes, 0);
                    }
                }
                Action::CapPower { watts } => root.cap_power(watts),
            }
            root.check_invariants();
        }
    }

    /// After lifting any power caps, draining finishes every submitted job
    /// exactly once, with start >= submit and end = start + walltime.
    #[test]
    fn drain_completes_everything(jobs in prop::collection::vec((1u32..8, 1u64..300), 1..30),
                                  advances in prop::collection::vec(1u64..200, 0..10)) {
        let mut root = Instance::root(
            InstanceConfig::new("drain-root", 8).with_power(u64::MAX / 2),
            Box::new(Fcfs),
        );
        let mut expected = Vec::new();
        let mut adv = advances.into_iter();
        for (nodes, walltime) in jobs {
            expected.push(root.submit(JobSpec::rigid("d", nodes, walltime)));
            if let Some(dt) = adv.next() {
                let to = root.now_ns() + dt;
                root.advance(to);
            }
        }
        root.drain();
        root.check_invariants();
        let done: Vec<_> = root
            .history()
            .iter()
            .filter(|e| e.state == JobState::Complete)
            .collect();
        prop_assert_eq!(done.len(), expected.len());
        for e in done {
            let start = e.start_ns.expect("completed jobs started");
            let end = e.end_ns.expect("completed jobs ended");
            prop_assert!(start >= e.submit_ns);
            prop_assert_eq!(end, start + e.spec.walltime_ns);
        }
    }

    /// FCFS preserves arrival order of start times for same-size jobs.
    #[test]
    fn fcfs_fairness(walltimes in prop::collection::vec(1u64..100, 2..20)) {
        let mut root = Instance::root(InstanceConfig::new("fifo", 1), Box::new(Fcfs));
        for w in &walltimes {
            root.submit(JobSpec::rigid("f", 1, *w).with_power(0));
        }
        root.drain();
        let mut events: Vec<_> = root.history().to_vec();
        events.sort_by_key(|e| e.id.0);
        let starts: Vec<u64> = events.iter().map(|e| e.start_ns.unwrap()).collect();
        prop_assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");
    }
}
