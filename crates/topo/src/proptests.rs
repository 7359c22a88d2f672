//! Property tests for topology invariants.

use crate::{LiveSet, Ring, Tree};
use flux_wire::Rank;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parent/children are mutually consistent for every rank.
    #[test]
    fn parent_child_consistency(size in 1u32..500, arity in 1u32..8) {
        let t = Tree::new(size, arity);
        for r in t.ranks() {
            for c in t.children(r) {
                prop_assert_eq!(t.parent(c), Some(r));
            }
            if let Some(p) = t.parent(r) {
                prop_assert!(t.children(p).contains(&r));
            }
        }
    }

    /// Every rank reaches the root by following `parent`, in exactly
    /// `depth` steps and at most `height` of them.
    #[test]
    fn all_paths_reach_root(size in 1u32..500, arity in 1u32..8) {
        let t = Tree::new(size, arity);
        for r in t.ranks() {
            let (mut cur, mut steps) = (r, 0u32);
            while let Some(p) = t.parent(cur) {
                prop_assert!(p < cur, "parent {} of {} is not closer to the root", p, cur);
                cur = p;
                steps += 1;
            }
            prop_assert_eq!(cur, Rank(0));
            prop_assert_eq!(steps, t.depth(r));
            prop_assert!(steps <= t.height());
        }
    }

    /// Each non-root rank appears in exactly one parent's child list:
    /// the subtrees of the root's children, walked down `children`,
    /// partition the non-root ranks.
    #[test]
    fn subtrees_partition(size in 2u32..300, arity in 1u32..6) {
        let t = Tree::new(size, arity);
        let mut seen = vec![false; size as usize];
        seen[0] = true;
        for top in t.children(Rank(0)) {
            let mut frontier = vec![top];
            while let Some(r) = frontier.pop() {
                prop_assert!(!seen[r.index()], "rank {} seen twice", r);
                prop_assert!(t.is_ancestor(top, r));
                seen[r.index()] = true;
                frontier.extend(t.children(r));
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Following `next` from any rank visits every other rank once and
    /// reaches the destination in `(to - from) mod size` hops: the ring
    /// overlay needs no routing table.
    #[test]
    fn ring_route_correct(size in 1u32..200, from in 0u32..200, to in 0u32..200) {
        let ring = Ring::new(size);
        let from = Rank(from % size);
        let to = Rank(to % size);
        let mut seen = vec![false; size as usize];
        let (mut cur, mut hops) = (from, 0u32);
        while cur != to {
            cur = ring.next(cur);
            prop_assert!(!seen[cur.index()], "rank {} visited twice", cur);
            seen[cur.index()] = true;
            hops += 1;
        }
        prop_assert_eq!(hops, (to.0 + size - from.0) % size);
        // A full lap returns to the start.
        let lap = (0..size).fold(from, |r, _| ring.next(r));
        prop_assert_eq!(lap, from);
    }

    /// Self-heal: with arbitrary non-root failures, every live rank's
    /// effective parent is live, is a true ancestor, and effective_children
    /// is the exact inverse relation.
    #[test]
    fn selfheal_consistency(size in 2u32..200, arity in 1u32..6,
                            deaths in prop::collection::vec(1u32..200, 0..20)) {
        let t = Tree::new(size, arity);
        let mut l = LiveSet::new(size);
        for d in deaths {
            let r = Rank(1 + (d - 1) % (size - 1));
            l.mark_down(r);
        }
        for r in t.ranks().skip(1) {
            if !l.is_up(r) {
                continue;
            }
            let p = l.effective_parent(&t, r).unwrap();
            prop_assert!(l.is_up(p));
            prop_assert!(t.is_ancestor(p, r));
            prop_assert!(l.effective_children(&t, p).contains(&r));
        }
        // Inverse direction: every effective child has this parent.
        for r in t.ranks() {
            if !l.is_up(r) {
                continue;
            }
            for c in l.effective_children(&t, r) {
                prop_assert!(l.is_up(c));
                prop_assert_eq!(l.effective_parent(&t, c), Some(r));
            }
        }
    }
}
