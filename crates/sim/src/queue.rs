//! The pending-event queue: a binary heap ordered by `(time, seq)`.
//!
//! A collective — 8192 clients leaving a barrier, a fence release — puts
//! thousands of events into one instant, so the queue's cost is set by
//! how it drains a burst, not by how it spreads events over time. A heap
//! pops each of a burst of n in `O(log n)` whatever their times; a
//! calendar queue that scans the current time slice for its minimum
//! pays `O(n²)` for the burst (measured in DESIGN §15).
//!
//! Ordering is the exact `(time, insertion seq)` total order by
//! construction: the heap compares whole entries, and `seq` is unique.
//! Bit-reproducibility of golden simulations is pinned by tests.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Queue entry: scheduled time, insertion sequence, event-arena index.
type Entry = (SimTime, u64, u32);

#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
}

impl EventQueue {
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, idx: u32) {
        self.heap.push(Reverse((at, seq, idx)));
    }

    /// Removes and returns the earliest entry by `(time, seq)` — unless
    /// it is due after `until`, which leaves it queued. One look at the
    /// minimum serves both the deadline check and the removal.
    pub(crate) fn pop_min(&mut self, until: Option<SimTime>) -> Option<Entry> {
        let min = self.heap.peek_mut()?;
        if until.is_some_and(|deadline| min.0 .0 > deadline) {
            return None;
        }
        Some(PeekMut::pop(min).0)
    }

    /// Removes the entry with insertion sequence `seq` out of order,
    /// returning its `(time, arena index)`. Linear: only
    /// controlled-scheduling drivers call this.
    pub(crate) fn remove_seq(&mut self, seq: u64) -> Option<(SimTime, u32)> {
        let mut found = None;
        self.heap.retain(|Reverse(e)| {
            if e.1 == seq {
                found = Some((e.0, e.2));
            }
            e.1 != seq
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// Drains the queue into the `(time, seq)` pairs it popped, in order.
    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop_min(None)).map(|(at, seq, _)| (at.as_nanos(), seq)).collect()
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = EventQueue::default();
        q.push(t(500), 1, 0);
        q.push(t(100), 2, 1);
        q.push(t(100), 3, 2);
        q.push(t(0), 4, 3);
        assert_eq!(drain(&mut q), vec![(0, 4), (100, 2), (100, 3), (500, 1)]);
    }

    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::default();
        // Heartbeat-style timers far out, interleaved with near-term
        // traffic.
        q.push(t(100_000_000), 1, 0);
        q.push(t(3_000), 2, 1);
        q.push(t(100_000_100), 3, 2);
        q.push(t(99_999_999), 4, 3);
        assert_eq!(
            drain(&mut q),
            vec![(3_000, 2), (99_999_999, 4), (100_000_000, 1), (100_000_100, 3)]
        );
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // Deterministic pseudo-random workload mixing short gaps with
        // far timers, with pops interleaved so the clock advances
        // mid-stream.
        let mut q = EventQueue::default();
        let mut rng: u64 = 0x243F6A8885A308D3;
        let mut seq = 0;
        let mut popped = Vec::new();
        let mut clock = 0u64;
        for round in 0..200 {
            for _ in 0..7 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let gap = if rng.is_multiple_of(13) { rng % 50_000_000 } else { rng % 20_000 };
                seq += 1;
                q.push(t(clock + gap), seq, 0);
            }
            if round % 3 != 0 {
                for _ in 0..5 {
                    if let Some((at, s, _)) = q.pop_min(None) {
                        popped.push((at.as_nanos(), s));
                        clock = clock.max(at.as_nanos());
                    }
                }
            }
        }
        popped.extend(drain(&mut q));
        let mut expect = popped.clone();
        expect.sort_unstable();
        assert_eq!(popped, expect, "pop order must equal global (time, seq) order");
        assert_eq!(popped.len(), 1400);
    }

    #[test]
    fn a_deadline_leaves_later_events_queued() {
        let mut q = EventQueue::default();
        q.push(t(9_000_000), 1, 7);
        q.push(t(40), 2, 8);
        assert_eq!(q.pop_min(Some(t(39))), None);
        assert_eq!(q.pop_min(Some(t(40))), Some((t(40), 2, 8)), "the deadline is inclusive");
        assert_eq!(q.pop_min(Some(t(8_999_999))), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_min(None), Some((t(9_000_000), 1, 7)));
        assert_eq!(q.pop_min(None), None);
    }

    #[test]
    fn remove_seq_reaches_near_and_far_events() {
        let mut q = EventQueue::default();
        q.push(t(10), 1, 0);
        q.push(t(600_000_000), 2, 1);
        q.push(t(20), 3, 2);
        assert_eq!(q.remove_seq(2), Some((t(600_000_000), 1)));
        assert_eq!(q.remove_seq(99), None);
        assert_eq!(q.remove_seq(1), Some((t(10), 0)));
        assert_eq!(drain(&mut q), vec![(20, 3)]);
    }

    #[test]
    fn a_same_instant_burst_drains_in_seq_order_without_rescanning() {
        // Canary for the burst cost: a queue that looks for its minimum
        // by scanning what shares the instant takes tens of seconds here.
        const N: u64 = 200_000;
        let mut q = EventQueue::default();
        for seq in 1..=N {
            q.push(t(4_096), seq, 0);
        }
        let started = std::time::Instant::now();
        for seq in 1..=N {
            assert_eq!(q.pop_min(None), Some((t(4_096), seq, 0)));
        }
        assert_eq!(q.len(), 0);
        assert!(started.elapsed() < std::time::Duration::from_secs(10), "{:?}", started.elapsed());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of pushes, pops, deadline-bounded pops and
        /// out-of-order removals agrees with a sorted `Vec`.
        #[test]
        fn agrees_with_a_sorted_vec(ops in prop::collection::vec((0u8..9, any::<u64>()), 0..300)) {
            let mut q = EventQueue::default();
            let mut model: Vec<Entry> = Vec::new();
            // `clock` is the time of the last event taken out, as the
            // engine's clock would be.
            let (mut seq, mut clock) = (0u64, 0u64);
            for (op, a) in ops {
                match op {
                    0..=4 => {
                        let at = match op {
                            // A same-instant burst.
                            0 | 1 => clock,
                            2 => clock + a % 20_000,
                            // Before the last pop: a controlled scheduler
                            // dispatched a later event first.
                            3 => clock.saturating_sub(a % 5_000),
                            // A far timer.
                            _ => clock + a % 10_000_000_000,
                        };
                        seq += 1;
                        q.push(t(at), seq, seq as u32);
                        model.push((t(at), seq, seq as u32));
                        model.sort_unstable();
                    }
                    5 | 6 => {
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        prop_assert_eq!(q.pop_min(None), want);
                        clock = want.map_or(clock, |e| e.0.as_nanos());
                    }
                    7 => {
                        let until = t(clock + a % 30_000);
                        let due = model.first().is_some_and(|e| e.0 <= until);
                        let want = due.then(|| model.remove(0));
                        prop_assert_eq!(q.pop_min(Some(until)), want);
                        clock = want.map_or(clock, |e| e.0.as_nanos());
                    }
                    _ => {
                        let pick = match model.len() {
                            0 => u64::MAX,
                            n => model[a as usize % n].1,
                        };
                        let want = model.iter().position(|e| e.1 == pick).map(|i| model.remove(i));
                        prop_assert_eq!(q.remove_seq(pick), want.map(|e| (e.0, e.2)));
                        prop_assert_eq!(q.remove_seq(pick), None, "a seq is removed once");
                        clock = want.map_or(clock, |e| clock.max(e.0.as_nanos()));
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
            let rest: Vec<(u64, u64)> = model.iter().map(|e| (e.0.as_nanos(), e.1)).collect();
            prop_assert_eq!(drain(&mut q), rest);
        }
    }
}
