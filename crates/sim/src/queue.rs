//! A two-tier calendar queue ordering pending events by `(time, seq)`.
//!
//! The classic binary-heap event queue pays `O(log n)` comparisons *and a
//! cache miss per level* on every push/pop; at paper scale (8192-rank KAP
//! cells, hundreds of thousands of in-flight events) the heap itself
//! shows up in profiles. Discrete-event traffic is heavily clustered in
//! the near future — message legs land within microseconds, only
//! heartbeat-class timers sit far out — which is exactly the access
//! pattern a calendar queue exploits:
//!
//! * **near tier** — a ring of [`NBUCKETS`] buckets, each
//!   2^[`WIDTH_SHIFT`] ns wide, covering a sliding window starting at the
//!   last pop. Push is O(1) (append to the bucket for the event's time
//!   slice); pop scans the current bucket — typically a handful of
//!   entries — for the `(time, seq)` minimum.
//! * **far tier** — a binary heap for everything beyond the window
//!   (idle-period timers). As the window advances, far events migrate
//!   into their near bucket; when the near tier drains entirely the
//!   window jumps straight to the earliest far event.
//!
//! Ordering is **exactly** the total order the old heap produced —
//! `(time, insertion seq)` — because cross-bucket order is by time slice
//! and in-bucket selection compares the full key. Bit-reproducibility of
//! golden simulations is pinned by tests.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Queue entry: scheduled time, insertion sequence, event-arena index.
type Entry = (SimTime, u64, u32);

/// Number of near-tier buckets (must be a power of two).
const NBUCKETS: usize = 1024;
/// log2 of the bucket width in nanoseconds (4.096 µs per bucket — a few
/// message latencies; the window then spans ~4.2 ms of virtual time).
const WIDTH_SHIFT: u32 = 12;

pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<Entry>>,
    /// Ring index of the bucket whose time slice starts at `base`.
    cur: usize,
    /// Start of the current bucket's time slice (ns, multiple of the width).
    base: u64,
    /// Entries across all near buckets.
    near: usize,
    far: BinaryHeap<Reverse<Entry>>,
}

impl CalendarQueue {
    pub(crate) fn new() -> CalendarQueue {
        CalendarQueue {
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            cur: 0,
            base: 0,
            near: 0,
            far: BinaryHeap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.near + self.far.len()
    }

    fn window_end(&self) -> u64 {
        self.base + ((NBUCKETS as u64) << WIDTH_SHIFT)
    }

    fn bucket_of(&self, t: u64) -> usize {
        ((t >> WIDTH_SHIFT) as usize) % NBUCKETS
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, idx: u32) {
        let t = at.as_nanos();
        if t >= self.window_end() {
            self.far.push(Reverse((at, seq, idx)));
        } else {
            // Times before the window start (possible after a controlled
            // scheduler jumped the clock) collapse into the current
            // bucket; in-bucket selection still orders them first.
            let b = if t < self.base { self.cur } else { self.bucket_of(t) };
            self.buckets[b].push((at, seq, idx));
            self.near += 1;
        }
    }

    /// Pulls far events that now fall inside the window into their bucket.
    fn migrate(&mut self) {
        let end = self.window_end();
        while let Some(&Reverse((at, _, _))) = self.far.peek() {
            if at.as_nanos() >= end {
                break;
            }
            // Cannot panic: peek above proved non-empty.
            let Reverse((at, seq, idx)) = self.far.pop().unwrap();
            let t = at.as_nanos();
            let b = if t < self.base { self.cur } else { self.bucket_of(t) };
            self.buckets[b].push((at, seq, idx));
            self.near += 1;
        }
    }

    /// Position `(bucket, offset)` of the `(time, seq)` minimum, advancing
    /// the window as needed. `None` iff the queue is empty.
    fn locate_min(&mut self) -> Option<(usize, usize)> {
        loop {
            if self.near == 0 {
                // Near tier dry: jump the window to the earliest far
                // event instead of stepping bucket by bucket through the
                // idle gap.
                let &Reverse((at, _, _)) = self.far.peek()?;
                self.base = (at.as_nanos() >> WIDTH_SHIFT) << WIDTH_SHIFT;
                self.cur = self.bucket_of(self.base);
                self.migrate();
                continue;
            }
            // Some near bucket is populated, and the earliest event sits
            // in the first populated bucket at or after `cur` (cross-
            // bucket order is by time slice).
            while self.buckets[self.cur].is_empty() {
                self.cur = (self.cur + 1) % NBUCKETS;
                self.base += 1 << WIDTH_SHIFT;
                self.migrate();
            }
            let bucket = &self.buckets[self.cur];
            let mut best = 0;
            for (i, e) in bucket.iter().enumerate().skip(1) {
                if (e.0, e.1) < (bucket[best].0, bucket[best].1) {
                    best = i;
                }
            }
            return Some((self.cur, best));
        }
    }

    /// The earliest entry by `(time, seq)`, without removing it. `&mut`
    /// because locating the minimum may advance the window.
    pub(crate) fn peek_min(&mut self) -> Option<Entry> {
        let (b, i) = self.locate_min()?;
        Some(self.buckets[b][i])
    }

    /// Removes and returns the earliest entry by `(time, seq)`.
    pub(crate) fn pop_min(&mut self) -> Option<Entry> {
        let (b, i) = self.locate_min()?;
        let e = self.buckets[b].swap_remove(i);
        self.near -= 1;
        Some(e)
    }

    /// Removes the entry with insertion sequence `seq` out of order,
    /// returning its `(time, arena index)`. Linear over both tiers: only
    /// controlled-scheduling drivers call this.
    pub(crate) fn remove_seq(&mut self, seq: u64) -> Option<(SimTime, u32)> {
        for b in &mut self.buckets {
            if let Some(i) = b.iter().position(|e| e.1 == seq) {
                let e = b.swap_remove(i);
                self.near -= 1;
                return Some((e.0, e.2));
            }
        }
        let mut far = std::mem::take(&mut self.far).into_vec();
        let found = far
            .iter()
            .position(|Reverse(e)| e.1 == seq)
            .map(|i| far.swap_remove(i));
        self.far = far.into();
        found.map(|Reverse((at, _, idx))| (at, idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// Drains the queue, asserting the exact `(time, seq)` total order.
    fn drain_sorted(q: &mut CalendarQueue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop_min() {
            out.push((at.as_nanos(), seq));
        }
        out
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = CalendarQueue::new();
        q.push(t(500), 1, 0);
        q.push(t(100), 2, 1);
        q.push(t(100), 3, 2);
        q.push(t(0), 4, 3);
        assert_eq!(drain_sorted(&mut q), vec![(0, 4), (100, 2), (100, 3), (500, 1)]);
    }

    #[test]
    fn far_future_events_migrate_in_order() {
        let mut q = CalendarQueue::new();
        // Heartbeat-style timers way beyond the near window, interleaved
        // with near-term traffic.
        q.push(t(100_000_000), 1, 0); // 100 ms: far tier
        q.push(t(3_000), 2, 1);
        q.push(t(100_000_100), 3, 2);
        q.push(t(99_999_999), 4, 3);
        assert_eq!(
            drain_sorted(&mut q),
            vec![(3_000, 2), (99_999_999, 4), (100_000_000, 1), (100_000_100, 3)]
        );
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // Deterministic pseudo-random workload crossing both tiers, with
        // pops interleaved so the window advances mid-stream.
        let mut q = CalendarQueue::new();
        let mut rng: u64 = 0x243F6A8885A308D3;
        let mut seq = 0;
        let mut popped = Vec::new();
        let mut clock = 0u64;
        for round in 0..200 {
            for _ in 0..7 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Mix short gaps with multi-window jumps.
                let gap = if rng.is_multiple_of(13) { rng % 50_000_000 } else { rng % 20_000 };
                seq += 1;
                q.push(t(clock + gap), seq, 0);
            }
            if round % 3 != 0 {
                for _ in 0..5 {
                    if let Some((at, s, _)) = q.pop_min() {
                        popped.push((at.as_nanos(), s));
                        clock = clock.max(at.as_nanos());
                    }
                }
            }
        }
        popped.extend(drain_sorted(&mut q));
        let mut expect = popped.clone();
        expect.sort_unstable();
        assert_eq!(popped, expect, "pop order must equal global (time, seq) order");
        assert_eq!(popped.len(), 1400);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.push(t(9_000_000), 1, 7);
        q.push(t(40), 2, 8);
        assert_eq!(q.peek_min(), Some((t(40), 2, 8)));
        assert_eq!(q.pop_min(), Some((t(40), 2, 8)));
        assert_eq!(q.peek_min(), Some((t(9_000_000), 1, 7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_seq_reaches_both_tiers() {
        let mut q = CalendarQueue::new();
        q.push(t(10), 1, 0);
        q.push(t(600_000_000), 2, 1); // far tier
        q.push(t(20), 3, 2);
        assert_eq!(q.remove_seq(2), Some((t(600_000_000), 1)));
        assert_eq!(q.remove_seq(99), None);
        assert_eq!(q.remove_seq(1), Some((t(10), 0)));
        assert_eq!(drain_sorted(&mut q), vec![(20, 3)]);
    }
}
