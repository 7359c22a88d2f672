//! Flat indexed storage for in-flight simulation events.
//!
//! The engine's priority queue (see [`crate::queue`]) orders lightweight
//! `(time, seq, index)` triples; the event payloads themselves live here,
//! in a slab with a free list, so queue operations never move a
//! [`flux_wire::Message`] and a dispatched slot's allocation is reused by
//! the next insertion. `seq` is the engine's global insertion counter:
//! it never repeats, which makes it the stable handle controlled
//! schedulers (flux-mc) use to name a pending event.

use crate::time::SimTime;

/// One slab slot. `kind` is `None` while the slot sits on the free list.
struct Slot<K> {
    at: SimTime,
    seq: u64,
    kind: Option<K>,
}

/// A slab of pending events indexed by dense `u32` handles.
pub(crate) struct EventArena<K> {
    slots: Vec<Slot<K>>,
    free: Vec<u32>,
    live: usize,
}

impl<K> EventArena<K> {
    pub(crate) fn new() -> EventArena<K> {
        EventArena { slots: Vec::new(), free: Vec::new(), live: 0 }
    }

    /// Number of live (not yet dispatched) events.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Stores an event, reusing a freed slot when one is available.
    pub(crate) fn insert(&mut self, at: SimTime, seq: u64, kind: K) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Slot { at, seq, kind: Some(kind) };
                idx
            }
            None => {
                // A u32 handle caps the arena at 4 G in-flight events,
                // far past any session's memory.
                let idx = u32::try_from(self.slots.len()).expect("event arena overflow");
                self.slots.push(Slot { at, seq, kind: Some(kind) });
                idx
            }
        }
    }

    /// Removes and returns the event at `idx`, freeing the slot.
    pub(crate) fn take(&mut self, idx: u32) -> Option<K> {
        let kind = self.slots[idx as usize].kind.take()?;
        self.free.push(idx);
        self.live -= 1;
        Some(kind)
    }

    /// Borrows the event at `idx`, if live.
    pub(crate) fn get(&self, idx: u32) -> Option<&K> {
        self.slots.get(idx as usize).and_then(|s| s.kind.as_ref())
    }

    /// Scheduled time of the live event at `idx`.
    pub(crate) fn at(&self, idx: u32) -> SimTime {
        self.slots[idx as usize].at
    }

    /// Finds the live event with insertion sequence `seq`. Linear over
    /// the slab: only controlled-scheduling drivers (model checking,
    /// small universes) call this.
    pub(crate) fn find_seq(&self, seq: u64) -> Option<u32> {
        self.slots
            .iter()
            .position(|s| s.seq == seq && s.kind.is_some())
            .map(|i| i as u32)
    }

    /// Iterates live events as `(at, seq, idx, kind)` in slab order.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (SimTime, u64, u32, &K)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.kind.as_ref().map(|k| (s.at, s.seq, i as u32, k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn slots_are_reused_after_take() {
        let mut a: EventArena<&'static str> = EventArena::new();
        let i0 = a.insert(t(1), 1, "a");
        let i1 = a.insert(t(2), 2, "b");
        assert_eq!(a.live(), 2);
        assert_eq!(a.take(i0), Some("a"));
        assert_eq!(a.take(i0), None, "double take returns nothing");
        assert_eq!(a.live(), 1);
        // The freed slot is recycled for the next insert.
        let i2 = a.insert(t(3), 3, "c");
        assert_eq!(i2, i0);
        assert_eq!(a.get(i2), Some(&"c"));
        assert_eq!(a.get(i1), Some(&"b"));
        assert_eq!(a.at(i2), t(3));
    }

    #[test]
    fn find_seq_sees_only_live_events() {
        let mut a: EventArena<u32> = EventArena::new();
        let i0 = a.insert(t(5), 10, 100);
        let _ = a.insert(t(6), 11, 101);
        assert_eq!(a.find_seq(10), Some(i0));
        a.take(i0).unwrap();
        assert_eq!(a.find_seq(10), None);
        assert_eq!(a.find_seq(11), Some(1));
        let live: Vec<u64> = a.iter_live().map(|(_, s, _, _)| s).collect();
        assert_eq!(live, vec![11]);
    }
}
