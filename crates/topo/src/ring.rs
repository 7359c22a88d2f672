//! Ring overlay for rank-addressed RPC.
//!
//! The paper: *"an RPC may be addressed to a specific CMB rank using a
//! separate overlay, currently utilizing a ring topology which allows
//! ranks to be trivially reached without routing tables"* — each node only
//! knows its successor; a message hops forward until it arrives.

use flux_wire::Rank;

/// A unidirectional ring over ranks `0..size`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ring {
    size: u32,
}

impl Ring {
    /// Creates a ring over `size` ranks.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: u32) -> Ring {
        assert!(size > 0, "ring must have at least one rank");
        Ring { size }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The successor of `r` (wraps around).
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn next(&self, r: Rank) -> Rank {
        assert!(r.0 < self.size, "rank {r} out of range 0..{}", self.size);
        Rank((r.0 + 1) % self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_wraps() {
        let r = Ring::new(4);
        assert_eq!(r.next(Rank(0)), Rank(1));
        assert_eq!(r.next(Rank(3)), Rank(0));
    }

    /// The ranks a message visits from `from` to `to` by `next` hops,
    /// excluding `from`, including `to`.
    fn walk(r: &Ring, from: Rank, to: Rank) -> Vec<Rank> {
        let mut out = Vec::new();
        let mut cur = from;
        while cur != to {
            cur = r.next(cur);
            out.push(cur);
        }
        out
    }

    #[test]
    fn single_node_ring() {
        let r = Ring::new(1);
        assert_eq!(r.next(Rank(0)), Rank(0));
        assert!(walk(&r, Rank(0), Rank(0)).is_empty());
    }

    #[test]
    fn distances() {
        let r = Ring::new(8);
        let hops = |from, to| walk(&r, Rank(from), Rank(to)).len();
        assert_eq!(hops(0, 0), 0);
        assert_eq!(hops(0, 7), 7);
        assert_eq!(hops(7, 0), 1);
        assert_eq!(hops(3, 2), 7);
    }

    #[test]
    fn route_ends_at_destination() {
        let r = Ring::new(5);
        assert_eq!(walk(&r, Rank(3), Rank(1)), vec![Rank(4), Rank(0), Rank(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Ring::new(3).next(Rank(3));
    }
}
