//! Complete k-ary tree over session ranks.

use flux_wire::Rank;

/// A complete k-ary tree over ranks `0..size`, rank 0 at the root.
///
/// Rank `r`'s parent is `(r-1)/k` and its children are
/// `k*r+1 ..= k*r+k` (clamped to `size`) — the standard array heap layout,
/// which keeps consecutive ranks at adjacent tree positions, matching how
/// the prototype assigned "consecutive rank processes ... to consecutive
/// nodes".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Tree {
    size: u32,
    arity: u32,
}

impl Tree {
    /// Creates a tree over `size` ranks with the given fan-out.
    ///
    /// # Panics
    /// Panics if `size == 0` or `arity == 0`.
    pub fn new(size: u32, arity: u32) -> Tree {
        assert!(size > 0, "tree must have at least the root");
        assert!(arity > 0, "tree arity must be positive");
        Tree { size, arity }
    }

    /// A binary tree, the paper's evaluated configuration.
    pub fn binary(size: u32) -> Tree {
        Tree::new(size, 2)
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Fan-out.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// True if `r` is a valid rank in this tree.
    pub fn contains(&self, r: Rank) -> bool {
        r.0 < self.size
    }

    /// The parent of `r`, or `None` for the root.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn parent(&self, r: Rank) -> Option<Rank> {
        assert!(self.contains(r), "rank {r} out of range 0..{}", self.size);
        if r.is_root() {
            None
        } else {
            Some(Rank((r.0 - 1) / self.arity))
        }
    }

    /// The children of `r`, in rank order.
    pub fn children(&self, r: Rank) -> Vec<Rank> {
        assert!(self.contains(r), "rank {r} out of range 0..{}", self.size);
        let first = u64::from(r.0) * u64::from(self.arity) + 1;
        (0..self.arity)
            .map(|i| first + u64::from(i))
            .take_while(|&c| c < u64::from(self.size))
            .map(|c| Rank(c as u32))
            .collect()
    }

    /// Distance from the root (root has depth 0).
    pub fn depth(&self, r: Rank) -> u32 {
        let mut d = 0;
        let mut cur = r;
        while let Some(p) = self.parent(cur) {
            cur = p;
            d += 1;
        }
        d
    }

    /// The height of the whole tree: maximum depth over all ranks.
    pub fn height(&self) -> u32 {
        if self.size == 1 {
            0
        } else {
            self.depth(Rank(self.size - 1)).max(self.depth(Rank(self.size.div_ceil(2))))
        }
    }

    /// True if `a` is a (non-strict) ancestor of `b`.
    pub fn is_ancestor(&self, a: Rank, b: Rank) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Iterator over all ranks.
    pub fn ranks(&self) -> impl Iterator<Item = Rank> {
        (0..self.size).map(Rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_seven_nodes() {
        let t = Tree::binary(7);
        assert_eq!(t.parent(Rank(0)), None);
        assert_eq!(t.parent(Rank(1)), Some(Rank(0)));
        assert_eq!(t.parent(Rank(2)), Some(Rank(0)));
        assert_eq!(t.parent(Rank(6)), Some(Rank(2)));
        assert_eq!(t.children(Rank(0)), vec![Rank(1), Rank(2)]);
        assert_eq!(t.children(Rank(2)), vec![Rank(5), Rank(6)]);
        assert!(t.children(Rank(3)).is_empty());
    }

    #[test]
    fn partial_last_level() {
        let t = Tree::binary(6);
        assert_eq!(t.children(Rank(2)), vec![Rank(5)]);
        assert_eq!(t.children(Rank(1)), vec![Rank(3), Rank(4)]);
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::binary(1);
        assert_eq!(t.parent(Rank(0)), None);
        assert!(t.children(Rank(0)).is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.depth(Rank(0)), 0);
    }

    #[test]
    fn depth_and_height() {
        let t = Tree::binary(15);
        assert_eq!(t.depth(Rank(0)), 0);
        assert_eq!(t.depth(Rank(1)), 1);
        assert_eq!(t.depth(Rank(7)), 3);
        assert_eq!(t.depth(Rank(14)), 3);
        assert_eq!(t.height(), 3);
        // Height of a binary tree over N ranks is floor(log2(N)).
        for n in [2u32, 3, 4, 8, 16, 17, 64, 100] {
            let t = Tree::binary(n);
            assert_eq!(t.height(), 31 - n.leading_zeros(), "n = {n}");
        }
    }

    #[test]
    fn flat_tree_has_height_one() {
        // A star: arity at least the number of non-root ranks.
        let t = Tree::new(100, 99);
        assert_eq!(t.height(), 1);
        assert_eq!(t.children(Rank(0)).len(), 99);
        for r in 1..100 {
            assert_eq!(t.parent(Rank(r)), Some(Rank(0)));
        }
    }

    #[test]
    fn quaternary_tree() {
        let t = Tree::new(21, 4);
        assert_eq!(t.children(Rank(0)), vec![Rank(1), Rank(2), Rank(3), Rank(4)]);
        assert_eq!(t.children(Rank(1)), vec![Rank(5), Rank(6), Rank(7), Rank(8)]);
        assert_eq!(t.parent(Rank(20)), Some(Rank(4)));
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn path_and_ancestry() {
        let t = Tree::binary(15);
        let mut path = vec![Rank(11)];
        while let Some(p) = t.parent(*path.last().unwrap()) {
            path.push(p);
        }
        assert_eq!(path, vec![Rank(11), Rank(5), Rank(2), Rank(0)]);
        assert!(t.is_ancestor(Rank(0), Rank(11)));
        assert!(t.is_ancestor(Rank(2), Rank(11)));
        assert!(t.is_ancestor(Rank(11), Rank(11)));
        assert!(!t.is_ancestor(Rank(1), Rank(11)));
        assert!(!t.is_ancestor(Rank(11), Rank(2)));
    }

    #[test]
    fn subtree_partitions_tree() {
        let t = Tree::binary(10);
        let under = |top: u32| -> Vec<Rank> {
            t.ranks().filter(|&r| t.is_ancestor(Rank(top), r)).collect()
        };
        let (left, right) = (under(1), under(2));
        assert_eq!(left.len() + right.len() + 1, 10);
        for r in &left {
            assert!(!right.contains(r));
        }
        assert_eq!(under(0).len(), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        Tree::binary(4).parent(Rank(4));
    }
}
