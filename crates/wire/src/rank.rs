//! Session ranks.

use std::fmt;

/// A node's rank within a comms session.
///
/// Ranks are dense `0..size`; rank 0 is the session root (where the KVS
/// master and the log/event roots live). A rank identifies a CMB broker
/// node, not an application process — the paper runs 16 client processes
/// per node, all attached to their node's broker over local IPC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Rank(pub u32);

impl Rank {
    /// The session root.
    pub const ROOT: Rank = Rank(0);

    /// Bit marking a hop-stack entry as a broker-local client id rather
    /// than a broker rank (see [`Rank::client_hop`]).
    const CLIENT_BIT: u32 = 1 << 31;

    /// Returns true if this is the session root.
    pub fn is_root(self) -> bool {
        self.0 == 0
    }

    /// The rank as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Encodes a broker-local client id as a hop-stack entry.
    ///
    /// The response-routing hop stack (see `flux_wire::Header::hops`)
    /// usually holds broker ranks, but the first entry pushed for a
    /// client-originated request identifies the *local client connection*
    /// on the originating broker — the moral equivalent of a ZeroMQ
    /// identity frame. Client entries are tagged with the top bit, which
    /// keeps real ranks (bounded by session size, far below 2³¹) and
    /// client ids disjoint.
    ///
    /// # Panics
    /// Panics if `id` itself has the tag bit set.
    pub fn client_hop(id: u32) -> Rank {
        assert!(id & Self::CLIENT_BIT == 0, "client id too large");
        Rank(id | Self::CLIENT_BIT)
    }

    /// Decodes a hop entry: `Some(client_id)` if it is a client entry.
    pub fn as_client_hop(self) -> Option<u32> {
        if self.0 & Self::CLIENT_BIT != 0 {
            Some(self.0 & !Self::CLIENT_BIT)
        } else {
            None
        }
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u32> for Rank {
    fn from(v: u32) -> Self {
        Rank(v)
    }
}

impl From<usize> for Rank {
    /// # Panics
    /// Panics if `v` exceeds `u32::MAX` — sessions are bounded well below that.
    #[expect(
        clippy::expect_used,
        reason = "documented contract; ranks index in-process session vectors whose \
                  sizes never approach u32::MAX"
    )]
    fn from(v: usize) -> Self {
        Rank(u32::try_from(v).expect("rank fits in u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_identification() {
        assert!(Rank::ROOT.is_root());
        assert!(!Rank(1).is_root());
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Rank::from(5u32), Rank(5));
        assert_eq!(Rank::from(7usize).index(), 7);
        assert_eq!(Rank(12).to_string(), "r12");
    }

    #[test]
    fn ordering() {
        assert!(Rank(1) < Rank(2));
        assert_eq!(Rank::default(), Rank::ROOT);
    }

    #[test]
    fn client_hop_roundtrip() {
        let h = Rank::client_hop(5);
        assert_eq!(h.as_client_hop(), Some(5));
        assert_eq!(Rank(5).as_client_hop(), None);
        assert_eq!(Rank::client_hop(0).as_client_hop(), Some(0));
    }

    #[test]
    #[should_panic(expected = "client id too large")]
    fn client_hop_rejects_tagged_ids() {
        let _ = Rank::client_hop(1 << 31);
    }
}
