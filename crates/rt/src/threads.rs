//! Comms sessions over in-process channels.
//!
//! One thread per broker; std mpsc channels stand in for the prototype's
//! ØMQ TCP/IPC sockets (same guarantees: reliable, per-link FIFO). This
//! file is only the link — the event loop and the session scaffolding
//! are the shared ones in [`crate::live`].

use crate::live::{Event, LiveClient, PeerSender, Session};
use flux_broker::ClientId;
use flux_wire::{Message, Plane, Rank};
use std::net::SocketAddr;
use std::sync::mpsc::Sender;

/// A client connection to a broker in a [`ThreadSession`].
pub type ThreadClient = LiveClient;

/// A comms session on OS threads wired over channels: call
/// [`ThreadSession::builder`], attach clients, then
/// [`start`](crate::SessionBuilder::start).
pub type ThreadSession = Session<ChannelPeers>;

/// The in-process link: a peer is reached through its host's channel.
pub struct ChannelPeers {
    rank: Rank,
    peers: Vec<Sender<Event>>,
}

impl PeerSender for ChannelPeers {
    fn wire(senders: &[Sender<Event>], _: &[ClientId]) -> (Vec<SocketAddr>, Vec<Self>) {
        let links = (0..senders.len())
            .map(|r| ChannelPeers { rank: Rank::from(r), peers: senders.to_vec() })
            .collect();
        (Vec::new(), links)
    }

    fn send_to(&mut self, to: Rank, _plane: Plane, msg: Message) {
        let _ = self.peers[to.index()].send(Event::FromBroker { from: self.rank, msg });
    }
}
