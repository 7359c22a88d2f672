//! The broker's sans-io boundary: inputs it consumes, outputs it emits.

use flux_wire::{Message, Plane, Rank};

/// Identifies a client connection local to one broker (the prototype's
/// UNIX-domain-socket connections). Only meaningful to that broker.
pub type ClientId = u32;

/// One unit of work for [`crate::Broker::handle`].
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A message arrived from a peer broker.
    FromBroker {
        /// Which overlay plane delivered it. Nothing reads it: the
        /// broker branches on the message's type and direction, which
        /// [`Message::plane`] reads the plane from.
        plane: Plane,
        /// The sending broker's rank (the immediate hop, not the origin).
        from: Rank,
        /// The message.
        msg: Message,
    },
    /// A message arrived from a locally attached client.
    FromClient {
        /// The local connection id.
        client: ClientId,
        /// The message (a request; clients never send responses).
        msg: Message,
    },
    /// A timer previously requested via [`Output::SetTimer`] fired.
    Timer {
        /// The token passed when the timer was set.
        token: u64,
    },
}

/// An effect the runtime must perform on the broker's behalf.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Transmit `msg` to broker `to`, on the plane [`Message::plane`]
    /// reads from its shape.
    ToBroker {
        /// Destination broker rank.
        to: Rank,
        /// The message.
        msg: Message,
    },
    /// Deliver `msg` to locally attached client `client`.
    ToClient {
        /// The local connection id.
        client: ClientId,
        /// The message (a response or a subscribed event).
        msg: Message,
    },
    /// Arrange for [`Input::Timer`] with this token after `delay_ns`
    /// virtual/real nanoseconds.
    SetTimer {
        /// Delay in nanoseconds.
        delay_ns: u64,
        /// Token to pass back.
        token: u64,
    },
}

impl Output {
    /// Convenience for tests: the message carried, if any.
    pub fn message(&self) -> Option<&Message> {
        match self {
            Output::ToBroker { msg, .. } | Output::ToClient { msg, .. } => Some(msg),
            Output::SetTimer { .. } => None,
        }
    }
}
