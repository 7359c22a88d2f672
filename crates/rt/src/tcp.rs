//! Comms sessions over real loopback TCP sockets — the live runtime: the
//! host loop and session scaffolding of [`crate::live`] over the socket
//! link: the sans-io [`crate::link`] under the nonblocking driver in
//! [`crate::reactor`].
//!
//! The closest live analogue of the prototype's ØMQ TCP overlay: one
//! thread per rank hosting the sans-io [`flux_broker::Broker`] and every
//! socket that rank owns. All sockets are nonblocking; the host
//! discovers readiness by level-triggered scanning and parks in the
//! broker's command channel when idle. There are no acceptor or reader
//! threads — a 1024-broker session costs 1024 threads, not `O(links)`.
//!
//! Wire-up: every rank binds a listener on `127.0.0.1:0` *before* any
//! broker starts, so the full address map is known up front — the moral
//! equivalent of the paper's PMI exchange of broker endpoints. Each
//! broker opens one connection per peer it sends to, on first send; each
//! direction of a broker pair is its own connection, so every plane is
//! FIFO per link. A link opens with a 4-byte little-endian rank
//! handshake so the accepting side can attribute inbound frames. A
//! connect blocks the host thread for up to its 5 s timeout (on loopback
//! it returns at once); a refused one is retried on a jittered
//! exponential backoff, never a sleep.
//!
//! Clients come in two flavors: in-process channel attachments
//! ([`SessionBuilder::attach_client`](crate::SessionBuilder::attach_client),
//! the prototype's local IPC sockets), and *socket clients* — any process that connects to a
//! broker's listener, sends the [`CLIENT_HELLO`] sentinel, reads back
//! its assigned client id, and then speaks length-prefixed
//! [`flux_wire::frame`]s. Socket clients may pipeline arbitrarily many
//! requests on one stream; replies are matched by `MsgId` (see
//! [`flux_broker::client::ClientCore`]).
//!
//! Shutdown is ordered: each broker drains its channel, gets `Shutdown`,
//! flushes what it can without blocking, closes every socket, and its
//! thread is joined before `shutdown()` returns; a broker thread that
//! panicked re-raises its panic there.

use crate::live::Session;
use flux_broker::ClientId;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Handshake sentinel a socket client sends instead of a broker rank
/// (4 bytes, little-endian). The broker replies with the client's
/// assigned broker-local id — also 4 raw little-endian bytes — before
/// any frames. Real ranks are always below the session size, so the
/// sentinel cannot collide.
pub const CLIENT_HELLO: u32 = u32::MAX;

/// Connects a *socket client* to a broker listening at `addr`: performs
/// the [`CLIENT_HELLO`] handshake and returns the stream plus the
/// broker-assigned client id (feed it to
/// [`flux_broker::client::ClientCore::new`] so request ids are
/// collision-free). The stream is left in blocking mode with `timeout`
/// as its read timeout; callers pipelining nonblocking I/O can flip it
/// with `set_nonblocking`.
///
/// # Errors
/// Propagates connect, write, and read failures; times out if the broker
/// does not answer the hello within `timeout`.
pub fn connect_socket_client(
    addr: SocketAddr,
    timeout: Duration,
) -> io::Result<(TcpStream, ClientId)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.write_all(&CLIENT_HELLO.to_le_bytes())?;
    let mut raw = [0u8; 4];
    stream.read_exact(&mut raw)?;
    Ok((stream, ClientId::from_le_bytes(raw)))
}

/// A comms session whose brokers are wired over loopback TCP: call
/// [`TcpSession::builder`], attach clients, then
/// [`start`](crate::SessionBuilder::start). In-process clients attach on
/// the builder; socket clients connect to [`addrs`](TcpSession::addrs)
/// after start and are assigned ids above the channel-attached range.
pub type TcpSession = Session;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_hello_cannot_collide_with_a_rank() {
        // Ranks are u32 indices below the session size; a session of
        // u32::MAX brokers is unrepresentable (the tree parent math
        // alone overflows), so the sentinel is safe.
        assert_eq!(CLIENT_HELLO, u32::MAX);
    }
}
