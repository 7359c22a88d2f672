//! Length-prefixed stream framing for [`Message`].
//!
//! The canonical encoding is self-delimiting, so a trusted byte stream
//! could be decoded without any outer framing. Socket transports still
//! want a length prefix: it lets a reader pull exactly one message off
//! the wire before parsing, enforce a size cap *before* allocating, and
//! resynchronize error handling at frame granularity. The frame is
//!
//! ```text
//! len   u32 LE   byte length of the encoded message (not counting `len`)
//! body  [u8]     `Message::encode()` bytes
//! ```
//!
//! Oversized, truncated, or malformed frames surface as
//! `io::ErrorKind::InvalidData` — never a panic.

use crate::Message;
use std::io::{self, Read, Write};

/// Default ceiling on a frame body, in bytes. Generous for control-plane
/// traffic (KVS values ride inside messages), tight enough that a
/// corrupt or hostile length prefix cannot trigger a huge allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes `msg` as one length-prefixed frame, encoding into the
/// caller-held `scratch` buffer: a sender that frames many messages
/// reuses one buffer instead of allocating per frame. `scratch` is
/// cleared first; its capacity persists.
///
/// # Errors
/// Returns any underlying I/O error; `InvalidData` if the encoded
/// message exceeds `max_frame` (nothing is written in that case).
pub fn write_frame_into<W: Write>(
    w: &mut W,
    msg: &Message,
    max_frame: usize,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    msg.encode_into(scratch);
    if scratch.len() > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("outgoing frame of {} bytes exceeds cap {max_frame}", scratch.len()),
        ));
    }
    w.write_all(&(scratch.len() as u32).to_le_bytes())?;
    w.write_all(scratch)
}

/// Reads one length-prefixed frame using the caller-held `body` buffer
/// for the frame bytes, returning `None` on a clean EOF at a frame
/// boundary: a reader loop reuses one buffer across frames instead of
/// allocating per frame.
///
/// # Errors
/// `InvalidData` on an oversized length prefix or a body that fails
/// [`Message::decode`]; `UnexpectedEof` if the stream ends mid-frame;
/// otherwise the underlying I/O error.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max_frame: usize,
    body: &mut Vec<u8>,
) -> io::Result<Option<Message>> {
    let mut len_raw = [0u8; 4];
    // A clean EOF before any length byte means the peer closed between
    // frames — a normal shutdown, not an error.
    match r.read(&mut len_raw) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_raw[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            r.read_exact(&mut len_raw)?;
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_raw) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("incoming frame of {len} bytes exceeds cap {max_frame}"),
        ));
    }
    body.clear();
    body.resize(len, 0);
    r.read_exact(body)?;
    let (msg, used) = Message::decode(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if used != body.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame had {} trailing bytes after one message", body.len() - used),
        ));
    }
    Ok(Some(msg))
}

/// Incremental frame decoder for nonblocking readers.
///
/// A reactor reads whatever bytes the kernel has ready — which may end
/// mid-length-prefix, mid-body, or contain several frames at once — and
/// cannot use the pull-style [`read_frame_into`] (it would block waiting
/// for the rest of a frame). `FrameDecoder` inverts control: the caller
/// [`feed`](FrameDecoder::feed)s raw bytes as they arrive and drains
/// complete messages with [`next_message`](FrameDecoder::next_message).
/// Partial frames stay buffered across calls, so frames torn at
/// arbitrary byte boundaries (including one byte at a time) reassemble
/// exactly.
///
/// One internal buffer serves the whole connection: consumed bytes are
/// reclaimed by compaction (`copy_within`) once they pass a threshold,
/// so steady-state decoding does not reallocate.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

/// Consumed-prefix size beyond which [`FrameDecoder`] compacts its
/// buffer instead of letting dead bytes accumulate.
const COMPACT_AT: usize = 64 * 1024;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw stream bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            // Everything consumed: restart at the buffer's front for free.
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_AT {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (partial frame tail).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes and returns the next complete message, or `None` if the
    /// buffered bytes end mid-frame (feed more and retry).
    ///
    /// # Errors
    /// `InvalidData` on an oversized length prefix, an undecodable body,
    /// or trailing bytes inside a frame — same contract as
    /// [`read_frame_into`]. After an error the stream is unframeable and the
    /// connection should be dropped.
    pub fn next_message(&mut self, max_frame: usize) -> io::Result<Option<Message>> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        // flux-lint: allow(panic) — the length check above guarantees
        // four bytes; a shorter slice is unreachable.
        let len_raw: [u8; 4] = avail[..4].try_into().expect("four length bytes");
        let len = u32::from_le_bytes(len_raw) as usize;
        if len > max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("incoming frame of {len} bytes exceeds cap {max_frame}"),
            ));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = &avail[4..4 + len];
        let (msg, used) = Message::decode(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if used != len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame had {} trailing bytes after one message", len - used),
            ));
        }
        self.start += 4 + len;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsgId, Rank, Topic};
    use flux_value::Value;

    /// Appends `msg` to `buf` as one frame.
    fn write(buf: &mut Vec<u8>, msg: &Message) {
        write_frame_into(buf, msg, MAX_FRAME, &mut Vec::new()).unwrap();
    }

    /// Reads one frame from `r` into a fresh body buffer.
    fn read(r: &mut &[u8]) -> io::Result<Option<Message>> {
        read_frame_into(r, MAX_FRAME, &mut Vec::new())
    }

    fn sample(seq: u64) -> Message {
        Message::request(
            Topic::new("svc.put").unwrap(),
            MsgId { origin: Rank(1), seq },
            Rank(1),
            Value::from_pairs([("k", Value::from("a.b")), ("v", Value::Int(seq as i64))]),
        )
    }

    #[test]
    fn roundtrip_stream_of_frames() {
        let mut buf = Vec::new();
        for seq in 0..5 {
            write(&mut buf, &sample(seq));
        }
        let mut r = &buf[..];
        for seq in 0..5 {
            let m = read(&mut r).unwrap().expect("frame");
            assert_eq!(m, sample(seq));
        }
        assert!(read(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_body_is_unexpected_eof() {
        let mut buf = Vec::new();
        write(&mut buf, &sample(9));
        buf.truncate(buf.len() - 3);
        let err = read(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn corrupt_body_is_invalid_data() {
        let mut buf = Vec::new();
        write(&mut buf, &sample(3));
        buf[4] = 0x00; // stomp the magic byte
        let err = read(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_garbage_in_frame_is_invalid_data() {
        let body = {
            let mut b = sample(4).encode();
            b.push(0xAB);
            b
        };
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        let err = read(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn buffer_reuse_forms_match_the_allocating_forms() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        for seq in 0..8 {
            write_frame_into(&mut buf, &sample(seq), MAX_FRAME, &mut scratch).unwrap();
        }
        // A frame is the length prefix and `Message::encode`'s bytes.
        let body = sample(0).encode();
        assert_eq!(buf[..4], (body.len() as u32).to_le_bytes());
        assert_eq!(buf[4..4 + body.len()], body[..]);
        // One scratch allocation serves every frame on the link.
        let cap = scratch.capacity();
        write_frame_into(&mut buf, &sample(8), MAX_FRAME, &mut scratch).unwrap();
        assert_eq!(scratch.capacity(), cap, "scratch must not reallocate for same-size frames");
        let mut r = &buf[..];
        let mut body = Vec::new();
        for seq in 0..9 {
            let m = read_frame_into(&mut r, MAX_FRAME, &mut body).unwrap().expect("frame");
            assert_eq!(m, sample(seq));
        }
        assert!(read_frame_into(&mut r, MAX_FRAME, &mut body).unwrap().is_none());
    }

    #[test]
    fn encode_into_reuses_and_matches_encode() {
        let m = sample(7);
        let mut buf = vec![0xFFu8; 3]; // stale content must be cleared
        m.encode_into(&mut buf);
        assert_eq!(buf, m.encode());
    }

    #[test]
    fn outgoing_cap_is_enforced() {
        let m = sample(1);
        let mut buf = Vec::new();
        let err = write_frame_into(&mut buf, &m, 4, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn decoder_reassembles_byte_at_a_time() {
        let mut wire = Vec::new();
        for seq in 0..6 {
            write(&mut wire, &sample(seq));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(m) = dec.next_message(MAX_FRAME).unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got.len(), 6);
        for (seq, m) in got.iter().enumerate() {
            assert_eq!(*m, sample(seq as u64));
        }
        assert_eq!(dec.pending(), 0, "no tail bytes left over");
    }

    #[test]
    fn decoder_drains_multiple_frames_from_one_feed() {
        let mut wire = Vec::new();
        for seq in 0..4 {
            write(&mut wire, &sample(seq));
        }
        // One extra partial frame at the tail.
        let mut tail = Vec::new();
        write(&mut tail, &sample(4));
        wire.extend_from_slice(&tail[..tail.len() - 2]);

        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut got = 0;
        while let Some(m) = dec.next_message(MAX_FRAME).unwrap() {
            assert_eq!(m, sample(got));
            got += 1;
        }
        assert_eq!(got, 4, "the torn fifth frame must not surface early");
        assert!(dec.pending() > 0);
        dec.feed(&tail[tail.len() - 2..]);
        let m = dec.next_message(MAX_FRAME).unwrap().expect("completed tail frame");
        assert_eq!(m, sample(4));
    }

    #[test]
    fn decoder_rejects_oversized_prefix_before_body_arrives() {
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::MAX.to_le_bytes());
        let err = dec.next_message(MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decoder_rejects_corrupt_body() {
        let mut wire = Vec::new();
        write(&mut wire, &sample(2));
        wire[4] = 0x00; // stomp the magic byte
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let err = dec.next_message(MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decoder_reclaims_consumed_bytes() {
        let mut one = Vec::new();
        write(&mut one, &sample(0));

        // Fully-drained decoders restart at the buffer front: feeding the
        // same frame forever keeps the buffer at one frame's size.
        let mut dec = FrameDecoder::new();
        for _ in 0..1000 {
            dec.feed(&one);
            assert!(dec.next_message(MAX_FRAME).unwrap().is_some());
        }
        assert!(
            dec.buf.capacity() <= 2 * one.len().max(16),
            "fully-drained decoder must not grow: {}",
            dec.buf.capacity()
        );

        // A long consumed prefix ahead of a partial frame is compacted
        // away on the next feed rather than accumulating forever.
        let mut dec = FrameDecoder::new();
        let frames = COMPACT_AT / one.len() + 2;
        for _ in 0..frames {
            dec.feed(&one);
        }
        dec.feed(&one[..3]); // torn tail
        for _ in 0..frames {
            assert!(dec.next_message(MAX_FRAME).unwrap().is_some());
        }
        assert!(dec.start >= COMPACT_AT, "test setup: consumed prefix passed the threshold");
        dec.feed(&one[3..]);
        assert_eq!(dec.start, 0, "feed must compact the consumed prefix");
        assert_eq!(dec.next_message(MAX_FRAME).unwrap(), Some(sample(0)));
        assert_eq!(dec.pending(), 0);
    }
}
