//! Binary framing for [`Message`].
//!
//! Layout (all integers little-endian, lengths LEB128 varints):
//!
//! ```text
//! magic   u8      0xFC
//! version u8      1
//! type    u8      1=request 2=response 3=event
//! flags   u8      bit0: dst present
//! id      u32 origin, varint seq
//! src     u32
//! dst     u32                       (iff flags bit0)
//! errnum  varint
//! topic   varint len + bytes
//! hops    varint count + u32 each
//! payload canonical Value encoding (self-delimiting)
//! ```
//!
//! Messages are self-delimiting, so a byte stream of concatenated messages
//! (as a TCP transport would produce) decodes without external framing.

use crate::{Header, Message, MsgId, MsgType, Rank, Topic};
use flux_value::{varint_len, DecodeError, Value};
use std::fmt;

const MAGIC: u8 = 0xFC;
const VERSION: u8 = 1;

const FLAG_DST: u8 = 0x01;

/// Errors produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended mid-message.
    Truncated,
    /// First byte was not the magic.
    BadMagic(u8),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message type byte.
    BadType(u8),
    /// The topic failed validation.
    BadTopic,
    /// The payload failed canonical decoding.
    BadPayload(DecodeError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire message truncated"),
            WireError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadType(t) => write!(f, "unknown message type {t}"),
            WireError::BadTopic => write!(f, "invalid topic in wire message"),
            WireError::BadPayload(e) => write!(f, "invalid payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Number of bytes [`encode_header`] will write for `h`, computed without
/// touching an output buffer. The simulator's cost model calls this on
/// every send; keeping it arithmetic (no allocation, no byte writes)
/// keeps the hot path flat. Consistency with [`encode_header`] is pinned
/// by tests.
pub(crate) fn header_wire_len(h: &Header) -> usize {
    let mut n = 4 // magic, version, type, flags
        + 4 // id.origin
        + varint_len(h.id.seq)
        + 4; // src
    if h.dst.is_some() {
        n += 4;
    }
    n += varint_len(u64::from(h.errnum));
    n += varint_len(h.topic.as_str().len() as u64) + h.topic.as_str().len();
    n += varint_len(h.hops.len() as u64) + 4 * h.hops.len();
    n
}

pub(crate) fn encode_header(h: &Header, out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.push(VERSION);
    out.push(h.msg_type.to_byte());
    let mut flags = 0u8;
    if h.dst.is_some() {
        flags |= FLAG_DST;
    }
    out.push(flags);
    out.extend_from_slice(&h.id.origin.0.to_le_bytes());
    flux_value::write_varint(out, h.id.seq);
    out.extend_from_slice(&h.src.0.to_le_bytes());
    if let Some(dst) = h.dst {
        out.extend_from_slice(&dst.0.to_le_bytes());
    }
    flux_value::write_varint(out, u64::from(h.errnum));
    flux_value::write_varint(out, h.topic.as_str().len() as u64);
    out.extend_from_slice(h.topic.as_str().as_bytes());
    flux_value::write_varint(out, h.hops.len() as u64);
    for hop in &h.hops {
        out.extend_from_slice(&hop.0.to_le_bytes());
    }
}

impl Message {
    /// Encodes to the framed binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.encode_into(&mut out);
        out
    }

    /// Encodes into `out`, clearing it first but keeping its allocation.
    /// The hot-path form for senders that frame many messages: one
    /// scratch buffer amortizes across every message on a link instead
    /// of a fresh heap allocation per frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        encode_header(&self.header, out);
        self.payload.encode_canonical_into(out);
    }

    /// Decodes one message from the front of `bytes`, returning it and the
    /// bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Message, usize), WireError> {
        let mut cur = Cur { bytes, pos: 0 };
        let magic = cur.u8()?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = cur.u8()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let type_byte = cur.u8()?;
        let msg_type = MsgType::from_byte(type_byte).ok_or(WireError::BadType(type_byte))?;
        let flags = cur.u8()?;
        let origin = Rank(cur.u32()?);
        let seq = cur.varint()?;
        let src = Rank(cur.u32()?);
        let dst = if flags & FLAG_DST != 0 { Some(Rank(cur.u32()?)) } else { None };
        let errnum = u32::try_from(cur.varint()?).map_err(|_| WireError::Truncated)?;
        let topic_len = cur.varint()? as usize;
        let topic_raw = cur.take(topic_len)?;
        let topic_str = std::str::from_utf8(topic_raw).map_err(|_| WireError::BadTopic)?;
        let topic = Topic::new(topic_str).map_err(|_| WireError::BadTopic)?;
        let hop_count = cur.varint()? as usize;
        // Guard: each hop needs 4 bytes; reject absurd counts before allocating.
        if hop_count > cur.remaining() / 4 {
            return Err(WireError::Truncated);
        }
        let mut hops = Vec::with_capacity(hop_count);
        for _ in 0..hop_count {
            hops.push(Rank(cur.u32()?));
        }
        let (payload, used) =
            Value::decode_canonical_prefix(&bytes[cur.pos..]).map_err(WireError::BadPayload)?;
        let total = cur.pos + used;
        Ok((
            Message {
                header: Header {
                    msg_type,
                    topic,
                    id: MsgId { origin, seq },
                    src,
                    dst,
                    errnum,
                    hops,
                },
                payload: payload.into(),
            },
            total,
        ))
    }
}

struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let (v, n) =
            flux_value::read_varint(&self.bytes[self.pos..]).map_err(|_| WireError::Truncated)?;
        self.pos += n;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_value::Value;

    fn sample() -> Message {
        let mut m = Message::request(
            Topic::new("svc.commit").unwrap(),
            MsgId { origin: Rank(7), seq: 123456 },
            Rank(7),
            Value::from_pairs([("root", Value::from("abc")), ("n", Value::Int(3))]),
        );
        m.header.hops = vec![Rank(7), Rank(3), Rank(1)];
        m
    }

    #[test]
    fn header_wire_len_matches_encoder() {
        let t = Topic::new("x.y").unwrap();
        let id = MsgId { origin: Rank(0), seq: u64::MAX };
        let mut hopped = Message::request(t.clone(), id, Rank(0), Value::Null);
        hopped.header.hops = (0..300).map(Rank).collect();
        for m in [
            sample(),
            hopped,
            Message::request_to(t.clone(), id, Rank(0), Rank(9), Value::Null),
            Message::error_response_to(&Message::request(t, id, Rank(0), Value::Null), 200),
        ] {
            let mut out = Vec::new();
            encode_header(&m.header, &mut out);
            assert_eq!(header_wire_len(&m.header), out.len(), "{m:?}");
        }
    }

    #[test]
    fn roundtrip_request() {
        let m = sample();
        let enc = m.encode();
        let (back, used) = Message::decode(&enc).unwrap();
        assert_eq!(used, enc.len());
        assert_eq!(back, m);
    }

    #[test]
    fn roundtrip_all_types() {
        let t = Topic::new("x.y").unwrap();
        let id = MsgId { origin: Rank(0), seq: 0 };
        for m in [
            Message::request(t.clone(), id, Rank(0), Value::Null),
            Message::request_to(t.clone(), id, Rank(0), Rank(9), Value::Null),
            Message::response_to(&Message::request(t.clone(), id, Rank(0), Value::Null), Value::Bool(true)),
            Message::event(t.clone(), id, Rank(0), Value::Int(-1)),
            Message::error_response_to(&Message::request(t, id, Rank(0), Value::Null), 38),
        ] {
            let enc = m.encode();
            let (back, used) = Message::decode(&enc).unwrap();
            assert_eq!(used, enc.len());
            assert_eq!(back, m);
        }
    }

    #[test]
    fn concatenated_stream_decodes() {
        let a = sample();
        let b = Message::event(
            Topic::new("hb").unwrap(),
            MsgId { origin: Rank(0), seq: 9 },
            Rank(0),
            Value::Int(9),
        );
        let mut buf = a.encode();
        buf.extend(b.encode());
        let (m1, n1) = Message::decode(&buf).unwrap();
        let (m2, n2) = Message::decode(&buf[n1..]).unwrap();
        assert_eq!(m1, a);
        assert_eq!(m2, b);
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn rejects_corruption() {
        let enc = sample().encode();
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
        let mut bad = enc.clone();
        bad[0] = 0x00;
        assert_eq!(Message::decode(&bad), Err(WireError::BadMagic(0)));
        let mut bad = enc.clone();
        bad[1] = 99;
        assert_eq!(Message::decode(&bad), Err(WireError::BadVersion(99)));
        let mut bad = enc.clone();
        bad[2] = 77;
        assert_eq!(Message::decode(&bad), Err(WireError::BadType(77)));
        for cut in 1..enc.len() {
            assert!(Message::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_invalid_topic_bytes() {
        // Build a message then corrupt the topic bytes in place.
        let m = Message::event(
            Topic::new("hb").unwrap(),
            MsgId { origin: Rank(0), seq: 1 },
            Rank(0),
            Value::Null,
        );
        let mut enc = m.encode();
        let pos = enc.windows(2).position(|w| w == b"hb").unwrap();
        enc[pos] = b'H';
        assert_eq!(Message::decode(&enc), Err(WireError::BadTopic));
    }

    #[test]
    fn hop_count_bomb_rejected() {
        // Header claiming 2^32 hops with no bytes behind it must not allocate.
        let m = sample();
        let mut enc = m.encode();
        enc.truncate(20);
        assert!(Message::decode(&enc).is_err());
    }
}
