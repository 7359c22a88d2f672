//! Property tests: codec round-trips and decoder robustness.

use crate::{Header, Message, MsgId, MsgType, Rank, Topic};
use flux_value::Value;
use proptest::prelude::*;

fn arb_topic() -> impl Strategy<Value = Topic> {
    "[a-z][a-z0-9_-]{0,8}(\\.[a-z][a-z0-9_-]{0,8}){0,3}"
        .prop_map(|s| Topic::new(s).expect("strategy produces valid topics"))
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        ".{0,16}".prop_map(Value::from),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..4)
                .prop_map(|m| Value::Object(m.into_iter().collect())),
        ]
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        prop_oneof![Just(MsgType::Request), Just(MsgType::Response), Just(MsgType::Event)],
        arb_topic(),
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        prop::option::of(any::<u32>()),
        any::<u16>(),
        prop::collection::vec(any::<u32>(), 0..6),
        arb_value(),
    )
        .prop_map(|(msg_type, topic, origin, seq, src, dst, errnum, hops, payload)| Message {
            header: Header {
                msg_type,
                topic,
                id: MsgId { origin: Rank(origin), seq },
                src: Rank(src),
                dst: dst.map(Rank),
                errnum: u32::from(errnum),
                hops: hops.into_iter().map(Rank).collect(),
            },
            payload: payload.into(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity and consumes exactly the encoding.
    #[test]
    fn codec_roundtrip(m in arb_message()) {
        let enc = m.encode();
        let (back, used) = Message::decode(&enc).unwrap();
        prop_assert_eq!(used, enc.len());
        prop_assert_eq!(back, m);
    }

    /// Decoding random bytes never panics.
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    /// Truncating a valid encoding anywhere yields an error, not a panic
    /// or a bogus success.
    #[test]
    fn truncation_always_detected(m in arb_message(), frac in 0.0f64..1.0) {
        let enc = m.encode();
        let cut = ((enc.len() as f64) * frac) as usize;
        if cut < enc.len() {
            prop_assert!(Message::decode(&enc[..cut]).is_err());
        }
    }

    /// Two different messages never produce the same encoding.
    #[test]
    fn encoding_injective(a in arb_message(), b in arb_message()) {
        if a != b {
            prop_assert_ne!(a.encode(), b.encode());
        }
    }

    /// Corrupting any byte of a valid encoding never panics the decoder:
    /// it either errs or decodes to *some* message, but always returns.
    #[test]
    fn mutated_encodings_never_panic(m in arb_message(), pos in any::<usize>(), xor in any::<u8>()) {
        let mut enc = m.encode();
        let i = pos % enc.len();
        enc[i] ^= xor.max(1);
        let _ = Message::decode(&enc);
    }

    /// The canonical value decoder is panic-free on arbitrary bytes too —
    /// it runs inside message decode, so its crashes would be ours.
    #[test]
    fn value_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Value::decode_canonical(&bytes);
        let _ = Value::decode_canonical_prefix(&bytes);
    }

    /// The TCP frame reader never panics on arbitrary bytes: it errs on
    /// garbage and reports clean EOF only at a frame boundary.
    #[test]
    fn frame_reader_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let (mut r, mut body) = (&bytes[..], Vec::new());
        if let Ok(None) = crate::frame::read_frame_into(&mut r, crate::frame::MAX_FRAME, &mut body) {
            prop_assert!(bytes.is_empty(), "EOF only at a boundary");
        }
    }
}
