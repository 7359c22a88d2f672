//! Property-based tests for parse/serialize/canonical-encode round-trips.

use crate::{Map, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy producing arbitrary [`Value`]s, recursively.
///
/// Floats are restricted to finite values: JSON cannot represent NaN or
/// infinities, so text round-trips only hold on the finite subset (the
/// canonical encoding round-trips all bit patterns and is tested separately).
pub fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only; see above.
        prop::num::f64::NORMAL.prop_map(Value::Float),
        Just(Value::Float(0.0)),
        ".{0,12}".prop_map(Value::from),
    ];
    leaf.prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::btree_map(".{0,8}", inner, 0..6)
                .prop_map(|m| Value::Object(m.into_iter().collect())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// JSON text round-trip: parse(to_json(v)) == v for finite values.
    #[test]
    fn json_text_roundtrip(v in arb_value()) {
        let text = v.to_json();
        let back = Value::parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Pretty and compact forms parse to the same value.
    #[test]
    fn pretty_equals_compact(v in arb_value()) {
        let a = Value::parse(&v.to_json()).unwrap();
        let b = Value::parse(&v.to_json_pretty()).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Canonical encoding round-trip: decode(encode(v)) == v.
    #[test]
    fn canonical_roundtrip(v in arb_value()) {
        let enc = v.encode_canonical();
        let back = Value::decode_canonical(&enc).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Canonical encoding is injective on distinct values — the property
    /// content addressing relies on. (Tested as: equal encodings imply
    /// equal values, via decode determinism + roundtrip; here we check the
    /// contrapositive pairwise.)
    #[test]
    fn canonical_injective(a in arb_value(), b in arb_value()) {
        let ea = a.encode_canonical();
        let eb = b.encode_canonical();
        if a == b {
            prop_assert_eq!(&ea, &eb);
        } else {
            prop_assert_ne!(&ea, &eb);
        }
    }

    /// Parsing arbitrary bytes never panics (it may fail, that's fine).
    #[test]
    fn parser_never_panics(s in ".{0,64}") {
        let _ = Value::parse(&s);
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = Value::decode_canonical(&bytes);
    }

    /// `from_pairs` builds exactly the object `BTreeMap::from_iter` does,
    /// a repeated key keeping its last value. Keys come from a two-letter
    /// alphabet so most cases repeat one.
    #[test]
    fn from_pairs_equals_collect(
        pairs in prop::collection::vec(("[ab]{0,2}", arb_value()), 0..12)
    ) {
        let collected: Map = pairs.iter().cloned().collect();
        prop_assert_eq!(Value::from_pairs(pairs), Value::Object(collected));
    }

    /// approx_size is at least 1 and bounded by a generous multiple of the
    /// canonical encoding length (sanity for cache accounting).
    #[test]
    fn approx_size_sane(v in arb_value()) {
        let sz = v.approx_size();
        prop_assert!(sz >= 1);
        let enc = v.encode_canonical().len();
        prop_assert!(sz <= 16 * (enc + 16));
    }
}

/// One operation of a random sequence run on a [`Map`] and on a
/// `BTreeMap` model.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(String, i64),
    Remove(String),
    Extend(Vec<(String, i64)>),
    /// Keeps the entries whose value is not `r` modulo 3.
    Retain(i64),
    /// Sets the value if the key has one, inserts its negation otherwise.
    Entry(String, i64),
    Get(String),
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    // Keys from a small alphabet, so operations keep meeting each other.
    let key = "[a-e]{0,2}";
    let op = prop_oneof![
        (key, any::<i64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        key.prop_map(MapOp::Remove),
        prop::collection::vec((key, any::<i64>()), 0..8).prop_map(MapOp::Extend),
        (0i64..3).prop_map(MapOp::Retain),
        (key, any::<i64>()).prop_map(|(k, v)| MapOp::Entry(k, v)),
        key.prop_map(MapOp::Get),
    ];
    prop::collection::vec(op, 0..64)
}

proptest! {
    // The default configuration, so that `PROPTEST_CASES` widens it.

    /// `Map` keeps the contents and the iteration order of a
    /// `BTreeMap<String, Value>` through any sequence of operations, and
    /// answers each the way it does.
    #[test]
    fn map_matches_a_btreemap_model(ops in map_ops()) {
        let mut map = Map::new();
        let mut model: BTreeMap<String, Value> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(map.insert(k.clone(), v.into()), model.insert(k, v.into()));
                }
                MapOp::Remove(k) => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                MapOp::Extend(pairs) => {
                    let pairs = pairs.into_iter().map(|(k, v)| (k, Value::from(v)));
                    map.extend(pairs.clone());
                    model.extend(pairs);
                }
                MapOp::Retain(r) => {
                    let keep = |v: &mut Value| v.as_int().is_some_and(|i| i.rem_euclid(3) != r);
                    map.retain(|_, v| keep(v));
                    model.retain(|_, v| keep(v));
                }
                MapOp::Entry(k, v) => {
                    let set = |x: &mut Value| *x = Value::Int(v);
                    let neg = Value::Int(v.wrapping_neg());
                    let got = map.entry(k.clone()).and_modify(set).or_insert(neg.clone()).clone();
                    let want = model.entry(k).and_modify(set).or_insert(neg).clone();
                    prop_assert_eq!(got, want);
                }
                MapOp::Get(k) => prop_assert_eq!(map.get(&k), model.get(&k)),
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert!(map.iter().eq(model.iter()), "{:?} != {:?}", map, model);
        }
    }
}
