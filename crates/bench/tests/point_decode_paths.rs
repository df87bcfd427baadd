//! Store records are decoded by the typed path only, so it must agree
//! with the tree path on every input: `PointResult::from_binary` and
//! `PointResult::from_json_value(&binary::decode(..))` either both
//! succeed with byte-identical re-encodings, or both fail.
//!
//! Inputs are point documents with reordered, duplicate, unknown and
//! wrongly typed fields; every single-byte flip and every truncation of
//! an encoded record (checksum resealed, so the structural walk is what
//! gets tested); and byte soup behind a valid magic.
//!
//! Store records are written by the typed path only, too:
//! `PointResult::to_binary` must write the bytes `binary::encode` makes
//! of `PointResult::to_json_value`.

use proptest::prelude::*;
use xloops_bench::manifest::PointResult;
use xloops_stats::{binary, JsonValue, StatSet};

fn encoded(r: &PointResult) -> Vec<u8> {
    binary::encode(&r.to_json_value())
}

fn tree_path(bytes: &[u8]) -> Option<Vec<u8>> {
    let v = binary::decode(bytes).ok()?;
    PointResult::from_json_value(&v).ok().map(|r| encoded(&r))
}

fn typed_path(bytes: &[u8]) -> Option<Vec<u8>> {
    PointResult::from_binary(bytes).ok().map(|r| encoded(&r))
}

/// Replaces the trailing checksum so a damaged body still reaches the
/// structural walk instead of failing the checksum up front.
fn reseal(mut body: Vec<u8>) -> Vec<u8> {
    let check = binary::fnv1a64(&body);
    body.extend_from_slice(&check.to_le_bytes());
    body
}

fn agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(typed_path(bytes), tree_path(bytes), "input {:02x?}", bytes);
    Ok(())
}

/// A stat tree shaped like a simulation result: counters, metrics
/// (non-finite ones too) and nested children.
fn stats() -> BoxedStrategy<StatSet> {
    (any::<u64>(), any::<u64>(), prop::collection::vec(any::<u64>(), 0..4))
        .prop_map(|(cycles, bits, stalls)| {
            let mut s = StatSet::new("system");
            s.set("cycles", cycles).set("instret", cycles / 2);
            s.set_metric("energy_nj", f64::from_bits(bits)).set_metric("ipc", f64::NAN);
            let mut lpsu = StatSet::new("lpsu");
            let mut st = StatSet::new("stalls");
            for (i, v) in stalls.into_iter().enumerate() {
                st.set(&format!("s{i}"), v);
            }
            lpsu.push_child(st);
            s.push_child(lpsu);
            s
        })
        .boxed()
}

fn scalar() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<u64>().prop_map(JsonValue::UInt),
        Just(JsonValue::Int(-3)),
        Just(JsonValue::Float(0.5)),
        Just(JsonValue::Str("it panicked".into())),
        Just(JsonValue::Array(vec![])),
        Just(JsonValue::Object(vec![])),
    ]
    .boxed()
}

/// A value for the `error` field: null, a string, or a wrong type.
fn error() -> BoxedStrategy<JsonValue> {
    prop_oneof![Just(JsonValue::Null), Just(JsonValue::Str("budget".into())), scalar()].boxed()
}

/// A value for the `stats` field: a stat tree, or a broken one.
fn stats_value() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        stats().prop_map(|s| s.to_json_value()),
        stats().prop_map(|s| s.to_json_value()),
        stats().prop_map(|s| {
            let JsonValue::Object(mut f) = s.to_json_value() else { unreachable!() };
            f.reverse();
            f.push(("name".into(), JsonValue::UInt(1))); // a later, mistyped duplicate
            JsonValue::Object(f)
        }),
        scalar(),
    ]
    .boxed()
}

/// A point document with `error` and `stats` in a random order, extra
/// fields (duplicates, a shard entry's `point`, unknown keys) mixed in,
/// and now and then a required field left out.
fn document() -> BoxedStrategy<JsonValue> {
    let extra = (
        prop::sample::select(vec!["error", "stats", "point", "x"]),
        prop_oneof![scalar(), error(), stats_value()],
        any::<u64>(),
    );
    (
        error(),
        stats_value(),
        prop::collection::vec(extra, 0..3),
        (any::<u64>(), any::<u64>()),
        0usize..8,
    )
        .prop_map(|(e, s, extras, (oe, os), drop)| {
            let mut fields = vec![(oe, "error".to_string(), e), (os, "stats".to_string(), s)];
            if drop < fields.len() {
                fields.remove(drop);
            }
            fields.extend(extras.into_iter().map(|(k, v, at)| (at, k.to_string(), v)));
            fields.sort_by_key(|f| f.0);
            JsonValue::Object(fields.into_iter().map(|(_, k, v)| (k, v)).collect())
        })
        .boxed()
}

fn record() -> BoxedStrategy<Vec<u8>> {
    (stats(), any::<bool>())
        .prop_map(|(stats, failed)| {
            encoded(&PointResult { stats, error: failed.then(|| "wedged".to_string()) })
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_documents_decode_alike(doc in document()) {
        agree(&binary::encode(&doc))?;
    }

    #[test]
    fn every_byte_flip_of_a_record_decodes_alike(bytes in record(), mask in 1u8..=255) {
        let body = &bytes[..bytes.len() - 8];
        for i in 0..body.len() {
            let mut bad = body.to_vec();
            bad[i] ^= mask;
            agree(&reseal(bad))?;
        }
    }

    #[test]
    fn every_truncation_of_a_record_decodes_alike(bytes in record()) {
        for n in 0..bytes.len() {
            agree(&bytes[..n])?;
            agree(&reseal(bytes[..n.min(bytes.len() - 8)].to_vec()))?;
        }
    }

    #[test]
    fn byte_soup_behind_the_magic_decodes_alike(
        soup in prop::collection::vec(prop_oneof![0u8..9, any::<u8>()], 0..96),
    ) {
        let mut body = binary::MAGIC.to_vec();
        body.push(binary::VERSION);
        body.push(6);
        for k in ["error", "stats", "name", "counters", "metrics", "children"] {
            body.push(k.len() as u8);
            body.extend_from_slice(k.as_bytes());
        }
        body.extend_from_slice(&soup);
        agree(&reseal(body))?;
    }

    #[test]
    fn the_typed_writer_writes_what_encode_writes(stats in stats(), failed in any::<bool>()) {
        let r = PointResult { stats, error: failed.then(|| "wedged \"λ\"".to_string()) };
        prop_assert_eq!(r.to_binary(), encoded(&r));
    }
}

#[test]
fn a_record_round_trips_through_the_typed_path() {
    let mut stats = StatSet::new("system");
    stats.set("cycles", 42).set_metric("nan", f64::NAN);
    for error in [None, Some("wedged".to_string())] {
        let r = PointResult { stats: stats.clone(), error };
        let bytes = encoded(&r);
        let back = PointResult::from_binary(&bytes).expect("a clean record decodes");
        assert_eq!(encoded(&back), bytes);
        assert_eq!(back.error, r.error);
    }
}
