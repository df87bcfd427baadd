//! The typed read path must agree with the tree path on every input:
//! `StatSet::from_binary` (a `binary::Cursor` walk with no `JsonValue`
//! in between) and `StatSet::from_json_value(&binary::decode(..))` either
//! both succeed with byte-identical re-encodings, or both fail.
//!
//! Inputs are stat-node documents with reordered, duplicate, unknown and
//! wrongly typed fields; every single-byte flip and every truncation of
//! an encoded node (checksum resealed, so the structural walk is what
//! gets tested); and byte soup behind a valid magic.
//!
//! The write side is held to the same standard: [`StatSet::to_binary`]
//! writes through `binary::Writer` with no `JsonValue` in between, and
//! its bytes must equal `binary::encode` of the tree's `JsonValue` and
//! a two-pass reference encoder of the grammar, on trees with schema
//! and non-schema names, deep children, and every class of float.

use proptest::prelude::*;
use xloops_stats::{binary, JsonValue, StatSet};

fn tree_path(bytes: &[u8]) -> Option<Vec<u8>> {
    let v = binary::decode(bytes).ok()?;
    StatSet::from_json_value(&v).ok().map(|s| s.to_binary())
}

fn typed_path(bytes: &[u8]) -> Option<Vec<u8>> {
    StatSet::from_binary(bytes).ok().map(|s| s.to_binary())
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

fn name() -> BoxedStrategy<String> {
    prop::sample::select(vec!["cycles", "raw", "λ-😀", "", "name", "counters"])
        .prop_map(str::to_string)
        .boxed()
}

/// Any scalar, including ones of the wrong type for every stat field.
fn scalar() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        (0u64..5).prop_map(JsonValue::UInt),
        (-5i64..-1).prop_map(JsonValue::Int),
        any::<u64>().prop_map(|b| JsonValue::Float(f64::from_bits(b))),
        name().prop_map(JsonValue::Str),
        Just(JsonValue::Array(vec![])),
        Just(JsonValue::Object(vec![])),
    ]
    .boxed()
}

/// A metric value: every shape `as_f64` accepts, and sometimes not.
fn metric() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        any::<u64>().prop_map(|b| JsonValue::Float(f64::from_bits(b))),
        any::<u64>().prop_map(JsonValue::UInt),
        (i64::MIN..0).prop_map(JsonValue::Int),
        Just(JsonValue::Null),
        scalar(),
    ]
    .boxed()
}

/// A counter value: an unsigned integer, and sometimes not.
fn counter() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        any::<u64>().prop_map(JsonValue::UInt),
        any::<u64>().prop_map(JsonValue::UInt),
        scalar()
    ]
    .boxed()
}

/// A stat node with its four fields in a random order, some extra
/// fields (duplicates of the four, unknown keys, wrong types) mixed in,
/// and now and then one required field left out.
fn node(depth: usize) -> BoxedStrategy<JsonValue> {
    let children = if depth == 0 {
        Just(Vec::new()).boxed()
    } else {
        prop::collection::vec(node(depth - 1), 0..3).boxed()
    };
    let extra = (
        prop::sample::select(vec!["name", "counters", "metrics", "children", "point", "x"]),
        prop_oneof![
            scalar(),
            prop::collection::vec((name(), counter()), 0..3).prop_map(JsonValue::Object),
            prop::collection::vec(scalar(), 0..3).prop_map(JsonValue::Array),
        ],
        any::<u64>(),
    );
    (
        (name(), prop::collection::vec((name(), counter()), 0..4)),
        (prop::collection::vec((name(), metric()), 0..4), children),
        prop::collection::vec(extra, 0..3),
        prop::collection::vec(any::<u64>(), 4..5),
        0usize..24,
    )
        .prop_map(|((n, counters), (metrics, children), extras, order, drop)| {
            let mut fields: Vec<(u64, String, JsonValue)> = vec![
                (order[0], "name".into(), JsonValue::Str(n)),
                (order[1], "counters".into(), JsonValue::Object(counters)),
                (order[2], "metrics".into(), JsonValue::Object(metrics)),
                (order[3], "children".into(), JsonValue::Array(children)),
            ];
            if drop < fields.len() {
                fields.remove(drop);
            }
            fields.extend(extras.into_iter().map(|(k, v, at)| (at, k.to_string(), v)));
            fields.sort_by_key(|f| f.0);
            JsonValue::Object(fields.into_iter().map(|(_, k, v)| (k, v)).collect())
        })
        .boxed()
}

/// A well-formed stat node, for the flip and truncation sweeps.
fn clean() -> BoxedStrategy<StatSet> {
    (name(), prop::collection::vec((name(), any::<u64>()), 0..4), any::<u64>())
        .prop_map(|(n, counters, bits)| {
            let mut s = StatSet::new(&n);
            for (c, v) in counters {
                s.set(&c, v);
            }
            s.set_metric("ipc", f64::from_bits(bits));
            let mut child = StatSet::new("lpsu");
            child.set("exec", 3).set_metric("nan", f64::NAN);
            s.push_child(child);
            s
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_documents_decode_alike(doc in node(2)) {
        agree(&binary::encode(&doc))?;
    }

    #[test]
    fn every_byte_flip_decodes_alike(s in clean(), mask in 1u8..=255) {
        let bytes = s.to_binary();
        let body = &bytes[..bytes.len() - 8];
        for i in 0..body.len() {
            let mut bad = body.to_vec();
            bad[i] ^= mask;
            agree(&reseal(bad))?;
            let mut raw = bytes.clone();
            raw[i] ^= mask;
            agree(&raw)?;
        }
    }

    #[test]
    fn every_truncation_decodes_alike(s in clean()) {
        let bytes = s.to_binary();
        for n in 0..bytes.len() {
            agree(&bytes[..n])?;
            agree(&reseal(bytes[..n.min(bytes.len() - 8)].to_vec()))?;
        }
    }

    #[test]
    fn byte_soup_behind_the_magic_decodes_alike(
        soup in prop::collection::vec(prop_oneof![0u8..9, any::<u8>()], 0..96),
        keyed in any::<bool>(),
    ) {
        // Half the cases carry a valid key table so the soup reaches the
        // value walk with in-range key indices.
        let mut body = binary::MAGIC.to_vec();
        body.push(binary::VERSION);
        if keyed {
            body.push(4);
            for k in ["name", "counters", "metrics", "children"] {
                body.push(k.len() as u8);
                body.extend_from_slice(k.as_bytes());
            }
        }
        body.extend_from_slice(&soup);
        agree(&body)?;
        agree(&reseal(body))?;
    }
}

#[test]
fn both_outcomes_are_exercised() {
    // A clean node decodes on both paths; one missing a field on neither.
    let good = clean_node();
    assert!(typed_path(&good.to_binary()).is_some());
    let mut v = good.to_json_value();
    if let JsonValue::Object(fields) = &mut v {
        fields.retain(|(k, _)| k != "metrics");
    }
    assert_eq!(typed_path(&binary::encode(&v)), None);
    assert_eq!(tree_path(&binary::encode(&v)), None);
}

#[test]
fn first_duplicate_wins_and_later_ones_are_still_validated() {
    let good = clean_node().to_json_value();
    let JsonValue::Object(mut fields) = good else { unreachable!() };
    fields.push(("name".into(), JsonValue::UInt(7))); // wrong type, but second
    let doc = JsonValue::Object(fields.clone());
    let typed = StatSet::from_binary(&binary::encode(&doc)).expect("later duplicate is ignored");
    assert_eq!(typed.name(), "system");
    assert_eq!(typed_path(&binary::encode(&doc)), tree_path(&binary::encode(&doc)));

    // A later duplicate holding a malformed value still fails the read.
    let mut body = binary::encode(&doc);
    body.truncate(body.len() - 8);
    let last = body.len() - 1;
    assert_eq!(body[last], 7, "the trailing UInt 7");
    body[last - 1] = 0x0f; // unknown tag in place of the uint tag
    let bad = reseal(body);
    assert!(StatSet::from_binary(&bad).is_err());
    assert!(binary::decode(&bad).is_err());
}

fn clean_node() -> StatSet {
    let mut s = StatSet::new("system");
    s.set("cycles", 10).set_metric("ipc", 0.5);
    s
}

/// The binary grammar encoded the obvious way, in two passes — every
/// object key into a first-appearance table, then the values — as the
/// format module describes it. The reference the one-pass writer and
/// `binary::encode` are held to.
fn reference_encode(v: &JsonValue) -> Vec<u8> {
    fn keys<'a>(v: &'a JsonValue, table: &mut Vec<&'a str>) {
        match v {
            JsonValue::Array(items) => items.iter().for_each(|item| keys(item, table)),
            JsonValue::Object(fields) => {
                for (k, item) in fields {
                    if !table.contains(&k.as_str()) {
                        table.push(k);
                    }
                    keys(item, table);
                }
            }
            _ => {}
        }
    }
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    fn value(out: &mut Vec<u8>, v: &JsonValue, table: &[&str]) {
        match v {
            JsonValue::Null => out.push(0x00),
            JsonValue::Bool(b) => out.push(if *b { 0x02 } else { 0x01 }),
            JsonValue::UInt(n) => {
                out.push(0x03);
                varint(out, *n);
            }
            JsonValue::Int(n) => {
                out.push(0x04);
                varint(out, ((n << 1) ^ (n >> 63)) as u64);
            }
            JsonValue::Float(f) => {
                out.push(0x05);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            JsonValue::Str(s) => {
                out.push(0x06);
                varint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            JsonValue::Array(items) => {
                out.push(0x07);
                varint(out, items.len() as u64);
                items.iter().for_each(|item| value(out, item, table));
            }
            JsonValue::Object(fields) => {
                out.push(0x08);
                varint(out, fields.len() as u64);
                for (k, item) in fields {
                    varint(out, table.iter().position(|t| t == k).unwrap() as u64);
                    value(out, item, table);
                }
            }
        }
    }
    let mut table = Vec::new();
    keys(v, &mut table);
    let mut out = binary::MAGIC.to_vec();
    out.push(binary::VERSION);
    varint(&mut out, table.len() as u64);
    for k in &table {
        varint(&mut out, k.len() as u64);
        out.extend_from_slice(k.as_bytes());
    }
    value(&mut out, v, &table);
    reseal(out)
}

/// Schema names, which a tree stores interned, and names outside the
/// schema, which it stores owned.
fn mixed_name() -> BoxedStrategy<String> {
    prop::sample::select(vec![
        "cycles",
        "ipc",
        "lpsu",
        "stalls",
        "raw",
        "energy_nj",
        "profile",
        "name",
        "counters",
        "not-a-stat",
        "λ-😀",
        "",
        "cycles2",
        "Cycles",
    ])
    .prop_map(str::to_string)
    .boxed()
}

/// Every float class: NaN, ±0, ±∞, subnormals, and raw bit patterns.
fn any_float() -> BoxedStrategy<f64> {
    prop_oneof![
        prop::sample::select(vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            2.5,
        ]),
        any::<u64>().prop_map(f64::from_bits),
    ]
    .boxed()
}

/// A stat tree built through the public setters (so duplicates overwrite
/// in place), two levels of bushy children, then wrapped in a chain of
/// up to 50 single-child parents.
fn tree() -> BoxedStrategy<StatSet> {
    fn node(depth: usize) -> BoxedStrategy<StatSet> {
        let children = if depth == 0 {
            Just(Vec::new()).boxed()
        } else {
            prop::collection::vec(node(depth - 1), 0..3).boxed()
        };
        (
            mixed_name(),
            prop::collection::vec((mixed_name(), any::<u64>()), 0..6),
            prop::collection::vec((mixed_name(), any_float()), 0..6),
            children,
        )
            .prop_map(|(name, counters, metrics, children)| {
                let mut s = StatSet::new(&name);
                for (n, v) in counters {
                    s.set(&n, v);
                }
                for (n, v) in metrics {
                    s.set_metric(&n, v);
                }
                for c in children {
                    s.push_child(c);
                }
                s
            })
            .boxed()
    }
    (node(2), prop::collection::vec(mixed_name(), 0..50))
        .prop_map(|(mut s, parents)| {
            for name in parents {
                let mut parent = StatSet::new(&name);
                parent.push_child(s);
                s = parent;
            }
            s
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_typed_writer_writes_what_encode_writes(s in tree()) {
        let v = s.to_json_value();
        let typed = s.to_binary();
        prop_assert_eq!(&typed, &binary::encode(&v));
        prop_assert_eq!(&typed, &reference_encode(&v));
    }

    #[test]
    fn typed_decode_equals_the_json_value_path_on_trees(s in tree()) {
        let bytes = s.to_binary();
        let typed = StatSet::from_binary(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let tree = StatSet::from_json_value(&s.to_json_value())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        // Bytes, not `==`: NaN metrics survive bit for bit but are never
        // equal to themselves.
        prop_assert_eq!(typed.to_binary(), tree.to_binary());
        prop_assert_eq!(typed.to_binary(), bytes);
    }
}

#[test]
fn decoding_folds_duplicates_like_the_setters_on_short_and_long_nodes() {
    // 12 and 400 entries cycling through fewer distinct names, schema and
    // owned alike: a later duplicate's value lands in the first one's
    // position, on both sides of the pairwise/hash-index switch.
    for (entries, distinct) in [(12, 5), (400, 90)] {
        let names: Vec<String> = (0..distinct)
            .map(|i| {
                if i % 2 == 0 {
                    format!("c{i}")
                } else {
                    ["cycles", "ipc", "raw"][i % 3].to_string()
                }
            })
            .collect();
        let mut expect = StatSet::new("system");
        let (mut counters, mut metrics, mut children) = (vec![], vec![], vec![]);
        for e in 0..entries {
            let n = &names[(e * 7) % distinct];
            expect.set(n, e as u64).set_metric(n, e as f64 / 2.0);
            let mut child = StatSet::new(n);
            child.set("exec", e as u64);
            expect.push_child(child.clone());
            counters.push((n.clone(), JsonValue::UInt(e as u64)));
            metrics.push((n.clone(), JsonValue::Float(e as f64 / 2.0)));
            children.push(child.to_json_value());
        }
        let doc = JsonValue::object(vec![
            ("name", JsonValue::Str("system".into())),
            ("counters", JsonValue::Object(counters)),
            ("metrics", JsonValue::Object(metrics)),
            ("children", JsonValue::Array(children)),
        ]);
        assert_eq!(StatSet::from_json_value(&doc).unwrap(), expect, "{entries} entries, tree path");
        let typed = StatSet::from_binary(&binary::encode(&doc)).unwrap();
        assert_eq!(typed, expect, "{entries} entries, typed path");
    }
}
