//! Round-trip properties of the deterministic JSON infrastructure:
//! `render(parse(render(x)))` must be byte-identical to `render(x)` for
//! arbitrary [`JsonValue`] documents and arbitrary [`StatSet`] trees —
//! the invariant that lets experiment manifests and shard result files
//! ship through the same encoder/parser pair without drift. The binary
//! sibling (`xloops_stats::binary`) must agree: `encode -> decode ->
//! encode` is the identity on the bytes, decoding re-renders to the same
//! JSON text, and arbitrary byte soup never panics the decoder.

use proptest::prelude::*;
use xloops_stats::{binary, JsonValue, StatSet};

/// Names exercising the escaping rules: quotes, backslashes, control
/// characters, non-ASCII, and plain identifiers.
fn name_strategy() -> BoxedStrategy<String> {
    prop::sample::select(vec![
        "cycles".to_string(),
        "stalls.raw".to_string(),
        "a b".to_string(),
        "quo\"te".to_string(),
        "back\\slash".to_string(),
        "new\nline".to_string(),
        "tab\tand\rcr".to_string(),
        "ctl\u{1}\u{1f}".to_string(),
        "unicode-λ-😀".to_string(),
        String::new(),
    ])
    .boxed()
}

/// Finite and non-finite floats from raw bit patterns (NaN payloads,
/// infinities, subnormals), plus friendly values.
fn f64_strategy() -> BoxedStrategy<f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        prop::sample::select(vec![0.0, -0.0, 1.0, 2.5, -17.25, 1e300, 1e-300]),
    ]
    .boxed()
}

fn scalar_strategy() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<u64>().prop_map(JsonValue::UInt),
        any::<i64>().prop_map(|v| {
            if v < 0 {
                JsonValue::Int(v)
            } else {
                JsonValue::UInt(v as u64)
            }
        }),
        f64_strategy().prop_map(JsonValue::Float),
        name_strategy().prop_map(JsonValue::Str),
    ]
    .boxed()
}

/// JSON documents up to three levels deep.
fn value_strategy() -> BoxedStrategy<JsonValue> {
    let mut layer = scalar_strategy();
    for _ in 0..3 {
        layer = prop_oneof![
            scalar_strategy(),
            prop::collection::vec(layer.clone(), 0..4).prop_map(JsonValue::Array),
            prop::collection::vec((name_strategy(), layer), 0..4).prop_map(JsonValue::Object),
        ]
        .boxed();
    }
    layer
}

/// Stat trees up to three levels deep with arbitrary counters/metrics.
fn stat_set_strategy() -> BoxedStrategy<StatSet> {
    fn node(depth: usize) -> BoxedStrategy<StatSet> {
        let base = (
            name_strategy(),
            prop::collection::vec((name_strategy(), any::<u64>()), 0..4),
            prop::collection::vec((name_strategy(), f64_strategy()), 0..4),
        );
        if depth == 0 {
            base.prop_map(|(name, counters, metrics)| build(&name, counters, metrics, vec![]))
                .boxed()
        } else {
            (base, prop::collection::vec(node(depth - 1), 0..3))
                .prop_map(|((name, counters, metrics), children)| {
                    build(&name, counters, metrics, children)
                })
                .boxed()
        }
    }
    fn build(
        name: &str,
        counters: Vec<(String, u64)>,
        metrics: Vec<(String, f64)>,
        children: Vec<StatSet>,
    ) -> StatSet {
        let mut s = StatSet::new(name);
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
    }
    node(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_value_encode_parse_encode_is_identity(v in value_strategy()) {
        let once = v.render();
        let parsed = JsonValue::parse(&once)
            .map_err(|e| TestCaseError::fail(format!("{e} in {once}")))?;
        prop_assert_eq!(&parsed.render(), &once);
        // The pretty rendering parses back to the same reparse too.
        let pretty = parsed.render_pretty();
        let reparsed = JsonValue::parse(&pretty)
            .map_err(|e| TestCaseError::fail(format!("{e} in {pretty}")))?;
        prop_assert_eq!(reparsed.render(), once);
    }

    #[test]
    fn stat_set_encode_parse_encode_is_identity(s in stat_set_strategy()) {
        let once = s.to_json();
        let parsed = StatSet::from_json(&once)
            .map_err(|e| TestCaseError::fail(format!("{e} in {once}")))?;
        prop_assert_eq!(parsed.to_json(), once);
    }

    #[test]
    fn parser_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let text: String = bytes.into_iter().map(|b| b as char).collect();
        let _ = JsonValue::parse(&text); // Ok or Err, never an unwind.
        let _ = StatSet::from_json(&text);
    }

    #[test]
    fn binary_encode_decode_encode_is_identity(v in value_strategy()) {
        let bytes = binary::encode(&v);
        prop_assert!(binary::is_binary(&bytes));
        let decoded = binary::decode(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        // Byte identity of the re-encode (structural equality would choke
        // on NaN != NaN; the encoding is bit-exact, so this is stronger).
        prop_assert_eq!(binary::encode(&decoded), bytes);
        // And both sides render to identical JSON text: binary ≡ JSON.
        prop_assert_eq!(decoded.render(), v.render());
    }

    #[test]
    fn stat_set_binary_round_trips_and_agrees_with_json(s in stat_set_strategy()) {
        let bytes = s.to_binary();
        let back = StatSet::from_binary(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back.to_binary(), bytes);
        prop_assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn binary_decoder_never_panics_on_byte_soup(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
        magic in any::<bool>(),
    ) {
        // Half the cases are prefixed with a valid magic so the decoder
        // gets past the sniff and into the structural code paths.
        let soup = if magic {
            let mut b = binary::MAGIC.to_vec();
            b.push(binary::VERSION);
            b.extend_from_slice(&bytes);
            b
        } else {
            bytes
        };
        let _ = binary::decode(&soup); // Ok or Err, never an unwind.
        let _ = StatSet::from_binary(&soup);
    }

    #[test]
    fn binary_rejects_any_truncation(v in value_strategy()) {
        let bytes = binary::encode(&v);
        for n in 0..bytes.len() {
            prop_assert!(binary::decode(&bytes[..n]).is_err());
        }
    }
}

/// The least of several timings of parsing one JSON string of `n` bytes.
fn min_parse_time(n: usize) -> std::time::Duration {
    let doc = format!("\"{}\"", "λx".repeat(n / 3));
    (0..7)
        .map(|_| {
            let t = std::time::Instant::now();
            let v = JsonValue::parse(&doc).expect("a valid string document");
            let elapsed = t.elapsed();
            assert_eq!(v.as_str().map(str::len), Some(doc.len() - 2));
            elapsed
        })
        .min()
        .expect("at least one repetition")
}

#[test]
fn string_parsing_is_linear_time() {
    // 16× the bytes must cost well under 64× the time; a parser that
    // rescans the rest of the document per string byte costs ~256×.
    let small = min_parse_time(16 << 10);
    let large = min_parse_time(256 << 10);
    assert!(large < small * 64, "16 KiB: {small:?}, 256 KiB: {large:?}");
}

/// A binary document holding an array of `n` small objects, each with
/// its own string (the keys are interned once in the key table).
fn binary_doc(n: usize) -> Vec<u8> {
    let elements = (0..n)
        .map(|i| {
            JsonValue::object(vec![
                ("name", JsonValue::Str(format!("point-{i}"))),
                ("cycles", JsonValue::UInt(i as u64 * 977)),
                ("energy", JsonValue::Float(i as f64 * 0.5)),
            ])
        })
        .collect();
    binary::encode(&JsonValue::Array(elements))
}

/// One timing of reading `bytes` through both entry points: the tree
/// decoder and the typed [`binary::read`] walk.
fn binary_decode_time(bytes: &[u8]) -> std::time::Duration {
    let t = std::time::Instant::now();
    let tree = binary::decode(bytes).expect("a valid binary document");
    binary::read(bytes, |c| c.skip()).expect("a valid binary document");
    let elapsed = t.elapsed();
    assert!(matches!(tree, JsonValue::Array(_)));
    elapsed
}

#[test]
fn binary_decoding_is_linear_time() {
    // Twice the elements must cost about twice the time; a decoder that
    // rescans what it already read per element costs about four times.
    // The sizes alternate so host noise hits both alike; each keeps the
    // least of its timings.
    let (small, large) = (binary_doc(40_000), binary_doc(80_000));
    let (mut n, mut n2) = (std::time::Duration::MAX, std::time::Duration::MAX);
    for _ in 0..11 {
        n = n.min(binary_decode_time(&small));
        n2 = n2.min(binary_decode_time(&large));
    }
    assert!(n2 < n * 3, "n: {n:?}, 2n: {n2:?}");
}
