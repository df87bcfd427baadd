//! Compact self-describing binary encoding of [`JsonValue`] documents.
//!
//! The durable result store's records need the same documents the JSON
//! layer already models, but repeated thousands of times per sweep —
//! where pretty JSON pays for its readability in repeated object keys and
//! decimal digits. This module is the wire sibling of [`crate::json`]:
//! one length-prefixed binary container that encodes exactly the
//! [`JsonValue`] data model (so every document that round-trips through
//! JSON round-trips through binary, and vice versa), at a fraction of the
//! size.
//!
//! # Format grammar
//!
//! ```text
//! document := magic version keytable value checksum
//! magic    := 0xD8 'X' 'L' 'S'            (0xD8 is never valid leading UTF-8,
//!                                          so no JSON text aliases a document)
//! version  := 0x01
//! keytable := varint(count) key*           (all object keys, interned in
//! key      := varint(len) utf8-bytes        first-appearance order)
//! value    := 0x00                         null
//!           | 0x01 | 0x02                  false | true
//!           | 0x03 varint(u64)             non-negative integer
//!           | 0x04 varint(zigzag(i64))     negative integer
//!           | 0x05 le64(f64::to_bits)      float, bit-exact (NaN payloads
//!                                          and -0.0 survive, unlike JSON)
//!           | 0x06 varint(len) utf8-bytes  string
//!           | 0x07 varint(count) value*    array
//!           | 0x08 varint(count) field*    object
//! field    := varint(key-index) value
//! checksum := le64(fnv1a64 of every preceding byte, magic included)
//! varint   := LEB128 (7 bits per byte, 0x80 continuation, max 10 bytes)
//! ```
//!
//! The trailing FNV-1a-64 checksum is verified *before* any structural
//! decoding, so a truncated or bit-flipped document fails fast with
//! [`BinaryError`] instead of being misread; decoding never panics on
//! arbitrary bytes (same depth guard as the JSON parser). One walker,
//! [`Cursor`], reads the grammar: [`decode`] builds a [`JsonValue`] with
//! it, and typed readers such as [`crate::StatSet::from_cursor`] pull
//! values straight into their own types. One [`Writer`] writes it:
//! [`encode`] puts a [`JsonValue`] through it, and typed writers such as
//! [`crate::StatSet::write`] put their own fields, byte-identical to
//! encoding their [`JsonValue`] form.
//!
//! Determinism: encoding is a pure function of the value (key-table order
//! is first appearance, field order is insertion order), so equal
//! documents encode to identical bytes — the property the
//! content-addressed store and the shard-merge diff tests rely on.

use std::collections::HashMap;
use std::fmt;

use crate::json::JsonValue;

/// First four bytes of every binary document.
pub const MAGIC: [u8; 4] = [0xD8, b'X', b'L', b'S'];

/// Current format version (byte five).
pub const VERSION: u8 = 1;

/// Decode depth guard, mirroring the JSON parser's.
const MAX_DEPTH: usize = 128;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_INT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// A malformed binary document: byte offset and diagnosis. The typed
/// sibling of [`crate::json::JsonError`] for the binary container.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinaryError {
    /// Byte offset the decoder had reached.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary document error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for BinaryError {}

/// FNV-1a-64 over `bytes` — the same hash the manifest fingerprint uses.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether `bytes` starts with the binary-document magic — the first
/// check [`read`] makes.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MAGIC
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A typed writer of one binary document — the write half of
/// [`Cursor`]. [`write`] opens one; the typed puts append one value each
/// to the body, and [`Writer::key`] interns object keys in the order it
/// meets them, which is the key table's first-appearance order. A writer
/// that puts the values a [`JsonValue`] holds, in document order, makes
/// exactly the bytes [`encode`] makes of that value — which is how
/// [`encode`] itself works — so a typed caller needs no intermediate
/// tree and no fresh `String` per key.
///
/// Containers are written count first: after [`Writer::object`]`(n)`
/// come exactly `n` pairs of [`Writer::key`] and a value, after
/// [`Writer::array`]`(n)` exactly `n` values.
pub struct Writer<'k> {
    body: Vec<u8>,
    keys: Vec<&'k str>,
    index: HashMap<&'k str, u64>,
}

impl<'k> Writer<'k> {
    fn null(&mut self) {
        self.body.push(TAG_NULL);
    }

    fn bool(&mut self, b: bool) {
        self.body.push(if b { TAG_TRUE } else { TAG_FALSE });
    }

    /// Puts a non-negative integer.
    pub fn u64(&mut self, v: u64) {
        self.body.push(TAG_UINT);
        put_varint(&mut self.body, v);
    }

    fn i64(&mut self, v: i64) {
        self.body.push(TAG_INT);
        put_varint(&mut self.body, zigzag(v));
    }

    /// Puts a float, bit-exact.
    pub fn f64(&mut self, v: f64) {
        self.body.push(TAG_FLOAT);
        self.body.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Puts a string.
    pub fn str(&mut self, s: &str) {
        self.body.push(TAG_STR);
        put_varint(&mut self.body, s.len() as u64);
        self.body.extend_from_slice(s.as_bytes());
    }

    /// Puts a string, or `null` for `None`.
    pub fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => self.str(s),
            None => self.null(),
        }
    }

    /// Opens an array of `len` values.
    pub fn array(&mut self, len: usize) {
        self.body.push(TAG_ARRAY);
        put_varint(&mut self.body, len as u64);
    }

    /// Opens an object of `len` fields.
    pub fn object(&mut self, len: usize) {
        self.body.push(TAG_OBJECT);
        put_varint(&mut self.body, len as u64);
    }

    /// Puts the key of the next object field, interning it on first use.
    pub fn key(&mut self, key: &'k str) {
        let next = self.keys.len() as u64;
        let i = *self.index.entry(key).or_insert(next);
        if i == next {
            self.keys.push(key);
        }
        put_varint(&mut self.body, i);
    }

    /// Puts one [`JsonValue`], whole.
    fn value(&mut self, v: &'k JsonValue) {
        match v {
            JsonValue::Null => self.null(),
            JsonValue::Bool(b) => self.bool(*b),
            JsonValue::UInt(n) => self.u64(*n),
            JsonValue::Int(n) => self.i64(*n),
            JsonValue::Float(f) => self.f64(*f),
            JsonValue::Str(s) => self.str(s),
            JsonValue::Array(items) => {
                self.array(items.len());
                for item in items {
                    self.value(item);
                }
            }
            JsonValue::Object(fields) => {
                self.object(fields.len());
                for (k, item) in fields {
                    self.key(k);
                    self.value(item);
                }
            }
        }
    }
}

/// Writes one whole document: opens a [`Writer`], lets `root` put the
/// root value, then seals the header, key table, body and checksum.
pub fn write<'k>(root: impl FnOnce(&mut Writer<'k>)) -> Vec<u8> {
    let mut w = Writer { body: Vec::with_capacity(1024), keys: Vec::new(), index: HashMap::new() };
    root(&mut w);
    // Capacity only: a key's length varint is one or two bytes in practice.
    let table: usize = w.keys.iter().map(|k| k.len() + 2).sum();
    let mut out = Vec::with_capacity(MAGIC.len() + 1 + 10 + table + w.body.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    put_varint(&mut out, w.keys.len() as u64);
    for k in &w.keys {
        put_varint(&mut out, k.len() as u64);
        out.extend_from_slice(k.as_bytes());
    }
    out.extend_from_slice(&w.body);
    let check = fnv1a64(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Encodes `v` as one binary document (header, interned key table, value,
/// trailing checksum). Deterministic: equal values yield identical bytes.
pub fn encode(v: &JsonValue) -> Vec<u8> {
    write(|w| w.value(v))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A borrowed, typed reader over one binary document — the only walker
/// of the grammar. [`read`] opens one: it checks the magic, the checksum, the
/// version and the key table (keys stay `&str` slices of the input);
/// the typed pulls then consume one value each. A pull that meets the
/// wrong tag is an error, so a caller decoding straight into its own
/// types needs no intermediate [`JsonValue`] tree; [`Cursor::skip`]
/// validates a value it does not want exactly as [`decode`] would.
/// Never panics on any input; nesting past the depth guard is an error.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    keys: Vec<&'a str>,
}

/// One value's head: a whole scalar, or a container's element count.
enum Head<'a> {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(&'a str),
    Array(usize),
    Object(usize),
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> BinaryError {
        BinaryError { pos: self.pos, message: message.into() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinaryError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.err(format!("truncated: {n} byte(s) expected")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, BinaryError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, BinaryError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let low = (b & 0x7f) as u64;
            if shift == 63 && low > 1 {
                return Err(self.err("varint overflows u64"));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("varint longer than 10 bytes"))
    }

    /// A varint validated against the remaining byte count, so a forged
    /// huge length cannot drive a with_capacity allocation.
    fn len(&mut self, what: &str) -> Result<usize, BinaryError> {
        let n = self.varint()?;
        if n > (self.bytes.len() - self.pos) as u64 {
            return Err(self.err(format!("{what} length {n} exceeds the document")));
        }
        Ok(n as usize)
    }

    fn string(&mut self, what: &str) -> Result<&'a str, BinaryError> {
        let n = self.len(what)?;
        let pos = self.pos;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|e| BinaryError {
            pos: pos + e.valid_up_to(),
            message: format!("{what} is not UTF-8"),
        })
    }

    /// Reads the next value's tag and, for a scalar, its payload; for a
    /// container, its element count.
    fn head(&mut self) -> Result<Head<'a>, BinaryError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(match self.byte()? {
            TAG_NULL => Head::Null,
            TAG_FALSE => Head::Bool(false),
            TAG_TRUE => Head::Bool(true),
            TAG_UINT => Head::UInt(self.varint()?),
            TAG_INT => Head::Int(unzigzag(self.varint()?)),
            TAG_FLOAT => {
                let b = self.take(8)?;
                Head::Float(f64::from_bits(u64::from_le_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ])))
            }
            TAG_STR => Head::Str(self.string("string")?),
            TAG_ARRAY => Head::Array(self.len("array")?),
            TAG_OBJECT => Head::Object(self.len("object")?),
            tag => return Err(self.err(format!("unknown value tag {tag:#04x}"))),
        })
    }

    /// Runs `body` over `n` elements one nesting level down.
    fn elements<T>(
        &mut self,
        n: usize,
        mut body: impl FnMut(&mut Self) -> Result<T, BinaryError>,
    ) -> Result<Vec<T>, BinaryError> {
        self.depth += 1;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(body(self)?);
        }
        self.depth -= 1;
        Ok(items)
    }

    fn key(&mut self) -> Result<&'a str, BinaryError> {
        let i = self.varint()?;
        match self.keys.get(i as usize) {
            Some(&key) => Ok(key),
            None => Err(self.err(format!("key index {i} out of table"))),
        }
    }

    /// Pulls an object, calling `field` with each key in document order;
    /// `field` must consume exactly that field's value.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &'a str) -> Result<(), BinaryError>,
    ) -> Result<(), BinaryError> {
        match self.head()? {
            Head::Object(n) => {
                self.elements(n, |c| c.key().and_then(|key| field(c, key))).map(drop)
            }
            _ => Err(self.err("expected an object")),
        }
    }

    /// Pulls an array, calling `item` once per element; `item` must
    /// consume exactly that element.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), BinaryError>,
    ) -> Result<(), BinaryError> {
        match self.head()? {
            Head::Array(n) => self.elements(n, item).map(drop),
            _ => Err(self.err("expected an array")),
        }
    }

    /// Pulls a non-negative integer.
    pub fn u64(&mut self) -> Result<u64, BinaryError> {
        match self.head()? {
            Head::UInt(v) => Ok(v),
            _ => Err(self.err("expected an unsigned integer")),
        }
    }

    /// Pulls a number the way [`JsonValue::as_f64`] reads one: floats
    /// verbatim, integers widened, `null` as NaN.
    pub fn f64(&mut self) -> Result<f64, BinaryError> {
        match self.head()? {
            Head::Float(v) => Ok(v),
            Head::UInt(v) => Ok(v as f64),
            Head::Int(v) => Ok(v as f64),
            Head::Null => Ok(f64::NAN),
            _ => Err(self.err("expected a number")),
        }
    }

    /// Pulls a string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, BinaryError> {
        match self.head()? {
            Head::Str(s) => Ok(s),
            _ => Err(self.err("expected a string")),
        }
    }

    /// Pulls a string or `null` (`None`).
    pub fn opt_str(&mut self) -> Result<Option<&'a str>, BinaryError> {
        match self.head()? {
            Head::Str(s) => Ok(Some(s)),
            Head::Null => Ok(None),
            _ => Err(self.err("expected a string or null")),
        }
    }

    /// Consumes one value of any shape, validating it as [`decode`] does.
    pub fn skip(&mut self) -> Result<(), BinaryError> {
        match self.head()? {
            Head::Array(n) => self.elements(n, Cursor::skip).map(drop),
            Head::Object(n) => self.elements(n, |c| c.key().and_then(|_| c.skip())).map(drop),
            _ => Ok(()),
        }
    }

    /// Pulls one value of any shape as a [`JsonValue`] tree.
    fn value(&mut self) -> Result<JsonValue, BinaryError> {
        Ok(match self.head()? {
            Head::Null => JsonValue::Null,
            Head::Bool(b) => JsonValue::Bool(b),
            Head::UInt(v) => JsonValue::UInt(v),
            Head::Int(v) => JsonValue::Int(v),
            Head::Float(v) => JsonValue::Float(v),
            Head::Str(s) => JsonValue::Str(s.to_string()),
            Head::Array(n) => JsonValue::Array(self.elements(n, Cursor::value)?),
            Head::Object(n) => {
                JsonValue::Object(self.elements(n, |c| Ok((c.key()?.to_string(), c.value()?)))?)
            }
        })
    }
}

/// Reads one whole document: opens a [`Cursor`], lets `root` consume the
/// root value, and checks nothing trails it.
pub fn read<'a, T>(
    bytes: &'a [u8],
    root: impl FnOnce(&mut Cursor<'a>) -> Result<T, BinaryError>,
) -> Result<T, BinaryError> {
    if !is_binary(bytes) {
        return Err(BinaryError { pos: 0, message: "missing binary-document magic".into() });
    }
    let Some((body, tail)) = bytes.split_last_chunk::<8>().filter(|(b, _)| b.len() > MAGIC.len())
    else {
        return Err(BinaryError { pos: bytes.len(), message: "truncated header".into() });
    };
    let (stored, computed) = (u64::from_le_bytes(*tail), fnv1a64(body));
    if stored != computed {
        return Err(BinaryError {
            pos: body.len(),
            message: format!("checksum mismatch (stored {stored:016x}, computed {computed:016x})"),
        });
    }
    let mut c = Cursor { bytes: body, pos: MAGIC.len(), depth: 0, keys: Vec::new() };
    let version = c.byte()?;
    if version != VERSION {
        return Err(c.err(format!("unsupported version {version} (expected {VERSION})")));
    }
    let key_count = c.len("key table")?;
    c.keys = c.elements(key_count, |c| c.string("key"))?;
    let value = root(&mut c)?;
    if c.pos != body.len() {
        return Err(c.err(format!("{} trailing byte(s) after the value", body.len() - c.pos)));
    }
    Ok(value)
}

/// Decodes one binary document. Total: any byte string either decodes or
/// returns a typed [`BinaryError`] — never a panic — and the checksum is
/// verified before structural decoding, so corruption is caught up front.
pub fn decode(bytes: &[u8]) -> Result<JsonValue, BinaryError> {
    read(bytes, Cursor::value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonValue {
        JsonValue::object(vec![
            ("name", JsonValue::Str("system".into())),
            (
                "counters",
                JsonValue::object(vec![
                    ("cycles", JsonValue::UInt(123_456)),
                    ("instret", JsonValue::UInt(0)),
                ]),
            ),
            ("neg", JsonValue::Int(-42)),
            ("f", JsonValue::Float(2.5)),
            ("flag", JsonValue::Bool(true)),
            ("nothing", JsonValue::Null),
            (
                "children",
                JsonValue::Array(vec![JsonValue::object(vec![
                    ("name", JsonValue::Str("lpsu".into())),
                    ("counters", JsonValue::object(vec![("cycles", JsonValue::UInt(7))])),
                ])]),
            ),
        ])
    }

    #[test]
    fn round_trips_exactly() {
        let v = sample();
        let bytes = encode(&v);
        assert!(is_binary(&bytes));
        assert_eq!(decode(&bytes).unwrap(), v);
        // Deterministic: re-encoding the decoded value is byte-identical.
        assert_eq!(encode(&decode(&bytes).unwrap()), bytes);
    }

    #[test]
    fn interned_keys_make_repetition_cheap() {
        // 64 objects sharing the same keys: the names are stored once, so
        // the binary form undercuts even compact (non-pretty) JSON.
        let row = JsonValue::object(vec![
            ("a_rather_long_counter_name", JsonValue::UInt(1)),
            ("another_long_counter_name", JsonValue::UInt(2)),
        ]);
        let doc = JsonValue::Array(vec![row; 64]);
        let bytes = encode(&doc);
        assert!(
            bytes.len() * 3 <= doc.render().len(),
            "binary {} vs compact JSON {}",
            bytes.len(),
            doc.render().len()
        );
    }

    #[test]
    fn floats_survive_bit_exactly() {
        for f in [0.0, -0.0, 2.5, f64::NAN, f64::INFINITY, f64::from_bits(0x7ff8_dead_beef_0001)] {
            let v = JsonValue::Float(f);
            match decode(&encode(&v)).unwrap() {
                JsonValue::Float(back) => assert_eq!(back.to_bits(), f.to_bits()),
                other => panic!("expected a float, got {other:?}"),
            }
        }
    }

    #[test]
    fn zigzag_covers_the_i64_domain() {
        for v in [0, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn corruption_is_a_typed_error_not_a_panic() {
        let good = encode(&sample());
        // Truncations at every length.
        for n in 0..good.len() {
            assert!(decode(&good[..n]).is_err(), "truncation to {n} bytes must fail");
        }
        // A single flipped bit anywhere breaks the checksum (or the magic).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "bit flip at byte {i} must fail");
        }
        // Garbage that happens to carry the magic still fails cleanly.
        let mut soup = MAGIC.to_vec();
        soup.extend_from_slice(&[VERSION, 0xff, 0xff, 0xff, 0xff]);
        assert!(decode(&soup).is_err());
    }

    #[test]
    fn typed_pulls_share_the_decoders_guards() {
        // The depth guard: 127 nested arrays hold a scalar, 128 do not,
        // whether the walk builds a tree or skips.
        for (depth, ok) in [(127, true), (128, false)] {
            let mut v = JsonValue::Null;
            for _ in 0..depth {
                v = JsonValue::Array(vec![v]);
            }
            let bytes = encode(&v);
            assert_eq!(decode(&bytes).is_ok(), ok, "decode at depth {depth}");
            assert_eq!(read(&bytes, Cursor::skip).is_ok(), ok, "skip at depth {depth}");
        }
        // A pull of the wrong type fails; the right one reads through.
        let bytes = encode(&sample());
        let name = read(&bytes, |c| {
            let mut name = None;
            c.object(|c, key| match key {
                "name" => c.str().map(|s| name = Some(s)),
                "neg" | "f" => c.f64().map(drop),
                _ => c.skip(),
            })?;
            Ok(name)
        });
        assert_eq!(name, Ok(Some("system")));
        assert!(read(&bytes, |c| c.array(Cursor::skip)).is_err());
        assert!(read(&bytes, Cursor::u64).is_err());
        // A reader that stops short of the root's end trips the
        // trailing-bytes check.
        let e = read(&encode(&JsonValue::Array(vec![JsonValue::Null])), |_| Ok(())).unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn json_text_is_never_mistaken_for_binary() {
        assert!(!is_binary(b"{\"name\":\"system\"}"));
        assert!(!is_binary(b""));
        assert!(!is_binary(b"\xd8XL"));
        assert!(decode(b"{\"name\":\"system\"}").is_err());
    }

    #[test]
    fn version_and_trailing_bytes_are_checked() {
        let v = sample();
        let mut bumped = encode(&v);
        bumped[4] = 2; // forge version 2
        let len = bumped.len();
        let check = fnv1a64(&bumped[..len - 8]).to_le_bytes();
        bumped[len - 8..].copy_from_slice(&check); // keep the checksum valid
        let e = decode(&bumped).unwrap_err();
        assert!(e.message.contains("unsupported version"), "{e}");

        let mut padded = encode(&v);
        let body_len = padded.len() - 8;
        padded.truncate(body_len);
        padded.push(TAG_NULL); // an extra value after the root
        let check = fnv1a64(&padded).to_le_bytes();
        padded.extend_from_slice(&check);
        let e = decode(&padded).unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }
}
