//! # xloops-stats
//!
//! The unified statistics schema shared by every timing model.
//!
//! The three engines (functional interpreter, GPP, LPSU) each keep their
//! own flat counter structs while simulating — those stay cheap to bump in
//! the hot loop. At reporting time each struct converts itself into a
//! [`StatSet`]: a named node holding ordered integer counters, derived
//! floating-point metrics, and child nodes. Every consumer — the CLI
//! report, the `--stats json` emitter, the energy model's event audit, and
//! the benchmark report generators — reads the same tree through the same
//! dotted-path [`StatSet::lookup`] interface, so a counter has exactly one
//! name everywhere it appears.
//!
//! Determinism: counters, metrics, and children preserve insertion order,
//! so the JSON rendering of a given run is byte-stable.

pub mod binary;
pub mod json;
pub mod names;

use std::collections::HashMap;

pub use binary::BinaryError;
pub use json::{JsonError, JsonValue};
use names::{intern, Name};

/// A value retrieved from a [`StatSet`] by [`StatSet::lookup`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StatValue {
    /// An integer event counter.
    Counter(u64),
    /// A derived floating-point metric (rates, ratios, energies).
    Metric(f64),
}

impl StatValue {
    /// The value as `u64`, if it is a counter.
    pub fn as_counter(self) -> Option<u64> {
        match self {
            StatValue::Counter(v) => Some(v),
            StatValue::Metric(_) => None,
        }
    }

    /// The value as `f64`; counters are widened losslessly enough for
    /// reporting purposes.
    pub fn as_f64(self) -> f64 {
        match self {
            StatValue::Counter(v) => v as f64,
            StatValue::Metric(v) => v,
        }
    }
}

/// A named, ordered, hierarchical set of statistics.
///
/// Leaves are either integer `counters` (raw event counts) or floating
/// point `metrics` (derived rates and energies); interior structure comes
/// from named `children`. Names within one node are unique per kind —
/// [`StatSet::set`] and [`StatSet::set_metric`] overwrite in place,
/// preserving the original position so output order is deterministic.
/// Names are interned against the schema table ([`names`]), so a tree of
/// schema names holds no heap string.
#[derive(Clone, Debug, PartialEq)]
pub struct StatSet {
    name: Name,
    counters: Vec<(Name, u64)>,
    metrics: Vec<(Name, f64)>,
    children: Vec<StatSet>,
}

impl Default for StatSet {
    /// An unnamed empty set. The empty name is not a schema name, so it
    /// is owned (an empty `String` does not allocate).
    fn default() -> StatSet {
        StatSet {
            name: Name::Owned(String::new()),
            counters: vec![],
            metrics: vec![],
            children: vec![],
        }
    }
}

impl StatSet {
    /// An empty set with the given node name.
    pub fn new(name: &str) -> StatSet {
        StatSet { name: intern(name), ..StatSet::default() }
    }

    /// This node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets counter `name` to `value`, inserting it at the end if new.
    pub fn set(&mut self, name: &str, value: u64) -> &mut StatSet {
        let name = intern(name);
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.counters.push((name, value)),
        }
        self
    }

    /// Sets metric `name` to `value`, inserting it at the end if new.
    pub fn set_metric(&mut self, name: &str, value: f64) -> &mut StatSet {
        let name = intern(name);
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name, value)),
        }
        self
    }

    /// Adds `delta` to counter `name` (creating it at zero first).
    pub fn add(&mut self, name: &str, delta: u64) -> &mut StatSet {
        let name = intern(name);
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
        self
    }

    /// Appends a child node (replacing any existing child of the same name).
    pub fn push_child(&mut self, child: StatSet) -> &mut StatSet {
        match self.children.iter_mut().find(|c| c.name == child.name) {
            Some(slot) => *slot = child,
            None => self.children.push(child),
        }
        self
    }

    /// The child named `name`, if present.
    pub fn child(&self, name: &str) -> Option<&StatSet> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Mutable access to the child named `name`, if present. Lets callers
    /// graft late-arriving nodes (e.g. the result store's `profile.store`
    /// counters) into an existing tree without rebuilding it.
    pub fn child_mut(&mut self, name: &str) -> Option<&mut StatSet> {
        self.children.iter_mut().find(|c| c.name == name)
    }

    /// The counter named `name` in this node, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The metric named `name` in this node, if present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Iterates this node's counters in insertion order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_ref(), *v))
    }

    /// Iterates this node's metrics in insertion order.
    pub fn metrics(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics.iter().map(|(n, v)| (n.as_ref(), *v))
    }

    /// Iterates this node's children in insertion order.
    pub fn children(&self) -> impl Iterator<Item = &StatSet> {
        self.children.iter()
    }

    /// Resolves a dotted path like `"lpsu.stalls.raw"`: every segment but
    /// the last names a child; the last names a counter (checked first) or
    /// a metric of the final node.
    pub fn lookup(&self, path: &str) -> Option<StatValue> {
        let mut node = self;
        let mut parts = path.split('.').peekable();
        while let Some(part) = parts.next() {
            if parts.peek().is_none() {
                return node
                    .counter(part)
                    .map(StatValue::Counter)
                    .or_else(|| node.metric(part).map(StatValue::Metric));
            }
            node = node.child(part)?;
        }
        None
    }

    /// Merges `other` into `self`: counters add, metrics overwrite, and
    /// children merge recursively by name. Used to accumulate per-run
    /// trees into aggregate reports.
    pub fn merge(&mut self, other: &StatSet) {
        for (name, v) in &other.counters {
            self.add(name, *v);
        }
        for (name, v) in &other.metrics {
            self.set_metric(name, *v);
        }
        for child in &other.children {
            match self.children.iter_mut().find(|c| c.name == child.name) {
                Some(mine) => mine.merge(child),
                None => self.children.push(child.clone()),
            }
        }
    }

    /// Renders the tree as a JSON object:
    /// `{"name": ..., "counters": {...}, "metrics": {...}, "children": [...]}`.
    ///
    /// Deterministic: key order is insertion order. Non-finite metrics
    /// render as `null`, since JSON has no NaN/Infinity literals. Shared
    /// with every other JSON document the workspace emits via
    /// [`StatSet::to_json_value`] and the [`json`] writer (the workspace
    /// carries no serialization dependency).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The tree as a generic [`JsonValue`] document, for embedding stat
    /// trees inside larger documents (shard results, bench summaries).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", JsonValue::Str(self.name.to_string())),
            (
                "counters",
                JsonValue::Object(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.to_string(), JsonValue::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "metrics",
                JsonValue::Object(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.to_string(), JsonValue::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "children",
                JsonValue::Array(self.children.iter().map(StatSet::to_json_value).collect()),
            ),
        ])
    }

    /// Parses a [`StatSet::to_json`] document back into a tree — the
    /// inverse of the encode side, up to non-finite metrics (encoded as
    /// `null`, parsed back as NaN). `encode(parse(encode(x)))` is always
    /// byte-identical to `encode(x)`.
    pub fn from_json(text: &str) -> Result<StatSet, JsonError> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// The tree as one [`binary`] document — the compact wire form the
    /// durable result store writes. Deterministic: equal trees encode to
    /// identical bytes, the bytes of `binary::encode(&self.to_json_value())`.
    pub fn to_binary(&self) -> Vec<u8> {
        binary::write(|w| self.write(w))
    }

    /// Writes this node as the value [`StatSet::to_json_value`] would
    /// hold, straight into a [`binary::Writer`] — the write half of
    /// [`StatSet::from_cursor`].
    pub fn write<'a>(&'a self, w: &mut binary::Writer<'a>) {
        w.object(4);
        w.key("name");
        w.str(&self.name);
        w.key("counters");
        w.object(self.counters.len());
        for (n, v) in &self.counters {
            w.key(n);
            w.u64(*v);
        }
        w.key("metrics");
        w.object(self.metrics.len());
        for (n, v) in &self.metrics {
            w.key(n);
            w.f64(*v);
        }
        w.key("children");
        w.array(self.children.len());
        for child in &self.children {
            child.write(w);
        }
    }

    /// Decodes a [`StatSet::to_binary`] document. Exact inverse: unlike
    /// the JSON text path, non-finite metrics survive bit-for-bit.
    pub fn from_binary(bytes: &[u8]) -> Result<StatSet, BinaryError> {
        binary::read(bytes, StatSet::from_cursor)
    }

    /// Reads one stat node straight off a [`binary::Cursor`], with no
    /// [`JsonValue`] in between. Accepts and rejects exactly what
    /// [`StatSet::from_json_value`] does on the decoded value: the first
    /// of duplicate fields wins, and later duplicates and unknown fields
    /// are validated, then ignored.
    pub fn from_cursor(c: &mut binary::Cursor<'_>) -> Result<StatSet, BinaryError> {
        const FIELDS: [&str; 4] = ["name", "counters", "metrics", "children"];
        let mut set = StatSet::default();
        let mut seen = [false; 4];
        c.object(|c, key| {
            let Some(i) = FIELDS.iter().position(|&k| k == key).filter(|&i| !seen[i]) else {
                return c.skip();
            };
            seen[i] = true;
            match i {
                0 => set.name = intern(c.str()?),
                1 => c.object(|c, n| c.u64().map(|v| set.counters.push((intern(n), v))))?,
                2 => c.object(|c, n| c.f64().map(|v| set.metrics.push((intern(n), v))))?,
                _ => c.array(|c| StatSet::from_cursor(c).map(|k| set.children.push(k)))?,
            }
            Ok(())
        })?;
        match seen.iter().position(|s| !s) {
            Some(i) => Err(BinaryError {
                pos: 0,
                message: format!("stat node is missing `{}`", FIELDS[i]),
            }),
            None => Ok(set.fold_duplicates()),
        }
    }

    /// [`StatSet::from_json`] on an already-parsed [`JsonValue`].
    pub fn from_json_value(v: &JsonValue) -> Result<StatSet, JsonError> {
        let field = |key: &str| {
            v.get(key).ok_or_else(|| JsonError {
                pos: 0,
                message: format!("stat node is missing `{key}`"),
            })
        };
        let bad = |what: &str| JsonError { pos: 0, message: format!("stat node: {what}") };
        let name = field("name")?.as_str().ok_or_else(|| bad("`name` must be a string"))?;
        let mut set = StatSet::new(name);
        for (n, cv) in
            field("counters")?.as_object().ok_or_else(|| bad("`counters` must be an object"))?
        {
            let value = cv
                .as_u64()
                .ok_or_else(|| bad(&format!("counter `{n}` must be an unsigned integer")))?;
            set.counters.push((intern(n), value));
        }
        for (n, mv) in
            field("metrics")?.as_object().ok_or_else(|| bad("`metrics` must be an object"))?
        {
            let value =
                mv.as_f64().ok_or_else(|| bad(&format!("metric `{n}` must be a number")))?;
            set.metrics.push((intern(n), value));
        }
        for child in
            field("children")?.as_array().ok_or_else(|| bad("`children` must be an array"))?
        {
            set.children.push(StatSet::from_json_value(child)?);
        }
        Ok(set.fold_duplicates())
    }

    /// A decoded node as [`StatSet::set`], [`StatSet::set_metric`] and
    /// [`StatSet::push_child`] would have built it from the same entries
    /// in order: a later duplicate's value replaces the first one's, in
    /// the first one's position.
    fn fold_duplicates(mut self) -> StatSet {
        fold(&mut self.counters, |(n, _)| n);
        fold(&mut self.metrics, |(n, _)| n);
        fold(&mut self.children, |c| &c.name);
        self
    }
}

/// Nodes with more entries of one kind than this find duplicates through
/// a hash index; smaller ones compare names pairwise. Sixteen is where the
/// two cost the same on owned names that share a prefix (about 0.4 µs);
/// on schema names pairwise stays cheaper to about 60 entries. Every node
/// the simulators write has at most 14 entries, and building an index for
/// each of them made a warm regeneration 28% slower (EXPERIMENTS.md).
const SCAN_LIMIT: usize = 16;

/// Folds every entry of `list` named like an earlier one into that
/// earlier one's slot (see [`StatSet::fold_duplicates`]). Linear in the
/// list's length, so a hostile node with many names costs no more than
/// it weighs: a short list is at most [`SCAN_LIMIT`] entries compared
/// pairwise, a long one goes through a hash index.
fn fold<T>(list: &mut Vec<T>, name: impl Fn(&T) -> &Name) {
    let n = list.len();
    let firsts: Vec<usize> = if n <= SCAN_LIMIT {
        let first = |i: usize| (0..i).find(|&j| name(&list[j]) == name(&list[i])).unwrap_or(i);
        let Some(repeat) = (1..n).find(|&i| first(i) != i) else {
            return;
        };
        (0..repeat).chain((repeat..n).map(first)).collect()
    } else {
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(n);
        (0..n).map(|i| *index.entry(name(&list[i])).or_insert(i)).collect()
    };
    for (i, &first) in firsts.iter().enumerate() {
        if first != i {
            list.swap(first, i);
        }
    }
    let mut i = 0;
    list.retain(|_| {
        i += 1;
        firsts[i - 1] == i - 1
    });
}

/// `num / den` with the zero-denominator case defined as 0.0, so rate
/// metrics of empty or zero-cycle runs stay finite.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatSet {
        let mut root = StatSet::new("system");
        root.set("cycles", 100).set("instret", 250);
        root.set_metric("ipc", 2.5);
        let mut lpsu = StatSet::new("lpsu");
        lpsu.set("exec", 40);
        let mut stalls = StatSet::new("stalls");
        stalls.set("raw", 7).set("lsq", 3);
        lpsu.push_child(stalls);
        root.push_child(lpsu);
        root
    }

    #[test]
    fn set_overwrites_in_place_and_add_accumulates() {
        let mut s = StatSet::new("n");
        s.set("a", 1).set("b", 2).set("a", 9);
        assert_eq!(s.counters().collect::<Vec<_>>(), vec![("a", 9), ("b", 2)]);
        s.add("b", 5).add("c", 1);
        assert_eq!(s.counter("b"), Some(7));
        assert_eq!(s.counter("c"), Some(1));
        s.set_metric("m", 1.0).set_metric("m", 2.0);
        assert_eq!(s.metric("m"), Some(2.0));
    }

    #[test]
    fn lookup_resolves_dotted_paths() {
        let s = sample();
        assert_eq!(s.lookup("cycles"), Some(StatValue::Counter(100)));
        assert_eq!(s.lookup("ipc"), Some(StatValue::Metric(2.5)));
        assert_eq!(s.lookup("lpsu.exec"), Some(StatValue::Counter(40)));
        assert_eq!(s.lookup("lpsu.stalls.raw"), Some(StatValue::Counter(7)));
        assert_eq!(s.lookup("lpsu.stalls.missing"), None);
        assert_eq!(s.lookup("nope.raw"), None);
        assert_eq!(s.lookup("lpsu.stalls.raw").unwrap().as_counter(), Some(7));
        assert_eq!(s.lookup("ipc").unwrap().as_f64(), 2.5);
    }

    #[test]
    fn merge_adds_counters_and_recurses() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.lookup("cycles"), Some(StatValue::Counter(200)));
        assert_eq!(a.lookup("ipc"), Some(StatValue::Metric(2.5))); // overwritten
        assert_eq!(a.lookup("lpsu.stalls.lsq"), Some(StatValue::Counter(6)));
        // A child only `b` has is cloned in.
        let mut c = StatSet::new("system");
        c.push_child(StatSet::new("extra"));
        a.merge(&c);
        assert!(a.child("extra").is_some());
    }

    #[test]
    fn json_is_deterministic_and_escapes() {
        let s = sample();
        let json = s.to_json();
        assert_eq!(
            json,
            "{\"name\":\"system\",\"counters\":{\"cycles\":100,\"instret\":250},\
             \"metrics\":{\"ipc\":2.5},\"children\":[{\"name\":\"lpsu\",\
             \"counters\":{\"exec\":40},\"metrics\":{},\"children\":[\
             {\"name\":\"stalls\",\"counters\":{\"raw\":7,\"lsq\":3},\
             \"metrics\":{},\"children\":[]}]}]}"
        );
        let mut weird = StatSet::new("a\"b\\c\n");
        weird.set_metric("nan", f64::NAN).set_metric("inf", f64::INFINITY);
        assert_eq!(
            weird.to_json(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"counters\":{},\
             \"metrics\":{\"nan\":null,\"inf\":null},\"children\":[]}"
        );
    }

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(10, 4), 2.5);
        assert_eq!(ratio(10, 0), 0.0);
        assert_eq!(ratio(0, 0), 0.0);
    }

    #[test]
    fn push_child_replaces_same_name() {
        let mut s = StatSet::new("root");
        let mut c1 = StatSet::new("x");
        c1.set("v", 1);
        s.push_child(c1);
        let mut c2 = StatSet::new("x");
        c2.set("v", 2);
        s.push_child(c2);
        assert_eq!(s.children().count(), 1);
        assert_eq!(s.lookup("x.v"), Some(StatValue::Counter(2)));
    }
}
