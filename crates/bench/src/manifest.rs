//! Declarative experiment manifests: every figure/table as pure data.
//!
//! An [`ExperimentSpec`] fully describes one paper artifact without any
//! code: a deduplicated list of simulation points (kernel, system
//! configuration, execution mode, GP-lowering flag) plus a rendering
//! description (captions, section structure, and [`Cell`] formulas that
//! reference points by index). The scheduler runs a spec's points and
//! one generic renderer, [`render_spec`], turns the results into the
//! artifact; the `src/bin/*` wrappers just construct a spec and hand it
//! over, and the rendered text is byte-identical to the historical
//! `results/*.txt` files.
//!
//! Because a spec is data, it travels: [`ExperimentSpec::to_json`] /
//! [`ExperimentSpec::from_json`] round-trip through the deterministic
//! JSON layer of `xloops-stats`, and [`run_shard`] executes the
//! deterministic slice `index % of == shard` of a spec's points on one
//! machine, emitting a [`ShardDoc`] (spec + fingerprint + the
//! [`RunOptions`] that produced it + per-point stat trees). [`merge`]
//! recombines shard documents — after validating that they belong to the
//! same manifest — into exactly the table an unsharded run would have
//! printed.
//!
//! Determinism argument: the simulator is deterministic per point, the
//! point list is part of the spec (fixed order), the shard partition is a
//! pure function of (index, of), and every renderer consumes only the
//! per-point [`StatSet`] trees — so `sweep`-then-`merge` over any shard
//! count is byte-identical to a local run. See `DESIGN.md` §4.7.

use std::collections::HashMap;
use std::fmt;

use xloops_energy::EnergyTable;
use xloops_kernels::by_name;
use xloops_lpsu::LpsuConfig;
use xloops_sim::{ExecMode, RunOptions, SampleSpec, SystemConfig};
use xloops_stats::{binary, BinaryError, JsonError, JsonValue, StatSet, StatValue};

use crate::{f2, RunResult, TextTable};

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

/// The GPP half of a point's system configuration, by preset name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GppPreset {
    /// In-order scalar (`io`).
    Io,
    /// Two-way out-of-order (`ooo/2`).
    Ooo2,
    /// Four-way out-of-order (`ooo/4`).
    Ooo4,
}

impl GppPreset {
    fn tag(self) -> &'static str {
        match self {
            GppPreset::Io => "io",
            GppPreset::Ooo2 => "ooo2",
            GppPreset::Ooo4 => "ooo4",
        }
    }

    fn from_tag(tag: &str) -> Option<GppPreset> {
        match tag {
            "io" => Some(GppPreset::Io),
            "ooo2" => Some(GppPreset::Ooo2),
            "ooo4" => Some(GppPreset::Ooo4),
            _ => None,
        }
    }
}

/// Which energy table a point simulates under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EnergyPreset {
    /// The GPP-matched McPAT-45 table (the default every preset uses).
    #[default]
    Mcpat45,
    /// The 40nm-class VLSI table of the Figure 10 study.
    Vlsi40,
}

impl EnergyPreset {
    fn tag(self) -> &'static str {
        match self {
            EnergyPreset::Mcpat45 => "mcpat45",
            EnergyPreset::Vlsi40 => "vlsi40",
        }
    }

    fn from_tag(tag: &str) -> Option<EnergyPreset> {
        match tag {
            "mcpat45" => Some(EnergyPreset::Mcpat45),
            "vlsi40" => Some(EnergyPreset::Vlsi40),
            _ => None,
        }
    }
}

/// A point's full system configuration as declarative data; resolves to a
/// concrete [`SystemConfig`] via [`ConfigSpec::resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConfigSpec {
    /// GPP preset.
    pub gpp: GppPreset,
    /// LPSU parameters, or `None` for a GPP-only system.
    pub lpsu: Option<LpsuConfig>,
    /// Energy table.
    pub energy: EnergyPreset,
}

impl ConfigSpec {
    /// The concrete configuration this spec denotes.
    pub fn resolve(&self) -> SystemConfig {
        let mut cfg = match self.gpp {
            GppPreset::Io => SystemConfig::io(),
            GppPreset::Ooo2 => SystemConfig::ooo2(),
            GppPreset::Ooo4 => SystemConfig::ooo4(),
        };
        if let Some(lpsu) = self.lpsu {
            cfg = cfg.with_lpsu(lpsu);
        }
        if self.energy == EnergyPreset::Vlsi40 {
            cfg = cfg.with_energy(EnergyTable::vlsi40());
        }
        cfg
    }

    /// Whether the GPP is out-of-order (selects energy-event accounting).
    pub fn is_ooo(&self) -> bool {
        self.gpp != GppPreset::Io
    }
}

/// One simulation point of a spec: everything the runner needs to produce
/// a [`RunResult`], and nothing it has to look up elsewhere.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SpecPoint {
    /// Kernel name (resolvable via [`xloops_kernels::by_name`]).
    pub kernel: String,
    /// System configuration.
    pub config: ConfigSpec,
    /// Execution mode.
    pub mode: ExecMode,
    /// Whether the program is first lowered to the GP ISA (baselines).
    pub gp_lowered: bool,
    /// Interval-sampled simulation for this point (`None` = every cycle in
    /// detail). Encoded in JSON only when set, so manifests written before
    /// sampling existed keep their fingerprints byte-for-byte.
    pub sampling: Option<SampleSpec>,
}

/// A cell formula: how one table cell is computed from point results.
/// Indices refer to [`ExperimentSpec::points`].
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A literal string (kernel names, suite tags, analytical-model rows).
    Text(String),
    /// `base.cycles / run.cycles`, two decimals.
    Speedup {
        /// Baseline point index.
        base: usize,
        /// Measured point index.
        run: usize,
    },
    /// `base.energy / run.energy`, two decimals.
    EnergyEff {
        /// Baseline point index.
        base: usize,
        /// Measured point index.
        run: usize,
    },
    /// `num.counter(path) / den.counter(path)`, two decimals.
    Ratio {
        /// Numerator point index.
        num: usize,
        /// Denominator point index.
        den: usize,
        /// Dotted counter path into the point's stat tree.
        path: String,
    },
    /// The point's `instret` in the paper's `N.NM` / `NK` notation.
    Insns {
        /// Point index.
        point: usize,
    },
    /// A raw counter, printed in decimal.
    Counter {
        /// Point index.
        point: usize,
        /// Dotted counter path.
        path: String,
    },
    /// `100 * counter(path) / counter(total)`, one decimal.
    Pct {
        /// Point index.
        point: usize,
        /// Dotted counter path of the numerator.
        path: String,
        /// Dotted counter path of the denominator.
        total: String,
    },
    /// `nonzero` if the counter is positive, else `zero`.
    Choice {
        /// Point index.
        point: usize,
        /// Dotted counter path.
        path: String,
        /// Text when the counter is positive.
        nonzero: String,
        /// Text when the counter is zero.
        zero: String,
    },
}

/// One ASCII bar: `label` padded to 14, the speedup to two decimals, and
/// a `#` bar of `round(10 * speedup)` capped at 60 (the Figure 5 format).
#[derive(Clone, Debug, PartialEq)]
pub struct BarRow {
    /// Row label (kernel name).
    pub label: String,
    /// Baseline point index.
    pub base: usize,
    /// Measured point index.
    pub run: usize,
}

/// The renderable payload of a [`Section`].
#[derive(Clone, Debug, PartialEq)]
pub enum SectionBody {
    /// An aligned [`TextTable`] of cell formulas.
    Table {
        /// Column headers.
        header: Vec<String>,
        /// Rows of cell formulas (each as wide as the header).
        rows: Vec<Vec<Cell>>,
    },
    /// Figure 5-style bar lines.
    Bars {
        /// One bar per row.
        rows: Vec<BarRow>,
    },
}

/// One section of an artifact: literal text before and after a body.
#[derive(Clone, Debug, PartialEq)]
pub struct Section {
    /// Literal text emitted before the body (e.g. `"--- vs ooo/2 ---\n"`).
    pub prefix: String,
    /// The renderable payload.
    pub body: SectionBody,
    /// Literal text emitted after the body.
    pub suffix: String,
}

/// A complete declarative artifact description. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Artifact name; the rendered text is written to `results/<name>.txt`.
    pub name: String,
    /// Literal text emitted before the first section (ends in `"\n\n"`).
    pub caption: String,
    /// Deduplicated simulation points, in request order.
    pub points: Vec<SpecPoint>,
    /// The rendering description.
    pub sections: Vec<Section>,
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Incremental [`ExperimentSpec`] construction with point deduplication:
/// requesting the same point twice returns the same index, exactly
/// mirroring the runner's memoization.
#[derive(Debug, Default)]
pub struct SpecBuilder {
    name: String,
    caption: String,
    points: Vec<SpecPoint>,
    index: HashMap<SpecPoint, usize>,
    sections: Vec<Section>,
}

impl SpecBuilder {
    /// Starts a spec with its artifact name and caption.
    pub fn new(name: &str, caption: &str) -> SpecBuilder {
        SpecBuilder { name: name.to_string(), caption: caption.to_string(), ..Default::default() }
    }

    /// Registers (or finds) a kernel run point and returns its index.
    pub fn point(
        &mut self,
        kernel: &str,
        gpp: GppPreset,
        lpsu: Option<LpsuConfig>,
        energy: EnergyPreset,
        mode: ExecMode,
    ) -> usize {
        self.intern(SpecPoint {
            kernel: kernel.to_string(),
            config: ConfigSpec { gpp, lpsu, energy },
            mode,
            gp_lowered: false,
            sampling: None,
        })
    }

    /// Registers (or finds) an interval-sampled kernel run point.
    pub fn sampled_point(
        &mut self,
        kernel: &str,
        gpp: GppPreset,
        lpsu: Option<LpsuConfig>,
        energy: EnergyPreset,
        mode: ExecMode,
        sampling: SampleSpec,
    ) -> usize {
        self.intern(SpecPoint {
            kernel: kernel.to_string(),
            config: ConfigSpec { gpp, lpsu, energy },
            mode,
            gp_lowered: false,
            sampling: Some(sampling),
        })
    }

    /// Registers (or finds) a GP-ISA baseline point: no LPSU, lowered
    /// program, traditional mode — the same normalization
    /// [`crate::runner::Simulation::new`] applies before keying a simulation.
    pub fn baseline(&mut self, kernel: &str, gpp: GppPreset, energy: EnergyPreset) -> usize {
        self.intern(SpecPoint {
            kernel: kernel.to_string(),
            config: ConfigSpec { gpp, lpsu: None, energy },
            mode: ExecMode::Traditional,
            gp_lowered: true,
            sampling: None,
        })
    }

    fn intern(&mut self, point: SpecPoint) -> usize {
        if let Some(&i) = self.index.get(&point) {
            return i;
        }
        let i = self.points.len();
        self.index.insert(point.clone(), i);
        self.points.push(point);
        i
    }

    /// Appends a section.
    pub fn section(&mut self, prefix: &str, body: SectionBody, suffix: &str) {
        self.sections.push(Section {
            prefix: prefix.to_string(),
            body,
            suffix: suffix.to_string(),
        });
    }

    /// Finishes the spec.
    pub fn build(self) -> ExperimentSpec {
        ExperimentSpec {
            name: self.name,
            caption: self.caption,
            points: self.points,
            sections: self.sections,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of manifest parsing, validation, or shard merging.
#[derive(Clone, Debug, PartialEq)]
pub enum ManifestError {
    /// The document is not well-formed JSON.
    Json(JsonError),
    /// The document is not a well-formed binary document.
    Binary(BinaryError),
    /// The JSON is well-formed but does not match the manifest schema.
    Schema(String),
    /// A point names a kernel the kernel library does not provide.
    UnknownKernel(String),
    /// A cell references a point index past the end of the point list.
    PointIndex {
        /// The out-of-range index.
        index: usize,
        /// Number of points in the spec.
        points: usize,
    },
    /// A shard header is impossible (`index >= of` or `of == 0`).
    ShardIndex {
        /// The shard's index.
        index: usize,
        /// The shard count.
        of: usize,
    },
    /// Shards come from different manifests (fingerprint mismatch).
    FingerprintMismatch {
        /// Fingerprint of the first shard.
        expected: String,
        /// The disagreeing fingerprint.
        found: String,
    },
    /// Shards disagree about the total shard count.
    ShardCountMismatch {
        /// `of` of the first shard.
        expected: usize,
        /// The disagreeing `of`.
        found: usize,
    },
    /// The same shard index was supplied twice.
    DuplicateShard(usize),
    /// Shard indices missing from a merge (not all of `0..of` present).
    MissingShards(Vec<usize>),
    /// A point was covered by no shard (malformed shard document).
    MissingPoint(usize),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "malformed JSON: {e}"),
            ManifestError::Binary(e) => write!(f, "malformed binary document: {e}"),
            ManifestError::Schema(what) => write!(f, "manifest schema violation: {what}"),
            ManifestError::UnknownKernel(name) => write!(f, "unknown kernel: {name}"),
            ManifestError::PointIndex { index, points } => {
                write!(f, "cell references point {index} but the spec has {points} points")
            }
            ManifestError::ShardIndex { index, of } => {
                write!(f, "impossible shard {index}/{of}")
            }
            ManifestError::FingerprintMismatch { expected, found } => {
                write!(f, "shards come from different manifests: {expected} vs {found}")
            }
            ManifestError::ShardCountMismatch { expected, found } => {
                write!(f, "shards disagree on shard count: {expected} vs {found}")
            }
            ManifestError::DuplicateShard(i) => write!(f, "duplicate shard index {i}"),
            ManifestError::MissingShards(missing) => {
                let list: Vec<String> = missing.iter().map(|i| i.to_string()).collect();
                write!(f, "missing shard(s): {}", list.join(", "))
            }
            ManifestError::MissingPoint(i) => write!(f, "no shard covers point {i}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<JsonError> for ManifestError {
    fn from(e: JsonError) -> ManifestError {
        ManifestError::Json(e)
    }
}

impl From<BinaryError> for ManifestError {
    fn from(e: BinaryError) -> ManifestError {
        ManifestError::Binary(e)
    }
}

fn schema(what: impl Into<String>) -> ManifestError {
    ManifestError::Schema(what.into())
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, ManifestError> {
    v.get(key).ok_or_else(|| schema(format!("missing field `{key}`")))
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, ManifestError> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| schema(format!("`{key}` must be a string")))?
        .to_string())
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, ManifestError> {
    field(v, key)?.as_u64().ok_or_else(|| schema(format!("`{key}` must be an unsigned integer")))
}

fn usize_field(v: &JsonValue, key: &str) -> Result<usize, ManifestError> {
    Ok(u64_field(v, key)? as usize)
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, ManifestError> {
    field(v, key)?.as_bool().ok_or_else(|| schema(format!("`{key}` must be a boolean")))
}

fn array_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], ManifestError> {
    field(v, key)?.as_array().ok_or_else(|| schema(format!("`{key}` must be an array")))
}

/// The canonical JSON tag of an execution mode (`traditional` /
/// `specialized` / `adaptive`), shared by manifests and `bench-summary`.
pub fn mode_tag(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Traditional => "traditional",
        ExecMode::Specialized => "specialized",
        ExecMode::Adaptive => "adaptive",
    }
}

fn mode_from_tag(tag: &str) -> Option<ExecMode> {
    match tag {
        "traditional" => Some(ExecMode::Traditional),
        "specialized" => Some(ExecMode::Specialized),
        "adaptive" => Some(ExecMode::Adaptive),
        _ => None,
    }
}

fn lpsu_to_json(l: &LpsuConfig) -> JsonValue {
    JsonValue::object(vec![
        ("lanes", JsonValue::UInt(l.lanes as u64)),
        ("ibuf_entries", JsonValue::UInt(l.ibuf_entries as u64)),
        ("lsq_loads", JsonValue::UInt(l.lsq_loads as u64)),
        ("lsq_stores", JsonValue::UInt(l.lsq_stores as u64)),
        ("mem_ports", JsonValue::UInt(l.mem_ports as u64)),
        ("llfus", JsonValue::UInt(l.llfus as u64)),
        ("contexts", JsonValue::UInt(l.contexts as u64)),
        ("cib_latency", JsonValue::UInt(l.cib_latency as u64)),
        ("cross_lane_forwarding", JsonValue::Bool(l.cross_lane_forwarding)),
    ])
}

fn lpsu_from_json(v: &JsonValue) -> Result<LpsuConfig, ManifestError> {
    Ok(LpsuConfig {
        lanes: u64_field(v, "lanes")? as u32,
        ibuf_entries: u64_field(v, "ibuf_entries")? as u32,
        lsq_loads: u64_field(v, "lsq_loads")? as u32,
        lsq_stores: u64_field(v, "lsq_stores")? as u32,
        mem_ports: u64_field(v, "mem_ports")? as u32,
        llfus: u64_field(v, "llfus")? as u32,
        contexts: u64_field(v, "contexts")? as u32,
        cib_latency: u64_field(v, "cib_latency")? as u32,
        cross_lane_forwarding: bool_field(v, "cross_lane_forwarding")?,
    })
}

impl SpecPoint {
    fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("kernel", JsonValue::Str(self.kernel.clone())),
            ("gpp", JsonValue::Str(self.config.gpp.tag().to_string())),
            ("lpsu", self.config.lpsu.as_ref().map_or(JsonValue::Null, lpsu_to_json)),
            ("energy", JsonValue::Str(self.config.energy.tag().to_string())),
            ("mode", JsonValue::Str(mode_tag(self.mode).to_string())),
            ("gp_lowered", JsonValue::Bool(self.gp_lowered)),
        ];
        // Emitted only when set: pre-sampling manifests must keep their
        // canonical encoding (and thus fingerprint) byte-for-byte.
        if let Some(s) = self.sampling {
            fields.push(("sampling", JsonValue::Str(s.to_string())));
        }
        JsonValue::object(fields)
    }

    fn from_json_value(v: &JsonValue) -> Result<SpecPoint, ManifestError> {
        let gpp_tag = str_field(v, "gpp")?;
        let gpp = GppPreset::from_tag(&gpp_tag)
            .ok_or_else(|| schema(format!("unknown gpp preset `{gpp_tag}`")))?;
        let energy_tag = str_field(v, "energy")?;
        let energy = EnergyPreset::from_tag(&energy_tag)
            .ok_or_else(|| schema(format!("unknown energy preset `{energy_tag}`")))?;
        let mode_tag = str_field(v, "mode")?;
        let mode = mode_from_tag(&mode_tag)
            .ok_or_else(|| schema(format!("unknown exec mode `{mode_tag}`")))?;
        let lpsu = match field(v, "lpsu")? {
            JsonValue::Null => None,
            l => Some(lpsu_from_json(l)?),
        };
        // Absent in pre-sampling manifests: those points ran in full detail.
        let sampling = match v.get("sampling") {
            None | Some(JsonValue::Null) => None,
            Some(s) => Some(
                s.as_str()
                    .ok_or_else(|| schema("`sampling` must be a string"))?
                    .parse::<SampleSpec>()
                    .map_err(|e| schema(format!("bad `sampling`: {e}")))?,
            ),
        };
        Ok(SpecPoint {
            kernel: str_field(v, "kernel")?,
            config: ConfigSpec { gpp, lpsu, energy },
            mode,
            gp_lowered: bool_field(v, "gp_lowered")?,
            sampling,
        })
    }
}

impl Cell {
    fn to_json_value(&self) -> JsonValue {
        match self {
            Cell::Text(t) => JsonValue::object(vec![("text", JsonValue::Str(t.clone()))]),
            Cell::Speedup { base, run } => JsonValue::object(vec![(
                "speedup",
                JsonValue::object(vec![
                    ("base", JsonValue::UInt(*base as u64)),
                    ("run", JsonValue::UInt(*run as u64)),
                ]),
            )]),
            Cell::EnergyEff { base, run } => JsonValue::object(vec![(
                "energy_eff",
                JsonValue::object(vec![
                    ("base", JsonValue::UInt(*base as u64)),
                    ("run", JsonValue::UInt(*run as u64)),
                ]),
            )]),
            Cell::Ratio { num, den, path } => JsonValue::object(vec![(
                "ratio",
                JsonValue::object(vec![
                    ("num", JsonValue::UInt(*num as u64)),
                    ("den", JsonValue::UInt(*den as u64)),
                    ("path", JsonValue::Str(path.clone())),
                ]),
            )]),
            Cell::Insns { point } => JsonValue::object(vec![(
                "insns",
                JsonValue::object(vec![("point", JsonValue::UInt(*point as u64))]),
            )]),
            Cell::Counter { point, path } => JsonValue::object(vec![(
                "counter",
                JsonValue::object(vec![
                    ("point", JsonValue::UInt(*point as u64)),
                    ("path", JsonValue::Str(path.clone())),
                ]),
            )]),
            Cell::Pct { point, path, total } => JsonValue::object(vec![(
                "pct",
                JsonValue::object(vec![
                    ("point", JsonValue::UInt(*point as u64)),
                    ("path", JsonValue::Str(path.clone())),
                    ("total", JsonValue::Str(total.clone())),
                ]),
            )]),
            Cell::Choice { point, path, nonzero, zero } => JsonValue::object(vec![(
                "choice",
                JsonValue::object(vec![
                    ("point", JsonValue::UInt(*point as u64)),
                    ("path", JsonValue::Str(path.clone())),
                    ("nonzero", JsonValue::Str(nonzero.clone())),
                    ("zero", JsonValue::Str(zero.clone())),
                ]),
            )]),
        }
    }

    fn from_json_value(v: &JsonValue) -> Result<Cell, ManifestError> {
        let fields = v.as_object().ok_or_else(|| schema("cell must be an object"))?;
        let [(tag, inner)] = fields else {
            return Err(schema("cell must have exactly one tag key"));
        };
        match tag.as_str() {
            "text" => Ok(Cell::Text(
                inner.as_str().ok_or_else(|| schema("`text` must be a string"))?.to_string(),
            )),
            "speedup" => Ok(Cell::Speedup {
                base: usize_field(inner, "base")?,
                run: usize_field(inner, "run")?,
            }),
            "energy_eff" => Ok(Cell::EnergyEff {
                base: usize_field(inner, "base")?,
                run: usize_field(inner, "run")?,
            }),
            "ratio" => Ok(Cell::Ratio {
                num: usize_field(inner, "num")?,
                den: usize_field(inner, "den")?,
                path: str_field(inner, "path")?,
            }),
            "insns" => Ok(Cell::Insns { point: usize_field(inner, "point")? }),
            "counter" => Ok(Cell::Counter {
                point: usize_field(inner, "point")?,
                path: str_field(inner, "path")?,
            }),
            "pct" => Ok(Cell::Pct {
                point: usize_field(inner, "point")?,
                path: str_field(inner, "path")?,
                total: str_field(inner, "total")?,
            }),
            "choice" => Ok(Cell::Choice {
                point: usize_field(inner, "point")?,
                path: str_field(inner, "path")?,
                nonzero: str_field(inner, "nonzero")?,
                zero: str_field(inner, "zero")?,
            }),
            other => Err(schema(format!("unknown cell kind `{other}`"))),
        }
    }

    fn point_indices(&self) -> Vec<usize> {
        match self {
            Cell::Text(_) => vec![],
            Cell::Speedup { base, run } | Cell::EnergyEff { base, run } => vec![*base, *run],
            Cell::Ratio { num, den, .. } => vec![*num, *den],
            Cell::Insns { point }
            | Cell::Counter { point, .. }
            | Cell::Pct { point, .. }
            | Cell::Choice { point, .. } => vec![*point],
        }
    }
}

impl Section {
    fn to_json_value(&self) -> JsonValue {
        let body = match &self.body {
            SectionBody::Table { header, rows } => JsonValue::object(vec![(
                "table",
                JsonValue::object(vec![
                    (
                        "header",
                        JsonValue::Array(
                            header.iter().map(|h| JsonValue::Str(h.clone())).collect(),
                        ),
                    ),
                    (
                        "rows",
                        JsonValue::Array(
                            rows.iter()
                                .map(|row| {
                                    JsonValue::Array(row.iter().map(Cell::to_json_value).collect())
                                })
                                .collect(),
                        ),
                    ),
                ]),
            )]),
            SectionBody::Bars { rows } => JsonValue::object(vec![(
                "bars",
                JsonValue::object(vec![(
                    "rows",
                    JsonValue::Array(
                        rows.iter()
                            .map(|r| {
                                JsonValue::object(vec![
                                    ("label", JsonValue::Str(r.label.clone())),
                                    ("base", JsonValue::UInt(r.base as u64)),
                                    ("run", JsonValue::UInt(r.run as u64)),
                                ])
                            })
                            .collect(),
                    ),
                )]),
            )]),
        };
        JsonValue::object(vec![
            ("prefix", JsonValue::Str(self.prefix.clone())),
            ("body", body),
            ("suffix", JsonValue::Str(self.suffix.clone())),
        ])
    }

    fn from_json_value(v: &JsonValue) -> Result<Section, ManifestError> {
        let body_v = field(v, "body")?;
        let fields = body_v.as_object().ok_or_else(|| schema("`body` must be an object"))?;
        let [(tag, inner)] = fields else {
            return Err(schema("`body` must have exactly one tag key"));
        };
        let body = match tag.as_str() {
            "table" => {
                let header = array_field(inner, "header")?
                    .iter()
                    .map(|h| {
                        h.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| schema("header entries must be strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let rows = array_field(inner, "rows")?
                    .iter()
                    .map(|row| {
                        row.as_array()
                            .ok_or_else(|| schema("table rows must be arrays"))?
                            .iter()
                            .map(Cell::from_json_value)
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                for row in &rows {
                    if row.len() != header.len() {
                        return Err(schema("table row width must match header"));
                    }
                }
                SectionBody::Table { header, rows }
            }
            "bars" => {
                let rows = array_field(inner, "rows")?
                    .iter()
                    .map(|r| {
                        Ok(BarRow {
                            label: str_field(r, "label")?,
                            base: usize_field(r, "base")?,
                            run: usize_field(r, "run")?,
                        })
                    })
                    .collect::<Result<Vec<_>, ManifestError>>()?;
                SectionBody::Bars { rows }
            }
            other => return Err(schema(format!("unknown section body kind `{other}`"))),
        };
        Ok(Section { prefix: str_field(v, "prefix")?, body, suffix: str_field(v, "suffix")? })
    }
}

impl ExperimentSpec {
    /// The spec as a deterministic JSON document.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("caption", JsonValue::Str(self.caption.clone())),
            (
                "points",
                JsonValue::Array(self.points.iter().map(SpecPoint::to_json_value).collect()),
            ),
            (
                "sections",
                JsonValue::Array(self.sections.iter().map(Section::to_json_value).collect()),
            ),
        ])
    }

    /// Compact JSON text of [`ExperimentSpec::to_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Human-editable JSON text (pretty-printed, same canonical order).
    pub fn to_json_pretty(&self) -> String {
        let mut s = self.to_json_value().render_pretty();
        s.push('\n');
        s
    }

    /// Parses and validates a spec document.
    pub fn from_json(text: &str) -> Result<ExperimentSpec, ManifestError> {
        ExperimentSpec::from_json_value(&JsonValue::parse(text)?)
    }

    /// Builds and validates a spec from a parsed JSON value.
    pub fn from_json_value(v: &JsonValue) -> Result<ExperimentSpec, ManifestError> {
        let points = array_field(v, "points")?
            .iter()
            .map(SpecPoint::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        let sections = array_field(v, "sections")?
            .iter()
            .map(Section::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        let spec = ExperimentSpec {
            name: str_field(v, "name")?,
            caption: str_field(v, "caption")?,
            points,
            sections,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks internal consistency: every kernel resolves and every cell
    /// references an in-range point.
    pub fn validate(&self) -> Result<(), ManifestError> {
        for p in &self.points {
            if by_name(&p.kernel).is_none() {
                return Err(ManifestError::UnknownKernel(p.kernel.clone()));
            }
        }
        let check = |i: usize| {
            if i >= self.points.len() {
                Err(ManifestError::PointIndex { index: i, points: self.points.len() })
            } else {
                Ok(())
            }
        };
        for s in &self.sections {
            match &s.body {
                SectionBody::Table { rows, .. } => {
                    for cell in rows.iter().flatten() {
                        for i in cell.point_indices() {
                            check(i)?;
                        }
                    }
                }
                SectionBody::Bars { rows } => {
                    for r in rows {
                        check(r.base)?;
                        check(r.run)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// FNV-1a 64 fingerprint of the canonical JSON encoding, used to pair
    /// shard documents with their manifest.
    pub fn fingerprint(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json_value().render().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

// ---------------------------------------------------------------------------
// Execution and rendering
// ---------------------------------------------------------------------------

/// The outcome of one spec point: the full stat tree of the run (cycles
/// and energy live inside it), plus the quarantine diagnosis if the
/// harness had to placeholder the point.
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The unified stat tree ([`xloops_sim::SystemStats::stat_set`]).
    pub stats: StatSet,
    /// `Some(diagnosis)` when the point was quarantined.
    pub error: Option<String>,
}

impl PointResult {
    pub(crate) fn from_run(run: &RunResult, is_ooo: bool) -> PointResult {
        PointResult { stats: run.stats.stat_set(is_ooo), error: run.error.clone() }
    }

    /// The result as `{"error": ..., "stats": ...}` — the body of a shard
    /// document's per-point entry and of a durable store entry.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("error", self.error.as_ref().map_or(JsonValue::Null, |e| JsonValue::Str(e.clone()))),
            ("stats", self.stats.to_json_value()),
        ])
    }

    /// The result as one binary [`PointResult::to_json_value`] document
    /// (a store record), written straight off the tree: byte-identical
    /// to `binary::encode(&self.to_json_value())`, with no [`JsonValue`]
    /// in between.
    pub fn to_binary(&self) -> Vec<u8> {
        binary::write(|w| {
            w.object(2);
            w.key("error");
            w.opt_str(self.error.as_deref());
            w.key("stats");
            self.stats.write(w);
        })
    }

    /// Parses a [`PointResult::to_json_value`] document (extra fields,
    /// such as a shard entry's `point`, are ignored).
    pub fn from_json_value(v: &JsonValue) -> Result<PointResult, ManifestError> {
        let error = match field(v, "error")? {
            JsonValue::Null => None,
            e => Some(
                e.as_str().ok_or_else(|| schema("`error` must be null or a string"))?.to_string(),
            ),
        };
        let stats = StatSet::from_json_value(field(v, "stats")?).map_err(ManifestError::Json)?;
        Ok(PointResult { stats, error })
    }

    /// Decodes a binary [`PointResult::to_json_value`] document (a store
    /// record) straight off the bytes, accepting and rejecting exactly
    /// what [`PointResult::from_json_value`] does on the decoded value.
    pub fn from_binary(bytes: &[u8]) -> Result<PointResult, ManifestError> {
        let (mut error, mut stats) = (None, None);
        binary::read(bytes, |c| {
            c.object(|c, key| match key {
                "error" if error.is_none() => {
                    c.opt_str().map(|e| error = Some(e.map(str::to_string)))
                }
                "stats" if stats.is_none() => StatSet::from_cursor(c).map(|s| stats = Some(s)),
                _ => c.skip(),
            })
        })?;
        match (error, stats) {
            (Some(error), Some(stats)) => Ok(PointResult { stats, error }),
            (None, _) => Err(schema("missing field `error`")),
            (_, None) => Err(schema("missing field `stats`")),
        }
    }

    fn counter(&self, path: &str) -> u64 {
        self.stats.lookup(path).and_then(StatValue::as_counter).unwrap_or(0)
    }

    fn cycles(&self) -> u64 {
        self.counter("cycles")
    }

    fn energy_nj(&self) -> f64 {
        match self.stats.lookup("energy_nj") {
            Some(StatValue::Metric(v)) => v,
            _ => 0.0,
        }
    }
}

/// Dynamic instruction counts in the paper's notation (`3.1M` / `416K`).
fn format_insns(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else {
        format!("{}K", n / 1000)
    }
}

fn eval_cell(cell: &Cell, results: &[PointResult]) -> String {
    match cell {
        Cell::Text(t) => t.clone(),
        Cell::Speedup { base, run } => {
            f2(results[*base].cycles() as f64 / results[*run].cycles().max(1) as f64)
        }
        Cell::EnergyEff { base, run } => {
            f2(results[*base].energy_nj() / results[*run].energy_nj().max(1e-9))
        }
        Cell::Ratio { num, den, path } => {
            f2(results[*num].counter(path) as f64 / results[*den].counter(path).max(1) as f64)
        }
        Cell::Insns { point } => format_insns(results[*point].counter("instret")),
        Cell::Counter { point, path } => results[*point].counter(path).to_string(),
        Cell::Pct { point, path, total } => {
            let denom = results[*point].counter(total).max(1) as f64;
            format!("{:.1}", 100.0 * results[*point].counter(path) as f64 / denom)
        }
        Cell::Choice { point, path, nonzero, zero } => {
            if results[*point].counter(path) > 0 {
                nonzero.clone()
            } else {
                zero.clone()
            }
        }
    }
}

/// Renders a spec against its point results (one per spec point, in
/// point order — e.g. a [`crate::sched::Scheduler`] sweep's outcomes);
/// the output is byte-identical to the historical imperative reports.
pub fn render_spec(spec: &ExperimentSpec, results: &[PointResult]) -> String {
    let mut out = spec.caption.clone();
    for section in &spec.sections {
        out.push_str(&section.prefix);
        match &section.body {
            SectionBody::Table { header, rows } => {
                let cols: Vec<&str> = header.iter().map(String::as_str).collect();
                let mut t = TextTable::new(&cols);
                for row in rows {
                    t.row(row.iter().map(|c| eval_cell(c, results)).collect());
                }
                out.push_str(&t.render());
            }
            SectionBody::Bars { rows } => {
                for r in rows {
                    let sp =
                        results[r.base].cycles() as f64 / results[r.run].cycles().max(1) as f64;
                    let bar = "#".repeat((sp * 10.0).round().min(60.0) as usize);
                    out.push_str(&format!("{:14} {:5.2} {bar}\n", r.label, sp));
                }
            }
        }
        out.push_str(&section.suffix);
    }
    out
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

/// The points of `spec` owned by shard `index` of `of`: point `i` belongs
/// to shard `i % of`. A pure function of the pair, so any machine
/// computes the same partition.
pub fn shard_points(spec: &ExperimentSpec, index: usize, of: usize) -> Vec<usize> {
    (0..spec.points.len()).filter(|i| i % of == index).collect()
}

/// One shard's worth of results, self-describing: the full spec rides
/// along (plus its fingerprint for cheap pairing) together with the
/// [`RunOptions`] that produced the numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardDoc {
    /// [`ExperimentSpec::fingerprint`] of `spec`.
    pub fingerprint: String,
    /// This shard's index in `0..of`.
    pub index: usize,
    /// Total shard count.
    pub of: usize,
    /// The options the shard ran under.
    pub options: RunOptions,
    /// The manifest.
    pub spec: ExperimentSpec,
    /// `(point index, result)` for every owned point.
    pub results: Vec<(usize, PointResult)>,
}

impl ShardDoc {
    /// The shard as a deterministic JSON document.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("fingerprint", JsonValue::Str(self.fingerprint.clone())),
            (
                "shard",
                JsonValue::object(vec![
                    ("index", JsonValue::UInt(self.index as u64)),
                    ("of", JsonValue::UInt(self.of as u64)),
                ]),
            ),
            ("options", self.options.to_json_value()),
            ("spec", self.spec.to_json_value()),
            (
                "results",
                JsonValue::Array(
                    self.results
                        .iter()
                        .map(|(i, pr)| {
                            JsonValue::object(vec![
                                ("point", JsonValue::UInt(*i as u64)),
                                (
                                    "error",
                                    pr.error
                                        .as_ref()
                                        .map_or(JsonValue::Null, |e| JsonValue::Str(e.clone())),
                                ),
                                ("stats", pr.stats.to_json_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty JSON text of [`ShardDoc::to_json_value`] with a trailing
    /// newline (the `--out` file format).
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_value().render_pretty();
        s.push('\n');
        s
    }

    /// Parses and validates one shard document from JSON text.
    pub fn from_json(text: &str) -> Result<ShardDoc, ManifestError> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// [`ShardDoc::from_json`] on an already-parsed document.
    pub fn from_json_value(v: &JsonValue) -> Result<ShardDoc, ManifestError> {
        let shard = field(v, "shard")?;
        let index = usize_field(shard, "index")?;
        let of = usize_field(shard, "of")?;
        if of == 0 || index >= of {
            return Err(ManifestError::ShardIndex { index, of });
        }
        let options = RunOptions::from_json_value(field(v, "options")?)
            .ok_or_else(|| schema("`options` does not match the run-options schema"))?;
        let spec = ExperimentSpec::from_json_value(field(v, "spec")?)?;
        let results = array_field(v, "results")?
            .iter()
            .map(|entry| {
                let point = usize_field(entry, "point")?;
                if point >= spec.points.len() {
                    return Err(ManifestError::PointIndex {
                        index: point,
                        points: spec.points.len(),
                    });
                }
                Ok((point, PointResult::from_json_value(entry)?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardDoc {
            fingerprint: str_field(v, "fingerprint")?,
            index,
            of,
            options,
            spec,
            results,
        })
    }
}

/// Executes shard `index` of `of` of a spec under explicit options — the
/// storeless adapter over the scheduler ([`crate::sched`]), which runs
/// the same two-pass collect/prefill protocol the full-artifact binaries
/// use (so the shard's unique points still fan out over worker threads).
pub fn run_shard(spec: &ExperimentSpec, index: usize, of: usize, options: RunOptions) -> ShardDoc {
    crate::sched::run_shard_stored(spec, index, of, options, None)
}

/// The streaming heart of [`merge`]: shard documents are folded in one at
/// a time — each is consumed (and can be dropped before the next file is
/// even read), so merging N shards never holds more than one document in
/// memory on top of the accumulating per-point result slots.
///
/// Validation is incremental with the same precedence as the batch API:
/// fingerprint/spec agreement, then shard count, then duplicates at fold
/// time; coverage (missing shards, then missing points) at finish time.
#[derive(Debug, Default)]
pub struct MergeFold {
    /// `(fingerprint, of, spec)` of the first folded shard.
    first: Option<(String, usize, ExperimentSpec)>,
    seen: Vec<bool>,
    slots: Vec<Option<PointResult>>,
}

impl MergeFold {
    /// An empty fold; [`MergeFold::finish`] without any
    /// [`MergeFold::fold`] reports "no shard documents to merge".
    pub fn new() -> MergeFold {
        MergeFold::default()
    }

    /// Folds one shard document in, consuming it.
    pub fn fold(&mut self, doc: ShardDoc) -> Result<(), ManifestError> {
        match &self.first {
            None => {
                self.seen = vec![false; doc.of];
                self.slots = vec![None; doc.spec.points.len()];
                self.first = Some((doc.fingerprint.clone(), doc.of, doc.spec.clone()));
            }
            Some((fingerprint, of, spec)) => {
                if doc.fingerprint != *fingerprint || doc.spec != *spec {
                    return Err(ManifestError::FingerprintMismatch {
                        expected: fingerprint.clone(),
                        found: doc.fingerprint,
                    });
                }
                if doc.of != *of {
                    return Err(ManifestError::ShardCountMismatch { expected: *of, found: doc.of });
                }
            }
        }
        if doc.index >= self.seen.len() {
            return Err(ManifestError::ShardIndex { index: doc.index, of: self.seen.len() });
        }
        if self.seen[doc.index] {
            return Err(ManifestError::DuplicateShard(doc.index));
        }
        self.seen[doc.index] = true;
        for (i, pr) in doc.results {
            self.slots[i] = Some(pr);
        }
        Ok(())
    }

    /// Validates coverage and returns the shared spec plus the per-point
    /// results (spec order), ready for [`render_spec`].
    pub fn finish(self) -> Result<(ExperimentSpec, Vec<PointResult>), ManifestError> {
        let (_, of, spec) = self.first.ok_or_else(|| schema("no shard documents to merge"))?;
        let missing: Vec<usize> = (0..of).filter(|&i| !self.seen[i]).collect();
        if !missing.is_empty() {
            return Err(ManifestError::MissingShards(missing));
        }
        let mut results = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.into_iter().enumerate() {
            results.push(slot.ok_or(ManifestError::MissingPoint(i))?);
        }
        Ok((spec, results))
    }
}

/// Recombines shard documents into the full result vector, validating
/// that the shards belong to one manifest and cover it completely.
/// Returns the shared spec and the per-point results (spec order), ready
/// for [`render_spec`]. Batch convenience over [`MergeFold`]; callers
/// reading shards from disk should fold file-by-file instead.
pub fn merge(shards: &[ShardDoc]) -> Result<(ExperimentSpec, Vec<PointResult>), ManifestError> {
    let mut fold = MergeFold::new();
    for doc in shards {
        fold.fold(doc.clone())?;
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        let mut b = SpecBuilder::new("tiny", "Tiny: a test artifact\n\n");
        let base = b.baseline("huffman-ua", GppPreset::Io, EnergyPreset::Mcpat45);
        let spec_pt = b.point(
            "huffman-ua",
            GppPreset::Io,
            Some(LpsuConfig::default4()),
            EnergyPreset::Mcpat45,
            ExecMode::Specialized,
        );
        b.section(
            "",
            SectionBody::Table {
                header: vec!["name".into(), "S".into()],
                rows: vec![vec![
                    Cell::Text("huffman-ua".into()),
                    Cell::Speedup { base, run: spec_pt },
                ]],
            },
            "",
        );
        b.build()
    }

    #[test]
    fn builder_dedups_points() {
        let mut b = SpecBuilder::new("d", "c\n\n");
        let a = b.point(
            "huffman-ua",
            GppPreset::Ooo2,
            Some(LpsuConfig::default4()),
            EnergyPreset::Mcpat45,
            ExecMode::Specialized,
        );
        let again = b.point(
            "huffman-ua",
            GppPreset::Ooo2,
            Some(LpsuConfig::default4()),
            EnergyPreset::Mcpat45,
            ExecMode::Specialized,
        );
        let other = b.baseline("huffman-ua", GppPreset::Ooo2, EnergyPreset::Mcpat45);
        assert_eq!(a, again);
        assert_ne!(a, other);
        assert_eq!(b.build().points.len(), 2);
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = tiny_spec();
        let text = spec.to_json();
        let back = ExperimentSpec::from_json(&text).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text);
        // The pretty form parses to the same spec.
        assert_eq!(ExperimentSpec::from_json(&spec.to_json_pretty()).unwrap(), spec);
        // And the fingerprint is stable.
        assert_eq!(spec.fingerprint(), back.fingerprint());
    }

    #[test]
    fn sampled_points_round_trip_and_leave_old_fingerprints_alone() {
        // A spec without sampling encodes exactly as before the field
        // existed: no `sampling` key anywhere, so fingerprints are stable.
        let plain = tiny_spec();
        assert!(!plain.to_json().contains("sampling"));

        // A sampled point round-trips through JSON with its spec intact.
        let mut b = SpecBuilder::new("sampled", "Sampled: a test artifact\n\n");
        let full = b.point(
            "huffman-ua",
            GppPreset::Io,
            Some(LpsuConfig::default4()),
            EnergyPreset::Mcpat45,
            ExecMode::Specialized,
        );
        let spec = SampleSpec::new(10_000, 2_000, 50_000).unwrap();
        let sampled = b.sampled_point(
            "huffman-ua",
            GppPreset::Io,
            Some(LpsuConfig::default4()),
            EnergyPreset::Mcpat45,
            ExecMode::Specialized,
            spec,
        );
        // Sampling is part of a point's identity: no dedup with the full run.
        assert_ne!(full, sampled);
        let built = b.build();
        let back = ExperimentSpec::from_json(&built.to_json()).expect("parses");
        assert_eq!(back, built);
        assert_eq!(back.points[sampled].sampling, Some(spec));

        // An explicit `"sampling": null` also reads as a full-detail point.
        let mut doc = built.to_json_value();
        let rendered = doc.render();
        assert!(rendered.contains("\"sampling\":\"10000:2000:50000\""), "{rendered}");
        drop(doc);
        doc = JsonValue::parse(&rendered.replace("\"10000:2000:50000\"", "null")).unwrap();
        let relaxed = ExperimentSpec::from_json_value(&doc).expect("null sampling parses");
        assert_eq!(relaxed.points[sampled].sampling, None);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = tiny_spec();
        spec.points[0].kernel = "no-such-kernel".into();
        assert_eq!(
            ExperimentSpec::from_json(&spec.to_json()),
            Err(ManifestError::UnknownKernel("no-such-kernel".into()))
        );
        let mut spec = tiny_spec();
        if let SectionBody::Table { rows, .. } = &mut spec.sections[0].body {
            rows[0][1] = Cell::Speedup { base: 0, run: 99 };
        }
        assert_eq!(
            ExperimentSpec::from_json(&spec.to_json()),
            Err(ManifestError::PointIndex { index: 99, points: 2 })
        );
    }

    #[test]
    fn config_specs_resolve_to_the_named_presets() {
        let cs = ConfigSpec {
            gpp: GppPreset::Ooo2,
            lpsu: Some(LpsuConfig::default4()),
            energy: EnergyPreset::Mcpat45,
        };
        assert_eq!(cs.resolve().key(), SystemConfig::ooo2_x().key());
        let io = ConfigSpec { gpp: GppPreset::Io, lpsu: None, energy: EnergyPreset::Mcpat45 };
        assert_eq!(io.resolve().key(), SystemConfig::io().key());
        assert!(!io.is_ooo() && cs.is_ooo());
        let vlsi = ConfigSpec { gpp: GppPreset::Io, lpsu: None, energy: EnergyPreset::Vlsi40 };
        assert_eq!(
            vlsi.resolve().key(),
            SystemConfig::io().with_energy(EnergyTable::vlsi40()).key()
        );
    }

    #[test]
    fn shard_partition_is_exact_and_disjoint() {
        let spec = tiny_spec();
        for of in 1..=4 {
            let mut covered = vec![0u32; spec.points.len()];
            for k in 0..of {
                for i in shard_points(&spec, k, of) {
                    covered[i] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "of={of}: {covered:?}");
        }
    }

    #[test]
    fn sharded_run_merges_to_the_unsharded_render() {
        let spec = tiny_spec();
        let unsharded = {
            let swept = crate::sched::Scheduler::new(RunOptions::default(), None)
                .with_pool(None)
                .run(&[(&spec, (0..spec.points.len()).collect())]);
            let results: Vec<PointResult> =
                swept.outcomes[0].iter().map(|o| o.result.clone()).collect();
            render_spec(&spec, &results)
        };
        let s0 = run_shard(&spec, 0, 2, RunOptions::default());
        let s1 = run_shard(&spec, 1, 2, RunOptions::default());
        // Round-trip the shard docs through their file encoding.
        let s0 = ShardDoc::from_json(&s0.to_json()).expect("shard 0 parses");
        let s1 = ShardDoc::from_json(&s1.to_json()).expect("shard 1 parses");
        let (merged_spec, results) = merge(&[s1, s0]).expect("merge succeeds in any order");
        assert_eq!(render_spec(&merged_spec, &results), unsharded);
    }

    #[test]
    fn merge_rejects_mismatched_and_incomplete_shards() {
        let spec = tiny_spec();
        let s0 = run_shard(&spec, 0, 2, RunOptions::default());
        let s1 = run_shard(&spec, 1, 2, RunOptions::default());

        assert_eq!(merge(&[]), Err(schema("no shard documents to merge")));
        assert_eq!(
            merge(std::slice::from_ref(&s0)),
            Err(ManifestError::MissingShards(vec![1])),
            "half a manifest is not a result"
        );
        assert_eq!(merge(&[s0.clone(), s0.clone()]), Err(ManifestError::DuplicateShard(0)));

        // A shard of a *different* manifest must be rejected.
        let mut other = spec.clone();
        other.caption = "Tiny: a different caption\n\n".into();
        let foreign = run_shard(&other, 1, 2, RunOptions::default());
        assert!(matches!(
            merge(&[s0.clone(), foreign]),
            Err(ManifestError::FingerprintMismatch { .. })
        ));

        // Disagreeing shard counts are a distinct, typed failure.
        let lone = run_shard(&spec, 0, 1, RunOptions::default());
        assert_eq!(
            merge(&[s0, lone]),
            Err(ManifestError::ShardCountMismatch { expected: 2, found: 1 })
        );

        let _ = s1;
    }
}
