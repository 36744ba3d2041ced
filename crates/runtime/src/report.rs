//! JSON campaign reports: a hand-rolled value tree, a renderer *and* a
//! parser, and a typed schema layer.
//!
//! The offline build has no third-party JSON crate (see `vendor/README.md`), so this
//! module carries its own [`Json`] value tree. Emission rules: strings are
//! escaped per RFC 8259, non-finite numbers become `null` (JSON has no
//! NaN/∞), and object keys keep insertion order so reports diff cleanly
//! across runs.
//!
//! Reports are round-trippable: [`Json::parse`] inverts [`Json::render`],
//! and the typed [`ScenarioReport`] / [`CampaignReport`] structs carry the
//! schema in one place — the renderer and the parser both go through them,
//! so `render → parse → re-render` is byte-identical (the golden-file
//! tests in `tests/report_schema.rs` pin this down). Because non-finite
//! numbers render as `null`, the schema parser reads `null` in a numeric
//! slot back as NaN — the round trip holds even for reports whose metrics
//! went NaN. The parser is what
//! lets the campaign artifact store ([`crate::store`]) ingest previously
//! written reports instead of only producing them.

use fahana::{EpisodeRecord, ParetoPoint};

use crate::cache::CacheStats;
use crate::campaign::{CampaignOutcome, ScenarioOutcome};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number (non-finite renders as `null`).
    Num(f64),
    /// An integer rendered without a decimal point.
    Int(i64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Failure to parse a report: either the text is not JSON, or it is JSON
/// that does not match the report schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// Not syntactically valid JSON.
    Json {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Valid JSON, wrong shape.
    Schema {
        /// Dotted path of the offending field.
        path: String,
        /// What was expected.
        message: String,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Json { offset, message } => {
                write!(f, "invalid JSON at byte {offset}: {message}")
            }
            ReportError::Schema { path, message } => {
                write!(f, "report schema violation at `{path}`: {message}")
            }
        }
    }
}

impl std::error::Error for ReportError {}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (index, (key, value)) in entries.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text (the inverse of [`Json::render`]).
    ///
    /// Accepts standard RFC 8259 JSON. Numbers without a fractional part
    /// or exponent that fit `i64` *and* whose text equals the integer's
    /// canonical rendering become [`Json::Int`]; everything else numeric
    /// becomes [`Json::Num`] — so re-rendering a parsed document
    /// reproduces it byte-for-byte whenever the original was produced by
    /// [`Json::render`].
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`] with the byte offset of the first problem,
    /// including arrays and objects nested more than [`MAX_JSON_DEPTH`]
    /// deep.
    pub fn parse(text: &str) -> Result<Json, ReportError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks a key up in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value of [`Json::Num`] or [`Json::Int`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Integer value of [`Json::Int`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Reports nest a
/// handful of levels; the bound keeps the recursive descent (and the
/// recursive drop of the tree) off the end of a worker's stack when a
/// client posts thousands of `[`.
pub const MAX_JSON_DEPTH: usize = 128;

/// Recursive-descent JSON parser over the input's bytes.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ReportError {
        ReportError::Json {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ReportError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ReportError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't' | b'f' | b'n') => self.literal(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.error(format!("unexpected character `{}`", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object, one level deeper than the caller.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ReportError>,
    ) -> Result<Json, ReportError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.error(format!(
                "nesting deeper than {MAX_JSON_DEPTH} arrays/objects"
            )));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self) -> Result<Json, ReportError> {
        for (word, value) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(self.error("expected `true`, `false` or `null`"))
    }

    fn number(&mut self) -> Result<Json, ReportError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let literal = &self.text[start..self.pos];
        let has_fraction = literal.contains(['.', 'e', 'E']);
        if !has_fraction {
            if let Ok(int) = literal.parse::<i64>() {
                if int.to_string() == literal {
                    return Ok(Json::Int(int));
                }
            }
        }
        let number: f64 = literal
            .parse()
            .map_err(|_| self.error(format!("invalid number `{literal}`")))?;
        if !number.is_finite() {
            return Err(self.error(format!("number `{literal}` overflows f64")));
        }
        Ok(Json::Num(number))
    }

    fn string(&mut self) -> Result<String, ReportError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            self.pos -= 1;
                            return Err(self.error(format!("bad escape `\\{}`", other as char)));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("raw control character in string"));
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // multi-byte UTF-8: the input is a valid &str, so a
                    // char boundary is guaranteed here
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty remainder");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ReportError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16)
            .map_err(|_| self.error(format!("bad \\u escape `{digits}`")))?;
        self.pos += 4;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, ReportError> {
        let code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            // high surrogate: a low surrogate escape must follow
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(combined)
                        .ok_or_else(|| self.error("invalid surrogate pair"));
                }
            }
            return Err(self.error("unpaired high surrogate"));
        }
        char::from_u32(code).ok_or_else(|| self.error(format!("invalid codepoint {code:#x}")))
    }

    fn object(&mut self) -> Result<Json, ReportError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ReportError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Typed schema layer
// ---------------------------------------------------------------------------

/// The parsed (or to-be-rendered) form of one scenario's report. This is
/// the single source of truth for the scenario schema: rendering and
/// parsing both go through it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (`device/reward/freezing`).
    pub scenario: String,
    /// Human-readable device label.
    pub device: String,
    /// Stable device key ([`edgehw::DeviceKind::slug`]); what the artifact
    /// store indexes on.
    pub device_slug: String,
    /// Reward setting name.
    pub reward: String,
    /// Accuracy weight α.
    pub alpha: f64,
    /// Unfairness weight β.
    pub beta: f64,
    /// Whether the frozen-header search ran.
    pub use_freezing: bool,
    /// Scenario wall-clock in milliseconds.
    pub wall_clock_ms: f64,
    /// Evaluation-cache counters of this scenario.
    pub cache: CacheStats,
    /// Episodes run.
    pub episodes: u64,
    /// Fraction of valid episodes.
    pub valid_ratio: f64,
    /// log10 of the search-space size.
    pub space_log10_size: f64,
    /// Frozen backbone blocks.
    pub frozen_blocks: u64,
    /// Searchable tail slots.
    pub searchable_slots: u64,
    /// Modelled GPU-cluster search time (hours).
    pub modelled_search_hours: f64,
    /// Same, formatted like the paper.
    pub modelled_search_time: String,
    /// Highest-reward valid child.
    pub best: Option<EpisodeRecord>,
    /// Highest-reward valid child under 4 M parameters.
    pub best_small: Option<EpisodeRecord>,
    /// Lowest-unfairness valid child.
    pub fairest: Option<EpisodeRecord>,
    /// Accuracy/unfairness Pareto frontier over valid children.
    pub accuracy_fairness_frontier: Vec<ParetoPoint>,
    /// Reward/size Pareto frontier over valid children.
    pub reward_size_frontier: Vec<ParetoPoint>,
}

/// The parsed (or to-be-rendered) form of a whole campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Worker threads used.
    pub threads: u64,
    /// Campaign wall-clock in milliseconds.
    pub wall_clock_ms: f64,
    /// Aggregate cache counters.
    pub cache: CacheStats,
    /// Distinct architectures memoised.
    pub cache_entries: u64,
    /// Per-scenario reports, in grid order.
    pub scenarios: Vec<ScenarioReport>,
}

/// Failure to fuse partial (per-shard) campaign reports into one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportMergeError {
    /// Two partial reports both carry this scenario — the shards
    /// overlapped, so the fusion would double-count.
    DuplicateScenario(String),
    /// A partial report carries a scenario the ordering template does not
    /// know — it belongs to a different plan.
    UnexpectedScenario(String),
    /// The ordering template expects a scenario no partial report
    /// produced — a shard is missing or failed.
    MissingScenario(String),
}

impl std::fmt::Display for ReportMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportMergeError::DuplicateScenario(name) => {
                write!(
                    f,
                    "scenario `{name}` appears in more than one partial report"
                )
            }
            ReportMergeError::UnexpectedScenario(name) => {
                write!(f, "scenario `{name}` is not part of the campaign plan")
            }
            ReportMergeError::MissingScenario(name) => {
                write!(f, "no partial report covers scenario `{name}`")
            }
        }
    }
}

impl std::error::Error for ReportMergeError {}

impl ScenarioReport {
    /// Projects a live [`ScenarioOutcome`] onto the report schema.
    pub fn from_outcome(outcome: &ScenarioOutcome) -> Self {
        let summary = &outcome.outcome;
        let record = |network: &Option<fahana::DiscoveredNetwork>| {
            network.as_ref().map(|n| n.record.clone())
        };
        ScenarioReport {
            scenario: outcome.scenario.name.clone(),
            device: outcome.scenario.device.label().to_string(),
            device_slug: outcome.scenario.device.slug().to_string(),
            reward: outcome.scenario.reward.name.clone(),
            alpha: outcome.scenario.reward.alpha,
            beta: outcome.scenario.reward.beta,
            use_freezing: outcome.scenario.use_freezing,
            wall_clock_ms: outcome.wall_clock.as_secs_f64() * 1e3,
            cache: outcome.cache,
            episodes: summary.history.len() as u64,
            valid_ratio: summary.valid_ratio,
            space_log10_size: summary.space_log10_size,
            frozen_blocks: summary.frozen_blocks as u64,
            searchable_slots: summary.searchable_slots as u64,
            modelled_search_hours: summary.modelled_search_hours,
            modelled_search_time: summary.modelled_search_time.clone(),
            best: record(&summary.best),
            best_small: record(&summary.best_small),
            fairest: record(&summary.fairest),
            accuracy_fairness_frontier: summary.accuracy_fairness_frontier(),
            reward_size_frontier: summary.reward_size_frontier(),
        }
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        let record = |record: &Option<EpisodeRecord>| match record {
            Some(record) => episode_json(record),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("scenario".into(), Json::str(&self.scenario)),
            ("device".into(), Json::str(&self.device)),
            ("device_slug".into(), Json::str(&self.device_slug)),
            ("reward".into(), Json::str(&self.reward)),
            ("alpha".into(), Json::Num(self.alpha)),
            ("beta".into(), Json::Num(self.beta)),
            ("use_freezing".into(), Json::Bool(self.use_freezing)),
            ("wall_clock_ms".into(), Json::Num(self.wall_clock_ms)),
            ("cache".into(), cache_json(&self.cache)),
            ("episodes".into(), Json::Int(self.episodes as i64)),
            ("valid_ratio".into(), Json::Num(self.valid_ratio)),
            ("space_log10_size".into(), Json::Num(self.space_log10_size)),
            ("frozen_blocks".into(), Json::Int(self.frozen_blocks as i64)),
            (
                "searchable_slots".into(),
                Json::Int(self.searchable_slots as i64),
            ),
            (
                "modelled_search_hours".into(),
                Json::Num(self.modelled_search_hours),
            ),
            (
                "modelled_search_time".into(),
                Json::str(&self.modelled_search_time),
            ),
            ("best".into(), record(&self.best)),
            ("best_small".into(), record(&self.best_small)),
            ("fairest".into(), record(&self.fairest)),
            (
                "accuracy_fairness_frontier".into(),
                frontier_json(&self.accuracy_fairness_frontier),
            ),
            (
                "reward_size_frontier".into(),
                frontier_json(&self.reward_size_frontier),
            ),
        ])
    }

    /// Parses a scenario report (JSON text).
    ///
    /// # Errors
    ///
    /// [`ReportError`] on syntax or schema violations.
    pub fn parse(text: &str) -> Result<Self, ReportError> {
        Self::from_json(&Json::parse(text)?, "")
    }

    fn from_json(value: &Json, path: &str) -> Result<Self, ReportError> {
        let at = |key: &str| join_path(path, key);
        Ok(ScenarioReport {
            scenario: str_field(value, path, "scenario")?,
            device: str_field(value, path, "device")?,
            device_slug: str_field(value, path, "device_slug")?,
            reward: str_field(value, path, "reward")?,
            alpha: f64_field(value, path, "alpha")?,
            beta: f64_field(value, path, "beta")?,
            use_freezing: bool_field(value, path, "use_freezing")?,
            wall_clock_ms: f64_field(value, path, "wall_clock_ms")?,
            cache: cache_from_json(field(value, path, "cache")?, &at("cache"))?,
            episodes: u64_field(value, path, "episodes")?,
            valid_ratio: f64_field(value, path, "valid_ratio")?,
            space_log10_size: f64_field(value, path, "space_log10_size")?,
            frozen_blocks: u64_field(value, path, "frozen_blocks")?,
            searchable_slots: u64_field(value, path, "searchable_slots")?,
            modelled_search_hours: f64_field(value, path, "modelled_search_hours")?,
            modelled_search_time: str_field(value, path, "modelled_search_time")?,
            best: record_from_json(field(value, path, "best")?, &at("best"))?,
            best_small: record_from_json(field(value, path, "best_small")?, &at("best_small"))?,
            fairest: record_from_json(field(value, path, "fairest")?, &at("fairest"))?,
            accuracy_fairness_frontier: frontier_from_json(
                field(value, path, "accuracy_fairness_frontier")?,
                &at("accuracy_fairness_frontier"),
            )?,
            reward_size_frontier: frontier_from_json(
                field(value, path, "reward_size_frontier")?,
                &at("reward_size_frontier"),
            )?,
        })
    }

    /// The deterministic projection of the report: wall-clock and cache
    /// counters — the only fields that legitimately differ between a
    /// single-process run and a sharded one (shards do not share a live
    /// cache, so per-scenario hit counts shift) — are zeroed; everything
    /// the search actually decided is kept verbatim. Two runs of the same
    /// scenario agree on their canonical forms byte-for-byte.
    pub fn canonical(&self) -> ScenarioReport {
        ScenarioReport {
            wall_clock_ms: 0.0,
            cache: CacheStats::default(),
            ..self.clone()
        }
    }
}

impl CampaignReport {
    /// Projects a live [`CampaignOutcome`] onto the report schema.
    pub fn from_outcome(outcome: &CampaignOutcome) -> Self {
        CampaignReport {
            threads: outcome.threads as u64,
            wall_clock_ms: outcome.wall_clock.as_secs_f64() * 1e3,
            cache: outcome.cache,
            cache_entries: outcome.cache_entries as u64,
            scenarios: outcome
                .scenarios
                .iter()
                .map(ScenarioReport::from_outcome)
                .collect(),
        }
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("threads".into(), Json::Int(self.threads as i64)),
            ("wall_clock_ms".into(), Json::Num(self.wall_clock_ms)),
            ("cache".into(), cache_json(&self.cache)),
            ("cache_entries".into(), Json::Int(self.cache_entries as i64)),
            (
                "scenario_count".into(),
                Json::Int(self.scenarios.len() as i64),
            ),
            (
                "scenarios".into(),
                Json::Arr(self.scenarios.iter().map(ScenarioReport::to_json).collect()),
            ),
        ])
    }

    /// Parses a campaign report (JSON text).
    ///
    /// # Errors
    ///
    /// [`ReportError`] on syntax or schema violations, including a
    /// `scenario_count` that disagrees with the scenario array.
    pub fn parse(text: &str) -> Result<Self, ReportError> {
        let value = Json::parse(text)?;
        let scenarios_json = field(&value, "", "scenarios")?;
        let items = scenarios_json.as_arr().ok_or_else(|| ReportError::Schema {
            path: "scenarios".into(),
            message: "expected an array".into(),
        })?;
        let mut scenarios = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            scenarios.push(ScenarioReport::from_json(
                item,
                &format!("scenarios[{index}]"),
            )?);
        }
        let declared = u64_field(&value, "", "scenario_count")?;
        if declared != scenarios.len() as u64 {
            return Err(ReportError::Schema {
                path: "scenario_count".into(),
                message: format!(
                    "declares {declared} scenarios but the array holds {}",
                    scenarios.len()
                ),
            });
        }
        Ok(CampaignReport {
            threads: u64_field(&value, "", "threads")?,
            wall_clock_ms: f64_field(&value, "", "wall_clock_ms")?,
            cache: cache_from_json(field(&value, "", "cache")?, "cache")?,
            cache_entries: u64_field(&value, "", "cache_entries")?,
            scenarios,
        })
    }

    /// Fuses partial (per-shard) reports into one campaign report whose
    /// scenarios follow `order` — the plan-order name list from
    /// [`crate::CampaignPlan::order`], so the fused report is ordered
    /// exactly like a single-process run of the whole grid.
    ///
    /// Scenario reports are moved verbatim (NaN metrics and all — they
    /// re-render byte-identically). The campaign-level aggregates are
    /// recomputed: `threads` and `wall_clock_ms` take the maximum across
    /// parts (shards run concurrently), cache hits/misses sum, and
    /// `cache_entries` sums — an upper bound on distinct entries, since
    /// shards may have evaluated the same architecture independently.
    ///
    /// # Errors
    ///
    /// [`ReportMergeError`] when shards overlap, cover unknown scenarios,
    /// or leave plan entries uncovered.
    pub fn merge(
        parts: &[CampaignReport],
        order: &[String],
    ) -> Result<CampaignReport, ReportMergeError> {
        let mut by_name: std::collections::BTreeMap<&str, &ScenarioReport> =
            std::collections::BTreeMap::new();
        for part in parts {
            for scenario in &part.scenarios {
                if by_name
                    .insert(scenario.scenario.as_str(), scenario)
                    .is_some()
                {
                    return Err(ReportMergeError::DuplicateScenario(
                        scenario.scenario.clone(),
                    ));
                }
            }
        }
        let mut scenarios = Vec::with_capacity(order.len());
        for name in order {
            match by_name.remove(name.as_str()) {
                Some(scenario) => scenarios.push(scenario.clone()),
                None => return Err(ReportMergeError::MissingScenario(name.clone())),
            }
        }
        if let Some(name) = by_name.keys().min() {
            return Err(ReportMergeError::UnexpectedScenario((*name).to_string()));
        }
        Ok(CampaignReport {
            threads: parts.iter().map(|p| p.threads).max().unwrap_or(0),
            wall_clock_ms: parts.iter().map(|p| p.wall_clock_ms).fold(0.0f64, f64::max),
            cache: CacheStats {
                hits: parts.iter().map(|p| p.cache.hits).sum(),
                misses: parts.iter().map(|p| p.cache.misses).sum(),
            },
            cache_entries: parts.iter().map(|p| p.cache_entries).sum(),
            scenarios,
        })
    }

    /// The names of the scenarios this report covers, in report order —
    /// what a coordinator checks against a worker's assigned cells before
    /// merging: a report that covers anything else (or anything missing)
    /// is a failed attempt, not merge input.
    pub fn scenario_names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.scenario.as_str()).collect()
    }

    /// The deterministic projection of the whole report (see
    /// [`ScenarioReport::canonical`]): scheduling-dependent aggregates —
    /// threads, wall-clock, cache counters and entry count — are zeroed,
    /// scenarios are canonicalized in place. A sharded run's merged
    /// report and a single-process run of the same grid have
    /// byte-identical canonical renderings.
    pub fn canonical(&self) -> CampaignReport {
        CampaignReport {
            threads: 0,
            wall_clock_ms: 0.0,
            cache: CacheStats::default(),
            cache_entries: 0,
            scenarios: self
                .scenarios
                .iter()
                .map(ScenarioReport::canonical)
                .collect(),
        }
    }
}

fn join_path(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn field<'a>(value: &'a Json, path: &str, key: &str) -> Result<&'a Json, ReportError> {
    value.get(key).ok_or_else(|| ReportError::Schema {
        path: join_path(path, key),
        message: "missing field".into(),
    })
}

fn f64_field(value: &Json, path: &str, key: &str) -> Result<f64, ReportError> {
    let field = field(value, path, key)?;
    // The renderer maps non-finite numbers to `null` (JSON has no NaN/∞),
    // so `null` in a numeric slot is the round-trip image of a NaN metric.
    // Parse it back as NaN — render → parse → re-render stays
    // byte-identical even for reports whose metrics went NaN, and
    // re-ingesting such a report cannot fail opaquely.
    if matches!(field, Json::Null) {
        return Ok(f64::NAN);
    }
    field.as_f64().ok_or_else(|| ReportError::Schema {
        path: join_path(path, key),
        message: "expected a number or null (NaN)".into(),
    })
}

fn u64_field(value: &Json, path: &str, key: &str) -> Result<u64, ReportError> {
    field(value, path, key)?
        .as_i64()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| ReportError::Schema {
            path: join_path(path, key),
            message: "expected a non-negative integer".into(),
        })
}

fn str_field(value: &Json, path: &str, key: &str) -> Result<String, ReportError> {
    field(value, path, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ReportError::Schema {
            path: join_path(path, key),
            message: "expected a string".into(),
        })
}

fn bool_field(value: &Json, path: &str, key: &str) -> Result<bool, ReportError> {
    field(value, path, key)?
        .as_bool()
        .ok_or_else(|| ReportError::Schema {
            path: join_path(path, key),
            message: "expected a boolean".into(),
        })
}

fn cache_from_json(value: &Json, path: &str) -> Result<CacheStats, ReportError> {
    // hit_rate is derived from hits/misses, so it is not read back
    Ok(CacheStats {
        hits: u64_field(value, path, "hits")?,
        misses: u64_field(value, path, "misses")?,
    })
}

fn record_from_json(value: &Json, path: &str) -> Result<Option<EpisodeRecord>, ReportError> {
    if matches!(value, Json::Null) {
        return Ok(None);
    }
    Ok(Some(EpisodeRecord {
        episode: u64_field(value, path, "episode")? as usize,
        name: str_field(value, path, "name")?,
        params: u64_field(value, path, "params")?,
        storage_mb: f64_field(value, path, "storage_mb")?,
        latency_ms: f64_field(value, path, "latency_ms")?,
        accuracy: f64_field(value, path, "accuracy")?,
        unfairness: f64_field(value, path, "unfairness")?,
        trained_params: u64_field(value, path, "trained_params")?,
        reward: f64_field(value, path, "reward")?,
        valid: bool_field(value, path, "valid")?,
    }))
}

fn frontier_from_json(value: &Json, path: &str) -> Result<Vec<ParetoPoint>, ReportError> {
    let items = value.as_arr().ok_or_else(|| ReportError::Schema {
        path: path.to_string(),
        message: "expected an array".into(),
    })?;
    items
        .iter()
        .enumerate()
        .map(|(index, item)| {
            let path = format!("{path}[{index}]");
            Ok(ParetoPoint {
                label: str_field(item, &path, "name")?,
                maximize: f64_field(item, &path, "maximize")?,
                minimize: f64_field(item, &path, "minimize")?,
            })
        })
        .collect()
}

fn episode_json(record: &EpisodeRecord) -> Json {
    Json::Obj(vec![
        ("episode".into(), Json::Int(record.episode as i64)),
        ("name".into(), Json::str(&record.name)),
        ("params".into(), Json::Int(record.params as i64)),
        (
            "trained_params".into(),
            Json::Int(record.trained_params as i64),
        ),
        ("storage_mb".into(), Json::Num(record.storage_mb)),
        ("latency_ms".into(), Json::Num(record.latency_ms)),
        ("accuracy".into(), Json::Num(record.accuracy)),
        ("unfairness".into(), Json::Num(record.unfairness)),
        ("reward".into(), Json::Num(record.reward)),
        ("valid".into(), Json::Bool(record.valid)),
    ])
}

fn frontier_json(points: &[ParetoPoint]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&p.label)),
                    ("maximize".into(), Json::Num(p.maximize)),
                    ("minimize".into(), Json::Num(p.minimize)),
                ])
            })
            .collect(),
    )
}

fn cache_json(stats: &CacheStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::Int(stats.hits as i64)),
        ("misses".into(), Json::Int(stats.misses as i64)),
        ("hit_rate".into(), Json::Num(stats.hit_rate())),
    ])
}

/// Renders one scenario's report.
pub fn scenario_json(scenario: &ScenarioOutcome) -> String {
    ScenarioReport::from_outcome(scenario).to_json().render()
}

/// Renders the whole campaign report (aggregates plus every scenario).
pub fn campaign_json(outcome: &CampaignOutcome) -> String {
    CampaignReport::from_outcome(outcome).to_json().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let value = Json::str("a\"b\\c\nd\te\u{1}");
        let expected = "\"a\\\"b\\\\c\\nd\\te\\u0001\"";
        assert_eq!(value.render(), expected);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Int(-3).render(), "-3");
    }

    #[test]
    fn containers_render_compactly_in_order() {
        let value = Json::Obj(vec![
            ("b".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("a".into(), Json::Int(1)),
        ]);
        assert_eq!(value.render(), r#"{"b":[true,null],"a":1}"#);
    }

    #[test]
    fn parse_inverts_render_on_value_trees() {
        let value = Json::Obj(vec![
            ("s".into(), Json::str("esc \"\\\n\t\u{1} ünïcøde 🎛")),
            ("i".into(), Json::Int(-42)),
            ("n".into(), Json::Num(0.125)),
            ("whole".into(), Json::Num(3.0)),
            ("b".into(), Json::Bool(false)),
            ("z".into(), Json::Null),
            (
                "a".into(),
                Json::Arr(vec![Json::Int(1), Json::str("x"), Json::Null]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = value.render();
        let parsed = Json::parse(&text).unwrap();
        // byte-identical re-render (Num(3.0) renders "3" and comes back as
        // Int(3) — a different variant with the identical rendering)
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let parsed =
            Json::parse(" { \"k\" : [ 1 , 2.5 , \"a\\u0041\\n\\/\\u00e9\" , true , null ] } ")
                .unwrap();
        let items = parsed.get("k").unwrap().as_arr().unwrap();
        assert_eq!(items[0].as_i64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("aA\n/é"));
        assert_eq!(items[3].as_bool(), Some(true));
        assert_eq!(items[4], Json::Null);
    }

    #[test]
    fn parse_handles_surrogate_pairs() {
        let parsed = Json::parse(r#""🎉""#).unwrap();
        assert_eq!(parsed.as_str(), Some("🎉"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for (text, needle) in [
            ("", "end of input"),
            ("{", "expected `\""),
            ("[1,", "end of input"),
            ("[1 2]", "expected `,` or `]`"),
            ("{\"a\" 1}", "expected `:`"),
            ("tru", "expected `true`"),
            ("\"unterminated", "unterminated"),
            ("\"bad \\x escape\"", "bad escape"),
            ("\"\\ud800 lonely\"", "unpaired high surrogate"),
            ("1e999", "overflows"),
            ("01x", "trailing characters"),
            ("{} {}", "trailing characters"),
            ("nan", "expected `true`, `false` or `null`"),
        ] {
            let err = Json::parse(text).unwrap_err();
            let formatted = err.to_string();
            assert!(
                formatted.contains(needle),
                "`{text}` should fail with `{needle}`, got `{formatted}`"
            );
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nest = |open: &str, inner: &str, close: &str, depth: usize| {
            format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
        };
        let at_limit = Json::parse(&nest("[", "", "]", MAX_JSON_DEPTH)).unwrap();
        let mut depth = 1;
        let mut cursor = &at_limit;
        while let Some([inner]) = cursor.as_arr() {
            depth += 1;
            cursor = inner;
        }
        assert_eq!(depth, MAX_JSON_DEPTH);
        assert!(Json::parse(&nest("{\"a\":", "0", "}", MAX_JSON_DEPTH)).is_ok());

        // the error points at the first container past the limit
        for (text, offset) in [
            (nest("[", "", "]", MAX_JSON_DEPTH + 1), MAX_JSON_DEPTH),
            (
                nest("{\"a\":", "0", "}", MAX_JSON_DEPTH + 1),
                5 * MAX_JSON_DEPTH,
            ),
            ("[".repeat(10_000), MAX_JSON_DEPTH),
        ] {
            match Json::parse(&text) {
                Err(ReportError::Json {
                    offset: at,
                    message,
                }) => {
                    assert!(message.contains("nesting deeper"), "{message}");
                    assert_eq!(at, offset);
                }
                other => panic!("over-deep document accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn parsed_integers_keep_their_exact_text() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        // `-0` is not i64-canonical, so it stays a float and re-renders
        // byte-identically
        assert_eq!(Json::parse("-0").unwrap().render(), "-0");
        assert_eq!(Json::parse("1.5e3").unwrap(), Json::Num(1500.0));
    }

    fn small_outcome() -> CampaignOutcome {
        use crate::scenario::CampaignConfig;
        use crate::CampaignEngine;

        CampaignEngine::new(CampaignConfig {
            episodes: 3,
            samples: 120,
            threads: 2,
            devices: vec![edgehw::DeviceKind::RaspberryPi4],
            rewards: vec![crate::RewardSetting::balanced()],
            freezing: vec![true],
            ..CampaignConfig::default()
        })
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn scenario_report_contains_the_headline_fields() {
        let outcome = small_outcome();
        let scenario = &outcome.scenarios[0];
        let report = scenario_json(scenario);
        for needle in [
            r#""scenario":"raspberry_pi_4/balanced/frozen""#,
            r#""device":"Raspberry PI""#,
            r#""device_slug":"raspberry_pi_4""#,
            r#""cache":{"hits":"#,
            r#""valid_ratio":"#,
            r#""accuracy_fairness_frontier":"#,
            r#""wall_clock_ms":"#,
        ] {
            assert!(report.contains(needle), "missing {needle} in {report}");
        }
        let campaign_report = campaign_json(&outcome);
        assert!(campaign_report.contains(r#""scenario_count":1"#));
        assert!(campaign_report.contains(r#""threads":2"#));
    }

    #[test]
    fn typed_reports_round_trip_bit_exactly() {
        let outcome = small_outcome();
        let scenario_text = scenario_json(&outcome.scenarios[0]);
        let parsed = ScenarioReport::parse(&scenario_text).unwrap();
        assert_eq!(parsed.to_json().render(), scenario_text);
        assert_eq!(parsed.device_slug, "raspberry_pi_4");

        let campaign_text = campaign_json(&outcome);
        let parsed = CampaignReport::parse(&campaign_text).unwrap();
        assert_eq!(parsed.to_json().render(), campaign_text);
        assert_eq!(parsed.scenarios.len(), 1);
        assert_eq!(parsed.cache.hits, outcome.cache.hits);
    }

    #[test]
    fn nan_metrics_round_trip_through_null() {
        // a report whose metric went NaN renders the metric as `null`;
        // parsing must hand back NaN (not an opaque schema error), and
        // re-rendering must reproduce the document byte-for-byte
        let outcome = small_outcome();
        let mut report = ScenarioReport::from_outcome(&outcome.scenarios[0]);
        report.valid_ratio = f64::NAN;
        report.wall_clock_ms = f64::INFINITY;
        let text = report.to_json().render();
        assert!(text.contains(r#""valid_ratio":null"#), "{text}");

        let parsed = ScenarioReport::parse(&text).unwrap();
        assert!(parsed.valid_ratio.is_nan());
        assert!(parsed.wall_clock_ms.is_nan(), "∞ collapses to null → NaN");
        assert_eq!(parsed.to_json().render(), text);

        // a non-numeric, non-null value in a numeric slot is still an error
        let err = ScenarioReport::parse(
            &text.replace(r#""valid_ratio":null"#, r#""valid_ratio":"broken""#),
        )
        .unwrap_err();
        assert!(err.to_string().contains("valid_ratio"), "{err}");
    }

    /// A partial report holding exactly the given scenarios of `outcome`.
    fn partial(outcome: &CampaignOutcome, indices: &[usize]) -> CampaignReport {
        let mut report = CampaignReport::from_outcome(outcome);
        report.scenarios = indices
            .iter()
            .map(|&index| report.scenarios[index].clone())
            .collect();
        report
    }

    fn two_scenario_outcome() -> CampaignOutcome {
        use crate::scenario::CampaignConfig;
        use crate::CampaignEngine;

        CampaignEngine::new(CampaignConfig {
            episodes: 3,
            samples: 120,
            threads: 2,
            devices: vec![edgehw::DeviceKind::RaspberryPi4],
            rewards: vec![crate::RewardSetting::balanced()],
            freezing: vec![true, false],
            ..CampaignConfig::default()
        })
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn merge_fuses_partials_in_plan_order() {
        let outcome = two_scenario_outcome();
        let whole = CampaignReport::from_outcome(&outcome);
        let order: Vec<String> = whole.scenarios.iter().map(|s| s.scenario.clone()).collect();
        // partials arrive out of order; the merge restores plan order
        let parts = [partial(&outcome, &[1]), partial(&outcome, &[0])];
        let merged = CampaignReport::merge(&parts, &order).unwrap();
        assert_eq!(merged.scenarios, whole.scenarios);
        assert_eq!(merged.cache.hits, parts[0].cache.hits + parts[1].cache.hits);
        assert_eq!(merged.threads, whole.threads);
        // scenario payloads moved verbatim
        assert_eq!(
            merged.scenarios[0].to_json().render(),
            whole.scenarios[0].to_json().render()
        );
        // canonical forms of merged and whole agree byte-for-byte (the
        // aggregates differ — each partial recounted the shared cache)
        assert_eq!(
            merged.canonical().to_json().render(),
            whole.canonical().to_json().render()
        );
    }

    #[test]
    fn merge_rejects_duplicate_missing_and_unexpected_scenarios() {
        let outcome = two_scenario_outcome();
        let whole = CampaignReport::from_outcome(&outcome);
        let order: Vec<String> = whole.scenarios.iter().map(|s| s.scenario.clone()).collect();

        // the same scenario in two shards → typed duplicate error
        let err = CampaignReport::merge(
            &[partial(&outcome, &[0, 1]), partial(&outcome, &[1])],
            &order,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ReportMergeError::DuplicateScenario(order[1].clone()),
            "{err}"
        );

        // a shard never reported → typed missing error
        let err = CampaignReport::merge(&[partial(&outcome, &[0])], &order).unwrap_err();
        assert_eq!(err, ReportMergeError::MissingScenario(order[1].clone()));

        // a scenario outside the plan → typed unexpected error
        let err = CampaignReport::merge(&[partial(&outcome, &[0, 1])], &order[..1]).unwrap_err();
        assert_eq!(err, ReportMergeError::UnexpectedScenario(order[1].clone()));
    }

    #[test]
    fn nan_metrics_survive_merge_byte_identically() {
        let outcome = two_scenario_outcome();
        let whole = CampaignReport::from_outcome(&outcome);
        let order: Vec<String> = whole.scenarios.iter().map(|s| s.scenario.clone()).collect();
        let mut left = partial(&outcome, &[0]);
        left.scenarios[0].valid_ratio = f64::NAN;
        left.scenarios[0].modelled_search_hours = f64::INFINITY;
        let before = left.scenarios[0].to_json().render();
        assert!(before.contains(r#""valid_ratio":null"#), "{before}");

        let merged = CampaignReport::merge(&[left, partial(&outcome, &[1])], &order).unwrap();
        assert!(merged.scenarios[0].valid_ratio.is_nan());
        assert_eq!(
            merged.scenarios[0].to_json().render(),
            before,
            "NaN scenario must re-render byte-identically after the merge"
        );
        // and the fused document round-trips as a whole
        let text = merged.to_json().render();
        assert_eq!(
            CampaignReport::parse(&text).unwrap().to_json().render(),
            text
        );
    }

    #[test]
    fn schema_violations_name_the_offending_path() {
        let err = CampaignReport::parse(r#"{"threads":2}"#).unwrap_err();
        assert!(matches!(err, ReportError::Schema { .. }), "{err:?}");
        assert!(err.to_string().contains("scenarios"), "{err}");

        let outcome = small_outcome();
        let text =
            campaign_json(&outcome).replace(r#""scenario_count":1"#, r#""scenario_count":5"#);
        let err = CampaignReport::parse(&text).unwrap_err();
        assert!(err.to_string().contains("scenario_count"), "{err}");
    }
}
