//! Rule configuration: which paths get which severity for which rule.
//!
//! Paths are matched as `/`-normalized suffix- or substring-patterns
//! against the repo-relative path, so the config is independent of where
//! the workspace happens to be checked out.

/// How a file is classified for rule purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Production source: every rule runs at full strength.
    Source,
    /// Tests, benches, examples, fixtures: only unsafe-audit rules run
    /// (an undocumented `unsafe` is wrong anywhere), everything else is
    /// off — tests legitimately `unwrap()` and measure wall-clock time.
    Exempt,
}

/// The rule catalog. Rule IDs are what appears in findings, waivers, and
/// the JSON report.
pub const RULE_IDS: &[&str] = &[
    "unsafe-comment",
    "ffi-allowlist",
    "hash-iter",
    "wall-clock",
    "panic",
    "lock-order",
    "lock-blocking",
    "stale-waiver",
    "waiver-syntax",
];

/// Extern "C" declarations the project permits. Everything the reactor's
/// `mod sys` declares today, plus nothing else — growing this list is a
/// deliberate, reviewed act.
pub const FFI_ALLOWLIST: &[&str] = &[
    "poll",
    "pipe",
    "fcntl",
    "read",
    "write",
    "close",
    "setsockopt",
];

/// Calls considered blocking for the lock-blocking rule. `wait` is
/// deliberately absent (condvar `wait` must hold the lock — that is its
/// contract), as is `join` (`Vec::join(", ")` would false-positive).
pub const BLOCKING_CALLS: &[&str] = &["recv", "read_to_end", "read_to_string", "accept", "sleep"];

/// Modules whose output is a rendered artifact (reports, catalogs,
/// metrics renders, HTTP bodies): iterating a `HashMap`/`HashSet` here risks
/// nondeterministic bytes, so `hash-iter` is error-severity.
const RENDER_MODULES: &[&str] = &[
    "crates/runtime/src/report.rs",
    "crates/runtime/src/store.rs",
    "crates/runtime/src/plan.rs",
    "crates/runtime/src/shard.rs",
    "crates/runtime/src/telemetry/metrics.rs",
    "crates/runtime/src/serve/cache.rs",
    "crates/archspace/src/render.rs",
];

/// Modules allowed to read wall-clock time (`Instant::now`,
/// `SystemTime::now`): telemetry, benches, and the serve stack's timeout
/// machinery. Everywhere else, time is nondeterminism.
const TIME_ALLOWED: &[&str] = &[
    "crates/runtime/src/telemetry/",
    "crates/bench/",
    "crates/runtime/src/serve/http.rs",
    "crates/runtime/src/serve/reactor.rs",
    "crates/runtime/src/serve/server.rs",
    "crates/runtime/src/serve/obs.rs",
    "crates/runtime/src/bin/fahana_loadgen.rs",
];

/// Modules on the request path: a panic here kills a connection (or the
/// reactor), so `panic` is error-severity instead of warn.
const REQUEST_PATH: &[&str] = &["crates/runtime/src/serve/"];

/// Path fragments that mark a file as `Exempt`.
const EXEMPT_FRAGMENTS: &[&str] = &["/tests/", "/benches/", "/examples/", "/fixtures/"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warn,
}

/// Static configuration; a single instance describes this repository.
#[derive(Debug, Default)]
pub struct Config;

impl Config {
    pub fn classify(&self, rel_path: &str) -> FileClass {
        let path = normalize(rel_path);
        let prefix_exempt = EXEMPT_FRAGMENTS.iter().any(|f| path.starts_with(&f[1..])); // "tests/…" at the lint root
        if prefix_exempt || EXEMPT_FRAGMENTS.iter().any(|f| path.contains(f)) {
            FileClass::Exempt
        } else {
            FileClass::Source
        }
    }

    /// Whether `hash-iter` applies to this file at error severity.
    pub fn is_render_module(&self, rel_path: &str) -> bool {
        let path = normalize(rel_path);
        RENDER_MODULES.iter().any(|m| path.ends_with(m))
    }

    /// Whether wall-clock reads are permitted in this file.
    pub fn time_allowed(&self, rel_path: &str) -> bool {
        let path = normalize(rel_path);
        TIME_ALLOWED.iter().any(|m| {
            if m.ends_with('/') {
                path.contains(m)
            } else {
                path.ends_with(m)
            }
        })
    }

    /// Severity of the `panic` rule for this file.
    pub fn panic_severity(&self, rel_path: &str) -> Severity {
        let path = normalize(rel_path);
        if REQUEST_PATH.iter().any(|m| path.contains(m)) {
            Severity::Error
        } else {
            Severity::Warn
        }
    }

    pub fn is_known_rule(&self, rule: &str) -> bool {
        RULE_IDS.contains(&rule)
    }
}

/// Normalizes a path for matching: forward slashes, leading `./` removed.
fn normalize(path: &str) -> String {
    let mut p = path.replace('\\', "/");
    while let Some(stripped) = p.strip_prefix("./") {
        p = stripped.to_string();
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let c = Config;
        assert_eq!(c.classify("crates/runtime/src/pool.rs"), FileClass::Source);
        assert_eq!(
            c.classify("crates/runtime/tests/determinism.rs"),
            FileClass::Exempt
        );
        assert_eq!(
            c.classify("crates/lint/tests/fixtures/bad_panic.rs"),
            FileClass::Exempt
        );
    }

    #[test]
    fn scopes() {
        let c = Config;
        assert!(c.is_render_module("crates/runtime/src/report.rs"));
        assert!(!c.is_render_module("crates/runtime/src/pool.rs"));
        assert!(c.time_allowed("crates/runtime/src/telemetry/metrics.rs"));
        assert!(c.time_allowed("crates/runtime/src/serve/reactor.rs"));
        assert!(!c.time_allowed("crates/runtime/src/campaign.rs"));
        assert_eq!(
            c.panic_severity("crates/runtime/src/serve/http.rs"),
            Severity::Error
        );
        assert_eq!(
            c.panic_severity("crates/runtime/src/pool.rs"),
            Severity::Warn
        );
    }

    #[test]
    fn every_scoped_path_exists_in_the_workspace() {
        // a deleted or moved module must not leave a stale entry that
        // silently scopes nothing
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/lint has a workspace root two levels up");
        for path in RENDER_MODULES
            .iter()
            .chain(TIME_ALLOWED)
            .chain(REQUEST_PATH)
        {
            assert!(
                root.join(path).exists(),
                "{path} is configured but missing from the workspace"
            );
        }
    }
}
