//! Determinism lints.
//!
//! * `hash-iter` — `HashMap`/`HashSet` named in an artifact-rendering
//!   module. Iteration order of the std hash containers is randomized
//!   per process, so any module whose output bytes are compared across
//!   runs (reports, catalogs, HTTP bodies) must use
//!   `BTreeMap`/`BTreeSet` or carry a waiver explaining why the
//!   container is never iterated for output.
//! * `wall-clock` — `Instant::now` / `SystemTime::now` outside the
//!   modules allowed to observe time (telemetry, benches, serve
//!   timeouts). Wall-clock reads anywhere else leak scheduling noise
//!   into artifacts.
//!
//! `use` statements are skipped for `hash-iter`: importing a type is not
//! using it, and the import line would otherwise need a second waiver.

use crate::config::Severity;
use crate::engine::FileCtx;
use crate::findings::Finding;
use crate::lexer::TokKind;

pub fn run(ctx: &FileCtx) -> Vec<Finding> {
    let mut findings = Vec::new();
    let render = ctx.config.is_render_module(ctx.file);
    let time_ok = ctx.config.time_allowed(ctx.file);

    for (pos, &i) in ctx.code.iter().enumerate() {
        let t = ctx.toks[i];
        if t.kind != TokKind::Ident || ctx.in_attr(i) || ctx.in_test(i) {
            continue;
        }
        let text = t.text(ctx.src);

        if render && (text == "HashMap" || text == "HashSet") && !ctx.in_use(i) {
            findings.push(Finding {
                rule: "hash-iter",
                severity: Severity::Error,
                file: ctx.file.to_string(),
                line: t.line,
                message: format!(
                    "`{text}` in an artifact-rendering module — use BTree{suffix} or \
                     waive with the reason it is never iterated for output",
                    suffix = &text[4..]
                ),
            });
        }

        if !time_ok && (text == "Instant" || text == "SystemTime") {
            // match `Instant::now` / `SystemTime::now`
            let colons = matches!(ctx.peek_code(pos, 1), Some(TokKind::Punct(b':')))
                && matches!(ctx.peek_code(pos, 2), Some(TokKind::Punct(b':')));
            let now = ctx
                .next_code_n(pos, 3)
                .map(|n| ctx.toks[n].kind == TokKind::Ident && ctx.toks[n].text(ctx.src) == "now")
                .unwrap_or(false);
            if colons && now {
                findings.push(Finding {
                    rule: "wall-clock",
                    severity: Severity::Error,
                    file: ctx.file.to_string(),
                    line: t.line,
                    message: format!(
                        "`{text}::now` outside telemetry/bench/serve-timeout modules — \
                         wall-clock reads make artifacts scheduling-dependent"
                    ),
                });
            }
        }
    }
    findings
}
