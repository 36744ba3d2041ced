//! Tier-1 gate: `fahana-lint` must exit clean over the real workspace.
//! This is the same invocation CI runs; if it fails here, the tree has
//! an unwaived invariant violation.

use std::path::PathBuf;
use std::process::Command;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let output = Command::new(env!("CARGO_BIN_EXE_fahana-lint"))
        .arg(&root)
        .arg("--json")
        .output()
        .expect("fahana-lint binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "fahana-lint found errors in the workspace:\n{stdout}"
    );
    assert!(stdout.starts_with("{\"schema\":\"fahana-lint/v1\""));
    assert!(
        stdout.contains("\"errors\":0"),
        "summary should report zero errors:\n{stdout}"
    );
    // every waiver in the tree is consumed (stale ones are errors) and
    // carries a reason (reasonless ones are waiver-syntax errors) — both
    // already checked by exit status; spot-check the report shape too.
    assert!(
        !stdout.contains("\"used\":false"),
        "report carries a stale waiver:\n{stdout}"
    );
}

#[test]
fn human_render_is_deterministic_across_runs() {
    let root = workspace_root();
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_fahana-lint"))
            .arg(&root)
            .output()
            .expect("fahana-lint binary runs");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert!(first.contains("fahana-lint:"), "summary line present");
}
