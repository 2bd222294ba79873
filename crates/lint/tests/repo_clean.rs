//! The conformance gate, enforced from `cargo test` too: the workspace's
//! own source must scan clean against the checked-in allowlist.

use std::path::Path;

use mccm_lint::{is_allowed, parse_allowlist, scan_workspace, AllowEntry};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

fn allowlist() -> Vec<AllowEntry> {
    let allow_text = std::fs::read_to_string(workspace_root().join("lint-allow.txt"))
        .expect("lint-allow.txt exists at the workspace root");
    parse_allowlist(&allow_text).expect("allowlist parses")
}

#[test]
fn workspace_scans_clean() {
    let findings = scan_workspace(workspace_root(), &allowlist()).expect("scan succeeds");
    assert!(
        findings.is_empty(),
        "mccm-lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn allowlist_prefixes_still_exist() {
    // A stale allowlist entry (file renamed away) would silently allow a
    // future reintroduction at the old path; require entries to point at
    // real files or directories.
    let root = workspace_root();
    for entry in allowlist() {
        assert!(
            root.join(&entry.path_prefix).exists(),
            "allowlist prefix `{}` matches nothing",
            entry.path_prefix
        );
    }
}

#[test]
fn every_allowlist_entry_suppresses_a_finding() {
    // An entry whose file no longer trips its rule would silently allow a
    // future reintroduction there; each one must still be earning its keep.
    let findings = scan_workspace(workspace_root(), &[]).expect("scan succeeds");
    let stale: Vec<String> = allowlist()
        .into_iter()
        .filter(|entry| {
            !findings
                .iter()
                .any(|f| is_allowed(f, std::slice::from_ref(entry)))
        })
        .map(|entry| format!("{} {}", entry.rule.name(), entry.path_prefix))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlist entries that suppress nothing:\n{}",
        stale.join("\n")
    );
}
