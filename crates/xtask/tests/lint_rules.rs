//! Fixture-driven tests for the lint engine: every rule family firing,
//! every rule family passing, the `lint:allow` escape hatch, the
//! test-only exemption, and the malformed-annotation check.

use std::path::{Path, PathBuf};

use xtask::{classify, lint_source, FileClass, Rule, Violation};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    (path, src)
}

fn scan(name: &str, class: FileClass) -> Vec<Violation> {
    let (path, src) = fixture(name);
    lint_source(&path, &src, class)
}

const ALL_RULES: FileClass = FileClass {
    panic_rules: true,
    panic_call_rules: true,
    lock_rules: true,
    error_rules: true,
    sleep_rules: true,
    print_rules: true,
};

fn lines_of(violations: &[Violation], rule: Rule) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn panic_family_fires_on_each_token() {
    let v = scan(
        "panic_violations.rs",
        FileClass {
            panic_rules: true,
            ..FileClass::default()
        },
    );
    assert_eq!(lines_of(&v, Rule::Panic), vec![5, 9, 14, 16, 42]);
    assert_eq!(lines_of(&v, Rule::Index), vec![20]);
    assert_eq!(lines_of(&v, Rule::Discard), vec![24]);
    assert_eq!(lines_of(&v, Rule::BadAllow), vec![46]);
    // Waived lines, comments, strings, and the test-only modules
    // produced nothing beyond the eight above.
    assert_eq!(v.len(), 8, "{v:#?}");
}

fn line_of(src: &str, needle: &str) -> usize {
    src.lines().position(|l| l.contains(needle)).unwrap() + 1
}

#[test]
fn waiver_quoted_in_a_string_does_not_waive() {
    let v = scan(
        "panic_violations.rs",
        FileClass {
            panic_rules: true,
            ..FileClass::default()
        },
    );
    let (_, src) = fixture("panic_violations.rs");
    let quoted = line_of(&src, "let _m = \"lint:allow(panic): x\"; v.unwrap()");
    assert!(lines_of(&v, Rule::Panic).contains(&quoted), "{v:#?}");
}

#[test]
fn waiver_naming_an_unknown_rule_is_flagged() {
    let v = scan(
        "panic_violations.rs",
        FileClass {
            panic_rules: true,
            ..FileClass::default()
        },
    );
    let (_, src) = fixture("panic_violations.rs");
    let typo = line_of(&src, "// lint:allow(panics): typo");
    let bad: Vec<_> = v.iter().filter(|f| f.rule == Rule::BadAllow).collect();
    assert_eq!(bad.len(), 1, "{v:#?}");
    assert_eq!(bad[0].line, typo);
    assert!(bad[0].message.contains("\"panics\""), "{}", bad[0].message);
}

#[test]
fn waiver_that_waives_nothing_is_flagged() {
    // The index waiver in the fixture covers a real finding only while
    // the index rule applies.
    let v = scan(
        "panic_violations.rs",
        FileClass {
            panic_call_rules: true,
            ..FileClass::default()
        },
    );
    let (_, src) = fixture("panic_violations.rs");
    let waiver = line_of(&src, "// lint:allow(index): bounds established");
    let unused: Vec<_> = v
        .iter()
        .filter(|f| f.rule == Rule::BadAllow && f.message.contains("waives nothing"))
        .map(|f| f.line)
        .collect();
    assert_eq!(unused, vec![waiver], "{v:#?}");
}

#[test]
fn allow_waives_same_line_and_next_line() {
    let v = scan(
        "panic_violations.rs",
        FileClass {
            panic_rules: true,
            ..FileClass::default()
        },
    );
    // `allowed_unwrap` (trailing annotation) and `allowed_index`
    // (comment-line annotation) are absent from the findings.
    let (_, src) = fixture("panic_violations.rs");
    let allowed_unwrap_line = src
        .lines()
        .position(|l| l.contains("lint:allow(panic): fixture"))
        .unwrap()
        + 1;
    assert!(lines_of(&v, Rule::Panic)
        .iter()
        .all(|&l| l != allowed_unwrap_line));
}

#[test]
fn cfg_test_module_is_exempt() {
    let (_, src) = fixture("panic_violations.rs");
    let first_test_line = src
        .lines()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap()
        + 1;
    let v = scan("panic_violations.rs", ALL_RULES);
    assert!(
        v.iter().all(|f| f.line < first_test_line),
        "violations inside #[cfg(test)]: {v:#?}"
    );
}

#[test]
fn cfg_all_test_module_is_exempt() {
    let (_, src) = fixture("panic_violations.rs");
    let module = line_of(&src, "#[cfg(all(test, unix))]");
    let v = scan("panic_violations.rs", ALL_RULES);
    assert!(
        v.iter().all(|f| f.line < module),
        "violations inside #[cfg(all(test, unix))]: {v:#?}"
    );
}

#[test]
fn lock_family_fires_and_respects_releases() {
    let v = scan(
        "lock_violations.rs",
        FileClass {
            lock_rules: true,
            ..FileClass::default()
        },
    );
    // Guard held across recv (6), blocking inside an `if let` body whose
    // scrutinee holds a read guard (34), the classic `while let … .lock()`
    // footgun (42), a method-chain write guard (50), file I/O under a
    // guard (56), a guard whose `let` rustfmt split over two lines (69), a
    // `match` scrutinee guard held across its arms (76), and a condvar
    // wait that releases `state` while `state2` stays held (87), and a
    // guard handed back by a workspace wrapper, `PageGuard::write` (104).
    // The condvar wait, drop(), scope-exit, post-body and waived cases
    // must stay quiet. (Acquisition *order* lives in `cargo xtask analyze`.)
    assert_eq!(
        lines_of(&v, Rule::Lock),
        vec![6, 34, 42, 50, 56, 69, 76, 87, 104]
    );
    assert_eq!(v.len(), 9, "{v:#?}");
}

#[test]
fn error_family_fires_on_erasure_and_laundering() {
    let v = scan(
        "error_violations.rs",
        FileClass {
            error_rules: true,
            ..FileClass::default()
        },
    );
    assert_eq!(lines_of(&v, Rule::Error), vec![5, 10, 16]);
    assert_eq!(v.len(), 3, "{v:#?}");
}

#[test]
fn sleep_rule_fires_outside_waivers_and_tests() {
    let v = scan(
        "sleep_violations.rs",
        FileClass {
            sleep_rules: true,
            ..FileClass::default()
        },
    );
    // The raw sleep fires; the waived site and the #[cfg(test)] module
    // stay quiet.
    assert_eq!(lines_of(&v, Rule::Sleep), vec![4]);
    assert_eq!(v.len(), 1, "{v:#?}");
}

#[test]
fn print_rule_fires_in_library_code_only() {
    let v = scan(
        "print_violations.rs",
        FileClass {
            print_rules: true,
            ..FileClass::default()
        },
    );
    // All four macros fire once each; the waived site, the string, the
    // comment, and the #[cfg(test)] module stay quiet.
    assert_eq!(lines_of(&v, Rule::Print), vec![4, 5, 6, 7]);
    assert_eq!(v.len(), 4, "{v:#?}");
}

#[test]
fn clean_fixture_passes_every_rule() {
    let v = scan("clean.rs", ALL_RULES);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn allow_without_reason_is_flagged_and_does_not_waive() {
    let v = scan(
        "bad_allow.rs",
        FileClass {
            panic_rules: true,
            ..FileClass::default()
        },
    );
    assert_eq!(lines_of(&v, Rule::BadAllow), vec![4]);
    // The malformed annotation does NOT suppress the underlying finding.
    assert_eq!(lines_of(&v, Rule::Panic), vec![4]);
}

#[test]
fn classify_maps_recovery_critical_paths() {
    assert!(classify("crates/core/src/session.rs").panic_rules);
    assert!(classify("crates/core/src/persist.rs").panic_rules);
    assert!(classify("crates/sqlengine/src/wal/log.rs").panic_rules);
    assert!(classify("crates/wire/src/server.rs").panic_rules);
    assert!(!classify("crates/sqlengine/src/sql/parser.rs").panic_rules);

    assert!(classify("crates/sqlengine/src/txn/locks.rs").lock_rules);
    assert!(classify("crates/sqlengine/src/storage/buffer.rs").lock_rules);
    assert!(!classify("crates/core/src/session.rs").lock_rules);

    // Everything scanned gets error hygiene.
    assert!(classify("crates/workloads/src/lib.rs").error_rules);

    // Recovery code may not sleep outside the budgeted backoff.
    assert!(classify("crates/core/src/session.rs").sleep_rules);
    assert!(classify("crates/core/src/config.rs").sleep_rules);
    assert!(!classify("crates/sqlengine/src/engine.rs").sleep_rules);

    // The engine, wire and faultkit crates are promoted to the
    // panic-call rule.
    assert!(classify("crates/sqlengine/src/catalog.rs").panic_call_rules);
    assert!(classify("crates/sqlengine/src/sql/parser.rs").panic_call_rules);
    assert!(classify("crates/wire/src/protocol.rs").panic_call_rules);
    assert!(classify("crates/faultkit/src/net.rs").panic_call_rules);
    assert!(!classify("crates/workloads/src/lib.rs").panic_call_rules);

    // Library crates may not write raw stdio; bench/xtask binaries may.
    assert!(classify("crates/core/src/session.rs").print_rules);
    assert!(classify("crates/obskit/src/export.rs").print_rules);
    assert!(!classify("crates/bench/src/lib.rs").print_rules);
    assert!(!classify("crates/xtask/src/main.rs").print_rules);
}

#[test]
fn workspace_lint_is_clean() {
    // The repo itself must stay lint-clean; this is the same scan
    // `cargo xtask lint` runs, so a regression fails the test suite too.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let v = xtask::lint_workspace(root).unwrap();
    assert!(v.is_empty(), "workspace lint regressions: {v:#?}");
}
