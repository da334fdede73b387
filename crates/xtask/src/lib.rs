//! Workspace lint engine behind `cargo xtask lint`.
//!
//! A small rustc-tidy-style static pass over the workspace's own sources
//! (no external dependencies, no proc macros). It shares its front end
//! with `cargo xtask analyze` — one lexer, one test-only predicate, one
//! guard-liveness walker (see [`analyze`]) — and matches its rules against
//! each file's non-test token stream, so nothing inside a comment or a
//! string can fire or waive a rule. The rule families matter specifically
//! to a recovery system, where a panic or a silently dropped error during
//! restart turns "persistent session" into "lost session":
//!
//! * **Panic-path hygiene** (`panic`, `index`, `discard`): non-test code
//!   in recovery-critical modules must not call
//!   `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`,
//!   must not use panicking slice indexing, and must not discard a
//!   `Result` with `let _ =` — errors there have to surface through the
//!   crate's `Result` types so recovery can act on them.
//! * **Lock discipline** (`lock`): no blocking call (condvar waits,
//!   channel receives, file or network I/O) while a
//!   `lock()`/`read()`/`write()` guard is live, except condvar waits that
//!   atomically release the named guard. The check runs inside the lock
//!   walker of [`analyze::locks`], which also infers the lock-order graph
//!   and reports any cycle (`cargo xtask analyze`).
//! * **Error hygiene** (`error`): library code must not type-erase
//!   errors as `Box<dyn Error>` or launder them through `.ok().unwrap()`.
//!
//! Any rule can be waived for one line with a justified annotation:
//!
//! ```text
//! // lint:allow(panic): checksum verified two lines above
//! ```
//!
//! The waiver lives in a plain comment, and its justification is
//! mandatory: a waiver without one, naming an unknown rule, or waiving
//! nothing is itself a violation. Test-only items (a `cfg` that requires
//! `test`) and the `tests/`, `benches/`, `examples/` and `compat/` trees
//! are exempt (only `crates/*/src` is scanned).

pub mod analyze;
pub mod benchgate;

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use analyze::lexer::{Pattern, Tok, TokKind};
use analyze::{Analysis, SrcFile, Workspace};

/// Which rule family a violation belongs to. The lowercase name is what
/// `lint:allow(...)` annotations use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
    /// in recovery-critical non-test code.
    Panic,
    /// Panicking slice/array indexing in recovery-critical non-test code.
    Index,
    /// `let _ =` discard in recovery-critical non-test code.
    Discard,
    /// Blocking call while a lock guard is live.
    Lock,
    /// `Box<dyn Error>` or `.ok().unwrap()` in library code.
    Error,
    /// Raw `thread::sleep` in reconnect/recovery code, where every wait
    /// must flow through `ReconnectPolicy`'s budgeted backoff.
    Sleep,
    /// Duplicate `crashpoint!` name: replay specs (`name#nth`) are only
    /// meaningful when each name identifies one program point.
    Crashpoint,
    /// Raw `println!`/`eprintln!` in library code: diagnostics must flow
    /// through obskit (trace events / metrics) or be returned to the
    /// caller, not write to stdio the harness can't capture.
    Print,
    /// Malformed waiver (no justification, unknown rule) or one that
    /// waives nothing.
    BadAllow,
    /// Cycle in the inferred lock-order graph (`cargo xtask analyze`).
    Deadlock,
    /// Durability site (wal/persist/recovery obskit emission) without a
    /// covering `crashpoint!`.
    Durability,
    /// Crashpoint not referenced by any test scenario.
    Scenario,
    /// Recovery-phase table out of sync with its `NAMES`/emission.
    Phase,
    /// Gauge with constant positive `.add()` sites but no negative site:
    /// the level can only ratchet up, so it is a leak by construction.
    GaugeBalance,
    /// Runtime lockcheck witness contradicting the static graph.
    Witness,
    /// Bench/baseline drift: a bench binary that never emits its JSON
    /// twin, a blessed baseline with no corresponding binary, or a
    /// `gate.extra` manifest entry with no baseline file.
    Bench,
}

impl Rule {
    /// The name used in `lint:allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Index => "index",
            Rule::Discard => "discard",
            Rule::Lock => "lock",
            Rule::Error => "error",
            Rule::Sleep => "sleep",
            Rule::Crashpoint => "crashpoint",
            Rule::Print => "print",
            Rule::BadAllow => "bad_allow",
            Rule::Deadlock => "deadlock",
            Rule::Durability => "durability",
            Rule::Scenario => "scenario",
            Rule::Phase => "phase",
            Rule::GaugeBalance => "gauge_balance",
            Rule::Witness => "witness",
            Rule::Bench => "bench",
        }
    }
}

/// One finding: file, 1-based line, rule and human-readable message.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Which rule families apply to a file. Decided by [`classify`] from the
/// workspace-relative path; tests pass hand-built values to exercise the
/// engine on fixtures.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Panic-path hygiene (`panic`, `index`, `discard`): the
    /// recovery-critical module list.
    pub panic_rules: bool,
    /// Panic-call hygiene only (`panic` tokens, without the index/discard
    /// rules): modules cleared of `unwrap`/`expect` that must stay clear.
    pub panic_call_rules: bool,
    /// Guard-across-blocking (`lock`): concurrency-heavy modules.
    pub lock_rules: bool,
    /// Error hygiene (`error`): all scanned library code.
    pub error_rules: bool,
    /// Unbudgeted-wait hygiene (`sleep`): recovery code where every wait
    /// must go through the reconnect policy's `Backoff`.
    pub sleep_rules: bool,
    /// Stdio hygiene (`print`): library crates must not write raw
    /// `println!`/`eprintln!`; bench and xtask binaries are sanctioned.
    pub print_rules: bool,
}

/// Modules where a panic or swallowed error breaks crash recovery — the
/// session state machine, the client-side persistence layer, the WAL,
/// and the server request loop that replays against them.
const PANIC_CRITICAL: &[&str] = &[
    "crates/core/src/session.rs",
    "crates/core/src/persist.rs",
    "crates/sqlengine/src/wal/",
    "crates/wire/src/server.rs",
];

/// Modules whose non-test code has been cleared of `unwrap`/`expect` and
/// must not regress. The engine, wire, and faultkit crates are all
/// promoted now that their last warn-level sites are gone. These only get
/// the panic-call token rule: they index rows and slices pervasively, so
/// the `index` and `discard` rules stay scoped to [`PANIC_CRITICAL`].
const PANIC_CALLS: &[&str] = &[
    "crates/sqlengine/src/",
    "crates/wire/src/",
    "crates/faultkit/src/",
];

/// Reconnect/recovery code: a raw `thread::sleep` here is a wait that
/// ignores the `ReconnectPolicy` budget (backoff curve, overall
/// deadline), so it can stretch recovery past the promised deadline.
/// The one sanctioned sleep site is `Backoff::wait`, which carries a
/// `lint:allow(sleep)` waiver.
const SLEEP_SCOPE: &[&str] = &["crates/core/src/"];

/// Crates whose binaries legitimately write to stdio: the bench harnesses
/// print their tables and xtask is the dev tool itself. Everything else
/// under `crates/*/src` is library code where raw prints bypass obskit.
const PRINT_SANCTIONED: &[&str] = &["crates/bench/", "crates/xtask/"];

/// Modules that take the ranked locks or block while holding guards.
const LOCK_SCOPE: &[&str] = &[
    "crates/sqlengine/src/txn/",
    "crates/sqlengine/src/storage/",
    "crates/wire/src/server.rs",
];

/// Decide which rules apply to a workspace-relative path (forward
/// slashes). Everything scanned gets the error-hygiene rules.
pub fn classify(rel_path: &str) -> FileClass {
    let hit = |list: &[&str]| list.iter().any(|p| rel_path.starts_with(p));
    FileClass {
        panic_rules: hit(PANIC_CRITICAL),
        panic_call_rules: hit(PANIC_CRITICAL) || hit(PANIC_CALLS),
        lock_rules: hit(LOCK_SCOPE),
        error_rules: true,
        sleep_rules: hit(SLEEP_SCOPE),
        print_rules: !hit(PRINT_SANCTIONED),
    }
}

/// The rule names `lint:allow(...)` accepts: every rule a line can waive.
const WAIVABLE: &[&str] = &[
    "panic", "index", "discard", "lock", "error", "sleep", "print",
];

/// Calls that abort the process when they fire.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Raw stdio macros. Whole-token matching keeps `println!` from also
/// matching inside `eprintln!`.
const PRINT_TOKENS: &[&str] = &["println!", "eprintln!", "print!", "eprint!"];

/// Keywords after which a `[` opens a pattern or a type, not an index.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "in", "return", "match", "if", "while", "for", "break", "where", "yield",
];

/// Panicking index heuristic: a `[` directly after an expression tail —
/// a non-keyword identifier, a number, `)`, `]` or `?` — is an index, not
/// a slice pattern, attribute, array type or literal (`vec![…]` follows
/// a `!`, `#[…]` a `#`).
fn is_index(toks: &[Tok], j: usize) -> bool {
    let Some(prev) = j.checked_sub(1).map(|p| &toks[p]) else {
        return false;
    };
    toks[j].is_punct('[')
        && match prev.kind {
            TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
            TokKind::Num => true,
            TokKind::Punct => prev.is_punct(')') || prev.is_punct(']') || prev.is_punct('?'),
            _ => false,
        }
}

/// The token rules over one file's non-test token stream, before
/// waivers. Each row: whether the rule applies, its token patterns, the
/// rule, and the message (`{tok}` names the matched pattern).
fn token_rules(file: &SrcFile) -> Vec<Violation> {
    let c = file.class;
    let rules: [(bool, &[&'static str], Rule, &str); 6] = [
        (
            c.panic_rules || c.panic_call_rules,
            PANIC_TOKENS,
            Rule::Panic,
            "`{tok}` in recovery-critical code; return an error instead",
        ),
        (
            c.panic_rules,
            &["let _ ="],
            Rule::Discard,
            "`let _ =` discards a result in recovery-critical code",
        ),
        (
            c.print_rules,
            PRINT_TOKENS,
            Rule::Print,
            "raw `{tok}` in library code; emit an obskit event/metric or return the text to \
             the caller",
        ),
        (
            c.sleep_rules,
            &["thread::sleep"],
            Rule::Sleep,
            "raw `thread::sleep` in recovery code; waits must go through \
             `ReconnectPolicy`'s budgeted `Backoff`",
        ),
        (
            c.error_rules,
            &["Box<dyn Error", "Box<dyn std::error::Error"],
            Rule::Error,
            "type-erased `Box<dyn Error>`; use the crate error type",
        ),
        (
            c.error_rules,
            &[".ok().unwrap()"],
            Rule::Error,
            "`.ok().unwrap()` discards the error before panicking on it",
        ),
    ];
    let finding = |line: usize, rule: Rule, message: String| Violation {
        file: PathBuf::from(&file.rel),
        line,
        rule,
        message,
    };
    let mut out = Vec::new();
    for (_, toks, rule, message) in rules.iter().filter(|r| r.0) {
        for tok in *toks {
            for line in Pattern::new(tok).lines_in(&file.toks) {
                out.push(finding(line, *rule, message.replace("{tok}", tok)));
            }
        }
    }
    if c.panic_rules {
        for j in (0..file.toks.len()).filter(|&j| is_index(&file.toks, j)) {
            let message = "panicking slice/array index in recovery-critical code; use .get()";
            out.push(finding(
                file.toks[j].line as usize,
                Rule::Index,
                message.into(),
            ));
        }
    }
    out
}

/// Run every lint rule over a loaded workspace: the token rules, the
/// `lock` rule (taken from `analysis`, the lock walker's run over the
/// same workspace), and crashpoint-name uniqueness. `lint:allow` waivers
/// apply per file; malformed and unused ones are findings themselves.
/// Each rule fires at most once per line.
pub fn lint(ws: &Workspace, analysis: &Analysis) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut crashpoints = Vec::new();
    for file in &ws.files {
        let (allows, bad) = analyze::allows(&file.comments, "lint:allow", WAIVABLE);
        let mut found = token_rules(file);
        found.extend(
            analysis
                .lock_findings
                .iter()
                .filter(|v| v.file == Path::new(&file.rel))
                .cloned(),
        );
        let (waived, found): (Vec<_>, Vec<_>) = found
            .into_iter()
            .partition(|v| allows.waives(v.rule.name(), v.line));
        let unused = allows.unused(|rule, line| {
            waived
                .iter()
                .any(|v| v.rule.name() == rule && v.line == line)
        });
        let mut report: Vec<Violation> = bad
            .into_iter()
            .chain(unused)
            .map(|(line, message)| Violation {
                file: PathBuf::from(&file.rel),
                line,
                rule: Rule::BadAllow,
                message,
            })
            .chain(found)
            .collect();
        report.sort_by_key(|v| v.line);
        let mut seen = HashSet::new();
        report.retain(|v| seen.insert((v.line, v.rule.name(), v.message.clone())));
        out.extend(report);
        for (name, line) in analyze::coverage::crashpoints_in(&file.toks) {
            crashpoints.push((PathBuf::from(&file.rel), line as usize, name));
        }
    }
    out.extend(crashpoint_duplicates(&crashpoints));
    out
}

/// Lint one file's source under the given rule classes. `path` is used
/// only for reporting.
pub fn lint_source(path: &Path, src: &str, class: FileClass) -> Vec<Violation> {
    let rel = path.to_string_lossy();
    let mut ws = Workspace::from_sources(&[(rel.as_ref(), "", src)], &[]);
    ws.files[0].class = class;
    lint(&ws, &analyze::analyze(&ws))
}

/// Check workspace-wide uniqueness of crashpoint names. `sites` holds
/// `(file, line, name)` for every non-test invocation; each name reused
/// across sites yields one violation per duplicate site.
pub fn crashpoint_duplicates(sites: &[(PathBuf, usize, String)]) -> Vec<Violation> {
    let mut first: std::collections::HashMap<&str, (&PathBuf, usize)> =
        std::collections::HashMap::new();
    let mut out = Vec::new();
    for (file, line, name) in sites {
        match first.get(name.as_str()) {
            None => {
                first.insert(name, (file, *line));
            }
            Some((ffile, fline)) => {
                out.push(Violation {
                    file: file.clone(),
                    line: *line,
                    rule: Rule::Crashpoint,
                    message: format!(
                        "crashpoint name {name:?} already used at {}:{fline}; \
                         names must be unique for `name#nth` replay specs",
                        ffile.display()
                    ),
                });
            }
        }
    }
    out
}

/// Lint every `crates/*/src` tree under the workspace root. Returns all
/// violations, sorted by path and line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let ws = analyze::load_workspace(root)?;
    Ok(lint(&ws, &analyze::analyze(&ws)))
}

#[cfg(test)]
mod tests {
    use super::analyze::{allows, lexer};
    use super::*;

    const ALL: FileClass = FileClass {
        panic_rules: true,
        panic_call_rules: true,
        lock_rules: true,
        error_rules: true,
        sleep_rules: true,
        print_rules: true,
    };

    fn lint_str(src: &str, class: FileClass) -> Vec<Violation> {
        lint_source(Path::new("t.rs"), src, class)
    }

    fn lines_of(v: &[Violation], rule: Rule) -> Vec<usize> {
        v.iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    }

    #[test]
    fn lint_ignores_comments_and_strings() {
        let src = "fn f() {\n    let a = \"x.unwrap()\"; // .expect(\n    /* panic!( */ let b = 'c';\n}\n";
        assert!(lint_str(src, ALL).is_empty(), "{:?}", lint_str(src, ALL));
        let live = src.replace("\"x.unwrap()\"", "x.unwrap()");
        assert_eq!(lines_of(&lint_str(&live, ALL), Rule::Panic), vec![2]);
    }

    #[test]
    fn lint_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let r = r#\"a \" .unwrap() \"#; let c = '['; }";
        assert!(lint_str(src, ALL).is_empty(), "{:?}", lint_str(src, ALL));
    }

    #[test]
    fn cfg_test_region_covers_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\n\
                   #[cfg(all(test, unix))]\nmod unix {\n  fn d() { x.unwrap(); }\n}\n\
                   #[cfg(not(test))]\nfn c() { y.unwrap(); }\n";
        let v = lint_str(src, ALL);
        assert_eq!(lines_of(&v, Rule::Panic), vec![11], "{v:?}");
    }

    #[test]
    fn allow_requires_reason() {
        let parse = |src: &str| allows(&lexer::lex_with_comments(src).1, "lint:allow", WAIVABLE);
        let (map, bad) = parse("x(); // lint:allow(panic)\n");
        assert_eq!(bad.len(), 1);
        assert!(!map.waives("panic", 1));
        let (map, bad) = parse("x(); // lint:allow(panic): checked above\n");
        assert!(bad.is_empty());
        assert!(map.waives("panic", 1));
        // A waiver quoted in a string or a doc comment is not a directive.
        let (map, bad) = parse("let s = \"lint:allow(panic): x\";\n/// lint:allow(panic): docs\n");
        assert!(bad.is_empty());
        assert!(map.unused(|_, _| false).is_empty());
    }

    #[test]
    fn comment_only_allow_applies_to_next_line() {
        let src = "// lint:allow(index): bounds checked by caller\nlet x = v[0];\n";
        let (map, bad) = allows(&lexer::lex_with_comments(src).1, "lint:allow", WAIVABLE);
        assert!(bad.is_empty());
        assert!(map.waives("index", 2));
        let panic_rules = FileClass {
            panic_rules: true,
            ..FileClass::default()
        };
        let v = lint_str(src, panic_rules);
        assert!(v.is_empty(), "{v:?}");
        // The same waiver where the rule does not apply waives nothing.
        let v = lint_str(src, FileClass::default());
        assert_eq!(lines_of(&v, Rule::BadAllow), vec![1], "{v:?}");
    }

    #[test]
    fn index_heuristic_distinguishes_uses() {
        let has_index = |src: &str| {
            let toks = lexer::lex(src);
            (0..toks.len()).any(|j| is_index(&toks, j))
        };
        assert!(has_index("let x = data[pos];"));
        assert!(has_index("f()[0]"));
        assert!(has_index("x?[1]"));
        assert!(!has_index("#[cfg(test)]"));
        assert!(!has_index("let v = vec![1, 2];"));
        assert!(!has_index("let [a, b] = pair;"));
        assert!(!has_index("let x: [u8; 4] = y;"));
        assert!(!has_index("fn f(b: &mut [u8]) {}"));
    }

    #[test]
    fn crashpoint_names_extracted_outside_tests() {
        let src = "fn f() {\n    faultkit::crashpoint!(\"wal.append\");\n}\n\
                   // crashpoint!(\"commented.out\")\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { crashpoint!(\"test.only\"); }\n}\n";
        let ws = Workspace::from_sources(&[("a.rs", "c", src)], &[]);
        let names = analyze::coverage::crashpoints_in(&ws.files[0].toks);
        assert_eq!(names, vec![("wal.append".to_string(), 2)]);
    }

    #[test]
    fn duplicate_crashpoint_names_flagged() {
        let sites = vec![
            (PathBuf::from("a.rs"), 3, "wal.append".to_string()),
            (PathBuf::from("b.rs"), 9, "wal.append".to_string()),
            (PathBuf::from("b.rs"), 12, "wal.flush".to_string()),
        ];
        let v = crashpoint_duplicates(&sites);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file, PathBuf::from("b.rs"));
        assert_eq!(v[0].line, 9);
        assert_eq!(v[0].rule, Rule::Crashpoint);
    }

    #[test]
    fn word_match_is_delimited() {
        // A condvar wait releases exactly the guard it names: `state`,
        // not `state2`, and not `restate`.
        let src = "fn f(m: &Mutex<bool>, n: &Mutex<u8>, cv: &Condvar) {\n    \
                   let state2 = n.lock();\n    let mut state = m.lock();\n    \
                   cv.wait(&mut state);\n    cv.wait(restate);\n}\n";
        let v = lint_str(src, ALL);
        let held: Vec<(usize, bool)> = v
            .iter()
            .map(|v| (v.line, v.message.contains("`state2`")))
            .collect();
        assert_eq!(held, vec![(4, true), (5, true), (5, false)], "{v:#?}");
    }
}
