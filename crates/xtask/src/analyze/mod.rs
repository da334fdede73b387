//! phoenix-analyze: a small static-analysis framework over the workspace,
//! and the front end `cargo xtask lint` shares with it.
//!
//! [`load_workspace`] lexes every file once ([`lexer`]) and decides which
//! items are test-only ([`items`]); both subcommands read that one
//! [`Workspace`]. Where the lint rules (in the crate root) judge single
//! token runs, the analyzer builds a model of the whole workspace —
//! structs, impls, functions, call sites — and answers cross-cutting
//! questions:
//!
//! * the **lock-order graph** ([`locks`]): which lock is ever acquired
//!   while which other is held, with cycle detection (potential
//!   deadlocks) and a full `file:line` acquisition chain per cycle;
//! * **instrumentation coverage** ([`coverage`]): durability sites carry
//!   crashpoints, crashpoints are reachable from test scenarios, and the
//!   recovery-phase table is internally consistent;
//! * the **lockcheck witness** ([`check_witness`]): a runtime acquisition
//!   log from `obskit::lockcheck` is validated against the static graph;
//! * **bench coverage** ([`bench`]): every bench binary emits its JSON
//!   twin, and every blessed baseline under `bench_baselines/` still
//!   corresponds to a bench binary (or a `gate.extra` manifest entry).
//!
//! False positives are waived in-source with
//! `// analyze:allow(<pass>): reason` (passes: `lock_edge`,
//! `durability`, `scenario`, `phase`, `gauge_balance`, `bench`). The same
//! parser ([`allows`]) reads `lint:allow`: a waiver lives in a plain
//! comment, applies to its own line (or to the next line when the comment
//! stands alone), needs a reason, and is itself a finding when it names
//! an unknown rule or waives nothing.

pub mod bench;
pub mod coverage;
pub mod items;
pub mod lexer;
pub mod locks;

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use obskit::export::json_str;

use crate::benchgate::json_list;
use crate::{classify, FileClass, Rule, Violation};

/// One parsed waiver: the rule it names, the line it waives and the line
/// of its comment.
#[derive(Debug)]
struct Waiver {
    rule: String,
    line: usize,
    at: usize,
}

/// Waivers collected from one file's comments for one prefix.
#[derive(Debug)]
pub struct AllowMap {
    prefix: &'static str,
    entries: Vec<Waiver>,
}

impl AllowMap {
    /// True when a waiver for `rule` covers `line`.
    pub fn waives(&self, rule: &str, line: usize) -> bool {
        self.entries
            .iter()
            .any(|w| w.rule == rule && w.line == line)
    }

    /// `(comment line, complaint)` for every waiver whose `(rule, line)`
    /// suppressed no finding, as judged by `used`.
    pub fn unused(&self, used: impl Fn(&str, usize) -> bool) -> Vec<(usize, String)> {
        self.entries
            .iter()
            .filter(|w| !used(&w.rule, w.line))
            .map(|w| {
                let msg = format!(
                    "{}({}) waives nothing on line {}",
                    self.prefix, w.rule, w.line
                );
                (w.at, msg)
            })
            .collect()
    }
}

/// An `analyze` finding before waivers: the violation and every
/// `(file, line)` where an `analyze:allow` for its rule suppresses it.
pub struct Waivable<'a> {
    pub violation: Violation,
    pub sites: Vec<(&'a SrcFile, usize)>,
}

impl From<Violation> for Waivable<'_> {
    fn from(violation: Violation) -> Self {
        Waivable {
            violation,
            sites: Vec::new(),
        }
    }
}

pub const ANALYZE_PASSES: &[&str] = &[
    "lock_edge",
    "durability",
    "scenario",
    "phase",
    "gauge_balance",
    "bench",
];

/// Parse `<prefix>(<rule>): reason` waivers out of plain (non-doc)
/// comments. Returns the waivers plus `(line, complaint)` for malformed
/// ones: unterminated, an unknown rule, or no reason. A non-identifier
/// placeholder (`<pass>`, `...`) is documentation, not a directive, and
/// is skipped silently.
pub fn allows(
    comments: &[lexer::Comment],
    prefix: &'static str,
    known: &[&str],
) -> (AllowMap, Vec<(usize, String)>) {
    let mut map = AllowMap {
        prefix,
        entries: Vec::new(),
    };
    let mut bad = Vec::new();
    for c in comments.iter().filter(|c| !c.doc) {
        let Some(pos) = c.text.find(&format!("{prefix}(")) else {
            continue;
        };
        let line = c.line as usize + c.text[..pos].matches('\n').count();
        let rest = &c.text[pos + prefix.len() + 1..];
        let Some(close) = rest.find(')') else {
            bad.push((line, format!("unterminated {prefix}(")));
            continue;
        };
        let rule = rest[..close].trim();
        if rule
            .chars()
            .any(|ch| !ch.is_ascii_lowercase() && !ch.is_ascii_digit() && ch != '_')
        {
            continue;
        }
        if !known.contains(&rule) {
            bad.push((
                line,
                format!("unknown {prefix} rule {rule:?} (expected one of {known:?})"),
            ));
            continue;
        }
        let reasoned = rest[close + 1..]
            .trim_start()
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        if !reasoned {
            bad.push((
                line,
                format!("{prefix}({rule}) without a reason — add `: why`"),
            ));
            continue;
        }
        let own_line = line != c.line as usize || !c.trailing;
        map.entries.push(Waiver {
            rule: rule.to_string(),
            line: if own_line { line + 1 } else { line },
            at: line,
        });
    }
    (map, bad)
}

/// One analyzed source file.
pub struct SrcFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Crate directory name (`core`, `sqlengine`, …) — used to qualify
    /// static lock cells.
    pub crate_name: String,
    /// Which lint rules apply ([`classify`] of `rel`; fixtures override).
    pub class: FileClass,
    /// The non-test token stream: every token outside the test-only
    /// items [`items::extract`] found.
    pub toks: Vec<lexer::Tok>,
    pub comments: Vec<lexer::Comment>,
    pub items: items::FileItems,
    pub allows: AllowMap,
    bad_allows: Vec<(usize, String)>,
}

impl SrcFile {
    fn new(rel: &str, crate_name: &str, src: &str) -> SrcFile {
        let (all, comments) = lexer::lex_with_comments(src);
        let items = items::extract(&all);
        let toks = all
            .into_iter()
            .enumerate()
            .filter(|(k, _)| !items.test_ranges.iter().any(|r| r.contains(k)))
            .map(|(_, t)| t)
            .collect();
        let (allows, bad_allows) = allows(&comments, "analyze:allow", ANALYZE_PASSES);
        SrcFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            class: classify(rel),
            toks,
            comments,
            items,
            allows,
            bad_allows,
        }
    }
}

/// The loaded workspace: all non-fixture sources under `crates/*/src`,
/// plus the string literals of the test corpus (`tests/*.rs` and the
/// integration support crate) for scenario-coverage matching.
pub struct Workspace {
    pub files: Vec<SrcFile>,
    pub test_literals: Vec<String>,
    /// Blessed perf-baseline directories (`bench_baselines/` and its
    /// subsets) for the bench-coverage pass. Empty for fixture
    /// workspaces unless the test populates it.
    pub baseline_dirs: Vec<bench::BaselineDir>,
}

impl Workspace {
    /// Build a workspace from in-memory sources — the fixture tests use
    /// this to analyze synthetic files.
    pub fn from_sources<S: AsRef<str>>(
        files: &[(&str, &str, S)],
        test_sources: &[&str],
    ) -> Workspace {
        let files = files
            .iter()
            .map(|(rel, crate_name, src)| SrcFile::new(rel, crate_name, src.as_ref()))
            .collect();
        let test_literals = test_sources
            .iter()
            .flat_map(|src| {
                lexer::lex(src)
                    .into_iter()
                    .filter(|t| t.kind == lexer::TokKind::Str)
                    .map(|t| t.text)
            })
            .collect();
        Workspace {
            files,
            test_literals,
            baseline_dirs: Vec::new(),
        }
    }
}

/// Load every Rust source under `crates/*/src` (skipping `fixtures`
/// directories) plus the test corpus.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    // `(rel, crate name, source)` for each `crates/<name>/src/**.rs`.
    let mut sources: Vec<(String, String, String)> = Vec::new();
    walk_rs(&root.join("crates"), &mut |p| {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        if let ["crates", name, "src", ..] = rel.split('/').collect::<Vec<_>>()[..] {
            let name = name.to_string();
            sources.push((rel, name, std::fs::read_to_string(p)?));
        }
        Ok(())
    })?;
    let mut test_sources = Vec::new();
    for dir in [root.join("tests"), root.join("crates/integration/src")] {
        if dir.is_dir() {
            walk_rs(&dir, &mut |p| {
                test_sources.push(std::fs::read_to_string(p)?);
                Ok(())
            })?;
        }
    }
    let files = sources
        .iter()
        .map(|(rel, crate_name, src)| (rel.as_str(), crate_name.as_str(), src.as_str()))
        .collect::<Vec<_>>();
    let tests = test_sources.iter().map(String::as_str).collect::<Vec<_>>();
    let mut ws = Workspace::from_sources(&files, &tests);
    ws.baseline_dirs = bench::load_baseline_dirs(root)?;
    Ok(ws)
}

/// Visit every `.rs` file under `dir` in path order, skipping `fixtures`
/// directories (they hold deliberate violations for xtask's own tests).
fn walk_rs(dir: &Path, f: &mut dyn FnMut(&Path) -> std::io::Result<()>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().and_then(|n| n.to_str()) == Some("fixtures") {
                continue;
            }
            walk_rs(&p, f)?;
        } else if p.extension().and_then(|x| x.to_str()) == Some("rs") {
            f(&p)?;
        }
    }
    Ok(())
}

/// Summary counters for the report and the JSON artifact.
#[derive(Debug, Default)]
pub struct Stats {
    pub files: usize,
    pub functions: usize,
    pub acquisitions: usize,
    pub acq_unresolved: usize,
    pub calls_resolved: usize,
    pub calls_unresolved: usize,
    pub nodes: usize,
    pub edges: usize,
    pub edges_waived: usize,
    pub cycles: usize,
    pub crashpoints: usize,
    pub phases_checked: usize,
    pub bench_bins: usize,
}

pub struct Analysis {
    pub graph: locks::LockGraph,
    pub cycles: Vec<locks::Cycle>,
    pub violations: Vec<Violation>,
    /// The `lock` lint rule's findings (blocking calls under a live
    /// guard) from the same walk, before any `lint:allow` waiver.
    pub lock_findings: Vec<Violation>,
    pub stats: Stats,
}

/// Run every pass over a loaded workspace.
pub fn analyze(ws: &Workspace) -> Analysis {
    let (graph, lock_stats, lock_findings) = locks::build_graph(ws);
    let cycles = locks::find_cycles(&graph);
    let mut violations = Vec::new();
    for c in &cycles {
        violations.push(Violation {
            file: PathBuf::from(&c.sites[0].file),
            line: c.sites[0].line as usize,
            rule: Rule::Deadlock,
            message: format!("potential deadlock cycle: {}", c.chain()),
        });
    }
    let (phases_checked, phase_findings) = coverage::phase_pass(ws);
    let found = coverage::durability_pass(ws)
        .into_iter()
        .chain(coverage::scenario_pass(ws))
        .chain(coverage::gauge_balance_pass(ws))
        .chain(bench::bench_pass(ws))
        .chain(phase_findings);
    // The one waiver step: a finding with a waived site is dropped, and
    // every waiver that dropped one (or a lock edge) counts as used.
    let mut used: HashSet<(&str, &str, usize)> = lock_stats
        .waived_edges
        .iter()
        .map(|(rel, line)| (rel.as_str(), "lock_edge", *line))
        .collect();
    for w in found {
        let rule = w.violation.rule.name();
        let waived: Vec<_> = w
            .sites
            .iter()
            .filter(|(f, line)| f.allows.waives(rule, *line))
            .map(|(f, line)| (f.rel.as_str(), rule, *line))
            .collect();
        if waived.is_empty() {
            violations.push(w.violation);
        }
        used.extend(waived);
    }
    for file in &ws.files {
        let unused = file
            .allows
            .unused(|rule, line| used.contains(&(file.rel.as_str(), rule, line)));
        for (line, message) in file.bad_allows.iter().cloned().chain(unused) {
            violations.push(Violation {
                file: PathBuf::from(&file.rel),
                line,
                rule: Rule::BadAllow,
                message,
            });
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    let crashpoints = ws
        .files
        .iter()
        .flat_map(|f| f.items.fns.iter())
        .map(|d| coverage::crashpoints_in(&d.body).len())
        .sum();
    let stats = Stats {
        files: ws.files.len(),
        functions: lock_stats.functions,
        acquisitions: lock_stats.acquisitions,
        acq_unresolved: lock_stats.acq_unresolved,
        calls_resolved: lock_stats.calls_resolved,
        calls_unresolved: lock_stats.calls_unresolved,
        nodes: graph.nodes.len(),
        edges: graph.edges.len(),
        edges_waived: lock_stats.waived_edges.len(),
        cycles: cycles.len(),
        crashpoints,
        phases_checked,
        bench_bins: bench::bench_bins(ws).len(),
    };
    Analysis {
        graph,
        cycles,
        violations,
        lock_findings,
        stats,
    }
}

/// Validate a runtime lockcheck witness (JSON from
/// `obskit::lockcheck::snapshot_json`) against the static graph: a
/// runtime edge `a → b` contradicts the analysis if the static graph
/// orders `b` before `a`, and a runtime lock name the static analysis
/// has never seen is drift.
pub fn check_witness(graph: &locks::LockGraph, text: &str, witness_path: &str) -> Vec<Violation> {
    let mk = |message: String| Violation {
        file: PathBuf::from(witness_path),
        line: 0,
        rule: Rule::Witness,
        message,
    };
    let doc = match obskit::json::Json::parse(text) {
        Ok(d) => d,
        Err(e) => return vec![mk(format!("unparseable lockcheck witness: {e}"))],
    };
    if doc.get("lockcheck").and_then(|v| v.as_f64()) != Some(1.0) {
        return vec![mk("not a lockcheck v1 witness".to_string())];
    }
    let Some(edges) = doc.get("edges").and_then(|v| v.as_arr()) else {
        return vec![mk("lockcheck witness has no edges array".to_string())];
    };
    let mut out = Vec::new();
    for e in edges {
        let (Some(from), Some(to)) = (
            e.get("from").and_then(|v| v.as_str()),
            e.get("to").and_then(|v| v.as_str()),
        ) else {
            out.push(mk(format!("malformed witness edge: {e:?}")));
            continue;
        };
        for n in [from, to] {
            if !graph.nodes.contains(n) {
                out.push(mk(format!(
                    "runtime lock {n:?} is unknown to the static graph — static/dynamic drift"
                )));
            }
        }
        if !graph.nodes.contains(from) || !graph.nodes.contains(to) {
            continue;
        }
        if from == to {
            if !graph
                .edges
                .contains_key(&(from.to_string(), to.to_string()))
            {
                out.push(mk(format!(
                    "runtime re-acquisition of {from:?} has no static self-edge — drift"
                )));
            }
        } else if graph.reaches(to, from) {
            out.push(mk(format!(
                "runtime order {from:?} -> {to:?} contradicts the static graph, which orders \
                 {to:?} before {from:?}"
            )));
        }
    }
    out
}

fn violations_json(violations: &[Violation]) -> String {
    json_list(violations.iter().map(|v| {
        format!(
            "{{\"file\":{},\"line\":{},\"rule\":\"{}\",\"message\":{}}}",
            json_str(&v.file.to_string_lossy()),
            v.line,
            v.rule.name(),
            json_str(&v.message)
        )
    }))
}

/// Machine-readable lint report, schema-versioned like obskit exports.
pub fn lint_json(violations: &[Violation]) -> String {
    format!(
        "{{\"phoenix_lint\":1,\"violations\":{}}}\n",
        violations_json(violations)
    )
}

/// Machine-readable analysis report: violations, the inferred graph, and
/// the pass statistics.
pub fn analysis_json(a: &Analysis) -> String {
    let nodes = json_list(a.graph.nodes.iter().map(|n| json_str(n)));
    let edges = json_list(a.graph.edges.iter().map(|((from, to), site)| {
        format!(
            "{{\"from\":{},\"to\":{},\"file\":{},\"line\":{},\"fn\":{}}}",
            json_str(from),
            json_str(to),
            json_str(&site.file),
            site.line,
            json_str(&site.func)
        )
    }));
    let st = &a.stats;
    format!(
        "{{\"phoenix_analyze\":1,\"violations\":{},\
         \"graph\":{{\"nodes\":{nodes},\"edges\":{edges}}},\"stats\":{{\
         \"files\":{},\"functions\":{},\"acquisitions\":{},\"acq_unresolved\":{},\
         \"calls_resolved\":{},\"calls_unresolved\":{},\"nodes\":{},\"edges\":{},\
         \"edges_waived\":{},\"cycles\":{},\"crashpoints\":{},\"phases_checked\":{},\
         \"bench_bins\":{}}}}}\n",
        violations_json(&a.violations),
        st.files,
        st.functions,
        st.acquisitions,
        st.acq_unresolved,
        st.calls_resolved,
        st.calls_unresolved,
        st.nodes,
        st.edges,
        st.edges_waived,
        st.cycles,
        st.crashpoints,
        st.phases_checked,
        st.bench_bins
    )
}
