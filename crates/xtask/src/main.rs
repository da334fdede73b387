//! `cargo xtask` — workspace dev-tool entry point.
//!
//! * `cargo xtask lint [--json]` — run the token-level lint rules
//!   (see [`xtask::lint`]) over `crates/*/src`.
//! * `cargo xtask analyze [--json] [--witness <path>]` — run the
//!   phoenix-analyze static passes: inferred lock-order graph with
//!   deadlock-cycle detection, instrumentation-coverage cross-checks,
//!   and (with `--witness`) validation of a runtime lockcheck log
//!   against the static graph.
//! * `cargo xtask bench-gate [--json] [--bless] [--results <dir>]
//!   [--baselines <dir>] [--series <path>]... [--series-only]` — compare
//!   the benchmark JSON twins against the blessed baselines with the
//!   tolerance bands from `<baselines>/gate.json`, and/or validate
//!   streaming JSON-lines series files (see [`xtask::benchgate`]).
//! * `cargo xtask ci` — the full pre-merge gate: `fmt --check`,
//!   `clippy`, `doc` (rustdoc warnings denied), `lint`, `analyze`,
//!   `test` (twice: on the default test threads and on one, failing if
//!   any test's outcome differs), fault enumeration, chaos soak, obskit
//!   snapshot and lockcheck witness validation, perf baselines via
//!   `bench-gate`, failing fast on the first broken step.

use std::collections::{BTreeMap, BTreeSet};
use std::env;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use obskit::json::Json;
use xtask::analyze::{Analysis, Workspace};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let witness = args
        .iter()
        .position(|a| a == "--witness")
        .and_then(|i| args.get(i + 1))
        .cloned();
    match args.first().map(String::as_str) {
        Some("lint") => lint(json),
        Some("analyze") => analyze(json, witness.as_deref()),
        Some("bench-gate") => bench_gate(&args[1..]),
        Some("ci") => ci(),
        Some("help") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown xtask `{other}`\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    eprintln!(
        "cargo xtask <command>\n\n\
         commands:\n\
         \x20 lint [--json]\n\
         \x20        token-level lint: panic-path hygiene, lock discipline,\n\
         \x20        error hygiene (waive a line with `// lint:allow(rule): why`)\n\
         \x20 analyze [--json] [--witness <path>]\n\
         \x20        workspace static analysis: inferred lock-order graph with\n\
         \x20        deadlock-cycle detection, instrumentation-coverage passes\n\
         \x20        (waive with `// analyze:allow(<pass>): why`); --witness checks\n\
         \x20        a runtime lockcheck log against the static graph\n\
         \x20 bench-gate [--json] [--bless] [--results <dir>] [--baselines <dir>]\n\
         \x20            [--series <path>]... [--series-only]\n\
         \x20        compare bench_results/*.json against the blessed baselines\n\
         \x20        under bench_baselines/ using <baselines>/gate.json tolerance\n\
         \x20        bands; --bless adopts the current results as the new\n\
         \x20        baselines; --series validates streaming JSON-lines series\n\
         \x20        files (--series-only skips the baseline compare)\n\
         \x20 ci     full pre-merge gate: fmt --check, clippy, doc, lint,\n\
         \x20        analyze, test, seeded fault enumeration, bounded chaos soak,\n\
         \x20        obskit snapshot + lockcheck witness validation,\n\
         \x20        bench-gate perf baselines (fast live subset + series)"
    );
}

/// The workspace root: this binary is compiled in-tree, so the manifest
/// dir of the `xtask` crate is `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}

/// Success when `ok`, failure otherwise.
fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Load the workspace both `lint` and `analyze` read, reporting a
/// failure under `who`.
fn load(who: &str) -> Option<Workspace> {
    match xtask::analyze::load_workspace(&workspace_root()) {
        Ok(ws) => Some(ws),
        Err(e) => {
            eprintln!("xtask {who}: cannot load workspace: {e}");
            None
        }
    }
}

fn lint(json: bool) -> ExitCode {
    match load("lint") {
        Some(ws) => report_lint(&xtask::lint(&ws, &xtask::analyze::analyze(&ws)), json),
        None => ExitCode::FAILURE,
    }
}

fn report_lint(violations: &[xtask::Violation], json: bool) -> ExitCode {
    if json {
        print!("{}", xtask::analyze::lint_json(violations));
        return exit(violations.is_empty());
    }
    if violations.is_empty() {
        println!("xtask lint: clean");
        return ExitCode::SUCCESS;
    }
    for v in violations {
        println!("{v}");
    }
    println!(
        "\nxtask lint: {} violation(s). Fix them or waive a line with\n\
         `// lint:allow({}): <why this line is safe>`.",
        violations.len(),
        violations.first().map_or("rule", |v| v.rule.name())
    );
    ExitCode::FAILURE
}

fn analyze(json: bool, witness: Option<&str>) -> ExitCode {
    let Some(ws) = load("analyze") else {
        return ExitCode::FAILURE;
    };
    let mut analysis = xtask::analyze::analyze(&ws);
    if let Some(wpath) = witness {
        match std::fs::read_to_string(wpath) {
            Ok(text) => {
                let wv = xtask::analyze::check_witness(&analysis.graph, &text, wpath);
                analysis.violations.extend(wv);
            }
            Err(e) => {
                eprintln!("xtask analyze: cannot read witness {wpath}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    report_analysis(&analysis, json)
}

fn report_analysis(analysis: &Analysis, json: bool) -> ExitCode {
    if json {
        print!("{}", xtask::analyze::analysis_json(analysis));
        return exit(analysis.violations.is_empty());
    }
    let st = &analysis.stats;
    println!(
        "xtask analyze: {} files, {} fns, {} lock nodes, {} edges \
         ({} waived), {} cycles, {} crashpoints, {} recovery phases checked, \
         {} bench bins",
        st.files,
        st.functions,
        st.nodes,
        st.edges,
        st.edges_waived,
        st.cycles,
        st.crashpoints,
        st.phases_checked,
        st.bench_bins
    );
    if analysis.violations.is_empty() {
        println!("xtask analyze: clean");
        return ExitCode::SUCCESS;
    }
    for v in &analysis.violations {
        println!("{v}");
    }
    println!(
        "\nxtask analyze: {} violation(s). Fix them or waive with\n\
         `// analyze:allow(<pass>): <why>` (passes: {}).",
        analysis.violations.len(),
        xtask::analyze::ANALYZE_PASSES.join(", ")
    );
    ExitCode::FAILURE
}

/// `cargo xtask bench-gate`: the perf-regression gate. Compares every
/// baseline under `bench_baselines/` against `bench_results/<name>.json`
/// with the tolerance bands from `bench_baselines/gate.json`, optionally
/// validates streaming series files, and with `--bless` adopts the
/// current results as the new baselines first.
fn bench_gate(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let mut json = false;
    let mut do_bless = false;
    let mut series_only = false;
    let mut series: Vec<PathBuf> = Vec::new();
    let mut results = root.join("bench_results");
    let mut baselines = root.join("bench_baselines");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--bless" => do_bless = true,
            "--series-only" => series_only = true,
            flag @ ("--series" | "--results" | "--baselines") => {
                i += 1;
                let Some(path) = args.get(i).map(PathBuf::from) else {
                    eprintln!("xtask bench-gate: {flag} needs a path");
                    return ExitCode::FAILURE;
                };
                match flag {
                    "--series" => series.push(path),
                    "--results" => results = path,
                    _ => baselines = path,
                }
            }
            other => {
                eprintln!("xtask bench-gate: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let cfg = match xtask::benchgate::GateConfig::load(&baselines) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("xtask bench-gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = xtask::benchgate::GateReport::default();
    if do_bless {
        match xtask::benchgate::bless(&results, &baselines) {
            Ok(names) => report.notes.push(format!(
                "blessed {} baseline(s): {}",
                names.len(),
                names.join(", ")
            )),
            Err(e) => {
                eprintln!("xtask bench-gate: bless failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !series_only {
        let dir_report = xtask::benchgate::run_gate(&results, &baselines, &cfg);
        report.deltas.extend(dir_report.deltas);
        report.errors.extend(dir_report.errors);
        report.notes.extend(dir_report.notes);
    }
    for path in &series {
        let errs = xtask::benchgate::check_series(path, &cfg.series);
        report.series.push((path.display().to_string(), errs));
    }
    if json {
        print!("{}", xtask::benchgate::render_json(&report));
    } else {
        print!("{}", xtask::benchgate::render_text(&report));
    }
    exit(!report.failed())
}

/// One step of the CI gate, run from the workspace root.
fn step(name: &str, cmd: &mut Command) -> bool {
    println!("== xtask ci: {name} ==");
    match cmd.status() {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("xtask ci: step `{name}` failed with {s}");
            false
        }
        Err(e) => {
            eprintln!("xtask ci: cannot run step `{name}`: {e}");
            false
        }
    }
}

/// Every test's outcome in one `cargo test` run (`ok`, `FAILED`,
/// `ignored`, …), keyed by the test binary's `Running`/`Doc-tests` line
/// and the test's name.
type Outcomes = BTreeMap<String, String>;

/// Fold one line of non-quiet `cargo test` output into `outcomes`;
/// `binary` tracks the test binary the following lines belong to.
/// Returns whether the line reports a passing test, which the CI log
/// leaves out.
fn record_test_line(line: &str, binary: &mut String, outcomes: &mut Outcomes) -> bool {
    let trimmed = line.trim_start();
    if trimmed.starts_with("Running ") || trimmed.starts_with("Doc-tests ") {
        *binary = trimmed.to_string();
    } else if let Some((test, outcome)) = line
        .strip_prefix("test ")
        .and_then(|l| l.split_once(" ... "))
    {
        outcomes.insert(format!("{binary} :: {test}"), outcome.to_string());
        return outcome == "ok";
    }
    false
}

/// Run a non-quiet `cargo test` as a CI step: echo its output (stdout
/// and stderr through one pipe, so each test line follows its binary's
/// `Running` line) except passing tests' lines, and collect every test's
/// outcome. Returns whether the run succeeded and what each test did.
fn test_step(name: &str, mut cmd: Command) -> (bool, Outcomes) {
    println!("== xtask ci: {name} ==");
    let run = || -> std::io::Result<(bool, Outcomes)> {
        let (reader, writer) = std::io::pipe()?;
        cmd.stdout(writer.try_clone()?).stderr(writer);
        let mut child = cmd.spawn()?;
        // The command holds write ends of the pipe; EOF needs them closed.
        drop(cmd);
        let mut binary = String::new();
        let mut outcomes = Outcomes::new();
        for line in BufReader::new(reader).lines() {
            let line = line?;
            if !record_test_line(&line, &mut binary, &mut outcomes) {
                println!("{line}");
            }
        }
        Ok((child.wait()?.success(), outcomes))
    };
    let (ran, outcomes) = run().unwrap_or_else(|e| {
        eprintln!("xtask ci: cannot run step `{name}`: {e}");
        (false, Outcomes::new())
    });
    let ok = ran && !outcomes.is_empty();
    if !ok {
        eprintln!(
            "xtask ci: step `{name}` failed ({} test outcomes read)",
            outcomes.len()
        );
    }
    (ok, outcomes)
}

/// The tests whose outcome differs between two runs, one line each (a
/// test that ran in only one of them reads `absent` in the other).
fn outcome_differences(parallel: &Outcomes, serial: &Outcomes) -> Vec<String> {
    let keys: BTreeSet<&String> = parallel.keys().chain(serial.keys()).collect();
    let show = |o: Option<&String>| o.map_or("absent", String::as_str).to_string();
    keys.into_iter()
        .filter(|k| parallel.get(*k) != serial.get(*k))
        .map(|k| {
            format!(
                "{k}: {} on the default test threads, {} on one",
                show(parallel.get(k)),
                show(serial.get(k))
            )
        })
        .collect()
}

/// Read and parse one exported JSON artifact, reporting why it is
/// unusable.
fn read_json(path: &Path) -> Option<Json> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask ci: {} unreadable: {e}", path.display());
            return None;
        }
    };
    match Json::parse(&text) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("xtask ci: {} is not valid JSON: {e}", path.display());
            None
        }
    }
}

/// Parse the exported obskit snapshot and check the schema essentials:
/// the version tag, a `histograms` object, and a non-empty timeline from
/// the traced seed.
fn validate_snapshot(path: &Path) -> bool {
    println!("== xtask ci: validate obskit snapshot ==");
    let Some(doc) = read_json(path) else {
        return false;
    };
    let version_ok = doc.get("obskit").and_then(|v| v.as_f64()) == Some(1.0);
    let hists_ok = doc.get("histograms").and_then(|h| h.as_obj()).is_some();
    let events = doc.get("events").and_then(|e| e.as_arr()).map(<[_]>::len);
    if !version_ok || !hists_ok || events.is_none_or(|n| n == 0) {
        eprintln!(
            "xtask ci: snapshot schema check failed \
             (version ok: {version_ok}, histograms ok: {hists_ok}, events: {events:?})"
        );
        return false;
    }
    println!("snapshot ok: {} timeline events", events.unwrap_or(0));
    true
}

/// Parse the group-commit snapshot and check that the 4-session commit
/// mix actually coalesced (see [`group_commit_findings`]).
fn validate_group_commit_snapshot(path: &Path) -> bool {
    println!("== xtask ci: validate group-commit batching ==");
    let Some(doc) = read_json(path) else {
        return false;
    };
    match group_commit_findings(&doc) {
        Ok(summary) => {
            println!("group commit ok: {summary}");
            true
        }
        Err(why) => {
            eprintln!("xtask ci: group commit did not coalesce under the 4-session mix: {why}");
            false
        }
    }
}

/// The group-commit gate, on quantities the schedule cannot move. The
/// raw fsync count can: a session whose `BEGIN` lands after the others
/// park gets a flush of its own. So the gate asks for at most one fsync
/// per two of the mix's commits (`meta.commits`; the count also holds
/// the set-up's few flushes) and a median batch of at least 2 commits
/// per covering fsync. Without group commit every commit forces its own
/// fsync and both fail.
fn group_commit_findings(doc: &Json) -> Result<String, String> {
    let hist = |name: &str| doc.get("histograms").and_then(|h| h.get(name));
    let field = |h: &Json, key: &str| h.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let commits = doc
        .get("meta")
        .and_then(|m| m.get("commits"))
        .and_then(Json::as_str)
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or("snapshot has no meta.commits")?;
    let fsyncs = hist("sqlengine.wal.flush").map_or(0.0, |h| field(h, "count"));
    let batch = hist("wal.flush.batch_size").ok_or("snapshot has no wal.flush.batch_size")?;
    let (batches, p50) = (field(batch, "count"), field(batch, "p50"));
    let per_commit = fsyncs / commits.max(1.0);
    if batches < 1.0 || p50 < 2.0 {
        return Err(format!(
            "batch_size count {batches}, p50 {p50}; need a p50 of at least 2"
        ));
    }
    if per_commit > 0.5 {
        return Err(format!(
            "{fsyncs} fsyncs for {commits} commits ({per_commit:.2} per commit); need at most 0.5"
        ));
    }
    Ok(format!(
        "{fsyncs} fsyncs for {commits} commits ({per_commit:.2} per commit), batch p50 = {p50}"
    ))
}

/// Parse the reconnect-storm snapshot and check that the admission
/// story actually happened: the herd shed, the pending gate's high-water
/// mark respected the configured cap, and every slot drained (active
/// sessions and pending handshakes both back to zero).
fn validate_storm_snapshot(path: &Path) -> bool {
    println!("== xtask ci: validate reconnect-storm admission ==");
    let Some(doc) = read_json(path) else {
        return false;
    };
    let cap = doc
        .get("meta")
        .and_then(|m| m.get("pending_cap"))
        .and_then(|v| v.as_str())
        .and_then(|s| s.parse::<f64>().ok());
    let Some(cap) = cap else {
        eprintln!("xtask ci: storm snapshot has no meta.pending_cap");
        return false;
    };
    // Named to stay out of the analyzer's obskit-emission detector:
    // these *read* exported values, they don't emit instruments.
    let read_counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let read_gauge = |name: &str| {
        doc.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(-1.0)
    };
    let admitted = read_counter("admission.admit");
    let shed = read_counter("admission.shed");
    let peak = read_gauge("admission.pending.peak");
    let active = read_gauge("sessions.active");
    let pending = read_gauge("admission.pending");
    let ok = admitted > 0.0
        && shed > 0.0
        && peak >= 1.0
        && peak <= cap
        && active == 0.0
        && pending == 0.0;
    if !ok {
        eprintln!(
            "xtask ci: storm admission check failed (admitted: {admitted}, shed: {shed}, \
             pending peak: {peak} vs cap {cap}, residual active: {active}, pending: {pending})"
        );
        return false;
    }
    println!(
        "storm ok: {admitted} admits, {shed} sheds, pending peak {peak} <= cap {cap}, \
         all slots drained"
    );
    true
}

/// Validate the runtime lockcheck witness against the statically
/// inferred lock-order graph: every acquisition order observed at
/// runtime must be consistent with (not contradict) the static edges.
fn validate_witness(analysis: &Analysis, path: &Path) -> bool {
    println!("== xtask ci: validate lockcheck witness ==");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask ci: witness {} unreadable: {e}", path.display());
            return false;
        }
    };
    let violations =
        xtask::analyze::check_witness(&analysis.graph, &text, &path.display().to_string());
    if violations.is_empty() {
        println!("witness ok: runtime order consistent with the static graph");
        return true;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    false
}

fn ci() -> ExitCode {
    let root = workspace_root();
    let cargo_bin = env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    // `cargo <args>` run from the workspace root.
    let cargo = |args: &[&str]| {
        let mut cmd = Command::new(&cargo_bin);
        cmd.args(args).current_dir(&root);
        cmd
    };
    // `cargo test -q -p integration-tests --test <args>`.
    let integration_test = |args: &[&str]| {
        let mut cmd = cargo(&["test", "-q", "-p", "integration-tests", "--test"]);
        cmd.args(args);
        cmd
    };

    let fmt_ok = step(
        "fmt --check",
        &mut cargo(&["fmt", "--all", "--", "--check"]),
    );
    // The unwrap/expect baseline is warn-level on purpose (the hard
    // guarantee for recovery-critical modules comes from `lint` below),
    // so those two lints stay advisory while everything else is denied.
    let clippy_ok = fmt_ok
        && step(
            "clippy",
            &mut cargo(&[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
                "-A",
                "clippy::unwrap_used",
                "-A",
                "clippy::expect_used",
            ]),
        );
    // Rustdoc warnings (an unresolved link, a public doc linking a
    // private item) fail the gate like compiler warnings do.
    let doc_ok = clippy_ok
        && step(
            "doc (RUSTDOCFLAGS=-D warnings)",
            cargo(&["doc", "--workspace", "--no-deps"]).env("RUSTDOCFLAGS", "-D warnings"),
        );
    // One workspace load and one analysis serve lint, analyze and the
    // witness check.
    let ws = doc_ok.then(|| load("ci")).flatten();
    let analysis = ws.as_ref().map(xtask::analyze::analyze);
    let lint_ok = ws.as_ref().zip(analysis.as_ref()).is_some_and(|(ws, a)| {
        println!("== xtask ci: lint ==");
        report_lint(&xtask::lint(ws, a), false) == ExitCode::SUCCESS
    });
    let analyze_ok = lint_ok
        && analysis.as_ref().is_some_and(|a| {
            println!("== xtask ci: analyze ==");
            report_analysis(a, false) == ExitCode::SUCCESS
        });
    let (test_ok, parallel) = if analyze_ok {
        test_step("test", cargo(&["test", "--workspace"]))
    } else {
        (false, Outcomes::new())
    };
    // Tier-1 must not depend on how tests are scheduled: tests share
    // process-global registries (faultkit, obskit metrics and trace ring,
    // lockcheck), so the same suite runs again on one test thread and
    // every test must end the same way in both runs.
    let serial_ok = test_ok && {
        let started = Instant::now();
        let mut serial_cmd = cargo(&["test", "--workspace"]);
        serial_cmd.env("RUST_TEST_THREADS", "1");
        let (ran, serial) = test_step("test (RUST_TEST_THREADS=1)", serial_cmd);
        let differences = outcome_differences(&parallel, &serial);
        for d in &differences {
            eprintln!("xtask ci: test outcome differs: {d}");
        }
        println!(
            "xtask ci: one-thread run took {:.0?}; {} test outcome(s) differ",
            started.elapsed(),
            differences.len()
        );
        ran && differences.is_empty()
    };
    // The crashpoint enumeration suite already ran once under `test`;
    // this second pass pins the seeded-schedule proptest to a fixed
    // fault seed so the gate exercises one reproducible schedule set
    // regardless of what the default seed drifts to.
    let faults_ok = serial_ok
        && step(
            "fault enumeration (FAULTKIT_SEED=2026)",
            integration_test(&["fault_injection"]).env("FAULTKIT_SEED", "2026"),
        );

    // Bounded chaos soak: a pinned block of seeds so the gate replays
    // the same randomized fault schedules on every run. The full 64-seed
    // sweep stays a local/manual job (CHAOS_SOAK_SEEDS=64). The soak
    // also streams a per-seed JSON-lines series, validated by the
    // bench-gate series step below.
    let chaos_series = root.join("target").join("xtask-chaos-soak.series.jsonl");
    let soak_ok = faults_ok
        && step(
            "chaos soak (8 pinned seeds)",
            integration_test(&["chaos_soak"])
                .env("CHAOS_SOAK_SEEDS", "8")
                .env("CHAOS_SOAK_BASE", "2026")
                .env("OBSKIT_SERIES", &chaos_series),
        );

    // Storage-fault soak: pinned seeds driving torn writes, bit flips,
    // I/O errors and fsync failures on the simulated disk and WAL
    // devices, mixed with crashes — asserting repair-or-surface for
    // every injected corruption. Failing seeds print a
    // FAULTKIT_REPLAY='disk_chaos:seed#<n>' line.
    let disk_series = root.join("target").join("xtask-disk-chaos.series.jsonl");
    let disk_ok = soak_ok
        && step(
            "disk-fault soak (4 pinned seeds)",
            integration_test(&["disk_chaos"])
                .env("DISK_SOAK_SEEDS", "4")
                .env("DISK_SOAK_BASE", "2026")
                .env("OBSKIT_SERIES", &disk_series),
        );

    // Observability smoke: one trace-enabled chaos seed exports an obskit
    // snapshot, which must come back as well-formed JSON with the schema
    // tag — guarding the exporter the bench twins and timeline dumps use.
    // The same traced run doubles as the lockcheck witness: with
    // OBSKIT_LOCKCHECK set, the chaos harness enables the debug-build
    // lock-order recorder and dumps every (held -> acquired) pair it saw,
    // which is then validated against the statically inferred graph.
    let snapshot = root.join("target").join("xtask-obskit-snapshot.json");
    let witness = root.join("target").join("xtask-lockcheck-witness.json");
    let obs_ok = disk_ok
        && step(
            "obskit snapshot + lockcheck witness (1 traced seed)",
            integration_test(&["chaos_soak"])
                .env("CHAOS_SOAK_SEEDS", "1")
                .env("CHAOS_SOAK_BASE", "2026")
                .env("OBSKIT_SNAPSHOT", &snapshot)
                .env("OBSKIT_LOCKCHECK", &witness),
        )
        && validate_snapshot(&snapshot)
        && analysis
            .as_ref()
            .is_some_and(|a| validate_witness(a, &witness));

    // Group-commit batching gate: run the 4-session commit mix alone
    // (its own process, so the global registry holds only this run) and
    // check the exported wal.flush.batch_size histogram shows real
    // coalescing — a median fsync covering at least 2 commits, i.e.
    // strictly fewer than one fsync per commit.
    let gc_snapshot = root.join("target").join("xtask-group-commit-snapshot.json");
    let gc_ok = obs_ok
        && step(
            "group commit (4-session mix)",
            integration_test(&["group_commit", "four_session_commit_mix_batches_fsyncs"])
                .env("OBSKIT_SNAPSHOT", &gc_snapshot),
        )
        && validate_group_commit_snapshot(&gc_snapshot);

    // Reconnect-storm gate: one pinned storm seed (replay mode, its own
    // process) must shed a real herd through the bounded pending gate,
    // recover every session, and drain every admission slot — validated
    // from the exported snapshot's admission counters and gauges.
    let storm_snapshot = root.join("target").join("xtask-storm-snapshot.json");
    let storm_ok = gc_ok
        && step(
            "reconnect storm (pinned seed 2026)",
            integration_test(&[
                "reconnect_storm",
                "reconnect_storm_sheds_bounded_and_recovers_every_session",
            ])
            .env("FAULTKIT_REPLAY", "reconnect_storm:seed#2026")
            .env("OBSKIT_SNAPSHOT", &storm_snapshot),
        )
        && validate_storm_snapshot(&storm_snapshot);

    // Perf gate 1/2 — fast live subset: re-measure one recovery sweep
    // (fig3 at the default SF 0.02) and a small session-scale sweep with
    // pinned seeds, adopt the group-commit snapshot from the step above,
    // and compare against bench_baselines/ci/ (its own manifest, with
    // bands wide enough for cross-machine wall-clock noise but tight on
    // the deterministic counters).
    let ci_results = root.join("target").join("ci-bench-results");
    let ci_baselines = root.join("bench_baselines").join("ci");
    let scale_series = ci_results.join("session_scale.series.jsonl");
    let subset_ok = storm_ok
        && {
            let _ = std::fs::remove_dir_all(&ci_results);
            step(
                "bench fig3_recovery_client (fast subset, seed 42)",
                cargo(&[
                    "run",
                    "--release",
                    "-q",
                    "-p",
                    "bench",
                    "--bin",
                    "fig3_recovery_client",
                ])
                .env("PHX_SF", "0.02")
                .env("PHX_SEED", "42")
                .env("PHX_RESULTS_DIR", &ci_results),
            )
        }
        && step(
            "bench session_scale (fast subset, seed 2026)",
            cargo(&[
                "run",
                "--release",
                "-q",
                "-p",
                "bench",
                "--bin",
                "session_scale",
            ])
            .env("PHX_SCALE_SWEEP", "16,32,64")
            .env("PHX_SCALE_PENDING", "8")
            .env("PHX_SCALE_SEED", "2026")
            .env("PHX_RESULTS_DIR", &ci_results),
        )
        && {
            let to = ci_results.join("ci_group_commit.json");
            match std::fs::copy(&gc_snapshot, &to) {
                Ok(_) => true,
                Err(e) => {
                    eprintln!(
                        "xtask ci: cannot adopt group-commit snapshot as {}: {e}",
                        to.display()
                    );
                    false
                }
            }
        }
        && {
            println!("== xtask ci: bench-gate (fast subset) ==");
            bench_gate(&[
                "--results".to_string(),
                ci_results.display().to_string(),
                "--baselines".to_string(),
                ci_baselines.display().to_string(),
            ]) == ExitCode::SUCCESS
        };

    // Perf gate 2/2 — streaming series invariants: the soak and scale
    // series written above must be well-formed interval sequences with
    // non-negative deltas, a monotone pending high-water mark bounded by
    // the admission cap, and every session drained by the final mark.
    let series_ok = subset_ok && {
        println!("== xtask ci: bench-gate (series invariants) ==");
        bench_gate(&[
            "--series-only".to_string(),
            "--series".to_string(),
            chaos_series.display().to_string(),
            "--series".to_string(),
            disk_series.display().to_string(),
            "--series".to_string(),
            scale_series.display().to_string(),
        ]) == ExitCode::SUCCESS
    };

    if series_ok {
        println!("== xtask ci: all green ==");
    }
    exit(series_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes_of(log: &str) -> Outcomes {
        let mut binary = String::new();
        let mut outcomes = Outcomes::new();
        for line in log.lines() {
            record_test_line(line, &mut binary, &mut outcomes);
        }
        outcomes
    }

    const LOG: &str = "\
     Running unittests src/lib.rs (target/debug/deps/a-1f)
running 2 tests
test m::same_name ... ok
test m::slow ... ignored, runs for minutes
test result: ok. 1 passed; 0 failed; 1 ignored
     Running tests/it.rs (target/debug/deps/it-2e)
test m::same_name ... FAILED
test m::long has been running for over 60 seconds
   Doc-tests a
test src/lib.rs - f (line 3) ... ok
";

    #[test]
    fn test_lines_are_keyed_by_their_binary() {
        let o = outcomes_of(LOG);
        assert_eq!(o.len(), 4, "{o:?}");
        let get = |k: &str| o.get(k).map(String::as_str);
        assert_eq!(
            get("Running unittests src/lib.rs (target/debug/deps/a-1f) :: m::same_name"),
            Some("ok")
        );
        assert_eq!(
            get("Running tests/it.rs (target/debug/deps/it-2e) :: m::same_name"),
            Some("FAILED")
        );
        assert_eq!(
            get("Running unittests src/lib.rs (target/debug/deps/a-1f) :: m::slow"),
            Some("ignored, runs for minutes")
        );
        assert_eq!(get("Doc-tests a :: src/lib.rs - f (line 3)"), Some("ok"));
    }

    /// A group-commit snapshot with `fsyncs` flushes, of which `batches`
    /// led a batch with median `p50`, for 96 commits.
    fn gc_snapshot(fsyncs: u64, batches: u64, p50: u64) -> Json {
        let text = format!(
            r#"{{"meta": {{"commits": "96"}}, "histograms": {{
                "sqlengine.wal.flush": {{"count": {fsyncs}}},
                "wal.flush.batch_size": {{"count": {batches}, "p50": {p50}}}}}}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn group_commit_gate_ignores_the_schedule_but_not_batching() {
        // The blessed run, and runs where late sessions flushed alone.
        assert!(group_commit_findings(&gc_snapshot(30, 24, 4)).is_ok());
        assert!(group_commit_findings(&gc_snapshot(37, 31, 4)).is_ok());
        // No batching: one fsync per commit (plus set-up flushes).
        assert!(group_commit_findings(&gc_snapshot(102, 96, 1)).is_err());
        // Batches of two-thirds singles: the median falls to 1.
        assert!(group_commit_findings(&gc_snapshot(70, 64, 1)).is_err());
        // Pairs and singles: the median batch is 2, but the fsyncs
        // outnumber half the commits.
        assert!(group_commit_findings(&gc_snapshot(60, 54, 2)).is_err());
        let unlabeled = Json::parse(r#"{"histograms": {}}"#).unwrap();
        assert!(group_commit_findings(&unlabeled).is_err());
    }

    #[test]
    fn differences_name_changed_and_missing_tests() {
        let parallel = outcomes_of(LOG);
        assert!(outcome_differences(&parallel, &parallel).is_empty());
        let mut serial = outcomes_of(&LOG.replace("same_name ... FAILED", "same_name ... ok"));
        serial.remove("Doc-tests a :: src/lib.rs - f (line 3)");
        let d = outcome_differences(&parallel, &serial);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d
            .iter()
            .any(|l| l.ends_with("FAILED on the default test threads, ok on one")));
        assert!(d
            .iter()
            .any(|l| l.ends_with("ok on the default test threads, absent on one")));
    }
}
