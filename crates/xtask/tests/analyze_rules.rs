//! Fixture-driven tests for `cargo xtask analyze`: the lock-order graph
//! and cycle detection, the coverage passes, waivers, the lockcheck
//! witness check, and a self-test that the real workspace stays clean.

use std::path::Path;

use xtask::analyze::{analyze, check_witness, load_workspace, Workspace};
use xtask::Rule;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap()
}

fn ws_of(name: &str, tests: &[&str]) -> Workspace {
    let src = fixture(name);
    Workspace::from_sources(&[(name, "fixturecrate", src.as_str())], tests)
}

#[test]
fn seeded_cycle_is_flagged_with_full_chain() {
    let a = analyze(&ws_of("analyze_cycle.rs", &[]));
    let deadlocks: Vec<_> = a
        .violations
        .iter()
        .filter(|v| v.rule == Rule::Deadlock)
        .collect();
    assert_eq!(deadlocks.len(), 1, "{:#?}", a.violations);
    let msg = &deadlocks[0].message;
    // The chain names both cells and carries a file:line per edge.
    assert!(msg.contains("Ledger::entries"), "{msg}");
    assert!(msg.contains("Roster::members"), "{msg}");
    assert!(msg.contains("analyze_cycle.rs:"), "{msg}");
    assert!(
        msg.contains("a_then_b") && msg.contains("b_then_a"),
        "{msg}"
    );
    assert_eq!(a.stats.cycles, 1);
}

#[test]
fn acyclic_fixture_passes_with_edges_present() {
    let a = analyze(&ws_of("analyze_acyclic.rs", &[]));
    assert!(a.violations.is_empty(), "{:#?}", a.violations);
    assert_eq!(a.stats.cycles, 0);
    // Both the direct and the through-callee acquisition produce the
    // same ordered edge.
    assert!(a
        .graph
        .edges
        .contains_key(&("Ledger::entries".into(), "Roster::members".into())));
    let site = &a.graph.edges[&("Ledger::entries".into(), "Roster::members".into())];
    assert!(site.file.ends_with("analyze_acyclic.rs"));
}

#[test]
fn lock_edge_waiver_suppresses_one_direction() {
    // Waiving the inverted acquisition in `b_then_a` removes the back
    // edge, so the cycle disappears.
    let src = fixture("analyze_cycle.rs").replace(
        "    let entries = ledger.entries.lock();\n    drop(entries);\n    drop(members);",
        "    // analyze:allow(lock_edge): fixture waiver for the inversion\n    \
         let entries = ledger.entries.lock();\n    drop(entries);\n    drop(members);",
    );
    assert!(src.contains("analyze:allow"), "replacement failed");
    let ws = Workspace::from_sources(&[("analyze_cycle.rs", "fixturecrate", src.as_str())], &[]);
    let a = analyze(&ws);
    assert!(a.violations.is_empty(), "{:#?}", a.violations);
    assert_eq!(a.stats.edges_waived, 1);
}

#[test]
fn only_test_only_cfgs_drop_lock_edges() {
    // `cfg(not(test))` code is live: its edge is in the graph. The
    // `cfg(all(test, unix))` module is test-only: its inverted order adds
    // no back edge, so there is no cycle.
    let a = analyze(&ws_of("analyze_cfg.rs", &[]));
    assert!(a.violations.is_empty(), "{:#?}", a.violations);
    assert!(
        a.graph
            .edges
            .contains_key(&("Ledger::entries".into(), "Roster::members".into())),
        "edges: {:#?}",
        a.graph.edges.keys().collect::<Vec<_>>()
    );
    assert_eq!(a.graph.edges.len(), 1);
    assert_eq!(a.stats.functions, 1);
}

#[test]
fn analyze_allow_that_waives_nothing_is_flagged() {
    let src = "// analyze:allow(durability): nothing here emits\nfn f() {}\n";
    let a = analyze(&Workspace::from_sources(&[("x.rs", "c", src)], &[]));
    assert_eq!(a.violations.len(), 1, "{:#?}", a.violations);
    assert_eq!(a.violations[0].rule, Rule::BadAllow);
    assert_eq!(a.violations[0].line, 1);
    assert!(a.violations[0].message.contains("waives nothing"));
}

#[test]
fn bad_analyze_allow_is_flagged() {
    let src = "fn f() {} // analyze:allow(lock_edge)\n";
    let ws = Workspace::from_sources(&[("x.rs", "c", src)], &[]);
    let a = analyze(&ws);
    assert_eq!(a.violations.len(), 1);
    assert_eq!(a.violations[0].rule, Rule::BadAllow);
}

#[test]
fn sharded_cells_register_and_indexed_acquisitions_resolve() {
    let a = analyze(&ws_of("analyze_sharded.rs", &[]));
    assert!(a.violations.is_empty(), "{:#?}", a.violations);
    assert_eq!(a.stats.cycles, 0);
    // Every striped cell shape is a graph node: Vec<Mutex<_>>,
    // Vec<Shard> with an inner mutex, and a [RwLock<_>; N] array.
    for n in ["Pool::shards", "Stripe::state", "Pool::banks"] {
        assert!(a.graph.nodes.contains(n), "missing node {n}");
    }
    // Indexed acquisitions resolved — none fell through as unresolved
    // `.lock()`-shaped sites.
    assert_eq!(a.stats.acq_unresolved, 0, "{:?}", a.stats);
    // The two-stripe acquisition order is an inferred edge, with the
    // index expressions (including a computed `self.pick(i)`) skipped.
    assert!(
        a.graph
            .edges
            .contains_key(&("Pool::shards".into(), "Stripe::state".into())),
        "edges: {:#?}",
        a.graph.edges.keys().collect::<Vec<_>>()
    );
}

#[test]
fn uncovered_crashpoint_is_flagged_and_prefix_literals_cover() {
    let a = analyze(&ws_of("analyze_uncovered_crashpoint.rs", &[]));
    let scen: Vec<_> = a
        .violations
        .iter()
        .filter(|v| v.rule == Rule::Scenario)
        .collect();
    assert_eq!(scen.len(), 1, "{:#?}", a.violations);
    assert!(scen[0].message.contains("wal.orphan.flush"));

    // An exact literal in the test corpus covers it…
    let covered = analyze(&ws_of(
        "analyze_uncovered_crashpoint.rs",
        &["fn t() { replay(\"wal.orphan.flush\"); }"],
    ));
    assert!(covered.violations.is_empty(), "{:#?}", covered.violations);

    // …and so does a dot-terminated prefix (family scenario).
    let prefixed = analyze(&ws_of(
        "analyze_uncovered_crashpoint.rs",
        &["const FAMILIES: &[&str] = &[\"wal.\"];"],
    ));
    assert!(prefixed.violations.is_empty(), "{:#?}", prefixed.violations);
}

#[test]
fn uninstrumented_durability_site_is_flagged() {
    let a = analyze(&ws_of(
        "analyze_uninstrumented_durability.rs",
        &["const FAMILIES: &[&str] = &[\"persist.\"];"],
    ));
    let dur: Vec<_> = a
        .violations
        .iter()
        .filter(|v| v.rule == Rule::Durability)
        .collect();
    assert_eq!(dur.len(), 1, "{:#?}", a.violations);
    // `persist_meta` is flagged; `covered_persist` (same family, has a
    // crashpoint) is not.
    assert!(
        dur[0].message.contains("persist_meta"),
        "{}",
        dur[0].message
    );
}

#[test]
fn unbalanced_gauge_is_flagged_and_waivable() {
    let a = analyze(&ws_of("analyze_gauge_balance.rs", &[]));
    let gauges: Vec<_> = a
        .violations
        .iter()
        .filter(|v| v.rule == Rule::GaugeBalance)
        .collect();
    // Only the ratchet-up gauge is flagged: the balanced pair, the
    // max-driven peak and the variable-delta site all pass.
    assert_eq!(gauges.len(), 1, "{:#?}", a.violations);
    assert!(gauges[0].message.contains("conn.leak"), "{:#?}", gauges[0]);

    let src = fixture("analyze_gauge_balance.rs").replace(
        "    obskit::metrics::global().gauge(\"conn.leak\").add(1);",
        "    // analyze:allow(gauge_balance): fixture waiver — drained out of band\n    \
         obskit::metrics::global().gauge(\"conn.leak\").add(1);",
    );
    assert!(src.contains("analyze:allow"), "replacement failed");
    let ws = Workspace::from_sources(
        &[("analyze_gauge_balance.rs", "fixturecrate", src.as_str())],
        &[],
    );
    assert!(
        analyze(&ws).violations.is_empty(),
        "{:#?}",
        analyze(&ws).violations
    );
}

#[test]
fn witness_consistent_and_contradicting_edges() {
    let a = analyze(&ws_of("analyze_acyclic.rs", &[]));
    // Consistent with the static order: no findings.
    let ok = r#"{"lockcheck":1,"edges":[{"from":"Ledger::entries","to":"Roster::members"}]}"#;
    assert!(check_witness(&a.graph, ok, "w.json").is_empty());

    // The reverse order contradicts the static graph.
    let bad = r#"{"lockcheck":1,"edges":[{"from":"Roster::members","to":"Ledger::entries"}]}"#;
    let v = check_witness(&a.graph, bad, "w.json");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].rule, Rule::Witness);
    assert!(v[0].message.contains("contradicts"), "{}", v[0].message);

    // A lock name the analyzer has never seen is drift.
    let drift = r#"{"lockcheck":1,"edges":[{"from":"Ghost::cell","to":"Ledger::entries"}]}"#;
    let v = check_witness(&a.graph, drift, "w.json");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert!(v[0].message.contains("drift"), "{}", v[0].message);

    // Garbage input fails closed.
    assert!(!check_witness(&a.graph, "not json", "w.json").is_empty());
}

#[test]
fn workspace_analysis_is_clean_and_finds_the_real_graph() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let ws = load_workspace(root).unwrap();
    let a = analyze(&ws);
    assert!(a.violations.is_empty(), "{:#?}", a.violations);
    assert_eq!(a.stats.cycles, 0);

    // The storage stack's real acquisition order must be inferred: the
    // buffer pool flushes a frame under its stripe's lock (shards →
    // data), the WAL rule flushes the log under the frame lock (data →
    // tail), the flush appends to the durable store (tail → durable),
    // and eviction writes the page out (data → pages).
    for (from, to) in [
        ("BufferPool::shards", "Frame::data"),
        ("Frame::data", "LogManager::tail"),
        ("LogManager::tail", "LogStore::durable"),
        ("Frame::data", "MemDisk::pages"),
    ] {
        assert!(
            a.graph.edges.contains_key(&(from.into(), to.into())),
            "missing inferred edge {from} -> {to}; edges: {:#?}",
            a.graph.edges.keys().collect::<Vec<_>>()
        );
    }
    // Every instrumented lockcheck cell is a node the witness can match.
    for n in [
        "LockShard::state",
        "BufferPool::shards",
        "LogManager::group",
        "Frame::data",
        "LogManager::tail",
        "LogStore::durable",
        "MemDisk::pages",
    ] {
        assert!(a.graph.nodes.contains(n), "missing node {n}");
    }
    assert!(a.stats.crashpoints >= 10, "{:?}", a.stats);
    assert!(a.stats.phases_checked >= 6, "{:?}", a.stats);
    assert!(a.stats.functions > 100, "{:?}", a.stats);
    // The bench-coverage pass sees every bench binary and, in a real
    // checkout, the blessed baseline directories (full set + ci subset).
    assert!(a.stats.bench_bins >= 11, "{:?}", a.stats);
    assert!(ws.baseline_dirs.len() >= 2, "{:?}", ws.baseline_dirs);
}

#[test]
fn bench_bin_without_emit_json_is_flagged_and_waivable() {
    let flagged = "fn main() {\n    run_workload();\n}\n";
    let a = analyze(&Workspace::from_sources(
        &[("crates/bench/src/bin/fig9_lag.rs", "bench", flagged)],
        &[],
    ));
    assert_eq!(a.violations.len(), 1, "{:#?}", a.violations);
    assert_eq!(a.violations[0].rule, Rule::Bench);
    assert!(
        a.violations[0].message.contains("never calls emit_json"),
        "{}",
        a.violations[0].message
    );
    assert_eq!(a.stats.bench_bins, 1);

    // A twin-emitting bin is clean, and the waiver silences the rest.
    let emitting = "fn main() {\n    bench::emit_json(\"fig9_lag\", &[]);\n}\n";
    let waived = "// analyze:allow(bench): prints a table only, by design\nfn main() {\n    run_workload();\n}\n";
    for src in [emitting, waived] {
        let a = analyze(&Workspace::from_sources(
            &[("crates/bench/src/bin/fig9_lag.rs", "bench", src)],
            &[],
        ));
        assert!(a.violations.is_empty(), "{src:?}: {:#?}", a.violations);
    }

    // Helper modules under bin/ are not binaries and carry no duty.
    let a = analyze(&Workspace::from_sources(
        &[("crates/bench/src/bin/common/util.rs", "bench", flagged)],
        &[],
    ));
    assert!(a.violations.is_empty(), "{:#?}", a.violations);
    assert_eq!(a.stats.bench_bins, 0);
}

#[test]
fn baseline_drift_is_flagged_in_both_directions() {
    use xtask::analyze::bench::BaselineDir;
    let fig9 = "fn main() { bench::emit_json(\"fig9_lag\", &[]); }\n";
    let fig10 = "fn main() { bench::emit_json(\"fig10_jitter\", &[]); }\n";
    let mut ws = Workspace::from_sources(
        &[
            ("crates/bench/src/bin/fig9_lag.rs", "bench", fig9),
            ("crates/bench/src/bin/fig10_jitter.rs", "bench", fig10),
        ],
        &[],
    );
    ws.baseline_dirs = vec![
        BaselineDir {
            rel: "bench_baselines".to_string(),
            // fig10_jitter has no baseline here; "ghost" has no binary;
            // "adopted" is declared via gate.extra; "dangling" is an
            // extra entry with no file.
            stems: vec![
                "adopted".to_string(),
                "fig9_lag".to_string(),
                "ghost".to_string(),
            ],
            extra: vec!["adopted".to_string(), "dangling".to_string()],
            manifest_error: None,
        },
        BaselineDir {
            // A curated subset: the stale check applies, completeness
            // does not (fig10_jitter missing here is fine).
            rel: "bench_baselines/ci".to_string(),
            stems: vec!["fig9_lag".to_string(), "stale_sub".to_string()],
            extra: Vec::new(),
            manifest_error: Some("gate.json: unknown key \"tolerance\" in default".to_string()),
        },
    ];
    let a = analyze(&ws);
    let msgs: Vec<&str> = a
        .violations
        .iter()
        .map(|v| {
            assert_eq!(v.rule, Rule::Bench, "{v:#?}");
            v.message.as_str()
        })
        .collect();
    assert_eq!(msgs.len(), 5, "{msgs:#?}");
    assert!(
        msgs.iter()
            .any(|m| m.contains("stale baseline") && m.contains("\"ghost\"")),
        "{msgs:#?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("stale baseline") && m.contains("\"stale_sub\"")),
        "{msgs:#?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("\"dangling\"") && m.contains("no bench_baselines/dangling.json")),
        "{msgs:#?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("\"fig10_jitter\"") && m.contains("no blessed baseline")),
        "{msgs:#?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("unreadable gate manifest") && m.contains("unknown key")),
        "{msgs:#?}"
    );
}
