//! Multi-session group-commit durability, proven deterministically.
//!
//! The WAL manager's group-commit path (`LogManager::commit_flush`)
//! parks concurrent committers and lets one batch leader fsync for all
//! of them. These tests drive K concurrent committing Phoenix sessions
//! through the schedule explorer, crashing the server at each new
//! `wal.group.*` crashpoint in turn — `wal.group.enqueue` (commit LSN
//! about to park), `wal.group.lead` (leader elected, fsync not yet
//! issued) and `wal.group.wake` (waiter acked, about to return) — and
//! assert the exactly-once ledger after restart: every acknowledged
//! commit is durable, every unacknowledged one is atomically absent (or
//! re-executed exactly once by Phoenix's status-table protocol, never
//! twice). A failing schedule prints a one-line
//! `FAULTKIT_REPLAY='group_commit:<name>#<nth>'` reproduction.
//!
//! The second test is the 4-session commit mix behind the `cargo xtask
//! ci` group-commit gate: it measures batching through the global
//! obskit registry (`wal.flush.batch_size`, `sqlengine.wal.flush`) and
//! exports an `OBSKIT_SNAPSHOT` for the p50 ≥ 2 check.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use integration_tests::{crash_restart_action, explore, record_trace, restart_with_retry};
use phoenix::{ExecKind, PhoenixConfig, PhoenixConnection, ReconnectPolicy};
use sqlengine::Value;
use wire::{DbServer, GroupCommit, ServerConfig};
use workloads::{EngineClient, SqlClient};

fn px_cfg() -> PhoenixConfig {
    let mut cfg = PhoenixConfig {
        reconnect: ReconnectPolicy::fixed(300, Duration::from_millis(5)),
        ..Default::default()
    };
    cfg.driver.buffer_bytes = 256;
    cfg.driver.query_timeout = Some(Duration::from_secs(20));
    cfg
}

/// Server with the batching window open wide enough that a round of
/// concurrent commits reliably coalesces under `instant_net` latencies.
fn grouped_server(max_batch: usize, max_wait: Duration) -> DbServer {
    let mut cfg = ServerConfig::instant_net();
    cfg.group_commit = GroupCommit::on(max_batch, max_wait);
    DbServer::start(cfg).unwrap()
}

fn create_table(server: &DbServer, ddl: &str) {
    let engine = server.engine().unwrap();
    let client = EngineClient::new(engine).unwrap();
    client.execute(ddl).unwrap();
    server.engine().unwrap().checkpoint().unwrap();
}

/// One wrapped insert through a Phoenix session; crashes are masked by
/// the exactly-once status protocol, so the row count is always 1.
fn insert_one(px: &PhoenixConnection, table: &str, id: i64, src: usize) {
    match px.exec(&format!("INSERT INTO {table} VALUES ({id}, {src})")) {
        Ok(ExecKind::RowCount(n)) => assert_eq!(n, 1, "insert of {id} applied once"),
        Ok(other) => panic!("expected row count for insert {id}, got {other:?}"),
        Err(e) => panic!("wrapped insert of {id} failed: {e}"),
    }
}

/// Collect `(id, src)` rows straight from the engine (bypassing Phoenix,
/// so the check sees exactly the durable state recovery produced).
fn table_rows(server: &DbServer, sql: &str) -> Vec<(i64, i64)> {
    let engine = server.engine().unwrap();
    let sid = engine.create_session().unwrap();
    let (_, rows) = engine.execute_collect(sid, sql).unwrap();
    engine.close_session(sid);
    rows.iter()
        .map(|r| {
            let Value::Int(a) = r[0] else {
                panic!("int column: {r:?}")
            };
            let Value::Int(b) = r[1] else {
                panic!("int column: {r:?}")
            };
            (a, b)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Headline: crash at every wal.group.* crashpoint under K sessions
// ---------------------------------------------------------------------------

const SESSIONS: usize = 3;
const ROUNDS: i64 = 2;

/// K committing sessions, ROUNDS commits each, every round released by a
/// barrier so the commits race into the same batching window.
fn run_commit_mix(pxs: &[PhoenixConnection], table: &str) {
    let barrier = Barrier::new(pxs.len());
    std::thread::scope(|s| {
        for (t, px) in pxs.iter().enumerate() {
            let barrier = &barrier;
            s.spawn(move || {
                for i in 0..ROUNDS {
                    barrier.wait();
                    insert_one(px, table, t as i64 * 1000 + i, t);
                }
            });
        }
    });
}

/// The exactly-once ledger, checked from durable state after a restart:
/// every wrapped insert applied exactly once, and `phx_status` holds one
/// contiguous run of request ids per session — no holes (a lost ack
/// would re-execute and collide on the primary key), no duplicates.
fn verify_exactly_once(server: &DbServer, table: &str) {
    let want: Vec<(i64, i64)> = (0..SESSIONS as i64)
        .flat_map(|t| (0..ROUNDS).map(move |i| (t * 1000 + i, t)))
        .collect();
    let mut want = want;
    want.sort_unstable();
    assert_eq!(
        table_rows(server, &format!("SELECT id, src FROM {table} ORDER BY id")),
        want,
        "every acknowledged commit durable, exactly once"
    );

    let status = {
        let engine = server.engine().unwrap();
        let sid = engine.create_session().unwrap();
        let (_, rows) = engine
            .execute_collect(
                sid,
                "SELECT app_key, req_id FROM phx_status ORDER BY app_key, req_id",
            )
            .unwrap();
        engine.close_session(sid);
        rows
    };
    let mut per_session: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for r in &status {
        let Value::Str(key) = &r[0] else {
            panic!("app_key: {r:?}")
        };
        let Value::Int(req) = r[1] else {
            panic!("req_id: {r:?}")
        };
        per_session.entry(key.clone()).or_default().push(req);
    }
    assert_eq!(
        per_session.len(),
        SESSIONS,
        "one status ledger per session: {per_session:?}"
    );
    for (key, reqs) in &per_session {
        assert_eq!(
            reqs,
            &(1..=ROUNDS).collect::<Vec<i64>>(),
            "session {key} must record every wrapped request exactly once"
        );
    }
}

fn mix_setup() -> (DbServer, Vec<PhoenixConnection>) {
    let server = grouped_server(4, Duration::from_millis(2));
    create_table(&server, "CREATE TABLE gc (id INT PRIMARY KEY, src INT)");
    let pxs = (0..SESSIONS)
        .map(|_| PhoenixConnection::connect(&server, px_cfg()).unwrap())
        .collect();
    (server, pxs)
}

/// Crash at each `wal.group.*` crashpoint per recorded hit: the commit
/// mix must still come out exactly-once after recovery.
#[test]
fn crash_at_each_group_commit_point_is_exactly_once() {
    let fk = faultkit::session();
    let (server, pxs) = mix_setup();
    let trace = record_trace(&fk, || run_commit_mix(&pxs, "gc"));
    drop(pxs);
    drop(server);

    // Keep the schedule space deterministic under thread-interleaving
    // noise: `wal.group.enqueue` fires exactly once per wrapped commit,
    // so every recorded hit recurs on replay. Leader and wake hit
    // counts depend on how the batches happened to form, but each of
    // the two barrier rounds needs at least one fresh flush (and its
    // leader then wakes), so the first two hits exist in every run.
    let picked: Vec<_> = trace
        .into_iter()
        .filter(|p| match p.name {
            "wal.group.enqueue" => true,
            "wal.group.lead" | "wal.group.wake" => p.nth <= 2,
            _ => false,
        })
        .collect();
    for name in ["wal.group.enqueue", "wal.group.lead", "wal.group.wake"] {
        assert!(
            picked.iter().any(|p| p.name == name),
            "recorded commit mix never hit {name}: {picked:?}"
        );
    }

    explore("group_commit", &picked, |plan| {
        let (server, pxs) = mix_setup();
        let armed = fk.arm(plan, crash_restart_action(&server));
        run_commit_mix(&pxs, "gc");
        let fired = armed.fired();
        drop(armed);
        assert!(fired.is_some(), "plan {plan:?} never fired");
        // One more clean crash/restart: the assertions below must hold
        // against recovered durable state, not the buffer pool.
        server.crash();
        restart_with_retry(&server, 200);
        verify_exactly_once(&server, "gc");
        drop(pxs);
    });
}

// ---------------------------------------------------------------------------
// The 4-session commit mix behind the `cargo xtask ci` batching gate
// ---------------------------------------------------------------------------

/// Four concurrent committing sessions must coalesce: fewer fsyncs than
/// commits overall, and the average batch a leader's fsync covers ≥ 2.
/// With `OBSKIT_SNAPSHOT` set, exports the registry for the CI check on
/// fsyncs per commit and the `wal.flush.batch_size` p50.
#[test]
fn four_session_commit_mix_batches_fsyncs() {
    // Serializes against the explorer test above (the crashpoint
    // registry and metrics registry are process-global).
    let _fk = faultkit::session();
    let _trace = obskit::trace::session();
    obskit::trace::clear();
    let server = grouped_server(8, Duration::from_millis(2));
    create_table(&server, "CREATE TABLE mix (id INT PRIMARY KEY, src INT)");

    const MIX_SESSIONS: usize = 4;
    const MIX_ROUNDS: i64 = 24;
    let pxs: Vec<PhoenixConnection> = (0..MIX_SESSIONS)
        .map(|_| PhoenixConnection::connect(&server, px_cfg()).unwrap())
        .collect();

    // Deltas, not absolutes: the global registry may already hold
    // samples from other tests in this process.
    let batch_hist = obskit::metrics::global().histogram("wal.flush.batch_size");
    let flush_hist = obskit::metrics::global().histogram("sqlengine.wal.flush");
    let (b0, f0) = (batch_hist.snapshot(), flush_hist.snapshot());

    let barrier = Barrier::new(MIX_SESSIONS);
    std::thread::scope(|s| {
        for (t, px) in pxs.iter().enumerate() {
            let barrier = &barrier;
            s.spawn(move || {
                for i in 0..MIX_ROUNDS {
                    barrier.wait();
                    insert_one(px, "mix", t as i64 * 1000 + i, t);
                }
            });
        }
    });

    let (b1, f1) = (batch_hist.snapshot(), flush_hist.snapshot());
    let commits = (MIX_SESSIONS as u64) * (MIX_ROUNDS as u64);
    let batches = b1.count - b0.count;
    let covered = b1.sum - b0.sum;
    let fsyncs = f1.count - f0.count;
    assert!(
        batches > 0,
        "no batched flush observed over {commits} commits"
    );
    assert!(
        fsyncs < commits,
        "group commit must beat one fsync per commit: {fsyncs} fsyncs for {commits} commits"
    );
    assert!(
        covered >= 2 * batches,
        "mean batch per covering fsync must be ≥ 2: {covered} commits over {batches} fsyncs"
    );

    // Everything acked must survive recovery, exactly once.
    server.crash();
    restart_with_retry(&server, 200);
    let got = table_rows(&server, "SELECT id, src FROM mix ORDER BY id");
    let want: Vec<(i64, i64)> = (0..MIX_SESSIONS as i64)
        .flat_map(|t| (0..MIX_ROUNDS).map(move |i| (t * 1000 + i, t)))
        .collect();
    let mut want = want;
    want.sort_unstable();
    assert_eq!(got, want, "acked commits diverged after recovery");

    // The crashed incarnation's connection threads release their
    // admission slots on their own schedule; export once they have, so
    // the snapshot's `sessions.active` reads the drained value.
    let deadline = Instant::now() + DRAIN_GRACE;
    while server.admission_stats().active != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    write_snapshot_if_requested(commits);
    drop(pxs);
}

/// How long the commit mix waits for the crashed incarnation's
/// connections to release their admission slots before it exports.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// When `OBSKIT_SNAPSHOT=<path>` is set, export the global metrics
/// registry plus the trace timeline, with the mix's commit count as
/// `meta.commits` — `cargo xtask ci` runs the 4-session mix this way and
/// asserts at most 0.5 fsyncs per commit and a `wal.flush.batch_size`
/// p50 ≥ 2.
fn write_snapshot_if_requested(commits: u64) {
    let Ok(path) = std::env::var("OBSKIT_SNAPSHOT") else {
        return;
    };
    let mut meta = BTreeMap::new();
    meta.insert("source".to_string(), "group_commit".to_string());
    meta.insert("commits".to_string(), commits.to_string());
    let json = obskit::export::snapshot_json(
        &meta,
        &obskit::metrics::global().snapshot(),
        &obskit::trace::snapshot(),
    );
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, json).expect("write OBSKIT_SNAPSHOT");
}
