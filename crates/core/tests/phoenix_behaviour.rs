//! Behavioural tests for Phoenix/ODBC persistent sessions: crash masking,
//! repositioning, exactly-once updates, client caching, and transaction
//! abort surfacing.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::time::Duration;

use odbcsim::{DriverConfig, OdbcConnection};
use phoenix::{
    CacheMode, ExecKind, PhoenixConfig, PhoenixConnection, ReconnectPolicy, RepositionMode,
};
use sqlengine::types::Value;
use sqlengine::Error;
use wire::{DbServer, ServerConfig};

fn quick_policy() -> ReconnectPolicy {
    ReconnectPolicy::fixed(100, Duration::from_millis(20))
}

fn cfg_with(reposition: RepositionMode, cache: CacheMode) -> PhoenixConfig {
    let mut cfg = PhoenixConfig {
        cache,
        reposition,
        reconnect: quick_policy(),
        ..Default::default()
    };
    cfg.driver.query_timeout = Some(Duration::from_secs(10));
    // A small driver buffer so crashes interrupt result delivery rather
    // than being absorbed by client-side buffering.
    cfg.driver.buffer_bytes = 512;
    cfg
}

fn server_with_rows(n: usize) -> DbServer {
    server_with(ServerConfig::instant_net(), n)
}

fn server_with(cfg: ServerConfig, n: usize) -> DbServer {
    let server = DbServer::start(cfg).unwrap();
    let engine = server.engine().unwrap();
    let sid = engine.create_session().unwrap();
    engine
        .execute(sid, "CREATE TABLE items (k INT PRIMARY KEY, v VARCHAR(32))")
        .unwrap();
    for chunk in (0..n).collect::<Vec<_>>().chunks(200) {
        let mut sql = String::from("INSERT INTO items VALUES ");
        for (i, k) in chunk.iter().enumerate() {
            if i > 0 {
                sql.push(',');
            }
            sql.push_str(&format!("({k}, 'value-{k}')"));
        }
        engine.execute(sid, &sql).unwrap();
    }
    engine.close_session(sid);
    server
}

fn restart_after(server: &DbServer, delay: Duration) -> std::thread::JoinHandle<()> {
    let s = server.clone();
    std::thread::spawn(move || {
        std::thread::sleep(delay);
        s.restart().unwrap();
    })
}

#[test]
fn crash_mid_fetch_is_masked_server_reposition() {
    let server = server_with_rows(500);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    let ExecKind::ResultSet { columns } = px.exec("SELECT k, v FROM items ORDER BY k").unwrap()
    else {
        panic!("expected result set")
    };
    assert_eq!(columns.len(), 2);

    // Consume part of the result, then crash (as in §3.4).
    let mut rows = Vec::new();
    for _ in 0..250 {
        rows.push(px.fetch().unwrap().unwrap());
    }
    server.crash();
    let h = restart_after(&server, Duration::from_millis(150));

    // The application never sees the outage.
    while let Some(r) = px.fetch().unwrap() {
        rows.push(r);
    }
    h.join().unwrap();
    assert_eq!(rows.len(), 500);
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r[0], Value::Int(i as i64), "row order preserved at {i}");
        assert_eq!(r[1], Value::Str(format!("value-{i}")));
    }
    assert_eq!(px.stats().recoveries, 1);
    let t = px.last_recovery_timing().unwrap();
    assert!(t.virtual_session > Duration::ZERO);
}

#[test]
fn crash_mid_fetch_is_masked_client_reposition() {
    let server = server_with_rows(300);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Client, CacheMode::Disabled),
    )
    .unwrap();
    px.exec("SELECT k FROM items ORDER BY k").unwrap();
    let mut rows = px.fetch_block(150).unwrap();
    server.crash();
    let h = restart_after(&server, Duration::from_millis(100));
    rows.extend(px.fetch_all().unwrap());
    h.join().unwrap();
    let ks: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ks, (0..300).collect::<Vec<i64>>());
    assert!(px.stats().recoveries >= 1);
}

#[test]
fn repeated_crashes_during_one_result() {
    let server = server_with_rows(400);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    px.exec("SELECT k FROM items ORDER BY k").unwrap();
    let mut got = 0usize;
    for round in 0..3 {
        for _ in 0..100 {
            assert!(px.fetch().unwrap().is_some());
            got += 1;
        }
        server.crash();
        let h = restart_after(&server, Duration::from_millis(80 + round * 20));
        h.join().unwrap();
    }
    got += px.fetch_all().unwrap().len();
    assert_eq!(got, 400);
    assert!(px.stats().recoveries >= 3);
}

#[test]
fn update_statements_have_exactly_once_semantics() {
    let server = server_with_rows(10);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();

    // Normal operation.
    let ExecKind::RowCount(n) = px
        .exec("UPDATE items SET v = 'touched' WHERE k < 5")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(n, 5);

    // Crash *after* the update committed but before the app read the reply
    // cannot be simulated deterministically from outside, but a crash mid
    // retry loop exercises the status-table check path: run a mix of
    // updates around crashes and verify none applied twice.
    px.exec("CREATE TABLE counter (id INT PRIMARY KEY, n INT)")
        .unwrap();
    px.exec("INSERT INTO counter VALUES (1, 0)").unwrap();
    for i in 0..6 {
        if i == 2 || i == 4 {
            server.crash();
            let h = restart_after(&server, Duration::from_millis(100));
            h.join().unwrap();
        }
        let ExecKind::RowCount(n) = px
            .exec("UPDATE counter SET n = n + 1 WHERE id = 1")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(n, 1);
    }
    let rows = px.query_all("SELECT n FROM counter WHERE id = 1").unwrap();
    assert_eq!(
        rows[0][0],
        Value::Int(6),
        "each update applied exactly once"
    );
    assert!(px.stats().updates_wrapped >= 7);
}

#[test]
fn client_cached_results_survive_even_while_server_is_down() {
    let server = server_with_rows(50);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::enabled(1 << 20)),
    )
    .unwrap();
    px.exec("SELECT k, v FROM items ORDER BY k").unwrap();
    // Entire (small) result is cached client-side; crash the server and do
    // NOT restart — delivery still completes.
    server.crash();
    let rows = px.fetch_all().unwrap();
    assert_eq!(rows.len(), 50);
    assert_eq!(px.stats().results_cached, 1);
    assert_eq!(px.stats().results_persisted, 0);
    assert_eq!(px.stats().recoveries, 0, "no recovery was even needed");
    server.restart().unwrap();
}

#[test]
fn client_caching_creates_no_server_tables() {
    let server = server_with_rows(30);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::enabled(1 << 20)),
    )
    .unwrap();
    for _ in 0..5 {
        px.exec("SELECT k FROM items WHERE k < 20").unwrap();
        let rows = px.fetch_all().unwrap();
        assert_eq!(rows.len(), 20);
    }
    // No phx_res_* tables on the server.
    let engine = server.engine().unwrap();
    let names = engine.storage().catalog.table_names();
    assert!(
        names.iter().all(|n| !n.starts_with("phx_res_")),
        "unexpected result tables: {names:?}"
    );
}

#[test]
fn cache_overflow_falls_back_to_server_persistence() {
    let server = server_with_rows(2000);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::enabled(512)),
    )
    .unwrap();
    px.exec("SELECT k, v FROM items ORDER BY k").unwrap();
    let rows = px.fetch_all().unwrap();
    assert_eq!(rows.len(), 2000);
    let stats = px.stats();
    assert_eq!(stats.cache_overflows, 1);
    assert_eq!(stats.results_persisted, 1);
}

#[test]
fn app_transactions_abort_on_crash_but_session_survives() {
    let server = server_with_rows(10);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();

    px.exec("BEGIN TRAN").unwrap();
    px.exec("UPDATE items SET v = 'dirty' WHERE k = 1").unwrap();
    server.crash();
    let h = restart_after(&server, Duration::from_millis(100));
    // The next statement in the transaction surfaces the abort.
    let err = px
        .exec("UPDATE items SET v = 'dirty' WHERE k = 2")
        .unwrap_err();
    assert!(matches!(err, Error::TxnAborted(_)), "got {err:?}");
    h.join().unwrap();

    // Uncommitted work rolled back by server recovery.
    let rows = px.query_all("SELECT v FROM items WHERE k = 1").unwrap();
    assert_eq!(rows[0][0], Value::Str("value-1".into()));

    // The session remains usable: retry the transaction.
    px.exec("BEGIN TRAN").unwrap();
    px.exec("UPDATE items SET v = 'clean' WHERE k = 1").unwrap();
    px.exec("COMMIT").unwrap();
    let rows = px.query_all("SELECT v FROM items WHERE k = 1").unwrap();
    assert_eq!(rows[0][0], Value::Str("clean".into()));
    assert!(px.stats().txn_aborts_surfaced >= 1);
}

#[test]
fn result_tables_are_cleaned_up() {
    let server = server_with_rows(20);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    for _ in 0..4 {
        px.exec("SELECT k FROM items").unwrap();
        px.fetch_all().unwrap();
    }
    px.close_result();
    let engine = server.engine().unwrap();
    let leftovers: Vec<String> = engine
        .storage()
        .catalog
        .table_names()
        .into_iter()
        .filter(|n| n.starts_with("phx_res_"))
        .collect();
    // At most the currently-open (none) result's table may remain.
    assert!(
        leftovers.is_empty(),
        "leftover result tables: {leftovers:?}"
    );
}

#[test]
fn persisted_selects_reuse_dropped_result_pages() {
    let server = server_with_rows(20);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    let run = |n: usize| {
        for _ in 0..n {
            px.exec("SELECT k, v FROM items").unwrap();
            assert_eq!(px.fetch_all().unwrap().len(), 20);
        }
    };
    // Warm up: the first result tables grow the disk, later ones take
    // the pages their dropped predecessors gave back.
    run(10);
    let disk = &server.durable().disk;
    let warm = disk.num_pages();
    run(1000);
    assert_eq!(disk.num_pages(), warm, "persisted SELECTs leak pages");
}

#[test]
fn phoenix_gives_up_when_server_never_returns() {
    let server = server_with_rows(2000);
    let mut cfg = cfg_with(RepositionMode::Server, CacheMode::Disabled);
    cfg.reconnect = ReconnectPolicy::fixed(3, Duration::from_millis(10));
    let px = PhoenixConnection::connect(&server, cfg).unwrap();
    px.exec("SELECT k FROM items").unwrap();
    px.fetch().unwrap();
    server.crash();
    // Server never restarts: once the client-side buffer is exhausted and
    // all reconnect attempts fail, Phoenix degrades gracefully — the error
    // is the *retryable* RecoveryExhausted, not a fatal one, because the
    // virtual session survives the exhausted budget.
    let err = loop {
        match px.fetch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("result cannot complete: server is down"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, Error::RecoveryExhausted), "got {err:?}");
    assert!(err.is_retryable(), "RecoveryExhausted must be retryable");
    assert!(!err.is_connection_fatal());
}

#[test]
fn persist_timing_and_metadata_exposed() {
    let server = server_with_rows(100);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    let ExecKind::ResultSet { columns } = px
        .exec("SELECT k AS key_col, v AS val_col FROM items WHERE k < 10")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(columns[0].0, "key_col");
    assert_eq!(columns[1].0, "val_col");
    let t = px.last_persist_timing().unwrap();
    assert!(t.total() > Duration::ZERO);
    assert_eq!(px.fetch_all().unwrap().len(), 10);
}

#[test]
fn aggregate_results_survive_crash() {
    let server = server_with_rows(500);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    // Aggregate query: result persisted as a table; crash between exec and
    // fetch; values still delivered.
    px.exec("SELECT k % 10 AS bucket, COUNT(*) AS n FROM items GROUP BY k % 10 ORDER BY bucket")
        .unwrap();
    server.crash();
    let h = restart_after(&server, Duration::from_millis(100));
    let rows = px.fetch_all().unwrap();
    h.join().unwrap();
    assert_eq!(rows.len(), 10);
    for r in &rows {
        assert_eq!(r[1], Value::Int(50));
    }
}

#[test]
fn exhausted_budget_preserves_session_and_resumes_on_later_call() {
    let server = server_with_rows(2000);
    let mut cfg = cfg_with(RepositionMode::Server, CacheMode::Disabled);
    // Tiny recovery budget: exhausts quickly while the server is down.
    cfg.reconnect = ReconnectPolicy {
        max_attempts: 100,
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        deadline: Duration::from_millis(150),
        ..Default::default()
    };
    let px = PhoenixConnection::connect(&server, cfg).unwrap();
    px.exec("SELECT k FROM items ORDER BY k").unwrap();
    let mut delivered = 0i64;
    for _ in 0..50 {
        px.fetch().unwrap().unwrap();
        delivered += 1;
    }
    server.crash();
    // Server stays down: a few client-buffered rows may still arrive, then
    // the recovery budget runs out.
    let err = loop {
        match px.fetch() {
            Ok(Some(_)) => delivered += 1,
            Ok(None) => panic!("result cannot complete: server is down"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, Error::RecoveryExhausted), "got {err:?}");
    // A failed recovery performed no reconnect: the counter must not move
    // (the historical over-count incremented it on every attempt).
    assert_eq!(px.stats().recoveries, 0);
    // Still down: the next call re-enters recovery and exhausts again —
    // the session is not poisoned, just waiting.
    let err2 = px.fetch().unwrap_err();
    assert!(matches!(err2, Error::RecoveryExhausted), "got {err2:?}");

    // Server returns: the very next call resumes recovery and delivers
    // the remaining rows from the exact remembered position.
    server.restart().unwrap();
    let mut rest = Vec::new();
    while let Some(r) = px.fetch().unwrap() {
        rest.push(r);
    }
    assert_eq!(rest.len(), (2000 - delivered) as usize);
    assert_eq!(rest[0][0], Value::Int(delivered), "resumed at the position");
    let stats = px.stats();
    assert_eq!(stats.recoveries, 1, "exactly one real reconnect happened");
}

#[test]
fn client_reposition_surfaces_short_persisted_result() {
    let server = server_with_rows(300);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Client, CacheMode::Disabled),
    )
    .unwrap();
    px.exec("SELECT k FROM items ORDER BY k").unwrap();
    for _ in 0..60 {
        px.fetch().unwrap().unwrap();
    }
    // Corrupt the persisted result out of band: most of its rows vanish,
    // so the remembered position (60) now lies beyond the end.
    let engine = server.engine().unwrap();
    let table = engine
        .storage()
        .catalog
        .table_names()
        .into_iter()
        .find(|n| n.starts_with("phx_res_"))
        .expect("persisted result table");
    let sid = engine.create_session().unwrap();
    engine
        .execute(sid, &format!("DELETE FROM {table} WHERE k >= 10"))
        .unwrap();
    engine.close_session(sid);
    server.crash();
    server.restart().unwrap();
    // Client repositioning must notice the truncated result and surface a
    // consistent error — never silently resume at a wrong position. (A few
    // client-buffered rows may still drain first.)
    let err = loop {
        match px.fetch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("truncated result must not complete cleanly"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, Error::Storage(_)), "got {err:?}");
    // The condition is persistent, so a retry reports it again rather
    // than delivering mispositioned rows.
    let err2 = px.fetch().unwrap_err();
    assert!(matches!(err2, Error::Storage(_)), "got {err2:?}");
}

fn result_tables(server: &DbServer) -> Vec<String> {
    let engine = server.engine().unwrap();
    let names = engine.storage().catalog.table_names();
    names
        .into_iter()
        .filter(|n| n.starts_with("phx_res_"))
        .collect()
}

#[test]
fn lost_result_table_is_re_persisted_at_the_delivered_row() {
    for mode in [RepositionMode::Server, RepositionMode::Client] {
        let server = server_with_rows(300);
        let px = PhoenixConnection::connect(&server, cfg_with(mode, CacheMode::Disabled)).unwrap();
        let q = "SELECT k, v FROM items ORDER BY k";
        let reference = px.query_all(q).unwrap();
        px.exec(q).unwrap();
        let mut rows = px.fetch_block(120).unwrap();
        // Lose the open result's table out of band, then crash: restart
        // cannot bring it back, so recovery's reopen answers `NotFound`.
        let lost = result_tables(&server);
        assert_eq!(lost.len(), 1, "{mode:?}: only the open result's table");
        let engine = server.engine().unwrap();
        let sid = engine.create_session().unwrap();
        engine
            .execute(sid, &format!("DROP TABLE {}", lost[0]))
            .unwrap();
        engine.close_session(sid);
        server.crash();
        server.restart().unwrap();

        rows.extend(px.fetch_all().unwrap());
        assert_eq!(
            rows, reference,
            "{mode:?}: same rows, same order, once each"
        );
        assert_eq!(px.stats().recoveries, 1, "{mode:?}");
        let now = result_tables(&server);
        assert_eq!(now.len(), 1, "{mode:?}: the re-persisted table only");
        assert_ne!(now, lost, "{mode:?}: re-persisted under a fresh name");
        px.close_result();
        assert!(
            result_tables(&server).is_empty(),
            "{mode:?}: nothing outlives close_result"
        );
        px.close();
    }
}

#[test]
fn failed_persist_does_not_leak_its_result_table() {
    let server = server_with_rows(10);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    // An older transaction holds a row of `items`, so Phoenix's younger
    // materialization loses the wait-die conflict after it created the
    // result table.
    let raw = OdbcConnection::connect(&server, DriverConfig::default()).unwrap();
    raw.exec_direct("BEGIN TRAN").unwrap();
    raw.exec_direct("UPDATE items SET v = 'held' WHERE k = 1")
        .unwrap();
    let err = px.exec("SELECT k, v FROM items").unwrap_err();
    assert!(matches!(err, Error::Deadlock), "got {err:?}");
    raw.exec_direct("ROLLBACK").unwrap();

    px.exec("SELECT k, v FROM items").unwrap();
    assert_eq!(px.fetch_all().unwrap().len(), 10);
    px.close_result();
    px.close();
    let leftovers = result_tables(&server);
    assert!(
        leftovers.is_empty(),
        "leftover result tables: {leftovers:?}"
    );
}

#[test]
fn failed_wrapped_update_keeps_the_ledger_dense() {
    let server = server_with_rows(0);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    px.exec("INSERT INTO items VALUES (1, 'a')").unwrap();
    let err = px.exec("INSERT INTO items VALUES (1, 'b')").unwrap_err();
    assert!(matches!(err, Error::DuplicateKey(_)), "got {err:?}");
    px.exec("INSERT INTO items VALUES (2, 'c')").unwrap();
    let ledger = px
        .query_all(&format!(
            "SELECT req_id FROM phx_status WHERE app_key = '{}' ORDER BY req_id",
            px.app_key()
        ))
        .unwrap();
    let ids: Vec<i64> = ledger.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![1, 2], "a failed insert left a gap in the ledger");
}

#[test]
fn over_budget_statement_surfaces_server_busy_and_session_survives_the_drop() {
    let mut scfg = ServerConfig::instant_net();
    scfg.admission.session_budget_bytes = wire::admission::SLOT_BASE_BYTES + 512;
    let server = server_with(scfg, 20);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();

    // Materializing 9 rows charges 9 * 64 = 576 bytes, past the 512 the
    // budget leaves. The reopen travels in the same batch as the load, so
    // the result itself is delivered in full.
    px.exec("SELECT k, v FROM items WHERE k < 9").unwrap();
    assert_eq!(px.fetch_all().unwrap().len(), 9);

    // The next request that retires nothing is shed. A shed is
    // statement-level, so Phoenix surfaces it rather than masking it.
    let insert = "INSERT INTO items VALUES (100, 'late')";
    let err = px.exec(insert).unwrap_err();
    assert!(
        matches!(err, Error::ServerBusy { .. }),
        "expected ServerBusy, got {err:?}"
    );
    assert_eq!(px.stats().recoveries, 0, "a shed is not a failure");

    // Dropping the result table is admitted and restores service.
    px.close_result();
    assert!(result_tables(&server).is_empty());
    assert_eq!(px.exec(insert).unwrap(), ExecKind::RowCount(1));
    assert_eq!(px.stats().recoveries, 0);
}

#[test]
fn result_table_charges_are_released_by_the_batch_that_drops_them() {
    let mut scfg = ServerConfig::instant_net();
    scfg.admission.session_budget_bytes = wire::admission::SLOT_BASE_BYTES + 512;
    let server = server_with(scfg, 20);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    let idle = server.admission_stats().bytes_active;
    // Each result is 3 rows (192 bytes) and only one result table is live
    // at a time, so every one fits: the batch that loads a result drops
    // its predecessor and releases that table's charge.
    for i in 0..10 {
        px.exec("SELECT k FROM items WHERE k < 3")
            .unwrap_or_else(|e| panic!("result {i}: {e:?}"));
        assert_eq!(px.fetch_all().unwrap().len(), 3, "result {i}");
        assert_eq!(result_tables(&server).len(), 1, "result {i}");
    }
    px.close_result();
    assert_eq!(
        server.admission_stats().bytes_active,
        idle,
        "no result table stays charged after close_result"
    );
    assert_eq!(px.stats().recoveries, 0);
}

/// A SELECT that fails inside an application transaction rolls the
/// transaction back, through Phoenix exactly as through the native driver:
/// the persist batch runs on the application connection.
#[test]
fn failing_select_in_a_transaction_behaves_as_natively() {
    let server = server_with_rows(5);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    let native = OdbcConnection::connect(&server, DriverConfig::default()).unwrap();
    let bad = "SELECT no_such_column FROM items";

    px.exec("BEGIN TRAN").unwrap();
    px.exec("UPDATE items SET v = 'phoenix' WHERE k = 1")
        .unwrap();
    let px_err = px.exec(bad).unwrap_err();
    let px_commit = px.exec("COMMIT").map(|_| ()).map_err(|e| e.to_string());

    native.exec_direct("BEGIN TRAN").unwrap();
    native
        .exec_direct("UPDATE items SET v = 'native' WHERE k = 2")
        .unwrap();
    let native_err = native.exec_direct(bad).err().unwrap();
    let native_commit = native
        .exec_direct("COMMIT")
        .map(|_| ())
        .map_err(|e| e.to_string());

    assert_eq!(
        std::mem::discriminant(&px_err),
        std::mem::discriminant(&native_err),
        "phoenix {px_err:?}, native {native_err:?}"
    );
    assert_eq!(px_commit, native_commit);
    assert!(px_commit.is_err(), "the failure ended the transaction");
    // Both updates were rolled back with their transactions.
    let rows = px
        .query_all("SELECT v FROM items WHERE k < 3 ORDER BY k")
        .unwrap();
    let values: Vec<Value> = rows.into_iter().map(|mut r| r.remove(0)).collect();
    let want = ["value-0", "value-1", "value-2"].map(|v| Value::Str(v.into()));
    assert_eq!(values, want);
    assert_eq!(px.stats().recoveries, 0);
}

#[test]
fn line_comments_in_persisted_selects_are_transparent() {
    let server = server_with_rows(10);
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    let native = OdbcConnection::connect(&server, DriverConfig::default()).unwrap();
    // A `--` comment before FROM, one at the very end, and a constant
    // select list whose FROM clause follows a comment. Each query after
    // the first travels in a batch that also retires its predecessor.
    for sql in [
        "SELECT k, v -- key and value\nFROM items WHERE k < 5 ORDER BY k",
        "SELECT k FROM items WHERE k < 3 ORDER BY k -- trailing",
        "SELECT 1 + 2 AS three -- constant\nFROM items WHERE k > 6",
        "SELECT k /* block */ FROM items -- a; b\nWHERE k = 4; -- done",
    ] {
        let mut stmt = native.exec_direct(sql).unwrap();
        let mut want = Vec::new();
        while let Some(row) = stmt.fetch().unwrap() {
            want.push(row);
        }
        assert!(!want.is_empty(), "{sql}");
        assert_eq!(px.query_all(sql).unwrap(), want, "{sql}");
    }
    assert_eq!(px.stats().results_persisted, 4);
    px.close();
    assert!(result_tables(&server).is_empty());
}

#[test]
fn fetch_surfaces_the_failure_once_masking_retries_are_spent() {
    let server = server_with_rows(500);
    let mut cfg = cfg_with(RepositionMode::Server, CacheMode::Disabled);
    cfg.reconnect.masking_retries = 0;
    let px = PhoenixConnection::connect(&server, cfg).unwrap();
    px.exec("SELECT k FROM items ORDER BY k").unwrap();
    for _ in 0..10 {
        px.fetch().unwrap().unwrap();
    }
    server.crash();
    server.restart().unwrap();
    // The per-call budget caps fetch like every other masked step: with
    // no re-runs left, the lost link surfaces instead of being recovered.
    let err = loop {
        match px.fetch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("the crash was masked past a spent budget"),
            Err(e) => break e,
        }
    };
    assert!(err.is_connection_fatal(), "got {err:?}");
    assert_eq!(px.stats().recoveries, 0);
}

/// Phoenix persists a result with `SELECT … INTO`, yet reports the
/// column names and types the native driver reports for the same query,
/// for unaliased expressions and wildcards alike.
#[test]
fn persisted_results_name_their_columns_as_natively() {
    let server = server_with_rows(10);
    let native = OdbcConnection::connect(&server, DriverConfig::default()).unwrap();
    let px = PhoenixConnection::connect(
        &server,
        cfg_with(RepositionMode::Server, CacheMode::Disabled),
    )
    .unwrap();
    let queries = [
        "SELECT UPPER(v), k + 1 FROM items WHERE k < 5",
        "SELECT * FROM items WHERE k < 5",
        "SELECT items.*, LOWER(v) FROM items",
    ];
    for sql in queries {
        let stmt = native.exec_direct(sql).unwrap();
        let want = stmt.columns().to_vec();
        stmt.close().unwrap();
        let ExecKind::ResultSet { columns } = px.exec(sql).unwrap() else {
            panic!("{sql}: no result set")
        };
        assert_eq!(columns, want, "{sql}");
        px.fetch_all().unwrap();
    }
    assert_eq!(px.stats().results_persisted, queries.len() as u64);
    px.close();
}
