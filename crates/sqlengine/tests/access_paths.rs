//! Primary-key access paths return what the full scan returns.
//!
//! A predicate that pins every key column reads one row through the PK
//! index, one that pins the leading key columns reads an index range, and
//! anything else scans the heap. Writing a key column as `col + 0 = v`
//! hides it from the chooser and forces the full scan, so every test here
//! compares a statement with its `+ 0` twin: same rows, same order, same
//! affected count, same table afterwards.
//!
//! The tests read the process-global `sqlengine.access.*` counters, so
//! they serialize on [`serial`].

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlengine::engine::{Durable, Engine, ExecOutcome};
use sqlengine::session::SessionId;
use sqlengine::types::Row;
use sqlengine::wal::recovery::RecoveryConfig;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn boot(durable: &Durable) -> (Engine, SessionId) {
    let e = Engine::recover(durable, RecoveryConfig::default()).unwrap();
    let sid = e.create_session().unwrap();
    (e, sid)
}

/// Simulated crash: fence the incarnation and drop it without flushing
/// the pool, then restart (the PK indexes are built again on first use).
fn crash_and_restart(durable: &Durable, e: Engine) -> (Engine, SessionId) {
    e.mark_shutdown();
    durable.fence();
    drop(e);
    boot(durable)
}

fn counter(name: &'static str) -> u64 {
    obskit::metrics::global().counter(name).get()
}

fn query(e: &Engine, sid: SessionId, sql: &str) -> Result<Vec<Row>, String> {
    e.execute_collect(sid, sql)
        .map(|(_, rows)| rows)
        .map_err(|err| err.to_string())
}

/// Run the write `sql` in a transaction and roll it back. Returns the
/// affected count and what `snapshot` (a full scan, so heap order)
/// returned just before the rollback, or the error (which aborted the
/// transaction).
fn write_effect(
    e: &Engine,
    sid: SessionId,
    snapshot: &str,
    sql: &str,
) -> Result<(u64, Vec<Row>), String> {
    e.execute(sid, "BEGIN TRAN").unwrap();
    match e.execute(sid, sql) {
        Ok(r) => {
            let ExecOutcome::Affected(n) = r else {
                panic!("{sql}: not a write");
            };
            let after = query(e, sid, snapshot).unwrap();
            e.execute(sid, "ROLLBACK").unwrap();
            Ok((n, after))
        }
        Err(err) => Err(err.to_string()),
    }
}

/// `col = lit` for each pair, or `col + 0 = lit` when `forced`.
fn pins(pairs: &[(&str, String)], forced: bool) -> Vec<String> {
    pairs
        .iter()
        .map(|(col, lit)| match forced {
            true => format!("{col} + 0 = {lit}"),
            false => format!("{col} = {lit}"),
        })
        .collect()
}

fn district(e: &Engine, sid: SessionId) {
    e.execute(
        sid,
        "CREATE TABLE d (w INT, id INT, name VARCHAR(10), PRIMARY KEY (w, id))",
    )
    .unwrap();
    e.execute(
        sid,
        "INSERT INTO d VALUES (1, 1, 'a'), (1, 2, 'b'), (2, 1, 'c')",
    )
    .unwrap();
}

#[test]
fn key_literals_that_do_not_coerce_exactly_match_the_full_scan() {
    let _g = serial();
    let durable = Durable::new(Default::default());
    let (e, sid) = boot(&durable);
    district(&e, sid);
    for lit in ["'1'", "1.5", "1.0", "NULL"] {
        let point = vec![("w", "1".to_string()), ("id", lit.to_string())];
        let prefix = vec![("w", lit.to_string())];
        // (shape, pinned columns, rows matched when `lit` is 1.0)
        for (shape, pairs, exact) in [("point", point, 1), ("prefix", prefix, 2)] {
            let want = if lit == "1.0" { exact } else { 0 };
            let preds = |forced| pins(&pairs, forced).join(" AND ");
            let (indexed, forced) = (preds(false), preds(true));
            let what = format!("{shape} shape with {lit}");

            let sel = |p: &str| query(&e, sid, &format!("SELECT w, id, name FROM d WHERE {p}"));
            let rows = sel(&indexed);
            assert_eq!(rows, sel(&forced), "SELECT, {what}");
            assert_eq!(rows.unwrap().len() as u64, want, "SELECT, {what}");
            let count = |p: &str| query(&e, sid, &format!("SELECT COUNT(*) FROM d WHERE {p}"));
            assert_eq!(count(&indexed), count(&forced), "COUNT, {what}");

            for write in ["UPDATE d SET name = 'x' WHERE", "DELETE FROM d WHERE"] {
                let effect =
                    |p: &str| write_effect(&e, sid, "SELECT * FROM d", &format!("{write} {p}"));
                let got = effect(&indexed);
                assert_eq!(got, effect(&forced), "{write}, {what}");
                assert_eq!(got.unwrap().0, want, "{write}, {what}");
            }
        }
    }
}

#[test]
fn each_predicate_shape_takes_its_access_path() {
    let _g = serial();
    let durable = Durable::new(Default::default());
    let (e, sid) = boot(&durable);
    district(&e, sid);
    let cases = [
        ("w = 1 AND id = 2", "point"),
        ("id = 2 AND w = 1", "point"),
        ("w = 1", "prefix"),
        ("w = 1 AND id = '2'", "prefix"),
        ("id = 2", "full"),
        ("w = '1'", "full"),
        ("w + 0 = 1 AND id = 2", "full"),
    ];
    let names = [
        "sqlengine.access.point",
        "sqlengine.access.prefix",
        "sqlengine.access.full",
    ];
    for (pred, want) in cases {
        for sql in [
            format!("SELECT name FROM d WHERE {pred}"),
            format!("SELECT COUNT(*) FROM d WHERE {pred}"),
            format!("UPDATE d SET name = name WHERE {pred}"),
            format!("DELETE FROM d WHERE {pred} AND name = 'none'"),
        ] {
            let before: Vec<u64> = names.iter().map(|n| counter(n)).collect();
            e.execute_collect(sid, &sql).unwrap();
            let ran: Vec<&str> = names
                .iter()
                .zip(&before)
                .filter(|(n, b)| counter(n) > **b)
                .map(|(n, _)| n.rsplit('.').next().unwrap())
                .collect();
            assert_eq!(ran, [want], "{sql}");
        }
    }
}

/// One random statement's predicate over `t (a, b, c)`: each of the
/// leading key columns pinned, sometimes `b` alone (not a prefix),
/// sometimes an extra non-key conjunct, and now and then a literal that
/// does not coerce exactly.
fn predicate(rng: &mut StdRng) -> (String, String) {
    let lit = |rng: &mut StdRng, hi: i64| {
        let k = rng.gen_range(0..=hi);
        match rng.gen_range(0..20) {
            0 => format!("'{k}'"),
            1 => format!("{k}.0"),
            2 => format!("{k}.5"),
            3 => "NULL".into(),
            _ => k.to_string(),
        }
    };
    let mut pairs: Vec<(&str, String)> = Vec::new();
    match rng.gen_range(0..5) {
        0 => pairs.push(("b", lit(rng, 2))),
        n => {
            for col in ["a", "b", "c"].iter().take(n.min(3)) {
                let hi = if *col == "c" { 12 } else { 2 };
                pairs.push((col, lit(rng, hi)));
            }
        }
    }
    let extra = if rng.gen_bool(0.3) {
        vec![format!("v > {}", rng.gen_range(0..40))]
    } else {
        Vec::new()
    };
    let render = |forced| {
        let mut p = pins(&pairs, forced);
        p.extend(extra.iter().cloned());
        p.join(" AND ")
    };
    (render(false), render(true))
}

fn random_write(rng: &mut StdRng) -> (String, String) {
    let (p, forced) = predicate(rng);
    let head = match rng.gen_range(0..3) {
        0 => "UPDATE t SET v = v + 1 WHERE",
        // A key-changing update: delete plus insert, so rows move.
        1 => "UPDATE t SET c = c + 4 WHERE",
        _ => "DELETE FROM t WHERE",
    };
    (format!("{head} {p}"), format!("{head} {forced}"))
}

/// `t` in heap order.
const SNAPSHOT: &str = "SELECT a, b, c, v FROM t";

/// Rows of about 500 bytes, so `t` spans pages.
fn random_insert(rng: &mut StdRng) -> String {
    format!(
        "INSERT INTO t VALUES ({}, {}, {}, {}, '{}')",
        rng.gen_range(0..3),
        rng.gen_range(0..3),
        rng.gen_range(0..5),
        rng.gen_range(0..50),
        "x".repeat(480)
    )
}

#[test]
fn indexed_paths_match_the_forced_full_scan_under_random_histories() {
    let _g = serial();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let durable = Durable::new(Default::default());
        let (mut e, mut sid) = boot(&durable);
        // `t` grows into pages freed by `f`, which the free list hands
        // out in falling id order: heap order is not page-id order.
        e.execute(sid, "CREATE TABLE f (k INT PRIMARY KEY, pad VARCHAR(500))")
            .unwrap();
        for k in 0..40 {
            let pad = "y".repeat(480);
            e.execute(sid, &format!("INSERT INTO f VALUES ({k}, '{pad}')"))
                .unwrap();
        }
        e.execute(
            sid,
            "CREATE TABLE t (a INT, b INT, c INT, v INT, pad VARCHAR(500), \
             PRIMARY KEY (a, b, c))",
        )
        .unwrap();
        e.execute(sid, &random_insert(&mut rng)).unwrap();
        e.execute(sid, "DROP TABLE f").unwrap();
        for step in 0..160 {
            let at = format!("seed {seed} step {step}");
            match rng.gen_range(0..20) {
                0..=5 => {
                    // A duplicate key fails the statement; that is fine.
                    let _ = e.execute(sid, &random_insert(&mut rng));
                }
                6..=11 => {
                    let (p, forced) = predicate(&mut rng);
                    for head in [
                        "SELECT a, b, c, v FROM t WHERE",
                        "SELECT TOP 2 a, c FROM t WHERE",
                        "SELECT COUNT(*), SUM(v) FROM t WHERE",
                        "SELECT DISTINCT a, b, c, v FROM t WHERE",
                    ] {
                        let (sql, sql_forced) = (format!("{head} {p}"), format!("{head} {forced}"));
                        assert_eq!(
                            query(&e, sid, &sql),
                            query(&e, sid, &sql_forced),
                            "{at}: {sql}"
                        );
                    }
                }
                12..=16 => {
                    let (sql, sql_forced) = random_write(&mut rng);
                    let got = write_effect(&e, sid, SNAPSHOT, &sql);
                    assert_eq!(
                        got,
                        write_effect(&e, sid, SNAPSHOT, &sql_forced),
                        "{at}: {sql}"
                    );
                    let applied = e.execute(sid, &sql);
                    assert_eq!(applied.is_ok(), got.is_ok(), "{at}: {sql}");
                }
                17 | 18 => {
                    // A rolled-back transaction of several writes.
                    let before = query(&e, sid, SNAPSHOT).unwrap();
                    e.execute(sid, "BEGIN TRAN").unwrap();
                    let mut open = true;
                    for _ in 0..rng.gen_range(1..5) {
                        let sql = match rng.gen_bool(0.5) {
                            true => random_insert(&mut rng),
                            false => random_write(&mut rng).0,
                        };
                        // A failing statement aborts the transaction.
                        if e.execute(sid, &sql).is_err() {
                            open = false;
                            break;
                        }
                    }
                    if open {
                        e.execute(sid, "ROLLBACK").unwrap();
                    }
                    assert_eq!(query(&e, sid, SNAPSHOT).unwrap(), before, "{at}");
                }
                _ => {
                    let before = query(&e, sid, SNAPSHOT).unwrap();
                    (e, sid) = crash_and_restart(&durable, e);
                    assert_eq!(query(&e, sid, SNAPSHOT).unwrap(), before, "{at}");
                }
            }
        }
        let meta = e.storage().catalog.resolve("t").unwrap();
        let pages = meta.read().pages.clone();
        assert!(
            pages.windows(2).any(|w| w[0] > w[1]),
            "seed {seed}: t's pages {pages:?} are in id order"
        );
    }
}
