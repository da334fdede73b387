//! Commit cost follows what a transaction did, and dropped tables give
//! their pages back.
//!
//! * A read-only commit (a SELECT, or the autocommit wrapper of a DDL
//!   top action) appends its Commit record but never forces the log; a
//!   writer's commit still goes through the group-commit path. Every
//!   acknowledged write survives a crash right after the acknowledgement.
//! * `DROP TABLE` parks the table's pages until no transaction holds a
//!   lock on it, then `MemDisk::allocate` hands them out again. Restart,
//!   redo, repair and lazy cursors all stay correct across the reuse.
//!
//! The tests read process-global metrics and crashpoint traces, so they
//! serialize on [`serial`]; this binary holds nothing else.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use faultkit::disk::{DiskFaultKind, DiskPlan};
use sqlengine::engine::{Durable, Engine, ExecOutcome};
use sqlengine::session::SessionId;
use sqlengine::storage::disk::{PageId, PAGE_SIZE};
use sqlengine::txn::locks::LockMode;
use sqlengine::types::{Row, Value};
use sqlengine::wal::log::GroupCommit;
use sqlengine::wal::recovery::RecoveryConfig;
use sqlengine::Error;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config() -> RecoveryConfig {
    RecoveryConfig {
        group_commit: GroupCommit::on(8, Duration::from_millis(2)),
        ..RecoveryConfig::default()
    }
}

fn boot(durable: &Durable) -> (Engine, SessionId) {
    let e = Engine::recover(durable, config()).unwrap();
    let sid = e.create_session().unwrap();
    (e, sid)
}

/// Simulated crash: fence the incarnation and drop it without flushing
/// the pool, then restart.
fn crash_and_restart(durable: &Durable, e: Engine) -> (Engine, SessionId) {
    e.mark_shutdown();
    durable.fence();
    drop(e);
    boot(durable)
}

fn flush_samples() -> u64 {
    obskit::metrics::global()
        .histogram("sqlengine.wal.flush")
        .snapshot()
        .count
}

fn counter(name: &'static str) -> u64 {
    obskit::metrics::global().counter(name).get()
}

/// Run `sql` while recording crashpoints; return the statement's new
/// `sqlengine.wal.flush` samples and whether it entered `commit_flush`.
fn flushes_of(e: &Engine, sid: SessionId, sql: &str) -> (u64, bool) {
    let session = faultkit::session();
    let rec = session.record();
    let before = flush_samples();
    e.execute_collect(sid, sql).unwrap();
    let flushes = flush_samples() - before;
    let trace = rec.finish();
    let grouped = trace.iter().any(|p| p.name == "wal.group.enqueue");
    (flushes, grouped)
}

fn pages_of(e: &Engine, table: &str) -> Vec<PageId> {
    let meta = e.storage().catalog.resolve(table).unwrap();
    let pages = meta.read().pages.clone();
    pages
}

/// Insert `n` rows of ~200 bytes (about 35 rows per page).
fn fill(e: &Engine, sid: SessionId, table: &str, tag: &str, n: usize) {
    let vals: Vec<String> = (0..n)
        .map(|k| format!("({k}, '{tag}-{k}-{}')", "x".repeat(180)))
        .collect();
    e.execute(
        sid,
        &format!("INSERT INTO {table} VALUES {}", vals.join(",")),
    )
    .unwrap();
}

fn expected(tag: &str, n: usize) -> Vec<Row> {
    (0..n)
        .map(|k| {
            vec![
                Value::Int(k as i64),
                Value::Str(format!("{tag}-{k}-{}", "x".repeat(180))),
            ]
        })
        .collect()
}

fn rows(e: &Engine, sid: SessionId, table: &str) -> Vec<Row> {
    e.execute_collect(sid, &format!("SELECT k, v FROM {table} ORDER BY k"))
        .unwrap()
        .1
}

fn create(e: &Engine, sid: SessionId, table: &str) {
    e.execute(
        sid,
        &format!("CREATE TABLE {table} (k INT PRIMARY KEY, v VARCHAR(250))"),
    )
    .unwrap();
}

#[test]
fn read_only_commits_do_not_force_the_log() {
    let _g = serial();
    let durable = Durable::new(Default::default());
    let (e, sid) = boot(&durable);
    create(&e, sid, "t");
    fill(&e, sid, "t", "a", 10);

    for sql in [
        "SELECT k, v FROM t WHERE 0 = 1",
        "SELECT k, v FROM t",
        "SELECT v FROM t WHERE k = 3",
    ] {
        let flushed = e.storage().log.flushed_lsn();
        assert_eq!(flushes_of(&e, sid, sql), (0, false), "{sql}");
        // The Commit record is appended but waits for the next flush.
        assert_eq!(e.storage().log.flushed_lsn(), flushed, "{sql}");
        assert!(e.storage().log.end_lsn() > flushed, "{sql}");
    }
    // A DDL top action forces its own record once; its autocommit
    // wrapper adds nothing.
    for sql in [
        "CREATE TABLE u (k INT PRIMARY KEY)",
        "DROP TABLE u",
        "CREATE PROCEDURE p AS SELECT k FROM t",
    ] {
        assert_eq!(flushes_of(&e, sid, sql), (1, false), "{sql}");
    }
    // A writer still forces its commit through the group path.
    let (flushes, grouped) = flushes_of(&e, sid, "UPDATE t SET v = 'b' WHERE k = 1");
    assert!(flushes >= 1 && grouped);
    let (flushes, grouped) = flushes_of(&e, sid, "INSERT INTO t VALUES (99, 'c')");
    assert!(flushes >= 1 && grouped);
}

#[test]
fn acknowledged_writes_survive_a_crash_after_any_commit() {
    let _g = serial();
    let durable = Durable::new(Default::default());
    let (mut e, mut sid) = boot(&durable);
    create(&e, sid, "t");
    let mut acked = Vec::new();
    for round in 0..4i64 {
        // Write then read, and read then write: whichever commit was
        // acknowledged last, the crash right after it keeps every write.
        if round % 2 == 0 {
            e.execute(sid, &format!("INSERT INTO t VALUES ({round}, 'w')"))
                .unwrap();
            acked.push(round);
            e.execute_collect(sid, "SELECT k FROM t").unwrap();
        } else {
            e.execute_collect(sid, "SELECT k FROM t").unwrap();
            e.execute(sid, &format!("INSERT INTO t VALUES ({round}, 'w')"))
                .unwrap();
            acked.push(round);
        }
        (e, sid) = crash_and_restart(&durable, e);
        let (_, got) = e
            .execute_collect(sid, "SELECT k FROM t ORDER BY k")
            .unwrap();
        let got: Vec<i64> = got
            .iter()
            .map(|r| match r[0] {
                Value::Int(k) => k,
                ref v => panic!("unexpected {v:?}"),
            })
            .collect();
        assert_eq!(got, acked, "round {round}");
    }
    // The lost Commit records of read-only transactions left losers
    // with nothing to undo.
    assert_eq!(e.recovery_stats().undo_actions, 0);
}

/// Create T1, fill it, drop it, then create and fill T2 on its pages.
fn reuse_t1_pages_for_t2(e: &Engine, sid: SessionId, checkpoint: bool) {
    create(e, sid, "t1");
    fill(e, sid, "t1", "old", 120);
    let t1_pages = pages_of(e, "t1");
    assert!(t1_pages.len() >= 3);
    e.execute(sid, "DROP TABLE t1").unwrap();
    if checkpoint {
        e.checkpoint().unwrap();
    }
    let disk = e.storage().pool.disk();
    let size = disk.num_pages();
    let reused = counter("storage.pages.reused");
    let allocated = counter("storage.pages.allocated");
    create(e, sid, "t2");
    fill(e, sid, "t2", "new", 100);
    let t2_pages = pages_of(e, "t2");
    assert!(t2_pages.iter().all(|p| t1_pages.contains(p)));
    assert_eq!(disk.num_pages(), size, "T2 must not grow the disk");
    let n = t2_pages.len() as u64;
    assert_eq!(counter("storage.pages.reused") - reused, n);
    assert_eq!(counter("storage.pages.allocated") - allocated, n);
}

fn check_reuse_survives_crash(checkpoint: bool) {
    let _g = serial();
    let durable = Durable::new(Default::default());
    let (e, sid) = boot(&durable);
    reuse_t1_pages_for_t2(&e, sid, checkpoint);
    // A dropped table whose pages still wait on an open cursor's lock
    // when the server crashes.
    create(&e, sid, "t4");
    fill(&e, sid, "t4", "held", 80);
    let reader = e.create_session().unwrap();
    let ExecOutcome::Rows(mut cursor) = e.execute(reader, "SELECT k FROM t4").unwrap() else {
        panic!("expected rows")
    };
    cursor.next().unwrap().unwrap();
    e.execute(sid, "DROP TABLE t4").unwrap();
    let size = durable.disk.num_pages();
    // Crash before the pool flushes T2's pages.
    let (e, sid) = crash_and_restart(&durable, e);
    // The dead incarnation's cursor ends its transaction late; its
    // reclaim is fenced off the new free list.
    drop(cursor);
    assert_eq!(rows(&e, sid, "t2"), expected("new", 100));
    assert!(e.storage().catalog.resolve("t1").is_none());
    assert!(e.execute(sid, "SELECT k FROM t1").is_err());
    assert_eq!(durable.disk.num_pages(), size);
    // Restart frees exactly the pages no table owns.
    let owned = e.storage().catalog.owned_pages();
    assert_eq!(
        durable.disk.free_pages(),
        size as usize - owned.len(),
        "free list after restart"
    );
    // The rebuilt free list feeds new tables without growing the disk.
    create(&e, sid, "t3");
    fill(&e, sid, "t3", "more", 10);
    assert_eq!(durable.disk.num_pages(), size);
    assert_eq!(rows(&e, sid, "t2"), expected("new", 100));
}

#[test]
fn reused_pages_survive_a_crash_before_the_pool_flushes() {
    check_reuse_survives_crash(false);
}

#[test]
fn reused_pages_survive_a_crash_with_a_checkpoint_between_drop_and_reuse() {
    check_reuse_survives_crash(true);
}

#[test]
fn corrupt_reused_page_is_rebuilt_as_the_new_tables_image() {
    let _g = serial();
    let durable = Durable::new(Default::default());
    let (e, sid) = boot(&durable);
    // The victim's log history holds both owners: a rebuild replays
    // T1's records, then re-initializes the page at T2's AllocPage.
    reuse_t1_pages_for_t2(&e, sid, true);
    let victim = pages_of(&e, "t2")[0];
    e.checkpoint().unwrap();

    // Flip one bit of the reused page's durable image.
    let corrupt = || {
        let mut raw = [0u8; PAGE_SIZE];
        durable.disk.read_page(victim, &mut raw).unwrap();
        durable
            .disk
            .set_fault_plan(Some(DiskPlan::at(DiskFaultKind::BitFlip, 1)));
        durable
            .disk
            .write_page(victim, &raw, durable.disk.current_epoch())
            .unwrap();
        durable.disk.set_fault_plan(None);
    };

    // Repaired on the pool miss after a restart...
    let (e, sid) = crash_and_restart(&durable, e);
    corrupt();
    assert_eq!(rows(&e, sid, "t2"), expected("new", 100));
    // ...and by a scrub.
    let (e, sid) = crash_and_restart(&durable, e);
    corrupt();
    let report = e.scrub().unwrap();
    assert_eq!((report.detected, report.repaired), (1, 1));
    assert_eq!(rows(&e, sid, "t2"), expected("new", 100));
}

#[test]
fn lazy_cursor_keeps_a_dropped_tables_pages_until_its_txn_ends() {
    let _g = serial();
    let durable = Durable::new(Default::default());
    let (e, reader) = boot(&durable);
    let dropper = e.create_session().unwrap();
    create(&e, reader, "t1");
    fill(&e, reader, "t1", "old", 120);
    let t1_pages: HashSet<PageId> = pages_of(&e, "t1").into_iter().collect();

    let ExecOutcome::Rows(mut cursor) = e.execute(reader, "SELECT k, v FROM t1").unwrap() else {
        panic!("expected rows")
    };
    assert!(cursor.is_lazy());
    let mut got: Vec<Row> = (0..5).map(|_| cursor.next().unwrap().unwrap()).collect();

    // Another session drops the table under the open cursor and fills a
    // new one: the cursor's S lock keeps T1's pages out of reach.
    e.execute(dropper, "DROP TABLE t1").unwrap();
    create(&e, dropper, "t2");
    fill(&e, dropper, "t2", "new", 120);
    assert!(pages_of(&e, "t2").iter().all(|p| !t1_pages.contains(p)));

    got.extend(cursor.by_ref().map(Result::unwrap));
    let mut want = expected("old", 120);
    got.sort_by_key(|r| r[0].to_string().parse::<i64>().unwrap());
    want.sort_by_key(|r| r[0].to_string().parse::<i64>().unwrap());
    assert_eq!(got, want, "the cursor must keep returning the old rows");

    // The exhausted cursor committed its transaction: now T1's pages are
    // free and the next table takes them.
    assert!(durable.disk.free_pages() >= t1_pages.len());
    create(&e, dropper, "t3");
    fill(&e, dropper, "t3", "more", 60);
    assert!(pages_of(&e, "t3").iter().all(|p| t1_pages.contains(p)));
}

#[test]
fn locking_a_table_dropped_after_it_was_resolved_fails() {
    let _g = serial();
    let durable = Durable::new(Default::default());
    let (e, sid) = boot(&durable);
    create(&e, sid, "t1");
    fill(&e, sid, "t1", "old", 40);
    let st = e.storage();
    // A scan resolves the table first and locks it afterwards; the drop
    // lands in between and its pages go straight to a new table.
    let id = st.catalog.resolve("t1").unwrap().read().id;
    e.execute(sid, "DROP TABLE t1").unwrap();
    create(&e, sid, "t2");
    fill(&e, sid, "t2", "new", 40);
    let txn = st.begin();
    assert!(matches!(
        st.lock_table(&txn, id, LockMode::Shared),
        Err(Error::NotFound(_))
    ));
    st.abort(&txn).unwrap();
}

#[test]
fn a_batch_forces_its_ddl_once_before_it_returns() {
    let _g = serial();
    let durable = Durable::new(Default::default());
    let (e, sid) = boot(&durable);
    create(&e, sid, "t");
    fill(&e, sid, "t", "a", 10);
    create(&e, sid, "r1");
    // Retire a result, load the next and reopen it: the load's commit
    // force covers the DDL appended before it, and the batch adds none.
    let persist = "DROP TABLE IF EXISTS r1; SELECT k, v INTO r2 FROM t; SELECT * FROM r2";
    assert_eq!(flushes_of(&e, sid, persist), (1, true));
    // DDL alone: one force for the whole batch.
    let ddl = "CREATE TABLE u1 (k INT); CREATE TABLE u2 (k INT); DROP TABLE u1; DROP TABLE r2";
    assert_eq!(flushes_of(&e, sid, ddl), (1, false));
    // An empty result writes no rows: the batch's force is the only one.
    let empty = "SELECT k INTO r3 FROM t WHERE k < 0; SELECT * FROM r3";
    assert_eq!(flushes_of(&e, sid, empty), (1, false));
    // A failing batch still forces the DDL that ran before the failure.
    assert!(e
        .execute(sid, "DROP TABLE u2; SELECT nope INTO r4 FROM t")
        .is_err());

    let (e, _) = crash_and_restart(&durable, e);
    let mut names = e.storage().catalog.table_names();
    names.sort();
    assert_eq!(names, ["r3", "t"]);
}
