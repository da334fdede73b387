//! Group commit waits only for transactions that can join the batch.
//!
//! *Company* is the set of open transactions that began with an explicit
//! `BEGIN TRAN` or have logged an update. A parked committer leads as
//! soon as every member of company has parked, so a lone writer never
//! sits out the batching window, while two open writers still share one
//! flush. Every exit path (commit, `ROLLBACK`, a failing statement,
//! `close_session`, a crash) must count its transaction out again: a
//! leaked member silently brings back the full window.
//!
//! The window here is 10 s, so a broken rule fails by seconds, not
//! microseconds; only the test of the window trigger itself uses a
//! short one. The tests read process-global metrics, so they
//! serialize on [`serial`]; this binary holds nothing else.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sqlengine::engine::{Durable, Engine};
use sqlengine::session::SessionId;
use sqlengine::storage::disk::DiskModel;
use sqlengine::wal::log::GroupCommit;
use sqlengine::wal::recovery::RecoveryConfig;

/// Far longer than any test step: a commit that waits it out fails.
const WINDOW: Duration = Duration::from_secs(10);
/// A commit that leads on company returns well within this.
const PROMPT: Duration = Duration::from_secs(1);
/// How long a parked committer is watched to check that it stays parked.
const PARK: Duration = Duration::from_millis(100);

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn boot(durable: &Durable) -> Engine {
    boot_with_window(durable, WINDOW)
}

fn boot_with_window(durable: &Durable, window: Duration) -> Engine {
    let config = RecoveryConfig {
        group_commit: GroupCommit::on(8, window),
        ..RecoveryConfig::default()
    };
    Engine::recover(durable, config).unwrap()
}

/// A fresh engine with tables `t` and `u`, and one session.
fn setup() -> (Durable, Engine, SessionId) {
    let durable = Durable::new(DiskModel::default());
    let e = boot(&durable);
    let sid = e.create_session().unwrap();
    e.execute(sid, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(sid, "CREATE TABLE u (id INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(sid, "INSERT INTO u VALUES (1, 1)").unwrap();
    (durable, e, sid)
}

fn company(e: &Engine) -> usize {
    e.storage().log.company()
}

fn batch_samples() -> (u64, u64) {
    let h = obskit::metrics::global()
        .histogram("wal.flush.batch_size")
        .snapshot();
    (h.count, h.sum)
}

fn exec(e: &Engine, sid: SessionId, sql: &str) {
    e.execute(sid, sql).unwrap();
}

/// Time `sql` on session `sid`.
fn timed(e: &Engine, sid: SessionId, sql: &str) -> Duration {
    let t0 = Instant::now();
    exec(e, sid, sql);
    t0.elapsed()
}

/// The check after every exit path: company is back to zero, and a lone
/// explicit writer commits without waiting out the window.
fn lone_writer_commits_promptly(e: &Engine, id: i64) {
    assert_eq!(company(e), 0, "a finished transaction is still counted");
    let sid = e.create_session().unwrap();
    exec(e, sid, "BEGIN TRAN");
    assert_eq!(company(e), 1, "an explicit BEGIN joins company");
    exec(e, sid, &format!("INSERT INTO t VALUES ({id}, 0)"));
    let took = timed(e, sid, "COMMIT");
    assert!(took < PROMPT, "lone writer's COMMIT waited {took:?}");
    assert_eq!(company(e), 0);
    e.close_session(sid);
}

/// Start `COMMIT` on `sid` in a scoped thread, check that it stays
/// parked, then run `release` and return how long the commit took to
/// finish after it.
fn parked_until(e: &Engine, sid: SessionId, release: impl FnOnce()) -> Duration {
    std::thread::scope(|s| {
        let committer = s.spawn(|| exec(e, sid, "COMMIT"));
        std::thread::sleep(PARK);
        assert!(
            !committer.is_finished(),
            "the committer flushed while a companion was still open"
        );
        let t0 = Instant::now();
        release();
        committer.join().unwrap();
        t0.elapsed()
    })
}

#[test]
fn lone_explicit_writer_leads_at_once() {
    let _g = serial();
    let (_d, e, _sid) = setup();
    let leads = obskit::metrics::global().counter("wal.group.lead.company");
    let before = leads.get();
    lone_writer_commits_promptly(&e, 1);
    assert!(leads.get() > before, "the lead is counted under company");
}

#[test]
fn two_open_writers_share_one_flush() {
    let _g = serial();
    let (_d, e, s1) = setup();
    let s2 = e.create_session().unwrap();
    exec(&e, s1, "BEGIN TRAN");
    exec(&e, s1, "INSERT INTO t VALUES (1, 1)");
    exec(&e, s2, "BEGIN TRAN");
    exec(&e, s2, "INSERT INTO t VALUES (2, 2)");
    assert_eq!(company(&e), 2);
    let (count0, sum0) = batch_samples();
    let took = parked_until(&e, s1, || exec(&e, s2, "COMMIT"));
    assert!(took < PROMPT, "the batch closed {took:?} after both parked");
    let (count1, sum1) = batch_samples();
    assert_eq!(
        (count1 - count0, sum1 - sum0),
        (1, 2),
        "one flush covers both commits"
    );
    assert_eq!(company(&e), 0);
}

#[test]
fn companion_that_never_parks_holds_the_batch_for_the_window_only() {
    let _g = serial();
    let window = Duration::from_millis(300);
    let durable = Durable::new(DiskModel::default());
    let e = boot_with_window(&durable, window);
    let s1 = e.create_session().unwrap();
    exec(&e, s1, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
    let s2 = e.create_session().unwrap();
    exec(&e, s1, "BEGIN TRAN");
    exec(&e, s1, "INSERT INTO t VALUES (1, 1)");
    // The companion stays open and never commits, so only the window
    // can close the batch.
    exec(&e, s2, "BEGIN TRAN");
    exec(&e, s2, "INSERT INTO t VALUES (2, 2)");
    assert_eq!(company(&e), 2);
    let leads = obskit::metrics::global().counter("wal.group.lead.window");
    let before = leads.get();
    let took = timed(&e, s1, "COMMIT");
    assert!(
        took >= window,
        "the commit led after {took:?}, inside the window"
    );
    assert!(took < window + PROMPT, "the commit waited {took:?}");
    assert_eq!(leads.get() - before, 1, "the lead is counted under window");

    // The commit was acknowledged durable: it survives a crash that
    // loses the companion.
    e.mark_shutdown();
    durable.fence();
    drop(e);
    let e = boot(&durable);
    assert_eq!(e.recovery_stats().losers_rolled_back, 1);
    let sid = e.create_session().unwrap();
    let (_, rows) = e.execute_collect(sid, "SELECT id FROM t").unwrap();
    assert_eq!(rows.len(), 1, "exactly the committed row survives");
    lone_writer_commits_promptly(&e, 3);
}

#[test]
fn parked_committer_leads_when_its_companion_rolls_back() {
    let _g = serial();
    let (_d, e, s1) = setup();
    let s2 = e.create_session().unwrap();
    exec(&e, s1, "BEGIN TRAN");
    exec(&e, s1, "INSERT INTO t VALUES (1, 1)");
    exec(&e, s2, "BEGIN TRAN");
    exec(&e, s2, "INSERT INTO u VALUES (2, 2)");
    let took = parked_until(&e, s1, || exec(&e, s2, "ROLLBACK"));
    assert!(
        took < PROMPT,
        "the committer led {took:?} after the rollback"
    );
    lone_writer_commits_promptly(&e, 3);
}

#[test]
fn parked_committer_leads_when_its_companion_commits_read_only() {
    let _g = serial();
    let (_d, e, s1) = setup();
    let s2 = e.create_session().unwrap();
    exec(&e, s1, "BEGIN TRAN");
    exec(&e, s1, "INSERT INTO t VALUES (1, 1)");
    exec(&e, s2, "BEGIN TRAN");
    exec(&e, s2, "SELECT * FROM u");
    let took = parked_until(&e, s1, || exec(&e, s2, "COMMIT"));
    assert!(
        took < PROMPT,
        "the committer led {took:?} after the read-only commit"
    );
    lone_writer_commits_promptly(&e, 2);
}

#[test]
fn autocommit_reads_never_join_and_writes_leave_at_commit() {
    let _g = serial();
    let (_d, e, sid) = setup();
    let (_, rows) = e.execute_collect(sid, "SELECT * FROM u").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(company(&e), 0);
    let took = timed(&e, sid, "INSERT INTO t VALUES (1, 1)");
    assert!(took < PROMPT, "autocommit insert waited {took:?}");
    // A failing autocommit write joins at its first row and leaves at
    // its abort.
    assert!(e
        .execute(sid, "INSERT INTO t VALUES (5, 0), (5, 0)")
        .is_err());
    lone_writer_commits_promptly(&e, 2);
}

#[test]
fn every_exit_path_leaves_company() {
    let _g = serial();
    let (_d, e, sid) = setup();
    let mut id = 100;
    let mut next = || {
        id += 1;
        id
    };

    // Commit.
    exec(&e, sid, "BEGIN TRAN");
    exec(&e, sid, &format!("INSERT INTO t VALUES ({}, 0)", next()));
    exec(&e, sid, "COMMIT");
    lone_writer_commits_promptly(&e, next());

    // Explicit ROLLBACK, after a write and with none.
    exec(&e, sid, "BEGIN TRAN");
    exec(&e, sid, &format!("INSERT INTO t VALUES ({}, 0)", next()));
    exec(&e, sid, "ROLLBACK");
    exec(&e, sid, "BEGIN TRAN");
    exec(&e, sid, "ROLLBACK");
    lone_writer_commits_promptly(&e, next());

    // A failing statement inside BEGIN TRAN rolls the transaction back:
    // a duplicate key after a write, and an unknown table.
    exec(&e, sid, "BEGIN TRAN");
    exec(&e, sid, &format!("INSERT INTO t VALUES ({}, 0)", next()));
    assert!(e.execute(sid, "INSERT INTO u VALUES (1, 1)").is_err());
    exec(&e, sid, "BEGIN TRAN");
    assert!(e.execute(sid, "SELECT * FROM missing").is_err());
    lone_writer_commits_promptly(&e, next());

    // close_session with a transaction open.
    let other = e.create_session().unwrap();
    exec(&e, other, "BEGIN TRAN");
    exec(&e, other, &format!("INSERT INTO t VALUES ({}, 0)", next()));
    e.close_session(other);
    lone_writer_commits_promptly(&e, next());
}

#[test]
fn restart_that_undoes_a_loser_starts_with_no_company() {
    let _g = serial();
    let (d, e, sid) = setup();
    exec(&e, sid, "BEGIN TRAN");
    exec(&e, sid, "INSERT INTO t VALUES (1, 1)");
    // Make the loser durable in the log so restart must undo it.
    e.storage().log.flush_all().unwrap();
    assert_eq!(company(&e), 1);
    e.mark_shutdown();
    d.fence();
    drop(e);

    let e = boot(&d);
    assert_eq!(e.recovery_stats().losers_rolled_back, 1);
    assert!(e.recovery_stats().undo_actions >= 1);
    lone_writer_commits_promptly(&e, 1);
}
