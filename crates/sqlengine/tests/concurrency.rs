//! Engine concurrency tests: multi-threaded sessions against one engine,
//! isolation under multi-granularity locking, and crash-safety of
//! concurrent workloads.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::Arc;
use std::time::Duration;

use sqlengine::engine::{Durable, Engine};
use sqlengine::types::Value;
use sqlengine::wal::recovery::RecoveryConfig;
use sqlengine::Error;

fn engine() -> (Durable, Arc<Engine>) {
    let durable = Durable::new(Default::default());
    let e = Arc::new(Engine::recover(&durable, RecoveryConfig::default()).unwrap());
    (durable, e)
}

#[test]
fn concurrent_pk_writers_do_not_interfere() {
    let (_d, e) = engine();
    let sid = e.create_session().unwrap();
    e.execute(sid, "CREATE TABLE c (k INT PRIMARY KEY, n INT)")
        .unwrap();
    let vals: Vec<String> = (0..32).map(|k| format!("({k}, 0)")).collect();
    e.execute(sid, &format!("INSERT INTO c VALUES {}", vals.join(",")))
        .unwrap();

    let threads = 8;
    let bumps_per_thread = 50;
    let mut handles = Vec::new();
    for t in 0..threads {
        let e2 = Arc::clone(&e);
        handles.push(std::thread::spawn(move || {
            let sid = e2.create_session().unwrap();
            for i in 0..bumps_per_thread {
                let k = (t * 4 + i) % 32;
                loop {
                    match e2.execute(sid, &format!("UPDATE c SET n = n + 1 WHERE k = {k}")) {
                        Ok(_) => break,
                        Err(Error::Deadlock) => continue,
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let (_, rows) = e.execute_collect(sid, "SELECT SUM(n) FROM c").unwrap();
    assert_eq!(rows[0][0], Value::Int((threads * bumps_per_thread) as i64));
}

#[test]
fn readers_see_only_committed_state() {
    let (_d, e) = engine();
    let writer = e.create_session().unwrap();
    let reader = e.create_session().unwrap();
    e.execute(writer, "CREATE TABLE iso (k INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(writer, "INSERT INTO iso VALUES (1, 10)").unwrap();

    // Writer holds an uncommitted update (row X lock under IX).
    e.execute(writer, "BEGIN TRAN").unwrap();
    e.execute(writer, "UPDATE iso SET v = 99 WHERE k = 1")
        .unwrap();

    // A younger reader's full scan needs table S, which conflicts with the
    // writer's IX → wait-die kills it rather than show dirty data.
    let r = e.execute_collect(reader, "SELECT v FROM iso");
    assert!(matches!(r, Err(Error::Deadlock)), "got {r:?}");

    e.execute(writer, "ROLLBACK").unwrap();
    let (_, rows) = e.execute_collect(reader, "SELECT v FROM iso").unwrap();
    assert_eq!(rows[0][0], Value::Int(10), "rollback restored the value");
}

#[test]
fn point_read_blocks_only_on_the_locked_row() {
    let (_d, e) = engine();
    let writer = e.create_session().unwrap();
    let reader = e.create_session().unwrap();
    e.execute(writer, "CREATE TABLE p (k INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(writer, "INSERT INTO p VALUES (1, 10), (2, 20)")
        .unwrap();

    e.execute(writer, "BEGIN TRAN").unwrap();
    e.execute(writer, "UPDATE p SET v = 11 WHERE k = 1")
        .unwrap();

    // A point read of a DIFFERENT row proceeds (IS + row S on k=2).
    let (_, rows) = e
        .execute_collect(reader, "SELECT v FROM p WHERE k = 2")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(20));
    // The locked row's point read conflicts.
    assert!(matches!(
        e.execute_collect(reader, "SELECT v FROM p WHERE k = 1"),
        Err(Error::Deadlock)
    ));
    e.execute(writer, "COMMIT").unwrap();
    let (_, rows) = e
        .execute_collect(reader, "SELECT v FROM p WHERE k = 1")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(11));
}

#[test]
fn concurrent_inserts_then_crash_recovers_all_committed() {
    let durable = Durable::new(Default::default());
    {
        let e = Arc::new(Engine::recover(&durable, RecoveryConfig::default()).unwrap());
        let sid = e.create_session().unwrap();
        e.execute(sid, "CREATE TABLE bulk (k INT PRIMARY KEY)")
            .unwrap();
        let mut handles = Vec::new();
        for t in 0..6 {
            let e2 = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                let sid = e2.create_session().unwrap();
                for i in 0..100 {
                    let k = t * 1000 + i;
                    e2.execute(sid, &format!("INSERT INTO bulk VALUES ({k})"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        durable.fence(); // crash without checkpoint
    }
    let e = Engine::recover(&durable, RecoveryConfig::default()).unwrap();
    let sid = e.create_session().unwrap();
    let (_, rows) = e.execute_collect(sid, "SELECT COUNT(*) FROM bulk").unwrap();
    assert_eq!(rows[0][0], Value::Int(600));
    // PK index rebuilt correctly for all interleaved pages.
    for t in 0..6 {
        let (_, rows) = e
            .execute_collect(
                sid,
                &format!("SELECT k FROM bulk WHERE k = {}", t * 1000 + 57),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
    }
}

/// Inserts that find a fresh table empty at the same moment share one
/// page: only the first allocates, the rest insert into its page.
#[test]
fn concurrent_first_inserts_allocate_one_page() {
    let (_d, e) = engine();
    let sid = e.create_session().unwrap();
    e.execute(sid, "CREATE TABLE fresh (k INT PRIMARY KEY, v INT)")
        .unwrap();
    let sessions = 8;
    let barrier = Arc::new(std::sync::Barrier::new(sessions));
    let handles: Vec<_> = (0..sessions)
        .map(|k| {
            let e2 = Arc::clone(&e);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let sid = e2.create_session().unwrap();
                barrier.wait();
                e2.execute(sid, &format!("INSERT INTO fresh VALUES ({k}, {k})"))
                    .unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let (_, rows) = e
        .execute_collect(sid, "SELECT COUNT(*) FROM fresh")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(sessions as i64));
    let meta = e.storage().catalog.resolve("fresh").unwrap();
    let pages = meta.read().pages.clone();
    assert_eq!(
        pages.len(),
        1,
        "8 one-row inserts allocated pages {pages:?}"
    );
}

#[test]
fn wait_die_stress_many_threads_no_hangs_or_lost_updates() {
    // 10 threads hammer 16 overlapping rows with transfer transactions
    // (two row X locks each, acquired in random order — the classic
    // deadlock shape). Wait-die must keep the system live: every victim
    // retries and eventually commits, nothing hangs, and the money
    // supply is conserved (no lost or duplicated grants).
    let (_d, e) = engine();
    let sid = e.create_session().unwrap();
    e.execute(sid, "CREATE TABLE acct (k INT PRIMARY KEY, bal INT)")
        .unwrap();
    let rows: Vec<String> = (0..16).map(|k| format!("({k}, 100)")).collect();
    e.execute(sid, &format!("INSERT INTO acct VALUES {}", rows.join(",")))
        .unwrap();

    let threads: u64 = 10;
    let transfers = 30;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let mut handles = Vec::new();
    for t in 0..threads {
        let e2 = Arc::clone(&e);
        let done = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            let sid = e2.create_session().unwrap();
            let mut seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
            let mut rng = move || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 33) as usize
            };
            for _ in 0..transfers {
                let from = rng() % 16;
                let to = (from + 1 + rng() % 15) % 16;
                // One transfer per transaction; wait-die victims retry
                // the whole transaction, as a client would.
                loop {
                    let r = (|| {
                        e2.execute(sid, "BEGIN TRAN")?;
                        e2.execute(
                            sid,
                            &format!("UPDATE acct SET bal = bal - 1 WHERE k = {from}"),
                        )?;
                        e2.execute(
                            sid,
                            &format!("UPDATE acct SET bal = bal + 1 WHERE k = {to}"),
                        )?;
                        e2.execute(sid, "COMMIT")?;
                        Ok::<(), Error>(())
                    })();
                    match r {
                        Ok(()) => break,
                        Err(Error::Deadlock) => continue, // aborted; retry
                        Err(e) => panic!("{e}"),
                    }
                }
            }
            done.send(t).unwrap();
        }));
    }
    drop(done_tx);
    // Liveness watchdog: every worker must finish well inside the lock
    // manager's worst-case wait bound times the retry budget. A recv
    // timeout here means a waiter hung (lost notification / stuck grant).
    for _ in 0..threads {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("wait-die stress worker hung");
    }
    for h in handles {
        h.join().unwrap();
    }
    let (_, rows) = e.execute_collect(sid, "SELECT SUM(bal) FROM acct").unwrap();
    assert_eq!(rows[0][0], Value::Int(1600), "transfers lost or duplicated");
    let (_, rows) = e.execute_collect(sid, "SELECT COUNT(*) FROM acct").unwrap();
    assert_eq!(rows[0][0], Value::Int(16));
}

#[test]
fn lock_waits_resolve_when_older_waits_for_younger_commit() {
    let (_d, e) = engine();
    let s1 = e.create_session().unwrap();
    e.execute(s1, "CREATE TABLE w (k INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(s1, "INSERT INTO w VALUES (1, 0)").unwrap();

    // Younger txn takes the row lock...
    let s2 = e.create_session().unwrap();
    // (make s1's txn *older*: begin it first)
    e.execute(s1, "BEGIN TRAN").unwrap();
    e.execute(s1, "SELECT COUNT(*) FROM w").unwrap(); // S lock, establishes age
    e.execute(s2, "BEGIN TRAN").unwrap();
    let r2 = e.execute(s2, "UPDATE w SET v = 2 WHERE k = 1");
    // s2 is younger and conflicts with s1's S table lock → dies.
    assert!(matches!(r2, Err(Error::Deadlock)));
    e.execute(s1, "COMMIT").unwrap();

    // Fresh round: now the writer commits and a blocked older reader
    // completes after release.
    let e2 = Arc::clone(&e);
    let s3 = e.create_session().unwrap();
    e.execute(s3, "BEGIN TRAN").unwrap();
    e.execute(s3, "UPDATE w SET v = 3 WHERE k = 1").unwrap();
    let h = std::thread::spawn(move || {
        let s4 = e2.create_session().unwrap();
        // Point-read the row: waits grace, then dies or (after commit)
        // succeeds. Retry loop models the client.
        loop {
            match e2.execute_collect(s4, "SELECT v FROM w WHERE k = 1") {
                Ok((_, rows)) => return rows[0][0].clone(),
                Err(Error::Deadlock) => continue,
                Err(e) => panic!("{e}"),
            }
        }
    });
    std::thread::sleep(Duration::from_millis(50));
    e.execute(s3, "COMMIT").unwrap();
    assert_eq!(h.join().unwrap(), Value::Int(3));
}
