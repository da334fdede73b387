//! A table's PK index is built on the table's first keyed use, not at
//! restart.
//!
//! Restart reads only the pages its log replay touches. The first point
//! read, prefix read or insert of a keyed table builds that table's index
//! from its heap, once, however many threads ask at the same moment. A
//! build that fails installs nothing, and the next use builds again.
//!
//! The tests count builds in the process-global `sqlengine.index.build`
//! histogram, so they serialize on [`serial`].

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use faultkit::disk::{DiskFaultKind, DiskPlan};
use sqlengine::schema::{Column, TableId, TableSchema};
use sqlengine::storage::disk::{DiskModel, MemDisk};
use sqlengine::storage::heap::DdlBatch;
use sqlengine::storage::{RowId, Storage};
use sqlengine::types::{DataType, Row, Value};
use sqlengine::wal::log::LogStore;
use sqlengine::wal::recovery::{bootstrap, recover};
use sqlengine::Error;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Index builds completed so far in this process.
fn builds() -> u64 {
    obskit::metrics::global()
        .histogram("sqlengine.index.build")
        .snapshot()
        .count
}

/// Rows in the big table.
const BIG_ROWS: i64 = 2000;

fn schema(name: &str) -> TableSchema {
    TableSchema::new(
        name,
        vec![
            Column::new("k", DataType::Int),
            Column::new("pad", DataType::Str),
        ],
    )
    .with_primary_key(vec![0])
}

/// A ~400-byte row: about 20 fit on a page.
fn row(k: i64, tag: &str) -> Row {
    vec![Value::Int(k), Value::Str(format!("{tag}{k:>400}"))]
}

struct Db {
    disk: Arc<MemDisk>,
    store: Arc<LogStore>,
    big: TableId,
    small: TableId,
}

impl Db {
    /// `big` (keys `0..BIG_ROWS`) and `small` (keys 0 and 1), checkpointed,
    /// then one committed update to `small`; then a crash.
    fn new(model: DiskModel) -> Db {
        let disk = Arc::new(MemDisk::new(model));
        let store = Arc::new(LogStore::new());
        let st =
            Arc::new(bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap());
        let mut ddl = DdlBatch::default();
        let big = st.create_table(&mut ddl, schema("big")).unwrap();
        let small = st.create_table(&mut ddl, schema("small")).unwrap();
        st.finish_ddl(ddl).unwrap();
        let t = st.begin();
        for k in 0..BIG_ROWS {
            st.insert_row(&t, big, &row(k, "v")).unwrap();
        }
        for k in 0..2 {
            st.insert_row(&t, small, &row(k, "v")).unwrap();
        }
        st.commit(&t).unwrap();
        st.checkpoint().unwrap();
        let t = st.begin();
        let (rid, _) = only(&st, small, 0).unwrap();
        st.update_row(&t, small, rid, &row(0, "w")).unwrap();
        st.commit(&t).unwrap();
        Db {
            disk,
            store,
            big,
            small,
        }
    }

    fn restart(&self) -> Arc<Storage> {
        let (st, _) = recover(
            Arc::clone(&self.disk),
            Arc::clone(&self.store),
            Default::default(),
        )
        .unwrap();
        Arc::new(st)
    }

    fn reads(&self) -> u64 {
        self.disk.stats().snapshot().reads
    }
}

/// The row with key `k`, read through the index.
fn only(st: &Arc<Storage>, table: TableId, k: i64) -> Option<(RowId, Row)> {
    let mut hits: Vec<_> = st
        .scan_key_prefix(table, &[Value::Int(k)])
        .unwrap()
        .map(Result::unwrap)
        .collect();
    assert!(hits.len() <= 1, "key {k} found {} times", hits.len());
    hits.pop()
}

fn heap(st: &Arc<Storage>, table: TableId) -> Vec<(RowId, Row)> {
    st.scan(table).unwrap().map(Result::unwrap).collect()
}

/// The index reaches every live row of `table`, under the row's own key,
/// and no other row.
fn assert_index_matches_heap(st: &Arc<Storage>, table: TableId) {
    let heap = heap(st, table);
    // The empty prefix starts every key, so this reads every entry.
    let indexed: Vec<_> = st
        .scan_key_prefix(table, &[])
        .unwrap()
        .map(Result::unwrap)
        .collect();
    assert_eq!(indexed, heap);
    for (rid, r) in &heap {
        let Value::Int(k) = r[0] else {
            panic!("key column holds {:?}", r[0]);
        };
        assert_eq!(only(st, table, k), Some((*rid, r.clone())));
    }
}

fn page_count(st: &Storage, table: TableId) -> u64 {
    st.catalog.get(table).unwrap().read().pages.len() as u64
}

#[test]
fn restart_reads_only_what_the_log_needs_and_first_use_builds_the_index() {
    let _serial = serial();
    let db = Db::new(DiskModel::default());
    let (reads, built) = (db.reads(), builds());
    let st = db.restart();
    let restart_reads = db.reads() - reads;
    let big_pages = page_count(&st, db.big);
    assert!(big_pages >= 80, "big table has only {big_pages} pages");
    assert!(
        restart_reads * 20 < big_pages,
        "restart read {restart_reads} pages; the big table has {big_pages}"
    );
    assert_eq!(builds(), built, "restart built an index");

    // The big table's first keyed use builds its index from its heap.
    let (reads, built) = (db.reads(), builds());
    assert_eq!(only(&st, db.big, 1234).unwrap().1, row(1234, "v"));
    assert_eq!(builds() - built, 1);
    assert!(db.reads() - reads >= big_pages - restart_reads);
    // Its next use, and the small table's update replayed at restart,
    // are served as before.
    assert_eq!(only(&st, db.big, 7).unwrap().1, row(7, "v"));
    assert_eq!(builds() - built, 1);
    assert_eq!(only(&st, db.small, 0).unwrap().1, row(0, "w"));
    assert_eq!(builds() - built, 2);
}

#[test]
fn concurrent_first_users_share_one_build() {
    let _serial = serial();
    // Each read sleeps 2 ms, so the ~100-page build outlasts the start of
    // every thread, and the threads waiting on it leave the cores free.
    let model = DiskModel {
        read_latency: Duration::from_millis(2),
        write_latency: Duration::ZERO,
    };
    let db = Db::new(model);
    let big = db.big;
    // The rows the deleters remove, keys divisible by 50. A restart finds
    // them; the race runs in the next one, whose pool is cold.
    let victims: Vec<(RowId, Row)> = heap(&db.restart(), big)
        .into_iter()
        .filter(|(_, r)| r[0].as_i64().unwrap() % 50 == 0)
        .collect();
    let st = db.restart();
    let built = builds();

    let barrier = Barrier::new(6);
    thread::scope(|s| {
        for who in 0..2i64 {
            let (st, barrier) = (&st, &barrier);
            // Point readers, of keys no deleter removes.
            s.spawn(move || {
                barrier.wait();
                for k in (1 + who..BIG_ROWS).step_by(97).filter(|k| k % 50 != 0) {
                    assert_eq!(only(st, big, k).unwrap().1, row(k, "v"));
                }
            });
            // Inserters: new keys, and a duplicate that must be rejected.
            s.spawn(move || {
                barrier.wait();
                let t = st.begin();
                for k in 0..50 {
                    st.insert_row(&t, big, &row(BIG_ROWS + who * 50 + k, "n"))
                        .unwrap();
                }
                let dup = st.insert_row(&t, big, &row(3 + who, "d"));
                assert!(matches!(dup, Err(Error::DuplicateKey(_))), "{dup:?}");
                st.commit(&t).unwrap();
            });
            // Deleters: they change the heap before they touch the index.
            let mine: Vec<RowId> = victims
                .iter()
                .skip(who as usize)
                .step_by(2)
                .map(|(rid, _)| *rid)
                .collect();
            s.spawn(move || {
                barrier.wait();
                let t = st.begin();
                for rid in mine {
                    st.delete_row(&t, big, rid).unwrap();
                }
                st.commit(&t).unwrap();
            });
        }
    });
    assert_eq!(builds() - built, 1, "more than one build of one table");
    assert_index_matches_heap(&st, big);
    assert_eq!(
        heap(&st, big).len() as i64,
        BIG_ROWS + 100 - victims.len() as i64
    );
    // No deleted key lingers in the index, and a live key still collides.
    let t = st.begin();
    for (_, r) in &victims {
        st.insert_row(&t, big, r).unwrap();
    }
    let dup = st.insert_row(&t, big, &row(BIG_ROWS + 60, "d"));
    assert!(matches!(dup, Err(Error::DuplicateKey(_))), "{dup:?}");
    st.abort(&t).unwrap();
    assert_index_matches_heap(&st, big);
    assert_eq!(builds() - built, 1);
}

#[test]
fn a_failed_build_installs_nothing_and_the_next_use_builds_again() {
    let _serial = serial();
    let db = Db::new(DiskModel::default());
    let st = db.restart();
    let built = builds();
    // The fifth page read of the build fails.
    db.disk
        .set_fault_plan(Some(DiskPlan::at(DiskFaultKind::ReadErr, 5)));
    match st.scan_key_prefix(db.big, &[Value::Int(7)]) {
        Err(Error::Storage(_)) => {}
        Err(e) => panic!("the build failed with {e}, not the read error"),
        Ok(_) => panic!("a build with a failed page read succeeded"),
    }
    assert_eq!(builds(), built);
    db.disk.set_fault_plan(None);
    // The next use builds the whole index: the last key, on the last
    // page, is there to collide with.
    let t = st.begin();
    let dup = st.insert_row(&t, db.big, &row(BIG_ROWS - 1, "d"));
    assert!(matches!(dup, Err(Error::DuplicateKey(_))), "{dup:?}");
    st.abort(&t).unwrap();
    assert_eq!(builds() - built, 1);
    assert_index_matches_heap(&st, db.big);
}
