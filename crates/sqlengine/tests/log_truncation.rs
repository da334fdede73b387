//! Checkpoints archive page images and truncate the log.
//!
//! A checkpoint flushes the pool, publishes its master record, copies
//! every page written since the last checkpoint into the disk's archive
//! and only then drops the log below its `scan_from`. Page repair starts
//! from the archive image and replays the kept log, and restart verifies
//! only the kept log. These tests corrupt pages after truncations and
//! check that every repair rebuilds the exact image the page had, that
//! the kept log stays bounded, and that restart's phase clock and its
//! scrub read what they should.
//!
//! The tests read process-global metrics, so they serialize on [`serial`].

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use faultkit::disk::{DiskFaultKind, DiskPlan};
use sqlengine::schema::{Column, TableId, TableSchema};
use sqlengine::storage::disk::{DiskModel, MemDisk, PageId, PAGE_SIZE};
use sqlengine::storage::heap::DdlBatch;
use sqlengine::storage::page::PAGE_CONTENT;
use sqlengine::storage::{RowId, Storage};
use sqlengine::types::{DataType, Row, Value};
use sqlengine::wal::log::LogStore;
use sqlengine::wal::recovery::{bootstrap, recover, RecoveryConfig};
use sqlengine::Error;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counter(name: &'static str) -> u64 {
    obskit::metrics::global().counter(name).get()
}

fn schema(name: &str, keyed: bool) -> TableSchema {
    let s = TableSchema::new(
        name,
        vec![
            Column::new("k", DataType::Int),
            Column::new("pad", DataType::Str),
        ],
    );
    if keyed {
        s.with_primary_key(vec![0])
    } else {
        s
    }
}

/// A ~400-byte row: about 20 fit on a page.
fn row(k: i64, tag: &str) -> Row {
    vec![Value::Int(k), Value::Str(format!("{tag}{k:>400}"))]
}

struct Db {
    disk: Arc<MemDisk>,
    store: Arc<LogStore>,
    st: Arc<Storage>,
}

impl Db {
    fn new() -> Db {
        let disk = Arc::new(MemDisk::new(DiskModel::default()));
        let store = Arc::new(LogStore::new());
        let st =
            Arc::new(bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap());
        Db { disk, store, st }
    }

    fn table(&self, name: &str, keyed: bool) -> TableId {
        let mut ddl = DdlBatch::default();
        let id = self.st.create_table(&mut ddl, schema(name, keyed)).unwrap();
        self.st.finish_ddl(ddl).unwrap();
        id
    }

    /// Insert `keys` in one committed transaction.
    fn insert(&self, table: TableId, keys: impl IntoIterator<Item = i64>, tag: &str) {
        let t = self.st.begin();
        for k in keys {
            self.st.insert_row(&t, table, &row(k, tag)).unwrap();
        }
        self.st.commit(&t).unwrap();
    }

    /// Delete every live row whose key satisfies `pick`, committed.
    fn delete(&self, table: TableId, pick: impl Fn(i64) -> bool) {
        let doomed: Vec<RowId> = self
            .st
            .scan(table)
            .unwrap()
            .map(Result::unwrap)
            .filter(|(_, r)| pick(r[0].as_i64().unwrap()))
            .map(|(rid, _)| rid)
            .collect();
        let t = self.st.begin();
        for rid in doomed {
            self.st.delete_row(&t, table, rid).unwrap();
        }
        self.st.commit(&t).unwrap();
    }

    /// Every page a table owns, with its current content (the frame's,
    /// once the log holds all of it).
    fn images(&self) -> BTreeMap<PageId, Vec<u8>> {
        self.st.log.flush_all().unwrap();
        self.st
            .catalog
            .owned_pages()
            .into_iter()
            .map(|pid| (pid, content(&self.st.pool.fetch(pid).unwrap().read())))
            .collect()
    }

    /// Crash, damage every page in `pages` on disk, and restart.
    fn crash_corrupt_restart(self, pages: &[PageId], config: RecoveryConfig) -> Db {
        self.crash_corrupt(pages).restart(config)
    }

    /// Crash and damage every page in `pages` on disk.
    fn crash_corrupt(self, pages: &[PageId]) -> Crashed {
        let Db { disk, store, st } = self;
        st.log.flush_all().unwrap();
        drop(st);
        disk.bump_epoch();
        store.bump_epoch();
        for &pid in pages {
            corrupt(&disk, pid);
        }
        Crashed { disk, store }
    }
}

/// Durable state after a crash.
struct Crashed {
    disk: Arc<MemDisk>,
    store: Arc<LogStore>,
}

impl Crashed {
    fn restart(self, config: RecoveryConfig) -> Db {
        let Crashed { disk, store } = self;
        let (st, _) = recover(Arc::clone(&disk), Arc::clone(&store), config).unwrap();
        Db {
            disk,
            store,
            st: Arc::new(st),
        }
    }
}

/// A page image without the checksum trailer the disk stamps.
fn content(image: &[u8; PAGE_SIZE]) -> Vec<u8> {
    image[..PAGE_CONTENT].to_vec()
}

/// Rewrite page `pid` on disk with one bit flipped.
fn corrupt(disk: &MemDisk, pid: PageId) {
    let mut raw = [0u8; PAGE_SIZE];
    disk.read_page(pid, &mut raw).unwrap();
    disk.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::BitFlip, 1)));
    disk.write_page(pid, &raw, disk.current_epoch()).unwrap();
    disk.set_fault_plan(None);
}

/// Fetch every page in `want` through the pool (each is corrupt on disk,
/// so each fetch repairs) and compare it with the image it had.
fn assert_repairs_match(db: &Db, want: &BTreeMap<PageId, Vec<u8>>) {
    for (&pid, image) in want {
        let got = content(&db.st.pool.fetch(pid).unwrap().read());
        assert!(got == *image, "page {pid} was rebuilt wrong");
        let (rebuilt, _) = db.st.pool.rebuild_page(pid).unwrap();
        assert!(content(&rebuilt) == *image, "page {pid} rebuilds wrong");
    }
}

#[test]
fn repair_after_truncation_starts_from_the_archive_image() {
    let _g = serial();
    let db = Db::new();
    let t = db.table("t", true);
    db.insert(t, 0..100, "a");
    db.st.checkpoint().unwrap();
    assert!(db.store.base() > 0, "the checkpoint truncated nothing");
    // Every page now owes most of its history to the archive; a little
    // more is in the kept log.
    db.delete(t, |k| k % 7 == 0);
    db.insert(t, 100..110, "b");
    let want = db.images();
    let pages: Vec<PageId> = want.keys().copied().collect();
    let before = counter("storage.repair.from_archive");
    let db = db.crash_corrupt_restart(&pages, RecoveryConfig::default());
    assert_repairs_match(&db, &want);
    assert!(counter("storage.repair.from_archive") - before >= pages.len() as u64);
}

#[test]
fn every_page_written_since_the_last_checkpoint_is_archived() {
    let _g = serial();
    let db = Db::new();
    let (a, b) = (db.table("a", true), db.table("b", false));
    db.insert(a, 0..120, "a");
    db.insert(b, 0..60, "b");
    db.st.checkpoint().unwrap();
    // Touch some pages of each table, drop a table, reuse its pages, and
    // checkpoint again: the second pass must copy each written page.
    db.delete(a, |k| k % 20 == 3);
    db.insert(b, 60..90, "c");
    let c = db.table("c", true);
    db.insert(c, 0..30, "d");
    let mut ddl = DdlBatch::default();
    db.st.drop_table(&mut ddl, "c").unwrap();
    db.st.finish_ddl(ddl).unwrap();
    let d = db.table("d", true);
    db.insert(d, 0..40, "e");
    let archived = counter("storage.archive.pages");
    db.st.checkpoint().unwrap();
    assert!(counter("storage.archive.pages") > archived);
    assert!(db.disk.unarchived().is_empty());
    // The kept log starts at the second checkpoint; every page's history
    // before it lives only in the archive.
    db.insert(a, 200..205, "f");
    let want = db.images();
    let pages: Vec<PageId> = want.keys().copied().collect();
    let db = db.crash_corrupt_restart(&pages, RecoveryConfig::default());
    assert_repairs_match(&db, &want);
}

#[test]
fn a_damaged_image_the_checkpoint_writes_is_rebuilt_before_the_log_goes() {
    let _g = serial();
    let db = Db::new();
    let t = db.table("t", true);
    db.insert(t, 0..80, "a");
    db.st.checkpoint().unwrap();
    db.delete(t, |k| k % 3 == 0);
    db.insert(t, 80..90, "b");
    let want = db.images();
    // The checkpoint's own flush writes damaged images: its archive pass
    // must rebuild them from the log it has not truncated yet.
    let mended = counter("storage.corruption.repaired");
    db.disk
        .set_fault_plan(Some(DiskPlan::at(DiskFaultKind::BitFlip, 1)));
    db.st.checkpoint().unwrap();
    db.disk.set_fault_plan(None);
    assert!(counter("storage.corruption.repaired") > mended);
    let pages: Vec<PageId> = want.keys().copied().collect();
    let db = db.crash_corrupt_restart(&pages, RecoveryConfig::default());
    assert_repairs_match(&db, &want);
}

#[test]
fn log_bytes_stay_bounded_under_periodic_checkpoints() {
    let _g = serial();
    let db = Db::new();
    let t = db.table("t", true);
    db.insert(t, 0..200, "a");
    db.st.checkpoint().unwrap();
    // One cycle: a few inserts and deletes, then a checkpoint. The log
    // held just before each checkpoint is the cycle's own.
    let mut held = Vec::new();
    let mut next = 200;
    for cycle in 0..100 {
        db.insert(t, next..next + 5, "c");
        next += 5;
        db.delete(t, |k| k >= 200 && k < next - 20);
        held.push(db.store.held_bytes());
        db.st.checkpoint().unwrap();
        let scan_from = db.store.base();
        assert!(
            db.store.held_bytes() <= db.store.durable_end() - scan_from,
            "cycle {cycle}: more log kept than the checkpoint needs"
        );
    }
    let bound = 2 * held[..10].iter().max().unwrap();
    let most = *held.iter().max().unwrap();
    assert!(
        most <= bound,
        "held log grew from {bound} to {most} bytes over 100 cycles"
    );
    // The log written is far larger than the log held.
    assert!(db.store.durable_end() > 20 * bound);
    let keys: Vec<i64> = {
        let db = db.crash_corrupt_restart(&[], RecoveryConfig::default());
        let mut keys: Vec<i64> = db
            .st
            .scan(t)
            .unwrap()
            .map(|r| r.unwrap().1[0].as_i64().unwrap())
            .collect();
        keys.sort_unstable();
        keys
    };
    let want: Vec<i64> = (0..200).chain(next - 20..next).collect();
    assert_eq!(keys, want);
}

#[test]
fn a_master_record_naming_no_checkpoint_after_truncation_fails_restart() {
    let _g = serial();
    let db = Db::new();
    let t = db.table("t", true);
    db.insert(t, 0..50, "a");
    db.st.checkpoint().unwrap();
    let end = db.store.durable_end();
    let Db { disk, store, st } = db;
    drop(st);
    let epoch = store.current_epoch();
    // Past the log end, and a frame whose header runs past it (torn).
    for bogus in [end + 64, end - 4] {
        store.set_checkpoint(bogus, epoch).unwrap();
        match recover(Arc::clone(&disk), Arc::clone(&store), Default::default()) {
            Err(Error::Corruption { .. }) => {}
            Err(e) => panic!("restart failed with {e}, not corruption"),
            Ok(_) => panic!("restart replayed the kept log against an empty catalog"),
        }
    }
}

#[test]
fn a_checkpoint_record_a_flush_lied_about_is_never_published() {
    let _g = serial();
    let db = Db::new();
    let t = db.table("t", true);
    db.insert(t, 0..50, "a");
    db.st.checkpoint().unwrap();
    db.insert(t, 50..60, "b");
    db.st.log.flush_all().unwrap();
    db.st.pool.flush_all().unwrap();
    let (master, base) = (db.store.checkpoint(), db.store.base());
    // The checkpoint's only log flush, of its own record, lies.
    db.store
        .set_fault_plan(Some(DiskPlan::at(DiskFaultKind::FsyncLie, 1)));
    match db.st.checkpoint() {
        Err(Error::Corruption { .. }) => {}
        other => panic!("checkpoint over a lying flush returned {other:?}"),
    }
    db.store.set_fault_plan(None);
    assert_eq!((db.store.checkpoint(), db.store.base()), (master, base));
    let db = db.crash_corrupt_restart(&[], RecoveryConfig::default());
    assert_eq!(db.st.scan(t).unwrap().count(), 60);
}

#[test]
fn a_scrubbed_restart_reads_each_page_once() {
    let _g = serial();
    let db = Db::new();
    let (a, b) = (db.table("a", true), db.table("b", true));
    let heap = db.table("heap", false);
    db.insert(a, 0..100, "a");
    db.insert(b, 0..60, "b");
    db.insert(heap, 0..40, "h");
    db.st.checkpoint().unwrap();
    db.insert(a, 100..105, "c");
    let damaged = *db.st.catalog.get(b).unwrap().read().pages.first().unwrap();
    let pages = db.disk.num_pages() as u64;
    let crashed = db.crash_corrupt(&[damaged]);
    let reads = crashed.disk.stats().snapshot().reads;
    let scrub = RecoveryConfig {
        scrub: true,
        ..Default::default()
    };
    let db = crashed.restart(scrub);
    let read = db.disk.stats().snapshot().reads - reads;
    // The one repair reads the page's archive image too.
    assert!(
        read <= pages + 1,
        "a scrubbed restart of {pages} pages made {read} reads"
    );
    assert_eq!(db.st.scrub().unwrap().detected, 0);
}

#[test]
fn restart_phases_add_up_to_the_whole_restart() {
    const PHASES: [&str; 6] = [
        "sqlengine.restart.log_scan",
        "sqlengine.restart.analysis",
        "sqlengine.restart.redo",
        "sqlengine.restart.undo",
        "sqlengine.restart.free_list",
        "sqlengine.restart.scrub",
    ];
    let _g = serial();
    let hist = |name: &'static str| obskit::metrics::global().histogram(name).snapshot();
    let db = Db::new();
    let t = db.table("t", true);
    db.insert(t, 0..50, "a");
    db.st.checkpoint().unwrap();
    db.insert(t, 50..60, "b");
    let before: Vec<_> = PHASES.iter().map(|&p| hist(p)).collect();
    let whole = hist("sqlengine.restart");
    let db = db.crash_corrupt_restart(&[], RecoveryConfig::default());
    let mut sum = 0;
    for (p, b) in PHASES.iter().zip(&before) {
        let d = hist(p);
        assert_eq!(d.count - b.count, 1, "{p}: one sample per restart");
        sum += d.sum - b.sum;
    }
    let w = hist("sqlengine.restart");
    assert_eq!(w.count - whole.count, 1);
    assert_eq!(sum, w.sum - whole.sum, "the phases must sum to the whole");
    drop(db);
}
