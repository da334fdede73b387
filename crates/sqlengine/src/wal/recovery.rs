//! Restart recovery: analysis, redo, undo (ARIES-style, simplified by
//! append-only page tuple space), and the page actions every replay of
//! the log shares.
//!
//! * **Analysis** — locate the last checkpoint via the master record,
//!   restore its catalog snapshot, and scan forward from its `scan_from`
//!   (the Begin of the oldest writer open at the checkpoint, or the
//!   checkpoint itself), classifying transactions into winners (Commit
//!   seen), explicit aborts, and losers.
//! * **Redo** — replay every page action whose LSN is newer than the page's
//!   on-disk LSN through `redo`; DDL and page allocations are top
//!   actions replayed idempotently against the catalog.
//! * **Undo** — roll back losers in reverse LSN order through
//!   `compensate`, skipping actions already compensated by a CLR (so
//!   recovery itself is idempotent and a crash *during* recovery is
//!   handled by simply running recovery again — the property Phoenix
//!   relies on, and which `tests/` fault-injects).
//!
//! `redo` is the one place a page record changes a page image, and
//! `redo_due` the one LSN guard. Restart redo, page repair
//! ([`BufferPool::rebuild_page`], on a pool miss of a corrupt page, in a
//! checkpoint's archive pass or in the scrub) and runtime inserts,
//! deletes and page allocations all apply records through `redo`;
//! restart redo and repair both replay under `redo_due`. Restart also
//! skips the records of dropped tables, and repair starts from the page's
//! archive image, because a checkpoint truncates the log below its
//! `scan_from` once it has archived every page written before it.
//! `undo_entry` is the one place an update gets its inverse, and restart
//! undo and runtime abort both append and apply their CLRs through
//! `compensate`.
//!
//! Restart is timed with one lap clock: each phase records its wall time
//! in a `sqlengine.restart.*` histogram of the global registry —
//! `log_scan` (the CRC sweep of the kept log, [`LogStore::recover_tail`]),
//! `analysis` (the master record, the catalog restore, the pool and the
//! classification pass), `redo`, `undo` (loser rollback and the flush of
//! its CLRs), `free_list` (the free-list rebuild and the kernel) and
//! `scrub` (empty unless [`RecoveryConfig::scrub`] is on) — and the whole
//! restart, which is their sum by construction, in `sqlengine.restart`.
//! So a slow restart can be traced to its phase from a metrics snapshot
//! alone. Restart builds no PK index: each table builds its own on first
//! use (`sqlengine.index.build`), unless the scrub asks for all of them
//! up front.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::storage::buffer::{BufferPool, PageGuard};
use crate::storage::disk::{MemDisk, PAGE_SIZE};
use crate::storage::heap::Storage;
use crate::storage::page::{Page, PageRef};
use crate::txn::{TxnManager, UndoEntry};
use crate::wal::log::{ClrAction, GroupCommit, LogManager, LogRecord, LogStore, Lsn, TxnId};

/// Tuning for the recovered engine.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Buffer-pool capacity (pages) for the recovered engine.
    pub pool_capacity: usize,
    /// Verify the whole database before the engine serves traffic. Off
    /// by default. Without it, restart reads only the pages the kept log
    /// touches, and a page or row is checked when something first reads
    /// it: a pool miss verifies (and repairs) the page image, and a PK
    /// index build checks every row of its table. The scrub builds every
    /// PK index, so a corrupt row fails restart instead of the first
    /// statement that touches its table, and then verifies (and repairs)
    /// every allocated page the pool has not verified on the way. Each
    /// page is read once: a database of N pages that fits the pool costs
    /// N reads, plus an archive read per repaired page. On the `recovery`
    /// benchmark workload (TPC-H sf 0.005) that is ~670 pages per
    /// restart, where restart alone reads only the few its log replay
    /// touches, so servers that expect storage faults opt in rather than
    /// every restart paying it.
    pub scrub: bool,
    /// Group-commit window for the recovered engine's WAL manager.
    /// Disabled by default: single-session workloads gain nothing from
    /// batching, and the window adds commit latency.
    pub group_commit: GroupCommit,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            pool_capacity: 4096,
            scrub: false,
            group_commit: GroupCommit::default(),
        }
    }
}

/// Statistics describing what recovery did (reported by the server and
/// interesting for the recovery-time experiments).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Log records examined after the checkpoint.
    pub records_scanned: usize,
    /// Page actions re-applied during redo.
    pub redo_applied: usize,
    /// Loser transactions rolled back.
    pub losers_rolled_back: usize,
    /// Undo actions applied (CLRs written).
    pub undo_actions: usize,
    /// Bytes of torn log tail truncated before analysis.
    pub torn_tail_bytes: u64,
    /// Pages the post-recovery scrub rewrote after their durable image
    /// failed verification, when [`RecoveryConfig::scrub`] is on: pages it
    /// repaired itself, and pages the pool rebuilt on a miss earlier in
    /// the restart, whose rebuilt frames the scrub writes back.
    pub scrub_repaired: u32,
}

/// The restart clock: one lap per phase, each recorded as
/// `sqlengine.restart.<phase>`, and the whole restart, the sum of its
/// laps by construction, as `sqlengine.restart`.
struct Laps {
    start: Instant,
    last: Instant,
}

impl Laps {
    fn start() -> Self {
        let now = Instant::now();
        Laps {
            start: now,
            last: now,
        }
    }

    /// End the current phase here and record it.
    fn lap(&mut self, phase: &'static str) {
        let now = Instant::now();
        obskit::metrics::global().record(phase, now.duration_since(self.last));
        self.last = now;
    }

    /// Record the whole restart: from the start to the last lap.
    fn finish(self) {
        obskit::metrics::global().record("sqlengine.restart", self.last.duration_since(self.start));
    }
}

/// Rebuild a [`Storage`] kernel from durable state.
pub fn recover(
    disk: Arc<MemDisk>,
    store: Arc<LogStore>,
    config: RecoveryConfig,
) -> Result<(Storage, RecoveryStats)> {
    // A torn tail — the residue of a flush that failed mid-append — is
    // truncated *before* anything reads the log, so the manager's base
    // offset and every scan below see only whole, verified records.
    // Mid-log corruption surfaces here as `Error::Corruption`.
    let mut laps = Laps::start();
    let mut stats = RecoveryStats {
        torn_tail_bytes: store.recover_tail()?,
        ..RecoveryStats::default()
    };
    laps.lap("sqlengine.restart.log_scan");
    let log = Arc::new(LogManager::with_group(
        Arc::clone(&store),
        config.group_commit,
    ));

    // --- Analysis: restore catalog from checkpoint ---
    faultkit::crashpoint!("recovery.analysis");
    // The scan starts at the checkpoint's `scan_from`, which reaches back
    // to the Begin of every writer open at the checkpoint; DDL between it
    // and the checkpoint replays idempotently over the snapshot.
    let (catalog, scan_from) = match store.checkpoint() {
        Some(cp_lsn) => match store.record_at(cp_lsn)? {
            Some(LogRecord::Checkpoint {
                scan_from,
                snapshot,
            }) => (Catalog::restore(&snapshot)?, scan_from),
            // The checkpoint read its record back before it published the
            // master record, so a master record that names no checkpoint
            // record is damage. Replaying the kept log against an empty
            // catalog would be wrong: the log below it may be truncated.
            _ => {
                return Err(Error::Corruption {
                    device: "wal".into(),
                    detail: format!(
                        "master record names lsn {cp_lsn}, which holds no checkpoint record"
                    ),
                })
            }
        },
        None => (Catalog::new(), 0),
    };
    let catalog = Arc::new(catalog);
    let pool = Arc::new(BufferPool::new(
        Arc::clone(&disk),
        Arc::clone(&log),
        config.pool_capacity,
    ));

    let records = store.records_from(scan_from)?;
    stats.records_scanned = records.len();

    // Classify transactions and collect undo info in one pass. Records
    // arrive in LSN order, so each loser's undo list is too.
    let mut ended: HashSet<TxnId> = HashSet::new();
    let mut seen: HashSet<TxnId> = HashSet::new();
    let mut undo_log: HashMap<TxnId, Vec<UndoEntry>> = HashMap::new();
    let mut compensated: HashMap<TxnId, HashSet<Lsn>> = HashMap::new();
    let mut max_txn: TxnId = 0;

    for (lsn, rec) in &records {
        let Some(txn) = rec.txn() else {
            continue;
        };
        seen.insert(txn);
        max_txn = max_txn.max(txn);
        match rec {
            LogRecord::Commit { .. } | LogRecord::Abort { .. } => {
                ended.insert(txn);
            }
            LogRecord::Clr { undoes, .. } => {
                compensated.entry(txn).or_default().insert(*undoes);
            }
            _ => {
                if let Some(e) = undo_entry(*lsn, rec) {
                    undo_log.entry(txn).or_default().push(e);
                }
            }
        }
    }
    laps.lap("sqlengine.restart.analysis");

    // --- Redo ---
    faultkit::crashpoint!("recovery.redo");
    for (lsn, rec) in &records {
        match rec {
            LogRecord::CreateTable { table_id, schema } => {
                catalog.create_table_with_id(*table_id, schema.clone());
            }
            LogRecord::DropTable { table_id } => {
                catalog.drop_table_if_exists(*table_id);
            }
            LogRecord::CreateProc { name, body } => {
                catalog.create_proc(name, body, true)?;
            }
            LogRecord::DropProc { name } => {
                // lint:allow(discard): redo of a drop is idempotent; the proc may already be gone
                let _ = catalog.drop_proc(name);
            }
            _ => {}
        }
        let Some((table, page)) = rec.page() else {
            continue;
        };
        if catalog.get(table).is_none() {
            continue;
        }
        let alloc = matches!(rec, LogRecord::AllocPage { .. });
        if alloc {
            disk.ensure_capacity(page + 1, disk.current_epoch())?;
        }
        let guard = pool.fetch(page)?;
        let mut data = guard.write();
        if redo_due(&data, *lsn) {
            redo(&mut data, *lsn, rec)?;
            stats.redo_applied += 1;
        }
        drop(data);
        if alloc {
            catalog.add_page(table, page)?;
        }
    }
    laps.lap("sqlengine.restart.redo");

    // --- Undo losers ---
    faultkit::crashpoint!("recovery.redo.done");
    let losers: Vec<TxnId> = seen
        .iter()
        .copied()
        .filter(|t| !ended.contains(t))
        .collect();
    for txn in &losers {
        faultkit::crashpoint!("recovery.undo");
        let done = compensated.remove(txn).unwrap_or_default();
        let entries = undo_log.remove(txn).unwrap_or_default();
        for e in entries.iter().rev() {
            if done.contains(&e.lsn) || catalog.get(e.table).is_none() {
                continue;
            }
            compensate(&log, &pool.fetch(e.page)?, *txn, e)?;
            stats.undo_actions += 1;
        }
        log.append(&LogRecord::Abort { txn: *txn });
        stats.losers_rolled_back += 1;
    }
    faultkit::crashpoint!("recovery.flush");
    log.flush_all()?;
    laps.lap("sqlengine.restart.undo");

    // The free list is volatile: every page no surviving table owns —
    // dropped tables' pages, whether or not they had reached the list
    // before the crash, and pages whose AllocPage never became durable —
    // is free again. A reused page needs nothing more: its AllocPage
    // redo (or `repair_page`) re-initializes it.
    pool.rebuild_free_list(&catalog.owned_pages())?;
    let storage = Storage::new(catalog, pool, log, TxnManager::starting_at(max_txn + 1));
    laps.lap("sqlengine.restart.free_list");

    // Post-recovery scrub hook: build every PK index, so that a corrupt
    // row fails restart, then verify (and repair) every allocated page
    // the pool has not verified on the way, so latent disk damage
    // cannot outlive a restart on servers that opt in. Without it, a PK
    // index waits for its table's first use.
    if config.scrub {
        for table in storage.catalog.keyed_tables() {
            storage.pk_index(table)?;
        }
        stats.scrub_repaired = storage.pool.scrub()?.repaired;
    }
    laps.lap("sqlengine.restart.scrub");
    laps.finish();
    Ok((storage, stats))
}

/// Build a brand-new empty database (fresh durable state).
pub fn bootstrap(
    disk: Arc<MemDisk>,
    store: Arc<LogStore>,
    config: RecoveryConfig,
) -> Result<Storage> {
    let (storage, _) = recover(disk, store, config)?;
    Ok(storage)
}

/// Whether the page record logged at `lsn` is due on `image`, the LSN
/// guard of restart redo and page repair: a page carries the LSN of the
/// last record applied to it, so only a newer record is due. An image no
/// record ever formatted takes every record, since its LSN of 0 cannot
/// tell the log's very first record apart from none.
pub(crate) fn redo_due(image: &[u8; PAGE_SIZE], lsn: Lsn) -> bool {
    let page = PageRef::new(image);
    page.lsn() < lsn || !page.is_formatted()
}

/// Apply page record `rec`, logged at `lsn`, to page `image` and stamp
/// `lsn` on it. Restart redo, page repair and runtime updates all apply
/// records here; whether a record is due (an LSN guard, the page it
/// touches) is the caller's policy. A record that changes no page is a
/// no-op.
pub(crate) fn redo(image: &mut [u8; PAGE_SIZE], lsn: Lsn, rec: &LogRecord) -> Result<()> {
    let mut page = match rec {
        LogRecord::AllocPage { table, .. } => Page::init(image, *table),
        LogRecord::Insert { slot, data, .. } => {
            let mut page = Page::new(image);
            page.insert_expect(*slot, data)?;
            page
        }
        LogRecord::Delete { slot, .. } => {
            let mut page = Page::new(image);
            page.tombstone(*slot)?;
            page
        }
        LogRecord::Clr { action, slot, .. } => {
            let mut page = Page::new(image);
            match action {
                ClrAction::Tombstone => page.tombstone(*slot)?,
                ClrAction::Untombstone => page.untombstone(*slot)?,
            }
            page
        }
        _ => return Ok(()),
    };
    page.set_lsn(lsn);
    Ok(())
}

/// The inverse of update `rec`, logged at `lsn`: an insert is undone by
/// tombstoning its slot, a delete by clearing the tombstone (its bytes
/// never left the page). Other records are not undone.
pub(crate) fn undo_entry(lsn: Lsn, rec: &LogRecord) -> Option<UndoEntry> {
    let (action, table, page, slot) = match *rec {
        LogRecord::Insert {
            table, page, slot, ..
        } => (ClrAction::Tombstone, table, page, slot),
        LogRecord::Delete {
            table, page, slot, ..
        } => (ClrAction::Untombstone, table, page, slot),
        _ => return None,
    };
    Some(UndoEntry {
        lsn,
        action,
        table,
        page,
        slot,
    })
}

/// Undo `e` for transaction `txn` on its pinned page: append the CLR and
/// apply it under the page latch, so no other writer's record lands on
/// the page between the two and page LSNs rise in application order.
/// Restart undo and runtime abort both roll back through here.
pub(crate) fn compensate(
    log: &LogManager,
    guard: &PageGuard,
    txn: TxnId,
    e: &UndoEntry,
) -> Result<()> {
    let mut data = guard.write();
    let clr = LogRecord::Clr {
        txn,
        undoes: e.lsn,
        action: e.action,
        table: e.table,
        page: e.page,
        slot: e.slot,
    };
    let lsn = log.append(&clr);
    redo(&mut data, lsn, &clr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableId, TableSchema};
    use crate::storage::disk::DiskModel;
    use crate::storage::heap::DdlBatch;
    use crate::types::{DataType, Value};

    fn fresh_durable() -> (Arc<MemDisk>, Arc<LogStore>) {
        (
            Arc::new(MemDisk::new(DiskModel::default())),
            Arc::new(LogStore::new()),
        )
    }

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Str),
            ],
        )
        .with_primary_key(vec![0])
    }

    /// Run one DDL top action as a batch of its own, forced.
    fn ddl<T>(st: &Storage, f: impl FnOnce(&mut DdlBatch) -> Result<T>) -> T {
        let mut batch = DdlBatch::default();
        let v = f(&mut batch).unwrap();
        st.finish_ddl(batch).unwrap();
        v
    }

    fn row(i: i64) -> Vec<Value> {
        vec![Value::Int(i), Value::Str(format!("row-{i}"))]
    }

    /// The live rows of `table`, in heap order.
    fn rows_of(st: Storage, table: TableId) -> Vec<Vec<Value>> {
        Arc::new(st)
            .scan(table)
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect()
    }

    #[test]
    fn committed_work_survives_crash() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = ddl(&st, |b| st.create_table(b, schema()));
            let txn = st.begin();
            for i in 0..100 {
                st.insert_row(&txn, tid, &row(i)).unwrap();
            }
            st.commit(&txn).unwrap();
            // Crash: drop volatile state without flushing pages.
        }
        let (st2, stats) =
            recover(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
        assert!(stats.redo_applied > 0);
        let st2 = Arc::new(st2);
        assert_eq!(st2.scan(tid).unwrap().count(), 100);
        // The first keyed read builds the index.
        let mut hits = st2.scan_key_prefix(tid, &[Value::Int(42)]).unwrap();
        let (_, found) = hits.next().unwrap().unwrap();
        assert_eq!(found[1], Value::Str("row-42".into()));
        assert!(hits.next().is_none());
    }

    #[test]
    fn uncommitted_work_rolled_back() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = Arc::new(
                bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap(),
            );
            tid = ddl(&st, |b| st.create_table(b, schema()));
            let t1 = st.begin();
            st.insert_row(&t1, tid, &row(1)).unwrap();
            st.commit(&t1).unwrap();

            let t2 = st.begin();
            st.insert_row(&t2, tid, &row(2)).unwrap();
            let (rid, _) = st
                .scan_key_prefix(tid, &[Value::Int(1)])
                .unwrap()
                .next()
                .unwrap()
                .unwrap();
            st.delete_row(&t2, tid, rid).unwrap();
            // Force the loser's records durable so recovery actually has
            // work to undo.
            st.log.flush_all().unwrap();
            // Crash without commit.
        }
        let (st2, stats) = recover(disk, store, Default::default()).unwrap();
        assert_eq!(stats.losers_rolled_back, 1);
        assert!(stats.undo_actions >= 2);
        assert_eq!(rows_of(st2, tid), vec![row(1)]);
    }

    #[test]
    fn unflushed_commit_is_lost_but_flushed_commit_is_not() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = ddl(&st, |b| st.create_table(b, schema()));
            let txn = st.begin();
            st.insert_row(&txn, tid, &row(7)).unwrap();
            st.commit(&txn).unwrap(); // commit flushes
        }
        let (st2, _) = recover(disk, store, Default::default()).unwrap();
        assert_eq!(rows_of(st2, tid).len(), 1);
    }

    #[test]
    fn recovery_is_idempotent() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = ddl(&st, |b| st.create_table(b, schema()));
            let t = st.begin();
            for i in 0..10 {
                st.insert_row(&t, tid, &row(i)).unwrap();
            }
            st.log.flush_all().unwrap(); // loser, durable
        }
        // Recover twice in a row (crash immediately after first recovery).
        let (st1, s1) = recover(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
        assert_eq!(s1.losers_rolled_back, 1);
        drop(st1); // crash again, without any checkpoint
        let (st2, s2) = recover(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
        // Second recovery sees the CLRs and skips re-undoing.
        assert_eq!(s2.undo_actions, 0);
        assert_eq!(rows_of(st2, tid).len(), 0);
    }

    #[test]
    fn checkpoint_bounds_redo() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = ddl(&st, |b| st.create_table(b, schema()));
            let t = st.begin();
            for i in 0..50 {
                st.insert_row(&t, tid, &row(i)).unwrap();
            }
            st.commit(&t).unwrap();
            st.checkpoint().unwrap();
            let t2 = st.begin();
            st.insert_row(&t2, tid, &row(100)).unwrap();
            st.commit(&t2).unwrap();
        }
        let (st2, stats) = recover(disk, store, Default::default()).unwrap();
        // Only the post-checkpoint insert should need redo.
        assert_eq!(stats.redo_applied, 1);
        assert_eq!(rows_of(st2, tid).len(), 51);
    }

    #[test]
    fn dropped_table_records_skipped() {
        let (disk, store) = fresh_durable();
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            let tid = ddl(&st, |b| st.create_table(b, schema()));
            let t = st.begin();
            st.insert_row(&t, tid, &row(1)).unwrap();
            st.commit(&t).unwrap();
            ddl(&st, |b| st.drop_table(b, "t"));
        }
        let (st2, _) = recover(disk, store, Default::default()).unwrap();
        assert!(st2.catalog.resolve("t").is_none());
    }

    #[test]
    fn procedures_survive_crash() {
        let (disk, store) = fresh_durable();
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            ddl(&st, |b| st.create_proc(b, "p1", "SELECT 1", false));
        }
        let (st2, _) = recover(disk, store, Default::default()).unwrap();
        assert_eq!(st2.catalog.get_proc("p1").unwrap(), "SELECT 1");
    }

    #[test]
    fn runtime_abort_then_crash_recovers_clean() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = ddl(&st, |b| st.create_table(b, schema()));
            let t = st.begin();
            st.insert_row(&t, tid, &row(1)).unwrap();
            st.abort(&t).unwrap();
            let t2 = st.begin();
            st.insert_row(&t2, tid, &row(2)).unwrap();
            st.commit(&t2).unwrap();
        }
        let (st2, stats) = recover(disk, store, Default::default()).unwrap();
        assert_eq!(stats.losers_rolled_back, 0);
        assert_eq!(rows_of(st2, tid), vec![row(2)]);
    }
}
