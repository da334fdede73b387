//! Restart recovery: analysis, redo, undo (ARIES-style, simplified by
//! quiesced checkpoints and append-only page tuple space).
//!
//! * **Analysis** — locate the last checkpoint via the master record,
//!   restore the catalog snapshot, and scan forward classifying
//!   transactions into winners (Commit seen), explicit aborts, and losers.
//! * **Redo** — replay every page action whose LSN is newer than the page's
//!   on-disk LSN; DDL and page allocations are top actions replayed
//!   idempotently against the catalog.
//! * **Undo** — roll back losers in reverse LSN order, skipping actions
//!   already compensated by a CLR (so recovery itself is idempotent and a
//!   crash *during* recovery is handled by simply running recovery again —
//!   the property Phoenix relies on, and which `tests/` fault-injects).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::catalog::Catalog;
use crate::error::Result;
use crate::storage::buffer::{with_page_mut, BufferPool};
use crate::storage::disk::MemDisk;
use crate::storage::heap::Storage;
use crate::storage::page::Page;
use crate::txn::TxnManager;
use crate::wal::log::{ClrAction, GroupCommit, LogManager, LogRecord, LogStore, Lsn, TxnId};

/// Tuning for the recovered engine.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Buffer-pool capacity (pages) for the recovered engine.
    pub pool_capacity: usize,
    /// Run a full checksum scrub (detect + repair every allocated page)
    /// after redo/undo complete. Off by default: scrubbing reads every
    /// page, which would skew the recovery-time experiments; servers
    /// that expect storage faults opt in.
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
    /// Pages found corrupt (and repaired) by the post-recovery scrub,
    /// when [`RecoveryConfig::scrub`] is on.
    pub scrub_repaired: u32,
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
    let mut stats = RecoveryStats {
        torn_tail_bytes: store.recover_tail()?,
        ..RecoveryStats::default()
    };
    let log = Arc::new(LogManager::with_group(
        Arc::clone(&store),
        config.group_commit,
    ));

    // --- Analysis: restore catalog from checkpoint ---
    faultkit::crashpoint!("recovery.analysis");
    let (catalog, redo_start) = match store.checkpoint() {
        Some(cp_lsn) => {
            let recs = store.records_from(cp_lsn)?;
            match recs.first() {
                Some((first_lsn, LogRecord::Checkpoint { snapshot })) => {
                    debug_assert_eq!(*first_lsn, cp_lsn);
                    (Catalog::restore(snapshot)?, cp_lsn)
                }
                // A master record pointing at a torn record or past the
                // log end means the checkpoint never fully made it out;
                // distrust it and replay from the start rather than
                // aborting recovery.
                _ => (Catalog::new(), 0),
            }
        }
        None => (Catalog::new(), 0),
    };
    let catalog = Arc::new(catalog);
    let pool = Arc::new(BufferPool::new(
        Arc::clone(&disk),
        Arc::clone(&log),
        config.pool_capacity,
    ));

    let records = store.records_from(redo_start)?;
    stats.records_scanned = records.len();

    // Classify transactions and collect undo info in one pass.
    let mut ended: HashSet<TxnId> = HashSet::new();
    let mut seen: HashSet<TxnId> = HashSet::new();
    type UndoItem = (Lsn, ClrAction, u32, u32, u16);
    let mut undo_log: HashMap<TxnId, Vec<UndoItem>> = HashMap::new();
    let mut compensated: HashMap<TxnId, HashSet<Lsn>> = HashMap::new();
    let mut max_txn: TxnId = 0;

    for (lsn, rec) in &records {
        if let Some(t) = rec.txn() {
            seen.insert(t);
            max_txn = max_txn.max(t);
        }
        match rec {
            LogRecord::Commit { txn } | LogRecord::Abort { txn } => {
                ended.insert(*txn);
            }
            LogRecord::Insert {
                txn,
                table,
                page,
                slot,
                ..
            } => {
                undo_log.entry(*txn).or_default().push((
                    *lsn,
                    ClrAction::Tombstone,
                    *table,
                    *page,
                    *slot,
                ));
            }
            LogRecord::Delete {
                txn,
                table,
                page,
                slot,
            } => {
                undo_log.entry(*txn).or_default().push((
                    *lsn,
                    ClrAction::Untombstone,
                    *table,
                    *page,
                    *slot,
                ));
            }
            LogRecord::Clr { txn, undoes, .. } => {
                compensated.entry(*txn).or_default().insert(*undoes);
            }
            _ => {}
        }
    }

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
            LogRecord::AllocPage { table, page } => {
                if catalog.get(*table).is_none() {
                    continue;
                }
                disk.ensure_capacity(*page + 1, disk.current_epoch())?;
                let guard = pool.fetch(*page)?;
                let mut data = guard.write();
                let needs_init = {
                    let p = Page::new(&mut data);
                    p.lsn() < *lsn
                };
                if needs_init {
                    let mut p = Page::init(&mut data, *table);
                    p.set_lsn(*lsn);
                    stats.redo_applied += 1;
                }
                drop(data);
                catalog.add_page(*table, *page)?;
            }
            LogRecord::Insert {
                table,
                page,
                slot,
                data,
                ..
            } => {
                if catalog.get(*table).is_none() {
                    continue;
                }
                let guard = pool.fetch(*page)?;
                let applied = with_page_mut(&guard, *lsn, |p| {
                    if p.lsn() < *lsn {
                        p.insert_expect(*slot, data)?;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                })?;
                if applied {
                    stats.redo_applied += 1;
                }
            }
            LogRecord::Delete {
                table, page, slot, ..
            } => {
                if catalog.get(*table).is_none() {
                    continue;
                }
                let guard = pool.fetch(*page)?;
                let applied = with_page_mut(&guard, *lsn, |p| {
                    if p.lsn() < *lsn {
                        p.tombstone(*slot)?;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                })?;
                if applied {
                    stats.redo_applied += 1;
                }
            }
            LogRecord::Clr {
                table,
                page,
                slot,
                action,
                ..
            } => {
                if catalog.get(*table).is_none() {
                    continue;
                }
                let guard = pool.fetch(*page)?;
                let applied = with_page_mut(&guard, *lsn, |p| {
                    if p.lsn() < *lsn {
                        match action {
                            ClrAction::Tombstone => p.tombstone(*slot)?,
                            ClrAction::Untombstone => p.untombstone(*slot)?,
                        }
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                })?;
                if applied {
                    stats.redo_applied += 1;
                }
            }
            _ => {}
        }
    }

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
        let mut entries = undo_log.remove(txn).unwrap_or_default();
        entries.sort_by_key(|e| e.0);
        for (lsn, action, table, page, slot) in entries.into_iter().rev() {
            if done.contains(&lsn) {
                continue;
            }
            if catalog.get(table).is_none() {
                continue;
            }
            let clr_lsn = log.append(&LogRecord::Clr {
                txn: *txn,
                undoes: lsn,
                action,
                table,
                page,
                slot,
            });
            let guard = pool.fetch(page)?;
            with_page_mut(&guard, clr_lsn, |p| match action {
                ClrAction::Tombstone => p.tombstone(slot),
                ClrAction::Untombstone => p.untombstone(slot),
            })?;
            stats.undo_actions += 1;
        }
        log.append(&LogRecord::Abort { txn: *txn });
        stats.losers_rolled_back += 1;
    }
    faultkit::crashpoint!("recovery.flush");
    log.flush_all()?;

    // Post-recovery scrub hook: verify (and repair) every allocated
    // page before the engine serves traffic, so latent disk damage
    // cannot outlive a restart on servers that opt in.
    if config.scrub {
        let report = pool.scrub()?;
        stats.scrub_repaired = report.repaired;
    }

    // The free list is volatile: every page no surviving table owns —
    // dropped tables' pages, whether or not they had reached the list
    // before the crash, and pages whose AllocPage never became durable —
    // is free again. A reused page needs nothing more: its AllocPage
    // redo (or `repair_page`) re-initializes it.
    pool.rebuild_free_list(&catalog.owned_pages())?;

    let storage = Storage::new(catalog, pool, log, TxnManager::starting_at(max_txn + 1));
    storage.rebuild_indexes()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
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
        let rows = st2.scan_all(tid).unwrap();
        assert_eq!(rows.len(), 100);
        // Index rebuilt too.
        let st2 = Arc::new(st2);
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
        let rows: Vec<_> = st2
            .scan_all(tid)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(rows, vec![row(1)]);
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
        assert_eq!(st2.scan_all(tid).unwrap().len(), 1);
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
        assert_eq!(st2.scan_all(tid).unwrap().len(), 0);
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
        assert_eq!(st2.scan_all(tid).unwrap().len(), 51);
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
        let rows: Vec<_> = st2
            .scan_all(tid)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(rows, vec![row(2)]);
    }
}
