//! Heap-file row operations, ordered primary-key indexes, and the [`Storage`]
//! kernel that ties the catalog, buffer pool, WAL, locks and transactions
//! together.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use super::buffer::{with_page, with_page_mut, BufferPool};
use super::disk::PageId;
use super::page::Page;
use crate::catalog::{Catalog, TableMeta};
use crate::error::{Error, Result};
use crate::schema::{decode_row, encode_row, TableId, TableSchema};
use crate::txn::locks::{LockManager, LockMode, LockTarget};
use crate::txn::{TxnHandle, TxnManager, UndoEntry};
use crate::types::{Row, Value};
use crate::wal::log::{ClrAction, LogManager, LogRecord, Lsn};

/// Physical row address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Page containing the row.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// Volatile unique ordered indexes over primary keys. Rebuilt at recovery.
/// One table's PK index: encoded key bytes → row location, in byte order,
/// so the keys sharing a leading-column prefix form one contiguous range.
type PkIndex = Arc<Mutex<BTreeMap<Vec<u8>, RowId>>>;

#[derive(Default)]
pub struct IndexManager {
    maps: RwLock<HashMap<TableId, PkIndex>>,
}

impl IndexManager {
    fn index_for(&self, table: TableId) -> PkIndex {
        if let Some(m) = self.maps.read().get(&table) {
            return Arc::clone(m);
        }
        let mut maps = self.maps.write();
        Arc::clone(maps.entry(table).or_default())
    }

    fn drop_table(&self, table: TableId) {
        self.maps.write().remove(&table);
    }
}

/// Encode a primary-key tuple into canonical index-key bytes.
pub fn pk_key_bytes(schema: &TableSchema, row: &[Value]) -> Option<Vec<u8>> {
    if schema.primary_key.is_empty() {
        return None;
    }
    let key: Row = schema.primary_key.iter().map(|&i| row[i].clone()).collect();
    let mut out = Vec::new();
    encode_row(&key, &mut out);
    Some(out)
}

/// Encode the leading `vals.len()` primary-key values (in PK column order)
/// as index-key bytes, coercing to the key columns' types. The arity
/// written is the full key's, and every value encodes self-delimited, so
/// the bytes of a prefix are a byte prefix of exactly the keys that start
/// with those values; a full-length prefix is the key itself.
pub fn pk_prefix_bytes(schema: &TableSchema, vals: &[Value]) -> Result<Vec<u8>> {
    if vals.len() > schema.primary_key.len() {
        return Err(Error::Internal("pk prefix longer than the key".into()));
    }
    let key: Row = vals
        .iter()
        .zip(&schema.primary_key)
        .map(|(v, &i)| v.clone().coerce(schema.columns[i].dtype))
        .collect::<Result<_>>()?;
    let mut out = Vec::new();
    encode_row(&key, &mut out);
    // `encode_row` leads with the prefix's arity; a key leads with its own.
    out[..2].copy_from_slice(&(schema.primary_key.len() as u16).to_be_bytes());
    Ok(out)
}

/// The DDL top actions of one statement batch. Each is applied and logged
/// as it runs; [`Storage::finish_ddl`] forces the log once for all of
/// them before the batch is acknowledged. A batch that holds DDL must be
/// finished: dropping it would leave its records unforced and its dropped
/// tables' pages unreclaimed (debug builds assert this).
#[derive(Default)]
#[must_use = "pass the batch to Storage::finish_ddl to make its DDL durable"]
pub struct DdlBatch {
    /// Highest LSN a DDL record of the batch was appended at.
    force_to: Option<Lsn>,
    /// Tables the batch dropped, whose pages wait for the force.
    dropped: Vec<Arc<RwLock<TableMeta>>>,
}

impl DdlBatch {
    fn logged(&mut self, lsn: Lsn) {
        self.force_to = self.force_to.max(Some(lsn));
    }
}

impl Drop for DdlBatch {
    fn drop(&mut self) {
        debug_assert!(
            std::thread::panicking() || (self.force_to.is_none() && self.dropped.is_empty()),
            "a DdlBatch holding DDL was dropped without Storage::finish_ddl"
        );
    }
}

/// The storage kernel: everything volatile the engine needs to run SQL.
pub struct Storage {
    /// Durable table metadata.
    pub catalog: Arc<Catalog>,
    /// Page cache.
    pub pool: Arc<BufferPool>,
    /// Write-ahead log front end.
    pub log: Arc<LogManager>,
    /// Multi-granularity lock manager.
    pub locks: LockManager,
    /// Transaction-id issuer.
    pub txns: TxnManager,
    indexes: IndexManager,
    /// Dropped tables whose pages wait for the last transaction holding
    /// a lock on the table to end (see [`Storage::drop_table`]).
    dropped: Mutex<Vec<Arc<RwLock<TableMeta>>>>,
}

impl Storage {
    /// Assemble a storage kernel from recovered parts.
    pub fn new(
        catalog: Arc<Catalog>,
        pool: Arc<BufferPool>,
        log: Arc<LogManager>,
        txns: TxnManager,
    ) -> Self {
        Storage {
            catalog,
            pool,
            log,
            locks: LockManager::default(),
            txns,
            indexes: IndexManager::default(),
            dropped: Mutex::new(Vec::new()),
        }
    }

    // -- transactions --------------------------------------------------------

    /// Begin a transaction (logs `Begin`). It joins group-commit company
    /// at its first update.
    pub fn begin(&self) -> TxnHandle {
        let txn = self.txns.begin();
        self.log.append(&LogRecord::Begin { txn: txn.id });
        txn
    }

    /// Begin an explicit (`BEGIN TRAN`) transaction: it joins company at
    /// once, because it may write before it commits, and a committer
    /// batched with it should wait for it rather than flush without it.
    pub fn begin_explicit(&self) -> TxnHandle {
        let txn = self.begin();
        self.join_company(&txn);
        txn
    }

    /// Count `txn` in group-commit company (once). An atomic add, so it
    /// is safe under a page latch.
    fn join_company(&self, txn: &TxnHandle) {
        if txn.enter_company() {
            self.log.join_company();
        }
    }

    /// Count `txn` out of company (once), after its commit or abort.
    fn leave_company(&self, txn: &TxnHandle) {
        if txn.exit_company() {
            self.log.leave_company();
        }
    }

    /// Record an undoable action; the first one joins company.
    fn push_undo(&self, txn: &TxnHandle, e: UndoEntry) {
        txn.push_undo(e);
        self.join_company(txn);
    }

    /// Commit: log, force the log (possibly riding a group-commit
    /// batch leader's fsync), release locks.
    ///
    /// Only a transaction that logged an update forces the log. A
    /// read-only one (an empty undo list: a SELECT, or the wrapper of a
    /// DDL top action, whose record its batch forces before the batch is
    /// acknowledged; see [`Storage::finish_ddl`]) has nothing to make durable:
    /// under strict 2PL every writer it read from forced its own commit
    /// before releasing its locks. Its Commit record rides the next flush;
    /// if a crash loses it, restart finds a loser with nothing to undo.
    ///
    /// The transaction leaves group-commit company once this returns,
    /// whether or not the commit succeeded.
    pub fn commit(&self, txn: &TxnHandle) -> Result<()> {
        let r = self.commit_inner(txn);
        self.leave_company(txn);
        r
    }

    fn commit_inner(&self, txn: &TxnHandle) -> Result<()> {
        let wrote = txn.undo_len() > 0;
        let lsn = self.log.append(&LogRecord::Commit { txn: txn.id });
        if wrote {
            self.log.commit_flush(lsn)?;
        }
        // Undo info no longer needed.
        txn.take_undo_reversed();
        self.end(txn);
        Ok(())
    }

    /// Release a finished transaction's locks, then free the pages of
    /// dropped tables it was the last to hold a lock on.
    fn end(&self, txn: &TxnHandle) {
        self.locks.release_all(txn.id, txn.take_locks());
        self.reclaim_dropped();
    }

    /// Abort: apply undo actions (logging CLRs), log Abort, release locks.
    /// Like [`Storage::commit`], it leaves company on every exit.
    pub fn abort(&self, txn: &TxnHandle) -> Result<()> {
        let r = self.abort_inner(txn);
        self.leave_company(txn);
        r
    }

    fn abort_inner(&self, txn: &TxnHandle) -> Result<()> {
        for e in txn.take_undo_reversed() {
            self.apply_undo(txn, &e)?;
        }
        let lsn = self.log.append(&LogRecord::Abort { txn: txn.id });
        self.log.flush_to(lsn)?;
        self.end(txn);
        Ok(())
    }

    fn apply_undo(&self, txn: &TxnHandle, e: &UndoEntry) -> Result<()> {
        let guard = self.pool.fetch(e.page)?;
        let schema_has_pk = self
            .catalog
            .get(e.table)
            .map(|m| !m.read().schema.primary_key.is_empty())
            .unwrap_or(false);
        // CLR append + page action atomically under the page latch; index
        // maintenance afterwards (page latch → index lock ordering would
        // otherwise invert against insert_row).
        let row_bytes = {
            let mut data = guard.write();
            let mut page = Page::new(&mut data);
            let lsn = self.log.append(&LogRecord::Clr {
                txn: txn.id,
                undoes: e.lsn,
                action: e.action,
                table: e.table,
                page: e.page,
                slot: e.slot,
            });
            let bytes = if schema_has_pk {
                page.get_raw(e.slot).map(|b| b.to_vec())
            } else {
                None
            };
            match e.action {
                ClrAction::Tombstone => page.tombstone(e.slot)?,
                ClrAction::Untombstone => page.untombstone(e.slot)?,
            }
            page.set_lsn(lsn);
            bytes
        };
        if let Some(bytes) = row_bytes {
            let row = decode_row(&bytes)?;
            match e.action {
                ClrAction::Tombstone => self.index_remove(e.table, &row)?,
                ClrAction::Untombstone => self.index_add_unchecked(
                    e.table,
                    &row,
                    RowId {
                        page: e.page,
                        slot: e.slot,
                    },
                )?,
            }
        }
        Ok(())
    }

    // -- DDL (top actions: logged and applied now, durable once the batch's
    // `finish_ddl` forces the log) --------------------------------------------

    /// Create a table (top action: not undone by its transaction).
    pub fn create_table(&self, ddl: &mut DdlBatch, schema: TableSchema) -> Result<TableId> {
        let id = self.catalog.create_table(schema.clone())?;
        ddl.logged(self.log.append(&LogRecord::CreateTable {
            table_id: id,
            schema,
        }));
        Ok(id)
    }

    /// Drop a table by name (top action).
    ///
    /// Takes no table lock: a reader may still hold one (Phoenix drops a
    /// result table while the application transaction that read it is
    /// open). Once [`Storage::finish_ddl`] has forced the DropTable record
    /// the table's pages wait in `dropped` and reach the free list when no
    /// transaction holds a lock on the table any more. A transaction
    /// that resolved the table before the drop and locks it afterwards
    /// fails the existence check in [`Storage::lock_table`].
    pub fn drop_table(&self, ddl: &mut DdlBatch, name: &str) -> Result<()> {
        let meta = self
            .catalog
            .resolve(name)
            .ok_or_else(|| Error::NotFound(format!("table {name}")))?;
        let id = meta.read().id;
        self.catalog.drop_table(id)?;
        self.indexes.drop_table(id);
        ddl.logged(self.log.append(&LogRecord::DropTable { table_id: id }));
        ddl.dropped.push(meta);
        Ok(())
    }

    /// Make a batch's DDL durable with one force of the log, then hand its
    /// dropped tables' pages on towards the free list. A page must not be
    /// reused before the record that freed it is durable: a crash would
    /// restore the table onto a page another table now owns. If the force
    /// fails the pages stay out of reach; restart rebuilds the free list.
    pub fn finish_ddl(&self, mut ddl: DdlBatch) -> Result<()> {
        let dropped = std::mem::take(&mut ddl.dropped);
        if let Some(lsn) = ddl.force_to.take() {
            self.log.flush_to(lsn)?;
        }
        if !dropped.is_empty() {
            self.dropped.lock().extend(dropped);
            self.reclaim_dropped();
        }
        Ok(())
    }

    /// Move the pages of every dropped table that no transaction holds a
    /// lock on to the disk's free list. Row locks always sit under an
    /// intention lock on the table, so the table target alone decides.
    /// The page list is read here, not at drop time: a writer holding
    /// the table lock may still have been extending it.
    fn reclaim_dropped(&self) {
        let ready: Vec<PageId> = {
            let mut waiting = self.dropped.lock();
            let _lw = obskit::lockcheck::held("Storage::dropped");
            if waiting.is_empty() {
                return;
            }
            let mut ready = Vec::new();
            waiting.retain(|meta| {
                let m = meta.read();
                let busy = !self.locks.holders(LockTarget::table(m.id)).is_empty();
                if !busy {
                    ready.extend_from_slice(&m.pages);
                }
                busy
            });
            ready
        };
        if !ready.is_empty() {
            // Fails only once this incarnation is fenced; restart rebuilds the free list.
            let _ = self.pool.release_pages(&ready);
        }
    }

    /// Create (or replace) a stored procedure (top action).
    pub fn create_proc(
        &self,
        ddl: &mut DdlBatch,
        name: &str,
        body: &str,
        replace: bool,
    ) -> Result<()> {
        self.catalog.create_proc(name, body, replace)?;
        ddl.logged(self.log.append(&LogRecord::CreateProc {
            name: name.to_string(),
            body: body.to_string(),
        }));
        Ok(())
    }

    /// Drop a stored procedure (top action).
    pub fn drop_proc(&self, ddl: &mut DdlBatch, name: &str) -> Result<()> {
        self.catalog.drop_proc(name)?;
        ddl.logged(self.log.append(&LogRecord::DropProc {
            name: name.to_string(),
        }));
        Ok(())
    }

    // -- DML ------------------------------------------------------------------

    /// Insert a conformed row. Caller holds the table X lock.
    pub fn insert_row(&self, txn: &TxnHandle, table: TableId, row: &[Value]) -> Result<RowId> {
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let (schema, last_page) = {
            let m = meta.read();
            (m.schema.clone(), m.pages.last().copied())
        };

        // PK uniqueness.
        let key = pk_key_bytes(&schema, row);
        if let Some(k) = &key {
            let idx = self.indexes.index_for(table);
            if idx.lock().contains_key(k) {
                return Err(Error::DuplicateKey(format!(
                    "table {} pk {:?}",
                    schema.name,
                    schema
                        .primary_key
                        .iter()
                        .map(|&i| row[i].to_string())
                        .collect::<Vec<_>>()
                )));
            }
        }

        let mut bytes = Vec::new();
        encode_row(row, &mut bytes);

        // Apply: the log append and the page mutation must be atomic under
        // the page's write latch — with row-level locking, transactions on
        // different rows interleave on the same page, and redo correctness
        // depends on page LSNs increasing in application order.
        let mut candidate = last_page;
        let rid = loop {
            let (pid, guard) = match candidate.take() {
                Some(pid) => (pid, self.pool.fetch(pid)?),
                None => {
                    // Allocate a fresh page (top action).
                    let (pid, guard) = self.pool.new_page(table)?;
                    let lsn = self.log.append(&LogRecord::AllocPage { table, page: pid });
                    with_page_mut(&guard, lsn, |_| Ok(()))?;
                    self.catalog.add_page(table, pid)?;
                    (pid, guard)
                }
            };
            let mut data = guard.write();
            let mut page = Page::new(&mut data);
            if !page.fits(bytes.len()) {
                continue; // allocate a new page next iteration
            }
            let slot = page.slot_count();
            let lsn = self.log.append(&LogRecord::Insert {
                txn: txn.id,
                table,
                page: pid,
                slot,
                data: bytes.clone(),
            });
            page.insert_expect(slot, &bytes)?;
            page.set_lsn(lsn);
            drop(data);
            self.push_undo(
                txn,
                UndoEntry {
                    lsn,
                    action: ClrAction::Tombstone,
                    table,
                    page: pid,
                    slot,
                },
            );
            break RowId { page: pid, slot };
        };
        if let Some(k) = key {
            self.indexes.index_for(table).lock().insert(k, rid);
        }
        Ok(rid)
    }

    /// Delete the row at `rid`, returning its old contents.
    pub fn delete_row(&self, txn: &TxnHandle, table: TableId, rid: RowId) -> Result<Row> {
        let guard = self.pool.fetch(rid.page)?;
        // Log append + tombstone atomically under the page latch (see
        // `insert_row` for why).
        let old = {
            let mut data = guard.write();
            let mut page = Page::new(&mut data);
            let old = page
                .get(rid.slot)
                .map(|b| b.to_vec())
                .ok_or_else(|| Error::Storage(format!("delete of missing row {rid:?}")))?;
            let lsn = self.log.append(&LogRecord::Delete {
                txn: txn.id,
                table,
                page: rid.page,
                slot: rid.slot,
            });
            page.tombstone(rid.slot)?;
            page.set_lsn(lsn);
            self.push_undo(
                txn,
                UndoEntry {
                    lsn,
                    action: ClrAction::Untombstone,
                    table,
                    page: rid.page,
                    slot: rid.slot,
                },
            );
            old
        };
        let old_row = decode_row(&old)?;
        self.index_remove(table, &old_row)?;
        Ok(old_row)
    }

    /// Update = delete + insert (rows are immutable in place; see page.rs).
    pub fn update_row(
        &self,
        txn: &TxnHandle,
        table: TableId,
        rid: RowId,
        new_row: &[Value],
    ) -> Result<RowId> {
        self.delete_row(txn, table, rid)?;
        self.insert_row(txn, table, new_row)
    }

    fn index_remove(&self, table: TableId, row: &[Value]) -> Result<()> {
        let Some(meta) = self.catalog.get(table) else {
            return Ok(());
        };
        let schema = meta.read().schema.clone();
        if let Some(k) = pk_key_bytes(&schema, row) {
            self.indexes.index_for(table).lock().remove(&k);
        }
        Ok(())
    }

    fn index_add_unchecked(&self, table: TableId, row: &[Value], rid: RowId) -> Result<()> {
        let Some(meta) = self.catalog.get(table) else {
            return Ok(());
        };
        let schema = meta.read().schema.clone();
        if let Some(k) = pk_key_bytes(&schema, row) {
            self.indexes.index_for(table).lock().insert(k, rid);
        }
        Ok(())
    }

    // -- reads ----------------------------------------------------------------

    /// Sequential scan. Materializes one page at a time; the iterator owns
    /// a reference to the storage so it can outlive the calling frame
    /// (lazy result-set streaming).
    pub fn scan(self: &Arc<Self>, table: TableId) -> Result<ScanIter> {
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let pages = meta.read().pages.iter().map(|&p| (p, None)).collect();
        Ok(ScanIter::new(Arc::clone(self), pages))
    }

    /// Scan of the rows whose leading primary-key columns equal `prefix`
    /// (coerced as [`pk_prefix_bytes`] does), found through the PK index.
    /// Rows come in heap order, the order [`Storage::scan`] yields them
    /// in, and are read a page at a time, so a prefix that matches every
    /// row costs no more page reads than the scan it replaces.
    pub fn scan_key_prefix(self: &Arc<Self>, table: TableId, prefix: &[Value]) -> Result<ScanIter> {
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let lo = pk_prefix_bytes(&meta.read().schema, prefix)?;
        // The index mutex is released before any page is pinned.
        let rids: Vec<RowId> = self
            .indexes
            .index_for(table)
            .lock()
            .range::<[u8], _>((Bound::Included(&lo[..]), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(&lo))
            .map(|(_, &rid)| rid)
            .collect();
        let mut by_page: HashMap<PageId, Vec<u16>> = HashMap::new();
        for rid in rids {
            by_page.entry(rid.page).or_default().push(rid.slot);
        }
        let mut pages = Vec::with_capacity(by_page.len());
        if by_page.len() == 1 {
            pages.extend(by_page.drain());
        } else {
            // Heap order is the table's page-list order, which page reuse
            // makes differ from page-id order.
            for &pid in &meta.read().pages {
                if by_page.is_empty() {
                    break;
                }
                if let Some(slots) = by_page.remove(&pid) {
                    pages.push((pid, slots));
                }
            }
        }
        let pages = pages
            .into_iter()
            .map(|(pid, mut slots)| {
                slots.sort_unstable();
                (pid, Some(slots))
            })
            .collect();
        Ok(ScanIter::new(Arc::clone(self), pages))
    }

    /// Copy out the live rows of one page: every live slot, or only the
    /// listed ones that are still live.
    fn page_rows(&self, pid: PageId, slots: Option<&[u16]>) -> Result<Vec<(RowId, Vec<u8>)>> {
        let guard = self.pool.fetch(pid)?;
        let row = |p: &super::page::PageRef<'_>, slot: u16| {
            p.get(slot).map(|b| (RowId { page: pid, slot }, b.to_vec()))
        };
        Ok(with_page(&guard, |p| match slots {
            None => p.live_slots().filter_map(|s| row(p, s)).collect(),
            Some(slots) => slots.iter().filter_map(|&s| row(p, s)).collect(),
        }))
    }

    /// Convenience: scan fully into memory (does not require `Arc`).
    pub fn scan_all(&self, table: TableId) -> Result<Vec<(RowId, Row)>> {
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let pages = meta.read().pages.clone();
        let mut out = Vec::new();
        for pid in pages {
            for (rid, bytes) in self.page_rows(pid, None)? {
                out.push((rid, decode_row(&bytes)?));
            }
        }
        Ok(out)
    }

    /// Rebuild every PK index by scanning heaps (restart path).
    pub fn rebuild_indexes(&self) -> Result<()> {
        for name in self.catalog.table_names() {
            // Names come from the catalog itself, but a concurrent DROP can
            // remove the entry between the two calls — skip it if so.
            let Some(meta) = self.catalog.resolve(&name) else {
                continue;
            };
            let (id, schema, pages) = {
                let m = meta.read();
                (m.id, m.schema.clone(), m.pages.clone())
            };
            if schema.primary_key.is_empty() {
                continue;
            }
            let mut entries = Vec::new();
            for pid in pages {
                for (rid, bytes) in self.page_rows(pid, None)? {
                    let row = decode_row(&bytes)?;
                    if let Some(k) = pk_key_bytes(&schema, &row) {
                        entries.push((k, rid));
                    }
                }
            }
            // Collecting sorts once and bulk-builds the tree.
            *self.indexes.index_for(id).lock() = entries.into_iter().collect();
        }
        Ok(())
    }

    // -- checkpoint -----------------------------------------------------------

    /// Quiesced checkpoint: flush data pages, snapshot the catalog, write
    /// the checkpoint record, update the master record. The caller must
    /// ensure no transactions are active.
    pub fn checkpoint(&self) -> Result<()> {
        faultkit::crashpoint!("wal.checkpoint.pre");
        let t_ckpt = std::time::Instant::now();
        self.log.flush_all()?;
        self.pool.flush_all()?;
        let snapshot = self.catalog.snapshot();
        let lsn = self.log.append(&LogRecord::Checkpoint { snapshot });
        self.log.flush_all()?;
        self.log.store().set_checkpoint(lsn);
        obskit::metrics::global().record("sqlengine.wal.checkpoint", t_ckpt.elapsed());
        obskit::trace::emit_span("sqlengine.wal.checkpoint", t_ckpt.elapsed(), String::new());
        faultkit::crashpoint!("wal.checkpoint.post");
        Ok(())
    }

    /// Verify every allocated page's checksum, repairing corrupt pages
    /// from WAL redo. See [`BufferPool::scrub`].
    pub fn scrub(&self) -> Result<crate::storage::buffer::ScrubReport> {
        self.pool.scrub()
    }

    // -- lock helpers ----------------------------------------------------------

    /// Table-granularity lock, remembered on the transaction for release.
    /// Callers resolve the table before locking it, so the table is
    /// checked again under the lock: a DROP in between may already have
    /// handed its pages to another table.
    pub fn lock_table(&self, txn: &TxnHandle, table: TableId, mode: LockMode) -> Result<()> {
        let target = LockTarget::table(table);
        self.locks.lock(txn.id, target, mode)?;
        txn.note_lock(target);
        if self.catalog.get(table).is_none() {
            return Err(Error::NotFound(format!("table id {table}")));
        }
        Ok(())
    }

    /// Row-granularity lock (key = hashed PK bytes). The caller must hold
    /// the matching intention lock on the table.
    pub fn lock_row(
        &self,
        txn: &TxnHandle,
        table: TableId,
        key: u64,
        mode: LockMode,
    ) -> Result<()> {
        let target = LockTarget::row(table, key);
        self.locks.lock(txn.id, target, mode)?;
        txn.note_lock(target);
        Ok(())
    }
}

/// FNV-1a hash of PK bytes → row-lock key.
pub fn row_key_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Page-at-a-time scan iterator over a list of pages, each with every
/// live slot (`None`) or only the listed slots. Owns its storage handle so
/// lazy result cursors can carry it across call frames.
pub struct ScanIter {
    storage: Arc<Storage>,
    pages: Vec<(PageId, Option<Vec<u16>>)>,
    page_idx: usize,
    buffered: Vec<(RowId, Vec<u8>)>,
    buf_idx: usize,
}

impl ScanIter {
    fn new(storage: Arc<Storage>, pages: Vec<(PageId, Option<Vec<u16>>)>) -> Self {
        ScanIter {
            storage,
            pages,
            page_idx: 0,
            buffered: Vec::new(),
            buf_idx: 0,
        }
    }
}

impl Iterator for ScanIter {
    type Item = Result<(RowId, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.buf_idx < self.buffered.len() {
                let (rid, bytes) = &self.buffered[self.buf_idx];
                self.buf_idx += 1;
                return Some(decode_row(bytes).map(|r| (*rid, r)));
            }
            let (pid, slots) = self.pages.get(self.page_idx)?;
            self.page_idx += 1;
            self.buffered = match self.storage.page_rows(*pid, slots.as_deref()) {
                Ok(rows) => rows,
                Err(e) => return Some(Err(e)),
            };
            self.buf_idx = 0;
        }
    }
}
