//! Heap-file row operations, ordered primary-key indexes, and the [`Storage`]
//! kernel that ties the catalog, buffer pool, WAL, locks and transactions
//! together.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use super::buffer::{with_page, BufferPool};
use super::disk::{PageId, PAGE_SIZE};
use super::page::PageRef;
use crate::catalog::{Catalog, TableMeta};
use crate::error::{Error, Result};
use crate::schema::{decode_row, encode_row, encoded_key, TableId, TableSchema};
use crate::txn::locks::{LockManager, LockMode, LockTarget};
use crate::txn::{TxnHandle, TxnManager, UndoEntry};
use crate::types::{Row, Value};
use crate::wal::log::{ClrAction, LogManager, LogRecord, Lsn, TxnId};
use crate::wal::recovery::{compensate, redo, undo_entry};

/// Physical row address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Page containing the row.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// One table's PK index: encoded key bytes → row location, in byte order,
/// so the keys sharing a leading-column prefix form one contiguous range.
/// Volatile: each incarnation builds it from the heap on first use.
type PkIndex = Arc<Mutex<BTreeMap<Vec<u8>, RowId>>>;

/// One table's place in the index map: the index once built. The one
/// build of the table's index holds the mutex while it reads the heap, so
/// a second first user waits for it, and then finds the index or, after
/// a failed build, builds it itself.
type IndexSlot = Arc<Mutex<Option<PkIndex>>>;

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
    /// Each table's PK index slot, made on the table's first keyed use
    /// (see [`Storage::pk_index`]). Never held while a build reads pages.
    indexes: RwLock<HashMap<TableId, IndexSlot>>,
    /// Dropped tables whose pages wait for the last transaction holding
    /// a lock on the table to end (see [`Storage::drop_table`]).
    dropped: Mutex<Vec<Arc<RwLock<TableMeta>>>>,
    /// Begin LSN of every open transaction that has logged an update
    /// (see [`Storage::checkpoint`]).
    writers: Mutex<HashMap<TxnId, Lsn>>,
    /// Held for a whole checkpoint, so checkpoints run one at a time.
    checkpointing: Mutex<()>,
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
            indexes: RwLock::new(HashMap::new()),
            dropped: Mutex::new(Vec::new()),
            writers: Mutex::new(HashMap::new()),
            checkpointing: Mutex::new(()),
        }
    }

    // -- transactions --------------------------------------------------------

    /// Begin a transaction (logs `Begin`). It joins group-commit company
    /// at its first update.
    pub fn begin(&self) -> TxnHandle {
        let mut txn = self.txns.begin();
        txn.begin_lsn = self.log.append(&LogRecord::Begin { txn: txn.id });
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

    /// Count `txn` among the open writers (once), before it logs anything
    /// for its first insert or delete (see [`Storage::checkpoint`]).
    fn open_writer(&self, txn: &TxnHandle) {
        if txn.enter_writers() {
            self.writers.lock().insert(txn.id, txn.begin_lsn);
        }
    }

    /// Count `txn` out of company (once), after its commit or abort. It
    /// leaves the open writers only if that succeeded: a writer whose
    /// commit or abort failed may still be a loser, which a checkpoint's
    /// `scan_from` must keep in reach.
    fn leave(&self, txn: &TxnHandle, ended: bool) {
        if txn.exit_company() {
            self.log.leave_company();
        }
        if ended && txn.exit_writers() {
            self.writers.lock().remove(&txn.id);
        }
    }

    /// Log `rec`, one of `txn`'s row updates, apply it to the latched
    /// page `image` and remember its inverse; the first update joins
    /// company. Append and apply must be atomic under the page latch:
    /// with row-level locking, transactions on different rows interleave
    /// on one page, and redo needs page LSNs to rise in application order.
    fn log_update(
        &self,
        txn: &TxnHandle,
        image: &mut [u8; PAGE_SIZE],
        rec: &LogRecord,
    ) -> Result<()> {
        let lsn = self.log.append(rec);
        redo(image, lsn, rec)?;
        if let Some(e) = undo_entry(lsn, rec) {
            txn.push_undo(e);
            self.join_company(txn);
        }
        Ok(())
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
        self.leave(txn, r.is_ok());
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
        self.leave(txn, r.is_ok());
        r
    }

    fn abort_inner(&self, txn: &TxnHandle) -> Result<()> {
        let wrote = txn.undo_len() > 0;
        for e in txn.take_undo_reversed() {
            self.apply_undo(txn, &e)?;
        }
        let lsn = self.log.append(&LogRecord::Abort { txn: txn.id });
        // As for a read-only commit: a lost Abort leaves a loser with
        // nothing to undo (DESIGN §16).
        if wrote {
            self.log.flush_to(lsn)?;
        }
        self.end(txn);
        Ok(())
    }

    fn apply_undo(&self, txn: &TxnHandle, e: &UndoEntry) -> Result<()> {
        let guard = self.pool.fetch(e.page)?;
        compensate(&self.log, &guard, txn.id, e)?;
        // Index maintenance once the page latch is released: no caller
        // asks for an index under a latch, as a build takes page latches.
        // A tombstone keeps the row's bytes in the page.
        let Some(bytes) = with_page(&guard, |p| p.get_raw(e.slot).map(<[u8]>::to_vec)) else {
            return Ok(());
        };
        let row = decode_row(&bytes)?;
        let at = match e.action {
            ClrAction::Tombstone => None,
            ClrAction::Untombstone => Some(RowId {
                page: e.page,
                slot: e.slot,
            }),
        };
        self.index_apply(e.table, &row, at);
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
        // The catalog entry goes first: `index_slot` makes no slot for a
        // table it cannot find, so none is left behind by a build that
        // raced this drop.
        self.catalog.drop_table(id)?;
        self.indexes.write().remove(&id);
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

    /// Insert a conformed row. Caller holds the table X lock, or (keyed
    /// tables) IX plus the row's X lock, so inserts into one table may
    /// run concurrently.
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
        let key = match pk_key_bytes(&schema, row) {
            Some(k) => Some((self.pk_index(table)?, k)),
            None => None,
        };
        if let Some((idx, k)) = &key {
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

        self.open_writer(txn);
        // `seen` is the last page this insert has found; it allocates only
        // once that page is absent or full.
        let mut seen = last_page;
        let mut candidate = last_page;
        let rid = loop {
            let (pid, guard) = match candidate.take() {
                Some(pid) => (pid, self.pool.fetch(pid)?),
                None => {
                    // Allocate a fresh page (top action) under the table's
                    // metadata lock, and only if `seen` is still the last
                    // page: otherwise a concurrent insert allocated first,
                    // and its page is tried instead.
                    let mut m = meta.write();
                    let last = m.pages.last().copied();
                    if last != seen {
                        candidate = last;
                        seen = last;
                        continue;
                    }
                    let (pid, guard) = self.pool.new_page(table)?;
                    let alloc = LogRecord::AllocPage { table, page: pid };
                    redo(&mut guard.write(), self.log.append(&alloc), &alloc)?;
                    m.pages.push(pid);
                    (pid, guard)
                }
            };
            seen = Some(pid);
            let mut data = guard.write();
            let page = PageRef::new(&data);
            if !page.fits(bytes.len()) {
                continue; // allocate a new page next iteration
            }
            let slot = page.slot_count();
            let insert = LogRecord::Insert {
                txn: txn.id,
                table,
                page: pid,
                slot,
                data: bytes,
            };
            self.log_update(txn, &mut data, &insert)?;
            break RowId { page: pid, slot };
        };
        if let Some((idx, k)) = key {
            idx.lock().insert(k, rid);
        }
        Ok(rid)
    }

    /// Delete the row at `rid`, returning its old contents.
    pub fn delete_row(&self, txn: &TxnHandle, table: TableId, rid: RowId) -> Result<Row> {
        self.open_writer(txn);
        let guard = self.pool.fetch(rid.page)?;
        let old = {
            let mut data = guard.write();
            let old = PageRef::new(&data)
                .get(rid.slot)
                .map(<[u8]>::to_vec)
                .ok_or_else(|| Error::Storage(format!("delete of missing row {rid:?}")))?;
            let delete = LogRecord::Delete {
                txn: txn.id,
                table,
                page: rid.page,
                slot: rid.slot,
            };
            self.log_update(txn, &mut data, &delete)?;
            old
        };
        let old_row = decode_row(&old)?;
        self.index_apply(table, &old_row, None);
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

    /// Bring `table`'s PK index in line with a change already made to its
    /// heap: `row` left it (`at` is `None`) or is live again at `at`. Only
    /// a built index needs it, since a build reads the heap as it is when
    /// the build runs. A build in progress may have read the page before
    /// the change, so this waits for the build and applies the change to
    /// what it built; applying a change the build already saw changes
    /// nothing.
    fn index_apply(&self, table: TableId, row: &[Value], at: Option<RowId>) {
        let Some(idx) = self.built_index(table) else {
            return;
        };
        let Some(meta) = self.catalog.get(table) else {
            return;
        };
        let Some(k) = pk_key_bytes(&meta.read().schema, row) else {
            return;
        };
        let mut idx = idx.lock();
        match at {
            Some(rid) => idx.insert(k, rid),
            None => idx.remove(&k),
        };
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
            .pk_index(table)?
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

    // -- PK indexes -----------------------------------------------------------

    /// `table`'s PK index, built from its heap on first use. The one build
    /// runs under the table's slot mutex, not the map lock; another first
    /// user waits for it. A failed build installs nothing, so the next use
    /// builds again. Callers hold no page latch: the build takes them.
    pub(crate) fn pk_index(&self, table: TableId) -> Result<PkIndex> {
        let slot = self.index_slot(table)?;
        let mut built = slot.lock();
        if let Some(idx) = &*built {
            return Ok(Arc::clone(idx));
        }
        let idx = Arc::new(Mutex::new(self.build_index(table)?));
        *built = Some(Arc::clone(&idx));
        Ok(idx)
    }

    /// `table`'s slot, made on first use. The table is looked up under
    /// the map lock, and [`Storage::drop_table`] removes the catalog
    /// entry before the slot, so no slot outlives a dropped table.
    fn index_slot(&self, table: TableId) -> Result<IndexSlot> {
        if let Some(slot) = self.indexes.read().get(&table) {
            return Ok(Arc::clone(slot));
        }
        let mut slots = self.indexes.write();
        if self.catalog.get(table).is_none() {
            return Err(Error::NotFound(format!("table id {table}")));
        }
        Ok(Arc::clone(slots.entry(table).or_default()))
    }

    /// `table`'s index once built, after any build in progress ends; `None`
    /// if no build has succeeded yet.
    fn built_index(&self, table: TableId) -> Option<PkIndex> {
        let slot = self.indexes.read().get(&table).map(Arc::clone)?;
        let built = slot.lock().clone();
        built
    }

    /// Build `table`'s PK index from its heap: walk each page's live slots
    /// in place under the page latch and cut each key from the encoded row
    /// (`schema::encoded_key`), so a row is neither copied nor decoded, yet
    /// a bad encoding fails the build with [`Error::Corruption`]. Every
    /// page comes through the pool, whose misses verify (and repair) the
    /// page image. Each completed build is timed as `sqlengine.index.build`.
    fn build_index(&self, table: TableId) -> Result<BTreeMap<Vec<u8>, RowId>> {
        let t_build = std::time::Instant::now();
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let (key_cols, pages) = {
            let m = meta.read();
            (m.schema.primary_key.clone(), m.pages.clone())
        };
        let mut entries = Vec::new();
        let mut fields = Vec::new();
        for pid in pages {
            let guard = self.pool.fetch(pid)?;
            with_page(&guard, |p| {
                for slot in 0..p.slot_count() {
                    // `get` passes over tombstoned slots.
                    if let Some(row) = p.get(slot) {
                        let key = encoded_key(row, &key_cols, &mut fields)?;
                        entries.push((key, RowId { page: pid, slot }));
                    }
                }
                Ok::<_, Error>(())
            })?;
        }
        // Collecting sorts once and bulk-builds the tree.
        let index = entries.into_iter().collect();
        obskit::metrics::global().record("sqlengine.index.build", t_build.elapsed());
        Ok(index)
    }

    // -- checkpoint -----------------------------------------------------------

    /// Checkpoint: flush data pages, snapshot the catalog, write the
    /// checkpoint record, update the master record, archive the pages
    /// written since the last checkpoint, and truncate the log below
    /// `scan_from`. Transactions may be open: the record's `scan_from` is
    /// the lowest of the log end now and the Begin LSN of every open
    /// writer, and restart scans from there, so a writer whose
    /// uncommitted pages this flushes is still found and undone, and an
    /// update logged during the flush is still redone. A writer joins the
    /// open writers before it logs anything for its first insert or
    /// delete, under the lock this reads them under.
    ///
    /// Crash order: master record, then archive, then truncation. Until
    /// the truncation the whole old log is kept, so a crash at any point
    /// leaves every page rebuildable from its archive image (old or new)
    /// and the kept log. The archive pass runs after the pool flush, so
    /// each archived image holds every record below `scan_from`; only then
    /// may those records go. One checkpoint runs at a time: a second
    /// pass could otherwise archive an older image over a newer one that
    /// the first checkpoint's truncation relies on.
    pub fn checkpoint(&self) -> Result<()> {
        faultkit::crashpoint!("wal.checkpoint.pre");
        let _one = self.checkpointing.lock();
        let t_ckpt = std::time::Instant::now();
        let scan_from = {
            let writers = self.writers.lock();
            let end = self.log.end_lsn();
            writers.values().fold(end, |from, &begin| from.min(begin))
        };
        self.log.flush_all()?;
        self.pool.flush_all()?;
        let snapshot = self.catalog.snapshot();
        let lsn = self.log.append(&LogRecord::Checkpoint {
            scan_from,
            snapshot,
        });
        self.log.flush_all()?;
        // A flush that lied about the record must not reach the master
        // record: restart would find no checkpoint below the truncation.
        if !matches!(
            self.log.store().record_at(lsn)?,
            Some(LogRecord::Checkpoint { .. })
        ) {
            return Err(Error::Corruption {
                device: "wal".into(),
                detail: format!("checkpoint record at lsn {lsn} is not durable"),
            });
        }
        self.log.set_checkpoint(lsn)?;
        faultkit::crashpoint!("wal.checkpoint.master");
        self.pool.archive_written()?;
        self.log.truncate_below(scan_from)?;
        obskit::metrics::global().record("sqlengine.wal.checkpoint", t_ckpt.elapsed());
        obskit::trace::emit_span("sqlengine.wal.checkpoint", t_ckpt.elapsed(), String::new());
        faultkit::crashpoint!("wal.checkpoint.post");
        Ok(())
    }

    /// Verify every allocated page's checksum, repairing corrupt pages
    /// from their archive image and the kept log. See
    /// [`BufferPool::scrub`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::storage::disk::{DiskModel, MemDisk};
    use crate::storage::page::Page;
    use crate::types::DataType;
    use crate::wal::log::LogStore;
    use crate::wal::recovery::{bootstrap, recover, RecoveryConfig};

    fn durable() -> (Arc<MemDisk>, Arc<LogStore>) {
        (
            Arc::new(MemDisk::new(DiskModel::default())),
            Arc::new(LogStore::new()),
        )
    }

    /// Run one DDL top action as a batch of its own, forced.
    fn ddl<T>(st: &Storage, f: impl FnOnce(&mut DdlBatch) -> Result<T>) -> T {
        let mut batch = DdlBatch::default();
        let v = f(&mut batch).unwrap();
        st.finish_ddl(batch).unwrap();
        v
    }

    /// A composite PK out of schema order over FLOAT, STR, INT and DATE
    /// key columns, with a non-key string column after them.
    fn mixed_schema() -> TableSchema {
        TableSchema::new(
            "mixed",
            vec![
                Column::new("c0", DataType::Int),
                Column::new("c1", DataType::Str),
                Column::new("c2", DataType::Date),
                Column::new("c3", DataType::Float),
                Column::new("note", DataType::Str),
            ],
        )
        .with_primary_key(vec![3, 1, 0, 2])
    }

    fn mixed_row(i: i64) -> Row {
        vec![
            Value::Int(-7 * i),
            Value::Str(["grüße", "日本語", "", "🦀 ok"][i as usize % 4].into()),
            Value::Date(9000 - i as i32),
            Value::Float((i % 5) as f64 * 1.5 - 3.0),
            Value::Str(format!("nöte-{i}")),
        ]
    }

    fn index_of(st: &Storage, table: TableId) -> BTreeMap<Vec<u8>, RowId> {
        st.pk_index(table).unwrap().lock().clone()
    }

    /// The index as the decoding rebuild made it: `pk_key_bytes` of every
    /// decoded live row.
    fn decoded_index(st: &Arc<Storage>, table: TableId) -> BTreeMap<Vec<u8>, RowId> {
        let schema = st.catalog.get(table).unwrap().read().schema.clone();
        st.scan(table)
            .unwrap()
            .map(|r| r.unwrap())
            .map(|(rid, row)| (pk_key_bytes(&schema, &row).unwrap(), rid))
            .collect()
    }

    fn lookups(st: &Arc<Storage>, table: TableId) -> Vec<Vec<(RowId, Row)>> {
        let key_of = |i| [3, 1, 0, 2].map(|c| mixed_row(i)[c].clone()).to_vec();
        let probes = [
            vec![Value::Float(-1.5)],
            vec![Value::Float(-3.0), Value::Str("日本語".into())],
            vec![
                Value::Float(0.0),
                Value::Str("grüße".into()),
                Value::Int(-224),
            ],
            key_of(34),
            // A deleted row's key, and a key no row ever had.
            key_of(33),
            vec![Value::Null; 4],
        ];
        probes
            .iter()
            .map(|p| {
                st.scan_key_prefix(table, p)
                    .unwrap()
                    .collect::<Result<Vec<_>>>()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn restart_rebuilds_byte_identical_indexes_from_encoded_rows() {
        let (disk, store) = durable();
        let (tid, before, found) = {
            let st = Arc::new(
                bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap(),
            );
            let tid = ddl(&st, |b| st.create_table(b, mixed_schema()));
            let t = st.begin();
            for i in 0..400 {
                st.insert_row(&t, tid, &mixed_row(i)).unwrap();
            }
            st.commit(&t).unwrap();
            st.checkpoint().unwrap();
            // Tombstones on every page, some after the checkpoint.
            let t = st.begin();
            for i in (0..400).step_by(3) {
                let key = pk_key_bytes(&mixed_schema(), &mixed_row(i)).unwrap();
                let rid = *index_of(&st, tid).get(&key).unwrap();
                st.delete_row(&t, tid, rid).unwrap();
            }
            for i in 400..420 {
                st.insert_row(&t, tid, &mixed_row(i)).unwrap();
            }
            st.commit(&t).unwrap();
            let before = index_of(&st, tid);
            let found = lookups(&st, tid);
            assert!(found[..4].iter().all(|rows| !rows.is_empty()));
            assert!(found[4..].iter().all(|rows| rows.is_empty()));
            // A durable loser whose insert and delete restart must undo.
            let loser = st.begin();
            st.insert_row(&loser, tid, &mixed_row(1000)).unwrap();
            let rid = *before.values().next().unwrap();
            st.delete_row(&loser, tid, rid).unwrap();
            st.log.flush_all().unwrap();
            (tid, before, found)
        };
        let (st, stats) = recover(disk, store, Default::default()).unwrap();
        assert_eq!(stats.losers_rolled_back, 1);
        let st = Arc::new(st);
        let rebuilt = index_of(&st, tid);
        assert_eq!(rebuilt, decoded_index(&st, tid));
        assert_eq!(rebuilt, before);
        assert_eq!(lookups(&st, tid), found);
    }

    #[test]
    fn restart_fails_on_a_corrupt_row_in_a_checksummed_page() {
        let mut valid = Vec::new();
        encode_row(&mixed_row(2)[..4], &mut valid);
        valid[..2].copy_from_slice(&5u16.to_be_bytes());
        // The non-key `note` column: an unknown tag, or a string whose
        // bytes are not UTF-8.
        let mut bad_tag = valid.clone();
        bad_tag.push(0x7F);
        let mut bad_utf8 = valid;
        bad_utf8.push(3);
        bad_utf8.extend_from_slice(&2u32.to_be_bytes());
        bad_utf8.extend_from_slice(&[0xC3, 0x28]);
        for bad in [bad_tag, bad_utf8] {
            let (disk, store) = durable();
            let tid = {
                let st =
                    bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
                let tid = ddl(&st, |b| st.create_table(b, mixed_schema()));
                let t = st.begin();
                st.insert_row(&t, tid, &mixed_row(1)).unwrap();
                st.commit(&t).unwrap();
                let pid = *st.catalog.get(tid).unwrap().read().pages.last().unwrap();
                let guard = st.pool.fetch(pid).unwrap();
                Page::new(&mut guard.write()).insert(&bad).unwrap();
                // The checkpoint stamps the page with a valid checksum.
                st.checkpoint().unwrap();
                tid
            };
            // The scrub builds every PK index at restart, so the row fails
            // restart.
            let scrub = RecoveryConfig {
                scrub: true,
                ..Default::default()
            };
            match recover(Arc::clone(&disk), Arc::clone(&store), scrub) {
                Err(Error::Corruption { .. }) => {}
                Err(e) => panic!("restart failed with {e}, not corruption"),
                Ok(_) => panic!("restart accepted a corrupt row"),
            }
            // By default restart builds no index and succeeds. The table's
            // first keyed use builds its index and fails, with no row
            // returned and no index installed, and the retry fails the
            // same way. A full scan fails at the bad row.
            let st = Arc::new(recover(disk, store, Default::default()).unwrap().0);
            let t = st.begin();
            for _ in 0..2 {
                let corrupt = |r: Result<_>| matches!(r, Err(Error::Corruption { .. }));
                assert!(corrupt(
                    st.scan_key_prefix(tid, &[Value::Float(-1.5)]).map(drop)
                ));
                assert!(corrupt(st.insert_row(&t, tid, &mixed_row(7)).map(drop)));
                assert!(corrupt(st.scan(tid).unwrap().try_for_each(|r| r.map(drop))));
                assert!(st.built_index(tid).is_none());
            }
            st.abort(&t).unwrap();
        }
    }
}
