//! The engine facade: sessions, autocommit vs explicit transactions,
//! statement execution, checkpointing, and crash/restart.
//!
//! The [`Engine`] is the *volatile* half of a database server. Durable
//! state lives in [`Durable`]; "crashing" means dropping the `Engine`
//! while keeping the `Durable`, and restarting means [`Engine::recover`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::exec::{
    execute_stmt, BatchEffects, ExecCtx, Rows, RowsSource, StmtOutcome, TableEffect, TempTables,
};
use crate::schema::Column;
use crate::session::{SessionId, SessionState};
use crate::sql::ast::Stmt;
use crate::sql::parser::parse_statements;
use crate::storage::disk::{DiskModel, IoSnapshot, MemDisk};
use crate::storage::Storage;
use crate::txn::TxnHandle;
use crate::types::Row;
use crate::wal::log::LogStore;
use crate::wal::recovery::{recover, RecoveryConfig, RecoveryStats};

/// Durable server state: survives crashes.
#[derive(Clone)]
pub struct Durable {
    /// Simulated page store.
    pub disk: Arc<MemDisk>,
    /// Durable write-ahead log bytes + master checkpoint record.
    pub log: Arc<LogStore>,
}

impl Durable {
    /// Fresh, empty durable state.
    pub fn new(model: DiskModel) -> Self {
        Durable {
            disk: Arc::new(MemDisk::new(model)),
            log: Arc::new(LogStore::new()),
        }
    }

    /// Cumulative disk I/O statistics.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.disk.stats().snapshot()
    }

    /// Simulated crash: fence off every writer of the current incarnation
    /// so late flushes cannot touch durable state the next incarnation
    /// will own.
    pub fn fence(&self) {
        self.disk.bump_epoch();
        self.log.bump_epoch();
    }

    /// Install (or clear) storage fault schedules: `data` drives page
    /// reads/writes on the simulated disk, `wal` drives log flushes.
    pub fn set_disk_faults(
        &self,
        data: Option<faultkit::disk::DiskPlan>,
        wal: Option<faultkit::disk::DiskPlan>,
    ) {
        self.disk.set_fault_plan(data);
        self.log.set_fault_plan(wal);
    }
}

/// Guard that commits a lazy cursor's autocommit transaction when the
/// cursor is dropped or closed.
struct AutoCommit {
    storage: Arc<Storage>,
    txn: Arc<TxnHandle>,
    done: bool,
}

impl AutoCommit {
    fn finish(&mut self) -> Result<()> {
        if self.done {
            return Ok(());
        }
        self.done = true;
        self.storage.commit(&self.txn)
    }
}

impl Drop for AutoCommit {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// A result-set cursor. For lazily-produced results the cursor keeps the
/// statement's (read-only) autocommit transaction open — and its shared
/// locks held — until it is exhausted, closed, or dropped.
pub struct Cursor {
    rows: Rows,
    guard: Option<AutoCommit>,
}

impl Cursor {
    /// Output column names and types.
    pub fn schema(&self) -> &[Column] {
        &self.rows.schema
    }

    /// Close early, releasing locks. Also happens on drop.
    pub fn close(mut self) -> Result<()> {
        match self.guard.take() {
            Some(mut g) => g.finish(),
            None => Ok(()),
        }
    }

    /// Whether rows are streamed lazily from the executor.
    pub fn is_lazy(&self) -> bool {
        matches!(self.rows.source, RowsSource::Lazy(_))
    }
}

impl Iterator for Cursor {
    type Item = Result<Row>;
    fn next(&mut self) -> Option<Self::Item> {
        let item = self.rows.next();
        if item.is_none() {
            if let Some(mut g) = self.guard.take() {
                let _ = g.finish();
            }
        }
        item
    }
}

/// Engine-level statement outcome.
#[allow(missing_docs)]
pub enum ExecOutcome {
    /// A result-set cursor.
    Rows(Cursor),
    /// DML row count.
    Affected(u64),
    /// DDL / control success.
    Ok,
    /// `SHUTDOWN [WITH NOWAIT]` was executed; the server layer should
    /// crash (nowait) or stop the engine.
    ShutdownRequested { nowait: bool },
}

/// Result of executing a batch (the last statement's outcome).
pub struct StatementResult {
    /// The last statement's outcome.
    pub outcome: ExecOutcome,
    /// Rows the batch wrote into durable tables and the tables it
    /// dropped, in execution order: the server's admission accounting.
    pub tables: Vec<TableEffect>,
}

/// The volatile database engine.
pub struct Engine {
    storage: Arc<Storage>,
    sessions: Mutex<HashMap<SessionId, SessionState>>,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    recovery_stats: RecoveryStats,
}

impl Engine {
    /// Recover (or bootstrap) an engine from durable state.
    pub fn recover(durable: &Durable, config: RecoveryConfig) -> Result<Engine> {
        let (storage, stats) =
            recover(Arc::clone(&durable.disk), Arc::clone(&durable.log), config)?;
        Ok(Engine {
            storage: Arc::new(storage),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            recovery_stats: stats,
        })
    }

    /// What restart recovery did when this engine booted.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// Direct access to the storage kernel (tests, benches, bulk loads).
    pub fn storage(&self) -> &Arc<Storage> {
        &self.storage
    }

    /// True once `SHUTDOWN` has been executed; all calls then fail.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Mark the engine dead (server crash path). Subsequent calls on any
    /// session return [`Error::ServerShutdown`].
    pub fn mark_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Open a new session.
    pub fn create_session(&self) -> Result<SessionId> {
        self.check_alive()?;
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.sessions.lock().insert(id, SessionState::new());
        Ok(id)
    }

    /// Close a session: abort any open transaction, drop temp tables.
    pub fn close_session(&self, id: SessionId) {
        let state = self.sessions.lock().remove(&id);
        if let Some(s) = state {
            if let Some(txn) = s.txn {
                let _ = self.storage.abort(&txn);
            }
        }
    }

    /// Approximate resident bytes of one session's engine-side state
    /// (its temp tables) — feeds the server's per-session memory budget.
    /// `0` for an unknown session. The temps handle is cloned out before
    /// measuring so the session map lock is never held across it.
    pub fn session_state_bytes(&self, id: SessionId) -> u64 {
        let temps = {
            let sessions = self.sessions.lock();
            match sessions.get(&id) {
                Some(s) => Arc::clone(&s.temps),
                None => return 0,
            }
        };
        let bytes = temps.lock().approx_bytes();
        bytes
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_shut_down() {
            Err(Error::ServerShutdown)
        } else {
            Ok(())
        }
    }

    #[allow(clippy::type_complexity)] // (temp tables, current txn) pair
    fn session_handles(
        &self,
        id: SessionId,
    ) -> Result<(Arc<Mutex<TempTables>>, Option<Arc<TxnHandle>>)> {
        let sessions = self.sessions.lock();
        let s = sessions.get(&id).ok_or(Error::NoSuchSession)?;
        Ok((Arc::clone(&s.temps), s.txn.clone()))
    }

    fn set_session_txn(&self, id: SessionId, txn: Option<Arc<TxnHandle>>) -> Result<()> {
        let mut sessions = self.sessions.lock();
        let s = sessions.get_mut(&id).ok_or(Error::NoSuchSession)?;
        s.txn = txn;
        Ok(())
    }

    /// Execute a batch of SQL on a session, returning the last statement's
    /// outcome. On any error the current transaction (explicit or
    /// autocommit) is rolled back, matching the retry model TPC-style
    /// applications use for deadlock victims.
    pub fn execute(&self, sid: SessionId, sql: &str) -> Result<StatementResult> {
        self.check_alive()?;
        self.execute_parsed(sid, &parse_statements(sql)?)
    }

    /// [`Engine::execute`] for an already parsed batch. The statements
    /// run in order until one fails. Their DDL records are appended as
    /// they run and forced once, here, before the batch returns, whether
    /// it succeeded or not: one force covers every DDL statement of the
    /// batch, and a batch of one DDL statement forces exactly as before.
    pub fn execute_parsed(&self, sid: SessionId, stmts: &[Stmt]) -> Result<StatementResult> {
        self.check_alive()?;
        let effects = Arc::new(Mutex::new(BatchEffects::default()));
        let mut last = Ok(ExecOutcome::Ok);
        for stmt in stmts {
            last = self.execute_one(sid, stmt, &effects);
            if matches!(last, Err(_) | Ok(ExecOutcome::ShutdownRequested { .. })) {
                break;
            }
        }
        let BatchEffects { ddl, tables } = std::mem::take(&mut *effects.lock());
        let forced = self.storage.finish_ddl(ddl);
        let outcome = last?;
        forced?;
        Ok(StatementResult { outcome, tables })
    }

    fn execute_one(
        &self,
        sid: SessionId,
        stmt: &Stmt,
        effects: &Arc<Mutex<BatchEffects>>,
    ) -> Result<ExecOutcome> {
        self.check_alive()?;
        let (temps, cur_txn) = self.session_handles(sid)?;
        match stmt {
            Stmt::Begin => {
                if cur_txn.is_some() {
                    return Err(Error::Semantic("transaction already in progress".into()));
                }
                let txn = Arc::new(self.storage.begin_explicit());
                if let Err(e) = self.set_session_txn(sid, Some(Arc::clone(&txn))) {
                    // The session is gone: end the transaction it would
                    // have owned, so it leaves group-commit company.
                    let _ = self.storage.abort(&txn);
                    return Err(e);
                }
                Ok(ExecOutcome::Ok)
            }
            Stmt::Commit => {
                let txn =
                    cur_txn.ok_or_else(|| Error::Semantic("COMMIT without BEGIN TRAN".into()))?;
                self.set_session_txn(sid, None)?;
                self.storage.commit(&txn)?;
                Ok(ExecOutcome::Ok)
            }
            Stmt::Rollback => {
                let txn =
                    cur_txn.ok_or_else(|| Error::Semantic("ROLLBACK without BEGIN TRAN".into()))?;
                self.set_session_txn(sid, None)?;
                self.storage.abort(&txn)?;
                Ok(ExecOutcome::Ok)
            }
            _ => {
                let (txn, auto) = match &cur_txn {
                    Some(t) => (Arc::clone(t), false),
                    None => (Arc::new(self.storage.begin()), true),
                };
                let ctx = ExecCtx {
                    storage: Arc::clone(&self.storage),
                    txn: Arc::clone(&txn),
                    temps,
                    params: Arc::new(HashMap::new()),
                    depth: 0,
                    effects: Arc::clone(effects),
                };
                match execute_stmt(&ctx, stmt) {
                    Ok(StmtOutcome::Rows(rows)) => {
                        let guard = if auto {
                            match &rows.source {
                                RowsSource::Materialized(_) => {
                                    self.storage.commit(&txn)?;
                                    None
                                }
                                RowsSource::Lazy(_) => Some(AutoCommit {
                                    storage: Arc::clone(&self.storage),
                                    txn,
                                    done: false,
                                }),
                            }
                        } else {
                            None
                        };
                        Ok(ExecOutcome::Rows(Cursor { rows, guard }))
                    }
                    Ok(StmtOutcome::Affected(n)) => {
                        if auto {
                            self.storage.commit(&txn)?;
                        }
                        Ok(ExecOutcome::Affected(n))
                    }
                    Ok(StmtOutcome::Ok) => {
                        if auto {
                            self.storage.commit(&txn)?;
                        }
                        Ok(ExecOutcome::Ok)
                    }
                    Ok(StmtOutcome::Shutdown { nowait }) => {
                        if auto {
                            let _ = self.storage.abort(&txn);
                        }
                        Ok(ExecOutcome::ShutdownRequested { nowait })
                    }
                    Err(e) => {
                        let _ = self.storage.abort(&txn);
                        if !auto {
                            let _ = self.set_session_txn(sid, None);
                        }
                        Err(e)
                    }
                }
            }
        }
    }

    /// Convenience for tests and tools: execute and fully collect rows.
    pub fn execute_collect(&self, sid: SessionId, sql: &str) -> Result<(Vec<Column>, Vec<Row>)> {
        match self.execute(sid, sql)?.outcome {
            ExecOutcome::Rows(cursor) => {
                let schema = cursor.schema().to_vec();
                let rows: Result<Vec<Row>> = cursor.collect();
                Ok((schema, rows?))
            }
            _ => Ok((Vec::new(), Vec::new())),
        }
    }

    /// Checkpoint (see [`Storage::checkpoint`]). Transactions may be
    /// open: the record's `scan_from` reaches back to the Begin of every
    /// open writer, so restart still finds and undoes them.
    pub fn checkpoint(&self) -> Result<()> {
        self.storage.checkpoint()
    }

    /// Verify every allocated page's checksum, repairing corrupt pages
    /// from WAL redo. Returns what the sweep found.
    pub fn scrub(&self) -> Result<crate::storage::buffer::ScrubReport> {
        self.check_alive()?;
        self.storage.scrub()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataType, Value};
    use std::sync::{Mutex as StdMutex, MutexGuard, PoisonError};

    /// Tests here read the process-global `sqlengine.access.*` counters,
    /// so every test that runs statements holds this guard, through
    /// [`fresh`] or directly.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Durable state that holds the [`serial`] guard while it lives.
    struct Fresh {
        durable: Durable,
        _serial: MutexGuard<'static, ()>,
    }

    impl std::ops::Deref for Fresh {
        type Target = Durable;
        fn deref(&self) -> &Durable {
            &self.durable
        }
    }

    fn fresh() -> (Fresh, Engine) {
        let serial = serial();
        let d = Durable::new(DiskModel::default());
        let e = Engine::recover(&d, RecoveryConfig::default()).unwrap();
        let fresh = Fresh {
            durable: d,
            _serial: serial,
        };
        (fresh, e)
    }

    fn access_counts() -> [u64; 3] {
        let m = obskit::metrics::global();
        [
            "sqlengine.access.point",
            "sqlengine.access.prefix",
            "sqlengine.access.full",
        ]
        .map(|name| m.counter(name).get())
    }

    /// Output column names and types of `sql`, and whether its cursor
    /// streams lazily.
    fn columns_of(e: &Engine, sid: SessionId, sql: &str) -> (Vec<(String, DataType)>, bool) {
        let ExecOutcome::Rows(cursor) = e.execute(sid, sql).unwrap().outcome else {
            panic!("{sql}: no result set")
        };
        let cols = cursor
            .schema()
            .iter()
            .map(|c| (c.name.clone(), c.dtype))
            .collect();
        (cols, cursor.is_lazy())
    }

    fn setup_t(e: &Engine, sid: SessionId) {
        e.execute(
            sid,
            "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20), x FLOAT)",
        )
        .unwrap();
        e.execute(
            sid,
            "INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, 'three', 3.5)",
        )
        .unwrap();
    }

    #[test]
    fn basic_crud_round_trip() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        let (schema, rows) = e
            .execute_collect(sid, "SELECT id, v FROM t WHERE x > 1.6 ORDER BY id DESC")
            .unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], crate::types::Value::Int(3));

        let r = e
            .execute(sid, "UPDATE t SET v = 'TWO' WHERE id = 2")
            .unwrap();
        assert!(matches!(r.outcome, ExecOutcome::Affected(1)));
        let r = e.execute(sid, "DELETE FROM t WHERE id = 1").unwrap();
        assert!(matches!(r.outcome, ExecOutcome::Affected(1)));
        let (_, rows) = e
            .execute_collect(sid, "SELECT v FROM t ORDER BY id")
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], crate::types::Value::Str("TWO".into()));
    }

    #[test]
    fn where_0_eq_1_returns_schema_only_without_scanning() {
        let (d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        // The first query's shape streams lazily, the second's
        // materializes: neither may open an access path.
        for sql in [
            "SELECT id, v, x FROM t WHERE 0=1",
            "SELECT id, v, x FROM t WHERE 0=1 ORDER BY id",
        ] {
            let before = d.io_snapshot();
            let opened = access_counts();
            let (schema, rows) = e.execute_collect(sid, sql).unwrap();
            let after = d.io_snapshot();
            assert_eq!(rows.len(), 0);
            assert_eq!(schema.len(), 3);
            assert_eq!(schema[0].name, "id");
            assert_eq!(schema[0].dtype, crate::types::DataType::Int);
            assert_eq!(schema[1].dtype, crate::types::DataType::Str);
            assert_eq!(schema[2].dtype, crate::types::DataType::Float);
            // Metadata-only: the heap was never read, and no access path
            // (with its table lock) was opened.
            assert_eq!(after.reads, before.reads);
            assert_eq!(access_counts(), opened, "{sql}");
        }
    }

    /// One select-list expander names every result alike: the lazy
    /// cursor, the materialized pipeline (`ORDER BY 1`) and the table
    /// `SELECT … INTO` creates. Over a join whose greedy order differs
    /// from FROM order, wildcards still read FROM order on every path,
    /// and a query whose only aggregate is in HAVING aggregates on every
    /// path, the `WHERE 0=1` probe's included.
    #[test]
    fn select_lists_are_named_alike_on_every_path() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        let lists = [
            "UPPER(v), x + 1",
            "*",
            "t.*, LOWER(v)",
            "id AS k, x * 2, ABS(x)",
        ];
        for (i, list) in lists.iter().enumerate() {
            let (lazy, is_lazy) = columns_of(&e, sid, &format!("SELECT {list} FROM t"));
            assert!(is_lazy, "{list}");
            let (sorted, is_lazy) =
                columns_of(&e, sid, &format!("SELECT {list} FROM t ORDER BY 1"));
            assert!(!is_lazy, "{list}");
            e.execute(sid, &format!("SELECT {list} INTO res{i} FROM t"))
                .unwrap();
            let meta = e.storage().catalog.resolve(&format!("res{i}")).unwrap();
            let persisted: Vec<(String, DataType)> = meta
                .read()
                .schema
                .columns
                .iter()
                .map(|c| (c.name.clone(), c.dtype))
                .collect();
            assert_eq!(lazy, sorted, "{list}");
            assert_eq!(lazy, persisted, "{list}");
        }
        let (cols, _) = columns_of(&e, sid, "SELECT UPPER(v), x + 1 FROM t");
        let names: Vec<&str> = cols.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["upper", "col2"]);

        // The smallest table comes last, so the join runs c, b, a.
        for sql in [
            "CREATE TABLE a (ak INT PRIMARY KEY, av VARCHAR(8))",
            "CREATE TABLE b (bk INT PRIMARY KEY, ba INT, bv FLOAT)",
            "CREATE TABLE c (ck INT PRIMARY KEY, cb INT)",
            "INSERT INTO a VALUES (1, 'a1'), (2, 'a2'), (3, 'a3')",
            "INSERT INTO b VALUES (10, 1, 1.5), (20, 2, 2.5), (30, 3, 3.5)",
            "INSERT INTO c VALUES (100, 20), (200, 10)",
        ] {
            e.execute(sid, sql).unwrap();
        }
        let from = "FROM a, b, c WHERE a.ak = b.ba AND b.bk = c.cb";
        let (i, s, f) = (Value::Int, |v: &str| Value::Str(v.into()), Value::Float);
        let (int, str, float) = (DataType::Int, DataType::Str, DataType::Float);
        let cases = [
            (
                "*",
                "",
                vec![
                    ("ak", int),
                    ("av", str),
                    ("bk", int),
                    ("ba", int),
                    ("bv", float),
                    ("ck", int),
                    ("cb", int),
                ],
                vec![
                    vec![i(2), s("a2"), i(20), i(2), f(2.5), i(100), i(20)],
                    vec![i(1), s("a1"), i(10), i(1), f(1.5), i(200), i(10)],
                ],
            ),
            (
                "b.*, a.*",
                "",
                vec![
                    ("bk", int),
                    ("ba", int),
                    ("bv", float),
                    ("ak", int),
                    ("av", str),
                ],
                vec![
                    vec![i(20), i(2), f(2.5), i(2), s("a2")],
                    vec![i(10), i(1), f(1.5), i(1), s("a1")],
                ],
            ),
            (
                "bv, av",
                " HAVING COUNT(*) = 2",
                vec![("bv", float), ("av", str)],
                vec![vec![f(2.5), s("a2")]],
            ),
        ];
        for (n, (list, having, cols, rows)) in cases.into_iter().enumerate() {
            let cols: Vec<(String, DataType)> =
                cols.into_iter().map(|(c, t)| (c.to_string(), t)).collect();
            let sql = format!("SELECT {list} {from}{having}");
            let (schema, got) = e.execute_collect(sid, &sql).unwrap();
            let named: Vec<(String, DataType)> =
                schema.into_iter().map(|c| (c.name, c.dtype)).collect();
            assert_eq!((named, got), (cols.clone(), rows.clone()), "{sql}");
            let probe = format!("SELECT {list} {from} AND 0=1{having}");
            assert_eq!(columns_of(&e, sid, &probe).0, cols, "{probe}");
            e.execute(sid, &format!("SELECT {list} INTO abc{n} {from}{having}"))
                .unwrap();
            let (schema, got) = e
                .execute_collect(sid, &format!("SELECT * FROM abc{n}"))
                .unwrap();
            let named: Vec<(String, DataType)> =
                schema.into_iter().map(|c| (c.name, c.dtype)).collect();
            assert_eq!((named, got), (cols, rows), "{sql} INTO");
        }
        // An aggregate in HAVING alone makes the query aggregate, so `*`
        // passes through ungrouped columns on every path.
        for sql in [
            format!("SELECT * {from} HAVING COUNT(*) > 0"),
            format!("SELECT * {from} AND 0=1 HAVING COUNT(*) > 0"),
            format!("SELECT * INTO abc_having {from} HAVING COUNT(*) > 0"),
        ] {
            match e.execute(sid, &sql) {
                Err(Error::Semantic(m)) => {
                    assert_eq!(m, "column 'ak' must appear in GROUP BY", "{sql}")
                }
                Err(other) => panic!("{sql}: {other:?}"),
                Ok(_) => panic!("{sql}: accepted"),
            }
        }
    }

    #[test]
    fn explicit_txn_commit_and_rollback() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        e.execute(sid, "BEGIN TRAN").unwrap();
        e.execute(sid, "INSERT INTO t VALUES (10, 'ten', 10.0)")
            .unwrap();
        e.execute(sid, "ROLLBACK").unwrap();
        let (_, rows) = e.execute_collect(sid, "SELECT * FROM t").unwrap();
        assert_eq!(rows.len(), 3);

        e.execute(sid, "BEGIN TRAN").unwrap();
        e.execute(sid, "INSERT INTO t VALUES (10, 'ten', 10.0)")
            .unwrap();
        e.execute(sid, "COMMIT").unwrap();
        let (_, rows) = e.execute_collect(sid, "SELECT * FROM t").unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn duplicate_pk_rejected_and_txn_rolled_back() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        let err = match e.execute(sid, "INSERT INTO t VALUES (1, 'dup', 0.0)") {
            Err(err) => err,
            Ok(_) => panic!("duplicate insert succeeded"),
        };
        assert!(matches!(err, Error::DuplicateKey(_)));
        let (_, rows) = e.execute_collect(sid, "SELECT * FROM t").unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn temp_table_statements_share_its_rows() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        e.execute(sid, "CREATE TABLE #t (k INT, v VARCHAR(8))")
            .unwrap();
        e.execute(sid, "INSERT INTO #t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        // Where the rows live, and who else holds them.
        let rows_at = || {
            let (temps, _) = e.session_handles(sid).unwrap();
            let temps = temps.lock();
            let rows = &temps.tables["t"].rows;
            (Arc::as_ptr(rows), Arc::strong_count(rows))
        };
        let (at, holders) = rows_at();
        assert_eq!(holders, 1);
        // Each statement binds the table by its schema alone and reads the
        // shared rows, so no write has to copy them; filters and SET
        // expressions may read the table they change.
        for sql in [
            "INSERT INTO #t VALUES (4, 'd')",
            "SELECT a.k FROM #t a JOIN #t b ON a.k = b.k WHERE a.k > 1",
            "UPDATE #t SET v = 'x' WHERE k IN (SELECT k FROM #t WHERE k > 2)",
            "DELETE FROM #t WHERE k = (SELECT MIN(k) FROM #t)",
            "INSERT INTO #t SELECT k + 10, v FROM #t",
        ] {
            e.execute_collect(sid, sql).unwrap();
            assert_eq!(rows_at(), (at, 1), "{sql}");
        }
        let (_, rows) = e
            .execute_collect(sid, "SELECT k, v FROM #t ORDER BY k")
            .unwrap();
        let want: Vec<Row> = [
            (2, "b"),
            (3, "x"),
            (4, "x"),
            (12, "b"),
            (13, "x"),
            (14, "x"),
        ]
        .into_iter()
        .map(|(k, v)| vec![Value::Int(k), Value::Str(v.into())])
        .collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn temp_tables_are_session_local_and_die_with_session() {
        let (_d, e) = fresh();
        let s1 = e.create_session().unwrap();
        let s2 = e.create_session().unwrap();
        e.execute(s1, "CREATE TABLE #probe (x INT)").unwrap();
        e.execute(s1, "INSERT INTO #probe VALUES (1)").unwrap();
        let (_, rows) = e.execute_collect(s1, "SELECT * FROM #probe").unwrap();
        assert_eq!(rows.len(), 1);
        // Other session cannot see it.
        assert!(e.execute(s2, "SELECT * FROM #probe").is_err());
        // Dies with the session.
        e.close_session(s1);
        let s3 = e.create_session().unwrap();
        assert!(e.execute(s3, "SELECT * FROM #probe").is_err());
    }

    #[test]
    fn crash_loses_sessions_and_uncommitted_state() {
        let _serial = serial();
        let d = Durable::new(DiskModel::default());
        let sid;
        {
            let e = Engine::recover(&d, RecoveryConfig::default()).unwrap();
            sid = e.create_session().unwrap();
            setup_t(&e, sid);
            e.execute(sid, "BEGIN TRAN").unwrap();
            e.execute(sid, "INSERT INTO t VALUES (99, 'loser', 9.9)")
                .unwrap();
            // Make the loser durable in the log so recovery must undo it.
            e.storage().log.flush_all().unwrap();
            // Crash: engine dropped.
        }
        let e2 = Engine::recover(&d, RecoveryConfig::default()).unwrap();
        // Old session id no longer valid.
        assert!(matches!(
            e2.execute(sid, "SELECT 1"),
            Err(Error::NoSuchSession)
        ));
        let s = e2.create_session().unwrap();
        let (_, rows) = e2.execute_collect(s, "SELECT * FROM t").unwrap();
        assert_eq!(rows.len(), 3, "uncommitted insert must be gone");
    }

    /// A checkpoint flushes an open writer's uncommitted page; restart
    /// must still find the writer and undo it.
    #[test]
    fn checkpoint_beside_an_open_writer_keeps_it_a_loser() {
        let _serial = serial();
        let d = Durable::new(DiskModel::default());
        {
            let e = Engine::recover(&d, RecoveryConfig::default()).unwrap();
            let a = e.create_session().unwrap();
            e.execute(a, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                .unwrap();
            e.execute(a, "INSERT INTO t VALUES (1, 1)").unwrap();
            e.execute(a, "BEGIN TRAN").unwrap();
            e.execute(a, "INSERT INTO t VALUES (2, 2)").unwrap();
            let b = e.create_session().unwrap();
            e.execute(b, "CHECKPOINT").unwrap();
            e.mark_shutdown();
            d.fence();
        }
        let e2 = Engine::recover(&d, RecoveryConfig::default()).unwrap();
        let stats = e2.recovery_stats();
        // The loser's one insert is undone. (The CHECKPOINT statement's
        // own read-only commit was never forced: a loser with no undo.)
        assert_eq!(stats.undo_actions, 1, "{stats:?}");
        let s = e2.create_session().unwrap();
        let (_, rows) = e2.execute_collect(s, "SELECT id FROM t").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)]]);
    }

    /// A statement that fails before it writes aborts without forcing the
    /// log, and a restart right after it finds nothing to undo.
    #[test]
    fn failed_read_only_statement_forces_nothing() {
        let _serial = serial();
        let d = Durable::new(DiskModel::default());
        {
            let e = Engine::recover(&d, RecoveryConfig::default()).unwrap();
            let sid = e.create_session().unwrap();
            setup_t(&e, sid);
            let durable_end = d.log.durable_end();
            assert!(matches!(
                e.execute(sid, "SELECT * FROM missing"),
                Err(Error::NotFound(_))
            ));
            assert_eq!(d.log.durable_end(), durable_end, "the Abort was forced");
            e.mark_shutdown();
            d.fence();
        }
        let e2 = Engine::recover(&d, RecoveryConfig::default()).unwrap();
        assert_eq!(e2.recovery_stats().undo_actions, 0);
        let s = e2.create_session().unwrap();
        let (_, rows) = e2.execute_collect(s, "SELECT id FROM t").unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn shutdown_statement_bubbles_up() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        let r = e.execute(sid, "SHUTDOWN WITH NOWAIT").unwrap();
        assert!(matches!(
            r.outcome,
            ExecOutcome::ShutdownRequested { nowait: true }
        ));
        e.mark_shutdown();
        assert!(matches!(
            e.execute(sid, "SELECT 1"),
            Err(Error::ServerShutdown)
        ));
    }

    #[test]
    fn lazy_top_n_cursor_streams() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        e.execute(
            sid,
            "CREATE TABLE big (k INT PRIMARY KEY, pad VARCHAR(100))",
        )
        .unwrap();
        for batch in 0..10 {
            let mut sql = String::from("INSERT INTO big VALUES ");
            for i in 0..100 {
                let k = batch * 100 + i;
                if i > 0 {
                    sql.push(',');
                }
                sql.push_str(&format!("({k}, 'xxxxxxxxxxxxxxxx')"));
            }
            e.execute(sid, &sql).unwrap();
        }
        let r = e.execute(sid, "SELECT TOP 5 * FROM big").unwrap();
        let ExecOutcome::Rows(cursor) = r.outcome else {
            panic!()
        };
        assert!(cursor.is_lazy());
        let rows: Result<Vec<_>> = cursor.collect();
        assert_eq!(rows.unwrap().len(), 5);
    }

    #[test]
    fn stored_procedure_roundtrip() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        e.execute(
            sid,
            "CREATE PROCEDURE bump (@lo INT) AS UPDATE t SET x = x + 1 WHERE id >= @lo",
        )
        .unwrap();
        let r = e.execute(sid, "EXEC bump 2").unwrap();
        assert!(matches!(r.outcome, ExecOutcome::Affected(2)));
        let (_, rows) = e
            .execute_collect(sid, "SELECT x FROM t WHERE id = 3")
            .unwrap();
        assert_eq!(rows[0][0], crate::types::Value::Float(4.5));
    }

    #[test]
    fn insert_select_materializes_results_server_side() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        e.execute(sid, "CREATE TABLE res (id INT, v VARCHAR(20))")
            .unwrap();
        let r = e
            .execute(sid, "INSERT INTO res SELECT id, v FROM t WHERE x > 1.6")
            .unwrap();
        assert!(matches!(r.outcome, ExecOutcome::Affected(2)));
        let (_, rows) = e
            .execute_collect(sid, "SELECT * FROM res ORDER BY id")
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn select_into_creates_the_table_from_the_plan_and_loads_it() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        let r = e
            .execute(
                sid,
                "SELECT id, v, x * 2 INTO res FROM t WHERE x > 1.6 ORDER BY id DESC",
            )
            .unwrap();
        assert!(matches!(r.outcome, ExecOutcome::Affected(2)));
        let schema = e
            .storage()
            .catalog
            .resolve("res")
            .unwrap()
            .read()
            .schema
            .clone();
        let cols: Vec<(&str, crate::types::DataType)> = schema
            .columns
            .iter()
            .map(|c| (c.name.as_str(), c.dtype))
            .collect();
        use crate::types::DataType::{Float, Int, Str};
        assert_eq!(cols, [("id", Int), ("v", Str), ("col3", Float)]);
        assert!(schema.primary_key.is_empty());
        let (_, rows) = e.execute_collect(sid, "SELECT id FROM res").unwrap();
        assert_eq!(rows, [[Value::Int(3)], [Value::Int(2)]]);
        // The target must not exist yet.
        let err = e.execute(sid, "SELECT id INTO res FROM t").err().unwrap();
        assert!(matches!(err, Error::AlreadyExists(_)), "got {err:?}");
    }

    #[test]
    fn failed_select_into_leaves_no_table() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        let err = e.execute(sid, "SELECT nope INTO res FROM t").err().unwrap();
        assert!(
            matches!(err, Error::Semantic(_) | Error::NotFound(_)),
            "got {err:?}"
        );
        // Nor does a query that fails on its rows.
        assert!(e.execute(sid, "SELECT -v INTO res FROM t").is_err());
        assert!(e
            .execute(sid, "SELECT id INTO res FROM t WHERE id LIKE '1%'")
            .is_err());
        assert!(e.storage().catalog.resolve("res").is_none());
    }

    #[test]
    fn a_batch_reports_its_table_effects_in_order() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        setup_t(&e, sid);
        e.execute(sid, "CREATE TABLE old (id INT)").unwrap();
        let r = e
            .execute(
                sid,
                "DROP TABLE IF EXISTS old; DROP TABLE IF EXISTS gone; \
                 SELECT id INTO res FROM t; INSERT INTO res VALUES (7); SELECT * FROM res",
            )
            .unwrap();
        let ExecOutcome::Rows(cursor) = r.outcome else {
            panic!("the batch's last outcome is the reopened result")
        };
        assert_eq!(cursor.count(), 4);
        let loaded = |t: &str, rows| TableEffect::Loaded {
            table: t.into(),
            rows,
        };
        let dropped = |t: &str| TableEffect::Dropped { table: t.into() };
        assert_eq!(
            r.tables,
            [
                dropped("old"),
                dropped("gone"),
                loaded("res", 3),
                loaded("res", 1)
            ]
        );
        // Temp tables are session state, not reported.
        let r = e
            .execute(sid, "SELECT id INTO #tmp FROM t; DROP TABLE #tmp")
            .unwrap();
        assert!(r.tables.is_empty());
    }

    #[test]
    fn aggregates_group_by_having() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        e.execute(sid, "CREATE TABLE s (g INT, v INT)").unwrap();
        e.execute(
            sid,
            "INSERT INTO s VALUES (1, 10), (1, 20), (2, 5), (2, 6), (3, 100)",
        )
        .unwrap();
        let (_, rows) = e
            .execute_collect(
                sid,
                "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM s GROUP BY g \
                 HAVING SUM(v) > 20 ORDER BY total DESC",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], crate::types::Value::Int(100));
        assert_eq!(rows[1][1], crate::types::Value::Int(30));
    }

    #[test]
    fn scalar_agg_over_empty_input_yields_one_row() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        e.execute(sid, "CREATE TABLE s (v INT)").unwrap();
        let (_, rows) = e
            .execute_collect(sid, "SELECT COUNT(*), SUM(v) FROM s")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], crate::types::Value::Int(0));
        assert_eq!(rows[0][1], crate::types::Value::Null);
    }

    #[test]
    fn joins_and_subqueries() {
        let (_d, e) = fresh();
        let sid = e.create_session().unwrap();
        e.execute(sid, "CREATE TABLE a (id INT PRIMARY KEY, name VARCHAR(10))")
            .unwrap();
        e.execute(sid, "CREATE TABLE b (a_id INT, amount FLOAT)")
            .unwrap();
        e.execute(sid, "INSERT INTO a VALUES (1,'x'),(2,'y'),(3,'z')")
            .unwrap();
        e.execute(sid, "INSERT INTO b VALUES (1, 10.0),(1, 5.0),(2, 7.0)")
            .unwrap();
        // Comma join.
        let (_, rows) = e
            .execute_collect(
                sid,
                "SELECT name, amount FROM a, b WHERE id = a_id ORDER BY amount",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        // Left outer join + count.
        let (_, rows) = e
            .execute_collect(
                sid,
                "SELECT name, COUNT(amount) AS n FROM a LEFT OUTER JOIN b ON id = a_id \
                 GROUP BY name ORDER BY name",
            )
            .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![
                    crate::types::Value::Str("x".into()),
                    crate::types::Value::Int(2)
                ],
                vec![
                    crate::types::Value::Str("y".into()),
                    crate::types::Value::Int(1)
                ],
                vec![
                    crate::types::Value::Str("z".into()),
                    crate::types::Value::Int(0)
                ],
            ]
        );
        // Correlated EXISTS.
        let (_, rows) = e
            .execute_collect(
                sid,
                "SELECT name FROM a WHERE EXISTS \
                 (SELECT 1 FROM b WHERE a_id = id AND amount > 6.0) ORDER BY name",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        // Correlated scalar aggregate.
        let (_, rows) = e
            .execute_collect(
                sid,
                "SELECT name FROM a WHERE (SELECT SUM(amount) FROM b WHERE a_id = id) > 8.0",
            )
            .unwrap();
        assert_eq!(rows, vec![vec![crate::types::Value::Str("x".into())]]);
        // IN subquery.
        let (_, rows) = e
            .execute_collect(
                sid,
                "SELECT name FROM a WHERE id IN (SELECT a_id FROM b) ORDER BY name",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        // Derived table.
        let (_, rows) = e
            .execute_collect(
                sid,
                "SELECT name, t.total FROM a, (SELECT a_id, SUM(amount) AS total FROM b GROUP BY a_id) t \
                 WHERE id = t.a_id AND t.total > 6.0 ORDER BY name",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
    }
}
