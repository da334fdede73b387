//! The virtual ODBC database session (Sections 2.2–2.3, 4.1).
//!
//! A [`PhoenixConnection`] is what the application holds instead of a raw
//! driver connection. Underneath it maps to *one* real connection, which
//! also carries Phoenix's own traffic between application requests: the
//! status table's creation and ledger, and the result tables, each loaded,
//! reopened and later dropped by batches sent there, so its server-side
//! memory charge is the application session's. When the server
//! crashes, Phoenix detects it (driver error or timeout), reconnects,
//! re-binds the virtual session, reinstalls SQL state (reopening the
//! persistent result table and repositioning), and the application simply
//! continues — it pauses, it does not fail. A recovery sends two
//! requests: the handshake and the repositioned reopen. The handshake is
//! the liveness test: a reconnect always gets a fresh session, so no temp
//! table needs probing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use odbcsim::{OdbcConnection, OdbcStatement};
use sqlengine::schema::encode_row;
use sqlengine::types::{DataType, Row, Value};
use sqlengine::{Error, Result};
use wire::DbServer;

use crate::config::{Backoff, CacheMode, PhoenixConfig, RepositionMode};
use crate::intercept::{classify, reopen_sql, RequestClass};
use crate::persist::{persist_result, PersistTiming};

/// Phoenix-managed status table for exactly-once modification statements.
pub const STATUS_TABLE: &str = "phx_status";

static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// Snapshot of Phoenix's activity counters (observability + tests).
///
/// Since the obskit migration this is a *view*: the live values are
/// per-connection [`obskit::Counter`]s in the registry returned by
/// [`PhoenixConnection::metrics`], and [`PhoenixConnection::stats`]
/// materializes them into this struct for API compatibility.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhoenixStats {
    /// Real session recoveries: phase-1 reconnects actually performed.
    pub recoveries: u64,
    /// Result sets persisted as server tables (Section 2 path).
    pub results_persisted: u64,
    /// Result sets served entirely from the client cache (Section 4 path).
    pub results_cached: u64,
    /// Cache attempts that overflowed and fell back to persistence.
    pub cache_overflows: u64,
    /// Modification statements wrapped with the status-table transaction.
    pub updates_wrapped: u64,
    /// Rows handed to the application.
    pub rows_delivered: u64,
    /// Transaction aborts surfaced to the application after a crash.
    pub txn_aborts_surfaced: u64,
}

/// Timing of the most recent session recovery, split into the paper's two
/// phases (Figures 3 and 4). Derived from the finer-grained
/// [`RecoveryPhases`] breakdown.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryTiming {
    /// Phase 1: reconnect, reset connection options, re-map the virtual
    /// session (the paper's constant ≈0.37 s component).
    pub virtual_session: Duration,
    /// Phase 2: reinstall SQL state — reopen the persistent result and
    /// reposition to the last delivered tuple.
    pub sql_state: Duration,
    /// Reconnect attempts made during phase 1.
    pub attempts: u32,
}

/// Per-phase breakdown of one session recovery, in pipeline order. The
/// first four phases sum (with loop bookkeeping) to
/// [`RecoveryTiming::virtual_session`], the last two to
/// [`RecoveryTiming::sql_state`]. Each phase is also recorded as a
/// histogram under its name in both the connection's and the global
/// obskit registry, and emitted as a trace span when tracing is on.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryPhases {
    /// Reading the link's liveness flag: every connection-fatal error
    /// marks the link dead, so this sends nothing.
    pub detect: Duration,
    /// Probing the server before reconnecting. Nothing is probed (the
    /// handshake is the liveness test), so it reads zero; it stays in the
    /// breakdown for the sum rule.
    pub ping: Duration,
    /// Re-opening the connection until the server answers, including
    /// reconnect backoff waits.
    pub reconnect: Duration,
    /// Re-binding the virtual session to the fresh connection. It sends
    /// nothing (`phx_status` is durable, created at connect; the handshake
    /// proves the session fresh), so it reads zero.
    pub rebind: Duration,
    /// Re-persisting the result table when the reopen finds it lost; ~0
    /// otherwise, as it then sends nothing.
    pub reinstall: Duration,
    /// Reopening the persisted result and repositioning to the last
    /// delivered tuple.
    pub reposition: Duration,
}

impl RecoveryPhases {
    /// Histogram/trace-span names, in causal pipeline order.
    pub const NAMES: [&'static str; 6] = [
        "phoenix.recovery.detect",
        "phoenix.recovery.ping",
        "phoenix.recovery.reconnect",
        "phoenix.recovery.rebind",
        "phoenix.recovery.reinstall",
        "phoenix.recovery.reposition",
    ];

    /// `(name, duration)` pairs in pipeline order.
    pub fn named(&self) -> [(&'static str, Duration); 6] {
        let [detect, ping, reconnect, rebind, reinstall, reposition] = Self::NAMES;
        [
            (detect, self.detect),
            (ping, self.ping),
            (reconnect, self.reconnect),
            (rebind, self.rebind),
            (reinstall, self.reinstall),
            (reposition, self.reposition),
        ]
    }

    /// Sum of all six phases (≤ the recovery wall-clock, which also
    /// spans loop bookkeeping between phases).
    pub fn total(&self) -> Duration {
        self.named().iter().map(|(_, d)| *d).sum()
    }
}

/// Outcome of [`PhoenixConnection::exec`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecKind {
    /// A result set is open; fetch with [`PhoenixConnection::fetch`].
    ResultSet {
        /// Column names and types of the open result.
        columns: Vec<(String, DataType)>,
    },
    /// DML affected-row count.
    RowCount(u64),
    /// Control/DDL success.
    Ok,
}

enum ActiveSource {
    /// Fully cached at the client (Section 4): crash-proof by construction.
    Cached(VecDeque<Row>),
    /// Persisted as a server table; `stmt` streams from the reopen query.
    /// Autocommit results take this path (or the cache). Inside an
    /// application transaction only `persist_txn_results` does: there a
    /// crash surfaces as a transaction abort rather than being masked.
    Persisted { table: String, stmt: OdbcStatement },
    /// Opened inside an application transaction: the driver's own
    /// cursor, with no table behind it. A crash aborts the transaction,
    /// so no recovery ever reopens it.
    Native(OdbcStatement),
}

struct Active {
    sql: String,
    columns: Vec<(String, DataType)>,
    delivered: u64,
    source: ActiveSource,
}

struct Inner {
    app: OdbcConnection,
    in_app_txn: bool,
    next_req: u64,
    active: Option<Active>,
    last_recovery: Option<RecoveryTiming>,
    last_phases: Option<RecoveryPhases>,
    last_persist: Option<PersistTiming>,
    /// Result tables whose DROP is pending: retired results and failed
    /// persist attempts. The next persist batch (or `close_result`)
    /// drops them; a table leaves this list only once a batch that drops
    /// it is acknowledged, since a crash may have lost an unacknowledged
    /// DROP.
    pending_drop: Vec<String>,
    next_result: u64,
}

/// Per-connection activity counters: the single source of truth behind
/// [`PhoenixConnection::stats`]. Handles are resolved once so the hot
/// paths (row delivery, wrapped updates) pay one relaxed atomic add.
struct ConnMetrics {
    registry: std::sync::Arc<obskit::Registry>,
    recoveries: std::sync::Arc<obskit::Counter>,
    results_persisted: std::sync::Arc<obskit::Counter>,
    results_cached: std::sync::Arc<obskit::Counter>,
    cache_overflows: std::sync::Arc<obskit::Counter>,
    updates_wrapped: std::sync::Arc<obskit::Counter>,
    rows_delivered: std::sync::Arc<obskit::Counter>,
    txn_aborts_surfaced: std::sync::Arc<obskit::Counter>,
}

impl ConnMetrics {
    fn new() -> ConnMetrics {
        let registry = std::sync::Arc::new(obskit::Registry::new());
        ConnMetrics {
            recoveries: registry.counter("phoenix.session.recoveries"),
            results_persisted: registry.counter("phoenix.session.results_persisted"),
            results_cached: registry.counter("phoenix.session.results_cached"),
            cache_overflows: registry.counter("phoenix.session.cache_overflows"),
            updates_wrapped: registry.counter("phoenix.session.updates_wrapped"),
            rows_delivered: registry.counter("phoenix.session.rows_delivered"),
            txn_aborts_surfaced: registry.counter("phoenix.session.txn_aborts_surfaced"),
            registry,
        }
    }
}

/// A persistent database session.
pub struct PhoenixConnection {
    server: DbServer,
    cfg: PhoenixConfig,
    /// Stable identity used for result-table names and status-table keys.
    conn_id: u64,
    metrics: ConnMetrics,
    inner: Mutex<Inner>,
}

impl PhoenixConnection {
    /// Open a persistent session: connects the application connection and
    /// ensures the status table exists. The table is durable once this
    /// returns, so recovery never re-creates it.
    pub fn connect(server: &DbServer, cfg: PhoenixConfig) -> Result<PhoenixConnection> {
        let conn_id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
        let app = OdbcConnection::connect(server, cfg.driver.clone())?;
        match app.exec_direct(&format!(
            "CREATE TABLE {STATUS_TABLE} (app_key VARCHAR(64), req_id INT, affected INT, \
             PRIMARY KEY (app_key, req_id))"
        )) {
            Ok(_) | Err(Error::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
        Ok(PhoenixConnection {
            server: server.clone(),
            cfg,
            conn_id,
            metrics: ConnMetrics::new(),
            inner: Mutex::new(Inner {
                app,
                in_app_txn: false,
                next_req: 1,
                active: None,
                last_recovery: None,
                last_phases: None,
                last_persist: None,
                pending_drop: Vec::new(),
                next_result: 1,
            }),
        })
    }

    /// The key this connection's wrapped modifications are ledgered under
    /// in `phx_status` — lets a test (or an auditor) read exactly this
    /// session's exactly-once history.
    pub fn app_key(&self) -> String {
        format!("phx_{}", self.conn_id)
    }

    /// A fresh result-table name, `phx_res_<conn>_<seq>`, advancing this
    /// connection's sequence: no two persist attempts share a name.
    fn next_result_table(&self, next_result: &mut u64) -> String {
        let table = format!("phx_res_{}_{}", self.conn_id, next_result);
        *next_result += 1;
        table
    }

    // -- observability --------------------------------------------------------

    /// Counters describing this session's activity (a snapshot view over
    /// the per-connection obskit registry).
    pub fn stats(&self) -> PhoenixStats {
        PhoenixStats {
            recoveries: self.metrics.recoveries.get(),
            results_persisted: self.metrics.results_persisted.get(),
            results_cached: self.metrics.results_cached.get(),
            cache_overflows: self.metrics.cache_overflows.get(),
            updates_wrapped: self.metrics.updates_wrapped.get(),
            rows_delivered: self.metrics.rows_delivered.get(),
            txn_aborts_surfaced: self.metrics.txn_aborts_surfaced.get(),
        }
    }

    /// This connection's metrics registry: the counters behind
    /// [`Self::stats`] plus per-phase recovery histograms.
    pub fn metrics(&self) -> std::sync::Arc<obskit::Registry> {
        std::sync::Arc::clone(&self.metrics.registry)
    }

    /// Timing of the most recent recovery, if any happened.
    pub fn last_recovery_timing(&self) -> Option<RecoveryTiming> {
        self.inner.lock().last_recovery
    }

    /// Per-phase breakdown of the most recent recovery.
    pub fn last_recovery_phases(&self) -> Option<RecoveryPhases> {
        self.inner.lock().last_phases
    }

    /// Step timings of the most recent server-side result persistence.
    pub fn last_persist_timing(&self) -> Option<PersistTiming> {
        self.inner.lock().last_persist
    }

    /// Columns of the open result set, if any.
    pub fn columns(&self) -> Option<Vec<(String, DataType)>> {
        self.inner.lock().active.as_ref().map(|a| a.columns.clone())
    }

    // -- statement execution ---------------------------------------------------

    /// Execute an application request through Phoenix.
    pub fn exec(&self, sql: &str) -> Result<ExecKind> {
        let t_parse = Instant::now();
        let class = classify(sql)?;
        let parse_time = t_parse.elapsed();

        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        self.retire_active(inner);
        let budget = &mut self.budget();
        let run = |i: &mut Inner| i.app.exec_direct(sql);

        match class {
            RequestClass::TxnBegin => {
                self.masked(inner, budget, false, run)?;
                inner.in_app_txn = true;
                Ok(ExecKind::Ok)
            }
            RequestClass::TxnCommit | RequestClass::TxnRollback => {
                // A COMMIT or ROLLBACK lost to a crash leaves its
                // transaction's outcome unknown: the policy treats it as
                // inside that transaction and surfaces the abort.
                inner.in_app_txn = true;
                let r = self.masked(inner, budget, false, run);
                inner.in_app_txn = false;
                r.map(|_| ExecKind::Ok)
            }
            RequestClass::Passthrough => {
                let st = self.masked(inner, budget, false, run)?;
                Ok(st.row_count().map_or(ExecKind::Ok, ExecKind::RowCount))
            }
            RequestClass::Modification if inner.in_app_txn => {
                let st = self.masked(inner, budget, false, run)?;
                Ok(ExecKind::RowCount(st.row_count().unwrap_or(0)))
            }
            RequestClass::Modification => self
                .wrapped_modification(inner, budget, sql)
                .map(ExecKind::RowCount),
            RequestClass::ResultGenerating => self.open_result(inner, budget, sql, parse_time),
        }
    }

    /// Fetch the next row of the open result set. Server failures during
    /// delivery are masked within the call's `masking_retries` budget:
    /// Phoenix recovers the session, repositions, and returns the row as
    /// if nothing happened.
    pub fn fetch(&self) -> Result<Option<Row>> {
        let mut inner = self.inner.lock();
        self.masked(&mut inner, &mut self.budget(), false, |i| {
            let Some(active) = i.active.as_mut() else {
                return Err(Error::Semantic("no open result set".into()));
            };
            let row = match &mut active.source {
                ActiveSource::Cached(rows) => rows.pop_front(),
                // After a recovery the reopened, repositioned statement
                // resumes delivery seamlessly; a native cursor never
                // survives one (the transaction aborts with it).
                ActiveSource::Persisted { stmt, .. } | ActiveSource::Native(stmt) => {
                    stmt.fetch()?
                }
            };
            if row.is_some() {
                active.delivered += 1;
                self.metrics.rows_delivered.incr();
            }
            Ok(row)
        })
    }

    /// Fetch up to `n` rows.
    pub fn fetch_block(&self, n: usize) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(n.min(1024));
        while out.len() < n {
            match self.fetch()? {
                Some(r) => out.push(r),
                None => break,
            }
        }
        Ok(out)
    }

    /// Drain the open result fully.
    pub fn fetch_all(&self) -> Result<Vec<Row>> {
        self.fetch_block(usize::MAX)
    }

    /// Convenience: exec + fetch_all.
    pub fn query_all(&self, sql: &str) -> Result<Vec<Row>> {
        match self.exec(sql)? {
            ExecKind::ResultSet { .. } => self.fetch_all(),
            _ => Ok(Vec::new()),
        }
    }

    /// Close the open result set. Its persistent result table, and any
    /// other pending one, is dropped now, or once the application
    /// transaction in progress ends.
    pub fn close_result(&self) {
        let mut inner = self.inner.lock();
        self.retire_active(&mut inner);
        self.process_pending_drops(&mut inner);
    }

    /// Orderly close: drop pending result tables, clear status rows. An
    /// application transaction still open is rolled back in the same
    /// batch, ahead of the `DELETE`, so the `DELETE` commits by itself and
    /// the transaction's uncommitted work is not committed; the result
    /// tables that waited for it to end are dropped last.
    pub fn close(self) {
        self.close_result();
        let mut inner = self.inner.lock();
        let delete = format!(
            "DELETE FROM {STATUS_TABLE} WHERE app_key = '{}'",
            self.app_key()
        );
        let batch = if inner.in_app_txn {
            format!("ROLLBACK; {delete}")
        } else {
            delete.clone()
        };
        // A transaction the server already ended (a failed statement
        // rolls it back) fails the ROLLBACK, which stops the batch: the
        // DELETE is then sent alone.
        if inner.app.exec_direct(&batch).is_err() && inner.in_app_txn {
            // lint:allow(discard): close is best-effort; a dead link leaves the status rows behind
            let _ = inner.app.exec_direct(&delete);
        }
        inner.in_app_txn = false;
        self.process_pending_drops(&mut inner);
    }

    // -- masking policy (Section 2.3) --------------------------------------------

    /// A fresh budget for one application call.
    fn budget(&self) -> Budget {
        Budget {
            retries_left: self.cfg.reconnect.masking_retries,
            backoff: Backoff::for_stream(&self.cfg.reconnect, self.conn_id),
        }
    }

    /// Run `step` until it succeeds or the masking policy surfaces its
    /// error. `replay_safe`: the step may run again after losing a
    /// wait-die conflict.
    fn masked<T>(
        &self,
        inner: &mut Inner,
        budget: &mut Budget,
        replay_safe: bool,
        mut step: impl FnMut(&mut Inner) -> Result<T>,
    ) -> Result<T> {
        loop {
            let e = match step(inner) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let action = classify_failure(&e, inner.in_app_txn, replay_safe);
            self.apply(inner, budget, action, e)?;
        }
    }

    /// Carry out `action` for a step that failed with `e`: `Ok` means run
    /// the step again, `Err` is what the application sees. The budget is
    /// checked before recovering, so a spent call surfaces `e` as is.
    fn apply(
        &self,
        inner: &mut Inner,
        budget: &mut Budget,
        action: Action,
        e: Error,
    ) -> Result<()> {
        match action {
            Action::RecoverRetry if budget.spend() => self.recover(inner),
            Action::RecoverAbort => {
                self.recover(inner)?;
                inner.in_app_txn = false;
                inner.active = None;
                self.metrics.txn_aborts_surfaced.incr();
                Err(Error::TxnAborted(
                    "server failure during transaction".into(),
                ))
            }
            Action::BackoffRetry if budget.spend() && budget.backoff.wait() => Ok(()),
            _ => Err(e),
        }
    }

    // -- internals --------------------------------------------------------------

    /// Retire the current result set: its statement is closed, and a
    /// persistent table is scheduled for dropping.
    fn retire_active(&self, inner: &mut Inner) {
        let Some(active) = inner.active.take() else {
            return;
        };
        let stmt = match active.source {
            ActiveSource::Cached(_) => return,
            ActiveSource::Native(stmt) => stmt,
            ActiveSource::Persisted { table, stmt } => {
                inner.pending_drop.push(table);
                stmt
            }
        };
        // lint:allow(discard): a dead link closes the statement server-side anyway
        let _ = stmt.close();
    }

    /// Drop every pending result table in one batch on the application
    /// connection. On failure they all stay pending for a later attempt
    /// (`IF EXISTS`: some may already be gone). Inside an application
    /// transaction nothing is sent: the DROPs wait for it to end, so
    /// Phoenix adds no DDL, and no log force, to it.
    fn process_pending_drops(&self, inner: &mut Inner) {
        if inner.pending_drop.is_empty() || inner.in_app_txn {
            return;
        }
        let batch: Vec<String> = inner
            .pending_drop
            .iter()
            .map(|t| format!("DROP TABLE IF EXISTS {t}"))
            .collect();
        if inner.app.exec_direct(&batch.join("; ")).is_ok() {
            inner.pending_drop.clear();
        }
    }

    /// Section 2.1 + 4.1: open a result set recoverably. Inside an
    /// application transaction a crash aborts the transaction, so its
    /// results are never redelivered: unless `persist_txn_results` asks
    /// for the paper's behaviour, such a result streams from a native
    /// cursor (paper §2.3).
    fn open_result(
        &self,
        inner: &mut Inner,
        budget: &mut Budget,
        sql: &str,
        parse_time: Duration,
    ) -> Result<ExecKind> {
        if inner.in_app_txn && !self.cfg.persist_txn_results {
            let stmt = self.masked(inner, budget, false, |i| i.app.exec_direct(sql))?;
            let columns = stmt.columns().to_vec();
            return Ok(activate(inner, sql, columns, ActiveSource::Native(stmt)));
        }

        // Client caching first (Section 4): execute the original statement
        // and pull the whole result into the client cache.
        if let CacheMode::Enabled { capacity_bytes } = self.cfg.cache {
            self.process_pending_drops(inner);
            match self.try_cache_result(inner, budget, sql, capacity_bytes)? {
                Some((columns, rows)) => {
                    self.metrics.results_cached.incr();
                    return Ok(activate(inner, sql, columns, ActiveSource::Cached(rows)));
                }
                // Fall through to server-side persistence.
                None => self.metrics.cache_overflows.incr(),
            }
        }

        // Server-side persistence: one batch drops the pending result
        // tables, loads this result and reopens it. A failed attempt is
        // re-run under a fresh table name, so a re-run is idempotent, and
        // queues its table for DROP (`IF EXISTS`: the failure may have
        // come before the table existed).
        let pr = self.masked(inner, budget, false, |i| {
            let table = self.next_result_table(&mut i.next_result);
            let r = persist_result(&i.app, &i.pending_drop, &table, sql, 0, parse_time);
            match r {
                Ok(_) => i.pending_drop.clear(),
                Err(_) => i.pending_drop.push(table),
            }
            r
        })?;
        self.metrics.results_persisted.incr();
        inner.last_persist = Some(pr.timing);
        let source = ActiveSource::Persisted {
            table: pr.table,
            stmt: pr.stmt,
        };
        Ok(activate(inner, sql, pr.columns, source))
    }

    /// Execute the query and pull the whole result to the client; `None`
    /// when it overflows `capacity`. If the server fails before the full
    /// result arrives, the usual recovery runs and the query is
    /// re-executed (Section 4.1).
    fn try_cache_result(
        &self,
        inner: &mut Inner,
        budget: &mut Budget,
        sql: &str,
        capacity: usize,
    ) -> Result<Option<CachedResult>> {
        self.masked(inner, budget, false, |i| {
            let mut stmt = i.app.exec_direct(sql)?;
            let columns = stmt.columns().to_vec();
            let mut rows = VecDeque::new();
            let mut bytes = 0usize;
            loop {
                // Single block-cursor read per driver call.
                let batch = stmt.fetch_block(256)?;
                if batch.is_empty() {
                    // Entire result now at the client: deliverability is
                    // guaranteed regardless of later server failures.
                    return Ok(Some((columns, rows)));
                }
                for r in batch {
                    let mut tmp = Vec::new();
                    encode_row(&r, &mut tmp);
                    bytes += tmp.len();
                    rows.push_back(r);
                }
                if bytes > capacity {
                    // lint:allow(discard): overflow abandons the probe; statement cleanup is advisory
                    let _ = stmt.close();
                    return Ok(None);
                }
            }
        })
    }

    /// Modification statement with exactly-once semantics (paper §2.1),
    /// in one request: the statement runs in a transaction that also
    /// records its affected count in the status table, and the batch
    /// ends by reading that record back. Any failure of the batch is
    /// settled by reading the record: the error may have come after the
    /// COMMIT, from the read itself.
    fn wrapped_modification(
        &self,
        inner: &mut Inner,
        budget: &mut Budget,
        sql: &str,
    ) -> Result<u64> {
        self.metrics.updates_wrapped.incr();
        let req_id = inner.next_req;
        inner.next_req += 1;
        let key = self.app_key();
        let ledger = format!(
            "SELECT affected FROM {STATUS_TABLE} WHERE app_key = '{key}' AND req_id = {req_id}"
        );
        let batch = wrapped_batch_sql(sql, &key, req_id, &ledger);
        let run = |i: &mut Inner, q: &str| query_all(&i.app, q).map(|rows| ledger_count(&rows));

        loop {
            // The batch is about to leave: a crash here means the server
            // never saw it. Its server-side windows are the engine's own
            // points: the log append and force at the COMMIT, and the
            // reply after it.
            faultkit::crashpoint!("phoenix.status.batch");
            let e = match run(inner, &batch) {
                Ok(Some(n)) => return Ok(n),
                Ok(None) => Error::Internal("wrapped batch committed no status row".into()),
                Err(e) => e,
            };
            // Recover a lost link or back off a wait-die victim (`Ok`: the
            // batch may run again); `Err` surfaces unless the ledger says
            // the batch committed.
            let verdict = match self.apply(inner, budget, classify_failure(&e, false, true), e) {
                // No session to read the ledger on: the outcome stays
                // unknown, and `req_id` stays spent.
                Err(e) if inner.app.is_dead() => return Err(e),
                verdict => verdict,
            };
            // The ledger read runs over the network and can hit the next
            // fault, so it is masked too, on the same budget.
            let applied = self.masked(inner, budget, true, |i| run(i, &ledger));
            match (applied, verdict) {
                (Ok(Some(n)), _) => return Ok(n),
                // Not applied: re-execute.
                (Ok(None), Ok(())) => {}
                // Not applied and surfaced: the request hands its req_id
                // back, so an application-level retry keeps the ledger dense.
                (Ok(None), Err(e)) => {
                    inner.next_req = req_id;
                    return Err(e);
                }
                (Err(e), _) => return Err(e),
            }
        }
    }

    // -- recovery (Section 2.3) --------------------------------------------------

    /// Recover the virtual database session after a suspected failure.
    /// Idempotent: a crash *during* recovery simply re-enters here, and an
    /// exhausted budget ([`Error::RecoveryExhausted`]) leaves the virtual
    /// session intact so the *next* application call resumes recovery
    /// instead of failing permanently.
    fn recover(&self, inner: &mut Inner) -> Result<()> {
        let t0 = Instant::now();
        let mut phases = RecoveryPhases::default();

        // Concurrent-recovery telemetry: the inflight gauge (and its
        // high-water mark) rises while this recovery is actively working
        // and falls on every exit path — a reconnect storm shows up as
        // the peak, and a leak would leave the gauge nonzero.
        struct InflightGuard(std::sync::Arc<obskit::metrics::Gauge>);
        impl Drop for InflightGuard {
            fn drop(&mut self) {
                self.0.add(-1);
            }
        }
        let inflight = obskit::metrics::global().gauge("phoenix.recovery.inflight");
        inflight.add(1);
        obskit::metrics::global()
            .gauge("phoenix.recovery.inflight.peak")
            .max(inflight.get());
        let _inflight = InflightGuard(inflight);

        // One budget governs both phases; a connection-fatal error in
        // phase 2 re-enters phase 1 on the same Backoff, so a crash during
        // recovery cannot leak `ServerShutdown` past this function. The
        // backoff draws jitter from this session's own stream (keyed by
        // connection id): one configured seed, decorrelated schedules
        // across a storm.
        let mut backoff = Backoff::for_stream(&self.cfg.reconnect, self.conn_id);
        let (virtual_session, sql_state) = loop {
            // Phase 1: re-establish the connection and the virtual session
            // (skipped when the link survived and only phase 2 remains).
            // Detection reads the link's dead flag, which every
            // connection-fatal error sets. Reconnect time includes the
            // backoff waits between attempts.
            let t_detect = Instant::now();
            let dead = inner.app.is_dead();
            phases.detect += t_detect.elapsed();
            if dead {
                let t_reconnect = Instant::now();
                // The handshake is the liveness test: its answer comes
                // from a fresh session on a live server.
                let fresh = OdbcConnection::connect(&self.server, self.cfg.driver.clone());
                let fresh = fresh.map_err(|e| match e {
                    // Shed by admission control: the next wait honors the
                    // server's hint.
                    busy @ Error::ServerBusy { .. } => busy,
                    // Any other phase-1 failure: the server is still down.
                    _ => Error::ServerShutdown,
                });
                phases.reconnect += t_reconnect.elapsed();
                match fresh {
                    Ok(app) => {
                        inner.app = app;
                        self.metrics.recoveries.incr();
                    }
                    Err(e) => {
                        recovery_wait(&mut backoff, &mut phases, e)?;
                        continue;
                    }
                }
            }
            let virtual_session = t0.elapsed();

            // Phase 2: reinstall SQL state for the interrupted request.
            // On a retryable failure the loop retries the reinstall (after
            // phase 1 if the link died again).
            let t1 = Instant::now();
            match self.reinstall_sql_state(inner, &mut phases) {
                Ok(()) => break (virtual_session, t1.elapsed()),
                Err(e) => recovery_wait(&mut backoff, &mut phases, e)?,
            }
        };

        // Publish the breakdown: per-phase histograms in both the
        // connection's and the process registry, plus one trace span per
        // phase in pipeline order (seq order = causal order).
        for (name, d) in phases.named() {
            self.metrics.registry.record(name, d);
            obskit::metrics::global().record(name, d);
            obskit::trace::emit_span(name, d, String::new());
        }
        inner.last_recovery = Some(RecoveryTiming {
            virtual_session,
            sql_state,
            attempts: backoff.attempts(),
        });
        inner.last_phases = Some(phases);
        Ok(())
    }

    /// Phase 2 of recovery: reinstall SQL state on the (fresh or surviving)
    /// connection. Failures leave `inner.active` in place, so the next
    /// recovery resumes the work — the virtual session is never torn down
    /// by a failed reinstall. Time spent is
    /// accumulated into `phases` (re-persist → `reinstall`, reopen and
    /// client-side skip → `reposition`), including on the error paths, so
    /// a retried phase 2 reports its full cost.
    fn reinstall_sql_state(&self, inner: &mut Inner, phases: &mut RecoveryPhases) -> Result<()> {
        let Inner {
            app,
            in_app_txn,
            active,
            next_result,
            ..
        } = inner;
        if *in_app_txn {
            // The transaction died with the server; the caller surfaces
            // TxnAborted. Nothing to reinstall.
            *active = None;
        }
        // No result open, or one held entirely at the client: no server
        // state to reinstall.
        let Some(Active {
            sql,
            delivered,
            source: ActiveSource::Persisted { table, stmt },
            ..
        }) = active.as_mut()
        else {
            return Ok(());
        };
        // Reopen at the last delivered tuple. The server advances past it,
        // so no tuples cross the wire (the repositioning stored
        // procedure); client repositioning reopens at row 0 and sequences.
        let skip = match self.cfg.reposition {
            RepositionMode::Server => *delivered,
            RepositionMode::Client => 0,
        };
        let t_reposition = Instant::now();
        let reopened = app.exec_direct_skip(&reopen_sql(table), skip);
        phases.reposition += t_reposition.elapsed();
        let mut reopened = match reopened {
            // Database recovery did not restore the result table (it was
            // dropped out of band, or never reached commit): redo the
            // persistence from the remembered request under a fresh name —
            // the result is recomputed, not lost. Its batch reopens at
            // `skip` too.
            Err(Error::NotFound(_)) => {
                let t_reinstall = Instant::now();
                let fresh = self.next_result_table(next_result);
                let r = persist_result(app, &[], &fresh, sql, skip, Duration::ZERO);
                phases.reinstall += t_reinstall.elapsed();
                let pr = r?;
                *table = pr.table;
                pr.stmt
            }
            r => r?,
        };
        if self.cfg.reposition == RepositionMode::Client {
            // Sequence through the result from the client. A reopened
            // result shorter than the remembered position means the
            // persisted table lost rows — surface that, never silently
            // resume short.
            let t_skip = Instant::now();
            let skipped = (0..*delivered).try_for_each(|consumed| match reopened.fetch()? {
                Some(_) => Ok(()),
                None => Err(Error::Storage(format!(
                    "persisted result {table} ended at row {consumed} \
                     while repositioning to {delivered}"
                ))),
            });
            phases.reposition += t_skip.elapsed();
            skipped?;
        }
        *stmt = reopened;
        Ok(())
    }
}

/// A result pulled whole into the client cache: its columns and rows.
type CachedResult = (Vec<(String, DataType)>, VecDeque<Row>);

/// Install `source` as the open result set.
fn activate(
    inner: &mut Inner,
    sql: &str,
    columns: Vec<(String, DataType)>,
    source: ActiveSource,
) -> ExecKind {
    inner.active = Some(Active {
        sql: sql.to_string(),
        columns: columns.clone(),
        delivered: 0,
        source,
    });
    ExecKind::ResultSet { columns }
}

/// What the masking policy does with a failed step (DESIGN §9). It is the
/// paper's one rule: recovery is idempotent and re-runs until it
/// succeeds, and a transaction in flight at the crash surfaces as an
/// ordinary abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// The link died outside an application transaction: recover the
    /// session, then run the step again.
    RecoverRetry,
    /// The link died inside an application transaction: recover the
    /// session, then surface `TxnAborted` (the transaction died with it).
    RecoverAbort,
    /// A wait-die victim at a step that may replay: back off, run again.
    BackoffRetry,
    /// Anything else reaches the application unchanged.
    Surface,
}

/// The masking policy's one classifier. `in_txn`: the step runs inside
/// an application transaction. `replay_safe`: the step may run again
/// after losing a wait-die conflict (the wrapped batch, once its ledger
/// read shows it not applied, and the ledger read).
fn classify_failure(e: &Error, in_txn: bool, replay_safe: bool) -> Action {
    if e.is_connection_fatal() {
        if in_txn {
            Action::RecoverAbort
        } else {
            Action::RecoverRetry
        }
    } else if matches!(e, Error::Deadlock) && replay_safe && !in_txn {
        Action::BackoffRetry
    } else {
        Action::Surface
    }
}

/// The masking budget of one application call: the `masking_retries`
/// re-runs that all its masked steps draw from, nested ones included,
/// and the backoff that spaces deadlock replays.
struct Budget {
    retries_left: u32,
    backoff: Backoff,
}

impl Budget {
    /// Spend one re-run; `false` once none are left.
    fn spend(&mut self) -> bool {
        let left = self.retries_left > 0;
        self.retries_left = self.retries_left.saturating_sub(1);
        left
    }
}

/// The one wait between recovery attempts. A shed (`ServerBusy`) waits
/// out the server's `retry_after` hint; a lost link or a wait-die
/// conflict takes the next backoff step; the wait counts as reconnect
/// time. `Err` is what recovery returns: a non-retryable `e`, or
/// `RecoveryExhausted` once the budget is spent.
fn recovery_wait(backoff: &mut Backoff, phases: &mut RecoveryPhases, e: Error) -> Result<()> {
    let t_wait = Instant::now();
    let retry = match e {
        Error::ServerBusy { retry_after } => {
            obskit::event!("phoenix.recovery.shed");
            backoff.wait_shed(retry_after)
        }
        Error::Deadlock => backoff.wait(),
        e if e.is_connection_fatal() => backoff.wait(),
        e => return Err(e),
    };
    phases.reconnect += t_wait.elapsed();
    if retry {
        Ok(())
    } else {
        obskit::event!("phoenix.recovery.exhausted");
        Err(Error::RecoveryExhausted)
    }
}

/// The wrapped-modification batch: `BEGIN TRAN`, the application's
/// request, the status row with the request's `@@ROWCOUNT`, `COMMIT`,
/// then the `ledger` read. The request stands on lines of its own, so a
/// trailing `--` comment or `;` cannot swallow what follows it.
fn wrapped_batch_sql(sql: &str, key: &str, req_id: u64, ledger: &str) -> String {
    format!(
        "BEGIN TRAN;\n{sql}\n;\n\
         INSERT INTO {STATUS_TABLE} VALUES ('{key}', {req_id}, @@ROWCOUNT);\n\
         COMMIT;\n{ledger}"
    )
}

/// The affected count a ledger read found, if its status row exists.
fn ledger_count(rows: &[Row]) -> Option<u64> {
    match rows.first().and_then(|row| row.first()) {
        Some(Value::Int(n)) => Some(*n as u64),
        _ => None,
    }
}

/// Run a query on a raw driver connection and collect all rows.
pub(crate) fn query_all(conn: &OdbcConnection, sql: &str) -> Result<Vec<Row>> {
    let mut st = conn.exec_direct(sql)?;
    let mut out = Vec::new();
    while let Some(r) = st.fetch()? {
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReconnectPolicy;

    #[test]
    fn wrapped_batch_keeps_the_request_on_lines_of_its_own() {
        let ledger = "SELECT affected FROM phx_status WHERE app_key = 'phx_1' AND req_id = 7";
        let sql = wrapped_batch_sql("UPDATE t SET a = 1 -- note", "phx_1", 7, ledger);
        assert_eq!(
            sql,
            "BEGIN TRAN;\nUPDATE t SET a = 1 -- note\n;\n\
             INSERT INTO phx_status VALUES ('phx_1', 7, @@ROWCOUNT);\n\
             COMMIT;\n\
             SELECT affected FROM phx_status WHERE app_key = 'phx_1' AND req_id = 7"
        );
        for (request, stmts) in [
            ("UPDATE t SET a = 1 -- note", 5),
            ("UPDATE t SET a = 1;", 5),
            ("UPDATE t SET a = 1; -- done", 5),
            ("INSERT INTO t VALUES (1); DELETE FROM t WHERE a = 2;", 6),
        ] {
            let sql = wrapped_batch_sql(request, "phx_1", 7, ledger);
            let parsed = sqlengine::sql::parser::parse_statements(&sql).unwrap();
            assert_eq!(parsed.len(), stmts, "{request}");
        }
    }

    #[test]
    fn classifier_table() {
        use Action::*;
        // Columns: (in_txn, replay_safe) = (no, no), (no, yes), (yes, no), (yes, yes).
        let cells = [(false, false), (false, true), (true, false), (true, true)];
        let fatal = [RecoverRetry, RecoverRetry, RecoverAbort, RecoverAbort];
        let busy = Error::ServerBusy {
            retry_after: Duration::from_millis(10),
        };
        let table = [
            (Error::ServerShutdown, fatal),
            (Error::NoSuchSession, fatal),
            (Error::Timeout, fatal),
            (Error::Deadlock, [Surface, BackoffRetry, Surface, Surface]),
            (busy, [Surface; 4]),
            (Error::RecoveryExhausted, [Surface; 4]),
            (Error::Semantic("no such column".into()), [Surface; 4]),
        ];
        for (e, want) in &table {
            for ((in_txn, replay_safe), want) in cells.into_iter().zip(want) {
                assert_eq!(
                    classify_failure(e, in_txn, replay_safe),
                    *want,
                    "{e:?} in_txn={in_txn} replay_safe={replay_safe}"
                );
            }
        }
    }

    #[test]
    fn budget_spends_exactly_masking_retries() {
        let policy = ReconnectPolicy {
            masking_retries: 2,
            ..ReconnectPolicy::default()
        };
        let mut budget = Budget {
            retries_left: policy.masking_retries,
            backoff: Backoff::new(&policy),
        };
        assert!(budget.spend());
        assert!(budget.spend());
        assert!(!budget.spend());
        assert!(!budget.spend());
    }

    #[test]
    fn recovery_wait_retries_only_what_recovery_can_outwait() {
        let policy = ReconnectPolicy::fixed(2, Duration::from_micros(50));
        let mut backoff = Backoff::new(&policy);
        let mut phases = RecoveryPhases::default();
        let err =
            recovery_wait(&mut backoff, &mut phases, Error::Semantic("bad".into())).unwrap_err();
        assert!(matches!(err, Error::Semantic(_)), "got {err:?}");
        assert_eq!(backoff.attempts(), 0, "a non-retryable error does not wait");
        assert!(recovery_wait(&mut backoff, &mut phases, Error::Deadlock).is_ok());
        let busy = Error::ServerBusy {
            retry_after: Duration::from_micros(50),
        };
        assert!(recovery_wait(&mut backoff, &mut phases, busy).is_ok());
        let err = recovery_wait(&mut backoff, &mut phases, Error::ServerShutdown).unwrap_err();
        assert!(matches!(err, Error::RecoveryExhausted), "got {err:?}");
        assert!(
            phases.reconnect > Duration::ZERO,
            "waits count as reconnect time"
        );
    }
}
