//! # odbcsim
//!
//! An ODBC-like data access layer over the [`wire`] protocol — the stand-in
//! for the paper's *native ODBC driver*. It reproduces the driver behaviours
//! Phoenix builds on:
//!
//! * `exec_direct` returns when the statement completes **or** when the
//!   driver's bounded row buffer fills (default-result-set semantics: the
//!   server streams all rows immediately; client+network buffering is
//!   finite, so a large unconsumed result leaves the server's scan
//!   suspended — the Table 3 mechanism).
//! * `fetch` / `fetch_block` consume buffered rows, pulling more from the
//!   network on demand (block cursors are what Phoenix's client-side
//!   result cache uses to slurp a result in few calls).
//! * Connection-level failures surface as
//!   [`Error::is_connection_fatal`] errors, and a per-call query timeout
//!   is available — the two failure-detection channels Phoenix uses.
//! * `exec_direct_skip` executes with a server-side skip: the wire-level
//!   equivalent of the paper's "advance to tuple N" stored procedure.

// Tests exercise happy paths; the unwrap/expect hygiene baseline is
// aimed at library code (enforced harder by `cargo xtask lint`).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use sqlengine::schema::encode_row;
use sqlengine::types::{DataType, Row};
use sqlengine::{Error, Result};
use wire::{ClientConn, DbServer, DoneKind, Request, Response, StmtId};

/// Driver configuration (per connection).
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Login string recorded by the server (and replayed by Phoenix at
    /// recovery).
    pub login: String,
    /// Driver-side row buffer capacity in bytes. `exec_direct` returns
    /// once the statement is done or this buffer is full.
    pub buffer_bytes: usize,
    /// Per-receive timeout; `None` blocks indefinitely (up to the
    /// request watchdog).
    pub query_timeout: Option<Duration>,
    /// Request watchdog: wall-clock bound on one whole driver call
    /// (connect / exec / fetch / ping). A stalled receive — delivery
    /// withheld with no error raised — makes no per-receive progress
    /// and would otherwise hang; the watchdog converts it into a
    /// detectable [`Error::Timeout`]. `None` disables the watchdog.
    pub request_deadline: Option<Duration>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            login: "app".into(),
            buffer_bytes: 16 * 1024,
            query_timeout: Some(Duration::from_secs(30)),
            request_deadline: Some(Duration::from_secs(60)),
        }
    }
}

/// Watchdog for one driver call: yields per-receive timeouts clipped to
/// the remaining request budget, and raises [`Error::Timeout`] once the
/// budget is spent.
struct Watchdog {
    deadline: Option<Instant>,
}

impl Watchdog {
    fn start(cfg: &DriverConfig) -> Watchdog {
        Watchdog {
            deadline: cfg
                .request_deadline
                .and_then(|d| Instant::now().checked_add(d)),
        }
    }

    /// Timeout for the next receive: the per-receive `query_timeout`
    /// clipped to the watchdog's remaining budget. `Err(Timeout)` once
    /// the budget is exhausted.
    fn recv_timeout(&self, per_recv: Option<Duration>) -> Result<Option<Duration>> {
        let Some(d) = self.deadline else {
            return Ok(per_recv);
        };
        let now = Instant::now();
        if now >= d {
            return Err(Error::Timeout);
        }
        let remaining = d - now;
        Ok(Some(per_recv.map_or(remaining, |t| t.min(remaining))))
    }
}

struct ConnInner {
    conn: ClientConn,
    cfg: DriverConfig,
    dead: AtomicBool,
    next_stmt: AtomicU32,
    /// The statement currently allowed to own the response stream.
    active: Mutex<Option<StmtId>>,
}

impl ConnInner {
    fn fail(&self, e: Error) -> Error {
        if e.is_connection_fatal() {
            self.dead.store(true, Ordering::SeqCst);
            // Free anything blocked on this link (e.g. a server-side
            // result stream waiting for buffer space): the connection is
            // unusable, so tear the endpoint down now rather than when
            // the application drops the handle.
            self.conn.close();
        }
        e
    }

    fn check(&self) -> Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(Error::ServerShutdown);
        }
        Ok(())
    }
}

impl Drop for ConnInner {
    fn drop(&mut self) {
        // A handle dropped without `close()` (e.g. recovery abandoning a
        // half-built connection pair after a shed) must still tear the
        // endpoint down, or the server keeps its admission slot charged
        // until the idle sweeper notices.
        self.conn.close();
    }
}

/// An ODBC-style connection (maps to one database session).
pub struct OdbcConnection {
    inner: Arc<ConnInner>,
    session: u64,
}

impl OdbcConnection {
    /// `SQLDriverConnect`: open a network connection and a session.
    pub fn connect(server: &DbServer, cfg: DriverConfig) -> Result<OdbcConnection> {
        let conn = server.connect()?;
        conn.send(&Request::Connect {
            login: cfg.login.clone(),
        })?;
        let wd = Watchdog::start(&cfg);
        let timeout = wd.recv_timeout(cfg.query_timeout)?;
        match conn.recv(timeout)? {
            Response::Connected { session } => Ok(OdbcConnection {
                inner: Arc::new(ConnInner {
                    conn,
                    cfg,
                    dead: AtomicBool::new(false),
                    next_stmt: AtomicU32::new(1),
                    active: Mutex::new(None),
                }),
                session,
            }),
            Response::Error { error, .. } => Err(error),
            _ => Err(Error::Internal("unexpected connect response".into())),
        }
    }

    /// Server-assigned session id (diagnostics only).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// True once a connection-fatal error has been observed.
    pub fn is_dead(&self) -> bool {
        self.inner.dead.load(Ordering::SeqCst)
    }

    /// `SQLExecDirect`.
    pub fn exec_direct(&self, sql: &str) -> Result<OdbcStatement> {
        self.exec_direct_skip(sql, 0)
    }

    /// Execute with a server-side skip of the first `skip` result rows
    /// (they are scanned at the server, never transmitted).
    pub fn exec_direct_skip(&self, sql: &str, skip: u64) -> Result<OdbcStatement> {
        self.inner.check()?;
        // One active streaming statement per connection: retire the old one.
        {
            let mut active = self.inner.active.lock();
            if let Some(old) = active.take() {
                let _ = self.inner.conn.send(&Request::CloseStmt { stmt: old });
            }
        }
        let id = self.inner.next_stmt.fetch_add(1, Ordering::Relaxed);
        // Round trip measured from the request leaving the client to the
        // initial response pump completing (metadata + first buffer).
        let t_round = Instant::now();
        // Request about to leave the client: a crash here means the server
        // never saw it (safe to re-execute after recovery).
        faultkit::crashpoint!("odbc.send");
        self.inner
            .conn
            .send(&Request::Exec {
                stmt: id,
                sql: sql.to_string(),
                skip,
            })
            .map_err(|e| self.inner.fail(e))?;
        *self.inner.active.lock() = Some(id);

        let mut stmt = OdbcStatement {
            inner: Arc::clone(&self.inner),
            id,
            columns: Vec::new(),
            buf: VecDeque::new(),
            buf_bytes: 0,
            done: None,
            fetched: 0,
        };
        // Default result set: pump until done or driver buffer full.
        let wd = Watchdog::start(&stmt.inner.cfg);
        let pumped = stmt.pump(true, &wd);
        // A response came back, rows or a server error (which sets
        // `done`): the round trip counts. A failed or timed-out link
        // answered nothing.
        if pumped.is_ok() || stmt.done.is_some() {
            obskit::metrics::global().record("odbcsim.roundtrip.exec", t_round.elapsed());
            obskit::trace::emit_span("odbcsim.roundtrip.exec", t_round.elapsed(), String::new());
        }
        pumped?;
        Ok(stmt)
    }

    /// Liveness probe on this connection.
    pub fn ping(&self) -> Result<()> {
        self.inner.check()?;
        let t_round = Instant::now();
        self.inner
            .conn
            .send(&Request::Ping)
            .map_err(|e| self.inner.fail(e))?;
        let wd = Watchdog::start(&self.inner.cfg);
        loop {
            let timeout = wd
                .recv_timeout(self.inner.cfg.query_timeout)
                .map_err(|e| self.inner.fail(e))?;
            match self.inner.conn.recv(timeout) {
                Ok(Response::Pong) => {
                    obskit::metrics::global().record("odbcsim.roundtrip.ping", t_round.elapsed());
                    return Ok(());
                }
                // Stale statement traffic may precede the pong.
                Ok(_) => continue,
                Err(e) => return Err(self.inner.fail(e)),
            }
        }
    }

    /// Orderly disconnect.
    pub fn disconnect(self) {
        let _ = self.inner.conn.send(&Request::Disconnect);
        self.inner.conn.close();
    }
}

/// How a statement finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    /// Produces rows; count known once fully streamed.
    ResultSet,
    /// DML with affected-row count.
    RowCount(u64),
    /// DDL / control.
    Ok,
}

/// An executed statement (SQLSTMT handle analogue).
pub struct OdbcStatement {
    inner: Arc<ConnInner>,
    id: StmtId,
    columns: Vec<(String, DataType)>,
    /// Rows received but not yet fetched, each beside its encoded size.
    buf: VecDeque<(Row, usize)>,
    buf_bytes: usize,
    done: Option<DoneKind>,
    fetched: u64,
}

impl std::fmt::Debug for OdbcStatement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OdbcStatement")
            .field("id", &self.id)
            .field("buffered", &self.buf.len())
            .field("done", &self.done)
            .finish()
    }
}

impl OdbcStatement {
    /// Result metadata (empty for row-count-only statements).
    pub fn columns(&self) -> &[(String, DataType)] {
        &self.columns
    }

    /// Classify how the statement finished (result set / row count / ok).
    pub fn kind(&self) -> StatementKind {
        match &self.done {
            Some(DoneKind::Affected(n)) => StatementKind::RowCount(*n),
            Some(DoneKind::Ok) => StatementKind::Ok,
            _ => StatementKind::ResultSet,
        }
    }

    /// Affected-row count for DML (`SQLRowCount`).
    pub fn row_count(&self) -> Option<u64> {
        match &self.done {
            Some(DoneKind::Affected(n)) | Some(DoneKind::Rows(n)) => Some(*n),
            _ => None,
        }
    }

    /// Whether the full result has arrived at the client.
    pub fn fully_received(&self) -> bool {
        self.done.is_some()
    }

    /// Rows fetched by the application so far.
    pub fn position(&self) -> u64 {
        self.fetched
    }

    /// `SQLFetch`: next row, or `None` at end of the result set. A
    /// statement that a later `exec_direct` on its connection superseded
    /// before its result fully arrived has been cancelled: its fetch fails
    /// at once with a (not connection-fatal) sequence error.
    pub fn fetch(&mut self) -> Result<Option<Row>> {
        if self.done.is_none() && *self.inner.active.lock() != Some(self.id) {
            return Err(Error::Semantic(format!(
                "function sequence error: statement {} was superseded on its connection",
                self.id
            )));
        }
        let wd = Watchdog::start(&self.inner.cfg);
        loop {
            if let Some((row, bytes)) = self.buf.pop_front() {
                self.buf_bytes -= bytes;
                self.fetched += 1;
                return Ok(Some(row));
            }
            if self.done.is_some() {
                return Ok(None);
            }
            self.pump(false, &wd)?;
        }
    }

    /// Block-cursor read of up to `n` rows (one driver call, many rows).
    pub fn fetch_block(&mut self, n: usize) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.fetch()? {
                Some(r) => out.push(r),
                None => break,
            }
        }
        Ok(out)
    }

    /// Close the statement, cancelling any suspended server-side stream.
    pub fn close(self) -> Result<()> {
        if self.done.is_none() {
            let mut active = self.inner.active.lock();
            if *active == Some(self.id) {
                *active = None;
            }
            self.inner
                .conn
                .send(&Request::CloseStmt { stmt: self.id })?;
        }
        Ok(())
    }

    /// Read responses. With `until_full`, returns once done OR the driver
    /// buffer is full; otherwise returns after any progress (rows/done).
    /// Every receive wait is clipped to the caller's request watchdog.
    fn pump(&mut self, until_full: bool, wd: &Watchdog) -> Result<()> {
        loop {
            if self.done.is_some() {
                return Ok(());
            }
            if until_full && self.buf_bytes >= self.inner.cfg.buffer_bytes {
                return Ok(());
            }
            // About to wait for a response: a crash here lands mid-delivery
            // (some rows buffered, the rest lost with the server).
            faultkit::crashpoint!("odbc.recv");
            let timeout = wd
                .recv_timeout(self.inner.cfg.query_timeout)
                .map_err(|e| self.inner.fail(e))?;
            let resp = self
                .inner
                .conn
                .recv(timeout)
                .map_err(|e| self.inner.fail(e))?;
            match resp {
                Response::Meta { stmt, columns } if stmt == self.id => {
                    self.columns = columns;
                }
                Response::RowBatch { stmt, rows } if stmt == self.id => {
                    let mut enc = Vec::new();
                    for r in rows {
                        enc.clear();
                        encode_row(&r, &mut enc);
                        self.buf_bytes += enc.len();
                        self.buf.push_back((r, enc.len()));
                    }
                    if !until_full {
                        return Ok(());
                    }
                }
                Response::Done { stmt, kind } if stmt == self.id => {
                    self.done = Some(kind);
                    let mut active = self.inner.active.lock();
                    if *active == Some(self.id) {
                        *active = None;
                    }
                    return Ok(());
                }
                Response::Error { stmt, error } if stmt == self.id => {
                    self.done = Some(DoneKind::Ok);
                    return Err(self.inner.fail(error));
                }
                // Traffic for cancelled/older statements: drop.
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::ServerConfig;

    fn server() -> DbServer {
        DbServer::start(ServerConfig::instant_net()).unwrap()
    }

    fn quick_cfg() -> DriverConfig {
        DriverConfig {
            query_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        }
    }

    #[test]
    fn connect_and_query() {
        let s = server();
        let c = OdbcConnection::connect(&s, quick_cfg()).unwrap();
        c.exec_direct("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10))")
            .unwrap();
        let st = c
            .exec_direct("INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z')")
            .unwrap();
        assert_eq!(st.kind(), StatementKind::RowCount(3));

        let mut st = c.exec_direct("SELECT a, b FROM t ORDER BY a DESC").unwrap();
        assert_eq!(st.columns().len(), 2);
        let mut got = Vec::new();
        while let Some(r) = st.fetch().unwrap() {
            got.push(r[0].clone());
        }
        assert_eq!(
            got,
            vec![
                sqlengine::Value::Int(3),
                sqlengine::Value::Int(2),
                sqlengine::Value::Int(1)
            ]
        );
        assert_eq!(st.position(), 3);
    }

    #[test]
    fn metadata_probe_where_0_eq_1() {
        let s = server();
        let c = OdbcConnection::connect(&s, quick_cfg()).unwrap();
        c.exec_direct("CREATE TABLE t (a INT, b VARCHAR(10), d DATE)")
            .unwrap();
        let mut st = c.exec_direct("SELECT a, b, d FROM t WHERE 0=1").unwrap();
        assert_eq!(
            st.columns(),
            &[
                ("a".to_string(), DataType::Int),
                ("b".to_string(), DataType::Str),
                ("d".to_string(), DataType::Date),
            ]
        );
        assert_eq!(st.fetch().unwrap(), None);
    }

    #[test]
    fn block_fetch() {
        let s = server();
        let c = OdbcConnection::connect(&s, quick_cfg()).unwrap();
        c.exec_direct("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        let mut vals = String::from("INSERT INTO t VALUES ");
        for i in 0..50 {
            if i > 0 {
                vals.push(',');
            }
            vals.push_str(&format!("({i})"));
        }
        c.exec_direct(&vals).unwrap();
        let mut st = c.exec_direct("SELECT a FROM t").unwrap();
        let block = st.fetch_block(20).unwrap();
        assert_eq!(block.len(), 20);
        let rest = st.fetch_block(1000).unwrap();
        assert_eq!(rest.len(), 30);
        assert!(st.fully_received());
    }

    #[test]
    fn exec_returns_before_large_result_consumed() {
        // Small network + driver buffers: exec_direct must return with the
        // scan suspended server-side.
        let mut scfg = ServerConfig::instant_net();
        scfg.net_s2c.buffer_bytes = 4 * 1024;
        let s = DbServer::start(scfg).unwrap();
        let cfg = DriverConfig {
            buffer_bytes: 4 * 1024,
            query_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let c = OdbcConnection::connect(&s, cfg).unwrap();
        c.exec_direct("CREATE TABLE big (a INT PRIMARY KEY, pad VARCHAR(120))")
            .unwrap();
        for b in 0..20 {
            let mut vals = String::from("INSERT INTO big VALUES ");
            for i in 0..100 {
                let k = b * 100 + i;
                if i > 0 {
                    vals.push(',');
                }
                vals.push_str(&format!(
                    "({k}, 'pppppppppppppppppppppppppppppppppppppppp')"
                ));
            }
            c.exec_direct(&vals).unwrap();
        }
        let mut st = c.exec_direct("SELECT * FROM big").unwrap();
        assert!(
            !st.fully_received(),
            "2000 wide rows cannot fit in 8 KiB of buffering"
        );
        // Consuming everything eventually drains the stream.
        let all = st.fetch_block(10_000).unwrap();
        assert_eq!(all.len(), 2000);
        assert!(st.fully_received());
    }

    #[test]
    fn errors_are_statement_scoped() {
        let s = server();
        let c = OdbcConnection::connect(&s, quick_cfg()).unwrap();
        let e = c.exec_direct("SELECT * FROM missing").unwrap_err();
        assert!(matches!(e, Error::NotFound(_)));
        // Connection still usable.
        c.exec_direct("CREATE TABLE t (a INT)").unwrap();
        c.exec_direct("INSERT INTO t VALUES (1)").unwrap();
    }

    #[test]
    fn crash_surfaces_fatal_error_and_ping_detects() {
        let s = server();
        let c = OdbcConnection::connect(&s, quick_cfg()).unwrap();
        c.exec_direct("CREATE TABLE t (a INT)").unwrap();
        s.crash();
        let e = c.exec_direct("SELECT * FROM t").unwrap_err();
        assert!(e.is_connection_fatal());
        assert!(c.is_dead());
        assert!(c.ping().is_err());
        // New connection fails while down, works after restart.
        assert!(OdbcConnection::connect(&s, quick_cfg()).is_err());
        s.restart().unwrap();
        let c2 = OdbcConnection::connect(&s, quick_cfg()).unwrap();
        c2.exec_direct("SELECT * FROM t").unwrap();
    }

    #[test]
    fn watchdog_converts_stalled_receive_into_timeout() {
        use faultkit::net::{NetFaultKind, NetPlan, STALL};
        let s = server();
        // Stall the link at the 2nd message of every pipe: the Exec
        // request (client→server message #2, after Connect) is withheld
        // with no error raised — the pathological hung read.
        s.set_fault_plan(Some(NetPlan::at(NetFaultKind::Stall, 2)));
        let cfg = DriverConfig {
            // No per-receive timeout: only the watchdog can detect this.
            query_timeout: None,
            request_deadline: Some(Duration::from_millis(100)),
            ..Default::default()
        };
        let c = OdbcConnection::connect(&s, cfg).unwrap();
        let t = Instant::now();
        let e = c.exec_direct("CREATE TABLE w (a INT)").unwrap_err();
        assert!(matches!(e, Error::Timeout), "got {e:?}");
        assert!(
            t.elapsed() < STALL,
            "watchdog must fire before the stall drains, took {:?}",
            t.elapsed()
        );
        assert!(c.is_dead(), "a timed-out request marks the link suspect");
    }

    #[test]
    fn server_side_skip() {
        let s = server();
        let c = OdbcConnection::connect(&s, quick_cfg()).unwrap();
        c.exec_direct("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        let mut vals = String::from("INSERT INTO t VALUES ");
        for i in 0..100 {
            if i > 0 {
                vals.push(',');
            }
            vals.push_str(&format!("({i})"));
        }
        c.exec_direct(&vals).unwrap();
        let mut st = c.exec_direct_skip("SELECT a FROM t", 97).unwrap();
        let rest = st.fetch_block(100).unwrap();
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn new_statement_supersedes_suspended_one() {
        let mut scfg = ServerConfig::instant_net();
        scfg.net_s2c.buffer_bytes = 1024;
        let s = DbServer::start(scfg).unwrap();
        let cfg = DriverConfig {
            buffer_bytes: 1024,
            query_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let c = OdbcConnection::connect(&s, cfg).unwrap();
        c.exec_direct("CREATE TABLE t (a INT PRIMARY KEY, pad VARCHAR(100))")
            .unwrap();
        let mut vals = String::from("INSERT INTO t VALUES ");
        for i in 0..500 {
            if i > 0 {
                vals.push(',');
            }
            vals.push_str(&format!("({i}, 'pppppppppppppppppppppppppppppp')"));
        }
        c.exec_direct(&vals).unwrap();
        let st = c.exec_direct("SELECT * FROM t").unwrap();
        assert!(!st.fully_received());
        drop(st); // application walks away without closing
                  // Next statement works; old stream is cancelled server-side.
        let mut st2 = c.exec_direct("SELECT TOP 1 a FROM t WHERE a = 42").unwrap();
        let rows = st2.fetch_block(10).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn superseded_statement_fails_at_once_and_connection_stays_usable() {
        let mut scfg = ServerConfig::instant_net();
        scfg.net_s2c.buffer_bytes = 1024;
        let s = DbServer::start(scfg).unwrap();
        let cfg = DriverConfig {
            buffer_bytes: 1024,
            query_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let c = OdbcConnection::connect(&s, cfg).unwrap();
        c.exec_direct("CREATE TABLE t (a INT PRIMARY KEY, pad VARCHAR(100))")
            .unwrap();
        let vals: Vec<String> = (0..150)
            .map(|i| format!("({i}, 'pppppppppppppppppppppppppppppp')"))
            .collect();
        c.exec_direct(&format!("INSERT INTO t VALUES {}", vals.join(",")))
            .unwrap();
        let mut old = c.exec_direct("SELECT * FROM t").unwrap();
        assert!(!old.fully_received(), "150 wide rows exceed 2 KiB");
        let mut new = c.exec_direct("SELECT a FROM t WHERE a = 42").unwrap();

        let t = Instant::now();
        let e = old.fetch().unwrap_err();
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "a retired statement must not wait out the query timeout, took {:?}",
            t.elapsed()
        );
        assert!(matches!(e, Error::Semantic(_)), "got {e:?}");
        assert!(
            !c.is_dead(),
            "a sequence error leaves the connection usable"
        );
        assert_eq!(new.fetch_block(10).unwrap().len(), 1);
        assert!(old.fetch().is_err(), "the retired statement stays retired");
        c.exec_direct("INSERT INTO t VALUES (150, 'x')").unwrap();
    }
}
