//! Clients at the layer boundaries the benchmark calls into, and the
//! output comparison every workload uses.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use sqlengine::types::{Row, Value};
use sqlengine::{Error, Result};
use wire::{ClientConn, DbServer, DoneKind, Request, Response};
use workloads::{ExecResult, SqlClient};

/// How long a raw wire client waits for any one response.
const WIRE_RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// A session over the raw `wire` protocol: the boundary below odbcsim.
/// It sends one `Exec` and collects every response frame until `Done`.
pub struct WireClient {
    conn: ClientConn,
    next_stmt: Cell<u32>,
}

impl WireClient {
    pub fn connect(server: &DbServer) -> Result<WireClient> {
        let conn = server.connect()?;
        conn.send(&Request::Connect {
            login: "sessionbench".into(),
        })?;
        match conn.recv(Some(WIRE_RECV_TIMEOUT))? {
            Response::Connected { .. } => Ok(WireClient {
                conn,
                next_stmt: Cell::new(1),
            }),
            Response::Error { error, .. } => Err(error),
            other => Err(Error::Internal(format!(
                "unexpected handshake reply {other:?}"
            ))),
        }
    }
}

impl SqlClient for WireClient {
    fn execute(&self, sql: &str) -> Result<ExecResult> {
        let stmt = self.next_stmt.get();
        self.next_stmt.set(stmt + 1);
        self.conn.send(&Request::Exec {
            stmt,
            sql: sql.to_string(),
            skip: 0,
        })?;
        let mut rows = Vec::new();
        loop {
            match self.conn.recv(Some(WIRE_RECV_TIMEOUT))? {
                Response::RowBatch { stmt: s, rows: r } if s == stmt => rows.extend(r),
                Response::Done { stmt: s, kind } if s == stmt => {
                    return Ok(match kind {
                        DoneKind::Rows(_) => ExecResult::Rows(rows),
                        DoneKind::Affected(n) => ExecResult::Affected(n),
                        DoneKind::Ok => ExecResult::Ok,
                    })
                }
                Response::Error { stmt: s, error } if s == stmt => return Err(error),
                _ => {}
            }
        }
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        // Best effort: the server also notices the closed link.
        let _ = self.conn.send(&Request::Disconnect);
        self.conn.close();
    }
}

/// One statement as a client saw it: latency and outcome.
#[derive(Debug, Clone)]
pub struct Timing {
    pub latency: Duration,
    pub ok: bool,
    pub affected: u64,
}

/// Wraps a client and times every statement through it, so library code
/// that issues several statements (the TPC-H refresh functions) still
/// yields one sample per statement.
pub struct Timed<'a, C> {
    inner: &'a C,
    pub log: RefCell<Vec<Timing>>,
}

impl<'a, C: SqlClient> Timed<'a, C> {
    pub fn new(inner: &'a C) -> Timed<'a, C> {
        Timed {
            inner,
            log: RefCell::new(Vec::new()),
        }
    }

    pub fn take(&self) -> Vec<Timing> {
        std::mem::take(&mut *self.log.borrow_mut())
    }
}

impl<C: SqlClient> SqlClient for Timed<'_, C> {
    fn execute(&self, sql: &str) -> Result<ExecResult> {
        let t = Instant::now();
        let r = self.inner.execute(sql);
        self.log.borrow_mut().push(Timing {
            latency: t.elapsed(),
            ok: r.is_ok(),
            affected: r.as_ref().map_or(0, ExecResult::affected),
        });
        r
    }
}

/// Relative tolerance for floating-point values: aggregates summed in a
/// different row order differ in the last bits, never by more.
const FLOAT_TOLERANCE: f64 = 1e-9;

fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(_), _) | (_, Value::Float(_)) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs()).max(1.0),
            _ => false,
        },
        _ => a == b,
    }
}

fn rows_equal(a: &Row, b: &Row) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| values_match(x, y))
}

/// Whether `actual` is `reference`, row for row, in order.
pub fn same_sequence(reference: &[Row], actual: &[Row]) -> bool {
    reference.len() == actual.len() && reference.iter().zip(actual).all(|(r, a)| rows_equal(r, a))
}

/// Whether `actual` holds the same rows as `reference`. Rows are
/// compared in order first; rows that tie under the query's ORDER BY may
/// legitimately come back in another order, so a positional mismatch
/// falls back to matching the two as multisets.
pub fn rows_match(reference: &[Row], actual: &[Row]) -> bool {
    if reference.len() != actual.len() {
        return false;
    }
    if same_sequence(reference, actual) {
        return true;
    }
    let mut unused: Vec<&Row> = reference.iter().collect();
    actual
        .iter()
        .all(|a| match unused.iter().position(|r| rows_equal(r, a)) {
            Some(i) => {
                unused.swap_remove(i);
                true
            }
            None => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_tolerates_reordering_and_float_noise() {
        let r = vec![
            vec![Value::Int(1), Value::Float(0.1 + 0.2)],
            vec![Value::Int(2), Value::Str("x".into())],
        ];
        let a = vec![
            vec![Value::Int(2), Value::Str("x".into())],
            vec![Value::Int(1), Value::Float(0.3)],
        ];
        assert!(rows_match(&r, &a));
        let wrong = vec![
            vec![Value::Int(2), Value::Str("x".into())],
            vec![Value::Int(1), Value::Float(0.31)],
        ];
        assert!(!rows_match(&r, &wrong));
        assert!(!rows_match(&r, &a[..1]));
    }
}
