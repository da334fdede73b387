//! Result-set persistence (Section 2.1) in one round trip: a single batch
//! on the application connection drops the retired result tables,
//! materializes the SELECT into a fresh persistent table with
//! `SELECT … INTO` (the server takes the column types from the plan, so
//! no metadata probe is needed) and reopens it for delivery.

use std::time::{Duration, Instant};

use odbcsim::{OdbcConnection, OdbcStatement};
use sqlengine::sql::parser::select_into_sql;
use sqlengine::types::DataType;
use sqlengine::{Error, Result};

use crate::intercept::reopen_sql;

/// Elapsed times for one persisted result set (the Figure 6 breakdown
/// this side of the wire can measure).
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistTiming {
    /// Request interception + one-pass parse (filled by the caller).
    pub parse: Duration,
    /// The persist batch's round trip: query execution, writing the
    /// result into its table, and the reopen.
    pub load: Duration,
}

impl PersistTiming {
    /// Sum of all steps.
    pub fn total(&self) -> Duration {
        self.parse + self.load
    }
}

/// Outcome of persisting one result set.
pub struct PersistedResult {
    /// Name of the persistent result table on the server.
    pub table: String,
    /// Columns of the persistent table, as the reopen reports them.
    pub columns: Vec<(String, DataType)>,
    /// The reopened `SELECT * FROM <table>` statement, past `skip` rows.
    pub stmt: OdbcStatement,
    /// Per-step elapsed times.
    pub timing: PersistTiming,
}

/// The persist batch: `DROP TABLE IF EXISTS` for each retired result
/// table, `SELECT … INTO <table>` for the request, and the reopen.
fn persist_batch_sql(retiring: &[String], table: &str, select_sql: &str) -> Result<String> {
    let mut batch: String = retiring
        .iter()
        .map(|t| format!("DROP TABLE IF EXISTS {t};\n"))
        .collect();
    batch.push_str(&select_into_sql(select_sql, table)?);
    batch.push_str(";\n");
    batch.push_str(&reopen_sql(table));
    Ok(batch)
}

/// Persist `select_sql` into `table` with one request on the application
/// connection, dropping the `retiring` result tables on the way. Once the
/// server acknowledges the batch the result is crash-durable, the retired
/// tables are gone, and the returned statement streams the result from
/// row `skip` on (the server skips the rows before it).
pub fn persist_result(
    app: &OdbcConnection,
    retiring: &[String],
    table: &str,
    select_sql: &str,
    skip: u64,
    parse_time: Duration,
) -> Result<PersistedResult> {
    let batch = persist_batch_sql(retiring, table, select_sql)?;
    // The batch is about to leave: a crash here means the server never
    // saw it. The load and its table's creation crash-test server side,
    // inside `SELECT … INTO` (`persist.create`, `persist.materialize`).
    faultkit::crashpoint!("persist.batch");
    let t = Instant::now();
    let stmt = app.exec_direct_skip(&batch, skip)?;
    let load = t.elapsed();
    obskit::metrics::global().record("phoenix.persist.materialize", load);
    obskit::trace::emit_span("phoenix.persist.materialize", load, String::new());
    if stmt.columns().is_empty() {
        return Err(Error::Semantic(
            "statement does not produce a result set".into(),
        ));
    }
    Ok(PersistedResult {
        table: table.to_string(),
        columns: stmt.columns().to_vec(),
        stmt,
        timing: PersistTiming {
            parse: parse_time,
            load,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_retires_then_loads_then_reopens() {
        let q = "SELECT a, SUM(b) AS s FROM t GROUP BY a ORDER BY s DESC;";
        let sql = persist_batch_sql(&["phx_res_1_1".into()], "phx_res_1_2", q).unwrap();
        assert_eq!(
            sql,
            "DROP TABLE IF EXISTS phx_res_1_1;\n\
             SELECT a, SUM(b) AS s\nINTO phx_res_1_2\nFROM t GROUP BY a ORDER BY s DESC;\n\
             SELECT * FROM phx_res_1_2"
        );
        assert_eq!(
            sqlengine::sql::parser::parse_statements(&sql)
                .unwrap()
                .len(),
            3
        );
        assert!(persist_batch_sql(&[], "phx_res_1_3", "SELECT 1; SELECT 2").is_err());
    }
}
