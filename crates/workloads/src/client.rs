//! A uniform SQL-client abstraction so the same workload driver code runs
//! over native ODBC ([`odbcsim::OdbcConnection`]) and over Phoenix
//! ([`phoenix::PhoenixConnection`]) — the paper's application binary had
//! exactly this switch ("an option to select either Phoenix/ODBC or native
//! ODBC for data access").

use sqlengine::types::Row;
use sqlengine::Result;

/// Result of executing one statement, with all rows materialized.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// A materialized result set.
    Rows(Vec<Row>),
    /// DML affected-row count.
    Affected(u64),
    /// DDL / control success.
    Ok,
}

impl ExecResult {
    /// The rows, or empty for non-result statements.
    pub fn rows(self) -> Vec<Row> {
        match self {
            ExecResult::Rows(r) => r,
            _ => Vec::new(),
        }
    }

    /// Affected-row count (result sets report their length).
    pub fn affected(&self) -> u64 {
        match self {
            ExecResult::Affected(n) => *n,
            ExecResult::Rows(r) => r.len() as u64,
            ExecResult::Ok => 0,
        }
    }
}

/// Anything that can execute SQL and deliver results.
pub trait SqlClient {
    /// Execute one SQL request, materializing any result rows.
    fn execute(&self, sql: &str) -> Result<ExecResult>;

    /// Convenience for queries.
    fn query(&self, sql: &str) -> Result<Vec<Row>> {
        Ok(self.execute(sql)?.rows())
    }
}

impl SqlClient for odbcsim::OdbcConnection {
    fn execute(&self, sql: &str) -> Result<ExecResult> {
        let mut st = self.exec_direct(sql)?;
        match st.kind() {
            odbcsim::StatementKind::RowCount(n) => Ok(ExecResult::Affected(n)),
            odbcsim::StatementKind::Ok => Ok(ExecResult::Ok),
            odbcsim::StatementKind::ResultSet => {
                let mut rows = Vec::new();
                while let Some(r) = st.fetch()? {
                    rows.push(r);
                }
                Ok(ExecResult::Rows(rows))
            }
        }
    }
}

impl SqlClient for phoenix::PhoenixConnection {
    fn execute(&self, sql: &str) -> Result<ExecResult> {
        match self.exec(sql)? {
            phoenix::ExecKind::ResultSet { .. } => Ok(ExecResult::Rows(self.fetch_all()?)),
            phoenix::ExecKind::RowCount(n) => Ok(ExecResult::Affected(n)),
            phoenix::ExecKind::Ok => Ok(ExecResult::Ok),
        }
    }
}

/// Direct in-process engine client (used for bulk loading and validation,
/// bypassing the simulated network).
pub struct EngineClient {
    engine: std::sync::Arc<sqlengine::Engine>,
    session: sqlengine::session::SessionId,
}

impl EngineClient {
    /// Open a session on the engine.
    pub fn new(engine: std::sync::Arc<sqlengine::Engine>) -> Result<EngineClient> {
        let session = engine.create_session()?;
        Ok(EngineClient { engine, session })
    }
}

impl Drop for EngineClient {
    fn drop(&mut self) {
        self.engine.close_session(self.session);
    }
}

impl SqlClient for EngineClient {
    fn execute(&self, sql: &str) -> Result<ExecResult> {
        match self.engine.execute(self.session, sql)? {
            sqlengine::ExecOutcome::Rows(cursor) => {
                let rows: Result<Vec<Row>> = cursor.collect();
                Ok(ExecResult::Rows(rows?))
            }
            sqlengine::ExecOutcome::Affected(n) => Ok(ExecResult::Affected(n)),
            _ => Ok(ExecResult::Ok),
        }
    }
}
