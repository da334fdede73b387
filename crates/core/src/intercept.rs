//! Request interception: the "one-pass parse to determine request type"
//! Phoenix performs on every application request before passing it to the
//! native driver.

use sqlengine::sql::ast::Stmt;
use sqlengine::sql::parser::parse_statements;
use sqlengine::{Error, Result};

/// What Phoenix decided about an application request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// A SELECT: generates a result set that must be made recoverable.
    /// (`SELECT … INTO` creates a table instead: it passes through.)
    ResultGenerating,
    /// INSERT/UPDATE/DELETE. Outside an application transaction it is
    /// sent as one request: a transaction around the statement and a
    /// status-table write of its `@@ROWCOUNT`, then a read of that row,
    /// so completion is testable after a crash. Inside one it passes
    /// through: a crash aborts the transaction instead.
    Modification,
    /// BEGIN TRAN.
    TxnBegin,
    /// COMMIT.
    TxnCommit,
    /// ROLLBACK.
    TxnRollback,
    /// Everything else (DDL, EXEC, SHUTDOWN, ...): passed through.
    Passthrough,
}

/// Classify a single-statement request. Multi-statement batches classify
/// as `Passthrough` unless every statement is a modification.
pub fn classify(sql: &str) -> Result<RequestClass> {
    let stmts = parse_statements(sql)?;
    match stmts.as_slice() {
        [] => Err(Error::Syntax("empty request".into())),
        [one] => Ok(classify_stmt(one)),
        many => {
            if many.iter().all(|s| {
                matches!(
                    s,
                    Stmt::Insert { .. } | Stmt::Update { .. } | Stmt::Delete { .. }
                )
            }) {
                Ok(RequestClass::Modification)
            } else {
                Ok(RequestClass::Passthrough)
            }
        }
    }
}

fn classify_stmt(s: &Stmt) -> RequestClass {
    match s {
        Stmt::Select(_) => RequestClass::ResultGenerating,
        Stmt::Insert { .. } | Stmt::Update { .. } | Stmt::Delete { .. } => {
            RequestClass::Modification
        }
        Stmt::Begin => RequestClass::TxnBegin,
        Stmt::Commit => RequestClass::TxnCommit,
        Stmt::Rollback => RequestClass::TxnRollback,
        _ => RequestClass::Passthrough,
    }
}

/// Reopen statement for seamless delivery from the persistent table.
pub fn reopen_sql(table: &str) -> String {
    format!("SELECT * FROM {table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(
            classify("SELECT * FROM t").unwrap(),
            RequestClass::ResultGenerating
        );
        assert_eq!(
            classify("INSERT INTO t VALUES (1)").unwrap(),
            RequestClass::Modification
        );
        assert_eq!(
            classify("UPDATE t SET a = 1").unwrap(),
            RequestClass::Modification
        );
        assert_eq!(
            classify("DELETE FROM t WHERE a = 1").unwrap(),
            RequestClass::Modification
        );
        assert_eq!(classify("BEGIN TRAN").unwrap(), RequestClass::TxnBegin);
        assert_eq!(classify("COMMIT").unwrap(), RequestClass::TxnCommit);
        assert_eq!(classify("ROLLBACK").unwrap(), RequestClass::TxnRollback);
        assert_eq!(
            classify("CREATE TABLE t (a INT)").unwrap(),
            RequestClass::Passthrough
        );
        // An application's own SELECT … INTO makes a table, not a result.
        assert_eq!(
            classify("SELECT a, b INTO copy_t FROM t WHERE a > 1").unwrap(),
            RequestClass::Passthrough
        );
        assert_eq!(
            classify("SELECT * INTO #work FROM t").unwrap(),
            RequestClass::Passthrough
        );
        assert_eq!(
            classify("SHUTDOWN WITH NOWAIT").unwrap(),
            RequestClass::Passthrough
        );
        assert!(classify("NOT SQL AT ALL !!!").is_err());
    }

    #[test]
    fn multi_statement_batches() {
        assert_eq!(
            classify("INSERT INTO a VALUES (1); DELETE FROM b WHERE x=2").unwrap(),
            RequestClass::Modification
        );
        assert_eq!(
            classify("SELECT 1; SELECT 2").unwrap(),
            RequestClass::Passthrough
        );
    }
}
