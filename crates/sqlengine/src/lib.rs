//! # sqlengine
//!
//! An embedded SQL database engine built as the *substrate* for the
//! Phoenix/ODBC reproduction (Barga & Lomet, ICDE 2001). It stands in for
//! the paper's SQL Server 7.0: slotted-page heap storage, a buffer pool
//! with the WAL rule, ARIES-style restart recovery, strict two-phase
//! table locking with wait-die, temp tables with session lifetime, stored
//! procedures, and a SQL dialect rich enough to run TPC-H and TPC-C
//! shaped workloads plus every statement Phoenix issues
//! (`WHERE 0=1` metadata probes, `CREATE TABLE`, `INSERT ... SELECT`
//! materialization, `SELECT * FROM t` reopen, status-table writes).
//!
//! The engine's headline capability for the paper is *crashability*: the
//! [`server`] half exposes `SHUTDOWN WITH NOWAIT`, which drops all volatile
//! state (sessions, temp tables, buffer pool, active transactions) while
//! keeping durable state (disk pages + flushed WAL), and restart runs
//! analysis/redo/undo recovery.

// Tests exercise happy paths; the unwrap/expect hygiene baseline is
// aimed at library code (enforced harder by `cargo xtask lint`).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod engine;
pub mod error;
pub mod exec;
pub mod schema;
pub mod session;
pub mod sql;
pub mod storage;
pub mod txn;
pub mod types;
pub mod wal;

pub use engine::{Cursor, Durable, Engine, ExecOutcome, StatementResult};
pub use error::{Error, Result};
pub use exec::TableEffect;
pub use schema::{Column, TableSchema};
pub use types::{DataType, Row, Value};
