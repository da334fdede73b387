//! # phoenix
//!
//! A from-scratch reproduction of **Phoenix/ODBC** — *Measuring and
//! Optimizing a System for Persistent Database Sessions* (Barga & Lomet,
//! ICDE 2001) — over a simulated SQL server substrate.
//!
//! Phoenix/ODBC provides **persistent database sessions** that survive
//! database server crashes without the application being aware of the
//! outage (beyond a pause). It wraps the native driver (here,
//! [`odbcsim`]) and:
//!
//! * intercepts every request with a one-pass parse ([`intercept`]);
//! * makes SELECT results **crash-durable** by materializing them into
//!   persistent server tables, one round trip per result: a single batch
//!   drops the retired result tables, runs a server-local `SELECT ...
//!   INTO` a fresh table and reopens it ([`persist`]);
//! * wraps modification statements in a transaction with a **status
//!   table** write, giving exactly-once semantics across crashes;
//! * maps the application onto a **virtual session** backed by an
//!   application connection plus a private Phoenix connection
//!   ([`session`]);
//! * detects failures via driver errors and timeouts, then automatically
//!   reconnects, re-binds the virtual session, reopens the persistent
//!   result and **repositions** to the last delivered tuple — either by
//!   re-fetching from the client or with a server-side advance
//!   ([`config::RepositionMode`]);
//! * optionally serves OLTP-style small results from a **client-side
//!   result cache**, eliminating server-side persistence entirely
//!   (Section 4's optimization; [`config::CacheMode`]).
//!
//! ## Quick start
//!
//! ```
//! use phoenix::{PhoenixConfig, PhoenixConnection};
//! use wire::{DbServer, ServerConfig};
//!
//! let server = DbServer::start(ServerConfig::instant_net()).unwrap();
//! let px = PhoenixConnection::connect(&server, PhoenixConfig::default()).unwrap();
//! px.exec("CREATE TABLE accounts (id INT PRIMARY KEY, balance FLOAT)").unwrap();
//! px.exec("INSERT INTO accounts VALUES (1, 100.0), (2, 250.0)").unwrap();
//!
//! px.exec("SELECT id, balance FROM accounts ORDER BY id").unwrap();
//! let first = px.fetch().unwrap();
//! assert!(first.is_some());
//!
//! // The server can crash here and, once it restarts, the next fetch
//! // still returns the remaining rows — the application never notices.
//! server.crash();
//! server.restart().unwrap();
//! let second = px.fetch().unwrap();
//! assert!(second.is_some());
//! ```

// Tests exercise happy paths; the unwrap/expect hygiene baseline is
// aimed at library code (enforced harder by `cargo xtask lint`).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod intercept;
pub mod persist;
pub mod session;

pub use config::{CacheMode, PhoenixConfig, ReconnectPolicy, RepositionMode};
pub use intercept::{classify, RequestClass};
pub use persist::{PersistTiming, PersistedResult};
pub use session::{
    ExecKind, PhoenixConnection, PhoenixStats, RecoveryPhases, RecoveryTiming, STATUS_TABLE,
};
