//! Server-side session state.
//!
//! A session owns its temp tables (volatile: they vanish when the session
//! closes or the server crashes) and at most one explicit transaction.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::exec::TempTables;
use crate::txn::TxnHandle;

/// Identifies a session within one engine incarnation. Session ids are
/// NOT stable across crashes: a restarted engine issues fresh ids and all
/// old ids dangle (`Error::NoSuchSession`), exactly like a real server.
pub type SessionId = u64;

/// State the engine tracks per session.
pub struct SessionState {
    /// Session-local temp tables.
    pub temps: Arc<Mutex<TempTables>>,
    /// Explicit transaction opened with `BEGIN TRAN`, if any.
    pub txn: Option<Arc<TxnHandle>>,
}

impl SessionState {
    /// Fresh session state.
    pub fn new() -> Self {
        SessionState {
            temps: Arc::new(Mutex::new(TempTables::default())),
            txn: None,
        }
    }
}

impl Default for SessionState {
    fn default() -> Self {
        Self::new()
    }
}
