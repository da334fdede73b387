//! Error type shared across the engine.

use std::fmt;
use std::time::Duration;

/// Engine-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the SQL engine.
///
/// The variants are deliberately coarse: they correspond to the error
/// classes a client (and, above it, Phoenix) must distinguish — syntax
/// problems, semantic problems, transaction aborts (deadlock victims),
/// and server-side faults such as a shutdown in progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// SQL text failed to lex or parse.
    Syntax(String),
    /// Statement referenced a missing table/column, mismatched types, etc.
    Semantic(String),
    /// Named catalog object does not exist.
    NotFound(String),
    /// Catalog object already exists.
    AlreadyExists(String),
    /// Primary-key uniqueness violation.
    DuplicateKey(String),
    /// The transaction was chosen as a deadlock (wait-die) victim and
    /// has been rolled back. The client should retry.
    Deadlock,
    /// The transaction was rolled back for a non-deadlock reason.
    TxnAborted(String),
    /// The server is shutting down or has shut down; volatile state is gone.
    ServerShutdown,
    /// A request did not complete within the caller's deadline. Raised by
    /// the client/wire layers; Phoenix treats it as a possible server
    /// failure and starts probing.
    Timeout,
    /// The session handle is no longer valid (e.g. server restarted).
    NoSuchSession,
    /// Phoenix's recovery budget (attempts and/or deadline) ran out
    /// before the server came back. The virtual session state is
    /// preserved: the call is *retryable*, and a later call on the same
    /// connection resumes recovery where it left off.
    RecoveryExhausted,
    /// The server shed a connection under overload (session registry
    /// full or pending-accept queue full). Nothing was torn down and
    /// nothing executed: the call is *retryable*, and `retry_after` is
    /// the server's hint for when capacity is expected back (clients clip
    /// it to their own recovery budget and add jitter before honoring it).
    ServerBusy {
        /// Server hint: earliest useful retry time.
        retry_after: Duration,
    },
    /// Storage-layer invariant violation (page full bookkeeping, etc.).
    Storage(String),
    /// Durable bytes failed verification: a page checksum or WAL record
    /// CRC mismatch that could not be (or was not allowed to be)
    /// repaired. Not retryable — the damage is in the durable state, so
    /// retrying the statement would re-read the same corrupt bytes.
    Corruption {
        /// The durable device the corruption was detected on
        /// (`"data"`, `"wal"`, or a finer-grained site label).
        device: String,
        /// Human-readable description of what failed verification.
        detail: String,
    },
    /// Internal invariant violation; indicates an engine bug.
    Internal(String),
}

impl Error {
    /// True when the error indicates the server process itself is gone,
    /// as opposed to a statement- or transaction-level failure.
    pub fn is_connection_fatal(&self) -> bool {
        matches!(
            self,
            Error::ServerShutdown | Error::NoSuchSession | Error::Timeout
        )
    }

    /// True when the failed call can simply be issued again on the same
    /// handle: nothing about the session was torn down, the failure was
    /// a scheduling outcome (deadlock victim) or an exhausted recovery
    /// budget that a later attempt may get past.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::Deadlock | Error::RecoveryExhausted | Error::ServerBusy { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax(m) => write!(f, "syntax error: {m}"),
            Error::Semantic(m) => write!(f, "semantic error: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::AlreadyExists(m) => write!(f, "already exists: {m}"),
            Error::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            Error::Deadlock => write!(f, "transaction deadlock victim; retry"),
            Error::TxnAborted(m) => write!(f, "transaction aborted: {m}"),
            Error::ServerShutdown => write!(f, "server shutdown"),
            Error::Timeout => write!(f, "request timed out"),
            Error::NoSuchSession => write!(f, "no such session"),
            Error::RecoveryExhausted => {
                write!(
                    f,
                    "recovery budget exhausted; session preserved, retry later"
                )
            }
            Error::ServerBusy { retry_after } => {
                write!(
                    f,
                    "server busy; shed under overload, retry after {}ms",
                    retry_after.as_millis()
                )
            }
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Corruption { device, detail } => {
                write!(f, "corruption on {device}: {detail}")
            }
            Error::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for Error {}
