//! Binary request/response protocol between the ODBC-like driver and the
//! database server. Messages are encoded to byte frames so the simulated
//! network can account buffer occupancy and transfer time accurately.

use bytes::{Buf, BufMut};

use sqlengine::schema::{decode_row, encode_row};
use sqlengine::types::{DataType, Row};
use sqlengine::{Column, Error};

/// Client-assigned statement identifier; tags every statement-scoped
/// response so stale traffic from cancelled statements can be discarded.
pub type StmtId = u32;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a database session.
    Connect {
        /// Login string, echoed into the session context.
        login: String,
    },
    /// Execute a SQL batch. If `skip > 0` the server advances past the
    /// first `skip` result rows *server-side* before streaming — the
    /// protocol-level equivalent of the paper's repositioning stored
    /// procedure (rows are scanned at the server, never transmitted).
    Exec {
        /// Statement id chosen by the client.
        stmt: StmtId,
        /// SQL batch text.
        sql: String,
        /// Rows to advance past server-side before streaming (the
        /// repositioning-stored-procedure equivalent).
        skip: u64,
    },
    /// Cancel a streaming statement and release its resources.
    CloseStmt {
        /// The statement to cancel.
        stmt: StmtId,
    },
    /// Liveness probe, answered with [`Response::Pong`].
    Ping,
    /// Orderly session close.
    Disconnect,
}

/// How a statement completed.
#[derive(Debug, Clone, PartialEq)]
pub enum DoneKind {
    /// Result set fully streamed; total row count.
    Rows(u64),
    /// DML row count.
    Affected(u64),
    /// DDL / control success.
    Ok,
}

/// Server → client messages. Statement-scoped messages carry the stmt id
/// so a client can discard stragglers from a cancelled statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session established.
    Connected {
        /// Server-side session id.
        session: u64,
    },
    /// Result metadata (column names and types).
    Meta {
        /// Owning statement.
        stmt: StmtId,
        /// Column names and types.
        columns: Vec<(String, DataType)>,
    },
    /// A batch of result rows.
    RowBatch {
        /// Owning statement.
        stmt: StmtId,
        /// The rows.
        rows: Vec<Row>,
    },
    /// Statement completed.
    Done {
        /// Owning statement.
        stmt: StmtId,
        /// Completion kind.
        kind: DoneKind,
    },
    /// Reply to [`Request::Ping`].
    Pong,
    /// Statement- or connection-level failure.
    Error {
        /// Owning statement (0 for connection-level).
        stmt: StmtId,
        /// The error.
        error: Error,
    },
}

// -- error code mapping ------------------------------------------------------

fn error_code(e: &Error) -> u8 {
    match e {
        Error::Syntax(_) => 0,
        Error::Semantic(_) => 1,
        Error::NotFound(_) => 2,
        Error::AlreadyExists(_) => 3,
        Error::DuplicateKey(_) => 4,
        Error::Deadlock => 5,
        Error::TxnAborted(_) => 6,
        Error::ServerShutdown => 7,
        Error::NoSuchSession => 8,
        Error::Storage(_) => 9,
        Error::Internal(_) => 10,
        Error::Timeout => 11,
        Error::RecoveryExhausted => 12,
        Error::Corruption { .. } => 13,
        Error::ServerBusy { .. } => 14,
    }
}

/// Field separator for multi-part error payloads (Corruption carries
/// device + detail in one string).
const PAYLOAD_SEP: char = '\u{1f}';

fn error_payload(e: &Error) -> String {
    match e {
        Error::Syntax(m)
        | Error::Semantic(m)
        | Error::NotFound(m)
        | Error::AlreadyExists(m)
        | Error::DuplicateKey(m)
        | Error::TxnAborted(m)
        | Error::Storage(m)
        | Error::Internal(m) => m.clone(),
        Error::Corruption { device, detail } => format!("{device}{PAYLOAD_SEP}{detail}"),
        Error::ServerBusy { retry_after } => retry_after.as_millis().to_string(),
        other => other.to_string(),
    }
}

fn error_from(code: u8, msg: String) -> Error {
    match code {
        0 => Error::Syntax(msg),
        1 => Error::Semantic(msg),
        2 => Error::NotFound(msg),
        3 => Error::AlreadyExists(msg),
        4 => Error::DuplicateKey(msg),
        5 => Error::Deadlock,
        6 => Error::TxnAborted(msg),
        7 => Error::ServerShutdown,
        8 => Error::NoSuchSession,
        9 => Error::Storage(msg),
        11 => Error::Timeout,
        12 => Error::RecoveryExhausted,
        13 => {
            let (device, detail) = msg
                .split_once(PAYLOAD_SEP)
                .map(|(d, r)| (d.to_string(), r.to_string()))
                .unwrap_or(("unknown".into(), msg));
            Error::Corruption { device, detail }
        }
        14 => Error::ServerBusy {
            // A garbled hint degrades to "retry immediately" — the
            // client's own backoff still spaces the attempts.
            retry_after: std::time::Duration::from_millis(msg.parse().unwrap_or(0)),
        },
        _ => Error::Internal(msg),
    }
}

// -- codec helpers -----------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, Error> {
    let corrupt = || Error::Internal("corrupt wire frame".into());
    if buf.remaining() < 4 {
        return Err(corrupt());
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(corrupt());
    }
    let s = String::from_utf8(buf[..len].to_vec()).map_err(|_| corrupt())?;
    buf.advance(len);
    Ok(s)
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Date => 3,
    }
}

fn dtype_from(tag: u8) -> Result<DataType, Error> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Date,
        _ => return Err(Error::Internal("bad dtype tag".into())),
    })
}

// -- Request codec -----------------------------------------------------------

impl Request {
    /// Serialize to a wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Connect { login } => {
                out.put_u8(0);
                put_str(&mut out, login);
            }
            Request::Exec { stmt, sql, skip } => {
                out.put_u8(1);
                out.put_u32(*stmt);
                out.put_u64(*skip);
                put_str(&mut out, sql);
            }
            Request::CloseStmt { stmt } => {
                out.put_u8(2);
                out.put_u32(*stmt);
            }
            Request::Ping => out.put_u8(3),
            Request::Disconnect => out.put_u8(4),
        }
        out
    }

    /// Parse a wire frame.
    pub fn decode(mut buf: &[u8]) -> Result<Request, Error> {
        let corrupt = || Error::Internal("corrupt wire frame".into());
        if buf.remaining() < 1 {
            return Err(corrupt());
        }
        let tag = buf.get_u8();
        Ok(match tag {
            0 => Request::Connect {
                login: get_str(&mut buf)?,
            },
            1 => {
                if buf.remaining() < 12 {
                    return Err(corrupt());
                }
                let stmt = buf.get_u32();
                let skip = buf.get_u64();
                Request::Exec {
                    stmt,
                    sql: get_str(&mut buf)?,
                    skip,
                }
            }
            2 => {
                if buf.remaining() < 4 {
                    return Err(corrupt());
                }
                Request::CloseStmt {
                    stmt: buf.get_u32(),
                }
            }
            3 => Request::Ping,
            4 => Request::Disconnect,
            _ => return Err(corrupt()),
        })
    }
}

// -- Response codec ----------------------------------------------------------

impl Response {
    /// Serialize to a wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Connected { session } => {
                out.put_u8(0);
                out.put_u64(*session);
            }
            Response::Meta { stmt, columns } => {
                out.put_u8(1);
                out.put_u32(*stmt);
                out.put_u16(columns.len() as u16);
                for (name, t) in columns {
                    put_str(&mut out, name);
                    out.put_u8(dtype_tag(*t));
                }
            }
            Response::RowBatch { stmt, rows } => {
                out.put_u8(2);
                out.put_u32(*stmt);
                out.put_u32(rows.len() as u32);
                for r in rows {
                    encode_row(r, &mut out);
                }
            }
            Response::Done { stmt, kind } => {
                out.put_u8(3);
                out.put_u32(*stmt);
                match kind {
                    DoneKind::Rows(n) => {
                        out.put_u8(0);
                        out.put_u64(*n);
                    }
                    DoneKind::Affected(n) => {
                        out.put_u8(1);
                        out.put_u64(*n);
                    }
                    DoneKind::Ok => out.put_u8(2),
                }
            }
            Response::Pong => out.put_u8(4),
            Response::Error { stmt, error } => {
                out.put_u8(5);
                out.put_u32(*stmt);
                out.put_u8(error_code(error));
                put_str(&mut out, &error_payload(error));
            }
        }
        out
    }

    /// Parse a wire frame.
    pub fn decode(mut buf: &[u8]) -> Result<Response, Error> {
        let corrupt = || Error::Internal("corrupt wire frame".into());
        if buf.remaining() < 1 {
            return Err(corrupt());
        }
        let tag = buf.get_u8();
        Ok(match tag {
            0 => {
                if buf.remaining() < 8 {
                    return Err(corrupt());
                }
                Response::Connected {
                    session: buf.get_u64(),
                }
            }
            1 => {
                if buf.remaining() < 6 {
                    return Err(corrupt());
                }
                let stmt = buf.get_u32();
                let n = buf.get_u16() as usize;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_str(&mut buf)?;
                    if buf.remaining() < 1 {
                        return Err(corrupt());
                    }
                    columns.push((name, dtype_from(buf.get_u8())?));
                }
                Response::Meta { stmt, columns }
            }
            2 => {
                if buf.remaining() < 8 {
                    return Err(corrupt());
                }
                let stmt = buf.get_u32();
                let n = buf.get_u32() as usize;
                let mut rows = Vec::with_capacity(n);
                let mut rest = buf;
                for _ in 0..n {
                    // decode_row consumes a prefix; re-slice manually.
                    let row = decode_row(rest)?;
                    // Compute consumed length by re-encoding (rows are
                    // small; correctness over micro-optimization here).
                    let mut tmp = Vec::new();
                    encode_row(&row, &mut tmp);
                    rest = &rest[tmp.len()..];
                    rows.push(row);
                }
                Response::RowBatch { stmt, rows }
            }
            3 => {
                if buf.remaining() < 5 {
                    return Err(corrupt());
                }
                let stmt = buf.get_u32();
                let kind = match buf.get_u8() {
                    0 => {
                        if buf.remaining() < 8 {
                            return Err(corrupt());
                        }
                        DoneKind::Rows(buf.get_u64())
                    }
                    1 => {
                        if buf.remaining() < 8 {
                            return Err(corrupt());
                        }
                        DoneKind::Affected(buf.get_u64())
                    }
                    2 => DoneKind::Ok,
                    _ => return Err(corrupt()),
                };
                Response::Done { stmt, kind }
            }
            4 => Response::Pong,
            5 => {
                if buf.remaining() < 5 {
                    return Err(corrupt());
                }
                let stmt = buf.get_u32();
                let code = buf.get_u8();
                let msg = get_str(&mut buf)?;
                Response::Error {
                    stmt,
                    error: error_from(code, msg),
                }
            }
            _ => return Err(corrupt()),
        })
    }
}

/// Schema → wire column descriptors.
pub fn columns_to_wire(schema: &[Column]) -> Vec<(String, DataType)> {
    schema.iter().map(|c| (c.name.clone(), c.dtype)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::types::Value;

    #[test]
    fn request_round_trip() {
        let reqs = vec![
            Request::Connect {
                login: "app/user".into(),
            },
            Request::Exec {
                stmt: 7,
                sql: "SELECT * FROM t WHERE 0=1".into(),
                skip: 42,
            },
            Request::CloseStmt { stmt: 7 },
            Request::Ping,
            Request::Disconnect,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_round_trip() {
        let rows = vec![
            vec![Value::Int(1), Value::Str("x".into()), Value::Null],
            vec![Value::Float(2.5), Value::Date(8035), Value::Int(-1)],
        ];
        let resps = vec![
            Response::Connected { session: 9 },
            Response::Meta {
                stmt: 1,
                columns: vec![
                    ("a".into(), DataType::Int),
                    ("b".into(), DataType::Str),
                    ("d".into(), DataType::Date),
                ],
            },
            Response::RowBatch { stmt: 1, rows },
            Response::Done {
                stmt: 1,
                kind: DoneKind::Rows(2),
            },
            Response::Done {
                stmt: 2,
                kind: DoneKind::Affected(17),
            },
            Response::Done {
                stmt: 3,
                kind: DoneKind::Ok,
            },
            Response::Pong,
            Response::Error {
                stmt: 4,
                error: Error::Deadlock,
            },
            Response::Error {
                stmt: 5,
                error: Error::NotFound("table x".into()),
            },
            Response::Error {
                stmt: 0,
                error: Error::ServerBusy {
                    retry_after: std::time::Duration::from_millis(37),
                },
            },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn corrupt_frames_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[1, 0]).is_err());
    }
}
