//! Wire-layer stress tests: many concurrent connections, interleaved
//! statements, and codec robustness against arbitrary bytes.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::Arc;
use std::time::Duration;

use wire::{DbServer, DoneKind, Request, Response, ServerConfig};

fn connect(server: &DbServer) -> wire::ClientConn {
    let conn = server.connect().unwrap();
    conn.send(&Request::Connect {
        login: "stress".into(),
    })
    .unwrap();
    match conn.recv(Some(Duration::from_secs(5))).unwrap() {
        Response::Connected { .. } => conn,
        other => panic!("unexpected {other:?}"),
    }
}

fn exec_ok(conn: &wire::ClientConn, stmt: u32, sql: &str) -> u64 {
    conn.send(&Request::Exec {
        stmt,
        sql: sql.into(),
        skip: 0,
    })
    .unwrap();
    loop {
        match conn.recv(Some(Duration::from_secs(30))).unwrap() {
            Response::Done { stmt: s, kind } if s == stmt => {
                return match kind {
                    DoneKind::Rows(n) | DoneKind::Affected(n) => n,
                    DoneKind::Ok => 0,
                }
            }
            Response::Error { stmt: s, error } if s == stmt => panic!("{error}"),
            _ => {}
        }
    }
}

#[test]
fn many_concurrent_connections() {
    let server = DbServer::start(ServerConfig::instant_net()).unwrap();
    {
        let c = connect(&server);
        exec_ok(&c, 1, "CREATE TABLE t (k INT PRIMARY KEY, owner INT)");
    }
    let threads = 12;
    let per = 40;
    let mut handles = Vec::new();
    for t in 0..threads {
        let s = server.clone();
        handles.push(std::thread::spawn(move || {
            let conn = connect(&s);
            for i in 0..per {
                let k = t * 1000 + i;
                exec_ok(
                    &conn,
                    (i + 1) as u32,
                    &format!("INSERT INTO t VALUES ({k}, {t})"),
                );
            }
            conn.send(&Request::Disconnect).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let c = connect(&server);
    c.send(&Request::Exec {
        stmt: 99,
        sql: "SELECT COUNT(*) FROM t".into(),
        skip: 0,
    })
    .unwrap();
    loop {
        match c.recv(Some(Duration::from_secs(10))).unwrap() {
            Response::RowBatch { stmt: 99, rows } => {
                assert_eq!(rows[0][0], sqlengine::Value::Int((threads * per) as i64));
            }
            Response::Done { stmt: 99, .. } => break,
            _ => {}
        }
    }
}

#[test]
fn crash_with_many_live_connections_then_restart() {
    let server = DbServer::start(ServerConfig::instant_net()).unwrap();
    {
        let c = connect(&server);
        exec_ok(&c, 1, "CREATE TABLE t (k INT PRIMARY KEY)");
        exec_ok(&c, 2, "INSERT INTO t VALUES (1),(2),(3)");
    }
    let conns: Vec<_> = (0..8).map(|_| connect(&server)).collect();
    server.crash();
    // Every connection observes the failure.
    for c in &conns {
        c.send(&Request::Ping).ok();
        let r = c.recv(Some(Duration::from_secs(2)));
        assert!(r.is_err(), "got {r:?}");
    }
    server.restart().unwrap();
    let c = connect(&server);
    assert_eq!(exec_ok(&c, 1, "SELECT k FROM t"), 3);
}

/// A crash frees its incarnation's admission slots at once, not when
/// each connection thread notices its closed link: right after the
/// restart, `max_sessions` fresh connects are all admitted, and no slot
/// of the old epoch is left.
#[test]
fn a_crash_frees_every_admission_slot_of_its_incarnation() {
    let mut config = ServerConfig::instant_net();
    config.admission.max_sessions = 4;
    let server = DbServer::start(config).unwrap();
    let old: Vec<_> = (0..4).map(|_| connect(&server)).collect();
    assert_eq!(server.admission_stats().active, 4);
    server.crash();
    assert_eq!(
        server.admission_stats().active,
        0,
        "the dead epoch holds slots"
    );
    server.restart().unwrap();
    let fresh: Vec<_> = (0..4).map(|_| connect(&server)).collect();
    let st = server.admission_stats();
    assert_eq!((st.active, st.admitted, st.shed), (4, 8, 0));
    for (i, c) in fresh.iter().enumerate() {
        exec_ok(c, 1, &format!("CREATE TABLE t{i} (k INT)"));
    }
    drop(old);
    assert_eq!(server.admission_stats().active, 4);
}

#[test]
fn decode_never_panics_on_garbage() {
    use rand::RngCore;
    let mut rng = rand::rngs::mock::StepRng::new(0x1234_5678, 0x9E37_79B9);
    for len in 0..200 {
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        let _ = Request::decode(&buf);
        let _ = Response::decode(&buf);
    }
}

#[test]
fn interleaved_statements_same_connection_are_tagged() {
    // Start a streaming statement, abandon it, run others; stale batches
    // must never corrupt later results.
    let mut cfg = ServerConfig::instant_net();
    cfg.net_s2c.buffer_bytes = 512;
    let server = DbServer::start(cfg).unwrap();
    let c = connect(&server);
    exec_ok(
        &c,
        1,
        "CREATE TABLE big (k INT PRIMARY KEY, pad VARCHAR(64))",
    );
    let vals: Vec<String> = (0..800)
        .map(|k| format!("({k}, 'ppppppppppppppppppppppppppppp')"))
        .collect();
    for ch in vals.chunks(200) {
        exec_ok(&c, 2, &format!("INSERT INTO big VALUES {}", ch.join(",")));
    }
    for round in 0..5u32 {
        let sid = 100 + round * 2;
        // Streaming statement we abandon mid-flight.
        c.send(&Request::Exec {
            stmt: sid,
            sql: "SELECT * FROM big".into(),
            skip: 0,
        })
        .unwrap();
        // Read a couple of messages then cancel.
        let _ = c.recv(Some(Duration::from_secs(5))).unwrap();
        c.send(&Request::CloseStmt { stmt: sid }).unwrap();
        // A tidy follow-up query.
        let target = 17 * (round as i64 + 1);
        c.send(&Request::Exec {
            stmt: sid + 1,
            sql: format!("SELECT k FROM big WHERE k = {target}"),
            skip: 0,
        })
        .unwrap();
        let mut got = Vec::new();
        loop {
            match c.recv(Some(Duration::from_secs(10))).unwrap() {
                Response::RowBatch { stmt, mut rows } if stmt == sid + 1 => got.append(&mut rows),
                Response::Done { stmt, .. } if stmt == sid + 1 => break,
                _ => {} // stale traffic from the cancelled statement
            }
        }
        assert_eq!(got.len(), 1, "round {round}");
        assert_eq!(got[0][0], sqlengine::Value::Int(target));
    }
}

#[test]
fn server_restart_is_rejected_while_running() {
    let server = DbServer::start(ServerConfig::instant_net()).unwrap();
    assert!(server.restart().is_err());
    server.crash();
    assert!(server.restart().is_ok());
    assert!(Arc::strong_count(&server.engine().unwrap()) >= 1);
}
