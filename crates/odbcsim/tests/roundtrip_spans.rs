//! Which requests count as `odbcsim.roundtrip.exec` round trips. A test
//! binary of its own: the trace ring is process-global, and the crate's
//! unit tests emit exec spans of their own while they run.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::time::Duration;

use faultkit::net::{NetFaultKind, NetPlan};
use odbcsim::{DriverConfig, OdbcConnection};
use sqlengine::Error;
use wire::{DbServer, ServerConfig};

fn exec_spans() -> usize {
    obskit::trace::snapshot()
        .iter()
        .filter(|e| e.name == "odbcsim.roundtrip.exec")
        .count()
}

/// A request the server answers with an error crossed the link and back:
/// it is one round trip. A request the link never answered is none.
#[test]
fn an_error_answer_is_a_round_trip_and_a_timeout_is_not() {
    let s = DbServer::start(ServerConfig::instant_net()).unwrap();
    let cfg = DriverConfig {
        query_timeout: Some(Duration::from_secs(5)),
        ..Default::default()
    };
    let c = OdbcConnection::connect(&s, cfg).unwrap();
    let _trace = obskit::trace::session();
    obskit::trace::clear();

    let e = c.exec_direct("SELECT * FROM missing").unwrap_err();
    assert!(matches!(e, Error::NotFound(_)), "{e:?}");
    assert_eq!(exec_spans(), 1, "the NotFound answer is one round trip");

    c.exec_direct("CREATE TABLE t (a INT)").unwrap();
    assert_eq!(exec_spans(), 2);

    // Withhold every new link's Exec request (its 2nd message, after
    // Connect): the watchdog gives up on the response.
    s.set_fault_plan(Some(NetPlan::at(NetFaultKind::Stall, 2)));
    let stalled = OdbcConnection::connect(
        &s,
        DriverConfig {
            query_timeout: None,
            request_deadline: Some(Duration::from_millis(100)),
            ..Default::default()
        },
    )
    .unwrap();
    let e = stalled.exec_direct("SELECT * FROM t").unwrap_err();
    assert!(matches!(e, Error::Timeout), "{e:?}");
    assert_eq!(exec_spans(), 2, "a timed-out request is no round trip");
}
