//! Seconds-long smoke runs of every workload with its output checks on,
//! and per-workload attribution of the process-global obskit registry.
//!
//! The registry and the server gauges are process-wide, so the tests in
//! this file take turns.

use std::sync::Mutex;
use std::time::Duration;

use odbcsim::{DriverConfig, OdbcConnection};
use sessionbench::attrib::{leaked_gauges, Attribution, Window};
use sessionbench::dss::Dss;
use sessionbench::oltp::Oltp;
use sessionbench::recovery::Recovery;
use sessionbench::{Plan, Workload};
use wire::DbServer;

static SERIAL: Mutex<()> = Mutex::new(());

const SHORT: Plan = Plan {
    seconds: 1.0,
    min_ops: 1,
};

/// Set up, check-prepare, measure briefly and close one workload; every
/// op and every end-of-run check must pass.
fn smoke<W: Workload>() -> sessionbench::Measured {
    let mut w = W::setup(7);
    w.prepare_checks();
    let m = w.measure(&SHORT);
    let server = w.server().clone();
    let checks = w.finish();
    server.crash();
    assert!(m.attempted > 0, "{}: no ops ran", W::NAME);
    assert_eq!(m.failed, 0, "{}: {:?}", W::NAME, m.failures);
    assert!(checks.is_empty(), "{}: {checks:?}", W::NAME);
    assert!(m.cpu.server > Duration::ZERO, "{}: no server CPU", W::NAME);
    m
}

#[test]
fn oltp_smoke_run_passes_its_checks() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = smoke::<Oltp>();
    assert!(m.commits > 0);
}

#[test]
fn dss_smoke_run_passes_its_checks() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = smoke::<Dss>();
    // One whole pass: 22 queries plus RF1 and its undo, 4 statements each.
    assert_eq!(m.attempted % 30, 0);
}

#[test]
fn recovery_smoke_run_recovers_every_cycle() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = smoke::<Recovery>();
    assert_eq!(m.recoveries.len() as u64, m.attempted);
    assert!(m.recoveries.iter().all(|r| r.stats.undo_actions > 0));
}

/// Measure `W` briefly inside its own attribution window; returns the
/// window, the Phoenix results the workload itself persisted, and the
/// still-running server.
fn attributed<W: Workload>() -> (Attribution, u64, DbServer) {
    let mut w = W::setup(3);
    let window = Window::open(W::NAME, w.server());
    let m = w.measure(&SHORT);
    let a = window.close(w.server());
    let server = w.server().clone();
    assert!(w.finish().is_empty());
    (a, m.persisted, server)
}

#[test]
fn back_to_back_workloads_are_attributed_separately() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (oltp, oltp_persisted, oltp_server) = attributed::<Oltp>();
    let (recovery, recovery_persisted, server) = attributed::<Recovery>();
    oltp_server.crash();
    // Each window holds exactly its own workload's persisted results, not
    // the other workload's or the set-up's.
    for (a, persisted) in [(&oltp, oltp_persisted), (&recovery, recovery_persisted)] {
        assert!(persisted > 0, "{}", a.workload);
        assert_eq!(
            a.count("phoenix.persist.probe"),
            persisted,
            "{}",
            a.workload
        );
        assert_eq!(
            a.count("phoenix.persist.reopen"),
            persisted,
            "{}",
            a.workload
        );
    }
    // Only the recovery workload restarts the server and reconnects.
    assert!(recovery.admitted > 0);
    assert_eq!(oltp.admitted, 0);
    assert_eq!(oltp.count("phoenix.recovery.reconnect"), 0);
    assert!(recovery.count("phoenix.recovery.reconnect") > 0);

    // A session left open is reported with the workload that leaked it;
    // once it is closed, the next workload ends clean.
    let stray = OdbcConnection::connect(&server, DriverConfig::default()).expect("connect");
    let leaks = leaked_gauges("recovery", Duration::from_millis(200));
    assert!(
        leaks
            .iter()
            .any(|l| l.contains("recovery") && l.contains("sessions.active")),
        "{leaks:?}"
    );
    stray.disconnect();
    assert_eq!(
        leaked_gauges("next", Duration::from_secs(3)),
        Vec::<String>::new()
    );
    server.crash();
}
