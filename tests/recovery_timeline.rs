//! Recovery-timeline export test: a server crash mid-fetch must produce
//! the six-phase recovery breakdown — detect → ping → reconnect → rebind
//! → reinstall → reposition — consistently across all three views:
//!
//! * [`PhoenixConnection::last_recovery_phases`] (the structured struct),
//! * the obskit trace timeline (one span per phase, in causal order),
//! * the JSON export (one histogram per phase with at least one sample),
//!
//! with the phase durations summing to no more than the application-visible
//! wall-clock time of the recovering fetch. It also pins the requests that
//! one recovery sends: the pair's two handshakes and the repositioned
//! reopen — no ping, no existence checks.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use integration_tests::restart_with_retry;
use phoenix::{PhoenixConfig, PhoenixConnection, RecoveryPhases};
use wire::{DbServer, ServerConfig};

#[test]
fn crash_recovery_exports_six_phase_timeline() {
    let _trace = obskit::trace::session();
    obskit::trace::clear();

    // Row batches of 1 keep the tail of the result server-side, so the
    // post-crash fetch has to go back to the server (and hence recover).
    let mut config = ServerConfig::instant_net();
    config.row_batch = 1;
    let server = DbServer::start(config).unwrap();
    {
        let engine = server.engine().unwrap();
        let sid = engine.create_session().unwrap();
        engine
            .execute(sid, "CREATE TABLE t (a INT PRIMARY KEY, pad VARCHAR(32))")
            .unwrap();
        for chunk in (0..200i64).collect::<Vec<_>>().chunks(50) {
            let vals: Vec<String> = chunk
                .iter()
                .map(|i| format!("({i}, 'xxxxxxxxxxxxxxxx')"))
                .collect();
            engine
                .execute(sid, &format!("INSERT INTO t VALUES {}", vals.join(",")))
                .unwrap();
        }
        engine.close_session(sid);
        engine.checkpoint().unwrap();
    }

    let mut cfg = PhoenixConfig::default();
    // Tiny driver buffer so fetches keep hitting the server.
    cfg.driver.buffer_bytes = 64;
    cfg.driver.query_timeout = Some(Duration::from_secs(30));
    let px = PhoenixConnection::connect(&server, cfg).unwrap();
    px.exec("SELECT a, pad FROM t ORDER BY a").unwrap();
    for _ in 0..100 {
        px.fetch().unwrap().unwrap();
    }

    server.crash();
    restart_with_retry(&server, 200);

    let pings = || {
        obskit::metrics::global()
            .histogram("odbcsim.roundtrip.ping")
            .snapshot()
            .count
    };
    let admitted_before = server.admission_stats().admitted;
    let pings_before = pings();
    obskit::trace::clear();
    let t0 = Instant::now();
    assert!(
        px.fetch().unwrap().is_some(),
        "rows must resume after crash"
    );
    let wall = t0.elapsed();

    // The requests this recovery sent: two handshakes (one session each),
    // then the reopen with its skip.
    assert_eq!(
        server.admission_stats().admitted - admitted_before,
        2,
        "recovery opens exactly the connection pair"
    );
    let execs = obskit::trace::snapshot()
        .iter()
        .filter(|e| e.name == "odbcsim.roundtrip.exec")
        .count();
    assert_eq!(execs, 1, "recovery sends only the reopen");
    assert_eq!(
        pings() - pings_before,
        0,
        "the handshakes already showed liveness"
    );

    // View 1: the structured per-phase breakdown.
    let phases = px
        .last_recovery_phases()
        .expect("recovery must have happened");
    assert!(phases.total() > Duration::ZERO);
    assert!(
        phases.reconnect > Duration::ZERO,
        "recovery must have rebuilt the connection pair"
    );
    assert!(
        phases.total() <= wall,
        "phase sum {:?} exceeds the recovering fetch's wall clock {:?}",
        phases.total(),
        wall
    );

    // View 2: the trace timeline — one span per phase, in causal order.
    let events = obskit::trace::snapshot();
    let phase_events: Vec<_> = events
        .iter()
        .filter(|e| RecoveryPhases::NAMES.contains(&e.name))
        .collect();
    let order: Vec<&str> = phase_events.iter().map(|e| e.name).collect();
    assert_eq!(
        order,
        RecoveryPhases::NAMES.to_vec(),
        "exactly one span per phase, in pipeline order"
    );
    for w in phase_events.windows(2) {
        assert!(w[0].seq < w[1].seq, "sequence numbers must be causal");
    }
    let span_sum: u64 = phase_events.iter().filter_map(|e| e.dur_nanos).sum();
    assert!(
        Duration::from_nanos(span_sum) <= wall,
        "span durations exceed the recovering fetch's wall clock"
    );

    // View 3: the JSON export parses and holds one histogram per phase
    // with at least one recorded sample.
    let json = obskit::export::snapshot_json(
        &BTreeMap::new(),
        &obskit::metrics::global().snapshot(),
        &events,
    );
    let doc = obskit::json::Json::parse(&json).expect("export must parse");
    let hists = doc
        .get("histograms")
        .and_then(|h| h.as_obj())
        .expect("histograms object");
    for name in RecoveryPhases::NAMES {
        let h = hists
            .get(name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        let count = h.get("count").and_then(|c| c.as_f64()).unwrap_or(0.0);
        assert!(count >= 1.0, "{name} must have at least one sample");
    }

    // Drain the rest of the result: recovery repositioned correctly.
    let mut remaining = 1u64; // the fetch above
    while px.fetch().unwrap().is_some() {
        remaining += 1;
    }
    assert_eq!(remaining, 100, "all rows after the crash point, once each");
    px.close();
}
