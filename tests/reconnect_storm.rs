//! Reconnect-storm chaos harness: crash a server holding ~256 virtual
//! sessions mid-workload and prove the admission-control story end to
//! end:
//!
//! * every session's wrapped modifications stay exactly-once (each
//!   session's `phx_status` ledger is gap- and duplicate-free);
//! * the reconnect herd is *bounded*: the pending-accept gate's
//!   high-water mark never exceeds its cap, and the overflow is shed
//!   with `ServerBusy` + `retry_after` instead of queueing — no
//!   thundering herd, no stall, no OOM;
//! * every shed session eventually recovers (or surfaces a resumable
//!   `RecoveryExhausted`, proven separately below).
//!
//! Satellites live here too: idle eviction (an evicted session's next
//! call routes through full phase-1/2 recovery, repositioned at
//! `delivered`), `retry_after` clipping to the recovery deadline, and
//! single-crash enumeration over the `admission.{admit,shed,evict}`
//! crashpoint family.
//!
//! A failing storm seed prints a one-line
//! `FAULTKIT_REPLAY='reconnect_storm:seed#<n>'` reproduction.
//! `STORM_SESSIONS` / `STORM_SEEDS` / `STORM_BASE` tune the sweep.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use integration_tests::{
    crash_restart_action, explore, record_trace, restart_with_retry, REPLAY_ENV,
};
use odbcsim::{DriverConfig, OdbcConnection};
use phoenix::{ExecKind, PhoenixConfig, PhoenixConnection, ReconnectPolicy};
use sqlengine::{Error, Value};
use wire::{AdmissionConfig, DbServer, ServerConfig};
use workloads::{EngineClient, SqlClient};

const SCENARIO: &str = "reconnect_storm";

/// The bound on concurrent reconnect handshakes in the storm. Small
/// against ~256 sessions so the post-crash herd is guaranteed to shed.
const PENDING_CAP: usize = 8;

/// Wrapped modifications per session on each side of the crash.
const OPS: i64 = 3;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn storm_px_cfg(seed: u64) -> PhoenixConfig {
    let mut cfg = PhoenixConfig {
        reconnect: ReconnectPolicy {
            max_attempts: 10_000,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            deadline: Duration::from_secs(60),
            masking_retries: 1_000,
            // One configured seed for the whole fleet: per-session
            // schedules decorrelate via the connection-id stream.
            jitter_seed: seed,
        },
        ..Default::default()
    };
    cfg.driver.buffer_bytes = 512;
    // Generous driver timeouts: with hundreds of threads multiplexed
    // onto few cores, a tight query timeout misreads scheduling delay
    // as a dead server and cascades spurious recoveries through the
    // gate. Crash detection does not depend on these — a crashed
    // endpoint fails instantly with a connection-fatal error.
    cfg.driver.query_timeout = Some(Duration::from_secs(5));
    cfg.driver.request_deadline = Some(Duration::from_secs(8));
    cfg
}

fn create_orders(server: &DbServer) {
    let engine = server.engine().unwrap();
    let sid = engine.create_session().unwrap();
    engine
        .execute(sid, "CREATE TABLE orders (id INT PRIMARY KEY, qty INT)")
        .unwrap();
    engine.close_session(sid);
    engine.checkpoint().unwrap();
}

fn wrapped_insert(px: &PhoenixConnection, id: i64, qty: i64) {
    // An exhausted Deadlock is a definitively-not-applied failure (the
    // victim transaction aborted and its req_id was returned) and
    // RecoveryExhausted is resumable by contract (the next call
    // re-enters recovery), so application-level retries on both are
    // exactly-once safe — exactly what a real client would do.
    let n = loop {
        match px.exec(&format!("INSERT INTO orders VALUES ({id}, {qty})")) {
            Ok(ExecKind::RowCount(n)) => break n,
            Ok(other) => panic!("expected row count for insert {id}, got {other:?}"),
            Err(Error::Deadlock) => std::thread::sleep(Duration::from_millis(2)),
            Err(Error::RecoveryExhausted) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("insert {id}: {e:?}"),
        }
    };
    assert_eq!(n, 1, "insert of {id} applied exactly once");
}

fn ledger_req_ids(px: &PhoenixConnection) -> Vec<i64> {
    let key = px.app_key();
    let sql = format!("SELECT req_id FROM phx_status WHERE app_key = '{key}' ORDER BY req_id");
    // Under the storm, hundreds of sessions read the ledger while others
    // append to it; a wait-die victim is retryable, like any client, and
    // an exhausted recovery is resumable.
    let rows = loop {
        match px.query_all(&sql) {
            Ok(rows) => break rows,
            Err(Error::Deadlock) => std::thread::sleep(Duration::from_millis(1)),
            Err(Error::RecoveryExhausted) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("ledger query: {e:?}"),
        }
    };
    rows.iter()
        .map(|r| {
            let Value::Int(id) = r[0] else {
                panic!("req_id: {r:?}")
            };
            id
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tentpole: the storm itself
// ---------------------------------------------------------------------------

fn run_storm(seed: u64) {
    let _trace = obskit::trace::session();
    obskit::trace::clear();
    let sessions = env_usize("STORM_SESSIONS", 256);
    let mut cfg = ServerConfig::instant_net();
    cfg.admission = AdmissionConfig {
        // Roomy registry: the storm stresses the pending gate, not the
        // session cap (the cap has its own tests below).
        max_sessions: sessions * 4,
        pending_accepts: PENDING_CAP,
        idle_timeout: Duration::from_secs(2),
        handshake_timeout: Duration::from_secs(10),
    };
    let server = DbServer::start(cfg).unwrap();
    create_orders(&server);

    // Three rendezvous points: everyone connected; everyone mid-workload
    // (then the crash lands while every session is live); server back up
    // (then every session's next call storms recovery at once — the
    // worst-case synchronized herd the jittered backoff must spread).
    let connected = Arc::new(Barrier::new(sessions + 1));
    let pre_crash = Arc::new(Barrier::new(sessions + 1));
    let post_restart = Arc::new(Barrier::new(sessions + 1));

    let mut handles = Vec::with_capacity(sessions);
    for k in 0..sessions {
        let server = server.clone();
        let connected = Arc::clone(&connected);
        let pre_crash = Arc::clone(&pre_crash);
        let post_restart = Arc::clone(&post_restart);
        handles.push(std::thread::spawn(move || {
            // Even the initial connect can be shed when the fleet arrives
            // at once: honor the hint and retry, like a driver would.
            let px = loop {
                match PhoenixConnection::connect(&server, storm_px_cfg(seed)) {
                    Ok(px) => break px,
                    Err(Error::ServerBusy { retry_after }) => {
                        std::thread::sleep(retry_after + Duration::from_micros(k as u64 % 97));
                    }
                    Err(e) => panic!("session {k}: initial connect: {e:?}"),
                }
            };
            connected.wait();
            let base = k as i64 * 1_000;
            for i in 0..OPS {
                wrapped_insert(&px, base + i, i);
            }
            pre_crash.wait();
            post_restart.wait();
            for i in OPS..2 * OPS {
                wrapped_insert(&px, base + i, i);
            }
            // Exactly-once ledger for this session: one status row per
            // wrapped request, no holes, no duplicates.
            assert_eq!(
                ledger_req_ids(&px),
                (1..=2 * OPS).collect::<Vec<i64>>(),
                "session {k}: phx_status ledger"
            );
            px.close();
        }));
    }

    connected.wait();
    pre_crash.wait();
    server.crash();
    restart_with_retry(&server, 200);
    post_restart.wait();
    for h in handles {
        h.join().unwrap();
    }

    let st = server.admission_stats();
    // The herd was real (it shed) and bounded (the gate's high-water mark
    // respected the cap — max concurrent reconnects never exceeded it).
    // A scaled-down run (STORM_SESSIONS < 64) may slip through the gate
    // without shedding; the full-size storm cannot.
    assert!(
        sessions < 64 || st.shed > 0,
        "{sessions} sessions reconnecting through a gate of {PENDING_CAP} must shed: {st:?}"
    );
    assert!(
        st.pending_peak >= 1 && st.pending_peak <= PENDING_CAP as i64,
        "pending peak outside (0, {PENDING_CAP}]: {st:?}"
    );
    assert!(
        st.admitted >= sessions as u64 * 2,
        "admit underflow: {st:?}"
    );

    // Every slot drains once the fleet disconnects — no leaked sessions,
    // no handshake left in the gate.
    let t = Instant::now();
    loop {
        let st = server.admission_stats();
        if st.active == 0 && st.pending == 0 {
            break;
        }
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "admission slots leaked after the storm: {st:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Global model check: every insert from every session landed once.
    let client = EngineClient::new(server.engine().unwrap()).unwrap();
    let rows = client.query("SELECT id FROM orders ORDER BY id").unwrap();
    assert_eq!(
        rows.len(),
        sessions * (2 * OPS) as usize,
        "orders row count diverged"
    );
}

#[test]
fn reconnect_storm_sheds_bounded_and_recovers_every_session() {
    let _fk = faultkit::session();
    // Replay mode: `FAULTKIT_REPLAY='reconnect_storm:seed#<n>'` runs
    // exactly that seed (specs naming other scenarios are ignored).
    if let Ok(spec) = std::env::var(REPLAY_ENV) {
        let (scen, plan_spec) = spec.rsplit_once(':').unwrap_or(("", spec.as_str()));
        if !scen.is_empty() && scen != SCENARIO {
            return;
        }
        let seed: u64 = plan_spec
            .strip_prefix("seed#")
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("bad {REPLAY_ENV} spec {spec:?} (want {SCENARIO}:seed#<n>)"));
        eprintln!("replaying single storm seed {seed}");
        run_storm(seed);
        write_snapshot_if_requested(seed, 1);
        return;
    }

    let count = env_usize("STORM_SEEDS", 1) as u64;
    let base = env_usize("STORM_BASE", 2026) as u64;
    for seed in base..base + count {
        let outcome = std::panic::catch_unwind(|| run_storm(seed));
        if let Err(payload) = outcome {
            eprintln!(
                "\nstorm seed failed — reproduce with:\n  {REPLAY_ENV}='{SCENARIO}:seed#{seed}' \
                 cargo test -p integration-tests --test reconnect_storm\n"
            );
            eprintln!(
                "trace timeline before the failure:\n{}",
                obskit::trace::dump_last(40)
            );
            std::panic::resume_unwind(payload);
        }
    }
    write_snapshot_if_requested(base, count);
}

/// When `OBSKIT_SNAPSHOT=<path>` is set, export the global metrics
/// registry plus the retained trace timeline as deterministic JSON —
/// `cargo xtask ci` runs one pinned seed this way and validates the
/// storm's admission counters.
fn write_snapshot_if_requested(base: u64, count: u64) {
    let Ok(path) = std::env::var("OBSKIT_SNAPSHOT") else {
        return;
    };
    let mut meta = BTreeMap::new();
    meta.insert("source".to_string(), SCENARIO.to_string());
    meta.insert("base".to_string(), base.to_string());
    meta.insert("seeds".to_string(), count.to_string());
    meta.insert(
        "sessions".to_string(),
        env_usize("STORM_SESSIONS", 256).to_string(),
    );
    meta.insert("pending_cap".to_string(), PENDING_CAP.to_string());
    let json = obskit::export::snapshot_json(
        &meta,
        &obskit::metrics::global().snapshot(),
        &obskit::trace::snapshot(),
    );
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, json).expect("write OBSKIT_SNAPSHOT");
}

// ---------------------------------------------------------------------------
// Satellite: idle eviction
// ---------------------------------------------------------------------------

/// An evicted session's next call finds its link closed and must route
/// through *full* phase-1/2 recovery, reposition the open result at
/// `delivered`, and keep the exactly-once ledger intact.
#[test]
fn evicted_idle_session_runs_full_recovery_repositioned_at_delivered() {
    let _fk = faultkit::session();
    let mut cfg = ServerConfig::instant_net();
    cfg.row_batch = 1;
    cfg.admission = AdmissionConfig {
        max_sessions: 64,
        pending_accepts: 64,
        idle_timeout: Duration::from_millis(250),
        handshake_timeout: Duration::from_secs(10),
    };
    let server = DbServer::start(cfg).unwrap();
    create_orders(&server);
    {
        let client = EngineClient::new(server.engine().unwrap()).unwrap();
        let vals: Vec<String> = (0..32).map(|i| format!("({i}, {i})")).collect();
        client
            .execute(&format!("INSERT INTO orders VALUES {}", vals.join(",")))
            .unwrap();
        server.engine().unwrap().checkpoint().unwrap();
    }
    let mut pxcfg = storm_px_cfg(11);
    // Tiny driver buffer: the tail of the result stays server-side, so
    // the post-eviction fetch genuinely needs recovery + repositioning.
    pxcfg.driver.buffer_bytes = 64;
    let px = PhoenixConnection::connect(&server, pxcfg).unwrap();

    wrapped_insert(&px, 1_000, 1);
    px.exec("SELECT id FROM orders ORDER BY id").unwrap();
    for i in 0..10 {
        let row = px.fetch().unwrap().unwrap();
        assert_eq!(row[0], Value::Int(i));
    }

    // Idle past the timeout: the liveness clock ticks only on inbound
    // frames, so the session's link goes stale and is evicted (the
    // background sweeper or this direct call — whichever first).
    std::thread::sleep(Duration::from_millis(600));
    server.sweep_idle_sessions();
    let st = server.admission_stats();
    assert!(st.evicted >= 1, "the idle link must be evicted: {st:?}");

    // Next call: dead link -> full recovery -> repositioned at row 10.
    // The remaining rows arrive exactly once, in order: ids 10..31 then
    // the wrapped insert's 1000.
    let mut got = Vec::new();
    while let Some(row) = px.fetch().unwrap() {
        let Value::Int(id) = row[0] else {
            panic!("id: {row:?}")
        };
        got.push(id);
    }
    let mut want: Vec<i64> = (10..32).collect();
    want.push(1_000);
    assert_eq!(got, want, "no gaps, no duplicates after eviction recovery");
    assert_eq!(px.stats().recoveries, 1, "one real recovery");
    assert!(
        px.last_recovery_phases().is_some(),
        "full phase-1/2 breakdown must be reported"
    );

    // Exactly-once survives the eviction: the ledger continues 1, 2.
    wrapped_insert(&px, 1_001, 2);
    assert_eq!(ledger_req_ids(&px), vec![1, 2]);
    px.close();
}

// ---------------------------------------------------------------------------
// Satellite: retry_after clipping + resumable exhaustion
// ---------------------------------------------------------------------------

/// A shed response must not burn more than the recovery deadline: with
/// every registry slot squatted, the server hints `retry_after` of
/// roughly the idle timeout (60 s here) — the client must clip it to the
/// remaining 500 ms budget and surface `RecoveryExhausted` promptly.
/// The exhaustion is *resumable*: once capacity frees up, the next call
/// resumes recovery and delivers the rest of the result exactly.
#[test]
fn shed_hint_is_clipped_to_recovery_budget_and_exhaustion_resumes() {
    let _fk = faultkit::session();
    let mut cfg = ServerConfig::instant_net();
    cfg.row_batch = 1;
    cfg.admission = AdmissionConfig {
        max_sessions: 4,
        pending_accepts: 64,
        idle_timeout: Duration::from_secs(60),
        handshake_timeout: Duration::from_secs(10),
    };
    let server = DbServer::start(cfg).unwrap();
    create_orders(&server);
    {
        let client = EngineClient::new(server.engine().unwrap()).unwrap();
        let vals: Vec<String> = (0..40).map(|i| format!("({i}, {i})")).collect();
        client
            .execute(&format!("INSERT INTO orders VALUES {}", vals.join(",")))
            .unwrap();
        server.engine().unwrap().checkpoint().unwrap();
    }
    let mut pxcfg = PhoenixConfig {
        reconnect: ReconnectPolicy {
            max_attempts: 10_000,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            deadline: Duration::from_millis(500),
            masking_retries: 50,
            jitter_seed: 7,
        },
        ..Default::default()
    };
    pxcfg.driver.buffer_bytes = 64;
    pxcfg.driver.query_timeout = Some(Duration::from_millis(200));
    let px = PhoenixConnection::connect(&server, pxcfg).unwrap();
    px.exec("SELECT id FROM orders ORDER BY id").unwrap();
    for i in 0..10 {
        assert_eq!(px.fetch().unwrap().unwrap()[0], Value::Int(i));
    }

    server.crash();
    restart_with_retry(&server, 200);
    // Squat every registry slot before the client notices the crash.
    let squatters: Vec<OdbcConnection> = (0..4)
        .map(|_| OdbcConnection::connect(&server, DriverConfig::default()).unwrap())
        .collect();

    let t = Instant::now();
    let err = px.fetch().unwrap_err();
    let waited = t.elapsed();
    assert!(
        matches!(err, Error::RecoveryExhausted),
        "expected RecoveryExhausted, got {err:?}"
    );
    assert!(
        waited < Duration::from_secs(10),
        "a ~60s retry_after hint must be clipped to the 500ms recovery \
         deadline, but the client waited {waited:?}"
    );
    assert!(
        waited >= Duration::from_millis(300),
        "the budget should still be spent before giving up: {waited:?}"
    );
    assert!(server.admission_stats().shed > 0, "the squat must shed");

    // Capacity returns; the next application call resumes recovery and
    // the remaining rows arrive exactly once, in order.
    drop(squatters);
    let t = Instant::now();
    while server.admission_stats().active > 0 {
        assert!(t.elapsed() < Duration::from_secs(5), "squatters leaked");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut got = Vec::new();
    while let Some(row) = px.fetch().unwrap() {
        let Value::Int(id) = row[0] else {
            panic!("id: {row:?}")
        };
        got.push(id);
    }
    assert_eq!(got, (10..40).collect::<Vec<i64>>());
    assert!(px.stats().recoveries >= 1);
    px.close();
}

// ---------------------------------------------------------------------------
// Satellite: crash enumeration over the admission crashpoint family
// ---------------------------------------------------------------------------

fn lifecycle_setup() -> (DbServer, PhoenixConnection) {
    let mut cfg = ServerConfig::instant_net();
    cfg.admission = AdmissionConfig {
        // Exactly the one slot the Phoenix session occupies: a second
        // connect is deterministically shed.
        max_sessions: 1,
        pending_accepts: 64,
        idle_timeout: Duration::from_millis(120),
        handshake_timeout: Duration::from_secs(10),
    };
    let server = DbServer::start(cfg).unwrap();
    create_orders(&server);
    let mut pxcfg = storm_px_cfg(13);
    pxcfg.reconnect.deadline = Duration::from_secs(20);
    let px = PhoenixConnection::connect(&server, pxcfg).unwrap();
    (server, px)
}

/// One pass through the admission lifecycle: a wrapped insert, a
/// deterministic shed (registry full), a deterministic eviction (idle
/// past the timeout), and the post-eviction recovery insert.
fn run_lifecycle(server: &DbServer, px: &PhoenixConnection, round: i64) {
    wrapped_insert(px, round * 10 + 1, 1);
    // Registry full (the one slot is the session's): a second connect is
    // shed. Under an armed crash the slot may already have been freed
    // (or the link died mid-handshake) — any outcome is acceptable, the
    // session-level assertions below are what must hold.
    // lint:allow(discard): outcome intentionally ignored, see above
    let _ = OdbcConnection::connect(server, DriverConfig::default());
    std::thread::sleep(Duration::from_millis(260));
    server.sweep_idle_sessions();
    wrapped_insert(px, round * 10 + 2, 2);
}

/// Crash at each `admission.{admit,shed,evict}` hit in turn: the session
/// must still recover and keep its modifications exactly-once. (The
/// non-admission crashpoints this scenario also hits are enumerated
/// exhaustively by the fault_injection suite.)
#[test]
fn crash_at_admission_crashpoints_is_masked() {
    let fk = faultkit::session();
    let (server, px) = lifecycle_setup();
    let trace = record_trace(&fk, || run_lifecycle(&server, &px, 0));
    px.close();
    drop(server);

    let names: Vec<&str> = trace.iter().map(|p| p.name).collect();
    for required in ["admission.admit", "admission.shed", "admission.evict"] {
        assert!(
            names.contains(&required),
            "scenario must exercise {required}; hit {names:?}"
        );
    }
    let admission_points: Vec<_> = trace
        .iter()
        .filter(|p| p.name.starts_with("admission."))
        .cloned()
        .collect();

    explore("admission_lifecycle", &admission_points, |plan| {
        let (server, px) = lifecycle_setup();
        let armed = fk.arm(plan, crash_restart_action(&server));
        run_lifecycle(&server, &px, 1);
        let fired = armed.fired();
        drop(armed);
        assert!(fired.is_some(), "plan {plan:?} never fired");
        // Exactly-once ledger across the crash: both wrapped inserts,
        // each applied and recorded once.
        assert_eq!(ledger_req_ids(&px), vec![1, 2]);
        px.close();
    });
}
