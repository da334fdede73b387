//! Seeded storage chaos soak: an order-entry workload runs while the
//! simulated disk and WAL devices inject seeded faults — torn page
//! writes, bit flips, read/write errors on the data device
//! ([`DiskRates::mixed_data`]) and torn appends, write errors and fsync
//! failures on the WAL device ([`DiskRates::mixed_wal`]) — interleaved
//! with full server crashes and a checkpoint every few steps, and must
//! come out with **zero silent corruption**:
//!
//! * every injected page corruption is either repaired transparently
//!   (from the page's archive image and the kept log, on a pool miss, in
//!   a checkpoint's archive pass or in the restart scrub) or surfaced as
//!   an explicit error — never served as wrong rows;
//! * the checkpoints archive page images and truncate the log under the
//!   same faults, so repairs after a truncation start from an archive
//!   image (`storage.repair.from_archive`, which must count at least one
//!   over the seeds);
//! * a failed WAL flush poisons the log fail-stop; the soak restarts the
//!   server (the fsyncgate discipline) and re-executes, and the final
//!   tables still match the model exactly;
//! * the `phx_status` ledger holds exactly one row per *successful*
//!   wrapped modification (failed attempts burn a request id without a
//!   row — a duplicate or an unexpected hole fails the run).
//!
//! Each seed is fully deterministic in both devices' fault schedules; a
//! failing seed prints a one-line `FAULTKIT_REPLAY='disk_chaos:seed#<n>'`
//! reproduction. `DISK_SOAK_SEEDS` / `DISK_SOAK_BASE` override how many
//! and which seeds run.

use std::collections::BTreeMap;
use std::time::Duration;

use faultkit::disk::{DiskPlan, DiskRates};
use integration_tests::{restart_with_retry, REPLAY_ENV};
use phoenix::{ExecKind, PhoenixConfig, PhoenixConnection, ReconnectPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlengine::{Error, Value};
use wire::{DbServer, GroupCommit, ServerConfig};

const SCENARIO: &str = "disk_chaos";

fn soak_cfg(seed: u64) -> PhoenixConfig {
    let mut cfg = PhoenixConfig {
        reconnect: ReconnectPolicy {
            max_attempts: 5_000,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            deadline: Duration::from_secs(30),
            masking_retries: 500,
            jitter_seed: seed,
        },
        ..Default::default()
    };
    cfg.driver.query_timeout = Some(Duration::from_secs(10));
    cfg
}

/// A query with storage-fault handling: Phoenix's session-persistence
/// protocol writes durable cursor state, so even a SELECT can hit a
/// poisoned WAL or an injected device error. Restart and retry — the
/// rows delivered must still match the model exactly.
fn query_recovering(
    server: &DbServer,
    px: &PhoenixConnection,
    surfaced: &mut u64,
    sql: &str,
) -> Vec<Vec<Value>> {
    let mut attempts = 0u32;
    loop {
        match px.query_all(sql) {
            Ok(rows) => return rows,
            Err(e) => {
                attempts += 1;
                assert!(attempts <= 25, "query kept failing: {sql:?}: {e}");
                if matches!(e, Error::Corruption { .. }) {
                    *surfaced += 1;
                }
                server.crash();
                restart_with_retry(server, 500);
            }
        }
    }
}

fn expect_rows(
    server: &DbServer,
    px: &PhoenixConnection,
    surfaced: &mut u64,
    model: &BTreeMap<i64, (i64, String)>,
) {
    let rows = query_recovering(
        server,
        px,
        surfaced,
        "SELECT id, qty, note FROM orders ORDER BY id",
    );
    let got: Vec<(i64, i64, String)> = rows
        .iter()
        .map(|r| {
            let Value::Int(id) = r[0] else {
                panic!("id: {r:?}")
            };
            let Value::Int(qty) = r[1] else {
                panic!("qty: {r:?}")
            };
            let Value::Str(note) = &r[2] else {
                panic!("note: {r:?}")
            };
            (id, qty, note.clone())
        })
        .collect();
    let want: Vec<(i64, i64, String)> = model
        .iter()
        .map(|(id, (qty, note))| (*id, *qty, note.clone()))
        .collect();
    assert_eq!(got, want, "orders diverged from the model");
}

/// One wrapped modification with storage-fault handling. Every attempt
/// burns one Phoenix request id; the id of the attempt that *succeeded*
/// is pushed onto `status_ids` — the final ledger must hold exactly
/// those. A failed attempt means the wrapped transaction aborted (a
/// failed or torn WAL flush is never acknowledged, so it cannot have
/// durably committed); the soak then restarts the server — clearing the
/// fail-stop poison, truncating any torn tail, scrubbing pages — and
/// re-executes.
fn modify(
    server: &DbServer,
    px: &PhoenixConnection,
    next_req: &mut i64,
    status_ids: &mut Vec<i64>,
    surfaced: &mut u64,
    sql: &str,
) -> u64 {
    let mut attempts = 0u32;
    loop {
        *next_req += 1;
        match px.exec(sql) {
            Ok(ExecKind::RowCount(n)) => {
                status_ids.push(*next_req);
                return n;
            }
            Ok(other) => panic!("expected row count for {sql:?}, got {other:?}"),
            Err(e) => {
                attempts += 1;
                assert!(attempts <= 25, "statement kept failing: {sql:?}: {e}");
                if matches!(e, Error::Corruption { .. }) {
                    *surfaced += 1;
                }
                // The device fault poisoned the WAL or broke the
                // statement; restart to recover (recovery truncates any
                // torn tail and the scrub repairs page images).
                server.crash();
                restart_with_retry(server, 500);
            }
        }
    }
}

/// A checkpoint under storage chaos: it archives pages and truncates the
/// log, or fails on an injected fault, after which the soak restarts the
/// server and checkpoints again.
fn checkpoint_recovering(server: &DbServer, surfaced: &mut u64) {
    let mut attempts = 0u32;
    loop {
        let outcome = match server.engine() {
            Some(engine) => engine.checkpoint(),
            None => Err(Error::ServerShutdown),
        };
        let Err(e) = outcome else {
            return;
        };
        attempts += 1;
        assert!(attempts <= 25, "checkpoint kept failing: {e}");
        if matches!(e, Error::Corruption { .. }) {
            *surfaced += 1;
        }
        server.crash();
        restart_with_retry(server, 500);
    }
}

fn run_seed(seed: u64) {
    let _trace = obskit::trace::session();
    obskit::trace::clear();
    let mut cfg = ServerConfig::instant_net();
    cfg.scrub_on_restart = true;
    // Group commit on: the seeded WAL-device faults (FsyncFail,
    // FsyncLie, torn appends) now land on batch-leader flushes, so the
    // fail-stop broadcast to parked waiters is under storage chaos too.
    cfg.group_commit = GroupCommit::on(4, Duration::from_micros(500));
    // Short handshake bound so a connection abandoned mid-handshake by
    // a crash drains its pending-accept slot before the seed's series
    // mark (see chaos_soak.rs).
    cfg.admission.handshake_timeout = Duration::from_millis(100);
    let server = DbServer::start(cfg).unwrap();
    {
        let engine = server.engine().unwrap();
        let sid = engine.create_session().unwrap();
        engine
            .execute(
                sid,
                "CREATE TABLE orders (id INT PRIMARY KEY, qty INT, note VARCHAR(24))",
            )
            .unwrap();
        engine.close_session(sid);
        engine.checkpoint().unwrap();
    }
    let px = PhoenixConnection::connect(&server, soak_cfg(seed)).unwrap();

    // Storage chaos on: both devices draw decorrelated seeded schedules.
    // The WAL mix holds only fail-stop-maskable faults (a bit flip inside
    // acknowledged log records, or a lying fsync straddling a crash, is
    // deliberately unmaskable and surfaces as `Error::Corruption`).
    server.set_disk_fault_plan(
        Some(DiskPlan::seeded(seed, DiskRates::mixed_data(), 6)),
        Some(DiskPlan::seeded(seed, DiskRates::mixed_wal(), 6)),
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let mut model: BTreeMap<i64, (i64, String)> = BTreeMap::new();
    let mut next_id = 0i64;
    let mut next_req = 0i64;
    let mut status_ids: Vec<i64> = Vec::new();
    let mut surfaced = 0u64;
    const STEPS: u32 = 50;
    for step in 0..STEPS {
        // Occasionally a full crash lands on top of the storage chaos.
        if rng.gen_range(0..STEPS) < 3 {
            server.crash();
            restart_with_retry(&server, 500);
        }
        // Every few steps a checkpoint archives and truncates mid-chaos.
        if step % 5 == 4 {
            checkpoint_recovering(&server, &mut surfaced);
        }
        match rng.gen_range(0..10u32) {
            0..=4 => {
                let id = next_id;
                next_id += 1;
                let qty = rng.gen_range(1..100i64);
                let note = format!("n-{id}-{step}");
                let n = modify(
                    &server,
                    &px,
                    &mut next_req,
                    &mut status_ids,
                    &mut surfaced,
                    &format!("INSERT INTO orders VALUES ({id}, {qty}, '{note}')"),
                );
                assert_eq!(n, 1, "insert of {id} applied once");
                model.insert(id, (qty, note));
            }
            5 | 6 if !model.is_empty() => {
                let idx = rng.gen_range(0..model.len());
                let (&id, _) = model.iter().nth(idx).unwrap();
                let d = rng.gen_range(1..5i64);
                let n = modify(
                    &server,
                    &px,
                    &mut next_req,
                    &mut status_ids,
                    &mut surfaced,
                    &format!("UPDATE orders SET qty = qty + {d} WHERE id = {id}"),
                );
                assert_eq!(n, 1, "update of {id} applied once");
                if let Some(e) = model.get_mut(&id) {
                    e.0 += d;
                }
            }
            7 if !model.is_empty() => {
                let idx = rng.gen_range(0..model.len());
                let (&id, _) = model.iter().nth(idx).unwrap();
                let n = modify(
                    &server,
                    &px,
                    &mut next_req,
                    &mut status_ids,
                    &mut surfaced,
                    &format!("DELETE FROM orders WHERE id = {id}"),
                );
                assert_eq!(n, 1, "delete of {id} applied once");
                model.remove(&id);
            }
            _ => expect_rows(&server, &px, &mut surfaced, &model),
        }
    }

    // The devices heal; one final restart scrubs any latent corruption.
    server.set_disk_fault_plan(None, None);
    server.crash();
    restart_with_retry(&server, 500);

    // Final verification: the table matches the model row for row, and a
    // fresh scrub of the healed device finds nothing — no corruption
    // survived silently.
    expect_rows(&server, &px, &mut surfaced, &model);
    let report = server.engine().unwrap().scrub().unwrap();
    assert_eq!(
        report.detected, 0,
        "post-soak scrub found unrepaired corruption: {report:?} \
         (corruption errors surfaced to the app: {surfaced})"
    );
    assert_eq!(px.stats().updates_wrapped, next_req as u64);

    // The ledger holds exactly one row per successful wrapped request:
    // no duplicates, and no holes beyond the ids burned by attempts that
    // failed loudly before commit.
    let status = px
        .query_all("SELECT req_id FROM phx_status ORDER BY req_id")
        .unwrap();
    let req_ids: Vec<i64> = status
        .iter()
        .map(|r| {
            let Value::Int(id) = r[0] else {
                panic!("req_id: {r:?}")
            };
            id
        })
        .collect();
    assert_eq!(
        req_ids, status_ids,
        "phx_status must record every successful wrapped request exactly once"
    );
    px.close();
}

#[test]
fn disk_chaos_randomized_fault_schedules() {
    // Replay mode: `FAULTKIT_REPLAY='disk_chaos:seed#<n>'` runs exactly
    // that seed (specs naming other scenarios are ignored).
    if let Ok(spec) = std::env::var(REPLAY_ENV) {
        let (scen, plan_spec) = spec.rsplit_once(':').unwrap_or(("", spec.as_str()));
        if !scen.is_empty() && scen != SCENARIO {
            return;
        }
        let seed: u64 = plan_spec
            .strip_prefix("seed#")
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("bad {REPLAY_ENV} spec {spec:?} (want {SCENARIO}:seed#<n>)"));
        eprintln!("replaying single disk-chaos seed {seed}");
        run_seed(seed);
        return;
    }

    let count: u64 = std::env::var("DISK_SOAK_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let base: u64 = std::env::var("DISK_SOAK_BASE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2026);
    let series = series_recorder_if_requested(base, count);
    let from_archive = || {
        obskit::metrics::global()
            .counter("storage.repair.from_archive")
            .get()
    };
    let repairs_before = from_archive();
    for seed in base..base + count {
        let outcome = std::panic::catch_unwind(|| run_seed(seed));
        if let Some(rec) = &series {
            rec.mark(&format!("seed-{seed}"), &settled_snapshot())
                .expect("series mark");
        }
        if let Err(payload) = outcome {
            eprintln!(
                "\ndisk-chaos seed failed — reproduce with:\n  {REPLAY_ENV}='{SCENARIO}:seed#{seed}' \
                 cargo test -p integration-tests --test disk_chaos\n"
            );
            eprintln!(
                "trace timeline before the failure:\n{}",
                obskit::trace::dump_last(40)
            );
            std::panic::resume_unwind(payload);
        }
    }
    assert!(
        from_archive() > repairs_before,
        "no repair over seeds {base}..{} started from an archive image",
        base + count
    );
}

/// When `OBSKIT_SERIES=<path>` is set, stream a JSON-lines time series
/// with one interval per soak seed — validated by `cargo xtask
/// bench-gate --series` (sequential intervals, non-negative deltas,
/// every session drained by the final interval).
fn series_recorder_if_requested(base: u64, count: u64) -> Option<obskit::stream::Recorder> {
    let path = std::env::var("OBSKIT_SERIES").ok()?;
    let mut meta = BTreeMap::new();
    meta.insert("source".to_string(), SCENARIO.to_string());
    meta.insert("base".to_string(), base.to_string());
    meta.insert("seeds".to_string(), count.to_string());
    Some(
        obskit::stream::Recorder::create(std::path::Path::new(&path), &meta)
            .expect("create OBSKIT_SERIES"),
    )
}

/// The per-seed harness joins its client threads before returning, but
/// a server-side accept thread can still be dropping its pending-
/// admission guard when the seed's mark fires. Settle briefly so the
/// recorded gauge levels reflect teardown, not the race with it — the
/// series gate asserts `admission.pending` is zero by the final
/// interval, which is true once the guards finish dropping.
fn settled_snapshot() -> obskit::metrics::Snapshot {
    let deadline = std::time::Instant::now() + Duration::from_millis(500);
    loop {
        let snap = obskit::metrics::global().snapshot();
        let pending = snap.gauges.get("admission.pending").copied().unwrap_or(0);
        if pending == 0 || std::time::Instant::now() >= deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
