//! **Scale sweep** — session count vs. admission and recovery latency.
//!
//! The paper's experiments run a handful of sessions; this harness asks
//! what the persistent-session machinery costs when a *fleet* hangs off
//! one server: for each point in the sweep it connects N Phoenix
//! sessions through the admission gate, runs a wrapped modification per
//! session, crashes the server mid-fleet, and measures the per-session
//! admission (connect) latency and post-crash recovery latency as the
//! reconnect herd squeezes through the bounded pending gate.
//!
//! Output: a text table of p50/p99 per point plus the machine-readable
//! twin `bench_results/session_scale.json` (obskit snapshot with the
//! `session_scale.admit` / `session_scale.recover` histograms and
//! per-point quantiles in the metadata), plus the streaming series twin
//! `bench_results/session_scale.series.jsonl` — one interval per sweep
//! point, validated by `cargo xtask bench-gate --series` (pending peak
//! bounded by the gate cap, every session drained by the final mark).
//!
//! Env: `PHX_SCALE_SWEEP` (comma list, default `100,250,500,1000,2000`),
//! `PHX_SCALE_PENDING` (pending-accept cap, default 32), `PHX_SCALE_SEED`.

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bench::{env_u64, TextTable};
use phoenix::{ExecKind, PhoenixConfig, PhoenixConnection, ReconnectPolicy};
use sqlengine::Error;
use wire::{AdmissionConfig, DbServer, ServerConfig};
use workloads::{EngineClient, SqlClient};

fn px_cfg(seed: u64) -> PhoenixConfig {
    let mut cfg = PhoenixConfig {
        reconnect: ReconnectPolicy {
            max_attempts: 10_000,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            deadline: Duration::from_secs(120),
            masking_retries: 1_000,
            jitter_seed: seed,
        },
        ..Default::default()
    };
    cfg.driver.buffer_bytes = 512;
    cfg.driver.query_timeout = Some(Duration::from_secs(10));
    cfg.driver.request_deadline = Some(Duration::from_secs(15));
    cfg
}

/// Bring the server back up; with the fleet already hammering the
/// listener the first restart attempt can race a reconnecting client.
fn restart_with_retry(server: &DbServer, attempts: u32) {
    for _ in 0..attempts.max(1) {
        if server.is_up() || server.restart().is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("server did not restart after {attempts} attempts");
}

/// One wrapped insert, retrying the two failure modes a real client
/// retries: a wait-die deadlock victim (definitively not applied) and a
/// resumable recovery exhaustion.
fn wrapped_insert(px: &PhoenixConnection, id: i64) {
    loop {
        match px.exec(&format!("INSERT INTO orders VALUES ({id}, 1)")) {
            Ok(ExecKind::RowCount(1)) => return,
            Ok(other) => panic!("insert {id}: unexpected {other:?}"),
            Err(Error::Deadlock) => std::thread::sleep(Duration::from_millis(2)),
            Err(Error::RecoveryExhausted) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("insert {id}: {e:?}"),
        }
    }
}

struct Point {
    sessions: usize,
    admit_us: Vec<u64>,
    recover_us: Vec<u64>,
    bytes_per_session: u64,
    shed: u64,
    pending_peak: i64,
}

fn run_point(sessions: usize, pending_cap: usize, seed: u64) -> Point {
    let mut cfg = ServerConfig::instant_net();
    cfg.admission = AdmissionConfig {
        max_sessions: sessions * 4,
        pending_accepts: pending_cap,
        idle_timeout: Duration::from_secs(60),
        handshake_timeout: Duration::from_secs(10),
    };
    let server = DbServer::start(cfg).unwrap();
    {
        let client = EngineClient::new(server.engine().unwrap()).unwrap();
        client
            .execute("CREATE TABLE orders (id INT PRIMARY KEY, qty INT)")
            .unwrap();
        server.engine().unwrap().checkpoint().unwrap();
    }

    let connected = Arc::new(Barrier::new(sessions + 1));
    let pre_crash = Arc::new(Barrier::new(sessions + 1));
    let post_restart = Arc::new(Barrier::new(sessions + 1));
    let admit_us = Arc::new(Mutex::new(Vec::with_capacity(sessions)));
    let recover_us = Arc::new(Mutex::new(Vec::with_capacity(sessions)));

    let mut handles = Vec::with_capacity(sessions);
    for k in 0..sessions {
        let server = server.clone();
        let connected = Arc::clone(&connected);
        let pre_crash = Arc::clone(&pre_crash);
        let post_restart = Arc::clone(&post_restart);
        let admit_us = Arc::clone(&admit_us);
        let recover_us = Arc::clone(&recover_us);
        // Small stacks: the recovery path is shallow and 2000 default
        // 8 MiB stacks would be needlessly heavy.
        let h = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                // Admission latency: first successful connect, shed
                // retries included (that wait is the admission cost the
                // gate imposes on an arriving fleet).
                let t = Instant::now();
                let px = loop {
                    match PhoenixConnection::connect(&server, px_cfg(seed)) {
                        Ok(px) => break px,
                        Err(Error::ServerBusy { retry_after }) => {
                            std::thread::sleep(retry_after + Duration::from_micros(k as u64 % 97));
                        }
                        Err(e) => panic!("connect {k}: {e:?}"),
                    }
                };
                admit_us
                    .lock()
                    .unwrap()
                    .push(t.elapsed().as_micros() as u64);
                connected.wait();
                wrapped_insert(&px, k as i64 * 10 + 1);
                pre_crash.wait();
                post_restart.wait();
                // Recovery latency: the first post-crash call detects the
                // dead link, re-admits both connections through the gate,
                // replays phase 1/2 and then applies the insert.
                let t = Instant::now();
                wrapped_insert(&px, k as i64 * 10 + 2);
                recover_us
                    .lock()
                    .unwrap()
                    .push(t.elapsed().as_micros() as u64);
                px.close();
            })
            .unwrap();
        handles.push(h);
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
    let mut admit_us = Arc::try_unwrap(admit_us).unwrap().into_inner().unwrap();
    let mut recover_us = Arc::try_unwrap(recover_us).unwrap().into_inner().unwrap();
    admit_us.sort_unstable();
    recover_us.sort_unstable();
    Point {
        sessions,
        admit_us,
        recover_us,
        // One link serves one virtual session.
        bytes_per_session: st.traffic_total / sessions as u64,
        shed: st.shed,
        pending_peak: st.pending_peak,
    }
}

/// Exact order statistic over a sorted sample (nearest-rank).
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let sweep: Vec<usize> = std::env::var("PHX_SCALE_SWEEP")
        .unwrap_or_else(|_| "100,250,500,1000,2000".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let pending_cap = env_u64("PHX_SCALE_PENDING", 32) as usize;
    let seed = env_u64("PHX_SCALE_SEED", 2026);

    let reg = obskit::metrics::global();
    let admit_hist = reg.histogram("session_scale.admit");
    let recover_hist = reg.histogram("session_scale.recover");
    let series = bench::series_recorder(
        "session_scale",
        &[
            ("pending_cap", pending_cap.to_string()),
            ("seed", seed.to_string()),
        ],
    );
    series.mark("setup", &reg.snapshot()).expect("series mark");

    let mut table = TextTable::new(
        format!("Session scale sweep (pending gate {pending_cap}, seed {seed})"),
        &[
            "sessions",
            "admit p50 (us)",
            "admit p99 (us)",
            "recover p50 (ms)",
            "recover p99 (ms)",
            "bytes/session",
            "shed",
            "pending peak",
        ],
    );
    let mut meta: Vec<(String, String)> = vec![
        ("pending_cap".into(), pending_cap.to_string()),
        ("seed".into(), seed.to_string()),
        (
            "sweep".into(),
            sweep
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
        ),
    ];
    for &sessions in &sweep {
        let p = run_point(sessions, pending_cap, seed);
        for &v in &p.admit_us {
            admit_hist.record(v);
        }
        for &v in &p.recover_us {
            recover_hist.record(v);
        }
        table.row(vec![
            p.sessions.to_string(),
            pct(&p.admit_us, 0.50).to_string(),
            pct(&p.admit_us, 0.99).to_string(),
            format!("{:.1}", pct(&p.recover_us, 0.50) as f64 / 1e3),
            format!("{:.1}", pct(&p.recover_us, 0.99) as f64 / 1e3),
            p.bytes_per_session.to_string(),
            p.shed.to_string(),
            p.pending_peak.to_string(),
        ]);
        for (k, v) in [
            ("admit_p50_us", pct(&p.admit_us, 0.50)),
            ("admit_p99_us", pct(&p.admit_us, 0.99)),
            ("recover_p50_us", pct(&p.recover_us, 0.50)),
            ("recover_p99_us", pct(&p.recover_us, 0.99)),
            ("bytes_per_session", p.bytes_per_session),
            ("shed", p.shed),
        ] {
            meta.push((format!("n{sessions}.{k}"), v.to_string()));
        }
        series
            .mark(&format!("n{sessions}"), &reg.snapshot())
            .expect("series mark");
    }
    series.mark("done", &reg.snapshot()).expect("series mark");
    table.emit("session_scale");
    let meta_refs: Vec<(&str, String)> =
        meta.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    bench::emit_json("session_scale", &meta_refs);
}
