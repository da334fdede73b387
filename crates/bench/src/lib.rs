//! Shared infrastructure for the experiment harnesses that regenerate
//! every table and figure of the paper (see DESIGN.md §4 and the
//! `src/bin/*` binaries).

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use sqlengine::storage::disk::DiskModel;
use wire::{DbServer, GroupCommit, NetConfig, ServerConfig};

pub mod measure;

/// Standard network model for experiments: ~100 Mbit LAN with a 64 KiB
/// server output buffer (the paper's observed ~75 KB of buffering is this
/// plus the 16 KiB driver buffer).
pub fn paper_net() -> NetConfig {
    NetConfig {
        latency: Duration::from_micros(100),
        bytes_per_sec: Some(12_500_000),
        buffer_bytes: 64 * 1024,
        per_msg_cost: Duration::from_micros(20),
    }
}

/// Server preset for the TPC-H experiments (CPU-bound complex queries:
/// no artificial disk latency, big buffer pool).
pub fn tpch_server() -> ServerConfig {
    ServerConfig {
        disk_model: DiskModel::default(),
        pool_capacity: 1 << 16,
        net_c2s: paper_net(),
        net_s2c: paper_net(),
        row_batch: 16,
        faults: None,
        scrub_on_restart: false,
        // Single-session sweeps: a commit window would only add latency.
        group_commit: GroupCommit::default(),
        admission: wire::AdmissionConfig::default(),
    }
}

/// Server preset for the TPC-C experiment: per-I/O latency plus a small
/// buffer pool make the server disk-limited, as in the paper (DISK UTIL
/// 100%, CPU ~32%).
pub fn tpcc_server(pool_pages: usize, io_latency: Duration) -> ServerConfig {
    ServerConfig {
        disk_model: DiskModel::uniform(io_latency),
        pool_capacity: pool_pages,
        net_c2s: paper_net(),
        net_s2c: paper_net(),
        row_batch: 16,
        faults: None,
        scrub_on_restart: false,
        // The 4-user mix commits concurrently; one batch-leader fsync
        // covers the commits parked when every user inside a
        // transaction has parked, when 8 have parked, or when the 2 ms
        // window ends (`wal.flush.batch_size` in the JSON twin). A user
        // between transactions is not waited for.
        group_commit: GroupCommit::on(8, Duration::from_millis(2)),
        admission: wire::AdmissionConfig::default(),
    }
}

/// Start a server, run `load` against an in-process engine client (fast
/// path), checkpoint, and return the server.
pub fn start_loaded(
    config: ServerConfig,
    load: impl FnOnce(&workloads::EngineClient) -> sqlengine::Result<()>,
) -> DbServer {
    let server = DbServer::start(config).expect("server start");
    {
        let engine = server.engine().expect("engine");
        let client = workloads::EngineClient::new(engine).expect("session");
        load(&client).expect("load");
    }
    server
        .engine()
        .expect("engine")
        .checkpoint()
        .expect("checkpoint");
    server
}

/// Environment-variable override helpers (every harness parameter can be
/// tuned without recompiling).
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A simple fixed-width text table that mirrors the paper's layout.
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(title: impl Into<String>, header: &[&str]) -> TextTable {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::with_capacity(ncols);
            for (i, c) in cells.iter().enumerate().take(ncols) {
                parts.push(format!("{c:>width$}", width = widths[i]));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 3 * ncols + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }

    /// Print to stdout and save under `bench_results/<name>.txt`.
    pub fn emit(&self, name: &str) {
        let rendered = self.render();
        println!("{rendered}");
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let _ = fs::write(dir.join(format!("{name}.txt")), rendered);
    }
}

/// Write `bench_results/<name>.json` — the machine-readable twin of a
/// harness's text table. The payload is an obskit snapshot: run metadata
/// plus every counter/gauge/histogram accumulated in the process-global
/// registry during the run (wire round trips, recovery-phase durations,
/// persist-step costs, WAL timings, ...), rendered deterministically.
///
/// The round-trip and recovery-phase histograms are pre-registered so
/// their keys are always present, even for a mode that never exercised
/// them (e.g. a native-only run records no recovery).
pub fn emit_json(name: &str, meta: &[(&str, String)]) {
    let reg = obskit::metrics::global();
    reg.histogram("odbcsim.roundtrip.exec");
    reg.histogram("wal.flush.batch_size");
    for phase in phoenix::RecoveryPhases::NAMES {
        reg.histogram(phase);
    }
    let mut m = std::collections::BTreeMap::new();
    m.insert("bench".to_string(), name.to_string());
    for (k, v) in meta {
        m.insert((*k).to_string(), v.clone());
    }
    let json = obskit::export::snapshot_json(&m, &reg.snapshot(), &obskit::trace::snapshot());
    let dir = results_dir();
    // A missing twin must never pass silently: `cargo xtask bench-gate`
    // treats the JSON as the bench's output of record, so failing to
    // write it is a failed run, not a skipped nicety.
    fs::create_dir_all(&dir).unwrap_or_else(|e| {
        panic!(
            "emit_json({name}): cannot create results dir {}: {e}",
            dir.display()
        )
    });
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, json)
        .unwrap_or_else(|e| panic!("emit_json({name}): cannot write {}: {e}", path.display()));
}

/// Open the streaming JSON-lines series twin for a harness (see
/// [`obskit::stream`]): `bench_results/<name>.series.jsonl`, tagged with
/// the same metadata as the snapshot twin. Panics on I/O error for the
/// same reason [`emit_json`] does.
pub fn series_recorder(name: &str, meta: &[(&str, String)]) -> obskit::stream::Recorder {
    let mut m = std::collections::BTreeMap::new();
    m.insert("source".to_string(), name.to_string());
    for (k, v) in meta {
        m.insert((*k).to_string(), v.clone());
    }
    let path = results_dir().join(format!("{name}.series.jsonl"));
    obskit::stream::Recorder::create(&path, &m).unwrap_or_else(|e| {
        panic!(
            "series_recorder({name}): cannot create {}: {e}",
            path.display()
        )
    })
}

/// Where harnesses drop their outputs.
pub fn results_dir() -> PathBuf {
    std::env::var("PHX_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench_results"))
}

pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

pub fn fmt_ratio(a: Duration, b: Duration) -> String {
    if b.as_nanos() == 0 {
        "-".into()
    } else {
        format!("{:.3}", a.as_secs_f64() / b.as_secs_f64())
    }
}

// ---------------------------------------------------------------------------
// Shared recovery experiment (Figures 3 and 4)
// ---------------------------------------------------------------------------

/// One data point of the session-recovery experiment.
pub struct RecoveryPoint {
    pub result_size: u64,
    pub virtual_session: Duration,
    pub sql_state: Duration,
}

/// The §3.4 experiment: run Q11 at each fraction, fetch to within a few
/// tuples of the end, crash and restart the server, and measure the two
/// recovery phases when the outstanding fetch is serviced.
pub fn recovery_experiment(
    reposition: phoenix::RepositionMode,
    sf: f64,
    fractions: &[f64],
    seed: u64,
) -> (Vec<RecoveryPoint>, Duration) {
    use workloads::SqlClient as _;
    let scale = workloads::tpch::TpchScale::new(sf);
    // Row batches of 1 so the tail of the result is still server-side when
    // the crash happens (larger batches can leave the last few tuples in
    // the client driver buffer, where they survive trivially).
    let mut config = tpch_server();
    config.row_batch = 1;
    let server = start_loaded(config, |c| {
        workloads::tpch::load(c, scale, seed).map(|_| ())
    });

    // Reference: time to recompute Q11 (largest sweep size) and deliver
    // its full result over the network — the cost session recovery avoids
    // (the paper's "fraction of the time required to recompute a single
    // query" claim).
    let recompute = {
        let sql = workloads::tpch::queries::q11_with_fraction(
            fractions.iter().copied().fold(f64::MAX, f64::min),
        );
        let conn =
            odbcsim::OdbcConnection::connect(&server, odbcsim::DriverConfig::default()).unwrap();
        let t = std::time::Instant::now();
        let mut st = conn.exec_direct(&sql).unwrap();
        while st.fetch().unwrap().is_some() {}
        t.elapsed()
    };

    let mut points = Vec::new();
    for &fraction in fractions {
        let sql = workloads::tpch::queries::q11_with_fraction(fraction);
        // Learn the result size (also warms caches).
        let probe = workloads::EngineClient::new(server.engine().unwrap()).unwrap();
        let size = probe.query(&sql).unwrap().len() as u64;
        drop(probe);
        // Small results are fully inside the driver's initial prefetch and
        // would survive the crash without any recovery; the paper's sweep
        // starts at a handful of tuples but ours needs the tail to still
        // be server-side.
        if size < 8 {
            continue;
        }

        let mut cfg = phoenix::PhoenixConfig {
            reposition,
            ..Default::default()
        };
        // Tiny driver buffer so the post-crash fetch actually needs the
        // server (rather than being satisfied from client buffering).
        cfg.driver.buffer_bytes = 64;
        cfg.driver.query_timeout = Some(Duration::from_secs(60));
        let px = phoenix::PhoenixConnection::connect(&server, cfg).unwrap();
        px.exec(&sql).unwrap();
        for _ in 0..size - 3 {
            px.fetch().unwrap().unwrap();
        }
        // Crash and immediately restart: the paper measures recovery time
        // after the server is back, not server downtime.
        server.crash();
        server.restart().unwrap();
        // The outstanding fetch triggers detection + recovery.
        let row = px.fetch().unwrap();
        assert!(row.is_some(), "remaining tuples must be delivered");
        let t = px
            .last_recovery_timing()
            .expect("recovery must have happened");
        // Drain and clean up.
        while px.fetch().unwrap().is_some() {}
        px.close_result();
        points.push(RecoveryPoint {
            result_size: size,
            virtual_session: t.virtual_session,
            sql_state: t.sql_state,
        });
        px.close();
    }
    points.sort_by_key(|p| p.result_size);
    (points, recompute)
}

/// Emit a Figure 3/4-style table.
pub fn emit_recovery_table(title: &str, name: &str, points: &[RecoveryPoint], recompute: Duration) {
    let mut table = TextTable::new(
        title,
        &[
            "Result Set Size",
            "Virtual Session (s)",
            "SQL State (s)",
            "Total (s)",
        ],
    );
    for p in points {
        table.row(vec![
            p.result_size.to_string(),
            fmt_secs(p.virtual_session),
            fmt_secs(p.sql_state),
            fmt_secs(p.virtual_session + p.sql_state),
        ]);
    }
    table.row(vec![
        "(recompute Q11 + deliver)".into(),
        String::new(),
        String::new(),
        fmt_secs(recompute),
    ]);
    table.emit(name);
}

/// Default fraction sweep for the recovery and Q11-persist experiments:
/// spans result sizes from a handful of tuples to the full group count.
pub fn q11_fraction_sweep() -> Vec<f64> {
    vec![
        0.05, 0.03, 0.02, 0.015, 0.01, 0.007, 0.005, 0.003, 0.002, 0.001, 0.0005, 0.0001, 0.00001,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new("Demo", &["a", "value"]);
        t.row(vec!["x".into(), "1.5".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| longer |"));
    }

    #[test]
    fn env_overrides_parse() {
        std::env::set_var("PHX_TEST_ENV_F64", "2.5");
        assert_eq!(env_f64("PHX_TEST_ENV_F64", 1.0), 2.5);
        assert_eq!(env_f64("PHX_TEST_ENV_MISSING", 1.0), 1.0);
        std::env::set_var("PHX_TEST_ENV_U64", "7");
        assert_eq!(env_u64("PHX_TEST_ENV_U64", 1), 7);
    }
}
