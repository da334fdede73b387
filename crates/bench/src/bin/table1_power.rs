//! **Table 1** — TPC-H power test: per-query (Q1–Q22) and refresh-function
//! (RF1/RF2) running times under native ODBC and under Phoenix/ODBC
//! (server-side result persistence), with difference and ratio columns.
//!
//! Each time is the median over the measured runs, next to the runs'
//! min–max.
//!
//! Environment overrides: `PHX_SF` (scale factor, default 0.01),
//! `PHX_RUNS` (measured repetitions, default 3), `PHX_SEED`.

use std::time::Duration;

use bench::measure::median;
use bench::{env_f64, env_u64, fmt_ratio, fmt_secs, start_loaded, tpch_server, TextTable};
use odbcsim::{DriverConfig, OdbcConnection};
use phoenix::{PhoenixConfig, PhoenixConnection};
use workloads::tpch::{self, queries, refresh, TpchScale};
use workloads::SqlClient;

fn driver_cfg() -> DriverConfig {
    DriverConfig {
        query_timeout: Some(Duration::from_secs(300)),
        ..Default::default()
    }
}

/// One full power run over a client: returns per-item (label, duration,
/// result-size) in suite order.
fn power_run(
    client: &impl SqlClient,
    rf_state: &mut refresh::RefreshState,
) -> Vec<(String, Duration, u64)> {
    let mut out = Vec::new();
    for (i, sql) in queries::all_queries() {
        let t = std::time::Instant::now();
        let rows = client.query(&sql).expect("query");
        out.push((format!("Q{i:02}"), t.elapsed(), rows.len() as u64));
    }
    let t = std::time::Instant::now();
    let n1 = refresh::rf1(client, rf_state).expect("rf1");
    out.push(("RF1".into(), t.elapsed(), n1));
    let t = std::time::Instant::now();
    let n2 = refresh::rf2(client, rf_state).expect("rf2");
    out.push(("RF2".into(), t.elapsed(), n2));
    out
}

/// One item over the measured runs: its time's median and min–max.
struct Spread {
    median: Duration,
    min: Duration,
    max: Duration,
}

impl Spread {
    fn range(&self) -> String {
        format!("{}-{}", fmt_secs(self.min), fmt_secs(self.max))
    }
}

/// Per item, in suite order: label, result size and time spread.
fn averaged(runs: Vec<Vec<(String, Duration, u64)>>) -> Vec<(String, Spread, u64)> {
    let n = runs[0].len();
    (0..n)
        .map(|i| {
            let label = runs[0][i].0.clone();
            let times: Vec<Duration> = runs.iter().map(|r| r[i].1).collect();
            let spread = Spread {
                min: times.iter().min().copied().unwrap_or_default(),
                max: times.iter().max().copied().unwrap_or_default(),
                median: median(times),
            };
            (label, spread, runs[0][i].2)
        })
        .collect()
}

fn main() {
    let sf = env_f64("PHX_SF", 0.01);
    let runs = env_u64("PHX_RUNS", 3) as usize;
    let seed = env_u64("PHX_SEED", 42);
    let scale = TpchScale::new(sf);

    eprintln!("[table1] loading TPC-H sf={sf} ...");
    let server = start_loaded(tpch_server(), |c| tpch::load(c, scale, seed).map(|_| ()));

    // A single refresh state across all runs keeps inserted order keys
    // unique (RF1 always inserts above the high-water mark, RF2 deletes
    // from the bottom, so the database size stays constant).
    let mut rf_state = refresh::RefreshState::new(scale, seed + 1);

    let warmup = env_u64("PHX_WARMUP", 1) as usize;

    // Native ODBC runs.
    eprintln!("[table1] native ODBC power runs ...");
    let native_conn = OdbcConnection::connect(&server, driver_cfg()).unwrap();
    for _ in 0..warmup {
        power_run(&native_conn, &mut rf_state);
    }
    let native = averaged(
        (0..runs)
            .map(|_| power_run(&native_conn, &mut rf_state))
            .collect(),
    );

    // Phoenix runs (server-side persistence, Section 2).
    eprintln!("[table1] Phoenix/ODBC power runs ...");
    let px = PhoenixConnection::connect(
        &server,
        PhoenixConfig {
            driver: driver_cfg(),
            ..Default::default()
        },
    )
    .unwrap();
    for _ in 0..warmup {
        power_run(&px, &mut rf_state);
    }
    let phoenix = averaged((0..runs).map(|_| power_run(&px, &mut rf_state)).collect());

    let mut table = TextTable::new(
        format!("Table 1: TPC-H power test (sf={sf}, median and min-max of {runs} runs)"),
        &[
            "Query/Update",
            "Result/Updates",
            "Native ODBC (s)",
            "Native min-max",
            "Phoenix/ODBC (s)",
            "Phoenix min-max",
            "Difference (s)",
            "Ratio",
        ],
    );
    let mut tot_q_native = Duration::ZERO;
    let mut tot_q_px = Duration::ZERO;
    let mut tot_u_native = Duration::ZERO;
    let mut tot_u_px = Duration::ZERO;
    for ((label, n, size), (_, p, _)) in native.iter().zip(&phoenix) {
        let (tn, tp) = (n.median, p.median);
        let diff = tp.as_secs_f64() - tn.as_secs_f64();
        table.row(vec![
            label.clone(),
            size.to_string(),
            fmt_secs(tn),
            n.range(),
            fmt_secs(tp),
            p.range(),
            format!("{diff:.3}"),
            fmt_ratio(tp, tn),
        ]);
        if label.starts_with('Q') {
            tot_q_native += tn;
            tot_q_px += tp;
        } else {
            tot_u_native += tn;
            tot_u_px += tp;
        }
    }
    table.row(vec![
        "Total (Query)".into(),
        String::new(),
        fmt_secs(tot_q_native),
        String::new(),
        fmt_secs(tot_q_px),
        String::new(),
        format!("{:.3}", tot_q_px.as_secs_f64() - tot_q_native.as_secs_f64()),
        fmt_ratio(tot_q_px, tot_q_native),
    ]);
    table.row(vec![
        "Total (Updates)".into(),
        String::new(),
        fmt_secs(tot_u_native),
        String::new(),
        fmt_secs(tot_u_px),
        String::new(),
        format!("{:.3}", tot_u_px.as_secs_f64() - tot_u_native.as_secs_f64()),
        fmt_ratio(tot_u_px, tot_u_native),
    ]);
    table.emit("table1_power");
    bench::emit_json(
        "table1_power",
        &[
            ("sf", sf.to_string()),
            ("runs", runs.to_string()),
            ("seed", seed.to_string()),
        ],
    );
}
