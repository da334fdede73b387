//! **Figure 6 + §3.5** — overheads of persisting a result set, using Q11
//! with the `Fraction` parameter swept to vary result size:
//!
//! * execute/load time for native ODBC (volatile result) vs Phoenix (its
//!   one-batch persist round trip: `SELECT … INTO T` plus the reopen);
//! * the per-statement step costs of the paper's four-request sequence
//!   (metadata probe, create table, `INSERT INTO T <select>`, reopen),
//!   sent here statement by statement over native ODBC, next to the
//!   parse and Phoenix's one-batch persist that replaces them;
//! * the per-tuple fetch cost, native vs Phoenix (reading a persistent
//!   table vs a volatile result).
//!
//! Env: `PHX_SF` (default 0.02), `PHX_SEED`.

use std::time::{Duration, Instant};

use bench::{
    env_f64, env_u64, fmt_ratio, fmt_secs, q11_fraction_sweep, start_loaded, tpch_server, TextTable,
};
use odbcsim::{DriverConfig, OdbcConnection};
use phoenix::{PhoenixConfig, PhoenixConnection};
use sqlengine::exec::select_into_columns;
use sqlengine::Column;
use workloads::tpch::{self, queries, TpchScale};

/// The paper's four persistence requests for `sql`, each timed, sent as
/// separate statements: the `WHERE 0=1` metadata probe, `CREATE TABLE`
/// from its metadata, the server-side `INSERT INTO T <select>`, and the
/// `SELECT * FROM T` reopen. The table is dropped afterwards.
fn paper_sequence(conn: &OdbcConnection, sql: &str, table: &str) -> [Duration; 4] {
    let timed = |stmt: &str| {
        let t = Instant::now();
        let st = conn.exec_direct(stmt).unwrap();
        (t.elapsed(), st)
    };
    let (probe, st) = timed(&format!("SELECT * FROM ({sql}) phx_md WHERE 0=1"));
    let probed: Vec<Column> = st
        .columns()
        .iter()
        .map(|(n, t)| Column::new(n.clone(), *t))
        .collect();
    let cols: Vec<String> = select_into_columns(&probed)
        .iter()
        .map(|c| format!("[{}] {}", c.name, c.dtype))
        .collect();
    let (create, _) = timed(&format!("CREATE TABLE {table} ({})", cols.join(", ")));
    let (load, _) = timed(&format!("INSERT INTO {table} {sql}"));
    let (reopen, st) = timed(&format!("SELECT * FROM {table}"));
    st.close().unwrap();
    conn.exec_direct(&format!("DROP TABLE {table}")).unwrap();
    [probe, create, load, reopen]
}

fn main() {
    let sf = env_f64("PHX_SF", 0.02);
    let seed = env_u64("PHX_SEED", 42);
    let scale = TpchScale::new(sf);
    eprintln!("[fig6] loading TPC-H sf={sf} ...");
    let server = start_loaded(tpch_server(), |c| tpch::load(c, scale, seed).map(|_| ()));

    let driver = DriverConfig {
        query_timeout: Some(Duration::from_secs(120)),
        ..Default::default()
    };
    let native = OdbcConnection::connect(&server, driver.clone()).unwrap();
    let px = PhoenixConnection::connect(
        &server,
        PhoenixConfig {
            driver: driver.clone(),
            ..Default::default()
        },
    )
    .unwrap();

    let mut table = TextTable::new(
        format!("Figure 6: Q11 execute/load times (sf={sf})"),
        &[
            "Result Set Size",
            "Native ODBC exec (s)",
            "Phoenix load (s)",
            "Phoenix total (s)",
            "Load/Exec Ratio",
        ],
    );

    let mut parse_times = Vec::new();
    let mut batch_times = Vec::new();
    let mut paper_steps: [Vec<Duration>; 4] = Default::default();
    let mut native_fetch = Vec::new();
    let mut phx_fetch = Vec::new();

    for (i, fraction) in q11_fraction_sweep().into_iter().enumerate() {
        let sql = queries::q11_with_fraction(fraction);

        // Native: execute (volatile result), then time per-tuple fetches.
        let t = Instant::now();
        let mut st = native.exec_direct(&sql).unwrap();
        let native_exec = t.elapsed();
        let t = Instant::now();
        let mut n_rows = 0u64;
        while st.fetch().unwrap().is_some() {
            n_rows += 1;
        }
        if n_rows > 0 {
            native_fetch.push(t.elapsed() / n_rows as u32);
        }
        if n_rows < 1 {
            continue;
        }

        // The paper's four requests, one at a time.
        let paper = paper_sequence(&native, &sql, &format!("fig6_paper_{i}"));
        for (steps, d) in paper_steps.iter_mut().zip(paper) {
            steps.push(d);
        }

        // Phoenix: persist; the step timings come from instrumentation.
        let t = Instant::now();
        px.exec(&sql).unwrap();
        let phx_total = t.elapsed();
        let timing = px.last_persist_timing().unwrap();
        parse_times.push(timing.parse);
        batch_times.push(timing.load);

        let t = Instant::now();
        let mut p_rows = 0u64;
        while px.fetch().unwrap().is_some() {
            p_rows += 1;
        }
        if p_rows > 0 {
            phx_fetch.push(t.elapsed() / p_rows as u32);
        }
        px.close_result();

        table.row(vec![
            n_rows.to_string(),
            fmt_secs(native_exec),
            fmt_secs(timing.load),
            fmt_secs(phx_total),
            fmt_ratio(timing.load, native_exec),
        ]);
    }
    table.emit("fig6_q11_persist");

    let avg = |xs: &[Duration]| -> Duration {
        if xs.is_empty() {
            Duration::ZERO
        } else {
            xs.iter().sum::<Duration>() / xs.len() as u32
        }
    };
    let us = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e6);
    let mut steps = TextTable::new(
        "§3.5: constant per-statement step costs and per-tuple fetch cost",
        &["Step", "Microseconds"],
    );
    steps.row(vec!["parse (intercept)".into(), us(avg(&parse_times))]);
    for (name, times) in [
        "paper: metadata (WHERE 0=1)",
        "paper: create persistent table",
        "paper: INSERT INTO T <select>",
        "paper: reopen SELECT * FROM T",
    ]
    .iter()
    .zip(&paper_steps)
    {
        steps.row(vec![name.to_string(), us(avg(times))]);
    }
    steps.row(vec![
        "Phoenix one-batch persist (SELECT … INTO + reopen)".into(),
        us(avg(&batch_times)),
    ]);
    steps.row(vec![
        "fetch per tuple, native ODBC".into(),
        us(avg(&native_fetch)),
    ]);
    steps.row(vec!["fetch per tuple, Phoenix".into(), us(avg(&phx_fetch))]);
    steps.emit("fig6_step_costs");
    bench::emit_json(
        "fig6_q11_persist",
        &[("sf", sf.to_string()), ("seed", seed.to_string())],
    );
}
