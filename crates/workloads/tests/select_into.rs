//! `SELECT … INTO` against the four-request persist sequence it replaces.
//!
//! For every TPC-H query and every SELECT the TPC-C transactions issue,
//! the table `SELECT … INTO` creates must match the one the old sequence
//! built — a `WHERE 0=1` metadata probe, a `CREATE TABLE` rendered from
//! the probe's columns, then `INSERT INTO T <select>` — in column names
//! and types, and must hold the plain SELECT's rows in the same order.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sqlengine::sql::parser::select_into_sql;
use sqlengine::types::{DataType, Row};
use sqlengine::{Column, Engine, Result};
use workloads::client::{EngineClient, ExecResult, SqlClient};
use workloads::tpcc::{self, txns, TpccScale};
use workloads::tpch::{self, queries, TpchScale};

fn engine() -> Arc<Engine> {
    let durable = sqlengine::Durable::new(Default::default());
    let engine = Arc::new(Engine::recover(&durable, Default::default()).unwrap());
    std::mem::forget(durable);
    engine
}

/// The `CREATE TABLE` the four-request sequence rendered from the probe's
/// columns: bracket-quoted names, an empty name as `c<i>`, a repeated
/// name (ignoring case) as `<name>_<i>`.
fn probe_create_table_sql(table: &str, columns: &[Column]) -> String {
    let mut seen = HashSet::new();
    let cols: Vec<String> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut n = if c.name.is_empty() {
                format!("c{}", i + 1)
            } else {
                c.name.clone()
            };
            if !seen.insert(n.to_ascii_lowercase()) {
                n = format!("{n}_{}", i + 1);
                seen.insert(n.to_ascii_lowercase());
            }
            let ty = match c.dtype {
                DataType::Int => "INT",
                DataType::Float => "FLOAT",
                DataType::Str => "VARCHAR(255)",
                DataType::Date => "DATE",
            };
            format!("[{n}] {ty}")
        })
        .collect();
    format!("CREATE TABLE {table} ({})", cols.join(", "))
}

/// (name, type, nullable) per column, and the primary key, of `table`.
fn shape(engine: &Engine, table: &str) -> (Vec<(String, DataType, bool)>, Vec<usize>) {
    let meta = engine.storage().catalog.resolve(table).unwrap();
    let schema = meta.read().schema.clone();
    let cols = schema
        .columns
        .iter()
        .map(|c| (c.name.clone(), c.dtype, c.nullable))
        .collect();
    (cols, schema.primary_key)
}

/// Persist `sql` both ways and compare the tables with the plain result.
fn check(engine: &Engine, client: &EngineClient, sql: &str, tag: &str) {
    let plain = client.query(sql).unwrap();

    let (old, new) = (format!("old_{tag}"), format!("new_{tag}"));
    let sid = engine.create_session().unwrap();
    let (probed, _) = engine
        .execute_collect(sid, &format!("SELECT * FROM ({sql}) phx_md WHERE 0=1"))
        .unwrap();
    engine
        .execute(sid, &probe_create_table_sql(&old, &probed))
        .unwrap();
    engine
        .execute(sid, &format!("INSERT INTO {old} {sql}"))
        .unwrap();
    engine.close_session(sid);
    client
        .execute(&select_into_sql(sql, &new).unwrap())
        .unwrap();

    assert_eq!(shape(engine, &new), shape(engine, &old), "{tag}: {sql}");
    let rows = |t: &str| -> Vec<Row> { client.query(&format!("SELECT * FROM {t}")).unwrap() };
    assert_eq!(rows(&new), plain, "{tag}: {sql}");
    assert_eq!(rows(&old), plain, "{tag}: {sql}");
    client
        .execute(&format!("DROP TABLE {old}; DROP TABLE {new}"))
        .unwrap();
}

#[test]
fn tpch_queries_persist_as_the_probe_sequence_did() {
    let engine = engine();
    let client = EngineClient::new(Arc::clone(&engine)).unwrap();
    tpch::load(&client, TpchScale::new(0.002), 7).unwrap();
    let all = queries::all_queries();
    assert_eq!(all.len(), queries::NUM_QUERIES);
    for (n, sql) in all {
        check(&engine, &client, &sql, &format!("q{n}"));
    }
}

/// Passes every statement through and keeps the distinct SELECTs.
struct Recorder<'a> {
    inner: &'a EngineClient,
    selects: RefCell<Vec<String>>,
}

impl SqlClient for Recorder<'_> {
    fn execute(&self, sql: &str) -> Result<ExecResult> {
        let mut selects = self.selects.borrow_mut();
        if sql.trim_start().starts_with("SELECT") && !selects.iter().any(|s| s == sql) {
            selects.push(sql.to_string());
        }
        drop(selects);
        self.inner.execute(sql)
    }
}

#[test]
fn tpcc_selects_persist_as_the_probe_sequence_did() {
    let engine = engine();
    let client = EngineClient::new(Arc::clone(&engine)).unwrap();
    let scale = TpccScale::tiny();
    tpcc::load(&client, scale, 3).unwrap();
    let rec = Recorder {
        inner: &client,
        selects: RefCell::new(Vec::new()),
    };
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..3 {
        txns::new_order(&rec, &mut rng, &scale).unwrap();
        txns::payment(&rec, &mut rng, &scale).unwrap();
        txns::order_status(&rec, &mut rng, &scale).unwrap();
        txns::delivery(&rec, &mut rng, &scale).unwrap();
        txns::stock_level(&rec, &mut rng, &scale).unwrap();
    }
    let selects = rec.selects.into_inner();
    assert!(selects.len() >= 15, "recorded {} SELECTs", selects.len());
    for (i, sql) in selects.iter().enumerate() {
        check(&engine, &client, sql, &format!("tpcc{i}"));
    }
}
