//! End-to-end workload validation: load seeded TPC-H/TPC-C databases and
//! run every query / transaction type against the engine.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sqlengine::{Column, Row, Value};
use workloads::client::{EngineClient, SqlClient};
use workloads::tpcc::{self, txns, TpccScale};
use workloads::tpch::{self, queries, refresh, TpchScale};

fn engine() -> std::sync::Arc<sqlengine::Engine> {
    let durable = sqlengine::Durable::new(Default::default());
    let engine =
        std::sync::Arc::new(sqlengine::Engine::recover(&durable, Default::default()).unwrap());
    // Leak the durable so the engine's Arc references stay valid for the
    // test duration (the engine holds its own Arcs; this is belt&braces).
    std::mem::forget(durable);
    engine
}

fn engine_client() -> EngineClient {
    EngineClient::new(engine()).unwrap()
}

/// FNV-1a over an order-sensitive encoding of one result: each column's
/// name and type, then each row's values in order. A float is hashed by
/// its bit pattern, so the digest moves if any value moves at all.
fn digest(schema: &[Column], rows: &[Row]) -> u64 {
    let mut bytes = Vec::new();
    for c in schema {
        bytes.extend_from_slice(c.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(format!("{:?}", c.dtype).as_bytes());
        bytes.push(0);
    }
    for row in rows {
        bytes.push(0xfe);
        for v in row {
            match v {
                Value::Null => bytes.push(0),
                Value::Int(i) => {
                    bytes.push(1);
                    bytes.extend_from_slice(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    bytes.push(2);
                    bytes.extend_from_slice(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    bytes.push(3);
                    bytes.extend_from_slice(&(s.len() as u64).to_le_bytes());
                    bytes.extend_from_slice(s.as_bytes());
                }
                Value::Date(d) => {
                    bytes.push(4);
                    bytes.extend_from_slice(&d.to_le_bytes());
                }
            }
        }
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Each TPC-H query's row count and [`digest`] at sf 0.002, seed 42.
const TPCH_ANSWERS: [(usize, usize, u64); 22] = [
    (1, 4, 0x1fdd3ef1cb0159c9),
    (2, 0, 0x05fa14ae360f7d6a),
    (3, 10, 0xb260de48b982ffdc),
    (4, 5, 0x4abe407346c09e0e),
    (5, 4, 0x77203086a3ec5d61),
    (6, 1, 0x6f9c65599e58a3a1),
    (7, 4, 0x11c97fd65ab9aef6),
    (8, 2, 0x1c737f1aa6af7aec),
    (9, 174, 0x63ffa2633f80b4a1),
    (10, 20, 0x3acd97806b2c4f8b),
    (11, 59, 0x5ba581c14c53f614),
    (12, 2, 0xc5607b052bb7d31c),
    (13, 21, 0xba74604cf7e5f31b),
    (14, 1, 0x0e39deba9518c1de),
    (15, 1, 0xac1de91c370ee7cf),
    (16, 60, 0x9356925966dc5023),
    (17, 1, 0x695b6102c2ade566),
    (18, 100, 0x164915dbcb9cfb83),
    (19, 1, 0xa380142a907e7ced),
    (20, 2, 0x51531e79746a6d96),
    (21, 1, 0xc028ed4d4e63e1f8),
    (22, 6, 0xb9b260c2540a3195),
];

#[test]
fn tpch_loads_and_all_22_queries_run() {
    let engine = engine();
    let client = EngineClient::new(std::sync::Arc::clone(&engine)).unwrap();
    let scale = TpchScale::new(0.002);
    let t0 = Instant::now();
    let counts = tpch::load(&client, scale, 42).unwrap();
    eprintln!("loaded {} rows in {:?}", counts.total(), t0.elapsed());
    assert_eq!(counts.region, 5);
    assert_eq!(counts.nation, 25);
    assert_eq!(counts.orders as i64, scale.orders());
    assert!(counts.lineitem as i64 >= scale.orders());

    // Every query gives the pinned answer: its schema and its rows, in
    // order, down to each float's last bit.
    let sid = engine.create_session().unwrap();
    let mut answers = Vec::new();
    for (i, sql) in queries::all_queries() {
        let t = Instant::now();
        let (schema, rows) = engine
            .execute_collect(sid, &sql)
            .unwrap_or_else(|e| panic!("Q{i} failed: {e}"));
        eprintln!("Q{i:02}: {} rows in {:?}", rows.len(), t.elapsed());
        answers.push((i, rows.len(), digest(&schema, &rows)));
    }
    engine.close_session(sid);
    assert_eq!(answers, TPCH_ANSWERS);

    // Q1 sanity: four (returnflag, linestatus) groups at most, count > 0.
    let rows = client.query(&queries::q1()).unwrap();
    assert!(!rows.is_empty() && rows.len() <= 4);
    let count_order = rows[0].last().unwrap().as_i64().unwrap();
    assert!(count_order > 0);
}

#[test]
fn tpch_refresh_functions_roundtrip() {
    let client = engine_client();
    let scale = TpchScale::new(0.001);
    tpch::load(&client, scale, 7).unwrap();
    let mut st = refresh::RefreshState::new(scale, 7);

    let before_orders = client.query("SELECT COUNT(*) FROM orders").unwrap()[0][0]
        .as_i64()
        .unwrap();
    let ins = refresh::rf1(&client, &mut st).unwrap();
    assert!(ins > 0);
    let after_rf1 = client.query("SELECT COUNT(*) FROM orders").unwrap()[0][0]
        .as_i64()
        .unwrap();
    assert_eq!(after_rf1 - before_orders, st.orders_per_refresh());

    let del = refresh::rf2(&client, &mut st).unwrap();
    assert!(del > 0);
    let after_rf2 = client.query("SELECT COUNT(*) FROM orders").unwrap()[0][0]
        .as_i64()
        .unwrap();
    assert_eq!(after_rf2, before_orders);
}

#[test]
fn tpcc_loads_and_all_txn_types_run() {
    let client = engine_client();
    let scale = TpccScale::tiny();
    tpcc::load(&client, scale, 99).unwrap();

    let stock = client.query("SELECT COUNT(*) FROM stock").unwrap()[0][0]
        .as_i64()
        .unwrap();
    assert_eq!(stock, scale.stock_rows());

    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..5 {
        txns::new_order(&client, &mut rng, &scale).unwrap();
        txns::payment(&client, &mut rng, &scale).unwrap();
        txns::order_status(&client, &mut rng, &scale).unwrap();
        txns::stock_level(&client, &mut rng, &scale).unwrap();
    }
    txns::delivery(&client, &mut rng, &scale).unwrap();

    // New orders advanced the district counters and inserted rows.
    let orders = client.query("SELECT COUNT(*) FROM orders").unwrap()[0][0]
        .as_i64()
        .unwrap();
    assert!(orders > scale.orders_per_district * scale.districts_per_warehouse);
    // History rows from payments.
    let hist = client.query("SELECT COUNT(*) FROM history").unwrap()[0][0]
        .as_i64()
        .unwrap();
    assert!(hist >= 5);
}

#[test]
fn tpcc_consistency_after_new_orders() {
    // Mini consistency check (spec §3.3.2.1): d_next_o_id - 1 equals the
    // max o_id per district.
    let client = engine_client();
    let scale = TpccScale::tiny();
    tpcc::load(&client, scale, 11).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..10 {
        let _ = txns::new_order(&client, &mut rng, &scale);
    }
    for d in 1..=scale.districts_per_warehouse {
        let next = client
            .query(&format!(
                "SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = {d}"
            ))
            .unwrap()[0][0]
            .as_i64()
            .unwrap();
        let max_o = client
            .query(&format!(
                "SELECT MAX(o_id) FROM orders WHERE o_w_id = 1 AND o_d_id = {d}"
            ))
            .unwrap()[0][0]
            .as_i64()
            .unwrap();
        assert_eq!(next - 1, max_o, "district {d}");
    }
}
