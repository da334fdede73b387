//! TPC-C statements reach their rows through the primary-key index: every
//! predicate pins the whole key (a point read) or its leading `w_id` /
//! `d_id` columns (a prefix range), so no transaction scans a table.
//!
//! The tests read the process-global `sqlengine.access.*` counters, so
//! they serialize on [`serial`].

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;

use workloads::client::EngineClient;
use workloads::tpcc::{self, txns, TpccScale};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn loaded(scale: TpccScale) -> EngineClient {
    let durable = sqlengine::Durable::new(Default::default());
    let engine =
        std::sync::Arc::new(sqlengine::Engine::recover(&durable, Default::default()).unwrap());
    std::mem::forget(durable);
    let client = EngineClient::new(engine).unwrap();
    tpcc::load(&client, scale, 3).unwrap();
    client
}

/// (point, prefix, full) access-path counts so far.
fn paths() -> [u64; 3] {
    let m = obskit::metrics::global();
    [
        m.counter("sqlengine.access.point").get(),
        m.counter("sqlengine.access.prefix").get(),
        m.counter("sqlengine.access.full").get(),
    ]
}

fn paths_of(run: impl FnOnce()) -> [u64; 3] {
    let before = paths();
    run();
    let after = paths();
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn one_delivery_runs_no_full_scan() {
    let _g = serial();
    let scale = TpccScale::tiny();
    let client = loaded(scale);
    let mut rng = StdRng::seed_from_u64(1);
    let [point, prefix, full] = paths_of(|| {
        txns::delivery(&client, &mut rng, &scale).unwrap();
    });
    // Per district: the oldest new order, the order lines' update and
    // their sum are prefix reads; the new-order delete, the order read and
    // update and the customer update are point reads.
    let d = scale.districts_per_warehouse as u64;
    assert_eq!((point, prefix, full), (4 * d, 3 * d, 0));
}

#[test]
fn no_tpcc_transaction_type_runs_a_full_scan() {
    let _g = serial();
    let scale = TpccScale::tiny();
    let client = loaded(scale);
    let mut rng = StdRng::seed_from_u64(2);
    let [point, prefix, full] = paths_of(|| {
        for _ in 0..10 {
            txns::new_order(&client, &mut rng, &scale).unwrap();
            txns::payment(&client, &mut rng, &scale).unwrap();
            txns::order_status(&client, &mut rng, &scale).unwrap();
            txns::delivery(&client, &mut rng, &scale).unwrap();
            txns::stock_level(&client, &mut rng, &scale).unwrap();
        }
    });
    assert!(point > 0 && prefix > 0);
    assert_eq!(full, 0);
}
