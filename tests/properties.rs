//! Property-based tests over core invariants, spanning crates:
//! encodings round-trip, pages behave like a model, and — the big one —
//! recovery preserves exactly the committed transactions no matter where
//! the crash lands.

use proptest::prelude::*;

use sqlengine::engine::{Durable, Engine};
use sqlengine::schema::{decode_row, encode_row};
use sqlengine::storage::disk::DiskModel;
use sqlengine::types::{sql_like, Value};
use sqlengine::wal::recovery::RecoveryConfig;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only (NaN breaks equality, NULL is the SQL way).
        any::<i32>().prop_map(|x| Value::Float(x as f64 / 7.0)),
        "[a-zA-Z0-9 _'-]{0,40}".prop_map(Value::Str),
        (-100_000i32..100_000).prop_map(Value::Date),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_encoding_round_trips(row in prop::collection::vec(arb_value(), 0..12)) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let back = decode_row(&buf).unwrap();
        prop_assert_eq!(back, row);
    }

    #[test]
    fn row_decoding_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_row(&bytes); // must return Err, not panic
    }

    #[test]
    fn like_matches_reference_implementation(
        text in "[ab]{0,8}",
        pattern in "[ab%_]{0,6}",
    ) {
        // Reference: dynamic-programming LIKE.
        fn reference(t: &[u8], p: &[u8]) -> bool {
            let (n, m) = (t.len(), p.len());
            let mut dp = vec![vec![false; m + 1]; n + 1];
            dp[0][0] = true;
            for j in 1..=m {
                if p[j - 1] == b'%' {
                    dp[0][j] = dp[0][j - 1];
                }
            }
            for i in 1..=n {
                for j in 1..=m {
                    dp[i][j] = match p[j - 1] {
                        b'%' => dp[i][j - 1] || dp[i - 1][j],
                        b'_' => dp[i - 1][j - 1],
                        c => dp[i - 1][j - 1] && t[i - 1] == c,
                    };
                }
            }
            dp[n][m]
        }
        prop_assert_eq!(
            sql_like(&text, &pattern),
            reference(text.as_bytes(), pattern.as_bytes())
        );
    }
}

// ---------------------------------------------------------------------------
// Storage checksums: round-trip and single-bit-flip detection
// ---------------------------------------------------------------------------

use sqlengine::storage::checksum::{crc64, wal_record_crc};
use sqlengine::storage::disk::{page_image_ok, PAGE_SIZE};
use sqlengine::storage::page::PAGE_CONTENT;

/// Stamp a page image exactly the way `MemDisk::write_page` does: CRC-64
/// over the content region, stored big-endian in the 8-byte trailer.
fn stamped_page(content: &[u8]) -> Box<[u8; PAGE_SIZE]> {
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    buf[..content.len()].copy_from_slice(content);
    let crc = crc64(&buf[..PAGE_CONTENT]);
    buf[PAGE_CONTENT..].copy_from_slice(&crc.to_be_bytes());
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A freshly stamped page always verifies.
    #[test]
    fn page_checksum_round_trips(
        content in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let buf = stamped_page(&content);
        prop_assert!(page_image_ok(&buf));
    }

    /// Flipping any single bit anywhere in the image — content or
    /// trailer — is detected.
    #[test]
    fn page_checksum_detects_any_single_bit_flip(
        content in prop::collection::vec(any::<u8>(), 0..512),
        offset in 0usize..PAGE_SIZE,
        bit in 0u8..8,
    ) {
        let mut buf = stamped_page(&content);
        buf[offset] ^= 1 << bit;
        prop_assert!(!page_image_ok(&buf));
    }

    /// A WAL record CRC re-verifies over the same payload and LSN, and
    /// any single bit flip in the payload is detected.
    #[test]
    fn wal_record_crc_round_trips_and_detects_bit_flips(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        lsn in any::<u64>(),
        bit in any::<u32>(),
    ) {
        let crc = wal_record_crc(&payload, lsn);
        prop_assert_eq!(crc, wal_record_crc(&payload, lsn));
        let mut damaged = payload.clone();
        let i = (bit as usize / 8) % damaged.len();
        damaged[i] ^= 1 << (bit % 8);
        prop_assert_ne!(crc, wal_record_crc(&damaged, lsn));
    }

    /// The CRC binds the record to its position: the same payload at a
    /// different LSN (a stream shifted by a lying fsync) never verifies.
    #[test]
    fn wal_record_crc_binds_the_lsn(
        payload in prop::collection::vec(any::<u8>(), 0..128),
        lsn in any::<u64>(),
        shift in 1u64..1_000_000,
    ) {
        prop_assert_ne!(
            wal_record_crc(&payload, lsn),
            wal_record_crc(&payload, lsn.wrapping_add(shift)),
        );
    }
}

// ---------------------------------------------------------------------------
// Lock-manager invariant
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LockOp {
    Lock {
        txn: u64,
        row: Option<u64>,
        mode: u8,
    },
    Release {
        txn: u64,
    },
}

fn arb_lock_ops() -> impl Strategy<Value = Vec<LockOp>> {
    prop::collection::vec(
        prop_oneof![
            ((1u64..6), prop::option::of(0u64..4), (0u8..4))
                .prop_map(|(txn, row, mode)| LockOp::Lock { txn, row, mode }),
            (1u64..6).prop_map(|txn| LockOp::Release { txn }),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any sequence of grants and releases, no two transactions hold
    /// incompatible modes on the same target.
    #[test]
    fn lock_manager_never_grants_incompatible_modes(ops in arb_lock_ops()) {
        use sqlengine::txn::locks::{LockManager, LockMode, LockTarget};
        use std::time::Duration;
        let mgr = LockManager::new(Duration::from_millis(1));
        let modes = [
            LockMode::IntentionShared,
            LockMode::IntentionExclusive,
            LockMode::Shared,
            LockMode::Exclusive,
        ];
        // Compatibility matrix (IS, IX, S, X).
        let compat = |a: u8, b: u8| -> bool {
            matches!(
                (a, b),
                (0, 0) | (0, 1) | (1, 0) | (1, 1) | (0, 2) | (2, 0) | (2, 2)
            )
        };
        let mut held: std::collections::HashMap<u64, Vec<LockTarget>> = Default::default();
        let targets: Vec<LockTarget> = {
            let mut v = vec![LockTarget::table(1)];
            for r in 0..4 {
                v.push(LockTarget::row(1, r));
            }
            v
        };
        for op in ops {
            match op {
                LockOp::Lock { txn, row, mode } => {
                    let target = match row {
                        Some(r) => LockTarget::row(1, r),
                        None => LockTarget::table(1),
                    };
                    if mgr.lock(txn, target, modes[mode as usize]).is_ok() {
                        held.entry(txn).or_default().push(target);
                    }
                }
                LockOp::Release { txn } => {
                    if let Some(ts) = held.remove(&txn) {
                        mgr.release_all(txn, ts);
                    }
                }
            }
            // Invariant: for every target, all pairs of holders' mode bits
            // are pairwise compatible.
            for t in &targets {
                let holders = mgr.holders(*t);
                for (i, (txa, ma)) in holders.iter().enumerate() {
                    for (txb, mb) in holders.iter().skip(i + 1) {
                        prop_assert_ne!(txa, txb);
                        for a in 0..4u8 {
                            for b in 0..4u8 {
                                if ma & (1 << a) != 0 && mb & (1 << b) != 0 {
                                    prop_assert!(
                                        compat(a, b),
                                        "incompatible modes {a} vs {b} on {t:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Group-commit invariants
// ---------------------------------------------------------------------------

use std::sync::Arc;

use faultkit::disk::{DiskFaultKind, DiskPlan};
use sqlengine::wal::log::{GroupCommit, LogManager, LogRecord, LogStore};

/// What one committing session observed for one commit.
#[derive(Debug)]
struct CommitObs {
    txn: u64,
    acked: bool,
    /// Commit record LSN and the flush watermark read at the ack.
    lsn: u64,
    flushed_at_ack: u64,
    /// `flushed_lsn()` samples in program order on this thread.
    watermark: Vec<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent committers through the group-commit path, with an
    /// optional injected fsync failure partway through. Invariants:
    ///
    /// * the flush watermark is monotone (per observing thread);
    /// * an acked commit's LSN is below the watermark at ack time —
    ///   durability precedes acknowledgment;
    /// * one fsync never covers a gap: the durable stream re-parses as
    ///   one contiguous CRC-clean record run, and the watermark equals
    ///   the durable length;
    /// * fail-stop covers the whole batch: the durable commit set is
    ///   *exactly* the acked set — an errored waiter's record never
    ///   reached the device, an acked one always did.
    ///
    /// Each committer is in group-commit company from before its append
    /// until its commit returns, and `idlers` more threads join company
    /// and leave without committing, as a rollback or a read-only
    /// commit does. Company decides only when a batch flushes, so the
    /// invariants hold for every count.
    #[test]
    fn group_commit_acks_are_durable_and_gap_free(
        sessions in 1usize..5,
        commits_per in 1usize..4,
        max_batch in 1usize..6,
        max_wait_us in 0u64..400,
        fail_at in prop::option::of(1u64..5),
        idlers in 0usize..3,
        idle_us in 0u64..400,
    ) {
        use std::time::Duration;
        let store = Arc::new(LogStore::new());
        let log = Arc::new(LogManager::with_group(
            Arc::clone(&store),
            GroupCommit::on(max_batch, Duration::from_micros(max_wait_us)),
        ));
        if let Some(n) = fail_at {
            store.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::FsyncFail, n)));
        }

        let obs: Vec<CommitObs> = std::thread::scope(|s| {
            for _ in 0..idlers {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    log.join_company();
                    std::thread::sleep(Duration::from_micros(idle_us));
                    log.leave_company();
                });
            }
            let handles: Vec<_> = (0..sessions)
                .map(|t| {
                    let log = Arc::clone(&log);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..commits_per {
                            let txn = (t * 100 + i) as u64;
                            let mut watermark = vec![log.flushed_lsn()];
                            log.join_company();
                            let lsn = log.append(&LogRecord::Commit { txn });
                            let acked = log.commit_flush(lsn).is_ok();
                            let flushed_at_ack = log.flushed_lsn();
                            log.leave_company();
                            watermark.push(flushed_at_ack);
                            out.push(CommitObs { txn, acked, lsn, flushed_at_ack, watermark });
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });

        for o in &obs {
            prop_assert!(
                o.watermark.windows(2).all(|w| w[0] <= w[1]),
                "watermark went backwards: {o:?}"
            );
            if o.acked {
                prop_assert!(
                    o.flushed_at_ack > o.lsn,
                    "acked before durable: {o:?}"
                );
            }
        }

        // Contiguity: a clean re-parse of the kept log is the no-gap
        // proof (`kept_records` walks frame to frame from the log's base
        // and fails on any hole), and the watermark matches its end.
        let recs = store.kept_records().unwrap();
        prop_assert_eq!(log.flushed_lsn(), store.durable_end());
        prop_assert_eq!(log.company(), 0);

        let mut durable: Vec<u64> = recs
            .iter()
            .map(|(_, r)| match r {
                LogRecord::Commit { txn } => *txn,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        durable.sort_unstable();
        let mut acked: Vec<u64> = obs.iter().filter(|o| o.acked).map(|o| o.txn).collect();
        acked.sort_unstable();
        prop_assert_eq!(durable, acked);

        // If the device failed, the manager is poisoned and every
        // commit that raced the failed batch errored out (fail-stop for
        // the whole batch, checked via the exact set equality above).
        if fail_at.is_some() && obs.iter().any(|o| !o.acked) {
            prop_assert!(log.is_poisoned());
        }
    }
}

// ---------------------------------------------------------------------------
// Crash-recovery equivalence
// ---------------------------------------------------------------------------

/// A scripted workload: a sequence of transactions, each a list of ops,
/// each transaction either committed or left in-flight at the crash.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Delete(i64),
    Update(i64, i64),
}

fn arb_txn() -> impl Strategy<Value = (Vec<Op>, bool)> {
    (
        prop::collection::vec(
            prop_oneof![
                (0i64..64).prop_map(Op::Insert),
                (0i64..64).prop_map(Op::Delete),
                ((0i64..64), (0i64..1000)).prop_map(|(k, v)| Op::Update(k, v)),
            ],
            1..8,
        ),
        any::<bool>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Apply transactions through the real engine; crash without a clean
    /// shutdown; recover; the surviving state must equal replaying only
    /// the *committed* transactions against an in-memory model.
    #[test]
    fn recovery_preserves_exactly_the_committed_state(
        txns in prop::collection::vec(arb_txn(), 1..10)
    ) {
        let durable = Durable::new(DiskModel::default());
        let mut model: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
        {
            let engine = Engine::recover(&durable, RecoveryConfig::default()).unwrap();
            let sid = engine.create_session().unwrap();
            engine
                .execute(sid, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
                .unwrap();
            for (ops, commit) in &txns {
                engine.execute(sid, "BEGIN TRAN").unwrap();
                let mut shadow = model.clone();
                let mut ok = true;
                for op in ops {
                    let r = match op {
                        Op::Insert(k) => {
                            let r = engine.execute(sid, &format!("INSERT INTO kv VALUES ({k}, 0)"));
                            if r.is_ok() {
                                shadow.insert(*k, 0);
                            }
                            r.map(|_| ())
                        }
                        Op::Delete(k) => {
                            let r = engine.execute(sid, &format!("DELETE FROM kv WHERE k = {k}"));
                            if r.is_ok() {
                                shadow.remove(k);
                            }
                            r.map(|_| ())
                        }
                        Op::Update(k, v) => {
                            let r = engine
                                .execute(sid, &format!("UPDATE kv SET v = {v} WHERE k = {k}"));
                            if r.is_ok() && shadow.contains_key(k) {
                                shadow.insert(*k, *v);
                            }
                            r.map(|_| ())
                        }
                    };
                    if r.is_err() {
                        // Duplicate-key insert aborts the transaction.
                        ok = false;
                        break;
                    }
                }
                if ok && *commit {
                    engine.execute(sid, "COMMIT").unwrap();
                    model = shadow;
                }
                // else: either errored (already rolled back) or left
                // in-flight — don't commit; the model keeps its old state.
                else if ok {
                    // Leave the transaction open and start a new session so
                    // the next BEGIN TRAN is legal; its locks die with the
                    // crash. To keep the script simple, roll it back here
                    // with probability implied by `commit=false`.
                    engine.execute(sid, "ROLLBACK").unwrap();
                }
            }
            // Make everything written so far durable-or-lost per WAL rules,
            // then crash without checkpointing.
            engine.storage().log.flush_all().unwrap();
            durable.fence();
        }

        let engine = Engine::recover(&durable, RecoveryConfig::default()).unwrap();
        let sid = engine.create_session().unwrap();
        let (_, rows) = engine
            .execute_collect(sid, "SELECT k, v FROM kv ORDER BY k")
            .unwrap();
        let recovered: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        let expected: Vec<(i64, i64)> = model.into_iter().collect();
        prop_assert_eq!(recovered, expected);
    }

    /// Aggregations computed by the engine agree with computing them on
    /// the fetched base data (metamorphic test on GROUP BY/SUM/COUNT).
    #[test]
    fn group_by_agrees_with_model(rows in prop::collection::vec((0i64..6, -50i64..50), 1..60)) {
        let durable = Durable::new(DiskModel::default());
        let engine = Engine::recover(&durable, RecoveryConfig::default()).unwrap();
        let sid = engine.create_session().unwrap();
        engine
            .execute(sid, "CREATE TABLE g (grp INT, v INT)")
            .unwrap();
        let vals: Vec<String> = rows.iter().map(|(g, v)| format!("({g}, {v})")).collect();
        engine
            .execute(sid, &format!("INSERT INTO g VALUES {}", vals.join(",")))
            .unwrap();
        let (_, out) = engine
            .execute_collect(
                sid,
                "SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM g GROUP BY grp ORDER BY grp",
            )
            .unwrap();

        let mut model: std::collections::BTreeMap<i64, Vec<i64>> = Default::default();
        for (g, v) in &rows {
            model.entry(*g).or_default().push(*v);
        }
        prop_assert_eq!(out.len(), model.len());
        for (row, (g, vs)) in out.iter().zip(model.iter()) {
            prop_assert_eq!(row[0].as_i64().unwrap(), *g);
            prop_assert_eq!(row[1].as_i64().unwrap(), vs.len() as i64);
            prop_assert_eq!(row[2].as_i64().unwrap(), vs.iter().sum::<i64>());
            prop_assert_eq!(row[3].as_i64().unwrap(), *vs.iter().min().unwrap());
            prop_assert_eq!(row[4].as_i64().unwrap(), *vs.iter().max().unwrap());
        }
    }
}

// ---------------------------------------------------------------------------
// Page repair after log truncation
// ---------------------------------------------------------------------------

use sqlengine::schema::{Column, TableSchema};
use sqlengine::storage::disk::{MemDisk, PageId};
use sqlengine::storage::heap::DdlBatch;
use sqlengine::storage::Storage;
use sqlengine::types::DataType;
use sqlengine::wal::recovery::{bootstrap, recover};

/// One step of a storage-kernel script. The same script runs on a
/// subject, whose disk pages get damaged, and on an undamaged twin.
#[derive(Debug, Clone)]
enum PageOp {
    /// Insert this many rows into table `t{0}`; new pages get allocated.
    Insert(usize, u8),
    /// Delete the rows of table `t{0}` whose key is a multiple of `{1}`.
    Delete(usize, u8),
    /// Drop table `t{0}` and create it again: its pages go back to the
    /// free list for later allocations to reuse.
    Recreate(usize),
    Checkpoint,
    /// Flip a bit in the on-disk image of page `{0} % pages` (subject only).
    Corrupt(u16),
}

const PAGE_OP_TABLES: usize = 3;

fn arb_page_op() -> impl Strategy<Value = PageOp> {
    let table = 0..PAGE_OP_TABLES;
    prop_oneof![
        (table.clone(), 1u8..40).prop_map(|(t, n)| PageOp::Insert(t, n)),
        (table.clone(), 1u8..40).prop_map(|(t, n)| PageOp::Insert(t, n)),
        (table.clone(), 2u8..5).prop_map(|(t, m)| PageOp::Delete(t, m)),
        table.prop_map(PageOp::Recreate),
        Just(PageOp::Checkpoint),
        any::<u16>().prop_map(PageOp::Corrupt),
    ]
}

fn page_op_schema(name: &str) -> TableSchema {
    TableSchema::new(
        name,
        vec![
            Column::new("k", DataType::Int),
            Column::new("pad", DataType::Str),
        ],
    )
    .with_primary_key(vec![0])
}

/// A small pool, so the script also evicts, misses and repairs at run time.
fn page_op_config() -> RecoveryConfig {
    RecoveryConfig {
        pool_capacity: 8,
        ..Default::default()
    }
}

/// The kept log may hold only what the last checkpoint's restart reads.
fn assert_kept_log_is_bounded(store: &LogStore) {
    let Some(master) = store.checkpoint() else {
        return;
    };
    let Some(LogRecord::Checkpoint { scan_from, .. }) = store.record_at(master).unwrap() else {
        panic!("the master record names no checkpoint");
    };
    assert!(
        store.held_bytes() <= store.durable_end() - scan_from,
        "kept {} log bytes, but only {} are at or after scan_from {scan_from}",
        store.held_bytes(),
        store.durable_end() - scan_from
    );
}

/// Run `ops` on a fresh kernel, damaging pages only if `damage`; then
/// crash (the log flushed, the pool not) and restart.
fn run_page_ops(ops: &[PageOp], damage: bool) -> Storage {
    let disk = Arc::new(MemDisk::new(DiskModel::default()));
    let store = Arc::new(LogStore::new());
    let st = Arc::new(bootstrap(Arc::clone(&disk), Arc::clone(&store), page_op_config()).unwrap());
    let name = |t: usize| format!("t{t}");
    let mut ddl = DdlBatch::default();
    for t in 0..PAGE_OP_TABLES {
        st.create_table(&mut ddl, page_op_schema(&name(t))).unwrap();
    }
    st.finish_ddl(ddl).unwrap();
    let id = |t: usize| st.catalog.resolve(&name(t)).unwrap().read().id;
    let mut next_key = 0i64;
    for op in ops {
        match *op {
            PageOp::Insert(t, n) => {
                let txn = st.begin();
                for _ in 0..n {
                    let row = vec![Value::Int(next_key), Value::Str(format!("{next_key:>300}"))];
                    st.insert_row(&txn, id(t), &row).unwrap();
                    next_key += 1;
                }
                st.commit(&txn).unwrap();
            }
            PageOp::Delete(t, m) => {
                let doomed: Vec<_> = st
                    .scan(id(t))
                    .unwrap()
                    .map(Result::unwrap)
                    .filter(|(_, r)| r[0].as_i64().unwrap() % i64::from(m) == 0)
                    .map(|(rid, _)| rid)
                    .collect();
                let txn = st.begin();
                for rid in doomed {
                    st.delete_row(&txn, id(t), rid).unwrap();
                }
                st.commit(&txn).unwrap();
            }
            PageOp::Recreate(t) => {
                let mut ddl = DdlBatch::default();
                st.drop_table(&mut ddl, &name(t)).unwrap();
                st.create_table(&mut ddl, page_op_schema(&name(t))).unwrap();
                st.finish_ddl(ddl).unwrap();
            }
            PageOp::Checkpoint => st.checkpoint().unwrap(),
            PageOp::Corrupt(p) => {
                if damage && disk.num_pages() > 0 {
                    let pid = PageId::from(p) % disk.num_pages();
                    let mut raw = [0u8; PAGE_SIZE];
                    disk.read_page(pid, &mut raw).unwrap();
                    disk.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::BitFlip, 1)));
                    disk.write_page(pid, &raw, disk.current_epoch()).unwrap();
                    disk.set_fault_plan(None);
                }
            }
        }
        assert_kept_log_is_bounded(&store);
    }
    st.log.flush_all().unwrap();
    drop(st);
    disk.bump_epoch();
    store.bump_epoch();
    recover(disk, store, page_op_config()).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Checkpoints truncate the log below their `scan_from` once every
    /// written page is archived, and pages get damaged on disk at random
    /// points. After a restart, every page the tables own rebuilds from
    /// its archive image and the kept log to exactly the image restart
    /// redo produces on an undamaged twin, and the kept log never holds
    /// more than the last checkpoint's restart needs.
    #[test]
    fn repair_after_truncation_rebuilds_restart_images(
        ops in prop::collection::vec(arb_page_op(), 1..40)
    ) {
        let twin = run_page_ops(&ops, false);
        let subject = run_page_ops(&ops, true);
        let content = |image: &[u8; PAGE_SIZE]| image[..PAGE_CONTENT].to_vec();
        let owned = twin.catalog.owned_pages();
        prop_assert_eq!(&owned, &subject.catalog.owned_pages());
        for pid in owned {
            let want = content(&twin.pool.fetch(pid).unwrap().read());
            let (rebuilt, _) = subject.pool.rebuild_page(pid).unwrap();
            prop_assert!(content(&rebuilt) == want, "page {} rebuilt wrong", pid);
            let fetched = content(&subject.pool.fetch(pid).unwrap().read());
            prop_assert!(fetched == want, "page {} restarted wrong", pid);
        }
    }
}
