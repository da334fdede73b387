//! Multi-granularity locking with wait-die deadlock handling.
//!
//! Two levels: table locks (S/X plus intention modes IS/IX) and row locks
//! (S/X on a key derived from the row's primary key). Scans, full or
//! primary-key prefix, take table S; point reads take table IS + row S;
//! PK-targeted DML takes table IX + row X; other DML takes table X (see
//! `exec/access.rs`). Strict two-phase: all locks
//! release at commit/abort.
//!
//! Deadlocks are resolved by wait-die using the transaction id as age
//! (smaller id = older): an older requester waits, a younger one is killed
//! with [`Error::Deadlock`] and the client retries — which the paper treats
//! as a normal transaction abort the application already handles.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{Error, Result};
use crate::wal::log::TxnId;

/// Number of lock-table partitions. Targets hash here by (table, row),
/// so two sessions locking unrelated resources never contend on the
/// same latch.
const LOCK_SHARDS: usize = 8;

/// Requested/held lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Intent to take row S locks below.
    IntentionShared,
    /// Intent to take row X locks below.
    IntentionExclusive,
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    fn bit(self) -> u8 {
        match self {
            LockMode::IntentionShared => 1,
            LockMode::IntentionExclusive => 2,
            LockMode::Shared => 4,
            LockMode::Exclusive => 8,
        }
    }

    /// Standard multi-granularity compatibility matrix.
    fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IntentionShared, IntentionShared)
                | (IntentionShared, IntentionExclusive)
                | (IntentionExclusive, IntentionShared)
                | (IntentionExclusive, IntentionExclusive)
                | (IntentionShared, Shared)
                | (Shared, IntentionShared)
                | (Shared, Shared)
        )
    }

    fn all() -> [LockMode; 4] {
        [
            LockMode::IntentionShared,
            LockMode::IntentionExclusive,
            LockMode::Shared,
            LockMode::Exclusive,
        ]
    }
}

/// What is being locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockTarget {
    /// The owning table.
    pub table: u32,
    /// `None` = the whole table; `Some(key)` = one row (hashed PK).
    pub row: Option<u64>,
}

impl LockTarget {
    /// Whole-table target.
    pub fn table(table: u32) -> LockTarget {
        LockTarget { table, row: None }
    }

    /// Single-row target (key = hashed PK bytes).
    pub fn row(table: u32, key: u64) -> LockTarget {
        LockTarget {
            table,
            row: Some(key),
        }
    }
}

#[derive(Default)]
struct TargetLock {
    /// Bitmask of held modes per transaction.
    holders: HashMap<TxnId, u8>,
}

impl TargetLock {
    fn conflicting(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        self.holders
            .iter()
            .filter(|(&h, &mask)| {
                h != txn
                    && LockMode::all()
                        .iter()
                        .any(|m| mask & m.bit() != 0 && !mode.compatible(*m))
            })
            .map(|(&h, _)| h)
            .collect()
    }
}

/// One partition of the lock table: a slice of the target space with
/// its own latch and wakeup channel.
struct LockShard {
    state: Mutex<HashMap<LockTarget, TargetLock>>,
    cv: Condvar,
}

/// The lock manager. One per engine instance (volatile). Partitioned
/// into [`LOCK_SHARDS`] independent lock tables by resource hash.
pub struct LockManager {
    shards: Vec<LockShard>,
    /// Upper bound on lock waits before declaring deadlock (safety net for
    /// waits-on-older chains that wait-die cannot break).
    wait_timeout: Duration,
    /// Grace period a *younger* requester may wait before dying. Pure
    /// wait-die (grace = 0) aborts on every brief conflict; a short grace
    /// lets most conflicts drain while the timeout still breaks any cycle
    /// (the younger party always dies eventually, so no deadlock can
    /// persist past the grace period).
    young_grace: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(Duration::from_secs(10))
    }
}

impl LockManager {
    /// Lock manager with the given worst-case wait bound.
    pub fn new(wait_timeout: Duration) -> Self {
        LockManager {
            shards: (0..LOCK_SHARDS)
                .map(|_| LockShard {
                    state: Mutex::new(HashMap::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            wait_timeout,
            young_grace: Duration::from_millis(20).min(wait_timeout / 4),
        }
    }

    /// Which partition owns `target`. Every target maps to exactly one
    /// shard, so per-target wait-die semantics are unchanged by the
    /// partitioning.
    fn shard_of(target: &LockTarget) -> usize {
        let mut h = DefaultHasher::new();
        target.hash(&mut h);
        h.finish() as usize % LOCK_SHARDS
    }

    /// Acquire `mode` on `target` for `txn`, blocking per wait-die (with
    /// a bounded grace wait for younger requesters).
    pub fn lock(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> Result<()> {
        let start = Instant::now();
        let deadline = start + self.wait_timeout;
        let young_deadline = start + self.young_grace;
        let si = Self::shard_of(&target);
        let mut state = self.shards[si].state.lock();
        let _lw = obskit::lockcheck::held("LockShard::state");
        let mut waited = false;
        loop {
            let entry = state.entry(target).or_default();
            let conflicting = entry.conflicting(txn, mode);
            if conflicting.is_empty() {
                *entry.holders.entry(txn).or_insert(0) |= mode.bit();
                if waited {
                    // Only contended acquisitions are interesting: the
                    // uncontended fast path stays clock-free.
                    obskit::metrics::global().record("sqlengine.lock.wait", start.elapsed());
                }
                return Ok(());
            }
            let now = Instant::now();
            // Wait-die: a younger requester dies — after its grace wait.
            if conflicting.iter().any(|&h| h < txn) && now >= young_deadline {
                Self::gc_entry(&mut state, target);
                obskit::metrics::global()
                    .counter("sqlengine.lock.deadlocks")
                    .incr();
                return Err(Error::Deadlock);
            }
            if now >= deadline {
                Self::gc_entry(&mut state, target);
                obskit::metrics::global()
                    .counter("sqlengine.lock.deadlocks")
                    .incr();
                return Err(Error::Deadlock);
            }
            waited = true;
            // Condvar waits are allowed to wake spuriously (and `std`'s
            // documentation reserves the right): correctness rests on
            // this loop re-evaluating `conflicting` before every grant,
            // never on WHY the wait returned. The wait result is
            // deliberately ignored — both the grace and overall deadlines
            // are enforced against `Instant::now()` above, so a spurious
            // or early wakeup can neither grant a conflicting lock nor
            // shorten/extend the timeout. The short tick also bounds the
            // window in which a lost notification could stall a waiter.
            self.shards[si]
                .cv
                .wait_for(&mut state, Duration::from_millis(5));
        }
    }

    /// Drop a holderless entry left behind by a failed acquisition so
    /// aborted waiters don't accumulate empty rows in the lock table.
    fn gc_entry(state: &mut HashMap<LockTarget, TargetLock>, target: LockTarget) {
        if state.get(&target).is_some_and(|e| e.holders.is_empty()) {
            state.remove(&target);
        }
    }

    /// Release every lock `txn` holds on the given targets. Shard latches
    /// are taken one at a time (never two at once), so the partitioned
    /// release introduces no latch-ordering constraint.
    pub fn release_all(&self, txn: TxnId, targets: impl IntoIterator<Item = LockTarget>) {
        let mut by_shard: Vec<Vec<LockTarget>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for t in targets {
            by_shard[Self::shard_of(&t)].push(t);
        }
        for (si, ts) in by_shard.into_iter().enumerate() {
            if ts.is_empty() {
                continue;
            }
            let mut state = self.shards[si].state.lock();
            let _lw = obskit::lockcheck::held("LockShard::state");
            for t in ts {
                if let Some(l) = state.get_mut(&t) {
                    l.holders.remove(&txn);
                    if l.holders.is_empty() {
                        state.remove(&t);
                    }
                }
            }
            drop(state);
            self.shards[si].cv.notify_all();
        }
    }

    /// Current holders of a target (tests/metrics).
    pub fn holders(&self, target: LockTarget) -> Vec<(TxnId, u8)> {
        let si = Self::shard_of(&target);
        self.shards[si]
            .state
            .lock()
            .get(&target)
            .map(|l| l.holders.iter().map(|(&t, &m)| (t, m)).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mgr() -> LockManager {
        LockManager::new(Duration::from_millis(400))
    }

    fn t(table: u32) -> LockTarget {
        LockTarget::table(table)
    }

    fn r(table: u32, key: u64) -> LockTarget {
        LockTarget::row(table, key)
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        m.lock(1, t(10), LockMode::Shared).unwrap();
        m.lock(2, t(10), LockMode::Shared).unwrap();
        assert_eq!(m.holders(t(10)).len(), 2);
    }

    #[test]
    fn intention_locks_coexist_rows_conflict() {
        let m = mgr();
        m.lock(1, t(10), LockMode::IntentionExclusive).unwrap();
        m.lock(2, t(10), LockMode::IntentionExclusive).unwrap();
        m.lock(1, r(10, 5), LockMode::Exclusive).unwrap();
        // Different rows: fine.
        m.lock(2, r(10, 6), LockMode::Exclusive).unwrap();
        // Same row: younger dies.
        assert_eq!(
            m.lock(2, r(10, 5), LockMode::Exclusive),
            Err(Error::Deadlock)
        );
    }

    #[test]
    fn scan_conflicts_with_writers() {
        let m = mgr();
        m.lock(1, t(10), LockMode::IntentionExclusive).unwrap();
        // Younger full-table scan dies against the IX writer.
        assert_eq!(m.lock(2, t(10), LockMode::Shared), Err(Error::Deadlock));
        // IS readers coexist with IX.
        m.lock(3, t(10), LockMode::IntentionShared).unwrap();
    }

    #[test]
    fn exclusive_blocks_younger() {
        let m = mgr();
        m.lock(1, t(10), LockMode::Exclusive).unwrap();
        assert_eq!(m.lock(2, t(10), LockMode::Exclusive), Err(Error::Deadlock));
        assert_eq!(m.lock(2, t(10), LockMode::Shared), Err(Error::Deadlock));
        assert_eq!(
            m.lock(2, t(10), LockMode::IntentionShared),
            Err(Error::Deadlock)
        );
    }

    #[test]
    fn older_waits_until_release() {
        let m = Arc::new(mgr());
        m.lock(5, t(10), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.lock(1, t(10), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished());
        m.release_all(5, [t(10)]);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr();
        m.lock(1, t(10), LockMode::Shared).unwrap();
        m.lock(1, t(10), LockMode::Shared).unwrap();
        // Sole holder can upgrade to X.
        m.lock(1, t(10), LockMode::Exclusive).unwrap();
        m.lock(1, t(10), LockMode::IntentionExclusive).unwrap();
        let mask = m.holders(t(10))[0].1;
        assert!(mask & LockMode::Exclusive.bit() != 0);
    }

    #[test]
    fn upgrade_with_other_sharers_dies_if_younger() {
        let m = mgr();
        m.lock(1, t(10), LockMode::Shared).unwrap();
        m.lock(2, t(10), LockMode::Shared).unwrap();
        assert_eq!(m.lock(2, t(10), LockMode::Exclusive), Err(Error::Deadlock));
    }

    #[test]
    fn wait_times_out_as_deadlock() {
        let m = mgr();
        m.lock(5, t(10), LockMode::Exclusive).unwrap();
        let start = Instant::now();
        assert_eq!(m.lock(1, t(10), LockMode::Exclusive), Err(Error::Deadlock));
        assert!(start.elapsed() >= Duration::from_millis(300));
    }

    #[test]
    fn spurious_notifications_never_grant_a_conflicting_lock() {
        // Regression guard for the wait loop's predicate re-check: hammer
        // the condvar with notifications while the conflicting holder is
        // still live. Every wakeup re-evaluates `conflicting`, so the
        // waiter must still time out with Deadlock — a grant here would
        // mean a wakeup was trusted instead of the predicate.
        let m = Arc::new(mgr());
        m.lock(5, t(10), LockMode::Exclusive).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let noisy = {
            let (m2, stop2) = (Arc::clone(&m), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                    for s in &m2.shards {
                        s.cv.notify_all();
                    }
                    std::thread::yield_now();
                }
            })
        };
        let started = Instant::now();
        let got = m.lock(1, t(10), LockMode::Exclusive);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        noisy.join().expect("notifier thread panicked");
        assert_eq!(got, Err(Error::Deadlock));
        // The storm of early wakeups must not shorten the wait bound.
        assert!(started.elapsed() >= Duration::from_millis(300));
        // The failed waiter left no empty entry behind.
        m.release_all(5, [t(10)]);
        assert!(m.holders(t(10)).is_empty());
    }

    #[test]
    fn release_unblocks_shared_crowd() {
        let m = Arc::new(mgr());
        m.lock(9, t(10), LockMode::Exclusive).unwrap();
        let mut handles = Vec::new();
        for txn in 1..=3 {
            let m2 = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                m2.lock(txn, t(10), LockMode::Shared)
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
        m.release_all(9, [t(10)]);
        for h in handles {
            assert!(h.join().unwrap().is_ok());
        }
        assert_eq!(m.holders(t(10)).len(), 3);
    }

    #[test]
    fn targets_partition_across_shards() {
        // The hash spreads the target space: a modest set of distinct
        // resources must touch more than one partition (this is the whole
        // point of sharding), while any single target always resolves to
        // exactly one shard (wait-die semantics preserved).
        let used: std::collections::HashSet<usize> = (0..64u64)
            .map(|k| LockManager::shard_of(&r(10, k)))
            .collect();
        assert!(used.len() > 1, "all targets hashed to one shard");
        for k in 0..64u64 {
            assert_eq!(
                LockManager::shard_of(&r(10, k)),
                LockManager::shard_of(&r(10, k))
            );
        }
        // Cross-shard independence: an X holder on one target never
        // blocks a younger locker of a different target.
        let m = mgr();
        m.lock(1, r(10, 1), LockMode::Exclusive).unwrap();
        for k in 2..10u64 {
            m.lock(k, r(10, k), LockMode::Exclusive).unwrap();
        }
    }

    #[test]
    fn row_and_table_locks_are_distinct_targets() {
        let m = mgr();
        m.lock(1, r(10, 1), LockMode::Exclusive).unwrap();
        // Table-level X is a different target: held modes there don't
        // conflict (hierarchy discipline is the caller's job via
        // intention locks).
        m.lock(1, t(10), LockMode::IntentionExclusive).unwrap();
        assert_eq!(m.holders(r(10, 1)).len(), 1);
        assert_eq!(m.holders(t(10)).len(), 1);
    }
}
