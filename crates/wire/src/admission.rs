//! Admission control and overload shedding for the database server.
//!
//! The paper's recovery story is per-session; this module is what keeps
//! the *server* alive when every session exercises that story at once (a
//! reconnect storm after a crash). It owns two bounded resources and
//! one clock:
//!
//! * a **session registry** capped at [`AdmissionConfig::max_sessions`] —
//!   one slot per wire connection, released on every exit path (orderly
//!   disconnect, link death, eviction, server crash);
//! * a **pending-accept gate** capped at
//!   [`AdmissionConfig::pending_accepts`] — connections that have been
//!   accepted but not yet finished the `Connect` handshake. This is the
//!   bound on *concurrent reconnects*: a post-crash herd cannot occupy
//!   more than this many handshakes at a time, the rest are shed;
//! * idle-session **eviction** after [`AdmissionConfig::idle_timeout`]
//!   without traffic.
//!
//! Every gate acts on a connection, never on a statement: once a session
//! is admitted, its requests run. The controller knows nothing of what a
//! session stores or of the middleware above the client driver.
//!
//! Saturation is never a stall or an OOM: the server sheds with
//! [`Error::ServerBusy`], carrying a `retry_after` hint the client folds
//! into its (jittered, budgeted) recovery backoff, so a storm spreads
//! out instead of synchronizing.
//!
//! The controller lives in the server's *durable* half and survives
//! crash/restart — it models the listener, not the database process.
//! Slots are keyed by a monotonic admission id (not the engine session
//! id, which is reissued from 1 after every restart); each slot records
//! the server epoch it was admitted under so a sweep never closes a
//! recycled session id belonging to a later incarnation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use sqlengine::session::SessionId;
use sqlengine::Error;

use crate::transport::Endpoint;

/// Admission tuning. `Copy`, like [`crate::ServerConfig`] which embeds it.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Hard cap on registered sessions (wire connections holding a
    /// session). Further `Connect` handshakes are shed.
    pub max_sessions: usize,
    /// Cap on connections accepted but not yet past the handshake — the
    /// bound on concurrent (re)connects. Further `connect()` calls are
    /// shed before any server-side resources are spent.
    pub pending_accepts: usize,
    /// A session with no inbound traffic for this long is evicted: its
    /// link is closed and its engine session (temp tables, transaction)
    /// is torn down. The client's next call finds a dead link and runs
    /// full Phoenix recovery.
    pub idle_timeout: Duration,
    /// How long an accepted connection may sit in the handshake without
    /// delivering its `Connect` frame before the link is dropped. The
    /// pending-accept gate is a hard cap on concurrent handshakes, so
    /// an unbounded wait here lets one stalled (or malicious) client
    /// pin a gate slot forever — a slowloris on the reconnect path.
    pub handshake_timeout: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        // Permissive defaults: existing workloads (tests, benches) run
        // unthrottled unless a config opts into tighter bounds.
        AdmissionConfig {
            max_sessions: 4096,
            pending_accepts: 1024,
            idle_timeout: Duration::from_secs(60),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// One registered session.
struct SessionSlot {
    /// Engine session id (0 until [`AdmissionController::bind`]).
    sid: SessionId,
    /// Server epoch the slot was admitted under (see
    /// [`crate::DbServer::restart`]); guards against closing a recycled
    /// session id after a crash/restart cycle.
    epoch: u64,
    /// Server-side endpoint, closed on eviction.
    ep: Arc<Endpoint>,
    /// Last inbound frame (any request counts, including `Ping`).
    last_activity: Instant,
    /// Cumulative inbound traffic (for per-session footprint reporting).
    traffic_bytes: u64,
}

/// A session evicted by [`AdmissionController::sweep_idle`]; the caller
/// finishes engine-side cleanup (epoch permitting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Engine session id held by the evicted slot.
    pub sid: SessionId,
    /// Server epoch the slot was admitted under.
    pub epoch: u64,
}

/// Point-in-time controller statistics. Unlike the global obskit
/// instruments (which aggregate across every server in the process),
/// these are per-controller and race-free to assert on in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionStats {
    /// Currently registered sessions.
    pub active: usize,
    /// Connections inside the pending-accept gate right now.
    pub pending: i64,
    /// High-water mark of the pending gate — the max concurrent
    /// (re)connects the server ever let in; bounded by
    /// [`AdmissionConfig::pending_accepts`] by construction.
    pub pending_peak: i64,
    /// Sessions ever admitted.
    pub admitted: u64,
    /// Connections shed (by the pending-accept gate or the registry cap).
    pub shed: u64,
    /// Sessions evicted for idleness.
    pub evicted: u64,
    /// Inbound traffic across all sessions ever registered.
    pub traffic_total: u64,
}

/// The bounded session registry, the pending gate and the idle clock.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    slots: Mutex<HashMap<u64, SessionSlot>>,
    next_id: AtomicU64,
    pending: AtomicI64,
    pending_peak: AtomicI64,
    admitted: AtomicU64,
    shed: AtomicU64,
    evicted: AtomicU64,
    traffic_done: AtomicU64,
}

impl AdmissionController {
    /// A fresh controller. It registers the `admission.shed` counter, so
    /// a run that sheds nothing exports a count of 0 instead of no count.
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        // analyze:allow(durability): registers the counter at zero and sheds nothing; shed() carries the crashpoint
        obskit::metrics::global().counter("admission.shed");
        AdmissionController {
            cfg,
            slots: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            pending: AtomicI64::new(0),
            pending_peak: AtomicI64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            traffic_done: AtomicU64::new(0),
        }
    }

    /// The active tuning.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Record a shed and build the error. Every shed site funnels here so
    /// the `admission.shed` counter, crashpoint and per-controller stat
    /// stay in lockstep.
    fn shed(&self, retry_after: Duration) -> Error {
        self.shed.fetch_add(1, Ordering::Relaxed);
        obskit::metrics::global().counter("admission.shed").incr();
        faultkit::crashpoint!("admission.shed");
        Error::ServerBusy { retry_after }
    }

    /// Enter the pending-accept gate (called by `DbServer::connect`
    /// before any server-side resources are allocated). Sheds when the
    /// gate is full; on success the caller owes exactly one
    /// [`end_pending`](Self::end_pending) when the handshake resolves.
    pub fn begin_pending(&self) -> Result<(), Error> {
        let n = self.pending.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.cfg.pending_accepts as i64 {
            self.pending.fetch_sub(1, Ordering::Relaxed);
            // A full gate means a herd is mid-handshake; a few
            // milliseconds is enough to find a free slot in it.
            return Err(self.shed(Duration::from_millis(2)));
        }
        self.pending_peak.fetch_max(n, Ordering::Relaxed);
        // analyze:allow(durability): gate bookkeeping; the shed()/admit() decision sites carry the admission crashpoints
        let g = obskit::metrics::global();
        g.gauge("admission.pending").add(1);
        g.gauge("admission.pending.peak").max(n);
        Ok(())
    }

    /// Leave the pending-accept gate (handshake finished, shed, or the
    /// link died first). Must be called exactly once per successful
    /// [`begin_pending`](Self::begin_pending).
    pub fn end_pending(&self) {
        self.pending.fetch_sub(1, Ordering::Relaxed);
        // analyze:allow(durability): gate bookkeeping; the shed()/admit() decision sites carry the admission crashpoints
        obskit::metrics::global().gauge("admission.pending").add(-1);
    }

    /// Admit a session into the registry, or shed if it is full. The
    /// returned admission id must be released (or evicted) exactly once.
    pub fn admit(&self, epoch: u64, ep: Arc<Endpoint>) -> Result<u64, Error> {
        let now = Instant::now();
        let mut slots = self.slots.lock();
        if slots.len() >= self.cfg.max_sessions {
            let hint = self.registry_full_hint(&slots, now);
            drop(slots);
            return Err(self.shed(hint));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        slots.insert(
            id,
            SessionSlot {
                sid: 0,
                epoch,
                ep,
                last_activity: now,
                traffic_bytes: 0,
            },
        );
        drop(slots);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let g = obskit::metrics::global();
        g.counter("admission.admit").incr();
        g.gauge("sessions.active").add(1);
        faultkit::crashpoint!("admission.admit");
        Ok(id)
    }

    /// When the registry is full, hint the time until the most idle slot
    /// would be evicted — the earliest moment a retry can find capacity.
    fn registry_full_hint(&self, slots: &HashMap<u64, SessionSlot>, now: Instant) -> Duration {
        let oldest = slots
            .values()
            .map(|s| now.saturating_duration_since(s.last_activity))
            .max()
            .unwrap_or_default();
        self.cfg
            .idle_timeout
            .saturating_sub(oldest)
            .max(Duration::from_millis(5))
    }

    /// Attach the engine session id to an admitted slot.
    pub fn bind(&self, id: u64, sid: SessionId) {
        if let Some(slot) = self.slots.lock().get_mut(&id) {
            slot.sid = sid;
        }
    }

    /// Release a slot. Returns whether this call removed it (false when
    /// an eviction or a crash got there first), so release-on-every-exit-
    /// path, eviction and [`release_epoch`](Self::release_epoch) can race
    /// without double-decrementing `sessions.active`.
    pub fn release(&self, id: u64) -> bool {
        let removed = self.slots.lock().remove(&id);
        removed.map(|slot| self.retire(&slot)).is_some()
    }

    /// Release every slot admitted under `epoch` or before: the server
    /// process holding their sessions crashed, so they free their slots
    /// now rather than when each connection thread notices its closed
    /// link. Returns the number released.
    pub fn release_epoch(&self, epoch: u64) -> usize {
        let dead: Vec<SessionSlot> = self
            .slots
            .lock()
            .extract_if(|_, s| s.epoch <= epoch)
            .map(|(_, s)| s)
            .collect();
        for slot in &dead {
            self.retire(slot);
        }
        dead.len()
    }

    /// Fold a removed slot into the totals and the `sessions.active` gauge.
    fn retire(&self, slot: &SessionSlot) {
        self.traffic_done
            .fetch_add(slot.traffic_bytes, Ordering::Relaxed);
        obskit::metrics::global().gauge("sessions.active").add(-1);
    }

    /// Record inbound traffic on a slot (any request frame counts as
    /// liveness, including `Ping` — the wire analogue of the paper's
    /// keepalive).
    pub fn touch(&self, id: u64, bytes: u64) {
        if let Some(slot) = self.slots.lock().get_mut(&id) {
            slot.last_activity = Instant::now();
            slot.traffic_bytes = slot.traffic_bytes.saturating_add(bytes);
        }
    }

    /// Evict every slot idle past the timeout: close its link (the
    /// client's next call finds a dead connection and runs full Phoenix
    /// recovery) and hand the engine-side cleanup to the caller. Evicts
    /// one slot at a time so a crash injected mid-sweep leaves no slot
    /// half-accounted.
    pub fn sweep_idle(&self, now: Instant) -> Vec<Evicted> {
        let mut out = Vec::new();
        loop {
            let victim = {
                let mut slots = self.slots.lock();
                let id = slots
                    .iter()
                    .find(|(_, s)| {
                        now.saturating_duration_since(s.last_activity) > self.cfg.idle_timeout
                    })
                    .map(|(id, _)| *id);
                id.and_then(|id| slots.remove(&id))
            };
            let Some(slot) = victim else {
                return out;
            };
            self.evicted.fetch_add(1, Ordering::Relaxed);
            self.retire(&slot);
            obskit::metrics::global().counter("admission.evict").incr();
            faultkit::crashpoint!("admission.evict");
            slot.ep.close();
            out.push(Evicted {
                sid: slot.sid,
                epoch: slot.epoch,
            });
        }
    }

    /// Per-controller statistics (see [`AdmissionStats`]).
    pub fn stats(&self) -> AdmissionStats {
        let (active, traffic_live) = {
            let slots = self.slots.lock();
            let traffic = slots.values().map(|s| s.traffic_bytes).sum::<u64>();
            (slots.len(), traffic)
        };
        AdmissionStats {
            active,
            pending: self.pending.load(Ordering::Relaxed),
            pending_peak: self.pending_peak.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            traffic_total: self.traffic_done.load(Ordering::Relaxed) + traffic_live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::NetConfig;

    fn tiny(max_sessions: usize, pending: usize, idle: Duration) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            max_sessions,
            pending_accepts: pending,
            idle_timeout: idle,
            handshake_timeout: Duration::from_secs(10),
        })
    }

    fn ep() -> Arc<Endpoint> {
        let (_client, server) = Endpoint::pair(NetConfig::instant(), NetConfig::instant());
        Arc::new(server)
    }

    #[test]
    fn registry_cap_sheds_with_retry_hint() {
        let ac = tiny(2, 8, Duration::from_secs(60));
        let a = ac.admit(1, ep()).unwrap();
        let _b = ac.admit(1, ep()).unwrap();
        let err = ac.admit(1, ep()).unwrap_err();
        // A shed tears nothing down: the call may simply be issued again
        // once the hint has passed.
        assert!(err.is_retryable(), "a shed is retryable: {err:?}");
        assert!(!err.is_connection_fatal(), "a shed is not fatal: {err:?}");
        let Error::ServerBusy { retry_after } = err else {
            panic!("expected ServerBusy, got {err:?}");
        };
        assert!(retry_after >= Duration::from_millis(5));
        assert!(retry_after <= Duration::from_secs(60));
        assert_eq!(ac.stats().shed, 1);
        // Releasing frees a slot for the next admit.
        assert!(ac.release(a));
        ac.admit(1, ep()).unwrap();
    }

    #[test]
    fn pending_gate_bounds_concurrent_handshakes() {
        let ac = tiny(8, 2, Duration::from_secs(60));
        ac.begin_pending().unwrap();
        ac.begin_pending().unwrap();
        assert!(matches!(
            ac.begin_pending().unwrap_err(),
            Error::ServerBusy { .. }
        ));
        ac.end_pending();
        ac.begin_pending().unwrap();
        ac.end_pending();
        ac.end_pending();
        let st = ac.stats();
        assert_eq!(st.pending, 0);
        assert_eq!(st.pending_peak, 2, "peak never exceeds the gate bound");
        assert_eq!(st.shed, 1);
    }

    #[test]
    fn release_and_evict_never_double_free() {
        let ac = tiny(8, 8, Duration::from_millis(1));
        let id = ac.admit(7, ep()).unwrap();
        ac.bind(id, 42);
        std::thread::sleep(Duration::from_millis(5));
        let evicted = ac.sweep_idle(Instant::now());
        assert_eq!(evicted, vec![Evicted { sid: 42, epoch: 7 }]);
        // The connection loop's guard still fires its release; it must
        // observe the eviction and not double-decrement.
        assert!(!ac.release(id));
        assert_eq!(ac.stats().active, 0);
        assert_eq!(ac.stats().evicted, 1);
    }

    #[test]
    fn a_crashed_epoch_releases_its_slots_once() {
        let ac = tiny(2, 8, Duration::from_secs(60));
        let old = ac.admit(1, ep()).unwrap();
        ac.touch(old, 10);
        let _older = ac.admit(0, ep()).unwrap();
        assert_eq!(ac.release_epoch(1), 2, "every slot up to the dead epoch");
        // The dead connection's guard fires later and finds nothing.
        assert!(!ac.release(old));
        let live = ac.admit(2, ep()).unwrap();
        ac.admit(2, ep()).unwrap();
        assert_eq!(ac.release_epoch(1), 0, "the live epoch keeps its slots");
        ac.touch(live, 5);
        let st = ac.stats();
        assert_eq!((st.active, st.shed), (2, 0));
        assert_eq!(st.traffic_total, 15);
    }

    #[test]
    fn touch_defers_eviction() {
        let ac = tiny(8, 8, Duration::from_millis(40));
        let id = ac.admit(1, ep()).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        ac.touch(id, 10);
        // Recently touched: not yet idle past the timeout.
        assert!(ac.sweep_idle(Instant::now()).is_empty());
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(ac.sweep_idle(Instant::now()).len(), 1);
        assert_eq!(ac.stats().traffic_total, 10);
    }
}
