//! # faultkit — deterministic crashpoint instrumentation
//!
//! The fault tests in this workspace used to approximate "crash at any
//! point of the protocol" by sleeping a handful of wall-clock
//! milliseconds before killing the server — coverage that depends on
//! scheduler timing and cannot be reproduced. This crate replaces that
//! with *named crashpoints*: every protocol-relevant step is marked with
//! [`crashpoint!`]`("layer.step")`, and a test can
//!
//! 1. **record** the exact sequence of crashpoints a scenario hits,
//! 2. **replay** the scenario once per hit, arming a [`FaultPlan`] that
//!    fires a crash action at exactly that hit (`"name"` + nth
//!    occurrence), and
//! 3. **reproduce** any failing schedule bit-for-bit from its one-line
//!    replay spec (`"wire.exec.post#3"`).
//!
//! ## Overhead
//!
//! When no [`Session`] is active the whole mechanism is a single relaxed
//! atomic load per crashpoint (`ENABLED` is false and [`hit`] returns
//! immediately), so instrumented production code pays effectively
//! nothing. Plans and traces only exist inside a session.
//!
//! ## Concurrency model
//!
//! The registry is process-global (crashpoints are hit deep inside
//! engine/server/driver code that has no handle to pass a context
//! through). Tests that record or arm therefore serialize on the
//! [`session`] lock; a crashed-and-forgotten server from a previous
//! session cannot perturb a new one because every session starts from a
//! clean disabled state and counts from zero.
//!
//! ## Replay spec grammar
//!
//! `<name>#<nth>` — fire at the `nth` (1-based) time crashpoint `name`
//! is hit. [`FaultPlan::parse`] accepts exactly this shape, and
//! [`TracePoint::spec`] produces it.
//!
//! ## Crashpoint families
//!
//! Names follow the `layer.component.action` convention shared with
//! obskit, and tests enumerate whole families by prefix: `wal.*` /
//! `persist.*` (durability steps), `disk.*` (storage faults),
//! `phoenix.*` (session recovery protocol), and `admission.*` — the
//! overload-control registry mutations (`admission.admit`,
//! `admission.shed`, `admission.evict`), where a crash interleaved with
//! a shed or eviction must not break a session's exactly-once
//! guarantees. `cargo xtask analyze` cross-checks that every compiled
//! family member is reachable from some scenario under `tests/`.

pub mod disk;
pub mod net;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fast-path gate: false whenever no recording/armed session is active,
/// so [`hit`] costs one relaxed load in production code.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes sessions across tests in one process (see module docs).
static SESSION: Mutex<()> = Mutex::new(());

/// The registry proper. Kept separate from the session lock so [`hit`]
/// never blocks on a test holding the session for its whole body.
static STATE: Mutex<State> = Mutex::new(State::Off);

/// One crash action, run at most once when the plan fires.
type Action = Box<dyn FnOnce() + Send>;

enum State {
    /// No session: crashpoints are no-ops.
    Off,
    /// Trace collection: every hit is appended, nothing fires.
    Recording { trace: Vec<&'static str> },
    /// A plan is armed; the k-th hit matching it runs the action.
    Armed {
        name: Option<&'static str>,
        /// 1-based hit index at which to fire: of `name` when it is
        /// `Some`, of *any* crashpoint when it is `None` (seeded mode).
        nth: u64,
        counts: HashMap<&'static str, u64>,
        global_count: u64,
        action: Option<Action>,
        fired: Option<TracePoint>,
    },
}

fn state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Mark a crashpoint. Expands to a call of [`hit`]; the name must be a
/// string literal so the `phoenix-lint` uniqueness rule can check it.
///
/// ```
/// # fn persist_step() {}
/// faultkit::crashpoint!("persist.materialize");
/// persist_step();
/// ```
#[macro_export]
macro_rules! crashpoint {
    ($name:literal) => {
        $crate::hit($name)
    };
}

/// Record / evaluate one crashpoint hit. Called by [`crashpoint!`]; the
/// disabled fast path is a single relaxed atomic load.
#[inline]
pub fn hit(name: &'static str) {
    if ENABLED.load(Ordering::Relaxed) {
        hit_slow(name);
    }
}

#[cold]
fn hit_slow(name: &'static str) {
    // The action runs *outside* the registry lock: crash actions close
    // network pipes and fence durable state, and the restart they
    // schedule will hit recovery crashpoints that re-enter this module.
    let fire: Option<Action> = {
        let mut st = state();
        match &mut *st {
            State::Off => None,
            State::Recording { trace } => {
                trace.push(name);
                None
            }
            State::Armed {
                name: want,
                nth,
                counts,
                global_count,
                action,
                fired,
            } => {
                *global_count += 1;
                let count = counts.entry(name).or_insert(0);
                *count += 1;
                let matches = match want {
                    Some(w) => *w == name && *count == *nth,
                    None => *global_count == *nth,
                };
                if matches && fired.is_none() {
                    *fired = Some(TracePoint { name, nth: *count });
                    action.take()
                } else {
                    None
                }
            }
        }
    };
    if let Some(f) = fire {
        // A firing crashpoint is exactly the kind of rare causal landmark
        // the trace timeline exists for: the event names the same
        // `name#nth` coordinate a FAULTKIT_REPLAY spec would.
        obskit::metrics::global()
            .counter("faultkit.crashpoint.fires")
            .incr();
        obskit::event!("faultkit.crashpoint.fire", "{name}");
        f();
    }
}

/// One recorded crashpoint hit: `name` plus its 1-based occurrence
/// index within the trace. Doubles as the "where did the plan fire"
/// report of an armed session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePoint {
    /// The crashpoint's `crashpoint!("…")` name.
    pub name: &'static str,
    /// 1-based occurrence of `name` within the scenario.
    pub nth: u64,
}

impl TracePoint {
    /// The one-line replay spec (`"wire.exec.post#3"`); feed it back
    /// through [`FaultPlan::parse`] to reproduce the schedule.
    pub fn spec(&self) -> String {
        format!("{}#{}", self.name, self.nth)
    }
}

impl std::fmt::Display for TracePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.name, self.nth)
    }
}

/// When to fire the crash action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlan {
    /// Fire at the `nth` (1-based) hit of the named crashpoint — the
    /// deterministic schedule the enumeration tests replay.
    At {
        /// Crashpoint name as written in `crashpoint!("…")`.
        name: String,
        /// 1-based occurrence at which to fire.
        nth: u64,
    },
    /// Fire at the `nth` (1-based) crashpoint hit overall, whatever its
    /// name — useful when a schedule is drawn by index into a trace.
    AtGlobal {
        /// 1-based global hit index at which to fire.
        nth: u64,
    },
    /// Seeded random single-crash schedule: a deterministic RNG
    /// (`compat/rand`'s `StdRng`) picks one global hit index in
    /// `1..=horizon`. Same seed + same horizon ⇒ same schedule.
    Seeded {
        /// RNG seed.
        seed: u64,
        /// Upper bound (inclusive) for the drawn global hit index —
        /// normally the length of a previously recorded trace.
        horizon: u64,
    },
}

impl FaultPlan {
    /// Schedule: crash at the `nth` (1-based) hit of `name`.
    pub fn at(name: &str, nth: u64) -> FaultPlan {
        FaultPlan::At {
            name: name.to_string(),
            nth: nth.max(1),
        }
    }

    /// Parse a replay spec of the form `name#nth` (see [`TracePoint::spec`]).
    pub fn parse(spec: &str) -> Option<FaultPlan> {
        let (name, nth) = spec.rsplit_once('#')?;
        let nth: u64 = nth.trim().parse().ok()?;
        if name.is_empty() || nth == 0 {
            return None;
        }
        Some(FaultPlan::at(name.trim(), nth))
    }

    /// The global hit index this plan resolves to, for seeded plans.
    fn resolve(&self) -> (Option<String>, u64) {
        match self {
            FaultPlan::At { name, nth } => (Some(name.clone()), (*nth).max(1)),
            FaultPlan::AtGlobal { nth } => (None, (*nth).max(1)),
            FaultPlan::Seeded { seed, horizon } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                (None, rng.gen_range(1..=(*horizon).max(1)))
            }
        }
    }
}

/// An exclusive crashpoint session. Holding one serializes all
/// crashpoint-sensitive tests in the process; [`Session::record`] and
/// [`Session::arm`] switch the global registry mode. Dropping the
/// session (or any mode guard) restores the disabled zero-overhead
/// state.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

/// Open a session, waiting for any other crashpoint-using test to
/// finish. Every test that creates servers in a binary that also arms
/// fault plans should hold one, so stray hits never perturb an armed
/// plan's counters.
pub fn session() -> Session {
    let guard = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    // Defensive: a previous panicking test may have left a mode behind.
    *state() = State::Off;
    ENABLED.store(false, Ordering::SeqCst);
    Session { _guard: guard }
}

impl Session {
    /// Start recording the crashpoint trace. Dropping the returned guard
    /// stops recording; [`Recording::finish`] returns the trace.
    pub fn record(&self) -> Recording<'_> {
        *state() = State::Recording { trace: Vec::new() };
        ENABLED.store(true, Ordering::SeqCst);
        Recording { _session: self }
    }

    /// Arm `plan`; `action` runs (once) at the scheduled hit. Dropping
    /// the returned guard disarms.
    pub fn arm<F: FnOnce() + Send + 'static>(&self, plan: &FaultPlan, action: F) -> Armed<'_> {
        let (name, nth) = plan.resolve();
        // `hit` stores `&'static str` names; an armed plan compares by
        // value, so leak-free matching needs the owned name kept here.
        *state() = State::Armed {
            name: name.as_deref().map(leak_name),
            nth,
            counts: HashMap::new(),
            global_count: 0,
            action: Some(Box::new(action)),
            fired: None,
        };
        ENABLED.store(true, Ordering::SeqCst);
        Armed { _session: self }
    }
}

/// Intern a plan name so it can be compared against the `&'static str`
/// names crashpoints carry. Names come from a small fixed vocabulary
/// (the instrumented points), so the interned set stays bounded.
fn leak_name(name: &str) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut set = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = set.iter().find(|n| **n == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.push(leaked);
    leaked
}

/// Recording-mode guard (see [`Session::record`]).
pub struct Recording<'s> {
    _session: &'s Session,
}

impl Recording<'_> {
    /// Stop recording and return the trace as `(name, nth)` points —
    /// each hit annotated with its per-name occurrence index, ready to
    /// be replayed one schedule per point.
    pub fn finish(self) -> Vec<TracePoint> {
        let mut st = state();
        ENABLED.store(false, Ordering::SeqCst);
        let trace = match std::mem::replace(&mut *st, State::Off) {
            State::Recording { trace } => trace,
            _ => Vec::new(),
        };
        let mut counts: HashMap<&'static str, u64> = HashMap::new();
        trace
            .into_iter()
            .map(|name| {
                let c = counts.entry(name).or_insert(0);
                *c += 1;
                TracePoint { name, nth: *c }
            })
            .collect()
    }
}

impl Drop for Recording<'_> {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        let mut st = state();
        if matches!(*st, State::Recording { .. }) {
            *st = State::Off;
        }
    }
}

/// Armed-mode guard (see [`Session::arm`]).
pub struct Armed<'s> {
    _session: &'s Session,
}

impl Armed<'_> {
    /// Where the plan fired, if it has.
    pub fn fired(&self) -> Option<TracePoint> {
        match &*state() {
            State::Armed { fired, .. } => fired.clone(),
            _ => None,
        }
    }
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        let mut st = state();
        if matches!(*st, State::Armed { .. }) {
            *st = State::Off;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn run_scenario() {
        crashpoint!("test.alpha");
        crashpoint!("test.beta");
        crashpoint!("test.alpha");
        crashpoint!("test.gamma");
    }

    #[test]
    fn disabled_hits_are_noops() {
        // Hold the session guard without arming it: sibling tests arm
        // the global state, so asserting on it unguarded races them.
        let _s = session();
        run_scenario();
        assert!(matches!(*state(), State::Off));
    }

    #[test]
    fn recording_collects_per_name_occurrences() {
        let s = session();
        let rec = s.record();
        run_scenario();
        let trace = rec.finish();
        let specs: Vec<String> = trace.iter().map(TracePoint::spec).collect();
        assert_eq!(
            specs,
            vec![
                "test.alpha#1",
                "test.beta#1",
                "test.alpha#2",
                "test.gamma#1"
            ]
        );
    }

    #[test]
    fn armed_plan_fires_exactly_once_at_nth_hit() {
        let s = session();
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&fired);
        let plan = FaultPlan::at("test.alpha", 2);
        let armed = s.arm(&plan, move || {
            f2.fetch_add(1, Ordering::SeqCst);
        });
        run_scenario();
        run_scenario(); // alpha hits 3 and 4: must not re-fire
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(armed.fired().map(|p| p.spec()), Some("test.alpha#2".into()));
    }

    #[test]
    fn global_and_seeded_plans_fire_by_hit_index() {
        let s = session();
        {
            let fired = Arc::new(AtomicU64::new(0));
            let f2 = Arc::clone(&fired);
            let armed = s.arm(&FaultPlan::AtGlobal { nth: 4 }, move || {
                f2.fetch_add(1, Ordering::SeqCst);
            });
            run_scenario();
            assert_eq!(armed.fired().map(|p| p.spec()), Some("test.gamma#1".into()));
            assert_eq!(fired.load(Ordering::SeqCst), 1);
        }
        // Seeded: deterministic per (seed, horizon); firing point is one
        // of the four hits and identical across arms.
        let pick = |seed: u64| {
            let armed = s.arm(&FaultPlan::Seeded { seed, horizon: 4 }, || {});
            run_scenario();
            armed.fired().map(|p| p.spec())
        };
        let first = pick(42);
        assert!(first.is_some());
        assert_eq!(first, pick(42));
    }

    #[test]
    fn replay_spec_round_trips() {
        assert_eq!(
            FaultPlan::parse("wire.exec.post#3"),
            Some(FaultPlan::at("wire.exec.post", 3))
        );
        assert_eq!(FaultPlan::parse("nonsense"), None);
        assert_eq!(FaultPlan::parse("x#0"), None);
        assert_eq!(FaultPlan::parse("#1"), None);
        let p = TracePoint {
            name: "a.b",
            nth: 7,
        };
        assert_eq!(FaultPlan::parse(&p.spec()), Some(FaultPlan::at("a.b", 7)));
    }

    #[test]
    fn dropping_guards_restores_disabled_state() {
        let s = session();
        {
            let _rec = s.record();
            assert!(ENABLED.load(Ordering::SeqCst));
        }
        assert!(!ENABLED.load(Ordering::SeqCst));
        {
            let _armed = s.arm(&FaultPlan::at("test.alpha", 1), || {});
            assert!(ENABLED.load(Ordering::SeqCst));
        }
        assert!(!ENABLED.load(Ordering::SeqCst));
        run_scenario(); // no-ops again
    }
}
