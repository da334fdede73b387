//! Layer self times from outside the program.
//!
//! One seeded single-user op sequence is replayed through the four layer
//! boundaries, each against its own identically loaded server:
//! `PhoenixConnection` (core) → `OdbcConnection` (odbcsim) → raw
//! `wire::ClientConn` → `Engine::execute` (sqlengine). Every statement
//! runs at all four boundaries back to back, starting at a rotating
//! boundary, so drift over the replay hits all four alike. A layer's self
//! time is its boundary time minus the boundary time below it.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use odbcsim::OdbcConnection;
use phoenix::PhoenixConnection;
use sqlengine::Result;
use workloads::{ExecResult, SqlClient};

use crate::clients::WireClient;
use crate::Workload;

/// Boundary names, outermost first.
pub const LAYERS: [&str; 4] = ["core", "odbcsim", "wire", "sqlengine"];

/// Total time spent at each boundary over one replay.
#[derive(Debug, Clone)]
pub struct LayerTimes {
    /// Workload ops in the replayed sequence.
    pub ops: u64,
    /// Statements each boundary executed.
    pub statements: u64,
    pub totals: [Duration; 4],
    /// Statements whose outcome differed between boundaries.
    pub mismatches: Vec<String>,
}

impl LayerTimes {
    /// Mean time per op at boundary `i`, in milliseconds.
    pub fn boundary_ms_per_op(&self, i: usize) -> f64 {
        crate::stats::ratio(self.totals[i].as_secs_f64() * 1e3, self.ops as f64)
    }

    /// Self time per op of layer `i`: its boundary minus the one below.
    pub fn self_ms_per_op(&self, i: usize) -> f64 {
        match i {
            3 => self.boundary_ms_per_op(3),
            _ => self.boundary_ms_per_op(i) - self.boundary_ms_per_op(i + 1),
        }
    }

    /// Whether the boundary times nest: core ≥ odbcsim ≥ wire ≥ sqlengine.
    pub fn ordered(&self) -> bool {
        self.totals.windows(2).all(|w| w[0] >= w[1])
    }
}

/// Runs of each read-only statement per boundary; the fastest counts.
/// Interference from other processes only ever adds time, and a single
/// heavy query jitters by more than the layers above the engine cost.
const READ_RUNS: usize = 2;

fn is_read_only(sql: &str) -> bool {
    sql.trim_start()
        .get(..6)
        .is_some_and(|w| w.eq_ignore_ascii_case("SELECT"))
}

/// A client that runs every statement at all four boundaries and hands
/// the application the core boundary's result.
struct FanOut<'a> {
    layers: [&'a dyn SqlClient; 4],
    totals: RefCell<[Duration; 4]>,
    statements: Cell<u64>,
    mismatches: RefCell<Vec<String>>,
}

impl SqlClient for FanOut<'_> {
    fn execute(&self, sql: &str) -> Result<ExecResult> {
        let k = self.statements.get();
        self.statements.set(k + 1);
        let runs = if is_read_only(sql) { READ_RUNS } else { 1 };
        let mut out: [Option<Result<ExecResult>>; 4] = Default::default();
        let mut fastest = [Duration::MAX; 4];
        for run in 0..runs {
            for j in 0..4 {
                let i = (k as usize + run + j) % 4;
                let t = Instant::now();
                let r = self.layers[i].execute(sql);
                fastest[i] = fastest[i].min(t.elapsed());
                out[i].get_or_insert(r);
            }
        }
        for (total, f) in self.totals.borrow_mut().iter_mut().zip(fastest) {
            *total += f;
        }
        let [core, rest @ ..] = out.map(|r| r.expect("every boundary ran"));
        let shape = |r: &Result<ExecResult>| r.as_ref().ok().map(ExecResult::affected);
        for (name, r) in LAYERS[1..].iter().zip(&rest) {
            if shape(r) != shape(&core) {
                self.mismatches.borrow_mut().push(format!(
                    "{name} gave {:?}, core {:?} for {sql:.60}",
                    shape(r),
                    shape(&core)
                ));
            }
        }
        core
    }
}

/// Replay `W`'s single-user op sequence through the four boundaries.
pub fn replay<W: Workload>(seed: u64) -> std::result::Result<LayerTimes, String> {
    let servers: Vec<_> = (0..4).map(|_| W::load(seed)).collect();
    let e = |what: &'static str| move |e: sqlengine::Error| format!("{what}: {e}");
    let core = PhoenixConnection::connect(&servers[0], W::phoenix_config()).map_err(e("core"))?;
    let odbc =
        OdbcConnection::connect(&servers[1], W::phoenix_config().driver).map_err(e("odbc"))?;
    let wire = WireClient::connect(&servers[2]).map_err(e("wire"))?;
    let engine = crate::engine_client(&servers[3]);
    let fan = FanOut {
        layers: [&core, &odbc, &wire, &engine],
        totals: RefCell::new([Duration::ZERO; 4]),
        statements: Cell::new(0),
        mismatches: RefCell::new(Vec::new()),
    };
    let ops = W::replay(seed, &fan);
    let times = LayerTimes {
        ops: ops.as_ref().copied().unwrap_or(0),
        statements: fan.statements.get(),
        totals: fan.totals.into_inner(),
        mismatches: fan.mismatches.into_inner(),
    };
    core.close();
    odbc.disconnect();
    drop((wire, engine));
    for s in &servers {
        s.crash();
    }
    ops.map(|_| times)
}
