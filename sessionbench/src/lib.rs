//! The repository benchmark: three closed-loop workloads over Phoenix/ODBC
//! (`oltp`, `dss`, `recovery`), timed from outside the system, with every
//! output checked.
//!
//! An end-to-end run (`--trace 0`) sets a workload up three times (the
//! median is `setup_s`), measures it for at least `--seconds` and until
//! the p95 has ten samples beyond it, checks its outputs, and prints one
//! JSON line. A traced run (`--trace 1`) measures the same workload with
//! obskit tracing off and then on (the difference is the tracing
//! overhead), attributes the global obskit registry to the traced window,
//! and replays a seeded single-user op sequence through the four layer
//! boundaries `PhoenixConnection` → `OdbcConnection` →
//! `wire::ClientConn` → `Engine::execute` to get each layer's self time.

use std::time::{Duration, Instant};

use phoenix::{PhoenixConfig, PhoenixConnection, PhoenixStats, RecoveryPhases};
use sqlengine::wal::recovery::RecoveryStats;
use wire::{DbServer, ServerConfig};
use workloads::{EngineClient, SqlClient};

pub mod args;
pub mod attrib;
pub mod clients;
pub mod dss;
pub mod layers;
pub mod oltp;
pub mod recovery;
pub mod report;
pub mod stats;
pub mod sys;

pub use args::{Args, WorkloadName};
pub use report::Outcome;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// The reported tail percentile.
pub const TAIL_PCT: u32 = 95;
/// Hard cap on one measured interval, whatever the sample count.
pub const MEASURE_CAP: Duration = Duration::from_secs(100);

/// When a closed loop may stop.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measure at least this long.
    pub seconds: f64,
    /// ... and until this many ops completed.
    pub min_ops: usize,
}

impl Plan {
    pub fn done(&self, elapsed: Duration, ops: usize) -> bool {
        (elapsed.as_secs_f64() >= self.seconds && ops >= self.min_ops) || elapsed >= MEASURE_CAP
    }
}

/// Cost of one session recovery: Phoenix's phases and the server restart
/// under them.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryCost {
    pub phases: RecoveryPhases,
    pub restart: Duration,
    pub stats: RecoveryStats,
}

/// What one measured closed-loop interval produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of every op that succeeded with correct output (ns).
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    /// Ops that failed or returned wrong output.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    pub cpu: sys::Cpu,
    /// Application-level transactions committed.
    pub commits: u64,
    /// Wait-die retries the application performed.
    pub retries: u64,
    /// Phoenix activity over the interval, summed over sessions.
    pub persisted: u64,
    pub wrapped: u64,
    /// Session recoveries the workload itself caused.
    pub recoveries: Vec<RecoveryCost>,
}

impl Measured {
    /// Account one op.
    pub fn record(&mut self, latency: Duration, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.latencies_ns.push(latency.as_nanos() as u64),
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(why);
                }
            }
        }
    }

    /// Fold another user's ops into this one.
    pub fn absorb(&mut self, other: Measured) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.commits += other.commits;
        self.retries += other.retries;
        self.recoveries.extend(other.recoveries);
    }

    pub fn ops(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        stats::ratio(self.ops() as f64, self.cpu.elapsed.as_secs_f64())
    }
}

/// Sum of Phoenix counters over several sessions.
pub fn phoenix_totals<'a>(sessions: impl IntoIterator<Item = &'a PhoenixConnection>) -> (u64, u64) {
    sessions
        .into_iter()
        .map(PhoenixConnection::stats)
        .fold((0, 0), |(p, w), s: PhoenixStats| {
            (p + s.results_persisted, w + s.updates_wrapped)
        })
}

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;

    fn server_config() -> ServerConfig;

    /// Create and fill the workload's tables; identical for equal seeds.
    fn populate(client: &EngineClient, seed: u64) -> sqlengine::Result<()>;

    /// Start a server, load it and checkpoint.
    fn load(seed: u64) -> DbServer {
        bench::start_loaded(Self::server_config(), |c| Self::populate(c, seed))
    }

    /// Phoenix configuration of this workload's sessions.
    fn phoenix_config() -> PhoenixConfig {
        PhoenixConfig::default()
    }

    /// The timed set-up: load, checkpoint, connect and warm up.
    fn setup(seed: u64) -> Self;

    /// Untimed preparation of the output checks (reference results).
    fn prepare_checks(&mut self) {}

    fn server(&self) -> &DbServer;

    /// Run the closed loop under `plan`.
    fn measure(&mut self, plan: &Plan) -> Measured;

    /// Close every session, then run the end-of-run output checks and
    /// return what failed.
    fn finish(self) -> Vec<String>;

    /// The seeded single-user op sequence for the layer replay, against
    /// any client; returns the ops it ran.
    fn replay(seed: u64, client: &impl SqlClient) -> Result<u64, String>;

    /// A statement whose result outlives the driver buffer, for the crash
    /// probe that measures recovery after workloads that never crash.
    fn probe_sql() -> Option<String>;
}

/// Run `f` on a thread the benchmark does not clock, so the CPU it burns
/// counts as server CPU — for server-side work the benchmark triggers
/// (crash, restart recovery, checkpoints).
pub fn on_server_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("server-side task panicked"))
}

/// Crash and restart `server` on a server thread; returns the restart
/// time and recovery statistics.
pub fn crash_restart(server: &DbServer) -> sqlengine::Result<(Duration, RecoveryStats)> {
    on_server_thread(|| {
        server.crash();
        let t = Instant::now();
        let stats = server.restart()?;
        Ok((t.elapsed(), stats))
    })
}

/// Quiesced checkpoint, run as server work.
pub fn checkpoint(server: &DbServer) -> sqlengine::Result<()> {
    on_server_thread(|| match server.engine() {
        Some(engine) => engine.checkpoint(),
        None => Err(sqlengine::Error::ServerShutdown),
    })
}

/// A direct engine session for set-up and output checks.
pub fn engine_client(server: &DbServer) -> EngineClient {
    EngineClient::new(server.engine().expect("server is up")).expect("engine session")
}

/// Rows and tables Phoenix has left on the server: `phx_status` rows
/// plus `phx_res_*` result tables.
pub fn server_state_rows(server: &DbServer) -> u64 {
    let Some(engine) = server.engine() else {
        return 0;
    };
    let names = engine.storage().catalog.table_names();
    let tables = names.iter().filter(|n| n.starts_with("phx_res_")).count() as u64;
    let status = if names.iter().any(|n| n == phoenix::STATUS_TABLE) {
        engine_client(server)
            .query(&format!("SELECT COUNT(*) FROM {}", phoenix::STATUS_TABLE))
            .ok()
            .and_then(|rows| {
                rows.first()
                    .and_then(|r| r.first())
                    .and_then(|v| v.as_i64())
            })
            .unwrap_or(0) as u64
    } else {
        0
    };
    tables + status
}

/// Set the workload up `times` times; keep the last, and return the
/// median set-up time in seconds.
pub fn timed_setup<W: Workload>(seed: u64, times: usize) -> (W, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut kept: Option<W> = None;
    for _ in 0..times.max(1) {
        if let Some(old) = kept.take() {
            let server = old.server().clone();
            drop(old);
            server.crash();
        }
        let t = Instant::now();
        kept = Some(W::setup(seed));
        secs.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), stats::median(&secs))
}

/// Run the workload named by `args`.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        WorkloadName::Oltp => run_workload::<oltp::Oltp>(args),
        WorkloadName::Dss => run_workload::<dss::Dss>(args),
        WorkloadName::Recovery => run_workload::<recovery::Recovery>(args),
    }
}

fn run_workload<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        report::per_layer::<W>(args)
    } else {
        report::end_to_end::<W>(args)
    }
}
