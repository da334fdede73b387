//! `recovery`: one Phoenix session on TPC-H data, crashed once per cycle.
//! A cycle:
//!
//! 1. leaves an uncommitted update open on a second, native connection
//!    (first, so the next commit's log flush carries it to disk and
//!    restart has a loser to undo);
//! 2. runs a wrapped UPDATE on the ledger row through Phoenix;
//! 3. opens a persisted Q11 result (140–170 rows at sf 0.005, by seed) and fetches to
//!    within a few rows of its end;
//! 4. crashes and restarts the server;
//! 5. fetches the next row — which recovers the session — and drains.
//!
//! An op is one cycle; its latency runs from the crash to the first row
//! delivered after it. Each cycle ends with a quiesced checkpoint so every
//! restart redoes only its own cycle's log. The delivered rows must equal
//! the reference, the wrapped update must be applied exactly once and the
//! loser's update never.

use std::time::{Duration, Instant};

use odbcsim::{DriverConfig, OdbcConnection};
use phoenix::{ExecKind, PhoenixConfig, PhoenixConnection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlengine::types::Row;
use wire::{DbServer, ServerConfig};
use workloads::tpch::{self, queries, TpchScale};
use workloads::{EngineClient, SqlClient};

use crate::clients::same_sequence;
use crate::dss::SF;
use crate::sys::Interval;
use crate::{crash_restart, Measured, Plan, RecoveryCost, Workload};

/// The row the wrapped update increments, and the row the loser touches.
const LEDGER_ROW: i64 = 1;
const LOSER_ROW: i64 = 2;
const WARMUP_CYCLES: usize = 2;
const REPLAY_CYCLES: usize = 10;

pub struct Recovery {
    server: DbServer,
    px: PhoenixConnection,
    rng: StdRng,
    reference: Vec<Row>,
    /// Wrapped updates acknowledged so far.
    applied: i64,
}

fn ledger_update() -> String {
    format!("UPDATE bench_ledger SET n = n + 1 WHERE id = {LEDGER_ROW}")
}

/// Leave a transaction open with one update on the loser row.
fn open_loser(server: &DbServer) -> sqlengine::Result<OdbcConnection> {
    let c = OdbcConnection::connect(server, DriverConfig::default())?;
    c.exec_direct("BEGIN TRAN")?;
    c.exec_direct(&format!(
        "UPDATE bench_ledger SET n = n + 1000 WHERE id = {LOSER_ROW}"
    ))?;
    Ok(c)
}

impl Recovery {
    /// One cycle; returns (crash → first row latency, recovery cost).
    fn cycle(&mut self) -> Result<(Duration, RecoveryCost), String> {
        let err = |step: &'static str| move |e: sqlengine::Error| format!("{step}: {e}");
        let loser = open_loser(&self.server).map_err(err("loser"))?;
        let n = self
            .px
            .execute(&ledger_update())
            .map_err(err("wrapped update"))?;
        if n.affected() != 1 {
            return Err(format!("wrapped update touched {} rows", n.affected()));
        }
        self.applied += 1;

        match self.px.exec(&queries::q11()).map_err(err("q11"))? {
            ExecKind::ResultSet { .. } => {}
            other => return Err(format!("q11 returned {other:?}")),
        }
        let tail = self.rng.gen_range(2..=6usize).min(self.reference.len());
        let mut delivered = self
            .px
            .fetch_block(self.reference.len() - tail)
            .map_err(err("fetch before crash"))?;

        let recoveries = self.px.stats().recoveries;
        let t = Instant::now();
        let (restart, stats) = crash_restart(&self.server).map_err(err("restart"))?;
        let first = self.px.fetch().map_err(err("fetch after crash"))?;
        let latency = t.elapsed();
        delivered.extend(first);
        delivered.extend(self.px.fetch_all().map_err(err("drain"))?);
        let phases = self
            .px
            .last_recovery_phases()
            .filter(|_| self.px.stats().recoveries > recoveries)
            .ok_or("the fetch after the crash did not recover the session")?;
        self.px.close_result();
        drop(loser);

        if !same_sequence(&self.reference, &delivered) {
            return Err(format!(
                "delivered {} rows, not the {}-row reference sequence",
                delivered.len(),
                self.reference.len()
            ));
        }
        let ledger = crate::engine_client(&self.server)
            .query("SELECT id, n FROM bench_ledger ORDER BY id")
            .map_err(err("ledger"))?;
        let n_of = |id: i64| {
            ledger
                .iter()
                .find(|r| r[0].as_i64() == Some(id))
                .and_then(|r| r[1].as_i64())
        };
        if n_of(LEDGER_ROW) != Some(self.applied) || n_of(LOSER_ROW) != Some(0) {
            return Err(format!(
                "ledger {:?}/{:?}, expected {} applied once and the loser undone",
                n_of(LEDGER_ROW),
                n_of(LOSER_ROW),
                self.applied
            ));
        }
        crate::checkpoint(&self.server).map_err(err("checkpoint"))?;
        Ok((
            latency,
            RecoveryCost {
                phases,
                restart,
                stats,
            },
        ))
    }
}

impl Workload for Recovery {
    const NAME: &'static str = "recovery";

    /// `tpch_server` with one row per result batch, so the tail of a
    /// result is still server-side when the crash comes.
    fn server_config() -> ServerConfig {
        ServerConfig {
            row_batch: 1,
            ..bench::tpch_server()
        }
    }

    fn populate(client: &EngineClient, seed: u64) -> sqlengine::Result<()> {
        tpch::load(client, TpchScale::new(SF), seed)?;
        client.execute("CREATE TABLE bench_ledger (id INT PRIMARY KEY, n INT)")?;
        client.execute(&format!(
            "INSERT INTO bench_ledger VALUES ({LEDGER_ROW}, 0), ({LOSER_ROW}, 0)"
        ))?;
        Ok(())
    }

    /// Default Phoenix configuration with a 64-byte driver buffer, so the
    /// fetch after the crash needs the server (a 16 KiB buffer would hold
    /// the whole Q11 result at the client).
    fn phoenix_config() -> PhoenixConfig {
        let mut cfg = PhoenixConfig::default();
        cfg.driver.buffer_bytes = 64;
        cfg
    }

    fn setup(seed: u64) -> Recovery {
        let server = Self::load(seed);
        let px = PhoenixConnection::connect(&server, Self::phoenix_config()).expect("connect");
        let reference = crate::engine_client(&server)
            .query(&queries::q11())
            .expect("reference q11");
        let mut w = Recovery {
            server,
            px,
            rng: StdRng::seed_from_u64(seed),
            reference,
            applied: 0,
        };
        for _ in 0..WARMUP_CYCLES {
            w.cycle().unwrap_or_else(|e| panic!("warm-up cycle: {e}"));
        }
        w
    }

    fn server(&self) -> &DbServer {
        &self.server
    }

    fn measure(&mut self, plan: &Plan) -> Measured {
        let before = crate::phoenix_totals([&self.px]);
        let interval = Interval::start();
        let mut m = Measured::default();
        while !plan.done(interval.elapsed(), m.attempted as usize) {
            match self.cycle() {
                Ok((latency, cost)) => {
                    m.record(latency, Ok(()));
                    m.recoveries.push(cost);
                    m.commits += 1;
                }
                Err(e) => m.record(Duration::ZERO, Err(e)),
            }
        }
        m.cpu = interval.finish(Duration::ZERO);
        let after = crate::phoenix_totals([&self.px]);
        (m.persisted, m.wrapped) = (after.0 - before.0, after.1 - before.1);
        m
    }

    fn finish(self) -> Vec<String> {
        self.px.close();
        Vec::new()
    }

    /// The cycle's statements without the crash: the wrapped update and
    /// the Q11 result, fetched in full.
    fn replay(_seed: u64, client: &impl SqlClient) -> Result<u64, String> {
        for _ in 0..REPLAY_CYCLES {
            client
                .execute(&ledger_update())
                .map_err(|e| e.to_string())?;
            client.query(&queries::q11()).map_err(|e| e.to_string())?;
        }
        Ok(REPLAY_CYCLES as u64)
    }

    fn probe_sql() -> Option<String> {
        None
    }
}
