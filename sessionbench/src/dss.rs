//! `dss`: a TPC-H power stream at sf 0.005 on one `PhoenixConnection`,
//! with a buffer pool that holds the whole database (`tpch_server`).
//! Each pass runs the 22 queries in `queries::stream_order`, then RF1 and
//! an RF2 that deletes exactly the orders RF1 inserted, so every pass
//! starts from the loaded data and one reference serves all passes. An
//! op is one statement.

use phoenix::PhoenixConnection;
use sqlengine::types::Row;
use wire::{DbServer, ServerConfig};
use workloads::tpch::refresh::{self, RefreshState};
use workloads::tpch::{self, queries, TpchScale};
use workloads::{EngineClient, SqlClient};

use crate::clients::{rows_match, Timed, Timing};
use crate::sys::Interval;
use crate::{Measured, Plan, Workload};

/// TPC-H scale factor of `dss` and `recovery`. Q18 still takes ~40% of
/// a pass, and a 200-statement run (the p95 needs ten samples beyond it)
/// fits the time one run may take; sf 0.01 doubles every pass.
pub const SF: f64 = 0.005;

pub struct Dss {
    server: DbServer,
    px: PhoenixConnection,
    stream: Vec<(usize, String)>,
    reference: Vec<Vec<Row>>,
    refresh: Refresh,
}

/// The refresh pair: the library's RF1, and an RF2 that undoes it.
struct Refresh {
    state: RefreshState,
    /// First order key the next RF1 inserts.
    next_new: i64,
}

impl Refresh {
    fn new(seed: u64) -> Refresh {
        let scale = TpchScale::new(SF);
        Refresh {
            state: RefreshState::new(scale, seed.wrapping_add(1)),
            next_new: scale.orders() + 1,
        }
    }

    /// RF1, then the four deletes that remove what it inserted (two key
    /// halves × lineitem, orders — the shape of the library's RF2). Each
    /// delete must remove exactly the rows the matching insert added.
    fn run(&mut self, client: &Timed<'_, impl SqlClient>) -> Vec<Timing> {
        let n = self.state.orders_per_refresh();
        let lo = self.next_new;
        self.next_new += n;
        let rf1 = refresh::rf1(client, &mut self.state);
        let mut log = client.take();
        for (a, b) in [(lo, lo + n / 2 - 1), (lo + n / 2, lo + n - 1)] {
            for sql in [
                format!("DELETE FROM lineitem WHERE l_orderkey BETWEEN {a} AND {b}"),
                format!("DELETE FROM orders WHERE o_orderkey BETWEEN {a} AND {b}"),
            ] {
                // The outcome is in the timing log.
                let _ = client.execute(&sql);
            }
        }
        let undo = client.take();
        // RF1 logs [orders, lineitem] per half, the undo [lineitem, orders].
        let inserted: Vec<u64> = log.iter().map(|t| t.affected).collect();
        for (i, t) in undo.iter().enumerate() {
            let expect = inserted.get(i ^ 1).copied();
            log.push(Timing {
                ok: t.ok && rf1.is_ok() && expect == Some(t.affected),
                ..t.clone()
            });
        }
        log
    }
}

/// One pass: the query stream, then the refresh pair. Returns one timing
/// per statement, `ok` only when the statement succeeded and its output
/// matched `reference` (when given).
fn pass(
    client: &impl SqlClient,
    stream: &[(usize, String)],
    reference: Option<&[Vec<Row>]>,
    refresh: &mut Refresh,
) -> Vec<Timing> {
    let timed = Timed::new(client);
    let mut wrong = Vec::new();
    for (i, (_, sql)) in stream.iter().enumerate() {
        if let (Ok(rows), Some(r)) = (timed.query(sql), reference) {
            if !rows_match(&r[i], &rows) {
                wrong.push(i);
            }
        }
    }
    let mut log = timed.take();
    for i in wrong {
        log[i].ok = false;
    }
    log.extend(refresh.run(&timed));
    log
}

impl Workload for Dss {
    const NAME: &'static str = "dss";

    fn server_config() -> ServerConfig {
        bench::tpch_server()
    }

    fn populate(client: &EngineClient, seed: u64) -> sqlengine::Result<()> {
        tpch::load(client, TpchScale::new(SF), seed).map(|_| ())
    }

    fn setup(seed: u64) -> Dss {
        let server = Self::load(seed);
        let px = PhoenixConnection::connect(&server, Self::phoenix_config()).expect("connect");
        // Warm the session and the lineitem scan path.
        px.query_all(&queries::q6()).expect("warm-up query");
        Dss {
            server,
            px,
            // stream_order's permutations repeat with period 66.
            stream: queries::stream_order((seed % 66) as usize),
            reference: Vec::new(),
            refresh: Refresh::new(seed),
        }
    }

    fn prepare_checks(&mut self) {
        let c = crate::engine_client(&self.server);
        self.reference = self
            .stream
            .iter()
            .map(|(q, sql)| {
                c.query(sql)
                    .unwrap_or_else(|e| panic!("reference Q{q}: {e}"))
            })
            .collect();
    }

    fn server(&self) -> &DbServer {
        &self.server
    }

    fn measure(&mut self, plan: &Plan) -> Measured {
        let before = crate::phoenix_totals([&self.px]);
        let interval = Interval::start();
        let mut m = Measured::default();
        let labels: Vec<String> = self
            .stream
            .iter()
            .map(|(q, _)| format!("Q{q}"))
            .chain((1..=4).map(|i| format!("RF1.{i}")))
            .chain((1..=4).map(|i| format!("RF2.{i}")))
            .collect();
        while !plan.done(interval.elapsed(), m.attempted as usize) {
            let reference = (!self.reference.is_empty()).then_some(&self.reference[..]);
            let log = pass(&self.px, &self.stream, reference, &mut self.refresh);
            for (t, label) in log.iter().zip(&labels) {
                let result = if t.ok {
                    Ok(())
                } else {
                    Err(format!("{label}: failed or wrong output"))
                };
                m.record(t.latency, result);
            }
            // Each refresh statement is one autocommit transaction.
            m.commits += 8;
        }
        m.cpu = interval.finish(std::time::Duration::ZERO);
        let after = crate::phoenix_totals([&self.px]);
        (m.persisted, m.wrapped) = (after.0 - before.0, after.1 - before.1);
        m
    }

    fn finish(self) -> Vec<String> {
        self.px.close();
        Vec::new()
    }

    fn replay(seed: u64, client: &impl SqlClient) -> Result<u64, String> {
        let stream = queries::stream_order((seed % 66) as usize);
        let log = pass(client, &stream, None, &mut Refresh::new(seed));
        match log.iter().position(|t| !t.ok) {
            Some(i) => Err(format!("replay statement {i} failed")),
            None => Ok(log.len() as u64),
        }
    }

    fn probe_sql() -> Option<String> {
        Some(queries::q11())
    }
}
