//! `oltp`: the TPC-C mix at `TpccScale::default()` on a `PhoenixConnection`
//! per user, zero think time. A 128-page buffer pool is smaller than the
//! database (~2300 pages), simulated device latency is zero (a spinning
//! disk model made throughput swing 2× between runs on a 2-core host), and
//! `tpcc_server`'s group commit and `paper_net()` stay on. An op is one
//! transaction through to commit, wait-die retries included.
//!
//! One user: with two, table-S scan locks set off wait-die kill storms
//! (1.7 kills per commit) that swung server CPU per transaction by ±25%
//! between identical runs, wider than any bound the benchmark can hold.
//! Once scans stop blocking updates, raising `USERS` is the benchmark
//! change that brings contention back into this workload.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use phoenix::PhoenixConnection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wire::{DbServer, ServerConfig};
use workloads::tpcc::txns::{run_with_retries, TxnOutcome, TxnType};
use workloads::tpcc::TpccScale;
use workloads::{EngineClient, SqlClient};

use crate::sys::{Interval, ThreadClock};
use crate::{Measured, Plan, Workload};

pub const USERS: usize = 1;
pub const POOL_PAGES: usize = 128;
const WARMUP_TXNS: usize = 10;
const WARMUP_STREAM: u64 = 0x5EED;
const REPLAY_TXNS: usize = 60;
const MAX_RETRIES: u32 = 30;

pub struct Oltp {
    server: DbServer,
    users: Vec<PhoenixConnection>,
    seed: u64,
    /// Closed loops run so far; each draws fresh seeded transaction streams.
    loops: u64,
}

fn scale() -> TpccScale {
    TpccScale::default()
}

/// The transaction mix, in cards per deck of 100. TPC-C asks for at least
/// 43% Payment and 4% each of Order-Status, Delivery and Stock-Level. The
/// usual 45% New-Order / 43% Payment split puts the median on the gap
/// between the cheap types (Payment, Order-Status, Stock-Level: 20–90 ms)
/// and New-Order (100–330 ms), where it jumped between 64 and 98 ms from
/// run to run; 55% Payment puts it inside the Payment cluster.
const MIX: [(TxnType, usize); 5] = [
    (TxnType::NewOrder, 33),
    (TxnType::Payment, 55),
    (TxnType::OrderStatus, 4),
    (TxnType::Delivery, 4),
    (TxnType::StockLevel, 4),
];

/// Transaction types dealt from a shuffled deck (TPC-C §5.2.4.2), so
/// every 100 ops hold the exact mix and percentiles do not move with the
/// sampled proportions.
struct Deck {
    cards: Vec<TxnType>,
}

impl Deck {
    fn new() -> Deck {
        Deck { cards: Vec::new() }
    }

    fn deal(&mut self, rng: &mut StdRng) -> TxnType {
        if self.cards.is_empty() {
            for (t, weight) in MIX {
                self.cards.extend(std::iter::repeat_n(t, weight));
            }
            // Fisher-Yates; cards are dealt from the back.
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.gen_range(0..=i));
            }
        }
        self.cards.pop().expect("a refilled deck has 100 cards")
    }
}

/// One op: a transaction of the mix, retried on wait-die kills.
fn txn(
    client: &impl SqlClient,
    deck: &mut Deck,
    rng: &mut StdRng,
) -> Result<(TxnOutcome, u32), String> {
    let kind = deck.deal(rng);
    run_with_retries(client, rng, &scale(), kind, MAX_RETRIES).map_err(|e| format!("{kind:?}: {e}"))
}

fn user_loop(px: &PhoenixConnection, seed: u64, stop: &AtomicBool, done: &AtomicUsize) -> Measured {
    let clock = ThreadClock::start();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deck = Deck::new();
    let mut m = Measured::default();
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        let out = txn(px, &mut deck, &mut rng);
        let latency = t.elapsed();
        if let Ok((outcome, retries)) = &out {
            m.retries += u64::from(*retries);
            m.commits += u64::from(*outcome == TxnOutcome::Committed);
        }
        m.record(latency, out.map(|_| ()));
        done.fetch_add(1, Ordering::Relaxed);
    }
    m.cpu.bench = clock.stop();
    m
}

/// TPC-C consistency conditions 1–3 (spec §3.3.2), read through a direct
/// engine session.
fn consistency(server: &DbServer) -> Vec<String> {
    let c = crate::engine_client(server);
    let num = |sql: String| -> Result<Vec<f64>, String> {
        let rows = c.query(&sql).map_err(|e| format!("{sql}: {e}"))?;
        let row = rows.into_iter().next().unwrap_or_default();
        Ok(row.iter().map(|v| v.as_f64().unwrap_or(f64::NAN)).collect())
    };
    let mut bad = Vec::new();
    let s = scale();
    for w in 1..=s.warehouses {
        let check = || -> Result<Vec<String>, String> {
            let mut bad = Vec::new();
            let w_ytd = num(format!("SELECT w_ytd FROM warehouse WHERE w_id = {w}"))?[0];
            let d_ytd = num(format!(
                "SELECT SUM(d_ytd) FROM district WHERE d_w_id = {w}"
            ))?[0];
            if (w_ytd - d_ytd).abs() > 1e-6 * w_ytd.abs().max(1.0) {
                bad.push(format!(
                    "condition 1: w_ytd {w_ytd} != sum(d_ytd) {d_ytd} (w {w})"
                ));
            }
            for d in 1..=s.districts_per_warehouse {
                let next = num(format!(
                    "SELECT d_next_o_id FROM district WHERE d_w_id = {w} AND d_id = {d}"
                ))?[0];
                let max_o = num(format!(
                    "SELECT MAX(o_id) FROM orders WHERE o_w_id = {w} AND o_d_id = {d}"
                ))?[0];
                let no = num(format!(
                    "SELECT MAX(no_o_id), MIN(no_o_id), COUNT(*) FROM new_order \
                     WHERE no_w_id = {w} AND no_d_id = {d}"
                ))?;
                let (max_no, min_no, count) = (no[0], no[1], no[2]);
                if next - 1.0 != max_o || (count > 0.0 && max_no != max_o) {
                    bad.push(format!(
                        "condition 2: d_next_o_id-1 {} / max(o_id) {max_o} / max(no_o_id) {max_no} (w {w} d {d})",
                        next - 1.0
                    ));
                }
                if count > 0.0 && max_no - min_no + 1.0 != count {
                    bad.push(format!(
                        "condition 3: new_order span {min_no}..{max_no} holds {count} rows (w {w} d {d})"
                    ));
                }
            }
            Ok(bad)
        };
        match check() {
            Ok(b) => bad.extend(b),
            Err(e) => bad.push(format!("consistency query failed: {e}")),
        }
    }
    bad
}

impl Oltp {
    /// Run the closed loop: `USERS` threads, each on its own session and
    /// its own transaction stream derived from `stream`.
    fn closed_loop(&self, plan: &Plan, stream: u64) -> Measured {
        let stop = AtomicBool::new(false);
        let done = AtomicUsize::new(0);
        let before = crate::phoenix_totals(&self.users);
        let seeds: Vec<u64> = (0..self.users.len() as u64)
            .map(|u| stream ^ (u + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let interval = Interval::start();
        let users = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .users
                .iter()
                .zip(&seeds)
                .map(|(px, &seed)| {
                    let (stop, done) = (&stop, &done);
                    s.spawn(move || user_loop(px, seed, stop, done))
                })
                .collect();
            while !plan.done(interval.elapsed(), done.load(Ordering::Relaxed)) {
                std::thread::sleep(Duration::from_millis(5));
            }
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("oltp user thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut m = Measured::default();
        let mut workers = Duration::ZERO;
        for u in users {
            workers += u.cpu.bench;
            m.absorb(u);
        }
        m.cpu = interval.finish(workers);
        let after = crate::phoenix_totals(&self.users);
        (m.persisted, m.wrapped) = (after.0 - before.0, after.1 - before.1);
        m
    }
}

impl Workload for Oltp {
    const NAME: &'static str = "oltp";

    fn server_config() -> ServerConfig {
        bench::tpcc_server(POOL_PAGES, Duration::ZERO)
    }

    fn populate(client: &EngineClient, seed: u64) -> sqlengine::Result<()> {
        workloads::tpcc::load(client, scale(), seed)
    }

    fn setup(seed: u64) -> Oltp {
        let server = Self::load(seed);
        let users = (0..USERS)
            .map(|_| PhoenixConnection::connect(&server, Self::phoenix_config()).expect("connect"))
            .collect();
        let w = Oltp {
            server,
            users,
            seed,
            loops: 0,
        };
        // The same warm-up transactions for every seed, so set-up time
        // does not depend on whether a Delivery was dealt into them.
        w.closed_loop(
            &Plan {
                seconds: 0.0,
                min_ops: WARMUP_TXNS,
            },
            WARMUP_STREAM,
        );
        w
    }

    fn server(&self) -> &DbServer {
        &self.server
    }

    fn measure(&mut self, plan: &Plan) -> Measured {
        self.loops += 1;
        self.closed_loop(plan, self.seed ^ (self.loops << 32))
    }

    fn finish(self) -> Vec<String> {
        for px in self.users {
            px.close();
        }
        consistency(&self.server)
    }

    fn replay(seed: u64, client: &impl SqlClient) -> Result<u64, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deck = Deck::new();
        for _ in 0..REPLAY_TXNS {
            txn(client, &mut deck, &mut rng)?;
        }
        Ok(REPLAY_TXNS as u64)
    }

    fn probe_sql() -> Option<String> {
        Some("SELECT s_i_id, s_quantity FROM stock WHERE s_w_id = 1".into())
    }
}

/// Pages in the loaded database, against the pool's `POOL_PAGES`.
pub fn db_pages(server: &DbServer) -> u64 {
    u64::from(server.durable().disk.num_pages())
}
