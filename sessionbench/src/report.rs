//! The two kinds of run and the result line they print.

use std::fmt::Write as _;
use std::time::Duration;

use phoenix::PhoenixConnection;
use wire::DbServer;

use crate::attrib::{leaked_gauges, Attribution, Window};
use crate::stats::{self, percentile, ratio};
use crate::{crash_restart, layers, sys, Args, Measured, Plan, RecoveryCost, Workload};

/// How long server threads get to release their session slots.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// A run's result: the JSON line's four keys, plus notes for stderr.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; an undefined ratio reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Human-readable summary for stderr.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "{name:<40} {value:>16.6} {unit}");
        }
        let _ = writeln!(
            s,
            "correct={} attempted={} failed={} failed_frac={:.6}",
            self.correct,
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64)
        );
        s
    }

    fn fail(&mut self, what: impl IntoIterator<Item = String>) {
        for w in what {
            self.failed += 1;
            self.notes.push(format!("FAILED: {w}"));
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Close the workload and run its end-of-run output checks.
fn wind_down<W: Workload>(w: W, out: &mut Outcome) -> DbServer {
    let server = w.server().clone();
    out.fail(w.finish());
    server
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end<W: Workload>(args: &Args) -> Outcome {
    let (mut w, setup_s) = crate::timed_setup::<W>(args.seed, crate::SETUPS);
    w.prepare_checks();
    let window = Window::open(W::NAME, w.server());
    let m = w.measure(&Plan {
        seconds: args.seconds,
        min_ops: stats::min_samples(crate::TAIL_PCT),
    });
    let attribution = window.close(w.server());

    let mut out = Outcome {
        attempted: m.attempted,
        failed: m.failed,
        ..Outcome::default()
    };
    out.notes
        .extend(m.failures.iter().map(|f| format!("FAILED: {f}")));
    let server = wind_down(w, &mut out);
    out.notes.extend(leaked_gauges(W::NAME, DRAIN_GRACE));
    server.crash();
    out.correct = out.failed == 0;

    let mut sorted = m.latencies_ns.clone();
    sorted.sort_unstable();
    let mut pct = |p: u32| match percentile(&sorted, p) {
        Some(v) => v as f64 / 1e6,
        None => {
            out.notes.push(format!(
                "p{p} has fewer than {} samples beyond it; reporting the maximum",
                stats::MIN_TAIL
            ));
            sorted.last().map_or(0.0, |&v| v as f64 / 1e6)
        }
    };
    let (p50, p95) = (pct(50), pct(crate::TAIL_PCT));
    out.notes.push(format!(
        "{}: {} samples over {:.3} s; {} commits, {} retries, {} buffer reads",
        W::NAME,
        sorted.len(),
        m.cpu.elapsed.as_secs_f64(),
        m.commits,
        m.retries,
        attribution.io.reads
    ));
    out.metric("ops_per_s", m.ops_per_s(), "1/s");
    out.metric("op_p50_ms", p50, "ms");
    out.metric("op_p95_ms", p95, "ms");
    out.metric(
        "server_cpu_ms_per_op",
        ratio(ms(m.cpu.server), m.ops() as f64),
        "ms",
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
    out
}

/// Crash the server under a session with a half-fetched result, to
/// measure recovery after a workload that never crashes by itself.
fn crash_probe<W: Workload>(server: &DbServer, sql: &str) -> Result<RecoveryCost, String> {
    let e = |what: &'static str| move |e: sqlengine::Error| format!("crash probe {what}: {e}");
    let mut cfg = W::phoenix_config();
    cfg.driver.buffer_bytes = 64;
    let px = PhoenixConnection::connect(server, cfg).map_err(e("connect"))?;
    px.exec(sql).map_err(e("exec"))?;
    px.fetch().map_err(e("fetch"))?;
    let (restart, stats) = crash_restart(server).map_err(e("restart"))?;
    px.fetch_all().map_err(e("drain"))?;
    let phases = px
        .last_recovery_phases()
        .ok_or("crash probe: the session did not recover")?;
    px.close_result();
    px.close();
    Ok(RecoveryCost {
        phases,
        restart,
        stats,
    })
}

/// Means of the recovery costs, as (name, value, unit) metrics.
fn recovery_metrics(out: &mut Outcome, costs: &[RecoveryCost]) {
    let n = costs.len() as f64;
    let mean = |f: &dyn Fn(&RecoveryCost) -> f64| ratio(costs.iter().map(f).sum(), n);
    let p = |c: &RecoveryCost| c.phases;
    out.metric("core.recovery.detect_ms", mean(&|c| ms(p(c).detect)), "ms");
    out.metric("core.recovery.ping_ms", mean(&|c| ms(p(c).ping)), "ms");
    out.metric(
        "core.recovery.reconnect_ms",
        mean(&|c| ms(p(c).reconnect)),
        "ms",
    );
    out.metric("core.recovery.rebind_ms", mean(&|c| ms(p(c).rebind)), "ms");
    out.metric(
        "core.recovery.reinstall_ms",
        mean(&|c| ms(p(c).reinstall)),
        "ms",
    );
    out.metric(
        "core.recovery.reposition_ms",
        mean(&|c| ms(p(c).reposition)),
        "ms",
    );
    out.metric("sqlengine.restart_ms", mean(&|c| ms(c.restart)), "ms");
    out.metric(
        "sqlengine.restart.records_scanned",
        mean(&|c| c.stats.records_scanned as f64),
        "count",
    );
    out.metric(
        "sqlengine.restart.redo_applied",
        mean(&|c| c.stats.redo_applied as f64),
        "count",
    );
    out.metric(
        "sqlengine.restart.undo_actions",
        mean(&|c| c.stats.undo_actions as f64),
        "count",
    );
}

/// Per-op metrics read from the traced window's attribution.
fn window_metrics(out: &mut Outcome, m: &Measured, a: &Attribution, state_rows: u64) {
    let ops = m.ops() as f64;
    let commits = m.commits as f64;
    let us = |name: &str| a.mean(name) / 1e3;
    out.metric("core.persist.probe_us", us("phoenix.persist.probe"), "us");
    out.metric("core.persist.create_us", us("phoenix.persist.create"), "us");
    out.metric(
        "core.persist.materialize_us",
        us("phoenix.persist.materialize"),
        "us",
    );
    out.metric("core.persist.reopen_us", us("phoenix.persist.reopen"), "us");
    out.metric(
        "core.persisted_per_op",
        ratio(m.persisted as f64, ops),
        "count",
    );
    out.metric("core.wrapped_per_op", ratio(m.wrapped as f64, ops), "count");
    out.metric(
        "core.client_cpu_ms_per_op",
        ratio(ms(m.cpu.bench), ops),
        "ms",
    );
    out.metric("core.server_state_rows", state_rows as f64, "count");
    out.metric(
        "odbcsim.roundtrips_per_op",
        ratio(a.count("odbcsim.roundtrip.exec") as f64, ops),
        "count",
    );
    out.metric("odbcsim.roundtrip_us", us("odbcsim.roundtrip.exec"), "us");
    out.metric("wire.admits_per_op", ratio(a.admitted as f64, ops), "count");
    out.metric("wire.shed_per_op", ratio(a.shed as f64, ops), "count");
    out.metric(
        "sqlengine.lock.wait_ms_per_op",
        ratio(a.sum("sqlengine.lock.wait") as f64 / 1e6, ops),
        "ms",
    );
    out.metric(
        "sqlengine.lock.kills_per_commit",
        ratio(a.counter("sqlengine.lock.deadlocks") as f64, commits),
        "count",
    );
    out.metric(
        "sqlengine.txn.useful_frac",
        ratio(commits, commits + m.retries as f64),
        "frac",
    );
    out.metric(
        "sqlengine.buffer.reads_per_op",
        ratio(a.io.reads as f64, ops),
        "count",
    );
    out.metric(
        "sqlengine.buffer.writes_per_op",
        ratio(a.io.writes as f64, ops),
        "count",
    );
    out.metric(
        "sqlengine.wal.flushes_per_commit",
        ratio(a.count("sqlengine.wal.flush") as f64, commits),
        "count",
    );
    out.metric(
        "sqlengine.wal.batch_mean",
        a.mean("wal.flush.batch_size"),
        "count",
    );
    out.metric("sqlengine.wal.append_us", us("sqlengine.wal.append"), "us");
    out.metric("sqlengine.wal.flush_us", us("sqlengine.wal.flush"), "us");
    out.metric(
        "sqlengine.wal.checkpoint_ms",
        a.mean("sqlengine.wal.checkpoint") / 1e6,
        "ms",
    );
}

/// `--trace 1`: the per-layer metrics.
pub fn per_layer<W: Workload>(args: &Args) -> Outcome {
    let (mut w, _) = crate::timed_setup::<W>(args.seed, 1);
    w.prepare_checks();
    // Half the run untraced, half traced: the difference is what tracing
    // costs.
    let plan = Plan {
        seconds: args.seconds / 2.0,
        min_ops: 1,
    };
    let untraced = w.measure(&plan);
    let (traced, attribution, state_rows) = {
        let _tracing = obskit::trace::session();
        let window = Window::open(W::NAME, w.server());
        let traced = w.measure(&plan);
        let state_rows = crate::server_state_rows(w.server());
        // Workloads that never checkpoint get one quiesced checkpoint of
        // the state they dirtied, inside the window.
        if W::probe_sql().is_some() {
            crate::checkpoint(w.server()).expect("end-of-window checkpoint");
        }
        (traced, window.close(w.server()), state_rows)
    };

    let mut out = Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        ..Outcome::default()
    };
    for f in untraced.failures.iter().chain(&traced.failures) {
        out.notes.push(format!("FAILED: {f}"));
    }
    let db_pages = u64::from(w.server().durable().disk.num_pages());
    let pool_pages = W::server_config().pool_capacity;
    let server = wind_down(w, &mut out);
    let recoveries = match W::probe_sql() {
        Some(sql) => match crash_probe::<W>(&server, &sql) {
            Ok(cost) => vec![cost],
            Err(e) => {
                out.fail([e]);
                Vec::new()
            }
        },
        None => traced.recoveries.clone(),
    };
    let leaks = leaked_gauges(W::NAME, DRAIN_GRACE);
    server.crash();
    drop(server);

    window_metrics(&mut out, &traced, &attribution, state_rows);
    recovery_metrics(&mut out, &recoveries);
    out.metric("gauges.leaked", leaks.len() as f64, "count");
    out.notes.extend(leaks);
    out.metric("sqlengine.buffer.db_pages", db_pages as f64, "count");
    out.notes.push(format!(
        "{}: database {db_pages} pages, buffer pool {pool_pages} pages",
        W::NAME
    ));
    out.metric("trace.ops_per_s", traced.ops_per_s(), "1/s");
    out.metric(
        "trace.overhead_ops_per_s",
        traced.ops_per_s() - untraced.ops_per_s(),
        "1/s",
    );

    match layers::replay::<W>(args.seed) {
        Ok(t) => {
            out.attempted += t.statements;
            out.fail(t.mismatches.iter().cloned());
            for (i, layer) in layers::LAYERS[..3].iter().enumerate() {
                out.metric(
                    &format!("{layer}.boundary_ms_per_op"),
                    t.boundary_ms_per_op(i),
                    "ms",
                );
            }
            out.metric("core.self_ms_per_op", t.self_ms_per_op(0), "ms");
            out.metric("odbcsim.self_ms_per_op", t.self_ms_per_op(1), "ms");
            out.metric("wire.self_ms_per_op", t.self_ms_per_op(2), "ms");
            out.metric("sqlengine.exec_ms_per_op", t.self_ms_per_op(3), "ms");
            out.notes.push(format!(
                "replay: {} ops, {} statements per boundary; boundaries {}",
                t.ops,
                t.statements,
                if t.ordered() {
                    "nest (core >= odbcsim >= wire >= sqlengine)"
                } else {
                    "DO NOT nest: a self time is within noise"
                }
            ));
        }
        Err(e) => out.fail([format!("layer replay: {e}")]),
    }
    out.correct = out.failed == 0;
    out
}
