//! Streaming metrics export: an append-only JSON-lines time series of
//! snapshot *deltas*, for long soaks where one end-of-run dump would
//! hide the trajectory (a latency spike during recovery, a gauge that
//! drains late, a batch size that degrades over hours).
//!
//! A [`Recorder`] owns an output file. The first line is a header
//! (`{"obskit_series": 1, "meta": {…}}`); every subsequent call to
//! [`Recorder::mark`] appends one interval line holding what happened
//! since the previous mark: counters and histograms as deltas (via
//! [`Snapshot::diff`], so merging all interval lines onto the first
//! snapshot reconstructs the final one), gauges as absolute levels at
//! the mark. Lines are flushed as written — a crashed soak keeps every
//! completed interval.
//!
//! Marks can be explicit (`mark("seed-7", &snap)` at workload
//! boundaries — fully deterministic) or periodic ([`Recorder::spawn_ticker`]
//! runs a background thread that marks `tick` every interval until its
//! [`Ticker`] guard drops). `cargo xtask bench-gate --series` validates
//! emitted series files: schema, monotone sequence numbers, non-negative
//! deltas, and the manifest's gauge invariants (bounded mid-run, zero by
//! the final interval).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::export;
use crate::metrics::Snapshot;

/// Writes one JSON-lines time series; see the module docs.
pub struct Recorder {
    inner: Mutex<Inner>,
}

struct Inner {
    out: BufWriter<File>,
    prev: Snapshot,
    seq: u64,
}

impl Recorder {
    /// Create (truncate) the series file at `path` and write the header
    /// line. Parent directories are created as needed. The first `mark`
    /// diffs against the empty snapshot, i.e. reports all activity since
    /// process start — call `mark("setup", …)` right after `create` to
    /// separate load/setup work from the intervals under test.
    pub fn create(path: &Path, meta: &BTreeMap<String, String>) -> io::Result<Recorder> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(export::series_header_json(meta).as_bytes())?;
        out.flush()?;
        Ok(Recorder {
            inner: Mutex::new(Inner {
                out,
                prev: Snapshot::default(),
                seq: 0,
            }),
        })
    }

    /// Append one interval line: the delta between the previous mark's
    /// snapshot and `now`, labelled for the timeline. Sequence numbers
    /// start at 1 and increase by 1 per mark.
    pub fn mark(&self, label: &str, now: &Snapshot) -> io::Result<()> {
        let mut g = self.inner.lock();
        g.seq += 1;
        let line = export::series_line_json(g.seq, label, &g.prev.diff(now));
        g.out.write_all(line.as_bytes())?;
        g.out.flush()?;
        g.prev = now.clone();
        Ok(())
    }

    /// Number of interval lines written so far.
    pub fn intervals(&self) -> u64 {
        self.inner.lock().seq
    }

    /// Spawn a background thread that calls `mark("tick", &source())`
    /// every `interval` until the returned [`Ticker`] is dropped (which
    /// signals, joins, and takes a final `tick` mark so the tail of the
    /// run is never lost). Write errors stop the ticker silently — the
    /// series is diagnostics, never load-bearing for the system under
    /// test.
    pub fn spawn_ticker(
        self: &Arc<Self>,
        interval: Duration,
        source: impl Fn() -> Snapshot + Send + 'static,
    ) -> Ticker {
        let recorder = Arc::clone(self);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (flag, cv) = &*stop2;
            loop {
                let mut stopped = flag.lock();
                if !*stopped {
                    cv.wait_for(&mut stopped, interval);
                }
                let done = *stopped;
                drop(stopped);
                if recorder.mark("tick", &source()).is_err() || done {
                    return;
                }
            }
        });
        Ticker {
            stop,
            handle: Some(handle),
        }
    }
}

/// Guard for a periodic-mark thread; dropping stops it after one final
/// mark.
pub struct Ticker {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Ticker {
    fn drop(&mut self) {
        let (flag, cv) = &*self.stop;
        *flag.lock() = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            // A panic on the ticker thread is its own bug; joining must
            // not turn Drop into a double panic.
            // The join error is a ticker-thread panic already reported there.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::Registry;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("obskit-stream-{}-{}", std::process::id(), name));
        p
    }

    fn parse_lines(path: &Path) -> Vec<Json> {
        std::fs::read_to_string(path)
            .expect("series file")
            .lines()
            .map(|l| Json::parse(l).expect("line parses"))
            .collect()
    }

    #[test]
    fn marks_emit_header_and_delta_lines() {
        let path = tmp_path("marks.jsonl");
        let reg = Registry::new();
        let meta = BTreeMap::from([("source".to_string(), "unit".to_string())]);
        let rec = Recorder::create(&path, &meta).expect("create");

        reg.counter("s.c").add(3);
        reg.gauge("s.g").set(5);
        reg.histogram("s.h").record(100);
        rec.mark("first", &reg.snapshot()).expect("mark");

        reg.counter("s.c").add(4);
        reg.gauge("s.g").set(0);
        rec.mark("second", &reg.snapshot()).expect("mark");
        assert_eq!(rec.intervals(), 2);

        let lines = parse_lines(&path);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0].get("obskit_series").and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            lines[0]
                .get("meta")
                .and_then(|m| m.get("source"))
                .and_then(Json::as_str),
            Some("unit")
        );
        // Interval 1 carries the activity before the first mark…
        assert_eq!(lines[1].get("seq").and_then(Json::as_f64), Some(1.0));
        assert_eq!(lines[1].get("label").and_then(Json::as_str), Some("first"));
        let c1 = lines[1].get("counters").and_then(|c| c.get("s.c"));
        assert_eq!(c1.and_then(Json::as_f64), Some(3.0));
        // …interval 2 only the delta, with the gauge's absolute level.
        let c2 = lines[2].get("counters").and_then(|c| c.get("s.c"));
        assert_eq!(c2.and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            lines[2]
                .get("gauges")
                .and_then(|g| g.get("s.g"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        let h2 = lines[2].get("histograms").and_then(|h| h.get("s.h"));
        assert_eq!(
            h2.and_then(|h| h.get("count")).and_then(Json::as_f64),
            Some(0.0),
            "idle histogram contributes an empty delta"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merged_intervals_reconstruct_the_final_snapshot() {
        let path = tmp_path("merge.jsonl");
        let reg = Registry::new();
        let rec = Recorder::create(&path, &BTreeMap::new()).expect("create");
        let mut reconstructed = Snapshot::default();
        for i in 0..5u64 {
            reg.counter("m.c").add(i + 1);
            reg.histogram("m.h").record(i * 10);
            let snap = reg.snapshot();
            let delta = rec.inner.lock().prev.clone().diff(&snap);
            rec.mark(&format!("i{i}"), &snap).expect("mark");
            reconstructed = reconstructed.merge(&delta);
        }
        assert_eq!(reconstructed, reg.snapshot());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ticker_marks_periodically_and_stops_on_drop() {
        let path = tmp_path("ticker.jsonl");
        let reg = Arc::new(Registry::new());
        let rec = Arc::new(Recorder::create(&path, &BTreeMap::new()).expect("create"));
        {
            let reg2 = Arc::clone(&reg);
            let _t = rec.spawn_ticker(Duration::from_millis(5), move || reg2.snapshot());
            reg.counter("t.c").incr();
            // Wait until at least one periodic mark lands (bounded).
            for _ in 0..400 {
                if rec.intervals() >= 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Drop flushed a final mark, so every pre-drop count is recorded.
        let n = rec.intervals();
        assert!(n >= 1, "ticker never marked");
        let lines = parse_lines(&path);
        assert_eq!(lines.len() as u64, n + 1);
        let total: f64 = lines[1..]
            .iter()
            .map(|l| {
                l.get("counters")
                    .and_then(|c| c.get("t.c"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            })
            .sum();
        assert_eq!(total, 1.0);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(rec.intervals(), n, "ticker kept running after drop");
        let _ = std::fs::remove_file(&path);
    }
}
