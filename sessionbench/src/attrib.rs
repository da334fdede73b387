//! Per-workload attribution of the process-global obskit registry.
//!
//! The registry is shared by everything in the process, so a workload's
//! share is the [`obskit::Snapshot::diff`] across its own window, paired
//! with the disk I/O delta over the same window. When a workload ends,
//! the level gauges must be back at zero; one that is not is reported
//! with the name of the workload that left it.

use std::time::{Duration, Instant};

use obskit::Snapshot;
use sqlengine::storage::disk::IoSnapshot;
use wire::{AdmissionStats, DbServer};

/// Gauges that must read zero once a workload has closed its sessions.
pub const LEVEL_GAUGES: [&str; 3] = [
    "sessions.active",
    "admission.pending",
    "phoenix.recovery.inflight",
];

/// An open attribution window.
pub struct Window {
    workload: &'static str,
    metrics: Snapshot,
    io: IoSnapshot,
    admission: AdmissionStats,
}

/// One workload's activity: registry delta, disk I/O delta, and the
/// sessions admission control admitted and shed.
#[derive(Debug, Clone)]
pub struct Attribution {
    pub workload: &'static str,
    pub diff: Snapshot,
    pub io: IoSnapshot,
    pub admitted: u64,
    pub shed: u64,
}

impl Window {
    pub fn open(workload: &'static str, server: &DbServer) -> Window {
        Window {
            workload,
            metrics: obskit::global().snapshot(),
            io: server.io_snapshot(),
            admission: server.admission_stats(),
        }
    }

    pub fn close(self, server: &DbServer) -> Attribution {
        let admission = server.admission_stats();
        Attribution {
            workload: self.workload,
            diff: self.metrics.diff(&obskit::global().snapshot()),
            io: server.io_snapshot().delta(self.io),
            admitted: admission.admitted - self.admission.admitted,
            shed: admission.shed - self.admission.shed,
        }
    }
}

impl Attribution {
    pub fn counter(&self, name: &str) -> u64 {
        self.diff.counters.get(name).copied().unwrap_or(0)
    }

    /// Observations recorded into histogram `name` during the window.
    pub fn count(&self, name: &str) -> u64 {
        self.diff.hists.get(name).map_or(0, |h| h.count)
    }

    /// Sum of histogram `name` over the window (nanoseconds for timings).
    pub fn sum(&self, name: &str) -> u64 {
        self.diff.hists.get(name).map_or(0, |h| h.sum)
    }

    /// Mean of histogram `name` over the window, 0 when it saw nothing.
    pub fn mean(&self, name: &str) -> f64 {
        crate::stats::ratio(self.sum(name) as f64, self.count(name) as f64)
    }
}

/// Wait (up to `grace`) for the level gauges to drain to zero, and return
/// every gauge still above zero, named after the workload that leaked it.
/// Server threads release their slots asynchronously after a client
/// closes, hence the grace period.
pub fn leaked_gauges(workload: &str, grace: Duration) -> Vec<String> {
    let deadline = Instant::now() + grace;
    loop {
        let snap = obskit::global().snapshot();
        let leaks: Vec<String> = LEVEL_GAUGES
            .iter()
            .filter_map(|g| {
                let v = snap.gauges.get(*g).copied().unwrap_or(0);
                (v != 0).then(|| format!("workload {workload} leaked gauge {g} = {v}"))
            })
            .collect();
        if leaks.is_empty() || Instant::now() >= deadline {
            return leaks;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
