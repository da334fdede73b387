//! CPU and memory read from `/proc`, from outside the program.
//!
//! Server CPU is process CPU minus the CPU of the benchmark's own
//! threads: `/proc/self/stat` counts every thread the process ever ran,
//! including server threads that have already exited, and each benchmark
//! thread reads its own nanosecond run time from
//! `/proc/thread-self/schedstat` at its start and end. Nothing inside the
//! server has to name its threads.

use std::time::{Duration, Instant};

/// `USER_HZ`: the unit of utime/stime in `/proc/<pid>/stat` on Linux.
const CLOCK_TICKS_PER_S: u64 = 100;

/// User + system CPU of the whole process, including exited threads.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime and stime are the 12th and 13th.
    let after_comm = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_nanos((ticks(11) + ticks(12)) * (1_000_000_000 / CLOCK_TICKS_PER_S))
}

/// CPU time the calling thread has run, in nanoseconds.
pub fn thread_cpu() -> Duration {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let ns = s
        .split_whitespace()
        .next()
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_nanos(ns)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Server share of a CPU interval: what the process used beyond the
/// benchmark's own threads. Process CPU has 10 ms resolution, so the
/// difference saturates at zero instead of going negative.
pub fn server_share(process: Duration, bench_threads: Duration) -> Duration {
    process.saturating_sub(bench_threads)
}

/// CPU a benchmark thread spends between `start` and `stop`.
#[derive(Debug, Clone, Copy)]
pub struct ThreadClock(Duration);

impl ThreadClock {
    pub fn start() -> ThreadClock {
        ThreadClock(thread_cpu())
    }

    pub fn stop(self) -> Duration {
        thread_cpu().saturating_sub(self.0)
    }
}

/// Wall and CPU clocks around one measured interval. The calling thread
/// (the benchmark's main thread) is a benchmark thread; workers add their
/// own [`ThreadClock`] readings through [`Interval::finish`].
pub struct Interval {
    wall: Instant,
    process: Duration,
    main: ThreadClock,
}

/// What an [`Interval`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub elapsed: Duration,
    pub server: Duration,
    pub bench: Duration,
}

impl Interval {
    pub fn start() -> Interval {
        Interval {
            wall: Instant::now(),
            process: process_cpu(),
            main: ThreadClock::start(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.wall.elapsed()
    }

    /// Close the interval; `workers` is the CPU of the benchmark's other
    /// threads over it.
    pub fn finish(self, workers: Duration) -> Cpu {
        let bench = self.main.stop() + workers;
        let process = process_cpu().saturating_sub(self.process);
        Cpu {
            elapsed: self.wall.elapsed(),
            server: server_share(process, bench),
            bench,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burn(ms: u64) -> u64 {
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(ms) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        x
    }

    #[test]
    fn cpu_subtraction_is_never_negative() {
        assert_eq!(
            server_share(Duration::from_millis(10), Duration::from_millis(13)),
            Duration::ZERO
        );
        // A benchmark thread that burns CPU while nothing else runs: its
        // own schedstat can exceed the tick-rounded process figure, and
        // the server share must clamp at zero rather than wrap.
        for _ in 0..5 {
            let iv = Interval::start();
            burn(15);
            let cpu = iv.finish(Duration::ZERO);
            assert!(cpu.server <= cpu.elapsed + Duration::from_millis(20));
            assert!(cpu.bench >= Duration::from_millis(5), "{cpu:?}");
        }
    }

    #[test]
    fn other_threads_count_as_server_cpu() {
        let iv = Interval::start();
        // A thread the benchmark does not clock, like a server thread.
        std::thread::spawn(|| burn(200)).join().expect("burner");
        let cpu = iv.finish(Duration::ZERO);
        assert!(cpu.server >= Duration::from_millis(150), "{cpu:?}");
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        burn(20);
        assert!(thread_cpu() > Duration::ZERO);
    }
}
