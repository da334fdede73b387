//! Phoenix/ODBC configuration.

use std::time::{Duration, Instant};

use odbcsim::DriverConfig;

/// How Phoenix repositions a reopened result set after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepositionMode {
    /// Re-fetch from the client, discarding rows until the remembered
    /// position (Figure 3: cost grows with position, tuples cross the
    /// network).
    Client,
    /// Advance server-side without transmitting tuples — the paper's
    /// repositioning stored procedure (Figure 4: ~10× faster for large
    /// results).
    Server,
}

/// Reconnection policy used after a suspected server failure: bounded
/// exponential backoff with deterministic jitter and an overall recovery
/// deadline budget. One policy governs every retry decision Phoenix
/// makes — reconnect pacing in phase-1 recovery *and* the
/// statement-level masking retries around it.
///
/// When either bound (attempts or deadline) is exhausted, `recover()`
/// degrades gracefully: it returns the retryable
/// `Error::RecoveryExhausted` with the virtual-session state intact, so
/// a later application call resumes recovery instead of failing
/// permanently.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// Maximum reconnect attempts per recovery before Phoenix reports
    /// `RecoveryExhausted` to the application.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt (the paper
    /// "periodically attempts to reconnect", made adaptive).
    pub initial_backoff: Duration,
    /// Ceiling on the per-attempt backoff.
    pub max_backoff: Duration,
    /// Overall wall-clock budget for one recovery. Counted from the
    /// moment recovery starts; once spent, `RecoveryExhausted`.
    pub deadline: Duration,
    /// How many times one application call (`exec` or `fetch`) may re-run
    /// a failed step — after a recovery, or after backing off from a
    /// deadlock at a replay-safe step — before the error is surfaced.
    /// All the steps of the call share this budget, nested ones included.
    pub masking_retries: u32,
    /// Seed for the deterministic jitter mixed into each backoff delay,
    /// decorrelating concurrent reconnect storms while keeping every
    /// run reproducible.
    pub jitter_seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 50,
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(800),
            deadline: Duration::from_secs(30),
            masking_retries: 10,
            jitter_seed: 0x5eed,
        }
    }
}

impl ReconnectPolicy {
    /// Fixed-interval policy (no growth, generous deadline): the shape
    /// the pre-backoff tests were written against. `interval` is used
    /// for every attempt.
    pub fn fixed(max_attempts: u32, interval: Duration) -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts,
            initial_backoff: interval,
            max_backoff: interval,
            deadline: Duration::from_secs(24 * 60 * 60),
            ..ReconnectPolicy::default()
        }
    }

    /// The pure backoff schedule: delay before retry `attempt` (1-based),
    /// exponentially grown from `initial_backoff`, capped at
    /// `max_backoff`, plus deterministic jitter in `[0, delay/4]` drawn
    /// from `jitter_seed` — same policy and attempt, same delay.
    ///
    /// Stream 0 of [`backoff_delay_stream`](Self::backoff_delay_stream).
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        self.backoff_delay_stream(0, attempt)
    }

    /// Per-stream backoff schedule: like
    /// [`backoff_delay`](Self::backoff_delay), but the jitter is drawn
    /// from a per-`stream` seed (one stream per virtual session, keyed by
    /// its connection id). One shared `jitter_seed` would give every
    /// session the *same* schedule — a reconnect storm would stay
    /// synchronized on every retry; decorrelated streams spread it out.
    pub fn backoff_delay_stream(&self, stream: u64, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let base = self
            .initial_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let quarter = (base / 4).as_nanos() as u64;
        if quarter == 0 {
            return base;
        }
        let jitter = Duration::from_nanos(
            splitmix64(mix_stream(self.jitter_seed, stream) ^ attempt as u64) % (quarter + 1),
        );
        base + jitter
    }
}

/// Decorrelate one policy seed into per-session jitter streams — the
/// same index-mixing scheme `faultkit::net` uses for per-pipe fault
/// schedules: a golden-ratio multiply of the stream index folded into
/// the seed, then the splitmix64 finalizer. Stream 0 reproduces the
/// historical single-stream schedule's structure but every stream is
/// statistically independent of every other.
fn mix_stream(seed: u64, stream: u64) -> u64 {
    if stream == 0 {
        return seed;
    }
    splitmix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// SplitMix64 finalizer — the jitter source. Pure arithmetic, so the
/// schedule needs no RNG state and replays bit-for-bit.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The single sleeping point of Phoenix's recovery path: tracks the
/// attempt count and the deadline budget of one recovery and performs
/// the policy's backoff waits. `wait` returns `false` when the budget
/// (either bound) is exhausted — the caller's cue to degrade to
/// `RecoveryExhausted`.
pub struct Backoff {
    policy: ReconnectPolicy,
    stream: u64,
    attempt: u32,
    deadline: Option<Instant>,
}

impl Backoff {
    /// Start a recovery budget: the deadline clock begins now. Jitter
    /// stream 0 — single-session callers and tests.
    pub fn new(policy: &ReconnectPolicy) -> Backoff {
        Backoff::for_stream(policy, 0)
    }

    /// Start a recovery budget on a per-session jitter stream (see
    /// [`ReconnectPolicy::backoff_delay_stream`]). Phoenix passes the
    /// virtual session's connection id, so concurrent recoveries draw
    /// decorrelated schedules from one configured seed.
    pub fn for_stream(policy: &ReconnectPolicy, stream: u64) -> Backoff {
        Backoff {
            policy: *policy,
            stream,
            attempt: 0,
            deadline: Instant::now().checked_add(policy.deadline),
        }
    }

    /// Retries waited for so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Sleep before the next retry. Returns `false` — without sleeping —
    /// once `max_attempts` retries have been consumed or the deadline
    /// budget has run out; waits never overshoot the deadline.
    pub fn wait(&mut self) -> bool {
        if self.attempt >= self.policy.max_attempts {
            return false;
        }
        self.attempt += 1;
        let delay = self.policy.backoff_delay_stream(self.stream, self.attempt);
        self.sleep_within_budget(delay)
    }

    /// Sleep before the next retry after the server shed us with a
    /// `retry_after` hint: honor the hint plus this stream's seeded
    /// jitter (in `[0, hint/4]`, so a shed herd does not re-arrive in
    /// lockstep), all inside the one recovery budget — the hint is
    /// clipped to the remaining deadline and never extends it. A zero
    /// hint falls back to the ordinary backoff schedule.
    pub fn wait_shed(&mut self, hint: Duration) -> bool {
        if hint.is_zero() {
            return self.wait();
        }
        if self.attempt >= self.policy.max_attempts {
            return false;
        }
        self.attempt += 1;
        let quarter = (hint / 4).as_nanos() as u64;
        let jitter = if quarter == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(
                splitmix64(mix_stream(self.policy.jitter_seed, self.stream) ^ self.attempt as u64)
                    % (quarter + 1),
            )
        };
        self.sleep_within_budget(hint + jitter)
    }

    /// One bounded sleep: clipped to the remaining deadline, `false` when
    /// the budget is already (or just became) spent.
    fn sleep_within_budget(&mut self, mut delay: Duration) -> bool {
        if let Some(d) = self.deadline {
            let now = Instant::now();
            if now >= d {
                return false;
            }
            delay = delay.min(d - now);
        }
        // lint:allow(sleep): the Backoff helper IS the policy's one sanctioned sleep site
        std::thread::sleep(delay);
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return false;
            }
        }
        true
    }
}

/// Client-side result caching (the Section 4 OLTP optimization).
#[derive(Debug, Clone, Copy)]
pub enum CacheMode {
    /// Always persist result sets as server tables (Section 2 behaviour).
    Disabled,
    /// Cache results up to `capacity_bytes` entirely on the client; only
    /// when a result overflows the cache fall back to server-side
    /// persistence. The capacity is the paper's "runtime parameter, set
    /// when a database connection is first created".
    Enabled {
        /// Maximum bytes of encoded rows the cache may hold per result.
        capacity_bytes: usize,
    },
}

impl CacheMode {
    /// Shorthand for [`CacheMode::Enabled`] with the given capacity.
    pub fn enabled(capacity_bytes: usize) -> CacheMode {
        CacheMode::Enabled { capacity_bytes }
    }

    /// Whether client caching is on.
    pub fn is_enabled(&self) -> bool {
        matches!(self, CacheMode::Enabled { .. })
    }
}

/// Full Phoenix configuration.
#[derive(Debug, Clone)]
pub struct PhoenixConfig {
    /// Settings for the underlying (wrapped) native driver connections.
    pub driver: DriverConfig,
    /// Client-side result caching (Section 4 optimization).
    pub cache: CacheMode,
    /// Post-crash result repositioning strategy (Figures 3 vs 4).
    pub reposition: RepositionMode,
    /// Reconnect cadence and give-up bound.
    pub reconnect: ReconnectPolicy,
}

impl Default for PhoenixConfig {
    fn default() -> Self {
        PhoenixConfig {
            driver: DriverConfig::default(),
            cache: CacheMode::Disabled,
            reposition: RepositionMode::Server,
            reconnect: ReconnectPolicy::default(),
        }
    }
}

impl PhoenixConfig {
    /// Section 4 OLTP configuration: client caching on (64 KiB).
    pub fn with_client_caching() -> Self {
        PhoenixConfig {
            cache: CacheMode::enabled(64 * 1024),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_grows_and_caps() {
        let p = ReconnectPolicy::default();
        for attempt in 1..=24 {
            let d = p.backoff_delay(attempt);
            assert_eq!(d, p.backoff_delay(attempt), "jitter must be deterministic");
            assert!(d <= p.max_backoff + p.max_backoff / 4);
            assert!(d >= p.initial_backoff);
        }
        assert!(p.backoff_delay(1) < p.backoff_delay(6));
    }

    #[test]
    fn per_session_jitter_streams_diverge() {
        // Two sessions sharing one configured seed must not share a
        // retry schedule, or a reconnect storm stays synchronized on
        // every attempt. Pin both divergence and per-stream determinism.
        let p = ReconnectPolicy::default();
        let schedule = |stream: u64| -> Vec<Duration> {
            (1..=10)
                .map(|a| p.backoff_delay_stream(stream, a))
                .collect()
        };
        assert_eq!(schedule(1), schedule(1), "streams must be deterministic");
        assert_ne!(
            schedule(1),
            schedule(2),
            "two sessions' retry schedules must diverge"
        );
        let differing = (1..=10u32)
            .filter(|&a| p.backoff_delay_stream(1, a) != p.backoff_delay_stream(2, a))
            .count();
        assert!(
            differing >= 5,
            "streams barely decorrelated: {differing}/10 attempts differ"
        );
        // Stream 0 is the historical shared-stream schedule.
        assert_eq!(p.backoff_delay_stream(0, 3), p.backoff_delay(3));
    }

    #[test]
    fn wait_shed_clips_hint_to_remaining_budget() {
        // A shed server may hint a retry_after far beyond the client's
        // recovery deadline; honoring it verbatim would burn the whole
        // request budget asleep. The wait must clip to what remains.
        let p = ReconnectPolicy {
            max_attempts: u32::MAX,
            deadline: Duration::from_millis(40),
            ..ReconnectPolicy::default()
        };
        let mut b = Backoff::new(&p);
        let t0 = Instant::now();
        while b.wait_shed(Duration::from_secs(10)) {}
        let spent = t0.elapsed();
        assert!(
            spent < Duration::from_secs(2),
            "hint was honored past the deadline budget: {spent:?}"
        );
        assert!(
            spent >= Duration::from_millis(30),
            "gave up early: {spent:?}"
        );
    }

    #[test]
    fn wait_shed_adds_seeded_jitter_to_the_hint() {
        let p = ReconnectPolicy {
            max_attempts: 4,
            deadline: Duration::from_secs(5),
            ..ReconnectPolicy::default()
        };
        let mut a = Backoff::for_stream(&p, 1);
        let mut b = Backoff::for_stream(&p, 2);
        let hint = Duration::from_millis(5);
        let t0 = Instant::now();
        assert!(a.wait_shed(hint));
        let ta = t0.elapsed();
        let t1 = Instant::now();
        assert!(b.wait_shed(hint));
        let tb = t1.elapsed();
        // Both honored at least the hint; jitter keeps them within 25%.
        assert!(ta >= hint && tb >= hint);
        assert!(ta <= Duration::from_millis(60) && tb <= Duration::from_millis(60));
    }

    #[test]
    fn wait_stops_after_max_attempts() {
        let p = ReconnectPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(50),
            ..ReconnectPolicy::default()
        };
        let mut b = Backoff::new(&p);
        assert!(b.wait());
        assert!(b.wait());
        assert!(b.wait());
        assert!(!b.wait());
        assert_eq!(b.attempts(), 3);
    }

    #[test]
    fn wait_stops_at_the_deadline_budget() {
        let p = ReconnectPolicy {
            max_attempts: u32::MAX,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_millis(40),
            ..ReconnectPolicy::default()
        };
        let mut b = Backoff::new(&p);
        let t0 = Instant::now();
        while b.wait() {}
        let spent = t0.elapsed();
        assert!(
            spent >= Duration::from_millis(30),
            "gave up early: {spent:?}"
        );
        assert!(
            spent < Duration::from_secs(5),
            "overshot the budget: {spent:?}"
        );
    }
}
