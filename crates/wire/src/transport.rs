//! Simulated network transport.
//!
//! A [`Pipe`] is a one-directional, byte-bounded message queue with a
//! latency/bandwidth model — the stand-in for the paper's 100 Mbit LAN
//! plus the server's bounded output buffer. A full pipe blocks the sender,
//! which is exactly the mechanism behind the paper's Table 3 observation
//! that a native query's scan *suspends* once the output buffer fills.
//! [`Pipe::try_send`] is the non-blocking form: it hands a frame back
//! instead of waiting, so the server can stream a result that fits from
//! its connection thread and spill only the rest to a producer thread.
//!
//! **Link timing.** Each frame gets a deadline, `deliver_at`, from the
//! [`NetConfig`] model, and is never received before it. The receiver
//! waits out the deadline with a timed condvar wait, and the first such
//! wait on a thread sets that thread's timer slack to 1 ns (Linux lets a
//! timer fire up to the slack late, 50 µs by default; other targets do
//! nothing). Only the calling thread changes. Every delivered frame
//! records its lateness, receive time minus deadline, in
//! `wire.link.late_us`.
//!
//! Closing a pipe (server crash) wakes all blocked parties with a
//! disconnect error.
//!
//! A pipe can additionally carry a deterministic fault schedule
//! ([`Pipe::inject`], driven by [`faultkit::net::NetPlan`]): message
//! drops, frame truncation, latency spikes, link flaps, and stalled
//! delivery — the messy failures a clean `close()` cannot express.

use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use faultkit::net::{NetFault, NetFaultKind, NetSchedule};
use obskit::Histogram;
use sqlengine::Error;

/// Static counter name for each injected fault kind (counter names are
/// `&'static str`, so the mapping is spelled out once here).
fn fault_counter(kind: NetFaultKind) -> &'static str {
    match kind {
        NetFaultKind::Drop => "wire.net.fault.drop",
        NetFaultKind::Truncate => "wire.net.fault.truncate",
        NetFaultKind::Delay => "wire.net.fault.delay",
        NetFaultKind::Stall => "wire.net.fault.stall",
        NetFaultKind::Flap => "wire.net.fault.flap",
    }
}

/// Set the calling thread's timer slack to 1 ns, once per thread, before
/// its first timed wait for a link deadline. Linux may fire a timed wait
/// up to the thread's slack late (50 µs by default), which would make
/// every frame arrive after its model time. The setting is per thread:
/// nothing machine-wide changes. A failed call leaves the default slack,
/// which costs only precision.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::cell::Cell;
    use std::os::raw::{c_int, c_ulong};
    thread_local! {
        static TIGHTENED: Cell<bool> = const { Cell::new(false) };
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    if TIGHTENED.with(|t| t.replace(true)) {
        return;
    }
    // The workspace denies `unsafe_code`. This call is its one exception:
    // std has no wrapper for prctl.
    #[allow(unsafe_code)]
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long passed by value
    // and touches no memory of the caller. It changes only the calling
    // thread's timer slack. Its result is ignored: a failure leaves the
    // default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// Timer slack is a Linux notion; elsewhere there is nothing to set.
#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Network model parameters for one direction.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Propagation latency: delays delivery but *pipelines* (consecutive
    /// messages overlap).
    pub latency: Duration,
    /// Bytes per second, or `None` for infinite bandwidth.
    pub bytes_per_sec: Option<u64>,
    /// Buffer capacity in bytes; senders block when exceeded.
    pub buffer_bytes: usize,
    /// Per-message processing cost (the driver/stack overhead of "the
    /// call made by the driver to request a row of data" the paper
    /// describes): serializes on the link, so many small messages are
    /// slower than few large ones.
    pub per_msg_cost: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        // Defaults sized after the paper's setup: 100 Mbit/s LAN, ~75 KB
        // of output buffering between server and client.
        NetConfig {
            latency: Duration::from_micros(100),
            bytes_per_sec: Some(12_500_000),
            buffer_bytes: 64 * 1024,
            per_msg_cost: Duration::from_micros(20),
        }
    }
}

impl NetConfig {
    /// Zero-latency, unbounded configuration (useful in unit tests).
    pub fn instant() -> Self {
        NetConfig {
            latency: Duration::ZERO,
            bytes_per_sec: None,
            buffer_bytes: usize::MAX,
            per_msg_cost: Duration::ZERO,
        }
    }
}

/// One queued frame. A `hole` frame marks where a dropped message sat:
/// frames ahead of it deliver normally, frames behind it cannot be
/// reassembled (no retransmission on this model), so delivery halts
/// silently at the hole — exactly how an unrecovered TCP segment loss
/// presents to the receiver.
struct Frame {
    payload: Vec<u8>,
    deliver_at: Instant,
    hole: bool,
}

struct PipeState {
    queue: VecDeque<Frame>,
    bytes: usize,
    closed: bool,
    /// Virtual time at which the link frees up (bandwidth serialization).
    link_free_at: Instant,
    /// Injected fault schedule, consulted once per send.
    faults: Option<NetSchedule>,
    /// While set, delivery of everything queued is withheld (stalled
    /// link): receivers see silence, not an error.
    stall_until: Option<Instant>,
}

/// One direction of a connection.
pub struct Pipe {
    cfg: NetConfig,
    state: Mutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
    /// `wire.link.late_us`, held so delivery skips the registry lookup.
    late: Arc<Histogram>,
}

impl Pipe {
    /// Create a pipe with the given network model.
    pub fn new(cfg: NetConfig) -> Arc<Pipe> {
        Arc::new(Pipe {
            cfg,
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                bytes: 0,
                closed: false,
                link_free_at: Instant::now(),
                faults: None,
                stall_until: None,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            late: obskit::metrics::global().histogram("wire.link.late_us"),
        })
    }

    /// Install a fault schedule; evaluated once per [`Pipe::send`].
    pub fn inject(&self, schedule: NetSchedule) {
        self.state.lock().faults = Some(schedule);
    }

    /// Remove any installed fault schedule (the network heals: stalls
    /// lift and dropped frames are "retransmitted", unblocking the
    /// stream).
    pub fn clear_faults(&self) {
        let mut st = self.state.lock();
        st.faults = None;
        st.stall_until = None;
        st.queue.retain(|f| !f.hole);
        drop(st);
        self.readable.notify_all();
    }

    /// Whether the buffer can take a `size`-byte message now. An empty
    /// queue takes any message, so one larger than the whole buffer
    /// still goes out.
    fn fits(&self, st: &PipeState, size: usize) -> bool {
        st.bytes + size <= self.cfg.buffer_bytes || st.queue.is_empty()
    }

    /// Send a message, blocking while the buffer is full. Returns
    /// `Err(ServerShutdown)` if the pipe is closed, or if `cancel` is set
    /// while waiting.
    pub fn send(&self, msg: Vec<u8>, cancel: Option<&AtomicBool>) -> Result<(), Error> {
        let size = msg.len().max(1);
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return Err(Error::ServerShutdown);
            }
            if let Some(c) = cancel {
                if c.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(Error::TxnAborted("statement cancelled".into()));
                }
            }
            if self.fits(&st, size) {
                break;
            }
            self.writable.wait_for(&mut st, Duration::from_millis(1));
        }
        self.enqueue(st, msg)
    }

    /// Send a message only if the buffer can take it without blocking.
    /// Returns `Ok(None)` once it is queued and `Ok(Some(msg))`, handing
    /// the message back untouched, when the buffer is full. Errors as
    /// [`Pipe::send`] does on a closed pipe.
    pub fn try_send(&self, msg: Vec<u8>) -> Result<Option<Vec<u8>>, Error> {
        let st = self.state.lock();
        if st.closed {
            return Err(Error::ServerShutdown);
        }
        if !self.fits(&st, msg.len().max(1)) {
            return Ok(Some(msg));
        }
        self.enqueue(st, msg).map(|()| None)
    }

    /// Queue a message the buffer has room for: draw its injected fault,
    /// give it a delivery deadline and wake a receiver.
    fn enqueue(&self, mut st: MutexGuard<'_, PipeState>, mut msg: Vec<u8>) -> Result<(), Error> {
        // Injected network faults, one draw per message.
        let mut extra_delay = Duration::ZERO;
        let fault = st.faults.as_mut().and_then(NetSchedule::next_fault);
        if let Some(f) = &fault {
            // Every injected fault is a causal landmark for the chaos
            // timeline: count it and trace it under the kind's spec name.
            obskit::metrics::global()
                .counter(fault_counter(f.kind()))
                .incr();
            obskit::event!(
                "wire.net.fault",
                "{} ({} B frame)",
                f.kind().name(),
                msg.len()
            );
        }
        match fault {
            None => {}
            Some(NetFault::Drop) => {
                // Silently lost: the sender believes it went out. On a
                // stream transport the loss is a permanent hole — later
                // frames cannot be delivered past it, so the receiver
                // sees silence until a timeout tears the link down.
                st.queue.push_back(Frame {
                    payload: Vec::new(),
                    deliver_at: Instant::now(),
                    hole: true,
                });
                return Ok(());
            }
            Some(NetFault::Truncate) => {
                // A prefix arrives; the receiver's decode fails and must
                // treat the stream as unrecoverable.
                msg.truncate(msg.len() / 2);
            }
            Some(NetFault::Delay(d)) => extra_delay = d,
            Some(NetFault::Stall(d)) => {
                let until = Instant::now() + d;
                st.stall_until = Some(st.stall_until.map_or(until, |u| u.max(until)));
            }
            Some(NetFault::Flap) => {
                // Link reset: both sides see the connection die.
                st.closed = true;
                st.queue.clear();
                st.bytes = 0;
                drop(st);
                self.readable.notify_all();
                self.writable.notify_all();
                return Err(Error::ServerShutdown);
            }
        }
        let size = msg.len().max(1);
        // Delivery time: serialize on the link after the previous message.
        let now = Instant::now();
        let start = st.link_free_at.max(now);
        let tx_time = match self.cfg.bytes_per_sec {
            Some(bps) if bps > 0 => {
                Duration::from_nanos((size as u64).saturating_mul(1_000_000_000) / bps)
            }
            _ => Duration::ZERO,
        };
        let deliver_at = start + self.cfg.latency + tx_time + self.cfg.per_msg_cost + extra_delay;
        st.link_free_at = start + tx_time + self.cfg.per_msg_cost;
        st.bytes += size;
        st.queue.push_back(Frame {
            payload: msg,
            deliver_at,
            hole: false,
        });
        drop(st);
        self.readable.notify_one();
        Ok(())
    }

    /// Receive the next message, blocking up to `timeout` (`None` = wait
    /// forever). `Err(Timeout)` on deadline, `Err(ServerShutdown)` when
    /// the pipe is closed and drained.
    pub fn recv(&self, timeout: Option<Duration>) -> Result<Vec<u8>, Error> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.state.lock();
        loop {
            // A hole at the front withholds everything behind it: the
            // receiver sees silence, not an error (fall through to the
            // timed waits below).
            if let Some(mut deliver_at) = st.queue.front().filter(|f| !f.hole).map(|f| f.deliver_at)
            {
                let now = Instant::now();
                // A stalled link withholds everything queued, silently.
                match st.stall_until {
                    Some(until) if until > now => deliver_at = deliver_at.max(until),
                    Some(_) => st.stall_until = None,
                    None => {}
                }
                if deliver_at <= now {
                    let Some(frame) = st.queue.pop_front() else {
                        continue;
                    };
                    st.bytes -= frame.payload.len().max(1);
                    drop(st);
                    self.writable.notify_one();
                    let late = now.saturating_duration_since(deliver_at).as_micros();
                    self.late.record(u64::try_from(late).unwrap_or(u64::MAX));
                    return Ok(frame.payload);
                }
                // Wait out the simulated latency (bounded by deadline).
                let mut wait = deliver_at - now;
                if let Some(d) = deadline {
                    if d <= now {
                        return Err(Error::Timeout);
                    }
                    wait = wait.min(d - now);
                }
                tighten_timer_slack();
                self.readable.wait_for(&mut st, wait);
                continue;
            }
            if st.closed {
                return Err(Error::ServerShutdown);
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if d <= now {
                        return Err(Error::Timeout);
                    }
                    self.readable.wait_for(&mut st, d - now);
                }
                None => {
                    self.readable.wait_for(&mut st, Duration::from_millis(50));
                }
            }
        }
    }

    /// Close the pipe: wake all blocked senders/receivers. Undelivered
    /// messages are dropped (they were "in flight" at crash time).
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        st.queue.clear();
        st.bytes = 0;
        drop(st);
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Whether [`Pipe::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Bytes currently buffered (tests/metrics).
    pub fn buffered_bytes(&self) -> usize {
        self.state.lock().bytes
    }
}

/// One endpoint of a bidirectional connection.
pub struct Endpoint {
    /// Outbound direction.
    pub tx: Arc<Pipe>,
    /// Inbound direction.
    pub rx: Arc<Pipe>,
}

impl Endpoint {
    /// Create a connected pair: (client endpoint, server endpoint).
    pub fn pair(client_to_server: NetConfig, server_to_client: NetConfig) -> (Endpoint, Endpoint) {
        let c2s = Pipe::new(client_to_server);
        let s2c = Pipe::new(server_to_client);
        (
            Endpoint {
                tx: Arc::clone(&c2s),
                rx: Arc::clone(&s2c),
            },
            Endpoint { tx: s2c, rx: c2s },
        )
    }

    /// Tear down both directions (crash semantics: in-flight data is lost).
    pub fn close(&self) {
        self.tx.close();
        self.rx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn round_trip() {
        let (c, s) = Endpoint::pair(NetConfig::instant(), NetConfig::instant());
        c.tx.send(b"hello".to_vec(), None).unwrap();
        assert_eq!(s.rx.recv(Some(Duration::from_secs(1))).unwrap(), b"hello");
        s.tx.send(b"world".to_vec(), None).unwrap();
        assert_eq!(c.rx.recv(Some(Duration::from_secs(1))).unwrap(), b"world");
    }

    #[test]
    fn bounded_buffer_blocks_sender() {
        let cfg = NetConfig {
            buffer_bytes: 100,
            ..NetConfig::instant()
        };
        let pipe = Pipe::new(cfg);
        pipe.send(vec![0u8; 80], None).unwrap();
        // Second message exceeds capacity; sender must block.
        let p2 = Arc::clone(&pipe);
        let h = std::thread::spawn(move || p2.send(vec![0u8; 80], None));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished(), "sender should be blocked on full buffer");
        // Consuming unblocks it.
        pipe.recv(Some(Duration::from_secs(1))).unwrap();
        h.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_message_passes_when_queue_empty() {
        let cfg = NetConfig {
            buffer_bytes: 10,
            ..NetConfig::instant()
        };
        let pipe = Pipe::new(cfg);
        // A message larger than the whole buffer must still be deliverable.
        pipe.send(vec![0u8; 100], None).unwrap();
        assert_eq!(pipe.recv(Some(Duration::from_secs(1))).unwrap().len(), 100);
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let pipe = Pipe::new(NetConfig::instant());
        let p2 = Arc::clone(&pipe);
        let h = std::thread::spawn(move || p2.recv(Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(30));
        pipe.close();
        assert_eq!(h.join().unwrap(), Err(Error::ServerShutdown));
    }

    #[test]
    fn close_wakes_blocked_sender() {
        let cfg = NetConfig {
            buffer_bytes: 10,
            ..NetConfig::instant()
        };
        let pipe = Pipe::new(cfg);
        pipe.send(vec![0u8; 10], None).unwrap();
        let p2 = Arc::clone(&pipe);
        let h = std::thread::spawn(move || p2.send(vec![0u8; 10], None));
        std::thread::sleep(Duration::from_millis(30));
        pipe.close();
        assert_eq!(h.join().unwrap(), Err(Error::ServerShutdown));
    }

    #[test]
    fn recv_times_out() {
        let pipe = Pipe::new(NetConfig::instant());
        let start = Instant::now();
        assert_eq!(
            pipe.recv(Some(Duration::from_millis(50))),
            Err(Error::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn cancel_unblocks_sender() {
        let cfg = NetConfig {
            buffer_bytes: 10,
            ..NetConfig::instant()
        };
        let pipe = Pipe::new(cfg);
        pipe.send(vec![0u8; 10], None).unwrap();
        let p2 = Arc::clone(&pipe);
        let cancel = Arc::new(AtomicBool::new(false));
        let c2 = Arc::clone(&cancel);
        let h = std::thread::spawn(move || p2.send(vec![0u8; 10], Some(&c2)));
        std::thread::sleep(Duration::from_millis(30));
        cancel.store(true, Ordering::Relaxed);
        assert!(matches!(h.join().unwrap(), Err(Error::TxnAborted(_))));
    }

    #[test]
    fn latency_delays_delivery() {
        let cfg = NetConfig {
            latency: Duration::from_millis(30),
            ..NetConfig::instant()
        };
        let pipe = Pipe::new(cfg);
        pipe.send(b"x".to_vec(), None).unwrap();
        let start = Instant::now();
        pipe.recv(Some(Duration::from_secs(1))).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    /// The calling thread's timer slack in nanoseconds. Per-thread slack
    /// lives at `/proc/<tid>/timerslack_ns`; `/proc/thread-self` names
    /// the tid (as `<pid>/task/<tid>`) but has no such file.
    #[cfg(target_os = "linux")]
    fn own_timer_slack_ns() -> u64 {
        let link = std::fs::read_link("/proc/thread-self").unwrap();
        let tid = link.file_name().unwrap().to_str().unwrap().to_string();
        let raw = std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns")).unwrap();
        raw.trim().parse().unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn timed_recv_tightens_the_threads_timer_slack() {
        // A fresh thread starts from the inherited slack; one link-deadline
        // wait sets it to 1 ns for that thread alone.
        let pipe = Pipe::new(NetConfig {
            latency: Duration::from_millis(2),
            ..NetConfig::instant()
        });
        let p2 = Arc::clone(&pipe);
        let (before, after) = std::thread::spawn(move || {
            let before = own_timer_slack_ns();
            p2.send(b"x".to_vec(), None).unwrap();
            p2.recv(Some(Duration::from_secs(1))).unwrap();
            (before, own_timer_slack_ns())
        })
        .join()
        .unwrap();
        assert_eq!(after, 1, "slack after a timed recv (was {before} ns)");
    }

    #[test]
    fn no_frame_arrives_before_its_model_time() {
        let latency = Duration::from_millis(2);
        let pipe = Pipe::new(NetConfig {
            latency,
            ..NetConfig::instant()
        });
        let late0 = pipe.late.snapshot().count;
        let p2 = Arc::clone(&pipe);
        let sender = std::thread::spawn(move || {
            (0..200u32)
                .map(|i| {
                    // Read the clock before the send: the frame's deadline
                    // is at least this instant plus the latency.
                    let sent = Instant::now();
                    p2.send(i.to_le_bytes().to_vec(), None).unwrap();
                    std::thread::sleep(Duration::from_micros(100));
                    sent
                })
                .collect::<Vec<_>>()
        });
        let mut got = Vec::new();
        for _ in 0..200 {
            let frame = pipe.recv(Some(Duration::from_secs(5))).unwrap();
            got.push((frame, Instant::now()));
        }
        let sent = sender.join().unwrap();
        for (i, (frame, at)) in got.iter().enumerate() {
            assert_eq!(frame, &(i as u32).to_le_bytes().to_vec(), "order");
            let early = (sent[i] + latency).saturating_duration_since(*at);
            assert_eq!(early, Duration::ZERO, "frame {i} arrived {early:?} early");
        }
        // Every delivered frame recorded its lateness (other tests may
        // add samples of their own to the shared histogram).
        assert!(pipe.late.snapshot().count >= late0 + 200);
    }

    #[test]
    fn try_send_hands_back_what_the_buffer_cannot_take() {
        let pipe = Pipe::new(NetConfig {
            buffer_bytes: 100,
            ..NetConfig::instant()
        });
        // An empty queue takes even an oversized frame.
        assert_eq!(pipe.try_send(vec![1u8; 150]).unwrap(), None);
        assert_eq!(pipe.try_send(vec![2u8; 10]).unwrap(), Some(vec![2u8; 10]));
        assert_eq!(pipe.recv(Some(Duration::from_secs(1))).unwrap().len(), 150);
        assert_eq!(pipe.try_send(vec![2u8; 10]).unwrap(), None);
        assert_eq!(pipe.buffered_bytes(), 10);
        pipe.close();
        assert_eq!(pipe.try_send(vec![3u8; 1]), Err(Error::ServerShutdown));
    }

    #[test]
    fn injected_drop_holes_the_stream() {
        use faultkit::net::{NetFaultKind, NetPlan};
        let pipe = Pipe::new(NetConfig::instant());
        pipe.inject(NetPlan::at(NetFaultKind::Drop, 2).schedule(0));
        pipe.send(b"a".to_vec(), None).unwrap();
        pipe.send(b"b".to_vec(), None).unwrap(); // silently lost
        pipe.send(b"c".to_vec(), None).unwrap();
        assert_eq!(pipe.recv(Some(Duration::from_secs(1))).unwrap(), b"a");
        // "c" must NOT arrive in "b"'s place: frames beyond the hole are
        // withheld (a gap on a stream transport is unrecoverable), and
        // the receiver can detect the loss only by timing out.
        assert_eq!(
            pipe.recv(Some(Duration::from_millis(20))),
            Err(Error::Timeout)
        );
        // Healing the link ("retransmission") resumes delivery in order.
        pipe.clear_faults();
        assert_eq!(pipe.recv(Some(Duration::from_secs(1))).unwrap(), b"c");
    }

    #[test]
    fn injected_truncate_delivers_a_prefix() {
        use faultkit::net::{NetFaultKind, NetPlan};
        let pipe = Pipe::new(NetConfig::instant());
        pipe.inject(NetPlan::at(NetFaultKind::Truncate, 1).schedule(0));
        pipe.send(vec![7u8; 10], None).unwrap();
        let got = pipe.recv(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(got, vec![7u8; 5]);
        // Byte accounting must match the truncated size.
        assert_eq!(pipe.buffered_bytes(), 0);
    }

    #[test]
    fn injected_flap_closes_the_pipe() {
        use faultkit::net::{NetFaultKind, NetPlan};
        let pipe = Pipe::new(NetConfig::instant());
        pipe.inject(NetPlan::at(NetFaultKind::Flap, 2).schedule(0));
        pipe.send(b"a".to_vec(), None).unwrap();
        assert_eq!(pipe.send(b"b".to_vec(), None), Err(Error::ServerShutdown));
        assert!(pipe.is_closed());
        assert_eq!(
            pipe.recv(Some(Duration::from_millis(20))),
            Err(Error::ServerShutdown)
        );
    }

    #[test]
    fn injected_stall_withholds_delivery_without_error() {
        use faultkit::net::{NetFaultKind, NetPlan, STALL};
        let pipe = Pipe::new(NetConfig::instant());
        pipe.inject(NetPlan::at(NetFaultKind::Stall, 1).schedule(0));
        pipe.send(b"x".to_vec(), None).unwrap();
        let start = Instant::now();
        // Short-deadline reads see silence, not an error payload.
        assert_eq!(
            pipe.recv(Some(Duration::from_millis(50))),
            Err(Error::Timeout)
        );
        // Patience (or a watchdog-sized deadline) gets the message.
        let got = pipe.recv(Some(STALL * 4)).unwrap();
        assert_eq!(got, b"x");
        assert!(start.elapsed() >= STALL - Duration::from_millis(20));
    }

    #[test]
    fn injected_delay_spikes_latency_once() {
        use faultkit::net::{NetFaultKind, NetPlan, DELAY_SPIKE};
        let pipe = Pipe::new(NetConfig::instant());
        pipe.inject(NetPlan::at(NetFaultKind::Delay, 1).schedule(0));
        pipe.send(b"x".to_vec(), None).unwrap();
        let start = Instant::now();
        pipe.recv(Some(Duration::from_secs(1))).unwrap();
        assert!(start.elapsed() >= DELAY_SPIKE - Duration::from_millis(5));
        // Later messages are unaffected.
        pipe.send(b"y".to_vec(), None).unwrap();
        let start = Instant::now();
        pipe.recv(Some(Duration::from_secs(1))).unwrap();
        assert!(start.elapsed() < DELAY_SPIKE);
    }

    #[test]
    fn clear_faults_heals_the_link() {
        use faultkit::net::{NetFaultKind, NetPlan};
        let pipe = Pipe::new(NetConfig::instant());
        pipe.inject(NetPlan::at(NetFaultKind::Drop, 1).schedule(0));
        pipe.clear_faults();
        pipe.send(b"a".to_vec(), None).unwrap();
        assert_eq!(pipe.recv(Some(Duration::from_secs(1))).unwrap(), b"a");
    }

    #[test]
    fn bandwidth_serializes_large_transfers() {
        let cfg = NetConfig {
            bytes_per_sec: Some(1_000_000), // 1 MB/s
            ..NetConfig::instant()
        };
        let pipe = Pipe::new(cfg);
        pipe.send(vec![0u8; 100_000], None).unwrap(); // 100 ms of link time
        let start = Instant::now();
        pipe.recv(Some(Duration::from_secs(1))).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(80),
            "elapsed {:?}",
            start.elapsed()
        );
    }
}
