//! The database server process: thread-per-connection request handling,
//! streaming result production into bounded network buffers, crash
//! (`SHUTDOWN WITH NOWAIT` / fault injection) and restart with recovery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faultkit::net::NetPlan;
use parking_lot::Mutex;

use sqlengine::engine::{Cursor, Durable, Engine, ExecOutcome};
use sqlengine::storage::disk::{DiskModel, IoSnapshot};
use sqlengine::wal::recovery::{RecoveryConfig, RecoveryStats};
use sqlengine::{Error, Result, Row};

pub use sqlengine::wal::log::GroupCommit;

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats};
use crate::protocol::{columns_to_wire, DoneKind, Request, Response, StmtId};
use crate::transport::{Endpoint, NetConfig};

/// Server tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Per-I/O latency model for the simulated disk.
    pub disk_model: DiskModel,
    /// Buffer-pool capacity in pages.
    pub pool_capacity: usize,
    /// Client → server link model.
    pub net_c2s: NetConfig,
    /// Server → client link model (the bounded output buffer lives here).
    pub net_s2c: NetConfig,
    /// Rows per `RowBatch` message.
    pub row_batch: usize,
    /// Initial network fault plan applied to every new connection's
    /// pipes (see [`DbServer::set_fault_plan`] for runtime control).
    pub faults: Option<NetPlan>,
    /// Run a checksum scrub of every page as the final phase of restart
    /// recovery, repairing latent corruption before clients reconnect.
    pub scrub_on_restart: bool,
    /// Group-commit window: when enabled, concurrent committing
    /// sessions coalesce into one WAL fsync per batch. Survives
    /// crash/restart (it is server tuning, not volatile state).
    pub group_commit: GroupCommit,
    /// Admission control: bounded session registry, pending-accept gate,
    /// handshake bound and idle eviction (see [`crate::admission`]).
    /// Defaults are permissive.
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            disk_model: DiskModel::default(),
            pool_capacity: 4096,
            net_c2s: NetConfig::default(),
            net_s2c: NetConfig::default(),
            row_batch: 16,
            faults: None,
            scrub_on_restart: false,
            group_commit: GroupCommit::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Zero-latency network (fast tests).
    pub fn instant_net() -> Self {
        ServerConfig {
            net_c2s: NetConfig::instant(),
            net_s2c: NetConfig::instant(),
            ..Default::default()
        }
    }
}

struct Process {
    engine: Arc<Engine>,
    conns: Mutex<Vec<Arc<Endpoint>>>,
}

struct ServerInner {
    durable: Durable,
    config: ServerConfig,
    process: Mutex<Option<Arc<Process>>>,
    last_recovery: Mutex<Option<(Duration, RecoveryStats)>>,
    /// Active network fault plan; new connections derive per-pipe
    /// schedules from it. Survives crash/restart (the *network* is
    /// faulty, not the server process).
    faults: Mutex<Option<NetPlan>>,
    /// Monotonic pipe index: each connection consumes two (c2s, s2c),
    /// so seeded plans give every pipe its own deterministic stream.
    pipe_seq: AtomicU64,
    /// Admission control. Lives with the durable half — it models the
    /// listener, which outlives database-process crashes.
    admission: AdmissionController,
    /// Incarnation counter, bumped by every successful [`DbServer::restart`].
    /// Admission slots record the epoch they were admitted under so a
    /// post-restart sweep never closes a recycled engine session id.
    epoch: AtomicU64,
}

/// A crashable database server.
///
/// The server owns durable state for its whole lifetime; `crash()` kills
/// the volatile half (engine, sessions, connections — with epoch fencing
/// of stragglers) and `restart()` runs log recovery, exactly the cycle the
/// paper triggers with Query Analyzer's `shutdown with nowait`.
#[derive(Clone)]
pub struct DbServer {
    inner: Arc<ServerInner>,
}

impl DbServer {
    /// Create and start a fresh server.
    pub fn start(config: ServerConfig) -> Result<DbServer> {
        let inner = Arc::new(ServerInner {
            durable: Durable::new(config.disk_model),
            config,
            process: Mutex::new(None),
            last_recovery: Mutex::new(None),
            faults: Mutex::new(config.faults),
            pipe_seq: AtomicU64::new(0),
            admission: AdmissionController::new(config.admission),
            epoch: AtomicU64::new(0),
        });
        let server = DbServer { inner };
        server.restart()?;
        Ok(server)
    }

    /// Boot (or re-boot) the server: run restart recovery.
    pub fn restart(&self) -> Result<RecoveryStats> {
        let mut proc_slot = self.inner.process.lock();
        if proc_slot.is_some() {
            return Err(Error::AlreadyExists("server already running".into()));
        }
        let t0 = Instant::now();
        let engine = Engine::recover(
            &self.inner.durable,
            RecoveryConfig {
                pool_capacity: self.inner.config.pool_capacity,
                scrub: self.inner.config.scrub_on_restart,
                group_commit: self.inner.config.group_commit,
            },
        )?;
        let stats = engine.recovery_stats();
        *self.inner.last_recovery.lock() = Some((t0.elapsed(), stats));
        *proc_slot = Some(Arc::new(Process {
            engine: Arc::new(engine),
            conns: Mutex::new(Vec::new()),
        }));
        let epoch = self.inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        drop(proc_slot);
        self.spawn_idle_sweeper(epoch);
        Ok(stats)
    }

    /// Background idle-session sweeper for one server incarnation: ticks
    /// at a quarter of the idle timeout and exits as soon as its epoch is
    /// over (crash, or a newer restart took its place).
    fn spawn_idle_sweeper(&self, epoch: u64) {
        let server = self.clone();
        let tick = (self.inner.config.admission.idle_timeout / 4).max(Duration::from_millis(10));
        std::thread::spawn(move || loop {
            std::thread::sleep(tick);
            if !server.is_up() || server.epoch() != epoch {
                return;
            }
            server.sweep_idle_sessions();
        });
    }

    /// Evict every session idle past the admission timeout. Returns the
    /// number evicted. The background sweeper calls this on a timer;
    /// tests call it directly for determinism.
    pub fn sweep_idle_sessions(&self) -> usize {
        let evicted = self.inner.admission.sweep_idle(Instant::now());
        if evicted.is_empty() {
            return 0;
        }
        let epoch = self.epoch();
        let engine = self.engine();
        for ev in &evicted {
            // Engine session ids are reissued from 1 after a restart: only
            // close the engine session when the slot was admitted under
            // the current incarnation, or a stale slot would tear down an
            // unrelated session that recycled its id.
            if ev.epoch == epoch {
                if let Some(engine) = &engine {
                    engine.close_session(ev.sid);
                }
            }
        }
        evicted.len()
    }

    /// The current server incarnation (bumped by every restart).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Relaxed)
    }

    /// The admission controller (stats, gate bounds, sweep bookkeeping).
    pub fn admission(&self) -> &AdmissionController {
        &self.inner.admission
    }

    /// Point-in-time admission statistics.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.inner.admission.stats()
    }

    /// Kill the server immediately: every connection breaks, all volatile
    /// state is lost, durable state is fenced against stragglers.
    pub fn crash(&self) {
        let proc = self.inner.process.lock().take();
        if let Some(p) = proc {
            p.engine.mark_shutdown();
            self.inner.durable.fence();
            for ep in p.conns.lock().iter() {
                ep.close();
            }
        }
    }

    /// Whether the server process is currently running.
    pub fn is_up(&self) -> bool {
        self.inner.process.lock().is_some()
    }

    /// The durable half (disk + log), which outlives crashes.
    pub fn durable(&self) -> &Durable {
        &self.inner.durable
    }

    /// Cumulative disk I/O statistics snapshot.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.inner.durable.io_snapshot()
    }

    /// Duration and stats of the most recent restart recovery.
    pub fn last_recovery(&self) -> Option<(Duration, RecoveryStats)> {
        *self.inner.last_recovery.lock()
    }

    /// Direct engine access for benchmark setup (bulk loads, checkpoints)
    /// bypassing the network. `None` while crashed.
    pub fn engine(&self) -> Option<Arc<Engine>> {
        self.inner
            .process
            .lock()
            .as_ref()
            .map(|p| Arc::clone(&p.engine))
    }

    /// Install (or clear) the network fault plan. Applies to connections
    /// opened from now on — including the reconnects a recovering client
    /// makes, which is exactly what a chaos soak wants.
    pub fn set_fault_plan(&self, plan: Option<NetPlan>) {
        *self.inner.faults.lock() = plan;
    }

    /// Install (or clear) storage fault schedules on the durable half:
    /// `data` drives page I/O, `wal` drives log flushes. Survives
    /// crash/restart — the *media* is faulty, not the server process.
    pub fn set_disk_fault_plan(
        &self,
        data: Option<faultkit::disk::DiskPlan>,
        wal: Option<faultkit::disk::DiskPlan>,
    ) {
        self.inner.durable.set_disk_faults(data, wal);
    }

    /// Open a network connection to the server.
    ///
    /// Sheds with [`Error::ServerBusy`] when the pending-accept gate is
    /// full — before any endpoint, thread, or engine resource is spent —
    /// bounding the concurrent (re)connects a post-crash herd can land.
    pub fn connect(&self) -> Result<ClientConn> {
        let proc = {
            let slot = self.inner.process.lock();
            slot.as_ref().cloned().ok_or(Error::ServerShutdown)?
        };
        self.inner.admission.begin_pending()?;
        let (client_ep, server_ep) =
            Endpoint::pair(self.inner.config.net_c2s, self.inner.config.net_s2c);
        if let Some(plan) = *self.inner.faults.lock() {
            let i = self.inner.pipe_seq.fetch_add(2, Ordering::Relaxed);
            client_ep.tx.inject(plan.schedule(i)); // client → server
            client_ep.rx.inject(plan.schedule(i + 1)); // server → client
        }
        let server_ep = Arc::new(server_ep);
        proc.conns.lock().push(Arc::clone(&server_ep));
        let engine = Arc::clone(&proc.engine);
        let server = self.clone();
        let cfg = self.inner.config;
        std::thread::spawn(move || connection_loop(server, engine, server_ep, cfg));
        Ok(ClientConn { ep: client_ep })
    }
}

/// Client-side raw connection handle.
pub struct ClientConn {
    ep: Endpoint,
}

impl ClientConn {
    /// Send a request frame.
    pub fn send(&self, req: &Request) -> Result<()> {
        self.ep.tx.send(req.encode(), None)
    }

    /// Receive the next response, waiting up to `timeout`.
    ///
    /// A frame that fails to decode means the byte stream is corrupt
    /// (e.g. a truncated message): there is no way to resynchronize, so
    /// the link is torn down and the error is connection-fatal.
    pub fn recv(&self, timeout: Option<Duration>) -> Result<Response> {
        let frame = self.ep.rx.recv(timeout)?;
        match Response::decode(&frame) {
            Ok(resp) => Ok(resp),
            Err(_) => {
                self.ep.close();
                Err(Error::ServerShutdown)
            }
        }
    }

    /// Drop the link abruptly (client-side close).
    pub fn close(&self) {
        self.ep.close();
    }

    /// Whether the link has been torn down (server crash or close).
    pub fn is_closed(&self) -> bool {
        self.ep.rx.is_closed()
    }
}

// ---------------------------------------------------------------------------
// Server-side connection handling
// ---------------------------------------------------------------------------

/// Best-effort reply on a link that may already be torn down by a server
/// crash or client close. A failed send is deliberately not an error:
/// the response has nowhere to go, and the connection loop observes the
/// dead link at its next `recv`.
fn reply(ep: &Endpoint, resp: Response, cancel: Option<&AtomicBool>) {
    // lint:allow(discard): link death is surfaced by the next recv, not here
    let _ = ep.tx.send(resp.encode(), cancel);
}

/// Releases the pending-accept gate slot taken in [`DbServer::connect`]
/// when the handshake resolves — on every path, including link death.
struct PendingGuard<'a>(&'a AdmissionController);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.end_pending();
    }
}

/// Releases an admitted session — registry slot and engine session — on
/// every connection-loop exit path (disconnect, link death, corrupt
/// frame, shutdown statement, panic). `release` reports whether the slot
/// was still registered; an idle eviction may have removed it (and closed
/// the engine session) first, in which case both cleanups are no-ops.
struct SlotGuard<'a> {
    admission: &'a AdmissionController,
    engine: &'a Engine,
    admit_id: u64,
    sid: u64,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.admission.release(self.admit_id);
        self.engine.close_session(self.sid);
    }
}

fn connection_loop(server: DbServer, engine: Arc<Engine>, ep: Arc<Endpoint>, cfg: ServerConfig) {
    let admission = server.admission();
    let epoch = server.epoch();
    // Handshake. The pending-gate slot taken in `connect()` is held until
    // this resolves, bounding concurrent handshakes under a herd — so the
    // wait for the `Connect` frame is itself bounded: a link whose hello
    // never arrives (client died mid-connect, or the frame is stalled by
    // a network fault) must not pin a gate slot past `handshake_timeout`.
    let handshake = {
        let _pending = PendingGuard(admission);
        let handshake_deadline = Instant::now() + cfg.admission.handshake_timeout;
        loop {
            let left = handshake_deadline.saturating_duration_since(Instant::now());
            let Ok(frame) = ep.rx.recv(Some(left)) else {
                ep.close();
                return;
            };
            match Request::decode(&frame) {
                Ok(Request::Connect { .. }) => {
                    break admission
                        .admit(epoch, Arc::clone(&ep))
                        .and_then(|admit_id| match engine.create_session() {
                            Ok(sid) => {
                                admission.bind(admit_id, sid);
                                Ok((sid, admit_id))
                            }
                            Err(e) => {
                                admission.release(admit_id);
                                Err(e)
                            }
                        })
                }
                Ok(Request::Ping) => {
                    reply(&ep, Response::Pong, None);
                }
                _ => {
                    // Corrupt or unexpected pre-session frame: drop the link.
                    ep.close();
                    return;
                }
            }
        }
    };
    // The pending slot is released before the reply goes out: a client
    // that opens its next connection as soon as this one's reply arrives
    // must not find this handshake still pending.
    let (sid, admit_id) = match handshake {
        Ok(ids) => {
            reply(&ep, Response::Connected { session: ids.0 }, None);
            ids
        }
        Err(e) => {
            // Shed (or no engine session): tell the client when to retry,
            // then drop the link — no server-side state remains.
            reply(&ep, Response::Error { stmt: 0, error: e }, None);
            ep.close();
            return;
        }
    };

    let _slot = SlotGuard {
        admission,
        engine: &engine,
        admit_id,
        sid,
    };
    let cancels: Arc<Mutex<HashMap<StmtId, Arc<AtomicBool>>>> =
        Arc::new(Mutex::new(HashMap::new()));

    loop {
        let Ok(frame) = ep.rx.recv(None) else {
            // Link dead (crash or client close). Close our half too so
            // producer threads blocked on the outbound pipe wake up.
            ep.close();
            return;
        };
        // Any inbound frame is liveness for the idle-eviction clock (and
        // traffic for the per-session footprint accounting).
        admission.touch(admit_id, frame.len() as u64);
        // Frame received but not yet acted on: a crash here loses the
        // request entirely (client must re-submit).
        faultkit::crashpoint!("wire.exec.recv");
        let req = match Request::decode(&frame) {
            Ok(r) => r,
            Err(_) => {
                // Corrupt request frame (e.g. truncated in transit): the
                // stream cannot be resynchronized — treat it like a dead
                // link, exactly as a real server drops a broken socket.
                ep.close();
                return;
            }
        };
        match req {
            Request::Ping => {
                reply(&ep, Response::Pong, None);
            }
            Request::Disconnect => {
                ep.close();
                return;
            }
            Request::CloseStmt { stmt } => {
                if let Some(flag) = cancels.lock().get(&stmt) {
                    flag.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            }
            Request::Exec { stmt, sql, skip } => {
                faultkit::crashpoint!("wire.exec.pre");
                match engine.execute(sid, &sql) {
                    Err(e) => {
                        reply(&ep, Response::Error { stmt, error: e }, None);
                    }
                    Ok(ExecOutcome::Affected(n)) => {
                        // Executed (and, for modifications, committed)
                        // but the reply has not been sent: the
                        // paper's "crash after commit, before reply"
                        // window that the status table masks.
                        faultkit::crashpoint!("wire.exec.post");
                        reply(
                            &ep,
                            Response::Done {
                                stmt,
                                kind: DoneKind::Affected(n),
                            },
                            None,
                        );
                    }
                    Ok(ExecOutcome::Ok) => {
                        faultkit::crashpoint!("wire.exec.post.ok");
                        reply(
                            &ep,
                            Response::Done {
                                stmt,
                                kind: DoneKind::Ok,
                            },
                            None,
                        );
                    }
                    Ok(ExecOutcome::ShutdownRequested { nowait }) => {
                        if !nowait {
                            // Graceful: checkpoint so restart redo is
                            // trivial, then stop.
                            if let Some(e) = server.engine() {
                                // lint:allow(discard): a failed shutdown checkpoint only costs redo time at restart
                                let _ = e.checkpoint();
                            }
                        }
                        server.crash();
                        return;
                    }
                    Ok(ExecOutcome::Rows(cursor)) => {
                        let mut stream = ResultStream::new(
                            Arc::clone(&ep),
                            stmt,
                            cursor,
                            skip,
                            cfg.row_batch.max(1),
                        );
                        if stream.pump(false) == Pumped::Full {
                            spill(stream, &cancels);
                        }
                    }
                }
            }
            Request::Connect { .. } => {
                // Duplicate connect: ignore.
            }
        }
    }
}

/// Hand a stream the outbound pipe could not take to a producer thread
/// of its own. The producer blocks on the full pipe — the suspended-scan
/// behaviour from the paper's Table 3 experiment — and `CloseStmt`
/// cancels it through its entry in `cancels`.
fn spill(mut stream: ResultStream, cancels: &Arc<Mutex<HashMap<StmtId, Arc<AtomicBool>>>>) {
    obskit::metrics::global()
        .counter("wire.stream.spilled")
        .incr();
    let stmt = stream.stmt;
    cancels.lock().insert(stmt, Arc::clone(&stream.cancel));
    let cancels = Arc::clone(cancels);
    std::thread::spawn(move || {
        stream.pump(true);
        cancels.lock().remove(&stmt);
    });
}

/// How far one [`ResultStream::pump`] call got.
#[derive(PartialEq, Eq)]
enum Pumped {
    /// The stream ended: sent in full, failed, cancelled, or its link died.
    Finished,
    /// The pipe could not take the next frame without blocking; the
    /// stream holds that frame and resumes from it.
    Full,
}

/// Where a [`ResultStream`] is in its frame sequence: `Meta`, then the
/// skipped rows, then `RowBatch`es, then `Done` (or an `Error` in place
/// of what is left).
enum Stage {
    Meta,
    Skip,
    Rows,
    Done,
    Finished,
}

/// One statement's result on its way into the (bounded) outbound pipe.
/// The connection thread pumps it while the pipe takes each frame
/// without blocking; a stream that meets a full pipe resumes on a
/// producer thread ([`spill`]) from the frame it holds. Each frame is
/// built once, so each `wire.stream.*` crashpoint fires once for its
/// frame on either thread. Pumping on the connection thread never waits
/// on a transaction lock: a cursor takes all its locks when it opens,
/// and `next()` reads pages under short latches.
struct ResultStream {
    ep: Arc<Endpoint>,
    stmt: StmtId,
    cursor: Cursor,
    /// Rows to advance past without transmitting (server-side
    /// repositioning).
    skip: u64,
    batch_size: usize,
    batch: Vec<Row>,
    /// Rows sent so far, reported in `Done`.
    sent: u64,
    stage: Stage,
    /// A built frame the pipe has not taken yet.
    held: Option<Vec<u8>>,
    /// Set by `CloseStmt` once the stream is registered in `cancels`.
    cancel: Arc<AtomicBool>,
}

impl ResultStream {
    fn new(ep: Arc<Endpoint>, stmt: StmtId, cursor: Cursor, skip: u64, batch_size: usize) -> Self {
        ResultStream {
            ep,
            stmt,
            cursor,
            skip,
            batch_size,
            batch: Vec::with_capacity(batch_size),
            sent: 0,
            stage: Stage::Meta,
            held: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Send frames until the stream ends. With `block` unset, stop at the
    /// first frame the pipe cannot take now and keep it for the next call;
    /// with `block` set, wait for room (or for a cancel).
    fn pump(&mut self, block: bool) -> Pumped {
        loop {
            let Some(frame) = self.held.take().or_else(|| self.next_frame()) else {
                return Pumped::Finished;
            };
            let sent = if block {
                self.ep.tx.send(frame, Some(&self.cancel)).map(|()| None)
            } else {
                self.ep.tx.try_send(frame)
            };
            match sent {
                Ok(None) => {}
                Ok(Some(frame)) => {
                    self.held = Some(frame);
                    return Pumped::Full;
                }
                Err(_) => {
                    // Link dead or statement cancelled: drop the rest
                    // (dropping the cursor releases its locks).
                    self.stage = Stage::Finished;
                    return Pumped::Finished;
                }
            }
        }
    }

    /// Build the next frame, advancing the cursor as far as it needs.
    /// `None` once the stream has nothing left to send.
    fn next_frame(&mut self) -> Option<Vec<u8>> {
        let stmt = self.stmt;
        loop {
            match self.stage {
                Stage::Meta => {
                    let columns = columns_to_wire(self.cursor.schema());
                    self.stage = Stage::Skip;
                    faultkit::crashpoint!("wire.stream.meta");
                    return Some(Response::Meta { stmt, columns }.encode());
                }
                Stage::Skip => {
                    self.stage = Stage::Rows;
                    for _ in 0..self.skip {
                        match self.cursor.next() {
                            Some(Ok(_)) => {}
                            Some(Err(e)) => return Some(self.fail(e)),
                            None => break,
                        }
                    }
                }
                Stage::Rows => loop {
                    if self.cancel.load(Ordering::Relaxed) {
                        // Client abandoned the statement.
                        self.stage = Stage::Finished;
                        return None;
                    }
                    match self.cursor.next() {
                        Some(Ok(row)) => {
                            self.batch.push(row);
                            if self.batch.len() >= self.batch_size {
                                let rows = self.take_batch();
                                faultkit::crashpoint!("wire.stream.batch");
                                return Some(Response::RowBatch { stmt, rows }.encode());
                            }
                        }
                        Some(Err(e)) => return Some(self.fail(e)),
                        None => {
                            self.stage = Stage::Done;
                            if self.batch.is_empty() {
                                break;
                            }
                            let rows = self.take_batch();
                            faultkit::crashpoint!("wire.stream.tail");
                            return Some(Response::RowBatch { stmt, rows }.encode());
                        }
                    }
                },
                Stage::Done => {
                    self.stage = Stage::Finished;
                    faultkit::crashpoint!("wire.stream.done");
                    let kind = DoneKind::Rows(self.sent);
                    return Some(Response::Done { stmt, kind }.encode());
                }
                Stage::Finished => return None,
            }
        }
    }

    /// The rows batched so far, counted as sent.
    fn take_batch(&mut self) -> Vec<Row> {
        self.sent += self.batch.len() as u64;
        std::mem::take(&mut self.batch)
    }

    /// End the stream with an `Error` frame in place of the rest.
    fn fail(&mut self, error: Error) -> Vec<u8> {
        self.stage = Stage::Finished;
        Response::Error {
            stmt: self.stmt,
            error,
        }
        .encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connect(server: &DbServer) -> (ClientConn, u64) {
        let conn = server.connect().unwrap();
        conn.send(&Request::Connect {
            login: "test".into(),
        })
        .unwrap();
        let Response::Connected { session } = conn.recv(Some(Duration::from_secs(5))).unwrap()
        else {
            panic!("expected Connected")
        };
        (conn, session)
    }

    type ExecOutcome = (
        Vec<(String, sqlengine::DataType)>,
        Vec<sqlengine::Row>,
        DoneKind,
    );

    fn exec_collect(conn: &ClientConn, stmt: StmtId, sql: &str) -> Result<ExecOutcome> {
        conn.send(&Request::Exec {
            stmt,
            sql: sql.into(),
            skip: 0,
        })?;
        let mut cols = Vec::new();
        let mut rows = Vec::new();
        loop {
            match conn.recv(Some(Duration::from_secs(10)))? {
                Response::Meta { stmt: s, columns } if s == stmt => cols = columns,
                Response::RowBatch {
                    stmt: s,
                    rows: mut r,
                } if s == stmt => rows.append(&mut r),
                Response::Done { stmt: s, kind } if s == stmt => return Ok((cols, rows, kind)),
                Response::Error { stmt: s, error } if s == stmt => return Err(error),
                _ => {}
            }
        }
    }

    #[test]
    fn end_to_end_query() {
        let server = DbServer::start(ServerConfig::instant_net()).unwrap();
        let (conn, _) = connect(&server);
        exec_collect(
            &conn,
            1,
            "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10))",
        )
        .unwrap();
        let (_, _, kind) = exec_collect(&conn, 2, "INSERT INTO t VALUES (1,'x'),(2,'y')").unwrap();
        assert_eq!(kind, DoneKind::Affected(2));
        let (cols, rows, kind) = exec_collect(&conn, 3, "SELECT * FROM t ORDER BY a").unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(kind, DoneKind::Rows(2));
    }

    #[test]
    fn stalled_handshake_frees_its_pending_slot() {
        let mut cfg = ServerConfig::instant_net();
        cfg.admission.pending_accepts = 1;
        cfg.admission.handshake_timeout = Duration::from_millis(300);
        let server = DbServer::start(cfg).unwrap();
        // Take the only handshake slot and never send the hello.
        let silent = server.connect().unwrap();
        // The gate is full: a second arrival sheds instead of queueing.
        assert!(matches!(server.connect(), Err(Error::ServerBusy { .. })));
        // The slowloris link is cut at the handshake bound and the slot
        // drains — a later arrival gets through and completes normally.
        let deadline = Instant::now() + Duration::from_secs(5);
        let conn = loop {
            match server.connect() {
                Ok(c) => break c,
                Err(Error::ServerBusy { .. }) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("unexpected connect error: {e:?}"),
            }
        };
        conn.send(&Request::Connect {
            login: "late".into(),
        })
        .unwrap();
        assert!(matches!(
            conn.recv(Some(Duration::from_secs(5))).unwrap(),
            Response::Connected { .. }
        ));
        // The abandoned link was torn down server-side at the bound.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !silent.is_closed() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(silent.is_closed());
    }

    #[test]
    fn ping_pong() {
        let server = DbServer::start(ServerConfig::instant_net()).unwrap();
        let (conn, _) = connect(&server);
        conn.send(&Request::Ping).unwrap();
        assert_eq!(
            conn.recv(Some(Duration::from_secs(5))).unwrap(),
            Response::Pong
        );
    }

    #[test]
    fn crash_breaks_connections_and_restart_recovers() {
        let server = DbServer::start(ServerConfig::instant_net()).unwrap();
        let (conn, _) = connect(&server);
        exec_collect(&conn, 1, "CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        exec_collect(&conn, 2, "INSERT INTO t VALUES (1),(2),(3)").unwrap();

        server.crash();
        assert!(!server.is_up());
        // Connection is dead.
        let err = exec_collect(&conn, 3, "SELECT * FROM t");
        assert!(matches!(err, Err(Error::ServerShutdown)));
        assert!(server.connect().is_err());

        server.restart().unwrap();
        assert!(server.is_up());
        let (conn2, _) = connect(&server);
        let (_, rows, _) = exec_collect(&conn2, 1, "SELECT * FROM t").unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn shutdown_with_nowait_over_the_wire() {
        let server = DbServer::start(ServerConfig::instant_net()).unwrap();
        let (conn, _) = connect(&server);
        exec_collect(&conn, 1, "CREATE TABLE t (a INT)").unwrap();
        conn.send(&Request::Exec {
            stmt: 2,
            sql: "SHUTDOWN WITH NOWAIT".into(),
            skip: 0,
        })
        .unwrap();
        // No orderly reply: the connection just dies.
        let r = conn.recv(Some(Duration::from_secs(5)));
        assert!(matches!(r, Err(Error::ServerShutdown)), "got {r:?}");
        assert!(!server.is_up());
        server.restart().unwrap();
        let (conn2, _) = connect(&server);
        exec_collect(&conn2, 1, "SELECT * FROM t").unwrap();
    }

    #[test]
    fn server_side_skip_transmits_nothing_for_skipped_rows() {
        let server = DbServer::start(ServerConfig::instant_net()).unwrap();
        let (conn, _) = connect(&server);
        exec_collect(&conn, 1, "CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        let mut vals = String::from("INSERT INTO t VALUES ");
        for i in 0..100 {
            if i > 0 {
                vals.push(',');
            }
            vals.push_str(&format!("({i})"));
        }
        exec_collect(&conn, 2, &vals).unwrap();

        conn.send(&Request::Exec {
            stmt: 3,
            sql: "SELECT a FROM t".into(),
            skip: 95,
        })
        .unwrap();
        let mut rows = Vec::new();
        loop {
            match conn.recv(Some(Duration::from_secs(5))).unwrap() {
                Response::RowBatch {
                    stmt: 3,
                    rows: mut r,
                } => rows.append(&mut r),
                Response::Done { stmt: 3, kind } => {
                    assert_eq!(kind, DoneKind::Rows(5));
                    break;
                }
                _ => {}
            }
        }
        assert_eq!(rows.len(), 5);
    }

    /// Serializes the tests that start result streams which may spill:
    /// `wire.stream.spilled` is a process-global counter.
    static STREAMS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn spilled() -> u64 {
        obskit::metrics::global()
            .counter("wire.stream.spilled")
            .get()
    }

    /// A server whose output buffer holds `buffer_bytes`, with table `t`
    /// holding `rows` padded rows (about 35 bytes each on the wire).
    fn padded_table(buffer_bytes: usize, rows: usize) -> (DbServer, ClientConn) {
        let mut cfg = ServerConfig::instant_net();
        cfg.net_s2c.buffer_bytes = buffer_bytes;
        let server = DbServer::start(cfg).unwrap();
        let (conn, _) = connect(&server);
        exec_collect(
            &conn,
            1,
            "CREATE TABLE t (a INT PRIMARY KEY, pad VARCHAR(50))",
        )
        .unwrap();
        let vals: Vec<String> = (0..rows)
            .map(|i| format!("({i}, 'ppppppppppppppppppppppppp')"))
            .collect();
        exec_collect(
            &conn,
            2,
            &format!("INSERT INTO t VALUES {}", vals.join(",")),
        )
        .unwrap();
        (server, conn)
    }

    #[test]
    fn small_result_streams_without_a_spill() {
        let _streams = STREAMS.lock().unwrap_or_else(|p| p.into_inner());
        let (_server, conn) = padded_table(64 * 1024, 100);
        let before = spilled();
        let (cols, rows, kind) = exec_collect(&conn, 3, "SELECT * FROM t").unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(rows.len(), 100);
        assert_eq!(kind, DoneKind::Rows(100));
        assert_eq!(spilled(), before, "a result that fits must not spill");
    }

    #[test]
    fn large_result_spills_once_suspends_and_cancels() {
        let _streams = STREAMS.lock().unwrap_or_else(|p| p.into_inner());
        let (_server, conn) = padded_table(256, 500);
        let before = spilled();
        conn.send(&Request::Exec {
            stmt: 3,
            sql: "SELECT * FROM t".into(),
            skip: 0,
        })
        .unwrap();
        assert!(matches!(
            conn.recv(Some(Duration::from_secs(5))).unwrap(),
            Response::Meta { stmt: 3, .. }
        ));
        // The producer fills the pipe and suspends: the buffered bytes
        // stop moving while nobody reads.
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.ep.rx.buffered_bytes() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let held = conn.ep.rx.buffered_bytes();
        std::thread::sleep(Duration::from_millis(50));
        assert!(held > 0);
        assert_eq!(conn.ep.rx.buffered_bytes(), held, "producer must suspend");
        assert_eq!(spilled(), before + 1, "the stream spills exactly once");

        // Cancel it. The connection thread sets the flag before it
        // answers the ping, so once the pong is in, the producer sends at
        // most the frame it was already placing.
        conn.send(&Request::CloseStmt { stmt: 3 }).unwrap();
        conn.send(&Request::Ping).unwrap();
        let mut rows = 0;
        let mut ponged = false;
        loop {
            let timeout = if ponged { 100 } else { 5000 };
            match conn.recv(Some(Duration::from_millis(timeout))) {
                Ok(Response::Pong) => ponged = true,
                Ok(Response::RowBatch { stmt: 3, rows: r }) => rows += r.len(),
                Ok(other) => panic!("cancelled stream sent {other:?}"),
                Err(Error::Timeout) if ponged => break,
                Err(e) => panic!("{e:?}"),
            }
        }
        assert!(rows < 500, "cancelled stream delivered all {rows} rows");
        assert_eq!(spilled(), before + 1);
        // The connection still serves statements.
        let (_, rows, _) = exec_collect(&conn, 4, "SELECT TOP 1 a FROM t WHERE a = 7").unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn close_stmt_cancels_suspended_stream() {
        let _streams = STREAMS.lock().unwrap_or_else(|p| p.into_inner());
        // Tiny output buffer so the producer suspends immediately.
        let (_server, conn) = padded_table(256, 500);
        conn.send(&Request::Exec {
            stmt: 3,
            sql: "SELECT * FROM t".into(),
            skip: 0,
        })
        .unwrap();
        // Read the metadata, then abandon the statement.
        loop {
            if let Response::Meta { stmt: 3, .. } = conn.recv(Some(Duration::from_secs(5))).unwrap()
            {
                break;
            }
        }
        conn.send(&Request::CloseStmt { stmt: 3 }).unwrap();
        // A new statement on the same connection must work; stale batches
        // from stmt 3 are filtered by stmt id.
        let (_, rows, _) = exec_collect(&conn, 4, "SELECT TOP 1 a FROM t WHERE a = 7").unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn recovery_time_reported() {
        let server = DbServer::start(ServerConfig::instant_net()).unwrap();
        let (conn, _) = connect(&server);
        exec_collect(&conn, 1, "CREATE TABLE t (a INT)").unwrap();
        exec_collect(&conn, 2, "INSERT INTO t VALUES (1)").unwrap();
        server.crash();
        let stats = server.restart().unwrap();
        assert!(stats.records_scanned > 0);
        assert!(server.last_recovery().is_some());
    }

    /// A client that opens its next connection the moment a handshake's
    /// reply arrives never overlaps two pending handshakes: the slot is
    /// released before the reply goes out.
    #[test]
    fn handshake_releases_its_pending_slot_before_replying() {
        let server = DbServer::start(ServerConfig::instant_net()).unwrap();
        for _ in 0..100 {
            let first = connect(&server);
            let second = connect(&server);
            drop((first, second));
        }
        assert_eq!(server.admission_stats().pending_peak, 1);
    }
}
