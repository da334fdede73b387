//! Write-ahead log: record format, durable store, and the log manager.
//!
//! LSNs are byte offsets of record starts in the global log stream, from
//! the first byte ever written; truncation never renumbers them. The
//! durable [`LogStore`] survives simulated crashes (it lives in the server's
//! durable half) and holds the log from its base, the last checkpoint's
//! truncation point, to its durable end; the [`LogManager`] adds a
//! volatile tail that is lost on crash, which is exactly what makes the
//! WAL flush rule observable in recovery tests.

use bytes::{Buf, BufMut};
use faultkit::disk::{DiskDevice, DiskFault, DiskOp, DiskPlan, DiskSchedule};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::schema::{decode_schema, encode_schema, get_str, put_str, TableSchema};
use crate::storage::checksum;

/// Bytes of framing before each record payload: `[u32 len][u32 crc]`,
/// with `crc = crc32(payload ++ lsn)` so a record that slid within the
/// stream (a lying fsync dropped its predecessor) fails verification.
const FRAME_HEADER: usize = 8;

/// Log sequence number: byte offset of the record in the log stream.
pub type Lsn = u64;

/// Transaction identifier (monotonically increasing; doubles as age for
/// wait-die deadlock handling).
pub type TxnId = u64;

/// Undo/CLR physical action kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClrAction {
    /// Undo of an insert: tombstone the slot.
    Tombstone,
    /// Undo of a delete: clear the tombstone.
    Untombstone,
}

/// A WAL record.
#[allow(missing_docs)] // fields are the standard (txn, table, page, slot) tuple
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    Begin {
        txn: TxnId,
    },
    Commit {
        txn: TxnId,
    },
    Abort {
        txn: TxnId,
    },
    /// Row inserted at (page, slot) with the given encoded bytes.
    Insert {
        txn: TxnId,
        table: u32,
        page: u32,
        slot: u16,
        data: Vec<u8>,
    },
    /// Row at (page, slot) tombstoned. The bytes stay in the page, so no
    /// before-image is needed for undo.
    Delete {
        txn: TxnId,
        table: u32,
        page: u32,
        slot: u16,
    },
    /// Top action: page appended to a table's page list. Survives even if
    /// the allocating transaction aborts (it is just an empty page).
    AllocPage {
        table: u32,
        page: u32,
    },
    /// Top action: DDL, applied unconditionally (idempotently) at redo.
    CreateTable {
        table_id: u32,
        schema: TableSchema,
    },
    DropTable {
        table_id: u32,
    },
    CreateProc {
        name: String,
        body: String,
    },
    DropProc {
        name: String,
    },
    /// Compensation record written while undoing `undoes`.
    Clr {
        txn: TxnId,
        undoes: Lsn,
        action: ClrAction,
        table: u32,
        page: u32,
        slot: u16,
    },
    /// Checkpoint: catalog snapshot bytes (see `catalog::snapshot`), and
    /// the LSN restart scans from. `scan_from` is the lowest of the log
    /// end when the checkpoint began and the Begin LSN of every
    /// transaction with an update open then, so the records of a writer
    /// whose uncommitted pages the checkpoint flushed stay in the scan.
    /// With no writer open it equals the checkpoint's own LSN.
    Checkpoint {
        scan_from: Lsn,
        snapshot: Vec<u8>,
    },
}

impl LogRecord {
    /// Append the record's binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Begin { txn } => {
                out.put_u8(0);
                out.put_u64(*txn);
            }
            LogRecord::Commit { txn } => {
                out.put_u8(1);
                out.put_u64(*txn);
            }
            LogRecord::Abort { txn } => {
                out.put_u8(2);
                out.put_u64(*txn);
            }
            LogRecord::Insert {
                txn,
                table,
                page,
                slot,
                data,
            } => {
                out.put_u8(3);
                out.put_u64(*txn);
                out.put_u32(*table);
                out.put_u32(*page);
                out.put_u16(*slot);
                out.put_u32(data.len() as u32);
                out.put_slice(data);
            }
            LogRecord::Delete {
                txn,
                table,
                page,
                slot,
            } => {
                out.put_u8(4);
                out.put_u64(*txn);
                out.put_u32(*table);
                out.put_u32(*page);
                out.put_u16(*slot);
            }
            LogRecord::AllocPage { table, page } => {
                out.put_u8(5);
                out.put_u32(*table);
                out.put_u32(*page);
            }
            LogRecord::CreateTable { table_id, schema } => {
                out.put_u8(6);
                out.put_u32(*table_id);
                encode_schema(schema, out);
            }
            LogRecord::DropTable { table_id } => {
                out.put_u8(7);
                out.put_u32(*table_id);
            }
            LogRecord::CreateProc { name, body } => {
                out.put_u8(8);
                put_str(out, name);
                put_str(out, body);
            }
            LogRecord::DropProc { name } => {
                out.put_u8(9);
                put_str(out, name);
            }
            LogRecord::Clr {
                txn,
                undoes,
                action,
                table,
                page,
                slot,
            } => {
                out.put_u8(10);
                out.put_u64(*txn);
                out.put_u64(*undoes);
                out.put_u8(match action {
                    ClrAction::Tombstone => 0,
                    ClrAction::Untombstone => 1,
                });
                out.put_u32(*table);
                out.put_u32(*page);
                out.put_u16(*slot);
            }
            LogRecord::Checkpoint {
                scan_from,
                snapshot,
            } => {
                out.put_u8(11);
                out.put_u64(*scan_from);
                out.put_u32(snapshot.len() as u32);
                out.put_slice(snapshot);
            }
        }
    }

    /// Decode one record, advancing `buf`.
    pub fn decode(buf: &mut &[u8]) -> Result<LogRecord> {
        let corrupt = || Error::Corruption {
            device: "wal".into(),
            detail: "corrupt log record".into(),
        };
        if buf.remaining() < 1 {
            return Err(corrupt());
        }
        let tag = buf.get_u8();
        macro_rules! need {
            ($n:expr) => {
                if buf.remaining() < $n {
                    return Err(corrupt());
                }
            };
        }
        Ok(match tag {
            0 => {
                need!(8);
                LogRecord::Begin { txn: buf.get_u64() }
            }
            1 => {
                need!(8);
                LogRecord::Commit { txn: buf.get_u64() }
            }
            2 => {
                need!(8);
                LogRecord::Abort { txn: buf.get_u64() }
            }
            3 => {
                need!(8 + 4 + 4 + 2 + 4);
                let txn = buf.get_u64();
                let table = buf.get_u32();
                let page = buf.get_u32();
                let slot = buf.get_u16();
                let len = buf.get_u32() as usize;
                need!(len);
                let data = buf.get(..len).ok_or_else(corrupt)?.to_vec();
                buf.advance(len);
                LogRecord::Insert {
                    txn,
                    table,
                    page,
                    slot,
                    data,
                }
            }
            4 => {
                need!(8 + 4 + 4 + 2);
                LogRecord::Delete {
                    txn: buf.get_u64(),
                    table: buf.get_u32(),
                    page: buf.get_u32(),
                    slot: buf.get_u16(),
                }
            }
            5 => {
                need!(8);
                LogRecord::AllocPage {
                    table: buf.get_u32(),
                    page: buf.get_u32(),
                }
            }
            6 => {
                need!(4);
                let table_id = buf.get_u32();
                let schema = decode_schema(buf)?;
                LogRecord::CreateTable { table_id, schema }
            }
            7 => {
                need!(4);
                LogRecord::DropTable {
                    table_id: buf.get_u32(),
                }
            }
            8 => LogRecord::CreateProc {
                name: get_str(buf)?,
                body: get_str(buf)?,
            },
            9 => LogRecord::DropProc {
                name: get_str(buf)?,
            },
            10 => {
                need!(8 + 8 + 1 + 4 + 4 + 2);
                let txn = buf.get_u64();
                let undoes = buf.get_u64();
                let action = match buf.get_u8() {
                    0 => ClrAction::Tombstone,
                    1 => ClrAction::Untombstone,
                    _ => return Err(corrupt()),
                };
                LogRecord::Clr {
                    txn,
                    undoes,
                    action,
                    table: buf.get_u32(),
                    page: buf.get_u32(),
                    slot: buf.get_u16(),
                }
            }
            11 => {
                need!(8 + 4);
                let scan_from = buf.get_u64();
                let len = buf.get_u32() as usize;
                need!(len);
                let snapshot = buf.get(..len).ok_or_else(corrupt)?.to_vec();
                buf.advance(len);
                LogRecord::Checkpoint {
                    scan_from,
                    snapshot,
                }
            }
            _ => return Err(corrupt()),
        })
    }

    /// The `(table, page)` a page record changes: `AllocPage`, `Insert`,
    /// `Delete` and `Clr`, the records `wal::recovery::redo` applies.
    pub fn page(&self) -> Option<(u32, u32)> {
        match *self {
            LogRecord::AllocPage { table, page }
            | LogRecord::Insert { table, page, .. }
            | LogRecord::Delete { table, page, .. }
            | LogRecord::Clr { table, page, .. } => Some((table, page)),
            _ => None,
        }
    }

    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Clr { txn, .. } => Some(*txn),
            _ => None,
        }
    }
}

/// The durable log: every byte from the truncation point on, plus the
/// checkpoint master record. Survives crashes.
///
/// LSNs are absolute byte offsets in the log stream and never change.
/// [`LogStore::truncate_below`] drops the bytes below a checkpoint's
/// `scan_from` once every page image that needed them is in the disk's
/// archive (see [`Storage::checkpoint`](crate::storage::heap::Storage::checkpoint)),
/// and the store keeps the LSN of its first kept byte as its base. Every
/// scan starts at or after the base; asking for a truncated LSN is
/// [`Error::Corruption`].
pub struct LogStore {
    durable: Mutex<KeptLog>,
    /// Writer-fencing epoch (see `MemDisk`): bumped on simulated crash so
    /// a dead incarnation's log flushes, master-record updates and
    /// truncations cannot interleave with the recovered server's.
    epoch: AtomicU64,
    /// Injected fault schedule for the log device. Lives with the store
    /// (the disk is faulty, not the process) so it survives simulated
    /// crashes. Never held across another lock.
    faults: Mutex<Option<DiskSchedule>>,
}

/// What [`LogStore`] keeps under its lock.
struct KeptLog {
    /// LSN of `bytes[0]`: the log below it was truncated.
    base: Lsn,
    /// The kept log, from `base` to the durable end.
    bytes: Vec<u8>,
    /// LSN of the most recent checkpoint record ("master record").
    master: Option<Lsn>,
}

/// One step of a frame scan over the durable byte stream.
enum Frame<'a> {
    /// Clean end of stream at this position.
    End,
    /// An incomplete frame runs past the end of the durable bytes — the
    /// signature of a torn (never-acknowledged) append.
    Torn,
    /// A complete, CRC-verified record payload; `next` is the following
    /// frame's LSN.
    Rec { payload: &'a [u8], next: Lsn },
}

impl KeptLog {
    /// LSN one past the last durable byte.
    fn end(&self) -> Lsn {
        self.base + self.bytes.len() as u64
    }

    /// Parse and verify the frame starting at `lsn`. CRC or framing
    /// damage *within* the durable stream is [`Error::Corruption`], and
    /// so is an `lsn` below the base; only an incomplete frame at the
    /// very end classifies as torn.
    fn frame(&self, lsn: Lsn) -> Result<Frame<'_>> {
        let Some(pos) = lsn.checked_sub(self.base) else {
            return Err(Error::Corruption {
                device: "wal".into(),
                detail: format!(
                    "lsn {lsn} is below the kept log, which starts at {}",
                    self.base
                ),
            });
        };
        let (data, pos) = (&self.bytes, pos as usize);
        if pos >= data.len() {
            return Ok(Frame::End);
        }
        let header = data
            .get(pos..pos + FRAME_HEADER)
            .and_then(|b| <[u8; FRAME_HEADER]>::try_from(b).ok());
        let Some(header) = header else {
            return Ok(Frame::Torn);
        };
        // lint:allow(index): header is a fixed [u8; 8]; indices 0..8 are always in range
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        // lint:allow(index): header is a fixed [u8; 8]; indices 0..8 are always in range
        let crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
        let Some(payload) = data.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len) else {
            return Ok(Frame::Torn);
        };
        if checksum::wal_record_crc(payload, lsn) != crc {
            return Err(Error::Corruption {
                device: "wal".into(),
                detail: format!("record crc mismatch at lsn {lsn}"),
            });
        }
        Ok(Frame::Rec {
            payload,
            next: lsn + (FRAME_HEADER + len) as u64,
        })
    }

    /// Decode and verify every record from `from` to the durable end.
    fn records_from(&self, from: Lsn) -> Result<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        let mut lsn = from;
        loop {
            match self.frame(lsn)? {
                Frame::End => return Ok(out),
                Frame::Torn => {
                    return Err(Error::Corruption {
                        device: "wal".into(),
                        detail: format!("torn frame at lsn {lsn}; tail not recovered"),
                    })
                }
                Frame::Rec { mut payload, next } => {
                    out.push((lsn, LogRecord::decode(&mut payload)?));
                    lsn = next;
                }
            }
        }
    }
}

impl Default for LogStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LogStore {
    /// Empty durable log.
    pub fn new() -> Self {
        LogStore {
            durable: Mutex::new(KeptLog {
                base: 0,
                bytes: Vec::new(),
                master: None,
            }),
            epoch: AtomicU64::new(0),
            faults: Mutex::new(None),
        }
    }

    /// Install (or clear) a storage fault schedule for the log device.
    pub fn set_fault_plan(&self, plan: Option<DiskPlan>) {
        *self.faults.lock() = plan.map(|p| p.schedule(DiskDevice::Wal));
    }

    /// Draw the next injected fault for a log flush. The guard is
    /// scoped: the draw never overlaps the `durable` lock.
    fn draw_fault(&self) -> Option<DiskFault> {
        faultkit::crashpoint!("disk.wal.flush");
        let fault = self
            .faults
            .lock()
            .as_mut()
            .and_then(|s| s.next_fault(DiskOp::Flush));
        if let Some(f) = fault {
            obskit::metrics::global()
                .counter("storage.fault.injected")
                .incr();
            obskit::event!("disk.fault.inject", "wal {}", f.kind().name());
        }
        fault
    }

    /// LSN one past the last durable byte (= next LSN a fresh manager
    /// will use).
    pub fn durable_end(&self) -> Lsn {
        self.durable.lock().end()
    }

    /// LSN of the first kept byte: the log below it was truncated.
    pub fn base(&self) -> Lsn {
        self.durable.lock().base
    }

    /// Bytes of log the store holds: from the base to the durable end.
    pub fn held_bytes(&self) -> u64 {
        self.durable.lock().bytes.len() as u64
    }

    /// Current writer epoch (see `MemDisk` fencing).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Fence off all writers of earlier epochs (simulated crash). Taken
    /// under the log lock, so a writer that checked its epoch there
    /// finishes its write before the fence, never after it.
    pub fn bump_epoch(&self) -> u64 {
        let _durable = self.durable.lock();
        let _lw = obskit::lockcheck::held("LogStore::durable");
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn check_epoch(&self, epoch: u64) -> Result<()> {
        if epoch != self.current_epoch() {
            return Err(Error::ServerShutdown);
        }
        Ok(())
    }

    /// Point the master record at the checkpoint record at `lsn`.
    /// Rejects stale epochs, so a crashed incarnation's checkpoint cannot
    /// move the master record its successor restarted from.
    pub fn set_checkpoint(&self, lsn: Lsn, epoch: u64) -> Result<()> {
        let mut durable = self.durable.lock();
        let _lw = obskit::lockcheck::held("LogStore::durable");
        self.check_epoch(epoch)?;
        durable.master = Some(lsn);
        Ok(())
    }

    /// The last checkpoint's LSN, if any checkpoint was taken.
    pub fn checkpoint(&self) -> Option<Lsn> {
        self.durable.lock().master
    }

    /// Drop the kept log below `lsn` and release its memory. `lsn` must
    /// start a durable record (or be the durable end) and lie at or
    /// below the master record; a cut below the base drops nothing.
    /// Returns the bytes dropped. Rejects stale epochs, so a checkpoint
    /// of a crashed incarnation never truncates the log its successor
    /// restarted from.
    pub fn truncate_below(&self, lsn: Lsn, epoch: u64) -> Result<u64> {
        faultkit::crashpoint!("wal.truncate");
        let mut durable = self.durable.lock();
        let _lw = obskit::lockcheck::held("LogStore::durable");
        self.check_epoch(epoch)?;
        if lsn <= durable.base {
            return Ok(0);
        }
        let below_master = durable.master.is_some_and(|m| lsn <= m);
        if !below_master || !matches!(durable.frame(lsn)?, Frame::Rec { .. }) {
            return Err(Error::Internal(format!(
                "log truncation at lsn {lsn} is not a record at or below the master record {:?}",
                durable.master
            )));
        }
        let cut = (lsn - durable.base) as usize;
        // A fresh vector: `drain` would keep the dropped bytes' capacity.
        durable.bytes = durable.bytes.get(cut..).unwrap_or_default().to_vec();
        durable.base = lsn;
        obskit::metrics::global()
            .counter("wal.truncated_bytes")
            .add(cut as u64);
        Ok(cut as u64)
    }

    /// Append flushed tail bytes at stream offset `at`. The offset check
    /// is the fsyncgate detector: if an earlier flush *lied* (claimed
    /// success, persisted nothing), the caller's stream position runs
    /// ahead of the durable bytes and the very next append surfaces the
    /// hole as [`Error::Corruption`] instead of writing a record whose
    /// framing no scan could trust.
    fn append(&self, bytes: &[u8], epoch: u64, at: u64) -> crate::error::Result<()> {
        let fault = self.draw_fault();
        if matches!(
            fault,
            Some(DiskFault::WriteErr) | Some(DiskFault::FsyncFail)
        ) {
            return Err(Error::Storage("injected log flush failure".into()));
        }
        let mut durable = self.durable.lock();
        let _lw = obskit::lockcheck::held("LogStore::durable");
        self.check_epoch(epoch)?;
        if at != durable.end() {
            return Err(Error::Corruption {
                device: "wal".into(),
                detail: format!(
                    "lost flush detected: appending at lsn {at} but durable end is {}",
                    durable.end()
                ),
            });
        }
        let durable = &mut durable.bytes;
        match fault {
            Some(DiskFault::TornWrite { frac_pm }) => {
                // Persist a strict prefix, then fail the flush: a torn
                // append is never acknowledged. Recovery truncates it.
                let split =
                    (frac_pm as usize * bytes.len() / 1000).min(bytes.len().saturating_sub(1));
                // lint:allow(index): split is clamped to < bytes.len() above
                durable.extend_from_slice(&bytes[..split]);
                Err(Error::Storage("injected torn log append".into()))
            }
            Some(DiskFault::BitFlip { offset_seed, bit }) => {
                // The flush "succeeds" with one durable bit flipped —
                // mid-log damage the next scan reports as Corruption.
                let start = durable.len();
                durable.extend_from_slice(bytes);
                if !bytes.is_empty() {
                    let off = start + (offset_seed % bytes.len() as u64) as usize;
                    if let Some(b) = durable.get_mut(off) {
                        *b ^= 1 << (bit & 7);
                    }
                }
                Ok(())
            }
            Some(DiskFault::FsyncLie) => {
                // Claim success, persist nothing. Detected by the offset
                // check on the next append (same incarnation) or lost
                // with the unflushed tail on crash.
                Ok(())
            }
            _ => {
                durable.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    /// Decode all records with LSN >= `from`, in order, verifying each
    /// record's CRC. Any framing or CRC damage — including an
    /// un-recovered torn tail — is [`Error::Corruption`], and so is a
    /// `from` below the base; run [`LogStore::recover_tail`] first to
    /// truncate a torn tail.
    pub fn records_from(&self, from: Lsn) -> Result<Vec<(Lsn, LogRecord)>> {
        let data = self.durable.lock();
        let _lw = obskit::lockcheck::held("LogStore::durable");
        data.records_from(from)
    }

    /// Every kept record, from the base on, read under one lock so a
    /// concurrent truncation cannot move the base under the scan (see
    /// [`LogStore::records_from`]).
    pub fn kept_records(&self) -> Result<Vec<(Lsn, LogRecord)>> {
        let data = self.durable.lock();
        let _lw = obskit::lockcheck::held("LogStore::durable");
        data.records_from(data.base)
    }

    /// The record that starts at `lsn`, CRC-verified, or `None` when no
    /// whole record starts there (`lsn` at or past the log end, or a
    /// torn frame). Damage to that one frame, or an `lsn` below the
    /// base, is [`Error::Corruption`].
    pub fn record_at(&self, lsn: Lsn) -> Result<Option<LogRecord>> {
        let data = self.durable.lock();
        let _lw = obskit::lockcheck::held("LogStore::durable");
        match data.frame(lsn)? {
            Frame::Rec { mut payload, .. } => LogRecord::decode(&mut payload).map(Some),
            Frame::End | Frame::Torn => Ok(None),
        }
    }

    /// Scan the kept log from its base and physically truncate a torn
    /// tail (the residue of a failed batched append). Returns the bytes
    /// removed. Mid-log CRC damage is *not* a tail and fails loudly
    /// with [`Error::Corruption`]: truncating there would silently
    /// discard acknowledged records.
    pub fn recover_tail(&self) -> Result<u64> {
        faultkit::crashpoint!("wal.scan");
        let mut data = self.durable.lock();
        let _lw = obskit::lockcheck::held("LogStore::durable");
        let mut lsn = data.base;
        loop {
            match data.frame(lsn)? {
                Frame::End => return Ok(0),
                Frame::Torn => {
                    let torn = data.end() - lsn;
                    let keep = (lsn - data.base) as usize;
                    data.bytes.truncate(keep);
                    obskit::metrics::global().counter("wal.torn_tail").incr();
                    obskit::event!("wal.torn_tail", "truncated {torn} bytes at lsn {lsn}");
                    return Ok(torn);
                }
                Frame::Rec { next, .. } => lsn = next,
            }
        }
    }
}

struct Tail {
    /// Unflushed bytes; the stream offset of `buf[0]` is `base`.
    buf: Vec<u8>,
    base: u64,
}

/// Group-commit tuning (the `ServerConfig::group_commit` knob).
///
/// When enabled, committing sessions enqueue their commit LSN and park;
/// a batch leader performs one fsync covering every waiter whose record
/// is in the flushed tail. A parked committer leads as soon as every
/// transaction that could still join the batch has parked (see
/// [`LogManager::join_company`] and [`LogManager::in_flight`]);
/// `max_batch` releases the batch once
/// that many commits are parked, and `max_wait` bounds how long a
/// committer waits for company that is still running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommit {
    /// Route commits through the batching path.
    pub enabled: bool,
    /// Flush as soon as this many commits are parked.
    pub max_batch: usize,
    /// Upper bound on how long a commit waits for company before its
    /// batch flushes anyway.
    pub max_wait: Duration,
}

impl Default for GroupCommit {
    fn default() -> Self {
        GroupCommit {
            enabled: false,
            max_batch: 8,
            max_wait: Duration::from_micros(500),
        }
    }
}

impl GroupCommit {
    /// Batching on, with the given window.
    pub fn on(max_batch: usize, max_wait: Duration) -> Self {
        GroupCommit {
            enabled: true,
            max_batch: max_batch.max(1),
            max_wait,
        }
    }
}

/// Shared state of the commit batch currently forming.
struct Group {
    /// Commit LSNs parked waiting for a covering flush.
    pending: Vec<Lsn>,
    /// Whether a batch leader is currently collecting or flushing.
    leader: bool,
    /// Terminal error of a failed batch flush, broadcast to every
    /// waiter: fail-stop applies to the whole batch, never just the
    /// leader.
    dead: Option<Error>,
}

/// Outcome of one wait round on the group: either this commit's record
/// became durable, or it is this session's turn to lead a flush.
enum GroupTurn {
    Covered,
    Lead,
}

/// Volatile front end to the log: buffered appends + flush control.
///
/// **Fail-stop flushes (fsyncgate discipline).** The first flush that
/// fails for an I/O reason *poisons* the manager: every later flush
/// fails immediately instead of retrying the fsync. Retrying would
/// trust the device about which bytes of the failed flush actually
/// landed — the unsound assumption behind real-world fsyncgate bugs.
/// The poisoned server keeps failing statements until it is restarted;
/// recovery then truncates the (never-acknowledged) torn tail and
/// resumes from durable truth.
pub struct LogManager {
    store: Arc<LogStore>,
    tail: Mutex<Tail>,
    flushed: AtomicU64,
    epoch: u64,
    poisoned: AtomicBool,
    group_cfg: GroupCommit,
    group: Mutex<Group>,
    group_cv: Condvar,
    /// Open transactions that may still park a commit in the batch:
    /// those begun with an explicit `BEGIN TRAN` or that logged an
    /// update. An atomic, so a join under a page latch never takes
    /// `group`; leaves take `group` so no waiter misses one.
    company: AtomicUsize,
    /// Requests delivered to the server and not yet served (see
    /// [`LogManager::in_flight`]).
    in_flight: Arc<AtomicUsize>,
}

impl LogManager {
    /// Attach a volatile tail to the durable store (group commit off).
    pub fn new(store: Arc<LogStore>) -> Self {
        Self::with_group(store, GroupCommit::default())
    }

    /// Attach a volatile tail with the given group-commit tuning.
    pub fn with_group(store: Arc<LogStore>, group_cfg: GroupCommit) -> Self {
        let base = store.durable_end();
        let epoch = store.current_epoch();
        LogManager {
            store,
            tail: Mutex::new(Tail {
                buf: Vec::new(),
                base,
            }),
            flushed: AtomicU64::new(base),
            epoch,
            poisoned: AtomicBool::new(false),
            group_cfg,
            group: Mutex::new(Group {
                pending: Vec::new(),
                leader: false,
                dead: None,
            }),
            group_cv: Condvar::new(),
            company: AtomicUsize::new(0),
            in_flight: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The active group-commit tuning.
    pub fn group_config(&self) -> GroupCommit {
        self.group_cfg
    }

    /// Count one more transaction that may still join a commit batch.
    /// `Storage` calls this once per transaction, guarded by its
    /// [`TxnHandle`](crate::txn::TxnHandle) flag.
    pub fn join_company(&self) {
        self.company.fetch_add(1, Ordering::SeqCst);
    }

    /// Count a transaction out once its commit or abort has finished,
    /// and wake the group: a committer whose last possible companion
    /// just left leads now.
    pub fn leave_company(&self) {
        let _g = self.group.lock();
        let _lw = obskit::lockcheck::held("LogManager::group");
        self.company.fetch_sub(1, Ordering::SeqCst);
        self.group_cv.notify_all();
    }

    /// Open transactions that may still join a commit batch.
    pub fn company(&self) -> usize {
        self.company.load(Ordering::SeqCst)
    }

    /// The count of requests delivered to the server and not yet
    /// served: queued on a connection, or taken up by a connection thread
    /// that has not asked for its next one. The server's transport keeps
    /// it. A parked committer waits for them as for company: a request
    /// that opens, writes and commits a transaction in one batch begins
    /// its transaction too late to be waited for otherwise. A served
    /// request leaves the count without a wake-up; the group's ticked
    /// wait re-checks it.
    pub fn in_flight(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.in_flight)
    }

    /// Whether a failed flush has poisoned this manager (fail-stop).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    fn poisoned_err() -> Error {
        Error::Storage("wal fail-stop: a log flush failed; restart the server to recover".into())
    }

    /// The underlying durable store.
    pub fn store(&self) -> &Arc<LogStore> {
        &self.store
    }

    /// Point the master record at checkpoint record `lsn`, as this
    /// incarnation (see [`LogStore::set_checkpoint`]).
    pub fn set_checkpoint(&self, lsn: Lsn) -> Result<()> {
        self.store.set_checkpoint(lsn, self.epoch)
    }

    /// Drop the durable log below `lsn`, as this incarnation (see
    /// [`LogStore::truncate_below`]).
    pub fn truncate_below(&self, lsn: Lsn) -> Result<u64> {
        self.store.truncate_below(lsn, self.epoch)
    }

    /// Append a record to the volatile tail; returns its LSN.
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        faultkit::crashpoint!("wal.append");
        let t_append = Instant::now();
        let mut payload = Vec::new();
        rec.encode(&mut payload);
        let mut tail = self.tail.lock();
        let _lw = obskit::lockcheck::held("LogManager::tail");
        let lsn = tail.base + tail.buf.len() as u64;
        tail.buf.put_u32(payload.len() as u32);
        tail.buf.put_u32(checksum::wal_record_crc(&payload, lsn));
        tail.buf.extend_from_slice(&payload);
        drop(tail);
        obskit::metrics::global().record("sqlengine.wal.append", t_append.elapsed());
        lsn
    }

    /// Durably flush at least through `lsn` (record start offset).
    pub fn flush_to(&self, lsn: Lsn) -> Result<()> {
        if self.covered(lsn) {
            return Ok(());
        }
        self.flush_all()
    }

    /// Whether the record starting at `lsn` is durably flushed. The tail
    /// flushes whole records, so the watermark passing a record's start
    /// offset means its entire frame landed.
    fn covered(&self, lsn: Lsn) -> bool {
        self.flushed.load(Ordering::Acquire) > lsn
    }

    /// Durably flush a commit record at `lsn`, coalescing concurrent
    /// committers into one fsync when group commit is enabled.
    ///
    /// The committing session enqueues its LSN and parks; the first
    /// session that sees every member of company parked, the batch full
    /// or its window expired leads one `flush_all` covering every
    /// parked LSN. A failed batch flush is broadcast to **all** waiters
    /// via `Group::dead` — fail-stop semantics apply to the batch,
    /// never just the leader.
    pub fn commit_flush(&self, lsn: Lsn) -> Result<()> {
        if !self.group_cfg.enabled {
            return self.flush_to(lsn);
        }
        // Crashpoints sit outside the group lock (same discipline as
        // the tail lock): a crash action fences the durable store and
        // restarts the server on this thread, and must never deadlock
        // against the log.
        faultkit::crashpoint!("wal.group.enqueue");
        {
            let mut g = self.group.lock();
            let _lw = obskit::lockcheck::held("LogManager::group");
            if self.covered(lsn) {
                // An earlier flush (another batch, an eviction, an
                // abort) already made this commit durable: zero fsyncs.
                obskit::metrics::global()
                    .counter("wal.flush.coalesced")
                    .incr();
                return Ok(());
            }
            g.pending.push(lsn);
        }
        let deadline = Instant::now() + self.group_cfg.max_wait;
        let mut led = false;
        loop {
            match self.group_wait(lsn, deadline)? {
                GroupTurn::Covered => {
                    if !led {
                        // This commit rode a flush it did not perform.
                        obskit::metrics::global()
                            .counter("wal.flush.coalesced")
                            .incr();
                    }
                    faultkit::crashpoint!("wal.group.wake");
                    return Ok(());
                }
                GroupTurn::Lead => {
                    led = true;
                    faultkit::crashpoint!("wal.group.lead");
                    let r = self.flush_all();
                    self.leader_done(&r);
                    // Loop back: success exits via `Covered` (this
                    // commit's record was in the flushed tail), failure
                    // via the `dead` broadcast in `group_wait`.
                }
            }
        }
    }

    /// Park on the group until this commit is durable, its batch dies,
    /// or it is this session's turn to lead a flush.
    fn group_wait(&self, lsn: Lsn, deadline: Instant) -> Result<GroupTurn> {
        let mut g = self.group.lock();
        let _lw = obskit::lockcheck::held("LogManager::group");
        loop {
            // Durability wins over a concurrent batch death: if some
            // flush already covered this record, the commit is durable
            // and must ack. An error therefore means the record never
            // reached the device (fail-stop admits no later flush).
            if self.covered(lsn) {
                return Ok(GroupTurn::Covered);
            }
            if let Some(e) = &g.dead {
                let e = e.clone();
                Self::forget(&mut g, lsn);
                return Err(e);
            }
            if self.is_poisoned() {
                Self::forget(&mut g, lsn);
                return Err(Self::poisoned_err());
            }
            if !g.leader {
                let parked = g.pending.len();
                let trigger = if parked >= self.group_cfg.max_batch {
                    Some("wal.group.lead.batch")
                } else if parked
                    >= self
                        .company
                        .load(Ordering::SeqCst)
                        .max(self.in_flight.load(Ordering::SeqCst))
                {
                    // Nobody who could still join the batch is running:
                    // as many commits have parked as there are open
                    // transactions and as requests are in flight.
                    Some("wal.group.lead.company")
                } else if Instant::now() >= deadline {
                    Some("wal.group.lead.window")
                } else {
                    None
                };
                if let Some(trigger) = trigger {
                    g.leader = true;
                    obskit::metrics::global().counter(trigger).incr();
                    return Ok(GroupTurn::Lead);
                }
            }
            // Ticked wait: a lost notification only delays, never
            // strands, a committer — the predicate re-check above is
            // what grants.
            self.group_cv.wait_for(&mut g, Duration::from_micros(200));
        }
    }

    /// Release batch leadership and broadcast a failed flush to every
    /// parked waiter.
    fn leader_done(&self, r: &Result<()>) {
        let mut g = self.group.lock();
        let _lw = obskit::lockcheck::held("LogManager::group");
        g.leader = false;
        if let Err(e) = r {
            if g.dead.is_none() {
                g.dead = Some(e.clone());
            }
        }
        self.group_cv.notify_all();
    }

    /// Drop a dead waiter's LSN from the pending batch.
    fn forget(g: &mut Group, lsn: Lsn) {
        if let Some(i) = g.pending.iter().position(|&l| l == lsn) {
            g.pending.swap_remove(i);
        }
    }

    /// Group-commit completion hook, run after every flush attempt:
    /// drains the parked LSNs a successful flush covered (returning the
    /// batch size) or broadcasts a failed flush to the whole batch.
    fn group_note_flush(&self, outcome: &Result<()>) -> usize {
        let mut g = self.group.lock();
        let _lw = obskit::lockcheck::held("LogManager::group");
        let batch = match outcome {
            Ok(()) => {
                let flushed = self.flushed.load(Ordering::Acquire);
                let before = g.pending.len();
                g.pending.retain(|&l| l >= flushed);
                before - g.pending.len()
            }
            Err(e) => {
                // Any flush failure is terminal for this incarnation
                // (poison or epoch fence): waiters must not sit out
                // their full window discovering that.
                if g.dead.is_none() {
                    g.dead = Some(e.clone());
                }
                0
            }
        };
        self.group_cv.notify_all();
        batch
    }

    /// Flush the whole tail. Fail-stop: the first I/O failure poisons
    /// the manager and every subsequent flush fails immediately.
    pub fn flush_all(&self) -> Result<()> {
        // Crashpoints sit outside the tail lock: a crash action fences
        // the durable store and must never deadlock against the log.
        faultkit::crashpoint!("wal.flush.pre");
        let outcome = {
            let mut tail = self.tail.lock();
            let _lw = obskit::lockcheck::held("LogManager::tail");
            if self.is_poisoned() {
                Err(Self::poisoned_err())
            } else if tail.buf.is_empty() {
                Ok(())
            } else {
                let t_flush = Instant::now();
                match self.store.append(&tail.buf, self.epoch, tail.base) {
                    Err(e) => {
                        // Epoch fencing means the server is gone, not that
                        // the device failed: don't poison for it.
                        if e != Error::ServerShutdown {
                            self.poisoned.store(true, Ordering::SeqCst);
                            obskit::metrics::global().counter("wal.poisoned").incr();
                            obskit::event!("wal.poisoned", "flush failed: {e}");
                        }
                        Err(e)
                    }
                    Ok(()) => {
                        tail.base += tail.buf.len() as u64;
                        tail.buf.clear();
                        self.flushed.store(tail.base, Ordering::Release);
                        drop(tail);
                        obskit::metrics::global().record("sqlengine.wal.flush", t_flush.elapsed());
                        Ok(())
                    }
                }
            }
        };
        // The group hook runs after every attempt, success or failure
        // (the tail guard is gone either way): a success acks every
        // parked commit the watermark now covers, a failure broadcasts
        // fail-stop to the whole batch.
        if self.group_cfg.enabled {
            let batch = self.group_note_flush(&outcome);
            if batch > 0 {
                obskit::metrics::global()
                    .histogram("wal.flush.batch_size")
                    .record(batch as u64);
                obskit::event!("wal.group.batch", "fsync covered {batch} commits");
            }
        }
        outcome?;
        faultkit::crashpoint!("wal.flush.post");
        Ok(())
    }

    /// LSN through which the log is durably flushed.
    pub fn flushed_lsn(&self) -> Lsn {
        self.flushed.load(Ordering::Acquire)
    }

    /// Next LSN that would be assigned (end of stream).
    pub fn end_lsn(&self) -> Lsn {
        let tail = self.tail.lock();
        let _lw = obskit::lockcheck::held("LogManager::tail");
        tail.base + tail.buf.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::DataType;

    fn all_record_kinds() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Commit { txn: 2 },
            LogRecord::Abort { txn: 3 },
            LogRecord::Insert {
                txn: 4,
                table: 5,
                page: 6,
                slot: 7,
                data: vec![1, 2, 3],
            },
            LogRecord::Delete {
                txn: 4,
                table: 5,
                page: 6,
                slot: 7,
            },
            LogRecord::AllocPage { table: 5, page: 9 },
            LogRecord::CreateTable {
                table_id: 10,
                schema: TableSchema::new("t", vec![Column::new("a", DataType::Int)])
                    .with_primary_key(vec![0]),
            },
            LogRecord::DropTable { table_id: 10 },
            LogRecord::CreateProc {
                name: "p".into(),
                body: "SELECT 1".into(),
            },
            LogRecord::DropProc { name: "p".into() },
            LogRecord::Clr {
                txn: 4,
                undoes: 123,
                action: ClrAction::Tombstone,
                table: 5,
                page: 6,
                slot: 7,
            },
            LogRecord::Checkpoint {
                scan_from: 77,
                snapshot: vec![9, 9, 9],
            },
        ]
    }

    #[test]
    fn record_round_trip() {
        for rec in all_record_kinds() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let mut slice = buf.as_slice();
            let back = LogRecord::decode(&mut slice).unwrap();
            assert_eq!(back, rec);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn append_flush_read_back() {
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        let mut lsns = Vec::new();
        for rec in all_record_kinds() {
            lsns.push(log.append(&rec));
        }
        // Nothing durable before flush.
        assert_eq!(store.records_from(0).unwrap().len(), 0);
        log.flush_all().unwrap();
        let recs = store.records_from(0).unwrap();
        assert_eq!(recs.len(), all_record_kinds().len());
        for ((lsn, rec), (exp_lsn, exp)) in recs.iter().zip(lsns.iter().zip(all_record_kinds())) {
            assert_eq!(lsn, exp_lsn);
            assert_eq!(rec, &exp);
        }
    }

    #[test]
    fn unflushed_tail_lost_on_simulated_crash() {
        let store = Arc::new(LogStore::new());
        {
            let log = LogManager::new(Arc::clone(&store));
            log.append(&LogRecord::Begin { txn: 1 });
            log.flush_all().unwrap();
            log.append(&LogRecord::Commit { txn: 1 });
            // no flush — crash
        }
        let survived = store.records_from(0).unwrap();
        assert_eq!(survived.len(), 1);
        assert_eq!(survived[0].1, LogRecord::Begin { txn: 1 });
        // A new manager resumes at the durable end.
        let log2 = LogManager::new(Arc::clone(&store));
        let lsn = log2.append(&LogRecord::Commit { txn: 1 });
        assert_eq!(lsn, store.durable_end());
    }

    #[test]
    fn flush_to_is_inclusive() {
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        let l1 = log.append(&LogRecord::Begin { txn: 1 });
        log.flush_to(l1).unwrap();
        assert_eq!(store.records_from(0).unwrap().len(), 1);
    }

    #[test]
    fn records_from_midpoint() {
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        log.append(&LogRecord::Begin { txn: 1 });
        let l2 = log.append(&LogRecord::Begin { txn: 2 });
        log.flush_all().unwrap();
        let recs = store.records_from(l2).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, LogRecord::Begin { txn: 2 });
        // The single record there, and none at the log end.
        let rec = store.record_at(l2).unwrap();
        assert_eq!(rec, Some(LogRecord::Begin { txn: 2 }));
        assert_eq!(store.record_at(store.durable_end()).unwrap(), None);
    }

    #[test]
    fn torn_append_truncates_at_recover_tail() {
        use faultkit::disk::DiskFaultKind;
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        log.append(&LogRecord::Begin { txn: 1 });
        log.flush_all().unwrap();
        let clean_len = store.durable_end();

        store.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::TornWrite, 1)));
        log.append(&LogRecord::Commit { txn: 1 });
        assert!(log.flush_all().is_err());
        assert!(log.is_poisoned());
        // The torn residue makes an untreated scan fail loudly...
        assert!(matches!(
            store.records_from(0),
            Err(Error::Corruption { .. })
        ));
        // ...and recover_tail removes exactly the torn bytes.
        let torn = store.recover_tail().unwrap();
        assert!(torn > 0);
        assert_eq!(store.durable_end(), clean_len);
        assert_eq!(store.records_from(0).unwrap().len(), 1);
        // Idempotent on a clean log.
        assert_eq!(store.recover_tail().unwrap(), 0);
    }

    #[test]
    fn bit_flip_is_midlog_corruption_not_tail() {
        use faultkit::disk::DiskFaultKind;
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        store.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::BitFlip, 1)));
        log.append(&LogRecord::Begin { txn: 1 });
        log.flush_all().unwrap(); // the flush lies about integrity
        assert!(matches!(
            store.records_from(0),
            Err(Error::Corruption { .. })
        ));
        // recover_tail must refuse to truncate acknowledged records.
        assert!(matches!(
            store.recover_tail(),
            Err(Error::Corruption { .. })
        ));
    }

    #[test]
    fn lying_fsync_detected_on_next_append() {
        use faultkit::disk::DiskFaultKind;
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        store.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::FsyncLie, 1)));
        log.append(&LogRecord::Begin { txn: 1 });
        log.flush_all().unwrap(); // lie: nothing landed
        assert_eq!(store.durable_end(), 0);
        log.append(&LogRecord::Commit { txn: 1 });
        let err = log.flush_all().unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "got {err:?}");
        assert!(log.is_poisoned());
    }

    #[test]
    fn failed_flush_poisons_fail_stop() {
        use faultkit::disk::DiskFaultKind;
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        store.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::FsyncFail, 1)));
        log.append(&LogRecord::Begin { txn: 1 });
        assert!(log.flush_all().is_err());
        assert!(log.is_poisoned());
        // No retry: the next flush fails without touching the device,
        // and nothing ever became durable.
        assert!(log.flush_all().is_err());
        assert_eq!(store.durable_end(), 0);
        // A fresh manager (post-restart) starts clean.
        store.set_fault_plan(None);
        let log2 = LogManager::new(Arc::clone(&store));
        log2.append(&LogRecord::Begin { txn: 2 });
        log2.flush_all().unwrap();
        assert_eq!(store.records_from(0).unwrap().len(), 1);
    }

    #[test]
    fn epoch_fence_does_not_poison() {
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        log.append(&LogRecord::Begin { txn: 1 });
        store.bump_epoch();
        assert_eq!(log.flush_all(), Err(Error::ServerShutdown));
        assert!(!log.is_poisoned());
    }

    #[test]
    fn checkpoint_master_record() {
        let store = LogStore::new();
        assert_eq!(store.checkpoint(), None);
        store.set_checkpoint(0, 0).unwrap();
        assert_eq!(store.checkpoint(), Some(0));
        store.set_checkpoint(42, 0).unwrap();
        assert_eq!(store.checkpoint(), Some(42));
        // Only the current incarnation moves the master record.
        store.bump_epoch();
        assert_eq!(store.set_checkpoint(7, 0), Err(Error::ServerShutdown));
        assert_eq!(store.checkpoint(), Some(42));
    }

    #[test]
    fn truncation_keeps_absolute_lsns_and_releases_the_cut_bytes() {
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        let lsns: Vec<Lsn> = (0..64)
            .map(|t| log.append(&LogRecord::Begin { txn: t }))
            .collect();
        let cp = log.append(&LogRecord::Checkpoint {
            scan_from: lsns[40],
            snapshot: vec![7; 32],
        });
        log.flush_all().unwrap();
        // No cut above the master record, or with no master at all.
        assert!(store.truncate_below(lsns[40], 0).is_err());
        store.set_checkpoint(cp, 0).unwrap();
        assert!(store.truncate_below(store.durable_end(), 0).is_err());
        // A cut must land on a record boundary.
        assert!(store.truncate_below(lsns[40] + 1, 0).is_err());
        let end = store.durable_end();
        assert_eq!(store.truncate_below(lsns[40], 0).unwrap(), lsns[40]);
        assert_eq!((store.base(), store.durable_end()), (lsns[40], end));
        assert_eq!(store.held_bytes(), end - lsns[40]);
        // Records keep their LSNs; the truncated ones are gone loudly.
        let kept = store.kept_records().unwrap();
        assert_eq!(kept.len(), 25);
        assert_eq!(kept[0], (lsns[40], LogRecord::Begin { txn: 40 }));
        assert!(matches!(
            store.record_at(lsns[39]),
            Err(Error::Corruption { .. })
        ));
        assert!(matches!(
            store.records_from(0),
            Err(Error::Corruption { .. })
        ));
        // A cut at or below the base drops nothing; a fenced one nothing.
        assert_eq!(store.truncate_below(lsns[10], 0).unwrap(), 0);
        store.bump_epoch();
        assert_eq!(store.truncate_below(cp, 0), Err(Error::ServerShutdown));
        // A manager of the next incarnation appends at the absolute end,
        // and a restart scan verifies only the kept bytes.
        let log2 = LogManager::new(Arc::clone(&store));
        let next = log2.append(&LogRecord::Commit { txn: 99 });
        assert_eq!(next, end);
        log2.flush_all().unwrap();
        assert_eq!(store.recover_tail().unwrap(), 0);
        assert_eq!(
            store.record_at(next).unwrap(),
            Some(LogRecord::Commit { txn: 99 })
        );
    }

    fn grouped(max_batch: usize, max_wait_us: u64) -> (Arc<LogStore>, Arc<LogManager>) {
        let store = Arc::new(LogStore::new());
        let log = Arc::new(LogManager::with_group(
            Arc::clone(&store),
            GroupCommit::on(max_batch, Duration::from_micros(max_wait_us)),
        ));
        (store, log)
    }

    #[test]
    fn group_disabled_commit_flush_is_flush_to() {
        let store = Arc::new(LogStore::new());
        let log = LogManager::new(Arc::clone(&store));
        assert!(!log.group_config().enabled);
        let lsn = log.append(&LogRecord::Commit { txn: 1 });
        log.commit_flush(lsn).unwrap();
        assert_eq!(store.records_from(0).unwrap().len(), 1);
    }

    #[test]
    fn group_lone_company_member_leads_without_waiting_out_the_window() {
        let store = Arc::new(LogStore::new());
        let log = LogManager::with_group(
            Arc::clone(&store),
            GroupCommit::on(8, Duration::from_secs(10)),
        );
        log.join_company();
        let lsn = log.append(&LogRecord::Commit { txn: 1 });
        let t0 = Instant::now();
        log.commit_flush(lsn).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "nobody could join the batch, yet the commit waited {:?}",
            t0.elapsed()
        );
        assert!(log.flushed_lsn() > lsn);
        assert_eq!(store.records_from(0).unwrap().len(), 1);
        log.leave_company();
        assert_eq!(log.company(), 0);
    }

    #[test]
    fn group_waits_for_requests_in_flight() {
        let (_store, log) = grouped(8, 10_000_000);
        let in_flight = log.in_flight();
        // The committer's own request, and its transaction.
        in_flight.fetch_add(1, Ordering::SeqCst);
        log.join_company();
        // Another session's request, which has not begun a transaction.
        in_flight.fetch_add(1, Ordering::SeqCst);
        let lsn = log.append(&LogRecord::Commit { txn: 1 });
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                log.commit_flush(lsn).unwrap();
                done.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                !done.load(Ordering::SeqCst),
                "a request in flight was not waited for"
            );
            // It is served without committing: the committer leads
            // within a tick, not at the window.
            let t0 = Instant::now();
            in_flight.fetch_sub(1, Ordering::SeqCst);
            while !done.load(Ordering::SeqCst) {
                assert!(
                    t0.elapsed() < Duration::from_secs(1),
                    "waited out the window"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        in_flight.fetch_sub(1, Ordering::SeqCst);
        log.leave_company();
        assert!(log.flushed_lsn() > lsn);
    }

    #[test]
    fn group_solo_commit_leads_its_own_flush() {
        let (store, log) = grouped(8, 200);
        // The committer and a companion that never parks are both in
        // company, so only the window closes the batch.
        log.join_company();
        log.join_company();
        let lsn = log.append(&LogRecord::Commit { txn: 1 });
        let t0 = Instant::now();
        log.commit_flush(lsn).unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(200));
        log.leave_company();
        log.leave_company();
        assert!(log.flushed_lsn() > lsn);
        assert_eq!(
            store.records_from(0).unwrap(),
            vec![(lsn, LogRecord::Commit { txn: 1 })]
        );
    }

    #[test]
    fn group_concurrent_commits_all_durable() {
        let (store, log) = grouped(4, 500);
        let n = 8;
        // Every committer is in company before any parks, so they batch.
        for _ in 0..n {
            log.join_company();
        }
        std::thread::scope(|s| {
            for t in 0..n {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    let lsn = log.append(&LogRecord::Commit { txn: t });
                    log.commit_flush(lsn).unwrap();
                    log.leave_company();
                    // Durability at ack: the watermark covers our record.
                    assert!(log.flushed_lsn() > lsn);
                });
            }
        });
        let recs = store.records_from(0).unwrap();
        assert_eq!(recs.len(), n as usize);
        let mut txns: Vec<TxnId> = recs
            .iter()
            .map(|(_, r)| match r {
                LogRecord::Commit { txn } => *txn,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        txns.sort_unstable();
        assert_eq!(txns, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn group_piggybacks_on_unrelated_flush() {
        // A parked commit must be acked by ANY successful flush that
        // covers it (e.g. a buffer-pool eviction enforcing the WAL
        // rule), not only by a batch leader's.
        let (_store, log) = grouped(64, 200_000);
        // The waiter and one companion that stays open: the waiter has
        // company still running, so it stays parked.
        log.join_company();
        log.join_company();
        let lsn = log.append(&LogRecord::Commit { txn: 1 });
        let waiter = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.commit_flush(lsn))
        };
        // Give the waiter time to park, then flush from outside.
        std::thread::sleep(Duration::from_millis(10));
        log.flush_all().unwrap();
        waiter.join().unwrap().unwrap();
        log.leave_company();
        log.leave_company();
    }

    #[test]
    fn poisoned_batch_errors_all_waiters() {
        use faultkit::disk::DiskFaultKind;
        let (store, log) = grouped(4, 300);
        store.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::FsyncFail, 1)));
        let n = 6;
        for _ in 0..n {
            log.join_company();
        }
        let mut errs = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..n {
                let log = Arc::clone(&log);
                handles.push(s.spawn(move || {
                    let lsn = log.append(&LogRecord::Commit { txn: t });
                    let r = log.commit_flush(lsn);
                    log.leave_company();
                    r
                }));
            }
            for h in handles {
                errs.push(h.join().unwrap());
            }
        });
        // Fail-stop covers the whole batch: every waiter sees the
        // error, not just the leader that hit the device.
        assert!(errs.iter().all(|r| r.is_err()), "got {errs:?}");
        assert!(log.is_poisoned());
        assert_eq!(store.durable_end(), 0);
    }

    #[test]
    fn epoch_fenced_batch_errors_without_poison() {
        let (store, log) = grouped(4, 300);
        store.bump_epoch();
        let n = 3;
        for _ in 0..n {
            log.join_company();
        }
        let mut errs = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..n {
                let log = Arc::clone(&log);
                handles.push(s.spawn(move || {
                    let lsn = log.append(&LogRecord::Commit { txn: t });
                    let r = log.commit_flush(lsn);
                    log.leave_company();
                    r
                }));
            }
            for h in handles {
                errs.push(h.join().unwrap());
            }
        });
        for r in errs {
            assert_eq!(r, Err(Error::ServerShutdown));
        }
        // Fencing means a newer incarnation owns the store, not that
        // the device failed.
        assert!(!log.is_poisoned());
    }
}
