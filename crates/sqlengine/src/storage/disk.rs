//! Simulated durable disk.
//!
//! The paper's server had three SCSI disks and was disk-bound in the TPC-C
//! experiment. We model the disk as an in-memory page store that (a) is
//! *durable* across simulated server crashes — the `MemDisk` lives in the
//! server's durable half and survives `crash()` — and (b) charges a
//! configurable per-I/O latency so a workload can be made disk-bound, with
//! busy-time accounting from which the benchmark harness derives the paper's
//! DISK UTIL column.
//!
//! The disk also holds an **image copy** of every page, the base that
//! page repair replays the kept log onto once checkpoints have truncated
//! the log below it (ARIES media recovery). A checkpoint's archive pass
//! ([`BufferPool::archive_written`](super::buffer::BufferPool::archive_written))
//! copies each page written since the last pass. A copy shares the
//! page's buffer until the page is next written, so an archived database
//! costs no second copy of its pages, only of those written since.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faultkit::crashpoint;
use faultkit::disk::{DiskDevice, DiskFault, DiskOp, DiskPlan, DiskSchedule};
use parking_lot::{Mutex, RwLock};

use super::checksum;
use super::page::PAGE_CONTENT;
use crate::error::{Error, Result};

/// Fixed page size, matching SQL Server 7.0's 8 KiB pages.
pub const PAGE_SIZE: usize = 8192;

/// Minimum bytes a torn write persists: the slotted-page header, so the
/// new LSN always lands and a torn image always fails verification.
const TORN_MIN: usize = 16;

/// Whether a raw page image passes checksum verification. All-zero
/// pages (freshly allocated, never written) are vacuously valid: the
/// disk has not stamped them yet.
pub fn page_image_ok(buf: &[u8; PAGE_SIZE]) -> bool {
    let mut stored = [0u8; 8];
    stored.copy_from_slice(&buf[PAGE_CONTENT..]);
    let stored = u64::from_be_bytes(stored);
    if stored == 0 && buf.iter().all(|&b| b == 0) {
        return true;
    }
    checksum::crc64(&buf[..PAGE_CONTENT]) == stored
}

/// Page identifier: index into the disk's page array.
pub type PageId = u32;

/// One durable page image, shared between a page and its archive copy
/// until the page is next written.
pub type Image = [u8; PAGE_SIZE];

/// Per-I/O latency model. Zero by default (tests); benchmarks configure
/// small latencies to reproduce the paper's disk-limited server.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskModel {
    /// Service time charged per page read.
    pub read_latency: Duration,
    /// Service time charged per page write.
    pub write_latency: Duration,
}

impl DiskModel {
    /// Same latency for reads and writes.
    pub fn uniform(latency: Duration) -> Self {
        DiskModel {
            read_latency: latency,
            write_latency: latency,
        }
    }
}

/// Cumulative I/O statistics (monotonic; survives crashes with the disk).
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    /// Total busy time in nanoseconds (simulated service time).
    busy_nanos: AtomicU64,
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Page reads so far.
    pub reads: u64,
    /// Page writes so far.
    pub writes: u64,
    /// Accumulated simulated service time.
    pub busy: Duration,
}

impl IoSnapshot {
    /// Difference of two snapshots (self - earlier).
    pub fn delta(self, earlier: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            busy: self.busy.saturating_sub(earlier.busy),
        }
    }
}

impl IoStats {
    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
        }
    }

    fn record(&self, is_write: bool, service: Duration) {
        if is_write {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        self.busy_nanos
            .fetch_add(service.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// In-memory "durable" disk: survives simulated crashes because the server
/// keeps it in its durable half. Allocation reuses freed pages before it
/// grows the disk.
///
/// **Epoch fencing.** Every server incarnation writes under an epoch; a
/// simulated crash bumps the epoch, so stragglers from the dead
/// incarnation (e.g. a buffer-pool flush racing the crash) are rejected
/// instead of corrupting state the recovered server now owns.
pub struct MemDisk {
    pages: RwLock<Pages>,
    model: DiskModel,
    stats: IoStats,
    epoch: AtomicU64,
    /// Injected fault schedule (`faultkit::disk`). Lives with the disk —
    /// the *hardware* is faulty, not the process — so a schedule
    /// installed before a simulated crash keeps firing after recovery.
    /// Never held across another lock: the draw happens before `pages`.
    faults: Mutex<Option<DiskSchedule>>,
    /// Pages no table owns, handed out by `allocate` before the disk
    /// grows. Volatile: each incarnation fills it through
    /// [`MemDisk::release`] and restart rebuilds it with
    /// [`MemDisk::rebuild_free_list`]. Never held across `pages`.
    free: Mutex<Vec<PageId>>,
}

/// What [`MemDisk`] keeps under its page lock.
struct Pages {
    /// Each page's current durable image.
    live: Vec<Arc<Image>>,
    /// The image-copy area: each page's image as of the last archive
    /// pass that took it. A page with no copy was never archived, and
    /// the kept log holds its whole history.
    archive: HashMap<PageId, Arc<Image>>,
    /// Pages written since their image was last archived.
    unarchived: HashSet<PageId>,
}

impl MemDisk {
    /// Empty disk with the given latency model.
    pub fn new(model: DiskModel) -> Self {
        MemDisk {
            pages: RwLock::new(Pages {
                live: Vec::new(),
                archive: HashMap::new(),
                unarchived: HashSet::new(),
            }),
            model,
            stats: IoStats::default(),
            epoch: AtomicU64::new(0),
            faults: Mutex::new(None),
            free: Mutex::new(Vec::new()),
        }
    }

    /// Install (or clear) a storage fault schedule for the data device.
    pub fn set_fault_plan(&self, plan: Option<DiskPlan>) {
        *self.faults.lock() = plan.map(|p| p.schedule(DiskDevice::Data));
    }

    /// Draw the next injected fault for an I/O of class `op`, recording
    /// it in obskit when one fires. The guard is scoped: the draw never
    /// overlaps the `pages` lock.
    fn draw_fault(&self, op: DiskOp) -> Option<DiskFault> {
        match op {
            DiskOp::Read => crashpoint!("disk.read"),
            DiskOp::Write => crashpoint!("disk.write"),
            DiskOp::Flush => {}
        }
        let fault = self.faults.lock().as_mut().and_then(|s| s.next_fault(op));
        if let Some(f) = fault {
            obskit::metrics::global()
                .counter("storage.fault.injected")
                .incr();
            obskit::event!("disk.fault.inject", "data {}", f.kind().name());
        }
        fault
    }

    /// Cumulative I/O statistics.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Current writer epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Fence off all writers of earlier epochs (simulated crash). Taken
    /// under the page lock, so a writer that checked its epoch there
    /// finishes its write before the fence, never after it.
    pub fn bump_epoch(&self) -> u64 {
        let _pages = self.pages.write();
        let _lw = obskit::lockcheck::held("MemDisk::pages");
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn check_epoch(&self, epoch: u64) -> Result<()> {
        if epoch != self.current_epoch() {
            return Err(Error::ServerShutdown);
        }
        Ok(())
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        self.pages.read().live.len() as u32
    }

    /// Allocate a page and return its id: a freed page if one is
    /// waiting, else a fresh zeroed page at the end of the disk. A reused
    /// page keeps its old durable image until the caller's `AllocPage`
    /// redo (or first flush) re-initializes it. Counts
    /// `storage.pages.allocated` for every page handed out and
    /// `storage.pages.reused` for those that came off the free list.
    pub fn allocate(&self, epoch: u64) -> Result<PageId> {
        let metrics = obskit::metrics::global();
        let reused = {
            let mut free = self.free.lock();
            let _lw = obskit::lockcheck::held("MemDisk::free");
            self.check_epoch(epoch)?;
            free.pop()
        };
        let id = match reused {
            Some(id) => {
                metrics.counter("storage.pages.reused").incr();
                id
            }
            None => {
                let mut pages = self.pages.write();
                let _lw = obskit::lockcheck::held("MemDisk::pages");
                self.check_epoch(epoch)?;
                pages.live.push(Arc::new([0u8; PAGE_SIZE]));
                (pages.live.len() - 1) as PageId
            }
        };
        metrics.counter("storage.pages.allocated").incr();
        Ok(id)
    }

    /// Return pages no table owns any more to the free list. Rejects
    /// stale epochs, so a straggler of a crashed incarnation cannot free
    /// pages into the list restart rebuilt.
    pub fn release(&self, ids: &[PageId], epoch: u64) -> Result<()> {
        let mut free = self.free.lock();
        let _lw = obskit::lockcheck::held("MemDisk::free");
        self.check_epoch(epoch)?;
        free.extend_from_slice(ids);
        Ok(())
    }

    /// Restart path: the free list becomes every page not in `owned`.
    pub fn rebuild_free_list(&self, owned: &HashSet<PageId>, epoch: u64) -> Result<()> {
        let n = self.num_pages();
        let mut free = self.free.lock();
        let _lw = obskit::lockcheck::held("MemDisk::free");
        self.check_epoch(epoch)?;
        // Descending, so `allocate` pops the lowest free page first.
        *free = (0..n).rev().filter(|id| !owned.contains(id)).collect();
        Ok(())
    }

    /// Number of pages on the free list.
    pub fn free_pages(&self) -> usize {
        self.free.lock().len()
    }

    /// Ensure the disk has at least `n` pages (used by recovery when
    /// redoing page allocations that had not been flushed).
    pub fn ensure_capacity(&self, n: u32, epoch: u64) -> Result<()> {
        let mut pages = self.pages.write();
        let _lw = obskit::lockcheck::held("MemDisk::pages");
        self.check_epoch(epoch)?;
        while (pages.live.len() as u32) < n {
            pages.live.push(Arc::new([0u8; PAGE_SIZE]));
        }
        Ok(())
    }

    /// Read a page into `out`, charging the latency model. An injected
    /// `ReadErr` surfaces as a storage error with the bytes intact; the
    /// caller may retry.
    pub fn read_page(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        if self.draw_fault(DiskOp::Read).is_some() {
            // Only ReadErr applies to reads.
            return Err(Error::Storage(format!("injected read error on page {id}")));
        }
        self.simulate(false);
        let pages = self.pages.read();
        let _lw = obskit::lockcheck::held("MemDisk::pages");
        let page = pages
            .live
            .get(id as usize)
            .ok_or_else(|| Error::Storage(format!("read of unallocated page {id}")))?;
        out.copy_from_slice(&page[..]);
        Ok(())
    }

    /// The pages written since the archive last took them, each with its
    /// current image, in page order. Taking them changes nothing: a page
    /// leaves the set only when [`MemDisk::archive`] copies the image
    /// taken here, so a pass that fails part-way leaves the rest for the
    /// next one.
    pub fn unarchived(&self) -> Vec<(PageId, Arc<Image>)> {
        let pages = self.pages.read();
        let _lw = obskit::lockcheck::held("MemDisk::pages");
        let mut out: Vec<(PageId, Arc<Image>)> = pages
            .unarchived
            .iter()
            .filter_map(|&id| Some((id, Arc::clone(pages.live.get(id as usize)?))))
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Make `copy` page `id`'s archive image. `taken` is the live image
    /// [`MemDisk::unarchived`] returned: `copy` itself when it verified,
    /// or the page rebuilt from it when it did not. The page stays
    /// unarchived if it was written again since, so the next pass copies
    /// the newer image. Rejects stale epochs, so a crashed incarnation's
    /// pass cannot overwrite a copy its successor made. The copy shares
    /// its buffer and charges no I/O.
    pub fn archive(
        &self,
        id: PageId,
        taken: &Arc<Image>,
        copy: Arc<Image>,
        epoch: u64,
    ) -> Result<()> {
        let mut pages = self.pages.write();
        let _lw = obskit::lockcheck::held("MemDisk::pages");
        self.check_epoch(epoch)?;
        let pages = &mut *pages;
        if pages
            .live
            .get(id as usize)
            .is_some_and(|live| Arc::ptr_eq(live, taken))
        {
            pages.unarchived.remove(&id);
        }
        pages.archive.insert(id, copy);
        Ok(())
    }

    /// Page `id`'s archive image, if a pass ever archived it. Charges one
    /// read to the latency model. The archive draws no injected fault:
    /// it stands for the separate, reliable media an image copy is kept
    /// on.
    pub fn read_archive(&self, id: PageId) -> Option<Arc<Image>> {
        self.simulate(false);
        let pages = self.pages.read();
        let _lw = obskit::lockcheck::held("MemDisk::pages");
        pages.archive.get(&id).map(Arc::clone)
    }

    /// Write a page, charging the latency model. Rejects stale epochs.
    ///
    /// The disk owns the trailer: the caller's last 8 bytes are replaced
    /// with the CRC64 of the content area, so every durably written page
    /// is self-verifying. Injected faults apply *after* stamping —
    /// `TornWrite` persists a prefix of the stamped image (old trailer
    /// retained), `BitFlip` flips one stored bit — both claim success
    /// and are discovered later by verification.
    pub fn write_page(&self, id: PageId, data: &[u8; PAGE_SIZE], epoch: u64) -> Result<()> {
        let fault = self.draw_fault(DiskOp::Write);
        if matches!(fault, Some(DiskFault::WriteErr)) {
            return Err(Error::Storage(format!("injected write error on page {id}")));
        }
        self.simulate(true);
        let mut stamped = *data;
        let crc = checksum::crc64(&stamped[..PAGE_CONTENT]);
        stamped[PAGE_CONTENT..].copy_from_slice(&crc.to_be_bytes());
        let mut pages = self.pages.write();
        let _lw = obskit::lockcheck::held("MemDisk::pages");
        self.check_epoch(epoch)?;
        let pages = &mut *pages;
        let live = pages
            .live
            .get_mut(id as usize)
            .ok_or_else(|| Error::Storage(format!("write of unallocated page {id}")))?;
        pages.unarchived.insert(id);
        // Copy-on-write: a buffer the archive shares gets a new one.
        let page = Arc::make_mut(live);
        match fault {
            Some(DiskFault::TornWrite { frac_pm }) => {
                // Persist a prefix of the stamped image. The prefix
                // always covers the 16-byte header (so a lost update is
                // visible in the LSN) and never reaches the trailer (so
                // the old checksum stays behind): the torn image can
                // never verify.
                let split = TORN_MIN + (frac_pm as usize * (PAGE_CONTENT - TORN_MIN)) / 1000;
                let split = split.min(PAGE_CONTENT);
                page[..split].copy_from_slice(&stamped[..split]);
            }
            Some(DiskFault::BitFlip { offset_seed, bit }) => {
                page.copy_from_slice(&stamped);
                let off = (offset_seed % PAGE_SIZE as u64) as usize;
                page[off] ^= 1 << (bit & 7);
            }
            _ => page.copy_from_slice(&stamped),
        }
        Ok(())
    }

    /// Charge the latency model: spin for short waits so benchmark
    /// measurements are not quantized by the OS timer, sleep for long ones.
    fn simulate(&self, is_write: bool) {
        let lat = if is_write {
            self.model.write_latency
        } else {
            self.model.read_latency
        };
        self.stats.record(is_write, lat);
        if lat.is_zero() {
            return;
        }
        if lat >= Duration::from_millis(2) {
            std::thread::sleep(lat);
        } else {
            let start = Instant::now();
            while start.elapsed() < lat {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_round_trip() {
        let disk = MemDisk::new(DiskModel::default());
        let p0 = disk.allocate(0).unwrap();
        let p1 = disk.allocate(0).unwrap();
        assert_eq!((p0, p1), (0, 1));

        let mut data = [0u8; PAGE_SIZE];
        data[0] = 0xAB;
        data[PAGE_CONTENT - 1] = 0xCD;
        disk.write_page(p1, &data, 0).unwrap();

        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(p1, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_CONTENT - 1], 0xCD);
        // The disk stamped the trailer; the image verifies.
        assert!(page_image_ok(&out));

        // p0 still zeroed (and vacuously valid).
        disk.read_page(p0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert!(page_image_ok(&out));
    }

    #[test]
    fn unallocated_access_is_error() {
        let disk = MemDisk::new(DiskModel::default());
        let mut out = [0u8; PAGE_SIZE];
        assert!(disk.read_page(3, &mut out).is_err());
        assert!(disk.write_page(0, &out, 0).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let disk = MemDisk::new(DiskModel::uniform(Duration::from_micros(10)));
        let p = disk.allocate(0).unwrap();
        let data = [0u8; PAGE_SIZE];
        let before = disk.stats().snapshot();
        disk.write_page(p, &data, 0).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut out).unwrap();
        let d = disk.stats().snapshot().delta(before);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 1);
        assert!(d.busy >= Duration::from_micros(20));
    }

    #[test]
    fn epoch_fencing_rejects_stale_writers() {
        let disk = MemDisk::new(DiskModel::default());
        let p = disk.allocate(0).unwrap();
        let data = [0u8; PAGE_SIZE];
        assert_eq!(disk.bump_epoch(), 1);
        assert_eq!(
            disk.write_page(p, &data, 0),
            Err(crate::error::Error::ServerShutdown)
        );
        assert!(disk.allocate(0).is_err());
        // Current epoch still works.
        disk.write_page(p, &data, 1).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut out).unwrap();
    }

    #[test]
    fn injected_read_error_fires_once_then_clears() {
        use faultkit::disk::DiskFaultKind;
        let disk = MemDisk::new(DiskModel::default());
        let p = disk.allocate(0).unwrap();
        disk.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::ReadErr, 1)));
        let mut out = [0u8; PAGE_SIZE];
        assert!(disk.read_page(p, &mut out).is_err());
        // Retry succeeds: the bytes were never damaged.
        disk.read_page(p, &mut out).unwrap();
    }

    #[test]
    fn injected_write_error_leaves_old_image() {
        use faultkit::disk::DiskFaultKind;
        let disk = MemDisk::new(DiskModel::default());
        let p = disk.allocate(0).unwrap();
        let mut data = [0u8; PAGE_SIZE];
        data[0] = 1;
        disk.write_page(p, &data, 0).unwrap();
        disk.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::WriteErr, 1)));
        data[0] = 2;
        assert!(disk.write_page(p, &data, 0).is_err());
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut out).unwrap();
        assert_eq!(out[0], 1);
        assert!(page_image_ok(&out));
    }

    #[test]
    fn torn_write_never_verifies() {
        use faultkit::disk::DiskFaultKind;
        // Sweep the torn-offset space via the nth-write parameter: every
        // torn image must fail verification, whatever the split.
        for nth in 1..=8u64 {
            let disk = MemDisk::new(DiskModel::default());
            let p = disk.allocate(0).unwrap();
            let mut data = [0u8; PAGE_SIZE];
            data[0] = 0x11;
            disk.write_page(p, &data, 0).unwrap();
            disk.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::TornWrite, nth)));
            for round in 0..nth {
                data[0] = 0x22 + round as u8;
                data[100] = round as u8;
                // LSN bytes move forward like a real dirty flush.
                data[7] = round as u8 + 1;
                disk.write_page(p, &data, 0).unwrap();
            }
            let mut out = [0u8; PAGE_SIZE];
            disk.read_page(p, &mut out).unwrap();
            assert!(!page_image_ok(&out), "torn write at nth={nth} verified");
        }
    }

    #[test]
    fn bit_flip_never_verifies() {
        use faultkit::disk::DiskFaultKind;
        let disk = MemDisk::new(DiskModel::default());
        let p = disk.allocate(0).unwrap();
        disk.set_fault_plan(Some(DiskPlan::at(DiskFaultKind::BitFlip, 1)));
        let mut data = [0u8; PAGE_SIZE];
        data[42] = 0xFF;
        disk.write_page(p, &data, 0).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut out).unwrap();
        assert!(!page_image_ok(&out));
    }

    #[test]
    fn allocate_reuses_released_pages_before_growing() {
        let disk = MemDisk::new(DiskModel::default());
        for _ in 0..4 {
            disk.allocate(0).unwrap();
        }
        disk.release(&[1, 2], 0).unwrap();
        assert_eq!(disk.free_pages(), 2);
        let mut got = [disk.allocate(0).unwrap(), disk.allocate(0).unwrap()];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        assert_eq!(disk.num_pages(), 4);
        // Free list empty: the disk grows again.
        assert_eq!(disk.allocate(0).unwrap(), 4);
    }

    #[test]
    fn free_list_is_epoch_fenced_and_rebuilt_at_restart() {
        let disk = MemDisk::new(DiskModel::default());
        for _ in 0..6 {
            disk.allocate(0).unwrap();
        }
        disk.release(&[5], 0).unwrap();
        assert_eq!(disk.bump_epoch(), 1);
        // A straggler of the crashed incarnation can neither free nor
        // take pages.
        assert!(disk.release(&[0], 0).is_err());
        assert!(disk.allocate(0).is_err());
        let owned: HashSet<PageId> = [0, 2, 3].into_iter().collect();
        disk.rebuild_free_list(&owned, 1).unwrap();
        assert_eq!(disk.free_pages(), 3);
        // Lowest free page first.
        assert_eq!(disk.allocate(1).unwrap(), 1);
        assert_eq!(disk.allocate(1).unwrap(), 4);
        assert_eq!(disk.allocate(1).unwrap(), 5);
        assert_eq!(disk.allocate(1).unwrap(), 6);
    }

    #[test]
    fn ensure_capacity_grows_only() {
        let disk = MemDisk::new(DiskModel::default());
        disk.ensure_capacity(4, 0).unwrap();
        assert_eq!(disk.num_pages(), 4);
        disk.ensure_capacity(2, 0).unwrap();
        assert_eq!(disk.num_pages(), 4);
    }
}
