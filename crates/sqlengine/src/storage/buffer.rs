//! Buffer pool with pin counting, LRU-ish eviction and the WAL rule
//! (a dirty page is never written to disk before the log is flushed
//! through that page's LSN).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use super::disk::{page_image_ok, MemDisk, PageId, PAGE_SIZE};
use super::page::{Page, PageRef};
use crate::error::Result;
use crate::wal::log::{ClrAction, LogManager, LogRecord};

/// A cached page frame.
pub struct Frame {
    /// The cached page's id.
    pub id: PageId,
    data: RwLock<Box<[u8; PAGE_SIZE]>>,
    dirty: AtomicBool,
    pins: AtomicUsize,
    last_used: AtomicU64,
}

/// A pinned reference to a cached page. The pin is released on drop;
/// the frame cannot be evicted while pinned.
pub struct PageGuard {
    frame: Arc<Frame>,
}

impl PageGuard {
    /// The pinned page's id.
    pub fn id(&self) -> PageId {
        self.frame.id
    }

    /// Shared access to the raw page bytes.
    pub fn read(&self) -> RwLockReadGuard<'_, Box<[u8; PAGE_SIZE]>> {
        self.frame.data.read()
    }

    /// Exclusive access; marks the frame dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Box<[u8; PAGE_SIZE]>> {
        self.frame.dirty.store(true, Ordering::Release);
        self.frame.data.write()
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One lock stripe of the pool: pages hash here by id, and eviction is
/// local to the stripe (each stripe owns `shard_capacity` frames).
struct PoolShard {
    frames: HashMap<PageId, Arc<Frame>>,
    tick: u64,
}

/// The buffer pool, lock-striped into [`PoolShard`]s so concurrent
/// sessions touching different pages do not serialize on one latch.
pub struct BufferPool {
    disk: Arc<MemDisk>,
    log: Arc<LogManager>,
    capacity: usize,
    shard_capacity: usize,
    epoch: u64,
    shards: Vec<Mutex<PoolShard>>,
}

impl BufferPool {
    /// Pool over `disk` enforcing the WAL rule via `log`.
    pub fn new(disk: Arc<MemDisk>, log: Arc<LogManager>, capacity: usize) -> Self {
        let epoch = disk.current_epoch();
        let capacity = capacity.max(8);
        // Tiny pools (the eviction tests, min-size servers) keep one
        // stripe so their capacity semantics stay exact; big pools get
        // up to 8 stripes.
        let nshards = (capacity / 8).clamp(1, 8);
        let shards = (0..nshards)
            .map(|_| {
                Mutex::new(PoolShard {
                    frames: HashMap::new(),
                    tick: 0,
                })
            })
            .collect();
        BufferPool {
            disk,
            log,
            capacity,
            shard_capacity: capacity.div_ceil(nshards),
            epoch,
            shards,
        }
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<MemDisk> {
        &self.disk
    }

    /// Which stripe caches `id`.
    fn shard_of(&self, id: PageId) -> usize {
        id as usize % self.shards.len()
    }

    /// Fetch a page into the pool (reading from disk on miss) and pin it.
    pub fn fetch(&self, id: PageId) -> Result<PageGuard> {
        let si = self.shard_of(id);
        let mut shard = self.shards[si].lock();
        let _lw = obskit::lockcheck::held("BufferPool::shards");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(frame) = shard.frames.get(&id) {
            frame.pins.fetch_add(1, Ordering::AcqRel);
            frame.last_used.store(tick, Ordering::Relaxed);
            return Ok(PageGuard {
                frame: Arc::clone(frame),
            });
        }
        self.make_room(&mut shard)?;
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        self.disk.read_page(id, &mut buf)?;
        // Every miss is a verification point: a torn or bit-flipped
        // durable image must never serve rows. Quarantine the corrupt
        // bytes (discard them) and rebuild the page from the log; the
        // repaired frame is dirty so a later flush re-stamps the disk.
        let mut dirty = false;
        if !page_image_ok(&buf) {
            buf = self.repair_page(id)?;
            dirty = true;
        }
        let frame = Arc::new(Frame {
            id,
            data: RwLock::new(buf),
            dirty: AtomicBool::new(dirty),
            pins: AtomicUsize::new(1),
            last_used: AtomicU64::new(tick),
        });
        shard.frames.insert(id, Arc::clone(&frame));
        Ok(PageGuard { frame })
    }

    /// Rebuild page `id` from the durable log: start from a zeroed image
    /// and replay every durable record touching the page, LSN-guarded
    /// exactly like restart redo. Sound because the caller holds no
    /// cached frame for the page (this runs on a pool miss), so the WAL
    /// rule guarantees every record for the last flushed image is
    /// durable. Counts `storage.corruption.{detected,repaired}` and
    /// times the rebuild as `recovery.repair`.
    fn repair_page(&self, id: PageId) -> Result<Box<[u8; PAGE_SIZE]>> {
        faultkit::crashpoint!("disk.repair");
        let metrics = obskit::metrics::global();
        metrics.counter("storage.corruption.detected").incr();
        obskit::event!("disk.page.corrupt", "page {id} failed checksum; rebuilding");
        let t_repair = Instant::now();
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        // Unlike restart redo, no LSN guard is needed: the image starts
        // from zero and the log holds its full clean history exactly
        // once, in LSN order (the very first record of the log has LSN
        // 0, which an `lsn() < lsn` guard would wrongly skip).
        for (lsn, rec) in self.log.store().records_from(0)? {
            match rec {
                LogRecord::AllocPage { table, page } if page == id => {
                    let mut p = Page::init(&mut buf, table);
                    p.set_lsn(lsn);
                }
                LogRecord::Insert {
                    page, slot, data, ..
                } if page == id => {
                    let mut p = Page::new(&mut buf);
                    p.insert_expect(slot, &data)?;
                    p.set_lsn(lsn);
                }
                LogRecord::Delete { page, slot, .. } if page == id => {
                    let mut p = Page::new(&mut buf);
                    p.tombstone(slot)?;
                    p.set_lsn(lsn);
                }
                LogRecord::Clr {
                    page, slot, action, ..
                } if page == id => {
                    let mut p = Page::new(&mut buf);
                    match action {
                        ClrAction::Tombstone => p.tombstone(slot)?,
                        ClrAction::Untombstone => p.untombstone(slot)?,
                    }
                    p.set_lsn(lsn);
                }
                _ => {}
            }
        }
        metrics.counter("storage.corruption.repaired").incr();
        metrics.record("recovery.repair", t_repair.elapsed());
        obskit::event!("recovery.repair", "page {id} rebuilt from wal redo");
        Ok(buf)
    }

    /// Allocate a page on disk (fresh or reused), format it for
    /// `table_id`, and return it pinned and dirty.
    pub fn new_page(&self, table_id: u32) -> Result<(PageId, PageGuard)> {
        let id = self.disk.allocate(self.epoch)?;
        let si = self.shard_of(id);
        let mut shard = self.shards[si].lock();
        let _lw = obskit::lockcheck::held("BufferPool::shards");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(frame) = shard.frames.get(&id) {
            // A reused page whose old image is still cached: format the
            // same frame in place. Replacing it would let a flush that
            // already holds the old frame write the dropped table's
            // image over the new one.
            frame.pins.fetch_add(1, Ordering::AcqRel);
            frame.last_used.store(tick, Ordering::Relaxed);
            let guard = PageGuard {
                frame: Arc::clone(frame),
            };
            Page::init(&mut guard.write(), table_id);
            return Ok((id, guard));
        }
        self.make_room(&mut shard)?;
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        Page::init(&mut buf, table_id);
        let frame = Arc::new(Frame {
            id,
            data: RwLock::new(buf),
            dirty: AtomicBool::new(true),
            pins: AtomicUsize::new(1),
            last_used: AtomicU64::new(tick),
        });
        shard.frames.insert(id, Arc::clone(&frame));
        Ok((id, PageGuard { frame }))
    }

    /// Return pages no table owns any more to the disk's free list.
    pub fn release_pages(&self, ids: &[PageId]) -> Result<()> {
        self.disk.release(ids, self.epoch)
    }

    /// Restart path: every page outside `owned` becomes free.
    pub fn rebuild_free_list(&self, owned: &HashSet<PageId>) -> Result<()> {
        self.disk.rebuild_free_list(owned, self.epoch)
    }

    /// Evict an unpinned frame if this stripe is at capacity.
    fn make_room(&self, shard: &mut PoolShard) -> Result<()> {
        while shard.frames.len() >= self.shard_capacity {
            let victim = shard
                .frames
                .values()
                .filter(|f| f.pins.load(Ordering::Acquire) == 0)
                .min_by_key(|f| f.last_used.load(Ordering::Relaxed))
                .map(|f| f.id);
            let Some(vid) = victim else {
                // Everything pinned: allow the stripe to grow past capacity
                // rather than deadlock. Large transactions at tiny pool
                // sizes are an accepted overflow case.
                return Ok(());
            };
            // The victim id was selected from this same map under the lock,
            // so the entry is still there; skip defensively if it is not.
            let Some(frame) = shard.frames.remove(&vid) else {
                continue;
            };
            if let Err(e) = self.flush_frame(&frame) {
                // The frame was already removed from the map; dropping it
                // here would lose the only copy of its (possibly dirty)
                // content. Put it back, still dirty, and surface the
                // error — a retry can evict it once the device behaves.
                frame.dirty.store(true, Ordering::Release);
                shard.frames.insert(vid, frame);
                return Err(e);
            }
        }
        Ok(())
    }

    fn flush_frame(&self, frame: &Frame) -> Result<()> {
        if !frame.dirty.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        let data = frame.data.read();
        let _lw = obskit::lockcheck::held("Frame::data");
        let lsn = PageRef::new(&data).lsn();
        // WAL rule.
        self.log.flush_to(lsn)?;
        self.disk.write_page(frame.id, &data, self.epoch)?;
        Ok(())
    }

    /// Flush every dirty frame (checkpoint path).
    pub fn flush_all(&self) -> Result<()> {
        let mut frames: Vec<Arc<Frame>> = Vec::new();
        for si in 0..self.shards.len() {
            let shard = self.shards[si].lock();
            let _lw = obskit::lockcheck::held("BufferPool::shards");
            frames.extend(shard.frames.values().cloned());
        }
        for f in frames {
            self.flush_frame(&f)?;
        }
        Ok(())
    }

    /// Number of cached frames (for tests/metrics).
    pub fn cached(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }

    /// Walk every allocated page verifying its durable checksum,
    /// repairing damage in place via WAL redo. Background-free: runs to
    /// completion on the caller's thread. Intended for quiet points
    /// (post-recovery hook, maintenance API) — concurrent writers are
    /// tolerated by re-verifying under the pool lock before repairing,
    /// but scrubbing a quiescent engine is the meaningful mode.
    pub fn scrub(&self) -> Result<ScrubReport> {
        faultkit::crashpoint!("disk.scrub");
        let t_scrub = Instant::now();
        let mut report = ScrubReport::default();
        for id in 0..self.disk.num_pages() {
            report.pages += 1;
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            self.disk.read_page(id, &mut buf)?;
            if page_image_ok(&buf) {
                continue;
            }
            // Serialize against fetch/eviction of this page: under its
            // stripe's lock nobody can flush a newer image between our
            // re-check and the repair write-back.
            let si = self.shard_of(id);
            let _shard = self.shards[si].lock();
            let _lw = obskit::lockcheck::held("BufferPool::shards");
            self.disk.read_page(id, &mut buf)?;
            if !page_image_ok(&buf) {
                report.detected += 1;
                let repaired = self.repair_page(id)?;
                self.disk.write_page(id, &repaired, self.epoch)?;
                report.repaired += 1;
            }
        }
        obskit::metrics::global().record("storage.scrub", t_scrub.elapsed());
        obskit::event!(
            "disk.scrub.done",
            "{} pages, {} corrupt, {} repaired",
            report.pages,
            report.detected,
            report.repaired
        );
        Ok(report)
    }
}

/// What a [`BufferPool::scrub`] pass found and fixed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Allocated pages examined.
    pub pages: u32,
    /// Pages whose durable image failed checksum verification.
    pub detected: u32,
    /// Pages rebuilt from WAL redo and rewritten.
    pub repaired: u32,
}

// Errors from make_room can only originate in disk/log I/O.
impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("cached", &self.cached())
            .finish()
    }
}

/// Convenience: run `f` with a mutable [`Page`] view of the guard,
/// stamping `lsn` afterwards.
pub fn with_page_mut<R>(
    guard: &PageGuard,
    lsn: u64,
    f: impl FnOnce(&mut Page<'_>) -> Result<R>,
) -> Result<R> {
    let mut data = guard.write();
    let mut page = Page::new(&mut data);
    let r = f(&mut page)?;
    // Never move the page LSN backwards: redo passes record LSNs older
    // than the page when it skips already-applied records, and regressing
    // the LSN would make a later flush + recovery re-apply them.
    if lsn > page.lsn() {
        page.set_lsn(lsn);
    }
    Ok(r)
}

/// Convenience: run `f` with a read-only [`super::page::PageRef`] view,
/// holding only the frame's shared lock.
pub fn with_page<R>(guard: &PageGuard, f: impl FnOnce(&super::page::PageRef<'_>) -> R) -> R {
    let data = guard.read();
    let page = super::page::PageRef::new(&data);
    f(&page)
}

#[allow(dead_code)]
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<BufferPool>();
    check::<PageGuard>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::disk::DiskModel;
    use crate::wal::log::LogStore;
    use faultkit::disk::{DiskFaultKind, DiskPlan};

    fn pool(capacity: usize) -> BufferPool {
        let disk = Arc::new(MemDisk::new(DiskModel::default()));
        let store = Arc::new(LogStore::new());
        let log = Arc::new(LogManager::new(store));
        BufferPool::new(disk, log, capacity)
    }

    /// Drop every cached frame (force misses on the next fetch).
    fn evict_all(pool: &BufferPool) {
        for s in &pool.shards {
            s.lock().frames.clear();
        }
    }

    /// Build a pool whose page 0 is WAL-logged like the heap layer would
    /// log it, flushed to disk, and evicted — ready to be corrupted.
    fn logged_page(pool: &BufferPool) -> PageId {
        let (pid, g) = pool.new_page(7).unwrap();
        let l0 = pool.log.append(&LogRecord::AllocPage {
            table: 7,
            page: pid,
        });
        with_page_mut(&g, l0, |_| Ok(())).unwrap();
        for i in 0..3u8 {
            let data = vec![i; 20];
            let lsn = pool.log.append(&LogRecord::Insert {
                txn: 1,
                table: 7,
                page: pid,
                slot: i as u16,
                data: data.clone(),
            });
            with_page_mut(&g, lsn, |p| {
                p.insert_expect(i as u16, &data)?;
                Ok(())
            })
            .unwrap();
        }
        drop(g);
        pool.log.flush_all().unwrap();
        pool.flush_all().unwrap();
        pid
    }

    fn corrupt_on_disk(pool: &BufferPool, pid: PageId) {
        let mut raw = [0u8; PAGE_SIZE];
        pool.disk().read_page(pid, &mut raw).unwrap();
        pool.disk()
            .set_fault_plan(Some(DiskPlan::at(DiskFaultKind::BitFlip, 1)));
        pool.disk().write_page(pid, &raw, 0).unwrap();
        pool.disk().set_fault_plan(None);
    }

    #[test]
    fn fetch_miss_repairs_corrupt_page() {
        let pool = pool(16);
        let pid = logged_page(&pool);
        corrupt_on_disk(&pool, pid);
        // Evicted + corrupt on disk: force a miss.
        evict_all(&pool);
        let g = pool.fetch(pid).unwrap();
        with_page(&g, |p| {
            assert_eq!(p.table_id(), 7);
            for i in 0..3u8 {
                assert_eq!(p.get(i as u16).unwrap(), vec![i; 20].as_slice());
            }
        });
        // The repaired frame is dirty; flushing re-stamps the disk image.
        drop(g);
        pool.flush_all().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        pool.disk().read_page(pid, &mut raw).unwrap();
        assert!(page_image_ok(&raw));
    }

    #[test]
    fn scrub_detects_and_repairs_in_place() {
        let pool = pool(16);
        let pid = logged_page(&pool);
        corrupt_on_disk(&pool, pid);
        evict_all(&pool);
        let report = pool.scrub().unwrap();
        assert_eq!(report.detected, 1);
        assert_eq!(report.repaired, 1);
        assert!(report.pages >= 1);
        // Clean after repair: a second scrub finds nothing.
        let report2 = pool.scrub().unwrap();
        assert_eq!(report2.detected, 0);
        // And the disk image itself verifies again.
        let mut raw = [0u8; PAGE_SIZE];
        pool.disk().read_page(pid, &mut raw).unwrap();
        assert!(page_image_ok(&raw));
    }

    #[test]
    fn failed_eviction_flush_keeps_page_content() {
        let pool = pool(8);
        let mut pids = Vec::new();
        for i in 0..8u32 {
            let (pid, g) = pool.new_page(1).unwrap();
            with_page_mut(&g, i as u64 + 1, |p| {
                p.insert(format!("keep{i}").as_bytes()).unwrap();
                Ok(())
            })
            .unwrap();
            pids.push(pid);
        }
        // Next allocation must evict; the eviction write fails.
        pool.disk()
            .set_fault_plan(Some(DiskPlan::at(DiskFaultKind::WriteErr, 1)));
        assert!(pool.new_page(1).is_err());
        pool.disk().set_fault_plan(None);
        // No content was lost: every page still reads back, either from
        // the reinserted frame or from disk.
        for (i, pid) in pids.iter().enumerate() {
            let g = pool.fetch(*pid).unwrap();
            with_page(&g, |p| {
                assert_eq!(p.get(0).unwrap(), format!("keep{i}").as_bytes());
            });
        }
    }

    #[test]
    fn reused_page_is_formatted_in_its_cached_frame() {
        let pool = pool(16);
        let (pid, g) = pool.new_page(1).unwrap();
        with_page_mut(&g, 1, |p| {
            p.insert(b"dropped").unwrap();
            Ok(())
        })
        .unwrap();
        drop(g);
        // Stands in for a flush that already holds the old frame.
        let old = pool.fetch(pid).unwrap();
        pool.release_pages(&[pid]).unwrap();
        let (reused, g) = pool.new_page(2).unwrap();
        assert_eq!(reused, pid);
        assert!(Arc::ptr_eq(&old.frame, &g.frame));
        with_page(&old, |p| {
            assert_eq!(p.table_id(), 2);
            assert_eq!(p.slot_count(), 0);
        });
        assert_eq!(pool.cached(), 1);
    }

    #[test]
    fn new_page_and_fetch() {
        let pool = pool(16);
        let (pid, guard) = pool.new_page(42).unwrap();
        with_page_mut(&guard, 1, |p| {
            p.insert(b"tuple").unwrap();
            Ok(())
        })
        .unwrap();
        drop(guard);
        let g2 = pool.fetch(pid).unwrap();
        with_page(&g2, |p| {
            assert_eq!(p.table_id(), 42);
            assert_eq!(p.get(0).unwrap(), b"tuple");
        });
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let pool = pool(8);
        let mut pids = Vec::new();
        for i in 0..32u32 {
            let (pid, g) = pool.new_page(1).unwrap();
            with_page_mut(&g, i as u64 + 1, |p| {
                p.insert(format!("row{i}").as_bytes()).unwrap();
                Ok(())
            })
            .unwrap();
            pids.push(pid);
        }
        assert!(pool.cached() <= 8);
        // All pages readable with their contents after eviction churn.
        for (i, pid) in pids.iter().enumerate() {
            let g = pool.fetch(*pid).unwrap();
            with_page(&g, |p| {
                assert_eq!(p.get(0).unwrap(), format!("row{i}").as_bytes());
            });
        }
    }

    #[test]
    fn pinned_frames_not_evicted() {
        let pool = pool(8);
        let mut guards = Vec::new();
        for _ in 0..12 {
            guards.push(pool.new_page(1).unwrap().1);
        }
        // Pool grew past capacity rather than evicting pinned frames.
        assert_eq!(pool.cached(), 12);
        drop(guards);
        // Subsequent allocations can now evict.
        for _ in 0..8 {
            pool.new_page(1).unwrap();
        }
        assert!(pool.cached() <= 12);
    }

    #[test]
    fn striped_pool_spreads_pages_and_bounds_capacity() {
        let pool = pool(64);
        assert_eq!(pool.shards.len(), 8);
        assert_eq!(pool.shard_capacity, 8);
        let mut pids = Vec::new();
        for i in 0..128u32 {
            let (pid, g) = pool.new_page(1).unwrap();
            with_page_mut(&g, i as u64 + 1, |p| {
                p.insert(format!("s{i}").as_bytes()).unwrap();
                Ok(())
            })
            .unwrap();
            pids.push(pid);
        }
        // Sequential page ids land round-robin: every stripe is in use
        // and per-stripe eviction bounds the total.
        assert!(pool.shards.iter().all(|s| !s.lock().frames.is_empty()));
        assert!(pool.cached() <= pool.capacity);
        // Nothing was lost to eviction churn across stripes.
        for (i, pid) in pids.iter().enumerate() {
            let g = pool.fetch(*pid).unwrap();
            with_page(&g, |p| {
                assert_eq!(p.get(0).unwrap(), format!("s{i}").as_bytes());
            });
        }
    }

    #[test]
    fn flush_all_writes_to_disk() {
        let pool = pool(16);
        let (pid, g) = pool.new_page(9).unwrap();
        with_page_mut(&g, 5, |p| {
            p.insert(b"persist me").unwrap();
            Ok(())
        })
        .unwrap();
        drop(g);
        pool.flush_all().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        pool.disk().read_page(pid, &mut raw).unwrap();
        let mut buf = Box::new(raw);
        let mut owned = Page::new(&mut buf);
        assert_eq!(owned.get(0).unwrap(), b"persist me");
        let _ = &mut owned;
    }
}
