//! Slotted heap pages.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! 0..8    page LSN (u64)        — last log record applied to this page
//! 8..12   table id (u32)
//! 12..14  slot count (u16)
//! 14..16  free_end (u16)        — offset where tuple data begins
//! 16..    slot array, 4 B/slot  — offset u16, len|flags u16
//! ...     free space
//! ...PAGE_CONTENT  tuple data (grows downward from the content end)
//! PAGE_CONTENT..PAGE_SIZE  checksum trailer (u64, stamped by the disk)
//! ```
//!
//! Tuple space is append-only within a page: deleting a row *tombstones*
//! its slot but never reclaims its bytes. This makes undo (and redo) of
//! insert/delete trivially idempotent — undo-insert re-tombstones the slot,
//! undo-delete clears the tombstone and finds the bytes still in place —
//! at the cost of space amplification, which is acceptable at the scales
//! this reproduction runs.

use super::disk::PAGE_SIZE;
use crate::error::{Error, Result};

/// Bytes of a page usable by the slotted layout; the trailing 8 bytes
/// hold the CRC64 checksum the disk stamps on every write.
pub const PAGE_CONTENT: usize = PAGE_SIZE - 8;

const HEADER: usize = 16;
const SLOT_BYTES: usize = 4;
const TOMBSTONE: u16 = 0x8000;
const LEN_MASK: u16 = 0x7FFF;

/// Slot index within a page.
pub type SlotId = u16;

/// Copy `N` bytes out of `buf` starting at `at`. The compile-time width
/// sidesteps the fallible `try_into` that a slice conversion would need.
fn read_arr<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[at..at + N]);
    out
}

/// A view over a page buffer providing slotted-page operations.
pub struct Page<'a> {
    buf: &'a mut [u8; PAGE_SIZE],
}

impl<'a> Page<'a> {
    /// View an existing (already formatted) page buffer.
    pub fn new(buf: &'a mut [u8; PAGE_SIZE]) -> Self {
        Page { buf }
    }

    /// Format a fresh page.
    pub fn init(buf: &'a mut [u8; PAGE_SIZE], table_id: u32) -> Self {
        buf.fill(0);
        let mut p = Page { buf };
        p.set_table_id(table_id);
        p.set_slot_count(0);
        p.set_free_end(PAGE_CONTENT as u16);
        p
    }

    /// LSN of the last log record applied to this page.
    pub fn lsn(&self) -> u64 {
        u64::from_be_bytes(read_arr(self.buf, 0))
    }

    /// Stamp the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.buf[0..8].copy_from_slice(&lsn.to_be_bytes());
    }

    /// Owning table.
    pub fn table_id(&self) -> u32 {
        u32::from_be_bytes(read_arr(self.buf, 8))
    }

    fn set_table_id(&mut self, id: u32) {
        self.buf[8..12].copy_from_slice(&id.to_be_bytes());
    }

    /// Number of slots (live + tombstoned).
    pub fn slot_count(&self) -> u16 {
        u16::from_be_bytes(read_arr(self.buf, 12))
    }

    fn set_slot_count(&mut self, n: u16) {
        self.buf[12..14].copy_from_slice(&n.to_be_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_be_bytes(read_arr(self.buf, 14))
    }

    fn set_free_end(&mut self, v: u16) {
        self.buf[14..16].copy_from_slice(&v.to_be_bytes());
    }

    fn slot_entry(&self, slot: SlotId) -> (u16, u16) {
        let base = HEADER + slot as usize * SLOT_BYTES;
        let off = u16::from_be_bytes(read_arr(self.buf, base));
        let lf = u16::from_be_bytes(read_arr(self.buf, base + 2));
        (off, lf)
    }

    fn set_slot_entry(&mut self, slot: SlotId, off: u16, lf: u16) {
        let base = HEADER + slot as usize * SLOT_BYTES;
        self.buf[base..base + 2].copy_from_slice(&off.to_be_bytes());
        self.buf[base + 2..base + 4].copy_from_slice(&lf.to_be_bytes());
    }

    /// Free bytes available for a new tuple (accounting for its slot entry).
    pub fn free_space(&self) -> usize {
        let slots_end = HEADER + self.slot_count() as usize * SLOT_BYTES;
        (self.free_end() as usize).saturating_sub(slots_end)
    }

    /// Whether a tuple of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        len <= LEN_MASK as usize && self.free_space() >= len + SLOT_BYTES
    }

    /// Insert tuple bytes, returning the new slot id, or `None` if full.
    pub fn insert(&mut self, data: &[u8]) -> Option<SlotId> {
        if !self.fits(data.len()) {
            return None;
        }
        let slot = self.slot_count();
        let new_end = self.free_end() - data.len() as u16;
        self.buf[new_end as usize..new_end as usize + data.len()].copy_from_slice(data);
        self.set_slot_entry(slot, new_end, data.len() as u16);
        self.set_slot_count(slot + 1);
        self.set_free_end(new_end);
        Some(slot)
    }

    /// Redo-path insert: must land on exactly `slot`. Because pages are
    /// modified strictly in LSN order and redo replays that order over a
    /// prefix state, the next free slot is always the expected one.
    pub fn insert_expect(&mut self, slot: SlotId, data: &[u8]) -> Result<()> {
        let got = self
            .insert(data)
            .ok_or_else(|| Error::Storage("redo insert: page full".into()))?;
        if got != slot {
            return Err(Error::Storage(format!(
                "redo insert landed on slot {got}, expected {slot}"
            )));
        }
        Ok(())
    }

    /// Read a live tuple. `None` for tombstoned slots.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, lf) = self.slot_entry(slot);
        if lf & TOMBSTONE != 0 {
            return None;
        }
        let len = (lf & LEN_MASK) as usize;
        Some(&self.buf[off as usize..off as usize + len])
    }

    /// Whether `slot` is tombstoned (`None` if missing).
    pub fn is_tombstoned(&self, slot: SlotId) -> Option<bool> {
        if slot >= self.slot_count() {
            return None;
        }
        Some(self.slot_entry(slot).1 & TOMBSTONE != 0)
    }

    /// Mark a slot dead (delete / undo-insert). Idempotent.
    pub fn tombstone(&mut self, slot: SlotId) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(Error::Storage(format!("tombstone of missing slot {slot}")));
        }
        let (off, lf) = self.slot_entry(slot);
        self.set_slot_entry(slot, off, lf | TOMBSTONE);
        Ok(())
    }

    /// Resurrect a tombstoned slot (undo-delete). Idempotent.
    pub fn untombstone(&mut self, slot: SlotId) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(Error::Storage(format!(
                "untombstone of missing slot {slot}"
            )));
        }
        let (off, lf) = self.slot_entry(slot);
        self.set_slot_entry(slot, off, lf & !TOMBSTONE);
        Ok(())
    }

    /// Iterate live slot ids.
    pub fn live_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.slot_count()).filter(|&s| {
            let (_, lf) = self.slot_entry(s);
            lf & TOMBSTONE == 0
        })
    }
}

/// Read-only view over a page buffer (used by scans so readers can share
/// the frame lock).
pub struct PageRef<'a> {
    buf: &'a [u8; PAGE_SIZE],
}

impl<'a> PageRef<'a> {
    /// View a page buffer read-only.
    pub fn new(buf: &'a [u8; PAGE_SIZE]) -> Self {
        PageRef { buf }
    }

    /// LSN of the last log record applied to this page.
    pub fn lsn(&self) -> u64 {
        u64::from_be_bytes(read_arr(self.buf, 0))
    }

    /// Owning table.
    pub fn table_id(&self) -> u32 {
        u32::from_be_bytes(read_arr(self.buf, 8))
    }

    /// Number of slots (live + tombstoned).
    pub fn slot_count(&self) -> u16 {
        u16::from_be_bytes(read_arr(self.buf, 12))
    }

    fn slot_entry(&self, slot: SlotId) -> (u16, u16) {
        let base = HEADER + slot as usize * SLOT_BYTES;
        let off = u16::from_be_bytes(read_arr(self.buf, base));
        let lf = u16::from_be_bytes(read_arr(self.buf, base + 2));
        (off, lf)
    }

    /// Read a live tuple. `None` for tombstoned or missing slots.
    pub fn get(&self, slot: SlotId) -> Option<&'a [u8]> {
        self.tuple_range(slot).map(|r| &self.buf[r])
    }

    /// Where a live tuple's bytes lie in the page image. `None` for
    /// tombstoned or missing slots.
    pub fn tuple_range(&self, slot: SlotId) -> Option<std::ops::Range<usize>> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, lf) = self.slot_entry(slot);
        if lf & TOMBSTONE != 0 {
            return None;
        }
        let len = (lf & LEN_MASK) as usize;
        Some(off as usize..off as usize + len)
    }

    /// Read tuple bytes regardless of tombstone state (undo/debug path).
    pub fn get_raw(&self, slot: SlotId) -> Option<&'a [u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, lf) = self.slot_entry(slot);
        let len = (lf & LEN_MASK) as usize;
        Some(&self.buf[off as usize..off as usize + len])
    }

    /// Iterate live (non-tombstoned) slot ids.
    pub fn live_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.slot_count()).filter(|&s| {
            let (_, lf) = self.slot_entry(s);
            lf & TOMBSTONE == 0
        })
    }

    fn free_end(&self) -> u16 {
        u16::from_be_bytes(read_arr(self.buf, 14))
    }

    /// Whether an `AllocPage` ever formatted this image. The tuple space
    /// of a formatted page ends above the slot array, never at offset 0,
    /// so only a page no record has touched (all zero) reads `false`.
    pub fn is_formatted(&self) -> bool {
        self.free_end() != 0
    }

    /// Free bytes between the slot array and the tuple space.
    pub fn free_space(&self) -> usize {
        let slots_end = HEADER + self.slot_count() as usize * SLOT_BYTES;
        (self.free_end() as usize).saturating_sub(slots_end)
    }

    /// Whether a tuple of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        len <= LEN_MASK as usize && self.free_space() >= len + SLOT_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8; PAGE_SIZE]> {
        Box::new([0u8; PAGE_SIZE])
    }

    #[test]
    fn insert_and_get() {
        let mut buf = fresh();
        let mut p = Page::init(&mut buf, 7);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(p.get(0).unwrap(), b"hello");
        assert_eq!(p.get(1).unwrap(), b"world!");
        assert_eq!(p.table_id(), 7);
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn tombstone_lifecycle() {
        let mut buf = fresh();
        let mut p = Page::init(&mut buf, 1);
        p.insert(b"abc").unwrap();
        assert_eq!(p.is_tombstoned(0), Some(false));
        p.tombstone(0).unwrap();
        assert!(p.get(0).is_none());
        assert_eq!(PageRef::new(&buf).get_raw(0).unwrap(), b"abc");
        // Idempotent.
        let mut p = Page::new(&mut buf);
        p.tombstone(0).unwrap();
        p.untombstone(0).unwrap();
        assert_eq!(p.get(0).unwrap(), b"abc");
        assert_eq!(p.live_slots().count(), 1);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut buf = fresh();
        let mut p = Page::init(&mut buf, 1);
        let tuple = [0u8; 100];
        let mut n = 0;
        while p.insert(&tuple).is_some() {
            n += 1;
        }
        // 8168 usable / 104 per tuple ≈ 78.
        assert!(n >= 70, "inserted only {n}");
        assert!(!p.fits(100));
        assert!(p.fits(p.free_space().saturating_sub(SLOT_BYTES)) || p.free_space() <= SLOT_BYTES);
    }

    #[test]
    fn deleted_space_not_reclaimed() {
        let mut buf = fresh();
        let mut p = Page::init(&mut buf, 1);
        let tuple = [1u8; 1000];
        for _ in 0..7 {
            p.insert(&tuple).unwrap();
        }
        let free_before = p.free_space();
        for s in 0..7 {
            p.tombstone(s).unwrap();
        }
        assert_eq!(p.free_space(), free_before);
    }

    #[test]
    fn lsn_round_trip() {
        let mut buf = fresh();
        let mut p = Page::init(&mut buf, 1);
        assert_eq!(p.lsn(), 0);
        p.set_lsn(0xDEAD_BEEF_1234);
        assert_eq!(p.lsn(), 0xDEAD_BEEF_1234);
    }

    #[test]
    fn insert_expect_enforces_slot() {
        let mut buf = fresh();
        let mut p = Page::init(&mut buf, 1);
        p.insert_expect(0, b"a").unwrap();
        assert!(p.insert_expect(5, b"b").is_err());
    }

    #[test]
    fn zero_length_tuple_ok() {
        let mut buf = fresh();
        let mut p = Page::init(&mut buf, 1);
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s).unwrap(), b"");
    }
}
