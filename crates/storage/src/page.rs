//! Page layouts.
//!
//! Every page starts with a 20-byte common header:
//!
//! ```text
//! offset 0  u32  checksum   (four-lane word hash over bytes[4..], see
//!                            [`compute_checksum`]; maintained by DiskManager)
//! offset 4  u8   page_type  (Free / Slotted / Overflow / FileHeader)
//! offset 5  u8   reserved
//! offset 6  u16  h0         } type-specific: Slotted: slot_count / free_end
//! offset 8  u16  h1         } Overflow:     (unused)
//! offset 10 u16  h2         }
//! offset 12 u64  page_lsn   (LSN of the WAL record carrying this page's
//!                            latest logged image; 0 = never logged)
//! ```
//!
//! **Slotted pages** hold variable-length records addressed by slot number.
//! The slot directory grows forward from the header; record bytes grow
//! backward from the end of the page. Deleting a record tombstones its slot
//! (slot numbers are stable — they are half of a `RecordId`); the space is
//! reclaimed by [`SlottedPage::compact`], which the insert path runs
//! automatically when fragmentation blocks an otherwise-fitting record.
//!
//! **Overflow pages** hold one chunk of a record too large to inline,
//! plus the page id of the next chunk.

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::ids::PageId;

/// Version of the on-disk layout (common page header, heap-file layout,
/// catalog manifest). Bumped on every incompatible change — v2 grew the
/// common page header from 12 to 20 bytes to carry the page LSN; v3 grew
/// it to 40 to carry a marker, nonce and tag for sealed page bodies and
/// added a key blob to the manifest; v4 replaced the byte-serial FNV-1a
/// page checksum with the word-wide hash of [`compute_checksum`]; v5 lets
/// the write-ahead log hold page deltas (record kind 5), which an older
/// reader would take for a torn tail, dropping every commit after it; v6
/// took the sealed bodies out again, shrinking the header back to 20 bytes
/// and dropping the manifest's key blob. The catalog stamps this into
/// `catalog.manifest` and refuses to open a database directory written
/// under any other version, so an old file is a clean "incompatible
/// format" error instead of silently shifted reads.
pub const ON_DISK_FORMAT_VERSION: u32 = 6;

/// Size of the common header present on every page.
pub const COMMON_HEADER: usize = 20;
/// Offset of the page LSN within the common header.
pub(crate) const LSN_OFFSET: usize = 12;
/// Size of one slot directory entry (u16 offset + u16 length).
pub const SLOT_SIZE: usize = 4;
/// Slot offset sentinel marking a deleted (tombstoned) slot.
const TOMBSTONE: u16 = u16::MAX;

/// Discriminates the page layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    Free = 0,
    Slotted = 1,
    Overflow = 2,
    FileHeader = 3,
}

impl PageType {
    pub fn from_byte(b: u8) -> Result<PageType> {
        Ok(match b {
            0 => PageType::Free,
            1 => PageType::Slotted,
            2 => PageType::Overflow,
            3 => PageType::FileHeader,
            other => return Err(JaguarError::Corruption(format!("bad page type {other}"))),
        })
    }
}

/// Read the page type from a raw page buffer.
pub fn page_type(buf: &[u8]) -> Result<PageType> {
    PageType::from_byte(buf[4])
}

/// Set the page type byte on a raw page buffer.
pub fn set_page_type(buf: &mut [u8], ty: PageType) {
    buf[4] = ty as u8;
}

/// Read the LSN of the WAL record carrying this page's latest logged image
/// (0 for a page that was never logged).
pub fn page_lsn(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[LSN_OFFSET..LSN_OFFSET + 8].try_into().expect("8 bytes"))
}

/// Stamp the page LSN. Called by the WAL commit path just before the page
/// image is copied into the log.
pub fn set_page_lsn(buf: &mut [u8], lsn: u64) {
    buf[LSN_OFFSET..LSN_OFFSET + 8].copy_from_slice(&lsn.to_le_bytes());
}

const CK_MUL: u64 = 0x9E37_79B1_85EB_CA87;
const CK_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// Checksum of the page body (everything after the checksum word).
///
/// The body is read as little-endian `u64` words (the last one zero-padded)
/// dealt round-robin onto four lanes, each stepping
/// `lane = rotl((lane ^ word) * CK_MUL, 29)`; the lanes are then chained
/// through the same step, seeded with the body length, and the result is
/// xor-folded to 32 bits. Every step is a bijection of the lane for a fixed
/// word and of the word for a fixed lane, so a single changed word always
/// changes its lane; four independent multiply chains keep the CPU's
/// multiplier busy where byte-serial FNV-1a waited on one.
pub fn compute_checksum(buf: &[u8]) -> u32 {
    fn step(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(CK_MUL).rotate_left(29)
    }
    fn word(bytes: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(w)
    }
    let body = &buf[4..];
    let mut lanes = CK_SEEDS;
    let mut blocks = body.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = step(*lane, word(w));
    }
    let h = lanes
        .iter()
        .fold(body.len() as u64, |h, &lane| step(h, lane));
    let h = step(h, h >> 32);
    (h ^ (h >> 32)) as u32
}

/// Stamp the checksum word. Called by the disk manager before writing.
pub fn seal_checksum(buf: &mut [u8]) {
    let c = compute_checksum(buf);
    buf[0..4].copy_from_slice(&c.to_le_bytes());
}

/// Verify the checksum word. Called by the disk manager after reading.
pub fn verify_checksum(buf: &[u8]) -> Result<()> {
    let stored = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let actual = compute_checksum(buf);
    if stored != actual {
        return Err(JaguarError::Corruption(format!(
            "page checksum mismatch: stored {stored:#x}, computed {actual:#x}"
        )));
    }
    Ok(())
}

#[inline]
fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().expect("2 bytes"))
}

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------
// Slotted pages
// ---------------------------------------------------------------------

/// A read-only view over a raw page buffer interpreting it as a slotted
/// record page: all a reader holding the page's *shared* latch needs.
/// Offsets `h0` = slot count, `h1` = free end (start of the record data
/// region). [`SlottedPage`] reads through this view too, so there is one
/// implementation of every accessor.
#[derive(Clone, Copy)]
pub struct SlottedRef<'a> {
    buf: &'a [u8],
}

impl<'a> SlottedRef<'a> {
    /// Interpret an existing buffer as a slotted page, validating the type
    /// byte and header sanity.
    pub fn open(buf: &'a [u8]) -> Result<SlottedRef<'a>> {
        if page_type(buf)? != PageType::Slotted {
            return Err(JaguarError::Corruption("not a slotted page".into()));
        }
        let p = SlottedRef { buf };
        let slots = p.slot_count() as usize;
        let free_end = p.free_end() as usize;
        if COMMON_HEADER + slots * SLOT_SIZE > free_end || free_end > buf.len() {
            return Err(JaguarError::Corruption(format!(
                "slotted header out of range: {slots} slots, free_end {free_end}"
            )));
        }
        Ok(p)
    }

    #[inline]
    pub fn slot_count(&self) -> u16 {
        get_u16(self.buf, 6)
    }

    fn free_end(&self) -> u16 {
        get_u16(self.buf, 8)
    }

    #[inline]
    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let off = COMMON_HEADER + slot as usize * SLOT_SIZE;
        (get_u16(self.buf, off), get_u16(self.buf, off + 2))
    }

    /// Read a record by slot number.
    #[inline]
    pub fn get(&self, slot: u16) -> Result<&'a [u8]> {
        if slot >= self.slot_count() {
            return Err(JaguarError::Storage(format!("slot {slot} out of range")));
        }
        let (off, len) = self.slot_entry(slot);
        if off == TOMBSTONE {
            return Err(JaguarError::Storage(format!("slot {slot} is deleted")));
        }
        let (off, len) = (off as usize, len as usize);
        if off < COMMON_HEADER || off + len > self.buf.len() {
            return Err(JaguarError::Corruption(format!(
                "slot {slot} points outside page"
            )));
        }
        Ok(&self.buf[off..off + len])
    }

    /// True if the slot exists and is live.
    #[inline]
    pub fn is_live(&self, slot: u16) -> bool {
        slot < self.slot_count() && self.slot_entry(slot).0 != TOMBSTONE
    }

    /// Bytes a compaction would leave free: the page less its header, its
    /// slot directory and its live records.
    pub fn total_free(&self) -> usize {
        let entries = (0..self.slot_count()).map(|s| self.slot_entry(s));
        let live: usize = entries
            .filter(|(off, _)| *off != TOMBSTONE)
            .map(|(_, len)| len as usize)
            .sum();
        let used = COMMON_HEADER + self.slot_count() as usize * SLOT_SIZE + live;
        self.buf.len().saturating_sub(used)
    }

    /// Would [`SlottedPage::insert`] find room for a record of `len` bytes
    /// (compacting if it had to)? Lets a writer probe a page under the
    /// shared latch, so a page that turns out to be full is left clean.
    pub fn fits(&self, len: usize) -> bool {
        if len > u16::MAX as usize {
            return false;
        }
        // The usual case — room behind the slot directory for the record
        // and a new slot — is decided without looking at any slot.
        let directory = COMMON_HEADER + self.slot_count() as usize * SLOT_SIZE;
        if self.free_end() as usize - directory >= len + SLOT_SIZE {
            return true;
        }
        let reuse = (0..self.slot_count()).any(|s| self.slot_entry(s).0 == TOMBSTONE);
        self.total_free() >= len + if reuse { 0 } else { SLOT_SIZE }
    }
}

/// A mutable view over a raw page buffer interpreting it as a slotted
/// record page, for writers holding the page's *exclusive* latch. The view
/// performs no I/O.
pub struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Initialise a fresh buffer as an empty slotted page.
    pub fn init(buf: &'a mut [u8]) -> SlottedPage<'a> {
        buf[4..].fill(0);
        set_page_type(buf, PageType::Slotted);
        let len = buf.len() as u16;
        let mut p = SlottedPage { buf };
        p.set_slot_count(0);
        p.set_free_end(len);
        p
    }

    /// Interpret an existing buffer as a slotted page, with the validation
    /// of [`SlottedRef::open`].
    pub fn open(buf: &'a mut [u8]) -> Result<SlottedPage<'a>> {
        SlottedRef::open(buf)?;
        Ok(SlottedPage { buf })
    }

    /// The read-only view of this page.
    fn view(&self) -> SlottedRef<'_> {
        SlottedRef { buf: self.buf }
    }

    pub fn slot_count(&self) -> u16 {
        self.view().slot_count()
    }

    fn set_slot_count(&mut self, n: u16) {
        put_u16(self.buf, 6, n);
    }

    fn free_end(&self) -> u16 {
        self.view().free_end()
    }

    fn set_free_end(&mut self, v: u16) {
        put_u16(self.buf, 8, v);
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        self.view().slot_entry(slot)
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let off = COMMON_HEADER + slot as usize * SLOT_SIZE;
        put_u16(self.buf, off, offset);
        put_u16(self.buf, off + 2, len);
    }

    /// Contiguous free bytes between the slot directory and the data region.
    pub fn contiguous_free(&self) -> usize {
        self.free_end() as usize - (COMMON_HEADER + self.slot_count() as usize * SLOT_SIZE)
    }

    /// Total reclaimable free bytes ([`SlottedRef::total_free`]).
    pub fn total_free(&self) -> usize {
        self.view().total_free()
    }

    /// Largest record this page could accept right now *without* compaction,
    /// assuming a new slot is needed.
    pub fn insertable_now(&self) -> usize {
        self.contiguous_free().saturating_sub(SLOT_SIZE)
    }

    /// Make `need` contiguous bytes free, compacting if fragmentation (not
    /// capacity) is the obstacle. `false` if they genuinely do not fit.
    fn make_room(&mut self, need: usize) -> bool {
        if self.contiguous_free() < need && self.total_free() >= need {
            self.compact();
        }
        self.contiguous_free() >= need
    }

    /// Write `record` at the end of the free region and point `slot` at it.
    fn place(&mut self, slot: u16, record: &[u8]) {
        let new_end = self.free_end() as usize - record.len();
        self.buf[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end as u16);
        self.set_slot_entry(slot, new_end as u16, record.len() as u16);
    }

    /// Insert a record, reusing a tombstoned slot if available; compacts the
    /// page if fragmentation (not capacity) is the obstacle. Returns the
    /// slot number, or `None` if the record genuinely does not fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if record.len() > u16::MAX as usize {
            return None;
        }
        let reuse = (0..self.slot_count()).find(|&s| self.slot_entry(s).0 == TOMBSTONE);
        let slot_cost = if reuse.is_some() { 0 } else { SLOT_SIZE };
        if !self.make_room(record.len() + slot_cost) {
            return None;
        }
        let slot = reuse.unwrap_or_else(|| {
            let s = self.slot_count();
            self.set_slot_count(s + 1);
            s
        });
        self.place(slot, record);
        Some(slot)
    }

    /// Replace a live record where it lies, keeping its slot number (and so
    /// its `RecordId`). A record no longer than the old one overwrites it; a
    /// longer one is placed in the page's free space, compacting if it must.
    /// `Ok(false)` — and an untouched page — if the page cannot hold it.
    pub fn replace(&mut self, slot: u16, record: &[u8]) -> Result<bool> {
        self.get(slot)?;
        let (off, len) = self.slot_entry(slot);
        if record.len() <= len as usize {
            let at = off as usize;
            self.buf[at..at + record.len()].copy_from_slice(record);
            self.set_slot_entry(slot, off, record.len() as u16);
            return Ok(true);
        }
        // The old bytes count as free space for the new ones.
        self.set_slot_entry(slot, TOMBSTONE, len);
        if record.len() > u16::MAX as usize || !self.make_room(record.len()) {
            self.set_slot_entry(slot, off, len);
            return Ok(false);
        }
        self.place(slot, record);
        Ok(true)
    }

    /// Read a record by slot number.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        self.view().get(slot)
    }

    /// Tombstone a slot. The slot number remains allocated (RecordIds stay
    /// stable); its space is reclaimed by the next compaction.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(JaguarError::Storage(format!("slot {slot} out of range")));
        }
        if self.slot_entry(slot).0 == TOMBSTONE {
            return Err(JaguarError::Storage(format!("slot {slot} already deleted")));
        }
        self.set_slot_entry(slot, TOMBSTONE, 0);
        Ok(())
    }

    /// True if the slot exists and is live.
    pub fn is_live(&self, slot: u16) -> bool {
        self.view().is_live(slot)
    }

    /// Slide all live records to the end of the page, squeezing out holes.
    /// Slot numbers (and hence RecordIds) are preserved.
    pub fn compact(&mut self) {
        let page_len = self.buf.len();
        // Collect live records ordered by current offset descending so we
        // can slide them towards the end without overlap issues via a
        // scratch copy (pages are small; simplicity over cleverness).
        let mut live: Vec<(u16, Vec<u8>)> = (0..self.slot_count())
            .filter_map(|s| {
                let (off, len) = self.slot_entry(s);
                if off == TOMBSTONE {
                    None
                } else {
                    Some((s, self.buf[off as usize..(off + len) as usize].to_vec()))
                }
            })
            .collect();
        let mut end = page_len;
        for (slot, data) in live.drain(..) {
            end -= data.len();
            self.buf[end..end + data.len()].copy_from_slice(&data);
            self.set_slot_entry(slot, end as u16, data.len() as u16);
        }
        self.set_free_end(end as u16);
    }
}

// ---------------------------------------------------------------------
// Overflow pages
// ---------------------------------------------------------------------

/// Header bytes used by an overflow page after the common header:
/// `u32 next_page` + `u32 chunk_len`.
pub const OVERFLOW_HEADER: usize = COMMON_HEADER + 8;

/// Usable payload capacity of one overflow page.
pub fn overflow_capacity(page_size: usize) -> usize {
    page_size - OVERFLOW_HEADER
}

/// Initialise a buffer as an overflow page holding `chunk`, linking to
/// `next` (or [`PageId::INVALID`] for the tail).
pub fn init_overflow(buf: &mut [u8], chunk: &[u8], next: PageId) {
    assert!(chunk.len() <= overflow_capacity(buf.len()));
    buf[4..].fill(0);
    set_page_type(buf, PageType::Overflow);
    buf[COMMON_HEADER..COMMON_HEADER + 4].copy_from_slice(&next.0.to_le_bytes());
    buf[COMMON_HEADER + 4..COMMON_HEADER + 8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
    buf[OVERFLOW_HEADER..OVERFLOW_HEADER + chunk.len()].copy_from_slice(chunk);
}

/// Read the chunk and next-page link from an overflow page.
pub fn read_overflow(buf: &[u8]) -> Result<(&[u8], PageId)> {
    if page_type(buf)? != PageType::Overflow {
        return Err(JaguarError::Corruption("not an overflow page".into()));
    }
    let next = PageId(u32::from_le_bytes(
        buf[COMMON_HEADER..COMMON_HEADER + 4].try_into().expect("4"),
    ));
    let len = u32::from_le_bytes(
        buf[COMMON_HEADER + 4..COMMON_HEADER + 8]
            .try_into()
            .expect("4"),
    ) as usize;
    if OVERFLOW_HEADER + len > buf.len() {
        return Err(JaguarError::Corruption(
            "overflow chunk length invalid".into(),
        ));
    }
    Ok((&buf[OVERFLOW_HEADER..OVERFLOW_HEADER + len], next))
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 512;

    fn fresh() -> Vec<u8> {
        vec![0u8; P]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let a = page.insert(b"hello").unwrap();
        let b = page.insert(b"world!").unwrap();
        assert_ne!(a, b);
        assert_eq!(page.get(a).unwrap(), b"hello");
        assert_eq!(page.get(b).unwrap(), b"world!");
    }

    #[test]
    fn empty_record_allowed() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let s = page.insert(b"").unwrap();
        assert_eq!(page.get(s).unwrap(), b"");
    }

    #[test]
    fn delete_tombstones_and_slot_reused() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let a = page.insert(b"aaaa").unwrap();
        let b = page.insert(b"bbbb").unwrap();
        page.delete(a).unwrap();
        assert!(page.get(a).is_err());
        assert!(page.is_live(b));
        assert!(!page.is_live(a));
        // Next insert reuses the tombstoned slot number.
        let c = page.insert(b"cccc").unwrap();
        assert_eq!(c, a);
        assert_eq!(page.get(c).unwrap(), b"cccc");
    }

    #[test]
    fn double_delete_is_error() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let a = page.insert(b"x").unwrap();
        page.delete(a).unwrap();
        assert!(page.delete(a).is_err());
        assert!(page.delete(99).is_err());
    }

    #[test]
    fn fills_until_capacity_then_rejects() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let rec = [7u8; 32];
        let mut n = 0;
        while page.insert(&rec).is_some() {
            n += 1;
        }
        // 512-byte page, 20-byte header, 36 bytes/record (32 + 4 slot).
        assert!(n >= 12, "expected at least 12 records, got {n}");
        assert!(page.insertable_now() < rec.len());
    }

    #[test]
    fn compaction_reclaims_deleted_space() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let mut slots = Vec::new();
        let rec = [1u8; 40];
        while let Some(s) = page.insert(&rec) {
            slots.push(s);
        }
        // Delete every other record; a 2x-sized record now only fits after
        // compaction, which insert() performs automatically.
        for s in slots.iter().step_by(2) {
            page.delete(*s).unwrap();
        }
        let big = [2u8; 80];
        let got = page.insert(&big).expect("compaction should make room");
        assert_eq!(page.get(got).unwrap(), &big[..]);
        // Survivors intact after compaction.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(page.get(*s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn compaction_preserves_slot_numbers() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let a = page.insert(b"first").unwrap();
        let b = page.insert(b"second").unwrap();
        let c = page.insert(b"third").unwrap();
        page.delete(b).unwrap();
        page.compact();
        assert_eq!(page.get(a).unwrap(), b"first");
        assert_eq!(page.get(c).unwrap(), b"third");
        assert!(page.get(b).is_err());
    }

    #[test]
    fn replace_keeps_the_slot_and_uses_the_pages_free_space() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let a = page.insert(&[1u8; 100]).unwrap();
        let b = page.insert(&[2u8; 100]).unwrap();
        // Same length and shorter: overwritten where it lies.
        assert!(page.replace(a, &[3u8; 100]).unwrap());
        assert!(page.replace(b, &[4u8; 60]).unwrap());
        assert_eq!(page.get(a).unwrap(), &[3u8; 100][..]);
        assert_eq!(page.get(b).unwrap(), &[4u8; 60][..]);
        // Longer: placed in the free space; the old bytes become a hole…
        assert!(page.replace(b, &[5u8; 200]).unwrap());
        assert_eq!(page.get(b).unwrap(), &[5u8; 200][..]);
        assert_eq!(page.total_free(), P - COMMON_HEADER - 2 * SLOT_SIZE - 300);
        // …which compaction hands to a record that needs it: 300 bytes are
        // live, the new version may take all the rest.
        let most = P - COMMON_HEADER - 2 * SLOT_SIZE - 100;
        assert!(page.contiguous_free() < most - 200, "must compact");
        assert!(page.replace(b, &vec![6u8; most]).unwrap());
        assert_eq!(page.get(a).unwrap(), &[3u8; 100][..]);
        assert_eq!(page.get(b).unwrap(), &vec![6u8; most][..]);
        assert_eq!(page.total_free(), 0);
        // One byte more does not fit, and the page is as it was.
        let before = page.buf.to_vec();
        assert!(!page.replace(a, &[7u8; 101]).unwrap());
        assert_eq!(page.buf, &before[..]);
        // A dead or unknown slot is an error, as for `get`.
        page.delete(a).unwrap();
        assert!(page.replace(a, b"x").is_err());
        assert!(page.replace(9, b"x").is_err());
    }

    #[test]
    fn fits_predicts_insert() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let mut slots = Vec::new();
        for len in [40usize, 90, 10, 130, 60, 75, 20] {
            slots.extend(page.insert(&vec![len as u8; len]));
        }
        page.delete(slots[1]).unwrap();
        page.delete(slots[4]).unwrap();
        for len in 0..P {
            let mut copy = page.buf.to_vec();
            let fits = SlottedRef::open(&copy).unwrap().fits(len);
            let inserted = SlottedPage::open(&mut copy)
                .unwrap()
                .insert(&vec![0u8; len]);
            assert_eq!(fits, inserted.is_some(), "len {len}");
        }
    }

    #[test]
    fn checksum_roundtrip_and_detects_corruption() {
        let mut buf = fresh();
        SlottedPage::init(&mut buf).insert(b"payload").unwrap();
        seal_checksum(&mut buf);
        verify_checksum(&buf).unwrap();
        buf[100] ^= 0xFF;
        assert!(verify_checksum(&buf).is_err());
    }

    /// A page body with some structure: records, a slot directory, an LSN.
    fn sample_page(seed: u8) -> Vec<u8> {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        for i in 0..6u8 {
            page.insert(&[seed.wrapping_mul(31).wrapping_add(i); 40])
                .unwrap();
        }
        set_page_lsn(&mut buf, 0x1234_5678 + seed as u64);
        seal_checksum(&mut buf);
        buf
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let mut buf = sample_page(1);
        for bit in 0..P * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(verify_checksum(&buf).is_err(), "flip of bit {bit} missed");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        verify_checksum(&buf).unwrap();
    }

    #[test]
    fn checksum_detects_torn_page() {
        let (old, new) = (sample_page(1), sample_page(2));
        // A write of `new` over `old` that stopped half way, either half.
        for torn in [
            [&new[..P / 2], &old[P / 2..]].concat(),
            [&old[..P / 2], &new[P / 2..]].concat(),
        ] {
            assert!(verify_checksum(&torn).is_err());
        }
        // The same bytes with two neighbouring body words (straddling a
        // record boundary, so they differ) exchanged between lanes.
        let mut swapped = old.clone();
        swapped[468..476].copy_from_slice(&old[476..484]);
        swapped[476..484].copy_from_slice(&old[468..476]);
        assert_ne!(swapped, old);
        assert!(verify_checksum(&swapped).is_err());
    }

    #[test]
    fn read_only_view_agrees_with_the_mutable_one() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let a = page.insert(b"kept").unwrap();
        let b = page.insert(b"gone").unwrap();
        page.delete(b).unwrap();
        let view = SlottedRef::open(&buf).unwrap();
        assert_eq!(view.slot_count(), 2);
        assert_eq!(view.get(a).unwrap(), b"kept");
        assert!(view.is_live(a) && !view.is_live(b));
        assert!(view.get(b).unwrap_err().to_string().contains("deleted"));
        assert!(view.get(9).is_err());
    }

    #[test]
    fn open_validates_header() {
        let mut buf = fresh();
        SlottedPage::init(&mut buf);
        // Corrupt free_end beyond the page.
        put_u16(&mut buf, 8, (P + 100) as u16);
        assert!(SlottedRef::open(&buf).is_err());
        assert!(SlottedPage::open(&mut buf).is_err());

        let mut buf2 = fresh();
        set_page_type(&mut buf2, PageType::Overflow);
        assert!(SlottedPage::open(&mut buf2).is_err());
    }

    #[test]
    fn overflow_roundtrip() {
        let mut buf = fresh();
        let chunk: Vec<u8> = (0..overflow_capacity(P)).map(|i| i as u8).collect();
        init_overflow(&mut buf, &chunk, PageId(77));
        let (got, next) = read_overflow(&buf).unwrap();
        assert_eq!(got, &chunk[..]);
        assert_eq!(next, PageId(77));
    }

    #[test]
    fn overflow_tail_link() {
        let mut buf = fresh();
        init_overflow(&mut buf, b"tail", PageId::INVALID);
        let (_, next) = read_overflow(&buf).unwrap();
        assert!(!next.is_valid());
    }

    #[test]
    fn page_lsn_roundtrip() {
        let mut buf = fresh();
        let s = SlottedPage::init(&mut buf).insert(b"record").unwrap();
        assert_eq!(page_lsn(&buf), 0, "fresh page was never logged");
        set_page_lsn(&mut buf, 0xDEAD_BEEF_0042);
        assert_eq!(page_lsn(&buf), 0xDEAD_BEEF_0042);
        // The LSN lives inside the common header, clear of the slot
        // directory: records survive stamping.
        let page = SlottedPage::open(&mut buf).unwrap();
        assert_eq!(page.get(s).unwrap(), b"record");
    }

    #[test]
    fn page_type_detection() {
        let mut buf = fresh();
        SlottedPage::init(&mut buf);
        assert_eq!(page_type(&buf).unwrap(), PageType::Slotted);
        assert!(PageType::from_byte(9).is_err());
    }
}
