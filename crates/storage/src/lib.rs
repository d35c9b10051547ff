//! # jaguar-storage
//!
//! The storage engine underneath Jaguar-RS — the stand-in for the Shore
//! storage manager that PREDATOR was built on (`[CDF+94]` in the paper).
//!
//! The paper's experiments need exactly one storage capability: sequential
//! scans over relations of 10,000 tuples whose `ByteArray` attributes range
//! from 1 byte to 10,000 bytes. This crate provides that properly rather
//! than as a toy:
//!
//! * [`disk::DiskManager`] — a page-addressed file with page checksums
//!   ([`page::compute_checksum`]) verified on every read,
//! * [`page`] — slotted record pages with slot reuse and in-place
//!   compaction, read through a shared-latch view ([`page::SlottedRef`]),
//! * [`buffer::BufferPool`] — a fixed-size LRU page cache with pin counts
//!   and dirty write-back,
//! * [`heap::HeapFile`] — unordered record files with overflow chains for
//!   records larger than a page (a 10,000-byte tuple does not fit an 8 KiB
//!   page) and a full-file scan iterator.
//!
//! Durability hooks: every page header carries an LSN
//! ([`page::page_lsn`]), and the buffer pool accepts a [`WalHook`]
//! through which `jaguar-wal` enforces the WAL-before-data and no-steal
//! invariants (see `buffer` module docs).

pub mod btree;
pub mod buffer;
pub mod disk;
pub mod heap;
pub mod page;

pub use btree::BTree;
pub use buffer::{BufferPool, PageHandle, WalHook};
pub use disk::DiskManager;
pub use heap::HeapFile;
pub use page::ON_DISK_FORMAT_VERSION;
