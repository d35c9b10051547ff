//! A named relation backed by a heap file.

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use jaguar_common::config::Config;
use jaguar_common::error::JaguarError;
use jaguar_common::error::Result;
use jaguar_common::ids::{RecordId, TableId};
use jaguar_common::obs;
use jaguar_common::schema::{Schema, SchemaRef};
use jaguar_common::stream::{decode_tuple, decode_tuple_into, record_column, write_tuple};
use jaguar_common::value::{compare, CmpOp};
use jaguar_common::DataType;
use jaguar_common::{ColumnSet, Tuple, Value};
use jaguar_sec::PageCipher;
use jaguar_storage::heap::{PageScan, Spill, Stored, Updated};
use jaguar_storage::{BTree, BufferPool, DiskManager, HeapFile};
use jaguar_wal::Wal;
use parking_lot::RwLock;

/// A table's connection to the database-wide write-ahead log: the log
/// itself plus the file name this table's page images are attributed to
/// (table ids are reassigned on restart; the file name is stable).
struct WalBinding {
    wal: Arc<Wal>,
    file: String,
}

/// A secondary index over one INT column of a table.
pub struct TableIndex {
    pub name: String,
    pub column: usize,
    pub btree: BTree,
}

/// A relation: schema + heap file + row count + optional indexes.
pub struct Table {
    id: TableId,
    name: String,
    schema: SchemaRef,
    heap: Arc<HeapFile>,
    rows: AtomicU64,
    indexes: RwLock<Vec<Arc<TableIndex>>>,
    wal: Option<WalBinding>,
}

impl Table {
    /// Create a table backed by an in-memory heap file.
    pub fn create_in_memory(
        id: TableId,
        name: &str,
        schema: Schema,
        config: &Config,
    ) -> Result<Table> {
        let disk = Arc::new(DiskManager::in_memory(config.page_size));
        let pool = Arc::new(BufferPool::new(disk, config.buffer_pool_pages));
        let heap = Arc::new(HeapFile::create(pool)?);
        Ok(Table {
            id,
            name: name.to_string(),
            schema: Arc::new(schema),
            heap,
            rows: AtomicU64::new(0),
            indexes: RwLock::new(Vec::new()),
            wal: None,
        })
    }

    /// Create a table backed by a file on disk, logging through `wal` if
    /// the catalog has one and encrypting pages with `cipher` if the
    /// database has one.
    pub fn create_at(
        id: TableId,
        name: &str,
        schema: Schema,
        path: &Path,
        config: &Config,
        wal: Option<&Arc<Wal>>,
        cipher: Option<Arc<dyn PageCipher>>,
    ) -> Result<Table> {
        let _ = std::fs::remove_file(path);
        let disk = Arc::new(DiskManager::open_with_cipher(
            path,
            config.page_size,
            cipher,
        )?);
        let pool = Arc::new(BufferPool::new(disk, config.buffer_pool_pages));
        let wal = Self::bind_wal(wal, path, &pool);
        let heap = Arc::new(HeapFile::create(pool)?);
        let table = Table {
            id,
            name: name.to_string(),
            schema: Arc::new(schema),
            heap,
            rows: AtomicU64::new(0),
            indexes: RwLock::new(Vec::new()),
            wal,
        };
        // The heap's header page is a mutation like any other: commit it so
        // a crash right after CREATE TABLE recovers an openable (empty)
        // heap file.
        table.commit_durable()?;
        Ok(table)
    }

    /// Reopen an existing on-disk table (used by catalog recovery). The
    /// row count is recomputed with one scan.
    pub fn open_at(
        id: TableId,
        name: &str,
        schema: Schema,
        path: &Path,
        config: &Config,
        wal: Option<&Arc<Wal>>,
        cipher: Option<Arc<dyn PageCipher>>,
    ) -> Result<Table> {
        let disk = Arc::new(DiskManager::open_with_cipher(
            path,
            config.page_size,
            cipher,
        )?);
        let pool = Arc::new(BufferPool::new(disk, config.buffer_pool_pages));
        let wal = Self::bind_wal(wal, path, &pool);
        let heap = Arc::new(HeapFile::open(pool)?);
        let (mut pages, mut rows) = (heap.pages(1, u32::MAX), 0u64);
        while pages.next_page(|_, _| {
            rows += 1;
            Ok(())
        })? {}
        Ok(Table {
            id,
            name: name.to_string(),
            schema: Arc::new(schema),
            heap,
            rows: AtomicU64::new(rows),
            indexes: RwLock::new(Vec::new()),
            wal,
        })
    }

    fn bind_wal(wal: Option<&Arc<Wal>>, path: &Path, pool: &Arc<BufferPool>) -> Option<WalBinding> {
        let wal = wal?;
        let file = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        wal.attach(pool, &file);
        Some(WalBinding {
            wal: Arc::clone(wal),
            file,
        })
    }

    pub fn id(&self) -> TableId {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn row_count(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Create a B+Tree index over an INT column and backfill it from the
    /// existing rows. NULLs are not indexed (SQL comparisons with NULL are
    /// never true, so the planner never needs them).
    pub fn create_index(&self, name: &str, column_name: &str) -> Result<()> {
        let column = self.schema.resolve(column_name)?;
        let field = self.schema.field(column).expect("resolved");
        if field.dtype != DataType::Int {
            return Err(JaguarError::Plan(format!(
                "indexes are supported on INT columns only; '{column_name}' is {}",
                field.dtype
            )));
        }
        let mut indexes = self.indexes.write();
        if indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(name) || i.column == column)
        {
            return Err(JaguarError::Catalog(format!(
                "an index named '{name}' or covering '{column_name}' already exists"
            )));
        }
        let btree = BTree::create(Arc::clone(self.heap.pool()))?;
        let key_only = ColumnSet::of(self.schema.len(), [column]);
        for item in self.scan_with(&key_only, 1..u32::MAX) {
            let (rid, tuple) = item?;
            if let Value::Int(k) = tuple.get(column)? {
                btree.insert(*k, rid)?;
            }
        }
        indexes.push(Arc::new(TableIndex {
            name: name.to_string(),
            column,
            btree,
        }));
        Ok(())
    }

    /// The index covering `column`, if any.
    pub fn index_on(&self, column: usize) -> Option<Arc<TableIndex>> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.column == column)
            .cloned()
    }

    /// Names of all indexes.
    pub fn index_names(&self) -> Vec<String> {
        self.indexes.read().iter().map(|i| i.name.clone()).collect()
    }

    /// Validate `tuple` against the schema and encode it as a record.
    fn encode(&self, tuple: &Tuple) -> Result<Vec<u8>> {
        tuple.check_against(&self.schema)?;
        let mut buf = Vec::with_capacity(32 + tuple.heap_size());
        write_tuple(&mut buf, tuple)?;
        Ok(buf)
    }

    /// The columns some index is keyed on.
    fn key_columns(&self, indexes: &[Arc<TableIndex>]) -> ColumnSet {
        ColumnSet::of(self.schema.len(), indexes.iter().map(|i| i.column))
    }

    /// Validate against the schema and store a row (maintaining indexes).
    pub fn insert(&self, tuple: Tuple) -> Result<RecordId> {
        let rid = self.heap.insert(&self.encode(&tuple)?)?;
        self.rows.fetch_add(1, Ordering::Relaxed);
        for idx in self.indexes.read().iter() {
            if let Value::Int(k) = tuple.get(idx.column)? {
                idx.btree.insert(*k, rid)?;
            }
        }
        Ok(rid)
    }

    /// Fetch one row by record id, decoding the columns in `cols` (the
    /// others read as NULL). `None` if the row is gone.
    pub fn get(&self, rid: RecordId, cols: &ColumnSet) -> Result<Option<Tuple>> {
        Ok(self.fetch(rid, &self.read_all(cols))?.flatten())
    }

    /// How this table's rows are read when only the columns in `cols` are
    /// wanted, and only of rows that pass every one of `tests`, in order.
    pub fn reader(&self, cols: &ColumnSet, tests: Vec<ScanTest>) -> RowReader {
        RowReader {
            cols: cols.clone(),
            tests,
        }
    }

    /// [`Table::reader`] with no test: every row passes.
    fn read_all(&self, cols: &ColumnSet) -> RowReader {
        self.reader(cols, Vec::new())
    }

    /// Fetch one row by record id as `reader` reads it: `None` if the row
    /// is gone, `Some(None)` if it is there and fails the reader's test.
    pub fn fetch(&self, rid: RecordId, reader: &RowReader) -> Result<Option<Option<Tuple>>> {
        self.heap.get_with(rid, |record| {
            let mut tuple = Tuple::default();
            Ok(reader.read(record, tuple.values_mut())?.then_some(tuple))
        })
    }

    /// Delete a row (maintaining indexes). Returns `false` if the row was
    /// already gone: a concurrent statement deleted it after the caller's
    /// scan saw it, which leaves nothing for this one to do.
    pub fn delete(&self, rid: RecordId) -> Result<bool> {
        let Some(raw) = self.heap.delete(rid)? else {
            return Ok(false);
        };
        self.rows.fetch_sub(1, Ordering::Relaxed);
        let indexes = self.indexes.read();
        if !indexes.is_empty() {
            let tuple = decode_tuple(&raw, &self.key_columns(&indexes))?;
            for idx in indexes.iter() {
                if let Value::Int(k) = tuple.get(idx.column)? {
                    idx.btree.delete(*k, rid)?;
                }
            }
        }
        Ok(true)
    }

    /// Replace the row at `rid` with `new`. The row is rewritten where it
    /// lies and keeps its id whenever the new version fits its page, and
    /// then only the indexes whose key changed — judged by the row actually
    /// replaced, not by what the caller read earlier — are touched. If it
    /// does not fit, or either version is spilled, the row is deleted and
    /// re-inserted. `false` if the row was already gone (see
    /// [`Table::delete`]); nothing is inserted then.
    pub fn update(&self, rid: RecordId, new: Tuple) -> Result<bool> {
        let record = self.encode(&new)?;
        let indexes = self.indexes.read();
        let keys = self.key_columns(&indexes);
        // Resolved once: a lookup locks the registry, an increment does not.
        static COUNTERS: OnceLock<[Arc<obs::Counter>; 2]> = OnceLock::new();
        let [in_place, moved] = COUNTERS.get_or_init(|| {
            ["sql.dml.in_place_updates", "sql.dml.moved_updates"].map(|n| obs::global().counter(n))
        });
        let seen = |old: &[u8]| decode_tuple(old, &keys);
        match self.heap.update(rid, &record, seen)? {
            Updated::InPlace(old) => {
                for idx in indexes.iter() {
                    let (was, now) = (old.get(idx.column)?, new.get(idx.column)?);
                    if was != now {
                        if let Value::Int(k) = was {
                            idx.btree.delete(*k, rid)?;
                        }
                        if let Value::Int(k) = now {
                            idx.btree.insert(*k, rid)?;
                        }
                    }
                }
                in_place.inc();
                Ok(true)
            }
            Updated::Gone => Ok(false),
            Updated::NoRoom => {
                drop(indexes);
                if !self.delete(rid)? {
                    return Ok(false);
                }
                self.insert(new)?;
                moved.inc();
                Ok(true)
            }
        }
    }

    /// Scan all rows, every column, in storage order.
    pub fn scan(&self) -> TableScan {
        self.scan_with(&ColumnSet::all(), 1..u32::MAX)
    }

    /// Scan the rows whose heap page lies in `pages`, decoding the columns
    /// in `cols`: each row keeps the schema's arity and a column outside
    /// `cols` reads as NULL. Disjoint page ranges (morsels) partition the
    /// table, and concatenating them in ascending order reproduces storage
    /// order; `1..u32::MAX` is the whole table.
    pub fn scan_with(&self, cols: &ColumnSet, pages: Range<u32>) -> TableScan {
        TableScan(self.rows(self.read_all(cols), pages))
    }

    /// The rows on the heap pages in `pages` as `reader` reads them, a page
    /// at a time: what [`Table::scan_with`] yields row by row for the same
    /// range, less the rows that fail the reader's test.
    pub fn rows(&self, reader: RowReader, pages: Range<u32>) -> RowPages {
        RowPages {
            pages: self.heap.pages(pages.start, pages.end),
            reader,
            rows: Vec::new(),
            len: 0,
            at: 0,
            counts: (0, 0),
            held: None,
            failed: None,
            done: false,
        }
    }

    /// Number of pages in the backing heap file (page 0 is the file
    /// header; data pages are `1..heap_pages()`). The unit a parallel
    /// scan's morsels are carved from.
    pub fn heap_pages(&self) -> u32 {
        self.heap.file_pages()
    }

    /// Commit this table's accumulated unlogged page mutations as one
    /// write-ahead-log transaction: images are logged between Begin/Commit
    /// markers and made durable per the configured sync mode. A no-op for
    /// tables without a WAL (in-memory catalogs) or with nothing pending.
    pub fn commit_durable(&self) -> Result<()> {
        if let Some(b) = &self.wal {
            b.wal.commit_table(&b.file, self.heap.pool())?;
        }
        Ok(())
    }

    /// Make this table fully durable: commit any pending unlogged
    /// mutations to the write-ahead log, then flush dirty pages and sync
    /// the data file to stable storage.
    pub fn flush(&self) -> Result<()> {
        self.commit_durable()?;
        self.flush_data()
    }

    /// Flush dirty *logged* pages and sync the data file, without touching
    /// the WAL. Pages with unlogged (uncommitted) mutations stay cached —
    /// this is the flush half of a checkpoint, which already holds the
    /// log's transaction gate and therefore must not commit here.
    pub(crate) fn flush_data(&self) -> Result<()> {
        self.heap.pool().flush_all()?;
        self.heap.pool().disk().sync()
    }

    /// Buffer-pool statistics (used by the calibration experiment).
    pub fn pool_stats(&self) -> jaguar_storage::buffer::PoolStats {
        self.heap.pool().stats()
    }
}

/// Iterator over the `(RecordId, Tuple)` pairs of a table: [`RowPages`]
/// with each row taken out of its batch, for a caller that keeps them.
pub struct TableScan(RowPages);

impl Iterator for TableScan {
    type Item = Result<(RecordId, Tuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.0.next_row() {
                Ok(Some((rid, tuple))) => return Some(Ok((rid, std::mem::take(tuple)))),
                Ok(None) => {}
                Err(e) => return Some(Err(e)),
            }
            if !self.0.next_page() {
                return None;
            }
        }
    }
}

/// One conjunct a scan judges on a stored record before it builds the row:
/// column `column` compared with `literal` by `op` (`literal op column` if
/// `literal_first`), decided by the executor's own [`compare`]. The column
/// is read where it lies, under its page's shared latch; a `VARCHAR` or
/// `BYTEARRAY` one reads as NULL, and a record without the column fails.
#[derive(Debug, Clone)]
pub struct ScanTest {
    pub column: usize,
    pub op: CmpOp,
    pub literal: Value,
    pub literal_first: bool,
}

/// How a scan or a fetch turns stored records into rows ([`Table::reader`]):
/// which columns it decodes, and the tests a record passes first.
pub struct RowReader {
    cols: ColumnSet,
    tests: Vec<ScanTest>,
}

impl RowReader {
    /// Decode `record` into `out` if it passes every test, in order: one
    /// that is not true rejects it — walked only to the tested columns,
    /// nothing allocated, `out` untouched — and one that fails is its error.
    fn read(&self, record: &[u8], out: &mut Vec<Value>) -> Result<bool> {
        for t in &self.tests {
            let Some(v) = record_column(record, t.column)? else {
                return Ok(false);
            };
            let (l, r) = if t.literal_first {
                (&t.literal, &v)
            } else {
                (&v, &t.literal)
            };
            if compare(t.op, l, r)? != Some(true) {
                return Ok(false);
            }
        }
        decode_tuple_into(record, &self.cols, out)?;
        Ok(true)
    }
}

/// The rows of a range of heap pages, a page at a time ([`Table::rows`]).
///
/// [`RowPages::next_page`] judges every inline record of the next page on
/// its bytes and decodes the survivors, under one shared latch, into a batch
/// of tuples it owns and refills page after page: a rejected row allocates
/// nothing, a surviving one what its `VARCHAR` and `BYTEARRAY` columns take.
/// [`RowPages::next_row`] lends the batch's rows with no latch or pin held,
/// so its caller may run anything — a UDF, a callback into the engine —
/// between two rows. A batch is the page-consistent snapshot [`PageScan`]
/// describes. A spilled row is gathered, judged and decoded as it is lent
/// and dropped as the next one is: at most one is in memory at a time.
pub struct RowPages {
    pages: PageScan,
    reader: RowReader,
    /// The batch: `rows[..len]` are the current page's rows, of which
    /// `rows[..at]` have been lent; the rest are spare tuples. A row whose
    /// bytes are still on their overflow chain says where.
    rows: Vec<(RecordId, Tuple, Option<Spill>)>,
    len: usize,
    at: usize,
    /// Records visited, and records that failed the test, since
    /// [`RowPages::take_counts`].
    counts: (u64, u64),
    /// The spilled row lent last, to be dropped before the next is.
    held: Option<usize>,
    /// What ended the walk of the current page early; raised once the rows
    /// that were batched before it are lent, and it ends the scan.
    failed: Option<JaguarError>,
    done: bool,
}

impl RowPages {
    /// Batch the next page; `false` at the end of the range. What goes
    /// wrong on the way is [`RowPages::next_row`]'s to report.
    pub fn next_page(&mut self) -> bool {
        (self.len, self.at, self.held) = (0, 0, None);
        if self.done {
            return false;
        }
        let (rows, len, reader) = (&mut self.rows, &mut self.len, &self.reader);
        let (counts, failed) = (&mut self.counts, &mut self.failed);
        let walked = self.pages.next_page(|rid, stored| {
            counts.0 += 1;
            // A record that fails is the scan's error only once the rows
            // before it are lent; the ones behind it still count as visited,
            // as they do when a filter above the scan fails on that row.
            if failed.is_some() {
                return Ok(());
            }
            if *len == rows.len() {
                rows.push((rid, Tuple::default(), None));
            }
            let row = &mut rows[*len];
            let kept = match stored {
                Stored::Inline(record) => reader.read(record, row.1.values_mut()),
                Stored::Spilled(spill) => {
                    row.2 = Some(spill);
                    Ok(true)
                }
            };
            match kept {
                Ok(true) => (row.0, *len) = (rid, *len + 1),
                Ok(false) => counts.1 += 1,
                Err(e) => *failed = Some(e),
            }
            Ok(())
        });
        // A page that cannot be fetched or is not what it says fails the
        // same way: after whatever was batched of it.
        let more = walked.unwrap_or_else(|e| {
            self.failed = Some(e);
            true
        });
        self.done = self.failed.is_some();
        more
    }

    /// Lend the current page's next row; `None` when it has no more.
    pub fn next_row(&mut self) -> Result<Option<(RecordId, &mut Tuple)>> {
        if let Some(held) = self.held.take() {
            self.rows[held].1.values_mut().clear();
        }
        while self.at < self.len {
            let at = self.at;
            self.at += 1;
            if let Some(spill) = self.rows[at].2.take() {
                let record = self.pages.heap().gather(spill)?;
                if !(self.reader).read(&record, self.rows[at].1.values_mut())? {
                    self.counts.1 += 1;
                    continue;
                }
                self.held = Some(at);
            }
            let row = &mut self.rows[at];
            return Ok(Some((row.0, &mut row.1)));
        }
        self.failed.take().map_or(Ok(None), Err)
    }

    /// `(visited, rejected)` since the last call: the records the pages
    /// walked held, and how many of them failed the reader's test.
    pub fn take_counts(&mut self) -> (u64, u64) {
        std::mem::take(&mut self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::{DataType, Value};

    fn table() -> Table {
        Table::create_in_memory(
            TableId(1),
            "t",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]),
            &Config::default(),
        )
        .unwrap()
    }

    #[test]
    fn point_get_and_delete() {
        let t = table();
        let rid = t
            .insert(Tuple::new(vec![Value::Int(1), Value::Str("x".into())]))
            .unwrap();
        let all = ColumnSet::all();
        assert_eq!(
            t.get(rid, &all).unwrap().unwrap().values(),
            [Value::Int(1), Value::Str("x".into())]
        );
        assert_eq!(
            t.get(rid, &ColumnSet::of(2, [0]))
                .unwrap()
                .unwrap()
                .values(),
            [Value::Int(1), Value::Null],
            "an unwanted column keeps its place and reads as NULL"
        );
        assert!(t.delete(rid).unwrap());
        assert!(t.get(rid, &all).unwrap().is_none());
        assert!(!t.delete(rid).unwrap(), "already gone: nothing to do");
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn update_keeps_the_rid_and_touches_only_changed_keys() {
        let t = table();
        t.create_index("t_a", "a").unwrap();
        let row = |a: i64, b: &str| Tuple::new(vec![Value::Int(a), Value::Str(b.into())]);
        let index = t.index_on(0).unwrap();
        let rid = t.insert(row(1, "x")).unwrap();
        let filler = t.insert(row(2, &"f".repeat(7_000))).unwrap();
        let all = ColumnSet::all();
        // Same key: rewritten where it lies, the index untouched.
        assert!(t.update(rid, row(1, "y")).unwrap());
        assert_eq!(t.get(rid, &all).unwrap().unwrap(), row(1, "y"));
        assert_eq!(index.btree.range(1, Some(2)).unwrap(), vec![rid]);
        // A new key (and a NULL one): the entry follows the row.
        assert!(t.update(rid, row(5, "y")).unwrap());
        assert!(index.btree.range(1, Some(2)).unwrap().is_empty());
        assert_eq!(index.btree.range(5, Some(6)).unwrap(), vec![rid]);
        assert!(t
            .update(rid, Tuple::new(vec![Value::Null, Value::Null]))
            .unwrap());
        assert_eq!(index.btree.range(i64::MIN, None).unwrap(), vec![filler]);
        // Too wide for its page: deleted and re-inserted under a new id.
        assert!(t.update(rid, row(7, &"w".repeat(2_000))).unwrap());
        assert!(t.get(rid, &all).unwrap().is_none());
        let moved = index.btree.range(7, Some(8)).unwrap();
        assert_eq!(moved.len(), 1);
        assert_eq!(
            t.get(moved[0], &all).unwrap().unwrap(),
            row(7, &"w".repeat(2_000))
        );
        assert_eq!(t.row_count(), 2);
        // Gone, or not of this schema: nothing is written.
        assert!(!t.update(rid, row(9, "late")).unwrap());
        assert!(t.update(filler, Tuple::new(vec![Value::Int(1)])).is_err());
        assert_eq!(t.row_count(), 2);
    }

    /// Rows whose `a` is at least `min`.
    fn at_least(min: i64) -> Vec<ScanTest> {
        vec![ScanTest {
            column: 0,
            op: CmpOp::Ge,
            literal: Value::Int(min),
            literal_first: false,
        }]
    }

    fn row(a: i64, b: &str) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Str(b.into())])
    }

    /// The rows a page lent, as `(a, b)` with NULL as `-1` / `""`, and the
    /// error that ended it, if any.
    type Lent = (Vec<(i64, String)>, Option<String>);

    /// Drain `pages`, page by page.
    fn drain(pages: &mut RowPages) -> Vec<Lent> {
        let mut out = Vec::new();
        while pages.next_page() {
            let (mut rows, mut failed) = (Vec::new(), None);
            loop {
                match pages.next_row() {
                    Ok(Some((_, t))) => rows.push((
                        t.get(0).unwrap().as_float().map_or(-1, |a| a as i64),
                        t.get(1).unwrap().as_str().unwrap_or("").to_string(),
                    )),
                    Ok(None) => break,
                    Err(e) => {
                        failed = Some(e.to_string());
                        break;
                    }
                }
            }
            out.push((rows, failed));
        }
        out
    }

    #[test]
    fn row_pages_judge_on_the_record_and_lend_the_survivors() {
        let t = table();
        let wide = "w".repeat(9_000); // spills
        for (a, b) in [(1, "x"), (5, &wide[..]), (2, "y"), (7, "z"), (9, &wide[..])] {
            t.insert(row(a, b)).unwrap();
        }
        t.insert(Tuple::new(vec![Value::Null, Value::Null]))
            .unwrap();
        let only_b = ColumnSet::of(2, [1]);
        let mut pages = t.rows(t.reader(&only_b, at_least(5)), 1..u32::MAX);
        let lent: Vec<_> = drain(&mut pages).into_iter().flat_map(|p| p.0).collect();
        // In storage order, spilled rows in their place; `a` is read by the
        // test only and is NULL again in a row that passed.
        let expect = [(-1, &wide[..]), (-1, "z"), (-1, &wide[..])];
        assert_eq!(lent.len(), 3);
        for (got, want) in lent.iter().zip(expect) {
            assert_eq!((got.0, got.1.as_str()), want);
        }
        assert_eq!(pages.take_counts(), (6, 3), "six visited, three rejected");
        assert_eq!(pages.take_counts(), (0, 0));
        // Every column, no test: what `scan()` yields.
        let mut all = t.rows(t.read_all(&ColumnSet::all()), 1..u32::MAX);
        let lent: Vec<_> = drain(&mut all).into_iter().flat_map(|p| p.0).collect();
        let scanned: Vec<_> = t.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(lent.len(), scanned.len());
        for (got, want) in lent.iter().zip(&scanned) {
            assert_eq!(got.0, want.get(0).unwrap().as_int().unwrap_or(-1));
        }
    }

    /// A batch is a snapshot of its page as of the walk, and the test's
    /// error on a row is raised after the rows before it were lent.
    #[test]
    fn a_batch_is_page_consistent_and_fails_where_its_row_lies() {
        let schema = Schema::of(&[("a", DataType::Float), ("b", DataType::Str)]);
        let t = Table::create_in_memory(TableId(1), "t", schema, &Config::default()).unwrap();
        let row = |a: f64, b: &str| Tuple::new(vec![Value::Float(a), Value::Str(b.into())]);
        // A NaN has no order: comparing it is the test's error.
        let rids: Vec<_> = [3.0, 4.0, f64::NAN, 6.0]
            .iter()
            .map(|a| t.insert(row(*a, "v")).unwrap())
            .collect();
        let reader = || t.reader(&ColumnSet::all(), at_least(4));
        let mut pages = t.rows(reader(), 1..u32::MAX);
        assert!(pages.next_page());
        // The page is batched and unlatched: what its consumer deletes or
        // inserts now — onto that very page — this batch does not show.
        assert!(t.delete(rids[1]).unwrap());
        assert_eq!(t.insert(row(8.0, "late")).unwrap().page, rids[0].page);
        let (rid, first) = pages.next_row().unwrap().unwrap();
        assert_eq!((rid, first.clone()), (rids[1], row(4.0, "v")));
        let err = pages.next_row().unwrap_err();
        let unlucky = "execution error: cannot compare NaN with 4";
        assert_eq!(err.to_string(), unlucky);
        assert!(pages.next_row().unwrap().is_none());
        assert!(!pages.next_page(), "the error ended the scan");
        // The rows behind the failing one were still counted as visited.
        assert_eq!(pages.take_counts(), (4, 1));
        // A fresh scan sees the page as it is now (the new row took the
        // freed slot), up to the same error.
        let mut fresh = t.rows(reader(), 1..u32::MAX);
        let lent = drain(&mut fresh);
        assert_eq!(lent, [(vec![(8, "late".into())], Some(unlucky.into()))]);
    }

    #[test]
    fn scan_skips_deleted() {
        let t = table();
        let keep = t
            .insert(Tuple::new(vec![Value::Int(1), Value::Null]))
            .unwrap();
        let gone = t
            .insert(Tuple::new(vec![Value::Int(2), Value::Null]))
            .unwrap();
        t.delete(gone).unwrap();
        let rows: Vec<_> = t.scan().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, keep);
    }
}
