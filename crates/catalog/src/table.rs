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
use jaguar_common::stream::{decode_tuple, write_tuple};
use jaguar_common::DataType;
use jaguar_common::{ColumnSet, Tuple, Value};
use jaguar_sec::PageCipher;
use jaguar_storage::heap::Updated;
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
        let mut rows = 0u64;
        for item in heap.scan_range(1, u32::MAX, |_| Ok(())) {
            item?;
            rows += 1;
        }
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
        wal.attach(pool);
        let file = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
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
        self.heap.get_with(rid, |record| decode_tuple(record, cols))
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
        let cols = cols.clone();
        let decode = Box::new(move |record: &[u8]| decode_tuple(record, &cols));
        TableScan {
            inner: self.heap.scan_range(pages.start, pages.end, decode),
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

/// The heap scan's decode function for a table: record bytes → tuple.
type DecodeTuple = Box<dyn FnMut(&[u8]) -> Result<Tuple> + Send>;

/// Iterator over `(RecordId, Tuple)` pairs of a table. Tuples are decoded
/// from their records by the heap scan itself, a page at a time.
pub struct TableScan {
    inner: jaguar_storage::heap::HeapScan<Tuple, DecodeTuple>,
}

impl Iterator for TableScan {
    type Item = Result<(RecordId, Tuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
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
