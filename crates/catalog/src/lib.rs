//! # jaguar-catalog — tables and registered UDFs
//!
//! The catalog is the server's source of truth for what exists: named
//! relations (backed by `jaguar-storage` heap files) and registered UDFs
//! (backed by `jaguar-udf` definitions carrying their execution design).
//!
//! Registering a UDF is the server-side half of the paper's §6.4 loop —
//! the client develops and tests the UDF locally, then ships it here.
//!
//! On-disk catalogs persist a manifest (`catalog.manifest`) recording the
//! table set and schemas, so a database directory survives process
//! restarts. (UDF definitions are code and are re-registered at startup,
//! as in the paper's server.)

pub mod table;
pub mod udfs;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use jaguar_common::config::Config;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::fs::read_existing;
use jaguar_common::ids::TableId;
use jaguar_common::schema::Schema;
use jaguar_sec::{
    generate_data_key, unwrap_data_key, wrap_data_key, JaguarAead, LabelExpr, PageCipher,
};
use jaguar_wal::Wal;
use parking_lot::RwLock;
use std::collections::HashMap;

pub use table::Table;
pub use udfs::UdfCatalog;

/// A parsed security label plus the source text it round-trips through the
/// manifest as.
#[derive(Debug, PartialEq, Eq)]
pub struct LabelSpec {
    pub source: String,
    pub expr: LabelExpr,
}

impl LabelSpec {
    fn parse(source: &str) -> Result<LabelSpec> {
        Ok(LabelSpec {
            source: source.to_string(),
            expr: LabelExpr::parse(source)?,
        })
    }
}

/// Security labels attached to one table: an optional row label (rows are
/// visible to a session only where it holds) and per-column labels
/// (sessions failing one cannot project or reference that column).
#[derive(Default, Clone)]
pub struct TableLabels {
    pub row: Option<Arc<LabelSpec>>,
    /// Keyed by lower-case column name.
    pub columns: HashMap<String, Arc<LabelSpec>>,
}

impl TableLabels {
    fn is_empty(&self) -> bool {
        self.row.is_none() && self.columns.is_empty()
    }
}

/// Magic word opening a versioned `catalog.manifest` ("JGMF"). The
/// pre-versioning manifest began directly with the table count — a small
/// integer that can never collide with this value, so legacy directories
/// are detected instead of misparsed.
const MANIFEST_MAGIC: u32 = 0x4A47_4D46;

/// Where table heap files live.
enum Storage {
    /// Each table gets an in-memory disk manager (tests, benches — the
    /// paper likewise subtracts I/O via its Figure 4 calibration).
    Memory,
    /// Each table gets a file under this directory.
    Directory(PathBuf),
}

/// The database catalog: tables + UDFs.
pub struct Catalog {
    config: Config,
    storage: Storage,
    next_table_id: AtomicU32,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    udfs: UdfCatalog,
    /// Write-ahead log shared by every on-disk table (None in memory).
    wal: Option<Arc<Wal>>,
    /// Page cipher shared by every table file and the WAL (None =
    /// plaintext database).
    cipher: Option<Arc<dyn PageCipher>>,
    /// The data key wrapped under the configured master key, persisted in
    /// the manifest so reopening can unwrap it.
    wrapped_key: Option<Vec<u8>>,
    /// Security labels by lower-case table name.
    labels: RwLock<HashMap<String, TableLabels>>,
}

impl Catalog {
    /// A catalog whose tables live in memory.
    pub fn in_memory(config: Config) -> Catalog {
        Catalog {
            config,
            storage: Storage::Memory,
            next_table_id: AtomicU32::new(1),
            tables: RwLock::new(HashMap::new()),
            udfs: UdfCatalog::new(),
            wal: None,
            cipher: None,
            wrapped_key: None,
            labels: RwLock::new(HashMap::new()),
        }
    }

    /// A catalog whose tables are files under `dir` (created if absent).
    ///
    /// Opening runs crash recovery first: committed transactions still in
    /// the write-ahead log are replayed into the data files (ARIES-lite
    /// redo) before any table is opened, so the manifest recovery below
    /// always sees fully recovered files. Then all tables recorded in the
    /// manifest are reopened with their schemas and data.
    pub fn on_disk(dir: impl Into<PathBuf>, config: Config) -> Result<Catalog> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Refuse incompatible layouts before WAL replay runs, so recovery
        // never writes current-format pages into old-format data files.
        Self::check_format(&dir)?;
        // Resolve the encryption key *before* WAL replay: a wrong master
        // key must fail here, cleanly, with zero pages replayed — never
        // partway through recovery.
        let (cipher, wrapped_key, key_is_fresh) = Self::resolve_key(&dir, &config)?;
        let (wal, _stats) = Wal::open_with_cipher(&dir, &config, cipher.clone())?;
        let cat = Catalog {
            config,
            storage: Storage::Directory(dir.clone()),
            next_table_id: AtomicU32::new(1),
            tables: RwLock::new(HashMap::new()),
            udfs: UdfCatalog::new(),
            wal: Some(wal),
            cipher,
            wrapped_key,
            labels: RwLock::new(HashMap::new()),
        };
        cat.recover(&dir)?;
        if key_is_fresh {
            // Persist the wrapped data key immediately so a database that
            // crashes before its first CREATE TABLE still reopens under
            // the same key.
            cat.persist_manifest()?;
        }
        Ok(cat)
    }

    /// Envelope-key resolution (see `jaguar_sec::crypto`): match the
    /// configured master key against the wrapped data key persisted in the
    /// manifest. Returns (cipher, wrapped blob to persist, blob-is-new).
    #[allow(clippy::type_complexity)]
    fn resolve_key(
        dir: &std::path::Path,
        config: &Config,
    ) -> Result<(Option<Arc<dyn PageCipher>>, Option<Vec<u8>>, bool)> {
        let persisted = Self::read_wrapped_key(dir)?;
        let manifest_exists = Self::manifest_path(dir).is_file();
        match (&config.encryption_key, persisted) {
            (None, None) => Ok((None, None, false)),
            (None, Some(_)) => Err(JaguarError::SecurityViolation(
                "database is encrypted; opening it requires the encryption_key \
                 it was created with"
                    .into(),
            )),
            (Some(_), None) if manifest_exists => Err(JaguarError::SecurityViolation(
                "database was created without encryption; an encryption_key \
                 cannot be added after the fact (recreate and import)"
                    .into(),
            )),
            (Some(master), None) => {
                let data_key = generate_data_key();
                Ok((
                    Some(Arc::new(JaguarAead::new(data_key)) as Arc<dyn PageCipher>),
                    Some(wrap_data_key(master, &data_key)),
                    true,
                ))
            }
            (Some(master), Some(blob)) => {
                let data_key = unwrap_data_key(master, &blob)?;
                Ok((
                    Some(Arc::new(JaguarAead::new(data_key)) as Arc<dyn PageCipher>),
                    Some(blob),
                    false,
                ))
            }
        }
    }

    /// Read the wrapped data-key blob out of the manifest (`None` when the
    /// manifest is missing or the database is unencrypted). Assumes
    /// `check_format` already validated the header.
    fn read_wrapped_key(dir: &std::path::Path) -> Result<Option<Vec<u8>>> {
        use jaguar_common::stream::{read_blob, read_u32};
        let Some(raw) = read_existing(&Self::manifest_path(dir))? else {
            return Ok(None);
        };
        let mut r = raw.as_slice();
        let _magic = read_u32(&mut r)?;
        let _version = read_u32(&mut r)?;
        let blob = read_blob(&mut r)?;
        Ok((!blob.is_empty()).then_some(blob))
    }

    fn manifest_path(dir: &std::path::Path) -> PathBuf {
        dir.join("catalog.manifest")
    }

    /// Validate the manifest's format header. A missing manifest (fresh
    /// directory) passes; a manifest without the magic word (written before
    /// the layout was versioned, i.e. under the 12-byte page header) or
    /// with a different version is a clean incompatibility error rather
    /// than 8-bytes-shifted reads of every slotted page.
    fn check_format(dir: &std::path::Path) -> Result<()> {
        use jaguar_common::stream::read_u32;
        let Some(raw) = read_existing(&Self::manifest_path(dir))? else {
            return Ok(());
        };
        let mut r = raw.as_slice();
        if read_u32(&mut r)? != MANIFEST_MAGIC {
            return Err(JaguarError::Corruption(
                "database directory uses an unversioned (pre-v2) on-disk \
                 layout, which this build cannot open; recreate the \
                 database or export/import its data"
                    .into(),
            ));
        }
        let version = read_u32(&mut r)?;
        let supported = jaguar_storage::ON_DISK_FORMAT_VERSION;
        if version != supported {
            let hint = if version < supported {
                "upgrade path: export the data with a build supporting \
                 the old version, then import it here"
            } else {
                "this database was written by a newer build; open it with \
                 that build, or export there and import here"
            };
            return Err(JaguarError::Corruption(format!(
                "database on-disk format v{version} is not supported by \
                 this build, which reads only v{supported}; {hint}"
            )));
        }
        Ok(())
    }

    /// Rewrite the manifest to match the current table set.
    fn persist_manifest(&self) -> Result<()> {
        let Storage::Directory(dir) = &self.storage else {
            return Ok(());
        };
        use jaguar_common::stream::{write_blob, write_schema, write_str, write_u32};
        let tables = self.tables.read();
        let labels = self.labels.read();
        let mut buf = Vec::new();
        write_u32(&mut buf, MANIFEST_MAGIC)?;
        write_u32(&mut buf, jaguar_storage::ON_DISK_FORMAT_VERSION)?;
        // v3: wrapped data key (empty blob = unencrypted database).
        write_blob(&mut buf, self.wrapped_key.as_deref().unwrap_or(&[]))?;
        write_u32(&mut buf, tables.len() as u32)?;
        // Sorted for deterministic files.
        let mut entries: Vec<_> = tables.values().collect();
        entries.sort_by_key(|t| t.name().to_string());
        for t in entries {
            write_str(&mut buf, t.name())?;
            write_schema(&mut buf, t.schema())?;
            // v3: security labels (source text; reparsed on recovery).
            let tl = labels.get(&t.name().to_ascii_lowercase());
            let row = tl.and_then(|l| l.row.as_ref());
            write_str(&mut buf, row.map(|l| l.source.as_str()).unwrap_or(""))?;
            let mut cols: Vec<_> = tl
                .map(|l| l.columns.iter().collect::<Vec<_>>())
                .unwrap_or_default();
            cols.sort_by_key(|(name, _)| name.to_string());
            write_u32(&mut buf, cols.len() as u32)?;
            for (name, spec) in cols {
                write_str(&mut buf, name)?;
                write_str(&mut buf, &spec.source)?;
            }
        }
        let tmp = Self::manifest_path(dir).with_extension("manifest.tmp");
        std::fs::write(&tmp, &buf)?;
        std::fs::rename(&tmp, Self::manifest_path(dir))?;
        Ok(())
    }

    /// Reopen every table recorded in the manifest.
    fn recover(&self, dir: &std::path::Path) -> Result<()> {
        use jaguar_common::stream::{read_blob, read_schema, read_str, read_u32};
        let path = Self::manifest_path(dir);
        let Some(raw) = read_existing(&path)? else {
            return Ok(()); // fresh directory
        };
        let mut r = raw.as_slice();
        // Format header already validated by check_format() in on_disk().
        let _magic = read_u32(&mut r)?;
        let _version = read_u32(&mut r)?;
        let _wrapped_key = read_blob(&mut r)?;
        let n = read_u32(&mut r)?;
        let mut tables = self.tables.write();
        let mut labels = self.labels.write();
        for _ in 0..n {
            let name = read_str(&mut r)?;
            let schema = read_schema(&mut r)?;
            let key = name.to_ascii_lowercase();
            let file = dir.join(format!("{key}.jag"));
            let id = TableId(self.next_table_id.fetch_add(1, Ordering::Relaxed));
            let table = Table::open_at(
                id,
                &name,
                schema,
                &file,
                &self.config,
                self.wal.as_ref(),
                self.cipher.clone(),
            )?;
            tables.insert(key.clone(), Arc::new(table));
            let mut tl = TableLabels::default();
            let row_src = read_str(&mut r)?;
            if !row_src.is_empty() {
                tl.row = Some(Arc::new(LabelSpec::parse(&row_src)?));
            }
            let cols = read_u32(&mut r)?;
            for _ in 0..cols {
                let col = read_str(&mut r)?;
                let src = read_str(&mut r)?;
                tl.columns.insert(col, Arc::new(LabelSpec::parse(&src)?));
            }
            if !tl.is_empty() {
                labels.insert(key, tl);
            }
        }
        Ok(())
    }

    pub fn config(&self) -> &Config {
        &self.config
    }

    pub fn udfs(&self) -> &UdfCatalog {
        &self.udfs
    }

    /// Create a table. Names are case-insensitive and must be unique.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(JaguarError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        let id = TableId(self.next_table_id.fetch_add(1, Ordering::Relaxed));
        let table = match &self.storage {
            Storage::Memory => Table::create_in_memory(id, name, schema, &self.config)?,
            Storage::Directory(dir) => {
                let path = dir.join(format!("{key}.jag"));
                Table::create_at(
                    id,
                    name,
                    schema,
                    &path,
                    &self.config,
                    self.wal.as_ref(),
                    self.cipher.clone(),
                )?
            }
        };
        let table = Arc::new(table);
        tables.insert(key, Arc::clone(&table));
        drop(tables);
        self.persist_manifest()?;
        Ok(table)
    }

    /// Look up a table by name (case-insensitive).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| JaguarError::Catalog(format!("unknown table '{name}'")))
    }

    /// Drop a table (and, on disk, its file).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let removed = self.tables.write().remove(&key);
        match removed {
            None => Err(JaguarError::Catalog(format!("unknown table '{name}'"))),
            Some(_) => {
                self.labels.write().remove(&key);
                if let Storage::Directory(dir) = &self.storage {
                    let _ = std::fs::remove_file(dir.join(format!("{key}.jag")));
                }
                self.persist_manifest()?;
                // Clear any page images for the dropped file from the log;
                // otherwise recovery would resurrect the file.
                self.checkpoint()
            }
        }
    }

    /// Flush every table's dirty pages to the backing store.
    pub fn flush_all(&self) -> Result<()> {
        for t in self.tables.read().values() {
            t.flush()?;
        }
        Ok(())
    }

    /// Checkpoint: make the log durable, flush and sync every data file,
    /// then truncate the log. On catalogs without a WAL this degrades to a
    /// plain flush.
    pub fn checkpoint(&self) -> Result<()> {
        match &self.wal {
            Some(wal) => {
                // Commit pending mutations *before* taking the log's
                // exclusive gate (committing inside would self-deadlock).
                for t in self.tables.read().values() {
                    t.commit_durable()?;
                }
                wal.checkpoint(|| {
                    for t in self.tables.read().values() {
                        t.flush_data()?;
                    }
                    Ok(())
                })
            }
            None => self.flush_all(),
        }
    }

    /// Checkpoint only if the log has outgrown the configured thresholds
    /// (`wal_segment_bytes` / `checkpoint_every`). The SQL engine calls
    /// this after every DML statement.
    pub fn maybe_checkpoint(&self) -> Result<()> {
        if let Some(wal) = &self.wal {
            if wal.should_checkpoint() {
                return self.checkpoint();
            }
        }
        Ok(())
    }

    /// Attach (or clear, with `None`) the row security label of a table.
    /// Every row column the label references must exist in the table's
    /// schema; session attributes are free-form. Persisted in the manifest.
    pub fn set_table_label(&self, table: &str, label: Option<&str>) -> Result<()> {
        let t = self.table(table)?;
        let key = table.to_ascii_lowercase();
        let spec = match label {
            None => None,
            Some(src) => {
                let spec = LabelSpec::parse(src)?;
                for col in spec.expr.columns() {
                    if t.schema().index_of(&col).is_none() {
                        return Err(JaguarError::Catalog(format!(
                            "label references column '{col}', which table \
                             '{table}' does not have"
                        )));
                    }
                }
                Some(Arc::new(spec))
            }
        };
        let mut labels = self.labels.write();
        let tl = labels.entry(key.clone()).or_default();
        tl.row = spec;
        if tl.is_empty() {
            labels.remove(&key);
        }
        drop(labels);
        self.persist_manifest()
    }

    /// Attach (or clear) the security label of one column. Column labels
    /// decide *visibility* of the column per session, so they may reference
    /// only session attributes, never row columns.
    pub fn set_column_label(&self, table: &str, column: &str, label: Option<&str>) -> Result<()> {
        let t = self.table(table)?;
        let key = table.to_ascii_lowercase();
        let col = column.to_ascii_lowercase();
        if t.schema().index_of(&col).is_none() {
            return Err(JaguarError::Catalog(format!(
                "table '{table}' has no column '{column}'"
            )));
        }
        let spec = match label {
            None => None,
            Some(src) => {
                let spec = LabelSpec::parse(src)?;
                let cols = spec.expr.columns();
                if !cols.is_empty() {
                    return Err(JaguarError::Catalog(format!(
                        "column labels may reference only session attributes; \
                         '{}' is a row column (did you mean session.{}?)",
                        cols[0], cols[0]
                    )));
                }
                Some(Arc::new(spec))
            }
        };
        let mut labels = self.labels.write();
        let tl = labels.entry(key.clone()).or_default();
        match spec {
            Some(s) => {
                tl.columns.insert(col, s);
            }
            None => {
                tl.columns.remove(&col);
            }
        }
        if tl.is_empty() {
            labels.remove(&key);
        }
        drop(labels);
        self.persist_manifest()
    }

    /// The security labels of a table (empty when unlabeled).
    pub fn table_labels(&self, table: &str) -> TableLabels {
        self.labels
            .read()
            .get(&table.to_ascii_lowercase())
            .cloned()
            .unwrap_or_default()
    }

    /// Whether any table carries a label (fast path: planners skip the
    /// authorizer entirely on unlabeled databases for system sessions).
    pub fn has_labels(&self) -> bool {
        !self.labels.read().is_empty()
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self
            .tables
            .read()
            .values()
            .map(|t| t.name().to_string())
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::value::DataType;
    use jaguar_common::{Tuple, Value};

    fn schema() -> Schema {
        Schema::of(&[("id", DataType::Int), ("payload", DataType::Bytes)])
    }

    #[test]
    fn create_lookup_drop() {
        let cat = Catalog::in_memory(Config::default());
        cat.create_table("T", schema()).unwrap();
        assert!(cat.table("t").is_ok(), "lookup is case-insensitive");
        assert!(cat.create_table("t", schema()).is_err(), "dup rejected");
        assert_eq!(cat.table_names(), vec!["T".to_string()]);
        cat.drop_table("T").unwrap();
        assert!(cat.table("T").is_err());
        assert!(cat.drop_table("T").is_err());
    }

    #[test]
    fn insert_and_scan_roundtrip() {
        let cat = Catalog::in_memory(Config::default());
        let t = cat.create_table("r", schema()).unwrap();
        for i in 0..50 {
            t.insert(Tuple::new(vec![
                Value::Int(i),
                Value::Bytes(jaguar_common::ByteArray::patterned(64, i as u64)),
            ]))
            .unwrap();
        }
        assert_eq!(t.row_count(), 50);
        let rows: Vec<_> = t.scan().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(rows.len(), 50);
        let mut ids: Vec<i64> = rows
            .iter()
            .map(|(_, tup)| tup.get(0).unwrap().as_int().unwrap())
            .collect();
        ids.sort();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn schema_enforced_on_insert() {
        let cat = Catalog::in_memory(Config::default());
        let t = cat.create_table("r", schema()).unwrap();
        let err = t
            .insert(Tuple::new(vec![Value::Str("no".into()), Value::Null]))
            .unwrap_err();
        assert!(err.to_string().contains("expects INT"), "{err}");
        assert!(t.insert(Tuple::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn on_disk_catalog_persists_within_process() {
        let dir = std::env::temp_dir().join(format!("jaguar-cat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cat = Catalog::on_disk(&dir, Config::default()).unwrap();
        let t = cat.create_table("d", schema()).unwrap();
        t.insert(Tuple::new(vec![Value::Int(9), Value::Null]))
            .unwrap();
        t.flush().unwrap();
        assert!(dir.join("d.jag").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn on_disk_catalog_recovers_after_restart() {
        let dir = std::env::temp_dir().join(format!("jaguar-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cat = Catalog::on_disk(&dir, Config::default()).unwrap();
            let t = cat.create_table("events", schema()).unwrap();
            for i in 0..25 {
                t.insert(Tuple::new(vec![
                    Value::Int(i),
                    Value::Bytes(jaguar_common::ByteArray::patterned(100, i as u64)),
                ]))
                .unwrap();
            }
            cat.create_table("other", schema()).unwrap();
            cat.drop_table("other").unwrap();
            cat.flush_all().unwrap();
        }
        // "Restart": a fresh catalog over the same directory.
        let cat = Catalog::on_disk(&dir, Config::default()).unwrap();
        assert_eq!(cat.table_names(), vec!["events".to_string()]);
        let t = cat.table("events").unwrap();
        assert_eq!(t.row_count(), 25);
        assert_eq!(t.schema().len(), 2);
        let rows: Vec<_> = t.scan().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(rows.len(), 25);
        assert_eq!(
            rows[7].1.get(1).unwrap(),
            &Value::Bytes(jaguar_common::ByteArray::patterned(
                100,
                rows[7].1.get(0).unwrap().as_int().unwrap() as u64
            ))
        );
        // The recovered catalog stays writable.
        t.insert(Tuple::new(vec![Value::Int(99), Value::Null]))
            .unwrap();
        assert_eq!(t.row_count(), 26);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unversioned_layout_rejected_cleanly() {
        let dir = std::env::temp_dir().join(format!("jaguar-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A pre-versioning manifest began with the table count (here: 0).
        std::fs::write(dir.join("catalog.manifest"), 0u32.to_le_bytes()).unwrap();
        let err = Catalog::on_disk(&dir, Config::default()).err().unwrap();
        assert!(err.to_string().contains("unversioned"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_format_version_rejected_cleanly() {
        // v3 (FNV-1a page checksums: every page would fail verification)
        // and v4 (a log of full images only, read by a build that would
        // take a delta for a torn tail) are refused at the door like any
        // other foreign version.
        for version in [3u32, 4, 99] {
            let dir = std::env::temp_dir()
                .join(format!("jaguar-foreignfmt{version}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut manifest = Vec::new();
            manifest.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
            manifest.extend_from_slice(&version.to_le_bytes());
            manifest.extend_from_slice(&0u32.to_le_bytes());
            std::fs::write(dir.join("catalog.manifest"), manifest).unwrap();
            let err = Catalog::on_disk(&dir, Config::default()).err().unwrap();
            assert!(
                err.to_string().contains(&format!("format v{version}")),
                "{err}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn manifest_carries_format_version() {
        let dir = std::env::temp_dir().join(format!("jaguar-fmtver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cat = Catalog::on_disk(&dir, Config::default()).unwrap();
            cat.create_table("v", schema()).unwrap();
        }
        let raw = std::fs::read(dir.join("catalog.manifest")).unwrap();
        assert_eq!(&raw[0..4], &MANIFEST_MAGIC.to_le_bytes());
        assert_eq!(
            &raw[4..8],
            &jaguar_storage::ON_DISK_FORMAT_VERSION.to_le_bytes()
        );
        // And a versioned directory reopens fine.
        let cat = Catalog::on_disk(&dir, Config::default()).unwrap();
        assert_eq!(cat.table_names(), vec!["v".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn labels_validate_and_persist_across_restart() {
        let dir = std::env::temp_dir().join(format!("jaguar-labels-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cat = Catalog::on_disk(&dir, Config::default()).unwrap();
            cat.create_table("t", schema()).unwrap();
            // Unknown column in a row label is rejected.
            let err = cat.set_table_label("t", Some("missing = 1")).unwrap_err();
            assert!(err.to_string().contains("does not have"), "{err}");
            // Row column in a column label is rejected.
            let err = cat
                .set_column_label("t", "payload", Some("id = 1"))
                .unwrap_err();
            assert!(err.to_string().contains("session attributes"), "{err}");
            cat.set_table_label("t", Some("id = session.tenant"))
                .unwrap();
            cat.set_column_label("t", "payload", Some("session.role = 'admin'"))
                .unwrap();
        }
        let cat = Catalog::on_disk(&dir, Config::default()).unwrap();
        let labels = cat.table_labels("t");
        assert_eq!(labels.row.as_ref().unwrap().source, "id = session.tenant");
        assert_eq!(
            labels.columns.get("payload").unwrap().source,
            "session.role = 'admin'"
        );
        assert!(cat.has_labels());
        // Clearing both removes the entry entirely.
        cat.set_table_label("t", None).unwrap();
        cat.set_column_label("t", "payload", None).unwrap();
        assert!(!cat.has_labels());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encrypted_catalog_reopens_and_rejects_wrong_key() {
        let dir = std::env::temp_dir().join(format!("jaguar-enccat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || Config::default().with_encryption_key("s3cret");
        {
            let cat = Catalog::on_disk(&dir, cfg()).unwrap();
            let t = cat.create_table("e", schema()).unwrap();
            t.insert(Tuple::new(vec![Value::Int(5), Value::Null]))
                .unwrap();
            cat.checkpoint().unwrap();
        }
        // Same key: data comes back.
        {
            let cat = Catalog::on_disk(&dir, cfg()).unwrap();
            assert_eq!(cat.table("e").unwrap().row_count(), 1);
        }
        // Wrong key fails at key-unwrap, before any page is touched.
        let err = Catalog::on_disk(&dir, Config::default().with_encryption_key("nope"))
            .err()
            .unwrap();
        assert!(err.to_string().contains("does not match"), "{err}");
        // No key at all names the requirement.
        let err = Catalog::on_disk(&dir, Config::default()).err().unwrap();
        assert!(err.to_string().contains("encryption_key"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encryption_cannot_be_added_to_plain_database() {
        let dir = std::env::temp_dir().join(format!("jaguar-encadd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cat = Catalog::on_disk(&dir, Config::default()).unwrap();
            cat.create_table("p", schema()).unwrap();
        }
        let err = Catalog::on_disk(&dir, Config::default().with_encryption_key("late"))
            .err()
            .unwrap();
        assert!(err.to_string().contains("without encryption"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_tuples_spill_transparently() {
        let cat = Catalog::in_memory(Config::default().with_page_size(4096));
        let t = cat.create_table("big", schema()).unwrap();
        let blob = jaguar_common::ByteArray::patterned(10_000, 7);
        t.insert(Tuple::new(vec![Value::Int(1), Value::Bytes(blob.clone())]))
            .unwrap();
        let rows: Vec<_> = t.scan().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(rows[0].1.get(1).unwrap(), &Value::Bytes(blob));
    }
}
