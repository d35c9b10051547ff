//! The four workloads: what each loads, which configuration it overrides,
//! and the statement stream each client sends.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jaguar_core::{
    ByteArray, Client, ClientOptions, Config, DataType, Database, JaguarError, ResourceLimits,
    Result, Server, SyncMode, Tuple, UdfDef, UdfDesign, UdfSignature, Value, Volatility,
};
use jaguar_udf::generic::{self, GenericParams, IdentityCallbacks};

use crate::gen::{self, AcctRow, Kind, OltpStream, RowSet, ScanStream, Sizes, Stmt, WideModel};

/// Closed-loop clients per workload: one. The heavy statements leave the
/// second core to the engine's own `dop`. `oltp_mix` was specified with
/// two, and its generator partitions keys for any number, but measured on
/// the two-core reference host two clients completed *fewer* statements
/// per second than one (≈570 against ≈660) with three to four times the
/// run-to-run spread (12–18 % against 3–5 %): a commit logs every page
/// either session touched, and whether a read meets a busy or an idle
/// second core flips its latency between two modes. One client measures
/// the per-statement cost the workload is about; it does not measure
/// contention between sessions.
pub const CLIENTS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UdfSandbox,
    UdfIsolated,
    ScanAgg,
    OltpMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UdfSandbox,
        Workload::UdfIsolated,
        Workload::ScanAgg,
        Workload::OltpMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UdfSandbox => "udf_sandbox",
            Workload::UdfIsolated => "udf_isolated",
            Workload::ScanAgg => "scan_agg",
            Workload::OltpMix => "oltp_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `Config::default()` except what the workload states.
    pub fn config(self) -> Config {
        match self {
            Workload::UdfSandbox | Workload::ScanAgg => Config::default(),
            Workload::UdfIsolated => Config {
                pooled_executors: true,
                pool_size: 2,
                ..Config::default()
            },
            // Stated flush policy: commits reach the WAL file but are not
            // fsynced, so the engine's WAL path is measured and not the
            // sandbox's fsync.
            Workload::OltpMix => Config {
                sync_mode: SyncMode::Normal,
                ..Config::default()
            },
        }
    }

    /// Generic-UDF knobs `(indep, dep, callbacks)` of the two UDF workloads:
    /// real work under Design 3 (Fig 6/7 shape), none under Design 4
    /// (Fig 5 shape: the crossing is all there is).
    pub fn udf_params(self) -> Option<GenericParams> {
        let (data_indep_comps, data_dep_comps) = match self {
            Workload::UdfSandbox => (200, 2),
            Workload::UdfIsolated => (0, 0),
            _ => return None,
        };
        Some(GenericParams {
            data_indep_comps,
            data_dep_comps,
            callbacks: 0,
        })
    }

    /// The table every statement of the workload reads.
    pub fn table(self) -> &'static str {
        match self {
            Workload::UdfSandbox | Workload::UdfIsolated => "rel100",
            Workload::ScanAgg => "wide",
            Workload::OltpMix => "acct",
        }
    }
}

/// Resource limits of the sandboxed designs, from the defaults a user gets.
pub fn default_limits() -> ResourceLimits {
    let c = Config::default();
    ResourceLimits {
        fuel: c.default_fuel,
        memory: c.default_vm_memory,
        max_call_depth: c.max_call_depth,
    }
}

/// The generic UDF under the workload's design, named `udf` as the query
/// calls it. Building it compiles and verifies the JagScript source.
pub fn generic_def(workload: Workload) -> UdfDef {
    let mut def = match workload {
        Workload::UdfIsolated => generic::def_isolated_vm(true, default_limits()),
        _ => generic::def_vm(true, default_limits()),
    };
    def.name = "udf".into();
    def
}

/// The two UDFs of `oltp_mix`'s range read, both straight-line JagScript
/// declared immutable. `lb` is the loadtest's; its bytes parameter keeps
/// the optimizer from inlining it, so it is memoized instead. `tier` is
/// integer-only and is inlined (Froid's case): it never enters a sandbox.
const LB_SOURCE: &str = "fn main(b: bytes) -> i64 { return b[0]; }";
const TIER_SOURCE: &str = "fn main(bal: i64) -> i64 { return bal / 1000 + 1; }";

/// One client's statement source.
pub enum Stream {
    /// The same statement every time (the UDF workloads).
    Fixed(Stmt),
    Scan(ScanStream),
    Oltp(OltpStream),
}

impl Stream {
    pub fn next_stmt(&mut self) -> Stmt {
        match self {
            Stream::Fixed(stmt) => stmt.clone(),
            Stream::Scan(s) => s.next_stmt(),
            Stream::Oltp(s) => s.next_stmt(),
        }
    }

    /// The next read-only statement whose result does not depend on what
    /// the stream wrote before (the ladder replays these anywhere).
    pub fn next_read(&mut self) -> Stmt {
        match self {
            Stream::Oltp(s) => s.next_stable_read(),
            other => other.next_stmt(),
        }
    }
}

/// A loaded, serving database with its connected clients: everything
/// `setup_s` pays for.
pub struct Env {
    pub workload: Workload,
    pub db: Database,
    pub server: Server,
    /// One connected client and its stream per closed-loop client.
    pub clients: Vec<(Client, Stream)>,
    /// Argument byte arrays of `rel100` (empty for the non-UDF workloads).
    pub rel: Vec<Vec<u8>>,
    /// Rows loaded into the workload's table.
    pub rows_loaded: usize,
    /// Compile + verify time of the UDF source, inside set-up.
    pub lang_compile: Duration,
    dir: Option<PathBuf>,
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Where on-disk databases and worker scratch go: beside the executable,
/// which is inside the build directory — inside the checkout and ignored
/// by git.
pub fn data_root() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    exe.parent()
        .expect("executable has a directory")
        .join("jagbench-data")
        .join(format!("pid-{}", std::process::id()))
}

fn fresh_dir() -> Result<PathBuf> {
    let dir = data_root().join(format!("db-{}", NEXT_DIR.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn other(msg: impl Into<String>) -> JaguarError {
    JaguarError::Other(msg.into())
}

/// Rows between `commit_durable` calls while bulk-loading an on-disk
/// table: unlogged dirty pages cannot be evicted, so a load must commit
/// well before it has dirtied a buffer pool's worth of pages.
const LOAD_COMMIT_ROWS: usize = 5_000;

fn load<T>(
    db: &Database,
    table: &str,
    rows: impl Iterator<Item = T>,
    mut to_tuple: impl FnMut(usize, T) -> Tuple,
) -> Result<usize> {
    let table = db.catalog().table(table)?;
    let mut loaded = 0;
    for (id, row) in rows.enumerate() {
        table.insert(to_tuple(id, row))?;
        loaded += 1;
        if loaded % LOAD_COMMIT_ROWS == 0 {
            table.commit_durable()?;
        }
    }
    table.commit_durable()?;
    Ok(loaded)
}

fn bytes(data: &[u8]) -> Value {
    Value::Bytes(ByteArray::new(data.to_vec()))
}

/// What the generic UDF must return for each tuple of `rel100`:
/// `generic_native` applied by the harness to every generated byte array.
pub fn udf_results(rel: &[Vec<u8>], params: GenericParams) -> Result<Vec<i64>> {
    rel.iter()
        .map(|data| {
            let args = params.args(ByteArray::new(data.clone()));
            generic::generic_native(&args, &mut IdentityCallbacks)?.as_int()
        })
        .collect()
}

impl Env {
    /// Create or open the database, load and index its relation, compile
    /// and register the UDF, start the server, warm the worker pool and
    /// connect the clients.
    pub fn setup(workload: Workload, seed: u64, sizes: Sizes) -> Result<Env> {
        // Only `oltp_mix` is on disk. `scan_agg` was meant to be, but at this
        // commit a SELECT over an on-disk table larger than the buffer pool
        // fails ("buffer pool exhausted"): a heap scan takes each page's write
        // latch, which marks the page as holding unlogged changes, and such
        // pages cannot be evicted until a commit that a SELECT never makes.
        // An in-memory table has the same 8 MiB pool in front of a 24 MB
        // page store, so misses and evictions are the same; only the file
        // read behind a miss is absent.
        let on_disk = workload == Workload::OltpMix;
        Env::setup_with(workload, workload.config(), on_disk, seed, sizes)
    }

    /// [`Env::setup`] under an explicit configuration and storage — the
    /// ladder's `dop = 1` and in-memory twins.
    pub fn setup_with(
        workload: Workload,
        config: Config,
        on_disk: bool,
        seed: u64,
        sizes: Sizes,
    ) -> Result<Env> {
        let dir = if on_disk { Some(fresh_dir()?) } else { None };
        let db = match &dir {
            Some(dir) => Database::open(dir, config.clone())?,
            None => Database::with_config(config.clone()),
        };
        let mut rel = Vec::new();
        let mut lang_compile = Duration::ZERO;
        let rows_loaded;
        let streams: Vec<Stream> = match workload {
            Workload::UdfSandbox | Workload::UdfIsolated => {
                let params = workload.udf_params().expect("a UDF workload");
                db.execute("CREATE TABLE rel100 (id INT, bytearray BYTEARRAY)")?;
                rel = gen::rel100(seed, sizes.rel_rows);
                rows_loaded = load(&db, "rel100", rel.iter(), |id, data| {
                    Tuple::new(vec![Value::Int(id as i64), bytes(data)])
                })?;
                let t0 = Instant::now();
                let def = generic_def(workload);
                lang_compile = t0.elapsed();
                db.register_udf(def);
                let stmt = Stmt {
                    sql: gen::udf_query(
                        sizes.rel_rows,
                        params.data_indep_comps,
                        params.data_dep_comps,
                        params.callbacks,
                    ),
                    kind: Kind::Read,
                    expect: {
                        let mut rows = RowSet::default();
                        for v in udf_results(&rel, params)? {
                            rows.push([v]);
                        }
                        rows.expect()
                    },
                };
                vec![Stream::Fixed(stmt)]
            }
            Workload::ScanAgg => {
                db.execute("CREATE TABLE wide (id INT, grp INT, v INT, pad BYTEARRAY)")?;
                let mut model = WideModel::default();
                rows_loaded = load(
                    &db,
                    "wide",
                    gen::wide_rows(seed, sizes.wide_rows),
                    |id, row| {
                        model.add(&row);
                        Tuple::new(vec![
                            Value::Int(id as i64),
                            Value::Int(row.grp),
                            Value::Int(row.v),
                            bytes(&row.pad),
                        ])
                    },
                )?;
                vec![Stream::Scan(ScanStream::new(seed, Arc::new(model)))]
            }
            Workload::OltpMix => {
                db.execute("CREATE TABLE acct (id INT, bal INT, tag BYTEARRAY)")?;
                let acct: Arc<Vec<AcctRow>> = Arc::new(gen::acct_rows(seed, sizes.acct_rows));
                rows_loaded = load(&db, "acct", acct.iter(), |id, row| {
                    Tuple::new(vec![
                        Value::Int(id as i64),
                        Value::Int(row.bal),
                        bytes(&row.tag),
                    ])
                })?;
                db.execute("CREATE INDEX acct_id ON acct (id)")?;
                let t0 = Instant::now();
                for (name, param, source) in [
                    ("lb", DataType::Bytes, LB_SOURCE),
                    ("tier", DataType::Int, TIER_SOURCE),
                ] {
                    db.register_jagscript_udf_with_volatility(
                        name,
                        UdfSignature::new(vec![param], DataType::Int),
                        source,
                        UdfDesign::Sandboxed,
                        Volatility::Immutable,
                    )?;
                }
                lang_compile = t0.elapsed();
                (0..CLIENTS)
                    .map(|c| Stream::Oltp(OltpStream::new(seed, c, CLIENTS, Arc::clone(&acct))))
                    .collect()
            }
        };
        if on_disk {
            // Leave the data files complete and the log empty, as a
            // database that has been running for a while would be.
            db.checkpoint()?;
        }
        if config.pooled_executors {
            let pool = db.worker_pool().ok_or_else(|| {
                other("worker pool unavailable: jaguar-worker was not found beside jagbench")
            })?;
            if !pool.wait_ready(Duration::from_secs(10)) {
                return Err(other("worker pool did not become warm within 10 s"));
            }
        }
        let server = db.serve("127.0.0.1:0")?;
        let options = ClientOptions::from_config(&config);
        let clients = streams
            .into_iter()
            .map(|stream| Ok((Client::connect_with(server.addr(), options)?, stream)))
            .collect::<Result<Vec<_>>>()?;
        Ok(Env {
            workload,
            db,
            server,
            clients,
            rel,
            rows_loaded,
            lang_compile,
            dir,
        })
    }

    /// The directory of an on-disk database.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Stop the server, close the database and delete its files.
    pub fn teardown(self) -> Result<()> {
        let Env {
            db,
            mut server,
            clients,
            dir,
            ..
        } = self;
        drop(clients);
        server.stop();
        db.close()?;
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir)?;
        }
        Ok(())
    }
}
