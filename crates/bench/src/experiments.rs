//! The paper's experiments (Section 5) and the DESIGN.md ablations.
//!
//! Methodology follows §5.2: a calibration query with a trivial integrated
//! native UDF measures the "basic system cost" (Figure 4), and later
//! figures report time **net of** it ("these numbers represent the basic
//! system costs that we subtract from the later measured timings").
//!
//! Every timed cell comes from paired rounds ([`REPS`] of them, after one
//! untimed warm-up round): a round runs the baseline and then every design
//! of the cell once, so a net time is per round (raw minus that round's
//! baseline, not clamped) and so is a ratio. Cells report the median and
//! quartiles of those per-round values.

use std::time::{Duration, Instant};

use jaguar_core::{
    Config, Database, JaguarError, QueryResult, Request, Result, SessionContext, SyncMode, UdfDef,
    UdfImpl, Value,
};
use jaguar_udf::generic::{
    def_isolated, def_isolated_vm, def_native, def_native_bc, def_native_sfi, def_vm,
    generic_signature, GenericParams, IdentityCallbacks,
};
use jaguar_vm::ResourceLimits;

use crate::report::{Cell, Table};
use crate::workload::{benchmark_query, build_relation, build_standard, REL_SIZES};

/// Timed repetitions behind every cell.
pub const REPS: usize = 9;

/// An experiment: its id and how to run it.
pub type Experiment = (&'static str, fn(&ExperimentCtx) -> Result<Table>);

/// Every experiment, in paper order: the one list `run_experiments`,
/// [`ExperimentCtx::by_name`] and [`ExperimentCtx::all`] read.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", ExperimentCtx::table1),
    ("fig4", ExperimentCtx::fig4),
    ("fig5", ExperimentCtx::fig5),
    ("fig6", ExperimentCtx::fig6),
    ("fig7", ExperimentCtx::fig7),
    ("fig8", ExperimentCtx::fig8),
    ("sfi", ExperimentCtx::ablation_sfi),
    ("jit", ExperimentCtx::ablation_jit),
    ("fuel", ExperimentCtx::ablation_fuel),
    ("index", ExperimentCtx::ablation_index),
    ("pool", ExperimentCtx::pool),
    ("shipping", ExperimentCtx::shipping),
    ("wal", ExperimentCtx::wal),
    ("cancel", ExperimentCtx::cancel),
    ("parallel", ExperimentCtx::parallel),
    ("batch", ExperimentCtx::batch),
    ("tier", ExperimentCtx::tier),
    ("opt", ExperimentCtx::opt),
    ("sec", ExperimentCtx::sec),
];

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's setup: 10,000-tuple relations.
    Paper,
    /// 1,000-tuple relations; minutes for the whole suite, same shapes.
    Quick,
}

impl Scale {
    pub fn cardinality(self) -> usize {
        match self {
            Scale::Paper => 10_000,
            Scale::Quick => 1_000,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    }
}

/// `NumDataIndepComps` sweep (Figure 6). The top point is large enough
/// that the native time rises clearly above timer noise.
const INDEP_SWEEP: [i64; 6] = [0, 10, 100, 1000, 10_000, 100_000];
/// `NumDataDepComps` sweep (Figure 7). The paper went on to 1,000 passes
/// and omitted JNI there "because of the large time involved"; this sweep
/// stops at 100 and runs every design at every point.
const DEP_SWEEP: [i64; 4] = [0, 1, 10, 100];
/// `NumCallbacks` sweep (Figure 8).
const CALLBACK_SWEEP: [i64; 4] = [0, 1, 10, 100];

/// The WAL sync modes, named as `BENCH_wal.json` and `BENCH_sec.json` name them.
const SYNC_MODES: [(SyncMode, &str); 3] = [
    (SyncMode::Off, "off"),
    (SyncMode::Normal, "normal"),
    (SyncMode::Full, "full"),
];

/// The UDF execution designs measured, in the paper's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// Design 1: trusted native in-process ("C++").
    Cpp,
    /// Design 1 + explicit bounds checks (§5.4, "BC-C++").
    BcCpp,
    /// Design 1 under software fault isolation (§2.3/§4).
    SfiCpp,
    /// Design 2: native in an isolated process ("IC++").
    ICpp,
    /// Design 3: sandboxed VM in-process, compiled tier ("JSM", playing
    /// the paper's "JNI").
    Jsm,
    /// Design 3 on the reference interpreter (A2 ablation).
    JsmBaseline,
    /// Design 3 without resource policing (A3 ablation).
    JsmNoFuel,
    /// The interpreter without resource policing (A3 ablation — there
    /// the fuel check is a per-instruction branch).
    JsmBaselineNoFuel,
    /// Design 4: sandboxed VM in an isolated process.
    IJsm,
}

impl Design {
    pub fn label(self) -> &'static str {
        match self {
            Design::Cpp => "C++",
            Design::BcCpp => "BC-C++",
            Design::SfiCpp => "SFI-C++",
            Design::ICpp => "IC++",
            Design::Jsm => "JSM",
            Design::JsmBaseline => "JSM-int",
            Design::JsmNoFuel => "JSM-nofuel",
            Design::JsmBaselineNoFuel => "JSM-int-nofuel",
            Design::IJsm => "IJSM",
        }
    }

    fn needs_worker(self) -> bool {
        def_for(self).imp.design().needs_worker()
    }
}

/// Resource limits for benchmark VM runs: effectively unbounded fuel so
/// long sweeps complete, but the per-instruction *check* stays on (that
/// check is part of what Design 3 costs; `JsmNoFuel` removes it).
fn bench_limits() -> ResourceLimits {
    ResourceLimits {
        fuel: Some(u64::MAX),
        memory: Some(1 << 30),
        max_call_depth: 256,
    }
}

/// Build the `udf` definition for a design.
pub fn def_for(design: Design) -> UdfDef {
    let mut def = match design {
        Design::Cpp => def_native(),
        Design::BcCpp => def_native_bc(),
        Design::SfiCpp => def_native_sfi(),
        Design::ICpp => def_isolated(),
        Design::Jsm => def_vm(true, bench_limits()),
        Design::JsmBaseline => def_vm(false, bench_limits()),
        Design::JsmNoFuel => def_vm(true, ResourceLimits::unlimited()),
        Design::JsmBaselineNoFuel => def_vm(false, ResourceLimits::unlimited()),
        Design::IJsm => def_isolated_vm(true, bench_limits()),
    };
    def.name = "udf".to_string();
    def
}

/// A trivial integrated native UDF "that does no work" (Figure 4's probe).
pub fn def_noop() -> UdfDef {
    let imp = UdfImpl::closure(|_args, _cb| Ok(Value::Int(0)));
    UdfDef::new("udf", generic_signature(), imp)
}

/// One timed statement of a round.
struct Run<'a> {
    label: String,
    db: &'a Database,
    /// Registered as `udf` before every execution, so runs on one
    /// database can alternate designs.
    def: Option<UdfDef>,
    sql: String,
    session: Option<&'a SessionContext>,
    /// The row count every execution must return.
    rows: Option<usize>,
}

impl<'a> Run<'a> {
    fn new(label: impl Into<String>, db: &'a Database, sql: impl Into<String>) -> Run<'a> {
        Run {
            label: label.into(),
            db,
            def: None,
            sql: sql.into(),
            session: None,
            rows: None,
        }
    }

    fn def(self, def: UdfDef) -> Run<'a> {
        Run {
            def: Some(def),
            ..self
        }
    }

    fn rows(self, rows: usize) -> Run<'a> {
        Run {
            rows: Some(rows),
            ..self
        }
    }
}

/// Paired rounds: one untimed warm-up round, then [`REPS`] timed ones,
/// each running every run once in order. Returns each run's times in
/// seconds and its warm-up result. A wrong row count is an error naming
/// the cell and the run.
fn rounds(cell: &str, runs: &[Run]) -> Result<(Vec<Vec<f64>>, Vec<QueryResult>)> {
    let mut times = vec![Vec::with_capacity(REPS); runs.len()];
    let mut warm = Vec::with_capacity(runs.len());
    for round in 0..=REPS {
        for (run, times) in runs.iter().zip(&mut times) {
            if let Some(def) = &run.def {
                run.db.register_udf(def.clone());
            }
            let mut request = Request::from(&run.sql);
            if let Some(session) = run.session {
                request = request.with_session(session);
            }
            let start = Instant::now();
            let result = run.db.execute(request)?;
            let secs = start.elapsed().as_secs_f64();
            if let Some(want) = run.rows.filter(|&n| n != result.rows.len()) {
                return Err(JaguarError::Verification(format!(
                    "{cell}, {}: {} rows, expected {want}",
                    run.label,
                    result.rows.len()
                )));
            }
            if round == 0 {
                warm.push(result);
            } else {
                times.push(secs);
            }
        }
    }
    Ok((times, warm))
}

/// Every result returns the first one's rows, or an error naming the cell
/// and the run that diverged.
fn agree(cell: &str, runs: &[Run], results: &[QueryResult]) -> Result<()> {
    match results.iter().position(|r| r.rows != results[0].rows) {
        Some(i) => Err(JaguarError::Verification(format!(
            "{cell}: {}'s rows diverge from {}'s",
            runs[i].label, runs[0].label
        ))),
        None => Ok(()),
    }
}

/// Per-round differences `a[i] - b[i]`.
fn minus(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| a - b).collect()
}

fn series(s: &Option<Vec<f64>>) -> Cell {
    s.clone().map_or_else(|| Cell::text("—"), Cell::series)
}

fn ratio(num: &Option<Vec<f64>>, den: &Option<Vec<f64>>) -> Cell {
    match (num, den) {
        (Some(n), Some(d)) => Cell::ratio(n, d),
        _ => Cell::text("—"),
    }
}

/// A temporary on-disk database directory, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> Result<TempDir> {
        let dir = std::env::temp_dir().join(format!("jaguar-bench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An engine holding `rel100` with `card` rows and, for the isolated
/// designs, a warm pool of `pool` workers.
fn engine(config: Config, design: Design, pool: usize, card: usize) -> Result<Database> {
    let db = Database::with_config(match design.needs_worker() {
        true => config.with_pooled_executors(pool),
        false => config,
    });
    build_relation(&db, 100, card)?;
    if let Some(pool) = db.worker_pool() {
        pool.wait_ready(Duration::from_secs(30));
    }
    Ok(db)
}

/// Shared state for one experiment session: the database with the three
/// standard relations loaded.
pub struct ExperimentCtx {
    db: Database,
    scale: Scale,
    /// Tuples per standard relation.
    card: usize,
    worker_available: bool,
}

impl ExperimentCtx {
    /// Build the workload. This is the expensive setup step; reuse one
    /// context for all experiments.
    pub fn new(scale: Scale) -> Result<ExperimentCtx> {
        Self::with_cardinality(scale, scale.cardinality())
    }

    fn with_cardinality(scale: Scale, card: usize) -> Result<ExperimentCtx> {
        // The paper's figures measure single-threaded scans that invoke the
        // UDF once per tuple, as PREDATOR did: pin dop 1 and batch size 1.
        // `parallel` and `batch` build their own engines for those.
        let db = Database::with_config(Config::default().with_dop(1).with_udf_batch_size(1));
        build_standard(&db, card)?;
        Ok(ExperimentCtx {
            db,
            scale,
            card,
            worker_available: jaguar_ipc::find_worker_binary().is_ok(),
        })
    }

    /// A count that grows with the scale.
    fn pick(&self, paper: usize, quick: usize) -> usize {
        match self.scale {
            Scale::Paper => paper,
            Scale::Quick => quick,
        }
    }

    fn runs(&self, design: Design) -> bool {
        !design.needs_worker() || self.worker_available
    }

    /// The four trust designs this host can run.
    fn trust_designs(&self) -> impl Iterator<Item = Design> + '_ {
        [Design::Cpp, Design::Jsm, Design::ICpp, Design::IJsm]
            .into_iter()
            .filter(|&d| self.runs(d))
    }

    /// Paired rounds of the noop baseline and `designs` on one query over
    /// the standard relations that must return one row per tuple. Returns
    /// the baseline's times and each design's raw times (`None` for a
    /// design skipped for want of a worker binary). Every design must
    /// return the same rows.
    fn paired(&self, cell: &str, sql: &str, designs: &[Design]) -> Result<Paired> {
        let live: Vec<Design> = designs.iter().copied().filter(|&d| self.runs(d)).collect();
        let run =
            |label: &str, def: UdfDef| Run::new(label, &self.db, sql).def(def).rows(self.card);
        let runs: Vec<Run> = std::iter::once(run("baseline", def_noop()))
            .chain(live.iter().map(|&d| run(d.label(), def_for(d))))
            .collect();
        let (mut times, warm) = rounds(cell, &runs)?;
        agree(cell, &runs[1..], &warm[1..])?;
        let base = times.remove(0);
        let mut times = times.into_iter();
        let raw = designs
            .iter()
            .map(|&d| if self.runs(d) { times.next() } else { None })
            .collect();
        Ok(Paired { base, raw })
    }

    /// One figure row after its parameter: each design's net time, then
    /// each `(num, den)` ratio of two designs' net times.
    fn net_row(
        &self,
        cell: &str,
        sql: &str,
        designs: &[Design],
        ratios: &[(usize, usize)],
    ) -> Result<Vec<Cell>> {
        let p = self.paired(cell, sql, designs)?;
        let nets: Vec<_> = (0..designs.len()).map(|i| p.net(i)).collect();
        Ok(nets
            .iter()
            .map(series)
            .chain(ratios.iter().map(|&(a, b)| ratio(&nets[a], &nets[b])))
            .collect())
    }

    /// A figure whose rows sweep one parameter of the benchmark query.
    fn sweep(
        &self,
        t: &mut Table,
        points: &[i64],
        query: impl Fn(i64) -> String,
        designs: &[Design],
        ratios: &[(usize, usize)],
    ) -> Result<()> {
        for &x in points {
            let cell = format!("{} {x}", t.header[0]);
            let mut row = vec![Cell::from(x as u64)];
            row.extend(self.net_row(&cell, &query(x), designs, ratios)?);
            t.row(row);
        }
        Ok(())
    }

    fn per_tuple_note(&self, t: &mut Table, bytes: &str) {
        t.note(format!(
            "{} invocations over bytearray {bytes}, one UDF call per tuple (dop 1, batch \
             size 1); each cell is the median [q1–q3] of {REPS} paired rounds, each running \
             the noop baseline and then every design",
            self.card
        ));
    }

    // ------------------------------------------------------------------
    // The figures
    // ------------------------------------------------------------------

    /// Figure 4 — calibration: table access costs. A trivial integrated
    /// native UDF; invocation count on the X axis, one series per relation.
    pub fn fig4(&self) -> Result<Table> {
        let mut t = Table::new(
            "Figure 4 — calibration: table access costs",
            &["#invocations", "Rel1", "Rel100", "Rel10000"],
        );
        for n in [1usize, 10, 100, 1000, 10_000] {
            if n > self.card {
                continue;
            }
            let runs: Vec<Run> = REL_SIZES
                .iter()
                .map(|&b| {
                    let sql = benchmark_query(b, n, 0, 0, 0);
                    Run::new(format!("Rel{b}"), &self.db, sql)
                        .def(def_noop())
                        .rows(n)
                })
                .collect();
            let (times, _) = rounds(&format!("fig4 n={n}"), &runs)?;
            let mut row = vec![Cell::from(n)];
            row.extend(times.into_iter().map(Cell::series));
            t.row(row);
        }
        t.note(format!(
            "cardinality {}, one UDF call per tuple (dop 1, batch size 1); median [q1–q3] \
             of {REPS} rounds, each running all three relations",
            self.card
        ));
        Ok(t)
    }

    /// Figure 5 — calibration: function invocation costs. Full-table
    /// invocation of a UDF that does no work, across designs and bytearray
    /// sizes. Reported **raw** (as the paper plots them): the paper's
    /// conclusion is that invocation overhead is "insignificant compared
    /// to the overall cost of the queries", which needs the query cost in
    /// view.
    pub fn fig5(&self) -> Result<Table> {
        let card = self.card;
        let designs = [Design::Cpp, Design::ICpp, Design::Jsm];
        let mut t = Table::new(
            "Figure 5 — calibration: function invocation costs, raw",
            &["bytearray", "baseline", "C++", "IC++", "JSM"],
        );
        for bytes in REL_SIZES {
            let sql = benchmark_query(bytes, card, 0, 0, 0);
            let p = self.paired(&format!("fig5 bytes={bytes}"), &sql, &designs)?;
            let mut row = vec![Cell::from(bytes), Cell::series(p.base)];
            row.extend(p.raw.iter().map(series));
            t.row(row);
        }
        self.per_tuple_note(&mut t, "1 / 100 / 10000");
        t.note("raw times of a no-work UDF; 'baseline' is the Figure 4 query in the same round");
        Ok(t)
    }

    /// Figure 6 — effect of computation (`NumDataIndepComps`).
    pub fn fig6(&self) -> Result<Table> {
        let card = self.card;
        let mut t = Table::new(
            "Figure 6 — pure computation, net of baseline (relative to C++)",
            &[
                "DataIndepComps",
                "C++",
                "IC++",
                "JSM",
                "IC++/C++",
                "JSM/C++",
            ],
        );
        let designs = [Design::Cpp, Design::ICpp, Design::Jsm];
        let query = |x| benchmark_query(10_000, card, x, 0, 0);
        self.sweep(&mut t, &INDEP_SWEEP, query, &designs, &[(1, 0), (2, 0)])?;
        self.per_tuple_note(&mut t, "10000");
        Ok(t)
    }

    /// Figure 7 — effect of data access (`NumDataDepComps`), including the
    /// §5.4 bounds-checked native variant.
    pub fn fig7(&self) -> Result<Table> {
        let card = self.card;
        let mut t = Table::new(
            "Figure 7 — data access, net of baseline (relative to C++)",
            &[
                "DataDepComps",
                "C++",
                "BC-C++",
                "IC++",
                "JSM",
                "BC/C++",
                "JSM/C++",
                "JSM/BC",
            ],
        );
        let designs = [Design::Cpp, Design::BcCpp, Design::ICpp, Design::Jsm];
        let query = |x| benchmark_query(10_000, card, 0, x, 0);
        self.sweep(
            &mut t,
            &DEP_SWEEP,
            query,
            &designs,
            &[(1, 0), (3, 0), (3, 1)],
        )?;
        self.per_tuple_note(&mut t, "10000");
        t.note(
            "BC-C++ is native code with a bounds check on every byte access that \
             nothing hoists; the paper's sweep went on to 1,000 passes",
        );
        Ok(t)
    }

    /// Figure 8 — effect of callbacks (`NumCallbacks`). The UDFs perform
    /// no computation; each callback crosses the UDF↔server boundary.
    pub fn fig8(&self) -> Result<Table> {
        let card = self.card;
        let mut t = Table::new(
            "Figure 8 — callbacks, net of baseline (relative to C++)",
            &["Callbacks", "C++", "IC++", "JSM", "IC++/C++", "JSM/C++"],
        );
        let designs = [Design::Cpp, Design::ICpp, Design::Jsm];
        // Bytearray 1 isolates the callback cost (no data transferred).
        let query = |x| benchmark_query(1, card, 0, 0, x);
        self.sweep(&mut t, &CALLBACK_SWEEP, query, &designs, &[(1, 0), (2, 0)])?;
        self.per_tuple_note(&mut t, "1");
        Ok(t)
    }

    /// Table 1 — the design space, annotated with a measured
    /// per-invocation overhead (bytearray 100, no work, net of baseline).
    pub fn table1(&self) -> Result<Table> {
        let card = self.card;
        let mut t = Table::new(
            "Table 1 — design space for server-side UDFs (measured per-invocation overhead)",
            &["design", "language", "process", "safety", "per invocation"],
        );
        let rows = [
            (Design::Cpp, "none (trusted)"),
            (Design::ICpp, "crash/memory containment"),
            (Design::Jsm, "verified + bounds + fuel + security mgr"),
            (Design::IJsm, "all of the above + process"),
        ];
        let designs = rows.map(|r| r.0);
        let p = self.paired("table1", &benchmark_query(100, card, 0, 0, 0), &designs)?;
        for (i, (d, safety)) in rows.into_iter().enumerate() {
            // The number, language and process are the design's pair.
            let cell = def_for(d).imp.design();
            let process = ["same", "isolated"][usize::from(cell.needs_worker())];
            t.row(vec![
                Cell::text(format!("Design {} ({})", cell.number(), cell.label())),
                ["native", "portable bytecode"][usize::from(cell.bytecode)].into(),
                process.into(),
                safety.into(),
                series(
                    &p.net(i)
                        .map(|n| n.iter().map(|x| x / card as f64).collect()),
                ),
            ]);
        }
        self.per_tuple_note(&mut t, "100");
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Ablations
    // ------------------------------------------------------------------

    /// A1 — SFI overhead on a data-access-heavy UDF (§4 expects ≈25 %
    /// over plain native for instrumented memory access).
    pub fn ablation_sfi(&self) -> Result<Table> {
        let (card, dep) = (self.card, 10);
        let mut t = Table::new(
            "A1 — software fault isolation overhead (relative to C++)",
            &["variant", "time", "vs C++"],
        );
        let designs = [Design::Cpp, Design::BcCpp, Design::SfiCpp];
        let sql = benchmark_query(10_000, card, 0, dep, 0);
        let p = self.paired("sfi", &sql, &designs)?;
        let cpp = p.net(0);
        for (i, name) in [
            "C++ (unchecked)",
            "BC-C++ (explicit bounds checks)",
            "SFI-C++ (masked sandbox access)",
        ]
        .into_iter()
        .enumerate()
        {
            let net = p.net(i);
            t.row(vec![name.into(), series(&net), ratio(&net, &cpp)]);
        }
        self.per_tuple_note(&mut t, "10000");
        t.note(format!("DataDepComps={dep}"));
        Ok(t)
    }

    /// A2 — the compiled tier vs the reference interpreter.
    pub fn ablation_jit(&self) -> Result<Table> {
        let card = self.card;
        let mut t = Table::new(
            "A2 — VM engine: interpreter vs compiled",
            &["workload", "JSM (compiled)", "JSM (interpreter)", "speedup"],
        );
        let designs = [Design::Jsm, Design::JsmBaseline];
        for (name, indep, dep) in [
            ("compute(10000)", 10_000i64, 0i64),
            ("data(1 pass)", 0, 1),
            ("data(10 passes)", 0, 10),
        ] {
            let sql = benchmark_query(10_000, card, indep, dep, 0);
            let mut row = vec![Cell::from(name)];
            row.extend(self.net_row(&format!("jit {name}"), &sql, &designs, &[(1, 0)])?);
            t.row(row);
        }
        self.per_tuple_note(&mut t, "10000");
        Ok(t)
    }

    /// A3 — what the per-instruction resource policing costs (§6.2 says
    /// databases need it; 1998 JVMs lacked it).
    pub fn ablation_fuel(&self) -> Result<Table> {
        let card = self.card;
        let mut t = Table::new(
            "A3 — resource-policing (fuel) overhead in the sandbox",
            &[
                "workload",
                "compiled, policed",
                "compiled, no limits",
                "interpreter, policed",
                "interpreter, no limits",
                "compiled overhead",
                "interpreter overhead",
            ],
        );
        let designs = [
            Design::Jsm,
            Design::JsmNoFuel,
            Design::JsmBaseline,
            Design::JsmBaselineNoFuel,
        ];
        for (name, indep, dep) in [
            ("compute(10000)", 10_000i64, 0i64),
            ("data(10 passes)", 0, 10),
        ] {
            let sql = benchmark_query(10_000, card, indep, dep, 0);
            let mut row = vec![Cell::from(name)];
            let cell = format!("fuel {name}");
            row.extend(self.net_row(&cell, &sql, &designs, &[(0, 1), (2, 3)])?);
            t.row(row);
        }
        self.per_tuple_note(&mut t, "10000");
        t.note(
            "the compiled tier charges fuel once per run of infallible ops \
             and once per strip of counted-loop trips, so the check \
             amortises to ~nothing; the interpreter pays a branch per \
             instruction",
        );
        Ok(t)
    }

    /// E9 (extension) — client-side vs server-side UDF execution over real
    /// TCP: the paper's §3.1 argument for server-side UDFs ("all the images
    /// would need to be shipped to the client"), quantified. The same
    /// verified bytecode runs at both sites (§6.4 portability); only the
    /// placement changes.
    pub fn shipping(&self) -> Result<Table> {
        use jaguar_core::Client;
        let mut server = self.db.serve("127.0.0.1:0")?;

        // Register the generic UDF as shippable bytecode so the client can
        // fetch it (native server code cannot migrate).
        let mut def = def_for(Design::Jsm);
        def.name = "shipudf".into();
        self.db.register_udf(def);

        // Byte sums over 10,000 uniform bytes: mean 1.275e6, σ≈7.4e3;
        // mean + ~0.8σ keeps roughly a quarter of the rows.
        let threshold: i64 = 1_281_000;
        let params = GenericParams {
            data_dep_comps: 1,
            ..GenericParams::default()
        };
        let mut t = Table::new(
            "E9 — query shipping vs data shipping (extension; paper §3.1)",
            &["strategy", "rows out", "bytes shipped", "time"],
        );
        let wire_size = |rows: &[jaguar_common::Tuple]| -> Result<usize> {
            let mut buf = Vec::new();
            for r in rows {
                jaguar_common::stream::write_tuple(&mut buf, r)?;
            }
            Ok(buf.len())
        };
        let mut client = Client::connect(server.addr())?;
        let sql =
            format!("SELECT id FROM rel10000 R WHERE shipudf(R.bytearray, 0, 1, 0) > {threshold}");
        let (mut qs, mut ds) = (Vec::new(), Vec::new());
        let (mut server_side, mut all_rows, mut kept) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..=REPS {
            // Query shipping: the UDF filters at the server.
            let start = Instant::now();
            server_side = client.execute(&sql)?.rows;
            let qs_time = start.elapsed().as_secs_f64();
            // Data shipping: fetch everything, filter at the client with
            // the identical bytecode.
            let start = Instant::now();
            all_rows = client.execute("SELECT id, bytearray FROM rel10000")?.rows;
            let mut local = client.fetch_udf("shipudf")?;
            kept.clear();
            for row in &all_rows {
                let mut args = params.args(Default::default());
                args[0] = row.get(1)?.clone();
                if local
                    .invoke_with_callbacks(&args, &mut IdentityCallbacks)?
                    .as_int()?
                    > threshold
                {
                    kept.push(row.get(0)?.clone());
                }
            }
            if round > 0 {
                qs.push(qs_time);
                ds.push(start.elapsed().as_secs_f64());
            }
            if kept.len() != server_side.len() {
                return Err(JaguarError::Verification(format!(
                    "shipping: placement changed the answer: server {} rows vs client {}",
                    server_side.len(),
                    kept.len()
                )));
            }
        }
        server.stop();
        t.row(vec![
            "query shipping (UDF at server)".into(),
            Cell::from(server_side.len()),
            Cell::from(wire_size(&server_side)?),
            Cell::series(qs),
        ]);
        t.row(vec![
            "data shipping (UDF at client)".into(),
            Cell::from(kept.len()),
            Cell::from(wire_size(&all_rows)?),
            Cell::series(ds),
        ]);
        t.note(
            "identical verified bytecode at both sites; only placement differs. \
             Loopback TCP hides network latency — the bytes column is the cost a \
             real network would charge (the paper's §3.1 argument).",
        );
        t.note(format!(
            "cardinality {}, 10,000-byte tuples, ~20% selectivity",
            self.card
        ));
        Ok(t)
    }

    /// A4 (extension) — access-method extensibility (§2.2's older line of
    /// work): the same point/range query through a sequential scan vs a
    /// B+Tree index.
    pub fn ablation_index(&self) -> Result<Table> {
        let card = self.card;
        // A dedicated table so the standard relations stay index-free (the
        // paper's figures measure full scans).
        self.db
            .execute("CREATE TABLE idxbench (id INT, payload BYTEARRAY)")?;
        let t = self.db.catalog().table("idxbench")?;
        for i in 0..card as i64 {
            t.insert(jaguar_common::Tuple::new(vec![
                Value::Int(i),
                Value::Bytes(jaguar_common::ByteArray::patterned(100, i as u64)),
            ]))?;
        }
        let mut table = Table::new(
            "A4 — B+Tree index vs sequential scan (extension)",
            &["query", "seq scan", "rows touched", "index", "rows touched"],
        );
        let half = card / 2;
        let queries = [
            ("point (id = k)", format!("id = {half}"), 1),
            (
                "1% range",
                format!("id >= {half} AND id < {}", half + card / 100),
                card / 100,
            ),
            ("50% range", format!("id < {half}"), half),
        ];
        let runs: Vec<Run> = queries
            .iter()
            .map(|(name, pred, rows)| {
                let sql = format!("SELECT payload FROM idxbench WHERE {pred}");
                Run::new(*name, &self.db, sql).rows(*rows)
            })
            .collect();
        let (seq, seq_warm) = rounds("index, seq scan", &runs)?;
        self.db
            .execute("CREATE INDEX idxbench_id ON idxbench (id)")?;
        let (idx, idx_warm) = rounds("index, B+Tree", &runs)?;
        for (i, (seq, idx)) in seq.into_iter().zip(idx).enumerate() {
            if seq_warm[i].rows != idx_warm[i].rows {
                return Err(JaguarError::Verification(format!(
                    "index, {}: the index scan's rows diverge from the seq scan's",
                    runs[i].label
                )));
            }
            table.row(vec![
                runs[i].label.as_str().into(),
                Cell::series(seq),
                Cell::from(seq_warm[i].stats.rows_scanned),
                Cell::series(idx),
                Cell::from(idx_warm[i].stats.rows_scanned),
            ]);
        }
        table.note(format!("{card}-row table, 100-byte payloads"));
        table.note(
            "the paper's figures deliberately use full scans; this measures the \
             §2.2 access-method extensibility the engine also supports",
        );
        // Leave the catalog as we found it for later experiments.
        self.db.execute("DROP TABLE idxbench")?;
        Ok(table)
    }

    /// P1 (extension) — isolated-executor acquisition cost: the paper's
    /// per-query worker spawn vs checking a warm worker out of the shared
    /// pool. The per-invocation cost of the isolated designs (Figures 5–8)
    /// excludes process startup because the paper spawns once per query;
    /// this measures that startup, and what the pool recovers of it.
    pub fn pool(&self) -> Result<Table> {
        use jaguar_core::{PoolConfig, WorkerPool};
        use std::sync::Arc;

        let mut t = Table::new(
            "P1 — isolated executor acquisition: per-query spawn vs warm pool (extension)",
            &[
                "strategy",
                "queries",
                "per query",
                "vs warm pool",
                "worker spawns",
            ],
        );
        if !self.worker_available {
            return Ok(t);
        }
        let queries = 50usize;
        let def = def_for(Design::ICpp);
        let params = GenericParams {
            data_dep_comps: 1,
            ..GenericParams::default()
        };
        let args = params.args(jaguar_common::ByteArray::patterned(100, 7));
        let pool = Arc::new(WorkerPool::new(PoolConfig {
            size: 2,
            ..PoolConfig::default()
        })?);
        pool.wait_ready(Duration::from_secs(10));
        // Alternate the two strategies so each pair shares the host's state.
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        for _ in 0..queries {
            for (source, times) in [(None, &mut cold), (Some(&pool), &mut warm)] {
                let start = Instant::now();
                let mut u = def.instantiate_with(source)?;
                u.invoke(&args, &mut IdentityCallbacks)?;
                u.finish()?;
                times.push(start.elapsed().as_secs_f64());
            }
        }
        let stats = pool.stats();
        t.row(vec![
            "per-query spawn (paper)".into(),
            Cell::from(queries),
            Cell::series(cold.clone()),
            Cell::ratio(&cold, &warm),
            Cell::from(queries),
        ]);
        t.row(vec![
            "warm pool (size 2)".into(),
            Cell::from(queries),
            Cell::series(warm.clone()),
            Cell::ratio(&warm, &warm),
            Cell::from(stats.spawns),
        ]);
        t.note(format!(
            "pool reuses: {}, crashes: {}; each query does one IC++ invocation over a \
             100-byte bytearray, so the difference is almost pure executor acquisition cost",
            stats.reuses, stats.crashes
        ));
        Ok(t)
    }

    /// WAL commit latency per sync mode (not in the paper — the durability
    /// subsystem replaces what PREDATOR inherited from Shore). For each
    /// [`jaguar_core::SyncMode`], run N single-row INSERT statements
    /// against an on-disk database and report per-statement commit latency
    /// plus the observed fsync count.
    pub fn wal(&self) -> Result<Table> {
        let inserts = self.pick(2_000, 200);
        let mut table = Table::new(
            "WAL commit latency by sync mode",
            &[
                "sync",
                "commit latency",
                "fsyncs",
                "commits",
                "log bytes / commit",
            ],
        );
        for (mode, label) in SYNC_MODES {
            let dir = TempDir::new(&format!("wal-{label}"))?;
            let db = Database::open(&dir.0, Config::default().with_sync_mode(mode))?;
            db.execute("CREATE TABLE events (id INT, payload BYTEARRAY)")?;
            let before = db.metrics();
            let mut lat = Vec::with_capacity(inserts);
            for i in 0..inserts {
                let sql = format!("INSERT INTO events VALUES ({i}, X'0102030405060708')");
                let start = Instant::now();
                db.execute(&sql)?;
                lat.push(start.elapsed().as_secs_f64());
            }
            let after = db.metrics();
            let delta = |name: &str| after.counter(name) - before.counter(name);
            table.row(vec![
                label.into(),
                Cell::series(lat),
                Cell::from(delta("wal.fsyncs")),
                Cell::from(delta("wal.commits")),
                Cell::from(delta("wal.bytes") / delta("wal.commits").max(1)),
            ]);
        }
        table.note(format!("{inserts} single-row INSERT statements per mode"));
        table.note(
            "log bytes / commit: a page's first record after a checkpoint is its full \
             image, later ones a delta of the bytes that changed",
        );
        table.note("full = fsync per commit; normal = fsync at checkpoint; off = never");
        Ok(table)
    }

    /// Cancel-to-abort latency (not in the paper — the query lifecycle
    /// layer). A canceller thread trips the statement's cancel token
    /// mid-scan and we measure how long the executor takes to notice and
    /// return `Cancelled`, per backend: a native UDF scan (per-tuple
    /// cooperative check) and a VM UDF scan (instruction-budget poll).
    pub fn cancel(&self) -> Result<Table> {
        use jaguar_common::cancel::CancelToken;
        use jaguar_core::{DataType, UdfSignature};

        let iters = self.pick(60, 12);
        let mut table = Table::new(
            "Cancel-to-abort latency by backend (extension)",
            &["backend", "cancel latency"],
        );
        let run_backend = |db: &Database, sql: &str| -> Vec<f64> {
            let mut lat = Vec::with_capacity(iters);
            while lat.len() < iters {
                let token = CancelToken::unbounded();
                let t2 = token.clone();
                let canceller = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    let at = Instant::now();
                    t2.cancel();
                    at
                });
                let out = db.execute(Request::from(sql).with_token(&token));
                let returned = Instant::now();
                let cancelled_at = canceller.join().expect("canceller thread");
                // Anything else means the statement finished before the
                // cancel landed (or failed some other way): not a sample.
                if let Err(JaguarError::Cancelled(_)) = out {
                    lat.push(returned.duration_since(cancelled_at).as_secs_f64());
                }
            }
            lat
        };

        // Backend 1: native UDF scan. Each tuple costs ~2ms, so the
        // per-tuple cooperative check bounds cancel latency at roughly one
        // tuple.
        let db = Database::in_memory();
        db.execute("CREATE TABLE c (a INT)")?;
        let vals: Vec<String> = (0..2_000).map(|i| format!("({i})")).collect();
        db.execute(&format!("INSERT INTO c VALUES {}", vals.join(", ")))?;
        db.register_native_udf(
            "bench_nap",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            |args, _cb| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(args[0].clone())
            },
        );
        let native = run_backend(&db, "SELECT bench_nap(a) FROM c");
        table.row(vec!["native scan (2ms/tuple)".into(), Cell::series(native)]);

        // Backend 2: in-process VM scan. Each tuple burns ~1.5M
        // interpreted instructions, so cancel latency is bounded by the
        // interpreter's instruction-budget poll.
        db.register_jagscript_udf(
            "bench_spin",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            "fn main(x: i64) -> i64 { let i: i64 = 0; \
             while i < 500000 { i = i + 1; } return x; }",
            jaguar_core::UdfDesign::Sandboxed,
        )?;
        let vm = run_backend(&db, "SELECT bench_spin(a) FROM c");
        table.row(vec!["vm scan (~1.5M insns/tuple)".into(), Cell::series(vm)]);
        table.note(format!(
            "{iters} cancels per backend; latency = token.cancel() to execute returning Cancelled"
        ));
        Ok(table)
    }

    /// Morsel-parallel scan speedup (not in the paper — the `sql::par`
    /// runtime). For each UDF design, run the generic-UDF benchmark query
    /// at dop ∈ {1, 2, 4, 8}, one engine per dop, in paired rounds, and
    /// report the time and the speedup vs dop=1. Isolated designs get a
    /// worker pool sized to the dop so the planner never clamps.
    pub fn parallel(&self) -> Result<Table> {
        let card = self.card;
        let bytes = 100usize;
        // Enough per-row UDF work that the scan itself is not the
        // bottleneck; speedup then tracks available cores.
        let (indep, dep) = (5_000i64, 2i64);
        let mut t = Table::new(
            "Parallel scan speedup by design and dop (extension)",
            &["design", "dop", "time", "speedup vs dop=1"],
        );
        let sql = benchmark_query(bytes, card, indep, dep, 0);
        for d in self.trust_designs() {
            let dops = [1usize, 2, 4, 8];
            let dbs = dops
                .iter()
                .map(|&dop| {
                    let db = engine(Config::default().with_dop(dop), d, dop, card)?;
                    db.register_udf(def_for(d));
                    Ok(db)
                })
                .collect::<Result<Vec<_>>>()?;
            let runs: Vec<Run> = dops
                .iter()
                .zip(&dbs)
                .map(|(dop, db)| Run::new(format!("dop {dop}"), db, &sql).rows(card))
                .collect();
            let (times, _) = rounds(&format!("parallel {}", d.label()), &runs)?;
            for (dop, time) in dops.iter().zip(&times) {
                t.row(vec![
                    d.label().into(),
                    Cell::from(*dop),
                    Cell::series(time.clone()),
                    Cell::ratio(&times[0], time),
                ]);
            }
        }
        t.note(format!(
            "{card} invocations, bytearray {bytes}, DataIndepComps={indep}, \
             DataDepComps={dep}; speedup is bounded by the host's core count"
        ));
        Ok(t)
    }

    /// Batched-invocation speedup (not in the paper — the `udf::batch`
    /// subsystem): a no-work UDF per trust design at batch sizes {1, 64,
    /// 256, 1024}, so what batching amortises, the crossing, is all there
    /// is. 'crossing speedup' compares times net of the noop baseline run
    /// in the same round (§5.2); batched rows must equal per-tuple rows.
    pub fn batch(&self) -> Result<Table> {
        let card = self.card;
        let bytes = 100usize;
        let sizes = [1usize, 64, 256, 1024];
        let mut t = Table::new(
            "Batched UDF invocation: one crossing per batch (extension)",
            &[
                "design",
                "batch",
                "time",
                "speedup vs batch=1",
                "crossing speedup",
            ],
        );
        let sql = benchmark_query(bytes, card, 0, 0, 0);
        for d in self.trust_designs() {
            let config = |size| Config::default().with_dop(1).with_udf_batch_size(size);
            // A warm pool keeps process-spawn noise out of the measurement;
            // the spawn cost is the `pool` experiment.
            let dbs = sizes
                .iter()
                .map(|&size| engine(config(size), d, 2, card))
                .collect::<Result<Vec<_>>>()?;
            let runs: Vec<Run> =
                std::iter::once(Run::new("baseline", &dbs[0], &sql).def(def_noop()))
                    .chain(sizes.iter().zip(&dbs).map(|(size, db)| {
                        Run::new(format!("{} batch={size}", d.label()), db, &sql).def(def_for(d))
                    }))
                    .map(|r| r.rows(card))
                    .collect();
            let cell = format!("batch {}", d.label());
            let (times, warm) = rounds(&cell, &runs)?;
            agree(&cell, &runs[1..], &warm[1..])?;
            let net: Vec<Vec<f64>> = times[1..].iter().map(|x| minus(x, &times[0])).collect();
            for (i, size) in sizes.iter().enumerate() {
                t.row(vec![
                    d.label().into(),
                    Cell::from(*size),
                    Cell::series(times[i + 1].clone()),
                    Cell::ratio(&times[1], &times[i + 1]),
                    Cell::ratio(&net[0], &net[i]),
                ]);
            }
        }
        t.note(format!(
            "{card} invocations of a no-work UDF, bytearray {bytes}, dop=1; \
             every batched run verified identical to batch=1"
        ));
        Ok(t)
    }

    /// Compiled-tier speedup (not in the paper — the jaguar-tier
    /// compiler). The generic UDF under Design 3 on both engines — the
    /// reference interpreter and the compiled register tier — against
    /// trusted native, each net of the noop baseline in the same round
    /// (§5.2 methodology: that is the cost the tier compiler attacks).
    /// Rows are verified identical across engines.
    pub fn tier(&self) -> Result<Table> {
        let card = self.card;
        let (indep, dep) = (1000i64, 2i64);
        let mut t = Table::new(
            "Tiered JagScript execution: interpreter vs compiled register tier (extension)",
            &["C++", "JSM interp", "JSM compiled", "compiled speedup"],
        );
        let designs = [Design::Cpp, Design::JsmBaseline, Design::Jsm];
        let sql = benchmark_query(100, card, indep, dep, 0);
        t.row(self.net_row("tier", &sql, &designs, &[(1, 2)])?);
        self.per_tuple_note(&mut t, "100");
        t.note(format!(
            "DataIndepComps={indep}, DataDepComps={dep}; the module is compiled \
             when verified and every call runs compiled"
        ));
        Ok(t)
    }

    /// E14 — what the query optimizer recovers (not in the paper — the
    /// `sql::optimize` passes), each pass an unoptimized/optimized pair of
    /// otherwise identical engines with the pair's rows verified identical:
    /// **inline** (a straight-line JagScript UDF `Stable` vs `Immutable`,
    /// which must make zero backend invocations), **memo** (an `Immutable`
    /// generic UDF over zipf-like keys, memo cache off vs on) and
    /// **reorder** (a UDF predicate written first, `Volatile` vs `Stable`).
    pub fn opt(&self) -> Result<Table> {
        use jaguar_common::rng::SplitMix64;
        use jaguar_core::{DataType, Tuple, UdfDesign, UdfSignature};
        use jaguar_udf::Volatility;
        let card = self.card;
        let mut t = Table::new(
            "E14 — optimizer passes: inlining, memoization, predicate reordering (extension)",
            &["pass", "design", "variant", "time", "speedup"],
        );
        // One unoptimized/optimized pair of dop-1 engines, each holding
        // `rel100` and set up by `setup(db, variant)`: paired rounds,
        // identical rows, one table row per variant. Returns the warm-up
        // results.
        let mut pair = |pass: &str,
                        d: Design,
                        variants: [(&str, Config); 2],
                        setup: &dyn Fn(&Database, usize) -> Result<()>,
                        sql: &str| {
            let mut dbs = Vec::new();
            for (i, (_, config)) in variants.iter().enumerate() {
                let db = engine(config.clone().with_dop(1), d, 2, card)?;
                setup(&db, i)?;
                dbs.push(db);
            }
            let runs = [0, 1].map(|i| Run::new(variants[i].0, &dbs[i], sql));
            let cell = format!("{pass}/{}", d.label());
            let (times, warm) = rounds(&cell, &runs)?;
            agree(&cell, &runs, &warm)?;
            for (run, time) in runs.iter().zip(&times) {
                t.row(vec![
                    pass.into(),
                    d.label().into(),
                    run.label.as_str().into(),
                    Cell::series(time.clone()),
                    Cell::ratio(&times[0], time),
                ]);
            }
            Ok::<_, JaguarError>(warm)
        };
        let plain = || [Config::default(), Config::default()];

        // ---- pass 1: in-engine slots -------------------------------------
        for (design, d) in [
            (UdfDesign::Sandboxed, Design::Jsm),
            (UdfDesign::SandboxedIsolated, Design::IJsm),
        ] {
            if !self.runs(d) {
                continue;
            }
            let setup = |db: &Database, variant: usize| {
                db.execute("CREATE TABLE nums (a INT, b INT)")?;
                let table = db.catalog().table("nums")?;
                for i in 0..card as i64 {
                    table.insert(Tuple::new(vec![Value::Int(i), Value::Int(i % 97)]))?;
                }
                db.register_jagscript_udf_with_volatility(
                    "udf_poly",
                    UdfSignature::new(vec![DataType::Int, DataType::Int], DataType::Int),
                    "fn main(a: i64, b: i64) -> i64 {
                        if a < b { return a * 3 + b; }
                        return a - b;
                    }",
                    design,
                    [Volatility::Stable, Volatility::Immutable][variant],
                )
            };
            let [a, b] = plain();
            let variants = [("called", a), ("inlined", b)];
            let warm = pair(
                "inline",
                d,
                variants,
                &setup,
                "SELECT a, udf_poly(a, b) FROM nums",
            )?;
            if warm[1].stats.udf_invocations != 0 {
                return Err(JaguarError::Verification(format!(
                    "inline/{}: inlined run still invoked the backend {} time(s)",
                    d.label(),
                    warm[1].stats.udf_invocations
                )));
            }
        }

        // ---- pass 2: deterministic memoization on zipf-like keys ---------
        // 90% of rows draw their payload from 8 hot keys, 10% from a
        // uniform tail of 1024 — an Immutable UDF re-sees hot arguments
        // constantly, which is exactly what the memo cache amortises.
        let (indep, dep) = (3000i64, 2i64);
        for d in self.trust_designs() {
            let setup = |db: &Database, _| {
                db.execute("CREATE TABLE zipf (id INT, bytearray BYTEARRAY)")?;
                let table = db.catalog().table("zipf")?;
                let mut rng = SplitMix64::new(0x21F);
                for i in 0..card {
                    let key = if rng.next_below(10) < 9 {
                        rng.next_below(8)
                    } else {
                        8 + rng.next_below(1024)
                    };
                    table.insert(Tuple::new(vec![
                        Value::Int(i as i64),
                        Value::Bytes(jaguar_common::ByteArray::patterned(100, key)),
                    ]))?;
                }
                db.register_udf(def_for(d).with_volatility(Volatility::Immutable));
                Ok(())
            };
            let memo = |bytes| Config::default().with_udf_memo_bytes(bytes);
            let variants = [("memo off", memo(0)), ("memo on", memo(1 << 20))];
            let sql = format!("SELECT udf(Z.bytearray, {indep}, {dep}, 0) FROM zipf Z");
            pair("memo", d, variants, &setup, &sql)?;
        }

        // ---- pass 3: cost-based predicate reordering ---------------------
        // The UDF predicate is written FIRST; the cheap native predicate
        // keeps only 5% of rows. Volatile registration pins the UDF at its
        // written position (every row pays a crossing); Stable lets the
        // optimizer run the free predicate first.
        let keep = (card / 20).max(1);
        for d in self.trust_designs() {
            let setup = |db: &Database, variant: usize| {
                let vol = [Volatility::Volatile, Volatility::Stable][variant];
                db.register_udf(def_for(d).with_volatility(vol));
                Ok(())
            };
            let [a, b] = plain();
            let variants = [("pinned (Volatile)", a), ("reordered (Stable)", b)];
            let sql = format!(
                "SELECT R.id FROM rel100 R WHERE udf(R.bytearray, 50, 0, 0) >= 0 AND R.id < {keep}"
            );
            pair("reorder", d, variants, &setup, &sql)?;
        }

        t.note(format!(
            "{card}-row relations, dop=1, isolated designs on a 2-worker pool; every \
             optimized run verified row-identical to its unoptimized twin"
        ));
        t.note(
            "inline: straight-line JagScript, Stable=call path vs Immutable=in-engine \
             (zero backend invocations enforced); memo: zipf-like 90/10 keys, \
             cache off vs on; reorder: UDF predicate written first, Volatile=pinned \
             vs Stable=reorderable",
        );
        Ok(t)
    }

    /// Security overhead (not in the paper — `sql::label`'s row labels)
    /// against an unsecured twin computing the same rows: a labeled scan
    /// run as a tenant vs the same query with the tenant predicate written
    /// by hand (so the delta is authorization + rewrite, not filtering).
    pub fn sec(&self) -> Result<Table> {
        use jaguar_core::Tuple;
        let card = self.card;
        let mut t = Table::new(
            "Security overhead: row labels (extension)",
            &["measurement", "secured", "unsecured", "overhead"],
        );

        let db = Database::with_config(Config::default().with_dop(1));
        db.execute("CREATE TABLE sec_rel (id INT, tenant VARCHAR, bytearray BYTEARRAY)")?;
        let rel = db.catalog().table("sec_rel")?;
        for i in 0..card {
            let tenant = if i % 2 == 0 { "tech" } else { "energy" };
            rel.insert(Tuple::new(vec![
                Value::Int(i as i64),
                Value::Str(tenant.into()),
                Value::Bytes(jaguar_core::ByteArray::patterned(100, i as u64)),
            ]))?;
        }
        db.register_udf(def_for(Design::Cpp));
        db.set_table_label(
            "sec_rel",
            Some("tenant = session.tenant OR session.role = 'admin'"),
        )?;
        let alice = SessionContext::new("alice")
            .with_attr("tenant", "tech")
            .with_attr("role", "member");
        let secured = Run {
            session: Some(&alice),
            ..Run::new(
                "row label",
                &db,
                "SELECT id, udf(bytearray, 50, 1, 0) FROM sec_rel WHERE id % 3 <> 1",
            )
        };
        let twin = Run::new(
            "hand-filtered twin",
            &db,
            "SELECT id, udf(bytearray, 50, 1, 0) FROM sec_rel \
             WHERE tenant = 'tech' AND id % 3 <> 1",
        );
        let runs = [secured, twin];
        let (times, warm) = rounds("sec labels", &runs)?;
        agree("sec labels", &runs, &warm)?;
        t.row(vec![
            "row label (rewrite + filter)".into(),
            Cell::series(times[0].clone()),
            Cell::series(times[1].clone()),
            Cell::ratio(&times[0], &times[1]),
        ]);
        t.note(format!(
            "label run: {card}-row relation, {REPS} paired rounds, rows verified against the \
             hand-filtered twin; target overhead < 1.10"
        ));
        Ok(t)
    }

    /// Every experiment, in paper order.
    pub fn all(&self) -> Result<Vec<Table>> {
        EXPERIMENTS.iter().map(|(id, _)| self.by_name(id)).collect()
    }

    /// Run one experiment by id and write its `BENCH_<id>.json`.
    pub fn by_name(&self, name: &str) -> Result<Table> {
        let Some((id, run)) = EXPERIMENTS.iter().find(|(id, _)| *id == name) else {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            return Err(JaguarError::Other(format!(
                "unknown experiment '{name}' (try {})",
                ids.join(", ")
            )));
        };
        let mut table = run(self)?;
        if !self.worker_available {
            table.note(
                "IC++ and IJSM skipped: jaguar-worker binary not found (cargo build --workspace)",
            );
        }
        let path = table.write_json(id, self.scale.name(), REPS)?;
        table.note(format!("machine-readable copy written to {path}"));
        Ok(table)
    }
}

/// Paired rounds of a baseline and some designs on one query.
#[derive(Debug)]
struct Paired {
    base: Vec<f64>,
    raw: Vec<Option<Vec<f64>>>,
}

impl Paired {
    /// Design `i`'s per-round time net of that round's baseline.
    fn net(&self, i: usize) -> Option<Vec<f64>> {
        self.raw[i].as_ref().map(|raw| minus(raw, &self.base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20-tuple relations, used only by these self-tests.
    fn tiny_ctx() -> ExperimentCtx {
        ExperimentCtx::with_cardinality(Scale::Quick, 20).unwrap()
    }

    #[test]
    fn designs_have_distinct_labels() {
        let labels: Vec<_> = [
            Design::Cpp,
            Design::BcCpp,
            Design::SfiCpp,
            Design::ICpp,
            Design::Jsm,
            Design::JsmBaseline,
            Design::JsmNoFuel,
            Design::JsmBaselineNoFuel,
            Design::IJsm,
        ]
        .iter()
        .map(|d| d.label())
        .collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn paired_cells_have_reps_samples_and_net_is_per_round() {
        let ctx = tiny_ctx();
        let sql = benchmark_query(100, 20, 3, 1, 0);
        let designs = [Design::Cpp, Design::Jsm, Design::JsmBaseline];
        let p = ctx.paired("test", &sql, &designs).unwrap();
        assert_eq!(p.base.len(), REPS);
        for i in 0..designs.len() {
            let raw = p.raw[i].as_ref().unwrap();
            let net = p.net(i).unwrap();
            assert_eq!(net.len(), REPS);
            for ((n, r), b) in net.iter().zip(raw).zip(&p.base) {
                assert_eq!(*n, r - b);
            }
        }
    }

    #[test]
    fn a_wrong_row_count_is_an_error_naming_the_cell() {
        let ctx = tiny_ctx();
        // 20-row relations: a figure cell wants 20 rows, not 7.
        let sql = benchmark_query(1, 7, 0, 0, 0);
        let err = ctx.paired("cell-x", &sql, &[Design::Cpp]).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("cell-x") && text.contains("7 rows"), "{text}");
    }

    #[test]
    fn a_figure_cell_invokes_per_tuple() {
        let ctx = tiny_ctx();
        let crossings = || {
            jaguar_common::obs::global()
                .snapshot()
                .sum_counters("udf.batch.crossings.")
        };
        let invocations = || {
            jaguar_common::obs::global()
                .snapshot()
                .sum_counters("udf.invocations.")
        };
        let (xing, calls) = (crossings(), invocations());
        let sql = benchmark_query(100, 20, 0, 0, 0);
        ctx.paired("per-tuple", &sql, &[Design::Cpp, Design::Jsm])
            .unwrap();
        assert_eq!(crossings(), xing, "a figure cell crossed in batches");
        assert!(invocations() > calls);
    }

    #[test]
    fn unknown_experiment_name_errors() {
        let ctx = tiny_ctx();
        let err = ctx.by_name("fig99").unwrap_err().to_string();
        for (id, _) in EXPERIMENTS {
            assert!(err.contains(id), "{err} lacks {id}");
        }
    }

    #[test]
    fn table1_produces_four_rows() {
        let ctx = tiny_ctx();
        let t = ctx.table1().unwrap();
        assert_eq!(t.rows.len(), 4);
        let timed = t
            .rows
            .iter()
            .filter(|r| matches!(&r[4], Cell::Series(s) if s.n() == REPS));
        let expected = if ctx.worker_available { 4 } else { 2 };
        assert_eq!(timed.count(), expected);
    }
}
