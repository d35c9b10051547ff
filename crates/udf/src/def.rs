//! UDF definitions: what the catalog stores, and how the executor turns a
//! definition into a per-query [`ScalarUdf`] instance.

use std::sync::{Arc, OnceLock};

use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::retry::{self, RetryPolicy};
use jaguar_common::Value;
use jaguar_ipc::executor::WorkerProcess;
use jaguar_ipc::proto::CallbackHandler;
use jaguar_pool::{PooledWorker, WorkerPool};
use jaguar_vec::{BatchError, BatchResult, ValueBatch};
use jaguar_vm::interp::ExecMode;
use jaguar_vm::{PermissionSet, ResourceLimits, VerifiedModule};

use crate::api::{ScalarUdf, UdfSignature};
use crate::breaker::CircuitBreaker;
use crate::native::NativeUdf;
use crate::vmexec::VmUdf;

/// Everything needed to run a UDF under the sandboxed VM.
#[derive(Clone)]
pub struct VmUdfSpec {
    /// The verified module (kept verified so instantiation is cheap; the
    /// raw bytes are retained for Design 4 shipping).
    pub module: Arc<VerifiedModule>,
    pub module_bytes: Arc<Vec<u8>>,
    pub function: String,
    pub limits: ResourceLimits,
    pub jit: bool,
    pub permissions: Option<Arc<PermissionSet>>,
    /// Invocations before a function is promoted to the compiled register
    /// tier (`Some(0)` = first call, `None` = never). Only meaningful with
    /// `jit`; carried to the worker for Design 4.
    pub tier_up_after: Option<u64>,
}

impl VmUdfSpec {
    /// Override the compiled-tier hotness threshold (see
    /// [`VmUdfSpec::tier_up_after`]).
    pub fn with_tier_up(mut self, calls: Option<u64>) -> VmUdfSpec {
        self.tier_up_after = calls;
        self
    }
}

/// The execution design chosen for a UDF (the paper's Table 1).
#[derive(Clone)]
pub enum UdfImpl {
    /// Design 1 ("C++"): trusted closure in the server process.
    Native(NativeUdf),
    /// Design 2 ("IC++"): native code in a per-query worker process.
    /// `worker_fn` names an entry in the worker binary's registry.
    IsolatedNative { worker_fn: String },
    /// Design 3 ("JNI"): verified bytecode in the server process.
    Vm(VmUdfSpec),
    /// Design 4: verified bytecode in a per-query worker process.
    IsolatedVm(VmUdfSpec),
}

impl UdfImpl {
    /// Short label used in plans and reports (paper terminology).
    pub fn design_label(&self) -> &'static str {
        match self {
            UdfImpl::Native(_) => "C++",
            UdfImpl::IsolatedNative { .. } => "IC++",
            UdfImpl::Vm(_) => "JSM",
            UdfImpl::IsolatedVm(_) => "IJSM",
        }
    }

    /// Whether this design runs in a separate worker process — and so
    /// draws one checkout per execution context from the worker pool when
    /// one is attached. The parallel planner clamps a query's dop to the
    /// pool size when any of its UDFs answers true, so a thread team can
    /// never deadlock on its own checkouts.
    pub fn needs_worker(&self) -> bool {
        matches!(
            self,
            UdfImpl::IsolatedNative { .. } | UdfImpl::IsolatedVm(_)
        )
    }

    /// Whether invoking this design costs no more than a plain function
    /// call — no process crossing, no interpreter entry. Batching exists
    /// to amortize a per-invocation boundary cost; when the crossing is
    /// free there is nothing to amortize and accumulating a `ValueBatch`
    /// is pure overhead (BENCH_batch measured the trusted-native design
    /// *slowing down* ~7% under batching), so the planner keeps these on
    /// the per-tuple path.
    pub fn crossing_is_free(&self) -> bool {
        matches!(self, UdfImpl::Native(_))
    }
}

/// How a UDF's result may vary across invocations within one statement —
/// the purity/determinism declaration ROADMAP item 2 calls for (the
/// PostgreSQL volatility classes). The planner only batches
/// `Immutable`/`Stable` UDFs across filter short-circuit boundaries:
/// a `Volatile` UDF's per-row evaluation order is observable, so it keeps
/// the strict per-tuple cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Volatility {
    /// Pure function of its arguments, forever (`abs`, checksums).
    /// Safe to batch, memoize, and inline (Froid-style) later.
    Immutable,
    /// Fixed within one statement, may vary across statements (catalog
    /// lookups, `now()`-relative logic). Safe to batch within a statement.
    Stable,
    /// May return different results or have observable effects on every
    /// call. Never batched, never memoized. The safe default.
    #[default]
    Volatile,
}

impl Volatility {
    /// Whether the executor may evaluate this UDF set-at-a-time (batched)
    /// instead of strictly tuple-at-a-time. Defined as `!pinned()` so the
    /// batching gate and the planner's reorder guard share one predicate.
    pub fn batchable(self) -> bool {
        !self.pinned()
    }

    /// Whether the planner must keep this UDF at its written position:
    /// a `Volatile` UDF's per-row evaluation order (and count) is
    /// observable, so it is never reordered, short-circuited past its
    /// written slot, batched, memoized, or inlined.
    pub fn pinned(self) -> bool {
        matches!(self, Volatility::Volatile)
    }

    /// Whether results may be served from the cross-statement memo cache
    /// (and the body inlined): only `Immutable` promises arg-determinism
    /// beyond a single statement.
    pub fn memoizable(self) -> bool {
        matches!(self, Volatility::Immutable)
    }
}

/// A registered UDF: name + SQL signature + execution design.
#[derive(Clone)]
pub struct UdfDef {
    pub name: String,
    pub signature: UdfSignature,
    pub imp: UdfImpl,
    /// The registry-owned circuit breaker guarding this UDF, populated by
    /// `UdfCatalog::get` so it rides along into the executor with no
    /// extra plumbing. `None` for defs built outside a catalog.
    pub breaker: Option<Arc<CircuitBreaker>>,
    /// Purity declaration; gates vectorized invocation. Defaults to
    /// [`Volatility::Volatile`] (never batched) for safety.
    pub volatility: Volatility,
    /// The Froid translation of the body (see [`UdfDef::inline_body`]),
    /// made on first use and shared by every clone of this definition.
    inline: Arc<OnceLock<InlineVerdict>>,
}

/// A UDF body as a native expression, or why it has none.
type InlineVerdict = std::result::Result<Arc<jaguar_opt::InlineBody>, &'static str>;

/// Retry budget for *acquiring* an isolated executor — a pool checkout or
/// a process spawn, strictly before any UDF code runs. Transient spawn
/// failures (EAGAIN under fork pressure, a momentarily-busy binary) are
/// worth a short backoff; pool-saturation timeouts are not retried (the
/// checkout already waited its configured budget, and doubling it here
/// would just deepen the overload). Because nothing in this path is an
/// invocation, retrying cannot mask a circuit-breaker trip: the breaker
/// counts invoke failures, which pass through untouched.
fn acquire_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_delay_ms: 5,
        max_delay_ms: 200,
        ..RetryPolicy::default()
    }
}

fn checkout_worker(pool: &Arc<WorkerPool>) -> Result<PooledWorker> {
    acquire_retry().run(
        "udf.pool.checkout",
        retry::is_transient_worker_acquire,
        || pool.checkout(),
    )
}

fn spawn_worker() -> Result<WorkerProcess> {
    acquire_retry().run(
        "udf.worker.spawn",
        retry::is_transient_worker_acquire,
        WorkerProcess::spawn,
    )
}

impl UdfDef {
    pub fn new(name: impl Into<String>, signature: UdfSignature, imp: UdfImpl) -> UdfDef {
        UdfDef {
            name: name.into(),
            signature,
            imp,
            breaker: None,
            volatility: Volatility::default(),
            inline: Arc::default(),
        }
    }

    /// The body of an `Immutable` JagScript UDF as a native scalar
    /// expression the executor can evaluate without any backend
    /// (`jaguar_opt::try_inline`), or the reason it cannot be one. The
    /// symbolic execution runs once per registered UDF, not per statement:
    /// everything it depends on — the verified module, the resource limits,
    /// the SQL return type — is fixed at registration. `None` for native
    /// designs and for declarations entitled to notice an elided backend.
    pub fn inline_body(&self) -> Option<&InlineVerdict> {
        let (UdfImpl::Vm(spec) | UdfImpl::IsolatedVm(spec)) = &self.imp else {
            return None;
        };
        if !self.volatility.memoizable() {
            return None;
        }
        let fidx = spec.module.find_function(&spec.function)?;
        Some(self.inline.get_or_init(|| {
            let func = &spec.module.functions()[fidx as usize];
            jaguar_opt::try_inline(func, self.signature.ret, &spec.limits).map(Arc::new)
        }))
    }

    /// Attach the registry's circuit breaker (see [`UdfDef::breaker`]).
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> UdfDef {
        self.breaker = Some(breaker);
        self
    }

    /// Declare the UDF's volatility class (see [`Volatility`]).
    pub fn with_volatility(mut self, volatility: Volatility) -> UdfDef {
        self.volatility = volatility;
        self
    }

    /// Create the per-query execution instance. For isolated designs this
    /// spawns the worker process (the paper's per-query remote executor).
    pub fn instantiate(&self) -> Result<Box<dyn ScalarUdf>> {
        self.instantiate_with(None)
    }

    /// Like [`UdfDef::instantiate`], but isolated designs acquire their
    /// executor from `pool` (a warm worker checked out for the query and
    /// returned at `finish`) instead of spawning a fresh process.
    pub fn instantiate_with(&self, pool: Option<&Arc<WorkerPool>>) -> Result<Box<dyn ScalarUdf>> {
        match &self.imp {
            UdfImpl::Native(n) => Ok(Box::new(n.clone())),
            UdfImpl::Vm(spec) => Ok(Box::new(VmUdf::new(
                self.name.clone(),
                self.signature.clone(),
                Arc::clone(&spec.module),
                spec.function.clone(),
                spec.limits,
                if spec.jit {
                    ExecMode::Jit
                } else {
                    ExecMode::Baseline
                },
                spec.permissions.clone(),
                spec.tier_up_after,
            )?)),
            UdfImpl::IsolatedNative { worker_fn } => match pool {
                Some(pool) => {
                    let mut worker = checkout_worker(pool)?;
                    worker.load_native(worker_fn)?;
                    Ok(Box::new(PooledIsolatedUdf {
                        name: self.name.clone(),
                        signature: self.signature.clone(),
                        worker,
                        cancel: CancelToken::unbounded(),
                    }))
                }
                None => {
                    let mut worker = spawn_worker()?;
                    worker.load_native(worker_fn)?;
                    Ok(Box::new(IsolatedUdf {
                        name: self.name.clone(),
                        signature: self.signature.clone(),
                        worker,
                        cancel: CancelToken::unbounded(),
                    }))
                }
            },
            UdfImpl::IsolatedVm(spec) => match pool {
                Some(pool) => {
                    let mut worker = checkout_worker(pool)?;
                    worker.load_vm(
                        &spec.module_bytes,
                        &spec.function,
                        spec.jit,
                        spec.limits.fuel,
                        spec.limits.memory,
                        spec.tier_up_after,
                    )?;
                    Ok(Box::new(PooledIsolatedUdf {
                        name: self.name.clone(),
                        signature: self.signature.clone(),
                        worker,
                        cancel: CancelToken::unbounded(),
                    }))
                }
                None => {
                    let mut worker = spawn_worker()?;
                    worker.load_vm(
                        &spec.module_bytes,
                        &spec.function,
                        spec.jit,
                        spec.limits.fuel,
                        spec.limits.memory,
                        spec.tier_up_after,
                    )?;
                    Ok(Box::new(IsolatedUdf {
                        name: self.name.clone(),
                        signature: self.signature.clone(),
                        worker,
                        cancel: CancelToken::unbounded(),
                    }))
                }
            },
        }
    }
}

/// A UDF running in a worker process (Designs 2 and 4).
struct IsolatedUdf {
    name: String,
    signature: UdfSignature,
    worker: WorkerProcess,
    cancel: CancelToken,
}

impl ScalarUdf for IsolatedUdf {
    fn name(&self) -> &str {
        &self.name
    }

    fn signature(&self) -> &UdfSignature {
        &self.signature
    }

    fn invoke(&mut self, args: &[Value], callbacks: &mut dyn CallbackHandler) -> Result<Value> {
        // Per-query workers have no supervisor to kill them mid-invoke;
        // the token is still honoured between tuples.
        self.cancel.check()?;
        self.signature.check_args(&self.name, args)?;
        // The argument copy into the pipe is the "copy into shared memory"
        // of the paper's Design 2.
        self.worker.invoke(args.to_vec(), callbacks)
    }

    fn invoke_batch(
        &mut self,
        batch: &ValueBatch,
        callbacks: &mut dyn CallbackHandler,
    ) -> BatchResult {
        let (rows, bad) = checked_prefix(&self.name, &self.signature, batch);
        if let Err(e) = self.cancel.check() {
            return Err(BatchError::before_any(e));
        }
        finish_checked(self.worker.invoke_batch(rows, callbacks), bad)
    }

    fn attach_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    fn finish(self: Box<Self>) -> Result<()> {
        self.worker.shutdown()
    }
}

/// Split a batch at the first row whose arguments fail the signature
/// check: per-tuple semantics demand that rows before the bad one still
/// execute (with their side effects) before the check error surfaces, so
/// the isolated designs ship the valid prefix and report the check error
/// at its true row index afterwards.
fn checked_prefix(
    name: &str,
    signature: &UdfSignature,
    batch: &ValueBatch,
) -> (Vec<Vec<Value>>, Option<(usize, JaguarError)>) {
    let mut rows = Vec::with_capacity(batch.len());
    let mut args = Vec::with_capacity(batch.arity());
    for i in 0..batch.len() {
        batch.read_row(i, &mut args);
        if let Err(e) = signature.check_args(name, &args) {
            return (rows, Some((i, e)));
        }
        rows.push(std::mem::take(&mut args));
    }
    (rows, None)
}

/// Combine a worker's batch reply with a deferred signature-check error.
///
/// Precedence mirrors the per-tuple path: an error the worker hit while
/// running the shipped prefix comes first (it happened at an earlier row);
/// otherwise the deferred check error surfaces at its true row index. A
/// worker row error carries its index as the completed-value count;
/// transport-level failures (dead worker) have no row attribution and are
/// positioned before any row.
fn finish_checked(
    out: Result<(Vec<Value>, Option<String>)>,
    bad: Option<(usize, JaguarError)>,
) -> BatchResult {
    match out {
        Ok((values, None)) => match bad {
            None => Ok(values),
            Some((row, e)) => Err(BatchError::new(row, e)),
        },
        Ok((values, Some(message))) => {
            Err(BatchError::new(values.len(), JaguarError::Worker(message)))
        }
        Err(e) => Err(BatchError::before_any(e)),
    }
}

/// A UDF running in a pool-managed worker process: same designs as
/// [`IsolatedUdf`], but the executor is borrowed from a [`WorkerPool`] and
/// returned (reset, ready for the next query) instead of being torn down.
struct PooledIsolatedUdf {
    name: String,
    signature: UdfSignature,
    worker: PooledWorker,
    cancel: CancelToken,
}

impl ScalarUdf for PooledIsolatedUdf {
    fn name(&self) -> &str {
        &self.name
    }

    fn signature(&self) -> &UdfSignature {
        &self.signature
    }

    fn invoke(&mut self, args: &[Value], callbacks: &mut dyn CallbackHandler) -> Result<Value> {
        self.cancel.check()?;
        self.signature.check_args(&self.name, args)?;
        // Deadline propagation: the supervisor kills the worker at
        // min(remaining statement budget, pool invoke timeout), so a
        // wedged UDF cannot outlive its statement.
        self.worker
            .invoke_with_deadline(args.to_vec(), callbacks, self.cancel.remaining())
    }

    fn invoke_batch(
        &mut self,
        batch: &ValueBatch,
        callbacks: &mut dyn CallbackHandler,
    ) -> BatchResult {
        let (rows, bad) = checked_prefix(&self.name, &self.signature, batch);
        if let Err(e) = self.cancel.check() {
            return Err(BatchError::before_any(e));
        }
        // One deadline arm around the whole batch: the supervisor still
        // kills a wedged worker at min(statement budget, pool timeout),
        // it just can no longer distinguish which row wedged.
        let out = self
            .worker
            .invoke_batch_with_deadline(rows, callbacks, self.cancel.remaining());
        finish_checked(out, bad)
    }

    fn attach_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    fn finish(self: Box<Self>) -> Result<()> {
        // Dropping the guard checks the worker back in (Reset + re-idle)
        // or, if it died this query, lets the supervisor replace it.
        drop(self.worker);
        Ok(())
    }
}

/// Helper: build a [`VmUdfSpec`] from an unverified module. Hot functions
/// tier up after the default threshold; use [`VmUdfSpec::with_tier_up`] to
/// override.
pub fn vm_spec(
    module: jaguar_vm::Module,
    function: impl Into<String>,
    limits: ResourceLimits,
    jit: bool,
    permissions: Option<Arc<PermissionSet>>,
) -> Result<VmUdfSpec> {
    let bytes = module.to_bytes();
    let verified = Arc::new(module.verify()?);
    Ok(VmUdfSpec {
        module: verified,
        module_bytes: Arc::new(bytes),
        function: function.into(),
        limits,
        jit,
        permissions,
        tier_up_after: Some(jaguar_vm::DEFAULT_TIER_UP_AFTER),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::DataType;
    use jaguar_ipc::proto::NoCallbacks;

    #[test]
    fn native_def_instantiates_cheaply() {
        let def = UdfDef::new(
            "inc",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            UdfImpl::Native(NativeUdf::new(
                "inc",
                UdfSignature::new(vec![DataType::Int], DataType::Int),
                |args, _| Ok(Value::Int(args[0].as_int()? + 1)),
            )),
        );
        let mut u = def.instantiate().unwrap();
        assert_eq!(
            u.invoke(&[Value::Int(41)], &mut NoCallbacks).unwrap(),
            Value::Int(42)
        );
        assert_eq!(def.imp.design_label(), "C++");
    }

    #[test]
    fn vm_def_instantiates() {
        let module = jaguar_lang::compile("m", "fn main(x: i64) -> i64 { return x * x; }").unwrap();
        let spec = vm_spec(module, "main", ResourceLimits::default(), true, None).unwrap();
        let def = UdfDef::new(
            "square",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            UdfImpl::Vm(spec),
        );
        let mut u = def.instantiate().unwrap();
        assert_eq!(
            u.invoke(&[Value::Int(7)], &mut NoCallbacks).unwrap(),
            Value::Int(49)
        );
        assert_eq!(def.imp.design_label(), "JSM");
    }

    #[test]
    fn labels() {
        assert_eq!(
            UdfImpl::IsolatedNative {
                worker_fn: "x".into()
            }
            .design_label(),
            "IC++"
        );
    }
}
