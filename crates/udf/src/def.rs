//! UDF definitions: what the catalog stores, and how the executor turns a
//! definition into a per-query [`ScalarUdf`] instance.

use std::sync::Arc;

use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::retry::{self, RetryPolicy};
use jaguar_common::stream::{
    read_blob, read_str, read_u32, read_u64, read_u8, write_blob, write_str, write_u32, write_u64,
    write_u8,
};
use jaguar_common::{DataType, Value};
use jaguar_ipc::pool::{PooledWorker, WorkerPool};
use jaguar_ipc::proto::CallbackHandler;
use jaguar_ipc::{Expired, WorkerProcess};
use jaguar_vm::interp::ExecMode;
use jaguar_vm::{Module, Permission, PermissionSet, ResourceLimits, VerifiedModule};

use crate::api::{ScalarUdf, UdfSignature};
use crate::batch::{BatchError, BatchResult, ValueBatch};
use crate::generic::worker_registry;
use crate::native::{NativeFn, NativeUdf};
use crate::vmexec::VmUdf;
use crate::worker::{Hosted, WorkerRegistry};

/// Everything needed to run a UDF under the sandboxed VM.
#[derive(Clone)]
pub struct VmUdfSpec {
    /// The verified module (kept verified so instantiation is cheap; the
    /// raw bytes are retained to ship to a worker or a client).
    pub module: Arc<VerifiedModule>,
    pub module_bytes: Arc<Vec<u8>>,
    pub function: String,
    pub limits: ResourceLimits,
    pub jit: bool,
    pub permissions: Option<Arc<PermissionSet>>,
}

/// The last module a worker verified, keyed by the bytes shipped: a pooled
/// worker reloaded with the same module after a Reset skips verifying and
/// compiling it again. A worker hosts one UDF at a time.
pub(crate) type ModuleCache = Option<Verified>;
type Verified = (Arc<Vec<u8>>, Arc<VerifiedModule>);

/// Verify (and so compile) `bytes`, or reuse what identical bytes gave.
pub(crate) fn verified(cache: &mut ModuleCache, bytes: Vec<u8>) -> Result<Verified> {
    if let Some(hit) = cache.as_ref().filter(|(cached, _)| **cached == bytes) {
        return Ok(hit.clone());
    }
    let module = Arc::new(Module::from_bytes(&bytes)?.verify()?);
    Ok(cache.insert((Arc::new(bytes), module)).clone())
}

/// A load body's tags for a native and a bytecode body, and the number an
/// absent limit crosses as (a limit that large never binds).
const LOAD_NATIVE: u8 = 1;
const LOAD_VM: u8 = 2;
const NO_LIMIT: u64 = u64::MAX;

/// A permission's tag in a load body, and its one text (or none).
fn grant_parts(grant: &Permission) -> (u8, &str) {
    match grant {
        Permission::Callback => (0, ""),
        Permission::HostCall(name) => (1, name),
        Permission::FileRead(prefix) => (2, prefix),
        Permission::FileWrite(prefix) => (3, prefix),
        Permission::SpawnThread => (4, ""),
    }
}

fn grant_from(tag: u8, text: String) -> Result<Permission> {
    let unknown = || JaguarError::Protocol(format!("unknown permission tag {tag}"));
    Ok(match tag {
        0 => Permission::Callback,
        1 => Permission::HostCall(text),
        2 => Permission::FileRead(text),
        3 => Permission::FileWrite(text),
        4 => Permission::SpawnThread,
        _ => return Err(unknown()),
    })
}

/// What a UDF runs: the first axis of the paper's Table 1.
#[derive(Clone)]
pub enum Body {
    Native(Native),
    Bytecode(VmUdfSpec),
}

/// Native code: an entry of the registry the server and the worker binary
/// both link ([`crate::worker_registry`]), as PREDATOR linked the same C++
/// into both, or a closure, which only the server has.
#[derive(Clone)]
pub enum Native {
    Registered(String),
    Closure(Arc<NativeFn>),
}

/// Where a UDF runs: the second axis of Table 1. `jaguar_core::UdfDesign`
/// names the two for a bytecode body `Sandboxed` and `SandboxedIsolated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    Server,
    Worker,
}

#[allow(non_upper_case_globals)]
impl Placement {
    pub const Sandboxed: Placement = Placement::Server;
    pub const SandboxedIsolated: Placement = Placement::Worker;
}

/// One cell of Table 1, from which everything design-shaped is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Design {
    pub bytecode: bool,
    pub placement: Placement,
}

impl Design {
    /// Design 1: also what any call that crosses nothing costs.
    pub const NATIVE_IN_SERVER: Design = Design {
        bytecode: false,
        placement: Placement::Server,
    };

    /// The number in Table 1: native before bytecode, server before worker.
    pub fn number(self) -> usize {
        1 + 2 * usize::from(self.bytecode) + usize::from(self.needs_worker())
    }

    pub fn label(self) -> &'static str {
        ["C++", "IC++", "JSM", "IJSM"][self.number() - 1]
    }

    /// The suffix of the design's `udf.*` metric names.
    pub fn slug(self) -> &'static str {
        ["cpp", "icpp", "jsm", "ijsm"][self.number() - 1]
    }

    /// The cost (µs) a UDF ranks by until it has run: a crossing costs
    /// more than the VM, cpp < jsm < icpp < ijsm.
    pub fn cold_start_us(self) -> f64 {
        [1.0, 50.0, 25.0, 75.0][self.number() - 1]
    }

    /// Each execution context checks a worker out of the pool, so the
    /// parallel planner clamps the dop to the pool size.
    pub fn needs_worker(self) -> bool {
        self.placement == Placement::Worker
    }

    /// A call costs a function call: batching has nothing to amortize
    /// (Design 1 measured ~7% slower batched), so it stays per tuple.
    pub fn crossing_is_free(self) -> bool {
        self == Design::NATIVE_IN_SERVER
    }
}

/// A UDF's body in its placement. A closure can only be built in the
/// server, so no worker is ever asked for code it does not have.
#[derive(Clone)]
pub struct UdfImpl(Body, Placement);

impl UdfImpl {
    /// A native closure, in the server (Design 1).
    pub fn closure(
        f: impl Fn(&[Value], &mut dyn CallbackHandler) -> Result<Value> + Send + Sync + 'static,
    ) -> UdfImpl {
        UdfImpl(
            Body::Native(Native::Closure(Arc::new(f))),
            Placement::Server,
        )
    }

    /// The registry's native `entry` in `placement` (Design 1 or 2).
    pub fn registered(entry: impl Into<String>, placement: Placement) -> UdfImpl {
        UdfImpl(Body::Native(Native::Registered(entry.into())), placement)
    }

    /// Verified bytecode in `placement` (Design 3 or 4).
    pub fn bytecode(spec: VmUdfSpec, placement: Placement) -> UdfImpl {
        UdfImpl(Body::Bytecode(spec), placement)
    }

    pub fn body(&self) -> &Body {
        &self.0
    }

    pub fn design(&self) -> Design {
        let bytecode = matches!(self.0, Body::Bytecode(_));
        Design {
            bytecode,
            placement: self.1,
        }
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
    /// Safe to batch and memoize; a straight-line JagScript body runs
    /// in-engine ([`UdfDef::runs_in_engine`]).
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
    /// written slot, batched, memoized, or run in-engine.
    pub fn pinned(self) -> bool {
        matches!(self, Volatility::Volatile)
    }

    /// Whether results may be served from the cross-statement memo cache
    /// (and a straight-line body run in-engine): only `Immutable` promises
    /// arg-determinism beyond a single statement.
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
    /// Purity declaration; gates vectorized invocation. Defaults to
    /// [`Volatility::Volatile`] (never batched) for safety.
    pub volatility: Volatility,
}

/// Get a worker for one query: a checkout from `pool`, or a spawn. This
/// retries *acquiring* it, strictly before any UDF code runs: transient
/// spawn failures (EAGAIN under fork pressure, a momentarily-busy binary)
/// are worth a short backoff; pool-saturation timeouts are not retried
/// (the checkout already waited its configured budget, and doubling it
/// would just deepen the overload). Invoke failures are never retried.
fn acquire_worker(pool: Option<&Arc<WorkerPool>>) -> Result<Lease> {
    let retry = RetryPolicy {
        max_attempts: 3,
        base_delay_ms: 5,
        max_delay_ms: 200,
        ..RetryPolicy::default()
    };
    let transient = retry::is_transient_worker_acquire;
    match pool {
        Some(pool) => {
            (retry.run("udf.pool.checkout", transient, || pool.checkout())).map(Lease::Pooled)
        }
        None => (retry.run("udf.worker.spawn", transient, WorkerProcess::spawn)).map(Lease::Owned),
    }
}

impl UdfDef {
    pub fn new(name: impl Into<String>, signature: UdfSignature, imp: UdfImpl) -> UdfDef {
        UdfDef {
            name: name.into(),
            signature,
            imp,
            volatility: Volatility::default(),
        }
    }

    /// Whether the engine may run this JagScript UDF *in-engine* (see
    /// [`UdfDef::instantiate_in_engine`]): `Some(true)` for an `Immutable`
    /// one whose function the verifier found straight-line
    /// ([`jaguar_vm::Cfg::straight_line`]), which depends on its
    /// arguments alone. `None` for native bodies and for declarations
    /// entitled to notice an elided backend — worker, invocation counts,
    /// connection state.
    pub fn runs_in_engine(&self) -> Option<bool> {
        let Body::Bytecode(spec) = &self.imp.0 else {
            return None;
        };
        if !self.volatility.memoizable() {
            return None;
        }
        let fidx = spec.module.find_function(&spec.function)?;
        Some(spec.module.cfg(fidx).straight_line)
    }

    /// The in-engine instance of a JagScript UDF: its bytecode in the server
    /// even when placed in a worker, with Design 3's values, fuel and errors.
    pub fn instantiate_in_engine(&self) -> Result<Box<dyn ScalarUdf>> {
        let Body::Bytecode(_) = &self.imp.0 else {
            let e = format!("udf '{}' has no bytecode to run in-engine", self.name);
            return Err(JaguarError::Udf(e));
        };
        self.in_process()
    }

    /// Declare the UDF's volatility class (see [`Volatility`]).
    pub fn with_volatility(mut self, volatility: Volatility) -> UdfDef {
        self.volatility = volatility;
        self
    }

    /// The definition a worker loads to run this UDF (see `Request::Load`):
    /// its name and SQL signature, then a native body's registry entry, or
    /// a bytecode body's module, function and tier, its whole
    /// `ResourceLimits`, and its permission set, principal and grants.
    pub fn load_body(&self) -> Result<Vec<u8>> {
        let w = &mut Vec::new();
        write_str(w, &self.name)?;
        let params: Vec<u8> = self.signature.params.iter().map(|t| t.tag()).collect();
        write_blob(w, &params)?;
        write_u8(w, self.signature.ret.tag())?;
        let spec = match &self.imp.0 {
            Body::Native(Native::Registered(entry)) => {
                write_u8(w, LOAD_NATIVE)?;
                write_str(w, entry)?;
                return Ok(std::mem::take(w));
            }
            Body::Native(Native::Closure(_)) => {
                let e = format!("udf '{}' is a closure, which no worker has", self.name);
                return Err(JaguarError::Udf(e));
            }
            Body::Bytecode(spec) => spec,
        };
        write_u8(w, LOAD_VM)?;
        write_blob(w, &spec.module_bytes)?;
        write_str(w, &spec.function)?;
        let limits = spec.limits;
        for n in [
            spec.jit as u64,
            limits.fuel.unwrap_or(NO_LIMIT),
            limits.memory.map_or(NO_LIMIT, |m| m as u64),
            limits.max_call_depth as u64,
        ] {
            write_u64(w, n)?;
        }
        let perms = spec.permissions.as_deref();
        write_str(w, perms.map_or("", PermissionSet::principal))?;
        let grants = perms.map(PermissionSet::grants);
        // A count of u32::MAX stands for no permission set at all.
        write_u32(w, grants.map_or(u32::MAX, |g| g.len() as u32))?;
        for (tag, text) in grants.into_iter().flatten().map(grant_parts) {
            write_u8(w, tag)?;
            write_str(w, text)?;
        }
        Ok(std::mem::take(w))
    }

    /// The UDF a load body defines, placed in the process that decodes it.
    pub(crate) fn from_load_body(mut r: &[u8], cache: &mut ModuleCache) -> Result<UdfDef> {
        let r = &mut r;
        let name = read_str(r)?;
        let params = read_blob(r)?.into_iter().map(DataType::from_tag);
        let params = params.collect::<Result<Vec<_>>>()?;
        let signature = UdfSignature::new(params, DataType::from_tag(read_u8(r)?)?);
        let here = |body| UdfDef::new(name, signature, UdfImpl(body, Placement::Server));
        if read_u8(r)? == LOAD_NATIVE {
            return Ok(here(Body::Native(Native::Registered(read_str(r)?))));
        }
        let (module_bytes, module) = verified(cache, read_blob(r)?)?;
        let function = read_str(r)?;
        let mut next = || read_u64(r).map(|n| (n != NO_LIMIT).then_some(n));
        let (jit, fuel, memory, depth) = (next()?, next()?, next()?, next()?);
        let limits = ResourceLimits {
            fuel,
            memory: memory.map(|m| m as usize),
            max_call_depth: depth.map_or(usize::MAX, |d| d as usize),
        };
        let mut set = PermissionSet::deny_all(read_str(r)?);
        let permissions = match read_u32(r)? {
            u32::MAX => None,
            grants => {
                for _ in 0..grants {
                    set = set.grant(grant_from(read_u8(r)?, read_str(r)?)?);
                }
                Some(Arc::new(set))
            }
        };
        Ok(here(Body::Bytecode(VmUdfSpec {
            module,
            module_bytes,
            function,
            limits,
            jit: jit == Some(1),
            permissions,
        })))
    }

    /// This UDF's body run in this process, by the server or by a worker: a
    /// [`NativeUdf`] (a registered body's from `registry`) or a [`VmUdf`].
    pub(crate) fn host(&self, registry: &WorkerRegistry) -> Result<Hosted> {
        let (name, signature) = (self.name.clone(), self.signature.clone());
        let f: Arc<NativeFn> = match &self.imp.0 {
            Body::Bytecode(spec) => {
                let mode = [ExecMode::Baseline, ExecMode::Jit][usize::from(spec.jit)];
                let (module, function) = (Arc::clone(&spec.module), spec.function.clone());
                let perms = spec.permissions.clone();
                let udf = VmUdf::new(name, signature, module, function, spec.limits, mode, perms)?;
                return Ok(Hosted::Vm(Box::new(udf)));
            }
            Body::Native(Native::Closure(f)) => Arc::clone(f),
            Body::Native(Native::Registered(entry)) => {
                Arc::new(registry(entry).ok_or_else(|| {
                    JaguarError::Worker(format!("the registry has no native udf '{entry}'"))
                })?)
            }
        };
        Ok(Hosted::Native(NativeUdf::shared(name, signature, f)))
    }

    /// [`UdfDef::host`] in the server, over the registry the worker shares.
    fn in_process(&self) -> Result<Box<dyn ScalarUdf>> {
        Ok(match self.host(&worker_registry())? {
            Hosted::Native(udf) => Box::new(udf),
            Hosted::Vm(udf) => udf,
        })
    }

    /// Create the per-query execution instance. A UDF placed in a worker
    /// spawns one (the paper's per-query remote executor).
    pub fn instantiate(&self) -> Result<Box<dyn ScalarUdf>> {
        self.instantiate_with(None)
    }

    /// Like [`UdfDef::instantiate`], but a UDF placed in a worker acquires
    /// it from `pool` (a warm worker checked out for the query and
    /// returned at `finish`) instead of spawning a fresh process.
    pub fn instantiate_with(&self, pool: Option<&Arc<WorkerPool>>) -> Result<Box<dyn ScalarUdf>> {
        match self.imp.1 {
            Placement::Server => self.in_process(),
            Placement::Worker => {
                let definition = self.load_body()?;
                let mut lease = acquire_worker(pool)?;
                lease.worker().load(definition)?;
                let permissions = match &self.imp.0 {
                    Body::Bytecode(spec) => spec.permissions.clone(),
                    Body::Native(_) => None,
                };
                Ok(Box::new(IsolatedUdf {
                    name: self.name.clone(),
                    signature: self.signature.clone(),
                    lease,
                    cancel: CancelToken::unbounded(),
                    permissions,
                }))
            }
        }
    }
}

/// The worker an [`IsolatedUdf`] runs in: spawned for this query and shut
/// down at `finish`, or checked out of a pool and checked back in on drop.
enum Lease {
    Owned(WorkerProcess),
    Pooled(PooledWorker),
}

impl Lease {
    fn worker(&mut self) -> &mut WorkerProcess {
        match self {
            Lease::Owned(w) => w,
            Lease::Pooled(w) => w,
        }
    }
}

/// A UDF placed in a worker (Designs 2 and 4): the worker hosts its body as
/// the server would, and its values and row errors come back as those.
struct IsolatedUdf {
    name: String,
    signature: UdfSignature,
    lease: Lease,
    cancel: CancelToken,
    /// A bytecode body's permission set, auditing its worker copy's denials.
    permissions: Option<Arc<PermissionSet>>,
}

impl IsolatedUdf {
    /// Run one invocation round trip under the earlier of two deadlines:
    /// the statement's remaining budget and, for a pooled worker, the
    /// pool's invoke timeout. A worker that overruns it is killed; a kill
    /// bound by the statement budget is a `Timeout`, one bound by the pool
    /// timeout a `ResourceLimit`, and a killed pooled worker is never
    /// checked back in.
    fn guarded<T>(&mut self, f: impl FnOnce(&mut WorkerProcess) -> Result<T>) -> Result<T> {
        let statement = self.cancel.remaining();
        let pool = match &self.lease {
            Lease::Pooled(w) => w.invoke_timeout(),
            Lease::Owned(_) => None,
        };
        let timeout = statement.into_iter().chain(pool).min();
        match self.lease.worker().guarded(timeout, f) {
            Ok(out) => out,
            Err(Expired) => {
                if let Lease::Pooled(w) = &mut self.lease {
                    w.expired();
                }
                let timeout = timeout.unwrap_or_default();
                Err(if statement.is_some_and(|s| pool.is_none_or(|p| s < p)) {
                    JaguarError::Timeout(format!(
                        "udf invocation exceeded the statement deadline \
                         ({timeout:?} remaining); worker killed"
                    ))
                } else {
                    JaguarError::ResourceLimit(format!(
                        "udf invocation exceeded the {timeout:?} pool deadline; \
                         worker killed and replaced"
                    ))
                })
            }
        }
    }
}

impl ScalarUdf for IsolatedUdf {
    fn name(&self) -> &str {
        &self.name
    }

    fn signature(&self) -> &UdfSignature {
        &self.signature
    }

    /// The hosted UDF checks the arguments against its signature, as in
    /// process.
    fn invoke(&mut self, args: &[Value], callbacks: &mut dyn CallbackHandler) -> Result<Value> {
        self.cancel.check()?;
        let out = self.guarded(|w| w.invoke(args, callbacks));
        out.inspect_err(|e| self.permissions.iter().for_each(|p| p.audit(e)))
    }

    /// Ship the rows straight from the batch's columns. A row error comes
    /// back at its row, after the rows before it ran with their side
    /// effects; a transport failure (dead worker) has no row and is placed
    /// before any.
    fn invoke_batch(
        &mut self,
        batch: &ValueBatch,
        callbacks: &mut dyn CallbackHandler,
    ) -> BatchResult {
        let arg = |row: usize, a: usize| &batch.column(a)[row];
        if let Err(e) = self.cancel.check() {
            return Err(BatchError::before_any(e));
        }
        // One deadline around the whole batch: it still kills a wedged
        // worker in time, it just cannot say which row wedged.
        match self.guarded(|w| w.invoke_batch(batch.len(), batch.arity(), arg, callbacks)) {
            Ok((values, None)) => Ok(values),
            Ok((values, Some(e))) => {
                self.permissions.iter().for_each(|p| p.audit(&e));
                Err(BatchError::new(values.len(), e))
            }
            Err(e) => Err(BatchError::before_any(e)),
        }
    }

    fn attach_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    fn finish(self: Box<Self>) -> Result<()> {
        match self.lease {
            Lease::Owned(worker) => worker.shutdown(),
            // Dropping the guard checks the worker back in (Reset + re-idle)
            // or, if it died this query, frees its slot for the next
            // checkout to spawn into.
            Lease::Pooled(_) => Ok(()),
        }
    }
}

/// Helper: build a [`VmUdfSpec`] from an unverified module.
pub fn vm_spec(
    module: Module,
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
            UdfImpl::closure(|args, _| Ok(Value::Int(args[0].as_int()? + 1))),
        );
        let mut u = def.instantiate().unwrap();
        assert_eq!(
            u.invoke(&[Value::Int(41)], &mut NoCallbacks).unwrap(),
            Value::Int(42)
        );
        assert_eq!(def.imp.design().label(), "C++");
    }

    #[test]
    fn vm_def_instantiates() {
        let module = jaguar_lang::compile("m", "fn main(x: i64) -> i64 { return x * x; }").unwrap();
        let spec = vm_spec(module, "main", ResourceLimits::default(), true, None).unwrap();
        let def = UdfDef::new(
            "square",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            UdfImpl::bytecode(spec, Placement::Server),
        );
        let mut u = def.instantiate().unwrap();
        assert_eq!(
            u.invoke(&[Value::Int(7)], &mut NoCallbacks).unwrap(),
            Value::Int(49)
        );
        assert_eq!(def.imp.design().label(), "JSM");
    }

    #[test]
    fn straight_line_immutable_bytecode_runs_in_engine() {
        let def = |src: &str, volatility| {
            let module = jaguar_lang::compile("m", src).unwrap();
            let spec = vm_spec(module, "main", ResourceLimits::default(), true, None).unwrap();
            let sig = UdfSignature::new(vec![DataType::Int], DataType::Int);
            let imp = UdfImpl::bytecode(spec, Placement::Worker);
            UdfDef::new("f", sig, imp).with_volatility(volatility)
        };
        let straight = "fn main(x: i64) -> i64 {
            let b: bytes = newbytes(2); b[1] = x; return b[1] + len(b);
        }";
        assert_eq!(
            def(straight, Volatility::Immutable).runs_in_engine(),
            Some(true)
        );
        assert_eq!(def(straight, Volatility::Stable).runs_in_engine(), None);
        for src in [
            "fn main(x: i64) -> i64 { while x > 0 { x = x - 1; } return x; }",
            "fn g(x: i64) -> i64 { return x; } fn main(x: i64) -> i64 { return g(x); }",
            "import probe(i64) -> i64; fn main(x: i64) -> i64 { return probe(x); }",
        ] {
            let verdict = def(src, Volatility::Immutable).runs_in_engine();
            assert_eq!(verdict, Some(false), "{src}");
        }
        // Placed in a worker, the in-engine instance is a Design-3 VM.
        let mut u = def(straight, Volatility::Immutable)
            .instantiate_in_engine()
            .unwrap();
        assert_eq!(
            u.invoke(&[Value::Int(40)], &mut NoCallbacks).unwrap(),
            Value::Int(42)
        );
        assert!(u.consumed().unwrap().instructions > 0);
    }

    /// Table 1 is a product: each (body, placement) pair derives its
    /// number, label, metric slug, worker and batching policy, and
    /// cold-start cost.
    #[test]
    fn labels() {
        let module = jaguar_lang::compile("m", "fn main(x: i64) -> i64 { return x; }").unwrap();
        let spec = vm_spec(module, "main", ResourceLimits::default(), true, None).unwrap();
        let (server, worker) = (Placement::Server, Placement::Worker);
        let matrix = [
            (
                UdfImpl::registered("noop", server),
                1,
                "C++",
                "cpp",
                false,
                true,
            ),
            (
                UdfImpl::registered("noop", worker),
                2,
                "IC++",
                "icpp",
                true,
                false,
            ),
            (
                UdfImpl::bytecode(spec.clone(), server),
                3,
                "JSM",
                "jsm",
                false,
                false,
            ),
            (
                UdfImpl::bytecode(spec, worker),
                4,
                "IJSM",
                "ijsm",
                true,
                false,
            ),
        ];
        for (imp, number, label, slug, needs_worker, free) in &matrix {
            let d = imp.design();
            assert_eq!((d.number(), d.label(), d.slug()), (*number, *label, *slug));
            assert_eq!(d.needs_worker(), *needs_worker, "{label}");
            assert_eq!(d.crossing_is_free(), *free, "{label}");
        }
        let cost = |number: usize| matrix[number - 1].0.design().cold_start_us();
        assert!(cost(1) < cost(3) && cost(3) < cost(2) && cost(2) < cost(4));

        // A closure can only be built in the server, and no worker can
        // load it.
        let sig = UdfSignature::new(vec![], DataType::Int);
        let closure = UdfImpl::closure(|_, _| Ok(Value::Int(0)));
        assert_eq!(closure.design(), matrix[0].0.design());
        let e = UdfDef::new("c", sig, closure).load_body().unwrap_err();
        assert!(e.to_string().contains("closure"), "{e}");

        // Designs 1 and 2 of the generic UDF are one body in two places.
        let (native, isolated) = (crate::generic::def_native(), crate::generic::def_isolated());
        let entry = |def: &UdfDef| match def.imp.body() {
            Body::Native(Native::Registered(entry)) => entry.clone(),
            _ => panic!("{} is not a registered native body", def.name),
        };
        assert_eq!(entry(&native), entry(&isolated));
        assert_eq!(native.imp.design().placement, server);
        assert_eq!(isolated.imp.design().placement, worker);
    }
}
