//! The JSM execution engine.
//!
//! Two execution modes model the two JVMs of the era:
//!
//! * [`ExecMode::Baseline`] re-decodes each instruction from the encoded
//!   byte stream on every execution — a classic bytecode interpreter,
//! * [`ExecMode::Jit`] executes pre-decoded instructions with direct
//!   dispatch — modelling the JIT-compiled execution of the JVM the paper
//!   used ("In all cases, the JVM included a JIT compiler"). The A2
//!   ablation bench quantifies the difference.
//!
//! In **both** modes every array access is bounds-checked ([`Arena`]),
//! fuel and memory budgets are enforced ([`ResourceLimits`]), and host
//! calls pass through the security manager — those are the *semantic*
//! costs of safety the paper measures; the mode only changes dispatch
//! overhead.
//!
//! The interpreter only accepts a [`VerifiedModule`], so type errors at
//! runtime indicate an interpreter bug, not a UDF bug; they still surface
//! as containable traps rather than panics (defence in depth).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result, VmTrap};

use crate::arena::{Arena, BytesRef};
use crate::isa::{Insn, VType};
use crate::module::VerifiedModule;
use crate::resources::{ResourceLimits, ResourceUsage};
use crate::security::PermissionSet;
use crate::tier::{self, ModulePlan, TierTally};

/// A runtime value on the operand stack or in a local slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VmValue {
    I64(i64),
    F64(f64),
    Bytes(BytesRef),
}

impl VmValue {
    pub fn vtype(&self) -> VType {
        match self {
            VmValue::I64(_) => VType::I64,
            VmValue::F64(_) => VType::F64,
            VmValue::Bytes(_) => VType::Bytes,
        }
    }

    /// Extract the integer, or a type trap.
    pub fn as_i64(self) -> Result<i64> {
        match self {
            VmValue::I64(v) => Ok(v),
            _ => Err(VmTrap::Type("expected i64").into()),
        }
    }

    /// Extract the float, or a type trap.
    pub fn as_f64(self) -> Result<f64> {
        match self {
            VmValue::F64(v) => Ok(v),
            _ => Err(VmTrap::Type("expected f64").into()),
        }
    }

    /// Extract the bytes reference, or a type trap.
    pub fn as_bytes(self) -> Result<BytesRef> {
        match self {
            VmValue::Bytes(r) => Ok(r),
            _ => Err(VmTrap::Type("expected bytes").into()),
        }
    }
}

/// The host interface — JSM's "native methods" (§4.2: callbacks from the
/// UDF to the database server go through this trait).
pub trait HostEnv {
    /// Perform the named host call. `args` match the declared import
    /// signature (the verifier guarantees it). Byte-array arguments and
    /// results live in `arena`.
    fn host_call(
        &mut self,
        name: &str,
        args: &[VmValue],
        arena: &mut Arena,
    ) -> Result<Option<VmValue>>;
}

/// A host environment that rejects every call — for pure-compute UDFs.
pub struct NoHost;

impl HostEnv for NoHost {
    fn host_call(&mut self, name: &str, _: &[VmValue], _: &mut Arena) -> Result<Option<VmValue>> {
        Err(JaguarError::VmTrap(VmTrap::Host(format!(
            "no host environment provides '{name}'"
        ))))
    }
}

/// Dispatch strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Decode each instruction from bytes on every execution.
    Baseline,
    /// Execute pre-decoded instructions with **superinstruction fusion**:
    /// hot multi-instruction patterns (compare-and-branch, local
    /// increment, array-load-accumulate) collapse into single dispatch
    /// steps, the closest an interpreter gets to JIT-compiled loops.
    /// Fuel accounting still charges the original instruction count.
    Jit,
}

/// Per-function pre-encoded form used by baseline mode: the raw bytes and
/// the byte offset of each instruction (jump targets are insn indices).
pub(crate) struct EncodedFn {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

impl EncodedFn {
    pub(crate) fn of(f: &crate::module::Function) -> EncodedFn {
        let mut bytes = Vec::new();
        let mut offsets = Vec::with_capacity(f.code.len());
        for insn in &f.code {
            offsets.push(bytes.len() as u32);
            insn.encode(&mut bytes);
        }
        EncodedFn { bytes, offsets }
    }
}

struct Frame {
    func: u32,
    pc: usize,
    locals: Vec<VmValue>,
    stack_base: usize,
}

/// Comparison selector for fused compare-and-branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpKind {
    Lt,
    Le,
    Eq,
}

/// One step of the fused (JIT-mode) execution plan. `len` records how many
/// original instructions the step covers, for fuel accounting and for the
/// sequential-advance amount.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FusedOp {
    /// A single ordinary instruction. The instructions a fused step
    /// covers keep their own entries behind it: control only reaches them
    /// when the step is run unfused (the fuser refuses to fuse across jump
    /// targets).
    Std(Insn),
    /// `Load s; ConstI k; AddI|SubI; Store s` → `s += delta`.
    IncLocal { slot: u16, delta: i64, len: u8 },
    /// `Load a; Load b; LtI|LeI|EqI; JmpIfNot t`.
    CmpLocalsJmpIfNot {
        a: u16,
        b: u16,
        cmp: CmpKind,
        target: u32,
        len: u8,
    },
    /// `Load acc; Load arr; Load idx; ALoad; AddI; Store acc`
    /// → `acc += arr[idx]` (bounds-checked, as always).
    AccAddALoad {
        acc: u16,
        arr: u16,
        idx: u16,
        len: u8,
    },
    /// `Load acc; ConstI k; MulI; Load b; AddI; Store acc`
    /// → `acc = acc * k + b` (wrapping).
    MulConstAddLocal { acc: u16, k: i64, b: u16, len: u8 },
}

/// Build the fused execution plan for one function. Fusion never spans a
/// jump target: a pattern is only collapsed when control can only enter it
/// at its first instruction.
pub(crate) fn fuse(code: &[Insn]) -> Vec<FusedOp> {
    use std::collections::HashSet;
    let mut targets: HashSet<usize> = HashSet::new();
    for insn in code {
        match insn {
            Insn::Jmp(t) | Insn::JmpIf(t) | Insn::JmpIfNot(t) => {
                targets.insert(*t as usize);
            }
            _ => {}
        }
    }
    let clear =
        |from: usize, len: usize| -> bool { (from + 1..from + len).all(|p| !targets.contains(&p)) };

    let mut out: Vec<FusedOp> = code.iter().map(|i| FusedOp::Std(*i)).collect();
    let mut i = 0;
    while i < code.len() {
        // Longest patterns first.
        if i + 6 <= code.len() && clear(i, 6) {
            if let (
                Insn::Load(acc),
                Insn::Load(arr),
                Insn::Load(idx),
                Insn::ALoad,
                Insn::AddI,
                Insn::Store(acc2),
            ) = (
                code[i],
                code[i + 1],
                code[i + 2],
                code[i + 3],
                code[i + 4],
                code[i + 5],
            ) {
                if acc == acc2 {
                    out[i] = FusedOp::AccAddALoad {
                        acc,
                        arr,
                        idx,
                        len: 6,
                    };
                    i += 6;
                    continue;
                }
            }
            if let (
                Insn::Load(acc),
                Insn::ConstI(k),
                Insn::MulI,
                Insn::Load(b),
                Insn::AddI,
                Insn::Store(acc2),
            ) = (
                code[i],
                code[i + 1],
                code[i + 2],
                code[i + 3],
                code[i + 4],
                code[i + 5],
            ) {
                if acc == acc2 {
                    out[i] = FusedOp::MulConstAddLocal { acc, k, b, len: 6 };
                    i += 6;
                    continue;
                }
            }
        }
        if i + 4 <= code.len() && clear(i, 4) {
            if let (Insn::Load(a), Insn::Load(b), cmp_insn, Insn::JmpIfNot(t)) =
                (code[i], code[i + 1], code[i + 2], code[i + 3])
            {
                let cmp = match cmp_insn {
                    Insn::LtI => Some(CmpKind::Lt),
                    Insn::LeI => Some(CmpKind::Le),
                    Insn::EqI => Some(CmpKind::Eq),
                    _ => None,
                };
                if let Some(cmp) = cmp {
                    out[i] = FusedOp::CmpLocalsJmpIfNot {
                        a,
                        b,
                        cmp,
                        target: t,
                        len: 4,
                    };
                    i += 4;
                    continue;
                }
            }
            if let (Insn::Load(slot_a), Insn::ConstI(k), arith, Insn::Store(slot_b)) =
                (code[i], code[i + 1], code[i + 2], code[i + 3])
            {
                let delta = match arith {
                    Insn::AddI => Some(k),
                    Insn::SubI => Some(k.wrapping_neg()),
                    _ => None,
                };
                if let (Some(delta), true) = (delta, slot_a == slot_b) {
                    out[i] = FusedOp::IncLocal {
                        slot: slot_a,
                        delta,
                        len: 4,
                    };
                    i += 4;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// An execution engine bound to one verified module.
///
/// The interpreter itself is stateless across invocations: each
/// [`Interpreter::invoke`] gets a fresh arena, fuel budget, and frame
/// stack, so one UDF invocation cannot leak state into the next.
pub struct Interpreter {
    module: Arc<VerifiedModule>,
    limits: ResourceLimits,
    mode: ExecMode,
    security: Option<Arc<PermissionSet>>,
    /// Shared per-module execution plans (encoded/fused/compiled) and
    /// hotness counters — one [`ModulePlan`] per live module `Arc`, so
    /// every statement and pooled worker over the same module reuses the
    /// same decode/fuse/compile work.
    plan: Arc<ModulePlan>,
    /// Interpreted invocations of a function before it is promoted to the
    /// compiled tier (JIT mode only). `None` disables tier-up entirely;
    /// `Some(0)` compiles on first call.
    tier_up_after: Option<u64>,
    /// Statement-lifecycle token, polled every
    /// [`CANCEL_CHECK_INTERVAL`] instructions alongside the fuel check.
    /// `None` (the default) skips the poll entirely.
    cancel: Option<CancelToken>,
}

/// How many VM instructions may retire between cooperative cancellation
/// checks. Coarse enough that the `Instant::now()` deadline comparison is
/// amortised to noise, fine enough that an infinite loop is abandoned
/// within microseconds of the deadline.
pub const CANCEL_CHECK_INTERVAL: u64 = 65_536;

impl Interpreter {
    pub fn new(module: Arc<VerifiedModule>, limits: ResourceLimits, mode: ExecMode) -> Interpreter {
        let plan = tier::plan_for(&module);
        // Pre-warm the plan this mode executes from, so the hot path is a
        // plain load. Both are built at most once per module, however many
        // interpreters are instantiated over it.
        match mode {
            ExecMode::Jit => {
                plan.fused(&module);
            }
            ExecMode::Baseline => {
                plan.encoded(&module);
            }
        }
        Interpreter {
            module,
            limits,
            mode,
            security: None,
            plan,
            tier_up_after: None,
            cancel: None,
        }
    }

    /// Enable tier-up: after `n` interpreted invocations a function is
    /// promoted to the compiled tier (JIT mode only; `Some(0)` compiles
    /// on first call, `None` — the default — never promotes).
    pub fn with_tier_up(mut self, tier_up_after: Option<u64>) -> Interpreter {
        self.tier_up_after = tier_up_after;
        self
    }

    /// Attach a security manager; host calls will be checked against it.
    pub fn with_security(mut self, perms: Arc<PermissionSet>) -> Interpreter {
        self.security = Some(perms);
        self
    }

    /// Attach (or replace) the statement lifecycle token. Execution then
    /// polls the token every [`CANCEL_CHECK_INTERVAL`] instructions and
    /// aborts with `Cancelled` / `Timeout` when it trips — the in-process
    /// equivalent of killing an isolated worker.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    pub fn module(&self) -> &VerifiedModule {
        &self.module
    }

    pub fn limits(&self) -> ResourceLimits {
        self.limits
    }

    /// The shared per-module execution plan (exposed so tests and
    /// diagnostics can observe plan sharing across interpreters).
    pub fn plan(&self) -> &Arc<ModulePlan> {
        &self.plan
    }

    pub(crate) fn security_ref(&self) -> Option<&PermissionSet> {
        self.security.as_deref()
    }

    pub(crate) fn cancel_ref(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Resolve `func` to its function index once, so batched invocation
    /// can skip the per-call name lookup (see [`Interpreter::invoke_resolved`]).
    pub fn resolve(&self, func: &str) -> Result<u32> {
        self.module
            .find_function(func)
            .ok_or_else(|| JaguarError::Udf(format!("no function '{func}' in module")))
    }

    /// Invoke `func` with `args` using a caller-provided arena (the caller
    /// marshals byte-array arguments into the arena first — that copy is
    /// the JNI-style argument mapping cost).
    pub fn invoke_with_arena(
        &self,
        func: &str,
        args: impl AsRef<[VmValue]>,
        arena: &mut Arena,
        host: &mut dyn HostEnv,
    ) -> Result<(Option<VmValue>, ResourceUsage)> {
        let fidx = self.resolve(func)?;
        self.invoke_resolved(fidx, func, args, arena, host)
    }

    /// Invoke an already-resolved function index. `func` is only used for
    /// error messages, which must stay identical to the per-tuple path's.
    /// `args` is only read: a batch passes one reused slice per row.
    pub fn invoke_resolved(
        &self,
        fidx: u32,
        func: &str,
        args: impl AsRef<[VmValue]>,
        arena: &mut Arena,
        host: &mut dyn HostEnv,
    ) -> Result<(Option<VmValue>, ResourceUsage)> {
        let mut tally = TierTally::default();
        self.invoke_tallied(fidx, func, args.as_ref(), arena, host, &mut tally)
    }

    /// [`Interpreter::invoke_resolved`] as one call of a run — the rows of
    /// a batch — whose tier counters add up in `tally` and are published
    /// when it drops, once for the whole run.
    pub fn invoke_tallied(
        &self,
        fidx: u32,
        func: &str,
        args: &[VmValue],
        arena: &mut Arena,
        host: &mut dyn HostEnv,
        tally: &mut TierTally,
    ) -> Result<(Option<VmValue>, ResourceUsage)> {
        let f = &self.module.functions()[fidx as usize];
        if args.len() != f.sig.params.len() {
            return Err(JaguarError::Udf(format!(
                "'{func}' expects {} args, got {}",
                f.sig.params.len(),
                args.len()
            )));
        }
        for (i, (a, p)) in args.iter().zip(&f.sig.params).enumerate() {
            if a.vtype() != *p {
                return Err(JaguarError::Udf(format!(
                    "'{func}' arg {i}: expected {}, got {}",
                    p.name(),
                    a.vtype().name()
                )));
            }
        }
        self.run(fidx, args, arena, host, tally)
    }

    /// Convenience wrapper: creates the arena, marshals owned byte-array
    /// arguments into it, runs, and returns the arena for result readback.
    pub fn invoke(
        &self,
        func: &str,
        args: &[ArgValue],
        host: &mut dyn HostEnv,
    ) -> Result<(Option<VmValue>, ResourceUsage, Arena)> {
        let mut arena = Arena::new(self.limits.memory);
        let mut vm_args = Vec::with_capacity(args.len());
        for a in args {
            vm_args.push(match a {
                ArgValue::I64(v) => VmValue::I64(*v),
                ArgValue::F64(v) => VmValue::F64(*v),
                ArgValue::Bytes(data) => VmValue::Bytes(arena.alloc_from(data)?),
            });
        }
        let (ret, usage) = self.invoke_with_arena(func, vm_args, &mut arena, host)?;
        Ok((ret, usage, arena))
    }

    fn run(
        &self,
        entry: u32,
        args: &[VmValue],
        arena: &mut Arena,
        host: &mut dyn HostEnv,
        tally: &mut TierTally,
    ) -> Result<(Option<VmValue>, ResourceUsage)> {
        // Tier-up: once a function has been invoked `tier_up_after` times
        // it runs through the compiled tier — if the template compiler
        // covered its whole call graph; otherwise fall back and keep
        // interpreting (observable behaviour is identical either way).
        // Each call counts itself until one is call N+1; from then on the
        // check is a load, with no write to the shared counter.
        if let (ExecMode::Jit, Some(n)) = (self.mode, self.tier_up_after) {
            let hot = self.plan.hot(entry);
            let promoted = hot.load(Ordering::Relaxed) > n || {
                let hits = hot.fetch_add(1, Ordering::Relaxed) + 1;
                if hits == n + 1 {
                    tier::metrics().promotions.inc();
                }
                hits > n
            };
            if promoted {
                let cm = self.plan.compiled(&self.module);
                if cm.entry_runnable(entry) {
                    tally.compiled_hits += 1;
                    return tier::run_compiled(self, cm, entry, args, arena, host, tally);
                }
                tally.fallbacks += 1;
            }
        }

        let funcs = self.module.functions();
        let imports = self.module.imports();

        /// The per-mode instruction source for this run.
        enum CodePlan<'a> {
            Fused(&'a [Vec<FusedOp>]),
            Encoded(&'a [EncodedFn]),
        }
        let code_plan = match self.mode {
            ExecMode::Jit => CodePlan::Fused(self.plan.fused(&self.module)),
            ExecMode::Baseline => CodePlan::Encoded(self.plan.encoded(&self.module)),
        };

        // Default value for uninitialised `bytes` locals: one shared empty
        // array (JSM has no null references).
        let mut empty_ref: Option<BytesRef> = None;
        let mut default_local = |t: VType, arena: &mut Arena| -> Result<VmValue> {
            Ok(match t {
                VType::I64 => VmValue::I64(0),
                VType::F64 => VmValue::F64(0.0),
                VType::Bytes => {
                    if empty_ref.is_none() {
                        empty_ref = Some(arena.alloc_zeroed(0)?);
                    }
                    VmValue::Bytes(empty_ref.expect("just set"))
                }
            })
        };

        let mut usage = ResourceUsage::default();
        let mut fuel = self.limits.fuel;
        let mut cancel_left = CANCEL_CHECK_INTERVAL;

        let make_locals = |fidx: u32,
                           args: &[VmValue],
                           arena: &mut Arena,
                           dl: &mut dyn FnMut(VType, &mut Arena) -> Result<VmValue>|
         -> Result<Vec<VmValue>> {
            let f = &funcs[fidx as usize];
            let mut locals = Vec::with_capacity(f.total_locals());
            locals.extend_from_slice(args);
            for t in &f.local_types {
                locals.push(dl(*t, arena)?);
            }
            Ok(locals)
        };

        let mut stack: Vec<VmValue> = Vec::with_capacity(64);
        let mut frames: Vec<Frame> = Vec::with_capacity(8);
        frames.push(Frame {
            func: entry,
            pc: 0,
            locals: make_locals(entry, args, arena, &mut default_local)?,
            stack_base: 0,
        });
        usage.max_depth_seen = 1;

        macro_rules! pop {
            () => {
                stack
                    .pop()
                    .ok_or_else(|| JaguarError::VmTrap(VmTrap::Stack("underflow")))?
            };
        }

        loop {
            let frame = frames.last_mut().expect("at least one frame");
            let mut op = match code_plan {
                CodePlan::Fused(plan) => plan[frame.func as usize][frame.pc],
                CodePlan::Encoded(plan) => {
                    let enc = &plan[frame.func as usize];
                    let off = enc.offsets[frame.pc] as usize;
                    let mut r = &enc.bytes[off..];
                    FusedOp::Std(Insn::decode(&mut r)?)
                }
            };

            // Resource policing: the per-instruction fuel check (A3).
            // Fused steps charge the number of instructions they cover, so
            // fuel semantics are dispatch-strategy independent: check
            // before charging, and on exhaustion report `initial_fuel + 1`
            // — the instruction that could not be afforded — whatever the
            // step width (identical to per-instruction accounting).
            let mut cost: u64 = match op {
                FusedOp::Std(_) => 1,
                FusedOp::IncLocal { len, .. }
                | FusedOp::CmpLocalsJmpIfNot { len, .. }
                | FusedOp::AccAddALoad { len, .. }
                | FusedOp::MulConstAddLocal { len, .. } => len as u64,
            };
            // A fused step the budget cannot cover whole runs as its
            // separate instructions, so what ends the run — exhaustion, a
            // trap or a cancel poll just before it — is what Baseline sees.
            if fuel.is_some_and(|left| left < cost) {
                op = FusedOp::Std(funcs[frame.func as usize].code[frame.pc]);
                cost = 1;
            }
            if let Some(left) = fuel.as_mut() {
                if *left < cost {
                    usage.instructions += *left + 1;
                    return Err(JaguarError::ResourceLimit(format!(
                        "fuel exhausted after {} instructions",
                        usage.instructions
                    )));
                }
                *left -= cost;
            }
            usage.instructions += cost;
            // Cooperative cancellation: poll the statement token at a
            // coarse cadence so runaway-but-fueled loops still respect
            // deadlines and client cancels.
            if let Some(token) = &self.cancel {
                cancel_left = cancel_left.saturating_sub(cost);
                if cancel_left == 0 {
                    token.check()?;
                    cancel_left = CANCEL_CHECK_INTERVAL;
                }
            }

            let insn = match op {
                FusedOp::Std(insn) => insn,
                FusedOp::IncLocal { slot, delta, len } => {
                    let v = frame
                        .locals
                        .get_mut(slot as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(slot)))?;
                    let old = v.as_i64()?;
                    *v = VmValue::I64(old.wrapping_add(delta));
                    frame.pc += len as usize;
                    continue;
                }
                FusedOp::CmpLocalsJmpIfNot {
                    a,
                    b,
                    cmp,
                    target,
                    len,
                } => {
                    let av = frame
                        .locals
                        .get(a as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(a)))?
                        .as_i64()?;
                    let bv = frame
                        .locals
                        .get(b as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(b)))?
                        .as_i64()?;
                    let holds = match cmp {
                        CmpKind::Lt => av < bv,
                        CmpKind::Le => av <= bv,
                        CmpKind::Eq => av == bv,
                    };
                    frame.pc = if holds {
                        frame.pc + len as usize
                    } else {
                        target as usize
                    };
                    continue;
                }
                FusedOp::AccAddALoad { acc, arr, idx, len } => {
                    let r = frame
                        .locals
                        .get(arr as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(arr)))?
                        .as_bytes()?;
                    let i = frame
                        .locals
                        .get(idx as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(idx)))?
                        .as_i64()?;
                    let byte = arena.load(r, i)? as i64;
                    let v = frame
                        .locals
                        .get_mut(acc as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(acc)))?;
                    let old = v.as_i64()?;
                    *v = VmValue::I64(old.wrapping_add(byte));
                    frame.pc += len as usize;
                    continue;
                }
                FusedOp::MulConstAddLocal { acc, k, b, len } => {
                    let bv = frame
                        .locals
                        .get(b as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(b)))?
                        .as_i64()?;
                    let v = frame
                        .locals
                        .get_mut(acc as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(acc)))?;
                    let old = v.as_i64()?;
                    *v = VmValue::I64(old.wrapping_mul(k).wrapping_add(bv));
                    frame.pc += len as usize;
                    continue;
                }
            };

            frame.pc += 1;
            match insn {
                Insn::ConstI(v) => stack.push(VmValue::I64(v)),
                Insn::ConstF(v) => stack.push(VmValue::F64(v)),
                Insn::Load(i) => {
                    let v = *frame
                        .locals
                        .get(i as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(i)))?;
                    stack.push(v);
                }
                Insn::Store(i) => {
                    let v = pop!();
                    let slot = frame
                        .locals
                        .get_mut(i as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadLocal(i)))?;
                    *slot = v;
                }
                Insn::Pop => {
                    pop!();
                }
                Insn::Dup => {
                    let v = *stack
                        .last()
                        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow")))?;
                    stack.push(v);
                }
                Insn::Swap => {
                    let a = pop!();
                    let b = pop!();
                    stack.push(a);
                    stack.push(b);
                }
                Insn::AddI => binop_i(&mut stack, |a, b| Ok(a.wrapping_add(b)))?,
                Insn::SubI => binop_i(&mut stack, |a, b| Ok(a.wrapping_sub(b)))?,
                Insn::MulI => binop_i(&mut stack, |a, b| Ok(a.wrapping_mul(b)))?,
                Insn::DivI => binop_i(&mut stack, |a, b| {
                    if b == 0 {
                        Err(JaguarError::VmTrap(VmTrap::DivideByZero))
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                })?,
                Insn::RemI => binop_i(&mut stack, |a, b| {
                    if b == 0 {
                        Err(JaguarError::VmTrap(VmTrap::DivideByZero))
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                })?,
                Insn::NegI => {
                    let a = pop!().as_i64()?;
                    stack.push(VmValue::I64(a.wrapping_neg()));
                }
                Insn::AddF => binop_f(&mut stack, |a, b| a + b)?,
                Insn::SubF => binop_f(&mut stack, |a, b| a - b)?,
                Insn::MulF => binop_f(&mut stack, |a, b| a * b)?,
                Insn::DivF => binop_f(&mut stack, |a, b| a / b)?,
                Insn::NegF => {
                    let a = pop!().as_f64()?;
                    stack.push(VmValue::F64(-a));
                }
                Insn::And => binop_i(&mut stack, |a, b| Ok(a & b))?,
                Insn::Or => binop_i(&mut stack, |a, b| Ok(a | b))?,
                Insn::Xor => binop_i(&mut stack, |a, b| Ok(a ^ b))?,
                Insn::Shl => binop_i(&mut stack, |a, b| Ok(a.wrapping_shl(b as u32 & 63)))?,
                Insn::Shr => binop_i(&mut stack, |a, b| Ok(a.wrapping_shr(b as u32 & 63)))?,
                Insn::Not => {
                    let a = pop!().as_i64()?;
                    stack.push(VmValue::I64(!a));
                }
                Insn::I2F => {
                    let a = pop!().as_i64()?;
                    stack.push(VmValue::F64(a as f64));
                }
                Insn::F2I => {
                    let a = pop!().as_f64()?;
                    stack.push(VmValue::I64(a as i64));
                }
                Insn::EqI => cmp_i(&mut stack, |a, b| a == b)?,
                Insn::LtI => cmp_i(&mut stack, |a, b| a < b)?,
                Insn::LeI => cmp_i(&mut stack, |a, b| a <= b)?,
                Insn::EqF => cmp_f(&mut stack, |a, b| a == b)?,
                Insn::LtF => cmp_f(&mut stack, |a, b| a < b)?,
                Insn::LeF => cmp_f(&mut stack, |a, b| a <= b)?,
                Insn::Jmp(t) => frame.pc = t as usize,
                Insn::JmpIf(t) => {
                    if pop!().as_i64()? != 0 {
                        frame.pc = t as usize;
                    }
                }
                Insn::JmpIfNot(t) => {
                    if pop!().as_i64()? == 0 {
                        frame.pc = t as usize;
                    }
                }
                Insn::Call(fidx) => {
                    if frames.len() >= self.limits.max_call_depth {
                        return Err(JaguarError::ResourceLimit(format!(
                            "call depth limit {} exceeded",
                            self.limits.max_call_depth
                        )));
                    }
                    let callee = funcs
                        .get(fidx as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadCall(fidx)))?;
                    let argc = callee.sig.params.len();
                    if stack.len() < argc {
                        return Err(JaguarError::VmTrap(VmTrap::Stack("underflow")));
                    }
                    let args: Vec<VmValue> = stack.split_off(stack.len() - argc);
                    let base = stack.len();
                    frames.push(Frame {
                        func: fidx,
                        pc: 0,
                        locals: make_locals(fidx, &args, arena, &mut default_local)?,
                        stack_base: base,
                    });
                    usage.max_depth_seen = usage.max_depth_seen.max(frames.len());
                }
                Insn::HostCall(iidx) => {
                    let import = imports
                        .get(iidx as usize)
                        .ok_or(JaguarError::VmTrap(VmTrap::BadCall(iidx as u32)))?;
                    if let Some(sec) = &self.security {
                        sec.check_host_call(&import.name)?;
                    }
                    let argc = import.sig.params.len();
                    if stack.len() < argc {
                        return Err(JaguarError::VmTrap(VmTrap::Stack("underflow")));
                    }
                    let args: Vec<VmValue> = stack.split_off(stack.len() - argc);
                    usage.host_calls += 1;
                    let ret = host.host_call(&import.name, &args, arena)?;
                    match (ret, import.sig.ret) {
                        (Some(v), Some(t)) if v.vtype() == t => stack.push(v),
                        (None, None) => {}
                        (got, want) => {
                            return Err(JaguarError::VmTrap(VmTrap::Host(format!(
                                "host '{}' returned {:?}, import declares {:?}",
                                import.name,
                                got.map(|v| v.vtype()),
                                want
                            ))))
                        }
                    }
                }
                Insn::Ret => {
                    let f = &funcs[frames.last().expect("frame").func as usize];
                    let ret = match f.sig.ret {
                        Some(_) => Some(pop!()),
                        None => None,
                    };
                    let done = frames.pop().expect("frame");
                    stack.truncate(done.stack_base);
                    match frames.last() {
                        None => {
                            usage.bytes_allocated = arena.allocated();
                            return Ok((ret, usage));
                        }
                        Some(_) => {
                            if let Some(v) = ret {
                                stack.push(v);
                            }
                        }
                    }
                }
                Insn::NewArr => {
                    let len = pop!().as_i64()?;
                    if len < 0 {
                        return Err(JaguarError::VmTrap(VmTrap::Bounds { index: len, len: 0 }));
                    }
                    let r = arena.alloc_zeroed(len as usize)?;
                    stack.push(VmValue::Bytes(r));
                }
                Insn::ALoad => {
                    let idx = pop!().as_i64()?;
                    let r = pop!().as_bytes()?;
                    stack.push(VmValue::I64(arena.load(r, idx)? as i64));
                }
                Insn::AStore => {
                    let val = pop!().as_i64()?;
                    let idx = pop!().as_i64()?;
                    let r = pop!().as_bytes()?;
                    arena.store(r, idx, val as u8)?;
                }
                Insn::ALen => {
                    let r = pop!().as_bytes()?;
                    stack.push(VmValue::I64(arena.len(r)? as i64));
                }
                Insn::Trap(code) => {
                    return Err(JaguarError::VmTrap(VmTrap::Explicit(code)));
                }
            }
        }
    }
}

/// Owned argument form accepted by [`Interpreter::invoke`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    I64(i64),
    F64(f64),
    Bytes(Vec<u8>),
}

#[inline]
fn binop_i(stack: &mut Vec<VmValue>, f: impl Fn(i64, i64) -> Result<i64>) -> Result<()> {
    let b = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow")))?
        .as_i64()?;
    let a = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow")))?
        .as_i64()?;
    stack.push(VmValue::I64(f(a, b)?));
    Ok(())
}

#[inline]
fn binop_f(stack: &mut Vec<VmValue>, f: impl Fn(f64, f64) -> f64) -> Result<()> {
    let b = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow")))?
        .as_f64()?;
    let a = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow")))?
        .as_f64()?;
    stack.push(VmValue::F64(f(a, b)));
    Ok(())
}

#[inline]
fn cmp_i(stack: &mut Vec<VmValue>, f: impl Fn(i64, i64) -> bool) -> Result<()> {
    binop_i(stack, |a, b| Ok(f(a, b) as i64))
}

#[inline]
fn cmp_f(stack: &mut Vec<VmValue>, f: impl Fn(f64, f64) -> bool) -> Result<()> {
    let b = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow")))?
        .as_f64()?;
    let a = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow")))?
        .as_f64()?;
    stack.push(VmValue::I64(f(a, b) as i64));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{FuncSig, Function, Module};

    fn build(sig: FuncSig, locals: Vec<VType>, code: Vec<Insn>) -> Arc<VerifiedModule> {
        Arc::new(
            Module {
                name: "t".into(),
                imports: vec![],
                functions: vec![Function {
                    name: "main".into(),
                    sig,
                    local_types: locals,
                    code,
                }],
            }
            .verify()
            .expect("test module must verify"),
        )
    }

    fn run_i64(code: Vec<Insn>) -> Result<i64> {
        run_i64_mode(code, ExecMode::Jit)
    }

    fn run_i64_mode(code: Vec<Insn>, mode: ExecMode) -> Result<i64> {
        let m = build(FuncSig::new(vec![], Some(VType::I64)), vec![], code);
        let interp = Interpreter::new(m, ResourceLimits::default(), mode);
        let (ret, _, _) = interp.invoke("main", &[], &mut NoHost)?;
        ret.expect("declared return").as_i64()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            run_i64(vec![
                Insn::ConstI(2),
                Insn::ConstI(3),
                Insn::AddI,
                Insn::Ret
            ])
            .unwrap(),
            5
        );
        assert_eq!(
            run_i64(vec![
                Insn::ConstI(10),
                Insn::ConstI(3),
                Insn::DivI,
                Insn::Ret
            ])
            .unwrap(),
            3
        );
        assert_eq!(
            run_i64(vec![
                Insn::ConstI(10),
                Insn::ConstI(3),
                Insn::RemI,
                Insn::Ret
            ])
            .unwrap(),
            1
        );
        assert_eq!(
            run_i64(vec![Insn::ConstI(7), Insn::NegI, Insn::Ret]).unwrap(),
            -7
        );
    }

    #[test]
    fn both_modes_agree() {
        let code = vec![
            Insn::ConstI(6),
            Insn::ConstI(7),
            Insn::MulI,
            Insn::ConstI(2),
            Insn::SubI,
            Insn::Ret,
        ];
        assert_eq!(
            run_i64_mode(code.clone(), ExecMode::Baseline).unwrap(),
            run_i64_mode(code, ExecMode::Jit).unwrap()
        );
    }

    #[test]
    fn divide_by_zero_traps() {
        let e = run_i64(vec![
            Insn::ConstI(1),
            Insn::ConstI(0),
            Insn::DivI,
            Insn::Ret,
        ])
        .unwrap_err();
        assert!(matches!(e, JaguarError::VmTrap(VmTrap::DivideByZero)));
    }

    #[test]
    fn overflow_wraps_like_java() {
        assert_eq!(
            run_i64(vec![
                Insn::ConstI(i64::MAX),
                Insn::ConstI(1),
                Insn::AddI,
                Insn::Ret
            ])
            .unwrap(),
            i64::MIN
        );
        assert_eq!(
            run_i64(vec![
                Insn::ConstI(i64::MIN),
                Insn::ConstI(-1),
                Insn::DivI,
                Insn::Ret
            ])
            .unwrap(),
            i64::MIN
        );
    }

    #[test]
    fn float_ops_and_conversion() {
        let m = build(
            FuncSig::new(vec![], Some(VType::F64)),
            vec![],
            vec![
                Insn::ConstF(1.5),
                Insn::ConstI(2),
                Insn::I2F,
                Insn::MulF,
                Insn::Ret,
            ],
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let (ret, _, _) = interp.invoke("main", &[], &mut NoHost).unwrap();
        assert_eq!(ret.unwrap().as_f64().unwrap(), 3.0);
    }

    #[test]
    fn loop_sums() {
        // sum 1..=n where n = arg0
        let code = vec![
            Insn::Load(0),      // 0
            Insn::JmpIfNot(10), // 1
            Insn::Load(1),      // 2
            Insn::Load(0),      // 3
            Insn::AddI,         // 4
            Insn::Store(1),     // 5
            Insn::Load(0),      // 6
            Insn::ConstI(1),    // 7
            Insn::SubI,         // 8
            Insn::Store(0),     // 9 → falls through to 0? no: next is 10
            Insn::Load(1),      // 10
            Insn::Ret,          // 11
        ];
        // insert back-jump after Store(0)
        let mut code = code;
        code.insert(10, Insn::Jmp(0));
        // exit target moves from 10 to 11? No: JmpIfNot(10) should point at
        // the Load(1) which is now at index 11.
        code[1] = Insn::JmpIfNot(11);
        let m = build(
            FuncSig::new(vec![VType::I64], Some(VType::I64)),
            vec![VType::I64],
            code,
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let (ret, usage, _) = interp
            .invoke("main", &[ArgValue::I64(100)], &mut NoHost)
            .unwrap();
        assert_eq!(ret.unwrap().as_i64().unwrap(), 5050);
        assert!(usage.instructions > 500);
    }

    #[test]
    fn array_roundtrip_and_bounds() {
        // a = newarr(3); a[0]=7; return a[0]+len(a)
        let m = build(
            FuncSig::new(vec![], Some(VType::I64)),
            vec![VType::Bytes],
            vec![
                Insn::ConstI(3),
                Insn::NewArr,
                Insn::Store(0),
                Insn::Load(0),
                Insn::ConstI(0),
                Insn::ConstI(7),
                Insn::AStore,
                Insn::Load(0),
                Insn::ConstI(0),
                Insn::ALoad,
                Insn::Load(0),
                Insn::ALen,
                Insn::AddI,
                Insn::Ret,
            ],
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let (ret, _, _) = interp.invoke("main", &[], &mut NoHost).unwrap();
        assert_eq!(ret.unwrap().as_i64().unwrap(), 10);
    }

    #[test]
    fn out_of_bounds_traps() {
        let m = build(
            FuncSig::new(vec![VType::Bytes], Some(VType::I64)),
            vec![],
            vec![Insn::Load(0), Insn::ConstI(99), Insn::ALoad, Insn::Ret],
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let e = interp
            .invoke("main", &[ArgValue::Bytes(vec![0; 10])], &mut NoHost)
            .unwrap_err();
        assert!(matches!(
            e,
            JaguarError::VmTrap(VmTrap::Bounds { index: 99, len: 10 })
        ));
    }

    #[test]
    fn negative_array_length_traps() {
        let e = run_i64(vec![Insn::ConstI(-5), Insn::NewArr, Insn::ALen, Insn::Ret]).unwrap_err();
        assert!(matches!(e, JaguarError::VmTrap(VmTrap::Bounds { .. })));
    }

    #[test]
    fn fuel_exhaustion_stops_infinite_loop() {
        let m = build(
            FuncSig::new(vec![], Some(VType::I64)),
            vec![],
            vec![Insn::Jmp(0), Insn::ConstI(0), Insn::Ret],
        );
        let interp = Interpreter::new(m, ResourceLimits::tight(10_000, 1 << 20), ExecMode::Jit);
        let e = interp.invoke("main", &[], &mut NoHost).unwrap_err();
        assert!(matches!(e, JaguarError::ResourceLimit(_)), "{e}");
        assert!(e.is_containable());
    }

    #[test]
    fn cancelled_token_stops_infinite_loop() {
        let m = build(
            FuncSig::new(vec![], Some(VType::I64)),
            vec![],
            vec![Insn::Jmp(0), Insn::ConstI(0), Insn::Ret],
        );
        // Unlimited fuel: only the pre-cancelled token can stop the loop.
        let mut interp = Interpreter::new(
            m,
            ResourceLimits {
                fuel: None,
                memory: Some(1 << 20),
                max_call_depth: 8,
            },
            ExecMode::Jit,
        );
        let token = CancelToken::unbounded();
        token.cancel();
        interp.set_cancel(token);
        let e = interp.invoke("main", &[], &mut NoHost).unwrap_err();
        assert!(matches!(e, JaguarError::Cancelled(_)), "{e}");
        assert!(e.is_containable());
    }

    #[test]
    fn expired_deadline_stops_infinite_loop() {
        let m = build(
            FuncSig::new(vec![], Some(VType::I64)),
            vec![],
            vec![Insn::Jmp(0), Insn::ConstI(0), Insn::Ret],
        );
        let mut interp = Interpreter::new(
            m,
            ResourceLimits {
                fuel: None,
                memory: Some(1 << 20),
                max_call_depth: 8,
            },
            ExecMode::Jit,
        );
        interp.set_cancel(CancelToken::with_deadline(std::time::Duration::ZERO));
        let e = interp.invoke("main", &[], &mut NoHost).unwrap_err();
        assert!(matches!(e, JaguarError::Timeout(_)), "{e}");
    }

    #[test]
    fn memory_bomb_stopped() {
        // loop allocating 1 MB arrays forever
        let code = vec![
            Insn::ConstI(1 << 20), // 0
            Insn::NewArr,          // 1
            Insn::Pop,             // 2
            Insn::Jmp(0),          // 3
            Insn::ConstI(0),       // 4 (dead)
            Insn::Ret,             // 5 (dead)
        ];
        let m = build(FuncSig::new(vec![], Some(VType::I64)), vec![], code);
        let interp = Interpreter::new(
            m,
            ResourceLimits {
                fuel: None,
                memory: Some(8 << 20),
                max_call_depth: 8,
            },
            ExecMode::Jit,
        );
        let e = interp.invoke("main", &[], &mut NoHost).unwrap_err();
        assert!(matches!(e, JaguarError::ResourceLimit(_)), "{e}");
    }

    #[test]
    fn recursion_depth_limited() {
        // f() { return f(); } — infinite recursion
        let f = Function {
            name: "main".into(),
            sig: FuncSig::new(vec![], Some(VType::I64)),
            local_types: vec![],
            code: vec![Insn::Call(0), Insn::Ret],
        };
        let m = Arc::new(
            Module {
                name: "t".into(),
                imports: vec![],
                functions: vec![f],
            }
            .verify()
            .unwrap(),
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let e = interp.invoke("main", &[], &mut NoHost).unwrap_err();
        assert!(matches!(e, JaguarError::ResourceLimit(_)), "{e}");
    }

    #[test]
    fn calls_pass_args_and_return() {
        // add(a,b) = a+b ; main() = add(20, 22)
        let add = Function {
            name: "add".into(),
            sig: FuncSig::new(vec![VType::I64, VType::I64], Some(VType::I64)),
            local_types: vec![],
            code: vec![Insn::Load(0), Insn::Load(1), Insn::AddI, Insn::Ret],
        };
        let main = Function {
            name: "main".into(),
            sig: FuncSig::new(vec![], Some(VType::I64)),
            local_types: vec![],
            code: vec![Insn::ConstI(20), Insn::ConstI(22), Insn::Call(0), Insn::Ret],
        };
        let m = Arc::new(
            Module {
                name: "t".into(),
                imports: vec![],
                functions: vec![add, main],
            }
            .verify()
            .unwrap(),
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let (ret, usage, _) = interp.invoke("main", &[], &mut NoHost).unwrap();
        assert_eq!(ret.unwrap().as_i64().unwrap(), 42);
        assert_eq!(usage.max_depth_seen, 2);
    }

    #[test]
    fn host_call_dispatches_and_counts() {
        struct Doubler;
        impl HostEnv for Doubler {
            fn host_call(
                &mut self,
                name: &str,
                args: &[VmValue],
                _arena: &mut Arena,
            ) -> Result<Option<VmValue>> {
                assert_eq!(name, "double");
                Ok(Some(VmValue::I64(args[0].as_i64()? * 2)))
            }
        }
        let m = Arc::new(
            Module {
                name: "t".into(),
                imports: vec![crate::module::HostImport {
                    name: "double".into(),
                    sig: FuncSig::new(vec![VType::I64], Some(VType::I64)),
                }],
                functions: vec![Function {
                    name: "main".into(),
                    sig: FuncSig::new(vec![], Some(VType::I64)),
                    local_types: vec![],
                    code: vec![Insn::ConstI(21), Insn::HostCall(0), Insn::Ret],
                }],
            }
            .verify()
            .unwrap(),
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let (ret, usage, _) = interp.invoke("main", &[], &mut Doubler).unwrap();
        assert_eq!(ret.unwrap().as_i64().unwrap(), 42);
        assert_eq!(usage.host_calls, 1);
    }

    #[test]
    fn security_manager_gates_host_calls() {
        let m = Arc::new(
            Module {
                name: "t".into(),
                imports: vec![crate::module::HostImport {
                    name: "steal_data".into(),
                    sig: FuncSig::new(vec![], Some(VType::I64)),
                }],
                functions: vec![Function {
                    name: "main".into(),
                    sig: FuncSig::new(vec![], Some(VType::I64)),
                    local_types: vec![],
                    code: vec![Insn::HostCall(0), Insn::Ret],
                }],
            }
            .verify()
            .unwrap(),
        );
        struct Never;
        impl HostEnv for Never {
            fn host_call(
                &mut self,
                _: &str,
                _: &[VmValue],
                _: &mut Arena,
            ) -> Result<Option<VmValue>> {
                panic!("security manager must block before the host is reached");
            }
        }
        let perms = Arc::new(PermissionSet::deny_all("udf"));
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit)
            .with_security(Arc::clone(&perms));
        let e = interp.invoke("main", &[], &mut Never).unwrap_err();
        assert!(matches!(e, JaguarError::SecurityViolation(_)), "{e}");
        assert_eq!(perms.violations().len(), 1);
    }

    #[test]
    fn explicit_trap() {
        let e = run_i64(vec![Insn::Trap(7)]).unwrap_err();
        assert!(matches!(e, JaguarError::VmTrap(VmTrap::Explicit(7))));
    }

    #[test]
    fn wrong_arg_count_and_type_rejected() {
        let m = build(
            FuncSig::new(vec![VType::I64], Some(VType::I64)),
            vec![],
            vec![Insn::Load(0), Insn::Ret],
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        assert!(interp.invoke("main", &[], &mut NoHost).is_err());
        assert!(interp
            .invoke("main", &[ArgValue::F64(1.0)], &mut NoHost)
            .is_err());
        assert!(interp.invoke("nope", &[], &mut NoHost).is_err());
    }

    #[test]
    fn bytes_argument_marshalled_and_summable() {
        // sum all bytes of arg0
        let code = vec![
            Insn::ConstI(0), // 0  i = 0 → store 1
            Insn::Store(1),  // 1
            Insn::ConstI(0), // 2  acc = 0 → store 2
            Insn::Store(2),  // 3
            // loop: if i >= len break
            Insn::Load(1),      // 4
            Insn::Load(0),      // 5
            Insn::ALen,         // 6
            Insn::LtI,          // 7  i < len
            Insn::JmpIfNot(19), // 8
            Insn::Load(2),      // 9
            Insn::Load(0),      // 10
            Insn::Load(1),      // 11
            Insn::ALoad,        // 12
            Insn::AddI,         // 13
            Insn::Store(2),     // 14
            Insn::Load(1),      // 15
            Insn::ConstI(1),    // 16
            Insn::AddI,         // 17
            Insn::Store(1),     // 18 → jmp 4 (inserted below)
            Insn::Load(2),      // 19
            Insn::Ret,          // 20
        ];
        let mut code = code;
        code.insert(19, Insn::Jmp(4));
        code[8] = Insn::JmpIfNot(20);
        let m = build(
            FuncSig::new(vec![VType::Bytes], Some(VType::I64)),
            vec![VType::I64, VType::I64],
            code,
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Baseline);
        let (ret, _, _) = interp
            .invoke("main", &[ArgValue::Bytes(vec![1, 2, 3, 4, 5])], &mut NoHost)
            .unwrap();
        assert_eq!(ret.unwrap().as_i64().unwrap(), 15);
    }

    #[test]
    fn usage_reports_allocation() {
        let m = build(
            FuncSig::new(vec![], Some(VType::I64)),
            vec![],
            vec![Insn::ConstI(1000), Insn::NewArr, Insn::ALen, Insn::Ret],
        );
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let (ret, usage, _) = interp.invoke("main", &[], &mut NoHost).unwrap();
        assert_eq!(ret.unwrap().as_i64().unwrap(), 1000);
        assert!(usage.bytes_allocated >= 1000);
    }
}

#[cfg(test)]
mod fusion_tests {
    use super::*;
    use crate::module::{FuncSig, Function, Module};

    fn sum_loop_module() -> Arc<VerifiedModule> {
        // The canonical hot loop the fuser targets:
        //   while (j < n) { acc = acc + data[j]; j = j + 1; }
        let src = "module m\nfunc main(bytes, i64) -> i64\nlocals i64, i64\n\
                   top:\n  load 2\n  load 1\n  lti\n  jmpifnot done\n\
                   load 3\n  load 0\n  load 2\n  aload\n  addi\n  store 3\n\
                   load 2\n  consti 1\n  addi\n  store 2\n  jmp top\n\
                   done:\n  load 3\n  ret\nend\n";
        let m = crate::asm::assemble(src).unwrap();
        Arc::new(m.verify().unwrap())
    }

    #[test]
    fn fusion_plan_contains_superinstructions() {
        let m = sum_loop_module();
        let plan = fuse(&m.functions()[0].code);
        assert!(plan
            .iter()
            .any(|op| matches!(op, FusedOp::CmpLocalsJmpIfNot { .. })));
        assert!(plan
            .iter()
            .any(|op| matches!(op, FusedOp::AccAddALoad { .. })));
        assert!(plan.iter().any(|op| matches!(op, FusedOp::IncLocal { .. })));
    }

    #[test]
    fn fused_and_baseline_agree_on_results_and_fuel() {
        let m = sum_loop_module();
        let data: Vec<u8> = (0..200u8).collect();
        let args = [
            ArgValue::Bytes(data.clone()),
            ArgValue::I64(data.len() as i64),
        ];
        let jit = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
        let base = Interpreter::new(m, ResourceLimits::default(), ExecMode::Baseline);
        let (rj, uj, _) = jit.invoke("main", &args, &mut NoHost).unwrap();
        let (rb, ub, _) = base.invoke("main", &args, &mut NoHost).unwrap();
        assert_eq!(rj.unwrap().as_i64().unwrap(), rb.unwrap().as_i64().unwrap());
        // Fuel accounting is dispatch-independent.
        assert_eq!(uj.instructions, ub.instructions);
    }

    #[test]
    fn fusion_preserves_bounds_checks() {
        // Same loop but the bound is longer than the array: the fused
        // AccAddALoad must still trap.
        let m = sum_loop_module();
        let jit = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let e = jit
            .invoke(
                "main",
                &[ArgValue::Bytes(vec![1, 2, 3]), ArgValue::I64(10)],
                &mut NoHost,
            )
            .unwrap_err();
        assert!(matches!(
            e,
            JaguarError::VmTrap(VmTrap::Bounds { index: 3, len: 3 })
        ));
    }

    #[test]
    fn fusion_refuses_to_span_jump_targets() {
        // A jump lands in the middle of what would otherwise fuse as
        // IncLocal; the fuser must keep those instructions unfused.
        let f = Function {
            name: "main".into(),
            sig: FuncSig::new(vec![VType::I64], Some(VType::I64)),
            local_types: vec![],
            code: vec![
                // 0: entry — jump into the middle of the would-be pattern
                Insn::Load(0),  // 0
                Insn::JmpIf(4), // 1 → target 4 is inside [2..6)
                // would-be IncLocal pattern at 2: Load 0; ConstI 1; AddI; Store 0
                Insn::Load(0),   // 2
                Insn::ConstI(1), // 3
                Insn::AddI,      // 4  ← jump target! needs a stack value…
                Insn::Store(0),  // 5
                Insn::Load(0),   // 6
                Insn::Ret,       // 7
            ],
        };
        let module = Module {
            name: "t".into(),
            imports: vec![],
            functions: vec![f],
        };
        // This module does NOT verify (jumping to 4 with wrong stack), but
        // the fuser operates pre-verification in tests: check it directly.
        let plan = fuse(&module.functions[0].code);
        assert!(
            plan.iter().all(|op| matches!(op, FusedOp::Std(_))),
            "no fusion may span the jump target: {plan:?}"
        );
    }

    #[test]
    fn fused_loop_is_faster_than_baseline() {
        // Not a strict benchmark — just a sanity check that fusion pays.
        let m = sum_loop_module();
        let data: Vec<u8> = vec![7; 100_000];
        let args = [
            ArgValue::Bytes(data.clone()),
            ArgValue::I64(data.len() as i64),
        ];
        let jit = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
        let base = Interpreter::new(m, ResourceLimits::default(), ExecMode::Baseline);
        let t0 = std::time::Instant::now();
        jit.invoke("main", &args, &mut NoHost).unwrap();
        let jit_time = t0.elapsed();
        let t0 = std::time::Instant::now();
        base.invoke("main", &args, &mut NoHost).unwrap();
        let base_time = t0.elapsed();
        assert!(
            jit_time < base_time,
            "fused {jit_time:?} should beat baseline {base_time:?}"
        );
    }
}
