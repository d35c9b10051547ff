//! The JSM execution engine.
//!
//! Two engines run a [`VerifiedModule`]:
//!
//! * [`ExecMode::Baseline`] is the reference interpreter: it executes the
//!   verified instructions one at a time over an operand stack. It is the
//!   oracle every differential test compares against.
//! * [`ExecMode::Jit`] runs the module's compiled register form
//!   ([`crate::tier`]), which the verifier built once — modelling the JVM
//!   the paper used ("In all cases, the JVM included a JIT compiler"). A
//!   function the compiler could not take runs in the interpreter. The A2
//!   ablation bench quantifies the difference.
//!
//! In **both** engines every array access is bounds-checked ([`Arena`]),
//! fuel and memory budgets are enforced ([`ResourceLimits`]), and host
//! calls pass through the security manager — those are the *semantic*
//! costs of safety the paper measures; the engine only changes dispatch
//! overhead.
//!
//! The interpreter only accepts a [`VerifiedModule`], so type errors at
//! runtime indicate an interpreter bug, not a UDF bug; they still surface
//! as containable traps rather than panics (defence in depth).

use std::sync::Arc;

use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result, VmTrap};

use crate::arena::{Arena, BytesRef};
use crate::isa::{Insn, VType};
use crate::module::VerifiedModule;
use crate::resources::{ResourceLimits, ResourceUsage};
use crate::security::PermissionSet;
use crate::tier::{self, TierTally};

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
            _ => Err(VmTrap::Type("expected i64".into()).into()),
        }
    }

    /// Extract the float, or a type trap.
    pub fn as_f64(self) -> Result<f64> {
        match self {
            VmValue::F64(v) => Ok(v),
            _ => Err(VmTrap::Type("expected f64".into()).into()),
        }
    }

    /// Extract the bytes reference, or a type trap.
    pub fn as_bytes(self) -> Result<BytesRef> {
        match self {
            VmValue::Bytes(r) => Ok(r),
            _ => Err(VmTrap::Type("expected bytes".into()).into()),
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

/// Which engine runs a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The reference interpreter.
    Baseline,
    /// The compiled tier, from the first call. A function the compiler
    /// could not take (see [`Interpreter::runs_compiled`]) runs in the
    /// reference interpreter instead.
    Jit,
}

struct Frame {
    func: u32,
    pc: usize,
    locals: Vec<VmValue>,
    stack_base: usize,
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
        Interpreter {
            module,
            limits,
            mode,
            security: None,
            cancel: None,
        }
    }

    /// Has no effect: kept only for the benchmark's layer probe, which
    /// still calls it.
    #[doc(hidden)]
    pub fn with_tier_up(self, _calls: Option<u64>) -> Interpreter {
        self
    }

    /// Does a call of function `fidx` run compiled? True in `Jit` mode for
    /// every function the compiler took whole, callees included; every
    /// other call runs in the reference interpreter.
    pub fn runs_compiled(&self, fidx: u32) -> bool {
        self.mode == ExecMode::Jit && self.module.compiled().entry_runnable(fidx)
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
        let fidx = self.resolve(func)?;
        let (ret, usage) = self.invoke_resolved(fidx, func, vm_args, &mut arena, host)?;
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
        // `Jit` runs the compiled tier whenever the compiler covered the
        // whole call graph; otherwise it falls back to this interpreter
        // (observable behaviour is identical either way).
        if self.runs_compiled(entry) {
            tally.compiled_hits += 1;
            let cm = self.module.compiled();
            return tier::run_compiled(self, cm, entry, args, arena, host, tally);
        }
        if self.mode == ExecMode::Jit {
            tally.fallbacks += 1;
        }

        let funcs = self.module.functions();
        let imports = self.module.imports();

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
                    .ok_or_else(|| JaguarError::VmTrap(VmTrap::Stack("underflow".into())))?
            };
        }

        loop {
            let frame = frames.last_mut().expect("at least one frame");
            let insn = funcs[frame.func as usize].code[frame.pc];

            // Resource policing: the per-instruction fuel check (A3). On
            // exhaustion report `initial_fuel + 1` — the instruction that
            // could not be afforded.
            if let Some(left) = fuel.as_mut() {
                if *left == 0 {
                    usage.instructions += 1;
                    return Err(JaguarError::ResourceLimit(format!(
                        "fuel exhausted after {} instructions",
                        usage.instructions
                    )));
                }
                *left -= 1;
            }
            usage.instructions += 1;
            // Cooperative cancellation: poll the statement token at a
            // coarse cadence so runaway-but-fueled loops still respect
            // deadlines and client cancels.
            if let Some(token) = &self.cancel {
                cancel_left -= 1;
                if cancel_left == 0 {
                    token.check()?;
                    cancel_left = CANCEL_CHECK_INTERVAL;
                }
            }

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
                        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow".into())))?;
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
                        return Err(JaguarError::VmTrap(VmTrap::Stack("underflow".into())));
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
                        return Err(JaguarError::VmTrap(VmTrap::Stack("underflow".into())));
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
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow".into())))?
        .as_i64()?;
    let a = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow".into())))?
        .as_i64()?;
    stack.push(VmValue::I64(f(a, b)?));
    Ok(())
}

#[inline]
fn binop_f(stack: &mut Vec<VmValue>, f: impl Fn(f64, f64) -> f64) -> Result<()> {
    let b = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow".into())))?
        .as_f64()?;
    let a = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow".into())))?
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
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow".into())))?
        .as_f64()?;
    let a = stack
        .pop()
        .ok_or(JaguarError::VmTrap(VmTrap::Stack("underflow".into())))?
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
