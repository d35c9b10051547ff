//! Froid-style translation of straight-line JagScript bytecode into a
//! native scalar-expression tree.
//!
//! The translator runs a *symbolic* execution of the verified bytecode:
//! the operand stack holds expression trees instead of values, locals
//! hold the expression last stored into them, and a conditional jump
//! forks the machine into both successors (jumps are forward-only — a
//! back-edge means a loop and bails immediately). When every path ends
//! in `Ret`, the forked results fold into [`SExpr::If`] nodes and the
//! whole body becomes one expression over the UDF's arguments.
//!
//! An operation that can trap — a division by anything but a non-zero
//! constant, a byte read — is not left inside the tree, to run when (and
//! if) its value is first used: it is hoisted into an [`SExpr::Let`] at its
//! place in program order, and later expressions read its slot like an
//! argument. A body therefore traps exactly where, and with exactly the
//! trap, the interpreter would — also when a trapping value is never used,
//! or when two different traps compete.
//!
//! Evaluation then mirrors the interpreter *exactly* — wrapping integer
//! arithmetic, `& 63` shift masking, IEEE float semantics, comparisons
//! yielding `0`/`1`, the same `integer divide by zero` and array-bounds
//! traps — plus the VM-UDF marshalling rules (`Bool` travels as `i64`,
//! `NULL` is rejected with the same error text as [`value_to_vm`] would
//! produce, and a byte array the sandbox's memory budget could not hold is
//! refused with the arena's own text, although nothing is copied here:
//! `b[i]` and `len(b)` read the argument where it lies).
//! That is what lets the engine substitute an inlined body for a real
//! sandbox invocation while keeping rows *and* error text byte-identical.
//!
//! Bail-out rules (any of these falls back to the normal call path):
//! loops (back-edges), `Call` / `HostCall`, array stores and allocations,
//! array reads on anything but a parameter, bytes-typed locals or results,
//! explicit `Trap`s on a reachable path, reads of never-written locals,
//! bodies over the node/step budget, and fuel limits tight enough that a real invocation could
//! plausibly trap where the inline evaluation would not.
//!
//! [`value_to_vm`]: https://en.wikipedia.org/wiki/Marshalling_(computer_science)

use jaguar_common::error::{JaguarError, Result, VmTrap};
use jaguar_common::{DataType, Value};
use jaguar_vm::{Function, Insn, ResourceLimits, VType};

/// Hard ceiling on translated expression size, in tree nodes. Bodies
/// larger than this are cheaper to run in the (tiered) VM anyway.
pub const MAX_NODES: usize = 4096;
/// Hard ceiling on symbolically executed instructions across all forks.
pub const MAX_STEPS: usize = 4096;
/// Maximum conditional-fork nesting depth.
pub const MAX_FORK_DEPTH: usize = 24;
/// A straight-line body executes at most `code.len()` instructions, so
/// any fuel budget at or above this can never trap on an inlinable
/// function; tighter budgets bail so the call path keeps its semantics.
pub const MIN_INLINE_FUEL: u64 = 10_000;

/// Integer binary operators (VM semantics: wrapping, masked shifts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Float binary operators (IEEE-754, like the VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison operators; like the VM's, they yield `i64` `0`/`1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum COp {
    Eq,
    Lt,
    Le,
}

/// A scalar expression over the UDF's arguments and the values its block
/// (and the blocks before it) hoisted.
#[derive(Debug, Clone)]
pub enum SExpr {
    /// Slot `i`: argument `i` of the UDF in VM representation (`Bool` →
    /// `i64`), or — from the arity up — a hoisted value.
    Arg(u16),
    ConstI(i64),
    ConstF(f64),
    BinI(IOp, Box<SExpr>, Box<SExpr>),
    BinF(FOp, Box<SExpr>, Box<SExpr>),
    CmpI(COp, Box<SExpr>, Box<SExpr>),
    CmpF(COp, Box<SExpr>, Box<SExpr>),
    NegI(Box<SExpr>),
    NegF(Box<SExpr>),
    /// Bitwise not (the VM's `Not`; JagScript `!x` compiles to `EqI 0`).
    NotI(Box<SExpr>),
    I2F(Box<SExpr>),
    F2I(Box<SExpr>),
    /// `cond != 0 ? then_ : else_`, evaluating only the taken branch.
    If {
        cond: Box<SExpr>,
        then_: Box<SExpr>,
        else_: Box<SExpr>,
    },
    /// `b[i]` on bytes argument `b`: `0..=255`, or the VM's bounds trap.
    ByteAt(u16, Box<SExpr>),
    /// `len(b)` of bytes argument `b`.
    Len(u16),
    /// Evaluate the first expression — one that can trap — into the next
    /// free slot, then the second, which may read it.
    Let(Box<SExpr>, Box<SExpr>),
}

/// A VM value during inline evaluation; a byte array is the argument's own
/// bytes, never a copy.
#[derive(Debug, Clone, Copy)]
enum SVal<'a> {
    I(i64),
    F(f64),
    B(&'a [u8]),
}

impl<'a> SVal<'a> {
    fn as_i(self) -> Result<i64> {
        match self {
            SVal::I(i) => Ok(i),
            _ => Err(JaguarError::VmTrap(VmTrap::Type("expected i64"))),
        }
    }

    fn as_f(self) -> Result<f64> {
        match self {
            SVal::F(f) => Ok(f),
            _ => Err(JaguarError::VmTrap(VmTrap::Type("expected f64"))),
        }
    }

    fn as_bytes(self) -> Result<&'a [u8]> {
        match self {
            SVal::B(b) => Ok(b),
            _ => Err(JaguarError::VmTrap(VmTrap::Type("expected bytes"))),
        }
    }
}

/// A successfully translated UDF body, ready to evaluate per tuple.
#[derive(Debug, Clone)]
pub struct InlineBody {
    expr: SExpr,
    arity: usize,
    /// Slots an evaluation can fill: arguments plus hoisted values.
    slots: usize,
    sql_ret: DataType,
    /// The sandbox's arena budget, which a real call's argument marshalling
    /// is held to.
    memory: Option<usize>,
    /// Tree size, surfaced in plan notes.
    pub nodes: usize,
}

impl InlineBody {
    /// Evaluate the inlined body against SQL argument values, applying
    /// the same marshalling rules as a real VM invocation. The caller
    /// is expected to have run `UdfSignature::check_args` first, exactly
    /// as `VmUdf::invoke` does.
    pub fn invoke(&self, args: &[Value]) -> Result<Value> {
        debug_assert_eq!(args.len(), self.arity);
        let mut slots = Vec::with_capacity(self.slots);
        let mut marshalled = 0usize;
        for a in args {
            slots.push(match a {
                Value::Int(i) => SVal::I(*i),
                Value::Float(f) => SVal::F(*f),
                Value::Bool(b) => SVal::I(*b as i64),
                Value::Bytes(b) => {
                    // Same text as the arena's, which the call path copies
                    // every byte array into before the body runs.
                    marshalled = marshalled.saturating_add(b.len());
                    if let Some(limit) = self.memory.filter(|l| marshalled > *l) {
                        return Err(JaguarError::ResourceLimit(format!(
                            "memory: {marshalled} bytes requested, limit {limit}"
                        )));
                    }
                    SVal::B(b.as_slice())
                }
                other => {
                    // Same text as vmexec::value_to_vm (NULLs conform to
                    // the signature but cannot cross into the VM).
                    return Err(JaguarError::Udf(format!("cannot pass {other} to a VM UDF")));
                }
            });
        }
        match eval(&self.expr, &mut slots)? {
            SVal::I(i) if self.sql_ret == DataType::Bool => Ok(Value::Bool(i != 0)),
            SVal::I(i) => Ok(Value::Int(i)),
            SVal::F(f) => Ok(Value::Float(f)),
            SVal::B(_) => Err(JaguarError::VmTrap(VmTrap::Type("expected a scalar"))),
        }
    }
}

fn eval<'a>(e: &SExpr, args: &mut Vec<SVal<'a>>) -> Result<SVal<'a>> {
    Ok(match e {
        SExpr::Arg(i) => args[*i as usize],
        SExpr::ConstI(i) => SVal::I(*i),
        SExpr::ConstF(f) => SVal::F(*f),
        SExpr::BinI(op, l, r) => {
            let a = eval(l, args)?.as_i()?;
            let b = eval(r, args)?.as_i()?;
            SVal::I(match op {
                IOp::Add => a.wrapping_add(b),
                IOp::Sub => a.wrapping_sub(b),
                IOp::Mul => a.wrapping_mul(b),
                IOp::Div => {
                    if b == 0 {
                        return Err(JaguarError::VmTrap(VmTrap::DivideByZero));
                    }
                    a.wrapping_div(b)
                }
                IOp::Rem => {
                    if b == 0 {
                        return Err(JaguarError::VmTrap(VmTrap::DivideByZero));
                    }
                    a.wrapping_rem(b)
                }
                IOp::And => a & b,
                IOp::Or => a | b,
                IOp::Xor => a ^ b,
                IOp::Shl => a.wrapping_shl(b as u32 & 63),
                IOp::Shr => a.wrapping_shr(b as u32 & 63),
            })
        }
        SExpr::BinF(op, l, r) => {
            let a = eval(l, args)?.as_f()?;
            let b = eval(r, args)?.as_f()?;
            SVal::F(match op {
                FOp::Add => a + b,
                FOp::Sub => a - b,
                FOp::Mul => a * b,
                FOp::Div => a / b,
            })
        }
        SExpr::CmpI(op, l, r) => {
            let a = eval(l, args)?.as_i()?;
            let b = eval(r, args)?.as_i()?;
            SVal::I(match op {
                COp::Eq => a == b,
                COp::Lt => a < b,
                COp::Le => a <= b,
            } as i64)
        }
        SExpr::CmpF(op, l, r) => {
            let a = eval(l, args)?.as_f()?;
            let b = eval(r, args)?.as_f()?;
            SVal::I(match op {
                COp::Eq => a == b,
                COp::Lt => a < b,
                COp::Le => a <= b,
            } as i64)
        }
        SExpr::NegI(x) => SVal::I(eval(x, args)?.as_i()?.wrapping_neg()),
        SExpr::NegF(x) => SVal::F(-eval(x, args)?.as_f()?),
        SExpr::NotI(x) => SVal::I(!eval(x, args)?.as_i()?),
        SExpr::I2F(x) => SVal::F(eval(x, args)?.as_i()? as f64),
        SExpr::F2I(x) => SVal::I(eval(x, args)?.as_f()? as i64),
        SExpr::ByteAt(b, i) => {
            let (bytes, index) = (args[*b as usize].as_bytes()?, eval(i, args)?.as_i()?);
            match usize::try_from(index).ok().and_then(|i| bytes.get(i)) {
                Some(byte) => SVal::I(*byte as i64),
                None => {
                    let len = bytes.len();
                    return Err(JaguarError::VmTrap(VmTrap::Bounds { index, len }));
                }
            }
        }
        SExpr::Len(b) => SVal::I(args[*b as usize].as_bytes()?.len() as i64),
        SExpr::If { cond, then_, else_ } => {
            if eval(cond, args)?.as_i()? != 0 {
                eval(then_, args)?
            } else {
                eval(else_, args)?
            }
        }
        SExpr::Let(value, body) => {
            let v = eval(value, args)?;
            args.push(v);
            eval(body, args)?
        }
    })
}

/// One symbolic stack/local slot: an expression plus its node count.
type Sym = (SExpr, usize);

/// What every fork of the symbolic machine shares.
struct Machine<'a> {
    code: &'a [Insn],
    params: &'a [VType],
    /// Instructions left to execute.
    steps: usize,
    /// Operations hoisted so far.
    lets: usize,
}

/// Try to translate `func` into a scalar expression. `sql_ret` is the
/// SQL-level return type (drives the `Bool` unmarshalling rule) and
/// `limits` are the UDF's sandbox budgets: a tight fuel budget bails (see
/// [`MIN_INLINE_FUEL`]), the memory budget is what byte-array arguments are
/// held to. Returns the bail-out reason otherwise.
pub fn try_inline(
    func: &Function,
    sql_ret: DataType,
    limits: &ResourceLimits,
) -> std::result::Result<InlineBody, &'static str> {
    if limits.fuel.is_some_and(|f| f < MIN_INLINE_FUEL) {
        return Err("fuel budget too tight");
    }
    if func.sig.ret != Some(VType::I64) && func.sig.ret != Some(VType::F64) {
        return Err("non-scalar return");
    }
    if func.local_types.contains(&VType::Bytes) {
        return Err("bytes-typed local");
    }
    let arity = func.sig.params.len();
    let mut locals: Vec<Option<Sym>> = Vec::with_capacity(func.total_locals());
    for i in 0..arity {
        locals.push(Some((SExpr::Arg(i as u16), 1)));
    }
    // Extra locals start unwritten; a Load before a Store bails rather
    // than guessing the VM's zero-init behaviour.
    locals.resize(func.total_locals(), None);
    let mut m = Machine {
        code: &func.code,
        params: &func.sig.params,
        steps: MAX_STEPS,
        lets: 0,
    };
    let (expr, nodes) = run(&mut m, 0, Vec::new(), locals, arity, 0)?;
    Ok(InlineBody {
        expr,
        arity,
        slots: arity + m.lets,
        sql_ret,
        memory: limits.memory,
        nodes,
    })
}

/// Symbolically execute from `pc` until `Ret`, forking at conditional
/// jumps; `base` slots are filled on entry. Returns the expression for the
/// value left on top of the stack at `Ret`.
fn run(
    m: &mut Machine<'_>,
    mut pc: usize,
    mut stack: Vec<Sym>,
    mut locals: Vec<Option<Sym>>,
    base: usize,
    depth: usize,
) -> std::result::Result<Sym, &'static str> {
    if depth > MAX_FORK_DEPTH {
        return Err("conditionals nested too deeply");
    }
    // The operations hoisted out of this stretch of code, in program order;
    // they end up wrapped around its result, outermost first.
    let mut lets: Vec<Sym> = Vec::new();
    let hoisted = |lets: Vec<Sym>, tail: Sym| {
        let wrap =
            |(body, bs), (value, vs)| (SExpr::Let(Box::new(value), Box::new(body)), bs + vs + 1);
        Some(lets.into_iter().rev().fold(tail, wrap)).filter(|(_, sz)| *sz <= MAX_NODES)
    };
    macro_rules! pop {
        () => {
            stack.pop().ok_or("operand stack shape")?
        };
    }
    // A trapping operation: evaluate it here, in program order, into the
    // next slot, and leave a read of that slot on the stack.
    macro_rules! hoist {
        ($e:expr, $sz:expr) => {{
            let slot = u16::try_from(base + lets.len()).map_err(|_| "body too large")?;
            lets.push(($e, $sz));
            m.lets += 1;
            stack.push((SExpr::Arg(slot), 1));
        }};
    }
    macro_rules! bin {
        ($variant:ident, $op:expr) => {{
            let (b, bs) = pop!();
            let (a, asz) = pop!();
            let sz = asz + bs + 1;
            if sz > MAX_NODES {
                return Err("body too large");
            }
            stack.push((SExpr::$variant($op, Box::new(a), Box::new(b)), sz));
        }};
    }
    macro_rules! un {
        ($variant:ident) => {{
            let (a, asz) = pop!();
            let sz = asz + 1;
            if sz > MAX_NODES {
                return Err("body too large");
            }
            stack.push((SExpr::$variant(Box::new(a)), sz));
        }};
    }
    // The bytes parameter an array instruction reads. Locals and results
    // are never bytes here, so a bytes value is always an argument slot.
    macro_rules! bytes_param {
        () => {
            match pop!().0 {
                SExpr::Arg(k) if m.params.get(k as usize) == Some(&VType::Bytes) => k,
                _ => return Err("array read on a non-parameter"),
            }
        };
    }
    loop {
        m.steps = m.steps.checked_sub(1).ok_or("body too large")?;
        let insn = *m.code.get(pc).ok_or("fell off end of code")?;
        match insn {
            Insn::ConstI(i) => stack.push((SExpr::ConstI(i), 1)),
            Insn::ConstF(f) => stack.push((SExpr::ConstF(f), 1)),
            Insn::Load(i) => {
                let slot = locals
                    .get(i as usize)
                    .ok_or("undefined local")?
                    .clone()
                    .ok_or("read of unwritten local")?;
                stack.push(slot);
            }
            Insn::Store(i) => {
                let v = pop!();
                *locals.get_mut(i as usize).ok_or("undefined local")? = Some(v);
            }
            Insn::Pop => {
                pop!();
            }
            Insn::Dup => {
                let top = stack.last().ok_or("operand stack shape")?.clone();
                stack.push(top);
            }
            Insn::Swap => {
                let n = stack.len();
                if n < 2 {
                    return Err("operand stack shape");
                }
                stack.swap(n - 1, n - 2);
            }
            Insn::AddI => bin!(BinI, IOp::Add),
            Insn::SubI => bin!(BinI, IOp::Sub),
            Insn::MulI => bin!(BinI, IOp::Mul),
            Insn::DivI | Insn::RemI => {
                // Only a non-zero constant divisor cannot trap.
                let safe = matches!(stack.last(), Some((SExpr::ConstI(c), _)) if *c != 0);
                bin!(
                    BinI,
                    if insn == Insn::DivI {
                        IOp::Div
                    } else {
                        IOp::Rem
                    }
                );
                if !safe {
                    let (e, sz) = pop!();
                    hoist!(e, sz);
                }
            }
            Insn::And => bin!(BinI, IOp::And),
            Insn::Or => bin!(BinI, IOp::Or),
            Insn::Xor => bin!(BinI, IOp::Xor),
            Insn::Shl => bin!(BinI, IOp::Shl),
            Insn::Shr => bin!(BinI, IOp::Shr),
            Insn::AddF => bin!(BinF, FOp::Add),
            Insn::SubF => bin!(BinF, FOp::Sub),
            Insn::MulF => bin!(BinF, FOp::Mul),
            Insn::DivF => bin!(BinF, FOp::Div),
            Insn::EqI => bin!(CmpI, COp::Eq),
            Insn::LtI => bin!(CmpI, COp::Lt),
            Insn::LeI => bin!(CmpI, COp::Le),
            Insn::EqF => bin!(CmpF, COp::Eq),
            Insn::LtF => bin!(CmpF, COp::Lt),
            Insn::LeF => bin!(CmpF, COp::Le),
            Insn::NegI => un!(NegI),
            Insn::NegF => un!(NegF),
            Insn::Not => un!(NotI),
            Insn::I2F => un!(I2F),
            Insn::F2I => un!(F2I),
            Insn::ALoad => {
                let (index, sz) = pop!();
                let b = bytes_param!();
                hoist!(SExpr::ByteAt(b, Box::new(index)), sz + 1);
            }
            Insn::ALen => {
                let b = bytes_param!();
                stack.push((SExpr::Len(b), 1));
            }
            Insn::Jmp(t) => {
                let t = t as usize;
                if t <= pc {
                    return Err("loop (back-edge)");
                }
                pc = t;
                continue;
            }
            Insn::JmpIf(t) | Insn::JmpIfNot(t) => {
                let t = t as usize;
                if t <= pc {
                    return Err("loop (back-edge)");
                }
                let (cond, csz) = pop!();
                // JmpIf takes the jump when cond != 0; JmpIfNot when == 0.
                let (on_true, on_false) = match insn {
                    Insn::JmpIf(_) => (t, pc + 1),
                    _ => (pc + 1, t),
                };
                let base = base + lets.len();
                let (then_, tsz) = run(m, on_true, stack.clone(), locals.clone(), base, depth + 1)?;
                let (else_, esz) = run(m, on_false, stack, locals, base, depth + 1)?;
                let fork = SExpr::If {
                    cond: Box::new(cond),
                    then_: Box::new(then_),
                    else_: Box::new(else_),
                };
                return hoisted(lets, (fork, csz + tsz + esz + 1)).ok_or("body too large");
            }
            Insn::Ret => return hoisted(lets, pop!()).ok_or("body too large"),
            Insn::Call(_) => return Err("function call"),
            Insn::HostCall(_) => return Err("host callback"),
            Insn::NewArr | Insn::AStore => return Err("array store or allocation"),
            Insn::Trap(_) => return Err("explicit trap reachable"),
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_lang::compile;
    use jaguar_vm::interp::{ArgValue, ExecMode, Interpreter, NoHost, VmValue};
    use jaguar_vm::{ResourceLimits, VerifiedModule};
    use std::sync::Arc;

    fn compiled(src: &str) -> Arc<VerifiedModule> {
        Arc::new(compile("m", src).unwrap().verify().unwrap())
    }

    fn limits(fuel: Option<u64>, memory: Option<usize>) -> ResourceLimits {
        ResourceLimits {
            fuel,
            memory,
            ..ResourceLimits::default()
        }
    }

    fn body(src: &str, ret: DataType) -> InlineBody {
        let m = compiled(src);
        let f = &m.functions()[m.find_function("main").unwrap() as usize];
        try_inline(f, ret, &limits(None, None)).unwrap()
    }

    fn bail(src: &str) -> &'static str {
        let m = compiled(src);
        let f = &m.functions()[m.find_function("main").unwrap() as usize];
        try_inline(f, DataType::Int, &limits(None, None)).unwrap_err()
    }

    /// Run the same source through the real interpreter for comparison.
    fn vm_run(src: &str, args: &[ArgValue]) -> Result<VmValue> {
        let m = compiled(src);
        let interp = Interpreter::new(m, ResourceLimits::default(), ExecMode::Jit);
        let (ret, _, _) = interp.invoke("main", args, &mut NoHost)?;
        Ok(ret.unwrap())
    }

    #[test]
    fn straight_line_arithmetic() {
        let b = body(
            "fn main(x: i64) -> i64 { return x * 3 + 1; }",
            DataType::Int,
        );
        assert_eq!(b.invoke(&[Value::Int(5)]).unwrap(), Value::Int(16));
        assert_eq!(
            b.invoke(&[Value::Int(i64::MAX)]).unwrap(),
            Value::Int(i64::MAX.wrapping_mul(3).wrapping_add(1)),
            "wrapping semantics must match the VM"
        );
    }

    #[test]
    fn locals_and_conditionals() {
        let src = r#"
            fn main(x: i64, y: i64) -> i64 {
                let d: i64 = x - y;
                if d < 0 { return 0 - d; }
                return d;
            }
        "#;
        let b = body(src, DataType::Int);
        assert_eq!(
            b.invoke(&[Value::Int(3), Value::Int(10)]).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            b.invoke(&[Value::Int(10), Value::Int(3)]).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn logical_ops_and_comparisons() {
        let src = r#"
            fn main(x: i64) -> i64 {
                if x > 10 && x != 13 { return 1; }
                return 0;
            }
        "#;
        let b = body(src, DataType::Int);
        for (x, want) in [(11, 1), (13, 0), (9, 0)] {
            assert_eq!(b.invoke(&[Value::Int(x)]).unwrap(), Value::Int(want));
        }
    }

    #[test]
    fn float_body_and_conversion() {
        let b = body(
            "fn main(x: f64) -> f64 { return x * 2.0 + 0.5; }",
            DataType::Float,
        );
        assert_eq!(b.invoke(&[Value::Float(1.25)]).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn bool_return_unmarshals_like_the_vm() {
        let b = body("fn main(b: i64) -> i64 { return !b; }", DataType::Bool);
        assert_eq!(b.invoke(&[Value::Bool(false)]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_arg_matches_vm_marshalling_error() {
        let b = body("fn main(x: i64) -> i64 { return x; }", DataType::Int);
        let e = b.invoke(&[Value::Null]).unwrap_err();
        assert!(
            e.to_string().contains("cannot pass NULL to a VM UDF"),
            "{e}"
        );
    }

    #[test]
    fn divide_by_zero_reproduces_vm_trap() {
        let b = body("fn main(x: i64) -> i64 { return 10 / x; }", DataType::Int);
        let e = b.invoke(&[Value::Int(0)]).unwrap_err();
        assert!(
            matches!(e, JaguarError::VmTrap(VmTrap::DivideByZero)),
            "{e}"
        );
        // …and the happy path divides like the VM (wrapping).
        assert_eq!(b.invoke(&[Value::Int(3)]).unwrap(), Value::Int(3));
    }

    #[test]
    fn bails_on_loops_calls_and_arrays() {
        assert_eq!(
            bail("fn main(x: i64) -> i64 { while x > 0 { x = x - 1; } return x; }"),
            "loop (back-edge)"
        );
        assert_eq!(
            bail("fn helper(x: i64) -> i64 { return x; } fn main(x: i64) -> i64 { return helper(x); }"),
            "function call"
        );
        assert_eq!(
            bail("import probe(i64) -> i64; fn main(x: i64) -> i64 { return probe(x); }"),
            "host callback"
        );
        assert_eq!(
            bail("fn main(b: bytes) -> i64 { b[0] = 1; return len(b); }"),
            "array store or allocation"
        );
        assert_eq!(
            bail("fn main(n: i64) -> i64 { return len(newbytes(n)); }"),
            "array store or allocation"
        );
    }

    fn bytes(data: &[u8]) -> Value {
        Value::Bytes(jaguar_common::ByteArray::new(data.to_vec()))
    }

    /// `b[i]` and `len(b)` on a parameter read the argument where it lies,
    /// with the arena's results, bounds trap and memory refusal.
    #[test]
    fn byte_reads_on_a_parameter_match_the_vm() {
        let src = "fn main(b: bytes, i: i64) -> i64 { return b[i] * 1000 + len(b); }";
        let b = body(src, DataType::Int);
        for data in [&[][..], &[7], &[1, 2, 255, 4]] {
            for i in [-1i64, 0, 1, 3, 4, i64::MAX] {
                let want = vm_run(src, &[ArgValue::Bytes(data.to_vec()), ArgValue::I64(i)])
                    .map(|v| v.as_i64().unwrap())
                    .map_err(|e| e.to_string());
                let got = b
                    .invoke(&[bytes(data), Value::Int(i)])
                    .map(|v| v.as_int().unwrap())
                    .map_err(|e| e.to_string());
                assert_eq!(
                    got,
                    want,
                    "diverged from VM at len {} index {i}",
                    data.len()
                );
            }
        }
        let e = b.invoke(&[Value::Null, Value::Int(0)]).unwrap_err();
        assert!(
            e.to_string().contains("cannot pass NULL to a VM UDF"),
            "{e}"
        );
        // The call path copies the array into an arena with this budget.
        let m = compiled(src);
        let f = &m.functions()[m.find_function("main").unwrap() as usize];
        let tight = try_inline(f, DataType::Int, &limits(None, Some(3))).unwrap();
        assert!(tight.invoke(&[bytes(&[1, 2, 3]), Value::Int(0)]).is_ok());
        let e = tight
            .invoke(&[bytes(&[1, 2, 3, 4]), Value::Int(0)])
            .unwrap_err();
        let mut arena = jaguar_vm::Arena::new(Some(3));
        let want = arena.alloc_from(&[1, 2, 3, 4]).unwrap_err();
        assert_eq!(e.to_string(), want.to_string());
    }

    /// A trap fires where the interpreter would raise it: also when its
    /// value is never used, and in program order when two kinds compete.
    #[test]
    fn traps_fire_in_program_order_even_when_unused() {
        let dead = "fn main(x: i64) -> i64 { let d: i64 = 10 / x; return 1; }";
        let e = body(dead, DataType::Int)
            .invoke(&[Value::Int(0)])
            .unwrap_err();
        assert!(
            matches!(e, JaguarError::VmTrap(VmTrap::DivideByZero)),
            "{e}"
        );
        let two = "fn main(b: bytes, x: i64) -> i64 {
            let first: i64 = b[5];
            let second: i64 = 10 / x;
            if x > 100 { return second; }
            return second + first;
        }";
        let b = body(two, DataType::Int);
        for (data, x) in [
            (&[][..], 0i64),
            (&[1, 2, 3, 4, 5, 6], 0),
            (&[], 3),
            (&[9; 6], 200),
        ] {
            let want = vm_run(two, &[ArgValue::Bytes(data.to_vec()), ArgValue::I64(x)])
                .map(|v| v.as_i64().unwrap())
                .map_err(|e| e.to_string());
            let got = b
                .invoke(&[bytes(data), Value::Int(x)])
                .map(|v| v.as_int().unwrap())
                .map_err(|e| e.to_string());
            assert_eq!(got, want, "diverged from VM at len {} x {x}", data.len());
        }
    }

    #[test]
    fn tight_fuel_bails() {
        let m = compiled("fn main(x: i64) -> i64 { return x; }");
        let f = &m.functions()[m.find_function("main").unwrap() as usize];
        assert_eq!(
            try_inline(f, DataType::Int, &limits(Some(100), None)).unwrap_err(),
            "fuel budget too tight"
        );
        assert!(try_inline(f, DataType::Int, &limits(Some(MIN_INLINE_FUEL), None)).is_ok());
    }

    #[test]
    fn agrees_with_interpreter_on_a_grid() {
        let src = r#"
            fn main(x: i64, y: i64) -> i64 {
                let acc: i64 = x * 7 - y * 3;
                if acc < 0 { acc = 0 - acc; }
                if acc % 5 == 0 || y > 100 { return acc + 1; }
                return acc * 2;
            }
        "#;
        let b = body(src, DataType::Int);
        for x in -6i64..6 {
            for y in [-120i64, -3, 0, 1, 4, 99, 101] {
                let want = vm_run(src, &[ArgValue::I64(x), ArgValue::I64(y)])
                    .unwrap()
                    .as_i64()
                    .unwrap();
                assert_eq!(
                    b.invoke(&[Value::Int(x), Value::Int(y)]).unwrap(),
                    Value::Int(want),
                    "diverged from VM at ({x}, {y})"
                );
            }
        }
    }
}
