//! The compiled tier: a template compiler for verified JagScript modules.
//!
//! The paper's JVM "included a JIT compiler" in every measured
//! configuration. JSM compiles each module exactly once, inside
//! [`crate::verifier::verify`], basic-block at a time, into a register
//! program of pre-resolved operations that executes without per-opcode
//! decode or operand-stack traffic; [`crate::interp::ExecMode::Jit`] runs
//! every call through it from the first one. Only verified code is ever
//! compiled, and every fact the compiler relies on is one the verifier
//! established, by signature: `compile_fn(&Function, &Cfg, &Module)` takes
//! its blocks, their entry stack depths, the maximum depth and which
//! blocks are reachable from the verifier's [`Cfg`], and re-derives none
//! of them (the module is read only for the signatures calls invoke).
//!
//! Three invariants make the compiled tier *observationally identical* to
//! the reference interpreter ([`crate::interp::ExecMode::Baseline`]):
//!
//! 1. **No safety check is skipped.** Every array access is range-checked
//!    — as it happens, or for a counted loop once per strip, over the whole
//!    index range the strip will touch —, every host call passes the
//!    security manager, every recursion the call-depth limit. The compiler
//!    removes *dispatch*, never *policing*.
//! 2. **Fuel accounting is instruction-exact.** Infallible runs of source
//!    instructions are charged in one batch at the next *charge point*
//!    (any fallible op or block exit), and a strip of whole loop trips at
//!    once, so `usage.instructions` on success — and the "fuel exhausted
//!    after N instructions" message — match the baseline interpreter.
//! 3. **Fallback is total.** A function the compiler cannot take — one
//!    whose register program would need more than `u16::MAX` registers —
//!    or whose call graph reaches one runs in the reference interpreter
//!    instead; `vm.tier.fallbacks` counts how often.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result, VmTrap};
use jaguar_common::obs;

use crate::arena::{Arena, BytesRef};
use crate::interp::{HostEnv, Interpreter, VmValue, CANCEL_CHECK_INTERVAL};
use crate::isa::{Insn, VType};
use crate::module::{Function, Module};
use crate::resources::ResourceUsage;
use crate::verifier::Cfg;

/// Has no effect: kept only for the benchmark's layer probe, which still
/// passes it to [`Interpreter::with_tier_up`].
#[doc(hidden)]
pub const DEFAULT_TIER_UP_AFTER: u64 = 64;

/// Tier telemetry, resolved once from the global registry.
pub(crate) struct TierMetrics {
    pub compiled_hits: Arc<obs::Counter>,
    pub fallbacks: Arc<obs::Counter>,
    pub loop_strips: Arc<obs::Counter>,
    pub loop_fallbacks: Arc<obs::Counter>,
}

pub(crate) fn metrics() -> &'static TierMetrics {
    static METRICS: OnceLock<TierMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = obs::global();
        TierMetrics {
            compiled_hits: registry.counter("vm.tier.compiled_hits"),
            fallbacks: registry.counter("vm.tier.fallbacks"),
            loop_strips: registry.counter("vm.tier.loop_strips"),
            loop_fallbacks: registry.counter("vm.tier.loop_fallbacks"),
        }
    })
}

/// The `vm.tier.*` counts of a run of invocations — one call, or every
/// row of a batch — kept by the caller and added to the process-wide
/// counters once, when it drops: however the run ends, and without a
/// write to a shared cache line per call.
#[derive(Debug, Default)]
pub struct TierTally {
    pub(crate) compiled_hits: u64,
    pub(crate) fallbacks: u64,
    pub(crate) loop_strips: u64,
    pub(crate) loop_fallbacks: u64,
}

impl Drop for TierTally {
    fn drop(&mut self) {
        let tm = metrics();
        for (counter, n) in [
            (&tm.compiled_hits, self.compiled_hits),
            (&tm.fallbacks, self.fallbacks),
            (&tm.loop_strips, self.loop_strips),
            (&tm.loop_fallbacks, self.loop_fallbacks),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------------

/// An operand source: a register index.
///
/// Registers are raw 64-bit values: the verifier proved every operand's
/// static type, so the compiled tier stores `i64` bits directly, `f64`
/// via `to_bits`, and byte-array handles zero-extended — no runtime
/// tags, no runtime type checks. Constants occupy dedicated registers
/// past the scratch slot, filled once at frame creation, so an operand
/// read is always a single indexed load.
type Src = u16;

#[derive(Debug, Clone, Copy)]
enum IBinKind {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// The one table of integer-op semantics: expands `$body` once per kind
/// with `$f` bound to that kind's function, so a loop inside `$body` is
/// compiled per op and the kind is matched outside it.
macro_rules! unswitch {
    ($kind:expr, $f:ident => $body:expr) => {
        unswitch!(@arms $kind, $f, $body,
            Add: i64::wrapping_add, Sub: i64::wrapping_sub, Mul: i64::wrapping_mul,
            And: |a: i64, b: i64| a & b, Or: |a: i64, b: i64| a | b, Xor: |a: i64, b: i64| a ^ b,
            Shl: |a: i64, b: i64| a.wrapping_shl(b as u32 & 63),
            Shr: |a: i64, b: i64| a.wrapping_shr(b as u32 & 63))
    };
    (@arms $kind:expr, $f:ident, $body:expr, $($k:ident: $op:expr),+) => {
        match $kind {
            $(IBinKind::$k => {
                let $f = $op;
                $body
            })+
        }
    };
}

#[derive(Debug, Clone, Copy)]
enum FBinKind {
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum CmpIKind {
    Eq,
    Lt,
    Le,
}

#[derive(Debug, Clone, Copy)]
enum CmpFKind {
    Eq,
    Lt,
    Le,
}

/// One compiled operation. Infallible ops carry no fuel charge — their
/// cost accumulates into the next charge point. Fallible ops are charge
/// points: `charge` is the number of source instructions retired since
/// the previous charge point, *including* the op itself, charged before
/// the op executes (exactly where the interpreter would charge them).
#[derive(Debug, Clone)]
enum Op {
    Copy {
        dst: u16,
        src: Src,
    },
    IBin {
        kind: IBinKind,
        dst: u16,
        a: Src,
        b: Src,
    },
    FBin {
        kind: FBinKind,
        dst: u16,
        a: Src,
        b: Src,
    },
    NegI {
        dst: u16,
        src: Src,
    },
    NegF {
        dst: u16,
        src: Src,
    },
    NotI {
        dst: u16,
        src: Src,
    },
    I2F {
        dst: u16,
        src: Src,
    },
    F2I {
        dst: u16,
        src: Src,
    },
    /// Two integer binops with the intermediate kept virtual:
    /// `t = a1 k1 b1; dst = t_left ? t k2 c : c k2 t`. Emitted when one
    /// binop's sole consumer is the next (e.g. `acc*31 + i`), which the
    /// symbolic stack proves by construction.
    IBin2 {
        k1: IBinKind,
        a1: Src,
        b1: Src,
        k2: IBinKind,
        c: Src,
        t_left: bool,
        dst: u16,
    },
    CmpI {
        kind: CmpIKind,
        dst: u16,
        a: Src,
        b: Src,
    },
    CmpF {
        kind: CmpFKind,
        dst: u16,
        a: Src,
        b: Src,
    },
    DivI {
        rem: bool,
        dst: u16,
        a: Src,
        b: Src,
        charge: u64,
    },
    NewArr {
        dst: u16,
        len: Src,
        charge: u64,
    },
    ALoad {
        dst: u16,
        arr: Src,
        idx: Src,
        charge: u64,
    },
    /// An array load whose sole consumer is the next integer binop
    /// (`acc + data[j]`): `t = arr[idx]; dst = t_left ? t k2 c : c k2 t`.
    /// Charged like the `ALoad` it contains; the binop itself cannot trap.
    ALoadIBin {
        arr: Src,
        idx: Src,
        k2: IBinKind,
        c: Src,
        t_left: bool,
        dst: u16,
        charge: u64,
    },
    AStore {
        arr: Src,
        idx: Src,
        val: Src,
        charge: u64,
    },
    ALen {
        dst: u16,
        arr: Src,
        charge: u64,
    },
    Call {
        fidx: u32,
        args: Vec<Src>,
        dst: Option<u16>,
        charge: u64,
    },
    HostCall {
        iidx: u16,
        args: Vec<Src>,
        dst: Option<u16>,
        charge: u64,
    },
}

impl Op {
    /// The destination register, for the store-retarget peephole.
    fn dst_mut(&mut self) -> Option<&mut u16> {
        match self {
            Op::Copy { dst, .. }
            | Op::IBin { dst, .. }
            | Op::IBin2 { dst, .. }
            | Op::FBin { dst, .. }
            | Op::NegI { dst, .. }
            | Op::NegF { dst, .. }
            | Op::NotI { dst, .. }
            | Op::I2F { dst, .. }
            | Op::F2I { dst, .. }
            | Op::CmpI { dst, .. }
            | Op::CmpF { dst, .. }
            | Op::DivI { dst, .. }
            | Op::NewArr { dst, .. }
            | Op::ALoad { dst, .. }
            | Op::ALoadIBin { dst, .. }
            | Op::ALen { dst, .. } => Some(dst),
            Op::Call { dst, .. } | Op::HostCall { dst, .. } => dst.as_mut(),
            Op::AStore { .. } => None,
        }
    }
}

/// Block terminator. Always a charge point for the instructions retired
/// since the last one (a fall-through exit has no instruction of its own,
/// so its charge is just the residue).
#[derive(Debug, Clone)]
enum Exit {
    Jmp {
        target: u32,
        charge: u64,
    },
    Branch {
        cond: Src,
        if_true: u32,
        if_false: u32,
        charge: u64,
    },
    /// A compare whose sole consumer is the branch, fused so loop heads
    /// need no materialized flag register.
    BranchCmpI {
        kind: CmpIKind,
        a: Src,
        b: Src,
        if_true: u32,
        if_false: u32,
        charge: u64,
    },
    /// A trailing integer binop carried into the compare-branch (the
    /// classic loop-closing `i = i + 1; branch i < n`). Pure op motion:
    /// the write to `d` happens first, then the (post-write) compare —
    /// byte-for-byte the unfused execution order.
    IBinBranchCmpI {
        k0: IBinKind,
        a0: Src,
        b0: Src,
        d: u16,
        kind: CmpIKind,
        a: Src,
        b: Src,
        if_true: u32,
        if_false: u32,
        charge: u64,
    },
    Ret {
        src: Option<Src>,
        charge: u64,
    },
    Trap {
        code: u32,
        charge: u64,
    },
}

impl Exit {
    fn charge_mut(&mut self) -> &mut u64 {
        match self {
            Exit::Jmp { charge, .. }
            | Exit::Branch { charge, .. }
            | Exit::BranchCmpI { charge, .. }
            | Exit::IBinBranchCmpI { charge, .. }
            | Exit::Ret { charge, .. }
            | Exit::Trap { charge, .. } => charge,
        }
    }
}

#[derive(Debug)]
struct Block {
    ops: Vec<Op>,
    exit: Exit,
    /// Set when the block is a counted loop (compile phase 3).
    counted: Option<Counted>,
}

/// One compiled function: a register program over `nregs` slots —
/// locals first, then the canonical operand-stack slots, then one
/// scratch register for `Swap`, then the function's constant pool
/// (written once per frame, never a destination).
#[derive(Debug)]
pub(crate) struct CompiledFn {
    nregs: usize,
    consts: Vec<u64>,
    blocks: Vec<Block>,
}

/// The whole-module compilation result. `funcs[i]` is `None` when the
/// template compiler bailed on function `i`; `runnable[i]` additionally
/// requires every transitively callable function to be compiled, so a
/// compiled caller never needs to re-enter the interpreter mid-frame.
/// Built once per module by the verifier, which owns the result.
#[derive(Debug)]
pub struct CompiledModule {
    funcs: Vec<Option<CompiledFn>>,
    runnable: Vec<bool>,
}

impl CompiledModule {
    /// Compile every function of a module that has just passed
    /// verification, from the control flow the verifier proved for it.
    /// Total: a function the compiler cannot take is `None`.
    pub(crate) fn build(module: &Module, cfgs: &[Cfg]) -> CompiledModule {
        let funcs: Vec<Option<CompiledFn>> = module
            .functions
            .iter()
            .zip(cfgs)
            .map(|(f, cfg)| compile_fn(f, cfg, module))
            .collect();

        // Runnable: compiled, and so is everything it calls, transitively.
        // A function that is not makes each of its callers not runnable.
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); funcs.len()];
        for (i, f) in module.functions.iter().enumerate() {
            for insn in &f.code {
                if let Insn::Call(t) = insn {
                    callers[*t as usize].push(i);
                }
            }
        }
        let mut runnable: Vec<bool> = funcs.iter().map(Option::is_some).collect();
        let mut lost: Vec<usize> = (0..funcs.len()).filter(|i| !runnable[*i]).collect();
        while let Some(callee) = lost.pop() {
            for &i in &callers[callee] {
                if runnable[i] {
                    runnable[i] = false;
                    lost.push(i);
                }
            }
        }

        CompiledModule { funcs, runnable }
    }

    /// May `fidx` be entered through the compiled tier?
    pub(crate) fn entry_runnable(&self, fidx: u32) -> bool {
        self.runnable.get(fidx as usize).copied().unwrap_or(false)
    }
}

// ---------------------------------------------------------------------------
// The template compiler
// ---------------------------------------------------------------------------

/// A symbolic operand-stack entry during block compilation. `Slot` means
/// "the value already lives in its canonical register" (canonical slot
/// for stack position `p` is register `nlocals + p`); the others are
/// deferred and materialize only when consumed or at a block boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sym {
    Slot,
    Local(u16),
    CI(i64),
    CF(f64),
}

/// Pop a symbolic entry the verifier proved is there.
fn pop(ss: &mut Vec<Sym>) -> Sym {
    ss.pop().expect("verified: the stack does not underflow")
}

/// Compile one verified function to a register program. Where blocks
/// start, how deep the stack is on entry to each and at most, and which
/// blocks no path reaches all come from `cfg`; `module` is read only for
/// the signatures calls invoke. `None` only when the program would need
/// more registers than a `u16` names (the function then keeps running in
/// the interpreter — fallback, never failure).
fn compile_fn(f: &Function, cfg: &Cfg, module: &Module) -> Option<CompiledFn> {
    let code = &f.code;
    let nlocals = f.total_locals();

    // Constant pool: every distinct literal gets a dedicated register past
    // the scratch slot, written once per frame — operand reads are then
    // always plain indexed loads, never tagged immediates.
    let mut consts: Vec<u64> = Vec::new();
    let mut cmap: HashMap<u64, u16> = HashMap::new();
    for insn in code {
        let bits = match insn {
            Insn::ConstI(v) => *v as u64,
            Insn::ConstF(v) => v.to_bits(),
            _ => continue,
        };
        cmap.entry(bits).or_insert_with(|| {
            consts.push(bits);
            (consts.len() - 1) as u16
        });
    }

    let base = nlocals + cfg.max_depth + 1; // +1 scratch for Swap
    let nregs = base + consts.len();
    if nregs > u16::MAX as usize {
        return None;
    }
    let canon = |p: usize| -> u16 { (nlocals + p) as u16 };
    let scratch = (base - 1) as u16;
    let cr = |bits: u64| -> u16 { (base + cmap[&bits] as usize) as u16 };

    // --- Phase 1: compile each reachable block.
    let mut blocks = Vec::with_capacity(cfg.leaders.len());
    for (b, entry) in cfg.entry_depth.iter().enumerate() {
        let Some(depth0) = *entry else {
            // Unreachable block: emit a defensive dead-end (never entered).
            blocks.push(Block {
                ops: Vec::new(),
                exit: Exit::Trap {
                    code: u32::MAX,
                    charge: 0,
                },
                counted: None,
            });
            continue;
        };
        let mut ss: Vec<Sym> = vec![Sym::Slot; depth0 as usize];
        let mut ops: Vec<Op> = Vec::new();
        let mut pend: u64 = 0;

        // Read a symbolic entry as an operand source, given its position.
        let src_of = |sym: Sym, pos: usize| -> Src {
            match sym {
                Sym::Slot => canon(pos),
                Sym::Local(i) => i,
                Sym::CI(v) => cr(v as u64),
                Sym::CF(v) => cr(v.to_bits()),
            }
        };
        // Materialize every deferred entry into its canonical register
        // (positions are absolute — always pass the full stack).
        let materialize_all = |ss: &mut Vec<Sym>, ops: &mut Vec<Op>| {
            for (pos, sym) in ss.iter_mut().enumerate() {
                if *sym != Sym::Slot {
                    ops.push(Op::Copy {
                        dst: canon(pos),
                        src: src_of(*sym, pos),
                    });
                    *sym = Sym::Slot;
                }
            }
        };

        let mut exit: Option<Exit> = None;
        for i in cfg.block(b) {
            let insn = code[i];
            pend += 1;
            match insn {
                Insn::ConstI(v) => ss.push(Sym::CI(v)),
                Insn::ConstF(v) => ss.push(Sym::CF(v)),
                Insn::Load(l) => ss.push(Sym::Local(l)),
                Insn::Store(l) => {
                    let v = pop(&mut ss);
                    // Entries still referring to the old value of local
                    // `l` must capture it before the overwrite.
                    for (pos, sym) in ss.iter_mut().enumerate() {
                        if *sym == Sym::Local(l) {
                            ops.push(Op::Copy {
                                dst: canon(pos),
                                src: l,
                            });
                            *sym = Sym::Slot;
                        }
                    }
                    match v {
                        Sym::Slot => {
                            let from = canon(ss.len());
                            // Peephole: retarget the op that produced the
                            // top-of-stack straight into the local.
                            if let Some(dst) = ops.last_mut().and_then(|op| op.dst_mut()) {
                                if *dst == from {
                                    *dst = l;
                                    continue;
                                }
                            }
                            ops.push(Op::Copy { dst: l, src: from });
                        }
                        Sym::Local(j) => {
                            if j != l {
                                ops.push(Op::Copy { dst: l, src: j });
                            }
                        }
                        Sym::CI(c) => ops.push(Op::Copy {
                            dst: l,
                            src: cr(c as u64),
                        }),
                        Sym::CF(c) => ops.push(Op::Copy {
                            dst: l,
                            src: cr(c.to_bits()),
                        }),
                    }
                }
                Insn::Pop => {
                    pop(&mut ss);
                }
                Insn::Dup => {
                    let top = ss[ss.len() - 1];
                    match top {
                        Sym::Slot => {
                            let p = ss.len();
                            ops.push(Op::Copy {
                                dst: canon(p),
                                src: canon(p - 1),
                            });
                            ss.push(Sym::Slot);
                        }
                        other => ss.push(other),
                    }
                }
                Insn::Swap => {
                    let len = ss.len();
                    if ss[len - 1] == Sym::Slot || ss[len - 2] == Sym::Slot {
                        for (pos, sym) in ss.iter_mut().enumerate().skip(len - 2) {
                            if *sym != Sym::Slot {
                                ops.push(Op::Copy {
                                    dst: canon(pos),
                                    src: src_of(*sym, pos),
                                });
                                *sym = Sym::Slot;
                            }
                        }
                        let (a, b) = (canon(len - 2), canon(len - 1));
                        ops.push(Op::Copy {
                            dst: scratch,
                            src: a,
                        });
                        ops.push(Op::Copy { dst: a, src: b });
                        ops.push(Op::Copy {
                            dst: b,
                            src: scratch,
                        });
                    } else {
                        ss.swap(len - 1, len - 2);
                    }
                }
                Insn::AddI
                | Insn::SubI
                | Insn::MulI
                | Insn::And
                | Insn::Or
                | Insn::Xor
                | Insn::Shl
                | Insn::Shr => {
                    let kind = match insn {
                        Insn::AddI => IBinKind::Add,
                        Insn::SubI => IBinKind::Sub,
                        Insn::MulI => IBinKind::Mul,
                        Insn::And => IBinKind::And,
                        Insn::Or => IBinKind::Or,
                        Insn::Xor => IBinKind::Xor,
                        Insn::Shl => IBinKind::Shl,
                        _ => IBinKind::Shr,
                    };
                    let b2 = pop(&mut ss);
                    let a2 = pop(&mut ss);
                    let p = ss.len();
                    let a = src_of(a2, p);
                    let b = src_of(b2, p + 1);
                    // Peephole: when the previous op's result slot was
                    // just popped here it has no other reader (canonical
                    // slots are only referenced from their own stack
                    // position), so the pair fuses with the intermediate
                    // kept virtual. `feed` reports which operand consumes
                    // it and hands back the other one.
                    let feed = |d0: u16| -> Option<(Src, bool)> {
                        if (d0 as usize) < nlocals {
                            None
                        } else if a == d0 {
                            Some((b, true))
                        } else if b == d0 {
                            Some((a, false))
                        } else {
                            None
                        }
                    };
                    let replacement = match ops.last() {
                        Some(&Op::IBin {
                            kind: k1,
                            dst: d0,
                            a: a1,
                            b: b1,
                        }) => feed(d0).map(|(c, t_left)| Op::IBin2 {
                            k1,
                            a1,
                            b1,
                            k2: kind,
                            c,
                            t_left,
                            dst: canon(p),
                        }),
                        Some(&Op::ALoad {
                            dst: d0,
                            arr,
                            idx,
                            charge,
                        }) => feed(d0).map(|(c, t_left)| Op::ALoadIBin {
                            arr,
                            idx,
                            k2: kind,
                            c,
                            t_left,
                            dst: canon(p),
                            charge,
                        }),
                        _ => None,
                    };
                    match replacement {
                        Some(op) => {
                            ops.pop();
                            ops.push(op);
                        }
                        None => ops.push(Op::IBin {
                            kind,
                            dst: canon(p),
                            a,
                            b,
                        }),
                    }
                    ss.push(Sym::Slot);
                }
                Insn::DivI | Insn::RemI => {
                    let b2 = pop(&mut ss);
                    let a2 = pop(&mut ss);
                    let p = ss.len();
                    ops.push(Op::DivI {
                        rem: matches!(insn, Insn::RemI),
                        dst: canon(p),
                        a: src_of(a2, p),
                        b: src_of(b2, p + 1),
                        charge: std::mem::take(&mut pend),
                    });
                    ss.push(Sym::Slot);
                }
                Insn::AddF | Insn::SubF | Insn::MulF | Insn::DivF => {
                    let kind = match insn {
                        Insn::AddF => FBinKind::Add,
                        Insn::SubF => FBinKind::Sub,
                        Insn::MulF => FBinKind::Mul,
                        _ => FBinKind::Div,
                    };
                    let b2 = pop(&mut ss);
                    let a2 = pop(&mut ss);
                    let p = ss.len();
                    ops.push(Op::FBin {
                        kind,
                        dst: canon(p),
                        a: src_of(a2, p),
                        b: src_of(b2, p + 1),
                    });
                    ss.push(Sym::Slot);
                }
                Insn::NegI | Insn::NegF | Insn::Not | Insn::I2F | Insn::F2I => {
                    let v = pop(&mut ss);
                    let p = ss.len();
                    let src = src_of(v, p);
                    let dst = canon(p);
                    ops.push(match insn {
                        Insn::NegI => Op::NegI { dst, src },
                        Insn::NegF => Op::NegF { dst, src },
                        Insn::Not => Op::NotI { dst, src },
                        Insn::I2F => Op::I2F { dst, src },
                        _ => Op::F2I { dst, src },
                    });
                    ss.push(Sym::Slot);
                }
                Insn::EqI | Insn::LtI | Insn::LeI => {
                    let kind = match insn {
                        Insn::EqI => CmpIKind::Eq,
                        Insn::LtI => CmpIKind::Lt,
                        _ => CmpIKind::Le,
                    };
                    let b2 = pop(&mut ss);
                    let a2 = pop(&mut ss);
                    let p = ss.len();
                    ops.push(Op::CmpI {
                        kind,
                        dst: canon(p),
                        a: src_of(a2, p),
                        b: src_of(b2, p + 1),
                    });
                    ss.push(Sym::Slot);
                }
                Insn::EqF | Insn::LtF | Insn::LeF => {
                    let kind = match insn {
                        Insn::EqF => CmpFKind::Eq,
                        Insn::LtF => CmpFKind::Lt,
                        _ => CmpFKind::Le,
                    };
                    let b2 = pop(&mut ss);
                    let a2 = pop(&mut ss);
                    let p = ss.len();
                    ops.push(Op::CmpF {
                        kind,
                        dst: canon(p),
                        a: src_of(a2, p),
                        b: src_of(b2, p + 1),
                    });
                    ss.push(Sym::Slot);
                }
                Insn::Jmp(t) => {
                    materialize_all(&mut ss, &mut ops);
                    exit = Some(Exit::Jmp {
                        target: cfg.block_of[t as usize],
                        charge: std::mem::take(&mut pend),
                    });
                    break;
                }
                Insn::JmpIf(t) | Insn::JmpIfNot(t) => {
                    let cond_sym = pop(&mut ss);
                    let cond = src_of(cond_sym, ss.len());
                    materialize_all(&mut ss, &mut ops);
                    let taken = cfg.block_of[t as usize];
                    let fall = b as u32 + 1;
                    let (if_true, if_false) = match insn {
                        Insn::JmpIf(_) => (taken, fall),
                        _ => (fall, taken),
                    };
                    // Peephole: fuse `cmp; branch` when the flag lives in
                    // the compare's just-popped canonical slot (dead past
                    // this exit — successors only read slots below their
                    // entry depth).
                    let fused = match ops.last() {
                        Some(&Op::CmpI { kind, dst, a, b })
                            if dst == cond && (cond as usize) >= nlocals =>
                        {
                            Some((kind, a, b))
                        }
                        _ => None,
                    };
                    exit = Some(match fused {
                        Some((kind, a, b)) => {
                            ops.pop();
                            Exit::BranchCmpI {
                                kind,
                                a,
                                b,
                                if_true,
                                if_false,
                                charge: std::mem::take(&mut pend),
                            }
                        }
                        None => Exit::Branch {
                            cond,
                            if_true,
                            if_false,
                            charge: std::mem::take(&mut pend),
                        },
                    });
                    break;
                }
                Insn::Call(_) | Insn::HostCall(_) => {
                    let sig = module.callee_sig(insn).expect("verified call target");
                    let arg_syms = ss.split_off(ss.len() - sig.params.len());
                    let base = ss.len();
                    let args: Vec<Src> = arg_syms
                        .iter()
                        .enumerate()
                        .map(|(k, s)| src_of(*s, base + k))
                        .collect();
                    let dst = sig.ret.map(|_| canon(base));
                    let charge = std::mem::take(&mut pend);
                    ops.push(match insn {
                        Insn::Call(fidx) => Op::Call {
                            fidx,
                            args,
                            dst,
                            charge,
                        },
                        Insn::HostCall(iidx) => Op::HostCall {
                            iidx,
                            args,
                            dst,
                            charge,
                        },
                        _ => unreachable!("matched above"),
                    });
                    if dst.is_some() {
                        ss.push(Sym::Slot);
                    }
                }
                Insn::Ret => {
                    let src = match f.sig.ret {
                        Some(_) => {
                            let v = pop(&mut ss);
                            Some(src_of(v, ss.len()))
                        }
                        None => None,
                    };
                    exit = Some(Exit::Ret {
                        src,
                        charge: std::mem::take(&mut pend),
                    });
                    break;
                }
                Insn::NewArr => {
                    let v = pop(&mut ss);
                    let p = ss.len();
                    ops.push(Op::NewArr {
                        dst: canon(p),
                        len: src_of(v, p),
                        charge: std::mem::take(&mut pend),
                    });
                    ss.push(Sym::Slot);
                }
                Insn::ALoad => {
                    let idx = pop(&mut ss);
                    let arr = pop(&mut ss);
                    let p = ss.len();
                    ops.push(Op::ALoad {
                        dst: canon(p),
                        arr: src_of(arr, p),
                        idx: src_of(idx, p + 1),
                        charge: std::mem::take(&mut pend),
                    });
                    ss.push(Sym::Slot);
                }
                Insn::AStore => {
                    let val = pop(&mut ss);
                    let idx = pop(&mut ss);
                    let arr = pop(&mut ss);
                    let p = ss.len();
                    ops.push(Op::AStore {
                        arr: src_of(arr, p),
                        idx: src_of(idx, p + 1),
                        val: src_of(val, p + 2),
                        charge: std::mem::take(&mut pend),
                    });
                }
                Insn::ALen => {
                    let v = pop(&mut ss);
                    let p = ss.len();
                    ops.push(Op::ALen {
                        dst: canon(p),
                        arr: src_of(v, p),
                        charge: std::mem::take(&mut pend),
                    });
                    ss.push(Sym::Slot);
                }
                Insn::Trap(code) => {
                    exit = Some(Exit::Trap {
                        code,
                        charge: std::mem::take(&mut pend),
                    });
                    break;
                }
            }
        }
        let exit = match exit {
            Some(e) => e,
            None => {
                // Implicit fall-through into the next block.
                materialize_all(&mut ss, &mut ops);
                Exit::Jmp {
                    target: b as u32 + 1,
                    charge: std::mem::take(&mut pend),
                }
            }
        };
        blocks.push(Block {
            ops,
            exit,
            counted: None,
        });
    }

    // --- Phase 2: thread `Jmp` exits through empty blocks, folding the
    // bypassed exit's charge into the jump's (check-then-charge fuel makes
    // consecutive charges with no intervening effect associative, so the
    // exhaustion report is unchanged). Loop rotation falls out: a body's
    // back-edge lands straight on the head's fused compare-branch instead
    // of dispatching an empty block first.
    for b in 0..blocks.len() {
        for _ in 0..8 {
            let (target, charge) = match &blocks[b].exit {
                Exit::Jmp { target, charge } => (*target as usize, *charge),
                _ => break,
            };
            if target == b || !blocks[target].ops.is_empty() {
                break;
            }
            let mut threaded = blocks[target].exit.clone();
            *threaded.charge_mut() += charge;
            blocks[b].exit = threaded;
        }
    }

    // --- Phase 3: carry a trailing integer binop into a fused
    // compare-branch exit (the loop-closing `i = i + 1; branch i < n`
    // back-edge threading just created). Pure op motion — the write still
    // precedes the compare — so it is unconditionally safe. A block that
    // closes on itself this way by a constant step may be a counted loop.
    for (head, blk) in blocks.iter_mut().enumerate() {
        if let Exit::BranchCmpI {
            kind,
            a,
            b,
            if_true,
            if_false,
            charge,
        } = blk.exit
        {
            if let Some(&Op::IBin {
                kind: k0,
                dst: d,
                a: a0,
                b: b0,
            }) = blk.ops.last()
            {
                blk.ops.pop();
                blk.exit = Exit::IBinBranchCmpI {
                    k0,
                    a0,
                    b0,
                    d,
                    kind,
                    a,
                    b,
                    if_true,
                    if_false,
                    charge,
                };
                let by = consts
                    .get((b0 as usize).wrapping_sub(base))
                    .map(|k| *k as i64);
                let closes = if_true as usize == head && a0 == d && kind != CmpIKind::Eq;
                if let (true, Some(by)) = (closes, by) {
                    blk.counted = Counted::of(blk, d, (k0, by), (kind, a, b), if_false);
                }
            }
        }
    }

    Some(CompiledFn {
        nregs,
        consts,
        blocks,
    })
}

// ---------------------------------------------------------------------------
// Counted loops
// ---------------------------------------------------------------------------

/// A counted loop: a block that branches back to itself through
/// `ind ← ind + step; branch ind ⋖ bound` (`bound ⋖ ind` counting down)
/// and whose straight-line body writes neither `ind` nor `bound` and can
/// neither call, allocate nor divide. On entry the trips left are known
/// and each costs `per_trip` fuel, so [`Counted::run`] runs them in strips.
#[derive(Debug)]
struct Counted {
    ind: u16,
    /// Non-zero, and of the sign the compare's orientation terminates on.
    step: i64,
    bound: Src,
    /// `<=` rather than `<`.
    le: bool,
    per_trip: u64,
    /// The block the loop leaves to.
    exit: u32,
    /// The one array the body accesses — always at `[ind]`, never
    /// reassigned: its bytes are resolved and range-checked per strip.
    arr: Option<Src>,
    /// The body as a recurrence kernel, when it is one.
    chain: Option<Chain>,
}

/// A [`Chain`] step's right operand: a loop-invariant register, the
/// induction variable, or the hoisted array's element at it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Opd {
    Reg(Src),
    Ind,
    Elem,
}

/// One step `acc ⊕ x` of a [`Chain`].
type Step = (IBinKind, Opd);

/// A body that is one integer recurrence of one or two steps,
/// `acc = (acc ⊕₁ x) ⊕₂ y` — the shape of every sum, xor, checksum and
/// hash loop. `mid` is the register the first of two steps also writes.
#[derive(Debug)]
struct Chain {
    acc: u16,
    steps: Vec<Step>,
    mid: Option<u16>,
    shape: Shape,
}

/// How a [`Chain`] regroups its trips; only ever in a way that is exact
/// in wrapping `i64` arithmetic (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// One step `acc ⊕ x` with ⊕ associative and commutative (Add, Mul,
    /// And, Or, Xor — Sub as `acc − Σx`): the operands fold in [`LANES`]
    /// independent lanes, combined into `acc` once.
    Fold,
    /// Two steps that are `acc ← acc·c + m·y` with `c` loop-invariant
    /// (Mul or Shl by an invariant, and Add or Sub, either way round):
    /// [`LANES`] trips at a time as `acc·cᴸ + Σ m·cᴸ⁻¹⁻ˡ·yₗ`.
    Affine,
    /// Anything else — a shift by a varying count, an op that does not
    /// regroup, a mixed pair: trip by trip.
    Serial,
}

/// Trips a lane-split kernel takes at a time.
const LANES: usize = 8;

/// Bind `$xs` to a function from a chunk number to that chunk's
/// [`LANES`] operand values, with the operand's kind matched here,
/// outside the trip loop `$body` runs. An ascending element walk reads a
/// window of the array, which is what lets the element loop vectorise.
macro_rules! chunks_of {
    ($opd:expr, $env:expr, $xs:ident => $body:expr) => {{
        let (regs, i0, step, bytes, n): (&[u64], i64, i64, &[u8], usize) = $env;
        // Chunk `ch` starts at `i0 + ch·L·step`; its lanes are offset from there.
        let offs: [i64; LANES] = std::array::from_fn(|l| (l as i64).wrapping_mul(step));
        let ind = move |ch: usize| -> [i64; LANES] {
            let base = i0.wrapping_add(((ch * LANES) as i64).wrapping_mul(step));
            offs.map(|o| base.wrapping_add(o))
        };
        match $opd {
            Opd::Reg(r) => {
                let c = regs[r as usize] as i64;
                let $xs = move |_: usize| [c; LANES];
                $body
            }
            Opd::Ind => {
                let $xs = ind;
                $body
            }
            Opd::Elem if step == 1 => {
                let window = &bytes[i0 as usize..][..n];
                let $xs = move |ch: usize| -> [i64; LANES] {
                    let c = &window[ch * LANES..][..LANES];
                    std::array::from_fn(|l| c[l] as i64)
                };
                $body
            }
            Opd::Elem => {
                let $xs = move |ch: usize| ind(ch).map(|i| bytes[i as usize] as i64);
                $body
            }
        }
    }};
}

impl Counted {
    /// `blk` ends `d ← d k0 by; branch a kind b` back to itself.
    fn of(
        blk: &mut Block,
        d: u16,
        (k0, by): (IBinKind, i64),
        (kind, a, b): (CmpIKind, Src, Src),
        exit: u32,
    ) -> Option<Counted> {
        let step = match k0 {
            IBinKind::Add => by,
            IBinKind::Sub => by.checked_neg()?,
            _ => return None,
        };
        let bound = match (a == d, b == d) {
            (true, false) if step > 0 => b,
            (false, true) if step < 0 && step != i64::MIN => a,
            _ => return None,
        };
        // The exit's charge covers the branch itself, so `per_trip >= 1`.
        let mut per_trip = *blk.exit.charge_mut();
        let mut written: Vec<u16> = Vec::new();
        let (mut arr, mut hoist) = (None, true);
        for op in &mut blk.ops {
            match *op {
                Op::DivI { .. }
                | Op::NewArr { .. }
                | Op::ALen { .. }
                | Op::Call { .. }
                | Op::HostCall { .. } => return None,
                Op::ALoad { arr: r, idx, .. }
                | Op::ALoadIBin { arr: r, idx, .. }
                | Op::AStore { arr: r, idx, .. } => {
                    hoist &= idx == d && *arr.get_or_insert(r) == r;
                }
                _ => {}
            }
            if let Op::ALoad { charge, .. }
            | Op::ALoadIBin { charge, .. }
            | Op::AStore { charge, .. } = *op
            {
                per_trip += charge;
            }
            written.extend(op.dst_mut().map(|r| *r));
        }
        if written.contains(&d) || written.contains(&bound) {
            return None;
        }
        let arr = arr.filter(|r| hoist && !written.contains(r));
        Some(Counted {
            ind: d,
            step,
            bound,
            le: kind == CmpIKind::Le,
            per_trip,
            exit,
            arr,
            chain: Chain::of(&blk.ops, d, arr, &written),
        })
    }

    /// Run one strip of trips with nothing metered inside; return how many
    /// (for the caller to charge at once) and whether the loop is done. The
    /// strip is what `budget` affords and what stays inside the hoisted
    /// array: trips the per-op path would have completed without reporting
    /// anything. `None` means there is no such trip: the caller takes one
    /// through the per-op path, which reports exhaustion, polls the token
    /// or traps exactly where it must, and comes back.
    #[inline(never)] // keeps the kernel loops out of the dispatcher's frame
    fn run(
        &self,
        ops: &[Op],
        regs: &mut [u64],
        arena: &mut Arena,
        budget: u64,
    ) -> Result<Option<(u64, bool)>> {
        let i0 = regs[self.ind as usize] as i64;
        let bound = regs[self.bound as usize] as i64;
        // Nearly every loop steps by one: spare those the hardware divide.
        let by = self.step.unsigned_abs();
        let steps_in = |span: u64| if by == 1 { span } else { span / by };
        // The distance to the bound, the way the loop walks: exact in
        // `u64` once the bound is not behind.
        let (from, to) = if self.step > 0 {
            (i0, bound)
        } else {
            (bound, i0)
        };
        let d = (to as u64).wrapping_sub(from as u64);
        let trips = match to < from || (d == 0 && !self.le) {
            true => 1,
            false => steps_in(d - u64::from(!self.le)) + 1,
        };
        // `ind` must not wrap before the loop ends.
        if i64::try_from(i0 as i128 + trips as i128 * self.step as i128).is_err() {
            return Ok(None);
        }
        let mut strip = trips;
        if trips.saturating_mul(self.per_trip) > budget {
            strip = budget / self.per_trip;
        }
        let mut bytes: &mut [u8] = &mut [];
        if let Some(arr) = self.arr {
            bytes = arena.bytes_mut(BytesRef(regs[arr as usize] as u32))?;
            let room = match usize::try_from(i0) {
                Ok(i) if i < bytes.len() && self.step > 0 => bytes.len() - 1 - i,
                Ok(i) if i < bytes.len() => i,
                _ => return Ok(None),
            };
            strip = strip.min(steps_in(room as u64) + 1);
        }
        if strip == 0 {
            return Ok(None);
        }
        match &self.chain {
            Some(chain) => chain.run(strip, self.step, i0, regs, bytes),
            None if self.arr.is_some() => self.run_ops(ops, strip, regs, bytes)?,
            None => self.run_ops(ops, strip, regs, arena)?,
        }
        regs[self.ind as usize] = i0.wrapping_add(strip as i64 * self.step) as u64;
        Ok(Some((strip, strip == trips)))
    }

    /// A body that is no kernel: op at a time over the strip's registers.
    fn run_ops<M: Mem + ?Sized>(
        &self,
        ops: &[Op],
        strip: u64,
        regs: &mut [u64],
        mem: &mut M,
    ) -> Result<()> {
        for _ in 0..strip {
            for op in ops {
                exec_op(op, regs, mem, |_| Ok(()))?;
            }
            let i = regs[self.ind as usize] as i64;
            regs[self.ind as usize] = i.wrapping_add(self.step) as u64;
        }
        Ok(())
    }
}

impl Chain {
    /// Read `ops` as links `dst = x ⊕ y`; accept them when each result is
    /// the next link's left operand (a commutative op may swap), the last
    /// is the register the first started from, and every other operand is
    /// loop-invariant, the induction variable or the hoisted array's element.
    fn of(ops: &[Op], ind: u16, arr: Option<Src>, written: &[u16]) -> Option<Chain> {
        #[derive(Clone, Copy, PartialEq)]
        enum Link {
            Reg(Src),
            Elem,
            Prev,
        }
        use Link::{Elem, Prev, Reg};
        let mut links: Vec<(IBinKind, Link, Link, Option<u16>)> = Vec::new();
        let ordered = |t_left, t, c| if t_left { (t, Reg(c)) } else { (Reg(c), t) };
        for op in ops {
            let (k2, (x, y), dst) = match *op {
                Op::IBin { kind, dst, a, b } => (kind, (Reg(a), Reg(b)), dst),
                Op::IBin2 {
                    k1,
                    a1,
                    b1,
                    k2,
                    c,
                    t_left,
                    dst,
                } => {
                    links.push((k1, Reg(a1), Reg(b1), None));
                    (k2, ordered(t_left, Prev, c), dst)
                }
                Op::ALoadIBin {
                    k2, c, t_left, dst, ..
                } if arr.is_some() => (k2, ordered(t_left, Elem, c), dst),
                _ => return None,
            };
            links.push((k2, x, y, Some(dst)));
        }
        let acc = links.last()?.3?;
        let mut carried = Reg(acc);
        let mut steps = Vec::new();
        for &(kind, x, y, dst) in &links {
            let commutes = !matches!(kind, IBinKind::Sub | IBinKind::Shl | IBinKind::Shr);
            let other = match (x == carried, y == carried && commutes) {
                (true, _) => y,
                (false, true) => x,
                _ => return None,
            };
            steps.push((
                kind,
                match other {
                    Reg(r) if r == ind => Opd::Ind,
                    Reg(r) if !written.contains(&r) => Opd::Reg(r),
                    Elem => Opd::Elem,
                    _ => return None,
                },
            ));
            carried = dst.map_or(Prev, Reg);
        }
        use IBinKind::{Add, Mul, Shl, Shr, Sub};
        let scales = |(k, x): Step| matches!((k, x), (Mul | Shl, Opd::Reg(_)));
        let shape = match steps[..] {
            [(k, _)] if !matches!(k, Shl | Shr) => Shape::Fold,
            [s1, s2] if scales(s1) && matches!(s2.0, Add | Sub) => Shape::Affine,
            [s1, s2] if matches!(s1.0, Add | Sub) && scales(s2) => Shape::Affine,
            [_] | [_, _] => Shape::Serial,
            _ => return None,
        };
        let mid = links[0].3.filter(|_| steps.len() == 2);
        Some(Chain {
            acc,
            steps,
            mid,
            shape,
        })
    }

    /// `strip` trips of the recurrence from `i0` by `step`, every operand
    /// in a local.
    fn run(&self, strip: u64, step: i64, i0: i64, regs: &mut [u64], bytes: &[u8]) {
        let n = strip as usize;
        let env = (&*regs, i0, step, bytes, n);
        // One trip's operand, for the few trips a kernel leaves over.
        let at = |(_, x): Step, k: usize| {
            let i = i0.wrapping_add((k as i64).wrapping_mul(step));
            match x {
                Opd::Reg(r) => regs[r as usize] as i64,
                Opd::Ind => i,
                Opd::Elem => bytes[i as usize] as i64,
            }
        };
        let (s1, s2) = (self.steps[0], *self.steps.last().expect("a step"));
        let (mut acc, mut mid) = (regs[self.acc as usize] as i64, 0);
        let mut done = 0;
        // A strip too short to fill the lanes twice is not worth setting up.
        match Some(self.shape).filter(|_| n >= 2 * LANES) {
            Some(Shape::Fold) => {
                // acc ⊕ x₀ ⊕ … ⊕ xₙ₋₁ = acc ⊕ (x₀ ⊕ … ⊕ xₙ₋₁); acc − Σx for Sub.
                let op = match s1.0 {
                    IBinKind::Sub => IBinKind::Add,
                    k => k,
                };
                let id = match op {
                    IBinKind::Mul => 1,
                    IBinKind::And => -1,
                    _ => 0,
                };
                // The last, partial chunk is left to the tail.
                let chunks = n / LANES;
                let total = chunks_of!(s1.1, env, xs => unswitch!(op, f => {
                    let lane = lanes(chunks, xs, [id; LANES], |lane, v| {
                        for l in 0..LANES {
                            lane[l] = f(lane[l], v[l]);
                        }
                    });
                    lane.into_iter().fold(id, f)
                }));
                acc = ibin(s1.0, acc, total);
                done = chunks * LANES;
            }
            Some(Shape::Affine) => {
                // acc·c + m·y: c from the step that scales, m = ±1 when
                // it comes first, ±c when the add does.
                let mul_first = matches!(s2.0, IBinKind::Add | IBinKind::Sub);
                let (scale, add) = if mul_first { (s1, s2) } else { (s2, s1) };
                let c = match scale.0 {
                    IBinKind::Shl => 1i64.wrapping_shl(at(scale, 0) as u32),
                    _ => at(scale, 0),
                };
                let sign: i64 = if let IBinKind::Sub = add.0 { -1 } else { 1 };
                let m = sign.wrapping_mul(if mul_first { 1 } else { c });
                // pw[l] = m·c^(L−1−l); cl = cᴸ.
                let mut pw = [m; LANES];
                for l in (0..LANES - 1).rev() {
                    pw[l] = pw[l + 1].wrapping_mul(c);
                }
                let cl = c.wrapping_pow(LANES as u32);
                let dot = |v: [i64; LANES]| {
                    (v.iter().zip(&pw)).fold(0i64, |s, (y, w)| s.wrapping_add(y.wrapping_mul(*w)))
                };
                // A `mid` is the last trip's: leave that one to the tail.
                let chunks = (n - usize::from(self.mid.is_some())) / LANES;
                acc = if add.1 == Opd::Ind {
                    // Consecutive chunks' sums differ by L·step·Σpw.
                    let mut s = dot(std::array::from_fn(|l| at(add, l)));
                    let sum = pw.iter().fold(0i64, |a, w| a.wrapping_add(*w));
                    let d = sum.wrapping_mul(step.wrapping_mul(LANES as i64));
                    for _ in 0..chunks {
                        acc = acc.wrapping_mul(cl).wrapping_add(s);
                        s = s.wrapping_add(d);
                    }
                    acc
                } else {
                    chunks_of!(add.1, env, ys => lanes(chunks, ys, acc, |acc, v| {
                        *acc = acc.wrapping_mul(cl).wrapping_add(dot(v));
                    }))
                };
                done = chunks * LANES;
            }
            _ => {}
        }
        // Trip by trip, the ops matched outside the loop: a Serial chain,
        // and what a kernel left over.
        if let [_] = self.steps[..] {
            unswitch!(s1.0, f1 => for k in done..n {
                acc = f1(acc, at(s1, k));
            });
        } else {
            unswitch!(s1.0, f1 => unswitch!(s2.0, f2 => for k in done..n {
                mid = f1(acc, at(s1, k));
                acc = f2(mid, at(s2, k));
            }));
        }
        if let Some(mid_reg) = self.mid {
            regs[mid_reg as usize] = mid as u64;
        }
        regs[self.acc as usize] = acc as u64;
    }
}

/// Feed `chunks` chunks of operands to `step` over `state`: a kernel's
/// trip loop, kept out of line so that each operand kind × op is
/// optimised (and vectorised) on its own.
#[inline(never)]
fn lanes<S>(
    chunks: usize,
    xs: impl Fn(usize) -> [i64; LANES],
    mut state: S,
    step: impl Fn(&mut S, [i64; LANES]),
) -> S {
    for ch in 0..chunks {
        step(&mut state, xs(ch));
    }
    state
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Fuel, cancellation, and usage accounting for a compiled run. The
/// charge discipline reproduces the interpreter's observable behaviour:
/// on success `usage.instructions` equals the retired-instruction count;
/// on exhaustion the reported count is `initial_fuel + 1`, exactly what
/// the per-instruction interpreter reports.
struct Meter<'a> {
    usage: ResourceUsage,
    fuel: Option<u64>,
    /// Starting fuel; meaningful only when `fuel` is `Some`. Lets the
    /// retired count be derived (`fuel_initial - fuel_left`) instead of
    /// accumulated on every charge.
    fuel_initial: u64,
    /// Retired-instruction accumulator for unfuelled runs.
    acc: u64,
    cancel: Option<&'a CancelToken>,
    cancel_left: u64,
}

impl Meter<'_> {
    #[inline(always)]
    fn charge(&mut self, cost: u64) -> Result<()> {
        if cost == 0 {
            return Ok(());
        }
        match self.fuel.as_mut() {
            Some(left) if *left >= cost => *left -= cost,
            Some(_) => return self.exhausted(),
            None => self.acc += cost,
        }
        if let Some(token) = self.cancel {
            self.cancel_left = self.cancel_left.saturating_sub(cost);
            if self.cancel_left == 0 {
                token.check()?;
                self.cancel_left = CANCEL_CHECK_INTERVAL;
            }
        }
        Ok(())
    }

    /// A charge the fuel left cannot cover.
    #[cold]
    fn exhausted(&mut self) -> Result<()> {
        // A cancel poll due within the fuel that is left comes first, as
        // it does instruction by instruction.
        let left = self.fuel.unwrap_or(0);
        if let Some(token) = self.cancel.filter(|_| self.cancel_left <= left) {
            token.check()?;
        }
        // Retired-so-far (fuel_initial - left) + remaining + 1, i.e. the
        // count at which the per-instruction interpreter discovers
        // exhaustion.
        self.usage.instructions = self.fuel_initial + 1;
        Err(JaguarError::ResourceLimit(format!(
            "fuel exhausted after {} instructions",
            self.usage.instructions
        )))
    }
}

/// Read an operand as an integer. Register indices are `< nregs` by
/// construction (`canon` never exceeds `nlocals + max_depth`, constant
/// registers are bounded by the pool length, frames are sized to
/// `nregs`), so plain indexing suffices.
#[inline(always)]
fn int(regs: &[u64], s: &Src) -> i64 {
    regs[*s as usize] as i64
}

/// Read an operand as a float.
#[inline(always)]
fn float(regs: &[u64], s: &Src) -> f64 {
    f64::from_bits(regs[*s as usize])
}

/// `t k c` or `c k t`: the second half of a fused pair of ops.
#[inline(always)]
fn pair(k: &IBinKind, t: i64, c: i64, t_left: &bool) -> u64 {
    (if *t_left {
        ibin(*k, t, c)
    } else {
        ibin(*k, c, t)
    }) as u64
}

/// Encode a typed value into its register bits.
#[inline]
fn enc(v: VmValue) -> u64 {
    match v {
        VmValue::I64(x) => x as u64,
        VmValue::F64(x) => x.to_bits(),
        VmValue::Bytes(b) => b.0 as u64,
    }
}

/// Decode register bits back into the typed value the verifier proved
/// they hold.
#[inline]
fn dec(t: VType, bits: u64) -> VmValue {
    match t {
        VType::I64 => VmValue::I64(bits as i64),
        VType::F64 => VmValue::F64(f64::from_bits(bits)),
        VType::Bytes => VmValue::Bytes(BytesRef(bits as u32)),
    }
}

#[inline(always)]
fn ibin(kind: IBinKind, a: i64, b: i64) -> i64 {
    unswitch!(kind, f => f(a, b))
}

#[inline(always)]
fn cmp_i(kind: CmpIKind, a: i64, b: i64) -> bool {
    match kind {
        CmpIKind::Eq => a == b,
        CmpIKind::Lt => a < b,
        CmpIKind::Le => a <= b,
    }
}

/// Where [`exec_op`] reads and writes array bytes: the arena (handle
/// resolved and index checked on every access) or one array's bytes,
/// resolved and range-checked once for a whole strip.
trait Mem {
    fn load(&self, arr: u64, idx: i64) -> Result<u8>;
    fn store(&mut self, arr: u64, idx: i64, v: u8) -> Result<()>;
}

impl Mem for Arena {
    fn load(&self, arr: u64, idx: i64) -> Result<u8> {
        Arena::load(self, BytesRef(arr as u32), idx)
    }
    fn store(&mut self, arr: u64, idx: i64, v: u8) -> Result<()> {
        Arena::store(self, BytesRef(arr as u32), idx, v)
    }
}

impl Mem for [u8] {
    fn load(&self, _: u64, idx: i64) -> Result<u8> {
        Ok(self[idx as usize])
    }
    fn store(&mut self, _: u64, idx: i64, v: u8) -> Result<()> {
        self[idx as usize] = v;
        Ok(())
    }
}

/// Execute one op that needs neither the frame stack, the allocator nor
/// the host. `charge` runs at the op's charge point, before its effect:
/// the dispatcher meters there, a strip — charged as a whole — does not.
#[inline(always)]
fn exec_op<M: Mem + ?Sized>(
    op: &Op,
    regs: &mut [u64],
    mem: &mut M,
    mut charge: impl FnMut(u64) -> Result<()>,
) -> Result<()> {
    match op {
        Op::Copy { dst, src } => regs[*dst as usize] = regs[*src as usize],
        Op::IBin { kind, dst, a, b } => {
            regs[*dst as usize] = ibin(*kind, int(regs, a), int(regs, b)) as u64
        }
        Op::IBin2 {
            k1,
            a1,
            b1,
            k2,
            c,
            t_left,
            dst,
        } => {
            let t = ibin(*k1, int(regs, a1), int(regs, b1));
            regs[*dst as usize] = pair(k2, t, int(regs, c), t_left);
        }
        Op::FBin { kind, dst, a, b } => {
            let (av, bv) = (float(regs, a), float(regs, b));
            let r = match kind {
                FBinKind::Add => av + bv,
                FBinKind::Sub => av - bv,
                FBinKind::Mul => av * bv,
                FBinKind::Div => av / bv,
            };
            regs[*dst as usize] = r.to_bits();
        }
        Op::NegI { dst, src } => regs[*dst as usize] = int(regs, src).wrapping_neg() as u64,
        Op::NegF { dst, src } => regs[*dst as usize] = (-float(regs, src)).to_bits(),
        Op::NotI { dst, src } => regs[*dst as usize] = !int(regs, src) as u64,
        Op::I2F { dst, src } => regs[*dst as usize] = (int(regs, src) as f64).to_bits(),
        Op::F2I { dst, src } => regs[*dst as usize] = (float(regs, src) as i64) as u64,
        Op::CmpI { kind, dst, a, b } => {
            regs[*dst as usize] = cmp_i(*kind, int(regs, a), int(regs, b)) as u64;
        }
        Op::CmpF { kind, dst, a, b } => {
            let (av, bv) = (float(regs, a), float(regs, b));
            let r = match kind {
                CmpFKind::Eq => av == bv,
                CmpFKind::Lt => av < bv,
                CmpFKind::Le => av <= bv,
            };
            regs[*dst as usize] = r as u64;
        }
        Op::ALoad {
            dst,
            arr,
            idx,
            charge: cost,
        } => {
            charge(*cost)?;
            regs[*dst as usize] = mem.load(regs[*arr as usize], int(regs, idx))? as u64;
        }
        Op::ALoadIBin {
            arr,
            idx,
            k2,
            c,
            t_left,
            dst,
            charge: cost,
        } => {
            charge(*cost)?;
            let t = mem.load(regs[*arr as usize], int(regs, idx))? as i64;
            regs[*dst as usize] = pair(k2, t, int(regs, c), t_left);
        }
        Op::AStore {
            arr,
            idx,
            val,
            charge: cost,
        } => {
            charge(*cost)?;
            mem.store(regs[*arr as usize], int(regs, idx), int(regs, val) as u8)?;
        }
        Op::DivI { .. }
        | Op::NewArr { .. }
        | Op::ALen { .. }
        | Op::Call { .. }
        | Op::HostCall { .. } => {
            unreachable!("run by the dispatcher itself and never part of a counted loop")
        }
    }
    Ok(())
}

/// Run `entry` through the compiled tier. Argument arity/types were
/// validated by the caller ([`Interpreter::invoke_resolved`]), identically
/// to the interpreted path.
///
/// Calls use heap-allocated frames (like the interpreter), never native
/// recursion, so the configured `max_call_depth` — however deep — cannot
/// overflow the host stack. Every frame's registers live in one stack
/// that the arena keeps between invocations, so the rows of a batch share
/// one allocation.
pub(crate) fn run_compiled(
    interp: &Interpreter,
    cm: &CompiledModule,
    entry: u32,
    args: &[VmValue],
    arena: &mut Arena,
    host: &mut dyn HostEnv,
    tally: &mut TierTally,
) -> Result<(Option<VmValue>, ResourceUsage)> {
    let mut m = Meter {
        usage: ResourceUsage {
            max_depth_seen: 1,
            ..ResourceUsage::default()
        },
        fuel: interp.limits().fuel,
        fuel_initial: interp.limits().fuel.unwrap_or(0),
        acc: 0,
        cancel: interp.cancel_ref(),
        cancel_left: CANCEL_CHECK_INTERVAL,
    };
    let functions = interp.module().functions();
    let imports = interp.module().imports();
    let limits = interp.limits();

    // Lay out a frame at `regs[base..]`: zeroed registers, `bytes` locals
    // pointing at one shared empty array (JSM has no null references) and
    // the constant pool filled in — before any fuel is charged for the
    // callee, exactly like the interpreter's `make_locals`. The caller
    // then writes the arguments.
    let mut empty_ref: Option<BytesRef> = None;
    let mut enter = |fidx: u32, base: usize, regs: &mut Vec<u64>, arena: &mut Arena| {
        let Some(cf) = cm.funcs[fidx as usize].as_ref() else {
            return Err(JaguarError::VmTrap(VmTrap::BadCall(fidx)));
        };
        let f = &functions[fidx as usize];
        regs.resize(base + cf.nregs, 0);
        let frame = &mut regs[base..];
        for (slot, t) in frame[f.sig.params.len()..].iter_mut().zip(&f.local_types) {
            if *t == VType::Bytes {
                let empty = match empty_ref {
                    Some(r) => r,
                    None => *empty_ref.insert(arena.alloc_zeroed(0)?),
                };
                *slot = empty.0 as u64;
            }
        }
        frame[cf.nregs - cf.consts.len()..].copy_from_slice(&cf.consts);
        Ok::<_, JaguarError>(CFrame {
            fidx,
            block: 0,
            op: 0,
            base,
            ret_dst: None,
        })
    };

    let mut stack = std::mem::take(&mut arena.regs);
    stack.clear();
    let mut frame = enter(entry, 0, &mut stack, arena)?;
    for (slot, v) in stack.iter_mut().zip(args) {
        *slot = enc(*v);
    }
    let mut callers: Vec<CFrame> = Vec::new();
    let mut host_args: Vec<VmValue> = Vec::new();

    /// What ends a frame-execution burst.
    enum Transfer<'a> {
        Push { fidx: u32, args: &'a [Src] },
        Return(Option<u64>),
    }

    loop {
        let transfer: Transfer = {
            let Some(cf) = cm.funcs[frame.fidx as usize].as_ref() else {
                return Err(JaguarError::VmTrap(VmTrap::BadCall(frame.fidx)));
            };
            let regs = &mut stack[frame.base..];
            let mut block = frame.block;
            let mut start = frame.op;
            'burst: loop {
                let blk = &cf.blocks[block];
                let mut i = start;
                start = 0;
                if let (0, Some(lp)) = (i, &blk.counted) {
                    // A strip may cost the fuel left, short of the next cancel poll.
                    let poll = m.cancel.map_or(u64::MAX, |_| m.cancel_left - 1);
                    let budget = m.fuel.unwrap_or(u64::MAX).min(poll);
                    match lp.run(&blk.ops, regs, arena, budget)? {
                        Some((strip, done)) => {
                            m.charge(strip * lp.per_trip)?;
                            tally.loop_strips += 1;
                            if done {
                                block = lp.exit as usize;
                            }
                            continue 'burst;
                        }
                        None => tally.loop_fallbacks += 1,
                    }
                }
                while i < blk.ops.len() {
                    match &blk.ops[i] {
                        Op::DivI {
                            rem,
                            dst,
                            a,
                            b,
                            charge,
                        } => {
                            m.charge(*charge)?;
                            let av = int(regs, a);
                            let bv = int(regs, b);
                            if bv == 0 {
                                return Err(JaguarError::VmTrap(VmTrap::DivideByZero));
                            }
                            let r = if *rem {
                                av.wrapping_rem(bv)
                            } else {
                                av.wrapping_div(bv)
                            };
                            regs[*dst as usize] = r as u64;
                        }
                        Op::NewArr { dst, len, charge } => {
                            m.charge(*charge)?;
                            let len = int(regs, len);
                            if len < 0 {
                                return Err(JaguarError::VmTrap(VmTrap::Bounds {
                                    index: len,
                                    len: 0,
                                }));
                            }
                            let r = arena.alloc_zeroed(len as usize)?;
                            regs[*dst as usize] = r.0 as u64;
                        }
                        Op::ALen { dst, arr, charge } => {
                            m.charge(*charge)?;
                            let r = BytesRef(regs[*arr as usize] as u32);
                            regs[*dst as usize] = arena.len(r)? as u64;
                        }
                        Op::Call {
                            fidx,
                            args,
                            dst,
                            charge,
                        } => {
                            m.charge(*charge)?;
                            if callers.len() + 1 >= limits.max_call_depth {
                                return Err(JaguarError::ResourceLimit(format!(
                                    "call depth limit {} exceeded",
                                    limits.max_call_depth
                                )));
                            }
                            frame.block = block;
                            frame.op = i + 1;
                            frame.ret_dst = *dst;
                            break 'burst Transfer::Push { fidx: *fidx, args };
                        }
                        Op::HostCall {
                            iidx,
                            args,
                            dst,
                            charge,
                        } => {
                            m.charge(*charge)?;
                            let import = imports
                                .get(*iidx as usize)
                                .ok_or(JaguarError::VmTrap(VmTrap::BadCall(*iidx as u32)))?;
                            if let Some(sec) = interp.security_ref() {
                                sec.check_host_call(&import.name)?;
                            }
                            host_args.clear();
                            host_args.extend(
                                args.iter()
                                    .zip(&import.sig.params)
                                    .map(|(s, t)| dec(*t, regs[*s as usize])),
                            );
                            m.usage.host_calls += 1;
                            let ret = host.host_call(&import.name, &host_args, arena)?;
                            match (ret, import.sig.ret) {
                                (Some(v), Some(t)) if v.vtype() == t => {
                                    if let Some(dst) = dst {
                                        regs[*dst as usize] = enc(v);
                                    }
                                }
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
                        op => exec_op(op, regs, arena, |cost| m.charge(cost))?,
                    }
                    i += 1;
                }
                match &blk.exit {
                    Exit::Jmp { target, charge } => {
                        m.charge(*charge)?;
                        block = *target as usize;
                    }
                    Exit::Branch {
                        cond,
                        if_true,
                        if_false,
                        charge,
                    } => {
                        m.charge(*charge)?;
                        let c = int(regs, cond);
                        block = if c != 0 { *if_true } else { *if_false } as usize;
                    }
                    Exit::BranchCmpI {
                        kind,
                        a,
                        b,
                        if_true,
                        if_false,
                        charge,
                    } => {
                        m.charge(*charge)?;
                        let holds = cmp_i(*kind, int(regs, a), int(regs, b));
                        block = if holds { *if_true } else { *if_false } as usize;
                    }
                    Exit::IBinBranchCmpI {
                        k0,
                        a0,
                        b0,
                        d,
                        kind,
                        a,
                        b,
                        if_true,
                        if_false,
                        charge,
                    } => {
                        let v = ibin(*k0, int(regs, a0), int(regs, b0));
                        regs[*d as usize] = v as u64;
                        m.charge(*charge)?;
                        let holds = cmp_i(*kind, int(regs, a), int(regs, b));
                        block = if holds { *if_true } else { *if_false } as usize;
                    }
                    Exit::Ret { src, charge } => {
                        m.charge(*charge)?;
                        break 'burst Transfer::Return((*src).map(|s| regs[s as usize]));
                    }
                    Exit::Trap { code, charge } => {
                        m.charge(*charge)?;
                        return Err(JaguarError::VmTrap(VmTrap::Explicit(*code)));
                    }
                }
            }
        };
        match transfer {
            Transfer::Push { fidx, args } => {
                // The callee's frame starts right above the caller's, with
                // the arguments copied in as its first registers.
                let base = stack.len();
                let callee = enter(fidx, base, &mut stack, arena)?;
                for (k, s) in args.iter().enumerate() {
                    stack[base + k] = stack[frame.base + *s as usize];
                }
                callers.push(std::mem::replace(&mut frame, callee));
                m.usage.max_depth_seen = m.usage.max_depth_seen.max(callers.len() + 1);
            }
            Transfer::Return(v) => {
                stack.truncate(frame.base);
                let Some(caller) = callers.pop() else {
                    arena.regs = stack;
                    m.usage.instructions = match m.fuel {
                        Some(left) => m.fuel_initial - left,
                        None => m.acc,
                    };
                    m.usage.bytes_allocated = arena.allocated();
                    let ret = match (v, functions[entry as usize].sig.ret) {
                        (Some(bits), Some(t)) => Some(dec(t, bits)),
                        _ => None,
                    };
                    return Ok((ret, m.usage));
                };
                frame = caller;
                if let Some(dst) = frame.ret_dst.take() {
                    let v = v.ok_or(JaguarError::VmTrap(VmTrap::Type(
                        "call returned no value".into(),
                    )))?;
                    stack[frame.base + dst as usize] = v;
                }
            }
        }
    }
}

/// One compiled call frame: its registers are `stack[base..]`. `ret_dst`
/// is where the callee's result lands in *this* frame's registers (set at
/// `Call`, consumed when the callee returns).
struct CFrame {
    fidx: u32,
    block: usize,
    op: usize,
    base: usize,
    ret_dst: Option<u16>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{ArgValue, ExecMode, NoHost};
    use crate::isa::VType;
    use crate::module::{FuncSig, Function, HostImport, Module, VerifiedModule};
    use crate::resources::ResourceLimits;
    use std::sync::{Mutex, MutexGuard};

    /// The tier counters are process-wide, so a test that asserts on a
    /// before/after delta would see the compiled calls of tests running
    /// beside it. Every test here holds this guard, which runs them one at
    /// a time.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn sum_loop_module() -> Arc<VerifiedModule> {
        let src = "module m\nfunc main(bytes, i64) -> i64\nlocals i64, i64\n\
                   top:\n  load 2\n  load 1\n  lti\n  jmpifnot done\n\
                   load 3\n  load 0\n  load 2\n  aload\n  addi\n  store 3\n\
                   load 2\n  consti 1\n  addi\n  store 2\n  jmp top\n\
                   done:\n  load 3\n  ret\nend\n";
        Arc::new(crate::asm::assemble(src).unwrap().verify().unwrap())
    }

    /// The interpreter and the compiled tier agree on results AND fuel,
    /// over a loop that exercises arrays, compares, and branches.
    #[test]
    fn compiled_tier_matches_interpreter_exactly() {
        let _serial = serial();
        let m = sum_loop_module();
        let data: Vec<u8> = (0..200u8).collect();
        let args = [
            ArgValue::Bytes(data.clone()),
            ArgValue::I64(data.len() as i64),
        ];
        let base = Interpreter::new(
            Arc::clone(&m),
            ResourceLimits::default(),
            ExecMode::Baseline,
        );
        let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
        assert!(tier.runs_compiled(0) && !base.runs_compiled(0));
        let (rb, ub, _) = base.invoke("main", &args, &mut NoHost).unwrap();
        let (rt, ut, _) = tier.invoke("main", &args, &mut NoHost).unwrap();
        assert_eq!(rb, rt);
        assert_eq!(ub, ut, "usage must be identical across tiers");
        assert!(metrics().compiled_hits.get() > 0);
    }

    /// The generic UDF's data-independent loop, `acc = acc * 31 + i`.
    fn mul_add_loop_module() -> Arc<VerifiedModule> {
        let src = "module m\nfunc main(bytes, i64) -> i64\nlocals i64, i64\n\
                   top:\n  load 2\n  load 1\n  lti\n  jmpifnot done\n\
                   load 3\n  consti 31\n  muli\n  load 2\n  addi\n  store 3\n\
                   load 2\n  consti 1\n  addi\n  store 2\n  jmp top\n\
                   done:\n  load 3\n  ret\nend\n";
        Arc::new(crate::asm::assemble(src).unwrap().verify().unwrap())
    }

    /// Everything a caller can see of one invocation.
    fn outcome(
        interp: &Interpreter,
        args: &[ArgValue],
    ) -> std::result::Result<(Option<VmValue>, ResourceUsage), String> {
        match interp.invoke("main", args, &mut NoHost) {
            Ok((ret, usage, _)) => Ok((ret, usage)),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Interpreted and compiled outcomes of `main(data, n)` under
    /// `limits`, asserted identical; returns the common one.
    fn same_on_both_engines(
        m: &Arc<VerifiedModule>,
        limits: ResourceLimits,
        data: &[u8],
        n: i64,
    ) -> std::result::Result<(Option<VmValue>, ResourceUsage), String> {
        let args = [ArgValue::Bytes(data.to_vec()), ArgValue::I64(n)];
        let base = Interpreter::new(Arc::clone(m), limits, ExecMode::Baseline);
        let tier = Interpreter::new(Arc::clone(m), limits, ExecMode::Jit);
        assert!(tier.runs_compiled(0));
        let expect = outcome(&base, &args);
        assert_eq!(outcome(&tier, &args), expect, "compiled, {limits:?}");
        expect
    }

    /// Both generic-UDF loops are recognised as counted recurrence
    /// kernels, and a run of either is one strip with no fallback.
    #[test]
    fn generic_udf_loops_are_counted_kernels() {
        let _serial = serial();
        for (m, hoisted) in [(sum_loop_module(), true), (mul_add_loop_module(), false)] {
            let cf = m.compiled().funcs[0].as_ref().expect("compiles");
            let loops: Vec<&Counted> = cf
                .blocks
                .iter()
                .filter_map(|b| b.counted.as_ref())
                .collect();
            assert_eq!(loops.len(), 1, "{:?}", cf.blocks);
            assert_eq!(loops[0].step, 1);
            assert_eq!(loops[0].arr.is_some(), hoisted);
            assert!(loops[0].chain.is_some(), "{:?}", loops[0]);
        }
        let tm = metrics();
        let (strips, fallbacks) = (tm.loop_strips.get(), tm.loop_fallbacks.get());
        let tier = Interpreter::new(sum_loop_module(), ResourceLimits::default(), ExecMode::Jit);
        let args = [ArgValue::Bytes(vec![1; 50]), ArgValue::I64(50)];
        tier.invoke("main", &args, &mut NoHost).unwrap();
        // Other tests in this process may add to the counters, never take away.
        assert!(tm.loop_strips.get() > strips);
        assert!(tm.loop_fallbacks.get() >= fallbacks);
    }

    /// Fuel exhaustion reports the same instruction count and text in the
    /// compiled tier as in the interpreter, and a sufficient budget the
    /// same result and usage: every budget from 1 to past completion, on
    /// both generic-UDF loops.
    #[test]
    fn fuel_exhaustion_is_tier_independent() {
        let _serial = serial();
        let data: Vec<u8> = (0..50u8).collect();
        for m in [sum_loop_module(), mul_add_loop_module()] {
            let unlimited = same_on_both_engines(&m, ResourceLimits::default(), &data, 50);
            let total = unlimited.expect("completes").1.instructions;
            let mut completed = 0;
            for fuel in 1..=total + 2 {
                let limits = ResourceLimits::tight(fuel, 1 << 20);
                match same_on_both_engines(&m, limits, &data, 50) {
                    Ok((_, usage)) => {
                        assert_eq!(usage.instructions, total);
                        completed += 1;
                    }
                    Err(text) => assert_eq!(
                        text,
                        format!(
                            "resource limit exceeded: fuel exhausted after {} instructions",
                            fuel + 1
                        ),
                    ),
                }
            }
            assert_eq!(completed, 3, "exactly the budgets >= {total} complete");
        }
    }

    /// A loop that runs off its array traps at the exact trip with the
    /// exact index and length, after a strip over the part in range; a
    /// budget that runs out first reports exhaustion instead.
    #[test]
    fn counted_loop_traps_exactly_where_the_interpreter_does() {
        let _serial = serial();
        let m = sum_loop_module();
        let data: Vec<u8> = (0..20u8).collect();
        let trap = same_on_both_engines(&m, ResourceLimits::default(), &data, 25).unwrap_err();
        assert!(trap.contains("index 20") && trap.contains("20"), "{trap}");
        for fuel in 1..400 {
            let _ = same_on_both_engines(&m, ResourceLimits::tight(fuel, 1 << 20), &data, 25);
        }
        // Never in range: empty array, and a bound below the start.
        same_on_both_engines(&m, ResourceLimits::default(), &[], 3).unwrap_err();
        same_on_both_engines(&m, ResourceLimits::default(), &data, -4).unwrap();
    }

    /// The cancel poll keeps its cadence through strips: a pre-cancelled
    /// token stops a loop of more than `CANCEL_CHECK_INTERVAL` instructions
    /// on both engines, whatever fuel is left at the poll, and leaves a
    /// shorter one alone.
    #[test]
    fn counted_loop_polls_the_cancel_token_on_cadence() {
        let _serial = serial();
        let m = mul_add_loop_module();
        let per_trip = 10;
        for (n, fuel) in [
            (100, None),
            (CANCEL_CHECK_INTERVAL as i64, None),
            (
                CANCEL_CHECK_INTERVAL as i64,
                Some(CANCEL_CHECK_INTERVAL - 1),
            ),
            (CANCEL_CHECK_INTERVAL as i64, Some(CANCEL_CHECK_INTERVAL)),
            (
                CANCEL_CHECK_INTERVAL as i64,
                Some(CANCEL_CHECK_INTERVAL + per_trip),
            ),
        ] {
            let limits = ResourceLimits {
                fuel,
                ..ResourceLimits::default()
            };
            let outcomes: Vec<_> = [ExecMode::Baseline, ExecMode::Jit]
                .into_iter()
                .map(|mode| {
                    let mut interp = Interpreter::new(Arc::clone(&m), limits, mode);
                    let token = CancelToken::unbounded();
                    token.cancel();
                    interp.set_cancel(token);
                    outcome(&interp, &[ArgValue::Bytes(vec![]), ArgValue::I64(n)])
                })
                .collect();
            assert_eq!(outcomes[1], outcomes[0], "compiled, n={n} fuel={fuel:?}");
            assert_eq!(outcomes[0].is_ok(), n == 100, "{:?}", outcomes[0]);
        }
    }

    /// A call's result lands in the caller's register — at every depth.
    #[test]
    fn compiled_calls_return_values_to_their_callers() {
        let _serial = serial();
        let src = "module m\n\
                   func main(i64) -> i64\n  consti 1\n  load 0\n  call 1\n  addi\n  consti 3\n  addi\n  ret\nend\n\
                   func mid(i64) -> i64\n  load 0\n  call 2\n  consti 7\n  addi\n  ret\nend\n\
                   func leaf(i64) -> i64\n  load 0\n  consti 2\n  muli\n  ret\nend\n";
        let m = Arc::new(crate::asm::assemble(src).unwrap().verify().unwrap());
        let args = [ArgValue::I64(5)];
        let base = Interpreter::new(
            Arc::clone(&m),
            ResourceLimits::default(),
            ExecMode::Baseline,
        );
        let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
        assert!(tier.runs_compiled(0));
        let expect = outcome(&base, &args);
        assert_eq!(expect.as_ref().unwrap().0, Some(VmValue::I64(21)));
        assert_eq!(outcome(&tier, &args), expect);
    }

    /// A pre-cancelled token stops the compiled tier like the interpreter.
    #[test]
    fn compiled_tier_honours_cancellation() {
        let _serial = serial();
        let src = "module m\nfunc main() -> i64\n\
                   top:\n  jmp top\n  consti 0\n  ret\nend\n";
        let m = Arc::new(crate::asm::assemble(src).unwrap().verify().unwrap());
        let limits = ResourceLimits {
            fuel: None,
            memory: Some(1 << 20),
            max_call_depth: 8,
        };
        let mut interp = Interpreter::new(m, limits, ExecMode::Jit);
        assert!(interp.runs_compiled(0));
        let token = CancelToken::unbounded();
        token.cancel();
        interp.set_cancel(token);
        let e = interp.invoke("main", &[], &mut NoHost).unwrap_err();
        assert!(matches!(e, JaguarError::Cancelled(_)), "{e}");
    }

    /// The module was compiled when it was verified, so the very first
    /// `Jit` call runs compiled; a `Baseline` call never does.
    #[test]
    fn first_call_runs_compiled() {
        let _serial = serial();
        let m = sum_loop_module();
        let mut arena = Arena::new(None);
        let data = arena.alloc_from(&[1, 2, 3]).unwrap();
        let args = [VmValue::Bytes(data), VmValue::I64(3)];
        for (mode, compiled) in [(ExecMode::Jit, 1), (ExecMode::Baseline, 0)] {
            let interp = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), mode);
            let mut tally = TierTally::default();
            let (ret, _) = interp
                .invoke_tallied(0, "main", &args, &mut arena, &mut NoHost, &mut tally)
                .unwrap();
            assert_eq!(ret, Some(VmValue::I64(6)));
            assert_eq!(tally.compiled_hits, compiled, "{mode:?}");
            assert_eq!(tally.fallbacks, 0, "{mode:?}");
        }
    }

    /// Recursion: the compiled tier enforces the same call-depth limit
    /// with the same error text as the interpreter. Compiled frames live
    /// on the heap, so even infinite recursion is limit-bounded, never a
    /// native stack overflow.
    #[test]
    fn compiled_recursion_depth_matches_interpreter() {
        let _serial = serial();
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
        let base = Interpreter::new(
            Arc::clone(&m),
            ResourceLimits::default(),
            ExecMode::Baseline,
        );
        let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
        let eb = base.invoke("main", &[], &mut NoHost).unwrap_err();
        let et = tier.invoke("main", &[], &mut NoHost).unwrap_err();
        assert_eq!(eb.to_string(), et.to_string());
        assert!(eb.to_string().contains("call depth limit"));
        assert!(tier.runs_compiled(0));
    }

    /// The one bail left: a function whose register program needs more
    /// registers than a `u16` names runs in the interpreter, and so does
    /// every function that reaches it through calls; one that does not
    /// still runs compiled.
    #[test]
    fn register_overflow_falls_back_with_its_callers() {
        let _serial = serial();
        let f = |name: &str, code: Vec<Insn>| Function {
            name: name.into(),
            sig: FuncSig::new(vec![], Some(VType::I64)),
            local_types: vec![],
            code,
        };
        let mut wide: Vec<Insn> = (0..=i64::from(u16::MAX))
            .flat_map(|v| [Insn::ConstI(v), Insn::Pop])
            .collect();
        wide.extend([Insn::ConstI(0), Insn::Ret]);
        let m = Arc::new(
            Module {
                name: "t".into(),
                imports: vec![],
                functions: vec![
                    f("outer", vec![Insn::Call(1), Insn::Ret]),
                    f("inner", vec![Insn::Call(2), Insn::Ret]),
                    f("wide", wide),
                    f("alone", vec![Insn::ConstI(7), Insn::Ret]),
                ],
            }
            .verify()
            .unwrap(),
        );
        assert!(m.compiled().funcs[2].is_none());
        let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
        let runs: Vec<bool> = (0..4).map(|i| tier.runs_compiled(i)).collect();
        assert_eq!(runs, [false, false, false, true]);
        let base = Interpreter::new(m, ResourceLimits::default(), ExecMode::Baseline);
        let (rt, ut, _) = tier.invoke("outer", &[], &mut NoHost).unwrap();
        let (rb, ub, _) = base.invoke("outer", &[], &mut NoHost).unwrap();
        assert_eq!((rt, ut), (rb, ub));
    }

    /// Host calls work from the compiled tier: security checked, counted,
    /// and return-validated exactly like the interpreter.
    #[test]
    fn compiled_host_calls_match_interpreter() {
        let _serial = serial();
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
                imports: vec![HostImport {
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
        let base = Interpreter::new(
            Arc::clone(&m),
            ResourceLimits::default(),
            ExecMode::Baseline,
        );
        let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
        assert!(tier.runs_compiled(0));
        let (rb, ub, _) = base.invoke("main", &[], &mut Doubler).unwrap();
        let (rt, ut, _) = tier.invoke("main", &[], &mut Doubler).unwrap();
        assert_eq!(rb, rt);
        assert_eq!(ub, ut);
        assert_eq!(ut.host_calls, 1);

        // And the security manager still gates compiled host calls.
        let perms = Arc::new(crate::security::PermissionSet::deny_all("udf"));
        let gated = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit)
            .with_security(perms);
        let e = gated.invoke("main", &[], &mut Doubler).unwrap_err();
        assert!(matches!(e, JaguarError::SecurityViolation(_)), "{e}");
    }

    /// Traps surface identically from the compiled tier: bounds, divide
    /// by zero, explicit traps, negative allocation.
    #[test]
    fn compiled_traps_match_interpreter() {
        let _serial = serial();
        let cases: Vec<Vec<Insn>> = vec![
            vec![Insn::ConstI(1), Insn::ConstI(0), Insn::DivI, Insn::Ret],
            vec![Insn::ConstI(-5), Insn::NewArr, Insn::ALen, Insn::Ret],
            vec![Insn::Trap(7)],
            vec![
                Insn::ConstI(3),
                Insn::NewArr,
                Insn::ConstI(99),
                Insn::ALoad,
                Insn::Ret,
            ],
        ];
        for code in cases {
            let m = Arc::new(
                Module {
                    name: "t".into(),
                    imports: vec![],
                    functions: vec![Function {
                        name: "main".into(),
                        sig: FuncSig::new(vec![], Some(VType::I64)),
                        local_types: vec![],
                        code: code.clone(),
                    }],
                }
                .verify()
                .unwrap(),
            );
            let base = Interpreter::new(
                Arc::clone(&m),
                ResourceLimits::default(),
                ExecMode::Baseline,
            );
            let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
            assert!(tier.runs_compiled(0), "{code:?}");
            let eb = base.invoke("main", &[], &mut NoHost).unwrap_err();
            let et = tier.invoke("main", &[], &mut NoHost).unwrap_err();
            assert_eq!(eb.to_string(), et.to_string(), "{code:?}");
        }
    }
}
