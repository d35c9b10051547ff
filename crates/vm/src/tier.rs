//! Tiered execution: a template compiler for hot JagScript functions.
//!
//! The paper's JVM "included a JIT compiler" in every measured
//! configuration; JSM's `ExecMode::Jit` superinstruction fuser only
//! approximates that. This module finishes the job with a classic
//! **tier-up template compiler**: after a function has been invoked
//! [`crate::interp::Interpreter`]-side `tier_up_after` times, its whole
//! module is compiled — once, basic-block at a time — into a register
//! program of pre-resolved operations that executes without per-opcode
//! decode or operand-stack traffic.
//!
//! Three invariants make the compiled tier *observationally identical* to
//! [`crate::interp::ExecMode::Baseline`]:
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
//! 3. **Fallback is total.** Any function the compiler cannot prove out
//!    (or whose call graph escapes the compiled set) simply keeps running
//!    in the interpreter; `vm.tier.fallbacks` counts how often.
//!
//! Compiled plans are cached **per module** behind an `Arc` (the
//! [`ModulePlan`]), so pooled workers and per-statement instantiation
//! share one compilation and one set of hotness counters. The same cache
//! also holds the pre-decoded/fused interpreter plans, fixing the old
//! per-`Interpreter::new` re-fuse.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result, VmTrap};
use jaguar_common::obs;

use crate::arena::{Arena, BytesRef};
use crate::interp::{
    fuse, EncodedFn, FusedOp, HostEnv, Interpreter, VmValue, CANCEL_CHECK_INTERVAL,
};
use crate::isa::{Insn, VType};
use crate::module::VerifiedModule;
use crate::resources::ResourceUsage;

/// Default number of interpreted invocations before a function tiers up.
/// Low enough that per-statement UDFs over a few hundred rows promote
/// almost immediately; high enough that one-shot administrative calls
/// never pay compilation.
pub const DEFAULT_TIER_UP_AFTER: u64 = 64;

// ---------------------------------------------------------------------------
// Per-module execution plan + cache
// ---------------------------------------------------------------------------

/// Everything derived from a module's code, built lazily and shared by
/// every `Interpreter` over the same `Arc<VerifiedModule>`: the baseline
/// byte encoding, the fused (JIT-mode) plan, the compiled tier, and the
/// per-function hotness counters that drive promotion.
pub struct ModulePlan {
    encoded: OnceLock<Vec<EncodedFn>>,
    fused: OnceLock<Vec<Vec<FusedOp>>>,
    compiled: OnceLock<CompiledModule>,
    hot: Vec<AtomicU64>,
}

impl ModulePlan {
    fn new(nfuncs: usize) -> ModulePlan {
        ModulePlan {
            encoded: OnceLock::new(),
            fused: OnceLock::new(),
            compiled: OnceLock::new(),
            hot: (0..nfuncs).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn encoded(&self, module: &VerifiedModule) -> &[EncodedFn] {
        self.encoded
            .get_or_init(|| module.functions().iter().map(EncodedFn::of).collect())
    }

    pub(crate) fn fused(&self, module: &VerifiedModule) -> &[Vec<FusedOp>] {
        self.fused
            .get_or_init(|| module.functions().iter().map(|f| fuse(&f.code)).collect())
    }

    pub(crate) fn compiled(&self, module: &VerifiedModule) -> &CompiledModule {
        self.compiled.get_or_init(|| CompiledModule::build(module))
    }

    /// The promotion counter for one function.
    pub(crate) fn hot(&self, fidx: u32) -> &AtomicU64 {
        &self.hot[fidx as usize]
    }
}

/// Process-wide plan cache: one [`ModulePlan`] per live `Arc<VerifiedModule>`,
/// keyed by pointer identity and held weakly so dropping the last module
/// reference releases its plans. Pointer keys can be reused after a free
/// (ABA), so a hit must also upgrade + `Arc::ptr_eq` before trusting it.
type PlanCacheEntry = (usize, Weak<VerifiedModule>, Arc<ModulePlan>);
static PLAN_CACHE: Mutex<Vec<PlanCacheEntry>> = Mutex::new(Vec::new());

pub(crate) fn plan_for(module: &Arc<VerifiedModule>) -> Arc<ModulePlan> {
    let key = Arc::as_ptr(module) as usize;
    let mut cache = PLAN_CACHE.lock().unwrap_or_else(|p| p.into_inner());
    for (k, weak, plan) in cache.iter() {
        if *k == key {
            if let Some(live) = weak.upgrade() {
                if Arc::ptr_eq(&live, module) {
                    return Arc::clone(plan);
                }
            }
        }
    }
    // Miss (or a dead/ABA entry under this key): sweep and insert fresh.
    cache.retain(|(k, weak, _)| *k != key && weak.strong_count() > 0);
    let plan = Arc::new(ModulePlan::new(module.functions().len()));
    cache.push((key, Arc::downgrade(module), Arc::clone(&plan)));
    plan
}

/// Tier telemetry, resolved once from the global registry.
pub(crate) struct TierMetrics {
    pub promotions: Arc<obs::Counter>,
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
            promotions: registry.counter("vm.tier.promotions"),
            compiled_hits: registry.counter("vm.tier.compiled_hits"),
            fallbacks: registry.counter("vm.tier.fallbacks"),
            loop_strips: registry.counter("vm.tier.loop_strips"),
            loop_fallbacks: registry.counter("vm.tier.loop_fallbacks"),
        }
    })
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
    /// Set when the block is a counted loop (compile phase 4).
    counted: Option<Counted>,
}

/// One compiled function: a register program over `nregs` slots —
/// locals first, then the canonical operand-stack slots, then one
/// scratch register for `Swap`, then the function's constant pool
/// (written once per frame, never a destination).
pub(crate) struct CompiledFn {
    nregs: usize,
    consts: Vec<u64>,
    blocks: Vec<Block>,
}

/// The whole-module compilation result. `funcs[i]` is `None` when the
/// template compiler bailed on function `i`; `runnable[i]` additionally
/// requires every transitively callable function to be compiled, so a
/// compiled caller never needs to re-enter the interpreter mid-frame.
pub struct CompiledModule {
    funcs: Vec<Option<CompiledFn>>,
    runnable: Vec<bool>,
}

impl CompiledModule {
    fn build(module: &VerifiedModule) -> CompiledModule {
        let functions = module.functions();
        let imports = module.imports();
        let funcs: Vec<Option<CompiledFn>> = functions
            .iter()
            .map(|f| compile_fn(f, functions, imports))
            .collect();

        // Direct call edges from the original code.
        let callees: Vec<Vec<u32>> = functions
            .iter()
            .map(|f| {
                let mut out: Vec<u32> = f
                    .code
                    .iter()
                    .filter_map(|i| match i {
                        Insn::Call(t) => Some(*t),
                        _ => None,
                    })
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();

        // runnable: compiled AND all transitive callees compiled
        // (fixpoint: only ever removes, so it converges).
        let mut runnable: Vec<bool> = funcs.iter().map(|f| f.is_some()).collect();
        loop {
            let mut changed = false;
            for i in 0..runnable.len() {
                if runnable[i]
                    && !callees[i]
                        .iter()
                        .all(|c| runnable.get(*c as usize).copied().unwrap_or(false))
                {
                    runnable[i] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
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

/// Net stack effect of one instruction: (pops, pushes).
fn stack_effect(
    insn: &Insn,
    functions: &[crate::module::Function],
    imports: &[crate::module::HostImport],
) -> Option<(usize, usize)> {
    Some(match insn {
        Insn::ConstI(_) | Insn::ConstF(_) | Insn::Load(_) => (0, 1),
        Insn::Store(_) | Insn::Pop | Insn::JmpIf(_) | Insn::JmpIfNot(_) => (1, 0),
        Insn::Dup => (1, 2),
        Insn::Swap => (2, 2),
        Insn::AddI
        | Insn::SubI
        | Insn::MulI
        | Insn::DivI
        | Insn::RemI
        | Insn::AddF
        | Insn::SubF
        | Insn::MulF
        | Insn::DivF
        | Insn::And
        | Insn::Or
        | Insn::Xor
        | Insn::Shl
        | Insn::Shr
        | Insn::EqI
        | Insn::LtI
        | Insn::LeI
        | Insn::EqF
        | Insn::LtF
        | Insn::LeF
        | Insn::ALoad => (2, 1),
        Insn::NegI | Insn::NegF | Insn::Not | Insn::I2F | Insn::F2I | Insn::NewArr | Insn::ALen => {
            (1, 1)
        }
        Insn::AStore => (3, 0),
        Insn::Jmp(_) | Insn::Trap(_) => (0, 0),
        Insn::Call(f) => {
            let sig = &functions.get(*f as usize)?.sig;
            (sig.params.len(), usize::from(sig.ret.is_some()))
        }
        Insn::HostCall(i) => {
            let sig = &imports.get(*i as usize)?.sig;
            (sig.params.len(), usize::from(sig.ret.is_some()))
        }
        Insn::Ret => (0, 0), // return value handled by the terminator itself
    })
}

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

/// Compile one function to a register program, or `None` if any shape the
/// template compiler does not support appears (the caller then keeps
/// interpreting this function — fallback, never failure).
fn compile_fn(
    f: &crate::module::Function,
    functions: &[crate::module::Function],
    imports: &[crate::module::HostImport],
) -> Option<CompiledFn> {
    let code = &f.code;
    if code.is_empty() {
        return None;
    }
    let nlocals = f.total_locals();

    // --- Block discovery: leaders are insn 0, every jump target, and the
    // instruction after every terminator.
    let mut leader = vec![false; code.len()];
    leader[0] = true;
    for (i, insn) in code.iter().enumerate() {
        match insn {
            Insn::Jmp(t) | Insn::JmpIf(t) | Insn::JmpIfNot(t) => {
                let t = *t as usize;
                if t >= code.len() {
                    return None;
                }
                leader[t] = true;
                if i + 1 < code.len() {
                    leader[i + 1] = true;
                }
            }
            Insn::Ret | Insn::Trap(_) if i + 1 < code.len() => leader[i + 1] = true,
            _ => {}
        }
    }
    let starts: Vec<usize> = (0..code.len()).filter(|i| leader[*i]).collect();
    let block_of: HashMap<usize, u32> = starts
        .iter()
        .enumerate()
        .map(|(b, s)| (*s, b as u32))
        .collect();
    let range_of = |b: usize| -> (usize, usize) {
        let start = starts[b];
        let end = starts.get(b + 1).copied().unwrap_or(code.len());
        (start, end)
    };

    // --- Phase 1: entry stack depth per block (worklist dataflow), plus
    // the maximum operand-stack depth anywhere in the function.
    let mut entry_depth: Vec<Option<usize>> = vec![None; starts.len()];
    entry_depth[0] = Some(0);
    let mut max_depth = 0usize;
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let (start, end) = range_of(b);
        let mut depth = entry_depth[b]?;
        max_depth = max_depth.max(depth);
        let mut merge = |target: u32, depth: usize, work: &mut Vec<usize>| -> Option<()> {
            let t = target as usize;
            match entry_depth[t] {
                None => {
                    entry_depth[t] = Some(depth);
                    work.push(t);
                }
                Some(d) if d != depth => return None, // inconsistent: bail
                Some(_) => {}
            }
            Some(())
        };
        let mut terminated = false;
        for (i, insn) in code.iter().enumerate().take(end).skip(start) {
            let (pops, pushes) = stack_effect(insn, functions, imports)?;
            if depth < pops {
                return None;
            }
            depth = depth - pops + pushes;
            max_depth = max_depth.max(depth);
            match insn {
                Insn::Jmp(t) => {
                    merge(*block_of.get(&(*t as usize))?, depth, &mut work)?;
                    terminated = true;
                }
                Insn::JmpIf(t) | Insn::JmpIfNot(t) => {
                    merge(*block_of.get(&(*t as usize))?, depth, &mut work)?;
                    merge(*block_of.get(&(i + 1))?, depth, &mut work)?;
                    terminated = true;
                }
                Insn::Ret => {
                    if f.sig.ret.is_some() && depth < 1 {
                        return None;
                    }
                    terminated = true;
                }
                Insn::Trap(_) => terminated = true,
                _ => {}
            }
        }
        if !terminated {
            // Fall-through into the next block; falling off the end of the
            // function is unreachable in verified code — bail if seen.
            let next = *block_of.get(&end)?;
            merge(next, depth, &mut work)?;
        }
    }

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

    let base = nlocals + max_depth + 1; // +1 scratch for Swap
    let nregs = base + consts.len();
    if nregs > u16::MAX as usize {
        return None;
    }
    let canon = |p: usize| -> u16 { (nlocals + p) as u16 };
    let scratch = (base - 1) as u16;
    let cr = |bits: u64| -> u16 { (base + cmap[&bits] as usize) as u16 };

    // --- Phase 2: compile each reachable block.
    let mut blocks = Vec::with_capacity(starts.len());
    for (b, entry) in entry_depth.iter().enumerate() {
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
        let (start, end) = range_of(b);
        let mut ss: Vec<Sym> = vec![Sym::Slot; depth0];
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
        for i in start..end {
            let insn = code[i];
            pend += 1;
            match insn {
                Insn::ConstI(v) => ss.push(Sym::CI(v)),
                Insn::ConstF(v) => ss.push(Sym::CF(v)),
                Insn::Load(l) => {
                    if l as usize >= nlocals {
                        return None;
                    }
                    ss.push(Sym::Local(l));
                }
                Insn::Store(l) => {
                    if l as usize >= nlocals {
                        return None;
                    }
                    let v = ss.pop()?;
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
                    ss.pop()?;
                }
                Insn::Dup => {
                    let top = *ss.last()?;
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
                    if len < 2 {
                        return None;
                    }
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
                    let b2 = ss.pop()?;
                    let a2 = ss.pop()?;
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
                    let b2 = ss.pop()?;
                    let a2 = ss.pop()?;
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
                    let b2 = ss.pop()?;
                    let a2 = ss.pop()?;
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
                    let v = ss.pop()?;
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
                    let b2 = ss.pop()?;
                    let a2 = ss.pop()?;
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
                    let b2 = ss.pop()?;
                    let a2 = ss.pop()?;
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
                        target: *block_of.get(&(t as usize))?,
                        charge: std::mem::take(&mut pend),
                    });
                    break;
                }
                Insn::JmpIf(t) | Insn::JmpIfNot(t) => {
                    let cond_sym = ss.pop()?;
                    let cond = src_of(cond_sym, ss.len());
                    materialize_all(&mut ss, &mut ops);
                    let taken = *block_of.get(&(t as usize))?;
                    let fall = *block_of.get(&(i + 1))?;
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
                Insn::Call(fidx) => {
                    let callee = functions.get(fidx as usize)?;
                    let argc = callee.sig.params.len();
                    if ss.len() < argc {
                        return None;
                    }
                    let arg_syms = ss.split_off(ss.len() - argc);
                    let base = ss.len();
                    let args: Vec<Src> = arg_syms
                        .iter()
                        .enumerate()
                        .map(|(k, s)| src_of(*s, base + k))
                        .collect();
                    let dst = callee.sig.ret.map(|_| canon(ss.len()));
                    ops.push(Op::Call {
                        fidx,
                        args,
                        dst,
                        charge: std::mem::take(&mut pend),
                    });
                    if dst.is_some() {
                        ss.push(Sym::Slot);
                    }
                }
                Insn::HostCall(iidx) => {
                    let import = imports.get(iidx as usize)?;
                    let argc = import.sig.params.len();
                    if ss.len() < argc {
                        return None;
                    }
                    let arg_syms = ss.split_off(ss.len() - argc);
                    let base = ss.len();
                    let args: Vec<Src> = arg_syms
                        .iter()
                        .enumerate()
                        .map(|(k, s)| src_of(*s, base + k))
                        .collect();
                    let dst = import.sig.ret.map(|_| canon(ss.len()));
                    ops.push(Op::HostCall {
                        iidx,
                        args,
                        dst,
                        charge: std::mem::take(&mut pend),
                    });
                    if dst.is_some() {
                        ss.push(Sym::Slot);
                    }
                }
                Insn::Ret => {
                    let src = match f.sig.ret {
                        Some(_) => {
                            let v = ss.pop()?;
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
                    let v = ss.pop()?;
                    let p = ss.len();
                    ops.push(Op::NewArr {
                        dst: canon(p),
                        len: src_of(v, p),
                        charge: std::mem::take(&mut pend),
                    });
                    ss.push(Sym::Slot);
                }
                Insn::ALoad => {
                    let idx = ss.pop()?;
                    let arr = ss.pop()?;
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
                    let val = ss.pop()?;
                    let idx = ss.pop()?;
                    let arr = ss.pop()?;
                    let p = ss.len();
                    ops.push(Op::AStore {
                        arr: src_of(arr, p),
                        idx: src_of(idx, p + 1),
                        val: src_of(val, p + 2),
                        charge: std::mem::take(&mut pend),
                    });
                }
                Insn::ALen => {
                    let v = ss.pop()?;
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
                let next = *block_of.get(&end)?;
                Exit::Jmp {
                    target: next,
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

    // --- Phase 3: thread `Jmp` exits through empty blocks, folding the
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

    // --- Phase 4: carry a trailing integer binop into a fused
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

/// One step `acc ⊕ x` of a [`Chain`]: the op, then the right operand as a
/// loop-invariant register, a mask for the induction variable and a mask
/// for `arr[ind]` (exactly one of the three is set).
type Step = (IBinKind, Option<Src>, i64, i64);

/// A body that is one integer recurrence of one or two steps,
/// `acc = (acc ⊕₁ x) ⊕₂ y` — the shape of every sum, xor, checksum and
/// hash loop. `mid` is the register the first of two steps also writes.
#[derive(Debug)]
struct Chain {
    acc: u16,
    steps: Vec<Step>,
    mid: Option<u16>,
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
    #[inline(never)] // keeps the 72 kernel loops out of the dispatcher's frame
    fn run(
        &self,
        ops: &[Op],
        regs: &mut [u64],
        arena: &mut Arena,
        budget: u64,
    ) -> Result<Option<(u64, bool)>> {
        let i0 = regs[self.ind as usize] as i64;
        let gap = regs[self.bound as usize] as i64 as i128 - i0 as i128;
        let gap = gap * self.step.signum() as i128 + self.le as i128;
        // Nearly every loop steps by one: spare those the hardware divide.
        let by = self.step.unsigned_abs();
        let steps_in = |span: u64| if by == 1 { span } else { span / by };
        let trips = match gap {
            ..=0 => 1,
            _ => steps_in((gap - 1) as u64) + 1,
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
        enum Opd {
            Reg(Src),
            Elem,
            Prev,
        }
        use Opd::{Elem, Prev, Reg};
        let mut links: Vec<(IBinKind, Opd, Opd, Option<u16>)> = Vec::new();
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
            let (reg, ind_mask, elem_mask) = match other {
                Reg(r) if r == ind => (None, -1, 0),
                Reg(r) if !written.contains(&r) => (Some(r), 0, 0),
                Elem => (None, 0, -1),
                _ => return None,
            };
            steps.push((kind, reg, ind_mask, elem_mask));
            carried = dst.map_or(Prev, Reg);
        }
        let mid = links[0].3.filter(|_| steps.len() == 2);
        (steps.len() <= 2).then_some(Chain { acc, steps, mid })
    }

    /// `strip` trips of the recurrence with every operand in a local and
    /// the op kinds matched outside the trip loop.
    fn run(&self, strip: u64, step: i64, i0: i64, regs: &mut [u64], bytes: &[u8]) {
        // An ascending walk hands the trip loop its window of the array, so
        // the element needs no index at all; any other stride indexes
        // (`get`: a chain that reads no element has no array either).
        let window = usize::try_from(i0).ok();
        let window = window.and_then(|lo| bytes.get(lo..)?.get(..strip as usize));
        let (acc, mid) = match window {
            Some(window) if step == 1 => {
                self.fold(regs, window.iter().zip(i0..).map(|(e, i)| (i, *e as i64)))
            }
            _ => {
                let elem = |i: i64| bytes.get(i as usize).map_or(0, |e| *e as i64);
                let trips = (0..strip as i64).map(|k| i0 + k * step);
                self.fold(regs, trips.map(|i| (i, elem(i))))
            }
        };
        if let Some(mid_reg) = self.mid {
            regs[mid_reg as usize] = mid as u64;
        }
        regs[self.acc as usize] = acc as u64;
    }

    /// The trip loop over `(ind, arr[ind])` pairs: returns the accumulator
    /// and the first step's last result. Masks pick an operand: arithmetic
    /// beside the recurrence, never a conditional move on it.
    #[inline(always)]
    fn fold(&self, regs: &[u64], trips: impl Iterator<Item = (i64, i64)>) -> (i64, i64) {
        let operand = |(_, reg, ind_mask, elem_mask): Step| {
            let x = reg.map_or(0, |r: Src| regs[r as usize] as i64);
            move |(i, e): (i64, i64)| x + (i & ind_mask) + (e & elem_mask)
        };
        let (mut acc, mut mid) = (regs[self.acc as usize] as i64, 0);
        let (s1, x1) = (self.steps[0], operand(self.steps[0]));
        match self.steps.get(1) {
            None => unswitch!(s1.0, f1 => for trip in trips {
                acc = f1(acc, x1(trip));
            }),
            Some(&s2) => {
                let x2 = operand(s2);
                unswitch!(s1.0, f1 => unswitch!(s2.0, f2 => for trip in trips {
                    mid = f1(acc, x1(trip));
                    acc = f2(mid, x2(trip));
                }))
            }
        }
        (acc, mid)
    }
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
    /// Counted-loop strips run and trips handed back to the per-op path;
    /// published when the run ends, however it ends.
    loop_strips: u64,
    loop_fallbacks: u64,
}

impl Drop for Meter<'_> {
    fn drop(&mut self) {
        if self.loop_strips + self.loop_fallbacks > 0 {
            metrics().loop_strips.add(self.loop_strips);
            metrics().loop_fallbacks.add(self.loop_fallbacks);
        }
    }
}

impl Meter<'_> {
    #[inline]
    fn charge(&mut self, cost: u64) -> Result<()> {
        if cost == 0 {
            return Ok(());
        }
        if let Some(left) = self.fuel.as_mut() {
            if *left < cost {
                // A cancel poll due within the fuel that is left comes
                // first, as it does instruction by instruction.
                if let Some(token) = self.cancel.filter(|_| self.cancel_left <= *left) {
                    token.check()?;
                }
                // Retired-so-far (fuel_initial - left) + remaining + 1,
                // i.e. the count at which the per-instruction interpreter
                // discovers exhaustion.
                self.usage.instructions = self.fuel_initial + 1;
                return Err(JaguarError::ResourceLimit(format!(
                    "fuel exhausted after {} instructions",
                    self.usage.instructions
                )));
            }
            *left -= cost;
        } else {
            self.acc += cost;
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
        loop_strips: 0,
        loop_fallbacks: 0,
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
        let cf = cm.funcs[fidx as usize]
            .as_ref()
            .ok_or(JaguarError::VmTrap(VmTrap::BadCall(fidx)))?;
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
            let cf = cm.funcs[frame.fidx as usize]
                .as_ref()
                .ok_or(JaguarError::VmTrap(VmTrap::BadCall(frame.fidx)))?;
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
                            m.loop_strips += 1;
                            if done {
                                block = lp.exit as usize;
                            }
                            continue 'burst;
                        }
                        None => m.loop_fallbacks += 1,
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
                    let v = v.ok_or(JaguarError::VmTrap(VmTrap::Type("call returned no value")))?;
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
    use crate::module::{FuncSig, Function, HostImport, Module};
    use crate::resources::ResourceLimits;

    fn sum_loop_module() -> Arc<VerifiedModule> {
        let src = "module m\nfunc main(bytes, i64) -> i64\nlocals i64, i64\n\
                   top:\n  load 2\n  load 1\n  lti\n  jmpifnot done\n\
                   load 3\n  load 0\n  load 2\n  aload\n  addi\n  store 3\n\
                   load 2\n  consti 1\n  addi\n  store 2\n  jmp top\n\
                   done:\n  load 3\n  ret\nend\n";
        Arc::new(crate::asm::assemble(src).unwrap().verify().unwrap())
    }

    /// Satellite bugfix: two interpreters over one module share one plan —
    /// the fuser/encoder/compiler run once per module, not per statement.
    #[test]
    fn interpreters_share_one_plan_per_module() {
        let m = sum_loop_module();
        let a = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
        let b = Interpreter::new(
            Arc::clone(&m),
            ResourceLimits::default(),
            ExecMode::Baseline,
        );
        assert!(
            Arc::ptr_eq(a.plan(), b.plan()),
            "same module Arc must map to the same ModulePlan"
        );
        let other = sum_loop_module();
        let c = Interpreter::new(other, ResourceLimits::default(), ExecMode::Jit);
        assert!(
            !Arc::ptr_eq(a.plan(), c.plan()),
            "distinct module Arcs keep distinct plans"
        );
    }

    /// The compiled tier and both interpreter modes agree on results AND
    /// fuel, over a loop that exercises arrays, compares, and branches.
    #[test]
    fn compiled_tier_matches_interpreter_exactly() {
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
        let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit)
            .with_tier_up(Some(0));
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

    /// Baseline, fused and compiled outcomes of `main(data, n)` under
    /// `limits`, asserted identical; returns the common one.
    fn same_on_every_tier(
        m: &Arc<VerifiedModule>,
        limits: ResourceLimits,
        data: &[u8],
        n: i64,
    ) -> std::result::Result<(Option<VmValue>, ResourceUsage), String> {
        let args = [ArgValue::Bytes(data.to_vec()), ArgValue::I64(n)];
        let base = Interpreter::new(Arc::clone(m), limits, ExecMode::Baseline);
        let jit = Interpreter::new(Arc::clone(m), limits, ExecMode::Jit);
        let tier = Interpreter::new(Arc::clone(m), limits, ExecMode::Jit).with_tier_up(Some(0));
        let expect = outcome(&base, &args);
        assert_eq!(outcome(&jit, &args), expect, "fused, {limits:?}");
        assert_eq!(outcome(&tier, &args), expect, "compiled, {limits:?}");
        expect
    }

    /// Both generic-UDF loops are recognised as counted recurrence
    /// kernels, and a run of either is one strip with no fallback.
    #[test]
    fn generic_udf_loops_are_counted_kernels() {
        for (m, hoisted) in [(sum_loop_module(), true), (mul_add_loop_module(), false)] {
            let cm = CompiledModule::build(&m);
            let cf = cm.funcs[0].as_ref().expect("compiles");
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
        let tier = Interpreter::new(sum_loop_module(), ResourceLimits::default(), ExecMode::Jit)
            .with_tier_up(Some(0));
        let args = [ArgValue::Bytes(vec![1; 50]), ArgValue::I64(50)];
        tier.invoke("main", &args, &mut NoHost).unwrap();
        // Other tests in this process may add to the counters, never take away.
        assert!(tm.loop_strips.get() > strips);
        assert!(tm.loop_fallbacks.get() >= fallbacks);
    }

    /// Fuel exhaustion reports the same instruction count and text in the
    /// compiled tier as in the interpreters, and a sufficient budget the
    /// same result and usage: every budget from 1 to past completion, on
    /// both generic-UDF loops.
    #[test]
    fn fuel_exhaustion_is_tier_independent() {
        let data: Vec<u8> = (0..50u8).collect();
        for m in [sum_loop_module(), mul_add_loop_module()] {
            let unlimited = same_on_every_tier(&m, ResourceLimits::default(), &data, 50);
            let total = unlimited.expect("completes").1.instructions;
            let mut completed = 0;
            for fuel in 1..=total + 2 {
                let limits = ResourceLimits::tight(fuel, 1 << 20);
                match same_on_every_tier(&m, limits, &data, 50) {
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
        let m = sum_loop_module();
        let data: Vec<u8> = (0..20u8).collect();
        let trap = same_on_every_tier(&m, ResourceLimits::default(), &data, 25).unwrap_err();
        assert!(trap.contains("index 20") && trap.contains("20"), "{trap}");
        for fuel in 1..400 {
            let _ = same_on_every_tier(&m, ResourceLimits::tight(fuel, 1 << 20), &data, 25);
        }
        // Never in range: empty array, and a bound below the start.
        same_on_every_tier(&m, ResourceLimits::default(), &[], 3).unwrap_err();
        same_on_every_tier(&m, ResourceLimits::default(), &data, -4).unwrap();
    }

    /// The cancel poll keeps its cadence through strips: a pre-cancelled
    /// token stops a loop of more than `CANCEL_CHECK_INTERVAL` instructions
    /// on every tier, whatever fuel is left at the poll, and leaves a
    /// shorter one alone.
    #[test]
    fn counted_loop_polls_the_cancel_token_on_cadence() {
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
            let outcomes: Vec<_> = [
                (ExecMode::Baseline, None),
                (ExecMode::Jit, None),
                (ExecMode::Jit, Some(0)),
            ]
            .into_iter()
            .map(|(mode, tier_up)| {
                let mut interp =
                    Interpreter::new(Arc::clone(&m), limits, mode).with_tier_up(tier_up);
                let token = CancelToken::unbounded();
                token.cancel();
                interp.set_cancel(token);
                outcome(&interp, &[ArgValue::Bytes(vec![]), ArgValue::I64(n)])
            })
            .collect();
            assert_eq!(outcomes[1], outcomes[0], "fused, n={n} fuel={fuel:?}");
            assert_eq!(outcomes[2], outcomes[0], "compiled, n={n} fuel={fuel:?}");
            assert_eq!(outcomes[0].is_ok(), n == 100, "{:?}", outcomes[0]);
        }
    }

    /// A call's result lands in the caller's register — at every depth.
    #[test]
    fn compiled_calls_return_values_to_their_callers() {
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
        let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit)
            .with_tier_up(Some(0));
        let expect = outcome(&base, &args);
        assert_eq!(expect.as_ref().unwrap().0, Some(VmValue::I64(21)));
        assert_eq!(outcome(&tier, &args), expect);
    }

    /// A pre-cancelled token stops the compiled tier like the interpreter.
    #[test]
    fn compiled_tier_honours_cancellation() {
        let src = "module m\nfunc main() -> i64\n\
                   top:\n  jmp top\n  consti 0\n  ret\nend\n";
        let m = Arc::new(crate::asm::assemble(src).unwrap().verify().unwrap());
        let limits = ResourceLimits {
            fuel: None,
            memory: Some(1 << 20),
            max_call_depth: 8,
        };
        let mut interp = Interpreter::new(m, limits, ExecMode::Jit).with_tier_up(Some(0));
        let token = CancelToken::unbounded();
        token.cancel();
        interp.set_cancel(token);
        let e = interp.invoke("main", &[], &mut NoHost).unwrap_err();
        assert!(matches!(e, JaguarError::Cancelled(_)), "{e}");
    }

    /// Promotion hotness: below the threshold the interpreter runs; the
    /// call after the threshold takes the compiled tier.
    #[test]
    fn promotion_respects_threshold() {
        let m = sum_loop_module();
        let interp = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit)
            .with_tier_up(Some(3));
        let args = [ArgValue::Bytes(vec![1, 2, 3]), ArgValue::I64(3)];
        let before = metrics().compiled_hits.get();
        for _ in 0..3 {
            interp.invoke("main", &args, &mut NoHost).unwrap();
        }
        assert_eq!(
            metrics().compiled_hits.get(),
            before,
            "first N calls stay interpreted"
        );
        interp.invoke("main", &args, &mut NoHost).unwrap();
        assert_eq!(
            metrics().compiled_hits.get(),
            before + 1,
            "call N+1 must run compiled"
        );
    }

    /// Recursion: the compiled tier enforces the same call-depth limit
    /// with the same error text as the interpreter. Compiled frames live
    /// on the heap, so even infinite recursion is limit-bounded, never a
    /// native stack overflow.
    #[test]
    fn compiled_recursion_depth_matches_interpreter() {
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
        let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit)
            .with_tier_up(Some(0));
        let eb = base.invoke("main", &[], &mut NoHost).unwrap_err();
        let et = tier.invoke("main", &[], &mut NoHost).unwrap_err();
        assert_eq!(eb.to_string(), et.to_string());
        assert!(eb.to_string().contains("call depth limit"));
        assert!(tier.plan().compiled(&m).entry_runnable(0));
    }

    /// Host calls work from the compiled tier: security checked, counted,
    /// and return-validated exactly like the interpreter.
    #[test]
    fn compiled_host_calls_match_interpreter() {
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
        let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit)
            .with_tier_up(Some(0));
        let (rb, ub, _) = base.invoke("main", &[], &mut Doubler).unwrap();
        let (rt, ut, _) = tier.invoke("main", &[], &mut Doubler).unwrap();
        assert_eq!(rb, rt);
        assert_eq!(ub, ut);
        assert_eq!(ut.host_calls, 1);

        // And the security manager still gates compiled host calls.
        let perms = Arc::new(crate::security::PermissionSet::deny_all("udf"));
        let gated = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit)
            .with_tier_up(Some(0))
            .with_security(perms);
        let e = gated.invoke("main", &[], &mut Doubler).unwrap_err();
        assert!(matches!(e, JaguarError::SecurityViolation(_)), "{e}");
    }

    /// Traps surface identically from the compiled tier: bounds, divide
    /// by zero, explicit traps, negative allocation.
    #[test]
    fn compiled_traps_match_interpreter() {
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
            let mk = || {
                Arc::new(
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
                )
            };
            let m = mk();
            let base = Interpreter::new(
                Arc::clone(&m),
                ResourceLimits::default(),
                ExecMode::Baseline,
            );
            let tier = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit)
                .with_tier_up(Some(0));
            let eb = base.invoke("main", &[], &mut NoHost).unwrap_err();
            let et = tier.invoke("main", &[], &mut NoHost).unwrap_err();
            assert_eq!(eb.to_string(), et.to_string(), "{code:?}");
        }
    }

    /// Dropping the last module Arc releases its cache entry (no leak of
    /// plans for dead modules).
    #[test]
    fn plan_cache_entries_die_with_their_module() {
        let m = sum_loop_module();
        let plan = plan_for(&m);
        let weak_plan = Arc::downgrade(&plan);
        drop(plan);
        {
            let _keep = Interpreter::new(Arc::clone(&m), ResourceLimits::default(), ExecMode::Jit);
        }
        drop(m);
        // Trigger a sweep by inserting another module.
        let other = sum_loop_module();
        let _ = plan_for(&other);
        let _ = plan_for(&other);
        assert!(
            weak_plan.upgrade().is_none() || PLAN_CACHE.lock().unwrap().len() < 64,
            "dead modules must not accumulate plans"
        );
    }
}
