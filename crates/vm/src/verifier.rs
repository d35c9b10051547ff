//! The JSM bytecode verifier.
//!
//! The analogue of the JVM's class-file verifier (§6.1: "the bytecode
//! verifier ... ensur\[es\] the proper format of loaded class files and the
//! well-typedness of their code"). Verification runs once at load time;
//! the interpreter then trusts the types, so the only *runtime* checks left
//! are the ones Java also pays for at runtime — array bounds, division by
//! zero, resource limits — which is exactly the cost model the paper's
//! Figure 7 measures.
//!
//! The algorithm is abstract interpretation over the operand stack:
//! a worklist propagates the stack *type* state through the control-flow
//! graph, one basic block at a time; merge points require identical states
//! (JSM has no subtyping, so equality is the join). A function verifies
//! iff:
//!
//! * every instruction is structurally sound (local indices in range,
//!   jump targets inside the function, call targets existing),
//! * no path underflows the stack or exceeds [`MAX_STACK`],
//! * every operand has the exact type its instruction requires,
//! * control cannot fall off the end of the code,
//! * every `ret` leaves exactly the declared return value on the stack,
//! * the stack states it hands along control-flow edges fit in
//!   [`STATE_BUDGET`].
//!
//! What the pass proves about control flow it hands on as one [`Cfg`] per
//! function: the compiled tier builds its register programs from those
//! facts and asks no structural question of its own.

use std::ops::Range;

use jaguar_common::error::{JaguarError, Result};

use crate::isa::{Insn, VType};
use crate::module::{Function, Module, VerifiedModule};
use crate::tier::CompiledModule;

/// Maximum verified operand-stack depth.
pub const MAX_STACK: usize = 4096;
/// Maximum local slots per function.
pub const MAX_LOCALS: usize = 65_535;
/// Most operand-stack slots the verifier hands along one function's
/// control-flow edges, summed (one byte each). Stack types are kept at
/// block entries only, so a straight-line function costs its code and one
/// stack; a function past the budget — a chain of jumps at a deep stack —
/// is refused rather than stored once per jump.
pub const STATE_BUDGET: usize = 1 << 20;

/// The control-flow facts the verifier proved for one function, and the
/// only structural input the compiled tier takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// First pc of each basic block, ascending: pc 0, every jump target,
    /// and the pc after every jump, `ret` and `trap`.
    pub leaders: Vec<u32>,
    /// The block each pc belongs to.
    pub block_of: Vec<u32>,
    /// Operand-stack depth on entry to each block; `None` for a block no
    /// path reaches.
    pub entry_depth: Vec<Option<u32>>,
    /// Deepest operand stack on any path.
    pub max_depth: usize,
    /// No back-edge, `call` or `host_call` anywhere in the code: every
    /// instruction runs at most once and nothing outside the frame and its
    /// arena is touched, so the result depends on the arguments alone.
    pub straight_line: bool,
}

impl Cfg {
    /// The pcs of block `b`.
    pub(crate) fn block(&self, b: usize) -> Range<usize> {
        let end = self
            .leaders
            .get(b + 1)
            .map_or(self.block_of.len(), |e| *e as usize);
        self.leaders[b] as usize..end
    }
}

/// Verify a module, producing the only token the interpreter accepts —
/// with its compiled form, built here, once, from code just proven safe.
pub fn verify(module: Module) -> Result<VerifiedModule> {
    // Duplicate function names would make name-based dispatch ambiguous.
    for (i, f) in module.functions.iter().enumerate() {
        if module.functions[..i].iter().any(|g| g.name == f.name) {
            return Err(err(&f.name, 0, "duplicate function name"));
        }
    }
    let cfgs = module
        .functions
        .iter()
        .map(|f| verify_function(&module, f))
        .collect::<Result<Vec<Cfg>>>()?;
    let compiled = CompiledModule::build(&module, &cfgs);
    Ok(VerifiedModule::new_unchecked(module, cfgs, compiled))
}

fn err(func: &str, pc: usize, msg: impl std::fmt::Display) -> JaguarError {
    JaguarError::Verification(format!("function '{func}' @{pc}: {msg}"))
}

fn verify_function(module: &Module, f: &Function) -> Result<Cfg> {
    if f.total_locals() > MAX_LOCALS {
        return Err(err(&f.name, 0, "too many locals"));
    }
    if f.code.is_empty() {
        return Err(err(&f.name, 0, "empty code: control falls off the end"));
    }
    let n = f.code.len();

    // Pass 1: structural checks on every instruction, reachable or not;
    // the same scan finds the block leaders and the straight-line flag.
    let mut leader = vec![false; n];
    leader[0] = true;
    let mut straight_line = true;
    for (pc, insn) in f.code.iter().enumerate() {
        match *insn {
            Insn::Load(i) | Insn::Store(i) if (i as usize) >= f.total_locals() => {
                return Err(err(&f.name, pc, format!("local {i} out of range")));
            }
            Insn::Jmp(t) | Insn::JmpIf(t) | Insn::JmpIfNot(t) => {
                if t as usize >= n {
                    return Err(err(&f.name, pc, format!("jump target {t} out of range")));
                }
                leader[t as usize] = true;
                straight_line &= t as usize > pc;
            }
            Insn::Call(idx) if (idx as usize) >= module.functions.len() => {
                return Err(err(&f.name, pc, format!("call target {idx} undefined")));
            }
            Insn::HostCall(idx) if (idx as usize) >= module.imports.len() => {
                return Err(err(&f.name, pc, format!("host import {idx} undeclared")));
            }
            Insn::Call(_) | Insn::HostCall(_) => straight_line = false,
            _ => {}
        }
        let ends_block = matches!(
            insn,
            Insn::Jmp(_) | Insn::JmpIf(_) | Insn::JmpIfNot(_) | Insn::Ret | Insn::Trap(_)
        );
        if ends_block && pc + 1 < n {
            leader[pc + 1] = true;
        }
    }
    let mut cfg = Cfg {
        leaders: (0..n as u32).filter(|pc| leader[*pc as usize]).collect(),
        block_of: leader
            .iter()
            .scan(0u32, |b, l| {
                *b += u32::from(*l);
                Some(*b - 1)
            })
            .collect(),
        entry_depth: Vec::new(),
        max_depth: 0,
        straight_line,
    };

    // Pass 2: dataflow over the reachable blocks, depth first. The first
    // stack state to reach a block is its entry state, and the block is
    // walked once, from it; every later arrival must carry the same state.
    // Only entry states are kept, and the states handed along edges count
    // against `STATE_BUDGET`.
    let mut entry: Vec<Option<Vec<VType>>> = vec![None; cfg.leaders.len()];
    let mut stored = 0usize;
    let mut worklist: Vec<(usize, Vec<VType>)> = vec![(0, Vec::new())];
    let mut s: Vec<VType> = Vec::new();

    while let Some((b, state)) = worklist.pop() {
        if let Some(existing) = &entry[b] {
            if *existing != state {
                return Err(err(
                    &f.name,
                    cfg.leaders[b] as usize,
                    format!("inconsistent stack at merge point: {existing:?} vs {state:?}"),
                ));
            }
            continue; // already walked from this state
        }
        s.clone_from(&state);
        entry[b] = Some(state);
        let block = cfg.block(b);
        for pc in block.clone() {
            let insn = f.code[pc];
            // Helper macros for pops/pushes with typed errors.
            macro_rules! pop {
                ($want:expr) => {{
                    let got = s.pop().ok_or_else(|| err(&f.name, pc, "stack underflow"))?;
                    if got != $want {
                        return Err(err(
                            &f.name,
                            pc,
                            format!("expected {} on stack, found {}", $want.name(), got.name()),
                        ));
                    }
                }};
            }
            macro_rules! pop_any {
                () => {{
                    s.pop().ok_or_else(|| err(&f.name, pc, "stack underflow"))?
                }};
            }
            macro_rules! push {
                ($t:expr) => {{
                    if s.len() >= MAX_STACK {
                        return Err(err(&f.name, pc, "operand stack too deep"));
                    }
                    s.push($t);
                }};
            }

            match insn {
                Insn::Load(i) => push!(f.local_type(i as usize).expect("checked in pass 1")),
                Insn::Store(i) => pop!(f.local_type(i as usize).expect("checked in pass 1")),
                Insn::Pop => {
                    pop_any!();
                }
                Insn::Dup => {
                    let t = pop_any!();
                    push!(t);
                    push!(t);
                }
                Insn::Swap => {
                    let a = pop_any!();
                    let b = pop_any!();
                    push!(a);
                    push!(b);
                }
                Insn::Ret => {
                    if let Some(t) = f.sig.ret {
                        pop!(t);
                    }
                    if !s.is_empty() {
                        return Err(err(
                            &f.name,
                            pc,
                            format!("{} residual stack values at return", s.len()),
                        ));
                    }
                }
                _ => {
                    let (operands, result) = match module.callee_sig(insn) {
                        Some(sig) => (&sig.params[..], sig.ret),
                        None => fixed_typing(insn),
                    };
                    for t in operands.iter().rev() {
                        pop!(*t);
                    }
                    if let Some(r) = result {
                        push!(r);
                    }
                }
            }
            cfg.max_depth = cfg.max_depth.max(s.len());
        }

        // Only a block's last instruction transfers control.
        let (last, end) = (block.end - 1, block.end);
        let (taken, falls) = match f.code[last] {
            Insn::Jmp(t) => (Some(t as usize), false),
            Insn::JmpIf(t) | Insn::JmpIfNot(t) => (Some(t as usize), true),
            Insn::Ret | Insn::Trap(_) => (None, false),
            _ => (None, true),
        };
        if falls && end == n {
            return Err(err(&f.name, last, "control falls off the end of the code"));
        }
        for target in taken.into_iter().chain(falls.then_some(end)) {
            stored += s.len();
            if stored > STATE_BUDGET {
                return Err(err(
                    &f.name,
                    target,
                    format!("stack states exceed the state budget of {STATE_BUDGET} slots"),
                ));
            }
            worklist.push((cfg.block_of[target] as usize, s.clone()));
        }
    }

    cfg.entry_depth = entry
        .iter()
        .map(|s| s.as_ref().map(|s| s.len() as u32))
        .collect();
    Ok(cfg)
}

/// The operand types an instruction of fixed typing pops (listed bottom
/// to top) and the type it pushes. `jmp` and `trap` touch no operand; the
/// instructions typed by their locals, the stack or a signature are typed
/// by the walk itself.
fn fixed_typing(insn: Insn) -> (&'static [VType], Option<VType>) {
    use VType::{Bytes, F64, I64};
    match insn {
        Insn::ConstI(_) => (&[], Some(I64)),
        Insn::ConstF(_) => (&[], Some(F64)),
        Insn::AddI
        | Insn::SubI
        | Insn::MulI
        | Insn::DivI
        | Insn::RemI
        | Insn::And
        | Insn::Or
        | Insn::Xor
        | Insn::Shl
        | Insn::Shr
        | Insn::EqI
        | Insn::LtI
        | Insn::LeI => (&[I64, I64], Some(I64)),
        Insn::NegI | Insn::Not => (&[I64], Some(I64)),
        Insn::AddF | Insn::SubF | Insn::MulF | Insn::DivF => (&[F64, F64], Some(F64)),
        Insn::NegF => (&[F64], Some(F64)),
        Insn::EqF | Insn::LtF | Insn::LeF => (&[F64, F64], Some(I64)),
        Insn::I2F => (&[I64], Some(F64)),
        Insn::F2I => (&[F64], Some(I64)),
        Insn::NewArr => (&[I64], Some(Bytes)),
        Insn::ALoad => (&[Bytes, I64], Some(I64)),
        Insn::AStore => (&[Bytes, I64, I64], None),
        Insn::ALen => (&[Bytes], Some(I64)),
        Insn::JmpIf(_) | Insn::JmpIfNot(_) => (&[I64], None),
        _ => (&[], None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{FuncSig, HostImport};

    fn module_with(f: Function) -> Module {
        Module {
            name: "t".into(),
            imports: vec![],
            functions: vec![f],
        }
    }

    fn func(sig: FuncSig, locals: Vec<VType>, code: Vec<Insn>) -> Function {
        Function {
            name: "main".into(),
            sig,
            local_types: locals,
            code,
        }
    }

    fn ok(code: Vec<Insn>) -> Result<VerifiedModule> {
        verify(module_with(func(
            FuncSig::new(vec![], Some(VType::I64)),
            vec![],
            code,
        )))
    }

    #[test]
    fn trivial_function_verifies() {
        ok(vec![Insn::ConstI(1), Insn::Ret]).unwrap();
    }

    #[test]
    fn stack_underflow_rejected() {
        let e = ok(vec![Insn::AddI, Insn::Ret]).unwrap_err();
        assert!(e.to_string().contains("underflow"), "{e}");
    }

    #[test]
    fn type_mismatch_rejected() {
        let e = ok(vec![
            Insn::ConstF(1.0),
            Insn::ConstI(1),
            Insn::AddI,
            Insn::Ret,
        ])
        .unwrap_err();
        assert!(e.to_string().contains("expected i64"), "{e}");
    }

    #[test]
    fn wrong_return_type_rejected() {
        let e = ok(vec![Insn::ConstF(1.0), Insn::Ret]).unwrap_err();
        assert!(e.to_string().contains("expected i64"), "{e}");
    }

    #[test]
    fn residual_stack_at_return_rejected() {
        let e = ok(vec![Insn::ConstI(1), Insn::ConstI(2), Insn::Ret]).unwrap_err();
        assert!(e.to_string().contains("residual"), "{e}");
    }

    #[test]
    fn falling_off_the_end_rejected() {
        let e = ok(vec![Insn::ConstI(1)]).unwrap_err();
        assert!(e.to_string().contains("falls off"), "{e}");
    }

    #[test]
    fn empty_function_rejected() {
        let e = ok(vec![]).unwrap_err();
        assert!(e.to_string().contains("empty code"), "{e}");
    }

    #[test]
    fn bad_jump_target_rejected() {
        let e = ok(vec![Insn::Jmp(99), Insn::Ret]).unwrap_err();
        assert!(e.to_string().contains("jump target"), "{e}");
    }

    #[test]
    fn bad_local_rejected() {
        let e = ok(vec![Insn::Load(3), Insn::Ret]).unwrap_err();
        assert!(e.to_string().contains("local 3 out of range"), "{e}");
    }

    #[test]
    fn undefined_call_rejected() {
        let e = ok(vec![Insn::Call(7), Insn::Ret]).unwrap_err();
        assert!(e.to_string().contains("call target"), "{e}");
    }

    #[test]
    fn undeclared_host_import_rejected() {
        let e = ok(vec![Insn::HostCall(0), Insn::Ret]).unwrap_err();
        assert!(e.to_string().contains("host import"), "{e}");
    }

    #[test]
    fn branch_merge_with_consistent_stack_verifies() {
        // if (p0) r = 1 else r = 2; return r
        let f = func(
            FuncSig::new(vec![VType::I64], Some(VType::I64)),
            vec![],
            vec![
                Insn::Load(0),     // 0
                Insn::JmpIfNot(4), // 1
                Insn::ConstI(1),   // 2
                Insn::Jmp(5),      // 3
                Insn::ConstI(2),   // 4
                Insn::Ret,         // 5
            ],
        );
        verify(module_with(f)).unwrap();
    }

    #[test]
    fn branch_merge_with_inconsistent_stack_rejected() {
        // One arm pushes i64, the other f64, merging at Ret.
        let f = func(
            FuncSig::new(vec![VType::I64], Some(VType::I64)),
            vec![],
            vec![
                Insn::Load(0),     // 0
                Insn::JmpIfNot(4), // 1
                Insn::ConstI(1),   // 2
                Insn::Jmp(5),      // 3
                Insn::ConstF(2.0), // 4
                Insn::Ret,         // 5
            ],
        );
        let e = verify(module_with(f)).unwrap_err();
        assert!(e.to_string().contains("inconsistent stack"), "{e}");
    }

    #[test]
    fn loop_verifies() {
        // i = 10; while (i) { i = i - 1 } ; return 0
        let f = func(
            FuncSig::new(vec![], Some(VType::I64)),
            vec![VType::I64],
            vec![
                Insn::ConstI(10),  // 0
                Insn::Store(0),    // 1
                Insn::Load(0),     // 2  loop head
                Insn::JmpIfNot(8), // 3
                Insn::Load(0),     // 4
                Insn::ConstI(1),   // 5
                Insn::SubI,        // 6
                Insn::Store(0),    // 7 → falls to 8? no: loop back
                Insn::ConstI(0),   // 8
                Insn::Ret,         // 9
            ],
        );
        // fix: insert the back jump
        let mut f = f;
        f.code[7] = Insn::Store(0);
        f.code.insert(8, Insn::Jmp(2));
        // re-point the exit branch (target 8 is now 9)
        f.code[3] = Insn::JmpIfNot(9);
        verify(module_with(f)).unwrap();
    }

    #[test]
    fn array_ops_verify_and_type_check() {
        // return len(newarr(5))
        ok(vec![Insn::ConstI(5), Insn::NewArr, Insn::ALen, Insn::Ret]).unwrap();
        // aload on an i64 must fail
        let e = ok(vec![
            Insn::ConstI(5),
            Insn::ConstI(0),
            Insn::ALoad,
            Insn::Ret,
        ])
        .unwrap_err();
        assert!(e.to_string().contains("expected bytes"), "{e}");
    }

    #[test]
    fn call_signature_enforced() {
        let callee = Function {
            name: "callee".into(),
            sig: FuncSig::new(vec![VType::I64, VType::F64], Some(VType::I64)),
            local_types: vec![],
            code: vec![Insn::ConstI(0), Insn::Ret],
        };
        let good = Function {
            name: "main".into(),
            sig: FuncSig::new(vec![], Some(VType::I64)),
            local_types: vec![],
            code: vec![Insn::ConstI(1), Insn::ConstF(2.0), Insn::Call(0), Insn::Ret],
        };
        verify(Module {
            name: "t".into(),
            imports: vec![],
            functions: vec![callee.clone(), good],
        })
        .unwrap();

        let bad = Function {
            name: "main".into(),
            sig: FuncSig::new(vec![], Some(VType::I64)),
            local_types: vec![],
            code: vec![Insn::ConstF(2.0), Insn::ConstI(1), Insn::Call(0), Insn::Ret],
        };
        let e = verify(Module {
            name: "t".into(),
            imports: vec![],
            functions: vec![callee, bad],
        })
        .unwrap_err();
        assert!(e.to_string().contains("expected f64"), "{e}");
    }

    #[test]
    fn trap_is_terminal() {
        // Code after an unconditional trap need not be reachable-valid,
        // but the function must not fall off the end on the live path.
        ok(vec![Insn::Trap(1)]).unwrap();
    }

    #[test]
    fn dead_code_still_structurally_checked() {
        // The jump target 99 is in dead code but must still be rejected.
        let e = ok(vec![Insn::Trap(0), Insn::Jmp(99)]).unwrap_err();
        assert!(e.to_string().contains("jump target"), "{e}");
    }

    #[test]
    fn duplicate_function_names_rejected() {
        let f1 = func(FuncSig::new(vec![], None), vec![], vec![Insn::Ret]);
        let mut f2 = f1.clone();
        f2.code = vec![Insn::Ret];
        let e = verify(Module {
            name: "t".into(),
            imports: vec![],
            functions: vec![f1, f2],
        })
        .unwrap_err();
        assert!(e.to_string().contains("duplicate function"), "{e}");
    }

    #[test]
    fn void_function_with_clean_stack_verifies() {
        let f = func(FuncSig::new(vec![], None), vec![], vec![Insn::Ret]);
        verify(module_with(f)).unwrap();
    }

    #[test]
    fn swap_and_dup_typing() {
        // swap(i64, f64) leaves (f64, i64): add them as ints must fail.
        let e = ok(vec![
            Insn::ConstI(1),
            Insn::ConstF(2.0),
            Insn::Swap, // now stack: f64, i64 (top)
            Insn::AddI, // pops i64 then expects i64, finds f64 → error
            Insn::Ret,
        ])
        .unwrap_err();
        assert!(e.to_string().contains("expected i64"), "{e}");

        ok(vec![Insn::ConstI(1), Insn::Dup, Insn::AddI, Insn::Ret]).unwrap();
    }

    #[test]
    fn straight_line_means_forward_jumps_and_no_calls() {
        let verified = |code: Vec<Insn>| {
            let mut m = module_with(func(
                FuncSig::new(vec![VType::I64], Some(VType::I64)),
                vec![],
                code,
            ));
            m.imports.push(HostImport {
                name: "h".into(),
                sig: FuncSig::new(vec![VType::I64], Some(VType::I64)),
            });
            verify(m).unwrap()
        };
        let forward = vec![
            Insn::Load(0),
            Insn::JmpIfNot(3),
            Insn::Jmp(3),
            Insn::Load(0),
            Insn::Ret,
        ];
        assert!(verified(forward).cfg(0).straight_line);
        let trapping = vec![Insn::Load(0), Insn::NewArr, Insn::Trap(1), Insn::Ret];
        assert!(verified(trapping).cfg(0).straight_line);
        for not in [
            vec![
                Insn::Load(0),
                Insn::JmpIfNot(3),
                Insn::Jmp(0),
                Insn::Load(0),
                Insn::Ret,
            ],
            vec![Insn::Load(0), Insn::JmpIf(0), Insn::Load(0), Insn::Ret],
            vec![Insn::Load(0), Insn::Call(0), Insn::Ret],
            vec![Insn::Load(0), Insn::HostCall(0), Insn::Ret],
        ] {
            assert!(!verified(not.clone()).cfg(0).straight_line, "{not:?}");
        }
    }

    #[test]
    fn cfg_has_the_leaders_entry_depths_and_max_depth() {
        // return p0 ? p0 * 2 : p0 + 7, with p0 live across the branch and
        // a dead trap after the return.
        let f = func(
            FuncSig::new(vec![VType::I64], Some(VType::I64)),
            vec![],
            vec![
                Insn::Load(0),     // 0  depth 1
                Insn::Load(0),     // 1  depth 2
                Insn::JmpIfNot(6), // 2  depth 1
                Insn::ConstI(2),   // 3  depth 2
                Insn::MulI,        // 4  depth 1
                Insn::Jmp(8),      // 5
                Insn::ConstI(7),   // 6  depth 2
                Insn::AddI,        // 7  depth 1, falls into 8
                Insn::Ret,         // 8
                Insn::Trap(1),     // 9  unreachable
            ],
        );
        let m = verify(module_with(f)).unwrap();
        let cfg = m.cfg(0);
        assert_eq!(cfg.leaders, [0, 3, 6, 8, 9]);
        assert_eq!(cfg.block_of, [0, 0, 0, 1, 1, 1, 2, 2, 3, 4]);
        assert_eq!(cfg.entry_depth, [Some(0), Some(1), Some(1), Some(1), None]);
        assert_eq!(cfg.max_depth, 2);
        assert_eq!(cfg.block(1), 3..6);
        assert!(cfg.straight_line);
    }

    #[test]
    fn entry_states_past_the_budget_are_refused() {
        // A deep stack carried through a chain of jumps would be stored
        // once per jump target.
        let depth = 1_000;
        let jumps = STATE_BUDGET / depth + 1;
        let mut code: Vec<Insn> = vec![Insn::ConstI(0); depth];
        code.extend((0..jumps).map(|k| Insn::Jmp((depth + k + 1) as u32)));
        code.extend(vec![Insn::Pop; depth]);
        code.push(Insn::Ret);
        let f = func(FuncSig::new(vec![], None), vec![], code);
        let e = verify(module_with(f)).unwrap_err();
        assert!(e.to_string().contains("state budget"), "{e}");
    }
}
