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
//! graph; merge points require identical states (JSM has no subtyping, so
//! equality is the join). A function verifies iff:
//!
//! * every instruction is structurally sound (local indices in range,
//!   jump targets inside the function, call targets existing),
//! * no path underflows the stack or exceeds [`MAX_STACK`],
//! * every operand has the exact type its instruction requires,
//! * control cannot fall off the end of the code,
//! * every `ret` leaves exactly the declared return value on the stack.

use jaguar_common::error::{JaguarError, Result};

use crate::isa::{Insn, VType};
use crate::module::{Function, Module, VerifiedModule};
use crate::tier::CompiledModule;

/// Maximum verified operand-stack depth.
pub const MAX_STACK: usize = 4096;
/// Maximum local slots per function.
pub const MAX_LOCALS: usize = 65_535;

/// Verify a module, producing the only token the interpreter accepts —
/// with its compiled form, built here, once, from code just proven safe.
pub fn verify(module: Module) -> Result<VerifiedModule> {
    // Duplicate function names would make name-based dispatch ambiguous.
    for (i, f) in module.functions.iter().enumerate() {
        if module.functions[..i].iter().any(|g| g.name == f.name) {
            return Err(err(&f.name, 0, "duplicate function name"));
        }
    }
    for f in &module.functions {
        verify_function(&module, f)?;
    }
    let compiled = CompiledModule::build(&module);
    Ok(VerifiedModule::new_unchecked(module, compiled))
}

fn err(func: &str, pc: usize, msg: impl std::fmt::Display) -> JaguarError {
    JaguarError::Verification(format!("function '{func}' @{pc}: {msg}"))
}

fn verify_function(module: &Module, f: &Function) -> Result<()> {
    if f.total_locals() > MAX_LOCALS {
        return Err(err(&f.name, 0, "too many locals"));
    }
    if f.code.is_empty() {
        return Err(err(&f.name, 0, "empty code: control falls off the end"));
    }

    // Pass 1: structural checks on every instruction, reachable or not.
    for (pc, insn) in f.code.iter().enumerate() {
        match *insn {
            Insn::Load(i) | Insn::Store(i) if (i as usize) >= f.total_locals() => {
                return Err(err(&f.name, pc, format!("local {i} out of range")));
            }
            Insn::Jmp(t) | Insn::JmpIf(t) | Insn::JmpIfNot(t) if (t as usize) >= f.code.len() => {
                return Err(err(&f.name, pc, format!("jump target {t} out of range")));
            }
            Insn::Call(idx) if (idx as usize) >= module.functions.len() => {
                return Err(err(&f.name, pc, format!("call target {idx} undefined")));
            }
            Insn::HostCall(idx) if (idx as usize) >= module.imports.len() => {
                return Err(err(&f.name, pc, format!("host import {idx} undeclared")));
            }
            _ => {}
        }
    }

    // Pass 2: dataflow over the reachable CFG.
    let mut states: Vec<Option<Vec<VType>>> = vec![None; f.code.len()];
    let mut worklist: Vec<(usize, Vec<VType>)> = vec![(0, Vec::new())];

    while let Some((pc, stack)) = worklist.pop() {
        match &states[pc] {
            Some(existing) => {
                if *existing != stack {
                    return Err(err(
                        &f.name,
                        pc,
                        format!("inconsistent stack at merge point: {existing:?} vs {stack:?}"),
                    ));
                }
                continue; // already analysed with this state
            }
            None => states[pc] = Some(stack.clone()),
        }

        let mut s = stack;
        let insn = f.code[pc];
        // Helper closures for pops/pushes with typed errors.
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

        // `succ` collects the (target, state) pairs this insn flows into.
        let mut next: Vec<(usize, Vec<VType>)> = Vec::with_capacity(2);
        let mut fallthrough = true;

        match insn {
            Insn::ConstI(_) => push!(VType::I64),
            Insn::ConstF(_) => push!(VType::F64),
            Insn::Load(i) => {
                let t = f.local_type(i as usize).expect("checked in pass 1");
                push!(t);
            }
            Insn::Store(i) => {
                let t = f.local_type(i as usize).expect("checked in pass 1");
                pop!(t);
            }
            Insn::Pop => {
                pop_any!();
            }
            Insn::Dup => {
                let t = *s
                    .last()
                    .ok_or_else(|| err(&f.name, pc, "stack underflow"))?;
                push!(t);
            }
            Insn::Swap => {
                let a = pop_any!();
                let b = pop_any!();
                push!(a);
                push!(b);
            }
            Insn::AddI | Insn::SubI | Insn::MulI | Insn::DivI | Insn::RemI => {
                pop!(VType::I64);
                pop!(VType::I64);
                push!(VType::I64);
            }
            Insn::NegI | Insn::Not => {
                pop!(VType::I64);
                push!(VType::I64);
            }
            Insn::AddF | Insn::SubF | Insn::MulF | Insn::DivF => {
                pop!(VType::F64);
                pop!(VType::F64);
                push!(VType::F64);
            }
            Insn::NegF => {
                pop!(VType::F64);
                push!(VType::F64);
            }
            Insn::And | Insn::Or | Insn::Xor | Insn::Shl | Insn::Shr => {
                pop!(VType::I64);
                pop!(VType::I64);
                push!(VType::I64);
            }
            Insn::I2F => {
                pop!(VType::I64);
                push!(VType::F64);
            }
            Insn::F2I => {
                pop!(VType::F64);
                push!(VType::I64);
            }
            Insn::EqI | Insn::LtI | Insn::LeI => {
                pop!(VType::I64);
                pop!(VType::I64);
                push!(VType::I64);
            }
            Insn::EqF | Insn::LtF | Insn::LeF => {
                pop!(VType::F64);
                pop!(VType::F64);
                push!(VType::I64);
            }
            Insn::Jmp(t) => {
                next.push((t as usize, s.clone()));
                fallthrough = false;
            }
            Insn::JmpIf(t) | Insn::JmpIfNot(t) => {
                pop!(VType::I64);
                next.push((t as usize, s.clone()));
            }
            Insn::Call(idx) => {
                let callee = &module.functions[idx as usize].sig;
                for p in callee.params.iter().rev() {
                    pop!(*p);
                }
                if let Some(r) = callee.ret {
                    push!(r);
                }
            }
            Insn::HostCall(idx) => {
                let sig = &module.imports[idx as usize].sig;
                for p in sig.params.iter().rev() {
                    pop!(*p);
                }
                if let Some(r) = sig.ret {
                    push!(r);
                }
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
                fallthrough = false;
            }
            Insn::NewArr => {
                pop!(VType::I64);
                push!(VType::Bytes);
            }
            Insn::ALoad => {
                pop!(VType::I64);
                pop!(VType::Bytes);
                push!(VType::I64);
            }
            Insn::AStore => {
                pop!(VType::I64); // value
                pop!(VType::I64); // index
                pop!(VType::Bytes); // ref
            }
            Insn::ALen => {
                pop!(VType::Bytes);
                push!(VType::I64);
            }
            Insn::Trap(_) => {
                fallthrough = false;
            }
        }

        if fallthrough {
            if pc + 1 >= f.code.len() {
                return Err(err(&f.name, pc, "control falls off the end of the code"));
            }
            next.push((pc + 1, s));
        }
        worklist.extend(next);
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::FuncSig;

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
}
