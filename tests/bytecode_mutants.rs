//! Verifier-accepted bytecode that no compiler writes.
//!
//! Any client can upload a module, and `verify` compiles every module it
//! accepts, so the compiled tier faces whatever passes the verifier — not
//! just what `jaguar_lang::codegen` emits. This suite takes real compiled
//! UDFs (the generic UDF and a few JagScript bodies with loops, calls,
//! floats and arrays), changes one thing at a time — an immediate, a jump
//! target, a local index or an opcode — and keeps every mutant that still
//! verifies. For each one:
//!
//! * `verify` does not panic (it faces untrusted input);
//! * the reference interpreter and the compiled tier agree on the value,
//!   the error text and `usage.instructions`, under two fuel budgets;
//! * the share of mutants whose entry function runs compiled does not
//!   drop below the share measured when the suite was written, so a
//!   compiler that quietly stops taking unusual code fails here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use jaguar_common::error::Result;
use jaguar_udf::generic;
use jaguar_vm::{
    Arena, ArgValue, ExecMode, HostEnv, Insn, Interpreter, Module, ResourceLimits, VmValue,
};

/// Share of verifying mutants whose `main` runs compiled, measured on this
/// corpus when the suite was written.
const COMPILED_SHARE_FLOOR: f64 = 1.0;

/// The one host import the corpus declares, `cb(i64) -> i64`.
struct Callback;

impl HostEnv for Callback {
    fn host_call(
        &mut self,
        name: &str,
        args: &[VmValue],
        _arena: &mut Arena,
    ) -> Result<Option<VmValue>> {
        assert_eq!(name, "cb");
        Ok(Some(VmValue::I64(args[0].as_i64()?.wrapping_mul(7) + 1)))
    }
}

/// Loops over an array it allocates, float arithmetic, and a helper call.
const ARRAYS: &str = r#"
fn mix(a: i64, b: i64) -> i64 {
    if a > b { return a - b; } else { return (b ^ a) + 3; }
}

fn main(data: bytes, n: i64) -> i64 {
    let out: bytes = newbytes(n);
    let i: i64 = 0;
    while i < n {
        out[i] = data[i % len(data)] ^ i;
        i = i + 1;
    }
    let acc: i64 = 0;
    let x: f64 = 0.5;
    let j: i64 = n - 1;
    while j >= 0 {
        acc = mix(acc, out[j]) * 3;
        x = x * 1.5 + float(j);
        j = j - 1;
    }
    return acc + int(x);
}
"#;

/// Recursion, short-circuit conditions, and a host callback in a loop.
const CALLS: &str = r#"
import cb(i64) -> i64;

fn fib(k: i64) -> i64 {
    if k < 2 { return k; }
    return fib(k - 1) + fib(k - 2);
}

fn main(data: bytes, n: i64) -> i64 {
    let acc: i64 = fib(n);
    let i: i64 = 0;
    while i < len(data) && i <= n {
        if data[i] != 0 || i == 3 {
            acc = acc + cb(data[i]);
        } else {
            acc = acc - 1;
        }
        i = i + 1;
    }
    return acc;
}
"#;

/// Nested loops with a division and shifts, the pushdown bodies' shape.
const NESTED: &str = r#"
fn main(data: bytes, n: i64) -> i64 {
    let acc: i64 = 1;
    let p: i64 = 0;
    while p < n {
        let q: i64 = 0;
        while q < len(data) {
            acc = (acc << 1) + data[q] / (p + 1);
            q = q + 1;
        }
        acc = acc >> 2;
        p = p + 1;
    }
    return acc % 1000003;
}
"#;

/// The seed modules, each with the arguments its `main` runs on.
fn corpus() -> Vec<(Module, Vec<ArgValue>)> {
    let data = || ArgValue::Bytes((0..12u8).map(|b| b.wrapping_mul(37)).collect());
    let jag = |name: &str, src: &str| jaguar_lang::compile(name, src).unwrap();
    vec![
        (
            generic::generic_module(),
            vec![data(), ArgValue::I64(5), ArgValue::I64(2), ArgValue::I64(2)],
        ),
        (jag("arrays", ARRAYS), vec![data(), ArgValue::I64(6)]),
        (jag("calls", CALLS), vec![data(), ArgValue::I64(6)]),
        (jag("nested", NESTED), vec![data(), ArgValue::I64(3)]),
    ]
}

/// Every opcode without an operand, for opcode replacement.
const BARE: [Insn; 33] = [
    Insn::Pop,
    Insn::Dup,
    Insn::Swap,
    Insn::AddI,
    Insn::SubI,
    Insn::MulI,
    Insn::DivI,
    Insn::RemI,
    Insn::NegI,
    Insn::AddF,
    Insn::SubF,
    Insn::MulF,
    Insn::DivF,
    Insn::NegF,
    Insn::And,
    Insn::Or,
    Insn::Xor,
    Insn::Not,
    Insn::Shl,
    Insn::Shr,
    Insn::I2F,
    Insn::F2I,
    Insn::EqI,
    Insn::LtI,
    Insn::LeI,
    Insn::EqF,
    Insn::LtF,
    Insn::LeF,
    Insn::Ret,
    Insn::NewArr,
    Insn::ALoad,
    Insn::AStore,
    Insn::ALen,
];

/// The one-change replacements for the instruction at `pc`: its
/// immediate, jump target or local index nudged, or its opcode swapped.
fn replacements(pc: usize, insn: Insn) -> Vec<Insn> {
    let nudge = |x: u32| [x.wrapping_add(1), x.wrapping_sub(1), 0];
    let mut out: Vec<Insn> = match insn {
        Insn::ConstI(v) => [v.wrapping_add(1), v.wrapping_neg(), 63, i64::MIN]
            .map(Insn::ConstI)
            .to_vec(),
        Insn::ConstF(v) => [v + 1.0, -v, f64::NAN].map(Insn::ConstF).to_vec(),
        Insn::Trap(c) => vec![Insn::Trap(c.wrapping_add(1))],
        Insn::Load(i) => {
            let mut v = nudge(i.into()).map(|i| Insn::Load(i as u16)).to_vec();
            v.push(Insn::Store(i));
            v
        }
        Insn::Store(i) => {
            let mut v = nudge(i.into()).map(|i| Insn::Store(i as u16)).to_vec();
            v.push(Insn::Load(i));
            v
        }
        Insn::Jmp(t) | Insn::JmpIf(t) | Insn::JmpIfNot(t) => {
            let same = |t: u32| match insn {
                Insn::Jmp(_) => Insn::Jmp(t),
                Insn::JmpIf(_) => Insn::JmpIf(t),
                _ => Insn::JmpIfNot(t),
            };
            let mut v: Vec<Insn> = [
                t.wrapping_add(1),
                t.wrapping_sub(1),
                0,
                pc as u32,
                pc as u32 + 1,
            ]
            .map(same)
            .to_vec();
            v.extend(match insn {
                Insn::Jmp(_) => [Insn::JmpIf(t), Insn::JmpIfNot(t)],
                Insn::JmpIf(_) => [Insn::JmpIfNot(t), Insn::Jmp(t)],
                _ => [Insn::JmpIf(t), Insn::Jmp(t)],
            });
            v
        }
        Insn::Call(i) => vec![
            Insn::Call(i.wrapping_add(1)),
            Insn::Call(i.wrapping_sub(1)),
            Insn::Call(0),
        ],
        Insn::HostCall(i) => vec![Insn::HostCall(i.wrapping_add(1)), Insn::Call(i.into())],
        _ => Vec::new(),
    };
    // Two opcode swaps per instruction, spread over the table by pc.
    out.extend((0..2).map(|k| BARE[(pc * 7 + k * 11 + 3) % BARE.len()]));
    out.retain(|r| !same_insn(*r, insn));
    out
}

/// Bitwise instruction equality (`Insn`'s `PartialEq` says NaN != NaN).
fn same_insn(a: Insn, b: Insn) -> bool {
    match (a, b) {
        (Insn::ConstF(x), Insn::ConstF(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Every one-change mutant of every corpus module, in a fixed order.
fn mutants() -> Vec<(String, Module, Vec<ArgValue>)> {
    let mut out = Vec::new();
    for (seed, args) in corpus() {
        for (fi, f) in seed.functions.iter().enumerate() {
            for (pc, insn) in f.code.iter().enumerate() {
                for r in replacements(pc, *insn) {
                    let mut m = seed.clone();
                    m.functions[fi].code[pc] = r;
                    let what = format!("{}::{} @{pc}: {insn:?} -> {r:?}", seed.name, f.name);
                    out.push((what, m, args.clone()));
                }
            }
        }
    }
    out
}

/// Everything a caller can see of one invocation.
type Outcome = std::result::Result<(Option<VmValue>, u64), String>;

fn run(interp: &Interpreter, args: &[ArgValue]) -> Outcome {
    interp
        .invoke("main", args, &mut Callback)
        .map(|(ret, usage, _)| (ret, usage.instructions))
        .map_err(|e| e.to_string())
}

#[test]
fn verifying_mutants_run_the_same_on_both_engines() {
    let all = mutants();
    let (mut verifying, mut compiled) = (0usize, 0usize);
    // FNV-1a over the indices of the verifying mutants: the accept/reject
    // partition in one number, comparable across verifier changes.
    let mut partition = 0xcbf2_9ce4_8422_2325u64;
    for (index, (what, module, args)) in all.iter().enumerate() {
        let verified = catch_unwind(AssertUnwindSafe(|| module.clone().verify()))
            .unwrap_or_else(|_| panic!("verify panicked on {what}"));
        let Ok(verified) = verified else { continue };
        verifying += 1;
        for byte in (index as u64).to_le_bytes() {
            partition = (partition ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        let vm = Arc::new(verified);
        let main = vm.find_function("main").unwrap();
        for fuel in [37, 3_000] {
            let limits = ResourceLimits::tight(fuel, 1 << 16);
            let baseline = Interpreter::new(Arc::clone(&vm), limits, ExecMode::Baseline);
            let jit = Interpreter::new(Arc::clone(&vm), limits, ExecMode::Jit);
            assert_eq!(
                run(&jit, args),
                run(&baseline, args),
                "mutant {index} ({what}), fuel {fuel}"
            );
            if fuel == 37 && jit.runs_compiled(main) {
                compiled += 1;
            }
        }
    }
    let share = compiled as f64 / verifying as f64;
    println!(
        "{verifying} of {} mutants verify (partition {partition:016x}); {:.3} run compiled",
        all.len(),
        share
    );
    assert!(verifying >= 256, "only {verifying} mutants verify");
    assert!(
        share >= COMPILED_SHARE_FLOOR,
        "compiled share {share:.3} < {COMPILED_SHARE_FLOOR}"
    );
}
