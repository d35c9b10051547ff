//! Property-based tests over the core invariants:
//!
//! * the §6.4 value stream is lossless for arbitrary values,
//! * slotted pages and heap files never corrupt under random workloads
//!   (checked against an in-memory model),
//! * the bytecode verifier is *total* on arbitrary input bytes — it
//!   accepts or rejects, never panics (it faces untrusted input),
//! * compiled JagScript agrees with the reference AST evaluator on
//!   randomly generated arithmetic programs (differential testing),
//! * the generic UDF's native and sandboxed implementations agree on
//!   random parameters.

use proptest::prelude::*;

use jaguar_core::{ByteArray, Value};

// ---------------------------------------------------------------------
// value stream
// ---------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        ".{0,64}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..512)
            .prop_map(|v| Value::Bytes(ByteArray::new(v))),
    ]
}

proptest! {
    #[test]
    fn value_stream_roundtrips(v in arb_value()) {
        let bytes = jaguar_common::stream::value_to_vec(&v);
        let back = jaguar_common::stream::value_from_slice(&bytes).unwrap();
        match (&v, &back) {
            // NaN != NaN; compare bit patterns for floats.
            (Value::Float(a), Value::Float(b)) => {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            _ => prop_assert_eq!(&v, &back),
        }
    }

    #[test]
    fn tuple_stream_roundtrips(values in proptest::collection::vec(arb_value(), 0..8)) {
        let nan_free: Vec<Value> = values
            .into_iter()
            .map(|v| match v {
                Value::Float(x) if x.is_nan() => Value::Float(0.0),
                other => other,
            })
            .collect();
        let t = jaguar_common::Tuple::new(nan_free);
        let mut buf = Vec::new();
        jaguar_common::stream::write_tuple(&mut buf, &t).unwrap();
        let back = jaguar_common::stream::read_tuple(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Arbitrary bytes fed to the value decoder must error or decode —
    /// never panic, never allocate absurd amounts.
    #[test]
    fn value_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = jaguar_common::stream::value_from_slice(&bytes);
    }
}

// ---------------------------------------------------------------------
// storage
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(Vec<u8>),
    Delete(usize),
    Get(usize),
}

fn arb_heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        // Mix small records with ones that must spill on 512-byte pages.
        proptest::collection::vec(any::<u8>(), 0..1200).prop_map(HeapOp::Insert),
        (0usize..64).prop_map(HeapOp::Delete),
        (0usize..64).prop_map(HeapOp::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_file_matches_model(ops in proptest::collection::vec(arb_heap_op(), 1..60)) {
        use std::sync::Arc;
        let disk = Arc::new(jaguar_storage::DiskManager::in_memory(512));
        let pool = Arc::new(jaguar_storage::BufferPool::new(disk, 32));
        let heap = Arc::new(jaguar_storage::HeapFile::create(pool).unwrap());

        let mut live: Vec<(jaguar_common::ids::RecordId, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Insert(data) => {
                    let rid = heap.insert(&data).unwrap();
                    live.push((rid, data));
                }
                HeapOp::Delete(i) => {
                    if !live.is_empty() {
                        let (rid, _) = live.remove(i % live.len());
                        heap.delete(rid).unwrap();
                    }
                }
                HeapOp::Get(i) => {
                    if !live.is_empty() {
                        let (rid, data) = &live[i % live.len()];
                        prop_assert_eq!(&heap.get(*rid).unwrap(), data);
                    }
                }
            }
        }
        // Full scan returns exactly the live records.
        let mut scanned = heap.scan().unwrap();
        scanned.sort_by_key(|(rid, _)| *rid);
        let mut expected = live.clone();
        expected.sort_by_key(|(rid, _)| *rid);
        prop_assert_eq!(scanned, expected);
    }
}

// ---------------------------------------------------------------------
// verifier totality
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Feeding arbitrary bytes through module decoding + verification must
    /// never panic: this is exactly the untrusted input path a hostile
    /// client controls.
    #[test]
    fn verifier_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(module) = jaguar_vm::Module::from_bytes(&bytes) {
            let _ = module.verify();
        }
    }

    /// Same, but with a valid header so decoding gets further.
    #[test]
    fn verifier_is_total_on_framed_garbage(tail in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut bytes = b"JSM1".to_vec();
        bytes.extend_from_slice(&tail);
        if let Ok(module) = jaguar_vm::Module::from_bytes(&bytes) {
            let _ = module.verify();
        }
    }
}

// ---------------------------------------------------------------------
// SQL front-end totality
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The SQL parser faces raw client input: arbitrary strings must
    /// error cleanly, never panic.
    #[test]
    fn sql_parser_is_total_on_arbitrary_strings(src in ".{0,120}") {
        let _ = jaguar_sql::parser::parse(&src);
    }

    /// SQL-ish token soup (more likely to get deep into the parser).
    #[test]
    fn sql_parser_is_total_on_token_soup(
        words in proptest::collection::vec(
            prop_oneof![
                Just("SELECT".to_string()),
                Just("FROM".to_string()),
                Just("WHERE".to_string()),
                Just("GROUP".to_string()),
                Just("BY".to_string()),
                Just("ORDER".to_string()),
                Just("HAVING".to_string()),
                Just("AND".to_string()),
                Just("NOT".to_string()),
                Just("INSERT".to_string()),
                Just("VALUES".to_string()),
                Just("LIMIT".to_string()),
                Just("*".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(",".to_string()),
                Just("=".to_string()),
                Just("<".to_string()),
                Just("+".to_string()),
                Just("X'00'".to_string()),
                Just("'str'".to_string()),
                Just("1".to_string()),
                Just("2.5".to_string()),
                Just("t".to_string()),
                Just("col".to_string()),
                Just("f".to_string()),
            ],
            0..24,
        )
    ) {
        let src = words.join(" ");
        let _ = jaguar_sql::parser::parse(&src);
    }

    /// JagScript's compiler faces untrusted source too.
    #[test]
    fn jagscript_compiler_is_total_on_arbitrary_strings(src in ".{0,120}") {
        let _ = jaguar_lang::compile("fuzz", &src);
    }
}

// ---------------------------------------------------------------------
// JagScript differential testing
// ---------------------------------------------------------------------

/// A generated integer expression over variables `a` and `b`.
#[derive(Debug, Clone)]
enum GenExpr {
    A,
    B,
    Lit(i32),
    Add(Box<GenExpr>, Box<GenExpr>),
    Sub(Box<GenExpr>, Box<GenExpr>),
    Mul(Box<GenExpr>, Box<GenExpr>),
    Div(Box<GenExpr>, Box<GenExpr>),
    Rem(Box<GenExpr>, Box<GenExpr>),
    And(Box<GenExpr>, Box<GenExpr>),
    Or(Box<GenExpr>, Box<GenExpr>),
    Lt(Box<GenExpr>, Box<GenExpr>),
    Eq(Box<GenExpr>, Box<GenExpr>),
    Neg(Box<GenExpr>),
    Not(Box<GenExpr>),
}

impl GenExpr {
    fn render(&self) -> String {
        match self {
            GenExpr::A => "a".into(),
            GenExpr::B => "b".into(),
            GenExpr::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -(*v as i64))
                } else {
                    v.to_string()
                }
            }
            GenExpr::Add(l, r) => format!("({} + {})", l.render(), r.render()),
            GenExpr::Sub(l, r) => format!("({} - {})", l.render(), r.render()),
            GenExpr::Mul(l, r) => format!("({} * {})", l.render(), r.render()),
            GenExpr::Div(l, r) => format!("({} / {})", l.render(), r.render()),
            GenExpr::Rem(l, r) => format!("({} % {})", l.render(), r.render()),
            GenExpr::And(l, r) => format!("(({} != 0) && ({} != 0))", l.render(), r.render()),
            GenExpr::Or(l, r) => format!("(({} != 0) || ({} != 0))", l.render(), r.render()),
            GenExpr::Lt(l, r) => format!("({} < {})", l.render(), r.render()),
            GenExpr::Eq(l, r) => format!("({} == {})", l.render(), r.render()),
            GenExpr::Neg(e) => format!("(-{})", e.render()),
            GenExpr::Not(e) => format!("(!{})", e.render()),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = GenExpr> {
    let leaf = prop_oneof![
        Just(GenExpr::A),
        Just(GenExpr::B),
        any::<i32>().prop_map(GenExpr::Lit),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| GenExpr::Add(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| GenExpr::Sub(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| GenExpr::Mul(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| GenExpr::Div(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| GenExpr::Rem(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| GenExpr::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| GenExpr::Or(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| GenExpr::Lt(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| GenExpr::Eq(Box::new(l), Box::new(r))),
            inner.clone().prop_map(|e| GenExpr::Neg(Box::new(e))),
            inner.prop_map(|e| GenExpr::Not(Box::new(e))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compile-and-run must agree with the reference evaluator — including
    /// on *which* inputs trap (division by zero).
    #[test]
    fn jagscript_compiler_matches_reference(expr in arb_expr(), a in any::<i32>(), b in any::<i32>()) {
        let src = format!(
            "fn main(a: i64, b: i64) -> i64 {{ return {}; }}",
            expr.render()
        );
        let (a, b) = (a as i64, b as i64);

        // Reference path.
        let prog = jaguar_lang::parser::parse(jaguar_lang::lexer::lex(&src).unwrap()).unwrap();
        let ref_out = jaguar_lang::evalref::run(
            &prog,
            "main",
            vec![
                jaguar_lang::evalref::RValue::I64(a),
                jaguar_lang::evalref::RValue::I64(b),
            ],
            10_000_000,
        );

        // Compiled path.
        let module = jaguar_lang::compile("p", &src).unwrap();
        let vm = std::sync::Arc::new(module.verify().unwrap());
        let interp = jaguar_vm::Interpreter::new(
            vm,
            jaguar_vm::ResourceLimits::default(),
            jaguar_vm::ExecMode::Jit,
        );
        let vm_out = interp.invoke(
            "main",
            &[jaguar_vm::ArgValue::I64(a), jaguar_vm::ArgValue::I64(b)],
            &mut jaguar_vm::NoHost,
        );

        match (ref_out, vm_out) {
            (Ok(Some(jaguar_lang::evalref::RValue::I64(x))), Ok((Some(v), _, _))) => {
                prop_assert_eq!(x, v.as_i64().unwrap(), "src: {}", src);
            }
            (Err(_), Err(_)) => {} // both trap (division by zero)
            (r, v) => prop_assert!(false, "divergence on {}: ref={:?} vm={:?}", src, r, v.is_ok()),
        }

        // Baseline mode must agree with JIT mode too.
        let module2 = jaguar_lang::compile("p", &src).unwrap();
        let vm2 = std::sync::Arc::new(module2.verify().unwrap());
        let interp2 = jaguar_vm::Interpreter::new(
            vm2,
            jaguar_vm::ResourceLimits::default(),
            jaguar_vm::ExecMode::Baseline,
        );
        let base_out = interp2.invoke(
            "main",
            &[jaguar_vm::ArgValue::I64(a), jaguar_vm::ArgValue::I64(b)],
            &mut jaguar_vm::NoHost,
        );
        match (
            interp.invoke(
                "main",
                &[jaguar_vm::ArgValue::I64(a), jaguar_vm::ArgValue::I64(b)],
                &mut jaguar_vm::NoHost,
            ),
            base_out,
        ) {
            (Ok((Some(x), _, _)), Ok((Some(y), _, _))) => {
                prop_assert_eq!(x.as_i64().unwrap(), y.as_i64().unwrap());
            }
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "jit/baseline divergence on {}: {:?} vs {:?}", src, x.is_ok(), y.is_ok()),
        }
    }
}

// ---------------------------------------------------------------------
// tiered execution differential testing
// ---------------------------------------------------------------------

/// Run a generated program under one execution configuration and return
/// the observable outcome: `Ok((result, instructions))` or the exact
/// error text. Everything the engine can see of an invocation.
fn observe(
    vm: &std::sync::Arc<jaguar_vm::VerifiedModule>,
    limits: jaguar_vm::ResourceLimits,
    mode: jaguar_vm::ExecMode,
    tier_up_after: Option<u64>,
    cancelled: bool,
    a: i64,
    b: i64,
) -> std::result::Result<(Option<i64>, u64), String> {
    let mut interp = jaguar_vm::Interpreter::new(std::sync::Arc::clone(vm), limits, mode)
        .with_tier_up(tier_up_after);
    if cancelled {
        let token = jaguar_common::cancel::CancelToken::unbounded();
        token.cancel();
        interp.set_cancel(token);
    }
    match interp.invoke(
        "main",
        &[jaguar_vm::ArgValue::I64(a), jaguar_vm::ArgValue::I64(b)],
        &mut jaguar_vm::NoHost,
    ) {
        Ok((v, usage, _)) => Ok((v.map(|v| v.as_i64().unwrap()), usage.instructions)),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled register tier must be *observationally identical* to
    /// both interpreter modes: same results, same fuel accounting
    /// (`usage.instructions`, including the exact instruction count at
    /// which a tight fuel budget exhausts), same error text, and the
    /// same response to a pre-cancelled statement token.
    #[test]
    fn compiled_tier_matches_interpreters(
        expr in arb_expr(),
        a in any::<i32>(),
        b in any::<i32>(),
        fuel in prop_oneof![Just(None), (1u64..200).prop_map(Some)],
        cancelled in any::<bool>(),
    ) {
        let src = format!(
            "fn main(a: i64, b: i64) -> i64 {{ return {}; }}",
            expr.render()
        );
        let module = jaguar_lang::compile("p", &src).unwrap();
        let vm = std::sync::Arc::new(module.verify().unwrap());
        let limits = jaguar_vm::ResourceLimits {
            fuel,
            ..jaguar_vm::ResourceLimits::default()
        };
        let (a, b) = (a as i64, b as i64);

        let baseline = observe(&vm, limits, jaguar_vm::ExecMode::Baseline, None, cancelled, a, b);
        let jit = observe(&vm, limits, jaguar_vm::ExecMode::Jit, None, cancelled, a, b);
        // Tier-up after 0 calls: the invocation below runs compiled
        // (or falls back — either way it must match Baseline exactly).
        let tiered = observe(&vm, limits, jaguar_vm::ExecMode::Jit, Some(0), cancelled, a, b);

        prop_assert_eq!(&jit, &baseline, "jit vs baseline diverged on {}", src);
        prop_assert_eq!(&tiered, &baseline, "compiled tier diverged on {}", src);
    }
}

// ---------------------------------------------------------------------
// counted loops through the compiled tier
// ---------------------------------------------------------------------

const LOOP_OPS: [&str; 8] = ["+", "-", "*", "&", "|", "^", "<<", ">>"];

fn arb_loop_op() -> impl Strategy<Value = &'static str> {
    (0usize..LOOP_OPS.len()).prop_map(|i| LOOP_OPS[i])
}

/// A right operand: the induction variable, an invariant, a literal.
fn arb_loop_operand() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("i".to_string()),
        Just("k".to_string()),
        (-3i64..40).prop_map(|c| format!("({c})")),
    ]
}

/// A recurrence the compiled tier runs as a kernel, operands either way
/// round, through one op or two.
fn arb_kernel_stmt() -> impl Strategy<Value = String> {
    let (op, x) = (arb_loop_op, arb_loop_operand);
    prop_oneof![
        op().prop_map(|o| format!("acc = acc {o} data[i];")),
        op().prop_map(|o| format!("acc = data[i] {o} acc;")),
        (op(), x()).prop_map(|(o, x)| format!("acc = acc {o} {x};")),
        (op(), x(), op(), x()).prop_map(|(o1, x, o2, y)| format!("acc = (acc {o1} {x}) {o2} {y};")),
        (op(), x(), op(), x()).prop_map(|(o1, x, o2, y)| format!("acc = {y} {o2} ({x} {o1} acc);")),
        (op(), x(), op())
            .prop_map(|(o1, x, o2)| format!("t = acc {o1} {x}; acc = t {o2} data[i];")),
    ]
}

/// One statement of a loop body: mostly kernels; otherwise what takes a
/// loop off the kernel or off array hoisting (stores, a second array, an
/// index that is not the induction variable, a float op, an array
/// register the body reassigns) or off the counted path altogether (a
/// branch, a division, `len`, a body that writes its own bound or
/// induction variable).
fn arb_loop_stmt() -> impl Strategy<Value = String> {
    let fixed =
        |stmts: &'static [&'static str]| (0..stmts.len()).prop_map(|i| stmts[i].to_string());
    let unhoisted = || {
        fixed(&[
            "data[i] = acc;",
            "out[i] = data[i] + 1;",
            "acc = acc + data[i + 1];",
            "f = f * 1.5 + float(i);",
            "data = out;",
        ])
    };
    let uncounted = fixed(&[
        "acc = acc + len(data);",
        "if acc > 100 { acc = acc - 7; }",
        "acc = acc / k;",
        "n = n - 1;",
        "i = i + 1;",
    ]);
    prop_oneof![
        arb_kernel_stmt(),
        arb_kernel_stmt(),
        arb_kernel_stmt(),
        unhoisted(),
        unhoisted(),
        uncounted,
    ]
}

/// `while <cond> { <body> i = i <step>; }`, optionally re-entered by an
/// outer loop, then every observable folded into the result.
fn loop_program(cond: &str, step: &str, body: &[String], nested: bool) -> String {
    let inner = format!("while {cond} {{ {} i = i {step}; }}", body.join(" "));
    let loops = if nested {
        format!("let p: i64 = 0; while p < 2 {{ i = start + p; {inner} p = p + 1; }}")
    } else {
        inner
    };
    format!(
        "fn main(data: bytes, start: i64, bound: i64, k: i64) -> i64 {{
            let out: bytes = newbytes(12);
            let acc: i64 = 1; let t: i64 = 0; let f: f64 = 0.5;
            let n: i64 = bound; let i: i64 = start;
            {loops}
            let q: i64 = 0;
            while q < len(data) {{ acc = acc * 3 + data[q]; q = q + 1; }}
            q = 0;
            while q < len(out) {{ acc = acc * 5 + out[q]; q = q + 1; }}
            return acc + i * 7 + n + t + int(f);
        }}"
    )
}

type LoopOutcome = std::result::Result<(Option<i64>, u64), String>;

/// One run of a loop program: `Ok((result, instructions))` or the error text.
fn observe_loop(
    vm: &std::sync::Arc<jaguar_vm::VerifiedModule>,
    fuel: u64,
    (mode, tier_up_after): (jaguar_vm::ExecMode, Option<u64>),
    cancelled: bool,
    (data, start, bound, k): (&[u8], i64, i64, i64),
) -> LoopOutcome {
    use jaguar_vm::ArgValue;
    let limits = jaguar_vm::ResourceLimits {
        fuel: Some(fuel),
        ..jaguar_vm::ResourceLimits::default()
    };
    let mut interp = jaguar_vm::Interpreter::new(std::sync::Arc::clone(vm), limits, mode)
        .with_tier_up(tier_up_after);
    if cancelled {
        let token = jaguar_common::cancel::CancelToken::unbounded();
        token.cancel();
        interp.set_cancel(token);
    }
    let args = [
        ArgValue::Bytes(data.to_vec()),
        ArgValue::I64(start),
        ArgValue::I64(bound),
        ArgValue::I64(k),
    ];
    match interp.invoke("main", &args, &mut jaguar_vm::NoHost) {
        Ok((v, usage, _)) => Ok((v.map(|v| v.as_i64().unwrap()), usage.instructions)),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Loops reach the compiled tier's counted-loop path — strips, hoisted
    /// array checks, kernels — and everything it must hand back to the
    /// per-op path, and stay observationally identical to both
    /// interpreters: result, `usage.instructions`, and the error text of a
    /// bounds trap mid-loop (array shorter than, as long as, longer than
    /// the bound; negative start; empty array), of fuel exhaustion at
    /// every budget from 1 to past completion, and of a pre-cancelled
    /// token on a loop long enough to reach a poll.
    #[test]
    fn compiled_tier_matches_interpreters_on_loops(
        body in proptest::collection::vec(arb_loop_stmt(), 1..4),
        up in any::<bool>(),
        cmp in 0usize..4,
        step in prop_oneof![Just(1i64), Just(1), Just(2), Just(3), Just(7)],
        wrong_way in 0u8..6,
        nested in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..24),
        low in -2i64..3,
        high in -3i64..3,
        k in -2i64..5,
        long in 0u8..8,
    ) {
        use jaguar_vm::ExecMode::{Baseline, Jit};
        // Four spellings each of "keep counting up" and "keep counting
        // down". A step the wrong way ends the loop after one trip, or
        // only when its fuel does.
        let cond = if up {
            ["i < n", "i <= n", "n > i", "n >= i"][cmp]
        } else {
            ["n < i", "n <= i", "i > n", "i >= n"][cmp]
        };
        let step = if up == (wrong_way == 0) { format!("- {step}") } else { format!("+ {step}") };
        // The walk covers `low ..= len + high`, from whichever end it
        // starts: inside the array, exactly to its end, or off either end.
        let high = data.len() as i64 + high;
        let (start, bound) = if up { (low, high) } else { (high, low) };
        let src = loop_program(cond, &step, &body, nested);
        let module = jaguar_lang::compile("p", &src).unwrap();
        let vm = std::sync::Arc::new(module.verify().unwrap());
        let tiers = [(Baseline, None), (Jit, None), (Jit, Some(0))];

        // A long loop meets cancel polls: the bound moves ~9,000 trips out.
        let long = long == 0;
        let far = if up { start + 9_000 } else { start - 9_000 };
        let args = (&data[..], start, if long { far } else { bound }, k);
        let reference = observe_loop(&vm, 500_000, tiers[0], false, args);
        let budgets: Vec<u64> = match (&reference, long) {
            (_, true) => vec![500_000, 65_535, 65_536, 65_537, 65_546, 131_072, 131_073],
            (Ok((_, total)), false) if *total <= 400 => (1..=total + 2).collect(),
            (Ok((_, total)), false) => (0..=64).map(|s| 1 + s * (total + 1) / 64).collect(),
            (Err(_), false) => (1..=300).chain([500_000]).collect(),
        };
        for fuel in budgets {
            for cancelled in [false, true] {
                if cancelled && !long {
                    continue;
                }
                let expect = observe_loop(&vm, fuel, tiers[0], cancelled, args);
                for tier in &tiers[1..] {
                    let got = observe_loop(&vm, fuel, *tier, cancelled, args);
                    prop_assert_eq!(
                        &got, &expect,
                        "{:?} diverged at fuel {} cancelled {} args {:?} on {}",
                        tier, fuel, cancelled, args, src
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// generic UDF: native vs sandboxed
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generic_udf_native_and_vm_agree(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        indep in 0i64..300,
        dep in 0i64..4,
        callbacks in 0i64..5,
    ) {
        use jaguar_udf::generic::{def_native, def_vm, GenericParams, IdentityCallbacks};
        let params = GenericParams {
            data_indep_comps: indep,
            data_dep_comps: dep,
            callbacks,
        };
        let args = params.args(ByteArray::new(bytes));
        let mut native = def_native().instantiate().unwrap();
        let mut vm = def_vm(true, jaguar_vm::ResourceLimits::default())
            .instantiate()
            .unwrap();
        let n = native.invoke(&args, &mut IdentityCallbacks).unwrap();
        let v = vm.invoke(&args, &mut IdentityCallbacks).unwrap();
        prop_assert_eq!(n, v);
    }
}
