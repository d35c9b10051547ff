//! Criterion benches for the DESIGN.md ablations:
//!
//! * **A1** — SFI-instrumented native vs plain and bounds-checked native
//!   (§4 expects ≈25 % for instrumented memory access),
//! * **A2** — the compiled tier vs the reference interpreter,
//! * **A3** — the cost of per-instruction resource policing (fuel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jaguar_bench::{def_for, Design};
use jaguar_common::ByteArray;
use jaguar_udf::generic::{GenericParams, IdentityCallbacks};

fn bench_sfi(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_sfi");
    group.sample_size(20);
    let data = ByteArray::patterned(10_000, 42);
    let params = GenericParams {
        data_dep_comps: 10,
        ..Default::default()
    };
    let args = params.args(data);
    for design in [Design::Cpp, Design::BcCpp, Design::SfiCpp] {
        let mut udf = def_for(design).instantiate().expect("native instantiates");
        group.bench_with_input(
            BenchmarkId::from_parameter(design.label()),
            &args,
            |b, args| {
                b.iter(|| {
                    udf.invoke(args, &mut IdentityCallbacks)
                        .expect("benchmark invocation")
                })
            },
        );
    }
    group.finish();
}

fn bench_jit(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_jit_mode");
    group.sample_size(20);
    let data = ByteArray::patterned(10_000, 42);
    let params = GenericParams {
        data_indep_comps: 10_000,
        data_dep_comps: 1,
        ..Default::default()
    };
    let args = params.args(data);
    for design in [Design::Jsm, Design::JsmBaseline] {
        let mut udf = def_for(design).instantiate().expect("vm instantiates");
        group.bench_with_input(
            BenchmarkId::from_parameter(design.label()),
            &args,
            |b, args| {
                b.iter(|| {
                    udf.invoke(args, &mut IdentityCallbacks)
                        .expect("benchmark invocation")
                })
            },
        );
    }
    group.finish();
}

fn bench_fuel(c: &mut Criterion) {
    let mut group = c.benchmark_group("a3_fuel_policing");
    group.sample_size(20);
    let data = ByteArray::patterned(10_000, 42);
    let params = GenericParams {
        data_dep_comps: 1,
        ..Default::default()
    };
    let args = params.args(data);
    for design in [Design::Jsm, Design::JsmNoFuel] {
        let mut udf = def_for(design).instantiate().expect("vm instantiates");
        group.bench_with_input(
            BenchmarkId::from_parameter(design.label()),
            &args,
            |b, args| {
                b.iter(|| {
                    udf.invoke(args, &mut IdentityCallbacks)
                        .expect("benchmark invocation")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sfi, bench_jit, bench_fuel);
criterion_main!(benches);
