//! Overload acceptance test (jaguar-guard): drive a server at 4x its
//! admission capacity with `jaguar_bench::run_load` — the same storm the
//! `loadtest` binary runs — at smoke size, and assert its acceptance gate
//! end to end: zero panics or non-busy errors, completed work, sheds
//! bounded by the admission window, an exercised admission gate, a control
//! plane that answered every probe, and a post-load engine that runs the
//! sandboxed UDF immediately.

use jaguar_bench::{run_load, LoadConfig};

#[test]
fn overload_at_4x_capacity_degrades_gracefully() {
    let cfg = LoadConfig::smoke();
    assert!(cfg.overload_factor() >= 4.0);
    let report = run_load(&cfg).expect("no session thread may panic under load");
    assert_eq!(
        report.statements_ok + report.busy_sheds + report.other_errors,
        report.statements_attempted
    );
    assert!(report.acceptable(), "{report:#?}");
}
