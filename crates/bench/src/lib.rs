//! # jaguar-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (Section 5) plus the ablations DESIGN.md calls out:
//!
//! | Id | Paper artifact | Function |
//! |---|---|---|
//! | Table 1 | design-space matrix | [`ExperimentCtx::table1`] |
//! | Fig 4 | calibration: table access costs | [`ExperimentCtx::fig4`] |
//! | Fig 5 | calibration: function invocation costs | [`ExperimentCtx::fig5`] |
//! | Fig 6 | pure computation | [`ExperimentCtx::fig6`] |
//! | Fig 7 | data access | [`ExperimentCtx::fig7`] |
//! | Fig 8 | callbacks | [`ExperimentCtx::fig8`] |
//! | A1 | SFI overhead (§4, ≈25 %) | [`ExperimentCtx::ablation_sfi`] |
//! | A2 | interpreter vs compiled tier | [`ExperimentCtx::ablation_jit`] |
//! | A3 | resource-policing overhead (§6.2) | [`ExperimentCtx::ablation_fuel`] |
//!
//! Each returns an [`report::Table`]; the `run_experiments` binary prints
//! them in the paper's layout. [`Scale`] controls workload size: `Paper`
//! is the paper's 10,000-tuple setup; `Quick` shrinks cardinality so the
//! whole suite runs in minutes (the *shape* of the curves is preserved;
//! EXPERIMENTS.md records which scale produced the stored numbers).

pub mod experiments;
pub mod load;
pub mod report;
pub mod workload;

pub use experiments::{def_for, def_noop, Design, ExperimentCtx, Scale};
pub use load::{run_load, LoadConfig, LoadReport};
pub use report::Table;
