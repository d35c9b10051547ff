//! # jaguar-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (Section 5) plus the ablations DESIGN.md calls out and the extension
//! experiments; [`EXPERIMENTS`] lists them all by id:
//!
//! | Id | Paper artifact | Function |
//! |---|---|---|
//! | `table1` | Table 1: design-space matrix | [`ExperimentCtx::table1`] |
//! | `fig4` | Fig 4: calibration, table access costs | [`ExperimentCtx::fig4`] |
//! | `fig5` | Fig 5: calibration, function invocation costs | [`ExperimentCtx::fig5`] |
//! | `fig6` | Fig 6: pure computation | [`ExperimentCtx::fig6`] |
//! | `fig7` | Fig 7: data access | [`ExperimentCtx::fig7`] |
//! | `fig8` | Fig 8: callbacks | [`ExperimentCtx::fig8`] |
//! | `sfi` | A1: SFI overhead (§4, ≈25 %) | [`ExperimentCtx::ablation_sfi`] |
//! | `jit` | A2: interpreter vs compiled tier | [`ExperimentCtx::ablation_jit`] |
//! | `fuel` | A3: resource-policing overhead (§6.2) | [`ExperimentCtx::ablation_fuel`] |
//! | `index` | A4: B+Tree vs sequential scan (§2.2) | [`ExperimentCtx::ablation_index`] |
//!
//! Every timed cell is a [`Series`] of [`REPS`] paired rounds, and each
//! experiment returns a [`Table`] of typed [`Cell`]s, which the
//! `run_experiments` binary prints (plain or `--markdown`) and
//! [`Table::write_json`] writes as `BENCH_<id>.json`. [`Scale::Paper`] is
//! the paper's 10,000-tuple setup and the default; `--quick` selects
//! [`Scale::Quick`], 1,000 tuples, for smoke runs.

pub mod experiments;
pub mod load;
pub mod report;
pub mod workload;

pub use experiments::{def_for, def_noop, Design, ExperimentCtx, Scale, EXPERIMENTS, REPS};
pub use load::{run_load, LoadConfig, LoadReport};
pub use report::{Cell, Series, Table};
