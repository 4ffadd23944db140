//! # kfi-core — experiment orchestration and statistics
//!
//! The facade tying the reproduction together: build the kernel +
//! workloads, profile them (Kernprof-equivalent), select the top
//! functions covering 95% of kernel activity, plan and execute the
//! three fault-injection campaigns in parallel, and aggregate the
//! statistics behind every table and figure of the paper.
//!
//! # Examples
//!
//! Run a miniature campaign and read the aggregated metrics (results
//! are bit-identical for any `threads` value and a fixed `seed`):
//!
//! ```
//! use kfi_core::{Experiment, ExperimentConfig};
//! use kfi_injector::Campaign;
//! use kfi_profiler::ProfilerConfig;
//!
//! let exp = Experiment::prepare(ExperimentConfig {
//!     seed: 7,
//!     max_per_function: Some(1), // one injection per target function
//!     threads: 2,
//!     profiler: ProfilerConfig { period: 997 },
//!     ..Default::default()
//! })?;
//! let result = exp.run_campaign(Campaign::A);
//!
//! assert_eq!(result.metrics.runs, result.records.len() as u64);
//! for rec in &result.records {
//!     println!("{:#010x} -> {}", rec.target.insn_addr, rec.outcome.category());
//! }
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod dist;
pub mod experiment;
pub mod journal;
pub mod matrix;
pub mod setup;
pub mod stats;
pub mod supervisor;

pub use dataset::{metrics_to_csv, to_csv, RecordRow, METRICS_CSV_HEADER};
pub use dist::{
    chunk_size, plan_fingerprint, run_study_dist, run_worker, ChaosAction, ChaosEvent, ChaosPlan,
    DistConfig, DistReport, DistStudy, WorkerConfig,
};
pub use experiment::{
    CampaignResult, Experiment, ExperimentConfig, StudyResult, INJECTED_SUBSYSTEMS,
};
pub use journal::{Journal, JournalEntry};
pub use matrix::{
    matrix_to_csv, plan_cell, run_matrix, CellResult, MatrixCell, MatrixConfig, MatrixResult,
};
pub use setup::{setup_summary, SetupItem};
pub use stats::OutcomeTally;
pub use supervisor::{
    run_plan_supervised, run_study_supervised, JournalFailure, PanicInjection, QuarantineReport,
    SupervisedCampaign, SupervisedStudy, SupervisorConfig, SupervisorReport,
};
