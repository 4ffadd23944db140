//! # kfi-injector — the Linux Kernel Error Injector
//!
//! The reproduction of the paper's primary artifact: a fault/error
//! injector that
//!
//! 1. plans single-bit corruptions of the instruction stream of selected
//!    kernel functions (campaigns A/B/C of Table 4),
//! 2. triggers each injection with a one-shot debug-register breakpoint
//!    exactly when the target instruction is reached (as the paper's
//!    injector does via DR0-DR3),
//! 3. lets the corrupted system run under the benchmark workload, and
//! 4. classifies the outcome (Table 3: not activated / not manifested /
//!    fail silence violation / crash / hang), measuring crash latency in
//!    cycles, crash cause, error propagation between subsystems, and
//!    crash severity via fsck + a reboot attempt.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod outcome;
mod rig;
mod target;
pub mod wire;

pub use outcome::{CrashInfo, FsvKind, Outcome, RunRecord, Severity};
pub use rig::{
    CheckpointStats, CheckpointStore, DiskDelta, GoldenRun, InjectorRig, OnceStore, PowerOnStore,
    RigConfig, RigError, RigShared, SeverityKey, SeverityStats, SeverityStore,
};
pub use target::{
    function_insns, plan_campaign, plan_function, Campaign, InjectionTarget, TargetInsn,
};
