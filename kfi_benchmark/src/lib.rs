//! # kfi-benchmark — end-to-end and per-layer benchmark of the campaigns
//!
//! Four workloads ([`workload::Workload`]) run the fault-injection study
//! the way users run it. The untraced run ([`bench::run_untraced`])
//! reports end-to-end metrics as medians over reps; the traced run
//! ([`bench::run_traced`]) splits the same work by layer with spans
//! recorded around public calls into each crate ([`trace`]). Every run
//! checks its dataset and fails on a missing record, a digest that moves
//! between reps or away from the pinned one, or a traced dataset that
//! differs from the untraced one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod measure;
pub mod trace;
pub mod workload;
