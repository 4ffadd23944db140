//! # kfi-checker — differential fuzzing + sanitizer harness
//!
//! The workspace's correctness depends on several "must be invisible"
//! mechanisms: the decoded-instruction cache, the dirty-page snapshot
//! restore, the trace sinks, and multi-worker campaign scheduling. Each
//! has targeted equivalence tests, but those only cover the programs
//! someone thought to write. This crate closes the gap with:
//!
//! * a **seeded random program generator** ([`gen`]) over the
//!   [`kfi_isa`] subset, emitting valid *and* bit-flipped instruction
//!   streams (the same corruption model the injector uses) — including
//!   a **two-ring variant** ([`gen::generate_ring`]) whose programs run
//!   at ring 3 under paging and cross into ring 0 through a
//!   user-callable `int $0x80` IDT gate and asynchronous timer
//!   interrupts — and a **two-CPU variant** ([`gen::generate_smp`])
//!   whose bootstrap CPU wakes a second CPU with a startup IPI,
//!   interleaves with it under the deterministic round-robin
//!   scheduler, and stops it with a reschedule doorbell;
//! * a **lockstep differential executor** ([`diff`]) running each
//!   program under paired configurations that must agree — the cached
//!   vs the interpreter tier, the chained block engine vs
//!   single-stepping, ring/null trace sink, snapshot-restore vs fresh boot,
//!   shared-snapshot copy-on-write fork vs fresh boot, the full
//!   pipeline vs the bare interpreter across ring transitions
//!   ([`diff::pair_ring`]), the same on a two-CPU machine whose run
//!   loop mixes blocks and scheduler steps ([`diff::pair_smp`]), a
//!   two-CPU machine with a never-woken
//!   secondary vs the plain uniprocessor ([`diff::pair_smp_parked`]) —
//!   and, at the campaign level, 1 vs N workers — comparing the full
//!   architectural state (every CPU's, via
//!   [`Machine::smp_digest`](kfi_machine::Machine::smp_digest)) and
//!   reporting the first divergence with disassembly context;
//! * the machine's per-step **architectural-state sanitizer**
//!   ([`kfi_machine::sanitizer`], opt-in via
//!   [`MachineConfig::sanitizer`](kfi_machine::MachineConfig) and
//!   enabled on the checker's sweep machines — campaigns opt in
//!   through `RigConfig::sanitizer` instead), which validates per-step
//!   invariants no differential pair can see (canonical EFLAGS,
//!   monotonic TSC, CR2-iff-#PF, decode-cache coherence, MMU walk
//!   idempotence). The pairs that drive the chained tier through
//!   [`Machine::run`](kfi_machine::Machine::run) run that side
//!   *without* it: `run` falls back to single-stepping under the
//!   sanitizer, which would make those comparisons vacuous.
//!
//! The `check_machine` binary drives a bounded deterministic seed sweep
//! suitable for CI, plus three self-tests that seed known bugs behind
//! test-only [`MachineConfig`](kfi_machine::MachineConfig) hooks — a
//! broken ALU flag writer the sanitizer must catch, a skipped
//! TSS.esp0 stack switch the ring-transition lockstep must catch, and
//! a dropped reschedule IPI the SMP lockstep must catch — proof the
//! net has no hole where it matters.
//!
//! # Examples
//!
//! ```
//! use kfi_checker::gen::{generate, Variant};
//! use kfi_checker::diff::pair_decode_cache;
//! use kfi_machine::MachineConfig;
//!
//! let prog = generate(42, Variant::Clean);
//! let cfg = MachineConfig { sanitizer: true, ..MachineConfig::default() };
//! let out = pair_decode_cache(&prog, cfg);
//! assert!(out.clean(), "{out:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod gen;

pub use diff::{
    pair_block_engine, pair_decode_cache, pair_fork, pair_restore, pair_ring, pair_smp,
    pair_smp_parked, pair_trace_sink, reference_pass, run_lockstep, run_to_reference, ArchState,
    Divergence, PairOutcome, Reference, StateMask,
};
pub use gen::{
    generate, generate_ring, generate_smp, install, GenProgram, MidFlip, RingSetup, SmpSetup,
    Variant,
};
