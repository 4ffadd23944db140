//! Observational-equivalence and determinism properties for the SMP
//! machine.
//!
//! Two guarantees carry the whole SMP design: (1) a two-CPU machine is
//! *deterministic* — the interleaving is a pure function of the seed
//! and quantum, never of host scheduling — so campaigns stay exactly
//! reproducible at `cpus > 1`; and (2) a second CPU that is never
//! woken is *invisible* — `cpus = 2` with a parked secondary behaves
//! bit-identically to the uniprocessor, which is the structural form
//! of the promise that golden corpora captured at `cpus = 1` never
//! need re-blessing. These properties sweep seeded two-CPU programs
//! (startup IPIs, interleaved shared-memory stores, reschedule
//! doorbells, in clean and corrupted variants) against both, under
//! single-stepping and under `Machine::run`'s block engine.

use kfi_checker::diff::{
    pair_smp, pair_smp_parked, reference_pass, run_to_reference, ArchState, StateMask, MAX_STEPS,
};
use kfi_checker::gen::{generate, generate_smp, install, Variant};
use kfi_machine::{MachineConfig, StepEvent};
use proptest::prelude::*;

fn variant(idx: usize) -> Variant {
    [Variant::Clean, Variant::PreFlip, Variant::MidRunFlip][idx]
}

/// Steps `cfg`'s machine over `prog` to termination (or [`MAX_STEPS`]),
/// returning the final full-mask state capture plus an FNV-1a fold of
/// the active-CPU schedule — which CPU ran each step, the complete
/// interleaving decision record.
fn run_traced(prog: &kfi_checker::GenProgram, cfg: MachineConfig) -> (ArchState, u64, u64) {
    let mut m = install(prog, cfg);
    let mut schedule: u64 = 0xcbf2_9ce4_8422_2325;
    let mut steps = 0u64;
    loop {
        let ev = m.step();
        steps += 1;
        schedule ^= m.active_cpu() as u64;
        schedule = schedule.wrapping_mul(0x100_0000_01b3);
        if matches!(ev, StepEvent::Halted | StepEvent::TripleFault) || steps >= MAX_STEPS {
            break;
        }
    }
    (ArchState::capture(&m, &StateMask::full()), schedule, steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Identical `(program, quantum, scheduler seed)` triples replay to
    /// the identical run: same interleaving decision at every step,
    /// same per-CPU state, same shared memory, same in-flight IPIs.
    /// This is what makes `cpus = 2` campaigns bit-identical across
    /// host worker counts — the host never enters the schedule.
    #[test]
    fn interleaving_is_a_pure_function_of_seed_and_quantum(
        seed in 0u64..4096,
        vidx in 0usize..3,
        quantum in 1u32..160,
        smp_seed in any::<u64>(),
    ) {
        let prog = generate_smp(seed, variant(vidx));
        let cfg = MachineConfig { smp_quantum: quantum, smp_seed, ..MachineConfig::default() };
        let a = run_traced(&prog, cfg);
        let b = run_traced(&prog, cfg);
        prop_assert_eq!(a.1, b.1, "schedules diverged (seed {})", seed);
        prop_assert_eq!(a.2, b.2, "step counts diverged (seed {})", seed);
        prop_assert_eq!(a.0, b.0, "final state diverged (seed {})", seed);
    }

    /// The full pipeline stays invisible on a two-CPU machine at any
    /// quantum and scheduler seed: shared cached decode over per-CPU
    /// contexts, blocks while one CPU runs alone (with the slice and its
    /// jitter draws settled afterwards), startup IPIs flushing the TLB,
    /// and cross-CPU stores to a shared word must all behave
    /// bit-identically to the bare single-step interpreter.
    #[test]
    fn full_pipeline_is_invisible_under_smp(
        seed in 0u64..4096,
        vidx in 0usize..3,
        quantum in 1u32..160,
        smp_seed in any::<u64>(),
    ) {
        let prog = generate_smp(seed, variant(vidx));
        let cfg = MachineConfig { smp_quantum: quantum, smp_seed, ..MachineConfig::default() };
        let out = pair_smp(&prog, cfg);
        let v = variant(vidx);
        prop_assert!(out.clean(), "seed {} {:?} q {} s {}: {:?}", seed, v, quantum, smp_seed, out);
    }

    /// A never-woken secondary CPU is free: `cpus = 2` runs ordinary
    /// single-CPU programs bit-identically to the uniprocessor — the
    /// checker-level face of the golden-corpus `cpus = 1` guarantee.
    #[test]
    fn parked_secondary_cpu_is_invisible(
        seed in 0u64..4096,
        vidx in 0usize..3,
    ) {
        let prog = generate(seed, variant(vidx));
        let out = pair_smp_parked(&prog, MachineConfig::default());
        prop_assert!(out.clean(), "seed {} {:?}: {:?}", seed, variant(vidx), out);
    }

    /// The same invisibility under `Machine::run`: with the secondary
    /// parked, the bootstrap CPU always runs alone, so the two-CPU
    /// machine executes through the block engine exactly where the
    /// uniprocessor does, and both stop where the single-step reference
    /// did.
    #[test]
    fn parked_secondary_cpu_is_invisible_to_run(
        seed in 0u64..4096,
        vidx in 0usize..3,
    ) {
        let prog = generate(seed, variant(vidx));
        let cfg = MachineConfig::default();
        let r = reference_pass(&prog, cfg);
        let smp = run_to_reference(&prog, MachineConfig { cpus: 2, ..cfg }, &r);
        let up = run_to_reference(&prog, cfg, &r);
        let mask = StateMask { decode_stats: true, smp_digest: false };
        let (s, u) = (ArchState::capture(&smp, &mask), ArchState::capture(&up, &mask));
        prop_assert_eq!(s.diff(&u), Vec::<String>::new(), "seed {} {:?}", seed, variant(vidx));
        let reference = ArchState::capture(&r.machine, &mask);
        prop_assert_eq!(u.diff(&reference), Vec::<String>::new(), "seed {}", seed);
    }
}
