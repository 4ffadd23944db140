//! Observational-equivalence properties across ring transitions.
//!
//! The golden corpora are captured on the chained tier, and every
//! campaign run crosses the user/kernel boundary thousands of times —
//! so the chained block engine must stay bit-identical to
//! single-stepping *across* `int $0x80` and `iret`, not just inside
//! flat kernel code. These properties sweep seeded two-ring programs
//! (clean and corrupted) through the block-engine and ring differential
//! pairs.

use kfi_checker::diff::{pair_block_engine, pair_ring};
use kfi_checker::gen::{generate_ring, Variant};
use kfi_machine::MachineConfig;
use proptest::prelude::*;

fn variant(idx: usize) -> Variant {
    [Variant::Clean, Variant::PreFlip, Variant::MidRunFlip][idx]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chained tier is bit-identical to the single-stepped cached
    /// tier on programs whose hot paths run at ring 3 and repeatedly
    /// transfer through `int $0x80`/`iret` gates (and asynchronous timer
    /// interrupts) — including TLB and decode-cache statistics, which
    /// is what keeps golden corpora byte-identical on the chained tier.
    #[test]
    fn chaining_is_bit_identical_across_ring_transitions(
        seed in 0u64..4096,
        vidx in 0usize..3,
    ) {
        let prog = generate_ring(seed, variant(vidx));
        let out = pair_block_engine(&prog, MachineConfig::default());
        prop_assert!(out.clean(), "seed {} {:?}: {:?}", seed, variant(vidx), out);
    }

    /// The full pipeline agrees with the bare single-step interpreter
    /// end-to-end on two-ring programs: same architectural state, same
    /// trap history, same memory image, same TLB statistics.
    #[test]
    fn full_pipeline_matches_bare_interpreter_across_rings(
        seed in 0u64..4096,
        vidx in 0usize..3,
    ) {
        let prog = generate_ring(seed, variant(vidx));
        let out = pair_ring(&prog, MachineConfig::default());
        prop_assert!(out.clean(), "seed {} {:?}: {:?}", seed, variant(vidx), out);
    }
}
