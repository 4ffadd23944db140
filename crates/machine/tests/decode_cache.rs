//! The decoded-instruction cache must be observationally invisible:
//! self-modifying code (the bit-flip injection path in miniature) must
//! execute the *new* bytes, and any guest program must produce the same
//! run with the cache on or off — including across dirty-page-tracked
//! snapshot restores.

use kfi_isa::Reg;
use kfi_machine::{ExecTier, Machine, MachineConfig, RunExit};
use proptest::prelude::*;

use ExecTier::{Chained, Interp};

fn machine(code: &[u8], tier: ExecTier) -> Machine {
    let mut m = Machine::new(MachineConfig {
        phys_mem: 1 << 20,
        timer_enabled: false,
        tier,
        ..Default::default()
    });
    m.mem.load(0x1000, code);
    m.cpu.eip = 0x1000;
    m.cpu.set_reg(4, 0x8000);
    m
}

/// Two passes over one instruction slot: pass 1 executes `inc ebx` and
/// overwrites the slot with `inc edx`; pass 2 must execute the new
/// byte. A stale cache entry would increment ebx twice.
const SMC_PROGRAM: &[u8] = &[
    0xbb, 0x00, 0x00, 0x00, 0x00, // mov ebx, 0
    0xba, 0x00, 0x00, 0x00, 0x00, // mov edx, 0
    0xb9, 0x02, 0x00, 0x00, 0x00, // mov ecx, 2
    // loop (0x100f):
    0x43, // inc ebx  <- overwritten below
    0xc6, 0x05, 0x0f, 0x10, 0x00, 0x00, 0x42, // mov byte [0x100f], 0x42 (inc edx)
    0x49, // dec ecx
    0x75, 0xf5, // jnz loop
    0xf4, // hlt
];

#[test]
fn self_modifying_code_executes_new_bytes() {
    let mut m = machine(SMC_PROGRAM, Chained);
    assert_eq!(m.run(10_000), RunExit::Halted);
    assert_eq!(m.cpu.get(Reg::Ebx), 1, "first pass ran the old instruction");
    assert_eq!(m.cpu.get(Reg::Edx), 1, "second pass must run the rewritten instruction");
    let (hits, misses, invalidations) = m.decode_stats();
    // Invalidation is page-granular and every instruction here shares
    // the written page, so pass 2 re-decodes everything: zero hits, and
    // each re-fetch of a previously cached slot counts an invalidation.
    assert_eq!(hits, 0, "a write must kill every cached entry on its page");
    assert!(misses > 0);
    assert!(invalidations >= 2, "the store into the cached slots' page must kill the entries");
}

#[test]
fn unwritten_code_page_hits_in_the_cache() {
    let code = &[
        0xb9, 0x40, 0x00, 0x00, 0x00, // mov ecx, 64
        0x49, // loop: dec ecx
        0x75, 0xfd, // jnz loop
        0xf4, // hlt
    ];
    let mut m = machine(code, Chained);
    assert_eq!(m.run(10_000), RunExit::Halted);
    let (hits, misses, invalidations) = m.decode_stats();
    assert!(hits > 100, "63 loop iterations re-execute cached instructions, got {hits}");
    assert_eq!(misses, 4, "one decode per distinct instruction");
    assert_eq!(invalidations, 0);
}

#[test]
fn self_modifying_code_is_identical_without_cache() {
    let mut on = machine(SMC_PROGRAM, Chained);
    let mut off = machine(SMC_PROGRAM, Interp);
    assert_eq!(on.run(10_000), off.run(10_000));
    assert_eq!(on.cpu.tsc, off.cpu.tsc);
    assert_eq!(on.snapshot(), off.snapshot());
    assert_eq!(on.counters(), off.counters());
    assert_eq!(off.decode_stats(), (0, 0, 0), "a disabled cache counts nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte soup runs bit-identically with the cache on or off:
    /// same exit, same TSC, same final machine state, same console.
    #[test]
    fn cache_on_and_off_are_observationally_identical(
        code in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let mut on = machine(&code, Chained);
        let exit_on = on.run(200_000);

        let mut off = machine(&code, Interp);
        let exit_off = off.run(200_000);

        prop_assert_eq!(exit_on, exit_off);
        prop_assert_eq!(on.cpu.tsc, off.cpu.tsc);
        prop_assert_eq!(on.snapshot(), off.snapshot());
        prop_assert_eq!(on.counters(), off.counters());
        prop_assert_eq!(on.tlb_stats(), off.tlb_stats());
        prop_assert_eq!(on.console(), off.console());
    }

    /// Dirty-page-tracked restore brings the machine back to the exact
    /// snapshot state, and re-execution from it is deterministic.
    #[test]
    fn dirty_restore_roundtrips_and_reruns_deterministically(
        code in proptest::collection::vec(any::<u8>(), 1..256),
    ) {
        let mut m = machine(&code, Chained);
        let snap = m.snapshot();

        let exit1 = m.run(50_000);
        let end1 = m.snapshot();

        // First restore against this snapshot resets every page and
        // arms the dirty tracking; the machine must equal the snapshot.
        m.restore(&snap);
        prop_assert_eq!(m.snapshot(), snap.clone());

        // Re-run: the dirty-tracked state must reproduce run 1 exactly.
        let exit2 = m.run(50_000);
        prop_assert_eq!(exit1, exit2);
        prop_assert_eq!(m.snapshot(), end1);

        // Second restore takes the dirty-page fast path; still exact.
        m.restore(&snap);
        prop_assert_eq!(m.snapshot(), snap);
    }
}
