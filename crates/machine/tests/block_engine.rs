//! The chained tier must be observationally invisible next to the
//! single-stepped cached tier: same exit, same architectural state, same
//! console — and, stricter than that, the *same decode-cache and TLB
//! statistics*, because the campaign golden CSV pins those counters and
//! the block engine must not force a re-bless. (The kfi-checker
//! `pair_block_engine` config proves the same property in lockstep over
//! generated kernels; these tests pin the targeted corner cases.)
//!
//! The chain-specific tests at the bottom additionally pin chain
//! accounting, chain breakage under bit flips, and the abort-flag
//! latency bound.

use kfi_isa::Reg;
use kfi_machine::{ExecTier, Machine, MachineConfig, RunExit};
use proptest::prelude::*;

use ExecTier::{Cached, Chained};

fn machine(code: &[u8], tier: ExecTier, timer_enabled: bool) -> Machine {
    let mut m = Machine::new(MachineConfig {
        phys_mem: 1 << 20,
        timer_enabled,
        tier,
        ..Default::default()
    });
    m.mem.load(0x1000, code);
    m.cpu.eip = 0x1000;
    m.cpu.set_reg(4, 0x8000);
    m
}

fn assert_identical(on: &mut Machine, off: &mut Machine) {
    assert_eq!(on.cpu.tsc, off.cpu.tsc);
    assert_eq!(on.snapshot(), off.snapshot());
    assert_eq!(on.counters(), off.counters());
    assert_eq!(on.decode_stats(), off.decode_stats(), "decode stats are golden-pinned");
    assert_eq!(on.tlb_stats(), off.tlb_stats(), "TLB stats are golden-pinned");
    assert_eq!(on.console(), off.console());
}

// 4096 iterations: enough that the chained engine's capped traces
// (which record *through* the back-edge, unrolling the loop) wrap
// around and replay — a short loop would fit entirely inside a few
// once-executed traces and never exercise the replay path.
const LOOP_PROGRAM: &[u8] = &[
    0xb9, 0x00, 0x10, 0x00, 0x00, // mov ecx, 4096
    0x43, // loop: inc ebx
    0x43, // inc ebx
    0x49, // dec ecx
    0x75, 0xfc, // jnz loop
    0xfa, 0xf4, // cli; hlt
];

#[test]
fn loop_is_identical_and_blocks_hit() {
    let mut on = machine(LOOP_PROGRAM, Chained, false);
    let mut off = machine(LOOP_PROGRAM, Cached, false);
    assert_eq!(on.run(100_000), RunExit::Halted);
    assert_eq!(off.run(100_000), RunExit::Halted);
    assert_identical(&mut on, &mut off);
    let (hits, misses, _) = on.block_stats();
    assert!(hits >= 60, "the hot loop should replay cached traces, got {hits}");
    assert!(misses >= 1, "the first pass records the trace");
    assert_eq!(off.block_stats(), (0, 0, 0), "the cached tier counts no blocks");
}

#[test]
fn self_modifying_code_is_identical_with_blocks() {
    // Same shape as the decode-cache SMC test: pass 1 executes
    // `inc ebx` then overwrites that slot with `inc edx`; pass 2 must
    // execute the new byte even though pass 1 recorded a block over it.
    let smc: &[u8] = &[
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
    let mut on = machine(smc, Chained, false);
    let mut off = machine(smc, Cached, false);
    assert_eq!(on.run(10_000), off.run(10_000));
    assert_identical(&mut on, &mut off);
    assert_eq!(on.cpu.get(Reg::Ebx), 1);
    assert_eq!(on.cpu.get(Reg::Edx), 1, "block replay must not execute stale bytes");
}

#[test]
fn breakpoint_inside_a_recorded_block_fires_exactly() {
    // Record a straight-line block, then arm a breakpoint on an
    // instruction in its *middle*; the replay must stop before it, at
    // the same EIP and TSC as single-stepping.
    let code: &[u8] = &[
        0x40, 0x40, 0x40, 0x40, 0x40, 0x40, // 6x inc eax
        0xeb, 0xf8, // jmp .-6 (back to 0x1000)
    ];
    for tier in [Chained, Cached] {
        let mut m = machine(code, tier, false);
        // Let the loop run a few iterations so the block is cached hot.
        m.cpu.arm_breakpoint(0, 0x1003);
        assert_eq!(m.run(100), RunExit::DebugBreak { index: 0 });
        assert_eq!(m.cpu.eip, 0x1003, "block replay overshot the breakpoint");
        assert_eq!(m.cpu.get(Reg::Eax), 3);
        // Re-arm mid-block after the block already exists.
        m.cpu.arm_breakpoint(1, 0x1004);
        assert_eq!(m.run(1_000), RunExit::DebugBreak { index: 1 });
        assert_eq!(m.cpu.eip, 0x1004);
    }
}

#[test]
fn cycle_limit_lands_on_the_same_boundary() {
    // An odd budget must stop block replay at exactly the instruction
    // boundary single-stepping stops at, not at the block's end.
    for budget in [7u64, 23, 57, 101] {
        let mut on = machine(LOOP_PROGRAM, Chained, false);
        let mut off = machine(LOOP_PROGRAM, Cached, false);
        assert_eq!(on.run(budget), RunExit::CycleLimit);
        assert_eq!(off.run(budget), RunExit::CycleLimit);
        assert_identical(&mut on, &mut off);
    }
}

#[test]
fn timer_delivery_is_identical_across_blocks() {
    // With the timer on (and no IDT -> triple fault on first delivery),
    // both modes must reach the identical trap cascade at the identical
    // TSC: mid-block limits may not defer a due tick.
    let mut on = machine(LOOP_PROGRAM, Chained, true);
    let mut off = machine(LOOP_PROGRAM, Cached, true);
    // sti so the tick actually delivers (through a broken IDT).
    on.cpu.eflags.set_if(true);
    off.cpu.eflags.set_if(true);
    let e_on = on.run(200_000);
    let e_off = off.run(200_000);
    assert_eq!(e_on, e_off);
    assert_identical(&mut on, &mut off);
}

#[test]
fn restore_flushes_block_warmth() {
    let mut m = machine(LOOP_PROGRAM, Chained, false);
    let snap = m.snapshot();
    assert_eq!(m.run(100_000), RunExit::Halted);
    let (_, misses1, _) = m.block_stats();
    let end1 = m.snapshot();
    m.restore(&snap);
    assert_eq!(m.block_stats(), (0, 0, 0), "restore zeroes the block statistics");
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.snapshot(), end1);
    // Run 2 re-records every block (same miss count as run 1): carrying
    // warmth across restores would make per-run stats schedule-dependent.
    assert_eq!(m.block_stats().1, misses1, "restore must flush cached blocks");
}

#[test]
fn chaining_links_and_follows_on_a_hot_loop() {
    let mut on = machine(LOOP_PROGRAM, Chained, false);
    let mut off = machine(LOOP_PROGRAM, Cached, false);
    assert_eq!(on.run(100_000), RunExit::Halted);
    assert_eq!(off.run(100_000), RunExit::Halted);
    assert_identical(&mut on, &mut off);
    let (links, follows, _) = on.chain_stats();
    assert!(links >= 1, "the loop back-edge must install a chain link, got {links}");
    assert!(follows >= 50, "the hot back-edge should be followed, got {follows}");
    assert_eq!(off.chain_stats(), (0, 0, 0), "the cached tier chains nothing");
}

#[test]
fn flip_into_chained_code_breaks_the_chain() {
    // A chain break is only observable when a *fully valid* source
    // trace traverses a standing link to a dead successor, so the loop
    // body is sized to exactly one trace: 128 page-one instructions
    // ending in `jmp 0x2000` (the trace cap splits recording right at
    // the cross-page edge), with a 3-instruction tail on page two
    // jumping back. The warm phase records the page-one body as one
    // trace whose link points at the page-two head; flipping a byte on
    // page two then kills the successor while the source stays valid,
    // and re-entering at the source head must sever the link — not
    // replay stale bytes.
    let mut page1 = vec![
        0xb9, 0x00, 0x04, 0x00, 0x00, // 0x1000: mov ecx, 1024
        0x49, // 0x1005: dec ecx (loop head)
        0x0f, 0x84, 0x82, 0x00, 0x00, 0x00, // 0x1006: jz 0x108e (exit)
    ];
    page1.extend(std::iter::repeat(0x90).take(125)); // 0x100c..0x1089: nops
    page1.extend([0xe9, 0x72, 0x0f, 0x00, 0x00]); // 0x1089: jmp 0x2000
    page1.extend([0xfa, 0xf4]); // 0x108e: cli; hlt
    let page2: &[u8] = &[
        0x43, // 0x2000: inc ebx
        0x90, // 0x2001: nop
        0xe9, 0xfe, 0xef, 0xff, 0xff, // 0x2002: jmp 0x1005
    ];
    let mut m = machine(&page1, Chained, false);
    m.mem.load(0x2000, page2);
    // 131 instructions per iteration and a 128-instruction cap are
    // coprime, so trace heads rotate through every phase; warm long
    // enough for the phase cycle to wrap twice so the loop-head trace
    // exists and its cross-page link has been recorded and followed.
    assert_eq!(m.run(60_000), RunExit::CycleLimit);
    let (links_warm, follows_warm, breaks_0) = m.chain_stats();
    assert!(links_warm > 0 && follows_warm > 0, "chain must be warm before the flip");
    assert_eq!(breaks_0, 0);
    // Kill page two (nop -> inc eax bumps the page generation), then
    // force the next dispatch to enter at the loop-head trace, whose
    // instructions all live on the untouched page one.
    m.mem.write_u8(0x2001, 0x40);
    m.cpu.eip = 0x1005;
    m.cpu.set_reg(1, 2); // ecx: one more full iteration, then exit
    assert_eq!(m.run(10_000), RunExit::Halted);
    let (_, _, breaks) = m.chain_stats();
    assert!(breaks >= 1, "the flip must sever at least one chain link, got {breaks}");
}

#[test]
fn abort_flag_set_mid_run_reaps_a_chained_self_loop() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    // jmp .-0: the block chains to itself, so the run only ever
    // returns because the chain-step quantum keeps the abort poll
    // cadence bounded. A flag set *while* the machine spins
    // must still end the run — the supervisor's wall-clock watchdog
    // depends on it.
    let mut m = machine(&[0xeb, 0xfe], Chained, false);
    let flag = Arc::new(AtomicBool::new(false));
    m.set_abort_flag(Some(flag.clone()));
    let setter = {
        let flag = flag.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            flag.store(true, Ordering::Relaxed);
        })
    };
    // Returns only via the abort flag; a regression that lets a chain
    // segment run unbounded would hang here (and trip the test timeout).
    assert_eq!(m.run(u64::MAX / 2), RunExit::CycleLimit);
    setter.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bit flip landing mid-run — possibly inside already-chained hot
    /// code — must leave execution bit-identical to single-stepping:
    /// chained replay re-validates blocks on every followed edge, so a
    /// dead successor breaks the chain instead of replaying stale bytes.
    #[test]
    fn midrun_flip_into_chained_code_converges_with_single_step(
        byte_off in 0usize..12,
        bit in 0u32..8,
        pause in 20u64..400,
    ) {
        let mut on = machine(LOOP_PROGRAM, Chained, false);
        let mut off = machine(LOOP_PROGRAM, Cached, false);
        // Warm the chain, stopping both at the same boundary.
        prop_assert_eq!(on.run(pause), off.run(pause));
        prop_assert_eq!(on.cpu.tsc, off.cpu.tsc);
        // Flip the same bit in both guests' code.
        let addr = 0x1000 + byte_off as u32;
        let v = on.mem.read_u8(addr) ^ (1 << bit);
        on.mem.write_u8(addr, v);
        off.mem.write_u8(addr, v);
        prop_assert_eq!(on.run(100_000), off.run(100_000));
        prop_assert_eq!(on.cpu.tsc, off.cpu.tsc);
        prop_assert_eq!(on.snapshot(), off.snapshot());
        prop_assert_eq!(on.counters(), off.counters());
        prop_assert_eq!(on.decode_stats(), off.decode_stats());
        prop_assert_eq!(on.tlb_stats(), off.tlb_stats());
        prop_assert_eq!(on.console(), off.console());
    }

    /// Random byte soup runs bit-identically block-at-a-time vs
    /// single-stepped — including the golden-pinned decode and TLB
    /// statistics — with the timer enabled and interrupts on.
    #[test]
    fn block_engine_is_observationally_identical(
        code in proptest::collection::vec(any::<u8>(), 1..512),
        timer in any::<bool>(),
    ) {
        let mut on = machine(&code, Chained, timer);
        let mut off = machine(&code, Cached, timer);
        on.cpu.eflags.set_if(true);
        off.cpu.eflags.set_if(true);
        let exit_on = on.run(200_000);
        let exit_off = off.run(200_000);
        prop_assert_eq!(exit_on, exit_off);
        prop_assert_eq!(on.cpu.tsc, off.cpu.tsc);
        prop_assert_eq!(on.snapshot(), off.snapshot());
        prop_assert_eq!(on.counters(), off.counters());
        prop_assert_eq!(on.decode_stats(), off.decode_stats());
        prop_assert_eq!(on.tlb_stats(), off.tlb_stats());
        prop_assert_eq!(on.console(), off.console());
    }
}

#[test]
fn an_armed_breakpoint_changes_no_counter_before_it_fires() {
    // An armed debug register sends every block to the careful replay
    // path; until it fires, that must be invisible, chain counters
    // included. The loop's load hits the code page's direct-mapped TLB
    // slot, so each pass evicts the code translation mid-trace and the
    // hot path hands the rest of the trace to the careful path — where
    // the chained segment ends depends on the quantum both paths debit.
    let prog = kfi_asm::assemble(
        "
        movl $4000, %ecx
    top:
        movl 0x201000, %eax
        incl %ebx
        incl %ebx
        incl %ebx
        incl %ebx
        incl %ebx
        incl %ebx
        incl %ebx
        incl %ebx
        decl %ecx
        jnz top
        cli
        hlt
        ",
        &kfi_asm::AsmOptions { text_base: 0x1000, data_base: None },
    )
    .expect("guest assembles");
    let run = |armed: bool| {
        let mut m = Machine::new(MachineConfig {
            phys_mem: 4 << 20,
            timer_enabled: false,
            ..Default::default()
        });
        m.mem.load(0x1000, &prog.text.bytes);
        // Identity-map the low 4 MiB.
        m.mem.write_u32(0x10000, 0x11000 | 3);
        for i in 0..1024u32 {
            m.mem.write_u32(0x11000 + i * 4, (i << 12) | 3);
        }
        m.cpu.cr3 = 0x10000;
        m.cpu.cr0 |= kfi_machine::CR0_PG;
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(4, 0x8000);
        if armed {
            m.cpu.arm_breakpoint(0, 0x3f_f000); // never reached
        }
        assert_eq!(m.run(10_000_000), RunExit::Halted);
        m
    };
    let (careful, hot) = (run(true), run(false));
    assert_eq!(careful.counters(), hot.counters());
    assert_eq!(careful.tlb_stats(), hot.tlb_stats());
    assert_eq!(careful.decode_stats(), hot.decode_stats());
    assert_eq!(careful.block_stats(), hot.block_stats());
    assert_eq!(careful.chain_stats(), hot.chain_stats(), "(links, follows, breaks)");
    assert!(hot.chain_stats().1 > 0, "the loop chains");
    assert_eq!(careful.cpu.tsc, hot.cpu.tsc);
}
