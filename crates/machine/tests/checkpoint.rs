//! A checkpoint taken at a tick cut is invisible: installing it and
//! running on ends in exactly the state of a machine that ran from the
//! restore, through the cut, without stopping — architecture, memory,
//! disk, logs, counters and every cache statistic — at 1 and 2 CPUs,
//! whether the checkpoint was captured from the snapshot or from an
//! earlier checkpoint. Every statistic counts from the restore, so each
//! side reads it directly.

use kfi_kernel::layout::events;
use kfi_kernel::{boot, build_kernel, mkfs, set_run_mode, BootConfig, KernelBuildOptions};
use kfi_machine::{
    Checkpoint, Counters, Cpu, DiskImage, Machine, MonitorEvent, Ramdisk, ResetResidue, RunExit,
    Snapshot, StepEvent, TrapRecord,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A booted guest at the point the injector snapshots it: the runner
/// announcing itself.
struct Base {
    machine: Machine,
    snapshot: Snapshot,
    disk: DiskImage,
    /// Per workload mode, the tick cuts its fault-free run passes
    /// before it halts.
    cuts: Vec<u32>,
}

const MODES: u32 = 3;

/// Where the kernel's text sits in physical memory.
const KERNEL_TEXT_PHYS: u32 = 0x10000;

fn base(cpus: u32) -> &'static Base {
    static BASES: [OnceLock<Base>; 2] = [OnceLock::new(), OnceLock::new()];
    BASES[cpus as usize - 1].get_or_init(|| {
        let image = build_kernel(KernelBuildOptions { smp: cpus > 1, ..Default::default() })
            .expect("kernel builds");
        let files = kfi_workloads::suite_files().expect("workloads build");
        let fs = mkfs(2048, &files);
        let mut m = boot(&image, fs.disk, &BootConfig { cpus, ..Default::default() });
        loop {
            assert_eq!(m.step(), StepEvent::Executed, "boot failed: {}", m.console_string());
            if let Some((_, MonitorEvent::Event(events::RUNNER_START))) = m.monitor_events().last()
            {
                break;
            }
        }
        let disk = m.disk.as_ref().expect("disk").snapshot();
        let mut b = Base { snapshot: m.snapshot(), machine: m, disk, cuts: Vec::new() };
        for mode in 0..MODES {
            let mut m = fork(&b);
            restore(&mut m, &b);
            set_run_mode(&mut m, mode);
            let mut cuts = u32::from(m.tick_due());
            while m.run_to_tick(u64::MAX / 4).is_none() {
                cuts += 1;
            }
            b.cuts.push(cuts);
        }
        b
    })
}

/// A machine forked off the base, its disk forked off the post-boot
/// image.
fn fork(b: &Base) -> Machine {
    let mut m = Machine::fork(&b.snapshot, *b.machine.config());
    m.disk = Some(Ramdisk::fork(&b.disk));
    m
}

/// Restores machine and disk, as an injection run's reset does.
fn restore(m: &mut Machine, b: &Base) {
    m.disk.as_mut().expect("disk").restore_from(&b.disk);
    m.restore(&b.snapshot);
}

/// Runs through `cuts` tick cuts: to the state at the `cuts`-th
/// tick-due loop top after the restore (the restore state itself counts
/// when a tick is already due there).
fn run_cuts(m: &mut Machine, mut cuts: u32) {
    if cuts > 0 && m.tick_due() {
        cuts -= 1;
    }
    for _ in 0..cuts {
        assert_eq!(m.run_to_tick(u64::MAX / 4), None, "the guest stopped before the cut");
    }
}

/// The statistics an install carries: TLB and decode. A resumed
/// machine's block and chain statistics count only its own replays.
type Stats = ((u64, u64), (u64, u64, u64));

fn stats(m: &Machine) -> Stats {
    (m.tlb_stats(), m.decode_stats())
}

/// Everything a run can leave behind that anything downstream reads.
#[derive(Debug, PartialEq)]
struct FullState {
    exit: RunExit,
    cpus: Vec<Cpu>,
    mem_digest: u64,
    disk_digest: u64,
    disk_io: (u64, u64),
    console: Vec<u8>,
    monitor: Vec<(u64, MonitorEvent)>,
    trap_log: Vec<TrapRecord>,
    counters: Counters,
    stats: Stats,
    dirty_pages: u32,
    residue: ResetResidue,
    smp_digest: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn full_state(m: &Machine, exit: RunExit) -> FullState {
    let disk = m.disk.as_ref().expect("disk");
    FullState {
        exit,
        cpus: (0..m.cpus() as usize).map(|i| m.cpu_state(i).clone()).collect(),
        mem_digest: m.mem.digest(),
        disk_digest: fnv1a(&disk.bytes()),
        disk_io: disk.io_stats(),
        console: m.console().to_vec(),
        monitor: m.monitor_events().to_vec(),
        trap_log: m.trap_log().to_vec(),
        counters: m.counters(),
        stats: stats(m),
        dirty_pages: m.dirty_page_count(),
        residue: m.reset_residue(),
        smp_digest: m.smp_digest(),
    }
}

/// The reference: restore, run through `k` cuts, then `run(n)`.
fn reference(b: &Base, mode: u32, k: u32, n: u64) -> FullState {
    let mut m = fork(b);
    restore(&mut m, b);
    set_run_mode(&mut m, mode);
    run_cuts(&mut m, k);
    let exit = m.run(n);
    full_state(&m, exit)
}

/// Captures cut `k` — from the snapshot, or by installing `prev` (cut
/// `j`) and running on through `k - j` more cuts.
fn capture(b: &Base, mode: u32, k: u32, prev: Option<(u32, &Checkpoint)>) -> Checkpoint {
    let mut m = fork(b);
    // Some unrelated history first: the capturing machine's own caches,
    // statistics and page generations must not leak into the
    // checkpoint. Rewriting kernel text with its own bytes, as an
    // injector's flip and restore would, moves those pages' generations.
    restore(&mut m, b);
    set_run_mode(&mut m, mode ^ 1);
    m.run(200_000);
    for pa in (KERNEL_TEXT_PHYS..KERNEL_TEXT_PHYS + 0x20000).step_by(0x800) {
        let byte = m.mem.read_u8(pa);
        m.mem.write_u8(pa, byte);
    }
    restore(&mut m, b);
    match prev {
        Some((j, c)) => {
            m.install(c);
            for _ in j..k {
                assert_eq!(m.run_to_tick(u64::MAX / 4), None);
            }
        }
        None => {
            set_run_mode(&mut m, mode);
            run_cuts(&mut m, k);
        }
    }
    assert!(m.tick_due() || k == 0, "a capture sits at a tick cut");
    m.checkpoint(prev.map(|(_, c)| c))
}

/// Installs `c` on a machine with its own history, then `run(n)`.
fn resumed(b: &Base, c: &Checkpoint, n: u64) -> FullState {
    let mut m = fork(b);
    restore(&mut m, b);
    m.run(300_000);
    restore(&mut m, b);
    m.install(c);
    let exit = m.run(n);
    full_state(&m, exit)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn resuming_a_checkpoint_equals_running_through_the_cut(
        cpus in 1u32..3,
        mode in 0u32..MODES,
        pick in 0u32..1_000_000,
        scale in 0u32..3,
        raw in 0u64..4_000_000,
    ) {
        // Nothing, a short stretch, or a long one.
        let n = [0, raw % 400_000, raw][scale as usize];
        let b = base(cpus);
        // A cut `k` the fault-free run reaches, and an earlier one `j`.
        let cuts = b.cuts[mode as usize];
        prop_assert!(cuts >= 2, "mode {} crosses ticks", mode);
        let k = 1 + pick % cuts;
        let j = pick / cuts % k;
        let want = reference(b, mode, k, n);
        let direct = capture(b, mode, k, None);
        prop_assert_eq!(&resumed(b, &direct, n), &want, "captured from the snapshot");
        let first = capture(b, mode, j, None);
        let chained = capture(b, mode, k, Some((j, &first)));
        prop_assert_eq!(&resumed(b, &chained, n), &want, "captured from cut {}", j);
        prop_assert!(chained.fresh_bytes() <= direct.fresh_bytes());
    }
}

#[test]
fn a_cut_is_where_the_uncut_run_passes_and_stats_add_up() {
    // Cutting at every tick changes nothing against one uncut run.
    for cpus in 1..=2 {
        let b = base(cpus);
        let mut cut = fork(b);
        restore(&mut cut, b);
        let mut cuts = 0;
        // The snapshot's run mode runs the whole suite, past this budget.
        let budget = b.machine.max_tsc() + 3_000_000;
        let exit = loop {
            match cut.run_to_tick(budget.saturating_sub(cut.max_tsc())) {
                None => cuts += 1,
                Some(exit) => break exit,
            }
        };
        assert!(cuts > 10, "the run crossed ticks");
        let mut plain = fork(b);
        restore(&mut plain, b);
        let plain_exit = plain.run(budget - plain.max_tsc());
        assert_eq!(full_state(&cut, exit), full_state(&plain, plain_exit));
        // Without an install the block engine's own statistics agree too.
        assert_eq!(cut.block_stats(), plain.block_stats());
        assert_eq!(cut.chain_stats(), plain.chain_stats());
    }
}

/// Every statistic a restore zeroes: the counters, the TLB and decode
/// statistics, and the block and chain statistics.
type Counts = (Counters, Stats, (u64, u64, u64), (u64, u64, u64));

fn counts(m: &Machine) -> Counts {
    (m.counters(), stats(m), m.block_stats(), m.chain_stats())
}

#[test]
fn a_restore_counts_from_zero_like_a_fresh_fork() {
    // A restored machine's statistics count only what it ran since, so a
    // machine with history, restored and run, counts exactly what a
    // fresh fork of the same snapshot counts over the same run.
    let n = 2_000_000;
    for cpus in 1..=2 {
        let b = base(cpus);
        let mut again = fork(b);
        assert_eq!(counts(&again), Counts::default(), "{cpus} CPUs: a fork counts from zero");
        again.run(n);
        restore(&mut again, b);
        assert_eq!(counts(&again), Counts::default(), "{cpus} CPUs: a restore counts from zero");
        again.run(n);
        let mut once = fork(b);
        once.run(n);
        assert!(counts(&once).2 .0 > 0, "{cpus} CPUs: the run replayed blocks");
        assert_eq!(counts(&again), counts(&once), "{cpus} CPUs");
    }
}

#[test]
fn a_breakpoint_first_reached_on_a_due_tick_fires_at_the_cut() {
    // `cli` then straight-line `nop`s: every step reaches a new address,
    // and each due tick is lost with IF clear, so each tick cut sits on
    // an instruction's first hit. Armed there, the breakpoint outranks
    // the due tick in the step, and a run resumed at the cut must stop
    // at its first loop top exactly like the armed run from the restore.
    let mut code = vec![0xfa];
    code.extend(std::iter::repeat_n(0x90, 4000));
    code.extend([0xfa, 0xf4]);
    let mut m = Machine::new(kfi_machine::MachineConfig {
        phys_mem: 1 << 20,
        timer_period: 1000,
        ..Default::default()
    });
    m.mem.load(0x1000, &code);
    m.cpu.eip = 0x1000;
    let snapshot = m.snapshot();
    let mut cuts = 0;
    for k in 1..=3u32 {
        // Reference: where is cut `k`, and does the armed run fire there?
        m.restore(&snapshot);
        run_cuts_plain(&mut m, k);
        let (addr, cut_tsc) = (m.cpu.eip, m.max_tsc());
        m.restore(&snapshot);
        m.cpu.arm_breakpoint(0, addr);
        let exit = m.run(100_000);
        assert_eq!((exit, m.max_tsc()), (RunExit::DebugBreak { index: 0 }, cut_tsc));
        let want = full_state_diskless(&m, exit);
        // Resumed at the cut.
        m.restore(&snapshot);
        run_cuts_plain(&mut m, k);
        let c = m.checkpoint(None);
        let mut r = Machine::fork(&snapshot, *m.config());
        r.restore(&snapshot);
        r.install(&c);
        r.cpu.arm_breakpoint(0, addr);
        // The same absolute deadline: the snapshot's clock is 0.
        let exit = r.run(100_000 - c.max_tsc());
        assert_eq!(full_state_diskless(&r, exit), want, "cut {k}");
        cuts += 1;
    }
    assert_eq!(cuts, 3);
}

fn run_cuts_plain(m: &mut Machine, k: u32) {
    for _ in 0..k {
        assert_eq!(m.run_to_tick(u64::MAX / 4), None);
    }
}

type Diskless = (RunExit, Cpu, u64, Counters, Stats);

fn full_state_diskless(m: &Machine, exit: RunExit) -> Diskless {
    (exit, m.cpu.clone(), m.mem.digest(), m.counters(), stats(m))
}

#[test]
fn parked_cpus_resume_where_they_were_cut() {
    // Both CPUs stay live, so the scheduler parks each in turn and every
    // cut finds the other CPU's context moved since the restore.
    let prog = kfi_asm::assemble(
        "
        movl $ap, %eax
        out %eax, $0xf9
        movl $0x10100, %eax
        out %eax, $0xf7
    spin0:
        incl 0x9000
        movb $0x61, %al
        out %al, $0xe9
        jmp spin0
    ap:
        movl $0x7000, %esp
    spin1:
        incl 0x9004
        pushl %eax
        popl %eax
        jmp spin1
        ",
        &kfi_asm::AsmOptions { text_base: 0x1000, data_base: None },
    )
    .expect("guest assembles");
    let config = kfi_machine::MachineConfig {
        phys_mem: 1 << 20,
        timer_period: 1000,
        cpus: 2,
        smp_seed: 7,
        ..Default::default()
    };
    let mut m = Machine::new(config);
    m.mem.load(0x1000, &prog.text.bytes);
    m.cpu.eip = 0x1000;
    m.cpu.set_reg(4, 0x8000);
    let snapshot = m.snapshot();
    for (k, n) in [(3, 0), (5, 5_000), (9, 40_000)] {
        m.restore(&snapshot);
        run_cuts_plain(&mut m, k);
        let exit = m.run(n);
        let want = (full_state_diskless(&m, exit), m.cpu_state(1).clone(), m.smp_digest());
        m.restore(&snapshot);
        run_cuts_plain(&mut m, k);
        let parked = 1 - m.active_cpu();
        assert_ne!(m.cpu_state(parked), &snapshot_cpu(&snapshot, &config, parked), "it moved");
        let c = m.checkpoint(None);
        let mut r = Machine::fork(&snapshot, config);
        r.restore(&snapshot);
        r.install(&c);
        let exit = r.run(n);
        let got = (full_state_diskless(&r, exit), r.cpu_state(1).clone(), r.smp_digest());
        assert_eq!(got, want, "cut {k}, run({n})");
    }
}

/// CPU `i`'s state in `snapshot`.
fn snapshot_cpu(snapshot: &Snapshot, config: &kfi_machine::MachineConfig, i: usize) -> Cpu {
    Machine::fork(snapshot, *config).cpu_state(i).clone()
}
