//! Emits `BENCH_machine.json`: the machine-core performance baseline
//! (exec-loop MIPS on each execution tier; paged-guest kernel-replay
//! MIPS on the cached vs the chained tier; two-CPU kernel-replay MIPS
//! single-stepped vs through `Machine::run`; per-run snapshot restore
//! cost full vs dirty-tracked; the cost of forking a booted kernel's
//! machine and disk as a rig fork does, and the guest and disk pages
//! the fork owns; the wall clock of profiling the paper suite's golden
//! runs; and small-campaign wall clock at 1 and 4 worker threads, both
//! recompute-per-rig and with golden memoization + copy-on-write rig
//! forks).
//!
//! `--check` runs a scaled-down version of every measurement, prints
//! the JSON to stdout and writes nothing — the CI smoke mode. Without
//! it, the JSON lands in `BENCH_machine.json` in the current directory.
//! Any other argument exits 2 with the usage line.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::{Campaign, RigConfig, RigShared};
use kfi_machine::{
    DiskImage, ExecTier, Machine, MachineConfig, Ramdisk, RunExit, Snapshot, StepEvent, PAGE_SIZE,
};
use kfi_profiler::ProfilerConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// The bench workload: a register-ALU loop heavy on multi-byte
/// encodings (imm32 forms, modrm+sib+disp8), so per-fetch decode cost
/// is a realistic share of the interpreter's work.
fn alu_loop_machine(iters: u32, tier: ExecTier) -> Machine {
    let mut m = Machine::new(MachineConfig { timer_enabled: false, tier, ..Default::default() });
    let mut code = vec![0xb9]; // mov ecx, iters
    code.extend_from_slice(&iters.to_le_bytes());
    code.extend_from_slice(&[
        // loop:
        0x05, 0x78, 0x56, 0x34, 0x12, // add eax, 0x12345678
        0x8d, 0x54, 0x98, 0x44, // lea edx, [eax+ebx*4+0x44]
        0x35, 0x0f, 0x0f, 0x0f, 0x0f, // xor eax, 0x0f0f0f0f
        0x81, 0xc3, 0x01, 0x00, 0x00, 0x00, // add ebx, 1
        0x31, 0xd0, // xor eax, edx
        0x49, // dec ecx
        0x75, 0xe7, // jnz loop
        0xfa, 0xf4, // cli; hlt
    ]);
    m.mem.load(0x1000, &code);
    m.cpu.eip = 0x1000;
    m.cpu.set_reg(4, 0x8000);
    m
}

/// Interprets the ALU loop and returns (MIPS, instructions retired).
/// Best of `passes` — the loop is deterministic, so the fastest pass
/// is the one least disturbed by the host scheduler.
fn measure_mips(iters: u32, passes: u32, tier: ExecTier) -> (f64, u64) {
    let mut best = f64::MAX;
    let mut insns = 0;
    for _ in 0..passes {
        let mut m = alu_loop_machine(iters, tier);
        let t = Instant::now();
        assert_eq!(m.run(u64::MAX / 2), RunExit::Halted);
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        insns = m.counters().instructions;
    }
    (insns as f64 / best / 1e6, insns)
}

/// A booted kernel at its paging-enabled entry point, replayed by
/// copy-on-write forks.
struct BootImage {
    snap: Snapshot,
    config: MachineConfig,
    disk: DiskImage,
}

impl BootImage {
    fn new(kernel: kfi_kernel::KernelBuildOptions, cpus: u32) -> BootImage {
        let image = kfi_kernel::build_kernel(kernel).expect("kernel builds");
        let files = kfi_workloads::suite_files().expect("workloads build");
        let fsimg = kfi_kernel::mkfs(2048, &files);
        let disk = fsimg.disk.snapshot();
        let boot = kfi_kernel::BootConfig { cpus, ..Default::default() };
        let m = kfi_kernel::boot(&image, fsimg.disk, &boot);
        BootImage { snap: m.snapshot(), config: *m.config(), disk }
    }

    fn fork(&self, config: MachineConfig) -> Machine {
        let mut f = Machine::fork(&self.snap, config);
        f.disk = Some(Ramdisk::fork(&self.disk));
        f
    }
}

/// Runs `passes` rounds of `pass(false)` then `pass(true)`, each
/// returning `(seconds, instructions)`, and returns each side's
/// best-pass MIPS plus the instruction count. Passes alternate so
/// host-load drift hits both sides equally instead of whichever side
/// was measured second. The two sides replay the same window with
/// bit-identical deadline semantics, so they must retire the same
/// instruction count (`what` names the assertion), and their MIPS ratio
/// isolates the cost one side removes.
fn alternate(passes: u32, what: &str, mut pass: impl FnMut(bool) -> (f64, u64)) -> (f64, f64, u64) {
    let (mut best, mut insns) = ([f64::MAX; 2], [0; 2]);
    for _ in 0..passes {
        for side in [false, true] {
            let (dt, n) = pass(side);
            best[usize::from(side)] = best[usize::from(side)].min(dt);
            insns[usize::from(side)] = n;
        }
    }
    assert_eq!(insns[0], insns[1], "{what}");
    (insns[0] as f64 / best[0] / 1e6, insns[1] as f64 / best[1] / 1e6, insns[1])
}

/// Paged-guest replay: where campaigns actually spend their cycles.
/// Replays the base kernel's boot-plus-workload instruction window on
/// the cached tier vs the chained tier, isolating the dispatch +
/// per-instruction-translation cost that chained block replay and
/// once-per-entry translation validation remove. Returns
/// `(mips_cached, mips_chained, instructions)`.
fn measure_paged(budget: u64, passes: u32) -> (f64, f64, u64) {
    let boot = BootImage::new(Default::default(), 1);
    alternate(passes, "the tier must not change the instruction count", |chained| {
        let tier = if chained { ExecTier::Chained } else { ExecTier::Cached };
        let mut f = boot.fork(MachineConfig { tier, ..boot.config });
        let t = Instant::now();
        let _ = f.run(budget);
        (t.elapsed().as_secs_f64(), f.counters().instructions)
    })
}

/// Two-CPU replay: the `smp` kernel's boot-plus-workload window on a
/// two-CPU machine (bringing the application processor online, then
/// mostly CPU 0 alone), single-stepped until the machine-wide clock
/// reaches the budget — the loop `Machine::run` used to be on SMP
/// machines — vs through `Machine::run`, which takes the chained block
/// engine while the active CPU runs alone. Returns `(mips_step,
/// mips_run, instructions)`.
fn measure_smp(budget: u64, passes: u32) -> (f64, f64, u64) {
    let boot =
        BootImage::new(kfi_kernel::KernelBuildOptions { smp: true, ..Default::default() }, 2);
    alternate(passes, "run must retire what single-stepping retires", |run| {
        let mut f = boot.fork(boot.config);
        let t = Instant::now();
        if run {
            let _ = f.run(budget);
        } else {
            let deadline = f.max_tsc() + budget;
            while f.max_tsc() < deadline && f.step() == StepEvent::Executed {}
        }
        (t.elapsed().as_secs_f64(), f.counters().instructions)
    })
}

/// Measures per-restore cost in microseconds against a booted kernel
/// snapshot: `full` alternates two snapshots (every restore resets
/// every page of physical memory), `dirty` reuses one snapshot with
/// guest work in between (every restore resets only the pages that work
/// dirtied). Returns (full_us, dirty_us, dirty_pages_per_run).
fn measure_restore(reps: u32) -> (f64, f64, u32) {
    let image = kfi_kernel::build_kernel(Default::default()).expect("kernel builds");
    let files = kfi_workloads::suite_files().expect("workloads build");
    let fsimg = kfi_kernel::mkfs(2048, &files);
    let m = kfi_kernel::boot(&image, fsimg.disk.clone(), &Default::default());
    let snap_a = m.snapshot();
    let snap_b = m.snapshot();

    let mut m = kfi_kernel::boot(&image, fsimg.disk, &Default::default());
    let t = Instant::now();
    for _ in 0..reps {
        m.restore(&snap_a);
        m.restore(&snap_b);
    }
    let full_us = t.elapsed().as_secs_f64() * 1e6 / (2 * reps) as f64;

    m.restore(&snap_a); // sync the dirty tracking to snap_a
    let mut dirty_time = 0.0;
    let mut dirty_pages = 0u64;
    for _ in 0..reps {
        let _ = m.run(50_000);
        dirty_pages += u64::from(m.dirty_page_count());
        let t = Instant::now();
        m.restore(&snap_a);
        dirty_time += t.elapsed().as_secs_f64();
    }
    (full_us, dirty_time * 1e6 / reps as f64, (dirty_pages / u64::from(reps)) as u32)
}

/// Wall-clock seconds for one campaign A at the given thread count,
/// best of `passes`.
///
/// `memoize = false` is the recompute-per-rig reference: every worker
/// boots and captures golden runs inside the timed region, every pass.
/// `memoize = true` measures the amortized steady state: the shared
/// base is booted and its golden runs captured once, *outside* the
/// timer (at million-run scale that one-off setup is noise), so the
/// timed region is fork + inject + classify only.
fn measure_campaign(exp: &Experiment, threads: usize, memoize: bool, passes: u32) -> f64 {
    let mut e = exp.with_threads(threads);
    e.config.memoize = memoize;
    if memoize {
        // One throwaway fork warms the base boot and all golden
        // captures for every pass that follows.
        drop(e.make_rig().expect("rig forks"));
    }
    let mut best = f64::MAX;
    for _ in 0..passes {
        let t = Instant::now();
        let r = e.run_campaign(Campaign::A);
        assert!(r.metrics.runs > 0);
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// What a fork owns: its private guest and disk bytes.
fn private_bytes(f: &Machine) -> (u64, u64) {
    let bytes = |pages: u32| u64::from(pages) * u64::from(PAGE_SIZE);
    (bytes(f.mem.private_pages()), bytes(f.disk.as_ref().map_or(0, Ramdisk::private_pages)))
}

/// Mean cost in microseconds of forking a booted kernel's machine and
/// disk at the snapshot point every rig forks from, as
/// `InjectorRig::fork` does, and the private guest and disk bytes a fork
/// holds right after forking and after running mode 0's golden run to
/// its halt. Returns (fork_us, golden_cycles, private bytes forked,
/// private bytes after the run).
fn measure_fork(exp: &Experiment, reps: u32) -> (f64, u64, (u64, u64), (u64, u64)) {
    let mut rig = exp.make_rig().expect("rig forks");
    let golden_cycles = rig.golden(0).cycles;
    let m = rig.machine_mut();
    let (snap, config) = (m.snapshot(), *m.config());
    let disk = m.disk.as_ref().expect("disk").snapshot();
    let fork = || {
        let mut f = Machine::fork(&snap, config);
        f.disk = Some(Ramdisk::fork(&disk));
        f
    };
    let mut total = 0.0;
    for _ in 0..reps {
        let t = Instant::now();
        let f = std::hint::black_box(fork());
        total += t.elapsed().as_secs_f64();
        assert_eq!(private_bytes(&f), (0, 0), "a fresh fork owns a guest or disk page");
    }
    let mut f = fork();
    let forked = private_bytes(&f);
    kfi_kernel::set_run_mode(&mut f, 0);
    // Run to the halt: the budget only bounds a run that would not end.
    assert_eq!(f.run(2 * golden_cycles), RunExit::Halted, "mode 0 runs to its halt");
    (total * 1e6 / f64::from(reps), golden_cycles, forked, private_bytes(&f))
}

/// Best-of-`passes` wall clock of `kfi_profiler::profile` over the
/// paper suite: one single-stepped boot plus the eight golden runs,
/// captured on the chained tier and PC-sampled at the default period.
/// Returns `(wall_ms, steps)`, where `steps` counts the executed steps
/// the profile samples (an interrupt delivery is one), once, through
/// `RigShared::boot_and_capture`.
fn measure_golden_capture(passes: u32) -> (f64, u64) {
    let image = kfi_kernel::build_kernel(Default::default()).expect("kernel builds");
    let files = kfi_workloads::suite_files().expect("workloads build");
    let workloads = kfi_workloads::Suite::Paper.workloads();
    let n_modes = workloads.len() as u32;
    let mut steps = 0u64;
    RigShared::boot_and_capture(image.clone(), &files, n_modes, RigConfig::default(), |_, _| {
        steps += 1
    })
    .expect("the golden runs capture");
    let mut best = f64::MAX;
    for _ in 0..passes {
        let t = Instant::now();
        let config = ProfilerConfig::default();
        std::hint::black_box(kfi_profiler::profile(&image, &files, &workloads, &config));
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best * 1e3, steps)
}

/// Best-of-`reps` per-rig setup cost: a full boot + golden capture
/// (what every worker paid before memoization) vs a copy-on-write fork
/// of the warm shared base (what every worker pays now).
fn measure_rig_setup(exp: &Experiment, reps: u32) -> (f64, f64) {
    let mut e = exp.with_threads(1);
    e.config.memoize = false;
    let mut boot_ms = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        drop(e.make_rig().expect("rig boots"));
        boot_ms = boot_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    e.config.memoize = true;
    drop(e.make_rig().expect("rig forks")); // boot the base + capture goldens
    let mut fork_ms = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        drop(e.make_rig().expect("rig forks"));
        fork_ms = fork_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (boot_ms, fork_ms)
}

fn main() {
    let check = kfi_bench::check_arg("bench_machine");
    let (loop_iters, passes, restore_reps, cap) =
        if check { (20_000, 3, 8, 1) } else { (500_000, 5, 64, 4) };

    eprintln!("[bench_machine] exec loop ({loop_iters} iterations)...");
    let (mips_interp, insns) = measure_mips(loop_iters, passes, ExecTier::Interp);
    let (mips_cached, insns_cached) = measure_mips(loop_iters, passes, ExecTier::Cached);
    let (mips_chained, insns_chained) = measure_mips(loop_iters, passes, ExecTier::Chained);
    assert_eq!(insns, insns_cached, "the cached tier must not change the instruction count");
    assert_eq!(insns, insns_chained, "the chained tier must not change the instruction count");
    let exec_speedup = mips_chained / mips_interp;

    let paged_budget: u64 = if check { 2_000_000 } else { 40_000_000 };
    // One paged pass is a single ~35 ms run — far more exposed to
    // scheduler noise than the long exec loop — so best-of needs more
    // samples to converge on the quiet-machine figure.
    let paged_passes = if check { 3 } else { 9 };
    eprintln!("[bench_machine] paged kernel replay (budget {paged_budget} cycles)...");
    let (mips_paged_cached, mips_paged_chained, paged_insns) =
        measure_paged(paged_budget, paged_passes);
    let paged_speedup = mips_paged_chained / mips_paged_cached;

    eprintln!("[bench_machine] two-CPU kernel replay (budget {paged_budget} cycles)...");
    let (mips_smp_step, mips_smp_run, smp_insns) = measure_smp(paged_budget, paged_passes);
    let smp_speedup = mips_smp_run / mips_smp_step;

    eprintln!("[bench_machine] snapshot restore ({restore_reps} reps)...");
    let (full_us, dirty_us, dirty_pages) = measure_restore(restore_reps);
    let restore_speedup = full_us / dirty_us;

    eprintln!("[bench_machine] golden capture (paper suite, profiled)...");
    let (capture_ms, capture_steps) = measure_golden_capture(if check { 1 } else { 5 });

    eprintln!("[bench_machine] campaign A wall clock (cap {cap})...");
    let exp = Experiment::prepare(ExperimentConfig {
        seed: 2003,
        max_per_function: Some(cap),
        threads: 1,
        profiler: ProfilerConfig { period: 501 },
        ..Default::default()
    })
    .expect("experiment prepares");
    let campaign_passes = if check { 1 } else { 2 };
    let wall_1 = measure_campaign(&exp, 1, false, campaign_passes);
    let wall_4 = measure_campaign(&exp, 4, false, campaign_passes);
    eprintln!("[bench_machine] campaign A wall clock, memoized (cap {cap})...");
    let memo_1 = measure_campaign(&exp, 1, true, campaign_passes);
    let memo_4 = measure_campaign(&exp, 4, true, campaign_passes);

    eprintln!("[bench_machine] per-rig setup: boot+goldens vs warm fork...");
    let (boot_ms, fork_ms) = measure_rig_setup(&exp, if check { 2 } else { 5 });
    let setup_speedup = boot_ms / fork_ms;

    eprintln!("[bench_machine] machine fork ({restore_reps} reps)...");
    let (machine_fork_us, golden_cycles, private_forked, private_run) =
        measure_fork(&exp, restore_reps);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"machine\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if check { "check" } else { "full" });
    let _ = writeln!(json, "  \"exec_loop\": {{");
    let _ = writeln!(json, "    \"instructions\": {insns},");
    let _ = writeln!(json, "    \"mips_interp\": {mips_interp:.1},");
    let _ = writeln!(json, "    \"mips_cached\": {mips_cached:.1},");
    let _ = writeln!(json, "    \"mips_chained\": {mips_chained:.1},");
    let _ = writeln!(json, "    \"speedup_cache\": {:.2},", mips_cached / mips_interp);
    let _ = writeln!(json, "    \"speedup_block\": {:.2},", mips_chained / mips_cached);
    let _ = writeln!(json, "    \"speedup\": {exec_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"exec_loop_paged\": {{");
    let _ = writeln!(json, "    \"instructions\": {paged_insns},");
    let _ = writeln!(json, "    \"mips_cached\": {mips_paged_cached:.1},");
    let _ = writeln!(json, "    \"mips_chained\": {mips_paged_chained:.1},");
    let _ = writeln!(json, "    \"speedup\": {paged_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"exec_loop_smp\": {{");
    let _ = writeln!(json, "    \"cpus\": 2,");
    let _ = writeln!(json, "    \"instructions\": {smp_insns},");
    let _ = writeln!(json, "    \"mips_single_step\": {mips_smp_step:.1},");
    let _ = writeln!(json, "    \"mips_run\": {mips_smp_run:.1},");
    let _ = writeln!(json, "    \"speedup\": {smp_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"snapshot_restore\": {{");
    let _ = writeln!(json, "    \"phys_mem_bytes\": {},", 8 << 20);
    let _ = writeln!(json, "    \"full_restore_us\": {full_us:.1},");
    let _ = writeln!(json, "    \"dirty_restore_us\": {dirty_us:.1},");
    let _ = writeln!(json, "    \"dirty_pages_per_run\": {dirty_pages},");
    let _ = writeln!(json, "    \"speedup\": {restore_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fork\": {{");
    let _ = writeln!(json, "    \"fork_us\": {machine_fork_us:.1},");
    let _ = writeln!(json, "    \"private_bytes_after_fork\": {},", private_forked.0);
    let _ = writeln!(json, "    \"disk_private_bytes_after_fork\": {},", private_forked.1);
    let _ = writeln!(json, "    \"golden_cycles\": {golden_cycles},");
    let _ = writeln!(json, "    \"private_bytes_after_golden_run\": {},", private_run.0);
    let _ = writeln!(json, "    \"disk_private_bytes_after_golden_run\": {}", private_run.1);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"golden_capture\": {{");
    let _ = writeln!(json, "    \"suite\": \"paper\",");
    let _ = writeln!(json, "    \"steps\": {capture_steps},");
    let _ = writeln!(json, "    \"wall_ms\": {capture_ms:.1},");
    let _ = writeln!(json, "    \"mips\": {:.1}", capture_steps as f64 / capture_ms / 1e3);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign\": {{");
    let _ = writeln!(json, "    \"seed\": 2003,");
    let _ = writeln!(json, "    \"cap\": {cap},");
    let _ = writeln!(json, "    \"memoize\": false,");
    let _ = writeln!(json, "    \"wall_s_threads_1\": {wall_1:.2},");
    let _ = writeln!(json, "    \"wall_s_threads_4\": {wall_4:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign_memo\": {{");
    let _ = writeln!(json, "    \"seed\": 2003,");
    let _ = writeln!(json, "    \"cap\": {cap},");
    let _ = writeln!(json, "    \"memoize\": true,");
    let _ = writeln!(json, "    \"wall_s_threads_1\": {memo_1:.2},");
    let _ = writeln!(json, "    \"wall_s_threads_4\": {memo_4:.2},");
    let _ = writeln!(json, "    \"rig_setup_boot_ms\": {boot_ms:.2},");
    let _ = writeln!(json, "    \"rig_setup_fork_ms\": {fork_ms:.2},");
    let _ = writeln!(json, "    \"setup_speedup\": {setup_speedup:.2}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    if check {
        print!("{json}");
        eprintln!("[bench_machine] check ok (speedups: exec {exec_speedup:.2}x, restore {restore_speedup:.2}x)");
    } else {
        std::fs::write("BENCH_machine.json", &json).expect("write BENCH_machine.json");
        eprintln!("[bench_machine] wrote BENCH_machine.json (exec {exec_speedup:.2}x, restore {restore_speedup:.2}x)");
    }
}
