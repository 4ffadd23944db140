//! Deterministic differential sweep + sanitizer self-test for CI.
//!
//! For each seed, generates a guest program in three corruption
//! variants (clean, pre-run bit flips, mid-run bit flip) and runs it
//! through the eight machine-level differential pairs (cached vs
//! interpreter tier, chained block engine vs single-step,
//! ring/null trace sink, snapshot-restore/fresh-boot,
//! shared-snapshot-fork/fresh-boot, on a separately generated
//! two-ring program crossing `int $0x80`/`iret`/timer gates under
//! paging — full pipeline vs bare interpreter, and on a separately
//! generated two-CPU program exchanging startup and reschedule IPIs —
//! full pipeline vs bare interpreter at `cpus = 2` plus
//! parked-secondary vs plain uniprocessor). The architectural-state
//! sanitizer is enabled on every machine except in the block-engine
//! and ring pairs and on the full-pipeline side of the smp pair, which
//! force it off so block execution actually engages (the engine falls
//! back to single-stepping under the sanitizer). A smaller sweep
//! of full injection campaigns compares 1-worker vs 2-worker execution
//! record-for-record. Before any of that, three self-tests seed known
//! bugs through test-only machine hooks — a broken ALU flag writer the
//! sanitizer must report, a skipped TSS.esp0 kernel-stack switch the
//! ring-transition lockstep must flag, and a dropped reschedule IPI
//! the SMP lockstep must flag as a divergence — proving the net can
//! actually catch fish.
//!
//! Exit status is nonzero iff any divergence, sanitizer violation, or
//! self-test failure occurred. An unknown argument, or a missing,
//! non-numeric or zero `--seeds`/`--campaign-seeds`, exits 2 with the
//! usage line before anything runs.

use kfi_checker::diff::{
    pair_block_engine, pair_decode_cache, pair_fork, pair_restore, pair_ring, pair_smp,
    pair_smp_parked, pair_trace_sink, run_lockstep, PairOutcome, StateMask,
};
use kfi_checker::gen::{generate, generate_ring, generate_smp, install, Variant};
use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::Campaign;
use kfi_machine::{Machine, MachineConfig, RunExit};
use kfi_profiler::ProfilerConfig;

struct Options {
    seeds: u64,
    campaign_seeds: u64,
    verbose: bool,
}

const USAGE: &str = "usage: check_machine [--seeds N] [--campaign-seeds N] [--verbose]";

/// The count given as the value of `flag`: a missing value, a
/// non-number and zero are errors, since zero seeds would check no pair.
fn count_arg(flag: &str, v: Option<String>) -> Result<u64, String> {
    let got = v.as_deref().map_or("nothing".to_string(), |v| format!("`{v}`"));
    v.and_then(|v| v.parse().ok())
        .filter(|n| *n > 0)
        .ok_or(format!("{flag}: expected a number above 0, got {got}"))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { seeds: 32, campaign_seeds: 2, verbose: false };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => opts.seeds = count_arg("--seeds", args.next())?,
            "--campaign-seeds" => opts.campaign_seeds = count_arg("--campaign-seeds", args.next())?,
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => {
                println!(
                    "{USAGE}\n\
                     \n\
                     Differential sweep over the simulated machine's paired\n\
                     configurations plus a sanitizer self-test. Defaults:\n\
                     --seeds 32, --campaign-seeds 2."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

fn sanitized_config() -> MachineConfig {
    MachineConfig { sanitizer: true, ..MachineConfig::default() }
}

/// The sanitizer must catch a seeded flag-update bug, and must stay
/// silent on the identical program without the bug.
fn self_test() -> Result<(), String> {
    // add $1,%eax ; cli ; hlt — one ALU flag write, then stop.
    const PROGRAM: [u8; 5] = [0x83, 0xc0, 0x01, 0xfa, 0xf4];
    let run = |flag_update_bug: bool| -> (u64, RunExit) {
        let mut m = Machine::new(MachineConfig { flag_update_bug, ..sanitized_config() });
        m.mem.load(0x1000, &PROGRAM);
        m.cpu.eip = 0x1000;
        let exit = m.run(10_000);
        (m.sanitizer_violation_count(), exit)
    };

    let (clean, exit) = run(false);
    if exit != RunExit::Halted {
        return Err(format!("self-test control run did not halt: {exit:?}"));
    }
    if clean != 0 {
        return Err(format!("sanitizer reported {clean} violations on a correct machine"));
    }
    let (buggy, _) = run(true);
    if buggy == 0 {
        return Err("sanitizer MISSED the seeded flag-update bug".to_string());
    }
    Ok(())
}

/// The ring-transition lockstep must catch a machine that skips the
/// TSS.esp0 kernel-stack switch on user→kernel delivery (interrupt
/// frames land on the user stack), and must stay silent when both
/// machines are correct.
fn ring_self_test() -> Result<(), String> {
    let cfg = MachineConfig::default();
    let prog = generate_ring(0, Variant::Clean);

    let mut a = install(&prog, cfg);
    let mut b = install(&prog, cfg);
    let control = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
    if !control.clean() {
        return Err(format!("ring control run diverged on a correct machine: {control:?}"));
    }

    let mut a = install(&prog, cfg);
    let mut b = install(&prog, MachineConfig { ring_switch_bug: true, ..cfg });
    let out = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
    if out.divergence.is_none() {
        return Err("ring lockstep MISSED the seeded stack-switch bug".to_string());
    }
    Ok(())
}

/// The SMP lockstep must catch a machine that drops reschedule IPIs
/// (CPU 1 grinds on long after the correct machine's CPU 1 took the
/// doorbell and halted), and must stay silent when both machines are
/// correct.
fn smp_self_test() -> Result<(), String> {
    let cfg = MachineConfig::default();
    let prog = generate_smp(0, Variant::Clean);

    let mut a = install(&prog, cfg);
    let mut b = install(&prog, cfg);
    let control = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
    if !control.clean() {
        return Err(format!("smp control run diverged on a correct machine: {control:?}"));
    }

    let mut a = install(&prog, cfg);
    let mut b = install(&prog, MachineConfig { ipi_drop_bug: true, ..cfg });
    let out = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
    if out.divergence.is_none() {
        return Err("smp lockstep MISSED the seeded dropped-IPI bug".to_string());
    }
    Ok(())
}

fn report_pair(seed: u64, variant: Variant, name: &str, out: &PairOutcome) -> bool {
    if out.clean() {
        return true;
    }
    eprintln!("FAIL seed={seed} variant={variant:?} pair={name} after {} steps", out.steps);
    if let Some(d) = &out.divergence {
        eprintln!("  divergence at step {}: {}", d.step, d.detail);
        eprint!("{}", d.context);
    }
    for v in &out.violations {
        eprintln!("  sanitizer: {v}");
    }
    false
}

fn machine_sweep(opts: &Options) -> (u64, u64) {
    let mut pairs = 0u64;
    let mut failures = 0u64;
    for seed in 0..opts.seeds {
        for variant in [Variant::Clean, Variant::PreFlip, Variant::MidRunFlip] {
            let prog = generate(seed, variant);
            let ring = generate_ring(seed, variant);
            let smp = generate_smp(seed, variant);
            let cfg = sanitized_config();
            for (name, out) in [
                ("decode-cache", pair_decode_cache(&prog, cfg)),
                ("block-engine", pair_block_engine(&prog, cfg)),
                ("trace-sink", pair_trace_sink(&prog, cfg)),
                ("restore", pair_restore(&prog, cfg)),
                ("fork", pair_fork(&prog, cfg)),
                ("ring", pair_ring(&ring, cfg)),
                ("smp", pair_smp(&smp, cfg)),
                ("smp-parked", pair_smp_parked(&prog, cfg)),
            ] {
                pairs += 1;
                if !report_pair(seed, variant, name, &out) {
                    failures += 1;
                } else if opts.verbose {
                    println!("ok seed={seed} variant={variant:?} pair={name} steps={}", out.steps);
                }
            }
        }
    }
    (pairs, failures)
}

/// Campaign-level pair: a full (small) injection campaign at 1 worker
/// vs 2 workers must produce bit-identical records and metrics. With
/// memoization on (the default) both sides fork one shared base whose
/// golden runs are seed-independent, so reusing the experiment across
/// sweep seeds is sound — and the sweep doubles as an end-to-end check
/// of the fork path under real campaign load.
fn campaign_sweep(opts: &Options) -> (u64, u64) {
    let mut pairs = 0u64;
    let mut failures = 0u64;
    let mut exp = match Experiment::prepare(ExperimentConfig {
        max_per_function: Some(1),
        threads: 1,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    }) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("FAIL campaign sweep: prepare failed: {e}");
            return (1, 1);
        }
    };
    for seed in 0..opts.campaign_seeds {
        pairs += 1;
        exp.config.seed = 2003 + seed;
        exp.config.threads = 1;
        let one = exp.run_campaign(Campaign::A);
        exp.config.threads = 2;
        let many = exp.run_campaign(Campaign::A);
        if one.records != many.records || one.metrics != many.metrics {
            failures += 1;
            eprintln!(
                "FAIL campaign seed={} pair=workers-1-vs-2: {} records vs {} records",
                exp.config.seed,
                one.records.len(),
                many.records.len()
            );
        } else if opts.verbose {
            println!(
                "ok campaign seed={} pair=workers-1-vs-2 records={}",
                exp.config.seed,
                one.records.len()
            );
        }
    }
    (pairs, failures)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("check_machine: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    match self_test() {
        Ok(()) => println!("self-test: sanitizer catches the seeded flag-update bug"),
        Err(e) => {
            eprintln!("self-test FAILED: {e}");
            std::process::exit(1);
        }
    }
    match ring_self_test() {
        Ok(()) => println!("self-test: ring lockstep catches the seeded stack-switch bug"),
        Err(e) => {
            eprintln!("ring self-test FAILED: {e}");
            std::process::exit(1);
        }
    }
    match smp_self_test() {
        Ok(()) => println!("self-test: smp lockstep catches the seeded dropped-IPI bug"),
        Err(e) => {
            eprintln!("smp self-test FAILED: {e}");
            std::process::exit(1);
        }
    }

    let (mpairs, mfail) = machine_sweep(&opts);
    println!(
        "machine sweep: {} seeds x 3 variants x 8 pairs = {} pairs, {} failures",
        opts.seeds, mpairs, mfail
    );
    let (cpairs, cfail) = campaign_sweep(&opts);
    println!("campaign sweep: {cpairs} pairs (1 vs 2 workers), {cfail} failures");

    if mfail + cfail > 0 {
        eprintln!("check_machine: {} failing pairs", mfail + cfail);
        std::process::exit(1);
    }
    println!("check_machine: all pairs agree, no sanitizer violations");
}
