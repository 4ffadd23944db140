//! Emits `BENCH_scaling.json`: the supervised-campaign host scaling
//! curve — wall-clock seconds for one memoized campaign A at 1, 2, 4
//! and 8 worker threads through the batched claim/report scheduler,
//! on the default uniprocessor guest and again on a `cpus = 2` SMP
//! guest — plus the cross-worker-count bit-identity assertion that
//! makes the curve safe to publish (every thread count must produce
//! byte-identical records and merged metrics, or the bench aborts).
//!
//! Honesty rule: `host_cpus` records what the measuring host actually
//! offered ([`std::thread::available_parallelism`]). On a single-CPU
//! host the expected curve is *flat or worse* — extra workers contend
//! for one core — and the JSON reports exactly that; the ratios are
//! measured, never synthesized. A curve worth citing for parallel
//! speedup must be re-measured on a multicore host (see
//! `EXPERIMENTS.md` for the methodology).
//!
//! `--check` runs a scaled-down version, prints the JSON to stdout and
//! writes nothing — the CI smoke mode. Without it, the JSON lands in
//! `BENCH_scaling.json` in the current directory.
//! Any other argument exits 2 with the usage line.

use kfi_core::supervisor::{run_plan_supervised, SupervisorConfig};
use kfi_core::{CampaignResult, Experiment, ExperimentConfig};
use kfi_injector::{Campaign, RigConfig};
use kfi_kernel::KernelBuildOptions;
use kfi_profiler::ProfilerConfig;
use std::fmt::Write as _;
use std::time::Instant;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock seconds (best of `passes`) for one supervised campaign A
/// at `threads` workers, plus the result for the identity check.
fn measure(exp: &Experiment, threads: usize, passes: u32) -> (f64, CampaignResult) {
    let e = exp.with_threads(threads);
    let mut best = f64::MAX;
    let mut result = None;
    for _ in 0..passes {
        let t = Instant::now();
        let out = run_plan_supervised(
            &e,
            Campaign::A,
            e.planned(Campaign::A),
            &SupervisorConfig::default(),
        )
        .expect("supervised campaign");
        best = best.min(t.elapsed().as_secs_f64());
        result = Some(out.result);
    }
    (best, result.expect("at least one pass"))
}

/// Sweeps the worker counts over one experiment, asserting that every
/// count reproduces the 1-worker dataset bit-for-bit.
fn sweep(exp: &Experiment, passes: u32, label: &str) -> Vec<f64> {
    let mut walls = Vec::with_capacity(WORKERS.len());
    let mut reference: Option<CampaignResult> = None;
    for &w in &WORKERS {
        eprintln!("[bench_scaling] {label}: {w} worker(s)...");
        let (wall, result) = measure(exp, w, passes);
        match &reference {
            None => reference = Some(result),
            Some(base) => {
                assert_eq!(result.records, base.records, "{label}: {w} workers diverged");
                assert_eq!(result.metrics, base.metrics, "{label}: {w}-worker metrics diverged");
            }
        }
        walls.push(wall);
    }
    walls
}

fn write_curve(json: &mut String, key: &str, cpus: u32, seed: u64, cap: usize, walls: &[f64]) {
    let _ = writeln!(json, "  \"{key}\": {{");
    let _ = writeln!(json, "    \"seed\": {seed},");
    let _ = writeln!(json, "    \"cap\": {cap},");
    let _ = writeln!(json, "    \"guest_cpus\": {cpus},");
    let workers: Vec<String> = WORKERS.iter().map(|w| w.to_string()).collect();
    let _ = writeln!(json, "    \"workers\": [{}],", workers.join(", "));
    let ws: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    let _ = writeln!(json, "    \"wall_s\": [{}],", ws.join(", "));
    let ratios: Vec<String> = walls.iter().map(|w| format!("{:.2}", walls[0] / w)).collect();
    let _ = writeln!(json, "    \"measured_speedup_vs_1_worker\": [{}],", ratios.join(", "));
    let _ = writeln!(json, "    \"records_bit_identical_across_workers\": true");
    let _ = writeln!(json, "  }},");
}

fn main() {
    let check = kfi_bench::check_arg("bench_scaling");
    let (cap, smp_cap, passes) = if check { (1, 1, 1) } else { (4, 2, 3) };
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    eprintln!("[bench_scaling] host_cpus = {host_cpus}");
    eprintln!("[bench_scaling] uniprocessor-guest campaign A (cap {cap})...");
    let exp = Experiment::prepare(ExperimentConfig {
        seed: 2003,
        max_per_function: Some(cap),
        threads: 1,
        profiler: ProfilerConfig { period: 501 },
        ..Default::default()
    })
    .expect("experiment prepares");
    // Warm the shared base outside the timed region: one throwaway
    // fork boots and captures every golden run, so the sweep times
    // fork + inject + classify — the steady state a long campaign
    // actually lives in.
    drop(exp.make_rig().expect("rig forks"));
    let up_walls = sweep(&exp, passes, "cpus=1");

    eprintln!("[bench_scaling] smp-guest campaign A (cpus 2, cap {smp_cap})...");
    let exp_smp = Experiment::prepare(ExperimentConfig {
        seed: 2003,
        max_per_function: Some(smp_cap),
        threads: 1,
        kernel: KernelBuildOptions { smp: true, ..KernelBuildOptions::default() },
        rig: RigConfig { cpus: 2, ..RigConfig::default() },
        profiler: ProfilerConfig { period: 501 },
        ..Default::default()
    })
    .expect("smp experiment prepares");
    drop(exp_smp.make_rig().expect("smp rig forks"));
    let smp_walls = sweep(&exp_smp, passes, "cpus=2");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"scaling\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if check { "check" } else { "full" });
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "  \"note\": \"measured speedups, never extrapolated: worker threads beyond host_cpus \
         share cores, so on a host_cpus={host_cpus} box a flat-or-declining curve is the honest \
         result; re-measure on a multicore host for a parallel-speedup figure\","
    );
    write_curve(&mut json, "supervised_campaign", 1, 2003, cap, &up_walls);
    write_curve(&mut json, "supervised_campaign_smp", 2, 2003, smp_cap, &smp_walls);
    // Trim the trailing comma of the last section.
    let trimmed = json.trim_end().trim_end_matches(',').to_string();
    let json = format!("{trimmed}\n}}\n");

    if check {
        print!("{json}");
        eprintln!("[bench_scaling] check ok (identity held at every worker count)");
    } else {
        std::fs::write("BENCH_scaling.json", &json).expect("write BENCH_scaling.json");
        eprintln!("[bench_scaling] wrote BENCH_scaling.json (identity held at every worker count)");
    }
}
