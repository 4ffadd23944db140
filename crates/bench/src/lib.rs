//! # kfi-bench — benchmark harness and table/figure reproduction
//!
//! `repro_all`, which regenerates every table and figure of the paper,
//! or one of them with `--only <artifact>`, plus `bench_machine` and
//! `bench_scaling`, which measure the machine tiers and worker scaling.
//! `repro_all`'s command line is one flag table
//! ([`ReproOptions::parse`]) and its artifacts one artifact table
//! ([`artifact::ARTIFACTS`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod flags;

use kfi_core::supervisor::{PanicInjection, SupervisorConfig};
use kfi_core::{Experiment, ExperimentConfig, StudyResult};
use kfi_injector::{plan_function, Campaign, Outcome, RigConfig};
use kfi_kernel::KernelBuildOptions;
use kfi_profiler::ProfilerConfig;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Command-line options shared by the repro binaries.
#[derive(Debug, Clone)]
pub struct ReproOptions {
    /// Cap on injections per function per campaign (None = paper-scale:
    /// every byte of every instruction of every target function).
    pub cap: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Build the kernel without BUG() assertions (ablation).
    pub no_assertions: bool,
    /// Guest CPUs per simulated machine (`--cpus N`, default 1 — the
    /// golden-corpus configuration). Values above 1 also switch the
    /// kernel build to the SMP variant
    /// ([`KernelBuildOptions::smp`]) so the extra CPUs are actually
    /// brought online; the guest interleaving stays a pure function of
    /// the machine's scheduler seed and quantum, never of host
    /// scheduling, so datasets remain bit-identical at any worker
    /// count.
    pub cpus: u32,
    /// Journal path for checkpoint/resume (`--journal`).
    pub journal: Option<PathBuf>,
    /// Resume from the journal instead of truncating it (`--resume`).
    pub resume: bool,
    /// Quarantine directory for persistent-offender artifacts
    /// (`--quarantine`).
    pub quarantine: Option<PathBuf>,
    /// Run the rig with the machine's architectural-state sanitizer on
    /// (`--sanitize`).
    pub sanitize: bool,
    /// Wall-clock watchdog budget per run in milliseconds
    /// (`--wall-budget-ms`).
    pub wall_budget_ms: Option<u64>,
    /// Test-only harness-fault injection (`--inject-panic`,
    /// `--inject-panic-persistent`).
    pub inject_panic: PanicInjection,
    /// Disable the shared-snapshot/golden/severity memoization fast path
    /// and fall back to booting + capturing goldens per rig and
    /// rebooting after every crash (`--no-memo`).
    /// The dataset is bit-identical either way; the flag exists so CI
    /// can prove exactly that.
    pub no_memo: bool,
    /// Run the campaign matrix (`kernel × workload × subsystem`)
    /// instead of the paper's three campaigns (`--matrix`).
    pub matrix: bool,
    /// Matrix kernel axis as a comma list of `base`/`server`
    /// (`--matrix-kernels`); `None` = both.
    pub matrix_kernels: Option<String>,
    /// Matrix workload axis as a comma list of traffic workloads
    /// (`--matrix-workloads`); `None` = all four.
    pub matrix_workloads: Option<String>,
    /// Matrix subsystem axis as a comma list (`--matrix-subsystems`);
    /// `None` = `ipc,net`.
    pub matrix_subsystems: Option<String>,
    /// Assert the matrix invariants after the run and fail nonzero on
    /// violation (`--check`) — the CI smoke hook.
    pub check: bool,
    /// Shard the campaigns over this many worker subprocesses
    /// (`--dist-workers N`).
    pub dist_workers: Option<usize>,
    /// Chaos-harness seed: randomly SIGKILL/stall/crash workers
    /// mid-campaign (`--chaos SEED`; requires `--dist-workers`).
    pub chaos: Option<u64>,
    /// Run as a distributed worker: speak the framed lease protocol on
    /// stdin/stdout instead of printing a dataset (`--worker`).
    pub worker: bool,
    /// Test-only: as a worker, wedge before the handshake so the
    /// coordinator's boot timeout reaps us (`--worker-wedge-handshake`).
    pub worker_wedge_handshake: bool,
    /// Test-only: as a coordinator, ask the first spawned worker to
    /// wedge its handshake (`--wedge-first-handshake`).
    pub wedge_first_handshake: bool,
    /// Worker heartbeat interval in milliseconds (`--dist-hb-ms`).
    pub dist_hb_ms: u64,
    /// Coordinator silence budget before a lease expires, in
    /// milliseconds (`--dist-hb-budget-ms`).
    pub dist_hb_budget_ms: u64,
    /// Coordinator budget for a worker's boot + handshake, in
    /// milliseconds (`--dist-handshake-ms`).
    pub dist_handshake_ms: u64,
    /// Dump the raw dataset as CSV on stdout after the report (`--csv`).
    pub csv: bool,
    /// Print this one artifact instead of every table and figure
    /// (`--only`).
    pub only: Option<&'static artifact::Artifact>,
}

impl Default for ReproOptions {
    fn default() -> ReproOptions {
        ReproOptions {
            cap: Some(16),
            seed: 2003,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            no_assertions: false,
            cpus: 1,
            journal: None,
            resume: false,
            quarantine: None,
            sanitize: false,
            wall_budget_ms: None,
            inject_panic: PanicInjection::None,
            no_memo: false,
            matrix: false,
            matrix_kernels: None,
            matrix_workloads: None,
            matrix_subsystems: None,
            check: false,
            dist_workers: None,
            chaos: None,
            worker: false,
            worker_wedge_handshake: false,
            wedge_first_handshake: false,
            dist_hb_ms: 100,
            dist_hb_budget_ms: 5_000,
            dist_handshake_ms: 180_000,
            csv: false,
            only: None,
        }
    }
}

/// The names in a comma list, trimmed, empty ones dropped.
fn name_list(s: &str) -> Vec<String> {
    s.split(',').map(|w| w.trim().to_string()).filter(|w| !w.is_empty()).collect()
}

impl ReproOptions {
    /// Converts to an experiment configuration.
    pub fn to_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            seed: self.seed,
            max_per_function: self.cap,
            threads: self.threads,
            kernel: KernelBuildOptions {
                assertions: !self.no_assertions,
                smp: self.cpus > 1,
                ..Default::default()
            },
            profiler: ProfilerConfig::default(),
            rig: RigConfig { sanitizer: self.sanitize, cpus: self.cpus, ..RigConfig::default() },
            memoize: !self.no_memo,
            ..Default::default()
        }
    }

    /// Converts to a campaign-matrix configuration. `--journal PATH` is
    /// reused as the per-cell journal *directory* in matrix mode.
    ///
    /// # Panics
    ///
    /// Panics on a `--matrix-kernels` name other than `base` and
    /// `server`, which [`ReproOptions::parse`] already refuses.
    pub fn matrix_config(&self) -> kfi_core::MatrixConfig {
        let list = |s: &Option<String>| s.as_deref().map(name_list);
        let defaults = kfi_core::MatrixConfig::default();
        let kernel_names = list(&self.matrix_kernels)
            .unwrap_or_else(|| defaults.kernels.iter().map(|(n, _)| n.clone()).collect());
        let base = self.to_config();
        let kernels = kernel_names
            .into_iter()
            .map(|n| {
                let opts = match n.as_str() {
                    "base" => base.kernel,
                    "server" => KernelBuildOptions { server: true, ..base.kernel },
                    other => panic!("unknown matrix kernel `{other}` (expected base|server)"),
                };
                (n, opts)
            })
            .collect();
        kfi_core::MatrixConfig {
            kernels,
            workloads: list(&self.matrix_workloads).unwrap_or(defaults.workloads),
            subsystems: list(&self.matrix_subsystems).unwrap_or(defaults.subsystems),
            seed: self.seed,
            threads: self.threads,
            max_per_function: self.cap,
            profiler: ProfilerConfig::default(),
            rig: base.rig,
            suite: kfi_workloads::Suite::Traffic,
            journal_dir: self.journal.clone(),
            resume: self.resume,
        }
    }

    /// Converts to a distributed-coordinator policy, spawning workers
    /// from `worker_exe` (normally [`std::env::current_exe`]; tests
    /// pass the `repro_all` binary path explicitly).
    pub fn dist_config(&self, worker_exe: PathBuf) -> kfi_core::DistConfig {
        let mut cfg = kfi_core::DistConfig::new(
            self.dist_workers.unwrap_or(1),
            worker_exe,
            self.to_worker_args(),
        );
        cfg.chaos = self.chaos;
        cfg.handshake_budget = std::time::Duration::from_millis(self.dist_handshake_ms);
        cfg.heartbeat_budget = std::time::Duration::from_millis(self.dist_hb_budget_ms);
        cfg.journal = self.journal.clone();
        cfg.resume = self.resume;
        cfg.wedge_first_handshake = self.wedge_first_handshake;
        cfg
    }

    /// Converts to a worker policy. The journal fields never propagate
    /// to workers: only the coordinator journals.
    pub fn worker_config(&self) -> kfi_core::WorkerConfig {
        kfi_core::WorkerConfig {
            heartbeat_interval: std::time::Duration::from_millis(self.dist_hb_ms.max(1)),
            supervisor: SupervisorConfig {
                wall_budget: self.wall_budget_ms.map(std::time::Duration::from_millis),
                ..SupervisorConfig::default()
            },
            wedge_handshake: self.worker_wedge_handshake,
        }
    }

    /// Converts to a supervisor policy.
    pub fn supervisor_config(&self) -> SupervisorConfig {
        SupervisorConfig {
            wall_budget: self.wall_budget_ms.map(std::time::Duration::from_millis),
            quarantine_dir: self.quarantine.clone(),
            journal: self.journal.clone(),
            resume: self.resume,
            inject_panic: self.inject_panic.clone(),
            ..SupervisorConfig::default()
        }
    }
}

/// Whether the process arguments of `program` (`bench_machine` or
/// `bench_scaling`) are `--check`, the scaled-down CI run, rather than
/// none, the full-length one. Any other argument prints the usage line
/// and exits 2, so a typo cannot start the full-length run.
pub fn check_arg(program: &str) -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 1 || args.iter().any(|a| a != "--check") {
        eprintln!("{program}: unexpected arguments {args:?}\nusage: {program} [--check]");
        std::process::exit(2);
    }
    !args.is_empty()
}

/// Prepares the experiment (kernel build + profile), printing progress.
///
/// Exits the process with status 1, after printing `[kfi] setup failed:`
/// and the reason, when the guest sources fail to assemble or the
/// baseline system is unhealthy — nothing can be measured in that case.
pub fn prepare(opts: &ReproOptions) -> Experiment {
    eprintln!(
        "[kfi] building kernel (assertions: {}) and profiling workloads...",
        !opts.no_assertions
    );
    let exp = Experiment::prepare(opts.to_config()).unwrap_or_else(|e| {
        eprintln!("[kfi] setup failed: {e}");
        std::process::exit(1)
    });
    eprintln!(
        "[kfi] profiled {} functions, {} targets cover 95% of activity",
        exp.profile.functions.len(),
        exp.target_functions.len()
    );
    exp
}

/// How many trailing events the trace replay keeps (the interesting
/// part of a crash timeline is its tail: trigger, flip, fault cascade,
/// classification).
pub const TRACE_RING_CAPACITY: usize = 256;

/// Replays one Table 7 case study with tracing enabled.
///
/// Scans campaign A's planned targets in fixed order (tracing off,
/// same cap as the experiment config) until a run crashes, then
/// re-runs that exact injection with a ring sink installed and renders
/// the corrupted-instruction disassembly, the trailing event timeline
/// and the metrics of the traced run. Fully deterministic for a given
/// experiment + seed, which the golden transcript test pins down.
///
/// Returns `None` when no scanned target crashes (raise the cap).
///
/// # Panics
///
/// Panics when the rig cannot boot the baseline system.
pub fn trace_case_study(exp: &Experiment, seed: u64) -> Option<String> {
    let mut rig = exp.make_rig().expect("rig boots");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for f in &exp.target_functions {
        let mut targets = plan_function(&exp.image, f, Campaign::A, &mut rng);
        if let Some(cap) = exp.config.max_per_function {
            targets.truncate(cap);
        }
        for t in &targets {
            let mode = exp.mode_for(t);
            let rec = rig.run_one(t, mode);
            let Outcome::Crash(_) = rec.outcome else { continue };

            // Replay the same injection with the ring sink installed.
            rig.enable_tracing(TRACE_RING_CAPACITY);
            let _ = rig.take_metrics();
            let traced = rig.run_one(t, mode);
            let events = rig.take_events();
            let metrics = rig.take_metrics();
            rig.disable_tracing();

            let mut s = String::new();
            let _ = writeln!(
                s,
                "=== Trace replay: {} ({}), insn {:#010x} byte {} mask {:#04x}, mode {mode} ===",
                t.function, t.subsystem, t.insn_addr, t.byte_index, t.bit_mask
            );
            if let Some(cs) =
                kfi_dump::case_study(&exp.image, t.insn_addr, t.byte_index, t.bit_mask, 8)
            {
                s.push_str(&cs.format());
                s.push('\n');
            }
            if let Outcome::Crash(info) = &traced.outcome {
                let _ = writeln!(
                    s,
                    "outcome: crash at {:#010x} in {} ({}), latency {} cycles\n",
                    info.eip,
                    info.function.as_deref().unwrap_or("?"),
                    info.subsystem,
                    info.latency
                );
            }
            let _ = writeln!(s, "--- last {} events ---", events.len());
            s.push_str(&kfi_report::trace_timeline(&events));
            s.push('\n');
            s.push_str(&kfi_report::metrics_table(&metrics));
            return Some(s);
        }
    }
    None
}

/// Renders a study's raw dataset as CSV: every run record, then the
/// per-campaign execution metrics — exactly what `repro_all --csv`
/// prints. Shared with the golden-corpus test so the pinned file and
/// the tool output cannot drift apart.
pub fn csv_dataset(study: &StudyResult) -> String {
    let rows: Vec<kfi_core::RecordRow> = study
        .campaigns
        .values()
        .flat_map(|c| c.records.iter().map(kfi_core::RecordRow::from_record))
        .collect();
    format!(
        "{}\n{}\n",
        kfi_core::to_csv(&rows),
        kfi_core::metrics_to_csv(study.campaigns.iter().map(|(c, r)| (*c, &r.metrics)))
    )
}

/// Prints why a study cannot start — `[kfi] journal <path>: <why>` for
/// an unusable journal — and exits 2, before anything reaches stdout
/// and without touching the journal.
fn cannot_start(why: String) -> ! {
    eprintln!("[kfi] {why}");
    std::process::exit(2)
}

/// Runs the campaign matrix, printing per-cell progress on stderr.
/// Exits 2 when a kernel variant fails to build, a workload does not
/// resolve in the traffic suite, or a cell journal is unusable.
pub fn run_matrix(opts: &ReproOptions) -> kfi_core::MatrixResult {
    let cfg = opts.matrix_config();
    eprintln!(
        "[kfi] matrix: {} kernels x {} workloads x {} subsystems (cap {:?}, {} threads)...",
        cfg.kernels.len(),
        cfg.workloads.len(),
        cfg.subsystems.len(),
        cfg.max_per_function,
        cfg.threads
    );
    let m = kfi_core::run_matrix(&cfg).unwrap_or_else(|e| cannot_start(e));
    for c in &m.cells {
        let t = c.result.total();
        eprintln!(
            "[kfi] cell {}: {} runs, {} activated, {} crash/hang{}",
            c.cell.key(),
            c.result.metrics.runs,
            t.activated,
            t.crash_or_hang(),
            if c.report.resumed_runs > 0 {
                format!(" ({} resumed)", c.report.resumed_runs)
            } else {
                String::new()
            }
        );
    }
    m
}

/// The `--check` invariants for a matrix dataset:
///
/// * the grid is non-empty and every cell planned at least one
///   injection (an empty cell means the subsystem tag or workload
///   wiring broke);
/// * every cell's merged metrics count exactly its plan size — one
///   record per planned target, nothing dropped or duplicated;
/// * the traffic workloads actually drive the handlers they exist to
///   drive: any `server` cell pairing `echo` with `ipc` or `netstorm`
///   with `net` must contain an activated injection.
///
/// # Errors
///
/// A description of the first violated invariant. Every cell-scoped
/// error carries the cell's RNG derivation — `seed ^ fnv1a(cell_key)`
/// — so the failing cell can be reproduced in isolation by narrowing
/// the axis flags without re-running the rest of the grid.
pub fn check_matrix(m: &kfi_core::MatrixResult) -> Result<(), String> {
    // The failing cell's plan depends only on its own derived seed, so
    // the repro recipe is exact regardless of which axes the original
    // grid swept.
    let hint = |key: &str| {
        format!(
            "(cell RNG seed = matrix seed ^ fnv1a(\"{key}\"); reproduce this cell alone \
             with --matrix --matrix-kernels/--matrix-workloads/--matrix-subsystems \
             narrowed to it)"
        )
    };
    if m.cells.is_empty() {
        return Err("matrix has no cells".into());
    }
    for c in &m.cells {
        let key = c.cell.key();
        if c.result.records.is_empty() {
            return Err(format!("cell {key} planned no injections {}", hint(&key)));
        }
        if c.result.metrics.runs != c.result.records.len() as u64 {
            return Err(format!(
                "cell {key}: {} metrics runs != {} records {}",
                c.result.metrics.runs,
                c.result.records.len(),
                hint(&key)
            ));
        }
    }
    for (w, s) in [("echo", "ipc"), ("netstorm", "net")] {
        for c in &m.cells {
            if c.cell.kernel != "server" || c.cell.workload != w || c.cell.subsystem != s {
                continue;
            }
            if !c.result.records.iter().any(|r| r.outcome != Outcome::NotActivated) {
                let key = c.cell.key();
                return Err(format!(
                    "cell {key}: no activated injection — {w} is not driving {s} {}",
                    hint(&key)
                ));
            }
        }
    }
    Ok(())
}

/// Runs all three campaigns, `repro_all`'s one study path: over
/// `--dist-workers` worker subprocesses under lease-based fault
/// tolerance, else in process under the supervisor policy of `opts`.
/// Prints progress and the coordinator's (machine-greppable) or the
/// supervisor's summary on stderr. The dataset is the same either way,
/// at any worker count, under any chaos schedule and after a resume.
/// Returns it with the first failed journal append, if any.
///
/// Exits 2 when the journal cannot be opened or its seed does not
/// match — continuing would silently discard the requested checkpoints.
pub fn run_campaigns(
    exp: &Experiment,
    opts: &ReproOptions,
) -> (StudyResult, Option<kfi_core::JournalFailure>) {
    let print_campaigns = |study: &StudyResult| {
        for (l, r) in &study.campaigns {
            let t = r.total();
            eprintln!(
                "[kfi] campaign {l}: {} injected, {} activated, {} crash/hang",
                t.injected,
                t.activated,
                t.crash_or_hang()
            );
        }
    };
    let print_journal = |resumed: usize, flushes: u64| {
        if opts.journal.is_some() {
            eprintln!("[kfi] journal: {resumed} runs resumed, {flushes} fsync batches");
        }
    };
    if opts.dist_workers.is_some() {
        let cfg = opts.dist_config(std::env::current_exe().expect("current exe resolves"));
        eprintln!(
            "[kfi] dist: campaigns A/B/C over {} functions across {} workers{}...",
            exp.target_functions.len(),
            cfg.workers,
            cfg.chaos.map(|s| format!(" (chaos seed {s})")).unwrap_or_default()
        );
        let dist = kfi_core::run_study_dist(exp, &cfg).unwrap_or_else(|e| cannot_start(e));
        print_campaigns(&dist.study);
        let rep = &dist.report;
        eprintln!(
            "[kfi] dist: spawned={} respawned={} quarantined={} handshake_timeouts={} \
             leases_expired={} requeued={} degraded={} chaos_kills={} chaos_stalls={} \
             chaos_exits={} wire_bytes={}",
            rep.workers_spawned,
            rep.workers_respawned,
            rep.workers_quarantined,
            rep.handshake_timeouts,
            rep.leases_expired,
            rep.jobs_requeued,
            rep.jobs_degraded,
            rep.chaos_kills,
            rep.chaos_stalls,
            rep.chaos_exits,
            rep.wire_bytes_streamed
        );
        print_journal(rep.resumed_runs, rep.journal_flushes);
        return (dist.study, dist.report.journal_failure);
    }
    eprintln!(
        "[kfi] running campaigns A/B/C over {} functions (cap {:?}, {} threads)...",
        exp.target_functions.len(),
        exp.config.max_per_function,
        exp.config.threads
    );
    let supervised = kfi_core::run_study_supervised(exp, &opts.supervisor_config())
        .unwrap_or_else(|e| cannot_start(e));
    print_campaigns(&supervised.study);
    if let Some(stats) = exp.severity_stats() {
        eprintln!("[kfi] severity: {stats}");
    }
    if let Some(stats) = exp.checkpoint_stats() {
        eprintln!("[kfi] checkpoints: {stats}");
    }
    let rep = &supervised.report;
    print_journal(rep.resumed_runs, rep.journal_flushes);
    let mut m = kfi_trace::Metrics::default();
    for c in supervised.study.campaigns.values() {
        m.merge(&c.metrics);
    }
    if m.rig_panics + m.run_retries + m.quarantined_runs + m.wall_watchdog_fired > 0
        || rep.workers_lost > 0
    {
        eprintln!(
            "[kfi] supervisor: {} panics caught, {} retries, {} quarantined, \
             {} watchdog aborts, {} workers lost",
            m.rig_panics,
            m.run_retries,
            m.quarantined_runs,
            m.wall_watchdog_fired,
            rep.workers_lost
        );
    }
    for q in &rep.quarantined {
        eprintln!(
            "[kfi] quarantined: campaign {} job {} ({}) — {}{}",
            q.campaign,
            q.index,
            q.function,
            q.reason,
            q.path.as_deref().map(|p| format!(" [{}]", p.display())).unwrap_or_default()
        );
    }
    (supervised.study, supervised.report.journal_failure)
}
