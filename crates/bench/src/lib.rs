//! # kfi-bench — benchmark harness and table/figure reproduction
//!
//! Criterion benches (decode/machine/injection throughput, ablations)
//! plus the `repro_*` binaries that regenerate every table and figure
//! of the paper. Shared scaffolding lives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kfi_core::supervisor::{PanicInjection, SupervisorConfig, SupervisorReport};
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
        }
    }
}

/// The value `args[i]` of flag `args[i - 1]`, converted by `parse`. A
/// missing value, or one `parse` rejects, prints what was expected and
/// the usage text and exits 2.
fn flag_value<T>(
    args: &[String],
    i: usize,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    if let Some(v) = args.get(i).and_then(|v| parse(v)) {
        return v;
    }
    let got = args.get(i).map_or("nothing".to_string(), |v| format!("`{v}`"));
    eprintln!("{}: expected {expected}, got {got}\n", args[i - 1]);
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// The number given as the value of flag `args[i - 1]` ([`flag_value`]).
fn number_arg<T: std::str::FromStr>(args: &[String], i: usize) -> T {
    flag_value(args, i, "a number", |v| v.parse().ok())
}

/// The text given as the value of flag `args[i - 1]` ([`flag_value`]).
fn text_arg(args: &[String], i: usize) -> String {
    flag_value(args, i, "a value", |v| Some(v.to_string()))
}

/// A count that must be at least 1 ([`flag_value`]): zero CPUs, threads
/// or workers is an error, not a request for the default.
fn count_arg<T: std::str::FromStr + Default + PartialEq>(args: &[String], i: usize) -> T {
    flag_value(args, i, "a number above 0", |v| v.parse().ok().filter(|n| *n != T::default()))
}

/// The names in a comma list, trimmed, empty ones dropped.
fn name_list(s: &str) -> Vec<String> {
    s.split(',').map(|w| w.trim().to_string()).filter(|w| !w.is_empty()).collect()
}

/// Exits 2 with the usage text when the comma list given to `flag`
/// names anything outside `valid`, listing the valid names.
fn check_names(flag: &str, list: Option<&str>, valid: &[&str]) {
    let Some(bad) = list.into_iter().flat_map(name_list).find(|n| !valid.contains(&n.as_str()))
    else {
        return;
    };
    eprintln!("{flag}: unknown name `{bad}` (valid: {})\n", valid.join(", "));
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// The run indices in a comma list (empty items dropped), or `None` when
/// an item is not a number.
fn parse_index_list(s: &str) -> Option<std::collections::BTreeSet<usize>> {
    name_list(s).iter().map(|v| v.parse().ok()).collect()
}

/// Flags that only mean something in one mode, each with the flags that
/// select it: at least one of those must be given too.
const MODE_FLAGS: [(&str, &[&str]); 11] = [
    ("--resume", &["--journal"]),
    ("--chaos", &["--dist-workers"]),
    ("--dist-hb-budget-ms", &["--dist-workers"]),
    ("--dist-handshake-ms", &["--dist-workers"]),
    ("--wedge-first-handshake", &["--dist-workers"]),
    ("--dist-hb-ms", &["--dist-workers", "--worker"]),
    ("--worker-wedge-handshake", &["--worker"]),
    ("--matrix-kernels", &["--matrix"]),
    ("--matrix-workloads", &["--matrix"]),
    ("--matrix-subsystems", &["--matrix"]),
    ("--check", &["--matrix"]),
];

/// The kernel variants `--matrix-kernels` can name.
const MATRIX_KERNELS: [&str; 2] = ["base", "server"];

/// The `--help` text shared by the repro binaries (they differ only in
/// which outputs they print, not in which knobs they accept).
const USAGE: &str = "\
usage: repro_all [OPTIONS]

Regenerates the paper's tables and figures (campaigns A/B/C); --csv
additionally dumps the raw dataset (run records, then per-campaign
metrics) as CSV on stdout.

General:
  --full                paper-scale: every byte of every target instruction
  --cap N               injections per function per campaign (default 16)
  --seed N              campaign RNG seed (default 2003)
  --threads N           host worker threads (default: available parallelism)
  --cpus N              guest CPUs per simulated machine (default 1 — the
                        golden configuration; N>1 builds the SMP kernel so
                        the extra CPUs come online; the guest interleaving
                        is a pure function of the machine's scheduler seed
                        and quantum, never of host scheduling, so the
                        dataset stays bit-identical at any --threads)
  --no-assertions       build the kernel without BUG() assertions (ablation)
  --sanitize            per-step architectural-state sanitizer on the rig
  --no-memo             boot + capture goldens per rig and reboot after
                        every crash instead of sharing one snapshot and its
                        memos (results bit-identical; CI proof knob)
  --csv                 dump the raw dataset as CSV on stdout

Supervisor:
  --journal PATH        checkpoint every run to PATH (in matrix mode PATH
                        is the per-cell journal directory)
  --resume              resume from --journal instead of truncating it
  --quarantine DIR      minimal-repro artifacts for persistent offenders
  --wall-budget-ms N    per-run wall-clock watchdog budget

Campaign matrix:
  --matrix              run kernel x workload x subsystem cells instead of
                        the paper's three campaigns
  --matrix-kernels L    comma list of base|server (default: both)
  --matrix-workloads L  comma list of traffic workloads (default: all four)
  --matrix-subsystems L comma list of subsystems (default: ipc,net)
  --check               assert the matrix invariants, nonzero exit on
                        violation (the CI smoke hook)

  Every cell plans with its own RNG seeded as
      cell_seed = seed ^ fnv1a(\"kernel/workload/subsystem\")
  (64-bit FNV-1a over the cell key). Cells are therefore independent of
  each other and of the grid shape: adding or removing axes never
  perturbs another cell's plan, and any one cell reproduces alone by
  narrowing --matrix-kernels/--matrix-workloads/--matrix-subsystems.

Distributed runner:
  --dist-workers N      shard campaigns over N worker subprocesses under
                        lease-based fault tolerance
  --chaos SEED          chaos harness: randomly kill/stall/crash workers
  --dist-hb-ms N        worker heartbeat interval (ms)
  --dist-hb-budget-ms N coordinator silence budget before lease expiry (ms)
  --dist-handshake-ms N coordinator budget for worker boot+handshake (ms)

Test-only: --inject-panic I,J,...  --inject-panic-persistent I,J,...
           --worker  --worker-wedge-handshake  --wedge-first-handshake
";

impl ReproOptions {
    /// Parses `--full`, `--cap N`, `--seed N`, `--threads N`,
    /// `--cpus N`, `--no-assertions`, `--journal PATH`, `--resume`,
    /// `--quarantine DIR`, `--sanitize`, `--wall-budget-ms N`,
    /// `--no-memo`, the matrix flags (`--matrix`,
    /// `--matrix-kernels LIST`, `--matrix-workloads LIST`,
    /// `--matrix-subsystems LIST`, `--check`), the distributed-runner
    /// flags (`--dist-workers N`, `--chaos SEED`, `--worker`,
    /// `--dist-hb-ms N`, `--dist-hb-budget-ms N`,
    /// `--dist-handshake-ms N`, plus the test-only
    /// `--worker-wedge-handshake` / `--wedge-first-handshake`) and the
    /// test-only `--inject-panic I,J,...` /
    /// `--inject-panic-persistent I,J,...` from the process arguments.
    /// `--help`/`-h` prints the usage text — including the per-cell
    /// matrix RNG derivation — and exits. A missing value of any flag
    /// that takes one, a malformed value of any numeric flag (`--cap`,
    /// `--seed`, `--threads`, `--cpus`, `--wall-budget-ms`,
    /// `--dist-workers`, `--chaos`, `--dist-hb-ms`,
    /// `--dist-hb-budget-ms`, `--dist-handshake-ms`), zero `--cpus`,
    /// `--threads` or `--dist-workers`, a non-number in an
    /// `--inject-panic` list, any unknown argument, a flag given without
    /// the flag that selects its mode (`--resume` without `--journal`,
    /// a matrix flag without `--matrix`, a distributed-runner flag
    /// without `--dist-workers` or `--worker`), and an unknown name in a
    /// matrix axis list print the usage text to stderr and exit 2.
    pub fn from_args() -> ReproOptions {
        ReproOptions::parse(&std::env::args().collect::<Vec<_>>())
    }

    /// [`ReproOptions::from_args`] over `args`, whose first element is
    /// the program name.
    pub fn parse(args: &[String]) -> ReproOptions {
        let mut o = ReproOptions::default();
        let mut given = Vec::new();
        let mut i = 1;
        while i < args.len() {
            given.push(args[i].clone());
            match args[i].as_str() {
                "--full" => o.cap = None,
                "--cap" => {
                    i += 1;
                    o.cap = Some(number_arg(args, i));
                }
                "--seed" => {
                    i += 1;
                    o.seed = number_arg(args, i);
                }
                "--threads" => {
                    i += 1;
                    o.threads = count_arg(args, i);
                }
                "--no-assertions" => o.no_assertions = true,
                "--cpus" => {
                    i += 1;
                    o.cpus = count_arg(args, i);
                }
                "--help" | "-h" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                "--journal" => {
                    i += 1;
                    o.journal = Some(text_arg(args, i).into());
                }
                "--resume" => o.resume = true,
                "--quarantine" => {
                    i += 1;
                    o.quarantine = Some(text_arg(args, i).into());
                }
                "--sanitize" => o.sanitize = true,
                "--no-memo" => o.no_memo = true,
                "--matrix" => o.matrix = true,
                "--matrix-kernels" => {
                    i += 1;
                    o.matrix_kernels = Some(text_arg(args, i));
                }
                "--matrix-workloads" => {
                    i += 1;
                    o.matrix_workloads = Some(text_arg(args, i));
                }
                "--matrix-subsystems" => {
                    i += 1;
                    o.matrix_subsystems = Some(text_arg(args, i));
                }
                "--check" => o.check = true,
                "--dist-workers" => {
                    i += 1;
                    o.dist_workers = Some(count_arg(args, i));
                }
                "--chaos" => {
                    i += 1;
                    o.chaos = Some(number_arg(args, i));
                }
                "--worker" => o.worker = true,
                "--worker-wedge-handshake" => o.worker_wedge_handshake = true,
                "--wedge-first-handshake" => o.wedge_first_handshake = true,
                "--dist-hb-ms" => {
                    i += 1;
                    o.dist_hb_ms = number_arg(args, i);
                }
                "--dist-hb-budget-ms" => {
                    i += 1;
                    o.dist_hb_budget_ms = number_arg(args, i);
                }
                "--dist-handshake-ms" => {
                    i += 1;
                    o.dist_handshake_ms = number_arg(args, i);
                }
                "--wall-budget-ms" => {
                    i += 1;
                    o.wall_budget_ms = Some(number_arg(args, i));
                }
                "--inject-panic" => {
                    i += 1;
                    let list = flag_value(args, i, "a list of run indices", parse_index_list);
                    o.inject_panic = PanicInjection::Transient(list);
                }
                "--inject-panic-persistent" => {
                    i += 1;
                    let list = flag_value(args, i, "a list of run indices", parse_index_list);
                    o.inject_panic = PanicInjection::Persistent(list);
                }
                "--csv" => {} // handled by the binaries themselves
                other => {
                    eprintln!("unknown argument `{other}`\n");
                    eprint!("{USAGE}");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        for (flag, modes) in MODE_FLAGS {
            let has = |f: &str| given.iter().any(|g| g == f);
            if has(flag) && !modes.iter().any(|m| has(m)) {
                eprintln!("{flag} needs {}\n", modes.join(" or "));
                eprint!("{USAGE}");
                std::process::exit(2);
            }
        }
        check_names("--matrix-kernels", o.matrix_kernels.as_deref(), &MATRIX_KERNELS);
        check_names(
            "--matrix-workloads",
            o.matrix_workloads.as_deref(),
            &kfi_workloads::Suite::Traffic.workloads(),
        );
        check_names(
            "--matrix-subsystems",
            o.matrix_subsystems.as_deref(),
            &kfi_trace::subsystem::NAMES,
        );
        o
    }

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
    /// `server`, which [`ReproOptions::from_args`] already refuses.
    pub fn matrix_config(&self) -> kfi_core::MatrixConfig {
        let list = |s: &Option<String>| s.as_deref().map(name_list);
        let defaults = kfi_core::MatrixConfig::default();
        let kernel_names = list(&self.matrix_kernels)
            .unwrap_or_else(|| defaults.kernels.iter().map(|(n, _)| n.clone()).collect());
        let kernels = kernel_names
            .into_iter()
            .map(|n| {
                let opts = match n.as_str() {
                    "base" => KernelBuildOptions {
                        assertions: !self.no_assertions,
                        smp: self.cpus > 1,
                        ..Default::default()
                    },
                    "server" => KernelBuildOptions {
                        assertions: !self.no_assertions,
                        server: true,
                        smp: self.cpus > 1,
                        ..Default::default()
                    },
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
            max_per_cell: None,
            profiler: ProfilerConfig::default(),
            rig: RigConfig { sanitizer: self.sanitize, cpus: self.cpus, ..RigConfig::default() },
            suite: kfi_workloads::Suite::Traffic,
            journal_dir: self.journal.clone(),
            resume: self.resume,
        }
    }

    /// The argument vector that turns this binary into a worker with
    /// the same plan-determining configuration (seed, cap, kernel and
    /// rig flags) as the coordinator. Scheduling-only flags (threads,
    /// journal, dist pool shape) deliberately do not propagate: the
    /// worker runs single-threaded and only the coordinator journals.
    pub fn to_worker_args(&self) -> Vec<String> {
        let mut a: Vec<String> =
            ["--worker", "--threads", "1"].iter().map(|s| s.to_string()).collect();
        a.push("--seed".into());
        a.push(self.seed.to_string());
        match self.cap {
            Some(cap) => {
                a.push("--cap".into());
                a.push(cap.to_string());
            }
            None => a.push("--full".into()),
        }
        if self.no_assertions {
            a.push("--no-assertions".into());
        }
        if self.cpus != 1 {
            a.push("--cpus".into());
            a.push(self.cpus.to_string());
        }
        if self.sanitize {
            a.push("--sanitize".into());
        }
        if self.no_memo {
            a.push("--no-memo".into());
        }
        if let Some(ms) = self.wall_budget_ms {
            a.push("--wall-budget-ms".into());
            a.push(ms.to_string());
        }
        a.push("--dist-hb-ms".into());
        a.push(self.dist_hb_ms.to_string());
        a
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

/// Runs the campaign matrix, printing per-cell progress on stderr.
///
/// # Panics
///
/// Panics when a kernel variant fails to build, a workload does not
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
    let m = kfi_core::run_matrix(&cfg).expect("matrix runs");
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

/// Runs all three campaigns over a pool of worker subprocesses,
/// printing progress and a machine-greppable coordinator summary on
/// stderr. The stdout dataset is byte-identical to the in-process
/// supervisor run of the same plan — at any worker count and under any
/// chaos schedule.
///
/// # Panics
///
/// Panics when the journal cannot be opened or its seed does not match.
pub fn run_study_dist(
    exp: &Experiment,
    opts: &ReproOptions,
) -> (StudyResult, kfi_core::DistReport) {
    let exe = std::env::current_exe().expect("current exe resolves");
    let cfg = opts.dist_config(exe);
    eprintln!(
        "[kfi] dist: campaigns A/B/C over {} functions across {} workers{}...",
        exp.target_functions.len(),
        cfg.workers,
        cfg.chaos.map(|s| format!(" (chaos seed {s})")).unwrap_or_default()
    );
    let dist = kfi_core::run_study_dist(exp, &cfg).expect("journal usable");
    let study = dist.study;
    for (l, r) in &study.campaigns {
        let t = r.total();
        eprintln!(
            "[kfi] campaign {l}: {} injected, {} activated, {} crash/hang",
            t.injected,
            t.activated,
            t.crash_or_hang()
        );
    }
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
    if cfg.journal.is_some() {
        eprintln!(
            "[kfi] journal: {} runs resumed, {} fsync batches",
            rep.resumed_runs, rep.journal_flushes
        );
    }
    (study, dist.report)
}

/// Runs all three campaigns, printing progress.
pub fn run_study(exp: &Experiment) -> StudyResult {
    run_study_supervised(exp, &SupervisorConfig::default()).0
}

/// Runs all three campaigns under the given supervisor policy,
/// printing progress and the supervisor summary on stderr. The stdout
/// dataset is unaffected by the policy: a resumed campaign prints
/// byte-identical results to an uninterrupted one.
///
/// # Panics
///
/// Panics when the journal cannot be opened or its seed does not match
/// — continuing would silently discard the requested checkpoints.
pub fn run_study_supervised(
    exp: &Experiment,
    cfg: &SupervisorConfig,
) -> (StudyResult, SupervisorReport) {
    eprintln!(
        "[kfi] running campaigns A/B/C over {} functions (cap {:?}, {} threads)...",
        exp.target_functions.len(),
        exp.config.max_per_function,
        exp.config.threads
    );
    let supervised = kfi_core::run_study_supervised(exp, cfg).expect("journal usable");
    let study = supervised.study;
    for (l, r) in &study.campaigns {
        let t = r.total();
        eprintln!(
            "[kfi] campaign {l}: {} injected, {} activated, {} crash/hang",
            t.injected,
            t.activated,
            t.crash_or_hang()
        );
    }
    if let Some(stats) = exp.severity_stats() {
        eprintln!("[kfi] severity: {stats}");
    }
    if let Some(stats) = exp.checkpoint_stats() {
        eprintln!("[kfi] checkpoints: {stats}");
    }
    let rep = &supervised.report;
    if cfg.journal.is_some() {
        eprintln!(
            "[kfi] journal: {} runs resumed, {} fsync batches",
            rep.resumed_runs, rep.journal_flushes
        );
    }
    if rep.rig_panics + rep.retries + rep.quarantined_runs + rep.watchdog_fired > 0
        || rep.workers_lost > 0
    {
        eprintln!(
            "[kfi] supervisor: {} panics caught, {} retries, {} quarantined, \
             {} watchdog aborts, {} workers lost",
            rep.rig_panics, rep.retries, rep.quarantined_runs, rep.watchdog_fired, rep.workers_lost
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
    (study, supervised.report)
}
