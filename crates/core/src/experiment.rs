//! Experiment orchestration: kernel build → profiling → target
//! selection → parallel campaign execution.

use crate::stats;
use kfi_injector::{
    plan_function, Campaign, InjectionTarget, InjectorRig, RigConfig, RigShared, RunRecord,
};
use kfi_kernel::{build_kernel, mkfs::FileSpec, KernelBuildOptions, KernelImage};
use kfi_profiler::{profile_golden_runs, KernelProfile, ProfilerConfig};
use kfi_trace::Metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Experiment-wide configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// RNG seed: campaigns are exactly reproducible for a given seed.
    pub seed: u64,
    /// Fraction of profiling values the target set must cover (the
    /// paper's 95%).
    pub top_fraction: f64,
    /// Cap on planned injections per function per campaign (None = all,
    /// as in the paper; small values give quick scaled-down runs).
    pub max_per_function: Option<usize>,
    /// Worker threads for campaign execution.
    pub threads: usize,
    /// Kernel build options (assertions on/off for the ablation).
    pub kernel: KernelBuildOptions,
    /// Profiler settings.
    pub profiler: ProfilerConfig,
    /// Rig settings.
    pub rig: RigConfig,
    /// Workload suite driving the guest: the paper's eight UnixBench
    /// analogs (default — the golden-corpus configuration) or the
    /// traffic-shaped extension ([`kfi_workloads::Suite::Traffic`]).
    /// Selects the filesystem contents, the profiled workload list, and
    /// the number of golden run modes.
    pub suite: kfi_workloads::Suite,
    /// Whether workers fork one shared post-boot base
    /// ([`kfi_injector::RigShared`]: one boot and one capture of the
    /// golden runs per experiment, with its prefix checkpoints and memo
    /// of post-crash severity verdicts) instead of each forking a
    /// private base of its own ([`InjectorRig::new`]), which boots,
    /// captures the goldens, starts every run at the snapshot and
    /// reboots after every crash. With one guest CPU the shared base is
    /// the one [`Experiment::prepare`] profiled. Default `true`; the
    /// `false` position is the recompute-per-rig reference path —
    /// results are bit-identical either way (`tests/golden_memo.rs`).
    pub memoize: bool,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            seed: 2003,
            top_fraction: 0.95,
            max_per_function: None,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            kernel: KernelBuildOptions::default(),
            profiler: ProfilerConfig::default(),
            rig: RigConfig::default(),
            suite: kfi_workloads::Suite::Paper,
            memoize: true,
        }
    }
}

/// The paper's four injected subsystems.
pub const INJECTED_SUBSYSTEMS: [&str; 4] = ["arch", "fs", "kernel", "mm"];

/// A prepared experiment: built kernel, workload files, kernel profile
/// and the selected target functions.
pub struct Experiment {
    /// Configuration used.
    pub config: ExperimentConfig,
    /// The kernel under test.
    pub image: KernelImage,
    /// Workload files installed in the filesystem image.
    pub files: Vec<FileSpec>,
    /// The Kernprof-equivalent profile.
    pub profile: KernelProfile,
    /// The core target functions (top functions covering
    /// `top_fraction` of samples, restricted to the four subsystems) —
    /// the paper's "top 32".
    pub target_functions: Vec<String>,
    /// Shared post-boot base for the memoized rig path, forked by
    /// every rig (including supervisor rebuild-on-panic). With one
    /// guest CPU it is the base [`Experiment::prepare`] profiled;
    /// otherwise the first [`Experiment::make_rig`] boots it and
    /// captures its golden runs, and failures are memoized the same
    /// way. Untouched when [`ExperimentConfig::memoize`] is off.
    shared_base: OnceLock<Result<Arc<RigShared>, String>>,
}

/// Results of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Which campaign.
    pub campaign: Campaign,
    /// Every run record.
    pub records: Vec<RunRecord>,
    /// Number of distinct functions injected.
    pub functions_injected: usize,
    /// Execution metrics, merged across workers in worker-index order
    /// (merge is pure addition, so the result is identical for any
    /// thread count).
    pub metrics: Metrics,
}

/// Results of the full study (all three campaigns).
#[derive(Debug, Clone)]
pub struct StudyResult {
    /// Per-campaign results.
    pub campaigns: BTreeMap<char, CampaignResult>,
    /// Seed used.
    pub seed: u64,
}

impl Experiment {
    /// Builds the kernel + workloads and profiles the kernel, selecting
    /// the top functions (paper Section 4).
    ///
    /// The profile samples the golden runs of a uniprocessor base
    /// ([`profile_golden_runs`]), also for SMP rigs. With
    /// [`ExperimentConfig::memoize`] on and one guest CPU, that base is
    /// the shared base every rig forks, so the kernel boots once and
    /// each golden run executes once per experiment.
    ///
    /// # Errors
    ///
    /// Returns a description when the kernel or a workload fails to
    /// assemble (programming error in the guest sources), or when the
    /// boot or a golden run fails (naming the mode and the console).
    pub fn prepare(config: ExperimentConfig) -> Result<Experiment, String> {
        let image = build_kernel(config.kernel).map_err(|e| e.to_string())?;
        let files = config.suite.files().map_err(|e| e.to_string())?;
        let workloads = config.suite.workloads();
        let rig = RigConfig { cpus: 1, ..config.rig };
        let (base, profile) =
            profile_golden_runs(&image, &files, &workloads, &config.profiler, rig)
                .map_err(|e| format!("profiling the golden runs: {e}"))?;
        let shared_base = if config.memoize && config.rig.cpus == 1 {
            OnceLock::from(Ok(base))
        } else {
            OnceLock::new()
        };
        let target_functions: Vec<String> = profile
            .top_covering(config.top_fraction)
            .into_iter()
            .filter(|f| INJECTED_SUBSYSTEMS.contains(&f.subsystem.as_str()))
            .map(|f| f.name.clone())
            .collect();
        Ok(Experiment { config, image, files, profile, target_functions, shared_base })
    }

    /// A copy of this experiment with a different worker-thread count.
    ///
    /// The shared post-boot base travels with the copy (it is
    /// thread-count independent), so sweeping thread counts — as the
    /// campaign benchmarks do — boots and captures goldens only once.
    pub fn with_threads(&self, threads: usize) -> Experiment {
        Experiment {
            config: ExperimentConfig { threads, ..self.config.clone() },
            image: self.image.clone(),
            files: self.files.clone(),
            profile: self.profile.clone(),
            target_functions: self.target_functions.clone(),
            shared_base: self.shared_base.clone(),
        }
    }

    /// The function set injected by a campaign. All campaigns target the
    /// core functions; following the paper's footnote 2 ("the total
    /// number of functions injected in a given campaign is much larger,
    /// and different for each campaign"), campaign A additionally covers
    /// every *profiled* function of the four subsystems, while B and C
    /// cover every function of the four subsystems (branches are sparse,
    /// so breadth is needed for statistics).
    pub fn functions_for(&self, campaign: Campaign) -> Vec<String> {
        let mut set: Vec<String> = self.target_functions.clone();
        let push = |name: &str, set: &mut Vec<String>| {
            if !set.iter().any(|f| f == name) {
                set.push(name.to_string());
            }
        };
        match campaign {
            Campaign::A => {
                for f in &self.profile.functions {
                    if INJECTED_SUBSYSTEMS.contains(&f.subsystem.as_str()) {
                        push(&f.name, &mut set);
                    }
                }
            }
            Campaign::B | Campaign::C => {
                for sym in self.image.program.symbols.functions() {
                    if let Some(sub) = sym.subsystem.as_deref() {
                        if INJECTED_SUBSYSTEMS.contains(&sub) {
                            push(&sym.name, &mut set);
                        }
                    }
                }
            }
        }
        set
    }

    /// Plans a campaign's targets over [`Experiment::functions_for`].
    pub fn plan(&self, campaign: Campaign) -> Vec<InjectionTarget> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ (campaign.letter() as u64) << 32);
        let mut out = Vec::new();
        for f in self.functions_for(campaign) {
            let mut t = plan_function(&self.image, &f, campaign, &mut rng);
            if let Some(cap) = self.config.max_per_function {
                t.truncate(cap);
            }
            out.extend(t);
        }
        out
    }

    /// Picks the workload (run mode) for a target: the workload that
    /// activates the target's function the most in the profile.
    pub fn mode_for(&self, target: &InjectionTarget) -> u32 {
        self.profile.best_workload_for(&target.function).unwrap_or(0)
    }

    /// A campaign's plan with each target's run mode: the jobs every
    /// campaign runner executes and the plan fingerprint hashes.
    pub fn planned(&self, campaign: Campaign) -> Vec<(InjectionTarget, u32)> {
        self.plan(campaign)
            .into_iter()
            .map(|t| {
                let mode = self.mode_for(&t);
                (t, mode)
            })
            .collect()
    }

    /// Builds an injection rig (one per worker thread).
    ///
    /// With [`ExperimentConfig::memoize`] on (the default) this forks
    /// the shared post-boot base — booting it first if this is the
    /// first rig of an SMP experiment — so the kernel boots once per
    /// rig configuration and each golden run executes once
    /// campaign-wide. With it off, every call boots and captures a
    /// private base and forks it (the reference path). Either way a
    /// fresh, uncontaminated rig is returned: the supervisor's
    /// rebuild-on-panic path calls this and must never inherit state
    /// from the rig it is replacing.
    ///
    /// # Errors
    ///
    /// Propagates boot/golden-run failures as a string.
    pub fn make_rig(&self) -> Result<InjectorRig, String> {
        if self.config.memoize {
            let shared = self.shared_base()?;
            InjectorRig::fork(&shared).map_err(|e| e.to_string())
        } else {
            InjectorRig::new(
                self.image.clone(),
                &self.files,
                self.config.suite.n_modes(),
                self.config.rig,
            )
            .map_err(|e| e.to_string())
        }
    }

    /// The shared post-boot base, booting it on first call unless
    /// [`Experiment::prepare`] already did. Concurrent first calls block
    /// until the one boot finishes; failures are memoized.
    ///
    /// # Errors
    ///
    /// Propagates boot failures as a string.
    pub fn shared_base(&self) -> Result<Arc<RigShared>, String> {
        self.shared_base
            .get_or_init(|| {
                RigShared::boot(
                    self.image.clone(),
                    &self.files,
                    self.config.suite.n_modes(),
                    self.config.rig,
                )
                .map_err(|e| e.to_string())
            })
            .clone()
    }

    /// How the shared base's crashes got their severity verdicts so far
    /// ([`RigShared::severity_stats`]). `None` when the base has not been
    /// booted (memoization off, or an SMP experiment with no rig made
    /// yet).
    pub fn severity_stats(&self) -> Option<kfi_injector::SeverityStats> {
        let shared = self.shared_base.get()?.as_ref().ok()?;
        Some(shared.severity_stats())
    }

    /// How the shared base's injection runs used prefix checkpoints so
    /// far ([`RigShared::checkpoint_stats`]). `None` when the base has
    /// not been booted (memoization off, or an SMP experiment with no
    /// rig made yet).
    pub fn checkpoint_stats(&self) -> Option<kfi_injector::CheckpointStats> {
        let shared = self.shared_base.get()?.as_ref().ok()?;
        Some(shared.checkpoint_stats())
    }

    /// Runs one campaign, fanning the planned targets across
    /// supervised worker threads (each with its own machine + rig).
    ///
    /// This is [`crate::supervisor::run_plan_supervised`] over
    /// [`Experiment::planned`] with the default [`SupervisorConfig`]:
    /// panicking runs are contained and retried on a fresh rig
    /// (persistent offenders become [`kfi_injector::Outcome::RigFault`]
    /// records), a dead worker's jobs flow to the survivors, and the
    /// campaign always completes with one record per planned target.
    /// Records are in plan order and metrics totals are identical for
    /// any thread count.
    ///
    /// [`SupervisorConfig`]: crate::supervisor::SupervisorConfig
    pub fn run_campaign(&self, campaign: Campaign) -> CampaignResult {
        let cfg = crate::supervisor::SupervisorConfig::default();
        crate::supervisor::run_plan_supervised(self, campaign, self.planned(campaign), &cfg)
            .expect("supervisor without a journal cannot fail")
            .result
    }

    /// Runs all three campaigns, as [`crate::supervisor::run_study_supervised`]
    /// does with the default [`SupervisorConfig`].
    ///
    /// [`SupervisorConfig`]: crate::supervisor::SupervisorConfig
    pub fn run_all(&self) -> StudyResult {
        let cfg = crate::supervisor::SupervisorConfig::default();
        crate::supervisor::run_study_supervised(self, &cfg)
            .expect("supervisor without a journal cannot fail")
            .study
    }
}

impl CampaignResult {
    /// Per-subsystem outcome tallies (the Figure 4 tables).
    pub fn tallies(&self) -> BTreeMap<String, stats::OutcomeTally> {
        stats::tally_by_subsystem(&self.records)
    }

    /// Overall tally.
    pub fn total(&self) -> stats::OutcomeTally {
        stats::tally(&self.records)
    }
}
