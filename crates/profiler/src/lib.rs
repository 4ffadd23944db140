//! # kfi-profiler — Kernprof-equivalent kernel profiling
//!
//! Samples the simulated program counter at a fixed cycle period while
//! the benchmark suite runs (exactly the paper's methodology: "each
//! activated kernel function is associated with a *profiling value* that
//! indicates the number of times the sampled program counter falls into
//! a given function"). The runs it samples are the golden (fault-free)
//! runs the injector compares every injection with, so profiling costs
//! one boot and one run per workload. The output drives
//!
//! * Table 1 — function distribution among kernel modules, and the
//!   top-N functions covering ≥95% of all profiling values, and
//! * the injector's choice of which workload to run when targeting a
//!   given function.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kfi_injector::{RigConfig, RigError, RigShared};
use kfi_kernel::{mkfs::FileSpec, KernelImage};
use kfi_machine::{Cpu, KERNEL_CS};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One profiled kernel function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionProfile {
    /// Function name.
    pub name: String,
    /// Subsystem tag (`arch`, `fs`, `kernel`, `mm`, `drivers`, `lib`,
    /// `ipc`, `net`, `init`).
    pub subsystem: String,
    /// Start address.
    pub addr: u32,
    /// Size in bytes.
    pub size: u32,
    /// Profiling value: number of PC samples that fell in the function.
    pub samples: u64,
    /// Per-workload sample counts (indexed by run mode).
    pub per_workload: Vec<u64>,
}

/// A complete kernel profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Profiled functions, sorted by descending profiling value.
    pub functions: Vec<FunctionProfile>,
    /// Total samples landing in known kernel functions.
    pub total_samples: u64,
    /// Samples in kernel mode but outside any known function.
    pub unknown_samples: u64,
    /// Samples in user mode (not attributed).
    pub user_samples: u64,
    /// The sampling period in cycles.
    pub period: u64,
}

/// Profiler configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProfilerConfig {
    /// Sampling period in cycles (Kernprof used timer-driven sampling).
    pub period: u64,
}

impl Default for ProfilerConfig {
    fn default() -> ProfilerConfig {
        ProfilerConfig { period: 211 }
    }
}

/// The sampling rule: after each executed step, once the TSC has
/// reached the next multiple of the period, the PC (`cs:eip`) is
/// attributed to a kernel function, to unknown kernel code or to user
/// mode. The golden capture shows it every executed step, inside the
/// block engine too ([`RigShared::boot_and_capture`]), so sampling cuts
/// no block short.
#[derive(Debug, Clone)]
struct PcSampler<'a> {
    image: &'a KernelImage,
    period: u64,
    next: u64,
    /// Samples per function start address.
    functions: BTreeMap<u32, u64>,
    unknown: u64,
    user: u64,
}

impl<'a> PcSampler<'a> {
    fn new(image: &'a KernelImage, period: u64) -> PcSampler<'a> {
        PcSampler { image, period, next: period, functions: BTreeMap::new(), unknown: 0, user: 0 }
    }

    fn observe(&mut self, cpu: &Cpu) {
        if cpu.tsc < self.next {
            return;
        }
        while self.next <= cpu.tsc {
            self.next += self.period;
        }
        if cpu.cs != KERNEL_CS {
            self.user += 1;
        } else if let Some(f) = self.image.function_of(cpu.eip) {
            *self.functions.entry(f.value).or_default() += 1;
        } else {
            self.unknown += 1;
        }
    }
}

/// Profiles the kernel by running each workload (modes `0..n`) once and
/// sampling the PC every `config.period` cycles, on a uniprocessor
/// guest with the default [`RigConfig`].
///
/// # Panics
///
/// Panics if a profiling run does not reach a clean halt (the golden
/// environment must be healthy before experiments start).
pub fn profile(
    image: &KernelImage,
    files: &[FileSpec],
    workloads: &[&str],
    config: &ProfilerConfig,
) -> KernelProfile {
    match profile_golden_runs(image, files, workloads, config, RigConfig::default()) {
        Ok((_, profile)) => profile,
        Err(e) => panic!("profiling run failed: {e}"),
    }
}

/// Boots one base with `rig` ([`RigShared::boot_and_capture`]) and
/// profiles its golden runs: the boot is sampled once, and each mode's
/// run continues from a copy of the post-boot sampler, so each mode's
/// counts are what booting and running that mode alone would give. The
/// runner reads the run mode only after the snapshot point, so one boot
/// serves every mode. Returns the base, which holds the golden run it
/// captured for every mode, with the profile. The PC is sampled on the
/// active CPU, so pass `rig.cpus == 1` for the uniprocessor profile.
///
/// # Errors
///
/// The boot or a golden run failing ([`RigError`] names the mode and
/// the console).
pub fn profile_golden_runs(
    image: &KernelImage,
    files: &[FileSpec],
    workloads: &[&str],
    config: &ProfilerConfig,
    rig: RigConfig,
) -> Result<(Arc<RigShared>, KernelProfile), RigError> {
    let n_modes = workloads.len();
    let mut boot = PcSampler::new(image, config.period);
    let mut runs: Vec<PcSampler> = Vec::with_capacity(n_modes);
    let base =
        RigShared::boot_and_capture(image.clone(), files, n_modes as u32, rig, |mode, cpu| {
            match mode {
                None => boot.observe(cpu),
                Some(mode) => {
                    // Modes are captured in order: a mode's first
                    // observed step starts its copy of the boot sampler.
                    let mode = mode as usize;
                    if runs.len() <= mode {
                        runs.resize(mode + 1, boot.clone());
                    }
                    runs[mode].observe(cpu);
                }
            }
        })?;
    // A run with no observed step sampled nothing after the boot.
    runs.resize(n_modes, boot.clone());

    let mut counts: BTreeMap<u32, Vec<u64>> = BTreeMap::new(); // fn addr -> per-mode samples
    let (mut unknown, mut user) = (0, 0);
    for (mode, run) in runs.into_iter().enumerate() {
        for (addr, n) in run.functions {
            counts.entry(addr).or_insert_with(|| vec![0; n_modes])[mode] += n;
        }
        unknown += run.unknown;
        user += run.user;
    }
    Ok((base, from_counts(image, counts, unknown, user, config.period)))
}

/// The profile of per-mode sample counts by function start address.
fn from_counts(
    image: &KernelImage,
    counts: BTreeMap<u32, Vec<u64>>,
    unknown: u64,
    user: u64,
    period: u64,
) -> KernelProfile {
    let mut functions: Vec<FunctionProfile> = counts
        .into_iter()
        .filter_map(|(addr, per_workload)| {
            let sym = image.function_of(addr)?;
            Some(FunctionProfile {
                name: sym.name.clone(),
                subsystem: sym.subsystem.clone().unwrap_or_else(|| "?".into()),
                addr,
                size: sym.size,
                samples: per_workload.iter().sum(),
                per_workload,
            })
        })
        .collect();
    functions.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.name.cmp(&b.name)));
    let total_samples = functions.iter().map(|f| f.samples).sum();
    KernelProfile { functions, total_samples, unknown_samples: unknown, user_samples: user, period }
}

impl KernelProfile {
    /// The smallest prefix of top functions whose profiling values cover
    /// at least `fraction` (e.g. 0.95) of all samples — the paper's
    /// "top 32 functions account for 95% of all profiling values".
    pub fn top_covering(&self, fraction: f64) -> Vec<&FunctionProfile> {
        let want = (self.total_samples as f64 * fraction).ceil() as u64;
        let mut acc = 0;
        let mut out = Vec::new();
        for f in &self.functions {
            if acc >= want {
                break;
            }
            acc += f.samples;
            out.push(f);
        }
        out
    }

    /// Per-subsystem `(profiled function count, sample total)`.
    pub fn by_subsystem(&self) -> BTreeMap<String, (usize, u64)> {
        let mut map: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        for f in &self.functions {
            let e = map.entry(f.subsystem.clone()).or_insert((0, 0));
            e.0 += 1;
            e.1 += f.samples;
        }
        map
    }

    /// The run mode (workload index) that activates `function` the most,
    /// if any workload does.
    pub fn best_workload_for(&self, function: &str) -> Option<u32> {
        let f = self.functions.iter().find(|f| f.name == function)?;
        let (best, n) = f.per_workload.iter().enumerate().max_by_key(|(_, n)| **n)?;
        if *n == 0 {
            None
        } else {
            Some(best as u32)
        }
    }

    /// Looks up a function's profile entry.
    pub fn get(&self, function: &str) -> Option<&FunctionProfile> {
        self.functions.iter().find(|f| f.name == function)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfi_kernel::{boot, build_kernel, BootConfig, KernelBuildOptions};
    use kfi_machine::StepEvent;
    use kfi_workloads::Suite;

    fn sample_profile() -> (KernelImage, KernelProfile) {
        let image = build_kernel(KernelBuildOptions::default()).unwrap();
        let files = kfi_workloads::suite_files().unwrap();
        // Profile only three workloads to keep the test quick.
        let p = profile(
            &image,
            &files,
            &["context1", "dhry", "fstime"],
            &ProfilerConfig { period: 97 },
        );
        (image, p)
    }

    /// The reference profiler: one fresh boot per mode, with the mode
    /// set at boot, single-stepped to halt and sampled along the way.
    fn per_mode_boot_profile(
        image: &KernelImage,
        files: &[FileSpec],
        n_modes: usize,
        period: u64,
    ) -> KernelProfile {
        let fsimg = kfi_kernel::mkfs(2048, files);
        let mut counts: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let (mut unknown, mut user) = (0, 0);
        for mode in 0..n_modes {
            let config = BootConfig { run_mode: mode as u32, ..Default::default() };
            let mut m = boot(image, fsimg.disk.clone(), &config);
            let mut next_sample = period;
            loop {
                assert!(m.cpu.tsc < 120_000_000, "mode {mode} exceeded its budget");
                match m.step() {
                    StepEvent::Executed => {}
                    StepEvent::Halted => break,
                    other => panic!("mode {mode} ended with {other:?}"),
                }
                if m.cpu.tsc >= next_sample {
                    while next_sample <= m.cpu.tsc {
                        next_sample += period;
                    }
                    if m.cpu.cs == KERNEL_CS {
                        match image.function_of(m.cpu.eip) {
                            Some(f) => {
                                counts.entry(f.value).or_insert_with(|| vec![0; n_modes])[mode] +=
                                    1;
                            }
                            None => unknown += 1,
                        }
                    } else {
                        user += 1;
                    }
                }
            }
        }
        from_counts(image, counts, unknown, user, period)
    }

    fn assert_matches_per_mode_boots(kernel: KernelBuildOptions, suite: Suite, period: u64) {
        let image = build_kernel(kernel).unwrap();
        let files = suite.files().unwrap();
        let workloads = suite.workloads();
        let got = profile(&image, &files, &workloads, &ProfilerConfig { period });
        let want = per_mode_boot_profile(&image, &files, workloads.len(), period);
        assert!(want.user_samples > 0 && want.total_samples > 0);
        assert_eq!(got, want, "{kernel:?} {suite:?} period {period}");
    }

    #[test]
    fn golden_run_profile_equals_per_mode_boots() {
        // Period 1 samples after every observed step, so it also pins
        // which steps are observed: the boot step that announces the
        // runner is, a golden run's halting step is not.
        for period in [1, 97, 211, 997] {
            assert_matches_per_mode_boots(KernelBuildOptions::default(), Suite::Paper, period);
        }
    }

    #[test]
    fn golden_run_profile_equals_per_mode_boots_on_every_kernel_variant() {
        let smp = KernelBuildOptions { smp: true, ..Default::default() };
        let server = KernelBuildOptions { server: true, ..Default::default() };
        let no_assertions = KernelBuildOptions { assertions: false, ..Default::default() };
        assert_matches_per_mode_boots(smp, Suite::Paper, 211);
        assert_matches_per_mode_boots(server, Suite::Traffic, 211);
        assert_matches_per_mode_boots(no_assertions, Suite::Paper, 211);
    }

    #[test]
    fn profiling_finds_hot_kernel_functions() {
        let (_image, p) = sample_profile();
        assert!(p.total_samples > 100, "too few samples: {}", p.total_samples);
        assert!(!p.functions.is_empty());
        let names: Vec<&str> = p.functions.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"schedule"), "{names:?}");
        let top = p.top_covering(0.95);
        assert!(!top.is_empty());
        assert!(top.len() <= p.functions.len());
        let covered: u64 = top.iter().map(|f| f.samples).sum();
        assert!(covered as f64 >= 0.95 * p.total_samples as f64);
    }

    #[test]
    fn per_workload_attribution() {
        let (_image, p) = sample_profile();
        // pipe_read is driven by context1 (mode 0 here), not by dhry.
        if let Some(f) = p.get("pipe_read") {
            assert!(f.per_workload[0] > 0, "{f:?}");
        }
        if let Some(m) = p.best_workload_for("schedule") {
            assert!(m < 3);
        }
    }

    #[test]
    fn subsystem_rollup_sums_to_total() {
        let (_image, p) = sample_profile();
        let by = p.by_subsystem();
        let sum: u64 = by.values().map(|(_, s)| *s).sum();
        assert_eq!(sum, p.total_samples);
        let nfuncs: usize = by.values().map(|(n, _)| *n).sum();
        assert_eq!(nfuncs, p.functions.len());
    }
}
