//! The campaign matrix: `kernel config × workload × target subsystem`.
//!
//! The paper runs one kernel, one workload mix, and four subsystems.
//! The CentOS-like-OS fault study (PAPERS.md) shows the payoff of
//! running the *same* analysis as a matrix over kernel/workload
//! variants; this module does that for the reproduction. Each matrix
//! cell pins one kernel build, forces one workload (run mode) instead
//! of the profile-driven mode choice, and plans campaign-A injections
//! over every function of one subsystem. Cells execute through
//! [`run_plan_supervised`], so they inherit the whole supervised
//! machinery: panic-isolated workers, deterministic plan sharding
//! across any worker count, the plan-index reorder buffer in front of
//! per-cell journals, and `--resume`.
//!
//! Determinism contract: a cell's plan is a pure function of (kernel
//! image, subsystem, matrix seed, caps) — the per-cell RNG is seeded
//! from the matrix seed XOR an FNV-1a hash of the cell key, so cells
//! are independent of each other and of the grid they are embedded in.
//! Records, metrics, and journal bytes are identical at any worker
//! count and across interrupt/resume, per cell (`tests/matrix.rs`).

use crate::dataset::{metrics_csv_line, to_csv_line, RecordRow, CSV_HEADER, METRICS_CSV_HEADER};
use crate::dist::{fnv1a, FNV_OFFSET};
use crate::experiment::{CampaignResult, Experiment, ExperimentConfig};
use crate::supervisor::{run_plan_supervised, SupervisorConfig, SupervisorReport};
use kfi_injector::{plan_function, Campaign, InjectionTarget, RigConfig};
use kfi_kernel::KernelBuildOptions;
use kfi_profiler::ProfilerConfig;
use kfi_workloads::Suite;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// One cell key of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Kernel variant name (the first element of a
    /// [`MatrixConfig::kernels`] pair).
    pub kernel: String,
    /// Workload name (must resolve in the configured suite).
    pub workload: String,
    /// Target subsystem (every function tagged with it is planned).
    pub subsystem: String,
}

impl MatrixCell {
    /// The cell's stable string key, `kernel/workload/subsystem`.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.kernel, self.workload, self.subsystem)
    }
}

/// Matrix configuration: the three axes plus the shared campaign knobs.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Kernel variants: `(name, build options)`. One experiment (one
    /// boot + one golden set) is prepared per variant and shared by all
    /// of its cells.
    pub kernels: Vec<(String, KernelBuildOptions)>,
    /// Workload axis (each must resolve in [`MatrixConfig::suite`]).
    pub workloads: Vec<String>,
    /// Subsystem axis.
    pub subsystems: Vec<String>,
    /// Matrix seed; each cell derives its own plan RNG from it.
    pub seed: u64,
    /// Worker threads per cell campaign.
    pub threads: usize,
    /// Cap on planned injections per function (None = all).
    pub max_per_function: Option<usize>,
    /// Profiler settings for experiment preparation. The matrix forces
    /// each cell's run mode, so the profile never reaches its dataset.
    pub profiler: ProfilerConfig,
    /// Rig settings.
    pub rig: RigConfig,
    /// Workload suite installed in the guest filesystem.
    pub suite: Suite,
    /// Directory for per-cell journals (`matrix_<kernel>_<workload>_
    /// <subsystem>.journal`); `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// Resume each cell from its journal instead of truncating.
    pub resume: bool,
}

impl Default for MatrixConfig {
    fn default() -> MatrixConfig {
        MatrixConfig {
            kernels: vec![
                ("base".into(), KernelBuildOptions::default()),
                ("server".into(), KernelBuildOptions { server: true, ..Default::default() }),
            ],
            workloads: kfi_workloads::TRAFFIC_WORKLOADS.iter().map(|w| w.to_string()).collect(),
            subsystems: vec!["ipc".into(), "net".into()],
            seed: 2003,
            threads: 1,
            max_per_function: Some(2),
            profiler: ProfilerConfig::default(),
            rig: RigConfig::default(),
            suite: Suite::Traffic,
            journal_dir: None,
            resume: false,
        }
    }
}

/// One executed cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell key.
    pub cell: MatrixCell,
    /// The campaign result (records in plan order, merged metrics).
    pub result: CampaignResult,
    /// The supervisor's report for this cell.
    pub report: SupervisorReport,
}

/// The full matrix dataset.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// Cells in axis order: kernels × workloads × subsystems.
    pub cells: Vec<CellResult>,
    /// Matrix seed used.
    pub seed: u64,
}

/// Plans one cell: campaign-A targets over every function tagged with
/// the cell's subsystem, the workload's run mode forced on every
/// target, at most `max_per_function` per function and `max_per_cell`
/// in all (`None` = no cap).
///
/// # Errors
///
/// The workload not resolving in the experiment's suite.
pub fn plan_cell(
    exp: &Experiment,
    cell: &MatrixCell,
    seed: u64,
    max_per_function: Option<usize>,
    max_per_cell: Option<usize>,
) -> Result<Vec<(InjectionTarget, u32)>, String> {
    let mode = exp.config.suite.mode_of(&cell.workload).ok_or_else(|| {
        format!("workload `{}` not in suite {:?}", cell.workload, exp.config.suite)
    })?;
    // FNV-1a of the key perturbs the seed. It is stable by construction
    // (no `DefaultHasher`, whose output may change between Rust
    // releases, in anything feeding a golden surface).
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(FNV_OFFSET, cell.key().as_bytes()));
    let mut out = Vec::new();
    for sym in exp.image.program.symbols.functions() {
        if sym.subsystem.as_deref() != Some(cell.subsystem.as_str()) {
            continue;
        }
        let mut t = plan_function(&exp.image, &sym.name, Campaign::A, &mut rng);
        if let Some(cap) = max_per_function {
            t.truncate(cap);
        }
        out.extend(t.into_iter().map(|t| (t, mode)));
    }
    if let Some(cap) = max_per_cell {
        out.truncate(cap);
    }
    Ok(out)
}

/// Runs the whole matrix: one prepared experiment per kernel variant,
/// one supervised campaign per cell, cells in axis order.
///
/// # Errors
///
/// Kernel/workload build failures, unknown workloads, and journal I/O.
pub fn run_matrix(cfg: &MatrixConfig) -> Result<MatrixResult, String> {
    let mut cells = Vec::new();
    for (kernel_name, kernel_opts) in &cfg.kernels {
        let exp = Experiment::prepare(ExperimentConfig {
            seed: cfg.seed,
            max_per_function: cfg.max_per_function,
            threads: cfg.threads,
            kernel: *kernel_opts,
            profiler: cfg.profiler.clone(),
            rig: cfg.rig,
            suite: cfg.suite,
            ..Default::default()
        })?;
        for workload in &cfg.workloads {
            for subsystem in &cfg.subsystems {
                let cell = MatrixCell {
                    kernel: kernel_name.clone(),
                    workload: workload.clone(),
                    subsystem: subsystem.clone(),
                };
                let plan = plan_cell(&exp, &cell, cfg.seed, cfg.max_per_function, None)?;
                let sup = SupervisorConfig {
                    journal: cfg.journal_dir.as_ref().map(|d| {
                        d.join(format!(
                            "matrix_{}_{}_{}.journal",
                            cell.kernel, cell.workload, cell.subsystem
                        ))
                    }),
                    resume: cfg.resume,
                    ..SupervisorConfig::default()
                };
                let out = run_plan_supervised(&exp, Campaign::A, plan, &sup)?;
                cells.push(CellResult { cell, result: out.result, report: out.report });
            }
        }
    }
    Ok(MatrixResult { cells, seed: cfg.seed })
}

/// Renders the matrix dataset as CSV: the record table then a blank
/// line then the metrics table, exactly the existing golden CSV layout
/// with three matrix-key columns (`kernel,workload,subsystem`)
/// prefixed to both headers and every row.
pub fn matrix_to_csv(m: &MatrixResult) -> String {
    let mut s = format!("kernel,workload,subsystem,{CSV_HEADER}\n");
    for c in &m.cells {
        let key = format!("{},{},{}", c.cell.kernel, c.cell.workload, c.cell.subsystem);
        for r in &c.result.records {
            s.push_str(&key);
            s.push(',');
            s.push_str(&to_csv_line(&RecordRow::from_record(r)));
            s.push('\n');
        }
    }
    s.push('\n');
    s.push_str(&format!("kernel,workload,subsystem,{METRICS_CSV_HEADER}\n"));
    for c in &m.cells {
        let key = format!("{},{},{}", c.cell.kernel, c.cell.workload, c.cell.subsystem);
        s.push_str(&key);
        s.push(',');
        s.push_str(&metrics_csv_line(c.result.campaign.letter(), &c.result.metrics));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_keys_and_fnv_are_stable() {
        let cell = MatrixCell {
            kernel: "server".into(),
            workload: "echo".into(),
            subsystem: "ipc".into(),
        };
        assert_eq!(cell.key(), "server/echo/ipc");
        // FNV-1a is pinned: a silent change would reshuffle every cell
        // plan under the golden surface.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
