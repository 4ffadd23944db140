//! The four workloads: what each prepares, which public entry point its
//! campaign phase calls, how its dataset is rendered, and the checks
//! that its records are complete.
//!
//! Coupling rule: results are read only through `RunRecord`/`Outcome`
//! and the CSV text, and distributed workers are driven through the
//! `repro_all` command-line flags, so changes to the engine, the
//! metrics struct or the CLI internals never need this file to change.

use kfi_core::journal::read_journal;
use kfi_core::{
    matrix_to_csv, plan_cell, run_plan_supervised, run_study_dist, run_study_supervised,
    CellResult, DistConfig, Experiment, ExperimentConfig, MatrixCell, MatrixConfig, MatrixResult,
    StudyResult, SupervisorConfig,
};
use kfi_injector::{Campaign, InjectionTarget, Outcome, RigConfig, RunRecord};
use kfi_kernel::KernelBuildOptions;
use kfi_workloads::Suite;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The seed the baseline and the pinned digests use (2027 is held out
/// for checking a performance claim).
pub const DEFAULT_SEED: u64 = 2003;
/// Host worker threads (or worker subprocesses) each workload uses:
/// the closed batch is sized to a two-core host.
pub const HOST_WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The paper study on the base kernel with one guest CPU.
    PaperCpu1,
    /// The paper study on the SMP kernel with two guest CPUs.
    SmpCpu2,
    /// The traffic grid: {base, server} × four traffic workloads ×
    /// {ipc, net}.
    TrafficMatrix,
    /// `PaperCpu1`'s plan over two `repro_all --worker` subprocesses,
    /// journaled.
    Dist2Journal,
}

/// One kernel variant of a workload, prepared: the experiment has built
/// the kernel, profiled it, booted the shared base and captured every
/// golden run.
pub struct Prepared {
    /// Variant name (`base`, `server`, `smp`).
    pub kernel: &'static str,
    /// The prepared experiment.
    pub exp: Experiment,
}

/// Which part of the dataset a plan belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitKey {
    /// A paper campaign (A, B or C).
    Campaign(Campaign),
    /// A traffic-matrix cell.
    Cell(MatrixCell),
}

impl UnitKey {
    /// Label for messages and span files: `A` or `kernel/workload/subsystem`.
    pub fn label(&self) -> String {
        match self {
            UnitKey::Campaign(c) => c.letter().to_string(),
            UnitKey::Cell(cell) => cell.key(),
        }
    }

    /// The campaign whose records the unit produces.
    pub fn campaign(&self) -> Campaign {
        match self {
            UnitKey::Campaign(c) => *c,
            UnitKey::Cell(_) => Campaign::A,
        }
    }
}

/// One campaign unit of a workload with its deterministic plan, in
/// dataset order.
pub struct Unit {
    /// Index into the workload's [`Prepared`] variants.
    pub kernel: usize,
    /// Campaign or cell.
    pub key: UnitKey,
    /// `(target, mode)` per plan index.
    pub plan: Vec<(InjectionTarget, u32)>,
}

/// A workload's dataset.
pub enum Dataset {
    /// Campaigns A/B/C.
    Study(StudyResult),
    /// Matrix cells in axis order.
    Matrix(MatrixResult),
}

impl Workload {
    /// Every workload, in the order they run.
    pub const ALL: [Workload; 4] =
        [Workload::PaperCpu1, Workload::SmpCpu2, Workload::TrafficMatrix, Workload::Dist2Journal];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCpu1 => "paper_cpu1",
            Workload::SmpCpu2 => "smp_cpu2",
            Workload::TrafficMatrix => "traffic_matrix",
            Workload::Dist2Journal => "dist2_journal",
        }
    }

    /// The workload with the given name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Injections planned per function: each rep of the standard scale
    /// takes about 3 s on a 2-core host, so a 20 s run holds several
    /// reps; `check` is the smoke scale.
    pub fn cap(self, check: bool) -> Option<usize> {
        if check {
            return Some(1);
        }
        match self {
            Workload::PaperCpu1 | Workload::Dist2Journal => Some(4),
            Workload::SmpCpu2 => Some(2),
            Workload::TrafficMatrix => None,
        }
    }

    /// Guest CPUs per simulated machine.
    pub fn cpus(self) -> u32 {
        match self {
            Workload::SmpCpu2 => 2,
            _ => 1,
        }
    }

    fn suite(self) -> Suite {
        match self {
            Workload::TrafficMatrix => Suite::Traffic,
            _ => Suite::Paper,
        }
    }

    /// Kernel variants, each prepared once per rep.
    pub fn kernels(self) -> Vec<(&'static str, KernelBuildOptions)> {
        match self {
            Workload::PaperCpu1 | Workload::Dist2Journal => {
                vec![("base", KernelBuildOptions::default())]
            }
            Workload::SmpCpu2 => {
                vec![("smp", KernelBuildOptions { smp: true, ..Default::default() })]
            }
            Workload::TrafficMatrix => vec![
                ("base", KernelBuildOptions::default()),
                ("server", KernelBuildOptions { server: true, ..Default::default() }),
            ],
        }
    }

    /// The experiment configuration of one kernel variant.
    pub fn config(self, seed: u64, kernel: KernelBuildOptions, check: bool) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            max_per_function: self.cap(check),
            threads: HOST_WORKERS,
            kernel,
            rig: RigConfig { cpus: self.cpus(), ..RigConfig::default() },
            suite: self.suite(),
            ..Default::default()
        }
    }

    /// `repro_all` flags that make a worker with this workload's plan.
    /// The traffic grid has no worker mode, so its handshake probe uses
    /// the paper plan of [`Workload::Dist2Journal`].
    pub fn worker_args(self, seed: u64, check: bool) -> Vec<String> {
        if self == Workload::TrafficMatrix {
            return Workload::Dist2Journal.worker_args(seed, check);
        }
        let mut a: Vec<String> = vec!["--worker".into(), "--threads".into(), "1".into()];
        a.extend(["--seed".into(), seed.to_string()]);
        match self.cap(check) {
            Some(cap) => a.extend(["--cap".into(), cap.to_string()]),
            None => a.push("--full".into()),
        }
        if self.cpus() != 1 {
            a.extend(["--cpus".into(), self.cpus().to_string()]);
        }
        a
    }
}

/// The setup phase: `Experiment::prepare` plus one `make_rig()` per
/// kernel variant, which boots the shared base and captures every
/// golden run.
///
/// # Errors
///
/// Kernel, workload or boot failures.
pub fn setup(w: Workload, seed: u64, check: bool) -> Result<Vec<Prepared>, String> {
    w.kernels()
        .into_iter()
        .map(|(kernel, opts)| {
            let exp = Experiment::prepare(w.config(seed, opts, check))?;
            drop(exp.make_rig()?);
            Ok(Prepared { kernel, exp })
        })
        .collect()
}

/// Every campaign unit of the workload with its plan, in dataset order.
///
/// # Errors
///
/// A traffic workload missing from the suite.
pub fn units(
    w: Workload,
    prepared: &[Prepared],
    seed: u64,
    check: bool,
) -> Result<Vec<Unit>, String> {
    let mut out = Vec::new();
    if w != Workload::TrafficMatrix {
        let exp = &prepared[0].exp;
        for c in [Campaign::A, Campaign::B, Campaign::C] {
            let plan = exp.plan(c).into_iter().map(|t| {
                let mode = exp.mode_for(&t);
                (t, mode)
            });
            out.push(Unit { kernel: 0, key: UnitKey::Campaign(c), plan: plan.collect() });
        }
        return Ok(out);
    }
    let grid = MatrixConfig::default();
    for (k, p) in prepared.iter().enumerate() {
        for workload in &grid.workloads {
            for subsystem in &grid.subsystems {
                let cell = MatrixCell {
                    kernel: p.kernel.to_string(),
                    workload: workload.clone(),
                    subsystem: subsystem.clone(),
                };
                let plan = plan_cell(&p.exp, &cell, seed, w.cap(check), None)?;
                out.push(Unit { kernel: k, key: UnitKey::Cell(cell), plan });
            }
        }
    }
    Ok(out)
}

/// Where `repro_all` must be: next to this executable, built into the
/// same target directory.
///
/// # Errors
///
/// The binary is missing; the message carries the command that builds it.
pub fn repro_all() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let dir = exe.parent().ok_or("this executable has no parent directory")?;
    let path = dir.join("repro_all");
    if path.is_file() {
        return Ok(path);
    }
    let target = dir.parent().unwrap_or(dir);
    let profile = if dir.ends_with("release") { " --release" } else { "" };
    Err(format!(
        "repro_all not found at {}; build it into the same target directory first:\n  \
         CARGO_TARGET_DIR={} cargo build{profile} -p kfi-bench --bin repro_all",
        path.display(),
        target.display()
    ))
}

/// The campaign phase: the workload's public entry point on prepared
/// experiments. `journal` is the dist workload's journal path.
///
/// # Errors
///
/// Journal or worker-spawn failures, a missing `repro_all`, and unknown
/// traffic workloads.
pub fn campaign(
    w: Workload,
    prepared: &[Prepared],
    seed: u64,
    check: bool,
    journal: &Path,
) -> Result<Dataset, String> {
    let sup = SupervisorConfig::default();
    match w {
        Workload::PaperCpu1 | Workload::SmpCpu2 => {
            Ok(Dataset::Study(run_study_supervised(&prepared[0].exp, &sup)?.study))
        }
        Workload::TrafficMatrix => {
            let mut cells = Vec::new();
            for u in units(w, prepared, seed, check)? {
                let UnitKey::Cell(cell) = u.key else { unreachable!("matrix units are cells") };
                let out = run_plan_supervised(&prepared[u.kernel].exp, Campaign::A, u.plan, &sup)?;
                cells.push(CellResult { cell, result: out.result, report: out.report });
            }
            Ok(Dataset::Matrix(MatrixResult { cells, seed }))
        }
        Workload::Dist2Journal => {
            let mut cfg = DistConfig::new(HOST_WORKERS, repro_all()?, w.worker_args(seed, check));
            cfg.journal = Some(journal.to_path_buf());
            Ok(Dataset::Study(run_study_dist(&prepared[0].exp, &cfg)?.study))
        }
    }
}

impl Dataset {
    /// Records per unit, in dataset order.
    pub fn unit_records(&self) -> Vec<&[RunRecord]> {
        match self {
            Dataset::Study(s) => s.campaigns.values().map(|c| c.records.as_slice()).collect(),
            Dataset::Matrix(m) => m.cells.iter().map(|c| c.result.records.as_slice()).collect(),
        }
    }

    /// Every record.
    pub fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.unit_records().into_iter().flatten()
    }

    /// The dataset as `repro_all --csv` (or `--matrix --csv`) prints it.
    pub fn csv(&self) -> String {
        match self {
            Dataset::Study(s) => kfi_bench::csv_dataset(s),
            Dataset::Matrix(m) => matrix_to_csv(m),
        }
    }

    /// The human report: the paper's full report for a study, the
    /// per-cell metrics tables for the matrix.
    pub fn report(&self, prepared: &[Prepared]) -> String {
        match self {
            Dataset::Study(s) => {
                let exp = &prepared[0].exp;
                kfi_report::full_report(&exp.image, &exp.profile, s, exp.config.top_fraction)
            }
            Dataset::Matrix(m) => m
                .cells
                .iter()
                .map(|c| {
                    format!(
                        "--- {} ---\n{}",
                        c.cell.key(),
                        kfi_report::metrics_table(&c.result.metrics)
                    )
                })
                .collect(),
        }
    }
}

/// Checks that every planned target has exactly one record, in plan
/// order, with the planned target and mode.
///
/// # Errors
///
/// The first unit and plan index without its record.
pub fn check_records(units: &[Unit], data: &Dataset) -> Result<(), String> {
    let per_unit = data.unit_records();
    if per_unit.len() != units.len() {
        return Err(format!(
            "dataset has {} campaign units, plan has {}",
            per_unit.len(),
            units.len()
        ));
    }
    for (u, records) in units.iter().zip(per_unit) {
        let label = u.key.label();
        if records.len() != u.plan.len() {
            return Err(format!(
                "{label}: {} records for {} planned targets",
                records.len(),
                u.plan.len()
            ));
        }
        for (i, ((target, mode), r)) in u.plan.iter().zip(records).enumerate() {
            if &r.target != target || r.mode != *mode {
                return Err(format!("{label}: plan index {i} has no record of its own"));
            }
        }
    }
    Ok(())
}

/// Checks that the journal holds every plan index of every campaign.
///
/// # Errors
///
/// An unreadable journal or the first missing index.
pub fn check_journal(path: &Path, seed: u64, units: &[Unit]) -> Result<(), String> {
    let entries = read_journal(path, seed).map_err(|e| format!("{}: {e}", path.display()))?;
    let have: BTreeSet<(char, usize)> = entries.iter().map(|e| (e.campaign, e.index)).collect();
    for u in units {
        let letter = u.key.campaign().letter();
        if let Some(i) = (0..u.plan.len()).find(|i| !have.contains(&(letter, *i))) {
            return Err(format!(
                "journal {} is missing campaign {letter} plan index {i}",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Outcome label used for span tags and run counts.
pub fn outcome_tag(o: &Outcome) -> &'static str {
    match o {
        Outcome::NotActivated => "not_activated",
        Outcome::NotManifested => "not_manifested",
        Outcome::FailSilenceViolation(_) => "fsv",
        Outcome::Crash(_) => "crash",
        Outcome::Hang => "hang",
        Outcome::RigFault(_) => "rig_fault",
    }
}
