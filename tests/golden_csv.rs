//! Golden regression test for the raw CSV dataset: a seeded mini study
//! (all three campaigns, small per-function cap, one worker) rendered
//! through the same [`kfi_bench::csv_dataset`] path as `repro_all
//! --csv`, followed by a seeded mini campaign matrix (server kernel,
//! echo/netstorm driving ipc/net) rendered through the same
//! [`kfi_core::matrix_to_csv`] path as `repro_all --matrix --csv`, must
//! match the checked-in corpus byte for byte. Any change to injection
//! planning, outcome classification, the metrics plumbing, the matrix
//! sharding, or the CSV schemas shows up here as a readable diff.
//!
//! To re-bless after an intentional change:
//! `KFI_BLESS=1 cargo test --test golden_csv`.

use kfi_core::{Experiment, ExperimentConfig, MatrixConfig};
use kfi_kernel::KernelBuildOptions;
use kfi_profiler::ProfilerConfig;

const GOLDEN_PATH: &str = "tests/golden/repro_mini.csv";

fn dataset() -> String {
    let exp = Experiment::prepare(ExperimentConfig {
        seed: 2003,
        max_per_function: Some(2),
        threads: 1,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    })
    .expect("experiment prepares");
    let mut out = kfi_bench::csv_dataset(&exp.run_all());
    // Matrix section, appended after the study dataset so the
    // pre-existing study rows stay byte-identical across blessings.
    let matrix = kfi_core::run_matrix(&MatrixConfig {
        kernels: vec![("server".into(), KernelBuildOptions { server: true, ..Default::default() })],
        workloads: vec!["echo".into(), "netstorm".into()],
        subsystems: vec!["ipc".into(), "net".into()],
        seed: 2003,
        max_per_function: Some(2),
        threads: 1,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    })
    .expect("matrix runs");
    out.push('\n');
    out.push_str(&kfi_core::matrix_to_csv(&matrix));
    out
}

#[test]
fn mini_study_csv_matches_golden_corpus() {
    let got = dataset();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("KFI_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden corpus {GOLDEN_PATH}: {e}"));
    if got != want {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .enumerate()
            .filter(|(_, (w, g))| w != g)
            .take(20)
            .map(|(i, (w, g))| format!("line {}:\n  golden: {w}\n  got:    {g}", i + 1))
            .collect();
        panic!(
            "CSV dataset diverged from {GOLDEN_PATH} \
             ({} golden lines, {} got lines).\n{}\n\
             If the change is intentional, re-bless with KFI_BLESS=1.",
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}
