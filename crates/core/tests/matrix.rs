//! Campaign-matrix determinism: per cell, records/metrics/journal
//! bytes are identical at 1/2/4 workers, across journal on/off, and
//! through interrupt-and-resume — and the matrix CSV carries the cell
//! key on every row.

use kfi_core::{matrix_to_csv, run_matrix, MatrixConfig, MatrixResult};
use kfi_kernel::KernelBuildOptions;
use kfi_profiler::ProfilerConfig;
use std::path::PathBuf;

fn config(threads: usize, journal_dir: Option<PathBuf>, resume: bool) -> MatrixConfig {
    MatrixConfig {
        kernels: vec![("server".into(), KernelBuildOptions { server: true, ..Default::default() })],
        workloads: vec!["echo".into(), "netstorm".into()],
        subsystems: vec!["ipc".into(), "net".into()],
        seed: 8,
        threads,
        max_per_function: Some(2),
        profiler: ProfilerConfig { period: 997 },
        journal_dir,
        resume,
        ..Default::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("kfi-matrix-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn journal_bytes(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "journal"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect()
}

fn assert_same_dataset(a: &MatrixResult, b: &MatrixResult, what: &str) {
    assert_eq!(a.cells.len(), b.cells.len(), "{what}: cell count");
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.cell, cb.cell, "{what}: cell order");
        let key = ca.cell.key();
        assert_eq!(ca.result.records, cb.result.records, "{what}: records ({key})");
        assert_eq!(ca.result.metrics, cb.result.metrics, "{what}: metrics ({key})");
    }
    assert_eq!(matrix_to_csv(a), matrix_to_csv(b), "{what}: CSV");
}

#[test]
fn matrix_is_deterministic_across_workers_and_resume() {
    let d1 = tmp("baseline");
    let base = run_matrix(&config(1, Some(d1.clone()), false)).expect("matrix runs");
    assert_eq!(base.cells.len(), 4);
    let base_journals = journal_bytes(&d1);
    assert_eq!(base_journals.len(), 4, "one journal per cell");

    // Every cell planned work and produced one record per target.
    for c in &base.cells {
        assert!(!c.result.records.is_empty(), "{} planned nothing", c.cell.key());
        assert_eq!(c.result.metrics.runs, c.result.records.len() as u64, "{}", c.cell.key());
        assert_eq!(c.report.resumed_runs, 0);
    }
    // The traffic workloads drive the new handlers: the echo/ipc and
    // netstorm/net cells must see activated injections.
    for (w, s) in [("echo", "ipc"), ("netstorm", "net")] {
        let cell = base
            .cells
            .iter()
            .find(|c| c.cell.workload == w && c.cell.subsystem == s)
            .expect("cell exists");
        assert!(
            cell.result.records.iter().any(|r| r.outcome != kfi_injector::Outcome::NotActivated),
            "no activated injection in {w}/{s}"
        );
    }

    // Worker-count invariance, with and without journals.
    for threads in [2, 4] {
        let dn = tmp(&format!("w{threads}"));
        let got = run_matrix(&config(threads, Some(dn.clone()), false)).expect("matrix runs");
        assert_same_dataset(&base, &got, &format!("{threads} workers"));
        assert_eq!(journal_bytes(&dn), base_journals, "journal bytes ({threads} workers)");
    }
    let unjournaled = run_matrix(&config(2, None, false)).expect("matrix runs");
    assert_same_dataset(&base, &unjournaled, "journal off");

    // Full resume: every run replays from the journals, bytes unchanged.
    let resumed = run_matrix(&config(1, Some(d1.clone()), true)).expect("matrix resumes");
    assert_same_dataset(&base, &resumed, "full resume");
    for c in &resumed.cells {
        assert_eq!(
            c.report.resumed_runs,
            c.result.records.len(),
            "{} did not resume fully",
            c.cell.key()
        );
    }
    assert_eq!(journal_bytes(&d1), base_journals, "journals grew on full resume");

    // Interrupted resume: torn tail on one cell's journal (mid-frame
    // cut), the rest intact. The resumed matrix must reproduce the
    // dataset and the journal bytes exactly.
    let d3 = tmp("interrupted");
    for (name, bytes) in &base_journals {
        std::fs::write(d3.join(name), bytes).unwrap();
    }
    let (victim, bytes) = &base_journals[0];
    assert!(bytes.len() > 200, "victim journal too small to tear");
    std::fs::write(d3.join(victim), &bytes[..bytes.len() - 200]).unwrap();
    let reresumed = run_matrix(&config(4, Some(d3.clone()), true)).expect("matrix resumes");
    assert_same_dataset(&base, &reresumed, "interrupted resume");
    assert_eq!(journal_bytes(&d3), base_journals, "journal bytes after torn-tail resume");
    let replayed: usize = reresumed.cells.iter().map(|c| c.report.resumed_runs).sum();
    let total: usize = base.cells.iter().map(|c| c.result.records.len()).sum();
    assert!(replayed < total, "the torn cell must re-execute its lost tail");
    assert!(replayed > 0, "intact cells must replay");
}

#[test]
fn matrix_csv_rows_carry_cell_keys() {
    let m = run_matrix(&config(1, None, false)).expect("matrix runs");
    let csv = matrix_to_csv(&m);
    let mut sections = csv.split("\n\n");
    let records = sections.next().unwrap();
    let metrics = sections.next().unwrap();
    assert!(records.starts_with("kernel,workload,subsystem,campaign,function,"));
    assert!(metrics.starts_with("kernel,workload,subsystem,campaign,runs,"));
    let keys: Vec<String> = m.cells.iter().map(|c| c.cell.key().replace('/', ",")).collect();
    for line in records.lines().skip(1) {
        assert!(keys.iter().any(|k| line.starts_with(&format!("{k},"))), "bad key: {line}");
    }
    // One metrics row per cell, in axis order.
    let metric_rows: Vec<&str> = metrics.lines().skip(1).collect();
    assert_eq!(metric_rows.len(), m.cells.len());
    for (row, key) in metric_rows.iter().zip(&keys) {
        assert!(row.starts_with(&format!("{key},A,")), "bad metrics key: {row}");
    }
}
