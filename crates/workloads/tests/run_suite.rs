//! Run every workload (and the full suite) on the booted kernel and
//! check the deterministic results.

use kfi_kernel::{boot, build_kernel, mkfs, BootConfig, KernelBuildOptions};
use kfi_machine::{MonitorEvent, RunExit};
use kfi_workloads::{suite_files, MODE_ALL, WORKLOADS};

fn results(m: &kfi_machine::Machine) -> Vec<u32> {
    m.monitor_events()
        .iter()
        .filter_map(|(_, e)| match e {
            MonitorEvent::Result(v) => Some(*v),
            _ => None,
        })
        .collect()
}

fn run_mode(mode: u32) -> kfi_machine::Machine {
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let files = suite_files().unwrap();
    let fsimg = mkfs(2048, &files);
    let mut m = boot(&image, fsimg.disk, &BootConfig { run_mode: mode, ..Default::default() });
    let exit = m.run(120_000_000);
    assert_eq!(exit, RunExit::Halted, "mode {mode}: console:\n{}", m.console_string());
    m
}

#[test]
fn full_suite_runs_clean() {
    let m = run_mode(MODE_ALL);
    let console = m.console_string();
    for w in WORKLOADS {
        assert!(console.contains(&format!("runner: run {w}")), "{console}");
    }
    assert!(console.contains("runner: all done"), "{console}");
    assert!(!console.contains("exec failed"), "{console}");
    assert!(!console.contains("Oops"), "{console}");
    let rs = results(&m);
    assert_eq!(rs.len(), WORKLOADS.len(), "{console}\n{rs:?}");
    assert!(!rs.contains(&1), "a workload failed: {rs:?}\n{console}");
    for w in WORKLOADS {
        assert!(console.contains(&format!("runner: run {w} -> 0")), "{console}");
    }
}

#[test]
fn hanoi_reports_exactly_1023_moves() {
    let m = run_mode(3);
    assert_eq!(results(&m), vec![1023], "{}", m.console_string());
}

#[test]
fn context1_counts_roundtrips() {
    let m = run_mode(0);
    assert_eq!(results(&m), vec![80], "{}", m.console_string());
}

#[test]
fn spawn_reports_spawn_count() {
    let m = run_mode(6);
    assert_eq!(results(&m), vec![12], "{}", m.console_string());
}

#[test]
fn syscall_reports_pid_sum() {
    let m = run_mode(7);
    let rs = results(&m);
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0] % 400, 0, "{}", m.console_string());
    assert!(rs[0] > 0);
}

#[test]
fn single_modes_are_deterministic() {
    let a = run_mode(1);
    let b = run_mode(1);
    assert_eq!(a.console_string(), b.console_string());
    assert_eq!(results(&a), results(&b));
    assert_eq!(a.cpu.tsc, b.cpu.tsc, "even timing must be deterministic");
}

#[test]
fn fstime_leaves_fs_clean() {
    let image = build_kernel(KernelBuildOptions::default()).unwrap();
    let files = suite_files().unwrap();
    let fsimg = mkfs(2048, &files);
    let manifest = fsimg.manifest.clone();
    let mut m = boot(&image, fsimg.disk, &BootConfig { run_mode: 2, ..Default::default() });
    assert_eq!(m.run(120_000_000), RunExit::Halted, "{}", m.console_string());
    let disk = m.disk.take().unwrap();
    assert_eq!(
        kfi_kernel::fsck(&disk, &manifest),
        kfi_kernel::FsckReport::Clean,
        "{}",
        m.console_string()
    );
}
