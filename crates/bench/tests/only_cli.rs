//! `repro_all --only <artifact>` through the real binary: the study
//! artifacts print from `repro_all`'s one study path, so `--csv` and
//! `--dist-workers` reach them and their text is the full report's, and
//! `ablation_bytes` is the crash-cause split of that study's campaign-A
//! records by byte position.

use kfi_kernel::layout::causes;
use std::collections::BTreeMap;
use std::process::Command;

/// Runs `repro_all` with `args` to completion and returns its stdout.
fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all")).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?} failed with {:?}\n{stderr}", out.status);
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Splits stdout at the CSV record header into (report, CSV).
fn split_csv(stdout: &str) -> (&str, &str) {
    let at = stdout.find("campaign,function,").expect("a CSV record table");
    stdout.split_at(at)
}

#[test]
fn study_artifacts_print_from_the_one_study() {
    let base = ["--cap", "1", "--seed", "11", "--csv"];
    let full = repro(&base);
    let (report, csv) = split_csv(&full);
    let fig6 = repro(&[&base[..], &["--only", "fig6", "--dist-workers", "2"]].concat());
    let (figure, fig6_csv) = split_csv(&fig6);
    assert!(figure.contains("Figure 6"), "{figure}");
    assert!(report.contains(figure.trim_end()), "--only fig6 is not the report's Figure 6");
    assert_eq!(fig6_csv, csv, "--only fig6 ran another study");
}

#[test]
fn ablation_bytes_is_campaign_a_split_by_byte_position() {
    let stdout = repro(&["--only", "ablation_bytes", "--cap", "2", "--seed", "11", "--csv"]);
    let (text, csv) = split_csv(&stdout);
    let mut rows = csv.lines();
    let header: Vec<&str> = rows.next().unwrap().split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).expect(name);
    let (campaign, byte, outcome, cause) =
        (col("campaign"), col("byte_index"), col("outcome"), col("cause"));

    // Crash counts per cause, for opcode-byte (true) and operand-byte
    // (false) flips of campaign A.
    let mut split: BTreeMap<bool, BTreeMap<u32, usize>> = BTreeMap::new();
    for row in rows.take_while(|r| !r.is_empty()) {
        let f: Vec<&str> = row.split(',').collect();
        if f[campaign] == "A" && f[outcome] == "crash" {
            let by_cause = split.entry(f[byte] == "0").or_default();
            *by_cause.entry(f[cause].parse().unwrap()).or_default() += 1;
        }
    }
    assert!(split.len() == 2, "both byte positions crash at this plan: {split:?}");
    for (opcode, label) in [(true, "opcode-byte flips "), (false, "operand-byte flips")] {
        let by_cause = &split[&opcode];
        let total: usize = by_cause.values().sum();
        let share = |c: u32| 100.0 * by_cause.get(&c).copied().unwrap_or(0) as f64 / total as f64;
        let line = format!(
            "  {label}: {total:>5} crashes | invalid opcode {:>5.1}% | paging {:>5.1}% | NULL {:>5.1}%",
            share(causes::INVALID_OP),
            share(causes::PAGING_REQUEST),
            share(causes::NULL_POINTER),
        );
        assert!(text.lines().any(|l| l == line), "missing `{line}` in:\n{text}");
    }
}
