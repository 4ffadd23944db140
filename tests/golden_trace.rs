//! Golden regression test for the `repro_trace` case-study replay: the
//! rendered event timeline and metrics for a fixed seed must match the
//! checked-in transcript line for line. Any change to the machine's
//! execution, the trace hooks, or the renderers shows up here as a
//! readable diff.
//!
//! To re-bless after an intentional change:
//! `KFI_BLESS=1 cargo test --test golden_trace`.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_profiler::ProfilerConfig;

const GOLDEN_PATH: &str = "tests/golden/trace_case_study.txt";

fn transcript() -> String {
    let exp = Experiment::prepare(ExperimentConfig {
        seed: 2003,
        max_per_function: Some(4),
        threads: 1,
        profiler: ProfilerConfig { period: 997 },
        ..Default::default()
    })
    .expect("experiment prepares");
    kfi_bench::trace_case_study(&exp, 2003).expect("a crash case study exists under the cap")
}

#[test]
fn trace_case_study_matches_golden_transcript() {
    let got = transcript();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("KFI_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden transcript {GOLDEN_PATH}: {e}"));
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
            "trace transcript diverged from {GOLDEN_PATH} \
             ({} golden lines, {} got lines).\n{}\n\
             If the change is intentional, re-bless with KFI_BLESS=1.",
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}
