//! Cross-crate integration: run a scaled-down version of the full study
//! and assert the qualitative *shapes* the paper reports. Everything is
//! deterministic for a fixed seed, so these are exact, not flaky.

use kfi::core::{stats, Experiment, ExperimentConfig};
use kfi::injector::{Outcome, RunRecord};
use kfi::kernel::layout::causes;
use kfi::profiler::ProfilerConfig;
use std::sync::OnceLock;

fn study() -> &'static (Experiment, kfi::core::StudyResult) {
    static STUDY: OnceLock<(Experiment, kfi::core::StudyResult)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let exp = Experiment::prepare(ExperimentConfig {
            seed: 2003,
            max_per_function: Some(10),
            profiler: ProfilerConfig { period: 301 },
            ..Default::default()
        })
        .expect("prepare");
        let study = exp.run_all();
        (exp, study)
    })
}

fn all_records() -> Vec<RunRecord> {
    let (_, study) = study();
    study.campaigns.values().flat_map(|c| c.records.iter().cloned()).collect()
}

#[test]
fn activation_rates_are_substantial_but_not_total() {
    let (_, study) = study();
    for (l, r) in &study.campaigns {
        let t = r.total();
        let rate = t.activation_rate();
        assert!(
            (25.0..=98.0).contains(&rate),
            "campaign {l}: activation {rate:.1}% out of plausible range"
        );
    }
    // B and C include cold branch-only functions: activation below A's.
    let a = study.campaigns[&'A'].total().activation_rate();
    let c = study.campaigns[&'C'].total().activation_rate();
    assert!(c < a, "C ({c:.1}%) should activate less than A ({a:.1}%)");
}

#[test]
fn campaign_b_has_most_not_manifested() {
    // Paper: B's not-manifested (47.5%) far exceeds A's and C's (~33%).
    let (_, study) = study();
    let nm = |l: char| study.campaigns[&l].total().pct_not_manifested();
    assert!(nm('B') > nm('A'), "B NM {:.1}% must exceed A NM {:.1}%", nm('B'), nm('A'));
    assert!(nm('B') > nm('C'), "B NM {:.1}% must exceed C NM {:.1}%", nm('B'), nm('C'));
}

#[test]
fn campaign_c_has_most_fail_silence_violations() {
    // Paper: C 9.9% >> A 2.2% > B 0.8%.
    let (_, study) = study();
    let fsv = |l: char| study.campaigns[&l].total().pct_fsv();
    assert!(fsv('C') > fsv('A'), "C {:.1}% vs A {:.1}%", fsv('C'), fsv('A'));
    assert!(fsv('C') > fsv('B'), "C {:.1}% vs B {:.1}%", fsv('C'), fsv('B'));
}

#[test]
fn four_major_causes_dominate_crashes() {
    // Paper: 95% of crashes from the four major causes; we accept >= 80%
    // at reduced scale.
    let records = all_records();
    let share = stats::four_major_causes_share(&records);
    assert!(share >= 80.0, "four-major share only {share:.1}%");
}

#[test]
fn campaign_c_crashes_are_dominated_by_invalid_opcode() {
    // Paper: 74.7% invalid operand in campaign C, driven by kernel
    // assertions (ud2a). Require it to be the top cause and well above
    // its share in campaign A.
    let (_, study) = study();
    let share = |l: char| {
        let cc = stats::crash_causes(&study.campaigns[&l].records);
        let total: usize = cc.values().sum();
        100.0 * cc.get(&causes::INVALID_OP).copied().unwrap_or(0) as f64 / total.max(1) as f64
    };
    let c = share('C');
    let a = share('A');
    assert!(c > 40.0, "invalid opcode only {c:.1}% in C");
    assert!(c > a, "C invop {c:.1}% must exceed A invop {a:.1}%");
    // and paging failures collapse in C versus A (paper: 3.1% vs 35.5%)
    let paging = |l: char| {
        let cc = stats::crash_causes(&study.campaigns[&l].records);
        let total: usize = cc.values().sum();
        100.0 * cc.get(&causes::PAGING_REQUEST).copied().unwrap_or(0) as f64 / total.max(1) as f64
    };
    assert!(
        paging('C') < paging('A'),
        "C paging {:.1}% must be below A paging {:.1}%",
        paging('C'),
        paging('A')
    );
}

#[test]
fn many_crashes_are_immediate_and_some_are_late() {
    // Paper: ~40-60% of crash latencies < 10 cycles; ~20% > 100k.
    let records = all_records();
    let h = stats::latency_histogram(&records, None);
    let total: usize = h.iter().sum();
    assert!(total > 50, "too few crashes to check latency: {total}");
    let under10 = 100.0 * h[0] as f64 / total as f64;
    assert!((20.0..=85.0).contains(&under10), "<10-cycle share {under10:.1}% implausible");
    assert!(h[4] + h[5] > 0, "no long-latency crashes at all");
}

#[test]
fn propagation_is_minority_and_fs_mostly_self_crashes() {
    let records = all_records();
    let overall = stats::overall_propagation_share(&records);
    assert!(overall < 20.0, "propagation {overall:.1}% too high");
    let p = stats::propagation(&records, "fs");
    assert!(p.total_crashes > 10);
    assert!(p.self_share("fs") > 50.0, "fs self-crash share {:.1}%", p.self_share("fs"));
}

#[test]
fn crash_records_are_internally_consistent() {
    for r in all_records() {
        match &r.outcome {
            Outcome::Crash(i) => {
                assert!(i.cause >= 1 && i.cause <= 16);
                assert!(!i.subsystem.is_empty());
                assert!(r.activation_tsc.is_some());
            }
            Outcome::NotActivated => {
                assert!(r.activation_tsc.is_none());
            }
            _ => assert!(r.activation_tsc.is_some()),
        }
    }
}

#[test]
fn full_report_renders_every_artifact() {
    let (exp, study) = study();
    let report = kfi::report::full_report(&exp.image, &exp.profile, study, 0.95);
    for needle in [
        "Figure 1",
        "Table 1",
        "Table 2",
        "Figure 4",
        "Figure 6",
        "Figure 7",
        "Figure 8",
        "Table 5",
        "Campaign A",
        "Campaign B",
        "Campaign C",
        "invalid opcode",
        "NULL pointer",
    ] {
        assert!(report.contains(needle), "report missing {needle}");
    }
}
