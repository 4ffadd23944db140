//! # kfi-report — table and figure renderers
//!
//! Regenerates every table and figure of the paper's evaluation as
//! plain text (plus CSV fragments), from the structures produced by
//! [`kfi_core`]. One function per artifact:
//!
//! | paper artifact | function |
//! |---|---|
//! | Figure 1 (subsystem sizes)        | [`figure1`]  |
//! | Table 1 (function distribution)   | [`table1`]   |
//! | Table 2 (setup summary)           | [`table2`]   |
//! | Figure 4 (outcome distributions)  | [`figure4`]  |
//! | Figure 6 (crash causes)           | [`figure6`]  |
//! | Figure 7 (crash latency)          | [`figure7`]  |
//! | Figure 8 (error propagation)      | [`figure8`]  |
//! | Table 5 (most severe crashes)     | [`table5`]   |
//!
//! Beyond the paper artifacts, [`trace_timeline`] and [`metrics_table`]
//! render [`kfi_trace`] event streams and counter registries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod trace;
pub use trace::{metrics_table, trace_timeline};

use kfi_core::{stats, CampaignResult, StudyResult};
use kfi_injector::{Campaign, Outcome};
use kfi_kernel::layout::cause_name;
use kfi_kernel::KernelImage;
use kfi_profiler::KernelProfile;
use std::fmt::Write as _;

fn bar(pct: f64, width: usize) -> String {
    let n = ((pct / 100.0) * width as f64).round() as usize;
    let mut s = String::new();
    for _ in 0..n.min(width) {
        s.push('#');
    }
    s
}

/// Figure 1: size of kernel subsystems in source lines.
pub fn figure1(image: &KernelImage) -> String {
    let mut s = String::from("Figure 1: Size of Kernel Subsystems (guest assembly source lines)\n");
    let max = image.loc_by_subsystem.values().copied().max().unwrap_or(1) as f64;
    for (sub, loc) in &image.loc_by_subsystem {
        let _ = writeln!(s, "{sub:>8}  {loc:>6}  {}", bar(100.0 * *loc as f64 / max, 40));
    }
    s
}

/// Table 1: function distribution among kernel modules and each
/// module's contribution to the core (95%-coverage) functions.
pub fn table1(profile: &KernelProfile, top_fraction: f64) -> String {
    let top = profile.top_covering(top_fraction);
    let core_count = top.len();
    let mut per_sub_total = std::collections::BTreeMap::new();
    let mut per_sub_core = std::collections::BTreeMap::new();
    for f in &profile.functions {
        *per_sub_total.entry(f.subsystem.clone()).or_insert(0usize) += 1;
    }
    for f in &top {
        *per_sub_core.entry(f.subsystem.clone()).or_insert(0usize) += 1;
    }
    let mut s = String::from("Table 1: Function Distribution Among Kernel Modules\n");
    let _ = writeln!(
        s,
        "{:<10} {:>18} {:>28}",
        "Subsystem", "profiled functions", "contribution to core"
    );
    let mut total = 0;
    for (sub, n) in &per_sub_total {
        let core = per_sub_core.get(sub).copied().unwrap_or(0);
        let core_s = if core > 0 { core.to_string() } else { "n/a".to_string() };
        let _ = writeln!(s, "{sub:<10} {n:>18} {core_s:>28}");
        total += n;
    }
    let _ = writeln!(s, "{:<10} {:>18} {:>28}", "Total", total, core_count);
    let _ = writeln!(
        s,
        "(top {core_count} functions cover {:.1}% of {} profiling values)",
        100.0 * top.iter().map(|f| f.samples).sum::<u64>() as f64
            / profile.total_samples.max(1) as f64,
        profile.total_samples
    );
    s
}

/// Table 2: experimental setup summary (paper vs. this reproduction).
pub fn table2() -> String {
    let mut s = String::from("Table 2: Experimental Setup Summary\n");
    let _ = writeln!(s, "{:<10} {:<16} {:<28} {}", "Group", "Aspect", "Paper", "This reproduction");
    for i in kfi_core::setup_summary() {
        let _ = writeln!(s, "{:<10} {:<16} {:<28} {}", i.group, i.label, i.paper, i.ours);
    }
    s
}

fn campaign_table(result: &CampaignResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>9} {:>16} {:>18} {:>16} {:>14}",
        "Subsystem", "Injected", "Activated", "Not Manifested", "Fail Silence", "Crash/Hang"
    );
    let tallies = result.tallies();
    let mut funcs_per_sub: std::collections::BTreeMap<&str, std::collections::BTreeSet<&str>> =
        Default::default();
    for r in &result.records {
        funcs_per_sub
            .entry(r.target.subsystem.as_str())
            .or_default()
            .insert(r.target.function.as_str());
    }
    for (sub, t) in &tallies {
        let nf = funcs_per_sub.get(sub.as_str()).map(|s| s.len()).unwrap_or(0);
        let _ = writeln!(
            s,
            "{:<12} {:>9} {:>7} ({:>5.1}%) {:>9} ({:>5.1}%) {:>7} ({:>5.1}%) {:>6} ({:>4.1}%)",
            format!("{sub}[{nf}]"),
            t.injected,
            t.activated,
            t.activation_rate(),
            t.not_manifested,
            t.pct_not_manifested(),
            t.fsv,
            t.pct_fsv(),
            t.crash_or_hang(),
            t.pct_crash_or_hang(),
        );
    }
    let t = result.total();
    let _ = writeln!(
        s,
        "{:<12} {:>9} {:>7} ({:>5.1}%) {:>9} ({:>5.1}%) {:>7} ({:>5.1}%) {:>6} ({:>4.1}%)",
        format!("Total[{}]", result.functions_injected),
        t.injected,
        t.activated,
        t.activation_rate(),
        t.not_manifested,
        t.pct_not_manifested(),
        t.fsv,
        t.pct_fsv(),
        t.crash_or_hang(),
        t.pct_crash_or_hang(),
    );
    s
}

/// Figure 4: outcome statistics per campaign (tables + overall
/// distribution, the pie charts rendered as percentage bars).
pub fn figure4(study: &StudyResult) -> String {
    let mut s =
        String::from("Figure 4: Statistics on Error Activation and Failure Distribution\n\n");
    for c in [Campaign::A, Campaign::B, Campaign::C] {
        let Some(result) = study.campaigns.get(&c.letter()) else { continue };
        let _ = writeln!(s, "--- Campaign {}: {} ---", c.letter(), c.name());
        s.push_str(&campaign_table(result));
        let t = result.total();
        let act = t.activated.max(1) as f64;
        let _ = writeln!(s, "Activated-error distribution:");
        for (label, n) in [
            ("Not Manifested", t.not_manifested),
            ("Fail Silence Violation", t.fsv),
            ("Crash", t.crash),
            ("Hang", t.hang),
        ] {
            let p = 100.0 * n as f64 / act;
            let _ = writeln!(s, "  {label:<24} {p:>5.1}%  {}", bar(p, 40));
        }
        s.push('\n');
    }
    s
}

/// Figure 6: distribution of crash causes per campaign.
pub fn figure6(study: &StudyResult) -> String {
    let mut s = String::from("Figure 6: Distribution of Crash Causes\n\n");
    for c in [Campaign::A, Campaign::B, Campaign::C] {
        let Some(result) = study.campaigns.get(&c.letter()) else { continue };
        let causes = stats::crash_causes(&result.records);
        let total: usize = causes.values().sum();
        let _ = writeln!(s, "--- Campaign {} ({} dumped crashes) ---", c.letter(), total);
        let mut entries: Vec<(&u32, &usize)> = causes.iter().collect();
        entries.sort_by(|a, b| b.1.cmp(a.1));
        for (cause, n) in entries {
            let p = 100.0 * *n as f64 / total.max(1) as f64;
            let _ = writeln!(s, "  {:<48} {:>5.1}%  {}", cause_name(*cause), p, bar(p, 30));
        }
        let _ = writeln!(
            s,
            "  four major causes cover {:.1}% of crashes",
            stats::four_major_causes_share(&result.records)
        );
        s.push('\n');
    }
    s
}

/// Figure 7: crash latency (CPU cycles) per target subsystem, per
/// campaign.
pub fn figure7(study: &StudyResult) -> String {
    let mut s = String::from("Figure 7: Crash Latency in CPU Cycles\n\n");
    for c in [Campaign::A, Campaign::B, Campaign::C] {
        let Some(result) = study.campaigns.get(&c.letter()) else { continue };
        let _ = writeln!(s, "--- Campaign {} ---", c.letter());
        let _ = write!(s, "{:<10}", "subsystem");
        for (_, label) in stats::LATENCY_BUCKETS {
            let _ = write!(s, "{label:>10}");
        }
        s.push('\n');
        let mut subsystems: Vec<String> =
            result.records.iter().map(|r| r.target.subsystem.clone()).collect();
        subsystems.sort();
        subsystems.dedup();
        for sub in &subsystems {
            let h = stats::latency_histogram(&result.records, Some(sub));
            let total: usize = h.iter().sum();
            if total == 0 {
                continue;
            }
            let _ = write!(s, "{sub:<10}");
            for n in h {
                let _ = write!(s, "{:>9.1}%", 100.0 * n as f64 / total as f64);
            }
            s.push('\n');
        }
        let h = stats::latency_histogram(&result.records, None);
        let total: usize = h.iter().sum::<usize>().max(1);
        let _ = write!(s, "{:<10}", "all");
        for n in h {
            let _ = write!(s, "{:>9.1}%", 100.0 * n as f64 / total as f64);
        }
        s.push_str("\n\n");
    }
    s
}

/// Figure 8: error-propagation graphs for the `fs` and `kernel`
/// subsystems (the two the paper shows), per campaign.
pub fn figure8(study: &StudyResult) -> String {
    let mut s = String::from("Figure 8: Error Propagation\n\n");
    for from in ["fs", "kernel"] {
        for c in [Campaign::A, Campaign::B, Campaign::C] {
            let Some(result) = study.campaigns.get(&c.letter()) else { continue };
            let p = stats::propagation(&result.records, from);
            if p.total_crashes == 0 {
                continue;
            }
            let _ = writeln!(
                s,
                "({from}, campaign {}): {} crashes, {:.1}% inside {from}, {:.1}% propagated",
                c.letter(),
                p.total_crashes,
                p.self_share(from),
                p.propagation_share(from)
            );
            for (to, n) in &p.to {
                let share = 100.0 * *n as f64 / p.total_crashes as f64;
                let _ = write!(s, "    -> {to:<8} {share:>5.1}%  causes: ");
                if let Some(causes) = p.causes_at.get(to) {
                    let mut cs: Vec<(&u32, &usize)> = causes.iter().collect();
                    cs.sort_by(|a, b| b.1.cmp(a.1));
                    let total_to: usize = causes.values().sum();
                    for (cause, cn) in cs.iter().take(3) {
                        let _ = write!(
                            s,
                            "{} {:.0}%; ",
                            cause_name(**cause),
                            100.0 * **cn as f64 / total_to as f64
                        );
                    }
                }
                s.push('\n');
            }
        }
        s.push('\n');
    }
    let mut all: Vec<kfi_injector::RunRecord> = Vec::new();
    for r in study.campaigns.values() {
        all.extend(r.records.iter().cloned());
    }
    let _ = writeln!(
        s,
        "overall cross-subsystem propagation: {:.1}% of crashes",
        stats::overall_propagation_share(&all)
    );
    let cands = stats::assertion_candidates(&all);
    if !cands.is_empty() {
        let _ = writeln!(s, "suggested assertion sites (would intercept propagated errors):");
        for (f, sub, n) in cands.iter().take(6) {
            let _ = writeln!(s, "    {f} ({sub}): {n} escapes");
        }
    }
    s
}

/// Table 5: the most severe crashes (reformat required), with the
/// severe (fsck) cases listed for context.
pub fn table5(study: &StudyResult) -> String {
    let mut s = String::from("Table 5: Summary of Most Severe Crashes\n");
    let mut idx = 0;
    let mut severe_count = 0;
    for (letter, result) in &study.campaigns {
        for r in stats::most_severe_crashes(&result.records) {
            idx += 1;
            if let Outcome::Crash(i) = &r.outcome {
                let _ = writeln!(
                    s,
                    "{idx:>3}. campaign {letter}  {}:{}  insn {:#010x} byte {} mask {:#04x}  cause: {}",
                    r.target.subsystem,
                    r.target.function,
                    r.target.insn_addr,
                    r.target.byte_index,
                    r.target.bit_mask,
                    cause_name(i.cause)
                );
            }
        }
        severe_count += stats::severe_crashes(&result.records).len();
    }
    if idx == 0 {
        let _ = writeln!(s, "  (no most-severe crashes in this run)");
    }
    let _ =
        writeln!(s, "most severe (reformat): {idx}; severe or worse (fsck needed): {severe_count}");
    s
}

/// Crash concentration per subsystem (the paper's observation that
/// `do_page_fault`, `schedule` and `zap_page_range` cause 70%/50%/30%
/// of their subsystems' crashes under random injection).
pub fn crash_concentration(study: &StudyResult) -> String {
    let mut s = String::from(
        "Crash concentration (campaign A, per injected subsystem)
",
    );
    let Some(a) = study.campaigns.get(&'A') else { return s };
    for sub in ["arch", "fs", "kernel", "mm"] {
        let top = stats::crash_concentration(&a.records, sub);
        if let Some((f, n, share)) = top.first() {
            let _ =
                writeln!(s, "  {sub:<8} {f:<28} {n:>5} crashes ({share:>5.1}% of the subsystem's)");
        }
    }
    s
}

/// The availability discussion of §7.1: total modeled downtime and the
/// per-severity budget argument ("to achieve 5 nines one can only
/// afford one most-severe failure in 12 years").
pub fn availability_summary(study: &StudyResult) -> String {
    let mut s = String::from(
        "Availability impact (modeled downtime)
",
    );
    let mut all: Vec<kfi_injector::RunRecord> = Vec::new();
    for r in study.campaigns.values() {
        all.extend(r.records.iter().cloned());
    }
    let mut by_sev: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in &all {
        if let Outcome::Crash(i) = &r.outcome {
            *by_sev.entry(i.severity.name()).or_insert(0) += 1;
        }
    }
    for (sev, n) in &by_sev {
        let _ = writeln!(s, "  {sev:<12} {n} crashes");
    }
    let total = stats::total_downtime_secs(&all);
    let _ = writeln!(s, "  total modeled downtime: {total} s ({:.1} h)", total as f64 / 3600.0);
    let _ =
        writeln!(s, "  five-nines budget: 5 min/yr => one most-severe (1 h) failure per 12 years");
    s
}

/// Per-campaign execution metrics (the `CampaignResult::metrics`
/// aggregate): one [`metrics_table`] per campaign, in campaign order.
pub fn campaign_metrics(study: &StudyResult) -> String {
    let mut s = String::from("Campaign execution metrics\n\n");
    for (letter, result) in &study.campaigns {
        let _ = writeln!(s, "--- Campaign {letter} ---");
        s.push_str(&metrics_table(&result.metrics));
        s.push('\n');
    }
    s
}

/// Renders the complete study report (all tables and figures).
pub fn full_report(
    image: &KernelImage,
    profile: &KernelProfile,
    study: &StudyResult,
    top_fraction: f64,
) -> String {
    let mut s = String::new();
    s.push_str(&figure1(image));
    s.push('\n');
    s.push_str(&table1(profile, top_fraction));
    s.push('\n');
    s.push_str(&table2());
    s.push('\n');
    s.push_str(&figure4(study));
    s.push_str(&figure6(study));
    s.push_str(&figure7(study));
    s.push_str(&figure8(study));
    s.push('\n');
    s.push_str(&table5(study));
    s.push('\n');
    s.push_str(&crash_concentration(study));
    s.push('\n');
    s.push_str(&availability_summary(study));
    s.push('\n');
    s.push_str(&campaign_metrics(study));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_renders() {
        let t = table2();
        assert!(t.contains("UnixBench"));
        assert!(t.contains("kfi-injector"));
    }

    #[test]
    fn figure1_renders() {
        let image = kfi_kernel::build_kernel(Default::default()).unwrap();
        let f = figure1(&image);
        assert!(f.contains("fs"));
        assert!(f.contains("#"));
    }

    #[test]
    fn bars_clamp() {
        assert_eq!(bar(0.0, 10), "");
        assert_eq!(bar(100.0, 10).len(), 10);
        assert_eq!(bar(250.0, 10).len(), 10);
    }
}

#[cfg(test)]
mod synthetic_tests {
    use super::*;
    use kfi_core::{CampaignResult, StudyResult};
    use kfi_injector::{Campaign, CrashInfo, InjectionTarget, Outcome, RunRecord, Severity};
    use std::collections::BTreeMap;

    fn rec(campaign: Campaign, subsys: &str, func: &str, outcome: Outcome) -> RunRecord {
        RunRecord {
            target: InjectionTarget {
                campaign,
                function: func.into(),
                subsystem: subsys.into(),
                insn_addr: 0xc010_0000,
                insn_len: 2,
                byte_index: 0,
                bit_mask: 1,
                is_branch: campaign != Campaign::A,
            },
            mode: 0,
            outcome,
            activation_tsc: Some(10),
            run_cycles: 100,
            sanitizer_violations: 0,
        }
    }

    fn crash(cause: u32, latency: u64, sev: Severity, in_sub: &str) -> Outcome {
        Outcome::Crash(CrashInfo {
            cause,
            eip: 0xc010_0100,
            function: Some("victim".into()),
            subsystem: in_sub.into(),
            latency,
            severity: sev,
            triple_fault: false,
        })
    }

    fn study() -> StudyResult {
        use kfi_kernel::layout::causes as c;
        let mut campaigns = BTreeMap::new();
        let a = vec![
            rec(Campaign::A, "fs", "pipe_read", Outcome::NotActivated),
            rec(Campaign::A, "fs", "pipe_read", Outcome::NotManifested),
            rec(Campaign::A, "fs", "pipe_read", crash(c::NULL_POINTER, 5, Severity::Normal, "fs")),
            rec(
                Campaign::A,
                "fs",
                "sys_read",
                crash(c::PAGING_REQUEST, 200_000, Severity::Severe, "kernel"),
            ),
            rec(Campaign::A, "mm", "do_wp_page", crash(c::GPF, 50, Severity::MostSevere, "mm")),
            rec(Campaign::A, "mm", "do_wp_page", Outcome::Hang),
        ];
        let b = vec![rec(Campaign::B, "kernel", "schedule", Outcome::NotManifested)];
        let cc = vec![rec(
            Campaign::C,
            "fs",
            "pipe_read",
            crash(c::INVALID_OP, 3, Severity::Normal, "fs"),
        )];
        campaigns.insert(
            'A',
            CampaignResult {
                campaign: Campaign::A,
                records: a,
                functions_injected: 3,
                metrics: Default::default(),
            },
        );
        campaigns.insert(
            'B',
            CampaignResult {
                campaign: Campaign::B,
                records: b,
                functions_injected: 1,
                metrics: Default::default(),
            },
        );
        campaigns.insert(
            'C',
            CampaignResult {
                campaign: Campaign::C,
                records: cc,
                functions_injected: 1,
                metrics: Default::default(),
            },
        );
        StudyResult { campaigns, seed: 1 }
    }

    #[test]
    fn figure4_renders_all_campaigns() {
        let s = figure4(&study());
        assert!(s.contains("Campaign A"));
        assert!(s.contains("Campaign B"));
        assert!(s.contains("Campaign C"));
        assert!(s.contains("fs["));
        assert!(s.contains("Total["));
    }

    #[test]
    fn figure6_orders_causes() {
        let s = figure6(&study());
        assert!(s.contains("NULL pointer"));
        assert!(s.contains("four major causes"));
    }

    #[test]
    fn figure7_has_all_buckets() {
        let s = figure7(&study());
        for label in ["<10", "10-100", "100-1k", "1k-10k", "10k-100k", ">100k"] {
            assert!(s.contains(label), "missing {label}");
        }
    }

    #[test]
    fn figure8_reports_propagation() {
        let s = figure8(&study());
        assert!(s.contains("(fs, campaign A)"));
        assert!(s.contains("propagated"));
        assert!(s.contains("overall cross-subsystem propagation"));
    }

    #[test]
    fn campaign_metrics_renders_per_campaign() {
        let mut st = study();
        let m = &mut st.campaigns.get_mut(&'A').unwrap().metrics;
        m.runs = 6;
        m.decode_hits = 500;
        m.dirty_pages = 9;
        let s = campaign_metrics(&st);
        assert!(s.contains("--- Campaign A ---"));
        assert!(s.contains("--- Campaign C ---"));
        assert!(s.contains("decode cache hits"));
        assert!(s.contains("dirty pages"));
    }

    #[test]
    fn table5_lists_most_severe() {
        let s = table5(&study());
        assert!(s.contains("do_wp_page"));
        assert!(s.contains("most severe (reformat): 1"));
    }

    #[test]
    fn concentration_and_availability_render() {
        let s = crash_concentration(&study());
        assert!(s.contains("fs"));
        let s = availability_summary(&study());
        assert!(s.contains("total modeled downtime"));
        // 240 + 330 + 3600 + 240 = three crashes + C crash
        assert!(s.contains("4410 s"));
    }
}
