//! The paper's artifacts as `repro_all --only <artifact>` prints them:
//! one table names each artifact once, with what it prints from.

use crate::flags::{ABLATION, FIG1, FIG5, TABLE1, TABLE2, TABLE67, TRACE};
use crate::{prepare, trace_case_study, ReproOptions};
use kfi_core::{stats, Experiment, StudyResult};
use kfi_injector::{plan_function, Campaign, Outcome, RunRecord, Severity};
use kfi_kernel::layout::{cause_name, causes};
use rand::SeedableRng;

/// What an artifact prints from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The study `repro_all` runs, in process or over `--dist-workers`.
    /// The artifact prints from it instead of the full report, so it
    /// reads every flag the study reads.
    Study(fn(&Experiment, &StudyResult)),
    /// A sweep of its own. It reads the flags whose rows name this run
    /// bit.
    Sweep(u32, fn(&ReproOptions)),
}

/// An artifact `--only` can name.
#[derive(Debug)]
pub struct Artifact {
    /// The name `--only` takes.
    pub name: &'static str,
    /// What it prints from.
    pub source: Source,
}

use Source::{Study, Sweep};

/// Every artifact, in the paper's order, then the ablations and the
/// traced replay.
pub static ARTIFACTS: [Artifact; 13] = [
    Artifact { name: "fig1", source: Sweep(FIG1, fig1) },
    Artifact { name: "table1", source: Sweep(TABLE1, table1) },
    Artifact { name: "table2", source: Sweep(TABLE2, table2) },
    Artifact { name: "fig4", source: Study(fig4) },
    Artifact { name: "fig5", source: Sweep(FIG5, fig5) },
    Artifact { name: "fig6", source: Study(fig6) },
    Artifact { name: "fig7", source: Study(fig7) },
    Artifact { name: "fig8", source: Study(fig8) },
    Artifact { name: "table5", source: Study(table5) },
    Artifact { name: "table67", source: Sweep(TABLE67, table67) },
    Artifact { name: "ablation", source: Sweep(ABLATION, ablation) },
    Artifact { name: "ablation_bytes", source: Study(ablation_bytes) },
    Artifact { name: "trace", source: Sweep(TRACE, trace) },
];

/// Figure 1: kernel subsystem sizes, of the default kernel.
fn fig1(_: &ReproOptions) {
    let image = kfi_kernel::build_kernel(Default::default()).expect("kernel builds");
    println!("{}", kfi_report::figure1(&image));
}

/// Table 1: the profiled-function distribution among kernel modules and
/// the top functions covering 95% of the profile.
fn table1(opts: &ReproOptions) {
    let exp = prepare(opts);
    println!("{}", kfi_report::table1(&exp.profile, exp.config.top_fraction));
    println!("top functions:");
    for f in exp.profile.top_covering(exp.config.top_fraction) {
        println!("  {:<28} {:<8} {:>8} samples", f.name, f.subsystem, f.samples);
    }
}

/// Table 2: the experimental setup summary.
fn table2(_: &ReproOptions) {
    println!("{}", kfi_report::table2());
}

/// Figure 4, after the definitional Tables 3 and 4: outcome statistics
/// per campaign and subsystem.
fn fig4(_: &Experiment, study: &StudyResult) {
    println!("Table 3 outcome categories: activated / not manifested / fail silence violation / crash / hang");
    println!(
        "Table 4 campaigns: A random non-branch, B random branch, C valid-but-incorrect branch\n"
    );
    println!("{}", kfi_report::figure4(study));
}

/// Figure 5: a case study of a most-severe or silent-data-corruption
/// error in `do_generic_file_read`, the paper's mov corruption that
/// zeroed `end_index` and truncated file reads. Injects campaign A into
/// the function under `fstime` and shows the first fail-silence
/// violation, else the last severe crash, with the corrupted
/// instruction's disassembly before and after.
fn fig5(opts: &ReproOptions) {
    let exp = prepare(opts);
    let mut rig = exp.make_rig().expect("rig boots");
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
    let targets = plan_function(&exp.image, "do_generic_file_read", Campaign::A, &mut rng);
    let mode = kfi_workloads::mode_of("fstime").expect("fstime exists");
    eprintln!("[kfi] sweeping {} injections into do_generic_file_read under fstime", targets.len());

    let mut best = None;
    for t in &targets {
        let rec = rig.run_one(t, mode);
        match &rec.outcome {
            Outcome::FailSilenceViolation(kind) => {
                println!("=== Figure 5 case study: silent corruption in do_generic_file_read ===");
                println!(
                    "injected: byte {} mask {:#04x} at {:#010x}",
                    t.byte_index, t.bit_mask, t.insn_addr
                );
                println!("outcome: fail silence violation: {kind:?}\n");
                if let Some(cs) =
                    kfi_dump::case_study(&exp.image, t.insn_addr, t.byte_index, t.bit_mask, 14)
                {
                    println!("{}", cs.format());
                }
                return;
            }
            Outcome::Crash(info) if info.severity > Severity::Normal => best = Some(rec),
            _ => {}
        }
    }
    let Some(rec) = best else {
        println!("no severe/silent case found in this sweep; rerun with another --seed");
        return;
    };
    let t = &rec.target;
    println!("=== Figure 5 case study: severe crash in do_generic_file_read ===");
    println!("injected: byte {} mask {:#04x} at {:#010x}", t.byte_index, t.bit_mask, t.insn_addr);
    println!("outcome: {:?}\n", rec.outcome);
    if let Some(cs) = kfi_dump::case_study(&exp.image, t.insn_addr, t.byte_index, t.bit_mask, 14) {
        println!("{}", cs.format());
    }
}

/// Figure 6: the distribution of crash causes per campaign.
fn fig6(_: &Experiment, study: &StudyResult) {
    println!("{}", kfi_report::figure6(study));
}

/// Figure 7: crash latency histograms (CPU cycles) per subsystem.
fn fig7(_: &Experiment, study: &StudyResult) {
    println!("{}", kfi_report::figure7(study));
}

/// Figure 8: error-propagation graphs for fs and kernel.
fn fig8(_: &Experiment, study: &StudyResult) {
    println!("{}", kfi_report::figure8(study));
}

/// Table 5: the most severe crashes (reformat or reinstall required),
/// with the paper's repeatability column: each case re-runs once with
/// the identical target and workload. The machine is deterministic, so
/// repeatability here means the severity assessment itself is stable.
fn table5(exp: &Experiment, study: &StudyResult) {
    println!("{}", kfi_report::table5(study));
    let mut rig = exp.make_rig().expect("rig boots");
    println!("repeatability:");
    for result in study.campaigns.values() {
        for r in stats::most_severe_crashes(&result.records) {
            let again = rig.run_one(&r.target, r.mode);
            let repeat = match (&r.outcome, &again.outcome) {
                (Outcome::Crash(a), Outcome::Crash(b)) => a.severity == b.severity,
                _ => false,
            };
            println!(
                "  {}:{} insn {:#010x} -> repeatable: {}",
                r.target.subsystem,
                r.target.function,
                r.target.insn_addr,
                if repeat { "yes" } else { "no" }
            );
        }
    }
}

/// Tables 6 and 7: case studies of (6) not-manifested random branch
/// errors and (7) representative crash causes, with the corrupted
/// instruction stream's disassembly before and after.
fn table67(opts: &ReproOptions) {
    let exp = prepare(opts);
    let mut rig = exp.make_rig().expect("rig boots");
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);

    println!("=== Table 6: Causes of Not Manifested Errors (Random Branch campaign) ===\n");
    let mut shown = 0;
    'outer: for f in &exp.target_functions {
        for t in &plan_function(&exp.image, f, Campaign::B, &mut rng) {
            let rec = rig.run_one(t, exp.mode_for(t));
            if !matches!(rec.outcome, Outcome::NotManifested) {
                continue;
            }
            if let Some(cs) =
                kfi_dump::case_study(&exp.image, t.insn_addr, t.byte_index, t.bit_mask, 8)
            {
                println!("--- not manifested in {} ---", t.function);
                println!("{}", cs.format());
                shown += 1;
                if shown >= 3 {
                    break 'outer;
                }
            }
        }
    }

    println!("\n=== Table 7: Example Case Studies of Crash Causes ===\n");
    let want = [causes::NULL_POINTER, causes::PAGING_REQUEST, causes::GPF, causes::INVALID_OP];
    let mut found = std::collections::BTreeSet::new();
    'outer2: for f in &exp.target_functions {
        for campaign in [Campaign::A, Campaign::C] {
            for t in &plan_function(&exp.image, f, campaign, &mut rng) {
                let rec = rig.run_one(t, exp.mode_for(t));
                let Outcome::Crash(info) = &rec.outcome else { continue };
                if !want.contains(&info.cause) || !found.insert(info.cause) {
                    continue;
                }
                println!(
                    "--- {} (campaign {}, injected in {}) ---",
                    cause_name(info.cause),
                    campaign.letter(),
                    t.function
                );
                if let Some(cs) =
                    kfi_dump::case_study(&exp.image, t.insn_addr, t.byte_index, t.bit_mask, 12)
                {
                    println!("{}", cs.format());
                }
                println!(
                    "crash at {:#010x} in {} ({}), latency {} cycles\n",
                    info.eip,
                    info.function.as_deref().unwrap_or("?"),
                    info.subsystem,
                    info.latency
                );
                if found.len() == want.len() {
                    break 'outer2;
                }
            }
        }
    }
    println!("(found {} of {} crash-cause examples)", found.len(), want.len());
}

/// The BUG() assertion ablation: campaign C with and without the
/// kernel's assertions. The paper attributes campaign C's
/// invalid-opcode dominance (74.7% of crashes) to assertions compiling
/// to `ud2a`; removing them must collapse that share.
fn ablation(opts: &ReproOptions) {
    let run = |no_assertions: bool| {
        let exp = prepare(&ReproOptions { no_assertions, ..opts.clone() });
        let cc = stats::crash_causes(&exp.run_campaign(Campaign::C).records);
        let total: usize = cc.values().sum();
        let invop = cc.get(&causes::INVALID_OP).copied().unwrap_or(0);
        (total, 100.0 * invop as f64 / total.max(1) as f64)
    };
    let (with_total, with_share) = run(false);
    let (wo_total, wo_share) = run(true);
    println!("Ablation: BUG() assertions vs campaign C crash causes");
    println!("  with assertions:    {with_total} crashes, invalid opcode {with_share:.1}%");
    println!("  without assertions: {wo_total} crashes, invalid opcode {wo_share:.1}%");
    if with_share > wo_share {
        println!("  -> assertions drive the invalid-opcode dominance, as the paper argues");
    } else {
        println!("  -> unexpected: shares did not drop; inspect the records");
    }
}

/// The encoding ablation: campaign A's crashes split by where the
/// flipped bit landed, the opcode byte (`byte_index == 0`) or an
/// operand byte. The paper's Table 7 attributes paging failures to
/// corrupted operands and instruction-stream desynchronization, both
/// products of the variable-length encoding: operand-byte flips should
/// shift the crash mix toward paging failures, opcode-byte flips toward
/// NULL-pointer faults.
fn ablation_bytes(_: &Experiment, study: &StudyResult) {
    let crashes = study.campaigns[&'A']
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Crash(_)))
        .cloned();
    let (opcode, operand): (Vec<RunRecord>, Vec<RunRecord>) =
        crashes.partition(|r| r.target.byte_index == 0);
    let share = |records: &[RunRecord], cause: u32| {
        let cc = stats::crash_causes(records);
        let total: usize = cc.values().sum();
        100.0 * cc.get(&cause).copied().unwrap_or(0) as f64 / total.max(1) as f64
    };
    println!("Encoding ablation: crash-cause mix by corrupted byte position (campaign A)");
    for (label, recs) in [("opcode-byte flips ", &opcode), ("operand-byte flips", &operand)] {
        println!(
            "  {label}: {:>5} crashes | invalid opcode {:>5.1}% | paging {:>5.1}% | NULL {:>5.1}%",
            recs.len(),
            share(recs, causes::INVALID_OP),
            share(recs, causes::PAGING_REQUEST),
            share(recs, causes::NULL_POINTER),
        );
    }
    if share(&operand, causes::PAGING_REQUEST) > share(&opcode, causes::PAGING_REQUEST) {
        println!("  -> operand corruption drives paging failures (Table 7 ex. 2's mechanism)");
    }
}

/// Replays one Table 7 crash case study with the trace ring installed
/// ([`trace_case_study`]).
fn trace(opts: &ReproOptions) {
    let exp = prepare(opts);
    match trace_case_study(&exp, opts.seed) {
        Some(text) => print!("{text}"),
        None => println!("no crash found under cap {:?}; try --full", opts.cap),
    }
}
