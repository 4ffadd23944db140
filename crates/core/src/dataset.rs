//! Flat, serializable run records for dataset export (CSV lines).

use kfi_injector::{Outcome, RunRecord};
use kfi_trace::Metrics;

/// One flattened run record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordRow {
    /// Campaign letter (A/B/C).
    pub campaign: char,
    /// Target function.
    pub function: String,
    /// Injected subsystem.
    pub subsystem: String,
    /// Target instruction address.
    pub insn_addr: u32,
    /// Corrupted byte index within the instruction.
    pub byte_index: usize,
    /// XOR mask applied.
    pub bit_mask: u8,
    /// Workload mode used.
    pub mode: u32,
    /// Outcome category.
    pub outcome: String,
    /// Crash cause code (0 when not a crash).
    pub cause: u32,
    /// Crash EIP (0 when not a crash).
    pub crash_eip: u32,
    /// Subsystem where the crash landed (empty when not a crash).
    pub crash_subsystem: String,
    /// Crash latency in cycles (0 when not a crash).
    pub latency: u64,
    /// Severity name (empty when not a crash).
    pub severity: String,
    /// Cycles consumed by the run.
    pub run_cycles: u64,
    /// Machine sanitizer violations observed during the run (0 when the
    /// sanitizer is off).
    pub sanitizer_violations: u64,
}

impl RecordRow {
    /// Flattens a [`RunRecord`].
    pub fn from_record(r: &RunRecord) -> RecordRow {
        let (cause, crash_eip, crash_subsystem, latency, severity) = match &r.outcome {
            Outcome::Crash(i) => {
                (i.cause, i.eip, i.subsystem.clone(), i.latency, i.severity.name().to_string())
            }
            _ => (0, 0, String::new(), 0, String::new()),
        };
        RecordRow {
            campaign: r.target.campaign.letter(),
            function: r.target.function.clone(),
            subsystem: r.target.subsystem.clone(),
            insn_addr: r.target.insn_addr,
            byte_index: r.target.byte_index,
            bit_mask: r.target.bit_mask,
            mode: r.mode,
            outcome: r.outcome.category().to_string(),
            cause,
            crash_eip,
            crash_subsystem,
            latency,
            severity,
            run_cycles: r.run_cycles,
            sanitizer_violations: r.sanitizer_violations,
        }
    }
}

/// CSV header matching [`to_csv_line`].
pub const CSV_HEADER: &str = "campaign,function,subsystem,insn_addr,byte_index,bit_mask,mode,outcome,cause,crash_eip,crash_subsystem,latency,severity,run_cycles,sanitizer_violations";

/// Renders one row as a CSV line (fields contain no commas by
/// construction).
pub fn to_csv_line(r: &RecordRow) -> String {
    format!(
        "{},{},{},{:#x},{},{:#04x},{},{},{},{:#x},{},{},{},{},{}",
        r.campaign,
        r.function,
        r.subsystem,
        r.insn_addr,
        r.byte_index,
        r.bit_mask,
        r.mode,
        r.outcome.replace(' ', "_"),
        r.cause,
        r.crash_eip,
        r.crash_subsystem,
        r.latency,
        if r.severity.is_empty() { "-" } else { &r.severity },
        r.run_cycles,
        r.sanitizer_violations
    )
}

/// Renders a whole dataset as CSV.
pub fn to_csv(rows: &[RecordRow]) -> String {
    let mut s = String::from(CSV_HEADER);
    s.push('\n');
    for r in rows {
        s.push_str(&to_csv_line(r));
        s.push('\n');
    }
    s
}

/// CSV header matching [`metrics_csv_line`]: one row of campaign
/// execution metrics (the `CampaignResult::metrics` aggregate).
pub const METRICS_CSV_HEADER: &str = "campaign,runs,runs_not_activated,snapshot_restores,instructions,faults,syscalls,timer_irqs,tlb_hits,tlb_miss_walks,decode_hits,decode_misses,decode_invalidations,dirty_pages,run_cycles_total,sanitizer_violations,rig_panics,run_retries,quarantined_runs,wall_watchdog_fired";

/// Renders one campaign's merged [`Metrics`] as a CSV line: every
/// scalar counter, with the fault vectors summed.
pub fn metrics_csv_line(campaign: char, m: &Metrics) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        campaign,
        m.runs,
        m.runs_not_activated,
        m.snapshot_restores,
        m.instructions,
        m.faults(),
        m.syscalls,
        m.timer_irqs,
        m.tlb_hits,
        m.tlb_miss_walks,
        m.decode_hits,
        m.decode_misses,
        m.decode_invalidations,
        m.dirty_pages,
        m.run_cycles_total,
        m.sanitizer_violations,
        m.rig_panics,
        m.run_retries,
        m.quarantined_runs,
        m.wall_watchdog_fired
    )
}

/// Renders per-campaign metrics as a CSV table, campaigns in the given
/// order.
pub fn metrics_to_csv<'a, I>(campaigns: I) -> String
where
    I: IntoIterator<Item = (char, &'a Metrics)>,
{
    let mut s = String::from(METRICS_CSV_HEADER);
    s.push('\n');
    for (c, m) in campaigns {
        s.push_str(&metrics_csv_line(c, m));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfi_injector::{Campaign, InjectionTarget};

    #[test]
    fn csv_roundtrip_shape() {
        let r = RunRecord {
            target: InjectionTarget {
                campaign: Campaign::B,
                function: "schedule".into(),
                subsystem: "kernel".into(),
                insn_addr: 0xc0102000,
                insn_len: 2,
                byte_index: 1,
                bit_mask: 0x40,
                is_branch: true,
            },
            mode: 3,
            outcome: Outcome::NotManifested,
            activation_tsc: Some(123),
            run_cycles: 456,
            sanitizer_violations: 0,
        };
        let row = RecordRow::from_record(&r);
        assert_eq!(row.campaign, 'B');
        assert_eq!(row.outcome, "not manifested");
        let csv = to_csv(&[row]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let line = lines.next().unwrap();
        assert!(line.starts_with("B,schedule,kernel,0xc0102000,1,0x40,3,not_manifested"));
        assert_eq!(line.split(',').count(), CSV_HEADER.split(',').count());
    }

    #[test]
    fn metrics_csv_shape() {
        let mut m = Metrics::default();
        m.runs = 4;
        m.instructions = 1_000;
        m.decode_hits = 800;
        m.decode_misses = 200;
        m.dirty_pages = 16;
        let csv = metrics_to_csv([('A', &m)]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(METRICS_CSV_HEADER));
        let line = lines.next().unwrap();
        assert_eq!(line.split(',').count(), METRICS_CSV_HEADER.split(',').count());
        assert!(line.starts_with("A,4,"));
        assert!(line.contains(",800,200,"));
    }
}
