//! Renderers for [`kfi_trace`] event timelines and metrics.

use kfi_trace::{outcome, subsystem, CycleHist, Event, EventKind, Metrics};
use std::fmt::Write as _;

/// Renders an event stream (oldest first) as an aligned plain-text
/// timeline: TSC, mnemonic, then a human-readable detail column. The
/// output is deterministic, so it doubles as a golden-test transcript.
pub fn trace_timeline(events: &[Event]) -> String {
    let mut s = String::from("TSC           EV    DETAIL\n");
    for ev in events {
        let detail = match ev.kind {
            EventKind::ExceptionRaised { vector, eip, error_code } => match error_code {
                Some(e) => format!("vector {vector} at {eip:#010x} err={e:#x}"),
                None => format!("vector {vector} at {eip:#010x}"),
            },
            EventKind::Cr3Switch { old, new } => {
                format!("{old:#010x} -> {new:#010x}")
            }
            EventKind::SyscallEntry { nr } => format!("nr {nr}"),
            EventKind::WatchdogTick { eip } => format!("at {eip:#010x}"),
            EventKind::IpiDelivered { eip } => format!("at {eip:#010x}"),
            EventKind::InjectionArmed { addr } => format!("breakpoint at {addr:#010x}"),
            EventKind::TriggerHit { addr } => format!("at {addr:#010x}"),
            EventKind::BitFlipApplied { addr, mask } => {
                format!("byte {addr:#010x} ^= {mask:#04x}")
            }
            EventKind::SnapshotRestore { mode } => format!("workload mode {mode}"),
            EventKind::OutcomeClassified { code } => outcome::name(code).to_string(),
            EventKind::SubsystemTransition { from, to } => {
                format!("{} -> {}", subsystem::name(from), subsystem::name(to))
            }
        };
        let _ = writeln!(s, "{:>12}  {:<4}  {}", ev.tsc, ev.kind.mnemonic(), detail);
    }
    s
}

fn hist_lines(s: &mut String, label: &str, h: &CycleHist) {
    let rows = h.nonzero();
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(s, "{label} (log2 buckets):");
    let max = rows.iter().map(|(_, c)| *c).max().unwrap_or(1) as f64;
    for (floor, count) in rows {
        let width = ((count as f64 / max) * 30.0).round() as usize;
        let _ = writeln!(s, "  >= {floor:>12}  {count:>8}  {}", "#".repeat(width.max(1)));
    }
}

/// Renders a [`Metrics`] registry as an aligned counter table followed
/// by the non-empty histograms.
pub fn metrics_table(m: &Metrics) -> String {
    let mut s = String::from("Metrics\n");
    let mut row = |name: &str, v: u64| {
        let _ = writeln!(s, "  {name:<28} {v:>14}");
    };
    row("runs", m.runs);
    row("runs not activated", m.runs_not_activated);
    row("snapshot restores", m.snapshot_restores);
    row("instructions retired", m.instructions);
    row("faults delivered", m.faults());
    row("syscalls", m.syscalls);
    row("timer irqs", m.timer_irqs);
    row("tlb hits", m.tlb_hits);
    row("tlb miss walks", m.tlb_miss_walks);
    row("decode cache hits", m.decode_hits);
    row("decode cache misses", m.decode_misses);
    row("decode invalidations", m.decode_invalidations);
    row("dirty pages", m.dirty_pages);
    row("run cycles total", m.run_cycles_total);
    // Supervisor/sanitizer counters are zero on a healthy unsupervised
    // run; render them only when something happened, so transcripts
    // from before the supervisor existed stay stable.
    for (name, v) in [
        ("sanitizer violations", m.sanitizer_violations),
        ("rig panics caught", m.rig_panics),
        ("run retries", m.run_retries),
        ("quarantined runs", m.quarantined_runs),
        ("wall watchdog fired", m.wall_watchdog_fired),
    ] {
        if v > 0 {
            row(name, v);
        }
    }
    for (v, n) in m.faults_by_vector.iter().enumerate().filter(|(_, n)| **n > 0) {
        let _ = writeln!(s, "    fault vector {v:<13} {n:>14}");
    }
    let _ = writeln!(s, "  outcomes:");
    for code in 0..m.outcomes.len() as u8 {
        let n = m.outcome(code);
        if n > 0 {
            let _ = writeln!(s, "    {:<26} {n:>14}", outcome::name(code));
        }
    }
    hist_lines(&mut s, "  run cycles", &m.run_cycles);
    hist_lines(&mut s, "  crash latency", &m.crash_latency);
    if m.crash_latency_paper.total() > 0 {
        let _ = writeln!(s, "  crash latency (paper buckets):");
        for (label, count) in m.crash_latency_paper.rows() {
            if count > 0 {
                let _ = writeln!(s, "    {label:<26} {count:>14}");
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_lines_match_events() {
        let events = vec![
            Event { tsc: 10, kind: EventKind::SnapshotRestore { mode: 1 } },
            Event { tsc: 20, kind: EventKind::InjectionArmed { addr: 0xc000_1000 } },
            Event { tsc: 900, kind: EventKind::TriggerHit { addr: 0xc000_1000 } },
            Event { tsc: 950, kind: EventKind::OutcomeClassified { code: outcome::CRASH } },
            Event { tsc: 950, kind: EventKind::SubsystemTransition { from: 2, to: 7 } },
        ];
        let text = trace_timeline(&events);
        // Header + one line per event.
        assert_eq!(text.lines().count(), events.len() + 1);
        assert!(text.contains("ARM"));
        assert!(text.contains("crash"));
        assert!(text.contains("fs -> mm"));
    }

    #[test]
    fn metrics_table_renders_counts() {
        let mut m = Metrics::default();
        m.runs = 3;
        m.instructions = 1_000;
        m.faults_by_vector[14] = 2;
        m.decode_hits = 900;
        m.decode_misses = 100;
        m.dirty_pages = 12;
        m.record_outcome(outcome::CRASH);
        m.record_crash_latency(500);
        let text = metrics_table(&m);
        assert!(text.contains("fault vector 14"));
        assert!(text.contains("crash"));
        assert!(text.contains("crash latency"));
        assert!(text.contains("decode cache hits"));
        assert!(text.contains("crash latency (paper buckets):"));
        assert!(text.contains("100-1k"));
    }
}
