//! Outcome classification (the paper's Table 3) and crash severity
//! (Section 7.1).

use crate::target::InjectionTarget;

/// Crash severity levels (paper §7.1) with the paper's downtime model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The system reboots automatically (< 4 minutes).
    Normal,
    /// Interactive fsck required (> 5 minutes, operator needed).
    Severe,
    /// Reformat + reinstall (~1 hour).
    MostSevere,
}

impl Severity {
    /// Modeled downtime in seconds (240 s / 330 s / 3600 s).
    pub fn downtime_secs(&self) -> u32 {
        match self {
            Severity::Normal => 240,
            Severity::Severe => 330,
            Severity::MostSevere => 3600,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Normal => "normal",
            Severity::Severe => "severe",
            Severity::MostSevere => "most severe",
        }
    }
}

/// How a fail-silence violation manifested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsvKind {
    /// A workload reported a wrong result value (wrong data out).
    WrongResult {
        /// Expected result values.
        expected: Vec<u32>,
        /// Observed result values.
        got: Vec<u32>,
    },
    /// Console output differs from the golden run (e.g. an error code
    /// was returned and printed — the paper's `-ESPIPE` example).
    ConsoleMismatch,
    /// The run "succeeded" but left the filesystem corrupted.
    SilentCorruption {
        /// fsck's description.
        detail: String,
    },
}

/// Crash details.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashInfo {
    /// Cause code ([`kfi_kernel::layout::causes`]).
    pub cause: u32,
    /// EIP of the fatal fault.
    pub eip: u32,
    /// Function containing the crash, if resolvable.
    pub function: Option<String>,
    /// Subsystem where the crash happened ("user" when the EIP left the
    /// kernel, "?" when unresolvable).
    pub subsystem: String,
    /// Crash latency in cycles: fault time − activation time. No
    /// injector routine runs between the two, so there is no switching
    /// overhead to subtract (paper §5.3).
    pub latency: u64,
    /// Severity from the post-crash fsck + reboot test.
    pub severity: Severity,
    /// True when the machine triple-faulted (the watchdog had to reset).
    pub triple_fault: bool,
}

/// Outcome of one injection run (paper Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The corrupted instruction was never executed.
    NotActivated,
    /// Executed with no visible abnormal effect.
    NotManifested,
    /// Wrong data/response propagated out of the OS.
    FailSilenceViolation(FsvKind),
    /// The kernel crashed.
    Crash(CrashInfo),
    /// The system wedged (hardware watchdog fired).
    Hang,
    /// The *rig* failed, not the guest: the worker panicked during this
    /// run and the campaign supervisor recorded the loss (with the
    /// panic payload) instead of aborting the whole campaign. Says
    /// nothing about the injected error's effect, so it is excluded
    /// from activation statistics.
    RigFault(String),
}

impl Outcome {
    /// True when the error was activated — everything but NotActivated
    /// and RigFault (a rig fault observed nothing about the guest).
    pub fn activated(&self) -> bool {
        !matches!(self, Outcome::NotActivated | Outcome::RigFault(_))
    }

    /// Short category label.
    pub fn category(&self) -> &'static str {
        match self {
            Outcome::NotActivated => "not activated",
            Outcome::NotManifested => "not manifested",
            Outcome::FailSilenceViolation(_) => "fail silence violation",
            Outcome::Crash(_) => "crash",
            Outcome::Hang => "hang",
            Outcome::RigFault(_) => "rig fault",
        }
    }

    /// True for crash-or-hang (the combined column of Figure 4).
    pub fn is_crash_or_hang(&self) -> bool {
        matches!(self, Outcome::Crash(_) | Outcome::Hang)
    }
}

/// A complete record of one injection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// What was injected.
    pub target: InjectionTarget,
    /// Which workload ran (run mode).
    pub mode: u32,
    /// The classified outcome.
    pub outcome: Outcome,
    /// TSC at activation (bit-flip application), if activated.
    pub activation_tsc: Option<u64>,
    /// Total cycles the run consumed.
    pub run_cycles: u64,
    /// Machine sanitizer violations observed during this run (always 0
    /// when the rig runs without [`MachineConfig::sanitizer`]; a
    /// nonzero count marks the run as poisoned for the supervisor's
    /// retry/quarantine path).
    ///
    /// [`MachineConfig::sanitizer`]: kfi_machine::MachineConfig
    pub sanitizer_violations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_downtime_follows_the_paper() {
        assert!(Severity::Normal.downtime_secs() < 4 * 60 + 1);
        assert!(Severity::Severe.downtime_secs() > 5 * 60);
        assert_eq!(Severity::MostSevere.downtime_secs(), 3600);
        assert!(Severity::Normal < Severity::Severe);
        assert!(Severity::Severe < Severity::MostSevere);
    }

    #[test]
    fn outcome_categories() {
        assert!(!Outcome::NotActivated.activated());
        assert!(Outcome::Hang.activated());
        assert!(Outcome::Hang.is_crash_or_hang());
        assert!(!Outcome::NotManifested.is_crash_or_hang());
        assert_eq!(
            Outcome::FailSilenceViolation(FsvKind::ConsoleMismatch).category(),
            "fail silence violation"
        );
    }
}
