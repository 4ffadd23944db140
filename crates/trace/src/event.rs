//! The compact event model.

/// Stable small codes for run outcomes (mirrors
/// `kfi_injector::Outcome::category`, without depending on it — trace
/// is a leaf crate).
pub mod outcome {
    /// Target instruction never executed under the workload.
    pub const NOT_ACTIVATED: u8 = 0;
    /// Activated but no observable effect.
    pub const NOT_MANIFESTED: u8 = 1;
    /// Fail-silence violation (wrong result / console / silent disk
    /// corruption).
    pub const FAIL_SILENCE_VIOLATION: u8 = 2;
    /// Kernel crash.
    pub const CRASH: u8 = 3;
    /// Watchdog-detected hang.
    pub const HANG: u8 = 4;
    /// The *rig* (not the guest) failed: a worker panicked mid-run and
    /// the supervisor recorded the loss instead of aborting the
    /// campaign.
    pub const RIG_FAULT: u8 = 5;

    /// Number of distinct outcome codes (sizes the metrics tally).
    pub const COUNT: usize = 6;

    /// Human-readable name of an outcome code.
    pub fn name(code: u8) -> &'static str {
        match code {
            NOT_ACTIVATED => "not activated",
            NOT_MANIFESTED => "not manifested",
            FAIL_SILENCE_VIOLATION => "fail silence violation",
            CRASH => "crash",
            HANG => "hang",
            RIG_FAULT => "rig fault",
            _ => "?",
        }
    }
}

/// Stable small ids for guest kernel subsystems, for the propagation
/// events of paper §7 (Figure 8).
pub mod subsystem {
    /// The guest kernel's subsystems, in id order.
    pub const NAMES: [&str; 9] =
        ["arch", "drivers", "fs", "init", "ipc", "kernel", "lib", "mm", "net"];

    /// Id for unknown/unresolvable subsystems.
    pub const UNKNOWN: u8 = 0xff;

    /// Maps a subsystem name to its stable id ([`UNKNOWN`] if not one
    /// of the guest kernel's nine).
    pub fn id(name: &str) -> u8 {
        NAMES.iter().position(|n| *n == name).map(|i| i as u8).unwrap_or(UNKNOWN)
    }

    /// Maps an id back to its name.
    pub fn name(id: u8) -> &'static str {
        NAMES.get(id as usize).copied().unwrap_or("?")
    }
}

/// What happened (the payload of an [`Event`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A CPU fault was delivered (vectors 0..=14).
    ExceptionRaised {
        /// Exception vector number.
        vector: u8,
        /// EIP of the faulting instruction.
        eip: u32,
        /// Hardware error code, when the vector pushes one.
        error_code: Option<u32>,
    },
    /// CR3 was reloaded (address-space switch / TLB flush).
    Cr3Switch {
        /// Previous page-directory base.
        old: u32,
        /// New page-directory base.
        new: u32,
    },
    /// A system call entered the kernel.
    SyscallEntry {
        /// Syscall number (guest EAX).
        nr: u32,
    },
    /// The timer interrupt fired (the watchdog's clock).
    WatchdogTick {
        /// EIP that was interrupted.
        eip: u32,
    },
    /// A reschedule IPI was delivered to the active CPU (SMP guests
    /// only — a uniprocessor trace never contains this).
    IpiDelivered {
        /// EIP that was interrupted.
        eip: u32,
    },
    /// The injector armed its breakpoint on a target instruction.
    InjectionArmed {
        /// Target instruction address.
        addr: u32,
    },
    /// The armed breakpoint matched: the target is about to execute.
    TriggerHit {
        /// Target instruction address.
        addr: u32,
    },
    /// The injector flipped a bit in guest memory.
    BitFlipApplied {
        /// Corrupted byte address.
        addr: u32,
        /// XOR mask applied to that byte.
        mask: u8,
    },
    /// The machine was restored to the post-boot snapshot.
    SnapshotRestore {
        /// Workload mode installed after the restore.
        mode: u32,
    },
    /// A run finished and was classified.
    OutcomeClassified {
        /// Outcome code (see [`outcome`]).
        code: u8,
    },
    /// A crash landed in a different subsystem than the injection
    /// (paper §7's error propagation).
    SubsystemTransition {
        /// Injected subsystem id (see [`subsystem`]).
        from: u8,
        /// Crashing subsystem id.
        to: u8,
    },
}

impl EventKind {
    /// Short uppercase mnemonic for rendering.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            EventKind::ExceptionRaised { .. } => "EXC",
            EventKind::Cr3Switch { .. } => "CR3",
            EventKind::SyscallEntry { .. } => "SYS",
            EventKind::WatchdogTick { .. } => "TICK",
            EventKind::IpiDelivered { .. } => "IPI",
            EventKind::InjectionArmed { .. } => "ARM",
            EventKind::TriggerHit { .. } => "TRIG",
            EventKind::BitFlipApplied { .. } => "FLIP",
            EventKind::SnapshotRestore { .. } => "REST",
            EventKind::OutcomeClassified { .. } => "DONE",
            EventKind::SubsystemTransition { .. } => "PROP",
        }
    }
}

/// One timestamped trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Machine TSC at emission.
    pub tsc: u64,
    /// What happened.
    pub kind: EventKind,
}
