//! The experimental-setup summary (the paper's Table 2), with our
//! simulated equivalents.

/// One row of the setup summary: a labelled aspect and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetupItem {
    /// Group heading (hardware / OS / tools).
    pub group: &'static str,
    /// Aspect label.
    pub label: &'static str,
    /// The paper's value.
    pub paper: &'static str,
    /// This reproduction's value.
    pub ours: &'static str,
}

/// The full Table 2 with paper-vs-reproduction values.
pub fn setup_summary() -> Vec<SetupItem> {
    vec![
        SetupItem {
            group: "Hardware",
            label: "CPU type",
            paper: "Intel P4",
            ours: "kfi-machine (IA-32 subset simulator)",
        },
        SetupItem {
            group: "Hardware",
            label: "CPU clock",
            paper: "1.5 GHz",
            ours: "cycle-accurate cost model (TSC)",
        },
        SetupItem {
            group: "Hardware",
            label: "Cache",
            paper: "256 KB",
            ours: "512-entry software TLB",
        },
        SetupItem {
            group: "Hardware",
            label: "Memory",
            paper: "256 MB",
            ours: "8 MiB guest physical",
        },
        SetupItem {
            group: "Linux OS",
            label: "Kernel",
            paper: "2.4.19",
            ours: "kfi guest kernel (2.4-style, asm)",
        },
        SetupItem {
            group: "Linux OS",
            label: "Distribution",
            paper: "RedHat 7.3",
            ours: "ext2-lite image + /init + /bin suite",
        },
        SetupItem {
            group: "Linux OS",
            label: "File system",
            paper: "Ext2",
            ours: "ext2-lite (1 KiB blocks, bitmaps, inodes)",
        },
        SetupItem {
            group: "Tools",
            label: "Crash dump",
            paper: "LKCD",
            ours: "kfi-dump (machine snapshots + oops capture)",
        },
        SetupItem {
            group: "Tools",
            label: "Workload",
            paper: "UnixBench",
            ours: "kfi-workloads (8 analog programs)",
        },
        SetupItem {
            group: "Tools",
            label: "Profiling",
            paper: "Kernprof",
            ours: "kfi-profiler (PC sampling)",
        },
        SetupItem {
            group: "Tools",
            label: "Kernel debug",
            paper: "KDB",
            ours: "kfi-asm disassembler + probe API",
        },
        SetupItem {
            group: "Tools",
            label: "Error injection",
            paper: "Linux Kernel Injector",
            ours: "kfi-injector (DR-triggered bit flips)",
        },
        SetupItem {
            group: "Tools",
            label: "Campaign setup",
            paper: "reboot + golden rerun per injection",
            ours: "CoW forks of one booted base + prefix checkpoints + severity memo",
        },
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn covers_all_groups() {
        let s = super::setup_summary();
        for g in ["Hardware", "Linux OS", "Tools"] {
            assert!(s.iter().any(|i| i.group == g));
        }
        assert!(s.iter().any(|i| i.paper == "UnixBench"));
    }
}
