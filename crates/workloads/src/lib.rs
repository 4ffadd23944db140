//! # kfi-workloads — the UnixBench-analog guest workload suite
//!
//! Eight user-space benchmark programs mirroring the programs the paper
//! selected from UnixBench (`context1`, `dhry`, `fstime`, `hanoi`,
//! `looper`, `pipe`, `spawn`, `syscall`), plus the `/init` runner that
//! executes them and the `nulltask` exec target. Built as KBIN flat
//! binaries and installed into the filesystem image.
//!
//! A second, traffic-shaped suite ([`Suite::Traffic`]) appends four
//! server workloads emulating heavy multi-user traffic — `echo`
//! (ipc message-queue request/response), `netstorm` (loopback socket
//! bursts), `sysstorm` (mixed syscall storm), `forkflood` (concurrent
//! spawn flood). The first two need the server-variant kernel
//! (`KernelBuildOptions { server: true }`); the mode table, the
//! `/bin` contents, and the runner's dispatch tables are all derived
//! from one workload list per suite (see [`runner_source`]).
//!
//! Each workload is deterministic and finishes by reporting a checksum
//! through `sys_report` — the golden-run oracle the injector compares
//! against to classify fail-silence violations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kfi_asm::AsmError;
use kfi_kernel::mkfs::FileSpec;
use kfi_kernel::{build_with_runtime, standard_fixtures};

/// The benchmark programs, in run-mode order (mode `i` runs
/// `WORKLOADS[i]`; mode `0xFF` runs the full suite).
pub const WORKLOADS: &[&str] =
    &["context1", "dhry", "fstime", "hanoi", "looper", "pipe", "spawn", "syscall"];

/// The traffic-shaped server workloads, appended after [`WORKLOADS`]
/// in [`Suite::Traffic`] mode order (mode `8` runs `echo`, …).
pub const TRAFFIC_WORKLOADS: &[&str] = &["echo", "netstorm", "sysstorm", "forkflood"];

/// Run mode value that runs the complete suite.
pub const MODE_ALL: u32 = 0xff;

/// The workload sources (name → assembly).
pub const SOURCES: &[(&str, &str)] = &[
    ("context1", include_str!("../asm/context1.s")),
    ("dhry", include_str!("../asm/dhry.s")),
    ("fstime", include_str!("../asm/fstime.s")),
    ("hanoi", include_str!("../asm/hanoi.s")),
    ("looper", include_str!("../asm/looper.s")),
    ("pipe", include_str!("../asm/pipe.s")),
    ("spawn", include_str!("../asm/spawn.s")),
    ("syscall", include_str!("../asm/syscall.s")),
    ("nulltask", include_str!("../asm/nulltask.s")),
    ("runner", include_str!("../asm/runner.s")),
];

/// The traffic workload sources (name → assembly), in
/// [`TRAFFIC_WORKLOADS`] order.
pub const TRAFFIC_SOURCES: &[(&str, &str)] = &[
    ("echo", include_str!("../asm/echo.s")),
    ("netstorm", include_str!("../asm/netstorm.s")),
    ("sysstorm", include_str!("../asm/sysstorm.s")),
    ("forkflood", include_str!("../asm/forkflood.s")),
];

/// The `/init` runner source.
pub const INIT_SOURCE: &str = include_str!("../asm/init.s");

/// A workload suite: the paper's eight UnixBench analogs, or those
/// plus the four traffic-shaped server workloads. The suite is the
/// single source of truth for the mode table (`mode_of`), the
/// filesystem contents (`files`), and the runner dispatch tables
/// (`runner_source(&suite.workloads())`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Suite {
    /// The eight paper workloads (the golden-corpus configuration).
    #[default]
    Paper,
    /// Paper workloads plus [`TRAFFIC_WORKLOADS`]; `echo`/`netstorm`
    /// need the server-variant kernel.
    Traffic,
}

impl Suite {
    /// The suite's workloads in run-mode order.
    pub fn workloads(self) -> Vec<&'static str> {
        let mut w: Vec<&'static str> = WORKLOADS.to_vec();
        if self == Suite::Traffic {
            w.extend_from_slice(TRAFFIC_WORKLOADS);
        }
        w
    }

    /// The run-mode value for a named workload in this suite.
    pub fn mode_of(self, name: &str) -> Option<u32> {
        self.workloads().iter().position(|w| *w == name).map(|i| i as u32)
    }

    /// Number of single-workload run modes (the `n_modes` a rig base
    /// captures golden runs for).
    pub fn n_modes(self) -> u32 {
        self.workloads().len() as u32
    }

    /// Builds the suite's filesystem file set. [`Suite::Paper`] is
    /// exactly [`suite_files`] (the checked-in runner); the traffic
    /// suite swaps in a generated runner whose dispatch tables cover
    /// all twelve workloads and appends the four traffic binaries.
    ///
    /// # Errors
    ///
    /// Assembly errors in any program (with file/line positions).
    pub fn files(self) -> Result<Vec<FileSpec>, AsmError> {
        match self {
            Suite::Paper => suite_files(),
            Suite::Traffic => {
                let mut files = standard_fixtures();
                files.push(FileSpec {
                    path: "/init".into(),
                    data: build_with_runtime("init.s", INIT_SOURCE)?.bytes,
                });
                let runner = runner_source(&self.workloads());
                for (name, src) in SOURCES {
                    let src = if *name == "runner" { runner.as_str() } else { *src };
                    files.push(FileSpec {
                        path: format!("/bin/{name}"),
                        data: build_with_runtime(name, src)?.bytes,
                    });
                }
                for (name, src) in TRAFFIC_SOURCES {
                    files.push(FileSpec {
                        path: format!("/bin/{name}"),
                        data: build_with_runtime(name, src)?.bytes,
                    });
                }
                Ok(files)
            }
        }
    }
}

/// Builds the full file set for a benchmark-ready filesystem image:
/// `/init`, `/bin/<workload>` for every workload, `/bin/nulltask`, and
/// the standard fixtures.
///
/// # Errors
///
/// Assembly errors in any program (with file/line positions).
pub fn suite_files() -> Result<Vec<FileSpec>, AsmError> {
    let mut files = standard_fixtures();
    files.push(FileSpec {
        path: "/init".into(),
        data: build_with_runtime("init.s", INIT_SOURCE)?.bytes,
    });
    for (name, src) in SOURCES {
        files.push(FileSpec {
            path: format!("/bin/{name}"),
            data: build_with_runtime(name, src)?.bytes,
        });
    }
    Ok(files)
}

/// The run-mode value for a named workload (paper suite; see
/// [`Suite::mode_of`] for suite-aware resolution).
pub fn mode_of(name: &str) -> Option<u32> {
    Suite::Paper.mode_of(name)
}

/// The fixed code half of the runner source (everything above the
/// generated `NR_WORKLOADS` equate and dispatch tables).
const RUNNER_CODE: &str = r#"# runner.s — the benchmark runner (pid 2), exec'd by the supervisor
# init. Announces itself to the host monitor (the snapshot point), reads
# the host-selected run mode, and runs the workloads.

.text
main:
    # snapshot point: the host snapshots the machine here and pokes the
    # run mode before resuming
    movl $0x512, %eax         # EVT_RUNNER
    call sys_mark
    movl $banner, %eax
    call print
    call sys_getmode
    movl %eax, %esi           # mode
    cmpl $0xFF, %esi
    je run_all
    cmpl $NR_WORKLOADS, %esi
    jae run_all
    movl %esi, %eax
    call run_one
    jmp done
run_all:
    xorl %edi, %edi
1:  cmpl $NR_WORKLOADS, %edi
    jae done
    movl %edi, %eax
    call run_one
    incl %edi
    jmp 1b
done:
    movl $done_msg, %eax
    call print
    xorl %eax, %eax
    ret

# run_one(index=%eax): fork + exec + wait + report.
.type run_one, @function
run_one:
    push %ebx
    push %esi
    movl %eax, %ebx
    movl $run_msg, %eax
    call print
    movl name_table(,%ebx,4), %eax
    call print
    movl $colon, %eax
    call print
    movl %ebx, %eax
    addl $0x111, %eax
    call sys_mark
    call sys_fork
    testl %eax, %eax
    jnz ro_parent
    movl path_table(,%ebx,4), %eax
    call sys_execve
    movl $execfail, %eax
    call print
    movl $127, %eax
    call sys_exit
ro_parent:
    movl %eax, %esi
    movl %eax, %eax
    movl $status, %edx
    call sys_waitpid
    movl status, %eax
    call print_dec
    movl $nl, %eax
    call print
    pop %esi
    pop %ebx
    ret
"#;

/// Generates the runner source for a workload list: the fixed code
/// half plus `NR_WORKLOADS` and the name/path dispatch tables. For
/// [`WORKLOADS`] this reproduces `asm/runner.s` byte-for-byte
/// (tested), so the golden corpora cannot drift; the traffic suite
/// uses it to dispatch all twelve workloads.
pub fn runner_source(workloads: &[&str]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from(RUNNER_CODE);
    let _ = write!(
        s,
        "\n.equ NR_WORKLOADS, {}\n\n.data\n\
         banner:   .asciz \"runner: kfi benchmark runner\\n\"\n\
         run_msg:  .asciz \"runner: run \"\n\
         colon:    .asciz \" -> \"\n\
         nl:       .asciz \"\\n\"\n\
         done_msg: .asciz \"runner: all done\\n\"\n\
         execfail: .asciz \"runner: exec failed\\n\"\n\
         status:   .long 0\n",
        workloads.len()
    );
    for (table, prefix) in [("name_table", 'n'), ("path_table", 'p')] {
        let _ = writeln!(s, "{table}:");
        let refs: Vec<String> = (0..workloads.len()).map(|i| format!("{prefix}{i}")).collect();
        let _ = writeln!(s, "    .long {}", refs.join(", "));
    }
    for (i, w) in workloads.iter().enumerate() {
        let _ = writeln!(s, "n{i}: .asciz \"{w}\"");
    }
    for (i, w) in workloads.iter().enumerate() {
        let _ = writeln!(s, "p{i}: .asciz \"/bin/{w}\"");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_assemble() {
        let files = suite_files().expect("suite assembles");
        assert!(files.iter().any(|f| f.path == "/init"));
        for w in WORKLOADS {
            assert!(files.iter().any(|f| f.path == format!("/bin/{w}")), "missing {w}");
        }
        assert!(files.iter().any(|f| f.path == "/bin/nulltask"));
        assert!(files.iter().any(|f| f.path == "/bin/runner"));
        for f in &files {
            assert!(!f.data.is_empty(), "{} is empty", f.path);
        }
    }

    #[test]
    fn traffic_suite_assembles_and_extends_paper() {
        let paper = Suite::Paper.files().expect("paper suite assembles");
        let traffic = Suite::Traffic.files().expect("traffic suite assembles");
        // Paper suite is exactly the legacy file set.
        let legacy = suite_files().unwrap();
        assert_eq!(paper.len(), legacy.len());
        for (a, b) in paper.iter().zip(&legacy) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.data, b.data, "{} differs", a.path);
        }
        // Traffic adds exactly the four new binaries, keeps everything
        // else at the same paths, and swaps in a wider runner.
        assert_eq!(traffic.len(), paper.len() + TRAFFIC_WORKLOADS.len());
        for w in TRAFFIC_WORKLOADS {
            let f = traffic
                .iter()
                .find(|f| f.path == format!("/bin/{w}"))
                .unwrap_or_else(|| panic!("missing {w}"));
            assert!(!f.data.is_empty());
        }
        let pr = paper.iter().find(|f| f.path == "/bin/runner").unwrap();
        let tr = traffic.iter().find(|f| f.path == "/bin/runner").unwrap();
        assert_ne!(pr.data, tr.data, "traffic runner must dispatch more modes");
    }

    #[test]
    fn generated_runner_matches_checked_in_source() {
        // The checked-in runner.s and the generator output must be
        // byte-identical for the paper list — one source of truth, and
        // the golden corpora (built from the checked-in file) cannot
        // drift from what the generator would produce.
        let checked_in = SOURCES.iter().find(|(n, _)| *n == "runner").unwrap().1;
        assert_eq!(runner_source(WORKLOADS), checked_in);
    }

    #[test]
    fn mode_table_is_single_source_of_truth() {
        // WORKLOADS order, mode_of, and the runner dispatch tables all
        // agree, for both suites.
        for suite in [Suite::Paper, Suite::Traffic] {
            let ws = suite.workloads();
            let runner = runner_source(&ws);
            assert!(runner.contains(&format!(".equ NR_WORKLOADS, {}\n", ws.len())));
            for (i, w) in ws.iter().enumerate() {
                assert_eq!(suite.mode_of(w), Some(i as u32), "{w}");
                assert!(runner.contains(&format!("n{i}: .asciz \"{w}\"\n")), "{w} name");
                assert!(runner.contains(&format!("p{i}: .asciz \"/bin/{w}\"\n")), "{w} path");
            }
            assert_eq!(suite.n_modes(), ws.len() as u32);
        }
    }

    #[test]
    fn modes_resolve() {
        assert_eq!(mode_of("context1"), Some(0));
        assert_eq!(mode_of("syscall"), Some(7));
        assert_eq!(mode_of("nope"), None);
        // Traffic modes extend, never renumber.
        assert_eq!(Suite::Traffic.mode_of("syscall"), Some(7));
        assert_eq!(Suite::Traffic.mode_of("echo"), Some(8));
        assert_eq!(Suite::Traffic.mode_of("forkflood"), Some(11));
        assert_eq!(Suite::Paper.mode_of("echo"), None);
    }

    #[test]
    fn a_fresh_disk_owns_exactly_its_non_zero_pages() {
        // Every other page stays the shared zero page, so a base and its
        // forks never hold a copy of an empty page.
        for suite in [Suite::Paper, Suite::Traffic] {
            let disk = kfi_kernel::mkfs(2048, &suite.files().unwrap()).disk;
            let non_zero = (0..)
                .map_while(|p| disk.page(p))
                .filter(|page| page.iter().any(|&b| b != 0))
                .count();
            assert!(non_zero > 0, "{suite:?}");
            assert_eq!(disk.private_pages() as usize, non_zero, "{suite:?}");
        }
    }
}
