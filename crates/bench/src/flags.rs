//! The command line of `repro_all`. One table declares each flag once:
//! its name, what follows it, the runs that read it, what workers
//! inherit of it and its help line. The table drives parsing, `--help`,
//! the check that every flag given reaches a run that reads it, and the
//! argument vector that turns `repro_all` into a `--dist-workers` worker.

use crate::artifact::{Source, ARTIFACTS};
use crate::{name_list, ReproOptions};
use kfi_core::supervisor::PanicInjection;
use std::collections::BTreeSet;
use std::fmt::Write as _;

// The runs of `repro_all`, one bit each. A flag's row names the runs
// that read it, and every other run refuses it. The study artifacts
// (`--only fig4` and the like) run the study, in process or over
// `--dist-workers`, so they read what those runs read. Each other
// artifact runs a sweep of its own and has a bit of its own.

/// The in-process study, the run without a selecting flag.
pub(crate) const STUDY: u32 = 1;
/// The `--dist-workers` coordinator.
pub(crate) const DIST: u32 = 1 << 1;
/// A `--worker` subprocess.
pub(crate) const WORKER: u32 = 1 << 2;
/// The `--matrix` grid.
pub(crate) const MATRIX: u32 = 1 << 3;
/// `--only fig1`.
pub(crate) const FIG1: u32 = 1 << 4;
/// `--only table1`.
pub(crate) const TABLE1: u32 = 1 << 5;
/// `--only table2`.
pub(crate) const TABLE2: u32 = 1 << 6;
/// `--only fig5`.
pub(crate) const FIG5: u32 = 1 << 7;
/// `--only table67`.
pub(crate) const TABLE67: u32 = 1 << 8;
/// `--only trace`.
pub(crate) const TRACE: u32 = 1 << 9;
/// `--only ablation`.
pub(crate) const ABLATION: u32 = 1 << 10;

/// The runs that prepare an experiment from the plan flags.
const PLAN: u32 = STUDY | DIST | WORKER | MATRIX;
/// The sweeps that make injection rigs.
const RIGS: u32 = FIG5 | TABLE67 | TRACE | ABLATION;

/// What follows a flag on the command line.
#[derive(Clone, Copy)]
enum Kind {
    /// Nothing.
    Switch,
    /// A whole number.
    Number,
    /// A whole number from 1 to `u32::MAX`: zero CPUs, threads or
    /// workers is an error, not a request for the default.
    Count,
    /// Any text: a path.
    Text,
    /// One of the names listed.
    Name(fn() -> Vec<&'static str>),
    /// A comma list of the names listed.
    Names(fn() -> Vec<&'static str>),
    /// A comma list of run indices.
    Indices,
}

/// A flag's value, in the field its kind fills.
#[derive(Default)]
struct Value<'a> {
    number: u64,
    text: &'a str,
    indices: BTreeSet<usize>,
}

impl Kind {
    /// The value's placeholder in `--help`, and what an error says was
    /// expected.
    fn describe(self) -> (&'static str, &'static str) {
        match self {
            Kind::Switch => ("", ""),
            Kind::Number => (" N", "a number"),
            Kind::Count => (" N", "a number above 0"),
            Kind::Text => (" PATH", "a value"),
            Kind::Name(_) => (" NAME", "a name"),
            Kind::Names(_) => (" L", "a comma list of names"),
            Kind::Indices => (" I,J,...", "a list of run indices"),
        }
    }

    /// Parses the value `v` that followed the flag, or says what was
    /// expected instead.
    fn parse(self, v: Option<&str>) -> Result<Value<'_>, String> {
        let bad = || {
            let got = v.map_or("nothing".to_string(), |v| format!("`{v}`"));
            format!("expected {}, got {got}", self.describe().1)
        };
        let mut value = Value { text: v.unwrap_or_default(), ..Value::default() };
        match self {
            Kind::Switch => return Ok(value),
            _ if v.is_none() => return Err(bad()),
            Kind::Text => {}
            Kind::Number => value.number = value.text.parse().map_err(|_| bad())?,
            Kind::Count => {
                let n = value.text.parse::<u32>().ok().filter(|n| *n > 0).ok_or_else(bad)?;
                value.number = n.into();
            }
            Kind::Indices => {
                let indices: Option<_> =
                    name_list(value.text).iter().map(|i| i.parse().ok()).collect();
                value.indices = indices.ok_or_else(bad)?;
            }
            Kind::Name(valid) | Kind::Names(valid) => {
                let names = if let Kind::Name(_) = self {
                    vec![value.text.into()]
                } else {
                    name_list(value.text)
                };
                let valid = valid();
                if let Some(n) = names.iter().find(|n| !valid.contains(&n.as_str())) {
                    return Err(format!("unknown name `{n}` (valid: {})", valid.join(", ")));
                }
                if names.is_empty() {
                    return Err(bad());
                }
            }
        }
        Ok(value)
    }
}

/// One flag of `repro_all`, declared once.
struct Flag {
    /// The flag as typed.
    name: &'static str,
    /// What follows it.
    kind: Kind,
    /// The runs that read it: given to any other run, it exits 2.
    runs: u32,
    /// What a `--dist-workers` worker is given of it: the value to pass
    /// on (empty for a switch), or `None` to pass nothing. A flag
    /// without this is not inherited.
    inherit: Option<fn(&ReproOptions) -> Option<String>>,
    /// Its line in `--help`.
    help: &'static str,
    /// Stores its value.
    set: fn(&mut ReproOptions, Value<'_>),
}

use Kind::{Count, Indices, Name, Names, Number, Switch, Text};

/// Every flag of `repro_all`, in `--help` order.
#[rustfmt::skip]
static FLAGS: [Flag; 29] = [
    Flag { name: "--only", kind: Name(|| ARTIFACTS.iter().map(|a| a.name).collect()),
        runs: STUDY | DIST | FIG1 | TABLE1 | TABLE2 | RIGS, inherit: None,
        help: "print one artifact instead of the full report",
        set: |o, v| o.only = ARTIFACTS.iter().find(|a| a.name == v.text) },
    Flag { name: "--full", kind: Switch, runs: PLAN | TRACE | ABLATION,
        help: "paper scale: every byte of every target instruction", set: |o, _| o.cap = None,
        inherit: Some(|o| o.cap.is_none().then(String::new)) },
    Flag { name: "--cap", kind: Number, runs: PLAN | TRACE | ABLATION,
        help: "injections per function per campaign (default 16)",
        set: |o, v| o.cap = Some(v.number as usize),
        inherit: Some(|o| o.cap.map(|n| n.to_string())) },
    Flag { name: "--seed", kind: Number, runs: PLAN | RIGS,
        help: "campaign RNG seed (default 2003)", set: |o, v| o.seed = v.number,
        inherit: Some(|o| Some(o.seed.to_string())) },
    Flag { name: "--threads", kind: Count, runs: STUDY | WORKER | MATRIX | ABLATION,
        help: "host worker threads (default: available parallelism)",
        set: |o, v| o.threads = v.number as usize, inherit: Some(|_| Some("1".into())) },
    Flag { name: "--cpus", kind: Count, runs: PLAN | TABLE1 | RIGS,
        help: "guest CPUs per machine (default 1; more builds the SMP kernel)",
        set: |o, v| o.cpus = v.number as u32,
        inherit: Some(|o| (o.cpus != 1).then(|| o.cpus.to_string())) },
    Flag { name: "--no-assertions", kind: Switch, runs: PLAN | TABLE1 | FIG5 | TABLE67 | TRACE,
        help: "build the kernel without BUG() assertions", set: |o, _| o.no_assertions = true,
        inherit: Some(|o| o.no_assertions.then(String::new)) },
    Flag { name: "--sanitize", kind: Switch, runs: PLAN | TABLE1 | RIGS,
        help: "per-step architectural-state sanitizer on the rig", set: |o, _| o.sanitize = true,
        inherit: Some(|o| o.sanitize.then(String::new)) },
    Flag { name: "--no-memo", kind: Switch, runs: STUDY | DIST | WORKER | RIGS,
        help: "boot and capture goldens per rig, reboot after every\ncrash (same dataset)",
        set: |o, _| o.no_memo = true, inherit: Some(|o| o.no_memo.then(String::new)) },
    Flag { name: "--csv", kind: Switch, runs: STUDY | DIST | MATRIX, inherit: None,
        help: "dump the raw dataset as CSV on stdout, after the report", set: |o, _| o.csv = true },
    Flag { name: "--journal", kind: Text, runs: STUDY | DIST | MATRIX, inherit: None,
        help: "checkpoint every run to PATH (a directory under --matrix)",
        set: |o, v| o.journal = Some(v.text.into()) },
    Flag { name: "--resume", kind: Switch, runs: STUDY | DIST | MATRIX, inherit: None,
        help: "resume from --journal instead of truncating it", set: |o, _| o.resume = true },
    Flag { name: "--quarantine", kind: Text, runs: STUDY, inherit: None,
        help: "directory for persistent offenders' minimal repros",
        set: |o, v| o.quarantine = Some(v.text.into()) },
    Flag { name: "--wall-budget-ms", kind: Number, runs: STUDY | DIST | WORKER,
        help: "per-run wall-clock watchdog budget", set: |o, v| o.wall_budget_ms = Some(v.number),
        inherit: Some(|o| o.wall_budget_ms.map(|n| n.to_string())) },
    Flag { name: "--inject-panic", kind: Indices, runs: STUDY, inherit: None,
        help: "test only: these runs panic on their first attempt",
        set: |o, v| o.inject_panic = PanicInjection::Transient(v.indices) },
    Flag { name: "--inject-panic-persistent", kind: Indices, runs: STUDY, inherit: None,
        help: "test only: these runs panic on every attempt",
        set: |o, v| o.inject_panic = PanicInjection::Persistent(v.indices) },
    Flag { name: "--matrix", kind: Switch, runs: MATRIX, inherit: None,
        help: "run kernel x workload x subsystem cells instead", set: |o, _| o.matrix = true },
    Flag { name: "--matrix-kernels", kind: Names(|| vec!["base", "server"]), runs: MATRIX,
        inherit: None, help: "the kernel axis (default: both)",
        set: |o, v| o.matrix_kernels = Some(v.text.into()) },
    Flag { name: "--matrix-workloads", kind: Names(|| kfi_workloads::Suite::Traffic.workloads()),
        runs: MATRIX, inherit: None, help: "the traffic workload axis (default: all four)",
        set: |o, v| o.matrix_workloads = Some(v.text.into()) },
    Flag { name: "--matrix-subsystems", kind: Names(|| kfi_trace::subsystem::NAMES.to_vec()),
        runs: MATRIX, inherit: None, help: "the subsystem axis (default: ipc,net)",
        set: |o, v| o.matrix_subsystems = Some(v.text.into()) },
    Flag { name: "--check", kind: Switch, runs: MATRIX, inherit: None,
        help: "assert the matrix invariants, exit 1 on a violation", set: |o, _| o.check = true },
    Flag { name: "--dist-workers", kind: Count, runs: DIST, inherit: None,
        help: "shard the study over N worker subprocesses",
        set: |o, v| o.dist_workers = Some(v.number as usize) },
    Flag { name: "--chaos", kind: Number, runs: DIST, inherit: None,
        help: "chaos seed: randomly kill, stall or crash workers",
        set: |o, v| o.chaos = Some(v.number) },
    Flag { name: "--dist-hb-ms", kind: Number, runs: DIST | WORKER,
        help: "worker heartbeat interval (ms, default 100)", set: |o, v| o.dist_hb_ms = v.number,
        inherit: Some(|o| Some(o.dist_hb_ms.to_string())) },
    Flag { name: "--dist-hb-budget-ms", kind: Number, runs: DIST, inherit: None,
        help: "worker silence before its lease expires (ms, default 5000)",
        set: |o, v| o.dist_hb_budget_ms = v.number },
    Flag { name: "--dist-handshake-ms", kind: Number, runs: DIST, inherit: None,
        help: "worker boot and handshake budget (ms, default 180000)",
        set: |o, v| o.dist_handshake_ms = v.number },
    Flag { name: "--wedge-first-handshake", kind: Switch, runs: DIST, inherit: None,
        help: "test only: the first worker wedges its handshake",
        set: |o, _| o.wedge_first_handshake = true },
    Flag { name: "--worker", kind: Switch, runs: WORKER, inherit: Some(|_| Some(String::new())),
        help: "serve --dist-workers over stdin and stdout", set: |o, _| o.worker = true },
    Flag { name: "--worker-wedge-handshake", kind: Switch, runs: WORKER, inherit: None,
        help: "test only: wedge before the handshake",
        set: |o, _| o.worker_wedge_handshake = true },
];

/// Pairs of flags that set one value: giving both is an error, as is
/// giving one flag twice.
const SAME_VALUE: [[&str; 2]; 2] =
    [["--cap", "--full"], ["--inject-panic", "--inject-panic-persistent"]];

/// Each run's bit, its name in `--help`, and the flag that selects it.
fn runs() -> Vec<(u32, &'static str, String)> {
    let fixed = [
        (STUDY, "study", ""),
        (DIST, "dist", "--dist-workers"),
        (WORKER, "worker", "--worker"),
        (MATRIX, "matrix", "--matrix"),
    ]
    .map(|(bit, name, flag)| (bit, name, flag.to_string()));
    let sweeps = ARTIFACTS.iter().filter_map(|a| match a.source {
        Source::Sweep(bit, _) => Some((bit, a.name, format!("--only {}", a.name))),
        Source::Study(_) => None,
    });
    fixed.into_iter().chain(sweeps).collect()
}

/// The `--help` text, from the flag and artifact tables.
fn usage() -> String {
    let runs = runs();
    let study = ARTIFACTS.iter().filter(|a| matches!(a.source, Source::Study(_)));
    let mut s = format!(
        "usage: repro_all [OPTIONS]

Regenerates the paper's tables and figures from one study of campaigns
A/B/C, or one artifact with --only. Below each flag are the runs that
read it; a flag given to any other run exits 2. The runs are the study
(the default), dist (--dist-workers), worker (--worker), matrix
(--matrix) and the artifacts with sweeps of their own. The other
artifacts print from the study, so they read what study and dist read:
{}.

",
        study.map(|a| a.name).collect::<Vec<_>>().join(", ")
    );
    for f in &FLAGS {
        let head = format!("{}{}", f.name, f.kind.describe().0);
        let readers: Vec<&str> = runs.iter().filter(|r| f.runs & r.0 != 0).map(|r| r.1).collect();
        let help = f.help.replace('\n', &format!("\n{:26}", ""));
        let sep =
            if head.len() > 23 { format!("\n{:26}", "") } else { " ".repeat(24 - head.len()) };
        let _ = writeln!(s, "  {head}{sep}{help}\n{:26}[{}]", "", readers.join(" "));
    }
    s + "
Every matrix cell plans with its own RNG seeded as
    cell_seed = seed ^ fnv1a(\"kernel/workload/subsystem\")
(64-bit FNV-1a over the cell key). Cells are therefore independent of
each other and of the grid shape: adding or removing axes never
perturbs another cell's plan, and any one cell reproduces alone by
narrowing --matrix-kernels/--matrix-workloads/--matrix-subsystems.
"
}

/// Prints `msg` and the usage text to stderr and exits 2.
fn usage_error(msg: String) -> ! {
    eprintln!("{msg}\n");
    eprint!("{}", usage());
    std::process::exit(2);
}

impl ReproOptions {
    /// [`ReproOptions::parse`] over the process arguments.
    pub fn from_args() -> ReproOptions {
        ReproOptions::parse(&std::env::args().collect::<Vec<_>>())
    }

    /// Parses `args`, whose first element is the program name, against
    /// the flag table. `--help`/`-h` prints the usage text, generated
    /// from the table, and exits 0. Each of these prints a message and
    /// the usage text to stderr and exits 2, before anything runs:
    ///
    /// * an unknown argument;
    /// * a missing value, or one its flag's kind refuses: a non-number,
    ///   a zero count, an unknown name, a non-number in an index list;
    /// * a flag given twice, or two flags that set one value (`--cap`
    ///   and `--full`, `--inject-panic` and `--inject-panic-persistent`);
    /// * a flag the selected run does not read (`--chaos` without
    ///   `--dist-workers`, `--csv` with `--worker`, `--cap` with
    ///   `--only fig5`, ...), and `--resume` without `--journal`.
    pub fn parse(args: &[String]) -> ReproOptions {
        let mut o = ReproOptions::default();
        let mut given: Vec<&Flag> = Vec::new();
        let mut it = args.iter().skip(1).map(String::as_str);
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                print!("{}", usage());
                std::process::exit(0);
            }
            let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
                usage_error(format!("unknown argument `{arg}`"));
            };
            let v = if let Switch = flag.kind { None } else { it.next() };
            let value = flag.kind.parse(v).unwrap_or_else(|e| usage_error(format!("{arg}: {e}")));
            (flag.set)(&mut o, value);
            let same =
                |g: &&Flag| SAME_VALUE.iter().any(|p| p.contains(&g.name) && p.contains(&arg));
            if let Some(g) = given.iter().find(|g| g.name == arg || same(g)) {
                usage_error(if g.name == arg {
                    format!("{arg} given twice")
                } else {
                    format!("{} and {arg} set one value", g.name)
                });
            }
            given.push(flag);
        }
        let run = o.run();
        if let Some(f) = given.iter().find(|f| f.runs & run == 0) {
            let runs = runs();
            let select = |bits: u32| {
                let flags: Vec<&str> =
                    runs.iter().filter(|r| bits & r.0 != 0).map(|r| r.2.as_str()).collect();
                flags.join(" or ")
            };
            usage_error(match run {
                STUDY => format!("{} needs {}", f.name, select(f.runs)),
                _ => format!("{} is not read by {}", f.name, select(run)),
            });
        }
        if o.resume && o.journal.is_none() {
            usage_error("--resume needs --journal".into());
        }
        o
    }

    /// The run these options select, as its bit in the flag table.
    fn run(&self) -> u32 {
        match self.only.map(|a| a.source) {
            _ if self.worker => WORKER,
            _ if self.matrix => MATRIX,
            Some(Source::Sweep(bit, _)) => bit,
            _ if self.dist_workers.is_some() => DIST,
            _ => STUDY,
        }
    }

    /// The argument vector that turns `repro_all` into a worker with the
    /// same plan-determining configuration (seed, cap, kernel and rig
    /// flags) as the coordinator: the flags the table marks inherited.
    /// The worker runs one thread, and only the coordinator journals.
    pub fn to_worker_args(&self) -> Vec<String> {
        let mut a = Vec::new();
        for f in &FLAGS {
            let Some(value) = f.inherit.and_then(|get| get(self)) else { continue };
            a.push(f.name.to_string());
            if !matches!(f.kind, Switch) {
                a.push(value);
            }
        }
        a
    }
}
