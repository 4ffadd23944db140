//! Regenerates every table and figure from one study and, with `--csv`,
//! dumps the raw dataset (run records, then per-campaign execution
//! metrics) as CSV on stdout. `--only <artifact>` prints one artifact
//! instead (`--help` lists them): the study artifacts print from the
//! same study, the others run sweeps of their own.
//!
//! With `--matrix`, runs the campaign matrix (`kernel config ×
//! workload × target subsystem`, axes selectable with
//! `--matrix-kernels/--matrix-workloads/--matrix-subsystems`) instead:
//! stdout carries the matrix CSV when `--csv` is given, and `--check`
//! asserts the matrix invariants (non-empty cells, one record per
//! planned target, traffic workloads activating their subsystems) with
//! a nonzero exit on violation.
//!
//! With `--dist-workers N`, shards the campaigns over `N` worker
//! subprocesses (respawns of this binary with `--worker`) under
//! lease-based fault tolerance; `--chaos SEED` turns on the chaos
//! harness. Stdout stays byte-identical to the in-process run. With
//! `--worker`, speaks the framed lease protocol on stdin/stdout
//! instead of printing anything.

use kfi_bench::artifact::Source;

fn main() {
    let opts = kfi_bench::ReproOptions::from_args();
    if opts.worker {
        // Worker mode: stdout belongs to the wire protocol. All
        // human-facing output goes to stderr (the coordinator routes
        // it to /dev/null).
        let exp = kfi_bench::prepare(&opts);
        match kfi_core::run_worker(
            &exp,
            &opts.worker_config(),
            std::io::stdin().lock(),
            std::io::stdout(),
        ) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("[kfi] worker failed: {e}");
                std::process::exit(2);
            }
        }
    }
    if opts.matrix {
        let m = kfi_bench::run_matrix(&opts);
        if opts.check {
            if let Err(e) = kfi_bench::check_matrix(&m) {
                eprintln!("[kfi] matrix check FAILED: {e}");
                std::process::exit(1);
            }
            eprintln!("[kfi] matrix check: all invariants hold");
        }
        if opts.csv {
            print!("{}", kfi_core::matrix_to_csv(&m));
        }
        let mut journal_failed = false;
        for c in &m.cells {
            if let Some(f) = &c.report.journal_failure {
                eprintln!("[kfi] journal: cell {}: {f}", c.cell.key());
                journal_failed = true;
            }
        }
        if journal_failed {
            std::process::exit(1);
        }
        return;
    }
    let print = match opts.only.map(|a| a.source) {
        Some(Source::Sweep(_, sweep)) => return sweep(&opts),
        Some(Source::Study(print)) => print,
        None => |exp: &kfi_core::Experiment, study: &kfi_core::StudyResult| {
            let top = exp.config.top_fraction;
            println!("{}", kfi_report::full_report(&exp.image, &exp.profile, study, top));
        },
    };
    let exp = kfi_bench::prepare(&opts);
    let (study, journal_failure) = kfi_bench::run_campaigns(&exp, &opts);
    print(&exp, &study);
    if opts.csv {
        print!("{}", kfi_bench::csv_dataset(&study));
    }
    if let Some(f) = journal_failure {
        // The dataset is whole; only a resume would come up short.
        eprintln!("[kfi] journal: {f}");
        std::process::exit(1);
    }
}
