//! `kfi_benchmark`: runs the benchmark workloads and prints their
//! metrics. See `kfi_benchmark/README.md`.

use kfi_benchmark::bench::{out_root, run_traced, run_untraced, Options};
use kfi_benchmark::json::Json;
use kfi_benchmark::workload::{Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

const USAGE: &str = "\
usage: kfi_benchmark [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--check]

Without --workload, runs every workload, each in its own child process,
and checks that dist2_journal's dataset equals paper_cpu1's.

  --workload NAME  paper_cpu1 | smp_cpu2 | traffic_matrix | dist2_journal;
                   prints `workload metric value unit` lines, then one
                   JSON result line
  --seed N         plan seed (default 2003; 2027 is held out for claims)
  --seconds N      measure reps for at least N seconds (default 20)
  --trace [0|1]    1 (or bare --trace): the traced run, per-layer metrics
  --check          smoke scale: cap 1, one rep; without --workload, runs
                   every workload both untraced and traced
";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli =
        Cli { workload: None, seed: DEFAULT_SEED, seconds: 20.0, trace: false, check: false };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = v.parse().map_err(|_| format!("--seed `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                cli.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err(format!("--seconds `{v}` is not a number of seconds")),
                };
            }
            "--trace" => {
                cli.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        cli.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--check" => cli.check = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|e| {
        eprintln!("kfi_benchmark: {e}\n\n{USAGE}");
        std::process::exit(2);
    });
    std::process::exit(match cli.workload {
        Some(w) => run_workload(&cli, w),
        None => run_every_workload(&cli),
    });
}

/// Runs one workload in this process and prints its lines and result.
fn run_workload(cli: &Cli, w: Workload) -> i32 {
    let o = Options { workload: w, seed: cli.seed, seconds: cli.seconds, check: cli.check };
    let work = out_root().join(format!("work-{}-{}-{}", w.name(), cli.seed, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("kfi_benchmark: creating {}: {e}", work.display());
        return 1;
    }
    let result = if cli.trace { run_traced(&o, &work) } else { run_untraced(&o, &work) };
    let _ = std::fs::remove_dir_all(&work);
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kfi_benchmark: {}: {e}", w.name());
            return 1;
        }
    };
    for m in &report.metrics {
        if !m.value.is_finite() {
            report.failures.push(format!("metric {} is not finite", m.name));
        }
    }
    for line in report.lines(w) {
        println!("{line}");
    }
    println!("{}", report.json());
    for f in &report.failures {
        eprintln!("kfi_benchmark: {}: check failed: {f}", w.name());
    }
    i32::from(!report.failures.is_empty())
}

/// Runs every workload in its own child process, so memory peaks do
/// not mix, relaying their lines.
fn run_every_workload(cli: &Cli) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("kfi_benchmark: locating this executable: {e}");
            return 1;
        }
    };
    let traces: &[bool] = if cli.check { &[false, true] } else { &[cli.trace] };
    let mut failed = false;
    let mut digests = BTreeMap::new();
    for &trace in traces {
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &cli.seed.to_string()]);
            cmd.args([
                "--seconds",
                &cli.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
            if cli.check {
                cmd.arg("--check");
            }
            let out = match cmd.stderr(Stdio::inherit()).output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("kfi_benchmark: spawning the {} run: {e}", w.name());
                    failed = true;
                    continue;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let result = lines.pop().and_then(|l| Json::parse(l).ok());
            let digest_prefix = format!("# {} digest ", w.name());
            for line in lines {
                println!("{line}");
                if let Some(d) = line.strip_prefix(&digest_prefix) {
                    digests.insert((trace, w), d.to_string());
                }
            }
            let correct = result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
            if !out.status.success() || !correct {
                eprintln!(
                    "kfi_benchmark: {} (trace {}) failed: {}",
                    w.name(),
                    u8::from(trace),
                    out.status
                );
                failed = true;
            }
        }
        let dist = digests.get(&(trace, Workload::Dist2Journal));
        if dist.is_some() && dist != digests.get(&(trace, Workload::PaperCpu1)) {
            eprintln!("kfi_benchmark: dist2_journal's dataset digest differs from paper_cpu1's");
            failed = true;
        }
    }
    if !failed {
        eprintln!("kfi_benchmark: every workload ran and every check passed");
    }
    i32::from(failed)
}
