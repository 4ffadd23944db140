//! The `kfi` command-line tool: boot the guest system, run workloads,
//! inject errors into one kernel function and disassemble one. The
//! paper's artifacts come from `repro_all` in `kfi-bench`.

use kfi::injector::{plan_function, Campaign, InjectorRig, Outcome, RigConfig};
use kfi::kernel::{boot, build_kernel, mkfs, BootConfig, KernelBuildOptions, KernelImage};
use rand::SeedableRng;
use std::collections::BTreeMap;

const USAGE: &str = "\
kfi — Characterization of Linux Kernel Behavior under Errors (DSN 2003)

USAGE:
    kfi boot [--mode N|all]        boot the kernel, run workloads, show console
    kfi inject <function> [opts]   inject errors into a kernel function
        --campaign A|B|C           error model (default A)
        --mode N                   workload (default: hottest for the function)
        --count N                  max injections (default 20)
        --seed N                   RNG seed (default 2003)
    kfi disasm <function>          disassemble a kernel function
    kfi help                       this text

The paper's tables and figures come from `repro_all [--only ARTIFACT]`
(cargo run --release -p kfi-bench --bin repro_all -- --help).
";

/// Exits 2 with `msg` and the usage: malformed input is an error, never
/// a silent fallback.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("kfi: {msg}\n");
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// A command's arguments: its positional arguments in order, and the
/// value of each flag given. Flags in `flags` take a value, flags in
/// `switches` take none; any other `-` argument and a flag without its
/// value are usage errors.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str], switches: &[&str]) -> Args {
        let mut out = Args { positional: Vec::new(), flags: BTreeMap::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if flags.contains(&a.as_str()) {
                let v = it.next().unwrap_or_else(|| usage_error(format!("{a}: missing value")));
                out.flags.insert(a.clone(), v.clone());
            } else if switches.contains(&a.as_str()) {
                out.flags.insert(a.clone(), String::new());
            } else if a.starts_with('-') {
                usage_error(format!("unknown argument `{a}`"));
            } else {
                out.positional.push(a.clone());
            }
        }
        out
    }

    /// The positional arguments, of which there must be `names.len()`.
    fn positional(&self, names: &[&str]) -> &[String] {
        if let Some(missing) = names.get(self.positional.len()) {
            usage_error(format!("missing {missing}"));
        }
        if let Some(extra) = self.positional.get(names.len()) {
            usage_error(format!("unexpected argument `{extra}`"));
        }
        &self.positional
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// The number given as `flag`'s value, if the flag was given.
    fn number<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let v = self.get(flag)?;
        let n = v.parse().unwrap_or_else(|_| {
            usage_error(format!("{flag}: expected a number, got `{v}`"));
        });
        Some(n)
    }
}

/// The workload run mode `--mode` names.
fn workload_mode(v: &str) -> u32 {
    let n = kfi::workloads::WORKLOADS.len();
    match v.parse::<u32>() {
        Ok(mode) if (mode as usize) < n => mode,
        _ => usage_error(format!("--mode: expected a workload number 0..={}, got `{v}`", n - 1)),
    }
}

/// The kernel function `name` of `image`, or a usage error.
fn kernel_function<'a>(image: &'a KernelImage, name: &str) -> &'a kfi::asm::Symbol {
    image
        .program
        .symbols
        .lookup(name)
        .unwrap_or_else(|| usage_error(format!("unknown kernel function `{name}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage_error("missing command");
    };
    match command.as_str() {
        "boot" => cmd_boot(&Args::parse(rest, &["--mode"], &[])),
        "inject" => {
            cmd_inject(&Args::parse(rest, &["--campaign", "--mode", "--count", "--seed"], &[]))
        }
        "disasm" => cmd_disasm(&Args::parse(rest, &[], &[])),
        "help" | "--help" | "-h" => print!("{USAGE}"),
        other => usage_error(format!("unknown command `{other}`")),
    }
}

fn cmd_boot(args: &Args) {
    args.positional(&[]);
    let mode = match args.get("--mode") {
        None | Some("all") => kfi::workloads::MODE_ALL,
        Some(v) => workload_mode(v),
    };
    let image = build_kernel(KernelBuildOptions::default()).expect("kernel assembles");
    let files = kfi::workloads::suite_files().expect("workloads assemble");
    let fsimg = mkfs(2048, &files);
    let mut m = boot(&image, fsimg.disk, &BootConfig { run_mode: mode, ..Default::default() });
    let exit = m.run(400_000_000);
    print!("{}", m.console_string());
    println!("-- exit: {exit:?} after {} cycles", m.cpu.tsc);
}

fn cmd_inject(args: &Args) {
    let function = args.positional(&["function name"])[0].as_str();
    let campaign = match args.get("--campaign") {
        None | Some("A") | Some("a") => Campaign::A,
        Some("B") | Some("b") => Campaign::B,
        Some("C") | Some("c") => Campaign::C,
        Some(v) => usage_error(format!("--campaign: expected A, B or C, got `{v}`")),
    };
    let mode = args.get("--mode").map(workload_mode);
    let count: usize = args.number("--count").unwrap_or(20);
    let seed: u64 = args.number("--seed").unwrap_or(2003);

    let image = build_kernel(KernelBuildOptions::default()).expect("kernel assembles");
    let faddr = kernel_function(&image, function).value;
    let files = kfi::workloads::suite_files().expect("workloads assemble");
    eprintln!("booting + golden runs...");
    let mut rig = InjectorRig::new(
        image,
        &files,
        kfi::workloads::WORKLOADS.len() as u32,
        RigConfig::default(),
    )
    .expect("baseline system is healthy");

    // Pick the workload covering the function, preferring the first.
    let mode = mode
        .or_else(|| {
            (0..kfi::workloads::WORKLOADS.len() as u32).find(|m| rig.would_activate(faddr, *m))
        })
        .unwrap_or(0);
    println!(
        "injecting campaign {} into {function} under workload {}",
        campaign.letter(),
        kfi::workloads::WORKLOADS[mode as usize]
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let targets = plan_function(&rig.image, function, campaign, &mut rng);
    for t in targets.iter().take(count) {
        let rec = rig.run_one(t, mode);
        print!(
            "{:#010x} byte {} mask {:#04x}: {}",
            t.insn_addr,
            t.byte_index,
            t.bit_mask,
            rec.outcome.category()
        );
        if let Outcome::Crash(i) = &rec.outcome {
            print!(
                " [{} in {} ({}), latency {}, {}]",
                kfi::kernel::layout::cause_name(i.cause),
                i.function.as_deref().unwrap_or("?"),
                i.subsystem,
                i.latency,
                i.severity.name()
            );
        }
        println!();
    }
}

fn cmd_disasm(args: &Args) {
    let function = args.positional(&["function name"])[0].as_str();
    let image = build_kernel(KernelBuildOptions::default()).expect("kernel assembles");
    let sym = kernel_function(&image, function);
    let bytes = image.program.slice_at(sym.value, sym.size as usize).expect("function bytes");
    println!(
        "{} ({}), {} bytes at {:#010x}:",
        sym.name,
        sym.subsystem.as_deref().unwrap_or("?"),
        sym.size,
        sym.value
    );
    print!("{}", kfi::asm::format_listing(&kfi::asm::disassemble(bytes, sym.value)));
}
