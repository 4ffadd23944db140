//! The traced run: per-layer numbers from spans recorded around calls
//! into each crate's public functions, from outside the program.
//!
//! The pass replays the workload's plan with a direct `run_one` loop on
//! [`HOST_WORKERS`] threads (the supervisor hides per-run boundaries),
//! times setup piece by piece, and adds probes for the layers a campaign
//! only touches in passing: an extra `assess_severity` and `fsck` after
//! each crash run, 1-thread supervised vs direct loops, machine replay,
//! wire encode/decode, journal append and read, and a worker handshake.
//! Spans stay in memory and are written to a TSV file at the end.

use crate::bench::{out_root, Metric, Options};
use crate::measure::{median, percentile, tail, Calibrator};
use crate::workload::{
    outcome_tag, repro_all, units, Dataset, Prepared, Unit, UnitKey, HOST_WORKERS,
};
use kfi_core::journal::read_journal;
use kfi_core::{
    run_plan_supervised, CampaignResult, CellResult, Experiment, Journal, JournalEntry,
    MatrixResult, StudyResult, SupervisorConfig, SupervisorReport,
};
use kfi_injector::wire::{decode_msg, encode_msg, Msg};
use kfi_injector::{Campaign, InjectionTarget, InjectorRig, Outcome, RigShared, RunRecord};
use kfi_kernel::BootConfig;
use kfi_machine::{Machine, Ramdisk};
use kfi_trace::frame::{write_frame, StreamDecoder};
use kfi_trace::Metrics;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Simulated cycles per machine-replay pass.
const REPLAY_CYCLES: u64 = 20_000_000;
/// Machine-replay passes (the median is reported).
const REPLAY_PASSES: usize = 3;
/// Plan entries the supervised and direct 1-thread loops each run.
const SUP_VS_DIRECT_RUNS: usize = 100;

/// fsck's content manifest: path → (inode, checksum).
type Manifest = BTreeMap<String, (u32, u32)>;
/// One run's record and metrics delta, in plan order per unit.
type Runs = Vec<(RunRecord, Metrics)>;
/// What one worker thread of [`direct_loop`] returns: its runs with
/// their plan indices, and its spans.
type WorkerOutput = Result<(Vec<(usize, RunRecord, Metrics)>, Vec<Span>), String>;

/// One timed interval. Spans of one injection run share `run`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-prefixed name, e.g. `injector.run`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// 0 for the main thread, 1.. for campaign workers.
    pub thread: usize,
    /// Start, ns since the traced pass began.
    pub start_ns: u64,
    /// End, ns since the traced pass began.
    pub end_ns: u64,
    /// Run id: (campaign unit, plan index).
    pub run: Option<(usize, usize)>,
    /// Outcome of the run, for `injector.run` spans.
    pub tag: &'static str,
    /// Simulated cycles of the run, for `injector.run` spans.
    pub cycles: u64,
}

impl Span {
    fn leaf(name: &'static str, parent: usize, thread: usize, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent: Some(parent), thread, start_ns, end_ns, run: None, tag: "", cycles: 0 }
    }

    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl Recorder {
    fn now(&self) -> u64 {
        since(self.t0)
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            parent,
            start_ns,
            end_ns: start_ns,
            ..Span::leaf(name, 0, 0, 0, 0)
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn time<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let v = f();
        self.close(id);
        v
    }

    fn named(&self, name: &'static str) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// What the traced pass produced.
pub struct Traced {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The traced dataset's CSV (must equal the untraced run's).
    pub csv: String,
    /// Injection runs executed by the campaign loop.
    pub runs: u64,
    /// Runs recorded as rig faults.
    pub rig_faults: u64,
    /// Where the spans were written.
    pub spans_file: PathBuf,
}

/// Runs a unit's plan on `threads` workers, each with its own fork of
/// `base`. With a manifest, every crash run is followed by an `fsck`
/// and an `assess_severity` probe, each timed as its own span.
fn direct_loop(
    t0: Instant,
    parent: usize,
    unit: usize,
    base: &Arc<RigShared>,
    plan: &[(InjectionTarget, u32)],
    manifest: Option<&Manifest>,
    threads: usize,
) -> Result<(Runs, Vec<Span>), String> {
    let next = AtomicUsize::new(0);
    let worker = |thread: usize| -> WorkerOutput {
        let mut spans = Vec::new();
        let mut out = Vec::new();
        let a = since(t0);
        let mut rig = InjectorRig::fork(base).map_err(|e| e.to_string())?;
        spans.push(Span::leaf("injector.fork", parent, thread, a, since(t0)));
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some((target, mode)) = plan.get(index) else { break };
            let a = since(t0);
            let record = rig.run_one(target, *mode);
            let b = since(t0);
            let metrics = rig.take_metrics();
            spans.push(Span {
                run: Some((unit, index)),
                tag: outcome_tag(&record.outcome),
                cycles: record.run_cycles,
                ..Span::leaf("injector.run", parent, thread, a, b)
            });
            if let (Outcome::Crash(_), Some(manifest)) = (&record.outcome, manifest) {
                let disk = rig.machine_mut().disk.as_ref().ok_or("crashed rig has no disk")?;
                let disk = disk.bytes().to_vec();
                let a = since(t0);
                std::hint::black_box(kfi_kernel::fsck(&disk, manifest));
                let b = since(t0);
                std::hint::black_box(rig.assess_severity());
                let c = since(t0);
                for (name, s, e) in [("kernel.fsck", a, b), ("injector.severity", b, c)] {
                    spans.push(Span {
                        run: Some((unit, index)),
                        ..Span::leaf(name, parent, thread, s, e)
                    });
                }
            }
            out.push((index, record, metrics));
        }
        Ok((out, spans))
    };
    let joined: Vec<_> = std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = (1..=threads).map(|t| s.spawn(move || worker(t))).collect();
        handles.into_iter().map(|h| h.join().expect("traced worker thread panicked")).collect()
    });
    let mut runs = Vec::with_capacity(plan.len());
    let mut spans = Vec::new();
    for j in joined {
        let (r, s) = j?;
        runs.extend(r);
        spans.extend(s);
    }
    runs.sort_by_key(|(i, _, _)| *i);
    Ok((runs.into_iter().map(|(_, r, m)| (r, m)).collect(), spans))
}

/// Assembles a campaign result exactly as the supervisor does: records
/// in plan order, per-run metrics merged in plan order.
fn campaign_result(campaign: Campaign, runs: &Runs) -> CampaignResult {
    let mut functions: Vec<&str> = runs.iter().map(|(r, _)| r.target.function.as_str()).collect();
    functions.sort_unstable();
    functions.dedup();
    let mut metrics = Metrics::default();
    for (_, m) in runs {
        metrics.merge(m);
    }
    CampaignResult {
        campaign,
        records: runs.iter().map(|(r, _)| r.clone()).collect(),
        functions_injected: functions.len(),
        metrics,
    }
}

fn dataset(units: &[Unit], results: &[Runs], seed: u64) -> Dataset {
    let mut campaigns = BTreeMap::new();
    let mut cells = Vec::new();
    for (u, runs) in units.iter().zip(results) {
        let result = campaign_result(u.key.campaign(), runs);
        match &u.key {
            UnitKey::Campaign(c) => {
                campaigns.insert(c.letter(), result);
            }
            UnitKey::Cell(cell) => {
                cells.push(CellResult {
                    cell: cell.clone(),
                    result,
                    report: SupervisorReport::default(),
                });
            }
        }
    }
    if cells.is_empty() {
        Dataset::Study(StudyResult { campaigns, seed })
    } else {
        Dataset::Matrix(MatrixResult { cells, seed })
    }
}

/// 1-thread `run_plan_supervised` against a 1-thread direct loop over
/// the first [`SUP_VS_DIRECT_RUNS`] plan entries of the workload's last
/// campaign unit; each side runs twice, alternating, and the faster run
/// of each is compared.
fn supervisor_vs_direct(
    rec: &mut Recorder,
    p: &Prepared,
    base: &Arc<RigShared>,
    unit: usize,
    u: &Unit,
) -> Result<f64, String> {
    let top = rec.open("core.supervisor_vs_direct", None);
    // Boot the experiment's own shared base first, so the supervised
    // side starts as warm as the direct one.
    drop(rec.time("core.make_rig", Some(top), || p.exp.make_rig())?);
    let one: Experiment = p.exp.with_threads(1);
    let plan = &u.plan[..u.plan.len().min(SUP_VS_DIRECT_RUNS)];
    let (mut direct, mut supervised) = (f64::MAX, f64::MAX);
    for _ in 0..2 {
        let id = rec.open("core.direct_1t", Some(top));
        direct_loop(rec.t0, id, unit, base, plan, None, 1)?;
        rec.close(id);
        direct = direct.min(rec.spans[id].ms());
        let id = rec.open("core.supervised_1t", Some(top));
        let sup = SupervisorConfig::default();
        run_plan_supervised(&one, u.key.campaign(), plan.to_vec(), &sup)?;
        rec.close(id);
        supervised = supervised.min(rec.spans[id].ms());
    }
    rec.close(top);
    Ok((supervised - direct) / direct * 100.0)
}

/// MIPS of a copy-on-write fork off a booted snapshot, replaying a
/// fixed cycle budget at the workload's guest CPU count.
fn replay_mips(rec: &mut Recorder, exp: &Experiment, cpus: u32) -> f64 {
    let top = rec.open("machine.replay", None);
    let fsimg = kfi_kernel::mkfs(2048, &exp.files);
    let disk = fsimg.disk.bytes().to_vec();
    let m = kfi_kernel::boot(&exp.image, fsimg.disk, &BootConfig { cpus, ..BootConfig::default() });
    let snap = m.snapshot();
    let cfg = *m.config();
    let mut mips = Vec::new();
    for _ in 0..REPLAY_PASSES {
        let mut f = Machine::fork(&snap, cfg);
        f.disk = Some(Ramdisk::fork_from(&disk, snap.id()));
        let id = rec.open("machine.replay_pass", Some(top));
        std::hint::black_box(f.run(REPLAY_CYCLES));
        rec.close(id);
        mips.push(f.counters().instructions as f64 / rec.spans[id].ms() / 1e3);
    }
    rec.close(top);
    median(&mips)
}

/// Encodes each run as the `JobDone` frame a worker would send and
/// decodes it back; returns the mean framed bytes per run.
fn wire_roundtrip(rec: &mut Recorder, results: &[Runs]) -> Result<f64, String> {
    let top = rec.open("injector.wire", None);
    let (mut bytes, mut runs) = (0usize, 0usize);
    for (index, (record, metrics)) in results.iter().flatten().enumerate() {
        let msg = Msg::JobDone {
            lease: 0,
            index: index as u64,
            record: record.clone(),
            metrics: Box::new(metrics.clone()),
        };
        let a = rec.now();
        let mut payload = Vec::new();
        encode_msg(&mut payload, &msg);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload);
        let b = rec.now();
        let mut dec = StreamDecoder::new();
        dec.push(&framed);
        let back = dec.next_frame().and_then(|p| decode_msg(&p, &mut 0).ok());
        let c = rec.now();
        if back.as_ref() != Some(&msg) {
            return Err(format!("wire roundtrip changed run {index}"));
        }
        rec.spans.push(Span::leaf("injector.wire_encode", top, 0, a, b));
        rec.spans.push(Span::leaf("injector.wire_decode", top, 0, b, c));
        bytes += framed.len();
        runs += 1;
    }
    rec.close(top);
    Ok(bytes as f64 / runs.max(1) as f64)
}

/// Writes the runs to journals the way the supervisor lays them out
/// (one per study, one per matrix cell), reads them back with
/// `read_journal`, and returns the journal bytes per run.
fn journal_roundtrip(
    rec: &mut Recorder,
    work: &Path,
    seed: u64,
    units: &[Unit],
    results: &[Runs],
) -> Result<f64, String> {
    let matrix = matches!(units.first().map(|u| &u.key), Some(UnitKey::Cell(_)));
    let groups: Vec<Vec<usize>> = if matrix {
        (0..units.len()).map(|i| vec![i]).collect()
    } else {
        vec![(0..units.len()).collect()]
    };
    let io = |e: std::io::Error| format!("trace journal: {e}");
    let mut files = Vec::new();
    let top = rec.open("core.journal_append", None);
    for (g, members) in groups.iter().enumerate() {
        let path = work.join(format!("trace-{g}.journal"));
        let mut journal = Journal::create(&path, seed).map_err(io)?;
        let mut expected = Vec::new();
        for &u in members {
            let campaign = units[u].key.campaign().letter();
            for (index, (record, metrics)) in results[u].iter().enumerate() {
                let entry = JournalEntry {
                    campaign,
                    index,
                    record: record.clone(),
                    metrics: metrics.clone(),
                };
                journal.append(&entry).map_err(io)?;
                expected.push(entry);
            }
            journal.sync().map_err(io)?;
        }
        files.push((path, expected));
    }
    rec.close(top);
    let top = rec.open("core.journal_read", None);
    let mut bytes = 0;
    for (path, expected) in &files {
        let entries = read_journal(path, seed).map_err(|e| format!("{}: {e}", path.display()))?;
        if &entries != expected {
            return Err(format!("{} does not read back what was appended", path.display()));
        }
        bytes += std::fs::metadata(path).map_err(io)?.len();
    }
    rec.close(top);
    let runs: usize = results.iter().map(Vec::len).sum();
    Ok(bytes as f64 / runs.max(1) as f64)
}

/// Spawns `repro_all` with worker flags and returns the milliseconds
/// until its first `Hello` frame; then closes its stdin and waits for
/// it to exit.
fn handshake_ms(rec: &mut Recorder, args: &[String]) -> Result<f64, String> {
    let exe = repro_all()?;
    let top = rec.open("core.dist_handshake", None);
    let mut child = Command::new(&exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut dec = StreamDecoder::new();
    let mut buf = [0u8; 4096];
    let hello = loop {
        if let Some(frame) = dec.next_frame() {
            if let Ok(Msg::Hello { .. }) = decode_msg(&frame, &mut 0) {
                break Ok(rec.now());
            }
            continue;
        }
        match stdout.read(&mut buf) {
            Ok(0) => break Err("worker exited before its Hello frame".to_string()),
            Ok(n) => dec.push(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => break Err(format!("reading the worker's stdout: {e}")),
        }
    };
    if hello.is_err() {
        let _ = child.kill();
    }
    // EOF on stdin makes a worker return; drain its heartbeats meanwhile.
    drop(child.stdin.take());
    let _ = std::io::copy(&mut stdout, &mut std::io::sink());
    let status = child.wait().map_err(|e| format!("waiting for the worker: {e}"))?;
    rec.close(top);
    let hello = hello?;
    if !status.success() {
        return Err(format!("handshake worker exited with {status}"));
    }
    Ok((hello - rec.spans[top].start_ns) as f64 / 1e6)
}

/// Writes every span as one TSV line.
fn write_spans(path: &Path, spans: &[Span], units: &[Unit]) -> Result<(), String> {
    let mut out = String::from(
        "id\tparent\tthread\tname\tstart_ns\tend_ns\trun_unit\trun_index\ttag\tcycles\n",
    );
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        let (unit, index) = match s.run {
            Some((u, i)) => (units[u].key.label(), i.to_string()),
            None => (String::new(), String::new()),
        };
        out.push_str(&format!(
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{unit}\t{index}\t{}\t{}\n",
            s.thread, s.name, s.start_ns, s.end_ns, s.tag, s.cycles
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs the traced pass of a workload.
///
/// # Errors
///
/// Setup, probe or I/O failures.
pub fn traced_pass(o: &Options, work: &Path) -> Result<Traced, String> {
    let w = o.workload;
    let mut cal = Calibrator::new(HOST_WORKERS);
    let host_before = cal.sample_ms();
    let mut rec = Recorder { t0: Instant::now(), spans: Vec::new() };
    let mut prepared = Vec::new();
    let mut bases = Vec::new();
    for (kernel, opts) in w.kernels() {
        let cfg = w.config(o.seed, opts, o.check);
        let image = rec.time("kernel.build", None, || kfi_kernel::build_kernel(opts));
        let image = image.map_err(|e| e.to_string())?;
        let files = rec.time("workloads.files", None, || cfg.suite.files());
        let files = files.map_err(|e| e.to_string())?;
        let names = cfg.suite.workloads();
        rec.time("profiler.profile", None, || {
            kfi_profiler::profile(&image, &files, &names, &cfg.profiler)
        });
        let exp = rec.time("core.prepare", None, || Experiment::prepare(cfg.clone()))?;
        let n_modes = cfg.suite.n_modes();
        let base = rec.time("injector.boot", None, || {
            RigShared::boot(exp.image.clone(), &exp.files, n_modes, cfg.rig)
        });
        let base = base.map_err(|e| e.to_string())?;
        // The first fork captures every golden run into the base's store.
        let golden = rec.time("injector.golden", None, || InjectorRig::fork(&base));
        drop(golden.map_err(|e| e.to_string())?);
        prepared.push(Prepared { kernel, exp });
        bases.push(base);
    }
    let units = rec.time("core.plan", None, || units(w, &prepared, o.seed, o.check))?;
    let manifests: Vec<Manifest> = rec.time("kernel.mkfs", None, || {
        prepared.iter().map(|p| kfi_kernel::mkfs(2048, &p.exp.files).manifest).collect()
    });

    let mut results = Vec::new();
    for (i, u) in units.iter().enumerate() {
        let id = rec.open("core.campaign", None);
        let manifest = Some(&manifests[u.kernel]);
        let (runs, spans) =
            direct_loop(rec.t0, id, i, &bases[u.kernel], &u.plan, manifest, HOST_WORKERS)?;
        rec.close(id);
        rec.spans.extend(spans);
        results.push(runs);
    }
    let data = dataset(&units, &results, o.seed);
    let csv = rec.time("core.csv", None, || data.csv());
    std::hint::black_box(rec.time("report.render", None, || data.report(&prepared)));

    let last = units.len() - 1;
    let u = &units[last];
    let sup_pct = supervisor_vs_direct(&mut rec, &prepared[u.kernel], &bases[u.kernel], last, u)?;
    let mips = replay_mips(&mut rec, &prepared[0].exp, w.cpus());
    let wire_bytes = wire_roundtrip(&mut rec, &results)?;
    let journal_bytes = journal_roundtrip(&mut rec, work, o.seed, &units, &results)?;
    let hello_ms = handshake_ms(&mut rec, &w.worker_args(o.seed, o.check))?;
    let wall_ns = rec.now();
    let host_ms = (host_before + cal.sample_ms()) / 2.0;

    let spans_file = out_root().join(format!("spans-{}-{}.tsv", w.name(), o.seed));
    write_spans(&spans_file, &rec.spans, &units)?;

    let records: Vec<&RunRecord> = results.iter().flatten().map(|(r, _)| r).collect();
    let extra = Extra { sup_pct, mips, wire_bytes, journal_bytes, hello_ms, wall_ns, host_ms };
    Ok(Traced {
        metrics: layer_metrics(&rec, &records, &extra),
        csv,
        runs: records.len() as u64,
        rig_faults: records.iter().filter(|r| matches!(r.outcome, Outcome::RigFault(_))).count()
            as u64,
        spans_file,
    })
}

/// Probe results that are not read off spans.
struct Extra {
    sup_pct: f64,
    mips: f64,
    wire_bytes: f64,
    journal_bytes: f64,
    hello_ms: f64,
    wall_ns: u64,
    host_ms: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(rec: &Recorder, records: &[&RunRecord], x: &Extra) -> Vec<Metric> {
    let total_ms = |name: &'static str| rec.named(name).map(Span::ms).sum::<f64>();
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let durations = |name: &'static str, tag: Option<&str>, scale: f64| {
        sorted(
            rec.named(name)
                .filter(|s| tag.is_none_or(|t| s.tag == t))
                .map(|s| s.ms() * scale)
                .collect(),
        )
    };
    let p50 = |name, v: &[f64], unit| Metric {
        name,
        value: if v.is_empty() { 0.0 } else { percentile(v, 0.5) },
        unit,
        note: Some(format!("p50 n={}", v.len())),
    };
    let tail_of = |name, v: &[f64], unit| {
        let t = tail(v);
        Metric {
            name,
            value: t.map_or(0.0, |t| t.value),
            unit,
            note: Some(t.map_or("n=0".into(), |t| format!("{} n={}", t.label, t.n))),
        }
    };
    let plain = |name, value, unit| Metric { name, value, unit, note: None };

    let runs = durations("injector.run", None, 1.0);
    let crash = durations("injector.run", Some("crash"), 1.0);
    let hang = durations("injector.run", Some("hang"), 1.0);
    let severity = durations("injector.severity", None, 1.0);
    let run_ms: f64 = runs.iter().sum();
    let share = |v: &[f64]| v.iter().sum::<f64>() / run_ms.max(f64::MIN_POSITIVE);
    let cycles: u64 = records.iter().map(|r| r.run_cycles).sum();
    let hang_cycles: u64 =
        records.iter().filter(|r| r.outcome == Outcome::Hang).map(|r| r.run_cycles).sum();
    let count =
        |tag: &str| records.iter().filter(|r| outcome_tag(&r.outcome) == tag).count() as f64;
    let activated = records.iter().filter(|r| r.outcome.activated()).count() as f64;
    // Host ns per simulated cycle over activated runs that neither
    // crashed (severity reboots dominate those) nor faulted.
    let (exec_ns, exec_cycles) = rec
        .named("injector.run")
        .filter(|s| matches!(s.tag, "not_manifested" | "fsv" | "hang"))
        .fold((0u64, 0u64), |(n, c), s| (n + s.end_ns - s.start_ns, c + s.cycles));
    let top_ns: u64 =
        rec.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum();

    vec![
        plain("kernel.build_ms", total_ms("kernel.build"), "ms"),
        plain("workloads.files_ms", total_ms("workloads.files"), "ms"),
        plain("profiler.profile_ms", total_ms("profiler.profile"), "ms"),
        plain("injector.boot_ms", total_ms("injector.boot"), "ms"),
        plain("injector.golden_ms", total_ms("injector.golden"), "ms"),
        p50("injector.fork_ms.p50", &durations("injector.fork", None, 1.0), "ms"),
        p50("injector.severity_ms.p50", &severity, "ms"),
        tail_of("injector.severity_ms.tail", &severity, "ms"),
        p50("kernel.fsck_ms.p50", &durations("kernel.fsck", None, 1.0), "ms"),
        p50("injector.run_ms.p50.crash", &crash, "ms"),
        plain("injector.time_share.crash", share(&crash), "ratio"),
        p50("injector.run_ms.p50.hang", &hang, "ms"),
        plain("injector.time_share.hang", share(&hang), "ratio"),
        plain("injector.hang_cycle_share", hang_cycles as f64 / cycles.max(1) as f64, "ratio"),
        plain("machine.replay_mips", x.mips, "MIPS"),
        plain("injector.ns_per_sim_cycle", exec_ns as f64 / exec_cycles.max(1) as f64, "ns/cycle"),
        plain(
            "core.sim_mcycles_per_s",
            cycles as f64 / total_ms("core.campaign") / 1e3,
            "Mcycles/s",
        ),
        p50("injector.run_ms.p50", &runs, "ms"),
        tail_of("injector.run_ms.tail", &runs, "ms"),
        plain("injector.runs.not_activated", count("not_activated"), "count"),
        plain("injector.runs.not_manifested", count("not_manifested"), "count"),
        plain("injector.runs.fsv", count("fsv"), "count"),
        plain("injector.runs.crash", count("crash"), "count"),
        plain("injector.runs.hang", count("hang"), "count"),
        plain("injector.activation_ratio", activated / records.len().max(1) as f64, "ratio"),
        plain("core.supervisor_vs_direct_pct", x.sup_pct, "%"),
        plain("core.dist_handshake_ms", x.hello_ms, "ms"),
        p50("injector.wire_encode_us.p50", &durations("injector.wire_encode", None, 1e3), "us"),
        p50("injector.wire_decode_us.p50", &durations("injector.wire_decode", None, 1e3), "us"),
        plain("core.wire_bytes_per_run", x.wire_bytes, "B/run"),
        plain("core.journal_read_ms", total_ms("core.journal_read"), "ms"),
        plain("core.journal_bytes_per_run", x.journal_bytes, "B/run"),
        plain("core.csv_ms", total_ms("core.csv"), "ms"),
        plain("report.render_ms", total_ms("report.render"), "ms"),
        plain("trace.wall_s", x.wall_ns as f64 / 1e9, "s"),
        plain("trace.coverage", top_ns as f64 / x.wall_ns as f64, "ratio"),
        plain("trace.untimed_ms", x.wall_ns.saturating_sub(top_ns) as f64 / 1e6, "ms"),
        plain("host.calibration_ms", x.host_ms, "ms"),
    ]
}
