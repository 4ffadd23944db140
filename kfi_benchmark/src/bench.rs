//! One workload run: the untraced rep loop behind the end-to-end
//! metrics, the correctness gate, and the result line.

use crate::json::{quote, Json};
use crate::measure::{
    cpu_ticks, fnv1a64, median, peak_rss_mib, Calibrator, CALIBRATION_REFERENCE_MS, USER_HZ,
};
use crate::workload::{
    campaign, check_journal, check_records, setup, units, Dataset, Prepared, Workload,
    DEFAULT_SEED, HOST_WORKERS,
};
use kfi_core::{run_study_supervised, SupervisorConfig};
use kfi_injector::Outcome;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Reps a standard-scale run makes even when `--seconds` ends sooner,
/// so each reported median has at least three values behind it.
pub const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Plan seed.
    pub seed: u64,
    /// Seconds of reps to measure (reps continue until this has passed
    /// and [`MIN_REPS`] are done).
    pub seconds: f64,
    /// Smoke scale: cap 1, one rep.
    pub check: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How the value was taken: reps and raw value, or percentile and
    /// sample count.
    pub note: Option<String>,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// FNV-1a of the dataset CSV.
    pub digest: u64,
    /// Injection runs executed.
    pub attempted: u64,
    /// Runs the supervisor had to record as rig faults (each one also
    /// fails the run).
    pub failed: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

/// One untraced rep: its raw timings, the host calibration around
/// them, and what it produced.
pub struct Rep {
    /// Setup phase seconds.
    pub setup_s: f64,
    /// Campaign phase seconds.
    pub campaign_s: f64,
    /// CSV and report rendering seconds.
    pub render_s: f64,
    /// CPU seconds of this process and its reaped children during setup.
    pub setup_cpu_s: f64,
    /// The same during campaign and rendering.
    pub campaign_cpu_s: f64,
    /// Calibration-pass milliseconds before setup, between setup and
    /// campaign, and after rendering.
    pub host_ms: [f64; 3],
    /// The process's peak resident set (`VmHWM`) at the end of setup,
    /// MiB. Only the first rep's is setup's own: the allocator keeps
    /// freed memory resident, so later reps start from the earlier
    /// peaks.
    pub setup_rss_mib: f64,
    /// The process's peak resident set at the end of the rep, MiB.
    pub peak_rss_mib: f64,
    /// The prepared kernel variants.
    pub prepared: Vec<Prepared>,
    /// The dataset.
    pub data: Dataset,
    /// Its CSV text.
    pub csv: String,
}

/// The timed end-to-end metrics, in the order [`Rep::values`] returns them.
pub const TIMED_METRICS: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("runs_per_s", "1/s"), ("cpu_s", "s")];

impl Rep {
    /// Injection runs in the dataset.
    pub fn runs(&self) -> u64 {
        self.data.records().count() as u64
    }

    /// Runs recorded as rig faults.
    pub fn rig_faults(&self) -> u64 {
        self.data.records().filter(|r| matches!(r.outcome, Outcome::RigFault(_))).count() as u64
    }

    /// The rep's [`TIMED_METRICS`], raw or scaled to the reference host
    /// speed: setup by the mean calibration on either side of it,
    /// campaign and rendering by the mean on either side of them.
    pub fn values(&self, scaled: bool) -> [f64; 4] {
        let k =
            |a: f64, b: f64| if scaled { 2.0 * CALIBRATION_REFERENCE_MS / (a + b) } else { 1.0 };
        let [h0, h1, h2] = self.host_ms;
        let (ks, kc) = (k(h0, h1), k(h1, h2));
        let setup = self.setup_s * ks;
        [
            setup,
            setup + (self.campaign_s + self.render_s) * kc,
            self.runs() as f64 / (self.campaign_s * kc),
            self.setup_cpu_s * ks + self.campaign_cpu_s * kc,
        ]
    }

    /// Mean calibration over the rep, ms.
    pub fn host_mean_ms(&self) -> f64 {
        self.host_ms.iter().sum::<f64>() / 3.0
    }
}

/// The directory benchmark output goes to: `<target dir>/kfi_benchmark`,
/// where the target directory is `$CARGO_TARGET_DIR` or `target`.
pub fn out_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from);
    target.unwrap_or_else(|| PathBuf::from("target")).join("kfi_benchmark")
}

/// The dist workload's journal inside a run's work directory.
fn journal_path(work: &Path) -> PathBuf {
    work.join("dist.journal")
}

/// Runs and times one rep: setup, campaign, rendering. The host is
/// calibrated before setup, between setup and campaign, and after
/// rendering; calibration time is in no timed phase.
///
/// # Errors
///
/// Setup, campaign or `/proc` failures.
pub fn run_rep(o: &Options, work: &Path, cal: &mut Calibrator) -> Result<Rep, String> {
    let host0 = cal.sample_ms();
    let (cpu0, t0) = (cpu_ticks()?, Instant::now());
    let prepared = setup(o.workload, o.seed, o.check)?;
    let (cpu1, t1) = (cpu_ticks()?, Instant::now());
    let setup_rss_mib = peak_rss_mib()?;
    let host1 = cal.sample_ms();
    let (cpu2, t2) = (cpu_ticks()?, Instant::now());
    let data = campaign(o.workload, &prepared, o.seed, o.check, &journal_path(work))?;
    let t3 = Instant::now();
    let csv = data.csv();
    std::hint::black_box(data.report(&prepared));
    let (cpu4, t4) = (cpu_ticks()?, Instant::now());
    let peak_rss_mib = peak_rss_mib()?;
    let host2 = cal.sample_ms();
    Ok(Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        campaign_s: (t3 - t2).as_secs_f64(),
        render_s: (t4 - t3).as_secs_f64(),
        setup_cpu_s: (cpu1 - cpu0) as f64 / USER_HZ,
        campaign_cpu_s: (cpu4 - cpu2) as f64 / USER_HZ,
        host_ms: [host0, host1, host2],
        setup_rss_mib,
        peak_rss_mib,
        prepared,
        data,
        csv,
    })
}

/// The correctness checks of one rep: one record per planned target,
/// and for the dist workload a journal holding every plan index.
///
/// # Errors
///
/// Failures to compute the plans or read the journal.
pub fn check_rep(
    o: &Options,
    rep: &Rep,
    work: &Path,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let units = units(o.workload, &rep.prepared, o.seed, o.check)?;
    if let Err(e) = check_records(&units, &rep.data) {
        failures.push(e);
    }
    if o.workload == Workload::Dist2Journal {
        if let Err(e) = check_journal(&journal_path(work), o.seed, &units) {
            failures.push(e);
        }
    }
    Ok(())
}

/// The dataset digest pinned in `baseline.json` for a workload at the
/// default seed and standard scale, if one is pinned.
///
/// # Errors
///
/// A malformed `baseline.json` or digest.
pub fn pinned_digest(w: Workload) -> Result<Option<u64>, String> {
    let baseline = Json::parse(include_str!("../baseline.json"))
        .map_err(|e| format!("kfi_benchmark/baseline.json: {e}"))?;
    let Some(d) = baseline.get("digests").and_then(|d| d.get(w.name())) else {
        return Ok(None);
    };
    let hex = d.as_str().and_then(|s| s.strip_prefix("0x"));
    let digest = hex.and_then(|h| u64::from_str_radix(h, 16).ok());
    digest
        .map(Some)
        .ok_or_else(|| format!("baseline.json: digest of {} is not a 0x-hex string", w.name()))
}

/// Checks a run's dataset against the pinned digest (default seed,
/// standard scale only) and, for the dist workload, against the
/// in-process supervised run of the same plan.
///
/// # Errors
///
/// A malformed `baseline.json` or a failing reference run.
pub fn check_dataset(o: &Options, rep: &Rep, failures: &mut Vec<String>) -> Result<(), String> {
    let digest = fnv1a64(rep.csv.as_bytes());
    if o.seed == DEFAULT_SEED && !o.check {
        if let Some(pinned) = pinned_digest(o.workload)? {
            if pinned != digest {
                failures.push(format!(
                    "dataset digest {digest:#018x} differs from the pinned {pinned:#018x} \
                     (a simulated result moved)"
                ));
            }
        }
    }
    if o.workload == Workload::Dist2Journal {
        let reference = run_study_supervised(&rep.prepared[0].exp, &SupervisorConfig::default())?;
        if Dataset::Study(reference.study).csv() != rep.csv {
            failures.push("dist2_journal's CSV differs from the in-process paper_cpu1 CSV".into());
        }
    }
    Ok(())
}

/// The untraced run: reps until `seconds` have passed and at least
/// [`MIN_REPS`] are done (exactly one at smoke scale). Each time is
/// scaled to the reference host speed per rep; the median over reps is
/// reported, with the raw median beside it.
///
/// # Errors
///
/// Setup, campaign or `/proc` failures.
pub fn run_untraced(o: &Options, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut cal = Calibrator::new(HOST_WORKERS);
    // Per rep: the timed metrics scaled and raw, and the calibration.
    let (mut scaled, mut raw, mut host) = (vec![], vec![], vec![]);
    let mut setup_rss = None;
    let start = Instant::now();
    let more = |done: usize| match o.check {
        true => done < 1,
        false => done < MIN_REPS || start.elapsed().as_secs_f64() < o.seconds,
    };
    let mut last = None;
    while more(host.len()) {
        drop(last.take());
        let rep = run_rep(o, work, &mut cal)?;
        check_rep(o, &rep, work, &mut report.failures)?;
        let digest = fnv1a64(rep.csv.as_bytes());
        if host.is_empty() {
            report.digest = digest;
        } else if digest != report.digest {
            report.failures.push(format!(
                "rep {} dataset digest {digest:#018x} differs from rep 1's {:#018x}",
                host.len() + 1,
                report.digest
            ));
        }
        report.attempted += rep.runs();
        report.failed += rep.rig_faults();
        scaled.push(rep.values(true));
        raw.push(rep.values(false));
        host.push(rep.host_mean_ms());
        setup_rss.get_or_insert(rep.setup_rss_mib);
        eprintln!(
            "[kfi_benchmark] {} rep {}: setup {:.3} s, campaign {:.3} s, render {:.3} s, \
             calibration {:.2}/{:.2}/{:.2} ms, peak RSS {:.1} MiB after setup, {:.1} MiB after rep",
            o.workload.name(),
            host.len(),
            rep.setup_s,
            rep.campaign_s,
            rep.render_s,
            rep.host_ms[0],
            rep.host_ms[1],
            rep.host_ms[2],
            rep.setup_rss_mib,
            rep.peak_rss_mib
        );
        last = Some(rep);
    }
    check_dataset(o, last.as_ref().expect("at least one rep"), &mut report.failures)?;
    let column =
        |rows: &[[f64; 4]], i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    for (i, (name, unit)) in TIMED_METRICS.into_iter().enumerate() {
        report.metrics.push(Metric {
            name,
            value: column(&scaled, i),
            unit,
            note: Some(format!(
                "median of {} reps; raw {:.4}, calibration {:.2} ms",
                host.len(),
                column(&raw, i),
                median(&host)
            )),
        });
    }
    report.metrics.push(Metric {
        name: "setup_rss_mib",
        value: setup_rss.expect("at least one rep"),
        unit: "MiB",
        note: Some("first rep, fresh process".into()),
    });
    report.fail_on_rig_faults();
    Ok(report)
}

/// The traced run: one untraced rep as the reference dataset, then the
/// traced pass, whose records must equal the reference's.
///
/// # Errors
///
/// Setup, campaign, probe or I/O failures.
pub fn run_traced(o: &Options, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let reference = run_rep(o, work, &mut Calibrator::new(HOST_WORKERS))?;
    check_rep(o, &reference, work, &mut report.failures)?;
    check_dataset(o, &reference, &mut report.failures)?;
    report.digest = fnv1a64(reference.csv.as_bytes());
    report.attempted = reference.runs();
    report.failed = reference.rig_faults();
    let reference_wall = reference.values(false)[1];
    let reference_peak_rss = reference.peak_rss_mib;
    let reference_csv = reference.csv;
    drop((reference.prepared, reference.data));

    let traced = crate::trace::traced_pass(o, work)?;
    if traced.csv != reference_csv {
        report.failures.push("the traced run's records differ from the untraced run's".into());
    }
    report.attempted += traced.runs;
    report.failed += traced.rig_faults;
    eprintln!(
        "[kfi_benchmark] {}: untraced rep {reference_wall:.3} s; spans in {}",
        o.workload.name(),
        traced.spans_file.display()
    );
    report.metrics = traced.metrics;
    report.metrics.push(Metric {
        name: "core.peak_rss_mib",
        value: reference_peak_rss,
        unit: "MiB",
        note: Some("untraced rep, fresh process".into()),
    });
    report.fail_on_rig_faults();
    Ok(report)
}

impl Report {
    /// Turns rig faults into a failed check: a run the supervisor had
    /// to give up on is a harness bug, never a measurement.
    fn fail_on_rig_faults(&mut self) {
        if self.failed > 0 {
            self.failures.push(format!("{} runs ended as rig faults", self.failed));
        }
    }

    /// The human lines: `workload metric value unit [note]`.
    pub fn lines(&self, w: Workload) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let note = m.note.as_deref().map(|n| format!("  ({n})")).unwrap_or_default();
                format!("{} {} {} {}{note}", w.name(), m.name, m.value, m.unit)
            })
            .collect();
        out.push(format!("# {} digest {:#018x}", w.name(), self.digest));
        out
    }

    /// The result line the benchmark prints last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value is already a failed check; keep the line valid JSON.
                let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
                format!("{}: {{\"value\": {value}, \"unit\": {}}}", quote(m.name), quote(m.unit))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
