//! The campaign supervisor: panic-isolated workers, journaled
//! checkpoint/resume, poison-run quarantine and a wall-clock watchdog.
//!
//! The plain experiment loop trusts every run: a worker panic used to
//! abort the whole campaign (`join().expect("worker panicked")`), a
//! wedged simulator run could stall a worker forever, and an
//! interrupted campaign lost everything. The supervisor closes those
//! holes without disturbing the determinism contract — a supervised
//! campaign's records and merged metrics are bit-identical for any
//! worker count, and a campaign interrupted at any point and resumed
//! from its journal produces the same dataset as an uninterrupted one.
//!
//! * **Panic isolation** — each run executes under
//!   [`std::panic::catch_unwind`]. A panicking run poisons its rig, so
//!   the worker discards it, rebuilds a fresh one from scratch, and
//!   retries; a persistent offender is recorded as
//!   [`Outcome::RigFault`] instead of silently disappearing. A worker
//!   that cannot rebuild its rig pushes its job back and dies; the
//!   shared queue redistributes its remaining work to the survivors
//!   (or, if every worker dies, to a main-thread fallback).
//! * **Journal** — completed runs (record + per-run metrics delta) are
//!   appended to a CRC-framed journal ([`crate::journal`]); `--resume`
//!   replays the intact prefix and only executes what's missing.
//!   Frames pass through a reorder buffer so they land in plan-index
//!   order regardless of which worker finished first: the journal's
//!   bytes are identical for any worker count.
//! * **Quarantine** — runs that panic or trip the machine sanitizer are
//!   retried up to `MAX_RETRIES` (2) times on a fresh
//!   rig; persistent offenders get a minimal-repro artifact written to
//!   the quarantine directory and are surfaced in the report.
//! * **Watchdog** — a supervisor thread flags runs exceeding the
//!   wall-clock budget via the machine's cooperative abort flag,
//!   degrading simulator-level livelock (which the in-guest cycle
//!   budget cannot see) into an ordinary hang-classified record.
//! * **Batched scheduling** — workers claim jobs in adaptive chunks
//!   (one queue-lock round-trip per chunk, chunks shrinking toward the
//!   campaign tail so the last jobs still load-balance) and report
//!   completions one chunk at a time under one lock on the campaign's
//!   `Ledger`. Granularity never reaches the dataset: the reorder
//!   buffer emits journal frames in plan-index order whatever the batch
//!   size, so bytes stay identical to the one-at-a-time scheduler's.
//!
//! The `Ledger` and the `run_campaigns` loop around it are the
//! bookkeeping both campaign runners share: this module's in-process
//! workers and the process-isolated coordinator of [`crate::dist`].

use crate::experiment::{CampaignResult, Experiment, StudyResult};
use crate::journal::{Journal, JournalEntry};
use kfi_injector::{Campaign, InjectionTarget, InjectorRig, Outcome, RunRecord};
use kfi_trace::{outcome as trace_outcome, Metrics};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Test-only fault injection into the *harness*: makes the listed job
/// indices panic inside the worker, exercising the containment path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum PanicInjection {
    /// No injected panics (the production setting).
    #[default]
    None,
    /// Panic on the first attempt of each listed job; retries succeed.
    Transient(BTreeSet<usize>),
    /// Panic on every attempt of each listed job; the supervisor must
    /// quarantine them as [`Outcome::RigFault`].
    Persistent(BTreeSet<usize>),
}

impl PanicInjection {
    fn should_panic(&self, index: usize, attempt: usize) -> bool {
        match self {
            PanicInjection::None => false,
            PanicInjection::Transient(set) => attempt == 0 && set.contains(&index),
            PanicInjection::Persistent(set) => set.contains(&index),
        }
    }
}

/// Retries (each on a fresh rig) granted to a run that panicked or
/// tripped the sanitizer, beyond its first attempt.
const MAX_RETRIES: usize = 2;

/// Supervisor policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock budget per run; `None` disables the watchdog. Runs
    /// exceeding it are aborted via the machine's cooperative abort
    /// flag and classify as [`Outcome::Hang`].
    pub wall_budget: Option<Duration>,
    /// Directory for minimal-repro artifacts of quarantined runs.
    pub quarantine_dir: Option<PathBuf>,
    /// Journal path; every completed run is checkpointed here.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal at [`SupervisorConfig::journal`]
    /// instead of truncating it.
    pub resume: bool,
    /// Harness-fault injection (tests only).
    pub inject_panic: PanicInjection,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            wall_budget: None,
            quarantine_dir: None,
            journal: None,
            resume: false,
            inject_panic: PanicInjection::None,
        }
    }
}

/// One quarantined run, surfaced in the report.
#[derive(Debug, Clone)]
pub struct QuarantineReport {
    /// Campaign letter.
    pub campaign: char,
    /// Job index within the campaign plan.
    pub index: usize,
    /// Target function.
    pub function: String,
    /// Why the run was quarantined.
    pub reason: String,
    /// Artifact path, when a quarantine directory was configured and
    /// the write succeeded.
    pub path: Option<PathBuf>,
}

/// What the supervisor did beyond the dataset itself. Everything here
/// is reporting-only: none of it feeds the CSV dataset, which must stay
/// independent of interruptions and worker scheduling.
#[derive(Debug, Clone, Default)]
pub struct SupervisorReport {
    /// Runs skipped because the journal already had them.
    pub resumed_runs: usize,
    /// Journal fsync batches performed.
    pub journal_flushes: u64,
    /// The first journal append that failed, if any.
    pub journal_failure: Option<JournalFailure>,
    /// Workers that died (rig rebuild failed) with their jobs
    /// redistributed.
    pub workers_lost: usize,
    /// Per-run quarantine details.
    pub quarantined: Vec<QuarantineReport>,
}

/// The first journal append that failed. The campaign completes all the
/// same — its runs are in memory — but the journal ends before this run,
/// so a resume re-executes it and everything after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalFailure {
    /// Campaign letter of the run whose append failed.
    pub campaign: char,
    /// Its plan index.
    pub index: usize,
    /// The I/O error.
    pub error: String,
}

impl std::fmt::Display for JournalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "append failed at campaign {} index {}: {}",
            self.campaign, self.index, self.error
        )
    }
}

/// A supervised campaign: the ordinary result plus the supervisor's
/// report.
pub struct SupervisedCampaign {
    /// The campaign result (same shape as the unsupervised path).
    pub result: CampaignResult,
    /// What the supervisor had to do.
    pub report: SupervisorReport,
}

/// A supervised full study.
pub struct SupervisedStudy {
    /// The study result (same shape as [`Experiment::run_all`]).
    pub study: StudyResult,
    /// Report aggregated across the three campaigns.
    pub report: SupervisorReport,
}

/// One planned unit of work.
#[derive(Clone)]
pub(crate) struct Job {
    pub(crate) index: usize,
    pub(crate) target: InjectionTarget,
    pub(crate) mode: u32,
}

impl Job {
    /// A rig-fault result for this job: the run is lost, and its record
    /// says why instead of silently disappearing.
    pub(crate) fn rig_fault(&self, why: &str) -> JobDone {
        let mut metrics = Metrics::default();
        metrics.runs += 1;
        metrics.record_outcome(trace_outcome::RIG_FAULT);
        let record = RunRecord {
            target: self.target.clone(),
            mode: self.mode,
            outcome: Outcome::RigFault(why.to_string()),
            activation_tsc: None,
            run_cycles: 0,
            sanitizer_violations: 0,
        };
        JobDone { index: self.index, record, metrics, quarantine: None }
    }
}

/// Per-worker watchdog slot. The watchdog sets `abort` only while
/// holding `started`'s lock and seeing a running run; the worker clears
/// both under the same lock, so a flag raised for run N can never leak
/// into run N+1.
pub(crate) struct WatchSlot {
    pub(crate) started: Mutex<Option<Instant>>,
    pub(crate) abort: Arc<AtomicBool>,
}

impl WatchSlot {
    pub(crate) fn new() -> WatchSlot {
        WatchSlot { started: Mutex::new(None), abort: Arc::new(AtomicBool::new(false)) }
    }
}

/// The wall-clock watchdog: until `stop` is set, raises the abort flag
/// of every slot whose run has taken `budget` or longer.
pub(crate) fn watch(slots: &[WatchSlot], budget: Duration, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        for slot in slots {
            let started = slot.started.lock().expect("watch slot");
            if started.is_some_and(|t0| t0.elapsed() >= budget) {
                slot.abort.store(true, Ordering::SeqCst);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How one job finished.
pub(crate) struct JobDone {
    pub(crate) index: usize,
    pub(crate) record: RunRecord,
    /// Final-attempt rig metrics delta + this job's supervisor counters.
    pub(crate) metrics: Metrics,
    pub(crate) quarantine: Option<QuarantineReport>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Writes a minimal-repro artifact for a quarantined run. Best-effort:
/// a failed write degrades to a report entry without a path.
fn write_quarantine_artifact(
    dir: &std::path::Path,
    exp: &Experiment,
    job: &Job,
    attempts: usize,
    reason: &str,
    rig: Option<&mut InjectorRig>,
) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let t = &job.target;
    let name = format!("{}{:05}_{}.txt", t.campaign.letter(), job.index, t.function);
    let path = dir.join(name);
    let mut text = String::new();
    text.push_str("kfi quarantine artifact\n");
    text.push_str(&format!("campaign: {}\njob index: {}\n", t.campaign.letter(), job.index));
    text.push_str(&format!("function: {} (subsystem {})\n", t.function, t.subsystem));
    text.push_str(&format!(
        "injection: addr {:#x} byte {} mask {:#04x} (insn len {}, branch: {})\n",
        t.insn_addr, t.byte_index, t.bit_mask, t.insn_len, t.is_branch
    ));
    text.push_str(&format!("mode: {}\nseed: {}\n", job.mode, exp.config.seed));
    text.push_str(&format!("attempts: {}\nreason: {}\n", attempts, reason));
    match rig {
        Some(rig) => match kfi_dump::capture(rig.machine_mut(), &exp.image) {
            Some(dump) => {
                text.push_str("\n--- crash capture ---\n");
                // See `InjectorRig::machine_mut`: after a crash the state
                // depends on which worker assessed the crash first.
                text.push_str(
                    "(after a crash: the crash itself if the campaign's severity store already \
                     held its verdict, else the severity reboot; which one depends on worker \
                     scheduling)\n",
                );
                text.push_str(&dump.format(&exp.image));
            }
            None => text.push_str("\n(no crash cause reported by the guest)\n"),
        },
        None => text.push_str("\n(rig poisoned; no machine state to capture)\n"),
    }
    std::fs::write(&path, text).ok()?;
    Some(path)
}

/// Executes one job to a final record, retrying panics and
/// sanitizer-poisoned runs on a fresh rig. Returns `Err(())` when the
/// rig died and could not be rebuilt — the job goes back to the queue.
pub(crate) fn process_job(
    exp: &Experiment,
    cfg: &SupervisorConfig,
    job: &Job,
    rig: &mut Option<InjectorRig>,
    slot: &WatchSlot,
) -> Result<JobDone, ()> {
    let mut sup = Metrics::default();
    let mut attempt = 0usize;
    loop {
        if rig.is_none() {
            match exp.make_rig() {
                Ok(mut fresh) => {
                    if cfg.wall_budget.is_some() {
                        fresh.machine_mut().set_abort_flag(Some(slot.abort.clone()));
                    }
                    *rig = Some(fresh);
                }
                Err(_) => return Err(()),
            }
        }
        let r = rig.as_mut().expect("rig present");
        {
            let mut s = slot.started.lock().expect("watch slot");
            slot.abort.store(false, Ordering::SeqCst);
            *s = cfg.wall_budget.map(|_| Instant::now());
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            if cfg.inject_panic.should_panic(job.index, attempt) {
                panic!("injected worker panic (job {}, attempt {attempt})", job.index);
            }
            r.run_one(&job.target, job.mode)
        }));
        let watchdog_fired = {
            let mut s = slot.started.lock().expect("watch slot");
            *s = None;
            slot.abort.swap(false, Ordering::SeqCst)
        };
        if watchdog_fired {
            sup.wall_watchdog_fired += 1;
        }
        match result {
            Ok(record) => {
                let mut delta = rig.as_mut().expect("rig present").take_metrics();
                if record.sanitizer_violations > 0 && attempt < MAX_RETRIES {
                    // Poisoned run: retry on a fresh rig.
                    sup.run_retries += 1;
                    *rig = None;
                    attempt += 1;
                    continue;
                }
                let quarantine = if record.sanitizer_violations > 0 {
                    sup.quarantined_runs += 1;
                    let reason = format!(
                        "sanitizer violations persisted across {} attempts ({} in final run)",
                        attempt + 1,
                        record.sanitizer_violations
                    );
                    let path = cfg.quarantine_dir.as_deref().and_then(|d| {
                        write_quarantine_artifact(d, exp, job, attempt + 1, &reason, rig.as_mut())
                    });
                    Some(QuarantineReport {
                        campaign: job.target.campaign.letter(),
                        index: job.index,
                        function: job.target.function.clone(),
                        reason,
                        path,
                    })
                } else {
                    None
                };
                delta.merge(&sup);
                return Ok(JobDone { index: job.index, record, metrics: delta, quarantine });
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                sup.rig_panics += 1;
                // The rig is poisoned — never reuse it after a panic.
                *rig = None;
                if attempt < MAX_RETRIES {
                    sup.run_retries += 1;
                    attempt += 1;
                    continue;
                }
                // Persistent offender: record the loss and quarantine.
                sup.quarantined_runs += 1;
                let reason = format!("panicked on all {} attempts: {msg}", attempt + 1);
                let path = cfg.quarantine_dir.as_deref().and_then(|d| {
                    write_quarantine_artifact(d, exp, job, attempt + 1, &reason, None)
                });
                let mut done = job.rig_fault(&msg);
                done.metrics.merge(&sup);
                done.quarantine = Some(QuarantineReport {
                    campaign: job.target.campaign.letter(),
                    index: job.index,
                    function: job.target.function.clone(),
                    reason,
                    path,
                });
                return Ok(done);
            }
        }
    }
}

/// Reorder buffer in front of the journal: frames are appended in
/// plan-index order, not worker-completion order, so the journal's
/// bytes are identical for any worker count (and diffable between
/// runs). Entries completed ahead of a still-running earlier job are
/// held here until the gap closes; the window is usually the worker
/// count, though one long run can briefly hold back many completions.
pub(crate) struct JournalOrder {
    /// Next plan index the journal is waiting for.
    next: usize,
    /// Completed-but-early entries, keyed by plan index.
    pub(crate) held: BTreeMap<usize, JournalEntry>,
    /// Plan indices already journaled by a previous (resumed) session;
    /// `next` skips over these.
    skip: BTreeSet<usize>,
    /// The first append that failed. The journal refuses every append
    /// after it ([`Journal::append`]).
    pub(crate) failure: Option<JournalFailure>,
}

impl JournalOrder {
    pub(crate) fn new(skip: BTreeSet<usize>) -> JournalOrder {
        JournalOrder { next: 0, held: BTreeMap::new(), skip, failure: None }
    }

    /// Appends every entry that is now contiguous with the journal tail.
    pub(crate) fn drain(&mut self, j: &mut Journal) {
        loop {
            if self.skip.remove(&self.next) {
                self.next += 1;
                continue;
            }
            match self.held.remove(&self.next) {
                Some(e) => {
                    // Journal I/O failure must not kill the campaign:
                    // the run is already in memory; only resumability
                    // degrades, and the report says from where.
                    if let Err(err) = j.append(&e) {
                        self.failure.get_or_insert(JournalFailure {
                            campaign: e.campaign,
                            index: e.index,
                            error: err.to_string(),
                        });
                    }
                    self.next += 1;
                }
                None => break,
            }
        }
    }
}

/// One campaign's bookkeeping, shared by both runners: the plan, the
/// runs replayed from the journal and the results accepted so far.
/// Accepted results reach the journal in plan-index order through a
/// [`JournalOrder`]; [`Ledger::finish`] assembles the campaign.
pub(crate) struct Ledger<'j> {
    campaign: Campaign,
    plan: Vec<(InjectionTarget, u32)>,
    /// Each plan index's result, once replayed or accepted.
    done: Vec<Option<JobDone>>,
    /// Plan indices without a result yet.
    remaining: usize,
    /// Runs replayed from the journal.
    resumed: usize,
    journal: Option<&'j mut Journal>,
    order: JournalOrder,
}

impl<'j> Ledger<'j> {
    /// Splits `plan` into the runs `journaled` already holds and the runs
    /// still to do. A journaled entry only counts when it matches the
    /// plan exactly — same target, same mode — so a stale or foreign
    /// journal can never smuggle records into the dataset.
    pub(crate) fn open(
        campaign: Campaign,
        plan: Vec<(InjectionTarget, u32)>,
        journaled: BTreeMap<usize, JournalEntry>,
        journal: Option<&'j mut Journal>,
    ) -> Ledger<'j> {
        let mut done: Vec<Option<JobDone>> = plan.iter().map(|_| None).collect();
        for (index, e) in journaled {
            if plan.get(index).is_some_and(|(t, m)| e.record.target == *t && e.record.mode == *m) {
                let JournalEntry { record, metrics, .. } = e;
                done[index] = Some(JobDone { index, record, metrics, quarantine: None });
            }
        }
        let skip: BTreeSet<usize> = (0..plan.len()).filter(|i| done[*i].is_some()).collect();
        Ledger {
            campaign,
            remaining: plan.len() - skip.len(),
            resumed: skip.len(),
            plan,
            done,
            journal,
            order: JournalOrder::new(skip),
        }
    }

    /// The campaign.
    pub(crate) fn campaign(&self) -> Campaign {
        self.campaign
    }

    /// Planned runs.
    pub(crate) fn len(&self) -> usize {
        self.plan.len()
    }

    /// Planned runs without a result yet.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether plan index `index` has its result.
    pub(crate) fn is_done(&self, index: usize) -> bool {
        self.done.get(index).is_some_and(Option::is_some)
    }

    /// The plan indices still to run, in plan order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.plan.len()).filter(|i| !self.is_done(*i))
    }

    /// The job at plan index `index`.
    pub(crate) fn job(&self, index: usize) -> Job {
        let (target, mode) = self.plan[index].clone();
        Job { index, target, mode }
    }

    /// Accepts one result: the first per plan index wins, and it must
    /// match the plan's target and mode (a stale or foreign result, such
    /// as an old campaign's index arriving late from a killed worker's
    /// pipe, is dropped). An accepted result is journaled as soon as
    /// every earlier plan index has been. False when it was refused.
    pub(crate) fn accept(&mut self, done: JobDone) -> bool {
        let index = done.index;
        match self.plan.get(index) {
            Some((target, mode))
                if !self.is_done(index)
                    && done.record.target == *target
                    && done.record.mode == *mode => {}
            _ => return false,
        }
        if let Some(j) = self.journal.as_deref_mut() {
            let entry = JournalEntry {
                campaign: self.campaign.letter(),
                index,
                record: done.record.clone(),
                metrics: done.metrics.clone(),
            };
            self.order.held.insert(index, entry);
            self.order.drain(j);
        }
        self.done[index] = Some(done);
        self.remaining -= 1;
        true
    }

    /// The campaign result, records in plan order, and its report: the
    /// runs resumed, the quarantined runs and the first failed append.
    pub(crate) fn finish(self) -> SupervisedCampaign {
        let functions_injected = {
            let mut fs: Vec<&str> = self.plan.iter().map(|(t, _)| t.function.as_str()).collect();
            fs.sort_unstable();
            fs.dedup();
            fs.len()
        };
        let mut metrics = Metrics::default();
        let mut records = Vec::with_capacity(self.plan.len());
        let mut quarantined = Vec::new();
        for d in self.done.into_iter().flatten() {
            metrics.merge(&d.metrics);
            records.push(d.record);
            quarantined.extend(d.quarantine);
        }
        SupervisedCampaign {
            result: CampaignResult {
                campaign: self.campaign,
                records,
                functions_injected,
                metrics,
            },
            report: SupervisorReport {
                resumed_runs: self.resumed,
                journal_failure: self.order.failure,
                quarantined,
                ..SupervisorReport::default()
            },
        }
    }
}

/// Runs each `(campaign, plan)` through `run`, on a [`Ledger`] of its
/// own, under one journal: the loop every campaign runner shares. It
/// opens the journal at `path` — replaying its entries when `resume` is
/// set and the file exists, else truncating it — syncs it at every
/// campaign boundary and closes it. Returns the campaign results in
/// order and their reports folded into one.
///
/// # Errors
///
/// Journal open/read/sync failures (bad header, seed mismatch, I/O),
/// as `journal <path>: <why>`.
pub(crate) fn run_campaigns(
    exp: &Experiment,
    path: Option<&Path>,
    resume: bool,
    plans: impl IntoIterator<Item = (Campaign, Vec<(InjectionTarget, u32)>)>,
    mut run: impl FnMut(Ledger<'_>) -> SupervisedCampaign,
) -> Result<(Vec<CampaignResult>, SupervisorReport), String> {
    let error = |why: &dyn std::fmt::Display| {
        format!("journal {}: {why}", path.unwrap_or(Path::new("")).display())
    };
    let seed = exp.config.seed;
    let mut resumed: BTreeMap<char, BTreeMap<usize, JournalEntry>> = BTreeMap::new();
    let mut journal = match path {
        None => None,
        Some(p) if resume && p.exists() => {
            // `resume` truncates any torn tail before reopening for
            // append, so re-run frames stay reachable by the next resume.
            let (entries, j) = crate::journal::resume(p, seed).map_err(|e| error(&e))?;
            for e in entries {
                resumed.entry(e.campaign).or_default().insert(e.index, e);
            }
            Some(j)
        }
        Some(p) => Some(Journal::create(p, seed).map_err(|e| error(&e))?),
    };
    let mut results = Vec::new();
    let mut report = SupervisorReport::default();
    for (campaign, plan) in plans {
        let journaled = resumed.remove(&campaign.letter()).unwrap_or_default();
        let out = run(Ledger::open(campaign, plan, journaled, journal.as_mut()));
        report.resumed_runs += out.report.resumed_runs;
        report.workers_lost += out.report.workers_lost;
        report.quarantined.extend(out.report.quarantined);
        report.journal_failure = report.journal_failure.or(out.report.journal_failure);
        results.push(out.result);
        if let Some(j) = journal.as_mut() {
            // Checkpoint the campaign boundary.
            j.sync().map_err(|e| error(&e))?;
        }
    }
    report.journal_flushes = journal.map_or(0, |j| j.flushes);
    Ok((results, report))
}

/// [`run_campaigns`] over the study's three campaigns, each planned by
/// [`Experiment::planned`].
///
/// # Errors
///
/// As [`run_campaigns`].
pub(crate) fn run_study(
    exp: &Experiment,
    path: Option<&Path>,
    resume: bool,
    run: impl FnMut(Ledger<'_>) -> SupervisedCampaign,
) -> Result<(StudyResult, SupervisorReport), String> {
    let plans = [Campaign::A, Campaign::B, Campaign::C].map(|c| (c, exp.planned(c)));
    let (results, report) = run_campaigns(exp, path, resume, plans, run)?;
    let campaigns = results.into_iter().map(|r| (r.campaign.letter(), r)).collect();
    Ok((StudyResult { campaigns, seed: exp.config.seed }, report))
}

/// Upper bound on jobs claimed per queue-lock acquisition (and on
/// completions buffered per report flush). Small enough that an
/// interrupted campaign re-runs at most a handful of unjournaled runs
/// on resume, large enough to amortize the claim/report locking that
/// was one lock round-trip per job.
pub(crate) const CLAIM_BATCH_MAX: usize = 8;

/// Claims a chunk of jobs under one queue-lock acquisition. The chunk
/// shrinks as the queue drains (`len / 2·workers`, floor 1) so the tail
/// of a campaign still load-balances: the last few jobs are handed out
/// one at a time instead of letting one worker hoard them.
fn claim_batch(queue: &Mutex<VecDeque<Job>>, threads: usize) -> VecDeque<Job> {
    let mut q = queue.lock().expect("queue lock");
    let take = (q.len() / (2 * threads.max(1))).clamp(1, CLAIM_BATCH_MAX);
    let mut out = VecDeque::with_capacity(take);
    for _ in 0..take {
        match q.pop_front() {
            Some(j) => out.push_back(j),
            None => break,
        }
    }
    out
}

/// Shared mutable campaign state.
struct Shared<'j> {
    queue: Mutex<VecDeque<Job>>,
    ledger: Mutex<Ledger<'j>>,
}

impl Shared<'_> {
    /// Accepts a chunk of completions under one ledger lock instead of
    /// one round-trip per job. Determinism is untouched: the reorder
    /// buffer emits journal frames in plan-index order whatever the
    /// arrival granularity, and the ledger keeps results by plan index.
    fn finish_batch(&self, batch: Vec<JobDone>) {
        if batch.is_empty() {
            return;
        }
        let mut ledger = self.ledger.lock().expect("ledger lock");
        for done in batch {
            ledger.accept(done);
        }
    }
}

/// One worker: drains the queue in adaptive batches until empty or its
/// rig becomes unbuildable (then its unprocessed jobs flow back to the
/// survivors).
fn worker_loop(
    exp: &Experiment,
    cfg: &SupervisorConfig,
    shared: &Shared<'_>,
    slot: &WatchSlot,
    threads: usize,
) -> bool {
    let mut rig: Option<InjectorRig> = None;
    loop {
        let mut local = claim_batch(&shared.queue, threads);
        if local.is_empty() {
            return true;
        }
        let mut pending: Vec<JobDone> = Vec::with_capacity(local.len());
        while let Some(job) = local.pop_front() {
            match process_job(exp, cfg, &job, &mut rig, slot) {
                Ok(done) => pending.push(done),
                Err(()) => {
                    // Rig unbuildable: give back the failed job and the
                    // whole unprocessed remainder (original order),
                    // flush what did complete, and die.
                    let mut q = shared.queue.lock().expect("queue lock");
                    for j in local.into_iter().rev() {
                        q.push_front(j);
                    }
                    q.push_front(job);
                    drop(q);
                    shared.finish_batch(pending);
                    return false;
                }
            }
        }
        shared.finish_batch(pending);
    }
}

/// Runs `jobs` on this thread into `ledger`: the fallback once every
/// worker, thread or process, is gone, so the campaign always
/// completes. If even this thread cannot build a rig, the leftovers
/// become rig-fault records — the dataset stays complete and the
/// failure is visible, not fatal.
pub(crate) fn run_here(
    exp: &Experiment,
    cfg: &SupervisorConfig,
    ledger: &mut Ledger<'_>,
    jobs: impl IntoIterator<Item = Job>,
) {
    let slot = WatchSlot::new();
    let mut rig: Option<InjectorRig> = None;
    for job in jobs {
        let done = process_job(exp, cfg, &job, &mut rig, &slot)
            .unwrap_or_else(|()| job.rig_fault("rig could not be built on any worker"));
        ledger.accept(done);
    }
}

/// Runs one campaign's ledger on panic-isolated worker threads, with
/// the watchdog when a wall budget is set.
fn run_in_process(
    exp: &Experiment,
    cfg: &SupervisorConfig,
    ledger: Ledger<'_>,
) -> SupervisedCampaign {
    let jobs: VecDeque<Job> = ledger.pending().map(|i| ledger.job(i)).collect();
    let shared = Shared { queue: Mutex::new(jobs), ledger: Mutex::new(ledger) };
    let threads = exp.config.threads.max(1);
    let slots: Vec<WatchSlot> = (0..threads).map(|_| WatchSlot::new()).collect();
    let stop = AtomicBool::new(false);
    let mut workers_lost = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .iter()
            .map(|slot| s.spawn(|| worker_loop(exp, cfg, &shared, slot, threads)))
            .collect();
        if let Some(budget) = cfg.wall_budget {
            let (slots, stop) = (&slots, &stop);
            s.spawn(move || watch(slots, budget, stop));
        }
        for h in handles {
            // Worker bodies catch their own panics; a panic escaping
            // here would be a supervisor bug, not a run failure.
            if !h.join().expect("supervisor worker") {
                workers_lost += 1;
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    // Every worker died with jobs still queued: finish on this thread.
    let mut ledger = shared.ledger.into_inner().expect("ledger lock");
    run_here(exp, cfg, &mut ledger, shared.queue.into_inner().expect("queue lock"));
    let mut out = ledger.finish();
    out.report.workers_lost = workers_lost;
    out
}

/// Runs all three campaigns under supervision, sharing one journal.
///
/// # Errors
///
/// Journal open/read failures (bad header, seed mismatch, I/O).
pub fn run_study_supervised(
    exp: &Experiment,
    cfg: &SupervisorConfig,
) -> Result<SupervisedStudy, String> {
    let (study, report) = run_study(exp, cfg.journal.as_deref(), cfg.resume, |ledger| {
        run_in_process(exp, cfg, ledger)
    })?;
    Ok(SupervisedStudy { study, report })
}

/// Runs an explicit `(target, mode)` plan under supervision — one
/// campaign of a study (`exp.planned(campaign)`, as
/// [`Experiment::run_campaign`] does) or a campaign-matrix cell. The
/// plan is taken as given (no profile-driven target selection or mode
/// choice), but everything else is the supervised campaign machinery:
/// panic-isolated workers, the plan-index reorder buffer in front of
/// the journal, watchdog, quarantine, and resume against
/// [`SupervisorConfig::journal`] (a journaled entry only replays when
/// it matches the plan's target and mode exactly).
///
/// # Errors
///
/// Journal open/read failures (bad header, seed mismatch, I/O).
pub fn run_plan_supervised(
    exp: &Experiment,
    campaign: Campaign,
    plan: Vec<(InjectionTarget, u32)>,
    cfg: &SupervisorConfig,
) -> Result<SupervisedCampaign, String> {
    let (mut results, report) =
        run_campaigns(exp, cfg.journal.as_deref(), cfg.resume, [(campaign, plan)], |ledger| {
            run_in_process(exp, cfg, ledger)
        })?;
    Ok(SupervisedCampaign { result: results.pop().expect("one campaign"), report })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Campaign B's plan entry `index` of a made-up plan: one target
    /// per plan index, run in mode `index % 2`.
    fn job(index: usize) -> Job {
        let target = InjectionTarget {
            campaign: Campaign::B,
            function: format!("fn_{}", index % 3),
            subsystem: "kernel".into(),
            insn_addr: 0xc010_0000 + index as u32 * 4,
            insn_len: 2,
            byte_index: 1,
            bit_mask: 0x10,
            is_branch: false,
        };
        Job { index, target, mode: index as u32 % 2 }
    }

    fn plan(n: usize) -> Vec<(InjectionTarget, u32)> {
        (0..n).map(|i| (job(i).target, job(i).mode)).collect()
    }

    /// A result for plan index `index`, its run counted once.
    fn done(index: usize) -> JobDone {
        job(index).rig_fault("test entry")
    }

    fn entry(index: usize) -> JournalEntry {
        let JobDone { record, metrics, .. } = done(index);
        JournalEntry { campaign: 'B', index, record, metrics }
    }

    /// A fresh journal for one test, and its path.
    fn journal(name: &str) -> (Journal, PathBuf) {
        let dir = std::env::temp_dir().join("kfi-ledger-tests");
        let path = dir.join(format!("{name}-{}", std::process::id()));
        (Journal::create(&path, 1).expect("journal"), path)
    }

    /// The plan indices a journal holds, in file order.
    fn journaled(path: &Path) -> Vec<usize> {
        let entries = crate::journal::read_journal(path, 1).expect("reads");
        assert!(entries.iter().all(|e| e.campaign == 'B' && e == &entry(e.index)));
        entries.iter().map(|e| e.index).collect()
    }

    #[test]
    fn a_refused_result_changes_nothing() {
        let (mut j, path) = journal("refused");
        let mut ledger = Ledger::open(Campaign::B, plan(4), BTreeMap::new(), Some(&mut j));
        assert!(ledger.accept(done(0)));
        let mut foreign_target = done(1);
        foreign_target.record.target.insn_addr += 1;
        let mut foreign_mode = done(2);
        foreign_mode.record.mode += 1;
        let mut out_of_range = done(3);
        out_of_range.index = 4;
        for refused in [done(0), foreign_target, foreign_mode, out_of_range] {
            assert!(!ledger.accept(refused));
        }
        assert_eq!(ledger.remaining(), 3);
        assert_eq!(ledger.pending().collect::<Vec<_>>(), [1, 2, 3]);
        let out = ledger.finish();
        assert_eq!(out.result.records, [done(0).record]);
        assert_eq!(out.result.metrics, done(0).metrics);
        assert_eq!(journaled(&path), [0]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_replayed_index_is_refused_and_not_journaled_again() {
        let (mut j, path) = journal("replayed");
        // Index 0 and 2 were journaled by an earlier session, but 2's
        // entry is for another mode, so it runs again.
        let mut stale = entry(2);
        stale.record.mode += 1;
        let replay = BTreeMap::from([(0, entry(0)), (2, stale)]);
        let mut ledger = Ledger::open(Campaign::B, plan(3), replay, Some(&mut j));
        assert_eq!(ledger.pending().collect::<Vec<_>>(), [1, 2]);
        assert!(ledger.is_done(0));
        assert!(!ledger.accept(done(0)));
        assert!(ledger.accept(done(2)));
        assert!(ledger.accept(done(1)));
        let out = ledger.finish();
        assert_eq!(out.report.resumed_runs, 1);
        assert_eq!(out.result.records.len(), 3);
        assert_eq!(journaled(&path), [1, 2]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn results_accepted_out_of_order_are_journaled_in_plan_order() {
        let (mut j, path) = journal("order");
        let mut ledger = Ledger::open(Campaign::B, plan(5), BTreeMap::new(), Some(&mut j));
        for index in [3, 1, 4] {
            assert!(ledger.accept(done(index)));
        }
        // Index 0 is still running: nothing may be journaled yet.
        assert_eq!(ledger.order.held.len(), 3);
        assert!(ledger.accept(done(0)));
        assert!(ledger.accept(done(2)));
        assert!(ledger.order.held.is_empty());
        drop(ledger);
        assert_eq!(journaled(&path), [0, 1, 2, 3, 4]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finish_returns_records_in_plan_order_and_collects_quarantine_reports() {
        let mut ledger = Ledger::open(Campaign::B, plan(4), BTreeMap::from([(1, entry(1))]), None);
        for index in [3, 0, 2] {
            let mut d = done(index);
            if index != 0 {
                d.quarantine = Some(QuarantineReport {
                    campaign: 'B',
                    index,
                    function: d.record.target.function.clone(),
                    reason: "test".into(),
                    path: None,
                });
            }
            assert!(ledger.accept(d));
        }
        assert_eq!(ledger.remaining(), 0);
        let out = ledger.finish();
        assert_eq!(out.result.campaign, Campaign::B);
        assert_eq!(out.result.records, (0..4).map(|i| done(i).record).collect::<Vec<_>>());
        assert_eq!(out.result.metrics.runs, 4);
        assert_eq!(out.result.functions_injected, 3);
        let quarantined: Vec<usize> = out.report.quarantined.iter().map(|q| q.index).collect();
        assert_eq!(quarantined, [2, 3]);
        assert_eq!(out.report.resumed_runs, 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_is_kept_with_its_index_and_ends_the_journal() {
        let mut j = Journal::append_to(std::path::Path::new("/dev/full")).expect("opens");
        // Index 0 was journaled by an earlier session.
        let mut order = JournalOrder::new(BTreeSet::from([0]));
        for index in [3, 1, 2] {
            order.held.insert(index, entry(index));
        }
        order.drain(&mut j);
        let failure = order.failure.clone().expect("a full device refuses the append");
        assert_eq!((failure.campaign, failure.index), ('B', 1));
        assert!(failure.error.contains("No space left"), "{failure}");
        assert!(order.held.is_empty(), "the campaign goes on past the failure");
        // Nothing more is written, and the first failure is the one kept.
        order.held.insert(4, entry(4));
        order.drain(&mut j);
        assert_eq!(order.failure, Some(failure));
        assert!(j.append(&entry(5)).is_err());
    }
}
