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
//!   retried up to [`SupervisorConfig::max_retries`] times on a fresh
//!   rig; persistent offenders get a minimal-repro artifact written to
//!   the quarantine directory and are surfaced in the report.
//! * **Watchdog** — a supervisor thread flags runs exceeding the
//!   wall-clock budget via the machine's cooperative abort flag,
//!   degrading simulator-level livelock (which the in-guest cycle
//!   budget cannot see) into an ordinary hang-classified record.
//! * **Batched scheduling** — workers claim jobs in adaptive chunks
//!   (one queue-lock round-trip per chunk, chunks shrinking toward the
//!   campaign tail so the last jobs still load-balance) and report
//!   completions one chunk at a time through a single
//!   order-lock/journal-drain/done-lock round-trip. Granularity never
//!   reaches the dataset: the reorder buffer emits journal frames in
//!   plan-index order whatever the batch size, so bytes stay identical
//!   to the one-at-a-time scheduler's.

use crate::experiment::{CampaignResult, Experiment, StudyResult};
use crate::journal::{Journal, JournalEntry};
use kfi_injector::{Campaign, InjectionTarget, InjectorRig, Outcome, RunRecord};
use kfi_trace::{outcome as trace_outcome, Metrics};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
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

/// Supervisor policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retries (each on a fresh rig) granted to a run that panicked or
    /// tripped the sanitizer, beyond its first attempt.
    pub max_retries: usize,
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
            max_retries: 2,
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

pub(crate) fn rig_fault_record(job: &Job, msg: &str) -> RunRecord {
    RunRecord {
        target: job.target.clone(),
        mode: job.mode,
        outcome: Outcome::RigFault(msg.to_string()),
        activation_tsc: None,
        run_cycles: 0,
        sanitizer_violations: 0,
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
                if record.sanitizer_violations > 0 && attempt < cfg.max_retries {
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
                if attempt < cfg.max_retries {
                    sup.run_retries += 1;
                    attempt += 1;
                    continue;
                }
                // Persistent offender: record the loss and quarantine.
                sup.quarantined_runs += 1;
                sup.runs += 1;
                sup.record_outcome(trace_outcome::RIG_FAULT);
                let reason = format!("panicked on all {} attempts: {msg}", attempt + 1);
                let path = cfg.quarantine_dir.as_deref().and_then(|d| {
                    write_quarantine_artifact(d, exp, job, attempt + 1, &reason, None)
                });
                let quarantine = Some(QuarantineReport {
                    campaign: job.target.campaign.letter(),
                    index: job.index,
                    function: job.target.function.clone(),
                    reason,
                    path,
                });
                return Ok(JobDone {
                    index: job.index,
                    record: rig_fault_record(job, &msg),
                    metrics: sup,
                    quarantine,
                });
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
fn claim_batch(
    queue: &Mutex<std::collections::VecDeque<Job>>,
    threads: usize,
) -> std::collections::VecDeque<Job> {
    let mut q = queue.lock().expect("queue lock");
    let take = (q.len() / (2 * threads.max(1))).clamp(1, CLAIM_BATCH_MAX);
    let mut out = std::collections::VecDeque::with_capacity(take);
    for _ in 0..take {
        match q.pop_front() {
            Some(j) => out.push_back(j),
            None => break,
        }
    }
    out
}

/// Shared mutable campaign state.
struct Shared<'a> {
    queue: Mutex<std::collections::VecDeque<Job>>,
    done: Mutex<Vec<JobDone>>,
    journal: Option<&'a Mutex<Journal>>,
    order: Mutex<JournalOrder>,
}

impl Shared<'_> {
    fn finish(&self, done: JobDone) {
        self.finish_batch(vec![done]);
    }

    /// Reports a chunk of completions under one order-lock + one
    /// journal drain + one done-lock, instead of one round-trip of
    /// each per job. Determinism is untouched: the reorder buffer
    /// already emits journal frames in plan-index order whatever the
    /// arrival granularity, and the final dataset is sorted by index.
    fn finish_batch(&self, batch: Vec<JobDone>) {
        if batch.is_empty() {
            return;
        }
        if let Some(j) = self.journal {
            let mut order = self.order.lock().expect("journal order lock");
            for done in &batch {
                let entry = JournalEntry {
                    campaign: done.record.target.campaign.letter(),
                    index: done.index,
                    record: done.record.clone(),
                    metrics: done.metrics.clone(),
                };
                order.held.insert(done.index, entry);
            }
            order.drain(&mut j.lock().expect("journal lock"));
        }
        self.done.lock().expect("done lock").extend(batch);
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

/// Runs one campaign under supervision.
///
/// With a default [`SupervisorConfig`] this is behaviorally identical
/// to the plain experiment loop on healthy runs (and is what
/// [`Experiment::run_campaign`] delegates to).
///
/// # Errors
///
/// Journal open/read failures (bad header, seed mismatch, I/O).
pub fn run_campaign_supervised(
    exp: &Experiment,
    campaign: Campaign,
    cfg: &SupervisorConfig,
) -> Result<SupervisedCampaign, String> {
    let (journal, resumed) = open_journal(exp, cfg)?;
    let journal_mutex = journal.map(Mutex::new);
    let plan = exp.planned(campaign);
    let mut out = run_plan_inner(exp, campaign, cfg, journal_mutex.as_ref(), &resumed, plan);
    out.report.journal_flushes = close_journal(journal_mutex, cfg)?;
    Ok(out)
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
    let (journal, resumed) = open_journal(exp, cfg)?;
    let journal_mutex = journal.map(Mutex::new);
    let mut campaigns = BTreeMap::new();
    let mut report = SupervisorReport::default();
    for c in [Campaign::A, Campaign::B, Campaign::C] {
        let plan = exp.planned(c);
        let out = run_plan_inner(exp, c, cfg, journal_mutex.as_ref(), &resumed, plan);
        report.resumed_runs += out.report.resumed_runs;
        report.workers_lost += out.report.workers_lost;
        report.quarantined.extend(out.report.quarantined);
        report.journal_failure = report.journal_failure.or(out.report.journal_failure);
        campaigns.insert(c.letter(), out.result);
        if let Some(m) = journal_mutex.as_ref() {
            // Checkpoint the campaign boundary.
            sync_journal(&mut m.lock().expect("journal lock"), cfg)?;
        }
    }
    report.journal_flushes = close_journal(journal_mutex, cfg)?;
    Ok(SupervisedStudy { study: StudyResult { campaigns, seed: exp.config.seed }, report })
}

/// Runs an explicit `(target, mode)` plan under supervision — the
/// campaign-matrix entry point. The plan is taken as given (no
/// profile-driven target selection or mode choice), but everything
/// else is the supervised campaign machinery: panic-isolated workers,
/// the plan-index reorder buffer in front of the journal, watchdog,
/// quarantine, and resume against [`SupervisorConfig::journal`] (a
/// journaled entry only replays when it matches the plan's target and
/// mode exactly).
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
    let (journal, resumed) = open_journal(exp, cfg)?;
    let journal_mutex = journal.map(Mutex::new);
    let mut out = run_plan_inner(exp, campaign, cfg, journal_mutex.as_ref(), &resumed, plan);
    out.report.journal_flushes = close_journal(journal_mutex, cfg)?;
    Ok(out)
}

/// A journal error naming the file: `journal <path>: <why>`.
pub(crate) fn journal_error(cfg: &SupervisorConfig, why: impl std::fmt::Display) -> String {
    let path = cfg.journal.as_deref().unwrap_or(std::path::Path::new(""));
    format!("journal {}: {why}", path.display())
}

/// Forces the journal's pending appends to disk.
pub(crate) fn sync_journal(j: &mut Journal, cfg: &SupervisorConfig) -> Result<(), String> {
    j.sync().map_err(|e| journal_error(cfg, e))
}

/// Syncs the journal, if any, for the last time; returns its fsync
/// batch count.
fn close_journal(j: Option<Mutex<Journal>>, cfg: &SupervisorConfig) -> Result<u64, String> {
    let Some(m) = j else { return Ok(0) };
    let mut j = m.into_inner().expect("journal lock");
    sync_journal(&mut j, cfg)?;
    Ok(j.flushes)
}

/// Opens/creates the journal per config and reads any resumable
/// entries, grouped by campaign letter.
pub(crate) fn open_journal(
    exp: &Experiment,
    cfg: &SupervisorConfig,
) -> Result<(Option<Journal>, BTreeMap<char, BTreeMap<usize, JournalEntry>>), String> {
    let Some(path) = &cfg.journal else {
        return Ok((None, BTreeMap::new()));
    };
    let seed = exp.config.seed;
    if cfg.resume && path.exists() {
        // `resume` truncates any torn tail before reopening for append,
        // so re-run frames stay reachable by the next resume.
        let (entries, journal) =
            crate::journal::resume(path, seed).map_err(|e| journal_error(cfg, e))?;
        let mut by_campaign: BTreeMap<char, BTreeMap<usize, JournalEntry>> = BTreeMap::new();
        for e in entries {
            by_campaign.entry(e.campaign).or_default().insert(e.index, e);
        }
        Ok((Some(journal), by_campaign))
    } else {
        let journal = Journal::create(path, seed).map_err(|e| journal_error(cfg, e))?;
        Ok((Some(journal), BTreeMap::new()))
    }
}

fn run_plan_inner(
    exp: &Experiment,
    campaign: Campaign,
    cfg: &SupervisorConfig,
    journal: Option<&Mutex<Journal>>,
    resumed: &BTreeMap<char, BTreeMap<usize, JournalEntry>>,
    plan: Vec<(InjectionTarget, u32)>,
) -> SupervisedCampaign {
    let functions_injected = {
        let mut fs: Vec<&str> = plan.iter().map(|(t, _)| t.function.as_str()).collect();
        fs.sort_unstable();
        fs.dedup();
        fs.len()
    };

    // Split the plan into journaled (skip) and still-to-run jobs. A
    // journaled entry only counts when it matches the plan exactly —
    // same target, same mode — so a stale or foreign journal can never
    // smuggle records into the dataset.
    let empty = BTreeMap::new();
    let journaled = resumed.get(&campaign.letter()).unwrap_or(&empty);
    let mut replayed: Vec<JobDone> = Vec::new();
    let mut jobs: std::collections::VecDeque<Job> = std::collections::VecDeque::new();
    let mut skip: BTreeSet<usize> = BTreeSet::new();
    for (index, (target, mode)) in plan.into_iter().enumerate() {
        match journaled.get(&index) {
            Some(e) if e.record.target == target && e.record.mode == mode => {
                skip.insert(index);
                replayed.push(JobDone {
                    index,
                    record: e.record.clone(),
                    metrics: e.metrics.clone(),
                    quarantine: None,
                });
            }
            _ => jobs.push_back(Job { index, target, mode }),
        }
    }
    let resumed_runs = replayed.len();

    let shared = Shared {
        queue: Mutex::new(jobs),
        done: Mutex::new(replayed),
        journal,
        order: Mutex::new(JournalOrder::new(skip)),
    };
    let threads = exp.config.threads.max(1);
    let slots: Vec<WatchSlot> = (0..threads).map(|_| WatchSlot::new()).collect();
    let watchdog_stop = AtomicBool::new(false);
    let mut workers_lost = 0usize;

    std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .iter()
            .map(|slot| s.spawn(|| worker_loop(exp, cfg, &shared, slot, threads)))
            .collect();
        let slots = &slots;
        let watchdog_stop = &watchdog_stop;
        let watchdog = cfg.wall_budget.map(|budget| {
            s.spawn(move || {
                while !watchdog_stop.load(Ordering::SeqCst) {
                    for slot in slots {
                        let started = slot.started.lock().expect("watch slot");
                        if let Some(t0) = *started {
                            if t0.elapsed() >= budget {
                                slot.abort.store(true, Ordering::SeqCst);
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });
        for h in handles {
            // Worker bodies catch their own panics; a panic escaping
            // here would be a supervisor bug, not a run failure.
            if !h.join().expect("supervisor worker") {
                workers_lost += 1;
            }
        }
        watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(w) = watchdog {
            let _ = w.join();
        }
    });

    // Every worker died with jobs still queued: finish on this thread
    // so the campaign always completes. If even this thread cannot
    // build a rig, the leftovers become RigFault records — the dataset
    // stays complete and the failure is visible, not fatal.
    let fallback_slot = WatchSlot::new();
    let mut fallback_rig: Option<InjectorRig> = None;
    loop {
        let job = match shared.queue.lock().expect("queue lock").pop_front() {
            Some(j) => j,
            None => break,
        };
        match process_job(exp, cfg, &job, &mut fallback_rig, &fallback_slot) {
            Ok(done) => shared.finish(done),
            Err(()) => {
                let mut sup = Metrics::default();
                sup.runs += 1;
                sup.record_outcome(trace_outcome::RIG_FAULT);
                shared.finish(JobDone {
                    index: job.index,
                    record: rig_fault_record(&job, "rig could not be built on any worker"),
                    metrics: sup,
                    quarantine: None,
                });
            }
        }
    }

    let journal_failure = shared.order.into_inner().expect("journal order lock").failure;
    let mut done = shared.done.into_inner().expect("done lock");
    done.sort_by_key(|d| d.index);
    let mut metrics = Metrics::default();
    let mut records = Vec::with_capacity(done.len());
    let mut quarantined = Vec::new();
    for d in done {
        metrics.merge(&d.metrics);
        records.push(d.record);
        if let Some(q) = d.quarantine {
            quarantined.push(q);
        }
    }
    let report = SupervisorReport {
        resumed_runs,
        journal_failure,
        workers_lost,
        quarantined,
        ..SupervisorReport::default()
    };
    SupervisedCampaign {
        result: CampaignResult { campaign, records, functions_injected, metrics },
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(index: usize) -> JournalEntry {
        let target = InjectionTarget {
            campaign: Campaign::B,
            function: "do_fork".into(),
            subsystem: "kernel".into(),
            insn_addr: 0xc010_0000,
            insn_len: 2,
            byte_index: 1,
            bit_mask: 0x10,
            is_branch: false,
        };
        let record = rig_fault_record(&Job { index, target, mode: 0 }, "test entry");
        JournalEntry { campaign: 'B', index, record, metrics: Metrics::default() }
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
