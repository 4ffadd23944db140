//! The distributed campaign runner: process-isolated workers under
//! lease-based fault tolerance, with a built-in chaos harness.
//!
//! The supervisor ([`crate::supervisor`]) contains panics, but
//! `catch_unwind` cannot contain aborts, stack overflows, OOM kills or
//! SIGKILL. This module puts a *process* boundary around the rig: a
//! coordinator shards the deterministic campaign plan across worker
//! subprocesses that stream classified runs back over the existing
//! wire codec ([`kfi_injector::wire`]) with CRC framing
//! ([`kfi_trace::frame`]) on plain pipes.
//!
//! **Lease-based scheduling.** Each worker holds a chunk of plan
//! indices under a lease. A worker proves liveness with a handshake
//! ([`Msg::Hello`] carrying a plan fingerprint) and periodic
//! heartbeats; a missed heartbeat, a dead pipe, a nonzero exit or a
//! wedged handshake expires the lease. Expiry is fenced — the worker is
//! SIGKILLed *before* its jobs are reassigned — so a presumed-dead
//! worker can never race a successor. Failed workers are respawned
//! with exponential backoff up to a bounded respawn budget; a slot
//! that exhausts its budget is quarantined, and if every slot dies the
//! coordinator degrades to running the remaining jobs in-process. A
//! job that expires too many leases in a row is recorded as
//! [`kfi_injector::Outcome::RigFault`] instead of looping forever.
//! Either way, lost runs are never silent.
//!
//! **Merge determinism.** Each run's record and metrics delta is a
//! pure function of its `(target, mode)` — independent of which
//! worker executes it, in which order, after how many retries (the
//! retry-equivalence proptests pin this). Accepted results are deduped
//! by plan index (first completion wins; duplicates are byte-identical
//! by the same argument) into the campaign's `Ledger`, the same one
//! the in-process supervisor keeps, which journals them in plan-index
//! order. CSV, report and journal bytes are therefore identical at any
//! worker count, any arrival order and any kill schedule — which the
//! built-in chaos mode ([`DistConfig::chaos`] randomly SIGKILLs, stalls
//! and crashes workers mid-campaign) proves in-tree. None of this is
//! uniprocessor-specific: an SMP guest
//! (`--cpus N`, forwarded to workers in their spawn args because it is
//! plan-determining) interleaves as a pure function of the machine's
//! own seed and quantum, so no host property — process boundaries,
//! lease churn, the kill schedule — can reach the guest schedule.

use crate::experiment::{Experiment, StudyResult};
use crate::supervisor::{
    process_job, run_here, run_study, watch, Job, JobDone, JournalFailure, Ledger,
    SupervisedCampaign, SupervisorConfig, WatchSlot,
};
use kfi_injector::wire::{decode_msg, encode_msg, Msg, PROTOCOL_VERSION};
use kfi_injector::{Campaign, InjectionTarget, InjectorRig, RunRecord};
use kfi_trace::frame::{write_frame, StreamDecoder};
use kfi_trace::Metrics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// The 64-bit FNV-1a offset basis: the state before any byte.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, chained: feeds `bytes` into `state`.
pub(crate) fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= *b as u64;
        state = state.wrapping_mul(0x100_0000_01b3);
    }
    state
}

/// Fingerprint of the full deterministic study plan (seed plus every
/// campaign's `(target, mode)` sequence). Coordinator and worker both
/// derive it from their own CLI config; the handshake rejects a worker
/// whose fingerprint differs, so a mixed build or drifted flag set can
/// never smuggle foreign records into the dataset.
pub fn plan_fingerprint(exp: &Experiment) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &exp.config.seed.to_le_bytes());
    for campaign in [Campaign::A, Campaign::B, Campaign::C] {
        h = fnv1a(h, &[campaign.letter() as u8]);
        for (t, mode) in exp.planned(campaign) {
            h = fnv1a(h, t.function.as_bytes());
            h = fnv1a(h, t.subsystem.as_bytes());
            h = fnv1a(h, &t.insn_addr.to_le_bytes());
            h = fnv1a(h, &[t.insn_len, t.bit_mask, t.is_branch as u8]);
            h = fnv1a(h, &(t.byte_index as u64).to_le_bytes());
            h = fnv1a(h, &mode.to_le_bytes());
        }
    }
    h
}

/// Lease chunk size for a plan: small enough that every worker gets
/// several leases (so a lost lease costs a fraction of the plan, and
/// finish-time stragglers rebalance), never zero.
pub fn chunk_size(plan_len: usize, workers: usize) -> usize {
    plan_len.div_ceil(workers.max(1) * 4).max(1)
}

/// What the chaos harness does to a victim worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// SIGKILL — the failure `catch_unwind` can never contain.
    Kill,
    /// Ask the worker to park forever without heartbeating (simulated
    /// livelock; reaped by the heartbeat deadline).
    Stall,
    /// Ask the worker to exit with a nonzero code (simulated crash).
    Exit,
}

/// One scheduled chaos event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Fires once this many results have been accepted study-wide.
    pub at_done: usize,
    /// What to do to the victim.
    pub action: ChaosAction,
    /// Raw random value used to pick the victim among live slots at
    /// fire time.
    pub pick: u64,
}

/// A deterministic schedule of worker failures, derived from the chaos
/// seed. The first event is always a [`ChaosAction::Kill`] so a chaos
/// campaign always proves SIGKILL recovery; events are bounded so the
/// respawn budget can absorb them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Events sorted by [`ChaosEvent::at_done`].
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// Number of events a chaos schedule contains.
    pub const EVENTS: usize = 3;

    /// Builds the schedule for a study of `total_jobs` planned runs.
    pub fn new(seed: u64, total_jobs: usize) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED);
        let span = (total_jobs.saturating_mul(3) / 4).max(1);
        let mut events = Vec::with_capacity(Self::EVENTS);
        for i in 0..Self::EVENTS {
            let action = if i == 0 {
                ChaosAction::Kill
            } else {
                match rng.gen_range(0u32..3) {
                    0 => ChaosAction::Kill,
                    1 => ChaosAction::Stall,
                    _ => ChaosAction::Exit,
                }
            };
            events.push(ChaosEvent {
                at_done: rng.gen_range(0..span),
                action,
                pick: rng.next_u64(),
            });
        }
        events.sort_by_key(|e| e.at_done);
        ChaosPlan { events }
    }
}

/// Respawns granted to each worker slot before it is quarantined.
const MAX_RESPAWNS: usize = 2;

/// Backoff before the first respawn of a slot; doubles per respawn.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Lease expiries a single plan index may cause before it is recorded
/// as a rig fault instead of reassigned again — a job that reliably
/// kills workers must not starve the campaign.
const MAX_JOB_EXPIRIES: usize = 4;

/// Coordinator policy for a distributed campaign.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker subprocess pool size.
    pub workers: usize,
    /// Chaos-harness seed; `Some` enables random worker failures.
    pub chaos: Option<u64>,
    /// Budget for a freshly-spawned worker to complete its handshake
    /// (it builds and boots the kernel and captures, and profiles, the
    /// golden runs first). A wedged worker is reaped and respawned when
    /// this expires.
    pub handshake_budget: Duration,
    /// Silence budget after which a handshaken worker's lease expires.
    /// Workers heartbeat every ~100 ms even mid-run, so this bounds
    /// detection latency for SIGKILLed, stalled, or livelocked workers.
    pub heartbeat_budget: Duration,
    /// Journal path; accepted runs are checkpointed here in plan-index
    /// order, exactly as the in-process supervisor would.
    pub journal: Option<PathBuf>,
    /// Resume from the journal instead of truncating it.
    pub resume: bool,
    /// Test-only: the very first spawned worker wedges before its
    /// handshake, exercising the handshake-timeout reap path.
    pub wedge_first_handshake: bool,
    /// Worker executable (normally the current binary).
    pub worker_exe: PathBuf,
    /// Arguments that turn the executable into a worker with the same
    /// plan-determining configuration as the coordinator.
    pub worker_args: Vec<String>,
}

impl DistConfig {
    /// A config with production defaults for the given pool.
    pub fn new(workers: usize, worker_exe: PathBuf, worker_args: Vec<String>) -> DistConfig {
        DistConfig {
            workers: workers.max(1),
            chaos: None,
            handshake_budget: Duration::from_secs(180),
            heartbeat_budget: Duration::from_secs(5),
            journal: None,
            resume: false,
            wedge_first_handshake: false,
            worker_exe,
            worker_args,
        }
    }
}

/// What the coordinator did beyond the dataset itself. Everything here
/// is reporting-only: the dataset is independent of worker count,
/// scheduling and failures.
#[derive(Debug, Clone, Default)]
pub struct DistReport {
    /// Worker processes spawned, including respawns.
    pub workers_spawned: u64,
    /// Respawns after a worker died or was reaped.
    pub workers_respawned: u64,
    /// Slots quarantined after exhausting their respawn budget.
    pub workers_quarantined: u64,
    /// Workers reaped for missing the handshake deadline.
    pub handshake_timeouts: u64,
    /// Leases expired (missed heartbeat, dead pipe, nonzero exit).
    pub leases_expired: u64,
    /// Plan indices reassigned after a lease expiry.
    pub jobs_requeued: u64,
    /// Plan indices executed in-process after the pool collapsed.
    pub jobs_degraded: u64,
    /// Chaos SIGKILLs delivered.
    pub chaos_kills: u64,
    /// Chaos stall requests delivered.
    pub chaos_stalls: u64,
    /// Chaos exit requests delivered.
    pub chaos_exits: u64,
    /// Record+metrics payload bytes of the results accepted from
    /// workers' `JobDone` messages: each plan index a worker delivered
    /// counts once, whichever copy arrived first. Runs executed in the
    /// coordinator and rig faults recorded by expiry cross no pipe.
    pub wire_bytes_streamed: u64,
    /// Runs replayed from the journal instead of executed.
    pub resumed_runs: usize,
    /// Journal fsync batches performed.
    pub journal_flushes: u64,
    /// The first journal append that failed, if any.
    pub journal_failure: Option<JournalFailure>,
}

/// A distributed study: the ordinary result plus the coordinator's
/// report.
pub struct DistStudy {
    /// The study result — byte-for-byte the same dataset the
    /// in-process supervisor produces for this plan.
    pub study: StudyResult,
    /// What the coordinator had to do to get it.
    pub report: DistReport,
}

/// Worker-side policy for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Interval between heartbeats.
    pub heartbeat_interval: Duration,
    /// Per-run supervision policy (retries, wall budget). The journal
    /// fields must stay unset: only the coordinator journals.
    pub supervisor: SupervisorConfig,
    /// Test-only: park before the handshake, exercising the
    /// coordinator's handshake-timeout reap.
    pub wedge_handshake: bool,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            heartbeat_interval: Duration::from_millis(100),
            supervisor: SupervisorConfig::default(),
            wedge_handshake: false,
        }
    }
}

/// Bytes of the `record + metrics` portion of a JobDone payload — the
/// measure behind [`DistReport::wire_bytes_streamed`] (lease ids vary
/// with the kill schedule; the record and its delta never do).
fn record_wire_len(record: &RunRecord, metrics: &Metrics) -> u64 {
    let mut buf = Vec::new();
    kfi_injector::wire::encode_record(&mut buf, record);
    metrics.encode_into(&mut buf);
    buf.len() as u64
}

/// Writes one framed message: coordinator to worker or back.
fn send_msg(w: &mut impl Write, msg: &Msg) -> std::io::Result<()> {
    let mut payload = Vec::new();
    encode_msg(&mut payload, msg);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload);
    w.write_all(&framed)?;
    w.flush()
}

/// One message (or EOF) from a worker's reader thread.
struct RxEvent {
    slot: usize,
    gen: u64,
    msg: Option<Msg>,
}

struct Lease {
    id: u64,
    outstanding: BTreeSet<usize>,
}

enum SlotState {
    /// Spawned, waiting for a valid Hello.
    Handshaking { deadline: Instant },
    /// Handshaken, no lease.
    Idle,
    /// Holding a lease.
    Leased(Lease),
    /// Dead; respawn due at the deadline (exponential backoff).
    Respawning { at: Instant },
    /// Respawn budget exhausted; never used again.
    Retired,
}

struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Bumped per spawn; events from older generations are stale.
    gen: u64,
    state: SlotState,
    last_seen: Instant,
    respawns: usize,
}

/// Per-campaign scheduling state.
struct CampaignState<'j> {
    /// The plan, and the results replayed or accepted so far.
    ledger: Ledger<'j>,
    /// Unassigned plan indices.
    queue: VecDeque<usize>,
    /// Lease expiries caused per index.
    expiries: BTreeMap<usize, usize>,
}

/// The coordinator: worker pool + lease table + failure policy.
struct Pool<'a> {
    exp: &'a Experiment,
    cfg: &'a DistConfig,
    fingerprint: u64,
    slots: Vec<Slot>,
    tx: mpsc::Sender<RxEvent>,
    rx: mpsc::Receiver<RxEvent>,
    lease_seq: u64,
    /// Lease id → campaign letter it was granted for (stale-result
    /// guard across campaign boundaries).
    lease_campaign: BTreeMap<u64, char>,
    chaos: VecDeque<ChaosEvent>,
    /// Results accepted study-wide (chaos trigger clock).
    total_accepted: usize,
    /// First-spawn wedge flag, consumed once.
    wedge_pending: bool,
    report: DistReport,
}

impl<'a> Pool<'a> {
    fn new(exp: &'a Experiment, cfg: &'a DistConfig, total_jobs: usize) -> Pool<'a> {
        let (tx, rx) = mpsc::channel();
        let chaos = match cfg.chaos {
            Some(seed) => ChaosPlan::new(seed, total_jobs).events.into(),
            None => VecDeque::new(),
        };
        let now = Instant::now();
        let slots = (0..cfg.workers.max(1))
            .map(|_| Slot {
                child: None,
                stdin: None,
                gen: 0,
                state: SlotState::Respawning { at: now },
                last_seen: now,
                respawns: 0,
            })
            .collect();
        Pool {
            exp,
            cfg,
            fingerprint: plan_fingerprint(exp),
            slots,
            tx,
            rx,
            lease_seq: 0,
            lease_campaign: BTreeMap::new(),
            chaos,
            total_accepted: 0,
            wedge_pending: cfg.wedge_first_handshake,
            report: DistReport::default(),
        }
    }

    fn spawn_worker(&mut self, i: usize) {
        let wedge = std::mem::take(&mut self.wedge_pending);
        let mut cmd = Command::new(&self.cfg.worker_exe);
        cmd.args(&self.cfg.worker_args);
        if wedge {
            cmd.arg("--worker-wedge-handshake");
        }
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::null());
        let slot = &mut self.slots[i];
        slot.gen += 1;
        match cmd.spawn() {
            Ok(mut child) => {
                let stdin = child.stdin.take();
                let stdout = child.stdout.take();
                slot.stdin = stdin;
                slot.child = Some(child);
                slot.state =
                    SlotState::Handshaking { deadline: Instant::now() + self.cfg.handshake_budget };
                slot.last_seen = Instant::now();
                self.report.workers_spawned += 1;
                if let Some(stdout) = stdout {
                    spawn_reader(i, slot.gen, stdout, self.tx.clone());
                }
            }
            Err(_) => {
                // The exe itself is unusable; burning backoff retries
                // on it would change nothing.
                slot.state = SlotState::Retired;
                self.report.workers_quarantined += 1;
            }
        }
    }

    /// SIGKILL fence: the worker is dead and reaped before any of its
    /// jobs can be reassigned.
    fn kill_slot(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        slot.stdin = None;
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Expires slot `i`'s lease (if any), requeueing its outstanding
    /// indices, and schedules a respawn (or retires the slot).
    fn expire(&mut self, i: usize, st: &mut CampaignState<'_>) {
        self.kill_slot(i);
        let lease = match std::mem::replace(&mut self.slots[i].state, SlotState::Idle) {
            SlotState::Leased(l) => Some(l),
            _ => None,
        };
        if let Some(lease) = lease {
            self.report.leases_expired += 1;
            for index in lease.outstanding.into_iter().rev() {
                if st.ledger.is_done(index) {
                    continue;
                }
                let n = st.expiries.entry(index).or_insert(0);
                *n += 1;
                if *n > MAX_JOB_EXPIRIES {
                    // Persistent worker-killer: record the loss instead
                    // of reassigning it forever.
                    let why = format!("expired {n} leases (worker lost each time)");
                    let done = st.ledger.job(index).rig_fault(&why);
                    self.accept(st, done);
                } else {
                    self.report.jobs_requeued += 1;
                    st.queue.push_front(index);
                }
            }
        }
        let slot = &mut self.slots[i];
        if slot.respawns >= MAX_RESPAWNS {
            slot.state = SlotState::Retired;
            self.report.workers_quarantined += 1;
        } else {
            let backoff = BACKOFF_BASE * (1u32 << slot.respawns.min(16));
            slot.state = SlotState::Respawning { at: Instant::now() + backoff };
            slot.respawns += 1;
            self.report.workers_respawned += 1;
        }
    }

    /// Accepts one result into the campaign's ledger
    /// ([`Ledger::accept`]) and takes it off the queue. False when the
    /// result was a duplicate or not this plan's.
    fn accept(&mut self, st: &mut CampaignState<'_>, done: JobDone) -> bool {
        let index = done.index;
        if !st.ledger.accept(done) {
            return false;
        }
        self.total_accepted += 1;
        if let Some(pos) = st.queue.iter().position(|q| *q == index) {
            st.queue.remove(pos);
        }
        true
    }

    /// Grants a fresh lease chunk to an idle worker.
    fn grant(&mut self, i: usize, st: &mut CampaignState<'_>) {
        let n = chunk_size(st.ledger.len(), self.cfg.workers);
        let mut indices = Vec::with_capacity(n);
        while indices.len() < n {
            match st.queue.pop_front() {
                Some(idx) => indices.push(idx),
                None => break,
            }
        }
        if indices.is_empty() {
            return;
        }
        self.lease_seq += 1;
        let id = self.lease_seq;
        self.lease_campaign.insert(id, st.ledger.campaign().letter());
        let msg = Msg::LeaseGrant {
            lease: id,
            campaign: st.ledger.campaign(),
            indices: indices.iter().map(|v| *v as u64).collect(),
        };
        let sent = match self.slots[i].stdin.as_mut() {
            Some(stdin) => send_msg(stdin, &msg).is_ok(),
            None => false,
        };
        if sent {
            self.slots[i].state =
                SlotState::Leased(Lease { id, outstanding: indices.into_iter().collect() });
        } else {
            // Dead pipe: give the chunk back and expire the slot.
            for idx in indices.into_iter().rev() {
                st.queue.push_front(idx);
            }
            self.expire(i, st);
        }
    }

    fn handle_msg(&mut self, ev: RxEvent, st: &mut CampaignState<'_>) {
        let i = ev.slot;
        let current = ev.gen == self.slots[i].gen;
        let Some(msg) = ev.msg else {
            // EOF: the worker died or closed its pipe.
            if current
                && !matches!(self.slots[i].state, SlotState::Respawning { .. } | SlotState::Retired)
            {
                self.expire(i, st);
            }
            return;
        };
        // JobDone results are accepted even from a stale generation:
        // the bytes were in flight before the fence, and determinism
        // makes them identical to what a reassigned worker produces.
        if let Msg::JobDone { lease, index, record, metrics } = msg {
            if self.lease_campaign.get(&lease) == Some(&st.ledger.campaign().letter()) {
                let wire_len = record_wire_len(&record, &metrics);
                let done =
                    JobDone { index: index as usize, record, metrics: *metrics, quarantine: None };
                if self.accept(st, done) {
                    self.report.wire_bytes_streamed += wire_len;
                }
                if current {
                    self.slots[i].last_seen = Instant::now();
                    if let SlotState::Leased(l) = &mut self.slots[i].state {
                        if l.id == lease {
                            l.outstanding.remove(&(index as usize));
                            if l.outstanding.is_empty() {
                                self.slots[i].state = SlotState::Idle;
                            }
                        }
                    }
                }
            }
            return;
        }
        if !current {
            return;
        }
        self.slots[i].last_seen = Instant::now();
        match msg {
            Msg::Hello { protocol, fingerprint, seed } => {
                let ok = protocol == PROTOCOL_VERSION
                    && fingerprint == self.fingerprint
                    && seed == self.exp.config.seed;
                if ok {
                    if matches!(self.slots[i].state, SlotState::Handshaking { .. }) {
                        self.slots[i].state = SlotState::Idle;
                    }
                } else {
                    // A worker computing a different plan must never
                    // contribute records; respawning the same exe would
                    // produce the same mismatch, so retire the slot.
                    self.kill_slot(i);
                    self.slots[i].state = SlotState::Retired;
                    self.report.workers_quarantined += 1;
                }
            }
            Msg::Heartbeat => {}
            // Worker-bound messages are never valid coordinator-bound.
            Msg::LeaseGrant { .. } | Msg::Stall | Msg::Die { .. } | Msg::Shutdown => {}
            Msg::JobDone { .. } => unreachable!("handled above"),
        }
    }

    /// Fires any chaos events whose trigger count has been reached.
    fn fire_chaos(&mut self, st: &mut CampaignState<'_>) {
        while let Some(ev) = self.chaos.front() {
            if self.total_accepted < ev.at_done {
                break;
            }
            let ev = self.chaos.pop_front().expect("front exists");
            let live: Vec<usize> = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.child.is_some())
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                continue;
            }
            let victim = live[(ev.pick % live.len() as u64) as usize];
            match ev.action {
                ChaosAction::Kill => {
                    self.report.chaos_kills += 1;
                    self.expire(victim, st);
                }
                ChaosAction::Stall => {
                    self.report.chaos_stalls += 1;
                    if let Some(stdin) = self.slots[victim].stdin.as_mut() {
                        let _ = send_msg(stdin, &Msg::Stall);
                    }
                }
                ChaosAction::Exit => {
                    self.report.chaos_exits += 1;
                    if let Some(stdin) = self.slots[victim].stdin.as_mut() {
                        let _ = send_msg(stdin, &Msg::Die { code: 3 });
                    }
                }
            }
        }
    }

    /// One scheduling pass: deadlines, respawns, lease grants, chaos.
    fn tick(&mut self, st: &mut CampaignState<'_>) {
        let now = Instant::now();
        for i in 0..self.slots.len() {
            match self.slots[i].state {
                SlotState::Handshaking { deadline } => {
                    if now >= deadline {
                        self.report.handshake_timeouts += 1;
                        self.expire(i, st);
                    }
                }
                SlotState::Idle | SlotState::Leased(_) => {
                    if now.duration_since(self.slots[i].last_seen) > self.cfg.heartbeat_budget {
                        self.expire(i, st);
                    }
                }
                SlotState::Respawning { at } => {
                    if now >= at && st.ledger.remaining() > 0 {
                        self.spawn_worker(i);
                    }
                }
                SlotState::Retired => {}
            }
        }
        for i in 0..self.slots.len() {
            if matches!(self.slots[i].state, SlotState::Idle) && !st.queue.is_empty() {
                self.grant(i, st);
            }
        }
        self.fire_chaos(st);
    }

    /// True when no slot can ever make progress again.
    fn collapsed(&self) -> bool {
        self.slots.iter().all(|s| matches!(s.state, SlotState::Retired))
    }

    /// Sends Shutdown to every live worker, grants a short grace
    /// period, then SIGKILLs stragglers and reaps everything.
    fn shutdown(&mut self) {
        for slot in &mut self.slots {
            if let Some(stdin) = slot.stdin.as_mut() {
                let _ = send_msg(stdin, &Msg::Shutdown);
            }
            slot.stdin = None; // EOF on the worker's stdin
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            let mut alive = false;
            for slot in &mut self.slots {
                if let Some(child) = slot.child.as_mut() {
                    match child.try_wait() {
                        Ok(Some(_)) => {
                            slot.child = None;
                        }
                        _ => alive = true,
                    }
                }
            }
            if !alive || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for i in 0..self.slots.len() {
            self.kill_slot(i);
        }
    }
}

fn spawn_reader(
    slot: usize,
    gen: u64,
    mut stdout: std::process::ChildStdout,
    tx: mpsc::Sender<RxEvent>,
) {
    std::thread::spawn(move || {
        let mut dec = StreamDecoder::new();
        let mut buf = [0u8; 8192];
        let drain = |dec: &mut StreamDecoder| -> bool {
            while let Some(payload) = dec.next_frame() {
                let mut pos = 0;
                if let Ok(msg) = decode_msg(&payload, &mut pos) {
                    if tx.send(RxEvent { slot, gen, msg: Some(msg) }).is_err() {
                        return false;
                    }
                }
            }
            true
        };
        loop {
            match stdout.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    dec.push(&buf[..n]);
                    if !drain(&mut dec) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        dec.finish();
        drain(&mut dec);
        let _ = tx.send(RxEvent { slot, gen, msg: None });
    });
}

/// Runs one campaign's ledger over the pool.
fn run_campaign_dist(pool: &mut Pool<'_>, ledger: Ledger<'_>) -> SupervisedCampaign {
    let queue = ledger.pending().collect();
    let mut st = CampaignState { ledger, queue, expiries: BTreeMap::new() };
    while st.ledger.remaining() > 0 {
        if pool.collapsed() {
            degrade_in_process(pool, &mut st);
            break;
        }
        pool.tick(&mut st);
        match pool.rx.recv_timeout(Duration::from_millis(20)) {
            Ok(ev) => {
                pool.handle_msg(ev, &mut st);
                // Drain whatever else is already queued before the next
                // scheduling pass.
                while let Ok(ev) = pool.rx.try_recv() {
                    pool.handle_msg(ev, &mut st);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                degrade_in_process(pool, &mut st);
                break;
            }
        }
    }
    st.ledger.finish()
}

/// The pool is gone: finish the campaign on this thread so it always
/// completes — the supervisor's main-thread fallback, one level up.
fn degrade_in_process(pool: &mut Pool<'_>, st: &mut CampaignState<'_>) {
    // Reclaim every index still outstanding on an expired-but-unreaped
    // lease (collapse can race the last expiry).
    for slot in &mut pool.slots {
        if let SlotState::Leased(l) = std::mem::replace(&mut slot.state, SlotState::Retired) {
            for idx in l.outstanding {
                if !st.ledger.is_done(idx) && !st.queue.contains(&idx) {
                    st.queue.push_back(idx);
                }
            }
        }
    }
    let jobs: Vec<Job> =
        st.queue.drain(..).filter(|i| !st.ledger.is_done(*i)).map(|i| st.ledger.job(i)).collect();
    pool.report.jobs_degraded += jobs.len() as u64;
    run_here(pool.exp, &SupervisorConfig::default(), &mut st.ledger, jobs);
}

/// Runs all three campaigns across a pool of worker subprocesses.
///
/// The dataset (records, CSV, journal bytes) is identical to
/// [`crate::supervisor::run_study_supervised`] with a default policy —
/// at any worker count, any arrival order, and under any kill
/// schedule, including the chaos harness's.
///
/// # Errors
///
/// Journal open/read failures (bad header, seed mismatch, I/O).
pub fn run_study_dist(exp: &Experiment, cfg: &DistConfig) -> Result<DistStudy, String> {
    let total_jobs: usize =
        [Campaign::A, Campaign::B, Campaign::C].iter().map(|c| exp.plan(*c).len()).sum();
    let mut pool = Pool::new(exp, cfg, total_jobs);
    let out = run_study(exp, cfg.journal.as_deref(), cfg.resume, |ledger| {
        run_campaign_dist(&mut pool, ledger)
    });
    pool.shutdown();
    let (study, sup) = out?;
    let report = DistReport {
        resumed_runs: sup.resumed_runs,
        journal_flushes: sup.journal_flushes,
        journal_failure: sup.journal_failure,
        ..pool.report
    };
    Ok(DistStudy { study, report })
}

/// The worker half: handshake, heartbeat, lease execution. Speaks the
/// framed [`Msg`] protocol on `input`/`output` (stdin/stdout when
/// spawned by the coordinator) and returns on Shutdown or EOF.
///
/// # Errors
///
/// An explanation when the rig cannot be built — the worker must die
/// nonzero so the coordinator reassigns its lease.
pub fn run_worker<R: Read, W: Write + Send>(
    exp: &Experiment,
    cfg: &WorkerConfig,
    mut input: R,
    output: W,
) -> Result<(), String> {
    if cfg.wedge_handshake {
        // Test hook: never handshake; the coordinator must reap us.
        loop {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    let writer = Mutex::new(output);
    let send = |msg: &Msg| -> Result<(), String> {
        send_msg(&mut *writer.lock().expect("writer lock"), msg).map_err(|e| e.to_string())
    };
    send(&Msg::Hello {
        protocol: PROTOCOL_VERSION,
        fingerprint: plan_fingerprint(exp),
        seed: exp.config.seed,
    })?;

    let stop = AtomicBool::new(false);
    let stalled = AtomicBool::new(false);
    let slot = WatchSlot::new();
    let mut plans: BTreeMap<char, Vec<(InjectionTarget, u32)>> = BTreeMap::new();
    let mut rig: Option<InjectorRig> = None;

    let mut out: Result<(), String> = Ok(());
    std::thread::scope(|s| {
        // Heartbeat thread: beats through long runs, goes quiet when
        // stalled (chaos) or stopping.
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                if !stalled.load(Ordering::SeqCst) {
                    if send(&Msg::Heartbeat).is_err() {
                        // Coordinator gone; nothing to beat for.
                        break;
                    }
                }
                std::thread::sleep(cfg.heartbeat_interval);
            }
        });
        // Wall-clock watchdog, as in the in-process supervisor.
        if let Some(budget) = cfg.supervisor.wall_budget {
            let (slot, stop) = (&slot, &stop);
            s.spawn(move || watch(std::slice::from_ref(slot), budget, stop));
        }

        let mut dec = StreamDecoder::new();
        let mut buf = [0u8; 8192];
        'io: loop {
            while let Some(payload) = dec.next_frame() {
                let mut pos = 0;
                let Ok(msg) = decode_msg(&payload, &mut pos) else { continue };
                match msg {
                    Msg::LeaseGrant { lease, campaign, indices } => {
                        let plan =
                            plans.entry(campaign.letter()).or_insert_with(|| exp.planned(campaign));
                        for raw in indices {
                            let index = raw as usize;
                            let Some((target, mode)) = plan.get(index).cloned() else { continue };
                            let job = Job { index, target, mode };
                            match process_job(exp, &cfg.supervisor, &job, &mut rig, &slot) {
                                Ok(done) => {
                                    let msg = Msg::JobDone {
                                        lease,
                                        index: done.index as u64,
                                        record: done.record,
                                        metrics: Box::new(done.metrics),
                                    };
                                    if send(&msg).is_err() {
                                        break 'io;
                                    }
                                }
                                Err(()) => {
                                    out = Err("worker rig could not be built".into());
                                    break 'io;
                                }
                            }
                        }
                    }
                    Msg::Stall => {
                        // Simulated livelock: heartbeats stop, the
                        // process stays alive until SIGKILLed.
                        stalled.store(true, Ordering::SeqCst);
                        loop {
                            std::thread::sleep(Duration::from_millis(100));
                        }
                    }
                    Msg::Die { code } => {
                        std::process::exit(code as i32);
                    }
                    Msg::Shutdown => break 'io,
                    // Coordinator-bound frames are not ours to handle.
                    Msg::Hello { .. } | Msg::Heartbeat | Msg::JobDone { .. } => {}
                }
            }
            match input.read(&mut buf) {
                Ok(0) => break 'io,
                Ok(n) => dec.push(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break 'io,
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_covers_plan() {
        for plan_len in [0usize, 1, 2, 7, 31, 100, 1000] {
            for workers in [1usize, 2, 4, 8] {
                let n = chunk_size(plan_len, workers);
                assert!(n >= 1);
                if plan_len > 0 {
                    // Every index handed out exactly once across chunks.
                    let mut queue: VecDeque<usize> = (0..plan_len).collect();
                    let mut seen = Vec::new();
                    while !queue.is_empty() {
                        for _ in 0..n {
                            match queue.pop_front() {
                                Some(i) => seen.push(i),
                                None => break,
                            }
                        }
                    }
                    assert_eq!(seen, (0..plan_len).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn chaos_plan_is_deterministic_and_kill_first() {
        for seed in 0..32u64 {
            let a = ChaosPlan::new(seed, 120);
            let b = ChaosPlan::new(seed, 120);
            assert_eq!(a, b, "same seed, same schedule");
            assert_eq!(a.events.len(), ChaosPlan::EVENTS);
            assert!(
                a.events.iter().any(|e| e.action == ChaosAction::Kill),
                "every schedule proves SIGKILL recovery"
            );
            let span = 120 * 3 / 4;
            for e in &a.events {
                assert!(e.at_done < span);
            }
        }
        assert_ne!(ChaosPlan::new(1, 120), ChaosPlan::new(2, 120), "seed varies the schedule");
    }

    #[test]
    fn fnv_chaining_mixes() {
        let a = fnv1a(FNV_OFFSET, b"abc");
        let b = fnv1a(FNV_OFFSET, b"abd");
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"c"));
    }
}
