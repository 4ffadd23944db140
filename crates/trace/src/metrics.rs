//! The metrics counter registry.

use crate::codec::{get_varint, put_varint, CodecError};
use crate::event::outcome;
use crate::latency::LatencyHist;

/// A log2-bucketed histogram of cycle counts.
///
/// Bucket `i` holds values `v` with `2^(i-1) <= v < 2^i` (bucket 0
/// holds exactly 0). 65 buckets cover the full `u64` range, matching
/// the paper's decade-style crash-latency buckets (Figure 7) closely
/// enough to re-derive them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleHist {
    buckets: [u64; 65],
}

impl Default for CycleHist {
    fn default() -> CycleHist {
        CycleHist { buckets: [0; 65] }
    }
}

impl CycleHist {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Lower bound of a bucket.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Count of values `< bound` (bucket-resolution: exact when `bound`
    /// is a power of two).
    pub fn count_below(&self, bound: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .take_while(|(i, _)| Self::bucket_floor(*i) < bound)
            .map(|(_, c)| c)
            .sum()
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &CycleHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        for b in &self.buckets {
            put_varint(out, *b);
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Result<CycleHist, CodecError> {
        let mut h = CycleHist::default();
        for b in h.buckets.iter_mut() {
            *b = get_varint(buf, pos)?;
        }
        Ok(h)
    }

    /// Non-empty `(bucket_floor, count)` pairs, ascending.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (Self::bucket_floor(i), *c))
            .collect()
    }
}

/// Aggregate counters for a rig, a worker, or a whole campaign.
///
/// Each scalar counter is a column of the per-campaign metrics CSV;
/// `faults_by_vector` prints there as its sum, and the outcome tallies
/// and histograms feed the report. Engine and coordinator statistics
/// that no artifact reads live where they are counted (the machine's
/// caches, `DistReport`), not here.
///
/// Every field is additive, so [`Metrics::merge`] is commutative and
/// associative — aggregating per-worker metrics yields bit-identical
/// results for any thread count and any merge order, which the
/// thread-invariance tests pin down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Guest instructions retired during measured runs.
    pub instructions: u64,
    /// Fault deliveries by vector number (0..=31).
    pub faults_by_vector: [u64; 32],
    /// System calls delivered.
    pub syscalls: u64,
    /// Timer interrupts delivered.
    pub timer_irqs: u64,
    /// TLB hits during measured runs.
    pub tlb_hits: u64,
    /// TLB-miss page-table walks during measured runs.
    pub tlb_miss_walks: u64,
    /// Decoded-instruction cache hits during measured runs.
    pub decode_hits: u64,
    /// Decoded-instruction cache misses during measured runs.
    pub decode_misses: u64,
    /// Decode-cache entries killed by a write to their page (subset of
    /// misses; the bit-flip and self-modifying-code path).
    pub decode_invalidations: u64,
    /// Physical pages dirtied by measured runs — the pages the
    /// dirty-page snapshot restore resets, and at most the pages the
    /// runs copied on their first write.
    pub dirty_pages: u64,
    /// Post-boot snapshot restores (one per activated run).
    pub snapshot_restores: u64,
    /// Injection runs executed (including not-activated fast-path runs).
    pub runs: u64,
    /// Runs short-circuited by the coverage pre-check.
    pub runs_not_activated: u64,
    /// Outcome tallies indexed by [`outcome`] code.
    pub outcomes: [u64; outcome::COUNT],
    /// Machine sanitizer violations observed during measured runs
    /// (nonzero only when the rig runs with the sanitizer enabled).
    pub sanitizer_violations: u64,
    /// Worker panics caught and contained by the campaign supervisor.
    pub rig_panics: u64,
    /// Extra run attempts spent retrying poisoned runs on a fresh rig.
    pub run_retries: u64,
    /// Runs whose misbehaviour (panic / sanitizer violation) survived
    /// every retry and were quarantined as repro artifacts.
    pub quarantined_runs: u64,
    /// Runs aborted by the supervisor's wall-clock watchdog and
    /// degraded to hang-classified records.
    pub wall_watchdog_fired: u64,
    /// Total cycles consumed by measured runs.
    pub run_cycles_total: u64,
    /// Distribution of per-run cycle counts.
    pub run_cycles: CycleHist,
    /// Distribution of crash latencies (activation → fatal trap).
    pub crash_latency: CycleHist,
    /// Crash latencies in the paper's Figure 7 buckets (the unified
    /// histogram shared with `kfi-core`'s record-level statistics).
    pub crash_latency_paper: LatencyHist,
}

impl Metrics {
    /// Folds `other` into `self` (pure addition).
    pub fn merge(&mut self, other: &Metrics) {
        self.instructions += other.instructions;
        for (a, b) in self.faults_by_vector.iter_mut().zip(other.faults_by_vector.iter()) {
            *a += b;
        }
        self.syscalls += other.syscalls;
        self.timer_irqs += other.timer_irqs;
        self.tlb_hits += other.tlb_hits;
        self.tlb_miss_walks += other.tlb_miss_walks;
        self.decode_hits += other.decode_hits;
        self.decode_misses += other.decode_misses;
        self.decode_invalidations += other.decode_invalidations;
        self.dirty_pages += other.dirty_pages;
        self.snapshot_restores += other.snapshot_restores;
        self.runs += other.runs;
        self.runs_not_activated += other.runs_not_activated;
        for (a, b) in self.outcomes.iter_mut().zip(other.outcomes.iter()) {
            *a += b;
        }
        self.sanitizer_violations += other.sanitizer_violations;
        self.rig_panics += other.rig_panics;
        self.run_retries += other.run_retries;
        self.quarantined_runs += other.quarantined_runs;
        self.wall_watchdog_fired += other.wall_watchdog_fired;
        self.run_cycles_total += other.run_cycles_total;
        self.run_cycles.merge(&other.run_cycles);
        self.crash_latency.merge(&other.crash_latency);
        self.crash_latency_paper.merge(&other.crash_latency_paper);
    }

    /// Records a crash latency into both latency histograms.
    pub fn record_crash_latency(&mut self, latency: u64) {
        self.crash_latency.record(latency);
        self.crash_latency_paper.record(latency);
    }

    /// Total faults across vectors.
    pub fn faults(&self) -> u64 {
        self.faults_by_vector.iter().sum()
    }

    /// Outcome count by code.
    pub fn outcome(&self, code: u8) -> u64 {
        self.outcomes.get(code as usize).copied().unwrap_or(0)
    }

    /// Serializes every counter as varints in declaration order — the
    /// journal's per-run metrics-delta payload. [`Metrics::decode_from`]
    /// inverts it exactly.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.instructions);
        for v in &self.faults_by_vector {
            put_varint(out, *v);
        }
        put_varint(out, self.syscalls);
        put_varint(out, self.timer_irqs);
        put_varint(out, self.tlb_hits);
        put_varint(out, self.tlb_miss_walks);
        put_varint(out, self.decode_hits);
        put_varint(out, self.decode_misses);
        put_varint(out, self.decode_invalidations);
        put_varint(out, self.dirty_pages);
        put_varint(out, self.snapshot_restores);
        put_varint(out, self.runs);
        put_varint(out, self.runs_not_activated);
        for v in &self.outcomes {
            put_varint(out, *v);
        }
        put_varint(out, self.sanitizer_violations);
        put_varint(out, self.rig_panics);
        put_varint(out, self.run_retries);
        put_varint(out, self.quarantined_runs);
        put_varint(out, self.wall_watchdog_fired);
        put_varint(out, self.run_cycles_total);
        self.run_cycles.encode_into(out);
        self.crash_latency.encode_into(out);
        for v in self.crash_latency_paper.counts() {
            put_varint(out, v);
        }
    }

    /// Decodes a [`Metrics::encode_into`] payload, advancing `pos`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the buffer ends early.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Metrics, CodecError> {
        let mut m = Metrics::default();
        m.instructions = get_varint(buf, pos)?;
        for v in m.faults_by_vector.iter_mut() {
            *v = get_varint(buf, pos)?;
        }
        m.syscalls = get_varint(buf, pos)?;
        m.timer_irqs = get_varint(buf, pos)?;
        m.tlb_hits = get_varint(buf, pos)?;
        m.tlb_miss_walks = get_varint(buf, pos)?;
        m.decode_hits = get_varint(buf, pos)?;
        m.decode_misses = get_varint(buf, pos)?;
        m.decode_invalidations = get_varint(buf, pos)?;
        m.dirty_pages = get_varint(buf, pos)?;
        m.snapshot_restores = get_varint(buf, pos)?;
        m.runs = get_varint(buf, pos)?;
        m.runs_not_activated = get_varint(buf, pos)?;
        for v in m.outcomes.iter_mut() {
            *v = get_varint(buf, pos)?;
        }
        m.sanitizer_violations = get_varint(buf, pos)?;
        m.rig_panics = get_varint(buf, pos)?;
        m.run_retries = get_varint(buf, pos)?;
        m.quarantined_runs = get_varint(buf, pos)?;
        m.wall_watchdog_fired = get_varint(buf, pos)?;
        m.run_cycles_total = get_varint(buf, pos)?;
        m.run_cycles = CycleHist::decode_from(buf, pos)?;
        m.crash_latency = CycleHist::decode_from(buf, pos)?;
        let mut latency = [0u64; crate::latency::LATENCY_BUCKETS.len()];
        for v in latency.iter_mut() {
            *v = get_varint(buf, pos)?;
        }
        m.crash_latency_paper = LatencyHist::from_counts(latency);
        Ok(m)
    }

    /// Records one classified run.
    pub fn record_outcome(&mut self, code: u8) {
        if let Some(c) = self.outcomes.get_mut(code as usize) {
            *c += 1;
        }
        if code == outcome::NOT_ACTIVATED {
            self.runs_not_activated += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets() {
        assert_eq!(CycleHist::bucket_of(0), 0);
        assert_eq!(CycleHist::bucket_of(1), 1);
        assert_eq!(CycleHist::bucket_of(2), 2);
        assert_eq!(CycleHist::bucket_of(3), 2);
        assert_eq!(CycleHist::bucket_of(4), 3);
        assert_eq!(CycleHist::bucket_of(u64::MAX), 64);
        assert_eq!(CycleHist::bucket_floor(0), 0);
        assert_eq!(CycleHist::bucket_floor(1), 1);
        assert_eq!(CycleHist::bucket_floor(10), 512);
    }

    #[test]
    fn hist_count_below() {
        let mut h = CycleHist::default();
        for v in [0, 1, 5, 9, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.count_below(16), 4);
        assert_eq!(h.count_below(1), 1);
    }

    #[test]
    fn wire_roundtrip_preserves_every_counter() {
        let mut m = Metrics::default();
        m.instructions = 123_456_789;
        m.faults_by_vector[14] = 9;
        m.faults_by_vector[6] = 2;
        m.syscalls = 77;
        m.timer_irqs = 31;
        m.tlb_hits = 1 << 40;
        m.tlb_miss_walks = 5;
        m.decode_hits = 42;
        m.decode_misses = 7;
        m.decode_invalidations = 1;
        m.dirty_pages = 64;
        m.snapshot_restores = 3;
        m.runs = 4;
        m.runs_not_activated = 1;
        m.record_outcome(outcome::CRASH);
        m.record_outcome(outcome::RIG_FAULT);
        m.sanitizer_violations = 11;
        m.rig_panics = 2;
        m.run_retries = 3;
        m.quarantined_runs = 1;
        m.wall_watchdog_fired = 1;
        m.run_cycles_total = u64::MAX / 3;
        m.run_cycles.record(0);
        m.run_cycles.record(u64::MAX);
        m.crash_latency.record(500);
        m.record_crash_latency(99_999);

        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let mut pos = 0;
        let back = Metrics::decode_from(&buf, &mut pos).expect("decodes");
        assert_eq!(pos, buf.len(), "decode must consume exactly what encode wrote");
        assert_eq!(back, m);

        // Truncation anywhere errors instead of panicking.
        for cut in 0..buf.len() {
            let mut p = 0;
            assert!(Metrics::decode_from(&buf[..cut], &mut p).is_err() || p <= cut);
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Metrics::default();
        a.instructions = 10;
        a.faults_by_vector[14] = 3;
        a.decode_hits = 100;
        a.decode_invalidations = 1;
        a.dirty_pages = 12;
        a.run_cycles.record(100);
        a.record_outcome(outcome::CRASH);
        a.record_crash_latency(500);
        let mut b = Metrics::default();
        b.instructions = 7;
        b.faults_by_vector[14] = 1;
        b.faults_by_vector[6] = 2;
        b.decode_misses = 4;
        b.dirty_pages = 3;
        b.run_cycles.record(90_000);
        b.record_outcome(outcome::HANG);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.instructions, 17);
        assert_eq!(ab.faults(), 6);
        assert_eq!(ab.outcome(outcome::CRASH), 1);
        assert_eq!(ab.outcome(outcome::HANG), 1);
        assert_eq!(ab.decode_hits, 100);
        assert_eq!(ab.decode_misses, 4);
        assert_eq!(ab.dirty_pages, 15);
        assert_eq!(ab.crash_latency_paper.total(), 1);
        assert_eq!(ab.crash_latency_paper.bucket(2), 1);
    }
}
