//! Golden-outcome equivalence: the execution tier (and the dirty-page
//! restore it rides with) must not change a single campaign result. A
//! full small campaign on the interpreter tier is the reference; on the
//! cached tier every record and every metric except the decode cache's
//! own counters must be bit-identical, and the chained tier at any
//! worker count must equal the cached tier exactly.

mod common;

use common::engine_stats;
use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::{Campaign, RigConfig};
use kfi_machine::ExecTier;
use kfi_profiler::ProfilerConfig;
use kfi_trace::Metrics;

fn experiment(tier: ExecTier, threads: usize) -> Experiment {
    Experiment::prepare(ExperimentConfig {
        seed: 11,
        max_per_function: Some(2),
        threads,
        profiler: ProfilerConfig { period: 997 },
        rig: RigConfig { tier, ..Default::default() },
        ..Default::default()
    })
    .expect("prepare")
}

fn campaign(exp: &Experiment) -> (Vec<kfi_injector::RunRecord>, Metrics) {
    let r = exp.run_campaign(Campaign::A);
    (r.records, r.metrics)
}

/// Zeroes every counter that is *about* a cache — the only fields
/// allowed to differ between the interpreter and a cached tier.
fn without_cache_counters(m: &Metrics) -> Metrics {
    Metrics { decode_hits: 0, decode_misses: 0, decode_invalidations: 0, ..m.clone() }
}

#[test]
fn cached_campaign_is_bit_identical_to_uncached() {
    let interp = experiment(ExecTier::Interp, 1);
    let (rec_ref, met_ref) = campaign(&interp);
    assert_eq!(
        (met_ref.decode_hits, met_ref.decode_misses),
        (0, 0),
        "the interpreter caches nothing"
    );
    assert_eq!(engine_stats(&interp), Default::default(), "the interpreter runs no blocks");
    assert!(met_ref.runs > 0);

    let cached = experiment(ExecTier::Cached, 1);
    let (rec_cached, met_cached) = campaign(&cached);
    assert_eq!(rec_ref, rec_cached, "records diverged on the cached tier");
    assert!(met_cached.decode_hits > 0, "the cache must actually be exercised");
    assert_eq!(engine_stats(&cached), Default::default(), "the cached tier single-steps");
    assert_eq!(without_cache_counters(&met_ref), without_cache_counters(&met_cached));

    for threads in [1, 2] {
        let chained = experiment(ExecTier::Chained, threads);
        let (rec_on, met_on) = campaign(&chained);
        let ((hits, _, _), (_, follows, _)) = engine_stats(&chained);
        assert!(hits > 0, "the block engine must actually be exercised");
        assert!(follows > 0, "chaining must actually be exercised");
        assert_eq!(rec_ref, rec_on, "records diverged on the chained tier ({threads} threads)");
        // Replaying blocks keeps even the decode-cache counters of
        // single-stepping.
        assert_eq!(met_cached, met_on, "metrics diverged on the chained tier ({threads} threads)");
    }
}
