//! Golden-outcome equivalence: the execution tier (and the dirty-page
//! restore it rides with) must not change a single campaign result. A
//! full small campaign on the interpreter tier is the reference; on the
//! cached tier, and on the chained tier at any worker count, every
//! record and every metric except the caches' own counters must be
//! bit-identical.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::{Campaign, RigConfig};
use kfi_machine::ExecTier;
use kfi_profiler::ProfilerConfig;
use kfi_trace::Metrics;

fn campaign(tier: ExecTier, threads: usize) -> (Vec<kfi_injector::RunRecord>, Metrics) {
    let exp = Experiment::prepare(ExperimentConfig {
        seed: 11,
        max_per_function: Some(2),
        threads,
        profiler: ProfilerConfig { period: 997 },
        rig: RigConfig { tier, ..Default::default() },
        ..Default::default()
    })
    .expect("prepare");
    let r = exp.run_campaign(Campaign::A);
    (r.records, r.metrics)
}

/// Zeroes the block and chain counters: the only fields allowed to
/// differ between the cached and the chained tier.
fn without_block_counters(m: &Metrics) -> Metrics {
    Metrics {
        block_hits: 0,
        block_misses: 0,
        block_invalidations: 0,
        block_chain_links: 0,
        block_chain_follows: 0,
        block_chain_breaks: 0,
        ..m.clone()
    }
}

/// Zeroes every counter that is *about* a cache — the only fields
/// allowed to differ between the interpreter and a cached tier.
fn without_cache_counters(m: &Metrics) -> Metrics {
    Metrics {
        decode_hits: 0,
        decode_misses: 0,
        decode_invalidations: 0,
        ..without_block_counters(m)
    }
}

#[test]
fn cached_campaign_is_bit_identical_to_uncached() {
    let (rec_ref, met_ref) = campaign(ExecTier::Interp, 1);
    assert_eq!(
        (met_ref.decode_hits, met_ref.decode_misses),
        (0, 0),
        "the interpreter caches nothing"
    );
    assert_eq!(met_ref.block_hits + met_ref.block_misses, 0, "the interpreter runs no blocks");
    assert!(met_ref.runs > 0);

    let (rec_cached, met_cached) = campaign(ExecTier::Cached, 1);
    assert_eq!(rec_ref, rec_cached, "records diverged on the cached tier");
    assert!(met_cached.decode_hits > 0, "the cache must actually be exercised");
    assert_eq!(met_cached.block_hits + met_cached.block_misses, 0, "the cached tier single-steps");
    assert_eq!(without_cache_counters(&met_ref), without_cache_counters(&met_cached));

    for threads in [1, 2] {
        let (rec_on, met_on) = campaign(ExecTier::Chained, threads);
        assert_eq!(rec_ref, rec_on, "records diverged on the chained tier ({threads} threads)");
        assert!(met_on.block_hits > 0, "the block engine must actually be exercised");
        assert!(met_on.block_chain_follows > 0, "chaining must actually be exercised");
        assert_eq!(
            without_cache_counters(&met_ref),
            without_cache_counters(&met_on),
            "metrics diverged on the chained tier ({threads} threads)"
        );
        // Replaying blocks keeps even the decode-cache counters of
        // single-stepping.
        assert_eq!(
            without_block_counters(&met_cached),
            without_block_counters(&met_on),
            "decode counters diverged on the chained tier ({threads} threads)"
        );
    }
}
