//! Golden-outcome equivalence: the decoded-instruction cache (and the
//! dirty-page restore it rides with) must not change a single campaign
//! result. A full small campaign with the cache off is the reference;
//! with the cache on — at any worker count — every record and every
//! metric except the cache's own counters must be bit-identical.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::{Campaign, RigConfig};
use kfi_profiler::ProfilerConfig;
use kfi_trace::Metrics;

fn campaign(decode_cache: bool, threads: usize) -> (Vec<kfi_injector::RunRecord>, Metrics) {
    let exp = Experiment::prepare(ExperimentConfig {
        seed: 11,
        max_per_function: Some(2),
        threads,
        profiler: ProfilerConfig { period: 997 },
        rig: RigConfig { decode_cache, ..Default::default() },
        ..Default::default()
    })
    .expect("prepare");
    let r = exp.run_campaign(Campaign::A);
    (r.records, r.metrics)
}

/// Zeroes the counters that are *about* the cache itself — the only
/// fields allowed to differ between cached and uncached execution.
/// Turning the decode cache off also disables the block engine (blocks
/// validate against decode-cache entries), so the block counters go
/// from nonzero to zero with it and are masked the same way.
fn without_cache_counters(m: &Metrics) -> Metrics {
    let mut m = m.clone();
    m.decode_hits = 0;
    m.decode_misses = 0;
    m.decode_invalidations = 0;
    m.block_hits = 0;
    m.block_misses = 0;
    m.block_invalidations = 0;
    m.block_chain_links = 0;
    m.block_chain_follows = 0;
    m.block_chain_breaks = 0;
    m
}

#[test]
fn cached_campaign_is_bit_identical_to_uncached() {
    let (rec_off, met_off) = campaign(false, 1);
    assert_eq!(met_off.decode_hits, 0, "disabled cache must count nothing");
    assert_eq!(met_off.decode_misses, 0);
    assert!(met_off.runs > 0);

    for threads in [1, 2] {
        let (rec_on, met_on) = campaign(true, threads);
        assert_eq!(rec_off, rec_on, "records diverged with cache on ({threads} threads)");
        assert!(met_on.decode_hits > 0, "the cache must actually be exercised");
        assert!(met_on.block_hits > 0, "the block engine must actually be exercised");
        assert!(met_on.block_chain_follows > 0, "chaining must actually be exercised");
        assert_eq!(met_off.block_hits, 0, "no decode cache implies no block engine");
        assert_eq!(met_off.block_chain_links, 0, "no block engine implies no chaining");
        assert_eq!(
            without_cache_counters(&met_off),
            without_cache_counters(&met_on),
            "metrics diverged with cache on ({threads} threads)"
        );
    }
}
