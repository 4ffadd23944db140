//! Helpers shared by the core integration tests.

use kfi_core::Experiment;
use kfi_injector::Campaign;

/// Block `(hits, misses, invalidations)` and chain `(links, follows,
/// breaks)`.
pub type EngineStats = ((u64, u64, u64), (u64, u64, u64));

/// The block and chain statistics one rig counts over campaign A's
/// plan, summed per run: a run's restore zeroes them, and a run skipped
/// as never activated (`run_cycles` 0) neither restores nor runs the
/// machine.
pub fn engine_stats(exp: &Experiment) -> EngineStats {
    let add = |a: &mut (u64, u64, u64), b: (u64, u64, u64)| *a = (a.0 + b.0, a.1 + b.1, a.2 + b.2);
    let mut rig = exp.make_rig().expect("rig");
    let (mut blocks, mut chains) = Default::default();
    for (target, mode) in exp.planned(Campaign::A) {
        if rig.run_one(&target, mode).run_cycles > 0 {
            let m = rig.machine_mut();
            add(&mut blocks, m.block_stats());
            add(&mut chains, m.chain_stats());
        }
    }
    (blocks, chains)
}
