//! Shared fuzzing sweep: one PMRace run per target, reused by Tables 2/3/5/6.

use pmrace_core::{FuzzConfig, FuzzReport, Fuzzer, StrategyKind};
use pmrace_targets::{all_targets, register_builtins};

use crate::Budget;

/// Run the PMRace fuzzer on every evaluated system with the given budget.
///
/// # Panics
///
/// Panics if a target fails to initialize (a bug in the harness, not an
/// experiment outcome).
#[must_use]
pub fn fuzz_all_targets(budget: Budget, rng_seed: u64) -> Vec<FuzzReport> {
    all_targets()
        .iter()
        .map(|spec| fuzz_target(spec.name, budget, StrategyKind::Pmrace, rng_seed))
        .collect()
}

/// Run one fuzzing sweep on a single target (the five built-in targets are
/// registered first, so an experiment run on its own finds them).
///
/// # Panics
///
/// Panics if the target name is unknown or initialization fails.
#[must_use]
pub fn fuzz_target(
    name: &str,
    budget: Budget,
    strategy: StrategyKind,
    rng_seed: u64,
) -> FuzzReport {
    register_builtins();
    let mut cfg = FuzzConfig::new(name);
    cfg.strategy = strategy;
    cfg.max_campaigns = budget.campaigns;
    cfg.wall_budget = budget.wall;
    cfg.workers = budget.workers;
    cfg.rng_seed = rng_seed;
    Fuzzer::new(cfg)
        .expect("known target")
        .run()
        .expect("fuzzing run completes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sweep_single_target_smoke() {
        let budget = Budget {
            campaigns: 3,
            wall: Duration::from_secs(10),
            workers: 2,
        };
        let report = fuzz_target("clevel", budget, StrategyKind::Pmrace, 5);
        assert_eq!(report.target, "clevel");
        assert!(report.campaigns >= 1);
    }
}
