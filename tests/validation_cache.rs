//! The validation verdict cache only memoizes pure functions of its key,
//! so turning it off may change how many recovery executions run but
//! never which unique bugs come out.
//!
//! The cache switch is process-global, so this test lives in its own test
//! binary: no other `Fuzzer` shares the process and could flip the switch
//! while the uncached reference run is in flight.

use std::collections::BTreeSet;
use std::time::Duration;

use pmrace::core::set_validation_cache;
use pmrace::{FuzzConfig, FuzzReport, Fuzzer, StrategyKind};

/// The single-worker systematic configuration `tests/determinism.rs`
/// shows to be a pure function of its seed.
fn deterministic_cfg(rng_seed: u64) -> FuzzConfig {
    let mut cfg = FuzzConfig::new("P-CLHT");
    cfg.strategy = StrategyKind::Systematic;
    cfg.workers = 1;
    cfg.threads = 2;
    cfg.max_campaigns = 8;
    cfg.wall_budget = Duration::from_secs(60);
    cfg.campaign_deadline = Duration::from_millis(300);
    cfg.rng_seed = rng_seed;
    cfg
}

/// Everything a `UniqueBug` reports except wall-clock timing (which is the
/// one sanctioned nondeterminism in a report).
fn bug_identities(report: &FuzzReport) -> BTreeSet<(String, String, String, String)> {
    report
        .bugs
        .iter()
        .map(|b| {
            (
                format!("{}", b.kind),
                b.write_label.clone(),
                b.read_label.clone(),
                b.effect_label.clone(),
            )
        })
        .collect()
}

#[test]
fn validation_cache_does_not_change_the_bug_set() {
    pmrace::register_builtins();
    let run = |cache: bool| {
        set_validation_cache(cache);
        Fuzzer::new(deterministic_cfg(42)).unwrap().run().unwrap()
    };
    let with_cache = run(true);
    let without_cache = run(false);
    set_validation_cache(true);
    assert_eq!(
        with_cache.bug_triples.iter().collect::<BTreeSet<_>>(),
        without_cache.bug_triples.iter().collect::<BTreeSet<_>>(),
        "verdict memoization changed the surviving bug triples"
    );
    assert_eq!(
        bug_identities(&with_cache),
        bug_identities(&without_cache),
        "verdict memoization changed the unique-bug set"
    );
}
