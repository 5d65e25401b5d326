//! Determinism contract of the single-worker fuzzer: identical
//! configuration and RNG seed must discover the identical bug set.
//!
//! This is the property record/replay is built on — if the fuzzer itself
//! drifted between identically-seeded runs, a recorded schedule would be
//! meaningless. Systematic exploration with one worker removes the two
//! sanctioned nondeterminism sources (wall-clock scheduling jitter across
//! workers, OS thread interleaving inside the pmrace scheduler's waits),
//! so everything that remains must be a function of the seed.

use std::collections::BTreeSet;
use std::time::Duration;

use pmrace::{FuzzConfig, Fuzzer, StrategyKind};

fn deterministic_cfg_for(target: &str, rng_seed: u64) -> FuzzConfig {
    let mut cfg = FuzzConfig::new(target);
    cfg.strategy = StrategyKind::Systematic;
    cfg.workers = 1;
    cfg.threads = 2;
    cfg.max_campaigns = 8;
    cfg.wall_budget = Duration::from_secs(60);
    cfg.campaign_deadline = Duration::from_millis(300);
    cfg.rng_seed = rng_seed;
    cfg
}

fn deterministic_cfg(rng_seed: u64) -> FuzzConfig {
    deterministic_cfg_for("P-CLHT", rng_seed)
}

fn bug_set(rng_seed: u64) -> BTreeSet<(String, String, String)> {
    pmrace::register_builtins();
    let report = Fuzzer::new(deterministic_cfg(rng_seed))
        .unwrap()
        .run()
        .unwrap();
    report.bug_triples.into_iter().collect()
}

#[test]
fn identical_seeds_find_identical_bug_triples() {
    let first = bug_set(42);
    let second = bug_set(42);
    assert_eq!(
        first, second,
        "two identically-seeded single-worker runs diverged"
    );
}

/// The contract must also hold for targets whose control flow is CAS-retry
/// loops rather than locks: the scheduler's retry decision points consume
/// deterministic RNG streams, so a lock-free target's bug set is equally
/// a pure function of the seed.
#[test]
fn identical_seeds_find_identical_lockfree_bug_triples() {
    pmrace::register_lockfree();
    let run = || -> BTreeSet<(String, String, String)> {
        let report = Fuzzer::new(deterministic_cfg_for("treiber-stack", 7))
            .unwrap()
            .run()
            .unwrap();
        report.bug_triples.into_iter().collect()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "two identically-seeded single-worker treiber-stack runs diverged"
    );
}
