//! Fleet-level integration: a multi-worker run must exchange seeds across
//! workers through the shared pool, judge novelty against one shared
//! coverage frontier, keep the sharded ledger's bookkeeping exact, still
//! find the paper's Table 2 bugs — and the `workers=1` fleet path must
//! preserve the single-worker determinism contract (fleet membership adds
//! no RNG draws and a lone worker has no sibling stripes to import from).

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use pmrace::core::BugKind;
use pmrace::{telemetry, FuzzConfig, Fuzzer, StrategyKind};

/// The tests in this file run one at a time: a four-worker fleet keeps
/// every CPU of a small host busy, and the single-worker determinism test
/// beside it then runs its campaigns into their wall-clock deadline.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn four_worker_fleet_finds_the_paper_bugs_and_exchanges_seeds() {
    let _serial = serial();
    pmrace::register_builtins();
    telemetry::set_enabled(true);
    let mut cfg = FuzzConfig::new("P-CLHT");
    cfg.workers = 4;
    cfg.threads = 2;
    cfg.max_campaigns = 64;
    cfg.wall_budget = Duration::from_secs(120);
    cfg.campaign_deadline = Duration::from_millis(400);
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();

    // Table 2 (P-CLHT rows): the resize path's intra-thread inconsistency
    // and the persistent-lock sync bugs must both surface under a fleet.
    let kinds: BTreeSet<_> = report.bugs.iter().map(|b| b.kind).collect();
    assert!(
        kinds.contains(&BugKind::Intra),
        "P-CLHT intra bug missing under workers=4: {kinds:?}"
    );
    assert!(
        kinds.contains(&BugKind::Sync),
        "P-CLHT sync bug missing under workers=4: {kinds:?}"
    );

    // The striped-ledger fast path absorbs all-duplicate campaigns without
    // the global lock but must still account for every one of them.
    assert_eq!(
        report.stats.campaigns, report.campaigns,
        "fast-path campaigns lost from the ledger statistics"
    );
    assert_eq!(report.coverage_timeline.len(), report.campaigns);
    let mono = report
        .coverage_timeline
        .windows(2)
        .all(|w| w[0].at <= w[1].at);
    assert!(mono, "merged per-worker timelines must be time-sorted");

    // Cross-worker exchange actually happened: siblings imported published
    // seeds, and campaigns advanced the shared frontier.
    let shared = telemetry::metrics::counter(telemetry::Counter::FleetSharedSeeds);
    assert!(shared >= 1, "no cross-worker seed imports recorded");
    let hits = telemetry::metrics::counter(telemetry::Counter::FleetFrontierHits);
    assert!(hits >= 1, "no campaign advanced the shared frontier");
    // Every worker executed campaigns (none starved behind a shared lock).
    let per_worker = telemetry::metrics::worker_execs();
    assert!(
        per_worker.iter().filter(|(_, n)| *n > 0).count() >= 2,
        "expected several workers to run campaigns, got {per_worker:?}"
    );
}

fn systematic_cfg(rng_seed: u64) -> FuzzConfig {
    let mut cfg = FuzzConfig::new("FAST-FAIR");
    cfg.strategy = StrategyKind::Systematic;
    cfg.workers = 1;
    cfg.threads = 2;
    cfg.max_campaigns = 8;
    cfg.wall_budget = Duration::from_secs(60);
    cfg.campaign_deadline = Duration::from_millis(300);
    cfg.rng_seed = rng_seed;
    cfg
}

#[test]
fn single_worker_fleet_reproduces_identical_bug_triples_run_to_run() {
    let _serial = serial();
    pmrace::register_builtins();
    let run = |seed: u64| {
        let report = Fuzzer::new(systematic_cfg(seed)).unwrap().run().unwrap();
        let triples: BTreeSet<_> = report.bug_triples.iter().cloned().collect();
        let bugs: BTreeSet<_> = report
            .bugs
            .iter()
            .map(|b| {
                (
                    format!("{}", b.kind),
                    b.write_label.clone(),
                    b.read_label.clone(),
                )
            })
            .collect();
        (triples, bugs)
    };
    let first = run(7);
    let second = run(7);
    assert_eq!(
        first, second,
        "identically-seeded workers=1 fleet runs diverged"
    );
}
