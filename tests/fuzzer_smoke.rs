//! Smoke-level integration of the whole fuzzer on every target: short runs
//! must complete, produce coverage, and never panic.

use std::time::Duration;

use pmrace::core::BugKind;
use pmrace::{all_targets, FuzzConfig, Fuzzer, StrategyKind};

fn quick_cfg(target: &str) -> FuzzConfig {
    pmrace::register_builtins();
    let mut cfg = FuzzConfig::new(target);
    cfg.max_campaigns = 6;
    cfg.wall_budget = Duration::from_secs(20);
    cfg.workers = 2;
    cfg.threads = 2;
    cfg.campaign_deadline = Duration::from_millis(300);
    cfg
}

#[test]
fn every_target_fuzzes_cleanly() {
    for spec in all_targets() {
        let report = Fuzzer::new(quick_cfg(spec.name)).unwrap().run().unwrap();
        assert!(report.campaigns >= 1, "{}: no campaigns ran", spec.name);
        assert!(report.branches > 0, "{}: no branch coverage", spec.name);
        assert_eq!(report.coverage_timeline.len(), report.campaigns);
        assert!(report.execs_per_sec > 0.0);
    }
}

#[test]
fn delay_injection_baseline_runs() {
    let mut cfg = quick_cfg("P-CLHT");
    cfg.strategy = StrategyKind::Delay { max_delay_us: 200 };
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();
    assert!(report.campaigns >= 1);
}

#[test]
fn systematic_baseline_runs() {
    let mut cfg = quick_cfg("clevel");
    cfg.strategy = StrategyKind::Systematic;
    cfg.max_campaigns = 3;
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();
    assert!(report.campaigns >= 1);
}

/// The serialization baseline makes no `Hang` of its own: on every Table 1
/// target, for seeds 1-3, no campaign hangs except on P-CLHT's planted
/// leaked lock (Table 2 row 5, a missing unlock in `update`). clevel's
/// `expand_lock` is a volatile lock taken through `spin_until`: a token
/// holder that waits for it reports a spin and passes the token on,
/// instead of blocking in the OS while the lock holder waits for the token
/// until the deadline.
#[test]
fn systematic_campaigns_do_not_hang() {
    for spec in all_targets() {
        for seed in 1..=3 {
            let mut cfg = quick_cfg(spec.name);
            cfg.strategy = StrategyKind::Systematic;
            cfg.workers = 1;
            cfg.max_campaigns = 30;
            cfg.wall_budget = Duration::from_secs(600);
            cfg.campaign_deadline = Duration::from_secs(5);
            cfg.rng_seed = seed;
            let report = Fuzzer::new(cfg).unwrap().run().unwrap();
            let row = format!("{} seed {seed}", spec.name);
            assert_eq!(report.campaigns, 30, "{row}");
            let hang = report.bugs.iter().find(|b| b.kind == BugKind::Hang);
            let Some(hang) = hang else {
                assert_eq!(report.stats.hangs, 0, "{row}");
                continue;
            };
            let seed = hang.seed_text.as_deref().unwrap_or_default();
            assert!(
                spec.name == "P-CLHT" && seed.contains("update"),
                "{row}: systematic campaigns hung on seed {seed:?}"
            );
        }
    }
}

#[test]
fn ablation_modes_run() {
    for (ie, se) in [(false, true), (true, false)] {
        let mut cfg = quick_cfg("P-CLHT");
        cfg.enable_interleaving_tier = ie;
        cfg.enable_seed_tier = se;
        cfg.workers = 1;
        let report = Fuzzer::new(cfg).unwrap().run().unwrap();
        assert!(
            report.campaigns >= 1,
            "ablation ie={ie} se={se} ran nothing"
        );
    }
}

#[test]
fn corpus_dir_persists_and_reloads_seeds() {
    let dir = std::env::temp_dir().join(format!("pmrace-corpus-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = quick_cfg("clevel");
    cfg.corpus_dir = Some(dir.clone());
    cfg.max_campaigns = 4;
    let _ = Fuzzer::new(cfg).unwrap().run().unwrap();
    let corpus = pmrace::core::corpus::CorpusDir::open(&dir).unwrap();
    assert!(
        !corpus.is_empty().unwrap(),
        "coverage-improving seeds must be saved"
    );
    // A second run consumes the saved corpus without error.
    let mut cfg2 = quick_cfg("clevel");
    cfg2.corpus_dir = Some(dir.clone());
    cfg2.max_campaigns = 2;
    let report = Fuzzer::new(cfg2).unwrap().run().unwrap();
    assert!(report.campaigns >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_checkpoint_mode_runs() {
    let mut cfg = quick_cfg("CCEH");
    cfg.use_checkpoint = false;
    cfg.max_campaigns = 3;
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();
    assert!(report.campaigns >= 1);
}
