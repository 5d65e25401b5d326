//! Integration of the reporting pipeline: fuzz → unique bugs → report
//! files → seed replay reproduces the finding.

use std::time::Duration;

use pmrace::core::report_io;
use pmrace::core::{run_campaign, CampaignConfig, PoolStart};
use pmrace::{target_spec, FuzzConfig, Fuzzer, Seed};

#[test]
fn reports_round_trip_through_replay() {
    pmrace::register_builtins();
    let mut cfg = FuzzConfig::new("P-CLHT");
    cfg.max_campaigns = 60;
    cfg.wall_budget = Duration::from_secs(30);
    cfg.workers = 4;
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();
    assert!(!report.bugs.is_empty(), "P-CLHT must yield bugs quickly");

    let dir = std::env::temp_dir().join(format!("pmrace-reports-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let paths = report_io::write_reports(&dir, &report).unwrap();
    assert_eq!(paths.len(), report.bugs.len());

    // Every report's seed must parse and replay cleanly.
    let spec = target_spec("P-CLHT").unwrap();
    let mut replayed = 0;
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let Some(seed_text) = text.rsplit("driver thread):\n").next() else {
            continue;
        };
        let Ok(seed) = Seed::parse(seed_text) else {
            continue; // bugs recorded without a seed (e.g. hang-only text)
        };
        let cfg = CampaignConfig {
            threads: seed.num_threads(),
            deadline: Duration::from_secs(2),
            ..CampaignConfig::default()
        };
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
        // Replays are not deterministic interleaving-wise, but the seed
        // must at least execute and exercise the checkers.
        assert!(res.duration > Duration::ZERO);
        replayed += 1;
    }
    assert!(replayed > 0, "at least one report seed must replay");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inter_bug_reports_carry_diagnostics() {
    pmrace::register_builtins();
    let mut cfg = FuzzConfig::new("P-CLHT");
    cfg.max_campaigns = 120;
    cfg.wall_budget = Duration::from_secs(45);
    cfg.workers = 4;
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();
    if let Some(bug) = report
        .bugs
        .iter()
        .find(|b| b.kind == pmrace::core::BugKind::Inter)
    {
        let text = report_io::render_report(bug);
        assert!(text.contains("write code:"), "{text}");
        assert!(
            text.contains("785"),
            "inter bug names the writing store: {text}"
        );
        assert!(
            text.contains("recent PM accesses"),
            "trace block attached: {text}"
        );
        assert!(text.contains("triggering seed"));
    }
}
