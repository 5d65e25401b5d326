//! End-to-end checks of the observability layer: a real fuzzing run with
//! telemetry enabled must emit a schema-valid `telemetry.json` whose
//! numbers are consistent with the `FuzzReport`, and phase totals must be
//! plausible against wall-clock time. The pool-start counters also guard
//! the Fig. 10 no-checkpoint baseline: without checkpoints every campaign
//! formats a new pool.
//!
//! The telemetry registry is process-global, so this file keeps everything
//! in ONE test function (each `tests/*.rs` file is its own process, which
//! isolates us from the rest of the suite).

use std::time::Duration;

use pmrace::telemetry;
use pmrace::{FuzzConfig, Fuzzer};

fn tmpdir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("pmrace-telemetry-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn fuzz_run_emits_schema_valid_consistent_telemetry() {
    let dir = tmpdir();
    pmrace::register_builtins();
    let mut cfg = FuzzConfig::new("P-CLHT");
    cfg.max_campaigns = 6;
    cfg.workers = 2;
    cfg.threads = 2;
    cfg.wall_budget = Duration::from_secs(30);
    cfg.campaign_deadline = Duration::from_millis(300);
    cfg.telemetry_dir = Some(dir.clone());
    let wall = std::time::Instant::now();
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();
    let wall_us = wall.elapsed().as_micros() as u64;

    // The snapshot file exists and validates against the documented schema
    // (every cataloged name present, no stray names, well-formed shapes).
    let text = std::fs::read_to_string(dir.join("telemetry.json")).unwrap();
    telemetry::snapshot::validate_snapshot_text(&text).unwrap();
    let snap = telemetry::Snapshot::capture(&|_| None);
    let c = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("counter {name}"))
    };

    // Counter consistency with the FuzzReport. exec.campaigns counts every
    // finished campaign in the process — at least the report's (validation
    // and checkpoint sessions execute outside campaign accounting).
    assert!(report.campaigns >= 1);
    assert!(
        c("exec.campaigns") >= report.campaigns as u64,
        "exec.campaigns {} < report.campaigns {}",
        c("exec.campaigns"),
        report.campaigns
    );
    let pm_total =
        c("pm.loads") + c("pm.stores") + c("pm.ntstores") + c("pm.flushes") + c("pm.fences");
    assert!(
        pm_total >= report.pm_accesses,
        "telemetry pm total {pm_total} < report pm_accesses {}",
        report.pm_accesses
    );
    assert!(c("pm.loads") > 0);
    assert!(c("pm.flushes") > 0);
    assert!(c("checkpoint.creates") >= 1);

    // Phase totals vs wall clock: the summed execution total cannot exceed
    // wall * workers (each worker runs campaigns sequentially).
    let exec = snap.phase("execution").expect("execution phase present");
    assert!(
        exec.count >= report.campaigns as u64,
        "execution spans {} < campaigns {}",
        exec.count,
        report.campaigns
    );
    assert!(exec.total_us > 0);
    assert!(
        exec.total_us <= wall_us.saturating_mul(2).max(1),
        "execution total {}us exceeds wall {wall_us}us x 2 workers",
        exec.total_us
    );
    let restore = snap.phase("checkpoint_restore").unwrap();
    assert_eq!(restore.count, c("checkpoint.restores"));
    // With checkpoints on, only each worker's first campaign starts on an
    // empty pool, and it takes the spare pool instead of formatting one.
    assert_eq!(snap.phase("pool_start").unwrap().count, c("exec.campaigns"));
    assert_eq!(c("exec.pool_formats"), 0);
    let spare_starts = c("exec.spare_resets") + c("exec.spare_fresh");
    assert!(
        (1..=2).contains(&spare_starts),
        "{spare_starts} spare starts for 2 workers"
    );
    let emit = snap.phase("report_emit").unwrap();
    assert_eq!(emit.count, 1, "exactly one report was emitted");

    // The trace file is present with a meta line and parseable span lines.
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    let mut lines = trace.lines();
    let meta = lines.next().expect("meta line");
    assert!(meta.contains("\"type\": \"meta\""), "{meta}");
    let spans = lines.count();
    assert!(spans > 0, "at least one span buffered");

    let _ = std::fs::remove_dir_all(&dir);

    // The Fig. 10 no-checkpoint baseline formats a new pool for every
    // campaign, so the ablation cannot silently become as cheap as the
    // checkpointed run.
    let counter = telemetry::metrics::counter;
    let (campaigns, formats) = (
        counter(telemetry::Counter::ExecCampaigns),
        counter(telemetry::Counter::ExecPoolFormats),
    );
    let mut cfg = FuzzConfig::new("P-CLHT");
    cfg.max_campaigns = 6;
    cfg.workers = 1;
    cfg.threads = 2;
    cfg.use_checkpoint = false;
    cfg.wall_budget = Duration::from_secs(30);
    cfg.campaign_deadline = Duration::from_millis(300);
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();
    let ran = counter(telemetry::Counter::ExecCampaigns) - campaigns;
    assert_eq!(ran, report.campaigns as u64);
    assert_eq!(
        counter(telemetry::Counter::ExecPoolFormats) - formats,
        ran,
        "every no-checkpoint campaign formats a new pool"
    );
}
