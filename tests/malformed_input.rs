//! Malformed JSON read from disk fails with `Err`, never with a panic or a
//! stack-overflow abort.
//!
//! `ReproStore::load_all`, `repro replay` and `repro stats` read repro
//! artifacts and `telemetry.json` snapshots that may be truncated by a
//! full disk, damaged in transit, or hand-written. Every checked-in
//! artifact and one freshly emitted snapshot are cut short at every 97th
//! byte and have single bytes overwritten at fixed offsets; each variant
//! must load as `Ok` or `Err`. A document nested 100 000 levels deep must
//! be an `Err` too.

use std::path::{Path, PathBuf};
use std::time::Duration;

use pmrace::replay::{Repro, ReproStore};
use pmrace::telemetry::stats::render_stats;
use pmrace::{FuzzConfig, Fuzzer};

/// Bytes written over the original at each damaged offset: structural
/// characters, an escape, a digit, and a byte that is never valid UTF-8.
const SUBSTITUTES: [u8; 6] = [b'[', b'{', b'"', b'\\', b'9', 0xFF];

/// Every truncation (at each 97th byte) and single-byte substitution (at
/// seven offsets spread over the document) of `doc`.
fn damaged(doc: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..doc.len())
        .step_by(97)
        .map(|cut| doc[..cut].to_vec())
        .collect();
    let n = doc.len();
    for at in [0, 1, n / 7, n / 3, n / 2, n * 5 / 6, n - 1] {
        for &b in &SUBSTITUTES {
            let mut copy = doc.to_vec();
            copy[at] = b;
            out.push(copy);
        }
    }
    out
}

fn deep_nesting() -> String {
    "[".repeat(100_000)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmrace-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn damaged_repro_artifacts_load_as_errors() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("repros");
    let artifacts = ReproStore::open(&corpus).unwrap().load_all().unwrap();
    assert_eq!(artifacts.len(), 20);
    for (path, _) in &artifacts {
        let doc = std::fs::read(path).unwrap();
        for variant in damaged(&doc) {
            // `Ok` is fine (e.g. a digit swapped for another); only a
            // panic or an abort fails the test.
            let _ = Repro::from_json(&String::from_utf8_lossy(&variant));
        }
        let cut = &doc[..doc.len() / 2];
        assert!(
            Repro::from_json(&String::from_utf8_lossy(cut)).is_err(),
            "{}: half an artifact must not load",
            path.display()
        );
    }
    assert!(Repro::from_json(&deep_nesting()).is_err());

    // The store surfaces the same errors for files on disk.
    let dir = scratch_dir("deep-repro");
    std::fs::write(dir.join("deep.json"), deep_nesting()).unwrap();
    let err = ReproStore::open(&dir).unwrap().load_all().unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_telemetry_snapshots_load_as_errors() {
    pmrace::register_builtins();
    let emitted = scratch_dir("telemetry-emit");
    let mut cfg = FuzzConfig::new("clevel");
    cfg.max_campaigns = 2;
    cfg.threads = 2;
    cfg.wall_budget = Duration::from_secs(20);
    cfg.campaign_deadline = Duration::from_millis(200);
    cfg.telemetry_dir = Some(emitted.clone());
    Fuzzer::new(cfg).unwrap().run().unwrap();
    let snapshot = emitted.join("telemetry.json");
    assert!(render_stats(std::slice::from_ref(&snapshot), 5).is_ok());

    let doc = std::fs::read(&snapshot).unwrap();
    let dir = scratch_dir("telemetry-damaged");
    let file = dir.join("telemetry.json");
    for variant in damaged(&doc) {
        std::fs::write(&file, &variant).unwrap();
        let _ = render_stats(std::slice::from_ref(&file), 5);
    }
    std::fs::write(&file, &doc[..doc.len() / 2]).unwrap();
    assert!(render_stats(std::slice::from_ref(&file), 5).is_err());
    std::fs::write(&file, deep_nesting()).unwrap();
    let err = render_stats(&[file], 5).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&emitted);
}
