//! Malformed files read from disk fail with `Err`, never with a panic or a
//! stack-overflow abort.
//!
//! `ReproStore::load_all`, `repro replay` and `repro stats` read repro
//! artifacts and `telemetry.json` snapshots, and `CorpusDir::load_all`
//! reads seed files, that may be truncated by a full disk, damaged in
//! transit, or hand-written. Every checked-in artifact, one freshly
//! emitted snapshot and a set of generated seeds are cut short at regular
//! offsets and have single bytes overwritten at fixed offsets; each
//! variant must load as `Ok` or `Err`. A JSON document nested 100 000
//! levels deep must be an `Err` too.

use std::path::{Path, PathBuf};
use std::time::Duration;

use pmrace::core::corpus::CorpusDir;
use pmrace::replay::{Repro, ReproStore};
use pmrace::telemetry::stats::render_stats;
use pmrace::{FuzzConfig, Fuzzer, OpMutator, Seed};

/// Bytes written over the original at each damaged offset: structural
/// characters, an escape, a digit, and a byte that is never valid UTF-8.
const SUBSTITUTES: [u8; 6] = [b'[', b'{', b'"', b'\\', b'9', 0xFF];

/// Bytes that carry meaning in a seed file: separators, operators, a
/// digit, a letter, a newline, and a byte that is never valid UTF-8.
const SEED_SUBSTITUTES: [u8; 10] = [b':', b';', b'=', b'+', b'-', b' ', b'9', b'x', b'\n', 0xFF];

/// Every truncation (at each 97th byte) and single-byte substitution (at
/// seven offsets spread over the document) of `doc`.
fn damaged(doc: &[u8]) -> Vec<Vec<u8>> {
    damaged_with(doc, 97, &SUBSTITUTES)
}

/// Every truncation at each `step`-th byte and every substitution of a
/// byte from `substitutes` at seven offsets spread over `doc`.
fn damaged_with(doc: &[u8], step: usize, substitutes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..doc.len())
        .step_by(step)
        .map(|cut| doc[..cut].to_vec())
        .collect();
    let n = doc.len();
    for at in [0, 1, n / 7, n / 3, n / 2, n * 5 / 6, n - 1] {
        for &b in substitutes {
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

/// Seed texts in every op form the seed grammars produce (memcached-pmem's
/// grammar adds `incr`/`decr`), with one to three threads.
fn seed_texts() -> Vec<String> {
    pmrace::register_builtins();
    let mut out = Vec::new();
    for spec in pmrace::all_targets() {
        for threads in 1..=3 {
            let mut m = OpMutator::with_hints(threads as u64, threads, 6, spec.hints);
            out.push(m.generate().to_text());
        }
    }
    out
}

#[test]
fn damaged_seeds_parse_as_errors() {
    for text in seed_texts() {
        let seed = Seed::parse(&text).unwrap();
        assert_eq!(Seed::parse(&seed.to_text()).unwrap(), seed, "round trip");
        for variant in damaged_with(text.as_bytes(), 7, &SEED_SUBSTITUTES) {
            let _ = Seed::parse(&String::from_utf8_lossy(&variant));
        }
    }
    assert!(Seed::parse("").is_err());
    assert!(Seed::parse("t0: insert 1=").is_err());
    assert!(Seed::parse("t0: get 99999999999999999999").is_err());
}

#[test]
fn damaged_corpus_files_load_as_errors() {
    // Every damaged variant of every seed becomes one corpus file, plus an
    // empty file, a file that is not UTF-8 and a directory named like a
    // seed. Loading skips what does not parse and keeps the rest.
    let dir = scratch_dir("damaged-corpus");
    let mut parsable = 0;
    let mut n = 0;
    for text in seed_texts() {
        for variant in damaged_with(text.as_bytes(), 7, &SEED_SUBSTITUTES) {
            let ok = std::str::from_utf8(&variant).is_ok_and(|t| Seed::parse(t).is_ok());
            parsable += usize::from(ok);
            std::fs::write(dir.join(format!("seed-damaged-{n:05}.txt")), &variant).unwrap();
            n += 1;
        }
    }
    std::fs::write(dir.join("seed-empty.txt"), "").unwrap();
    std::fs::write(dir.join("seed-binary.txt"), [0xFF, 0xFE, 0x00, b':']).unwrap();
    std::fs::create_dir_all(dir.join("seed-dir.txt")).unwrap();
    let corpus = CorpusDir::open(&dir).unwrap();
    let loaded = corpus.load_all().unwrap();
    assert_eq!(
        loaded.len(),
        parsable,
        "every parsable file, and only those"
    );
    assert!(
        parsable > 0 && parsable < n,
        "{parsable} of {n} variants parse"
    );

    // A fuzzer starting from the damaged corpus runs its campaigns.
    let mut cfg = FuzzConfig::new("memcached-pmem");
    cfg.max_campaigns = 30;
    cfg.threads = 2;
    cfg.wall_budget = Duration::from_secs(20);
    cfg.campaign_deadline = Duration::from_millis(200);
    cfg.corpus_dir = Some(dir.clone());
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();
    assert!(report.campaigns > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
