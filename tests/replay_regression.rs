//! The replay regression gate: every checked-in repro artifact in
//! `repros/` must still re-trigger its recorded bug.
//!
//! The corpus covers the paper's 14 Table 2 bugs plus the 6 lock-free
//! suite bugs (built and delta-debug minimized by
//! `repro corpus repros/ --minimize`). A failure here means a change
//! broke either a detector (the bug no longer fires), a target (the
//! seeded bug is gone), or the replayer itself — all regressions.

use pmrace::replay::{replay_corpus, ReplayOptions, ReproStore};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("repros")
}

/// Corpus shape, checked on the loaded artifacts without replaying them:
/// replay is the next test's job, and two whole-corpus replays running
/// side by side starve each other's free-schedule artifacts on a small
/// host.
#[test]
fn checked_in_corpus_covers_table2_and_the_lockfree_suite() {
    let keys: Vec<String> = ReproStore::open(corpus_dir())
        .unwrap()
        .load_all()
        .unwrap()
        .iter()
        .map(|(_, repro)| repro.signature.key())
        .collect();
    assert_eq!(
        keys.len(),
        20,
        "expected one artifact per corpus bug (14 Table 2 + 6 lock-free), found {}",
        keys.len()
    );
    // Every lock-free structure contributes artifacts.
    for target in ["tstack", "hlist", "msq"] {
        assert!(
            keys.iter().any(|k| k.contains(target)),
            "no {target} artifact in the corpus"
        );
    }
    // The four finding classes are all represented.
    for prefix in ["Inter:", "Intra:", "Sync:", "Candidate:", "Hang"] {
        assert!(
            keys.iter().any(|k| k.starts_with(prefix)),
            "no {prefix} artifact in the corpus"
        );
    }
}

#[test]
fn every_corpus_artifact_retriggers_its_bug() {
    let results = replay_corpus(&corpus_dir(), &ReplayOptions::default()).unwrap();
    let failures: Vec<String> = results
        .iter()
        .filter(|r| !r.matched)
        .map(|r| {
            format!(
                "{} ({}): {}",
                r.key,
                r.path.display(),
                r.divergence.as_deref().unwrap_or("bug did not re-fire")
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} artifacts no longer reproduce:\n{}",
        failures.len(),
        results.len(),
        failures.join("\n")
    );
}
