//! The replay regression gate: every checked-in repro artifact in
//! `repros/` must still re-trigger its recorded bug.
//!
//! The corpus covers the paper's 14 Table 2 bugs plus the 6 lock-free
//! suite bugs (built and delta-debug minimized by
//! `repro corpus repros/ --minimize`). A failure here means a change
//! broke either a detector (the bug no longer fires), a target (the
//! seeded bug is gone), or the replayer itself — all regressions.

use pmrace::replay::{replay_corpus, ReplayOptions, ReproStore};
use pmrace::telemetry::{self, metrics::counter, Counter};

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

/// Two of the three strict artifacts outlive their recorded schedule: the
/// owner of the cursor's slot (t1) finishes while every other driver
/// thread waits at a later slot. Their replays must diverge where every
/// live thread is parked, naming the earliest-parked waiter (t0), and
/// still re-trigger on the ungated rest of the campaign. Checked on the
/// corpus replay below rather than by a second replay running beside it.
const STRICT_DIVERGENCES: [(&str, &str); 2] = [
    (
        "Inter:btree.h:560.store_sibling:",
        "cursor stuck at slot 32/37 (next expected: load btree.h:876.read_sibling by t1); \
         t0 at btree.h:876.read_sibling",
    ),
    (
        "Inter:clht_lb_res.c:785.swap_ht_off:",
        "cursor stuck at slot 35/106 (next expected: load clht_lb_res.c:417.read_ht_off by t1); \
         t0 at clht_lb_res.c:785.swap_ht_off",
    ),
];

#[test]
fn every_corpus_artifact_retriggers_its_bug() {
    telemetry::set_enabled(true);
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
    for (key_prefix, at) in STRICT_DIVERGENCES {
        let result = results
            .iter()
            .find(|r| r.key.starts_with(key_prefix))
            .unwrap_or_else(|| panic!("no {key_prefix} artifact in the corpus"));
        let why = result
            .divergence
            .as_deref()
            .unwrap_or_else(|| panic!("{} replayed without diverging", result.path.display()));
        assert!(why.starts_with("all live driver threads parked"), "{why}");
        assert!(why.contains(at), "{why}");
    }
    // The `Hang` artifact's leaked P-CLHT bucket lock is judged the moment
    // its only driver waits on it, not after the yield-credit budget.
    assert!(
        counter(Counter::ExecHangsAllWaiting) >= 1,
        "no hang was judged by the all-waiting rule"
    );
    assert_eq!(
        counter(Counter::ExecHangsSpinBudget),
        0,
        "a replayed hang fell back to the yield-credit budget"
    );
}
