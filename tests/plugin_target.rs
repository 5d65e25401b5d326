//! End-to-end proof of the plugin boundary (the tentpole of the target-API
//! extraction): a workload the workspace has never heard of — the
//! persistent MPSC queue in `examples/mpsc_queue/target.rs` — is
//! registered purely through the public `pmrace` facade, fuzzed with the
//! stock fuzzer, has its two planted inter-thread inconsistencies found
//! *and* post-failure-validated, and records repro artifacts that replay
//! through `pmrace-replay`'s registry-resolved path.
//!
//! Nothing here touches `crates/core` or the built-in registry: if this
//! test compiles and passes, the target API is genuinely pluggable.

use std::sync::{Arc, Once};
use std::time::Duration;

use pmrace::sched::DelayStrategy;

use pmrace::core::validate::validate_inconsistency;
use pmrace::core::{run_campaign, BugKind, CampaignConfig, PoolStart, Verdict};
use pmrace::replay::{replay, Recorder, ReplayOptions, ReproStore};
use pmrace::{FuzzConfig, Fuzzer, Op, Seed};

#[path = "../examples/mpsc_queue/target.rs"]
mod target;

/// All tests in this binary share one process-global registry.
fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| pmrace::register_target(target::SPEC).expect("unique name"));
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pmrace-plugin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A contended enqueue/dequeue mix across 4 threads: producers race the
/// consumer on `TAIL` and on slot payloads.
fn contended_seed() -> Seed {
    let ops: Vec<Op> = (0..48u64)
        .map(|i| match i % 3 {
            0 | 1 => Op::Insert {
                key: 1 + i % 4,
                value: i % 13 + 1,
            },
            _ => Op::Delete { key: 1 + i % 4 },
        })
        .collect();
    Seed::from_flat(&ops, 4)
}

/// The registry is the only integration point: resolving the plugin by
/// name works, and the spec round-trips with its custom seed grammar.
#[test]
fn plugin_resolves_by_name_with_its_grammar() {
    register();
    let spec = pmrace::resolve_target("mpsc-queue").expect("registered via public API");
    assert_eq!(spec.name, "mpsc-queue");
    assert_eq!(spec.hints.weights.update, 0, "queues have no keyed update");
    assert!(pmrace::api::all_targets()
        .iter()
        .any(|s| s.name == "mpsc-queue"));
}

/// The plugin's `init` persists everything it stores, so it gets a
/// checkpoint, and its recovery path reopens the checkpoint's pool.
#[test]
fn plugin_creates_a_checkpoint() {
    register();
    let spec = pmrace::resolve_target("mpsc-queue").unwrap();
    let cp = pmrace::core::checkpoint::Checkpoint::create(&spec).expect("checkpoint");
    let session = pmrace::Session::new(cp.acquire(), pmrace::SessionConfig::default());
    let target = (spec.recover)(&session).expect("recovery opens the checkpoint");
    let view = session.view(pmrace::pmem::ThreadId(0));
    let op = Op::Insert { key: 1, value: 2 };
    assert!(target.exec(&view, &op).is_ok());
}

/// Both planted bugs are detected by a direct campaign and survive
/// post-failure validation: recovery rewinds the cursors but never heals
/// the durable log cells. Delay injection overlaps the consumer with the
/// producers (a strategy-less run can drain the consumer thread before
/// any producer publishes).
#[test]
fn both_planted_bugs_validate_as_bugs() {
    register();
    let spec = pmrace::resolve_target("mpsc-queue").unwrap();
    let cfg = CampaignConfig {
        threads: 4,
        deadline: Duration::from_secs(5),
        ..CampaignConfig::default()
    };
    let seed = contended_seed();
    let mut tail_bug = false;
    let mut slot_bug = false;
    for round in 0..20u64 {
        let strategy: Arc<dyn pmrace::runtime::strategy::InterleaveStrategy> =
            Arc::new(DelayStrategy::new(Duration::from_micros(200), round));
        let res = run_campaign(&spec, &seed, &cfg, Some(strategy), PoolStart::Spare).unwrap();
        for rec in &res.findings.inconsistencies {
            let write = pmrace::runtime::site_label(rec.candidate.write_site);
            let is_tail = write.contains("mpsc_queue.c:88");
            let is_slot = write.contains("mpsc_queue.c:97");
            if (is_tail && !tail_bug || is_slot && !slot_bug)
                && validate_inconsistency(&spec, rec) == Verdict::Bug
            {
                tail_bug |= is_tail;
                slot_bug |= is_slot;
            }
        }
        if tail_bug && slot_bug {
            break;
        }
    }
    assert!(tail_bug, "unflushed-tail inconsistency validates as a bug");
    assert!(slot_bug, "unflushed-slot inconsistency validates as a bug");
}

/// The stock fuzzer, pointed at the plugin by name, finds both planted
/// bugs and records repro artifacts that replay through the
/// registry-resolved `pmrace-replay` path.
#[test]
fn fuzzer_finds_plugin_bugs_and_repros_replay() {
    register();
    let dir = tmpdir("e2e");
    let recorder = Recorder::new("mpsc-queue", ReproStore::open(&dir).unwrap());
    let mut cfg = FuzzConfig::new("mpsc-queue");
    cfg.workers = 2;
    cfg.threads = 4;
    cfg.max_campaigns = 300;
    cfg.wall_budget = Duration::from_secs(60);
    cfg.rng_seed = 11;
    cfg.record = Some(recorder.sink());
    let report = Fuzzer::new(cfg).unwrap().run().unwrap();

    assert_eq!(report.target, "mpsc-queue");
    let planted = |label: &str| {
        report
            .bugs
            .iter()
            .find(|b| b.write_label.contains(label))
            .unwrap_or_else(|| panic!("planted bug {label} not in {:?}", report.bugs))
    };
    let tail = planted("mpsc_queue.c:88");
    assert_eq!(tail.kind, BugKind::Inter);
    assert_eq!(tail.verdict, Verdict::Bug);
    assert!(tail.effect_label.contains("mpsc_queue.c:138"));
    let slot = planted("mpsc_queue.c:97");
    assert_eq!(slot.kind, BugKind::Inter);
    assert_eq!(slot.verdict, Verdict::Bug);
    assert!(slot.effect_label.contains("mpsc_queue.c:149"));

    // The recorder captured artifacts for the findings; each one names
    // the plugin target and replays through the public pipeline.
    assert!(recorder.recorded() > 0, "new findings must be recorded");
    assert!(recorder.errors().is_empty(), "{:?}", recorder.errors());
    let stored = recorder.store().load_all().unwrap();
    let mut matched = 0usize;
    let mut attempted = 0usize;
    for (_, repro) in stored.iter().take(4) {
        assert_eq!(repro.target, "mpsc-queue");
        attempted += 1;
        let outcome = replay(repro, &ReplayOptions::default()).unwrap();
        if outcome.matched {
            matched += 1;
        }
    }
    assert!(attempted > 0);
    assert!(
        matched > 0,
        "at least one plugin repro re-fires under strict replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
