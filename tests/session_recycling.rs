//! Oracle for session recycling: a campaign on a recycled session must be
//! indistinguishable from the same campaign on a fresh `Session::new`.
//!
//! `run_campaign` keeps each exec thread's last finished session and resets
//! its tables in O(touched) for the next campaign. For every Table 1 target
//! and treiber-stack, deterministic single-driver seeds run twice, every
//! other one with the redundant- and missing-flush checkers armed (the
//! latter reports every granule the pool holds unpersisted at the end):
//!
//! - on a thread whose previous campaign was an unrelated, deliberately
//!   messy one (a two-thread P-CLHT resize with an extra whitelist rule
//!   matching every site and an armed checker), so its tables hold stale
//!   shadow records, thread masks, last-access slots, annotations,
//!   whitelist, checkers and trace;
//! - on a new thread, whose first campaign builds its session fresh.
//!
//! Both must report the same findings (candidates, inconsistencies with
//! their traces and crash images, sync updates, perf issues, hang), the
//! same shared accesses, coverage counts, PM event count and annotation
//! count.
//!
//! The pool start is one more input: the same seeds also run through the
//! target's `init` on the process's formatted spare pool (`PoolStart::Spare`)
//! and on a newly formatted pool (`PoolStart::Format`), and must report the
//! same. Before each spare run, another target's campaign and the
//! validation of its records dirty the spare pool. Before the plain seeds
//! that campaign starts from its checkpoint, so the spare pool is left on
//! the checkpoint's base and its reset to the formatted image is a full
//! copy. Before the armed seeds it starts on the spare pool and one more
//! campaign there ends the dirtying, so the reset is an O(dirty) delta over
//! granules left unpersisted, which the missing-flush checker would report
//! if their metadata survived the reset.
//!
//! The telemetry counters confirm which path each campaign took, and the
//! validation cache is switched off while the spare pool is dirtied, so
//! this binary holds exactly one test.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use pmrace::core::checkpoint::Checkpoint;
use pmrace::core::validate::{validate_inconsistency, validate_sync};
use pmrace::core::{
    run_campaign, set_validation_cache, CampaignConfig, CampaignResult, OpMutator, PoolStart, Seed,
};
use pmrace::runtime::checker::{MissingFlushChecker, RedundantFlushChecker};
use pmrace::telemetry::{self, Counter};
use pmrace::{Op, TargetSpec};

/// FNV-1a of a crash image's bytes: enough to tell two images apart in a
/// digest line.
fn image_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Everything observable about a campaign except its timing.
fn digest(res: &CampaignResult) -> String {
    let f = &res.findings;
    let mut out = String::new();
    let _ = writeln!(out, "hang {}", f.hang);
    for c in &f.candidates {
        let _ = writeln!(out, "candidate {c:?}");
    }
    for r in &f.inconsistencies {
        let image = r.crash_image.as_ref().map(|i| image_hash(i.bytes()));
        let _ = writeln!(
            out,
            "inconsistency {:?} effect {:?} at {}+{} {:?} whitelisted {} image {image:?}\n  trace {:?}",
            r.candidate, r.effect_site, r.effect_off, r.effect_len, r.kind, r.whitelisted, r.trace
        );
    }
    for u in &f.sync_updates {
        let image = u.crash_image.as_ref().map(|i| image_hash(i.bytes()));
        let _ = writeln!(
            out,
            "sync {} at {}+{} init {} by {:?} to {} ({}) image {image:?}",
            u.var_name, u.var_off, u.var_size, u.expected_init, u.store_site, u.new_value, u.tid
        );
    }
    for p in &f.perf_issues {
        let _ = writeln!(out, "perf {p}");
    }
    for e in res.shared.iter() {
        let _ = writeln!(out, "shared {e:?}");
    }
    let _ = writeln!(
        out,
        "coverage {:?} pm_accesses {} annotations {} op_errors {}",
        (res.coverage.alias_pairs(), res.coverage.branches()),
        res.pm_accesses,
        res.annotations,
        res.op_errors,
    );
    out
}

fn oracle_config() -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        deadline: Duration::from_secs(10),
        ..CampaignConfig::default()
    }
}

/// The campaign that dirties a thread's session before the recycled run.
fn dirty_this_thread() {
    let spec = pmrace::resolve_target("P-CLHT")
        .unwrap()
        .with_arm(|session| session.add_checker(Arc::new(RedundantFlushChecker)));
    let ops: Vec<Op> = (1..=160u64)
        .map(|k| Op::Insert { key: k, value: k })
        .collect();
    let cfg = CampaignConfig {
        threads: 2,
        deadline: Duration::from_secs(10),
        extra_whitelist: vec![".".to_owned()],
        ..CampaignConfig::default()
    };
    let res = run_campaign(
        &spec,
        &Seed::from_flat(&ops, 2),
        &cfg,
        None,
        PoolStart::Spare,
    )
    .unwrap();
    assert!(
        res.findings.inconsistencies.iter().all(|r| r.whitelisted),
        "the dirtying rule whitelists every site"
    );
}

/// The campaigns and validation that dirty the spare pool before a spare
/// run: resize-heavy inserts on `other`, started on the spare pool or from
/// `cp`, then every record validated with the verdict cache off, so each
/// recovery run resets the spare pool to a crash image and writes to it.
/// Without `cp`, one more campaign on the spare pool ends it, leaving the
/// pool with that campaign's unpersisted stores and their metadata.
fn dirty_the_spare_pool(other: &TargetSpec, cp: Option<&Checkpoint>) {
    let ops: Vec<Op> = (1..=130u64)
        .map(|k| Op::Insert { key: k, value: k })
        .collect();
    let seed = Seed::from_flat(&ops, 2);
    let cfg = CampaignConfig {
        threads: 2,
        ..oracle_config()
    };
    let run = |start| run_campaign(other, &seed, &cfg, None, start).unwrap();
    let res = run(cp.map_or(PoolStart::Spare, PoolStart::Checkpoint));
    let reuses = telemetry::metrics::counter(Counter::ValidatePoolReuses);
    set_validation_cache(false);
    for rec in &res.findings.inconsistencies {
        let _ = validate_inconsistency(other, rec);
    }
    for upd in &res.findings.sync_updates {
        let _ = validate_sync(other, upd);
    }
    set_validation_cache(true);
    assert!(
        telemetry::metrics::counter(Counter::ValidatePoolReuses) > reuses,
        "{}: no recovery run dirtied the spare pool",
        other.name
    );
    if cp.is_none() {
        run(PoolStart::Spare);
    }
}

/// Deterministic single-driver seeds for `spec`: generated and populating
/// ones from the target's own seed grammar.
fn seeds(spec: &TargetSpec) -> Vec<Seed> {
    let mut out = Vec::new();
    for rng_seed in 1..=3u64 {
        let mut m = OpMutator::with_hints(rng_seed, 1, 40, spec.hints);
        out.push(m.generate());
        out.push(m.populate());
    }
    out
}

fn run_on_new_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

#[test]
fn recycled_sessions_match_fresh_sessions() {
    pmrace::register_builtins();
    pmrace::register_lockfree();
    telemetry::set_enabled(true);
    let counters = || {
        (
            telemetry::metrics::counter(Counter::ExecSessionReuses),
            telemetry::metrics::counter(Counter::ExecSessionFresh),
        )
    };
    let targets = [
        "P-CLHT",
        "clevel",
        "CCEH",
        "FAST-FAIR",
        "memcached-pmem",
        "treiber-stack",
    ];
    let mut compared = 0;
    let mut spare_compared = 0;
    for name in targets {
        let plain = pmrace::resolve_target(name).unwrap();
        let armed = plain.with_arm(|session| {
            session.add_checker(Arc::new(RedundantFlushChecker));
            session.add_checker(Arc::new(MissingFlushChecker));
        });
        let cp = Checkpoint::create(&plain).unwrap();
        let other = pmrace::resolve_target(if name == "P-CLHT" {
            "memcached-pmem"
        } else {
            "P-CLHT"
        })
        .unwrap();
        let other_cp = Checkpoint::create(&other).unwrap();
        for (i, seed) in seeds(&plain).iter().enumerate() {
            let spec = if i % 2 == 0 { &plain } else { &armed };
            let run = || {
                run_campaign(
                    spec,
                    seed,
                    &oracle_config(),
                    None,
                    PoolStart::Checkpoint(&cp),
                )
                .unwrap()
            };

            let (reuses, fresh) = counters();
            let fresh_run = run_on_new_thread(run);
            assert_eq!(
                counters(),
                (reuses, fresh + 1),
                "a new thread's session is fresh"
            );

            let (reuses, fresh) = counters();
            let recycled_run = run_on_new_thread(|| {
                dirty_this_thread();
                run()
            });
            assert_eq!(
                counters(),
                (reuses + 1, fresh + 1),
                "the second campaign on a thread recycles the first one's session"
            );

            if fresh_run.findings.hang {
                // A hang's event count depends on how long the spinner
                // waited; its verdict must still agree.
                assert!(recycled_run.findings.hang, "{name} seed {i}: hang lost");
            } else {
                let (want, got) = (digest(&fresh_run), digest(&recycled_run));
                assert!(
                    want == got,
                    "{name} seed {i}: recycled session differs from a fresh one\n\
                     --- fresh\n{want}--- recycled\n{got}"
                );
                compared += 1;
            }

            let on = |start| run_campaign(spec, seed, &oracle_config(), None, start).unwrap();
            let formatted_run = run_on_new_thread(|| on(PoolStart::Format));
            let spare_run = run_on_new_thread(|| {
                // The armed (odd) seeds run after a campaign that left
                // unpersisted stores on the spare pool.
                dirty_the_spare_pool(&other, (i % 2 == 0).then_some(&other_cp));
                let resets = telemetry::metrics::counter(Counter::ExecSpareResets);
                let run = on(PoolStart::Spare);
                assert_eq!(
                    telemetry::metrics::counter(Counter::ExecSpareResets),
                    resets + 1,
                    "{name} seed {i}: the campaign did not reset the spare pool"
                );
                run
            });
            if formatted_run.findings.hang {
                assert!(spare_run.findings.hang, "{name} seed {i}: hang lost");
                continue;
            }
            let (want, got) = (digest(&formatted_run), digest(&spare_run));
            assert!(
                want == got,
                "{name} seed {i}: the spare pool differs from a new pool\n\
                 --- new pool\n{want}--- spare pool\n{got}"
            );
            spare_compared += 1;
        }
    }
    assert!(compared >= 30, "only {compared} campaigns compared");
    assert!(
        spare_compared >= 30,
        "only {spare_compared} spare-pool campaigns compared"
    );
}
