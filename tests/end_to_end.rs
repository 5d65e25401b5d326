//! End-to-end integration: the full detection pipeline rediscovers the
//! paper's headline concurrency bugs when the buggy interleaving is forced
//! (deterministic variant of what the fuzzer's interleaving tier does).

use std::sync::Arc;
use std::time::Duration;

use pmrace::core::{run_campaign, CampaignConfig, PoolStart, Seed};
use pmrace::runtime::report::CandidateKind;
use pmrace::sched::{PmraceStrategy, SkipStore, SyncPlan, SyncTuning};
use pmrace::{target_spec, Op};
use pmrace_runtime::site_label;

fn forced_plan(
    recon: &pmrace::core::CampaignResult,
    read_marker: &str,
    write_marker: &str,
) -> Option<SyncPlan> {
    let entry = recon.shared.iter().find(|e| {
        e.load_sites
            .iter()
            .any(|(s, _)| site_label(*s).contains(read_marker))
            && e.store_sites
                .iter()
                .any(|(s, _)| site_label(*s).contains(write_marker))
    })?;
    Some(SyncPlan {
        off: entry.off,
        load_sites: entry
            .load_sites
            .iter()
            .filter(|(s, _)| site_label(*s).contains(read_marker))
            .map(|(s, _)| s.id())
            .collect(),
        store_sites: entry
            .store_sites
            .iter()
            .filter(|(s, _)| site_label(*s).contains(write_marker))
            .map(|(s, _)| s.id())
            .collect(),
        // These targets publish via plain stores; no CAS retry to stall.
        cas_sites: Default::default(),
    })
}

fn hunt(target: &str, seed: &Seed, read_marker: &str, write_marker: &str, rounds: u64) -> bool {
    let spec = target_spec(target).unwrap();
    let cfg = CampaignConfig {
        threads: 4,
        deadline: Duration::from_secs(3),
        ..CampaignConfig::default()
    };
    let recon = run_campaign(&spec, seed, &cfg, None, PoolStart::Spare).unwrap();
    let Some(plan) = forced_plan(&recon, read_marker, write_marker) else {
        panic!("recon did not surface the {write_marker} -> {read_marker} address");
    };
    for round in 0..rounds {
        let strategy = Arc::new(PmraceStrategy::new(
            plan.clone(),
            4,
            Arc::new(SkipStore::new()),
            SyncTuning::default(),
            round,
        ));
        let res = run_campaign(&spec, seed, &cfg, Some(strategy), PoolStart::Spare).unwrap();
        let hit = res.findings.inconsistencies.iter().any(|i| {
            i.candidate.kind == CandidateKind::Inter
                && site_label(i.candidate.write_site).contains(write_marker)
                && site_label(i.candidate.read_site).contains(read_marker)
        });
        if hit {
            return true;
        }
    }
    false
}

#[test]
fn pclht_resize_race_bug1_detected() {
    let ops: Vec<Op> = (0..96)
        .map(|i| Op::Insert {
            key: (i % 48) + 1,
            value: i + 1,
        })
        .collect();
    let seed = Seed::from_flat(&ops, 4);
    assert!(
        hunt("P-CLHT", &seed, "417", "785", 10),
        "bug 1 (insert through unflushed table pointer) not detected"
    );
}

#[test]
fn fastfair_split_race_bug8_detected() {
    let ops: Vec<Op> = (0..96)
        .map(|i| Op::Insert {
            key: (i * 7 % 48) + 1,
            value: i + 1,
        })
        .collect();
    let seed = Seed::from_flat(&ops, 4);
    assert!(
        hunt("FAST-FAIR", &seed, "876", "560", 20),
        "bug 8 (insert through unflushed sibling pointer) not detected"
    );
}

#[test]
fn memcached_value_race_bugs_9_10_detected() {
    // Hot keys + read-modify-writes: incr reads values that set leaves
    // unflushed (the missing-flush window behind bugs 9/10).
    let ops: Vec<Op> = (0..96)
        .map(|i| match i % 3 {
            0 => Op::Insert {
                key: (i % 4) + 1,
                value: i + 1,
            },
            1 => Op::Incr {
                key: (i % 4) + 1,
                by: 1,
            },
            _ => Op::Get { key: (i % 4) + 1 },
        })
        .collect();
    let seed = Seed::from_flat(&ops, 4);
    let spec = target_spec("memcached-pmem").unwrap();
    let cfg = CampaignConfig {
        threads: 4,
        deadline: Duration::from_secs(3),
        ..CampaignConfig::default()
    };
    let mut found = false;
    for _round in 0..10 {
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
        found = res.findings.inconsistencies.iter().any(|i| {
            site_label(i.candidate.read_site).contains("2805")
                && (site_label(i.effect_site).contains("4292")
                    || site_label(i.effect_site).contains("4293"))
        });
        if found {
            break;
        }
    }
    assert!(
        found,
        "bugs 9/10 (value written from unflushed value) not detected"
    );
}
