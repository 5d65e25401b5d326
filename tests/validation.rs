//! Integration tests of the post-failure validation pipeline (§4.4):
//! benign inconsistencies are filtered, real bugs survive, whitelisted
//! sites never reach validation.

use std::sync::Arc;
use std::time::Duration;

use pmrace::core::validate::{validate_inconsistency, validate_sync};
use pmrace::core::{run_campaign, CampaignConfig, PoolStart, Seed, Verdict};
use pmrace::{target_spec, Op, Pool, Session, SessionConfig};
use pmrace_runtime::site_label;

fn insert_seed(n: u64, threads: usize) -> Seed {
    let ops: Vec<Op> = (1..=n).map(|k| Op::Insert { key: k, value: k }).collect();
    Seed::from_flat(&ops, threads)
}

#[test]
fn pclht_sync_bug2_survives_validation_and_hangs_post_restart() {
    let spec = target_spec("P-CLHT").unwrap();
    let cfg = CampaignConfig {
        threads: 1,
        deadline: Duration::from_secs(5),
        ..CampaignConfig::default()
    };
    let res = run_campaign(&spec, &insert_seed(130, 1), &cfg, None, PoolStart::Spare).unwrap();
    let bucket = res
        .findings
        .sync_updates
        .iter()
        .find(|u| u.var_name == "clht.bucket_lock")
        .expect("bucket lock update recorded");
    assert_eq!(validate_sync(&spec, bucket), Verdict::Bug);

    // The consequence (Table 2: "hang"): recover from the crash image and
    // touch the locked bucket — the access must time out.
    let img = bucket.crash_image.as_ref().unwrap();
    let pool = Arc::new(Pool::from_crash_image(img).unwrap());
    let session = Session::new(
        pool,
        SessionConfig {
            deadline: Duration::from_millis(200),
            ..SessionConfig::default()
        },
    );
    let recovered = (spec.recover)(&session).unwrap();
    let view = session.view(pmrace::pmem::ThreadId(0));
    let hung = (1..=64u64).any(|k| {
        matches!(
            recovered.exec(&view, &Op::Insert { key: k, value: 1 }),
            Err(pmrace::runtime::RtError::Timeout)
        )
    });
    assert!(hung, "some bucket must hang behind the never-released lock");
}

#[test]
fn pclht_global_locks_validate_as_false_positives() {
    let spec = target_spec("P-CLHT").unwrap();
    let cfg = CampaignConfig {
        threads: 1,
        deadline: Duration::from_secs(5),
        ..CampaignConfig::default()
    };
    let res = run_campaign(&spec, &insert_seed(130, 1), &cfg, None, PoolStart::Spare).unwrap();
    for name in ["clht.resize_lock", "clht.gc_lock", "clht.table_status"] {
        let upd = res
            .findings
            .sync_updates
            .iter()
            .find(|u| u.var_name == name)
            .unwrap_or_else(|| panic!("{name} update must be recorded by a resize workload"));
        assert_eq!(
            validate_sync(&spec, upd),
            Verdict::ValidatedFp,
            "{name} is reinitialized by recovery and must validate benign"
        );
    }
}

#[test]
fn cceh_bug7_directory_doubling_survives_validation() {
    let spec = target_spec("CCEH").unwrap();
    let cfg = CampaignConfig {
        threads: 1,
        deadline: Duration::from_secs(8),
        ..CampaignConfig::default()
    };
    let res = run_campaign(&spec, &insert_seed(200, 1), &cfg, None, PoolStart::Spare).unwrap();
    let rec = res
        .findings
        .inconsistencies
        .iter()
        .find(|i| site_label(i.candidate.write_site).contains("CCEH.h:165"))
        .expect("directory doubling must raise the bug-7 intra inconsistency");
    assert_eq!(validate_inconsistency(&spec, rec), Verdict::Bug);
}

#[test]
fn clevel_construction_is_whitelisted_not_buggy() {
    let spec = target_spec("clevel").unwrap();
    let res = run_campaign(
        &spec,
        &insert_seed(10, 2),
        &CampaignConfig::default(),
        None,
        PoolStart::Spare,
    )
    .unwrap();
    assert!(!res.findings.inconsistencies.is_empty());
    for rec in &res.findings.inconsistencies {
        assert!(
            rec.whitelisted,
            "clevel construction record not whitelisted: {rec}"
        );
        assert_eq!(validate_inconsistency(&spec, rec), Verdict::WhitelistedFp);
    }
}

#[test]
fn memcached_link_effects_validate_benign_but_value_effects_do_not() {
    let spec = target_spec("memcached-pmem").unwrap();
    let ops: Vec<Op> = (0..80)
        .map(|i| match i % 4 {
            0 => Op::Insert {
                key: (i % 6) + 1,
                value: i + 1,
            },
            1 => Op::Get { key: (i % 6) + 1 },
            2 => Op::Incr {
                key: (i % 6) + 1,
                by: 1,
            },
            _ => Op::Delete { key: (i % 6) + 1 },
        })
        .collect();
    let seed = Seed::from_flat(&ops, 4);
    let mut link_fp = 0;
    let mut value_bug = 0;
    for _ in 0..12 {
        let res = run_campaign(
            &spec,
            &seed,
            &CampaignConfig::default(),
            None,
            PoolStart::Spare,
        )
        .unwrap();
        for rec in &res.findings.inconsistencies {
            let effect = site_label(rec.effect_site);
            let verdict = validate_inconsistency(&spec, rec);
            if effect.contains("store_p_next") || effect.contains("store_n_prev") {
                if verdict == Verdict::ValidatedFp {
                    link_fp += 1;
                }
            } else if (effect.contains("4292") || effect.contains("4293"))
                && verdict == Verdict::Bug
            {
                value_bug += 1;
            }
        }
        if link_fp > 0 && value_bug > 0 {
            break;
        }
    }
    assert!(
        link_fp > 0,
        "index rebuild must validate link-field effects as FPs"
    );
    assert!(
        value_bug > 0,
        "value effects must survive validation as bugs"
    );
}
