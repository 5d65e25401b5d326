//! Reproduce the paper's motivating example (§2.3.2): the P-CLHT resize
//! race (Bug 1, Table 2).
//!
//! Thread-1 resizes the table and swaps the global table pointer with a
//! plain store (`clht_lb_res.c:785`); thread-2 reads the *unflushed*
//! pointer (`:417`) and inserts a key-value item into the new table. If a
//! crash hits after the item persists but before the pointer flush, the
//! recovered (old) table does not contain the item: silent data loss.
//!
//! This example forces the exact interleaving with the Fig. 6 scheduler
//! (the way PMRace's interleaving tier would once the priority queue
//! surfaces the table-pointer address), shows the detected inconsistency,
//! and then *demonstrates the data loss* by recovering from the captured
//! crash image and looking the inserted keys up.

use std::sync::Arc;
use std::time::Duration;

use pmrace::core::{run_campaign, CampaignConfig, PoolStart, Seed};
use pmrace::sched::{PmraceStrategy, SkipStore, SyncPlan, SyncTuning};
use pmrace::{target_spec, Op, Pool, Session, SessionConfig};
use pmrace_runtime::report::CandidateKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = target_spec("P-CLHT").expect("bundled target");
    // Insert-heavy workload over 4 threads: enough distinct keys to trigger
    // a resize mid-campaign.
    let ops: Vec<Op> = (0..96)
        .map(|i| Op::Insert {
            key: (i % 48) + 1,
            value: i + 1,
        })
        .collect();
    let seed = Seed::from_flat(&ops, 4);
    let cfg = CampaignConfig {
        threads: 4,
        deadline: Duration::from_secs(3),
        ..CampaignConfig::default()
    };

    // Recon campaign: find the shared table-pointer address the scheduler
    // should target (this is what the priority queue does automatically).
    println!("recon campaign to locate the shared table pointer...");
    let recon = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare)?;
    let entry = recon
        .shared
        .iter()
        .find(|e| {
            e.load_sites
                .iter()
                .any(|(s, _)| pmrace_runtime::site_label(*s).contains("417"))
                && e.store_sites
                    .iter()
                    .any(|(s, _)| pmrace_runtime::site_label(*s).contains("785"))
        })
        .expect("resize must run in the recon campaign");
    println!("table pointer lives at pool offset {:#x}", entry.off);

    // Force the interleaving: gate the :417 loads until the :785 store.
    let plan = SyncPlan {
        off: entry.off,
        load_sites: entry
            .load_sites
            .iter()
            .filter(|(s, _)| pmrace_runtime::site_label(*s).contains("417"))
            .map(|(s, _)| s.id())
            .collect(),
        store_sites: entry
            .store_sites
            .iter()
            .filter(|(s, _)| pmrace_runtime::site_label(*s).contains("785"))
            .map(|(s, _)| s.id())
            .collect(),
        // The table-pointer swap is a plain store, not a CAS publication.
        cas_sites: Default::default(),
    };
    for round in 0..10u64 {
        let strategy = Arc::new(PmraceStrategy::new(
            plan.clone(),
            4,
            Arc::new(SkipStore::new()),
            SyncTuning::default(),
            round,
        ));
        let res = run_campaign(&spec, &seed, &cfg, Some(strategy), PoolStart::Spare)?;
        let hit = res.findings.inconsistencies.iter().find(|i| {
            i.candidate.kind == CandidateKind::Inter
                && pmrace_runtime::site_label(i.candidate.write_site).contains("785")
        });
        let Some(rec) = hit else { continue };
        println!("\nround {round}: PM Inter-thread Inconsistency detected!");
        println!("  {rec}");

        // Post-failure demonstration: recover from the captured crash
        // image and count the data loss.
        let img = rec.crash_image.as_ref().expect("image captured");
        let pool = Arc::new(Pool::from_crash_image(img)?);
        let session = Session::new(pool, SessionConfig::default());
        let recovered = (spec.recover)(&session)?;
        let view = session.view(pmrace::pmem::ThreadId(0));
        let mut lost = 0;
        for k in 1..=48u64 {
            if recovered.get(&view, k)?.is_none() {
                lost += 1;
            }
        }
        println!(
            "  after crash + recovery, {lost} of 48 keys are missing \
             (items inserted through the unflushed table pointer are lost)"
        );
        assert!(lost > 0, "the bug must manifest as data loss");
        return Ok(());
    }
    Err("bug 1 did not manifest in 10 forced rounds (try again)".into())
}
