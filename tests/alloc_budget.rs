//! Allocation budget of a warm campaign.
//!
//! A campaign loop recycles its checker state per exec thread (the
//! session's coverage map, trace rings, shadow stripes and report
//! indices; the checkpoint's pool), so once warm a campaign should
//! allocate only what its outputs, its driver dispatch and the target's
//! own code need. This binary installs a counting global allocator, warms
//! each Table 1 target up with 50 campaigns of the pmrace strategy (2
//! driver threads, checkpoint on) and then bounds the allocator calls per
//! campaign.
//!
//! The bounds sit at about twice the counts measured on a 2-CPU host in
//! release and debug builds (P-CLHT 66-94, clevel 40-45, CCEH 52,
//! FAST-FAIR 47-49, memcached-pmem 110 per campaign) and below a fifth of
//! what each target's campaign allocated while every campaign built its
//! checker state from scratch (1,300-2,100 in a release build,
//! 1,400-3,000 in a debug one). Ledger ingest is not counted: it belongs
//! to the fuzzer, not the campaign.
//!
//! The allocator counts every thread of the process, so this binary holds
//! exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pmrace::core::explore::{ExploreConfig, Explorer};
use pmrace::core::{CampaignConfig, StrategyKind};

/// Counts allocator calls that hand out memory (`alloc`, `alloc_zeroed`,
/// `realloc`); frees are not counted.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: usize = 50;
const MEASURED: u64 = 100;

#[test]
fn warm_campaigns_stay_within_their_allocation_budget() {
    pmrace::register_builtins();
    let budgets = [
        ("P-CLHT", 200),
        ("clevel", 100),
        ("CCEH", 120),
        ("FAST-FAIR", 120),
        ("memcached-pmem", 250),
    ];
    let mut over = Vec::new();
    for (target, budget) in budgets {
        let spec = pmrace::resolve_target(target).unwrap();
        let cfg = ExploreConfig {
            strategy: StrategyKind::Pmrace,
            use_checkpoint: true,
            campaign: CampaignConfig {
                threads: 2,
                deadline: Duration::from_millis(600),
                ..CampaignConfig::default()
            },
            ..ExploreConfig::default()
        };
        let mut explorer = Explorer::new(spec, cfg, 7).unwrap();
        for _ in 0..WARMUP {
            explorer.step().unwrap();
        }
        let mut calls = 0;
        for _ in 0..MEASURED {
            let before = CALLS.load(Ordering::Relaxed);
            let outcome = explorer.step().unwrap();
            calls += CALLS.load(Ordering::Relaxed) - before;
            drop(outcome);
        }
        let per_campaign = calls / MEASURED;
        println!("{target}: {per_campaign} allocations per warm campaign (budget {budget})");
        if per_campaign > budget {
            over.push(format!("{target}: {per_campaign} > {budget}"));
        }
    }
    assert!(over.is_empty(), "over the allocation budget: {over:?}");
}
