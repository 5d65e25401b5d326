//! The regression corpus: recipes that re-trigger each of the paper's 14
//! Table 2 bugs plus the six bugs planted in the lock-free suite
//! (Treiber stack, Harris list, Michael–Scott queue; ids 15–20), record
//! them as repro artifacts, and validate the artifacts by replaying them.
//!
//! A [`Recipe`] is a *deterministic variant* of what the fuzzer does when
//! it finds the bug organically: a workload known to reach the buggy
//! code, an optional forced sync plan (the Fig. 6 conditional-wait
//! scheduler pointed at the racy address, as the interleaving tier would),
//! and a selector that recognizes the finding in the detection ledger.
//! [`build_corpus`] runs every recipe, keeps only captures that *replay
//! successfully*, and stores them — the checked-in `repros/` directory CI
//! replays on every change is produced this way.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmrace_api::Op;
use pmrace_core::schedule::{EventCapture, PlanCapture, ScheduleCapture, StrategyCapture};
use pmrace_core::{run_campaign, BugKind, CampaignConfig, CampaignResult, Ledger, PoolStart, Seed};
use pmrace_runtime::{site_label, RtError, Site};
use pmrace_sched::{
    PmraceStrategy, RecordingStrategy, ScheduleLog, SkipStore, SyncPlan, SyncTuning,
};
use pmrace_targets::target_spec;

use crate::artifact::{BugSignature, Repro};
use crate::replayer::{replay, ReplayOptions};
use crate::store::ReproStore;

/// How a recipe recognizes its bug in a detection ledger.
#[derive(Debug, Clone, Copy)]
pub enum Select {
    /// A validated inconsistency triple, by site-label substrings.
    Triple {
        /// `Inter` or `Intra`.
        kind: BugKind,
        /// Write-site substring (empty matches anything).
        write: &'static str,
        /// Read-site substring.
        read: &'static str,
        /// Effect-site substring.
        effect: &'static str,
    },
    /// A candidate pair that never grew a durable side effect.
    Candidate {
        /// Write-site substring.
        write: &'static str,
        /// Read-site substring.
        read: &'static str,
    },
    /// A synchronization bug, by sync-variable substring.
    Sync(&'static str),
    /// A hang.
    Hang,
}

impl Select {
    /// The signature of the matching finding in `ledger`, if it fired.
    fn pick(&self, ledger: &Ledger) -> Option<(BugSignature, String)> {
        match *self {
            Select::Triple {
                kind,
                write,
                read,
                effect,
            } => ledger
                .bug_triples()
                .iter()
                .find(|(w, r, e)| w.contains(write) && r.contains(read) && e.contains(effect))
                .map(|(w, r, e)| {
                    (
                        BugSignature::triple(&kind.to_string(), w, r, e),
                        format!("{kind} inconsistency: write {w}, read {r}, effect {e}"),
                    )
                }),
            Select::Candidate { write, read } => ledger
                .candidate_only_pairs()
                .iter()
                .find(|(w, r)| w.contains(write) && r.contains(read))
                .map(|(w, r)| {
                    (
                        BugSignature::candidate(w, r),
                        format!("candidate: read of non-persisted data (write {w}, read {r})"),
                    )
                }),
            Select::Sync(var) => ledger
                .bugs()
                .into_iter()
                .find(|b| b.kind == BugKind::Sync && b.write_label.contains(var))
                .map(|b| (BugSignature::from_bug(b), b.description.clone())),
            Select::Hang => ledger
                .bugs()
                .into_iter()
                .find(|b| b.kind == BugKind::Hang)
                .map(|b| (BugSignature::from_bug(b), b.description.clone())),
        }
    }
}

/// One corpus bug: how to trigger, recognize, and record it.
#[derive(Debug, Clone, Copy)]
pub struct Recipe {
    /// Corpus bug number (1–14 = Table 2, 15–20 = lock-free suite).
    pub bug_id: u32,
    /// Target system.
    pub target: &'static str,
    /// Recognition rule.
    pub select: Select,
    /// `(read marker, write marker)`: force a conditional-wait plan on the
    /// shared address recon surfaces for these labels. `None` = the bug
    /// fires under free scheduling.
    pub plan: Option<(&'static str, &'static str)>,
    /// Scheduled rounds to try after the free recon round.
    pub rounds: u64,
    /// Driver threads.
    pub threads: usize,
    /// Campaign deadline.
    pub deadline: Duration,
    /// Workload builder.
    pub seed: fn() -> Seed,
}

fn pclht_resize_seed() -> Seed {
    let ops: Vec<Op> = (0..96)
        .map(|i| Op::Insert {
            key: (i % 48) + 1,
            value: i + 1,
        })
        .collect();
    Seed::from_flat(&ops, 4)
}

fn pclht_single_resize_seed() -> Seed {
    let ops: Vec<Op> = (1..=130u64)
        .map(|k| Op::Insert { key: k, value: k })
        .collect();
    Seed::from_flat(&ops, 1)
}

fn pclht_hot_seed() -> Seed {
    let ops: Vec<Op> = (0..80)
        .map(|i| {
            if i % 2 == 0 {
                Op::Insert {
                    key: (i % 4) + 1,
                    value: i + 1,
                }
            } else {
                Op::Get { key: (i % 4) + 1 }
            }
        })
        .collect();
    Seed::from_flat(&ops, 4)
}

fn pclht_hang_seed() -> Seed {
    Seed::new(vec![vec![
        Op::Insert { key: 1, value: 1 },
        Op::Update { key: 1, value: 1 },
        Op::Insert { key: 1, value: 3 },
    ]])
}

fn cceh_seed() -> Seed {
    let ops: Vec<Op> = (1..=64u64)
        .map(|k| Op::Insert { key: k, value: k })
        .collect();
    Seed::from_flat(&ops, 4)
}

fn cceh_single_resize_seed() -> Seed {
    let ops: Vec<Op> = (1..=200u64)
        .map(|k| Op::Insert { key: k, value: k })
        .collect();
    Seed::from_flat(&ops, 1)
}

fn fastfair_seed() -> Seed {
    let ops: Vec<Op> = (0..96)
        .map(|i| Op::Insert {
            key: (i * 7 % 48) + 1,
            value: i + 1,
        })
        .collect();
    Seed::from_flat(&ops, 4)
}

fn memkv_mixed_seed() -> Seed {
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
    Seed::from_flat(&ops, 4)
}

/// Distinct-key churn past `MAX_ITEMS`, forcing LRU evictions, mixed with
/// hot-key traffic that relinks items — the workloads behind the
/// memcached LRU/slab bugs (11, 12, 14) and P-CLHT/memkv update races.
fn memkv_churn_seed() -> Seed {
    let ops: Vec<Op> = (0..160)
        .map(|i| match i % 4 {
            0 | 1 => Op::Insert {
                key: i + 100,
                value: i,
            },
            2 => Op::Get { key: (i % 8) + 100 },
            _ => Op::Insert {
                key: (i % 8) + 100,
                value: i,
            },
        })
        .collect();
    Seed::from_flat(&ops, 4)
}

/// The lock-free suite targets split driver roles by thread id: thread 0
/// consumes (pop/dequeue/get/delete), every other thread produces
/// (push/enqueue/insert). These builders hand each role its own op list
/// so the planted bugs are inter-thread by construction.
fn lockfree_seed(consumer: Vec<Op>, producer_rounds: u64) -> Seed {
    let producer = |salt: u64| -> Vec<Op> {
        (0..producer_rounds)
            .map(|i| Op::Insert {
                key: ((i + salt) % 3) + 1,
                value: i + 1,
            })
            .collect()
    };
    Seed::new(vec![consumer, producer(0), producer(1), producer(2)])
}

/// Treiber stack: three pushers on hot keys, one popper (with the odd
/// peek) racing the unflushed `TOP` and payloads.
fn lockfree_stack_seed() -> Seed {
    let consumer = (0..24u64)
        .map(|i| {
            if i % 6 == 5 {
                Op::Get { key: 1 }
            } else {
                Op::Delete { key: 1 }
            }
        })
        .collect();
    lockfree_seed(consumer, 16)
}

/// Harris list: three inserters traversing (and helping) while thread 0
/// alternates lookups (racy payload reads) and deletions (unfenced
/// marks).
fn lockfree_list_seed() -> Seed {
    let consumer = (0..24u64)
        .map(|i| {
            if i % 2 == 0 {
                Op::Get { key: (i % 3) + 1 }
            } else {
                Op::Delete { key: (i % 3) + 1 }
            }
        })
        .collect();
    lockfree_seed(consumer, 16)
}

/// Michael–Scott queue: three enqueuers racing each other through the
/// two-CAS window (the helping path needs ≥2 producers) while thread 0
/// dequeues.
fn lockfree_queue_seed() -> Seed {
    let consumer = (0..24u64)
        .map(|i| {
            if i % 6 == 5 {
                Op::Get { key: 1 }
            } else {
                Op::Delete { key: 1 }
            }
        })
        .collect();
    lockfree_seed(consumer, 16)
}

/// The recipes for the 14 unique Table 2 bugs, in table order, followed
/// by the six planted lock-free-suite bugs (15–20).
#[must_use]
pub fn recipes() -> Vec<Recipe> {
    let s3 = Duration::from_secs(3);
    let s5 = Duration::from_secs(5);
    vec![
        Recipe {
            bug_id: 1,
            target: "P-CLHT",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "785",
                read: "417",
                effect: "",
            },
            plan: Some(("417", "785")),
            rounds: 12,
            threads: 4,
            deadline: s3,
            seed: pclht_resize_seed,
        },
        Recipe {
            bug_id: 2,
            target: "P-CLHT",
            select: Select::Sync("clht.bucket_lock"),
            plan: None,
            rounds: 3,
            threads: 1,
            deadline: s5,
            seed: pclht_single_resize_seed,
        },
        Recipe {
            bug_id: 3,
            target: "P-CLHT",
            select: Select::Triple {
                kind: BugKind::Intra,
                write: "789",
                read: "clht_gc.c:190",
                effect: "gc_log",
            },
            plan: None,
            rounds: 3,
            threads: 1,
            deadline: s5,
            seed: pclht_single_resize_seed,
        },
        Recipe {
            bug_id: 4,
            target: "P-CLHT",
            select: Select::Candidate {
                write: "321",
                read: "616",
            },
            plan: Some(("616", "321")),
            rounds: 12,
            threads: 4,
            deadline: s3,
            seed: pclht_hot_seed,
        },
        Recipe {
            bug_id: 5,
            target: "P-CLHT",
            select: Select::Hang,
            plan: None,
            rounds: 1,
            threads: 1,
            deadline: Duration::from_millis(150),
            seed: pclht_hang_seed,
        },
        Recipe {
            bug_id: 6,
            target: "CCEH",
            select: Select::Sync("cceh.segment_lock"),
            plan: None,
            rounds: 3,
            threads: 4,
            deadline: s3,
            seed: cceh_seed,
        },
        Recipe {
            bug_id: 7,
            target: "CCEH",
            select: Select::Triple {
                kind: BugKind::Intra,
                write: "CCEH.h:165",
                read: "171",
                effect: "",
            },
            plan: None,
            rounds: 3,
            threads: 1,
            deadline: s5,
            seed: cceh_single_resize_seed,
        },
        Recipe {
            bug_id: 8,
            target: "FAST-FAIR",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "560",
                read: "876",
                effect: "",
            },
            plan: Some(("876", "560")),
            rounds: 24,
            threads: 4,
            deadline: s3,
            seed: fastfair_seed,
        },
        Recipe {
            bug_id: 9,
            target: "memcached-pmem",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "",
                read: "2805",
                effect: "4292",
            },
            plan: None,
            rounds: 12,
            threads: 4,
            deadline: s3,
            seed: memkv_mixed_seed,
        },
        Recipe {
            bug_id: 10,
            target: "memcached-pmem",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "",
                read: "2805",
                effect: "4293",
            },
            plan: None,
            rounds: 12,
            threads: 4,
            deadline: s3,
            seed: memkv_mixed_seed,
        },
        Recipe {
            bug_id: 11,
            target: "memcached-pmem",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "",
                read: "items.c:464",
                effect: "items.c:464.store_clsid",
            },
            plan: None,
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: memkv_churn_seed,
        },
        Recipe {
            bug_id: 12,
            target: "memcached-pmem",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "",
                read: "slabs.c:412",
                effect: "store_it_flags",
            },
            plan: None,
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: memkv_churn_seed,
        },
        Recipe {
            bug_id: 13,
            target: "memcached-pmem",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "",
                read: "2824",
                effect: "store_value_header",
            },
            plan: None,
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: memkv_churn_seed,
        },
        Recipe {
            bug_id: 14,
            target: "memcached-pmem",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "",
                read: "items.c:623",
                effect: "items.c:627",
            },
            plan: None,
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: memkv_churn_seed,
        },
        // 15–20: the lock-free persistent data-structure suite. All six
        // are PM inter-thread inconsistencies planted around CAS
        // publication (see `crates/lockfree`).
        Recipe {
            // Treiber stack: pop reads the never-flushed TOP published by
            // a pusher's CAS and durably logs the popped source node.
            bug_id: 15,
            target: "treiber-stack",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "tstack.c:63",
                read: "tstack.c:74",
                effect: "tstack.c:89",
            },
            plan: Some(("tstack.c:74", "tstack.c:63")),
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: lockfree_stack_seed,
        },
        Recipe {
            // Treiber stack: the node payload is a plain store behind the
            // durably-linked node; pop logs the read value.
            bug_id: 16,
            target: "treiber-stack",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "tstack.c:52",
                read: "tstack.c:86",
                effect: "tstack.c:91",
            },
            plan: Some(("tstack.c:86", "tstack.c:52")),
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: lockfree_stack_seed,
        },
        Recipe {
            // Harris list: unflushed payload behind the durable link,
            // observed by a lookup that durably logs what it found.
            bug_id: 17,
            target: "harris-list",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "hlist.c:49",
                read: "hlist.c:103",
                effect: "hlist.c:105",
            },
            plan: Some(("hlist.c:103", "hlist.c:49")),
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: lockfree_list_seed,
        },
        Recipe {
            // Harris list: the logical-deletion mark is clwb'd but never
            // fenced; a helping traversal reads it and durably logs the
            // unlink it completed.
            bug_id: 18,
            target: "harris-list",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "hlist.c:88",
                read: "hlist.c:65",
                effect: "hlist.c:70",
            },
            plan: Some(("hlist.c:65", "hlist.c:88")),
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: lockfree_list_seed,
        },
        Recipe {
            // MS queue: the linking CAS on tail.next is never flushed; a
            // helping producer swings TAIL over the half-linked node and
            // durably logs the repair.
            bug_id: 19,
            target: "ms-queue",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "msq.c:62",
                read: "msq.c:59",
                effect: "msq.c:72",
            },
            plan: Some(("msq.c:59", "msq.c:62")),
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: lockfree_queue_seed,
        },
        Recipe {
            // MS queue: unflushed payload behind the link; the consumer
            // durably logs the dequeued value.
            bug_id: 20,
            target: "ms-queue",
            select: Select::Triple {
                kind: BugKind::Inter,
                write: "msq.c:52",
                read: "msq.c:90",
                effect: "msq.c:95",
            },
            plan: Some(("msq.c:90", "msq.c:52")),
            rounds: 16,
            threads: 4,
            deadline: s3,
            seed: lockfree_queue_seed,
        },
    ]
}

/// One successfully built artifact.
#[derive(Debug)]
pub struct BuiltRepro {
    /// Table 2 bug number.
    pub bug_id: u32,
    /// The recorded signature.
    pub signature: BugSignature,
    /// Where it was stored.
    pub path: std::path::PathBuf,
    /// Rounds it took to capture a replay-validated schedule.
    pub rounds_used: u64,
}

/// Build (or rebuild) the full 20-bug corpus in `dir` (the 14 Table 2
/// bugs plus the six planted lock-free-suite bugs).
///
/// Each recipe runs until a round both *fires* the bug and produces a
/// capture that *replays* (validated before storing) — so everything this
/// function writes is known-reproducible.
///
/// # Errors
///
/// [`RtError::Io`] naming the first bug whose recipe failed to produce a
/// validated artifact within its round budget.
pub fn build_corpus(dir: &Path) -> Result<Vec<BuiltRepro>, RtError> {
    let store = ReproStore::open(dir)?;
    let mut built = Vec::new();
    for recipe in recipes() {
        built.push(build_recipe(&recipe, &store)?);
    }
    Ok(built)
}

/// Run one recipe until it yields a validated, stored artifact.
///
/// # Errors
///
/// [`RtError::Io`] when the bug does not fire (validated) in the budget.
pub fn build_recipe(recipe: &Recipe, store: &ReproStore) -> Result<BuiltRepro, RtError> {
    // Recipes span both suites; make sure every target they name can
    // resolve through the registry.
    pmrace_targets::register_builtins();
    pmrace_lockfree::register_lockfree();
    let spec = target_spec(recipe.target)
        .ok_or_else(|| RtError::Io(format!("unknown target '{}'", recipe.target)))?;
    let seed = (recipe.seed)();
    let cfg = CampaignConfig {
        threads: recipe.threads,
        deadline: recipe.deadline,
        ..CampaignConfig::default()
    };
    let start = Instant::now();
    let free_capture = ScheduleCapture {
        strategy: StrategyCapture::None,
        threads: cfg.threads,
        tuning: SyncTuning::default(),
        eadr: cfg.eadr,
        deadline: cfg.deadline,
        extra_whitelist: cfg.extra_whitelist.clone(),
    };

    // Round 0: free scheduling. Doubles as the recon run that registers
    // sites and surfaces the shared-access table for plan resolution.
    let recon = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare)?;
    let mut ledger = Ledger::new(spec);
    let _ = ledger.ingest_with_seed(&recon, start.elapsed(), Some(&seed));
    if let Some(found) = try_finish(recipe, &ledger, &seed, &free_capture, store, 0)? {
        return Ok(found);
    }

    let plan = match recipe.plan {
        None => None,
        Some((read_marker, write_marker)) => Some(
            forced_plan(&recon, read_marker, write_marker).ok_or_else(|| {
                RtError::Io(format!(
                    "bug {}: recon did not surface the {write_marker} -> {read_marker} address",
                    recipe.bug_id
                ))
            })?,
        ),
    };

    for round in 0..recipe.rounds {
        let mut ledger = Ledger::new(spec);
        let capture = match &plan {
            None => {
                let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare)?;
                let _ = ledger.ingest_with_seed(&res, start.elapsed(), Some(&seed));
                free_capture.clone()
            }
            Some(plan) => {
                let strategy = PmraceStrategy::new(
                    plan.clone(),
                    cfg.threads,
                    Arc::new(SkipStore::new()),
                    SyncTuning::default(),
                    round,
                );
                let skips: Vec<(String, u32)> = strategy
                    .initial_skips()
                    .iter()
                    .map(|(id, n)| (site_label(Site::from_id(*id)).to_owned(), *n))
                    .collect();
                let log = Arc::new(ScheduleLog::new(plan.off));
                let recording =
                    Arc::new(RecordingStrategy::new(Arc::new(strategy), Arc::clone(&log)));
                let res = run_campaign(&spec, &seed, &cfg, Some(recording), PoolStart::Spare)?;
                let _ = ledger.ingest_with_seed(&res, start.elapsed(), Some(&seed));
                let (events, truncated) = log.snapshot();
                ScheduleCapture {
                    strategy: StrategyCapture::Pmrace {
                        plan: PlanCapture {
                            off: plan.off,
                            load_sites: labels_of(&plan.load_sites),
                            store_sites: labels_of(&plan.store_sites),
                            cas_sites: labels_of(&plan.cas_sites),
                        },
                        rng_seed: round,
                        skips,
                        events: events
                            .into_iter()
                            .map(|e| EventCapture {
                                is_load: e.is_load,
                                site: site_label(e.site).to_owned(),
                                tid: e.tid,
                            })
                            .collect(),
                        truncated,
                    },
                    ..free_capture.clone()
                }
            }
        };
        if let Some(found) = try_finish(recipe, &ledger, &seed, &capture, store, round + 1)? {
            return Ok(found);
        }
    }
    Err(RtError::Io(format!(
        "bug {}: did not fire with a replayable capture within {} rounds",
        recipe.bug_id, recipe.rounds
    )))
}

/// If the recipe's bug fired in this round's ledger, build the artifact,
/// validate it by replaying, and store it. `Ok(None)` = keep trying.
fn try_finish(
    recipe: &Recipe,
    ledger: &Ledger,
    seed: &Seed,
    capture: &ScheduleCapture,
    store: &ReproStore,
    round: u64,
) -> Result<Option<BuiltRepro>, RtError> {
    let Some((signature, description)) = recipe.select.pick(ledger) else {
        return Ok(None);
    };
    let repro = Repro::from_capture(
        recipe.target,
        signature.clone(),
        &description,
        &seed.to_text(),
        capture,
    );
    let validation = replay(&repro, &ReplayOptions::default())?;
    if !validation.matched {
        // The bug fired but this capture does not replay — a later round
        // (different RNG seed / skips) may produce a sturdier one.
        return Ok(None);
    }
    let path = store.save(&repro)?;
    Ok(Some(BuiltRepro {
        bug_id: recipe.bug_id,
        signature,
        path,
        rounds_used: round,
    }))
}

/// The deterministic-variant plan builder the end-to-end tests use: the
/// first recon shared-access entry whose loads/stores match the markers.
fn forced_plan(recon: &CampaignResult, read_marker: &str, write_marker: &str) -> Option<SyncPlan> {
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
        // Every CAS observed on the granule becomes a retry decision
        // point: stalling failed attempts widens the racy window the plan
        // is trying to hit.
        cas_sites: entry.cas_sites.iter().map(|(s, _)| s.id()).collect(),
    })
}

fn labels_of(ids: &std::collections::HashSet<u32>) -> Vec<String> {
    let mut labels: Vec<String> = ids
        .iter()
        .map(|id| site_label(Site::from_id(*id)).to_owned())
        .collect();
    labels.sort();
    labels
}

/// One corpus entry's replay result.
#[derive(Debug)]
pub struct CorpusReplayResult {
    /// Artifact path.
    pub path: std::path::PathBuf,
    /// Signature key.
    pub key: String,
    /// Replay outcome.
    pub matched: bool,
    /// Divergence report, if the strict replay drifted.
    pub divergence: Option<String>,
    /// Wall-clock time of this replay.
    pub duration: Duration,
}

/// Replay every artifact in `dir` (the CI regression gate).
///
/// # Errors
///
/// [`RtError::Io`] for an unreadable or corrupt corpus; per-artifact
/// replay failures are reported in the results, not as errors.
pub fn replay_corpus(dir: &Path, opts: &ReplayOptions) -> Result<Vec<CorpusReplayResult>, RtError> {
    let store = ReproStore::open(dir)?;
    let mut results = Vec::new();
    for (path, repro) in store.load_all()? {
        let out = replay(&repro, opts)?;
        results.push(CorpusReplayResult {
            path,
            key: repro.signature.key(),
            matched: out.matched,
            divergence: out.divergence,
            duration: out.duration,
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipes_cover_table2_and_the_lockfree_suite() {
        pmrace_targets::register_builtins();
        pmrace_lockfree::register_lockfree();
        let r = recipes();
        assert_eq!(r.len(), 20, "14 Table 2 bugs + 6 lock-free suite bugs");
        let ids: Vec<u32> = r.iter().map(|x| x.bug_id).collect();
        assert_eq!(ids, (1..=20).collect::<Vec<u32>>());
        for recipe in &r {
            assert!(
                target_spec(recipe.target).is_some(),
                "bug {} names unknown target {}",
                recipe.bug_id,
                recipe.target
            );
            assert!((recipe.seed)().num_ops() > 0);
        }
    }

    #[test]
    fn hang_recipe_builds_and_validates() {
        // The cheapest recipe end-to-end: bug 5 is deterministic.
        let dir = std::env::temp_dir().join(format!("pmrace-corpus-hang-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ReproStore::open(&dir).unwrap();
        let recipe = recipes().into_iter().find(|r| r.bug_id == 5).unwrap();
        let built = build_recipe(&recipe, &store).unwrap();
        assert_eq!(built.signature.kind, "Hang");
        assert!(built.path.exists());
        let results = replay_corpus(&dir, &ReplayOptions::default()).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].matched);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
