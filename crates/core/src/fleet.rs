//! Fleet plumbing for multi-worker fuzzing: the shared cross-worker seed
//! pool.
//!
//! The paper ran 13 parallel fuzzing workers for 20 hours (§6.1). A fleet
//! only beats 13 independent fuzzers if workers *share* their discoveries
//! without serializing on them. [`SharedCorpus`] is a sharded in-memory
//! seed pool — one stripe per worker, each under its own lock. A worker
//! that unlocks new coverage publishes the seed to its stripe; siblings
//! import everything published since their last look (and sometimes
//! *steal* the freshest import as their next seed outright), so a good
//! seed from worker 0 is being mutated by workers 1..N within a few
//! campaigns. Workers never touch each other's RNG streams: imports change
//! *which* seeds are evolved, not how the per-worker `StdRng` draws, so
//! seeded runs stay replayable and recorded repros stay valid.
//!
//! Workers share the bug [`Ledger`](crate::Ledger) behind one
//! `Mutex<Ledger>` and ingest each campaign under it with one
//! [`Ledger::ingest_with_seed`](crate::Ledger::ingest_with_seed) call:
//! dedup, post-failure validation of the new records and bug minting.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use pmrace_telemetry as telemetry;

use crate::seed::Seed;

/// Seeds kept per stripe; the oldest publication is dropped beyond this
/// (mirrors the explorer's own 16-seed corpus window).
const STRIPE_CAP: usize = 32;

/// One worker's publication stripe.
#[derive(Debug, Default)]
struct Stripe {
    /// `(publication epoch, seed)`, ascending by epoch.
    seeds: Mutex<Vec<(u64, Seed)>>,
}

/// Sharded cross-worker seed pool with work-stealing imports.
///
/// Publications go to the publishing worker's own stripe, so publishing
/// never contends with another worker's publish. Imports scan sibling
/// stripes for epochs newer than the importer's cursor; each stripe is
/// locked briefly and independently.
#[derive(Debug)]
pub struct SharedCorpus {
    stripes: Box<[Stripe]>,
    /// Global publication clock; also the "anything new?" fast path —
    /// importers compare it against their cursor before touching stripes.
    epoch: AtomicU64,
}

impl SharedCorpus {
    /// Pool with one stripe per worker.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        SharedCorpus {
            stripes: (0..workers.max(1)).map(|_| Stripe::default()).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Number of stripes (= fleet workers).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.stripes.len()
    }

    /// Publish a coverage-improving seed from `worker`. Identical seeds
    /// already in the stripe are skipped (dedup under the stripe lock).
    pub fn publish(&self, worker: usize, seed: &Seed) {
        let stripe = &self.stripes[worker % self.stripes.len()];
        let mut seeds = stripe.seeds.lock();
        if seeds.iter().any(|(_, s)| s == seed) {
            return;
        }
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        seeds.push((epoch, seed.clone()));
        if seeds.len() > STRIPE_CAP {
            seeds.remove(0);
        }
    }

    /// Import every seed published by *sibling* stripes since `cursor`,
    /// oldest first. Returns the imports and the new cursor to store.
    /// A worker's own stripe is skipped: its publications are already in
    /// its local corpus, and skipping keeps a single-worker fleet
    /// byte-identical to the pre-fleet explorer.
    #[must_use]
    pub fn import_since(&self, worker: usize, cursor: u64) -> (Vec<Seed>, u64) {
        let now = self.epoch.load(Ordering::Acquire);
        if now <= cursor {
            return (Vec::new(), cursor);
        }
        let own = worker % self.stripes.len();
        let mut fresh: Vec<(u64, Seed)> = Vec::new();
        for (i, stripe) in self.stripes.iter().enumerate() {
            if i == own {
                continue;
            }
            let seeds = stripe.seeds.lock();
            for (epoch, seed) in seeds.iter().rev() {
                if *epoch <= cursor {
                    break; // ascending per stripe: the rest is older
                }
                fresh.push((*epoch, seed.clone()));
            }
        }
        fresh.sort_by_key(|(epoch, _)| *epoch);
        (fresh.into_iter().map(|(_, s)| s).collect(), now)
    }
}

/// Count a cross-worker seed import batch in the fleet telemetry.
pub(crate) fn note_imports(n: usize) {
    if n > 0 {
        telemetry::add(telemetry::Counter::FleetSharedSeeds, n as u64);
    }
}

/// Count one work-steal (a sibling seed adopted as the current seed).
pub(crate) fn note_steal() {
    telemetry::add(telemetry::Counter::FleetSteals, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::Ledger;
    use crate::campaign::{run_campaign, CampaignConfig, PoolStart};
    use crate::mutator::OpMutator;
    use pmrace_targets::{target_spec, Op};
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn publish_and_import_flow_across_stripes() {
        let pool = SharedCorpus::new(3);
        let mut m = OpMutator::new(1, 2, 4);
        let (a, b, c) = (m.generate(), m.generate(), m.generate());
        pool.publish(0, &a);
        pool.publish(1, &b);
        // Worker 2 sees both siblings' seeds, oldest first.
        let (got, cursor) = pool.import_since(2, 0);
        assert_eq!(got, vec![a.clone(), b.clone()]);
        // Nothing new: the cursor short-circuits.
        let (got, cursor2) = pool.import_since(2, cursor);
        assert!(got.is_empty());
        assert_eq!(cursor, cursor2);
        // A later publication arrives alone.
        pool.publish(0, &c);
        let (got, _) = pool.import_since(2, cursor);
        assert_eq!(got, vec![c]);
        // Workers never import their own stripe.
        let (got, _) = pool.import_since(0, 0);
        assert_eq!(got, vec![b]);
    }

    #[test]
    fn duplicate_publications_are_dropped() {
        let pool = SharedCorpus::new(2);
        let seed = OpMutator::new(2, 2, 4).generate();
        pool.publish(0, &seed);
        pool.publish(0, &seed);
        let (got, _) = pool.import_since(1, 0);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn stripes_are_bounded() {
        let pool = SharedCorpus::new(2);
        let mut m = OpMutator::new(3, 2, 4);
        let seeds: Vec<Seed> = (0..STRIPE_CAP + 8).map(|_| m.generate()).collect();
        for s in &seeds {
            pool.publish(0, s);
        }
        let (got, _) = pool.import_since(1, 0);
        assert_eq!(got.len(), STRIPE_CAP, "oldest publications evicted");
        assert_eq!(got.last(), seeds.last(), "newest kept");
    }

    /// One campaign through the fleet's `Mutex<Ledger>` the way a worker
    /// ingests it: one call under the lock.
    fn worker_ingest(
        shared: &Mutex<Ledger>,
        res: &crate::campaign::CampaignResult,
        elapsed: Duration,
    ) -> crate::bugs::IngestDelta {
        shared.lock().ingest(res, elapsed)
    }

    #[test]
    fn sharded_ledger_matches_plain_ingest() {
        let spec = target_spec("P-CLHT").unwrap();
        let ops: Vec<Op> = (1..=130u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let seed = Seed::from_flat(&ops, 1);
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();

        let mut plain = Ledger::new(spec);
        plain.ingest(&res, Duration::ZERO);
        plain.ingest(&res, Duration::from_secs(1));

        let shared = Mutex::new(Ledger::new(spec));
        let delta = worker_ingest(&shared, &res, Duration::ZERO);
        assert!(!delta.new_bugs.is_empty());
        // Identical findings again: counted, nothing new.
        assert!(
            worker_ingest(&shared, &res, Duration::from_secs(1)).is_empty(),
            "an all-duplicate campaign adds nothing"
        );
        let ledger = shared.into_inner();
        assert_eq!(ledger.stats(), plain.stats(), "stats must not drift");
        assert_eq!(
            ledger.bugs().len(),
            plain.bugs().len(),
            "unique-bug sets must match"
        );
    }

    #[test]
    fn fast_path_counts_hangs() {
        let spec = target_spec("clevel").unwrap();
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let seed = Seed::from_flat(&[Op::Insert { key: 1, value: 1 }], 1);
        let mut res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
        res.findings.hang = true;
        let shared = Mutex::new(Ledger::new(spec));
        for i in 0..3u64 {
            let _ = worker_ingest(&shared, &res, Duration::from_millis(i));
        }
        let ledger = shared.into_inner();
        let stats = ledger.stats();
        assert_eq!(stats.campaigns, 3);
        assert_eq!(stats.hangs, 3, "duplicate hangs must still be counted");
        assert_eq!(
            ledger
                .bugs()
                .iter()
                .filter(|b| b.kind == crate::bugs::BugKind::Hang)
                .count(),
            1
        );
    }

    #[test]
    fn concurrent_ingest_of_identical_results_mints_once() {
        let spec = target_spec("P-CLHT").unwrap();
        let ops: Vec<Op> = (1..=130u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let seed = Seed::from_flat(&ops, 1);
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
        let shared = Mutex::new(Ledger::new(spec));
        let minted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (shared, res, minted) = (&shared, &res, &minted);
                scope.spawn(move || {
                    let delta = worker_ingest(shared, res, Duration::ZERO);
                    minted.fetch_add(delta.new_bugs.len(), Ordering::Relaxed);
                });
            }
        });
        let ledger = shared.into_inner();
        assert_eq!(ledger.stats().campaigns, 4);
        assert_eq!(
            minted.load(Ordering::Relaxed),
            ledger.bugs().len(),
            "every unique bug must be minted exactly once across workers"
        );
    }
}
