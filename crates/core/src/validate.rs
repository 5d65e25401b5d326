//! Post-failure validation (§4.4).
//!
//! Each detected inconsistency carries a crash image capturing its crash
//! point: the durable side effect persisted, the dependent non-persisted
//! data lost. Validation restarts the target on that image, runs its
//! recovery code under a fresh session, and checks whether recovery healed
//! the state:
//!
//! - *Inter/intra inconsistency*: benign iff **all** bytes of the recorded
//!   durable side effect were overwritten during recovery (e.g. memcached's
//!   index rebuild rewriting `next`/`prev`).
//! - *Sync inconsistency*: benign iff the annotated variable was restored
//!   to its annotated initial value.
//!
//! Whitelisted detections (PMDK transactional allocation, checksum-guarded
//! regions) are classified without running recovery.
//!
//! # Verdict memoization
//!
//! Recovery executions dominate validation cost, and campaigns keep
//! re-detecting the same inconsistency at the same crash state. Verdicts
//! are therefore memoized in a process-global striped cache keyed by the
//! validation inputs: the target, the record's effect identity, and the
//! crash image's content key (base-image id + overlay hash — equal keys
//! imply identical surviving bytes). A cache hit skips the recovery
//! execution entirely; since a verdict is a pure function of its key, the
//! cache can never change *which* bugs are reported, only how often
//! recovery runs ([`set_validation_cache`] turns it off for A/B tests).
//!
//! # Recovery pools
//!
//! Every recovery run takes the process's spare pool reset in place to
//! the record's crash image, instead of building a pool (see
//! [`crate::checkpoint`]'s module docs for the slot that keeps it).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;
use pmrace_api::TargetSpec;
use pmrace_pmem::{CrashImage, Pool};
use pmrace_runtime::report::{InconsistencyRecord, SyncUpdateRecord};
use pmrace_runtime::whitelist::Whitelist;
use pmrace_runtime::{RtError, Session, SessionConfig};
use pmrace_telemetry as telemetry;

/// Classification of a detected inconsistency after validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Survived validation: reported as a bug.
    Bug,
    /// Recovery healed the state: false positive (automatically filtered).
    ValidatedFp,
    /// A whitelist rule matched: false positive by declaration.
    WhitelistedFp,
    /// No crash image was captured (budget); cannot be validated.
    Unvalidated,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Verdict::Bug => "bug",
            Verdict::ValidatedFp => "validated false positive",
            Verdict::WhitelistedFp => "whitelisted false positive",
            Verdict::Unvalidated => "unvalidated",
        };
        f.write_str(s)
    }
}

/// Whether verdict memoization is active (default: on).
static CACHE_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable the process-global validation verdict cache.
///
/// Verdicts are deterministic in their cache key, so toggling this changes
/// recovery-execution volume but never the reported bug set
/// (`tests/determinism.rs` pins that contract).
pub fn set_validation_cache(enabled: bool) {
    CACHE_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the validation verdict cache is currently enabled.
#[must_use]
pub fn validation_cache_enabled() -> bool {
    CACHE_ENABLED.load(Ordering::Relaxed)
}

const CACHE_STRIPES: usize = 16;
/// Per-stripe entry bound; a full stripe is cleared (verdicts are
/// recomputable, so eviction is only a perf event, never a correctness
/// one).
const CACHE_STRIPE_CAPACITY: usize = 4096;

/// Exact validation inputs (no lossy hashing: a key collision could
/// otherwise return the wrong verdict and silently change the bug set).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    Incons {
        target: &'static str,
        effect_off: u64,
        effect_len: usize,
        image: (u64, u64),
    },
    Sync {
        target: &'static str,
        var_off: u64,
        expected_init: u64,
        image: (u64, u64),
    },
}

struct VerdictCache {
    stripes: Vec<Mutex<HashMap<CacheKey, Verdict>>>,
}

fn cache() -> &'static VerdictCache {
    static CACHE: OnceLock<VerdictCache> = OnceLock::new();
    CACHE.get_or_init(|| VerdictCache {
        stripes: (0..CACHE_STRIPES).map(|_| Mutex::default()).collect(),
    })
}

fn stripe_of(key: &CacheKey) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % CACHE_STRIPES as u64) as usize
}

/// Look up a memoized verdict, counting the hit/miss.
fn cache_get(key: &CacheKey) -> Option<Verdict> {
    let hit = cache().stripes[stripe_of(key)].lock().get(key).copied();
    telemetry::add(
        match hit {
            Some(_) => telemetry::Counter::ValidateCacheHit,
            None => telemetry::Counter::ValidateCacheMiss,
        },
        1,
    );
    hit
}

fn cache_put(key: CacheKey, verdict: Verdict) {
    let mut stripe = cache().stripes[stripe_of(&key)].lock();
    if stripe.len() >= CACHE_STRIPE_CAPACITY {
        stripe.clear();
    }
    stripe.insert(key, verdict);
}

/// The spare pool reset to `img` for one recovery run, counted under
/// `validate.pool_reuses` / `validate.pool_fresh`.
fn recovery_pool(img: &CrashImage) -> Option<Arc<Pool>> {
    let (pool, reused) = crate::checkpoint::spare_pool(img)?;
    telemetry::add(
        if reused {
            telemetry::Counter::ValidatePoolReuses
        } else {
            telemetry::Counter::ValidatePoolFresh
        },
        1,
    );
    Some(pool)
}

fn recovery_session(pool: Arc<Pool>) -> Arc<Session> {
    Session::new(
        pool,
        SessionConfig {
            deadline: Duration::from_millis(500),
            capture_crash_images: false,
            max_crash_images: 0,
            whitelist: Whitelist::empty(),
            trace_depth: 0,
        },
    )
}

/// Record a validation run and its verdict in the telemetry registry.
fn tally(verdict: Verdict) -> Verdict {
    use telemetry::Counter as C;
    telemetry::add(C::ValidateRuns, 1);
    let per_verdict = match verdict {
        Verdict::Bug => C::ValidateBugs,
        Verdict::ValidatedFp => C::ValidateFps,
        Verdict::WhitelistedFp => C::ValidateWhitelistedFps,
        Verdict::Unvalidated => C::ValidateUnvalidated,
    };
    telemetry::add(per_verdict, 1);
    verdict
}

/// Validate one inter-/intra-thread inconsistency.
///
/// Consults the verdict cache first: a hit skips the recovery execution
/// (`validate.cache_hit`); only misses run recovery and count toward
/// `validate.runs`. Whitelisted and image-less records bypass the cache —
/// they are already O(1) to classify.
#[must_use]
pub fn validate_inconsistency(spec: &TargetSpec, rec: &InconsistencyRecord) -> Verdict {
    let _span = telemetry::span(telemetry::Phase::Validation);
    let key = (validation_cache_enabled() && !rec.whitelisted && rec.effect_len != 0)
        .then_some(rec.crash_image.as_deref())
        .flatten()
        .map(|img| CacheKey::Incons {
            target: spec.name,
            effect_off: rec.effect_off,
            effect_len: rec.effect_len,
            image: img.cache_key(),
        });
    if let Some(key) = &key {
        if let Some(verdict) = cache_get(key) {
            return verdict;
        }
    }
    let verdict = tally(validate_inconsistency_impl(spec, rec, recovery_pool));
    if let Some(key) = key {
        cache_put(key, verdict);
    }
    verdict
}

/// Type of the function that supplies a recovery pool for a crash image.
type PoolFor = fn(&CrashImage) -> Option<Arc<Pool>>;

fn validate_inconsistency_impl(
    spec: &TargetSpec,
    rec: &InconsistencyRecord,
    pool_for: PoolFor,
) -> Verdict {
    if rec.whitelisted {
        return Verdict::WhitelistedFp;
    }
    let Some(img) = rec.crash_image.as_deref() else {
        return Verdict::Unvalidated;
    };
    if rec.effect_len == 0 {
        // External output: nothing recovery could overwrite.
        return Verdict::Bug;
    }
    let Some(pool) = pool_for(img) else {
        return Verdict::Unvalidated;
    };
    let session = recovery_session(pool);
    match (spec.recover)(&session) {
        Ok(_) => {}
        Err(RtError::Timeout | RtError::Halted) => return Verdict::Bug, // recovery hangs
        Err(_) => return Verdict::Bug, // recovery cannot proceed from this image
    }
    let stored = session.stored_granules();
    let first = rec.effect_off / 8 * 8;
    let last = (rec.effect_off + rec.effect_len as u64 - 1) / 8 * 8;
    let mut g = first;
    while g <= last {
        if !stored.contains(&g) {
            return Verdict::Bug;
        }
        g += 8;
    }
    Verdict::ValidatedFp
}

/// Validate one synchronization inconsistency.
///
/// Cache-assisted like [`validate_inconsistency`]; only records carrying a
/// crash image are memoizable.
#[must_use]
pub fn validate_sync(spec: &TargetSpec, rec: &SyncUpdateRecord) -> Verdict {
    let _span = telemetry::span(telemetry::Phase::Validation);
    let key = validation_cache_enabled()
        .then_some(rec.crash_image.as_deref())
        .flatten()
        .map(|img| CacheKey::Sync {
            target: spec.name,
            var_off: rec.var_off,
            expected_init: rec.expected_init,
            image: img.cache_key(),
        });
    if let Some(key) = &key {
        if let Some(verdict) = cache_get(key) {
            return verdict;
        }
    }
    let verdict = tally(validate_sync_impl(spec, rec, recovery_pool));
    if let Some(key) = key {
        cache_put(key, verdict);
    }
    verdict
}

fn validate_sync_impl(spec: &TargetSpec, rec: &SyncUpdateRecord, pool_for: PoolFor) -> Verdict {
    let Some(img) = rec.crash_image.as_deref() else {
        return Verdict::Unvalidated;
    };
    let Some(pool) = pool_for(img) else {
        return Verdict::Unvalidated;
    };
    let session = recovery_session(Arc::clone(&pool));
    match (spec.recover)(&session) {
        Ok(_) => {}
        Err(RtError::Timeout | RtError::Halted) => return Verdict::Bug,
        Err(_) => return Verdict::Bug,
    }
    match pool.load_u64(rec.var_off) {
        Ok((v, _)) if v == rec.expected_init => Verdict::ValidatedFp,
        Ok(_) => Verdict::Bug,
        Err(_) => Verdict::Unvalidated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig, PoolStart};
    use crate::seed::Seed;
    use pmrace_targets::{target_spec, Op};

    /// P-CLHT resize produces the Bug 3 intra inconsistency; its durable
    /// side effect (the GC log) is not overwritten during recovery.
    #[test]
    fn pclht_gc_log_inconsistency_is_a_bug() {
        let spec = target_spec("P-CLHT").unwrap();
        let ops: Vec<Op> = (1..=130u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let seed = Seed::from_flat(&ops, 1);
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
        let rec = res
            .findings
            .inconsistencies
            .iter()
            .find(|i| pmrace_runtime::site_label(i.effect_site).contains("gc_log"))
            .expect("bug 3 must be detected by a resize-heavy workload");
        assert_eq!(validate_inconsistency(&spec, rec), Verdict::Bug);
    }

    /// P-CLHT's resize_lock is reinitialized by recovery: validated FP.
    /// The bucket lock is not: bug 2.
    #[test]
    fn pclht_sync_validation_separates_fp_from_bug() {
        let spec = target_spec("P-CLHT").unwrap();
        let ops: Vec<Op> = (1..=130u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let seed = Seed::from_flat(&ops, 1);
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
        let resize = res
            .findings
            .sync_updates
            .iter()
            .find(|u| u.var_name == "clht.resize_lock")
            .expect("resize lock update recorded");
        assert_eq!(validate_sync(&spec, resize), Verdict::ValidatedFp);
        let bucket = res
            .findings
            .sync_updates
            .iter()
            .find(|u| u.var_name == "clht.bucket_lock")
            .expect("bucket lock update recorded");
        assert_eq!(validate_sync(&spec, bucket), Verdict::Bug);
    }

    /// memcached's recovery rebuilds LRU links, validating link-field
    /// inconsistencies as false positives.
    #[test]
    fn memkv_link_field_effects_are_validated_fps() {
        let spec = target_spec("memcached-pmem").unwrap();
        // Interleave hot-key sets and gets over 4 threads so LRU link
        // stores race with link reads.
        let ops: Vec<Op> = (0..60)
            .map(|i| {
                if i % 3 == 0 {
                    Op::Insert {
                        key: 1 + i % 5,
                        value: i,
                    }
                } else {
                    Op::Get { key: 1 + i % 5 }
                }
            })
            .collect();
        let seed = Seed::from_flat(&ops, 4);
        let mut fp = 0;
        let mut checked = 0;
        for round in 0..8 {
            let _ = round;
            let res = run_campaign(
                &spec,
                &seed,
                &CampaignConfig::default(),
                None,
                PoolStart::Spare,
            )
            .unwrap();
            for rec in &res.findings.inconsistencies {
                let label = pmrace_runtime::site_label(rec.effect_site);
                if label.contains("store_p_next") || label.contains("store_n_prev") {
                    checked += 1;
                    if validate_inconsistency(&spec, rec) == Verdict::ValidatedFp {
                        fp += 1;
                    }
                }
            }
            if checked > 0 {
                break;
            }
        }
        if checked > 0 {
            assert!(
                fp > 0,
                "at least one link-field inconsistency validates as FP"
            );
        }
    }

    /// The reference for a recycled recovery pool: a new pool of the image's
    /// size filled by plain stores of the surviving bytes (no crash-image
    /// reset path involved).
    fn reference_pool(img: &CrashImage) -> Option<Arc<Pool>> {
        use pmrace_pmem::{PoolOpts, SiteTag, ThreadId};
        let pool = Pool::new(PoolOpts::with_size(img.size()));
        for (i, chunk) in img.bytes().chunks(4096).enumerate() {
            pool.store((i * 4096) as u64, chunk, ThreadId(0), SiteTag(0))
                .ok()?;
        }
        Some(Arc::new(pool))
    }

    /// Verdict oracle: every inconsistency and sync record of a few
    /// explored campaigns per target gets the same verdict through the
    /// process-wide recycled pool as on a reference pool. Two threads
    /// validate at once, in opposite orders, so runs overlap on the slot.
    #[test]
    fn recycled_pool_verdicts_match_a_reference_pool() {
        use crate::explore::{ExploreConfig, Explorer};
        let mut specs: Vec<TargetSpec> =
            ["P-CLHT", "clevel", "CCEH", "FAST-FAIR", "memcached-pmem"]
                .iter()
                .map(|name| target_spec(name).unwrap())
                .collect();
        specs.extend(
            pmrace_lockfree::lockfree_specs()
                .into_iter()
                .filter(|s| s.name == "treiber-stack"),
        );
        let mut results = Vec::new();
        for spec in specs {
            let cfg = ExploreConfig {
                campaign: CampaignConfig {
                    threads: 2,
                    ..CampaignConfig::default()
                },
                ..ExploreConfig::default()
            };
            let mut explorer = Explorer::new(spec, cfg, 7).unwrap();
            for _ in 0..3 {
                results.push((spec, explorer.step().unwrap().result));
            }
        }
        // P-CLHT's resize path updates every annotated sync var.
        let spec = target_spec("P-CLHT").unwrap();
        let resize: Vec<Op> = (1..=130u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let res = run_campaign(
            &spec,
            &Seed::from_flat(&resize, 1),
            &cfg,
            None,
            PoolStart::Spare,
        )
        .unwrap();
        results.push((spec, res));
        // One validation per record, run with either pool supplier.
        let mut checks: Vec<Box<dyn Fn(PoolFor) -> Verdict + Sync>> = Vec::new();
        for (spec, res) in &results {
            for rec in &res.findings.inconsistencies {
                checks.push(Box::new(move |pool_for| {
                    validate_inconsistency_impl(spec, rec, pool_for)
                }));
            }
            for upd in &res.findings.sync_updates {
                checks.push(Box::new(move |pool_for| {
                    validate_sync_impl(spec, upd, pool_for)
                }));
            }
        }
        let want: Vec<Verdict> = checks.iter().map(|check| check(reference_pool)).collect();
        let syncs: usize = results
            .iter()
            .map(|(_, r)| r.findings.sync_updates.len())
            .sum();
        assert!(
            checks.len() - syncs >= 10
                && syncs >= 5
                && want.contains(&Verdict::Bug)
                && want.contains(&Verdict::ValidatedFp),
            "too few records to compare: {} records, {syncs} of them sync updates, verdicts {want:?}",
            checks.len()
        );
        let mismatches = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for reversed in [false, true] {
                let (checks, want, mismatches) = (&checks, &want, &mismatches);
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..checks.len()).collect();
                    if reversed {
                        order.reverse();
                    }
                    for i in order {
                        if checks[i](recovery_pool) != want[i] {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            mismatches.into_inner(),
            0,
            "recycled-pool verdicts differ from the reference over {} records",
            checks.len()
        );
    }

    #[test]
    fn whitelisted_records_skip_recovery() {
        let spec = target_spec("clevel").unwrap();
        let seed = Seed::from_flat(&[Op::Insert { key: 1, value: 1 }], 1);
        let res = run_campaign(
            &spec,
            &seed,
            &CampaignConfig::default(),
            None,
            PoolStart::Spare,
        )
        .unwrap();
        let rec = res
            .findings
            .inconsistencies
            .iter()
            .find(|i| i.whitelisted)
            .expect("clevel construction raises whitelisted inconsistencies");
        assert_eq!(validate_inconsistency(&spec, rec), Verdict::WhitelistedFp);
    }
}
