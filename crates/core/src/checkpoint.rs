//! In-memory pool checkpoints (§5, Fig. 10) and the slot that recycles
//! idle pools.
//!
//! `libpmemobj` pool initialization is expensive; PMRace initializes the
//! pool once, keeps one in-memory copy, and starts every campaign from that
//! copy — the AFL++ fork-server idea without the fork. Campaigns restored
//! from a checkpoint reopen the target through its recovery path (the
//! process-side state is rebuilt, as a forked child would rebuild it).
//!
//! A checkpoint is therefore a crash image: the persisted bytes of the
//! initialized pool, kept dense on a base of its own. A campaign's pool is
//! reset to it with [`Pool::restore_crash_image`], the one reset path every
//! pool shares, so the volatile image, metadata and store counter a
//! campaign starts from are those of a recovered pool. A target whose
//! `init` leaves unpersisted stores has no such image without dropping
//! them, and [`Checkpoint::create`] refuses it.
//!
//! # Recycling idle pools
//!
//! A `SpareSlot` keeps one idle pool and hands it out reset in place to
//! the image its next user needs, instead of building a pool. It is the
//! one recycler of idle pools. Each checkpoint owns one, which hands out
//! the checkpoint's pool. One more, process-wide, keeps the *spare pool*,
//! which has two users:
//!
//! - every recovery run of post-failure validation
//!   ([`crate::validate`]), which resets it to the record's crash image;
//! - every campaign that starts on an empty pool
//!   ([`PoolStart::Spare`](crate::PoolStart::Spare)), which resets it to the
//!   formatted image ([`CrashImage::formatted`]) and then runs the target's
//!   `init`. Such a campaign skips the pool's format cost, which is what
//!   dominates a replay campaign on the heavy-init targets.
//!
//! When the kept pool already sits on the new image's base, the reset
//! copies only the granules the last user wrote plus the image's overlay.
//! That is the usual case: a checkpoint's pool always returns to the
//! checkpoint's base, and a campaign on the spare pool, its crash images,
//! and the images of a campaign on a new pool all sit on the all-zero base
//! of the pool's size. Images on a checkpoint's base take one full copy on
//! the spare pool. A slot never hands out its pool while anyone else holds
//! it: a user that overlaps another one (a validation beside a fleet
//! worker's first campaign, or a second `acquire` while a campaign still
//! runs) gets a new pool for that run, and the slot keeps the one it has.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use pmrace_api::TargetSpec;
use pmrace_pmem::{CrashImage, PmemError, Pool};
use pmrace_runtime::{RtError, Session, SessionConfig};
use pmrace_telemetry as telemetry;

/// The crash image of a freshly initialized target pool, and the slot that
/// recycles the pools handed out from it.
#[derive(Debug)]
pub struct Checkpoint {
    image: CrashImage,
    slot: SpareSlot,
}

impl Checkpoint {
    /// Pay the pool + target initialization cost once and capture the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates target initialization errors, and returns
    /// [`PmemError::InvalidImage`] when `init` leaves unpersisted granules
    /// (a checkpoint would drop them) or the pool is empty.
    pub fn create(spec: &TargetSpec) -> Result<Self, RtError> {
        let _span = telemetry::span(telemetry::Phase::CheckpointCreate);
        telemetry::add(telemetry::Counter::CheckpointCreates, 1);
        let pool = Arc::new(Pool::new((spec.pool)()));
        let session = Session::new(
            Arc::clone(&pool),
            SessionConfig {
                capture_crash_images: false,
                ..SessionConfig::default()
            },
        );
        let _target = (spec.init)(&session)?;
        if pool.size() == 0 || pool.unpersisted_granules() != 0 {
            // An empty pool leaves nothing to reset to, and a crash image
            // of unpersisted stores would drop them.
            return Err(RtError::Pmem(PmemError::InvalidImage {
                reason: "target init left an empty pool or unpersisted granules",
            }));
        }
        Ok(Checkpoint {
            image: CrashImage::from_bytes(pool.crash_image()?.bytes().to_vec()),
            slot: SpareSlot::default(),
        })
    }

    /// A pool holding the checkpointed image, for one campaign.
    ///
    /// Takes the pool from the checkpoint's own `SpareSlot`: the pool
    /// the previous `acquire` handed out, reset in place when nothing else
    /// still references it (campaigns hand their pool back simply by
    /// dropping the session). The reset copies back only the granules the
    /// last campaign dirtied, or the whole image once they exceed a quarter
    /// of the pool. A pool still held elsewhere is left alone and a new one
    /// is built from the image instead.
    #[must_use]
    pub fn acquire(&self) -> Arc<Pool> {
        let _span = telemetry::span(telemetry::Phase::CheckpointRestore);
        telemetry::add(telemetry::Counter::CheckpointRestores, 1);
        let (pool, reused) = self
            .slot
            .take(&self.image)
            .expect("`create` rejects empty checkpoint pools");
        if reused {
            telemetry::add(telemetry::Counter::CheckpointCacheHits, 1);
        }
        pool
    }
}

/// A slot that recycles one idle pool (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct SpareSlot(Mutex<Option<Arc<Pool>>>);

impl SpareSlot {
    /// A pool holding `img`'s recovery-time view, for one user, and
    /// whether it is the kept pool reset in place (`false`: a new pool).
    ///
    /// Resets and hands out the kept pool when it is idle (nothing but the
    /// slot references it) and of `img`'s size. An idle pool of another
    /// size is freed before its replacement is allocated and kept. A pool
    /// still in use is never handed out a second time: the caller gets a
    /// new pool, and the slot keeps the one it has. `None` for an empty
    /// image.
    pub(crate) fn take(&self, img: &CrashImage) -> Option<(Arc<Pool>, bool)> {
        let mut slot = self.0.lock();
        match slot.as_ref() {
            // Another user holds it: never hand it out twice.
            Some(pool) if Arc::strong_count(pool) > 1 => {
                drop(slot);
                return Some((Arc::new(Pool::from_crash_image(img).ok()?), false));
            }
            Some(pool) if pool.size() == img.size() => {
                let pool = Arc::clone(pool);
                drop(slot);
                pool.restore_crash_image(img)
                    .expect("the kept pool's size matches the image");
                return Some((pool, true));
            }
            // Free an idle pool of another size before allocating.
            _ => *slot = None,
        }
        let pool = Arc::new(Pool::from_crash_image(img).ok()?);
        *slot = Some(Arc::clone(&pool));
        Some((pool, false))
    }
}

/// [`SpareSlot::take`] on the process-wide slot: the spare pool.
pub(crate) fn spare_pool(img: &CrashImage) -> Option<(Arc<Pool>, bool)> {
    static SLOT: OnceLock<SpareSlot> = OnceLock::new();
    SLOT.get_or_init(SpareSlot::default).take(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_pmem::{GranuleMeta, PoolOpts, SiteTag, ThreadId};
    use pmrace_targets::{target_spec, Op, OpResult};

    /// Run one insert against `pool` through the target's recovery path,
    /// dirtying it the way a campaign would.
    fn dirty(spec: &TargetSpec, pool: Arc<Pool>, key: u64) {
        let session = Session::new(pool, SessionConfig::default());
        let target = (spec.recover)(&session).unwrap();
        let v = session.view(ThreadId(0));
        target.exec(&v, &Op::Insert { key, value: 2 }).unwrap();
    }

    /// Volatile bytes, non-default granule metadata, persistent bytes and
    /// store counter.
    type Observed = (Vec<u8>, Vec<(u64, GranuleMeta)>, Vec<u8>, u64);

    /// Everything a campaign can observe of `pool`.
    fn images(pool: &Pool) -> Observed {
        let mut volatile = vec![0; pool.size()];
        pool.load(0, &mut volatile).unwrap();
        let meta = (0..pool.size() as u64)
            .step_by(8)
            .map(|off| (off, pool.meta_at(off)))
            .filter(|(_, m)| *m != GranuleMeta::default())
            .collect();
        let persistent = pool.crash_image().unwrap().bytes().to_vec();
        (volatile, meta, persistent, pool.store_seq())
    }

    #[test]
    fn checkpoint_restores_a_working_target() {
        let spec = target_spec("P-CLHT").unwrap();
        let cp = Checkpoint::create(&spec).unwrap();
        for round in 0..3 {
            let pool = cp.acquire();
            let session = Session::new(pool, SessionConfig::default());
            let target = (spec.recover)(&session).unwrap();
            let v = session.view(ThreadId(0));
            let key = 10 + round;
            assert_eq!(
                target.exec(&v, &Op::Insert { key, value: round }).unwrap(),
                OpResult::Done
            );
            assert_eq!(
                target.exec(&v, &Op::Get { key }).unwrap(),
                OpResult::Found(round)
            );
            // Each acquire starts empty: prior rounds' keys are absent.
            if round > 0 {
                assert_eq!(
                    target.exec(&v, &Op::Get { key: 10 }).unwrap(),
                    OpResult::Missing
                );
            }
        }
    }

    #[test]
    fn restore_delta_resets_a_dirtied_pool_in_place() {
        telemetry::set_enabled(true);
        let spec = target_spec("P-CLHT").unwrap();
        let cp = Checkpoint::create(&spec).unwrap();
        let mut pool = cp.acquire();
        let first = Arc::as_ptr(&pool);
        let baseline = images(&pool);
        // Rounds 0-2 dirty a few granules (the delta reset); round 3 writes
        // over half the pool with raw stores (the full reset).
        for round in 0..4 {
            if round < 3 {
                dirty(&spec, Arc::clone(&pool), round);
            } else {
                let junk = vec![0xA5; pool.size() / 2];
                pool.store(0, &junk, ThreadId(1), SiteTag(9)).unwrap();
            }
            assert_ne!(images(&pool), baseline, "round {round}: pool dirtied");
            let hits = telemetry::metrics::counter(telemetry::Counter::CheckpointCacheHits);
            // Retire it: only the checkpoint's cached reference remains.
            drop(pool);
            pool = cp.acquire();
            assert_eq!(Arc::as_ptr(&pool), first, "retired pool is recycled");
            assert!(
                telemetry::metrics::counter(telemetry::Counter::CheckpointCacheHits) > hits,
                "round {round}: recycling counts as a cache hit"
            );
            assert_eq!(images(&pool), baseline, "round {round}: reset in place");
        }
    }

    #[test]
    fn restore_cached_recycles_the_retired_pool() {
        let spec = target_spec("P-CLHT").unwrap();
        let cp = Checkpoint::create(&spec).unwrap();
        let first = cp.acquire();
        let first_ptr = Arc::as_ptr(&first);
        drop(first); // retire it: only the cache's reference remains
        let second = cp.acquire();
        assert_eq!(Arc::as_ptr(&second), first_ptr, "retired pool is recycled");
        // While `second` is live the cache must hand out a different pool.
        let third = cp.acquire();
        assert_ne!(Arc::as_ptr(&third), Arc::as_ptr(&second));
        // Recycled pools behave like fresh restores.
        let session = Session::new(third, SessionConfig::default());
        let target = (spec.recover)(&session).unwrap();
        let v = session.view(ThreadId(0));
        assert_eq!(
            target.exec(&v, &Op::Get { key: 10 }).unwrap(),
            OpResult::Missing
        );
    }

    #[test]
    fn acquire_while_the_pool_is_held_materializes_a_fresh_one() {
        let spec = target_spec("P-CLHT").unwrap();
        let cp = Checkpoint::create(&spec).unwrap();
        let held = cp.acquire();
        let baseline = images(&held);
        dirty(&spec, Arc::clone(&held), 7);
        let fresh = cp.acquire();
        assert_ne!(Arc::as_ptr(&fresh), Arc::as_ptr(&held));
        assert_eq!(images(&fresh), baseline, "fresh pool equals the checkpoint");
        assert_ne!(images(&held), baseline, "the held pool is left alone");
    }

    #[test]
    fn checkpoints_work_for_every_target() {
        let builtins = pmrace_targets::all_targets().into_iter().map(|s| (s, true));
        let lockfree = pmrace_lockfree::lockfree_specs()
            .into_iter()
            .map(|s| (s, false));
        for (spec, keyed) in builtins.chain(lockfree) {
            let cp = Checkpoint::create(&spec).unwrap();
            let pool = cp.acquire();
            let session = Session::new(pool, SessionConfig::default());
            let target = (spec.recover)(&session).unwrap();
            let v = session.view(ThreadId(0));
            let insert = target.exec(&v, &Op::Insert { key: 3, value: 5 });
            let get = target.exec(&v, &Op::Get { key: 3 });
            if keyed {
                // The Table 1 key-value stores keep what they are given.
                assert_eq!(insert.unwrap(), OpResult::Done, "target {}", spec.name);
                assert_eq!(get.unwrap(), OpResult::Found(5), "target {}", spec.name);
            } else {
                assert!(insert.is_ok() && get.is_ok(), "target {}", spec.name);
            }
        }
    }

    #[test]
    fn a_target_that_leaves_unpersisted_stores_gets_no_checkpoint() {
        struct Unflushed;
        impl pmrace_api::Target for Unflushed {
            fn name(&self) -> &'static str {
                "unflushed-init"
            }
            fn exec(&self, _: &pmrace_runtime::PmView, _: &Op) -> Result<OpResult, RtError> {
                Ok(OpResult::Done)
            }
        }
        // Stores its header without a flush: a crash right after `init`
        // would lose it.
        fn init(session: &Arc<Session>) -> Result<Arc<dyn pmrace_api::Target>, RtError> {
            session.pool().store_u64(64, 7, ThreadId(0), SiteTag(1))?;
            Ok(Arc::new(Unflushed))
        }
        let spec = TargetSpec::new("unflushed-init", init, init, PoolOpts::small);
        assert!(matches!(
            Checkpoint::create(&spec),
            Err(RtError::Pmem(PmemError::InvalidImage { .. }))
        ));
    }

    #[test]
    fn the_spare_slot_reuses_only_idle_pools() {
        // A slot of its own: other tests use the process-wide one.
        let slot = SpareSlot::default();
        let src = Pool::new(PoolOpts::with_size(1 << 16));
        src.ntstore_u64(64, 5, ThreadId(0), SiteTag(1)).unwrap();
        let first = src.crash_image().unwrap();
        src.ntstore_u64(128, 6, ThreadId(0), SiteTag(1)).unwrap();
        let second = src.crash_image().unwrap();

        let (a, reused) = slot.take(&first).unwrap();
        assert!(!reused, "an empty slot builds a pool");
        a.store_u64(4096, 9, ThreadId(0), SiteTag(2)).unwrap();
        // A pool in use is never handed out twice, nor reset under its user.
        let (b, reused) = slot.take(&second).unwrap();
        assert!(!Arc::ptr_eq(&a, &b) && !reused);
        assert_eq!(a.load_u64(4096).unwrap().0, 9);
        assert_eq!(b.load_u64(128).unwrap().0, 6);
        // The slot keeps the pool it had; the overlapping run's is freed.
        let kept = Arc::as_ptr(&a);
        let overlapping = Arc::downgrade(&b);
        drop((a, b));
        assert!(overlapping.upgrade().is_none());
        // An idle pool of the matching size is reset and reused.
        let (c, reused) = slot.take(&second).unwrap();
        assert!(reused);
        assert_eq!(Arc::as_ptr(&c), kept, "the idle pool is reused");
        assert_eq!(c.crash_image().unwrap(), second);
        assert_eq!(c.load_u64(128).unwrap().0, 6);
        assert_eq!(
            c.load_u64(4096).unwrap().0,
            0,
            "the last run's store is gone"
        );
        drop(c);
        // The formatted image is one more image: the same pool, all zero.
        let (f, reused) = slot.take(&CrashImage::formatted(1 << 16)).unwrap();
        assert!(reused);
        assert_eq!(Arc::as_ptr(&f), kept);
        assert_eq!(f.load_u64(128).unwrap().0, 0);
        assert_eq!(
            f.crash_image().unwrap().cache_key(),
            Pool::new(PoolOpts::with_size(1 << 16))
                .crash_image()
                .unwrap()
                .cache_key(),
            "a formatted spare captures like a new pool"
        );
        let retired = Arc::downgrade(&f);
        drop(f);
        // Another size: the idle pool is freed and its replacement kept.
        let other = Pool::new(PoolOpts::with_size(1 << 12))
            .crash_image()
            .unwrap();
        let (d, reused) = slot.take(&other).unwrap();
        assert!(retired.upgrade().is_none(), "the old-size pool is freed");
        assert!(!reused);
        assert_eq!(d.size(), 1 << 12);
        let replacement = Arc::as_ptr(&d);
        drop(d);
        assert_eq!(Arc::as_ptr(&slot.take(&other).unwrap().0), replacement);
    }
}
