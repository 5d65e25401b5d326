//! In-memory pool checkpoints (§5, Fig. 10).
//!
//! `libpmemobj` pool initialization is expensive; PMRace initializes the
//! pool once, keeps one in-memory copy, and starts every campaign from that
//! copy — the AFL++ fork-server idea without the fork. Campaigns restored
//! from a checkpoint reopen the target through its recovery path (the
//! process-side state is rebuilt, as a forked child would rebuild it).

use std::sync::Arc;

use parking_lot::Mutex;
use pmrace_api::TargetSpec;
use pmrace_pmem::{Pool, PoolOpts, PoolSnapshot, GRANULE};
use pmrace_runtime::{RtError, Session, SessionConfig};
use pmrace_telemetry as telemetry;

/// A reusable snapshot of a freshly initialized target pool.
#[derive(Debug)]
pub struct Checkpoint {
    snapshot: PoolSnapshot,
    /// Pool retired by the previous campaign, kept for allocation reuse:
    /// [`Checkpoint::acquire`] overwrites it in place instead of
    /// allocating a fresh multi-megabyte pool per campaign.
    cache: Mutex<Option<Arc<Pool>>>,
}

impl Checkpoint {
    /// Pay the pool + target initialization cost once and capture the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates target initialization errors.
    pub fn create(spec: &TargetSpec) -> Result<Self, RtError> {
        let _span = telemetry::span(telemetry::Phase::CheckpointCreate);
        telemetry::add(telemetry::Counter::CheckpointCreates, 1);
        let pool = Arc::new(Pool::new((spec.pool)()));
        let session = Session::new(
            pool,
            SessionConfig {
                capture_crash_images: false,
                ..SessionConfig::default()
            },
        );
        let _target = (spec.init)(&session)?;
        Ok(Checkpoint {
            snapshot: session.pool().snapshot(),
            cache: Mutex::new(None),
        })
    }

    /// A pool holding the checkpointed image, for one campaign.
    ///
    /// Recycles the pool the previous `acquire` handed out when nothing
    /// else still references it (campaigns hand their pool back simply by
    /// dropping the session): the pool is reset in place, copying back
    /// only the granules the last campaign dirtied (O(dirty) instead of
    /// O(pool size)), or the whole image once the dirty set exceeds a
    /// quarter of the pool. A pool still held elsewhere is left alone and
    /// a fresh one is materialized from the checkpoint instead.
    #[must_use]
    pub fn acquire(&self) -> Arc<Pool> {
        let _span = telemetry::span(telemetry::Phase::CheckpointRestore);
        telemetry::add(telemetry::Counter::CheckpointRestores, 1);
        let mut cache = self.cache.lock();
        if let Some(pool) = cache.as_ref().filter(|p| Arc::strong_count(p) == 1) {
            let max_dirty = self.snapshot.volatile().len() / GRANULE / 4;
            pool.restore_delta(&self.snapshot, max_dirty)
                .expect("cached pool was materialized from this checkpoint");
            telemetry::add(telemetry::Counter::CheckpointCacheHits, 1);
            return Arc::clone(pool);
        }
        let pool = Pool::new(PoolOpts::with_size(self.snapshot.volatile().len()));
        pool.restore(&self.snapshot)
            .expect("checkpoint snapshot matches its own pool size");
        let pool = Arc::new(pool);
        *cache = Some(Arc::clone(&pool));
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_pmem::ThreadId;
    use pmrace_targets::{target_spec, Op, OpResult};

    /// Run one insert against `pool` through the target's recovery path,
    /// dirtying it the way a campaign would.
    fn dirty(spec: &TargetSpec, pool: Arc<Pool>, key: u64) {
        let session = Session::new(pool, SessionConfig::default());
        let target = (spec.recover)(&session).unwrap();
        let v = session.view(ThreadId(0));
        target.exec(&v, &Op::Insert { key, value: 2 }).unwrap();
    }

    /// Both images of `pool`: volatile and persistent bytes.
    fn images(pool: &Pool) -> (Vec<u8>, Vec<u8>) {
        (
            pool.snapshot().volatile().to_vec(),
            pool.crash_image().unwrap().bytes().to_vec(),
        )
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
        for round in 0..3 {
            dirty(&spec, Arc::clone(&pool), round);
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
        for spec in pmrace_targets::all_targets() {
            let cp = Checkpoint::create(&spec).unwrap();
            let pool = cp.acquire();
            let session = Session::new(pool, SessionConfig::default());
            let target = (spec.recover)(&session).unwrap();
            let v = session.view(ThreadId(0));
            assert_eq!(
                target.exec(&v, &Op::Insert { key: 3, value: 5 }).unwrap(),
                OpResult::Done,
                "target {}",
                spec.name
            );
            assert_eq!(
                target.exec(&v, &Op::Get { key: 3 }).unwrap(),
                OpResult::Found(5),
                "target {}",
                spec.name
            );
        }
    }
}
