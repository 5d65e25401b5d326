//! Property-based tests for the PM substrate's crash-consistency invariants.

use std::sync::Arc;

use pmrace_pmem::{CrashImage, PersistState, PmAllocator, Pool, PoolOpts, SiteTag, ThreadId};
use proptest::prelude::*;

const POOL: usize = 1 << 16;
const T0: ThreadId = ThreadId(0);
const T1: ThreadId = ThreadId(1);

/// One step of an arbitrary PM instruction stream.
#[derive(Debug, Clone)]
enum Op {
    Store { off: u64, val: u64, tid: u8 },
    Nt { off: u64, val: u64, tid: u8 },
    Clwb { off: u64, tid: u8 },
    Sfence { tid: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let off = (0u64..(POOL as u64 / 8 - 1)).prop_map(|g| g * 8);
    prop_oneof![
        (off.clone(), any::<u64>(), 0u8..2).prop_map(|(off, val, tid)| Op::Store { off, val, tid }),
        (off.clone(), any::<u64>(), 0u8..2).prop_map(|(off, val, tid)| Op::Nt { off, val, tid }),
        (off, 0u8..2).prop_map(|(off, tid)| Op::Clwb { off, tid }),
        (0u8..2).prop_map(|tid| Op::Sfence { tid }),
    ]
}

fn tid(t: u8) -> ThreadId {
    if t == 0 {
        T0
    } else {
        T1
    }
}

/// Run `op` on `pool`; returns the stored `(offset, value)` for stores.
fn apply(pool: &Pool, op: &Op) -> Option<(u64, u64)> {
    match *op {
        Op::Store { off, val, tid: t } => {
            pool.store_u64(off, val, tid(t), SiteTag(1)).unwrap();
            Some((off, val))
        }
        Op::Nt { off, val, tid: t } => {
            pool.ntstore_u64(off, val, tid(t), SiteTag(1)).unwrap();
            Some((off, val))
        }
        Op::Clwb { off, tid: t } => {
            pool.clwb(off, 8, tid(t)).unwrap();
            None
        }
        Op::Sfence { tid: t } => {
            pool.sfence(tid(t)).unwrap();
            None
        }
    }
}

/// One step of a pool's life before it goes back to the formatted image:
/// a PM instruction, or a reset that moves the pool onto another base.
#[derive(Debug, Clone)]
enum Life {
    Pm(Op),
    /// Capture a crash image for the later resets.
    Capture,
    /// Reset to the latest capture (same base: the delta path).
    Restore,
    /// Reset to a dense copy of the latest capture (a base of its own).
    RestoreDense,
}

fn life_strategy() -> impl Strategy<Value = Life> {
    prop_oneof![
        op_strategy().prop_map(Life::Pm),
        op_strategy().prop_map(Life::Pm),
        op_strategy().prop_map(Life::Pm),
        (0u8..3).prop_map(|k| match k {
            0 => Life::Capture,
            1 => Life::Restore,
            _ => Life::RestoreDense,
        }),
    ]
}

/// Everything observable about a pool: per granule its load value,
/// `LoadInfo` and metadata, then its crash image (bytes and cache key),
/// store counter and unpersisted count.
fn assert_observably_equal(pool: &Pool, reference: &Pool) -> Result<(), TestCaseError> {
    for off in (0..POOL as u64).step_by(8) {
        prop_assert_eq!(
            pool.load_u64(off).unwrap(),
            reference.load_u64(off).unwrap()
        );
        prop_assert_eq!(pool.meta_at(off), reference.meta_at(off));
    }
    let (img, want) = (
        pool.crash_image().unwrap(),
        reference.crash_image().unwrap(),
    );
    prop_assert_eq!(img.bytes(), want.bytes());
    prop_assert_eq!(img.cache_key(), want.cache_key());
    prop_assert_eq!(pool.store_seq(), reference.store_seq());
    prop_assert_eq!(
        pool.unpersisted_granules(),
        reference.unpersisted_granules()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The volatile image always reflects the program order of stores: a
    /// load returns the latest store to that word, regardless of flushes.
    #[test]
    fn volatile_image_is_store_order(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let pool = Pool::new(PoolOpts::with_size(POOL));
        let mut model = std::collections::HashMap::<u64, u64>::new();
        for op in &ops {
            if let Some((off, val)) = apply(&pool, op) {
                model.insert(off, val);
            }
        }
        for (&off, &val) in &model {
            prop_assert_eq!(pool.load_u64(off).unwrap().0, val);
        }
    }

    /// Crash images only ever contain values that were present in the
    /// volatile image at some point (no invented bytes), and every granule
    /// that was persisted via clwb+sfence or ntstore holds a value at least
    /// as old as that persist point.
    #[test]
    fn crash_image_holds_only_written_values(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let pool = Pool::new(PoolOpts::with_size(POOL));
        // All values ever stored per word (including initial zero).
        let mut history = std::collections::HashMap::<u64, Vec<u64>>::new();
        for op in &ops {
            if let Some((off, val)) = apply(&pool, op) {
                history.entry(off).or_default().push(val);
            }
        }
        let img = pool.crash_image().unwrap();
        for (&off, vals) in &history {
            let surviving = img.load_u64(off).unwrap();
            prop_assert!(
                surviving == 0 || vals.contains(&surviving),
                "granule {off:#x} survived with {surviving}, never stored"
            );
        }
    }

    /// A granule reported `Clean` always agrees between the volatile and
    /// persistent images; `Dirty`/`Flushing` granules may disagree.
    #[test]
    fn clean_granules_agree_across_images(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let pool = Pool::new(PoolOpts::with_size(POOL));
        let mut touched = std::collections::HashSet::new();
        for op in &ops {
            if let Some((off, _val)) = apply(&pool, op) {
                touched.insert(off);
            }
        }
        let img = pool.crash_image().unwrap();
        for &off in &touched {
            if pool.meta_at(off).state == PersistState::Clean {
                prop_assert_eq!(
                    pool.load_u64(off).unwrap().0,
                    img.load_u64(off).unwrap(),
                    "clean granule {:#x} disagrees",
                    off
                );
            }
        }
    }

    /// Resetting a used pool to `CrashImage::formatted` leaves it
    /// observably equal to `Pool::new` (the reference), both right after
    /// the reset and after the same further instructions on each. The
    /// life before the reset mixes PM instructions with crash-image resets,
    /// so the formatted reset runs from the all-zero base (delta path) and
    /// from a dense image's base (full path).
    #[test]
    fn formatted_reset_equals_a_new_pool(life in prop::collection::vec(life_strategy(), 1..80),
                                         tail in prop::collection::vec(op_strategy(), 0..20)) {
        let pool = Pool::new(PoolOpts::with_size(POOL));
        let mut latest = pool.crash_image().unwrap();
        for step in &life {
            match step {
                Life::Pm(op) => {
                    apply(&pool, op);
                }
                Life::Capture => latest = pool.crash_image().unwrap(),
                Life::Restore => {
                    pool.restore_crash_image(&latest).unwrap();
                }
                Life::RestoreDense => {
                    let dense = CrashImage::from_bytes(latest.bytes().to_vec());
                    pool.restore_crash_image(&dense).unwrap();
                }
            }
        }
        pool.restore_crash_image(&CrashImage::formatted(POOL)).unwrap();
        let reference = Pool::new(PoolOpts::with_size(POOL));
        assert_observably_equal(&pool, &reference)?;
        for op in &tail {
            apply(&pool, op);
            apply(&reference, op);
        }
        assert_observably_equal(&pool, &reference)?;
    }

    /// Allocations never overlap, regardless of the alloc/free sequence.
    #[test]
    fn allocations_never_overlap(sizes in prop::collection::vec(1usize..512, 1..40),
                                 free_mask in prop::collection::vec(any::<bool>(), 1..40)) {
        let pool = Arc::new(Pool::new(PoolOpts::with_size(1 << 20)));
        let alloc = PmAllocator::format(pool, T0).unwrap();
        let mut live: Vec<(u64, usize)> = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let off = alloc.alloc(size, T0).unwrap();
            for &(o, s) in &live {
                let disjoint = off + size as u64 <= o || o + s as u64 <= off;
                prop_assert!(disjoint, "alloc [{off:#x};{size}] overlaps [{o:#x};{s}]");
            }
            live.push((off, size));
            if free_mask.get(i).copied().unwrap_or(false) && !live.is_empty() {
                let (o, _) = live.swap_remove(0);
                alloc.free(o, T0).unwrap();
            }
        }
    }
}
