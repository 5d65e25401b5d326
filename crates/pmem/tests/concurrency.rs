//! Concurrency stress tests for the sharded pool: parallel stores on
//! disjoint cache lines must persist correctly, and whole-image operations
//! (`crash_image`) must stay linearizable while stores are in flight.

use std::sync::atomic::{AtomicBool, Ordering};

use pmrace_pmem::{Pool, PoolOpts, SiteTag, ThreadId, CACHE_LINE};

const THREADS: u64 = 8;
const LINES_PER_THREAD: u64 = 32;
const ROUNDS: u64 = 50;

fn thread_off(t: u64, line: u64) -> u64 {
    (t * LINES_PER_THREAD + line) * CACHE_LINE as u64
}

/// Every thread hammers its own cache lines (store + clwb + sfence); after
/// the storm, both the volatile image and the crash image hold each
/// thread's final values — nothing lost, nothing crossed between shards.
#[test]
fn disjoint_line_stores_persist_across_crash_image() {
    let pool = Pool::new(PoolOpts::with_size(1 << 20));
    let pool = &pool;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let tid = ThreadId(t as u32);
                let tag = SiteTag(t as u32 + 1);
                for round in 0..ROUNDS {
                    for line in 0..LINES_PER_THREAD {
                        let off = thread_off(t, line);
                        let value = (t << 32) | (line << 8) | round;
                        pool.store_u64(off, value, tid, tag).unwrap();
                        pool.persist(off, 8, tid).unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(pool.unpersisted_granules(), 0, "all stores were persisted");
    let image = pool.crash_image().unwrap();
    for t in 0..THREADS {
        for line in 0..LINES_PER_THREAD {
            let off = thread_off(t, line);
            let want = (t << 32) | (line << 8) | (ROUNDS - 1);
            assert_eq!(
                pool.load_u64(off).unwrap().0,
                want,
                "volatile t{t} line{line}"
            );
            assert_eq!(
                image.load_u64(off).unwrap(),
                want,
                "persistent t{t} line{line}"
            );
        }
    }
}

/// Whole-image reads taken while writers are mid-flight must observe a
/// consistent snapshot: each 8-byte word a thread writes is either its old
/// or its new value, never a torn mix (the shard locks serialize per line,
/// and `crash_image` locks every shard).
#[test]
fn crash_image_is_consistent_under_concurrent_writers() {
    let pool = Pool::new(PoolOpts::with_size(1 << 18));
    let pool = &pool;
    let stop = AtomicBool::new(false);
    let stop = &stop;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                let tid = ThreadId(t as u32);
                let tag = SiteTag(9);
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    for line in 0..8 {
                        let off = thread_off(t, line);
                        // Both words of the pair carry the same round value.
                        pool.ntstore_u64(off, round, tid, tag).unwrap();
                        pool.ntstore_u64(off + 8, round, tid, tag).unwrap();
                    }
                }
            });
        }
        s.spawn(move || {
            for _ in 0..40 {
                let image = pool.crash_image().unwrap();
                for t in 0..4u64 {
                    for line in 0..8 {
                        let off = thread_off(t, line);
                        let a = image.load_u64(off).unwrap();
                        let b = image.load_u64(off + 8).unwrap();
                        // ntstores land per word; the pair may straddle one
                        // round boundary but never more (each round rewrites
                        // both), so values are from the same or adjacent
                        // rounds — a torn shard copy would show arbitrary
                        // divergence.
                        assert!(
                            a.abs_diff(b) <= 1,
                            "t{t} line{line}: torn image words {a} vs {b}"
                        );
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
}

/// Concurrent mixed traffic (stores, loads, clwb/sfence, store_u64 CAS-free
/// path) across all shards never deadlocks and keeps the store sequence
/// monotonic with the number of stores issued.
#[test]
fn mixed_traffic_has_no_deadlocks_and_counts_stores() {
    let pool = Pool::new(PoolOpts::with_size(1 << 18));
    let pool = &pool;
    let seq_before = pool.store_seq();
    let stores_per_thread = 400u64;
    std::thread::scope(|s| {
        for t in 0..6u64 {
            s.spawn(move || {
                let tid = ThreadId(t as u32);
                let tag = SiteTag(3);
                for i in 0..stores_per_thread {
                    let off = thread_off(t % 4, i % 16) + (i % 2) * 8;
                    // Multi-line store every few iterations crosses shards.
                    if i % 8 == 0 {
                        let wide = [0xABu8; 128];
                        pool.store(off & !63, &wide, tid, tag).unwrap();
                    } else {
                        pool.store_u64(off, i, tid, tag).unwrap();
                    }
                    if i % 4 == 0 {
                        pool.clwb(off, 8, tid).unwrap();
                        pool.sfence(tid).unwrap();
                    }
                    let _ = pool.load_u64(off).unwrap();
                }
            });
        }
    });
    assert_eq!(pool.store_seq() - seq_before, 6 * stores_per_thread);
    // Whole-image ops still work after the storm.
    let _ = pool.unpersisted_regions();
    let _ = pool.crash_image().unwrap();
}
