//! Equivalence contracts of the O(dirty) outer loop: the delta restore,
//! copy-on-write crash-image and crash-image reset paths must be
//! observationally identical to the full-copy paths they replace — same
//! volatile and persistent images, same granule metadata, same captured
//! crash state — for any workload.

use std::sync::Arc;

use pmrace::pmem::{
    CrashImage, GranuleMeta, Pool, PoolOpts, RestoreMode, SiteTag, ThreadId, GRANULE,
};
use pmrace::{Session, SessionConfig};
use pmrace_runtime::site;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const T0: ThreadId = ThreadId(0);
const TAG: SiteTag = SiteTag(1);

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A pseudo-random but fully deterministic campaign-shaped workload: a mix
/// of stores, non-temporal stores, flushes, and fences from four threads.
fn apply_workload(p: &Pool, round: u64) {
    let mut s = 0x5eed ^ round;
    let granules = p.size() as u64 / 8;
    for _ in 0..200 {
        let r = lcg(&mut s);
        let off = (r % granules) * 8;
        let t = ThreadId((r >> 8) as u32 % 4);
        let tag = SiteTag((r % 100) as u32 + 1);
        match r % 5 {
            0 | 1 => {
                p.store_u64(off, r, t, tag).unwrap();
            }
            2 => {
                p.ntstore_u64(off, r, t, tag).unwrap();
            }
            3 => {
                p.store_u64(off, r, t, tag).unwrap();
                p.clwb(off, 8, t).unwrap();
            }
            _ => p.sfence(t).unwrap(),
        }
    }
    p.persist(0, 64, T0).unwrap();
}

/// Full observable-state comparison: persistent image, volatile image, and
/// per-granule metadata (state, writer, tag, sequence), plus the derived
/// views campaigns consume.
fn assert_pools_identical(a: &Pool, b: &Pool, when: &str) {
    assert_eq!(a.size(), b.size());
    assert_eq!(
        a.crash_image().unwrap(),
        b.crash_image().unwrap(),
        "persistent images differ {when}"
    );
    for off in (0..a.size() as u64).step_by(8) {
        // The tail granule of an odd-sized pool is partial.
        let n = 8.min(a.size() - off as usize);
        let (mut wa, mut wb) = ([0u8; 8], [0u8; 8]);
        a.load(off, &mut wa[..n]).unwrap();
        b.load(off, &mut wb[..n]).unwrap();
        assert_eq!(wa, wb, "volatile word at {off} differs {when}");
        assert_eq!(
            a.meta_at(off),
            b.meta_at(off),
            "granule meta at {off} differs {when}"
        );
    }
    assert_eq!(
        a.unpersisted_regions(),
        b.unpersisted_regions(),
        "unpersisted regions differ {when}"
    );
    assert_eq!(a.store_seq(), b.store_seq(), "store seq differs {when}");
}

#[test]
fn restore_delta_is_byte_identical_to_full_restore() {
    let src = Pool::new(PoolOpts::with_size(1 << 16));
    for k in 0..64u64 {
        src.ntstore_u64(k * 72, k + 1, T0, TAG).unwrap();
    }
    let snap = src.snapshot();
    let full = Pool::new(PoolOpts::with_size(src.size()));
    full.restore(&snap).unwrap();
    let delta = Pool::new(PoolOpts::with_size(src.size()));
    delta.restore(&snap).unwrap();

    for round in 0..6u64 {
        apply_workload(&full, round);
        apply_workload(&delta, round);
        assert_pools_identical(&full, &delta, "after identical workloads");
        full.restore(&snap).unwrap();
        let mode = delta.restore_delta(&snap, usize::MAX).unwrap();
        assert!(
            matches!(mode, RestoreMode::Delta { granules } if granules > 0),
            "round {round}: expected the delta path, got {mode:?}"
        );
        assert_pools_identical(&full, &delta, "after full vs delta restore");
    }

    // The threshold fallback (dirty set too large for delta) must be just
    // as invisible.
    apply_workload(&full, 99);
    apply_workload(&delta, 99);
    full.restore(&snap).unwrap();
    assert_eq!(delta.restore_delta(&snap, 0).unwrap(), RestoreMode::Full);
    assert_pools_identical(&full, &delta, "after threshold fallback");
}

/// Dense reference for a capture taken right now, built without the
/// overlay path: the snapshot's persistent bytes with `ranges` patched
/// from its volatile bytes.
fn dense_reference(pool: &Pool, ranges: &[(u64, usize)]) -> Vec<u8> {
    let snap = pool.snapshot();
    let mut bytes = snap.persistent().to_vec();
    for &(off, len) in ranges {
        let r = off as usize..off as usize + len;
        bytes[r.clone()].copy_from_slice(&snap.volatile()[r]);
    }
    bytes
}

#[test]
fn cow_crash_images_match_eager_captures_through_the_session() {
    // Identical starting state built two ways: `cow` is restored from a
    // snapshot (so captures overlay the snapshot's base), `eager` never
    // met a snapshot (so captures overlay the all-zero base of a new
    // pool). The same instrumented workload must produce byte-identical
    // crash images at every capture point, each equal to a dense copy of
    // the persistent image taken at the same point.
    let init = |p: &Pool| {
        for k in 0..32u64 {
            p.ntstore_u64(4096 + k * 8, k + 1, T0, TAG).unwrap();
        }
    };
    let src = Pool::new(PoolOpts::with_size(1 << 16));
    init(&src);
    let snap = src.snapshot();
    let cow = Arc::new(Pool::new(PoolOpts::with_size(src.size())));
    cow.restore(&snap).unwrap();
    let eager = Arc::new(Pool::new(PoolOpts::with_size(src.size())));
    init(&eager);

    let run = |pool: &Arc<Pool>| -> Vec<(CrashImage, CrashImage)> {
        let session = Session::new(Arc::clone(pool), SessionConfig::default());
        let a = session.view(ThreadId(0));
        let b = session.view(ThreadId(1));
        let mut images = Vec::new();
        for i in 0..24u64 {
            let off = 4096 + (i % 40) * 8;
            match i % 4 {
                0 => a.store_u64(off, i + 100, site!("equiv.w")).unwrap(),
                1 => {
                    let _ = b.load_u64(off, site!("equiv.r")).unwrap();
                }
                2 => a.clwb(off, 8, site!("equiv.flush")).unwrap(),
                _ => a.sfence().unwrap(),
            }
            let dense = CrashImage::from_bytes(dense_reference(pool, &[]));
            images.push((pool.crash_image().unwrap(), dense));
        }
        images
    };

    let cow_images = run(&cow);
    let eager_images = run(&eager);
    assert_eq!(cow_images.len(), eager_images.len());
    for (i, ((c, c_dense), (e, e_dense))) in cow_images.iter().zip(&eager_images).enumerate() {
        assert_eq!(c, e, "crash image at capture point {i} diverged");
        assert_eq!(c, c_dense, "restored pool's capture {i} != dense copy");
        assert_eq!(e, e_dense, "new pool's capture {i} != dense copy");
        assert_eq!(e_dense.overlay_bytes(), 0, "the reference is dense");
    }
    for (name, images) in [("restored", &cow_images), ("new", &eager_images)] {
        assert!(
            images.iter().any(|(c, _)| c.overlay_bytes() > 0),
            "{name} pool never took the copy-on-write capture path"
        );
    }
}

/// One random PM operation on `p`: store (aligned, straddling, or over the
/// tail of an odd-sized pool), non-temporal store, CAS, `clwb`, `sfence`
/// or eviction, from one of four threads.
fn random_op(p: &Pool, rng: &mut StdRng) {
    let size = p.size() as u64;
    let t = ThreadId(rng.random_range(0..4u32));
    let tag = SiteTag(rng.random_range(1..50u32));
    let word = rng.random_range(0..size / 8) * 8;
    let v: u64 = rng.random();
    match rng.random_range(0..9u32) {
        0 | 1 => {
            p.store_u64(word, v, t, tag).unwrap();
        }
        2 => {
            p.ntstore_u64(word, v, t, tag).unwrap();
        }
        3 => {
            let cur = p.load_u64(word).unwrap().0;
            let expected = if rng.random_bool(0.7) { cur } else { cur ^ 1 };
            p.cas_u64(word, expected, v, t, tag).unwrap();
        }
        4 => {
            // Unaligned, possibly line-straddling, possibly the partial
            // tail granule of an odd-sized pool.
            let len = rng.random_range(1..24usize);
            let off = rng.random_range(0..=size - len as u64);
            p.store(off, &v.to_le_bytes().repeat(3)[..len], t, tag)
                .unwrap();
        }
        5 | 6 => p
            .clwb(
                word,
                rng.random_range(1..130usize).min((size - word) as usize),
                t,
            )
            .unwrap(),
        7 => p.sfence(t).unwrap(),
        _ => {
            let _ = p.evict_random(rng);
        }
    }
}

/// Random forced-persist ranges for `crash_image_persisting`.
fn random_ranges(size: u64, rng: &mut StdRng) -> Vec<(u64, usize)> {
    (0..rng.random_range(0..4u32))
        .map(|_| {
            let len = rng.random_range(0..20usize);
            (rng.random_range(0..=size - len as u64), len)
        })
        .collect()
}

/// Run `ops` random operations on `p`, capturing `crash_image()` or
/// `crash_image_persisting()` at random points; each capture is paired
/// with its dense reference.
fn capture_run(p: &Pool, ops: usize, rng: &mut StdRng, out: &mut Vec<(CrashImage, Vec<u8>)>) {
    for _ in 0..ops {
        random_op(p, rng);
        if rng.random_ratio(1, 6) {
            let ranges = random_ranges(p.size() as u64, rng);
            let img = if ranges.is_empty() {
                p.crash_image().unwrap()
            } else {
                p.crash_image_persisting(&ranges).unwrap()
            };
            out.push((img, dense_reference(p, &ranges)));
        }
    }
}

/// The recovery-time view of a crash image, checked without the reset
/// path's own bookkeeping: every byte of the volatile image equals the
/// surviving bytes, every granule carries default metadata, nothing is
/// unpersisted, the store counter is 0, and a new capture equals the
/// surviving bytes.
fn assert_reset_to(p: &Pool, expected: &[u8], when: &str) {
    let mut buf = vec![0u8; expected.len()];
    p.load(0, &mut buf).unwrap();
    assert!(buf == expected, "volatile image differs {when}");
    for off in (0..p.size() as u64).step_by(GRANULE) {
        assert_eq!(
            p.meta_at(off),
            GranuleMeta::default(),
            "granule meta at {off} {when}"
        );
    }
    assert!(
        p.unpersisted_regions().is_empty(),
        "unpersisted data {when}"
    );
    assert_eq!(p.store_seq(), 0, "store seq {when}");
    assert!(
        p.crash_image().unwrap().bytes() == expected,
        "persistent image differs {when}"
    );
}

#[test]
fn crash_image_resets_match_an_independent_oracle() {
    // The last size leaves a partial tail granule.
    for (seed, size) in [(1u64, 1usize << 15), (2, 1 << 15), (3, (1 << 14) + 13)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images = Vec::new();
        // Captures over the all-zero base of a new pool (the delta path
        // for a reset pool on the same base)...
        let fresh = Pool::new(PoolOpts::with_size(size));
        capture_run(&fresh, 300, &mut rng, &mut images);
        // ...over a checkpoint's base (full on the first reset, then
        // delta)...
        let src = Pool::new(PoolOpts::with_size(size));
        capture_run(&src, 100, &mut rng, &mut images);
        let snap = src.snapshot();
        let restored = Pool::new(PoolOpts::with_size(size));
        restored.restore(&snap).unwrap();
        capture_run(&restored, 300, &mut rng, &mut images);
        // ...dense captures past half the pool, and foreign dense bases.
        let wide = Pool::new(PoolOpts::with_size(size));
        wide.store(0, &vec![0x5A; size * 3 / 4], ThreadId(0), SiteTag(1))
            .unwrap();
        capture_run(&wide, 60, &mut rng, &mut images);
        let foreign: Vec<_> = images
            .iter()
            .step_by(7)
            .map(|(img, bytes)| (CrashImage::from_bytes(img.bytes().to_vec()), bytes.clone()))
            .collect();
        images.extend(foreign);
        for (i, (img, bytes)) in images.iter().enumerate() {
            assert!(
                img.bytes() == &bytes[..],
                "seed {seed}: capture {i} != dense"
            );
        }

        // Fisher-Yates shuffle, then reset one long-lived pool to every
        // image, dirtying it between resets and sometimes restoring it
        // from the checkpoint, whose base some images share but whose
        // volatile image and metadata differ from it.
        for i in (1..images.len()).rev() {
            images.swap(i, rng.random_range(0..=i));
        }
        let pool = Pool::new(PoolOpts::with_size(size));
        let checkpoint = Pool::new(PoolOpts::with_size(size));
        checkpoint.restore(&snap).unwrap();
        let (mut delta, mut full) = (0, 0);
        for (i, (img, bytes)) in images.iter().enumerate() {
            if rng.random_ratio(1, 5) {
                pool.restore_delta(&snap, usize::MAX).unwrap();
                assert_pools_identical(&pool, &checkpoint, "after a checkpoint restore");
            }
            for _ in 0..rng.random_range(0..40u32) {
                random_op(&pool, &mut rng);
            }
            match pool.restore_crash_image(img).unwrap() {
                RestoreMode::Delta { .. } => delta += 1,
                RestoreMode::Full => full += 1,
            }
            assert_reset_to(&pool, bytes, &format!("seed {seed}, reset {i}"));
        }
        assert!(
            delta > 0 && full > 0,
            "seed {seed}: delta {delta}, full {full}"
        );
        // A pool rebuilt from scratch holds the same state.
        let (img, bytes) = images.last().unwrap();
        assert_reset_to(&Pool::from_crash_image(img).unwrap(), bytes, "rebuilt");
    }
}
