//! Equivalence contracts of the O(dirty) outer loop: the copy-on-write
//! crash-image and delta reset paths must be observationally identical to
//! the full-copy paths they replace — same volatile and persistent images,
//! same granule metadata, same captured crash state — for any workload.

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

/// The reference for the captures of `p`, which was just built or reset
/// (its two images are equal): a pool holding the same bytes whose first
/// three quarters are rewritten with themselves by one non-temporal store.
/// That changes no byte but stamps over half the pool, so every later
/// capture from the twin takes the dense path. Driven by the same
/// operations as `p`, its captures are independent dense references for
/// `p`'s copy-on-write ones.
fn dense_twin(p: &Pool) -> Pool {
    let mut bytes = vec![0u8; p.size()];
    p.load(0, &mut bytes).unwrap();
    let twin = Pool::from_crash_image(&CrashImage::from_bytes(bytes.clone())).unwrap();
    twin.ntstore(0, &bytes[..p.size() * 3 / 4], T0, TAG)
        .unwrap();
    twin
}

/// A capture of `p`: `crash_image()`, or `crash_image_persisting(ranges)`.
fn capture(p: &Pool, ranges: &[(u64, usize)]) -> CrashImage {
    if ranges.is_empty() {
        p.crash_image().unwrap()
    } else {
        p.crash_image_persisting(ranges).unwrap()
    }
}

#[test]
fn cow_crash_images_match_eager_captures_through_the_session() {
    // Identical starting state built two ways: `cow` is reset to a
    // checkpoint-like dense image (so captures overlay that image's base),
    // `eager` never met one (so captures overlay the all-zero base of a
    // new pool). The same instrumented workload must produce
    // byte-identical crash images at every capture point, each equal to
    // the dense capture of a twin taken at the same point.
    let init = |p: &Pool| {
        for k in 0..32u64 {
            p.ntstore_u64(4096 + k * 8, k + 1, T0, TAG).unwrap();
        }
    };
    let src = Pool::new(PoolOpts::with_size(1 << 16));
    init(&src);
    // Only non-temporal stores: the volatile image is the persistent one.
    let mut bytes = vec![0u8; src.size()];
    src.load(0, &mut bytes).unwrap();
    let cow = Arc::new(Pool::from_crash_image(&CrashImage::from_bytes(bytes)).unwrap());
    let eager = Arc::new(Pool::new(PoolOpts::with_size(src.size())));
    init(&eager);
    let (cow_twin, eager_twin) = (Arc::new(dense_twin(&cow)), Arc::new(dense_twin(&eager)));

    let run = |pool: &Arc<Pool>| -> Vec<CrashImage> {
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
            images.push(pool.crash_image().unwrap());
        }
        images
    };

    let (cow_images, eager_images) = (run(&cow), run(&eager));
    let (cow_dense, eager_dense) = (run(&cow_twin), run(&eager_twin));
    assert_eq!(cow_images.len(), eager_images.len());
    for (i, (c, e)) in cow_images.iter().zip(&eager_images).enumerate() {
        assert_eq!(c, e, "crash image at capture point {i} diverged");
        assert_eq!(
            c, &cow_dense[i],
            "reset pool's capture {i} != dense capture"
        );
        assert_eq!(
            e, &eager_dense[i],
            "new pool's capture {i} != dense capture"
        );
        assert_eq!(cow_dense[i].overlay_bytes(), 0, "the reference is dense");
        assert_eq!(eager_dense[i].overlay_bytes(), 0, "the reference is dense");
    }
    for (name, images) in [("reset", &cow_images), ("new", &eager_images)] {
        assert!(
            images.iter().any(|c| c.overlay_bytes() > 0),
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

/// Run `ops` random operations on `p` and on its dense twin, capturing
/// `crash_image()` or `crash_image_persisting()` at random points; each
/// capture of `p` is paired with the twin's dense capture's bytes.
fn capture_run(
    p: &Pool,
    twin: &Pool,
    ops: usize,
    rng: &mut StdRng,
    out: &mut Vec<(CrashImage, Vec<u8>)>,
) {
    for _ in 0..ops {
        random_op(twin, &mut rng.clone());
        random_op(p, rng);
        if rng.random_ratio(1, 6) {
            let ranges = random_ranges(p.size() as u64, rng);
            let dense = capture(twin, &ranges);
            assert_eq!(dense.overlay_bytes(), 0, "the reference is dense");
            out.push((capture(p, &ranges), dense.bytes().to_vec()));
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
        capture_run(&fresh, &dense_twin(&fresh), 300, &mut rng, &mut images);
        // ...over a checkpoint's base, a dense image of its own (full on
        // the first reset, then delta)...
        let src = Pool::new(PoolOpts::with_size(size));
        let src_twin = dense_twin(&src);
        capture_run(&src, &src_twin, 100, &mut rng, &mut images);
        let checkpoint = CrashImage::from_bytes(src_twin.crash_image().unwrap().bytes().to_vec());
        let restored = Pool::from_crash_image(&checkpoint).unwrap();
        capture_run(
            &restored,
            &dense_twin(&restored),
            300,
            &mut rng,
            &mut images,
        );
        // ...dense captures past half the pool, and foreign dense bases.
        let wide = Pool::new(PoolOpts::with_size(size));
        let wide_twin = dense_twin(&wide);
        for p in [&wide, &wide_twin] {
            p.store(0, &vec![0x5A; size * 3 / 4], ThreadId(0), SiteTag(1))
                .unwrap();
        }
        capture_run(&wide, &wide_twin, 60, &mut rng, &mut images);
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
        // image, dirtying it between resets and sometimes resetting it to
        // the checkpoint, whose base some images share.
        for i in (1..images.len()).rev() {
            images.swap(i, rng.random_range(0..=i));
        }
        let pool = Pool::new(PoolOpts::with_size(size));
        let (mut delta, mut full) = (0, 0);
        for (i, (img, bytes)) in images.iter().enumerate() {
            if rng.random_ratio(1, 5) {
                pool.restore_crash_image(&checkpoint).unwrap();
                assert_reset_to(&pool, checkpoint.bytes(), "after a checkpoint reset");
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
