//! Criterion micro-benchmarks: the per-access costs behind the evaluation
//! (instrumentation overhead, coverage updates, taint algebra, checkpoint
//! restore vs. pool initialization).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pmrace_core::checkpoint::Checkpoint;
use pmrace_core::OpMutator;
use pmrace_pmem::{Pool, PoolOpts, SiteTag, ThreadId};
use pmrace_runtime::coverage::{CoverageMap, Persistency};
use pmrace_runtime::{site, Session, SessionConfig, TaintSet};
use pmrace_targets::{target_spec, Op};

fn bench_pool_primitives(c: &mut Criterion) {
    let pool = Pool::new(PoolOpts::small());
    let t = ThreadId(0);
    let tag = SiteTag(1);
    let mut g = c.benchmark_group("pool");
    g.bench_function("store_u64", |b| {
        b.iter(|| {
            pool.store_u64(black_box(4096), black_box(7), t, tag)
                .unwrap()
        })
    });
    g.bench_function("load_u64", |b| {
        b.iter(|| black_box(pool.load_u64(black_box(4096)).unwrap()))
    });
    g.bench_function("store_persist", |b| {
        b.iter(|| {
            pool.store_u64(4096, 7, t, tag).unwrap();
            pool.persist(4096, 8, t).unwrap();
        })
    });
    g.bench_function("ntstore_u64", |b| {
        b.iter(|| {
            pool.ntstore_u64(black_box(4096), black_box(7), t, tag)
                .unwrap()
        })
    });
    g.sample_size(20);
    g.bench_function("crash_image", |b| {
        b.iter(|| black_box(pool.crash_image().unwrap()))
    });
    g.finish();
}

fn bench_instrumented_access(c: &mut Criterion) {
    let session = Session::new(
        Arc::new(Pool::new(PoolOpts::small())),
        SessionConfig {
            capture_crash_images: false,
            deadline: Duration::from_secs(3600),
            ..SessionConfig::default()
        },
    );
    let view = session.view(ThreadId(0));
    let s_store = site!("bench.store");
    let s_load = site!("bench.load");
    let mut g = c.benchmark_group("instrumented");
    g.bench_function("store_u64_hooked", |b| {
        b.iter(|| {
            view.store_u64(black_box(4096u64), black_box(7u64), s_store)
                .unwrap()
        })
    });
    g.bench_function("load_u64_hooked", |b| {
        b.iter(|| black_box(view.load_u64(black_box(4096u64), s_load).unwrap()))
    });
    g.bench_function("persist_hooked", |b| {
        b.iter(|| view.persist(4096u64, 8, s_store).unwrap())
    });
    g.finish();
}

fn bench_coverage(c: &mut Criterion) {
    let cov = CoverageMap::new();
    let s1 = site!("cov.a");
    let s2 = site!("cov.b");
    let mut g = c.benchmark_group("coverage");
    g.bench_function("alias_pair_record", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let (s, t) = if flip {
                (s1, ThreadId(0))
            } else {
                (s2, ThreadId(1))
            };
            black_box(cov.record_access(512, s, t, Persistency::Unpersisted))
        })
    });
    g.bench_function("branch_record", |b| {
        b.iter(|| black_box(cov.record_branch(s1)))
    });
    let other = cov.clone();
    g.sample_size(20);
    g.bench_function("merge_maps", |b| {
        b.iter(|| {
            let base = CoverageMap::new();
            black_box(base.merge_from(&other))
        })
    });
    g.finish();
}

/// Offset for iteration `i` of thread `t`, rotating over 64 cache lines that
/// are private per thread (`disjoint`) or shared by all threads.
fn contended_off(t: u64, i: u64, disjoint: bool) -> u64 {
    let line = if disjoint { t * 64 + (i % 64) } else { i % 64 };
    line * 64
}

/// Runs `f(t)` on each of `threads` scoped threads and waits for all.
fn fan_out<F: Fn(u64) + Sync>(threads: usize, f: F) {
    let f = &f;
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            s.spawn(move || f(t));
        }
    });
}

/// The contended hot path: pool stores/loads and coverage recording under
/// 1/4/8 threads on disjoint vs. overlapping cache lines. Each Criterion
/// iteration is one fan-out of `OPS` operations per thread, so ns/iter
/// tracks aggregate batch latency under contention.
fn bench_contended_hotpath(c: &mut Criterion) {
    const OPS: u64 = 2_000;
    let mut g = c.benchmark_group("contended");
    g.sample_size(10);
    for &threads in &[1usize, 4, 8] {
        for &disjoint in &[true, false] {
            let mode = if disjoint { "disjoint" } else { "overlapping" };

            let pool = Pool::new(PoolOpts::with_size(1 << 20));
            g.bench_function(&format!("store_u64/{threads}t/{mode}"), |b| {
                b.iter(|| {
                    fan_out(threads, |t| {
                        for i in 0..OPS {
                            pool.store_u64(
                                contended_off(t, i, disjoint),
                                i,
                                ThreadId(t as u32),
                                SiteTag(1),
                            )
                            .unwrap();
                        }
                    })
                })
            });

            let pool = Pool::new(PoolOpts::with_size(1 << 20));
            g.bench_function(&format!("load_u64/{threads}t/{mode}"), |b| {
                b.iter(|| {
                    fan_out(threads, |t| {
                        for i in 0..OPS {
                            black_box(pool.load_u64(contended_off(t, i, disjoint)).unwrap());
                        }
                    })
                })
            });

            let cov = CoverageMap::new();
            let s1 = site!("contended.cov.a");
            let s2 = site!("contended.cov.b");
            g.bench_function(&format!("record_access/{threads}t/{mode}"), |b| {
                b.iter(|| {
                    fan_out(threads, |t| {
                        for i in 0..OPS {
                            let gnum = contended_off(t, i, disjoint) / 8 + i % 8;
                            let s = if i & 1 == 0 { s1 } else { s2 };
                            black_box(cov.record_access(
                                gnum,
                                s,
                                ThreadId(t as u32),
                                Persistency::Unpersisted,
                            ));
                        }
                    })
                })
            });
        }
    }
    g.finish();
}

fn bench_taint(c: &mut Criterion) {
    let a: TaintSet = [1u32, 5, 9].into_iter().collect();
    let b2: TaintSet = [2u32, 5, 11].into_iter().collect();
    c.bench_function("taint_union", |b| b.iter(|| black_box(a.union(&b2))));
}

fn bench_mutator(c: &mut Criterion) {
    let mut m = OpMutator::new(7, 4, 24);
    let corpus = vec![m.generate(), m.populate()];
    let mut g = c.benchmark_group("mutator");
    g.bench_function("generate", |b| b.iter(|| black_box(m.generate())));
    g.bench_function("evolve", |b| b.iter(|| black_box(m.evolve(&corpus))));
    g.finish();
}

fn bench_checkpoint_vs_init(c: &mut Criterion) {
    let spec = target_spec("P-CLHT").unwrap();
    let snap = Checkpoint::create(&spec).unwrap().acquire().snapshot();
    let fresh_pool = || {
        let pool = Pool::new(PoolOpts::with_size(snap.volatile().len()));
        pool.restore(&snap).unwrap();
        pool
    };
    let mut g = c.benchmark_group("reset");
    g.sample_size(20);
    g.bench_function("checkpoint_restore", |b| b.iter(|| black_box(fresh_pool())));
    let reused = fresh_pool();
    g.bench_function("checkpoint_restore_into", |b| {
        b.iter(|| black_box(&reused).restore(&snap).unwrap())
    });
    g.bench_function("heavy_pool_init", |b| {
        b.iter(|| black_box(Pool::new(PoolOpts::small().heavy())))
    });
    g.finish();
}

fn bench_target_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("target_insert");
    g.sample_size(20);
    for name in ["P-CLHT", "clevel", "CCEH", "FAST-FAIR", "memcached-pmem"] {
        let spec = target_spec(name).unwrap();
        let session = Session::new(
            Arc::new(Pool::new((spec.pool)())),
            SessionConfig {
                capture_crash_images: false,
                deadline: Duration::from_secs(3600),
                ..SessionConfig::default()
            },
        );
        let target = (spec.init)(&session).unwrap();
        let view = session.view(ThreadId(0));
        let mut k = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                k = k % 20 + 1;
                black_box(
                    target
                        .exec(&view, &Op::Insert { key: k, value: k })
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_pool_primitives,
    bench_instrumented_access,
    bench_coverage,
    bench_contended_hotpath,
    bench_taint,
    bench_mutator,
    bench_checkpoint_vs_init,
    bench_target_ops,
);
criterion_main!(benches);
