//! Hot-path micro-benchmark matrix.
//!
//! Measures aggregate ops/sec of the instrumentation hot path — raw pool
//! stores/loads, instrumented stores (store + coverage + trace + stats), and
//! bare coverage recording — under 1, 4, and 8 threads hammering disjoint or
//! overlapping cache lines, plus single-threaded cells for each Table 1
//! target's insert path and the campaign outer loop (checkpoint restore,
//! crash-image capture, memoized validation). `repro hotpath` prints the
//! table and emits `BENCH_hotpath.json` so the numbers become a tracked
//! perf trajectory.
//!
//! Absolute ops/sec depend on the host, so the regression gate
//! ([`ratio_gate`]) compares each cell to a reference cell measured in the
//! same run instead: `pool_store_u64` for the instrumented cells, and
//! `hash_u64`, a loop that runs no pmrace code, for the rest.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pmrace_core::checkpoint::Checkpoint;
use pmrace_core::validate::validate_sync;
use pmrace_pmem::{CrashImage, Pool, PoolOpts, RestoreMode, SiteTag, ThreadId, CACHE_LINE};
use pmrace_runtime::coverage::{CoverageMap, Persistency};
use pmrace_runtime::report::SyncUpdateRecord;
use pmrace_runtime::{site, Session, SessionConfig};
use pmrace_targets::{target_spec, Op, TargetSpec};
use pmrace_telemetry::json::{self, Value};

/// One measured cell of the hot-path matrix.
#[derive(Debug, Clone)]
pub struct HotpathCell {
    /// Operation measured (`pool_store_u64`, `instr_store_u64`, ...).
    pub name: String,
    /// Number of concurrently hammering threads.
    pub threads: usize,
    /// Whether each thread worked a private set of cache lines.
    pub disjoint: bool,
    /// Total operations completed across all threads.
    pub ops: u64,
    /// Wall-clock duration of the contended phase.
    pub elapsed: Duration,
}

impl HotpathCell {
    /// `disjoint` or `overlapping`, as the JSON spells [`Self::disjoint`].
    fn lines(&self) -> &'static str {
        if self.disjoint {
            "disjoint"
        } else {
            "overlapping"
        }
    }

    /// Aggregate throughput in operations per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Lines each thread rotates over; keeps the working set larger than one
/// line so the sharded pool actually spreads lock traffic.
const LINES_PER_THREAD: u64 = 64;
const POOL_SIZE: usize = 1 << 20;

/// The reference cell of every cell that runs no instrumentation
/// (`pool_*`, checkpoint, crash-image and validation cells).
const REFERENCE: &str = "hash_u64";

/// The same-run reference cell `name`'s ops/sec are divided by in the
/// regression gate: `pool_store_u64` for the cells that run the
/// instrumentation (`instr_*`, `granule_cache_hit`, `record_access`, the
/// per-target cells), [`REFERENCE`] for the others, and `None` for
/// [`REFERENCE`] itself.
fn reference_of(name: &str) -> Option<&'static str> {
    let instrumented = name.starts_with("instr_")
        || name.starts_with("target_insert_")
        || name == "granule_cache_hit"
        || name == "record_access";
    if name == REFERENCE {
        None
    } else if instrumented {
        Some("pool_store_u64")
    } else {
        Some(REFERENCE)
    }
}

/// Offset for iteration `i` of thread `t`: private lines when `disjoint`,
/// one shared set of lines otherwise.
fn target_off(t: u64, i: u64, disjoint: bool) -> u64 {
    let line = if disjoint {
        t * LINES_PER_THREAD + (i % LINES_PER_THREAD)
    } else {
        i % LINES_PER_THREAD
    };
    line * CACHE_LINE as u64
}

/// Runs `per_thread` iterations of `op` on each of `threads` threads behind
/// a start barrier (on the calling thread when `threads` is 1) and returns
/// the aggregate cell.
fn contend<F>(name: &str, threads: usize, disjoint: bool, per_thread: u64, op: F) -> HotpathCell
where
    F: Fn(u64, u64) + Sync,
{
    contend_setup(
        name,
        threads,
        disjoint,
        per_thread,
        |_| (),
        move |(), t, i| {
            op(t, i);
        },
    )
}

/// [`contend`] with a per-thread setup stage: `setup(t)` runs *inside* each
/// worker thread before the clock starts and its result is handed to every
/// `op` call of that thread. This is how per-thread state that is `Send` but
/// not `Sync` — a [`pmrace_runtime::PmView`] — gets into the workers, exactly
/// like campaign drivers construct their views in-thread.
fn contend_setup<W, S, F>(
    name: &str,
    threads: usize,
    disjoint: bool,
    per_thread: u64,
    setup: S,
    op: F,
) -> HotpathCell
where
    S: Fn(u64) -> W + Sync,
    F: Fn(&W, u64, u64) + Sync,
{
    // A single thread runs on the calling thread: it keeps its CPU from
    // cell to cell, where a fresh thread per run lands on whichever CPU is
    // free and, on a host whose CPUs run at different speeds, splits a
    // cell's runs between the two speeds.
    if threads == 1 {
        let w = setup(0);
        let started = Instant::now();
        for i in 0..per_thread {
            op(&w, 0, i);
        }
        return HotpathCell {
            name: name.to_owned(),
            threads,
            disjoint,
            ops: per_thread,
            elapsed: started.elapsed(),
        };
    }
    let barrier = Barrier::new(threads + 1);
    let done = AtomicU64::new(0);
    let op = &op;
    let setup = &setup;
    let barrier_ref = &barrier;
    let done_ref = &done;
    let started = std::thread::scope(|s| {
        for t in 0..threads as u64 {
            s.spawn(move || {
                let w = setup(t);
                barrier_ref.wait();
                for i in 0..per_thread {
                    op(&w, t, i);
                }
                done_ref.fetch_add(per_thread, Ordering::Relaxed);
            });
        }
        // Clock starts before the release so the measurement covers the
        // workers' whole run even if this thread is descheduled right after
        // the barrier (single-CPU hosts).
        let started = Instant::now();
        barrier_ref.wait();
        started
    });
    HotpathCell {
        name: name.to_owned(),
        threads,
        disjoint,
        ops: done.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
    }
}

/// One cell's measurement, re-runnable.
type Measure<'a> = Box<dyn FnMut() -> HotpathCell + 'a>;

/// Runs every measurement of `group` `reps` times round-robin and keeps
/// each one's median run. A descheduling blip can halve a single run, and
/// the median discards such outliers in both directions. Round-robin
/// order puts every cell's runs in the same stretches of time as its
/// reference cell's runs, so a slow phase of the host moves a cell and its
/// reference together and their ratio stays put.
fn median_round_robin(mut group: Vec<Measure<'_>>, reps: usize) -> Vec<HotpathCell> {
    let mut runs: Vec<Vec<HotpathCell>> = group.iter().map(|_| Vec::new()).collect();
    for _ in 0..reps {
        for (measure, runs) in group.iter_mut().zip(&mut runs) {
            runs.push(measure());
        }
    }
    runs.into_iter()
        .map(|mut runs| {
            runs.sort_by(|a, b| a.ops_per_sec().total_cmp(&b.ops_per_sec()));
            runs.swap_remove(reps / 2)
        })
        .collect()
}

/// A session that records coverage, trace and access statistics but
/// captures no crash images, for the instrumented cells.
fn bench_session(pool: Pool) -> Arc<Session> {
    Session::new(
        Arc::new(pool),
        SessionConfig {
            capture_crash_images: false,
            deadline: Duration::from_secs(600),
            ..SessionConfig::default()
        },
    )
}

/// Runs the full hot-path matrix: the median of 45 runs of each cell, or
/// of 9 with `quick` (for CI). Both take runs of the same size, so a quick
/// run and the full run that wrote the committed file measure the same
/// thing and differ only in how many runs the median sees.
#[must_use]
pub fn run_matrix(quick: bool) -> Vec<HotpathCell> {
    let reps = if quick { 9 } else { 45 };
    let pool_iters = 50_000;
    let instr_iters = 20_000;
    let cov_iters = 100_000;

    // The single-threaded outer-loop cells share the P-CLHT checkpoint's
    // image: a pool just acquired from it captures that image on its base.
    let spec = target_spec("P-CLHT").expect("P-CLHT is a built-in target");
    let image = Checkpoint::create(&spec)
        .expect("checkpoint")
        .acquire()
        .crash_image()
        .expect("crash image");

    let mut cells = Vec::new();
    for &threads in &[1usize, 4, 8] {
        for &disjoint in &[true, false] {
            let mut group: Vec<Measure<'_>> = Vec::new();

            // The reference for cells that run no instrumentation: a
            // multiply-rotate hash chain in registers. It runs no pmrace
            // code and touches no memory, so it moves only with the speed
            // the host gives this process.
            group.push(Box::new(move || {
                contend(REFERENCE, threads, disjoint, pool_iters * 4, |t, i| {
                    let mut x = i ^ t;
                    for _ in 0..16 {
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) ^ t;
                    }
                    std::hint::black_box(x);
                })
            }));

            // Raw pool stores: the pmem shard layer alone.
            let pool = Pool::new(PoolOpts::with_size(POOL_SIZE));
            group.push(Box::new(move || {
                contend("pool_store_u64", threads, disjoint, pool_iters, |t, i| {
                    pool.store_u64(
                        target_off(t, i, disjoint),
                        i,
                        ThreadId(t as u32),
                        SiteTag(1),
                    )
                    .unwrap();
                })
            }));

            // Raw pool loads.
            let pool = Pool::new(PoolOpts::with_size(POOL_SIZE));
            group.push(Box::new(move || {
                contend("pool_load_u64", threads, disjoint, pool_iters, |t, i| {
                    pool.load_u64(target_off(t, i, disjoint)).unwrap();
                })
            }));

            // Instrumented stores: pool + coverage + trace + access stats —
            // the paper's "aggregate store+record" hot path. One view per
            // driver thread, built in-thread exactly like campaign workers
            // (views are Send, not Sync).
            let session = bench_session(Pool::new(PoolOpts::with_size(POOL_SIZE)));
            let s_store = site!("hotpath.store");
            group.push(Box::new(move || {
                contend_setup(
                    "instr_store_u64",
                    threads,
                    disjoint,
                    instr_iters,
                    |t| session.view(ThreadId(t as u32)),
                    |view, t, i| {
                        view.store_u64(target_off(t, i, disjoint), i, s_store)
                            .unwrap();
                    },
                )
            }));

            // Batched instrumented stores: the campaign-realistic epoch
            // shape — runs of stores with node-level locality (8 consecutive
            // stores per line, the "fill a node, persist the node" pattern
            // every PM index exhibits), then a persist (clwb+sfence) that
            // drains the per-thread shadow/coverage buffers. Repeated
            // same-line stores hit the thread's granule slot cache, so the
            // cell shows how much of the per-access tax epoch batching
            // amortizes away.
            let session = bench_session(Pool::new(PoolOpts::with_size(POOL_SIZE)));
            let s_batch = site!("hotpath.store.batched");
            let s_flush = site!("hotpath.flush.batched");
            group.push(Box::new(move || {
                contend_setup(
                    "instr_store_batched",
                    threads,
                    disjoint,
                    instr_iters,
                    |t| session.view(ThreadId(t as u32)),
                    |view, t, i| {
                        let off = target_off(t, i / 8, disjoint);
                        view.store_u64(off, i, s_batch).unwrap();
                        if i % 64 == 63 {
                            view.persist(off, 8, s_flush).unwrap();
                        }
                    },
                )
            }));

            // Write-through floor: a persist after *every* store, so each
            // store is its own epoch and batching never gets a run to
            // combine. Together with `instr_store_u64` (no sync point for
            // the whole cell — the no-drain ceiling) this brackets the
            // batched cell.
            let session = bench_session(Pool::new(PoolOpts::with_size(POOL_SIZE)));
            let s_wt = site!("hotpath.store.flush_each");
            let s_wt_flush = site!("hotpath.flush.flush_each");
            group.push(Box::new(move || {
                contend_setup(
                    "instr_store_flush_each",
                    threads,
                    disjoint,
                    instr_iters / 4,
                    |t| session.view(ThreadId(t as u32)),
                    |view, t, i| {
                        let off = target_off(t, i / 8, disjoint);
                        view.store_u64(off, i, s_wt).unwrap();
                        view.persist(off, 8, s_wt_flush).unwrap();
                    },
                )
            }));

            // Granule-cache hit path: every store of a thread lands on one
            // granule, so after the first access the per-thread slot cache
            // absorbs all metadata work until the next sync point.
            let session = bench_session(Pool::new(PoolOpts::with_size(POOL_SIZE)));
            let s_hit = site!("hotpath.store.granule_hit");
            group.push(Box::new(move || {
                contend_setup(
                    "granule_cache_hit",
                    threads,
                    disjoint,
                    instr_iters,
                    |t| session.view(ThreadId(t as u32)),
                    |view, t, i| {
                        let off = target_off(t, 0, disjoint);
                        view.store_u64(off, i, s_hit).unwrap();
                    },
                )
            }));

            // Bare coverage recording (lock-free alias-pair map).
            let cov = CoverageMap::new();
            let s0 = site!("hotpath.cov.a");
            let s1 = site!("hotpath.cov.b");
            group.push(Box::new(move || {
                contend("record_access", threads, disjoint, cov_iters, |t, i| {
                    let g = target_off(t, i, disjoint) / 8 + i % 8;
                    let site = if i & 1 == 0 { s0 } else { s1 };
                    let p = if i & 2 == 0 {
                        Persistency::Persisted
                    } else {
                        Persistency::Unpersisted
                    };
                    cov.record_access(g, site, ThreadId(t as u32), p);
                })
            }));

            if threads == 1 && disjoint {
                outer_loop_cells(&mut group, &spec, &image);
            }
            cells.extend(median_round_robin(group, reps));
        }
    }
    cells
}

/// The single-threaded cells: one insert path per Table 1 target, and the
/// outer loop's checkpoint restore, crash-image capture and memoized
/// validation.
fn outer_loop_cells<'a>(group: &mut Vec<Measure<'a>>, spec: &'a TargetSpec, image: &'a CrashImage) {
    let fresh_pool = || Pool::from_crash_image(image).expect("a checkpoint image is not empty");
    // Per-target operation cost: the target's insert path with the
    // strategy off (no scheduler waits), cycling over 20 keys so the
    // structure stays the same size.
    for target_spec in pmrace_targets::all_targets() {
        let session = bench_session(Pool::new((target_spec.pool)()));
        let target = (target_spec.init)(&session).expect("a built-in target formats its pool");
        let name = format!("target_insert_{}", target_spec.name);
        group.push(Box::new(move || {
            contend_setup(
                &name,
                1,
                true,
                1_000,
                |_| session.view(ThreadId(0)),
                |view, _, i| {
                    let op = Op::Insert {
                        key: i % 20 + 1,
                        value: i,
                    };
                    std::hint::black_box(target.exec(view, &op).expect("insert"));
                },
            )
        }));
    }

    // Checkpoint restore paths — the one reset path `Checkpoint::acquire`
    // is built from, on the checkpointed P-CLHT image: a fresh pool per
    // campaign vs resetting existing pools in full or in O(dirty).
    let fresh_iters = 20;
    // Full resets rotate over eight pools: how fast one pool takes a full
    // copy depends on where the allocator put its shard buffers, which
    // moved a single-pool cell up to 2.6x from process to process. Each
    // pool alternates between the image and a dense copy of it on a base
    // of its own, so every reset moves it to another base: a full copy.
    let other = CrashImage::from_bytes(image.bytes().to_vec());
    let pools: Vec<(Pool, AtomicBool)> = (0..8)
        .map(|_| {
            (
                Pool::from_crash_image(&other).expect("pool"),
                AtomicBool::new(true),
            )
        })
        .collect();
    group.push(Box::new(move || {
        contend("checkpoint_restore_into", 1, true, fresh_iters, |_, i| {
            let (pool, on_other) = &pools[i as usize % pools.len()];
            let img = if on_other.fetch_xor(true, Ordering::Relaxed) {
                image
            } else {
                &other
            };
            let mode = pool.restore_crash_image(img).expect("restore into");
            assert_eq!(mode, RestoreMode::Full);
        })
    }));

    // Delta reset on a sparse campaign: each iteration dirties 48
    // scattered granules (well under 5% of the pool) and resets them in
    // O(dirty) — the outer-loop fast path.
    let pool = fresh_pool();
    let line_count = pool.size() as u64 / CACHE_LINE as u64;
    group.push(Box::new(move || {
        contend("checkpoint_restore_delta", 1, true, 200, |_, i| {
            for k in 0..48u64 {
                let off = ((i * 131 + k * 31) % line_count) * CACHE_LINE as u64;
                pool.store_u64(off, k, ThreadId(0), SiteTag(2)).unwrap();
            }
            let mode = pool
                .restore_crash_image(image)
                .expect("restore_crash_image");
            assert!(
                matches!(mode, RestoreMode::Delta { .. }),
                "sparse workload stays under the delta threshold, got {mode:?}"
            );
        })
    }));

    // Copy-on-write crash-image capture over the same sparse dirty set
    // (the §4.4 capture path, per inconsistency candidate).
    let pool = fresh_pool();
    for k in 0..48u64 {
        pool.store_u64(k * 10 * CACHE_LINE as u64, k, ThreadId(0), SiteTag(3))
            .unwrap();
    }
    group.push(Box::new(move || {
        contend("crash_image_capture", 1, true, 1_000, |_, _| {
            std::hint::black_box(pool.crash_image().expect("crash_image"));
        })
    }));

    // Memoized validation: the verdict-cache hit path. The first call —
    // the cache miss that runs one full recovery execution — is paid
    // here, before any timed run.
    let image = Arc::new(fresh_pool().crash_image().expect("crash image"));
    let rec = SyncUpdateRecord {
        var_name: "bench.lock".to_owned(),
        var_off: 64,
        var_size: 8,
        expected_init: image.load_u64(64).expect("in-bounds load"),
        store_site: site!("hotpath.validate"),
        new_value: 1,
        tid: ThreadId(0),
        crash_image: Some(image),
    };
    std::hint::black_box(validate_sync(spec, &rec));
    group.push(Box::new(move || {
        contend("validate_cached", 1, true, 10_000, |_, _| {
            std::hint::black_box(validate_sync(spec, &rec));
        })
    }));
    group.push(Box::new(move || {
        contend("checkpoint_restore_fresh", 1, true, fresh_iters, |_, _| {
            std::hint::black_box(fresh_pool());
        })
    }));
}

/// The distinct cell names of a `BENCH_hotpath.json` document, in order
/// of first appearance (`repro hotpath --check-against` uses them to catch
/// schema drift between the committed file and the bench code).
///
/// # Errors
///
/// As [`cell_values_in_json`].
pub fn cell_names_in_json(text: &str) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = Vec::new();
    for (name, ..) in cell_values_in_json(text)? {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    Ok(names)
}

/// `(name, threads, lines, ops_per_sec)` of every cell of a
/// `BENCH_hotpath.json` document (the counterpart of [`to_json`]) — the
/// committed baseline values `repro hotpath --check-against --tolerance`
/// compares a fresh run against.
///
/// # Errors
///
/// The document is not valid JSON, has no `cells` array, or a cell lacks
/// one of the four fields (a cell that cannot be read must not go
/// unchecked).
pub fn cell_values_in_json(text: &str) -> Result<Vec<(String, usize, String, f64)>, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let cells = doc
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or("no \"cells\" array")?;
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let bad = |key: &str| format!("cell {i} lacks a valid \"{key}\"");
            let text = |key: &str| {
                cell.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| bad(key))
            };
            let threads = cell.get("threads").and_then(Value::as_u64);
            let ops = cell.get("ops_per_sec").and_then(Value::as_f64);
            Ok((
                text("name")?,
                threads.ok_or_else(|| bad("threads"))? as usize,
                text("lines")?,
                ops.ok_or_else(|| bad("ops_per_sec"))?,
            ))
        })
        .collect()
}

/// CPUs this process may run on (1 when the OS cannot tell).
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `"cpus"` of a `BENCH_hotpath.json` document: how many CPUs the host
/// that wrote it had. Cells with more threads than that ran oversubscribed
/// there, so [`ratio_gate`] does not judge them.
///
/// # Errors
///
/// The document is not valid JSON or has no whole-number `"cpus"` field.
pub fn cpus_in_json(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    doc.get("cpus")
        .and_then(Value::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| "no \"cpus\" field".to_owned())
}

/// One cell judged by [`ratio_gate`].
#[derive(Debug, Clone)]
pub struct RatioCheck {
    /// Cell name.
    pub name: String,
    /// Thread count of the cell and of its reference.
    pub threads: usize,
    /// `disjoint` or `overlapping`, for the cell and its reference.
    pub lines: String,
    /// The reference cell: `pool_store_u64` or `hash_u64`.
    pub reference: &'static str,
    /// Committed ops/sec divided by the committed reference's ops/sec.
    pub committed: f64,
    /// This run's ops/sec divided by this run's reference's ops/sec.
    pub measured: f64,
    /// Whether `measured >= committed / tolerance`.
    pub passed: bool,
}

/// The hot-path regression gate. For every committed cell with at most
/// `cpus` threads (the CPU count of the host that is running, clamped to
/// the committed file's `"cpus"`), divides the cell's ops/sec by its
/// reference cell's at the same thread count and line mode, in `baseline`
/// and in this run's `cells` alike, and fails the cell when this run's
/// ratio is below the committed ratio / `tolerance`.
/// One-sided: getting faster never fails. `baseline` is
/// [`cell_values_in_json`] of the committed file.
///
/// # Errors
///
/// A gated cell, or its reference, is missing from `baseline` or from
/// `cells`: a cell that cannot be compared must not pass unchecked.
pub fn ratio_gate(
    baseline: &[(String, usize, String, f64)],
    cells: &[HotpathCell],
    tolerance: f64,
    cpus: usize,
) -> Result<Vec<RatioCheck>, String> {
    let committed = |name: &str, threads: usize, lines: &str| {
        baseline
            .iter()
            .find(|(n, t, l, _)| n == name && *t == threads && l == lines)
            .map(|row| row.3)
            .ok_or_else(|| format!("the baseline has no {name} cell at {threads}T {lines}"))
    };
    let measured = |name: &str, threads: usize, lines: &str| {
        cells
            .iter()
            .find(|c| c.name == name && c.threads == threads && c.lines() == lines)
            .map(HotpathCell::ops_per_sec)
            .ok_or_else(|| format!("this run has no {name} cell at {threads}T {lines}"))
    };
    let mut checks = Vec::new();
    for (name, threads, lines, ops) in baseline {
        let Some(reference) = reference_of(name) else {
            continue;
        };
        if *threads > cpus {
            continue;
        }
        let committed = ops / committed(reference, *threads, lines)?;
        let measured = measured(name, *threads, lines)? / measured(reference, *threads, lines)?;
        checks.push(RatioCheck {
            name: name.clone(),
            threads: *threads,
            lines: lines.clone(),
            reference,
            committed,
            measured,
            passed: measured >= committed / tolerance,
        });
    }
    Ok(checks)
}

/// Renders the matrix as an aligned text table.
#[must_use]
pub fn render(cells: &[HotpathCell]) -> String {
    let mut out = String::from(
        "Hot-path contended throughput (aggregate ops/sec; 64 lines/thread working set)\n",
    );
    out.push_str(&format!(
        "{:<30} {:>8} {:>12} {:>14} {:>12}\n",
        "op", "threads", "lines", "ops/sec", "total ops"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:<30} {:>8} {:>12} {:>14.0} {:>12}\n",
            c.name,
            c.threads,
            c.lines(),
            c.ops_per_sec(),
            c.ops,
        ));
    }
    out
}

/// Serializes the matrix, measured on a host with `cpus` CPUs, as JSON
/// (hand-rolled; the workspace is offline and carries no serde).
#[must_use]
pub fn to_json(cells: &[HotpathCell], cpus: usize) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"unit\": \"ops_per_sec\",\n  \"cpus\": {cpus},\n  \"cells\": [\n"
    );
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"lines\": \"{}\", \"ops\": {}, \"secs\": {:.6}, \"ops_per_sec\": {:.1}}}{}\n",
            c.name,
            c.threads,
            c.lines(),
            c.ops,
            c.elapsed.as_secs_f64(),
            c.ops_per_sec(),
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, threads: usize, disjoint: bool, ops: u64) -> HotpathCell {
        HotpathCell {
            name: name.to_owned(),
            threads,
            disjoint,
            ops,
            elapsed: Duration::from_secs(1),
        }
    }

    #[test]
    fn matrix_covers_thread_counts_and_modes() {
        let cells = run_matrix(true);
        for &t in &[1usize, 4, 8] {
            assert!(cells.iter().any(|c| c.threads == t && c.disjoint));
            assert!(cells.iter().any(|c| c.threads == t && !c.disjoint));
        }
        assert!(cells.iter().all(|c| c.ops > 0));
        let json = to_json(&cells, 8);
        assert!(json.contains("\"bench\": \"hotpath\""));
        assert!(render(&cells).contains("record_access"));
        // The outer-loop and per-target cells ride along and round-trip
        // through the JSON name extractor the CI schema guard relies on.
        let names = cell_names_in_json(&json).unwrap();
        for required in [
            REFERENCE,
            "instr_store_u64",
            "instr_store_batched",
            "instr_store_flush_each",
            "granule_cache_hit",
            "checkpoint_restore_fresh",
            "checkpoint_restore_delta",
            "crash_image_capture",
            "validate_cached",
        ] {
            assert!(names.iter().any(|n| n == required), "missing {required}");
        }
        // One single-threaded insert cell per Table 1 target.
        let targets: Vec<_> = cells
            .iter()
            .filter(|c| c.name.starts_with("target_insert_"))
            .map(|c| (c.name.as_str(), c.threads))
            .collect();
        assert_eq!(
            targets,
            [
                ("target_insert_P-CLHT", 1),
                ("target_insert_clevel", 1),
                ("target_insert_CCEH", 1),
                ("target_insert_FAST-FAIR", 1),
                ("target_insert_memcached-pmem", 1),
            ]
        );
        // Every cell has its reference in the same run: the run gated
        // against its own JSON finds every reference and passes.
        let rows = cell_values_in_json(&json).unwrap();
        let checks = ratio_gate(&rows, &cells, 1.01, 8).unwrap();
        assert_eq!(checks.len(), cells.len() - 6, "all but the 6 references");
        assert!(checks.iter().all(|c| c.passed), "{checks:?}");
    }

    #[test]
    fn cell_values_parse_back_from_json() {
        let cells = vec![
            HotpathCell {
                name: "x_op".to_owned(),
                threads: 4,
                disjoint: false,
                ops: 1000,
                elapsed: Duration::from_millis(100),
            },
            HotpathCell {
                name: "y_op".to_owned(),
                threads: 1,
                disjoint: true,
                ops: 500,
                elapsed: Duration::from_millis(50),
            },
        ];
        let json = to_json(&cells, 2);
        let rows = cell_values_in_json(&json).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "x_op");
        assert_eq!(rows[0].1, 4);
        assert_eq!(rows[0].2, "overlapping");
        assert!((rows[0].3 - 10_000.0).abs() < 1.0);
        assert_eq!(rows[1].2, "disjoint");
        // A baseline that cannot be read is an error, never an empty (and
        // so unchecked) set of cells.
        for broken in ["{}", "not json", &json[..json.len() / 2]] {
            assert!(cell_values_in_json(broken).is_err(), "{broken:?}");
        }
        for field in ["name", "threads", "lines", "ops_per_sec"] {
            let dropped = json.replacen(&format!("\"{field}\": "), "\"gone\": ", 1);
            let err = cell_values_in_json(&dropped).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn ratio_gate_compares_each_cell_to_its_same_run_reference() {
        // Committed on a 4-CPU host: the instrumented store at half the
        // pool store, the pool store at a tenth of the reference.
        let committed = [
            cell(REFERENCE, 1, true, 1000),
            cell("pool_store_u64", 1, true, 100),
            cell("instr_store_u64", 1, true, 50),
            cell(REFERENCE, 4, true, 4000),
            cell("pool_store_u64", 4, true, 400),
        ];
        let text = to_json(&committed, 4);
        let rows = cell_values_in_json(&text).unwrap();
        assert_eq!(cpus_in_json(&text), Ok(4));
        let gate = |cells: &[HotpathCell], cpus: usize| {
            ratio_gate(&rows, cells, 1.5, cpus).map(|checks| {
                checks
                    .iter()
                    .map(|c| (c.name.as_str().to_owned(), c.threads, c.passed))
                    .collect::<Vec<_>>()
            })
        };
        let pass = |name: &str, threads| (name.to_owned(), threads, true);
        let fail = |name: &str, threads| (name.to_owned(), threads, false);

        // A host half as fast moves every cell and its reference together.
        let slow_host = [
            cell(REFERENCE, 1, true, 500),
            cell("pool_store_u64", 1, true, 50),
            cell("instr_store_u64", 1, true, 25),
        ];
        assert_eq!(
            gate(&slow_host, 2),
            Ok(vec![pass("pool_store_u64", 1), pass("instr_store_u64", 1)])
        );
        // Getting faster never fails.
        let faster = [
            cell(REFERENCE, 1, true, 1000),
            cell("pool_store_u64", 1, true, 300),
            cell("instr_store_u64", 1, true, 290),
        ];
        assert_eq!(
            gate(&faster, 2),
            Ok(vec![pass("pool_store_u64", 1), pass("instr_store_u64", 1)])
        );
        // A 2x slower instrumented store fails; so does a 2x slower pool
        // store, which makes its dependants look faster.
        let slow_instr = [
            cell(REFERENCE, 1, true, 1000),
            cell("pool_store_u64", 1, true, 100),
            cell("instr_store_u64", 1, true, 25),
        ];
        assert_eq!(
            gate(&slow_instr, 2),
            Ok(vec![pass("pool_store_u64", 1), fail("instr_store_u64", 1)])
        );
        let slow_pool = [
            cell(REFERENCE, 1, true, 1000),
            cell("pool_store_u64", 1, true, 50),
            cell("instr_store_u64", 1, true, 50),
        ];
        assert_eq!(
            gate(&slow_pool, 2),
            Ok(vec![fail("pool_store_u64", 1), pass("instr_store_u64", 1)])
        );
        // Cells above the CPU clamp are measured but not judged: a 4T cell
        // on a 2-CPU host is skipped however slow it ran...
        let oversubscribed = [
            cell(REFERENCE, 1, true, 1000),
            cell("pool_store_u64", 1, true, 100),
            cell("instr_store_u64", 1, true, 50),
            cell(REFERENCE, 4, true, 4000),
            cell("pool_store_u64", 4, true, 40),
        ];
        assert_eq!(gate(&oversubscribed, 2).unwrap().len(), 2);
        // ... and judged where the host has the CPUs.
        assert_eq!(
            gate(&oversubscribed, 4).unwrap().last(),
            Some(&fail("pool_store_u64", 4))
        );
        // A reference missing from this run or from the baseline is an
        // error, not a pass.
        let err = gate(&slow_host[1..], 2).unwrap_err();
        assert!(err.contains(REFERENCE), "{err}");
        let no_ref = cell_values_in_json(&to_json(&committed[1..], 4)).unwrap();
        let err = ratio_gate(&no_ref, &faster, 1.5, 2).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        // So is a gated cell this run lacks.
        let err = gate(&slow_host[..2], 2).unwrap_err();
        assert!(err.contains("instr_store_u64"), "{err}");
        // A baseline without the CPU count of its host is an error too.
        let no_cpus = text.replace("\"cpus\": 4,", "");
        assert!(cpus_in_json(&no_cpus).is_err());
    }

    #[test]
    fn cell_names_are_extracted_uniquely() {
        let cells = vec![
            cell("a_op", 1, true, 10),
            cell("a_op", 4, true, 10),
            cell("b_op", 1, true, 10),
        ];
        assert_eq!(
            cell_names_in_json(&to_json(&cells, 1)).unwrap(),
            ["a_op", "b_op"]
        );
        assert!(cell_names_in_json("{}").is_err());
    }
}
