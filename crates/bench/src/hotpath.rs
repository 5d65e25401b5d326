//! Contended hot-path throughput meter.
//!
//! Measures aggregate ops/sec of the instrumentation hot path — raw pool
//! stores/loads, instrumented stores (store + coverage + trace + stats), and
//! bare coverage recording — under 1, 4, and 8 threads hammering disjoint or
//! overlapping cache lines. `repro hotpath` prints the table and emits
//! `BENCH_hotpath.json` so the numbers become a tracked perf trajectory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pmrace_core::checkpoint::Checkpoint;
use pmrace_core::validate::validate_sync;
use pmrace_pmem::{Pool, PoolOpts, RestoreMode, SiteTag, ThreadId, CACHE_LINE, GRANULE};
use pmrace_runtime::coverage::{CoverageMap, Persistency};
use pmrace_runtime::report::SyncUpdateRecord;
use pmrace_runtime::{site, Session, SessionConfig};
use pmrace_targets::target_spec;
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
/// a start barrier and returns the aggregate cell.
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
/// spawned thread before the start barrier and its result is handed to every
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

/// Median of three runs of one cell. Per-access cells finish in tens of
/// milliseconds, so a single descheduling blip on a busy host can halve a
/// measurement; the median discards such outliers in both directions while
/// staying cheap enough to run the whole matrix in seconds.
fn median3<F: FnMut() -> HotpathCell>(mut run: F) -> HotpathCell {
    let mut reps = vec![run(), run(), run()];
    reps.sort_by(|a, b| a.ops_per_sec().total_cmp(&b.ops_per_sec()));
    reps.swap_remove(1)
}

/// Runs the full hot-path matrix. `quick` shrinks iteration counts for CI.
#[must_use]
pub fn run_matrix(quick: bool) -> Vec<HotpathCell> {
    let mut cells = Vec::new();
    let scale = if quick { 20 } else { 1 };
    let pool_iters = 1_000_000 / scale;
    let instr_iters = 200_000 / scale;
    let cov_iters = 2_000_000 / scale;

    // Fleet scaling: whole-fuzzer aggregate execs/sec (campaigns/sec) at
    // increasing worker counts, on a fixed wall budget. Campaigns are
    // scheduler-sleep-bound (the Fig. 6 scheduler parks threads in µs–ms
    // waits), so a fleet overlaps those sleeps productively even on a
    // single CPU; this cell is the tracked scaling curve the shared
    // frontier / sharded ledger / validation pipeline must keep steep.
    //
    // These cells run FIRST, before any microbench cell registers its
    // `site!()`s: instruction-site ids are process-global and handed out
    // first-come-first-served, so earlier cells shift the ids — and with
    // them coverage hashes and exploration-plan selection — of everything
    // that runs after them. Fleet cells at the top see the same site ids a
    // standalone fuzzing run sees, which is the environment the committed
    // scaling curve must reproduce. (Measured cost of getting this wrong:
    // running the fleet cells after the instrumentation cells collapsed
    // the 4-worker/1-worker ratio from ~2.6x to ~1.5x purely through a
    // different plan mix.)
    pmrace_targets::register_builtins();
    let budget = Duration::from_millis(if quick { 700 } else { 8_000 });
    for &workers in &[1usize, 2, 4, 8] {
        let mut cfg = pmrace_core::FuzzConfig::new("FAST-FAIR");
        cfg.workers = workers;
        cfg.threads = 2;
        cfg.max_campaigns = usize::MAX;
        cfg.wall_budget = budget;
        cfg.campaign_deadline = Duration::from_millis(400);
        cfg.rng_seed = 0xF1EE7 ^ workers as u64;
        let report = pmrace_core::Fuzzer::new(cfg)
            .expect("FAST-FAIR is registered")
            .run()
            .expect("fleet bench run");
        cells.push(HotpathCell {
            name: "fleet_execs".to_owned(),
            threads: workers,
            disjoint: true,
            ops: report.campaigns as u64,
            elapsed: report.elapsed,
        });
    }

    // CAS-retry hot path: whole-fuzzer campaigns/sec against a lock-free
    // target whose control flow is CAS-retry loops rather than locks.
    // Every failed CAS attempt is a scheduler decision point
    // (`on_cas_fail` bounded-storm gating), so this cell tracks the
    // end-to-end cost of retry-aware scheduling as driver threads grow —
    // the companion curve to `fleet_execs` for the lock-free suite. Runs
    // up here with the fleet cells for the same site-id pinning reason.
    pmrace_lockfree::register_lockfree();
    for &threads in &[2usize, 4] {
        let mut cfg = pmrace_core::FuzzConfig::new("treiber-stack");
        cfg.workers = 2;
        cfg.threads = threads;
        cfg.max_campaigns = usize::MAX;
        cfg.wall_budget = budget;
        cfg.campaign_deadline = Duration::from_millis(400);
        cfg.rng_seed = 0xCA5 ^ threads as u64;
        let report = pmrace_core::Fuzzer::new(cfg)
            .expect("treiber-stack is registered")
            .run()
            .expect("cas-retry bench run");
        cells.push(HotpathCell {
            name: "cas_retry_execs".to_owned(),
            threads,
            disjoint: true,
            ops: report.campaigns as u64,
            elapsed: report.elapsed,
        });
    }

    for &threads in &[1usize, 4, 8] {
        for &disjoint in &[true, false] {
            // Raw pool stores: the pmem shard layer alone.
            let pool = Pool::new(PoolOpts::with_size(POOL_SIZE));
            cells.push(median3(|| {
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
            cells.push(median3(|| {
                contend("pool_load_u64", threads, disjoint, pool_iters, |t, i| {
                    pool.load_u64(target_off(t, i, disjoint)).unwrap();
                })
            }));

            // Instrumented stores: pool + coverage + trace + access stats —
            // the paper's "aggregate store+record" hot path.
            let session = Session::new(
                Arc::new(Pool::new(PoolOpts::with_size(POOL_SIZE))),
                SessionConfig {
                    capture_crash_images: false,
                    deadline: Duration::from_secs(600),
                    ..SessionConfig::default()
                },
            );
            let s_store = site!("hotpath.store");
            // One view per driver thread, built in-thread exactly like
            // campaign workers (views are Send, not Sync).
            let session_ref = &session;
            cells.push(median3(|| {
                contend_setup(
                    "instr_store_u64",
                    threads,
                    disjoint,
                    instr_iters,
                    move |t| session_ref.view(ThreadId(t as u32)),
                    move |view, t, i| {
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
            // amortizes away. An earlier version walked a *different* line
            // on every store: zero intra-epoch locality, nothing for the
            // write-combining buffer to combine, so it measured
            // `instr_store_u64` plus pure drain overhead and came out
            // *slower* than the unbatched cell it was meant to beat.
            let session = Session::new(
                Arc::new(Pool::new(PoolOpts::with_size(POOL_SIZE))),
                SessionConfig {
                    capture_crash_images: false,
                    deadline: Duration::from_secs(600),
                    ..SessionConfig::default()
                },
            );
            let s_batch = site!("hotpath.store.batched");
            let s_flush = site!("hotpath.flush.batched");
            let session_ref = &session;
            cells.push(median3(|| {
                contend_setup(
                    "instr_store_batched",
                    threads,
                    disjoint,
                    instr_iters,
                    move |t| session_ref.view(ThreadId(t as u32)),
                    move |view, t, i| {
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
            // batched cell: batched must land between flush_each (floor)
            // and plain stores (ceiling), and its distance from each is the
            // honest measure of what epoch batching buys.
            let session = Session::new(
                Arc::new(Pool::new(PoolOpts::with_size(POOL_SIZE))),
                SessionConfig {
                    capture_crash_images: false,
                    deadline: Duration::from_secs(600),
                    ..SessionConfig::default()
                },
            );
            let s_wt = site!("hotpath.store.flush_each");
            let s_wt_flush = site!("hotpath.flush.flush_each");
            let session_ref = &session;
            cells.push(median3(|| {
                contend_setup(
                    "instr_store_flush_each",
                    threads,
                    disjoint,
                    instr_iters / 4,
                    move |t| session_ref.view(ThreadId(t as u32)),
                    move |view, t, i| {
                        let off = target_off(t, i / 8, disjoint);
                        view.store_u64(off, i, s_wt).unwrap();
                        view.persist(off, 8, s_wt_flush).unwrap();
                    },
                )
            }));

            // Granule-cache hit path: every store of a thread lands on one
            // granule, so after the first access the per-thread slot cache
            // absorbs all metadata work until the next sync point.
            let session = Session::new(
                Arc::new(Pool::new(PoolOpts::with_size(POOL_SIZE))),
                SessionConfig {
                    capture_crash_images: false,
                    deadline: Duration::from_secs(600),
                    ..SessionConfig::default()
                },
            );
            let s_hit = site!("hotpath.store.granule_hit");
            let session_ref = &session;
            cells.push(median3(|| {
                contend_setup(
                    "granule_cache_hit",
                    threads,
                    disjoint,
                    instr_iters,
                    move |t| session_ref.view(ThreadId(t as u32)),
                    move |view, t, i| {
                        let off = target_off(t, 0, disjoint);
                        view.store_u64(off, i, s_hit).unwrap();
                    },
                )
            }));

            // Bare coverage recording (lock-free alias-pair map).
            let cov = CoverageMap::new();
            let s0 = site!("hotpath.cov.a");
            let s1 = site!("hotpath.cov.b");
            let cov_ref = &cov;
            cells.push(median3(|| {
                contend(
                    "record_access",
                    threads,
                    disjoint,
                    cov_iters,
                    move |t, i| {
                        let g = target_off(t, i, disjoint) / 8 + i % 8;
                        let site = if i & 1 == 0 { s0 } else { s1 };
                        let p = if i & 2 == 0 {
                            Persistency::Persisted
                        } else {
                            Persistency::Unpersisted
                        };
                        cov_ref.record_access(g, site, ThreadId(t as u32), p);
                    },
                )
            }));
        }
    }

    // Checkpoint restore paths — the pmem operations `Checkpoint::acquire`
    // is built from, on a snapshot of the checkpointed P-CLHT image: a
    // fresh pool per campaign vs reuse.
    let spec = target_spec("P-CLHT").expect("known target");
    let snap = Checkpoint::create(&spec)
        .expect("checkpoint")
        .acquire()
        .snapshot();
    let fresh_pool = || {
        let pool = Pool::new(PoolOpts::with_size(snap.volatile().len()));
        pool.restore(&snap)
            .expect("snapshot matches its own pool size");
        pool
    };
    let fresh_iters = 400 / scale;
    let start = Instant::now();
    for _ in 0..fresh_iters {
        std::hint::black_box(fresh_pool());
    }
    cells.push(HotpathCell {
        name: "checkpoint_restore_fresh".to_owned(),
        threads: 1,
        disjoint: true,
        ops: fresh_iters,
        elapsed: start.elapsed(),
    });

    // In-place restore into an existing pool (the campaign-runner reuse
    // path): same image reset without the pool-sized allocation.
    let pool = fresh_pool();
    let start = Instant::now();
    for _ in 0..fresh_iters {
        pool.restore(&snap).expect("restore into");
    }
    cells.push(HotpathCell {
        name: "checkpoint_restore_into".to_owned(),
        threads: 1,
        disjoint: true,
        ops: fresh_iters,
        elapsed: start.elapsed(),
    });

    // Delta restore on a sparse campaign: each iteration dirties 48
    // scattered granules (well under 5% of the pool) and resets them in
    // O(dirty) — the outer-loop fast path.
    let pool = fresh_pool();
    let max_dirty = snap.volatile().len() / GRANULE / 4;
    let delta_iters = 4_000 / scale;
    let line_count = pool.size() as u64 / CACHE_LINE as u64;
    let start = Instant::now();
    for i in 0..delta_iters {
        for k in 0..48u64 {
            let off = ((i * 131 + k * 31) % line_count) * CACHE_LINE as u64;
            pool.store_u64(off, k, ThreadId(0), SiteTag(2)).unwrap();
        }
        let mode = pool.restore_delta(&snap, max_dirty).expect("restore_delta");
        assert!(
            matches!(mode, RestoreMode::Delta { .. }),
            "sparse workload stays under the delta threshold, got {mode:?}"
        );
    }
    cells.push(HotpathCell {
        name: "checkpoint_restore_delta".to_owned(),
        threads: 1,
        disjoint: true,
        ops: delta_iters,
        elapsed: start.elapsed(),
    });

    // Copy-on-write crash-image capture over the same sparse dirty set
    // (the §4.4 capture path, per inconsistency candidate).
    let pool = fresh_pool();
    for k in 0..48u64 {
        pool.store_u64(k * 10 * CACHE_LINE as u64, k, ThreadId(0), SiteTag(3))
            .unwrap();
    }
    let cap_iters = 20_000 / scale;
    let start = Instant::now();
    for _ in 0..cap_iters {
        std::hint::black_box(pool.crash_image().expect("crash_image"));
    }
    cells.push(HotpathCell {
        name: "crash_image_capture".to_owned(),
        threads: 1,
        disjoint: true,
        ops: cap_iters,
        elapsed: start.elapsed(),
    });

    // Memoized validation: the verdict-cache hit path. The first call —
    // the cache miss that runs one full recovery execution — is paid
    // *before* the clock starts: a single multi-millisecond miss would
    // dominate the quick-mode cell (10k iterations) while vanishing in
    // the full cell (200k), making the two incomparable and the CI
    // tolerance band meaningless for this cell.
    let vpool = fresh_pool();
    let image = std::sync::Arc::new(vpool.crash_image().expect("crash image"));
    let rec = SyncUpdateRecord {
        var_name: "bench.lock".to_owned(),
        var_off: 64,
        var_size: 8,
        expected_init: image.load_u64(64).expect("in-bounds load"),
        store_site: site!("hotpath.validate"),
        new_value: 1,
        tid: ThreadId(0),
        crash_image: Some(Arc::clone(&image)),
    };
    let val_iters = 200_000 / scale;
    std::hint::black_box(validate_sync(&spec, &rec));
    let start = Instant::now();
    for _ in 0..val_iters {
        std::hint::black_box(validate_sync(&spec, &rec));
    }
    cells.push(HotpathCell {
        name: "validate_cached".to_owned(),
        threads: 1,
        disjoint: true,
        ops: val_iters,
        elapsed: start.elapsed(),
    });

    cells
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

/// Aggregate `fleet_execs` scaling ratio between two worker counts in a
/// `BENCH_hotpath.json` document: `ops_per_sec(hi) / ops_per_sec(lo)`.
/// `None` when either cell is absent (or the low cell is zero). The
/// `--min-fleet-scaling` CI gate evaluates this on the *committed* file, so
/// a regenerated trajectory that lost its fleet scaling cannot land.
#[must_use]
pub fn fleet_scaling_in_json(text: &str, hi: usize, lo: usize) -> Option<f64> {
    let rows = cell_values_in_json(text).ok()?;
    let cell = |threads: usize| {
        rows.iter()
            .find(|(name, t, _, _)| name == "fleet_execs" && *t == threads)
            .map(|r| r.3)
    };
    let (hi, lo) = (cell(hi)?, cell(lo)?);
    (lo > 0.0).then(|| hi / lo)
}

/// Renders the matrix as an aligned text table.
#[must_use]
pub fn render(cells: &[HotpathCell]) -> String {
    let mut out = String::from(
        "Hot-path contended throughput (aggregate ops/sec; 64 lines/thread working set)\n",
    );
    out.push_str(&format!(
        "{:<26} {:>8} {:>12} {:>14} {:>12}\n",
        "op", "threads", "lines", "ops/sec", "total ops"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:<26} {:>8} {:>12} {:>14.0} {:>12}\n",
            c.name,
            c.threads,
            if c.disjoint {
                "disjoint"
            } else {
                "overlapping"
            },
            c.ops_per_sec(),
            c.ops,
        ));
    }
    out
}

/// Serializes the matrix as JSON (hand-rolled; the workspace is offline and
/// carries no serde).
#[must_use]
pub fn to_json(cells: &[HotpathCell]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"hotpath\",\n  \"unit\": \"ops_per_sec\",\n  \"cells\": [\n",
    );
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"lines\": \"{}\", \"ops\": {}, \"secs\": {:.6}, \"ops_per_sec\": {:.1}}}{}\n",
            c.name,
            c.threads,
            if c.disjoint { "disjoint" } else { "overlapping" },
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

    #[test]
    fn matrix_covers_thread_counts_and_modes() {
        let cells = run_matrix(true);
        for &t in &[1usize, 4, 8] {
            assert!(cells.iter().any(|c| c.threads == t && c.disjoint));
            assert!(cells.iter().any(|c| c.threads == t && !c.disjoint));
        }
        assert!(cells.iter().all(|c| c.ops > 0));
        let json = to_json(&cells);
        assert!(json.contains("\"bench\": \"hotpath\""));
        assert!(json.contains("instr_store_u64"));
        assert!(render(&cells).contains("record_access"));
        // The outer-loop cells ride along and round-trip through the JSON
        // name extractor the CI schema guard relies on.
        let names = cell_names_in_json(&json).unwrap();
        for required in [
            "instr_store_batched",
            "instr_store_flush_each",
            "granule_cache_hit",
            "checkpoint_restore_fresh",
            "checkpoint_restore_delta",
            "crash_image_capture",
            "validate_cached",
            "fleet_execs",
            "cas_retry_execs",
        ] {
            assert!(names.iter().any(|n| n == required), "missing {required}");
        }
        // One fleet cell per worker count, each with real campaigns.
        let fleet: Vec<_> = cells.iter().filter(|c| c.name == "fleet_execs").collect();
        assert_eq!(
            fleet.iter().map(|c| c.threads).collect::<Vec<_>>(),
            [1, 2, 4, 8]
        );
        // The fleet cells must stay FIRST in the matrix: site ids are
        // process-global and first-come-first-served, so any cell running
        // before them would shift the fuzzer's coverage hashes and plan
        // mix away from what a standalone run sees.
        assert_eq!(
            cells.first().map(|c| c.name.as_str()),
            Some("fleet_execs"),
            "fleet cells must run before any site!()-registering microbench"
        );
        // One CAS-retry cell per driver-thread count.
        let cas: Vec<_> = cells
            .iter()
            .filter(|c| c.name == "cas_retry_execs")
            .collect();
        assert_eq!(cas.iter().map(|c| c.threads).collect::<Vec<_>>(), [2, 4]);
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
        let json = to_json(&cells);
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
    fn fleet_scaling_ratio_reads_committed_cells() {
        let fleet = |threads: usize, ops: u64| HotpathCell {
            name: "fleet_execs".to_owned(),
            threads,
            disjoint: true,
            ops,
            elapsed: Duration::from_secs(1),
        };
        let json = to_json(&[fleet(1, 300), fleet(4, 840)]);
        let ratio = fleet_scaling_in_json(&json, 4, 1).unwrap();
        assert!((ratio - 2.8).abs() < 1e-6, "got {ratio}");
        // Missing cells (or an unrelated document) yield None, not a panic.
        assert!(fleet_scaling_in_json(&json, 8, 1).is_none());
        assert!(fleet_scaling_in_json("{}", 4, 1).is_none());
    }

    #[test]
    fn cell_names_are_extracted_uniquely() {
        let cell = |name: &str, threads: usize| HotpathCell {
            name: name.to_owned(),
            threads,
            disjoint: true,
            ops: 10,
            elapsed: Duration::from_millis(5),
        };
        let cells = vec![cell("a_op", 1), cell("a_op", 4), cell("b_op", 1)];
        assert_eq!(
            cell_names_in_json(&to_json(&cells)).unwrap(),
            ["a_op", "b_op"]
        );
        assert!(cell_names_in_json("{}").is_err());
    }
}
