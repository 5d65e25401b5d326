//! One fuzz campaign: one execution of the target with a seed under an
//! interleaving strategy, checkers armed.
//!
//! Driver threads are *pooled per exec thread* (`DriverPool`): at fleet
//! rates the two `thread::spawn`/join pairs per campaign cost more than a
//! checkpoint restore, so each OS thread that runs campaigns keeps its
//! drivers alive across campaigns and feeds them per-campaign jobs over
//! channels. The pool is thread-local, so concurrent exec workers never
//! share drivers and the per-campaign dispatch order (thread 0 first) is
//! as deterministic as the scoped-spawn order it replaces.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use pmrace_api::TargetSpec;
use pmrace_pmem::{Pool, ThreadId};
use pmrace_runtime::coverage::CoverageMap;
use pmrace_runtime::report::Findings;
use pmrace_runtime::session::SharedAccessEntry;
use pmrace_runtime::strategy::InterleaveStrategy;
use pmrace_runtime::{RtError, Session, SessionConfig, SyncVarAnnotation};
use pmrace_telemetry as telemetry;

use crate::checkpoint::Checkpoint;
use crate::seed::Seed;

/// Which interleaving-exploration scheme drives the campaign (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// No scheduling: plain repeated execution.
    None,
    /// Random delay injection before each PM access (the *Delay Inj*
    /// baseline), with the given maximum delay.
    Delay {
        /// Upper bound of the injected uniform delay, in microseconds.
        max_delay_us: u64,
    },
    /// PMRace's conditional-wait scheduling (Fig. 6).
    Pmrace,
    /// Round-robin serialization (systematic-enumeration baseline, §7).
    Systematic,
}

/// Per-campaign execution parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Driver threads (4 in the paper's setup, §6.1).
    pub threads: usize,
    /// Wall-clock budget; campaigns that exceed it are hangs.
    pub deadline: Duration,
    /// Capture crash images for post-failure validation.
    pub capture_images: bool,
    /// Crash-image budget per campaign.
    pub max_images: usize,
    /// Run under the eADR failure model (§6.6): persistent CPU caches.
    /// Incompatible with checkpoints (a fresh pool is built instead).
    pub eadr: bool,
    /// Model hardware cache eviction (§2.1: "the persist order depends on
    /// the eviction order of cache lines"): while the campaign runs, an
    /// agitator thread persists random dirty granules every this many
    /// microseconds. `0` disables eviction (deterministic persist order).
    pub eviction_interval_us: u64,
    /// Extra whitelist rules (site-label substrings) on top of the default
    /// PMDK/checksum rules — the §4.4 knob for application-specific
    /// crash-consistency guarantees.
    pub extra_whitelist: Vec<String>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: 4,
            deadline: Duration::from_millis(400),
            capture_images: true,
            max_images: 32,
            eadr: false,
            eviction_interval_us: 0,
            extra_whitelist: Vec::new(),
        }
    }
}

/// Everything one campaign produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// Checker findings (candidates, inconsistencies, sync updates, hang).
    pub findings: Findings,
    /// Session coverage (merge into the global map for feedback). Handed
    /// off by reference count — the session is finished, so the map is
    /// immutable and the explorer merges from the original allocation.
    pub coverage: Arc<CoverageMap>,
    /// Shared-access statistics feeding the priority queue.
    pub shared: Vec<SharedAccessEntry>,
    /// Sync-var annotations the target registered.
    pub annotations: Vec<SyncVarAnnotation>,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Operations that failed with a runtime error (timeouts during hangs).
    pub op_errors: usize,
    /// Instrumented PM events (loads/stores/flushes/fences) the campaign
    /// executed; feeds the fuzzer's accesses/sec throughput meter.
    pub pm_accesses: u64,
}

/// One dispatched unit of driver work.
type DriverJob = Box<dyn FnOnce() + Send + 'static>;

/// Countdown the dispatching thread blocks on until every driver job of
/// the campaign finished; a panicking job parks its payload here so
/// [`run_campaign`] can resume the unwind on the dispatcher (matching the
/// scoped-spawn semantics the pool replaced).
struct JobBarrier {
    state: Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    done: Condvar,
}

/// A persistent driver thread: jobs in via channel, exits on hangup.
struct DriverSlot {
    tx: mpsc::Sender<DriverJob>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Lazily-grown pool of persistent driver threads (see the module docs).
#[derive(Default)]
struct DriverPool {
    slots: Vec<DriverSlot>,
}

impl DriverPool {
    fn ensure(&mut self, n: usize) {
        while self.slots.len() < n {
            let (tx, rx) = mpsc::channel::<DriverJob>();
            let handle = std::thread::Builder::new()
                .name(format!("pmrace-driver-{}", self.slots.len()))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn pooled driver thread");
            self.slots.push(DriverSlot {
                tx,
                handle: Some(handle),
            });
        }
    }
}

impl Drop for DriverPool {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            // Hang up the channel first so the drained driver exits...
            let (dead, _) = mpsc::channel::<DriverJob>();
            drop(std::mem::replace(&mut slot.tx, dead));
        }
        for slot in &mut self.slots {
            // ...then reap it (jobs signalled their barrier already, so
            // nothing here can block behind an unfinished campaign).
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

thread_local! {
    /// One driver pool per campaign-running OS thread (exec workers,
    /// validation recovery runs, tests). Dropped — drivers hung up and
    /// reaped — when the owning thread exits.
    static DRIVERS: RefCell<DriverPool> = RefCell::new(DriverPool::default());
}

/// Execute one campaign of `seed` against a fresh instance of `spec`.
///
/// When `checkpoint` is given, the pool starts from the checkpointed image
/// and the target is reopened through its recovery path (cheap reset);
/// otherwise the pool is created and the target initialized from scratch.
///
/// # Errors
///
/// Returns an error only if target construction fails; operation-level
/// errors (e.g. hang timeouts) are counted in
/// [`CampaignResult::op_errors`].
pub fn run_campaign(
    spec: &TargetSpec,
    seed: &Seed,
    cfg: &CampaignConfig,
    strategy: Option<Arc<dyn InterleaveStrategy>>,
    checkpoint: Option<&Checkpoint>,
) -> Result<CampaignResult, RtError> {
    let start = Instant::now();
    let pool = match checkpoint {
        // `acquire` recycles the pool the previous campaign retired
        // (in-place reset instead of a pool-sized allocation).
        Some(cp) if !cfg.eadr => cp.acquire(),
        _ => {
            let mut opts = (spec.pool)();
            if cfg.eadr {
                opts = opts.eadr();
            }
            Arc::new(Pool::new(opts))
        }
    };
    let mut whitelist = pmrace_runtime::whitelist::Whitelist::default_rules();
    for rule in &cfg.extra_whitelist {
        whitelist.add(rule.clone());
    }
    let session = Session::new(
        pool,
        SessionConfig {
            deadline: cfg.deadline,
            capture_crash_images: cfg.capture_images,
            max_crash_images: cfg.max_images,
            whitelist,
            ..SessionConfig::default()
        },
    );
    // Pool acquisition (checkpoint restore) is traced separately inside
    // `Checkpoint::acquire`; the execution span covers target
    // init/recovery plus the driver threads.
    let _span = telemetry::span(telemetry::Phase::Execution);
    let target = if checkpoint.is_some() && !cfg.eadr {
        (spec.recover)(&session)?
    } else {
        (spec.init)(&session)?
    };
    // Checker-arming hook (§4.3): the spec gets one shot at the session
    // before driver threads start, e.g. to add target-specific checkers.
    if let Some(arm) = spec.arm {
        arm(&session);
    }
    if let Some(strategy) = strategy {
        session.set_strategy(strategy);
    }

    let driver_count = seed.threads().len().min(cfg.threads);
    let op_errors = Arc::new(AtomicUsize::new(0));
    let live_workers = Arc::new(AtomicUsize::new(driver_count));
    let barrier = Arc::new(JobBarrier {
        state: Mutex::new((driver_count, None)),
        done: Condvar::new(),
    });
    let agitator = (cfg.eviction_interval_us > 0).then(|| {
        // Cache-eviction agitator: persists random dirty granules at
        // the configured rate, modeling hardware write-back that is
        // not under the program's control. Exits when the last driver
        // thread finishes. Rare config, so it still gets a fresh thread
        // instead of a pool slot.
        let session = Arc::clone(&session);
        let live_workers = Arc::clone(&live_workers);
        let interval = Duration::from_micros(cfg.eviction_interval_us);
        std::thread::spawn(move || {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xE71C);
            while live_workers.load(Ordering::Acquire) > 0 && !session.cancelled() {
                let _ = session.pool().evict_random(&mut rng);
                std::thread::sleep(interval);
            }
        })
    });
    DRIVERS.with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.ensure(driver_count);
        for (t, ops) in seed.threads().iter().enumerate().take(cfg.threads) {
            let session = Arc::clone(&session);
            let target = Arc::clone(&target);
            let ops = ops.clone();
            let op_errors = Arc::clone(&op_errors);
            let live_on_panic = Arc::clone(&live_workers);
            let session_on_panic = Arc::clone(&session);
            let live_workers = Arc::clone(&live_workers);
            let barrier = Arc::clone(&barrier);
            let body = move || {
                let tid = ThreadId(t as u32);
                let view = session.view(tid);
                for op in &ops {
                    // An op boundary is forward progress even when the op
                    // made no store (bounded retry loops giving up): keep
                    // the livelock streak scoped to a single blocked op.
                    view.begin_op();
                    match target.exec(&view, op) {
                        Ok(_) => {}
                        Err(RtError::Timeout | RtError::Halted) => {
                            op_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Err(_) => {
                            op_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Drain this thread's batched shadow/coverage before the
                // scheduler learns the thread is gone — post-join accessors
                // would flush anyway, but detection-bearing state must not
                // outlive the thread that staged it.
                view.flush();
                session.thread_done(tid);
                live_workers.fetch_sub(1, Ordering::AcqRel);
            };
            let job: DriverJob = Box::new(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                if outcome.is_err() {
                    // The body never reached its own `thread_done` and
                    // decrement: report the thread finished to the strategy
                    // (its peers' waits count live threads) and release the
                    // agitator's liveness count here too.
                    session_on_panic.thread_done(ThreadId(t as u32));
                    live_on_panic.fetch_sub(1, Ordering::AcqRel);
                }
                // Release the session before the dispatcher wakes: the next
                // campaign recycles the pool only when nothing else holds it.
                drop(session_on_panic);
                let mut state = barrier.state.lock();
                state.0 -= 1;
                if let Err(payload) = outcome {
                    state.1 = Some(payload);
                }
                if state.0 == 0 {
                    barrier.done.notify_all();
                }
            });
            pool.slots[t]
                .tx
                .send(job)
                .expect("pooled driver thread hung up");
        }
    });
    {
        let mut state = barrier.state.lock();
        while state.0 > 0 {
            barrier.done.wait(&mut state);
        }
        if let Some(payload) = state.1.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }
    if let Some(handle) = agitator {
        let _ = handle.join();
    }

    let coverage = session.coverage_handle();
    let shared = session.shared_accesses();
    let annotations = session.annotations();
    let pm_accesses = session.pm_accesses();
    let findings = session.finish();
    if telemetry::enabled() {
        telemetry::add(telemetry::Counter::ExecCampaigns, 1);
        if findings.hang {
            telemetry::add(telemetry::Counter::ExecHangs, 1);
        }
        let errs = op_errors.load(Ordering::Relaxed);
        if errs > 0 {
            telemetry::add(telemetry::Counter::ExecOpErrors, errs as u64);
        }
        telemetry::metrics::record_duration(telemetry::Histogram::CampaignNs, start.elapsed());
    }
    Ok(CampaignResult {
        findings,
        coverage,
        shared,
        annotations,
        duration: start.elapsed(),
        op_errors: op_errors.load(Ordering::Relaxed),
        pm_accesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_targets::{target_spec, Op};

    fn insert_seed(threads: usize) -> Seed {
        let ops: Vec<Op> = (1..=32u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        Seed::from_flat(&ops, threads)
    }

    #[test]
    fn arm_hook_fires_once_per_campaign_before_drivers() {
        static ARMED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let spec = target_spec("P-CLHT").unwrap().with_arm(|_session| {
            ARMED.fetch_add(1, Ordering::Relaxed);
        });
        run_campaign(
            &spec,
            &insert_seed(2),
            &CampaignConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(ARMED.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn campaign_runs_and_reports_coverage() {
        let spec = target_spec("P-CLHT").unwrap();
        let res = run_campaign(
            &spec,
            &insert_seed(4),
            &CampaignConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert!(res.coverage.branches() > 0);
        assert!(!res.findings.hang);
        assert_eq!(res.annotations.len(), 4);
        assert!(res.duration < Duration::from_secs(5));
        assert!(res.pm_accesses > 0, "the access meter must count PM events");
    }

    #[test]
    fn concurrent_campaign_finds_shared_accesses() {
        let spec = target_spec("P-CLHT").unwrap();
        // Hot keys across threads: shared PM addresses guaranteed.
        let ops: Vec<Op> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    Op::Insert {
                        key: 1 + (i % 4),
                        value: i,
                    }
                } else {
                    Op::Get { key: 1 + (i % 4) }
                }
            })
            .collect();
        let seed = Seed::from_flat(&ops, 4);
        let res = run_campaign(&spec, &seed, &CampaignConfig::default(), None, None).unwrap();
        assert!(
            !res.shared.is_empty(),
            "4 threads on 4 hot keys must share PM addresses"
        );
    }

    #[test]
    fn hang_bug_is_reported_via_deadline() {
        let spec = target_spec("P-CLHT").unwrap();
        // An idempotent update leaks the bucket lock (bug 5); the next op
        // on the same bucket hangs until the deadline.
        let ops = vec![
            Op::Insert { key: 1, value: 1 },
            Op::Update { key: 1, value: 1 },
            Op::Insert { key: 1, value: 3 },
        ];
        let seed = Seed::new(vec![ops]);
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_millis(150),
            ..CampaignConfig::default()
        };
        let res = run_campaign(&spec, &seed, &cfg, None, None).unwrap();
        assert!(res.findings.hang, "leaked lock must surface as a hang");
        assert!(res.op_errors >= 1);
    }

    #[test]
    fn eviction_agitator_persists_dirty_data_in_flight() {
        // With aggressive eviction, some normally-Dirty windows close on
        // their own: the campaign must still run to completion and the
        // eviction must not corrupt any data (differential sanity below).
        let spec = target_spec("P-CLHT").unwrap();
        let ops: Vec<Op> = (1..=40u64)
            .flat_map(|k| [Op::Insert { key: k, value: k }, Op::Get { key: k }])
            .collect();
        let seed = Seed::from_flat(&ops, 2);
        let cfg = CampaignConfig {
            threads: 2,
            deadline: Duration::from_secs(5),
            eviction_interval_us: 20,
            ..CampaignConfig::default()
        };
        let res = run_campaign(&spec, &seed, &cfg, None, None).unwrap();
        assert_eq!(res.op_errors, 0, "eviction must be transparent to targets");
    }

    #[test]
    fn extra_whitelist_rules_mark_matching_records_benign() {
        // Whitelist the P-CLHT GC read: its (normally bug-worthy) intra
        // inconsistency must now be flagged benign (the user knob of S4.4).
        let spec = target_spec("P-CLHT").unwrap();
        let ops: Vec<Op> = (1..=130u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let seed = Seed::from_flat(&ops, 1);
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            extra_whitelist: vec!["clht_gc.c:190".to_owned()],
            ..CampaignConfig::default()
        };
        let res = run_campaign(&spec, &seed, &cfg, None, None).unwrap();
        let gc_records: Vec<_> = res
            .findings
            .inconsistencies
            .iter()
            .filter(|i| pmrace_runtime::site_label(i.candidate.read_site).contains("clht_gc.c:190"))
            .collect();
        assert!(
            !gc_records.is_empty(),
            "resize workload must hit the GC read"
        );
        assert!(gc_records.iter().all(|r| r.whitelisted));
    }

    #[test]
    fn eadr_campaign_has_no_inconsistency_candidates() {
        let spec = target_spec("P-CLHT").unwrap();
        let ops: Vec<Op> = (1..=60u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let seed = Seed::from_flat(&ops, 4);
        let cfg = CampaignConfig {
            eadr: true,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let res = run_campaign(&spec, &seed, &cfg, None, None).unwrap();
        assert!(
            res.findings.candidates.is_empty(),
            "eADR caches are persistent; reading non-persisted data is impossible: {:?}",
            res.findings
                .candidates
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
        assert!(res.findings.inconsistencies.is_empty());
        // PM Synchronization Inconsistency still occurs (§6.6): persistent
        // locks survive crashes in locked state regardless of eADR.
        assert!(
            !res.findings.sync_updates.is_empty(),
            "sync-var updates must still be recorded under eADR"
        );
    }

    #[test]
    fn checkpointed_campaign_matches_fresh_semantics() {
        let spec = target_spec("CCEH").unwrap();
        let cp = Checkpoint::create(&spec).unwrap();
        let seed = insert_seed(2);
        let fresh = run_campaign(&spec, &seed, &CampaignConfig::default(), None, None).unwrap();
        let restored =
            run_campaign(&spec, &seed, &CampaignConfig::default(), None, Some(&cp)).unwrap();
        assert_eq!(fresh.op_errors, 0);
        assert_eq!(restored.op_errors, 0);
        assert!(restored.coverage.branches() > 0);
    }

    #[test]
    fn campaigns_hand_their_checkpoint_pool_back() {
        // The next campaign recycles the pool only when no driver still
        // holds the session once `run_campaign` returns.
        let spec = target_spec("CCEH").unwrap();
        let cp = Checkpoint::create(&spec).unwrap();
        let pool = cp.acquire();
        let pool_ptr = Arc::as_ptr(&pool);
        drop(pool);
        for round in 0..20 {
            run_campaign(
                &spec,
                &insert_seed(4),
                &CampaignConfig::default(),
                None,
                Some(&cp),
            )
            .unwrap();
            let pool = cp.acquire();
            assert_eq!(
                Arc::as_ptr(&pool),
                pool_ptr,
                "round {round}: pool not recycled"
            );
        }
    }

    #[test]
    fn a_panicking_driver_is_reported_finished() {
        // Strategies count live threads (Fig. 6's all-block test, the
        // replay turnstile): a driver that panics must still end as done.
        #[derive(Default)]
        struct PanicOnT1 {
            done: Mutex<Vec<u32>>,
        }
        impl InterleaveStrategy for PanicOnT1 {
            fn name(&self) -> &'static str {
                "panic-on-t1"
            }
            fn before_op(&self, tid: ThreadId, _: &dyn Fn() -> bool) {
                assert_ne!(tid, ThreadId(1), "driver t1 panics");
            }
            fn thread_done(&self, tid: ThreadId) {
                self.done.lock().push(tid.0);
            }
        }
        let spec = target_spec("P-CLHT").unwrap();
        let strategy = Arc::new(PanicOnT1::default());
        let dyn_strategy: Arc<dyn InterleaveStrategy> = strategy.clone();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(
                &spec,
                &insert_seed(2),
                &CampaignConfig::default(),
                Some(dyn_strategy),
                None,
            )
        }));
        assert!(outcome.is_err(), "the driver's panic reaches the caller");
        let mut done = strategy.done.lock().clone();
        done.sort_unstable();
        assert_eq!(done, [0, 1]);
    }
}
