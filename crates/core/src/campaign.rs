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
//!
//! The checker state is recycled per exec thread the same way: a campaign
//! retires its finished [`Session`] into a thread-local slot and the next
//! campaign on that thread resets those tables in O(touched) instead of
//! allocating new ones (`Session::retire`, `Session::recycle`). The pool is
//! not part of it: it goes back with the session to the slot [`PoolStart`]
//! took it from, the checkpoint's own or the process's spare pool (see
//! [`crate::checkpoint`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use pmrace_api::TargetSpec;
use pmrace_pmem::{CrashImage, Pool, ThreadId};
use pmrace_runtime::coverage::CoverageMap;
use pmrace_runtime::report::Findings;
use pmrace_runtime::session::SharedAccesses;
use pmrace_runtime::strategy::InterleaveStrategy;
use pmrace_runtime::{HangCause, RtError, Session, SessionConfig, SessionTables};
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

/// How a campaign gets its pool.
#[derive(Debug, Clone, Copy)]
pub enum PoolStart<'a> {
    /// Build and format a new pool, paying the target's pool
    /// initialization cost (the Fig. 10 no-checkpoint baseline), then run
    /// the target's `init`.
    Format,
    /// Take the process's spare pool reset to the formatted image
    /// ([`CrashImage::formatted`]), then run the target's `init`: the state
    /// `Format` builds, without the format cost. A new pool is built only
    /// while the spare pool is in use (see [`crate::checkpoint`]'s module
    /// docs).
    Spare,
    /// Reset the checkpoint's pool to its crash image and reopen the target
    /// through its recovery path (§5).
    Checkpoint(&'a Checkpoint),
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
    /// Every eADR campaign formats a new eADR pool, whatever its
    /// [`PoolStart`]: checkpoints and the spare pool are ADR pools.
    pub eadr: bool,
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
    pub shared: SharedAccesses,
    /// Number of sync-var annotations the target registered.
    pub annotations: usize,
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

    /// The tables of the last session this thread retired, for its next
    /// campaign (see the module docs).
    static RETIRED: RefCell<Option<SessionTables>> = const { RefCell::new(None) };
}

/// Execute one campaign of `seed` against a fresh instance of `spec`,
/// starting on the pool `pool_start` names.
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
    pool_start: PoolStart<'_>,
) -> Result<CampaignResult, RtError> {
    let start = Instant::now();
    let (pool, recover) = start_pool(spec, cfg, pool_start);
    let mut session_cfg = SessionConfig {
        deadline: cfg.deadline,
        capture_crash_images: cfg.capture_images,
        max_crash_images: cfg.max_images,
        ..SessionConfig::default()
    };
    for rule in &cfg.extra_whitelist {
        session_cfg.whitelist.add(rule.clone());
    }
    let session = match RETIRED.take() {
        Some(tables) => {
            telemetry::add(telemetry::Counter::ExecSessionReuses, 1);
            Session::recycle(tables, pool, session_cfg)
        }
        None => {
            telemetry::add(telemetry::Counter::ExecSessionFresh, 1);
            Session::new(pool, session_cfg)
        }
    };
    // The pool start is traced by `start_pool`; the execution span covers
    // target init/recovery plus the driver threads.
    let _span = telemetry::span(telemetry::Phase::Execution);
    let target = if recover {
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
    let barrier = Arc::new(JobBarrier {
        state: Mutex::new((driver_count, None)),
        done: Condvar::new(),
    });
    for t in 0..driver_count {
        session.enlist(ThreadId(t as u32));
    }
    DRIVERS.with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.ensure(driver_count);
        for (t, ops) in seed.threads().iter().enumerate().take(cfg.threads) {
            let session = Arc::clone(&session);
            let target = Arc::clone(&target);
            let ops = ops.clone();
            let op_errors = Arc::clone(&op_errors);
            let session_on_panic = Arc::clone(&session);
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
            };
            let job: DriverJob = Box::new(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                if outcome.is_err() {
                    // The body never reached its own `thread_done`: report
                    // the thread finished to the strategy (its peers' waits
                    // count live threads).
                    session_on_panic.thread_done(ThreadId(t as u32));
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

    let coverage = session.coverage_handle();
    let shared = session.shared_accesses();
    let annotations = session.annotation_count();
    let pm_accesses = session.pm_accesses();
    let hang_cause = session.hang_cause();
    let findings = session.finish();
    // The drivers let go of the session before the barrier opened; with
    // the target gone too, nothing else holds it unless a target or a
    // strategy kept a reference, and then the next campaign starts fresh.
    drop(target);
    if let Some(tables) = Session::retire(session) {
        RETIRED.set(Some(tables));
    }
    if telemetry::enabled() {
        telemetry::add(telemetry::Counter::ExecCampaigns, 1);
        if findings.hang {
            telemetry::add(telemetry::Counter::ExecHangs, 1);
        }
        match hang_cause {
            Some(HangCause::AllWaiting) => {
                telemetry::add(telemetry::Counter::ExecHangsAllWaiting, 1);
            }
            Some(HangCause::SpinBudget) => {
                telemetry::add(telemetry::Counter::ExecHangsSpinBudget, 1);
            }
            Some(HangCause::Deadline) | None => {}
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

/// The campaign's pool, under the `pool_start` span, and whether the
/// target reopens it through its recovery path (a restored checkpoint)
/// rather than `init`.
fn start_pool(spec: &TargetSpec, cfg: &CampaignConfig, start: PoolStart<'_>) -> (Arc<Pool>, bool) {
    let _span = telemetry::span(telemetry::Phase::PoolStart);
    let mut opts = (spec.pool)();
    match start {
        // `acquire` recycles the pool the previous campaign retired
        // (in-place reset instead of a pool-sized allocation).
        PoolStart::Checkpoint(cp) if !cfg.eadr => return (cp.acquire(), true),
        PoolStart::Spare if !cfg.eadr => {
            if let Some((pool, reused)) =
                crate::checkpoint::spare_pool(&CrashImage::formatted(opts.size))
            {
                telemetry::add(
                    if reused {
                        telemetry::Counter::ExecSpareResets
                    } else {
                        telemetry::Counter::ExecSpareFresh
                    },
                    1,
                );
                return (pool, false);
            }
            // An empty pool has no spare: format it.
        }
        _ => {}
    }
    if cfg.eadr {
        opts = opts.eadr();
    }
    telemetry::add(telemetry::Counter::ExecPoolFormats, 1);
    (Arc::new(Pool::new(opts)), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_api::OpResult;
    use pmrace_pmem::PoolOpts;
    use pmrace_runtime::{site, PmView};
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
            PoolStart::Spare,
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
            PoolStart::Spare,
        )
        .unwrap();
        assert!(res.coverage.branches() > 0);
        assert!(!res.findings.hang);
        assert_eq!(res.annotations, 4);
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
        let res = run_campaign(
            &spec,
            &seed,
            &CampaignConfig::default(),
            None,
            PoolStart::Spare,
        )
        .unwrap();
        assert!(
            !res.shared.is_empty(),
            "4 threads on 4 hot keys must share PM addresses"
        );
    }

    #[test]
    fn leaked_lock_hang_is_judged_by_the_all_waiting_rule() {
        let spec = target_spec("P-CLHT").unwrap();
        // An idempotent update leaks the bucket lock (bug 5); the next op
        // on the same bucket waits on it, and it is the only driver.
        let ops = vec![
            Op::Insert { key: 1, value: 1 },
            Op::Update { key: 1, value: 1 },
            Op::Insert { key: 1, value: 3 },
        ];
        let seed = Seed::new(vec![ops]);
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(3600),
            ..CampaignConfig::default()
        };
        telemetry::set_enabled(true);
        let judged = || telemetry::metrics::counter(telemetry::Counter::ExecHangsAllWaiting);
        let before = judged();
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
        assert!(res.findings.hang, "leaked lock must surface as a hang");
        assert!(res.op_errors >= 1);
        assert!(
            judged() > before,
            "the all-waiting rule did not judge the hang"
        );
    }

    #[test]
    fn a_driver_whose_job_has_not_started_blocks_the_rule() {
        // A toy lock, held when the campaign starts: `insert` waits for it
        // and takes it, `delete` releases it, `get` does nothing. Thread 0
        // waits at once, and only the last of eight drivers releases the
        // lock, so thread 0 often waits before that driver's job has begun.
        // It still counts as live, since it was enlisted before any job ran:
        // the all-waiting rule never judges such a campaign hung. (The
        // yield-credit latch can, when a loaded host keeps the last driver
        // off the CPU for milliseconds; that is not what is tested here.)
        static RULE_VERDICTS: AtomicUsize = AtomicUsize::new(0);
        struct Handoff;
        impl pmrace_api::Target for Handoff {
            fn name(&self) -> &'static str {
                "handoff"
            }
            fn exec(&self, view: &PmView, op: &Op) -> Result<OpResult, RtError> {
                match op {
                    Op::Insert { .. } => view
                        .spin_until(|| {
                            let (taken, _) = view.cas_u64(64u64, 0, 1, site!("handoff.take"))?;
                            Ok(taken.then_some(()))
                        })
                        .inspect_err(|_| {
                            if view.session().hang_cause() == Some(HangCause::AllWaiting) {
                                RULE_VERDICTS.fetch_add(1, Ordering::Relaxed);
                            }
                        })?,
                    Op::Delete { .. } => view.ntstore_u64(64u64, 0u64, site!("handoff.release"))?,
                    _ => {}
                }
                Ok(OpResult::Done)
            }
        }
        fn init(session: &Arc<Session>) -> Result<Arc<dyn pmrace_api::Target>, RtError> {
            let view = session.view(ThreadId(0));
            view.ntstore_u64(64u64, 1u64, site!("handoff.held"))?;
            Ok(Arc::new(Handoff))
        }
        let spec = TargetSpec::new("handoff", init, init, PoolOpts::small);
        let mut threads = vec![vec![Op::Insert { key: 1, value: 1 }]];
        threads.extend((0..6).map(|_| vec![Op::Get { key: 1 }]));
        threads.push(vec![Op::Delete { key: 1 }]);
        let seed = Seed::new(threads);
        let cfg = CampaignConfig {
            threads: 8,
            deadline: Duration::from_secs(3600),
            ..CampaignConfig::default()
        };
        for round in 0..300 {
            run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
            assert_eq!(
                RULE_VERDICTS.load(Ordering::Relaxed),
                0,
                "round {round}: the rule judged a live driver's lock leaked"
            );
        }
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
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
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
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
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
        let fresh = run_campaign(
            &spec,
            &seed,
            &CampaignConfig::default(),
            None,
            PoolStart::Format,
        )
        .unwrap();
        let restored = run_campaign(
            &spec,
            &seed,
            &CampaignConfig::default(),
            None,
            PoolStart::Checkpoint(&cp),
        )
        .unwrap();
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
                PoolStart::Checkpoint(&cp),
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
                PoolStart::Spare,
            )
        }));
        assert!(outcome.is_err(), "the driver's panic reaches the caller");
        let mut done = strategy.done.lock().clone();
        done.sort_unstable();
        assert_eq!(done, [0, 1]);
    }
}
