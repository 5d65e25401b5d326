//! The PMRace conditional-wait scheduler (paper Fig. 6).
//!
//! Given one entry from the shared-access priority queue, loads of that
//! address (*sync points*) wait on a condition; the matching store signals
//! it and then stalls the writer before its flush, steering the execution
//! into reading non-persisted data.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pmrace_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmrace_pmem::ThreadId;
use pmrace_runtime::strategy::{AccessCtx, InterleaveStrategy};

use crate::{QueueEntry, SkipStore};

/// Timing and hang-detection knobs of the Fig. 6 algorithm.
///
/// Waiting is event-driven: a condition variable wakes parked threads on
/// signal, draft and disable, and the pitfall-2 draft fires on the event
/// that makes every live thread wait (a park, a spin report or a
/// `thread_done`), with no budget of its own. `reader_poll` survives only
/// as the unit of the pitfall-3 disable budget, `reader_poll ×
/// disable_iters` of wall time, keeping the knob values (and every
/// serialized repro artifact carrying them) meaning what they always did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncTuning {
    /// Unit of the disable budget (the paper's `usleep(100)` interval).
    pub reader_poll: Duration,
    /// Cap on the writer's stall after `cond_signal` (the paper's
    /// `writerWaiting`, set to the typical total execution time of the
    /// original program). The stall ends earlier once every other live
    /// thread is spinning or finished — no thread is left that could read
    /// the unflushed value — or when the campaign is cancelled.
    pub writer_wait: Duration,
    /// `reader_poll` units after which a still-blocked thread disables the
    /// sync point and learns a skip for future campaigns (pitfall 3).
    pub disable_iters: u32,
    /// Random extra initial skips (0..=jitter) added per sync point each
    /// campaign, so repeated executions of the same plan block threads at
    /// *different* dynamic occurrences of the sync point — the
    /// execution-tier nondeterminism the paper relies on (§4.2.3).
    pub skip_jitter: u32,
}

impl Default for SyncTuning {
    fn default() -> Self {
        SyncTuning {
            reader_poll: Duration::from_micros(50),
            writer_wait: Duration::from_millis(2),
            // Generous: when all threads block, the drafted privileged
            // thread may need to run a whole op sequence (e.g. enough
            // inserts to trigger a resize) before the signalling store is
            // reached. Sync points that never signal cost this wait once;
            // the learned skip avoids it in later campaigns (pitfall 3).
            disable_iters: 1200,
            skip_jitter: 8,
        }
    }
}

/// The interleaving to force: one shared address plus its load (sync-point)
/// and store (signaller) instructions, and the CAS instructions whose failed
/// attempts double as retry decision points.
#[derive(Debug, Clone)]
pub struct SyncPlan {
    /// Target granule byte offset.
    pub off: u64,
    /// Site ids of loads to gate.
    pub load_sites: HashSet<u32>,
    /// Site ids of stores that signal.
    pub store_sites: HashSet<u32>,
    /// Site ids of CAS instructions: a *failed* attempt at one of these is
    /// stalled like a sync-point load, interposing the signalling store
    /// between the CAS read and its retry.
    pub cas_sites: HashSet<u32>,
}

impl From<&QueueEntry> for SyncPlan {
    fn from(e: &QueueEntry) -> Self {
        SyncPlan {
            off: e.off,
            load_sites: e.load_sites.iter().map(|s| s.id()).collect(),
            store_sites: e.store_sites.iter().map(|s| s.id()).collect(),
            cas_sites: e.cas_sites.iter().map(|s| s.id()).collect(),
        }
    }
}

/// Failed-CAS attempts past this streak are a retry storm: the scheduler
/// stops interposing and lets the loop resolve naturally, so forced
/// interleavings cannot livelock a heavily contended CAS word. Hardcoded
/// (not a [`SyncTuning`] knob) because tuning is serialized into every
/// repro artifact and this bound is part of the engagement *semantics*,
/// not campaign timing.
const CAS_STORM_BOUND: u32 = 8;

/// Upper bound of `cond_wait` engagements per CAS site per campaign; after
/// this many interpositions further failures pass through untouched.
const CAS_ENGAGE_CAP: u32 = 4;

/// Upper bound on one condvar park inside `cond_wait`: parked threads wake
/// at least this often to re-check campaign cancellation.
const CANCEL_POLL: Duration = Duration::from_millis(1);

/// `on_spin` reports a spinner must make after the newest park (or
/// `thread_done`) before the draft counts it as blocked. The park may
/// follow the release of the lock the spinner waits on, so its first
/// report can close a retry that started while the lock was still held;
/// the second closes a retry that started after the park and failed.
const FRESH_SPINS: u32 = 2;

/// Shared Fig. 6 wait state, guarded by one mutex + condvar so signal,
/// draft, and disable wake parked readers *immediately* instead of being
/// discovered by a sleep-poll loop.
#[derive(Debug)]
struct HubState {
    /// The condition `m`: set by the first matching store's `cond_signal`.
    signalled: bool,
    /// `sync.is_enabled` — cleared by the pitfall-3 disable path.
    enabled: bool,
    /// Thread granted bypass when all live threads block (pitfall 2).
    privileged: Option<ThreadId>,
    /// Threads currently parked in `cond_wait`, with the time each parked.
    blocked: Vec<(ThreadId, Instant)>,
    /// `on_spin` reports per thread since the newest park or `thread_done`
    /// (counted while some thread is parked; see [`FRESH_SPINS`]). Reset
    /// at both: the parking or finishing thread may have released what
    /// the spinners wait on.
    fresh_spins: Vec<u32>,
    /// Driver threads still executing (the all-block detection is over
    /// live threads; finished threads cannot signal anyone).
    active: usize,
}

#[derive(Debug)]
struct WaitHub {
    state: Mutex<HubState>,
    cv: Condvar,
}

/// The PM-aware conditional-wait strategy.
#[derive(Debug)]
pub struct PmraceStrategy {
    plan: SyncPlan,
    tuning: SyncTuning,
    skip_store: Arc<SkipStore>,
    /// Condition, enable flag, privilege, and blocked-set, event-driven.
    hub: WaitHub,
    /// Mirrors `!blocked.is_empty()` outside the hub lock, so `on_spin`
    /// takes the lock only while a parked thread may need a draft. Written
    /// under the lock; a stale read only moves a count to the next report.
    parked: AtomicBool,
    /// Per-thread "spinning" flags, indexed by thread id: set by
    /// `on_spin`, cleared by the thread's next completed store, its next
    /// park in `cond_wait`, or its `thread_done`. A spinning thread waits
    /// on another thread's store, so the stall and draft checks count it
    /// as blocked. Atomics outside the hub lock because `on_spin` fires on
    /// every spin iteration; a set takes the hub lock once to wake waiters.
    spinning: Vec<AtomicBool>,
    /// Remaining skips per load site this campaign (pitfall 3).
    skips: Mutex<HashMap<u32, u32>>,
    /// The skips the campaign *started* with (learned + realized jitter),
    /// frozen at construction so record/replay can pin them later.
    initial_skips: Vec<(u32, u32)>,
    /// `cond_wait` engagements per CAS site this campaign (bounded by
    /// [`CAS_ENGAGE_CAP`]).
    cas_engaged: Mutex<HashMap<u32, u32>>,
    rng: Mutex<StdRng>,
    waits: AtomicUsize,
    signals: AtomicUsize,
}

impl PmraceStrategy {
    /// Build a strategy for one campaign.
    ///
    /// `num_threads` is the number of target worker threads (used for the
    /// all-blocked detection); initial skips per sync point are loaded from
    /// `skip_store` — the persisted pitfall-3 state for this seed.
    #[must_use]
    pub fn new(
        plan: SyncPlan,
        num_threads: usize,
        skip_store: Arc<SkipStore>,
        tuning: SyncTuning,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let skips: HashMap<u32, u32> = plan
            .load_sites
            .iter()
            .map(|&s| {
                let jitter = if tuning.skip_jitter > 0 {
                    rng.random_range(0..=tuning.skip_jitter)
                } else {
                    0
                };
                (s, skip_store.get(plan.off, s) + jitter)
            })
            .collect();
        Self::build(plan, num_threads, skip_store, tuning, skips, rng)
    }

    /// Build a strategy with exact, pre-realized skip counts and no jitter.
    ///
    /// Used by schedule replay: a recorded campaign's realized skips (learned
    /// base + drawn jitter, as returned by [`initial_skips`](Self::initial_skips))
    /// are pinned verbatim so the sync points engage at the *same* dynamic
    /// occurrences as in the recorded run.
    #[must_use]
    pub fn with_skips(
        plan: SyncPlan,
        num_threads: usize,
        skips: HashMap<u32, u32>,
        tuning: SyncTuning,
        seed: u64,
    ) -> Self {
        // Jitter would re-randomize what the caller just pinned.
        let tuning = SyncTuning {
            skip_jitter: 0,
            ..tuning
        };
        let full: HashMap<u32, u32> = plan
            .load_sites
            .iter()
            .map(|&s| (s, skips.get(&s).copied().unwrap_or(0)))
            .collect();
        let rng = StdRng::seed_from_u64(seed);
        Self::build(
            plan,
            num_threads,
            Arc::new(SkipStore::new()),
            tuning,
            full,
            rng,
        )
    }

    fn build(
        plan: SyncPlan,
        num_threads: usize,
        skip_store: Arc<SkipStore>,
        tuning: SyncTuning,
        skips: HashMap<u32, u32>,
        rng: StdRng,
    ) -> Self {
        let mut initial_skips: Vec<(u32, u32)> = skips.iter().map(|(&s, &n)| (s, n)).collect();
        initial_skips.sort_unstable();
        PmraceStrategy {
            plan,
            tuning,
            skip_store,
            hub: WaitHub {
                state: Mutex::new(HubState {
                    signalled: false,
                    enabled: true,
                    privileged: None,
                    blocked: Vec::new(),
                    fresh_spins: vec![0; num_threads],
                    active: num_threads,
                }),
                cv: Condvar::new(),
            },
            parked: AtomicBool::new(false),
            spinning: (0..num_threads).map(|_| AtomicBool::new(false)).collect(),
            skips: Mutex::new(skips),
            initial_skips,
            cas_engaged: Mutex::new(HashMap::new()),
            rng: Mutex::new(rng),
            waits: AtomicUsize::new(0),
            signals: AtomicUsize::new(0),
        }
    }

    /// The skip counts this campaign started with, per load site — the sum
    /// of learned pitfall-3 skips and the jitter realized at construction.
    /// Sorted by site id; feed to [`with_skips`](Self::with_skips) to replay.
    #[must_use]
    pub fn initial_skips(&self) -> &[(u32, u32)] {
        &self.initial_skips
    }

    /// The plan being forced.
    #[must_use]
    pub fn plan(&self) -> &SyncPlan {
        &self.plan
    }

    /// Number of `cond_wait`s entered (telemetry for the experiments).
    #[must_use]
    pub fn waits_entered(&self) -> usize {
        self.waits.load(Ordering::Relaxed)
    }

    /// Number of `cond_signal`s fired.
    #[must_use]
    pub fn signals_sent(&self) -> usize {
        self.signals.load(Ordering::Relaxed)
    }

    /// `false` once the pitfall-3 path disabled this campaign's sync point.
    #[must_use]
    pub fn sync_point_enabled(&self) -> bool {
        self.hub.state.lock().enabled
    }

    /// Draft a privileged thread among the currently *blocked* ones —
    /// drafting among all `num_threads` could pick a finished thread, and a
    /// privilege granted to a thread that never runs again is silently lost
    /// (its `thread_done` already ran), leaving every parked reader to burn
    /// the full disable budget.
    fn draft_privileged(&self, st: &mut HubState) {
        let mut candidates = st.blocked.clone();
        candidates.sort_unstable_by_key(|(t, _)| t.0);
        let i = self.rng.lock().random_range(0..candidates.len());
        let (tid, parked_at) = candidates[i];
        st.privileged = Some(tid);
        telemetry::add(telemetry::Counter::PlanPrivilegedDrafts, 1);
        telemetry::metrics::record_duration(
            telemetry::Histogram::SchedDraftWaitNs,
            parked_at.elapsed(),
        );
    }

    /// Draft a privileged thread if every live thread now waits, waking
    /// the parked ones; `true` if it drafted. Runs on each event that can
    /// complete the condition: a park, a spin report, a `thread_done`.
    fn draft_if_stuck(&self, st: &mut HubState) -> bool {
        if !self.needs_draft(st) {
            return false;
        }
        self.draft_privileged(st);
        self.hub.cv.notify_all();
        true
    }

    /// Runs on every completed store, so it reads before writing: the
    /// flags share a cache line and are rarely set.
    fn clear_spinning(&self, tid: ThreadId) {
        if let Some(flag) = self.spinning.get(tid.0 as usize) {
            if flag.load(Ordering::Relaxed) {
                flag.store(false, Ordering::Relaxed);
            }
        }
    }

    fn is_spinning(&self, tid: ThreadId) -> bool {
        self.spinning
            .get(tid.0 as usize)
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// A spinner whose spin has outlived the newest park: it failed a
    /// retry that started after that park ([`FRESH_SPINS`]).
    fn is_stuck(&self, st: &HubState, tid: ThreadId) -> bool {
        self.is_spinning(tid)
            && st
                .fresh_spins
                .get(tid.0 as usize)
                .is_some_and(|&n| n >= FRESH_SPINS)
    }

    /// Threads not parked in `cond_wait`, other than `except`.
    fn outside<'s>(
        &'s self,
        st: &'s HubState,
        except: Option<ThreadId>,
    ) -> impl Iterator<Item = ThreadId> + 's {
        (0..self.spinning.len())
            .map(|t| ThreadId(t as u32))
            .filter(move |&t| Some(t) != except && !st.blocked.iter().any(|&(b, _)| b == t))
    }

    /// Spinning threads not parked in `cond_wait`, other than `except`.
    fn spinners_outside(&self, st: &HubState, except: Option<ThreadId>) -> usize {
        self.outside(st, except)
            .filter(|&t| self.is_spinning(t))
            .count()
    }

    /// Pitfall 2's draft condition: every live thread waits on another
    /// (parked in `cond_wait` or stuck spinning) and no privileged thread
    /// can break the cycle. A privileged thread stuck spinning is waiting
    /// on a parked one (typically for a lock it holds), so it is replaced.
    fn needs_draft(&self, st: &HubState) -> bool {
        let stuck = self.outside(st, None).filter(|&t| self.is_stuck(st, t));
        st.privileged.is_none_or(|p| self.is_stuck(st, p))
            && !st.blocked.is_empty()
            && st.blocked.len() + stuck.count() >= st.active.max(1)
    }

    fn matches_addr(&self, off: u64) -> bool {
        off / 8 == self.plan.off / 8
    }

    /// `cond_wait` (Fig. 6 lines 3–24).
    fn cond_wait(&self, ctx: &AccessCtx<'_>) {
        {
            let st = self.hub.state.lock();
            if !st.enabled {
                return;
            }
            if st.privileged == Some(ctx.tid) {
                return; // t->bypass_sync
            }
        }
        {
            let mut skips = self.skips.lock();
            if let Some(s) = skips.get_mut(&ctx.site.id()) {
                if *s > 0 {
                    *s -= 1; // sync.skip--
                    telemetry::add(telemetry::Counter::PlanSkipsConsumed, 1);
                    return;
                }
            }
        }
        self.waits.fetch_add(1, Ordering::Relaxed);
        telemetry::add(telemetry::Counter::PlanWaits, 1);
        let start = Instant::now();
        let disable_after = self.tuning.reader_poll * self.tuning.disable_iters;
        let mut st = self.hub.state.lock();
        // A parked thread counts through `blocked`; a spin that led here
        // has ended (a lock taken without a store, e.g. `try_lock`), and
        // `on_spin` sets the flag again if the thread resumes spinning.
        self.clear_spinning(ctx.tid);
        st.blocked.push((ctx.tid, start));
        self.parked.store(true, Ordering::Relaxed);
        st.fresh_spins.fill(0);
        loop {
            if st.signalled || !st.enabled || st.privileged == Some(ctx.tid) {
                break;
            }
            if (ctx.cancelled)() {
                break;
            }
            let waited = start.elapsed();
            if waited >= disable_after {
                // Some threads block with no signaller in sight: disable the
                // sync point and remember to skip it next campaign (line 10,
                // lines 6/21).
                st.enabled = false;
                self.skip_store.bump(self.plan.off, ctx.site.id());
                telemetry::add(telemetry::Counter::PlanSyncDisabled, 1);
                self.hub.cv.notify_all();
                break;
            }
            if self.draft_if_stuck(&mut st) {
                // All live threads block: a privileged thread is drafted
                // (lines 13–16); the loop condition releases it on the next
                // turn if it is this one. A park that completes the
                // condition drafts here at once; one parked earlier is
                // drafted by the spin report or `thread_done` that does.
                continue;
            }
            // Park until a signal/draft/disable wakes us, re-checking
            // cancellation and the disable budget at least every
            // `CANCEL_POLL`.
            let slice = (disable_after - waited).min(CANCEL_POLL);
            self.hub.cv.wait_for(&mut st, slice);
        }
        let me = ctx.tid;
        st.blocked.retain(|&(t, _)| t != me);
        self.parked.store(!st.blocked.is_empty(), Ordering::Relaxed);
    }

    /// `cond_signal` (Fig. 6 lines 26–30).
    fn cond_signal(&self, ctx: &AccessCtx<'_>) {
        let mut st = self.hub.state.lock();
        if !st.enabled || st.signalled {
            return;
        }
        st.signalled = true;
        self.hub.cv.notify_all();
        self.signals.fetch_add(1, Ordering::Relaxed);
        telemetry::add(telemetry::Counter::PlanAlternationsFired, 1);
        // Stall the writer so readers run their sync-point loads before
        // this store is flushed, for at most `writer_wait`. Once every
        // other live thread is spinning or finished, nobody is left to read
        // the value and the stall ends. Readers still parked in `cond_wait`
        // are about to wake, so they do not count as stuck. The condvar
        // wait releases the hub lock the woken readers need.
        let start = Instant::now();
        let released = loop {
            if self.spinners_outside(&st, Some(ctx.tid)) + 1 >= st.active {
                break true;
            }
            let waited = start.elapsed();
            if waited >= self.tuning.writer_wait || (ctx.cancelled)() {
                break false;
            }
            let slice = (self.tuning.writer_wait - waited).min(CANCEL_POLL);
            self.hub.cv.wait_for(&mut st, slice);
        };
        drop(st);
        telemetry::metrics::record_duration(
            telemetry::Histogram::SchedWriterStallNs,
            start.elapsed(),
        );
        if released {
            telemetry::add(telemetry::Counter::PlanStallReleased, 1);
        }
    }
}

impl InterleaveStrategy for PmraceStrategy {
    fn name(&self) -> &'static str {
        "pmrace"
    }

    fn before_load(&self, ctx: &AccessCtx<'_>) {
        if self.matches_addr(ctx.off) && self.plan.load_sites.contains(&ctx.site.id()) {
            self.cond_wait(ctx);
        }
    }

    fn after_store(&self, ctx: &AccessCtx<'_>) {
        // A completed store (a successful CAS included) ends a spin; a
        // CAS *attempt* does not, so `before_store` leaves the flag alone.
        self.clear_spinning(ctx.tid);
        if self.matches_addr(ctx.off) && self.plan.store_sites.contains(&ctx.site.id()) {
            self.cond_signal(ctx);
        }
    }

    fn on_cas_fail(&self, ctx: &AccessCtx<'_>, attempt: u32) {
        if attempt > CAS_STORM_BOUND || !self.matches_addr(ctx.off) {
            return;
        }
        let site = ctx.site.id();
        if !self.plan.cas_sites.contains(&site) && !self.plan.load_sites.contains(&site) {
            return;
        }
        {
            let mut engaged = self.cas_engaged.lock();
            let n = engaged.entry(site).or_insert(0);
            if *n >= CAS_ENGAGE_CAP {
                return;
            }
            *n += 1;
        }
        // The thread has just observed the word and is about to retry: park
        // it on the condition so the planned store lands *between* the CAS
        // read and the retry — the interleaving a lock-free publish race
        // needs. cond_wait's skip accounting, privileged drafting and
        // disable path all apply as for plain sync-point loads.
        self.cond_wait(ctx);
    }

    fn on_spin(&self, tid: ThreadId) {
        let Some(flag) = self.spinning.get(tid.0 as usize) else {
            return;
        };
        let newly = !flag.load(Ordering::Relaxed);
        if newly {
            flag.store(true, Ordering::Relaxed);
        } else if !self.parked.load(Ordering::Relaxed) {
            return;
        }
        // Taking the hub lock orders the flag before any waiter's next
        // check. While a thread is parked, every report is counted and may
        // complete the draft condition; a new spinner also wakes a stalled
        // writer to re-evaluate now instead of at its next timeout.
        let mut st = self.hub.state.lock();
        if let Some(n) = st.fresh_spins.get_mut(tid.0 as usize) {
            *n = n.saturating_add(1);
        }
        if !self.draft_if_stuck(&mut st) && newly {
            self.hub.cv.notify_all();
        }
    }

    fn thread_done(&self, tid: ThreadId) {
        let mut st = self.hub.state.lock();
        self.clear_spinning(tid);
        st.active = st.active.saturating_sub(1);
        // A finished privileged thread frees the slot.
        if st.privileged == Some(tid) {
            st.privileged = None;
        }
        // If every remaining live thread is already parked (or a spinner
        // later proves stuck), nobody is left to signal: draft a replacement
        // *now*, chaining execution until some thread reaches the
        // signalling store, instead of letting the parked readers burn
        // their whole disable budget.
        st.fresh_spins.fill(0);
        self.draft_if_stuck(&mut st);
        self.hub.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_runtime::{site, Site};
    use std::time::Instant;

    fn plan_for(off: u64, load: Site, store: Site) -> SyncPlan {
        SyncPlan {
            off,
            load_sites: [load.id()].into(),
            store_sites: [store.id()].into(),
            cas_sites: HashSet::new(),
        }
    }

    fn fast_tuning() -> SyncTuning {
        SyncTuning {
            reader_poll: Duration::from_micros(100),
            writer_wait: Duration::from_millis(1),
            disable_iters: 400,
            skip_jitter: 0,
        }
    }

    fn ctx<'a>(off: u64, site: Site, tid: u32, cancelled: &'a dyn Fn() -> bool) -> AccessCtx<'a> {
        AccessCtx {
            off,
            len: 8,
            site,
            tid: ThreadId(tid),
            cancelled,
        }
    }

    #[test]
    fn reader_blocks_until_writer_signals() {
        let (l, s) = (site!("load-a"), site!("store-a"));
        let strat = Arc::new(PmraceStrategy::new(
            plan_for(64, l, s),
            2,
            Arc::new(SkipStore::new()),
            fast_tuning(),
            7,
        ));
        let strat2 = Arc::clone(&strat);
        let reader = std::thread::spawn(move || {
            let cancelled = || false;
            let start = Instant::now();
            strat2.before_load(&ctx(64, l, 1, &cancelled));
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(10));
        let cancelled = || false;
        strat.after_store(&ctx(64, s, 0, &cancelled));
        let waited = reader.join().unwrap();
        assert!(
            waited >= Duration::from_millis(5),
            "reader returned early: {waited:?}"
        );
        assert_eq!(strat.signals_sent(), 1);
        assert_eq!(strat.waits_entered(), 1);
    }

    #[test]
    fn non_matching_accesses_pass_through() {
        let (l, s) = (site!("load-b"), site!("store-b"));
        let strat = PmraceStrategy::new(
            plan_for(64, l, s),
            2,
            Arc::new(SkipStore::new()),
            fast_tuning(),
            7,
        );
        let cancelled = || false;
        let start = Instant::now();
        strat.before_load(&ctx(128, l, 0, &cancelled)); // wrong address
        strat.before_load(&ctx(64, s, 0, &cancelled)); // wrong site kind
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(strat.waits_entered(), 0);
    }

    #[test]
    fn learned_skips_bypass_the_wait() {
        let (l, s) = (site!("load-c"), site!("store-c"));
        let skips = Arc::new(SkipStore::new());
        skips.bump(64, l.id());
        let strat = PmraceStrategy::new(plan_for(64, l, s), 2, skips, fast_tuning(), 7);
        let cancelled = || false;
        let start = Instant::now();
        strat.before_load(&ctx(64, l, 0, &cancelled)); // consumed the skip
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(strat.waits_entered(), 0);
    }

    #[test]
    fn all_blocked_threads_draft_a_privileged_one_and_disable() {
        let (l, s) = (site!("load-d"), site!("store-d"));
        let skips = Arc::new(SkipStore::new());
        let strat = Arc::new(PmraceStrategy::new(
            plan_for(64, l, s),
            2,
            Arc::clone(&skips),
            fast_tuning(),
            7,
        ));
        let mut handles = Vec::new();
        for t in 0..2u32 {
            let st = Arc::clone(&strat);
            handles.push(std::thread::spawn(move || {
                let cancelled = || false;
                let start = Instant::now();
                st.before_load(&ctx(64, l, t, &cancelled));
                start.elapsed()
            }));
        }
        for h in handles {
            let waited = h.join().unwrap();
            // Both must escape: one privileged, the other via disable.
            assert!(waited < Duration::from_secs(2), "thread stuck: {waited:?}");
        }
        // The non-privileged thread disabled the sync point and learned a skip.
        assert!(!strat.sync_point_enabled() || !skips.is_empty());
    }

    #[test]
    fn cancellation_breaks_the_wait() {
        let (l, s) = (site!("load-e"), site!("store-e"));
        let strat = PmraceStrategy::new(
            plan_for(64, l, s),
            4,
            Arc::new(SkipStore::new()),
            fast_tuning(),
            7,
        );
        let cancelled = || true;
        let start = Instant::now();
        strat.before_load(&ctx(64, l, 0, &cancelled));
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn signal_disables_future_waits() {
        let (l, s) = (site!("load-f"), site!("store-f"));
        let strat = PmraceStrategy::new(
            plan_for(64, l, s),
            2,
            Arc::new(SkipStore::new()),
            fast_tuning(),
            7,
        );
        let cancelled = || false;
        strat.after_store(&ctx(64, s, 0, &cancelled));
        // m is set: cond_wait's while loop never spins.
        let start = Instant::now();
        strat.before_load(&ctx(64, l, 1, &cancelled));
        assert!(start.elapsed() < Duration::from_millis(50));
        // A second signal does not stall the writer again (pitfall 1).
        let start = Instant::now();
        strat.after_store(&ctx(64, s, 0, &cancelled));
        assert!(start.elapsed() < Duration::from_millis(1));
        assert_eq!(strat.signals_sent(), 1);
    }

    #[test]
    fn with_skips_pins_realized_counts_without_jitter() {
        let (l, s) = (site!("load-g"), site!("store-g"));
        let jittery = SyncTuning {
            skip_jitter: 8,
            ..fast_tuning()
        };
        let recorded = PmraceStrategy::new(
            plan_for(64, l, s),
            2,
            Arc::new(SkipStore::new()),
            jittery,
            42,
        );
        let skips: HashMap<u32, u32> = recorded.initial_skips().iter().copied().collect();
        let replayed =
            PmraceStrategy::with_skips(plan_for(64, l, s), 2, skips.clone(), jittery, 42);
        assert_eq!(replayed.initial_skips(), recorded.initial_skips());
        // The pinned skips bypass the wait exactly that many times.
        let n = skips[&l.id()];
        let cancelled = || false;
        for _ in 0..n {
            let start = Instant::now();
            replayed.before_load(&ctx(64, l, 0, &cancelled));
            assert!(start.elapsed() < Duration::from_millis(50));
        }
        assert_eq!(replayed.waits_entered(), 0);
    }

    #[test]
    fn plan_from_queue_entry() {
        let e = QueueEntry {
            off: 640,
            load_sites: vec![site!("ql")],
            store_sites: vec![site!("qs")],
            cas_sites: vec![site!("qc")],
            priority: 3,
        };
        let p = SyncPlan::from(&e);
        assert_eq!(p.off, 640);
        assert_eq!(p.load_sites.len(), 1);
        assert_eq!(p.store_sites.len(), 1);
        assert_eq!(p.cas_sites.len(), 1);
    }

    fn cas_plan(off: u64, cas: Site, store: Site) -> SyncPlan {
        SyncPlan {
            off,
            load_sites: HashSet::new(),
            store_sites: [store.id()].into(),
            cas_sites: [cas.id()].into(),
        }
    }

    #[test]
    fn failed_cas_blocks_until_writer_signals() {
        let (c, s) = (site!("cas-a"), site!("store-cas-a"));
        let strat = Arc::new(PmraceStrategy::new(
            cas_plan(64, c, s),
            2,
            Arc::new(SkipStore::new()),
            fast_tuning(),
            7,
        ));
        let strat2 = Arc::clone(&strat);
        let retrier = std::thread::spawn(move || {
            let cancelled = || false;
            let start = Instant::now();
            strat2.on_cas_fail(&ctx(64, c, 1, &cancelled), 1);
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(10));
        let cancelled = || false;
        strat.after_store(&ctx(64, s, 0, &cancelled));
        let waited = retrier.join().unwrap();
        assert!(
            waited >= Duration::from_millis(5),
            "failed CAS returned early: {waited:?}"
        );
        assert_eq!(strat.waits_entered(), 1);
    }

    #[test]
    fn cas_retry_storms_and_engagement_caps_bound_the_stall() {
        let (c, s) = (site!("cas-b"), site!("store-cas-b"));
        let strat = PmraceStrategy::new(
            cas_plan(64, c, s),
            2,
            Arc::new(SkipStore::new()),
            fast_tuning(),
            7,
        );
        let cancelled = || false;
        // Signal first so every engaged wait falls straight through; the
        // engagement *count* is what this test measures.
        strat.after_store(&ctx(64, s, 0, &cancelled));
        // Deep-retry storm: attempts past the bound never engage.
        strat.on_cas_fail(&ctx(64, c, 1, &cancelled), CAS_STORM_BOUND + 1);
        assert_eq!(strat.waits_entered(), 0);
        // Bounded engagement: at most CAS_ENGAGE_CAP waits per site.
        for _ in 0..(CAS_ENGAGE_CAP + 3) {
            strat.on_cas_fail(&ctx(64, c, 1, &cancelled), 1);
        }
        assert_eq!(strat.waits_entered(), CAS_ENGAGE_CAP as usize);
        // Unplanned site or address: never engages.
        strat.on_cas_fail(&ctx(128, c, 1, &cancelled), 1);
        strat.on_cas_fail(&ctx(64, s, 1, &cancelled), 1);
        assert_eq!(strat.waits_entered(), CAS_ENGAGE_CAP as usize);
    }

    /// Two-thread strategy whose sync point only a long wait can disable,
    /// so the tests below see stalls and drafts, never the disable path.
    fn stall_strategy(writer_wait: Duration) -> (Arc<PmraceStrategy>, Site, Site) {
        let (l, s) = (site!("stall-load"), site!("stall-store"));
        let tuning = SyncTuning {
            writer_wait,
            disable_iters: 100_000,
            ..fast_tuning()
        };
        let strat =
            PmraceStrategy::new(plan_for(64, l, s), 2, Arc::new(SkipStore::new()), tuning, 7);
        (Arc::new(strat), l, s)
    }

    /// Run thread 0's signalling store and return how long it stalled.
    fn timed_signal(strat: &PmraceStrategy, s: Site) -> Duration {
        let cancelled = || false;
        let start = Instant::now();
        strat.after_store(&ctx(64, s, 0, &cancelled));
        start.elapsed()
    }

    /// Wait until `thread` is parked in `cond_wait`, or has already left
    /// it (the assertions that follow then report what released it).
    fn wait_until_parked(strat: &PmraceStrategy, thread: &std::thread::JoinHandle<()>) {
        while strat.hub.state.lock().blocked.is_empty() && !thread.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn writer_stall_ends_once_the_other_thread_spins() {
        let (strat, _, s) = stall_strategy(Duration::from_secs(10));
        let other = Arc::clone(&strat);
        let spinner = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            other.on_spin(ThreadId(1));
        });
        let stalled = timed_signal(&strat, s);
        spinner.join().unwrap();
        assert!(
            stalled < Duration::from_secs(5),
            "stall ran on: {stalled:?}"
        );
    }

    #[test]
    fn writer_stall_ends_once_the_other_thread_finishes() {
        let (strat, _, s) = stall_strategy(Duration::from_secs(10));
        let other = Arc::clone(&strat);
        let finisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            other.thread_done(ThreadId(1));
        });
        let stalled = timed_signal(&strat, s);
        finisher.join().unwrap();
        assert!(
            stalled < Duration::from_secs(5),
            "stall ran on: {stalled:?}"
        );
    }

    #[test]
    fn writer_stall_lasts_the_cap_while_another_thread_runs() {
        let cap = Duration::from_millis(20);
        let (strat, _, s) = stall_strategy(cap);
        let stalled = timed_signal(&strat, s);
        assert!(stalled >= cap, "stall ended early: {stalled:?}");
    }

    #[test]
    fn completed_store_ends_a_spin_but_a_cas_attempt_does_not() {
        let cancelled = || false;
        let other = site!("stall-other-store");
        // A CAS attempt (`before_store`) leaves thread 1 spinning.
        let (strat, _, s) = stall_strategy(Duration::from_secs(10));
        strat.on_spin(ThreadId(1));
        strat.before_store(&ctx(256, other, 1, &cancelled));
        let stalled = timed_signal(&strat, s);
        assert!(
            stalled < Duration::from_secs(5),
            "stall ran on: {stalled:?}"
        );
        // A completed store clears the flag: the stall runs to its cap.
        let cap = Duration::from_millis(20);
        let (strat, _, s) = stall_strategy(cap);
        strat.on_spin(ThreadId(1));
        strat.after_store(&ctx(256, other, 1, &cancelled));
        let stalled = timed_signal(&strat, s);
        assert!(stalled >= cap, "stall ended early: {stalled:?}");
    }

    #[test]
    fn reader_parked_at_signal_time_does_not_end_the_stall() {
        let cap = Duration::from_millis(20);
        let (strat, l, s) = stall_strategy(cap);
        let other = Arc::clone(&strat);
        let reader = std::thread::spawn(move || {
            let cancelled = || false;
            other.before_load(&ctx(64, l, 1, &cancelled));
        });
        wait_until_parked(&strat, &reader);
        // The reader is listed in `blocked` but about to wake and read the
        // unflushed value: the writer must keep stalling.
        let stalled = timed_signal(&strat, s);
        reader.join().unwrap();
        assert!(stalled >= cap, "stall ended early: {stalled:?}");
        assert!(strat.sync_point_enabled());
    }

    fn privileged(strat: &PmraceStrategy) -> Option<ThreadId> {
        strat.hub.state.lock().privileged
    }

    /// Park thread `tid` at the sync point on its own thread; join it
    /// once a draft (or signal) releases it.
    fn park(strat: &Arc<PmraceStrategy>, l: Site, tid: u32) -> std::thread::JoinHandle<()> {
        let other = Arc::clone(strat);
        std::thread::spawn(move || {
            let cancelled = || false;
            other.before_load(&ctx(64, l, tid, &cancelled));
        })
    }

    #[test]
    fn the_park_that_blocks_every_thread_drafts_at_once() {
        let (l, s) = (site!("draft-load"), site!("draft-store"));
        // A disable budget of an hour: only a draft can free the threads.
        let tuning = SyncTuning {
            reader_poll: Duration::from_secs(1),
            disable_iters: 3600,
            ..fast_tuning()
        };
        let strat = Arc::new(PmraceStrategy::new(
            plan_for(64, l, s),
            2,
            Arc::new(SkipStore::new()),
            tuning,
            7,
        ));
        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                let st = Arc::clone(&strat);
                std::thread::spawn(move || {
                    let cancelled = || false;
                    st.before_load(&ctx(64, l, t, &cancelled));
                    // The drafted thread runs on and finishes, which drafts
                    // the one still parked.
                    st.thread_done(ThreadId(t));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(strat.sync_point_enabled(), "drafted, not disabled");
        assert_eq!(strat.waits_entered(), 2);
    }

    #[test]
    fn spinning_thread_counts_as_blocked_for_the_draft() {
        let (strat, l, _) = stall_strategy(Duration::from_secs(10));
        let reader = park(&strat, l, 1);
        wait_until_parked(&strat, &reader);
        assert_eq!(privileged(&strat), None);
        // Thread 0 spins (e.g. on a lock the parked reader holds): once a
        // retry that started after the park fails, every live thread
        // waits, so the reader is drafted instead of waiting out the
        // disable budget.
        strat.on_spin(ThreadId(0));
        strat.on_spin(ThreadId(0));
        assert_eq!(privileged(&strat), Some(ThreadId(1)));
        reader.join().unwrap();
        assert!(strat.sync_point_enabled(), "drafted, not disabled");
    }

    #[test]
    fn a_spin_reported_before_the_park_does_not_draft() {
        let (strat, l, _) = stall_strategy(Duration::from_secs(10));
        // Thread 0 spins on a lock thread 1 holds; thread 1 releases it
        // and parks. The flag still reads "spinning", but thread 0 is
        // about to take the lock.
        strat.on_spin(ThreadId(0));
        let reader = park(&strat, l, 1);
        wait_until_parked(&strat, &reader);
        assert_eq!(privileged(&strat), None);
        // The first report after the park may close a retry that started
        // before it.
        strat.on_spin(ThreadId(0));
        assert_eq!(privileged(&strat), None);
        assert_eq!(strat.hub.state.lock().blocked.len(), 1);
        // The second closes one that started after it: thread 0 is stuck.
        strat.on_spin(ThreadId(0));
        assert_eq!(privileged(&strat), Some(ThreadId(1)));
        reader.join().unwrap();
        assert!(strat.sync_point_enabled(), "drafted, not disabled");
    }

    #[test]
    fn a_finish_restarts_the_spin_count() {
        let (l, s) = (site!("finish-load"), site!("finish-store"));
        let tuning = SyncTuning {
            disable_iters: 100_000,
            ..fast_tuning()
        };
        let strat = Arc::new(PmraceStrategy::new(
            plan_for(64, l, s),
            3,
            Arc::new(SkipStore::new()),
            tuning,
            7,
        ));
        let reader = park(&strat, l, 1);
        wait_until_parked(&strat, &reader);
        // Thread 0 spins while thread 2 still runs: no draft.
        strat.on_spin(ThreadId(0));
        strat.on_spin(ThreadId(0));
        assert_eq!(privileged(&strat), None);
        // Thread 2 may release what thread 0 waits on as it finishes, so
        // thread 0's spin counts again from here.
        strat.thread_done(ThreadId(2));
        assert_eq!(privileged(&strat), None);
        strat.on_spin(ThreadId(0));
        strat.on_spin(ThreadId(0));
        assert_eq!(privileged(&strat), Some(ThreadId(1)));
        reader.join().unwrap();
        assert!(strat.sync_point_enabled(), "drafted, not disabled");
    }

    #[test]
    fn spinning_privileged_thread_is_replaced() {
        let (strat, l, _) = stall_strategy(Duration::from_secs(10));
        // Thread 1 parks and is drafted once thread 0 spins.
        let first = park(&strat, l, 1);
        wait_until_parked(&strat, &first);
        strat.on_spin(ThreadId(0));
        strat.on_spin(ThreadId(0));
        assert_eq!(privileged(&strat), Some(ThreadId(1)));
        first.join().unwrap();
        // The privileged thread 1 now spins on something thread 0 holds
        // while thread 0 parks: once thread 1 fails a retry after that
        // park, thread 0 is drafted in its place.
        strat.on_spin(ThreadId(1));
        let second = park(&strat, l, 0);
        wait_until_parked(&strat, &second);
        assert_eq!(privileged(&strat), Some(ThreadId(1)));
        strat.on_spin(ThreadId(1));
        strat.on_spin(ThreadId(1));
        assert_eq!(privileged(&strat), Some(ThreadId(0)));
        second.join().unwrap();
        assert!(strat.sync_point_enabled(), "drafted, not disabled");
    }
}
