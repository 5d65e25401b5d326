//! Deterministic schedule replay: re-enforce a recorded access order.
//!
//! [`ReplayStrategy`] takes the event log a
//! [`RecordingStrategy`](crate::RecordingStrategy) captured for one granule
//! and gates every matching access until all earlier events in the log have
//! fired — a condition-gated total order on the racy address, with no
//! timing dependence. Writers additionally *hold* after a store while the
//! recorded schedule says other threads' loads observe the not-yet-flushed
//! value (the event-gated analog of the Fig. 6 `writerWaiting` stall).
//!
//! When the target's control flow shifts (different build, minimized seed,
//! drifted layout) the recorded schedule may become unsatisfiable: the
//! thread owning the cursor's slot finishes, or waits at a later slot
//! itself. The turnstile tracks which driver threads are parked at its
//! gates and which have finished; once every live driver thread is parked
//! on a slot past the cursor, nothing can move the cursor again (the
//! Fig. 6 "all live threads block" condition). Instead of hanging, the
//! earliest-parked waiter then declares *divergence*: gating is abandoned,
//! the campaign runs to completion ungated, and the divergence is reported
//! so the caller can distinguish "bug gone" from "schedule did not apply".
//! The other waiters leave once the declaring thread has made its next
//! call into the strategy, so the access it waited for lands first — a
//! recorded reader loads before a holding writer flushes.
//!
//! No wall clock is involved. A thread spinning on a lock is not parked
//! (a spin on a leaked lock is the runtime's all-waiting rule's to judge),
//! and neither is one blocked outside the runtime, e.g. on a volatile
//! mutex a parked thread holds; the campaign deadline ends that case.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use pmrace_pmem::ThreadId;
use pmrace_runtime::site_label;
use pmrace_runtime::strategy::{AccessCtx, InterleaveStrategy};

/// One schedule constraint: the occurrence of a (kind, site label, thread)
/// triple at a fixed slot of the recorded order. Labels, not site ids —
/// ids are process-local, labels are stable across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayEvent {
    /// `true` for a load, `false` for a store.
    pub is_load: bool,
    /// Site label (e.g. `"clht_lb_res.c:417.read_ht_off"`).
    pub label: String,
    /// Driver thread that must perform this access.
    pub tid: u32,
}

type EventKey = (bool, String, u32);

/// `declarer` value naming no thread.
const NO_THREAD: u32 = u32::MAX;

/// Where a driver thread is, for the deadlock check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Running,
    /// Waiting at a gate or a writer's hold for the cursor to reach
    /// `needs`; `arrival` orders the waiters.
    Parked {
        needs: usize,
        arrival: u64,
    },
    /// `thread_done` ran.
    Done,
}

/// Enforces a recorded per-address access order, condition-gated.
#[derive(Debug)]
pub struct ReplayStrategy {
    granule: u64,
    events: Vec<ReplayEvent>,
    /// Slot indices per (kind, label, tid) triple, in recorded order: the
    /// k-th arriving occurrence of a triple must run at `positions[k]`.
    positions: HashMap<EventKey, Vec<usize>>,
    /// For each store slot, the last following slot that is a load by a
    /// *different* thread: the writer holds its flush until the cursor
    /// passes it, so those loads deterministically observe non-persisted
    /// data. `None` when no such window follows.
    hold_until: Vec<Option<usize>>,
    /// Slot granted last per thread (consumed by `after_store` holds).
    pending_hold: Mutex<HashMap<u32, usize>>,
    /// Occurrences of each triple seen so far this campaign.
    seen: Mutex<HashMap<EventKey, usize>>,
    /// Per driver thread, indexed by thread id.
    threads: Mutex<Vec<ThreadState>>,
    /// Parks so far, numbering each park's arrival.
    arrivals: AtomicU64,
    /// Before divergence: the earliest-parked waiter once every live
    /// driver thread is parked past the cursor; it declares the
    /// divergence. After: that thread until its next call into the
    /// strategy; the other waiters leave once this reads [`NO_THREAD`].
    declarer: AtomicU32,
    /// Next slot to grant.
    cursor: AtomicUsize,
    diverged: AtomicBool,
    divergence: Mutex<Option<String>>,
    poll: Duration,
}

impl ReplayStrategy {
    /// Replay `events` on the granule containing byte offset `off`, in a
    /// campaign of `threads` driver threads (thread ids `0..threads`).
    #[must_use]
    pub fn new(off: u64, events: Vec<ReplayEvent>, threads: usize) -> Self {
        let mut positions: HashMap<EventKey, Vec<usize>> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            positions
                .entry((e.is_load, e.label.clone(), e.tid))
                .or_default()
                .push(i);
        }
        let mut hold_until = vec![None; events.len()];
        for (i, e) in events.iter().enumerate() {
            if e.is_load {
                continue;
            }
            // Walk the run of other-thread loads directly after this store.
            let mut last = None;
            for (j, f) in events.iter().enumerate().skip(i + 1) {
                if f.is_load && f.tid != e.tid {
                    last = Some(j);
                } else {
                    break;
                }
            }
            hold_until[i] = last;
        }
        ReplayStrategy {
            granule: off / 8,
            events,
            positions,
            hold_until,
            pending_hold: Mutex::new(HashMap::new()),
            seen: Mutex::new(HashMap::new()),
            threads: Mutex::new(vec![ThreadState::Running; threads]),
            arrivals: AtomicU64::new(0),
            declarer: AtomicU32::new(NO_THREAD),
            cursor: AtomicUsize::new(0),
            diverged: AtomicBool::new(false),
            divergence: Mutex::new(None),
            poll: Duration::from_micros(50),
        }
    }

    /// Slots granted so far (== schedule length after a full replay).
    #[must_use]
    pub fn granted(&self) -> usize {
        self.cursor.load(Ordering::Acquire)
    }

    /// Number of slots in the schedule.
    #[must_use]
    pub fn total(&self) -> usize {
        self.events.len()
    }

    /// The divergence report, if gating was abandoned.
    #[must_use]
    pub fn divergence(&self) -> Option<String> {
        self.divergence.lock().clone()
    }

    /// After divergence, a call into the strategy by the declaring thread
    /// means the access it waited for is done: release the other waiters.
    fn progressed(&self, tid: ThreadId) {
        if self.declarer.load(Ordering::Relaxed) == tid.0 {
            self.declarer.store(NO_THREAD, Ordering::Release);
        }
    }

    /// Name the earliest-parked waiter as declarer when every live driver
    /// thread is parked on a cursor value not yet reached. Runs under the
    /// thread-state lock on every park and `thread_done`, the only events
    /// that can complete the condition. A thread leaves the parked set
    /// before it advances the cursor, so a grant in flight always shows as
    /// a running thread here.
    fn check_deadlock(&self, threads: &[ThreadState]) {
        if self.diverged.load(Ordering::Acquire) {
            return;
        }
        let cursor = self.cursor.load(Ordering::Acquire);
        let mut earliest: Option<(u64, usize)> = None;
        for (t, &state) in threads.iter().enumerate() {
            match state {
                ThreadState::Parked { needs, arrival } if needs > cursor => {
                    if earliest.is_none_or(|(a, _)| arrival < a) {
                        earliest = Some((arrival, t));
                    }
                }
                ThreadState::Done => {}
                // Running, or about to leave its wait.
                _ => return,
            }
        }
        if let Some((_, t)) = earliest {
            self.declarer.store(t as u32, Ordering::Release);
        }
    }

    /// Record `tid`'s new state; unless it runs, re-check for a deadlock.
    fn set_state(&self, tid: ThreadId, state: ThreadState) {
        let mut threads = self.threads.lock();
        let Some(slot) = threads.get_mut(tid.0 as usize) else {
            return; // not a driver thread of this campaign
        };
        *slot = state;
        if state != ThreadState::Running {
            self.check_deadlock(&threads);
        }
    }

    /// Wait until `cursor` reaches `target`; `true` on success, `false`
    /// when cancelled or diverged (gates are open from then on).
    fn await_cursor(&self, target: usize, ctx: &AccessCtx<'_>, why: &str) -> bool {
        if self.cursor.load(Ordering::Acquire) >= target {
            return true;
        }
        let arrival = self.arrivals.fetch_add(1, Ordering::Relaxed);
        self.set_state(
            ctx.tid,
            ThreadState::Parked {
                needs: target,
                arrival,
            },
        );
        let me = ctx.tid.0;
        let granted = loop {
            if self.cursor.load(Ordering::Acquire) >= target {
                break true;
            }
            // `diverged` first: once it reads true, `declarer` reads the
            // declaring thread or its release, never the value before.
            let diverged = self.diverged.load(Ordering::Acquire);
            let declarer = self.declarer.load(Ordering::Acquire);
            if diverged {
                if declarer == NO_THREAD || declarer == me {
                    break false;
                }
            } else if declarer == me {
                self.declare(ctx, why);
                break false;
            }
            if (ctx.cancelled)() {
                break false;
            }
            std::thread::sleep(self.poll);
        };
        self.set_state(ctx.tid, ThreadState::Running);
        granted
    }

    fn declare(&self, ctx: &AccessCtx<'_>, why: &str) {
        let cur = self.cursor.load(Ordering::Acquire);
        let expected = self.events.get(cur).map_or("<end>".to_owned(), |e| {
            format!(
                "{} {} by t{}",
                if e.is_load { "load" } else { "store" },
                e.label,
                e.tid
            )
        });
        self.divergence.lock().get_or_insert(format!(
            "all live driver threads parked, {why}: cursor stuck at slot {cur}/{} \
             (next expected: {expected}); t{} at {} never got its turn",
            self.events.len(),
            ctx.tid.0,
            site_label(ctx.site),
        ));
        self.diverged.store(true, Ordering::Release);
    }

    fn gate(&self, is_load: bool, ctx: &AccessCtx<'_>) {
        if self.diverged.load(Ordering::Acquire) {
            self.progressed(ctx.tid);
            return;
        }
        if ctx.off / 8 != self.granule {
            return;
        }
        let label = site_label(ctx.site);
        let key: EventKey = (is_load, label.to_owned(), ctx.tid.0);
        let slot = {
            let Some(slots) = self.positions.get(&key) else {
                return; // unconstrained access (not part of the schedule)
            };
            let mut seen = self.seen.lock();
            let k = seen.entry(key.clone()).or_insert(0);
            let idx = *k;
            *k += 1;
            match slots.get(idx) {
                Some(&slot) => slot,
                None => return, // beyond the recorded window: unconstrained
            }
        };
        if self.await_cursor(slot, ctx, "waiting for slot") {
            // Our slot: grant it and advance the order.
            self.cursor.store(slot + 1, Ordering::Release);
            if !is_load {
                if let Some(until) = self.hold_until[slot] {
                    self.pending_hold.lock().insert(ctx.tid.0, until);
                }
            }
        }
    }
}

impl InterleaveStrategy for ReplayStrategy {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn before_load(&self, ctx: &AccessCtx<'_>) {
        self.gate(true, ctx);
    }

    fn before_store(&self, ctx: &AccessCtx<'_>) {
        self.gate(false, ctx);
    }

    fn after_store(&self, ctx: &AccessCtx<'_>) {
        if self.diverged.load(Ordering::Acquire) {
            self.progressed(ctx.tid);
            return;
        }
        if ctx.off / 8 != self.granule {
            return;
        }
        let Some(until) = self.pending_hold.lock().remove(&ctx.tid.0) else {
            return;
        };
        // Hold the flush until the recorded racy reads went through.
        let _ = self.await_cursor(until + 1, ctx, "holding flush for readers");
    }

    fn on_spin(&self, tid: ThreadId) {
        if self.diverged.load(Ordering::Relaxed) {
            self.progressed(tid);
        }
    }

    fn thread_done(&self, tid: ThreadId) {
        if self.diverged.load(Ordering::Acquire) {
            self.progressed(tid);
            return;
        }
        self.set_state(tid, ThreadState::Done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_runtime::site;
    use std::sync::Arc;

    impl ReplayStrategy {
        fn is_parked(&self, tid: u32) -> bool {
            matches!(
                self.threads.lock()[tid as usize],
                ThreadState::Parked { .. }
            )
        }

        /// Yield until driver thread `tid`, running on `thread`, is parked
        /// at a gate or hold; fail if the thread ended instead.
        fn until_parked<T>(&self, tid: u32, thread: &std::thread::JoinHandle<T>) {
            while !self.is_parked(tid) {
                assert!(!thread.is_finished(), "t{tid} never parked");
                std::thread::yield_now();
            }
        }
    }

    fn ctx<'a>(
        off: u64,
        site: pmrace_runtime::Site,
        tid: u32,
        cancelled: &'a dyn Fn() -> bool,
    ) -> AccessCtx<'a> {
        AccessCtx {
            off,
            len: 8,
            site,
            tid: ThreadId(tid),
            cancelled,
        }
    }

    fn ev(is_load: bool, label: &str, tid: u32) -> ReplayEvent {
        ReplayEvent {
            is_load,
            label: label.to_owned(),
            tid,
        }
    }

    const NEVER: &dyn Fn() -> bool = &|| false;

    #[test]
    fn enforces_store_before_load_order() {
        let (l, s) = (site!("rp-load"), site!("rp-store"));
        let strat = Arc::new(ReplayStrategy::new(
            64,
            vec![ev(false, "rp-store", 0), ev(true, "rp-load", 1)],
            2,
        ));
        // The "PM word": the writer stores between its gate and its hold.
        let word = Arc::new(AtomicU64::new(0));
        let (strat2, word2) = (Arc::clone(&strat), Arc::clone(&word));
        let reader = std::thread::spawn(move || {
            strat2.before_load(&ctx(64, l, 1, NEVER));
            word2.load(Ordering::SeqCst)
        });
        strat.until_parked(1, &reader);
        strat.before_store(&ctx(64, s, 0, NEVER));
        word.store(7, Ordering::SeqCst);
        // The writer's flush is held until the reader's slot fired.
        strat.after_store(&ctx(64, s, 0, NEVER));
        assert_eq!(strat.granted(), 2, "the hold outlasts the reader's slot");
        assert_eq!(reader.join().unwrap(), 7, "reader ran before the store");
        assert!(strat.divergence().is_none());
    }

    #[test]
    fn unconstrained_accesses_pass_through() {
        let l = site!("rp-free-load");
        let strat = ReplayStrategy::new(64, vec![ev(false, "some-store", 0)], 1);
        strat.before_load(&ctx(64, l, 0, NEVER)); // label not in schedule
        strat.before_load(&ctx(4096, l, 0, NEVER)); // other granule
        assert_eq!(strat.granted(), 0);
        assert!(!strat.is_parked(0));
        assert!(strat.divergence().is_none());
    }

    #[test]
    fn all_parked_threads_report_divergence_instead_of_hanging() {
        let l = site!("rp-div-load");
        let schedule = vec![ev(false, "missing-store", 0), ev(true, "rp-div-load", 1)];
        // The owner of slot 0 finished before the waiter arrived.
        let strat = ReplayStrategy::new(64, schedule.clone(), 2);
        strat.thread_done(ThreadId(0));
        strat.before_load(&ctx(64, l, 1, NEVER));
        let why = strat.divergence().expect("divergence must be reported");
        assert!(why.contains("all live driver threads parked"), "{why}");
        assert!(why.contains("slot 0/2"), "{why}");
        assert!(why.contains("store missing-store by t0"), "{why}");
        assert!(why.contains("t1 at rp-div-load"), "{why}");
        // After divergence, every gate is open.
        strat.before_load(&ctx(64, l, 1, NEVER));
        assert_eq!(strat.granted(), 0);

        // The owner finishes while the waiter is parked.
        let strat = Arc::new(ReplayStrategy::new(64, schedule, 2));
        let strat2 = Arc::clone(&strat);
        let waiter = std::thread::spawn(move || strat2.before_load(&ctx(64, l, 1, NEVER)));
        strat.until_parked(1, &waiter);
        assert!(strat.divergence().is_none(), "t0 is still live");
        strat.thread_done(ThreadId(0));
        assert_eq!(strat.declarer.load(Ordering::SeqCst), 1, "t1 must declare");
        waiter.join().unwrap();
        assert!(strat.divergence().is_some());
        assert!(!strat.is_parked(1));
    }

    #[test]
    fn earliest_parked_reader_leaves_before_a_holding_writer() {
        let (r, w) = (site!("rp-ord-read"), site!("rp-ord-write"));
        // t1 stores at slot 0 and holds its flush until the loads at slots
        // 1 (t2's, which never comes) and 2 (t0's) went through.
        let strat = Arc::new(ReplayStrategy::new(
            64,
            vec![
                ev(false, "rp-ord-write", 1),
                ev(true, "rp-ord-missing", 2),
                ev(true, "rp-ord-read", 0),
            ],
            3,
        ));
        let order = Arc::new(AtomicU64::new(0));
        strat.thread_done(ThreadId(2));
        let (strat0, order0) = (Arc::clone(&strat), Arc::clone(&order));
        let reader = std::thread::spawn(move || {
            strat0.before_load(&ctx(64, r, 0, NEVER));
            let seq = order0.fetch_add(1, Ordering::SeqCst);
            // Until this thread calls into the strategy again, the writer
            // stays held, however long it is given to leave.
            for _ in 0..10_000 {
                if !strat0.is_parked(1) {
                    break;
                }
                std::thread::yield_now();
            }
            let writer_held = strat0.is_parked(1);
            strat0.thread_done(ThreadId(0));
            (seq, writer_held)
        });
        strat.until_parked(0, &reader);
        let (strat1, order1) = (Arc::clone(&strat), Arc::clone(&order));
        let writer = std::thread::spawn(move || {
            strat1.before_store(&ctx(64, w, 1, NEVER));
            strat1.after_store(&ctx(64, w, 1, NEVER));
            let seq = order1.fetch_add(1, Ordering::SeqCst);
            strat1.thread_done(ThreadId(1));
            seq
        });
        let (read_seq, writer_held) = reader.join().unwrap();
        assert!(writer_held, "the writer left before the reader's next call");
        let released = strat.declarer.load(Ordering::SeqCst) == NO_THREAD;
        assert!(released, "the reader's thread_done must release the writer");
        let write_seq = writer.join().unwrap();
        assert!(
            read_seq < write_seq,
            "the writer's flush overtook the reader"
        );
        let why = strat.divergence().expect("divergence must be reported");
        assert!(why.contains("slot 1/3"), "{why}");
        assert!(why.contains("t0 at rp-ord-read"), "{why}");
    }

    #[test]
    fn running_or_spinning_threads_never_trigger_divergence() {
        let (l, s) = (site!("rp-live-load"), site!("rp-live-store"));
        let strat = Arc::new(ReplayStrategy::new(
            64,
            vec![ev(false, "rp-live-store", 0), ev(true, "rp-live-load", 1)],
            2,
        ));
        let strat2 = Arc::clone(&strat);
        let waiter = std::thread::spawn(move || strat2.before_load(&ctx(64, l, 1, NEVER)));
        strat.until_parked(1, &waiter);
        // t0 runs, then spins on a lock: never parked, so no declarer.
        for _ in 0..100 {
            strat.on_spin(ThreadId(0));
        }
        assert_eq!(strat.declarer.load(Ordering::SeqCst), NO_THREAD);
        assert!(strat.is_parked(1));
        assert!(strat.divergence().is_none());
        // Its store releases the waiter in order.
        strat.before_store(&ctx(64, s, 0, NEVER));
        waiter.join().unwrap();
        assert_eq!(strat.granted(), 2);
        assert!(strat.divergence().is_none());
    }

    #[test]
    fn cancellation_releases_a_parked_waiter() {
        let l = site!("rp-cancel-load");
        let strat = ReplayStrategy::new(
            64,
            vec![
                ev(false, "rp-cancel-store", 0),
                ev(true, "rp-cancel-load", 1),
            ],
            2,
        );
        let cancelled = || true;
        strat.before_load(&ctx(64, l, 1, &cancelled));
        assert_eq!(strat.granted(), 0);
        assert!(!strat.is_parked(1));
        assert!(strat.divergence().is_none());
    }

    #[test]
    fn occurrences_beyond_the_window_are_unconstrained() {
        let l = site!("rp-win-load");
        let strat = ReplayStrategy::new(64, vec![ev(true, "rp-win-load", 0)], 1);
        strat.before_load(&ctx(64, l, 0, NEVER)); // slot 0
        strat.before_load(&ctx(64, l, 0, NEVER)); // beyond the window
        assert_eq!(strat.granted(), 1);
        assert!(strat.divergence().is_none());
    }
}
