//! Deterministic schedule replay: re-enforce a recorded access order.
//!
//! [`ReplayStrategy`] takes the event log a
//! [`RecordingStrategy`](crate::RecordingStrategy) captured for one granule
//! and gates every matching access until all earlier events in the log have
//! run — a condition-gated total order on the racy address, with no timing
//! dependence: a slot completes in the `after_load`, `after_store` or
//! `on_cas_fail` of its access. Writers additionally *hold* after a store
//! while the recorded schedule says other threads' loads observe the
//! not-yet-flushed value (the event-gated analog of Fig. 6's
//! `writerWaiting` stall).
//!
//! When the target's control flow shifts (different build, minimized seed,
//! drifted layout) the recorded schedule may become unsatisfiable. Once
//! every live driver thread is parked on a slot past the cursor (the Fig. 6
//! "all live threads block" condition), the turnstile names the waiter the
//! recorded order runs first, and it declares *divergence* instead of
//! hanging: gating is abandoned and the campaign runs on ungated. The other
//! waiters leave once the declarer has made its next call into the
//! strategy, so a recorded reader loads before a holding writer flushes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use parking_lot::Mutex;

use pmrace_pmem::ThreadId;
use pmrace_runtime::site_label;
use pmrace_runtime::strategy::{AccessCtx, InterleaveStrategy};

use crate::turnstile::Turnstile;

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

/// Enforces a recorded per-address access order, condition-gated.
#[derive(Debug)]
pub struct ReplayStrategy {
    granule: u64,
    events: Vec<ReplayEvent>,
    /// Slot indices per (kind, label, tid) triple, in recorded order: the
    /// k-th arriving occurrence of a triple must run at `positions[k]`.
    positions: HashMap<EventKey, Vec<usize>>,
    /// For each store slot, the last slot of the run of other threads'
    /// loads right after it: the writer holds its flush until the cursor
    /// passes it, so those loads observe non-persisted data.
    hold_until: Vec<Option<usize>>,
    /// Slot granted per thread whose access has not run yet: its
    /// `after_load`, `after_store` or `on_cas_fail` completes the slot.
    granted: Mutex<HashMap<u32, usize>>,
    /// Occurrences of each triple seen so far this campaign.
    seen: Mutex<HashMap<EventKey, usize>>,
    /// Waiters at gates and holds park here for the slot they need.
    turnstile: Turnstile,
    /// Before divergence: the waiter the turnstile names once every live
    /// driver thread is parked past the cursor; it declares the
    /// divergence. After: that thread until its next call into the
    /// strategy; the other waiters leave once this reads [`NO_THREAD`].
    declarer: AtomicU32,
    /// Next slot to grant.
    cursor: AtomicUsize,
    diverged: AtomicBool,
    divergence: Mutex<Option<String>>,
}

impl ReplayStrategy {
    /// Replay `events` on the granule containing byte offset `off`, in a
    /// campaign of `threads` driver threads (thread ids `0..threads`).
    #[must_use]
    pub fn new(off: u64, events: Vec<ReplayEvent>, threads: usize) -> Self {
        let mut positions: HashMap<EventKey, Vec<usize>> = HashMap::new();
        let mut hold_until = Vec::with_capacity(events.len());
        for (i, e) in events.iter().enumerate() {
            let key = (e.is_load, e.label.clone(), e.tid);
            positions.entry(key).or_default().push(i);
            let other = |f: &&ReplayEvent| f.is_load && f.tid != e.tid;
            let loads = events[i + 1..].iter().take_while(other).count();
            hold_until.push((!e.is_load && loads > 0).then_some(i + loads));
        }
        ReplayStrategy {
            granule: off / 8,
            events,
            positions,
            hold_until,
            granted: Mutex::new(HashMap::new()),
            seen: Mutex::new(HashMap::new()),
            turnstile: Turnstile::new(threads),
            declarer: AtomicU32::new(NO_THREAD),
            cursor: AtomicUsize::new(0),
            diverged: AtomicBool::new(false),
            divergence: Mutex::new(None),
        }
    }

    /// The divergence report, if gating was abandoned.
    #[must_use]
    pub fn divergence(&self) -> Option<String> {
        self.divergence.lock().clone()
    }

    /// `true` once gating is abandoned. From then on, a call into the
    /// strategy by the declaring thread means the access it waited for is
    /// done: it releases the other waiters.
    fn ungated(&self, tid: ThreadId) -> bool {
        if !self.diverged.load(Ordering::Acquire) {
            return false;
        }
        if self.declarer.load(Ordering::Relaxed) == tid.0 {
            self.declarer.store(NO_THREAD, Ordering::Release);
            self.turnstile.unpark(usize::MAX);
        }
        true
    }

    /// Wait until `cursor` reaches `target`; `true` on success, `false`
    /// when cancelled or diverged (gates are open from then on).
    fn await_cursor(&self, target: usize, ctx: &AccessCtx<'_>, why: &str) -> bool {
        let me = ctx.tid.0;
        let until = || {
            if self.cursor.load(Ordering::Acquire) >= target {
                return Some(true);
            }
            // `diverged` first: once it reads true, `declarer` reads the
            // declaring thread or its release, never the value before.
            let diverged = self.diverged.load(Ordering::Acquire);
            let declarer = self.declarer.load(Ordering::Acquire);
            if diverged {
                return (declarer == NO_THREAD || declarer == me).then_some(false);
            }
            if declarer == me {
                self.declare(ctx, why);
                return Some(false);
            }
            self.turnstile.stalled(&self.cursor, &self.declarer);
            None
        };
        self.turnstile
            .park(me, target, ctx.cancelled, until)
            .unwrap_or(false)
    }

    fn declare(&self, ctx: &AccessCtx<'_>, why: &str) {
        let cur = self.cursor.load(Ordering::Acquire);
        let expected = self.events.get(cur).map_or("<end>".to_owned(), |e| {
            let kind = if e.is_load { "load" } else { "store" };
            format!("{kind} {} by t{}", e.label, e.tid)
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
        if self.ungated(ctx.tid) || ctx.off / 8 != self.granule {
            return;
        }
        let key: EventKey = (is_load, site_label(ctx.site).to_owned(), ctx.tid.0);
        let Some(slots) = self.positions.get(&key) else {
            return; // unconstrained access (not part of the schedule)
        };
        let mut seen = self.seen.lock();
        let k = seen.entry(key).or_insert(0);
        *k += 1;
        let Some(&slot) = slots.get(*k - 1) else {
            return; // beyond the recorded window: unconstrained
        };
        drop(seen);
        if self.await_cursor(slot, ctx, "waiting for slot") {
            self.granted.lock().insert(ctx.tid.0, slot);
        }
    }

    /// `ctx.tid`'s granted access ran: advance the order past its slot and
    /// wake the waiters that needs. Returns the slot.
    fn complete(&self, ctx: &AccessCtx<'_>) -> Option<usize> {
        if self.ungated(ctx.tid) || ctx.off / 8 != self.granule {
            return None;
        }
        let slot = self.granted.lock().remove(&ctx.tid.0)?;
        self.cursor.store(slot + 1, Ordering::Release);
        self.turnstile.unpark(slot + 1);
        Some(slot)
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

    fn after_load(&self, ctx: &AccessCtx<'_>) {
        self.complete(ctx);
    }

    fn after_store(&self, ctx: &AccessCtx<'_>) {
        // Hold the flush until the recorded racy reads went through.
        if let Some(until) = self.complete(ctx).and_then(|slot| self.hold_until[slot]) {
            self.await_cursor(until + 1, ctx, "holding flush for readers");
        }
    }

    fn on_cas_fail(&self, ctx: &AccessCtx<'_>, _: u32) {
        self.complete(ctx);
    }

    fn on_spin(&self, tid: ThreadId) {
        self.ungated(tid);
    }

    fn thread_done(&self, tid: ThreadId) {
        if !self.ungated(tid) {
            self.turnstile.done(tid.0);
            self.turnstile.stalled(&self.cursor, &self.declarer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_runtime::site;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    impl ReplayStrategy {
        fn is_parked(&self, tid: u32) -> bool {
            self.turnstile.is_parked(tid)
        }

        fn until_parked<T>(&self, tid: u32, thread: &std::thread::JoinHandle<T>) {
            self.turnstile.until_parked(tid, thread);
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
            let seen = word2.load(Ordering::SeqCst);
            strat2.after_load(&ctx(64, l, 1, NEVER));
            seen
        });
        strat.until_parked(1, &reader);
        strat.before_store(&ctx(64, s, 0, NEVER));
        // Slot 0 is granted, but its store has not run: the reader waits.
        assert!(strat.is_parked(1), "the reader left before the store ran");
        word.store(7, Ordering::SeqCst);
        // The writer's flush is held until the reader's slot fired.
        strat.after_store(&ctx(64, s, 0, NEVER));
        assert_eq!(
            strat.cursor.load(Ordering::SeqCst),
            2,
            "the hold outlasts the reader's slot"
        );
        assert_eq!(reader.join().unwrap(), 7, "reader ran before the store");
        assert!(strat.divergence().is_none());
    }

    #[test]
    fn unconstrained_accesses_pass_through() {
        let l = site!("rp-free-load");
        let strat = ReplayStrategy::new(64, vec![ev(false, "some-store", 0)], 1);
        strat.before_load(&ctx(64, l, 0, NEVER)); // label not in schedule
        strat.before_load(&ctx(4096, l, 0, NEVER)); // other granule
        assert_eq!(strat.cursor.load(Ordering::SeqCst), 0);
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
        assert_eq!(strat.cursor.load(Ordering::SeqCst), 0);

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
    fn the_lowest_slot_reader_leaves_before_a_holding_writer() {
        let (r, w) = (site!("rp-ord-read"), site!("rp-ord-write"));
        // t1 stores at slot 0 and holds its flush until the loads at slots
        // 1 (t2's, which never comes) and 2 (t0's) went through. The writer
        // parks first, yet the reader, needing the lower slot, declares.
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
        let (strat1, order1) = (Arc::clone(&strat), Arc::clone(&order));
        let writer = std::thread::spawn(move || {
            strat1.before_store(&ctx(64, w, 1, NEVER));
            strat1.after_store(&ctx(64, w, 1, NEVER));
            let seq = order1.fetch_add(1, Ordering::SeqCst);
            strat1.thread_done(ThreadId(1));
            seq
        });
        strat.until_parked(1, &writer);
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
            strat0.after_load(&ctx(64, r, 0, NEVER));
            strat0.thread_done(ThreadId(0));
            (seq, writer_held)
        });
        let (read_seq, writer_held) = reader.join().unwrap();
        assert!(writer_held, "the writer left before the reader's next call");
        let released = strat.declarer.load(Ordering::SeqCst) == NO_THREAD;
        assert!(released, "the reader's after_load must release the writer");
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
        let waiter = std::thread::spawn(move || {
            strat2.before_load(&ctx(64, l, 1, NEVER));
            strat2.after_load(&ctx(64, l, 1, NEVER));
        });
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
        strat.after_store(&ctx(64, s, 0, NEVER));
        waiter.join().unwrap();
        assert_eq!(strat.cursor.load(Ordering::SeqCst), 2);
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
        assert_eq!(strat.cursor.load(Ordering::SeqCst), 0);
        assert!(!strat.is_parked(1));
        assert!(strat.divergence().is_none());
    }

    #[test]
    fn occurrences_beyond_the_window_are_unconstrained() {
        let l = site!("rp-win-load");
        let strat = ReplayStrategy::new(64, vec![ev(true, "rp-win-load", 0)], 1);
        strat.before_load(&ctx(64, l, 0, NEVER)); // slot 0
        assert_eq!(
            strat.cursor.load(Ordering::SeqCst),
            0,
            "the load has not run"
        );
        strat.after_load(&ctx(64, l, 0, NEVER));
        strat.before_load(&ctx(64, l, 0, NEVER)); // beyond the window
        strat.after_load(&ctx(64, l, 0, NEVER));
        assert_eq!(strat.cursor.load(Ordering::SeqCst), 1);
        assert!(strat.divergence().is_none());
    }

    #[test]
    fn a_failed_cas_completes_its_store_slot() {
        let (c, l) = (site!("rp-cas"), site!("rp-cas-load"));
        let schedule = vec![ev(false, "rp-cas", 0), ev(true, "rp-cas-load", 0)];
        let strat = ReplayStrategy::new(64, schedule, 1);
        strat.before_store(&ctx(64, c, 0, NEVER));
        strat.on_cas_fail(&ctx(64, c, 0, NEVER), 1);
        assert_eq!(strat.cursor.load(Ordering::SeqCst), 1);
        strat.before_load(&ctx(64, l, 0, NEVER));
        strat.after_load(&ctx(64, l, 0, NEVER));
        assert_eq!(strat.cursor.load(Ordering::SeqCst), 2);
    }
}
