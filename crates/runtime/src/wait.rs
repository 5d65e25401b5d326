//! The all-waiting hang rule: a leaked lock is a hang as soon as every live
//! driver thread waits on one.
//!
//! Fig. 6 of the paper detects a scheduling deadlock by the test "all live
//! threads block"; the replay turnstile and the scheduler's draft use the
//! same test. This module applies it to the target's own unbounded waits.
//! A thread waits through [`PmView::spin_until`]: it runs an *attempt*
//! (a CAS on a lock word, a `try_lock`, a load of a flag) until one
//! succeeds. A failed attempt changes nothing another thread can observe,
//! so a thread that keeps failing has no effect on the others at all.
//!
//! The rule: **every live driver thread is inside a wait, and the latest
//! attempt of each failed after beginning at the current generation.** The
//! generation moves at every wait entry and every `thread_done`, the only
//! points where a thread that was running (and might have released what
//! another waits for) stops running. When the rule holds, each attempt
//! saw the state every other thread left behind when it last stopped
//! running, and nothing has changed it since: no attempt can ever
//! succeed, and the hang is certain.
//!
//! *Latest* matters: a thread whose newer attempt is still running may be
//! succeeding at that very moment (taking the lock its peer then fails
//! on), so beginning an attempt withdraws the thread's failure. A thread
//! that a strategy parks outside any wait or inside an unfinished attempt
//! (Fig. 6 `cond_wait`, the replay turnstile) blocks the rule, as it must,
//! since it may still release a lock; one parked between two attempts of
//! its wait (in `on_spin`) has nothing left to release and does not.
//!
//! `thread_done` does not evaluate the rule: it starts a new generation,
//! which makes every earlier failure stale, so the rule cannot hold at
//! that instant. The waiters' next failed attempts decide.
//!
//! The hub is a mutex touched on wait entry, at each attempt of a thread
//! already waiting, at `thread_done` and when a driver is enlisted, never
//! on the access hot path.
//!
//! [`PmView::spin_until`]: crate::PmView::spin_until

use parking_lot::Mutex;
use pmrace_pmem::ThreadId;

/// Which exit judged a campaign hung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangCause {
    /// The wall-clock deadline passed.
    Deadline,
    /// Every live driver thread waited in [`PmView::spin_until`] and failed
    /// an attempt nothing could change (see [`crate::wait`]).
    ///
    /// [`PmView::spin_until`]: crate::PmView::spin_until
    AllWaiting,
}

impl HangCause {
    /// Encoding in the session's hang latch; 0 means "not hung".
    pub(crate) fn code(self) -> u8 {
        match self {
            HangCause::Deadline => 1,
            HangCause::AllWaiting => 2,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<HangCause> {
        match code {
            1 => Some(HangCause::Deadline),
            2 => Some(HangCause::AllWaiting),
            _ => None,
        }
    }
}

/// The session's record of who waits (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct WaitHub {
    state: Mutex<HubState>,
}

#[derive(Debug, Default)]
struct HubState {
    /// Driver threads that may still run: a bit per thread enlisted
    /// ([`crate::Session::enlist`], also by every view), cleared by
    /// `thread_done`.
    live: u64,
    /// Threads inside a wait whose latest attempt failed after beginning
    /// at the current generation.
    stuck: u64,
    /// Bumped at every wait entry and every `thread_done`.
    generation: u64,
}

impl HubState {
    fn next_generation(&mut self) {
        self.generation += 1;
        self.stuck = 0;
    }
}

fn bit(tid: ThreadId) -> u64 {
    1 << tid.0
}

impl WaitHub {
    /// `tid` counts as live until its `thread_done`.
    pub(crate) fn add_driver(&self, tid: ThreadId) {
        self.state.lock().live |= bit(tid);
    }

    /// `tid` finished its operations.
    pub(crate) fn driver_done(&self, tid: ThreadId) {
        let mut st = self.state.lock();
        st.live &= !bit(tid);
        st.next_generation();
    }

    /// `tid`'s first attempt failed: it now waits.
    pub(crate) fn enter(&self, tid: ThreadId) -> Waiting<'_> {
        self.state.lock().next_generation();
        Waiting { hub: self, tid }
    }
}

/// A thread's membership in the hub while it waits; dropping it (success,
/// error or unwind) withdraws the thread's failure.
#[derive(Debug)]
pub(crate) struct Waiting<'a> {
    hub: &'a WaitHub,
    tid: ThreadId,
}

impl Waiting<'_> {
    /// An attempt begins: withdraw the thread's last failure and return
    /// the generation the attempt belongs to.
    pub(crate) fn attempt_begins(&self) -> u64 {
        let mut st = self.hub.state.lock();
        st.stuck &= !bit(self.tid);
        st.generation
    }

    /// The attempt that began at `began` failed. `true` when the rule now
    /// holds: the campaign hangs.
    pub(crate) fn attempt_failed(&self, began: u64) -> bool {
        let mut st = self.hub.state.lock();
        if began == st.generation {
            st.stuck |= bit(self.tid);
        }
        st.live != 0 && st.live & !st.stuck == 0
    }
}

impl Drop for Waiting<'_> {
    fn drop(&mut self) {
        self.hub.state.lock().stuck &= !bit(self.tid);
    }
}

#[cfg(test)]
mod tests {
    //! Every session here has a one-hour deadline, so only the
    //! all-waiting rule can end a wait. The tests never
    //! assert on time: `until` gives up after a minute only so that a
    //! broken rule fails the test instead of hanging it.

    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use pmrace_pmem::{Pool, PoolOpts};

    use crate::strategy::{AccessCtx, InterleaveStrategy};
    use crate::{site, PmView, RtError, Session, SessionConfig};

    const LOCK: u64 = 64;
    const OTHER_LOCK: u64 = 128;

    fn session() -> Arc<Session> {
        Session::new(
            Arc::new(Pool::new(PoolOpts::small())),
            SessionConfig {
                deadline: Duration::from_secs(3600),
                ..SessionConfig::default()
            },
        )
    }

    /// Take the PM spin lock at `off`, counting attempts in `tries`.
    fn lock(v: &PmView, off: u64, tries: &AtomicUsize) -> Result<(), RtError> {
        v.spin_until(|| {
            tries.fetch_add(1, Ordering::Relaxed);
            Ok(v.cas_u64(off, 0, 1, site!("wait.test.lock"))?
                .0
                .then_some(()))
        })
    }

    /// Poll until `done()`. After a minute, halt the session (ending every
    /// wait with `Halted`) and fail.
    fn until(s: &Session, done: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(60);
        while !done() {
            if Instant::now() > give_up {
                s.halt();
                panic!("the test's condition never came true");
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Let a waiter fail `n` more attempts, then check nothing latched.
    fn fails_without_latching(s: &Session, tries: &AtomicUsize, n: usize) {
        let target = tries.load(Ordering::Relaxed) + n;
        until(s, || {
            tries.load(Ordering::Relaxed) >= target || s.hang_cause().is_some()
        });
        assert_eq!(s.hang_cause(), None, "the rule latched too early");
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Hook {
        Op,
        Load,
        Spin,
    }

    /// A strategy that parks `tid` at the `nth` call of one hook until
    /// `open`.
    #[derive(Debug)]
    struct Gate {
        tid: ThreadId,
        hook: Hook,
        nth: usize,
        calls: AtomicUsize,
        parked: AtomicBool,
        open: AtomicBool,
    }

    impl Gate {
        fn new(tid: ThreadId, hook: Hook, nth: usize) -> Arc<Self> {
            Arc::new(Gate {
                tid,
                hook,
                nth,
                calls: AtomicUsize::new(0),
                parked: AtomicBool::new(false),
                open: AtomicBool::new(false),
            })
        }

        fn hit(&self, tid: ThreadId, hook: Hook) {
            if tid != self.tid || hook != self.hook {
                return;
            }
            if self.calls.fetch_add(1, Ordering::Relaxed) + 1 != self.nth {
                return;
            }
            self.parked.store(true, Ordering::Release);
            let give_up = Instant::now() + Duration::from_secs(60);
            while !self.open.load(Ordering::Acquire) && Instant::now() < give_up {
                std::thread::sleep(Duration::from_micros(100));
            }
        }

        fn parked(&self) -> bool {
            self.parked.load(Ordering::Acquire)
        }

        fn open(&self) {
            self.open.store(true, Ordering::Release);
        }
    }

    /// The strategy: every gate sees every hook call.
    #[derive(Debug)]
    struct Gates(Vec<Arc<Gate>>);

    impl Gates {
        fn install(s: &Session, gates: &[&Arc<Gate>]) {
            s.set_strategy(Arc::new(Gates(
                gates.iter().map(|g| Arc::clone(g)).collect(),
            )));
        }

        fn hit(&self, tid: ThreadId, hook: Hook) {
            for g in &self.0 {
                g.hit(tid, hook);
            }
        }
    }

    impl InterleaveStrategy for Gates {
        fn name(&self) -> &'static str {
            "gates"
        }

        fn before_load(&self, ctx: &AccessCtx<'_>) {
            self.hit(ctx.tid, Hook::Load);
        }

        fn before_op(&self, tid: ThreadId, _: &dyn Fn() -> bool) {
            self.hit(tid, Hook::Op);
        }

        fn on_spin(&self, tid: ThreadId) {
            self.hit(tid, Hook::Spin);
        }
    }

    #[test]
    fn one_thread_retaking_its_own_leaked_lock_latches() {
        let s = &session();
        let v = s.view(ThreadId(0));
        let tries = &AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let t = sc.spawn(move || {
                lock(&v, LOCK, tries).unwrap();
                lock(&v, LOCK, tries)
            });
            until(s, || t.is_finished());
            assert_eq!(t.join().unwrap(), Err(RtError::Timeout));
        });
        assert_eq!(s.hang_cause(), Some(HangCause::AllWaiting));
        // The first attempt of the second `lock` predates its wait entry;
        // the second is the first one that counts, and it latches.
        assert_eq!(tries.load(Ordering::Relaxed), 3);
        assert!(s.finish().hang);
    }

    #[test]
    fn a_lock_waiter_latches_once_its_holder_is_done() {
        let s = &session();
        let gate = Gate::new(ThreadId(1), Hook::Op, 1);
        Gates::install(s, &[&gate]);
        let waiter = s.view(ThreadId(0));
        let holder = s.view(ThreadId(1));
        lock(&holder, LOCK, &AtomicUsize::new(0)).unwrap();
        let tries = &AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let w = sc.spawn(move || lock(&waiter, LOCK, tries));
            // The holder runs (here: does nothing) outside any wait.
            fails_without_latching(s, tries, 20);
            // A strategy parks the holder outside any wait.
            let h = sc.spawn(move || {
                holder.begin_op();
                holder
            });
            until(s, || gate.parked());
            fails_without_latching(s, tries, 20);
            gate.open();
            let holder = h.join().unwrap();
            fails_without_latching(s, tries, 20);
            // The holder finishes without releasing its lock.
            s.thread_done(holder.tid());
            until(s, || w.is_finished());
            assert_eq!(w.join().unwrap(), Err(RtError::Timeout));
        });
        assert_eq!(s.hang_cause(), Some(HangCause::AllWaiting));
    }

    /// A strategy that sleeps `tid` for `nap` at each operation start.
    #[derive(Debug)]
    struct Nap {
        tid: ThreadId,
        nap: Duration,
    }

    impl InterleaveStrategy for Nap {
        fn name(&self) -> &'static str {
            "nap"
        }

        fn before_op(&self, tid: ThreadId, _: &dyn Fn() -> bool) {
            if tid == self.tid {
                std::thread::sleep(self.nap);
            }
        }
    }

    #[test]
    fn a_holder_a_strategy_parks_for_long_is_waited_for() {
        // The holder sleeps 20 ms in a strategy hook with the lock held and
        // no store anywhere, as a `DelayStrategy` delay on a loaded host
        // can: far longer than a spinner needs to start parking. Its waiter
        // waits it out, and nothing hangs.
        let s = &session();
        s.set_strategy(Arc::new(Nap {
            tid: ThreadId(1),
            nap: Duration::from_millis(20),
        }));
        let waiter = s.view(ThreadId(0));
        let holder = s.view(ThreadId(1));
        lock(&holder, LOCK, &AtomicUsize::new(0)).unwrap();
        let tries = &AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let w = sc.spawn(move || {
                lock(&waiter, LOCK, tries)?;
                s.thread_done(waiter.tid());
                Ok::<(), RtError>(())
            });
            until(s, || tries.load(Ordering::Relaxed) >= 2);
            let h = sc.spawn(move || {
                holder.begin_op();
                holder.store_u64(LOCK, 0u64, site!("wait.test.unlock"))?;
                s.thread_done(holder.tid());
                Ok::<(), RtError>(())
            });
            until(s, || w.is_finished() && h.is_finished());
            assert_eq!(h.join().unwrap(), Ok(()));
            assert_eq!(w.join().unwrap(), Ok(()));
        });
        assert_eq!(s.hang_cause(), None);
    }

    /// Leak the lock at `off`: held by a thread no view belongs to.
    fn leak(s: &Session, off: u64) {
        s.pool()
            .store_u64(off, 1, ThreadId(2), pmrace_pmem::SiteTag(0))
            .unwrap();
    }

    #[test]
    fn a_lock_waiter_latches_once_its_holder_waits_too() {
        let s = &session();
        let waiter = s.view(ThreadId(0));
        let holder = s.view(ThreadId(1));
        lock(&holder, LOCK, &AtomicUsize::new(0)).unwrap();
        leak(s, OTHER_LOCK);
        let tries = &AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let w = sc.spawn(move || lock(&waiter, LOCK, tries));
            fails_without_latching(s, tries, 20);
            let h = sc.spawn(move || lock(&holder, OTHER_LOCK, &AtomicUsize::new(0)));
            until(s, || w.is_finished() && h.is_finished());
            assert_eq!(w.join().unwrap(), Err(RtError::Timeout));
            assert_eq!(h.join().unwrap(), Err(RtError::Timeout));
        });
        assert_eq!(s.hang_cause(), Some(HangCause::AllWaiting));
    }

    #[test]
    fn a_waiter_parked_inside_an_attempt_blocks_the_rule() {
        // Both threads wait, but the holder's latest attempt is parked by a
        // strategy before it finished: it might still succeed, so its
        // earlier failure no longer counts.
        let s = &session();
        let waiter = s.view(ThreadId(0));
        let holder = s.view(ThreadId(1));
        // The waiter parks between its attempts after its second failure;
        // the holder parks in the load of its third attempt, after its
        // second attempt failed at the newest generation.
        let between = Gate::new(ThreadId(0), Hook::Spin, 2);
        let inside = Gate::new(ThreadId(1), Hook::Load, 3);
        Gates::install(s, &[&between, &inside]);
        lock(&holder, LOCK, &AtomicUsize::new(0)).unwrap();
        leak(s, OTHER_LOCK);
        let tries = &AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let w = sc.spawn(move || lock(&waiter, LOCK, tries));
            until(s, || between.parked());
            // The holder waits for the leaked lock to read free.
            let h = sc.spawn(move || {
                holder.spin_until(|| {
                    let word = holder.load_u64(OTHER_LOCK, site!("wait.test.peek"))?;
                    Ok((word == 0u64).then_some(()))
                })
            });
            until(s, || inside.parked());
            between.open();
            fails_without_latching(s, tries, 20);
            // The parked attempt fails too: now nobody can succeed.
            inside.open();
            until(s, || w.is_finished() && h.is_finished());
            assert_eq!(w.join().unwrap(), Err(RtError::Timeout));
            assert_eq!(h.join().unwrap(), Err(RtError::Timeout));
        });
        assert_eq!(s.hang_cause(), Some(HangCause::AllWaiting));
    }

    #[test]
    fn a_release_before_a_new_wait_makes_the_earlier_failure_stale() {
        // The waiter reads a volatile lock as held, then is parked inside
        // that attempt. Meanwhile the holder releases the lock and enters a
        // wait of its own (for the waiter to take the lock). The waiter's
        // attempt then fails, but it began before the release: it is
        // stale, the waiter's next attempt succeeds, and nothing hangs.
        let s = &session();
        let waiter = s.view(ThreadId(0));
        let holder = s.view(ThreadId(1));
        let gate = Gate::new(ThreadId(0), Hook::Load, 3);
        Gates::install(s, &[&gate]);
        let held = &AtomicBool::new(true);
        let taken = &AtomicBool::new(false);
        let holder_tries = &AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let w = sc.spawn(move || {
                waiter.spin_until(|| {
                    let free = !held.load(Ordering::Acquire);
                    // A PM load after the observation: the gate parks here.
                    waiter.load_u64(LOCK, site!("wait.test.after_peek"))?;
                    Ok(free.then_some(()))
                })?;
                taken.store(true, Ordering::Release);
                s.thread_done(waiter.tid());
                Ok::<(), RtError>(())
            });
            until(s, || gate.parked());
            let h = sc.spawn(move || {
                held.store(false, Ordering::Release);
                holder.spin_until(|| {
                    holder_tries.fetch_add(1, Ordering::Relaxed);
                    Ok(taken.load(Ordering::Acquire).then_some(()))
                })
            });
            fails_without_latching(s, holder_tries, 20);
            gate.open();
            until(s, || w.is_finished() && h.is_finished());
            assert_eq!(w.join().unwrap(), Ok(()));
            assert_eq!(h.join().unwrap(), Ok(()));
        });
        assert_eq!(s.hang_cause(), None);
    }

    #[test]
    fn a_driver_that_has_not_started_blocks_the_rule() {
        // Both drivers are enlisted (here by their views) before either
        // runs, as in a campaign; the second starts late and releases the
        // lock.
        let s = &session();
        let waiter = s.view(ThreadId(0));
        let late = s.view(ThreadId(1));
        leak(s, LOCK);
        let tries = &AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let w = sc.spawn(move || lock(&waiter, LOCK, tries));
            fails_without_latching(s, tries, 20);
            late.store_u64(LOCK, 0u64, site!("wait.test.release"))
                .unwrap();
            until(s, || w.is_finished());
            assert_eq!(w.join().unwrap(), Ok(()));
        });
        assert_eq!(s.hang_cause(), None);
    }

    #[test]
    fn bounded_spin_yield_retries_never_trigger_the_rule() {
        // One thread waits on a leaked lock; the other retries a leaked
        // lock of its own in bounded loops of plain `spin_yield`, which
        // give up by themselves: it is never inside a wait.
        let s = &session();
        let waiter = s.view(ThreadId(0));
        let retrier = s.view(ThreadId(1));
        leak(s, LOCK);
        let tries = &AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let w = sc.spawn(move || lock(&waiter, LOCK, tries));
            until(s, || tries.load(Ordering::Relaxed) >= 3);
            for _ in 0..20 {
                retrier.begin_op();
                for _ in 0..50 {
                    let (ok, _) = retrier
                        .cas_u64(LOCK, 0, 1, site!("wait.test.bounded"))
                        .unwrap();
                    assert!(!ok);
                    retrier.spin_yield().unwrap();
                }
            }
            assert_eq!(s.hang_cause(), None);
            s.thread_done(retrier.tid());
            until(s, || w.is_finished());
            assert_eq!(w.join().unwrap(), Err(RtError::Timeout));
        });
        assert_eq!(s.hang_cause(), Some(HangCause::AllWaiting));
    }
}
