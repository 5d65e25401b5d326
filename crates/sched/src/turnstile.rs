//! The turnstile the serializing schedulers park driver threads on.
//!
//! [`SystematicStrategy`](crate::SystematicStrategy) hands a token round
//! the driver threads; strict replay ([`ReplayStrategy`](crate::ReplayStrategy))
//! gates accesses on a cursor over the recorded order. A thread that may
//! not run yet parks here; whoever makes it runnable unparks it. No timer
//! is involved except [`CANCEL_POLL`], after which a parked thread
//! re-checks campaign cancellation.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::thread::{self, Thread};

use parking_lot::Mutex;

use crate::CANCEL_POLL;

#[derive(Debug)]
enum State {
    Running,
    /// Waiting for a cursor to reach `needs` (0 for a token); `thread`
    /// unparks it.
    Parked {
        needs: usize,
        thread: Thread,
    },
    Done,
}

/// Each driver thread's state, indexed by thread id.
#[derive(Debug)]
pub(crate) struct Turnstile(Mutex<Vec<State>>);

impl Turnstile {
    pub(crate) fn new(threads: usize) -> Self {
        Turnstile(Mutex::new((0..threads).map(|_| State::Running).collect()))
    }

    /// Park driver thread `tid` until `until()` yields a value and return
    /// it, or `None` once the campaign is cancelled. `until` runs before
    /// the thread counts as parked and after every wake-up; a waker changes
    /// what it reads before unparking, so no wake-up is lost.
    pub(crate) fn park<T>(
        &self,
        tid: u32,
        needs: usize,
        cancelled: &dyn Fn() -> bool,
        mut until: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        if let Some(v) = until() {
            return Some(v);
        }
        let thread = thread::current();
        self.set(tid, State::Parked { needs, thread });
        let out = loop {
            if let Some(v) = until() {
                break Some(v);
            }
            if cancelled() {
                break None;
            }
            thread::park_timeout(CANCEL_POLL);
        };
        self.set(tid, State::Running);
        out
    }

    /// `tid` finished: rotations skip it, the all-parked test ignores it.
    pub(crate) fn done(&self, tid: u32) {
        self.set(tid, State::Done);
    }

    fn set(&self, tid: u32, state: State) {
        if let Some(slot) = self.0.lock().get_mut(tid as usize) {
            *slot = state;
        }
    }

    /// Unpark every parked thread whose `needs` is at most `reached`.
    pub(crate) fn unpark(&self, reached: usize) {
        for state in self.0.lock().iter() {
            match state {
                State::Parked { needs, thread } if *needs <= reached => thread.unpark(),
                _ => {}
            }
        }
    }

    /// Hand a token on from `tid` to the next thread in rotation order that
    /// is not done (`tid` if all others are): `hand(next)` runs under the
    /// state lock, so no `done` slips in between, then `next` is unparked.
    pub(crate) fn pass(&self, tid: u32, hand: impl FnOnce(u32)) {
        let threads = self.0.lock();
        let n = threads.len() as u32;
        let next = (1..=n)
            .map(|i| (tid + i) % n)
            .find(|&t| !matches!(threads[t as usize], State::Done))
            .unwrap_or(tid);
        hand(next);
        if let Some(State::Parked { thread, .. }) = threads.get(next as usize) {
            thread.unpark();
        }
    }

    /// When every live driver thread is parked on a `needs` past `cursor`,
    /// nothing can move the cursor again: store the parked thread with the
    /// lowest `needs`, then the lowest id, in `declarer` and unpark it. The
    /// cursor is read under the state lock, and a granted thread leaves the
    /// parked set before its access advances it, so it shows as running.
    pub(crate) fn stalled(&self, cursor: &AtomicUsize, declarer: &AtomicU32) {
        let threads = self.0.lock();
        let reached = cursor.load(Ordering::Acquire);
        let mut lowest: Option<(usize, u32, &Thread)> = None;
        for (t, state) in (0..).zip(threads.iter()) {
            match state {
                State::Parked { needs, thread } if *needs > reached => {
                    if lowest.is_none_or(|(n, ..)| *needs < n) {
                        lowest = Some((*needs, t, thread));
                    }
                }
                State::Done => {}
                _ => return, // running, or about to leave its wait
            }
        }
        if let Some((_, t, thread)) = lowest {
            declarer.store(t, Ordering::Release);
            thread.unpark();
        }
    }
}

#[cfg(test)]
impl Turnstile {
    pub(crate) fn is_parked(&self, tid: u32) -> bool {
        matches!(self.0.lock()[tid as usize], State::Parked { .. })
    }

    /// Yield until driver thread `tid`, running on `thread`, is parked;
    /// fail if the thread ended instead.
    pub(crate) fn until_parked<T>(&self, tid: u32, thread: &thread::JoinHandle<T>) {
        while !self.is_parked(tid) {
            assert!(!thread.is_finished(), "t{tid} never parked");
            thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const NEVER: &dyn Fn() -> bool = &|| false;

    /// Park `tid` on `t` until `go` reads `true`, on a new thread.
    fn parked_on(
        t: &Arc<Turnstile>,
        tid: u32,
        needs: usize,
        go: &Arc<AtomicBool>,
    ) -> thread::JoinHandle<()> {
        let (t, go) = (Arc::clone(t), Arc::clone(go));
        thread::spawn(move || {
            t.park(tid, needs, NEVER, || {
                go.load(Ordering::Acquire).then_some(())
            })
            .unwrap();
        })
    }

    #[test]
    fn stalled_names_the_lowest_needs_then_the_lowest_tid() {
        let t = Arc::new(Turnstile::new(4));
        let go = Arc::new(AtomicBool::new(false));
        let cursor = AtomicUsize::new(3);
        let named = AtomicU32::new(u32::MAX);
        let waiters: Vec<_> = [(0, 9), (1, 5), (2, 5)]
            .into_iter()
            .map(|(tid, needs)| {
                let h = parked_on(&t, tid, needs, &go);
                t.until_parked(tid, &h);
                h
            })
            .collect();
        t.stalled(&cursor, &named);
        assert_eq!(named.load(Ordering::Acquire), u32::MAX, "t3 is running");
        t.done(3);
        t.stalled(&cursor, &named);
        assert_eq!(named.load(Ordering::Acquire), 1, "needs 5 beats 9, t1 t2");
        // A waiter the cursor already satisfies is about to leave.
        cursor.store(5, Ordering::Release);
        named.store(u32::MAX, Ordering::Release);
        t.stalled(&cursor, &named);
        assert_eq!(named.load(Ordering::Acquire), u32::MAX);
        go.store(true, Ordering::Release);
        t.unpark(usize::MAX);
        for h in waiters {
            h.join().unwrap();
        }
    }

    #[test]
    fn pass_skips_finished_threads_and_unparks_the_next_holder() {
        let t = Arc::new(Turnstile::new(3));
        let go = Arc::new(AtomicBool::new(false));
        let h = parked_on(&t, 0, 0, &go);
        t.until_parked(0, &h);
        t.done(2);
        let mut next = None;
        t.pass(1, |n| {
            next = Some(n);
            go.store(true, Ordering::Release);
        });
        assert_eq!(next, Some(0), "t2 is done: the token wraps to t0");
        h.join().unwrap();
        assert!(!t.is_parked(0));
        t.done(0);
        t.pass(1, |n| next = Some(n));
        assert_eq!(next, Some(1), "every other thread is done");
    }
}
