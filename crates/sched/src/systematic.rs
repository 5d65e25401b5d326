//! Systematic serialization baseline.
//!
//! The paper's related work (§7) cites interleaving *enumeration* (SKI,
//! Razzer) as the third exploration family, noting it is cost-inefficient
//! for PM programs (Yat's exhaustive enumeration would take years). This
//! strategy models that family's per-access serialization cost: every PM
//! access waits for its thread's turn in a round-robin token rotation, so
//! one run explores exactly one deterministic-ish schedule — at the price
//! of serializing all PM parallelism.

use std::sync::atomic::{AtomicU32, Ordering};

use pmrace_pmem::ThreadId;
use pmrace_runtime::strategy::{AccessCtx, InterleaveStrategy};

use crate::turnstile::Turnstile;

/// Round-robin serialization of PM accesses across driver threads.
#[derive(Debug)]
pub struct SystematicStrategy {
    num_threads: u32,
    /// Thread currently holding the token.
    token: AtomicU32,
    /// Accesses the holder may perform before the token rotates.
    quantum: u32,
    used: AtomicU32,
    /// Threads without the token park here.
    turnstile: Turnstile,
    /// Driver thread of every granted access, in grant order.
    #[cfg(test)]
    granted: parking_lot::Mutex<Vec<u32>>,
}

impl SystematicStrategy {
    /// Serialize across `num_threads` threads, rotating the token every
    /// `quantum` PM accesses. `start` picks the schedule (which thread
    /// leads), giving one distinct schedule per campaign.
    #[must_use]
    pub fn new(num_threads: usize, quantum: u32, start: u32) -> Self {
        let n = num_threads.max(1) as u32;
        SystematicStrategy {
            num_threads: n,
            token: AtomicU32::new(start % n),
            quantum: quantum.max(1),
            used: AtomicU32::new(0),
            turnstile: Turnstile::new(n as usize),
            #[cfg(test)]
            granted: parking_lot::Mutex::new(Vec::new()),
        }
    }

    fn rotate_from(&self, cur: u32) {
        self.turnstile.pass(cur, |next| {
            self.used.store(0, Ordering::Relaxed);
            self.token.store(next, Ordering::Release);
        });
    }

    fn wait_turn(&self, ctx: &AccessCtx<'_>) {
        let me = ctx.tid.0;
        if me >= self.num_threads {
            return; // non-driver thread (e.g. recovery): unscheduled
        }
        let holds = || (self.token.load(Ordering::Acquire) == me).then_some(());
        if self.turnstile.park(me, 0, ctx.cancelled, holds).is_none() {
            return; // cancelled
        }
        #[cfg(test)]
        self.granted.lock().push(me);
        if self.used.fetch_add(1, Ordering::AcqRel) + 1 >= self.quantum {
            self.rotate_from(me);
        }
    }
}

impl InterleaveStrategy for SystematicStrategy {
    fn name(&self) -> &'static str {
        "systematic"
    }

    fn before_load(&self, ctx: &AccessCtx<'_>) {
        self.wait_turn(ctx);
    }

    fn before_store(&self, ctx: &AccessCtx<'_>) {
        self.wait_turn(ctx);
    }

    /// A token holder spinning on a volatile lock makes no PM progress,
    /// and the lock's holder may be waiting for the token: neither would
    /// move. Pass the token on, as a finished thread does.
    fn on_spin(&self, tid: ThreadId) {
        if tid.0 < self.num_threads && self.token.load(Ordering::Acquire) == tid.0 {
            self.rotate_from(tid.0);
        }
    }

    fn thread_done(&self, tid: ThreadId) {
        self.turnstile.done(tid.0);
        // Free the token if the finishing thread held it.
        if self.token.load(Ordering::Acquire) == tid.0 {
            self.rotate_from(tid.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_runtime::site;
    use std::sync::Arc;

    fn ctx<'a>(tid: u32, cancelled: &'a dyn Fn() -> bool) -> AccessCtx<'a> {
        AccessCtx {
            off: 64,
            len: 8,
            site: site!("sys.test"),
            tid: ThreadId(tid),
            cancelled,
        }
    }

    const NEVER: &dyn Fn() -> bool = &|| false;

    fn holder(s: &SystematicStrategy) -> u32 {
        s.token.load(Ordering::Acquire)
    }

    #[test]
    fn token_holder_passes_after_quantum() {
        let s = SystematicStrategy::new(2, 2, 0);
        // Thread 0 holds the token for 2 accesses, then thread 1 runs.
        s.before_load(&ctx(0, NEVER));
        assert_eq!(holder(&s), 0, "one access left in t0's quantum");
        s.before_store(&ctx(0, NEVER));
        assert_eq!(holder(&s), 1, "the quantum is used up");
        s.before_load(&ctx(1, NEVER)); // t1 holds the token: no park
        assert!(!s.turnstile.is_parked(1));
        assert_eq!(*s.granted.lock(), [0, 0, 1]);
    }

    #[test]
    fn waiting_thread_proceeds_once_holder_finishes() {
        let s = Arc::new(SystematicStrategy::new(2, 8, 0));
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.before_load(&ctx(1, NEVER)));
        s.turnstile.until_parked(1, &waiter); // thread 0 holds the token
        assert!(s.granted.lock().is_empty());
        s.thread_done(ThreadId(0));
        waiter.join().unwrap();
        assert_eq!(holder(&s), 1, "the finished holder freed the token");
        assert_eq!(*s.granted.lock(), [1]);
    }

    #[test]
    fn a_spinning_holder_passes_the_token() {
        // Thread 0 holds the token and spins (as `PmView::spin_yield`
        // reports) on a flag that thread 1 sets only after its next PM
        // access, which needs the token: without the hand-off on spin
        // neither ever moves.
        let s = Arc::new(SystematicStrategy::new(2, 1000, 0));
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        s.before_load(&ctx(0, NEVER));
        let setter = {
            let (s, flag) = (Arc::clone(&s), Arc::clone(&flag));
            std::thread::spawn(move || {
                s.before_store(&ctx(1, NEVER));
                flag.store(true, Ordering::Release);
            })
        };
        while !flag.load(Ordering::Acquire) {
            s.on_spin(ThreadId(0));
            std::thread::yield_now();
        }
        setter.join().unwrap();
        assert_eq!(holder(&s), 1, "the token moved to t1");
    }

    #[test]
    fn cancellation_breaks_the_wait() {
        let s = SystematicStrategy::new(4, 1, 0);
        let cancelled = || true;
        s.before_load(&ctx(3, &cancelled)); // not the holder, but cancelled
        assert!(!s.turnstile.is_parked(3), "t3 left the turnstile");
        assert!(s.granted.lock().is_empty(), "a cancelled wait is no grant");
        assert_eq!(holder(&s), 0);
    }

    #[test]
    fn non_driver_threads_are_not_scheduled() {
        let s = SystematicStrategy::new(2, 1, 0);
        s.before_load(&ctx(7, NEVER)); // tid beyond num_threads
        assert!(s.granted.lock().is_empty());
        assert_eq!(holder(&s), 0);
    }

    /// Three driver threads, quantum 2, `start` 1, t0 finishing after 3
    /// accesses: the grant order is the round-robin rotation, skipping a
    /// finished thread and handing its token on when it finishes.
    #[test]
    fn grants_follow_the_reference_rotation() {
        fn reference(quantum: usize, start: usize, mut left: Vec<usize>) -> Vec<u32> {
            let (n, mut t, mut used, mut order) = (left.len(), start, 0, Vec::new());
            while left.iter().any(|&l| l > 0) {
                if left[t] > 0 {
                    order.push(t as u32);
                    left[t] -= 1;
                    used += 1;
                }
                if used == quantum || left[t] == 0 {
                    (t, used) = ((t + 1) % n, 0);
                }
            }
            order
        }
        let ops = [3, 6, 5];
        let s = Arc::new(SystematicStrategy::new(3, 2, 1));
        let threads: Vec<_> = (0..3u32)
            .map(|tid| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..ops[tid as usize] {
                        s.before_load(&ctx(tid, NEVER));
                    }
                    s.thread_done(ThreadId(tid));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let want = reference(2, 1, ops.to_vec());
        assert_eq!(*s.granted.lock(), want);
    }
}
