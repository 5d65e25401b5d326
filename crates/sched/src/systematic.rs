//! Systematic serialization baseline.
//!
//! The paper's related work (§7) cites interleaving *enumeration* (SKI,
//! Razzer) as the third exploration family, noting it is cost-inefficient
//! for PM programs (Yat's exhaustive enumeration would take years). This
//! strategy models that family's per-access serialization cost: every PM
//! access waits for its thread's turn in a round-robin token rotation, so
//! one run explores exactly one deterministic-ish schedule — at the price
//! of serializing all PM parallelism.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use parking_lot::Mutex;
use pmrace_pmem::ThreadId;
use pmrace_runtime::strategy::{AccessCtx, InterleaveStrategy};

/// Round-robin serialization of PM accesses across driver threads.
#[derive(Debug)]
pub struct SystematicStrategy {
    num_threads: u32,
    /// Thread currently holding the token.
    token: AtomicU32,
    /// Accesses the holder may perform before the token rotates.
    quantum: u32,
    used: AtomicU32,
    /// Threads that already finished (their turns are skipped).
    done: Mutex<Vec<bool>>,
    accesses: AtomicUsize,
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
            done: Mutex::new(vec![false; n as usize]),
            accesses: AtomicUsize::new(0),
        }
    }

    /// Total PM accesses serialized (telemetry).
    #[must_use]
    pub fn accesses(&self) -> usize {
        self.accesses.load(Ordering::Relaxed)
    }

    fn rotate_from(&self, cur: u32) {
        let done = self.done.lock();
        let mut next = (cur + 1) % self.num_threads;
        for _ in 0..self.num_threads {
            if !done[next as usize] {
                break;
            }
            next = (next + 1) % self.num_threads;
        }
        self.used.store(0, Ordering::Relaxed);
        self.token.store(next, Ordering::Release);
    }

    fn wait_turn(&self, ctx: &AccessCtx<'_>) {
        if ctx.tid.0 >= self.num_threads {
            return; // non-driver thread (e.g. recovery): unscheduled
        }
        self.accesses.fetch_add(1, Ordering::Relaxed);
        loop {
            let holder = self.token.load(Ordering::Acquire);
            if holder == ctx.tid.0 {
                if self.used.fetch_add(1, Ordering::AcqRel) + 1 >= self.quantum {
                    self.rotate_from(holder);
                }
                return;
            }
            if (ctx.cancelled)() {
                return;
            }
            // Holder may be blocked outside PM accesses (e.g. on a mutex
            // held by us): bounded spin keeps the serialization best-effort
            // rather than deadlock-prone.
            if self.done.lock()[holder as usize] {
                self.rotate_from(holder);
                continue;
            }
            std::thread::yield_now();
            std::thread::sleep(std::time::Duration::from_micros(20));
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
        if (tid.0 as usize) < self.num_threads as usize {
            self.done.lock()[tid.0 as usize] = true;
            // Free the token if the finishing thread held it.
            if self.token.load(Ordering::Acquire) == tid.0 {
                self.rotate_from(tid.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_runtime::site;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn ctx<'a>(tid: u32, cancelled: &'a dyn Fn() -> bool) -> AccessCtx<'a> {
        AccessCtx {
            off: 64,
            len: 8,
            site: site!("sys.test"),
            tid: ThreadId(tid),
            cancelled,
        }
    }

    #[test]
    fn token_holder_passes_after_quantum() {
        let s = SystematicStrategy::new(2, 2, 0);
        let cancelled = || false;
        // Thread 0 holds the token for 2 accesses, then thread 1 runs.
        s.before_load(&ctx(0, &cancelled));
        s.before_store(&ctx(0, &cancelled));
        let start = Instant::now();
        s.before_load(&ctx(1, &cancelled)); // token rotated to 1: immediate
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(s.accesses(), 3);
    }

    #[test]
    fn waiting_thread_proceeds_once_holder_finishes() {
        let s = Arc::new(SystematicStrategy::new(2, 8, 0));
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || {
            let cancelled = || false;
            let start = Instant::now();
            s2.before_load(&ctx(1, &cancelled)); // thread 0 holds the token
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        s.thread_done(ThreadId(0));
        let waited = waiter.join().unwrap();
        assert!(waited >= Duration::from_millis(10), "waited {waited:?}");
        assert!(waited < Duration::from_secs(2));
    }

    #[test]
    fn a_spinning_holder_passes_the_token() {
        // Thread 0 holds the token and spins (as `PmView::spin_yield`
        // reports) on a flag that thread 1 sets only after its next PM
        // access, which needs the token: without the hand-off on spin
        // neither ever moves.
        let s = Arc::new(SystematicStrategy::new(2, 1000, 0));
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cancelled = || false;
        s.before_load(&ctx(0, &cancelled));
        let setter = {
            let (s, flag) = (Arc::clone(&s), Arc::clone(&flag));
            std::thread::spawn(move || {
                let cancelled = || false;
                s.before_store(&ctx(1, &cancelled));
                flag.store(true, Ordering::Release);
            })
        };
        while !flag.load(Ordering::Acquire) {
            s.on_spin(ThreadId(0));
            std::thread::yield_now();
        }
        setter.join().unwrap();
        assert_eq!(s.token.load(Ordering::Acquire), 1, "the token moved to t1");
    }

    #[test]
    fn cancellation_breaks_the_wait() {
        let s = SystematicStrategy::new(4, 1, 0);
        let cancelled = || true;
        let start = Instant::now();
        s.before_load(&ctx(3, &cancelled)); // not the holder, but cancelled
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn non_driver_threads_are_not_scheduled() {
        let s = SystematicStrategy::new(2, 1, 0);
        let cancelled = || false;
        let start = Instant::now();
        s.before_load(&ctx(7, &cancelled)); // tid beyond num_threads
        assert!(start.elapsed() < Duration::from_millis(10));
        assert_eq!(s.accesses(), 0);
    }
}
