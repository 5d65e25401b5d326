//! The interleaving-exploration extension point.
//!
//! The runtime calls the registered [`InterleaveStrategy`] around every PM
//! access; `pmrace-sched` provides the paper's conditional-wait scheduler
//! (Fig. 6) and the delay-injection baseline. The trait lives here so the
//! scheduler crate can depend on the runtime without a cycle.

use pmrace_pmem::ThreadId;

use crate::Site;

/// Everything a strategy may inspect about an imminent PM access.
pub struct AccessCtx<'a> {
    /// Pool offset of the access.
    pub off: u64,
    /// Access length in bytes.
    pub len: usize,
    /// Instruction site.
    pub site: Site,
    /// Executing thread.
    pub tid: ThreadId,
    /// Returns `true` when the campaign is cancelled (deadline/halt); any
    /// strategy wait loop must poll this and bail out promptly.
    pub cancelled: &'a dyn Fn() -> bool,
}

impl std::fmt::Debug for AccessCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessCtx")
            .field("off", &self.off)
            .field("len", &self.len)
            .field("site", &self.site)
            .field("tid", &self.tid)
            .finish_non_exhaustive()
    }
}

/// Hook points around instrumented PM accesses.
///
/// All methods default to no-ops so strategies implement only what they
/// need. Implementations must be fast and must never block without polling
/// `ctx.cancelled`.
pub trait InterleaveStrategy: Send + Sync {
    /// Human-readable name for logs and experiment tables.
    fn name(&self) -> &'static str;

    /// `true` when this strategy installs no hooks at all (the no-op
    /// default). Views skip hook dispatch — including the strategy
    /// `RwLock`/`Arc` round trip — entirely for passive strategies, which is
    /// the common case for plain coverage runs and benchmarks.
    fn is_passive(&self) -> bool {
        false
    }

    /// Called before a PM load (the paper injects `cond_wait` here).
    fn before_load(&self, ctx: &AccessCtx<'_>) {
        let _ = ctx;
    }

    /// Called after a PM load read its value, before the program acts on
    /// it: a scheduler that orders accesses knows the load is done.
    fn after_load(&self, ctx: &AccessCtx<'_>) {
        let _ = ctx;
    }

    /// Called before a PM store.
    fn before_store(&self, ctx: &AccessCtx<'_>) {
        let _ = ctx;
    }

    /// Called after a PM store completes but **before** the program reaches
    /// its flush — the paper fires `cond_signal` and stalls the writer here
    /// so readers can observe the not-yet-persisted value.
    fn after_store(&self, ctx: &AccessCtx<'_>) {
        let _ = ctx;
    }

    /// Called after a `cas_u64` that did **not** swap, with the number of
    /// consecutive failures this thread has accumulated at this site
    /// (`attempt` starts at 1 and resets on success or site change). A
    /// failed CAS is the natural yield point of a lock-free retry loop: the
    /// thread has just observed the word and is about to re-read it, so a
    /// scheduler can interpose another thread's store *between* the CAS read
    /// and the retry — the interleaving family lock-based targets never
    /// exhibit. Implementations must bound how long they stall here
    /// (`attempt` grows without limit during a retry storm) and must poll
    /// `ctx.cancelled` in any wait loop.
    fn on_cas_fail(&self, ctx: &AccessCtx<'_>, attempt: u32) {
        let _ = (ctx, attempt);
    }

    /// Called from [`PmView::spin_yield`](crate::PmView::spin_yield): the
    /// thread is in a spin-wait loop (typically on a lock) and cannot make
    /// progress until another thread stores. A scheduler may treat it as
    /// blocked until the thread's next completed store (`after_store`) or
    /// its `thread_done`. Called on every spin iteration, so it must be
    /// cheap when nothing changes.
    fn on_spin(&self, tid: ThreadId) {
        let _ = tid;
    }

    /// Called by a driver thread before each target operation, before the
    /// operation takes any lock or touches PM. A strategy may hold the
    /// thread here to order operation starts; volatile locks taken inside
    /// an operation are invisible to every other hook. Any wait must poll
    /// `cancelled`.
    fn before_op(&self, tid: ThreadId, cancelled: &dyn Fn() -> bool) {
        let _ = (tid, cancelled);
    }

    /// Called when a driver thread finished its operation sequence.
    /// Schedulers use this to track how many threads are still live (the
    /// "all threads block" detection of Fig. 6 is over live threads).
    fn thread_done(&self, tid: ThreadId) {
        let _ = tid;
    }

    /// Called once when a campaign ends (threads joined); strategies persist
    /// cross-campaign state (e.g. sync-point skip counts) here.
    fn campaign_end(&self) {}
}

/// Strategy that schedules nothing: plain multi-run fuzzing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopStrategy;

impl InterleaveStrategy for NoopStrategy {
    fn name(&self) -> &'static str {
        "none"
    }

    fn is_passive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_strategy_is_inert() {
        let s = NoopStrategy;
        assert_eq!(s.name(), "none");
        let cancelled = || false;
        let ctx = AccessCtx {
            off: 0,
            len: 8,
            site: crate::site!("x"),
            tid: ThreadId(0),
            cancelled: &cancelled,
        };
        s.before_load(&ctx);
        s.after_load(&ctx);
        s.before_store(&ctx);
        s.after_store(&ctx);
        s.on_cas_fail(&ctx, 1);
        s.on_spin(ThreadId(0));
        s.campaign_end();
        assert!(format!("{ctx:?}").contains("off"));
    }
}
