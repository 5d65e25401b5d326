//! Start-order control for free-schedule replay.
//!
//! A free artifact recorded a race the OS scheduler happened to produce.
//! When the race depends on which thread takes a *volatile* lock first
//! (memcached-pmem's `cache_lock` is taken before any PM access), no PM
//! access hook can reorder it, and which thread wins is decided by OS
//! thread placement, which can stay the same for a whole process.
//! [`LeadFirst`] makes that order explicit: one *lead* thread starts its
//! first operation alone, and every other driver thread waits at its first
//! operation until the lead reaches its first strategy callback (a PM
//! access, a spin-wait step, its next operation or its end). By then the
//! lead holds whatever volatile lock its operation takes first. All other
//! hooks are forwarded to an optional inner strategy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pmrace_pmem::ThreadId;
use pmrace_runtime::strategy::{AccessCtx, InterleaveStrategy};

/// Lets the lead thread start first, then forwards to `inner`.
pub struct LeadFirst {
    lead: ThreadId,
    inner: Option<Arc<dyn InterleaveStrategy>>,
    /// The lead has begun its first operation.
    lead_started: AtomicBool,
    /// The lead has reached a strategy callback past its first operation's
    /// start: other threads may start.
    open: AtomicBool,
}

impl std::fmt::Debug for LeadFirst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeadFirst")
            .field("lead", &self.lead)
            .field("inner", &self.inner.as_ref().map(|s| s.name()))
            .field("open", &self.open.load(Ordering::Relaxed))
            .finish()
    }
}

impl LeadFirst {
    /// Let `lead` start first, then schedule with `inner` (none: no further
    /// scheduling). `lead` must be a driver thread of the campaign, or the
    /// other threads wait until the campaign is cancelled.
    #[must_use]
    pub fn new(lead: ThreadId, inner: Option<Arc<dyn InterleaveStrategy>>) -> Self {
        LeadFirst {
            lead,
            inner,
            lead_started: AtomicBool::new(false),
            open: AtomicBool::new(false),
        }
    }

    /// `true` once threads other than the lead may start.
    fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }

    fn lead_progressed(&self, tid: ThreadId) {
        if tid == self.lead && !self.open.load(Ordering::Relaxed) {
            self.open.store(true, Ordering::Release);
        }
    }
}

impl InterleaveStrategy for LeadFirst {
    fn name(&self) -> &'static str {
        self.inner.as_ref().map_or("lead-first", |s| s.name())
    }

    fn before_op(&self, tid: ThreadId, cancelled: &dyn Fn() -> bool) {
        if tid == self.lead {
            // A second operation means the first one finished.
            if self.lead_started.swap(true, Ordering::AcqRel) {
                self.lead_progressed(tid);
            }
        } else {
            while !self.is_open() && !cancelled() {
                std::thread::yield_now();
            }
        }
        if let Some(inner) = &self.inner {
            inner.before_op(tid, cancelled);
        }
    }

    fn before_load(&self, ctx: &AccessCtx<'_>) {
        self.lead_progressed(ctx.tid);
        if let Some(inner) = &self.inner {
            inner.before_load(ctx);
        }
    }

    fn before_store(&self, ctx: &AccessCtx<'_>) {
        self.lead_progressed(ctx.tid);
        if let Some(inner) = &self.inner {
            inner.before_store(ctx);
        }
    }

    fn after_store(&self, ctx: &AccessCtx<'_>) {
        if let Some(inner) = &self.inner {
            inner.after_store(ctx);
        }
    }

    fn on_cas_fail(&self, ctx: &AccessCtx<'_>, attempt: u32) {
        if let Some(inner) = &self.inner {
            inner.on_cas_fail(ctx, attempt);
        }
    }

    fn on_spin(&self, tid: ThreadId) {
        self.lead_progressed(tid);
        if let Some(inner) = &self.inner {
            inner.on_spin(tid);
        }
    }

    fn thread_done(&self, tid: ThreadId) {
        self.lead_progressed(tid);
        if let Some(inner) = &self.inner {
            inner.thread_done(tid);
        }
    }

    fn campaign_end(&self) {
        if let Some(inner) = &self.inner {
            inner.campaign_end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    use pmrace_runtime::site;

    fn ctx<'a>(tid: u32, cancelled: &'a dyn Fn() -> bool) -> AccessCtx<'a> {
        AccessCtx {
            off: 0,
            len: 8,
            site: site!("lead.test.access"),
            tid: ThreadId(tid),
            cancelled,
        }
    }

    /// Simulated operation: take the "volatile lock" (a sequence ticket)
    /// right after the op boundary, before any PM access.
    fn op(s: &LeadFirst, tid: u32, ticket: &AtomicU32) -> u32 {
        let never = || false;
        s.before_op(ThreadId(tid), &never);
        let mine = ticket.fetch_add(1, Ordering::SeqCst);
        s.before_load(&ctx(tid, &never));
        mine
    }

    #[test]
    fn the_lead_takes_the_first_volatile_lock_whoever_starts_first() {
        for lead in [1u32, 3] {
            let s = LeadFirst::new(ThreadId(lead), None);
            let ticket = AtomicU32::new(0);
            let other = if lead == 1 { 3 } else { 1 };
            let arrived = AtomicBool::new(false);
            std::thread::scope(|scope| {
                // The other thread reaches its op boundary first...
                let h = scope.spawn(|| {
                    arrived.store(true, Ordering::SeqCst);
                    op(&s, other, &ticket)
                });
                while !arrived.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                assert!(!h.is_finished() && !s.is_open());
                // ...but the lead's ticket comes first.
                assert_eq!(op(&s, lead, &ticket), 0);
                assert_eq!(h.join().unwrap(), 1);
            });
        }
    }

    #[test]
    fn the_gate_opens_on_every_kind_of_lead_progress() {
        let never = || false;
        let events: [&dyn Fn(&LeadFirst); 4] = [
            &|s| s.before_store(&ctx(0, &never)),
            &|s| s.on_spin(ThreadId(0)),
            &|s| s.thread_done(ThreadId(0)),
            &|s| s.before_op(ThreadId(0), &never),
        ];
        for event in events {
            let s = LeadFirst::new(ThreadId(0), None);
            s.before_op(ThreadId(0), &never);
            // Other threads' callbacks never open it.
            s.on_spin(ThreadId(1));
            s.thread_done(ThreadId(2));
            assert!(!s.is_open());
            event(&s);
            assert!(s.is_open());
            // Non-lead threads now pass without waiting.
            s.before_op(ThreadId(1), &never);
        }
    }

    #[test]
    fn a_waiting_thread_leaves_when_the_campaign_is_cancelled() {
        let s = LeadFirst::new(ThreadId(0), None);
        let cancelled = || true;
        s.before_op(ThreadId(1), &cancelled);
        assert!(!s.is_open());
    }

    #[test]
    fn hooks_reach_the_inner_strategy() {
        #[derive(Default)]
        struct Count(AtomicU32);
        impl InterleaveStrategy for Count {
            fn name(&self) -> &'static str {
                "count"
            }
            fn before_op(&self, _: ThreadId, _: &dyn Fn() -> bool) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn before_load(&self, _: &AccessCtx<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn before_store(&self, _: &AccessCtx<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn after_store(&self, _: &AccessCtx<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn on_cas_fail(&self, _: &AccessCtx<'_>, _: u32) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn on_spin(&self, _: ThreadId) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn thread_done(&self, _: ThreadId) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn campaign_end(&self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let inner = Arc::new(Count::default());
        let s = LeadFirst::new(ThreadId(0), Some(inner.clone()));
        assert_eq!(s.name(), "count");
        let never = || false;
        s.before_op(ThreadId(0), &never);
        s.before_load(&ctx(0, &never));
        s.before_store(&ctx(0, &never));
        s.after_store(&ctx(0, &never));
        s.on_cas_fail(&ctx(0, &never), 1);
        s.on_spin(ThreadId(0));
        s.thread_done(ThreadId(0));
        s.campaign_end();
        assert_eq!(inner.0.load(Ordering::Relaxed), 8);
    }
}
