//! Schedule capture: record the access order a campaign actually executed.
//!
//! [`RecordingStrategy`] wraps any [`InterleaveStrategy`] and logs, for one
//! watched granule (the sync address of the active
//! [`SyncPlan`](crate::SyncPlan)), the order in which gated loads and
//! stores were released. The log is the *schedule constraint set* a
//! [`ReplayStrategy`](crate::ReplayStrategy) later re-enforces: replaying
//! the recorded order on the racy address reproduces the same
//! read-of-non-persisted-data window without any timing dependence.

use std::sync::Arc;

use parking_lot::Mutex;

use pmrace_pmem::ThreadId;
use pmrace_runtime::strategy::{AccessCtx, InterleaveStrategy};

/// Upper bound on recorded events per campaign. Campaigns on hot shared
/// addresses can touch the watched granule tens of thousands of times; the
/// racy window is always within the first accesses after the plan engages,
/// so a bounded log loses nothing that matters and keeps artifacts small.
pub const MAX_RECORDED_EVENTS: usize = 4096;

/// One recorded access to the watched granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// `true` for a load, `false` for a store.
    pub is_load: bool,
    /// Instruction site of the access.
    pub site: pmrace_runtime::Site,
    /// Executing driver thread.
    pub tid: u32,
}

#[derive(Debug, Default)]
struct LogInner {
    events: Vec<AccessEvent>,
    truncated: bool,
}

/// Shared, bounded log of accesses to one granule.
#[derive(Debug)]
pub struct ScheduleLog {
    /// Watched granule (byte offset / 8).
    granule: u64,
    inner: Mutex<LogInner>,
}

impl ScheduleLog {
    /// Log for the granule containing byte offset `off`.
    #[must_use]
    pub fn new(off: u64) -> Self {
        ScheduleLog {
            granule: off / 8,
            inner: Mutex::new(LogInner::default()),
        }
    }

    /// Byte offset of the watched granule.
    #[must_use]
    pub fn off(&self) -> u64 {
        self.granule * 8
    }

    fn push(&self, ev: AccessEvent) {
        let mut inner = self.inner.lock();
        if inner.events.len() >= MAX_RECORDED_EVENTS {
            inner.truncated = true;
            return;
        }
        inner.events.push(ev);
    }

    /// Snapshot of the recorded events, in execution order, plus whether
    /// the log overflowed [`MAX_RECORDED_EVENTS`].
    #[must_use]
    pub fn snapshot(&self) -> (Vec<AccessEvent>, bool) {
        let inner = self.inner.lock();
        (inner.events.clone(), inner.truncated)
    }
}

/// Wraps an inner strategy and records released accesses to one granule.
///
/// Events are logged *after* the inner strategy's gate returns — i.e. in
/// the order the accesses were actually allowed to execute, which is the
/// order a replay must re-enforce.
pub struct RecordingStrategy {
    inner: Arc<dyn InterleaveStrategy>,
    log: Arc<ScheduleLog>,
}

impl std::fmt::Debug for RecordingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingStrategy")
            .field("inner", &self.inner.name())
            .field("off", &self.log.off())
            .finish()
    }
}

impl RecordingStrategy {
    /// Record accesses to `log`'s granule around `inner`'s gating.
    #[must_use]
    pub fn new(inner: Arc<dyn InterleaveStrategy>, log: Arc<ScheduleLog>) -> Self {
        RecordingStrategy { inner, log }
    }

    fn record(&self, is_load: bool, ctx: &AccessCtx<'_>) {
        if ctx.off / 8 == self.log.granule {
            self.log.push(AccessEvent {
                is_load,
                site: ctx.site,
                tid: ctx.tid.0,
            });
        }
    }
}

impl InterleaveStrategy for RecordingStrategy {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn before_load(&self, ctx: &AccessCtx<'_>) {
        self.inner.before_load(ctx);
        self.record(true, ctx);
    }

    fn before_store(&self, ctx: &AccessCtx<'_>) {
        self.inner.before_store(ctx);
        self.record(false, ctx);
    }

    fn after_store(&self, ctx: &AccessCtx<'_>) {
        self.inner.after_store(ctx);
    }

    fn on_cas_fail(&self, ctx: &AccessCtx<'_>, attempt: u32) {
        // Forward only: the failed attempt was already logged as a store
        // event by `before_store`, and replay re-enforces that release
        // order. Recording a second event here would desynchronize the
        // replay turnstile.
        self.inner.on_cas_fail(ctx, attempt);
    }

    fn on_spin(&self, tid: ThreadId) {
        self.inner.on_spin(tid);
    }

    fn thread_done(&self, tid: ThreadId) {
        self.inner.thread_done(tid);
    }

    fn campaign_end(&self) {
        self.inner.campaign_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PmraceStrategy, SkipStore, SyncPlan, SyncTuning};
    use pmrace_runtime::site;
    use std::collections::HashSet;
    use std::time::Duration;

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

    #[test]
    fn records_watched_granule_in_release_order() {
        let (l, s) = (site!("rec-load"), site!("rec-store"));
        let plan = SyncPlan {
            off: 64,
            load_sites: HashSet::from([l.id()]),
            store_sites: HashSet::from([s.id()]),
            cas_sites: HashSet::new(),
        };
        let tuning = SyncTuning {
            reader_poll: Duration::from_micros(100),
            writer_wait: Duration::from_millis(1),
            disable_iters: 100,
            skip_jitter: 0,
        };
        let inner = Arc::new(PmraceStrategy::new(
            plan,
            2,
            Arc::new(SkipStore::new()),
            tuning,
            1,
        ));
        let log = Arc::new(ScheduleLog::new(64));
        let rec = Arc::new(RecordingStrategy::new(inner, Arc::clone(&log)));

        let rec2 = Arc::clone(&rec);
        let reader = std::thread::spawn(move || {
            let cancelled = || false;
            rec2.before_load(&ctx(64, l, 1, &cancelled));
        });
        std::thread::sleep(Duration::from_millis(5));
        let cancelled = || false;
        rec.before_store(&ctx(64, s, 0, &cancelled));
        rec.after_store(&ctx(64, s, 0, &cancelled));
        reader.join().unwrap();
        // Off-granule accesses are not recorded.
        rec.before_load(&ctx(256, l, 0, &cancelled));

        let (events, truncated) = log.snapshot();
        assert!(!truncated);
        assert_eq!(events.len(), 2);
        // The reader was gated on the store's signal: store released first.
        assert!(
            !events[0].is_load,
            "store must be released first: {events:?}"
        );
        assert!(events[1].is_load);
        assert_eq!(events[1].tid, 1);
    }

    #[test]
    fn log_is_bounded() {
        let log = ScheduleLog::new(0);
        let site = site!("bound-load");
        for _ in 0..(MAX_RECORDED_EVENTS + 10) {
            log.push(AccessEvent {
                is_load: true,
                site,
                tid: 0,
            });
        }
        let (events, truncated) = log.snapshot();
        assert_eq!(events.len(), MAX_RECORDED_EVENTS);
        assert!(truncated);
    }
}
