//! [`PmView`]: the instrumented PM access layer target systems program
//! against. Every method is one hooked instruction of the paper's LLVM pass.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use pmrace_pmem::{SiteTag, ThreadId};

use crate::batch::ThreadBuffer;
use crate::session::LoadKind;
use crate::strategy::{AccessCtx, InterleaveStrategy};
use crate::taint::{TBytes, TaintSet, TU64};
use crate::wait::HangCause;
use crate::{RtError, Session, Site};

/// Per-thread instrumented handle over the session's pool.
///
/// Cheap to clone is not needed — create one per target thread via
/// [`Session::view`]. All PM traffic of a target must flow through a view;
/// direct [`Pool`](pmrace_pmem::Pool) access would be invisible to the
/// checkers (like code the pass failed to instrument).
///
/// A view is `Send` but deliberately **not** `Sync`: it is one thread's
/// handle, and its metadata buffer lives behind an uncontended [`RefCell`]
/// instead of a lock — the single biggest saving on the access hot path.
/// Move a view into its thread (campaign workers do exactly this); share
/// the [`Session`] when several threads need handles, and give each its
/// own view.
#[derive(Debug)]
pub struct PmView {
    session: Arc<Session>,
    tid: ThreadId,
    /// This thread's write-combining buffer (see [`crate::batch`]). The
    /// view owns it outright: hooks borrow it for the duration of the
    /// access with no atomic instruction, and [`PmView::flush`]/`Drop`
    /// publish it to the shared session state at epoch boundaries.
    buf: RefCell<ThreadBuffer>,
    /// Per-view deadline-check stride counter — each view samples the
    /// clock on its own stride ([`Session::check`] keeps a shared atomic
    /// one for host code without a view).
    check_ctr: Cell<u32>,
    /// Site id of this thread's most recent *failed* CAS ([`NO_CAS_SITE`]
    /// when the last attempt succeeded or none ran yet). Together with
    /// `cas_fail_streak` this measures consecutive-retry depth, reported to
    /// the strategy's `on_cas_fail` hook so it can distinguish a first
    /// failure (prime interposition point) from a retry storm (back off).
    cas_fail_site: Cell<u32>,
    cas_fail_streak: Cell<u32>,
    /// Pool store count ([`Pool::store_seq`]) last observed by
    /// [`PmView::spin_yield`], with the number of consecutive yields that
    /// saw it unchanged: after [`SPIN_PARK_AFTER`] of them the spinner
    /// parks instead of yielding.
    ///
    /// [`Pool::store_seq`]: pmrace_pmem::Pool::store_seq
    spin_seq: Cell<u64>,
    spin_streak: Cell<u32>,
    /// Stores made through this view, for [`PmView::spin_until`]'s check
    /// that a failed attempt stored nothing.
    #[cfg(debug_assertions)]
    stores: Cell<u64>,
}

/// Sentinel for `cas_fail_site`: no failed CAS outstanding.
const NO_CAS_SITE: u32 = u32::MAX;

/// After this many consecutive no-progress yields, [`PmView::spin_yield`]
/// stops burning CPU on `yield_now` and parks the thread in short sleeps:
/// the wait is already far past a scheduler quantum, so another yield
/// cannot make the lock holder run any sooner, but a spinning thread
/// *does* steal cycles from it (the 1-worker fleet profile showed most of
/// a campaign's CPU going to instrumented CAS/yield storms inside the
/// scheduler's deliberate writer stalls).
const SPIN_PARK_AFTER: u32 = 128;

/// Nominal parked-sleep quantum (the OS rounds it up by timer slack, so
/// the realized quantum is somewhat longer on a default Linux config).
/// A spinner reports itself through the strategy's `on_spin` hook, which
/// ends a scheduler writer stall early and lets the scheduler draft a
/// lock holder parked at a sync point (two reports after its park), so
/// long parks are left to waits nothing else can shorten: a long critical
/// section, a thread that cannot be drafted while another still runs, or
/// a lock holder a strategy keeps parked. At this
/// quantum such a wait costs a few sleep syscalls per millisecond rather
/// than ~25 at 40 µs: each `nanosleep` costs a few µs of kernel time, and
/// under the fleet that overhead was a measurable slice of per-campaign
/// CPU. The coarser wakeup adds at most one quantum of latency after the
/// holder releases the lock.
const SPIN_PARK_QUANTUM: std::time::Duration = std::time::Duration::from_micros(120);

impl PmView {
    pub(crate) fn new(session: Arc<Session>, tid: ThreadId) -> Self {
        let trace_depth = session.config().trace_depth;
        PmView {
            session,
            tid,
            buf: RefCell::new(ThreadBuffer::new(tid, trace_depth)),
            check_ctr: Cell::new(0),
            cas_fail_site: Cell::new(NO_CAS_SITE),
            cas_fail_streak: Cell::new(0),
            spin_seq: Cell::new(0),
            spin_streak: Cell::new(0),
            #[cfg(debug_assertions)]
            stores: Cell::new(0),
        }
    }

    /// The installed strategy, through this buffer's generation-checked
    /// cache: refreshed only when [`Session::set_strategy`] bumps the
    /// generation, so the access hot path never takes the strategy RwLock.
    fn cached_strategy<'b>(&self, buf: &'b mut ThreadBuffer) -> &'b dyn InterleaveStrategy {
        let gen = self.session.strategy_generation();
        if buf.strategy_gen != gen {
            buf.strategy = Some(self.session.strategy());
            buf.strategy_gen = gen;
        }
        buf.strategy.as_deref().expect("strategy cached")
    }

    /// Publish this thread's batched instrumentation metadata (coverage,
    /// access statistics, trace, counters) to the shared session state —
    /// an explicit epoch boundary. Called automatically at CAS/`clwb`/
    /// `sfence` sync points and on drop; call it directly before reading
    /// session-wide statistics ([`Session::coverage_counts`],
    /// [`Session::shared_accesses`], ...) while this view is still live,
    /// or before hand-rolled cross-thread joins if you need another thread
    /// to observe this one's statistics mid-run.
    pub fn flush(&self) {
        let mut buf = self.buf.borrow_mut();
        self.session.flush_buffer(&mut buf);
    }

    /// This view's thread id.
    #[must_use]
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// The owning session.
    #[must_use]
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Deadline/halt check; call inside loops that may spin.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] or [`RtError::Halted`].
    pub fn check(&self) -> Result<(), RtError> {
        let n = self.check_ctr.get();
        self.check_ctr.set(n.wrapping_add(1));
        self.session
            .check_sampled(n & (Session::CHECK_STRIDE - 1) == 0)
    }

    /// Cooperative spin-wait step: deadline check, strategy `on_spin`
    /// notification, thread yield.
    ///
    /// A spinner that has seen no store land in the pool
    /// ([`Pool::store_seq`] unchanged) for 128 consecutive yields parks in
    /// short sleeps instead of yielding, so it stops stealing CPU from the
    /// thread it waits for. A spin never judges a hang: a leaked lock is
    /// judged by the all-waiting rule of [`PmView::spin_until`], and
    /// anything else by the deadline.
    ///
    /// The streak is meant to accumulate inside a *single* blocked
    /// operation; drivers call [`PmView::begin_op`] between operations.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] or [`RtError::Halted`].
    ///
    /// [`Pool::store_seq`]: pmrace_pmem::Pool::store_seq
    pub fn spin_yield(&self) -> Result<(), RtError> {
        self.check()?;
        if !self.session.strategy_passive() {
            let mut buf = self.buf.borrow_mut();
            self.cached_strategy(&mut buf).on_spin(self.tid);
        }
        let seq = self.session.pool().store_seq();
        if seq != self.spin_seq.get() {
            self.spin_seq.set(seq);
            self.spin_streak.set(0);
        } else {
            let n = self.spin_streak.get().saturating_add(1);
            self.spin_streak.set(n);
            if n >= SPIN_PARK_AFTER {
                std::thread::sleep(SPIN_PARK_QUANTUM);
                return Ok(());
            }
        }
        std::thread::yield_now();
        Ok(())
    }

    /// Unbounded wait: run `attempt` until it returns `Ok(Some(v))`, with a
    /// [`PmView::spin_yield`] step between failures (`Ok(None)`), and
    /// return `v`.
    ///
    /// A failed attempt must change nothing another thread can observe: a
    /// failed CAS or `try_lock`, plain loads (debug builds assert it made
    /// no store through this view). While the thread waits, the session
    /// knows it: once every live driver thread waits here and the latest
    /// attempt of each failed after the newest wait entry or
    /// [`Session::thread_done`], no attempt can ever succeed and the hang
    /// latches at once (the all-waiting rule, see [`crate::wait`]).
    ///
    /// Bounded retry loops, which give up by themselves, use plain
    /// [`PmView::spin_yield`] instead: they can never be a hang.
    ///
    /// # Errors
    ///
    /// Errors of `attempt`, and [`RtError::Timeout`] or [`RtError::Halted`]
    /// when the campaign hangs or stops while the thread waits.
    pub fn spin_until<T>(
        &self,
        mut attempt: impl FnMut() -> Result<Option<T>, RtError>,
    ) -> Result<T, RtError> {
        if let Some(v) = self.try_attempt(&mut attempt)? {
            return Ok(v);
        }
        let waiting = self.session.waits().enter(self.tid);
        loop {
            self.spin_yield()?;
            let began = waiting.attempt_begins();
            if let Some(v) = self.try_attempt(&mut attempt)? {
                return Ok(v);
            }
            if waiting.attempt_failed(began) {
                self.session.latch_hang(HangCause::AllWaiting);
                return Err(RtError::Timeout);
            }
        }
    }

    /// One attempt of [`PmView::spin_until`].
    fn try_attempt<T>(
        &self,
        attempt: &mut impl FnMut() -> Result<Option<T>, RtError>,
    ) -> Result<Option<T>, RtError> {
        #[cfg(debug_assertions)]
        let stores = self.stores.get();
        let out = attempt()?;
        #[cfg(debug_assertions)]
        debug_assert!(
            out.is_some() || self.stores.get() == stores,
            "a failed spin_until attempt stored through its view"
        );
        Ok(out)
    }

    /// Operation boundary: the campaign driver calls this before each
    /// target operation. Reports the boundary to the strategy
    /// ([`InterleaveStrategy::before_op`]) and resets this view's spin
    /// streak, since finishing an operation is forward progress even when
    /// it made no PM store: a *bounded* retry loop that gives up (a
    /// consumer re-polling an already-empty lock-free stack) starts its
    /// next operation yielding, not parked.
    pub fn begin_op(&self) {
        self.spin_streak.set(0);
        if !self.session.strategy_passive() {
            let mut buf = self.buf.borrow_mut();
            let cancelled = || self.session.cancelled();
            self.cached_strategy(&mut buf)
                .before_op(self.tid, &cancelled);
        }
    }

    fn ctx<'a>(
        &self,
        off: u64,
        len: usize,
        site: Site,
        cancelled: &'a dyn Fn() -> bool,
    ) -> AccessCtx<'a> {
        AccessCtx {
            off,
            len,
            site,
            tid: self.tid,
            cancelled,
        }
    }

    /// Instrumented 8-byte load. The returned value carries taint: the ids
    /// of any inconsistency candidates it depends on (fresh candidate when
    /// the word is unpersisted, plus shadow taint left by earlier tainted
    /// stores, plus the address taint of `off`).
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn load_u64(&self, off: impl Into<TU64>, site: Site) -> Result<TU64, RtError> {
        self.check()?;
        let off = off.into();
        let mut buf = self.buf.borrow_mut();
        let cancelled = || self.session.cancelled();
        let ctx = self.ctx(off.value(), 8, site, &cancelled);
        let active = !self.session.strategy_passive();
        if active {
            self.cached_strategy(&mut buf).before_load(&ctx);
        }
        let (val, info) = self.session.pool().load_u64(off.value())?;
        if active {
            self.cached_strategy(&mut buf).after_load(&ctx);
        }
        let mut taint = self.session.on_load(
            &mut buf,
            off.value(),
            8,
            site,
            self.tid,
            &info,
            LoadKind::Plain,
        );
        taint.union_with(off.taint());
        Ok(TU64::with_taint(val, taint))
    }

    /// Instrumented byte-range load; see [`PmView::load_u64`].
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn load_bytes(
        &self,
        off: impl Into<TU64>,
        len: usize,
        site: Site,
    ) -> Result<TBytes, RtError> {
        self.check()?;
        let off = off.into();
        let mut buf = self.buf.borrow_mut();
        let cancelled = || self.session.cancelled();
        let ctx = self.ctx(off.value(), len, site, &cancelled);
        let active = !self.session.strategy_passive();
        if active {
            self.cached_strategy(&mut buf).before_load(&ctx);
        }
        let mut bytes = vec![0u8; len];
        let info = self.session.pool().load(off.value(), &mut bytes)?;
        if active {
            self.cached_strategy(&mut buf).after_load(&ctx);
        }
        let mut taint = self.session.on_load(
            &mut buf,
            off.value(),
            len,
            site,
            self.tid,
            &info,
            LoadKind::Plain,
        );
        taint.union_with(off.taint());
        Ok(TBytes::with_taint(bytes, taint))
    }

    fn store_common(
        &self,
        off: TU64,
        bytes: &[u8],
        value_taint: &TaintSet,
        site: Site,
        non_temporal: bool,
    ) -> Result<(), RtError> {
        self.check()?;
        let cancelled = || self.session.cancelled();
        let ctx = self.ctx(off.value(), bytes.len(), site, &cancelled);
        let mut buf = self.buf.borrow_mut();
        let active = !self.session.strategy_passive();
        if active {
            self.cached_strategy(&mut buf).before_store(&ctx);
        }
        let tag = SiteTag(site.id());
        // The store itself reports the range's prior persistency state, so
        // no separate metadata pass (and shard-lock round trip) is needed.
        let info = if non_temporal {
            self.session
                .pool()
                .ntstore(off.value(), bytes, self.tid, tag)?
        } else {
            self.session
                .pool()
                .store(off.value(), bytes, self.tid, tag)?
        };
        self.session.on_store(
            &mut buf,
            off.value(),
            bytes.len(),
            site,
            self.tid,
            value_taint,
            off.taint(),
            non_temporal,
            info.state_before,
        );
        #[cfg(debug_assertions)]
        self.stores.set(self.stores.get() + 1);
        // Fires cond_signal and stalls the writer *before* its flush (§4.2.2).
        if active {
            self.cached_strategy(&mut buf).after_store(&ctx);
        }
        Ok(())
    }

    /// Instrumented 8-byte store. Tainted contents or a tainted address make
    /// this a durable side effect and raise a PM inconsistency.
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn store_u64(
        &self,
        off: impl Into<TU64>,
        val: impl Into<TU64>,
        site: Site,
    ) -> Result<(), RtError> {
        let val = val.into();
        self.store_common(
            off.into(),
            &val.value().to_le_bytes(),
            val.taint(),
            site,
            false,
        )
    }

    /// Instrumented non-temporal 8-byte store (`movnt64`): persists
    /// immediately, still a durable side effect when tainted.
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn ntstore_u64(
        &self,
        off: impl Into<TU64>,
        val: impl Into<TU64>,
        site: Site,
    ) -> Result<(), RtError> {
        let val = val.into();
        self.store_common(
            off.into(),
            &val.value().to_le_bytes(),
            val.taint(),
            site,
            true,
        )
    }

    /// Instrumented byte-range store.
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn store_bytes(
        &self,
        off: impl Into<TU64>,
        data: &TBytes,
        site: Site,
    ) -> Result<(), RtError> {
        self.store_common(off.into(), data.bytes(), data.taint(), site, false)
    }

    /// Instrumented non-temporal byte-range store.
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn ntstore_bytes(
        &self,
        off: impl Into<TU64>,
        data: &TBytes,
        site: Site,
    ) -> Result<(), RtError> {
        self.store_common(off.into(), data.bytes(), data.taint(), site, true)
    }

    /// Instrumented compare-and-swap on an aligned word. Returns
    /// `(swapped, observed)`; the observed value carries taint like a load.
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn cas_u64(
        &self,
        off: impl Into<TU64>,
        expected: u64,
        new: impl Into<TU64>,
        site: Site,
    ) -> Result<(bool, TU64), RtError> {
        self.check()?;
        let off = off.into();
        let new = new.into();
        let cancelled = || self.session.cancelled();
        let ctx = self.ctx(off.value(), 8, site, &cancelled);
        let mut buf = self.buf.borrow_mut();
        let active = !self.session.strategy_passive();
        // Fast path: an identical retry of the CAS that just failed. While
        // the pool's store count is unchanged, *no* PM store has landed
        // anywhere, so the word provably still holds the observed
        // value (and the same shadow taint) and the retry would fail
        // exactly like the last attempt. Answer it from the per-thread
        // memo: no pool access, no granule flush, no candidate or coverage
        // hooks (the first failure already minted and recorded everything
        // a repeat could — candidates dedup by (writer-tag, site, kind)
        // and consecutive same-thread accesses to one granule never
        // complete an alias pair). The repeat count is batched into the
        // granule statistics at the next sync point. Strategy hooks still
        // fire per attempt: retry storms are the scheduler's CAS decision
        // points. Checkers disable the memo — they observe every event.
        let mut hooked = false;
        if buf.cas_cache.valid
            && buf.cas_cache.off == off.value()
            && buf.cas_cache.site == site.id()
            && self.cas_fail_site.get() == site.id()
            && expected != buf.cas_cache.observed
            && !self.session.checkers_armed()
            && self.session.pool().store_seq() == buf.cas_cache.seq
        {
            if active {
                self.cached_strategy(&mut buf).before_store(&ctx);
                hooked = true;
            }
            // The hook may have blocked while another thread stored (e.g.
            // released the word this thread is spinning on): only answer
            // from the memo if the pool is still frozen.
            if self.session.pool().store_seq() == buf.cas_cache.seq {
                buf.pm_events += 1;
                if pmrace_telemetry::enabled() {
                    buf.tel.cas += 1;
                    // The full path counts the CAS read through `on_load`;
                    // mirror that here so `pm.loads + pm.stores + ...`
                    // stays consistent with the session's PM event count.
                    buf.tel.loads += 1;
                }
                buf.cas_cache.pending += 1;
                let attempt = self.cas_fail_streak.get().saturating_add(1);
                self.cas_fail_streak.set(attempt);
                if active {
                    self.cached_strategy(&mut buf).on_cas_fail(&ctx, attempt);
                }
                let mut taint = buf.cas_cache.taint.clone();
                taint.union_with(off.taint());
                return Ok((false, TU64::with_taint(buf.cas_cache.observed, taint)));
            }
        }
        // Full path. Fold batched repeats first so the granule flush below
        // publishes an exact slot, and invalidate the memo — it is about
        // to be superseded (or the CAS succeeds and it must die).
        self.session.fold_cas_repeats(&mut buf);
        buf.cas_cache.valid = false;
        // A CAS is a sync point: publish this granule's batched metadata so
        // cross-thread statistics see it at the decision point (a full
        // buffer flush here would tax lock-free retry loops).
        self.session.flush_granule(&mut buf, off.value() / 8);
        if active && !hooked {
            self.cached_strategy(&mut buf).before_store(&ctx);
        }
        if pmrace_telemetry::enabled() {
            buf.tel.cas += 1;
        }
        let state_before = self.session.range_state(off.value(), 8);
        // Snapshot the store count *before* the CAS reads the word: a
        // store racing this window can only spuriously invalidate the
        // memo, never validate a stale one (see `CasFailCache`).
        let seq_before = self.session.pool().store_seq();
        let (swapped, observed, info) = self.session.pool().cas_u64(
            off.value(),
            expected,
            new.value(),
            self.tid,
            SiteTag(site.id()),
        )?;
        let mut taint = self.session.on_load(
            &mut buf,
            off.value(),
            8,
            site,
            self.tid,
            &info,
            LoadKind::Cas,
        );
        if swapped {
            taint.union_with(off.taint());
            self.cas_fail_site.set(NO_CAS_SITE);
            self.cas_fail_streak.set(0);
            self.session.on_store(
                &mut buf,
                off.value(),
                8,
                site,
                self.tid,
                new.taint(),
                off.taint(),
                false,
                state_before,
            );
            #[cfg(debug_assertions)]
            self.stores.set(self.stores.get() + 1);
            if active {
                self.cached_strategy(&mut buf).after_store(&ctx);
            }
        } else {
            // A failed CAS is the retry decision point of a lock-free loop:
            // count consecutive failures at this site and let the strategy
            // interpose another thread's store before the retry.
            let attempt = if self.cas_fail_site.get() == site.id() {
                self.cas_fail_streak.get().saturating_add(1)
            } else {
                self.cas_fail_site.set(site.id());
                1
            };
            self.cas_fail_streak.set(attempt);
            if active {
                self.cached_strategy(&mut buf).on_cas_fail(&ctx, attempt);
            }
            // Arm the memo for the retry that is almost certainly coming
            // (taint is cached *without* the address taint, which is
            // re-unioned per attempt).
            buf.cas_cache.valid = true;
            buf.cas_cache.off = off.value();
            buf.cas_cache.site = site.id();
            buf.cas_cache.observed = observed;
            buf.cas_cache.taint = taint.clone();
            buf.cas_cache.seq = seq_before;
            buf.cas_cache.pending = 0;
            taint.union_with(off.taint());
        }
        Ok((swapped, TU64::with_taint(observed, taint)))
    }

    /// Instrumented `clwb` over a byte range.
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn clwb(&self, off: impl Into<TU64>, len: usize, site: Site) -> Result<(), RtError> {
        self.check()?;
        let off = off.into();
        let mut buf = self.buf.borrow_mut();
        self.session
            .on_clwb(&mut buf, off.value(), len, site, self.tid);
        self.session.pool().clwb(off.value(), len, self.tid)?;
        Ok(())
    }

    /// Instrumented `sfence`.
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn sfence(&self) -> Result<(), RtError> {
        self.check()?;
        let mut buf = self.buf.borrow_mut();
        self.session.on_sfence(&mut buf, self.tid);
        self.session.pool().sfence(self.tid)?;
        Ok(())
    }

    /// `clwb` + `sfence` (the persist idiom).
    ///
    /// # Errors
    ///
    /// Deadline/halt errors and PM substrate errors.
    pub fn persist(&self, off: impl Into<TU64>, len: usize, site: Site) -> Result<(), RtError> {
        let off = off.into();
        self.clwb(off.clone(), len, site)?;
        self.sfence()
    }

    /// Record a branch/basic-block execution for branch coverage.
    pub fn branch(&self, site: Site) {
        self.session.record_branch(site);
    }

    /// Declare that `data` left the program (client reply, disk write): an
    /// external durable side effect if tainted.
    pub fn output(&self, data: &TBytes, site: Site) {
        let mut buf = self.buf.borrow_mut();
        self.session
            .on_extern_output(&mut buf, data.taint(), site, self.tid);
    }
}

impl Drop for PmView {
    /// Dropping a view ends its final epoch: whatever the thread batched
    /// since the last sync point is published to the session.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::RedundantFlushChecker;
    use crate::report::{CandidateKind, EffectKind};
    use crate::session::{SessionConfig, SyncVarAnnotation};
    use crate::site;
    use pmrace_pmem::{Pool, PoolOpts};

    fn session() -> Arc<Session> {
        Session::new(
            Arc::new(Pool::new(PoolOpts::small())),
            SessionConfig::default(),
        )
    }

    #[test]
    fn clean_load_is_untainted() {
        let s = session();
        let v = s.view(ThreadId(0));
        v.ntstore_u64(64u64, 5, site!("w")).unwrap();
        let x = v.load_u64(64u64, site!("r")).unwrap();
        assert_eq!(x, 5u64);
        assert!(!x.is_tainted());
        assert!(s.finish().candidates.is_empty());
    }

    #[test]
    fn cross_thread_dirty_read_mints_inter_candidate() {
        let s = session();
        let w = s.view(ThreadId(0));
        let r = s.view(ThreadId(1));
        w.store_u64(64u64, 7, site!("writer")).unwrap();
        let x = r.load_u64(64u64, site!("reader")).unwrap();
        assert!(x.is_tainted());
        let f = s.finish();
        assert_eq!(f.candidates.len(), 1);
        assert_eq!(f.candidates[0].kind, CandidateKind::Inter);
        assert!(f.inconsistencies.is_empty(), "no side effect yet");
    }

    #[test]
    fn own_dirty_read_mints_intra_candidate() {
        let s = session();
        let v = s.view(ThreadId(0));
        v.store_u64(64u64, 7, site!("w-intra")).unwrap();
        let x = v.load_u64(64u64, site!("r-intra")).unwrap();
        assert!(x.is_tainted());
        let f = s.finish();
        assert_eq!(f.candidates[0].kind, CandidateKind::Intra);
    }

    #[test]
    fn tainted_value_store_is_inconsistency() {
        let s = session();
        let w = s.view(ThreadId(0));
        let r = s.view(ThreadId(1));
        w.store_u64(64u64, 7, site!("w1")).unwrap();
        let x = r.load_u64(64u64, site!("r1")).unwrap();
        r.store_u64(128u64, x + 1u64, site!("effect1")).unwrap();
        let f = s.finish();
        assert_eq!(f.inconsistencies.len(), 1);
        let rec = &f.inconsistencies[0];
        assert_eq!(rec.kind, EffectKind::Value);
        assert_eq!(rec.effect_off, 128);
        assert!(rec.crash_image.is_some());
        // The crash image holds the side effect but not the dependent data.
        let img = rec.crash_image.as_ref().unwrap();
        assert_eq!(img.load_u64(128).unwrap(), 8);
        assert_eq!(img.load_u64(64).unwrap(), 0);
    }

    #[test]
    fn tainted_address_store_is_inconsistency() {
        let s = session();
        let w = s.view(ThreadId(0));
        let r = s.view(ThreadId(1));
        w.store_u64(64u64, 256, site!("w2")).unwrap(); // a "pointer"
        let ptr = r.load_u64(64u64, site!("r2")).unwrap();
        r.ntstore_u64(ptr, 42, site!("effect2")).unwrap(); // store *via* it
        let f = s.finish();
        assert_eq!(f.inconsistencies.len(), 1);
        assert_eq!(f.inconsistencies[0].kind, EffectKind::Address);
        assert_eq!(f.inconsistencies[0].effect_off, 256);
    }

    #[test]
    fn rewriting_dependent_word_is_not_side_effect() {
        let s = session();
        let w = s.view(ThreadId(0));
        let r = s.view(ThreadId(1));
        w.store_u64(64u64, 7, site!("w3")).unwrap();
        let x = r.load_u64(64u64, site!("r3")).unwrap();
        r.store_u64(64u64, x, site!("rewrite")).unwrap();
        let f = s.finish();
        assert!(f.inconsistencies.is_empty());
    }

    #[test]
    fn persisted_then_read_is_no_candidate() {
        let s = session();
        let w = s.view(ThreadId(0));
        let r = s.view(ThreadId(1));
        w.store_u64(64u64, 7, site!("w4")).unwrap();
        w.persist(64u64, 8, site!("flush4")).unwrap();
        let x = r.load_u64(64u64, site!("r4")).unwrap();
        assert!(!x.is_tainted());
        assert!(s.finish().candidates.is_empty());
    }

    #[test]
    fn shadow_taint_flows_through_memory() {
        let s = session();
        let w = s.view(ThreadId(0));
        let r = s.view(ThreadId(1));
        w.store_u64(64u64, 7, site!("w5")).unwrap();
        let x = r.load_u64(64u64, site!("r5")).unwrap();
        // Store tainted value, persist it, load it back: taint must survive
        // because the *source* is still unpersisted.
        r.store_u64(200u64, x, site!("mid")).unwrap();
        r.persist(200u64, 8, site!("flush5")).unwrap();
        let y = r.load_u64(200u64, site!("r5b")).unwrap();
        assert!(y.is_tainted());
        r.store_u64(300u64, y, site!("effect5")).unwrap();
        let f = s.finish();
        // Two inconsistencies: the tainted store at `mid` and at `effect5`.
        assert_eq!(f.inconsistencies.len(), 2);
    }

    #[test]
    fn sync_var_update_is_recorded_once_per_site() {
        let s = session();
        s.annotate_sync_var(SyncVarAnnotation {
            name: "lock".into(),
            off: 512,
            size: 8,
            init_val: 0,
        });
        let v = s.view(ThreadId(0));
        let lock_site = site!("lock_acquire");
        v.store_u64(512u64, 1, lock_site).unwrap();
        v.store_u64(512u64, 1, lock_site).unwrap(); // same shape: deduped
        let f = s.finish();
        assert_eq!(f.sync_updates.len(), 1);
        let u = &f.sync_updates[0];
        assert_eq!(u.var_name, "lock");
        assert_eq!(u.new_value, 1);
        assert_eq!(u.expected_init, 0);
        assert!(u.crash_image.is_some());
        assert_eq!(u.crash_image.as_ref().unwrap().load_u64(512).unwrap(), 1);
    }

    #[test]
    fn cas_acquires_record_sync_updates_and_candidates() {
        let s = session();
        s.annotate_sync_var(SyncVarAnnotation {
            name: "seg_lock".into(),
            off: 1024,
            size: 8,
            init_val: 0,
        });
        let a = s.view(ThreadId(0));
        let b = s.view(ThreadId(1));
        let (ok, _) = a.cas_u64(1024u64, 0, 1, site!("cas_acquire")).unwrap();
        assert!(ok);
        // b observes a's unpersisted lock word.
        let (ok2, observed) = b.cas_u64(1024u64, 0, 1, site!("cas_acquire_b")).unwrap();
        assert!(!ok2);
        assert_eq!(observed, 1u64);
        assert!(observed.is_tainted());
        let f = s.finish();
        assert_eq!(f.sync_updates.len(), 1);
        assert!(!f.candidates.is_empty());
    }

    #[test]
    fn whitelisted_sites_are_marked() {
        let s = session();
        let w = s.view(ThreadId(0));
        let r = s.view(ThreadId(1));
        w.store_u64(64u64, 7, site!("clevel.pmdk_tx_alloc.meta"))
            .unwrap();
        let x = r.load_u64(64u64, site!("r6")).unwrap();
        r.store_u64(128u64, x, site!("e6")).unwrap();
        let f = s.finish();
        assert_eq!(f.inconsistencies.len(), 1);
        assert!(f.inconsistencies[0].whitelisted);
    }

    #[test]
    fn extern_output_of_tainted_data_is_inconsistency() {
        let s = session();
        let w = s.view(ThreadId(0));
        let r = s.view(ThreadId(1));
        w.store_u64(64u64, 7, site!("w7")).unwrap();
        let x = r.load_bytes(64u64, 8, site!("r7")).unwrap();
        r.output(&x, site!("reply"));
        let f = s.finish();
        assert_eq!(f.inconsistencies.len(), 1);
        assert_eq!(f.inconsistencies[0].kind, EffectKind::Output);
    }

    #[test]
    fn redundant_flush_checker_integration() {
        let s = session();
        s.add_checker(Arc::new(RedundantFlushChecker));
        let v = s.view(ThreadId(0));
        v.store_u64(64u64, 1, site!("w8")).unwrap();
        v.persist(64u64, 8, site!("flush8")).unwrap();
        v.persist(64u64, 8, site!("flush8-again")).unwrap(); // redundant
        let f = s.finish();
        assert_eq!(f.perf_issues.len(), 1);
        assert_eq!(f.perf_issues[0].checker, "redundant-flush");
    }

    #[test]
    fn shared_access_summary_ranks_hot_granules() {
        let s = session();
        let a = s.view(ThreadId(0));
        let b = s.view(ThreadId(1));
        for _ in 0..5 {
            a.store_u64(64u64, 1, site!("hot-w")).unwrap();
            let _ = b.load_u64(64u64, site!("hot-r")).unwrap();
        }
        a.store_u64(128u64, 1, site!("cold-w")).unwrap();
        let _ = b.load_u64(128u64, site!("cold-r")).unwrap();
        // Accessors no longer force-drain live views; end the epochs first.
        a.flush();
        b.flush();
        let shared = s.session().shared_accesses();
        let shared: Vec<_> = shared.iter().collect();
        assert_eq!(shared.len(), 2);
        assert_eq!(shared[0].off, 64);
        assert!(shared[0].total > shared[1].total);
        assert_eq!(shared[0].threads, 2);
    }

    #[test]
    fn cas_only_granules_surface_with_cas_sites() {
        let s = session();
        let a = s.view(ThreadId(0));
        let b = s.view(ThreadId(1));
        // Two threads race a CAS word with no plain loads at all: the
        // granule must still enter the shared-access summary, carried by
        // its CAS sites.
        let (ok, _) = a.cas_u64(64u64, 0, 1, site!("cas.a")).unwrap();
        assert!(ok);
        let (ok2, _) = b.cas_u64(64u64, 0, 2, site!("cas.b")).unwrap();
        assert!(!ok2);
        a.flush();
        b.flush();
        let shared = s.session().shared_accesses();
        let shared: Vec<_> = shared.iter().collect();
        assert_eq!(shared.len(), 1);
        let e = &shared[0];
        assert_eq!(e.off, 64);
        assert!(e.load_sites.is_empty());
        assert!(!e.cas_sites.is_empty());
        assert!(!e.store_sites.is_empty());
        assert_eq!(e.threads, 2);
        // total counts the CAS attempts too.
        assert_eq!(e.total, 3); // 2 cas reads + 1 store
    }

    #[derive(Debug, Default)]
    struct CasFailProbe {
        seen: parking_lot::Mutex<Vec<(String, u32)>>,
    }

    impl crate::strategy::InterleaveStrategy for CasFailProbe {
        fn name(&self) -> &'static str {
            "cas-fail-probe"
        }

        fn on_cas_fail(&self, ctx: &AccessCtx<'_>, attempt: u32) {
            self.seen
                .lock()
                .push((crate::site_label(ctx.site).to_string(), attempt));
        }
    }

    #[test]
    fn failed_cas_fires_hook_with_consecutive_attempt_counts() {
        let s = session();
        let probe = Arc::new(CasFailProbe::default());
        s.set_strategy(Arc::clone(&probe) as Arc<dyn crate::strategy::InterleaveStrategy>);
        let v = s.view(ThreadId(0));
        v.ntstore_u64(64u64, 9, site!("cas.seed")).unwrap();
        // Three consecutive failures at one site, then a success, then a
        // fresh failure: the streak must ramp 1,2,3 and reset to 1.
        for _ in 0..3 {
            let (ok, _) = v.cas_u64(64u64, 0, 1, site!("cas.retry")).unwrap();
            assert!(!ok);
        }
        let (ok, _) = v.cas_u64(64u64, 9, 1, site!("cas.retry")).unwrap();
        assert!(ok);
        let (ok, _) = v.cas_u64(64u64, 0, 2, site!("cas.retry")).unwrap();
        assert!(!ok);
        let seen = probe.seen.lock();
        let attempts: Vec<u32> = seen.iter().map(|(_, a)| *a).collect();
        assert_eq!(attempts, vec![1, 2, 3, 1]);
        assert!(seen.iter().all(|(l, _)| l == "cas.retry"));
    }

    #[test]
    fn a_cas_retry_succeeds_once_a_peer_releases_the_word() {
        // The waiter's identical retries are answered from its failed-CAS
        // memo while nothing stores; the holder's release must invalidate
        // the memo, or the waiter would spin on a free lock forever.
        let s = session();
        let holder = s.view(ThreadId(0));
        let waiter = s.view(ThreadId(1));
        holder.store_u64(64u64, 1, site!("memo.lock")).unwrap();
        // One site for every attempt: the memo only answers retries of the
        // CAS instruction that failed.
        let acquire = || {
            waiter
                .cas_u64(64u64, 0, 1, site!("memo.acquire"))
                .unwrap()
                .0
        };
        for _ in 0..3 {
            assert!(!acquire(), "the holder still has the word");
        }
        holder.store_u64(64u64, 0, site!("memo.unlock")).unwrap();
        assert!(acquire(), "the retry was answered from a stale memo");
    }

    trait SessionExt {
        fn session(&self) -> &Arc<Session>;
    }
    impl SessionExt for Arc<Session> {
        fn session(&self) -> &Arc<Session> {
            self
        }
    }

    #[test]
    fn deadline_aborts_accesses() {
        let pool = Arc::new(Pool::new(PoolOpts::small()));
        let s = Session::new(
            pool,
            SessionConfig {
                deadline: std::time::Duration::ZERO,
                ..SessionConfig::default()
            },
        );
        let v = s.view(ThreadId(0));
        assert_eq!(
            v.store_u64(64u64, 1, site!("w9")).unwrap_err(),
            RtError::Timeout
        );
        assert_eq!(v.spin_yield().unwrap_err(), RtError::Timeout);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a failed spin_until attempt stored through its view")]
    fn a_failed_attempt_that_stores_trips_the_debug_check() {
        let s = session();
        let v = s.view(ThreadId(0));
        let _ = v.spin_until(|| {
            v.store_u64(64u64, 1, site!("attempt.store"))?;
            Ok(None::<()>)
        });
    }
}
