//! Structured span tracing for campaign phases.
//!
//! A [`Phase`] is a static id for one kind of work the fuzzer does (seed
//! generation, campaign execution, post-failure validation, ...). Scopes
//! are opened with [`span`], which returns an RAII guard; dropping the
//! guard records the span.
//!
//! Two sinks receive every span:
//!
//! - **Cumulative phase totals** — sharded `(count, total_ns)` atomics per
//!   phase. These always survive, no matter how many spans fire, and are
//!   what `telemetry.json` reports as per-phase time.
//! - **Per-thread ring buffers** — the most recent [`RING_CAP`] span events
//!   per thread, drained to JSONL by [`crate::snapshot::write_trace_jsonl`]
//!   for offline profiling (`repro stats`). When a ring wraps, the oldest
//!   event is dropped and `trace.spans_dropped` counts it; the cumulative
//!   totals are unaffected.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::metrics::{add, Counter};
use crate::{enabled, epoch, shard, thread_idx, SHARDS};

macro_rules! phases {
    ($($variant:ident => $name:literal),+ $(,)?) => {
        /// A campaign phase — the static id attached to every span.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Phase {
            $(#[doc = concat!("Catalog name: `", $name, "`.")] $variant,)+
        }

        impl Phase {
            /// Every phase, in registry order (index == discriminant).
            pub const ALL: &'static [Phase] = &[$(Phase::$variant),+];

            /// Catalog name, exactly as emitted in `telemetry.json` and
            /// trace JSONL.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self { $(Phase::$variant => $name),+ }
            }
        }
    };
}

phases! {
    SeedGen => "seed_gen",
    PoolStart => "pool_start",
    Execution => "execution",
    Validation => "validation",
    CheckpointCreate => "checkpoint_create",
    CheckpointRestore => "checkpoint_restore",
    RecordCapture => "record_capture",
    ReplayRecon => "replay_recon",
    ReplayAttempt => "replay_attempt",
    ReportEmit => "report_emit",
}

const N_PHASES: usize = Phase::ALL.len();

/// Per-thread span ring capacity. Beyond this the oldest events are
/// discarded (counted in `trace.spans_dropped`); cumulative phase totals
/// are kept regardless.
pub const RING_CAP: usize = 8192;

#[repr(align(128))]
struct PhaseRow {
    count: [AtomicU64; N_PHASES],
    total_ns: [AtomicU64; N_PHASES],
}

impl PhaseRow {
    const fn new() -> Self {
        Self {
            count: [const { AtomicU64::new(0) }; N_PHASES],
            total_ns: [const { AtomicU64::new(0) }; N_PHASES],
        }
    }
}

static PHASE_TOTALS: [PhaseRow; SHARDS] = [const { PhaseRow::new() }; SHARDS];

/// One completed span, as drained from the ring buffers.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// Which phase the span measured.
    pub phase: Phase,
    /// Dense telemetry thread index of the thread that ran it.
    pub thread: u64,
    /// Start offset from the trace epoch, microseconds.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

#[derive(Default)]
struct Ring {
    events: Mutex<VecDeque<SpanEvent>>,
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
    &RINGS
}

fn lock<T: ?Sized>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static MY_RING: Arc<Ring> = {
        let ring = Arc::new(Ring::default());
        lock(rings()).push(Arc::clone(&ring));
        ring
    };
}

/// RAII guard for an open span; records on drop. Obtain via [`span`].
#[must_use = "a span records when the guard drops; binding to _ drops immediately"]
pub struct SpanGuard {
    phase: Phase,
    start: Instant,
}

/// Open a span for `phase`. Returns `None` (and does nothing else) when
/// telemetry is disabled — bind the result to a `_span` local so the guard
/// lives to the end of the scope either way.
#[inline]
pub fn span(phase: Phase) -> Option<SpanGuard> {
    enabled().then(|| SpanGuard {
        phase,
        start: Instant::now(),
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        let row = &PHASE_TOTALS[shard()];
        row.count[self.phase as usize].fetch_add(1, Ordering::Relaxed);
        row.total_ns[self.phase as usize].fetch_add(
            u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        let event = SpanEvent {
            phase: self.phase,
            thread: thread_idx() as u64,
            start_us: u64::try_from(self.start.saturating_duration_since(epoch()).as_micros())
                .unwrap_or(u64::MAX),
            dur_us: u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
        };
        MY_RING.with(|ring| {
            let mut events = lock(&ring.events);
            if events.len() == RING_CAP {
                events.pop_front();
                add(Counter::TraceSpansDropped, 1);
            }
            events.push_back(event);
        });
    }
}

/// Cumulative totals per phase: `(phase, span_count, total_ns)`, summed
/// over all shards, in [`Phase::ALL`] order.
#[must_use]
pub fn phase_totals() -> Vec<(Phase, u64, u64)> {
    Phase::ALL
        .iter()
        .map(|&p| {
            let (mut count, mut ns) = (0u64, 0u64);
            for row in &PHASE_TOTALS {
                count += row.count[p as usize].load(Ordering::Relaxed);
                ns += row.total_ns[p as usize].load(Ordering::Relaxed);
            }
            (p, count, ns)
        })
        .collect()
}

/// Drain every thread's ring buffer, returning all buffered span events
/// sorted by start time. Draining empties the rings.
#[must_use]
pub fn drain_events() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for ring in lock(rings()).iter() {
        out.append(&mut lock(&ring.events).drain(..).collect());
    }
    out.sort_by_key(|e| (e.start_us, e.thread));
    out
}

/// Zero phase totals and discard buffered events. Called from
/// [`crate::reset`].
pub(crate) fn reset_trace() {
    for row in &PHASE_TOTALS {
        for c in &row.count {
            c.store(0, Ordering::Relaxed);
        }
        for t in &row.total_ns {
            t.store(0, Ordering::Relaxed);
        }
    }
    for ring in lock(rings()).iter() {
        lock(&ring.events).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock_registry;

    #[test]
    fn disabled_span_is_none() {
        let _g = lock_registry();
        crate::set_enabled(false);
        assert!(span(Phase::Execution).is_none());
    }

    #[test]
    fn spans_accumulate_totals_and_events() {
        let _g = lock_registry();
        crate::set_enabled(true);
        crate::reset();
        for _ in 0..3 {
            let _span = span(Phase::SeedGen);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        crate::set_enabled(false);
        let totals = phase_totals();
        let (_, count, ns) = totals[Phase::SeedGen as usize];
        assert_eq!(count, 3);
        assert!(ns >= 3 * 2_000_000, "slept >= 2ms per span, got {ns}ns");
        let events = drain_events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        // Drained means drained.
        assert!(drain_events().is_empty());
    }

    #[test]
    fn ring_wrap_drops_oldest_but_keeps_totals() {
        let _g = lock_registry();
        crate::set_enabled(true);
        crate::reset();
        let n = RING_CAP + 10;
        for _ in 0..n {
            let _span = span(Phase::Validation);
        }
        crate::set_enabled(false);
        let (_, count, _) = phase_totals()[Phase::Validation as usize];
        assert_eq!(count, n as u64);
        assert_eq!(drain_events().len(), RING_CAP);
        assert_eq!(
            crate::metrics::counter(crate::metrics::Counter::TraceSpansDropped),
            10
        );
    }
}
