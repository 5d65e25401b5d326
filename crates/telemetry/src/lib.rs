//! Campaign observability for the PMRace reproduction.
//!
//! Everything the fuzzer and its tooling emit about *where time goes* flows
//! through this crate: a lock-free metrics registry
//! ([`metrics`]: counters, gauges, log2-bucketed histograms), a structured
//! span-tracing facade ([`trace`]: static phase ids, per-thread ring
//! buffers, JSONL drain), machine-readable snapshots
//! ([`snapshot`]: the documented `telemetry.json` schema plus its
//! validator), and offline rendering ([`stats`]: the `repro stats`
//! per-phase breakdown and hottest-sites tables). [`json`] is the
//! workspace's one JSON reader and writer, shared with repro artifacts
//! and the hot-path baseline.
//!
//! The full catalog of metric and event names, with units and emission
//! sites, lives in `docs/OBSERVABILITY.md`; that document is the contract
//! this crate implements, and [`snapshot::validate_snapshot_text`] enforces
//! it structurally.
//!
//! # Zero-cost-when-disabled discipline
//!
//! Telemetry is off by default. Every emission helper starts with one
//! relaxed load of a global [`AtomicBool`] and an early return, so an
//! instrumentation point on the hot path (e.g. every PM store) costs a
//! predictable branch when disabled — the same discipline as the sharded
//! shadow/coverage hot path it observes. Enable with [`set_enabled`];
//! nothing here spawns threads or installs hooks.
//!
//! Counters and histograms are sharded per thread over cache-line-aligned
//! rows ([`metrics`]), so enabled-mode recording never takes a lock and
//! never bounces a shared cache line between driver threads. Reads
//! (snapshots) sum the shards.
//!
//! # Process-global state
//!
//! The registry is process-global and cumulative, which is what the
//! consumers want: a fuzzing campaign's validation re-runs, checkpoint
//! restores and replay attempts all land in one coherent snapshot. Tests
//! that assert on absolute values must serialize access and call [`reset`]
//! first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod jsonstr;
pub mod metrics;
pub mod snapshot;
pub mod stats;
pub mod trace;

pub use metrics::{add, Counter, Gauge, Histogram};
pub use snapshot::Snapshot;
pub use trace::{span, Phase, SpanGuard};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of shards counters and histograms are spread over. Thread `t`
/// writes shard `t mod SHARDS`; snapshot reads sum all shards.
pub(crate) const SHARDS: usize = 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Is telemetry recording enabled? One relaxed atomic load; every
/// instrumentation site checks this first.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn telemetry recording on or off (process-global).
///
/// The first `set_enabled(true)` pins the trace epoch: span start offsets
/// and [`Snapshot::capture`]'s `elapsed_us` are measured from that instant.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The instant telemetry was first enabled (or first observed, whichever
/// came first). All trace timestamps are offsets from this.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the trace epoch.
#[must_use]
pub fn elapsed_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Zero every counter, gauge, histogram, site-heat slot and phase total,
/// and discard all buffered span events.
///
/// Test and multi-run support: the registry is process-global, so a harness
/// running several telemetry-observed campaigns back to back resets between
/// them. The epoch is *not* reset (timestamps stay monotonic).
pub fn reset() {
    metrics::reset_metrics();
    trace::reset_trace();
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Small dense per-thread index, assigned on first telemetry activity.
/// Used both as the shard selector (`idx mod SHARDS`) and as the thread id
/// recorded on span events.
pub(crate) fn thread_idx() -> usize {
    THREAD_IDX.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}

pub(crate) fn shard() -> usize {
    thread_idx() % SHARDS
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The registry is process-global, so tests that enable telemetry and
    /// assert on absolute values serialize through this lock.
    pub(crate) fn lock_registry() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
