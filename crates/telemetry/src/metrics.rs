//! Lock-free metrics registry: enum-keyed counters, gauges and log2
//! histograms, plus the per-site access-heat table.
//!
//! Counters and histograms are sharded: each thread writes only the row
//! selected by its dense thread index, and rows are cache-line aligned so
//! concurrent driver threads never contend on the same line. Gauges are
//! single atomics (sets are rare, last-write-wins). All writes are relaxed;
//! snapshot reads sum the shards, which is exact once writers are quiescent
//! and monotonically approximate while they run.
//!
//! Every metric is declared here, once, with its catalog name — the same
//! name that appears in `telemetry.json` and in `docs/OBSERVABILITY.md`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{enabled, shard, SHARDS};

macro_rules! metric_enum {
    ($(#[$outer:meta])* $enum_name:ident : $($variant:ident => $name:literal),+ $(,)?) => {
        $(#[$outer])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $enum_name {
            $(#[doc = concat!("Catalog name: `", $name, "`.")] $variant,)+
        }

        impl $enum_name {
            /// Every variant, in registry order (index == discriminant).
            pub const ALL: &'static [$enum_name] = &[$($enum_name::$variant),+];

            /// Dotted catalog name, exactly as emitted in `telemetry.json`.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self { $($enum_name::$variant => $name),+ }
            }
        }
    };
}

metric_enum! {
    /// Monotonic event counters. See `docs/OBSERVABILITY.md` for the unit
    /// and emission site of each.
    Counter :
    ExecCampaigns => "exec.campaigns",
    ExecHangs => "exec.hangs",
    ExecHangsAllWaiting => "exec.hangs_all_waiting",
    ExecHangsSpinBudget => "exec.hangs_spin_budget",
    ExecOpErrors => "exec.op_errors",
    ExecSessionReuses => "exec.session_reuses",
    ExecSessionFresh => "exec.session_fresh",
    ExecSpareResets => "exec.spare_resets",
    ExecSpareFresh => "exec.spare_fresh",
    ExecPoolFormats => "exec.pool_formats",
    SeedGenerated => "seed.generated",
    SeedEvolved => "seed.evolved",
    SeedPopulated => "seed.populated",
    CorpusSaved => "corpus.seeds_saved",
    CorpusSaveErrors => "corpus.save_errors",
    PmLoads => "pm.loads",
    PmStores => "pm.stores",
    PmNtStores => "pm.ntstores",
    PmCas => "pm.cas",
    PmFlushes => "pm.flushes",
    PmFences => "pm.fences",
    PmEvictions => "pm.evictions",
    PlanPlanned => "plan.planned",
    PlanWaits => "plan.waits",
    PlanAlternationsFired => "plan.alternations_fired",
    PlanSkipsConsumed => "plan.skips_consumed",
    PlanSyncDisabled => "plan.sync_disabled",
    PlanPrivilegedDrafts => "plan.privileged_drafts",
    PlanStallReleased => "plan.stall_released",
    CheckerCandidatesInter => "checker.candidates_inter",
    CheckerCandidatesIntra => "checker.candidates_intra",
    CheckerInconsistencies => "checker.inconsistencies",
    CheckerWhitelisted => "checker.whitelisted",
    CheckerSyncUpdates => "checker.sync_updates",
    ValidateRuns => "validate.runs",
    ValidateBugs => "validate.bugs",
    ValidateFps => "validate.fps",
    ValidateWhitelistedFps => "validate.whitelisted_fps",
    ValidateUnvalidated => "validate.unvalidated",
    ValidateCacheHit => "validate.cache_hit",
    ValidateCacheMiss => "validate.cache_miss",
    ValidatePoolReuses => "validate.pool_reuses",
    ValidatePoolFresh => "validate.pool_fresh",
    CheckpointCreates => "checkpoint.creates",
    CheckpointRestores => "checkpoint.restores",
    CheckpointCacheHits => "checkpoint.cache_hits",
    FleetSteals => "fleet.steals",
    FleetSharedSeeds => "fleet.shared_seeds",
    FleetFrontierHits => "fleet.frontier_hits",
    RecordCaptures => "record.captures",
    ReplayAttempts => "replay.attempts",
    ReplayMatches => "replay.matches",
    ReplayDivergences => "replay.divergences",
    TraceSpansDropped => "trace.spans_dropped",
    SiteHeatDropped => "trace.sites_dropped",
}

metric_enum! {
    /// Last-write-wins level gauges.
    Gauge :
    CovAliasPairs => "cov.alias_pairs",
    CovBranches => "cov.branches",
    FuzzWorkers => "fuzz.workers",
    QueueDepth => "plan.queue_depth",
}

metric_enum! {
    /// Log2-bucketed value distributions. The `*_ns` histograms hold
    /// nanoseconds; `restore.dirty_lines` holds cache-line counts and
    /// `crash_image.overlay_bytes` holds byte counts.
    Histogram :
    PmFlushNs => "pm.flush_ns",
    PmFenceNs => "pm.fence_ns",
    CampaignNs => "exec.campaign_ns",
    RestoreDirtyLines => "restore.dirty_lines",
    CrashImageOverlayBytes => "crash_image.overlay_bytes",
    SchedWriterStallNs => "sched.writer_stall_ns",
    SchedDraftWaitNs => "sched.draft_wait_ns",
}

const N_COUNTERS: usize = Counter::ALL.len();
const N_GAUGES: usize = Gauge::ALL.len();
const N_HISTS: usize = Histogram::ALL.len();

/// Number of buckets per histogram: bucket `b` counts values `v` with
/// `floor(log2(max(v,1))) == b`, the last bucket absorbing everything
/// larger (2^39 ns ≈ 9 minutes, far beyond any single flush or campaign
/// we time).
pub const HIST_BUCKETS: usize = 40;

/// Capacity of the direct-mapped site-heat table. Runtime site ids are
/// dense interner indices starting at 0; ids beyond the table bump
/// `trace.sites_dropped` instead of aliasing.
pub const SITE_SLOTS: usize = 4096;

/// Capacity of the per-worker campaign-execution table. Worker indices
/// past the table saturate into the last slot (the fleet cap is far below
/// this; the paper ran 13 workers).
pub const WORKER_SLOTS: usize = 64;

/// One shard's worth of counter cells, padded to its own cache line pair.
#[repr(align(128))]
struct Row<const N: usize> {
    cells: [AtomicU64; N],
}

impl<const N: usize> Row<N> {
    const fn new() -> Self {
        Self {
            cells: [const { AtomicU64::new(0) }; N],
        }
    }

    fn zero(&self) {
        for c in &self.cells {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[repr(align(128))]
struct HistShard {
    buckets: [[AtomicU64; HIST_BUCKETS]; N_HISTS],
    sums: [AtomicU64; N_HISTS],
}

impl HistShard {
    const fn new() -> Self {
        Self {
            buckets: [const { [const { AtomicU64::new(0) }; HIST_BUCKETS] }; N_HISTS],
            sums: [const { AtomicU64::new(0) }; N_HISTS],
        }
    }
}

static COUNTERS: [Row<N_COUNTERS>; SHARDS] = [const { Row::new() }; SHARDS];
static GAUGES: [AtomicU64; N_GAUGES] = [const { AtomicU64::new(0) }; N_GAUGES];
static HISTS: [HistShard; SHARDS] = [const { HistShard::new() }; SHARDS];
static SITE_HEAT: [AtomicU64; SITE_SLOTS] = [const { AtomicU64::new(0) }; SITE_SLOTS];
static WORKER_EXECS: [AtomicU64; WORKER_SLOTS] = [const { AtomicU64::new(0) }; WORKER_SLOTS];

/// Add `n` to a counter. No-op (one relaxed load, one branch) when
/// telemetry is disabled.
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    COUNTERS[shard()].cells[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current value of a counter: the sum over all shards.
#[must_use]
pub fn counter(c: Counter) -> u64 {
    COUNTERS
        .iter()
        .map(|row| row.cells[c as usize].load(Ordering::Relaxed))
        .sum()
}

/// Set a gauge to `v` (last write wins). No-op when disabled.
#[inline]
pub fn gauge_set(g: Gauge, v: u64) {
    if !enabled() {
        return;
    }
    GAUGES[g as usize].store(v, Ordering::Relaxed);
}

/// Current value of a gauge.
#[must_use]
pub fn gauge(g: Gauge) -> u64 {
    GAUGES[g as usize].load(Ordering::Relaxed)
}

fn bucket_of(v: u64) -> usize {
    if v < 2 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Record one value into a histogram. No-op when disabled.
#[inline]
pub fn record(h: Histogram, v: u64) {
    if !enabled() {
        return;
    }
    let s = &HISTS[shard()];
    s.buckets[h as usize][bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    s.sums[h as usize].fetch_add(v, Ordering::Relaxed);
}

/// Record a duration into a histogram, in nanoseconds.
#[inline]
pub fn record_duration(h: Histogram, d: std::time::Duration) {
    record(h, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

/// Histogram read-out: `(count, sum, non-empty buckets)` where each bucket
/// is `(log2_lower_bound, count)` — i.e. bucket `(b, n)` holds `n` values
/// in `[2^b, 2^(b+1))` (bucket 0 also holds zeros).
#[must_use]
pub fn histogram(h: Histogram) -> (u64, u64, Vec<(u32, u64)>) {
    let mut buckets = [0u64; HIST_BUCKETS];
    let mut sum = 0u64;
    for s in &HISTS {
        for (b, cell) in s.buckets[h as usize].iter().enumerate() {
            buckets[b] += cell.load(Ordering::Relaxed);
        }
        sum += s.sums[h as usize].load(Ordering::Relaxed);
    }
    let count = buckets.iter().sum();
    let nonzero = buckets
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(b, n)| (b as u32, *n))
        .collect();
    (count, sum, nonzero)
}

/// Count one access at instrumentation site `site` (a dense runtime site
/// id). Ids past [`SITE_SLOTS`] bump `trace.sites_dropped` instead.
/// No-op when disabled.
#[inline]
pub fn site_access(site: u32) {
    if !enabled() {
        return;
    }
    match SITE_HEAT.get(site as usize) {
        Some(cell) => {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        None => add(Counter::SiteHeatDropped, 1),
    }
}

/// Count `n` accesses at instrumentation site `site` in one atomic add —
/// the bulk form of [`site_access`] for callers that batch per-thread
/// deltas and flush them at epoch boundaries. No-op when disabled.
#[inline]
pub fn site_access_n(site: u32, n: u64) {
    if n == 0 || !enabled() {
        return;
    }
    match SITE_HEAT.get(site as usize) {
        Some(cell) => {
            cell.fetch_add(n, Ordering::Relaxed);
        }
        None => add(Counter::SiteHeatDropped, n),
    }
}

/// The `n` hottest sites as `(site_id, access_count)`, hottest first.
/// Site ids resolve to labels through the runtime's site registry; this
/// crate deliberately stores only the ids.
#[must_use]
pub fn top_sites(n: usize) -> Vec<(u32, u64)> {
    let mut hot: Vec<(u32, u64)> = SITE_HEAT
        .iter()
        .enumerate()
        .filter_map(|(id, cell)| {
            let v = cell.load(Ordering::Relaxed);
            (v > 0).then_some((id as u32, v))
        })
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(n);
    hot
}

/// Count one completed fuzzing campaign for worker `worker` (a dense fleet
/// worker index). Indices past [`WORKER_SLOTS`] saturate into the last
/// slot. Each worker writes only its own cell, so concurrent workers never
/// contend. No-op when disabled.
#[inline]
pub fn worker_exec(worker: usize) {
    if !enabled() {
        return;
    }
    WORKER_EXECS[worker.min(WORKER_SLOTS - 1)].fetch_add(1, Ordering::Relaxed);
}

/// Per-worker campaign counts as `(worker_index, campaigns)`, ascending by
/// worker index, skipping workers that ran nothing.
#[must_use]
pub fn worker_execs() -> Vec<(usize, u64)> {
    WORKER_EXECS
        .iter()
        .enumerate()
        .filter_map(|(w, cell)| {
            let v = cell.load(Ordering::Relaxed);
            (v > 0).then_some((w, v))
        })
        .collect()
}

/// Zero all counters, gauges, histograms and site heat. Called from
/// [`crate::reset`].
pub(crate) fn reset_metrics() {
    for row in &COUNTERS {
        row.zero();
    }
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
    for s in &HISTS {
        for hist in &s.buckets {
            for b in hist {
                b.store(0, Ordering::Relaxed);
            }
        }
        for sum in &s.sums {
            sum.store(0, Ordering::Relaxed);
        }
    }
    for cell in &SITE_HEAT {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in &WORKER_EXECS {
        cell.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock_registry;

    #[test]
    fn counter_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate counter catalog name");
        assert!(names.iter().all(|n| n.contains('.')));
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = lock_registry();
        crate::set_enabled(false);
        crate::reset();
        add(Counter::PmLoads, 7);
        gauge_set(Gauge::FuzzWorkers, 4);
        record(Histogram::PmFlushNs, 100);
        site_access(3);
        assert_eq!(counter(Counter::PmLoads), 0);
        assert_eq!(gauge(Gauge::FuzzWorkers), 0);
        assert_eq!(histogram(Histogram::PmFlushNs).0, 0);
        assert!(top_sites(8).is_empty());
    }

    #[test]
    fn shards_merge_correctly_under_contention() {
        let _g = lock_registry();
        crate::set_enabled(true);
        crate::reset();
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 200 * 1024; // divisible by 16 and 1024
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        add(Counter::PmStores, 1);
                        if i % 16 == 0 {
                            add(Counter::PmFlushes, 2);
                        }
                        record(Histogram::PmFlushNs, i % 1024);
                        site_access((t % 3) as u32);
                    }
                });
            }
        });
        crate::set_enabled(false);
        assert_eq!(counter(Counter::PmStores), THREADS as u64 * PER_THREAD);
        assert_eq!(
            counter(Counter::PmFlushes),
            THREADS as u64 * (PER_THREAD / 16) * 2
        );
        let (count, sum, buckets) = histogram(Histogram::PmFlushNs);
        assert_eq!(count, THREADS as u64 * PER_THREAD);
        // Each thread records the ramp 0..1024 exactly PER_THREAD/1024 times.
        let ramp: u64 = (0..1024u64).sum();
        assert_eq!(sum, THREADS as u64 * (PER_THREAD / 1024) * ramp);
        assert_eq!(buckets.iter().map(|(_, n)| n).sum::<u64>(), count);
        let hot = top_sites(4);
        assert_eq!(hot.iter().map(|(_, n)| n).sum::<u64>(), count);
        // Thread ids 0..3 map to sites 0,1,2,0 — site 0 is hottest.
        assert_eq!(hot[0].0, 0);
    }

    #[test]
    fn histogram_bucket_bounds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn worker_execs_track_per_worker_and_saturate() {
        let _g = lock_registry();
        crate::set_enabled(true);
        crate::reset();
        worker_exec(0);
        worker_exec(0);
        worker_exec(3);
        worker_exec(WORKER_SLOTS + 10); // saturates into the last slot
        crate::set_enabled(false);
        assert_eq!(worker_execs(), vec![(0, 2), (3, 1), (WORKER_SLOTS - 1, 1)]);
        crate::set_enabled(true);
        crate::reset();
        crate::set_enabled(false);
        assert!(worker_execs().is_empty(), "reset must clear the table");
    }

    #[test]
    fn out_of_range_site_is_dropped_not_aliased() {
        let _g = lock_registry();
        crate::set_enabled(true);
        crate::reset();
        site_access(SITE_SLOTS as u32 + 5);
        crate::set_enabled(false);
        assert_eq!(counter(Counter::SiteHeatDropped), 1);
        assert!(top_sites(usize::MAX).is_empty());
    }
}
