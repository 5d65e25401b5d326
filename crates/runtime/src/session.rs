//! Per-campaign session state: checkers, coverage, taint shadow memory,
//! annotations, deadline, and findings.
//!
//! # Locking
//!
//! The session used to serialize every hook behind one `Mutex<SessionState>`;
//! that lock was the instrumentation bottleneck under concurrent target
//! threads. State is now decomposed by access frequency:
//!
//! - **coverage** ([`CoverageMap`]) is lock-free (atomic bitmaps plus a
//!   direct-mapped atomic last-access table), touched by every access
//!   through `&self`;
//! - **taint shadow memory and access statistics** live as one combined
//!   `GranuleShadow` record in 64 stripes keyed by `granule % 64` — an
//!   access to one granule locks exactly one stripe and resolves one hash
//!   entry, and the pool's shard layout already spreads neighbouring cache
//!   lines over different stripes;
//! - **trace** is a set of per-thread rings ([`TraceBuffers`]) with a global
//!   atomic sequence counter;
//! - **reports** (candidates, inconsistencies, sync updates, perf issues,
//!   crash-image budget) stay behind a single mutex — they are rare events,
//!   and a single lock keeps candidate ids dense and dedup exact.
//!
//! On top of that decomposition, all *feedback/diagnostic* updates
//! (coverage, access stats, trace, counters) are epoch-batched in each
//! view's `ThreadBuffer` (the private `batch` module) and only drain into
//! the shared structures at sync points; detection state (taint,
//! candidates, reports) stays write-through so nothing observable changes.
//! See the `batch` module docs for the full argument.
//!
//! Lock order: a view's thread buffer is outermost (borrowed for the whole
//! hook — it is view-owned and lock-free, see [`PmView`]); `reports` may be
//! held while calling into the pool or snapshotting the trace; stripes and
//! trace rings are leaf locks and are never held across any other
//! acquisition.
//!
//! Because buffers are view-owned, session accessors report only state
//! published up to each thread's last sync point ([`PmView::flush`] forces
//! one). Campaign code drops or flushes views before reading session-wide
//! statistics; detection state is write-through and needs no flush.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use pmrace_pmem::{LoadInfo, PersistState, Pool, ThreadId};
use pmrace_telemetry as telemetry;

use crate::batch::{self, Slot, TaintFilter, ThreadBuffer, CAS, LOADS, STORES};
use crate::checker::{AccessEvent, Checker};
use crate::coverage::CoverageMap;
use crate::fx::FxHashMap;
use crate::report::{
    Candidate, CandidateKind, EffectKind, Findings, InconsistencyRecord, SyncUpdateRecord,
};
use crate::strategy::{InterleaveStrategy, NoopStrategy};
use crate::taint::TaintSet;
use crate::trace::{TraceBuffers, TraceKind};
use crate::wait::{HangCause, WaitHub};
use crate::whitelist::Whitelist;
use crate::{site_label, PmView, RtError, Site};

/// Annotation of a persistent synchronization variable (§5): its location
/// and the value recovery must restore it to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncVarAnnotation {
    /// Variable name for reports (e.g. `"bucket_lock"`).
    pub name: String,
    /// Pool offset of the variable.
    pub off: u64,
    /// Size in bytes (locks are word-sized in all evaluated systems).
    pub size: usize,
    /// Expected (re)initialized value after recovery — `pm_sync_var_hint`'s
    /// `init_val`.
    pub init_val: u64,
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Wall-clock budget for one campaign; spin loops and the scheduler
    /// observe it, turning seeded hang bugs into [`RtError::Timeout`].
    pub deadline: Duration,
    /// Capture crash images at detection points (needed for post-failure
    /// validation; disable for pure coverage runs).
    pub capture_crash_images: bool,
    /// Budget of crash images per campaign (each is a pool-sized copy).
    pub max_crash_images: usize,
    /// Benign-read whitelist (§4.4).
    pub whitelist: Whitelist,
    /// Depth of the PM access-trace rings attached to bug reports
    /// (0 disables tracing).
    pub trace_depth: usize,
    /// Consecutive [`PmView::spin_yield`] calls that may observe a frozen
    /// session-wide mutation counter before the spinner declares a livelock
    /// and latches the hang flag (the yield-credit latch, a few ms at the
    /// default). It is the backstop for the hangs the all-waiting rule of
    /// [`PmView::spin_until`] cannot decide: a lock holder parked by a
    /// strategy or blocked in an OS mutex. `0` disables this latch only;
    /// the all-waiting rule and the wall-clock `deadline` stay.
    ///
    /// [`PmView::spin_yield`]: crate::PmView::spin_yield
    /// [`PmView::spin_until`]: crate::PmView::spin_until
    pub livelock_spins: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            deadline: Duration::from_secs(2),
            capture_crash_images: true,
            max_crash_images: 64,
            whitelist: Whitelist::default_rules(),
            trace_depth: 128,
            livelock_spins: 4096,
        }
    }
}

/// How a load reached PM: a plain load instruction (the scheduler can
/// inject `cond_wait` before it) or the read half of a compare-and-swap
/// (not gateable before the fact, but a *retry* decision point after a
/// failed attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoadKind {
    /// A plain load instruction.
    Plain,
    /// The read half of a `cas_u64`.
    Cas,
}

/// Number of taint/statistics stripes. Stripes are keyed `granule % 64`, so
/// the 8 granules of one cache line land in 8 *consecutive* stripes and
/// neighbouring lines never collide until 64 granules apart.
const STRIPES: usize = 64;

/// Driver threads a session tells apart: a granule's thread set is a
/// bitmask, so [`Session::view`] rejects larger thread ids.
pub const MAX_THREADS: usize = 64;

/// End of a site-count chain.
const NIL: u32 = u32::MAX;

/// Granule records a stripe keeps across campaigns. Warm campaigns of the
/// Table 1 targets touch at most ~2,000 granules, no more than 32 in one
/// stripe; tables a larger campaign grew are shrunk back to this when the
/// session is recycled, so an exec thread retains at most `STRIPES` × this
/// many records.
const RETAIN_PER_STRIPE: usize = 64;

/// Combined per-granule shadow state: taint labels (empty set = untainted)
/// plus access statistics. One record so a hook updates both with a single
/// map lookup.
///
/// The statistics back the scheduler's priority queue of shared PM
/// accesses (§4.2.2): the threads that touched the granule as a bitmask,
/// and per access kind a chain of `(site, count)` cells in the stripe's
/// arena. A granule sees a handful of distinct sites, so a linear walk
/// beats a hash map on the hot path, and the arena keeps its capacity
/// across campaigns where per-granule vectors would be allocated anew.
#[derive(Debug)]
struct GranuleShadow {
    granule: u64,
    taint: TaintSet,
    /// Bit `t` is set once thread `t` published an access to the granule.
    threads: u64,
    /// Chain heads into [`Stripe::counts`] for loads, stores and CAS reads
    /// (indexed by `batch::LOADS`, `STORES`, `CAS`).
    sites: [u32; 3],
}

impl GranuleShadow {
    /// Touched by several threads with stores and with loads or CAS reads.
    /// A granule with CAS traffic but no plain loads is still schedulable:
    /// failed attempts are retry decision points the strategy can stall on.
    fn is_shared(&self) -> bool {
        let [loads, stores, cas] = self.sites;
        self.threads.count_ones() >= 2 && stores != NIL && (loads != NIL || cas != NIL)
    }
}

/// One cell of a granule's site-count chain.
#[derive(Debug, Clone, Copy)]
struct SiteCount {
    site: Site,
    n: u32,
    next: u32,
}

/// One stripe of the per-granule shadow state. Combined so the common store
/// hook (taint update + stats update on the same granule) takes one lock and
/// one hash lookup, not several. Cache-line aligned so adjacent stripes'
/// mutexes never share a CPU line (threads hash to different stripes by
/// design; unaligned, their lock traffic would still collide).
///
/// Records are dense in first-touch order; `shadows[live..]` are records
/// of earlier campaigns kept for their taint buffers, reinitialized when a
/// new granule takes their place.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe {
    index: FxHashMap<u64, u32>,
    shadows: Vec<GranuleShadow>,
    live: usize,
    counts: Vec<SiteCount>,
}

impl Stripe {
    fn get(&self, g: u64) -> Option<&GranuleShadow> {
        self.index.get(&g).map(|&i| &self.shadows[i as usize])
    }

    fn get_mut(&mut self, g: u64) -> Option<&mut GranuleShadow> {
        self.index.get(&g).map(|&i| &mut self.shadows[i as usize])
    }

    /// Index of `g`'s record, creating an empty one on first touch.
    fn entry(&mut self, g: u64) -> usize {
        let i = self.live;
        match self.index.entry(g) {
            std::collections::hash_map::Entry::Occupied(e) => return *e.get() as usize,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(u32::try_from(i).expect("stripe overflow"));
            }
        }
        self.live += 1;
        if let Some(sh) = self.shadows.get_mut(i) {
            sh.granule = g;
            sh.taint.clear();
            sh.threads = 0;
            sh.sites = [NIL; 3];
        } else {
            self.shadows.push(GranuleShadow {
                granule: g,
                taint: TaintSet::empty(),
                threads: 0,
                sites: [NIL; 3],
            });
        }
        i
    }

    /// Add `n` hits of `site` to record `i`'s chain of `kind`.
    fn bump(&mut self, i: usize, kind: usize, site: Site, n: u32) {
        let mut at = self.shadows[i].sites[kind];
        while at != NIL {
            let cell = &mut self.counts[at as usize];
            if cell.site == site {
                cell.n += n;
                return;
            }
            at = cell.next;
        }
        let head = u32::try_from(self.counts.len()).expect("stripe overflow");
        self.counts.push(SiteCount {
            site,
            n,
            next: self.shadows[i].sites[kind],
        });
        self.shadows[i].sites[kind] = head;
    }

    /// The `(site, count)` cells of one chain.
    fn chain(&self, head: u32) -> impl Iterator<Item = (Site, u32)> + '_ {
        let mut at = head;
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let cell = self.counts[at as usize];
                at = cell.next;
                (cell.site, cell.n)
            })
        })
    }

    /// This campaign's records.
    fn live(&self) -> &[GranuleShadow] {
        &self.shadows[..self.live]
    }

    /// Forget this campaign's records in O(touched), shrinking tables
    /// that grew past [`RETAIN_PER_STRIPE`].
    fn reset(&mut self) {
        if self.live == 0 {
            return;
        }
        self.index.clear();
        self.live = 0;
        self.counts.clear();
        // No-ops unless a campaign grew a table past its bound.
        self.shadows.truncate(RETAIN_PER_STRIPE);
        self.shadows.shrink_to(RETAIN_PER_STRIPE);
        self.index.shrink_to(RETAIN_PER_STRIPE);
        self.counts.shrink_to(4 * RETAIN_PER_STRIPE);
    }
}

/// One entry of the shared-access summary, as stored: the granule's site
/// lists are `sites[start..ends[0]]` (loads), `sites[ends[0]..ends[1]]`
/// (stores) and `sites[ends[1]..ends[2]]` (CAS reads).
#[derive(Debug, Clone, Copy)]
struct SharedSlot {
    off: u64,
    total: u32,
    threads: u32,
    start: u32,
    ends: [u32; 3],
}

/// Shared-PM-access summary for the scheduler's priority queue (see
/// [`Session::shared_accesses`]): granules touched by several threads with
/// both loads and stores, hottest first. All entries' site lists live back
/// to back in one buffer, so the summary is two growing buffers however
/// many granules it holds.
#[derive(Debug, Clone, Default)]
pub struct SharedAccesses {
    entries: Vec<SharedSlot>,
    sites: Vec<(Site, u32)>,
}

/// One entry of the shared-access summary: a PM address with the load and
/// store instructions that touched it and how often.
#[derive(Debug, Clone, Copy)]
pub struct SharedAccessEntry<'a> {
    /// Byte offset of the granule.
    pub off: u64,
    /// Load sites with execution counts, most frequent first.
    pub load_sites: &'a [(Site, u32)],
    /// Store sites with execution counts, most frequent first.
    pub store_sites: &'a [(Site, u32)],
    /// CAS sites with execution counts (the read-modify-write instructions
    /// whose failed attempts are retry decision points), most frequent
    /// first.
    pub cas_sites: &'a [(Site, u32)],
    /// Total accesses (priority key; hot shared data first).
    pub total: u32,
    /// Distinct threads that touched the granule.
    pub threads: usize,
}

impl SharedAccesses {
    /// Empty summary.
    #[must_use]
    pub fn new() -> Self {
        SharedAccesses::default()
    }

    /// Number of shared granules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no granule was shared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries, hottest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SharedAccessEntry<'_>> + '_ {
        self.entries.iter().map(|e| {
            let [loads, stores, cas] = e.ends.map(|end| end as usize);
            SharedAccessEntry {
                off: e.off,
                load_sites: &self.sites[e.start as usize..loads],
                store_sites: &self.sites[loads..stores],
                cas_sites: &self.sites[stores..cas],
                total: e.total,
                threads: e.threads as usize,
            }
        })
    }

    /// Append one granule's entry. Each site list is ordered most frequent
    /// first (ties by site id) and the total is the sum of all counts;
    /// entries keep their insertion order.
    pub fn push(
        &mut self,
        off: u64,
        load_sites: &[(Site, u32)],
        store_sites: &[(Site, u32)],
        cas_sites: &[(Site, u32)],
        threads: usize,
    ) {
        self.push_with(off, threads, |kind, out| {
            out.extend_from_slice([load_sites, store_sites, cas_sites][kind]);
        });
    }

    /// Append one entry whose `kind`'s sites `fill` appends to the buffer.
    fn push_with(
        &mut self,
        off: u64,
        threads: usize,
        mut fill: impl FnMut(usize, &mut Vec<(Site, u32)>),
    ) {
        let start = self.sites.len();
        let mut ends = [0u32; 3];
        let mut from = start;
        for (kind, end) in ends.iter_mut().enumerate() {
            fill(kind, &mut self.sites);
            // Site ids are distinct within a list, so the unstable sort is
            // a total order (and allocates no scratch buffer).
            self.sites[from..].sort_unstable_by_key(|&(s, c)| (std::cmp::Reverse(c), s.id()));
            from = self.sites.len();
            *end = u32::try_from(from).expect("shared summary overflow");
        }
        let total = self.sites[start..].iter().map(|&(_, c)| c).sum();
        self.entries.push(SharedSlot {
            off,
            total,
            threads: u32::try_from(threads).expect("thread count overflow"),
            start: u32::try_from(start).expect("shared summary overflow"),
            ends,
        });
    }
}

/// One 64-byte-padded PM-event counter cell; threads bump the cell indexed
/// by their `ThreadId` so the hot instrumentation hooks never contend on a
/// single shared cache line ([`Session::pm_accesses`] sums the cells).
#[repr(align(64))]
#[derive(Debug, Default)]
struct EventCell(AtomicU64);

/// Number of [`EventCell`]s (covers the paper's 4-thread campaigns with
/// headroom; higher thread ids wrap).
const EVENT_CELLS: usize = 8;

/// The strategy a session starts with: one process-wide passive no-op.
fn noop_strategy() -> Arc<dyn InterleaveStrategy> {
    static NOOP: OnceLock<Arc<dyn InterleaveStrategy>> = OnceLock::new();
    Arc::clone(NOOP.get_or_init(|| Arc::new(NoopStrategy)))
}

fn stripe_of(g: u64) -> usize {
    (g % STRIPES as u64) as usize
}

/// Count freshly minted inconsistency records (total and whitelisted) in
/// the telemetry registry.
fn note_inconsistencies(new_records: &[InconsistencyRecord]) {
    if !telemetry::enabled() || new_records.is_empty() {
        return;
    }
    telemetry::add(
        telemetry::Counter::CheckerInconsistencies,
        new_records.len() as u64,
    );
    let whitelisted = new_records.iter().filter(|r| r.whitelisted).count() as u64;
    if whitelisted > 0 {
        telemetry::add(telemetry::Counter::CheckerWhitelisted, whitelisted);
    }
}

/// Rare-event report state: candidate minting and the three report streams.
/// These stay behind one mutex — keeping candidate ids dense and the dedup
/// indices exact requires cross-thread agreement anyway, and detections are
/// orders of magnitude rarer than accesses.
#[derive(Debug, Default)]
struct Reports {
    candidates: Vec<Candidate>,
    candidate_index: FxHashMap<(u32, u32, CandidateKind), u32>,
    inconsistencies: Vec<InconsistencyRecord>,
    incons_index: HashSet<(u32, u32, u32)>,
    sync_updates: Vec<SyncUpdateRecord>,
    sync_index: HashSet<String>,
    perf_issues: Vec<crate::report::PerfIssueRecord>,
    images_captured: usize,
}

impl Reports {
    /// Empty every stream and index, keeping the indices' tables.
    fn reset(&mut self) {
        self.candidates.clear();
        self.candidate_index.clear();
        self.inconsistencies.clear();
        self.incons_index.clear();
        self.sync_updates.clear();
        self.sync_index.clear();
        self.perf_issues.clear();
        self.images_captured = 0;
    }
}

/// The tables a finished session leaves for the next campaign on the same
/// exec thread ([`Session::retire`], [`Session::recycle`]): the coverage
/// map, trace rings, shadow stripes, report indices, and checker and
/// annotation registries, each with its allocations. Holds no pool.
pub struct SessionTables {
    coverage: Arc<CoverageMap>,
    trace: TraceBuffers,
    stripes: Box<[Mutex<Stripe>]>,
    reports: Reports,
    annotations: Vec<SyncVarAnnotation>,
    checkers: Vec<Arc<dyn Checker>>,
}

impl std::fmt::Debug for SessionTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTables").finish_non_exhaustive()
    }
}

impl SessionTables {
    fn new(trace_depth: usize) -> Self {
        SessionTables {
            coverage: Arc::new(CoverageMap::new()),
            trace: TraceBuffers::new(trace_depth),
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            reports: Reports::default(),
            annotations: Vec::new(),
            checkers: Vec::new(),
        }
    }

    /// Empty every table for a new campaign, in O(what the last campaign
    /// touched). The coverage map is cleared in place once the previous
    /// campaign's result has let go of it, and replaced otherwise.
    fn reset(&mut self, trace_depth: usize) {
        match Arc::get_mut(&mut self.coverage) {
            Some(coverage) => coverage.clear(),
            None => self.coverage = Arc::new(CoverageMap::new()),
        }
        self.trace.reset(trace_depth);
        for stripe in self.stripes.iter_mut() {
            stripe.get_mut().reset();
        }
        self.reports.reset();
        self.annotations.clear();
        self.checkers.clear();
    }
}

/// A fuzz-campaign session: owns all checker state for one execution of the
/// target. Create per-thread [`PmView`]s with [`Session::view`].
///
/// A campaign loop recycles its sessions: [`Session::retire`] takes the
/// tables back from a finished session that nothing else holds, and
/// [`Session::recycle`] resets them for the next campaign in O(touched),
/// the way `Pool::restore_crash_image` resets a pool in O(dirty).
pub struct Session {
    pool: Arc<Pool>,
    cfg: SessionConfig,
    start: Instant,
    /// Behind an `Arc` so a finished campaign can hand the map off to the
    /// explorer's frontier merge without cloning it (~272 KiB per
    /// campaign at fleet rates) — see [`Session::coverage_handle`].
    coverage: Arc<CoverageMap>,
    trace: TraceBuffers,
    stripes: Box<[Mutex<Stripe>]>,
    reports: Mutex<Reports>,
    annotations: RwLock<Vec<SyncVarAnnotation>>,
    strategy: RwLock<Arc<dyn InterleaveStrategy>>,
    checkers: RwLock<Vec<Arc<dyn Checker>>>,
    /// Fast-path flags mirroring the registries above: hooks consult these
    /// relaxed atomics instead of taking a read lock per access when no
    /// strategy/checker/annotation is installed (the common case for
    /// coverage-only runs).
    passive_strategy: AtomicBool,
    has_checkers: AtomicBool,
    has_annotations: AtomicBool,
    halted: AtomicBool,
    /// Hang latch: 0 while running, else the [`HangCause`] code of the
    /// exit that judged the campaign hung (the first one wins).
    hang: AtomicU8,
    check_ctr: AtomicU32,
    /// Mutation counter: bumped once per store (plain, non-temporal, or the
    /// store half of a successful CAS). [`PmView::spin_yield`]'s
    /// yield-credit latch samples it to tell a contended-but-live lock from
    /// a leaked one — a spin loop that keeps seeing the same value is
    /// making no one any progress.
    ///
    /// [`PmView::spin_yield`]: crate::PmView::spin_yield
    progress: AtomicU64,
    pm_events: [EventCell; EVENT_CELLS],
    /// Monotone may-be-tainted granule filter gating the stripe lock on the
    /// store/load hot paths.
    taint_filter: TaintFilter,
    /// Bumped by [`Session::set_strategy`]; views cache the strategy `Arc`
    /// per buffer and refresh when the generation moves (starts at 1 so a
    /// fresh buffer's generation 0 always misses).
    strategy_gen: AtomicU64,
    /// Who waits in [`PmView::spin_until`] (the all-waiting hang rule).
    waits: WaitHub,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("pool_size", &self.pool.size())
            .field("elapsed", &self.start.elapsed())
            .field("halted", &self.halted.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Create a session over `pool` with the given configuration.
    #[must_use]
    pub fn new(pool: Arc<Pool>, cfg: SessionConfig) -> Arc<Self> {
        let tables = SessionTables::new(cfg.trace_depth);
        Self::assemble(pool, cfg, tables)
    }

    /// A session over `pool` built from a retired session's tables, reset
    /// in O(what the last campaign touched). Behaves exactly like
    /// [`Session::new`]`(pool, cfg)`.
    #[must_use]
    pub fn recycle(mut tables: SessionTables, pool: Arc<Pool>, cfg: SessionConfig) -> Arc<Self> {
        tables.reset(cfg.trace_depth);
        Self::assemble(pool, cfg, tables)
    }

    /// Take the tables back from a finished session, dropping its pool,
    /// configuration, strategy and per-campaign flags. `None` while anything
    /// else (a view, a driver, a target) still holds the session.
    #[must_use]
    pub fn retire(this: Arc<Self>) -> Option<SessionTables> {
        // Exhaustive on purpose: a new field must be sorted into "kept" or
        // "rebuilt per campaign" here.
        let Session {
            pool: _,
            cfg: _,
            start: _,
            coverage,
            trace,
            stripes,
            reports,
            annotations,
            strategy: _,
            checkers,
            passive_strategy: _,
            has_checkers: _,
            has_annotations: _,
            halted: _,
            hang: _,
            check_ctr: _,
            progress: _,
            pm_events: _,
            taint_filter: _,
            strategy_gen: _,
            waits: _,
        } = Arc::into_inner(this)?;
        Some(SessionTables {
            coverage,
            trace,
            stripes,
            reports: reports.into_inner(),
            annotations: annotations.into_inner(),
            checkers: checkers.into_inner(),
        })
    }

    fn assemble(pool: Arc<Pool>, cfg: SessionConfig, tables: SessionTables) -> Arc<Self> {
        let SessionTables {
            coverage,
            trace,
            stripes,
            reports,
            annotations,
            checkers,
        } = tables;
        Arc::new(Session {
            pool,
            cfg,
            start: Instant::now(),
            coverage,
            trace,
            stripes,
            reports: Mutex::new(reports),
            annotations: RwLock::new(annotations),
            strategy: RwLock::new(noop_strategy()),
            checkers: RwLock::new(checkers),
            passive_strategy: AtomicBool::new(true),
            has_checkers: AtomicBool::new(false),
            has_annotations: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            hang: AtomicU8::new(0),
            check_ctr: AtomicU32::new(0),
            progress: AtomicU64::new(0),
            pm_events: Default::default(),
            taint_filter: TaintFilter::new(),
            strategy_gen: AtomicU64::new(1),
            waits: WaitHub::default(),
        })
    }

    /// The pool under test.
    #[must_use]
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// The session configuration.
    #[must_use]
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Install the interleaving-exploration strategy for this campaign.
    pub fn set_strategy(&self, strategy: Arc<dyn InterleaveStrategy>) {
        let mut slot = self.strategy.write();
        self.passive_strategy
            .store(strategy.is_passive(), Ordering::Relaxed);
        *slot = strategy;
        self.strategy_gen.fetch_add(1, Ordering::Release);
    }

    /// Current strategy generation (see the `strategy_gen` field).
    pub(crate) fn strategy_generation(&self) -> u64 {
        self.strategy_gen.load(Ordering::Acquire)
    }

    /// `true` while the installed strategy is passive (no hooks); views use
    /// this to skip strategy dispatch on the access hot path.
    #[must_use]
    pub fn strategy_passive(&self) -> bool {
        self.passive_strategy.load(Ordering::Relaxed)
    }

    /// Register an extension checker.
    pub fn add_checker(&self, checker: Arc<dyn Checker>) {
        self.checkers.write().push(checker);
        self.has_checkers.store(true, Ordering::Relaxed);
    }

    /// Annotate a persistent synchronization variable (the
    /// `pm_sync_var_hint(size, init_val)` macro of §5).
    pub fn annotate_sync_var(&self, ann: SyncVarAnnotation) {
        self.annotations.write().push(ann);
        self.has_annotations.store(true, Ordering::Relaxed);
    }

    /// All registered annotations.
    #[must_use]
    pub fn annotations(&self) -> Vec<SyncVarAnnotation> {
        self.annotations.read().clone()
    }

    /// Number of registered annotations.
    #[must_use]
    pub fn annotation_count(&self) -> usize {
        self.annotations.read().len()
    }

    /// Create the instrumented access handle for a target thread. The view
    /// owns its metadata buffer; dropping it (or [`PmView::flush`])
    /// publishes any still-batched statistics to this session.
    ///
    /// The view [enlists](Session::enlist) `tid`.
    ///
    /// # Panics
    ///
    /// When `tid` is [`MAX_THREADS`] or more.
    #[must_use]
    pub fn view(self: &Arc<Self>, tid: ThreadId) -> PmView {
        self.enlist(tid);
        PmView::new(Arc::clone(self), tid)
    }

    /// Count `tid` as a live driver for the all-waiting hang rule
    /// ([`crate::wait`]) from now until its [`Session::thread_done`]. A
    /// campaign enlists every driver before the first one runs: a driver
    /// whose job has not started yet may still release the lock its peers
    /// wait on.
    ///
    /// # Panics
    ///
    /// When `tid` is [`MAX_THREADS`] or more.
    pub fn enlist(&self, tid: ThreadId) {
        assert!(
            (tid.0 as usize) < MAX_THREADS,
            "{tid} exceeds the session's {MAX_THREADS} driver threads"
        );
        self.waits.add_driver(tid);
    }

    /// Abort the campaign: all threads fail their next [`PmView::check`].
    pub fn halt(&self) {
        self.halted.store(true, Ordering::SeqCst);
    }

    /// `true` once halted or past the deadline.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.halted.load(Ordering::Relaxed) || self.start.elapsed() >= self.cfg.deadline
    }

    /// Calls of [`Session::check`] between clock samples. Reading the
    /// monotonic clock costs ~20ns — a large slice of an instrumented
    /// access — so intermediate calls skip it. Hang detection still fires
    /// within `CHECK_STRIDE` accesses of the deadline, which is microseconds
    /// in any spin loop.
    pub(crate) const CHECK_STRIDE: u32 = 32;

    /// Deadline/halt check; flags the campaign as hung when the deadline
    /// passes.
    ///
    /// The deadline clock is sampled every `CHECK_STRIDE` calls
    /// (always including the first call of a fresh session); an expired
    /// observation latches in the hang flag so every subsequent call fails
    /// without touching the clock.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] past the deadline, [`RtError::Halted`] after
    /// [`Session::halt`].
    pub fn check(&self) -> Result<(), RtError> {
        let n = self.check_ctr.fetch_add(1, Ordering::Relaxed);
        self.check_sampled(n & (Self::CHECK_STRIDE - 1) == 0)
    }

    /// [`Session::check`] with the stride decision made by the caller.
    /// Views keep their own plain (non-atomic) counter so concurrent
    /// threads never contend on one shared cache line for the
    /// clock-sampling stride (a fresh counter samples the clock on its
    /// first call, like a fresh session).
    pub(crate) fn check_sampled(&self, sample_clock: bool) -> Result<(), RtError> {
        if self.halted.load(Ordering::Relaxed) {
            return Err(RtError::Halted);
        }
        if self.hang.load(Ordering::Relaxed) != 0 {
            return Err(RtError::Timeout);
        }
        if sample_clock && self.start.elapsed() >= self.cfg.deadline {
            self.latch_hang(HangCause::Deadline);
            return Err(RtError::Timeout);
        }
        Ok(())
    }

    /// Current mutation count (see the `progress` field).
    pub(crate) fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Latches the hang flag so every thread's next check fails with
    /// [`RtError::Timeout`]. The first cause latched is the one reported.
    pub(crate) fn latch_hang(&self, cause: HangCause) {
        let _ = self
            .hang
            .compare_exchange(0, cause.code(), Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Which exit judged the campaign hung, `None` while it is not.
    #[must_use]
    pub fn hang_cause(&self) -> Option<HangCause> {
        HangCause::from_code(self.hang.load(Ordering::Relaxed))
    }

    /// The all-waiting hang rule's record of who waits.
    pub(crate) fn waits(&self) -> &WaitHub {
        &self.waits
    }

    /// Time since session creation.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Total PM events (loads, stores, flushes, fences) instrumented so far;
    /// feeds the fuzzer's accesses/sec throughput meter. Counts events
    /// published up to each view's last sync point — drop or
    /// [`PmView::flush`] the views first for an exact count.
    #[must_use]
    pub fn pm_accesses(&self) -> u64 {
        self.pm_events
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }

    /// `true` when at least one checker is armed (the CAS-retry fast path
    /// must stand down: checkers observe every access event).
    pub(crate) fn checkers_armed(&self) -> bool {
        self.has_checkers.load(Ordering::Relaxed)
    }

    /// Publish the CAS-retry fast path's batched repeat count (see
    /// `PmView::cas_u64`): memo-answered retries are indistinguishable from
    /// full-path failures in the granule access statistics, so fold them
    /// into the granule's slot as one bulk bump. Coverage needs no update —
    /// repeats are consecutive same-thread accesses to one granule, and the
    /// epoch's `cov_last` already holds the identical packed event.
    pub(crate) fn fold_cas_repeats(&self, buf: &mut ThreadBuffer) {
        if buf.cas_cache.pending == 0 {
            return;
        }
        let g = buf.cas_cache.off / 8;
        let site = Site::from_id(buf.cas_cache.site);
        let n = buf.cas_cache.pending;
        buf.cas_cache.pending = 0;
        let tid = buf.tid;
        let slot = self.touch_slot(buf, g);
        self.count(tid, slot, CAS, site, n);
    }

    /// Drain one thread buffer: granule slots (in first-touch order), then
    /// the staged trace, PM event count, and telemetry deltas.
    pub(crate) fn flush_buffer(&self, buf: &mut ThreadBuffer) {
        self.fold_cas_repeats(buf);
        if !buf.used.is_empty() {
            let tid = buf.tid;
            for k in 0..buf.used.len() {
                let idx = buf.used[k] as usize;
                if buf.slots[idx].in_epoch {
                    self.flush_slot(tid, &mut buf.slots[idx]);
                }
                buf.slots[idx].enrolled = false;
            }
            buf.used.clear();
        }
        buf.trace.flush_into(buf.tid, &self.trace);
        if buf.pm_events > 0 {
            self.pm_events[buf.tid.0 as usize % EVENT_CELLS]
                .0
                .fetch_add(buf.pm_events, Ordering::Relaxed);
            buf.pm_events = 0;
        }
        buf.tel.flush();
    }

    /// Publish one granule's batched state if its slot is dirty (the
    /// CAS-point flush: a successful CAS publishes *that* granule, without
    /// taxing the whole buffer inside retry loops).
    pub(crate) fn flush_granule(&self, buf: &mut ThreadBuffer, g: u64) {
        let base = batch::set_base(g);
        for idx in [base, base + 1] {
            if buf.slots[idx].granule == g && buf.slots[idx].in_epoch {
                let tid = buf.tid;
                self.flush_slot(tid, &mut buf.slots[idx]);
                return;
            }
        }
    }

    /// Drain one granule slot into the stripe map and coverage map.
    fn flush_slot(&self, tid: ThreadId, slot: &mut Slot) {
        let g = slot.granule;
        if slot.cov_first != batch::NO_COV {
            // Consecutive same-thread accesses never complete an alias pair
            // and the last-access table holds one entry per granule, so
            // replaying only the epoch's first and last events produces the
            // exact pair set of the unbatched access stream.
            let (site, p) = batch::unpack_cov(slot.cov_first);
            self.coverage.record_access(g, site, tid, p);
            if slot.cov_last != slot.cov_first {
                let (site, p) = batch::unpack_cov(slot.cov_last);
                self.coverage.record_access(g, site, tid, p);
            }
            slot.cov_first = batch::NO_COV;
            slot.cov_last = batch::NO_COV;
        }
        self.fold_counts(tid, slot);
        slot.in_epoch = false;
    }

    /// Move a slot's site counts into its granule's stripe record.
    fn fold_counts(&self, tid: ThreadId, slot: &mut Slot) {
        if slot.counts.iter().all(batch::SiteCounts::is_empty) {
            return;
        }
        let mut stripe = self.stripes[stripe_of(slot.granule)].lock();
        let i = stripe.entry(slot.granule);
        for (kind, counts) in slot.counts.iter_mut().enumerate() {
            for &(site, n) in counts.as_slice() {
                stripe.bump(i, kind, site, n);
            }
            counts.clear();
        }
        stripe.shadows[i].threads |= 1 << tid.0;
    }

    /// Count `n` hits of `site` as `kind` in `slot`. When the kind's cells
    /// are full, the slot's counts are folded into the stripe first: the
    /// totals the stripe ends up with are the same either way.
    #[inline]
    fn count(&self, tid: ThreadId, slot: &mut Slot, kind: usize, site: Site, n: u32) {
        if !slot.counts[kind].bump(site, n) {
            self.fold_counts(tid, slot);
            let counted = slot.counts[kind].bump(site, n);
            debug_assert!(counted, "an emptied slot has room");
        }
    }

    /// The granule slot for `g`, enrolling it in this epoch's `used` list.
    /// On a miss in both ways of `g`'s set, a victim way is chosen (an idle
    /// way if one exists, else round-robin among the live ways) and its
    /// batched state flushed before the slot is re-keyed.
    #[inline]
    fn touch_slot<'b>(&self, buf: &'b mut ThreadBuffer, g: u64) -> &'b mut Slot {
        let base = batch::set_base(g);
        let idx = if buf.slots[base].granule == g {
            base
        } else if buf.slots[base + 1].granule == g {
            base + 1
        } else {
            let victim = if !buf.slots[base].in_epoch {
                base
            } else if !buf.slots[base + 1].in_epoch {
                base + 1
            } else {
                let v = base + usize::from(buf.victim_flip);
                buf.victim_flip = !buf.victim_flip;
                v
            };
            if buf.slots[victim].in_epoch {
                let tid = buf.tid;
                self.flush_slot(tid, &mut buf.slots[victim]);
            }
            buf.slots[victim].granule = g;
            victim
        };
        if !buf.slots[idx].enrolled {
            buf.slots[idx].enrolled = true;
            buf.used.push(idx as u16);
        }
        buf.slots[idx].in_epoch = true;
        &mut buf.slots[idx]
    }

    pub(crate) fn strategy(&self) -> Arc<dyn InterleaveStrategy> {
        Arc::clone(&self.strategy.read())
    }

    /// Notify the strategy that a driver thread finished its operation
    /// sequence (feeds the scheduler's live-thread accounting), and stop
    /// counting it as live for the all-waiting hang rule.
    pub fn thread_done(&self, tid: ThreadId) {
        self.waits.driver_done(tid);
        self.strategy().thread_done(tid);
    }

    fn run_checkers<F: Fn(&dyn Checker, &mut Vec<crate::report::PerfIssueRecord>)>(&self, f: F) {
        if !self.has_checkers.load(Ordering::Relaxed) {
            return;
        }
        let checkers = self.checkers.read();
        if checkers.is_empty() {
            return;
        }
        let mut out = Vec::new();
        for c in checkers.iter() {
            f(c.as_ref(), &mut out);
        }
        if !out.is_empty() {
            self.reports.lock().perf_issues.extend(out);
        }
    }

    /// Load hook: update coverage/stats, mint candidates, return the taint
    /// the loaded value carries.
    ///
    /// `kind` is [`LoadKind::Cas`] for the load half of read-modify-write
    /// instructions: they still mint candidates and coverage, but the
    /// scheduler cannot inject `cond_wait` *before* them, so they are
    /// tallied separately (the granule's CAS chain) and surface in the priority
    /// queue as CAS-retry decision points rather than gateable load sites.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_load(
        &self,
        buf: &mut ThreadBuffer,
        off: u64,
        len: usize,
        site: Site,
        tid: ThreadId,
        info: &LoadInfo,
        kind: LoadKind,
    ) -> TaintSet {
        buf.pm_events += 1;
        if telemetry::enabled() {
            buf.tel.loads += 1;
            buf.tel.site_hit(site.id());
        }
        buf.trace.push(TraceKind::Load, site, off, len as u32);
        let packed = batch::pack_cov(site, info.unpersisted);
        let counted = match kind {
            LoadKind::Plain => LOADS,
            LoadKind::Cas => CAS,
        };
        let mut taint = TaintSet::empty();
        for g in granules(off, len) {
            let slot = self.touch_slot(buf, g);
            if slot.cov_first == batch::NO_COV {
                slot.cov_first = packed;
            }
            slot.cov_last = packed;
            self.count(tid, slot, counted, site, 1);
            // Shadow taint stays write-through (detection semantics); the
            // monotone filter skips the stripe lock when the granule has
            // never been tainted — the overwhelmingly common case.
            if self.taint_filter.maybe_tainted(g) {
                let stripe = self.stripes[stripe_of(g)].lock();
                if let Some(sh) = stripe.get(g) {
                    if !sh.taint.is_empty() {
                        taint.union_with(&sh.taint);
                    }
                }
            }
        }
        if info.unpersisted {
            let cand_kind = if info.writer == tid {
                CandidateKind::Intra
            } else {
                CandidateKind::Inter
            };
            let key = (info.tag.0, site.id(), cand_kind);
            let mut reports = self.reports.lock();
            let id = match reports.candidate_index.get(&key) {
                Some(&id) => id,
                None => {
                    telemetry::add(
                        match cand_kind {
                            CandidateKind::Inter => telemetry::Counter::CheckerCandidatesInter,
                            CandidateKind::Intra => telemetry::Counter::CheckerCandidatesIntra,
                        },
                        1,
                    );
                    let id = u32::try_from(reports.candidates.len()).expect("candidate overflow");
                    reports.candidate_index.insert(key, id);
                    reports.candidates.push(Candidate {
                        id,
                        kind: cand_kind,
                        write_site: Site::from_id(info.tag.0),
                        write_tid: info.writer,
                        read_site: site,
                        read_tid: tid,
                        off,
                    });
                    id
                }
            };
            drop(reports);
            taint.insert(id);
        }
        self.run_checkers(|c, out| {
            c.on_load(
                &AccessEvent {
                    off,
                    len,
                    site,
                    tid,
                    state_before: info.state,
                },
                out,
            );
        });
        taint
    }

    /// Store hook (after the pool store landed): coverage/stats, durable
    /// side-effect detection, shadow-taint update, sync-var updates.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_store(
        &self,
        buf: &mut ThreadBuffer,
        off: u64,
        len: usize,
        site: Site,
        tid: ThreadId,
        value_taint: &TaintSet,
        addr_taint: &TaintSet,
        non_temporal: bool,
        state_before: PersistState,
    ) {
        buf.pm_events += 1;
        // Mutation heartbeat for the spin-loop livelock detector. Stores are
        // orders of magnitude rarer than loads, so one relaxed bump here does
        // not show up in the hot-path matrix.
        self.progress.fetch_add(1, Ordering::Relaxed);
        if telemetry::enabled() {
            if non_temporal {
                buf.tel.ntstores += 1;
            } else {
                buf.tel.stores += 1;
            }
            buf.tel.site_hit(site.id());
        }
        buf.trace.push(
            if non_temporal {
                TraceKind::NtStore
            } else {
                TraceKind::Store
            },
            site,
            off,
            len as u32,
        );
        // A non-temporal store lands persisted.
        let packed = batch::pack_cov(site, !non_temporal);
        for g in granules(off, len) {
            let slot = self.touch_slot(buf, g);
            if slot.cov_first == batch::NO_COV {
                slot.cov_first = packed;
            }
            slot.cov_last = packed;
            self.count(tid, slot, STORES, site, 1);
            // Shadow taint stays write-through. Setting taint marks the
            // granule in the monotone filter; clearing only needs the
            // stripe when the filter says the granule may hold stale taint.
            if value_taint.is_empty() {
                if self.taint_filter.maybe_tainted(g) {
                    let mut stripe = self.stripes[stripe_of(g)].lock();
                    if let Some(sh) = stripe.get_mut(g) {
                        sh.taint.clear();
                    }
                }
            } else {
                self.taint_filter.mark(g);
                let mut stripe = self.stripes[stripe_of(g)].lock();
                let i = stripe.entry(g);
                stripe.shadows[i].taint.clone_from(value_taint);
            }
        }

        // Durable side effect? Ignore labels whose own dependent data is
        // what this store (re)writes — per Definition 2, rewriting the
        // non-persisted data itself is not a side effect of it.
        let effect_labels = || {
            addr_taint.iter().map(|l| (l, EffectKind::Address)).chain(
                value_taint
                    .iter()
                    .filter(|&l| !addr_taint.contains(l))
                    .map(|l| (l, EffectKind::Value)),
            )
        };
        let has_effects = effect_labels().next().is_some();
        // Overlapping sync-var annotations. The read guard is held across
        // the reports lock below (annotations, then reports: nothing takes
        // annotations while holding reports).
        let anns = (has_effects || self.has_annotations.load(Ordering::Relaxed))
            .then(|| self.annotations.read());
        let overlapping = || {
            anns.iter()
                .flat_map(|a| a.iter())
                .filter(|a| overlaps(a.off, a.size, off, len))
        };
        if !has_effects && overlapping().next().is_none() {
            self.run_checkers(|c, out| {
                c.on_store(
                    &AccessEvent {
                        off,
                        len,
                        site,
                        tid,
                        state_before,
                    },
                    out,
                );
            });
            return;
        }

        // A detection snapshots the trace rings; publish this thread's
        // staged events first so the report shows the access just made.
        buf.trace.flush_into(tid, &self.trace);
        let mut reports = self.reports.lock();
        let mut new_records: Vec<InconsistencyRecord> = Vec::new();
        for (label, kind) in effect_labels() {
            let Some(cand) = reports.candidates.get(label as usize).cloned() else {
                continue;
            };
            if kind == EffectKind::Value && overlaps(cand.off, 8, off, len) {
                continue; // rewriting the dependent word itself
            }
            let triple = (cand.write_site.id(), cand.read_site.id(), site.id());
            if !reports.incons_index.insert(triple) {
                continue;
            }
            let whitelisted = self.cfg.whitelist.matches_any([
                site_label(cand.write_site),
                site_label(cand.read_site),
                site_label(site),
            ]);
            let capture = self.cfg.capture_crash_images
                && reports.images_captured < self.cfg.max_crash_images;
            if capture {
                reports.images_captured += 1;
            }
            new_records.push(InconsistencyRecord {
                candidate: cand,
                effect_site: site,
                effect_off: off,
                effect_len: len,
                kind,
                whitelisted,
                trace: self.trace.snapshot(24),
                crash_image: if capture {
                    // Crash point: side effect persisted, dependent data
                    // (everything else unflushed) lost.
                    self.pool
                        .crash_image_persisting(&[(off, len)])
                        .ok()
                        .map(Arc::new)
                } else {
                    None
                },
            });
        }
        note_inconsistencies(&new_records);
        reports.inconsistencies.extend(new_records);

        // PM Synchronization Inconsistency: store into an annotated region.
        for ann in overlapping() {
            let new_value = self.pool.load_u64(ann.off).map(|(v, _)| v).unwrap_or(0);
            if new_value == ann.init_val {
                // Restoring the annotated initial value (e.g. a lock
                // release) is not an inconsistency risk.
                continue;
            }
            if reports.sync_index.contains(&ann.name) {
                continue; // each sync variable's update type checked once (§4.3)
            }
            reports.sync_index.insert(ann.name.clone());
            let capture = self.cfg.capture_crash_images
                && reports.images_captured < self.cfg.max_crash_images;
            if capture {
                reports.images_captured += 1;
            }
            telemetry::add(telemetry::Counter::CheckerSyncUpdates, 1);
            reports.sync_updates.push(SyncUpdateRecord {
                var_name: ann.name.clone(),
                var_off: ann.off,
                var_size: ann.size,
                expected_init: ann.init_val,
                store_site: site,
                new_value,
                tid,
                crash_image: if capture {
                    // Crash right after the sync update persists (Fig. 1's
                    // "crash after thread-2 persists the lock g").
                    self.pool
                        .crash_image_persisting(&[(ann.off, ann.size)])
                        .ok()
                        .map(Arc::new)
                } else {
                    None
                },
            });
        }
        drop(reports);
        drop(anns);
        self.run_checkers(|c, out| {
            c.on_store(
                &AccessEvent {
                    off,
                    len,
                    site,
                    tid,
                    state_before,
                },
                out,
            );
        });
    }

    /// External durable side effect (reply to a client, disk write) based on
    /// possibly-tainted data.
    pub(crate) fn on_extern_output(
        &self,
        buf: &mut ThreadBuffer,
        taint: &TaintSet,
        site: Site,
        tid: ThreadId,
    ) {
        if taint.is_empty() {
            return;
        }
        buf.trace.flush_into(tid, &self.trace);
        let mut reports = self.reports.lock();
        let mut new_records = Vec::new();
        for label in taint.iter() {
            let Some(cand) = reports.candidates.get(label as usize).cloned() else {
                continue;
            };
            let triple = (cand.write_site.id(), cand.read_site.id(), site.id());
            if !reports.incons_index.insert(triple) {
                continue;
            }
            let whitelisted = self.cfg.whitelist.matches_any([
                site_label(cand.write_site),
                site_label(cand.read_site),
                site_label(site),
            ]);
            new_records.push(InconsistencyRecord {
                candidate: cand,
                effect_site: site,
                effect_off: 0,
                effect_len: 0,
                kind: EffectKind::Output,
                whitelisted,
                trace: self.trace.snapshot(24),
                crash_image: None,
            });
        }
        note_inconsistencies(&new_records);
        reports.inconsistencies.extend(new_records);
    }

    pub(crate) fn on_clwb(
        &self,
        buf: &mut ThreadBuffer,
        off: u64,
        len: usize,
        site: Site,
        tid: ThreadId,
    ) {
        // A flush is an epoch boundary: publish this thread's batched
        // metadata before recording the flush itself.
        self.flush_buffer(buf);
        buf.pm_events += 1;
        if telemetry::enabled() {
            buf.tel.flushes += 1;
            buf.tel.site_hit(site.id());
        }
        buf.trace.push(TraceKind::Clwb, site, off, len as u32);
        if self.has_checkers.load(Ordering::Relaxed) {
            // The range walk over granule metadata is only for checkers
            // (e.g. redundant-flush); skip it entirely when none is armed.
            let state_before = self.range_state(off, len);
            self.run_checkers(|c, out| {
                c.on_clwb(
                    &AccessEvent {
                        off,
                        len,
                        site,
                        tid,
                        state_before,
                    },
                    out,
                );
            });
        }
    }

    pub(crate) fn on_sfence(&self, buf: &mut ThreadBuffer, tid: ThreadId) {
        // Like clwb: the fence ends the epoch.
        self.flush_buffer(buf);
        buf.pm_events += 1;
        if telemetry::enabled() {
            buf.tel.fences += 1;
        }
        self.run_checkers(|c, out| c.on_sfence(tid, out));
    }

    /// Summarized persistency state over a byte range (`Dirty` dominates).
    #[must_use]
    pub fn range_state(&self, off: u64, len: usize) -> PersistState {
        let mut worst = PersistState::Clean;
        for g in granules(off, len) {
            match self.pool.meta_at(g * 8).state {
                PersistState::Dirty => return PersistState::Dirty,
                PersistState::Flushing => worst = PersistState::Flushing,
                PersistState::Clean => {}
            }
        }
        worst
    }

    /// Record a branch/basic-block hit for branch coverage.
    pub fn record_branch(&self, site: Site) {
        self.coverage.record_branch(site);
    }

    /// Coverage counters `(alias_pairs, branches)` so far.
    #[must_use]
    pub fn coverage_counts(&self) -> (usize, usize) {
        (self.coverage.alias_pairs(), self.coverage.branches())
    }

    /// Clone the session coverage map (for merging into a global map).
    #[must_use]
    pub fn coverage_snapshot(&self) -> CoverageMap {
        (*self.coverage).clone()
    }

    /// Hand off the session coverage map by reference count — the zero-copy
    /// alternative to [`Session::coverage_snapshot`] for a *finished*
    /// campaign: once the views are gone nothing mutates the map, so the
    /// explorer can merge straight from the shared allocation instead of
    /// paying a ~272 KiB clone per campaign.
    #[must_use]
    pub fn coverage_handle(&self) -> Arc<CoverageMap> {
        Arc::clone(&self.coverage)
    }

    /// Shared-PM-access summary for the scheduler's priority queue: granules
    /// touched by several threads with both loads and stores, hottest first.
    #[must_use]
    pub fn shared_accesses(&self) -> SharedAccesses {
        let mut out = SharedAccesses::new();
        for stripe in self.stripes.iter() {
            let stripe = stripe.lock();
            for sh in stripe.live().iter().filter(|sh| sh.is_shared()) {
                out.push_with(
                    sh.granule * 8,
                    sh.threads.count_ones() as usize,
                    |kind, buf| {
                        buf.extend(stripe.chain(sh.sites[kind]));
                    },
                );
            }
        }
        out.entries
            .sort_unstable_by_key(|e| (std::cmp::Reverse(e.total), e.off));
        out
    }

    /// Granules (by byte offset) that received at least one store during
    /// this session. Post-failure validation uses this over a *recovery*
    /// session to decide whether recorded side effects were overwritten
    /// (§4.4): if recovery rewrote every byte of a durable side effect, the
    /// inconsistency is benign.
    #[must_use]
    pub fn stored_granules(&self) -> std::collections::HashSet<u64> {
        let mut out = std::collections::HashSet::new();
        for stripe in self.stripes.iter() {
            let stripe = stripe.lock();
            out.extend(
                stripe
                    .live()
                    .iter()
                    .filter(|sh| sh.sites[STORES] != NIL)
                    .map(|sh| sh.granule * 8),
            );
        }
        out
    }

    /// End the campaign: notify the strategy, give end-of-campaign checkers
    /// (e.g. missing-flush) their pass over the still-dirty granules, and
    /// extract all findings.
    #[must_use]
    pub fn finish(&self) -> Findings {
        self.strategy().campaign_end();
        if self.has_checkers.load(Ordering::Relaxed) {
            let dirty = self.pool.unpersisted_regions();
            self.run_checkers(|c, out| c.on_campaign_end(&dirty, out));
        }
        let mut reports = self.reports.lock();
        Findings {
            candidates: std::mem::take(&mut reports.candidates),
            inconsistencies: std::mem::take(&mut reports.inconsistencies),
            sync_updates: std::mem::take(&mut reports.sync_updates),
            perf_issues: std::mem::take(&mut reports.perf_issues),
            hang: self.hang.load(Ordering::Relaxed) != 0,
        }
    }
}

#[allow(clippy::reversed_empty_ranges)]
fn granules(off: u64, len: usize) -> std::ops::RangeInclusive<u64> {
    if len == 0 {
        return 1..=0;
    }
    (off / 8)..=((off + len as u64 - 1) / 8)
}

fn overlaps(a_off: u64, a_len: usize, b_off: u64, b_len: usize) -> bool {
    a_len > 0 && b_len > 0 && a_off < b_off + b_len as u64 && b_off < a_off + a_len as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_pmem::PoolOpts;

    fn session() -> Arc<Session> {
        Session::new(
            Arc::new(Pool::new(PoolOpts::small())),
            SessionConfig::default(),
        )
    }

    #[test]
    fn overlap_predicate() {
        assert!(overlaps(0, 8, 4, 8));
        assert!(!overlaps(0, 8, 8, 8));
        assert!(overlaps(8, 8, 0, 9));
        assert!(!overlaps(8, 0, 0, 100)); // empty range never overlaps
    }

    #[test]
    fn deadline_marks_hang() {
        let pool = Arc::new(Pool::new(PoolOpts::small()));
        let s = Session::new(
            pool,
            SessionConfig {
                deadline: Duration::from_millis(0),
                ..SessionConfig::default()
            },
        );
        assert_eq!(s.check().unwrap_err(), RtError::Timeout);
        assert!(s.finish().hang);
    }

    #[test]
    fn halt_cancels() {
        let s = session();
        assert!(s.check().is_ok());
        s.halt();
        assert_eq!(s.check().unwrap_err(), RtError::Halted);
        assert!(s.cancelled());
    }

    #[test]
    fn annotations_roundtrip() {
        let s = session();
        s.annotate_sync_var(SyncVarAnnotation {
            name: "lock".into(),
            off: 64,
            size: 8,
            init_val: 0,
        });
        assert_eq!(s.annotations().len(), 1);
        assert_eq!(s.annotations()[0].name, "lock");
    }

    #[test]
    fn a_granule_with_many_sites_keeps_every_count() {
        // More distinct sites on one granule in one epoch than a slot
        // counts inline: the slot folds early and no count is lost.
        let s = session();
        let (a, b) = (s.view(ThreadId(0)), s.view(ThreadId(1)));
        let stores = [
            crate::site!("many.s0"),
            crate::site!("many.s1"),
            crate::site!("many.s2"),
            crate::site!("many.s3"),
            crate::site!("many.s4"),
            crate::site!("many.s5"),
        ];
        for (i, &site) in stores.iter().enumerate() {
            for _ in 0..=i {
                a.store_u64(64u64, 1, site).unwrap();
            }
        }
        let _ = b.load_u64(64u64, crate::site!("many.l")).unwrap();
        drop((a, b));
        let shared = s.shared_accesses();
        let e = shared.iter().next().expect("granule 8 is shared");
        let mut want: Vec<(Site, u32)> = stores.iter().zip(1..).map(|(&s, n)| (s, n)).collect();
        want.reverse();
        assert_eq!(e.store_sites, &want[..]);
        assert_eq!(e.total, 21 + 1);
    }

    #[test]
    fn pm_access_counter_counts_hooks() {
        let s = session();
        let view = s.view(ThreadId(0));
        let site = crate::site!("session.counter");
        view.store_u64(0, 7, site).unwrap();
        view.load_u64(0, site).unwrap();
        view.clwb(0, 8, site).unwrap();
        view.sfence().unwrap();
        drop(view); // publishes the final epoch (sfence already did here)
        assert_eq!(s.pm_accesses(), 4);
    }
}
