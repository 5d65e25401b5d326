//! Per-thread epoch batching of instrumentation metadata.
//!
//! Splitting the per-access work by *what it feeds* is what makes the
//! instrumentation tax affordable:
//!
//! - **Detection stays synchronous.** Candidate minting, inconsistency and
//!   sync-update records, and checker hooks decide what the fuzzer reports;
//!   they must observe cross-thread state at the access and still run inline
//!   in the session hooks.
//! - **Feedback and diagnostics are write-combined here.** Alias-pair
//!   coverage, per-granule access statistics, the report trace ring, the PM
//!   event counter, and telemetry deltas only steer the *next* campaign or
//!   decorate reports — they tolerate epoch-granular publication. Each
//!   [`PmView`](crate::PmView) owns one [`ThreadBuffer`]; accesses
//!   accumulate in its granule slots and drain to the shared striped/atomic
//!   session structures only at sync points (CAS, `clwb`, `sfence`,
//!   detection, view drop) — exactly where the scheduler already serializes
//!   threads.
//!
//! The slot array doubles as the granule-local metadata cache: a repeated
//! same-line access hits its slot without touching the shared stripe map at
//! all. Slots form 2-way sets (see [`SETS`]) indexed by the top bits of
//! [`granule_hash`](pmrace_pmem::granule_hash) because raw granule indices
//! are line-aligned and would alias pathologically under `g % N`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmrace_pmem::{granule_hash, ThreadId};
use pmrace_telemetry as telemetry;

use crate::coverage::Persistency;
use crate::strategy::InterleaveStrategy;
use crate::taint::TaintSet;
use crate::trace::{LocalTraceEvent, TraceBuffers, TraceKind};
use crate::Site;

/// log2 of the per-thread granule-cache slot count.
const SLOT_BITS: u32 = 9;

/// Granule slots per thread buffer (512 × ~130 B ≈ 65 KiB — small enough to
/// stay cache-resident, large enough that a 64-line-per-thread working set
/// maps with no alias group larger than a set's two ways). Organized as
/// [`SETS`] 2-way sets.
pub(crate) const SLOTS: usize = 1 << SLOT_BITS;

/// log2 of the set count (two ways per set).
const SET_BITS: u32 = SLOT_BITS - 1;

/// 2-way sets in the granule cache. Two ways, not a bigger direct map,
/// because the failure mode of a direct map is *ping-pong*: two hot
/// granules aliasing one slot evict (and stripe-flush) each other on every
/// alternating access. A second way absorbs every 2-granule alias group,
/// so steady-state rotation over a working set only flushes at real sync
/// points; 3-way collisions degrade to round-robin eviction.
pub(crate) const SETS: usize = 1 << SET_BITS;

/// Sentinel granule key marking an empty slot.
const NO_GRANULE: u64 = u64::MAX;

/// Sentinel packed coverage event (no access this epoch).
pub(crate) const NO_COV: u32 = u32::MAX;

/// Per-epoch distinct sites kept in the telemetry site-heat delta before
/// overflowing to direct global counts.
const MAX_DELTA_SITES: usize = 64;

/// Slot index of the first way of granule `g`'s set (top hash bits); the
/// second way is `set_base(g) + 1`.
#[inline]
pub(crate) fn set_base(g: u64) -> usize {
    let set = (granule_hash(g) >> (64 - SET_BITS)) as usize;
    debug_assert!(set < SETS);
    set << 1
}

/// Pack a coverage event: `site_id << 1 | unpersisted`.
#[inline]
pub(crate) fn pack_cov(site: Site, unpersisted: bool) -> u32 {
    (site.id() << 1) | u32::from(unpersisted)
}

/// Invert [`pack_cov`].
#[inline]
pub(crate) fn unpack_cov(packed: u32) -> (Site, Persistency) {
    let p = if packed & 1 == 1 {
        Persistency::Unpersisted
    } else {
        Persistency::Persisted
    };
    (Site::from_id(packed >> 1), p)
}

/// Access kinds a slot (and the session's granule statistics) count sites
/// for, indexing [`Slot::counts`].
pub(crate) const LOADS: usize = 0;
pub(crate) const STORES: usize = 1;
pub(crate) const CAS: usize = 2;

/// Distinct sites a slot counts per access kind within one epoch. A
/// granule sees a handful of sites between two sync points; a further one
/// makes the session fold the slot's counts into its stripe early
/// (`Session::count`), which changes no total.
const SITE_CELLS: usize = 4;

/// One access kind's site counts in a slot, held inline: a slot filling
/// heap vectors was the largest source of allocations in a campaign.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteCounts {
    len: u8,
    cells: [(Site, u32); SITE_CELLS],
}

impl SiteCounts {
    fn new() -> Self {
        SiteCounts {
            len: 0,
            cells: [(Site::from_id(0), 0); SITE_CELLS],
        }
    }

    /// The counted `(site, hits)` pairs, in first-hit order.
    pub(crate) fn as_slice(&self) -> &[(Site, u32)] {
        &self.cells[..self.len as usize]
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Add `n` hits of `site` (a linear scan: granules see a handful of
    /// distinct sites). `false`, counting nothing, when `site` is new and
    /// every cell is taken.
    #[inline]
    #[must_use]
    pub(crate) fn bump(&mut self, site: Site, n: u32) -> bool {
        let len = self.len as usize;
        if let Some(e) = self.cells[..len].iter_mut().find(|e| e.0 == site) {
            e.1 += n;
        } else if len < SITE_CELLS {
            self.cells[len] = (site, n);
            self.len += 1;
        } else {
            return false;
        }
        true
    }
}

/// Memo of this thread's most recent *failed* CAS, the key to the
/// CAS-retry fast path in `PmView::cas_u64`. While the session-wide store
/// counter still reads `progress`, no PM store has landed anywhere in the
/// session, so the word provably still holds `observed` (with the same
/// shadow taint) and an identical retry would fail exactly like the last
/// attempt — it can be answered from this memo without touching the pool
/// or re-running the instrumentation hooks. `pending` counts answered
/// retries not yet folded into the granule's slot statistics
/// (`Session::fold_cas_repeats`).
#[derive(Debug)]
pub(crate) struct CasFailCache {
    pub(crate) valid: bool,
    pub(crate) off: u64,
    pub(crate) site: u32,
    pub(crate) observed: u64,
    pub(crate) taint: TaintSet,
    pub(crate) progress: u64,
    pub(crate) pending: u32,
}

impl CasFailCache {
    fn new() -> Self {
        CasFailCache {
            valid: false,
            off: 0,
            site: 0,
            observed: 0,
            taint: TaintSet::empty(),
            progress: 0,
            pending: 0,
        }
    }
}

/// One direct-mapped granule slot: this epoch's accumulated per-site access
/// counts and the first/last coverage events for one granule.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Granule key ([`NO_GRANULE`] when the slot has never been used).
    pub(crate) granule: u64,
    /// `true` while the slot holds unflushed data for `granule`.
    pub(crate) in_epoch: bool,
    /// `true` while the slot has an entry in the buffer's `used` list.
    /// Kept separate from `in_epoch` so eviction ping-pong within one epoch
    /// re-uses the existing entry instead of growing the list unboundedly.
    pub(crate) enrolled: bool,
    /// Plain-load, store and CAS-read site counts ([`LOADS`], [`STORES`],
    /// [`CAS`]).
    pub(crate) counts: [SiteCounts; 3],
    /// First packed coverage event of the epoch ([`NO_COV`] if none).
    pub(crate) cov_first: u32,
    /// Last packed coverage event of the epoch.
    pub(crate) cov_last: u32,
}

impl Slot {
    fn new() -> Self {
        Slot {
            granule: NO_GRANULE,
            in_epoch: false,
            enrolled: false,
            counts: [SiteCounts::new(); 3],
            cov_first: NO_COV,
            cov_last: NO_COV,
        }
    }
}

/// Bounded thread-local trace staging area. Behaves like one thread's slice
/// of the shared ring: beyond `cap` events the oldest local event is
/// overwritten, and each drop is counted so the shared sequence counter can
/// account for it exactly on flush.
#[derive(Debug)]
pub(crate) struct LocalTrace {
    cap: usize,
    buf: Vec<LocalTraceEvent>,
    /// Index of the oldest event once the buffer has wrapped.
    start: usize,
    dropped: u64,
}

impl LocalTrace {
    fn new(cap: usize) -> Self {
        LocalTrace {
            cap,
            buf: Vec::with_capacity(cap.min(4096)),
            start: 0,
            dropped: 0,
        }
    }

    /// Record one event (dropping the oldest beyond capacity).
    #[inline]
    pub(crate) fn push(&mut self, kind: TraceKind, site: Site, off: u64, len: u32) {
        if self.cap == 0 {
            return;
        }
        let ev = LocalTraceEvent {
            kind,
            site,
            off,
            len,
        };
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start += 1;
            if self.start == self.cap {
                self.start = 0;
            }
            self.dropped += 1;
        }
    }

    /// Drain into the shared rings (oldest first), in one sequence-block
    /// reservation and one ring lock.
    pub(crate) fn flush_into(&mut self, tid: ThreadId, sink: &TraceBuffers) {
        if self.buf.is_empty() && self.dropped == 0 {
            return;
        }
        let (tail, head) = self.buf.split_at(self.start);
        sink.push_batch(tid, self.dropped, head, tail);
        self.buf.clear();
        self.start = 0;
        self.dropped = 0;
    }
}

/// Telemetry counter deltas accumulated per epoch (only while telemetry is
/// enabled) and published with one atomic add per counter on flush.
#[derive(Debug, Default)]
pub(crate) struct TelDeltas {
    pub(crate) loads: u64,
    pub(crate) stores: u64,
    pub(crate) ntstores: u64,
    pub(crate) cas: u64,
    pub(crate) flushes: u64,
    pub(crate) fences: u64,
    site_hits: Vec<(u32, u32)>,
}

impl TelDeltas {
    /// Count one site-heat hit in the delta (overflowing rare long tails to
    /// the global table directly).
    #[inline]
    pub(crate) fn site_hit(&mut self, site: u32) {
        if let Some(e) = self.site_hits.iter_mut().find(|e| e.0 == site) {
            e.1 += 1;
        } else if self.site_hits.len() < MAX_DELTA_SITES {
            self.site_hits.push((site, 1));
        } else {
            telemetry::metrics::site_access(site);
        }
    }

    /// Publish and reset all non-zero deltas.
    pub(crate) fn flush(&mut self) {
        use telemetry::Counter;
        for (counter, delta) in [
            (Counter::PmLoads, &mut self.loads),
            (Counter::PmStores, &mut self.stores),
            (Counter::PmNtStores, &mut self.ntstores),
            (Counter::PmCas, &mut self.cas),
            (Counter::PmFlushes, &mut self.flushes),
            (Counter::PmFences, &mut self.fences),
        ] {
            if *delta > 0 {
                telemetry::add(counter, *delta);
                *delta = 0;
            }
        }
        for (site, n) in self.site_hits.drain(..) {
            telemetry::metrics::site_access_n(site, u64::from(n));
        }
    }
}

/// One thread's write-combining buffer: granule slots, staged trace, PM
/// event count, telemetry deltas, and the generation-checked strategy cache
/// (so the access hot path borrows the strategy without a `RwLock` round
/// trip per access).
pub(crate) struct ThreadBuffer {
    pub(crate) tid: ThreadId,
    pub(crate) slots: Box<[Slot]>,
    /// Slot indices dirtied since the last full flush, in first-touch
    /// order — the deterministic flush order. Each slot appears at most
    /// once (guarded by [`Slot::enrolled`]), so the list is bounded by
    /// [`SLOTS`]; the flush loop skips anything not `in_epoch` (e.g. slots
    /// already drained by a CAS-point granule flush).
    pub(crate) used: Vec<u16>,
    /// Round-robin victim way for sets whose both ways are live (3-way
    /// alias groups); flipped on every such eviction.
    pub(crate) victim_flip: bool,
    pub(crate) trace: LocalTrace,
    pub(crate) pm_events: u64,
    pub(crate) tel: TelDeltas,
    /// Last-failed-CAS memo (see [`CasFailCache`]).
    pub(crate) cas_cache: CasFailCache,
    /// Generation of the cached strategy (0 = never fetched; the session
    /// generation starts at 1, so the first access always refreshes).
    pub(crate) strategy_gen: u64,
    pub(crate) strategy: Option<Arc<dyn InterleaveStrategy>>,
}

impl std::fmt::Debug for ThreadBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadBuffer")
            .field("tid", &self.tid)
            .field("dirty_slots", &self.used.len())
            .field("pm_events", &self.pm_events)
            .finish_non_exhaustive()
    }
}

impl ThreadBuffer {
    pub(crate) fn new(tid: ThreadId, trace_depth: usize) -> Self {
        ThreadBuffer {
            tid,
            slots: (0..SLOTS).map(|_| Slot::new()).collect(),
            // Sized for its bound up front: one allocation, not a
            // doubling series in every campaign.
            used: Vec::with_capacity(SLOTS),
            victim_flip: false,
            trace: LocalTrace::new(trace_depth),
            pm_events: 0,
            tel: TelDeltas::default(),
            cas_cache: CasFailCache::new(),
            strategy_gen: 0,
            strategy: None,
        }
    }
}

/// Monotone presence filter over tainted granules: a bit is set when a
/// granule *may* hold a non-empty shadow taint, never cleared. The store
/// hook probes it to skip the stripe lock for the overwhelmingly common
/// untainted-granule case while keeping taint propagation write-through
/// (exactly synchronous); a false positive only costs one stripe lock.
pub(crate) struct TaintFilter {
    words: [AtomicU64; Self::WORDS],
}

impl TaintFilter {
    const WORDS: usize = 64;
    /// log2 of the bit count (64 words × 64 bits = 4096 bits).
    const BITS: u32 = 12;

    pub(crate) fn new() -> Self {
        TaintFilter {
            words: [const { AtomicU64::new(0) }; Self::WORDS],
        }
    }

    #[inline]
    fn bit_of(g: u64) -> (usize, u64) {
        let h = (granule_hash(g) >> (64 - Self::BITS)) as usize;
        (h >> 6, 1u64 << (h & 63))
    }

    /// Mark granule `g` as possibly tainted.
    #[inline]
    pub(crate) fn mark(&self, g: u64) {
        let (w, m) = Self::bit_of(g);
        // Read-before-RMW: the common re-mark costs no exclusive line.
        if self.words[w].load(Ordering::Relaxed) & m == 0 {
            self.words[w].fetch_or(m, Ordering::Relaxed);
        }
    }

    /// `false` means granule `g` is definitely untainted.
    #[inline]
    pub(crate) fn maybe_tainted(&self, g: u64) -> bool {
        let (w, m) = Self::bit_of(g);
        self.words[w].load(Ordering::Relaxed) & m != 0
    }
}

impl std::fmt::Debug for TaintFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaintFilter").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;

    #[test]
    fn set_base_spreads_line_aligned_granules() {
        // Line-aligned workloads touch granules in multiples of 8; the
        // fibonacci hash must spread 64 of them over the 256 sets without
        // pathological clustering (g % SETS would use only 32 sets), and
        // with two ways per set no alias group may exceed what round-robin
        // eviction handles gracefully.
        let mut per_set = std::collections::HashMap::new();
        for line in 0..64u64 {
            *per_set.entry(set_base(line * 8)).or_insert(0u32) += 1;
        }
        assert!(per_set.len() > 48, "only {} distinct sets", per_set.len());
        // The hot 64-granule rotation working set must be ping-pong free:
        // every alias group fits in the two ways of its set.
        assert!(
            per_set.values().all(|&n| n <= 2),
            "an alias group exceeds the set's two ways: {per_set:?}"
        );
    }

    #[test]
    fn cov_pack_roundtrip() {
        let s = site!("batch.pack");
        let (s2, p) = unpack_cov(pack_cov(s, true));
        assert_eq!(s2, s);
        assert_eq!(p, Persistency::Unpersisted);
        let (_, p) = unpack_cov(pack_cov(s, false));
        assert_eq!(p, Persistency::Persisted);
    }

    #[test]
    fn taint_filter_is_monotone_and_sound() {
        let f = TaintFilter::new();
        assert!(!f.maybe_tainted(42));
        f.mark(42);
        assert!(f.maybe_tainted(42), "marked granule must stay visible");
        f.mark(42);
        assert!(f.maybe_tainted(42));
    }

    #[test]
    fn local_trace_wraps_and_counts_drops() {
        let mut t = LocalTrace::new(4);
        let s = site!("batch.trace");
        for i in 0..10u64 {
            t.push(TraceKind::Store, s, i * 8, 8);
        }
        assert_eq!(t.dropped, 6);
        assert_eq!(t.buf.len(), 4);
        // Oldest surviving event is #6.
        let (tail, head) = t.buf.split_at(t.start);
        let offs: Vec<u64> = head.iter().chain(tail).map(|e| e.off).collect();
        assert_eq!(offs, vec![48, 56, 64, 72]);
    }

    #[test]
    fn zero_depth_local_trace_is_disabled() {
        let mut t = LocalTrace::new(0);
        t.push(TraceKind::Load, site!("batch.zero"), 0, 8);
        assert!(t.buf.is_empty());
        assert_eq!(t.dropped, 0);
    }
}
