//! Byte images, per-granule persistency metadata, and the sharded layout.
//!
//! The pool's state is split into [`N_SHARDS`] address-interleaved shards so
//! that concurrent accesses to different cache lines synchronize on different
//! locks. Shard `s` owns every cache line `l` with `l % N_SHARDS == s`;
//! adjacent lines always land in different shards, so even neighbouring
//! threads do not collide. All geometry helpers live here next to the
//! [`Shard`] they index into.

use crate::{SiteTag, ThreadId};

/// Size in bytes of a persistency-tracking granule (one machine word).
///
/// The paper's runtime records persistency states in a hash table keyed by
/// address; we track at 8-byte granularity, which matches the word-sized PM
/// stores all evaluated systems use for their racy metadata.
pub const GRANULE: usize = 8;

/// Size in bytes of a cache line; `clwb` affects a whole line.
pub const CACHE_LINE: usize = 64;

/// Number of address-interleaved shards the pool image is split into.
pub(crate) const N_SHARDS: usize = 64;

/// Granules per cache line.
pub(crate) const GRANULES_PER_LINE: u64 = (CACHE_LINE / GRANULE) as u64;

/// Persistency state of one granule (the paper's `PM_DIRTY` / `PM_CLEAN`
/// plus the intermediate write-back-queued state between `clwb` and
/// `sfence`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PersistState {
    /// Volatile and persistent images agree; a crash loses nothing here.
    #[default]
    Clean,
    /// A store reached the volatile image but no write-back is queued.
    /// Loading this granule from another thread is a *PM Inter-thread
    /// Inconsistency Candidate*.
    Dirty,
    /// `clwb` captured the granule; the capture persists at the next
    /// `sfence`. Still lost on a crash before the fence.
    Flushing,
}

impl PersistState {
    /// `true` when a crash right now would lose the latest store to this
    /// granule (`Dirty` or `Flushing`).
    #[must_use]
    pub fn is_unpersisted(self) -> bool {
        !matches!(self, PersistState::Clean)
    }
}

impl std::fmt::Display for PersistState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PersistState::Clean => "PM_CLEAN",
            PersistState::Dirty => "PM_DIRTY",
            PersistState::Flushing => "PM_FLUSHING",
        };
        f.write_str(s)
    }
}

/// Metadata attached to a granule by the most recent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GranuleMeta {
    /// Persistency state of the granule.
    pub state: PersistState,
    /// Thread that issued the most recent store.
    pub writer: ThreadId,
    /// Instruction-site tag of the most recent store.
    pub tag: SiteTag,
    /// Monotonic sequence number of the most recent store (pool-wide).
    pub seq: u64,
}

// --- geometry -------------------------------------------------------------
//
// Global cache line l  ->  shard l % 64, local line l / 64.
// Global granule g     ->  line g / 8, granule g % 8 within the line.
// A granule never spans lines (8 | 64), so any per-line walk visits each
// granule exactly once.

/// Granule index containing byte offset `off`.
pub(crate) fn granule_of(off: u64) -> u64 {
    off / GRANULE as u64
}

/// Fibonacci multiplicative hash of a granule index.
///
/// Granule indices produced by real workloads are strongly structured —
/// line-aligned allocations make them multiples of
/// [`GRANULES_PER_LINE`](GRANULE), so low bits carry almost no entropy and
/// `g % N` table indexing degenerates. Multiplying by `⌊2⁶⁴/φ⌋` spreads
/// those patterns uniformly over the *high* bits; callers take however many
/// top bits they need: `granule_hash(g) >> (64 - BITS)`. The instrumentation
/// runtime uses this for its direct-mapped granule-metadata cache and its
/// taint-presence filter.
#[must_use]
#[inline]
pub fn granule_hash(g: u64) -> u64 {
    g.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Granule indices overlapped by `[off, off+len)`.
#[allow(clippy::reversed_empty_ranges)]
pub(crate) fn granules(off: u64, len: usize) -> std::ops::RangeInclusive<u64> {
    if len == 0 {
        // An empty range; the caller filters these out.
        return 1..=0;
    }
    granule_of(off)..=granule_of(off + len as u64 - 1)
}

/// Shard owning cache line `line`.
pub(crate) fn shard_of_line(line: u64) -> usize {
    (line % N_SHARDS as u64) as usize
}

/// Index of `line` within its owning shard.
pub(crate) fn local_line(line: u64) -> usize {
    (line / N_SHARDS as u64) as usize
}

/// Shard owning global granule `g`.
pub(crate) fn shard_of_granule(g: u64) -> usize {
    shard_of_line(g / GRANULES_PER_LINE)
}

/// Shard-local granule index of global granule `g`.
pub(crate) fn local_granule(g: u64) -> u32 {
    let line = g / GRANULES_PER_LINE;
    (local_line(line) as u64 * GRANULES_PER_LINE + g % GRANULES_PER_LINE) as u32
}

/// Global granule index of shard `s`'s local granule `lg`.
pub(crate) fn global_granule(s: usize, lg: u32) -> u64 {
    let ll = u64::from(lg) / GRANULES_PER_LINE;
    let within = u64::from(lg) % GRANULES_PER_LINE;
    (ll * N_SHARDS as u64 + s as u64) * GRANULES_PER_LINE + within
}

/// Shard-local byte index of global byte offset `off`.
pub(crate) fn local_byte(off: u64) -> usize {
    local_line(off / CACHE_LINE as u64) * CACHE_LINE + (off % CACHE_LINE as u64) as usize
}

/// Number of cache lines shard `s` owns in a pool of `size` bytes.
pub(crate) fn lines_of_shard(s: usize, size: usize) -> usize {
    let total_lines = size.div_ceil(CACHE_LINE);
    (total_lines.saturating_sub(s)).div_ceil(N_SHARDS)
}

/// One shard of the pool image: the interleaved cache lines it owns, stored
/// contiguously, plus direct-indexed granule metadata and the shard's slice
/// of the queued write-backs. Interior piece of [`Pool`](crate::Pool); each
/// shard sits behind its own lock, and all cross-shard coordination lives in
/// the pool.
///
/// The tail line of the pool may be shorter than [`CACHE_LINE`]; its shard
/// still stores a full padded line. Padding bytes can never be written
/// (pool-level bounds checks reject them), so they stay zero and granule
/// captures over the tail read zeros — the same truncation the dense image
/// used to apply.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Cache-visible bytes of the owned lines, concatenated by local line.
    pub(crate) volatile: Vec<u8>,
    /// Persistent bytes of the owned lines.
    pub(crate) persistent: Vec<u8>,
    /// Per-granule metadata, direct-indexed by local granule. `seq == 0`
    /// means "never written" (real sequence numbers start at 1).
    pub(crate) meta: Vec<GranuleMeta>,
    /// Write-backs queued by `clwb`: `(local granule, issuing thread,
    /// captured bytes)`, applied at that thread's `sfence`. At most one
    /// entry per granule.
    pub(crate) pending: Vec<(u32, ThreadId, [u8; GRANULE])>,
    /// Local granules that *may* be unpersisted: a superset maintained
    /// lazily. Push is O(1) on the store path; entries whose granule went
    /// back to `Clean` are swept out by [`Shard::compact_dirty`] on the cold
    /// paths that consume the list.
    pub(crate) dirty: Vec<u32>,
    /// Membership flags for `dirty` (no duplicate entries).
    dirty_flag: Vec<bool>,
    /// Reset epoch: bumped at every pool reset. Granules stamped with the
    /// current epoch are exactly those whose metadata changed since the
    /// last reset, plus the overlay granules the reset patched over its
    /// base — the O(dirty) working set that a delta reset copies back and
    /// copy-on-write crash images overlay.
    epoch: u32,
    /// Per-granule epoch stamp (`0` = never stamped).
    epoch_stamp: Vec<u32>,
    /// Local granules stamped with the current epoch, in stamp order.
    pub(crate) epoch_list: Vec<u32>,
}

impl Shard {
    pub(crate) fn new(lines: usize) -> Self {
        Shard {
            volatile: vec![0; lines * CACHE_LINE],
            persistent: vec![0; lines * CACHE_LINE],
            meta: vec![GranuleMeta::default(); lines * GRANULES_PER_LINE as usize],
            pending: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: vec![false; lines * GRANULES_PER_LINE as usize],
            epoch: 1,
            epoch_stamp: vec![0; lines * GRANULES_PER_LINE as usize],
            epoch_list: Vec::new(),
        }
    }

    /// Overwrite granule metadata, keeping the dirty and epoch lists
    /// consistent.
    pub(crate) fn set_meta(&mut self, lg: u32, m: GranuleMeta) {
        let i = lg as usize;
        self.stamp_epoch(lg);
        self.meta[i] = m;
        if m.state.is_unpersisted() && !self.dirty_flag[i] {
            self.dirty_flag[i] = true;
            self.dirty.push(lg);
        }
    }

    /// Stamp `lg` into the current epoch without touching its metadata
    /// (a crash-image reset patching the granule over the pool's base).
    pub(crate) fn stamp_epoch(&mut self, lg: u32) {
        let i = lg as usize;
        if self.epoch_stamp[i] != self.epoch {
            self.epoch_stamp[i] = self.epoch;
            self.epoch_list.push(lg);
        }
    }

    /// Drop dirty-list entries whose granule is `Clean` again.
    pub(crate) fn compact_dirty(&mut self) {
        let meta = &self.meta;
        let flags = &mut self.dirty_flag;
        self.dirty.retain(|&lg| {
            if meta[lg as usize].state.is_unpersisted() {
                true
            } else {
                flags[lg as usize] = false;
                false
            }
        });
    }

    /// Reset path: return the granules stamped in the current epoch to
    /// default metadata (off the epoch list it is default already), forget
    /// the dirty list and queued write-backs, and start a new, empty epoch.
    pub(crate) fn clear_tracking(&mut self) {
        for &lg in &self.epoch_list {
            self.meta[lg as usize] = GranuleMeta::default();
        }
        self.epoch_list.clear();
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            // ~4 billion resets: recycle stamps rather than alias epoch 0
            // ("never stamped") with a live epoch.
            self.epoch_stamp.fill(0);
            1
        });
        for &lg in &self.dirty {
            self.dirty_flag[lg as usize] = false;
        }
        self.dirty.clear();
        self.pending.clear();
    }

    /// Capture the current volatile content of local granule `lg`.
    pub(crate) fn capture(&self, lg: u32) -> [u8; GRANULE] {
        let start = lg as usize * GRANULE;
        let mut out = [0u8; GRANULE];
        out.copy_from_slice(&self.volatile[start..start + GRANULE]);
        out
    }

    /// Apply one queued write-back to the persistent image.
    pub(crate) fn apply(&mut self, lg: u32, bytes: [u8; GRANULE]) {
        let start = lg as usize * GRANULE;
        self.persistent[start..start + GRANULE].copy_from_slice(&bytes);
    }

    /// Position of granule `lg` in the pending queue, if queued.
    pub(crate) fn pending_pos(&self, lg: u32) -> Option<usize> {
        self.pending.iter().position(|&(g, _, _)| g == lg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granule_math() {
        assert_eq!(granule_of(0), 0);
        assert_eq!(granule_of(7), 0);
        assert_eq!(granule_of(8), 1);
        let r = granules(6, 4); // bytes 6..10 span granules 0 and 1
        assert_eq!(r, 0..=1);
        let r = granules(8, 8);
        assert_eq!(r, 1..=1);
        assert!(granules(16, 0).is_empty());
    }

    #[test]
    fn persist_state_default_is_clean() {
        assert_eq!(PersistState::default(), PersistState::Clean);
        assert!(!PersistState::Clean.is_unpersisted());
        assert!(PersistState::Dirty.is_unpersisted());
        assert!(PersistState::Flushing.is_unpersisted());
    }

    #[test]
    fn shard_geometry_roundtrips() {
        // Adjacent lines are owned by different shards.
        assert_ne!(shard_of_line(0), shard_of_line(1));
        assert_eq!(shard_of_line(0), shard_of_line(N_SHARDS as u64));
        // Granule <-> (shard, local granule) is a bijection.
        for g in (0..20_000u64).chain([1 << 30, (1 << 30) + 511]) {
            let s = shard_of_granule(g);
            let lg = local_granule(g);
            assert_eq!(global_granule(s, lg), g, "granule {g}");
        }
        // Bytes of one line are contiguous in their shard.
        let line = 65u64; // shard 1, local line 1
        let base = line * CACHE_LINE as u64;
        assert_eq!(local_byte(base), CACHE_LINE);
        assert_eq!(local_byte(base + 63), 2 * CACHE_LINE - 1);
    }

    #[test]
    fn lines_are_distributed_evenly() {
        // 65 lines: shard 0 owns lines 0 and 64, everyone else one line.
        let size = 65 * CACHE_LINE;
        assert_eq!(lines_of_shard(0, size), 2);
        for s in 1..N_SHARDS {
            assert_eq!(lines_of_shard(s, size), 1);
        }
        let total: usize = (0..N_SHARDS).map(|s| lines_of_shard(s, size)).sum();
        assert_eq!(total, 65);
        // A pool smaller than one line still gets one (padded) line.
        assert_eq!(lines_of_shard(0, 12), 1);
        assert_eq!(lines_of_shard(1, 12), 0);
    }

    #[test]
    fn capture_and_apply_roundtrip() {
        let mut shard = Shard::new(1);
        shard.volatile[8..16].copy_from_slice(&7u64.to_le_bytes());
        let cap = shard.capture(1);
        assert_eq!(u64::from_le_bytes(cap), 7);
        shard.apply(1, cap);
        assert_eq!(&shard.persistent[8..16], &7u64.to_le_bytes());
    }

    #[test]
    fn dirty_list_is_lazy_superset() {
        let mut shard = Shard::new(1);
        let dirty = GranuleMeta {
            state: PersistState::Dirty,
            seq: 1,
            ..GranuleMeta::default()
        };
        shard.set_meta(3, dirty);
        shard.set_meta(3, dirty); // no duplicate entry
        assert_eq!(shard.dirty, vec![3]);
        shard.set_meta(
            3,
            GranuleMeta {
                state: PersistState::Clean,
                seq: 2,
                ..GranuleMeta::default()
            },
        );
        assert_eq!(shard.dirty, vec![3], "stale entry until compaction");
        shard.compact_dirty();
        assert!(shard.dirty.is_empty());
        // Re-dirtying after compaction re-registers the granule.
        shard.set_meta(3, GranuleMeta { seq: 3, ..dirty });
        assert_eq!(shard.dirty, vec![3]);
    }

    #[test]
    fn epoch_list_tracks_writes_since_last_restore() {
        let mut shard = Shard::new(1);
        let m = GranuleMeta {
            state: PersistState::Dirty,
            seq: 1,
            ..GranuleMeta::default()
        };
        shard.set_meta(2, m);
        shard.set_meta(2, m); // no duplicate entry
        shard.set_meta(5, m);
        assert_eq!(shard.epoch_list, vec![2, 5]);
        shard.clear_tracking();
        assert!(shard.epoch_list.is_empty(), "a reset closes the epoch");
        assert!(shard.dirty.is_empty() && shard.meta.iter().all(|m| *m == GranuleMeta::default()));
        shard.set_meta(2, m);
        assert_eq!(shard.epoch_list, vec![2], "re-stamped under the new epoch");
    }
}
