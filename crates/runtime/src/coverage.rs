//! Coverage metrics: PM alias-pair coverage (§4.2.1) and branch coverage.
//!
//! A *PM alias pair* is two back-to-back accesses to the same PM address by
//! different threads, identified by `(instruction, persistency-state)` of
//! both sides. New pairs indicate unexplored PM-relevant interleavings and
//! are the fuzzer's primary feedback signal; conventional branch coverage is
//! the secondary signal (§4.2.3).
//!
//! The map is fully lock-free: bitmap bits are set with `AtomicU64::fetch_or`
//! and counted with atomic counters, and the per-address last-access table is
//! a direct-mapped array of packed `AtomicU64` slots updated with a single
//! `swap`, so every method takes `&self` and target threads never serialize
//! on a coverage lock (the paper keeps its bitmap in shared memory for the
//! same reason). Direct mapping trades exactness for speed: two granules that
//! collide on a slot evict each other's last access (losing, never
//! fabricating, an alias pair) — with `LAST_SLOTS` slots indexed by the low
//! granule bits, granules of pools up to `LAST_SLOTS * 8` bytes never
//! collide at all, and the slot's tag bits keep colliding granules apart.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pmrace_pmem::ThreadId;

use crate::Site;

/// Number of bits in each coverage bitmap (the paper keeps the bitmap in
/// shared memory; 64 Ki entries matches AFL-style maps).
pub const MAP_BITS: usize = 1 << 16;

/// log2 of the last-access slot count.
const LAST_SLOT_BITS: u32 = 15;
/// Slots in the direct-mapped last-access table.
const LAST_SLOTS: usize = 1 << LAST_SLOT_BITS;
/// Marker bit distinguishing an occupied slot from the zeroed initial state.
const LAST_PRESENT: u64 = 1 << 63;

/// Whether an access observed persisted or unpersisted data — the
/// persistency component `P` of the paper's access tuple `(I, P, T)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persistency {
    /// All bytes clean.
    Persisted,
    /// Some byte dirty or queued.
    Unpersisted,
}

/// One CPU cache line of last-access slots. Adjacent granules map to
/// adjacent slots, so one `LastLine` covers exactly one PM cache line
/// (8 granules); the 64-byte alignment pins each block to its own CPU
/// cache line, so threads working disjoint PM lines never false-share a
/// coverage line (an unaligned `Box<[AtomicU64]>` lets blocks straddle
/// two CPU lines, coupling neighbouring PM lines under contention).
#[repr(align(64))]
#[derive(Debug, Default)]
struct LastLine([AtomicU64; 8]);

/// Packs one last-access record into a slot word:
/// `[63] present | [62:47] granule tag | [46:17] site | [16:1] tid |
/// [0] persistency`. The tag is the granule bits above the slot index, so a
/// `(slot, tag)` pair identifies the granule exactly for any pool below
/// 16 GiB.
fn pack_last(granule: u64, site: Site, tid: ThreadId, persistency: Persistency) -> u64 {
    LAST_PRESENT
        | (((granule >> LAST_SLOT_BITS) & 0xFFFF) << 47)
        | ((u64::from(site.id()) & 0x3FFF_FFFF) << 17)
        | ((u64::from(tid.0) & 0xFFFF) << 1)
        | (persistency as u64)
}

/// Words in each coverage bitmap.
const MAP_WORDS: usize = MAP_BITS / 64;
/// Cache lines of last-access slots.
const LAST_LINES: usize = LAST_SLOTS / 8;

/// Per-campaign (and, merged, global) coverage state.
///
/// Bitmaps are stored as `AtomicU64` *words*, not bytes: `merge_from` — run
/// once per campaign by every fleet worker — walks 1 Ki words per map
/// instead of 8 Ki bytes, and `new`/`clone` touch an eighth of the
/// allocations. `set_bit` is the same single `fetch_or` either way.
///
/// Each bitmap and the last-access table carry a one-bit-per-word (per
/// line) summary of what was ever written, so [`CoverageMap::merge_from`]
/// and [`CoverageMap::clear`] visit only touched words: a campaign sets a
/// few hundred bits of 128 Ki and records a few thousand of 32 Ki
/// last-access slots, and an exec thread's recycled session clears its
/// map after every campaign.
#[derive(Debug)]
pub struct CoverageMap {
    alias: Box<[AtomicU64]>,
    branch: Box<[AtomicU64]>,
    alias_count: AtomicUsize,
    branch_count: AtomicUsize,
    last: Box<[LastLine]>,
    alias_words: [AtomicU64; MAP_WORDS / 64],
    branch_words: [AtomicU64; MAP_WORDS / 64],
    last_lines: [AtomicU64; LAST_LINES / 64],
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

/// Set bit `idx` of a summary, reading first so the common re-mark costs
/// no exclusive cache line.
fn mark(summary: &[AtomicU64], idx: usize) {
    let (w, m) = (idx / 64, 1u64 << (idx % 64));
    if summary[w].load(Ordering::Relaxed) & m == 0 {
        summary[w].fetch_or(m, Ordering::Relaxed);
    }
}

/// Indices of the set bits of `summary`.
fn marked(summary: &[AtomicU64]) -> impl Iterator<Item = usize> + '_ {
    summary.iter().enumerate().flat_map(|(w, word)| {
        let mut bits = word.load(Ordering::Relaxed);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

fn copy_words<const N: usize>(src: &[AtomicU64; N]) -> [AtomicU64; N] {
    std::array::from_fn(|i| AtomicU64::new(src[i].load(Ordering::Relaxed)))
}

impl Clone for CoverageMap {
    fn clone(&self) -> Self {
        let copy_bits = |src: &[AtomicU64]| -> Box<[AtomicU64]> {
            src.iter()
                .map(|b| AtomicU64::new(b.load(Ordering::Relaxed)))
                .collect()
        };
        CoverageMap {
            alias: copy_bits(&self.alias),
            branch: copy_bits(&self.branch),
            alias_count: AtomicUsize::new(self.alias_count.load(Ordering::Relaxed)),
            branch_count: AtomicUsize::new(self.branch_count.load(Ordering::Relaxed)),
            last: self
                .last
                .iter()
                .map(|line| {
                    LastLine(std::array::from_fn(|i| {
                        AtomicU64::new(line.0[i].load(Ordering::Relaxed))
                    }))
                })
                .collect(),
            alias_words: copy_words(&self.alias_words),
            branch_words: copy_words(&self.branch_words),
            last_lines: copy_words(&self.last_lines),
        }
    }
}

impl CoverageMap {
    /// Fresh, empty coverage state.
    #[must_use]
    pub fn new() -> Self {
        let zeroed = || -> Box<[AtomicU64]> { (0..MAP_WORDS).map(|_| AtomicU64::new(0)).collect() };
        CoverageMap {
            alias: zeroed(),
            branch: zeroed(),
            alias_count: AtomicUsize::new(0),
            branch_count: AtomicUsize::new(0),
            last: (0..LAST_LINES).map(|_| LastLine::default()).collect(),
            alias_words: [const { AtomicU64::new(0) }; MAP_WORDS / 64],
            branch_words: [const { AtomicU64::new(0) }; MAP_WORDS / 64],
            last_lines: [const { AtomicU64::new(0) }; LAST_LINES / 64],
        }
    }

    /// Reset to the empty state in place, touching only the words and
    /// last-access lines written since the last clear.
    pub fn clear(&mut self) {
        for (map, words) in [
            (&self.alias, &mut self.alias_words),
            (&self.branch, &mut self.branch_words),
        ] {
            for i in marked(words) {
                map[i].store(0, Ordering::Relaxed);
            }
            words.iter_mut().for_each(|w| *w.get_mut() = 0);
        }
        *self.alias_count.get_mut() = 0;
        *self.branch_count.get_mut() = 0;
        self.reset_last_access();
    }

    fn mix(a: u32, b: u32, c: u32, d: u32) -> usize {
        let mut h = 0x9e37_79b9u64;
        for v in [a, b, c, d] {
            h ^= u64::from(v).wrapping_add(0x9e37_79b9).wrapping_add(h << 6) ^ (h >> 2);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h as usize) % MAP_BITS
    }

    /// Atomically set bit `idx`; `true` when it was previously clear. The
    /// word is marked in `words` first, so any reader that finds the bit
    /// through the summary finds the summary bit too.
    fn set_bit(map: &[AtomicU64], words: &[AtomicU64], idx: usize) -> bool {
        let (word, bit) = (idx / 64, idx % 64);
        let mask = 1u64 << bit;
        // Read first: a hit on an already-set bit (every repeat branch)
        // takes no exclusive cache line.
        if map[word].load(Ordering::Relaxed) & mask != 0 {
            return false;
        }
        mark(words, word);
        map[word].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Record a PM access to `granule`; returns `true` when it completes a
    /// *new* PM alias pair (same address, different thread than the previous
    /// access, pair shape unseen so far).
    pub fn record_access(
        &self,
        granule: u64,
        site: Site,
        tid: ThreadId,
        persistency: Persistency,
    ) -> bool {
        let slot = (granule & (LAST_SLOTS as u64 - 1)) as usize;
        let packed = pack_last(granule, site, tid, persistency);
        let prev = self.last[slot >> 3].0[slot & 7].swap(packed, Ordering::Relaxed);
        if prev & LAST_PRESENT == 0 {
            // The slot's first record since the last clear: its line needs
            // clearing next time (a later record finds it marked already).
            mark(&self.last_lines, slot >> 3);
            return false;
        }
        if (prev ^ packed) >> 47 != 0 {
            // A colliding granule got evicted: no pair.
            return false;
        }
        if (prev >> 1) & 0xFFFF == (packed >> 1) & 0xFFFF {
            return false; // same thread twice: not an alias pair
        }
        let idx = Self::mix(
            ((prev >> 17) & 0x3FFF_FFFF) as u32,
            (prev & 1) as u32,
            site.id() & 0x3FFF_FFFF,
            persistency as u32,
        );
        let new = Self::set_bit(&self.alias, &self.alias_words, idx);
        if new {
            self.alias_count.fetch_add(1, Ordering::Relaxed);
        }
        new
    }

    /// Record a branch/basic-block execution; returns `true` when new.
    pub fn record_branch(&self, site: Site) -> bool {
        let idx = Self::mix(site.id(), 0, 0, 1);
        let new = Self::set_bit(&self.branch, &self.branch_words, idx);
        if new {
            self.branch_count.fetch_add(1, Ordering::Relaxed);
        }
        new
    }

    /// Number of distinct PM alias pairs observed.
    #[must_use]
    pub fn alias_pairs(&self) -> usize {
        self.alias_count.load(Ordering::Relaxed)
    }

    /// Both coverage counters `(alias_pairs, branches)` in one call — the
    /// read side of the fleet's shared frontier. Each counter is a single
    /// relaxed atomic load, so concurrent fuzzing workers sample the global
    /// frontier without any lock (the pair is not a consistent cut across
    /// both counters, which a level gauge does not need).
    #[must_use]
    pub fn counts(&self) -> (usize, usize) {
        (
            self.alias_count.load(Ordering::Relaxed),
            self.branch_count.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct branches observed.
    #[must_use]
    pub fn branches(&self) -> usize {
        self.branch_count.load(Ordering::Relaxed)
    }

    /// Merge another map into this one (fuzzer's global accumulation).
    /// Returns `(new_alias_bits, new_branch_bits)` contributed by `other`.
    ///
    /// Wait-free: bitmap bytes are OR-ed in with `fetch_or` and the
    /// counters bumped atomically, so a fleet of fuzzing workers can use
    /// one `CoverageMap` as their shared coverage frontier and merge
    /// per-campaign maps concurrently — each worker's return value counts
    /// exactly the bits *it* contributed first, never double-counting a
    /// bit that raced in from a sibling worker.
    pub fn merge_from(&self, other: &CoverageMap) -> (usize, usize) {
        let or_in = |dst: &[AtomicU64],
                     dst_words: &[AtomicU64],
                     src: &[AtomicU64],
                     src_words: &[AtomicU64]|
         -> usize {
            let mut new = 0usize;
            for i in marked(src_words) {
                let bits = src[i].load(Ordering::Relaxed);
                if bits != 0 {
                    mark(dst_words, i);
                    let old = dst[i].fetch_or(bits, Ordering::Relaxed);
                    new += (bits & !old).count_ones() as usize;
                }
            }
            new
        };
        let new_alias = or_in(
            &self.alias,
            &self.alias_words,
            &other.alias,
            &other.alias_words,
        );
        let new_branch = or_in(
            &self.branch,
            &self.branch_words,
            &other.branch,
            &other.branch_words,
        );
        self.alias_count.fetch_add(new_alias, Ordering::Relaxed);
        self.branch_count.fetch_add(new_branch, Ordering::Relaxed);
        (new_alias, new_branch)
    }

    /// Forget per-address last-access state (campaign boundary) while
    /// keeping accumulated bitmaps.
    pub fn reset_last_access(&self) {
        for line in marked(&self.last_lines) {
            for slot in &self.last[line].0 {
                slot.store(0, Ordering::Relaxed);
            }
        }
        for w in &self.last_lines {
            w.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn same_thread_back_to_back_is_not_a_pair() {
        let cov = CoverageMap::new();
        let s = site!("a");
        assert!(!cov.record_access(1, s, T0, Persistency::Persisted));
        assert!(!cov.record_access(1, s, T0, Persistency::Persisted));
        assert_eq!(cov.alias_pairs(), 0);
    }

    #[test]
    fn cross_thread_pair_counts_once() {
        let cov = CoverageMap::new();
        let (w, r) = (site!("w"), site!("r"));
        assert!(!cov.record_access(1, w, T0, Persistency::Unpersisted));
        assert!(cov.record_access(1, r, T1, Persistency::Unpersisted));
        assert_eq!(cov.alias_pairs(), 1);
        // Alternating again: the reverse pair (r -> w) is new once, then
        // both shapes are saturated.
        assert!(cov.record_access(1, w, T0, Persistency::Unpersisted));
        assert!(!cov.record_access(1, r, T1, Persistency::Unpersisted));
        assert!(!cov.record_access(1, w, T0, Persistency::Unpersisted));
        assert_eq!(cov.alias_pairs(), 2);
    }

    #[test]
    fn persistency_state_distinguishes_pairs() {
        let cov = CoverageMap::new();
        let (w, r) = (site!("w2"), site!("r2"));
        cov.record_access(1, w, T0, Persistency::Unpersisted);
        assert!(cov.record_access(1, r, T1, Persistency::Unpersisted)); // (w,U)->(r,U)
        cov.record_access(1, w, T0, Persistency::Persisted); // (r,U)->(w,P)
        assert!(
            cov.record_access(1, r, T1, Persistency::Persisted), // (w,P)->(r,P)
            "same instructions, different persistency: new pair"
        );
        assert_eq!(cov.alias_pairs(), 3);
    }

    #[test]
    fn different_addresses_are_independent() {
        let cov = CoverageMap::new();
        let (w, r) = (site!("w3"), site!("r3"));
        cov.record_access(1, w, T0, Persistency::Unpersisted);
        cov.record_access(2, r, T1, Persistency::Unpersisted); // first access to granule 2
        assert_eq!(cov.alias_pairs(), 0);
    }

    #[test]
    fn branch_coverage_counts_distinct_sites() {
        let cov = CoverageMap::new();
        let (a, b) = (site!("bb1"), site!("bb2"));
        assert!(cov.record_branch(a));
        assert!(!cov.record_branch(a));
        assert!(cov.record_branch(b));
        assert_eq!(cov.branches(), 2);
    }

    #[test]
    fn merge_reports_only_new_bits() {
        let global = CoverageMap::new();
        let s1 = CoverageMap::new();
        let (w, r) = (site!("w4"), site!("r4"));
        s1.record_access(1, w, T0, Persistency::Unpersisted);
        s1.record_access(1, r, T1, Persistency::Unpersisted);
        s1.record_branch(w);
        let (na, nb) = global.merge_from(&s1);
        assert_eq!((na, nb), (1, 1));
        let (na, nb) = global.merge_from(&s1);
        assert_eq!((na, nb), (0, 0));
        assert_eq!(global.alias_pairs(), 1);
        assert_eq!(global.branches(), 1);
    }

    #[test]
    fn concurrent_merges_into_a_shared_frontier_count_each_bit_once() {
        // Fleet contract: N workers merging overlapping campaign maps into
        // one frontier must attribute every new bit to exactly one worker.
        let frontier = CoverageMap::new();
        let local = CoverageMap::new();
        for g in 0..64u64 {
            let (w, r) = (site!("fw"), site!("fr"));
            local.record_access(g, w, T0, Persistency::Unpersisted);
            local.record_access(g, r, T1, Persistency::Unpersisted);
            local.record_branch(if g % 2 == 0 { w } else { r });
        }
        let expect = (local.alias_pairs(), local.branches());
        let totals: Vec<(usize, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (f, l) = (&frontier, &local);
                    scope.spawn(move || f.merge_from(l))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let sum = totals
            .iter()
            .fold((0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1));
        assert_eq!(sum, expect, "bits attributed more or less than once");
        assert_eq!(frontier.counts(), expect);
    }

    #[test]
    fn reset_last_access_keeps_bitmaps() {
        let cov = CoverageMap::new();
        let (w, r) = (site!("w5"), site!("r5"));
        cov.record_access(1, w, T0, Persistency::Unpersisted);
        cov.record_access(1, r, T1, Persistency::Unpersisted);
        cov.reset_last_access();
        assert_eq!(cov.alias_pairs(), 1);
        // After reset, the first access is "first touch" again.
        assert!(!cov.record_access(1, r, T1, Persistency::Unpersisted));
    }

    #[test]
    fn clone_snapshots_counters_and_bits() {
        let cov = CoverageMap::new();
        let (w, r) = (site!("w6"), site!("r6"));
        cov.record_access(1, w, T0, Persistency::Unpersisted);
        cov.record_access(1, r, T1, Persistency::Unpersisted);
        cov.record_branch(w);
        let copy = cov.clone();
        assert_eq!(copy.alias_pairs(), 1);
        assert_eq!(copy.branches(), 1);
        // The copy carries the last-access state (r by T1 was last): a
        // cross-thread follow-up completes a fresh pair shape on the copy...
        assert!(copy.record_access(1, w, T0, Persistency::Persisted));
        // ...without affecting the original.
        assert_eq!(cov.alias_pairs(), 1);
    }

    #[test]
    fn concurrent_recording_counts_each_pair_once() {
        let cov = CoverageMap::new();
        let (w, r) = (site!("cw"), site!("cr"));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cov = &cov;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        let g = 100 + (i % 16);
                        let site = if t % 2 == 0 { w } else { r };
                        let p = if i % 2 == 0 {
                            Persistency::Persisted
                        } else {
                            Persistency::Unpersisted
                        };
                        cov.record_access(g, site, ThreadId(t), p);
                        cov.record_branch(site);
                    }
                });
            }
        });
        // At most |sites|^2 * |persistency|^2 = 16 alias shapes exist.
        assert!(cov.alias_pairs() <= 16, "got {}", cov.alias_pairs());
        assert_eq!(cov.branches(), 2);
    }
}
