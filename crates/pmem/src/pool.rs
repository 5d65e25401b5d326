//! The [`Pool`]: a software PM device with volatile-cache semantics.
//!
//! # Locking
//!
//! The image is split into [`N_SHARDS`] address-interleaved shards (see
//! [`crate::image`]), each behind its own mutex. Accesses touching a single
//! cache line — the common case for the word-sized PM stores the evaluated
//! systems issue — take exactly one shard lock; ranges spanning lines lock
//! the involved shards in ascending index order, and whole-image operations
//! (crash images, snapshot/restore, dirty-set walks) lock *all* shards in
//! ascending order, which makes them linearization points against every
//! concurrent access. The single ascending order makes the scheme
//! deadlock-free.
//!
//! The store sequence counter is a pool-wide atomic bumped while holding the
//! destination shard lock(s), so a whole-image reader (holding every lock)
//! always observes a counter consistent with the metadata it reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use pmrace_telemetry as telemetry;
use rand::Rng;

use crate::image::{
    global_granule, granule_of, granules, lines_of_shard, local_byte, local_granule,
    shard_of_granule, shard_of_line, Shard, GRANULE, GRANULES_PER_LINE, N_SHARDS,
};
use crate::snapshot::{BaseImage, CrashImage, PoolSnapshot};
use crate::{GranuleMeta, PersistState, PmemError, SiteTag, ThreadId, CACHE_LINE};

/// Shared base plus offset-sorted granule overlay — the raw material of a
/// copy-on-write [`CrashImage`] capture.
type CowCapture = (Arc<BaseImage>, Vec<(u64, [u8; GRANULE])>);

/// Worse of two persistency states: `Dirty` dominates, then `Flushing`.
fn worst_state(a: PersistState, b: PersistState) -> PersistState {
    match (a, b) {
        (PersistState::Dirty, _) | (_, PersistState::Dirty) => PersistState::Dirty,
        (PersistState::Flushing, _) | (_, PersistState::Flushing) => PersistState::Flushing,
        _ => PersistState::Clean,
    }
}

/// How much work opening/initializing the pool performs.
///
/// Models the difference the paper measures in Fig. 10: `libpmemobj` pool
/// initialization is expensive (metadata formatting, allocator bootstrap),
/// while `pmem_map_file` from `libpmem` is a thin `mmap` wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitCost {
    /// Thin mapping, near-zero setup (memcached-pmem's `pmem_map_file`).
    #[default]
    Light,
    /// `libpmemobj`-like initialization: several full passes over the pool
    /// (formatting, checksumming, allocator bootstrap).
    Heavy,
}

/// Construction options for a [`Pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolOpts {
    /// Pool size in bytes.
    pub size: usize,
    /// Simulated initialization cost.
    pub init_cost: InitCost,
    /// Model an eADR platform (§6.6): CPU caches are inside the persistent
    /// domain, so every store is immediately durable and flushes are
    /// no-ops. *PM Inter-thread Inconsistency* cannot occur; unreleased
    /// persistent locks (*PM Synchronization Inconsistency*) still can.
    pub eadr: bool,
}

impl PoolOpts {
    /// A 1 MiB pool with light initialization — right for unit tests.
    #[must_use]
    pub fn small() -> Self {
        PoolOpts {
            size: 1 << 20,
            init_cost: InitCost::Light,
            eadr: false,
        }
    }

    /// A pool of `size` bytes with light initialization.
    #[must_use]
    pub fn with_size(size: usize) -> Self {
        PoolOpts {
            size,
            init_cost: InitCost::Light,
            eadr: false,
        }
    }

    /// Switch to `libpmemobj`-like heavy initialization.
    #[must_use]
    pub fn heavy(mut self) -> Self {
        self.init_cost = InitCost::Heavy;
        self
    }

    /// Switch to the eADR failure model (persistent CPU caches).
    ///
    /// ```
    /// use pmrace_pmem::{Pool, PoolOpts, SiteTag, ThreadId};
    ///
    /// let pool = Pool::new(PoolOpts::small().eadr());
    /// pool.store_u64(64, 7, ThreadId(0), SiteTag(0)).unwrap();
    ///
    /// // No clwb/sfence, yet the store is already durable: a crash image
    /// // taken right now keeps it.
    /// assert!(!pool.load_u64(64).unwrap().1.unpersisted);
    /// let img = pool.crash_image().unwrap();
    /// let recovered = Pool::from_crash_image(&img).unwrap();
    /// assert_eq!(recovered.load_u64(64).unwrap().0, 7);
    /// ```
    #[must_use]
    pub fn eadr(mut self) -> Self {
        self.eadr = true;
        self
    }
}

impl Default for PoolOpts {
    fn default() -> Self {
        PoolOpts::small()
    }
}

/// Result of a store: sequencing and whether it overwrote not-yet-persisted
/// data (useful to checkers hunting lost updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreInfo {
    /// Pool-wide sequence number assigned to this store.
    pub seq: u64,
    /// `true` if any overwritten granule was still `Dirty`/`Flushing`.
    pub overwrote_unpersisted: bool,
    /// Worst persistency state over the stored range *before* this store
    /// (`Dirty` dominates, then `Flushing`). Captured under the same shard
    /// lock as the store itself so instrumentation needs no second metadata
    /// pass.
    pub state_before: PersistState,
}

/// Persistency facts about the bytes a load observed.
///
/// For multi-granule loads the `writer`/`tag`/`seq` fields describe the most
/// recent unpersisted store among the overlapped granules (highest `seq`),
/// which is the store a crash would lose first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadInfo {
    /// `true` if any loaded byte came from a store not yet persisted.
    pub unpersisted: bool,
    /// Writer of the most recent unpersisted store (valid iff `unpersisted`).
    pub writer: ThreadId,
    /// Site tag of that store (valid iff `unpersisted`).
    pub tag: SiteTag,
    /// Sequence number of that store (valid iff `unpersisted`).
    pub seq: u64,
    /// Persistency state summarizing the loaded range: `Dirty` dominates
    /// `Flushing` dominates `Clean`.
    pub state: PersistState,
}

impl LoadInfo {
    /// Fold one granule's metadata into the summary.
    fn fold(&mut self, m: &GranuleMeta) {
        if m.state.is_unpersisted() {
            if !self.unpersisted || m.seq > self.seq {
                self.writer = m.writer;
                self.tag = m.tag;
                self.seq = m.seq;
            }
            self.unpersisted = true;
            if m.state == PersistState::Dirty || self.state == PersistState::Clean {
                self.state = if self.state == PersistState::Dirty {
                    PersistState::Dirty
                } else {
                    m.state
                };
            }
        }
    }
}

/// The shard locks covering one access. An access within one shard (a
/// single-line `clwb`, the common case) takes one guard without
/// allocating; a wider one keeps a shard-index → guard-position table for
/// O(1) lookup while walking the lines.
enum LineGuards<'a> {
    One(MutexGuard<'a, Shard>),
    Many {
        guards: Vec<MutexGuard<'a, Shard>>,
        slot: [u8; N_SHARDS],
    },
}

impl LineGuards<'_> {
    fn shard_mut(&mut self, s: usize) -> &mut Shard {
        match self {
            LineGuards::One(guard) => guard,
            LineGuards::Many { guards, slot } => &mut guards[slot[s] as usize],
        }
    }

    fn shard(&self, s: usize) -> &Shard {
        match self {
            LineGuards::One(guard) => guard,
            LineGuards::Many { guards, slot } => &guards[slot[s] as usize],
        }
    }
}

/// A software PM pool: dense byte space, word-granular persistency tracking,
/// crash snapshots.
///
/// All methods take `&self`; the pool is internally synchronized (sharded;
/// see the module docs) and is meant to be shared across target threads via
/// `Arc`. See the [crate docs](crate) for the memory model.
#[derive(Debug)]
pub struct Pool {
    shards: Box<[Mutex<Shard>]>,
    /// Pool-wide store sequence counter; real sequence numbers start at 1.
    seq: AtomicU64,
    /// Bitmask of shards that may hold queued write-backs. Set under the
    /// shard lock when `clwb` queues an entry, cleared under the shard lock
    /// when the queue drains, so `sfence` skips shards with nothing pending.
    /// A thread always observes the bits its own `clwb`s set (same-variable
    /// program order); bits set by other threads may lag, which is harmless
    /// because `sfence` only drains the calling thread's entries.
    pending_shards: AtomicU64,
    size: usize,
    opts: PoolOpts,
    /// The image this pool sits on. Lock order: taken while shard locks
    /// are held (leaf).
    base: Mutex<Base>,
}

/// The shared image a pool sits on. The pool's persistent image differs
/// from it only at granules in the shards' epoch lists (every persistent
/// mutation sets metadata on the same granule under the same shard lock),
/// which is what makes delta resets and copy-on-write crash images
/// O(dirty).
#[derive(Debug)]
struct Base {
    image: Arc<BaseImage>,
    /// `true` when, off the epoch lists, the volatile image equals `image`
    /// too and every granule's metadata is default: a new pool (on the
    /// all-zero image) or one reset to a crash image. `false` after a
    /// snapshot restore, where off the epoch lists the pool equals that
    /// snapshot, whose volatile image and metadata may differ from its
    /// persistent base.
    clean: bool,
}

/// How a [`Pool::restore_delta`] or [`Pool::restore_crash_image`] call
/// was actually performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreMode {
    /// Full image copy: the pool did not sit on the source's base yet, or
    /// the dirty set exceeded the threshold.
    Full,
    /// Only the granules written since the previous restore (plus, for a
    /// crash image, its overlay) were copied.
    Delta {
        /// Number of granules copied.
        granules: usize,
    },
}

fn new_shards(size: usize) -> Box<[Mutex<Shard>]> {
    (0..N_SHARDS)
        .map(|s| Mutex::new(Shard::new(lines_of_shard(s, size))))
        .collect()
}

/// Copy a dense image into the shards' interleaved lines.
fn scatter_into(shards: &mut [&mut Shard], bytes: &[u8], persistent: bool) {
    for (l, chunk) in bytes.chunks(CACHE_LINE).enumerate() {
        let shard = &mut shards[shard_of_line(l as u64)];
        let lb = local_line_byte(l);
        let dst = if persistent {
            &mut shard.persistent
        } else {
            &mut shard.volatile
        };
        dst[lb..lb + chunk.len()].copy_from_slice(chunk);
    }
}

/// Assemble a dense image from the shards' interleaved lines.
fn gather_from(shards: &[&Shard], size: usize, persistent: bool) -> Vec<u8> {
    let mut out = vec![0u8; size];
    for (l, chunk) in out.chunks_mut(CACHE_LINE).enumerate() {
        let shard = shards[shard_of_line(l as u64)];
        let lb = local_line_byte(l);
        let src = if persistent {
            &shard.persistent
        } else {
            &shard.volatile
        };
        chunk.copy_from_slice(&src[lb..lb + chunk.len()]);
    }
    out
}

fn local_line_byte(line: usize) -> usize {
    crate::image::local_line(line as u64) * CACHE_LINE
}

impl Pool {
    /// Create a zeroed pool, paying the configured initialization cost.
    #[must_use]
    pub fn new(opts: PoolOpts) -> Self {
        let pool = Pool {
            shards: new_shards(opts.size),
            seq: AtomicU64::new(0),
            pending_shards: AtomicU64::new(0),
            size: opts.size,
            opts,
            base: Mutex::new(Base {
                image: BaseImage::zeroed(opts.size),
                clean: true,
            }),
        };
        pool.run_init_cost();
        pool
    }

    /// Rebuild a pool from a crash image, as the recovery process would see
    /// it: both images equal the surviving bytes, all granules `Clean`.
    /// A new pool reset with [`Pool::restore_crash_image`].
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidImage`] if the image is empty.
    pub fn from_crash_image(img: &CrashImage) -> Result<Self, PmemError> {
        if img.size() == 0 {
            return Err(PmemError::InvalidImage {
                reason: "empty crash image",
            });
        }
        let pool = Pool::new(PoolOpts::with_size(img.size()));
        pool.restore_crash_image(img)?;
        Ok(pool)
    }

    /// Reset this pool to the recovery-time view of `img`: both images
    /// equal the surviving bytes, every granule is `Clean` with default
    /// metadata, the store counter is 0 and no write-back is queued —
    /// exactly what [`Pool::from_crash_image`] builds, without the
    /// allocation.
    ///
    /// When the pool already sits on `img`'s base with a clean state (a
    /// new pool and `img` captured from a never-restored one, or the
    /// previous reset was to an image on the same base), only the granules
    /// written since plus `img`'s overlay are copied
    /// ([`RestoreMode::Delta`]); otherwise, or past a quarter of the pool,
    /// the base is copied whole and the overlay patched on top
    /// ([`RestoreMode::Full`]). Either way the pool then sits on `img`'s
    /// base, so later captures from it stay copy-on-write.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidImage`] if the image size differs from
    /// this pool's size.
    pub fn restore_crash_image(&self, img: &CrashImage) -> Result<RestoreMode, PmemError> {
        if img.size() != self.size {
            return Err(PmemError::InvalidImage {
                reason: "crash image size mismatch",
            });
        }
        let mut guards = self.lock_all();
        let mut base = self.base.lock();
        let src = img.base().bytes();
        let overlay = img.overlay();
        let dirty: usize = guards.iter().map(|g| g.epoch_list.len()).sum();
        let delta = base.clean
            && base.image.id() == img.base().id()
            && dirty + overlay.len() <= self.size / GRANULE / 4;
        for (s, shard) in guards.iter_mut().enumerate() {
            if delta {
                for lg in std::mem::take(&mut shard.epoch_list) {
                    let off = global_granule(s, lg) as usize * GRANULE;
                    let n = GRANULE.min(self.size - off);
                    let lb = lg as usize * GRANULE;
                    shard.volatile[lb..lb + n].copy_from_slice(&src[off..off + n]);
                    shard.persistent[lb..lb + n].copy_from_slice(&src[off..off + n]);
                    shard.set_meta(lg, GranuleMeta::default());
                }
                shard.pending.clear();
            } else {
                shard.clear_tracking();
            }
            shard.end_epoch();
        }
        if !delta {
            let mut refs: Vec<&mut Shard> = guards.iter_mut().map(|g| &mut **g).collect();
            scatter_into(&mut refs, src, false);
            scatter_into(&mut refs, src, true);
        }
        // The overlay granules differ from the base: patch them into both
        // images and stamp them into the new epoch, so the next reset
        // copies them back and captures overlay them.
        for &(off, chunk) in overlay {
            let g = granule_of(off);
            let shard = &mut guards[shard_of_granule(g)];
            let lg = local_granule(g);
            let n = GRANULE.min(self.size - off as usize);
            let lb = lg as usize * GRANULE;
            shard.volatile[lb..lb + n].copy_from_slice(&chunk[..n]);
            shard.persistent[lb..lb + n].copy_from_slice(&chunk[..n]);
            shard.stamp_epoch(lg);
        }
        self.seq.store(0, Ordering::Relaxed);
        self.pending_shards.store(0, Ordering::Relaxed);
        *base = Base {
            image: Arc::clone(img.base()),
            clean: true,
        };
        Ok(if delta {
            RestoreMode::Delta {
                granules: dirty + overlay.len(),
            }
        } else {
            RestoreMode::Full
        })
    }

    /// Pool size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Options this pool was created with.
    #[must_use]
    pub fn opts(&self) -> PoolOpts {
        self.opts
    }

    /// Total stores sequenced so far (the current value of the pool-wide
    /// store counter).
    #[must_use]
    pub fn store_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    fn bump_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn lock_all(&self) -> Vec<MutexGuard<'_, Shard>> {
        self.shards.iter().map(|m| m.lock()).collect()
    }

    /// Lock the shards owning lines `first..=last`, ascending.
    fn lock_lines(&self, first_line: u64, last_line: u64) -> LineGuards<'_> {
        let mask: u64 = if last_line - first_line + 1 >= N_SHARDS as u64 {
            u64::MAX
        } else {
            let mut m = 0u64;
            for l in first_line..=last_line {
                m |= 1u64 << shard_of_line(l);
            }
            m
        };
        if mask.is_power_of_two() {
            return LineGuards::One(self.shards[mask.trailing_zeros() as usize].lock());
        }
        let mut slot = [0u8; N_SHARDS];
        let mut guards = Vec::with_capacity(mask.count_ones() as usize);
        for (s, shard) in self.shards.iter().enumerate() {
            if mask & (1u64 << s) != 0 {
                slot[s] = guards.len() as u8;
                guards.push(shard.lock());
            }
        }
        LineGuards::Many { guards, slot }
    }

    fn run_init_cost(&self) {
        if self.opts.init_cost == InitCost::Heavy {
            // Simulate libpmemobj pool formatting: several full passes that
            // read, checksum, and rewrite the image. The result is still a
            // zeroed pool; only the cost matters (Fig. 10).
            let mut guards = self.lock_all();
            let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
            for _pass in 0..4 {
                for shard in guards.iter_mut() {
                    for chunk in shard.volatile.chunks(8) {
                        let mut w = [0u8; 8];
                        w[..chunk.len()].copy_from_slice(chunk);
                        acc = (acc ^ u64::from_le_bytes(w)).wrapping_mul(0x1000_0000_01b3);
                    }
                    for b in shard.persistent.iter_mut() {
                        *b = (acc as u8).wrapping_add(*b);
                        *b = 0;
                    }
                }
            }
            std::hint::black_box(acc);
        }
    }

    fn check(&self, off: u64, len: usize) -> Result<(), PmemError> {
        let end = off.checked_add(len as u64);
        match end {
            Some(end) if end <= self.size as u64 => Ok(()),
            _ => Err(PmemError::OutOfBounds {
                off,
                len,
                pool_size: self.size,
            }),
        }
    }

    /// Shared body of `store`/`ntstore`. `persist_now` updates the
    /// persistent image too and leaves granules `Clean` (non-temporal and
    /// eADR stores).
    fn store_impl(
        &self,
        off: u64,
        bytes: &[u8],
        tid: ThreadId,
        tag: SiteTag,
        persist_now: bool,
    ) -> Result<StoreInfo, PmemError> {
        self.check(off, bytes.len())?;
        if bytes.is_empty() {
            return Ok(StoreInfo {
                seq: self.bump_seq(),
                overwrote_unpersisted: false,
                state_before: PersistState::Clean,
            });
        }
        let line = CACHE_LINE as u64;
        let first_line = off / line;
        let last_line = (off + bytes.len() as u64 - 1) / line;
        let state = if persist_now {
            PersistState::Clean
        } else {
            PersistState::Dirty
        };
        if first_line == last_line {
            // Fast path: one shard lock, no allocation.
            let s = shard_of_line(first_line);
            let mut shard = self.shards[s].lock();
            let seq = self.bump_seq();
            let (overwrote, state_before) =
                Self::store_segment(&mut shard, off, bytes, tid, tag, seq, state, persist_now);
            if persist_now && shard.pending.is_empty() {
                self.pending_shards
                    .fetch_and(!(1u64 << s), Ordering::Relaxed);
            }
            return Ok(StoreInfo {
                seq,
                overwrote_unpersisted: overwrote,
                state_before,
            });
        }
        let mut guards = self.lock_lines(first_line, last_line);
        let seq = self.bump_seq();
        let mut overwrote = false;
        let mut state_before = PersistState::Clean;
        for l in first_line..=last_line {
            let s = shard_of_line(l);
            let seg_start = off.max(l * line);
            let seg_end = (off + bytes.len() as u64).min((l + 1) * line);
            let seg = &bytes[(seg_start - off) as usize..(seg_end - off) as usize];
            let shard = guards.shard_mut(s);
            let (seg_overwrote, seg_state) =
                Self::store_segment(shard, seg_start, seg, tid, tag, seq, state, persist_now);
            overwrote |= seg_overwrote;
            state_before = worst_state(state_before, seg_state);
            if persist_now && shard.pending.is_empty() {
                self.pending_shards
                    .fetch_and(!(1u64 << s), Ordering::Relaxed);
            }
        }
        Ok(StoreInfo {
            seq,
            overwrote_unpersisted: overwrote,
            state_before,
        })
    }

    /// Write one single-line segment into its shard. Returns whether any
    /// overwritten granule was unpersisted and the worst prior state.
    #[allow(clippy::too_many_arguments)]
    fn store_segment(
        shard: &mut Shard,
        off: u64,
        bytes: &[u8],
        tid: ThreadId,
        tag: SiteTag,
        seq: u64,
        state: PersistState,
        persist_now: bool,
    ) -> (bool, PersistState) {
        let lb = local_byte(off);
        shard.volatile[lb..lb + bytes.len()].copy_from_slice(bytes);
        if persist_now {
            shard.persistent[lb..lb + bytes.len()].copy_from_slice(bytes);
        }
        let mut overwrote = false;
        let mut state_before = PersistState::Clean;
        for g in granules(off, bytes.len()) {
            let lg = local_granule(g);
            let prev = shard.meta[lg as usize].state;
            overwrote |= prev.is_unpersisted();
            state_before = worst_state(state_before, prev);
            if persist_now {
                if let Some(p) = shard.pending_pos(lg) {
                    shard.pending.swap_remove(p);
                }
            }
            shard.set_meta(
                lg,
                GranuleMeta {
                    state,
                    writer: tid,
                    tag,
                    seq,
                },
            );
        }
        (overwrote, state_before)
    }

    /// Regular (cached) store: updates the volatile image and marks granules
    /// `Dirty` with this writer.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] for accesses past the pool end.
    pub fn store(
        &self,
        off: u64,
        bytes: &[u8],
        tid: ThreadId,
        tag: SiteTag,
    ) -> Result<StoreInfo, PmemError> {
        // eADR: persistent caches, every store is immediately durable.
        self.store_impl(off, bytes, tid, tag, self.opts.eadr)
    }

    /// Non-temporal store: bypasses the cache, updating both images and
    /// leaving the granules `Clean` (the paper's `movnt64` treatment).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] for accesses past the pool end.
    pub fn ntstore(
        &self,
        off: u64,
        bytes: &[u8],
        tid: ThreadId,
        tag: SiteTag,
    ) -> Result<StoreInfo, PmemError> {
        self.store_impl(off, bytes, tid, tag, true)
    }

    /// Load `buf.len()` bytes from the volatile image, reporting persistency
    /// facts about what was read.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] for accesses past the pool end.
    pub fn load(&self, off: u64, buf: &mut [u8]) -> Result<LoadInfo, PmemError> {
        self.check(off, buf.len())?;
        if buf.is_empty() {
            return Ok(LoadInfo::default());
        }
        let line = CACHE_LINE as u64;
        let first_line = off / line;
        let last_line = (off + buf.len() as u64 - 1) / line;
        let mut info = LoadInfo::default();
        if first_line == last_line {
            let shard = self.shards[shard_of_line(first_line)].lock();
            let lb = local_byte(off);
            buf.copy_from_slice(&shard.volatile[lb..lb + buf.len()]);
            for g in granules(off, buf.len()) {
                info.fold(&shard.meta[local_granule(g) as usize]);
            }
            return Ok(info);
        }
        let guards = self.lock_lines(first_line, last_line);
        for l in first_line..=last_line {
            let seg_start = off.max(l * line);
            let seg_end = (off + buf.len() as u64).min((l + 1) * line);
            let shard = guards.shard(shard_of_line(l));
            let lb = local_byte(seg_start);
            let seg_len = (seg_end - seg_start) as usize;
            buf[(seg_start - off) as usize..(seg_end - off) as usize]
                .copy_from_slice(&shard.volatile[lb..lb + seg_len]);
            for g in granules(seg_start, seg_len) {
                info.fold(&shard.meta[local_granule(g) as usize]);
            }
        }
        Ok(info)
    }

    /// Queue write-backs (`clwb`) for every granule overlapping
    /// `[off, off+len)`, rounded out to cache-line boundaries as real `clwb`
    /// flushes whole lines. Captures current volatile content; it persists at
    /// this thread's next [`sfence`](Pool::sfence).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] for accesses past the pool end.
    pub fn clwb(&self, off: u64, len: usize, tid: ThreadId) -> Result<(), PmemError> {
        let t0 = telemetry::enabled().then(std::time::Instant::now);
        self.check(off, len.max(1))?;
        let line = CACHE_LINE as u64;
        let start = off / line * line;
        let end = ((off + len.max(1) as u64).div_ceil(line) * line).min(self.size as u64);
        let first_line = start / line;
        let last_line = (end - 1) / line;
        let mut guards = self.lock_lines(first_line, last_line);
        for l in first_line..=last_line {
            let s = shard_of_line(l);
            let seg_start = l * line;
            let seg_len = (end.min((l + 1) * line) - seg_start) as usize;
            let shard = guards.shard_mut(s);
            let mut queued = false;
            for g in granules(seg_start, seg_len) {
                let lg = local_granule(g);
                let m = shard.meta[lg as usize];
                if m.state == PersistState::Dirty {
                    let cap = shard.capture(lg);
                    match shard.pending_pos(lg) {
                        Some(p) => shard.pending[p] = (lg, tid, cap),
                        None => shard.pending.push((lg, tid, cap)),
                    }
                    queued = true;
                    shard.set_meta(
                        lg,
                        GranuleMeta {
                            state: PersistState::Flushing,
                            ..m
                        },
                    );
                }
            }
            if queued {
                self.pending_shards.fetch_or(1u64 << s, Ordering::Relaxed);
            }
        }
        if let Some(t0) = t0 {
            telemetry::metrics::record_duration(telemetry::Histogram::PmFlushNs, t0.elapsed());
        }
        Ok(())
    }

    /// Store fence: completes every write-back this thread queued with
    /// `clwb`, making those captures persistent and the granules `Clean`
    /// (unless re-dirtied after the capture).
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for API stability.
    pub fn sfence(&self, tid: ThreadId) -> Result<(), PmemError> {
        let t0 = telemetry::enabled().then(std::time::Instant::now);
        // Only visit shards that may hold queued write-backs. This thread's
        // own clwb bits are always visible here (program order); see the
        // field docs for why stale bits from other threads don't matter.
        let mask = self.pending_shards.load(Ordering::Relaxed);
        if mask == 0 {
            if let Some(t0) = t0 {
                telemetry::metrics::record_duration(telemetry::Histogram::PmFenceNs, t0.elapsed());
            }
            return Ok(());
        }
        for (s, slot) in self.shards.iter().enumerate() {
            if mask & (1u64 << s) == 0 {
                continue;
            }
            let mut shard = slot.lock();
            let mut i = 0;
            while i < shard.pending.len() {
                if shard.pending[i].1 != tid {
                    i += 1;
                    continue;
                }
                let (lg, _, bytes) = shard.pending.swap_remove(i);
                shard.apply(lg, bytes);
                let m = shard.meta[lg as usize];
                if m.state == PersistState::Flushing {
                    shard.set_meta(
                        lg,
                        GranuleMeta {
                            state: PersistState::Clean,
                            ..m
                        },
                    );
                }
                // If the granule was re-dirtied after the capture it stays
                // Dirty: the old capture persisted but the newest store is
                // still at risk.
            }
            if shard.pending.is_empty() {
                self.pending_shards
                    .fetch_and(!(1u64 << s), Ordering::Relaxed);
            }
        }
        if let Some(t0) = t0 {
            telemetry::metrics::record_duration(telemetry::Histogram::PmFenceNs, t0.elapsed());
        }
        Ok(())
    }

    /// Convenience: `clwb` + `sfence` over a range (the common persist
    /// idiom).
    ///
    /// # Errors
    ///
    /// Propagates [`Pool::clwb`] errors.
    pub fn persist(&self, off: u64, len: usize, tid: ThreadId) -> Result<(), PmemError> {
        self.clwb(off, len, tid)?;
        self.sfence(tid)
    }

    /// Atomic compare-and-swap on an aligned `u64` in the volatile image.
    /// On success the granule becomes `Dirty` like a regular store.
    /// Returns `(swapped, observed_value, load_info)`.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] or [`PmemError::Misaligned`].
    pub fn cas_u64(
        &self,
        off: u64,
        expected: u64,
        new: u64,
        tid: ThreadId,
        tag: SiteTag,
    ) -> Result<(bool, u64, LoadInfo), PmemError> {
        self.check(off, 8)?;
        if !off.is_multiple_of(8) {
            return Err(PmemError::Misaligned { off, align: 8 });
        }
        // An aligned word sits in one line, hence one shard.
        let mut shard = self.shards[shard_of_line(off / CACHE_LINE as u64)].lock();
        let lb = local_byte(off);
        let cur = u64::from_le_bytes(shard.volatile[lb..lb + 8].try_into().expect("8-byte slice"));
        let lg = local_granule(granule_of(off));
        let m = shard.meta[lg as usize];
        let info = LoadInfo {
            unpersisted: m.state.is_unpersisted(),
            writer: m.writer,
            tag: m.tag,
            seq: m.seq,
            state: m.state,
        };
        if cur != expected {
            return Ok((false, cur, info));
        }
        let seq = self.bump_seq();
        shard.volatile[lb..lb + 8].copy_from_slice(&new.to_le_bytes());
        if self.opts.eadr {
            shard.persistent[lb..lb + 8].copy_from_slice(&new.to_le_bytes());
        }
        shard.set_meta(
            lg,
            GranuleMeta {
                state: if self.opts.eadr {
                    PersistState::Clean
                } else {
                    PersistState::Dirty
                },
                writer: tid,
                tag,
                seq,
            },
        );
        Ok((true, cur, info))
    }

    /// Store an aligned little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`Pool::store`].
    pub fn store_u64(
        &self,
        off: u64,
        val: u64,
        tid: ThreadId,
        tag: SiteTag,
    ) -> Result<StoreInfo, PmemError> {
        self.store(off, &val.to_le_bytes(), tid, tag)
    }

    /// Non-temporal store of an aligned little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`Pool::ntstore`].
    pub fn ntstore_u64(
        &self,
        off: u64,
        val: u64,
        tid: ThreadId,
        tag: SiteTag,
    ) -> Result<StoreInfo, PmemError> {
        self.ntstore(off, &val.to_le_bytes(), tid, tag)
    }

    /// Load a little-endian `u64` along with its [`LoadInfo`].
    ///
    /// # Errors
    ///
    /// See [`Pool::load`].
    pub fn load_u64(&self, off: u64) -> Result<(u64, LoadInfo), PmemError> {
        let mut buf = [0u8; 8];
        let info = self.load(off, &mut buf)?;
        Ok((u64::from_le_bytes(buf), info))
    }

    /// Persistency metadata of the granule containing `off`.
    #[must_use]
    pub fn meta_at(&self, off: u64) -> GranuleMeta {
        let g = granule_of(off);
        let shard = self.shards[shard_of_granule(g)].lock();
        shard
            .meta
            .get(local_granule(g) as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Number of granules currently unpersisted (`Dirty` or `Flushing`).
    #[must_use]
    pub fn unpersisted_granules(&self) -> usize {
        let mut guards = self.lock_all();
        guards
            .iter_mut()
            .map(|shard| {
                shard.compact_dirty();
                shard.dirty.len()
            })
            .sum()
    }

    /// All currently unpersisted granules with their metadata, sorted by
    /// offset — the end-of-execution dirty set a missing-flush checker
    /// inspects.
    #[must_use]
    pub fn unpersisted_regions(&self) -> Vec<(u64, GranuleMeta)> {
        let mut guards = self.lock_all();
        let mut v = Vec::new();
        for (s, shard) in guards.iter_mut().enumerate() {
            shard.compact_dirty();
            for &lg in &shard.dirty {
                v.push((
                    global_granule(s, lg) * GRANULE as u64,
                    shard.meta[lg as usize],
                ));
            }
        }
        v.sort_unstable_by_key(|&(off, _)| off);
        v
    }

    /// Model hardware cache eviction: persist one random `Dirty` granule's
    /// current content and mark it `Clean`. Returns the evicted granule's
    /// byte offset, or `None` if nothing is dirty.
    pub fn evict_random<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        let mut guards = self.lock_all();
        let mut dirty: Vec<u64> = Vec::new();
        for (s, shard) in guards.iter_mut().enumerate() {
            shard.compact_dirty();
            dirty.extend(
                shard
                    .dirty
                    .iter()
                    .filter(|&&lg| shard.meta[lg as usize].state == PersistState::Dirty)
                    .map(|&lg| global_granule(s, lg)),
            );
        }
        if dirty.is_empty() {
            return None;
        }
        dirty.sort_unstable();
        let g = dirty[rng.random_range(0..dirty.len())];
        let s = shard_of_granule(g);
        let lg = local_granule(g);
        let shard = &mut guards[s];
        let cap = shard.capture(lg);
        shard.apply(lg, cap);
        let m = shard.meta[lg as usize];
        shard.set_meta(
            lg,
            GranuleMeta {
                state: PersistState::Clean,
                ..m
            },
        );
        if let Some(p) = shard.pending_pos(lg) {
            shard.pending.swap_remove(p);
        }
        if shard.pending.is_empty() {
            self.pending_shards
                .fetch_and(!(1u64 << s), Ordering::Relaxed);
        }
        telemetry::add(telemetry::Counter::PmEvictions, 1);
        Some(g * GRANULE as u64)
    }

    /// Snapshot of what survives a crash *right now*: the persistent image
    /// only. Queued-but-unfenced write-backs are conservatively lost.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for API stability.
    pub fn crash_image(&self) -> Result<CrashImage, PmemError> {
        let guards = self.lock_all();
        if let Some((base, overlay)) = self.cow_overlay(&guards) {
            return Ok(Self::finish_cow(base, overlay));
        }
        let refs: Vec<&Shard> = guards.iter().map(|g| &**g).collect();
        Ok(CrashImage::from_bytes(gather_from(&refs, self.size, true)))
    }

    /// Copy-on-write capture: the pool's persistent image differs from the
    /// base it sits on only at epoch-listed granules (see [`Base`]), so the
    /// current persistent bytes of those granules form a complete overlay
    /// over the shared base. Returns `None` when the dirty set is denser
    /// than half the pool (a plain copy is cheaper then).
    fn cow_overlay(&self, guards: &[MutexGuard<'_, Shard>]) -> Option<CowCapture> {
        let dirty: usize = guards.iter().map(|g| g.epoch_list.len()).sum();
        if dirty * GRANULE > self.size / 2 {
            return None;
        }
        let base = Arc::clone(&self.base.lock().image);
        let mut overlay = Vec::with_capacity(dirty);
        for (s, shard) in guards.iter().enumerate() {
            for &lg in &shard.epoch_list {
                let lb = lg as usize * GRANULE;
                let mut chunk = [0u8; GRANULE];
                chunk.copy_from_slice(&shard.persistent[lb..lb + GRANULE]);
                overlay.push((global_granule(s, lg) * GRANULE as u64, chunk));
            }
        }
        // Epoch lists hold each granule once, so the offsets are unique.
        overlay.sort_unstable_by_key(|&(off, _)| off);
        Some((base, overlay))
    }

    fn finish_cow(base: Arc<BaseImage>, overlay: Vec<(u64, [u8; GRANULE])>) -> CrashImage {
        if telemetry::enabled() {
            telemetry::metrics::record(
                telemetry::Histogram::CrashImageOverlayBytes,
                (overlay.len() * GRANULE) as u64,
            );
        }
        CrashImage::from_overlay(base, overlay)
    }

    /// Crash snapshot in which the given volatile byte ranges are forced
    /// persistent first.
    ///
    /// This realizes the crash point the checker reasons about (Fig. 3): the
    /// durable side effect *did* reach PM, the dependent store did not. The
    /// post-failure validator recovers from exactly this image.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if a range exceeds the pool.
    pub fn crash_image_persisting(&self, ranges: &[(u64, usize)]) -> Result<CrashImage, PmemError> {
        for &(off, len) in ranges {
            self.check(off, len)?;
        }
        let guards = self.lock_all();
        if let Some((base, mut overlay)) = self.cow_overlay(&guards) {
            // Forced granules outside the epoch set are appended after the
            // sorted prefix (a few per capture) and sorted in at the end.
            let sorted = overlay.len();
            for &(off, len) in ranges {
                if len == 0 {
                    continue;
                }
                for g in granules(off, len) {
                    let shard = &guards[shard_of_granule(g)];
                    let lb = local_granule(g) as usize * GRANULE;
                    let g_start = g * GRANULE as u64;
                    let i = match overlay[..sorted].binary_search_by_key(&g_start, |e| e.0) {
                        Ok(i) => i,
                        Err(_) => match overlay[sorted..].iter().position(|e| e.0 == g_start) {
                            Some(j) => sorted + j,
                            None => {
                                let mut c = [0u8; GRANULE];
                                c.copy_from_slice(&shard.persistent[lb..lb + GRANULE]);
                                overlay.push((g_start, c));
                                overlay.len() - 1
                            }
                        },
                    };
                    // Force exactly the requested bytes, not the whole
                    // granule, matching the dense path's byte-exact patch.
                    let seg_start = off.max(g_start);
                    let seg_end = (off + len as u64).min(g_start + GRANULE as u64);
                    let (a, b) = ((seg_start - g_start) as usize, (seg_end - g_start) as usize);
                    overlay[i].1[a..b].copy_from_slice(&shard.volatile[lb + a..lb + b]);
                }
            }
            if overlay.len() > sorted {
                overlay.sort_unstable_by_key(|&(off, _)| off);
            }
            return Ok(Self::finish_cow(base, overlay));
        }
        let refs: Vec<&Shard> = guards.iter().map(|g| &**g).collect();
        let mut bytes = gather_from(&refs, self.size, true);
        let line = CACHE_LINE as u64;
        for &(off, len) in ranges {
            if len == 0 {
                continue;
            }
            for l in off / line..=(off + len as u64 - 1) / line {
                let seg_start = off.max(l * line);
                let seg_end = (off + len as u64).min((l + 1) * line);
                let lb = local_byte(seg_start);
                let seg_len = (seg_end - seg_start) as usize;
                bytes[seg_start as usize..seg_end as usize]
                    .copy_from_slice(&refs[shard_of_line(l)].volatile[lb..lb + seg_len]);
            }
        }
        Ok(CrashImage::from_bytes(bytes))
    }

    /// Full checkpoint of pool state (both images + metadata), used by the
    /// fuzzer's in-memory checkpoints (§5).
    ///
    /// ```
    /// use pmrace_pmem::{Pool, PoolOpts, SiteTag, ThreadId};
    ///
    /// let pool = Pool::new(PoolOpts::small());
    /// let t0 = ThreadId(0);
    /// pool.store_u64(64, 1, t0, SiteTag(0)).unwrap();
    /// let snap = pool.snapshot();
    ///
    /// pool.store_u64(64, 2, t0, SiteTag(0)).unwrap();
    /// assert_eq!(pool.load_u64(64).unwrap().0, 2);
    ///
    /// // Restore rewinds both images and the per-line persistency state.
    /// pool.restore(&snap).unwrap();
    /// assert_eq!(pool.load_u64(64).unwrap().0, 1);
    /// ```
    #[must_use]
    pub fn snapshot(&self) -> PoolSnapshot {
        let guards = self.lock_all();
        let refs: Vec<&Shard> = guards.iter().map(|g| &**g).collect();
        let volatile = gather_from(&refs, self.size, false);
        let persistent = gather_from(&refs, self.size, true);
        let mut meta = std::collections::HashMap::new();
        for (s, shard) in refs.iter().enumerate() {
            for &lg in &shard.touched {
                let m = shard.meta[lg as usize];
                // The touched list may hold granules whose meta reverted to
                // default (delta-restored without a snapshot entry).
                if m.seq != 0 {
                    meta.insert(global_granule(s, lg), m);
                }
            }
        }
        PoolSnapshot::new(volatile, persistent, meta, self.seq.load(Ordering::Relaxed))
    }

    /// Restore pool state from a checkpoint taken with [`Pool::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidImage`] if the snapshot size differs from
    /// this pool's size.
    pub fn restore(&self, snap: &PoolSnapshot) -> Result<(), PmemError> {
        if snap.volatile().len() != self.size {
            return Err(PmemError::InvalidImage {
                reason: "snapshot size mismatch",
            });
        }
        let mut guards = self.lock_all();
        self.restore_full_locked(&mut guards, snap);
        Ok(())
    }

    /// Restore from `snap`, copying back only the granules written since
    /// the last restore when this pool was last restored from the *same*
    /// snapshot (O(dirty) instead of O(pool size)). Falls back to the full
    /// copy on the first restore, on a snapshot change, or when more than
    /// `max_dirty` granules are dirty.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::InvalidImage`] if the snapshot size differs from
    /// this pool's size.
    pub fn restore_delta(
        &self,
        snap: &PoolSnapshot,
        max_dirty: usize,
    ) -> Result<RestoreMode, PmemError> {
        if snap.volatile().len() != self.size {
            return Err(PmemError::InvalidImage {
                reason: "snapshot size mismatch",
            });
        }
        let mut guards = self.lock_all();
        let restorable = {
            let base = self.base.lock();
            !base.clean && base.image.id() == snap.base_id()
        };
        let total: usize = guards.iter().map(|g| g.epoch_list.len()).sum();
        if !restorable || total > max_dirty {
            self.restore_full_locked(&mut guards, snap);
            return Ok(RestoreMode::Full);
        }
        let (vol, per, meta_map) = (snap.volatile(), snap.persistent(), snap.meta());
        let mut lines: Vec<u64> = Vec::with_capacity(total);
        for (s, shard) in guards.iter_mut().enumerate() {
            let list = std::mem::take(&mut shard.epoch_list);
            for &lg in &list {
                let g = global_granule(s, lg);
                let off = g as usize * GRANULE;
                // The tail granule of an odd-sized pool is partial in the
                // dense snapshot; its padding bytes are unwritable and stay
                // zero in the shard.
                let n = GRANULE.min(self.size - off);
                let lb = lg as usize * GRANULE;
                shard.volatile[lb..lb + n].copy_from_slice(&vol[off..off + n]);
                shard.persistent[lb..lb + n].copy_from_slice(&per[off..off + n]);
                shard.set_meta(lg, meta_map.get(&g).copied().unwrap_or_default());
                lines.push(g / GRANULES_PER_LINE);
            }
            shard.pending.clear();
        }
        if telemetry::enabled() {
            lines.sort_unstable();
            lines.dedup();
            telemetry::metrics::record(telemetry::Histogram::RestoreDirtyLines, lines.len() as u64);
        }
        self.finish_restore(&mut guards, snap);
        Ok(RestoreMode::Delta { granules: total })
    }

    /// Full-copy restore body, with all shard locks held.
    fn restore_full_locked(&self, guards: &mut [MutexGuard<'_, Shard>], snap: &PoolSnapshot) {
        for shard in guards.iter_mut() {
            shard.clear_tracking();
        }
        {
            let mut refs: Vec<&mut Shard> = guards.iter_mut().map(|g| &mut **g).collect();
            scatter_into(&mut refs, snap.volatile(), false);
            scatter_into(&mut refs, snap.persistent(), true);
        }
        for (&g, &m) in snap.meta() {
            guards[shard_of_granule(g)].set_meta(local_granule(g), m);
        }
        self.finish_restore(guards, snap);
    }

    /// Common restore epilogue: close the epoch (the restore's own metadata
    /// writes must not count as post-restore dirt), reset the pool-wide
    /// counters, and sit on the snapshot's base for delta restore and COW
    /// crash images.
    fn finish_restore(&self, guards: &mut [MutexGuard<'_, Shard>], snap: &PoolSnapshot) {
        for shard in guards.iter_mut() {
            shard.end_epoch();
        }
        self.seq.store(snap.seq(), Ordering::Relaxed);
        self.pending_shards.store(0, Ordering::Relaxed);
        *self.base.lock() = Base {
            image: Arc::clone(snap.base()),
            clean: false,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const TAG: SiteTag = SiteTag(7);

    fn pool() -> Pool {
        Pool::new(PoolOpts::small())
    }

    #[test]
    fn store_is_visible_but_not_persistent() {
        let p = pool();
        p.store_u64(128, 99, T0, TAG).unwrap();
        assert_eq!(p.load_u64(128).unwrap().0, 99);
        assert_eq!(p.crash_image().unwrap().load_u64(128).unwrap(), 0);
        assert_eq!(p.meta_at(128).state, PersistState::Dirty);
    }

    #[test]
    fn clwb_alone_does_not_persist() {
        let p = pool();
        p.store_u64(128, 99, T0, TAG).unwrap();
        p.clwb(128, 8, T0).unwrap();
        assert_eq!(p.meta_at(128).state, PersistState::Flushing);
        assert_eq!(p.crash_image().unwrap().load_u64(128).unwrap(), 0);
    }

    #[test]
    fn clwb_sfence_persists() {
        let p = pool();
        p.store_u64(128, 99, T0, TAG).unwrap();
        p.persist(128, 8, T0).unwrap();
        assert_eq!(p.meta_at(128).state, PersistState::Clean);
        assert_eq!(p.crash_image().unwrap().load_u64(128).unwrap(), 99);
    }

    #[test]
    fn sfence_only_drains_own_threads_flushes() {
        let p = pool();
        p.store_u64(128, 1, T0, TAG).unwrap();
        p.clwb(128, 8, T0).unwrap();
        p.sfence(T1).unwrap(); // other thread's fence: no effect
        assert_eq!(p.crash_image().unwrap().load_u64(128).unwrap(), 0);
        p.sfence(T0).unwrap();
        assert_eq!(p.crash_image().unwrap().load_u64(128).unwrap(), 1);
    }

    #[test]
    fn redirty_after_clwb_persists_capture_not_new_value() {
        let p = pool();
        p.store_u64(128, 1, T0, TAG).unwrap();
        p.clwb(128, 8, T0).unwrap();
        p.store_u64(128, 2, T0, TAG).unwrap(); // re-dirty after capture
        p.sfence(T0).unwrap();
        // Old capture persisted; newest store still volatile-only.
        assert_eq!(p.crash_image().unwrap().load_u64(128).unwrap(), 1);
        assert_eq!(p.meta_at(128).state, PersistState::Dirty);
        assert_eq!(p.load_u64(128).unwrap().0, 2);
    }

    #[test]
    fn ntstore_is_immediately_persistent_and_clean() {
        let p = pool();
        p.ntstore_u64(256, 77, T0, TAG).unwrap();
        assert_eq!(p.meta_at(256).state, PersistState::Clean);
        assert_eq!(p.crash_image().unwrap().load_u64(256).unwrap(), 77);
    }

    #[test]
    fn load_reports_cross_thread_writer() {
        let p = pool();
        p.store_u64(64, 5, T1, SiteTag(42)).unwrap();
        let (v, info) = p.load_u64(64).unwrap();
        assert_eq!(v, 5);
        assert!(info.unpersisted);
        assert_eq!(info.writer, T1);
        assert_eq!(info.tag, SiteTag(42));
    }

    #[test]
    fn load_of_clean_data_reports_persisted() {
        let p = pool();
        p.store_u64(64, 5, T1, TAG).unwrap();
        p.persist(64, 8, T1).unwrap();
        let (_, info) = p.load_u64(64).unwrap();
        assert!(!info.unpersisted);
        assert_eq!(info.state, PersistState::Clean);
    }

    #[test]
    fn clwb_flushes_whole_cache_line() {
        let p = pool();
        p.store_u64(0, 1, T0, TAG).unwrap();
        p.store_u64(56, 2, T0, TAG).unwrap(); // same 64-byte line
        p.clwb(0, 1, T0).unwrap();
        p.sfence(T0).unwrap();
        let img = p.crash_image().unwrap();
        assert_eq!(img.load_u64(0).unwrap(), 1);
        assert_eq!(img.load_u64(56).unwrap(), 2);
    }

    #[test]
    fn cas_success_and_failure() {
        let p = pool();
        p.ntstore_u64(64, 10, T0, TAG).unwrap();
        let (ok, observed, _) = p.cas_u64(64, 10, 11, T1, TAG).unwrap();
        assert!(ok);
        assert_eq!(observed, 10);
        let (ok, observed, info) = p.cas_u64(64, 10, 12, T0, TAG).unwrap();
        assert!(!ok);
        assert_eq!(observed, 11);
        assert!(info.unpersisted); // CAS store by T1 not yet flushed
        assert_eq!(info.writer, T1);
    }

    #[test]
    fn cas_requires_alignment() {
        let p = pool();
        assert_eq!(
            p.cas_u64(3, 0, 1, T0, TAG).unwrap_err(),
            PmemError::Misaligned { off: 3, align: 8 }
        );
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let p = Pool::new(PoolOpts::with_size(64));
        assert!(matches!(
            p.store_u64(60, 1, T0, TAG).unwrap_err(),
            PmemError::OutOfBounds { .. }
        ));
        let mut buf = [0u8; 8];
        assert!(matches!(
            p.load(63, &mut buf).unwrap_err(),
            PmemError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn crash_image_persisting_forces_ranges() {
        let p = pool();
        p.store_u64(64, 1, T0, TAG).unwrap(); // dependent data, unflushed
        p.store_u64(128, 2, T1, TAG).unwrap(); // durable side effect
        let img = p.crash_image_persisting(&[(128, 8)]).unwrap();
        assert_eq!(img.load_u64(64).unwrap(), 0); // lost
        assert_eq!(img.load_u64(128).unwrap(), 2); // forced persistent
    }

    #[test]
    fn eviction_persists_a_dirty_granule() {
        let p = pool();
        p.store_u64(64, 9, T0, TAG).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let off = p.evict_random(&mut rng).unwrap();
        assert_eq!(off, 64);
        assert_eq!(p.meta_at(64).state, PersistState::Clean);
        assert_eq!(p.crash_image().unwrap().load_u64(64).unwrap(), 9);
        assert!(p.evict_random(&mut rng).is_none());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let p = pool();
        p.store_u64(64, 1, T0, TAG).unwrap();
        p.persist(64, 8, T0).unwrap();
        p.store_u64(72, 2, T0, TAG).unwrap();
        let snap = p.snapshot();
        p.ntstore_u64(64, 100, T0, TAG).unwrap();
        p.ntstore_u64(72, 100, T0, TAG).unwrap();
        p.restore(&snap).unwrap();
        assert_eq!(p.load_u64(64).unwrap().0, 1);
        assert_eq!(p.load_u64(72).unwrap().0, 2);
        assert_eq!(p.meta_at(72).state, PersistState::Dirty);
        assert_eq!(p.crash_image().unwrap().load_u64(72).unwrap(), 0);
    }

    #[test]
    fn restore_delta_matches_full_restore() {
        let p = pool();
        p.store_u64(64, 1, T0, TAG).unwrap();
        p.persist(64, 8, T0).unwrap();
        p.store_u64(72, 2, T0, TAG).unwrap();
        let snap = p.snapshot();
        // First restore from this snapshot is necessarily a full copy.
        assert_eq!(
            p.restore_delta(&snap, usize::MAX).unwrap(),
            RestoreMode::Full
        );
        for round in 0..3 {
            // Dirty a few granules in different shards, some persisted.
            p.ntstore_u64(64, 100 + round, T0, TAG).unwrap();
            p.store_u64(4096, 7, T1, TAG).unwrap();
            p.store_u64(131, 9, T0, TAG).unwrap(); // cross-granule
            p.persist(4096, 8, T1).unwrap();
            let mode = p.restore_delta(&snap, usize::MAX).unwrap();
            assert!(matches!(mode, RestoreMode::Delta { granules } if granules >= 4));
            assert_eq!(p.load_u64(64).unwrap().0, 1);
            assert_eq!(p.load_u64(72).unwrap().0, 2);
            assert_eq!(p.load_u64(4096).unwrap().0, 0);
            assert_eq!(p.load_u64(128).unwrap().0, 0);
            assert_eq!(p.meta_at(72).state, PersistState::Dirty);
            assert_eq!(p.meta_at(4096).state, PersistState::Clean);
            assert_eq!(p.crash_image().unwrap().load_u64(64).unwrap(), 1);
            assert_eq!(p.crash_image().unwrap().load_u64(4096).unwrap(), 0);
        }
        // Over-threshold dirt falls back to the full path and stays correct.
        p.store_u64(200, 3, T0, TAG).unwrap();
        assert_eq!(p.restore_delta(&snap, 0).unwrap(), RestoreMode::Full);
        assert_eq!(p.load_u64(200).unwrap().0, 0);
    }

    /// Dense reference capture built without the overlay path: the
    /// snapshot's persistent bytes with `ranges` patched from its volatile
    /// bytes.
    fn dense_capture(p: &Pool, ranges: &[(u64, usize)]) -> CrashImage {
        let snap = p.snapshot();
        let mut bytes = snap.persistent().to_vec();
        for &(off, len) in ranges {
            let r = off as usize..off as usize + len;
            bytes[r.clone()].copy_from_slice(&snap.volatile()[r]);
        }
        CrashImage::from_bytes(bytes)
    }

    #[test]
    fn cow_crash_image_equals_dense_capture() {
        let p = pool();
        let fresh = Pool::new(p.opts());
        p.store_u64(64, 1, T0, TAG).unwrap();
        p.persist(64, 8, T0).unwrap();
        let snap = p.snapshot();
        p.restore(&snap).unwrap(); // sits on the snapshot's base
        let ops = |q: &Pool| {
            q.store_u64(72, 5, T0, TAG).unwrap();
            q.ntstore_u64(4096, 6, T1, TAG).unwrap();
            q.store_u64(131, 9, T0, TAG).unwrap();
        };
        // Same ops on a never-restored pool (on the all-zero base) except
        // the snapshot-time store, replayed to align the images.
        fresh.store_u64(64, 1, T0, TAG).unwrap();
        fresh.persist(64, 8, T0).unwrap();
        ops(&p);
        ops(&fresh);
        let ranges = [(72u64, 8usize), (130, 3)];
        for q in [&p, &fresh] {
            let cow = q.crash_image().unwrap();
            let dense = dense_capture(q, &[]);
            assert!(cow.overlay_bytes() > 0, "capture used the COW path");
            assert_eq!(dense.overlay_bytes(), 0, "the reference is dense");
            assert_eq!(cow, dense);
            assert_eq!(cow.bytes(), dense.bytes());
            // Forced-persist ranges compose with the overlay byte-exactly.
            let cow_f = q.crash_image_persisting(&ranges).unwrap();
            assert_eq!(cow_f, dense_capture(q, &ranges));
            assert_eq!(cow_f.load_u64(72).unwrap(), 5);
        }
        assert_eq!(p.crash_image().unwrap(), fresh.crash_image().unwrap());
    }

    #[test]
    fn captures_past_half_the_pool_fall_back_to_dense() {
        let p = Pool::new(PoolOpts::with_size(4096));
        p.store(0, &[0xCD; 3000], T0, TAG).unwrap();
        p.persist(0, 1000, T0).unwrap();
        let img = p.crash_image().unwrap();
        assert_eq!(img.overlay_bytes(), 0, "dense past half the pool");
        assert_eq!(img, dense_capture(&p, &[]));
        let ranges = [(1000u64, 17usize)];
        let forced = p.crash_image_persisting(&ranges).unwrap();
        assert_eq!(forced.overlay_bytes(), 0);
        assert_eq!(forced, dense_capture(&p, &ranges));
    }

    #[test]
    fn restore_crash_image_takes_the_delta_path_on_a_shared_base() {
        let src = pool();
        src.ntstore_u64(64, 5, T0, TAG).unwrap();
        src.store_u64(72, 6, T0, TAG).unwrap(); // lost in the crash
        let img = src.crash_image().unwrap();
        // A new pool sits on the same all-zero base as `src`.
        let rec = pool();
        assert_eq!(
            rec.restore_crash_image(&img).unwrap(),
            RestoreMode::Delta { granules: 2 }
        );
        rec.store_u64(4096, 1, T1, TAG).unwrap();
        assert!(matches!(
            rec.restore_crash_image(&img).unwrap(),
            RestoreMode::Delta { .. }
        ));
        assert_eq!(rec.load_u64(64).unwrap().0, 5);
        assert_eq!(rec.load_u64(72).unwrap().0, 0);
        assert_eq!(rec.load_u64(4096).unwrap().0, 0);
        assert_eq!(rec.meta_at(4096), GranuleMeta::default());
        assert_eq!(rec.store_seq(), 0);
        // A dense image of a foreign base needs the full copy.
        let foreign = CrashImage::from_bytes(img.bytes().to_vec());
        assert_eq!(
            rec.restore_crash_image(&foreign).unwrap(),
            RestoreMode::Full
        );
        assert_eq!(rec.crash_image().unwrap(), img);
        let small = CrashImage::from_bytes(vec![0; 64]);
        assert!(matches!(
            rec.restore_crash_image(&small).unwrap_err(),
            PmemError::InvalidImage { .. }
        ));
    }

    #[test]
    fn restore_delta_rejects_size_mismatch() {
        let p = Pool::new(PoolOpts::with_size(64));
        let other = Pool::new(PoolOpts::with_size(128));
        let snap = other.snapshot();
        assert!(matches!(
            p.restore_delta(&snap, usize::MAX).unwrap_err(),
            PmemError::InvalidImage { .. }
        ));
    }

    #[test]
    fn restore_rejects_size_mismatch() {
        let p = Pool::new(PoolOpts::with_size(64));
        let other = Pool::new(PoolOpts::with_size(128));
        let snap = other.snapshot();
        assert!(matches!(
            p.restore(&snap).unwrap_err(),
            PmemError::InvalidImage { .. }
        ));
    }

    #[test]
    fn recovery_pool_sees_only_persistent_bytes() {
        let p = pool();
        p.ntstore_u64(64, 5, T0, TAG).unwrap();
        p.store_u64(72, 6, T0, TAG).unwrap(); // never flushed
        let img = p.crash_image().unwrap();
        let rec = Pool::from_crash_image(&img).unwrap();
        assert_eq!(rec.load_u64(64).unwrap().0, 5);
        assert_eq!(rec.load_u64(72).unwrap().0, 0);
        assert_eq!(rec.meta_at(64).state, PersistState::Clean);
    }

    #[test]
    fn eadr_stores_are_immediately_durable() {
        let p = Pool::new(PoolOpts::small().eadr());
        p.store_u64(128, 9, T0, TAG).unwrap();
        assert_eq!(p.meta_at(128).state, PersistState::Clean);
        assert_eq!(p.crash_image().unwrap().load_u64(128).unwrap(), 9);
        let (_, info) = p.load_u64(128).unwrap();
        assert!(!info.unpersisted, "eADR never exposes unpersisted data");
        // CAS is durable too (the unreleased-lock scenario of §6.6).
        let (ok, _, _) = p.cas_u64(256, 0, 1, T1, TAG).unwrap();
        assert!(ok);
        assert_eq!(p.crash_image().unwrap().load_u64(256).unwrap(), 1);
        assert_eq!(p.meta_at(256).state, PersistState::Clean);
    }

    #[test]
    fn eadr_flushes_are_harmless_noops() {
        let p = Pool::new(PoolOpts::small().eadr());
        p.store_u64(64, 5, T0, TAG).unwrap();
        p.persist(64, 8, T0).unwrap();
        assert_eq!(p.load_u64(64).unwrap().0, 5);
        assert_eq!(p.crash_image().unwrap().load_u64(64).unwrap(), 5);
    }

    #[test]
    fn heavy_init_produces_zeroed_pool() {
        let p = Pool::new(PoolOpts::with_size(4096).heavy());
        assert_eq!(p.load_u64(0).unwrap().0, 0);
        assert_eq!(p.load_u64(4088).unwrap().0, 0);
    }

    #[test]
    fn multi_line_store_spans_shards() {
        let p = pool();
        // 16 bytes at offset 56 cross the line-0/line-1 boundary, which is
        // also a shard boundary (adjacent lines live in different shards).
        let bytes: Vec<u8> = (0..16u8).collect();
        p.store(56, &bytes, T0, TAG).unwrap();
        let mut back = [0u8; 16];
        p.load(56, &mut back).unwrap();
        assert_eq!(&back[..], &bytes[..]);
        assert_eq!(p.meta_at(56).state, PersistState::Dirty);
        assert_eq!(p.meta_at(64).state, PersistState::Dirty);
        // Both stores carry the same sequence number.
        assert_eq!(p.meta_at(56).seq, p.meta_at(64).seq);
        // Persist only via the clwb of the first line: the second line's
        // granule stays dirty.
        p.clwb(56, 1, T0).unwrap();
        p.sfence(T0).unwrap();
        assert_eq!(p.meta_at(56).state, PersistState::Clean);
        assert_eq!(p.meta_at(64).state, PersistState::Dirty);
        let img = p.crash_image().unwrap();
        assert_eq!(img.read(56, 8).unwrap(), &bytes[..8]);
        assert_eq!(img.read(64, 8).unwrap(), &[0u8; 8]);
    }

    #[test]
    fn wide_store_and_unpersisted_regions_cover_many_shards() {
        let p = pool();
        // 8 KiB touches 128 lines -> all 64 shards twice.
        let bytes = vec![0xABu8; 8192];
        p.store(0, &bytes, T0, TAG).unwrap();
        assert_eq!(p.unpersisted_granules(), 1024);
        let regions = p.unpersisted_regions();
        assert_eq!(regions.len(), 1024);
        // Sorted by offset, one granule apart.
        assert!(regions.windows(2).all(|w| w[1].0 == w[0].0 + 8));
        p.persist(0, 8192, T0).unwrap();
        assert_eq!(p.unpersisted_granules(), 0);
        assert_eq!(p.crash_image().unwrap().read(0, 8192).unwrap(), &bytes[..]);
    }

    #[test]
    fn store_seq_counts_stores() {
        let p = pool();
        assert_eq!(p.store_seq(), 0);
        p.store_u64(0, 1, T0, TAG).unwrap();
        p.ntstore_u64(64, 2, T0, TAG).unwrap();
        assert_eq!(p.store_seq(), 2);
    }
}
