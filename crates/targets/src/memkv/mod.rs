//! memcached-pmem analog: a slab-backed persistent key-value store
//! (Table 1, row 5).
//!
//! Architecture mirrors Lenovo's memcached-pmem port:
//!
//! - **persistent slabs** — items (key, value, LRU links, slab class, flags,
//!   checksum) live in PM;
//! - **volatile index** — the hash table and LRU head/tail bookkeeping are
//!   DRAM structures *rebuilt from the slabs at restart*; recovery rewrites
//!   every item's `next`/`prev`/`hnext` links, which is why inconsistencies
//!   confined to those fields are benign (the 62 validated false positives
//!   of Table 3);
//! - **checksum-guarded values** — value updates refresh a checksum through
//!   `checksum_guard` sites the default whitelist recognizes.
//!
//! Seeded bugs (Table 2, bugs 9–14): `incr`/`decr`/`append` write item
//! values computed from another thread's unflushed value
//! (`memcached.c:2805` → `4292`/`4293`); LRU maintenance reads unflushed
//! `prev`/`next`/`it_flags`/`slabs_clsid` links and durably writes
//! `slabs_clsid`/`it_flags`/value-header fields that recovery does **not**
//! rebuild (`items.c:423/464/627/623`, `slabs.c:549/412`,
//! `items.c:1096` → `memcached.c:2824`).
//!
//! [`proto`] implements the memcached text protocol subset used by the
//! Table 4 input-generator experiment.

pub mod proto;

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use pmrace_pmem::PmAllocator;
use pmrace_runtime::{site, PmView, RtError, Session, TBytes, TU64};

use crate::{Op, OpResult, Target, TargetSpec};

// Root layout.
const K_LRU_HEAD: u64 = 0;
const K_LRU_TAIL: u64 = 8;
const K_NITEMS: u64 = 16;
const K_LAST_CLSID: u64 = 24;
const K_DIR: u64 = 64;
const DIR_CAP: u64 = 256;
const ROOT_SIZE: usize = 64 + (DIR_CAP as usize) * 8;

// Item layout (slab class 256), three cache lines:
//
// - line 0 (flushed by the store path): validity, key, checksum, hash link;
// - line 1 (NEVER flushed — the four missing-flush fields PMDebugger also
//   reports, behind bugs 11-14): `next`, `prev`, `slabs_clsid`, `it_flags`;
// - line 2 (flushed only on in-place replacement): value and value header —
//   the new-item path misses this flush (bugs 9/10).
const I_VALID: u64 = 0;
const I_KEY: u64 = 8;
const I_CHECKSUM: u64 = 16;
const I_HNEXT: u64 = 24;
const I_NEXT: u64 = 64;
const I_PREV: u64 = 72;
const I_CLSID: u64 = 80;
const I_FLAGS: u64 = 88;
const I_VALUE: u64 = 128;
const I_VHDR: u64 = 136;
/// Inline byte-value region (rest of the value cache line).
const I_VBYTES: u64 = 144;
/// Capacity of the inline byte-value region.
pub const VBYTES_CAP: usize = 48;
const ITEM_SIZE: usize = 192;

const FLAG_LINKED: u64 = 1;
const MAX_ITEMS: usize = 48;

/// The memcached-pmem instance bound to a session's pool.
#[derive(Debug)]
pub struct MemKv {
    alloc: PmAllocator,
    root: u64,
    /// Volatile hash index `key -> item offset` (rebuilt at restart).
    index: Mutex<HashMap<u64, u64>>,
    /// Global cache lock (memcached's coarse `cache_lock`); persistency
    /// races cross it because flushes are deferred past unlock. Taken only
    /// through [`MemKv::lock_cache`].
    cache_lock: Mutex<()>,
}

/// Registration entry for the fuzzer.
pub static SPEC: TargetSpec = TargetSpec::new(
    "memcached-pmem",
    |session| Ok(Arc::new(MemKv::init(session)?) as Arc<dyn Target>),
    |session| Ok(Arc::new(MemKv::recover(session)?) as Arc<dyn Target>),
    pmrace_pmem::PoolOpts::small,
);

impl MemKv {
    /// Format the pool (memcached-pmem maps it with the lightweight
    /// `pmem_map_file`, so no heavy initialization).
    ///
    /// # Errors
    ///
    /// Propagates pool/allocator errors.
    pub fn init(session: &Arc<Session>) -> Result<Self, RtError> {
        let view = session.view(pmrace_pmem::ThreadId(0));
        let alloc = PmAllocator::format(Arc::clone(session.pool()), view.tid())?;
        let root = alloc.alloc(ROOT_SIZE, view.tid())?;
        alloc.set_root(root, view.tid())?;
        view.ntstore_u64(root + K_LRU_HEAD, 0u64, site!("memkv.init.head"))?;
        view.ntstore_u64(root + K_LRU_TAIL, 0u64, site!("memkv.init.tail"))?;
        view.ntstore_u64(root + K_NITEMS, 0u64, site!("memkv.init.nitems"))?;
        view.ntstore_u64(root + K_LAST_CLSID, 0u64, site!("memkv.init.last_clsid"))?;
        Ok(MemKv {
            alloc,
            root,
            index: Mutex::new(HashMap::new()),
            cache_lock: Mutex::new(()),
        })
    }

    /// Restart path: rebuild the LRU cache and the hash table from the
    /// persistent slabs (§4.4). Every live item's `next`/`prev`/`hnext`
    /// links are rewritten — overwriting (and thereby validating as benign)
    /// inconsistencies confined to them. Values, flags, and slab classes
    /// are *not* rewritten.
    ///
    /// # Errors
    ///
    /// Propagates pool/allocator errors.
    pub fn recover(session: &Arc<Session>) -> Result<Self, RtError> {
        let view = session.view(pmrace_pmem::ThreadId(0));
        let alloc = PmAllocator::open(Arc::clone(session.pool()), view.tid())?;
        let root = alloc.root()?;
        let nitems = view
            .load_u64(root + K_NITEMS, site!("memkv.recover.read_nitems"))?
            .value()
            .min(DIR_CAP);
        let mut index = HashMap::new();
        let mut seen = std::collections::HashSet::new();
        let mut head: u64 = 0;
        let mut tail: u64 = 0;
        let mut prev: u64 = 0;
        for i in 0..nitems {
            let off = view
                .load_u64(root + K_DIR + i * 8, site!("memkv.recover.read_dir"))?
                .value();
            if off == 0 || !seen.insert(off) {
                continue;
            }
            // The rebuild pass rewrites the link fields of *every* slab
            // item, dead or alive — inconsistencies confined to
            // next/prev/hnext never survive a restart.
            view.ntstore_u64(off + I_HNEXT, 0u64, site!("memkv.recover.clear_hnext"))?;
            view.ntstore_u64(off + I_NEXT, 0u64, site!("memkv.recover.clear_next"))?;
            view.ntstore_u64(off + I_PREV, 0u64, site!("memkv.recover.clear_prev"))?;
            let valid = view
                .load_u64(off + I_VALID, site!("memkv.recover.read_valid"))?
                .value();
            if valid != 1 {
                continue;
            }
            let key = view
                .load_u64(off + I_KEY, site!("memkv.recover.read_key"))?
                .value();
            view.ntstore_u64(off + I_PREV, prev, site!("memkv.recover.set_prev"))?;
            if prev != 0 {
                view.ntstore_u64(prev + I_NEXT, off, site!("memkv.recover.set_next"))?;
            } else {
                head = off;
            }
            tail = off;
            prev = off;
            index.insert(key, off);
        }
        view.ntstore_u64(root + K_LRU_HEAD, head, site!("memkv.recover.set_head"))?;
        view.ntstore_u64(root + K_LRU_TAIL, tail, site!("memkv.recover.set_tail"))?;
        Ok(MemKv {
            alloc,
            root,
            index: Mutex::new(index),
            cache_lock: Mutex::new(()),
        })
    }

    /// Number of live items in the volatile index.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.lock().len()
    }

    /// `true` when the store holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.lock().is_empty()
    }

    fn checksum(key: u64, value: u64) -> u64 {
        key ^ value.rotate_left(17) ^ 0xc0ffee
    }

    /// Splice `it` in at the LRU head. The `next`/`prev` stores are the
    /// deferred-flush windows behind bugs 11/12 and the recovery-validated
    /// false positives.
    fn link_lru(&self, view: &PmView, it: u64) -> Result<(), RtError> {
        let head = view.load_u64(self.root + K_LRU_HEAD, site!("memkv.lru.read_head"))?;
        view.store_u64(it + I_NEXT, head.clone(), site!("slabs.c:549.store_next"))?;
        view.store_u64(it + I_PREV, 0u64, site!("items.c:423.store_prev"))?;
        if head != 0u64 {
            // Store through the (possibly unflushed) head pointer.
            view.store_u64(
                head.clone() + I_PREV,
                it,
                site!("memkv.lru.store_head_prev"),
            )?;
        } else {
            view.store_u64(self.root + K_LRU_TAIL, it, site!("memkv.lru.store_tail"))?;
            view.persist(self.root + K_LRU_TAIL, 8, site!("memkv.lru.flush_tail"))?;
        }
        view.store_u64(self.root + K_LRU_HEAD, it, site!("memkv.lru.store_head"))?;
        view.persist(self.root + K_LRU_HEAD, 8, site!("memkv.lru.flush_head"))?;
        Ok(())
    }

    /// Remove `it` from the LRU list. Reads the (possibly unflushed)
    /// neighbor links — bug 12's racy read (`slabs.c:412`) and bug 11's
    /// (`items.c:464`) — and durably touches the neighbor's `it_flags`.
    fn unlink_lru(&self, view: &PmView, it: u64) -> Result<(), RtError> {
        let n = view.load_u64(it + I_NEXT, site!("slabs.c:412.read_next"))?;
        let p = view.load_u64(it + I_PREV, site!("items.c:464.read_prev"))?;
        if p != 0u64 {
            view.store_u64(
                p.clone() + I_NEXT,
                n.clone(),
                site!("memkv.lru.store_p_next"),
            )?;
        } else {
            view.store_u64(
                self.root + K_LRU_HEAD,
                n.clone(),
                site!("memkv.lru.relink_head"),
            )?;
            view.persist(
                self.root + K_LRU_HEAD,
                8,
                site!("memkv.lru.flush_relink_head"),
            )?;
        }
        if n != 0u64 {
            view.store_u64(
                n.clone() + I_PREV,
                p.clone(),
                site!("memkv.lru.store_n_prev"),
            )?;
            // Bug 12: durably mark the neighbor reached through the
            // unflushed `next` pointer (its flags survive recovery).
            // Missing flush: the neighbor's it_flags stay unpersisted.
            view.store_u64(
                n + I_FLAGS,
                FLAG_LINKED | 2,
                site!("slabs.c:412.store_it_flags"),
            )?;
        } else {
            view.store_u64(self.root + K_LRU_TAIL, p, site!("memkv.lru.relink_tail"))?;
            view.persist(
                self.root + K_LRU_TAIL,
                8,
                site!("memkv.lru.flush_relink_tail"),
            )?;
        }
        Ok(())
    }

    /// Evict the LRU tail when the store is full. Carries bugs 11 and 14:
    /// durable slab-class writes derived from unflushed `prev`/`slabs_clsid`.
    fn evict(&self, view: &PmView) -> Result<(), RtError> {
        view.branch(site!("memkv.evict"));
        let tail = view.load_u64(self.root + K_LRU_TAIL, site!("memkv.lru.read_tail"))?;
        if tail == 0u64 {
            return Ok(());
        }
        let victim = tail.value();
        let p = view.load_u64(victim + I_PREV, site!("items.c:464.read_prev"))?;
        if p != 0u64 {
            // Bug 11: promote the new tail's slab class through the
            // unflushed `prev` pointer; `slabs_clsid` survives recovery.
            // Missing flush: the promoted slab class stays unpersisted.
            view.store_u64(p.clone() + I_CLSID, 1u64, site!("items.c:464.store_clsid"))?;
        }
        // Bug 14: propagate the victim's (possibly unflushed) slab class
        // into the durable free-slot accounting.
        let clsid = view.load_u64(victim + I_CLSID, site!("items.c:623.read_clsid"))?;
        view.ntstore_u64(
            self.root + K_LAST_CLSID,
            clsid,
            site!("items.c:627.store_clsid"),
        )?;
        self.unlink_lru(view, victim)?;
        view.ntstore_u64(victim + I_VALID, 0u64, site!("memkv.evict.invalidate"))?;
        let key = view
            .load_u64(victim + I_KEY, site!("memkv.evict.read_key"))?
            .value();
        self.index.lock().remove(&key);
        let _ = self.alloc.free(victim, view.tid());
        Ok(())
    }

    /// Take `cache_lock` by `try_lock` in a [`PmView::spin_until`], like
    /// the PM spin locks of the other targets: a waiter stays visible to
    /// the scheduler as spinning and to the session's hang detection (a
    /// lock nobody can release is a hang once every live driver thread
    /// waits), instead of sleeping in the OS where neither can see it.
    fn lock_cache(&self, view: &PmView) -> Result<MutexGuard<'_, ()>, RtError> {
        view.spin_until(|| Ok(self.cache_lock.try_lock()))
    }

    fn dir_append(&self, view: &PmView, off: u64) -> Result<(), RtError> {
        let n = view
            .load_u64(self.root + K_NITEMS, site!("memkv.dir.read_nitems"))?
            .value();
        if n < DIR_CAP {
            view.ntstore_u64(self.root + K_DIR + n * 8, off, site!("memkv.dir.append"))?;
            view.ntstore_u64(self.root + K_NITEMS, n + 1, site!("memkv.dir.bump"))?;
        }
        Ok(())
    }

    /// `set`: insert or replace.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn set(&self, view: &PmView, key: u64, value: u64) -> Result<OpResult, RtError> {
        view.branch(site!("memkv.set"));
        let _guard = self.lock_cache(view)?;
        let existing = self.index.lock().get(&key).copied();
        if let Some(it) = existing {
            // Bug 13 shape: the value header is derived from the (possibly
            // unflushed) `it_flags` word.
            let flags = view.load_u64(it + I_FLAGS, site!("memcached.c:2824.read_flags"))?;
            view.store_u64(
                it + I_VHDR,
                (flags << 32u64) | 8u64,
                site!("memcached.c:2824.store_value_header"),
            )?;
            view.store_u64(it + I_VALUE, value, site!("memcached.c:4292.store_value"))?;
            view.ntstore_u64(
                it + I_CHECKSUM,
                Self::checksum(key, value),
                site!("memkv.checksum_guard.update"),
            )?;
            self.unlink_lru(view, it)?;
            self.link_lru(view, it)?;
            // Only the value cache line is flushed; the LRU link fields
            // keep their missing-flush windows.
            view.persist(it + I_VALUE, 16, site!("memkv.set.flush_value"))?;
            return Ok(OpResult::Done);
        }
        if self.index.lock().len() >= MAX_ITEMS {
            self.evict(view)?;
        }
        let it = self.alloc.alloc(ITEM_SIZE, view.tid())?;
        view.ntstore_u64(it + I_KEY, key, site!("memkv.set.store_key"))?;
        view.store_u64(it + I_VALUE, value, site!("memcached.c:4292.store_value"))?;
        view.store_u64(it + I_VHDR, 8u64, site!("memcached.c:4293.store_vallen"))?;
        view.store_u64(it + I_CLSID, 2u64, site!("items.c:627.store_clsid"))?;
        view.store_u64(it + I_FLAGS, FLAG_LINKED, site!("items.c:1096.store_flags"))?;
        view.ntstore_u64(
            it + I_CHECKSUM,
            Self::checksum(key, value),
            site!("memkv.checksum_guard.update"),
        )?;
        view.ntstore_u64(it + I_HNEXT, 0u64, site!("memkv.set.store_hnext"))?;
        self.link_lru(view, it)?;
        view.ntstore_u64(it + I_VALID, 1u64, site!("memkv.set.validate"))?;
        self.dir_append(view, it)?;
        self.index.lock().insert(key, it);
        // Flush only the identity line; LRU links (line 1) and the value
        // (line 2) keep their missing-flush windows (bugs 9-14).
        view.persist(it, 32, site!("memkv.set.flush_item"))?;
        Ok(OpResult::Done)
    }

    /// `get`: lookup + LRU bump.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn get(&self, view: &PmView, key: u64) -> Result<OpResult, RtError> {
        view.branch(site!("memkv.get"));
        let _guard = self.lock_cache(view)?;
        let Some(it) = self.index.lock().get(&key).copied() else {
            view.branch(site!("memkv.get.miss"));
            return Ok(OpResult::Missing);
        };
        let v = view.load_u64(it + I_VALUE, site!("memcached.c:2805.read_value"))?;
        self.unlink_lru(view, it)?;
        self.link_lru(view, it)?;
        view.branch(site!("memkv.get.hit"));
        Ok(OpResult::Found(v.value()))
    }

    /// `add`: insert only if absent.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn add(&self, view: &PmView, key: u64, value: u64) -> Result<OpResult, RtError> {
        view.branch(site!("memkv.add"));
        if self.index.lock().contains_key(&key) {
            return Ok(OpResult::Missing);
        }
        self.set(view, key, value)
    }

    /// `replace`: update only if present.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn replace(&self, view: &PmView, key: u64, value: u64) -> Result<OpResult, RtError> {
        view.branch(site!("memkv.replace"));
        if !self.index.lock().contains_key(&key) {
            return Ok(OpResult::Missing);
        }
        self.set(view, key, value)
    }

    /// Read-modify-write on the stored value: `incr`/`decr`/`append`
    /// (bugs 9 and 10 — the new value and length derive from a possibly
    /// unflushed read at `memcached.c:2805`).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn rmw(
        &self,
        view: &PmView,
        key: u64,
        f: impl FnOnce(TU64) -> TU64,
    ) -> Result<OpResult, RtError> {
        view.branch(site!("memkv.rmw"));
        let _guard = self.lock_cache(view)?;
        let Some(it) = self.index.lock().get(&key).copied() else {
            return Ok(OpResult::Missing);
        };
        let old = view.load_u64(it + I_VALUE, site!("memcached.c:2805.read_value"))?;
        let new = f(old);
        // memcached's append/incr path allocates a fresh item for the new
        // value and swaps it in — so the value/length writes land on a
        // different item than the one the non-persisted read came from.
        let nit = self.alloc.alloc(ITEM_SIZE, view.tid())?;
        view.ntstore_u64(nit + I_KEY, key, site!("memkv.rmw.store_key"))?;
        view.store_u64(
            nit + I_VALUE,
            new.clone(),
            site!("memcached.c:4292.store_value"),
        )?;
        view.store_u64(
            nit + I_VHDR,
            (new.clone() & 0xffu64) + 8u64,
            site!("memcached.c:4293.store_vallen"),
        )?;
        view.store_u64(nit + I_CLSID, 2u64, site!("items.c:627.store_clsid"))?;
        view.store_u64(
            nit + I_FLAGS,
            FLAG_LINKED,
            site!("items.c:1096.store_flags"),
        )?;
        view.ntstore_u64(
            nit + I_CHECKSUM,
            Self::checksum(key, new.value()),
            site!("memkv.checksum_guard.update"),
        )?;
        view.ntstore_u64(nit + I_HNEXT, 0u64, site!("memkv.rmw.store_hnext"))?;
        self.unlink_lru(view, it)?;
        view.ntstore_u64(it + I_VALID, 0u64, site!("memkv.rmw.invalidate_old"))?;
        self.link_lru(view, nit)?;
        view.ntstore_u64(nit + I_VALID, 1u64, site!("memkv.rmw.validate"))?;
        self.dir_append(view, nit)?;
        self.index.lock().insert(key, nit);
        view.persist(nit, 32, site!("memkv.rmw.flush_item"))?;
        let _ = self.alloc.free(it, view.tid());
        Ok(OpResult::Found(new.value()))
    }

    /// Store an opaque byte value (the memcached data block). The bytes
    /// live on the item's value cache line and inherit its missing-flush
    /// window; `len` is kept in the numeric value slot.
    ///
    /// # Errors
    ///
    /// Returns `Missing` for values over [`VBYTES_CAP`]; propagates runtime
    /// errors otherwise.
    pub fn set_bytes(&self, view: &PmView, key: u64, data: &TBytes) -> Result<OpResult, RtError> {
        view.branch(site!("memkv.set_bytes"));
        if data.len() > VBYTES_CAP {
            return Ok(OpResult::Missing);
        }
        self.set(view, key, data.len() as u64)?;
        let Some(it) = self.index.lock().get(&key).copied() else {
            return Ok(OpResult::Missing);
        };
        let mut padded = data.bytes().to_vec();
        padded.resize(VBYTES_CAP, 0);
        let padded = TBytes::with_taint(padded, data.taint().clone());
        view.store_bytes(
            it + I_VBYTES,
            &padded,
            site!("memcached.c:4292.store_value"),
        )?;
        Ok(OpResult::Done)
    }

    /// Read back an opaque byte value stored with [`MemKv::set_bytes`].
    /// The returned buffer carries taint if the bytes are unpersisted.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn get_bytes(&self, view: &PmView, key: u64) -> Result<Option<TBytes>, RtError> {
        view.branch(site!("memkv.get_bytes"));
        let _guard = self.lock_cache(view)?;
        let Some(it) = self.index.lock().get(&key).copied() else {
            return Ok(None);
        };
        let len = view
            .load_u64(it + I_VALUE, site!("memcached.c:2805.read_value"))?
            .value() as usize;
        let raw = view.load_bytes(
            it + I_VBYTES,
            len.min(VBYTES_CAP),
            site!("memcached.c:2805.read_value_bytes"),
        )?;
        Ok(Some(raw))
    }

    /// `delete`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn del(&self, view: &PmView, key: u64) -> Result<OpResult, RtError> {
        view.branch(site!("memkv.del"));
        let _guard = self.lock_cache(view)?;
        let Some(it) = self.index.lock().remove(&key) else {
            return Ok(OpResult::Missing);
        };
        self.unlink_lru(view, it)?;
        view.ntstore_u64(it + I_VALID, 0u64, site!("memkv.del.invalidate"))?;
        let _ = self.alloc.free(it, view.tid());
        Ok(OpResult::Done)
    }
}

impl Target for MemKv {
    fn name(&self) -> &'static str {
        "memcached-pmem"
    }

    fn exec(&self, view: &PmView, op: &Op) -> Result<OpResult, RtError> {
        match *op {
            Op::Insert { key, value } => self.set(view, key.max(1), value),
            Op::Update { key, value } => self.replace(view, key.max(1), value),
            Op::Delete { key } => self.del(view, key.max(1)),
            Op::Get { key } => self.get(view, key.max(1)),
            Op::Incr { key, by } => self.rmw(view, key.max(1), |v| v + by),
            Op::Decr { key, by } => self.rmw(view, key.max(1), |v| {
                let dec = by.min(v.value());
                v - dec
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_pmem::{Pool, PoolOpts, ThreadId};
    use pmrace_runtime::SessionConfig;

    fn fresh() -> (Arc<Session>, MemKv) {
        let session = Session::new(
            Arc::new(Pool::new(PoolOpts::small())),
            SessionConfig::default(),
        );
        let t = MemKv::init(&session).unwrap();
        (session, t)
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        t.set(&v, 1, 11).unwrap();
        assert_eq!(t.get(&v, 1).unwrap(), OpResult::Found(11));
        t.set(&v, 1, 12).unwrap();
        assert_eq!(t.get(&v, 1).unwrap(), OpResult::Found(12));
        assert_eq!(t.del(&v, 1).unwrap(), OpResult::Done);
        assert_eq!(t.get(&v, 1).unwrap(), OpResult::Missing);
        assert!(t.is_empty());
    }

    #[test]
    fn add_and_replace_semantics() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        assert_eq!(t.replace(&v, 5, 1).unwrap(), OpResult::Missing);
        assert_eq!(t.add(&v, 5, 1).unwrap(), OpResult::Done);
        assert_eq!(t.add(&v, 5, 2).unwrap(), OpResult::Missing);
        assert_eq!(t.replace(&v, 5, 2).unwrap(), OpResult::Done);
        assert_eq!(t.get(&v, 5).unwrap(), OpResult::Found(2));
    }

    #[test]
    fn rmw_incr_decr() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        t.set(&v, 7, 10).unwrap();
        assert_eq!(
            t.exec(&v, &Op::Incr { key: 7, by: 5 }).unwrap(),
            OpResult::Found(15)
        );
        assert_eq!(
            t.exec(&v, &Op::Decr { key: 7, by: 100 }).unwrap(),
            OpResult::Found(0)
        );
        assert_eq!(
            t.exec(&v, &Op::Incr { key: 99, by: 1 }).unwrap(),
            OpResult::Missing
        );
    }

    #[test]
    fn eviction_keeps_store_bounded() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        for k in 1..=(MAX_ITEMS as u64 + 20) {
            t.set(&v, k, k).unwrap();
        }
        assert!(t.len() <= MAX_ITEMS + 1);
        // The most recent keys survive.
        let last = MAX_ITEMS as u64 + 20;
        assert_eq!(t.get(&v, last).unwrap(), OpResult::Found(last));
    }

    #[test]
    fn new_item_value_is_lost_on_crash_missing_flush_bug() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        t.set(&v, 42, 777).unwrap(); // new-item path: value flush missing
        let img = s.pool().crash_image().unwrap();
        let pool2 = Arc::new(Pool::from_crash_image(&img).unwrap());
        let s2 = Session::new(pool2, SessionConfig::default());
        let t2 = MemKv::recover(&s2).unwrap();
        let v2 = s2.view(ThreadId(0));
        // The item header persisted (key found) but the value did not —
        // the durable consequence of bugs 9/10's missing flush.
        assert_eq!(t2.get(&v2, 42).unwrap(), OpResult::Found(0));
    }

    #[test]
    fn byte_values_roundtrip_and_carry_taint_when_unflushed() {
        let (s, t) = fresh();
        let w = s.view(ThreadId(0));
        let data = TBytes::from(b"hello pm world".as_slice());
        assert_eq!(t.set_bytes(&w, 9, &data).unwrap(), OpResult::Done);
        // Another thread reads the bytes while the value line is unflushed
        // (the new-item path misses the flush): tainted.
        let r = s.view(ThreadId(1));
        let got = t.get_bytes(&r, 9).unwrap().unwrap();
        assert_eq!(got.bytes(), data.bytes());
        assert!(got.is_tainted(), "unflushed value bytes must carry taint");
        // Oversized values are rejected.
        let big = TBytes::from(vec![0u8; VBYTES_CAP + 1]);
        assert_eq!(t.set_bytes(&w, 10, &big).unwrap(), OpResult::Missing);
        assert!(t.get_bytes(&w, 10).unwrap().is_none());
    }

    #[test]
    fn recovery_rebuilds_index_from_slabs() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        for k in 1..=10u64 {
            t.set(&v, k, 1).unwrap();
            // Second set takes the replace path, which does flush values.
            t.set(&v, k, k * 5).unwrap();
        }
        t.del(&v, 3).unwrap();
        let img = s.pool().crash_image().unwrap();
        let pool2 = Arc::new(Pool::from_crash_image(&img).unwrap());
        let s2 = Session::new(pool2, SessionConfig::default());
        let t2 = MemKv::recover(&s2).unwrap();
        let v2 = s2.view(ThreadId(0));
        for k in 1..=10u64 {
            let want = if k == 3 {
                OpResult::Missing
            } else {
                OpResult::Found(k * 5)
            };
            assert_eq!(t2.get(&v2, k).unwrap(), want, "key {k}");
        }
    }

    #[test]
    fn recovery_overwrites_link_fields() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        t.set(&v, 1, 1).unwrap();
        t.set(&v, 2, 2).unwrap();
        let img = s.pool().crash_image().unwrap();
        let pool2 = Arc::new(Pool::from_crash_image(&img).unwrap());
        let s2 = Session::new(pool2, SessionConfig::default());
        let _t2 = MemKv::recover(&s2).unwrap();
        // Recovery must have stored to next/prev granules of live items:
        // that is what post-failure validation checks for.
        assert!(
            !s2.stored_granules().is_empty(),
            "recovery must rewrite link fields"
        );
        let f = s2.finish();
        assert!(
            f.candidates.is_empty(),
            "recovery reads persisted data only"
        );
    }

    #[test]
    fn rmw_on_unflushed_value_is_bug9_shape() {
        let (s, t) = fresh();
        let w = s.view(ThreadId(0));
        let r = s.view(ThreadId(1));
        t.set(&w, 4, 100).unwrap();
        // Dirty the value from thread 0 without flushing (replace path
        // defers the flush until after LRU work; emulate mid-window state).
        w.store_u64(
            {
                let it = *t.index.lock().get(&4).unwrap();
                it + I_VALUE
            },
            123u64,
            pmrace_runtime::site!("memcached.c:4292.store_value"),
        )
        .unwrap();
        // Thread 1 increments: reads the unflushed value, writes another.
        let got = t.rmw(&r, 4, |v| v + 1u64).unwrap();
        assert_eq!(got, OpResult::Found(124));
        let f = s.finish();
        let bug9 = f.inconsistencies.iter().any(|i| {
            pmrace_runtime::site_label(i.candidate.read_site).contains("2805")
                && pmrace_runtime::site_label(i.effect_site).contains("4292")
                && !i.whitelisted
        });
        assert!(bug9, "bug 9 inter inconsistency not detected");
    }
}
