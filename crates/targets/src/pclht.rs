//! P-CLHT: persistent cache-line hash table from RECIPE (Table 1, row 1).
//!
//! Bucket-grained locking with lock-free search; resizing allocates a bigger
//! table and migrates all items. Faithfully carries the five bugs PMRace
//! found (Table 2):
//!
//! 1. **Inter** — resize publishes the new table pointer (`ht_off`) with a
//!    plain store and flushes it later; a concurrent `put` reads the
//!    unflushed pointer and inserts into the new table. A crash before the
//!    flush recovers the *old* table: the insert is lost.
//! 2. **Sync** — bucket locks live in PM and are not reinitialized by
//!    recovery: a lock persisted in locked state hangs post-restart writers.
//! 3. **Intra** — resize stores `table_new` unflushed, then GC reads it back
//!    and durably logs it: after a crash the allocation leaks.
//! 4. **Other** — `put` rewrites the key slot even when unchanged; searchers
//!    read the transiently unflushed key (redundant PM write, reported as a
//!    candidate).
//! 5. **Other** — `update` forgets to release the bucket lock on the
//!    found-key path: a classic DRAM concurrency bug causing hangs.
//!
//! Site labels mirror the paper's `file:line` bug coordinates so generated
//! reports read like Table 2.

use std::sync::Arc;

use pmrace_pmem::PmAllocator;
use pmrace_runtime::{site, PmView, RtError, Session, Site, SyncVarAnnotation, TU64};

use crate::util::{hash64, pm_lock_acquire, pm_lock_release};
use crate::{Op, OpResult, Target, TargetSpec};

// Root object layout.
const R_HT_OFF: u64 = 0;
const R_RESIZE_LOCK: u64 = 8;
const R_GC_LOCK: u64 = 16;
const R_STATUS: u64 = 24;
const R_GC_LOG: u64 = 32;
const ROOT_SIZE: usize = 64;

// Table header layout.
const T_NBUCKETS: u64 = 0;
const T_TABLE_NEW: u64 = 8;
const T_SEALED: u64 = 16;
const T_BUCKETS: u64 = 24;

// Bucket layout: lock, 3 (key, value) slots, chain pointer — the chained
// hash structure of the original (§2.3.2: "concurrent chained hash index").
const B_LOCK: u64 = 0;
const B_SLOTS: u64 = 8;
const B_NEXT: u64 = 56;
const SLOTS: u64 = 3;
const BUCKET_SIZE: u64 = 64;
/// Chain-length threshold: one overflow bucket per root bucket; a longer
/// chain triggers the resize ("if the number of allocated buckets for
/// chained linked lists exceeds a threshold, P-CLHT is resized").
const MAX_CHAIN: u64 = 1;

// Small initial table (like the evaluation drivers, which size the table to
// make resizing reachable within a fuzz campaign).
const INITIAL_BUCKETS: u64 = 4;

/// The P-CLHT instance bound to a session's pool.
#[derive(Debug)]
pub struct Pclht {
    alloc: PmAllocator,
    root: u64,
}

/// Registration entry for the fuzzer.
pub static SPEC: TargetSpec = TargetSpec::new(
    "P-CLHT",
    |session| Ok(Arc::new(Pclht::init(session)?) as Arc<dyn Target>),
    |session| Ok(Arc::new(Pclht::recover(session)?) as Arc<dyn Target>),
    || pmrace_pmem::PoolOpts::small().heavy(), // libpmemobj-style init
);

impl Pclht {
    /// Format the session's pool and build an empty table.
    ///
    /// # Errors
    ///
    /// Propagates pool/allocator errors.
    pub fn init(session: &Arc<Session>) -> Result<Self, RtError> {
        let view = session.view(pmrace_pmem::ThreadId(0));
        let alloc = PmAllocator::format(Arc::clone(session.pool()), view.tid())?;
        let root = alloc.alloc(ROOT_SIZE, view.tid())?;
        alloc.set_root(root, view.tid())?;
        let table = Self::alloc_table(&alloc, &view, INITIAL_BUCKETS)?;
        view.ntstore_u64(root + R_HT_OFF, table, site!("clht.init.ht_off"))?;
        view.ntstore_u64(root + R_RESIZE_LOCK, 0u64, site!("clht.init.resize_lock"))?;
        view.ntstore_u64(root + R_GC_LOCK, 0u64, site!("clht.init.gc_lock"))?;
        view.ntstore_u64(root + R_STATUS, 0u64, site!("clht.init.status"))?;
        view.ntstore_u64(root + R_GC_LOG, 0u64, site!("clht.init.gc_log"))?;
        let this = Pclht { alloc, root };
        this.register_annotations(session, table);
        Ok(this)
    }

    /// Reopen an existing pool, running P-CLHT's recovery: global locks and
    /// status are reinitialized — but **bucket locks are not** (Bug 2).
    ///
    /// # Errors
    ///
    /// Propagates pool/allocator errors.
    pub fn recover(session: &Arc<Session>) -> Result<Self, RtError> {
        let view = session.view(pmrace_pmem::ThreadId(0));
        let alloc = PmAllocator::open(Arc::clone(session.pool()), view.tid())?;
        let root = alloc.root()?;
        view.ntstore_u64(
            root + R_RESIZE_LOCK,
            0u64,
            site!("clht.recover.resize_lock"),
        )?;
        view.ntstore_u64(root + R_GC_LOCK, 0u64, site!("clht.recover.gc_lock"))?;
        view.ntstore_u64(root + R_STATUS, 0u64, site!("clht.recover.status"))?;
        // NOTE (Bug 2): bucket locks are persistent but never reinitialized
        // here; a lock that crashed in the locked state stays locked.
        let table = view
            .load_u64(root + R_HT_OFF, site!("clht.recover.read_ht_off"))?
            .value();
        let this = Pclht { alloc, root };
        this.register_annotations(session, table);
        Ok(this)
    }

    fn register_annotations(&self, session: &Arc<Session>, table: u64) {
        session.annotate_sync_var(SyncVarAnnotation {
            name: "clht.resize_lock".into(),
            off: self.root + R_RESIZE_LOCK,
            size: 8,
            init_val: 0,
        });
        session.annotate_sync_var(SyncVarAnnotation {
            name: "clht.gc_lock".into(),
            off: self.root + R_GC_LOCK,
            size: 8,
            init_val: 0,
        });
        session.annotate_sync_var(SyncVarAnnotation {
            name: "clht.table_status".into(),
            off: self.root + R_STATUS,
            size: 8,
            init_val: 0,
        });
        // Representative bucket lock (the C code annotates the lock field of
        // the bucket struct; we pin the first bucket of the live table).
        session.annotate_sync_var(SyncVarAnnotation {
            name: "clht.bucket_lock".into(),
            off: table + T_BUCKETS + B_LOCK,
            size: 8,
            init_val: 0,
        });
    }

    fn alloc_table(alloc: &PmAllocator, view: &PmView, nbuckets: u64) -> Result<u64, RtError> {
        let size = (T_BUCKETS + nbuckets * BUCKET_SIZE) as usize;
        let table = alloc.alloc(size, view.tid())?;
        view.ntstore_u64(table + T_NBUCKETS, nbuckets, site!("clht.table.nbuckets"))?;
        view.ntstore_u64(table + T_TABLE_NEW, 0u64, site!("clht.table.table_new"))?;
        view.ntstore_u64(table + T_SEALED, 0u64, site!("clht.table.sealed"))?;
        for b in 0..nbuckets {
            let base = table + T_BUCKETS + b * BUCKET_SIZE;
            for w in 0..(BUCKET_SIZE / 8) {
                view.ntstore_u64(base + w * 8, 0u64, site!("clht.table.zero_bucket"))?;
            }
        }
        Ok(table)
    }

    fn bucket_off(table: &TU64, nbuckets: &TU64, key: u64) -> TU64 {
        let idx = hash64(key) % nbuckets.value().max(1);
        table.clone() + T_BUCKETS + idx * BUCKET_SIZE
    }

    /// Allocate a zeroed overflow bucket for a chain.
    fn alloc_chain_bucket(&self, view: &PmView) -> Result<u64, RtError> {
        let b = self.alloc.alloc(BUCKET_SIZE as usize, view.tid())?;
        for w in 0..(BUCKET_SIZE / 8) {
            view.ntstore_u64(b + w * 8, 0u64, site!("clht.chain.zero"))?;
        }
        Ok(b)
    }

    /// Walk a bucket chain looking for `key` and the first free slot.
    /// Returns `(found_koff, free_koff, last_bucket, depth)`. Lock-free;
    /// the chain pointer loads propagate taint like any PM pointer.
    fn scan_chain(
        &self,
        view: &PmView,
        root: &TU64,
        key: u64,
    ) -> Result<(Option<TU64>, Option<TU64>, TU64, u64), RtError> {
        let mut bucket = root.clone();
        let mut free: Option<TU64> = None;
        let mut depth = 0u64;
        loop {
            view.check()?;
            for s in 0..SLOTS {
                let koff = bucket.clone() + B_SLOTS + s * 16;
                let k = view.load_u64(koff.clone(), site!("clht_lb_res.c:616.read_key"))?;
                if k == key {
                    return Ok((Some(koff), free, bucket, depth));
                }
                if k == 0u64 && free.is_none() {
                    free = Some(koff);
                }
            }
            let next = view.load_u64(bucket.clone() + B_NEXT, site!("clht.read_chain_next"))?;
            if next == 0u64 || depth >= 8 {
                return Ok((None, free, bucket, depth));
            }
            bucket = next;
            depth += 1;
        }
    }

    /// Load the current table pointer — the read side of Bug 1
    /// (`clht_lb_res.c:417`): the pointer may be another thread's unflushed
    /// store.
    fn read_table(&self, view: &PmView) -> Result<(TU64, TU64), RtError> {
        let table = view.load_u64(self.root + R_HT_OFF, site!("clht_lb_res.c:417.read_ht_off"))?;
        let nbuckets = view.load_u64(table.clone() + T_NBUCKETS, site!("clht.read_nbuckets"))?;
        Ok((table, nbuckets))
    }

    /// Wait until the table pointer no longer names the sealed `table`: its
    /// resizer has published the new one. A wait, not a retry loop, so a
    /// resize that never publishes (its resizer hung or finished without
    /// swapping) is judged by the session's all-waiting rule.
    fn await_swap(&self, view: &PmView, table: u64, site: Site) -> Result<(), RtError> {
        view.spin_until(|| {
            let current = view.load_u64(self.root + R_HT_OFF, site)?;
            Ok((current != table).then_some(()))
        })
    }

    /// Insert or overwrite `key -> value`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors ([`RtError::Timeout`] on hangs).
    pub fn put(&self, view: &PmView, key: u64, value: u64) -> Result<OpResult, RtError> {
        view.branch(site!("clht.put"));
        loop {
            let (table, nbuckets) = self.read_table(view)?;
            let bucket = Self::bucket_off(&table, &nbuckets, key);
            let lock_site = site!("clht_lb_res.c:429.bucket_lock");
            pm_lock_acquire(view, bucket.value() + B_LOCK, lock_site, true)?;
            let sealed = view.load_u64(table.clone() + T_SEALED, site!("clht.put.read_sealed"))?;
            if sealed == 1u64 {
                // Resize in progress on this table: release, wait for the
                // resizer to publish the new table, and retry on it.
                pm_lock_release(
                    view,
                    bucket.value() + B_LOCK,
                    site!("clht.put.unlock_sealed"),
                    true,
                )?;
                self.await_swap(view, table.value(), site!("clht.put.await_swap"))?;
                continue;
            }
            // Scan the bucket chain for the key or a free slot.
            let (found, free, last, depth) = self.scan_chain(view, &bucket, key)?;
            if let Some(koff) = found {
                let voff = koff.clone() + 8u64;
                view.store_u64(voff.clone(), value, site!("clht.put.store_val"))?;
                // Bug 4: the key slot is rewritten although unchanged —
                // a redundant PM write searchers can observe unflushed.
                view.store_u64(koff.clone(), key, site!("clht_lb_res.c:321.store_key"))?;
                view.persist(koff, 24, site!("clht.put.flush_slot"))?;
                pm_lock_release(
                    view,
                    bucket.value() + B_LOCK,
                    site!("clht.put.unlock"),
                    true,
                )?;
                return Ok(OpResult::Done);
            }
            if let Some(koff) = free {
                let voff = koff.clone() + 8u64;
                // Writing through `koff` derived from an unflushed table
                // pointer is the durable side effect of Bug 1.
                view.store_u64(voff, value, site!("clht_lb_res.c:489.store_val"))?;
                view.store_u64(koff.clone(), key, site!("clht_lb_res.c:321.store_key"))?;
                view.persist(koff, 24, site!("clht.put.flush_slot"))?;
                pm_lock_release(
                    view,
                    bucket.value() + B_LOCK,
                    site!("clht.put.unlock"),
                    true,
                )?;
                return Ok(OpResult::Done);
            }
            if depth < MAX_CHAIN {
                // Chain a fresh overflow bucket and insert into it.
                let nb = self.alloc_chain_bucket(view)?;
                view.ntstore_u64(
                    nb + B_SLOTS + 8,
                    value,
                    site!("clht_lb_res.c:489.store_val"),
                )?;
                view.ntstore_u64(nb + B_SLOTS, key, site!("clht_lb_res.c:321.store_key"))?;
                view.store_u64(last.clone() + B_NEXT, nb, site!("clht.put.link_chain"))?;
                view.persist(last + B_NEXT, 8, site!("clht.put.flush_chain"))?;
                pm_lock_release(
                    view,
                    bucket.value() + B_LOCK,
                    site!("clht.put.unlock"),
                    true,
                )?;
                return Ok(OpResult::Done);
            }
            // Chain threshold exceeded: resize and retry.
            pm_lock_release(
                view,
                bucket.value() + B_LOCK,
                site!("clht.put.unlock_full"),
                true,
            )?;
            self.resize(view, table.value())?;
        }
    }

    /// Lock-free search.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn get(&self, view: &PmView, key: u64) -> Result<OpResult, RtError> {
        view.branch(site!("clht.get"));
        let (table, nbuckets) = self.read_table(view)?;
        let bucket = Self::bucket_off(&table, &nbuckets, key);
        let (found, _, _, _) = self.scan_chain(view, &bucket, key)?;
        if let Some(koff) = found {
            let v = view.load_u64(koff + 8u64, site!("clht.get.read_val"))?;
            return Ok(OpResult::Found(v.value()));
        }
        Ok(OpResult::Missing)
    }

    /// Delete a key.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn del(&self, view: &PmView, key: u64) -> Result<OpResult, RtError> {
        view.branch(site!("clht.del"));
        loop {
            let (table, nbuckets) = self.read_table(view)?;
            let bucket = Self::bucket_off(&table, &nbuckets, key);
            pm_lock_acquire(view, bucket.value() + B_LOCK, site!("clht.del.lock"), true)?;
            let sealed = view.load_u64(table.clone() + T_SEALED, site!("clht.del.read_sealed"))?;
            if sealed == 1u64 {
                pm_lock_release(
                    view,
                    bucket.value() + B_LOCK,
                    site!("clht.del.unlock_sealed"),
                    true,
                )?;
                self.await_swap(view, table.value(), site!("clht.del.await_swap"))?;
                continue;
            }
            let (found, _, _, _) = self.scan_chain(view, &bucket, key)?;
            let hit = found.is_some();
            if let Some(koff) = found {
                view.store_u64(koff.clone(), 0u64, site!("clht.del.clear_key"))?;
                view.persist(koff, 8, site!("clht.del.flush"))?;
            }
            pm_lock_release(
                view,
                bucket.value() + B_LOCK,
                site!("clht.del.unlock"),
                true,
            )?;
            return Ok(if hit {
                OpResult::Done
            } else {
                OpResult::Missing
            });
        }
    }

    /// Update an existing key. Carries Bug 5: the found-key path returns
    /// **without releasing the bucket lock**, hanging later accesses to the
    /// bucket (`clht_lb_res.c:526`).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn update(&self, view: &PmView, key: u64, value: u64) -> Result<OpResult, RtError> {
        view.branch(site!("clht.update"));
        let (table, nbuckets) = self.read_table(view)?;
        let bucket = Self::bucket_off(&table, &nbuckets, key);
        pm_lock_acquire(
            view,
            bucket.value() + B_LOCK,
            site!("clht.update.lock"),
            true,
        )?;
        let (found, _, _, _) = self.scan_chain(view, &bucket, key)?;
        if let Some(koff) = found {
            let voff = koff + 8u64;
            let old = view.load_u64(voff.clone(), site!("clht.update.read_val"))?;
            if old == value {
                // Bug 5: the idempotent-update early return forgets
                // pm_lock_release (`clht_lb_res.c:526`) — later
                // accesses to this bucket hang.
                return Ok(OpResult::Done);
            }
            view.store_u64(voff.clone(), value, site!("clht_lb_res.c:526.update_val"))?;
            view.persist(voff, 8, site!("clht.update.flush"))?;
            pm_lock_release(
                view,
                bucket.value() + B_LOCK,
                site!("clht.update.unlock_found"),
                true,
            )?;
            return Ok(OpResult::Done);
        }
        pm_lock_release(
            view,
            bucket.value() + B_LOCK,
            site!("clht.update.unlock"),
            true,
        )?;
        Ok(OpResult::Missing)
    }

    /// Insert one migrated item into the (not yet published) new table,
    /// chaining overflow buckets as needed. Non-temporal stores keep the
    /// new table crash-consistent during migration.
    fn migrate_insert(
        &self,
        view: &PmView,
        new_table: u64,
        new_nb: u64,
        k: &TU64,
        v: &TU64,
    ) -> Result<(), RtError> {
        let nt = TU64::from(new_table);
        let nnb = TU64::from(new_nb);
        let root = Self::bucket_off(&nt, &nnb, k.value());
        // Sentinel key that can never match: we only want the free slot.
        let (_, free, last, _) = self.scan_chain(view, &root, u64::MAX)?;
        if let Some(nkoff) = free {
            view.ntstore_u64(nkoff.clone(), k.clone(), site!("clht.resize.migrate_key"))?;
            view.ntstore_u64(nkoff + 8u64, v.clone(), site!("clht.resize.migrate_val"))?;
            return Ok(());
        }
        let nb = self.alloc_chain_bucket(view)?;
        view.ntstore_u64(nb + B_SLOTS, k.clone(), site!("clht.resize.migrate_key"))?;
        view.ntstore_u64(
            nb + B_SLOTS + 8,
            v.clone(),
            site!("clht.resize.migrate_val"),
        )?;
        view.ntstore_u64(
            last.value() + B_NEXT,
            nb,
            site!("clht.resize.migrate_chain"),
        )?;
        Ok(())
    }

    /// Resize: allocate a doubled table, migrate, publish, GC the old table.
    fn resize(&self, view: &PmView, old_table: u64) -> Result<(), RtError> {
        view.branch(site!("clht.resize"));
        pm_lock_acquire(
            view,
            self.root + R_RESIZE_LOCK,
            site!("clht.resize.lock"),
            true,
        )?;
        // Another thread may have resized while we waited.
        let current = view
            .load_u64(self.root + R_HT_OFF, site!("clht.resize.recheck"))?
            .value();
        if current != old_table {
            pm_lock_release(
                view,
                self.root + R_RESIZE_LOCK,
                site!("clht.resize.unlock_raced"),
                true,
            )?;
            return Ok(());
        }
        view.store_u64(self.root + R_STATUS, 1u64, site!("clht.resize.status_on"))?;
        view.persist(self.root + R_STATUS, 8, site!("clht.resize.flush_status"))?;

        // Seal the old table: writers locked out from here on.
        view.ntstore_u64(old_table + T_SEALED, 1u64, site!("clht.resize.seal"))?;

        let old_nb = view
            .load_u64(old_table + T_NBUCKETS, site!("clht.resize.read_nb"))?
            .value();
        let new_nb = old_nb * 2;
        let new_table = Self::alloc_table(&self.alloc, view, new_nb)?;

        // Migrate under bucket locks so in-flight writers drain first; walk
        // each root bucket's whole chain.
        for b in 0..old_nb {
            let root = old_table + T_BUCKETS + b * BUCKET_SIZE;
            pm_lock_acquire(
                view,
                root + B_LOCK,
                site!("clht.resize.migrate_lock"),
                false,
            )?;
            let mut bucket = TU64::from(root);
            let mut depth = 0;
            loop {
                for s in 0..SLOTS {
                    let koff = bucket.clone() + B_SLOTS + s * 16;
                    let k = view.load_u64(koff.clone(), site!("clht.resize.read_item"))?;
                    if k == 0u64 {
                        continue;
                    }
                    let v = view.load_u64(koff + 8u64, site!("clht.resize.read_item_val"))?;
                    self.migrate_insert(view, new_table, new_nb, &k, &v)?;
                }
                let next =
                    view.load_u64(bucket.clone() + B_NEXT, site!("clht.resize.read_chain"))?;
                if next == 0u64 || depth >= 8 {
                    break;
                }
                bucket = next;
                depth += 1;
            }
            pm_lock_release(
                view,
                root + B_LOCK,
                site!("clht.resize.migrate_unlock"),
                false,
            )?;
        }

        // Bug 3 setup: `table_new` stored but not flushed before GC reads it.
        view.store_u64(
            old_table + T_TABLE_NEW,
            new_table,
            site!("clht_lb_res.c:789.store_table_new"),
        )?;

        // Bug 1: publish the new table with a plain store; the flush comes
        // after — and the scheduler's writer stall sits exactly in between.
        view.store_u64(
            self.root + R_HT_OFF,
            new_table,
            site!("clht_lb_res.c:785.swap_ht_off"),
        )?;
        view.persist(
            self.root + R_HT_OFF,
            8,
            site!("clht_lb_res.c:786.flush_ht_off"),
        )?;

        self.gc(view, old_table)?;

        view.store_u64(self.root + R_STATUS, 0u64, site!("clht.resize.status_off"))?;
        view.persist(
            self.root + R_STATUS,
            8,
            site!("clht.resize.flush_status_off"),
        )?;
        pm_lock_release(
            view,
            self.root + R_RESIZE_LOCK,
            site!("clht.resize.unlock"),
            true,
        )?;
        Ok(())
    }

    /// Garbage-collect the old table. Bug 3: reads its own unflushed
    /// `table_new` pointer and durably logs it — a PM Intra-thread
    /// Inconsistency that leaks the new table after a crash.
    fn gc(&self, view: &PmView, old_table: u64) -> Result<(), RtError> {
        pm_lock_acquire(view, self.root + R_GC_LOCK, site!("clht.gc.lock"), true)?;
        let table_new = view.load_u64(
            old_table + T_TABLE_NEW,
            site!("clht_gc.c:190.read_table_new"),
        )?;
        // Durable side effect based on the unflushed pointer.
        view.ntstore_u64(
            self.root + R_GC_LOG,
            table_new,
            site!("clht_gc.c:195.store_gc_log"),
        )?;
        // Recycle the old table and its chain buckets (volatile free list).
        let old_nb = view
            .load_u64(old_table + T_NBUCKETS, site!("clht.gc.read_nb"))?
            .value();
        for b in 0..old_nb {
            let mut next = view
                .load_u64(
                    old_table + T_BUCKETS + b * BUCKET_SIZE + B_NEXT,
                    site!("clht.gc.read_chain"),
                )?
                .value();
            let mut depth = 0;
            while next != 0 && depth < 8 {
                let follow = view
                    .load_u64(next + B_NEXT, site!("clht.gc.read_chain"))?
                    .value();
                let _ = self.alloc.free(next, view.tid());
                next = follow;
                depth += 1;
            }
        }
        let _ = self.alloc.free(old_table, view.tid());
        pm_lock_release(view, self.root + R_GC_LOCK, site!("clht.gc.unlock"), true)?;
        Ok(())
    }
}

impl Target for Pclht {
    fn name(&self) -> &'static str {
        "P-CLHT"
    }

    fn exec(&self, view: &PmView, op: &Op) -> Result<OpResult, RtError> {
        match *op {
            Op::Insert { key, value } => self.put(view, key.max(1), value),
            Op::Update { key, value } => self.update(view, key.max(1), value),
            Op::Delete { key } => self.del(view, key.max(1)),
            Op::Get { key } => self.get(view, key.max(1)),
            Op::Incr { key, by } => {
                let key = key.max(1);
                match self.get(view, key)? {
                    OpResult::Found(v) => self.put(view, key, v.wrapping_add(by)),
                    _ => Ok(OpResult::Missing),
                }
            }
            Op::Decr { key, by } => {
                let key = key.max(1);
                match self.get(view, key)? {
                    OpResult::Found(v) => self.put(view, key, v.saturating_sub(by)),
                    _ => Ok(OpResult::Missing),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_pmem::{Pool, PoolOpts, ThreadId};
    use pmrace_runtime::{HangCause, SessionConfig};

    fn fresh() -> (Arc<Session>, Pclht) {
        let session = Session::new(
            Arc::new(Pool::new(PoolOpts::small())),
            SessionConfig::default(),
        );
        let t = Pclht::init(&session).unwrap();
        (session, t)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        assert_eq!(t.put(&v, 1, 100).unwrap(), OpResult::Done);
        assert_eq!(t.get(&v, 1).unwrap(), OpResult::Found(100));
        assert_eq!(t.put(&v, 1, 101).unwrap(), OpResult::Done);
        assert_eq!(t.get(&v, 1).unwrap(), OpResult::Found(101));
        assert_eq!(t.del(&v, 1).unwrap(), OpResult::Done);
        assert_eq!(t.get(&v, 1).unwrap(), OpResult::Missing);
        assert_eq!(t.del(&v, 1).unwrap(), OpResult::Missing);
    }

    #[test]
    fn resize_preserves_items() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        for k in 1..=120u64 {
            t.put(&v, k, k * 10).unwrap();
        }
        for k in 1..=120u64 {
            assert_eq!(t.get(&v, k).unwrap(), OpResult::Found(k * 10), "key {k}");
        }
    }

    #[test]
    fn update_hits_and_misses() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        assert_eq!(t.update(&v, 5, 1).unwrap(), OpResult::Missing);
        t.put(&v, 5, 1).unwrap();
        assert_eq!(t.update(&v, 5, 2).unwrap(), OpResult::Done);
        assert_eq!(t.get(&v, 5).unwrap(), OpResult::Found(2));
    }

    #[test]
    fn bug5_update_leaks_bucket_lock() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        t.put(&v, 7, 1).unwrap();
        t.update(&v, 7, 2).unwrap(); // value changes: lock released
        t.put(&v, 7, 9).unwrap(); // bucket still usable
        t.update(&v, 7, 9).unwrap(); // idempotent update: leaks the lock
                                     // A put to the same bucket now spins until the deadline.
        let s2 = Session::new(
            Arc::clone(s.pool()),
            SessionConfig {
                deadline: std::time::Duration::from_millis(100),
                ..SessionConfig::default()
            },
        );
        let t2 = Pclht::recover(&s2).unwrap(); // recovery keeps bucket locks!
        let v2 = s2.view(ThreadId(1));
        assert_eq!(t2.put(&v2, 7, 3).unwrap_err(), RtError::Timeout);
    }

    #[test]
    fn a_put_on_a_table_never_swapped_is_judged_by_the_all_waiting_rule() {
        // A resizer seals the table and finishes without publishing a new
        // one: a put on the sealed table waits for a swap that never comes.
        // The deadline is an hour, so only the all-waiting rule can end it.
        let s = Session::new(
            Arc::new(Pool::new(PoolOpts::small())),
            SessionConfig {
                deadline: std::time::Duration::from_secs(3600),
                ..SessionConfig::default()
            },
        );
        let t = Pclht::init(&s).unwrap();
        let writer = s.view(ThreadId(0));
        let resizer = s.view(ThreadId(1));
        let table = resizer
            .load_u64(t.root + R_HT_OFF, site!("test.resize.read_ht_off"))
            .unwrap();
        resizer
            .ntstore_u64(table + T_SEALED, 1u64, site!("test.resize.seal"))
            .unwrap();
        s.thread_done(resizer.tid());
        assert_eq!(t.put(&writer, 7, 1).unwrap_err(), RtError::Timeout);
        assert_eq!(s.hang_cause(), Some(HangCause::AllWaiting));
    }

    #[test]
    fn data_survives_crash_when_flushed() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        for k in 1..=10u64 {
            t.put(&v, k, k + 50).unwrap();
        }
        let img = s.pool().crash_image().unwrap();
        let pool2 = Arc::new(Pool::from_crash_image(&img).unwrap());
        let s2 = Session::new(pool2, SessionConfig::default());
        let t2 = Pclht::recover(&s2).unwrap();
        let v2 = s2.view(ThreadId(0));
        for k in 1..=10u64 {
            assert_eq!(t2.get(&v2, k).unwrap(), OpResult::Found(k + 50), "key {k}");
        }
    }

    #[test]
    fn four_sync_annotations_are_registered() {
        let (s, _t) = fresh();
        let names: Vec<String> = s.annotations().iter().map(|a| a.name.clone()).collect();
        assert_eq!(names.len(), 4);
        assert!(names.contains(&"clht.bucket_lock".to_owned()));
        assert!(names.contains(&"clht.resize_lock".to_owned()));
    }

    #[test]
    fn resize_produces_intra_inconsistency_bug3() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        for k in 1..=120u64 {
            t.put(&v, k, k).unwrap();
        }
        let f = s.finish();
        // GC read its own unflushed table_new and logged it durably.
        let intra: Vec<_> = f
            .inconsistencies
            .iter()
            .filter(|i| {
                i.candidate.kind == pmrace_runtime::report::CandidateKind::Intra
                    && pmrace_runtime::site_label(i.candidate.write_site).contains("789")
            })
            .collect();
        assert!(!intra.is_empty(), "bug 3 intra inconsistency not detected");
    }

    #[test]
    fn chains_hold_colliding_keys_before_resize() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        // Find 4+ keys that land in the same root bucket of the initial
        // 4-bucket table: they must chain (3 slots + overflow) without
        // losing anything.
        let mut colliding = Vec::new();
        let target_bucket = crate::util::hash64(1) % INITIAL_BUCKETS;
        for k in 1..200u64 {
            if crate::util::hash64(k) % INITIAL_BUCKETS == target_bucket {
                colliding.push(k);
            }
            if colliding.len() == 4 {
                break;
            }
        }
        assert_eq!(colliding.len(), 4);
        for (i, &k) in colliding.iter().enumerate() {
            t.put(&v, k, i as u64 + 100).unwrap();
        }
        for (i, &k) in colliding.iter().enumerate() {
            assert_eq!(
                t.get(&v, k).unwrap(),
                OpResult::Found(i as u64 + 100),
                "key {k}"
            );
        }
        // The 4th key lives in an overflow bucket; delete and reinsert it.
        let last = colliding[3];
        assert_eq!(t.del(&v, last).unwrap(), OpResult::Done);
        assert_eq!(t.get(&v, last).unwrap(), OpResult::Missing);
        t.put(&v, last, 999).unwrap();
        assert_eq!(t.get(&v, last).unwrap(), OpResult::Found(999));
    }

    #[test]
    fn gc_recycles_chain_buckets() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        for k in 1..=120u64 {
            t.put(&v, k, k).unwrap();
        }
        // After resizes + GC, live allocations are bounded: current table,
        // its chains, and the root — not every table ever allocated.
        let stats = t.alloc.stats();
        assert!(
            stats.live_allocs < 40,
            "chain buckets must be recycled: {stats:?}"
        );
    }

    #[test]
    fn exec_maps_zero_key_away_from_empty_marker() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        assert_eq!(
            t.exec(&v, &Op::Insert { key: 0, value: 9 }).unwrap(),
            OpResult::Done
        );
        assert_eq!(t.exec(&v, &Op::Get { key: 0 }).unwrap(), OpResult::Found(9));
        assert_eq!(
            t.exec(&v, &Op::Incr { key: 0, by: 1 }).unwrap(),
            OpResult::Done
        );
        assert_eq!(
            t.exec(&v, &Op::Get { key: 1 }).unwrap(),
            OpResult::Found(10)
        );
    }
}
