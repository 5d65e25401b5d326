//! Clevel hashing: lock-free concurrent level hashing for PM (Table 1,
//! row 2).
//!
//! Two slot arrays (a big bottom level and a half-size top level); inserts
//! claim key slots with CAS, lookups scan both levels bottom-to-top,
//! deletes CAS keys back to empty. No locks anywhere — the paper found **no
//! bugs** in clevel, but it is the showcase for false-positive reduction:
//! the index is constructed inside a PMDK transaction, and the constructor
//! reads its own not-yet-persisted `meta` pointer to allocate the levels
//! (Fig. 7). PMRace detects those inconsistencies, and both the default
//! whitelist (`pmdk_tx_alloc` sites) and post-failure validation (recovery
//! rebuilds the index, overwriting the side effects) classify them benign.

use std::sync::Arc;

use parking_lot::Mutex;
use pmrace_pmem::PmAllocator;
use pmrace_runtime::{site, PmView, RtError, Session, TU64};

use crate::util::hash64;
use crate::{Op, OpResult, Target, TargetSpec};

// Root layout.
const R_META: u64 = 0;
const ROOT_SIZE: usize = 64;

// Meta layout.
const M_FIRST_LEVEL: u64 = 0;
const M_LAST_LEVEL: u64 = 8;
const M_FIRST_CAP: u64 = 16;
const M_LAST_CAP: u64 = 24;
const META_SIZE: usize = 64;

const FIRST_LEVEL_SLOTS: u64 = 64;
const LAST_LEVEL_SLOTS: u64 = 32;
const PROBE: u64 = 4;

/// The clevel-hashing instance bound to a session's pool.
#[derive(Debug)]
pub struct Clevel {
    alloc: PmAllocator,
    meta: u64,
    /// Serializes level expansion (clevel's context-CAS retry loop,
    /// simplified; the volatile lock mirrors its single background
    /// rehashing thread).
    expand_lock: Mutex<()>,
}

/// Registration entry for the fuzzer.
pub static SPEC: TargetSpec = TargetSpec::new(
    "clevel",
    |session| Ok(Arc::new(Clevel::init(session)?) as Arc<dyn Target>),
    |session| Ok(Arc::new(Clevel::recover(session)?) as Arc<dyn Target>),
    || pmrace_pmem::PoolOpts::small().heavy(), // libpmemobj-style init
);

impl Clevel {
    /// Format the pool and construct the index inside a PMDK transaction —
    /// the Fig. 7 flow, including the benign read of the unflushed `meta`.
    ///
    /// # Errors
    ///
    /// Propagates pool/allocator errors.
    pub fn init(session: &Arc<Session>) -> Result<Self, RtError> {
        let view = session.view(pmrace_pmem::ThreadId(0));
        let alloc = PmAllocator::format(Arc::clone(session.pool()), view.tid())?;
        let root = alloc.alloc(ROOT_SIZE, view.tid())?;
        alloc.set_root(root, view.tid())?;

        // transaction::manual tx(pop); make_persistent<clevel_hash>() ...
        let tx = alloc.begin_tx(view.tid())?;
        let meta = tx.alloc(META_SIZE)?;
        // Store the meta pointer with a plain store (inside the tx, flushed
        // at commit in PMDK; transiently dirty here).
        view.store_u64(
            root + R_META,
            meta,
            site!("clevel.pmdk_tx_alloc.store_meta"),
        )?;
        // Fig. 7: read the *non-persisted* meta pointer back...
        let m = view.load_u64(root + R_META, site!("clevel.pmdk_tx_alloc.read_meta"))?;
        // ...and allocate the levels based on it: durable side effects on a
        // tainted address — benign under the tx, whitelisted by default.
        let first = tx.alloc((FIRST_LEVEL_SLOTS * 16) as usize)?;
        let last = tx.alloc((LAST_LEVEL_SLOTS * 16) as usize)?;
        view.ntstore_u64(
            m.clone() + M_FIRST_LEVEL,
            first,
            site!("clevel.pmdk_tx_alloc.first_level"),
        )?;
        view.ntstore_u64(
            m.clone() + M_LAST_LEVEL,
            last,
            site!("clevel.pmdk_tx_alloc.last_level"),
        )?;
        view.ntstore_u64(
            m.clone() + M_FIRST_CAP,
            FIRST_LEVEL_SLOTS,
            site!("clevel.pmdk_tx_alloc.first_cap"),
        )?;
        view.ntstore_u64(
            m.clone() + M_LAST_CAP,
            LAST_LEVEL_SLOTS,
            site!("clevel.pmdk_tx_alloc.last_cap"),
        )?;
        for s in 0..FIRST_LEVEL_SLOTS {
            view.ntstore_u64(first + s * 16, 0u64, site!("clevel.init.zero_first"))?;
            view.ntstore_u64(
                first + s * 16 + 8,
                0u64,
                site!("clevel.init.zero_first_val"),
            )?;
        }
        for s in 0..LAST_LEVEL_SLOTS {
            view.ntstore_u64(last + s * 16, 0u64, site!("clevel.init.zero_last"))?;
            view.ntstore_u64(last + s * 16 + 8, 0u64, site!("clevel.init.zero_last_val"))?;
        }
        view.persist(root + R_META, 8, site!("clevel.init.flush_meta"))?;
        tx.commit()?;
        Ok(Clevel {
            alloc,
            meta,
            expand_lock: Mutex::new(()),
        })
    }

    /// Reopen an existing pool: an interrupted construction transaction is
    /// rolled back by the allocator, after which the index is rebuilt —
    /// overwriting any side effects the constructor left behind.
    ///
    /// # Errors
    ///
    /// Propagates pool/allocator errors; a pool whose construction never
    /// committed is rebuilt from scratch.
    pub fn recover(session: &Arc<Session>) -> Result<Self, RtError> {
        let view = session.view(pmrace_pmem::ThreadId(0));
        let alloc = PmAllocator::open(Arc::clone(session.pool()), view.tid())?;
        let root = alloc.root()?;
        let meta = view
            .load_u64(root + R_META, site!("clevel.recover.read_meta"))?
            .value();
        if meta == 0 {
            // Construction never completed: rebuild (overwrites everything).
            drop(alloc);
            return Self::init(session);
        }
        Ok(Clevel {
            alloc,
            meta,
            expand_lock: Mutex::new(()),
        })
    }

    /// Level expansion (clevel's resize): allocate a doubled top level,
    /// rehash the bottom level's items into the remaining levels, and
    /// rotate the level pointers. Inline rather than in a background
    /// thread, but with the same two-level b2t search structure.
    fn expand(&self, view: &PmView) -> Result<(), RtError> {
        view.branch(site!("clevel.expand"));
        let _guard = self.expand_lock.lock();
        let (first, last, fcap, lcap) = self.levels(view)?;
        let new_cap = fcap * 2;
        let new_level = self
            .alloc
            .alloc((new_cap * 16) as usize, view.tid())
            .map_err(RtError::from)?;
        for s in 0..new_cap {
            view.ntstore_u64(new_level + s * 16, 0u64, site!("clevel.expand.zero_key"))?;
            view.ntstore_u64(
                new_level + s * 16 + 8,
                0u64,
                site!("clevel.expand.zero_val"),
            )?;
        }
        // Rehash the (old) bottom level into the new top or old top. The
        // rehasher only moves *persisted* items: moving a concurrently
        // CAS'd, still-unflushed pair would itself be a PM inter-thread
        // inconsistency (PMRace flagged exactly that in an earlier version
        // of this code), so it waits for in-flight slots to drain.
        for slot in 0..lcap {
            let koff = last.clone() + slot * 16;
            let k = view.spin_until(|| {
                let k = view.load_u64(koff.clone(), site!("clevel.expand.read_key"))?;
                Ok((!k.is_tainted()).then_some(k))
            })?;
            if k == 0u64 {
                continue;
            }
            let v = view.spin_until(|| {
                let v = view.load_u64(koff.clone() + 8u64, site!("clevel.expand.read_val"))?;
                Ok((!v.is_tainted()).then_some(v))
            })?;
            let mut placed = false;
            for (base, cap) in [(TU64::from(new_level), new_cap), (first.clone(), fcap)] {
                let start = hash64(k.value()) % cap;
                for p in 0..PROBE {
                    let dst = base.clone() + ((start + p) % cap) * 16;
                    let (claimed, _) =
                        view.cas_u64(dst.clone(), 0, k.clone(), site!("clevel.expand.claim"))?;
                    if claimed {
                        view.store_u64(
                            dst.clone() + 8u64,
                            v.clone(),
                            site!("clevel.expand.store_val"),
                        )?;
                        view.persist(dst, 16, site!("clevel.expand.flush"))?;
                        placed = true;
                        break;
                    }
                }
                if placed {
                    break;
                }
            }
        }
        // Rotate: old top becomes bottom; new level becomes top.
        view.ntstore_u64(
            self.meta + M_LAST_LEVEL,
            first.clone(),
            site!("clevel.expand.set_last"),
        )?;
        view.ntstore_u64(
            self.meta + M_LAST_CAP,
            fcap,
            site!("clevel.expand.set_last_cap"),
        )?;
        view.ntstore_u64(
            self.meta + M_FIRST_LEVEL,
            new_level,
            site!("clevel.expand.set_first"),
        )?;
        view.ntstore_u64(
            self.meta + M_FIRST_CAP,
            new_cap,
            site!("clevel.expand.set_first_cap"),
        )?;
        let _ = self.alloc.free(last.value(), view.tid());
        Ok(())
    }

    fn levels(&self, view: &PmView) -> Result<(TU64, TU64, u64, u64), RtError> {
        let first = view.load_u64(self.meta + M_FIRST_LEVEL, site!("clevel.read_first_level"))?;
        let last = view.load_u64(self.meta + M_LAST_LEVEL, site!("clevel.read_last_level"))?;
        let fcap = view
            .load_u64(self.meta + M_FIRST_CAP, site!("clevel.read_first_cap"))?
            .value();
        let lcap = view
            .load_u64(self.meta + M_LAST_CAP, site!("clevel.read_last_cap"))?
            .value();
        Ok((first, last, fcap.max(1), lcap.max(1)))
    }

    /// Lock-free insert: claim a key slot with CAS, then publish the value.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors; returns `Missing` when both levels'
    /// probe windows remain full after several level expansions (pool
    /// exhaustion).
    pub fn put(&self, view: &PmView, key: u64, value: u64) -> Result<OpResult, RtError> {
        view.branch(site!("clevel.put"));
        let (first, last, fcap, lcap) = self.levels(view)?;
        // Update in place if present (either level).
        for (base, cap) in [(first.clone(), fcap), (last.clone(), lcap)] {
            let start = hash64(key) % cap;
            for p in 0..PROBE {
                let koff = base.clone() + ((start + p) % cap) * 16;
                let k = view.load_u64(koff.clone(), site!("clevel.put.scan_key"))?;
                if k == key {
                    view.store_u64(koff.clone() + 8u64, value, site!("clevel.put.update_val"))?;
                    view.persist(koff + 8u64, 8, site!("clevel.put.flush_val"))?;
                    return Ok(OpResult::Done);
                }
            }
        }
        // Claim an empty slot bottom-to-top; expand and retry when both
        // levels' probe windows are full.
        for round in 0..4 {
            let (first, last, fcap, lcap) = self.levels(view)?;
            for (base, cap) in [(first, fcap), (last, lcap)] {
                let start = hash64(key) % cap;
                for p in 0..PROBE {
                    let koff = base.clone() + ((start + p) % cap) * 16;
                    let (claimed, _) =
                        view.cas_u64(koff.clone(), 0, key, site!("clevel.put.cas_key"))?;
                    if claimed {
                        view.store_u64(koff.clone() + 8u64, value, site!("clevel.put.store_val"))?;
                        view.persist(koff, 16, site!("clevel.put.flush_pair"))?;
                        return Ok(OpResult::Done);
                    }
                }
            }
            if round < 3 {
                self.expand(view)?;
            }
        }
        Ok(OpResult::Missing)
    }

    /// Lock-free bottom-to-top search.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn get(&self, view: &PmView, key: u64) -> Result<OpResult, RtError> {
        view.branch(site!("clevel.get"));
        let (first, last, fcap, lcap) = self.levels(view)?;
        for (base, cap) in [(first, fcap), (last, lcap)] {
            let start = hash64(key) % cap;
            for p in 0..PROBE {
                let koff = base.clone() + ((start + p) % cap) * 16;
                let k = view.load_u64(koff.clone(), site!("clevel.get.scan_key"))?;
                if k == key {
                    let v = view.load_u64(koff + 8u64, site!("clevel.get.read_val"))?;
                    return Ok(OpResult::Found(v.value()));
                }
            }
        }
        Ok(OpResult::Missing)
    }

    /// Lock-free delete: CAS the key slot back to empty.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn del(&self, view: &PmView, key: u64) -> Result<OpResult, RtError> {
        view.branch(site!("clevel.del"));
        let (first, last, fcap, lcap) = self.levels(view)?;
        for (base, cap) in [(first, fcap), (last, lcap)] {
            let start = hash64(key) % cap;
            for p in 0..PROBE {
                let koff = base.clone() + ((start + p) % cap) * 16;
                let (cleared, _) =
                    view.cas_u64(koff.clone(), key, 0, site!("clevel.del.cas_key"))?;
                if cleared {
                    view.persist(koff, 8, site!("clevel.del.flush"))?;
                    return Ok(OpResult::Done);
                }
            }
        }
        Ok(OpResult::Missing)
    }
}

impl Target for Clevel {
    fn name(&self) -> &'static str {
        "clevel"
    }

    fn exec(&self, view: &PmView, op: &Op) -> Result<OpResult, RtError> {
        match *op {
            Op::Insert { key, value } | Op::Update { key, value } => {
                self.put(view, key.max(1), value)
            }
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
    use pmrace_runtime::SessionConfig;

    fn fresh() -> (Arc<Session>, Clevel) {
        let session = Session::new(
            Arc::new(Pool::new(PoolOpts::small())),
            SessionConfig::default(),
        );
        let t = Clevel::init(&session).unwrap();
        (session, t)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        t.put(&v, 4, 44).unwrap();
        assert_eq!(t.get(&v, 4).unwrap(), OpResult::Found(44));
        t.put(&v, 4, 45).unwrap();
        assert_eq!(t.get(&v, 4).unwrap(), OpResult::Found(45));
        assert_eq!(t.del(&v, 4).unwrap(), OpResult::Done);
        assert_eq!(t.get(&v, 4).unwrap(), OpResult::Missing);
    }

    #[test]
    fn construction_inconsistencies_are_whitelisted() {
        let (s, _t) = fresh();
        let f = s.finish();
        assert!(
            !f.inconsistencies.is_empty(),
            "Fig. 7 construction flow must raise inconsistencies"
        );
        assert!(
            f.inconsistencies.iter().all(|i| i.whitelisted),
            "all construction inconsistencies must be whitelisted: {:?}",
            f.inconsistencies
                .iter()
                .filter(|i| !i.whitelisted)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn interrupted_construction_rebuilds_on_recovery() {
        let session = Session::new(
            Arc::new(Pool::new(PoolOpts::small())),
            SessionConfig::default(),
        );
        let view = session.view(ThreadId(0));
        let alloc = PmAllocator::format(Arc::clone(session.pool()), view.tid()).unwrap();
        let root = alloc.alloc(ROOT_SIZE, view.tid()).unwrap();
        alloc.set_root(root, view.tid()).unwrap();
        let tx = alloc.begin_tx(view.tid()).unwrap();
        let _meta = tx.alloc(META_SIZE).unwrap();
        // Crash with the tx open and root.meta never persisted.
        let img = session.pool().crash_image().unwrap();
        let pool2 = Arc::new(Pool::from_crash_image(&img).unwrap());
        let s2 = Session::new(pool2, SessionConfig::default());
        let t2 = Clevel::recover(&s2).unwrap();
        let v2 = s2.view(ThreadId(0));
        t2.put(&v2, 9, 90).unwrap();
        assert_eq!(t2.get(&v2, 9).unwrap(), OpResult::Found(90));
    }

    #[test]
    fn data_survives_crash_recovery() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        for k in 1..=30u64 {
            t.put(&v, k, k * 2).unwrap();
        }
        let img = s.pool().crash_image().unwrap();
        let pool2 = Arc::new(Pool::from_crash_image(&img).unwrap());
        let s2 = Session::new(pool2, SessionConfig::default());
        let t2 = Clevel::recover(&s2).unwrap();
        let v2 = s2.view(ThreadId(0));
        for k in 1..=30u64 {
            assert_eq!(t2.get(&v2, k).unwrap(), OpResult::Found(k * 2), "key {k}");
        }
    }

    #[test]
    fn expansion_grows_past_the_initial_capacity() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        // Far beyond the initial 64+32 slots: expansion must absorb it all.
        for k in 1..=400u64 {
            assert_eq!(t.put(&v, k, k * 3).unwrap(), OpResult::Done, "put {k}");
        }
        for k in 1..=400u64 {
            assert_eq!(t.get(&v, k).unwrap(), OpResult::Found(k * 3), "get {k}");
        }
    }

    #[test]
    fn expanded_table_survives_crash_recovery() {
        let (s, t) = fresh();
        let v = s.view(ThreadId(0));
        for k in 1..=200u64 {
            t.put(&v, k, k + 9).unwrap();
        }
        let img = s.pool().crash_image().unwrap();
        let pool2 = Arc::new(Pool::from_crash_image(&img).unwrap());
        let s2 = Session::new(pool2, SessionConfig::default());
        let t2 = Clevel::recover(&s2).unwrap();
        let v2 = s2.view(ThreadId(0));
        for k in 1..=200u64 {
            assert_eq!(t2.get(&v2, k).unwrap(), OpResult::Found(k + 9), "key {k}");
        }
    }
}
