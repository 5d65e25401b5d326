//! Shared helpers for target implementations: PM spin locks and hashing.

use pmrace_runtime::{PmView, RtError, Site};

/// Fibonacci-style 64-bit hash used by all hash-based targets.
#[must_use]
pub fn hash64(key: u64) -> u64 {
    let mut h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    h
}

/// Acquire a word-sized spin lock stored *in PM* at `off` by CAS-ing 0 -> 1.
///
/// The lock word is persisted after acquisition when `persist_after` is set
/// — the pattern that creates *PM Synchronization Inconsistency* (the lock
/// survives a crash in locked state while the owning thread does not).
///
/// The wait is a [`PmView::spin_until`] over the CAS: a failed CAS stores
/// nothing.
///
/// # Errors
///
/// [`RtError::Timeout`] when the campaign hangs while this thread waits:
/// at once when every live driver thread waits on a lock nobody can
/// release (a leaked lock, how seeded deadlock bugs surface as hangs),
/// else when the deadline runs out.
pub fn pm_lock_acquire(
    view: &PmView,
    off: u64,
    site: Site,
    persist_after: bool,
) -> Result<(), RtError> {
    view.spin_until(|| Ok(view.cas_u64(off, 0, 1, site)?.0.then_some(())))?;
    if persist_after {
        view.persist(off, 8, site)?;
    }
    Ok(())
}

/// Release a PM spin lock; persists the release when `persist_after`.
///
/// # Errors
///
/// Propagates runtime errors.
pub fn pm_lock_release(
    view: &PmView,
    off: u64,
    site: Site,
    persist_after: bool,
) -> Result<(), RtError> {
    view.store_u64(off, 0u64, site)?;
    if persist_after {
        view.persist(off, 8, site)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_pmem::{Pool, PoolOpts, ThreadId};
    use pmrace_runtime::{site, Session, SessionConfig};
    use std::sync::Arc;

    #[test]
    fn hash_spreads_small_keys() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..64u64 {
            seen.insert(hash64(k) % 16);
        }
        assert!(seen.len() >= 12, "hash clusters small keys: {}", seen.len());
    }

    #[test]
    fn lock_roundtrip_and_mutual_exclusion() {
        let s = Session::new(
            Arc::new(Pool::new(PoolOpts::small())),
            SessionConfig::default(),
        );
        let a = s.view(ThreadId(0));
        pm_lock_acquire(&a, 64, site!("lk"), true).unwrap();
        // Second acquisition must fail until release. `b` is the only
        // driver of its session and waits on a lock nobody in it can
        // release: the all-waiting rule ends the spin (the deadline is
        // only a backstop).
        let s2 = Session::new(
            Arc::clone(s.pool()),
            SessionConfig {
                deadline: std::time::Duration::from_millis(50),
                ..SessionConfig::default()
            },
        );
        let b = s2.view(ThreadId(1));
        assert_eq!(
            pm_lock_acquire(&b, 64, site!("lk2"), false).unwrap_err(),
            RtError::Timeout
        );
        assert_eq!(s2.hang_cause(), Some(pmrace_runtime::HangCause::AllWaiting));
        pm_lock_release(&a, 64, site!("unlk"), true).unwrap();
        let s3 = Session::new(Arc::clone(s.pool()), SessionConfig::default());
        let c = s3.view(ThreadId(2));
        pm_lock_acquire(&c, 64, site!("lk3"), false).unwrap();
    }
}
