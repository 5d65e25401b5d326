//! Software persistent-memory substrate for PMRace.
//!
//! This crate models the failure semantics of real persistent memory (PM)
//! behind volatile write-back CPU caches, the substrate every other PMRace
//! crate builds on. It replaces the Optane hardware used in the paper with a
//! deterministic software model that preserves exactly the property the bug
//! class depends on: *a store is visible to other threads before it is
//! persistent*, and the persist order is decoupled from the store order.
//!
//! # Model
//!
//! A [`Pool`] holds two byte images:
//!
//! - the **volatile image** — what loads observe (cache-visible state), and
//! - the **persistent image** — what survives a crash.
//!
//! Every 8-byte *granule* carries a persistency state ([`PersistState`])
//! driven by the instruction stream:
//!
//! ```text
//!   store   : volatile image updated, granule -> Dirty(writer)
//!   clwb    : Dirty granules of the line captured -> Flushing (write-back queued)
//!   sfence  : queued captures reach the persistent image, Flushing -> Clean
//!   ntstore : both images updated immediately, granule -> Clean
//!   crash   : volatile image and all queued write-backs are lost
//! ```
//!
//! This is the §3.1 failure model of the paper (ADR platforms: CPU caches are
//! outside the persistent domain). Optional random eviction
//! ([`Pool::evict_random`]) models hardware cache eviction persisting lines
//! at arbitrary points.
//!
//! # Quick example
//!
//! ```
//! # use pmrace_pmem::{Pool, PoolOpts, ThreadId, SiteTag};
//! # fn main() -> Result<(), pmrace_pmem::PmemError> {
//! let pool = Pool::new(PoolOpts::small());
//! let t = ThreadId(0);
//! pool.store_u64(64, 42, t, SiteTag(1))?;
//! assert_eq!(pool.load_u64(64)?.0, 42);          // visible...
//! assert_eq!(pool.crash_image()?.load_u64(64)?, 0); // ...but not yet persistent
//! pool.clwb(64, 8, t)?;
//! pool.sfence(t)?;
//! assert_eq!(pool.crash_image()?.load_u64(64)?, 42); // persisted after clwb+sfence
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod error;
mod image;
mod pool;
mod snapshot;

pub use alloc::{AllocStats, PmAllocator, TxAllocHandle};
pub use error::PmemError;
pub use image::{granule_hash, GranuleMeta, PersistState, CACHE_LINE, GRANULE};
pub use pool::{InitCost, LoadInfo, Pool, PoolOpts, RestoreMode, StoreInfo};
pub use snapshot::CrashImage;

/// Identifier of a thread executing against a [`Pool`].
///
/// Thread ids are assigned by the harness per fuzz campaign (small dense
/// integers), not OS thread ids. They feed the inter- vs intra-thread
/// distinction of the checkers: a load of a `Dirty` granule whose writer has
/// a different `ThreadId` is a *PM Inter-thread Inconsistency Candidate*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u32);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Opaque per-store tag recorded in granule metadata.
///
/// The runtime passes the static instruction-site id of the store here, so a
/// later load of non-persisted data can name the store instruction that wrote
/// it (the paper's "write code" column in Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteTag(pub u32);

impl std::fmt::Display for SiteTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site#{}", self.0)
    }
}
