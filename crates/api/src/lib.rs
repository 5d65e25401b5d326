//! The public target API: everything a workload needs to plug into the
//! PMRace fuzzer, and nothing of the fuzzer itself.
//!
//! The paper evaluates PMRace on five externally-built PM systems
//! (Table 1), and breadth of workloads is the detector's real product —
//! each new class of PM application surfaces bug patterns the previous
//! ones did not. This crate is the boundary that makes workloads
//! pluggable: `pmrace-core` (the fuzzer), `pmrace-replay` (artifacts) and
//! `pmrace-targets` (the built-in systems) all depend on *it*, never on
//! each other's concrete types, so out-of-tree code can add a target
//! without touching the engine.
//!
//! The surface is small:
//!
//! - [`Target`], [`TargetSpec`], [`TargetCtor`] — the workload contract:
//!   an operation executor ([`Op`] → [`OpResult`]) plus constructors for
//!   the fresh-pool (`init`) and recovery (`recover`) paths. Recovery is
//!   load-bearing: post-failure validation (§4.4) re-runs it against
//!   crash images, and its stores decide bug vs. false positive.
//! - [`SeedHints`] — the seed-grammar knobs ([`OpWeights`], key ranges)
//!   the structured mutator (§4.5) reads per target.
//! - [`register_target`] / [`resolve_target`] / [`all_targets`] — the
//!   thread-safe process-global registry the fuzzer, the replayer and the
//!   CLI resolve target names through.
//!
//! The built-in systems register themselves via
//! `pmrace_targets::register_builtins()`; a plugin target just calls
//! [`register_target`] with its own [`TargetSpec`] and is immediately
//! fuzzable, validatable and replayable by name.
//!
//! # Example: a complete out-of-tree target
//!
//! The smallest target that exercises the whole contract — a single
//! persistent cell every key maps to. The tail of the example is exactly
//! what the campaign driver does with a resolved spec each campaign:
//! build the pool the spec asks for, open a session, construct the
//! target, hand per-thread views to drivers. (For a target with planted
//! bugs and a recovery path, see `examples/mpsc_queue/` in the repo
//! root.)
//!
//! ```
//! use std::sync::Arc;
//!
//! use pmrace_api::{ensure_registered, resolve_target, Op, OpResult, Target, TargetSpec};
//! use pmrace_pmem::{Pool, PoolOpts, ThreadId};
//! use pmrace_runtime::{site, PmView, RtError, Session, SessionConfig};
//!
//! struct OneCell;
//!
//! impl Target for OneCell {
//!     fn name(&self) -> &'static str {
//!         "one-cell"
//!     }
//!
//!     fn exec(&self, view: &PmView, op: &Op) -> Result<OpResult, RtError> {
//!         const CELL: u64 = 64;
//!         match *op {
//!             Op::Insert { value, .. } | Op::Update { value, .. } => {
//!                 view.store_u64(CELL, value, site!("one_cell.set"))?;
//!                 view.persist(CELL, 8, site!("one_cell.set.flush"))?;
//!                 Ok(OpResult::Done)
//!             }
//!             Op::Get { .. } => Ok(match view.load_u64(CELL, site!("one_cell.get"))?.value() {
//!                 0 => OpResult::Missing,
//!                 v => OpResult::Found(v),
//!             }),
//!             _ => Ok(OpResult::Missing),
//!         }
//!     }
//! }
//!
//! fn build(_session: &Arc<Session>) -> Result<Arc<dyn Target>, RtError> {
//!     Ok(Arc::new(OneCell))
//! }
//!
//! // `TargetSpec` is all `fn` pointers, so specs can live in statics.
//! static SPEC: TargetSpec = TargetSpec::new("one-cell", build, build, PoolOpts::small);
//!
//! ensure_registered(SPEC).expect("name is free");
//! let spec = resolve_target("one-cell").expect("registered above");
//!
//! // What the campaign driver does with a resolved spec:
//! let pool = Arc::new(Pool::new((spec.pool)()));
//! let session = Session::new(pool, SessionConfig::default());
//! let target = (spec.init)(&session)?;
//! let view = session.view(ThreadId(0));
//! target.exec(&view, &Op::Insert { key: 7, value: 41 })?;
//! assert_eq!(target.exec(&view, &Op::Get { key: 7 })?, OpResult::Found(41));
//! # Ok::<(), RtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;

pub use registry::{
    all_targets, ensure_registered, register_target, resolve_target, resolve_target_or_err,
    DuplicateTarget,
};

use std::sync::Arc;

use pmrace_pmem::PoolOpts;
use pmrace_runtime::{PmView, RtError, Session};

/// One request a driver thread issues against a target (the operation
/// alphabet of the fuzzer's structured seeds, §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Insert `key -> value` (memcached `set`/`add`).
    Insert {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Update an existing key (memcached `replace`).
    Update {
        /// Key.
        key: u64,
        /// New value.
        value: u64,
    },
    /// Remove a key.
    Delete {
        /// Key.
        key: u64,
    },
    /// Look a key up.
    Get {
        /// Key.
        key: u64,
    },
    /// Add to a numeric value (memcached `incr`; other targets treat it as
    /// read-modify-write update).
    Incr {
        /// Key.
        key: u64,
        /// Amount.
        by: u64,
    },
    /// Subtract from a numeric value (memcached `decr`).
    Decr {
        /// Key.
        key: u64,
        /// Amount.
        by: u64,
    },
}

impl Op {
    /// The key this operation addresses.
    #[must_use]
    pub fn key(&self) -> u64 {
        match *self {
            Op::Insert { key, .. }
            | Op::Update { key, .. }
            | Op::Delete { key }
            | Op::Get { key }
            | Op::Incr { key, .. }
            | Op::Decr { key, .. } => key,
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Op::Insert { key, value } => write!(f, "insert {key}={value}"),
            Op::Update { key, value } => write!(f, "update {key}={value}"),
            Op::Delete { key } => write!(f, "delete {key}"),
            Op::Get { key } => write!(f, "get {key}"),
            Op::Incr { key, by } => write!(f, "incr {key}+{by}"),
            Op::Decr { key, by } => write!(f, "decr {key}-{by}"),
        }
    }
}

/// Outcome of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// Mutation applied.
    Done,
    /// Lookup hit with the stored value.
    Found(u64),
    /// Key absent (lookup miss, failed update/delete).
    Missing,
}

/// A concurrent PM system under test.
pub trait Target: Send + Sync {
    /// System name (for built-ins this matches Table 1).
    fn name(&self) -> &'static str;

    /// Execute one operation on behalf of the worker thread owning `view`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors; [`RtError::Timeout`] means the campaign
    /// deadline fired (possible hang bug).
    fn exec(&self, view: &PmView, op: &Op) -> Result<OpResult, RtError>;

    /// Read-only lookup (used by differential tests).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    fn get(&self, view: &PmView, key: u64) -> Result<Option<u64>, RtError> {
        match self.exec(view, &Op::Get { key })? {
            OpResult::Found(v) => Ok(Some(v)),
            _ => Ok(None),
        }
    }
}

/// Constructor building a target instance over a session.
pub type TargetCtor = fn(&Arc<Session>) -> Result<Arc<dyn Target>, RtError>;

/// Relative frequencies of the six operation kinds in generated seeds.
///
/// The mutator draws an operation with probability `weight / total`; the
/// weights need not sum to any particular value. [`OpWeights::DEFAULT`]
/// reproduces the distribution the built-in hash-table/tree targets are
/// tuned for (insert-heavy, updates rare).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpWeights {
    /// Weight of [`Op::Insert`].
    pub insert: u32,
    /// Weight of [`Op::Get`].
    pub get: u32,
    /// Weight of [`Op::Update`].
    pub update: u32,
    /// Weight of [`Op::Delete`].
    pub delete: u32,
    /// Weight of [`Op::Incr`].
    pub incr: u32,
    /// Weight of [`Op::Decr`].
    pub decr: u32,
}

impl OpWeights {
    /// The built-in distribution (percent, summing to 100): insert 48,
    /// get 20, update 5, delete 9, incr 10, decr 8. Updates are rare
    /// because in P-CLHT a successful update leaks its bucket lock
    /// (seeded Bug 5) and hangs the rest of the campaign.
    pub const DEFAULT: OpWeights = OpWeights {
        insert: 48,
        get: 20,
        update: 5,
        delete: 9,
        incr: 10,
        decr: 8,
    };

    /// Sum of all six weights.
    #[must_use]
    pub const fn total(&self) -> u32 {
        self.insert + self.get + self.update + self.delete + self.incr + self.decr
    }
}

impl Default for OpWeights {
    fn default() -> Self {
        OpWeights::DEFAULT
    }
}

/// Seed-grammar hints: how the structured mutator (§4.5) should shape
/// operation sequences for a target.
///
/// Defaults reproduce the grammar the paper's five systems are fuzzed
/// with bit-for-bit (same RNG draw sequence), so built-in targets and the
/// determinism/replay corpora are unaffected; a plugin target can skew
/// the grammar toward its own hot paths (e.g. a queue wants inserts and
/// deletes, not point lookups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedHints {
    /// Upper bound of the key universe (keys are drawn from
    /// `1..=key_range`). Small on purpose: similar keys collide on shared
    /// PM addresses and raise PM alias-pair coverage.
    pub key_range: u64,
    /// Size of the hot-key prefix (`1..=hot_keys`) that half of all key
    /// draws land on (Zipf-ish similar-key prioritization).
    pub hot_keys: u64,
    /// Exclusive upper bound for generated values (`1..max_value`).
    pub max_value: u64,
    /// Exclusive upper bound for incr/decr step sizes (`1..max_step`).
    pub max_step: u64,
    /// Relative operation frequencies.
    pub weights: OpWeights,
}

impl SeedHints {
    /// The grammar every built-in target uses.
    pub const DEFAULT: SeedHints = SeedHints {
        key_range: 24,
        hot_keys: 4,
        max_value: 32,
        max_step: 16,
        weights: OpWeights::DEFAULT,
    };

    /// Clamp degenerate values (zero ranges or weights) to the smallest
    /// sane grammar so a sloppy plugin spec cannot panic the mutator.
    ///
    /// ```
    /// use pmrace_api::SeedHints;
    ///
    /// // A queue-ish grammar: few keys, all of them hot.
    /// let hints = SeedHints {
    ///     key_range: 8,
    ///     hot_keys: 8,
    ///     ..SeedHints::DEFAULT
    /// };
    /// assert_eq!(hints.weights.total(), 100); // weights kept from DEFAULT
    ///
    /// // Degenerate specs are clamped, never panicked on:
    /// let fixed = SeedHints {
    ///     key_range: 0,
    ///     hot_keys: 99,
    ///     ..SeedHints::DEFAULT
    /// }
    /// .normalized();
    /// assert_eq!((fixed.key_range, fixed.hot_keys), (1, 1));
    /// ```
    #[must_use]
    pub fn normalized(mut self) -> SeedHints {
        self.key_range = self.key_range.max(1);
        self.hot_keys = self.hot_keys.clamp(1, self.key_range);
        self.max_value = self.max_value.max(2);
        self.max_step = self.max_step.max(2);
        if self.weights.total() == 0 {
            self.weights = OpWeights::DEFAULT;
        }
        self
    }
}

impl Default for SeedHints {
    fn default() -> Self {
        SeedHints::DEFAULT
    }
}

/// Constructor table entry for a target system: the unit of registration.
///
/// Everything is a plain `fn` pointer so specs can live in `static`s and
/// be [`Copy`]; build one with [`TargetSpec::new`] and customize with the
/// `with_*` builders (all `const`, usable in statics).
#[derive(Clone, Copy)]
pub struct TargetSpec {
    /// System name (what [`resolve_target`] and repro artifacts key on).
    pub name: &'static str,
    /// Format a fresh pool and build an empty instance (registers sync-var
    /// annotations on the session).
    pub init: TargetCtor,
    /// Reopen an existing pool running the system's recovery code. This is
    /// what post-failure validation executes against crash images: stores
    /// it performs count as "recovery repaired it" (false positive), PM
    /// state it leaves untouched stays inconsistent (bug).
    pub recover: TargetCtor,
    /// Pool options this target wants.
    pub pool: fn() -> PoolOpts,
    /// Seed-grammar hints for the structured mutator.
    pub hints: SeedHints,
    /// Optional checker-arming hook, invoked by the campaign driver right
    /// after the target is constructed and before driver threads start —
    /// the place to [`Session::add_checker`] target-specific PM checkers
    /// (§4.3) without forking the engine.
    pub arm: Option<fn(&Arc<Session>)>,
}

impl TargetSpec {
    /// A spec with the default seed grammar and no extra checkers.
    #[must_use]
    pub const fn new(
        name: &'static str,
        init: TargetCtor,
        recover: TargetCtor,
        pool: fn() -> PoolOpts,
    ) -> Self {
        TargetSpec {
            name,
            init,
            recover,
            pool,
            hints: SeedHints::DEFAULT,
            arm: None,
        }
    }

    /// Replace the seed-grammar hints.
    #[must_use]
    pub const fn with_hints(mut self, hints: SeedHints) -> Self {
        self.hints = hints;
        self
    }

    /// Install a checker-arming hook.
    #[must_use]
    pub const fn with_arm(mut self, arm: fn(&Arc<Session>)) -> Self {
        self.arm = Some(arm);
        self
    }
}

impl std::fmt::Debug for TargetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetSpec")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_accessors() {
        assert_eq!(Op::Insert { key: 3, value: 4 }.key(), 3);
        assert_eq!(Op::Decr { key: 9, by: 1 }.key(), 9);
        assert_eq!(Op::Get { key: 1 }.to_string(), "get 1");
    }

    #[test]
    fn default_hints_match_the_builtin_grammar() {
        let h = SeedHints::default();
        assert_eq!(h, SeedHints::DEFAULT);
        assert_eq!(h.key_range, 24);
        assert_eq!(h.hot_keys, 4);
        assert_eq!(h.weights.total(), 100);
    }

    #[test]
    fn normalized_clamps_degenerate_hints() {
        let h = SeedHints {
            key_range: 0,
            hot_keys: 99,
            max_value: 0,
            max_step: 1,
            weights: OpWeights {
                insert: 0,
                get: 0,
                update: 0,
                delete: 0,
                incr: 0,
                decr: 0,
            },
        }
        .normalized();
        assert_eq!(h.key_range, 1);
        assert_eq!(h.hot_keys, 1);
        assert_eq!(h.max_value, 2);
        assert_eq!(h.max_step, 2);
        assert_eq!(h.weights, OpWeights::DEFAULT);
    }

    #[test]
    fn spec_builders_are_const_friendly() {
        static SPEC: TargetSpec = TargetSpec::new(
            "unit-test-builder",
            |_| Err(RtError::Halted),
            |_| Err(RtError::Halted),
            PoolOpts::small,
        )
        .with_hints(SeedHints {
            key_range: 8,
            ..SeedHints::DEFAULT
        });
        assert_eq!(SPEC.name, "unit-test-builder");
        assert_eq!(SPEC.hints.key_range, 8);
        assert!(SPEC.arm.is_none());
        assert_eq!(
            format!("{SPEC:?}"),
            "TargetSpec { name: \"unit-test-builder\" }"
        );
    }
}
