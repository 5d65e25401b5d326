//! PMRace fuzzer core: PM-aware coverage-guided fuzzing for concurrent PM
//! programs (the paper's primary contribution, §4).
//!
//! The pipeline, end to end:
//!
//! 1. [`mutator`] generates structured operation seeds (§4.5): sequences of
//!    valid store operations distributed over driver threads, evolved with
//!    the five strategies (mutation, addition, deletion, shuffling,
//!    merging), similar-key prioritization, and an insert-population
//!    fallback that triggers resizing. [`textgen`] is the AFL++-style byte
//!    mutator baseline for the Table 4 comparison.
//! 2. [`campaign`] executes one fuzz campaign: a fresh (or
//!    checkpoint-restored, [`checkpoint`]) pool, a
//!    [`Session`](pmrace_runtime::Session) with checkers armed, four driver
//!    threads issuing the seed's operations through the target, an
//!    interleaving strategy installed.
//! 3. [`explore`] drives the three exploration tiers (§4.2.3): repeat
//!    executions while coverage grows, then switch interleaving (one entry
//!    of the shared-access priority queue at a time, Fig. 6 scheduling),
//!    then switch seed.
//! 4. [`validate`] re-runs the target's recovery against the crash image
//!    captured at each detection point and classifies findings as bugs or
//!    false positives (§4.4).
//! 5. [`bugs`] deduplicates findings into unique bugs (per writing store
//!    instruction / sync variable) and accumulates every statistic the
//!    evaluation tables report.
//! 6. [`fuzzer`] ties it together, including concurrent fuzzing workers
//!    (§5) and the timelines behind Figs. 8–10; [`fleet`] is the
//!    cross-worker seed pool those workers share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bugs;
pub mod campaign;
pub mod checkpoint;
pub mod corpus;
pub mod explore;
pub mod fleet;
pub mod fuzzer;
pub mod mutator;
pub mod report_io;
pub mod schedule;
pub mod seed;
pub mod textgen;
pub mod validate;

pub use bugs::{BugKind, DetectionStats, IngestDelta, Ledger, UniqueBug};
pub use campaign::{run_campaign, CampaignConfig, CampaignResult, PoolStart, StrategyKind};
pub use fleet::SharedCorpus;
pub use fuzzer::{FuzzConfig, FuzzReport, Fuzzer, RecordSink};
pub use mutator::OpMutator;
pub use schedule::{EventCapture, PlanCapture, ScheduleCapture, StrategyCapture};
pub use seed::Seed;
pub use validate::{set_validation_cache, validation_cache_enabled, Verdict};
