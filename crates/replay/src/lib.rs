//! Deterministic record/replay for PMRace findings.
//!
//! Fuzzing finds a concurrency bug once; this crate makes it fire *on
//! demand*. The pieces, in pipeline order:
//!
//! 1. **Record** — [`Recorder`] plugs into the fuzzer's
//!    [`RecordSink`](pmrace_core::RecordSink) hook and serializes the
//!    nondeterminism frontier of every campaign that surfaced a new
//!    finding: the chosen sync plan, the strategy RNG seed, the realized
//!    skip counts, and the released per-granule access order (all
//!    label-based — site ids are process-local). The result is a
//!    versioned JSON [`Repro`] artifact in a [`ReproStore`].
//! 2. **Replay** — [`replay`] re-runs an artifact: a recon campaign
//!    resolves labels back to this process's sites, then the recorded
//!    schedule is re-imposed ([`ReplayMode::Strict`] enforces the exact
//!    access order and reports divergence once every live driver thread
//!    waits on a slot the order can no longer reach; [`ReplayMode::Steer`]
//!    rebuilds the original scheduler deterministically) and the replay
//!    asserts the recorded [`BugSignature`] fires again.
//! 3. **Minimize** — [`minimize()`] delta-debugs ([`ddmin`]) the seed
//!    operations and the schedule constraints down to 1-minimal, fully
//!    revalidating every accepted reduction.
//! 4. **Regress** — [`build_corpus`] records replay-validated artifacts
//!    for the paper's 14 Table 2 bugs; [`replay_corpus`] is the CI gate
//!    that replays the checked-in corpus and reports any artifact whose
//!    bug no longer fires.
//!
//! Artifacts are read and written with the workspace's one hand-rolled
//! JSON module, re-exported here as [`json`] — the build environment is
//! offline and the workspace vendors no serde.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod corpus;
pub mod minimize;
pub mod recorder;
pub mod replayer;
pub mod store;

pub use pmrace_telemetry::json;

pub use artifact::{BugSignature, CampaignSpec, EventSpec, Repro, ScheduleSpec, REPRO_VERSION};
pub use corpus::{build_corpus, build_recipe, recipes, replay_corpus, BuiltRepro, Recipe};
pub use minimize::{ddmin, minimize, MinimizeOptions, MinimizeReport};
pub use recorder::Recorder;
pub use replayer::{replay, ReplayMode, ReplayOptions, ReplayOutcome};
pub use store::ReproStore;
