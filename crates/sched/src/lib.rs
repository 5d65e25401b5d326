//! PM-aware interleaving exploration for PMRace (§4.2.2).
//!
//! Two [`InterleaveStrategy`](pmrace_runtime::strategy::InterleaveStrategy)
//! implementations:
//!
//! - [`PmraceStrategy`] — the paper's conditional-wait scheduler (Fig. 6):
//!   given one entry from the shared-access priority queue, loads of that
//!   address become *sync points* gated on a condition the matching store
//!   signals; the writer then stalls before its flush so readers observe the
//!   not-yet-persisted value. The three pitfalls are handled exactly as in
//!   the paper: the condition disables waiting after the first signal
//!   (pitfall 1), a privileged thread is drafted when *all* threads block
//!   (pitfall 2), and persistently hanging sync points accumulate skip
//!   counts that later campaigns on the same seed start from (pitfall 3).
//! - [`DelayStrategy`] — the random delay-injection baseline evaluated as
//!   *Delay Inj* in §6 (uniform random delay before each PM access).
//! - [`SystematicStrategy`] — a serialization baseline modeling the
//!   interleaving-enumeration family (§7), for cost comparisons.
//!
//! Both [`SystematicStrategy`] and strict replay park the driver threads
//! that may not run yet on one turnstile (`turnstile.rs`): it owns each
//! thread's running/parked/done state, the all-live-threads-parked test
//! and the park/unpark hand-off.
//!
//! [`AccessQueue`] is the priority queue of shared PM data accesses the
//! fuzzer fetches entries from; [`SkipStore`] carries learned skip counts
//! across campaigns of the same seed.
//!
//! For deterministic record/replay of detected bugs, [`RecordingStrategy`]
//! wraps any strategy and logs the released access order on the watched
//! granule into a [`ScheduleLog`], and [`ReplayStrategy`] re-enforces such
//! a log as a condition-gated total order (see the `pmrace-replay` crate).
//! [`LeadFirst`] orders the first operations of a free-schedule replay
//! (one lead thread starts alone) around any other strategy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod lead;
mod pmrace_strategy;
mod queue;
mod record;
mod replay_strategy;
mod skip;
mod systematic;
mod turnstile;

pub use delay::DelayStrategy;
pub use lead::LeadFirst;
pub use pmrace_strategy::{PmraceStrategy, SyncPlan, SyncTuning};
pub use queue::{AccessQueue, QueueEntry};
pub use record::{AccessEvent, RecordingStrategy, ScheduleLog, MAX_RECORDED_EVENTS};
pub use replay_strategy::{ReplayEvent, ReplayStrategy};
pub use skip::SkipStore;
pub use systematic::SystematicStrategy;

/// The longest a parked scheduler wait sleeps before it re-checks campaign
/// cancellation: the only timer in the Fig. 6 hub's condvar waits and in
/// the turnstile's parks, which every other event wakes at once.
const CANCEL_POLL: std::time::Duration = std::time::Duration::from_millis(1);
