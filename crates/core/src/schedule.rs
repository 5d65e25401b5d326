//! Captured nondeterminism frontier of one campaign.
//!
//! A campaign's outcome depends on the seed (deterministic, text-serialized)
//! plus a small set of scheduling decisions: which interleaving plan was
//! forced, which RNG seeds the strategies drew, which skip counts the sync
//! points started with, and — for the PMRace scheduler — the order in which
//! gated accesses to the watched granule were actually released. This module
//! defines the in-process snapshot of all of that: [`ScheduleCapture`].
//!
//! Everything is label-based, not id-based: [`Site`](pmrace_runtime::Site)
//! ids are dense, process-local, and registration-order dependent, while
//! labels are stable across processes and builds. The `pmrace-replay` crate
//! serializes captures into versioned repro artifacts and re-enforces them
//! with [`ReplayStrategy`](pmrace_sched::ReplayStrategy).

use std::time::Duration;

use pmrace_sched::SyncTuning;

/// The interleaving plan that was forced, by site label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCapture {
    /// Target granule byte offset.
    pub off: u64,
    /// Labels of the gated load (sync-point) sites, sorted.
    pub load_sites: Vec<String>,
    /// Labels of the signalling store sites, sorted.
    pub store_sites: Vec<String>,
    /// Labels of the CAS sites whose failed attempts are stalled as retry
    /// decision points, sorted.
    pub cas_sites: Vec<String>,
}

/// One released access to the watched granule (label-based
/// [`AccessEvent`](pmrace_sched::AccessEvent)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventCapture {
    /// `true` for a load, `false` for a store.
    pub is_load: bool,
    /// Site label of the access.
    pub site: String,
    /// Executing driver thread.
    pub tid: u32,
}

/// The scheduling decisions of one campaign, per strategy kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyCapture {
    /// No strategy was active (plain execution).
    None,
    /// Random delay injection with the drawn RNG seed.
    Delay {
        /// Upper bound of the injected delay, in microseconds.
        max_delay_us: u64,
        /// The seed the delay RNG was constructed with.
        rng_seed: u64,
    },
    /// Round-robin serialization with its drawn starting point.
    Systematic {
        /// Accesses per turn.
        quantum: u32,
        /// The drawn thread the rotation starts from.
        start: u32,
    },
    /// The Fig. 6 conditional-wait scheduler, fully pinned.
    Pmrace {
        /// The forced interleaving plan.
        plan: PlanCapture,
        /// The seed the strategy RNG was constructed with.
        rng_seed: u64,
        /// Realized initial skip count per load-site label (learned
        /// pitfall-3 base + drawn jitter) — pinning these reproduces *which*
        /// dynamic occurrence of each sync point blocked.
        skips: Vec<(String, u32)>,
        /// Released access order on the watched granule.
        events: Vec<EventCapture>,
        /// Whether the event log overflowed
        /// [`MAX_RECORDED_EVENTS`](pmrace_sched::MAX_RECORDED_EVENTS).
        truncated: bool,
    },
}

/// Everything needed to re-run one campaign's schedule deterministically
/// (pair it with the seed text from the same
/// [`StepOutcome`](crate::explore::StepOutcome)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleCapture {
    /// Per-strategy decisions.
    pub strategy: StrategyCapture,
    /// Driver threads of the campaign.
    pub threads: usize,
    /// Scheduler timing knobs in effect.
    pub tuning: SyncTuning,
    /// Whether the campaign ran under the eADR failure model.
    pub eadr: bool,
    /// Campaign deadline (hang detection).
    pub deadline: Duration,
    /// Extra whitelist rules in effect.
    pub extra_whitelist: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_compare_structurally() {
        let a = ScheduleCapture {
            strategy: StrategyCapture::Pmrace {
                plan: PlanCapture {
                    off: 64,
                    load_sites: vec!["l".to_owned()],
                    store_sites: vec!["s".to_owned()],
                    cas_sites: Vec::new(),
                },
                rng_seed: 7,
                skips: vec![("l".to_owned(), 2)],
                events: vec![EventCapture {
                    is_load: false,
                    site: "s".to_owned(),
                    tid: 0,
                }],
                truncated: false,
            },
            threads: 2,
            tuning: SyncTuning::default(),
            eadr: false,
            deadline: Duration::from_millis(400),
            extra_whitelist: Vec::new(),
        };
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(
            ScheduleCapture {
                strategy: StrategyCapture::None,
                ..b
            },
            a
        );
    }
}
