//! Delta-debug minimization of repro artifacts (ddmin, Zeller &
//! Hildebrandt's 1-minimality algorithm over the complement lattice).
//!
//! Two lists are minimized, in order:
//!
//! 1. the **seed operations** (flattened `(thread, op)` pairs, so the
//!    per-thread structure survives arbitrary subsets), and
//! 2. the **schedule constraints** (the recorded access-order events of a
//!    pmrace schedule — fewer events means fewer gates at replay time).
//!
//! Every candidate reduction is revalidated by *full replays*,
//! `confirm_runs` of them, and is accepted only if the recorded signature
//! re-fires on all of them — minimization can only ever shrink an
//! artifact, never weaken it. A test budget caps the quadratic worst case.

use pmrace_api::Op;
use pmrace_core::Seed;
use pmrace_runtime::RtError;

use crate::artifact::{Repro, ScheduleSpec};
use crate::replayer::{replay, ReplayOptions};

/// Minimization knobs.
#[derive(Debug, Clone)]
pub struct MinimizeOptions {
    /// Replays a candidate must survive to be accepted (guards against
    /// flaky reductions that only reproduce sometimes).
    pub confirm_runs: usize,
    /// Upper bound on candidate tests across both passes; when exhausted,
    /// the current (still-valid) reduction is returned.
    pub max_tests: usize,
    /// How each candidate is replayed.
    pub replay: ReplayOptions,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        MinimizeOptions {
            confirm_runs: 2,
            max_tests: 64,
            replay: ReplayOptions::default(),
        }
    }
}

/// What minimization achieved.
#[derive(Debug)]
pub struct MinimizeReport {
    /// Seed operations before / after.
    pub ops_before: usize,
    /// Seed operations surviving minimization.
    pub ops_after: usize,
    /// Schedule events before / after.
    pub events_before: usize,
    /// Schedule events surviving minimization.
    pub events_after: usize,
    /// Candidate tests actually run.
    pub tests_run: usize,
    /// The minimized artifact (identical signature, never larger).
    pub repro: Repro,
}

/// Minimize `repro` to a 1-minimal seed and schedule.
///
/// # Errors
///
/// [`RtError::Io`] when the artifact is unusable or does not reproduce at
/// baseline (minimizing a non-reproducing artifact would "succeed" by
/// deleting everything).
pub fn minimize(repro: &Repro, opts: &MinimizeOptions) -> Result<MinimizeReport, RtError> {
    let seed =
        Seed::parse(&repro.seed_text).map_err(|e| RtError::Io(format!("repro seed: {e}")))?;
    let mut tests_run = 0usize;
    let mut reproduces = |candidate: &Repro| -> bool {
        for _ in 0..opts.confirm_runs.max(1) {
            tests_run += 1;
            match replay(candidate, &opts.replay) {
                Ok(out) if out.matched => {}
                _ => return false,
            }
        }
        true
    };

    if !reproduces(repro) {
        return Err(RtError::Io(format!(
            "artifact '{}' does not reproduce at baseline; refusing to minimize",
            repro.signature.key()
        )));
    }

    // Pass 1: seed operations.
    let num_threads = seed.num_threads();
    let items: Vec<(usize, Op)> = seed
        .threads()
        .iter()
        .enumerate()
        .flat_map(|(t, ops)| ops.iter().map(move |op| (t, *op)))
        .collect();
    let ops_before = items.len();
    let mut budget = opts.max_tests;
    let kept_ops = ddmin(
        &items,
        |subset| {
            let mut candidate = repro.clone();
            candidate.seed_text = rebuild_seed(subset, num_threads).to_text();
            reproduces(&candidate)
        },
        &mut budget,
    );
    let mut minimized = repro.clone();
    minimized.seed_text = rebuild_seed(&kept_ops, num_threads).to_text();

    // Pass 2: schedule constraints.
    let events_before = schedule_events(&minimized).map_or(0, Vec::len);
    let mut events_after = events_before;
    if events_before > 0 {
        let events = schedule_events(&minimized).cloned().unwrap_or_default();
        let kept_events = ddmin(
            &events,
            |subset| {
                let mut candidate = minimized.clone();
                set_schedule_events(&mut candidate, subset.to_vec());
                reproduces(&candidate)
            },
            &mut budget,
        );
        events_after = kept_events.len();
        set_schedule_events(&mut minimized, kept_events);
    }

    Ok(MinimizeReport {
        ops_before,
        ops_after: kept_ops.len(),
        events_before,
        events_after,
        tests_run,
        repro: minimized,
    })
}

/// Re-thread flattened `(thread, op)` pairs, preserving thread count and
/// per-thread order (threads whose ops were all removed become empty).
fn rebuild_seed(items: &[(usize, Op)], num_threads: usize) -> Seed {
    let mut threads = vec![Vec::new(); num_threads.max(1)];
    for (t, op) in items {
        threads[*t % num_threads.max(1)].push(*op);
    }
    Seed::new(threads)
}

fn schedule_events(repro: &Repro) -> Option<&Vec<crate::artifact::EventSpec>> {
    match &repro.schedule {
        ScheduleSpec::Pmrace { events, .. } => Some(events),
        _ => None,
    }
}

fn set_schedule_events(repro: &mut Repro, new_events: Vec<crate::artifact::EventSpec>) {
    if let ScheduleSpec::Pmrace { events, .. } = &mut repro.schedule {
        *events = new_events;
    }
}

/// Generic ddmin: the smallest subset of `items` (w.r.t. single-chunk
/// removal) for which `still_fails` holds. `still_fails` must hold for
/// `items` itself. Each probe decrements `budget`; at zero, the current
/// (valid) reduction is returned immediately.
pub fn ddmin<T: Clone>(
    items: &[T],
    mut still_fails: impl FnMut(&[T]) -> bool,
    budget: &mut usize,
) -> Vec<T> {
    let mut current = items.to_vec();
    let mut n = 2usize;
    while current.len() >= 2 {
        let n_eff = n.min(current.len());
        let chunk = current.len().div_ceil(n_eff);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            if *budget == 0 {
                return current;
            }
            let end = (start + chunk).min(current.len());
            let mut complement = Vec::with_capacity(current.len() - (end - start));
            complement.extend_from_slice(&current[..start]);
            complement.extend_from_slice(&current[end..]);
            *budget -= 1;
            if still_fails(&complement) {
                current = complement;
                n = n_eff.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n_eff >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    // Finish 1-minimality: a single survivor may itself be removable.
    if current.len() == 1 && *budget > 0 {
        *budget -= 1;
        if still_fails(&[]) {
            current.clear();
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_isolates_the_failure_inducing_subset() {
        // Classic example: the failure needs {1, 7, 8}.
        let items: Vec<u32> = (1..=8).collect();
        let mut budget = 1000;
        let kept = ddmin(
            &items,
            |subset| [1, 7, 8].iter().all(|x| subset.contains(x)),
            &mut budget,
        );
        assert_eq!(kept, vec![1, 7, 8]);
    }

    #[test]
    fn ddmin_reduces_to_empty_when_nothing_is_needed() {
        let items: Vec<u32> = (1..=5).collect();
        let mut budget = 1000;
        let kept = ddmin(&items, |_| true, &mut budget);
        assert!(kept.is_empty());
    }

    #[test]
    fn ddmin_respects_the_test_budget() {
        let items: Vec<u32> = (1..=64).collect();
        let mut budget = 3;
        let kept = ddmin(&items, |s| s.contains(&64), &mut budget);
        assert_eq!(budget, 0);
        // Whatever came back must still satisfy the predicate.
        assert!(kept.contains(&64));
    }

    #[test]
    fn ddmin_keeps_order_of_surviving_items() {
        let items: Vec<u32> = vec![9, 3, 7, 1, 5];
        let mut budget = 1000;
        let kept = ddmin(
            &items,
            |subset| [3, 5].iter().all(|x| subset.contains(x)),
            &mut budget,
        );
        assert_eq!(kept, vec![3, 5]);
    }

    #[test]
    fn rebuild_seed_preserves_thread_assignment() {
        use pmrace_api::Op;
        let items = vec![
            (0, Op::Insert { key: 1, value: 1 }),
            (2, Op::Get { key: 1 }),
        ];
        let seed = rebuild_seed(&items, 3);
        assert_eq!(seed.num_threads(), 3);
        assert_eq!(seed.threads()[0].len(), 1);
        assert!(seed.threads()[1].is_empty());
        assert_eq!(seed.threads()[2].len(), 1);
    }

    #[test]
    fn minimizing_a_hang_repro_shrinks_the_seed() {
        use crate::artifact::{BugSignature, CampaignSpec, REPRO_VERSION};
        use pmrace_core::Seed;
        use pmrace_sched::SyncTuning;

        // Bug 5 needs exactly Insert(k), Update(k, same value), Insert(k);
        // the surrounding noise ops must all be removed.
        let seed = Seed::new(vec![vec![
            Op::Insert { key: 9, value: 9 },
            Op::Get { key: 9 },
            Op::Insert { key: 1, value: 1 },
            Op::Update { key: 1, value: 1 },
            Op::Get { key: 9 },
            Op::Insert { key: 1, value: 3 },
            Op::Delete { key: 9 },
        ]]);
        let repro = Repro {
            version: REPRO_VERSION,
            target: "P-CLHT".to_owned(),
            signature: BugSignature {
                kind: "Hang".to_owned(),
                write_label: String::new(),
                read_label: String::new(),
                effect_label: String::new(),
            },
            description: "hang".to_owned(),
            seed_text: seed.to_text(),
            campaign: CampaignSpec {
                threads: 1,
                deadline_us: 150_000,
                eadr: false,
                extra_whitelist: Vec::new(),
                tuning: SyncTuning::default(),
            },
            schedule: ScheduleSpec::Free,
        };
        let opts = MinimizeOptions {
            confirm_runs: 1,
            max_tests: 48,
            replay: ReplayOptions {
                attempts: 1,
                ..ReplayOptions::default()
            },
        };
        let report = minimize(&repro, &opts).unwrap();
        assert!(
            report.ops_after < report.ops_before,
            "noise ops must be removed ({} -> {})",
            report.ops_before,
            report.ops_after
        );
        assert!(report.ops_after >= 3, "the hang needs its 3-op core");
        // The minimized artifact still reproduces.
        let out = replay(&report.repro, &opts.replay).unwrap();
        assert!(out.matched);
    }
}
