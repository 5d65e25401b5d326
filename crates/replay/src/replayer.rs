//! Replay a repro artifact and check that the recorded finding re-fires.
//!
//! Site ids are process-local (the registry hands them out lazily, in
//! first-execution order), so an artifact can only carry *labels*. Replay
//! therefore starts with a **recon campaign**: one unstrategized run of the
//! recorded seed, which makes the target register every site the seed
//! reaches and surfaces the shared-access table. Labels are then resolved
//! back to this process's site ids / granule offset, and the replay
//! campaigns run with the schedule re-imposed.
//!
//! Three fidelity levels:
//!
//! * [`ReplayMode::Strict`] re-enforces the *recorded access order* on the
//!   watched granule with a [`ReplayStrategy`] — byte-for-byte the
//!   interleaving that exposed the bug. When every live driver thread
//!   waits on a slot the order can no longer reach, the turnstile reports
//!   divergence and the campaign finishes ungated.
//! * [`ReplayMode::Steer`] rebuilds the original conditional-wait scheduler
//!   ([`PmraceStrategy`]) with the recorded RNG seed and *pinned* skip
//!   counts (jitter off) — the paper's Fig. 6 mechanism, deterministically
//!   re-parameterized.
//! * [`ReplayMode::Free`] runs the seed alone (for findings that do not
//!   need a schedule).
//!
//! Non-Pmrace schedules (delay / systematic) re-seed their strategies
//! directly; they are deterministic given the recorded parameters.
//! Free-schedule artifacts recorded a race the OS scheduler happened to
//! produce: their first attempt runs free, and follow-ups steer toward the
//! signature's own (read, write) pair with [`PmraceStrategy`] — or, while
//! no attempt has surfaced that pair on a shared granule, perturb the
//! schedule with random delays. Each follow-up also lets one seed thread
//! start first ([`LeadFirst`], rotating over the threads that have
//! operations), since a race that hinges on which thread takes a volatile
//! lock first is out of reach of every PM access hook.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmrace_core::campaign::CampaignResult;
use pmrace_core::{run_campaign, CampaignConfig, Ledger, Seed, UniqueBug};
use pmrace_pmem::ThreadId;
use pmrace_runtime::strategy::InterleaveStrategy;
use pmrace_runtime::{site_by_label, site_label, RtError};
use pmrace_sched::{
    DelayStrategy, LeadFirst, PmraceStrategy, ReplayEvent, ReplayStrategy, SyncPlan,
    SystematicStrategy,
};
use pmrace_telemetry as telemetry;

use crate::artifact::{Repro, ScheduleSpec};

/// How faithfully the recorded schedule is re-imposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Enforce the recorded per-granule access order exactly.
    Strict,
    /// Rebuild the recorded scheduler (seed + pinned skips) and let it run.
    Steer,
    /// Seed only; no interleaving strategy.
    Free,
}

/// Replay knobs.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Fidelity level.
    pub mode: ReplayMode,
    /// Replay campaigns to run before giving up (the checkers sample crash
    /// points, so a faithfully reproduced interleaving may still need a
    /// couple of observations).
    pub attempts: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            mode: ReplayMode::Strict,
            attempts: 4,
        }
    }
}

/// What a replay run established.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// `true` when the recorded signature re-fired.
    pub matched: bool,
    /// Campaigns executed (excluding recon).
    pub attempts: usize,
    /// Strict-mode divergence report from the last attempt, if any.
    pub divergence: Option<String>,
    /// Unique bugs the replay surfaced.
    pub bugs: Vec<UniqueBug>,
    /// Candidate-only pairs the replay surfaced.
    pub candidates: Vec<(String, String)>,
    /// Wall-clock time, recon included.
    pub duration: Duration,
}

/// Longest random delay before each PM access in a follow-up attempt of a
/// free artifact whose racing pair no attempt has surfaced yet.
const FREE_RETRY_DELAY: Duration = Duration::from_micros(100);

/// Replay `repro` and report whether its finding re-fired.
///
/// # Errors
///
/// [`RtError::UnknownTarget`] when the artifact's target name does not
/// resolve against the process-global registry (built-ins are registered
/// implicitly; plugin targets must be registered before replay) and
/// [`RtError::Io`] for otherwise unusable artifacts (malformed seed);
/// target-construction failures propagate. A schedule that cannot
/// be re-imposed (e.g. the seed no longer reaches the recorded sites) is
/// *not* an error — it returns `matched: false` with a divergence message,
/// which is what lets delta debugging probe reduced inputs safely.
pub fn replay(repro: &Repro, opts: &ReplayOptions) -> Result<ReplayOutcome, RtError> {
    let start = Instant::now();
    // Artifacts carry a target *name*; resolution goes through the
    // registry so checked-in repros and plugin-target repros replay
    // through one path.
    pmrace_targets::register_builtins();
    pmrace_lockfree::register_lockfree();
    let spec = pmrace_api::resolve_target_or_err(&repro.target)?;
    let seed =
        Seed::parse(&repro.seed_text).map_err(|e| RtError::Io(format!("repro seed: {e}")))?;
    let cfg = CampaignConfig {
        threads: repro.campaign.threads,
        deadline: repro.deadline(),
        capture_images: true,
        max_images: 32,
        eadr: repro.campaign.eadr,
        eviction_interval_us: repro.campaign.eviction_interval_us,
        extra_whitelist: repro.campaign.extra_whitelist.clone(),
    };

    // Recon: register sites, surface the shared-access table. Only needed
    // when the schedule references sites; harmless to skip otherwise.
    let needs_recon =
        matches!(repro.schedule, ScheduleSpec::Pmrace { .. }) && opts.mode != ReplayMode::Free;
    let mut recon = if needs_recon {
        let _span = telemetry::span(telemetry::Phase::ReplayRecon);
        Some(run_campaign(&spec, &seed, &cfg, None, None)?)
    } else {
        None
    };

    // The campaign's driver threads: the turnstile's deadlock check is over
    // these, and free follow-ups rotate their lead over those with work.
    let threads = seed.threads().len().min(cfg.threads);
    let busy: Vec<ThreadId> = seed.threads()[..threads]
        .iter()
        .enumerate()
        .filter(|(_, ops)| !ops.is_empty())
        .map(|(t, _)| ThreadId(t as u32))
        .collect();
    let mut ledger = Ledger::new(spec);
    let mut divergence = None;
    let mut matched = false;
    let mut attempts = 0;
    for attempt in 0..opts.attempts {
        let (strategy, strict) =
            match build_strategy(repro, opts, recon.as_ref(), attempt, threads, &busy) {
                Ok(pair) => pair,
                Err(msg) => {
                    // Unresolvable schedule: the finding cannot re-fire.
                    telemetry::add(telemetry::Counter::ReplayDivergences, 1);
                    return Ok(ReplayOutcome {
                        matched: false,
                        attempts,
                        divergence: Some(msg),
                        bugs: ledger.bugs().into_iter().cloned().collect(),
                        candidates: ledger.candidate_only_pairs(),
                        duration: start.elapsed(),
                    });
                }
            };
        let result = {
            let _span = telemetry::span(telemetry::Phase::ReplayAttempt);
            telemetry::add(telemetry::Counter::ReplayAttempts, 1);
            run_campaign(&spec, &seed, &cfg, strategy, None)?
        };
        attempts += 1;
        let _ = ledger.ingest_with_seed(&result, start.elapsed(), Some(&seed));
        if matches!(repro.schedule, ScheduleSpec::Free)
            && recon
                .as_ref()
                .and_then(|r| signature_plan(repro, r))
                .is_none()
        {
            // Free attempts double as recon for steered follow-ups (see
            // `build_strategy`) until one surfaces the signature's pair.
            recon = Some(result);
        }
        if let Some(strict) = strict {
            divergence = strict.divergence();
            if divergence.is_some() {
                telemetry::add(telemetry::Counter::ReplayDivergences, 1);
            }
        }
        let bugs: Vec<UniqueBug> = ledger.bugs().into_iter().cloned().collect();
        let candidates = ledger.candidate_only_pairs();
        if repro
            .signature
            .matches(&bugs, &candidates, ledger.bug_triples())
        {
            matched = true;
            telemetry::add(telemetry::Counter::ReplayMatches, 1);
            break;
        }
    }

    Ok(ReplayOutcome {
        matched,
        attempts,
        divergence,
        bugs: ledger.bugs().into_iter().cloned().collect(),
        candidates: ledger.candidate_only_pairs(),
        duration: start.elapsed(),
    })
}

/// The strategy for one replay attempt of a campaign with `threads` driver
/// threads, `busy` of which have operations, plus the strict-mode handle
/// for divergence reporting. `Err` carries a human-readable resolution
/// failure.
#[allow(clippy::type_complexity)]
fn build_strategy(
    repro: &Repro,
    opts: &ReplayOptions,
    recon: Option<&CampaignResult>,
    attempt: usize,
    threads: usize,
    busy: &[ThreadId],
) -> Result<
    (
        Option<Arc<dyn InterleaveStrategy>>,
        Option<Arc<ReplayStrategy>>,
    ),
    String,
> {
    if opts.mode == ReplayMode::Free {
        return Ok((None, None));
    }
    match &repro.schedule {
        ScheduleSpec::Free => match recon {
            // A free artifact recorded a race the OS scheduler happened
            // to produce, and a warm process may never repeat it. Once
            // the free attempt has missed, steer the follow-ups toward the
            // signature's own (read, write) pair with the Fig. 6
            // scheduler, resolved against a missed attempt that reached
            // it; until one does, perturb them with random delays. Either
            // way one thread starts first, each follow-up the next one:
            // the OS may keep picking the same winner of a volatile lock
            // for the whole process.
            Some(recon) if attempt > 0 => {
                let mut strategy: Arc<dyn InterleaveStrategy> = match signature_plan(repro, recon) {
                    Some(plan) => Arc::new(PmraceStrategy::with_skips(
                        plan,
                        repro.campaign.threads,
                        HashMap::new(),
                        repro.campaign.tuning,
                        attempt as u64,
                    )),
                    None => Arc::new(DelayStrategy::new(FREE_RETRY_DELAY, attempt as u64)),
                };
                if busy.len() > 1 {
                    let lead = busy[(attempt - 1) % busy.len()];
                    strategy = Arc::new(LeadFirst::new(lead, Some(strategy)));
                }
                Ok((Some(strategy), None))
            }
            _ => Ok((None, None)),
        },
        ScheduleSpec::Delay {
            max_delay_us,
            rng_seed,
        } => Ok((
            Some(Arc::new(DelayStrategy::new(
                Duration::from_micros(*max_delay_us),
                // Perturb follow-up attempts: repeating a losing delay
                // stream verbatim cannot observe anything new.
                rng_seed.wrapping_add(attempt as u64),
            ))),
            None,
        )),
        ScheduleSpec::Systematic { quantum, start } => Ok((
            Some(Arc::new(SystematicStrategy::new(
                repro.campaign.threads,
                *quantum,
                *start,
            ))),
            None,
        )),
        ScheduleSpec::Pmrace {
            off,
            load_sites,
            store_sites,
            cas_sites,
            rng_seed,
            skips,
            events,
            ..
        } => {
            let recon = recon.ok_or("internal: pmrace replay without recon")?;
            let granule_off = resolve_off(recon, load_sites, store_sites).unwrap_or(*off);
            if opts.mode == ReplayMode::Strict && !events.is_empty() {
                let events: Vec<ReplayEvent> = events
                    .iter()
                    .map(|e| ReplayEvent {
                        is_load: e.is_load,
                        label: e.site.clone(),
                        tid: e.tid,
                    })
                    .collect();
                let strict = Arc::new(ReplayStrategy::new(granule_off, events, threads));
                return Ok((Some(strict.clone()), Some(strict)));
            }
            // Steer (and Strict fallback when no events were captured):
            // rebuild the conditional-wait scheduler with pinned skips.
            let plan = SyncPlan {
                off: granule_off,
                load_sites: resolve_sites(load_sites)?,
                store_sites: resolve_sites(store_sites)?,
                // Lenient: a CAS site the recon run happened not to reach
                // only weakens retry stalling; it must not fail the replay.
                cas_sites: cas_sites
                    .iter()
                    .filter_map(|label| site_by_label(label).map(|s| s.id()))
                    .collect(),
            };
            let pinned: HashMap<u32, u32> = skips
                .iter()
                .filter_map(|(label, n)| site_by_label(label).map(|s| (s.id(), *n)))
                .collect();
            Ok((
                Some(Arc::new(PmraceStrategy::with_skips(
                    plan,
                    repro.campaign.threads,
                    pinned,
                    repro.campaign.tuning,
                    *rng_seed,
                ))),
                None,
            ))
        }
    }
}

/// Granule offset whose recon shared-access entry carries the recorded
/// load *and* store labels. Pool allocation is deterministic per seed, so
/// this normally agrees with the recorded offset — but re-resolving makes
/// artifacts robust to allocator changes.
fn resolve_off(recon: &CampaignResult, loads: &[String], stores: &[String]) -> Option<u64> {
    recon
        .shared
        .iter()
        .find(|e| {
            e.load_sites
                .iter()
                .any(|(s, _)| loads.iter().any(|l| site_label(*s) == *l))
                && e.store_sites
                    .iter()
                    .any(|(s, _)| stores.iter().any(|l| site_label(*s) == *l))
        })
        .map(|e| e.off)
}

/// Fig. 6 plan on the granule where `recon` saw the signature's read and
/// write labels meet; `None` for signatures without a racing pair (sync,
/// hang, perf) or when `recon` never reached it.
fn signature_plan(repro: &Repro, recon: &CampaignResult) -> Option<SyncPlan> {
    let sig = &repro.signature;
    if !matches!(sig.kind.as_str(), "Inter" | "Intra" | "Candidate") {
        return None;
    }
    let entry = recon.shared.iter().find(|e| {
        e.load_sites
            .iter()
            .any(|(s, _)| site_label(*s) == sig.read_label)
            && e.store_sites
                .iter()
                .any(|(s, _)| site_label(*s) == sig.write_label)
    })?;
    let ids_labelled = |sites: &[(pmrace_runtime::Site, u32)], label: &str| {
        sites
            .iter()
            .filter(|(s, _)| site_label(*s) == label)
            .map(|(s, _)| s.id())
            .collect()
    };
    Some(SyncPlan {
        off: entry.off,
        load_sites: ids_labelled(&entry.load_sites, &sig.read_label),
        store_sites: ids_labelled(&entry.store_sites, &sig.write_label),
        cas_sites: entry.cas_sites.iter().map(|(s, _)| s.id()).collect(),
    })
}

fn resolve_sites(labels: &[String]) -> Result<HashSet<u32>, String> {
    labels
        .iter()
        .map(|label| {
            site_by_label(label)
                .map(|s| s.id())
                .ok_or_else(|| format!("site '{label}' never executed during recon"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{BugSignature, CampaignSpec, REPRO_VERSION};
    use pmrace_api::Op;
    use pmrace_sched::SyncTuning;

    fn free_repro(target: &str, seed: Seed, sig: BugSignature, deadline_us: u64) -> Repro {
        Repro {
            version: REPRO_VERSION,
            target: target.to_owned(),
            signature: sig,
            description: "test repro".to_owned(),
            seed_text: seed.to_text(),
            campaign: CampaignSpec {
                threads: seed.num_threads(),
                deadline_us,
                eadr: false,
                eviction_interval_us: 0,
                extra_whitelist: Vec::new(),
                tuning: SyncTuning::default(),
            },
            schedule: ScheduleSpec::Free,
        }
    }

    #[test]
    fn hang_repro_replays_to_a_match() {
        // Bug 5: the idempotent update leaks the bucket lock; the next
        // insert on the bucket hangs. Deterministic from the seed alone.
        let seed = Seed::new(vec![vec![
            Op::Insert { key: 1, value: 1 },
            Op::Update { key: 1, value: 1 },
            Op::Insert { key: 1, value: 3 },
        ]]);
        let sig = BugSignature {
            kind: "Hang".to_owned(),
            write_label: String::new(),
            read_label: String::new(),
            effect_label: String::new(),
        };
        let repro = free_repro("P-CLHT", seed, sig, 150_000);
        let out = replay(&repro, &ReplayOptions::default()).unwrap();
        assert!(out.matched, "bugs: {:?}", out.bugs);
        assert_eq!(out.attempts, 1, "a deterministic hang matches first try");
    }

    #[test]
    fn unmatchable_signatures_report_no_match() {
        let seed = Seed::new(vec![vec![Op::Get { key: 1 }]]);
        let sig = BugSignature {
            kind: "Inter".to_owned(),
            write_label: "nonexistent.c:1".to_owned(),
            read_label: String::new(),
            effect_label: String::new(),
        };
        let repro = free_repro("P-CLHT", seed, sig, 100_000);
        let opts = ReplayOptions {
            attempts: 1,
            ..ReplayOptions::default()
        };
        let out = replay(&repro, &opts).unwrap();
        assert!(!out.matched);
    }

    #[test]
    fn unknown_targets_fail_with_a_listing_error() {
        let seed = Seed::new(vec![vec![Op::Get { key: 1 }]]);
        let repro = free_repro(
            "no-such-system",
            seed,
            BugSignature::candidate("w", "r"),
            1000,
        );
        let err = replay(&repro, &ReplayOptions::default()).unwrap_err();
        assert!(
            matches!(err, RtError::UnknownTarget(ref m)
                if m.contains("no-such-system") && m.contains("P-CLHT")),
            "{err}"
        );
    }

    #[test]
    fn unreachable_schedule_sites_surface_as_divergence_not_errors() {
        // A pmrace schedule whose sites the (trivial) seed never executes:
        // replay must finish with a divergence message, not an error —
        // this is exactly what ddmin probes look like.
        let seed = Seed::new(vec![vec![Op::Get { key: 1 }]]);
        let mut repro = free_repro(
            "P-CLHT",
            seed,
            BugSignature {
                kind: "Inter".to_owned(),
                write_label: "clht_lb_res.c:785".to_owned(),
                read_label: String::new(),
                effect_label: String::new(),
            },
            100_000,
        );
        // Labels no target registers (the site registry is process-global,
        // so real labels could be registered by sibling tests).
        repro.schedule = ScheduleSpec::Pmrace {
            off: 64,
            load_sites: vec!["replay-test.nonexistent:1".to_owned()],
            store_sites: vec!["replay-test.nonexistent:2".to_owned()],
            cas_sites: Vec::new(),
            rng_seed: 1,
            skips: Vec::new(),
            events: Vec::new(),
            truncated: false,
        };
        let out = replay(
            &repro,
            &ReplayOptions {
                mode: ReplayMode::Steer,
                attempts: 1,
            },
        )
        .unwrap();
        assert!(!out.matched);
        let msg = out.divergence.expect("divergence must be reported");
        assert!(msg.contains("never executed"), "{msg}");
    }

    #[test]
    fn free_artifacts_steer_toward_their_own_racing_pair() {
        // Two racing Michael-Scott producers: whichever links first, the
        // other reads a `next` pointer the linking CAS wrote, so a free
        // campaign always shares a granule between the two sites.
        pmrace_lockfree::register_lockfree();
        let spec = pmrace_api::resolve_target_or_err("ms-queue").unwrap();
        let seed = Seed::parse("t0: \nt1: \nt2: insert 2=16\nt3: insert 3=1").unwrap();
        let sig = BugSignature {
            kind: "Inter".to_owned(),
            write_label: "msq.c:62.link".to_owned(),
            read_label: "msq.c:59.read_next".to_owned(),
            effect_label: "msq.c:72.log_repair".to_owned(),
        };
        let mut repro = free_repro("ms-queue", seed.clone(), sig, 3_000_000);
        let cfg = CampaignConfig {
            threads: repro.campaign.threads,
            deadline: repro.deadline(),
            ..CampaignConfig::default()
        };
        let missed = run_campaign(&spec, &seed, &cfg, None, None).unwrap();
        let plan = signature_plan(&repro, &missed).expect("the pair shares a granule");
        assert_eq!(plan.load_sites.len(), 1);
        assert_eq!(plan.store_sites.len(), 1);
        let opts = ReplayOptions::default();
        let busy = [ThreadId(2), ThreadId(3)];
        assert!(
            build_strategy(&repro, &opts, Some(&missed), 0, 4, &busy)
                .unwrap()
                .0
                .is_none(),
            "the first attempt stays free"
        );
        assert!(build_strategy(&repro, &opts, Some(&missed), 1, 4, &busy)
            .unwrap()
            .0
            .is_some());
        // Signatures without a racing pair never resolve a plan.
        repro.signature.kind = "Hang".to_owned();
        assert!(signature_plan(&repro, &missed).is_none());
    }

    /// memcached-pmem bug 12 (`slabs.c:549` → `slabs.c:412`) fires only
    /// when t1's insert takes the volatile `cache_lock` before t3's first
    /// insert. The lock is taken before any PM access, so only the op-start
    /// order decides it.
    fn slabs_repro() -> Repro {
        let seed =
            Seed::parse("t0: \nt1: insert 257=157\nt2: \nt3: insert 107=143; insert 107=159")
                .unwrap();
        let sig = BugSignature {
            kind: "Inter".to_owned(),
            write_label: "slabs.c:549.store_next".to_owned(),
            read_label: "slabs.c:412.read_next".to_owned(),
            effect_label: "slabs.c:412.store_it_flags".to_owned(),
        };
        free_repro("memcached-pmem", seed, sig, 3_000_000)
    }

    /// Run one campaign of `repro` under `strategy`: did its signature
    /// fire, and what did the campaign produce?
    fn run_once(
        repro: &Repro,
        strategy: Option<Arc<dyn InterleaveStrategy>>,
    ) -> (bool, CampaignResult) {
        pmrace_targets::register_builtins();
        let spec = pmrace_api::resolve_target_or_err(&repro.target).unwrap();
        let seed = Seed::parse(&repro.seed_text).unwrap();
        let cfg = CampaignConfig {
            threads: repro.campaign.threads,
            deadline: repro.deadline(),
            ..CampaignConfig::default()
        };
        let result = run_campaign(&spec, &seed, &cfg, strategy, None).unwrap();
        let mut ledger = Ledger::new(spec);
        let _ = ledger.ingest_with_seed(&result, Duration::ZERO, Some(&seed));
        let bugs: Vec<UniqueBug> = ledger.bugs().into_iter().cloned().collect();
        let fired =
            repro
                .signature
                .matches(&bugs, &ledger.candidate_only_pairs(), ledger.bug_triples());
        (fired, result)
    }

    fn lead(t: u32) -> Option<Arc<dyn InterleaveStrategy>> {
        Some(Arc::new(LeadFirst::new(ThreadId(t), None)))
    }

    #[test]
    fn the_lead_thread_decides_a_volatile_lock_race() {
        let repro = slabs_repro();
        for round in 0..5 {
            assert!(run_once(&repro, lead(1)).0, "round {round}: t1 led, no bug");
            assert!(!run_once(&repro, lead(3)).0, "round {round}: t3 led, bug");
        }
    }

    #[test]
    fn follow_ups_of_a_missed_free_attempt_rotate_the_lead() {
        // A free attempt in which t3 took the lock first missed; the
        // follow-ups built from it let t1, t3, t1 lead in turn.
        let repro = slabs_repro();
        let (fired, missed) = run_once(&repro, lead(3));
        assert!(!fired);
        let busy = [ThreadId(1), ThreadId(3)];
        for round in 0..3 {
            for (attempt, fires) in [(1, true), (2, false), (3, true)] {
                let (strategy, _) = build_strategy(
                    &repro,
                    &ReplayOptions::default(),
                    Some(&missed),
                    attempt,
                    4,
                    &busy,
                )
                .unwrap();
                let (fired, result) = run_once(&repro, strategy);
                // The follow-ups add random delays: on a loaded host t1 can
                // sleep in one long enough, holding the lock, for t3's spin
                // to latch a hang, and the campaign ends before the read.
                assert!(
                    fired == fires || result.findings.hang,
                    "round {round}, attempt {attempt}: fired {fired}"
                );
            }
        }
    }
}
