//! The three exploration tiers (§4.2.3).
//!
//! - **Execution tier** — rerun the same seed + interleaving plan while
//!   coverage grows (interleavings are nondeterministic; repeats pay off).
//! - **Interleaving tier** — when executions stop helping, fetch the next
//!   entry from the shared-access priority queue and force that
//!   interleaving with the Fig. 6 scheduler.
//! - **Seed tier** — when no interleaving helps either, evolve a new seed
//!   with the operation mutator and rebuild the queue.
//!
//! Ablation flags disable the interleaving tier (*w/o IE*) or the seed tier
//! (*w/o SE*) for the Fig. 9 experiment.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmrace_api::TargetSpec;
use pmrace_runtime::coverage::CoverageMap;
use pmrace_runtime::strategy::InterleaveStrategy;
use pmrace_runtime::{site_label, RtError, Site};
use pmrace_sched::{
    AccessQueue, DelayStrategy, PmraceStrategy, RecordingStrategy, ScheduleLog, SkipStore,
    SyncPlan, SyncTuning, SystematicStrategy,
};
use pmrace_telemetry as telemetry;

use crate::campaign::{run_campaign, CampaignConfig, CampaignResult, PoolStart, StrategyKind};
use crate::checkpoint::Checkpoint;
use crate::fleet::SharedCorpus;
use crate::mutator::OpMutator;
use crate::schedule::{EventCapture, PlanCapture, ScheduleCapture, StrategyCapture};
use crate::seed::Seed;

/// Which tier produced a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Re-execution of the current seed/interleaving.
    Execution,
    /// A freshly fetched interleaving plan.
    Interleaving,
    /// A freshly evolved seed.
    Seed,
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Interleaving scheme.
    pub strategy: StrategyKind,
    /// Enable the interleaving tier (disable for *w/o IE*).
    pub enable_interleaving_tier: bool,
    /// Enable the seed tier (disable for *w/o SE*).
    pub enable_seed_tier: bool,
    /// Executions per interleaving plan before fetching the next.
    pub execs_per_interleaving: usize,
    /// Interleaving plans per seed before evolving a new seed.
    pub interleavings_per_seed: usize,
    /// Campaign execution parameters.
    pub campaign: CampaignConfig,
    /// Start campaigns from an in-memory checkpoint.
    pub use_checkpoint: bool,
    /// Fig. 6 scheduler timing knobs.
    pub tuning: SyncTuning,
    /// Operations each driver thread issues per campaign.
    pub ops_per_thread: usize,
    /// Extra seeds to start the corpus from (e.g. loaded from a
    /// [`CorpusDir`](crate::corpus::CorpusDir)).
    pub initial_corpus: Vec<Seed>,
    /// Capture each campaign's nondeterminism frontier (strategy RNG seeds,
    /// realized skips, released access order) into
    /// [`StepOutcome::capture`] so bugs can be turned into repro artifacts.
    pub record_schedules: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            strategy: StrategyKind::Pmrace,
            enable_interleaving_tier: true,
            enable_seed_tier: true,
            execs_per_interleaving: 2,
            interleavings_per_seed: 6,
            campaign: CampaignConfig::default(),
            use_checkpoint: true,
            tuning: SyncTuning::default(),
            ops_per_thread: 24,
            initial_corpus: Vec::new(),
            record_schedules: false,
        }
    }
}

/// Result of one exploration step.
#[derive(Debug)]
pub struct StepOutcome {
    /// The campaign's findings and coverage.
    pub result: CampaignResult,
    /// The seed the campaign executed (attached to bug reports).
    pub seed: Seed,
    /// The tier that produced it.
    pub tier: Tier,
    /// New PM alias pairs contributed to this explorer's coverage.
    pub new_alias: usize,
    /// New branches contributed.
    pub new_branch: usize,
    /// The campaign's captured schedule, when
    /// [`ExploreConfig::record_schedules`] is on.
    pub capture: Option<ScheduleCapture>,
}

/// Stateful three-tier explorer for one target.
pub struct Explorer {
    spec: TargetSpec,
    cfg: ExploreConfig,
    mutator: OpMutator,
    corpus: Vec<Seed>,
    seed: Seed,
    queue: AccessQueue,
    skip_store: Arc<SkipStore>,
    plan: Option<SyncPlan>,
    execs_on_plan: usize,
    plans_on_seed: usize,
    /// Coverage frontier novelty is judged against. Always worker-local:
    /// campaign maps merge into it every exec, and in a fleet it syncs with
    /// the shared [`FleetLink::frontier`] on *epoch boundaries* (every
    /// `FRONTIER_EPOCH` execs, or immediately when this worker found new
    /// coverage) rather than per exec — the sibling workers' bits still
    /// arrive, just batched, so the shared map is touched O(1/epoch) times
    /// instead of twice per campaign.
    coverage: Arc<CoverageMap>,
    /// Cross-worker seed pool this explorer publishes to / imports from.
    fleet: Option<FleetLink>,
    checkpoint: Option<Checkpoint>,
    rng: StdRng,
    campaigns: usize,
    stalled_seeds: usize,
    populate_done: bool,
}

/// Execs between frontier epoch syncs: how stale a worker's view of the
/// sibling workers' coverage may get before the next publish/pull. Novelty
/// judged against a ≤16-exec-stale frontier occasionally re-admits a seed a
/// sibling already found — a few redundant corpus entries, dedup'd at the
/// next sync — in exchange for taking the shared map off the per-exec path.
const FRONTIER_EPOCH: usize = 16;

/// An explorer's membership in a fleet: the shared pool, its worker index,
/// and the import cursor (last pool epoch this explorer has seen).
struct FleetLink {
    pool: Arc<SharedCorpus>,
    worker: usize,
    cursor: u64,
    /// Freshest sibling seed imported in the latest batch; the next
    /// seed-tier switch steals it (evolves from it directly) instead of
    /// drawing from the mixed corpus, so cross-worker discoveries propagate
    /// within one seed cycle.
    stolen: Option<Seed>,
    /// The fleet-wide coverage frontier, synced on epoch boundaries.
    frontier: Arc<CoverageMap>,
    /// Execs since the last frontier publish/pull.
    execs_since_sync: usize,
}

impl std::fmt::Debug for Explorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("target", &self.spec.name)
            .field("campaigns", &self.campaigns)
            .field("corpus", &self.corpus.len())
            .finish_non_exhaustive()
    }
}

impl Explorer {
    /// Create an explorer with a fresh mutator-generated seed.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-creation (target init) errors.
    pub fn new(spec: TargetSpec, cfg: ExploreConfig, rng_seed: u64) -> Result<Self, RtError> {
        Self::build(spec, cfg, rng_seed, Arc::new(CoverageMap::new()), None)
    }

    /// Create a fleet-member explorer: campaign coverage merges into a
    /// worker-local map every exec and syncs with the shared `frontier` on
    /// epoch boundaries (`FRONTIER_EPOCH` execs, or immediately on new
    /// coverage), so "new" means new fleet-wide up to one epoch of
    /// staleness; coverage-improving seeds are exchanged through `pool`,
    /// publishing to stripe `worker` and importing from the sibling
    /// stripes. The RNG stream is untouched by fleet membership: imports
    /// change *which* seeds get evolved, never how this worker's `StdRng`
    /// draws, and a single-worker fleet has no sibling stripes and is the
    /// frontier's only contributor, so `workers=1` runs are byte-identical
    /// to a standalone explorer.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-creation (target init) errors.
    pub fn with_fleet(
        spec: TargetSpec,
        cfg: ExploreConfig,
        rng_seed: u64,
        frontier: Arc<CoverageMap>,
        pool: Arc<SharedCorpus>,
        worker: usize,
    ) -> Result<Self, RtError> {
        let link = FleetLink {
            pool,
            worker,
            cursor: 0,
            stolen: None,
            frontier,
            execs_since_sync: 0,
        };
        Self::build(
            spec,
            cfg,
            rng_seed,
            Arc::new(CoverageMap::new()),
            Some(link),
        )
    }

    /// Publish this worker's coverage to the fleet frontier and pull the
    /// siblings' accumulated bits back. Called on epoch boundaries during
    /// [`step`](Self::step) and once more by the fleet driver before the
    /// worker retires, so the frontier ends complete.
    pub fn sync_frontier(&mut self) {
        if let Some(link) = &mut self.fleet {
            link.frontier.merge_from(&self.coverage);
            self.coverage.merge_from(&link.frontier);
            link.execs_since_sync = 0;
        }
    }

    fn build(
        spec: TargetSpec,
        cfg: ExploreConfig,
        rng_seed: u64,
        coverage: Arc<CoverageMap>,
        fleet: Option<FleetLink>,
    ) -> Result<Self, RtError> {
        let mut mutator = OpMutator::with_hints(
            rng_seed,
            cfg.campaign.threads,
            cfg.ops_per_thread,
            spec.hints,
        );
        let seed = mutator.generate();
        // The corpus starts with a populate seed too: the insert flood that
        // triggers resize/split mechanisms (§4.5) — plus any seeds carried
        // over from a previous run's corpus directory.
        let mut corpus = vec![seed.clone(), mutator.populate()];
        corpus.extend(cfg.initial_corpus.iter().cloned());
        let checkpoint = if cfg.use_checkpoint {
            Some(Checkpoint::create(&spec)?)
        } else {
            None
        };
        Ok(Explorer {
            spec,
            cfg,
            mutator,
            corpus,
            seed,
            queue: AccessQueue::new(),
            skip_store: Arc::new(SkipStore::new()),
            plan: None,
            execs_on_plan: 0,
            plans_on_seed: 0,
            coverage,
            fleet,
            checkpoint,
            rng: StdRng::seed_from_u64(rng_seed ^ 0xABCD),
            campaigns: 0,
            stalled_seeds: 0,
            populate_done: false,
        })
    }

    /// Campaigns run so far.
    #[must_use]
    pub fn campaigns(&self) -> usize {
        self.campaigns
    }

    /// Coverage counters `(alias_pairs, branches)` of the frontier this
    /// explorer judges novelty against — its own map standalone, the shared
    /// fleet frontier under [`Explorer::with_fleet`].
    #[must_use]
    pub fn coverage_counts(&self) -> (usize, usize) {
        (self.coverage.alias_pairs(), self.coverage.branches())
    }

    /// Pull everything siblings published since the last look into the
    /// local corpus and remember the freshest import as a steal candidate.
    fn import_from_fleet(&mut self) {
        let imports = match self.fleet.as_mut() {
            Some(link) => {
                let (imports, cursor) = link.pool.import_since(link.worker, link.cursor);
                link.cursor = cursor;
                if imports.is_empty() {
                    return;
                }
                link.stolen = imports.last().cloned();
                imports
            }
            None => return,
        };
        crate::fleet::note_imports(imports.len());
        for seed in imports {
            if !self.corpus.contains(&seed) {
                self.corpus.push(seed);
                if self.corpus.len() > 16 {
                    self.corpus.remove(0);
                }
            }
        }
    }

    fn next_seed(&mut self) {
        let _span = telemetry::span(telemetry::Phase::SeedGen);
        self.import_from_fleet();
        let has_stolen = self.fleet.as_ref().is_some_and(|f| f.stolen.is_some());
        if !self.populate_done || self.stalled_seeds >= 2 {
            // The first seed switch (and any coverage stall) runs the
            // populate phase (§4.5): an insert flood with spread keys that
            // reliably drives resize/split/doubling/eviction mechanisms.
            self.populate_done = true;
            self.seed = self.mutator.populate();
            self.stalled_seeds = 0;
            telemetry::add(telemetry::Counter::SeedPopulated, 1);
        } else if has_stolen && self.rng.random_ratio(1, 2) {
            // Work-stealing: evolve straight from the freshest sibling
            // discovery instead of the mixed corpus, so a seed that
            // unlocked coverage on another worker is being mutated here
            // within one seed cycle.
            let stolen = self
                .fleet
                .as_mut()
                .and_then(|f| f.stolen.take())
                .expect("checked above");
            let (seed, _strategy) = self.mutator.evolve(std::slice::from_ref(&stolen));
            self.seed = seed;
            crate::fleet::note_steal();
            telemetry::add(telemetry::Counter::SeedEvolved, 1);
        } else if self.rng.random_ratio(1, 3) {
            // Fresh generator seeds keep diversity up: pure corpus
            // evolution orbits its ancestors and can miss behaviours none
            // of them trigger.
            self.seed = self.mutator.generate();
            telemetry::add(telemetry::Counter::SeedGenerated, 1);
        } else {
            let (seed, _strategy) = self.mutator.evolve(&self.corpus);
            self.seed = seed;
            telemetry::add(telemetry::Counter::SeedEvolved, 1);
        }
        self.queue.reset_explored();
        self.skip_store = Arc::new(SkipStore::new());
        self.plan = None;
        self.execs_on_plan = 0;
        self.plans_on_seed = 0;
    }

    fn build_strategy(&mut self) -> (Option<Arc<dyn InterleaveStrategy>>, Tier, PendingCapture) {
        let record = self.cfg.record_schedules;
        match self.cfg.strategy {
            StrategyKind::None => (None, Tier::Execution, PendingCapture::none()),
            StrategyKind::Delay { max_delay_us } => {
                let rng_seed: u64 = self.rng.random();
                (
                    Some(Arc::new(DelayStrategy::new(
                        Duration::from_micros(max_delay_us),
                        rng_seed,
                    ))),
                    Tier::Execution,
                    PendingCapture::plain(StrategyCapture::Delay {
                        max_delay_us,
                        rng_seed,
                    }),
                )
            }
            StrategyKind::Systematic => {
                let start: u32 = self.rng.random();
                (
                    Some(Arc::new(SystematicStrategy::new(
                        self.cfg.campaign.threads,
                        4,
                        start,
                    ))),
                    Tier::Execution,
                    PendingCapture::plain(StrategyCapture::Systematic { quantum: 4, start }),
                )
            }
            StrategyKind::Pmrace => {
                if !self.cfg.enable_interleaving_tier {
                    return (None, Tier::Execution, PendingCapture::none());
                }
                let mut tier = Tier::Execution;
                if self.plan.is_none() || self.execs_on_plan >= self.cfg.execs_per_interleaving {
                    if let Some(entry) = self.queue.pop_unexplored() {
                        self.plan = Some(SyncPlan::from(&entry));
                        self.execs_on_plan = 0;
                        self.plans_on_seed += 1;
                        tier = Tier::Interleaving;
                        telemetry::add(telemetry::Counter::PlanPlanned, 1);
                    } else {
                        self.plan = None;
                    }
                }
                match &self.plan {
                    Some(plan) => {
                        let rng_seed: u64 = self.rng.random();
                        let strategy = Arc::new(PmraceStrategy::new(
                            plan.clone(),
                            self.cfg.campaign.threads,
                            Arc::clone(&self.skip_store),
                            self.cfg.tuning,
                            rng_seed,
                        ));
                        if record {
                            // The realized skips and the plan must be read
                            // off the concrete strategy *before* type
                            // erasure; the released-access order is only
                            // known after the campaign, so the shared log
                            // travels in the pending capture.
                            let skips = strategy
                                .initial_skips()
                                .iter()
                                .map(|&(s, n)| (site_label(Site::from_id(s)).to_owned(), n))
                                .collect();
                            let log = Arc::new(ScheduleLog::new(plan.off));
                            let pending = PendingCapture {
                                strategy: Some(StrategyCapture::Pmrace {
                                    plan: PlanCapture {
                                        off: plan.off,
                                        load_sites: labels_of(&plan.load_sites),
                                        store_sites: labels_of(&plan.store_sites),
                                        cas_sites: labels_of(&plan.cas_sites),
                                    },
                                    rng_seed,
                                    skips,
                                    events: Vec::new(),
                                    truncated: false,
                                }),
                                log: Some(Arc::clone(&log)),
                            };
                            let recording = RecordingStrategy::new(strategy, log);
                            (Some(Arc::new(recording)), tier, pending)
                        } else {
                            (Some(strategy), tier, PendingCapture::none())
                        }
                    }
                    None => (None, Tier::Execution, PendingCapture::none()),
                }
            }
        }
    }

    /// Finish a pending capture after the campaign ran: drain the schedule
    /// log (if any) into the strategy capture and wrap the campaign's
    /// execution parameters around it.
    fn finish_capture(&self, pending: PendingCapture) -> Option<ScheduleCapture> {
        if !self.cfg.record_schedules {
            return None;
        }
        let mut strategy = pending.strategy.unwrap_or(StrategyCapture::None);
        if let (
            StrategyCapture::Pmrace {
                events, truncated, ..
            },
            Some(log),
        ) = (&mut strategy, &pending.log)
        {
            let (recorded, was_truncated) = log.snapshot();
            *events = recorded
                .iter()
                .map(|e| EventCapture {
                    is_load: e.is_load,
                    site: site_label(e.site).to_owned(),
                    tid: e.tid,
                })
                .collect();
            *truncated = was_truncated;
        }
        Some(ScheduleCapture {
            strategy,
            threads: self.cfg.campaign.threads,
            tuning: self.cfg.tuning,
            eadr: self.cfg.campaign.eadr,
            deadline: self.cfg.campaign.deadline,
            extra_whitelist: self.cfg.campaign.extra_whitelist.clone(),
        })
    }

    /// Run one exploration step (one campaign).
    ///
    /// # Errors
    ///
    /// Propagates target-construction errors from the campaign.
    pub fn step(&mut self) -> Result<StepOutcome, RtError> {
        // Seed-tier switch when the current seed is exhausted: its
        // interleaving budget is spent (the priority queue rarely drains —
        // every campaign contributes fresh shared addresses — so the budget,
        // not queue emptiness, bounds the time spent per seed).
        let seed_exhausted = match self.cfg.strategy {
            StrategyKind::Pmrace if self.cfg.enable_interleaving_tier => {
                self.plans_on_seed >= self.cfg.interleavings_per_seed
            }
            _ => {
                self.campaigns > 0
                    && self.campaigns.is_multiple_of(
                        self.cfg.execs_per_interleaving * self.cfg.interleavings_per_seed,
                    )
            }
        };
        let mut tier = Tier::Execution;
        if seed_exhausted && self.cfg.enable_seed_tier {
            self.next_seed();
            tier = Tier::Seed;
        }

        let (strategy, strategy_tier, pending) = self.build_strategy();
        if tier == Tier::Execution {
            tier = strategy_tier;
        }
        self.execs_on_plan += 1;

        // The very first campaign runs without the checkpoint so the
        // target's *construction* path executes under the checkers once
        // (clevel's Fig. 7 inconsistencies live there). With checkpoints
        // on, it starts on the formatted spare pool; without them every
        // campaign formats its own (the Fig. 10 baseline).
        let start = match &self.checkpoint {
            Some(_) if self.campaigns == 0 => PoolStart::Spare,
            Some(cp) => PoolStart::Checkpoint(cp),
            None => PoolStart::Format,
        };
        let result = run_campaign(&self.spec, &self.seed, &self.cfg.campaign, strategy, start)?;
        self.campaigns += 1;
        self.queue.merge(&result.shared);
        if telemetry::enabled() {
            // Worker-local depth; with several workers the last writer
            // wins, which is fine for a level gauge.
            telemetry::metrics::gauge_set(
                telemetry::Gauge::QueueDepth,
                self.queue.unexplored() as u64,
            );
        }
        let (new_alias, new_branch) = self.coverage.merge_from(&result.coverage);
        let sync_now = match &mut self.fleet {
            Some(link) => {
                link.execs_since_sync += 1;
                // Novelty goes out immediately (siblings should stop
                // chasing it); otherwise the shared map is only touched
                // once an epoch.
                new_alias + new_branch > 0 || link.execs_since_sync >= FRONTIER_EPOCH
            }
            None => false,
        };
        if sync_now {
            self.sync_frontier();
        }
        if new_alias + new_branch > 0 {
            self.stalled_seeds = 0;
            if !self.corpus.contains(&self.seed) {
                self.corpus.push(self.seed.clone());
                if self.corpus.len() > 16 {
                    self.corpus.remove(0);
                }
            }
            // Frontier-advancing seeds are fleet property: publish so the
            // sibling workers can evolve them too.
            if let Some(link) = &self.fleet {
                link.pool.publish(link.worker, &self.seed);
            }
        } else if tier == Tier::Seed {
            self.stalled_seeds += 1;
        }
        // Expire the plan early when it stopped contributing.
        if new_alias == 0 && self.execs_on_plan >= 2 {
            self.execs_on_plan = self.cfg.execs_per_interleaving;
        }
        let capture = self.finish_capture(pending);
        Ok(StepOutcome {
            result,
            seed: self.seed.clone(),
            tier,
            new_alias,
            new_branch,
            capture,
        })
    }
}

/// What `build_strategy` knows before the campaign runs; completed into a
/// [`ScheduleCapture`] afterwards (the event log fills during execution).
struct PendingCapture {
    strategy: Option<StrategyCapture>,
    log: Option<Arc<ScheduleLog>>,
}

impl PendingCapture {
    fn none() -> Self {
        PendingCapture {
            strategy: None,
            log: None,
        }
    }

    fn plain(strategy: StrategyCapture) -> Self {
        PendingCapture {
            strategy: Some(strategy),
            log: None,
        }
    }
}

fn labels_of(sites: &std::collections::HashSet<u32>) -> Vec<String> {
    let mut labels: Vec<String> = sites
        .iter()
        .map(|&s| site_label(Site::from_id(s)).to_owned())
        .collect();
    labels.sort_unstable();
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_targets::target_spec;

    fn fast_cfg(strategy: StrategyKind) -> ExploreConfig {
        ExploreConfig {
            strategy,
            campaign: CampaignConfig {
                threads: 2,
                deadline: Duration::from_millis(250),
                ..CampaignConfig::default()
            },
            execs_per_interleaving: 2,
            interleavings_per_seed: 2,
            use_checkpoint: true,
            tuning: SyncTuning {
                reader_poll: Duration::from_micros(50),
                writer_wait: Duration::from_micros(500),
                disable_iters: 100,
                skip_jitter: 2,
            },
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn explorer_accumulates_coverage_over_steps() {
        let spec = target_spec("CCEH").unwrap();
        let mut ex = Explorer::new(spec, fast_cfg(StrategyKind::Pmrace), 11).unwrap();
        let mut saw_interleaving = false;
        for _ in 0..6 {
            let out = ex.step().unwrap();
            if out.tier == Tier::Interleaving {
                saw_interleaving = true;
            }
        }
        let (_, branches) = ex.coverage_counts();
        assert!(branches > 0);
        assert_eq!(ex.campaigns(), 6);
        assert!(
            saw_interleaving,
            "pmrace strategy must reach the interleaving tier"
        );
    }

    #[test]
    fn delay_strategy_never_uses_interleaving_tier() {
        let spec = target_spec("clevel").unwrap();
        let mut ex =
            Explorer::new(spec, fast_cfg(StrategyKind::Delay { max_delay_us: 50 }), 12).unwrap();
        for _ in 0..4 {
            let out = ex.step().unwrap();
            assert_ne!(out.tier, Tier::Interleaving);
        }
    }

    #[test]
    fn recording_attaches_schedule_captures() {
        let spec = target_spec("P-CLHT").unwrap();
        let mut cfg = fast_cfg(StrategyKind::Pmrace);
        cfg.record_schedules = true;
        let mut ex = Explorer::new(spec, cfg, 21).unwrap();
        let mut saw_pmrace_capture = false;
        for _ in 0..6 {
            let out = ex.step().unwrap();
            let cap = out.capture.expect("recording on: every step captures");
            assert_eq!(cap.threads, 2);
            if let StrategyCapture::Pmrace { plan, skips, .. } = &cap.strategy {
                assert!(
                    !plan.load_sites.is_empty() || !plan.cas_sites.is_empty(),
                    "a plan needs at least one load or CAS sync point"
                );
                assert_eq!(skips.len(), plan.load_sites.len());
                saw_pmrace_capture = true;
            }
        }
        assert!(
            saw_pmrace_capture,
            "pmrace steps with a plan must capture it"
        );
    }

    #[test]
    fn seed_tier_can_be_disabled() {
        let spec = target_spec("clevel").unwrap();
        let mut cfg = fast_cfg(StrategyKind::None);
        cfg.enable_seed_tier = false;
        let mut ex = Explorer::new(spec, cfg, 13).unwrap();
        let first_seed = ex.seed.clone();
        for _ in 0..5 {
            let _ = ex.step().unwrap();
        }
        assert_eq!(ex.seed, first_seed, "w/o SE must keep the initial seed");
    }
}
