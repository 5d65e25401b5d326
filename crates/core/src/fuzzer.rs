//! The top-level fuzzer: a fleet of exploration workers over a shared
//! wait-free coverage frontier, a sharded cross-worker seed pool (see
//! [`crate::fleet`]) and one shared bug ledger. Coverage merges are
//! atomic, each campaign is ingested (dedup, post-failure validation and
//! bug minting) in one call under the ledger lock, and timelines
//! accumulate in per-worker buffers merged at shutdown.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pmrace_api::TargetSpec;
use pmrace_runtime::coverage::CoverageMap;
use pmrace_runtime::RtError;
use pmrace_sched::SyncTuning;
use pmrace_telemetry as telemetry;

use crate::bugs::{DetectionStats, IngestDelta, Ledger, UniqueBug};
use crate::campaign::{CampaignConfig, StrategyKind};
use crate::corpus::CorpusDir;
use crate::explore::{ExploreConfig, Explorer, StepOutcome};
use crate::fleet::SharedCorpus;

/// Callback the fuzzer fires when a campaign contributes *new* unique
/// findings, with the step's full outcome (seed, captured schedule) and the
/// ledger delta. This is how the `pmrace-replay` crate auto-records repro
/// artifacts without the core depending on it.
#[derive(Clone)]
pub struct RecordSink(Arc<RecordFn>);

type RecordFn = dyn Fn(&StepOutcome, &IngestDelta) + Send + Sync;

impl RecordSink {
    /// Wrap a callback.
    pub fn new(f: impl Fn(&StepOutcome, &IngestDelta) + Send + Sync + 'static) -> Self {
        RecordSink(Arc::new(f))
    }

    /// Invoke the callback.
    pub fn call(&self, out: &StepOutcome, delta: &IngestDelta) {
        (self.0)(out, delta);
    }
}

impl std::fmt::Debug for RecordSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RecordSink(..)")
    }
}

/// Fuzzer configuration (defaults follow §6.1 scaled to simulator time).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Target system name (Table 1).
    pub target: String,
    /// Interleaving-exploration scheme.
    pub strategy: StrategyKind,
    /// Driver threads per campaign (paper: 4).
    pub threads: usize,
    /// Operations each driver thread issues per campaign.
    pub ops_per_thread: usize,
    /// Stop after this many campaigns.
    pub max_campaigns: usize,
    /// Stop after this much wall-clock time.
    pub wall_budget: Duration,
    /// Concurrent fuzzing worker threads (paper: 13).
    pub workers: usize,
    /// Use in-memory pool checkpoints (§5).
    pub use_checkpoint: bool,
    /// Enable the interleaving tier (disable for *w/o IE*).
    pub enable_interleaving_tier: bool,
    /// Enable the seed tier (disable for *w/o SE*).
    pub enable_seed_tier: bool,
    /// Per-campaign deadline (hang detection).
    pub campaign_deadline: Duration,
    /// Run under the eADR failure model (§6.6). Disables checkpoints.
    pub eadr: bool,
    /// Persist coverage-improving seeds here and reload them on the next
    /// run (AFL-style queue directory).
    pub corpus_dir: Option<std::path::PathBuf>,
    /// Extra whitelist rules (§4.4) beyond the default PMDK/checksum ones.
    pub extra_whitelist: Vec<String>,
    /// RNG seed for deterministic runs.
    pub rng_seed: u64,
    /// Fired with the step outcome and ledger delta whenever a campaign
    /// finds something new; turning it on also enables schedule capture in
    /// the explorers (see
    /// [`ExploreConfig::record_schedules`](crate::explore::ExploreConfig)).
    pub record: Option<RecordSink>,
    /// Turn the telemetry registry on and write `telemetry.json` +
    /// `trace.jsonl` into this directory when the run finishes (see
    /// `docs/OBSERVABILITY.md` for the schema).
    pub telemetry_dir: Option<std::path::PathBuf>,
    /// Print a human-readable progress line to stderr at this interval
    /// (also turns the telemetry registry on).
    pub progress_interval: Option<Duration>,
}

impl FuzzConfig {
    /// Sensible fast defaults for `target`.
    #[must_use]
    pub fn new(target: &str) -> Self {
        FuzzConfig {
            target: target.to_owned(),
            strategy: StrategyKind::Pmrace,
            threads: 4,
            ops_per_thread: 24,
            max_campaigns: 60,
            wall_budget: Duration::from_secs(30),
            workers: 1,
            use_checkpoint: true,
            enable_interleaving_tier: true,
            enable_seed_tier: true,
            campaign_deadline: Duration::from_millis(600),
            eadr: false,
            corpus_dir: None,
            extra_whitelist: Vec::new(),
            rng_seed: 0xC0FFEE,
            record: None,
            telemetry_dir: None,
            progress_interval: None,
        }
    }
}

/// One sample of the coverage timeline (Fig. 9 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageSample {
    /// Fuzzing time of the sample.
    pub at: Duration,
    /// Cumulative PM alias pairs.
    pub alias_pairs: usize,
    /// Cumulative branches.
    pub branches: usize,
}

/// Final report of a fuzzing run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Target name.
    pub target: &'static str,
    /// Detection statistics (Tables 3/6 raw material).
    pub stats: DetectionStats,
    /// Unique bugs found (Table 2/5 raw material).
    pub bugs: Vec<UniqueBug>,
    /// Candidate pairs that never grew side effects ("Other" pool).
    pub candidate_only: Vec<(String, String)>,
    /// Bug-verdict `(write, read, effect)` triples for Table 2 mapping.
    pub bug_triples: Vec<(String, String, String)>,
    /// Campaigns executed.
    pub campaigns: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Campaigns per second (Fig. 10 metric).
    pub execs_per_sec: f64,
    /// Total instrumented PM events across all campaigns.
    pub pm_accesses: u64,
    /// Instrumented PM events per second (the hot-path throughput meter:
    /// execs/sec conflates campaign setup with instrumentation speed, this
    /// isolates the latter).
    pub accesses_per_sec: f64,
    /// Coverage over time (Fig. 9 series).
    pub coverage_timeline: Vec<CoverageSample>,
    /// Times at which new unique inter-thread inconsistencies were found
    /// (Fig. 8 series).
    pub inter_times: Vec<Duration>,
    /// Final global alias-pair count.
    pub alias_pairs: usize,
    /// Final global branch count.
    pub branches: usize,
    /// Coverage-improving seeds that failed to persist to the corpus
    /// directory (every failure is counted; a silently shrinking corpus
    /// would corrupt later runs' starting points).
    pub corpus_save_errors: usize,
    /// First corpus-save failure message, when any occurred.
    pub corpus_error: Option<String>,
}

/// PM-aware coverage-guided fuzzer (the `pmrace` entry point).
#[derive(Debug)]
pub struct Fuzzer {
    cfg: FuzzConfig,
    spec: TargetSpec,
}

impl Fuzzer {
    /// Build a fuzzer for the configured target, resolving `cfg.target`
    /// through the process-global registry
    /// ([`pmrace_api::resolve_target`]). Built-in targets must have been
    /// registered first (`pmrace_targets::register_builtins()`); plugin
    /// targets resolve the same way after
    /// [`pmrace_api::register_target`].
    ///
    /// # Errors
    ///
    /// Returns [`RtError::UnknownTarget`] — whose message lists the names
    /// that *are* registered — if the target name does not resolve.
    pub fn new(cfg: FuzzConfig) -> Result<Self, RtError> {
        let spec = pmrace_api::resolve_target_or_err(&cfg.target)?;
        Ok(Fuzzer { cfg, spec })
    }

    /// Build a fuzzer directly from a spec, bypassing the registry —
    /// for harnesses that construct [`TargetSpec`]s programmatically.
    /// `cfg.target` is ignored in favor of `spec.name`.
    #[must_use]
    pub fn with_spec(mut cfg: FuzzConfig, spec: TargetSpec) -> Self {
        cfg.target = spec.name.to_owned();
        Fuzzer { cfg, spec }
    }

    fn explore_config(&self) -> ExploreConfig {
        ExploreConfig {
            strategy: self.cfg.strategy,
            enable_interleaving_tier: self.cfg.enable_interleaving_tier,
            enable_seed_tier: self.cfg.enable_seed_tier,
            execs_per_interleaving: 2,
            interleavings_per_seed: 6,
            campaign: CampaignConfig {
                threads: self.cfg.threads,
                deadline: self.cfg.campaign_deadline,
                eadr: self.cfg.eadr,
                extra_whitelist: self.cfg.extra_whitelist.clone(),
                ..CampaignConfig::default()
            },
            use_checkpoint: self.cfg.use_checkpoint && !self.cfg.eadr,
            tuning: SyncTuning::default(),
            ops_per_thread: self.cfg.ops_per_thread,
            initial_corpus: Vec::new(),
            record_schedules: self.cfg.record.is_some(),
        }
    }

    /// Run to budget exhaustion and report.
    ///
    /// # Errors
    ///
    /// Propagates target-construction failures from workers.
    pub fn run(&self) -> Result<FuzzReport, RtError> {
        let start = Instant::now();
        if self.cfg.telemetry_dir.is_some() || self.cfg.progress_interval.is_some() {
            telemetry::set_enabled(true);
        }
        telemetry::metrics::gauge_set(
            telemetry::Gauge::FuzzWorkers,
            self.cfg.workers.max(1) as u64,
        );
        let corpus_dir = match &self.cfg.corpus_dir {
            Some(dir) => Some(
                CorpusDir::open(dir)
                    .map_err(|e| RtError::Io(format!("corpus dir {}: {e}", dir.display())))?,
            ),
            None => None,
        };
        let loaded_corpus = match &corpus_dir {
            Some(c) => c
                .load_all()
                .map_err(|e| RtError::Io(format!("corpus load: {e}")))?,
            None => Vec::new(),
        };
        let worker_count = self.cfg.workers.max(1);
        // Fleet state. The frontier is merged into atomically by the
        // explorers themselves, the seed pool is striped per worker, and
        // every worker ingests its campaigns under the one ledger lock.
        let ledger = Mutex::new(Ledger::new(self.spec));
        let frontier = Arc::new(CoverageMap::new());
        let pool = Arc::new(SharedCorpus::new(worker_count));
        let campaigns = AtomicUsize::new(0);
        let pm_accesses = std::sync::atomic::AtomicU64::new(0);
        let first_err = Mutex::new(None::<RtError>);
        let corpus_save_errors = AtomicUsize::new(0);
        let corpus_error = Mutex::new(None::<String>);
        let record = self.cfg.record.clone();
        let reporter_stop = std::sync::atomic::AtomicBool::new(false);

        // Per-worker timeline buffers, merged (and time-sorted) after the
        // scope joins — the workers never contend on a timeline lock.
        let mut timeline: Vec<CoverageSample> = Vec::new();
        std::thread::scope(|scope| {
            // The progress reporter lives alongside the workers and is told
            // to stop only after every worker has been joined, so its last
            // line reflects the final counter values.
            let reporter = self.cfg.progress_interval.map(|every| {
                let stop = &reporter_stop;
                let campaigns = &campaigns;
                scope.spawn(move || progress_loop(start, every, stop, campaigns))
            });
            let mut workers = Vec::new();
            for w in 0..worker_count {
                let ledger = &ledger;
                let frontier = Arc::clone(&frontier);
                let pool = Arc::clone(&pool);
                let campaigns = &campaigns;
                let pm_accesses = &pm_accesses;
                let first_err = &first_err;
                let corpus_save_errors = &corpus_save_errors;
                let corpus_error = &corpus_error;
                let record = &record;
                let mut cfg = self.explore_config();
                cfg.initial_corpus = loaded_corpus.clone();
                let corpus_dir = &corpus_dir;
                let spec = self.spec;
                let rng_seed = self.cfg.rng_seed ^ (w as u64).wrapping_mul(0x9E37_79B9);
                let max_campaigns = self.cfg.max_campaigns;
                let wall_budget = self.cfg.wall_budget;
                workers.push(scope.spawn(move || {
                    let mut local_timeline = Vec::<CoverageSample>::new();
                    let frontier_view = Arc::clone(&frontier);
                    let mut explorer =
                        match Explorer::with_fleet(spec, cfg, rng_seed, frontier, pool, w) {
                            Ok(e) => e,
                            Err(e) => {
                                *first_err.lock() = Some(e);
                                return local_timeline;
                            }
                        };
                    loop {
                        if campaigns.load(Ordering::Relaxed) >= max_campaigns
                            || start.elapsed() >= wall_budget
                        {
                            // Flush the last (possibly partial) frontier
                            // epoch so the fleet totals end complete.
                            explorer.sync_frontier();
                            return local_timeline;
                        }
                        match explorer.step() {
                            Ok(out) => {
                                campaigns.fetch_add(1, Ordering::Relaxed);
                                pm_accesses.fetch_add(out.result.pm_accesses, Ordering::Relaxed);
                                telemetry::metrics::worker_exec(w);
                                let elapsed = start.elapsed();
                                // The explorer publishes novelty to the
                                // shared frontier immediately and batches
                                // no-news merges on epoch boundaries; the
                                // frontier counters are a racy-but-monotone
                                // fleet-wide snapshot for the sample and
                                // gauges.
                                let (alias, branches) = frontier_view.counts();
                                telemetry::metrics::gauge_set(
                                    telemetry::Gauge::CovAliasPairs,
                                    alias as u64,
                                );
                                telemetry::metrics::gauge_set(
                                    telemetry::Gauge::CovBranches,
                                    branches as u64,
                                );
                                if out.new_alias + out.new_branch > 0 {
                                    telemetry::add(telemetry::Counter::FleetFrontierHits, 1);
                                    if let Some(corpus) = &corpus_dir {
                                        if let Err(e) = corpus.save(&out.seed) {
                                            corpus_save_errors.fetch_add(1, Ordering::Relaxed);
                                            telemetry::add(telemetry::Counter::CorpusSaveErrors, 1);
                                            let mut slot = corpus_error.lock();
                                            if slot.is_none() {
                                                *slot = Some(e.to_string());
                                            }
                                        } else {
                                            telemetry::add(telemetry::Counter::CorpusSaved, 1);
                                        }
                                    }
                                }
                                local_timeline.push(CoverageSample {
                                    at: elapsed,
                                    alias_pairs: alias,
                                    branches,
                                });
                                // The lock guard is a temporary: the record
                                // sink runs with the ledger released.
                                let delta = ledger.lock().ingest_with_seed(
                                    &out.result,
                                    elapsed,
                                    Some(&out.seed),
                                );
                                if !delta.is_empty() {
                                    if let Some(sink) = record {
                                        sink.call(&out, &delta);
                                    }
                                }
                            }
                            Err(e) => {
                                *first_err.lock() = Some(e);
                                explorer.sync_frontier();
                                return local_timeline;
                            }
                        }
                    }
                }));
            }
            for h in workers {
                if let Ok(local) = h.join() {
                    timeline.extend(local);
                }
            }
            reporter_stop.store(true, Ordering::Release);
            if let Some(h) = reporter {
                let _ = h.join();
            }
        });
        timeline.sort_by_key(|s| s.at);

        if let Some(e) = first_err.into_inner() {
            return Err(e);
        }
        let elapsed = start.elapsed();
        let emit_span = telemetry::span(telemetry::Phase::ReportEmit);
        let ledger = ledger.into_inner();
        let total = campaigns.load(Ordering::Relaxed);
        let total_accesses = pm_accesses.load(Ordering::Relaxed);
        let report = FuzzReport {
            target: self.spec.name,
            stats: ledger.stats(),
            bugs: ledger.bugs().into_iter().cloned().collect(),
            candidate_only: ledger.candidate_only_pairs(),
            bug_triples: ledger.bug_triples().to_vec(),
            campaigns: total,
            elapsed,
            execs_per_sec: total as f64 / elapsed.as_secs_f64().max(1e-9),
            pm_accesses: total_accesses,
            accesses_per_sec: total_accesses as f64 / elapsed.as_secs_f64().max(1e-9),
            coverage_timeline: timeline,
            inter_times: ledger.inter_detection_times().to_vec(),
            alias_pairs: frontier.alias_pairs(),
            branches: frontier.branches(),
            corpus_save_errors: corpus_save_errors.load(Ordering::Relaxed),
            corpus_error: corpus_error.into_inner(),
        };
        // Close the span before snapshotting so the report_emit phase shows
        // up in its own telemetry.json.
        drop(emit_span);
        if let Some(dir) = &self.cfg.telemetry_dir {
            let resolve = |id: u32| {
                let site = pmrace_runtime::Site::from_id(id);
                let label = pmrace_runtime::site_label(site);
                (label != "<unknown site>")
                    .then(|| format!("{label} ({})", pmrace_runtime::site_location(site)))
            };
            telemetry::snapshot::write_snapshot(dir, &resolve)
                .map_err(|e| RtError::Io(format!("telemetry dir {}: {e}", dir.display())))?;
            telemetry::snapshot::write_trace_jsonl(dir)
                .map_err(|e| RtError::Io(format!("telemetry dir {}: {e}", dir.display())))?;
        }
        Ok(report)
    }
}

/// Periodic human-readable progress line (one per
/// [`FuzzConfig::progress_interval`] tick), rendered from the telemetry
/// registry onto stderr. Multi-worker runs get a second line with the
/// per-worker execs/s split so a stalled or starved worker is visible.
fn progress_loop(
    start: Instant,
    every: Duration,
    stop: &std::sync::atomic::AtomicBool,
    campaigns: &AtomicUsize,
) {
    use telemetry::metrics::{counter, gauge};
    use telemetry::{Counter as C, Gauge as G};
    let every = every.max(Duration::from_millis(10));
    let poll = Duration::from_millis(10).min(every);
    let mut next = start + every;
    loop {
        while Instant::now() < next {
            if stop.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(poll);
        }
        next += every;
        let elapsed = start.elapsed().as_secs_f64();
        let done = campaigns.load(Ordering::Relaxed);
        eprintln!(
            "[pmrace] {elapsed:7.1}s  campaigns {done} ({:.1}/s)  cov {} alias / {} branches  \
             plans {}/{} fired  inconsistencies {}  validations {} ({} bugs)",
            done as f64 / elapsed.max(1e-9),
            gauge(G::CovAliasPairs),
            gauge(G::CovBranches),
            counter(C::PlanAlternationsFired),
            counter(C::PlanPlanned),
            counter(C::CheckerInconsistencies),
            counter(C::ValidateRuns),
            counter(C::ValidateBugs),
        );
        let per_worker = telemetry::metrics::worker_execs();
        if per_worker.len() > 1 {
            use std::fmt::Write as _;
            let mut parts = String::new();
            for (w, execs) in per_worker {
                let _ = write!(parts, " w{w} {:.1}/s", execs as f64 / elapsed.max(1e-9));
            }
            eprintln!(
                "[pmrace] per-worker execs/s:{parts}  steals {}  shared seeds {}",
                counter(C::FleetSteals),
                counter(C::FleetSharedSeeds),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn register() {
        pmrace_targets::register_builtins();
    }

    #[test]
    fn unknown_target_is_rejected_with_a_listing_error() {
        register();
        let err = Fuzzer::new(FuzzConfig::new("nope")).unwrap_err();
        let RtError::UnknownTarget(msg) = &err else {
            panic!("expected UnknownTarget, got {err:?}");
        };
        assert!(msg.contains("\"nope\""), "{msg}");
        assert!(
            msg.contains("P-CLHT"),
            "error lists registered names: {msg}"
        );
    }

    #[test]
    fn with_spec_bypasses_the_registry() {
        register();
        let spec = pmrace_targets::target_spec("clevel").unwrap();
        let fuzzer = Fuzzer::with_spec(FuzzConfig::new("ignored"), spec);
        assert_eq!(fuzzer.cfg.target, "clevel");
        assert_eq!(fuzzer.spec.name, "clevel");
    }

    #[test]
    fn short_run_produces_a_report() {
        register();
        let mut cfg = FuzzConfig::new("clevel");
        cfg.max_campaigns = 4;
        cfg.wall_budget = Duration::from_secs(20);
        cfg.campaign_deadline = Duration::from_millis(200);
        cfg.threads = 2;
        let report = Fuzzer::new(cfg).unwrap().run().unwrap();
        assert_eq!(report.target, "clevel");
        assert!(report.campaigns >= 1);
        assert!(report.branches > 0);
        assert_eq!(report.coverage_timeline.len(), report.campaigns);
        assert!(report.execs_per_sec > 0.0);
        assert!(report.pm_accesses > 0);
        assert!(report.accesses_per_sec > 0.0);
    }

    #[test]
    fn record_sink_fires_with_captures_on_new_findings() {
        register();
        let mut cfg = FuzzConfig::new("P-CLHT");
        cfg.max_campaigns = 4;
        cfg.workers = 1;
        cfg.threads = 2;
        cfg.wall_budget = Duration::from_secs(20);
        cfg.campaign_deadline = Duration::from_millis(300);
        let fired = Arc::new(AtomicUsize::new(0));
        let captured = Arc::new(AtomicUsize::new(0));
        let (f, c) = (Arc::clone(&fired), Arc::clone(&captured));
        cfg.record = Some(RecordSink::new(move |out, delta| {
            assert!(!delta.is_empty(), "sink must only fire on new findings");
            f.fetch_add(1, Ordering::Relaxed);
            if out.capture.is_some() {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }));
        let report = Fuzzer::new(cfg).unwrap().run().unwrap();
        assert!(report.campaigns >= 1);
        let fired = fired.load(Ordering::Relaxed);
        assert!(fired >= 1, "P-CLHT campaigns surface new candidates");
        assert_eq!(
            fired,
            captured.load(Ordering::Relaxed),
            "record mode must attach a schedule capture to every outcome"
        );
    }

    #[test]
    fn corpus_open_failure_carries_the_io_cause() {
        register();
        let file = std::env::temp_dir().join(format!("pmrace-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "occupied").unwrap();
        let mut cfg = FuzzConfig::new("clevel");
        cfg.corpus_dir = Some(file.clone());
        let err = Fuzzer::new(cfg).unwrap().run().unwrap_err();
        match err {
            RtError::Io(msg) => assert!(msg.contains("corpus dir"), "{msg}"),
            other => panic!("expected RtError::Io, got {other:?}"),
        }
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn corpus_save_failures_surface_in_the_report() {
        register();
        let mut cfg = FuzzConfig::new("clevel");
        cfg.max_campaigns = 2;
        cfg.workers = 1;
        cfg.threads = 2;
        cfg.wall_budget = Duration::from_secs(20);
        cfg.campaign_deadline = Duration::from_millis(200);
        // /proc exists (so the corpus opens and lists cleanly) but rejects
        // file creation: every attempted save must fail and be counted
        // instead of silently dropped.
        cfg.corpus_dir = Some(std::path::PathBuf::from("/proc"));
        let report = Fuzzer::new(cfg).unwrap().run().unwrap();
        assert!(report.corpus_save_errors >= 1, "{report:?}");
        assert!(report.corpus_error.is_some());
    }

    #[test]
    fn concurrent_workers_share_the_ledger() {
        register();
        let mut cfg = FuzzConfig::new("clevel");
        cfg.max_campaigns = 6;
        cfg.workers = 3;
        cfg.threads = 2;
        cfg.wall_budget = Duration::from_secs(30);
        cfg.campaign_deadline = Duration::from_millis(200);
        let report = Fuzzer::new(cfg).unwrap().run().unwrap();
        assert!(report.campaigns >= 3, "campaigns {}", report.campaigns);
        assert!(report.stats.campaigns >= 3);
    }
}
