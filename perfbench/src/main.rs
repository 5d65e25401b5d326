//! One fixed-work benchmark round of the PMRace fuzzer, run through its
//! public entry points (`Fuzzer::run`, `pmrace_replay::replay`,
//! `ReproStore::load_all`), printed as one JSON document.
//!
//! ```text
//! perfbench --workload <fuzz-table2|fuzz-lockfree-w2|replay-corpus>
//!           --seed <n> --round <k> --trace <0|1>
//! ```
//!
//! A round sets up (target registration, `Checkpoint::create` for every
//! target it fuzzes, artifact loading) several times, then runs its jobs
//! in a fixed order derived from the seed and round. With `--trace 1` the
//! program's telemetry registry is on and every public call is
//! snapshot-diffed, giving the per-layer metrics. `perfbench/run.py`
//! runs rounds in fresh processes (the registry, site ids and the
//! validation verdict cache are process-global) and reports medians.
//! Run it from the repository root: artifacts are read from `repros/`.

mod layers;
mod procstat;
mod truth;

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pmrace::core::checkpoint::Checkpoint;
use pmrace::replay::json::Value;
use pmrace::replay::{replay, ReplayOptions, Repro, ReproStore, ScheduleSpec};
use pmrace::telemetry::trace::{drain_events, SpanEvent};
use pmrace::telemetry::{self, Phase, Snapshot};
use pmrace::{FuzzConfig, Fuzzer, StrategyKind};

use layers::Delta;
use procstat::CpuTimes;

/// Campaigns per `fuzz-table2` job.
const TABLE2_CAMPAIGNS: usize = 100;
/// Seeds per target per `fuzz-table2` round.
const TABLE2_SEEDS: u64 = 2;
/// Campaigns per `fuzz-lockfree-w2` job.
const LOCKFREE_CAMPAIGNS: usize = 200;
/// Seeds per target per `fuzz-lockfree-w2` round.
const LOCKFREE_SEEDS: u64 = 2;
/// Fleet workers per `fuzz-lockfree-w2` job.
const LOCKFREE_WORKERS: usize = 2;
/// Passes over the corpus per `replay-corpus` round.
const REPLAY_PASSES: usize = 3;
/// Set-ups per round; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Safety net only: a job stopped by this cap did not finish its work and
/// counts as failed.
const JOB_WALL_CAP: Duration = Duration::from_secs(60);
/// The checked-in regression corpus, relative to the repository root.
const CORPUS_DIR: &str = "repros";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FuzzTable2,
    FuzzLockfreeW2,
    ReplayCorpus,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fuzz-table2" => Some(Workload::FuzzTable2),
            "fuzz-lockfree-w2" => Some(Workload::FuzzLockfreeW2),
            "replay-corpus" => Some(Workload::ReplayCorpus),
            _ => None,
        }
    }
}

/// One fuzz job: a full `Fuzzer::run` with a fixed campaign count.
#[derive(Debug, Clone)]
struct FuzzJob {
    target: &'static str,
    threads: usize,
    workers: usize,
    campaigns: usize,
    rng_seed: u64,
}

impl FuzzJob {
    fn label(&self) -> String {
        format!("{}#{:016x}", self.target, self.rng_seed)
    }
}

/// SplitMix64 finalizer: decorrelates per-job seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The round's fuzz jobs in execution order: every target once per seed
/// slot, targets in Table 1 / suite order.
fn fuzz_jobs(w: Workload, seed: u64, round: u64) -> Vec<FuzzJob> {
    let (targets, workers, campaigns, seeds): (&[(&'static str, usize)], _, _, _) = match w {
        Workload::FuzzTable2 => (
            &[
                ("P-CLHT", 2),
                ("clevel", 2),
                ("CCEH", 2),
                ("FAST-FAIR", 2),
                ("memcached-pmem", 2),
            ],
            1,
            TABLE2_CAMPAIGNS,
            TABLE2_SEEDS,
        ),
        Workload::FuzzLockfreeW2 => (
            // ms-queue's helping bug needs two racing producers.
            &[("treiber-stack", 2), ("harris-list", 2), ("ms-queue", 3)],
            LOCKFREE_WORKERS,
            LOCKFREE_CAMPAIGNS,
            LOCKFREE_SEEDS,
        ),
        Workload::ReplayCorpus => return Vec::new(),
    };
    let base = mix(seed ^ mix(round));
    let mut jobs = Vec::new();
    for _ in 0..seeds {
        for &(target, threads) in targets {
            jobs.push(FuzzJob {
                target,
                threads,
                workers,
                campaigns,
                rng_seed: mix(base ^ mix(jobs.len() as u64)),
            });
        }
    }
    jobs
}

/// Benchmark-side spans: one per public call, with its parent.
#[derive(Debug)]
struct Spans {
    origin: Instant,
    recs: Vec<(String, Option<usize>, u64, u64)>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: String, parent: Option<usize>) -> usize {
        let t = self.now_us();
        self.recs.push((name, parent, t, t));
        self.recs.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.recs[id].3 = self.now_us();
    }

    fn to_value(&self) -> Value {
        Value::Arr(
            self.recs
                .iter()
                .enumerate()
                .map(|(id, (name, parent, start, end))| {
                    obj(vec![
                        ("id", num(id as f64)),
                        ("parent", parent.map_or(Value::Null, |p| num(p as f64))),
                        ("name", Value::Str(name.clone())),
                        ("start_us", num(*start as f64)),
                        ("end_us", num(*end as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Registry movement captured around one traced call.
struct Traced {
    before: Snapshot,
    after: Snapshot,
    events: Vec<SpanEvent>,
    start_us: u64,
    end_us: u64,
}

/// Wall and process CPU of one public call (plus its registry movement
/// when traced). Snapshots are taken outside the timed region.
struct Call {
    wall: Duration,
    cpu: CpuTimes,
    traced: Option<Traced>,
}

fn measured<T>(traced: bool, f: impl FnOnce() -> T) -> (T, Call) {
    let before = traced.then(|| {
        drop(drain_events());
        Snapshot::capture(&|_| None)
    });
    let start_us = telemetry::elapsed_us();
    let cpu0 = procstat::cpu_now();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed();
    let cpu = procstat::cpu_now().since(cpu0);
    let end_us = telemetry::elapsed_us();
    let traced = before.map(|before| Traced {
        after: Snapshot::capture(&|_| None),
        before,
        events: drain_events(),
        start_us,
        end_us,
    });
    (out, Call { wall, cpu, traced })
}

/// What a round accumulates over its timed calls.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    /// Violations of the correctness check, one line per failed operation
    /// among them.
    broken: Vec<String>,
    /// Replays that ran but did not re-trigger their bug.
    misses: Vec<String>,
    campaigns: u64,
    wall: Duration,
    cpu: CpuTimes,
    delta: Delta,
    exec_ms: Vec<f64>,
    uncovered_us: u64,
    traced_us: u64,
}

impl Acc {
    /// A failed operation; it also fails the correctness check.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.broken.push(what);
    }

    fn add_call(&mut self, call: &Call, campaigns: u64) {
        self.campaigns += campaigns;
        self.wall += call.wall;
        self.cpu.user += call.cpu.user;
        self.cpu.sys += call.cpu.sys;
        if let Some(t) = &call.traced {
            self.delta.add(&Delta::between(&t.before, &t.after));
            self.exec_ms.extend(
                t.events
                    .iter()
                    .filter(|e| e.phase == Phase::Execution)
                    .map(|e| e.dur_us as f64 / 1e3),
            );
            self.uncovered_us += layers::uncovered_us(&t.events, t.start_us, t.end_us);
            self.traced_us += t.end_us.saturating_sub(t.start_us);
        }
    }

    fn per_campaign(&self, x: f64) -> f64 {
        x / (self.campaigns.max(1) as f64)
    }

    fn cpu_per_campaign_ms(&self) -> f64 {
        self.per_campaign(self.cpu.total().as_secs_f64() * 1e3)
    }

    /// Per-layer metrics every workload shares.
    fn layer_metrics(&self, m: &mut Metrics) {
        let d = &self.delta;
        let wall_ms = self.wall.as_secs_f64() * 1e3;
        let cpu_ms = self.cpu.total().as_secs_f64() * 1e3;
        let planned = d.counter("plan.planned");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let pm_events = [
            "pm.loads",
            "pm.stores",
            "pm.ntstores",
            "pm.cas",
            "pm.flushes",
            "pm.fences",
        ]
        .iter()
        .map(|n| d.counter(n))
        .sum::<f64>();
        m.put("proc.cpu_per_campaign_ms", self.cpu_per_campaign_ms(), "ms");
        m.put(
            "sched.offcpu_ms_per_campaign",
            self.per_campaign(wall_ms - cpu_ms),
            "ms",
        );
        m.put(
            "sched.waits_per_campaign",
            self.per_campaign(d.counter("plan.waits")),
            "count",
        );
        m.put(
            "sched.alternations_per_plan",
            ratio(d.counter("plan.alternations_fired"), planned),
            "ratio",
        );
        m.put(
            "sched.disabled_per_plan",
            ratio(d.counter("plan.sync_disabled"), planned),
            "ratio",
        );
        m.put(
            "sched.drafts_per_campaign",
            self.per_campaign(d.counter("plan.privileged_drafts")),
            "count",
        );
        m.put(
            "runtime.pm_events_per_campaign",
            self.per_campaign(pm_events),
            "count",
        );
        m.put(
            "runtime.pm_events_per_cpu_s",
            ratio(pm_events, cpu_ms / 1e3),
            "1/s",
        );
        m.put(
            "runtime.hang_campaigns_per_1k",
            self.per_campaign(d.counter("exec.hangs") * 1e3),
            "count",
        );
        m.put(
            "runtime.candidates_per_campaign",
            self.per_campaign(
                d.counter("checker.candidates_inter") + d.counter("checker.candidates_intra"),
            ),
            "count",
        );
        m.put(
            "runtime.inconsistencies_per_campaign",
            self.per_campaign(d.counter("checker.inconsistencies")),
            "count",
        );
        m.put(
            "proc.sys_cpu_share",
            ratio(self.cpu.sys.as_secs_f64(), self.cpu.total().as_secs_f64()),
            "ratio",
        );
        m.put("pmem.flush_ns_mean", d.hist_mean("pm.flush_ns"), "ns");
        m.put("pmem.fence_ns_mean", d.hist_mean("pm.fence_ns"), "ns");
        m.put(
            "pmem.flushes_per_campaign",
            self.per_campaign(d.counter("pm.flushes")),
            "count",
        );
        m.put(
            "pmem.restore_dirty_lines_mean",
            d.hist_mean("restore.dirty_lines"),
            "count",
        );
        m.put(
            "pmem.crash_image_overlay_kb_mean",
            d.hist_mean("crash_image.overlay_bytes") / 1024.0,
            "KiB",
        );
        m.put(
            "core.checkpoint.restore_us_mean",
            d.phase_mean_us("checkpoint_restore"),
            "us",
        );
        m.put(
            "core.checkpoint.cache_hit_pct",
            100.0
                * ratio(
                    d.counter("checkpoint.cache_hits"),
                    d.counter("checkpoint.restores"),
                ),
            "%",
        );
        m.put(
            "core.explore.execution_ms_mean",
            d.phase_mean_us("execution") / 1e3,
            "ms",
        );
        m.put(
            "core.explore.campaign_ms_p50",
            layers::quantile(&self.exec_ms, 0.5),
            "ms",
        );
        m.put(
            "core.explore.campaign_ms_p99",
            layers::quantile(&self.exec_ms, 0.99),
            "ms",
        );
        m.put(
            "core.explore.seed_gen_us_mean",
            d.phase_mean_us("seed_gen"),
            "us",
        );
        m.put(
            "core.validate.runs_per_campaign",
            self.per_campaign(d.counter("validate.runs")),
            "count",
        );
        m.put(
            "core.validate.ms_mean",
            d.phase_mean_us("validation") / 1e3,
            "ms",
        );
        let (hit, miss) = (
            d.counter("validate.cache_hit"),
            d.counter("validate.cache_miss"),
        );
        m.put(
            "core.validate.cache_hit_pct",
            100.0 * ratio(hit, hit + miss),
            "%",
        );
        m.put(
            "core.validate.wall_share",
            ratio(d.phase_total_us("validation") / 1e3, wall_ms),
            "ratio",
        );
        m.put(
            "core.fleet.frontier_hits",
            d.counter("fleet.frontier_hits"),
            "count",
        );
        m.put("core.fleet.steals", d.counter("fleet.steals"), "count");
        let (deferred, inline) = (d.counter("pipeline.deferred"), d.counter("pipeline.inline"));
        m.put(
            "core.pipeline.deferred_pct",
            100.0 * ratio(deferred, deferred + inline),
            "%",
        );
        m.put(
            "core.pipeline.backpressure",
            d.counter("pipeline.backpressure"),
            "count",
        );
        m.put(
            "core.pipeline.queue_us_mean",
            d.hist_mean("pipeline.queue_ns") / 1e3,
            "us",
        );
        m.put(
            "replay.recon_ms_mean",
            d.phase_mean_us("replay_recon") / 1e3,
            "ms",
        );
        m.put(
            "replay.divergences",
            d.counter("replay.divergences"),
            "count",
        );
        m.put(
            "telemetry.untraced_share",
            ratio(self.uncovered_us as f64, self.traced_us as f64),
            "ratio",
        );
        m.put(
            "telemetry.spans_dropped",
            d.counter("trace.spans_dropped"),
            "count",
        );
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_value(&self) -> Value {
        obj(self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let m = obj(vec![
                    ("value", num(*value)),
                    ("unit", Value::Str((*unit).to_owned())),
                ]);
                (*name, m)
            })
            .collect())
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// A JSON number; non-finite values become `null`.
fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Num(v)
    } else {
        Value::Null
    }
}

/// A JSON array of strings.
fn strings<'a>(xs: impl IntoIterator<Item = &'a String>) -> Value {
    Value::Arr(xs.into_iter().cloned().map(Value::Str).collect())
}

/// Samples the caller pools over every round of a run before
/// aggregating: `bug_set_s` and `rows_found_pct` are outcomes of random
/// search, steadier over all of a run's jobs than as a median of per-round
/// figures.
struct Pooled {
    /// Per-job times to the bug set (per-pass times on `replay-corpus`).
    bug_set_s: Vec<f64>,
    /// How the run aggregates `bug_set_s`: `geomean` or `median`.
    aggregate: &'static str,
    /// Rows found (replays that re-triggered).
    found: usize,
    /// Rows expected (replays attempted).
    expected: usize,
}

impl Pooled {
    fn to_value(&self) -> Value {
        obj(vec![
            (
                "bug_set_s",
                Value::Arr(self.bug_set_s.iter().map(|s| num(*s)).collect()),
            ),
            ("aggregate", Value::Str(self.aggregate.to_owned())),
            ("found", num(self.found as f64)),
            ("expected", num(self.expected as f64)),
        ])
    }
}

/// Everything a round reports.
struct RoundOut {
    acc: Acc,
    pooled: Pooled,
    setup: Vec<f64>,
    layer: Metrics,
    info: Vec<(&'static str, Value)>,
    order: Vec<String>,
    matched: BTreeMap<String, Vec<bool>>,
}

fn register() {
    pmrace::register_builtins();
    pmrace::register_lockfree();
}

fn fuzz_round(
    w: Workload,
    seed: u64,
    round: u64,
    traced: bool,
    spans: &mut Spans,
    root: usize,
) -> RoundOut {
    let jobs = fuzz_jobs(w, seed, round);
    let mut acc = Acc::default();
    let mut targets: Vec<&'static str> = Vec::new();
    for j in &jobs {
        if !targets.contains(&j.target) {
            targets.push(j.target);
        }
    }

    // Set-up: registration plus one checkpoint per target, repeated.
    let mut setup = Vec::new();
    let mut create_ms = Vec::new();
    for _ in 0..SETUP_REPS {
        let id = spans.open("setup".to_owned(), Some(root));
        let t0 = Instant::now();
        register();
        for target in &targets {
            let c = spans.open(format!("Checkpoint::create {target}"), Some(id));
            let t1 = Instant::now();
            let made =
                pmrace::api::resolve_target_or_err(target).and_then(|s| Checkpoint::create(&s));
            create_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            spans.close(c);
            if let Err(e) = made {
                acc.broken.push(format!("set-up {target}: {e}"));
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
        spans.close(id);
    }

    let mut rows_expected = 0usize;
    let mut rows_found = 0usize;
    let mut bug_set = Vec::new();
    let mut to_bug_set = Vec::new();
    let mut alias_pairs = Vec::new();
    let mut balance = Vec::new();
    let mut unexpected = BTreeSet::new();
    let mut extras = BTreeSet::new();
    let mut details = Vec::new();
    for job in &jobs {
        let mut cfg = FuzzConfig::new(job.target);
        cfg.strategy = StrategyKind::Pmrace;
        cfg.threads = job.threads;
        cfg.workers = job.workers;
        cfg.max_campaigns = job.campaigns;
        cfg.wall_budget = JOB_WALL_CAP;
        cfg.rng_seed = job.rng_seed;
        let id = spans.open(format!("Fuzzer::run {}", job.label()), Some(root));
        let (res, call) = measured(traced, || Fuzzer::new(cfg).and_then(|f| f.run()));
        spans.close(id);
        acc.attempted += 1;
        let report = match res {
            Ok(r) => r,
            Err(e) => {
                acc.fail(format!("{}: {e}", job.label()));
                continue;
            }
        };
        if report.campaigns < job.campaigns {
            acc.fail(format!(
                "{}: cut short by the wall cap at {}/{} campaigns",
                job.label(),
                report.campaigns,
                job.campaigns
            ));
        } else if report.corpus_save_errors > 0 {
            acc.fail(format!(
                "{}: {} corpus save errors",
                job.label(),
                report.corpus_save_errors
            ));
        }
        let c = truth::classify(&report);
        rows_expected += c.rows.len();
        rows_found += c.found();
        let set_time = c.bug_set_time(report.elapsed);
        if let Some(t) = set_time {
            bug_set.push(t.as_secs_f64());
            let n = report
                .coverage_timeline
                .iter()
                .filter(|s| s.at <= t)
                .count();
            to_bug_set.push(n as f64);
        }
        unexpected.extend(c.unexpected.iter().cloned());
        extras.extend(c.extras.iter().cloned());
        alias_pairs.push(report.alias_pairs as f64);
        if let Some(t) = &call.traced {
            let per_worker = layers::worker_delta(&t.before, &t.after, job.workers);
            let (lo, hi) = (per_worker.iter().min(), per_worker.iter().max());
            if let (Some(&lo), Some(&hi)) = (lo, hi) {
                balance.push(if hi > 0 { lo as f64 / hi as f64 } else { 0.0 });
            }
        }
        acc.add_call(&call, report.campaigns as u64);
        let rows = c
            .rows
            .iter()
            .map(|r| match (r.found, r.found_after) {
                (false, _) => format!("{}:miss", r.id),
                (true, None) => format!("{}:untimed", r.id),
                (true, Some(t)) => format!("{}:{:.3}s", r.id, t.as_secs_f64()),
            })
            .collect::<Vec<_>>();
        details.push(obj(vec![
            ("job", Value::Str(job.label())),
            ("campaigns", num(report.campaigns as f64)),
            ("wall_s", num(call.wall.as_secs_f64())),
            ("cpu_s", num(call.cpu.total().as_secs_f64())),
            (
                "bug_set_s",
                set_time.map_or(Value::Null, |t| num(t.as_secs_f64())),
            ),
            ("rows", Value::Str(rows.join(" "))),
            ("unexpected", strings(&c.unexpected)),
        ]));
    }

    let mut layer = Metrics::default();
    if traced {
        acc.layer_metrics(&mut layer);
        layer.put("core.checkpoint.create_ms", mean(&create_ms), "ms");
        layer.put("core.explore.alias_pairs", mean(&alias_pairs), "count");
        layer.put(
            "core.explore.campaigns_to_bug_set",
            geomean(&to_bug_set),
            "count",
        );
        layer.put(
            "core.explore.unexpected_bugs",
            unexpected.len() as f64,
            "count",
        );
        layer.put("core.fleet.worker_balance", mean(&balance), "ratio");
        layer.put("replay.load_ms", 0.0, "ms");
        layer.put("replay.artifact_ms_p50", 0.0, "ms");
        layer.put("replay.artifact_ms_max", 0.0, "ms");
        layer.put("replay.attempts_per_artifact", 0.0, "count");
        layer.put("replay.misses", 0.0, "count");
    }
    let info = vec![
        ("unexpected_bugs", num(unexpected.len() as f64)),
        ("unexpected", strings(&unexpected)),
        ("genuine_extras", strings(&extras)),
        ("jobs", Value::Arr(details)),
    ];
    let pooled = Pooled {
        bug_set_s: bug_set,
        aggregate: "geomean",
        found: rows_found,
        expected: rows_expected,
    };
    RoundOut {
        order: jobs.iter().map(FuzzJob::label).collect(),
        pooled,
        acc,
        setup,
        layer,
        info,
        matched: BTreeMap::new(),
    }
}

fn replay_round(seed: u64, round: u64, traced: bool, spans: &mut Spans, root: usize) -> RoundOut {
    let mut acc = Acc::default();
    let mut setup = Vec::new();
    let mut load_ms = Vec::new();
    let mut corpus: Vec<Repro> = Vec::new();
    for _ in 0..SETUP_REPS {
        let id = spans.open("setup".to_owned(), Some(root));
        let t0 = Instant::now();
        register();
        let l = spans.open("ReproStore::load_all".to_owned(), Some(id));
        let t1 = Instant::now();
        let loaded = ReproStore::open(CORPUS_DIR).and_then(|s| s.load_all());
        load_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        spans.close(l);
        setup.push(t0.elapsed().as_secs_f64());
        spans.close(id);
        match loaded {
            Ok(v) => corpus = v.into_iter().map(|(_, r)| r).collect(),
            Err(e) => acc.broken.push(format!("load {CORPUS_DIR}: {e}")),
        }
    }
    let keys: BTreeSet<String> = corpus.iter().map(|r| r.signature.key()).collect();
    if corpus.len() != truth::CORPUS_ROWS || keys.len() != truth::CORPUS_ROWS {
        acc.broken.push(format!(
            "corpus holds {} artifacts with {} distinct signatures, expected {}",
            corpus.len(),
            keys.len(),
            truth::CORPUS_ROWS
        ));
    }

    // Artifact order: a seeded shuffle, the same for every pass.
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    let mut state = mix(seed ^ mix(round));
    for i in (1..order.len()).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }

    let opts = ReplayOptions::default();
    let mut matched: BTreeMap<String, Vec<bool>> = BTreeMap::new();
    let mut pass_s = Vec::new();
    let mut artifact_ms = Vec::new();
    let mut attempts = Vec::new();
    let mut ok = 0usize;
    for pass in 0..REPLAY_PASSES {
        let mut in_pass = Duration::ZERO;
        for &i in &order {
            let repro = &corpus[i];
            let key = repro.signature.key();
            let id = spans.open(format!("replay pass{pass} {key}"), Some(root));
            let (res, call) = measured(traced, || replay(repro, &opts));
            spans.close(id);
            acc.attempted += 1;
            in_pass += call.wall;
            match res {
                Ok(out) => {
                    let recon = u64::from(matches!(repro.schedule, ScheduleSpec::Pmrace { .. }));
                    acc.add_call(&call, out.attempts as u64 + recon);
                    artifact_ms.push(out.duration.as_secs_f64() * 1e3);
                    attempts.push(out.attempts as f64);
                    matched.entry(key.clone()).or_default().push(out.matched);
                    if out.matched {
                        ok += 1;
                    } else {
                        acc.misses.push(format!(
                            "replay {key}: did not re-trigger ({})",
                            out.divergence
                                .as_deref()
                                .unwrap_or("no divergence reported")
                        ));
                    }
                }
                Err(e) => {
                    matched.entry(key.clone()).or_default().push(false);
                    acc.fail(format!("replay {key}: {e}"));
                }
            }
        }
        pass_s.push(in_pass.as_secs_f64());
    }

    let mut layer = Metrics::default();
    if traced {
        acc.layer_metrics(&mut layer);
        layer.put("core.checkpoint.create_ms", 0.0, "ms");
        layer.put("core.explore.alias_pairs", 0.0, "count");
        layer.put("core.explore.campaigns_to_bug_set", 0.0, "count");
        layer.put("core.explore.unexpected_bugs", 0.0, "count");
        layer.put("core.fleet.worker_balance", 0.0, "ratio");
        layer.put("replay.load_ms", median(&load_ms), "ms");
        layer.put("replay.artifact_ms_p50", median(&artifact_ms), "ms");
        layer.put(
            "replay.artifact_ms_max",
            artifact_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        layer.put("replay.attempts_per_artifact", mean(&attempts), "count");
        layer.put("replay.misses", acc.misses.len() as f64, "count");
    }
    // The bug set is re-found by one pass over the corpus: its time is the
    // pass time and its rows are the replays that re-triggered.
    let pooled = Pooled {
        bug_set_s: pass_s,
        aggregate: "median",
        found: ok,
        expected: acc.attempted as usize,
    };
    RoundOut {
        order: order.iter().map(|&i| corpus[i].signature.key()).collect(),
        pooled,
        acc,
        setup,
        layer,
        info: Vec::new(),
        matched,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <fuzz-table2|fuzz-lockfree-w2|replay-corpus> \
         --seed <n> --round <k> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(w), Some(seed), Some(round), Some(trace)) = (
        flag("--workload").as_deref().and_then(Workload::parse),
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
        flag("--round").and_then(|s| s.parse::<u64>().ok()),
        flag("--trace").and_then(|s| match s.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };

    if trace {
        telemetry::set_enabled(true);
    }
    let mut spans = Spans::new();
    let root = spans.open(format!("round {round}"), None);
    let mut out = match w {
        Workload::ReplayCorpus => replay_round(seed, round, trace, &mut spans, root),
        _ => fuzz_round(w, seed, round, trace, &mut spans, root),
    };
    spans.close(root);
    let acc = &mut out.acc;
    let mut metrics = Metrics::default();
    metrics.put(
        "campaigns_per_s",
        acc.campaigns as f64 / acc.wall.as_secs_f64().max(1e-9),
        "1/s",
    );
    metrics.put("setup_s", median(&out.setup), "s");
    match procstat::peak_rss_mb() {
        Ok(mb) => metrics.put("peak_rss_mb", mb, "MiB"),
        Err(e) => acc.broken.push(e),
    }
    let matched = out
        .matched
        .iter()
        .map(|(k, hits)| {
            (
                k.clone(),
                Value::Arr(hits.iter().map(|&b| Value::Bool(b)).collect()),
            )
        })
        .collect();
    let mut info = out.info;
    info.push(("cpu_per_campaign_ms", num(out.acc.cpu_per_campaign_ms())));
    let record = obj(vec![
        ("round", num(round as f64)),
        ("traced", Value::Bool(trace)),
        ("attempted", num(out.acc.attempted as f64)),
        ("failed", num(out.acc.failed as f64)),
        ("campaigns", num(out.acc.campaigns as f64)),
        ("call_wall_s", num(out.acc.wall.as_secs_f64())),
        (
            "setup_reps_s",
            Value::Arr(out.setup.iter().map(|s| num(*s)).collect()),
        ),
        ("order", strings(&out.order)),
        ("misses", strings(&out.acc.misses)),
        ("broken", strings(&out.acc.broken)),
        ("matched", Value::Obj(matched)),
        ("metrics", metrics.to_value()),
        ("pooled", out.pooled.to_value()),
        ("per_layer", out.layer.to_value()),
        ("info", obj(info)),
        ("spans", spans.to_value()),
    ]);
    print!("{}", record.pretty());
    ExitCode::SUCCESS
}
