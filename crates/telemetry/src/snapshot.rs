//! The `telemetry.json` snapshot: capture, serialization, and the schema
//! validator the CI job runs against it.
//!
//! A [`Snapshot`] is a point-in-time read of the whole registry. Its JSON
//! form is **schema version 7**, documented field by field in
//! `docs/OBSERVABILITY.md`:
//!
//! ```json
//! {
//!   "version": 7,
//!   "enabled": true,
//!   "elapsed_us": 12345678,
//!   "counters":   { "exec.campaigns": 480, ... every catalog counter ... },
//!   "gauges":     { "cov.alias_pairs": 321, ... every catalog gauge ... },
//!   "histograms": { "pm.flush_ns": { "count": 9, "sum": 912,
//!                                    "buckets": [[6, 7], [7, 2]] }, ... },
//!   "phases":     { "execution": { "count": 480, "total_us": 3812345 },
//!                   ... every catalog phase ... },
//!   "worker_execs": [ { "worker": 0, "execs": 241 },
//!                     ... one entry per fleet worker that ran ... ],
//!   "top_sites":  [ { "site": "clevel.rs:88 bucket_cas", "accesses": 812 } ]
//! }
//! ```
//!
//! The validator ([`validate_snapshot_text`]) is strict in both directions:
//! every cataloged name must be present, and no un-cataloged name may
//! appear. That makes the documentation, the emitter and the checker one
//! contract — drift in any of them fails CI.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{escape_into, parse, Value};
use crate::metrics::{self, Counter, Gauge, Histogram};
use crate::trace::{self, Phase};

/// Version stamped into `telemetry.json`; bump on any schema change and
/// update `docs/OBSERVABILITY.md` in the same commit. Version 2 added the
/// required top-level `worker_execs` array (per-fleet-worker campaign
/// counts); version 3 removed the validation hand-off metrics
/// (`pipeline.deferred`, `pipeline.inline`, `pipeline.backpressure`,
/// `pipeline.queue_ns`, `validate.queue_depth`); version 4 added the
/// `sched.draft_wait_ns` histogram; version 5 added the
/// `exec.session_reuses` and `exec.session_fresh` counters; version 6
/// added the `exec.spare_resets`, `exec.spare_fresh` and
/// `exec.pool_formats` counters and the `pool_start` phase; version 7
/// added the `exec.hangs_all_waiting` and `exec.hangs_spin_budget`
/// counters.
pub const SCHEMA_VERSION: u64 = 7;

/// How many of the hottest sites a snapshot carries.
pub const TOP_SITES: usize = 20;

/// Read-out of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramStat {
    /// Catalog name (`pm.flush_ns`, ...).
    pub name: &'static str,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (ns).
    pub sum: u64,
    /// Non-empty buckets as `(log2_lower_bound, count)`.
    pub buckets: Vec<(u32, u64)>,
}

/// Read-out of one phase's cumulative span totals.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Catalog name (`execution`, ...).
    pub name: &'static str,
    /// Number of completed spans.
    pub count: u64,
    /// Total time inside the phase, microseconds (summed across threads,
    /// so this can exceed wall-clock when workers overlap).
    pub total_us: u64,
}

/// One hot instrumentation site.
#[derive(Debug, Clone)]
pub struct SiteStat {
    /// Resolved site name (label + location), or `site#<id>` when the
    /// caller could not resolve the id.
    pub site: String,
    /// PM accesses recorded at this site.
    pub accesses: u64,
}

/// A point-in-time read of the whole telemetry registry.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Whether telemetry was enabled at capture time.
    pub enabled: bool,
    /// Microseconds since the trace epoch.
    pub elapsed_us: u64,
    /// Every counter, in catalog order.
    pub counters: Vec<(&'static str, u64)>,
    /// Every gauge, in catalog order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Every histogram, in catalog order.
    pub histograms: Vec<HistogramStat>,
    /// Every phase, in catalog order.
    pub phases: Vec<PhaseStat>,
    /// The hottest sites, hottest first (at most [`TOP_SITES`]).
    pub top_sites: Vec<SiteStat>,
    /// Campaigns completed per fleet worker, ascending worker index
    /// (workers that ran nothing are omitted).
    pub worker_execs: Vec<(usize, u64)>,
}

impl Snapshot {
    /// Capture the registry now. `resolve` maps a runtime site id to a
    /// display name (typically label + source location); return `None` to
    /// fall back to `site#<id>`.
    #[must_use]
    pub fn capture(resolve: &dyn Fn(u32) -> Option<String>) -> Snapshot {
        Snapshot {
            enabled: crate::enabled(),
            elapsed_us: crate::elapsed_us(),
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), metrics::counter(c)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name(), metrics::gauge(g)))
                .collect(),
            histograms: Histogram::ALL
                .iter()
                .map(|&h| {
                    let (count, sum, buckets) = metrics::histogram(h);
                    HistogramStat {
                        name: h.name(),
                        count,
                        sum,
                        buckets,
                    }
                })
                .collect(),
            phases: trace::phase_totals()
                .into_iter()
                .map(|(p, count, ns)| PhaseStat {
                    name: p.name(),
                    count,
                    total_us: ns / 1_000,
                })
                .collect(),
            top_sites: metrics::top_sites(TOP_SITES)
                .into_iter()
                .map(|(id, accesses)| SiteStat {
                    site: resolve(id).unwrap_or_else(|| format!("site#{id}")),
                    accesses,
                })
                .collect(),
            worker_execs: metrics::worker_execs(),
        }
    }

    /// Value of a captured counter by catalog name (`None` for names not
    /// in the catalog).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Captured phase stats by catalog name.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Serialize to [`SCHEMA_VERSION`] JSON (pretty-printed, one leaf per
    /// line — the exact format [`validate_snapshot_text`] checks).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"enabled\": {},", self.enabled);
        let _ = writeln!(out, "  \"elapsed_us\": {},", self.elapsed_us);
        out.push_str("  \"counters\": {\n");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(out, "    \"{name}\": {v}{comma}");
        }
        out.push_str("  },\n  \"gauges\": {\n");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 == self.gauges.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{name}\": {v}{comma}");
        }
        out.push_str("  },\n  \"histograms\": {\n");
        for (i, h) in self.histograms.iter().enumerate() {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(b, n)| format!("[{b}, {n}]"))
                .collect();
            let comma = if i + 1 == self.histograms.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{comma}",
                h.name,
                h.count,
                h.sum,
                buckets.join(", ")
            );
        }
        out.push_str("  },\n  \"phases\": {\n");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 == self.phases.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"count\": {}, \"total_us\": {}}}{comma}",
                p.name, p.count, p.total_us
            );
        }
        out.push_str("  },\n  \"top_sites\": [\n");
        for (i, s) in self.top_sites.iter().enumerate() {
            let mut site = String::new();
            escape_into(&mut site, &s.site);
            let comma = if i + 1 == self.top_sites.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"site\": {site}, \"accesses\": {}}}{comma}",
                s.accesses
            );
        }
        out.push_str("  ],\n  \"worker_execs\": [\n");
        for (i, (w, n)) in self.worker_execs.iter().enumerate() {
            let comma = if i + 1 == self.worker_execs.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(out, "    {{\"worker\": {w}, \"execs\": {n}}}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Capture a snapshot and write it as `telemetry.json` under `dir`
/// (created if missing). Returns the file path.
///
/// # Errors
///
/// Propagates filesystem errors creating the directory or writing.
pub fn write_snapshot(dir: &Path, resolve: &dyn Fn(u32) -> Option<String>) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join("telemetry.json");
    fs::write(&path, Snapshot::capture(resolve).to_json())?;
    Ok(path)
}

/// Drain all buffered span events and write them as `trace.jsonl` under
/// `dir` (created if missing): one JSON object per line, first a `meta`
/// line, then `span` lines sorted by start time. Returns the path and the
/// number of span lines.
///
/// # Errors
///
/// Propagates filesystem errors creating the directory or writing.
pub fn write_trace_jsonl(dir: &Path) -> io::Result<(PathBuf, usize)> {
    fs::create_dir_all(dir)?;
    let events = trace::drain_events();
    let mut out = String::with_capacity(64 * events.len() + 64);
    let _ = writeln!(
        out,
        "{{\"type\": \"meta\", \"version\": {SCHEMA_VERSION}, \"spans\": {}, \"dropped\": {}}}",
        events.len(),
        metrics::counter(Counter::TraceSpansDropped)
    );
    for e in &events {
        let _ = writeln!(
            out,
            "{{\"type\": \"span\", \"phase\": \"{}\", \"thread\": {}, \"start_us\": {}, \"dur_us\": {}}}",
            e.phase.name(),
            e.thread,
            e.start_us,
            e.dur_us
        );
    }
    let path = dir.join("trace.jsonl");
    fs::write(&path, out)?;
    Ok((path, events.len()))
}

fn check_uint_map(doc: &Value, field: &str, expected: &[&str]) -> Result<(), String> {
    let map = doc
        .get(field)
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("missing or non-object \"{field}\""))?;
    for name in expected {
        let v = map
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{field}: missing cataloged key \"{name}\""))?;
        if field == "counters" || field == "gauges" {
            v.as_u64()
                .ok_or_else(|| format!("{field}.{name}: not a non-negative integer"))?;
        }
    }
    for (k, _) in map {
        if !expected.contains(&k.as_str()) {
            return Err(format!("{field}: un-cataloged key \"{k}\""));
        }
    }
    Ok(())
}

/// Validate a `telemetry.json` document against schema version 7: correct
/// version, all required top-level fields, every cataloged counter / gauge
/// / histogram / phase present with the right shape, and no un-cataloged
/// names anywhere.
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn validate_snapshot_text(text: &str) -> Result<(), String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("version").and_then(Value::as_u64) {
        Some(SCHEMA_VERSION) => {}
        Some(v) => return Err(format!("schema version {v}, expected {SCHEMA_VERSION}")),
        None => return Err("missing numeric \"version\"".to_string()),
    }
    doc.get("enabled")
        .and_then(Value::as_bool)
        .ok_or("missing boolean \"enabled\"")?;
    doc.get("elapsed_us")
        .and_then(Value::as_u64)
        .ok_or("missing integer \"elapsed_us\"")?;

    let counter_names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    let gauge_names: Vec<&str> = Gauge::ALL.iter().map(|g| g.name()).collect();
    let hist_names: Vec<&str> = Histogram::ALL.iter().map(|h| h.name()).collect();
    let phase_names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();

    check_uint_map(&doc, "counters", &counter_names)?;
    check_uint_map(&doc, "gauges", &gauge_names)?;
    check_uint_map(&doc, "histograms", &hist_names)?;
    check_uint_map(&doc, "phases", &phase_names)?;

    let hists = doc.get("histograms").and_then(Value::as_obj).unwrap_or(&[]);
    for (name, h) in hists {
        let count = h
            .get("count")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("histograms.{name}: missing integer \"count\""))?;
        h.get("sum")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("histograms.{name}: missing integer \"sum\""))?;
        let buckets = h
            .get("buckets")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("histograms.{name}: missing array \"buckets\""))?;
        let mut total = 0u64;
        for b in buckets {
            let pair = b
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("histograms.{name}: bucket is not a [log2, count] pair"))?;
            pair[0]
                .as_u64()
                .filter(|lb| *lb < crate::metrics::HIST_BUCKETS as u64)
                .ok_or_else(|| format!("histograms.{name}: bad bucket bound"))?;
            total += pair[1]
                .as_u64()
                .ok_or_else(|| format!("histograms.{name}: bad bucket count"))?;
        }
        if total != count {
            return Err(format!(
                "histograms.{name}: bucket counts sum to {total}, \"count\" says {count}"
            ));
        }
    }

    let phases = doc.get("phases").and_then(Value::as_obj).unwrap_or(&[]);
    for (name, p) in phases {
        p.get("count")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("phases.{name}: missing integer \"count\""))?;
        p.get("total_us")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("phases.{name}: missing integer \"total_us\""))?;
    }

    let sites = doc
        .get("top_sites")
        .and_then(Value::as_arr)
        .ok_or("missing array \"top_sites\"")?;
    let mut prev = u64::MAX;
    for s in sites {
        s.get("site")
            .and_then(Value::as_str)
            .ok_or("top_sites: entry missing string \"site\"")?;
        let n = s
            .get("accesses")
            .and_then(Value::as_u64)
            .ok_or("top_sites: entry missing integer \"accesses\"")?;
        if n > prev {
            return Err("top_sites: not sorted hottest-first".to_string());
        }
        prev = n;
    }

    let workers = doc
        .get("worker_execs")
        .and_then(Value::as_arr)
        .ok_or("missing array \"worker_execs\"")?;
    let mut prev_worker = None;
    for w in workers {
        let idx = w
            .get("worker")
            .and_then(Value::as_u64)
            .ok_or("worker_execs: entry missing integer \"worker\"")?;
        w.get("execs")
            .and_then(Value::as_u64)
            .filter(|n| *n > 0)
            .ok_or("worker_execs: entry missing positive integer \"execs\"")?;
        if prev_worker.is_some_and(|p| idx <= p) {
            return Err("worker_execs: worker indices not strictly ascending".to_string());
        }
        prev_worker = Some(idx);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock_registry;

    #[test]
    fn snapshot_json_validates_against_schema() {
        let _g = lock_registry();
        crate::set_enabled(true);
        crate::reset();
        metrics::add(Counter::ExecCampaigns, 3);
        metrics::record(Histogram::PmFlushNs, 812);
        metrics::site_access(0);
        metrics::site_access(0);
        metrics::site_access(1);
        {
            let _span = crate::trace::span(Phase::Execution);
        }
        crate::set_enabled(false);
        let snap = Snapshot::capture(&|id| (id == 0).then(|| "probe.rs:1 probe".into()));
        let text = snap.to_json();
        validate_snapshot_text(&text).expect("self-emitted snapshot must validate");
        assert!(text.contains("\"exec.campaigns\": 3"));
        assert!(text.contains("probe.rs:1 probe"));
        assert!(text.contains("\"site#1\""));
    }

    #[test]
    fn validator_rejects_missing_and_unknown_keys() {
        let _g = lock_registry();
        crate::set_enabled(false);
        crate::reset();
        let good = Snapshot::capture(&|_| None).to_json();
        validate_snapshot_text(&good).unwrap();

        let missing = good.replacen("\"exec.campaigns\": 0,", "", 1);
        assert!(validate_snapshot_text(&missing)
            .unwrap_err()
            .contains("exec.campaigns"));

        let unknown = good.replacen(
            "\"exec.campaigns\": 0,",
            "\"exec.campaigns\": 0,\n    \"exec.bogus\": 1,",
            1,
        );
        assert!(validate_snapshot_text(&unknown)
            .unwrap_err()
            .contains("exec.bogus"));

        let wrong_version = good.replacen(
            &format!("\"version\": {SCHEMA_VERSION}"),
            "\"version\": 99",
            1,
        );
        assert!(validate_snapshot_text(&wrong_version)
            .unwrap_err()
            .contains("99"));

        assert!(validate_snapshot_text("not json").is_err());
    }

    #[test]
    fn write_snapshot_and_trace_create_files() {
        let _g = lock_registry();
        crate::set_enabled(true);
        crate::reset();
        {
            let _span = crate::trace::span(Phase::SeedGen);
        }
        crate::set_enabled(false);
        let dir = std::env::temp_dir().join("pmrace-telemetry-test-snapshot");
        let _ = fs::remove_dir_all(&dir);
        let snap_path = write_snapshot(&dir, &|_| None).unwrap();
        let (trace_path, n) = write_trace_jsonl(&dir).unwrap();
        assert!(snap_path.ends_with("telemetry.json"));
        assert_eq!(n, 1);
        let trace_text = fs::read_to_string(&trace_path).unwrap();
        let mut lines = trace_text.lines();
        let meta = crate::json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            meta.get("type").and_then(crate::json::Value::as_str),
            Some("meta")
        );
        let span = crate::json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            span.get("phase").and_then(crate::json::Value::as_str),
            Some("seed_gen")
        );
        validate_snapshot_text(&fs::read_to_string(&snap_path).unwrap()).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
