//! Offline rendering of telemetry artifacts: the `repro stats` command.
//!
//! Consumes the files the fuzzer emits — `telemetry.json` snapshots and
//! `trace.jsonl` span traces — and renders a per-phase time breakdown,
//! derived rates (alternations fired per plan, campaign throughput), histogram
//! summaries and the top-N hottest instrumentation sites.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::json::{parse, Value};

/// Render a duration given in microseconds with an adaptive unit.
#[must_use]
pub fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}MiB", bytes as f64 / f64::from(1u32 << 20))
    } else if bytes >= 1 << 10 {
        format!("{:.1}KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes}B")
    }
}

/// Render a histogram value in the unit its name ends with: `*_ns` as a
/// duration, `*_bytes` as a size, anything else as a plain count.
fn fmt_hist_value(name: &str, v: u64) -> String {
    if name.ends_with("_ns") {
        fmt_ns(v)
    } else if name.ends_with("_bytes") {
        fmt_bytes(v)
    } else {
        v.to_string()
    }
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / whole as f64)
    }
}

/// `part` as a multiple of `whole` — for rates that legitimately exceed
/// 1 (a plan is reused across campaigns, so it can fire more than once).
fn ratio(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.2}x", part as f64 / whole as f64)
    }
}

/// Expand each input path: a directory contributes its `telemetry.json`
/// and/or `trace.jsonl`; a file contributes itself.
///
/// # Errors
///
/// Fails for paths that do not exist, and for directories containing
/// neither artifact.
pub fn resolve_inputs(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut found = false;
            for name in ["telemetry.json", "trace.jsonl"] {
                let f = p.join(name);
                if f.is_file() {
                    out.push(f);
                    found = true;
                }
            }
            if !found {
                return Err(format!(
                    "{}: no telemetry.json or trace.jsonl inside",
                    p.display()
                ));
            }
        } else if p.is_file() {
            out.push(p.clone());
        } else {
            return Err(format!("{}: no such file or directory", p.display()));
        }
    }
    Ok(out)
}

/// Render the stats report for a set of telemetry artifacts (snapshot
/// `.json` and/or trace `.jsonl` files or directories holding them).
/// `top` bounds the hottest-sites table.
///
/// # Errors
///
/// Fails when a file cannot be read or parsed.
pub fn render_stats(paths: &[PathBuf], top: usize) -> Result<String, String> {
    let files = resolve_inputs(paths)?;
    let mut out = String::new();
    for f in &files {
        let text = fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let section = if f.extension().is_some_and(|e| e == "jsonl") {
            render_trace(f, &text)?
        } else {
            render_snapshot(f, &text, top)?
        };
        out.push_str(&section);
        out.push('\n');
    }
    Ok(out)
}

fn phase_table(
    out: &mut String,
    rows: &[(String, u64, u64)], // (name, count, total_us)
    wall_us: u64,
) {
    let _ = writeln!(
        out,
        "  {:<20} {:>8} {:>10} {:>10} {:>8}",
        "phase", "count", "total", "mean", "of wall"
    );
    let mut sorted: Vec<&(String, u64, u64)> = rows.iter().filter(|(_, c, _)| *c > 0).collect();
    sorted.sort_by_key(|row| std::cmp::Reverse(row.2));
    for (name, count, total_us) in sorted {
        let _ = writeln!(
            out,
            "  {:<20} {:>8} {:>10} {:>10} {:>8}",
            name,
            count,
            fmt_us(*total_us),
            fmt_us(total_us / count.max(&1)),
            pct(*total_us, wall_us)
        );
    }
    let idle: u64 = wall_us.saturating_sub(rows.iter().map(|(_, _, t)| t).sum());
    let _ = writeln!(
        out,
        "  {:<20} {:>8} {:>10} {:>10} {:>8}   (wall {})",
        "(untraced)",
        "",
        fmt_us(idle),
        "",
        pct(idle, wall_us),
        fmt_us(wall_us)
    );
}

fn get_u64(doc: &Value, field: &str, key: &str) -> u64 {
    doc.get(field)
        .and_then(|m| m.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn render_snapshot(path: &Path, text: &str, top: usize) -> Result<String, String> {
    crate::snapshot::validate_snapshot_text(text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(text).map_err(|e| format!("{}: {e}", path.display()))?;
    let wall_us = doc.get("elapsed_us").and_then(Value::as_u64).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "== snapshot: {} ==", path.display());
    let _ = writeln!(
        out,
        "  elapsed {} (telemetry {})",
        fmt_us(wall_us),
        if doc.get("enabled").and_then(Value::as_bool) == Some(true) {
            "enabled"
        } else {
            "disabled"
        }
    );

    out.push_str("\n-- phase breakdown (total is summed across threads) --\n");
    let phases: Vec<(String, u64, u64)> = doc
        .get("phases")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, p)| {
            (
                name.clone(),
                p.get("count").and_then(Value::as_u64).unwrap_or(0),
                p.get("total_us").and_then(Value::as_u64).unwrap_or(0),
            )
        })
        .collect();
    phase_table(&mut out, &phases, wall_us);

    out.push_str("\n-- campaign counters --\n");
    let campaigns = get_u64(&doc, "counters", "exec.campaigns");
    let _ = writeln!(
        out,
        "  campaigns {campaigns} ({}/s)  hangs {} ({} all waiting)  \
         op-errors {}  sessions {} recycled, {} fresh",
        if wall_us > 0 {
            format!("{:.1}", campaigns as f64 / (wall_us as f64 / 1e6))
        } else {
            "-".to_string()
        },
        get_u64(&doc, "counters", "exec.hangs"),
        get_u64(&doc, "counters", "exec.hangs_all_waiting"),
        get_u64(&doc, "counters", "exec.op_errors"),
        get_u64(&doc, "counters", "exec.session_reuses"),
        get_u64(&doc, "counters", "exec.session_fresh"),
    );
    let _ = writeln!(
        out,
        "  pool starts: {} spare pool reset in place, {} spare pool built, {} new pools formatted",
        get_u64(&doc, "counters", "exec.spare_resets"),
        get_u64(&doc, "counters", "exec.spare_fresh"),
        get_u64(&doc, "counters", "exec.pool_formats"),
    );
    let planned = get_u64(&doc, "counters", "plan.planned");
    let fired = get_u64(&doc, "counters", "plan.alternations_fired");
    let _ = writeln!(
        out,
        "  plans {planned} planned, {fired} alternations fired ({} per plan), \
         {} waits, {} skips consumed, {} sync-disables, {} privileged drafts",
        ratio(fired, planned),
        get_u64(&doc, "counters", "plan.waits"),
        get_u64(&doc, "counters", "plan.skips_consumed"),
        get_u64(&doc, "counters", "plan.sync_disabled"),
        get_u64(&doc, "counters", "plan.privileged_drafts"),
    );
    let loads = get_u64(&doc, "counters", "pm.loads");
    let stores = get_u64(&doc, "counters", "pm.stores");
    let nt = get_u64(&doc, "counters", "pm.ntstores");
    let cas = get_u64(&doc, "counters", "pm.cas");
    let flushes = get_u64(&doc, "counters", "pm.flushes");
    let fences = get_u64(&doc, "counters", "pm.fences");
    let total_pm = loads + stores + nt + cas + flushes + fences;
    let _ = writeln!(
        out,
        "  pm mix: {loads} loads ({}), {stores} stores ({}), {nt} ntstores, \
         {cas} cas, {flushes} flushes, {fences} fences, {} evictions",
        pct(loads, total_pm),
        pct(stores, total_pm),
        get_u64(&doc, "counters", "pm.evictions"),
    );
    let _ = writeln!(
        out,
        "  checker: {} inter / {} intra candidates, {} inconsistencies \
         ({} whitelisted), {} sync updates",
        get_u64(&doc, "counters", "checker.candidates_inter"),
        get_u64(&doc, "counters", "checker.candidates_intra"),
        get_u64(&doc, "counters", "checker.inconsistencies"),
        get_u64(&doc, "counters", "checker.whitelisted"),
        get_u64(&doc, "counters", "checker.sync_updates"),
    );
    let _ = writeln!(
        out,
        "  validation: {} runs -> {} bugs, {} fps, {} whitelisted fps, {} unvalidated; \
         recovery pools {} reused in place, {} fresh",
        get_u64(&doc, "counters", "validate.runs"),
        get_u64(&doc, "counters", "validate.bugs"),
        get_u64(&doc, "counters", "validate.fps"),
        get_u64(&doc, "counters", "validate.whitelisted_fps"),
        get_u64(&doc, "counters", "validate.unvalidated"),
        get_u64(&doc, "counters", "validate.pool_reuses"),
        get_u64(&doc, "counters", "validate.pool_fresh"),
    );
    let restores = get_u64(&doc, "counters", "checkpoint.restores");
    let hits = get_u64(&doc, "counters", "checkpoint.cache_hits");
    let _ = writeln!(
        out,
        "  checkpoints: {} created, {restores} restored ({} cache hits, {})",
        get_u64(&doc, "counters", "checkpoint.creates"),
        hits,
        pct(hits, restores),
    );
    let attempts = get_u64(&doc, "counters", "replay.attempts");
    if attempts > 0 {
        let _ = writeln!(
            out,
            "  replay: {attempts} attempts, {} matched, {} divergences",
            get_u64(&doc, "counters", "replay.matches"),
            get_u64(&doc, "counters", "replay.divergences"),
        );
    }

    let hists = doc.get("histograms").and_then(Value::as_obj).unwrap_or(&[]);
    let any_hist = hists
        .iter()
        .any(|(_, h)| h.get("count").and_then(Value::as_u64).unwrap_or(0) > 0);
    if any_hist {
        out.push_str("\n-- histograms --\n");
        for (name, h) in hists {
            let count = h.get("count").and_then(Value::as_u64).unwrap_or(0);
            if count == 0 {
                continue;
            }
            let sum = h.get("sum").and_then(Value::as_u64).unwrap_or(0);
            let buckets = h.get("buckets").and_then(Value::as_arr).unwrap_or(&[]);
            let p99_bound = percentile_bound(buckets, count, 0.99);
            let _ = writeln!(
                out,
                "  {:<16} count {:>10}  mean {:>9}  p99 < {}",
                name,
                count,
                fmt_hist_value(name, sum / count.max(1)),
                fmt_hist_value(name, p99_bound),
            );
        }
    }

    let sites = doc.get("top_sites").and_then(Value::as_arr).unwrap_or(&[]);
    if !sites.is_empty() {
        let _ = writeln!(out, "\n-- hottest sites (top {top}) --");
        for s in sites.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:>12}  {}",
                s.get("accesses").and_then(Value::as_u64).unwrap_or(0),
                s.get("site").and_then(Value::as_str).unwrap_or("?"),
            );
        }
    }
    Ok(out)
}

/// Upper bound (exclusive) of the bucket containing the `q`-quantile.
fn percentile_bound(buckets: &[Value], count: u64, q: f64) -> u64 {
    let target = (count as f64 * q).ceil() as u64;
    let mut seen = 0u64;
    for b in buckets {
        if let Some(pair) = b.as_arr() {
            if pair.len() == 2 {
                seen += pair[1].as_u64().unwrap_or(0);
                if seen >= target {
                    let lb = pair[0].as_u64().unwrap_or(0);
                    return 1u64 << (lb + 1).min(63);
                }
            }
        }
    }
    0
}

fn render_trace(path: &Path, text: &str) -> Result<String, String> {
    let mut per_phase: Vec<(String, u64, u64)> = Vec::new();
    let mut min_start = u64::MAX;
    let mut max_end = 0u64;
    let mut dropped = 0u64;
    let mut threads = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        match v.get("type").and_then(Value::as_str) {
            Some("meta") => {
                dropped = v.get("dropped").and_then(Value::as_u64).unwrap_or(0);
            }
            Some("span") => {
                let phase = v
                    .get("phase")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                let start = v.get("start_us").and_then(Value::as_u64).unwrap_or(0);
                let dur = v.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
                threads.insert(v.get("thread").and_then(Value::as_u64).unwrap_or(0));
                min_start = min_start.min(start);
                max_end = max_end.max(start + dur);
                match per_phase.iter_mut().find(|(n, _, _)| *n == phase) {
                    Some(row) => {
                        row.1 += 1;
                        row.2 += dur;
                    }
                    None => per_phase.push((phase, 1, dur)),
                }
            }
            _ => return Err(format!("{}:{}: unknown line type", path.display(), i + 1)),
        }
    }
    let wall = max_end.saturating_sub(if min_start == u64::MAX { 0 } else { min_start });
    let mut out = String::new();
    let _ = writeln!(out, "== trace: {} ==", path.display());
    let _ = writeln!(
        out,
        "  {} spans on {} threads over {} ({} dropped by ring wrap)",
        per_phase.iter().map(|(_, c, _)| c).sum::<u64>(),
        threads.len(),
        fmt_us(wall),
        dropped
    );
    out.push_str("\n-- phase breakdown (buffered spans only) --\n");
    phase_table(&mut out, &per_phase, wall);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{add, record, site_access, Counter, Histogram};
    use crate::tests::lock_registry;
    use crate::trace::{span, Phase};

    #[test]
    fn renders_snapshot_and_trace_end_to_end() {
        let _g = lock_registry();
        crate::set_enabled(true);
        crate::reset();
        add(Counter::ExecCampaigns, 4);
        add(Counter::ExecHangs, 3);
        add(Counter::ExecHangsAllWaiting, 2);
        add(Counter::ExecSpareResets, 3);
        add(Counter::ExecPoolFormats, 1);
        add(Counter::PlanPlanned, 10);
        add(Counter::PlanAlternationsFired, 7);
        record(Histogram::PmFlushNs, 900);
        site_access(2);
        {
            let _s = span(Phase::Execution);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        crate::set_enabled(false);
        let dir = std::env::temp_dir().join("pmrace-telemetry-test-stats");
        let _ = fs::remove_dir_all(&dir);
        crate::snapshot::write_snapshot(&dir, &|_| None).unwrap();
        crate::snapshot::write_trace_jsonl(&dir).unwrap();
        let report = render_stats(std::slice::from_ref(&dir), 5).unwrap();
        assert!(report.contains("phase breakdown"));
        assert!(report.contains("execution"));
        assert!(report.contains("0.70x per plan"));
        assert!(report.contains("hangs 3 (2 all waiting)"));
        assert!(report.contains(
            "pool starts: 3 spare pool reset in place, 0 spare pool built, 1 new pools formatted"
        ));
        assert!(report.contains("hottest sites"));
        assert!(report.contains("trace:"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_inputs_rejects_empty_dir() {
        let dir = std::env::temp_dir().join("pmrace-telemetry-test-empty");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert!(resolve_inputs(std::slice::from_ref(&dir)).is_err());
        assert!(resolve_inputs(&[dir.join("nope.json")]).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_us(12), "12us");
        assert_eq!(fmt_us(1_500), "1.5ms");
        assert_eq!(fmt_us(2_500_000), "2.50s");
        assert_eq!(fmt_us(42_000_000), "42.0s");
    }

    #[test]
    fn histograms_render_in_the_unit_their_name_carries() {
        assert_eq!(fmt_hist_value("pm.flush_ns", 230), "230ns");
        assert_eq!(fmt_hist_value("exec.campaign_ns", 36_300_000), "36.3ms");
        assert_eq!(fmt_hist_value("crash_image.overlay_bytes", 1_229), "1.2KiB");
        assert_eq!(fmt_hist_value("crash_image.overlay_bytes", 512), "512B");
        assert_eq!(
            fmt_hist_value("crash_image.overlay_bytes", 3 << 20),
            "3.0MiB"
        );
        assert_eq!(fmt_hist_value("restore.dirty_lines", 1_229), "1229");
    }
}
