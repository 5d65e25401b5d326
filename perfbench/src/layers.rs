//! Per-layer accounting for the traced run: snapshot-diffs of the
//! program's telemetry registry around each public call, summed over a
//! round, plus the span-coverage arithmetic behind
//! `telemetry.untraced_share`.
//!
//! The registry is process-global and cumulative, so every figure here is
//! a difference of two snapshots taken around one call; nothing reads a
//! cumulative total.

use std::collections::BTreeMap;

use pmrace::telemetry::trace::SpanEvent;
use pmrace::telemetry::Snapshot;

/// Registry movement over one or more calls.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    counters: BTreeMap<&'static str, u64>,
    /// `(count, sum)` per histogram.
    hists: BTreeMap<&'static str, (u64, u64)>,
    /// `(span count, total µs)` per program phase.
    phases: BTreeMap<&'static str, (u64, u64)>,
}

impl Delta {
    /// Movement from `before` to `after`.
    pub fn between(before: &Snapshot, after: &Snapshot) -> Delta {
        let mut d = Delta::default();
        for ((name, a), (_, b)) in after.counters.iter().zip(&before.counters) {
            d.counters.insert(name, a.saturating_sub(*b));
        }
        for (a, b) in after.histograms.iter().zip(&before.histograms) {
            d.hists.insert(
                a.name,
                (a.count.saturating_sub(b.count), a.sum.saturating_sub(b.sum)),
            );
        }
        for (a, b) in after.phases.iter().zip(&before.phases) {
            d.phases.insert(
                a.name,
                (
                    a.count.saturating_sub(b.count),
                    a.total_us.saturating_sub(b.total_us),
                ),
            );
        }
        d
    }

    /// Fold another call's movement into this one.
    pub fn add(&mut self, other: &Delta) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, (c, s)) in &other.hists {
            let e = self.hists.entry(k).or_default();
            e.0 += c;
            e.1 += s;
        }
        for (k, (c, t)) in &other.phases {
            let e = self.phases.entry(k).or_default();
            e.0 += c;
            e.1 += t;
        }
    }

    /// Counter movement by catalog name (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Mean recorded value of a histogram (0 when empty).
    pub fn hist_mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(count, sum)) if count > 0 => sum as f64 / count as f64,
            _ => 0.0,
        }
    }

    /// Mean span duration of a phase in µs (0 when no span closed).
    pub fn phase_mean_us(&self, name: &str) -> f64 {
        match self.phases.get(name) {
            Some(&(count, total)) if count > 0 => total as f64 / count as f64,
            _ => 0.0,
        }
    }

    /// Total time inside a phase in µs, summed over threads.
    pub fn phase_total_us(&self, name: &str) -> f64 {
        self.phases.get(name).map_or(0.0, |&(_, t)| t as f64)
    }
}

/// Per-worker campaign counts a call added, over `workers` worker slots
/// (a worker that ran nothing counts 0).
pub fn worker_delta(before: &Snapshot, after: &Snapshot, workers: usize) -> Vec<u64> {
    let get = |s: &Snapshot, w: usize| {
        s.worker_execs
            .iter()
            .find(|(i, _)| *i == w)
            .map_or(0, |(_, n)| *n)
    };
    (0..workers)
        .map(|w| get(after, w).saturating_sub(get(before, w)))
        .collect()
}

/// Microseconds of `[start, end)` that no span in `events` covers
/// (spans of every thread and phase, merged).
pub fn uncovered_us(events: &[SpanEvent], start: u64, end: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = events
        .iter()
        .map(|e| (e.start_us.max(start), (e.start_us + e.dur_us).min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in iv {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace::telemetry::Phase;

    fn ev(start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            phase: Phase::Execution,
            thread: 0,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn overlapping_spans_are_counted_once_and_clipped_to_the_window() {
        let events = [ev(0, 20), ev(15, 10), ev(40, 10), ev(95, 30)];
        // Window [10, 100): covered [10,25) + [40,50) + [95,100) = 30.
        assert_eq!(uncovered_us(&events, 10, 100), 60);
        assert_eq!(uncovered_us(&[], 10, 100), 90);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
