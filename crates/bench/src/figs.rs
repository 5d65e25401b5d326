//! Regeneration of Figures 8–10 of the evaluation.

use std::time::{Duration, Instant};

use pmrace_core::checkpoint::Checkpoint;
use pmrace_core::{
    run_campaign, CampaignConfig, FuzzConfig, Fuzzer, OpMutator, PoolStart, StrategyKind,
};

use crate::render::{series, table};
use crate::sweep::fuzz_target;
use crate::Budget;

/// Fig. 8: time to identify PM Inter-thread Inconsistencies — PMRace vs
/// random delay injection (the paper's comparison) plus the serialization
/// baseline modeling interleaving enumeration — on the three systems with
/// interleaving bugs.
///
/// Prints, per system and scheme, the timestamps (ms) of each new unique
/// inter-thread inconsistency plus the cumulative count.
#[must_use]
pub fn fig8(budget: Budget, rng_seed: u64) -> String {
    let mut out = String::new();
    let mut rows = Vec::new();
    for target in ["P-CLHT", "FAST-FAIR", "memcached-pmem"] {
        for (scheme, strategy) in [
            ("PMRace", StrategyKind::Pmrace),
            ("Delay Inj", StrategyKind::Delay { max_delay_us: 1000 }),
            ("Systematic", StrategyKind::Systematic),
        ] {
            let report = fuzz_target(target, budget, strategy, rng_seed);
            let times: Vec<String> = report
                .inter_times
                .iter()
                .take(12)
                .map(|d| format!("{}", d.as_millis()))
                .collect();
            rows.push(vec![
                target.to_owned(),
                scheme.to_owned(),
                report.inter_times.len().to_string(),
                report
                    .inter_times
                    .first()
                    .map_or("-".to_owned(), |d| format!("{}", d.as_millis())),
                if times.is_empty() {
                    "-".to_owned()
                } else {
                    times.join(",")
                },
            ]);
        }
    }
    out.push_str(&table(
        "Fig. 8: Time to identify PM Inter-thread Inconsistencies (ms since fuzzing start).",
        &[
            "System",
            "Scheme",
            "#Inter found",
            "First (ms)",
            "Detection times (ms)",
        ],
        &rows,
    ));
    out
}

/// Fig. 9: runtime/coverage ablation on P-CLHT with one worker —
/// full PMRace vs *w/o IE* (no interleaving tier) vs *w/o SE* (no seed
/// tier). Prints downsampled coverage trajectories.
#[must_use]
pub fn fig9(budget: Budget, rng_seed: u64) -> String {
    let mut out = String::new();
    for (name, ie, se) in [
        ("PMRace", true, true),
        ("PMRace w/o IE", false, true),
        ("PMRace w/o SE", true, false),
    ] {
        let mut cfg = FuzzConfig::new("P-CLHT");
        cfg.strategy = StrategyKind::Pmrace;
        cfg.enable_interleaving_tier = ie;
        cfg.enable_seed_tier = se;
        cfg.max_campaigns = budget.campaigns;
        cfg.wall_budget = budget.wall;
        cfg.workers = 1; // single worker, like the paper's case study
        cfg.rng_seed = rng_seed;
        let report = Fuzzer::new(cfg).expect("known target").run().expect("run");
        let n = report.coverage_timeline.len();
        let step = (n / 10).max(1);
        let points: Vec<Vec<String>> = report
            .coverage_timeline
            .iter()
            .step_by(step)
            .chain(report.coverage_timeline.last())
            .map(|s| {
                vec![
                    s.at.as_millis().to_string(),
                    s.alias_pairs.to_string(),
                    s.branches.to_string(),
                ]
            })
            .collect();
        out.push_str(&series(
            &format!("Fig. 9 [{name}]: coverage over time on P-CLHT (1 worker)."),
            &["t (ms)", "PM alias pairs", "branches"],
            &points,
        ));
        let alias_series: Vec<usize> = report
            .coverage_timeline
            .iter()
            .map(|s| s.alias_pairs)
            .collect();
        out.push_str(&format!(
            "alias pairs over campaigns: {}\n\n",
            crate::render::sparkline(&alias_series)
        ));
    }
    out
}

/// Fig. 10: fuzzing speed (campaigns/sec of the input-generation stage)
/// with and without in-memory pool checkpoints, per target.
///
/// PMDK-based targets pay a heavy `libpmemobj`-style pool initialization
/// per campaign without checkpoints; memcached-pmem maps its pool with a
/// thin `pmem_map_file`, so checkpoints buy it nothing — the paper's
/// recommendation to disable them for `libpmem`-based programs.
#[must_use]
pub fn fig10(campaigns: usize, rng_seed: u64) -> String {
    let mut rows = Vec::new();
    for spec in pmrace_targets::all_targets() {
        let mut speeds = Vec::new();
        let mut access_rates = Vec::new();
        for use_cp in [true, false] {
            let cp = if use_cp {
                Some(Checkpoint::create(&spec).expect("checkpoint"))
            } else {
                None
            };
            let mut mutator = OpMutator::new(rng_seed, 2, 12);
            let cfg = CampaignConfig {
                threads: 2,
                deadline: Duration::from_millis(500),
                capture_images: false,
                max_images: 0,
                eadr: false,
                extra_whitelist: Vec::new(),
            };
            let start = Instant::now();
            let mut accesses = 0u64;
            for _ in 0..campaigns {
                let seed = mutator.generate();
                let start = cp.as_ref().map_or(PoolStart::Format, PoolStart::Checkpoint);
                let res = run_campaign(&spec, &seed, &cfg, None, start).expect("campaign");
                accesses += res.pm_accesses;
            }
            let secs = start.elapsed().as_secs_f64();
            speeds.push(campaigns as f64 / secs);
            access_rates.push(accesses as f64 / secs.max(1e-9));
        }
        let speedup = speeds[0] / speeds[1].max(1e-9);
        rows.push(vec![
            spec.name.to_owned(),
            format!("{:.1}", speeds[0]),
            format!("{:.1}", speeds[1]),
            format!("{:.0}%", (speedup - 1.0) * 100.0),
            format!("{:.0}k", access_rates[0] / 1e3),
        ]);
    }
    table(
        "Fig. 10: Input-generation fuzzing speed with/without in-memory checkpoints.",
        &[
            "System",
            "execs/s (CP)",
            "execs/s (no CP)",
            "CP speedup",
            "PM acc/s (CP)",
        ],
        &rows,
    )
}

/// §6.6 ablation: the same fuzzing runs under the ADR vs. eADR failure
/// models. With persistent caches, PM Inter-thread Inconsistencies vanish,
/// while PM Synchronization Inconsistencies (persistent locks) remain —
/// exactly the paper's applicability argument for PMRace on eADR
/// platforms.
#[must_use]
pub fn eadr_ablation(budget: Budget, rng_seed: u64) -> String {
    let mut rows = Vec::new();
    for target in ["P-CLHT", "CCEH"] {
        for (mode, eadr) in [("ADR", false), ("eADR", true)] {
            let mut cfg = FuzzConfig::new(target);
            cfg.max_campaigns = budget.campaigns;
            cfg.wall_budget = budget.wall;
            cfg.workers = budget.workers;
            cfg.rng_seed = rng_seed;
            cfg.eadr = eadr;
            let report = Fuzzer::new(cfg).expect("known target").run().expect("run");
            let sync_bugs = report
                .bugs
                .iter()
                .filter(|b| b.kind == pmrace_core::BugKind::Sync)
                .count();
            rows.push(vec![
                target.to_owned(),
                mode.to_owned(),
                (report.stats.inter_candidates + report.stats.intra_candidates).to_string(),
                (report.stats.inter + report.stats.intra).to_string(),
                report.stats.sync.to_string(),
                sync_bugs.to_string(),
            ]);
        }
    }
    table(
        "§6.6 ablation: ADR vs eADR failure model (persistent caches remove \
         inter-thread inconsistencies; persistent-lock bugs remain).",
        &[
            "System",
            "Model",
            "Candidates",
            "Inconsistencies",
            "Sync detected",
            "Sync bugs",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_smoke_shows_all_targets() {
        let out = fig10(2, 3);
        for name in ["P-CLHT", "clevel", "CCEH", "FAST-FAIR", "memcached-pmem"] {
            assert!(out.contains(name), "{name} missing:\n{out}");
        }
    }
}
