//! `pmrace`: command-line front end for the fuzzer.
//!
//! ```text
//! pmrace list
//! pmrace fuzz --list-targets
//! pmrace fuzz <target> [--secs N] [--campaigns N] [--workers N]
//!                      [--strategy pmrace|delay|none|systematic] [--threads N]
//!                      [--eadr] [--no-checkpoint] [--seed N]
//!                      [--report-dir DIR] [--corpus-dir DIR] [--whitelist RULE]...
//!                      [--telemetry DIR] [--progress SECS]
//! pmrace replay <target> <seed-file>
//! ```
//!
//! `fuzz` runs the PM-aware coverage-guided fuzzer and prints the unique
//! bugs; with `--report-dir` it also writes one detailed report file per
//! bug (including the triggering seed). `--workers N` runs a fleet of N
//! exploration workers sharing one wait-free coverage frontier and a
//! sharded cross-worker seed pool: a seed that unlocks coverage on one
//! worker is evolved by the others within a few campaigns, duplicate
//! findings are absorbed without a global lock, and aggregate execs/sec
//! grows with workers while CPUs are free (perfbench's `fuzz-lockfree-w2`
//! workload measures it); beyond the CPU count, extra workers only fill
//! the Fig. 6 scheduler's idle time, worth ~1.3× in all
//! (docs/PERFORMANCE.md). `--workers` defaults to the machine's available
//! parallelism (capped at 8); pass `--workers 1` to run one campaign at a
//! time, which makes runs easier to compare, though not yet a pure
//! function of the seed: thread timing still moves candidate counts and,
//! under the pmrace strategy, the bugs found. At every worker count a
//! worker validates its own campaign's findings inline, under the ledger
//! lock.
//! Each worker draws from its own deterministic RNG stream, so seeded runs
//! stay replayable; with `--progress`, multi-worker runs print a per-worker
//! execs/s split. `fuzz --list-targets` prints every
//! target registered with the process-global registry (the built-ins, the
//! lock-free suite, plus any runtime-registered plugins; `list` shows just
//! the paper's five) along with each target's seed-grammar summary: key
//! universe, hot-key prefix, value/step bounds, and the relative op
//! weights the mutator draws from. `--telemetry DIR` turns the
//! observability layer on and writes `telemetry.json` + `trace.jsonl` into
//! DIR when the run finishes (render them with `repro stats DIR`;
//! schema in `docs/OBSERVABILITY.md`), and `--progress SECS` prints a
//! progress line to stderr every SECS seconds. `replay` re-executes a seed
//! file from such a report and prints the raw checker findings.

use std::time::Duration;

use pmrace::core::report_io;
use pmrace::core::{run_campaign, CampaignConfig, PoolStart};
use pmrace::{all_targets, target_spec, FuzzConfig, Fuzzer, Seed, StrategyKind};

fn usage() -> ! {
    eprintln!(
        "usage:\n  pmrace list\n  pmrace fuzz --list-targets\n  \
         pmrace fuzz <target> [--secs N] [--campaigns N] \
         [--workers N] [--threads N] [--strategy pmrace|delay|none|systematic] [--eadr] \
         [--no-checkpoint] [--seed N] [--report-dir DIR] [--corpus-dir DIR] [--whitelist RULE]... \
         [--telemetry DIR] [--progress SECS]\n  pmrace replay <target> <seed-file>"
    );
    std::process::exit(2);
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Default `--workers`: the machine's available parallelism, capped at 8.
/// Workers beyond the CPU count only fill scheduler idle time, which the
/// event-driven writer stall left little of. `--workers 1` runs one
/// campaign at a time; every worker count validates inline.
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().clamp(1, 8))
}

/// One-line seed-grammar summary for `fuzz --list-targets`: the bounds
/// the mutator draws keys/values from plus the relative op weights.
fn grammar_summary(hints: &pmrace::SeedHints) -> String {
    let w = &hints.weights;
    format!(
        "keys 1..={} (hot {}) values <{} steps <{} | weights: insert {} get {} update {} \
         delete {} incr {} decr {}",
        hints.key_range,
        hints.hot_keys,
        hints.max_value,
        hints.max_step,
        w.insert,
        w.get,
        w.update,
        w.delete,
        w.incr,
        w.decr,
    )
}

fn main() {
    // Targets resolve by name through the process-global registry; make
    // the five built-ins and the lock-free suite available before
    // anything looks one up.
    pmrace::register_builtins();
    pmrace::register_lockfree();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("available targets (Table 1 of the paper):");
            for spec in all_targets() {
                println!("  {}", spec.name);
            }
        }
        Some("fuzz") if args.iter().any(|a| a == "--list-targets") => {
            // Everything currently registered — built-ins, the lock-free
            // suite, plus whatever plugin targets this process registered
            // at runtime — with each target's op grammar.
            println!("registered targets (registration order):");
            for spec in pmrace::api::all_targets() {
                println!("  {:<16} {}", spec.name, grammar_summary(&spec.hints));
            }
        }
        Some("fuzz") => {
            let Some(target) = args.get(1).filter(|a| !a.starts_with("--")) else {
                usage();
            };
            let mut cfg = FuzzConfig::new(target);
            cfg.wall_budget = Duration::from_secs(
                flag_value(&args, "--secs")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(30),
            );
            if let Some(n) = flag_value(&args, "--campaigns").and_then(|v| v.parse().ok()) {
                cfg.max_campaigns = n;
            } else {
                cfg.max_campaigns = usize::MAX;
            }
            cfg.workers = flag_value(&args, "--workers")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(default_workers);
            if let Some(t) = flag_value(&args, "--threads").and_then(|v| v.parse().ok()) {
                cfg.threads = t;
            }
            if let Some(s) = flag_value(&args, "--seed").and_then(|v| v.parse().ok()) {
                cfg.rng_seed = s;
            }
            cfg.strategy = match flag_value(&args, "--strategy").as_deref() {
                None | Some("pmrace") => StrategyKind::Pmrace,
                Some("delay") => StrategyKind::Delay { max_delay_us: 1000 },
                Some("none") => StrategyKind::None,
                Some("systematic") => StrategyKind::Systematic,
                Some(other) => {
                    eprintln!("unknown strategy {other:?}");
                    std::process::exit(2);
                }
            };
            cfg.eadr = args.iter().any(|a| a == "--eadr");
            if let Some(dir) = flag_value(&args, "--corpus-dir") {
                cfg.corpus_dir = Some(dir.into());
            }
            // Repeatable: --whitelist <rule> adds a site-label substring.
            let mut i = 0;
            while i < args.len() {
                if args[i] == "--whitelist" {
                    if let Some(rule) = args.get(i + 1) {
                        cfg.extra_whitelist.push(rule.clone());
                    }
                }
                i += 1;
            }
            cfg.use_checkpoint = !args.iter().any(|a| a == "--no-checkpoint");
            if let Some(dir) = flag_value(&args, "--telemetry") {
                cfg.telemetry_dir = Some(dir.into());
            }
            if let Some(secs) = flag_value(&args, "--progress").and_then(|v| v.parse::<f64>().ok())
            {
                cfg.progress_interval = Some(Duration::from_secs_f64(secs.max(0.05)));
            }
            let telemetry_dir = cfg.telemetry_dir.clone();

            println!(
                "fuzzing {target} for {:?} ({} workers, {} strategy{})...",
                cfg.wall_budget,
                cfg.workers,
                match cfg.strategy {
                    StrategyKind::Pmrace => "pmrace",
                    StrategyKind::Delay { .. } => "delay-injection",
                    StrategyKind::Systematic => "systematic",
                    StrategyKind::None => "no",
                },
                if cfg.eadr { ", eADR model" } else { "" },
            );
            let fuzzer = match Fuzzer::new(cfg) {
                Ok(f) => f,
                Err(e @ pmrace::runtime::RtError::UnknownTarget(_)) => {
                    eprintln!("error: {e}");
                    eprintln!("hint: `pmrace fuzz --list-targets` shows what this binary knows");
                    std::process::exit(2);
                }
                Err(e) => {
                    eprintln!("fuzzing failed: {e}");
                    std::process::exit(1);
                }
            };
            let report = match fuzzer.run() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("fuzzing failed: {e}");
                    std::process::exit(1);
                }
            };
            let s = report.stats;
            println!(
                "\n{} campaigns ({:.1}/s, {:.0} PM accesses/s) | alias pairs {} | \
                 candidates {} | inconsistencies {} | validated FP {} | \
                 whitelisted FP {} | sync {} ({} benign)",
                report.campaigns,
                report.execs_per_sec,
                report.accesses_per_sec,
                report.alias_pairs,
                s.inter_candidates + s.intra_candidates,
                s.inter + s.intra,
                s.validated_fp,
                s.whitelisted_fp,
                s.sync,
                s.sync_validated_fp,
            );
            println!("\nunique bugs ({}):", report.bugs.len());
            for bug in &report.bugs {
                println!("  {bug}");
            }
            if let Some(dir) = flag_value(&args, "--report-dir") {
                match report_io::write_reports(std::path::Path::new(&dir), &report) {
                    Ok(paths) => println!("\nwrote {} report file(s) under {dir}", paths.len()),
                    Err(e) => eprintln!("failed to write reports: {e}"),
                }
            }
            if let Some(dir) = telemetry_dir {
                println!(
                    "wrote telemetry.json + trace.jsonl under {} (render with `repro stats`)",
                    dir.display()
                );
            }
        }
        Some("replay") => {
            let (Some(target), Some(path)) = (args.get(1), args.get(2)) else {
                usage();
            };
            let Some(spec) = target_spec(target) else {
                eprintln!("unknown target {target:?}; try `pmrace list`");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            // Accept either a bare seed file or a full bug report (seed at
            // the end, after the marker line).
            let seed_text = text.rsplit("driver thread):\n").next().unwrap_or(&text);
            let seed = match Seed::parse(seed_text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot parse seed: {e}");
                    std::process::exit(1);
                }
            };
            println!("replaying {seed} against {target}...");
            let cfg = CampaignConfig {
                threads: seed.num_threads(),
                deadline: Duration::from_secs(3),
                ..CampaignConfig::default()
            };
            match run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare) {
                Ok(res) => {
                    println!(
                        "hang={} | candidates {} | inconsistencies {} | sync updates {}",
                        res.findings.hang,
                        res.findings.candidates.len(),
                        res.findings.inconsistencies.len(),
                        res.findings.sync_updates.len(),
                    );
                    for rec in &res.findings.inconsistencies {
                        println!("  {rec}");
                    }
                    for upd in &res.findings.sync_updates {
                        println!("  {upd}");
                    }
                }
                Err(e) => {
                    eprintln!("replay failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
