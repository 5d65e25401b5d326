//! `repro`: regenerate the tables and figures of the PMRace evaluation,
//! and manage the record/replay regression corpus.
//!
//! ```text
//! repro [--quick] [--seed N] [--out-dir DIR] [--check-against FILE]
//!       [--tolerance X] <experiments...>
//! experiments: table1 table2 table3 table4 table5 table6 fig8 fig9 fig10
//!              eadr hotpath all
//!     With --check-against, exit 1 unless the hotpath run produces every
//!     cell named in FILE (the CI schema guard for BENCH_hotpath.json).
//!     Adding --tolerance X (X >= 1) also gates speed: each cell's ops/sec
//!     is divided by a reference cell's from the same run, and the run
//!     exits 1 if any such ratio falls below FILE's ratio divided by X.
//!     Only cells with at most as many threads as both this host and
//!     FILE's host have CPUs are judged.
//!
//! repro replay [--steer|--free] [--attempts N] [--telemetry-out DIR]
//!              <artifact.json|corpus-dir>...
//!     Replay repro artifacts; exit 1 unless every recorded bug re-fires.
//!     With --telemetry-out, write telemetry.json + trace.jsonl for the
//!     replay run into DIR.
//!
//! repro corpus <dir> [--minimize]
//!     Build (and validate by replay) the 14-bug Table 2 regression
//!     corpus; --minimize additionally delta-debugs each artifact.
//!
//! repro stats [--top N] [--check-schema] <telemetry.json|trace.jsonl|dir>...
//!     Render a per-phase time breakdown, campaign counters, and the
//!     hottest instrumentation sites from a telemetry snapshot; with
//!     --check-schema, exit 1 unless every snapshot validates against the
//!     documented schema (docs/OBSERVABILITY.md).
//! ```
//!
//! `table2/3/5/6` share one fuzzing sweep and are emitted together when any
//! of them is requested. `--out-dir` redirects machine-readable outputs
//! (currently `BENCH_hotpath.json`) away from the working directory.

use std::path::{Path, PathBuf};

use pmrace_bench::{figs, hotpath, tables, Budget};
use pmrace_replay::{
    build_corpus, minimize, replay, replay_corpus, MinimizeOptions, ReplayMode, ReplayOptions,
    ReproStore,
};
use pmrace_telemetry as telemetry;

/// Flags that consume the following argument; everything else that does
/// not start with `--` is a positional.
const VALUE_FLAGS: &[&str] = &[
    "--attempts",
    "--telemetry-out",
    "--top",
    "--seed",
    "--out-dir",
    "--check-against",
    "--tolerance",
];

fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if VALUE_FLAGS.contains(&args[i].as_str()) {
            i += 2;
            continue;
        }
        if !args[i].starts_with("--") {
            out.push(args[i].clone());
        }
        i += 1;
    }
    out
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn replay_options(args: &[String]) -> ReplayOptions {
    let mut opts = ReplayOptions::default();
    if args.iter().any(|a| a == "--steer") {
        opts.mode = ReplayMode::Steer;
    }
    if args.iter().any(|a| a == "--free") {
        opts.mode = ReplayMode::Free;
    }
    if let Some(n) = args
        .iter()
        .position(|a| a == "--attempts")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
    {
        opts.attempts = n.max(1);
    }
    opts
}

/// `repro replay <paths...>`: exit 0 iff every artifact re-triggers its
/// recorded bug.
fn cmd_replay(args: &[String]) -> ! {
    let opts = replay_options(args);
    let telemetry_out = flag_value(args, "--telemetry-out").map(PathBuf::from);
    if telemetry_out.is_some() {
        telemetry::set_enabled(true);
    }
    let paths = positionals(args);
    if paths.is_empty() {
        eprintln!(
            "usage: repro replay [--steer|--free] [--attempts N] \
             [--telemetry-out DIR] <artifact|dir>..."
        );
        std::process::exit(2);
    }
    let mut failures = 0usize;
    let mut total = 0usize;
    for arg in &paths {
        let path = Path::new(arg);
        let entries = if path.is_dir() {
            match replay_corpus(path, &opts) {
                Ok(results) => results
                    .into_iter()
                    .map(|r| (r.path, r.key, r.matched, r.divergence))
                    .collect(),
                Err(e) => {
                    eprintln!("[replay] {arg}: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            match ReproStore::load(path).map(|repro| {
                let key = repro.signature.key();
                replay(&repro, &opts)
                    .map(|out| (path.to_path_buf(), key, out.matched, out.divergence))
            }) {
                Ok(Ok(one)) => vec![one],
                Ok(Err(e)) | Err(e) => {
                    eprintln!("[replay] {arg}: {e}");
                    std::process::exit(1);
                }
            }
        };
        for (path, key, matched, divergence) in entries {
            total += 1;
            let status = if matched { "ok" } else { "FAIL" };
            println!("[replay] {status:4} {key}  ({})", path.display());
            if let Some(d) = divergence {
                println!("[replay]      divergence: {d}");
            }
            if !matched {
                failures += 1;
            }
        }
    }
    println!(
        "[replay] {}/{} artifacts re-triggered their bug",
        total - failures,
        total
    );
    if let Some(dir) = &telemetry_out {
        if let Err(e) = write_telemetry(dir) {
            eprintln!("[replay] telemetry: {e}");
            std::process::exit(1);
        }
        println!("[replay] wrote telemetry to {}", dir.display());
    }
    std::process::exit(i32::from(failures > 0));
}

/// Snapshot the telemetry registry into `dir` (`telemetry.json` +
/// `trace.jsonl`), resolving hot-site ids through the runtime's registry.
fn write_telemetry(dir: &Path) -> std::io::Result<()> {
    let resolve = |id: u32| {
        let site = pmrace_runtime::Site::from_id(id);
        let label = pmrace_runtime::site_label(site);
        (label != "<unknown site>")
            .then(|| format!("{label} ({})", pmrace_runtime::site_location(site)))
    };
    telemetry::snapshot::write_snapshot(dir, &resolve)?;
    telemetry::snapshot::write_trace_jsonl(dir)?;
    Ok(())
}

/// `repro stats`: render one or more telemetry snapshots for humans.
fn cmd_stats(args: &[String]) -> ! {
    let top = flag_value(args, "--top")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(10);
    let paths: Vec<PathBuf> = positionals(args).iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        eprintln!(
            "usage: repro stats [--top N] [--check-schema] \
             <telemetry.json|trace.jsonl|dir>..."
        );
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--check-schema") {
        let files = match telemetry::stats::resolve_inputs(&paths) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("[stats] {e}");
                std::process::exit(1);
            }
        };
        for f in files
            .iter()
            .filter(|f| f.extension().is_some_and(|e| e == "json"))
        {
            let text = match std::fs::read_to_string(f) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("[stats] {}: {e}", f.display());
                    std::process::exit(1);
                }
            };
            if let Err(e) = telemetry::snapshot::validate_snapshot_text(&text) {
                eprintln!("[stats] {}: schema violation: {e}", f.display());
                std::process::exit(1);
            }
            println!("[stats] schema ok: {}", f.display());
        }
    }
    match telemetry::stats::render_stats(&paths, top) {
        Ok(report) => {
            println!("{report}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[stats] {e}");
            std::process::exit(1);
        }
    }
}

/// `repro corpus <dir> [--minimize]`: build the validated Table 2 corpus.
fn cmd_corpus(args: &[String]) -> ! {
    let Some(dir) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: repro corpus <dir> [--minimize]");
        std::process::exit(2);
    };
    let dir = Path::new(dir);
    let built = match build_corpus(dir) {
        Ok(built) => built,
        Err(e) => {
            eprintln!("[corpus] build failed: {e}");
            std::process::exit(1);
        }
    };
    for b in &built {
        println!(
            "[corpus] bug {:2}: {} ({} rounds) -> {}",
            b.bug_id,
            b.signature.key(),
            b.rounds_used,
            b.path.display()
        );
    }
    if args.iter().any(|a| a == "--minimize") {
        let store = match ReproStore::open(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[corpus] {e}");
                std::process::exit(1);
            }
        };
        let opts = MinimizeOptions::default();
        for b in &built {
            let repro = match ReproStore::load(&b.path) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("[corpus] bug {}: {e}", b.bug_id);
                    std::process::exit(1);
                }
            };
            match minimize(&repro, &opts) {
                Ok(report) => {
                    if let Err(e) = store.save(&report.repro) {
                        eprintln!("[corpus] bug {}: {e}", b.bug_id);
                        std::process::exit(1);
                    }
                    println!(
                        "[corpus] bug {:2}: minimized ops {} -> {}, events {} -> {} ({} tests)",
                        b.bug_id,
                        report.ops_before,
                        report.ops_after,
                        report.events_before,
                        report.events_after,
                        report.tests_run
                    );
                }
                Err(e) => {
                    eprintln!("[corpus] bug {}: minimization failed: {e}", b.bug_id);
                    std::process::exit(1);
                }
            }
        }
    }
    println!(
        "[corpus] {} artifacts ready in {}",
        built.len(),
        dir.display()
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("replay") => cmd_replay(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        _ => {}
    }
    let quick = args.iter().any(|a| a == "--quick");
    let seed = flag_value(&args, "--seed")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    let positional = positionals(&args);
    let mut wanted: Vec<&str> = positional.iter().map(String::as_str).collect();
    const KNOWN: &[&str] = &[
        "table1", "table2", "table3", "table4", "table5", "table6", "fig8", "fig9", "fig10",
        "eadr", "hotpath", "all",
    ];
    let mut had_unknown = false;
    for unknown in wanted.iter().filter(|w| !KNOWN.contains(w)) {
        eprintln!(
            "[repro] unknown experiment \"{unknown}\"; known: {}",
            KNOWN.join(" ")
        );
        had_unknown = true;
    }
    wanted.retain(|w| KNOWN.contains(w));
    if had_unknown && wanted.is_empty() {
        std::process::exit(2);
    }
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = vec![
            "table1", "table2", "table4", "fig8", "fig9", "fig10", "eadr", "hotpath",
        ];
    }
    let budget = if quick {
        Budget::quick()
    } else {
        Budget::full()
    };
    let sweep_needed = wanted
        .iter()
        .any(|w| matches!(*w, "table2" | "table3" | "table5" | "table6"));

    println!(
        "# PMRace evaluation reproduction (seed={seed}, {} budget)\n",
        if quick { "quick" } else { "full" }
    );

    if wanted.contains(&"table1") {
        println!("{}", tables::table1());
    }
    if sweep_needed {
        eprintln!("[repro] running the shared fuzzing sweep over all 5 targets...");
        let (_reports, out) = tables::bug_tables(budget, seed);
        println!("{out}");
    }
    if wanted.contains(&"table4") {
        eprintln!("[repro] running the input-generator coverage comparison...");
        println!("{}", tables::table4(21, if quick { 20 } else { 100 }));
    }
    if wanted.contains(&"fig8") {
        eprintln!("[repro] running the interleaving-exploration comparison (fig 8)...");
        println!("{}", figs::fig8(budget, seed));
    }
    if wanted.contains(&"fig9") {
        eprintln!("[repro] running the exploration-tier ablation (fig 9)...");
        let fig9_budget = Budget {
            workers: 1,
            ..budget
        };
        println!("{}", figs::fig9(fig9_budget, seed));
    }
    if wanted.contains(&"fig10") {
        eprintln!("[repro] measuring checkpoint impact (fig 10)...");
        println!("{}", figs::fig10(if quick { 10 } else { 40 }, seed));
    }
    if wanted.contains(&"eadr") {
        eprintln!("[repro] running the ADR vs eADR ablation (§6.6)...");
        println!("{}", figs::eadr_ablation(budget, seed));
    }
    if wanted.contains(&"hotpath") {
        eprintln!("[repro] measuring contended hot-path throughput...");
        let cells = hotpath::run_matrix(quick);
        println!("{}", hotpath::render(&cells));
        // Schema-drift guard: every cell name present in the committed
        // BENCH_hotpath.json must still be produced by the bench code, so a
        // renamed or dropped cell cannot silently break the tracked perf
        // trajectory.
        if let Some(committed) = flag_value(&args, "--check-against") {
            let text = match std::fs::read_to_string(&committed) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("[repro] --check-against {committed}: {e}");
                    std::process::exit(1);
                }
            };
            let baseline = match hotpath::cell_values_in_json(&text) {
                Ok(rows) => rows,
                Err(e) => {
                    eprintln!("[repro] --check-against {committed}: {e}");
                    std::process::exit(1);
                }
            };
            let missing: Vec<String> = hotpath::cell_names_in_json(&text)
                .unwrap_or_default()
                .into_iter()
                .filter(|name| !cells.iter().any(|c| &c.name == name))
                .collect();
            if missing.is_empty() {
                eprintln!("[repro] hotpath cells match {committed}");
            } else {
                eprintln!(
                    "[repro] hotpath run is missing cells present in {committed}: {}",
                    missing.join(", ")
                );
                std::process::exit(1);
            }
            // Speed gate: ratios to same-run reference cells, so it judges
            // the code and not the host it runs on.
            if let Some(tol) = flag_value(&args, "--tolerance") {
                let tol: f64 = match tol.parse() {
                    Ok(t) if t >= 1.0 => t,
                    _ => {
                        eprintln!("[repro] --tolerance must be a number >= 1.0, got {tol}");
                        std::process::exit(2);
                    }
                };
                let cpus = match hotpath::cpus_in_json(&text) {
                    Ok(committed_cpus) => committed_cpus.min(hotpath::host_cpus()),
                    Err(e) => {
                        eprintln!("[repro] --check-against {committed}: {e}");
                        std::process::exit(1);
                    }
                };
                let checks = match hotpath::ratio_gate(&baseline, &cells, tol, cpus) {
                    Ok(checks) => checks,
                    Err(e) => {
                        eprintln!("[repro] --tolerance: {e}");
                        std::process::exit(1);
                    }
                };
                for c in &checks {
                    eprintln!(
                        "[repro] {} {:<30} {}T {:<11} / {:<14} {:.2} of committed",
                        if c.passed { "ok  " } else { "SLOW" },
                        c.name,
                        c.threads,
                        c.lines,
                        c.reference,
                        c.measured / c.committed,
                    );
                }
                let regressed = checks.iter().filter(|c| !c.passed).count();
                if regressed > 0 {
                    eprintln!(
                        "[repro] PERF REGRESSION: {regressed} of {} hotpath cells fell below \
                         {committed}'s ratio to their reference / {tol}",
                        checks.len()
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "[repro] {} hotpath cells within {tol}x of {committed}'s ratios \
                     (cells above {cpus} threads measured, not judged)",
                    checks.len()
                );
            }
        }
        if quick {
            // Quick numbers are noisy; don't clobber the tracked full run.
            eprintln!("[repro] --quick: not rewriting BENCH_hotpath.json");
        } else {
            let out_dir =
                flag_value(&args, "--out-dir").map_or_else(|| PathBuf::from("."), PathBuf::from);
            let out = out_dir.join("BENCH_hotpath.json");
            let json = hotpath::to_json(&cells, hotpath::host_cpus());
            match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&out, &json)) {
                Ok(()) => eprintln!("[repro] wrote {}", out.display()),
                Err(e) => eprintln!("[repro] could not write {}: {e}", out.display()),
            }
        }
    }
}
