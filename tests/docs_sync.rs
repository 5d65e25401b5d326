//! Docs-vs-code sync guards: the user-facing docs enumerate things the
//! code registers (target names, telemetry metric names). These tests
//! fail when someone adds or renames a target or a metric without
//! updating the corresponding doc — string-level checks, deliberately
//! dumb, so they cannot silently drift the way prose can.

use std::fs;
use std::path::Path;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every registered builtin target (both suites) appears, backticked, in
/// README.md's "Bundled targets" table.
#[test]
fn readme_bundled_targets_table_lists_every_registered_target() {
    pmrace::register_builtins();
    pmrace::register_lockfree();
    let readme = repo_file("README.md");
    let table = readme
        .split("## Bundled targets")
        .nth(1)
        .expect("README.md must keep a '## Bundled targets' section")
        .split("\n## ")
        .next()
        .unwrap();
    let missing: Vec<String> = pmrace::all_targets()
        .iter()
        .map(|spec| spec.name.to_owned())
        .filter(|name| !table.contains(&format!("`{name}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "registered targets missing from README.md's Bundled targets table \
         (add a row with the name in backticks): {missing:?}"
    );
}

/// Every telemetry counter, gauge, and histogram name appears verbatim in
/// docs/OBSERVABILITY.md's catalog.
#[test]
fn observability_doc_lists_every_metric_name() {
    let doc = repo_file("docs/OBSERVABILITY.md");
    let mut missing = Vec::new();
    for c in pmrace::telemetry::Counter::ALL {
        if !doc.contains(c.name()) {
            missing.push(format!("counter {}", c.name()));
        }
    }
    for g in pmrace::telemetry::Gauge::ALL {
        if !doc.contains(g.name()) {
            missing.push(format!("gauge {}", g.name()));
        }
    }
    for h in pmrace::telemetry::Histogram::ALL {
        if !doc.contains(h.name()) {
            missing.push(format!("histogram {}", h.name()));
        }
    }
    assert!(
        missing.is_empty(),
        "metric names missing from docs/OBSERVABILITY.md: {missing:?}"
    );
}

/// The docs README links must point at files that exist; a moved doc
/// breaks the trailhead silently otherwise.
#[test]
fn readme_links_performance_and_architecture_docs() {
    let readme = repo_file("README.md");
    for doc in [
        "docs/ARCHITECTURE.md",
        "docs/PERFORMANCE.md",
        "docs/OBSERVABILITY.md",
    ] {
        assert!(readme.contains(doc), "README.md must link {doc}");
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(doc).exists(),
            "{doc} referenced but missing"
        );
    }
}

/// docs/PERFORMANCE.md's "Reading `BENCH_hotpath.json`" table names, in
/// its first column, exactly the cells of the committed
/// `BENCH_hotpath.json`: no cell goes undocumented and no row outlives its
/// cell.
#[test]
fn performance_doc_cell_table_matches_committed_hotpath_cells() {
    use pmrace::telemetry::json::{self, Value};
    let bench = json::parse(&repo_file("BENCH_hotpath.json")).expect("valid JSON");
    let mut committed: Vec<String> = bench
        .get("cells")
        .and_then(Value::as_arr)
        .expect("a \"cells\" array")
        .iter()
        .map(|cell| {
            let name = cell.get("name").and_then(Value::as_str);
            name.expect("every cell has a name").to_owned()
        })
        .collect();
    committed.sort();
    committed.dedup();

    let doc = repo_file("docs/PERFORMANCE.md");
    let table = doc
        .split("### Reading `BENCH_hotpath.json`")
        .nth(1)
        .expect("docs/PERFORMANCE.md must keep its 'Reading `BENCH_hotpath.json`' table")
        .split("\n\n")
        .nth(1)
        .expect("a table after the heading");
    let mut documented: Vec<String> = table
        .lines()
        .skip(2) // header and separator rows
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(|first_column| first_column.split('`').skip(1).step_by(2))
        .map(str::to_owned)
        .collect();
    documented.sort();
    documented.dedup();
    assert_eq!(
        documented, committed,
        "the cell table in docs/PERFORMANCE.md and the cells of BENCH_hotpath.json differ"
    );
}
