//! Ground truth: which planted bug rows a fuzz job is expected to find,
//! whether (and when) it found them, and which findings match nothing.
//!
//! * Rows 1–14 are the paper's Table 2, recognized by
//!   [`pmrace_bench::tables::bug_found`]. Matching is by site label, so
//!   memcached's intra-thread variants of a row fold into that row.
//! * Rows 15–20 are the lock-free suite's planted bugs, recognized by the
//!   signatures of their artifacts in `repros/` (a test keeps the two in
//!   step).
//! * treiber-stack's intra-thread pop-CAS variant is a documented genuine
//!   extra (EXPERIMENTS.md).
//! * Every other unique bug counts as unexpected. Nothing is dropped.

use std::time::Duration;

use pmrace::core::{BugKind, FuzzReport, UniqueBug};
use pmrace::replay::BugSignature;
use pmrace_bench::tables::{bug_found, paper_bugs, Matcher, PaperBug};

/// A planted bug row a job on its target is expected to find.
#[derive(Debug, Clone)]
pub enum Row {
    /// A Table 2 row (ids 1–14).
    Paper(PaperBug),
    /// A lock-free suite row (ids 15–20), matched by artifact signature.
    Lockfree {
        /// Row id.
        id: u32,
        /// Target name.
        target: &'static str,
        /// Signature of the row's checked-in artifact.
        sig: BugSignature,
    },
}

/// `(id, target, write, read, effect)` of the six lock-free artifacts.
const LOCKFREE_ROWS: [(u32, &str, &str, &str, &str); 6] = [
    (
        15,
        "treiber-stack",
        "tstack.c:63.publish_top",
        "tstack.c:74.read_top",
        "tstack.c:89.log_pop_src",
    ),
    (
        16,
        "treiber-stack",
        "tstack.c:52.store_payload",
        "tstack.c:86.read_payload",
        "tstack.c:91.log_popped",
    ),
    (
        17,
        "harris-list",
        "hlist.c:49.store_val",
        "hlist.c:103.read_val",
        "hlist.c:105.log_find",
    ),
    (
        18,
        "harris-list",
        "hlist.c:88.mark",
        "hlist.c:65.read_marked",
        "hlist.c:70.log_unlink",
    ),
    (
        19,
        "ms-queue",
        "msq.c:62.link",
        "msq.c:59.read_next",
        "msq.c:72.log_repair",
    ),
    (
        20,
        "ms-queue",
        "msq.c:52.store_val",
        "msq.c:90.read_val",
        "msq.c:95.log_deq",
    ),
];

/// Documented genuine findings that are not planted rows:
/// `(target, kind, write label)`.
const GENUINE_EXTRAS: [(&str, BugKind, &str); 1] =
    [("treiber-stack", BugKind::Intra, "tstack.c:81.pop_top")];

impl Row {
    /// Row id (1–20).
    pub fn id(&self) -> u32 {
        match self {
            Row::Paper(b) => b.id,
            Row::Lockfree { id, .. } => *id,
        }
    }

    fn target(&self) -> &str {
        match self {
            Row::Paper(b) => b.system,
            Row::Lockfree { target, .. } => target,
        }
    }

    /// Did the report find this row (anywhere in its findings)?
    pub fn found(&self, report: &FuzzReport) -> bool {
        match self {
            Row::Paper(b) => bug_found(report, b),
            Row::Lockfree { target, sig, .. } => {
                report.target == *target
                    && sig.matches(&report.bugs, &report.candidate_only, &report.bug_triples)
            }
        }
    }

    /// Does this unique bug, by its own labels, stand for the row? Only
    /// such a bug carries the row's discovery time.
    fn owns(&self, bug: &UniqueBug) -> bool {
        if bug.target != self.target() {
            return false;
        }
        let incons = matches!(bug.kind, BugKind::Inter | BugKind::Intra);
        match self {
            Row::Paper(b) => match b.matcher {
                Matcher::Triple {
                    write,
                    read,
                    effect,
                } => {
                    incons
                        && bug.write_label.contains(write)
                        && bug.read_label.contains(read)
                        && bug.effect_label.contains(effect)
                }
                Matcher::Candidate { .. } => false,
                Matcher::SyncVar(name) => {
                    bug.kind == BugKind::Sync && bug.write_label.contains(name)
                }
                Matcher::Hang => bug.kind == BugKind::Hang,
            },
            Row::Lockfree { sig, .. } => {
                incons
                    && bug.write_label == sig.write_label
                    && bug.read_label == sig.read_label
                    && bug.effect_label == sig.effect_label
            }
        }
    }

    /// Is this unique bug an instance of the row? Beyond [`Row::owns`],
    /// a unique bug also belongs to a row when any validated triple of its
    /// write site matches the row (the ledger dedups unique bugs by write
    /// site, so a row can sit behind another triple's unique bug), and a
    /// candidate row claims a bug its pair escalated to.
    fn claims(&self, bug: &UniqueBug, triples: &[(String, String, String)]) -> bool {
        if self.owns(bug) {
            return true;
        }
        if bug.target != self.target() || !matches!(bug.kind, BugKind::Inter | BugKind::Intra) {
            return false;
        }
        let same_writer = triples.iter().filter(|(w, _, _)| *w == bug.write_label);
        match self {
            Row::Paper(b) => match b.matcher {
                Matcher::Triple {
                    write,
                    read,
                    effect,
                } => same_writer
                    .into_iter()
                    .any(|(w, r, e)| w.contains(write) && r.contains(read) && e.contains(effect)),
                Matcher::Candidate { write, read } => {
                    bug.write_label.contains(write) && bug.read_label.contains(read)
                }
                Matcher::SyncVar(_) | Matcher::Hang => false,
            },
            Row::Lockfree { sig, .. } => same_writer.into_iter().any(|(w, r, e)| {
                *w == sig.write_label && *r == sig.read_label && *e == sig.effect_label
            }),
        }
    }
}

/// The rows a job on `target` is expected to find, by id.
pub fn expected_rows(target: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = paper_bugs()
        .into_iter()
        .filter(|b| b.system == target)
        .map(Row::Paper)
        .collect();
    rows.extend(LOCKFREE_ROWS.iter().filter(|(_, t, ..)| *t == target).map(
        |&(id, target, w, r, e)| Row::Lockfree {
            id,
            target,
            sig: BugSignature::triple("Inter", w, r, e),
        },
    ));
    rows
}

/// Artifacts in the checked-in corpus: one per row.
pub const CORPUS_ROWS: usize = 20;

/// One row's outcome in one job.
#[derive(Debug, Clone, PartialEq)]
pub struct RowOutcome {
    /// Row id.
    pub id: u32,
    /// Found anywhere in the report.
    pub found: bool,
    /// Fuzz time of first discovery, when a unique bug of the row's own
    /// labels records it. `None` for a found row that surfaced only as a
    /// candidate pair or as a later triple behind another unique bug of
    /// the same write site: the report carries no time for those.
    pub found_after: Option<Duration>,
}

/// Classification of one fuzz report against its target's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Classified {
    /// One entry per expected row, in row order.
    pub rows: Vec<RowOutcome>,
    /// Unique bugs matching a documented genuine extra.
    pub extras: Vec<String>,
    /// Unique bugs matching no row and no documented extra.
    pub unexpected: Vec<String>,
}

impl Classified {
    /// Time to the bug set: the latest discovery time over expected rows,
    /// a missed row counting the job's full fuzz time `elapsed`. Found rows
    /// without a recorded time do not bound it. `None` when no row bounds
    /// it (no expected rows, or every found row is untimed).
    pub fn bug_set_time(&self, elapsed: Duration) -> Option<Duration> {
        self.rows
            .iter()
            .filter_map(|r| {
                if r.found {
                    r.found_after
                } else {
                    Some(elapsed)
                }
            })
            .max()
    }

    /// Rows found.
    pub fn found(&self) -> usize {
        self.rows.iter().filter(|r| r.found).count()
    }
}

/// Short stable key of a unique bug for reports.
pub fn bug_key(bug: &UniqueBug) -> String {
    format!(
        "{}:{}:{}:{}:{}",
        bug.target, bug.kind, bug.write_label, bug.read_label, bug.effect_label
    )
}

/// Classify `report` against the rows expected for its target.
pub fn classify(report: &FuzzReport) -> Classified {
    let rows = expected_rows(report.target);
    let outcomes = rows
        .iter()
        .map(|row| {
            let found = row.found(report);
            let found_after = found
                .then(|| {
                    report
                        .bugs
                        .iter()
                        .filter(|b| row.owns(b))
                        .map(|b| b.found_after)
                        .min()
                })
                .flatten();
            RowOutcome {
                id: row.id(),
                found,
                found_after,
            }
        })
        .collect();
    let mut extras = Vec::new();
    let mut unexpected = Vec::new();
    for bug in &report.bugs {
        if rows.iter().any(|row| row.claims(bug, &report.bug_triples)) {
            continue;
        }
        let extra = GENUINE_EXTRAS
            .iter()
            .any(|&(t, k, w)| bug.target == t && bug.kind == k && bug.write_label == w);
        if extra {
            extras.push(bug_key(bug));
        } else {
            unexpected.push(bug_key(bug));
        }
    }
    Classified {
        rows: outcomes,
        extras,
        unexpected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace::core::{DetectionStats, Verdict};

    fn bug(target: &'static str, kind: BugKind, w: &str, r: &str, e: &str, ms: u64) -> UniqueBug {
        UniqueBug {
            kind,
            target,
            write_label: w.to_owned(),
            read_label: r.to_owned(),
            effect_label: e.to_owned(),
            description: String::new(),
            verdict: Verdict::Bug,
            found_after: Duration::from_millis(ms),
            seed_text: None,
            trace_text: String::new(),
        }
    }

    fn report(target: &'static str, bugs: Vec<UniqueBug>) -> FuzzReport {
        let bug_triples = bugs
            .iter()
            .filter(|b| matches!(b.kind, BugKind::Inter | BugKind::Intra))
            .map(|b| {
                (
                    b.write_label.clone(),
                    b.read_label.clone(),
                    b.effect_label.clone(),
                )
            })
            .collect();
        FuzzReport {
            target,
            stats: DetectionStats::default(),
            bugs,
            candidate_only: Vec::new(),
            bug_triples,
            campaigns: 100,
            elapsed: Duration::from_secs(2),
            execs_per_sec: 50.0,
            pm_accesses: 0,
            accesses_per_sec: 0.0,
            coverage_timeline: Vec::new(),
            inter_times: Vec::new(),
            alias_pairs: 0,
            branches: 0,
            corpus_save_errors: 0,
            corpus_error: None,
        }
    }

    fn ids(target: &str) -> Vec<u32> {
        expected_rows(target).iter().map(Row::id).collect()
    }

    #[test]
    fn every_row_belongs_to_exactly_one_target() {
        assert_eq!(ids("P-CLHT"), vec![1, 2, 3, 4, 5]);
        assert_eq!(ids("clevel"), Vec::<u32>::new());
        assert_eq!(ids("CCEH"), vec![6, 7]);
        assert_eq!(ids("FAST-FAIR"), vec![8]);
        assert_eq!(ids("memcached-pmem"), vec![9, 10, 11, 12, 13, 14]);
        assert_eq!(ids("treiber-stack"), vec![15, 16]);
        assert_eq!(ids("harris-list"), vec![17, 18]);
        assert_eq!(ids("ms-queue"), vec![19, 20]);
    }

    #[test]
    fn lockfree_rows_match_the_checked_in_artifacts() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../repros");
        let store = pmrace::replay::ReproStore::open(dir).expect("repros dir opens");
        let corpus: Vec<BugSignature> = store
            .load_all()
            .expect("repros load")
            .into_iter()
            .map(|(_, r)| r.signature)
            .collect();
        assert_eq!(corpus.len(), CORPUS_ROWS);
        for target in ["treiber-stack", "harris-list", "ms-queue"] {
            for row in expected_rows(target) {
                let Row::Lockfree { sig, .. } = row else {
                    panic!("{target} has only lock-free rows");
                };
                assert!(corpus.contains(&sig), "no artifact carries {sig:?}");
            }
        }
    }

    #[test]
    fn bug_set_time_is_the_last_timed_row_and_misses_cost_the_full_run() {
        let pclht = report(
            "P-CLHT",
            vec![
                bug(
                    "P-CLHT",
                    BugKind::Sync,
                    "clht.bucket_lock",
                    "",
                    "clht_lb_res.c:429.bucket_lock",
                    12,
                ),
                bug(
                    "P-CLHT",
                    BugKind::Inter,
                    "clht_lb_res.c:785.swap_ht_off",
                    "clht_lb_res.c:417.read_ht_off",
                    "clht_lb_res.c:489.store_val",
                    60,
                ),
                bug(
                    "P-CLHT",
                    BugKind::Intra,
                    "clht_lb_res.c:789.store_table_new",
                    "clht_gc.c:190.read_table_new",
                    "clht_gc.c:195.store_gc_log",
                    43,
                ),
                bug("P-CLHT", BugKind::Hang, "", "", "", 129),
            ],
        );
        let c = classify(&pclht);
        // Row 4 is a candidate pair this report lacks: a miss.
        assert_eq!(c.found(), 4);
        assert_eq!(c.bug_set_time(pclht.elapsed), Some(pclht.elapsed));
        assert!(c.unexpected.is_empty());

        let mut with_candidate = pclht;
        with_candidate.candidate_only.push((
            "clht_lb_res.c:321.store_key".to_owned(),
            "clht_lb_res.c:616.read_key".to_owned(),
        ));
        let c = classify(&with_candidate);
        assert_eq!(c.found(), 5);
        let candidate = c.rows.iter().find(|r| r.id == 4).unwrap();
        assert_eq!(candidate.found_after, None, "candidates carry no time");
        assert_eq!(
            c.bug_set_time(with_candidate.elapsed),
            Some(Duration::from_millis(129))
        );
    }

    #[test]
    fn memcached_intra_variants_fold_into_table2_rows() {
        let mut r = report(
            "memcached-pmem",
            vec![
                bug(
                    "memcached-pmem",
                    BugKind::Intra,
                    "memcached.c:4292.store_value",
                    "memcached.c:2805.read_value",
                    "memcached.c:4292.store_value",
                    30,
                ),
                bug(
                    "memcached-pmem",
                    BugKind::Inter,
                    "memkv.lru.store_n_prev",
                    "items.c:464.read_prev",
                    "items.c:464.store_clsid",
                    380,
                ),
                bug(
                    "memcached-pmem",
                    BugKind::Intra,
                    "slabs.c:412.store_it_flags",
                    "memcached.c:2824.read_flags",
                    "memcached.c:2824.store_value_header",
                    30,
                ),
            ],
        );
        // Row 10 sits behind row 9's unique bug (same write site).
        r.bug_triples.push((
            "memcached.c:4292.store_value".to_owned(),
            "memcached.c:2805.read_value".to_owned(),
            "memcached.c:4293.store_vallen".to_owned(),
        ));
        let c = classify(&r);
        let found: Vec<u32> = c.rows.iter().filter(|o| o.found).map(|o| o.id).collect();
        assert_eq!(found, vec![9, 10, 11, 13]);
        let row10 = c.rows.iter().find(|o| o.id == 10).unwrap();
        assert_eq!(
            row10.found_after, None,
            "folded triple has no time of its own"
        );
        assert!(c.unexpected.is_empty(), "{:?}", c.unexpected);
        // Rows 12 and 14 are missed, so the full run bounds the bug set.
        assert_eq!(c.bug_set_time(r.elapsed), Some(r.elapsed));
    }

    #[test]
    fn hangs_outside_pclht_and_stray_bugs_are_unexpected() {
        let r = report(
            "FAST-FAIR",
            vec![
                bug("FAST-FAIR", BugKind::Hang, "", "", "", 24),
                bug(
                    "FAST-FAIR",
                    BugKind::Inter,
                    "btree.h:560.store_sibling",
                    "btree.h:876.read_sibling",
                    "fastfair.put.shift_val",
                    200,
                ),
                bug(
                    "FAST-FAIR",
                    BugKind::Inter,
                    "btree.h:999.store_x",
                    "btree.h:1.read_x",
                    "e",
                    300,
                ),
            ],
        );
        let c = classify(&r);
        assert_eq!(c.found(), 1);
        assert_eq!(c.bug_set_time(r.elapsed), Some(Duration::from_millis(200)));
        assert_eq!(c.unexpected.len(), 2, "{:?}", c.unexpected);
        assert!(c.unexpected[0].starts_with("FAST-FAIR:Hang"));
    }

    #[test]
    fn lockfree_rows_match_by_signature_and_the_pop_cas_variant_is_an_extra() {
        let r = report(
            "treiber-stack",
            vec![
                bug(
                    "treiber-stack",
                    BugKind::Inter,
                    "tstack.c:52.store_payload",
                    "tstack.c:86.read_payload",
                    "tstack.c:91.log_popped",
                    24,
                ),
                bug(
                    "treiber-stack",
                    BugKind::Inter,
                    "tstack.c:63.publish_top",
                    "tstack.c:74.read_top",
                    "tstack.c:89.log_pop_src",
                    30,
                ),
                bug(
                    "treiber-stack",
                    BugKind::Intra,
                    "tstack.c:81.pop_top",
                    "tstack.c:74.read_top",
                    "tstack.c:89.log_pop_src",
                    24,
                ),
            ],
        );
        let c = classify(&r);
        assert_eq!(c.found(), 2);
        assert_eq!(c.bug_set_time(r.elapsed), Some(Duration::from_millis(30)));
        assert_eq!(c.extras.len(), 1);
        assert!(c.unexpected.is_empty());

        // A planted row surfacing with an intra-thread kind still counts:
        // lock-free rows match the validated triple, as replay does.
        let h = report(
            "harris-list",
            vec![bug(
                "harris-list",
                BugKind::Intra,
                "hlist.c:88.mark",
                "hlist.c:65.read_marked",
                "hlist.c:70.log_unlink",
                24,
            )],
        );
        let c = classify(&h);
        let found: Vec<u32> = c.rows.iter().filter(|o| o.found).map(|o| o.id).collect();
        assert_eq!(found, vec![18]);
        assert_eq!(c.rows[1].found_after, Some(Duration::from_millis(24)));
        assert_eq!(c.bug_set_time(h.elapsed), Some(h.elapsed), "row 17 missed");
    }

    #[test]
    fn a_target_without_rows_has_no_bug_set_time() {
        let r = report("clevel", Vec::new());
        let c = classify(&r);
        assert!(c.rows.is_empty());
        assert_eq!(c.bug_set_time(r.elapsed), None);
    }
}
