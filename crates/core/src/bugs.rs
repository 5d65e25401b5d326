//! Unique-bug deduplication and evaluation statistics (§6.2, §6.3).
//!
//! A *unique bug* groups detections by the store instruction that wrote the
//! non-persisted data (inter/intra) or by the synchronization variable
//! (sync), as in the paper. The [`Ledger`] ingests campaign results,
//! validates each new detection once (post-failure), and accumulates every
//! number Tables 2/3/5/6 report plus the Fig. 8 detection timeline.

use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

use pmrace_api::TargetSpec;
use pmrace_runtime::report::CandidateKind;
use pmrace_runtime::site_label;

use crate::campaign::CampaignResult;
use crate::validate::{validate_inconsistency, validate_sync, Verdict};

/// Bug classification, matching Table 2's "Type" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BugKind {
    /// PM Inter-thread Inconsistency (PM Interleaving Concurrency Bug).
    Inter,
    /// PM Synchronization Inconsistency (PM Execution Context Bug).
    Sync,
    /// PM Intra-thread Inconsistency.
    Intra,
    /// Hang observed during fuzzing (DRAM-style concurrency bug).
    Hang,
    /// Performance issue from an extension checker.
    Perf,
}

impl std::fmt::Display for BugKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BugKind::Inter => "Inter",
            BugKind::Sync => "Sync",
            BugKind::Intra => "Intra",
            BugKind::Hang => "Hang",
            BugKind::Perf => "Perf",
        };
        f.write_str(s)
    }
}

/// One deduplicated bug with its report fields (Table 2 row).
#[derive(Debug, Clone)]
pub struct UniqueBug {
    /// Classification.
    pub kind: BugKind,
    /// Target system name.
    pub target: &'static str,
    /// "Write code": label of the store that produced non-persisted data
    /// (or the sync variable / hang site).
    pub write_label: String,
    /// "Read code": label of the racy read (empty for sync/hang).
    pub read_label: String,
    /// Durable-side-effect site label (empty for sync/hang).
    pub effect_label: String,
    /// Human-readable description.
    pub description: String,
    /// Post-failure verdict that promoted this to a bug.
    pub verdict: Verdict,
    /// Fuzzing time at first detection.
    pub found_after: Duration,
    /// The seed of the campaign that first exposed the bug (rendered with
    /// [`Seed::to_text`](crate::Seed::to_text)), attached to reports so the
    /// finding can be replayed.
    pub seed_text: Option<String>,
    /// Recent PM access history at the detection point (rendered), the
    /// report's stack-trace analog. Empty when unavailable.
    pub trace_text: String,
}

impl std::fmt::Display for UniqueBug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}][{}] {} (write: {}, read: {}, effect: {}; {:?} after {:?})",
            self.target,
            self.kind,
            self.description,
            self.write_label,
            self.read_label,
            self.effect_label,
            self.verdict,
            self.found_after,
        )
    }
}

/// What one [`Ledger::ingest`] call added: the *new* unique findings of
/// that campaign, after deduplication. The fuzzer's record hook uses this
/// to auto-record a repro artifact exactly once per unique bug.
#[derive(Debug, Clone, Default)]
pub struct IngestDelta {
    /// Unique bugs first seen in this campaign.
    pub new_bugs: Vec<UniqueBug>,
    /// Candidate `(write label, read label)` pairs first seen in this
    /// campaign. Candidates never promoted to inconsistencies are findings
    /// in their own right (the paper's "Other" pool, e.g. P-CLHT's
    /// redundant PM write), so repros cover them too.
    pub new_candidates: Vec<(String, String)>,
}

impl IngestDelta {
    /// `true` when the campaign contributed nothing new.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.new_bugs.is_empty() && self.new_candidates.is_empty()
    }
}

/// Aggregate detection statistics — the raw material of Tables 3 and 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionStats {
    /// Unique PM Inter-thread Inconsistency Candidates.
    pub inter_candidates: usize,
    /// Unique PM Intra-thread Inconsistency Candidates.
    pub intra_candidates: usize,
    /// Unique PM Inter-thread Inconsistencies (pre-failure detections).
    pub inter: usize,
    /// Unique PM Intra-thread Inconsistencies.
    pub intra: usize,
    /// Inter/intra false positives filtered by post-failure validation.
    pub validated_fp: usize,
    /// Inter/intra false positives filtered by the whitelist.
    pub whitelisted_fp: usize,
    /// Sync-var annotations present on the target.
    pub annotations: usize,
    /// Unique PM Synchronization Inconsistencies detected.
    pub sync: usize,
    /// Sync false positives filtered by post-failure validation.
    pub sync_validated_fp: usize,
    /// Campaigns that ended in a hang.
    pub hangs: usize,
    /// Extension-checker performance issues (unique).
    pub perf_issues: usize,
    /// Campaigns ingested.
    pub campaigns: usize,
}

/// Deduplicating bug ledger for one target.
#[derive(Debug)]
pub struct Ledger {
    spec: TargetSpec,
    stats: DetectionStats,
    cand_index: HashSet<(String, String, CandidateKind)>,
    incons_index: HashSet<(String, String, String)>,
    sync_index: HashSet<String>,
    perf_index: HashSet<(String, String)>,
    hang_seen: bool,
    bugs: BTreeMap<String, UniqueBug>,
    inter_times: Vec<Duration>,
    bug_triples: Vec<(String, String, String)>,
}

impl Ledger {
    /// Empty ledger for a target.
    #[must_use]
    pub fn new(spec: TargetSpec) -> Self {
        Ledger {
            spec,
            stats: DetectionStats::default(),
            cand_index: HashSet::new(),
            incons_index: HashSet::new(),
            sync_index: HashSet::new(),
            perf_index: HashSet::new(),
            hang_seen: false,
            bugs: BTreeMap::new(),
            inter_times: Vec::new(),
            bug_triples: Vec::new(),
        }
    }

    /// The target this ledger tracks.
    #[must_use]
    pub fn target(&self) -> &'static str {
        self.spec.name
    }

    /// Ingest one campaign's findings: dedupe, validate new detections,
    /// update statistics. `elapsed` is total fuzzing time at campaign end
    /// (for the Fig. 8 timeline). Returns what was *new* in this campaign.
    pub fn ingest(&mut self, result: &CampaignResult, elapsed: Duration) -> IngestDelta {
        self.ingest_with_seed(result, elapsed, None)
    }

    /// [`Ledger::ingest`] with the campaign's seed attached: new unique
    /// bugs carry it in their reports for replay.
    ///
    /// One pass: dedup against the ledger's indices, post-failure
    /// validation of each new inconsistency and sync record (in input
    /// order, so the recovery runs and minted bugs are the same whoever
    /// calls), then bug minting. A fleet calls this under its one
    /// `Mutex<Ledger>`; validation is cheap enough to run there (O(dirty)
    /// recovery-pool resets, memoized verdicts). A campaign that carries
    /// nothing new — no new candidate, inconsistency or sync signature, no
    /// new perf `(checker, site)` key and no first hang, the common case
    /// once a run has warmed up — returns right after the campaign, hang
    /// and annotation tallies.
    pub fn ingest_with_seed(
        &mut self,
        result: &CampaignResult,
        elapsed: Duration,
        seed: Option<&crate::Seed>,
    ) -> IngestDelta {
        let mut delta = IngestDelta::default();
        self.stats.campaigns += 1;
        self.stats.annotations = self.stats.annotations.max(result.annotations);

        for cand in &result.findings.candidates {
            let w = site_label(cand.write_site).to_owned();
            let r = site_label(cand.read_site).to_owned();
            let key = (w.clone(), r.clone(), cand.kind);
            if self.cand_index.insert(key) {
                match cand.kind {
                    CandidateKind::Inter => self.stats.inter_candidates += 1,
                    CandidateKind::Intra => self.stats.intra_candidates += 1,
                }
                delta.new_candidates.push((w, r));
            }
        }

        let mut new_incons = Vec::new();
        for rec in &result.findings.inconsistencies {
            let w = site_label(rec.candidate.write_site).to_owned();
            let r = site_label(rec.candidate.read_site).to_owned();
            let e = site_label(rec.effect_site).to_owned();
            if !self.incons_index.insert((w, r, e)) {
                continue;
            }
            match rec.candidate.kind {
                CandidateKind::Inter => {
                    self.stats.inter += 1;
                    self.inter_times.push(elapsed);
                }
                CandidateKind::Intra => self.stats.intra += 1,
            }
            new_incons.push(rec);
        }

        let mut new_syncs = Vec::new();
        for upd in &result.findings.sync_updates {
            if self.sync_index.insert(upd.var_name.clone()) {
                self.stats.sync += 1;
                new_syncs.push(upd);
            }
        }

        let findings = &result.findings;
        let nothing_new = delta.new_candidates.is_empty()
            && new_incons.is_empty()
            && new_syncs.is_empty()
            && (self.hang_seen || !findings.hang)
            && findings.perf_issues.iter().all(|issue| {
                let key = (issue.checker.to_owned(), site_label(issue.site).to_owned());
                self.perf_index.contains(&key)
            });
        if nothing_new {
            if findings.hang {
                self.stats.hangs += 1;
            }
            return delta;
        }

        let seed_text = seed.map(crate::Seed::to_text);
        // Write sites that published via CAS (lock-free targets): their
        // reports call out the publication mechanism, since the racy window
        // sits between the successful CAS and the missing flush.
        let cas_writers: HashSet<u32> = result
            .shared
            .iter()
            .flat_map(|e| e.cas_sites.iter().map(|&(s, _)| s.id()))
            .collect();

        for rec in new_incons {
            let verdict = validate_inconsistency(&self.spec, rec);
            let w = site_label(rec.candidate.write_site).to_owned();
            let r = site_label(rec.candidate.read_site).to_owned();
            let e = site_label(rec.effect_site).to_owned();
            match verdict {
                Verdict::ValidatedFp => self.stats.validated_fp += 1,
                Verdict::WhitelistedFp => self.stats.whitelisted_fp += 1,
                Verdict::Bug | Verdict::Unvalidated => {
                    self.bug_triples.push((w.clone(), r.clone(), e.clone()));
                    let kind = match rec.candidate.kind {
                        CandidateKind::Inter => BugKind::Inter,
                        CandidateKind::Intra => BugKind::Intra,
                    };
                    // Unique bugs group by the writing store instruction.
                    let bug_key = format!("{kind}:{w}");
                    if !self.bugs.contains_key(&bug_key) {
                        let trace_text = pmrace_runtime::trace::render_trace(&rec.trace);
                        let bug = UniqueBug {
                            kind,
                            target: self.spec.name,
                            write_label: w.clone(),
                            read_label: r.clone(),
                            effect_label: e.clone(),
                            description: format!(
                                "read non-persisted data {}written at {w}, durable side effect ({}) at {e}",
                                if cas_writers.contains(&rec.candidate.write_site.id()) {
                                    "CAS-published "
                                } else {
                                    ""
                                },
                                rec.kind
                            ),
                            verdict,
                            found_after: elapsed,
                            seed_text: seed_text.clone(),
                            trace_text,
                        };
                        delta.new_bugs.push(bug.clone());
                        self.bugs.insert(bug_key, bug);
                    }
                }
            }
        }

        for upd in new_syncs {
            let verdict = validate_sync(&self.spec, upd);
            match verdict {
                Verdict::ValidatedFp => self.stats.sync_validated_fp += 1,
                Verdict::WhitelistedFp => self.stats.sync_validated_fp += 1,
                Verdict::Bug | Verdict::Unvalidated => {
                    let bug_key = format!("Sync:{}", upd.var_name);
                    let desc = format!(
                        "persistent sync var '{}' not restored to {} after recovery",
                        upd.var_name, upd.expected_init
                    );
                    if !self.bugs.contains_key(&bug_key) {
                        let bug = UniqueBug {
                            kind: BugKind::Sync,
                            target: self.spec.name,
                            write_label: upd.var_name.clone(),
                            read_label: String::new(),
                            effect_label: site_label(upd.store_site).to_owned(),
                            description: desc,
                            verdict,
                            found_after: elapsed,
                            seed_text: seed_text.clone(),
                            trace_text: String::new(),
                        };
                        delta.new_bugs.push(bug.clone());
                        self.bugs.insert(bug_key, bug);
                    }
                }
            }
        }

        for issue in &result.findings.perf_issues {
            let key = (issue.checker.to_owned(), site_label(issue.site).to_owned());
            if self.perf_index.insert(key) {
                self.stats.perf_issues += 1;
                let bug_key = format!("Perf:{}:{}", issue.checker, site_label(issue.site));
                if !self.bugs.contains_key(&bug_key) {
                    let bug = UniqueBug {
                        kind: BugKind::Perf,
                        target: self.spec.name,
                        write_label: site_label(issue.site).to_owned(),
                        read_label: String::new(),
                        effect_label: String::new(),
                        description: issue.what.clone(),
                        verdict: Verdict::Bug,
                        found_after: elapsed,
                        seed_text: seed_text.clone(),
                        trace_text: String::new(),
                    };
                    delta.new_bugs.push(bug.clone());
                    self.bugs.insert(bug_key, bug);
                }
            }
        }

        if result.findings.hang {
            self.stats.hangs += 1;
            if !self.hang_seen {
                self.hang_seen = true;
                let bug = UniqueBug {
                    kind: BugKind::Hang,
                    target: self.spec.name,
                    write_label: String::new(),
                    read_label: String::new(),
                    effect_label: String::new(),
                    description: "campaign hang: threads blocked past the deadline \
                                  (lock leak or missing signal)"
                        .to_owned(),
                    verdict: Verdict::Bug,
                    found_after: elapsed,
                    seed_text: seed_text.clone(),
                    trace_text: String::new(),
                };
                delta.new_bugs.push(bug.clone());
                self.bugs.insert("Hang".to_owned(), bug);
            }
        }
        delta
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DetectionStats {
        self.stats
    }

    /// All unique bugs, ordered by dedup key.
    #[must_use]
    pub fn bugs(&self) -> Vec<&UniqueBug> {
        self.bugs.values().collect()
    }

    /// Unique-bug count per kind (Table 5 columns).
    #[must_use]
    pub fn bug_counts(&self) -> BTreeMap<BugKind, usize> {
        let mut out = BTreeMap::new();
        for b in self.bugs.values() {
            *out.entry(b.kind).or_insert(0) += 1;
        }
        out
    }

    /// Unique candidate pairs `(write label, read label)` that never grew a
    /// durable side effect — the pool the paper's "Other" findings (e.g.
    /// P-CLHT's redundant PM write) are drawn from.
    #[must_use]
    pub fn candidate_only_pairs(&self) -> Vec<(String, String)> {
        self.cand_index
            .iter()
            .filter(|(w, r, _)| {
                !self
                    .incons_index
                    .iter()
                    .any(|(iw, ir, _)| iw == w && ir == r)
            })
            .map(|(w, r, _)| (w.clone(), r.clone()))
            .collect()
    }

    /// Fuzzing times at which each new unique inter-thread inconsistency
    /// was first identified (Fig. 8 series).
    #[must_use]
    pub fn inter_detection_times(&self) -> &[Duration] {
        &self.inter_times
    }

    /// All `(write, read, effect)` label triples that survived validation
    /// as bugs — the raw material for mapping findings onto the paper's
    /// Table 2 rows.
    #[must_use]
    pub fn bug_triples(&self) -> &[(String, String, String)] {
        &self.bug_triples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig, PoolStart};
    use crate::seed::Seed;
    use pmrace_targets::{target_spec, Op};

    #[test]
    fn ledger_dedups_across_campaigns() {
        let spec = target_spec("clevel").unwrap();
        let mut ledger = Ledger::new(spec);
        let seed = Seed::from_flat(&[Op::Insert { key: 1, value: 1 }], 1);
        for i in 0..3 {
            let res = run_campaign(
                &spec,
                &seed,
                &CampaignConfig::default(),
                None,
                PoolStart::Spare,
            )
            .unwrap();
            ledger.ingest(&res, Duration::from_millis(i * 10));
        }
        let s = ledger.stats();
        assert_eq!(s.campaigns, 3);
        // Construction inconsistencies are whitelisted and counted once.
        assert!(s.whitelisted_fp >= 1);
        assert!(
            ledger.bugs().is_empty(),
            "clevel has no bugs: {:?}",
            ledger.bugs()
        );
    }

    #[test]
    fn pclht_resize_workload_yields_intra_bug_and_sync_split() {
        let spec = target_spec("P-CLHT").unwrap();
        let mut ledger = Ledger::new(spec);
        let ops: Vec<Op> = (1..=130u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let seed = Seed::from_flat(&ops, 1);
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let res = run_campaign(&spec, &seed, &cfg, None, PoolStart::Spare).unwrap();
        ledger.ingest(&res, Duration::from_secs(1));
        let s = ledger.stats();
        assert_eq!(s.annotations, 4);
        assert!(s.sync >= 2, "resize path touches several sync vars: {s:?}");
        assert!(s.sync_validated_fp >= 1, "global locks reinit: {s:?}");
        let counts = ledger.bug_counts();
        assert!(
            counts.get(&BugKind::Intra).copied().unwrap_or(0) >= 1,
            "{counts:?}"
        );
        assert!(
            counts.get(&BugKind::Sync).copied().unwrap_or(0) >= 1,
            "{counts:?}"
        );
    }

    #[test]
    fn ingest_delta_reports_only_new_findings() {
        let spec = target_spec("P-CLHT").unwrap();
        let mut ledger = Ledger::new(spec);
        let ops: Vec<Op> = (1..=130u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let res = run_campaign(
            &spec,
            &Seed::from_flat(&ops, 1),
            &cfg,
            None,
            PoolStart::Spare,
        )
        .unwrap();
        let first = ledger.ingest(&res, Duration::ZERO);
        assert!(!first.new_bugs.is_empty(), "resize workload finds bugs");
        assert!(!first.new_candidates.is_empty());
        // Re-ingesting the identical findings adds nothing.
        let second = ledger.ingest(&res, Duration::from_secs(1));
        assert!(second.is_empty(), "{second:?}");
    }

    #[test]
    fn candidate_only_pairs_exclude_inconsistent_ones() {
        let spec = target_spec("P-CLHT").unwrap();
        let mut ledger = Ledger::new(spec);
        let ops: Vec<Op> = (1..=130u64)
            .map(|k| Op::Insert { key: k, value: k })
            .collect();
        let cfg = CampaignConfig {
            threads: 1,
            deadline: Duration::from_secs(5),
            ..CampaignConfig::default()
        };
        let res = run_campaign(
            &spec,
            &Seed::from_flat(&ops, 1),
            &cfg,
            None,
            PoolStart::Spare,
        )
        .unwrap();
        ledger.ingest(&res, Duration::ZERO);
        for (w, r) in ledger.candidate_only_pairs() {
            assert!(
                !ledger
                    .incons_index
                    .contains(&(w.clone(), r.clone(), String::new())),
                "pair ({w}, {r}) leaked"
            );
        }
    }
}
