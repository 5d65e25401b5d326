//! The versioned on-disk repro artifact.
//!
//! A [`Repro`] is everything needed to re-trigger one finding
//! deterministically: the target, the seed (text format), the campaign's
//! execution parameters, the captured schedule (strategy RNG seeds,
//! realized skips, released access order — all label-based), and the
//! signature of the bug the replay must re-produce.
//!
//! Artifacts are hand-rolled JSON (see [`crate::json`]) with an explicit
//! `version` field; loading rejects unknown versions instead of guessing,
//! so future format changes fail loudly on old binaries. 64-bit RNG seeds
//! are serialized as hex strings — JSON numbers are `f64` and would
//! silently corrupt seeds above 2^53.

use std::time::Duration;

use pmrace_core::schedule::{ScheduleCapture, StrategyCapture};
use pmrace_core::{BugKind, UniqueBug};
use pmrace_sched::SyncTuning;

use crate::json::{parse, Value};

/// Current artifact format version.
pub const REPRO_VERSION: u64 = 1;

/// What finding a replay must re-trigger to count as a match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BugSignature {
    /// Bug kind (`Inter`/`Intra`/`Sync`/`Hang`/`Perf`) or `Candidate` for
    /// candidate-only findings that never grew a durable side effect.
    pub kind: String,
    /// The dedup anchor: write label for inconsistencies, sync-variable
    /// name for sync bugs, empty for hangs.
    pub write_label: String,
    /// Racy read label; discriminates candidates and full triples.
    pub read_label: String,
    /// Durable-side-effect label. When set on an `Inter`/`Intra`
    /// signature, replay must re-trigger the exact `(write, read, effect)`
    /// triple — this is what keeps Table 2's bug 9 and bug 10 distinct
    /// even though the ledger dedups unique bugs by write site alone.
    pub effect_label: String,
}

impl BugSignature {
    /// Signature of a deduplicated unique bug.
    #[must_use]
    pub fn from_bug(bug: &UniqueBug) -> Self {
        BugSignature {
            kind: bug.kind.to_string(),
            write_label: bug.write_label.clone(),
            read_label: bug.read_label.clone(),
            effect_label: bug.effect_label.clone(),
        }
    }

    /// Signature of a validated `(write, read, effect)` inconsistency
    /// triple (`kind` is `Inter` or `Intra`).
    #[must_use]
    pub fn triple(kind: &str, write: &str, read: &str, effect: &str) -> Self {
        BugSignature {
            kind: kind.to_owned(),
            write_label: write.to_owned(),
            read_label: read.to_owned(),
            effect_label: effect.to_owned(),
        }
    }

    /// Signature of a candidate-only `(write, read)` pair.
    #[must_use]
    pub fn candidate(write_label: &str, read_label: &str) -> Self {
        BugSignature {
            kind: "Candidate".to_owned(),
            write_label: write_label.to_owned(),
            read_label: read_label.to_owned(),
            effect_label: String::new(),
        }
    }

    /// `true` when this signature is matched by the given ledger state.
    ///
    /// * Candidates match the `(write, read)` pair (or a bug it escalated
    ///   to).
    /// * Inconsistency signatures with an effect label match the exact
    ///   validated `(write, read, effect)` triple.
    /// * Everything else matches on `kind:write_label`, the ledger's own
    ///   dedup key (hangs on kind alone).
    #[must_use]
    pub fn matches(
        &self,
        bugs: &[UniqueBug],
        candidates: &[(String, String)],
        triples: &[(String, String, String)],
    ) -> bool {
        if self.kind == "Candidate" {
            // A candidate that *escalated* to an inconsistency bug on this
            // run still re-triggered the racy pair — count both.
            return candidates
                .iter()
                .any(|(w, r)| *w == self.write_label && *r == self.read_label)
                || bugs
                    .iter()
                    .any(|b| b.write_label == self.write_label && b.read_label == self.read_label);
        }
        // Only inconsistency findings live in the validated-triple list;
        // Sync/Hang bugs carry an effect label too but match by kind+var.
        if (self.kind == "Inter" || self.kind == "Intra") && !self.effect_label.is_empty() {
            return triples.iter().any(|(w, r, e)| {
                *w == self.write_label && *r == self.read_label && *e == self.effect_label
            });
        }
        bugs.iter().any(|b| {
            b.kind.to_string() == self.kind
                && (b.write_label == self.write_label || matches!(b.kind, BugKind::Hang))
        })
    }

    /// Stable human-readable key (also the repro store's directory name
    /// seed).
    #[must_use]
    pub fn key(&self) -> String {
        match self.kind.as_str() {
            "Hang" => "Hang".to_owned(),
            "Candidate" => format!("Candidate:{}:{}", self.write_label, self.read_label),
            kind @ ("Inter" | "Intra") if !self.effect_label.is_empty() => format!(
                "{kind}:{}:{}:{}",
                self.write_label, self.read_label, self.effect_label
            ),
            kind => format!("{kind}:{}", self.write_label),
        }
    }
}

/// One recorded access in the serialized schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSpec {
    /// `true` for a load.
    pub is_load: bool,
    /// Site label.
    pub site: String,
    /// Driver thread.
    pub tid: u32,
}

/// The serialized schedule, mirroring
/// [`StrategyCapture`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleSpec {
    /// No strategy: the bug reproduces from the seed alone.
    Free,
    /// Random delay injection.
    Delay {
        /// Maximum injected delay (µs).
        max_delay_us: u64,
        /// RNG seed the delay stream was drawn from.
        rng_seed: u64,
    },
    /// Round-robin serialization.
    Systematic {
        /// Accesses per turn.
        quantum: u32,
        /// Starting thread of the rotation.
        start: u32,
    },
    /// The Fig. 6 conditional-wait scheduler, pinned.
    Pmrace {
        /// Watched granule byte offset (advisory; replay re-resolves the
        /// granule from the recon campaign's shared accesses when needed).
        off: u64,
        /// Gated load-site labels.
        load_sites: Vec<String>,
        /// Signalling store-site labels.
        store_sites: Vec<String>,
        /// CAS-site labels whose failed attempts are stalled as retry
        /// decision points. Absent in pre-lock-free artifacts; parsing
        /// defaults to empty so the original corpus keeps loading.
        cas_sites: Vec<String>,
        /// Strategy RNG seed.
        rng_seed: u64,
        /// Realized initial skips per load-site label.
        skips: Vec<(String, u32)>,
        /// Released access order on the watched granule.
        events: Vec<EventSpec>,
        /// Whether the recorded log overflowed.
        truncated: bool,
    },
}

/// Campaign execution parameters of the recorded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Driver threads.
    pub threads: usize,
    /// Campaign deadline in microseconds.
    pub deadline_us: u64,
    /// eADR failure model.
    pub eadr: bool,
    /// Extra whitelist rules.
    pub extra_whitelist: Vec<String>,
    /// Scheduler timing knobs.
    pub tuning: SyncTuning,
}

/// A complete, self-contained repro artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Artifact format version ([`REPRO_VERSION`]).
    pub version: u64,
    /// Target system name.
    pub target: String,
    /// The finding this artifact re-triggers.
    pub signature: BugSignature,
    /// Human-readable bug description from the original detection.
    pub description: String,
    /// The seed, in [`Seed::to_text`](pmrace_core::Seed::to_text) format.
    pub seed_text: String,
    /// Campaign execution parameters.
    pub campaign: CampaignSpec,
    /// The captured schedule.
    pub schedule: ScheduleSpec,
}

impl Repro {
    /// Build an artifact from a capture plus the finding it exposed.
    #[must_use]
    pub fn from_capture(
        target: &str,
        signature: BugSignature,
        description: &str,
        seed_text: &str,
        capture: &ScheduleCapture,
    ) -> Self {
        let schedule = match &capture.strategy {
            StrategyCapture::None => ScheduleSpec::Free,
            StrategyCapture::Delay {
                max_delay_us,
                rng_seed,
            } => ScheduleSpec::Delay {
                max_delay_us: *max_delay_us,
                rng_seed: *rng_seed,
            },
            StrategyCapture::Systematic { quantum, start } => ScheduleSpec::Systematic {
                quantum: *quantum,
                start: *start,
            },
            StrategyCapture::Pmrace {
                plan,
                rng_seed,
                skips,
                events,
                truncated,
            } => ScheduleSpec::Pmrace {
                off: plan.off,
                load_sites: plan.load_sites.clone(),
                store_sites: plan.store_sites.clone(),
                cas_sites: plan.cas_sites.clone(),
                rng_seed: *rng_seed,
                skips: skips.clone(),
                events: events
                    .iter()
                    .map(|e| EventSpec {
                        is_load: e.is_load,
                        site: e.site.clone(),
                        tid: e.tid,
                    })
                    .collect(),
                truncated: *truncated,
            },
        };
        Repro {
            version: REPRO_VERSION,
            target: target.to_owned(),
            signature,
            description: description.to_owned(),
            seed_text: seed_text.to_owned(),
            campaign: CampaignSpec {
                threads: capture.threads,
                deadline_us: u64::try_from(capture.deadline.as_micros()).unwrap_or(u64::MAX),
                eadr: capture.eadr,
                extra_whitelist: capture.extra_whitelist.clone(),
                tuning: capture.tuning,
            },
            schedule,
        }
    }

    /// The recorded campaign deadline.
    #[must_use]
    pub fn deadline(&self) -> Duration {
        Duration::from_micros(self.campaign.deadline_us)
    }

    /// Serialize to the on-disk JSON format.
    #[must_use]
    pub fn to_json(&self) -> String {
        let tuning = &self.campaign.tuning;
        let schedule = match &self.schedule {
            ScheduleSpec::Free => Value::Obj(vec![kv_str("kind", "free")]),
            ScheduleSpec::Delay {
                max_delay_us,
                rng_seed,
            } => Value::Obj(vec![
                kv_str("kind", "delay"),
                kv_num("max_delay_us", *max_delay_us),
                kv_hex("rng_seed", *rng_seed),
            ]),
            ScheduleSpec::Systematic { quantum, start } => Value::Obj(vec![
                kv_str("kind", "systematic"),
                kv_num("quantum", u64::from(*quantum)),
                kv_num("start", u64::from(*start)),
            ]),
            ScheduleSpec::Pmrace {
                off,
                load_sites,
                store_sites,
                cas_sites,
                rng_seed,
                skips,
                events,
                truncated,
            } => Value::Obj(vec![
                kv_str("kind", "pmrace"),
                kv_num("off", *off),
                str_arr("load_sites", load_sites),
                str_arr("store_sites", store_sites),
                str_arr("cas_sites", cas_sites),
                kv_hex("rng_seed", *rng_seed),
                (
                    "skips".to_owned(),
                    Value::Arr(
                        skips
                            .iter()
                            .map(|(site, n)| {
                                Value::Obj(vec![
                                    kv_str("site", site),
                                    kv_num("count", u64::from(*n)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "events".to_owned(),
                    Value::Arr(
                        events
                            .iter()
                            .map(|e| {
                                Value::Obj(vec![
                                    ("load".to_owned(), Value::Bool(e.is_load)),
                                    kv_str("site", &e.site),
                                    kv_num("tid", u64::from(e.tid)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("truncated".to_owned(), Value::Bool(*truncated)),
            ]),
        };
        Value::Obj(vec![
            kv_num("version", self.version),
            kv_str("target", &self.target),
            (
                "signature".to_owned(),
                Value::Obj(vec![
                    kv_str("kind", &self.signature.kind),
                    kv_str("write", &self.signature.write_label),
                    kv_str("read", &self.signature.read_label),
                    kv_str("effect", &self.signature.effect_label),
                ]),
            ),
            kv_str("description", &self.description),
            kv_str("seed", &self.seed_text),
            (
                "campaign".to_owned(),
                Value::Obj(vec![
                    kv_num("threads", self.campaign.threads as u64),
                    kv_num("deadline_us", self.campaign.deadline_us),
                    ("eadr".to_owned(), Value::Bool(self.campaign.eadr)),
                    // Kept for format version 1: campaigns no longer run a
                    // cache-eviction agitator, so this is always 0.
                    kv_num("eviction_interval_us", 0),
                    str_arr("extra_whitelist", &self.campaign.extra_whitelist),
                    (
                        "tuning".to_owned(),
                        Value::Obj(vec![
                            kv_num(
                                "reader_poll_us",
                                u64::try_from(tuning.reader_poll.as_micros()).unwrap_or(u64::MAX),
                            ),
                            kv_num(
                                "writer_wait_us",
                                u64::try_from(tuning.writer_wait.as_micros()).unwrap_or(u64::MAX),
                            ),
                            kv_num("disable_iters", u64::from(tuning.disable_iters)),
                            kv_num("skip_jitter", u64::from(tuning.skip_jitter)),
                        ]),
                    ),
                ]),
            ),
            ("schedule".to_owned(), schedule),
        ])
        .pretty()
    }

    /// Parse an artifact, rejecting unknown format versions.
    ///
    /// # Errors
    ///
    /// Returns a message for syntax errors, missing fields, and version
    /// mismatches (forward compatibility fails loudly, never silently).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let version = doc
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("missing 'version'")?;
        if version != REPRO_VERSION {
            return Err(format!(
                "unsupported repro version {version} (this build reads version {REPRO_VERSION})"
            ));
        }
        let target = req_str(&doc, "target")?;
        let sig = doc.get("signature").ok_or("missing 'signature'")?;
        let signature = BugSignature {
            kind: req_str(sig, "kind")?,
            write_label: req_str(sig, "write")?,
            read_label: req_str(sig, "read")?,
            effect_label: req_str(sig, "effect")?,
        };
        let description = req_str(&doc, "description")?;
        let seed_text = req_str(&doc, "seed")?;

        let camp = doc.get("campaign").ok_or("missing 'campaign'")?;
        // Version-1 artifacts written before the draft became event-driven
        // also carry the draft budget's iteration count, a knob that no
        // longer exists; it is ignored.
        let tun = camp.get("tuning").ok_or("missing 'campaign.tuning'")?;
        let tuning = SyncTuning {
            reader_poll: Duration::from_micros(req_num(tun, "reader_poll_us")?),
            writer_wait: Duration::from_micros(req_num(tun, "writer_wait_us")?),
            disable_iters: req_u32(tun, "disable_iters")?,
            skip_jitter: req_u32(tun, "skip_jitter")?,
        };
        if req_num(camp, "eviction_interval_us")? != 0 {
            return Err(
                "'campaign.eviction_interval_us' is not 0: cache-eviction agitation is not supported"
                    .to_owned(),
            );
        }
        let campaign = CampaignSpec {
            threads: usize::try_from(req_num(camp, "threads")?)
                .map_err(|_| "bad 'campaign.threads'")?,
            deadline_us: req_num(camp, "deadline_us")?,
            eadr: camp
                .get("eadr")
                .and_then(Value::as_bool)
                .ok_or("missing 'campaign.eadr'")?,
            extra_whitelist: req_str_arr(camp, "extra_whitelist")?,
            tuning,
        };

        let sched = doc.get("schedule").ok_or("missing 'schedule'")?;
        let schedule = match req_str(sched, "kind")?.as_str() {
            "free" => ScheduleSpec::Free,
            "delay" => ScheduleSpec::Delay {
                max_delay_us: req_num(sched, "max_delay_us")?,
                rng_seed: req_hex(sched, "rng_seed")?,
            },
            "systematic" => ScheduleSpec::Systematic {
                quantum: req_u32(sched, "quantum")?,
                start: req_u32(sched, "start")?,
            },
            "pmrace" => {
                let skips = sched
                    .get("skips")
                    .and_then(Value::as_arr)
                    .ok_or("missing 'schedule.skips'")?
                    .iter()
                    .map(|s| Ok((req_str(s, "site")?, req_u32(s, "count")?)))
                    .collect::<Result<Vec<_>, String>>()?;
                let events = sched
                    .get("events")
                    .and_then(Value::as_arr)
                    .ok_or("missing 'schedule.events'")?
                    .iter()
                    .map(|e| {
                        Ok(EventSpec {
                            is_load: e
                                .get("load")
                                .and_then(Value::as_bool)
                                .ok_or("missing event 'load'")?,
                            site: req_str(e, "site")?,
                            tid: req_u32(e, "tid")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                ScheduleSpec::Pmrace {
                    off: req_num(sched, "off")?,
                    load_sites: req_str_arr(sched, "load_sites")?,
                    store_sites: req_str_arr(sched, "store_sites")?,
                    // Optional: artifacts recorded before CAS-retry-aware
                    // scheduling existed carry no cas_sites field.
                    cas_sites: if sched.get("cas_sites").is_some() {
                        req_str_arr(sched, "cas_sites")?
                    } else {
                        Vec::new()
                    },
                    rng_seed: req_hex(sched, "rng_seed")?,
                    skips,
                    events,
                    truncated: sched
                        .get("truncated")
                        .and_then(Value::as_bool)
                        .ok_or("missing 'schedule.truncated'")?,
                }
            }
            other => return Err(format!("unknown schedule kind '{other}'")),
        };

        Ok(Repro {
            version,
            target,
            signature,
            description,
            seed_text,
            campaign,
            schedule,
        })
    }
}

fn kv_str(key: &str, value: &str) -> (String, Value) {
    (key.to_owned(), Value::Str(value.to_owned()))
}

fn kv_num(key: &str, value: u64) -> (String, Value) {
    (key.to_owned(), Value::Num(value as f64))
}

fn kv_hex(key: &str, value: u64) -> (String, Value) {
    (key.to_owned(), Value::Str(format!("{value:#018x}")))
}

fn str_arr(key: &str, items: &[String]) -> (String, Value) {
    (
        key.to_owned(),
        Value::Arr(items.iter().map(|s| Value::Str(s.clone())).collect()),
    )
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing '{key}'"))
}

fn req_num(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing '{key}'"))
}

fn req_u32(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(req_num(v, key)?).map_err(|_| format!("'{key}' out of range"))
}

fn req_hex(v: &Value, key: &str) -> Result<u64, String> {
    let s = req_str(v, key)?;
    let digits = s.strip_prefix("0x").unwrap_or(&s);
    u64::from_str_radix(digits, 16).map_err(|_| format!("'{key}' is not a hex u64"))
}

fn req_str_arr(v: &Value, key: &str) -> Result<Vec<String>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing '{key}'"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("'{key}' has a non-string element"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Repro {
        Repro {
            version: REPRO_VERSION,
            target: "P-CLHT".to_owned(),
            signature: BugSignature {
                kind: "Inter".to_owned(),
                write_label: "clht_lb_res.c:785".to_owned(),
                read_label: "clht_lb_res.c:417".to_owned(),
                effect_label: String::new(),
            },
            description: "read non-persisted data".to_owned(),
            seed_text: "t0: insert 1=2; get 1\nt1: update 1=3\n".to_owned(),
            campaign: CampaignSpec {
                threads: 2,
                deadline_us: 400_000,
                eadr: false,
                extra_whitelist: vec!["rule".to_owned()],
                tuning: SyncTuning::default(),
            },
            schedule: ScheduleSpec::Pmrace {
                off: 640,
                load_sites: vec!["clht_lb_res.c:417".to_owned()],
                store_sites: vec!["clht_lb_res.c:785".to_owned()],
                cas_sites: vec!["clht_lb_res.c:700".to_owned()],
                // Above 2^53: would corrupt as a JSON number.
                rng_seed: 0xDEAD_BEEF_CAFE_F00D,
                skips: vec![("clht_lb_res.c:417".to_owned(), 3)],
                events: vec![
                    EventSpec {
                        is_load: false,
                        site: "clht_lb_res.c:785".to_owned(),
                        tid: 0,
                    },
                    EventSpec {
                        is_load: true,
                        site: "clht_lb_res.c:417".to_owned(),
                        tid: 1,
                    },
                ],
                truncated: false,
            },
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let repro = sample();
        let text = repro.to_json();
        let back = Repro::from_json(&text).unwrap();
        assert_eq!(back, repro);
    }

    #[test]
    fn artifacts_without_cas_sites_still_parse() {
        // The original corpus predates CAS-retry-aware scheduling; its
        // pmrace schedules have no cas_sites field and must load as empty.
        let rendered = {
            let mut s = sample();
            if let ScheduleSpec::Pmrace { cas_sites, .. } = &mut s.schedule {
                cas_sites.clear();
            }
            s.to_json()
        };
        let mut lines: Vec<&str> = rendered.lines().collect();
        let i = lines
            .iter()
            .position(|l| l.contains("cas_sites"))
            .expect("pmrace schedules serialize cas_sites");
        lines.remove(i); // empty arrays render inline: `"cas_sites": [],`
        let text = lines.join("\n");
        assert!(!text.contains("cas_sites"), "field must be gone: {text}");
        let back = Repro::from_json(&text).unwrap();
        match back.schedule {
            ScheduleSpec::Pmrace { cas_sites, .. } => assert!(cas_sites.is_empty()),
            other => panic!("expected pmrace schedule, got {other:?}"),
        }
    }

    #[test]
    fn unknown_versions_are_rejected_loudly() {
        let text = sample().to_json().replace(
            &format!("\"version\": {REPRO_VERSION}"),
            &format!("\"version\": {}", REPRO_VERSION + 1),
        );
        let err = Repro::from_json(&text).unwrap_err();
        assert!(err.contains("unsupported repro version"), "{err}");
        assert!(err.contains(&format!("{}", REPRO_VERSION + 1)), "{err}");
    }

    #[test]
    fn eviction_agitation_is_rejected() {
        let text = sample().to_json();
        assert!(text.contains("\"eviction_interval_us\": 0"), "{text}");
        let err = Repro::from_json(&text.replace(
            "\"eviction_interval_us\": 0",
            "\"eviction_interval_us\": 20",
        ))
        .unwrap_err();
        assert!(err.contains("eviction_interval_us"), "{err}");
    }

    #[test]
    fn a_retired_draft_budget_is_ignored() {
        // The checked-in corpus predates the event-driven draft: its tuning
        // objects carry a fifth key, the old pitfall-2 draft budget (20
        // `reader_poll` units). It loads, and re-serializing drops it.
        let text = include_str!("../../../repros/hang-add712d8.json");
        let tuning_keys = |t: &str| -> Vec<(String, Option<u64>)> {
            match parse(t)
                .unwrap()
                .get("campaign")
                .and_then(|c| c.get("tuning"))
            {
                Some(Value::Obj(kv)) => kv.iter().map(|(k, v)| (k.clone(), v.as_u64())).collect(),
                other => panic!("no tuning object: {other:?}"),
            }
        };
        let repro = Repro::from_json(text).unwrap();
        let rewritten = repro.to_json();
        let (before, after) = (tuning_keys(text), tuning_keys(&rewritten));
        let dropped: Vec<_> = before.iter().filter(|kv| !after.contains(kv)).collect();
        assert_eq!(dropped.len(), 1, "{before:?} -> {after:?}");
        assert_eq!(dropped[0].1, Some(20));
        assert_eq!(after.len(), 4, "{after:?}");
        assert_eq!(Repro::from_json(&rewritten).unwrap(), repro);
    }

    #[test]
    fn missing_fields_are_named_in_the_error() {
        let err = Repro::from_json(r#"{"version": 1, "target": "x"}"#).unwrap_err();
        assert!(err.contains("signature"), "{err}");
    }

    #[test]
    fn free_and_delay_schedules_roundtrip() {
        for schedule in [
            ScheduleSpec::Free,
            ScheduleSpec::Delay {
                max_delay_us: 50,
                rng_seed: u64::MAX,
            },
            ScheduleSpec::Systematic {
                quantum: 4,
                start: 3,
            },
        ] {
            let repro = Repro {
                schedule,
                ..sample()
            };
            assert_eq!(Repro::from_json(&repro.to_json()).unwrap(), repro);
        }
    }

    #[test]
    fn signature_matching_follows_ledger_keys() {
        let sig = sample().signature;
        let bug = UniqueBug {
            kind: BugKind::Inter,
            target: "P-CLHT",
            write_label: "clht_lb_res.c:785".to_owned(),
            read_label: "other".to_owned(),
            effect_label: String::new(),
            description: String::new(),
            verdict: pmrace_core::Verdict::Bug,
            found_after: Duration::ZERO,
            seed_text: None,
            trace_text: String::new(),
        };
        // Unique bugs group by kind + write label; the read may differ.
        assert!(sig.matches(std::slice::from_ref(&bug), &[], &[]));
        let cand_sig = BugSignature::candidate("w", "r");
        assert!(!cand_sig.matches(&[bug], &[], &[]));
        assert!(cand_sig.matches(&[], &[("w".to_owned(), "r".to_owned())], &[]));
        assert_eq!(cand_sig.key(), "Candidate:w:r");
        assert_eq!(sig.key(), "Inter:clht_lb_res.c:785");
    }

    #[test]
    fn triple_signatures_discriminate_by_effect_site() {
        // Table 2's bugs 9 and 10 share write and read sites and differ
        // only in the durable effect; their signatures must stay distinct
        // and match only their own validated triple.
        let bug9 = BugSignature::triple("Inter", "w.c:4292", "m.c:2805", "m.c:4292");
        let bug10 = BugSignature::triple("Inter", "w.c:4292", "m.c:2805", "m.c:4293");
        assert_ne!(bug9.key(), bug10.key());
        let triples = vec![(
            "w.c:4292".to_owned(),
            "m.c:2805".to_owned(),
            "m.c:4293".to_owned(),
        )];
        assert!(!bug9.matches(&[], &[], &triples));
        assert!(bug10.matches(&[], &[], &triples));
    }
}
