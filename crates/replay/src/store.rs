//! On-disk store of repro artifacts, keyed by bug signature.
//!
//! One artifact per signature: the file name is the sanitized signature key
//! plus a short hash of the exact key (two signatures that sanitize to the
//! same slug still get distinct files). This is what makes the store a
//! *regression corpus*: re-finding a known bug does not add files, and
//! minimization replaces an artifact in place.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use pmrace_runtime::RtError;

use crate::artifact::{BugSignature, Repro};

/// A directory of `*.json` repro artifacts.
#[derive(Debug, Clone)]
pub struct ReproStore {
    dir: PathBuf,
}

impl ReproStore {
    /// Open (creating if needed) a repro store directory.
    ///
    /// # Errors
    ///
    /// [`RtError::Io`] with the filesystem cause.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, RtError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| RtError::Io(format!("repro store {}: {e}", dir.display())))?;
        Ok(ReproStore { dir })
    }

    /// The store's directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The file an artifact with this signature lives at.
    #[must_use]
    pub fn path_for(&self, sig: &BugSignature) -> PathBuf {
        let key = sig.key();
        let slug: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect::<String>()
            .split('-')
            .filter(|p| !p.is_empty())
            .collect::<Vec<_>>()
            .join("-");
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let slug = &slug[..slug.len().min(64)];
        self.dir
            .join(format!("{slug}-{:08x}.json", h.finish() as u32))
    }

    /// `true` when an artifact with this signature is already stored.
    #[must_use]
    pub fn contains(&self, sig: &BugSignature) -> bool {
        self.path_for(sig).exists()
    }

    /// Write (or replace) the artifact for its signature; returns the path.
    ///
    /// # Errors
    ///
    /// [`RtError::Io`] with the filesystem cause.
    pub fn save(&self, repro: &Repro) -> Result<PathBuf, RtError> {
        let path = self.path_for(&repro.signature);
        std::fs::write(&path, repro.to_json())
            .map_err(|e| RtError::Io(format!("repro save {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Load one artifact file.
    ///
    /// # Errors
    ///
    /// [`RtError::Io`] for filesystem failures *and* parse/version errors
    /// (both mean "this artifact is unusable", with the cause attached).
    pub fn load(path: &Path) -> Result<Repro, RtError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| RtError::Io(format!("repro load {}: {e}", path.display())))?;
        Repro::from_json(&text)
            .map_err(|e| RtError::Io(format!("repro parse {}: {e}", path.display())))
    }

    /// Load every `*.json` artifact in the store, sorted by file name.
    /// Unlike the seed corpus, unparsable artifacts are *errors* — a
    /// regression corpus must not silently shrink.
    ///
    /// # Errors
    ///
    /// [`RtError::Io`] with the first failing path and cause.
    pub fn load_all(&self) -> Result<Vec<(PathBuf, Repro)>, RtError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .map_err(|e| RtError::Io(format!("repro list {}: {e}", self.dir.display())))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        paths
            .into_iter()
            .map(|p| Self::load(&p).map(|r| (p, r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{CampaignSpec, ScheduleSpec, REPRO_VERSION};
    use pmrace_sched::SyncTuning;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pmrace-repros-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn repro(kind: &str, write: &str) -> Repro {
        Repro {
            version: REPRO_VERSION,
            target: "P-CLHT".to_owned(),
            signature: BugSignature {
                kind: kind.to_owned(),
                write_label: write.to_owned(),
                read_label: String::new(),
                effect_label: String::new(),
            },
            description: "d".to_owned(),
            seed_text: "t0: get 1\n".to_owned(),
            campaign: CampaignSpec {
                threads: 1,
                deadline_us: 1000,
                eadr: false,
                extra_whitelist: Vec::new(),
                tuning: SyncTuning::default(),
            },
            schedule: ScheduleSpec::Free,
        }
    }

    #[test]
    fn save_is_keyed_by_signature_and_replaces() {
        let dir = tmpdir("keyed");
        let store = ReproStore::open(&dir).unwrap();
        let a = repro("Inter", "file.c:1");
        assert!(!store.contains(&a.signature));
        let p1 = store.save(&a).unwrap();
        assert!(store.contains(&a.signature));
        // Same signature, different content: replaced in place.
        let mut smaller = a.clone();
        smaller.seed_text = "t0: get 2\n".to_owned();
        let p2 = store.save(&smaller).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(store.load_all().unwrap().len(), 1);
        assert_eq!(store.load_all().unwrap()[0].1, smaller);
        // A different signature gets its own file.
        store.save(&repro("Intra", "file.c:2")).unwrap();
        assert_eq!(store.load_all().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_all_fails_loudly_on_corrupt_artifacts() {
        let dir = tmpdir("corrupt");
        let store = ReproStore::open(&dir).unwrap();
        store.save(&repro("Inter", "x")).unwrap();
        std::fs::write(dir.join("broken.json"), "not json").unwrap();
        let err = store.load_all().unwrap_err();
        assert!(
            matches!(err, RtError::Io(ref m) if m.contains("broken.json")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filenames_are_readable_slugs() {
        let dir = tmpdir("slug");
        let store = ReproStore::open(&dir).unwrap();
        let path = store.path_for(&BugSignature {
            kind: "Inter".to_owned(),
            write_label: "clht_lb_res.c:785".to_owned(),
            read_label: String::new(),
            effect_label: String::new(),
        });
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("inter-clht-lb-res-c-785-"), "{name}");
        assert!(name.ends_with(".json"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
