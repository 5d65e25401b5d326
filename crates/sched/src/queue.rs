//! Priority queue of shared PM data accesses (§4.2.2).
//!
//! Entries are addresses (granules) of global PM data accessed by several
//! threads with both loads and stores, prioritized by access frequency —
//! "hot shared data" is where non-persistency tends to cause crash
//! inconsistencies. The fuzzer fetches one unexplored entry per
//! interleaving-tier step and builds a [`SyncPlan`](crate::SyncPlan) from
//! it.

use std::collections::{HashMap, HashSet};

use pmrace_runtime::session::SharedAccesses;
use pmrace_runtime::Site;

/// One queue entry: a shared PM address with its load and store
/// instructions.
#[derive(Debug, Clone)]
pub struct QueueEntry {
    /// Byte offset of the shared granule.
    pub off: u64,
    /// Load instructions observed at this address (the sync points).
    pub load_sites: Vec<Site>,
    /// Store instructions observed at this address (the signallers).
    pub store_sites: Vec<Site>,
    /// CAS instructions observed at this address (retry decision points:
    /// a failed attempt lets the scheduler stall the retry loop).
    pub cas_sites: Vec<Site>,
    /// Priority: total access count across campaigns.
    pub priority: u32,
}

/// Emptied entries an [`AccessQueue`] keeps for reuse.
const SPARE_ENTRIES: usize = 1024;

/// Frequency-ordered queue of shared accesses with explored-set tracking.
#[derive(Debug, Default)]
pub struct AccessQueue {
    entries: HashMap<u64, QueueEntry>,
    explored: HashSet<u64>,
    /// Entries emptied by [`AccessQueue::reset_explored`], reused by
    /// [`AccessQueue::merge`] so rebuilding the queue for the next seed
    /// allocates no site lists.
    spare: Vec<QueueEntry>,
}

impl AccessQueue {
    /// Empty queue.
    #[must_use]
    pub fn new() -> Self {
        AccessQueue::default()
    }

    /// Merge shared-access statistics from a finished campaign, adding new
    /// addresses and bumping priorities/instruction sets of known ones.
    pub fn merge(&mut self, shared: &SharedAccesses) {
        for e in shared.iter() {
            let spare = &mut self.spare;
            let entry = self.entries.entry(e.off).or_insert_with(|| {
                let mut entry = spare.pop().unwrap_or_else(|| QueueEntry {
                    off: 0,
                    load_sites: Vec::new(),
                    store_sites: Vec::new(),
                    cas_sites: Vec::new(),
                    priority: 0,
                });
                entry.off = e.off;
                entry
            });
            entry.priority = entry.priority.saturating_add(e.total);
            for &(s, _) in e.load_sites {
                if !entry.load_sites.contains(&s) {
                    entry.load_sites.push(s);
                }
            }
            for &(s, _) in e.store_sites {
                if !entry.store_sites.contains(&s) {
                    entry.store_sites.push(s);
                }
            }
            for &(s, _) in e.cas_sites {
                if !entry.cas_sites.contains(&s) {
                    entry.cas_sites.push(s);
                }
            }
        }
    }

    /// Fetch the hottest entry not yet explored, marking it explored.
    pub fn pop_unexplored(&mut self) -> Option<QueueEntry> {
        let best = self
            .entries
            .values()
            .filter(|e| !self.explored.contains(&e.off))
            .max_by_key(|e| (e.priority, std::cmp::Reverse(e.off)))?
            .clone();
        self.explored.insert(best.off);
        Some(best)
    }

    /// Forget exploration state (used when switching seeds — the paper
    /// reconstructs the priority queue at the seed tier).
    pub fn reset_explored(&mut self) {
        self.explored.clear();
        for (_, mut entry) in self.entries.drain() {
            if self.spare.len() == SPARE_ENTRIES {
                break;
            }
            entry.load_sites.clear();
            entry.store_sites.clear();
            entry.cas_sites.clear();
            entry.priority = 0;
            self.spare.push(entry);
        }
    }

    /// Number of known shared addresses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no shared addresses are known.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries not yet explored.
    #[must_use]
    pub fn unexplored(&self) -> usize {
        self.entries
            .keys()
            .filter(|off| !self.explored.contains(off))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmrace_runtime::site;

    fn shared(entries: &[(u64, Site, Site, u32)]) -> SharedAccesses {
        let mut out = SharedAccesses::new();
        for &(off, load, store, total) in entries {
            out.push(
                off,
                &[(load, total / 2)],
                &[(store, total - total / 2)],
                &[],
                2,
            );
        }
        out
    }

    #[test]
    fn pops_hottest_first_and_marks_explored() {
        let mut q = AccessQueue::new();
        q.merge(&shared(&[
            (64, site!("l1"), site!("s1"), 10),
            (128, site!("l2"), site!("s2"), 50),
        ]));
        assert_eq!(q.len(), 2);
        assert_eq!(q.unexplored(), 2);
        assert_eq!(q.pop_unexplored().unwrap().off, 128);
        assert_eq!(q.pop_unexplored().unwrap().off, 64);
        assert!(q.pop_unexplored().is_none());
        assert_eq!(q.unexplored(), 0);
    }

    #[test]
    fn merge_accumulates_priority_and_sites() {
        let mut q = AccessQueue::new();
        let (l1, l2, s1) = (site!("la"), site!("lb"), site!("sa"));
        q.merge(&shared(&[(64, l1, s1, 10)]));
        q.merge(&shared(&[(64, l2, s1, 5)]));
        let e = q.pop_unexplored().unwrap();
        assert_eq!(e.priority, 15);
        assert_eq!(e.load_sites.len(), 2);
        assert_eq!(e.store_sites.len(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut q = AccessQueue::new();
        q.merge(&shared(&[(64, site!("lr"), site!("sr"), 1)]));
        let _ = q.pop_unexplored();
        q.reset_explored();
        assert!(q.is_empty());
        assert!(q.pop_unexplored().is_none());
    }
}
