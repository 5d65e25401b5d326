//! Access-trace recording: the event history attached to bug reports.
//!
//! The paper's reports carry stack traces; since our instruction sites are
//! already symbolic, the equivalent diagnostic is the *recent PM event
//! history* around a detection — which thread did what, in which order,
//! right before the inconsistency. The session keeps per-thread bounded
//! rings ([`TraceBuffers`]) stamped from one global sequence counter, and a
//! detection merges them into the snapshot attached to each
//! [`InconsistencyRecord`](crate::report::InconsistencyRecord). Per-thread
//! rings mean concurrent target threads append to disjoint locks instead of
//! serializing on one shared ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use pmrace_pmem::ThreadId;

use crate::{site_label, Site};

/// Kind of PM access in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Regular load.
    Load,
    /// Regular (cached) store.
    Store,
    /// Non-temporal store.
    NtStore,
    /// Cache-line write-back.
    Clwb,
    /// Store fence.
    Sfence,
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TraceKind::Load => "load",
            TraceKind::Store => "store",
            TraceKind::NtStore => "ntstore",
            TraceKind::Clwb => "clwb",
            TraceKind::Sfence => "sfence",
        };
        f.write_str(s)
    }
}

/// One recorded PM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic index within the session.
    pub seq: u64,
    /// Executing thread.
    pub tid: ThreadId,
    /// Access kind.
    pub kind: TraceKind,
    /// Instruction site.
    pub site: Site,
    /// Pool offset (0 for `sfence`).
    pub off: u64,
    /// Access length in bytes (0 for `sfence`).
    pub len: usize,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{:<5} {} {:<7} {:#08x}+{:<3} {}",
            self.seq,
            self.tid,
            self.kind,
            self.off,
            self.len,
            site_label(self.site),
        )
    }
}

/// Bounded ring of recent PM events.
#[derive(Debug)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
}

impl TraceRing {
    /// Ring holding at most `capacity` events (0 disables recording).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_seq: 0,
        }
    }

    /// `true` when recording is disabled.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Empty the ring and restart its sequence, keeping the buffer.
    fn reset(&mut self, capacity: usize) {
        self.buf.clear();
        self.capacity = capacity;
        self.next_seq = 0;
    }

    /// Append a pre-stamped event (dropping the oldest beyond capacity).
    fn push_event(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
    }

    /// Record one event (dropping the oldest beyond capacity).
    pub fn push(&mut self, tid: ThreadId, kind: TraceKind, site: Site, off: u64, len: usize) {
        if self.capacity == 0 {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_event(TraceEvent {
            seq,
            tid,
            kind,
            site,
            off,
            len,
        });
    }

    /// Snapshot the most recent `n` events, oldest first.
    #[must_use]
    pub fn snapshot(&self, n: usize) -> Vec<TraceEvent> {
        let skip = self.buf.len().saturating_sub(n);
        self.buf.iter().skip(skip).copied().collect()
    }

    /// Total events recorded (including dropped ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }
}

/// One thread-locally staged event (no seq/tid yet — both are assigned in
/// bulk when the owning [`ThreadBuffer`](crate::batch::ThreadBuffer) drains
/// through [`TraceBuffers::push_batch`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalTraceEvent {
    pub(crate) kind: TraceKind,
    pub(crate) site: Site,
    pub(crate) off: u64,
    pub(crate) len: u32,
}

/// Number of per-thread rings; thread ids are small dense integers assigned
/// per campaign, so `tid % TRACE_RINGS` keeps concurrent threads disjoint.
const TRACE_RINGS: usize = 16;

/// Per-thread trace rings stamped from one global sequence counter.
///
/// Each ring holds `depth` events, so a merged [`TraceBuffers::snapshot`] of
/// up to `depth` events is exact (every thread's newest `depth` events are
/// retained), while concurrent threads only contend on their own ring's lock
/// when recording.
#[derive(Debug)]
pub struct TraceBuffers {
    rings: Box<[Mutex<TraceRing>]>,
    seq: AtomicU64,
    depth: usize,
}

impl TraceBuffers {
    /// Buffers holding `depth` events per thread ring (0 disables
    /// recording).
    #[must_use]
    pub fn new(depth: usize) -> Self {
        TraceBuffers {
            rings: (0..TRACE_RINGS)
                .map(|_| Mutex::new(TraceRing::new(depth)))
                .collect(),
            seq: AtomicU64::new(0),
            depth,
        }
    }

    /// `true` when recording is disabled.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.depth == 0
    }

    /// Empty every ring and restart the global sequence, keeping the ring
    /// buffers (a recycled session starts its trace from scratch).
    pub(crate) fn reset(&mut self, depth: usize) {
        for ring in self.rings.iter_mut() {
            ring.get_mut().reset(depth);
        }
        *self.seq.get_mut() = 0;
        self.depth = depth;
    }

    /// Record one event into the calling thread's ring.
    pub fn push(&self, tid: ThreadId, kind: TraceKind, site: Site, off: u64, len: usize) {
        if self.depth == 0 {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.rings[tid.0 as usize % TRACE_RINGS]
            .lock()
            .push_event(TraceEvent {
                seq,
                tid,
                kind,
                site,
                off,
                len,
            });
    }

    /// Append one thread's staged events (oldest first across
    /// `head ++ tail`) with a single sequence-block reservation and one
    /// ring lock. `dropped` events that fell out of the bounded local
    /// buffer consume the leading sequence numbers of the block, so
    /// [`TraceBuffers::recorded`] counts every event exactly once.
    pub(crate) fn push_batch(
        &self,
        tid: ThreadId,
        dropped: u64,
        head: &[LocalTraceEvent],
        tail: &[LocalTraceEvent],
    ) {
        if self.depth == 0 {
            return;
        }
        let n = dropped + (head.len() + tail.len()) as u64;
        if n == 0 {
            return;
        }
        let seq0 = self.seq.fetch_add(n, Ordering::Relaxed) + dropped;
        let mut ring = self.rings[tid.0 as usize % TRACE_RINGS].lock();
        for (i, ev) in head.iter().chain(tail).enumerate() {
            ring.push_event(TraceEvent {
                seq: seq0 + i as u64,
                tid,
                kind: ev.kind,
                site: ev.site,
                off: ev.off,
                len: ev.len as usize,
            });
        }
    }

    /// Merge all rings and return the most recent `n` events, oldest first.
    #[must_use]
    pub fn snapshot(&self, n: usize) -> Vec<TraceEvent> {
        // Only a ring's newest `n` events can be among the newest `n`
        // overall. Size the buffer first so a snapshot is one allocation.
        let newest = |ring: &TraceRing| ring.buf.len().min(n);
        let cap = self.rings.iter().map(|r| newest(&r.lock())).sum();
        let mut all: Vec<TraceEvent> = Vec::with_capacity(cap);
        for ring in self.rings.iter() {
            let ring = ring.lock();
            all.extend(
                ring.buf
                    .iter()
                    .skip(ring.buf.len() - newest(&ring))
                    .copied(),
            );
        }
        all.sort_unstable_by_key(|e| e.seq);
        let skip = all.len().saturating_sub(n);
        all.drain(..skip);
        all
    }

    /// Total events recorded (including dropped ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

/// Render a snapshot as the report block.
#[must_use]
pub fn render_trace(events: &[TraceEvent]) -> String {
    if events.is_empty() {
        return "<no trace recorded>".to_owned();
    }
    events
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let mut ring = TraceRing::new(4);
        let s = site!("trace.test");
        for i in 0..10u64 {
            ring.push(ThreadId(0), TraceKind::Store, s, i * 8, 8);
        }
        assert_eq!(ring.recorded(), 10);
        let snap = ring.snapshot(8);
        assert_eq!(snap.len(), 4, "bounded by capacity");
        assert_eq!(snap[0].seq, 6);
        assert_eq!(snap[3].seq, 9);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut ring = TraceRing::new(0);
        assert!(ring.is_disabled());
        ring.push(ThreadId(0), TraceKind::Load, site!("t2"), 0, 8);
        assert_eq!(ring.recorded(), 0);
        assert!(ring.snapshot(5).is_empty());
    }

    #[test]
    fn render_shows_thread_kind_and_site() {
        let mut ring = TraceRing::new(4);
        ring.push(
            ThreadId(2),
            TraceKind::NtStore,
            site!("trace.render"),
            0x40,
            8,
        );
        let text = render_trace(&ring.snapshot(4));
        assert!(text.contains("t2"));
        assert!(text.contains("ntstore"));
        assert!(text.contains("trace.render"));
        assert_eq!(render_trace(&[]), "<no trace recorded>");
    }

    #[test]
    fn buffers_merge_across_threads_in_global_order() {
        let bufs = TraceBuffers::new(8);
        let s = site!("trace.bufs");
        // Interleave two threads; global seq must order the merge.
        for i in 0..6u64 {
            bufs.push(ThreadId((i % 2) as u32), TraceKind::Store, s, i * 8, 8);
        }
        assert_eq!(bufs.recorded(), 6);
        let snap = bufs.snapshot(10);
        assert_eq!(snap.len(), 6);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(snap[0].tid, ThreadId(0));
        assert_eq!(snap[1].tid, ThreadId(1));
        // A bounded snapshot keeps only the newest events.
        let snap = bufs.snapshot(2);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[1].seq, 5);
    }

    #[test]
    fn buffers_snapshot_up_to_depth_is_exact_per_thread() {
        let bufs = TraceBuffers::new(4);
        let s = site!("trace.depth");
        // Thread 0 floods its own ring; thread 1's events must survive.
        for i in 0..20u64 {
            bufs.push(ThreadId(0), TraceKind::Load, s, i * 8, 8);
        }
        bufs.push(ThreadId(1), TraceKind::Store, s, 0, 8);
        let snap = bufs.snapshot(4);
        assert_eq!(snap.len(), 4);
        assert!(snap.iter().any(|e| e.tid == ThreadId(1)));
    }

    #[test]
    fn disabled_buffers_record_nothing() {
        let bufs = TraceBuffers::new(0);
        assert!(bufs.is_disabled());
        bufs.push(ThreadId(0), TraceKind::Load, site!("t3"), 0, 8);
        assert_eq!(bufs.recorded(), 0);
        assert!(bufs.snapshot(5).is_empty());
    }
}
