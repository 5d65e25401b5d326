//! Pipelined campaign execution: the bounded hand-off queue between exec
//! workers and the validator pool.
//!
//! Post-failure validation (§4.3's recovery-and-recheck sessions) is the
//! only stage of a campaign that is *work the fuzzer does about results*
//! rather than work that produces them. Running it inline on the exec
//! thread serializes recovery sessions with the next campaign's schedule
//! exploration; handing completed campaigns to a small validator pool lets
//! exec threads go straight back to fuzzing while verdicts are computed
//! concurrently — the same split the paper gets for free by validating in
//! a separate process.
//!
//! The queue is deliberately *bounded* and its producer side *non-blocking*:
//! an exec worker that finds the queue full validates inline (counted as
//! `pipeline.backpressure`) instead of stalling. Validators can therefore
//! never be a new bottleneck — the pipeline degrades to exactly the old
//! inline behaviour under overload, and is bypassed entirely (no queue, no
//! threads) when the fleet has a single worker and determinism matters.

use std::collections::VecDeque;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::bugs::IngestPlan;
use crate::explore::StepOutcome;

/// A completed campaign whose fresh findings await validation: the ingest
/// plan minted by [`Ledger::begin_ingest`](crate::Ledger::begin_ingest)
/// (dedup already done, index slots already reserved) plus the full step
/// outcome the verdicts will be folded back against.
#[derive(Debug)]
pub struct ValidationJob {
    /// Phase-1 ingest plan; the validator runs phase 2 (`validate`) and
    /// phase 3 (`finish_ingest`).
    pub plan: IngestPlan,
    /// The campaign outcome the plan was minted from.
    pub out: StepOutcome,
    /// When the exec worker enqueued the job (feeds `pipeline.queue_ns`).
    pub enqueued_at: Instant,
}

/// Bounded multi-producer/multi-consumer hand-off queue.
///
/// Hand-rolled on `parking_lot` instead of `std::sync::mpsc` because the
/// producer side must be non-blocking *with item give-back* (a full queue
/// returns the job so the exec worker can validate it inline) and the
/// consumer side must drain remaining items after close — `mpsc::SyncSender`
/// offers neither without cloning jobs.
#[derive(Debug)]
pub struct HandoffQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled on push and close; poppers wait on it.
    ready: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
}

impl<T> HandoffQueue<T> {
    /// Queue holding at most `cap` items (minimum 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        HandoffQueue {
            state: Mutex::new(State {
                buf: VecDeque::with_capacity(cap),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Non-blocking push. Returns the item back when the queue is full or
    /// already closed — the caller then processes it inline.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock();
        if state.closed || state.buf.len() >= self.cap {
            return Err(item);
        }
        state.buf.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop: waits until an item arrives or the queue is closed
    /// *and* drained. `None` means no item will ever arrive again.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.buf.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.ready.wait(&mut state);
        }
    }

    /// Close the queue: pushes start failing, poppers drain what is left
    /// and then observe `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued (racy level gauge).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_order_is_preserved() {
        let q = HandoffQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.depth(), 5);
        let got: Vec<i32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_gives_the_item_back() {
        let q = HandoffQueue::new(2);
        q.push('a').unwrap();
        q.push('b').unwrap();
        assert_eq!(q.push('c'), Err('c'), "over capacity: inline fallback");
        assert_eq!(q.pop(), Some('a'));
        q.push('c').unwrap();
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = HandoffQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3), "closed queue rejects new work");
        assert_eq!(q.pop(), Some(1), "queued work survives close");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "drained + closed: consumers exit");
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = std::sync::Arc::new(HandoffQueue::<u32>::new(4));
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (q, done) = (std::sync::Arc::clone(&q), std::sync::Arc::clone(&done));
                std::thread::spawn(move || {
                    while q.pop().is_some() {}
                    done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        q.push(7).unwrap();
        q.close();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 3, "every consumer unblocked");
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        const PER_PRODUCER: usize = 500;
        let q = std::sync::Arc::new(HandoffQueue::<usize>::new(4));
        let consumed = std::sync::Arc::new(AtomicUsize::new(0));
        let inline = std::sync::Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, consumed) = (std::sync::Arc::clone(&q), std::sync::Arc::clone(&consumed));
                std::thread::spawn(move || {
                    while q.pop().is_some() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..3)
            .map(|_| {
                let (q, inline) = (std::sync::Arc::clone(&q), std::sync::Arc::clone(&inline));
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        if q.push(i).is_err() {
                            // Backpressure: the producer handles it itself.
                            inline.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        q.close();
        for h in consumers {
            h.join().unwrap();
        }
        assert_eq!(
            consumed.load(Ordering::SeqCst) + inline.load(Ordering::SeqCst),
            3 * PER_PRODUCER,
            "every item either consumed or handled inline"
        );
    }
}
