//! Fig. 6 pitfall 2 with a lock in the cycle: a thread parked at a sync
//! point while holding a PM spin lock, and a second thread spinning on
//! that lock, together block every live thread. The spinner reports itself
//! through the strategy's `on_spin` hook, so the parked holder is drafted
//! and the campaign finishes instead of latching a scheduler-made hang.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmrace::pmem::ThreadId;
use pmrace::runtime::site;
use pmrace::sched::{PmraceStrategy, SkipStore, SyncPlan, SyncTuning};
use pmrace::targets::util::{pm_lock_acquire, pm_lock_release};
use pmrace::{Pool, PoolOpts, Session, SessionConfig};

const LOCK: u64 = 64;
const DATA: u64 = 128;

#[test]
fn parked_lock_holder_is_drafted_for_a_spinning_waiter() {
    let session = Session::new(
        Arc::new(Pool::new(PoolOpts::small())),
        SessionConfig {
            deadline: Duration::from_secs(60),
            ..SessionConfig::default()
        },
    );
    let load = site!("draft.read_data");
    let plan = SyncPlan {
        off: DATA,
        load_sites: [load.id()].into(),
        // Nobody stores to the planned word: only a draft or the disable
        // budget can release the parked holder.
        store_sites: [site!("draft.never_stored").id()].into(),
        cas_sites: Default::default(),
    };
    let tuning = SyncTuning {
        skip_jitter: 0,
        // ~10 s: far past the livelock latch, so only a draft ends the wait
        // in time.
        disable_iters: 200_000,
        ..SyncTuning::default()
    };
    let strategy = Arc::new(PmraceStrategy::new(
        plan,
        2,
        Arc::new(SkipStore::new()),
        tuning,
        1,
    ));
    session.set_strategy(Arc::clone(&strategy) as _);

    let (holding_tx, holding_rx) = mpsc::channel();
    let holder = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            let view = session.view(ThreadId(0));
            pm_lock_acquire(&view, LOCK, site!("draft.lock"), false)?;
            holding_tx.send(()).unwrap();
            // Parks in cond_wait while holding the lock.
            view.load_u64(DATA, load)?;
            pm_lock_release(&view, LOCK, site!("draft.unlock"), false)?;
            view.flush();
            session.thread_done(ThreadId(0));
            Ok::<(), pmrace::runtime::RtError>(())
        })
    };
    holding_rx.recv().unwrap();
    let waiter = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            let view = session.view(ThreadId(1));
            let start = Instant::now();
            pm_lock_acquire(&view, LOCK, site!("draft.lock"), false)?;
            pm_lock_release(&view, LOCK, site!("draft.unlock"), false)?;
            view.flush();
            session.thread_done(ThreadId(1));
            Ok::<Duration, pmrace::runtime::RtError>(start.elapsed())
        })
    };
    holder.join().unwrap().expect("holder finishes");
    let waited = waiter
        .join()
        .unwrap()
        .expect("waiter acquires the lock, no hang latched");
    assert!(waited < Duration::from_secs(5), "waiter stuck: {waited:?}");
    assert!(session.check().is_ok(), "a hang was latched");
    assert!(
        strategy.sync_point_enabled(),
        "the holder was drafted, not released by the disable path"
    );
    assert_eq!(strategy.waits_entered(), 1);
}
