//! PMRace instrumentation runtime.
//!
//! The paper instruments target programs with an LLVM pass that hooks every
//! PM load/store/flush/fence and routes them into a runtime library with
//! DataFlowSanitizer-based taint tracking. This crate is that pass *and* that
//! runtime, expressed as an explicit API: target systems are written against
//! [`PmView`], whose typed accessors are the hooked instructions.
//!
//! What happens on each access (paper §4.2–§4.3):
//!
//! - **loads** consult the pool's persistency metadata; reading a granule
//!   that is `Dirty`/`Flushing` creates a *PM Inter-thread Inconsistency
//!   Candidate* (cross-thread writer) or *Intra-thread* candidate (own
//!   write), and taints the loaded value with the candidate id;
//! - **stores** whose value or target address carries taint are *durable
//!   side effects* — the checker records a *PM Inter-/Intra-thread
//!   Inconsistency* and captures the crash image the post-failure validator
//!   will recover from;
//! - **stores to annotated synchronization variables** are recorded as
//!   *PM Synchronization Inconsistencies* (each `(variable, site)` update
//!   shape once);
//! - every access updates **PM alias-pair coverage** (§4.2.1) and feeds the
//!   shared-access statistics the scheduler's priority queue is built from;
//! - every access first calls into the registered
//!   [`InterleaveStrategy`](strategy::InterleaveStrategy), which is how the
//!   `pmrace-sched` crate injects conditional waits (Fig. 6) or random
//!   delays.
//!
//! The [`Checker`](checker::Checker) trait makes the framework extensible
//! with further PM checkers; [`checker::RedundantFlushChecker`] ships as the
//! worked example the paper sketches (flushing already-clean data).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod coverage;
pub mod report;
pub mod session;
pub mod strategy;
pub mod taint;
pub mod trace;
pub mod view;
pub mod wait;
pub mod whitelist;

mod batch;
mod error;
mod fx;
mod site;

pub use error::RtError;
pub use session::{Session, SessionConfig, SessionTables, SyncVarAnnotation};
pub use site::{site_by_label, site_label, site_location, Site};
pub use taint::{TBytes, TaintSet, TU64};
pub use view::PmView;
pub use wait::HangCause;

// Macro support: `site!` expands to a call of this re-exported function.
#[doc(hidden)]
pub use site::register_site as __register_site;

/// Declare (once, lazily) a static instruction site at this source location.
///
/// Expands to a [`Site`] value that is registered on first execution. The
/// label names the instruction in bug reports and whitelist rules, playing
/// the role of the paper's per-instruction IDs assigned by the compiler
/// pass plus the stack trace in reports.
///
/// ```
/// use pmrace_runtime::site;
/// let s = site!("clht_resize.swap_table_ptr");
/// assert_eq!(pmrace_runtime::site_label(s), "clht_resize.swap_table_ptr");
/// ```
#[macro_export]
macro_rules! site {
    ($label:expr) => {{
        static __SITE: ::std::sync::OnceLock<$crate::Site> = ::std::sync::OnceLock::new();
        *__SITE.get_or_init(|| $crate::__register_site(concat!(file!(), ":", line!()), $label))
    }};
}
