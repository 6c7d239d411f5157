//! # locality-core
//!
//! The analytical *shared-state cache model* and the locality scheduling
//! machinery from Boris Weissman's ASPLOS 1998 paper *"Performance Counters
//! and State Sharing Annotations: a Unified Approach to Thread Locality"*.
//!
//! The model predicts, **on-line**, the expected footprint (number of
//! resident cache lines) of every thread in a large direct-mapped secondary
//! cache as the computation unfolds. Its only inputs are:
//!
//! 1. the number of cache misses `n` taken by the running thread during its
//!    scheduling interval, as reported by hardware performance counters, and
//! 2. a dynamic [`SharingGraph`] built from program-centric
//!    `at_share(a, b, q)` annotations: a weighted digraph whose edge
//!    `(a → b, q)` declares that fraction `q` of thread `a`'s state is
//!    shared with thread `b`'s state.
//!
//! For a cache of `N` lines, with `k = (N-1)/N`, a scheduling interval in
//! which thread *A* took `n` misses on processor *p* updates the expected
//! footprints in *p*'s cache as:
//!
//! * **blocking thread A**: `E[F_A] = N − (N − S_A)·kⁿ`
//! * **independent thread B**: `E[F_B] = S_B·kⁿ`
//! * **dependent thread C** (edge `(A → C, q)`): `E[F_C] = qN − (qN − S_C)·kⁿ`
//!
//! where `S_x` is the footprint at the start of the interval. All three are
//! `target − (target − S)·kⁿ` with target `N`, `qN` or `0`, written once in
//! `footprint::toward`. The dependent case is derived from a birth–death
//! Markov chain (paper appendix); [`markov`] implements that chain exactly
//! and serves as a test oracle for the closed forms.
//!
//! On top of the model, [`priority`] and [`estimator`] implement the paper's
//! two practical scheduling policies — **LFF** (largest footprint first) and
//! **CRT** (smallest cache-reload ratio) — using the log-space priority
//! (`PrioritySchemes::priority`) that makes priority updates of
//! *independent* threads entirely free: only the blocking thread and its
//! `out-degree` dependents are touched at a context switch. [`tables`]
//! holds the `kⁿ` and `log F` values every update reads.
//!
//! ## Quick example
//!
//! ```
//! use locality_core::{FootprintModel, ModelParams, SharingGraph, ThreadId};
//!
//! # fn main() -> Result<(), locality_core::ModelError> {
//! let params = ModelParams::new(8192)?; // 512 KiB / 64-byte lines
//! let model = FootprintModel::new(params);
//!
//! // Thread A starts with 1000 lines cached and takes 4000 misses.
//! let fa = model.expected_blocking(1000.0, 4000);
//! assert!(fa > 1000.0 && fa < 8192.0);
//!
//! // An independent thread's 1000-line footprint decays.
//! let fb = model.expected_independent(1000.0, 4000);
//! assert!(fb < 1000.0);
//!
//! // A dependent thread sharing half of A's state converges toward q*N.
//! let mut graph = SharingGraph::new();
//! graph.set(ThreadId(1), ThreadId(2), 0.5)?;
//! let q = graph.weight(ThreadId(1), ThreadId(2));
//! let fc = model.expected_dependent(q, 1000.0, 4000);
//! assert!(fc > 1000.0 && fc < 0.5 * 8192.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod params;

pub mod estimator;
pub mod flops;
pub mod footprint;
pub mod graph;
pub mod markov;
pub mod perset;
pub mod priority;
pub mod sanitizer;
pub mod slots;
pub mod tables;

pub use error::ModelError;
pub use estimator::{EstimatorConfig, FootprintEstimator, LocalityEstimator};
pub use footprint::FootprintModel;
pub use graph::SharingGraph;
pub use params::ModelParams;
pub use perset::{PerSetCase, PerSetEstimator};
pub use priority::{FootprintEntry, PolicyKind, PrioritySchemes, PriorityUpdate};
pub use sanitizer::{CounterSanitizer, SanitizedInterval, SanitizerConfig};
pub use slots::{SlotId, ThreadSlots};

use std::fmt;

/// Identifier of a runtime thread instance.
///
/// Thread ids are allocated by the runtime (see the `active-threads` crate)
/// and are never reused within a run, so they double as stable keys for the
/// [`SharingGraph`] and the per-processor footprint tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u64);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for ThreadId {
    fn from(raw: u64) -> Self {
        ThreadId(raw)
    }
}

/// Identifier of a (simulated) processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuId(pub usize);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl From<usize> for CpuId {
    fn from(raw: usize) -> Self {
        CpuId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_display_and_order() {
        let a = ThreadId(3);
        let b = ThreadId(7);
        assert!(a < b);
        assert_eq!(a.to_string(), "t3");
        assert_eq!(ThreadId::from(9), ThreadId(9));
    }

    #[test]
    fn cpu_id_display_and_order() {
        assert_eq!(CpuId(2).to_string(), "cpu2");
        assert!(CpuId(0) < CpuId(1));
        assert_eq!(CpuId::from(4), CpuId(4));
    }

    #[test]
    fn ids_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThreadId>();
        assert_send_sync::<CpuId>();
    }
}
