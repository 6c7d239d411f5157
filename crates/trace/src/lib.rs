//! # locality-trace
//!
//! The observability layer of the thread-locality reproduction: a
//! fixed-capacity ring-buffer event sink fed by emission points inside
//! the model ([`locality-core`]), the simulator ([`locality-sim`]), and
//! the runtime ([`active-threads`]), plus aggregated metrics and
//! exporters to JSONL and the Chrome `trace_event` format (opens in
//! Perfetto / `chrome://tracing`).
//!
//! ## Zero cost when disabled
//!
//! Every hot-path emission goes through [`emit_with`], which takes a
//! closure producing the event. The `trace` cargo feature is resolved in
//! *this* crate, so with the feature off (the default) [`emit_with`] is
//! an empty `#[inline(always)]` function: the closure is never
//! evaluated, no thread-local is touched, and the instrumented crates
//! compile to exactly their un-instrumented code. [`ENABLED`] tells
//! callers at runtime which build they are in.
//!
//! ## No allocation on the hot path
//!
//! The sink pre-allocates its full capacity at [`install`] time and
//! overwrites the oldest record once full (counting the overwritten
//! events as dropped), so recording an event never allocates. Aggregated
//! metrics ([`metrics::TraceAggregate`]) are folded in **online** at
//! record time, so they stay exact even after the ring wraps.
//!
//! ## Determinism
//!
//! Events are stamped with a sequence number and the simulated clock
//! (set by the engine via [`set_clock`]), never wall time, so two runs
//! of the same seeded workload emit byte-identical exports.
//!
//! [`locality-core`]: ../locality_core/index.html
//! [`locality-sim`]: ../locality_sim/index.html
//! [`active-threads`]: ../active_threads/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod sink;

pub use event::TraceEvent;
pub use metrics::{Histogram, TraceAggregate, HIST_BUCKETS};
pub use sink::{emit_with, install, set_clock, take, Record, TraceSink, ENABLED};
