//! # locality-trace
//!
//! The observability layer of the thread-locality reproduction: a
//! fixed-capacity ring-buffer event sink fed by emission points inside
//! the model ([`locality-core`]), the simulator ([`locality-sim`]), and
//! the runtime ([`active-threads`]), plus aggregated metrics and
//! exporters to JSONL and the Chrome `trace_event` format (opens in
//! Perfetto / `chrome://tracing`).
//!
//! ## One load when disabled
//!
//! Every hot-path emission goes through [`emit_with`], which takes a
//! closure producing the event. With no sink installed on the thread it
//! costs one thread-local load of a `bool`, set by [`install`] and
//! cleared by [`take`]; the closure is never evaluated and the sink's
//! `RefCell` is reached only through a `#[cold]` helper. The engine has
//! about 8 emission points per scheduling interval and none per
//! reference. On `sched_switch`, the benchmark's switch-bound workload
//! (10 alternating 15 s pairs on a shared 2-core Xeon VM, against a build
//! that compiled the emission points out), the median was 232.2 host ns
//! a switch on both sides and the median pair ratio +1.0 %, inside the
//! runs' own spread.
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
pub use sink::{emit_with, install, set_clock, take, Record, TraceSink};
