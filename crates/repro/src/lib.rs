//! # locality-repro
//!
//! The experiment harness: one binary, `repro <subcommand> [flags]`, with
//! one subcommand per table and figure of the paper. The name table is
//! [`suite::SUBCOMMANDS`]; `repro --help` prints it.
//!
//! | subcommand | regenerates |
//! |---|---|
//! | `table1` | Table 1 — simulated UltraSPARC-1 memory hierarchy |
//! | `table2` | Table 2 — simulated workloads |
//! | `table3` | Table 3 — costs of priority updates |
//! | `table4` | Table 4 — input parameters for application runs |
//! | `table5` | Table 5 — CRT relative to FCFS |
//! | `fig4` | Figure 4 — random-memory-walk model validation (panels a–e) |
//! | `fig5` | Figure 5 — observed vs predicted footprints, 6 applications |
//! | `fig6` | Figure 6 — E-cache misses per 1000 instructions |
//! | `fig7` | Figure 7 — overestimated footprints (typechecker, raytrace) |
//! | `fig8` | Figure 8 — locality scheduling on the 1-cpu Ultra-1 |
//! | `fig9` | Figure 9 — locality scheduling on the 8-cpu Enterprise 5000 |
//! | `ablation` | §5 extras: annotation ablation, threshold sweep, page placement, invalidation effects, runtime sharing inference |
//! | `robustness` | the counter-fault and thread-lifecycle chaos tables, every row of [`scenario::SCENARIOS`] (not part of `all`) |
//! | `geometry` | model vs simulator across L2 geometries of equal capacity (`--geometry SxW`, `--page-size BYTES`; not part of `all`) |
//! | `all` | `table1`–`table5`, `fig4`–`fig9` and `ablation` through one shared runner (cross-figure runs execute once) |
//! | `analyze` | race detection, lock-order cycles, and annotation lints over the deterministic racy/clean fixture pair (exit 1 on confirmed races; `--workload clean\|racy\|all`) |
//! | `modelcheck` | stateless model checking: exhaustive DPOR schedule exploration of the fixture workloads, with replayable counterexamples (exit 1 on violations; `--workload clean\|racy\|deadlock\|lostwake\|all`, `--replay FILE`) |
//! | `trace` | locality-trace observability: JSONL + Chrome `trace_event` exports and aggregated trace-metrics CSVs for a monitored app (`--workload APP\|all`, `--policy fcfs\|lff\|crt`) |
//!
//! Every subcommand prints aligned text tables and writes CSV files under
//! `results/` (change with `--out DIR`). `--scale small` runs scaled-down
//! workloads for a quick smoke pass; the default `--scale paper` uses the
//! paper's parameters.
//!
//! The figure subcommands drive the shared [runner]: a figure is a list
//! of independent seeded run descriptors, each a simulated machine or
//! engine run, executed across `--jobs` worker threads and cached under
//! `<out>/.cache` (disable with `--no-cache`); `analyze`, `modelcheck`
//! and `trace` compute what they print and cache nothing.
//! CSV artifacts are byte-identical for every `--jobs` value and across
//! cache hits; only the printed wall-time stats vary. Host time is
//! measured in one place, outside this crate: `benchmark/`
//! (`BENCHMARK.json`).
//!
//! The pipeline is crash-safe: cache entries are checksummed and written
//! atomically (corrupt entries are quarantined and recomputed), CSVs are
//! written via temp-file + rename, and a panicking run fails the suite by
//! name without taking its siblings down — a killed `repro all` resumes
//! from its per-run cache to byte-identical artifacts.

// One call site may allow `unsafe_code`: the SHA-extension dispatch in
// `digest`, after run-time feature detection.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
// The harness must degrade gracefully, not panic: outside tests, every
// fallible site either propagates a typed `ReproError` or carries a
// targeted `#[allow]` with an infallibility argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// `println!` through [`table::say`]: a failed write is recorded, not a
/// panic.
macro_rules! say {
    ($($arg:tt)*) => {
        $crate::table::say(format_args!($($arg)*))
    };
}

pub mod analyze;
pub mod args;
pub mod digest;
pub mod error;
pub mod experiments;
pub mod geometry;
pub mod microbench;
pub mod modelcheck;
pub mod monitor;
pub mod perf;
pub mod runner;
pub mod scenario;
pub mod suite;
pub mod table;
pub mod trace;

pub use args::{Args, Scale};
pub use error::ReproError;
pub use runner::{RunKind, RunOutput, RunRequest, Runner};
pub use table::Table;
