//! # active-threads
//!
//! A deterministic reimplementation of **Active Threads** — the paper's
//! portable high-performance user-level thread system — running over the
//! simulated SMP of `locality-sim`.
//!
//! The runtime supports the paper's general unrestricted thread model:
//! threads are units of possibly-parallel execution with independent
//! lifetimes that share one address space, and they may block on any of
//! the usual synchronization objects (mutexes, semaphores, barriers,
//! condition variables, joins). Thread state-sharing annotations
//! (`at_share`) extend the model exactly as in §2.3.
//!
//! ## Execution model
//!
//! Workload threads implement [`Program`]: the runtime repeatedly calls
//! [`Program::next_batch`], inside which the thread issues memory
//! accesses, compute, spawns, and annotations through [`BatchCtx`], and
//! then returns a [`Control`] describing how the batch ends (block on a
//! sync object, yield, sleep, exit). Blocking therefore never has to
//! unwind a call stack — no stack switching in assembly — while the
//! scheduler-visible behaviour (counters read at context switches,
//! per-processor run queues, priority updates) is exactly the paper's.
//!
//! ## Schedulers
//!
//! * [`sched::FcfsScheduler`] — the paper's first-come first-served
//!   baseline (one global queue);
//! * [`sched::LocalityScheduler`] — LFF or CRT: per-processor binary
//!   heaps of expected footprints, threshold eviction to a global queue,
//!   and lowest-priority stealing for idle processors (paper §4/§5), fed
//!   by the performance counters and the annotation graph.
//!
//! ```
//! use active_threads::{Engine, EngineConfig, BatchCtx, Control, Program, SchedPolicy};
//! use locality_sim::MachineConfig;
//!
//! struct Toucher { buf: Option<locality_sim::VAddr>, rounds: u32 }
//! impl Program for Toucher {
//!     fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
//!         let buf = *self.buf.get_or_insert_with(|| ctx.alloc(4096, 64));
//!         ctx.register_region(buf, 4096);
//!         ctx.read_range(buf, 4096, 64);
//!         self.rounds -= 1;
//!         if self.rounds == 0 { Control::Exit } else { Control::Yield }
//!     }
//! }
//!
//! let mut engine = Engine::new(
//!     MachineConfig::ultra1(),
//!     SchedPolicy::Fcfs,
//!     EngineConfig::default(),
//! )
//! .expect("valid machine");
//! engine.spawn(Box::new(Toucher { buf: None, rounds: 3 }));
//! let report = engine.run().unwrap();
//! assert_eq!(report.threads_completed, 1);
//! assert!(report.total_l2_misses >= 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod chaos;
pub mod engine;
pub mod events;
pub mod heap;
pub mod inference;
pub mod observe;
pub mod program;
pub mod report;
pub mod sched;
pub mod sync;
pub mod thread;

pub use chaos::ChaosConfig;
pub use engine::{Engine, EngineConfig};
pub use error::RuntimeError;
pub use events::{EngineHook, SwitchEvent, SwitchReason};
pub use inference::SharingInference;
pub use observe::{AccessSpan, Batch, ObsEvent, ObsLog};
pub use program::{BatchCtx, Control, Program};
pub use report::RunReport;
pub use sched::{SchedPolicy, Scheduler};
pub use sync::{BarrierId, CondId, MutexId, SemId};
pub use thread::BlockedOn;

pub use locality_core::{CpuId, PolicyKind, ThreadId};
