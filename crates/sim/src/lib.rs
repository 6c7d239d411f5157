//! # locality-sim
//!
//! A deterministic SMP machine simulator: the substrate that stands in for
//! the paper's UltraSPARC-1 / Sun Enterprise 5000 hardware and its
//! Shade-based cache/thread simulator (paper §3).
//!
//! The simulator models, per processor:
//!
//! * a 16 KiB 2-way L1 instruction cache (32-byte lines),
//! * a 16 KiB direct-mapped write-through L1 data cache (32-byte lines),
//! * a unified physically-indexed direct-mapped 512 KiB L2 "E-cache"
//!   (64-byte lines, write-back) that maintains inclusion over both L1s,
//! * a pair of user-readable **performance instrumentation counters**
//!   ([`Pic`]) counting E-cache references and hits — the UltraSPARC PICs
//!   that the paper's runtime reads at every context switch,
//!
//! plus machine-wide:
//!
//! * virtual→physical translation with pluggable page-placement policies
//!   (arbitrary/random, page coloring, Kessler & Hill bin hopping),
//! * a write-invalidate coherence directory (a miss satisfied from another
//!   processor's cache costs more, per the E5000's 50-vs-80-cycle split),
//! * a simulated heap allocator handing out virtual address ranges,
//! * **per-thread footprint ground truth**: threads register the address
//!   ranges that make up their state, and the machine can report exactly
//!   how many resident L2 lines of any processor belong to any thread —
//!   the measurement that is impossible on real hardware and motivated the
//!   paper's simulations.
//!
//! ```
//! use locality_sim::{Machine, MachineConfig, AccessKind};
//! use locality_core::ThreadId;
//!
//! let mut m = Machine::try_new(MachineConfig::ultra1())?;
//! let t = ThreadId(1);
//! m.set_running(0, Some(t));
//! let buf = m.alloc(4096, 64);
//! m.register_region(t, buf, 4096);
//! for off in (0..4096).step_by(64) {
//!     m.access(0, buf.offset(off), AccessKind::Read);
//! }
//! assert_eq!(m.l2_footprint_lines(0, t), 64); // 4096 B / 64 B lines
//! assert_eq!(m.pic(0).misses(), 64);          // all compulsory misses
//! # Ok::<(), locality_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod addr;
pub mod alloc;
pub mod cache;
pub mod cml;
pub mod config;
pub mod counters;
pub mod faults;
pub mod footprint;
pub mod hierarchy;
pub mod machine;
pub mod paging;
pub mod regions;
pub mod stats;
pub mod tlb;
pub mod trace;

pub use addr::{PAddr, VAddr};
pub use cache::{Cache, CacheGeometry};
pub use cml::{Cml, CmlEntry};
pub use config::{CacheLatencies, HierarchyConfig, MachineConfig};
pub use counters::Pic;
pub use error::SimError;
pub use faults::{FaultConfig, FaultKind, FaultWindow};
pub use footprint::FootprintScratch;
pub use machine::{AccessKind, Machine, BATCH_REFS};
pub use paging::PagePlacement;
pub use regions::RegionTable;
pub use stats::{CpuStats, ThreadStats};
pub use tlb::{Tlb, TlbConfig};
pub use trace::{Trace, TraceRecord};
