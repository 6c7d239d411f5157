//! # locality-workloads
//!
//! All the workloads of the paper's evaluation, reimplemented against the
//! Active Threads batch-program model:
//!
//! | workload | paper role | here |
//! |---|---|---|
//! | `tasks` | Squillante–Lazowska disjoint-footprint benchmark (§5) | [`tasks`] |
//! | `merge` | parallel mergesort, 100k elements, ~1000 leaf threads (§3.3, §5) | [`merge`] |
//! | `photo` | softening filter over an RGB pixmap, thread per row (§3.3, §5) | [`photo`] |
//! | `tsp` | branch-and-bound travelling salesman, 100 cities (§5) | [`tsp`] |
//! | `barnes` | SPLASH-2 Barnes-Hut N-body (§3.3) | [`barnes`] |
//! | `fmm` | SPLASH-2 adaptive fast multipole (§3.3) | [`fmm`] |
//! | `ocean` | SPLASH-2-style regular-grid SOR solver (§3.3) | [`ocean`] |
//! | `raytrace` | SPLASH-2 raytracer (conflict-miss anomaly, Fig. 7) | [`raytrace`] |
//! | `typechecker` | Sather compiler typechecker (nonstationary anomaly, Fig. 7) | [`typechecker`] |
//!
//! Each workload performs its *real* computation on native Rust data
//! (sorting actually sorts, the filter actually filters, branch-and-bound
//! actually bounds) while issuing the corresponding simulated memory
//! references, so the reference streams carry genuine application
//! structure — clustering, run lengths, reuse — rather than synthetic
//! noise. Data accesses are issued at cache-line granularity.
//!
//! The multi-threaded workloads (`tasks`, `merge`, `photo`, `tsp`) carry
//! the paper's `at_share` annotations; coefficient values are derived
//! from the exact region overlaps where the paper derives them from
//! program knowledge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barnes;
pub mod common;
pub mod fmm;
pub mod merge;
pub mod ocean;
pub mod photo;
pub mod raytrace;
pub mod tasks;
pub mod tsp;
pub mod typechecker;

/// The eight applications of the paper's simulation study (§3.3), in the
/// order they appear in our Figure 5/6/7 reproductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Barnes-Hut N-body.
    Barnes,
    /// Adaptive fast multipole.
    Fmm,
    /// Regular-grid SOR solver.
    Ocean,
    /// Parallel mergesort worker.
    Merge,
    /// Image softening filter worker.
    Photo,
    /// Branch-and-bound TSP worker.
    Tsp,
    /// Sather typechecker (anomalous, Fig. 7).
    Typechecker,
    /// Raytracer (anomalous, Fig. 7).
    Raytrace,
}

impl App {
    /// The six well-behaved apps of Figure 5.
    pub const FIG5: [App; 6] =
        [App::Barnes, App::Fmm, App::Ocean, App::Merge, App::Photo, App::Tsp];

    /// The two anomalous apps of Figure 7.
    pub const FIG7: [App; 2] = [App::Typechecker, App::Raytrace];

    /// Lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            App::Barnes => "barnes",
            App::Fmm => "fmm",
            App::Ocean => "ocean",
            App::Merge => "merge",
            App::Photo => "photo",
            App::Tsp => "tsp",
            App::Typechecker => "typechecker",
            App::Raytrace => "raytrace",
        }
    }

    /// The app's default RNG seed (the one its `Params::default()`
    /// carries). Explicitly seeded runs make each experiment descriptor
    /// self-contained, so independent runs share no state.
    pub fn default_seed(&self) -> u64 {
        match self {
            App::Barnes => barnes::BarnesParams::default().seed,
            App::Fmm => fmm::FmmParams::default().seed,
            App::Ocean => ocean::OceanParams::default().seed,
            App::Merge => merge::MergeParams::default().seed,
            App::Photo => photo::PhotoParams::default().seed,
            App::Tsp => tsp::TspParams::default().seed,
            App::Typechecker => typechecker::TypecheckerParams::default().seed,
            App::Raytrace => raytrace::RaytraceParams::default().seed,
        }
    }

    /// Spawns the app's monitored single work thread into an engine,
    /// using scaled-down default parameters suitable for simulation,
    /// with an explicit RNG seed in place of the default parameters'
    /// ([`App::default_seed`]).
    pub fn spawn_single_seeded(
        &self,
        engine: &mut active_threads::Engine,
        seed: u64,
    ) -> locality_core::ThreadId {
        match self {
            App::Barnes => {
                barnes::spawn_single(engine, &barnes::BarnesParams { seed, ..Default::default() })
            }
            App::Fmm => fmm::spawn_single(engine, &fmm::FmmParams { seed, ..Default::default() }),
            App::Ocean => {
                ocean::spawn_single(engine, &ocean::OceanParams { seed, ..Default::default() })
            }
            App::Merge => {
                merge::spawn_single(engine, &merge::MergeParams { seed, ..Default::default() })
            }
            App::Photo => {
                photo::spawn_single(engine, &photo::PhotoParams { seed, ..Default::default() })
            }
            App::Tsp => tsp::spawn_single(engine, &tsp::TspParams { seed, ..Default::default() }),
            App::Typechecker => typechecker::spawn_single(
                engine,
                &typechecker::TypecheckerParams { seed, ..Default::default() },
            ),
            App::Raytrace => raytrace::spawn_single(
                engine,
                &raytrace::RaytraceParams { seed, ..Default::default() },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_names_unique() {
        let mut names: Vec<&str> =
            App::FIG5.iter().chain(App::FIG7.iter()).map(App::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
