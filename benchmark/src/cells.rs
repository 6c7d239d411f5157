//! The five workloads and the engine cells they are made of.
//!
//! A cell is one `Engine::new` + `spawn_*` + `Engine::run`. The seed from
//! the command line is added to each application's default seed; the
//! crates only ever see the generated parameters.

use active_threads::{Engine, EngineConfig, RuntimeError, SchedPolicy};
use locality_sim::{CacheGeometry, MachineConfig, SimError, TlbConfig};
use locality_workloads::{merge, photo, tasks, tsp, App};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro-all --scale small`, cold then warm, through the runner.
    ReproSmall,
    /// The twelve section-5 cells at Table 4 parameters on the E5000.
    PolicyPaper,
    /// Seven single-threaded apps on the default direct-mapped L2.
    MemDirect,
    /// The same apps on a 4-way L2 with a small TLB and paid walks.
    MemAssoc,
    /// `tasks` with tiny footprints: nearly all host time is switching.
    SchedSwitch,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 5] = [
        Workload::ReproSmall,
        Workload::PolicyPaper,
        Workload::MemDirect,
        Workload::MemAssoc,
        Workload::SchedSwitch,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproSmall => "repro_small",
            Workload::PolicyPaper => "policy_paper",
            Workload::MemDirect => "mem_direct",
            Workload::MemAssoc => "mem_assoc",
            Workload::SchedSwitch => "sched_switch",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a cell spawns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spawn {
    /// `tasks::spawn_parallel`.
    Tasks(tasks::TasksParams),
    /// `merge::spawn_parallel`.
    Merge(merge::MergeParams),
    /// `photo::spawn_parallel`.
    Photo(photo::PhotoParams),
    /// `tsp::spawn_parallel`.
    Tsp(tsp::TspParams),
    /// `App::spawn_single_seeded` with this seed.
    Single(App, u64),
}

/// One engine run, fully described.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Unique within the workload; names the cell in spans and messages.
    pub label: String,
    /// The application, for the per-application layer rows.
    pub app: &'static str,
    /// What to spawn.
    pub spawn: Spawn,
    /// The scheduling policy.
    pub policy: SchedPolicy,
    /// Simulated processors: 1 is the Ultra-1, more is the E5000.
    pub cpus: usize,
    /// Memory-system overrides.
    pub config: EngineConfig,
    /// The clock hook reads the host clock at every `stride`-th context
    /// switch, which keeps windows near a tenth of a millisecond.
    pub stride: u64,
    /// The accuracy pass scans the whole E-cache at every
    /// `model_stride`-th switch: a few hundred samples a cell.
    pub model_stride: u64,
    /// Groups cells whose layer rows are reported apart (`sched_switch`
    /// keeps independent and dependent tasks apart).
    pub dependent: bool,
}

impl Cell {
    /// The machine description before the engine's overrides.
    pub fn machine(&self) -> MachineConfig {
        if self.cpus == 1 {
            MachineConfig::ultra1()
        } else {
            MachineConfig::enterprise5000(self.cpus)
        }
    }

    /// The machine description the engine actually builds.
    pub fn effective_machine(&self) -> MachineConfig {
        self.config.apply_overrides(self.machine())
    }

    /// `Engine::new` alone.
    ///
    /// # Errors
    ///
    /// Returns the engine's error for an invalid machine.
    pub fn new_engine(&self) -> Result<Engine, RuntimeError> {
        Engine::new(self.machine(), self.policy, self.config)
    }

    /// Spawns the cell's threads and returns how many were created now
    /// (merge and tsp create the rest while they run).
    pub fn spawn_into(&self, engine: &mut Engine) -> u64 {
        match &self.spawn {
            Spawn::Tasks(p) => tasks::spawn_parallel(engine, p).len() as u64,
            Spawn::Merge(p) => {
                merge::spawn_parallel(engine, p);
                1
            }
            Spawn::Photo(p) => photo::spawn_parallel(engine, p).1.len() as u64,
            Spawn::Tsp(p) => {
                tsp::spawn_parallel(engine, p);
                1
            }
            Spawn::Single(app, seed) => {
                app.spawn_single_seeded(engine, *seed);
                1
            }
        }
    }
}

const POLICIES: [SchedPolicy; 3] = [SchedPolicy::Fcfs, SchedPolicy::Lff, SchedPolicy::Crt];

/// The single-threaded apps of `mem_direct` and `mem_assoc`. `photo` is
/// left out on purpose: its host time is native filtering, not
/// simulation, and `policy_paper` covers it.
const MEM_APPS: [App; 7] =
    [App::Barnes, App::Fmm, App::Ocean, App::Merge, App::Tsp, App::Typechecker, App::Raytrace];

/// The associative memory system of `mem_assoc`: the same 512 KiB of L2
/// as the default, 4 ways, 4 KiB pages, a 64-entry 4-way TLB whose
/// misses cost a 30-cycle walk.
///
/// # Errors
///
/// Never in practice: the geometry is a constant power-of-two triple.
pub fn assoc_config() -> Result<EngineConfig, SimError> {
    Ok(EngineConfig {
        l2_geometry: Some(CacheGeometry::new(2048, 4, 64)?),
        page_bytes: Some(4096),
        tlb: Some(TlbConfig { sets: 16, ways: 4, walk_cycles: 30 }),
        ..EngineConfig::default()
    })
}

// Every workload is sized so that one pass takes about half a second of
// host time: a window's minimum settles only after some twenty readings
// (see `stats`), and a run has `--seconds`, about fifteen, to take them.

/// The paper's section-5 experiment with Table 4's shapes (1024 tasks of
/// 100 lines, 100-element merge leaves, 2048-pixel rows, 100 cities) and
/// the run lengths cut to about an eighth: 12 of 100 periods, 25 000 of
/// 100 000 elements, 128 of 2048 rows, 250 of 1000 tsp threads.
fn policy_paper(seed: u64) -> Vec<Cell> {
    let tasks_p = tasks::TasksParams { periods: 12, ..tasks::TasksParams::default() };
    let merge_p = merge::MergeParams::default();
    let merge_p = merge::MergeParams { seed: merge_p.seed + seed, elements: 25_000, ..merge_p };
    let photo_p = photo::PhotoParams::default();
    let photo_p = photo::PhotoParams { seed: photo_p.seed + seed, height: 128, ..photo_p };
    let tsp_p = tsp::TspParams::default();
    let tsp_p = tsp::TspParams { seed: tsp_p.seed + seed, thread_budget: 250, ..tsp_p };
    // Switches a cell: tasks 12 288, merge ~900, photo ~600, tsp ~500.
    let apps: [(&'static str, Spawn, u64, u64); 4] = [
        ("tasks", Spawn::Tasks(tasks_p), 16, 32),
        ("merge", Spawn::Merge(merge_p), 1, 2),
        ("photo", Spawn::Photo(photo_p), 1, 1),
        ("tsp", Spawn::Tsp(tsp_p), 1, 1),
    ];
    let mut cells = Vec::new();
    for (app, spawn, stride, model_stride) in apps {
        for policy in POLICIES {
            cells.push(Cell {
                label: format!("{app}/{}", policy.name()),
                app,
                spawn,
                policy,
                cpus: 8,
                config: EngineConfig::default(),
                stride,
                model_stride,
                dependent: false,
            });
        }
    }
    cells
}

/// Each app once, with default parameters and the run's seed.
fn mem(seed: u64, config: EngineConfig, policy: SchedPolicy) -> Vec<Cell> {
    MEM_APPS
        .into_iter()
        .map(|app| Cell {
            label: app.name().to_string(),
            app: app.name(),
            spawn: Spawn::Single(app, app.default_seed() + seed),
            policy,
            cpus: 1,
            config,
            // At most 1 536 switches a cell.
            stride: 1,
            model_stride: 1,
            dependent: false,
        })
        .collect()
}

fn sched_switch() -> Vec<Cell> {
    let mut cells = Vec::new();
    for overlap in [0.0, 0.25] {
        for cpus in [1, 8] {
            for policy in POLICIES {
                let params =
                    tasks::TasksParams { tasks: 512, footprint_lines: 4, periods: 80, overlap };
                cells.push(Cell {
                    label: format!("ov{overlap}/{cpus}cpu/{}", policy.name()),
                    app: "tasks",
                    spawn: Spawn::Tasks(params),
                    policy,
                    cpus,
                    config: EngineConfig::default(),
                    // 40 960 switches a cell at 0.4-2 us each.
                    stride: 64,
                    model_stride: 128,
                    dependent: overlap > 0.0,
                });
            }
        }
    }
    cells
}

/// The cells one pass of `workload` runs, in order. Empty for
/// `repro_small`, which goes through the runner instead.
///
/// # Errors
///
/// Returns the simulator's error if the associative geometry is invalid.
pub fn cells(workload: Workload, seed: u64) -> Result<Vec<Cell>, SimError> {
    Ok(match workload {
        Workload::ReproSmall => Vec::new(),
        Workload::PolicyPaper => policy_paper(seed),
        Workload::MemDirect => mem(seed, EngineConfig::default(), SchedPolicy::Fcfs),
        Workload::MemAssoc => mem(seed, assoc_config()?, SchedPolicy::Fcfs),
        Workload::SchedSwitch => sched_switch(),
    })
}

/// The cells whose footprint predictions are checked against the
/// simulator: the workload's own LFF cells, or, where it has none
/// (`mem_*` run FCFS), the same cells under LFF.
///
/// # Errors
///
/// Returns the simulator's error if the associative geometry is invalid.
pub fn model_cells(workload: Workload, seed: u64) -> Result<Vec<Cell>, SimError> {
    Ok(match workload {
        Workload::MemDirect => mem(seed, EngineConfig::default(), SchedPolicy::Lff),
        Workload::MemAssoc => mem(seed, assoc_config()?, SchedPolicy::Lff),
        _ => cells(workload, seed)?.into_iter().filter(|c| c.policy == SchedPolicy::Lff).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn cell_counts_and_labels() {
        for (w, n) in [
            (Workload::ReproSmall, 0),
            (Workload::PolicyPaper, 12),
            (Workload::MemDirect, 7),
            (Workload::MemAssoc, 7),
            (Workload::SchedSwitch, 12),
        ] {
            let cells = cells(w, 7).unwrap();
            assert_eq!(cells.len(), n, "{}", w.name());
            let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), n, "labels of {} repeat", w.name());
        }
    }

    #[test]
    fn the_seed_reaches_the_parameters_and_nothing_else() {
        let a = cells(Workload::MemDirect, 1).unwrap();
        let b = cells(Workload::MemDirect, 2).unwrap();
        assert_ne!(a[0].spawn, b[0].spawn);
        assert_eq!(a[0].label, b[0].label);
        let (p, q) =
            (cells(Workload::PolicyPaper, 3).unwrap(), cells(Workload::PolicyPaper, 4).unwrap());
        assert_eq!(p, cells(Workload::PolicyPaper, 3).unwrap());
        // tasks has no seed; merge has.
        assert_eq!(p[0].spawn, q[0].spawn);
        assert_ne!(p[3].spawn, q[3].spawn);
    }

    #[test]
    fn model_cells_are_the_lff_cells() {
        assert_eq!(model_cells(Workload::PolicyPaper, 0).unwrap().len(), 4);
        assert_eq!(model_cells(Workload::SchedSwitch, 0).unwrap().len(), 4);
        let mem = model_cells(Workload::MemAssoc, 0).unwrap();
        assert_eq!(mem.len(), 7);
        assert!(mem.iter().all(|c| c.policy == SchedPolicy::Lff && c.config.tlb.is_some()));
    }
}
