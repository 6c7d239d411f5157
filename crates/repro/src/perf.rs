//! The §5 performance harness: runs tasks/merge/photo/tsp under each
//! scheduling policy on the 1-cpu Ultra-1 and the 8-cpu Enterprise 5000
//! (Figures 8 and 9, Table 5, and the ablations).

use crate::args::Scale;
use active_threads::{Engine, EngineConfig, RunReport, RuntimeError, SchedPolicy};
use locality_sim::MachineConfig;
use locality_workloads::{merge, photo, tasks, tsp};

/// The four §5 applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfApp {
    /// Squillante–Lazowska disjoint tasks.
    Tasks,
    /// Parallel mergesort.
    Merge,
    /// Row-threaded image filter.
    Photo,
    /// Branch-and-bound TSP.
    Tsp,
}

impl PerfApp {
    /// All four, in the paper's order.
    pub const ALL: [PerfApp; 4] = [PerfApp::Tasks, PerfApp::Merge, PerfApp::Photo, PerfApp::Tsp];

    /// Lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            PerfApp::Tasks => "tasks",
            PerfApp::Merge => "merge",
            PerfApp::Photo => "photo",
            PerfApp::Tsp => "tsp",
        }
    }

    /// Spawns the app into an engine at the given scale (Table 4
    /// parameters for [`Scale::Paper`]).
    pub fn spawn(&self, engine: &mut Engine, scale: Scale) {
        match self {
            PerfApp::Tasks => {
                let params = match scale {
                    Scale::Paper => tasks::TasksParams::default(),
                    Scale::Small => tasks::TasksParams {
                        tasks: 96,
                        footprint_lines: 100,
                        periods: 12,
                        overlap: 0.0,
                    },
                };
                tasks::spawn_parallel(engine, &params);
            }
            PerfApp::Merge => {
                let params = match scale {
                    Scale::Paper => merge::MergeParams::default(),
                    Scale::Small => merge::MergeParams { elements: 20_000, cutoff: 100, seed: 12 },
                };
                merge::spawn_parallel(engine, &params);
            }
            PerfApp::Photo => {
                let params = match scale {
                    Scale::Paper => photo::PhotoParams::default(),
                    Scale::Small => photo::PhotoParams {
                        width: 512,
                        height: 96,
                        filter_radius: 2,
                        share_radius: 4,
                        seed: 5,
                    },
                };
                photo::spawn_parallel(engine, &params);
            }
            PerfApp::Tsp => {
                let params = match scale {
                    Scale::Paper => tsp::TspParams::default(),
                    Scale::Small => {
                        tsp::TspParams { cities: 48, thread_budget: 120, max_depth: 10, seed: 3 }
                    }
                };
                tsp::spawn_parallel(engine, &params);
            }
        }
    }
}

/// Runs one `(app, policy, machine)` cell and returns the report.
///
/// # Errors
///
/// Returns the engine's [`RuntimeError`] if the workload cannot
/// complete.
pub fn run_cell(
    app: PerfApp,
    policy: SchedPolicy,
    cpus: usize,
    scale: Scale,
) -> Result<RunReport, RuntimeError> {
    let machine =
        if cpus == 1 { MachineConfig::ultra1() } else { MachineConfig::enterprise5000(cpus) };
    let mut engine = Engine::new(machine, policy, EngineConfig::default())?;
    app.spawn(&mut engine, scale);
    engine.run()
}

/// One application's results across the three policies, assembled from
/// already-completed reports (the experiment runner executes the cells
/// independently and possibly in parallel or from cache).
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// The application.
    pub app: PerfApp,
    /// Processors used.
    pub cpus: usize,
    /// FCFS baseline.
    pub fcfs: RunReport,
    /// Largest Footprint First.
    pub lff: RunReport,
    /// Cache-reload ratio.
    pub crt: RunReport,
}

impl PolicyComparison {
    /// `(normalized misses, speedup)` for a policy report vs FCFS.
    pub fn vs_fcfs(&self, report: &RunReport) -> (f64, f64) {
        let norm_misses = if self.fcfs.total_l2_misses == 0 {
            1.0
        } else {
            report.total_l2_misses as f64 / self.fcfs.total_l2_misses as f64
        };
        (norm_misses, report.speedup_over(&self.fcfs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_names() {
        let names: Vec<_> = PerfApp::ALL.iter().map(PerfApp::name).collect();
        assert_eq!(names, vec!["tasks", "merge", "photo", "tsp"]);
    }

    #[test]
    fn small_cells_run_everywhere() {
        for app in PerfApp::ALL {
            let r = run_cell(app, SchedPolicy::Fcfs, 2, Scale::Small).unwrap();
            assert!(r.threads_completed > 0, "{app:?}");
            assert!(r.total_l2_misses > 0);
        }
    }

    #[test]
    fn comparison_shape_tasks_smp() {
        // The headline effect at small scale: locality policies eliminate
        // misses for oversubscribed disjoint tasks.
        let cell = |policy| run_cell(PerfApp::Tasks, policy, 2, Scale::Small).unwrap();
        let cmp = PolicyComparison {
            app: PerfApp::Tasks,
            cpus: 2,
            fcfs: cell(SchedPolicy::Fcfs),
            lff: cell(SchedPolicy::Lff),
            crt: cell(SchedPolicy::Crt),
        };
        let (norm_lff, speed_lff) = cmp.vs_fcfs(&cmp.lff);
        assert!(norm_lff < 0.9, "LFF should cut misses, got {norm_lff:.2}");
        assert!(speed_lff > 1.0, "LFF should speed up, got {speed_lff:.2}");
    }
}
