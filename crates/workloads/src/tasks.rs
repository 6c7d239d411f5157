//! The *tasks* benchmark (paper §5, after Squillante & Lazowska):
//! a fixed number of identical threads with equal-sized **disjoint**
//! footprints that repeatedly wake up, touch their whole state, and block
//! for the same duration they were active.
//!
//! Because the states are disjoint, `at_share` annotations are irrelevant
//! here (paper: "user annotations are not relevant in this case"); all
//! locality benefit comes from the counter-driven footprint model alone.

use crate::common::LINE;
use active_threads::{BatchCtx, Control, Engine, Program, ThreadId};
use locality_sim::VAddr;

/// Parameters of a `tasks` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TasksParams {
    /// Number of identical tasks (paper: 1024).
    pub tasks: usize,
    /// Footprint of each task in cache lines (paper: 100).
    pub footprint_lines: u64,
    /// Scheduling periods per task (paper: 100).
    pub periods: u32,
    /// Fraction of each task's state shared with its successor (paper:
    /// 0 — disjoint; non-zero values build the overlapped variant used
    /// by the sharing-inference ablation).
    pub overlap: f64,
}

impl Default for TasksParams {
    fn default() -> Self {
        TasksParams { tasks: 1024, footprint_lines: 100, periods: 100, overlap: 0.0 }
    }
}

impl TasksParams {
    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        TasksParams { tasks: 32, footprint_lines: 50, periods: 10, overlap: 0.0 }
    }
}

/// One task: touch the whole state, then sleep for as long as the touch
/// took, `periods` times.
#[derive(Debug)]
struct Task {
    region: VAddr,
    bytes: u64,
    periods_left: u32,
    /// Whether the region is registered: the first period does it, and
    /// it stays the same region until the task exits.
    registered: bool,
}

impl Task {
    fn new(region: VAddr, bytes: u64, periods: u32) -> Box<Self> {
        Box::new(Task { region, bytes, periods_left: periods, registered: false })
    }
}

impl Program for Task {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        if self.periods_left == 0 {
            return Control::Exit;
        }
        if !self.registered {
            ctx.register_region(self.region, self.bytes);
            self.registered = true;
        }
        ctx.read_range(self.region, self.bytes, LINE);
        // A little computation per line, like a real periodic task.
        ctx.compute(self.bytes / LINE * 4);
        self.periods_left -= 1;
        if self.periods_left == 0 {
            Control::Exit
        } else {
            // Block for the same duration the task was active (paper).
            Control::Sleep(ctx.batch_cycles())
        }
    }
}

/// Allocates per-task state (disjoint, or overlapped per
/// [`TasksParams::overlap`]) and spawns all tasks. Returns the thread
/// ids in creation order.
///
/// Overlapped neighbours are annotated with `at_share` (disjoint tasks
/// have nothing to annotate, as in the paper); a run that should ignore
/// annotations selects a no-annotations policy instead.
pub fn spawn_parallel(engine: &mut Engine, params: &TasksParams) -> Vec<ThreadId> {
    let bytes = params.footprint_lines * LINE;
    let overlap = params.overlap.clamp(0.0, 0.9);
    let stride_lines = ((params.footprint_lines as f64) * (1.0 - overlap)).round().max(1.0) as u64;
    let mut tids = Vec::with_capacity(params.tasks);
    if overlap == 0.0 {
        for _ in 0..params.tasks {
            let region = engine.machine_mut().alloc(bytes, LINE);
            tids.push(engine.spawn(Task::new(region, bytes, params.periods)));
        }
        return tids;
    }
    if params.tasks == 0 {
        return tids;
    }
    // Overlapped: one arena, regions at a sub-footprint stride.
    let arena_bytes = stride_lines * LINE * (params.tasks as u64 - 1) + bytes;
    let arena = engine.machine_mut().alloc(arena_bytes, LINE);
    for i in 0..params.tasks {
        let region = arena.offset(i as u64 * stride_lines * LINE);
        let tid = engine.spawn(Task::new(region, bytes, params.periods));
        engine.machine_mut().register_region(tid, region, bytes);
        tids.push(tid);
    }
    for i in 0..params.tasks.saturating_sub(1) {
        let q = engine.machine().regions().coefficient(tids[i], tids[i + 1]);
        let q_rev = engine.machine().regions().coefficient(tids[i + 1], tids[i]);
        let _ = engine.annotate(tids[i], tids[i + 1], q);
        let _ = engine.annotate(tids[i + 1], tids[i], q_rev);
    }
    tids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::SchedPolicy;

    fn run(policy: SchedPolicy, params: &TasksParams) -> active_threads::RunReport {
        let mut e = ultra1_engine(policy);
        spawn_parallel(&mut e, params);
        e.run().unwrap()
    }

    #[test]
    fn all_tasks_complete() {
        let report = run(SchedPolicy::Fcfs, &TasksParams::small());
        assert_eq!(report.threads_completed, 32);
        // 32 tasks × 50 lines compulsory misses at minimum.
        assert!(report.total_l2_misses >= 32 * 50);
    }

    #[test]
    fn lff_eliminates_misses_when_oversubscribed() {
        // Enough tasks that FCFS round-robin destroys all reuse: the
        // aggregate state (300 × 100 lines) is ~4x the 8192-line cache.
        let params = TasksParams { tasks: 300, footprint_lines: 100, periods: 12, overlap: 0.0 };
        let fcfs = run(SchedPolicy::Fcfs, &params);
        let lff = run(SchedPolicy::Lff, &params);
        assert_eq!(lff.threads_completed, 300);
        let eliminated = lff.misses_eliminated_vs(&fcfs);
        assert!(
            eliminated > 0.3,
            "LFF should eliminate a large share of misses, got {:.1}%",
            eliminated * 100.0
        );
        assert!(lff.speedup_over(&fcfs) > 1.05, "speedup {:.2}", lff.speedup_over(&fcfs));
    }

    #[test]
    fn overlapped_variant_shares_state() {
        let params = TasksParams { tasks: 8, footprint_lines: 64, periods: 2, overlap: 0.5 };
        let mut e = ultra1_engine(SchedPolicy::Lff);
        let tids = spawn_parallel(&mut e, &params);
        let q = e.graph().weight(tids[0], tids[1]);
        assert!((q - 0.5).abs() < 0.05, "expected ~0.5 overlap, got {q}");
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 8);
    }

    #[test]
    fn zero_overlapped_tasks_allocate_nothing() {
        // `tasks - 1` used to wrap when sizing the arena: a panic in a debug
        // build, a bump cursor moved by the wrapped size in release.
        let mut e = ultra1_engine(SchedPolicy::Lff);
        let mut cursor = e.machine_mut().alloc(LINE, LINE);
        for footprint_lines in [0, 4] {
            let none = TasksParams { tasks: 0, footprint_lines, periods: 3, overlap: 0.25 };
            assert!(spawn_parallel(&mut e, &none).is_empty());
            let next = e.machine_mut().alloc(LINE, LINE);
            assert_eq!(next, cursor.offset(LINE), "{footprint_lines}-line tasks moved the cursor");
            cursor = next;
        }
        // The engine is as good as new: a normal cell runs to completion.
        let params = TasksParams { tasks: 8, footprint_lines: 64, periods: 2, overlap: 0.5 };
        assert_eq!(spawn_parallel(&mut e, &params).len(), 8);
        assert_eq!(e.run().unwrap().threads_completed, 8);
    }

    #[test]
    fn tasks_without_periods_exit_at_once() {
        // `periods_left -= 1` ran before the exit test: a subtraction
        // overflow in a debug build, 2^32 - 1 periods in release.
        for overlap in [0.0, 0.25] {
            let params = TasksParams { tasks: 4, footprint_lines: 8, periods: 0, overlap };
            let report = run(SchedPolicy::Lff, &params);
            assert_eq!(report.threads_completed, 4);
            assert_eq!((report.total_l2_refs, report.total_instructions), (0, 0), "{overlap}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let params = TasksParams::small();
        let a = run(SchedPolicy::Crt, &params);
        let b = run(SchedPolicy::Crt, &params);
        assert_eq!(a, b);
    }
}
