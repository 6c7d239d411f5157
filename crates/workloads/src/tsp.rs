//! *tsp*: branch-and-bound travelling salesman (paper §5).
//!
//! "The solution space is repeatedly divided into two subspaces for the
//! solutions with a given edge and those without the edge. Solution
//! subspaces are represented as adjacency matrices. … The application is
//! irregular in nature and performs a significant fraction of time
//! accessing data."
//!
//! Each thread owns a *copy* of the reduced cost matrix (allocated from
//! the shared heap under a mutex, like the paper's lock-protected Solaris
//! allocator), performs a real row/column reduction to compute its lower
//! bound, and either completes a tour greedily or branches by spawning
//! two children with freshly-copied matrices. Parents therefore
//! *prefetch data for their children* (they write the copies), which the
//! annotations record — and, as in the paper, the tree shape is fixed by
//! a depth/budget rule rather than by the racy incumbent bound, so every
//! scheduling policy performs **equal work**. Each node carries its own
//! spawn budget, split between its children when it branches, so the set
//! of evaluated tours (not just their count) is independent of dispatch
//! order.

use crate::common::{rng, LineToucher, LINE};
use active_threads::{BatchCtx, Control, Engine, MutexId, Program, ThreadId};
use locality_sim::VAddr;
use rand::Rng;
use std::cell::Cell;
use std::rc::Rc;

/// Parameters of a tsp run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TspParams {
    /// Number of cities (paper: 100).
    pub cities: usize,
    /// Total thread budget (paper: "measured the execution of 1000
    /// threads").
    pub thread_budget: u32,
    /// Maximum branching depth.
    pub max_depth: u32,
    /// Seed for the city coordinates.
    pub seed: u64,
}

impl Default for TspParams {
    fn default() -> Self {
        TspParams { cities: 100, thread_budget: 1000, max_depth: 16, seed: 3 }
    }
}

impl TspParams {
    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        TspParams { cities: 32, thread_budget: 30, max_depth: 6, seed: 3 }
    }

    /// Bytes of one cost matrix (u32 entries).
    pub fn matrix_bytes(&self) -> u64 {
        (self.cities * self.cities * 4) as u64
    }
}

const INF: u32 = u32::MAX / 4;

/// Row then column reduction of the `n × n` matrix `m` (`n ≥ 1`, entries
/// at most [`INF`], which marks a forbidden edge), in place. Returns the amount
/// reduced and the branching edge: the zero entry with the largest regret
/// (the smallest other entry of its row plus that of its column, Little's
/// rule), the first in row-major order on a tie.
///
/// Both sweeps run along rows. The row reduction folds each reduced row
/// into the column minima; the column subtraction keeps, per row and per
/// column, the zero count and the smallest non-zero entry. A zero's
/// alternative is then 0 if its row (or column) holds another zero, and
/// that smallest entry otherwise.
fn reduce_matrix(m: &mut [u32], n: usize) -> (u64, Option<(usize, usize)>) {
    let reducible = |min: u32| if min > 0 && min < INF { min } else { 0 };
    let mut total = 0u64;
    let mut col_sub = vec![u32::MAX; n];
    for row in m.chunks_exact_mut(n) {
        let sub = reducible(row.iter().copied().min().unwrap_or(0));
        total += u64::from(sub);
        for (v, col_min) in row.iter_mut().zip(&mut col_sub) {
            *v -= if *v < INF { sub } else { 0 };
            *col_min = (*col_min).min(*v);
        }
    }
    for col_min in &mut col_sub {
        *col_min = reducible(*col_min);
        total += u64::from(*col_min);
    }
    // Zero count and smallest non-zero entry, per row and per column
    // (one array each, and plain loops, so the sweep vectorizes).
    let mut row_stats = Vec::with_capacity(n);
    let (mut col_zeros, mut col_alt) = (vec![0u32; n], vec![INF; n]);
    for row in m.chunks_exact_mut(n) {
        for (v, &sub) in row.iter_mut().zip(&col_sub) {
            *v -= if *v < INF { sub } else { 0 };
        }
        let (mut zeros, mut alt) = (0u32, INF);
        for ((&v, col_zeros), col_alt) in row.iter().zip(&mut col_zeros).zip(&mut col_alt) {
            let nonzero = if v == 0 { INF } else { v };
            zeros += u32::from(v == 0);
            *col_zeros += u32::from(v == 0);
            alt = alt.min(nonzero);
            *col_alt = (*col_alt).min(nonzero);
        }
        row_stats.push((zeros, alt));
    }
    let other = |zeros: u32, alt: u32| if zeros > 1 { 0 } else { u64::from(alt) };
    let mut best: Option<((usize, usize), u64)> = None;
    for (i, (row, &(zeros, alt))) in m.chunks_exact(n).zip(&row_stats).enumerate() {
        if zeros == 0 {
            continue;
        }
        for j in (0..n).filter(|&j| row[j] == 0) {
            let regret = other(zeros, alt) + other(col_zeros[j], col_alt[j]);
            if best.is_none_or(|(_, most)| regret > most) {
                best = Some(((i, j), regret));
            }
        }
    }
    (total, best.map(|(edge, _)| edge))
}

/// State shared by all tsp threads.
#[derive(Debug)]
pub struct TspShared {
    /// City-to-city distances (dense, row-major).
    pub dist: Vec<u32>,
    /// Number of cities.
    pub n: usize,
    /// Best tour cost found (updated under `best_mutex`).
    pub best: Cell<u64>,
    /// Tours completed (leaf evaluations).
    pub tours: Cell<u64>,
    /// Simulated address of the incumbent record.
    pub best_addr: VAddr,
    /// Remaining thread budget.
    pub budget: Cell<i64>,
    params: TspParams,
}

impl TspShared {
    /// Builds a random euclidean instance.
    pub fn new(best_addr: VAddr, params: &TspParams) -> Rc<Self> {
        let n = params.cities;
        let mut r = rng(params.seed);
        let coords: Vec<(f64, f64)> =
            (0..n).map(|_| (r.gen::<f64>() * 1000.0, r.gen::<f64>() * 1000.0)).collect();
        let mut dist = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    dist[i * n + j] = INF;
                } else {
                    let (dx, dy) = (coords[i].0 - coords[j].0, coords[i].1 - coords[j].1);
                    dist[i * n + j] = (dx * dx + dy * dy).sqrt() as u32;
                }
            }
        }
        Rc::new(TspShared {
            dist,
            n,
            best: Cell::new(u64::MAX),
            tours: Cell::new(0),
            best_addr,
            budget: Cell::new(params.thread_budget as i64),
            params: *params,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Reduce,
    AllocChildren,
    CopyAndSpawn,
    UpdateBest,
    Done,
}

/// One branch-and-bound task.
pub struct TspTask {
    shared: Rc<TspShared>,
    /// This task's private cost matrix (native values).
    matrix: Vec<u32>,
    /// Simulated address of the matrix.
    matrix_addr: VAddr,
    depth: u32,
    bound: u64,
    /// Threads this subtree may still spawn. Fixed at spawn time (the
    /// parent splits its own budget between its children), so the tree
    /// shape never depends on dispatch order.
    node_budget: i64,
    alloc_mutex: MutexId,
    best_mutex: MutexId,
    phase: Phase,
    child_addrs: [Option<VAddr>; 2],
    /// The branching edge chosen during reduction.
    branch_edge: Option<(usize, usize)>,
    tour_cost: u64,
}

impl TspTask {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shared: Rc<TspShared>,
        matrix: Vec<u32>,
        matrix_addr: VAddr,
        depth: u32,
        bound: u64,
        node_budget: i64,
        alloc_mutex: MutexId,
        best_mutex: MutexId,
    ) -> Self {
        TspTask {
            shared,
            matrix,
            matrix_addr,
            depth,
            bound,
            node_budget,
            alloc_mutex,
            best_mutex,
            phase: Phase::Reduce,
            child_addrs: [None, None],
            branch_edge: None,
            tour_cost: 0,
        }
    }

    /// Real row+column reduction of the matrix ([`reduce_matrix`]);
    /// returns the reduction amount and sets the branching edge.
    fn reduce(&mut self, ctx: &mut BatchCtx<'_>) -> u64 {
        let n = self.shared.n;
        // Read the whole matrix, reduce it, write it back: 4n² for the
        // reduction and n² for the branching-edge search.
        self.touch_matrix_inner(ctx, false);
        let (total, edge) = reduce_matrix(&mut self.matrix, n);
        self.touch_matrix_inner(ctx, true);
        ctx.compute((n * n * 5) as u64);
        self.branch_edge = edge;
        total
    }

    fn touch_matrix_inner(&self, ctx: &mut BatchCtx<'_>, write: bool) {
        let bytes = self.shared.params.matrix_bytes();
        if write {
            ctx.write_range(self.matrix_addr, bytes, LINE);
        } else {
            ctx.read_range(self.matrix_addr, bytes, LINE);
        }
    }

    /// Real greedy tour completion on the *original* distances (the
    /// reduced matrix guides, the true cost is reported).
    fn greedy_tour(&self, ctx: &mut BatchCtx<'_>) -> u64 {
        let n = self.shared.n;
        let dist = &self.shared.dist;
        let mut visited = vec![false; n];
        let start = self.depth as usize % n;
        let mut at = start;
        visited[at] = true;
        let mut cost = 0u64;
        let mut touch = LineToucher::new();
        for _ in 1..n {
            // Scan the current row of our matrix for the cheapest edge —
            // one batched run over the row's lines.
            touch.read_span(ctx, self.matrix_addr.offset((at * n * 4) as u64), (n * 4) as u64);
            let next = (0..n)
                .filter(|&j| !visited[j])
                .min_by_key(|&j| dist[at * n + j])
                .expect("unvisited city exists");
            cost += dist[at * n + next] as u64;
            visited[next] = true;
            at = next;
            ctx.compute(n as u64);
        }
        cost + dist[at * n + start] as u64
    }

    fn is_leaf(&self) -> bool {
        self.depth >= self.shared.params.max_depth
            || self.branch_edge.is_none()
            || self.node_budget < 2
    }
}

impl Program for TspTask {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        match self.phase {
            // No cities, no tour: exit without a reference.
            Phase::Reduce if self.shared.n == 0 => Control::Exit,
            Phase::Reduce => {
                let bytes = self.shared.params.matrix_bytes();
                ctx.register_region(self.matrix_addr, bytes);
                let reduced = self.reduce(ctx);
                self.bound += reduced;
                if self.is_leaf() {
                    self.tour_cost = self.greedy_tour(ctx);
                    self.phase = Phase::UpdateBest;
                    return Control::Lock(self.best_mutex);
                }
                self.phase = Phase::AllocChildren;
                Control::Lock(self.alloc_mutex)
            }
            Phase::AllocChildren => {
                // The spawn decision was made from this node's own budget
                // share, so nothing needs re-checking under the lock — it
                // only serialises the allocator, like the paper's
                // lock-protected Solaris malloc. The shared cell just
                // keeps global accounting.
                let bytes = self.shared.params.matrix_bytes();
                self.child_addrs = [Some(ctx.alloc(bytes, LINE)), Some(ctx.alloc(bytes, LINE))];
                self.shared.budget.set(self.shared.budget.get() - 2);
                self.phase = Phase::CopyAndSpawn;
                Control::Unlock(self.alloc_mutex)
            }
            Phase::CopyAndSpawn => {
                let n = self.shared.n;
                let bytes = self.shared.params.matrix_bytes();
                let (bi, bj) = self.branch_edge.expect("branch edge chosen");
                // Child 0: edge (bi,bj) *included* — forbid the row/col
                // and the reverse edge. Child 1: edge *excluded*. The
                // parent exits here, so child 1 takes its matrix.
                let mut without_edge = std::mem::take(&mut self.matrix);
                let mut with_edge = without_edge.clone();
                for k in 0..n {
                    with_edge[bi * n + k] = INF;
                    with_edge[k * n + bj] = INF;
                }
                with_edge[bj * n + bi] = INF;
                without_edge[bi * n + bj] = INF;

                // Split the remaining spawn budget between the subtrees:
                // the include-edge child (deeper, more promising) gets
                // the larger half of an odd remainder.
                let rem = self.node_budget - 2;
                let child_budget = [rem - rem / 2, rem / 2];

                let me = ctx.self_id();
                for (slot, (matrix, extra_bound)) in
                    [(0, (with_edge, 0u64)), (1, (without_edge, 0u64))]
                {
                    let addr = self.child_addrs[slot].expect("allocated");
                    // The parent writes the child's matrix: real prefetch.
                    ctx.read_range(self.matrix_addr, bytes, LINE);
                    ctx.write_range(addr, bytes, LINE);
                    let child = TspTask::new(
                        self.shared.clone(),
                        matrix,
                        addr,
                        self.depth + 1,
                        self.bound + extra_bound,
                        child_budget[slot],
                        self.alloc_mutex,
                        self.best_mutex,
                    );
                    let tid = ctx.spawn(Box::new(child));
                    ctx.register_region_for(tid, addr, bytes);
                    // Parent state now includes the copies it wrote.
                    ctx.register_region(addr, bytes);
                    // Annotations: the parent prefetched the child's whole
                    // matrix (q from the exact overlap), and the child's
                    // activity keeps a slice of the parent's state warm.
                    let q_fwd = ctx.machine().regions().coefficient(me, tid);
                    let q_rev = ctx.machine().regions().coefficient(tid, me);
                    let _ = ctx.at_share(me, tid, q_fwd);
                    let _ = ctx.at_share(tid, me, q_rev);
                }
                self.phase = Phase::Done;
                Control::Exit
            }
            Phase::UpdateBest => {
                // Holding the best mutex: record the tour.
                ctx.read(self.shared.best_addr);
                let cost = self.bound.max(self.tour_cost);
                if cost < self.shared.best.get() {
                    self.shared.best.set(cost);
                    ctx.write(self.shared.best_addr);
                }
                self.shared.tours.set(self.shared.tours.get() + 1);
                self.phase = Phase::Done;
                Control::Unlock(self.best_mutex)
            }
            Phase::Done => Control::Exit,
        }
    }
}

/// Sets up the instance and spawns the root task.
/// Returns `(shared, root id)`.
pub fn spawn_parallel(engine: &mut Engine, params: &TspParams) -> (Rc<TspShared>, ThreadId) {
    let best_addr = engine.machine_mut().alloc(64, LINE);
    let shared = TspShared::new(best_addr, params);
    let alloc_mutex = engine.sync_tables_mut().create_mutex();
    let best_mutex = engine.sync_tables_mut().create_mutex();
    let bytes = params.matrix_bytes();
    let root_matrix_addr = engine.machine_mut().alloc(bytes, LINE);
    // The root holds the full spawn budget (minus itself); it hands
    // shares down the tree as it branches.
    let root = TspTask::new(
        shared.clone(),
        shared.dist.clone(),
        root_matrix_addr,
        0,
        0,
        params.thread_budget as i64 - 1,
        alloc_mutex,
        best_mutex,
    );
    shared.budget.set(shared.budget.get() - 1);
    let tid = engine.spawn(Box::new(root));
    engine.machine_mut().register_region(tid, root_matrix_addr, bytes);
    (shared, tid)
}

/// The Figure 5 monitored work thread: a depth-first branch-and-bound
/// walk performed by a single thread — each round it reduces its current
/// matrix, evaluates a tour, then allocates and copies a child subspace
/// matrix (the real algorithm's allocation behaviour: most of its misses
/// are compulsory, on the freshly initialized subspaces).
pub struct TspWorker {
    shared: Rc<TspShared>,
    task: TspTask,
    rounds: u32,
}

impl Program for TspWorker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        if self.rounds == 0 || self.shared.n == 0 {
            return Control::Exit;
        }
        self.rounds -= 1;
        let bytes = self.shared.params.matrix_bytes();
        ctx.register_region(self.task.matrix_addr, bytes);
        let _ = self.task.reduce(ctx);
        let _ = self.task.greedy_tour(ctx);
        if self.rounds > 0 {
            // Descend: allocate the child subspace and copy the reduced
            // matrix into it (read parent, write child), like the
            // parallel tasks do.
            let child_addr = ctx.alloc(bytes, LINE);
            ctx.register_region(child_addr, bytes);
            ctx.read_range(self.task.matrix_addr, bytes, LINE);
            ctx.write_range(child_addr, bytes, LINE);
            if let Some((bi, bj)) = self.task.branch_edge {
                let (n, m) = (self.shared.n, &mut self.task.matrix);
                for k in 0..n {
                    m[bi * n + k] = INF;
                    m[k * n + bj] = INF;
                }
            }
            self.task.matrix_addr = child_addr;
            self.task.depth += 1;
        }
        Control::Yield
    }
}

/// Spawns the monitored single worker.
pub fn spawn_single(engine: &mut Engine, params: &TspParams) -> ThreadId {
    let best_addr = engine.machine_mut().alloc(64, LINE);
    let shared = TspShared::new(best_addr, params);
    let alloc_mutex = engine.sync_tables_mut().create_mutex();
    let best_mutex = engine.sync_tables_mut().create_mutex();
    let bytes = params.matrix_bytes();
    let addr = engine.machine_mut().alloc(bytes, LINE);
    // The single worker never spawns, so its budget share is zero.
    let task =
        TspTask::new(shared.clone(), shared.dist.clone(), addr, 0, 0, 0, alloc_mutex, best_mutex);
    engine.spawn(Box::new(TspWorker { shared, task, rounds: 24 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::{EngineConfig, SchedPolicy};
    use locality_sim::MachineConfig;

    fn run(
        cpus: usize,
        policy: SchedPolicy,
        params: &TspParams,
    ) -> (active_threads::RunReport, u64, u64) {
        let config =
            if cpus == 1 { MachineConfig::ultra1() } else { MachineConfig::enterprise5000(cpus) };
        let mut e = active_threads::Engine::new(config, policy, EngineConfig::default()).unwrap();
        let (shared, _) = spawn_parallel(&mut e, params);
        let report = e.run().unwrap();
        (report, shared.best.get(), shared.tours.get())
    }

    #[test]
    fn finds_a_tour_and_respects_budget() {
        let params = TspParams::small();
        let (report, best, tours) = run(1, SchedPolicy::Fcfs, &params);
        assert!(best < u64::MAX, "some tour must be recorded");
        assert!(tours > 0);
        assert!(report.threads_completed <= params.thread_budget as u64 + 1);
        assert!(report.threads_completed > 5, "tree must branch");
    }

    #[test]
    fn equal_work_across_policies() {
        // The deterministic budget/depth rule must give every policy the
        // same number of threads and tours.
        let params = TspParams::small();
        let (r1, b1, t1) = run(1, SchedPolicy::Fcfs, &params);
        let (r2, b2, t2) = run(1, SchedPolicy::Lff, &params);
        assert_eq!(r1.threads_completed, r2.threads_completed);
        assert_eq!(t1, t2);
        assert_eq!(b1, b2, "same tours evaluated => same best");
    }

    #[test]
    fn greedy_tour_cost_is_sane() {
        // A tour visits every city once: its cost must be at least the
        // number of edges times the minimum distance.
        let params = TspParams::small();
        let (_, best, _) = run(1, SchedPolicy::Fcfs, &params);
        let shared = TspShared::new(VAddr(0x1000), &params);
        let min_d = shared.dist.iter().copied().filter(|&d| d > 0 && d < INF).min().unwrap() as u64;
        assert!(best >= min_d * params.cities as u64 / 2);
    }

    #[test]
    fn smp_run_completes_deterministically() {
        let params = TspParams::small();
        let (a, _, _) = run(4, SchedPolicy::Crt, &params);
        let (b, _, _) = run(4, SchedPolicy::Crt, &params);
        assert_eq!(a, b);
    }

    #[test]
    fn single_worker_runs() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        spawn_single(&mut e, &TspParams::small());
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert!(report.total_l2_misses > 0);
    }

    /// Default parameters: the tree, best tour and tour count measured
    /// under the five-sweep reduction, on one cpu and on eight. No CSV
    /// prints them, and the reference stream does not depend on
    /// `reduce`'s result. Seconds in release, where `ci.sh` runs it.
    #[test]
    #[ignore]
    fn default_parameters_are_pinned() {
        for (cpus, policy) in [(1, SchedPolicy::Fcfs), (8, SchedPolicy::Lff)] {
            let (report, best, tours) = run(cpus, policy, &TspParams::default());
            assert_eq!((best, tours, report.threads_completed), (9289, 489, 977), "{policy:?}");
        }
    }

    #[test]
    fn zero_cities_exit_at_once() {
        let params = TspParams { cities: 0, ..TspParams::small() };
        let (report, best, tours) = run(1, SchedPolicy::Fcfs, &params);
        assert_eq!((report.threads_completed, best, tours), (1, u64::MAX, 0));
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        spawn_single(&mut e, &params);
        for report in [report, e.run().unwrap()] {
            assert_eq!((report.total_l2_refs, report.total_instructions), (0, 0));
        }
    }

    /// The reduction as five sweeps (row minima and subtraction, column
    /// minima and subtraction, then a row and a column rescan per zero):
    /// the oracle [`reduce_matrix`] is held to.
    fn five_sweep_reduce(m: &mut [u32], n: usize) -> (u64, Option<(usize, usize)>) {
        let mut total = 0u64;
        for i in 0..n {
            let row_min = (0..n).map(|j| m[i * n + j]).min().unwrap_or(0);
            if row_min > 0 && row_min < INF {
                total += row_min as u64;
                for j in 0..n {
                    if m[i * n + j] < INF {
                        m[i * n + j] -= row_min;
                    }
                }
            }
        }
        for j in 0..n {
            let col_min = (0..n).map(|i| m[i * n + j]).min().unwrap_or(0);
            if col_min > 0 && col_min < INF {
                total += col_min as u64;
                for i in 0..n {
                    if m[i * n + j] < INF {
                        m[i * n + j] -= col_min;
                    }
                }
            }
        }
        let mut best_edge = None;
        let mut best_regret = 0u64;
        for i in 0..n {
            for j in 0..n {
                if m[i * n + j] == 0 {
                    let row_alt =
                        (0..n).filter(|&k| k != j).map(|k| m[i * n + k]).min().unwrap_or(INF);
                    let col_alt =
                        (0..n).filter(|&k| k != i).map(|k| m[k * n + j]).min().unwrap_or(INF);
                    let regret = row_alt as u64 + col_alt as u64;
                    if best_edge.is_none() || regret > best_regret {
                        best_edge = Some((i, j));
                        best_regret = regret;
                    }
                }
            }
        }
        (total, best_edge)
    }

    #[test]
    fn reduction_equals_five_sweeps() {
        let mut r = rng(29);
        let sizes = (0..3000).map(|case| 1 + case % 12).chain([100; 40]);
        for (case, n) in sizes.enumerate() {
            // Few distinct values make ties and repeated zeros common;
            // forbidden entries, rows and columns are what branching makes.
            let spread = [3, 40, 5000][case % 3];
            let mut m: Vec<u32> = (0..n * n)
                .map(|_| if r.gen_bool(0.1) { INF } else { r.gen_range(0..spread) })
                .collect();
            for k in 0..n {
                if r.gen_bool(0.1) {
                    m[k * n..(k + 1) * n].fill(INF);
                }
                if r.gen_bool(0.1) {
                    (0..n).for_each(|i| m[i * n + k] = INF);
                }
            }
            let mut oracle = m.clone();
            let want = five_sweep_reduce(&mut oracle, n);
            assert_eq!(reduce_matrix(&mut m, n), want, "case {case}, n {n}");
            assert_eq!(m, oracle, "case {case}, n {n}");
        }
    }
}
