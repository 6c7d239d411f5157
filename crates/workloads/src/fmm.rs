//! *fmm*: a fast multipole method in two dimensions (SPLASH-2's FMM,
//! paper §3.3: "using the adaptive Fast Multipole…").
//!
//! A real (truncated, p-term) 2-D multipole solver over a uniform
//! quadtree: upward pass (P2M then M2M), translation pass (M2L over each
//! cell's interaction list), downward pass (L2L), and near-field direct
//! evaluation (P2P). Each cell's expansion occupies one simulated cache
//! line; particles occupy lines of their own region. The phase structure
//! produces the characteristic burst-then-steady reference pattern of
//! hierarchical N-body codes.

// Coordinate loops index several parallel arrays; enumerate() would
// obscure them.
#![allow(clippy::needless_range_loop)]

use crate::common::{rng, LINE};
use active_threads::{BatchCtx, Control, Engine, Program, ThreadId};
use locality_sim::VAddr;
use rand::Rng;
use std::rc::Rc;

/// Number of multipole terms.
const P: usize = 4;

/// Parameters of an fmm run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmmParams {
    /// Number of particles.
    pub particles: usize,
    /// Quadtree depth (leaves = 4^depth).
    pub depth: u32,
    /// Cells processed per batch.
    pub cells_per_batch: usize,
    /// Full FMM iterations (time steps).
    pub iterations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FmmParams {
    fn default() -> Self {
        FmmParams { particles: 4096, depth: 4, cells_per_batch: 16, iterations: 4, seed: 33 }
    }
}

impl FmmParams {
    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        FmmParams { particles: 256, depth: 3, cells_per_batch: 16, iterations: 2, seed: 33 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Particle {
    x: f64,
    y: f64,
    q: f64,
    potential: f64,
}

#[derive(Debug, Clone, Default)]
struct Cell {
    /// Multipole coefficients about the cell center.
    multipole: [f64; P],
    /// Local expansion coefficients.
    local: [f64; P],
    cx: f64,
    cy: f64,
    /// Particle indices (leaves only).
    members: Vec<usize>,
}

/// Phases of the FMM work thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    P2m,
    M2m { level: u32 },
    M2l { level: u32 },
    L2l { level: u32 },
    Evaluate,
    Done,
}

/// The FMM instance.
#[derive(Debug)]
pub struct FmmScene {
    particles: std::cell::RefCell<Vec<Particle>>,
    cells: std::cell::RefCell<Vec<Cell>>,
    depth: u32,
    particles_base: VAddr,
    cells_base: VAddr,
}

/// Index of the first cell of `level` in the level-order array.
fn level_start(level: u32) -> usize {
    // (4^level - 1) / 3
    ((4usize.pow(level)) - 1) / 3
}

/// Cells at `level`.
fn level_cells(level: u32) -> usize {
    4usize.pow(level)
}

impl FmmScene {
    /// Builds particles and the quadtree.
    pub fn new(particles_base: VAddr, cells_base: VAddr, params: &FmmParams) -> Rc<Self> {
        let mut r = rng(params.seed);
        let particles: Vec<Particle> = (0..params.particles)
            .map(|_| Particle { x: r.gen(), y: r.gen(), q: 1.0 + r.gen::<f64>(), potential: 0.0 })
            .collect();
        let total_cells = level_start(params.depth + 1);
        let mut cells = vec![Cell::default(); total_cells];
        // Centers.
        for level in 0..=params.depth {
            let side = 1 << level;
            let start = level_start(level);
            for iy in 0..side {
                for ix in 0..side {
                    let c = &mut cells[start + (iy * side + ix) as usize];
                    c.cx = (ix as f64 + 0.5) / side as f64;
                    c.cy = (iy as f64 + 0.5) / side as f64;
                }
            }
        }
        // Leaf membership.
        let side = 1usize << params.depth;
        let start = level_start(params.depth);
        for (i, p) in particles.iter().enumerate() {
            let ix = ((p.x * side as f64) as usize).min(side - 1);
            let iy = ((p.y * side as f64) as usize).min(side - 1);
            cells[start + iy * side + ix].members.push(i);
        }
        Rc::new(FmmScene {
            particles: std::cell::RefCell::new(particles),
            cells: std::cell::RefCell::new(cells),
            depth: params.depth,
            particles_base,
            cells_base,
        })
    }

    fn cell_addr(&self, idx: usize) -> VAddr {
        self.cells_base.offset(idx as u64 * LINE)
    }

    fn particle_addr(&self, idx: usize) -> VAddr {
        self.particles_base.offset(idx as u64 * LINE)
    }

    /// Total cells.
    pub fn cell_count(&self) -> usize {
        self.cells.borrow().len()
    }

    /// Sum of particle potentials (test oracle; non-zero after a run).
    pub fn total_potential(&self) -> f64 {
        self.particles.borrow().iter().map(|p| p.potential).sum()
    }

    fn cell_index(&self, level: u32, ix: usize, iy: usize) -> usize {
        let side = 1usize << level;
        level_start(level) + iy * side + ix
    }

    fn children_of(&self, level: u32, ix: usize, iy: usize) -> [usize; 4] {
        [
            self.cell_index(level + 1, 2 * ix, 2 * iy),
            self.cell_index(level + 1, 2 * ix + 1, 2 * iy),
            self.cell_index(level + 1, 2 * ix, 2 * iy + 1),
            self.cell_index(level + 1, 2 * ix + 1, 2 * iy + 1),
        ]
    }
}

/// The monitored FMM work thread.
pub struct FmmWorker {
    scene: Rc<FmmScene>,
    params: FmmParams,
    pass: Pass,
    cursor: usize,
    iteration: u32,
}

impl FmmWorker {
    fn p2m(&mut self, ctx: &mut BatchCtx<'_>, idx: usize) {
        let scene = &self.scene;
        let mut cells = scene.cells.borrow_mut();
        let particles = scene.particles.borrow();
        ctx.read(scene.cell_addr(idx));
        let cell = &mut cells[idx];
        let mut coeffs = [0.0f64; P];
        for &pi in &cell.members {
            ctx.read(scene.particle_addr(pi));
            let p = &particles[pi];
            let (dx, dy) = (p.x - cell.cx, p.y - cell.cy);
            let r = (dx * dx + dy * dy).sqrt();
            let mut rk = 1.0;
            for c in coeffs.iter_mut() {
                *c += p.q * rk;
                rk *= r;
            }
            ctx.compute(4 * P as u64);
        }
        cell.multipole = coeffs;
        ctx.write(scene.cell_addr(idx));
    }

    fn m2m(&mut self, ctx: &mut BatchCtx<'_>, level: u32, ix: usize, iy: usize) {
        let scene = &self.scene;
        let children = scene.children_of(level, ix, iy);
        let parent_idx = scene.cell_index(level, ix, iy);
        let mut cells = scene.cells.borrow_mut();
        let mut acc = [0.0f64; P];
        for child in children {
            ctx.read(scene.cell_addr(child));
            let (ccx, ccy) = (cells[child].cx, cells[child].cy);
            let (pcx, pcy) = (cells[parent_idx].cx, cells[parent_idx].cy);
            let shift = ((ccx - pcx) * (ccx - pcx) + (ccy - pcy) * (ccy - pcy)).sqrt();
            let m = cells[child].multipole;
            let mut sk = 1.0;
            for k in 0..P {
                acc[k] += m[k] * sk;
                sk *= 1.0 + shift;
            }
            ctx.compute(4 * P as u64);
        }
        cells[parent_idx].multipole = acc;
        ctx.write(scene.cell_addr(parent_idx));
    }

    fn m2l(&mut self, ctx: &mut BatchCtx<'_>, level: u32, ix: usize, iy: usize) {
        let scene = &self.scene;
        let side = 1usize << level;
        let target_idx = scene.cell_index(level, ix, iy);
        let mut cells = scene.cells.borrow_mut();
        let mut local = cells[target_idx].local;
        // Interaction list: cells at the same level within distance 2..3
        // (well separated; children of the parent's neighbours).
        for sy in iy.saturating_sub(3)..(iy + 4).min(side) {
            for sx in ix.saturating_sub(3)..(ix + 4).min(side) {
                let (dx, dy) = ((sx as i64 - ix as i64).abs(), (sy as i64 - iy as i64).abs());
                if dx.max(dy) < 2 {
                    continue; // near field, handled directly
                }
                let src_idx = scene.cell_index(level, sx, sy);
                ctx.read(scene.cell_addr(src_idx));
                let (tx, ty) = (cells[target_idx].cx, cells[target_idx].cy);
                let (cx, cy) = (cells[src_idx].cx, cells[src_idx].cy);
                let r = ((tx - cx) * (tx - cx) + (ty - cy) * (ty - cy)).sqrt().max(1e-9);
                let m = cells[src_idx].multipole;
                let mut rk = r;
                for (k, l) in local.iter_mut().enumerate() {
                    *l += m[k] / rk;
                    rk *= r;
                }
                ctx.compute(6 * P as u64);
            }
        }
        cells[target_idx].local = local;
        ctx.write(scene.cell_addr(target_idx));
    }

    fn l2l(&mut self, ctx: &mut BatchCtx<'_>, level: u32, ix: usize, iy: usize) {
        let scene = &self.scene;
        let parent_idx = scene.cell_index(level, ix, iy);
        let children = scene.children_of(level, ix, iy);
        let mut cells = scene.cells.borrow_mut();
        ctx.read(scene.cell_addr(parent_idx));
        let parent_local = cells[parent_idx].local;
        for child in children {
            for k in 0..P {
                cells[child].local[k] += parent_local[k] * 0.5f64.powi(k as i32);
            }
            ctx.write(scene.cell_addr(child));
            ctx.compute(2 * P as u64);
        }
    }

    fn evaluate(&mut self, ctx: &mut BatchCtx<'_>, leaf: usize) {
        let scene = &self.scene;
        let side = 1usize << scene.depth;
        let start = level_start(scene.depth);
        let (lx, ly) = ((leaf - start) % side, (leaf - start) / side);
        let members = scene.cells.borrow()[leaf].members.clone();
        ctx.read(scene.cell_addr(leaf));
        let mut particles = scene.particles.borrow_mut();
        let cells = scene.cells.borrow();
        for &pi in &members {
            ctx.read(scene.particle_addr(pi));
            // Far field from the local expansion.
            let mut pot = 0.0;
            let p = particles[pi];
            let cell = &cells[leaf];
            let r = ((p.x - cell.cx) * (p.x - cell.cx) + (p.y - cell.cy) * (p.y - cell.cy)).sqrt();
            let mut rk = 1.0;
            for l in cell.local {
                pot += l * rk;
                rk *= r;
            }
            // Near field: direct sum over the 3x3 leaf neighbourhood.
            for ny in ly.saturating_sub(1)..(ly + 2).min(side) {
                for nx in lx.saturating_sub(1)..(lx + 2).min(side) {
                    let nidx = start + ny * side + nx;
                    for &qi in &cells[nidx].members {
                        if qi == pi {
                            continue;
                        }
                        ctx.read(scene.particle_addr(qi));
                        let q = particles[qi];
                        let d = ((p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y)).sqrt();
                        pot += q.q / d.max(1e-6);
                        ctx.compute(8);
                    }
                }
            }
            particles[pi].potential = pot;
            ctx.write(scene.particle_addr(pi));
        }
    }
}

impl Program for FmmWorker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        let depth = self.scene.depth;
        if self.pass == Pass::P2m && self.cursor == 0 && self.iteration == 0 {
            let cells_bytes = self.scene.cell_count() as u64 * LINE;
            let parts_bytes = self.params.particles as u64 * LINE;
            ctx.register_region(self.scene.cells_base, cells_bytes);
            ctx.register_region(self.scene.particles_base, parts_bytes);
        }
        let budget = self.params.cells_per_batch.max(1);
        let mut done = 0;
        while done < budget {
            match self.pass {
                Pass::P2m => {
                    let start = level_start(depth);
                    let count = level_cells(depth);
                    if self.cursor >= count {
                        self.pass = if depth > 0 {
                            Pass::M2m { level: depth - 1 }
                        } else {
                            Pass::M2l { level: 0 }
                        };
                        self.cursor = 0;
                        continue;
                    }
                    self.p2m(ctx, start + self.cursor);
                    self.cursor += 1;
                }
                Pass::M2m { level } => {
                    let side = 1usize << level;
                    if self.cursor >= side * side {
                        self.pass = if level == 0 {
                            Pass::M2l { level: 2.min(depth) }
                        } else {
                            Pass::M2m { level: level - 1 }
                        };
                        self.cursor = 0;
                        continue;
                    }
                    let (ix, iy) = (self.cursor % side, self.cursor / side);
                    self.m2m(ctx, level, ix, iy);
                    self.cursor += 1;
                }
                Pass::M2l { level } => {
                    let side = 1usize << level;
                    if self.cursor >= side * side {
                        self.pass = if level == depth {
                            Pass::L2l { level: 2.min(depth).saturating_sub(1) }
                        } else {
                            Pass::M2l { level: level + 1 }
                        };
                        self.cursor = 0;
                        continue;
                    }
                    let (ix, iy) = (self.cursor % side, self.cursor / side);
                    self.m2l(ctx, level, ix, iy);
                    self.cursor += 1;
                }
                Pass::L2l { level } => {
                    if level >= depth {
                        self.pass = Pass::Evaluate;
                        self.cursor = 0;
                        continue;
                    }
                    let side = 1usize << level;
                    if self.cursor >= side * side {
                        self.pass = Pass::L2l { level: level + 1 };
                        self.cursor = 0;
                        continue;
                    }
                    let (ix, iy) = (self.cursor % side, self.cursor / side);
                    self.l2l(ctx, level, ix, iy);
                    self.cursor += 1;
                }
                Pass::Evaluate => {
                    let start = level_start(depth);
                    let count = level_cells(depth);
                    if self.cursor >= count {
                        self.pass = Pass::Done;
                        continue;
                    }
                    self.evaluate(ctx, start + self.cursor);
                    self.cursor += 1;
                }
                Pass::Done => {
                    self.iteration += 1;
                    if self.iteration >= self.params.iterations {
                        return Control::Exit;
                    }
                    self.pass = Pass::P2m;
                    self.cursor = 0;
                    continue;
                }
            }
            done += 1;
        }
        Control::Yield
    }
}

/// Spawns the monitored single work thread.
pub fn spawn_single(engine: &mut Engine, params: &FmmParams) -> ThreadId {
    let parts_base = engine.machine_mut().alloc(params.particles as u64 * LINE, LINE);
    let cells = level_start(params.depth + 1) as u64;
    let cells_base = engine.machine_mut().alloc(cells * LINE, LINE);
    let scene = FmmScene::new(parts_base, cells_base, params);
    engine.spawn(Box::new(FmmWorker {
        scene,
        params: *params,
        pass: Pass::P2m,
        cursor: 0,
        iteration: 0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::SchedPolicy;

    #[test]
    fn level_indexing() {
        assert_eq!(level_start(0), 0);
        assert_eq!(level_start(1), 1);
        assert_eq!(level_start(2), 5);
        assert_eq!(level_start(3), 21);
        assert_eq!(level_cells(2), 16);
    }

    #[test]
    fn every_particle_lands_in_a_leaf() {
        let params = FmmParams::small();
        let scene = FmmScene::new(VAddr(0x10000), VAddr(0x4000000), &params);
        let cells = scene.cells.borrow();
        let total: usize = (level_start(params.depth)..level_start(params.depth + 1))
            .map(|i| cells[i].members.len())
            .sum();
        assert_eq!(total, params.particles);
    }

    #[test]
    fn run_produces_potentials() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        let params = FmmParams::small();
        let parts_base = e.machine_mut().alloc(params.particles as u64 * LINE, LINE);
        let cells = level_start(params.depth + 1) as u64;
        let cells_base = e.machine_mut().alloc(cells * LINE, LINE);
        let scene = FmmScene::new(parts_base, cells_base, &params);
        e.spawn(Box::new(FmmWorker {
            scene: scene.clone(),
            params,
            pass: Pass::P2m,
            cursor: 0,
            iteration: 0,
        }));
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert!(scene.total_potential() > 0.0, "potentials must be computed");
        assert!(report.context_switches > 2, "worker yields between batches");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            spawn_single(&mut e, &FmmParams::small());
            e.run().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_cells_per_batch_is_one() {
        let run = |cells_per_batch| {
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            spawn_single(&mut e, &FmmParams { cells_per_batch, ..FmmParams::small() });
            e.run().unwrap()
        };
        assert_eq!(run(0), run(1));
    }
}
