//! *ocean*: a regular-grid red-black successive-over-relaxation solver,
//! standing in for SPLASH-2's ocean simulation kernel (paper §3.3).
//!
//! The work thread sweeps a large `f64` grid with a 5-point stencil —
//! long sequential runs and maximal clustering of references, the regime
//! where the paper observes the model to slightly over-predict footprints
//! for C-style codes (the independence-of-references assumption is most
//! strained by streaming sweeps).

use crate::common::{rng, LINE};
use active_threads::{BatchCtx, Control, Engine, Program, ThreadId};
use locality_sim::VAddr;
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Parameters of an ocean run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OceanParams {
    /// Grid side (cells); the grid is `side × side` of `f64`.
    pub side: usize,
    /// Red-black SOR sweeps.
    pub sweeps: u32,
    /// Relaxation factor.
    pub omega: f64,
    /// Rows per batch.
    pub rows_per_batch: usize,
    /// RNG seed for the initial field.
    pub seed: u64,
}

impl Default for OceanParams {
    fn default() -> Self {
        OceanParams { side: 512, sweeps: 3, omega: 1.5, rows_per_batch: 8, seed: 9 }
    }
}

impl OceanParams {
    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        OceanParams { side: 64, sweeps: 2, omega: 1.5, rows_per_batch: 8, seed: 9 }
    }
}

/// The grid.
#[derive(Debug)]
pub struct OceanGrid {
    grid: RefCell<Vec<f64>>,
    base: VAddr,
    side: usize,
}

impl OceanGrid {
    /// Builds a random initial field with fixed boundary values.
    pub fn new(base: VAddr, params: &OceanParams) -> Rc<Self> {
        let mut r = rng(params.seed);
        let n = params.side;
        let grid = (0..n * n).map(|_| r.gen::<f64>()).collect();
        Rc::new(OceanGrid { grid: RefCell::new(grid), base, side: n })
    }

    fn addr(&self, row: usize, col: usize) -> VAddr {
        self.base.offset(((row * self.side + col) * 8) as u64)
    }

    /// Residual of the interior (test oracle: SOR must reduce it).
    pub fn residual(&self) -> f64 {
        let g = self.grid.borrow();
        let n = self.side;
        let mut sum = 0.0;
        for i in 1..n.saturating_sub(1) {
            for j in 1..n - 1 {
                let r =
                    g[(i - 1) * n + j] + g[(i + 1) * n + j] + g[i * n + j - 1] + g[i * n + j + 1]
                        - 4.0 * g[i * n + j];
                sum += r * r;
            }
        }
        sum.sqrt()
    }
}

/// The monitored SOR work thread.
pub struct OceanWorker {
    grid: Rc<OceanGrid>,
    params: OceanParams,
    sweep: u32,
    /// 0 = red pass, 1 = black pass of the current sweep.
    color: usize,
    row: usize,
}

impl OceanWorker {
    fn relax_row(&self, ctx: &mut BatchCtx<'_>, i: usize) {
        let n = self.grid.side;
        let omega = self.params.omega;
        let mut g = self.grid.grid.borrow_mut();
        // Line-granular touches: the row itself (read+write) and the rows
        // above and below (reads). 8 f64 per 64-byte line.
        let row_bytes = (n * 8) as u64;
        ctx.read_range(self.grid.addr(i - 1, 0), row_bytes, LINE);
        ctx.read_range(self.grid.addr(i + 1, 0), row_bytes, LINE);
        ctx.read_range(self.grid.addr(i, 0), row_bytes, LINE);
        let start = 1 + (i + self.color) % 2;
        for j in (start..n - 1).step_by(2) {
            let stencil =
                g[(i - 1) * n + j] + g[(i + 1) * n + j] + g[i * n + j - 1] + g[i * n + j + 1];
            let old = g[i * n + j];
            g[i * n + j] = old + omega * (stencil / 4.0 - old);
        }
        ctx.write_range(self.grid.addr(i, 0), row_bytes, LINE);
        ctx.compute((n as u64) * 6 / 2);
    }
}

impl Program for OceanWorker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        let n = self.grid.side;
        if n < 3 {
            // No interior row to relax.
            return Control::Exit;
        }
        if self.sweep == 0 && self.color == 0 && self.row <= 1 {
            ctx.register_region(self.grid.base, (n * n * 8) as u64);
            self.row = 1;
        }
        for _ in 0..self.params.rows_per_batch.max(1) {
            if self.row >= n - 1 {
                self.row = 1;
                if self.color == 0 {
                    self.color = 1;
                } else {
                    self.color = 0;
                    self.sweep += 1;
                    if self.sweep >= self.params.sweeps {
                        return Control::Exit;
                    }
                }
            }
            self.relax_row(ctx, self.row);
            self.row += 1;
        }
        Control::Yield
    }
}

/// Spawns the monitored single work thread.
pub fn spawn_single(engine: &mut Engine, params: &OceanParams) -> ThreadId {
    let bytes = (params.side * params.side * 8) as u64;
    let base = engine.machine_mut().alloc(bytes, LINE);
    let grid = OceanGrid::new(base, params);
    engine.spawn(Box::new(OceanWorker { grid, params: *params, sweep: 0, color: 0, row: 1 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::SchedPolicy;

    #[test]
    fn sor_reduces_residual() {
        let params = OceanParams::small();
        let base = VAddr(0x10000);
        let grid = OceanGrid::new(base, &params);
        let before = grid.residual();
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        e.spawn(Box::new(OceanWorker { grid: grid.clone(), params, sweep: 0, color: 0, row: 1 }));
        e.run().unwrap();
        let after = grid.residual();
        assert!(after < before * 0.7, "SOR must relax: {before} -> {after}");
    }

    #[test]
    fn sequential_sweep_traffic() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        let params = OceanParams::small();
        spawn_single(&mut e, &params);
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        // The 64x64 grid is 32 KiB = 512 lines; at least that many
        // compulsory misses.
        assert!(report.total_l2_misses >= 512);
        assert!(report.context_switches > 5);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            spawn_single(&mut e, &OceanParams::small());
            e.run().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_rows_per_batch_is_one() {
        let run = |rows_per_batch| {
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            spawn_single(&mut e, &OceanParams { rows_per_batch, ..OceanParams::small() });
            e.run().unwrap()
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn zero_side_exits_at_once() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        spawn_single(&mut e, &OceanParams { side: 0, ..OceanParams::small() });
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert_eq!((report.total_l2_refs, report.total_instructions), (0, 0));
    }
}
