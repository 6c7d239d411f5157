//! *raytrace*: a uniform-grid ray tracer (SPLASH-2's raytrace,
//! paper §3.3 and Figure 7).
//!
//! The paper singles raytrace out as anomalous: "In between short
//! bursts, the majority of misses are **conflict misses** that do not
//! significantly increase the footprint." This implementation reproduces
//! the mechanism honestly: the scene's voxel grid is sized to cover only
//! part of the direct-mapped E-cache, while per-ray scratch buffers are
//! deliberately allocated so their pages fall into the *same* cache bins
//! as the grid's hottest planes (a realistic accident of heap layout on
//! physically-indexed caches). Ray marching alternates voxel reads with
//! scratch writes, so the same sets ping-pong: miss counters climb while
//! the resident footprint barely moves — and the model, which only sees
//! miss counts, over-predicts (Figure 7, right).

use crate::common::{rng, LINE};
use active_threads::{BatchCtx, Control, Engine, Program, ThreadId};
use locality_sim::VAddr;
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Parameters of a raytrace run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaytraceParams {
    /// Voxel grid side (cells per axis).
    pub grid_side: usize,
    /// Number of spheres scattered in the scene.
    pub spheres: usize,
    /// Image side in pixels (rays = side²).
    pub image_side: usize,
    /// Rays traced per batch.
    pub rays_per_batch: usize,
    /// Sampling passes over the image (antialiasing samples per pixel).
    pub passes: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RaytraceParams {
    fn default() -> Self {
        RaytraceParams {
            grid_side: 32,
            spheres: 700,
            image_side: 128,
            rays_per_batch: 64,
            passes: 6,
            seed: 17,
        }
    }
}

impl RaytraceParams {
    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        RaytraceParams {
            grid_side: 8,
            spheres: 32,
            image_side: 16,
            rays_per_batch: 32,
            passes: 2,
            seed: 17,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Sphere {
    center: [f64; 3],
    radius: f64,
}

/// The scene: spheres, a voxel acceleration grid, and the image.
#[derive(Debug)]
pub struct Scene {
    spheres: Vec<Sphere>,
    /// Per-voxel sphere index lists.
    voxels: Vec<Vec<u32>>,
    grid_side: usize,
    grid_base: VAddr,
    spheres_base: VAddr,
    image_base: VAddr,
    scratch_base: VAddr,
    /// Pixels written (hit mask packed as bits into a checksum).
    pub hits: RefCell<u64>,
}

impl Scene {
    fn voxel_idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.grid_side + y) * self.grid_side + x
    }

    fn voxel_addr(&self, idx: usize) -> VAddr {
        self.grid_base.offset(idx as u64 * LINE)
    }

    fn sphere_addr(&self, idx: usize) -> VAddr {
        self.spheres_base.offset(idx as u64 * LINE)
    }
}

/// Builds the scene and the deliberately-conflicting scratch region.
pub fn build_scene(engine: &mut Engine, params: &RaytraceParams) -> Rc<Scene> {
    let mut r = rng(params.seed);
    let n = params.grid_side;
    let spheres: Vec<Sphere> = (0..params.spheres)
        .map(|_| Sphere {
            center: [r.gen::<f64>(), r.gen::<f64>(), r.gen::<f64>()],
            radius: 0.02 + r.gen::<f64>() * 0.06,
        })
        .collect();
    let mut voxels = vec![Vec::new(); n * n * n];
    // Conservative rasterization of each sphere into the grid, if any.
    for (si, s) in spheres.iter().enumerate().filter(|_| n > 0) {
        let lo = |c: f64, rad: f64| (((c - rad) * n as f64).floor().max(0.0)) as usize;
        let hi = |c: f64, rad: f64| ((((c + rad) * n as f64).ceil()) as usize).min(n - 1);
        for z in lo(s.center[2], s.radius)..=hi(s.center[2], s.radius) {
            for y in lo(s.center[1], s.radius)..=hi(s.center[1], s.radius) {
                for x in lo(s.center[0], s.radius)..=hi(s.center[0], s.radius) {
                    voxels[(z * n + y) * n + x].push(si as u32);
                }
            }
        }
    }
    let grid_bytes = (n * n * n) as u64 * LINE;
    let grid_base = engine.machine_mut().alloc(grid_bytes, LINE);
    let spheres_base = engine.machine_mut().alloc(params.spheres as u64 * LINE, LINE);
    let image_bytes = (params.image_side * params.image_side * 4) as u64;
    let image_base = engine.machine_mut().alloc(image_bytes, LINE);
    // Scratch: allocated page-aligned right after the grid so that (with
    // bin-hopping fault order grid→scratch) its pages land in the bins
    // the grid's first planes occupy — the conflict accident.
    let page = engine.machine().config().page_bytes;
    let scratch_base = engine.machine_mut().alloc(page * 16, page);
    Rc::new(Scene {
        spheres,
        voxels,
        grid_side: n,
        grid_base,
        spheres_base,
        image_base,
        scratch_base,
        hits: RefCell::new(0),
    })
}

/// The monitored ray-tracing work thread.
pub struct RayWorker {
    scene: Rc<Scene>,
    params: RaytraceParams,
    next_ray: usize,
    pass: u32,
}

impl RayWorker {
    /// Traces one primary ray orthographically along +z, marching the
    /// voxel grid; returns whether anything was hit.
    fn trace(&self, ctx: &mut BatchCtx<'_>, px: usize, py: usize) -> bool {
        let scene = &self.scene;
        let n = scene.grid_side;
        let side = self.params.image_side as f64;
        let (ox, oy) = ((px as f64 + 0.5) / side, (py as f64 + 0.5) / side);
        let (vx, vy) =
            (((ox * n as f64) as usize).min(n - 1), ((oy * n as f64) as usize).min(n - 1));
        let mut best: Option<f64> = None;
        let page = 8192u64;
        for vz in 0..n {
            let vidx = scene.voxel_idx(vx, vy, vz);
            ctx.read(scene.voxel_addr(vidx));
            // Per-step scratch bookkeeping (ray state, mailboxing): the
            // conflicting region — one write per voxel step.
            ctx.write(scene.scratch_base.offset((vz as u64 * 2048) % (page * 16)));
            ctx.compute(12);
            for &si in &scene.voxels[vidx] {
                ctx.read(scene.sphere_addr(si as usize));
                let s = scene.spheres[si as usize];
                // Real orthographic ray/sphere intersection.
                let (dx, dy) = (ox - s.center[0], oy - s.center[1]);
                let d2 = dx * dx + dy * dy;
                ctx.compute(10);
                if d2 <= s.radius * s.radius {
                    let dz = (s.radius * s.radius - d2).sqrt();
                    let t = s.center[2] - dz;
                    if best.is_none_or(|b| t < b) {
                        best = Some(t);
                    }
                }
            }
            if best.is_some() {
                break;
            }
        }
        let pixel = py * self.params.image_side + px;
        ctx.write(scene.image_base.offset((pixel * 4) as u64));
        best.is_some()
    }
}

impl Program for RayWorker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        let scene = &self.scene;
        let n = scene.grid_side;
        if n == 0 || self.pass >= self.params.passes {
            // No grid to march, or no pass to run.
            return Control::Exit;
        }
        if self.next_ray == 0 && self.pass == 0 {
            ctx.register_region(scene.grid_base, (n * n * n) as u64 * LINE);
            ctx.register_region(scene.spheres_base, self.params.spheres as u64 * LINE);
            let image_bytes = (self.params.image_side * self.params.image_side * 4) as u64;
            ctx.register_region(scene.image_base, image_bytes);
            ctx.register_region(scene.scratch_base, 8192 * 16);
        }
        let total = self.params.image_side * self.params.image_side;
        let end = (self.next_ray + self.params.rays_per_batch.max(1)).min(total);
        let mut hits = *scene.hits.borrow();
        for ray in self.next_ray..end {
            let (px, py) = (ray % self.params.image_side, ray / self.params.image_side);
            if self.trace(ctx, px, py) {
                hits = hits.wrapping_mul(31).wrapping_add(ray as u64);
            }
        }
        *scene.hits.borrow_mut() = hits;
        self.next_ray = end;
        if self.next_ray >= total {
            // Next antialiasing pass: the grid is warm now, but every
            // scratch write keeps evicting the grid lines that share its
            // sets — the conflict misses of the paper's Figure 7.
            self.next_ray = 0;
            self.pass += 1;
            if self.pass >= self.params.passes {
                return Control::Exit;
            }
        }
        Control::Yield
    }
}

/// Spawns the monitored single work thread.
pub fn spawn_single(engine: &mut Engine, params: &RaytraceParams) -> ThreadId {
    let scene = build_scene(engine, params);
    engine.spawn(Box::new(RayWorker { scene, params: *params, next_ray: 0, pass: 0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::SchedPolicy;

    fn run(params: &RaytraceParams) -> (active_threads::RunReport, u64) {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        let scene = build_scene(&mut e, params);
        e.spawn(Box::new(RayWorker {
            scene: scene.clone(),
            params: *params,
            next_ray: 0,
            pass: 0,
        }));
        let report = e.run().unwrap();
        let hits = *scene.hits.borrow();
        (report, hits)
    }

    #[test]
    fn rays_hit_spheres() {
        let (report, hits) = run(&RaytraceParams::small());
        assert_eq!(report.threads_completed, 1);
        assert_ne!(hits, 0, "a scene of 32 spheres must be hit by some ray");
    }

    #[test]
    fn spheres_rasterized_into_voxels() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        let scene = build_scene(&mut e, &RaytraceParams::small());
        let populated = scene.voxels.iter().filter(|v| !v.is_empty()).count();
        assert!(populated > 0);
    }

    #[test]
    fn deterministic() {
        let a = run(&RaytraceParams::small());
        let b = run(&RaytraceParams::small());
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rays_per_batch_is_one() {
        let run = |rays_per_batch| {
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            spawn_single(&mut e, &RaytraceParams { rays_per_batch, ..RaytraceParams::small() });
            e.run().unwrap()
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn zero_grid_side_exits_at_once() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        spawn_single(&mut e, &RaytraceParams { grid_side: 0, ..RaytraceParams::small() });
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert_eq!((report.total_l2_refs, report.total_instructions), (0, 0));
    }

    #[test]
    fn zero_passes_exits_at_once() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        spawn_single(&mut e, &RaytraceParams { passes: 0, ..RaytraceParams::small() });
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert_eq!((report.total_l2_refs, report.total_instructions), (0, 0));
    }
}
