//! *barnes*: Barnes-Hut hierarchical N-body (SPLASH-2, paper §3.3).
//!
//! A real octree is built over random 3-D bodies; the monitored work
//! thread computes gravitational accelerations for every body with the
//! standard multipole-acceptance criterion (θ), reading one simulated
//! cache line per tree node visited and per body. The paper notes that
//! *barnes* "was specifically optimized for locality in the second
//! release of SPLASH", making its references more clustered than the
//! model's uniform assumption — the predicted footprints come out
//! somewhat higher than observed, which this implementation reproduces.

// Coordinate loops index several parallel arrays; enumerate() would
// obscure them.
#![allow(clippy::needless_range_loop)]

use crate::common::{rng, LINE};
use active_threads::{BatchCtx, Control, Engine, Program, ThreadId};
use locality_sim::VAddr;
use rand::Rng;

/// Parameters of a barnes run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarnesParams {
    /// Number of bodies.
    pub bodies: usize,
    /// Multipole acceptance parameter θ (smaller = more node visits).
    pub theta: f64,
    /// Bodies processed per batch (sampling granularity).
    pub bodies_per_batch: usize,
    /// Time steps (force passes over all bodies).
    pub steps: u32,
    /// RNG seed for body positions.
    pub seed: u64,
}

impl Default for BarnesParams {
    fn default() -> Self {
        BarnesParams { bodies: 4096, theta: 0.6, bodies_per_batch: 32, steps: 4, seed: 21 }
    }
}

impl BarnesParams {
    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        BarnesParams { bodies: 256, theta: 0.8, bodies_per_batch: 32, steps: 2, seed: 21 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Body {
    pos: [f64; 3],
    mass: f64,
}

#[derive(Debug, Clone)]
struct Node {
    center: [f64; 3],
    half: f64,
    mass: f64,
    com: [f64; 3],
    children: [Option<usize>; 8],
    body: Option<usize>,
}

/// The octree and bodies of one instance.
#[derive(Debug)]
pub struct BarnesScene {
    bodies: Vec<Body>,
    nodes: Vec<Node>,
    bodies_base: VAddr,
    nodes_base: VAddr,
    /// Total gravitational potential-ish checksum (test oracle).
    pub checksum: std::cell::Cell<f64>,
}

impl BarnesScene {
    /// Builds bodies and the octree.
    pub fn new(bodies_base: VAddr, nodes_base: VAddr, params: &BarnesParams) -> Self {
        let mut r = rng(params.seed);
        let bodies: Vec<Body> = (0..params.bodies)
            .map(|_| Body {
                pos: [r.gen::<f64>(), r.gen::<f64>(), r.gen::<f64>()],
                mass: 0.5 + r.gen::<f64>(),
            })
            .collect();
        let mut scene = BarnesScene {
            bodies,
            nodes: vec![Node {
                center: [0.5, 0.5, 0.5],
                half: 0.5,
                mass: 0.0,
                com: [0.0; 3],
                children: [None; 8],
                body: None,
            }],
            bodies_base,
            nodes_base,
            checksum: std::cell::Cell::new(0.0),
        };
        for i in 0..scene.bodies.len() {
            scene.insert(0, i);
        }
        scene.summarize(0);
        scene
    }

    fn octant(node: &Node, pos: &[f64; 3]) -> usize {
        let mut o = 0;
        for d in 0..3 {
            if pos[d] >= node.center[d] {
                o |= 1 << d;
            }
        }
        o
    }

    fn child_center(node: &Node, o: usize) -> ([f64; 3], f64) {
        let h = node.half / 2.0;
        let mut c = node.center;
        for (d, cd) in c.iter_mut().enumerate() {
            *cd += if o & (1 << d) != 0 { h } else { -h };
        }
        (c, h)
    }

    fn insert(&mut self, node_idx: usize, body_idx: usize) {
        let pos = self.bodies[body_idx].pos;
        let mut cur = node_idx;
        let mut pending = body_idx;
        // Iterative insertion to avoid deep recursion.
        loop {
            let is_leaf = self.nodes[cur].children.iter().all(Option::is_none);
            if is_leaf && self.nodes[cur].body.is_none() {
                self.nodes[cur].body = Some(pending);
                return;
            }
            if is_leaf {
                // Split: push the resident body down first.
                let resident = self.nodes[cur].body.take().expect("leaf body");
                let o = Self::octant(&self.nodes[cur], &self.bodies[resident].pos);
                let (c, h) = Self::child_center(&self.nodes[cur], o);
                let child = self.new_node(c, h);
                self.nodes[cur].children[o] = Some(child);
                self.nodes[child].body = Some(resident);
            }
            let o = Self::octant(&self.nodes[cur], &pos);
            match self.nodes[cur].children[o] {
                Some(child) => cur = child,
                None => {
                    let (c, h) = Self::child_center(&self.nodes[cur], o);
                    let child = self.new_node(c, h);
                    self.nodes[cur].children[o] = Some(child);
                    cur = child;
                }
            }
            // Degenerate co-located bodies: stop splitting at tiny cells.
            if self.nodes[cur].half < 1e-9 {
                self.nodes[cur].body = Some(pending);
                return;
            }
            let _ = &mut pending;
        }
    }

    fn new_node(&mut self, center: [f64; 3], half: f64) -> usize {
        self.nodes.push(Node {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: [None; 8],
            body: None,
        });
        self.nodes.len() - 1
    }

    fn summarize(&mut self, idx: usize) -> (f64, [f64; 3]) {
        let children = self.nodes[idx].children;
        let mut mass = 0.0;
        let mut com = [0.0; 3];
        if let Some(b) = self.nodes[idx].body {
            let body = self.bodies[b];
            mass += body.mass;
            for d in 0..3 {
                com[d] += body.mass * body.pos[d];
            }
        }
        for child in children.into_iter().flatten() {
            let (m, c) = self.summarize(child);
            mass += m;
            for d in 0..3 {
                com[d] += m * c[d];
            }
        }
        if mass > 0.0 {
            for c in &mut com {
                *c /= mass;
            }
        }
        self.nodes[idx].mass = mass;
        self.nodes[idx].com = com;
        (mass, com)
    }

    fn node_addr(&self, idx: usize) -> VAddr {
        self.nodes_base.offset(idx as u64 * LINE)
    }

    fn body_addr(&self, idx: usize) -> VAddr {
        self.bodies_base.offset(idx as u64 * LINE)
    }

    /// Real force computation for one body; touches every visited node.
    /// `stack` is the caller's reusable traversal stack.
    fn force_on(
        &self,
        ctx: &mut BatchCtx<'_>,
        stack: &mut Vec<usize>,
        body_idx: usize,
        theta: f64,
    ) -> [f64; 3] {
        ctx.read(self.body_addr(body_idx));
        let pos = self.bodies[body_idx].pos;
        let mut acc = [0.0f64; 3];
        stack.clear();
        stack.push(0);
        while let Some(idx) = stack.pop() {
            ctx.read(self.node_addr(idx));
            ctx.compute(20);
            let node = &self.nodes[idx];
            if node.mass == 0.0 {
                continue;
            }
            let mut d2 = 0.0;
            for d in 0..3 {
                let dx = node.com[d] - pos[d];
                d2 += dx * dx;
            }
            let dist = d2.sqrt().max(1e-6);
            let open =
                (2.0 * node.half) / dist > theta && node.children.iter().any(Option::is_some);
            if open {
                for child in node.children.into_iter().flatten() {
                    stack.push(child);
                }
            } else if !(node.body == Some(body_idx) && node.children.iter().all(Option::is_none)) {
                let f = node.mass / (d2 + 1e-9);
                for d in 0..3 {
                    acc[d] += f * (node.com[d] - pos[d]) / dist;
                }
            }
        }
        ctx.write(self.body_addr(body_idx));
        acc
    }

    /// Bytes of the bodies region.
    pub fn bodies_bytes(&self) -> u64 {
        self.bodies.len() as u64 * LINE
    }

    /// Bytes of the nodes region.
    pub fn nodes_bytes(&self) -> u64 {
        self.nodes.len() as u64 * LINE
    }
}

/// The monitored work thread: `steps` force-computation passes over all
/// bodies (the tree is kept fixed across the short time steps).
pub struct BarnesWorker {
    scene: BarnesScene,
    params: BarnesParams,
    next_body: usize,
    step: u32,
    stack: Vec<usize>,
}

impl Program for BarnesWorker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        let n = self.scene.bodies.len();
        if self.next_body == 0 && self.step == 0 {
            ctx.register_region(self.scene.bodies_base, self.scene.bodies_bytes());
            ctx.register_region(self.scene.nodes_base, self.scene.nodes_bytes());
        }
        let end = (self.next_body + self.params.bodies_per_batch).min(n);
        let mut sum = self.scene.checksum.get();
        for b in self.next_body..end {
            let acc = self.scene.force_on(ctx, &mut self.stack, b, self.params.theta);
            sum += acc[0] + acc[1] + acc[2];
        }
        self.scene.checksum.set(sum);
        self.next_body = end;
        if self.next_body >= n {
            self.next_body = 0;
            self.step += 1;
            if self.step >= self.params.steps {
                return Control::Exit;
            }
        }
        Control::Yield
    }

    fn name(&self) -> &str {
        "barnes"
    }
}

/// Spawns the monitored single work thread.
pub fn spawn_single(engine: &mut Engine, params: &BarnesParams) -> ThreadId {
    // Nodes can outnumber bodies ~2x: the node region is sized, and so
    // placed, only once the tree is built.
    let bodies_base = engine.machine_mut().alloc(params.bodies as u64 * LINE, LINE);
    let mut scene = BarnesScene::new(bodies_base, VAddr(0), params);
    scene.nodes_base = engine.machine_mut().alloc(scene.nodes_bytes(), LINE);
    let stack = Vec::new();
    engine.spawn(Box::new(BarnesWorker { scene, params: *params, next_body: 0, step: 0, stack }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::SchedPolicy;

    #[test]
    fn tree_contains_all_bodies() {
        let params = BarnesParams::small();
        let scene = BarnesScene::new(VAddr(0x10000), VAddr(0x4000000), &params);
        // Total tree mass equals the sum of body masses.
        let body_mass: f64 = scene.bodies.iter().map(|b| b.mass).sum();
        assert!((scene.nodes[0].mass - body_mass).abs() < 1e-9);
        // Root COM inside the unit cube.
        for d in 0..3 {
            assert!(scene.nodes[0].com[d] > 0.0 && scene.nodes[0].com[d] < 1.0);
        }
    }

    #[test]
    fn worker_completes_with_plausible_traffic() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        let params = BarnesParams::small();
        spawn_single(&mut e, &params);
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        // Each body reads itself and at least the root.
        assert!(report.total_instructions > 2 * params.bodies as u64);
        assert!(report.total_l2_misses > 50);
    }

    #[test]
    fn theta_controls_work() {
        let run = |theta| {
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            let params = BarnesParams { theta, ..BarnesParams::small() };
            spawn_single(&mut e, &params);
            e.run().unwrap().total_instructions
        };
        assert!(run(0.3) > run(1.2), "smaller theta must open more cells");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            spawn_single(&mut e, &BarnesParams::small());
            e.run().unwrap()
        };
        assert_eq!(run(), run());
    }
}
