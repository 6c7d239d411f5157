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
//!
//! The bodies never move and the tree is kept fixed across the time
//! steps, so every step walks the tree exactly as the first did. Step 0
//! computes the accelerations and records each body's walk, one bit per
//! node visited (opened or not); later steps replay the recording,
//! issuing the same references in the same order without redoing the
//! float math.

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
    /// Bodies processed per batch (sampling granularity; 0 counts as 1).
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

/// A node of the octree while it is built.
#[derive(Debug, Clone)]
struct Node {
    center: [f64; 3],
    half: f64,
    mass: f64,
    com: [f64; 3],
    children: [Option<usize>; 8],
    body: Option<usize>,
}

impl Node {
    fn new(center: [f64; 3], half: f64) -> Self {
        Node { center, half, mass: 0.0, com: [0.0; 3], children: [None; 8], body: None }
    }
}

/// A built node as the force walk reads it.
#[derive(Debug, Clone, Copy)]
struct Hot {
    com: [f64; 3],
    mass: f64,
    /// The cell's edge, `2 × half` (exact).
    size: f64,
    /// The children are `kids[kids.0..kids.1]`, in octant order.
    kids: (u32, u32),
    /// The body of a childless node, `u32::MAX` otherwise.
    leaf_body: u32,
}

/// The octree under construction: insertion needs each cell's centre
/// and the children by octant, the force walk neither.
struct Octree<'a> {
    bodies: &'a [Body],
    nodes: Vec<Node>,
}

impl Octree<'_> {
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

    fn insert(&mut self, body_idx: usize) {
        let pos = self.bodies[body_idx].pos;
        let mut cur = 0;
        // Iterative insertion to avoid deep recursion.
        loop {
            let is_leaf = self.nodes[cur].children.iter().all(Option::is_none);
            if is_leaf && self.nodes[cur].body.is_none() {
                self.nodes[cur].body = Some(body_idx);
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
                self.nodes[cur].body = Some(body_idx);
                return;
            }
        }
    }

    fn new_node(&mut self, center: [f64; 3], half: f64) -> usize {
        self.nodes.push(Node::new(center, half));
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

    /// The node table, numbered as built, and every node's children in
    /// octant order, one node after another.
    fn flatten(self) -> (Vec<Hot>, Vec<u32>) {
        let most = self.nodes.len().max(self.bodies.len());
        assert!(most < u32::MAX as usize, "barnes numbers its nodes and bodies in u32");
        let mut kids = Vec::with_capacity(self.nodes.len());
        let hot = self
            .nodes
            .iter()
            .map(|n| {
                let first = kids.len() as u32;
                kids.extend(n.children.iter().flatten().map(|&c| c as u32));
                let end = kids.len() as u32;
                let leaf_body = n.body.filter(|_| first == end).map_or(u32::MAX, |b| b as u32);
                Hot { com: n.com, mass: n.mass, size: 2.0 * n.half, kids: (first, end), leaf_body }
            })
            .collect();
        (hot, kids)
    }
}

/// Step 0's walks, which later steps replay: one bit per node visited,
/// set where the walk opened the node, and per body where its bits start
/// and the sum of its acceleration's components.
#[derive(Debug, Default)]
struct Walks {
    opened: Vec<u64>,
    len: usize,
    bodies: Vec<(usize, f64)>,
}

impl Walks {
    fn push(&mut self, open: bool) {
        if self.len.is_multiple_of(64) {
            self.opened.push(0);
        }
        self.opened[self.len / 64] |= u64::from(open) << (self.len % 64);
        self.len += 1;
    }

    fn opened(&self, bit: usize) -> bool {
        self.opened[bit / 64] >> (bit % 64) & 1 != 0
    }
}

/// The octree and bodies of one instance.
#[derive(Debug)]
pub struct BarnesScene {
    bodies: Vec<Body>,
    hot: Vec<Hot>,
    kids: Vec<u32>,
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
        let mut tree = Octree { bodies: &bodies, nodes: vec![Node::new([0.5; 3], 0.5)] };
        for i in 0..bodies.len() {
            tree.insert(i);
        }
        tree.summarize(0);
        let (hot, kids) = tree.flatten();
        BarnesScene {
            bodies,
            hot,
            kids,
            bodies_base,
            nodes_base,
            checksum: std::cell::Cell::new(0.0),
        }
    }

    fn node_addr(&self, idx: u32) -> VAddr {
        self.nodes_base.offset(u64::from(idx) * LINE)
    }

    fn body_addr(&self, idx: usize) -> VAddr {
        self.bodies_base.offset(idx as u64 * LINE)
    }

    /// One body's walk, and all of its references: read the body, then
    /// pop a node, read it, charge 20 instructions and, where `open` says
    /// so, push its children in octant order, until the stack is empty;
    /// then write the body. `stack` is the caller's reusable stack.
    fn walk(
        &self,
        ctx: &mut BatchCtx<'_>,
        stack: &mut Vec<u32>,
        body_idx: usize,
        mut open: impl FnMut(&Hot) -> bool,
    ) {
        ctx.read(self.body_addr(body_idx));
        stack.clear();
        stack.push(0);
        while let Some(idx) = stack.pop() {
            ctx.read(self.node_addr(idx));
            ctx.compute(20);
            let node = &self.hot[idx as usize];
            if open(node) {
                stack.extend_from_slice(&self.kids[node.kids.0 as usize..node.kids.1 as usize]);
            }
        }
        ctx.write(self.body_addr(body_idx));
    }

    /// Real force computation for one body, appending its walk to `walks`
    /// (bodies in order). Returns the sum of the acceleration's components.
    fn force_on(
        &self,
        ctx: &mut BatchCtx<'_>,
        stack: &mut Vec<u32>,
        body_idx: usize,
        theta: f64,
        walks: &mut Walks,
    ) -> f64 {
        let start = walks.len;
        let pos = self.bodies[body_idx].pos;
        let mut acc = [0.0f64; 3];
        self.walk(ctx, stack, body_idx, |node| {
            if node.mass == 0.0 {
                walks.push(false);
                return false;
            }
            let mut d2 = 0.0;
            for d in 0..3 {
                let dx = node.com[d] - pos[d];
                d2 += dx * dx;
            }
            let dist = d2.sqrt().max(1e-6);
            let open = node.size / dist > theta && node.kids.0 < node.kids.1;
            if !open && node.leaf_body != body_idx as u32 {
                let f = node.mass / (d2 + 1e-9);
                for d in 0..3 {
                    acc[d] += f * (node.com[d] - pos[d]) / dist;
                }
            }
            walks.push(open);
            open
        });
        let sum = acc[0] + acc[1] + acc[2];
        walks.bodies.push((start, sum));
        sum
    }

    /// Bytes of the bodies region.
    pub fn bodies_bytes(&self) -> u64 {
        self.bodies.len() as u64 * LINE
    }

    /// Bytes of the nodes region.
    pub fn nodes_bytes(&self) -> u64 {
        self.hot.len() as u64 * LINE
    }
}

/// The monitored work thread: `steps` force-computation passes over all
/// bodies. The tree is kept fixed across the short time steps and the
/// bodies do not move, so step 0 computes every body's walk and later
/// steps replay it.
pub struct BarnesWorker {
    scene: BarnesScene,
    params: BarnesParams,
    next_body: usize,
    step: u32,
    stack: Vec<u32>,
    walks: Walks,
}

impl BarnesWorker {
    /// Builds the scene in `engine`'s memory. Nodes can outnumber bodies
    /// ~2x: the node region is sized, and so placed, only once the tree
    /// is built.
    fn new(engine: &mut Engine, params: &BarnesParams) -> Self {
        let bodies_base = engine.machine_mut().alloc(params.bodies as u64 * LINE, LINE);
        let mut scene = BarnesScene::new(bodies_base, VAddr(0), params);
        scene.nodes_base = engine.machine_mut().alloc(scene.nodes_bytes(), LINE);
        let (stack, walks) = (Vec::new(), Walks::default());
        BarnesWorker { scene, params: *params, next_body: 0, step: 0, stack, walks }
    }
}

impl Program for BarnesWorker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        if self.step >= self.params.steps {
            return Control::Exit;
        }
        let n = self.scene.bodies.len();
        if self.next_body == 0 && self.step == 0 {
            ctx.register_region(self.scene.bodies_base, self.scene.bodies_bytes());
            ctx.register_region(self.scene.nodes_base, self.scene.nodes_bytes());
        }
        let end = (self.next_body + self.params.bodies_per_batch.max(1)).min(n);
        let mut sum = self.scene.checksum.get();
        for b in self.next_body..end {
            sum += match self.walks.bodies.get(b) {
                // Recorded: the same references again, without the math.
                Some(&(mut bit, recorded)) => {
                    self.scene.walk(ctx, &mut self.stack, b, |_| {
                        bit += 1;
                        self.walks.opened(bit - 1)
                    });
                    recorded
                }
                None => {
                    self.scene.force_on(ctx, &mut self.stack, b, self.params.theta, &mut self.walks)
                }
            };
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
}

/// Spawns the monitored single work thread.
pub fn spawn_single(engine: &mut Engine, params: &BarnesParams) -> ThreadId {
    let worker = BarnesWorker::new(engine, params);
    engine.spawn(Box::new(worker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::{RunReport, SchedPolicy};
    use locality_sim::Trace;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn tree_contains_all_bodies() {
        let params = BarnesParams::small();
        let scene = BarnesScene::new(VAddr(0x10000), VAddr(0x4000000), &params);
        // Total tree mass equals the sum of body masses.
        let body_mass: f64 = scene.bodies.iter().map(|b| b.mass).sum();
        assert!((scene.hot[0].mass - body_mass).abs() < 1e-9);
        // Root COM inside the unit cube.
        for d in 0..3 {
            assert!(scene.hot[0].com[d] > 0.0 && scene.hot[0].com[d] < 1.0);
        }
        // Every node but the root is some node's child, once.
        let mut kids = scene.kids.clone();
        kids.sort_unstable();
        assert_eq!(kids, (1..scene.hot.len() as u32).collect::<Vec<_>>());
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

    /// Lends the engine a worker the test reads back after the run. With
    /// `recompute` it forgets every recorded walk before each batch, which
    /// makes it the test oracle: a worker that computes every step.
    struct Lent {
        worker: Rc<RefCell<BarnesWorker>>,
        recompute: bool,
    }

    impl Program for Lent {
        fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
            let mut worker = self.worker.borrow_mut();
            if self.recompute {
                worker.walks = Walks::default();
            }
            worker.next_batch(ctx)
        }
    }

    /// One traced run alone on the Ultra-1: its report, its reference
    /// trace and its checksum.
    fn traced(params: &BarnesParams, recompute: bool) -> (RunReport, Trace, f64) {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        e.machine_mut().start_tracing();
        let worker = Rc::new(RefCell::new(BarnesWorker::new(&mut e, params)));
        e.spawn(Box::new(Lent { worker: worker.clone(), recompute }));
        let report = e.run().unwrap();
        let checksum = worker.borrow().scene.checksum.get();
        (report, e.machine_mut().take_trace().unwrap(), checksum)
    }

    /// Step 0's trace three times over is a three-step run's trace; a run
    /// that replays is, in report, trace and checksum bits, one that
    /// recomputes every step; and the checksum is the bits the tree of
    /// `Option` children computed before the walk was recorded.
    fn replay_equals_recomputing(params: BarnesParams, checksum: u64) {
        let (_, once, _) = traced(&BarnesParams { steps: 1, ..params }, false);
        let (_, thrice, _) = traced(&BarnesParams { steps: 3, ..params }, false);
        assert_eq!(thrice.len(), 3 * once.len());
        assert!(thrice.iter().eq((0..3).flat_map(|_| once.iter())));
        drop((once, thrice));
        let replayed = traced(&params, false);
        let recomputed = traced(&params, true);
        assert_eq!(replayed.0, recomputed.0);
        assert!(replayed.1 == recomputed.1, "the reference traces differ");
        assert_eq!(replayed.2.to_bits(), recomputed.2.to_bits());
        assert_eq!(replayed.2.to_bits(), checksum, "{:x}", replayed.2.to_bits());
    }

    #[test]
    fn replay_equals_recomputing_small() {
        replay_equals_recomputing(BarnesParams::small(), 0x40b0_c2d8_52bb_3892);
    }

    /// About 17 M references over the four runs; seconds in release,
    /// where `ci.sh` runs it.
    #[test]
    #[ignore]
    fn replay_equals_recomputing_default() {
        replay_equals_recomputing(BarnesParams::default(), 0xc131_cd79_dc6f_680d);
    }

    #[test]
    fn zero_bodies_per_batch_is_one() {
        let run = |bodies_per_batch| {
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            spawn_single(&mut e, &BarnesParams { bodies_per_batch, ..BarnesParams::small() });
            e.run().unwrap()
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn zero_steps_exits_at_once() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        spawn_single(&mut e, &BarnesParams { steps: 0, ..BarnesParams::small() });
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert_eq!((report.total_l2_refs, report.total_instructions), (0, 0));
    }
}
