//! *typechecker*: the Sather compiler's typechecker pass (paper §3.3 and
//! Figure 7, left).
//!
//! The paper's description, reproduced here structurally: the thread's
//! working set is "the type graph including the subtyping information
//! for the entire compiled source tree" — brought into the cache in "a
//! very intensive burst of misses" when the thread unblocks. It then
//! "walks the abstract machine tree and performs semantic analysis for
//! each node with the help of the type graph. The abstract tree is
//! traversed in the order of creation, which causes long run lengths and
//! high clustering of cache references" — Agarwal et al.'s
//! *nonstationary* regime.
//!
//! The AST here is much larger than the cache and is streamed exactly
//! once in creation order: its nodes are *input*, not retained working
//! set — the thread's state (what an affinity scheduler could hope to
//! reuse) is the type graph. The performance counters, however, keep
//! counting the streaming misses, so the model's predicted footprint
//! keeps climbing long after the observed one has saturated: the paper's
//! over-estimation anomaly.

use crate::common::{rng, LINE};
use active_threads::{BatchCtx, Control, Engine, Program, ThreadId};
use locality_sim::VAddr;
use rand::Rng;
use std::rc::Rc;

/// Parameters of a typechecker run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypecheckerParams {
    /// Number of types in the type graph.
    pub types: usize,
    /// Number of AST nodes (streamed once, in creation order).
    pub ast_nodes: usize,
    /// AST nodes checked per batch.
    pub nodes_per_batch: usize,
    /// RNG seed for graph shape and node types.
    pub seed: u64,
}

impl Default for TypecheckerParams {
    fn default() -> Self {
        // ~4096 lines of type graph, an AST several times the cache.
        TypecheckerParams { types: 4096, ast_nodes: 60_000, nodes_per_batch: 256, seed: 77 }
    }
}

impl TypecheckerParams {
    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        TypecheckerParams { types: 256, ast_nodes: 2_000, nodes_per_batch: 128, seed: 77 }
    }
}

/// One type: a supertype chain entry (the subtyping lattice is a forest
/// with random-depth chains, like real single-inheritance hierarchies).
#[derive(Debug, Clone, Copy)]
struct TypeNode {
    supertype: Option<u32>,
}

/// One AST node: an operation over a type.
#[derive(Debug, Clone, Copy)]
struct AstNode {
    ty: u32,
}

/// The compiler data structures.
#[derive(Debug)]
pub struct TypecheckerData {
    types: Vec<TypeNode>,
    ast: Vec<AstNode>,
    types_base: VAddr,
    ast_base: VAddr,
    /// Number of subtype checks that succeeded (test oracle).
    pub conformances: std::cell::Cell<u64>,
}

impl TypecheckerData {
    /// Builds the type graph and the AST.
    pub fn new(types_base: VAddr, ast_base: VAddr, params: &TypecheckerParams) -> Rc<Self> {
        let mut r = rng(params.seed);
        let types: Vec<TypeNode> = (0..params.types)
            .map(|i| TypeNode {
                supertype: if i == 0 || r.gen_bool(0.1) {
                    None // a root of the forest
                } else {
                    Some(r.gen_range(0..i) as u32)
                },
            })
            .collect();
        // AST nodes reference types with locality: consecutive nodes tend
        // to use related types (same source file / class).
        // Every node names a type, so without types there is no AST.
        let nodes = if params.types == 0 { 0 } else { params.ast_nodes };
        let mut cur_ty = 0u32;
        let ast: Vec<AstNode> = (0..nodes)
            .map(|_| {
                if r.gen_bool(0.02) {
                    cur_ty = r.gen_range(0..params.types) as u32;
                }
                let ty = if r.gen_bool(0.7) { cur_ty } else { r.gen_range(0..params.types) as u32 };
                AstNode { ty }
            })
            .collect();
        Rc::new(TypecheckerData {
            types,
            ast,
            types_base,
            ast_base,
            conformances: std::cell::Cell::new(0),
        })
    }

    fn type_addr(&self, idx: u32) -> VAddr {
        self.types_base.offset(idx as u64 * LINE)
    }

    fn ast_addr(&self, idx: usize) -> VAddr {
        self.ast_base.offset(idx as u64 * LINE)
    }

    /// Real subtype query: walk the supertype chain.
    fn conforms(&self, ctx: &mut BatchCtx<'_>, mut ty: u32, ancestor: u32) -> bool {
        loop {
            ctx.read(self.type_addr(ty));
            ctx.compute(6);
            if ty == ancestor {
                return true;
            }
            match self.types[ty as usize].supertype {
                Some(s) => ty = s,
                None => return false,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The initial burst: resolve the whole type graph.
    ResolveGraph { next: usize },
    /// The nonstationary walk of the AST in creation order.
    CheckAst { next: usize },
}

/// The monitored typechecker thread.
pub struct TypecheckerWorker {
    data: Rc<TypecheckerData>,
    params: TypecheckerParams,
    phase: Phase,
}

impl Program for TypecheckerWorker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        if self.params.types == 0 {
            return Control::Exit;
        }
        match self.phase {
            Phase::ResolveGraph { next } => {
                if next == 0 {
                    // The thread's *state* is the type graph; the AST is
                    // streamed-once input (see module docs).
                    ctx.register_region(self.data.types_base, self.params.types as u64 * LINE);
                }
                // Intensive burst: bring the whole graph in, resolving
                // every supertype link.
                let end = (next + 1024).min(self.params.types);
                for t in next..end {
                    ctx.read(self.data.type_addr(t as u32));
                    if let Some(s) = self.data.types[t].supertype {
                        ctx.read(self.data.type_addr(s));
                    }
                    ctx.compute(10);
                }
                self.phase = if end >= self.params.types {
                    Phase::CheckAst { next: 0 }
                } else {
                    Phase::ResolveGraph { next: end }
                };
                Control::Yield
            }
            Phase::CheckAst { next } => {
                let end = (next + self.params.nodes_per_batch.max(1)).min(self.params.ast_nodes);
                let mut ok = self.data.conformances.get();
                for i in next..end {
                    // Creation-order traversal: long sequential runs.
                    ctx.read(self.data.ast_addr(i));
                    let node = self.data.ast[i];
                    // Semantic analysis: a conformance query against the
                    // node's type and one of the forest roots.
                    if self.data.conforms(ctx, node.ty, 0) {
                        ok += 1;
                    }
                    ctx.compute(24);
                }
                self.data.conformances.set(ok);
                if end >= self.params.ast_nodes {
                    Control::Exit
                } else {
                    self.phase = Phase::CheckAst { next: end };
                    Control::Yield
                }
            }
        }
    }
}

/// Spawns the monitored single work thread.
pub fn spawn_single(engine: &mut Engine, params: &TypecheckerParams) -> ThreadId {
    let types_base = engine.machine_mut().alloc(params.types as u64 * LINE, LINE);
    let ast_base = engine.machine_mut().alloc(params.ast_nodes as u64 * LINE, LINE);
    let data = TypecheckerData::new(types_base, ast_base, params);
    engine.spawn(Box::new(TypecheckerWorker {
        data,
        params: *params,
        phase: Phase::ResolveGraph { next: 0 },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::SchedPolicy;

    fn run(params: &TypecheckerParams) -> (active_threads::RunReport, u64) {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        let types_base = e.machine_mut().alloc(params.types as u64 * LINE, LINE);
        let ast_base = e.machine_mut().alloc(params.ast_nodes as u64 * LINE, LINE);
        let data = TypecheckerData::new(types_base, ast_base, params);
        e.spawn(Box::new(TypecheckerWorker {
            data: data.clone(),
            params: *params,
            phase: Phase::ResolveGraph { next: 0 },
        }));
        let report = e.run().unwrap();
        (report, data.conformances.get())
    }

    #[test]
    fn checks_every_node() {
        let params = TypecheckerParams::small();
        let (report, conf) = run(&params);
        assert_eq!(report.threads_completed, 1);
        // Some nodes conform to root 0, but not all (forest has several
        // roots).
        assert!(conf > 0 && conf < params.ast_nodes as u64, "conformances: {conf}");
    }

    #[test]
    fn supertype_chains_are_acyclic() {
        let data =
            TypecheckerData::new(VAddr(0x10000), VAddr(0x4000000), &TypecheckerParams::small());
        for start in 0..data.types.len() {
            let mut t = start as u32;
            let mut hops = 0;
            while let Some(s) = data.types[t as usize].supertype {
                t = s;
                hops += 1;
                assert!(hops <= data.types.len(), "cycle detected from {start}");
            }
        }
    }

    #[test]
    fn streaming_ast_dominates_misses() {
        // The AST stream (2000 lines) must produce more misses than the
        // type graph burst (256 lines).
        let params = TypecheckerParams::small();
        let (report, _) = run(&params);
        assert!(
            report.total_l2_misses as usize > params.ast_nodes / 2,
            "misses {} should reflect the AST stream",
            report.total_l2_misses
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(&TypecheckerParams::small()), run(&TypecheckerParams::small()));
    }

    #[test]
    fn zero_nodes_per_batch_is_one() {
        let run = |nodes_per_batch| {
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            spawn_single(
                &mut e,
                &TypecheckerParams { nodes_per_batch, ..TypecheckerParams::small() },
            );
            e.run().unwrap()
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn zero_types_exits_at_once() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        spawn_single(&mut e, &TypecheckerParams { types: 0, ..TypecheckerParams::small() });
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert_eq!((report.total_l2_refs, report.total_instructions), (0, 0));
    }
}
