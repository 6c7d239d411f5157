//! The random memory walk microbenchmark (paper §3.2, Figure 4).
//!
//! A walker thread touches uniformly-random cache lines of its region —
//! the reference pattern that *exactly* satisfies the model's
//! independence assumption, so observed footprints should match the
//! closed forms almost perfectly. Sleeper threads hold pre-established
//! footprints (optionally overlapping the walker's region by a chosen
//! fraction) and decay or grow while the walker runs.

use crate::common::{rng, LINE};
use active_threads::{BatchCtx, Control, Engine, Program, ThreadId};
use locality_sim::VAddr;
use rand::rngs::StdRng;
use rand::Rng;

/// Parameters of a random walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkParams {
    /// Size of the region walked, in bytes.
    pub region_bytes: u64,
    /// Accesses per batch (sampling granularity).
    pub batch_accesses: u64,
    /// Total accesses before exiting.
    pub total_accesses: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WalkParams {
    fn default() -> Self {
        // A region much larger than the 512 KiB E-cache: misses then land
        // (nearly) uniformly over the cache sets, the regime the model
        // assumes. (With a region of only ~2x the cache, untouched sets
        // receive misses disproportionately often and observed footprints
        // outgrow the closed form.)
        WalkParams {
            region_bytes: 8 * 1024 * 1024,
            batch_accesses: 512,
            total_accesses: 200_000,
            seed: 42,
        }
    }
}

/// The walker program.
#[derive(Debug)]
pub struct RandomWalk {
    region: Option<VAddr>,
    params: WalkParams,
    issued: u64,
    rng: StdRng,
}

impl RandomWalk {
    /// Creates a walker; memory is allocated on first run.
    pub fn new(params: WalkParams) -> Self {
        RandomWalk { region: None, rng: rng(params.seed), params, issued: 0 }
    }
}

impl Program for RandomWalk {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        let bytes = self.params.region_bytes;
        let region = *self.region.get_or_insert_with(|| ctx.alloc(bytes, LINE));
        ctx.register_region(region, bytes);
        let lines = bytes / LINE;
        let n = self.params.batch_accesses.min(self.params.total_accesses - self.issued);
        for _ in 0..n {
            let line = self.rng.gen_range(0..lines);
            ctx.read(region.offset(line * LINE));
        }
        self.issued += n;
        if self.issued >= self.params.total_accesses {
            Control::Exit
        } else {
            Control::Yield
        }
    }

    fn name(&self) -> &str {
        "walk"
    }
}

/// A sleeper: touches a prefix of its region once (establishing an
/// initial footprint), then sleeps until the experiment is over.
#[derive(Debug)]
pub struct Sleeper {
    region: VAddr,
    region_bytes: u64,
    prefill_bytes: u64,
    sleep_cycles: u64,
    phase: u8,
}

impl Sleeper {
    /// Creates a sleeper over a pre-allocated region.
    pub fn new(region: VAddr, region_bytes: u64, prefill_bytes: u64, sleep_cycles: u64) -> Self {
        Sleeper {
            region,
            region_bytes,
            prefill_bytes: prefill_bytes.min(region_bytes),
            sleep_cycles,
            phase: 0,
        }
    }
}

impl Program for Sleeper {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        match self.phase {
            0 => {
                self.phase = 1;
                ctx.register_region(self.region, self.region_bytes);
                ctx.read_range(self.region, self.prefill_bytes, LINE);
                Control::Sleep(self.sleep_cycles)
            }
            _ => Control::Exit,
        }
    }

    fn name(&self) -> &str {
        "sleeper"
    }
}

/// Spawns a single walker (convenience for tests/examples).
pub fn spawn_single(engine: &mut Engine, params: &WalkParams) -> ThreadId {
    engine.spawn(Box::new(RandomWalk::new(*params)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::SchedPolicy;

    #[test]
    fn walker_fills_cache_toward_model_prediction() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        let params = WalkParams { total_accesses: 60_000, ..WalkParams::default() };
        let tid = spawn_single(&mut e, &params);
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        // Ground truth at exit is gone (regions dropped), but miss counts
        // must be substantial: a 1 MiB region walked 60k times from cold.
        assert!(report.total_l2_misses > 20_000, "misses: {}", report.total_l2_misses);
        let _ = tid;
    }

    #[test]
    fn walker_observed_matches_closed_form() {
        use locality_core::{FootprintModel, ModelParams};
        // Drive a shorter walk and compare the observed footprint with the
        // model at the end (single interval => closed form applies).
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        struct OneShot(RandomWalk);
        impl Program for OneShot {
            fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
                // Run the whole walk in one batch, then hold (sleep) so the
                // cache state survives for inspection.
                loop {
                    if let Control::Exit = self.0.next_batch(ctx) {
                        break;
                    }
                }
                Control::Exit
            }
        }
        let params = WalkParams { total_accesses: 8000, ..WalkParams::default() };
        let tid = e.spawn(Box::new(OneShot(RandomWalk::new(params))));

        // Observe at exit via a hook? Simpler: run, then re-derive from
        // the machine — but exit drops regions. Instead check against the
        // miss count before regions are dropped using a hook.
        use active_threads::{EngineHook, SwitchEvent};
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Sample {
            out: Rc<RefCell<(u64, u64)>>, // (misses, observed footprint)
            tid: locality_core::ThreadId,
        }
        impl EngineHook for Sample {
            fn on_context_switch(
                &mut self,
                ev: &SwitchEvent,
                view: &active_threads::events::EngineView<'_>,
            ) {
                if ev.tid == self.tid {
                    let fp = view.machine.l2_footprint_lines(ev.cpu, self.tid);
                    *self.out.borrow_mut() = (ev.delta.misses, fp);
                }
            }
        }
        let out = Rc::new(RefCell::new((0, 0)));
        e.add_hook(Box::new(Sample { out: out.clone(), tid }));
        e.run().unwrap();
        let (misses, observed) = *out.borrow();
        assert!(misses > 4000, "expected a churny walk, got {misses} misses");
        let model = FootprintModel::new(ModelParams::new(8192).unwrap());
        let predicted = model.expected_blocking(0.0, misses);
        let err = (observed as f64 - predicted).abs() / predicted;
        assert!(err < 0.05, "observed {observed} vs predicted {predicted:.0} ({misses} misses)");
    }

    #[test]
    fn sleeper_prefills_then_sleeps() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        let region = e.machine_mut().alloc(64 * 100, LINE);
        e.spawn(Box::new(Sleeper::new(region, 64 * 100, 64 * 100, 1_000_000)));
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert_eq!(report.total_l2_misses, 100);
        assert!(report.total_cycles >= 1_000_000, "slept through simulated time");
    }
}
