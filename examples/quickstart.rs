//! Quickstart: the whole stack in ~60 lines.
//!
//! Builds the simulated 8-CPU Enterprise 5000, runs an oversubscribed
//! set of periodic threads under FCFS and under LFF, and prints how many
//! E-cache misses locality scheduling eliminated.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use thread_locality::core::{FootprintModel, ModelParams};
use thread_locality::sim::MachineConfig;
use thread_locality::threads::{BatchCtx, Control, Engine, EngineConfig, Program, SchedPolicy};

/// A periodic thread: touch 100 cache lines of private state, then sleep
/// for as long as the touch took (the paper's `tasks` benchmark).
struct PeriodicTask {
    region: Option<thread_locality::sim::VAddr>,
    periods: u32,
}

impl Program for PeriodicTask {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        let region = *self.region.get_or_insert_with(|| ctx.alloc(100 * 64, 64));
        ctx.register_region(region, 100 * 64);
        ctx.read_range(region, 100 * 64, 64);
        ctx.compute(400);
        self.periods -= 1;
        if self.periods == 0 {
            Control::Exit
        } else {
            Control::Sleep(ctx.batch_cycles())
        }
    }
}

fn run(policy: SchedPolicy) -> thread_locality::threads::RunReport {
    let mut engine = Engine::new(MachineConfig::enterprise5000(8), policy, EngineConfig::default())
        .expect("valid machine");
    for _ in 0..512 {
        engine.spawn(Box::new(PeriodicTask { region: None, periods: 25 }));
    }
    engine.run().expect("workload completes")
}

fn main() {
    // The analytical model itself, standalone: how fast does a cold
    // thread fill a 512 KiB / 64 B-line E-cache?
    let model = FootprintModel::new(ModelParams::new(8192).expect("valid cache"));
    println!(
        "a cold thread reaches half the cache after {} misses (model)",
        model.misses_to_fill(0.5).expect("0.5 is a valid fraction")
    );

    // The full runtime: FCFS vs Largest-Footprint-First.
    let fcfs = run(SchedPolicy::Fcfs);
    let lff = run(SchedPolicy::Lff);
    println!("FCFS: {:>9} E-cache misses, {:>12} cycles", fcfs.total_l2_misses, fcfs.total_cycles);
    println!("LFF : {:>9} E-cache misses, {:>12} cycles", lff.total_l2_misses, lff.total_cycles);
    println!(
        "LFF eliminated {:.0}% of the misses and ran {:.2}x faster",
        lff.misses_eliminated_vs(&fcfs) * 100.0,
        lff.speedup_over(&fcfs)
    );
}
