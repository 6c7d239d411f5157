//! Deterministic racy/clean workload fixtures.
//!
//! Both workloads have the same shape — a parent initialises a shared
//! buffer, spawns two workers that repeatedly write it plus a private
//! buffer each, then joins them and reads the result — and differ only in
//! synchronization and annotations:
//!
//! * [`clean_workload`] guards the shared buffer with a mutex and
//!   annotates every sharing pair: race-free under **every** schedule,
//!   no lint findings.
//! * [`racy_workload`] has no inter-worker synchronization at all (only
//!   the common spawn and the final joins) and omits the worker↔worker
//!   annotations: the workers' writes are concurrent under every
//!   schedule, so the race verdict cannot depend on scheduling, and the
//!   missing annotation surfaces as `drift-missing`.

use active_threads::{BatchCtx, CondId, Control, MutexId, Program};
use locality_sim::VAddr;

/// Bytes of the parent-owned buffer both workers write.
pub const SHARED_BYTES: u64 = 8192;
/// Bytes of each worker's private buffer.
pub const PRIVATE_BYTES: u64 = 4096;
const STRIDE: u64 = 64;
/// Coefficient used for every annotation edge; chosen so each thread's
/// out-weights sum to exactly 1 in the clean workload.
const Q: f64 = 0.5;

struct Worker {
    shared: VAddr,
    mutex: Option<MutexId>,
    rounds: u32,
    phase: u8,
    private: Option<VAddr>,
}

impl Worker {
    fn new(shared: VAddr, mutex: Option<MutexId>, rounds: u32) -> Self {
        Worker { shared, mutex, rounds: rounds.max(1), phase: 0, private: None }
    }

    fn touch(&self, ctx: &mut BatchCtx<'_>) {
        ctx.write_range(self.shared, SHARED_BYTES, STRIDE);
        ctx.write_range(self.private.expect("private allocated in phase 0"), PRIVATE_BYTES, STRIDE);
    }
}

impl Program for Worker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        match self.phase {
            0 => {
                ctx.register_region(self.shared, SHARED_BYTES);
                let p = ctx.alloc(PRIVATE_BYTES, 64);
                ctx.register_region(p, PRIVATE_BYTES);
                self.private = Some(p);
                self.phase = if self.mutex.is_some() { 1 } else { 4 };
                Control::Yield
            }
            1 => {
                self.phase = 2;
                Control::Lock(self.mutex.expect("phase 1 only entered with a mutex"))
            }
            2 => {
                self.touch(ctx);
                self.phase = 3;
                Control::Unlock(self.mutex.expect("phase 2 only entered with a mutex"))
            }
            3 => {
                self.rounds -= 1;
                if self.rounds == 0 {
                    Control::Exit
                } else {
                    self.phase = 1;
                    Control::Yield
                }
            }
            _ => {
                // Racy path: unsynchronized writes to the shared buffer.
                self.touch(ctx);
                self.rounds -= 1;
                if self.rounds == 0 {
                    Control::Exit
                } else {
                    Control::Yield
                }
            }
        }
    }
}

struct Parent {
    clean: bool,
    rounds: u32,
    phase: u8,
    buf: Option<VAddr>,
    second_worker: Option<locality_core::ThreadId>,
}

impl Program for Parent {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        match self.phase {
            0 => {
                let buf = ctx.alloc(SHARED_BYTES, 64);
                ctx.register_region(buf, SHARED_BYTES);
                ctx.write_range(buf, SHARED_BYTES, STRIDE);
                let mutex = self.clean.then(|| ctx.create_mutex());
                let w1 = ctx.spawn(Box::new(Worker::new(buf, mutex, self.rounds)));
                let w2 = ctx.spawn(Box::new(Worker::new(buf, mutex, self.rounds)));
                let me = ctx.self_id();
                let _ = ctx.at_share(me, w1, Q);
                let _ = ctx.at_share(me, w2, Q);
                let _ = ctx.at_share(w1, me, Q);
                let _ = ctx.at_share(w2, me, Q);
                if self.clean {
                    let _ = ctx.at_share(w1, w2, Q);
                    let _ = ctx.at_share(w2, w1, Q);
                }
                self.buf = Some(buf);
                self.second_worker = Some(w2);
                self.phase = 1;
                Control::Join(w1)
            }
            1 => {
                self.phase = 2;
                Control::Join(self.second_worker.expect("workers spawned in phase 0"))
            }
            _ => {
                ctx.read_range(
                    self.buf.expect("buffer allocated in phase 0"),
                    SHARED_BYTES,
                    STRIDE,
                );
                Control::Exit
            }
        }
    }
}

fn parent(clean: bool, rounds: u32) -> Box<dyn Program> {
    Box::new(Parent { clean, rounds: rounds.max(1), phase: 0, buf: None, second_worker: None })
}

/// The mutex-protected, fully annotated workload. Race-free.
pub fn clean_workload(rounds: u32) -> Box<dyn Program> {
    parent(true, rounds)
}

/// The unsynchronized, under-annotated workload. Races under every
/// schedule.
pub fn racy_workload(rounds: u32) -> Box<dyn Program> {
    parent(false, rounds)
}

/// A worker that acquires `first` then `second`, then releases both.
struct LockPair {
    first: MutexId,
    second: MutexId,
    phase: u8,
}

impl Program for LockPair {
    fn next_batch(&mut self, _ctx: &mut BatchCtx<'_>) -> Control {
        let phase = self.phase;
        self.phase += 1;
        match phase {
            0 => Control::Lock(self.first),
            1 => Control::Lock(self.second),
            2 => Control::Unlock(self.second),
            3 => Control::Unlock(self.first),
            _ => Control::Exit,
        }
    }
}

/// Deferred constructor for [`JoinTwo`]'s child pair.
type SpawnPair = Box<dyn FnOnce(&mut BatchCtx<'_>) -> (Box<dyn Program>, Box<dyn Program>)>;

/// A two-phase parent that spawns two children and joins them in order.
struct JoinTwo {
    children: Option<(locality_core::ThreadId, locality_core::ThreadId)>,
    spawn: Option<SpawnPair>,
    phase: u8,
}

impl Program for JoinTwo {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        match self.phase {
            0 => {
                let spawn = self.spawn.take().expect("phase 0 runs once");
                let (a, b) = spawn(ctx);
                let c1 = ctx.spawn(a);
                let c2 = ctx.spawn(b);
                self.children = Some((c1, c2));
                self.phase = 1;
                Control::Join(c1)
            }
            1 => {
                self.phase = 2;
                Control::Join(self.children.expect("children spawned in phase 0").1)
            }
            _ => Control::Exit,
        }
    }
}

/// The AB–BA deadlock workload: two workers acquire two mutexes in
/// opposite orders. Under most schedules (including the engine's
/// default run-to-block dispatch) each worker holds and releases both
/// locks without contention and the run completes; under schedules
/// where the acquires interleave, the workers deadlock. A
/// single-schedule analysis sees at most a lock-order-cycle *warning* —
/// only exhaustive exploration proves the deadlock is realizable.
pub fn deadlock_workload() -> Box<dyn Program> {
    Box::new(JoinTwo {
        children: None,
        spawn: Some(Box::new(|ctx| {
            let a = ctx.create_mutex();
            let b = ctx.create_mutex();
            (
                Box::new(LockPair { first: a, second: b, phase: 0 }),
                Box::new(LockPair { first: b, second: a, phase: 0 }),
            )
        })),
        phase: 0,
    })
}

/// The condvar waiter of [`lost_wakeup_workload`].
struct CondWaiter {
    mutex: MutexId,
    cond: CondId,
    phase: u8,
}

impl Program for CondWaiter {
    fn next_batch(&mut self, _ctx: &mut BatchCtx<'_>) -> Control {
        let phase = self.phase;
        self.phase += 1;
        match phase {
            0 => Control::Lock(self.mutex),
            1 => Control::CondWait(self.cond, self.mutex),
            2 => Control::Unlock(self.mutex),
            _ => Control::Exit,
        }
    }
}

/// The one-shot signaler of [`lost_wakeup_workload`].
struct CondSignaler {
    cond: CondId,
    phase: u8,
}

impl Program for CondSignaler {
    fn next_batch(&mut self, _ctx: &mut BatchCtx<'_>) -> Control {
        let phase = self.phase;
        self.phase += 1;
        match phase {
            0 => Control::CondSignal(self.cond),
            _ => Control::Exit,
        }
    }
}

/// The lost-wakeup workload: a waiter does `lock; cond_wait` while a
/// signaler fires a single `cond_signal` with no predicate re-check.
/// Schedules where the signal lands before the wait leave the waiter
/// parked on the condvar forever — a condvar stall the model checker
/// classifies separately from a lock-cycle deadlock.
pub fn lost_wakeup_workload() -> Box<dyn Program> {
    Box::new(JoinTwo {
        children: None,
        spawn: Some(Box::new(|ctx| {
            let m = ctx.create_mutex();
            let c = ctx.create_cond();
            (
                Box::new(CondWaiter { mutex: m, cond: c, phase: 0 }),
                Box::new(CondSignaler { cond: c, phase: 0 }),
            )
        })),
        phase: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_log;
    use active_threads::{Engine, EngineConfig, SchedPolicy};
    use locality_sim::MachineConfig;

    fn run(prog: Box<dyn Program>) -> crate::AnalysisReport {
        let mut engine = Engine::new(
            MachineConfig::enterprise5000(2),
            SchedPolicy::Lff,
            EngineConfig::default(),
        )
        .unwrap();
        engine.enable_observation();
        engine.spawn(prog);
        engine.run().expect("fixture run");
        let log = engine.take_observation().expect("observation enabled");
        analyze_log(&log)
    }

    #[test]
    fn racy_workload_is_flagged() {
        let report = run(racy_workload(3));
        assert!(report.has_errors());
        assert!(!report.races.is_empty());
        let codes: Vec<_> = report.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"drift-missing"), "{codes:?}");
    }

    #[test]
    fn clean_workload_is_quiet() {
        let report = run(clean_workload(3));
        assert!(!report.has_errors(), "{:?}", report.findings);
        assert!(report.races.is_empty());
        // Fully annotated and mutex-protected: nothing at all to report.
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn verdicts_are_stable_across_reruns() {
        for _ in 0..3 {
            let racy = run(racy_workload(2));
            let clean = run(clean_workload(2));
            assert!(racy.has_errors());
            assert!(!clean.has_errors());
        }
    }
}
