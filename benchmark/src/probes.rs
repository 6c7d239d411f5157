//! Probes: one public function of one layer, timed in a loop over
//! inputs taken from the recorded streams.
//!
//! They keep the shapes of the `repro bench` groups (`machine_access`,
//! `priority_update`, `prio_heap`, `sched_dispatch`, `model`), so that
//! harness can later be retired without losing a row; `README.md` says
//! which probe stands for which group.

use crate::measure::ClockHook;
use active_threads::events::EngineView;
use active_threads::heap::PrioHeap;
use active_threads::sched::FcfsScheduler;
use active_threads::{EngineHook, SwitchEvent, SwitchReason};
use locality_core::markov::DependentChain;
use locality_core::{
    CounterSanitizer, CpuId, EstimatorConfig, FootprintEntry, FootprintEstimator,
    LocalityEstimator, ModelParams, PerSetEstimator, PolicyKind, PrioritySchemes,
    SanitizedInterval, SanitizerConfig, SharingGraph, ThreadId, ThreadSlots,
};
use locality_repro::digest::Sha256;
use locality_repro::modelcheck::{
    modelcheck_cell, McSelection, DEFAULT_DEPTH_BOUND, DEFAULT_MAX_SCHEDULES,
};
use locality_sim::{AccessKind, FootprintScratch, Machine, MachineConfig};
use locality_trace::{export, TraceEvent, TraceSink};
use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cost of one `op` in nanoseconds: a batch is calibrated to about two
/// milliseconds, and the fastest of nine batches is reported (host noise
/// only ever adds time).
pub fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let target = Duration::from_millis(2);
    let mut n: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            op();
        }
        let dt = t.elapsed();
        if dt >= target || n >= 1 << 26 {
            break;
        }
        let grow = (target.as_nanos() / dt.as_nanos().max(1)).clamp(2, 16) as u64;
        n = n.saturating_mul(grow);
    }
    (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                op();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Calls `op` with the recorded events one after another, for ever.
fn cycle<'a>(
    events: &'a [SwitchEvent],
    mut op: impl FnMut(&SwitchEvent) + 'a,
) -> impl FnMut() + 'a {
    let mut i = 0;
    move || {
        op(&events[i]);
        i = (i + 1) % events.len();
    }
}

/// `Machine::try_new` for this machine, in microseconds.
pub fn machine_new_us(config: &MachineConfig) -> f64 {
    ns_per_op(|| {
        black_box(Machine::try_new(config.clone()).is_ok());
    }) / 1e3
}

/// `Machine::l2_footprints_into` on a full E-cache, in microseconds.
///
/// # Errors
///
/// Returns the simulator's error for an invalid machine.
pub fn footprint_query_us(config: &MachineConfig) -> Result<f64, Box<dyn Error>> {
    let mut m = Machine::try_new(config.clone())?;
    let tid = ThreadId(1);
    let line = config.hierarchy.l2.line;
    let bytes = config.l2_lines() as u64 * line;
    let base = m.alloc(bytes, line);
    m.register_region(tid, base, bytes);
    for i in 0..config.l2_lines() as u64 {
        m.access(0, base.offset(i * line), AccessKind::Read);
    }
    let mut scratch = FootprintScratch::new();
    Ok(ns_per_op(|| {
        m.l2_footprints_into(0, &mut scratch);
        black_box(scratch.lines(tid));
    }) / 1e3)
}

/// `CounterSanitizer::sanitize` over the recorded deltas.
pub fn sanitize_ns(events: &[SwitchEvent]) -> f64 {
    let mut sanitizer = CounterSanitizer::new(SanitizerConfig::default());
    ns_per_op(cycle(events, |ev| {
        black_box(sanitizer.sanitize(ev.tid, ev.delta.refs, ev.delta.hits, ev.delta.misses));
    }))
}

/// `PrioritySchemes::on_block_self` and `on_dependent` (LFF) with the
/// recorded miss counts: `(blocking, dependent)` nanoseconds.
///
/// # Errors
///
/// Returns the model's error for a cache too small to model.
pub fn prio_update_ns(
    events: &[SwitchEvent],
    l2_lines: usize,
) -> Result<(f64, f64), Box<dyn Error>> {
    let schemes = PrioritySchemes::new(PolicyKind::Lff, ModelParams::new(l2_lines)?);
    let mut entry = FootprintEntry::cold();
    schemes.on_dispatch(&mut entry, 0);
    let mut m = 0u64;
    let blocking = ns_per_op(cycle(events, |ev| {
        m += ev.delta.misses;
        black_box(schemes.on_block_self(black_box(&mut entry), ev.delta.misses, m));
    }));
    let mut entry = FootprintEntry::cold();
    schemes.on_dispatch(&mut entry, 0);
    let mut m = 0u64;
    let dependent = ns_per_op(cycle(events, |ev| {
        black_box(schemes.on_dependent(black_box(&mut entry), 0.5, ev.delta.misses, m));
        m += ev.delta.misses;
    }));
    Ok((blocking, dependent))
}

fn estimator_ns<E: FootprintEstimator>(
    mut est: E,
    events: &[SwitchEvent],
    graph: &SharingGraph,
) -> f64 {
    ns_per_op(cycle(events, |ev| {
        est.on_switch(CpuId(ev.cpu), ev.tid);
        black_box(est.on_miss(CpuId(ev.cpu), ev.tid, ev.delta.misses, graph).len());
    }))
}

/// `FootprintEstimator::on_switch` + `on_miss` over the recorded events
/// for the closed-form and the per-set estimator:
/// `(closed_form, per_set)` nanoseconds a switch.
///
/// # Errors
///
/// Returns the model's error for a geometry it cannot describe.
pub fn estimator_switch_ns(
    events: &[SwitchEvent],
    graph: &SharingGraph,
    machine: &MachineConfig,
) -> Result<(f64, f64), Box<dyn Error>> {
    let lines = machine.l2_lines();
    let params = ModelParams::new(lines)?;
    let closed =
        LocalityEstimator::new(EstimatorConfig::new(PolicyKind::Lff, params, machine.cpus));
    let per_set = PerSetEstimator::new(lines, machine.hierarchy.l2.ways, machine.cpus)?;
    Ok((estimator_ns(closed, events, graph), estimator_ns(per_set, events, graph)))
}

/// `SharingGraph::compact` after one edge changed, in microseconds.
///
/// # Errors
///
/// Returns the model's error if the edge cannot be set.
pub fn graph_compact_us(graph: &SharingGraph) -> Result<f64, Box<dyn Error>> {
    let mut g = graph.clone();
    let (src, dst) = g.edges().next().map_or((ThreadId(1), ThreadId(2)), |(s, d, _)| (s, d));
    g.set(src, dst, 0.5)?;
    let mut flip = false;
    Ok(ns_per_op(|| {
        flip = !flip;
        // Re-weighting an edge marks the CSR view stale.
        let _ = g.set(src, dst, if flip { 0.25 } else { 0.5 });
        g.compact();
        black_box(g.is_compact());
    }) / 1e3)
}

/// `DependentChain::tabulate` in milliseconds and
/// `ChainTransientTable::expected_after` in nanoseconds.
///
/// # Errors
///
/// Returns the model's error for a cache too small to model.
pub fn chain(l2_lines: usize) -> Result<(f64, f64), Box<dyn Error>> {
    let chain = DependentChain::new(ModelParams::new(l2_lines)?, 0.5)?;
    // Timed once: at 8192 lines one tabulation takes most of a second.
    let t = Instant::now();
    let table = chain.tabulate(16_384);
    let tabulate_ns = t.elapsed().as_nanos() as f64;
    let mut n = 1u64;
    let lookup = ns_per_op(|| {
        n = n % 200 + 1;
        black_box(table.expected_after(100.0, black_box(n)));
    });
    Ok((tabulate_ns / 1e6, lookup))
}

/// `PrioHeap::update` and a `push` + `pop_max` pair at a population of
/// `threads`: `(update, push_pop)` nanoseconds.
pub fn heap_ns(threads: u64) -> (f64, f64) {
    let threads = threads.max(2);
    let mut slots = ThreadSlots::new();
    let handles: Vec<_> = (0..threads).map(|i| slots.bind(ThreadId(i))).collect();
    let prio = |i: u64| ((i * 2_654_435_761) % 10_000) as f64;
    let mut heap = PrioHeap::new();
    for i in 0..threads {
        heap.push(ThreadId(i), handles[i as usize], prio(i));
    }
    let mut i = 0u64;
    let update = ns_per_op(|| {
        i = (i * 16_807 + 7) % threads;
        heap.update(handles[i as usize], ((i * 31) % 5000) as f64);
        black_box(heap.peek_max());
    });
    let push_pop = ns_per_op(|| {
        if let Some((tid, slot, p)) = heap.pop_max() {
            heap.push(tid, slot, p * 0.5);
        }
    });
    (update, push_pop)
}

/// What the timed runs' [`ClockHook`] costs a context switch.
///
/// # Errors
///
/// Returns the simulator's error for an invalid machine.
pub fn clock_hook_ns(stride: u64) -> Result<f64, Box<dyn Error>> {
    let machine = Machine::try_new(MachineConfig::ultra1())?;
    let sched = FcfsScheduler::new();
    let view = EngineView { machine: &machine, sched: &sched };
    let event = SwitchEvent {
        cpu: 0,
        tid: ThreadId(1),
        reason: SwitchReason::Yield,
        delta: SanitizedInterval::default(),
        clock: 0,
        switch_index: 0,
    };
    let (mut hook, stamps) = ClockHook::new(stride);
    Ok(ns_per_op(|| {
        hook.on_context_switch(&event, &view);
        if stamps.borrow().len() >= 1 << 16 {
            stamps.borrow_mut().clear();
        }
    }))
}

/// Naive exploration of the four model-checking fixtures:
/// `(microseconds a schedule, schedules)`.
pub fn explore() -> (f64, f64) {
    let t = Instant::now();
    let schedules: u64 = McSelection::All
        .workloads()
        .into_iter()
        .map(|w| {
            modelcheck_cell(w, true, DEFAULT_DEPTH_BOUND, DEFAULT_MAX_SCHEDULES, None).schedules
        })
        .sum();
    (t.elapsed().as_nanos() as f64 / 1e3 / schedules.max(1) as f64, schedules as f64)
}

/// `TraceSink::record` in nanoseconds and `export::to_jsonl` in MB/s,
/// both as compiled without the `trace` feature.
pub fn trace_sink() -> (f64, f64) {
    let mut sink = TraceSink::new(1 << 16);
    let mut i = 0u64;
    let record = ns_per_op(|| {
        i += 1;
        sink.set_clock(i);
        sink.record(TraceEvent::IntervalEnd {
            cpu: (i % 8) as u32,
            tid: i % 1024,
            reason: "yield",
            refs: 400,
            misses: i % 300,
        });
    });
    let records = sink.records();
    let mut best = f64::INFINITY;
    let mut bytes = 0;
    for _ in 0..5 {
        let t = Instant::now();
        bytes = black_box(export::to_jsonl(&records)).len();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    (record, bytes as f64 * 1e3 / best)
}

/// `digest::Sha256` over 1 MiB, in MB/s.
pub fn sha256_mb_per_s() -> f64 {
    let data: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    let ns = ns_per_op(|| {
        let mut h = Sha256::new();
        h.update(&data);
        black_box(h.finalize());
    });
    data.len() as f64 * 1e3 / ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_grows_with_the_work() {
        let spin = |n: u64| {
            ns_per_op(|| {
                let mut x = 1u64;
                for i in 0..n {
                    x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
                }
                black_box(x);
            })
        };
        let (small, large) = (spin(100), spin(10_000));
        assert!(large > small * 20.0, "{small} ns vs {large} ns");
    }

    #[test]
    fn cheap_probes_return_positive_numbers() {
        let (update, push_pop) = heap_ns(64);
        assert!(update > 0.0 && push_pop > 0.0);
        assert!(clock_hook_ns(4).unwrap() > 0.0);
        assert!(machine_new_us(&MachineConfig::ultra1()) > 0.0);
        let mut graph = SharingGraph::new();
        graph.set(ThreadId(1), ThreadId(2), 0.5).unwrap();
        assert!(graph_compact_us(&graph).unwrap() > 0.0);
        assert!(graph_compact_us(&SharingGraph::new()).unwrap() > 0.0);
    }
}
