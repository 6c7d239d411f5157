//! The traced run of an engine workload: where `Engine::run` spends its
//! host time, layer by layer, measured from outside the crates.
//!
//! Real spans go around each call the harness makes (`Engine::new`,
//! `spawn_*`, `Engine::run`, each replay, each probe). Inside
//! `Engine::run` no span can be placed from here, so its split is
//! *estimated by replay*: the cell is run again with the machine
//! recording its reference trace and a hook recording every switch
//! event; the trace is replayed into a fresh, identically configured
//! machine and into the machine's parts in isolation, the switch events
//! into a fresh scheduler. A layer's self time is its replay time; what
//! is left of `Engine::run` is a named residual, never spread.

use crate::cells::{self, Cell, Workload};
use crate::check;
use crate::probes;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats;
use active_threads::events::EngineView;
use active_threads::sched::{FcfsScheduler, LocalityConfig, LocalityScheduler};
use active_threads::{EngineHook, RunReport, SchedPolicy, Scheduler, SwitchEvent};
use locality_core::{PolicyKind, SharingGraph, ThreadId};
use locality_sim::cache::Cache;
use locality_sim::hierarchy::CpuCache;
use locality_sim::paging::PageTable;
use locality_sim::{AccessKind, Machine, MachineConfig, Tlb, Trace, VAddr};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::rc::Rc;
use std::time::Instant;

/// One untraced run of a cell with spans around its three calls.
struct PlainRun {
    report: RunReport,
    spawned: u64,
    page_faults: u64,
    new_ns: f64,
    spawn_ns: f64,
    run_ns: f64,
}

fn plain_run(cell: &Cell, spans: &mut Spans) -> Result<PlainRun, Box<dyn Error>> {
    let outer = spans.enter("bench.cell", &cell.label);
    let id = spans.enter("threads.engine_new", &cell.label);
    let mut engine = cell.new_engine()?;
    let new_ns = spans.exit(id);
    let id = spans.enter("workloads.spawn", &cell.label);
    let spawned = cell.spawn_into(&mut engine);
    let spawn_ns = spans.exit(id);
    let id = spans.enter("threads.engine_run", &cell.label);
    let report = engine.run()?;
    let run_ns = spans.exit(id);
    spans.exit(outer);
    let page_faults = engine.machine().page_faults();
    Ok(PlainRun { report, spawned, page_faults, new_ns, spawn_ns, run_ns })
}

/// Records every switch event of a run.
struct EventRecorder(Rc<RefCell<Vec<SwitchEvent>>>);

impl EngineHook for EventRecorder {
    fn on_context_switch(&mut self, event: &SwitchEvent, _view: &EngineView<'_>) {
        self.0.borrow_mut().push(*event);
    }
}

/// What a recording run captured.
struct Recording {
    report: RunReport,
    trace: Trace,
    events: Vec<SwitchEvent>,
    /// The sharing graph as the spawn left it, compacted.
    graph: SharingGraph,
    run_ns: f64,
}

fn recorded_run(cell: &Cell, spans: &mut Spans) -> Result<Recording, Box<dyn Error>> {
    let mut engine = cell.new_engine()?;
    // From the very first access, so a replay faults pages in the same
    // order and reproduces the run's misses exactly.
    engine.machine_mut().start_tracing();
    cell.spawn_into(&mut engine);
    let mut graph = engine.graph().clone();
    graph.compact();
    let events = Rc::new(RefCell::new(Vec::new()));
    engine.add_hook(Box::new(EventRecorder(events.clone())));
    let id = spans.enter("threads.engine_run.recorded", &cell.label);
    let report = engine.run()?;
    let run_ns = spans.exit(id);
    let trace = engine.machine_mut().take_trace().ok_or("the machine kept no trace")?;
    drop(engine);
    let events = Rc::try_unwrap(events).map_err(|_| "the event hook outlived its engine")?;
    Ok(Recording { report, trace, events: events.into_inner(), graph, run_ns })
}

/// A machine like the cell's, one placeholder thread bound per
/// processor so per-thread statistics are kept as in a real run.
fn fresh_machine(config: &MachineConfig) -> Result<Machine, Box<dyn Error>> {
    let mut machine = Machine::try_new(config.clone())?;
    for cpu in 0..config.cpus {
        machine.set_running(cpu, Some(ThreadId(1 + cpu as u64)));
    }
    Ok(machine)
}

/// A maximal stretch of the trace with one processor, one kind and one
/// non-negative stride: what `Machine::access_run` takes.
struct Run {
    cpu: usize,
    kind: AccessKind,
    base: VAddr,
    stride: u64,
    count: u64,
}

fn coalesce(trace: &Trace) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    let mut last = 0u64;
    for r in trace.iter() {
        let cpu = r.cpu as usize;
        if let Some(run) = runs.last_mut() {
            if run.cpu == cpu && run.kind == r.kind && r.addr.0 >= last {
                let step = r.addr.0 - last;
                if run.count == 1 {
                    run.stride = step;
                }
                if step == run.stride {
                    run.count += 1;
                    last = r.addr.0;
                    continue;
                }
            }
        }
        runs.push(Run { cpu, kind: r.kind, base: r.addr, stride: 0, count: 1 });
        last = r.addr.0;
    }
    runs
}

/// Host nanoseconds the trace costs each part of the simulator.
#[derive(Clone, Copy)]
struct SimCosts {
    refs: f64,
    replay_ns: f64,
    run_ns: f64,
    runs: f64,
    translate_ns: f64,
    tlb_ns: f64,
    tlb_probes: f64,
    tag_probe_ns: f64,
    hierarchy_ns: f64,
}

impl SimCosts {
    /// Two measurements of one trace: the faster reading of each part.
    fn fastest(self, other: SimCosts) -> SimCosts {
        SimCosts {
            replay_ns: self.replay_ns.min(other.replay_ns),
            run_ns: self.run_ns.min(other.run_ns),
            translate_ns: self.translate_ns.min(other.translate_ns),
            tlb_ns: self.tlb_ns.min(other.tlb_ns),
            tag_probe_ns: self.tag_probe_ns.min(other.tag_probe_ns),
            hierarchy_ns: self.hierarchy_ns.min(other.hierarchy_ns),
            ..self
        }
    }

    /// The simulator's estimated share of the run. The applications
    /// issue whole runs where their loops were ported to
    /// `BatchCtx::run` (ocean, fmm) and single accesses elsewhere
    /// (merge), and the trace does not say which; the cheaper of the two
    /// replays is the closer one (the scalar replay of ocean alone takes
    /// longer than its whole `Engine::run`).
    fn self_ns(&self) -> f64 {
        self.replay_ns.min(self.run_ns)
    }
}

/// Host nanoseconds of `f`.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Replays the recorded trace once into the machine and once into each
/// of its parts, every time into fresh state.
fn sim_costs(
    cell: &Cell,
    rec: &Recording,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<SimCosts, Box<dyn Error>> {
    let config = cell.effective_machine();
    let trace = &rec.trace;
    let want = rec.report.total_l2_misses;

    // The whole machine, one scalar access at a time.
    let mut machine = fresh_machine(&config)?;
    let id = spans.enter("sim.replay", &cell.label);
    let replay_ns = timed(|| {
        trace.replay(&mut machine);
    });
    spans.exit(id);
    let got = machine.total_l2_misses();
    out.op(got == want, || format!("{}: replay took {got} L2 misses, run {want}", cell.label));

    // The same stream as maximal constant-stride runs.
    let runs = coalesce(trace);
    let mut machine = fresh_machine(&config)?;
    let id = spans.enter("sim.replay_runs", &cell.label);
    let run_ns = timed(|| {
        for r in &runs {
            machine.access_run(r.cpu, r.base, r.stride, r.count, r.kind);
        }
    });
    spans.exit(id);
    let got = machine.total_l2_misses();
    out.op(got == want, || format!("{}: run replay took {got} L2 misses, run {want}", cell.label));

    // The parts in isolation. Translation also yields the physical
    // stream the cache parts are driven with.
    let mut table =
        PageTable::new(config.page_bytes, config.l2_page_bins(), config.placement.clone());
    let mut physical: Vec<u64> = Vec::with_capacity(trace.len());
    let id = spans.enter("sim.translate", &cell.label);
    let translate_ns = timed(|| {
        for r in trace.iter() {
            physical.push(table.translate(r.addr).0);
        }
    });
    spans.exit(id);

    let page_shift = config.page_bytes.trailing_zeros();
    let mut last_vpn = vec![u64::MAX; config.cpus];
    let mut transitions: Vec<(usize, u64)> = Vec::new();
    for r in trace.iter() {
        let (cpu, vpn) = (r.cpu as usize, r.addr.0 >> page_shift);
        if last_vpn[cpu] != vpn {
            last_vpn[cpu] = vpn;
            transitions.push((cpu, vpn));
        }
    }
    let mut tlbs: Vec<Tlb> = (0..config.cpus).map(|_| Tlb::new(config.tlb)).collect();
    let id = spans.enter("sim.tlb", &cell.label);
    let tlb_ns = timed(|| {
        for &(cpu, vpn) in &transitions {
            if !tlbs[cpu].probe(vpn) {
                tlbs[cpu].insert(vpn);
            }
        }
    });
    spans.exit(id);

    let l2_shift = config.hierarchy.l2.line.trailing_zeros();
    let mut l2s: Vec<Cache> = (0..config.cpus).map(|_| Cache::new(config.hierarchy.l2)).collect();
    let id = spans.enter("sim.tag_probe", &cell.label);
    let tag_probe_ns = timed(|| {
        for (r, &pa) in trace.iter().zip(&physical) {
            let dirty = r.kind == AccessKind::Write;
            std::hint::black_box(l2s[r.cpu as usize].probe_or_fill(pa >> l2_shift, dirty));
        }
    });
    spans.exit(id);

    let mut cpus: Vec<CpuCache> =
        (0..config.cpus).map(|_| CpuCache::new(&config.hierarchy)).collect();
    let id = spans.enter("sim.hierarchy", &cell.label);
    let hierarchy_ns = timed(|| {
        for (r, &pa) in trace.iter().zip(&physical) {
            std::hint::black_box(cpus[r.cpu as usize].access(pa, r.kind.into()));
        }
    });
    spans.exit(id);

    Ok(SimCosts {
        refs: trace.len() as f64,
        replay_ns,
        run_ns,
        runs: runs.len() as f64,
        translate_ns,
        tlb_ns,
        tlb_probes: transitions.len() as f64,
        tag_probe_ns,
        hierarchy_ns,
    })
}

/// Nanoseconds a switch costs a fresh scheduler of the cell's policy
/// when the recorded deltas are fed through one dispatch cycle each:
/// `pick`, `on_dispatch`, `on_interval_end`, `on_ready`, over the
/// post-spawn sharing graph with every recorded thread ready.
fn sched_replay_ns(cell: &Cell, rec: &Recording) -> Result<f64, Box<dyn Error>> {
    let machine = cell.effective_machine();
    let locality = |kind| {
        LocalityScheduler::new(LocalityConfig::new(kind), machine.l2_lines(), machine.cpus)
            .map(|s| Box::new(s) as Box<dyn Scheduler>)
    };
    let mut sched: Box<dyn Scheduler> = match cell.policy {
        SchedPolicy::Fcfs => Box::new(FcfsScheduler::new()),
        SchedPolicy::Lff => locality(PolicyKind::Lff)?,
        SchedPolicy::Crt => locality(PolicyKind::Crt)?,
        other => return Err(format!("no scheduler replay for policy {}", other.name()).into()),
    };
    let threads: BTreeSet<ThreadId> = rec.events.iter().map(|e| e.tid).collect();
    for &tid in &threads {
        sched.on_spawn(tid);
    }
    let t = Instant::now();
    for ev in &rec.events {
        if let Some(tid) = sched.pick(ev.cpu) {
            sched.on_dispatch(ev.cpu, tid);
            sched.on_interval_end(ev.cpu, tid, ev.delta, &rec.graph);
            sched.on_ready(tid);
        }
    }
    Ok(t.elapsed().as_nanos() as f64 / rec.events.len().max(1) as f64)
}

/// One more look at a cell: a recording run, a plain run, and every
/// replay of the recording.
struct Round {
    run_ns: f64,
    recorded_ns: f64,
    sched_per_switch: f64,
    costs: SimCosts,
    rec: Recording,
}

fn round(
    cell: &Cell,
    first: &PlainRun,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<Round, Box<dyn Error>> {
    let rec = recorded_run(cell, spans)?;
    let again = plain_run(cell, spans)?;
    // Recording must not perturb: the same report with and without it.
    for (what, r) in [("recorded", &rec.report), ("repeated", &again.report)] {
        let verdict = check::same_report(&first.report, r);
        out.op(verdict.is_ok(), || format!("{} ({what}): {}", cell.label, verdict.unwrap_err()));
    }
    let costs = sim_costs(cell, &rec, spans, out)?;
    let id = spans.enter("threads.sched_replay", &cell.label);
    let sched_per_switch = sched_replay_ns(cell, &rec)?;
    spans.exit(id);
    Ok(Round { run_ns: again.run_ns, recorded_ns: rec.run_ns, sched_per_switch, costs, rec })
}

/// Exact counts of one plain pass over every cell of the workload.
fn counts(plain: &[PlainRun], out: &mut Outcome) {
    let cpu_sum = |f: fn(&locality_sim::CpuStats) -> u64| -> f64 {
        plain.iter().flat_map(|p| &p.report.per_cpu).map(f).sum::<u64>() as f64
    };
    let sum = |f: fn(&RunReport) -> u64| plain.iter().map(|p| f(&p.report)).sum::<u64>() as f64;
    out.metric("sim.refs", cpu_sum(|s| s.l1d_refs + s.l1i_refs));
    out.metric("sim.l1d_misses", cpu_sum(|s| s.l1d_misses));
    out.metric("sim.l2_refs", cpu_sum(|s| s.l2_refs));
    out.metric("sim.l2_misses", cpu_sum(|s| s.l2_misses));
    out.metric("sim.l2_misses_remote", cpu_sum(|s| s.l2_misses_remote));
    out.metric("sim.invalidations", cpu_sum(|s| s.invalidations));
    out.metric("sim.tlb_misses", cpu_sum(|s| s.tlb_misses));
    out.metric("sim.page_faults", plain.iter().map(|p| p.page_faults).sum::<u64>() as f64);
    out.metric("sim.cycles", sum(|r| r.total_cycles));
    out.metric("sim.instructions", sum(|r| r.total_instructions));
    let switches = sum(|r| r.context_switches);
    out.metric("threads.context_switches", switches);
    out.metric("threads.steals", sum(|r| r.steals));
    out.metric("threads.threads_completed", sum(|r| r.threads_completed));
    out.metric("threads.degraded_intervals", sum(|r| r.degraded_intervals));
    out.metric("threads.corrected_intervals", sum(|r| r.corrected_intervals));
    out.metric("core.flops_per_switch", sum(|r| r.priority_flops.0) / switches);
    out.metric("core.lookups_per_switch", sum(|r| r.priority_flops.1) / switches);
    let cells = plain.len() as f64;
    out.metric("threads.engine_new_us", plain.iter().map(|p| p.new_ns).sum::<f64>() / cells / 1e3);
    let spawn_ns: f64 = plain.iter().map(|p| p.spawn_ns).sum();
    let spawned: u64 = plain.iter().map(|p| p.spawned).sum();
    out.metric("threads.spawn_us_per_thread", spawn_ns / spawned as f64 / 1e3);
    out.metric("workloads.spawn_ms", spawn_ns / 1e6);
}

/// The simulated outcome of the locality policies against FCFS:
/// geometric means over the workload's `fcfs`/`lff`/`crt` triples, the
/// numbers of the paper's Figures 8 and 9. Nothing is recorded for a
/// workload without triples.
fn policy_ratios(cells: &[Cell], plain: &[PlainRun], out: &mut Outcome) {
    let mut triples: BTreeMap<&str, BTreeMap<&str, &RunReport>> = BTreeMap::new();
    for (cell, p) in cells.iter().zip(plain) {
        if let Some((group, policy)) = cell.label.rsplit_once('/') {
            triples.entry(group).or_default().insert(policy, &p.report);
        }
    }
    for policy in ["lff", "crt"] {
        let (mut misses, mut speedups) = (Vec::new(), Vec::new());
        for reports in triples.values() {
            if let (Some(fcfs), Some(r)) = (reports.get("fcfs"), reports.get(policy)) {
                if fcfs.total_l2_misses > 0 && r.total_l2_misses > 0 {
                    misses.push(r.total_l2_misses as f64 / fcfs.total_l2_misses as f64);
                    speedups.push(r.speedup_over(fcfs));
                }
            }
        }
        if !misses.is_empty() {
            out.metric(&format!("threads.{policy}_misses_vs_fcfs"), stats::geomean(&misses));
            out.metric(&format!("threads.{policy}_speedup_vs_fcfs"), stats::geomean(&speedups));
        }
    }
}

/// Where one cell's `Engine::run` went, or the sum over the cells that
/// share a property.
#[derive(Default, Clone, Copy)]
struct Split {
    run_ns: f64,
    sim_ns: f64,
    sched_ns: f64,
    switches: f64,
    refs: f64,
}

impl std::ops::AddAssign for Split {
    fn add_assign(&mut self, cell: Split) {
        self.run_ns += cell.run_ns;
        self.sim_ns += cell.sim_ns;
        self.sched_ns += cell.sched_ns;
        self.switches += cell.switches;
        self.refs += cell.refs;
    }
}

/// The traced run: records every per-layer metric the workload exercises.
///
/// # Errors
///
/// Returns an error if a cell cannot be built, run or replayed.
pub fn trace(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    let mut spans = Spans::new();

    // One plain pass over every cell: the exact counts, the set-up
    // spans, and the first untraced reading of each cell.
    let all = cells::cells(workload, seed)?;
    let mut plain = Vec::with_capacity(all.len());
    for cell in &all {
        let p = plain_run(cell, &mut spans)?;
        let verdict = check::run_is_complete(&p.report, p.spawned);
        out.op(verdict.is_ok(), || format!("{}: {}", cell.label, verdict.unwrap_err()));
        plain.push(p);
    }
    counts(&plain, out);
    policy_ratios(&all, &plain, out);

    let mut total = Split::default();
    let (mut indep, mut dep) = (Split::default(), Split::default());
    let mut by_app: BTreeMap<&str, Split> = BTreeMap::new();
    let mut by_policy: BTreeMap<&str, Split> = BTreeMap::new();
    let mut sims: Vec<SimCosts> = Vec::new();
    let mut traced_run_ns = 0.0;
    let mut probe_input: Option<(&Cell, Recording, u64)> = None;
    println!(
        "{:<22} {:>6} {:>10} {:>8} {:>8} {:>9}  (ms; share of Engine::run)",
        "cell", "rounds", "run", "sim", "sched", "residual"
    );
    let pass_ns: f64 = plain.iter().map(|p| p.run_ns).sum();
    for (cell, first) in all.iter().zip(&plain) {
        // `--seconds` is shared out by run length. A round is a recording
        // run, a plain run and every replay; the fastest reading of each
        // is kept, and at least two rounds are made.
        let budget = seconds * first.run_ns / pass_ns;
        let started = Instant::now();
        let mut best = round(cell, first, &mut spans, out)?;
        let mut rounds = 1;
        while rounds < 2 || started.elapsed().as_secs_f64() < budget {
            let next = round(cell, first, &mut spans, out)?;
            best = Round {
                run_ns: best.run_ns.min(next.run_ns),
                recorded_ns: best.recorded_ns.min(next.recorded_ns),
                sched_per_switch: best.sched_per_switch.min(next.sched_per_switch),
                costs: best.costs.fastest(next.costs),
                rec: next.rec,
            };
            rounds += 1;
        }
        let Round { run_ns, recorded_ns, sched_per_switch, costs, rec } = best;
        let run_ns = run_ns.min(first.run_ns);
        traced_run_ns += recorded_ns;

        let switches = rec.events.len() as f64;
        let split = Split {
            run_ns,
            sim_ns: costs.self_ns(),
            sched_ns: sched_per_switch * switches,
            switches,
            refs: costs.refs,
        };
        println!(
            "{:<22} {:>6} {:>10.1} {:>7.0}% {:>7.0}% {:>8.0}%",
            cell.label,
            rounds,
            run_ns / 1e6,
            100.0 * split.sim_ns / run_ns,
            100.0 * split.sched_ns / run_ns,
            100.0 * (run_ns - split.sim_ns - split.sched_ns) / run_ns
        );
        total += split;
        *(if cell.dependent { &mut dep } else { &mut indep }) += split;
        *by_app.entry(cell.app).or_default() += split;
        *by_policy.entry(cell.policy.name()).or_default() += split;
        sims.push(costs);

        // The probes take their inputs from the cell with the most
        // switches (the last of equals).
        if probe_input.as_ref().is_none_or(|(_, most, _)| most.events.len() <= rec.events.len()) {
            probe_input = Some((cell, rec, first.spawned));
        }
    }

    let sim = |part: fn(&SimCosts) -> f64| sims.iter().map(part).sum::<f64>();
    let refs = sim(|c| c.refs);
    out.metric("sim.replay_ns_per_ref", sim(|c| c.replay_ns) / refs);
    out.metric("sim.share_of_run", total.sim_ns / total.run_ns);
    out.metric("sim.run_ns_per_ref", sim(|c| c.run_ns) / refs);
    out.metric("sim.mean_run_len", refs / sim(|c| c.runs));
    out.metric("sim.translate_ns_per_ref", sim(|c| c.translate_ns) / refs);
    out.metric("sim.tlb_ns_per_probe", sim(|c| c.tlb_ns) / sim(|c| c.tlb_probes));
    out.metric("sim.tag_probe_ns_per_ref", sim(|c| c.tag_probe_ns) / refs);
    out.metric("sim.hierarchy_ns_per_ref", sim(|c| c.hierarchy_ns) / refs);
    out.metric(
        "sim.directory_stats_ns_per_ref",
        sim(|c| c.replay_ns - c.hierarchy_ns - c.translate_ns) / refs,
    );
    for (policy, s) in &by_policy {
        out.metric(
            &format!("threads.sched_replay_ns_per_switch.{policy}"),
            s.sched_ns / s.switches,
        );
    }
    if workload == Workload::SchedSwitch {
        // Switch bound: what the reference stream does not explain is
        // the engine's and the scheduler's, per switch.
        for (name, half) in [("indep", &indep), ("dep", &dep)] {
            out.metric(
                &format!("threads.residual_ns_per_switch.{name}"),
                (half.run_ns - half.sim_ns) / half.switches,
            );
        }
    }
    // Everywhere: what neither stream explains is native computation
    // and BatchCtx glue, per reference of each application.
    for (app, s) in &by_app {
        out.metric(
            &format!("workloads.residual_ns_per_ref.{app}"),
            (s.run_ns - s.sim_ns - s.sched_ns) / s.refs,
        );
    }
    out.metric("bench.untraced_run_s", total.run_ns / 1e9);
    out.metric("bench.traced_run_s", traced_run_ns / 1e9);
    out.metric("bench.trace_overhead_frac", traced_run_ns / total.run_ns - 1.0);

    let (cell, Recording { events, graph, .. }, spawned) =
        probe_input.ok_or("the workload has no cell")?;
    let machine = cell.effective_machine();
    let id = spans.enter("bench.probes", &cell.label);
    out.metric("sim.footprint_query_us", probes::footprint_query_us(&machine)?);
    out.metric("sim.machine_new_us", probes::machine_new_us(&machine));
    out.metric("core.sanitize_ns_per_interval", probes::sanitize_ns(&events));
    let (blocking, dependent) = probes::prio_update_ns(&events, machine.l2_lines())?;
    out.metric("core.prio_update_ns.blocking", blocking);
    out.metric("core.prio_update_ns.dependent", dependent);
    let (closed_form, per_set) = probes::estimator_switch_ns(&events, &graph, &machine)?;
    out.metric("core.estimator_switch_ns.closed_form", closed_form);
    out.metric("core.estimator_switch_ns.per_set", per_set);
    out.metric("core.graph_compact_us", probes::graph_compact_us(&graph)?);
    out.metric("core.mean_out_degree", graph.edge_count() as f64 / spawned as f64);
    let (tabulate_ms, lookup_ns) = probes::chain(machine.l2_lines())?;
    out.metric("core.chain_tabulate_ms", tabulate_ms);
    out.metric("core.chain_lookup_ns", lookup_ns);
    let (update, push_pop) = probes::heap_ns(spawned);
    out.metric("threads.heap_update_ns", update);
    out.metric("threads.heap_push_pop_ns", push_pop);
    out.metric("bench.clock_hook_ns_per_switch", probes::clock_hook_ns(cell.stride)?);
    spans.exit(id);

    let path = crate::bench_dir().join(format!(".run/spans-{}.jsonl", workload.name()));
    spans.write_jsonl(&path)?;
    println!(
        "{}: spans {} engine_run, {} replays; written to {}",
        workload.name(),
        spans.count("threads.engine_run"),
        spans.count("sim.replay"),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(cpu_addr: &[(usize, u64)]) -> Trace {
        let mut t = Trace::new();
        for &(cpu, addr) in cpu_addr {
            t.record(cpu, AccessKind::Read, VAddr(addr));
        }
        t
    }

    #[test]
    fn coalescing_keeps_every_reference_in_order() {
        // A stride-64 run of four, a repeat of one address, a jump back,
        // then another processor.
        let t =
            trace_of(&[(0, 0), (0, 64), (0, 128), (0, 192), (0, 192), (0, 192), (0, 8), (1, 16)]);
        let runs = coalesce(&t);
        let shape: Vec<(usize, u64, u64, u64)> =
            runs.iter().map(|r| (r.cpu, r.base.0, r.stride, r.count)).collect();
        assert_eq!(shape, vec![(0, 0, 64, 4), (0, 192, 0, 2), (0, 8, 0, 1), (1, 16, 0, 1)]);
        assert_eq!(runs.iter().map(|r| r.count).sum::<u64>(), t.len() as u64);
        // Expanding the runs gives the trace back.
        let expanded: Vec<(usize, u64)> = runs
            .iter()
            .flat_map(|r| (0..r.count).map(move |i| (r.cpu, r.base.0 + i * r.stride)))
            .collect();
        let original: Vec<(usize, u64)> = t.iter().map(|r| (r.cpu as usize, r.addr.0)).collect();
        assert_eq!(expanded, original);
    }

    #[test]
    fn a_recorded_cell_replays_to_the_same_misses_both_ways() {
        let cells = cells::cells(Workload::MemAssoc, 3).unwrap();
        let cell = cells.iter().find(|c| c.app == "tsp").unwrap();
        let mut spans = Spans::new();
        let plain = plain_run(cell, &mut spans).unwrap();
        let rec = recorded_run(cell, &mut spans).unwrap();
        assert_eq!(check::same_report(&plain.report, &rec.report), Ok(()));
        assert_eq!(rec.events.len() as u64, rec.report.context_switches);
        let mut out = Outcome::default();
        let costs = sim_costs(cell, &rec, &mut spans, &mut out).unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert_eq!(out.attempted, 2, "the scalar and the run replay are both checked");
        assert!(costs.refs > 0.0 && costs.runs > 0.0 && costs.runs <= costs.refs);
        assert!(sched_replay_ns(cell, &rec).unwrap() > 0.0);
    }
}
