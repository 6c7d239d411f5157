//! Engine-level differential tests of the machine's footprint tracker:
//! through full runtime runs, the incrementally tracked per-thread
//! resident-line count equals the full E-cache scan at every context
//! switch. (The machine-level proptest, random access/register/retire/
//! flush histories, sits with the slot-recycling properties in
//! `tests/slot_recycling.rs`.)

use std::cell::RefCell;
use std::rc::Rc;
use thread_locality::core::ThreadId;
use thread_locality::sim::{FootprintScratch, MachineConfig, PagePlacement};
use thread_locality::threads::events::EngineView;
use thread_locality::threads::{
    ChaosConfig, Engine, EngineConfig, EngineHook, SchedPolicy, SwitchEvent, SwitchReason,
};
use thread_locality::workloads::{merge, tasks, App};

/// Compares tracked against scanned for the switching thread (or only
/// for `only`, the fig5–7 monitor's shape) and counts the samples.
struct CrossCheck {
    only: Option<ThreadId>,
    scratch: FootprintScratch,
    samples: Rc<RefCell<u64>>,
}

impl CrossCheck {
    fn install(engine: &mut Engine, only: Option<ThreadId>) -> Rc<RefCell<u64>> {
        engine.machine_mut().track_footprints();
        let samples = Rc::new(RefCell::new(0));
        engine.add_hook(Box::new(CrossCheck {
            only,
            scratch: FootprintScratch::new(),
            samples: samples.clone(),
        }));
        samples
    }
}

impl EngineHook for CrossCheck {
    fn on_context_switch(&mut self, ev: &SwitchEvent, view: &EngineView<'_>) {
        if self.only.is_some_and(|tid| tid != ev.tid) {
            return;
        }
        view.machine.l2_footprints_into(ev.cpu, &mut self.scratch);
        assert_eq!(
            view.machine.l2_footprint_lines(ev.cpu, ev.tid),
            self.scratch.lines(ev.tid),
            "tracked vs scanned footprint of {} on cpu{} at switch {} ({:?})",
            ev.tid,
            ev.cpu,
            ev.switch_index,
            ev.reason,
        );
        *self.samples.borrow_mut() += 1;
    }
}

/// Runs each app's monitored work thread (the fig5–7 protocol) under the
/// paper's bin-hopping VM and the naive placement, checking every
/// sample; returns how many there were.
fn cross_checked_samples(apps: impl IntoIterator<Item = App>) -> u64 {
    let mut total = 0;
    for app in apps {
        for placement in [PagePlacement::bin_hopping(), PagePlacement::arbitrary()] {
            let config = MachineConfig::ultra1().with_placement(placement);
            let mut engine =
                Engine::new(config, SchedPolicy::Lff, EngineConfig::default()).unwrap();
            let tid = app.spawn_single_seeded(&mut engine, app.default_seed());
            let samples = CrossCheck::install(&mut engine, Some(tid));
            engine.run().unwrap();
            assert!(*samples.borrow() > 0, "{} never switched", app.name());
            total += *samples.borrow();
        }
    }
    total
}

/// The four monitored cells that are quick in a debug build: between
/// them a stencil, a sort that registers regions for its children, a
/// branch-and-bound that spawns and retires threads, and one of the two
/// apps whose footprints the model gets wrong.
#[test]
fn tracked_equals_scan_on_the_light_monitored_cells() {
    cross_checked_samples([App::Ocean, App::Merge, App::Tsp, App::Typechecker]);
}

/// Every sample of every monitored fig5–7 cell: all eight work threads,
/// both placements. Two minutes in a debug build, so `ci.sh` runs it in
/// its release suite, which includes the ignored tests.
#[test]
#[ignore = "minutes unoptimised; ci.sh runs it in release"]
fn tracked_equals_scan_at_every_sample_of_the_monitored_cells() {
    let total = cross_checked_samples(App::FIG5.into_iter().chain(App::FIG7));
    assert_eq!(total, 10_974, "the monitored cells' sample count moved");
}

/// Tasks register their region once, in their first period, and their
/// states overflow the E-cache: on one processor and on eight, disjoint
/// and overlapped, every switching thread's tracked count equals the scan
/// at every switch.
#[test]
fn tracked_equals_scan_for_tasks_that_register_once() {
    for (cpus, overlap) in [(1, 0.0), (1, 0.25), (8, 0.0), (8, 0.25)] {
        let machine =
            if cpus == 1 { MachineConfig::ultra1() } else { MachineConfig::enterprise5000(cpus) };
        let mut engine = Engine::new(machine, SchedPolicy::Lff, EngineConfig::default()).unwrap();
        let samples = CrossCheck::install(&mut engine, None);
        let params = tasks::TasksParams { tasks: 128, footprint_lines: 100, periods: 4, overlap };
        tasks::spawn_parallel(&mut engine, &params);
        engine.run().unwrap();
        assert_eq!(*samples.borrow(), 128 * 4, "{cpus} cpus, overlap {overlap}");
    }
}

/// Hostile thread churn on four processors — running and idle threads
/// aborted, stillborn spawns, slots recycled — over state that overlaps
/// (tasks, read-shared) and is written (mergesort, so remote copies are
/// invalidated): every switching thread, every switch.
#[test]
fn tracked_equals_scan_under_chaos_churn() {
    let churn = ChaosConfig {
        seed: 7,
        abort_running_per_64k: 512,
        spawn_fail_per_64k: 2048,
        abort_idle_per_64k: 256,
        ..ChaosConfig::default()
    };
    for policy in [SchedPolicy::Fcfs, SchedPolicy::Lff] {
        let config = EngineConfig { chaos: Some(churn), ..EngineConfig::default() };
        let mut engine = Engine::new(MachineConfig::enterprise5000(4), policy, config).unwrap();
        let samples = CrossCheck::install(&mut engine, None);
        let params =
            tasks::TasksParams { tasks: 48, footprint_lines: 100, periods: 8, overlap: 0.5 };
        tasks::spawn_parallel(&mut engine, &params);
        merge::spawn_parallel(&mut engine, &merge::MergeParams::small());
        let report = engine.run().unwrap();
        assert!(report.threads_aborted > 0, "churn must kill something");
        assert!(*samples.borrow() > 300);
        assert!((0..4).any(|cpu| engine.machine().cpu_stats(cpu).invalidations > 0));
    }
}

/// Each scan's footprints, sorted by thread.
type Scans = Rc<RefCell<Vec<Vec<(ThreadId, u64)>>>>;

/// Scans every cpu at every `stride`-th switch once a thread has exited,
/// recording each scan's footprints; `built_late` asserts that the
/// untracked machine's address view does not exist before the first
/// scan builds it.
struct LateScan {
    stride: u64,
    exited: bool,
    built_late: bool,
    scratch: FootprintScratch,
    scans: Scans,
}

impl EngineHook for LateScan {
    fn on_context_switch(&mut self, ev: &SwitchEvent, view: &EngineView<'_>) {
        self.exited |= ev.reason == SwitchReason::Exited;
        if !self.exited || !ev.switch_index.is_multiple_of(self.stride) {
            return;
        }
        let regions = view.machine.regions();
        let first = self.scans.borrow().is_empty();
        if self.built_late {
            assert_eq!(regions.is_indexed(), !first, "address view at switch {}", ev.switch_index);
        }
        for cpu in 0..view.machine.cpu_count() {
            view.machine.l2_footprints_into(cpu, &mut self.scratch);
            self.scans.borrow_mut().push(self.scratch.to_sorted());
        }
    }
}

/// The region table's address view built mid-run, after registrations
/// and exits, answers the footprint scans of an overlapped LFF tasks run
/// exactly as one kept current by `track_footprints` from the start.
#[test]
fn an_address_view_built_mid_run_scans_like_one_tracked_from_the_start() {
    let run = |tracked: bool| {
        let mut engine = Engine::new(
            MachineConfig::enterprise5000(8),
            SchedPolicy::Lff,
            EngineConfig::default(),
        )
        .unwrap();
        if tracked {
            engine.machine_mut().track_footprints();
            // Built while empty, so every registration edits it.
            assert_eq!(engine.machine().regions().segment_count(), 0);
        }
        let scans = Scans::default();
        engine.add_hook(Box::new(LateScan {
            stride: 8,
            exited: false,
            built_late: !tracked,
            scratch: FootprintScratch::new(),
            scans: scans.clone(),
        }));
        let params =
            tasks::TasksParams { tasks: 128, footprint_lines: 100, periods: 4, overlap: 0.25 };
        tasks::spawn_parallel(&mut engine, &params);
        engine.run().unwrap();
        scans.take()
    };
    let late = run(false);
    assert!(late.len() > 10, "{} scans", late.len());
    assert_eq!(late, run(true));
}

/// A run nothing observes asks the region table no address question:
/// untracked tasks (disjoint and overlapped) and mergesort never build
/// its address view.
#[test]
fn an_untracked_run_never_builds_the_address_view() {
    // `None` runs mergesort, `Some(overlap)` tasks.
    for overlap in [Some(0.0), Some(0.25), None] {
        let mut engine = Engine::new(
            MachineConfig::enterprise5000(4),
            SchedPolicy::Lff,
            EngineConfig::default(),
        )
        .unwrap();
        match overlap {
            Some(overlap) => {
                let params =
                    tasks::TasksParams { tasks: 64, footprint_lines: 50, periods: 3, overlap };
                tasks::spawn_parallel(&mut engine, &params);
            }
            None => {
                merge::spawn_parallel(&mut engine, &merge::MergeParams::small());
            }
        }
        engine.run().unwrap();
        assert!(!engine.machine().regions().is_indexed(), "{overlap:?}");
    }
}
