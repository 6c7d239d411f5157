//! Stateless model checking: exhaustive schedule exploration with
//! dynamic partial-order reduction (DPOR).
//!
//! The engine's controlled-scheduling mode
//! ([`EngineConfig::schedule_points`](active_threads::EngineConfig))
//! turns every visible operation into a scheduling decision, so a small
//! workload's behaviours form a finite tree of interleavings. The
//! explorer re-executes the deterministic engine once per *task* — a
//! scripted decision prefix plus a sleep set — and derives new tasks
//! only at *racing* transitions: pairs of steps that are dependent
//! (conflicting memory spans, the same sync object, or a join/exit
//! couple) and concurrent under the happens-before relation computed
//! from the observation log via [`VClock`]s. Together with sleep sets
//! this is the classic Flanagan–Godefroid DPOR scheme; a naive mode
//! (branch at every enabled alternative) provides the exact
//! full-enumeration baseline the reduction factor is measured against.
//!
//! Every explored schedule is checked for happens-before data races
//! (the same detector the single-schedule `repro analyze` uses, §7 of
//! DESIGN.md), global deadlocks (classified by the waits
//! [`RuntimeError::Deadlock`] names into lock-cycle deadlocks and
//! condvar stalls / lost wakeups), and the exploring scheduler's own
//! bookkeeping invariants. A violation is emitted as a
//! replayable counterexample: a serialized schedule string that
//! [`replay_counterexample`] deterministically re-executes to the same
//! violation.

use crate::fixtures;
use crate::hb::HbClocks;
use crate::race::RaceDetector;
use crate::vclock::VClock;
use active_threads::{
    BlockedOn, Engine, EngineConfig, ObsLog, Program, RuntimeError, SchedulePoint, Scheduler,
};
use locality_core::{SanitizedInterval, SharingGraph, ThreadId};
use locality_sim::MachineConfig;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

// ---------------------------------------------------------------------
// Workloads.

/// The most worker rounds a counterexample may ask `clean` or `racy` to
/// replay. The explorer writes only 1, and the race detector's cost grows
/// with the square of the rounds: this many replay in about 10 ms.
const MAX_ROUNDS: u32 = 1_000;

/// The small workload configurations the model checker explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McWorkload {
    /// The mutex-protected fixture; race-free under every schedule.
    Clean {
        /// Worker loop rounds.
        rounds: u32,
    },
    /// The unsynchronized fixture; races under every schedule.
    Racy {
        /// Worker loop rounds.
        rounds: u32,
    },
    /// The AB–BA lock-order fixture; deadlocks under some schedules.
    Deadlock,
    /// The missed-signal condvar fixture; stalls under some schedules.
    LostWakeup,
}

impl McWorkload {
    /// The workload's CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            McWorkload::Clean { .. } => "clean",
            McWorkload::Racy { .. } => "racy",
            McWorkload::Deadlock => "deadlock",
            McWorkload::LostWakeup => "lostwake",
        }
    }

    /// The worker rounds parameter (1 for the fixed-shape fixtures).
    pub fn rounds(&self) -> u32 {
        match *self {
            McWorkload::Clean { rounds } | McWorkload::Racy { rounds } => rounds,
            _ => 1,
        }
    }

    /// Builds a workload from its serialized `name rounds` form.
    pub fn from_name(name: &str, rounds: u32) -> Option<McWorkload> {
        match name {
            "clean" => Some(McWorkload::Clean { rounds }),
            "racy" => Some(McWorkload::Racy { rounds }),
            "deadlock" => Some(McWorkload::Deadlock),
            "lostwake" => Some(McWorkload::LostWakeup),
            _ => None,
        }
    }

    /// A fresh root program for one execution.
    pub fn program(&self) -> Box<dyn Program> {
        match *self {
            McWorkload::Clean { rounds } => fixtures::clean_workload(rounds),
            McWorkload::Racy { rounds } => fixtures::racy_workload(rounds),
            McWorkload::Deadlock => fixtures::deadlock_workload(),
            McWorkload::LostWakeup => fixtures::lost_wakeup_workload(),
        }
    }
}

// ---------------------------------------------------------------------
// The exploring scheduler.

/// One recorded scheduling decision: the sorted enabled set, the
/// threads asleep at the decision, and the choice taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Ready threads at the decision, sorted by id.
    pub enabled: Vec<ThreadId>,
    /// Sleep-set members at the decision (subset of `enabled` in
    /// general position), sorted by id.
    pub slept: Vec<ThreadId>,
    /// The thread that was run.
    pub chosen: ThreadId,
}

/// A sleep-set seed: thread `tid` goes to sleep when the execution
/// reaches decision `pos`, carrying the step it executed there in the
/// already-explored sibling (used to wake it on a dependent operation).
#[derive(Debug, Clone)]
pub struct SleepEntry {
    /// Decision index at which the entry activates.
    pub pos: usize,
    /// The thread to put to sleep.
    pub tid: ThreadId,
    /// The step the thread performed at `pos` in the explored sibling.
    pub sig: SchedulePoint,
}

/// What one execution's scheduler leaves behind. The scheduler runs
/// inside the engine as a `Box<dyn Scheduler>`; [`run_schedule`] keeps
/// a second handle to this record and reads it back after the run.
#[derive(Debug, Default)]
pub struct ScheduleLog {
    /// The decisions taken so far, in order.
    pub decisions: Vec<Decision>,
    /// Whether the execution was cut off by the depth bound.
    pub hit_bound: bool,
    /// Whether the execution stopped because every enabled thread was
    /// asleep (a sleep-set prune: the continuation is provably
    /// equivalent to an already-explored one).
    pub sleep_blocked: bool,
    /// Whether a scripted choice named a thread that was not enabled —
    /// an internal-consistency failure (the engine is deterministic, so
    /// a prefix recorded from one run must replay on the next).
    pub diverged: bool,
}

impl ScheduleLog {
    fn stopped(&self) -> bool {
        self.hit_bound || self.sleep_blocked || self.diverged
    }
}

/// A scheduler that drives the engine down one prescribed interleaving:
/// scripted choices first, then a deterministic default (prefer the
/// previously-running thread, else the smallest ready thread not in the
/// sleep set). Records every decision for the explorer's race analysis.
#[derive(Debug)]
pub struct ExploringScheduler {
    ready: BTreeSet<ThreadId>,
    script: VecDeque<ThreadId>,
    sleep_init: BTreeMap<usize, Vec<(ThreadId, SchedulePoint)>>,
    sleep: BTreeMap<ThreadId, SchedulePoint>,
    last: Option<ThreadId>,
    depth_bound: usize,
    log: Rc<RefCell<ScheduleLog>>,
}

impl ExploringScheduler {
    /// Builds a scheduler for one execution.
    pub fn new(script: &[ThreadId], sleep: &[SleepEntry], depth_bound: usize) -> Self {
        let mut sleep_init: BTreeMap<usize, Vec<(ThreadId, SchedulePoint)>> = BTreeMap::new();
        for e in sleep {
            sleep_init.entry(e.pos).or_default().push((e.tid, e.sig.clone()));
        }
        ExploringScheduler {
            ready: BTreeSet::new(),
            script: script.iter().copied().collect(),
            sleep_init,
            sleep: BTreeMap::new(),
            last: None,
            depth_bound,
            log: Rc::default(),
        }
    }

    /// A handle to the record this scheduler writes, to keep while the
    /// engine owns the scheduler.
    pub fn log(&self) -> Rc<RefCell<ScheduleLog>> {
        self.log.clone()
    }
}

impl Scheduler for ExploringScheduler {
    fn on_spawn(&mut self, tid: ThreadId) {
        self.ready.insert(tid);
    }

    fn on_ready(&mut self, tid: ThreadId) {
        self.ready.insert(tid);
    }

    fn on_dispatch(&mut self, _cpu: usize, _tid: ThreadId) {}

    fn on_interval_end(
        &mut self,
        _cpu: usize,
        _tid: ThreadId,
        _interval: SanitizedInterval,
        _graph: &SharingGraph,
    ) {
    }

    fn pick(&mut self, _cpu: usize) -> Option<ThreadId> {
        let mut log = self.log.borrow_mut();
        if self.ready.is_empty() || log.stopped() {
            return None;
        }
        if log.decisions.len() >= self.depth_bound {
            log.hit_bound = true;
            return None;
        }
        if let Some(entries) = self.sleep_init.remove(&log.decisions.len()) {
            for (tid, sig) in entries {
                self.sleep.insert(tid, sig);
            }
        }
        let enabled: Vec<ThreadId> = self.ready.iter().copied().collect();
        let slept: Vec<ThreadId> = self.sleep.keys().copied().collect();
        let chosen = if let Some(c) = self.script.pop_front() {
            if !self.ready.contains(&c) {
                log.diverged = true;
                return None;
            }
            c
        } else {
            let preferred =
                self.last.filter(|l| self.ready.contains(l) && !self.sleep.contains_key(l));
            let fallback = enabled.iter().copied().find(|t| !self.sleep.contains_key(t));
            match preferred.or(fallback) {
                Some(c) => c,
                None => {
                    log.sleep_blocked = true;
                    return None;
                }
            }
        };
        self.sleep.remove(&chosen);
        log.decisions.push(Decision { enabled, slept, chosen });
        self.ready.remove(&chosen);
        self.last = Some(chosen);
        Some(chosen)
    }

    fn on_schedule_point(&mut self, point: &SchedulePoint) {
        // Sleep-set wake rule: a sleeping thread's pending step becomes
        // worth exploring again once a dependent operation executes.
        self.sleep.retain(|_, sig| !sig.dependent(point));
    }

    fn on_exit(&mut self, tid: ThreadId) {
        self.ready.remove(&tid);
        self.sleep.remove(&tid);
    }

    fn expected_footprint(&self, _cpu: usize, _tid: ThreadId) -> Option<f64> {
        None
    }

    fn ready_count(&self) -> usize {
        // Reporting zero when flagged makes the engine's idle loop take
        // its deadlock exit instead of spinning; the explorer inspects
        // the flags to tell a truncation or prune from a real deadlock.
        if self.log.borrow().stopped() {
            0
        } else {
            self.ready.len()
        }
    }

    fn name(&self) -> &'static str {
        "explore"
    }
}

// ---------------------------------------------------------------------
// One execution.

/// Why an execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every thread exited.
    Completed,
    /// Global deadlock: all live threads blocked, with what each was
    /// blocked on.
    Deadlocked(Vec<(ThreadId, BlockedOn)>),
    /// Cut off by the depth bound (not a violation).
    Truncated,
    /// Stopped by the sleep set (redundant continuation; not a
    /// violation).
    SleepBlocked,
    /// A scripted prefix failed to replay (internal error).
    Diverged,
    /// The engine surfaced a runtime error other than deadlock.
    EngineError(String),
}

/// One re-execution of the engine down a prescribed interleaving.
#[derive(Debug)]
pub struct Execution {
    /// The decisions taken, in order (one per executed step).
    pub decisions: Vec<Decision>,
    /// The executed steps (one per decision).
    pub points: Vec<SchedulePoint>,
    /// Per-step happens-before clocks (snapshot at step start).
    pub clocks: Vec<VClock>,
    /// Data races the happens-before detector found on this schedule.
    pub races: Vec<crate::race::Race>,
    /// How the execution ended.
    pub outcome: Outcome,
}

/// Runs the engine once down `script` (then defaults), with the given
/// sleep seeds and depth bound, and returns the full execution record.
pub fn run_schedule(
    workload: McWorkload,
    script: &[ThreadId],
    sleep: &[SleepEntry],
    depth_bound: usize,
) -> Execution {
    let sched = ExploringScheduler::new(script, sleep, depth_bound);
    let sched_log = sched.log();
    let config = EngineConfig { schedule_points: true, ..EngineConfig::default() };
    // Infallible: `ultra1()` is a validated built-in description.
    #[allow(clippy::expect_used)]
    let mut engine = Engine::with_scheduler(MachineConfig::ultra1(), Box::new(sched), config)
        .expect("ultra1 machine is always valid");
    engine.enable_observation();
    engine.spawn(workload.program());
    let result = engine.run();
    let points = engine.take_schedule_points();
    let log = engine.take_observation().unwrap_or_default();
    let sched_log = sched_log.take();
    let outcome = match result {
        Ok(_) => Outcome::Completed,
        Err(RuntimeError::Deadlock { .. }) if sched_log.hit_bound => Outcome::Truncated,
        Err(RuntimeError::Deadlock { .. }) if sched_log.sleep_blocked => Outcome::SleepBlocked,
        Err(RuntimeError::Deadlock { .. }) if sched_log.diverged => Outcome::Diverged,
        Err(RuntimeError::Deadlock { blocked }) => Outcome::Deadlocked(blocked),
        Err(e) => Outcome::EngineError(e.to_string()),
    };
    let decisions = sched_log.decisions;
    let clocks = step_clocks(&log, &points);
    let races = RaceDetector::run(&log).races().to_vec();
    Execution { decisions, points, clocks, races, outcome }
}

/// Computes each step's happens-before clock by driving the race
/// detector's clock state ([`HbClocks`]) over the observation log, plus
/// one tick at the start of every step so each step owns a unique
/// component value. Step `i` happens-before step `j` iff
/// `clocks[j].get(tid_i) >= clocks[i].get(tid_i)`.
fn step_clocks(log: &ObsLog, points: &[SchedulePoint]) -> Vec<VClock> {
    let events = log.events();
    let mut hb = HbClocks::default();
    let mut out = Vec::with_capacity(points.len());
    let mut pos = 0usize;
    for point in points {
        let (lo, hi) = point.obs_range;
        // Events emitted outside any step (root spawns) come first.
        for ev in events.iter().take(lo.min(events.len())).skip(pos) {
            hb.apply(ev);
        }
        pos = pos.max(lo.min(events.len()));
        let tc = hb.clock_mut(point.tid);
        tc.tick(point.tid);
        out.push(tc.clone());
        for ev in events.iter().take(hi.min(events.len())).skip(pos) {
            hb.apply(ev);
        }
        pos = pos.max(hi.min(events.len()));
    }
    out
}

// ---------------------------------------------------------------------
// Violations and counterexamples.

/// What kind of property a schedule violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// A happens-before data race.
    Race,
    /// A global deadlock over locks/joins/barriers/semaphores.
    Deadlock,
    /// A global deadlock with a thread parked on a condition variable —
    /// a lost wakeup.
    CondvarStall,
    /// The exploring scheduler's own bookkeeping is inconsistent.
    Invariant,
}

impl ViolationKind {
    /// Stable serialized name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationKind::Race => "race",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::CondvarStall => "condvar-stall",
            ViolationKind::Invariant => "invariant",
        }
    }

    /// Parses a serialized name.
    pub fn from_str_opt(s: &str) -> Option<ViolationKind> {
        match s {
            "race" => Some(ViolationKind::Race),
            "deadlock" => Some(ViolationKind::Deadlock),
            "condvar-stall" => Some(ViolationKind::CondvarStall),
            "invariant" => Some(ViolationKind::Invariant),
            _ => None,
        }
    }
}

/// A violation found on one explored schedule, with the serialized
/// schedule that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McViolation {
    /// What was violated.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub detail: String,
    /// The full decision sequence (thread ids) reproducing it.
    pub schedule: Vec<u64>,
}

/// Extracts the violations of one execution, in severity-stable order.
pub fn violations_of(exec: &Execution) -> Vec<McViolation> {
    let schedule: Vec<u64> = exec.decisions.iter().map(|d| d.chosen.0).collect();
    let mut out = Vec::new();
    if let Some(race) = exec.races.first() {
        out.push(McViolation {
            kind: ViolationKind::Race,
            detail: race.to_string(),
            schedule: schedule.clone(),
        });
    }
    if let Outcome::Deadlocked(blocked) = &exec.outcome {
        let stall = blocked.iter().any(|(_, on)| matches!(on, BlockedOn::Cond(_)));
        let detail = blocked
            .iter()
            .map(|(tid, on)| format!("{tid} blocked on {on}"))
            .collect::<Vec<_>>()
            .join("; ");
        out.push(McViolation {
            kind: if stall { ViolationKind::CondvarStall } else { ViolationKind::Deadlock },
            detail,
            schedule: schedule.clone(),
        });
    }
    if let Some(what) = scheduler_invariant_failure(exec) {
        out.push(McViolation { kind: ViolationKind::Invariant, detail: what, schedule });
    }
    out
}

/// Differential checks over the exploring scheduler's own bookkeeping,
/// re-validated per explored schedule (O(decisions)):
/// every choice came from its enabled set and was not asleep, enabled
/// sets are sorted and duplicate-free, and each decision maps to
/// exactly one executed step by the same thread.
fn scheduler_invariant_failure(exec: &Execution) -> Option<String> {
    if !matches!(exec.outcome, Outcome::EngineError(_)) && exec.decisions.len() != exec.points.len()
    {
        return Some(format!(
            "decision/step mismatch: {} decisions vs {} steps",
            exec.decisions.len(),
            exec.points.len()
        ));
    }
    for (i, d) in exec.decisions.iter().enumerate() {
        if !d.enabled.contains(&d.chosen) {
            return Some(format!("decision {i} chose {} outside its enabled set", d.chosen));
        }
        if d.slept.contains(&d.chosen) {
            return Some(format!("decision {i} chose sleeping thread {}", d.chosen));
        }
        if d.enabled.windows(2).any(|w| w[0] >= w[1]) {
            return Some(format!("decision {i} has an unsorted or duplicated enabled set"));
        }
        if let Some(p) = exec.points.get(i) {
            if p.tid != d.chosen {
                return Some(format!("decision {i} chose {} but step {i} ran {}", d.chosen, p.tid));
            }
        }
    }
    None
}

/// A parsed replayable counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The workload it was found on.
    pub workload: McWorkload,
    /// The violation it reproduces.
    pub kind: ViolationKind,
    /// The decision sequence to replay.
    pub schedule: Vec<u64>,
    /// The original detail line.
    pub detail: String,
}

/// Magic first line of the counterexample format.
const CE_HEADER: &str = "locality-modelcheck counterexample v1";

/// Serializes a violation as a replayable counterexample file.
pub fn serialize_counterexample(workload: McWorkload, v: &McViolation) -> String {
    let schedule = v.schedule.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",");
    format!(
        "{CE_HEADER}\nworkload {} {}\nviolation {}\nschedule {}\ndetail {}\n",
        workload.name(),
        workload.rounds(),
        v.kind.as_str(),
        schedule,
        v.detail.replace('\n', " "),
    )
}

/// Parses a counterexample file produced by [`serialize_counterexample`].
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_counterexample(text: &str) -> Result<Counterexample, String> {
    let mut lines = text.lines();
    if lines.next() != Some(CE_HEADER) {
        return Err(format!("missing header line `{CE_HEADER}`"));
    }
    let mut workload = None;
    let mut kind = None;
    let mut schedule = None;
    let mut detail = String::new();
    for line in lines {
        if let Some(rest) = line.strip_prefix("workload ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or("workload line missing name")?;
            let rounds: u32 = parts
                .next()
                .ok_or("workload line missing rounds")?
                .parse()
                .map_err(|e| format!("bad rounds: {e}"))?;
            let w = McWorkload::from_name(name, rounds)
                .ok_or_else(|| format!("unknown workload `{name}`"))?;
            // The fixed-shape fixtures take no rounds, and serialize 1.
            let max = match w {
                McWorkload::Clean { .. } | McWorkload::Racy { .. } => MAX_ROUNDS,
                McWorkload::Deadlock | McWorkload::LostWakeup => 1,
            };
            if !(1..=max).contains(&rounds) {
                return Err(format!("rounds {rounds} of `{name}` outside 1..={max}"));
            }
            workload = Some(w);
        } else if let Some(rest) = line.strip_prefix("violation ") {
            kind = Some(
                ViolationKind::from_str_opt(rest.trim())
                    .ok_or_else(|| format!("unknown violation kind `{rest}`"))?,
            );
        } else if let Some(rest) = line.strip_prefix("schedule ") {
            let parsed: Result<Vec<u64>, _> =
                rest.trim().split(',').filter(|s| !s.is_empty()).map(str::parse).collect();
            schedule = Some(parsed.map_err(|e| format!("bad schedule: {e}"))?);
        } else if let Some(rest) = line.strip_prefix("detail ") {
            detail = rest.to_string();
        }
    }
    Ok(Counterexample {
        workload: workload.ok_or("missing workload line")?,
        kind: kind.ok_or("missing violation line")?,
        schedule: schedule.ok_or("missing schedule line")?,
        detail,
    })
}

/// Replays a counterexample: re-executes the engine down the serialized
/// schedule and checks the same violation kind recurs.
///
/// # Errors
///
/// Returns a description when the schedule no longer reproduces the
/// recorded violation (e.g. the counterexample is from another build).
pub fn replay_counterexample(ce: &Counterexample) -> Result<McViolation, String> {
    let script: Vec<ThreadId> = ce.schedule.iter().map(|&t| ThreadId(t)).collect();
    let exec = run_schedule(ce.workload, &script, &[], usize::MAX);
    if matches!(exec.outcome, Outcome::Diverged) {
        return Err("schedule diverged: a scripted thread was not enabled".to_string());
    }
    violations_of(&exec).into_iter().find(|v| v.kind == ce.kind).ok_or_else(|| {
        format!(
            "schedule replayed to {:?} without reproducing a {} violation",
            exec.outcome,
            ce.kind.as_str()
        )
    })
}

// ---------------------------------------------------------------------
// The explorer.

/// Exploration tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum scheduling decisions per execution.
    pub depth_bound: usize,
    /// Maximum executions across the whole exploration.
    pub max_schedules: usize,
    /// Iterative preemption bounding: skip branches whose forced prefix
    /// preempts a still-runnable thread more than this many times.
    pub preempt_bound: Option<usize>,
    /// Naive full enumeration (the DPOR baseline) instead of DPOR.
    pub naive: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { depth_bound: 64, max_schedules: 50_000, preempt_bound: None, naive: false }
    }
}

/// Aggregated result of one exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreSummary {
    /// Terminal executions (completed or violating).
    pub schedules: u64,
    /// Sleep-set–pruned executions (redundant continuations).
    pub pruned: u64,
    /// Executions cut off by the depth bound.
    pub truncated: u64,
    /// Scripted prefixes that failed to replay (must stay 0).
    pub diverged: u64,
    /// Whether `max_schedules` cut the exploration short.
    pub capped: bool,
    /// Longest schedule seen (decisions).
    pub max_depth: u64,
    /// Distinct violations (first witness per kind, deterministic).
    pub violations: Vec<McViolation>,
    /// Unordered racing thread pairs observed across all schedules
    /// (for cross-validation against the single-schedule detector).
    pub race_pairs: BTreeSet<(u64, u64)>,
}

impl ExploreSummary {
    /// The count of violations of one kind (0 or 1 after dedup).
    pub fn count_of(&self, kind: ViolationKind) -> u64 {
        self.violations.iter().filter(|v| v.kind == kind).count() as u64
    }
}

/// One node of the exploration tree: a forced decision prefix plus
/// sleep-set seeds.
#[derive(Debug, Clone)]
struct Task {
    prefix: Vec<ThreadId>,
    sleep: Vec<SleepEntry>,
}

/// Canonical order/dedup key of a [`Task`]: raw prefix thread ids plus
/// the sorted `(pos, tid)` sleep entries.
type TaskKey = (Vec<u64>, Vec<(usize, u64)>);

impl Task {
    /// Order/dedup key. Two tasks with equal keys execute identically:
    /// the engine is deterministic, so equal prefixes produce equal
    /// steps, and a sleep entry's signature is determined by its
    /// `(pos, tid)` under a shared prefix.
    fn key(&self) -> TaskKey {
        let mut sleep: Vec<(usize, u64)> = self.sleep.iter().map(|e| (e.pos, e.tid.0)).collect();
        sleep.sort_unstable();
        (self.prefix.iter().map(|t| t.0).collect(), sleep)
    }
}

/// Number of preemptions in a decision prefix: positions where the
/// previously-running thread was still enabled but a different thread
/// was scheduled.
fn preemptions(choices: &[ThreadId], decisions: &[Decision]) -> usize {
    choices
        .windows(2)
        .enumerate()
        .filter(|(k, w)| {
            w[1] != w[0] && decisions.get(k + 1).is_some_and(|d| d.enabled.contains(&w[0]))
        })
        .count()
}

/// The decision prefix that follows `exec` up to position `at` and then
/// runs `choice` instead; `None` when the preemption bound rules it out.
fn branch_prefix(
    exec: &Execution,
    at: usize,
    choice: ThreadId,
    cfg: &ExploreConfig,
) -> Option<Vec<ThreadId>> {
    let mut prefix: Vec<ThreadId> = exec.decisions[..at].iter().map(|d| d.chosen).collect();
    prefix.push(choice);
    cfg.preempt_bound
        .is_none_or(|bound| preemptions(&prefix, &exec.decisions) <= bound)
        .then_some(prefix)
}

/// Child tasks of one executed task under DPOR: for every racing pair
/// of steps `(i, j)` — dependent, different threads, concurrent — add a
/// backtrack point at `i` running `j`'s thread (or, if it was not
/// enabled there, every enabled alternative: the persistent-set
/// fallback), with the explored choice at `i` moved into the child's
/// sleep set.
fn children_dpor(task: &Task, exec: &Execution, cfg: &ExploreConfig) -> Vec<Task> {
    let n = exec.points.len().min(exec.decisions.len()).min(exec.clocks.len());
    let mut out = Vec::new();
    for j in 0..n {
        for i in 0..j {
            let (pi, pj) = (&exec.points[i], &exec.points[j]);
            if pi.tid == pj.tid || !pi.dependent(pj) {
                continue;
            }
            if exec.clocks[j].get(pi.tid) >= exec.clocks[i].get(pi.tid) {
                continue; // happens-before ordered: not a race
            }
            let di = &exec.decisions[i];
            let candidates: Vec<ThreadId> =
                if di.enabled.contains(&pj.tid) { vec![pj.tid] } else { di.enabled.clone() };
            for c in candidates {
                if c == di.chosen || di.slept.contains(&c) {
                    continue;
                }
                let Some(prefix) = branch_prefix(exec, i, c, cfg) else { continue };
                let mut sleep: Vec<SleepEntry> =
                    task.sleep.iter().filter(|e| e.pos <= i).cloned().collect();
                sleep.push(SleepEntry { pos: i, tid: di.chosen, sig: exec.points[i].clone() });
                out.push(Task { prefix, sleep });
            }
        }
    }
    out
}

/// Child tasks under naive enumeration: branch at every position past
/// the forced prefix, for every enabled alternative. Together with the
/// default suffix this enumerates the full schedule tree exactly once.
fn children_naive(task: &Task, exec: &Execution, cfg: &ExploreConfig) -> Vec<Task> {
    let mut out = Vec::new();
    for p in task.prefix.len()..exec.decisions.len() {
        for &c in &exec.decisions[p].enabled {
            if c == exec.decisions[p].chosen {
                continue;
            }
            let Some(prefix) = branch_prefix(exec, p, c, cfg) else { continue };
            out.push(Task { prefix, sleep: Vec::new() });
        }
    }
    out
}

/// Explores a workload's schedule tree breadth-first from the default
/// schedule, deterministically: each wave is sorted by task key before
/// execution, children are deduplicated globally, and capping truncates
/// the sorted wave — so two runs produce identical summaries.
pub fn explore(workload: McWorkload, cfg: &ExploreConfig) -> ExploreSummary {
    let mut summary = ExploreSummary::default();
    let mut seen_kinds: BTreeSet<ViolationKind> = BTreeSet::new();
    let root = Task { prefix: Vec::new(), sleep: Vec::new() };
    let mut seen: BTreeSet<TaskKey> = BTreeSet::new();
    seen.insert(root.key());
    let mut frontier = vec![root];
    let mut executed = 0usize;
    while !frontier.is_empty() {
        frontier.sort_by_cached_key(Task::key);
        if executed + frontier.len() > cfg.max_schedules {
            summary.capped = true;
            frontier.truncate(cfg.max_schedules.saturating_sub(executed));
            if frontier.is_empty() {
                break;
            }
        }
        let mut next = Vec::new();
        for task in &frontier {
            let exec = run_schedule(workload, &task.prefix, &task.sleep, cfg.depth_bound);
            executed += 1;
            summary.max_depth = summary.max_depth.max(exec.decisions.len() as u64);
            match &exec.outcome {
                Outcome::Completed | Outcome::Deadlocked(_) | Outcome::EngineError(_) => {
                    summary.schedules += 1;
                }
                Outcome::Truncated => summary.truncated += 1,
                Outcome::SleepBlocked => summary.pruned += 1,
                Outcome::Diverged => summary.diverged += 1,
            }
            for race in &exec.races {
                let (a, b) = (race.first.tid.0, race.second.tid.0);
                summary.race_pairs.insert((a.min(b), a.max(b)));
            }
            for v in violations_of(&exec) {
                if seen_kinds.insert(v.kind) {
                    summary.violations.push(v);
                }
            }
            if matches!(exec.outcome, Outcome::Diverged | Outcome::EngineError(_)) {
                continue;
            }
            let children = if cfg.naive {
                children_naive(task, &exec, cfg)
            } else {
                children_dpor(task, &exec, cfg)
            };
            for child in children {
                if seen.insert(child.key()) {
                    next.push(child);
                }
            }
        }
        frontier = next;
    }
    summary.violations.sort_by_key(|v| v.kind);
    summary
}

/// Racing thread pairs the *single-schedule* detector reports for a
/// workload under the engine's default (uncontrolled) scheduling — the
/// cross-validation baseline: every pair it reports must also be
/// observed in some explored schedule.
pub fn single_schedule_race_pairs(workload: McWorkload) -> BTreeSet<(u64, u64)> {
    let mut engine = match Engine::new(
        MachineConfig::ultra1(),
        active_threads::SchedPolicy::Fcfs,
        EngineConfig::default(),
    ) {
        Ok(e) => e,
        Err(_) => return BTreeSet::new(),
    };
    engine.enable_observation();
    engine.spawn(workload.program());
    let _ = engine.run();
    let log = engine.take_observation().unwrap_or_default();
    RaceDetector::run(&log)
        .races()
        .iter()
        .map(|r| {
            let (a, b) = (r.first.tid.0, r.second.tid.0);
            (a.min(b), a.max(b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq};

    fn cfg(max: usize) -> ExploreConfig {
        ExploreConfig { max_schedules: max, ..ExploreConfig::default() }
    }

    #[test]
    fn default_schedule_of_clean_completes() {
        let exec = run_schedule(McWorkload::Clean { rounds: 1 }, &[], &[], 64);
        assert_eq!(exec.outcome, Outcome::Completed);
        assert!(exec.races.is_empty());
        assert_eq!(exec.decisions.len(), exec.points.len());
        assert_eq!(exec.clocks.len(), exec.points.len());
    }

    #[test]
    fn scheduler_invariant_check_flags_each_broken_rule() {
        let exec = || run_schedule(McWorkload::Clean { rounds: 1 }, &[], &[], 64);
        assert_eq!(scheduler_invariant_failure(&exec()), None);
        let rules = [
            "decision/step mismatch",
            "outside its enabled set",
            "sleeping thread",
            "unsorted or duplicated",
            "but step 0 ran",
        ];
        for (rule, want) in rules.into_iter().enumerate() {
            let mut e = exec();
            let chosen = e.decisions[0].chosen;
            match rule {
                0 => drop(e.decisions.pop()),
                1 => e.decisions[0].chosen = ThreadId(999),
                2 => e.decisions[0].slept = vec![chosen],
                3 => e.decisions[0].enabled.push(chosen),
                _ => e.points[0].tid = ThreadId(999),
            }
            let what = scheduler_invariant_failure(&e).unwrap_or_default();
            assert!(what.contains(want), "expected `{want}`, got `{what}`");
            assert!(violations_of(&e).iter().any(|v| v.kind == ViolationKind::Invariant));
        }
    }

    #[test]
    fn clean_explores_to_quiescence_without_violations() {
        let summary = explore(McWorkload::Clean { rounds: 1 }, &cfg(50_000));
        assert!(!summary.capped, "clean fixture should explore exhaustively");
        assert!(summary.violations.is_empty(), "{:?}", summary.violations);
        assert_eq!(summary.diverged, 0);
        assert!(summary.schedules > 1);
    }

    #[test]
    fn racy_exploration_finds_the_race() {
        let summary = explore(McWorkload::Racy { rounds: 1 }, &cfg(5_000));
        assert!(summary.count_of(ViolationKind::Race) > 0, "{summary:?}");
        assert_eq!(summary.diverged, 0);
    }

    #[test]
    fn deadlock_exploration_finds_the_deadlock() {
        let summary = explore(McWorkload::Deadlock, &cfg(5_000));
        assert!(summary.count_of(ViolationKind::Deadlock) > 0, "{summary:?}");
        assert_eq!(summary.count_of(ViolationKind::CondvarStall), 0);
        assert_eq!(summary.diverged, 0);
    }

    #[test]
    fn lost_wakeup_exploration_finds_the_stall() {
        let summary = explore(McWorkload::LostWakeup, &cfg(5_000));
        assert!(summary.count_of(ViolationKind::CondvarStall) > 0, "{summary:?}");
        assert_eq!(summary.diverged, 0);
    }

    #[test]
    fn dpor_reduces_vs_naive_on_clean() {
        let dpor = explore(McWorkload::Clean { rounds: 1 }, &cfg(50_000));
        let naive =
            explore(McWorkload::Clean { rounds: 1 }, &ExploreConfig { naive: true, ..cfg(50_000) });
        assert!(!dpor.capped);
        assert!(
            naive.schedules > dpor.schedules,
            "naive {} should exceed dpor {}",
            naive.schedules,
            dpor.schedules
        );
        // Both agree the fixture is clean.
        assert!(naive.violations.is_empty());
        assert!(dpor.violations.is_empty());
    }

    #[test]
    fn counterexamples_round_trip_and_replay() {
        let summary = explore(McWorkload::Deadlock, &cfg(5_000));
        let v = summary
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::Deadlock)
            .expect("deadlock violation");
        let text = serialize_counterexample(McWorkload::Deadlock, v);
        let ce = parse_counterexample(&text).expect("parse back");
        assert_eq!(ce.kind, ViolationKind::Deadlock);
        assert_eq!(ce.schedule, v.schedule);
        let replayed = replay_counterexample(&ce).expect("replay reproduces");
        assert_eq!(replayed.kind, ViolationKind::Deadlock);
        assert_eq!(replayed.detail, v.detail, "replay is deterministic");
    }

    #[test]
    fn race_counterexample_replays() {
        let summary = explore(McWorkload::Racy { rounds: 1 }, &cfg(2_000));
        let v = summary
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::Race)
            .expect("race violation");
        let text = serialize_counterexample(McWorkload::Racy { rounds: 1 }, v);
        let ce = parse_counterexample(&text).expect("parse");
        let replayed = replay_counterexample(&ce).expect("replay");
        assert_eq!(replayed.kind, ViolationKind::Race);
    }

    #[test]
    fn parse_rejects_malformed_counterexamples() {
        assert!(parse_counterexample("nonsense").is_err());
        assert!(parse_counterexample(&format!("{CE_HEADER}\nworkload clean 1\n")).is_err());
        assert!(parse_counterexample(&format!(
            "{CE_HEADER}\nworkload bogus 1\nviolation race\nschedule 1\n"
        ))
        .is_err());
        // Rounds the explorer never writes: zero (once replayed as one
        // round), past MAX_ROUNDS (a replay quadratic in them), and any
        // but 1 for the fixtures without rounds.
        for workload in
            ["clean 0", "racy 0", "racy 1001", "racy 4294967295", "deadlock 2", "lostwake 0"]
        {
            let text = format!("{CE_HEADER}\nworkload {workload}\nviolation race\nschedule 1\n");
            assert!(parse_counterexample(&text).is_err(), "{workload}");
        }
        let text = format!("{CE_HEADER}\nworkload racy {MAX_ROUNDS}\nviolation race\nschedule 1\n");
        assert!(parse_counterexample(&text).is_ok());
    }

    proptest::proptest! {
        /// The counterexample decoder, on the files all four workloads
        /// write: one cut short at any byte, with a token replaced, a
        /// line duplicated or dropped, or a count at `u32::MAX` or
        /// `u64::MAX` parses to an error or to a value that re-serializes
        /// and parses back to itself. It never panics.
        #[test]
        fn damaged_counterexamples_parse_to_an_error_or_a_round_trip(
            which in (0usize..4, 0usize..4, 1u32..=MAX_ROUNDS),
            schedule in proptest::collection::vec(0u64..=u64::MAX, 0..12),
            damage in 0u8..6,
            at in (0usize..=usize::MAX, 0usize..=usize::MAX),
        ) {
            let workloads = [
                McWorkload::Clean { rounds: which.2 },
                McWorkload::Racy { rounds: which.2 },
                McWorkload::Deadlock,
                McWorkload::LostWakeup,
            ];
            let kinds = [
                ViolationKind::Race,
                ViolationKind::Deadlock,
                ViolationKind::CondvarStall,
                ViolationKind::Invariant,
            ];
            let detail = "t1 blocked on mutex 0; t2 blocked".to_string();
            let v = McViolation { kind: kinds[which.1], detail, schedule };
            let text = serialize_counterexample(workloads[which.0], &v);
            let mut lines: Vec<&str> = text.lines().collect();
            let tokens: Vec<&str> = text.split_inclusive([' ', ',', '\n']).collect();
            let retoken = |i: usize, new: &str| {
                let end = tokens[i].trim_end_matches([' ', ',', '\n']).len();
                let mut parts = tokens.clone();
                let patched = format!("{new}{}", &tokens[i][end..]);
                parts[i] = &patched;
                parts.concat()
            };
            let counts = ["4294967295", "4294967296", "18446744073709551615", "18446744073709551616"];
            let line = at.0 % lines.len();
            let damaged = match damage {
                0 => text.clone(),
                // The text is ASCII, so every byte offset is a boundary.
                1 => text[..at.0 % (text.len() + 1)].to_string(),
                2 => {
                    let new = ["", "x", "-1", "0", ",", "race", "clean", "workload"][at.1 % 8];
                    retoken(at.0 % tokens.len(), new)
                }
                3 => {
                    lines.insert(line, lines[line]);
                    lines.join("\n")
                }
                4 => {
                    lines.remove(line);
                    lines.join("\n")
                }
                _ => retoken(at.0 % tokens.len(), counts[at.1 % 4]),
            };
            match parse_counterexample(&damaged) {
                Err(_) => prop_assert!(damage != 0, "an undamaged file must parse"),
                Ok(ce) => {
                    if damage == 0 {
                        let want = (workloads[which.0], v.kind, &v.schedule, &v.detail);
                        prop_assert_eq!((ce.workload, ce.kind, &ce.schedule, &ce.detail), want);
                    }
                    let again = McViolation {
                        kind: ce.kind,
                        detail: ce.detail.clone(),
                        schedule: ce.schedule.clone(),
                    };
                    let again = serialize_counterexample(ce.workload, &again);
                    prop_assert_eq!(parse_counterexample(&again), Ok(ce));
                }
            }
        }
    }

    #[test]
    fn single_schedule_races_are_realizable_in_exploration() {
        // Cross-validation of the §7 single-schedule detector: every
        // racing pair it reports must appear in some explored schedule.
        for (w, cap) in
            [(McWorkload::Racy { rounds: 1 }, 5_000), (McWorkload::Clean { rounds: 1 }, 50_000)]
        {
            let single = single_schedule_race_pairs(w);
            let explored = explore(w, &cfg(cap));
            assert!(
                single.is_subset(&explored.race_pairs),
                "{}: single-schedule pairs {:?} not all realizable in {:?}",
                w.name(),
                single,
                explored.race_pairs
            );
        }
    }

    #[test]
    fn preempt_bound_zero_still_finds_the_deadlock() {
        // The AB–BA deadlock needs no preemption of a runnable thread:
        // each worker blocks voluntarily on its second lock.
        let summary =
            explore(McWorkload::Deadlock, &ExploreConfig { preempt_bound: Some(1), ..cfg(5_000) });
        assert!(summary.count_of(ViolationKind::Deadlock) > 0, "{summary:?}");
    }

    #[test]
    fn depth_bound_truncates_instead_of_reporting_deadlock() {
        let exec = run_schedule(McWorkload::Clean { rounds: 1 }, &[], &[], 3);
        assert_eq!(exec.outcome, Outcome::Truncated);
        assert_eq!(exec.decisions.len(), 3);
    }
}
