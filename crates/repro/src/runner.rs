//! The shared experiment runner: every figure and table is a list of
//! independent, explicitly-seeded run descriptors ([`RunKind`]) that a
//! pool of OS worker threads executes in parallel (`--jobs N`), with an
//! on-disk result cache so re-invocations skip finished points.
//!
//! Determinism contract: a descriptor fully describes its run (machine,
//! workload, seeds), each run builds all of its state privately, and
//! callers format output only after `run_all` returns results in
//! descriptor order — so CSV artifacts are **byte-identical** for every
//! `--jobs` value. The per-run wall-clock stats below are the only
//! nondeterministic output and are confined to stdout.
//!
//! A descriptor is a simulated machine or engine run and nothing else
//! (DESIGN.md §10.2): what costs less to compute than an entry costs to
//! load (Table 3's operation counts), what is written out whole anyway
//! (`repro trace`) and what finishes in milliseconds (`repro
//! modelcheck`) is computed where it is printed.
//!
//! Cache entries are keyed by an FNV-1a hash of the canonical
//! descriptor string, which embeds the wire-format revision and a stamp
//! of the running executable (file length and modification time) — a
//! rebuild never reuses an earlier build's results. Entries are written
//! via a temp-file rename, so concurrent invocations sharing a cache
//! directory cannot observe torn files, and each carries a SHA-256 of
//! its payload: a truncated or bit-rotted entry is quarantined (renamed
//! aside) and recomputed instead of misparsing or panicking.
//!
//! Each descriptor runs on a worker of `in_parallel`, which catches a
//! panic per item: that is a run's one isolation boundary. A panicking
//! descriptor fails the suite with [`ReproError::RunPanicked`], naming
//! its request, while its siblings still run. A run is deterministic, so
//! a panic is reported, never re-run, and no run is timed out. Combined
//! with the cache, this makes `repro all` resumable: a killed invocation
//! re-runs only the descriptors whose entries never landed, and the
//! reassembled artifacts are byte-identical.

use crate::args::{Args, Scale};
use crate::digest;
use crate::error::ReproError;
use crate::experiments::{self, ChaosCell, FaultCell, PredictionProbe};
use crate::microbench::{self, WalkExperiment, WalkPoint};
use crate::monitor::{self, MonitorTrace, Sample};
use crate::perf::{self, PerfApp};
use crate::scenario::{Injector, Scenario};
use crate::table::{Table, TableError};
use active_threads::{RunReport, SchedPolicy};
use locality_sim::PagePlacement;
use locality_workloads::App;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Bumped whenever the wire encoding of [`RunOutput`] changes, so stale
/// cache entries miss instead of misparsing.
const WIRE_FORMAT: u32 = 4;

/// One independent, explicitly-seeded simulation run. The variant value
/// fully determines the run's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunKind {
    /// A random-walk curve: a Figure 4 curve or a `repro geometry` cell.
    Walk(WalkExperiment),
    /// A Figure 5/6/7 monitored-application trace.
    Monitor {
        /// The monitored application.
        app: App,
        /// Page-placement policy of the simulated VM.
        placement: PagePlacement,
        /// The workload's RNG seed.
        seed: u64,
    },
    /// A §5 policy-comparison cell (Figures 8/9, Table 5, ablation 1).
    Policy {
        /// The application.
        app: PerfApp,
        /// The scheduling policy.
        policy: SchedPolicy,
        /// Processor count (1 = Ultra-1, else Enterprise 5000).
        cpus: usize,
        /// Workload scale.
        scale: Scale,
    },
    /// A heap-eviction-threshold sweep cell (ablation 2).
    Threshold {
        /// Threshold in lines.
        threshold_lines: u64,
        /// Workload scale.
        scale: Scale,
    },
    /// A page-placement probe (ablation 3).
    PlacementProbe {
        /// The application.
        app: App,
        /// Page-placement policy.
        placement: PagePlacement,
    },
    /// An invalidation-effects cell (ablation 4).
    Invalidation {
        /// Lines written by the remote processor.
        written_lines: u64,
    },
    /// A sharing-inference pipeline cell (ablation 5).
    Pipeline {
        /// The scheduling policy.
        policy: SchedPolicy,
        /// Hand `at_share` annotations on?
        annotate: bool,
        /// CML-driven runtime inference on?
        infer: bool,
        /// Workload scale.
        scale: Scale,
    },
    /// A robustness cell: a counter-fault (ablation 6) or lifecycle-chaos
    /// (ablation 7) row of the [scenario table](crate::scenario).
    Robustness {
        /// The scheduling policy.
        policy: SchedPolicy,
        /// The row, whose injector the run installs.
        scenario: Scenario,
        /// Workload scale.
        scale: Scale,
    },
}

/// A labelled run descriptor.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Human-readable label for the stats summary and a panic's error.
    pub label: String,
    /// The run itself.
    pub kind: RunKind,
}

impl RunRequest {
    /// Creates a labelled request.
    pub fn new(label: impl Into<String>, kind: RunKind) -> Self {
        RunRequest { label: label.into(), kind }
    }
}

/// What this executable can observe about its own build without hashing
/// itself: the length and modification time of its file, read once per
/// process. `None` (no path, no metadata) leaves nothing to tell one
/// build's entries from another's, so [`Runner::new`] then runs uncached.
fn build_stamp() -> Option<&'static str> {
    static STAMP: OnceLock<Option<String>> = OnceLock::new();
    let stat = || {
        let meta = std::fs::metadata(std::env::current_exe().ok()?).ok()?;
        let mtime = meta.modified().ok()?.duration_since(std::time::UNIX_EPOCH).ok()?;
        Some(format!("{}.{}", meta.len(), mtime.as_nanos()))
    };
    STAMP
        .get_or_init(|| {
            let stamp = stat();
            if stamp.is_none() {
                eprintln!("[cache] cannot stat the running executable: results are not cached");
            }
            stamp
        })
        .as_deref()
}

fn stamped_key(stamp: &str, kind: &RunKind) -> String {
    format!("locality-repro build {stamp} wire {WIRE_FORMAT} | {kind:?}")
}

/// The canonical cache key of a descriptor: this build's stamp, the
/// wire-format revision, and the descriptor's exhaustive debug form.
pub fn cache_key(kind: &RunKind) -> String {
    stamped_key(build_stamp().unwrap_or("unreadable"), kind)
}

/// The result of one run.
#[derive(Debug, Clone)]
pub enum RunOutput {
    /// The observed points of one walk curve.
    Points(Vec<WalkPoint>),
    /// A monitored-application trace.
    Trace(MonitorTrace),
    /// An engine run report.
    Report(RunReport),
    /// A fault-robustness cell.
    FaultCell(FaultCell),
    /// A thread-lifecycle chaos cell.
    ChaosCell(ChaosCell),
    /// `(observed, predicted)` footprints of an invalidation cell.
    Invalidation {
        /// Ground-truth resident lines after the remote writes.
        observed: u64,
        /// What the counter-driven model still predicts.
        predicted: u64,
    },
}

/// Simulated E-cache misses a run performed (for the throughput stats).
fn sim_misses(out: &RunOutput) -> u64 {
    match out {
        RunOutput::Points(points) => points.last().map_or(0, |p| p.misses),
        RunOutput::Trace(trace) => trace.samples.last().map_or(0, |s| s.misses),
        RunOutput::Report(report) => report.total_l2_misses,
        RunOutput::FaultCell(cell) => cell.report.total_l2_misses,
        RunOutput::ChaosCell(cell) => cell.report.total_l2_misses,
        RunOutput::Invalidation { .. } => 0,
    }
}

/// Executes one descriptor from scratch. Everything the run touches is
/// built inside this call, so it is safe to dispatch from any thread.
///
/// # Errors
///
/// Propagates the underlying engine/model error.
pub fn execute(kind: &RunKind) -> Result<RunOutput, ReproError> {
    match *kind {
        RunKind::Walk(exp) => Ok(RunOutput::Points(microbench::run(&exp))),
        RunKind::Monitor { app, placement, seed } => {
            Ok(RunOutput::Trace(monitor::monitor_app_seeded(app, placement, seed)?))
        }
        RunKind::Policy { app, policy, cpus, scale } => {
            Ok(RunOutput::Report(perf::run_cell(app, policy, cpus, scale)?))
        }
        RunKind::Threshold { threshold_lines, scale } => {
            Ok(RunOutput::Report(experiments::threshold_cell(threshold_lines, scale)?))
        }
        RunKind::PlacementProbe { app, placement } => {
            Ok(RunOutput::Report(experiments::placement_cell(app, placement)?))
        }
        RunKind::Invalidation { written_lines } => {
            let (observed, predicted) = experiments::invalidation_cell(written_lines);
            Ok(RunOutput::Invalidation { observed, predicted })
        }
        RunKind::Pipeline { policy, annotate, infer, scale } => {
            Ok(RunOutput::Report(experiments::pipeline_cell(policy, annotate, infer, scale)?))
        }
        RunKind::Robustness { policy, scenario, scale } => match scenario.injector {
            Injector::Counter(f) => {
                experiments::fault_cell(policy, f, scale).map(RunOutput::FaultCell)
            }
            Injector::Lifecycle(c) => {
                experiments::chaos_cell(policy, c, scale).map(RunOutput::ChaosCell)
            }
        },
    }
}

// ---------------------------------------------------------------------
// Wire format: a plain-text encoding of RunOutput for the disk cache.
// Floats travel as their IEEE-754 bit patterns in hex so every value
// round-trips exactly — the byte-identical-CSV invariant depends on it.

fn enc_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn enc_probe(p: &PredictionProbe) -> String {
    format!("{} {} {}", enc_f64(p.sum_abs_err), enc_f64(p.sum_observed), p.samples)
}

fn encode_report(out: &mut String, r: &RunReport) {
    out.push_str(&format!("report {}\n", r.policy));
    out.push_str(&format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {}\n",
        r.cpus,
        r.total_cycles,
        r.total_l2_misses,
        r.total_l2_refs,
        r.total_instructions,
        r.context_switches,
        r.threads_completed,
        r.threads_aborted,
        r.steals,
        r.priority_flops.0,
        r.priority_flops.1,
        r.degraded_intervals,
        r.corrected_intervals
    ));
}

/// Serializes a run result for the disk cache.
fn encode(out: &RunOutput) -> String {
    let mut s = String::new();
    match out {
        RunOutput::Points(points) => {
            s.push_str(&format!("points {}\n", points.len()));
            for p in points {
                s.push_str(&format!("{} {}\n", p.misses, enc_f64(p.observed)));
            }
        }
        RunOutput::Trace(trace) => {
            s.push_str(&format!("trace {}\n", trace.samples.len()));
            for p in &trace.samples {
                s.push_str(&format!(
                    "{} {} {} {}\n",
                    p.misses,
                    p.instructions,
                    enc_f64(p.observed),
                    enc_f64(p.predicted)
                ));
            }
        }
        RunOutput::Report(r) => encode_report(&mut s, r),
        RunOutput::FaultCell(cell) => {
            s.push_str(&format!("fault {} {}\n", u8::from(cell.recovered), enc_probe(&cell.probe)));
            encode_report(&mut s, &cell.report);
        }
        RunOutput::ChaosCell(cell) => {
            s.push_str(&format!("chaos {} {}\n", cell.poisoned, enc_probe(&cell.probe)));
            encode_report(&mut s, &cell.report);
        }
        RunOutput::Invalidation { observed, predicted } => {
            s.push_str(&format!("inval {observed} {predicted}\n"));
        }
    }
    s
}

/// The value of one lowercase hex digit.
fn nibble(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    }
}

/// The 32 bytes that [`digest::hex`]'s 64 digits spell.
fn unhex(hex: &[u8]) -> Option<[u8; 32]> {
    if hex.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
        *byte = nibble(pair[0])? << 4 | nibble(pair[1])?;
    }
    Some(out)
}

/// A cursor over a cache entry that accepts only what [`encode`] and
/// [`DiskCache::store`] write: a decimal field is ASCII digits, a float
/// is exactly the 16 lowercase hex digits of [`enc_f64`], and every
/// field ends in the one separator its place in the line calls for.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    /// Consumes `lit`, which must come next.
    fn lit(&mut self, lit: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(lit.as_bytes())?;
        Some(())
    }

    /// The bytes up to the next `end`, which is consumed too.
    fn until(&mut self, end: u8) -> Option<&'a [u8]> {
        let at = self.0.iter().position(|&b| b == end)?;
        let field = &self.0[..at];
        self.0 = &self.0[at + 1..];
        Some(field)
    }

    /// A decimal `u64` ended by `end`.
    fn int(&mut self, end: u8) -> Option<u64> {
        let digits = self.until(end)?;
        if digits.is_empty() {
            return None;
        }
        digits.iter().try_fold(0u64, |v, &b| {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                return None;
            }
            v.checked_mul(10)?.checked_add(u64::from(digit))
        })
    }

    /// An [`enc_f64`] float ended by `end`.
    fn float(&mut self, end: u8) -> Option<f64> {
        let (digits, rest) = self.0.split_first_chunk::<16>()?;
        let (&sep, rest) = rest.split_first()?;
        let mut bits = 0u64;
        for &b in digits {
            bits = bits << 4 | u64::from(nibble(b)?);
        }
        self.0 = rest;
        (sep == end).then_some(f64::from_bits(bits))
    }

    /// A `<tag><count>` line followed by `count` rows. The count comes
    /// from disk, so it only bounds the loop: the vector grows row by row
    /// and a count the payload cannot back runs out of rows (an
    /// undecodable entry) instead of reserving memory for it.
    fn rows<T>(&mut self, tag: &str, row: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.lit(tag)?;
        let n = self.int(b'\n')?;
        (0..n).map(|_| row(self)).collect()
    }

    fn probe(&mut self) -> Option<PredictionProbe> {
        Some(PredictionProbe {
            sum_abs_err: self.float(b' ')?,
            sum_observed: self.float(b' ')?,
            samples: self.int(b'\n')?,
        })
    }

    fn report(&mut self) -> Option<RunReport> {
        self.lit("report ")?;
        let policy = std::str::from_utf8(self.until(b'\n')?).ok()?.to_string();
        let mut nums = [0u64; 13];
        for (i, n) in nums.iter_mut().enumerate() {
            *n = self.int(if i == 12 { b'\n' } else { b' ' })?;
        }
        Some(RunReport {
            policy,
            cpus: usize::try_from(nums[0]).ok()?,
            total_cycles: nums[1],
            total_l2_misses: nums[2],
            total_l2_refs: nums[3],
            total_instructions: nums[4],
            context_switches: nums[5],
            threads_completed: nums[6],
            threads_aborted: nums[7],
            steals: nums[8],
            priority_flops: (nums[9], nums[10]),
            degraded_intervals: nums[11],
            corrected_intervals: nums[12],
            // Per-processor breakdowns are not cached; no figure consumes
            // them and they would dominate the entry size.
            per_cpu: Vec::new(),
        })
    }
}

/// Deserializes a cached payload, using the descriptor for context
/// (e.g. the static app name of a trace). `None` means the entry is
/// unreadable and the run is simply repeated.
fn decode(kind: &RunKind, payload: &str) -> Option<RunOutput> {
    let c = &mut Cursor(payload.as_bytes());
    let out = match kind {
        RunKind::Walk(_) => RunOutput::Points(c.rows("points ", |r| {
            Some(WalkPoint { misses: r.int(b' ')?, observed: r.float(b'\n')? })
        })?),
        RunKind::Monitor { app, .. } => {
            let samples = c.rows("trace ", |r| {
                Some(Sample {
                    misses: r.int(b' ')?,
                    instructions: r.int(b' ')?,
                    observed: r.float(b' ')?,
                    predicted: r.float(b'\n')?,
                })
            })?;
            RunOutput::Trace(MonitorTrace { app: app.name(), samples })
        }
        RunKind::Policy { .. }
        | RunKind::Threshold { .. }
        | RunKind::PlacementProbe { .. }
        | RunKind::Pipeline { .. } => RunOutput::Report(c.report()?),
        RunKind::Robustness { scenario, .. } => match scenario.injector {
            Injector::Counter(_) => {
                c.lit("fault ")?;
                let recovered = match c.int(b' ')? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                let probe = c.probe()?;
                RunOutput::FaultCell(FaultCell { recovered, probe, report: c.report()? })
            }
            Injector::Lifecycle(_) => {
                c.lit("chaos ")?;
                let poisoned = c.int(b' ')?;
                let probe = c.probe()?;
                RunOutput::ChaosCell(ChaosCell { poisoned, probe, report: c.report()? })
            }
        },
        RunKind::Invalidation { .. } => {
            c.lit("inval ")?;
            RunOutput::Invalidation { observed: c.int(b' ')?, predicted: c.int(b'\n')? }
        }
    };
    c.0.is_empty().then_some(out)
}

// ---------------------------------------------------------------------
// Disk cache.

fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.run", fnv1a(key)))
    }

    /// Loads a cached result. `Ok(None)` is a clean miss (no entry, or
    /// an FNV key collision); [`ReproError::CorruptCache`] means the
    /// entry existed but could not be read or failed its checksum or
    /// decode — it has been quarantined (renamed to `.quarantine`) so the
    /// recomputed result can land fresh, and the caller recomputes after
    /// logging.
    fn load(&self, key: &str, kind: &RunKind) -> Result<Option<RunOutput>, ReproError> {
        let path = self.entry_path(key);
        let corrupt = |what: &str| {
            let quarantined = path.with_extension("quarantine");
            // Best effort: if the rename fails, the fresh store below
            // simply overwrites the bad entry.
            let _ = std::fs::rename(&path, &quarantined);
            ReproError::CorruptCache { quarantined, what: what.to_string() }
        };
        let entry = match std::fs::read(&path) {
            Ok(entry) => entry,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(corrupt(&format!("unreadable entry ({e})"))),
        };
        let mut c = Cursor(&entry);
        let Some(first) = c.until(b'\n') else {
            return Err(corrupt("truncated header"));
        };
        if first != key.as_bytes() {
            return Ok(None);
        }
        let Some(sum_line) = c.until(b'\n') else {
            return Err(corrupt("missing checksum line"));
        };
        let Some(expected) = sum_line.strip_prefix(b"sha256 ").and_then(unhex) else {
            return Err(corrupt("malformed checksum line"));
        };
        if digest::sha256(c.0) != expected {
            return Err(corrupt("payload checksum mismatch"));
        }
        match std::str::from_utf8(c.0).ok().and_then(|payload| decode(kind, payload)) {
            Some(out) => Ok(Some(out)),
            None => Err(corrupt("undecodable payload")),
        }
    }

    /// Stores a result atomically (temp file + rename), so concurrent
    /// invocations sharing this directory never read torn entries; the
    /// embedded SHA-256 lets `load` reject anything that still lands
    /// damaged (partial disk, bit rot).
    fn store(&self, key: &str, out: &RunOutput) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(key);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let payload = encode(out);
        let checksum = digest::hex(payload.as_bytes());
        std::fs::write(&tmp, format!("{key}\nsha256 {checksum}\n{payload}"))?;
        std::fs::rename(&tmp, &path)
    }
}

/// Kept, with no settings, for callers that still build a
/// [`RunnerConfig`] with one: a run is deterministic and needs no guard
/// beyond the worker pool's per-item panic catch.
#[derive(Debug, Clone, Default)]
pub struct GuardPolicy {}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// The worker pool.

/// Applies `f` to every item on up to `jobs` scoped worker threads and
/// returns the results **in item order**, whatever order they finished
/// in (collecting them into a `Result` therefore surfaces the earliest
/// failing item). Workers claim the next unclaimed index, so one slow
/// item never holds a queue of others behind it. A panicking item
/// becomes that item's [`ReproError::RunPanicked`]; the rest still run.
/// `f` must build what it runs privately (engines are not `Send`) —
/// only `T` and the plain result cross the thread boundary, which is
/// also why unwinding cannot leave shared state torn.
pub(crate) fn in_parallel<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(&T) -> Result<R, ReproError> + Sync,
) -> Vec<Result<R, ReproError>> {
    let slots: Vec<Mutex<Option<Result<R, ReproError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
                    .unwrap_or_else(|payload| {
                        Err(ReproError::RunPanicked { what: panic_message(payload.as_ref()) })
                    });
                *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(res);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .unwrap_or_else(|| Err(ReproError::MissingResult(format!("pool item {i}"))))
        })
        .collect()
}

// ---------------------------------------------------------------------
// The runner.

/// Instrumentation for one completed run.
#[derive(Debug, Clone)]
pub struct RunStat {
    /// The request's label.
    pub label: String,
    /// Wall-clock time of the run (zero when served from cache).
    pub wall: Duration,
    /// Simulated E-cache misses the run performed.
    pub sim_misses: u64,
    /// Whether the result came from the disk cache.
    pub cached: bool,
}

/// Runner configuration, usually derived from [`Args`].
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads.
    pub jobs: usize,
    /// Cache directory; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Has no settings; see [`GuardPolicy`].
    pub guard: GuardPolicy,
}

/// The parallel, cached experiment runner.
pub struct Runner {
    jobs: usize,
    cache: Option<DiskCache>,
    stats: Mutex<Vec<RunStat>>,
}

impl Runner {
    /// Creates a runner.
    pub fn new(config: RunnerConfig) -> Self {
        Runner {
            jobs: config.jobs.max(1),
            cache: config
                .cache_dir
                .filter(|_| build_stamp().is_some())
                .map(|dir| DiskCache { dir }),
            stats: Mutex::new(Vec::new()),
        }
    }

    /// A runner honouring `--jobs` and `--no-cache`; the cache lives
    /// under `<out>/.cache` next to the CSVs it accelerates.
    pub fn from_args(args: &Args) -> Self {
        Runner::new(RunnerConfig {
            jobs: args.jobs,
            cache_dir: (!args.no_cache).then(|| args.out.join(".cache")),
            guard: GuardPolicy::default(),
        })
    }

    /// Executes every request (deduplicating identical descriptors) and
    /// returns the results **in request order**, which is what keeps
    /// output byte-identical across `--jobs` values.
    ///
    /// # Errors
    ///
    /// Returns the first failing run's error (first in request order). A
    /// [`ReproError::RunPanicked`] names the request whose run panicked.
    pub fn run_all(&self, reqs: &[RunRequest]) -> Result<Vec<RunOutput>, ReproError> {
        let keys: Vec<String> = reqs.iter().map(|r| cache_key(&r.kind)).collect();
        // One slot per distinct descriptor, first occurrence wins.
        let mut first_of: HashMap<&str, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            first_of.entry(key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
        }
        let done: Vec<RunOutput> =
            in_parallel(self.jobs, &unique, |&i| self.run_one(&reqs[i], &keys[i]))
                .into_iter()
                .zip(&unique)
                .map(|(res, &i)| match res {
                    Err(ReproError::RunPanicked { what }) => {
                        Err(ReproError::RunPanicked { what: format!("{}: {what}", reqs[i].label) })
                    }
                    res => res,
                })
                .collect::<Result<_, _>>()?;
        Ok(keys.iter().map(|key| done[first_of[key.as_str()]].clone()).collect())
    }

    fn run_one(&self, req: &RunRequest, key: &str) -> Result<RunOutput, ReproError> {
        if let Some(cache) = &self.cache {
            match cache.load(key, &req.kind) {
                Ok(Some(out)) => {
                    self.push_stat(RunStat {
                        label: req.label.clone(),
                        wall: Duration::ZERO,
                        sim_misses: sim_misses(&out),
                        cached: true,
                    });
                    return Ok(out);
                }
                Ok(None) => {}
                // Quarantined; recompute and store a fresh entry.
                Err(e) => eprintln!("[cache] {}: {e}", req.label),
            }
        }
        let start = Instant::now();
        let out = execute(&req.kind)?;
        let wall = start.elapsed();
        if let Some(cache) = &self.cache {
            // A failing cache write must not kill the suite; the result
            // is in hand and only re-invocation speed is lost.
            if let Err(e) = cache.store(key, &out) {
                eprintln!("[cache] could not store {}: {e}", req.label);
            }
        }
        self.push_stat(RunStat {
            label: req.label.clone(),
            wall,
            sim_misses: sim_misses(&out),
            cached: false,
        });
        Ok(out)
    }

    fn stats(&self) -> std::sync::MutexGuard<'_, Vec<RunStat>> {
        self.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push_stat(&self, stat: RunStat) {
        self.stats().push(stat);
    }

    /// Runs executed fresh so far.
    pub fn fresh_runs(&self) -> usize {
        self.stats().iter().filter(|s| !s.cached).count()
    }

    /// Runs served from the disk cache so far.
    pub fn cached_runs(&self) -> usize {
        self.stats().iter().filter(|s| s.cached).count()
    }

    /// The per-run instrumentation table: wall time and simulated-miss
    /// throughput per run, plus a totals row. Wall times are
    /// nondeterministic, so this table is printed, never written to CSV.
    ///
    /// # Errors
    ///
    /// Returns a [`TableError`] if a row cannot be appended.
    pub fn summary(&self) -> Result<Table, TableError> {
        let mut stats = self.stats().clone();
        stats.sort_by(|a, b| a.label.cmp(&b.label));
        let mut t = Table::new(
            &format!(
                "runner — {} jobs, {} fresh, {} cached",
                self.jobs,
                self.fresh_runs(),
                self.cached_runs()
            ),
            &["run", "source", "wall ms", "sim misses", "sim misses/sec"],
        );
        let rate = |misses: u64, wall: Duration| -> String {
            let secs = wall.as_secs_f64();
            if secs > 0.0 {
                format!("{:.0}", misses as f64 / secs)
            } else {
                "-".to_string()
            }
        };
        for s in &stats {
            t.row(&[
                s.label.clone(),
                if s.cached { "cache" } else { "run" }.to_string(),
                format!("{:.1}", s.wall.as_secs_f64() * 1e3),
                s.sim_misses.to_string(),
                if s.cached { "-".to_string() } else { rate(s.sim_misses, s.wall) },
            ])?;
        }
        let total_wall: Duration = stats.iter().map(|s| s.wall).sum();
        let fresh_misses: u64 = stats.iter().filter(|s| !s.cached).map(|s| s.sim_misses).sum();
        let total_misses: u64 = stats.iter().map(|s| s.sim_misses).sum();
        t.row(&[
            "total".to_string(),
            format!("{} runs", stats.len()),
            format!("{:.1}", total_wall.as_secs_f64() * 1e3),
            total_misses.to_string(),
            rate(fresh_misses, total_wall),
        ])?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench::Monitored;
    use crate::scenario::Ablation;
    use proptest::{prop_assert, prop_assert_eq};

    fn walk_req(seed: u64) -> RunRequest {
        RunRequest::new(
            format!("walk-{seed}"),
            RunKind::Walk(WalkExperiment::direct(Monitored::Walker { s0: 0.0 }, 2_000, 500, seed)),
        )
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a(""), 0xcbf29ce484222325);
        assert_ne!(fnv1a("a"), fnv1a("b"));
    }

    #[test]
    fn cache_keys_distinguish_descriptors() {
        let a = cache_key(&walk_req(1).kind);
        let b = cache_key(&walk_req(2).kind);
        assert_ne!(a, b);
        assert_eq!(a, cache_key(&walk_req(1).kind));
        assert!(a.contains(build_stamp().expect("a test binary can stat itself")));
    }

    /// Numbers for [`one_of_each`], handed out in order and around again.
    struct Draw<'a>(&'a [u64], usize);

    impl Draw<'_> {
        fn int(&mut self) -> u64 {
            self.1 += 1;
            self.0[(self.1 - 1) % self.0.len()]
        }

        /// Any bit pattern: NaNs, infinities and -0.0 travel too.
        fn float(&mut self) -> f64 {
            f64::from_bits(self.int())
        }

        fn report(&mut self) -> RunReport {
            RunReport {
                policy: ["fcfs", "lff", "crt-noann"][self.int() as usize % 3].to_string(),
                cpus: (self.int() % 64) as usize,
                total_cycles: self.int(),
                total_l2_misses: self.int(),
                total_l2_refs: self.int(),
                total_instructions: self.int(),
                context_switches: self.int(),
                threads_completed: self.int(),
                threads_aborted: self.int(),
                steals: self.int(),
                priority_flops: (self.int(), self.int()),
                degraded_intervals: self.int(),
                corrected_intervals: self.int(),
                per_cpu: Vec::new(),
            }
        }

        fn probe(&mut self) -> PredictionProbe {
            PredictionProbe {
                sum_abs_err: self.float(),
                sum_observed: self.float(),
                samples: self.int(),
            }
        }
    }

    /// One value of each of the six wire arms under a descriptor that
    /// decodes it: `rows` rows in the two row formats, every number from
    /// `nums`.
    fn one_of_each(nums: &[u64], rows: usize) -> Vec<(RunKind, RunOutput)> {
        let d = &mut Draw(nums, 0);
        let (policy, scale) = (SchedPolicy::Lff, Scale::Small);
        vec![
            (
                walk_req(1).kind,
                RunOutput::Points(
                    (0..rows).map(|_| WalkPoint { misses: d.int(), observed: d.float() }).collect(),
                ),
            ),
            (
                RunKind::Monitor { app: App::Merge, placement: PagePlacement::BinHopping, seed: 7 },
                RunOutput::Trace(MonitorTrace {
                    app: "merge",
                    samples: (0..rows)
                        .map(|_| Sample {
                            misses: d.int(),
                            instructions: d.int(),
                            observed: d.float(),
                            predicted: d.float(),
                        })
                        .collect(),
                }),
            ),
            (
                RunKind::Policy { app: PerfApp::Tasks, policy, cpus: 4, scale },
                RunOutput::Report(d.report()),
            ),
            (
                RunKind::Robustness {
                    policy,
                    scenario: Ablation::Faults.rows()[7], // window
                    scale,
                },
                RunOutput::FaultCell(FaultCell {
                    report: d.report(),
                    probe: d.probe(),
                    recovered: d.int() % 2 == 1,
                }),
            ),
            (
                RunKind::Robustness {
                    policy,
                    scenario: Ablation::Chaos.rows()[2], // abort-locked
                    scale,
                },
                RunOutput::ChaosCell(ChaosCell {
                    report: d.report(),
                    probe: d.probe(),
                    poisoned: d.int(),
                }),
            ),
            (
                RunKind::Invalidation { written_lines: 4 },
                RunOutput::Invalidation { observed: d.int(), predicted: d.int() },
            ),
        ]
    }

    #[test]
    fn wire_round_trips_every_variant() {
        let nums: Vec<u64> =
            (1..40).chain([f64::MAX, -0.0, 49.7, f64::NAN].map(f64::to_bits)).collect();
        let outs = one_of_each(&nums, 2);
        assert_eq!(outs.len(), 6);
        for (kind, out) in &outs {
            let wire = encode(out);
            let back = decode(kind, &wire).expect("round trip");
            assert_eq!(encode(&back), wire, "{kind:?}");
        }
    }

    /// Elements (rows, or bytes of a policy name) a decoded value holds
    /// room for.
    fn reserved(out: &RunOutput) -> usize {
        match out {
            RunOutput::Points(rows) => rows.capacity(),
            RunOutput::Trace(trace) => trace.samples.capacity(),
            RunOutput::Report(r) => r.policy.capacity(),
            RunOutput::FaultCell(cell) => cell.report.policy.capacity(),
            RunOutput::ChaosCell(cell) => cell.report.policy.capacity(),
            RunOutput::Invalidation { .. } => 0,
        }
    }

    proptest::proptest! {
        /// The whole decoder, all six arms: a payload that was cut
        /// short, had a token replaced, had its leading count multiplied
        /// or was spliced into another decodes to nothing or to a value
        /// that round-trips, holding no more room than the payload has
        /// bytes. It never panics: a multiplied count that sized an
        /// allocation would, with a capacity overflow.
        #[test]
        fn damaged_payloads_decode_to_nothing_or_to_a_round_trip(
            values in (proptest::collection::vec(0u64..=u64::MAX, 1..40), 0usize..6),
            arms in (0usize..6, 0usize..6),
            damage in 0u8..5,
            at in (0usize..=usize::MAX, 0usize..=usize::MAX),
            factor in 2u64..=u64::MAX,
        ) {
            let outs = one_of_each(&values.0, values.1);
            let (kind, wire) = (outs[arms.0].0, encode(&outs[arms.0].1));
            let other = encode(&outs[arms.1].1);
            // Payloads are ASCII, so every byte offset is a boundary.
            let cut = at.0 % (wire.len() + 1);
            let tokens: Vec<&str> = wire.split_inclusive([' ', '\n']).collect();
            let retoken = |i: usize, new: &str| {
                let end = tokens[i].trim_end_matches([' ', '\n']).len();
                let mut parts = tokens.clone();
                let patched = format!("{new}{}", &tokens[i][end..]);
                parts[i] = &patched;
                parts.concat()
            };
            let payload = match damage {
                0 => wire.clone(),
                1 => wire[..cut].to_string(),
                2 => retoken(at.0 % tokens.len(), ["", "x", "-1", "1e3", "zz zz"][at.1 % 5]),
                // The leading count is the last token of the first line.
                3 => {
                    let i = wire.lines().next().map_or(0, |l| l.split(' ').count() - 1);
                    let count: u128 = tokens[i].trim_end().parse().unwrap_or(1);
                    retoken(i, &(count.max(1) * u128::from(factor)).to_string())
                }
                _ => format!("{}{}", &wire[..cut], &other[at.1 % (other.len() + 1)..]),
            };
            match decode(&kind, &payload) {
                None => prop_assert!(damage != 0, "an undamaged payload must decode"),
                Some(back) => {
                    prop_assert!(reserved(&back) <= payload.len(), "{payload:?}");
                    let again = encode(&back);
                    prop_assert_eq!(decode(&kind, &again).map(|b| encode(&b)), Some(again));
                }
            }
        }
    }

    #[test]
    fn corrupt_cache_entries_miss_instead_of_misparsing() {
        let kind = walk_req(1).kind;
        assert!(decode(&kind, "points zero\n").is_none());
        assert!(decode(&kind, "trace 1\n1 2 0 0\n").is_none());
        assert!(decode(&kind, "").is_none());
        // A count read from disk never sizes an allocation.
        let row_formats = one_of_each(&[0], 0);
        for ((kind, _), tag) in row_formats.iter().zip(["points", "trace"]) {
            assert!(decode(kind, &format!("{tag} {}\n", u64::MAX)).is_none(), "{tag}");
            assert!(decode(kind, &format!("{tag} {}\n0 0 0 0\n", u64::MAX)).is_none(), "{tag}");
        }
        // A field decodes only in the form `encode` writes it: the string
        // parsers before the byte cursor accepted the first three rows.
        let one = enc_f64(1.0);
        let row = |line: &str| decode(&kind, &format!("points 1\n{line}\n"));
        assert!(row(&format!("7 {one}")).is_some(), "the canonical row decodes");
        for (bad, why) in [
            (format!("+7 {one}"), "signed decimal"),
            (format!("7 {}", one.to_uppercase()), "uppercase hex"),
            (format!("7 {}", &one[1..]), "15 hex digits"),
            (format!("7 0{one}"), "17 hex digits"),
            ("7".to_string(), "missing field"),
            (format!("7 {one} {one}"), "extra field"),
            (format!("18446744073709551616 {one}"), "decimal past u64::MAX"),
        ] {
            assert!(row(&bad).is_none(), "{why}: {bad:?}");
        }
        assert!(decode(&kind, "points +1\n").is_none(), "signed count");
        let inval = RunKind::Invalidation { written_lines: 4 };
        assert!(decode(&inval, "inval 1 2\n").is_some());
        assert!(decode(&inval, "inval +1 2\n").is_none(), "signed decimal");
        assert!(decode(&inval, "inval 1 2 3\n").is_none(), "extra field");
        assert!(decode(&inval, "inval 1 2\ninval 1 2\n").is_none(), "trailing bytes");
    }

    #[test]
    fn run_all_dedupes_and_orders() {
        let dir = std::env::temp_dir().join(format!("repro-runner-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = Runner::new(RunnerConfig {
            jobs: 4,
            cache_dir: Some(dir.join("cache")),
            guard: GuardPolicy::default(),
        });
        // Two distinct walks, with the first repeated: 3 requests, 2 runs.
        let reqs = vec![walk_req(1), walk_req(2), walk_req(1)];
        let outs = runner.run_all(&reqs).expect("walks succeed");
        assert_eq!(outs.len(), 3);
        assert_eq!(runner.fresh_runs(), 2, "duplicate descriptor must not run twice");
        let (first, third) = (&outs[0], &outs[2]);
        let (RunOutput::Points(a), RunOutput::Points(b)) = (first, third) else {
            panic!("walks return points");
        };
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y), "shared descriptor, same result");

        // A second runner over the same cache dir does zero fresh runs
        // and returns identical results.
        let runner2 = Runner::new(RunnerConfig {
            jobs: 1,
            cache_dir: Some(dir.join("cache")),
            guard: GuardPolicy::default(),
        });
        let outs2 = runner2.run_all(&reqs).expect("cached walks succeed");
        assert_eq!(runner2.fresh_runs(), 0);
        // Stats count unique executions (the duplicate request shares
        // its twin's cache entry without a separate load).
        assert_eq!(runner2.cached_runs(), 2);
        let RunOutput::Points(a2) = &outs2[0] else { panic!("points") };
        let RunOutput::Points(a1) = &outs[0] else { panic!("points") };
        assert!(a1.iter().zip(a2.iter()).all(|(x, y)| x == y), "cache round trip is exact");
        assert!(runner2.summary().unwrap().render().contains("cache"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_keeps_item_order_and_isolates_a_panicking_item() {
        let items: Vec<u64> = (0..23).collect();
        for jobs in [1, 2, 7] {
            let squares = in_parallel(jobs, &items, |&i| Ok(i * i));
            let squares: Vec<u64> = squares.into_iter().map(Result::unwrap).collect();
            assert_eq!(squares, items.iter().map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");

            let results = in_parallel(jobs, &items, |&i| match i {
                5 => panic!("item {i} blew up"),
                11 => Err(ReproError::Usage("item 11 refused".to_string())),
                _ => Ok(i),
            });
            assert_eq!(results.len(), items.len());
            for (i, res) in items.iter().zip(&results) {
                match (i, res) {
                    (5, Err(ReproError::RunPanicked { what })) => {
                        assert_eq!(what, "item 5 blew up")
                    }
                    (11, Err(ReproError::Usage(_))) => {}
                    (_, Ok(v)) => assert_eq!(v, i, "jobs={jobs}"),
                    other => panic!("jobs={jobs}: unexpected {other:?}"),
                }
            }
            // Collected, the earliest failing item wins, whichever
            // worker finished first.
            let first = results.into_iter().collect::<Result<Vec<_>, _>>().unwrap_err();
            assert!(matches!(first, ReproError::RunPanicked { .. }), "jobs={jobs}: {first:?}");
        }
        assert!(in_parallel(4, &[] as &[u64], |&i| Ok(i)).is_empty());
    }

    #[test]
    fn no_cache_runner_reruns() {
        let runner =
            Runner::new(RunnerConfig { jobs: 2, cache_dir: None, guard: GuardPolicy::default() });
        let reqs = vec![walk_req(3)];
        runner.run_all(&reqs).expect("walk succeeds");
        runner.run_all(&reqs).expect("walk succeeds");
        assert_eq!(runner.fresh_runs(), 2);
        assert_eq!(runner.cached_runs(), 0);
    }

    #[test]
    fn a_panicking_descriptor_fails_the_suite_by_name() {
        // 2730 sets is no power of two: the walk unwraps
        // `Machine::try_new` on it and panics, every time.
        let bad = RunRequest::new(
            "walk-3way",
            RunKind::Walk(WalkExperiment {
                sets: 2730,
                ways: 3,
                ..WalkExperiment::direct(Monitored::Walker { s0: 0.0 }, 2_000, 500, 1)
            }),
        );
        let runner =
            Runner::new(RunnerConfig { jobs: 2, cache_dir: None, guard: GuardPolicy::default() });
        let err = runner.run_all(&[walk_req(1), bad.clone(), walk_req(2)]).unwrap_err();
        let ReproError::RunPanicked { what } = &err else { panic!("expected a panic: {err:?}") };
        assert!(what.starts_with(&bad.label), "{what}");
        assert_eq!(runner.fresh_runs(), 2, "its siblings still run");
    }

    #[test]
    fn corrupted_entry_is_quarantined_then_recomputed() {
        let dir = std::env::temp_dir().join(format!("repro-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");
        let config = RunnerConfig {
            jobs: 1,
            cache_dir: Some(cache_dir.clone()),
            guard: GuardPolicy::default(),
        };
        let reqs = vec![walk_req(9)];
        let outs = Runner::new(config.clone()).run_all(&reqs).expect("walk succeeds");

        let cache = DiskCache { dir: cache_dir.clone() };
        let key = cache_key(&reqs[0].kind);
        let path = cache.entry_path(&key);
        // Three ways to damage the entry: flip payload bytes behind the
        // checksum's back, into other text or into a byte that is not
        // UTF-8, or — under a valid checksum — claim a row count no
        // payload could back. The count must bound a loop, not size an
        // allocation: a capacity-overflow panic here would fail the suite
        // instead of recomputing one entry.
        let stored = std::fs::read(&path).expect("entry exists");
        let mut flipped = stored.clone();
        flipped.truncate(flipped.len() - 8);
        flipped.extend_from_slice(b"garbage\n");
        let mut not_utf8 = stored;
        let at = not_utf8.len() - 2;
        not_utf8[at] = 0xff;
        let payload = format!("points {}\n", u64::MAX);
        let overcounted = format!("{key}\nsha256 {}\n{payload}", digest::hex(payload.as_bytes()));
        for (entry, reason) in [
            (flipped, "checksum"),
            (not_utf8, "checksum"),
            (overcounted.into_bytes(), "undecodable"),
        ] {
            let _ = std::fs::remove_file(path.with_extension("quarantine"));
            std::fs::write(&path, entry).expect("rewrite entry");
            let err = cache.load(&key, &reqs[0].kind).expect_err("damaged entry must not load");
            let ReproError::CorruptCache { quarantined, what } = &err else {
                panic!("expected CorruptCache, got {err:?}");
            };
            assert!(what.contains(reason), "{what}");
            assert!(quarantined.exists(), "bad entry moved aside");
            assert!(!path.exists(), "bad entry no longer served");

            // A fresh runner over the damaged cache recomputes and
            // re-stores the identical result instead of erroring or
            // misparsing.
            let runner = Runner::new(config.clone());
            let outs2 = runner.run_all(&reqs).expect("recompute succeeds");
            assert_eq!(runner.fresh_runs(), 1);
            assert_eq!(encode(&outs[0]), encode(&outs2[0]));
            assert!(path.exists(), "fresh entry stored after quarantine");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_builds_entry_is_a_clean_miss_not_a_quarantine() {
        let dir = std::env::temp_dir().join(format!("repro-stamp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir cache");
        let cache = DiskCache { dir: dir.clone() };
        let kind = RunKind::Invalidation { written_lines: 4 };
        let key = cache_key(&kind);
        // What an earlier build stored: the same descriptor and wire
        // format under its own stamp, with a result this build would not
        // compute.
        let old_key = stamped_key("1.1", &kind);
        assert_ne!(old_key, key);
        let payload = encode(&RunOutput::Invalidation { observed: 1, predicted: 2 });
        let entry = format!("{old_key}\nsha256 {}\n{payload}", digest::hex(payload.as_bytes()));
        // Under its own file name, and under this build's (where only
        // an FNV collision could put it): the header decides either way.
        for path in [cache.entry_path(&old_key), cache.entry_path(&key)] {
            std::fs::write(&path, &entry).expect("plant old entry");
            assert!(matches!(cache.load(&key, &kind), Ok(None)), "old entry must miss cleanly");
            assert!(path.exists(), "a valid old entry is left alone");
            assert!(!path.with_extension("quarantine").exists(), "not treated as corrupt");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_messages_are_preserved() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("dynamic boom"));
        assert_eq!(panic_message(payload.as_ref()), "dynamic boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(payload.as_ref()), "opaque panic payload");
    }
}
