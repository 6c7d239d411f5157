//! The whole simulated SMP: processors, translation, coherence, and
//! footprint ground truth.

use crate::addr::{PAddr, VAddr};
use crate::alloc::SimAllocator;
use crate::cml::{Cml, CmlEntry};
use crate::config::{CacheLatencies, MachineConfig};
use crate::counters::{Pic, PicDelta};
use crate::error::SimError;
use crate::faults::{FaultConfig, FaultInjector};
use crate::footprint::{FootprintScratch, FootprintTracker, LineChange};
use crate::hierarchy::{AccessOutcome, CpuCache, HierAccess};
use crate::paging::PageTable;
use crate::regions::RegionTable;
use crate::stats::{CpuStats, ThreadStats};
use crate::tlb::Tlb;
use crate::trace::Trace;
use locality_core::{ThreadId, ThreadSlots};
use std::collections::{BTreeMap, HashMap};

/// `running_slot` sentinel: no thread attributed on this processor.
const IDLE_SLOT: u32 = u32::MAX;

/// How many references a caller that buffers them hands
/// [`Machine::access_batch`] at once, at most: 16 KiB of buffer, enough
/// to spread a pass's set-up and settling over a thousand references.
pub const BATCH_REFS: usize = 1024;

/// The kind of a memory access issued by a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch.
    Fetch,
}

impl From<AccessKind> for HierAccess {
    fn from(kind: AccessKind) -> Self {
        match kind {
            AccessKind::Read => HierAccess::Read,
            AccessKind::Write => HierAccess::Write,
            AccessKind::Fetch => HierAccess::Fetch,
        }
    }
}

/// Expands `$body` once per access kind with `$kind` bound to that kind,
/// so the [`Pass::element`] inlined into each copy is compiled for one
/// kind and keeps only that kind's steps: a run dispatches on its kind
/// once, a batch once per reference.
macro_rules! per_kind {
    ($value:expr, |$kind:ident| $body:expr) => {
        match $value {
            AccessKind::Read => {
                let $kind = AccessKind::Read;
                $body
            }
            AccessKind::Write => {
                let $kind = AccessKind::Write;
                $body
            }
            AccessKind::Fetch => {
                let $kind = AccessKind::Fetch;
                $body
            }
        }
    };
}

/// The simulated multiprocessor.
///
/// All methods take plain `usize` processor indices; the machine is
/// deterministic and single-threaded — "parallelism" is the caller's
/// interleaving of `access` calls across processor indices, which is how
/// the runtime engine models an SMP.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    cpus: Vec<CpuCache>,
    page_table: PageTable,
    allocator: SimAllocator,
    regions: RegionTable,
    /// Coherence directory: flat `physical L2 line → bitmask of holders`.
    /// Physical line numbers are dense (frames are allocated `bin +
    /// bins·fill`), so the access path indexes instead of hashing; the
    /// vector grows on fill, and an absent entry means "no holders".
    directory: Vec<u64>,
    /// Per-cpu slot index of the attributed thread ([`IDLE_SLOT`] while
    /// idle), resolved once in [`set_running`](Self::set_running) and read
    /// only where attribution is settled, never on the access path.
    running_slot: Vec<u32>,
    /// Dense slot registry over threads with live statistics.
    slots: ThreadSlots,
    cpu_stats: Vec<CpuStats>,
    /// Slot-indexed statistics of live threads, as of the last settle:
    /// the reference path counts per processor only, and what a processor
    /// counted while a thread was attributed is credited to it when the
    /// attribution ends ([`settle`](Self::settle)).
    thread_stats: Vec<ThreadStats>,
    /// Per-cpu reading of `cpu_stats` (as [`ThreadStats`]) taken when the
    /// processor's attribution last changed.
    settled: Vec<ThreadStats>,
    /// Cold storage for retired threads' statistics (slot recycled).
    retired_stats: HashMap<ThreadId, ThreadStats>,
    tracer: Option<Trace>,
    cml: Option<Vec<Cml>>,
    /// Installed counter-fault injector (see [`crate::faults`]).
    faults: Option<FaultInjector>,
    /// `log2` of the E-cache line size (validated power of two), cached so
    /// the access path shifts instead of dividing.
    l2_shift: u32,
    /// Per-processor TLBs (see [`crate::tlb`]).
    tlbs: Vec<Tlb>,
    /// Per-processor µ-translation cache: the page of the processor's
    /// last reference (`u64::MAX` = none since a flush) and its frame
    /// base. Every [`Pass`] resumes from it, so the TLB is probed exactly
    /// when a processor's page changes, whether a batch or a run issued
    /// the reference — the rule `RefMachine` in `tests/` states as a
    /// per-cpu "last page".
    tlb_vpn: Vec<u64>,
    tlb_frame: Vec<u64>,
    /// Incremental footprint counters (None until
    /// [`track_footprints`](Self::track_footprints)).
    tracker: Option<FootprintTracker>,
}

impl Machine {
    /// Builds the machine, returning a typed error on an invalid
    /// configuration. (The old panicking `Machine::new` constructor is
    /// gone; every caller now handles the `SimError`.)
    pub fn try_new(config: MachineConfig) -> Result<Self, SimError> {
        config.validate()?;
        if config.cpus > 64 {
            // The coherence directory packs holders into a u64 mask.
            return Err(SimError::BadCpu { cpu: config.cpus - 1, cpus: 64 });
        }
        let cpus = (0..config.cpus).map(|_| CpuCache::new(&config.hierarchy)).collect();
        let tlbs = (0..config.cpus).map(|_| Tlb::new(config.tlb)).collect();
        let page_table = PageTable::new(config.page_bytes, config.l2_page_bins(), config.placement);
        Ok(Machine {
            tlbs,
            tlb_vpn: vec![u64::MAX; config.cpus],
            tlb_frame: vec![0; config.cpus],
            l2_shift: config.hierarchy.l2.line.trailing_zeros(),
            cpu_stats: vec![CpuStats::default(); config.cpus],
            thread_stats: Vec::new(),
            settled: vec![ThreadStats::default(); config.cpus],
            retired_stats: HashMap::new(),
            slots: ThreadSlots::new(),
            running_slot: vec![IDLE_SLOT; config.cpus],
            cpus,
            page_table,
            allocator: SimAllocator::new(),
            regions: RegionTable::new(),
            // One cache's worth of lines up front; fills past that grow
            // the vector amortized.
            directory: vec![0; config.l2_lines()],
            tracer: None,
            cml: None,
            faults: None,
            tracker: None,
            config,
        })
    }

    /// Starts recording every access into an in-memory [`Trace`]
    /// (Shade-style reference forwarding; see [`crate::trace`]).
    pub fn start_tracing(&mut self) {
        self.tracer = Some(Trace::new());
    }

    /// Stops tracing and returns the recorded trace (None if tracing was
    /// never started).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.tracer.take()
    }

    /// Attaches a Cache Miss Lookaside device (see [`crate::cml`]) with
    /// `entries` slots to every processor. E-cache misses then record
    /// their virtual page numbers.
    pub fn enable_cml(&mut self, entries: usize) {
        self.cml = Some((0..self.cpu_count()).map(|_| Cml::new(entries)).collect());
    }

    /// Starts keeping per-cpu, per-thread resident-line counters current
    /// as lines are filled, evicted and invalidated and as regions come
    /// and go (see [`crate::footprint`]), seeded by one scan so it can be
    /// switched on at any point. From then on
    /// [`l2_footprint_lines`](Self::l2_footprint_lines) is a counter read
    /// instead of an E-cache scan — what an observer sampling at every
    /// context switch needs. Observes only: no counter, cycle or
    /// replacement decision depends on it. Idempotent.
    pub fn track_footprints(&mut self) {
        if self.tracker.is_some() {
            return;
        }
        let mut tracker = FootprintTracker::new(self.cpu_count());
        let mut scratch = FootprintScratch::new();
        for cpu in 0..self.cpu_count() {
            self.l2_footprints_into(cpu, &mut scratch);
            for (tid, lines) in scratch.to_sorted() {
                tracker.credit(cpu, tid, lines);
            }
        }
        self.tracker = Some(tracker);
    }

    /// Drains `cpu`'s CML (empty if no device is attached).
    pub fn cml_drain(&mut self, cpu: usize) -> Vec<CmlEntry> {
        match &mut self.cml {
            Some(devices) => {
                let drained = devices[cpu].drain();
                locality_trace::emit_with(|| locality_trace::TraceEvent::CmlDrain {
                    cpu: cpu as u32,
                    entries: drained.len() as u32,
                });
                drained
            }
            None => Vec::new(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of processors.
    pub fn cpu_count(&self) -> usize {
        self.config.cpus
    }

    /// Number of E-cache lines per processor (the model's `N`).
    pub fn l2_lines(&self) -> usize {
        self.config.l2_lines()
    }

    /// Allocates `bytes` of simulated memory aligned to `align`.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> VAddr {
        self.allocator.alloc(bytes, align)
    }

    /// Frees a block previously returned by [`alloc`](Self::alloc).
    pub fn free(&mut self, addr: VAddr, bytes: u64, align: u64) {
        self.allocator.free(addr, bytes, align);
    }

    /// Registers `[start, start+bytes)` as part of `tid`'s state (ground
    /// truth for footprints and exact sharing coefficients).
    pub fn register_region(&mut self, tid: ThreadId, start: VAddr, bytes: u64) {
        // A periodic re-registration gains nothing and changes nothing.
        if self.regions.covers(tid, start, bytes) {
            return;
        }
        self.credit_gained_lines(tid, start, bytes);
        self.regions.register(tid, start, bytes);
    }

    /// With tracking on, credits `tid` — before the registration lands —
    /// with the resident lines of `[start, start+bytes)` it is about to
    /// gain: those whose span does not yet touch one of its regions. A
    /// range of more lines than the E-caches hold together is answered
    /// from the resident lines instead of line by line, so the cost is
    /// bounded by the caches, not by the range.
    fn credit_gained_lines(&mut self, tid: ThreadId, start: VAddr, bytes: u64) {
        let Some(tracker) = &mut self.tracker else {
            return;
        };
        let line = self.config.hierarchy.l2.line;
        let (first, end) = (start.0 & !(line - 1), start.0.saturating_add(bytes));
        let gains = |lv: u64| !self.regions.range_touches(tid, VAddr(lv), line);
        if (end - first).div_ceil(line) > (self.config.cpus * self.config.l2_lines()) as u64 {
            for (cpu, cache) in self.cpus.iter().enumerate() {
                for pl in cache.l2().iter_resident() {
                    let Some(va) = self.page_table.reverse(PAddr(pl * line)) else {
                        continue;
                    };
                    if (first..end).contains(&va.0) && gains(va.0) {
                        tracker.credit(cpu, tid, 1);
                    }
                }
            }
            return;
        }
        for lv in (first..end).step_by(line as usize) {
            if !gains(lv) {
                continue;
            }
            let Some(pa) = self.page_table.translate_existing(VAddr(lv)) else {
                continue;
            };
            let pline = (pa.0 >> self.l2_shift) as usize;
            let mut holders = self.directory.get(pline).copied().unwrap_or(0);
            while holders != 0 {
                tracker.credit(holders.trailing_zeros() as usize, tid, 1);
                holders &= holders - 1;
            }
        }
    }

    /// The region table (exact sharing coefficients, state sizes, …).
    pub fn regions(&self) -> &RegionTable {
        &self.regions
    }

    /// Retires `tid` from every hot-path table: regions are dropped,
    /// the statistics slot is recycled (the accumulated numbers move to
    /// cold storage and stay visible through
    /// [`thread_stats`](Self::thread_stats)), and any processor still
    /// attributing to the slot goes idle.
    pub fn retire_thread(&mut self, tid: ThreadId) {
        self.regions.remove_thread(tid);
        if let Some(tracker) = &mut self.tracker {
            tracker.forget(tid);
        }
        if let Some(slot) = self.slots.release(tid) {
            let index = slot.index();
            for cpu in 0..self.cpu_count() {
                if self.running_slot[cpu] == index as u32 {
                    self.settle(cpu);
                    self.running_slot[cpu] = IDLE_SLOT;
                }
            }
            let stats = std::mem::take(&mut self.thread_stats[index]);
            self.retired_stats.insert(tid, stats);
        }
    }

    /// Binds `tid` to a statistics slot, zeroing a recycled slot's
    /// entry (and restoring cold stats if the thread was retired).
    fn stats_slot(&mut self, tid: ThreadId) -> usize {
        if let Some(slot) = self.slots.lookup(tid) {
            return slot.index();
        }
        let index = self.slots.bind(tid).index();
        if index >= self.thread_stats.len() {
            self.thread_stats.resize(index + 1, ThreadStats::default());
        }
        self.thread_stats[index] = self.retired_stats.remove(&tid).unwrap_or_default();
        index
    }

    /// Declares which thread is running on `cpu` (attribution for
    /// per-thread statistics; `None` while idle).
    pub fn set_running(&mut self, cpu: usize, tid: Option<ThreadId>) {
        self.settle(cpu);
        self.running_slot[cpu] = match tid {
            Some(tid) => self.stats_slot(tid) as u32,
            None => IDLE_SLOT,
        };
    }

    /// Ends an attribution interval on `cpu`: the thread it was running
    /// (if any) is credited with what the processor counted since the
    /// last settle — the simulator learns what a thread did the way the
    /// paper's runtime does, by differencing counters at the switch.
    fn settle(&mut self, cpu: usize) {
        let now = ThreadStats::from(&self.cpu_stats[cpu]);
        let slot = self.running_slot[cpu];
        if slot != IDLE_SLOT {
            self.thread_stats[slot as usize].add_since(now, self.settled[cpu]);
        }
        self.settled[cpu] = now;
    }

    /// Performs one memory access on `cpu` and returns its cost in cycles:
    /// a one-element [`access_batch`](Self::access_batch).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn access(&mut self, cpu: usize, va: VAddr, kind: AccessKind) -> u64 {
        self.access_batch(cpu, &[(va, kind)])
    }

    /// Performs `refs` on `cpu`, in order, and returns their total cost
    /// in cycles — how a thread's single references reach the machine.
    ///
    /// Observationally **byte-identical** to issuing each reference
    /// through its own call: every element goes through the body each
    /// element of [`access_run`](Self::access_run) goes through, so LRU
    /// state, evictions, coherence, the CML and the trace evolve as they
    /// would one call at a time, while translation, the PIC, the
    /// statistics and the footprint log are settled once per batch.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn access_batch(&mut self, cpu: usize, refs: &[(VAddr, AccessKind)]) -> u64 {
        if let Some(tracer) = &mut self.tracer {
            for &(va, kind) in refs {
                tracer.record(cpu, kind, va);
            }
        }
        let mut pass = Pass::begin(self, cpu);
        for &(va, kind) in refs {
            per_kind!(kind, |kind| pass.step(kind, va.0));
        }
        pass.finish()
    }

    /// Performs a reference **run** — `count` accesses at `base`,
    /// `base + stride`, `base + 2·stride`, … — on `cpu` and returns the
    /// total cost in cycles.
    ///
    /// Observationally **byte-identical** to the equivalent per-address
    /// loop of [`access`](Self::access): the same pass as
    /// [`access_batch`](Self::access_batch), over addresses it generates
    /// instead of reads, with the kind dispatched once per run. A
    /// whole-line run (`stride` = L2 line size) therefore costs exactly
    /// one tag probe per line plus O(1) overhead.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn access_run(
        &mut self,
        cpu: usize,
        base: VAddr,
        stride: u64,
        count: u64,
        kind: AccessKind,
    ) -> u64 {
        if let Some(tracer) = &mut self.tracer {
            for i in 0..count {
                tracer.record(cpu, kind, base.offset(i * stride));
            }
        }
        let mut pass = Pass::begin(self, cpu);
        per_kind!(kind, |kind| {
            for i in 0..count {
                pass.step(kind, base.0 + i * stride);
            }
        });
        pass.finish()
    }

    /// Records `n` non-memory instructions (compute) on `cpu`, attributed
    /// to the running thread.
    pub fn note_instructions(&mut self, cpu: usize, n: u64) {
        self.cpu_stats[cpu].instructions += n;
    }

    /// The performance counters of `cpu` (read-only).
    pub fn pic(&self, cpu: usize) -> &Pic {
        self.cpus[cpu].pic()
    }

    /// The TLB of `cpu` (read-only; reach/retire inspection for tests).
    pub fn tlb(&self, cpu: usize) -> &Tlb {
        &self.tlbs[cpu]
    }

    /// Installs a counter-fault injector; every subsequent
    /// [`pic_take_interval`](Self::pic_take_interval) goes through it.
    /// Replaces any previously installed injector.
    pub fn install_fault(&mut self, config: FaultConfig) {
        self.faults = Some(FaultInjector::new(config));
    }

    /// Reads-and-resets the counter interval on `cpu` — the context-switch
    /// read.
    ///
    /// # Errors
    ///
    /// [`SimError::BadCpu`] for an out-of-range processor index, and
    /// [`SimError::CounterTrap`] when the read traps, which only a live
    /// [`FaultKind::TrapOnRead`](crate::faults::FaultKind::TrapOnRead)
    /// fault makes it do. On a trap the
    /// interval is **not** reset: counts keep accumulating and are
    /// reported whole by the next successful read, like a runtime that
    /// skips a failed sample and catches up at the next switch.
    #[inline]
    pub fn pic_take_interval(&mut self, cpu: usize) -> Result<PicDelta, SimError> {
        if cpu >= self.cpu_count() {
            return Err(SimError::BadCpu { cpu, cpus: self.cpu_count() });
        }
        self.pic_read(cpu).ok_or(SimError::CounterTrap { cpu })
    }

    /// Starts a fresh counter interval on `cpu`, discarding what the
    /// PICs hold: [`pic_take_interval`](Self::pic_take_interval) without
    /// a result, for the dispatch path, which reads nothing. It draws
    /// from the fault injector and traces the read the same way, so a
    /// trapped restart leaves the interval accumulating.
    ///
    /// # Panics
    ///
    /// If `cpu` is out of range.
    #[inline]
    pub fn pic_restart_interval(&mut self, cpu: usize) {
        self.pic_read(cpu);
    }

    /// The read both of the above make: reads and resets `cpu`'s
    /// interval through any installed injector, traces it, and returns
    /// `None` when the read traps. Inlined into both: returned out of
    /// line, the 32-byte result stalls its caller on store forwarding.
    #[inline(always)]
    fn pic_read(&mut self, cpu: usize) -> Option<PicDelta> {
        let pic = self.cpus[cpu].pic_mut();
        let delta = match &mut self.faults {
            Some(inj) => {
                if !inj.begin_read() {
                    Some(pic.take_interval())
                } else if inj.traps() {
                    None
                } else {
                    Some(inj.perturb(pic.take_interval()))
                }
            }
            None => Some(pic.take_interval()),
        };
        let PicDelta { refs, hits, misses } = delta.unwrap_or_default();
        locality_trace::emit_with(|| locality_trace::TraceEvent::PicRead {
            cpu: cpu as u32,
            refs,
            hits,
            misses,
            trapped: delta.is_none(),
        });
        delta
    }

    /// Cumulative statistics of `cpu`.
    pub fn cpu_stats(&self, cpu: usize) -> CpuStats {
        self.cpu_stats[cpu]
    }

    /// Cumulative statistics of `tid` (zero if it never ran), including
    /// what is in flight on every processor running it now. Retired
    /// threads (see [`retire_thread`](Self::retire_thread)) keep
    /// reporting their final numbers from cold storage.
    pub fn thread_stats(&self, tid: ThreadId) -> ThreadStats {
        let Some(slot) = self.slots.lookup(tid) else {
            return self.retired_stats.get(&tid).copied().unwrap_or_default();
        };
        let mut stats = self.thread_stats[slot.index()];
        for (cpu, &running) in self.running_slot.iter().enumerate() {
            if running == slot.index() as u32 {
                stats.add_since(ThreadStats::from(&self.cpu_stats[cpu]), self.settled[cpu]);
            }
        }
        stats
    }

    /// Total E-cache misses over all processors.
    pub fn total_l2_misses(&self) -> u64 {
        self.cpu_stats.iter().map(|s| s.l2_misses).sum()
    }

    /// Total instructions over all processors.
    pub fn total_instructions(&self) -> u64 {
        self.cpu_stats.iter().map(|s| s.instructions).sum()
    }

    /// **Ground truth**: number of resident L2 lines on `cpu` that belong
    /// to `tid`'s registered state — the thread's observed footprint
    /// (paper §3's per-thread line association). A counter read once
    /// [`track_footprints`](Self::track_footprints) is on; otherwise a
    /// scan of the E-cache filtered to `tid`.
    pub fn l2_footprint_lines(&self, cpu: usize, tid: ThreadId) -> u64 {
        if let Some(tracker) = &self.tracker {
            return tracker.lines(cpu, tid);
        }
        let line = self.config.hierarchy.l2.line;
        self.cpus[cpu]
            .l2()
            .iter_resident()
            .filter(|&pl| match self.page_table.reverse(PAddr(pl * line)) {
                Some(va) => self.regions.range_touches(tid, va, line),
                None => false,
            })
            .count() as u64
    }

    /// Ground-truth footprints of *all* threads with state in `cpu`'s
    /// E-cache (a resident line shared by several threads counts for each).
    pub fn l2_footprints(&self, cpu: usize) -> BTreeMap<ThreadId, u64> {
        let mut scratch = FootprintScratch::new();
        self.l2_footprints_into(cpu, &mut scratch);
        scratch.to_sorted().into_iter().collect()
    }

    /// [`l2_footprints`](Self::l2_footprints) into a reusable
    /// [`FootprintScratch`]: the same full E-cache scan, but slot-indexed
    /// and allocation-free once the scratch has warmed up. Always the
    /// scan, whether or not footprints are tracked: it is the oracle the
    /// tracked counters are checked against, and too slow (a reverse
    /// translation and a region probe per resident line) to call at
    /// every context switch.
    pub fn l2_footprints_into(&self, cpu: usize, out: &mut FootprintScratch) {
        let line = self.config.hierarchy.l2.line;
        out.begin();
        let mut owners = out.take_owner_buf();
        for pl in self.cpus[cpu].l2().iter_resident() {
            if let Some(va) = self.page_table.reverse(PAddr(pl * line)) {
                self.regions.owners_in_range_into(va, line, &mut owners);
                out.tally(&owners);
            }
        }
        out.restore_owner_buf(owners);
    }

    /// Resident L2 lines on `cpu` (all threads plus unattributed lines).
    pub fn l2_resident_lines(&self, cpu: usize) -> u64 {
        self.cpus[cpu].l2().resident_lines()
    }

    /// Flushes all caches of `cpu` (experiment setup; directory updated),
    /// the TLB, and the µ-translation cache.
    pub fn flush_cpu(&mut self, cpu: usize) {
        let resident: Vec<u64> = self.cpus[cpu].l2().iter_resident().collect();
        for pl in resident {
            self.directory[pl as usize] &= !(1u64 << cpu);
        }
        if let Some(tracker) = &mut self.tracker {
            tracker.clear_cpu(cpu);
        }
        self.cpus[cpu].flush();
        self.tlbs[cpu].flush();
        self.tlb_vpn[cpu] = u64::MAX;
    }

    /// Page faults taken so far.
    pub fn page_faults(&self) -> u64 {
        self.page_table.faults()
    }
}

/// One pass of [`Machine::access_batch`] or [`Machine::access_run`] over
/// one processor's references: the split borrows its elements touch, the
/// processor's µ-translation cursor, and the counts it adds to the PIC
/// and the statistics once, in [`finish`](Self::finish).
struct Pass<'m> {
    cpus: &'m mut [CpuCache],
    cpu_stats: &'m mut [CpuStats],
    directory: &'m mut Vec<u64>,
    cml: &'m mut Option<Vec<Cml>>,
    tracker: &'m mut Option<FootprintTracker>,
    regions: &'m RegionTable,
    page_table: &'m mut PageTable,
    tlb: &'m mut Tlb,
    tlb_vpn: &'m mut u64,
    tlb_frame: &'m mut u64,
    lat: CacheLatencies,
    cpu: usize,
    /// `log2` of the E-cache line and page sizes.
    l2_shift: u32,
    page_shift: u32,
    page_mask: u64,
    walk_cost: u64,
    /// The µ-translation cursor: the page of the last element and its
    /// frame base, written back by `finish`.
    vpn: u64,
    frame_base: u64,
    cycles: u64,
    /// `(refs, misses)` of the L1-I and the L1-D.
    l1i: (u64, u64),
    l1d: (u64, u64),
    l2_refs: u64,
    l2_hits: u64,
    l2_misses_remote: u64,
    tlb_hits: u64,
    tlb_misses: u64,
}

impl<'m> Pass<'m> {
    #[inline(always)]
    fn begin(m: &'m mut Machine, cpu: usize) -> Self {
        let tlb = &mut m.tlbs[cpu];
        Pass {
            lat: m.config.latencies,
            cpu,
            l2_shift: m.l2_shift,
            page_shift: m.page_table.page_shift(),
            page_mask: m.page_table.page_mask(),
            walk_cost: tlb.walk_cycles(),
            vpn: m.tlb_vpn[cpu],
            frame_base: m.tlb_frame[cpu],
            cpus: &mut m.cpus,
            cpu_stats: &mut m.cpu_stats,
            directory: &mut m.directory,
            cml: &mut m.cml,
            tracker: &mut m.tracker,
            regions: &m.regions,
            page_table: &mut m.page_table,
            tlb,
            tlb_vpn: &mut m.tlb_vpn[cpu],
            tlb_frame: &mut m.tlb_frame[cpu],
            cycles: 0,
            l1i: (0, 0),
            l1d: (0, 0),
            l2_refs: 0,
            l2_hits: 0,
            l2_misses_remote: 0,
            tlb_hits: 0,
            tlb_misses: 0,
        }
    }

    /// One reference: translated only when its page differs from the
    /// last one's, so the TLB is probed exactly on a page change, then
    /// run through [`element`](Self::element) and counted.
    #[inline(always)]
    fn step(&mut self, kind: AccessKind, va: u64) {
        let vpn = va >> self.page_shift;
        if vpn != self.vpn {
            if self.tlb.probe(vpn) {
                self.tlb_hits += 1;
            } else {
                self.tlb_misses += 1;
                self.cycles += self.walk_cost;
                self.tlb.insert(vpn);
            }
            self.frame_base = self.page_table.frame_of(vpn) << self.page_shift;
            self.vpn = vpn;
        }
        let pa = self.frame_base | (va & self.page_mask);
        let (outcome, remote) = self.element(kind, vpn, pa);
        self.cycles += latency(&self.lat, &outcome, remote);
        let l1 = if kind == AccessKind::Fetch { &mut self.l1i } else { &mut self.l1d };
        l1.0 += 1;
        l1.1 += u64::from(!outcome.l1_hit);
        if outcome.l2_ref {
            self.l2_refs += 1;
            self.l2_hits += u64::from(outcome.l2_hit);
            self.l2_misses_remote += u64::from(remote);
        }
    }

    /// One element: the tag probe, the holder directory,
    /// write-invalidation of the other copies, the footprint log and the
    /// CML. Returns the outcome and whether an E-cache miss was remote.
    ///
    /// The directory is read on a miss *after* the probe, which is
    /// equivalent to reading it before: the access cannot change this
    /// line's holders until the fill below — its eviction touches the
    /// *displaced* line. A store reads it again after the fill to purge
    /// the others.
    #[inline(always)]
    fn element(&mut self, kind: AccessKind, vpn: u64, pa: u64) -> (AccessOutcome, bool) {
        let (cpu, me) = (self.cpu as u32, 1u64 << self.cpu);
        let directory = &mut *self.directory;
        let mut log = |change: LineChange| {
            if let Some(tracker) = self.tracker {
                tracker.log_mut().push(change);
            }
        };
        let outcome = self.cpus[self.cpu].access_quiet(pa, kind.into());
        let pline2 = pa >> self.l2_shift;
        let miss = outcome.l2_ref && !outcome.l2_hit;
        let remote = miss && (directory.get(pline2 as usize).copied().unwrap_or(0) & !me) != 0;
        if let Some(ev) = outcome.change.evicted {
            if let Some(mask) = directory.get_mut(ev.pline as usize) {
                *mask &= !me;
            }
            log(LineChange { cpu, pline: ev.pline, gained: false });
        }
        if let Some(fill) = outcome.change.filled {
            let index = fill as usize;
            if index >= directory.len() {
                directory.resize(index + 1, 0);
            }
            directory[index] |= me;
            log(LineChange { cpu, pline: fill, gained: true });
        }
        if kind == AccessKind::Write {
            let mut holders = directory.get(pline2 as usize).copied().unwrap_or(0) & !me;
            while holders != 0 {
                let other = holders.trailing_zeros() as usize;
                holders &= holders - 1;
                self.cpus[other].invalidate_line(pline2);
                self.cpu_stats[other].invalidations += 1;
                directory[pline2 as usize] &= !(1u64 << other);
                log(LineChange { cpu: other as u32, pline: pline2, gained: false });
            }
        }
        if let Some(devices) = self.cml.as_mut().filter(|_| miss) {
            devices[self.cpu].record(vpn);
        }
        (outcome, remote)
    }

    /// Settles the pass: the footprint tracker takes the residency
    /// changes the elements logged, the next reference on this processor
    /// resumes from the last page, and the PIC and statistics take the
    /// pass's counts. Returns its cycles.
    #[inline(always)]
    fn finish(self) -> u64 {
        if let Some(tracker) = self.tracker {
            tracker.apply_logged(self.regions, self.page_table, 1 << self.l2_shift);
        }
        *self.tlb_vpn = self.vpn;
        *self.tlb_frame = self.frame_base;
        self.cpus[self.cpu].pic_mut().record_l2_bulk(self.l2_refs, self.l2_hits);
        let cs = &mut self.cpu_stats[self.cpu];
        cs.instructions += self.l1i.0 + self.l1d.0;
        cs.mem_cycles += self.cycles;
        cs.tlb_hits += self.tlb_hits;
        cs.tlb_misses += self.tlb_misses;
        cs.tlb_walk_cycles += self.tlb_misses * self.walk_cost;
        cs.l1i_refs += self.l1i.0;
        cs.l1i_misses += self.l1i.1;
        cs.l1d_refs += self.l1d.0;
        cs.l1d_misses += self.l1d.1;
        cs.l2_refs += self.l2_refs;
        cs.l2_hits += self.l2_hits;
        cs.l2_misses += self.l2_refs - self.l2_hits;
        cs.l2_misses_remote += self.l2_misses_remote;
        self.cycles
    }
}

/// The cycles one element costs, before any page-table walk.
#[inline(always)]
fn latency(lat: &CacheLatencies, outcome: &AccessOutcome, remote: bool) -> u64 {
    if outcome.l1_hit {
        lat.l1_hit
    } else if outcome.l2_hit {
        lat.l2_hit
    } else if remote {
        lat.l2_miss_remote
    } else {
        lat.l2_miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheGeometry;
    use crate::config::MachineConfig;
    use crate::paging::PagePlacement;
    use crate::tlb::TlbConfig;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn sequential_walk_costs_and_counts() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.set_running(0, Some(t(1)));
        let buf = m.alloc(64 * 64, 64);
        let mut cycles = 0;
        for i in 0..64u64 {
            cycles += m.access(0, buf.offset(i * 64), AccessKind::Read);
        }
        // Every access touched a fresh 64-byte L2 line: all L2 misses.
        assert_eq!(m.pic(0).misses(), 64);
        assert_eq!(cycles, 64 * 42);
        assert_eq!(m.cpu_stats(0).l2_misses, 64);
        assert_eq!(m.thread_stats(t(1)).l2_misses, 64);
        // Re-walk: now L1-line-granular; every other access hits L1,
        // the rest hit L2 (64B L2 line = 2×32B L1 lines).
        let before = m.pic(0).misses();
        for i in 0..64u64 {
            m.access(0, buf.offset(i * 64), AccessKind::Read);
        }
        assert_eq!(m.pic(0).misses(), before, "no new misses on re-walk");
    }

    #[test]
    fn footprint_ground_truth() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.set_running(0, Some(t(1)));
        let a = m.alloc(4096, 64);
        let b = m.alloc(4096, 64);
        m.register_region(t(1), a, 4096);
        m.register_region(t(2), b, 4096);
        for i in (0..4096u64).step_by(64) {
            m.access(0, a.offset(i), AccessKind::Read);
        }
        assert_eq!(m.l2_footprint_lines(0, t(1)), 64);
        assert_eq!(m.l2_footprint_lines(0, t(2)), 0);
        let all = m.l2_footprints(0);
        assert_eq!(all.get(&t(1)), Some(&64));
        assert!(!all.contains_key(&t(2)));
    }

    #[test]
    fn shared_lines_count_for_both_threads() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.set_running(0, Some(t(1)));
        let a = m.alloc(1024, 64);
        m.register_region(t(1), a, 1024);
        m.register_region(t(2), a, 1024);
        for i in (0..1024u64).step_by(64) {
            m.access(0, a.offset(i), AccessKind::Read);
        }
        assert_eq!(m.l2_footprint_lines(0, t(1)), 16);
        assert_eq!(m.l2_footprint_lines(0, t(2)), 16);
    }

    #[test]
    fn remote_miss_costs_more_on_e5000() {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let a = m.alloc(64, 64);
        let c0 = m.access(0, a, AccessKind::Read);
        assert_eq!(c0, 50, "clean miss");
        let c1 = m.access(1, a, AccessKind::Read);
        assert_eq!(c1, 80, "line cached by cpu0 costs the remote penalty");
        assert_eq!(m.cpu_stats(1).l2_misses_remote, 1);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let a = m.alloc(64, 64);
        m.access(0, a, AccessKind::Read);
        m.access(1, a, AccessKind::Read);
        // cpu1 writes: cpu0's copy must be invalidated.
        m.access(1, a, AccessKind::Write);
        assert_eq!(m.cpu_stats(0).invalidations, 1);
        // cpu0 re-reads: it's a miss again, and remote (cpu1 holds it).
        let c = m.access(0, a, AccessKind::Read);
        assert_eq!(c, 80);
    }

    #[test]
    fn invalidation_shrinks_footprint() {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let a = m.alloc(64 * 8, 64);
        m.register_region(t(1), a, 64 * 8);
        for i in 0..8u64 {
            m.access(0, a.offset(i * 64), AccessKind::Read);
        }
        assert_eq!(m.l2_footprint_lines(0, t(1)), 8);
        for i in 0..8u64 {
            m.access(1, a.offset(i * 64), AccessKind::Write);
        }
        assert_eq!(m.l2_footprint_lines(0, t(1)), 0, "all copies invalidated");
        assert_eq!(m.l2_footprint_lines(1, t(1)), 8);
    }

    #[test]
    fn flush_cpu_clears_footprints_and_directory() {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let a = m.alloc(4096, 64);
        m.register_region(t(1), a, 4096);
        for i in (0..4096u64).step_by(64) {
            m.access(0, a.offset(i), AccessKind::Read);
        }
        m.flush_cpu(0);
        assert_eq!(m.l2_footprint_lines(0, t(1)), 0);
        // After the flush the line is not "cached by another processor".
        let c = m.access(1, a, AccessKind::Read);
        assert_eq!(c, 50);
    }

    #[test]
    fn note_instructions_feeds_mpi() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.set_running(0, Some(t(1)));
        let a = m.alloc(64, 64);
        m.access(0, a, AccessKind::Read);
        m.note_instructions(0, 999);
        assert_eq!(m.cpu_stats(0).instructions, 1000);
        assert!((m.cpu_stats(0).mpi() - 1.0).abs() < 1e-12);
        assert_eq!(m.thread_stats(t(1)).instructions, 1000);
    }

    #[test]
    fn capacity_eviction_updates_directory() {
        // Under page coloring `a` and `a + 512 KiB` share a set of the
        // direct-mapped 512 KiB E-cache, so cpu 0 reading `b` evicts `a`:
        // the directory and the tracked footprint must both let it go.
        let config = MachineConfig::enterprise5000(2).with_placement(PagePlacement::PageColoring);
        let mut m = Machine::try_new(config).unwrap();
        m.track_footprints();
        let a = m.alloc(1 << 20, 1 << 19);
        let b = a.offset(512 * 1024);
        m.register_region(t(1), a, 64);
        m.access(0, a, AccessKind::Read);
        assert_eq!(m.l2_footprint_lines(0, t(1)), 1);
        m.access(0, b, AccessKind::Read);
        let set = |va| (m.page_table.translate_existing(va).unwrap().0 >> m.l2_shift) % 8192;
        assert_eq!(set(a), set(b), "one direct-mapped set");
        assert_eq!(m.l2_footprint_lines(0, t(1)), 0, "the eviction left the footprint");
        assert_eq!(m.access(1, a, AccessKind::Read), 50, "a local miss: cpu 0 holds no copy");
        assert_eq!(m.cpu_stats(1).l2_misses_remote, 0);
    }

    #[test]
    fn tracing_records_and_replays_identically() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.start_tracing();
        let a = m.alloc(4096, 64);
        for i in (0..4096u64).step_by(64) {
            m.access(0, a.offset(i), AccessKind::Read);
        }
        m.access(0, a, AccessKind::Write);
        let trace = m.take_trace().expect("tracing was on");
        assert_eq!(trace.len(), 65);
        // Replaying on a fresh identical machine reproduces the stats.
        let mut fresh = Machine::try_new(MachineConfig::ultra1()).unwrap();
        // The fresh machine must see the same virtual addresses; alloc
        // the same block first so translation state matches.
        let b = fresh.alloc(4096, 64);
        assert_eq!(a, b, "deterministic allocator");
        trace.replay(&mut fresh);
        assert_eq!(fresh.cpu_stats(0).l2_misses, m.cpu_stats(0).l2_misses);
        assert_eq!(fresh.cpu_stats(0).l2_refs, m.cpu_stats(0).l2_refs);
    }

    #[test]
    fn cml_observes_miss_pages() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.enable_cml(128);
        let a = m.alloc(3 * 8192, 8192); // three pages
        for page in 0..3u64 {
            m.access(0, a.offset(page * 8192), AccessKind::Read);
        }
        // A hit records nothing.
        m.access(0, a, AccessKind::Read);
        let drained = m.cml_drain(0);
        assert_eq!(drained.len(), 3);
        assert!(drained.iter().all(|e| e.count == 1));
        assert!(m.cml_drain(0).is_empty());
        // Without a device, drain is empty.
        let mut plain = Machine::try_new(MachineConfig::ultra1()).unwrap();
        assert!(plain.cml_drain(0).is_empty());
    }

    #[test]
    fn try_new_rejects_bad_configs() {
        let mut cfg = MachineConfig::ultra1();
        cfg.cpus = 0;
        assert_eq!(Machine::try_new(cfg).unwrap_err(), SimError::NoCpus);
        let mut big = MachineConfig::enterprise5000(2);
        big.cpus = 65;
        assert!(matches!(Machine::try_new(big), Err(SimError::BadCpu { .. })));
        // Capacities that wrap `sets × ways` or would abort in the
        // allocator are a typed error before anything is built.
        let mut wide_tlb = MachineConfig::ultra1();
        wide_tlb.tlb = TlbConfig { sets: 1 << 62, ways: 4, walk_cycles: 0 };
        assert!(matches!(Machine::try_new(wide_tlb), Err(SimError::BadGeometry { .. })));
        for (sets, ways) in [(1u64 << 40, 4u64), (1 << 62, 4)] {
            let l2 = CacheGeometry { sets, ways, line: 64 };
            let cfg = MachineConfig::ultra1().with_l2_geometry(l2);
            assert!(matches!(Machine::try_new(cfg), Err(SimError::BadGeometry { .. })), "{l2:?}");
        }
        assert!(Machine::try_new(MachineConfig::ultra1()).is_ok());
    }

    #[test]
    fn take_interval_checks_cpu() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        assert!(matches!(m.pic_take_interval(5), Err(SimError::BadCpu { cpu: 5, cpus: 1 })));
        let a = m.alloc(64, 64);
        m.access(0, a, AccessKind::Read);
        assert_eq!(m.pic_take_interval(0).unwrap().refs, 1);
    }

    #[test]
    fn installed_fault_perturbs_reads() {
        use crate::faults::{FaultConfig, FaultKind};
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        // Wrapped for the first read only.
        m.install_fault(FaultConfig::windowed(FaultKind::Wraparound, 11, 0, 1));
        let a = m.alloc(4096, 64);
        for i in (0..4096u64).step_by(64) {
            m.access(0, a.offset(i), AccessKind::Read);
        }
        let d = m.pic_take_interval(0).unwrap();
        assert!(d.misses >= 1 << 31, "wraparound must corrupt: {d:?}");
        m.access(0, a, AccessKind::Read);
        let clean = m.pic_take_interval(0).unwrap();
        assert!(clean.misses < 64, "clean once the window closes: {clean:?}");
    }

    #[test]
    fn trap_fault_leaves_interval_accumulating() {
        use crate::faults::{FaultConfig, FaultKind};
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        // Trap for the first two reads, then recover.
        m.install_fault(FaultConfig::windowed(FaultKind::TrapOnRead, 1, 0, 2));
        let a = m.alloc(64 * 8, 64);
        for i in 0..8u64 {
            m.access(0, a.offset(i * 64), AccessKind::Read);
        }
        assert_eq!(m.pic_take_interval(0).unwrap_err(), SimError::CounterTrap { cpu: 0 });
        assert_eq!(m.pic_take_interval(0).unwrap_err(), SimError::CounterTrap { cpu: 0 });
        // Third read succeeds and reports the *whole* accumulated span.
        assert_eq!(m.pic_take_interval(0).unwrap().refs, 8, "no counts lost across traps");
    }

    #[test]
    fn retired_stats_survive_slot_recycling() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.set_running(0, Some(t(1)));
        let a = m.alloc(64 * 8, 64);
        for i in 0..8u64 {
            m.access(0, a.offset(i * 64), AccessKind::Read);
        }
        m.set_running(0, None);
        m.retire_thread(t(1));
        assert_eq!(m.thread_stats(t(1)).l2_misses, 8, "cold storage keeps the numbers");
        // A younger thread recycling the slot must start from zero.
        m.set_running(0, Some(t(2)));
        assert_eq!(m.thread_stats(t(2)), ThreadStats::default());
        m.access(0, a, AccessKind::Read);
        assert_eq!(m.thread_stats(t(2)).accesses, 1);
        assert_eq!(m.thread_stats(t(1)).l2_misses, 8, "retired numbers unchanged");
    }

    #[test]
    fn retire_while_running_goes_idle() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.set_running(0, Some(t(1)));
        let a = m.alloc(64, 64);
        m.access(0, a, AccessKind::Read);
        m.retire_thread(t(1));
        // The access after retirement is attributed to nobody.
        m.access(0, a.offset(0), AccessKind::Read);
        assert_eq!(m.thread_stats(t(1)).accesses, 1);
    }

    #[test]
    fn footprint_scratch_agrees_with_map_variant() {
        use crate::footprint::FootprintScratch;
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.set_running(0, Some(t(1)));
        let a = m.alloc(4096, 64);
        m.register_region(t(1), a, 4096);
        m.register_region(t(2), a.offset(2048), 2048);
        for i in (0..4096u64).step_by(64) {
            m.access(0, a.offset(i), AccessKind::Read);
        }
        let map = m.l2_footprints(0);
        let mut scratch = FootprintScratch::new();
        m.l2_footprints_into(0, &mut scratch);
        assert_eq!(scratch.to_sorted(), map.into_iter().collect::<Vec<_>>());
        assert_eq!(scratch.lines(t(1)), m.l2_footprint_lines(0, t(1)));
        assert_eq!(scratch.lines(t(2)), m.l2_footprint_lines(0, t(2)));
        // Reusing the scratch after evictions reports the new truth.
        m.flush_cpu(0);
        m.l2_footprints_into(0, &mut scratch);
        assert!(scratch.to_sorted().is_empty());
        assert_eq!(scratch.lines(t(1)), 0);
    }

    #[test]
    fn tracked_footprints_follow_residency_and_ownership() {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let a = m.alloc(64 * 8, 64);
        m.register_region(t(1), a, 64 * 8);
        for i in 0..8u64 {
            m.access(0, a.offset(i * 64), AccessKind::Read);
        }
        // Switched on mid-history: seeded from what is already resident.
        m.track_footprints();
        assert_eq!(m.l2_footprint_lines(0, t(1)), 8);
        // A thread that never ran gains the resident lines it registers,
        // once: the unaligned range touches lines 2..=4, and registering
        // it again (or a sub-range) credits nothing more.
        m.register_region(t(2), a.offset(2 * 64 + 8), 2 * 64);
        m.register_region(t(2), a.offset(2 * 64 + 8), 2 * 64);
        m.register_region(t(2), a.offset(3 * 64), 64);
        assert_eq!(m.l2_footprint_lines(0, t(2)), 3);
        // A remote write moves both owners' lines to the other cache.
        m.access_run(1, a.offset(4 * 64), 64, 4, AccessKind::Write);
        assert_eq!((m.l2_footprint_lines(0, t(1)), m.l2_footprint_lines(1, t(1))), (4, 4));
        assert_eq!((m.l2_footprint_lines(0, t(2)), m.l2_footprint_lines(1, t(2))), (2, 1));
        assert_eq!(m.l2_footprints(0).get(&t(2)), Some(&2), "the scan agrees");
        // Retirement zeroes the thread; a flush zeroes the processor.
        m.retire_thread(t(2));
        assert_eq!(m.l2_footprint_lines(0, t(2)), 0);
        m.flush_cpu(0);
        assert_eq!((m.l2_footprint_lines(0, t(1)), m.l2_footprint_lines(1, t(1))), (0, 4));
    }

    /// A tracked registration far larger than the caches visits the
    /// resident lines, not the range: a 2⁴⁰-byte region over a warm
    /// machine, part of it already the thread's, returns at once and
    /// credits exactly what the scan sees.
    #[test]
    fn huge_tracked_registration_is_bounded_by_the_caches() {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let a = m.alloc(64 * 64, 64);
        m.register_region(t(1), a, 64 * 64);
        for i in 0..64u64 {
            m.access(i as usize % 2, a.offset(i * 64), AccessKind::Read);
        }
        m.track_footprints();
        m.register_region(t(2), a.offset(8 * 64 + 8), 64);
        let started = std::time::Instant::now();
        m.register_region(t(2), a.offset(4 * 64), 1 << 40);
        assert!(started.elapsed().as_secs_f64() < 0.5, "took {:?}", started.elapsed());
        for cpu in 0..2 {
            let scanned = m.l2_footprints(cpu);
            for tid in [t(1), t(2)] {
                let lines = scanned.get(&tid).copied().unwrap_or(0);
                assert_eq!(m.l2_footprint_lines(cpu, tid), lines, "{tid} on cpu{cpu}");
            }
        }
        assert_eq!(m.l2_footprint_lines(0, t(2)) + m.l2_footprint_lines(1, t(2)), 60);
    }

    /// Nothing a run does without an observer asks an address question,
    /// so the region table's address view is never built; the first scan
    /// builds it.
    #[test]
    fn an_untracked_machine_never_builds_the_address_view() {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let a = m.alloc(64 * 16, 64);
        for tid in 1..=3 {
            m.register_region(t(tid), a.offset(tid * 128), 64 * 8);
            m.set_running(tid as usize % 2, Some(t(tid)));
            m.access_run(tid as usize % 2, a.offset(tid * 128), 64, 8, AccessKind::Write);
        }
        m.access_batch(0, &[(a, AccessKind::Read), (a.offset(64), AccessKind::Write)]);
        assert!(m.l2_footprint_lines(0, t(2)) > 0);
        assert!(m.regions().coefficient(t(1), t(2)) > 0.0);
        m.retire_thread(t(1));
        assert!(!m.regions().is_indexed());
        assert_eq!(m.l2_footprints(1).get(&t(3)), Some(&m.l2_footprint_lines(1, t(3))));
        assert!(m.regions().is_indexed());
    }

    /// A region whose end would wrap registers up to the last address,
    /// and every later question about the same range has an answer.
    #[test]
    fn region_past_the_end_of_the_address_space_is_clamped() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        m.track_footprints();
        let start = VAddr(u64::MAX - 150);
        m.register_region(t(1), start, 400);
        m.register_region(t(1), start, 400);
        assert_eq!(m.regions().state_bytes(t(1)), 150);
        assert!(m.regions().covers(t(1), start, 400));
        assert!(m.regions().range_touches(t(1), VAddr(u64::MAX - 10), 64));
        let mut owners = Vec::new();
        m.regions().owners_in_range_into(start, 400, &mut owners);
        assert_eq!(owners, [t(1)]);
        m.retire_thread(t(1));
        assert_eq!(m.regions().segment_count(), 0);
    }

    /// Probes that end on the last address, or would end past it: each
    /// `(covers, range_touches)` of `bytes` from `top - back`.
    #[test]
    fn probes_ending_at_the_last_address() {
        let (mut r, top) = (RegionTable::new(), u64::MAX);
        let probe = |r: &RegionTable, back: u64, bytes: u64| {
            (
                r.covers(t(1), VAddr(top - back), bytes),
                r.range_touches(t(1), VAddr(top - back), bytes),
            )
        };
        r.register(t(1), VAddr(top - 150), 100); // [top-150, top-50)
        assert_eq!(probe(&r, 150, 100), (true, true));
        assert_eq!(probe(&r, 100, 100), (false, true), "[top-100, top) leaves the range");
        assert_eq!(probe(&r, 100, top), (false, true), "and so does its clamped form");
        assert_eq!(probe(&r, 51, top), (false, true), "the range's last byte");
        assert_eq!(probe(&r, 50, 50), (false, false), "starts where the range ends");
        assert_eq!(probe(&r, 0, 5), (true, false), "clamped to nothing");
        r.register(t(1), VAddr(top - 50), 400); // abuts, clamped: one range [top-150, top)
        assert_eq!(r.ranges_of(t(1)), [(top - 150, top)]);
        assert_eq!(probe(&r, 150, 151), (true, true), "the byte over is clamped away");
        assert_eq!(probe(&r, 151, 151), (false, true));
        assert_eq!(probe(&r, 151, 1), (false, false));
        assert_eq!(probe(&r, 1, 1), (true, true));
    }

    /// A reference far above the allocator's addresses maps its page
    /// sparsely instead of growing the flat table to reach it.
    #[test]
    fn high_virtual_addresses_map_sparsely() {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        let low = m.alloc(64, 64);
        let (high, top) = (VAddr(1 << 40), VAddr(u64::MAX - 63));
        for va in [low, high, top, high.offset(8), top.offset(8)] {
            m.access(0, va, AccessKind::Write);
        }
        assert_eq!(m.page_faults(), 3, "one frame per distinct page");
        let pt = &m.page_table;
        let pa = |va| pt.translate_existing(va).expect("touched");
        assert_eq!(pa(high.offset(8)).0, pa(high).0 + 8, "equal pages, equal frames");
        let frames = [low, high, top].map(|va| pa(va).0 >> pt.page_shift());
        assert!(frames[0] != frames[1] && frames[1] != frames[2] && frames[0] != frames[2]);
        for va in [low, high, top, top.offset(63)] {
            assert_eq!(pt.reverse(pa(va)), Some(va));
        }
        assert_eq!(pt.translate_existing(VAddr(1 << 41)), None);
    }

    #[test]
    fn total_counters() {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let a = m.alloc(128, 64);
        m.access(0, a, AccessKind::Read);
        m.access(1, a.offset(64), AccessKind::Read);
        assert_eq!(m.total_l2_misses(), 2);
        assert_eq!(m.total_instructions(), 2);
        assert!(m.page_faults() >= 1);
    }
}
