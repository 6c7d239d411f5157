//! The batch execution model: [`Program`], [`BatchCtx`], [`Control`].
//!
//! A thread's body is a resumable state machine. Each call to
//! [`Program::next_batch`] performs a *batch* of work — memory accesses,
//! compute, spawns, annotations — through the [`BatchCtx`] handle, and
//! returns a [`Control`] saying how the batch ends. Synchronization that
//! does not block (an uncontended lock, a semaphore post) lets the same
//! thread continue with its next batch without a context switch, exactly
//! like a fast user-level thread library.

use crate::observe::{ObsEvent, ObsLog};
use crate::points::AccessSpan;
use crate::sync::{BarrierId, CondId, MutexId, SemId, SyncTables};
use locality_core::{ModelError, SharingGraph, ThreadId};
use locality_sim::{AccessKind, Machine, VAddr, BATCH_REFS};

/// How a batch ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Voluntarily yield the processor (stay ready).
    Yield,
    /// Sleep for the given number of simulated cycles.
    Sleep(u64),
    /// Acquire a mutex (blocks if held).
    Lock(MutexId),
    /// Release a mutex (never blocks; the thread continues).
    Unlock(MutexId),
    /// P() on a semaphore (blocks if the count is zero).
    SemWait(SemId),
    /// V() on a semaphore (never blocks).
    SemPost(SemId),
    /// Wait at a barrier (blocks unless this is the last arrival).
    BarrierWait(BarrierId),
    /// Atomically release the mutex and wait on the condition variable;
    /// on wake-up the mutex is re-acquired before the thread resumes.
    CondWait(CondId, MutexId),
    /// Wake one waiter of the condition variable (never blocks).
    CondSignal(CondId),
    /// Wake all waiters of the condition variable (never blocks).
    CondBroadcast(CondId),
    /// Wait for another thread to exit (continues immediately if it
    /// already has).
    Join(ThreadId),
    /// The thread is done.
    Exit,
}

/// A thread body: a resumable program executed batch by batch.
///
/// Implementations are plain state machines; see the crate-level example
/// and the `locality-workloads` crate for realistic ones.
pub trait Program {
    /// Performs the next batch of work and says how it ends.
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control;
}

/// A spawned child: its assigned id and its program, queued for the
/// engine to admit after the current batch.
pub(crate) struct PendingSpawn {
    pub tid: ThreadId,
    pub program: Box<dyn Program>,
}

impl std::fmt::Debug for PendingSpawn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingSpawn").field("tid", &self.tid).finish_non_exhaustive()
    }
}

/// The capability handle a [`Program`] uses during one batch.
///
/// Single references are buffered and reach the simulated machine in
/// program order, one [`Machine::access_batch`] per [`BATCH_REFS`] of
/// them or fewer: at the latest when the buffer fills or the batch ends,
/// and always before anything that depends on the machine's state or
/// changes what it attributes: a run, [`machine`](Self::machine),
/// [`batch_cycles`](Self::batch_cycles) and region registration. Their
/// cycle costs accumulate in `batch_cycles`.
#[derive(Debug)]
pub struct BatchCtx<'a> {
    pub(crate) machine: &'a mut Machine,
    /// The single references not yet resolved (lent by the engine).
    pub(crate) pending: &'a mut Vec<(VAddr, AccessKind)>,
    pub(crate) sync: &'a mut SyncTables,
    pub(crate) graph: &'a mut SharingGraph,
    pub(crate) cpu: usize,
    pub(crate) tid: ThreadId,
    pub(crate) cycles: u64,
    pub(crate) next_tid: &'a mut u64,
    pub(crate) spawns: Vec<PendingSpawn>,
    pub(crate) obs: Option<&'a mut ObsLog>,
    /// Exact per-batch access spans, collected only under controlled
    /// scheduling (the `ObsLog` coalesces spans across batches, so the
    /// model checker needs its own per-batch record).
    pub(crate) accesses: Option<Vec<AccessSpan>>,
}

impl<'a> BatchCtx<'a> {
    /// The calling thread's id (the paper's `at_self()`).
    pub fn self_id(&self) -> ThreadId {
        self.tid
    }

    /// The processor this batch runs on.
    pub fn cpu(&self) -> usize {
        self.cpu
    }

    /// Cycles consumed by this batch so far.
    pub fn batch_cycles(&mut self) -> u64 {
        self.flush();
        self.cycles
    }

    /// Resolves the buffered single references.
    #[inline(always)]
    pub(crate) fn flush(&mut self) {
        if !self.pending.is_empty() {
            self.resolve_pending();
        }
    }

    #[inline(never)]
    fn resolve_pending(&mut self) {
        self.cycles += self.machine.access_batch(self.cpu, self.pending);
        self.pending.clear();
    }

    /// Resolves a run after the single references issued before it.
    fn run(&mut self, base: VAddr, stride: u64, count: u64, kind: AccessKind) {
        self.flush();
        self.cycles += self.machine.access_run(self.cpu, base, stride, count, kind);
    }

    fn push(&mut self, va: VAddr, kind: AccessKind) {
        self.pending.push((va, kind));
        if self.pending.len() == BATCH_REFS {
            self.flush();
        }
    }

    /// Records a data-access span in the observation log, if enabled.
    /// Single accesses are 1-byte spans; range accesses record their
    /// covering span once (not one event per probe).
    fn note_access(&mut self, start: VAddr, bytes: u64, write: bool) {
        if let Some(log) = self.obs.as_deref_mut() {
            log.record(ObsEvent::Access { tid: self.tid, start, bytes, write });
        }
        if let Some(spans) = self.accesses.as_mut() {
            spans.push(AccessSpan { start, bytes, write });
        }
    }

    /// Loads one word at `va`.
    pub fn read(&mut self, va: VAddr) {
        self.note_access(va, 1, false);
        self.push(va, AccessKind::Read);
    }

    /// Stores one word at `va`.
    pub fn write(&mut self, va: VAddr) {
        self.note_access(va, 1, true);
        self.push(va, AccessKind::Write);
    }

    /// Fetches an instruction at `va` (through the L1-I).
    pub fn fetch(&mut self, va: VAddr) {
        self.push(va, AccessKind::Fetch);
    }

    /// Loads every `stride`-th byte of `[start, start+bytes)`.
    pub fn read_range(&mut self, start: VAddr, bytes: u64, stride: u64) {
        self.note_access(start, bytes, false);
        let stride = stride.max(1);
        let count = bytes.div_ceil(stride);
        self.run(start, stride, count, AccessKind::Read);
    }

    /// Stores every `stride`-th byte of `[start, start+bytes)`.
    pub fn write_range(&mut self, start: VAddr, bytes: u64, stride: u64) {
        self.note_access(start, bytes, true);
        let stride = stride.max(1);
        let count = bytes.div_ceil(stride);
        self.run(start, stride, count, AccessKind::Write);
    }

    /// Executes `instructions` non-memory instructions (1 cycle each).
    pub fn compute(&mut self, instructions: u64) {
        self.cycles += instructions;
        self.machine.note_instructions(self.cpu, instructions);
    }

    /// Allocates simulated memory.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> VAddr {
        self.machine.alloc(bytes, align)
    }

    /// Frees simulated memory.
    pub fn free(&mut self, addr: VAddr, bytes: u64, align: u64) {
        self.machine.free(addr, bytes, align);
    }

    /// Registers `[start, start+bytes)` as part of the calling thread's
    /// state (footprint ground truth).
    pub fn register_region(&mut self, start: VAddr, bytes: u64) {
        self.flush();
        self.machine.register_region(self.tid, start, bytes);
    }

    /// Registers a region as part of *another* thread's state (used right
    /// after spawning a child whose state the parent carved out).
    pub fn register_region_for(&mut self, tid: ThreadId, start: VAddr, bytes: u64) {
        self.flush();
        self.machine.register_region(tid, start, bytes);
    }

    /// The `at_share(src, dst, q)` annotation: fraction `q` of `src`'s
    /// state is shared with `dst`. A hint — invalid coefficients are
    /// reported but never affect correctness.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for `q ∉ [0, 1]` or self-sharing; callers
    /// may ignore the error exactly because annotations are hints.
    pub fn at_share(&mut self, src: ThreadId, dst: ThreadId, q: f64) -> Result<(), ModelError> {
        let res = self.graph.set(src, dst, q);
        if let Some(log) = self.obs.as_deref_mut() {
            log.record(ObsEvent::AtShare { src, dst, q, accepted: res.is_ok() });
        }
        res
    }

    /// Spawns a child thread; it becomes ready when this batch ends.
    /// Returns the child's id (usable immediately in annotations and
    /// joins, like `at_create` in the paper).
    pub fn spawn(&mut self, program: Box<dyn Program>) -> ThreadId {
        let tid = ThreadId(*self.next_tid);
        *self.next_tid += 1;
        if let Some(log) = self.obs.as_deref_mut() {
            log.record(ObsEvent::Spawn { parent: Some(self.tid), child: tid });
        }
        self.spawns.push(PendingSpawn { tid, program });
        tid
    }

    /// Creates a mutex.
    pub fn create_mutex(&mut self) -> MutexId {
        self.sync.create_mutex()
    }

    /// Creates a counting semaphore.
    pub fn create_semaphore(&mut self, count: u64) -> SemId {
        self.sync.create_semaphore(count)
    }

    /// Creates a barrier for `parties` threads.
    pub fn create_barrier(&mut self, parties: usize) -> BarrierId {
        self.sync.create_barrier(parties)
    }

    /// Creates a condition variable.
    pub fn create_cond(&mut self) -> CondId {
        self.sync.create_cond()
    }

    /// Read-only view of the machine (e.g. for exact coefficients from the
    /// region table when building annotations).
    pub fn machine(&mut self) -> &Machine {
        self.flush();
        self.machine
    }
}
