//! Deterministic runtime observation log.
//!
//! When observation is enabled ([`Engine::enable_observation`]) the engine
//! appends one [`ObsEvent`] per executed [`Batch`], synchronization
//! transition, spawn/join/exit and `at_share` annotation — in engine
//! execution order, which is deterministic for a fixed program and
//! configuration. It is the one record every analysis of the
//! `locality-analyze` crate reads, the model checker's included; keeping
//! it a plain data structure here avoids a dependency cycle between the
//! runtime and the analyzer.
//!
//! Event ordering guarantees relied on by consumers:
//!
//! * a [`Batch`](ObsEvent::Batch) is appended when the batch starts, so it
//!   precedes every event the batch emits — its [`Spawn`](ObsEvent::Spawn)s
//!   and [`AtShare`](ObsEvent::AtShare)s and everything its control emits:
//!   a spawning batch happens-before every batch of the child;
//! * a [`MutexRelease`](ObsEvent::MutexRelease) precedes the
//!   [`MutexAcquire`](ObsEvent::MutexAcquire) it hands the mutex to;
//! * a [`SemPost`](ObsEvent::SemPost) precedes the
//!   [`SemAcquire`](ObsEvent::SemAcquire) it satisfies;
//! * a thread's [`Exit`](ObsEvent::Exit) precedes every
//!   [`JoinWake`](ObsEvent::JoinWake) on it;
//! * a [`Spawn`](ObsEvent::Spawn) precedes every event of the child;
//! * a thread's [`Abort`](ObsEvent::Abort) follows every event the
//!   thread performed itself and precedes every [`JoinWake`](ObsEvent::JoinWake) on it and
//!   every [`MutexRelease`](ObsEvent::MutexRelease) reclaiming a lock it
//!   died holding — so analyses may treat the abort as the dead thread's
//!   final release point (post-abort reclamation is happens-before
//!   ordered by the abort, never racy).
//!
//! [`Engine::enable_observation`]: crate::Engine::enable_observation

use crate::program::Control;
use crate::sync::{BarrierId, CondId, MutexId, SemId};
use locality_core::ThreadId;
use locality_sim::VAddr;

/// One observed runtime event.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A thread was created; `parent` is `None` for root threads spawned
    /// from outside the engine.
    Spawn {
        /// The spawning thread, if any.
        parent: Option<ThreadId>,
        /// The new thread.
        child: ThreadId,
    },
    /// A thread exited.
    Exit {
        /// The exiting thread.
        tid: ThreadId,
    },
    /// A thread was killed by lifecycle fault injection (or was
    /// stillborn on spawn failure). Joins on it still complete; locks it
    /// held are reclaimed in the immediately following
    /// [`MutexRelease`](ObsEvent::MutexRelease) events.
    Abort {
        /// The aborted thread.
        tid: ThreadId,
    },
    /// `waiter`'s join on `target` completed (`target` had exited).
    JoinWake {
        /// The joining thread.
        waiter: ThreadId,
        /// The thread being joined.
        target: ThreadId,
    },
    /// `tid` acquired the mutex — immediately, by unlock hand-off, or on
    /// condition-variable wake-up.
    MutexAcquire {
        /// The acquiring thread.
        tid: ThreadId,
        /// The mutex.
        mutex: MutexId,
    },
    /// `tid` released the mutex (including the implicit release inside a
    /// condition-variable wait).
    MutexRelease {
        /// The releasing thread.
        tid: ThreadId,
        /// The mutex.
        mutex: MutexId,
    },
    /// `tid` posted (V'd) the semaphore.
    SemPost {
        /// The posting thread.
        tid: ThreadId,
        /// The semaphore.
        sem: SemId,
    },
    /// `tid` passed a semaphore wait (P) — immediately or woken by a post.
    SemAcquire {
        /// The acquiring thread.
        tid: ThreadId,
        /// The semaphore.
        sem: SemId,
    },
    /// All parties crossed the barrier together.
    BarrierCross {
        /// The barrier.
        barrier: BarrierId,
        /// Every thread released by this crossing (including the last
        /// arrival), in arrival order.
        parties: Vec<ThreadId>,
    },
    /// `signaler` woke `woken` from a condition-variable wait.
    CondWake {
        /// The signalling (or broadcasting) thread.
        signaler: ThreadId,
        /// The woken waiter.
        woken: ThreadId,
        /// The condition variable.
        cond: CondId,
    },
    /// One executed batch, appended when it starts; its spans fill in as
    /// it runs and its `op` is set when it ends.
    Batch(Batch),
    /// `tid` issued `at_share(src, dst, q)`. Recorded even when the graph
    /// rejected the annotation (`accepted = false`), so lints can see raw
    /// coefficient values.
    AtShare {
        /// The edge source.
        src: ThreadId,
        /// The edge destination.
        dst: ThreadId,
        /// The raw coefficient as written by the program.
        q: f64,
        /// Whether the [`SharingGraph`](locality_core::SharingGraph)
        /// accepted the edge.
        accepted: bool,
    },
}

/// One contiguous memory span touched by a batch: single accesses are
/// 1-byte spans, a strided range access records its covering span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSpan {
    /// First byte of the span.
    pub start: VAddr,
    /// Span length in bytes.
    pub bytes: u64,
    /// Whether the span was written (true) or only read (false).
    pub write: bool,
}

impl AccessSpan {
    /// One past the last byte, stopping at the top of the address space.
    fn end(&self) -> u64 {
        self.start.0.saturating_add(self.bytes)
    }

    /// Whether two spans overlap and at least one of them writes — the
    /// data-conflict rule of race detection and of the model checker's
    /// dependence relation.
    pub fn conflicts(&self, other: &AccessSpan) -> bool {
        (self.write || other.write) && self.start.0 < other.end() && other.start.0 < self.end()
    }
}

/// One executed batch: thread `tid` touched `spans` (in access order) and
/// ended with `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The thread that executed the batch.
    pub tid: ThreadId,
    /// The control the batch ended with.
    pub op: Control,
    /// The spans touched, in access order; touching same-kind spans merge.
    pub spans: Vec<AccessSpan>,
}

impl Batch {
    /// Whether two batches are *dependent* — reordering them can change
    /// the outcome. True when they are by the same thread, touch the same
    /// sync object, conflict on memory, or couple a `Join` with its
    /// target's `Exit`.
    pub fn dependent(&self, other: &Batch) -> bool {
        let theirs = sync_objects(other.op);
        self.tid == other.tid
            || sync_objects(self.op)
                .iter()
                .flatten()
                .any(|a| theirs.iter().flatten().any(|b| a == b))
            || matches!(self.op, Control::Join(t) if t == other.tid)
            || matches!(other.op, Control::Join(t) if t == self.tid)
            || self.spans.iter().any(|a| other.spans.iter().any(|b| a.conflicts(b)))
    }

    /// Adds a span. One that overlaps or touches the previous span, of
    /// the same kind, merges into it — a loop of sequential touches
    /// collapses to one span — and the merge stops at the top of the
    /// address space. Nothing between two spans of one batch can change
    /// its thread's causal frontier, so the merge loses nothing.
    #[inline(never)]
    pub(crate) fn add(&mut self, span: AccessSpan) {
        if let Some(last) = self.spans.last_mut() {
            if last.write == span.write && span.start.0 <= last.end() && last.start.0 <= span.end()
            {
                let lo = last.start.0.min(span.start.0);
                last.bytes = last.end().max(span.end()) - lo;
                last.start = VAddr(lo);
                return;
            }
        }
        self.spans.push(span);
    }
}

/// The sync objects a batch-ending control touches, as comparable keys;
/// two operations that share one are dependent. A `CondWait` touches its
/// condvar and the mutex it atomically releases.
fn sync_objects(op: Control) -> [Option<(u8, usize)>; 2] {
    match op {
        Control::Lock(m) | Control::Unlock(m) => [Some((0, m.0)), None],
        Control::SemWait(s) | Control::SemPost(s) => [Some((1, s.0)), None],
        Control::BarrierWait(b) => [Some((2, b.0)), None],
        Control::CondSignal(c) | Control::CondBroadcast(c) => [Some((3, c.0)), None],
        Control::CondWait(c, m) => [Some((3, c.0)), Some((0, m.0))],
        _ => [None, None],
    }
}

/// Append-only log of [`ObsEvent`]s in deterministic engine order.
#[derive(Debug, Default)]
pub struct ObsLog {
    events: Vec<ObsEvent>,
}

impl ObsLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ObsLog::default()
    }

    /// Appends an event.
    pub fn record(&mut self, ev: ObsEvent) {
        self.events.push(ev);
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Appends the entry of a batch `tid` starts and returns its index.
    /// Its `op` is a placeholder until the batch ends.
    pub(crate) fn open_batch(&mut self, tid: ThreadId) -> usize {
        self.events.push(ObsEvent::Batch(Batch { tid, op: Control::Yield, spans: Vec::new() }));
        self.events.len() - 1
    }

    /// The batch entry at `at`, an index [`open_batch`](Self::open_batch) returned.
    pub(crate) fn batch_mut(&mut self, at: usize) -> &mut Batch {
        match self.events.get_mut(at) {
            Some(ObsEvent::Batch(batch)) => batch,
            _ => unreachable!("event {at} is not a batch entry"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{CondId, MutexId};

    fn span(start: u64, bytes: u64, write: bool) -> AccessSpan {
        AccessSpan { start: VAddr(start), bytes, write }
    }

    /// Adds each `(tid, spans)` to a batch entry of its own, in order,
    /// with a spawn after each span (a batch's own events do not stop its
    /// spans merging), and returns each entry's spans.
    fn batches(input: &[(u64, &[AccessSpan])]) -> Vec<Vec<AccessSpan>> {
        let mut log = ObsLog::new();
        let mut close = |&(tid, spans): &(u64, &[AccessSpan])| {
            let at = log.open_batch(ThreadId(tid));
            for &s in spans {
                log.batch_mut(at).add(s);
                log.record(ObsEvent::Spawn { parent: Some(ThreadId(tid)), child: ThreadId(9) });
            }
            log.batch_mut(at).spans.clone()
        };
        input.iter().map(&mut close).collect()
    }

    #[test]
    fn coalesces_adjacent_same_kind_accesses() {
        let one = [span(0, 64, false), span(64, 64, false), span(32, 8, false)];
        assert_eq!(batches(&[(1, &one)]), [[span(0, 128, false)]]);
    }

    #[test]
    fn does_not_coalesce_across_threads_kinds_or_gaps() {
        let second = [span(64, 64, false), span(128, 64, true), span(1024, 64, true)];
        let got = batches(&[(1, &[span(0, 64, false)]), (2, &second)]);
        assert_eq!(got, [vec![span(0, 64, false)], second.to_vec()]);
    }

    #[test]
    fn intervening_event_blocks_coalescing() {
        // The next batch's entry blocks it, even for the same thread.
        let got = batches(&[(1, &[span(0, 64, false)]), (1, &[span(64, 64, false)])]);
        assert_eq!(got, [[span(0, 64, false)], [span(64, 64, false)]]);
    }

    #[test]
    fn spans_past_the_top_of_the_address_space_stop_there() {
        let top = span(u64::MAX - 10, 100, true);
        assert_eq!(batches(&[(1, &[top, top])]), [[span(u64::MAX - 10, 10, true)]]);
    }

    #[test]
    fn span_conflicts_require_a_write_and_overlap() {
        assert!(span(0, 64, true).conflicts(&span(32, 64, false)));
        assert!(span(32, 64, false).conflicts(&span(0, 64, true)));
        assert!(!span(0, 64, false).conflicts(&span(0, 64, false)));
        assert!(!span(0, 64, true).conflicts(&span(64, 64, true)));
    }

    fn batch(tid: u64, op: Control, spans: Vec<AccessSpan>) -> Batch {
        Batch { tid: ThreadId(tid), op, spans }
    }

    #[test]
    fn dependence_same_mutex() {
        let a = batch(1, Control::Lock(MutexId(0)), vec![]);
        let b = batch(2, Control::Unlock(MutexId(0)), vec![]);
        let c = batch(2, Control::Lock(MutexId(1)), vec![]);
        assert!(a.dependent(&b));
        assert!(!a.dependent(&c));
    }

    #[test]
    fn dependence_cond_wait_touches_its_mutex() {
        let w = batch(1, Control::CondWait(CondId(0), MutexId(5)), vec![]);
        let l = batch(2, Control::Lock(MutexId(5)), vec![]);
        let s = batch(2, Control::CondSignal(CondId(0)), vec![]);
        assert!(w.dependent(&l));
        assert!(w.dependent(&s));
    }

    #[test]
    fn dependence_join_exit_pair_and_memory_conflicts() {
        let j = batch(1, Control::Join(ThreadId(2)), vec![]);
        let e = batch(2, Control::Exit, vec![]);
        assert!(j.dependent(&e));
        let r = batch(1, Control::Yield, vec![span(0, 64, false)]);
        let w = batch(2, Control::Yield, vec![span(0, 8, true)]);
        let r2 = batch(2, Control::Yield, vec![span(0, 64, false)]);
        assert!(r.dependent(&w));
        assert!(!r.dependent(&r2));
    }
}
