//! Deterministic runtime observation log.
//!
//! When observation is enabled ([`Engine::enable_observation`]) the engine
//! appends one [`ObsEvent`] per synchronization transition, shared-memory
//! access span, spawn/join/exit, and `at_share` annotation — in engine
//! execution order, which is deterministic for a fixed program and
//! configuration. The log is the raw input of the offline analyses in the
//! `locality-analyze` crate (happens-before race detection, lock-order
//! cycle detection, annotation-consistency lints); keeping it a plain data
//! structure here avoids a dependency cycle between the runtime and the
//! analyzer.
//!
//! Event ordering guarantees relied on by consumers:
//!
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
    /// `tid` touched every byte range within `[start, start + bytes)`
    /// (single accesses are 1-byte spans; strided range accesses record
    /// the covering span).
    Access {
        /// The accessing thread.
        tid: ThreadId,
        /// First byte of the span.
        start: VAddr,
        /// Length of the span in bytes.
        bytes: u64,
        /// True for stores, false for loads.
        write: bool,
    },
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
    ///
    /// Immediately-consecutive access spans by the same thread with the
    /// same access kind are coalesced when they overlap or touch — a loop
    /// of sequential touches collapses to one span. No other event can
    /// sit between the two, so the thread's happens-before frontier is
    /// identical for both and the merge loses nothing. A span that would
    /// run past the end of the address space stops there.
    pub fn record(&mut self, ev: ObsEvent) {
        if let ObsEvent::Access { tid, start, bytes, write } = &ev {
            if let Some(ObsEvent::Access { tid: lt, start: ls, bytes: lb, write: lw }) =
                self.events.last_mut()
            {
                if lt == tid && lw == write {
                    let (a0, a1) = (ls.0, ls.0.saturating_add(*lb));
                    let (b0, b1) = (start.0, start.0.saturating_add(*bytes));
                    if b0 <= a1 && a0 <= b1 {
                        let lo = a0.min(b0);
                        *ls = VAddr(lo);
                        *lb = a1.max(b1) - lo;
                        return;
                    }
                }
            }
        }
        self.events.push(ev);
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(tid: u64, start: u64, bytes: u64, write: bool) -> ObsEvent {
        ObsEvent::Access { tid: ThreadId(tid), start: VAddr(start), bytes, write }
    }

    #[test]
    fn coalesces_adjacent_same_kind_accesses() {
        let mut log = ObsLog::new();
        log.record(access(1, 0, 64, false));
        log.record(access(1, 64, 64, false));
        log.record(access(1, 32, 8, false));
        assert_eq!(log.len(), 1);
        assert_eq!(log.events()[0], access(1, 0, 128, false));
    }

    #[test]
    fn does_not_coalesce_across_threads_kinds_or_gaps() {
        let mut log = ObsLog::new();
        log.record(access(1, 0, 64, false));
        log.record(access(2, 64, 64, false)); // other thread
        log.record(access(2, 128, 64, true)); // other kind
        log.record(access(2, 1024, 64, true)); // gap
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn intervening_event_blocks_coalescing() {
        let mut log = ObsLog::new();
        log.record(access(1, 0, 64, false));
        log.record(ObsEvent::MutexAcquire { tid: ThreadId(1), mutex: MutexId(0) });
        log.record(access(1, 64, 64, false));
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn spans_past_the_top_of_the_address_space_stop_there() {
        let mut log = ObsLog::new();
        log.record(access(1, u64::MAX - 10, 100, true));
        log.record(access(1, u64::MAX - 10, 100, true));
        assert_eq!(log.events(), [access(1, u64::MAX - 10, 10, true)]);
    }
}
