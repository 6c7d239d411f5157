//! Controlled-scheduling hooks for stateless model checking.
//!
//! When [`EngineConfig::schedule_points`](crate::EngineConfig) is set,
//! the engine turns every *visible operation* — a batch ending in any
//! [`Control`] — into a scheduling decision point: the running thread is
//! forcibly preempted after each batch, so the scheduler's `pick` is
//! consulted before every visible operation. Each executed batch is
//! recorded as a [`SchedulePoint`] carrying the operation and the memory
//! spans the batch touched. A model checker
//! (see `locality-analyze`) drives the engine down chosen interleavings
//! by injecting a scripted scheduler and reads the recorded points back
//! to compute happens-before and dependence between steps.

use crate::program::Control;
use locality_core::ThreadId;
use locality_sim::VAddr;

/// One contiguous memory span touched by a batch (collected exactly,
/// per batch, independent of the [`ObsLog`](crate::ObsLog)'s span
/// coalescing).
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
    /// Whether two spans overlap and at least one of them writes — the
    /// data-conflict half of the model checker's dependence relation.
    pub fn conflicts(&self, other: &AccessSpan) -> bool {
        if !self.write && !other.write {
            return false;
        }
        let a_end = self.start.0.saturating_add(self.bytes);
        let b_end = other.start.0.saturating_add(other.bytes);
        self.start.0 < b_end && other.start.0 < a_end
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

/// One executed decision point: thread `tid` ran one batch that touched
/// `accesses` and ended with `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePoint {
    /// The thread that executed the batch.
    pub tid: ThreadId,
    /// The visible operation the batch ended with: every way a batch can
    /// end is a decision point (DESIGN.md §12).
    pub op: Control,
    /// Exact memory spans touched by the batch (in access order).
    pub accesses: Vec<AccessSpan>,
    /// The half-open range of [`ObsLog`](crate::ObsLog) event indices
    /// this step produced (batch events plus everything its visible
    /// operation emitted — hand-offs, wakes, exits). `(0, 0)` when
    /// observation is not enabled.
    pub obs_range: (usize, usize),
}

impl SchedulePoint {
    /// Whether two points are *dependent* — reordering them can change
    /// the outcome. True when they touch the same sync object, conflict
    /// on memory, or couple a `Join` with its target's `Exit`.
    pub fn dependent(&self, other: &SchedulePoint) -> bool {
        if self.tid == other.tid {
            return true;
        }
        let theirs = sync_objects(other.op);
        if sync_objects(self.op).iter().flatten().any(|a| theirs.iter().flatten().any(|b| a == b)) {
            return true;
        }
        if matches!(self.op, Control::Join(t) if t == other.tid)
            || matches!(other.op, Control::Join(t) if t == self.tid)
        {
            return true;
        }
        self.accesses.iter().any(|a| other.accesses.iter().any(|b| a.conflicts(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{CondId, MutexId};

    fn span(start: u64, bytes: u64, write: bool) -> AccessSpan {
        AccessSpan { start: VAddr(start), bytes, write }
    }

    #[test]
    fn span_conflicts_require_a_write_and_overlap() {
        assert!(span(0, 64, true).conflicts(&span(32, 64, false)));
        assert!(span(32, 64, false).conflicts(&span(0, 64, true)));
        assert!(!span(0, 64, false).conflicts(&span(0, 64, false)));
        assert!(!span(0, 64, true).conflicts(&span(64, 64, true)));
    }

    fn point(tid: u64, op: Control, accesses: Vec<AccessSpan>) -> SchedulePoint {
        SchedulePoint { tid: ThreadId(tid), op, accesses, obs_range: (0, 0) }
    }

    #[test]
    fn dependence_same_mutex() {
        let a = point(1, Control::Lock(MutexId(0)), vec![]);
        let b = point(2, Control::Unlock(MutexId(0)), vec![]);
        let c = point(2, Control::Lock(MutexId(1)), vec![]);
        assert!(a.dependent(&b));
        assert!(!a.dependent(&c));
    }

    #[test]
    fn dependence_cond_wait_touches_its_mutex() {
        let w = point(1, Control::CondWait(CondId(0), MutexId(5)), vec![]);
        let l = point(2, Control::Lock(MutexId(5)), vec![]);
        let s = point(2, Control::CondSignal(CondId(0)), vec![]);
        assert!(w.dependent(&l));
        assert!(w.dependent(&s));
    }

    #[test]
    fn dependence_join_exit_pair_and_memory_conflicts() {
        let j = point(1, Control::Join(ThreadId(2)), vec![]);
        let e = point(2, Control::Exit, vec![]);
        assert!(j.dependent(&e));
        let r = point(1, Control::Yield, vec![span(0, 64, false)]);
        let w = point(2, Control::Yield, vec![span(0, 8, true)]);
        let r2 = point(2, Control::Yield, vec![span(0, 64, false)]);
        assert!(r.dependent(&w));
        assert!(!r.dependent(&r2));
    }
}
