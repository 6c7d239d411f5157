//! Vector-clock happens-before race detection over an [`ObsLog`].
//!
//! The detector replays the deterministic observation log through the
//! shared happens-before state ([`HbClocks`]: one [`VClock`] per thread
//! plus one per synchronization object), and flags
//! every pair of conflicting access spans (different threads, at least one
//! write, overlapping byte ranges) whose clocks are concurrent. A thread's
//! causal frontier moves only at synchronization events, each logged after
//! its batch's entry, so a [`Batch`](active_threads::Batch)'s spans carry
//! its thread's clock at the entry and need no tick: a historical access
//! `r` by thread `t` happens-before the current access iff the current
//! thread's clock already covers `r`'s own component, i.e. `cur.get(t) ≥
//! r.clock.get(t)`.
//!
//! As a byproduct the replay also builds the lock-acquisition-order graph
//! (edge `a → b` when some thread acquires `b` while holding `a`), whose
//! cycles indicate potential deadlocks.

use crate::hb::HbClocks;
use crate::lockorder::LockOrderGraph;
use crate::vclock::VClock;
use active_threads::{AccessSpan, MutexId, ObsEvent, ObsLog};
use locality_core::ThreadId;
use std::collections::{BTreeMap, BTreeSet};

/// One side of a race: an access span with the clock it executed under.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessInfo {
    /// The accessing thread.
    pub tid: ThreadId,
    /// The bytes touched and whether they were stored to.
    pub span: AccessSpan,
    /// The thread's vector clock at the access.
    pub clock: VClock,
}

impl std::fmt::Display for AccessInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let AccessSpan { start, bytes, write } = self.span;
        let kind = if write { "write" } else { "read" };
        let end = start.0.saturating_add(bytes);
        write!(f, "{} {kind} of [{:#x}, {end:#x}) @ {}", self.tid, start.0, self.clock)
    }
}

/// A confirmed data race: two conflicting, concurrent accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct Race {
    /// The earlier access (log order).
    pub first: AccessInfo,
    /// The later access (log order).
    pub second: AccessInfo,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} is concurrent with {}", self.first, self.second)
    }
}

/// Cap on reported races; racy loops would otherwise flood the report
/// with one race per iteration.
const MAX_RACES: usize = 64;

/// The happens-before replay engine.
#[derive(Debug, Default)]
pub struct RaceDetector {
    hb: HbClocks,
    history: Vec<AccessInfo>,
    held: BTreeMap<ThreadId, Vec<MutexId>>,
    lock_order: LockOrderGraph,
    races: Vec<Race>,
    /// Unordered racing thread pairs already reported (dedup).
    reported_pairs: BTreeSet<(ThreadId, ThreadId)>,
}

impl RaceDetector {
    /// Replays a full log and returns the populated detector.
    pub fn run(log: &ObsLog) -> Self {
        let mut d = RaceDetector::default();
        for ev in log.events() {
            d.step(ev);
        }
        d
    }

    /// Races found, in log order (capped and deduplicated per thread pair).
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// The lock-acquisition-order graph built during the replay.
    pub fn lock_order(&self) -> &LockOrderGraph {
        &self.lock_order
    }

    fn step(&mut self, ev: &ObsEvent) {
        self.hb.apply(ev);
        match *ev {
            ObsEvent::MutexAcquire { tid, mutex } => {
                let held = self.held.entry(tid).or_default();
                for &outer in held.iter() {
                    self.lock_order.add_edge(outer, mutex, tid);
                }
                held.push(mutex);
            }
            ObsEvent::MutexRelease { tid, mutex } => {
                if let Some(held) = self.held.get_mut(&tid) {
                    if let Some(pos) = held.iter().rposition(|&m| m == mutex) {
                        held.remove(pos);
                    }
                }
            }
            ObsEvent::Batch(ref batch) => {
                let clock = self.hb.clock_mut(batch.tid).clone();
                for &span in &batch.spans {
                    let cur = AccessInfo { tid: batch.tid, span, clock: clock.clone() };
                    self.check_race(&cur);
                    self.history.push(cur);
                }
            }
            _ => {}
        }
    }

    fn check_race(&mut self, cur: &AccessInfo) {
        if self.races.len() >= MAX_RACES {
            return;
        }
        for rec in &self.history {
            if rec.tid == cur.tid || !rec.span.conflicts(&cur.span) {
                continue;
            }
            // `rec` happened-before `cur` iff `cur`'s clock already covers
            // `rec.tid`'s component at the time of `rec`.
            if cur.clock.get(rec.tid) >= rec.clock.get(rec.tid) {
                continue;
            }
            let pair = (rec.tid.min(cur.tid), rec.tid.max(cur.tid));
            if self.reported_pairs.insert(pair) {
                self.races.push(Race { first: rec.clone(), second: cur.clone() });
                if self.races.len() >= MAX_RACES {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use active_threads::{Batch, Control, SemId};
    use locality_sim::VAddr;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    fn access(tid: u64, start: u64, bytes: u64, write: bool) -> ObsEvent {
        let spans = vec![AccessSpan { start: VAddr(start), bytes, write }];
        ObsEvent::Batch(Batch { tid: t(tid), op: Control::Yield, spans })
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(3) });
        log.record(access(2, 0, 64, true));
        log.record(access(3, 32, 64, true));
        let d = RaceDetector::run(&log);
        assert_eq!(d.races().len(), 1);
        let r = &d.races()[0];
        assert_eq!(r.first.tid, t(2));
        assert_eq!(r.second.tid, t(3));
        assert!(r.first.clock.concurrent_with(&r.second.clock));
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(3) });
        log.record(access(2, 0, 64, false));
        log.record(access(3, 0, 64, false));
        assert!(RaceDetector::run(&log).races().is_empty());
    }

    #[test]
    fn disjoint_ranges_do_not_race() {
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(3) });
        log.record(access(2, 0, 64, true));
        log.record(access(3, 64, 64, true));
        assert!(RaceDetector::run(&log).races().is_empty());
    }

    #[test]
    fn mutex_orders_critical_sections() {
        let m = MutexId(0);
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(3) });
        log.record(ObsEvent::MutexAcquire { tid: t(2), mutex: m });
        log.record(access(2, 0, 64, true));
        log.record(ObsEvent::MutexRelease { tid: t(2), mutex: m });
        log.record(ObsEvent::MutexAcquire { tid: t(3), mutex: m });
        log.record(access(3, 0, 64, true));
        log.record(ObsEvent::MutexRelease { tid: t(3), mutex: m });
        assert!(RaceDetector::run(&log).races().is_empty());
    }

    #[test]
    fn spawn_and_join_order_parent_child_accesses() {
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(access(1, 0, 128, true)); // parent init
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(access(2, 0, 128, true)); // child sees init via spawn
        log.record(ObsEvent::Exit { tid: t(2) });
        log.record(ObsEvent::JoinWake { waiter: t(1), target: t(2) });
        log.record(access(1, 0, 128, false)); // parent reads after join
        assert!(RaceDetector::run(&log).races().is_empty());
    }

    #[test]
    fn semaphore_post_wait_creates_edge() {
        let s = SemId(0);
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(3) });
        log.record(access(2, 0, 64, true));
        log.record(ObsEvent::SemPost { tid: t(2), sem: s });
        log.record(ObsEvent::SemAcquire { tid: t(3), sem: s });
        log.record(access(3, 0, 64, true));
        assert!(RaceDetector::run(&log).races().is_empty());
    }

    #[test]
    fn barrier_synchronizes_all_parties() {
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(3) });
        log.record(access(2, 0, 64, true));
        log.record(ObsEvent::BarrierCross {
            barrier: active_threads::BarrierId(0),
            parties: vec![t(2), t(3)],
        });
        log.record(access(3, 0, 64, true));
        assert!(RaceDetector::run(&log).races().is_empty());
    }

    #[test]
    fn abort_reclamation_is_not_a_race() {
        // Thread 2 dies holding the mutex; the engine reclaims the lock
        // on its behalf (Abort, then MutexRelease by the corpse, then
        // the hand-off MutexAcquire). The reclaiming thread's accesses
        // to the protected range must be ordered, not racy.
        let m = MutexId(0);
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(3) });
        log.record(ObsEvent::MutexAcquire { tid: t(2), mutex: m });
        log.record(access(2, 0, 64, true));
        log.record(ObsEvent::Abort { tid: t(2) });
        log.record(ObsEvent::MutexRelease { tid: t(2), mutex: m });
        log.record(ObsEvent::MutexAcquire { tid: t(3), mutex: m });
        log.record(access(3, 0, 64, true));
        assert!(RaceDetector::run(&log).races().is_empty());
    }

    #[test]
    fn abort_join_wake_orders_the_joiner() {
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(access(2, 0, 64, true));
        log.record(ObsEvent::Abort { tid: t(2) });
        log.record(ObsEvent::JoinWake { waiter: t(1), target: t(2) });
        log.record(access(1, 0, 64, true));
        assert!(RaceDetector::run(&log).races().is_empty());
    }

    #[test]
    fn races_are_deduplicated_per_thread_pair() {
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(3) });
        for round in 0..10 {
            log.record(access(2, 0, 64, true));
            log.record(access(3, 0, 64, true));
            log.record(access(2, 4096 + round * 128, 64, true));
            log.record(access(3, 8192 + round * 128, 64, true));
        }
        let d = RaceDetector::run(&log);
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn nested_locks_build_order_graph() {
        let (a, b) = (MutexId(0), MutexId(1));
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::MutexAcquire { tid: t(1), mutex: a });
        log.record(ObsEvent::MutexAcquire { tid: t(1), mutex: b });
        log.record(ObsEvent::MutexRelease { tid: t(1), mutex: b });
        log.record(ObsEvent::MutexRelease { tid: t(1), mutex: a });
        log.record(ObsEvent::MutexAcquire { tid: t(1), mutex: b });
        log.record(ObsEvent::MutexAcquire { tid: t(1), mutex: a });
        let cycles = RaceDetector::run(&log).lock_order().cycles();
        assert_eq!((cycles.len(), &cycles[0].locks), (1, &vec![a, b]));
    }

    #[test]
    fn spans_past_the_top_of_the_address_space_stop_there() {
        let mut log = ObsLog::new();
        log.record(ObsEvent::Spawn { parent: None, child: t(1) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(2) });
        log.record(ObsEvent::Spawn { parent: Some(t(1)), child: t(3) });
        log.record(access(2, u64::MAX - 10, 100, true));
        log.record(access(3, u64::MAX - 10, 100, true));
        let d = RaceDetector::run(&log);
        assert_eq!(d.races().len(), 1);
        let text = d.races()[0].to_string();
        assert!(text.contains("[0xfffffffffffffff5, 0xffffffffffffffff)"), "{text}");
    }
}
