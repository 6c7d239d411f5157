//! The happens-before clock state: one [`VClock`] per thread plus one
//! per mutex and semaphore, advanced by replaying [`ObsEvent`]s.
//!
//! This is the only implementation of the vector-clock rules. The race
//! detector embeds it and compares access clocks; the model checker
//! drives it step by step to decide which transitions race. Both
//! therefore agree on happens-before by construction.

use crate::vclock::VClock;
use active_threads::{MutexId, ObsEvent, SemId};
use locality_core::ThreadId;
use std::collections::BTreeMap;

/// Vector clocks of every thread and synchronization object seen so far.
#[derive(Debug, Default)]
pub struct HbClocks {
    clocks: BTreeMap<ThreadId, VClock>,
    mutex_clocks: BTreeMap<MutexId, VClock>,
    sem_clocks: BTreeMap<SemId, VClock>,
}

impl HbClocks {
    /// `t`'s clock (all zero until its first event).
    pub fn clock_mut(&mut self, t: ThreadId) -> &mut VClock {
        self.clocks.entry(t).or_default()
    }

    /// Advances the clocks over one logged event. Batches and annotations
    /// change no causal frontier and are ignored.
    pub fn apply(&mut self, ev: &ObsEvent) {
        match *ev {
            ObsEvent::Spawn { parent, child } => {
                let inherited = match parent {
                    Some(p) => {
                        let pc = self.clock_mut(p);
                        pc.tick(p);
                        pc.clone()
                    }
                    None => VClock::new(),
                };
                let cc = self.clock_mut(child);
                *cc = inherited;
                cc.tick(child);
            }
            // An abort is the dead thread's final event: tick its clock so
            // everything it did is below the abort. The engine emits the
            // reclamation `MutexRelease`s (and `JoinWake`s) *after* the
            // abort, by the dead thread itself — the release rule then
            // publishes the post-abort clock into the mutex, so whoever
            // reclaims the lock is happens-after everything the dead
            // thread did while holding it. No phantom races against dead
            // threads.
            ObsEvent::Exit { tid } | ObsEvent::Abort { tid } => {
                self.clock_mut(tid).tick(tid);
            }
            ObsEvent::JoinWake { waiter, target } => {
                let tc = self.clock_mut(target).clone();
                let wc = self.clock_mut(waiter);
                wc.join(&tc);
                wc.tick(waiter);
            }
            ObsEvent::MutexAcquire { tid, mutex } => {
                if let Some(mc) = self.mutex_clocks.get(&mutex) {
                    let mc = mc.clone();
                    self.clock_mut(tid).join(&mc);
                }
                self.clock_mut(tid).tick(tid);
            }
            ObsEvent::MutexRelease { tid, mutex } => {
                let tc = self.clock_mut(tid);
                tc.tick(tid);
                let tc = tc.clone();
                self.mutex_clocks.insert(mutex, tc);
            }
            ObsEvent::SemPost { tid, sem } => {
                let tc = self.clock_mut(tid);
                tc.tick(tid);
                let tc = tc.clone();
                // Posts accumulate: a waiter may be released by any prior
                // post, so the semaphore clock joins rather than replaces.
                self.sem_clocks.entry(sem).or_default().join(&tc);
            }
            ObsEvent::SemAcquire { tid, sem } => {
                if let Some(sc) = self.sem_clocks.get(&sem) {
                    let sc = sc.clone();
                    self.clock_mut(tid).join(&sc);
                }
                self.clock_mut(tid).tick(tid);
            }
            ObsEvent::BarrierCross { barrier: _, ref parties } => {
                let mut merged = VClock::new();
                for &p in parties {
                    merged.join(self.clock_mut(p));
                }
                for &p in parties {
                    let pc = self.clock_mut(p);
                    *pc = merged.clone();
                    pc.tick(p);
                }
            }
            ObsEvent::CondWake { signaler, woken, cond: _ } => {
                let sc = self.clock_mut(signaler);
                sc.tick(signaler);
                let sc = sc.clone();
                let wc = self.clock_mut(woken);
                wc.join(&sc);
                wc.tick(woken);
            }
            ObsEvent::Batch(_) | ObsEvent::AtShare { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lock_reclaimed_after_abort_is_ordered_after_the_dead_thread() {
        let (dead, heir, m) = (ThreadId(2), ThreadId(3), MutexId(0));
        let mut hb = HbClocks::default();
        hb.apply(&ObsEvent::Spawn { parent: None, child: ThreadId(1) });
        hb.apply(&ObsEvent::Spawn { parent: Some(ThreadId(1)), child: dead });
        hb.apply(&ObsEvent::Spawn { parent: Some(ThreadId(1)), child: heir });
        hb.apply(&ObsEvent::MutexAcquire { tid: dead, mutex: m });
        // What the dead thread's accesses inside the critical section
        // were stamped with.
        let in_section = hb.clock_mut(dead).clone();
        hb.apply(&ObsEvent::Abort { tid: dead });
        let at_abort = hb.clock_mut(dead).clone();
        assert!(at_abort.get(dead) > in_section.get(dead), "the abort is its own event");
        // Before the hand-off the heir knows nothing of the dead thread.
        assert!(hb.clock_mut(heir).get(dead) < in_section.get(dead));
        hb.apply(&ObsEvent::MutexRelease { tid: dead, mutex: m });
        hb.apply(&ObsEvent::MutexAcquire { tid: heir, mutex: m });
        let heir_clock = hb.clock_mut(heir).clone();
        assert!(at_abort.le(&heir_clock), "{at_abort} must precede {heir_clock}");
        assert!(heir_clock.get(dead) > at_abort.get(dead), "the release itself is covered too");
    }
}
