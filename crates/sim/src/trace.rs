//! Reference-trace recording and replay.
//!
//! The paper's simulator was built on Shade, a dynamic binary translator
//! that forwards every memory reference of an unmodified binary into
//! custom analysis units (paper §3.1). Our workloads generate their
//! references programmatically instead, but the equivalent decoupling is
//! still useful: record a run's reference stream once, replay it against
//! differently-configured machines (placement policies, cache
//! geometries) without re-running the application logic.
//!
//! Traces are compact in-memory streams.

use crate::addr::VAddr;
use crate::machine::{AccessKind, Machine, BATCH_REFS};

/// One recorded reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The processor that issued the access.
    pub cpu: u8,
    /// The access kind.
    pub kind: AccessKind,
    /// The virtual address.
    pub addr: VAddr,
}

/// An in-memory reference trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one reference.
    pub fn record(&mut self, cpu: usize, kind: AccessKind, addr: VAddr) {
        debug_assert!(cpu <= u8::MAX as usize, "trace supports up to 256 cpus");
        self.records.push(TraceRecord { cpu: cpu as u8, kind, addr });
    }

    /// Number of recorded references.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.records.iter()
    }

    /// Replays the trace against a machine, returning the total cycles
    /// charged. The machine's own statistics and counters accumulate as
    /// if the original program had run. Each stretch of one processor's
    /// records is resolved [`BATCH_REFS`] at a time by
    /// [`Machine::access_batch`], the path a thread's references take.
    pub fn replay(&self, machine: &mut Machine) -> u64 {
        let mut batch = Vec::with_capacity(BATCH_REFS);
        let mut cycles = 0;
        for stretch in self.records.chunk_by(|a, b| a.cpu == b.cpu) {
            for chunk in stretch.chunks(BATCH_REFS) {
                batch.clear();
                batch.extend(chunk.iter().map(|r| (r.addr, r.kind)));
                cycles += machine.access_batch(usize::from(chunk[0].cpu), &batch);
            }
        }
        cycles
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace { records: iter.into_iter().collect() }
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::paging::PagePlacement;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..100u64 {
            t.record(0, AccessKind::Read, VAddr(0x10000 + i * 64));
        }
        t.record(1, AccessKind::Write, VAddr(0x10000));
        t.record(0, AccessKind::Fetch, VAddr(0x80000));
        t
    }

    #[test]
    fn replay_reproduces_machine_state() {
        let t = sample_trace();
        let mut a = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let mut b = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let ca = t.replay(&mut a);
        let cb = t.replay(&mut b);
        assert_eq!(ca, cb);
        assert_eq!(a.cpu_stats(0), b.cpu_stats(0));
        assert_eq!(a.cpu_stats(1), b.cpu_stats(1));
        assert!(a.cpu_stats(0).l2_misses >= 100);
    }

    #[test]
    fn replay_across_placements_differs_only_in_conflicts() {
        // The same trace on different placement policies: reference count
        // identical, miss counts may differ (that is the point).
        let mut t = Trace::new();
        for i in 0..2000u64 {
            t.record(0, AccessKind::Read, VAddr(0x10000 + (i % 700) * 8192));
        }
        let mut careful = Machine::try_new(MachineConfig::ultra1()).unwrap();
        let mut naive =
            Machine::try_new(MachineConfig::ultra1().with_placement(PagePlacement::arbitrary()))
                .unwrap();
        t.replay(&mut careful);
        t.replay(&mut naive);
        assert_eq!(careful.cpu_stats(0).l1d_refs, naive.cpu_stats(0).l1d_refs);
        assert!(
            naive.cpu_stats(0).l2_misses >= careful.cpu_stats(0).l2_misses,
            "naive placement must not beat bin hopping on a wrapping stride"
        );
    }

    #[test]
    fn collects_from_an_iterator() {
        let t: Trace = sample_trace().iter().copied().collect();
        assert_eq!(t.len(), 102);
        assert!(!t.is_empty());
        assert!(Trace::new().is_empty());
    }
}
