//! The ring-buffer event sink and its thread-local installation.
//!
//! One sink per OS thread: the engine, scheduler, estimator, sanitizer,
//! and simulator of a run all execute on the run's thread, so a
//! thread-local needs no locking and parallel experiment runners get one
//! private sink per worker. [`install`] before a run, [`take`] after.

use crate::event::TraceEvent;
use crate::metrics::TraceAggregate;
use std::cell::{Cell, RefCell};

/// Default ring capacity: large enough that a fig5-scale monitored run
/// keeps every event, small enough to stay cheap (~24 MB of records).
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// One recorded event, stamped with its global sequence number and the
/// simulated clock that was current when it was emitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// 1-based emission index (monotone even across drops).
    pub seq: u64,
    /// Simulated cycles of the emitting processor (see [`set_clock`]).
    pub clock: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A fixed-capacity overwrite-oldest ring buffer of [`Record`]s with
/// online metric aggregation.
#[derive(Debug)]
pub struct TraceSink {
    ring: Vec<Record>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    capacity: usize,
    seq: u64,
    clock: u64,
    dropped: u64,
    agg: TraceAggregate,
}

impl TraceSink {
    /// Creates a sink, pre-allocating the whole ring so recording never
    /// allocates. A zero capacity is clamped to 1.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceSink {
            ring: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            seq: 0,
            clock: 0,
            dropped: 0,
            agg: TraceAggregate::default(),
        }
    }

    /// Sets the clock stamped onto subsequent records.
    pub fn set_clock(&mut self, clock: u64) {
        self.clock = clock;
    }

    /// Records an event, overwriting the oldest record when full. The
    /// aggregate metrics always see the event, wrapped or not.
    pub fn record(&mut self, event: TraceEvent) {
        self.seq += 1;
        self.agg.note(&event);
        let rec = Record { seq: self.seq, clock: self.clock, event };
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events emitted so far (including any overwritten ones).
    pub fn events_emitted(&self) -> u64 {
        self.seq
    }

    /// Records still held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// The online metric aggregate.
    pub fn aggregate(&self) -> &TraceAggregate {
        &self.agg
    }
}

thread_local! {
    static SINK: RefCell<Option<TraceSink>> = const { RefCell::new(None) };
    /// Whether `SINK` holds a sink: the one load an emission point pays
    /// when none does. A `Cell<bool>` has no destructor, so reading it is
    /// a plain thread-local load.
    static ON: Cell<bool> = const { Cell::new(false) };
}

/// Installs a fresh sink with the given ring capacity on this thread,
/// replacing (and discarding) any previous one.
pub fn install(capacity: usize) {
    SINK.with(|s| *s.borrow_mut() = Some(TraceSink::new(capacity)));
    ON.set(true);
}

/// Removes and returns this thread's sink, stopping collection.
pub fn take() -> Option<TraceSink> {
    ON.set(false);
    SINK.with(|s| s.borrow_mut().take())
}

/// Records the event produced by `f` into this thread's sink, if one is
/// installed. Without a sink this is one thread-local load and `f` is
/// never evaluated.
#[inline(always)]
pub fn emit_with<F: FnOnce() -> TraceEvent>(f: F) {
    if ON.get() {
        record_with(f);
    }
}

#[cold]
#[inline(never)]
fn record_with<F: FnOnce() -> TraceEvent>(f: F) {
    let event = f();
    SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.record(event);
        }
    });
}

/// Sets the simulated clock stamped onto subsequent records of this
/// thread's sink. Without a sink this is one thread-local load.
#[inline(always)]
pub fn set_clock(clock: u64) {
    if ON.get() {
        set_clock_cold(clock);
    }
}

#[cold]
#[inline(never)]
fn set_clock_cold(clock: u64) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.set_clock(clock);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(misses: u64) -> TraceEvent {
        TraceEvent::IntervalEnd { cpu: 0, tid: 1, reason: "yield", refs: misses, misses }
    }

    #[test]
    fn records_in_order_below_capacity() {
        let mut sink = TraceSink::new(8);
        sink.set_clock(5);
        sink.record(ev(1));
        sink.set_clock(9);
        sink.record(ev(2));
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].seq, recs[0].clock), (1, 5));
        assert_eq!((recs[1].seq, recs[1].clock), (2, 9));
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.events_emitted(), 2);
    }

    #[test]
    fn wraps_at_capacity_keeping_newest() {
        let mut sink = TraceSink::new(4);
        for i in 1..=6u64 {
            sink.record(ev(i));
        }
        let recs = sink.records();
        assert_eq!(recs.len(), 4, "ring must stay at capacity");
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6], "oldest records are overwritten first");
        assert_eq!(sink.events_emitted(), 6);
    }

    #[test]
    fn saturation_counts_drops() {
        let mut sink = TraceSink::new(2);
        for i in 0..10u64 {
            sink.record(ev(i));
        }
        assert_eq!(sink.dropped(), 8);
        // The aggregate still saw every event, wrapped or not.
        assert_eq!(sink.aggregate().intervals, 10);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut sink = TraceSink::new(0);
        sink.record(ev(1));
        sink.record(ev(2));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.records()[0].seq, 2);
    }

    #[test]
    fn install_take_round_trip() {
        install(16);
        emit_with(|| ev(3));
        let sink = take().expect("sink was installed");
        assert!(take().is_none(), "take removes the sink");
        assert_eq!(sink.events_emitted(), 1);
    }

    #[test]
    fn emit_without_sink_is_a_no_op() {
        let _ = take();
        emit_with(|| unreachable!("no sink is installed"));
        set_clock(7);
        assert!(take().is_none());
        install(16);
        assert!(take().is_some());
        emit_with(|| unreachable!("the sink was taken"));
        install(16);
        set_clock(4);
        emit_with(|| ev(2));
        let sink = take().expect("installed again");
        let (events, clock) = (sink.events_emitted(), sink.records()[0].clock);
        assert_eq!((events, clock), (1, 4), "install after take records again");
    }
}
