//! Online aggregation of trace events into the metrics the paper's
//! evaluation cares about: interval miss counts, footprint-prediction
//! error, ready-queue depth, and per-dispatch update fan-out.
//!
//! Aggregation happens at record time (see
//! [`TraceSink::record`](crate::sink::TraceSink::record)), so the
//! metrics stay exact even when the ring buffer wraps and individual
//! event records are dropped.

use crate::event::TraceEvent;
use std::collections::BTreeMap;

/// Number of power-of-two histogram buckets.
pub const HIST_BUCKETS: usize = 32;

/// Observed footprints below this many lines are excluded from the
/// *relative* prediction-error average — the same cut
/// `MonitorTrace::mean_rel_error` applies, so the two agree exactly on
/// the same run.
const REL_ERR_MIN_OBSERVED: f64 = 64.0;

/// A power-of-two histogram: bucket 0 counts zeros, bucket `i >= 1`
/// counts values in `[2^(i-1), 2^i)`, with the last bucket absorbing
/// everything larger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS] }
    }
}

impl Histogram {
    /// The bucket index a value falls into.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (usize::try_from(u64::BITS - v.leading_zeros()).unwrap_or(HIST_BUCKETS))
                .min(HIST_BUCKETS - 1)
        }
    }

    /// The inclusive lower bound of bucket `i`.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Counts a value.
    pub fn note(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Total values counted.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// The running aggregate a [`TraceSink`](crate::sink::TraceSink) keeps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAggregate {
    /// Total events seen.
    pub events: u64,
    /// Scheduling intervals completed ([`TraceEvent::IntervalEnd`]).
    pub intervals: u64,
    /// Degradation-mode flips ([`TraceEvent::ModeTransition`]).
    pub mode_transitions: u64,
    /// Threads killed by lifecycle fault injection
    /// ([`TraceEvent::ThreadAbort`]).
    pub thread_aborts: u64,
    /// Histogram of per-interval sanitized miss counts.
    pub miss_hist: Histogram,
    /// Histogram of ready-queue depth at each dispatch.
    pub depth_hist: Histogram,
    /// Histogram of per-interval priority-update fan-out.
    pub fanout_hist: Histogram,
    /// Histogram of footprint-prediction absolute error in lines
    /// (rounded up to whole lines).
    pub abs_err_hist: Histogram,
    abs_err_sum: f64,
    abs_err_n: u64,
    /// Per-thread `(signed relative error sum, samples)` over prediction
    /// samples with at least [`REL_ERR_MIN_OBSERVED`] observed lines.
    rel_err: BTreeMap<u64, (f64, u64)>,
}

impl TraceAggregate {
    /// Folds one event in.
    pub fn note(&mut self, event: &TraceEvent) {
        self.events += 1;
        match *event {
            TraceEvent::IntervalBegin { ready_depth, .. } => {
                self.depth_hist.note(u64::from(ready_depth));
            }
            TraceEvent::IntervalEnd { misses, .. } => {
                self.intervals += 1;
                self.miss_hist.note(misses);
            }
            TraceEvent::PriorityUpdates { fanout, .. } => {
                self.fanout_hist.note(u64::from(fanout));
            }
            TraceEvent::ModeTransition { .. } => self.mode_transitions += 1,
            TraceEvent::ThreadAbort { .. } => self.thread_aborts += 1,
            TraceEvent::PredictionSample { tid, observed, predicted, .. } => {
                let abs = (predicted - observed).abs();
                self.abs_err_hist.note(abs.ceil() as u64);
                self.abs_err_sum += abs;
                self.abs_err_n += 1;
                if observed >= REL_ERR_MIN_OBSERVED {
                    let e = self.rel_err.entry(tid).or_insert((0.0, 0));
                    e.0 += (predicted - observed) / observed;
                    e.1 += 1;
                }
            }
            TraceEvent::PicRead { .. }
            | TraceEvent::SanitizerVerdict { .. }
            | TraceEvent::Dispatch { .. }
            | TraceEvent::TlbCounters { .. }
            | TraceEvent::CmlDrain { .. } => {}
        }
    }

    /// Mean absolute footprint-prediction error in lines (0 without
    /// samples).
    pub fn mean_abs_error(&self) -> f64 {
        if self.abs_err_n == 0 {
            0.0
        } else {
            self.abs_err_sum / self.abs_err_n as f64
        }
    }

    /// Mean signed relative prediction error for `tid` (0 without
    /// samples) — the Figure 5/7 deviation statistic.
    pub fn mean_rel_error(&self, tid: u64) -> f64 {
        match self.rel_err.get(&tid) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    /// Relative-error samples recorded for `tid`.
    pub fn rel_samples(&self, tid: u64) -> u64 {
        self.rel_err.get(&tid).map_or(0, |&(_, n)| n)
    }

    /// Absolute-error samples recorded, over every thread.
    pub fn abs_samples(&self) -> u64 {
        self.abs_err_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(3), 4);
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.note(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 2);
    }

    #[test]
    fn aggregate_tracks_each_metric() {
        let mut a = TraceAggregate::default();
        a.note(&TraceEvent::IntervalBegin {
            cpu: 0,
            tid: 1,
            ready_depth: 3,
            expected_footprint: 10.0,
        });
        a.note(&TraceEvent::IntervalEnd { cpu: 0, tid: 1, reason: "yield", refs: 9, misses: 5 });
        a.note(&TraceEvent::PriorityUpdates { tid: 1, fanout: 2 });
        a.note(&TraceEvent::ModeTransition { cpu: 0, degraded: true, confidence: 0.3 });
        assert_eq!(a.events, 4);
        assert_eq!(a.intervals, 1);
        assert_eq!(a.mode_transitions, 1);
        assert_eq!(a.miss_hist.buckets()[Histogram::bucket_of(5)], 1);
        assert_eq!(a.depth_hist.buckets()[Histogram::bucket_of(3)], 1);
        assert_eq!(a.fanout_hist.buckets()[Histogram::bucket_of(2)], 1);
    }

    #[test]
    fn prediction_error_matches_monitor_statistic() {
        let mut a = TraceAggregate::default();
        // Two qualifying samples at +10% error, one under the 64-line
        // observation cut that must be excluded from the relative mean.
        for (obs, pred) in [(100.0, 110.0), (200.0, 220.0), (10.0, 99.0)] {
            a.note(&TraceEvent::PredictionSample {
                cpu: 0,
                tid: 7,
                observed: obs,
                predicted: pred,
            });
        }
        assert!((a.mean_rel_error(7) - 0.1).abs() < 1e-12);
        assert_eq!(a.rel_samples(7), 2);
        assert_eq!(a.mean_rel_error(8), 0.0);
        // The absolute mean sees all three samples: (10 + 20 + 89) / 3.
        assert!((a.mean_abs_error() - 119.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.abs_samples(), 3);
    }
}
