//! Thread state regions: the footprint ground truth.
//!
//! The paper's Shade-based simulator "understands Active Threads context
//! switches" and tracks which cache lines belong to which thread — the
//! association that raw hardware counters lose (paper §3). We make the
//! association explicit: workloads register the virtual address ranges
//! that constitute each thread's state, possibly overlapping (shared
//! state). The machine then reports the *observed* footprint of a thread
//! as the number of resident L2 lines that intersect its regions, and the
//! region table can also derive the exact sharing coefficients
//! `q_ab = |state_a ∩ state_b| / |state_a|` that a perfectly annotated
//! program would pass to `at_share`.
//!
//! Internally the table keeps each thread's state as a sorted list of
//! disjoint, non-abutting ranges, so "is this range already mine, how
//! much state, how much of it shared, and where to find it at exit" never
//! looks at another thread's state (DESIGN.md §9.5). The address view
//! that answers "who owns this byte or line" — a map of **disjoint
//! segments**, each carrying the sorted set of owning threads, contiguous
//! ones with equal owners merged — is derived from those lists on the
//! first such question and kept current from then on. Only footprint
//! ground truth asks it: a run that never does pays for none of it.

use crate::addr::VAddr;
use locality_core::{ThreadId, ThreadSlots};
use std::cell::OnceCell;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    end: u64,
    owners: Vec<ThreadId>,
}

/// The address view: disjoint segments keyed by start address; no
/// segment abuts one with the same owners.
type Segments = BTreeMap<u64, Segment>;

/// A table of (possibly shared) thread state regions over virtual
/// addresses.
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    /// The address view, built from `ranges` by the first address
    /// question and edited with them from then on.
    index: OnceCell<Segments>,
    /// Dense slots for the threads that have state.
    slots: ThreadSlots,
    /// Slot-indexed: the thread's state as sorted, disjoint, non-abutting
    /// `[start, end)` ranges.
    ranges: Vec<Vec<(u64, u64)>>,
}

impl RegionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RegionTable::default()
    }

    /// Registers `[start, start+bytes)` as part of `tid`'s state.
    /// Overlaps with existing regions (its own or other threads') are
    /// fine; zero-length regions are ignored, and a region that would
    /// run past the end of the address space stops there.
    pub fn register(&mut self, tid: ThreadId, start: VAddr, bytes: u64) {
        let (s, e) = (start.0, start.0.saturating_add(bytes));
        // Fast path: nothing to register, or a periodic workload
        // re-registering the same region as every batch before.
        if self.covers(tid, start, bytes) {
            return;
        }
        if let Some(segments) = self.index.get_mut() {
            tag(segments, tid, s, e);
        }

        // The per-thread view: an interval union that swallows every
        // range `[s, e)` overlaps or abuts.
        let slot = self.slots.bind(tid).index();
        if slot >= self.ranges.len() {
            self.ranges.resize(slot + 1, Vec::new());
        }
        let list = &mut self.ranges[slot];
        let lo = list.partition_point(|r| r.1 < s);
        let hi = list.partition_point(|r| r.0 <= e);
        let merged = if lo < hi { (s.min(list[lo].0), e.max(list[hi - 1].1)) } else { (s, e) };
        list.splice(lo..hi, [merged]);
    }

    /// The address view, built on first use by tagging every live
    /// thread's ranges in turn: `tag` keeps the segments maximal whatever
    /// order the ranges come in, exactly as `register` and
    /// `remove_thread` keep them.
    fn segments(&self) -> &Segments {
        self.index.get_or_init(|| {
            let mut segments = Segments::new();
            for (slot, tid) in self.slots.iter_live() {
                for &(s, e) in &self.ranges[slot.index()] {
                    tag(&mut segments, tid, s, e);
                }
            }
            segments
        })
    }

    /// Whether the address view has been built — by the first
    /// [`owners_of`](Self::owners_of),
    /// [`owners_in_range_into`](Self::owners_in_range_into) or
    /// [`segment_count`](Self::segment_count). A test probe.
    #[doc(hidden)]
    pub fn is_indexed(&self) -> bool {
        self.index.get().is_some()
    }

    /// `tid`'s state as sorted, disjoint, non-abutting `[start, end)`
    /// ranges; empty if it has none.
    pub fn ranges_of(&self, tid: ThreadId) -> &[(u64, u64)] {
        self.slots.lookup(tid).map_or(&[], |slot| &self.ranges[slot.index()])
    }

    /// The one range of `tid` that can hold or meet `[s, ..)`: the first
    /// that ends past `s`. Ranges are maximal, so no other range of the
    /// thread holds `s`, and every earlier one lies wholly below it.
    fn range_ending_past(&self, tid: ThreadId, s: u64) -> Option<(u64, u64)> {
        let list = self.ranges_of(tid);
        list.get(list.partition_point(|r| r.1 <= s)).copied()
    }

    /// Whether every byte of `[start, start+bytes)` already belongs to
    /// `tid` — exactly when [`register`](Self::register) with the same
    /// arguments leaves the table as it is. Read-only, and answered from
    /// the thread's own range list, however its neighbours overlap it.
    pub fn covers(&self, tid: ThreadId, start: VAddr, bytes: u64) -> bool {
        let (s, e) = (start.0, start.0.saturating_add(bytes));
        s == e || self.range_ending_past(tid, s).is_some_and(|r| r.0 <= s && e <= r.1)
    }

    /// The owners of the byte at `addr` (sorted); empty if unregistered.
    pub fn owners_of(&self, addr: VAddr) -> &[ThreadId] {
        match self.segments().range(..=addr.0).next_back() {
            Some((_, seg)) if seg.end > addr.0 => &seg.owners,
            _ => &[],
        }
    }

    /// Whether any byte of `[start, start+bytes)` belongs to `tid`.
    pub fn range_touches(&self, tid: ThreadId, start: VAddr, bytes: u64) -> bool {
        let (s, e) = (start.0, start.0.saturating_add(bytes));
        s != e && self.range_ending_past(tid, s).is_some_and(|r| r.0 < e)
    }

    /// The union of owners over `[start, start+bytes)`, sorted, into a
    /// caller-owned buffer (cleared first), so per-line scans reuse one
    /// allocation.
    pub fn owners_in_range_into(&self, start: VAddr, bytes: u64, owners: &mut Vec<ThreadId>) {
        owners.clear();
        let (s, e) = (start.0, start.0.saturating_add(bytes));
        if s == e {
            return;
        }
        let mut merge = |seg: &Segment| {
            for &t in &seg.owners {
                if let Err(pos) = owners.binary_search(&t) {
                    owners.insert(pos, t);
                }
            }
        };
        let segments = self.segments();
        if let Some((_, seg)) = segments.range(..=s).next_back() {
            if seg.end > s {
                merge(seg);
            }
        }
        for (_, seg) in segments.range(s..e) {
            merge(seg);
        }
    }

    /// Total registered state of `tid`, in bytes.
    pub fn state_bytes(&self, tid: ThreadId) -> u64 {
        self.ranges_of(tid).iter().map(|&(s, e)| e - s).sum()
    }

    /// Bytes shared between the states of `a` and `b`: one pass over the
    /// two range lists, always stepping past the range that ends first.
    pub fn shared_bytes(&self, a: ThreadId, b: ThreadId) -> u64 {
        let (ra, rb) = (self.ranges_of(a), self.ranges_of(b));
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while let (Some(x), Some(y)) = (ra.get(i), rb.get(j)) {
            shared += x.1.min(y.1).saturating_sub(x.0.max(y.0));
            if x.1 <= y.1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        shared
    }

    /// The exact sharing coefficient `q_ab = |a ∩ b| / |a|` — what a
    /// perfectly informed `at_share(a, b, q)` annotation would say.
    /// Zero if `a` has no registered state.
    pub fn coefficient(&self, a: ThreadId, b: ThreadId) -> f64 {
        let total = self.state_bytes(a);
        if total == 0 {
            0.0
        } else {
            self.shared_bytes(a, b) as f64 / total as f64
        }
    }

    /// Drops `tid`'s state (thread exit). With the address view built,
    /// only the segments inside `tid`'s own ranges are visited: they tile
    /// those ranges exactly, and no other lists it.
    pub fn remove_thread(&mut self, tid: ThreadId) {
        let Some(slot) = self.slots.release(tid) else {
            return;
        };
        let list = &mut self.ranges[slot.index()];
        if let Some(segments) = self.index.get_mut() {
            for &(s, e) in list.iter() {
                untag(segments, tid, s, e);
            }
        }
        list.clear();
    }

    /// Number of address-view segments (diagnostics).
    pub fn segment_count(&self) -> usize {
        self.segments().len()
    }
}

/// Adds `tid` to the owners of every byte of `[s, e)`. With a boundary
/// at either end, the segments starting in `[s, e)` lie wholly inside
/// it: tag each one and fill the gaps between.
fn tag(segments: &mut Segments, tid: ThreadId, s: u64, e: u64) {
    split_at(segments, s);
    split_at(segments, e);
    let mut cursor = s;
    while cursor < e {
        match segments.range_mut(cursor..e).next() {
            Some((&ss, seg)) if ss == cursor => {
                if let Err(pos) = seg.owners.binary_search(&tid) {
                    seg.owners.insert(pos, tid);
                }
                cursor = seg.end;
            }
            next => {
                let end = next.map_or(e, |(&ss, _)| ss);
                segments.insert(cursor, Segment { end, owners: vec![tid] });
                cursor = end;
            }
        }
    }
    coalesce(segments, s, e);
}

/// Takes `tid` off the segments inside its range `[s, e)`; segments left
/// ownerless are dropped.
fn untag(segments: &mut Segments, tid: ThreadId, s: u64, e: u64) {
    let mut empty = Vec::new();
    for (&start, seg) in segments.range_mut(s..e) {
        if let Ok(pos) = seg.owners.binary_search(&tid) {
            seg.owners.remove(pos);
            if seg.owners.is_empty() {
                empty.push(start);
            }
        }
    }
    for start in empty {
        segments.remove(&start);
    }
    coalesce(segments, s, e);
}

/// Cuts the segment that straddles `addr`, if one does, in two there.
fn split_at(segments: &mut Segments, addr: u64) {
    if let Some((_, seg)) = segments.range_mut(..addr).next_back() {
        if seg.end > addr {
            let tail = Segment { end: seg.end, owners: seg.owners.clone() };
            seg.end = addr;
            segments.insert(addr, tail);
        }
    }
}

/// Merges every segment that starts in `[s, e]` into the one before it
/// when the two abut and list the same owners — the only places a change
/// confined to `[s, e)` can have made two neighbours equal.
fn coalesce(segments: &mut Segments, s: u64, e: u64) {
    let mut at = s;
    while at <= e {
        let Some((&start, seg)) = segments.range(at..=e).next() else {
            return;
        };
        at = seg.end;
        let same = |(_, p): &(&u64, &Segment)| p.end == start && p.owners == seg.owners;
        if let Some((&prev, _)) = segments.range(..start).next_back().filter(same) {
            segments.remove(&start);
            if let Some(prev) = segments.get_mut(&prev) {
                prev.end = at;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn single_region_lookup() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(100), 50);
        assert_eq!(r.owners_of(VAddr(100)), &[t(1)]);
        assert_eq!(r.owners_of(VAddr(149)), &[t(1)]);
        assert!(r.owners_of(VAddr(150)).is_empty());
        assert!(r.owners_of(VAddr(99)).is_empty());
        assert_eq!(r.state_bytes(t(1)), 50);
    }

    #[test]
    fn zero_length_ignored() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(100), 0);
        assert_eq!(r.segment_count(), 0);
    }

    #[test]
    fn exact_overlap_shares() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(0), 100);
        r.register(t(2), VAddr(0), 100);
        assert_eq!(r.owners_of(VAddr(50)), &[t(1), t(2)]);
        assert_eq!(r.shared_bytes(t(1), t(2)), 100);
        assert_eq!(r.coefficient(t(1), t(2)), 1.0);
    }

    #[test]
    fn partial_overlap_splits() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(0), 100);
        r.register(t(2), VAddr(50), 100);
        assert_eq!(r.owners_of(VAddr(25)), &[t(1)]);
        assert_eq!(r.owners_of(VAddr(75)), &[t(1), t(2)]);
        assert_eq!(r.owners_of(VAddr(125)), &[t(2)]);
        assert_eq!(r.shared_bytes(t(1), t(2)), 50);
        assert!((r.coefficient(t(1), t(2)) - 0.5).abs() < 1e-12);
        assert!((r.coefficient(t(2), t(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contained_overlap() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(0), 300);
        r.register(t(2), VAddr(100), 100);
        assert_eq!(r.owners_of(VAddr(150)), &[t(1), t(2)]);
        assert_eq!(r.owners_of(VAddr(250)), &[t(1)]);
        // Mergesort-style: all of child 2's state is inside parent 1's.
        assert_eq!(r.coefficient(t(2), t(1)), 1.0);
        assert!((r.coefficient(t(1), t(2)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gap_filling_across_segments() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(10), 10); // [10,20)
        r.register(t(1), VAddr(40), 10); // [40,50)
        r.register(t(2), VAddr(0), 60); // covers both and the gaps
        assert_eq!(r.owners_of(VAddr(5)), &[t(2)]);
        assert_eq!(r.owners_of(VAddr(15)), &[t(1), t(2)]);
        assert_eq!(r.owners_of(VAddr(30)), &[t(2)]);
        assert_eq!(r.owners_of(VAddr(45)), &[t(1), t(2)]);
        assert_eq!(r.state_bytes(t(2)), 60);
        assert_eq!(r.shared_bytes(t(1), t(2)), 20);
    }

    #[test]
    fn reregistering_same_range_is_idempotent() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(0), 100);
        r.register(t(1), VAddr(0), 100);
        assert_eq!(r.state_bytes(t(1)), 100);
        assert_eq!(r.owners_of(VAddr(0)), &[t(1)]);
    }

    #[test]
    fn covers_sees_through_split_segments() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(0), 100);
        assert!(r.covers(t(1), VAddr(0), 100));
        // Neighbours' overlaps split t1's range into three segments.
        r.register(t(2), VAddr(50), 100);
        r.register(t(3), VAddr(20), 10);
        let segments = r.segment_count();
        assert!(segments >= 4);
        assert!(r.covers(t(1), VAddr(0), 100), "still owned end to end");
        assert!(r.covers(t(1), VAddr(10), 50), "sub-range, boundaries inside segments");
        r.register(t(1), VAddr(0), 100);
        assert_eq!(r.segment_count(), segments, "re-registration changes nothing");
        // One byte past the end, a gap, or a foreign segment breaks it.
        assert!(!r.covers(t(1), VAddr(0), 101));
        assert!(!r.covers(t(2), VAddr(40), 20));
        assert!(!r.covers(t(1), VAddr(200), 1));
        r.register(t(1), VAddr(160), 10);
        assert!(!r.covers(t(1), VAddr(90), 80), "gap at [150, 160)");
        assert!(r.covers(t(1), VAddr(5), 0), "an empty range registers nothing");
    }

    #[test]
    fn range_touches() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(100), 20);
        assert!(r.range_touches(t(1), VAddr(90), 15)); // overlaps head
        assert!(r.range_touches(t(1), VAddr(110), 50)); // overlaps tail
        assert!(r.range_touches(t(1), VAddr(105), 2)); // inside
        assert!(!r.range_touches(t(1), VAddr(0), 100));
        assert!(!r.range_touches(t(1), VAddr(120), 100));
        assert!(!r.range_touches(t(2), VAddr(100), 20));
        assert!(!r.range_touches(t(1), VAddr(100), 0));
    }

    #[test]
    fn remove_thread_drops_exclusive_segments() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(0), 100);
        r.register(t(2), VAddr(50), 100);
        r.remove_thread(t(1));
        assert!(r.owners_of(VAddr(25)).is_empty());
        assert_eq!(r.owners_of(VAddr(75)), &[t(2)]);
        assert_eq!(r.state_bytes(t(1)), 0);
        assert_eq!(r.state_bytes(t(2)), 100);
    }

    #[test]
    fn three_way_sharing() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(0), 90);
        r.register(t(2), VAddr(30), 90);
        r.register(t(3), VAddr(60), 90);
        assert_eq!(r.owners_of(VAddr(70)), &[t(1), t(2), t(3)]);
        assert_eq!(r.shared_bytes(t(1), t(3)), 30);
        assert_eq!(r.shared_bytes(t(2), t(3)), 60);
    }

    #[test]
    fn owners_in_range_unions() {
        let mut r = RegionTable::new();
        r.register(t(1), VAddr(0), 100);
        r.register(t(2), VAddr(50), 100);
        r.register(t(3), VAddr(200), 10);
        let mut owners = vec![t(9)];
        let mut in_range = |start, bytes| {
            r.owners_in_range_into(VAddr(start), bytes, &mut owners);
            owners.clone()
        };
        assert_eq!(in_range(40, 20), vec![t(1), t(2)]);
        assert_eq!(in_range(0, 10), vec![t(1)]);
        assert_eq!(in_range(0, 300), vec![t(1), t(2), t(3)]);
        assert!(in_range(300, 10).is_empty());
        assert!(in_range(0, 0).is_empty());
        // Starting mid-segment still sees the covering segment.
        assert_eq!(in_range(75, 1), vec![t(1), t(2)]);
    }

    #[test]
    fn segment_count_stays_bounded() {
        // Registering the same ranges repeatedly must not grow the map.
        let mut r = RegionTable::new();
        for _ in 0..10 {
            for i in 0..20u64 {
                r.register(t(i % 4), VAddr(i * 64), 64);
            }
        }
        assert!(r.segment_count() <= 20);
    }
}
