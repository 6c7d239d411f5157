//! Dense, generational thread-slot handles.
//!
//! Thread ids ([`ThreadId`]) are sparse, monotonically allocated, and
//! never reused within a run — perfect keys for exports and reports,
//! but poor indices for the per-access and per-switch hot paths: a
//! `HashMap<ThreadId, _>` per table costs a hash and a probe per table
//! where the paper budgets "only several instructions". The
//! [`ThreadSlots`] registry maps each live thread to a small dense
//! **slot index**, so hot per-thread state lives in plain `Vec`s indexed
//! by slot and a component pays one resolution, not one per table.
//!
//! That resolution is a `ThreadId -> SlotId` hash map under an in-tree
//! integer hasher (one multiply and an xor, then one group probe: about
//! 4 ns where std's SipHash took ~20). Each component that keeps
//! slot-indexed state owns a registry, and the interfaces between them
//! speak `ThreadId`, so a context switch still resolves the thread it
//! is about once per component and entry point: the engine at dispatch
//! (the slot then rides in `current` and in the sleeper heap), the
//! scheduler in `on_ready` and `on_dispatch`, the estimator in each
//! by-`ThreadId` call, the sanitizer in `sanitize`, the machine in
//! `set_running`, plus one each in scheduler and estimator per
//! annotation dependent of the thread that blocked. Past that one step
//! everything is an index.
//!
//! Slots are recycled when threads exit, which is exactly why the
//! handle is *generational*: a [`SlotId`] pairs the index with the
//! generation of its binding, and resolving a stale handle (the slot
//! was rebound to a younger thread) fails instead of silently aliasing
//! the new thread's state. Consumers that keep `Vec`s indexed by slot
//! must reset the slot's entry when a binding is created (see
//! [`ThreadSlots::bind`]) — the recycling invariant the proptest suite
//! in `tests/` exercises.
//!
//! Exports and CSV artifacts stay [`ThreadId`]-keyed: slot indices
//! depend on recycling order, so they are process-internal only.

use crate::ThreadId;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of the `ThreadId -> slot` map: one widening multiply,
/// folded.
///
/// Thread ids are `u64`s the runtime allocates sequentially, not input
/// an attacker picks, so the map does not need SipHash's collision
/// resistance, and ten to twenty-five SipHash probes were most of what
/// a context switch cost. The id is multiplied by 2⁶⁴/φ (odd) into 128
/// bits and the two halves are xored: the low half carries every input
/// bit upward, the high half carries the high input bits back down, so
/// both ends of the result depend on all of the id. The table takes its
/// bucket index from the low bits and its 7-bit control tag from the
/// top; sequential ids, strided ids and ids that differ only in their
/// high bits spread over both (the tests below count).
#[derive(Debug, Clone, Copy, Default)]
struct TidHasher(u64);

impl Hasher for TidHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let wide = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }

    /// Only `ThreadId` (one `write_u64`) is ever hashed; any other key
    /// shape is folded in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A generational handle to a dense thread slot.
///
/// Obtained from [`ThreadSlots::bind`] or [`ThreadSlots::lookup`];
/// resolves back to a [`ThreadId`] only while the binding it was
/// created under is still live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

impl SlotId {
    /// The dense index, for indexing slot-sized `Vec`s.
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The binding generation this handle was issued under.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}g{}", self.index, self.generation)
    }
}

/// The slot registry: a slab of dense indices over live threads.
///
/// * [`bind`](Self::bind) assigns the lowest-free slot (LIFO recycling)
///   and bumps the slot's generation;
/// * [`release`](Self::release) frees the slot for reuse;
/// * [`lookup`](Self::lookup) / [`tid_of`](Self::tid_of) translate in
///   both directions, with stale handles rejected by generation.
///
/// [`lookup`](Self::lookup) is the one hashing step (see the module
/// docs for what it costs and who pays it per switch); whoever holds a
/// [`SlotId`] indexes from there.
#[derive(Debug, Clone, Default)]
pub struct ThreadSlots {
    /// Slot -> bound thread (None = free).
    tids: Vec<Option<ThreadId>>,
    /// Slot -> generation of the current (or last) binding.
    generations: Vec<u32>,
    /// Thread -> its live handle, under [`TidHasher`]. The generation is
    /// stored with the index so a lookup reads nothing else.
    by_tid: HashMap<ThreadId, SlotId, BuildHasherDefault<TidHasher>>,
    /// Free slot indices, reused LIFO.
    free: Vec<u32>,
}

impl ThreadSlots {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ThreadSlots::default()
    }

    /// Binds `tid` to a slot and returns its handle. Rebinding an
    /// already-bound thread returns the existing handle.
    pub fn bind(&mut self, tid: ThreadId) -> SlotId {
        if let Some(slot) = self.lookup(tid) {
            return slot;
        }
        let index = match self.free.pop() {
            Some(i) => {
                self.tids[i as usize] = Some(tid);
                self.generations[i as usize] = self.generations[i as usize].wrapping_add(1);
                i
            }
            None => {
                let i = u32::try_from(self.tids.len()).expect("more than u32::MAX live threads");
                self.tids.push(Some(tid));
                self.generations.push(0);
                i
            }
        };
        let slot = SlotId { index, generation: self.generations[index as usize] };
        self.by_tid.insert(tid, slot);
        slot
    }

    /// Releases `tid`'s slot for reuse; returns the freed handle, or
    /// `None` if the thread was not bound.
    pub fn release(&mut self, tid: ThreadId) -> Option<SlotId> {
        let slot = self.by_tid.remove(&tid)?;
        self.tids[slot.index()] = None;
        self.free.push(slot.index);
        Some(slot)
    }

    /// The live handle for `tid`, if bound.
    #[inline]
    pub fn lookup(&self, tid: ThreadId) -> Option<SlotId> {
        self.by_tid.get(&tid).copied()
    }

    /// Resolves a handle back to its thread; `None` if the slot was
    /// released or rebound since the handle was issued.
    #[inline]
    pub fn tid_of(&self, slot: SlotId) -> Option<ThreadId> {
        if self.generations.get(slot.index())? != &slot.generation {
            return None;
        }
        self.tids[slot.index()]
    }

    /// Whether `slot` still refers to the binding it was issued under.
    #[inline]
    pub fn is_live(&self, slot: SlotId) -> bool {
        self.tid_of(slot).is_some()
    }

    /// Number of live bindings.
    pub fn live(&self) -> usize {
        self.by_tid.len()
    }

    /// Total slots ever allocated — the size hot-path `Vec`s must grow
    /// to so every slot index is in bounds.
    pub fn capacity(&self) -> usize {
        self.tids.len()
    }

    /// Iterates live `(SlotId, ThreadId)` bindings in slot order.
    /// Control-path only: slot order is recycling-dependent, so
    /// anything exported must be re-keyed (and sorted) by `ThreadId`.
    pub fn iter_live(&self) -> impl Iterator<Item = (SlotId, ThreadId)> + '_ {
        self.tids.iter().enumerate().filter_map(|(i, tid)| {
            let tid = (*tid)?;
            let index = i as u32;
            Some((SlotId { index, generation: self.generations[i] }, tid))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn bind_assigns_dense_indices() {
        let mut s = ThreadSlots::new();
        assert_eq!(s.bind(t(10)).index(), 0);
        assert_eq!(s.bind(t(20)).index(), 1);
        assert_eq!(s.bind(t(30)).index(), 2);
        assert_eq!(s.live(), 3);
        assert_eq!(s.capacity(), 3);
    }

    #[test]
    fn rebinding_is_idempotent() {
        let mut s = ThreadSlots::new();
        let a = s.bind(t(1));
        assert_eq!(s.bind(t(1)), a);
        assert_eq!(s.live(), 1);
    }

    #[test]
    fn release_recycles_lifo_with_new_generation() {
        let mut s = ThreadSlots::new();
        let a = s.bind(t(1));
        s.bind(t(2));
        assert_eq!(s.release(t(1)), Some(a));
        let b = s.bind(t(3));
        assert_eq!(b.index(), a.index(), "freed slot is reused");
        assert_ne!(b.generation(), a.generation(), "rebinding bumps the generation");
        // The stale handle no longer resolves; the fresh one does.
        assert_eq!(s.tid_of(a), None);
        assert_eq!(s.tid_of(b), Some(t(3)));
        assert!(!s.is_live(a));
        assert!(s.is_live(b));
    }

    #[test]
    fn release_unknown_is_none() {
        let mut s = ThreadSlots::new();
        assert_eq!(s.release(t(7)), None);
    }

    #[test]
    fn lookup_tracks_bindings() {
        let mut s = ThreadSlots::new();
        assert_eq!(s.lookup(t(1)), None);
        let a = s.bind(t(1));
        assert_eq!(s.lookup(t(1)), Some(a));
        s.release(t(1));
        assert_eq!(s.lookup(t(1)), None);
    }

    #[test]
    fn iter_live_is_slot_ordered() {
        let mut s = ThreadSlots::new();
        s.bind(t(5));
        s.bind(t(3));
        s.bind(t(9));
        s.release(t(3));
        let live: Vec<ThreadId> = s.iter_live().map(|(_, tid)| tid).collect();
        assert_eq!(live, vec![t(5), t(9)]);
        assert_eq!(s.capacity(), 3, "capacity counts released slots too");
    }

    #[test]
    fn display_shows_index_and_generation() {
        let mut s = ThreadSlots::new();
        s.bind(t(1));
        s.release(t(1));
        let b = s.bind(t(2));
        assert_eq!(b.to_string(), "s0g1");
    }

    /// What the table does with a hash: the bucket index is its low
    /// bits (a table sized for `n` keys at 7/8 load), the control tag
    /// its top seven. Every bit of both must take both values over the
    /// key set, and no bucket or tag may collect far more than its
    /// share: a constant bit halves the table, a crowded bucket turns
    /// a probe into a scan.
    fn assert_spreads(name: &str, keys: impl Iterator<Item = u64>) {
        use std::hash::BuildHasher;
        let hashes: Vec<u64> =
            keys.map(|k| BuildHasherDefault::<TidHasher>::default().hash_one(t(k))).collect();
        let n = hashes.len();
        let index_bits = (n * 8 / 7).next_power_of_two().trailing_zeros();
        for bit in (0..index_bits).chain(57..64) {
            let ones = hashes.iter().filter(|&&h| h >> bit & 1 == 1).count();
            assert!(
                ones * 4 > n && ones * 4 < n * 3,
                "{name}: bit {bit} is set in {ones} of {n} hashes"
            );
        }
        let mut buckets = vec![0u32; 1 << index_bits];
        let mut tags = [0usize; 128];
        for &h in &hashes {
            buckets[(h & ((1 << index_bits) - 1)) as usize] += 1;
            tags[(h >> 57) as usize] += 1;
        }
        let fullest = buckets.iter().max().unwrap();
        assert!(*fullest <= 8, "{name}: {fullest} keys share a bucket");
        let commonest = tags.iter().max().unwrap();
        assert!(*commonest * 128 <= n * 2, "{name}: {commonest} of {n} keys share a tag");
    }

    #[test]
    fn hasher_spreads_sequential_ids() {
        assert_spreads("1..=65536", 1..=65536);
    }

    #[test]
    fn hasher_spreads_strided_ids() {
        for stride in [8, 64, 4096, 1 << 20] {
            assert_spreads(&format!("stride {stride}"), (0..4096).map(|i| i * stride));
        }
    }

    #[test]
    fn hasher_spreads_ids_that_differ_only_in_high_bits() {
        for shift in [32, 40, 48] {
            assert_spreads(&format!("7 + (i << {shift})"), (0..4096).map(|i| 7 + (i << shift)));
        }
    }

    #[test]
    fn any_u64_is_a_valid_thread_id() {
        // The engine allocates from 1, `repro` and the sim tests use 0, 1
        // and 2, and the public API takes any `u64`.
        let mut s = ThreadSlots::new();
        let ids = [0, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63];
        let handles: Vec<SlotId> = ids.iter().map(|&i| s.bind(t(i))).collect();
        for (&i, &h) in ids.iter().zip(&handles) {
            assert_eq!(s.lookup(t(i)), Some(h));
            assert_eq!(s.tid_of(h), Some(t(i)));
        }
        assert_eq!(s.release(t(u64::MAX)), Some(handles[3]));
        assert_eq!(s.lookup(t(u64::MAX)), None);
        assert_eq!(s.lookup(t(0)), Some(handles[0]));
        let again = s.bind(t(u64::MAX));
        assert_eq!(again.index(), handles[3].index());
        assert_ne!(again.generation(), handles[3].generation());
        assert_eq!(s.live(), ids.len());
    }
}
