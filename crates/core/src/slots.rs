//! Dense, generational thread-slot handles.
//!
//! Thread ids ([`ThreadId`]) are monotonically allocated and never
//! reused within a run, so the live ones grow sparse — perfect keys for
//! exports and reports, but poor indices for per-thread state on the
//! per-access and per-switch hot paths: a `HashMap<ThreadId, _>` per
//! table costs a hash and a probe per table where the paper budgets
//! "only several instructions". The [`ThreadSlots`] registry maps each
//! live thread to a small dense **slot index**, so hot per-thread state
//! lives in plain `Vec`s indexed by slot and a component pays one
//! resolution, not one per table.
//!
//! That resolution is an index, not a hash: the runtime hands ids out
//! as 1, 2, 3, … and never reuses one, so every id below a private bound
//! (2²⁰) resolves through a grow-on-bind table indexed by the id itself —
//! a bounds check, one load and a vacancy test. The table is as long as
//! the largest such id bound so far: 32 KiB for a paper-scale run's
//! ~4 000 ids, 8 MiB at the bound, never more. Ids at or above the bound,
//! which nothing the engine allocates reaches, fall back to an ordered
//! map, so any `u64` stays a valid [`ThreadId`]. Each component that
//! keeps slot-indexed state owns a registry, and the interfaces between
//! them speak `ThreadId`, so a context switch still resolves the thread
//! it is about once per component and entry point: the engine at
//! dispatch (the slot then rides in `current` and in the sleeper heap),
//! the scheduler in `on_ready` and `on_dispatch`, the estimator in each
//! by-`ThreadId` call, the sanitizer in `sanitize`, the machine in
//! `set_running`, the sharing graph in each row read, plus one each in
//! scheduler and estimator per annotation dependent of the thread that
//! blocked. Past that one step everything is an index.
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
use std::collections::BTreeMap;
use std::fmt;

/// Ids below this resolve through [`ThreadSlots`]'s direct table, the
/// rest through its ordered map. It caps the table at 2²⁰ handles
/// (8 MiB) whatever ids a caller invents.
const DIRECT_IDS: u64 = 1 << 20;

/// `tid`'s place in the direct table, if it has one.
#[inline]
fn direct_index(tid: ThreadId) -> Option<usize> {
    (tid.0 < DIRECT_IDS).then_some(tid.0 as usize)
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

/// What a direct-table entry holds while its id is unbound: an index no
/// slot can have ([`ThreadSlots::bind`] stops one short of it).
const VACANT: SlotId = SlotId { index: u32::MAX, generation: 0 };

/// The slot registry: a slab of dense indices over live threads.
///
/// * [`bind`](Self::bind) assigns the lowest-free slot (LIFO recycling)
///   and bumps the slot's generation;
/// * [`release`](Self::release) frees the slot for reuse;
/// * [`lookup`](Self::lookup) / [`tid_of`](Self::tid_of) translate in
///   both directions, with stale handles rejected by generation.
///
/// [`lookup`](Self::lookup) is the one resolution step (see the module
/// docs for what it costs and who pays it per switch); whoever holds a
/// [`SlotId`] indexes from there.
#[derive(Debug, Clone, Default)]
pub struct ThreadSlots {
    /// Slot -> bound thread (None = free).
    tids: Vec<Option<ThreadId>>,
    /// Slot -> generation of the current (or last) binding.
    generations: Vec<u32>,
    /// Thread id -> its live handle or [`VACANT`], for ids below
    /// [`DIRECT_IDS`]; as long as the largest such id ever bound. The
    /// generation is stored with the index so a lookup reads nothing
    /// else.
    direct: Vec<SlotId>,
    /// Thread -> its live handle, for the ids at or above [`DIRECT_IDS`].
    sparse: BTreeMap<ThreadId, SlotId>,
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
                let i = u32::try_from(self.tids.len())
                    .ok()
                    .filter(|&i| i != VACANT.index)
                    .expect("u32::MAX live threads");
                self.tids.push(Some(tid));
                self.generations.push(0);
                i
            }
        };
        let slot = SlotId { index, generation: self.generations[index as usize] };
        match direct_index(tid) {
            Some(i) => {
                if i >= self.direct.len() {
                    self.direct.resize(i + 1, VACANT);
                }
                self.direct[i] = slot;
            }
            None => {
                self.sparse.insert(tid, slot);
            }
        }
        slot
    }

    /// Releases `tid`'s slot for reuse; returns the freed handle, or
    /// `None` if the thread was not bound.
    pub fn release(&mut self, tid: ThreadId) -> Option<SlotId> {
        let slot = self.lookup(tid)?;
        match direct_index(tid) {
            Some(i) => self.direct[i] = VACANT,
            None => {
                self.sparse.remove(&tid);
            }
        }
        self.tids[slot.index()] = None;
        self.free.push(slot.index);
        Some(slot)
    }

    /// The live handle for `tid`, if bound.
    #[inline]
    pub fn lookup(&self, tid: ThreadId) -> Option<SlotId> {
        match direct_index(tid) {
            Some(i) => self.direct.get(i).copied().filter(|slot| slot.index != VACANT.index),
            None => self.sparse.get(&tid).copied(),
        }
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
        self.tids.len() - self.free.len()
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

    #[test]
    fn direct_table_never_outgrows_the_bound() {
        let mut s = ThreadSlots::new();
        for id in [u64::MAX, 1 << 40, DIRECT_IDS] {
            s.bind(t(id));
        }
        assert!(s.direct.is_empty(), "ids at or above the bound live in the map");
        s.bind(t(DIRECT_IDS - 1));
        assert_eq!(s.direct.len(), DIRECT_IDS as usize, "as long as the largest id, no longer");
        s.bind(t(7));
        s.bind(t(DIRECT_IDS + 1));
        assert_eq!(s.direct.len(), DIRECT_IDS as usize);
        assert_eq!(s.direct.len() * std::mem::size_of::<SlotId>(), 8 << 20, "the 8 MiB ceiling");
        assert_eq!(s.live(), 6);
    }
}
