//! `RefMachine`: the whole simulated machine again, written to be
//! obviously right instead of fast, as the oracle `Machine` is held to.
//!
//! Every cache — L1-I, L1-D, the E-cache, and the TLB over page numbers —
//! is one [`Lru`]: per set, a recency stack in a `BTreeMap`, so on the
//! fully associative `1x8192` E-cache it is Mattson's LRU stack over the
//! whole cache. The hierarchy follows the hardware description step by
//! step: the L1 is probed first; an L1 miss, and every store (write-
//! through, no write-allocate), references the E-cache; an E-cache miss
//! fills, and the line it displaces leaves both L1s (inclusion); the L1
//! read-allocates after the E-cache step; a store purges every other
//! processor's copy. A `BTreeMap` of holder sets is the directory, and a
//! miss is remote when another processor holds the line. The TLB is
//! probed when a processor's page changes, as `Machine` probes it.
//!
//! Nothing is shared with `Machine` but the page table, so that frames
//! land where `Machine` puts them: no tag arrays, no batching, no slots,
//! no footprint tracker, no TLB hint.

use std::collections::{BTreeMap, BTreeSet};
use thread_locality::core::ThreadId;
use thread_locality::sim::paging::PageTable;
use thread_locality::sim::{
    AccessKind, CacheGeometry, CmlEntry, CpuStats, MachineConfig, PAddr, ThreadStats, VAddr,
};

/// One set of an [`Lru`]: each held line with the tick of its last use,
/// and the same pairs ordered by tick — the recency stack, least recent
/// first.
#[derive(Debug, Default)]
struct Set {
    tick_of: BTreeMap<u64, u64>,
    stack: BTreeMap<u64, u64>,
}

/// A set-associative cache with true LRU replacement.
#[derive(Debug)]
struct Lru {
    sets: u64,
    ways: usize,
    tick: u64,
    set: BTreeMap<u64, Set>,
}

impl Lru {
    fn new(sets: u64, ways: u64) -> Self {
        Lru { sets, ways: ways as usize, tick: 0, set: BTreeMap::new() }
    }

    fn of(geometry: CacheGeometry) -> Self {
        Lru::new(geometry.sets, geometry.ways)
    }

    /// Whether `line` is held; if so, it becomes the most recent.
    fn touch(&mut self, line: u64) -> bool {
        let Some(set) = self.set.get_mut(&(line % self.sets)) else { return false };
        let Some(old) = set.tick_of.get(&line).copied() else { return false };
        self.tick += 1;
        set.stack.remove(&old);
        set.stack.insert(self.tick, line);
        set.tick_of.insert(line, self.tick);
        true
    }

    /// Brings in `line` (not held) as the most recent; returns the least
    /// recent line of a set that was already full.
    fn fill(&mut self, line: u64) -> Option<u64> {
        self.tick += 1;
        let set = self.set.entry(line % self.sets).or_default();
        set.stack.insert(self.tick, line);
        set.tick_of.insert(line, self.tick);
        if set.tick_of.len() <= self.ways {
            return None;
        }
        let (_, victim) = set.stack.pop_first()?;
        set.tick_of.remove(&victim);
        Some(victim)
    }

    /// Drops `line` if held.
    fn remove(&mut self, line: u64) {
        if let Some(set) = self.set.get_mut(&(line % self.sets)) {
            if let Some(tick) = set.tick_of.remove(&line) {
                set.stack.remove(&tick);
            }
        }
    }

    fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.set.values().flat_map(|set| set.tick_of.keys().copied())
    }
}

/// One processor.
#[derive(Debug)]
struct Cpu {
    l1i: Lru,
    l1d: Lru,
    l2: Lru,
    tlb: Lru,
    /// The page of this processor's last reference.
    page: Option<u64>,
    stats: CpuStats,
    /// PIC0 (E-cache references) and PIC1 (E-cache hits), 32 bits each.
    pic: (u32, u32),
    /// The CML: `vpn mod slots → (vpn, misses)`, a colliding page replacing
    /// the one held.
    cml: BTreeMap<u64, CmlEntry>,
    running: Option<ThreadId>,
}

/// The reference machine.
#[derive(Debug)]
pub struct RefMachine {
    config: MachineConfig,
    page_table: PageTable,
    cpus: Vec<Cpu>,
    /// Physical E-cache line → the processors holding it.
    holders: BTreeMap<u64, BTreeSet<usize>>,
    /// Per thread, everything it issued while running.
    threads: BTreeMap<ThreadId, ThreadStats>,
    /// Per thread, the `[start, end)` byte ranges of its state.
    regions: BTreeMap<ThreadId, Vec<(u64, u64)>>,
    /// CML slots per processor (0 = no device).
    cml_slots: u64,
}

impl RefMachine {
    pub fn new(config: MachineConfig) -> Self {
        let h = config.hierarchy;
        let cpus = (0..config.cpus)
            .map(|_| Cpu {
                l1i: Lru::of(h.l1i),
                l1d: Lru::of(h.l1d),
                l2: Lru::of(h.l2),
                tlb: Lru::new(config.tlb.sets, config.tlb.ways),
                page: None,
                stats: CpuStats::default(),
                pic: (0, 0),
                cml: BTreeMap::new(),
                running: None,
            })
            .collect();
        let page_table = PageTable::new(config.page_bytes, config.l2_page_bins(), config.placement);
        RefMachine {
            config,
            page_table,
            cpus,
            holders: BTreeMap::new(),
            threads: BTreeMap::new(),
            regions: BTreeMap::new(),
            cml_slots: 0,
        }
    }

    pub fn enable_cml(&mut self, entries: usize) {
        self.cml_slots = entries.max(8).next_power_of_two() as u64;
    }

    pub fn register_region(&mut self, tid: ThreadId, start: VAddr, bytes: u64) {
        let end = start.0.saturating_add(bytes);
        self.regions.entry(tid).or_default().push((start.0, end));
    }

    pub fn set_running(&mut self, cpu: usize, tid: Option<ThreadId>) {
        self.cpus[cpu].running = tid;
    }

    /// Drops E-cache line `line` from `cpu`, with the L1 lines it covers.
    fn drop_line(&mut self, cpu: usize, line: u64) {
        let h = self.config.hierarchy;
        let c = &mut self.cpus[cpu];
        c.l2.remove(line);
        let bytes = line * h.l2.line..(line + 1) * h.l2.line;
        for (l1, l1_line) in [(&mut c.l1d, h.l1d.line), (&mut c.l1i, h.l1i.line)] {
            for sub in bytes.clone().step_by(l1_line as usize) {
                l1.remove(sub / l1_line);
            }
        }
        if let Some(set) = self.holders.get_mut(&line) {
            set.remove(&cpu);
        }
    }

    /// One reference; returns the cycles it cost.
    pub fn access(&mut self, cpu: usize, va: VAddr, kind: AccessKind) -> u64 {
        let (h, lat) = (self.config.hierarchy, self.config.latencies);
        let vpn = va.0 / self.config.page_bytes;
        let mut cycles = 0;
        let c = &mut self.cpus[cpu];
        if c.page != Some(vpn) {
            c.page = Some(vpn);
            if c.tlb.touch(vpn) {
                c.stats.tlb_hits += 1;
            } else {
                c.tlb.fill(vpn);
                c.stats.tlb_misses += 1;
                c.stats.tlb_walk_cycles += self.config.tlb.walk_cycles;
                cycles += self.config.tlb.walk_cycles;
            }
        }
        let pa = self.page_table.translate(va).0;
        let line = pa / h.l2.line;
        let (fetch, store) = (kind == AccessKind::Fetch, kind == AccessKind::Write);
        let (l1, l1_line) =
            if fetch { (&mut c.l1i, pa / h.l1i.line) } else { (&mut c.l1d, pa / h.l1d.line) };
        let l1_hit = l1.touch(l1_line);
        let l2_ref = store || !l1_hit;
        let l2_hit = l2_ref && c.l2.touch(line);
        let mut remote = false;
        if l2_ref && !l2_hit {
            let holders = self.holders.entry(line).or_default();
            remote = holders.iter().any(|&other| other != cpu);
            holders.insert(cpu);
            if let Some(victim) = self.cpus[cpu].l2.fill(line) {
                self.drop_line(cpu, victim);
            }
        }
        let c = &mut self.cpus[cpu];
        if !l1_hit && !store {
            let l1 = if fetch { &mut c.l1i } else { &mut c.l1d };
            l1.fill(l1_line);
        }
        if store {
            let others: Vec<usize> =
                self.holders[&line].iter().copied().filter(|&o| o != cpu).collect();
            for other in others {
                self.drop_line(other, line);
                self.cpus[other].stats.invalidations += 1;
            }
        }
        cycles += match (l1_hit, l2_hit, remote) {
            (true, ..) => lat.l1_hit,
            (_, true, _) => lat.l2_hit,
            (.., true) => lat.l2_miss_remote,
            _ => lat.l2_miss,
        };

        let c = &mut self.cpus[cpu];
        let s = &mut c.stats;
        s.instructions += 1;
        s.mem_cycles += cycles;
        if fetch {
            s.l1i_refs += 1;
            s.l1i_misses += u64::from(!l1_hit);
        } else {
            s.l1d_refs += 1;
            s.l1d_misses += u64::from(!l1_hit);
        }
        if l2_ref {
            s.l2_refs += 1;
            c.pic.0 = c.pic.0.wrapping_add(1);
            if l2_hit {
                s.l2_hits += 1;
                c.pic.1 = c.pic.1.wrapping_add(1);
            } else {
                s.l2_misses += 1;
                s.l2_misses_remote += u64::from(remote);
                if self.cml_slots > 0 {
                    let slot =
                        c.cml.entry(vpn % self.cml_slots).or_insert(CmlEntry { vpn, count: 0 });
                    if slot.vpn != vpn {
                        *slot = CmlEntry { vpn, count: 0 };
                    }
                    slot.count += 1;
                }
            }
        }
        if let Some(tid) = c.running {
            let t = self.threads.entry(tid).or_default();
            t.accesses += 1;
            t.instructions += 1;
            t.mem_cycles += cycles;
            t.l2_refs += u64::from(l2_ref);
            t.l2_misses += u64::from(l2_ref && !l2_hit);
        }
        cycles
    }

    pub fn cpu_stats(&self, cpu: usize) -> CpuStats {
        self.cpus[cpu].stats
    }

    pub fn thread_stats(&self, tid: ThreadId) -> ThreadStats {
        self.threads.get(&tid).copied().unwrap_or_default()
    }

    pub fn pic_raw(&self, cpu: usize) -> (u32, u32) {
        self.cpus[cpu].pic
    }

    pub fn l2_resident_lines(&self, cpu: usize) -> u64 {
        self.cpus[cpu].l2.lines().count() as u64
    }

    /// Per thread, the resident E-cache lines of `cpu` whose bytes touch
    /// its state; threads with none are left out.
    pub fn l2_footprints(&self, cpu: usize) -> Vec<(ThreadId, u64)> {
        let line_bytes = self.config.hierarchy.l2.line;
        let mut counts: BTreeMap<ThreadId, u64> = BTreeMap::new();
        for line in self.cpus[cpu].l2.lines() {
            let Some(va) = self.page_table.reverse(PAddr(line * line_bytes)) else { continue };
            let span = (va.0, va.0 + line_bytes);
            for (&tid, ranges) in &self.regions {
                if ranges.iter().any(|&(start, end)| start < span.1 && span.0 < end) {
                    *counts.entry(tid).or_default() += 1;
                }
            }
        }
        counts.into_iter().collect()
    }

    pub fn page_faults(&self) -> u64 {
        self.page_table.faults()
    }

    /// The CML's entries, by page, emptying it.
    pub fn cml_drain(&mut self, cpu: usize) -> Vec<CmlEntry> {
        let mut entries: Vec<CmlEntry> =
            std::mem::take(&mut self.cpus[cpu].cml).into_values().collect();
        entries.sort_by_key(|e| e.vpn);
        entries
    }
}
