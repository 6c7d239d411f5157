//! Per-thread statistics by differencing: `Machine` counts per processor
//! only and credits a thread with what its processor counted between two
//! settle points (`set_running`, `retire_thread`), plus whatever is in
//! flight when `thread_stats` is read.
//!
//! The reference here is the ledger the reference path used to keep: it
//! adds every single operation to whichever thread was declared running
//! on that processor when it was issued. The two must agree for every
//! thread ever seen after *every* step, not only at the settle points.

use proptest::prelude::*;
use std::collections::HashMap;
use thread_locality::core::ThreadId;
use thread_locality::sim::{AccessKind, Machine, MachineConfig, ThreadStats};

const ARENA: u64 = 1 << 18;
const STRIDES: [u64; 5] = [0, 8, 64, 200, 8192 + 64];

fn add(into: &mut ThreadStats, more: ThreadStats) {
    into.accesses += more.accesses;
    into.l2_refs += more.l2_refs;
    into.l2_misses += more.l2_misses;
    into.instructions += more.instructions;
    into.mem_cycles += more.mem_cycles;
}

proptest! {
    #[test]
    fn thread_stats_equal_a_per_operation_ledger(
        steps in proptest::collection::vec(
            (0u8..16, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            1..96,
        ),
    ) {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let arena = m.alloc(ARENA, 8192);
        // Three logical threads. Retiring one either hands its place to a
        // fresh id (which recycles the statistics slot) or keeps the id,
        // so a later `set_running` brings it back from cold storage.
        let mut current: Vec<ThreadId> = (1..=3).map(ThreadId).collect();
        let mut seen = current.clone();
        let mut declared: [Option<ThreadId>; 2] = [None, None];
        let mut ledger: HashMap<ThreadId, ThreadStats> = HashMap::new();
        let mut idle = ThreadStats::default();

        for (i, &(op, a, b, c)) in steps.iter().enumerate() {
            let cpu = (a % 2) as usize;
            let who = (a >> 8) as usize % current.len();
            let at = arena.offset(b % ARENA);
            let kind = match c % 3 {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Fetch,
            };
            let before = m.cpu_stats(cpu);
            // What this one operation did: (accesses, instructions, cycles).
            let issued = match op {
                0..=2 => {
                    // Both processors may run the same thread at once.
                    m.set_running(cpu, Some(current[who]));
                    declared[cpu] = Some(current[who]);
                    None
                }
                3 => {
                    m.set_running(cpu, None);
                    declared[cpu] = None;
                    None
                }
                4..=7 => Some((1, 1, m.access(cpu, at, kind))),
                8..=11 => {
                    let stride = STRIDES[(c >> 8) as usize % STRIDES.len()];
                    let room = (ARENA - b % ARENA).checked_div(stride).unwrap_or(u64::MAX);
                    let count = ((c >> 16) % 300).min(room);
                    Some((count, count, m.access_run(cpu, at, stride, count, kind)))
                }
                12..=13 => {
                    let n = c % 1000;
                    m.note_instructions(cpu, n);
                    Some((0, n, 0))
                }
                _ => {
                    // Possibly still running, possibly on both processors.
                    let tid = current[who];
                    m.retire_thread(tid);
                    for d in &mut declared {
                        if *d == Some(tid) {
                            *d = None;
                        }
                    }
                    if op == 14 {
                        current[who] = ThreadId(seen.len() as u64 + 1);
                        seen.push(current[who]);
                    }
                    None
                }
            };
            if let Some((accesses, instructions, mem_cycles)) = issued {
                let after = m.cpu_stats(cpu);
                let did = ThreadStats {
                    accesses,
                    l2_refs: after.l2_refs - before.l2_refs,
                    l2_misses: after.l2_misses - before.l2_misses,
                    instructions,
                    mem_cycles,
                };
                match declared[cpu] {
                    Some(tid) => add(ledger.entry(tid).or_default(), did),
                    None => add(&mut idle, did),
                }
            }

            let mut attributed = idle;
            for &t in &seen {
                let want = ledger.get(&t).copied().unwrap_or_default();
                prop_assert_eq!(
                    m.thread_stats(t), want,
                    "step {} ({:?}): {} with cpus running {:?}", i, steps[i], t, declared
                );
                add(&mut attributed, want);
            }
            let mut counted = ThreadStats::default();
            for cpu in 0..2 {
                add(&mut counted, ThreadStats::from(&m.cpu_stats(cpu)));
            }
            prop_assert_eq!(attributed, counted, "step {}: threads plus idle", i);
        }
    }
}
