//! Property test of the runtime sharing inference against a page-set
//! oracle: the model `SharingInference` kept before its page sets moved
//! into a `RegionTable` — a `BTreeSet` of pages per thread, the threads
//! of each page, and a shared-page count per thread pair, all updated by
//! hand.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use thread_locality::core::ThreadId;
use thread_locality::sim::cml::CmlEntry;
use thread_locality::threads::{InferenceConfig, SharingInference};

const THREADS: u64 = 4;
const PAGES: u64 = 16;

/// The oracle: explicit page sets and per-pair counters.
struct PageSets {
    config: InferenceConfig,
    pages: BTreeMap<ThreadId, BTreeSet<u64>>,
    page_threads: BTreeMap<u64, Vec<ThreadId>>,
    pair_shared: BTreeMap<(ThreadId, ThreadId), u64>,
}

fn pair(a: ThreadId, b: ThreadId) -> (ThreadId, ThreadId) {
    (a.min(b), a.max(b))
}

impl PageSets {
    fn new(config: InferenceConfig) -> Self {
        PageSets {
            config,
            pages: BTreeMap::new(),
            page_threads: BTreeMap::new(),
            pair_shared: BTreeMap::new(),
        }
    }

    fn note_interval(&mut self, tid: ThreadId, vpns: &[u64]) -> Vec<(ThreadId, ThreadId, f64)> {
        let mut touched = BTreeSet::new();
        for &vpn in vpns {
            let pages = self.pages.entry(tid).or_default();
            if pages.contains(&vpn) {
                continue;
            }
            if pages.len() >= self.config.max_pages_per_thread {
                break;
            }
            pages.insert(vpn);
            let owners = self.page_threads.entry(vpn).or_default();
            for &other in owners.iter() {
                *self.pair_shared.entry(pair(tid, other)).or_insert(0) += 1;
                touched.insert(other);
            }
            owners.push(tid);
        }
        let mut edges = Vec::new();
        for other in touched {
            if self.shared(tid, other) < self.config.min_shared_pages {
                continue;
            }
            edges.push((tid, other, self.coefficient(tid, other)));
            edges.push((other, tid, self.coefficient(other, tid)));
        }
        edges
    }

    fn shared(&self, a: ThreadId, b: ThreadId) -> u64 {
        self.pair_shared.get(&pair(a, b)).copied().unwrap_or(0)
    }

    fn tracked(&self, tid: ThreadId) -> u64 {
        self.pages.get(&tid).map_or(0, |p| p.len() as u64)
    }

    fn coefficient(&self, a: ThreadId, b: ThreadId) -> f64 {
        match self.tracked(a) {
            0 => 0.0,
            n => self.shared(a, b) as f64 / n as f64,
        }
    }

    fn forget(&mut self, tid: ThreadId) {
        for vpn in self.pages.remove(&tid).unwrap_or_default() {
            if let Some(owners) = self.page_threads.get_mut(&vpn) {
                owners.retain(|&t| t != tid);
                if owners.is_empty() {
                    self.page_threads.remove(&vpn);
                }
            }
        }
        self.pair_shared.retain(|&(a, b), _| a != tid && b != tid);
    }
}

proptest! {
    /// Random drains (repeats included) over four threads and sixteen
    /// pages, with a thread forgotten at random steps: every returned
    /// edge list equals the oracle's, and after every step so does every
    /// pair's shared count, every thread's page count and every
    /// coefficient, bit for bit.
    #[test]
    fn inference_matches_page_set_oracle(
        cap in 0usize..=8,
        floor in 1u64..=3,
        steps in proptest::collection::vec(
            (0u64..THREADS, proptest::collection::vec(0u64..PAGES, 0..12), 0u8..6),
            1..40,
        ),
    ) {
        let config = InferenceConfig { max_pages_per_thread: cap, min_shared_pages: floor };
        let mut inference = SharingInference::new(config);
        let mut oracle = PageSets::new(config);
        for (step, (tid, vpns, forget)) in steps.iter().enumerate() {
            let tid = ThreadId(*tid);
            if *forget == 0 {
                inference.forget(tid);
                oracle.forget(tid);
            } else {
                let drain: Vec<CmlEntry> = vpns.iter().map(|&vpn| CmlEntry { vpn, count: 1 }).collect();
                let got: Vec<(ThreadId, ThreadId, u64)> = inference
                    .note_interval(tid, &drain)
                    .into_iter()
                    .map(|e| (e.src, e.dst, e.q.to_bits()))
                    .collect();
                let want: Vec<(ThreadId, ThreadId, u64)> = oracle
                    .note_interval(tid, vpns)
                    .into_iter()
                    .map(|(src, dst, q)| (src, dst, q.to_bits()))
                    .collect();
                prop_assert_eq!(got, want, "edges of step {}", step);
            }
            for a in (0..THREADS).map(ThreadId) {
                prop_assert_eq!(inference.tracked_pages(a), oracle.tracked(a), "{} at step {}", a, step);
                for b in (0..THREADS).map(ThreadId).filter(|&b| b != a) {
                    prop_assert_eq!(
                        inference.shared_pages(a, b), oracle.shared(a, b), "{} ∩ {} at step {}", a, b, step
                    );
                    prop_assert_eq!(
                        inference.coefficient(a, b).to_bits(), oracle.coefficient(a, b).to_bits(),
                        "q({}, {}) at step {}", a, b, step
                    );
                }
            }
        }
    }
}
