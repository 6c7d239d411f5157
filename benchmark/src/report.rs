//! The metric catalogue and the result a run prints.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps them in step): a run with tracing off
//! reports exactly [`END_TO_END`], a traced run exactly [`PER_LAYER`],
//! on every workload. A per-layer metric the workload does not exercise
//! reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_minstr_per_host_s", "Minstr/s"),
    ("host_ns_per_switch", "ns"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles_per_instr", "cycles/instr"),
    ("sim_l2_mpki", "1/kinstr"),
    ("model_abs_rel_err", "ratio"),
];

/// `(name, unit)` of every per-layer metric, layer by layer.
pub const PER_LAYER: [(&str, &str); 84] = [
    // sim: the reference stream replayed into the machine and its parts.
    ("sim.replay_ns_per_ref", "ns"),
    ("sim.share_of_run", "ratio"),
    ("sim.run_ns_per_ref", "ns"),
    ("sim.mean_run_len", "refs"),
    ("sim.translate_ns_per_ref", "ns"),
    ("sim.tlb_ns_per_probe", "ns"),
    ("sim.tag_probe_ns_per_ref", "ns"),
    ("sim.hierarchy_ns_per_ref", "ns"),
    ("sim.directory_stats_ns_per_ref", "ns"),
    ("sim.footprint_query_us", "us"),
    ("sim.machine_new_us", "us"),
    ("sim.refs", "count"),
    ("sim.l1d_misses", "count"),
    ("sim.l2_refs", "count"),
    ("sim.l2_misses", "count"),
    ("sim.l2_misses_remote", "count"),
    ("sim.invalidations", "count"),
    ("sim.tlb_misses", "count"),
    ("sim.page_faults", "count"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    // core: the model and the priority arithmetic over recorded deltas.
    ("core.sanitize_ns_per_interval", "ns"),
    ("core.prio_update_ns.blocking", "ns"),
    ("core.prio_update_ns.dependent", "ns"),
    ("core.estimator_switch_ns.closed_form", "ns"),
    ("core.estimator_switch_ns.per_set", "ns"),
    ("core.graph_compact_us", "us"),
    ("core.mean_out_degree", "edges"),
    ("core.chain_tabulate_ms", "ms"),
    ("core.chain_lookup_ns", "ns"),
    ("core.flops_per_switch", "flops"),
    ("core.lookups_per_switch", "lookups"),
    // threads: the engine, the schedulers, the heap.
    ("threads.residual_ns_per_switch.indep", "ns"),
    ("threads.residual_ns_per_switch.dep", "ns"),
    ("threads.sched_replay_ns_per_switch.fcfs", "ns"),
    ("threads.sched_replay_ns_per_switch.lff", "ns"),
    ("threads.sched_replay_ns_per_switch.crt", "ns"),
    ("threads.heap_update_ns", "ns"),
    ("threads.heap_push_pop_ns", "ns"),
    ("threads.engine_new_us", "us"),
    ("threads.spawn_us_per_thread", "us"),
    ("threads.context_switches", "count"),
    ("threads.steals", "count"),
    ("threads.threads_completed", "count"),
    ("threads.degraded_intervals", "count"),
    ("threads.corrected_intervals", "count"),
    ("threads.lff_misses_vs_fcfs", "ratio"),
    ("threads.crt_misses_vs_fcfs", "ratio"),
    ("threads.lff_speedup_vs_fcfs", "ratio"),
    ("threads.crt_speedup_vs_fcfs", "ratio"),
    // workloads: native computation and BatchCtx glue, per application.
    ("workloads.residual_ns_per_ref.tasks", "ns"),
    ("workloads.residual_ns_per_ref.merge", "ns"),
    ("workloads.residual_ns_per_ref.photo", "ns"),
    ("workloads.residual_ns_per_ref.tsp", "ns"),
    ("workloads.residual_ns_per_ref.barnes", "ns"),
    ("workloads.residual_ns_per_ref.fmm", "ns"),
    ("workloads.residual_ns_per_ref.ocean", "ns"),
    ("workloads.residual_ns_per_ref.typechecker", "ns"),
    ("workloads.residual_ns_per_ref.raytrace", "ns"),
    ("workloads.spawn_ms", "ms"),
    // repro: the runner, its cache, the emitters.
    ("repro.cold_wall_s", "s"),
    ("repro.warm_wall_ms", "ms"),
    ("repro.requests_ms", "ms"),
    ("repro.descriptors", "count"),
    ("repro.unique_descriptors", "count"),
    ("repro.run_all_cold_s", "s"),
    ("repro.run_all_warm_ms", "ms"),
    ("repro.fresh_runs", "count"),
    ("repro.cached_runs", "count"),
    ("repro.serial_exec_s", "s"),
    ("repro.longest_cell_s", "s"),
    ("repro.parallel_efficiency", "ratio"),
    ("repro.cache_load_us_per_entry", "us"),
    ("repro.cache_bytes", "bytes"),
    ("repro.sha256_mb_per_s", "MB/s"),
    ("repro.emit_ms", "ms"),
    // analysis and trace: probes only; nothing end to end runs them yet.
    ("analysis.explore_us_per_schedule", "us"),
    ("analysis.schedules", "count"),
    ("trace.sink_record_ns", "ns"),
    ("trace.export_jsonl_mb_per_s", "MB/s"),
    // bench: what the harness itself costs.
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.untraced_run_s", "s"),
    ("bench.traced_run_s", "s"),
    ("bench.clock_hook_ns_per_switch", "ns"),
];

/// What one run of the harness found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked: one per engine run, replay or artifact.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure messages, for the human-readable part.
    pub failures: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Counts one checked operation; `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records a metric. A value that is not a finite number is a failed
    /// operation and reads 0, so the result stays valid JSON.
    pub fn metric(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name.to_string(), value);
        } else {
            self.op(false, || format!("metric {name} is {value}"));
            self.metrics.insert(name.to_string(), 0.0);
        }
    }

    /// Counts a failed operation for every metric of `catalogue` the run
    /// never recorded.
    pub fn require_all(&mut self, catalogue: &[(&str, &str)]) {
        for (name, _) in catalogue {
            if !self.metrics.contains_key(*name) {
                self.op(false, || format!("metric {name} was not measured"));
            }
        }
    }

    /// The result line: every metric of `catalogue`, nothing else. A
    /// catalogue metric the run never recorded reads 0.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let mut body = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(*name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }

    /// One aligned line per recorded metric of `catalogue`, for people.
    pub fn table(&self, workload: &str, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in catalogue {
            if let Some(v) = self.metrics.get(*name) {
                let _ = writeln!(out, "{workload:<13} {name:<42} {v:>16.4} {unit}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_catalogue() {
        let mut o = Outcome::default();
        o.op(true, String::new);
        for (name, _) in END_TO_END {
            o.metric(name, 1.5);
        }
        o.metric("not.in.catalogue", 9.0);
        o.require_all(&END_TO_END);
        let json = o.result_line(&END_TO_END);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!json.contains("not.in.catalogue"));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn missing_or_non_finite_metrics_fail_the_run() {
        let mut o = Outcome::default();
        o.metric("setup_s", f64::NAN);
        assert_eq!((o.attempted, o.failed), (1, 1));
        o.require_all(&END_TO_END);
        let json = o.result_line(&END_TO_END);
        assert!(json.contains("\"correct\": false"));
        assert!(json.contains("\"setup_s\": {\"value\": 0, "));
        // The six other metrics were never measured.
        assert_eq!(o.failed, 7);
        // A traced run may leave layers it does not exercise at 0.
        let mut t = Outcome::default();
        t.op(true, String::new);
        assert!(t.result_line(&PER_LAYER).contains("\"correct\": true"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} is listed twice");
        }
        assert!(PER_LAYER.len() <= 128);
        let apps =
            ["tasks", "merge", "photo", "tsp", "barnes", "fmm", "ocean", "typechecker", "raytrace"];
        for app in apps {
            let name = format!("workloads.residual_ns_per_ref.{app}");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in crate::cells::Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
        }
    }
}
