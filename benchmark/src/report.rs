//! The metric catalogue and the result line.
//!
//! [`METRICS`] is the single list of every metric the benchmark prints:
//! its name, unit, which way is better, whether it is end-to-end (printed
//! by untraced runs) or per-layer (printed by traced runs), and the layer
//! it belongs to. `BENCHMARK.json` at the repository root lists the same
//! metrics; a test keeps the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way is better (only `BENCHMARK.json` states it; the test
    /// keeps the two in step).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// End-to-end (`true`) or per-layer (`false`).
    pub end_to_end: bool,
    /// The layer whose work the metric measures (`run` for end-to-end).
    pub layer: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, end_to_end: true, layer: "run" }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> MetricDef {
    MetricDef { name, unit, better, end_to_end: false, layer }
}

use Better::{Higher, Lower};

/// Every metric, end-to-end first.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", Lower),
    e2e("clients_per_s", "clients/s", Higher),
    e2e("replicas", "count", Lower),
    e2e("peak_heap_mb", "MB", Lower),
    layer("instances", "instances.gen_s", "s", Lower),
    layer("treenet", "treenet.arena_load_s", "s", Lower),
    layer("treenet", "treenet.io.write_s", "s", Lower),
    layer("treenet", "treenet.io.parse_s", "s", Lower),
    layer("treenet", "treenet.io.replicas_lost", "count", Lower),
    layer("core.multiple_bin", "core.multiple_bin.first_solve_s", "s", Lower),
    layer("core.multiple_bin", "core.multiple_bin.solve_s_p50", "s", Lower),
    layer("core.multiple_bin", "core.multiple_bin.solve_s_p90", "s", Lower),
    layer("core.multiple_bin", "core.multiple_bin.solves", "count", Higher),
    layer("core.stage", "core.stage.stages", "count", Lower),
    layer("core.stage", "core.stage.subsets_enumerated", "count", Lower),
    layer("core.stage", "core.stage.subsets_routed", "count", Lower),
    layer("core.stage", "core.stage.subsets_pruned", "count", Higher),
    layer("core.stage", "core.stage.prefix_routes", "count", Lower),
    layer("core.stage", "core.stage.route_share", "share", Lower),
    layer("core.stage", "core.stage.router_carry_merges", "count", Lower),
    layer("core.stage", "core.stage.router_carried_peak", "count", Lower),
    layer("core.stage", "core.stage.commit_touched", "count", Lower),
    layer("core.stage", "core.stage.commit_skipped", "count", Higher),
    layer("core.stage", "core.stage.dp_node_visits", "count", Lower),
    layer("core.stage", "core.stage.dp_fallbacks", "count", Lower),
    layer("core.stage", "core.stage.dp_sizes_skipped", "count", Higher),
    layer("core.stage", "core.stage.dp_bound_skips", "count", Higher),
    layer("core.stage", "core.stage.scope_cache_hits", "count", Higher),
    layer("core.stage", "core.stage.warm_seeds_used", "count", Higher),
    layer("core.stage", "core.stage.repairs", "count", Lower),
    layer("core.par", "core.par.threads", "count", Higher),
    layer("core.par", "core.par.solve_s", "s", Lower),
    layer("core.par", "core.par.speedup", "ratio", Higher),
    layer("core.par", "core.par.mismatches", "count", Lower),
    layer("core.single_gen", "core.single_gen.solve_s", "s", Lower),
    layer("core.single_gen", "core.single_gen.replicas", "count", Lower),
    layer("core.single_nod", "core.single_nod.solve_s", "s", Lower),
    layer("core.single_nod", "core.single_nod.replicas", "count", Lower),
    layer("core.serve", "core.serve.apply_s_p50", "s", Lower),
    layer("core.serve", "core.serve.apply_s_p95", "s", Lower),
    layer("core.serve", "core.serve.resolve_ms_p50", "ms", Lower),
    layer("core.serve", "core.serve.resolve_ms_p95", "ms", Lower),
    layer("core.serve", "core.serve.deltas_per_s", "deltas/s", Higher),
    layer("core.serve", "core.serve.rounds", "count", Higher),
    layer("core.serve", "core.serve.stages_reused", "count", Higher),
    layer("core.serve", "core.serve.stages_recomputed", "count", Lower),
    layer("core.serve", "core.serve.reuse_share", "share", Higher),
    layer("core.serve", "core.serve.dirty_clients_per_solve", "count", Lower),
    layer("core.serve", "core.serve.full_solves", "count", Lower),
    layer("core.serve", "core.serve.incremental_solves", "count", Higher),
    layer("core.serve", "core.serve.stale_served", "count", Lower),
    layer("core.serve", "core.serve.cold_solve_s", "s", Lower),
    layer("core.serve", "core.serve.warm_speedup", "ratio", Higher),
    layer("core.serve", "core.serve.replicas", "count", Lower),
    layer("core.serve", "core.serve.recovery_s", "s", Lower),
    layer("core.serve.persist", "core.serve.persist.recover_s", "s", Lower),
    layer("core.serve.persist", "core.serve.persist.wal_bytes", "bytes", Lower),
    layer("core.serve.persist", "core.serve.persist.snapshot_bytes", "bytes", Lower),
    layer("core.serve.persist", "core.serve.persist.snapshots_written", "count", Lower),
    layer("core.serve.persist", "core.serve.persist.snapshot_failures", "count", Lower),
    layer("bench", "bench.check_s", "s", Lower),
    layer("bench", "bench.outputs_checked", "count", Higher),
    layer("bench", "bench.failed_share", "share", Lower),
    layer("bench", "bench.check.underserved_clients", "count", Lower),
    layer("bench", "bench.check.underserved_requests", "count", Lower),
    layer("bench", "bench.check.capacity_violations", "count", Lower),
    layer("bench", "bench.check.distance_violations", "count", Lower),
    layer("bench", "bench.check.other_violations", "count", Lower),
    layer("bench", "bench.check.idle_replicas", "count", Lower),
    layer("instances", "self_s.instances", "s", Lower),
    layer("treenet", "self_s.treenet", "s", Lower),
    layer("core.multiple_bin", "self_s.core.multiple_bin", "s", Lower),
    layer("core.par", "self_s.core.par", "s", Lower),
    layer("core.single_gen", "self_s.core.single_gen", "s", Lower),
    layer("core.single_nod", "self_s.core.single_nod", "s", Lower),
    layer("core.serve", "self_s.core.serve", "s", Lower),
    layer("core.serve.persist", "self_s.core.serve.persist", "s", Lower),
    layer("bench", "self_s.bench", "s", Lower),
    layer("trace", "trace.coverage", "share", Higher),
    layer("trace", "trace.overhead_share", "share", Lower),
];

/// Metric values gathered by one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Layers the workload does not exercise: their per-layer metrics
    /// print as 0 instead of being demanded.
    skipped: Vec<&'static str>,
}

impl Report {
    /// Records `value` under the catalogued metric `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not in [`METRICS`] or `value` is not finite.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(METRICS.iter().any(|m| m.name == name), "uncatalogued metric `{name}`");
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values.insert(name, value);
    }

    /// Declares that this workload does not run `layer` at all.
    pub fn skip_layer(&mut self, layer: &'static str) {
        self.skipped.push(layer);
    }

    /// Renders the result line: the end-to-end metrics (untraced runs) or
    /// the per-layer ones (traced runs), each with its unit.
    ///
    /// # Panics
    ///
    /// If a metric of the selected kind was neither recorded nor skipped
    /// with its layer — a workload that forgets a metric fails loudly.
    pub fn result_line(&self, traced: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let mut metrics = Vec::new();
        for m in METRICS.iter().filter(|m| m.end_to_end != traced) {
            let value = match self.values.get(m.name) {
                Some(&v) => v,
                None if self.skipped.contains(&m.layer) => 0.0,
                None => panic!("metric `{}` was not measured", m.name),
            };
            metrics
                .push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(METRICS[..i].iter().all(|o| o.name != m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(m.unit.len() <= 16);
            if m.name.starts_with("self_s.") {
                assert_eq!(m.name, format!("self_s.{}", m.layer), "self time of another layer");
            }
        }
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// `BENCHMARK.json` names every catalogued metric once, with the same
    /// unit, direction and kind.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = benchmark_json();
        let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
        let layer_at = text.find("\"per_layer\"").expect("per_layer section");
        for m in METRICS {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                m.name, m.unit
            );
            let at = text.find(&entry).unwrap_or_else(|| panic!("BENCHMARK.json lacks {entry}"));
            assert_eq!(text.matches(&format!("\"name\": \"{}\"", m.name)).count(), 1);
            let in_e2e = at > e2e_at && (at < layer_at || layer_at < e2e_at);
            let in_layer = at > layer_at && (at < e2e_at || e2e_at < layer_at);
            assert!(if m.end_to_end { in_e2e } else { in_layer }, "{} in wrong section", m.name);
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, METRICS.len(), "BENCHMARK.json lists metrics the catalogue lacks");
    }

    /// `BENCHMARK.json` lists exactly the workloads the command accepts.
    #[test]
    fn benchmark_json_lists_the_workloads() {
        let text = benchmark_json();
        for w in crate::WORKLOADS {
            let entry = format!("{{\"name\": \"{w}\", \"why\":");
            assert!(text.contains(&entry), "BENCHMARK.json lacks workload {w}");
        }
        assert_eq!(text.matches("\"why\":").count(), crate::WORKLOADS.len());
    }

    #[test]
    fn result_line_prints_the_selected_kind_only() {
        let mut r = Report::default();
        for m in METRICS.iter().filter(|m| m.end_to_end) {
            r.set(m.name, 1.5);
        }
        let line = r.result_line(false, true, 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("trace.coverage"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_forgotten_metric_fails_loudly() {
        Report::default().result_line(false, true, 1, 0);
    }
}
