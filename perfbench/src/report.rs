//! The metric catalogue and the result line.
//!
//! Every workload prints every metric of its mode: the end-to-end list
//! in an untraced run, the per-layer list in a traced run. A per-layer
//! metric that the workload does not exercise reads 0 (its layer is
//! not on that workload's path). The lists match `BENCHMARK.json`.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("round_vs_base", "ratio"),
    ("call_vs_base", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit). Apart from the
/// pool probe, which runs on every workload, none is a time: a layer's
/// time is given as its share of the traced time and a call's as a
/// rate, so a layer a workload does not exercise reads 0 as a share or
/// rate rather than as a time.
pub const PER_LAYER: &[(&str, &str)] = &[
    // engine: scan-core kernels, against in-process rooflines.
    ("engine.scan_gbps", "GB/s"),
    ("engine.seg_scan_gbps", "GB/s"),
    ("engine.inplace_gbps", "GB/s"),
    ("engine.pack_gbps", "GB/s"),
    ("engine.memcpy_gbps", "GB/s"),
    ("engine.fresh_gbps", "GB/s"),
    ("engine.seq_scan_gbps", "GB/s"),
    ("engine.scan_vs_memcpy", "ratio"),
    ("engine.scan_vs_fresh", "ratio"),
    ("engine.self_share", "ratio"),
    // pool: the worker pool's dispatch round trip.
    ("pool.threads", "count"),
    ("pool.dispatch_p50_us", "us"),
    ("pool.dispatch_p99_us", "us"),
    ("pool.respawns", "count"),
    // multi_split: one 8-bit pass over the radix keys.
    ("multi_split.pass_gbps", "GB/s"),
    // stream: ScanStream over a timing ChunkSource.
    ("stream.gbps", "GB/s"),
    ("stream.chunks", "count"),
    ("stream.pulls", "count"),
    ("stream.source_share", "ratio"),
    ("stream.self_share", "ratio"),
    // checked: CheckedExecutor over a timing PrimitiveScans backend.
    ("checked.gbps", "GB/s"),
    ("checked.kernel_share", "ratio"),
    ("checked.self_share", "ratio"),
    ("checked.attempts", "count"),
    ("checked.detections", "count"),
    ("checked.retries", "count"),
    ("checked.fallbacks", "count"),
    ("checked.rescues", "count"),
    ("verify.gbps", "GB/s"),
    // shard: ShardedExecutor with two shards.
    ("shard.gbps", "GB/s"),
    ("shard.vs_pool", "ratio"),
    ("shard.self_share", "ratio"),
    ("shard.runs", "count"),
    ("shard.losses", "count"),
    ("shard.recoveries", "count"),
    ("shard.inline_rescues", "count"),
    ("shard.degraded_runs", "count"),
    // algorithms: scan-algorithms over scan-pram::Ctx.
    ("radix.mkeys_per_s", "M/s"),
    ("radix.steps", "count"),
    ("radix.scan_ops", "count"),
    ("radix.permute_ops", "count"),
    ("radix.elementwise_ops", "count"),
    ("quicksort.mkeys_per_s", "M/s"),
    ("quicksort.steps", "count"),
    ("quicksort.scan_ops", "count"),
    ("quicksort.permute_ops", "count"),
    ("quicksort.elementwise_ops", "count"),
    ("quicksort.iterations", "count"),
    ("list_rank.mnodes_per_s", "M/s"),
    ("list_rank.steps", "count"),
    ("list_rank.scan_ops", "count"),
    ("list_rank.permute_ops", "count"),
    ("list_rank.elementwise_ops", "count"),
    ("mst.medges_per_s", "M/s"),
    ("mst.steps", "count"),
    ("mst.scan_ops", "count"),
    ("mst.permute_ops", "count"),
    ("mst.elementwise_ops", "count"),
    ("mst.rounds", "count"),
    ("algorithms.self_share", "ratio"),
    // service: ScanService front door over a timing BatchBackend.
    ("service.req_per_s", "1/s"),
    ("service.req_p99_over_p50", "ratio"),
    ("service.req_samples", "count"),
    ("service.batches", "count"),
    ("service.mean_occupancy", "count"),
    ("service.solo_requests", "count"),
    ("service.shed", "count"),
    ("service.expired_in_queue", "count"),
    ("service.batches_retried", "count"),
    ("service.times_degraded", "count"),
    ("service.max_wait_dispatches", "count"),
    ("service.backend_share", "ratio"),
    ("service.elems_per_batch", "count"),
    ("service.self_share", "ratio"),
    // The cost of tracing itself.
    ("trace.overhead_frac", "ratio"),
];

/// Metric values collected by a run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be in one of the lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line. In an untraced run every end-to-end metric must
/// have been measured; in a traced run an unmeasured per-layer metric
/// reads 0.
pub fn result_line(
    traced: bool,
    m: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let body: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let v = m.get(name);
            assert!(
                traced || v.is_some(),
                "end-to-end metric {name} was not measured"
            );
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v.unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Human-readable table of every metric measured, printed before the
/// result line.
pub fn table(m: &Metrics) -> String {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter_map(|&(name, unit)| {
            m.get(name)
                .map(|v| format!("  {name:<32} {v:>16.4} {unit}"))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics the binary prints,
    /// with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(json.matches(&entry).count(), 1, "{entry} must appear once");
        }
        let workloads: Vec<&str> = crate::bulk::WORKLOADS
            .iter()
            .chain(crate::algos::WORKLOADS)
            .map(|(w, _)| *w)
            .chain(["serve"])
            .collect();
        for w in &workloads {
            let entry = format!("{{\"name\": \"{w}\", \"why\": ");
            assert_eq!(json.matches(&entry).count(), 1, "{entry} must appear once");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + workloads.len(),
            "BENCHMARK.json lists metrics or workloads the binary does not have"
        );
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = result_line(false, &m, true, 3, 0);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = result_line(true, &m, true, 3, 0);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
