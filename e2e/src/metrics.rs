//! The metric names and units the benchmark declares — the same list as
//! `BENCHMARK.json` (a test compares the two). Every workload reports every
//! metric: what a name measures on each workload is in the README.

use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics, printed by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("recall_at_10", "share"),
    ("map_at_10", "share"),
    ("disk_bytes_per_user_byte", "ratio"),
];

/// `(name, unit)` of the per-layer metrics, printed by `--trace 1`. Layers
/// are the crate names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_tables_per_s", "tables/s"),
    ("table.coords_us_per_table", "us"),
    ("tokenizer.encode_us_per_table", "us"),
    ("typeinfer.tag_us_per_table", "us"),
    ("core.encode_us_per_table", "us"),
    ("core.tokens_per_table", "count"),
    ("core.infer_us_per_table", "us"),
    ("core.batch_overhead_share", "share"),
    ("core.embed_tables_per_s_b64", "tables/s"),
    ("core.embed_tables_per_s_b1024", "tables/s"),
    ("index.upsert_us_per_row", "us"),
    ("index.wal.bytes_per_row", "bytes"),
    ("index.wal.flush_ms", "ms"),
    ("index.checkpoint_ms", "ms"),
    ("index.recover_ms", "ms"),
    ("index.wal.replay_records", "count"),
    ("index.router.train_ms", "ms"),
    ("index.router.imbalance", "ratio"),
    ("index.router.probe_us", "us"),
    ("index.store.lsh_us", "us"),
    ("index.store.sweep_us", "us"),
    ("index.store.batch64_us_per_query", "us"),
    ("index.exact_scan_us", "us"),
    ("index.rows_scanned_per_query", "count"),
    ("index.shards_probed_per_query", "count"),
    ("index.engine.miss_us", "us"),
    ("index.engine.hit_us", "us"),
    ("index.engine.cache_hit_share", "share"),
    ("index.batcher.queries_per_batch", "ratio"),
    ("index.compactions", "count"),
    ("index.compaction_pause_p50_ms", "ms"),
    ("index.compaction_pause_max_ms", "ms"),
    ("index.engine.cache_len_after_write", "entries"),
    ("serve.wire.encode_request_us", "us"),
    ("serve.wire.decode_request_us", "us"),
    ("serve.wire.encode_hits_us", "us"),
    ("serve.wire.decode_response_us", "us"),
    ("serve.rtt_w1_hot_us", "us"),
    ("serve.rtt_w1_cold_us", "us"),
    ("serve.transport_residual_us", "us"),
    ("serve.worker_residual_us", "us"),
    ("serve.shed", "count"),
    ("serve.served", "count"),
    ("loadgen.latency_p99_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// Values for one of the two declared lists; refuses undeclared names,
/// double sets and non-finite values, so a typo cannot ship a metric that
/// `BENCHMARK.json` does not know.
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        Self { declared, values: BTreeMap::new() }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.declared.iter().any(|(n, _)| *n == name), "metric {name} is not declared");
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.values.insert(name, value).is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` in declaration order.
    ///
    /// # Panics
    /// When a declared metric was never set: every workload owes every one.
    pub fn in_order(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.declared
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name).unwrap_or_else(|| panic!("metric {name} was never set"));
                (name, v, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits outside the package; the test reads it from the
    /// repository the package is checked out in.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let text = benchmark_json();
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            assert_eq!(body.matches("\"name\"").count(), list.len(), "{section} length");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Metrics::new(END_TO_END).set("latency_ms", 1.0);
    }
}
