//! The metric catalogue and the per-run record.
//!
//! Every workload reports every metric of the table it is asked for, so a
//! result always has the same shape. End-to-end metrics are defined on all
//! four workloads (see `end_to_end`); a per-layer metric whose layer a
//! workload bypasses reads 0.

use serde_json::Value;
use std::collections::BTreeMap;
use streamline_core::Algorithm;

/// The four scheduling drivers, with the short names metric keys use.
pub const DRIVERS: [(Algorithm, &str); 4] = [
    (Algorithm::StaticAllocation, "static"),
    (Algorithm::LoadOnDemand, "lod"),
    (Algorithm::HybridMasterSlave, "hybrid"),
    (Algorithm::WorkStealing, "steal"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name: name.into(), unit, better }
}

/// End-to-end metrics, measured with no wrappers. An *operation* is one
/// closed driver solve on a batch workload and one request on a serving
/// workload.
///
/// * `setup_s` — median of several complete set-ups in one run.
/// * `solve_s` — host seconds for one closed solve by each of the four
///   drivers through `run_simulated_detailed_with_store`, summed: the
///   workload's seed set on batch workloads, the request pool on serving
///   workloads. Median over the run's repetitions.
/// * `max_rps` — highest sustained operation rate. Serving: answers per
///   second with 64 requests kept in flight (saturation throughput),
///   median over the run's rounds. Batch: solves per second of solving,
///   one solve at a time, which is 4 / mean per-driver solve time: a
///   restatement of `solve_s`, kept because every workload reports every
///   end-to-end metric. Likewise `solve_s` on a serving workload is a batch
///   solve of the request pool, not the service's work.
/// * `peak_rss_mb` — peak resident memory of the process.
///
/// Per-driver solve times and serving latency percentiles are per-layer
/// metrics (`core.<d>.solve_s`, `serve.p50_ms`, `cluster.p99_ms`, ...): on
/// a shared two-core host, hybrid's solve time alone and the serving
/// latencies move by 20-50% between processes of one build, more than any
/// regression bound could tolerate.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower),
        def("solve_s", "s", Lower),
        def("max_rps", "1/s", Higher),
        def("peak_rss_mb", "MB", Lower),
    ]
}

/// Per-layer metrics from the traced run, grouped by crate.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![
        def("field.blocks_built", "count", Lower),
        def("field.build_s", "s", Lower),
        def("field.build_ms_per_block", "ms", Lower),
        def("iosim.store_loads", "count", Lower),
        def("iosim.store_load_s", "s", Lower),
        def("iosim.store_load_us", "us", Lower),
        def("iosim.load_failures", "count", Lower),
        def("integrate.steps", "count", Lower),
        def("integrate.ns_per_step", "ns", Lower),
        def("integrate.sampler_hit_frac", "frac", Higher),
        def("integrate.batch_occupancy", "frac", Higher),
    ];
    for (_, d) in DRIVERS {
        v.push(def(format!("desim.{d}.events"), "count", Lower));
        v.push(def(format!("desim.{d}.dispatch_self_s"), "s", Lower));
    }
    for (_, d) in DRIVERS {
        v.push(def(format!("core.{d}.solve_s"), "s", Lower));
        v.push(def(format!("core.{d}.build_procs_s"), "s", Lower));
        v.push(def(format!("core.{d}.handler_self_s"), "s", Lower));
        v.push(def(format!("core.{d}.driver_self_s"), "s", Lower));
        v.push(def(format!("core.{d}.msgs"), "count", Lower));
        v.push(def(format!("core.{d}.bytes_sent"), "B", Lower));
        v.push(def(format!("core.{d}.pingpong"), "count", Lower));
    }
    for (_, d) in DRIVERS {
        v.push(def(format!("paper.{d}.wall_s"), "vs", Lower));
        v.push(def(format!("paper.{d}.io_s"), "vs", Lower));
        v.push(def(format!("paper.{d}.comm_s"), "vs", Lower));
        v.push(def(format!("paper.{d}.E"), "frac", Higher));
        v.push(def(format!("paper.{d}.blocks_loaded"), "count", Lower));
    }
    v.extend([
        def("serve.p50_ms", "ms", Lower),
        def("serve.p99_ms", "ms", Lower),
        def("serve.submit_us_p50", "us", Lower),
        def("serve.submit_us_p99", "us", Lower),
        def("serve.admitted", "count", Higher),
        def("serve.rejected", "count", Lower),
        def("serve.gone", "count", Lower),
        def("serve.cache_hit_frac", "frac", Higher),
        def("serve.steps", "count", Lower),
        def("serve.worker_compute_s", "s", Lower),
        def("serve.worker_io_s", "s", Lower),
        def("serve.worker_idle_s", "s", Higher),
        def("cluster.p50_ms", "ms", Lower),
        def("cluster.p99_ms", "ms", Lower),
        def("cluster.submit_us_p50", "us", Lower),
        def("cluster.handoffs", "count", Lower),
        def("cluster.handoff_bytes", "B", Lower),
        def("cluster.hot_local_hits", "count", Higher),
        def("cluster.cache_hit_frac", "frac", Higher),
        def("cluster.replica_skew", "ratio", Lower),
        def("cluster.worker_compute_s", "s", Lower),
        def("cluster.worker_io_s", "s", Lower),
        def("cluster.worker_idle_s", "s", Higher),
        def("bench.generator_late_p99_ms", "ms", Lower),
        def("bench.trace_overhead_frac", "frac", Lower),
        def("bench.unattributed_frac", "frac", Lower),
        def("bench.kernel_excess_frac", "frac", Lower),
    ]);
    v
}

/// One measured value and how many samples it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// Everything one run measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct Record {
    values: BTreeMap<String, Measured>,
}

impl Record {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.insert(name.into(), Measured { value, samples });
    }

    /// Record the median of `samples`.
    pub fn median(&mut self, name: impl Into<String>, samples: &[f64]) {
        self.set(name, crate::stats::median(samples), samples.len());
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    /// The rows of `table` in table order. A per-layer metric this
    /// workload does not exercise reads 0 with 0 samples; a missing
    /// end-to-end metric is a bug in the workload.
    pub fn rows(&self, table: &[MetricDef], required: bool) -> Vec<(MetricDef, Measured)> {
        table
            .iter()
            .map(|d| {
                let m = match self.get(&d.name) {
                    Some(m) => m,
                    None if required => panic!("workload did not measure {}", d.name),
                    None => Measured { value: 0.0, samples: 0 },
                };
                (d.clone(), m)
            })
            .collect()
    }
}

/// A JSON number for `x`; non-finite values (a latency percentile that
/// landed on a failed request) become the largest finite double so the
/// output stays valid JSON and still reads as "over any limit".
pub fn num(x: f64) -> Value {
    Value::F64(if x.is_finite() { x } else { f64::MAX })
}

/// `{"name": {"value": v, "unit": u}, ...}` for the result line.
pub fn metrics_object(rows: &[(MetricDef, Measured)], with_samples: bool) -> Value {
    Value::Map(
        rows.iter()
            .map(|(d, m)| {
                let mut fields = vec![
                    ("value".to_string(), num(m.value)),
                    ("unit".to_string(), Value::Str(d.unit.to_string())),
                ];
                if with_samples {
                    fields.push(("samples".to_string(), Value::U64(m.samples as u64)));
                }
                (d.name.clone(), Value::Map(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_name_is_well_formed_unique_and_has_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for d in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
        }
        assert_eq!(end_to_end().len(), 4);
        assert!(per_layer().len() <= 128);
    }

    /// BENCHMARK.json at the repository root lists exactly these metrics,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = spec[key].as_array().expect("metric list");
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, d) in listed.iter().zip(&table) {
                assert_eq!(entry["name"].as_str(), Some(d.name.as_str()));
                assert_eq!(entry["unit"].as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(entry["better"].as_str(), Some(d.better.as_str()), "{}", d.name);
            }
        }
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        let known: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn missing_per_layer_metrics_read_zero() {
        let mut r = Record::default();
        r.set("field.blocks_built", 3.0, 1);
        let rows = r.rows(&per_layer(), false);
        assert_eq!(rows[0].1.value, 3.0);
        assert!(rows[1..].iter().all(|(_, m)| m.value == 0.0 && m.samples == 0));
    }
}
