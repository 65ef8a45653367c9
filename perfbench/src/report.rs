//! Correctness tallies, metrics and the result line every run ends with.

use std::collections::BTreeMap;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them.
const PER_LAYER: [(&str, &str); 35] = [
    ("frontend.parse_ms", "ms"),
    ("frontend.lower_ms", "ms"),
    ("ir.dataflow.ms", "ms"),
    ("ir.dataflow.edge_pieces", "count"),
    ("polybench.prepare_ms", "ms"),
    ("preflight.ms", "ms"),
    ("core.driver.ms", "ms"),
    ("poly.feasibility_checks", "count"),
    ("poly.fm_eliminations", "count"),
    ("poly.entailment_checks", "count"),
    ("poly.count_calls", "count"),
    ("poly.lp_calls", "count"),
    ("poly.feasibility_hit_rate", "ratio"),
    ("poly.projection_hit_rate", "ratio"),
    ("poly.cache_entries", "count"),
    ("core.report.ms", "ms"),
    ("core.report.bytes", "bytes"),
    ("core.tightness.trace_ms", "ms"),
    ("core.tightness.accesses", "count"),
    ("core.tightness.ns_per_access", "ns"),
    ("cachesim.lru_ms", "ms"),
    ("cachesim.opt_ms", "ms"),
    ("server.admission_ms", "ms"),
    ("server.queue_ms.p50", "ms"),
    ("server.queue_ms.p99", "ms"),
    ("server.service_ms.hot", "ms"),
    ("server.service_ms.miss", "ms"),
    ("server.lane_small.queue_peak", "count"),
    ("server.lane_large.queue_peak", "count"),
    ("server.overloaded", "count"),
    ("server.timeouts", "count"),
    ("core.result_cache.hit_ratio", "ratio"),
    ("core.pool.warm_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.uncovered_ms", "ms"),
];

/// The traced run's metrics: every per-layer metric, in order. A metric
/// missing from `values` belongs to a layer this workload does not reach;
/// it reports 0 and the run prints `absent_because`.
pub fn per_layer(values: &BTreeMap<&str, f64>, absent_because: &str) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or_else(|| {
                println!("{name}: absent ({absent_because})");
                0.0
            });
            Metric::new(name, value, unit)
        })
        .collect()
}

/// The four gated end-to-end metrics. `pass_rel` and `program_geomean_rel`
/// are in units of the reference computation's time (see
/// [`crate::reference`]).
pub fn end_to_end(
    setup_s: f64,
    pass_rel: f64,
    program_geomean_rel: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("pass_rel", pass_rel, "ref"),
        Metric::new("program_geomean_rel", program_geomean_rel, "ref"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Prints the wall-clock forms of the relative figures (not gated: they
/// move with the host's speed).
pub fn print_raw(pass_s: f64, program_geomean_ms: f64) {
    println!("pass_s               {pass_s:.6} s (wall clock, not gated)");
    println!("program_geomean_ms   {program_geomean_ms:.6} ms (wall clock, not gated)");
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Failure messages echoed to stderr before the rest are only counted.
const SHOWN_FAILURES: u64 = 20;

impl Tally {
    /// Counts one checked output; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.note_failure(what());
        }
    }

    /// Counts one attempted operation that failed outright.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.note_failure(what);
    }

    fn note_failure(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= SHOWN_FAILURES {
            eprintln!("FAILED: {what}");
        }
    }

    pub fn print_failed_ratio(&self) {
        println!(
            "failed_ratio {:.6} ({} failed / {} checked outputs)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }

    pub fn into_run(self, metrics: Vec<Metric>) -> Run {
        Run {
            tally: self,
            metrics,
        }
    }
}

pub struct Run {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Run {
    /// Prints every metric as a row, then the one-line JSON result.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

/// The process's peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` with all whitespace removed, split at `per_layer`.
    fn declared() -> (String, String) {
        let json: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let at = json.find("\"per_layer\"").expect("per_layer list");
        (json[..at].to_string(), json[at..].to_string())
    }

    #[test]
    fn reported_metrics_are_the_declared_ones() {
        let (end_to_end_part, per_layer_part) = declared();
        for m in end_to_end(1.0, 1.0, 1.0, 1.0) {
            let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", m.name, m.unit);
            assert!(end_to_end_part.contains(&entry), "{entry}");
        }
        assert_eq!(end_to_end_part.matches("\"bound\"").count(), 4);
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(per_layer_part.contains(&entry), "{entry}");
        }
        assert_eq!(per_layer_part.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn per_layer_fills_absent_layers_with_zero() {
        let values = BTreeMap::from([("core.driver.ms", 12.5)]);
        let metrics = per_layer(&values, "not run");
        assert_eq!(metrics.len(), PER_LAYER.len());
        let driver = metrics.iter().find(|m| m.name == "core.driver.ms").unwrap();
        assert_eq!(driver.value, 12.5);
        assert!(metrics
            .iter()
            .filter(|m| m.name != "core.driver.ms")
            .all(|m| m.value == 0.0));
    }
}
