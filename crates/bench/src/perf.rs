//! The perf-trajectory run: per-kernel wall-clock of the full IOLB
//! analysis plus engine-operation counters, serialised as
//! `BENCH_analysis.json` so successive PRs have a record to defend.
//!
//! This is the library form of the `perf_report` binary.
//!
//! Each kernel is analysed in its **own engine session** (fresh cache, fresh
//! counters), so its row — wall-clock, operation counts and cache hit rates
//! — is an attributable cost, not a function of which kernels happened to
//! run before it. The JSON records the per-session cache hit rates per
//! kernel and the summed counters for the whole suite.

use crate::{evaluate_kernel, KernelRow};
use iolb_core::json::Json;
use iolb_core::Analyzer;
use iolb_poly::stats::Snapshot;
use std::time::Instant;

/// One kernel's perf row.
pub struct PerfRow {
    /// Kernel name.
    pub name: String,
    /// Wall-clock seconds for the kernel's whole request: session setup,
    /// in-session workload preparation (rebuilding the kernel's DFG from
    /// its ISL-notation sources), and the analysis itself — the cost a
    /// service would pay to serve the kernel cold.
    pub seconds: f64,
    /// The session's engine counters after the run.
    pub stats: Snapshot,
    /// Memoized query results resident in the session after the run.
    pub cache_entries: usize,
}

/// The result of a perf run.
pub struct PerfRun {
    /// Per-kernel rows, in suite order.
    pub rows: Vec<PerfRow>,
    /// Whole-run wall-clock in seconds.
    pub total_seconds: f64,
    /// Engine-operation counters summed over every per-kernel session.
    pub counters: Vec<(&'static str, u64)>,
    /// The serving-layer load run (full-suite runs only): 4 concurrent
    /// clients × the whole suite against an in-process daemon.
    pub serve: Option<crate::serve::ServeThroughput>,
    /// Sampled tightness ratios (`min Q_low / measured LRU misses` at the
    /// default small instance), full-suite runs only.
    pub tightness: Vec<(String, f64)>,
    /// The JSON document (the `BENCH_analysis.json` payload).
    pub json: String,
    /// True when every kernel ran (a filtered run is a partial
    /// measurement and must not clobber the canonical record).
    pub full_suite: bool,
}

/// Client threads for the `serve_throughput` section (the acceptance bar:
/// the daemon must sustain at least four concurrent clients).
pub const SERVE_CLIENTS: usize = 4;

/// Kernels sampled by the tightness pass — representative shapes (dense
/// contraction, band matrix, stencil, dynamic programming), kept small so
/// the perf gate holds; the exhaustive sweep lives in `iolb simulate`.
pub const TIGHTNESS_SAMPLE: &[&str] = &["gemm", "atax", "mvt", "jacobi-2d", "floyd-warshall"];

/// Analyses the suite (optionally filtered by kernel name), printing one
/// line per kernel, and assembles the JSON record.
pub fn run(filter: &[String]) -> PerfRun {
    let mut kernels = iolb_polybench::all_kernels();
    if !filter.is_empty() {
        kernels.retain(|k| filter.iter().any(|f| f == k.name));
    }
    let full_suite = filter.is_empty();
    let mut rows: Vec<PerfRow> = Vec::new();

    let suite_start = Instant::now();
    for kernel in kernels {
        let start = Instant::now();
        let row: KernelRow = evaluate_kernel(&kernel);
        let secs = start.elapsed().as_secs_f64();
        let oi = row.our_oi_up.unwrap_or(f64::NAN);
        println!("{:<18} {:>8.3}s  OI_up = {:.2}", kernel.name, secs, oi);
        rows.push(PerfRow {
            name: kernel.name.to_string(),
            seconds: secs,
            stats: row.stats,
            cache_entries: row.cache_entries,
        });
    }
    let total_seconds = suite_start.elapsed().as_secs_f64();

    // The serving layer under load (full-suite runs only; a filtered run
    // is a quick look at specific kernels, not a service measurement).
    let serve = if full_suite {
        println!("serve_throughput: {SERVE_CLIENTS} clients x full suite ...");
        let load = crate::serve::run(SERVE_CLIENTS);
        println!(
            "serve_throughput: {:.2} req/s, p50 {:.0} ms, p99 {:.0} ms ({} ok / {} requests), \
             result cache {:.0}% hit, hot p50 {:.3} ms",
            load.req_per_sec,
            load.p50_ms,
            load.p99_ms,
            load.ok,
            load.requests,
            load.hit_rate * 100.0,
            load.hot_p50_ms
        );
        Some(load)
    } else {
        None
    };

    // Sampled tightness ratios: simulate a handful of representative
    // kernels at the default small instance and record how close the
    // parametric Q_low sits to the measured LRU misses.
    let tightness = if full_suite {
        let mut ratios: Vec<(String, f64)> = Vec::new();
        for name in TIGHTNESS_SAMPLE {
            let Some(kernel) = iolb_polybench::kernel_by_name(name) else {
                continue;
            };
            let Ok(outcome) = Analyzer::new().simulate(&kernel) else {
                continue;
            };
            let ratio = outcome
                .tightness
                .as_ref()
                .and_then(|report| report.min_tightness_lru());
            if let Some(ratio) = ratio {
                println!("tightness {name:<18} Q_low/LRU-misses = {ratio:.4}");
                ratios.push((name.to_string(), ratio));
            }
        }
        ratios
    } else {
        Vec::new()
    };

    // Suite totals: sum of the per-session counters.
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for row in &rows {
        for (i, (key, value)) in row.stats.as_pairs().into_iter().enumerate() {
            if totals.len() <= i {
                totals.push((key, 0));
            }
            totals[i].1 += value;
        }
    }

    let kernels = rows.iter().map(|row| {
        let mut fields = vec![("seconds".to_string(), Json::Fixed(row.seconds, 6))];
        fields.extend(
            row.stats
                .hit_rates()
                .into_iter()
                .map(|(key, rate)| (key.to_string(), rate.map(|r| Json::Fixed(r, 6)).into())),
        );
        fields.push(("cache_entries".to_string(), row.cache_entries.into()));
        (row.name.clone(), Json::Obj(fields))
    });
    let mut doc = vec![
        ("suite_wall_clock_seconds", Json::Fixed(total_seconds, 6)),
        (
            "per_kernel_cache",
            "cold (each kernel runs in its own engine session)".into(),
        ),
        ("kernel_count", rows.len().into()),
        ("kernels", Json::obj(kernels)),
    ];
    if let Some(load) = &serve {
        doc.push(("serve_throughput", load.to_json_value()));
    }
    if !tightness.is_empty() {
        let ratios = tightness
            .iter()
            .map(|(name, r)| (name.as_str(), Json::Fixed(*r, 6)));
        doc.push(("tightness", Json::obj(ratios)));
    }
    let counters = totals.iter().map(|&(key, value)| (key, value.into()));
    doc.push(("engine_counters", Json::obj(counters)));
    let json = Json::obj(doc).render_pretty();

    PerfRun {
        rows,
        total_seconds,
        counters: totals,
        serve,
        tightness,
        json,
        full_suite,
    }
}

/// Prints the run summary and writes `BENCH_analysis.json` (full-suite
/// runs only — a filtered run never overwrites the canonical record).
pub fn report_and_write(run: &PerfRun) {
    println!(
        "\nsuite wall-clock: {:.3}s over {} kernels",
        run.total_seconds,
        run.rows.len()
    );
    println!("engine counters: {:?}", run.counters);
    if run.full_suite {
        let path = "BENCH_analysis.json";
        std::fs::write(path, &run.json).expect("write BENCH_analysis.json");
        println!("wrote {path}");
    } else {
        println!("filtered run: not overwriting BENCH_analysis.json");
    }
}
