//! Emits `BENCH_analysis.json`: per-kernel wall-clock of the full IOLB
//! analysis across the 30-kernel PolyBench suite, plus engine-operation
//! counters, so successive PRs have a perf trajectory to defend.
//!
//! Run with `cargo run --release -p iolb-bench --bin perf_report`. Passing
//! kernel names limits the run (and skips the JSON write).

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).collect();
    let run = iolb_bench::perf::run(&filter);
    iolb_bench::perf::report_and_write(&run);
}
