//! Measures the wall-clock cost of the full IOLB analysis per kernel
//! (the paper reports sub-second analysis per benchmark; this bench verifies
//! we are in the same regime), plus micro-benchmarks for the polyhedral
//! engine's two hottest operations: Fourier–Motzkin projection and symbolic
//! counting.
//!
//! By default a representative six-kernel subset is timed; build with
//! `--features full-suite` to time all 30 PolyBench kernels.

use iolb_bench::harness::bench;
use iolb_core::Analyzer;
use iolb_poly::{count, fm, Context, EngineCtx};

fn kernel_names() -> Vec<&'static str> {
    if cfg!(feature = "full-suite") {
        iolb_polybench::all_kernels()
            .iter()
            .map(|k| k.name)
            .collect()
    } else {
        vec![
            "gemm",
            "cholesky",
            "lu",
            "jacobi-1d",
            "atax",
            "floyd-warshall",
        ]
    }
}

fn analysis_time() {
    println!("== analysis_time (full pipeline per kernel) ==");
    for name in kernel_names() {
        let kernel = iolb_polybench::kernel_by_name(name).expect("known kernel");
        bench(name, 10, || {
            // Measure cold analysis cost: every sample runs in a fresh
            // engine session (otherwise the warm cache would answer
            // everything after the warm-up run).
            let outcome = Analyzer::new().analyze(&kernel).expect("kernel prepares");
            outcome.analysis().q_low.to_string()
        });
    }
}

/// Micro-benchmark: FM projection of the innermost dimension of the gemm and
/// cholesky-update statement domains.
fn fm_projection_micro() {
    println!("== fm::eliminate_var (projection micro-bench) ==");
    let engine = EngineCtx::new();
    let _session = engine.enter();
    let cases = [
        (
            "gemm-domain",
            "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
        ),
        (
            "cholesky-update-domain",
            "[N] -> { S3[k, i, j] : 0 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }",
        ),
    ];
    for (label, text) in cases {
        let set = iolb_poly::parse_set(text).expect("parsable domain");
        let constraints = set.constraints().to_vec();
        let dim = set.dim();
        bench(&format!("project {label}"), 200, || {
            let mut cur = constraints.clone();
            for idx in (0..dim).rev() {
                cur = fm::eliminate_var_in(&engine, &cur, idx);
            }
            cur.len()
        });
    }
}

/// Micro-benchmark: symbolic counting of the same two domains.
fn count_micro() {
    println!("== count::card_basic_in (symbolic counting micro-bench) ==");
    let engine = EngineCtx::new();
    let _session = engine.enter();
    let ctx = Context::empty()
        .assume_ge("N", 8)
        .assume_ge("Ni", 8)
        .assume_ge("Nj", 8)
        .assume_ge("Nk", 8);
    let cases = [
        (
            "gemm-domain",
            "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
        ),
        (
            "cholesky-update-domain",
            "[N] -> { S3[k, i, j] : 0 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }",
        ),
    ];
    for (label, text) in cases {
        let set = iolb_poly::parse_set(text).expect("parsable domain");
        bench(&format!("count {label}"), 50, || {
            engine.clear_cache();
            count::card_basic_in(&engine, &set, &ctx).map(|p| p.to_string())
        });
    }
}

fn main() {
    analysis_time();
    fm_projection_micro();
    count_micro();
}
