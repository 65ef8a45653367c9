//! Benchmarks (and, as a side effect, re-checks) the validation path: the
//! derived lower bound evaluated at a small instance must not exceed the I/O
//! of a simulated schedule on the explicit CDAG.

use iolb_bench::harness::bench;
use iolb_cdag::{simulate_topological, Cdag};
use iolb_core::Analyzer;
use iolb_poly::EngineCtx;

fn main() {
    println!("== validation ==");
    let kernel = iolb_polybench::kernel_by_name("gemm").expect("gemm");
    let params: Vec<(&str, i128)> = vec![("Ni", 6), ("Nj", 6), ("Nk", 6)];
    let _session = EngineCtx::new().enter();
    let dfg = kernel.dfg();
    bench("gemm_pebble_game", 10, || {
        let cdag = Cdag::instantiate(&dfg, &params, 8);
        simulate_topological(&cdag, 16)
    });
    let outcome = Analyzer::new().analyze(&kernel).expect("gemm prepares");
    bench("gemm_bound_evaluation", 10, || {
        outcome
            .analysis()
            .q_low
            .eval_params(&[("Ni", 6), ("Nj", 6), ("Nk", 6), ("S", 16)])
    });
}
