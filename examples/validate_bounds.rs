//! Empirical soundness check: for small concrete problem sizes, the symbolic
//! lower bound must never exceed the number of loads actually performed by a
//! valid schedule of the explicit CDAG under the red-white pebble game.
//!
//! Run with: `cargo run --example validate_bounds`

use iolb::cdag::{simulate_topological, Cdag};
use iolb::prelude::*;

/// One validation case: kernel name, parameter values, cache capacity.
type Case = (&'static str, Vec<(&'static str, i128)>, usize);

fn main() {
    let cases: Vec<Case> = vec![
        ("gemm", vec![("Ni", 6), ("Nj", 6), ("Nk", 6)], 16),
        ("jacobi-1d", vec![("T", 5), ("N", 12)], 8),
        ("atax", vec![("M", 8), ("N", 8)], 12),
        ("trisolv", vec![("N", 10)], 8),
    ];

    let mut all_sound = true;
    for (name, params, cache) in cases {
        let _session = EngineCtx::new().enter();
        let kernel = iolb::polybench::kernel_by_name(name).expect("known kernel");
        let dfg = kernel.dfg();
        let analysis = analyze(&dfg, &kernel.analysis_options());

        // Evaluate the symbolic bound at the small instance.
        let mut eval_params = params.clone();
        eval_params.push(("S", cache as i128));
        let bound = analysis.q_low.eval_params(&eval_params).unwrap_or(0.0);

        // Measure the loads of a topological-order schedule under the pebble
        // game with `cache` red pebbles.
        let cdag = Cdag::instantiate(&dfg, &params, 32);
        let measured = simulate_topological(&cdag, cache);

        let sound = bound <= measured as f64 + 1e-9;
        all_sound &= sound;
        println!(
            "{name:<12} params {params:?} S={cache:<3} bound = {bound:>9.1}  measured = {measured:>7}  {}",
            if sound { "OK (bound <= measured)" } else { "VIOLATION" }
        );
    }
    assert!(
        all_sound,
        "a derived bound exceeded a measured schedule cost"
    );
    println!("\nAll derived bounds are below the measured schedule costs — as a valid lower bound must be.");
}
