//! Cross-crate integration tests: every kernel of the suite analyses without
//! panicking and produces a non-trivial bound; for a sample of kernels the
//! bound is validated against the pebble game on small instances; and the
//! measured OI of every simulated schedule respects the analytical OI upper
//! bound at matching sizes (up to the boundary effects of small instances).

use iolb::cdag::{simulate_topological, Cdag};
use iolb::prelude::*;
use iolb_cachesim::simulate_lru;

/// One validation case: kernel name, parameter values, cache capacity.
type Case = (&'static str, Vec<(&'static str, i128)>, usize);

#[test]
fn every_kernel_analyses_and_bounds_at_least_its_inputs() {
    let _session = EngineCtx::new().enter();
    for kernel in iolb::polybench::all_kernels() {
        let analysis = analyze(&kernel.dfg(), &kernel.analysis_options());
        let inst = kernel.large_instance();
        let q = analysis.q_at(&inst).unwrap_or(0.0);
        // The compulsory-miss term alone already makes the bound at least the
        // input size of the DFG (which may be smaller than Table 1's input
        // column when only reuse-relevant arrays are modelled).
        assert!(q > 0.0, "{}: Q_low evaluated to {q}", kernel.name);
        // And the OI upper bound is finite and positive.
        let report = Report::new(kernel.name, analysis, Some(kernel.ops.clone()));
        let pairs: Vec<(String, i128)> = inst.as_param_slice();
        let borrowed: Vec<(&str, i128)> = pairs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let oi = report.oi.as_ref().and_then(|o| o.oi_at(&borrowed));
        let oi = oi.unwrap_or(f64::INFINITY);
        assert!(oi.is_finite() && oi > 0.0, "{}: OI_up = {oi}", kernel.name);
    }
}

#[test]
fn bounds_never_exceed_simulated_schedules_on_small_instances() {
    let _session = EngineCtx::new().enter();
    let cases: Vec<Case> = vec![
        ("gemm", vec![("Ni", 6), ("Nj", 5), ("Nk", 7)], 12),
        ("jacobi-1d", vec![("T", 4), ("N", 10)], 6),
        ("trisolv", vec![("N", 9)], 6),
        ("atax", vec![("M", 7), ("N", 6)], 10),
        ("floyd-warshall", vec![("N", 6)], 10),
    ];
    for (name, params, cache) in cases {
        let kernel = iolb::polybench::kernel_by_name(name).unwrap();
        let analysis = analyze(&kernel.dfg(), &kernel.analysis_options());
        let mut eval = params.clone();
        eval.push(("S", cache as i128));
        let bound = analysis.q_low.eval_params(&eval).unwrap_or(0.0);
        let cdag = Cdag::instantiate(&kernel.dfg(), &params, 24);
        let measured = simulate_topological(&cdag, cache);
        assert!(
            bound <= measured as f64 + 1e-6,
            "{name}: bound {bound} exceeds measured loads {measured}"
        );
    }
}

#[test]
fn streaming_kernels_stay_bandwidth_bound_in_simulation() {
    // For the category-2 kernels, the measured OI of the natural schedule
    // must stay at or below the (constant) analytical upper bound reported in
    // the paper.
    for name in ["atax", "bicg", "mvt", "gesummv"] {
        let kernel = iolb::polybench::kernel_by_name(name).unwrap();
        let t = iolb::polybench::trace(name, 96, 16).unwrap();
        let stats = simulate_lru(&t.trace, 1024);
        let achieved = stats.operational_intensity(t.ops);
        let paper = (kernel.paper_oi_up)(1024.0, &Default::default());
        assert!(
            achieved <= paper * 1.5,
            "{name}: achieved {achieved} far exceeds the paper's OI_up {paper}"
        );
    }
}

#[test]
fn tiled_gemm_beats_untiled_floyd_in_achieved_oi() {
    // Qualitative shape of Figure 6: a tiled matrix product achieves a much
    // higher OI than the untiled floyd-warshall at the same cache size.
    let gemm = iolb::polybench::trace("gemm", 96, 16).unwrap();
    let floyd = iolb::polybench::trace("floyd-warshall", 96, 16).unwrap();
    let gemm_oi = simulate_lru(&gemm.trace, 1024).operational_intensity(gemm.ops);
    let floyd_oi = simulate_lru(&floyd.trace, 1024).operational_intensity(floyd.ops);
    assert!(
        gemm_oi > floyd_oi,
        "tiled gemm ({gemm_oi}) should beat untiled floyd-warshall ({floyd_oi})"
    );
}
