//! The `.iolb` twin gate: the trace walker must treat a front-end program
//! and the equivalent built-in kernel identically. Builtin gemm and
//! `examples/programs/gemm.iolb` must produce byte-identical address traces
//! and byte-identical tightness reports at the same instance, and the
//! shipped AI example programs must preflight clean and simulate within
//! the trace budget.

use iolb::core::tightness::generate_trace;
use iolb::frontend::IolbFile;
use iolb::prelude::*;

fn example(name: &str) -> IolbFile {
    IolbFile::new(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("examples/programs")
            .join(name),
    )
}

#[test]
fn builtin_gemm_and_iolb_gemm_are_trace_and_report_twins() {
    let instance = Instance::new().set("Ni", 12).set("Nj", 10).set("Nk", 8);
    let opts = TightnessOptions::default()
        .instance(instance.clone())
        .cache_sizes(&[64, 1024])
        .opt(true);

    let builtin = Analyzer::new()
        .parallel(false)
        .analyze_with_tightness(&iolb::polybench::kernel_by_name("gemm").unwrap(), &opts)
        .unwrap();
    let from_file = Analyzer::new()
        .parallel(false)
        .analyze_with_tightness(&example("gemm.iolb"), &opts)
        .unwrap();

    // Same DFG shape in, same report out — byte for byte.
    let builtin_report = builtin.tightness.as_ref().unwrap();
    let file_report = from_file.tightness.as_ref().unwrap();
    assert_eq!(
        builtin_report.to_json(),
        file_report.to_json(),
        "builtin gemm and gemm.iolb tightness reports diverged"
    );
    // And the reports actually measured something sound.
    let inst = builtin_report
        .simulated()
        .next()
        .expect("gemm simulates at a 12x10x8 instance");
    assert!(inst.trace_len > 0);
    for point in &inst.caches {
        let q_low = point.q_low.expect("gemm Q_low evaluates");
        assert!(q_low <= point.lru.misses as f64 + 1e-6);
        let opt = point.opt.expect("--opt simulation requested");
        assert!(opt.misses <= point.lru.misses);
    }

    // The traces themselves are byte-identical, not just the summaries.
    let engine = EngineCtx::new();
    engine.scope(|| {
        let builtin_dfg = iolb::polybench::kernel_by_name("gemm").unwrap().dfg();
        let file_dfg = example("gemm.iolb").prepare().unwrap().dfg;
        let a = generate_trace(&builtin_dfg, &instance, 1_000_000).unwrap();
        let b = generate_trace(&file_dfg, &instance, 1_000_000).unwrap();
        assert_eq!(a.trace, b.trace, "address traces diverged");
        assert_eq!(a.ops, b.ops, "operation counts diverged");
        assert_eq!(a.distinct_addresses, b.distinct_addresses);
    });
}

#[test]
fn ai_examples_preflight_clean_and_simulate_within_budget() {
    for name in ["ai/attention.iolb", "ai/conv2d.iolb", "ai/mlp.iolb"] {
        let outcome = Analyzer::new()
            .parallel(false)
            .simulate(&example(name))
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        // Preflight clean: no errors from the static analyzer.
        assert!(
            !outcome.preflight.has_errors(),
            "{name}: preflight diagnostics are not clean: {}",
            outcome.preflight.to_json()
        );

        // Simulated within the default trace budget: at least one instance
        // measured, none skipped.
        let report = outcome.tightness.as_ref().expect("simulate attaches");
        let mut measured = 0usize;
        for inst in &report.instances {
            assert!(
                inst.skipped.is_none(),
                "{name}: instance {:?} skipped: {:?}",
                inst.instance,
                inst.skipped
            );
            measured += 1;
            for point in &inst.caches {
                if let Some(q_low) = point.q_low {
                    assert!(
                        q_low <= point.lru.misses as f64 + 1e-6,
                        "{name}: Q_low {q_low} exceeds LRU misses {}",
                        point.lru.misses
                    );
                }
            }
        }
        assert!(measured > 0, "{name}: nothing simulated");
    }
}
