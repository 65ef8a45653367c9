//! End-to-end tests for the affine-C front end: the `.iolb` example
//! programs under `examples/programs/` must compile, analyse, and — for
//! gemm — reproduce exactly the parametric bound of the hand-written
//! built-in kernel.

use iolb_core::{analyze, AnalysisOptions};
use iolb_poly::EngineCtx;

fn compile_example(name: &str) -> iolb_dfg::Dfg {
    let path = format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let program = iolb_frontend::compile(&src).unwrap_or_else(|e| panic!("compile {name}: {e}"));
    program
        .to_dfg()
        .unwrap_or_else(|e| panic!("dataflow for {name}: {e}"))
}

/// The session-scoped path: the same `.iolb` file analysed through the
/// `Analyzer` (fresh engine session, file compiled inside it) must match
/// the built-in kernel analysed through the `Analyzer` — the library-level
/// form of the CLI equality check.
#[test]
fn gemm_iolb_matches_builtin_kernel_through_analyzer() {
    let path = format!("{}/examples/programs/gemm.iolb", env!("CARGO_MANIFEST_DIR"));
    let from_file = iolb_core::Analyzer::new()
        .analyze(&iolb_frontend::IolbFile::new(&path))
        .unwrap();
    let kernel = iolb_polybench::kernel_by_name("gemm").expect("builtin gemm");
    let builtin = iolb_core::Analyzer::new().analyze(&kernel).unwrap();
    assert_eq!(
        from_file.analysis().q_low.to_string(),
        builtin.analysis().q_low.to_string()
    );
    assert_eq!(from_file.report.kernel, "gemm");
    // The two runs used isolated sessions: each reports only its own work.
    assert!(from_file.stats.FEASIBILITY_CHECKS > 0);
    assert!(builtin.stats.FEASIBILITY_CHECKS > 0);
}

/// The gemm acceptance criterion: the `.iolb` file and the built-in kernel
/// produce the *same* parametric lower bound, not merely asymptotically
/// equal ones.
#[test]
fn gemm_iolb_matches_builtin_kernel() {
    let _session = EngineCtx::new().enter();
    let kernel = iolb_polybench::kernel_by_name("gemm").expect("builtin gemm");
    let options = kernel.analysis_options();
    let builtin = analyze(&kernel.dfg(), &options);

    let dfg = compile_example("gemm.iolb");
    let frontend = analyze(&dfg, &options);

    assert_eq!(frontend.q_low.to_string(), builtin.q_low.to_string());
    assert_eq!(
        frontend.q_asymptotic().to_string(),
        builtin.q_asymptotic().to_string()
    );
    assert_eq!(
        frontend.input_size.to_string(),
        builtin.input_size.to_string()
    );
}

/// jacobi-2d written as its real two-statement (A → B, B → A) form: the
/// front end must resolve the cross-time-step dependences. The analysis
/// must discover the time-step chain circuits through *both* statements
/// and land in the same asymptotic class as the built-in single-statement
/// model (whose bound is its input size, `N^2`; the two-array form reads
/// the boundary of `B` as well, hence `2*N^2`).
#[test]
fn jacobi_2d_iolb_compiles_and_analyses() {
    let _session = EngineCtx::new().enter();
    let dfg = compile_example("jacobi-2d.iolb");
    // Two statements plus the initial contents of both arrays (the
    // boundary cells of B are never written, so they are genuine inputs).
    assert_eq!(dfg.statements().count(), 2);
    assert!(dfg.nodes().iter().any(|n| n.name == "Ain"));

    // The ping-pong dependence forms chain circuits S1 → S2 → S1 with a
    // unit time-step delta — the reuse structure the paper's stencil
    // reasoning is built on.
    let domain = dfg.node("S1").unwrap().domain.clone();
    let paths = iolb_dfg::genpaths(&dfg, "S1", &domain, &iolb_dfg::GenPathsOptions::default());
    assert!(
        paths
            .iter()
            .any(|p| p.kind.is_chain() && p.vertices == ["S1", "S2", "S1"]),
        "expected a two-hop chain circuit through S2"
    );

    let mut options = AnalysisOptions::with_default_instance(&["T", "N"], 500, 1024);
    options.max_parametrization_depth = 0;
    let analysis = analyze(&dfg, &options);
    assert_eq!(analysis.q_asymptotic().to_string(), "2*N^2");
}

/// Right-looking Cholesky: triangular loops, three statements updating the
/// same array, cross-statement kills. The derived DFG must reproduce the
/// structure of the hand-written kernel (S2 reads its column head from S3
/// of the previous k, etc.) and analyse to the same asymptotic bound class.
#[test]
fn cholesky_iolb_compiles_and_analyses() {
    let _session = EngineCtx::new().enter();
    let dfg = compile_example("cholesky.iolb");
    assert_eq!(dfg.statements().count(), 3);

    // The diagonal statement reads from the update statement of the
    // previous outer iteration — the dependence that makes the nest
    // wavefront-free but tileable.
    assert!(dfg.edges().iter().any(|e| e.src == "S3" && e.dst == "S1"));
    assert!(dfg.edges().iter().any(|e| e.src == "S2" && e.dst == "S3"));

    let kernel = iolb_polybench::kernel_by_name("cholesky").expect("builtin cholesky");
    let options = kernel.analysis_options();
    let builtin = analyze(&kernel.dfg(), &options);
    let analysis = analyze(&dfg, &options);
    assert_eq!(
        analysis.q_asymptotic().to_string(),
        builtin.q_asymptotic().to_string()
    );
}
