//! Integration tests reproducing the paper's worked examples:
//! the elementary example of Fig. 1/2, the wavefront example of Fig. 3,
//! the cholesky walk-through of Appendix A and the LU walk-through of
//! Appendix B.

use iolb::prelude::*;
use iolb_core::partition::{partition_bound, PartitionInput};
use iolb_math::{Lattice, Subspace};
use iolb_poly::Context;

fn ctx(params: &[&str]) -> Context {
    params
        .iter()
        .fold(Context::empty(), |c, p| c.assume_ge(p, 4))
}

fn lattice_for(paths: &[iolb_dfg::DfgPath]) -> Lattice {
    let dim = paths[0].relation.n_out();
    let kernels: Vec<Subspace> = paths.iter().map(|p| p.kernel()).collect();
    Lattice::generate(dim, &kernels, 100_000).0
}

/// Appendix A: the K-partition bound for cholesky's update statement is
/// asymptotically N³/(6√S).
#[test]
fn cholesky_appendix_a_bound() {
    let _session = EngineCtx::new().enter();
    let dfg = iolb::polybench::kernels::solvers::cholesky_dfg();
    let domain = dfg.node("S3").unwrap().domain.clone();
    let paths: Vec<_> = genpaths(&dfg, "S3", &domain, &GenPathsOptions::default())
        .into_iter()
        .filter(|p| p.vertices.len() == 2)
        .collect();
    assert_eq!(paths.len(), 3, "chain + two broadcasts expected");
    let lattice = lattice_for(&paths);
    let input = PartitionInput {
        paths: &paths,
        domain: &domain,
        lattice: &lattice,
        ctx: &ctx(&["N"]),
        cache_param: "S",
    };
    let bound = partition_bound(&input).expect("cholesky bound derivable");
    let lead = iolb::symbol::asymptotic::simplify(&bound.expr, "S");
    assert_eq!(lead.to_string(), "1/6*N^3*S^(-1/2)");
}

/// Appendix B: the K-partition bound for LU's update statement is
/// asymptotically (2/3)·N³/√S (after summing the independent projections).
#[test]
fn lu_appendix_b_bound() {
    let _session = EngineCtx::new().enter();
    let dfg = iolb::polybench::kernels::solvers::lu_dfg();
    let domain = dfg.node("S2").unwrap().domain.clone();
    let paths: Vec<_> = genpaths(&dfg, "S2", &domain, &GenPathsOptions::default())
        .into_iter()
        .filter(|p| p.vertices.len() == 2)
        .collect();
    assert!(
        paths.len() >= 3,
        "expected at least three one-edge paths, got {}",
        paths.len()
    );
    let lattice = lattice_for(&paths);
    let input = PartitionInput {
        paths: &paths,
        domain: &domain,
        lattice: &lattice,
        ctx: &ctx(&["N"]),
        cache_param: "S",
    };
    let bound = partition_bound(&input).expect("lu bound derivable");
    let lead = iolb::symbol::asymptotic::simplify(&bound.expr, "S");
    // Leading term c·N³/√S with c between the paper's conservative 1/3 and
    // the summed-projection 2/3.
    let v = lead
        .eval_f64(
            &[("N".to_string(), 1000.0), ("S".to_string(), 1.0)]
                .into_iter()
                .collect(),
        )
        .unwrap();
    let n3 = 1000.0_f64.powi(3);
    assert!(
        v >= n3 / 3.0 - 1e-3,
        "leading coefficient too small: {lead}"
    );
    assert!(v <= n3, "leading coefficient implausibly large: {lead}");
}

/// The elementary example of Fig. 1/2: the full analysis returns a bound with
/// leading term M·N/S and OI upper bound O(S).
#[test]
fn example1_full_analysis() {
    let _session = EngineCtx::new().enter();
    let dfg = Dfg::builder()
        .input("A", "[N] -> { A[i] : 0 <= i < N }")
        .input("C", "[M] -> { C[t] : 0 <= t < M }")
        .statement("St", "[M, N] -> { St[t, i] : 0 <= t < M and 0 <= i < N }")
        .edge(
            "A",
            "St",
            "[N] -> { A[i] -> St[t, i2] : t = 0 and i2 = i and 0 <= i < N }",
        )
        .edge(
            "C",
            "St",
            "[M, N] -> { C[t] -> St[t, i] : 0 <= t < M and 0 <= i < N }",
        )
        .edge(
            "St",
            "St",
            "[M, N] -> { St[t, i] -> St[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }",
        )
        .build()
        .unwrap();
    let mut options = AnalysisOptions::with_default_instance(&["M", "N"], 4096, 256);
    options.max_parametrization_depth = 0;
    let analysis = analyze(&dfg, &options);
    // Q_low includes the compulsory misses N + M plus the partition term.
    let value = analysis
        .q_at(&Instance::from_pairs(&[
            ("M", 4096),
            ("N", 4096),
            ("S", 256),
        ]))
        .unwrap();
    let mn_over_s = 4096.0 * 4096.0 / 256.0;
    assert!(
        value >= mn_over_s * 0.5,
        "bound {value} much weaker than MN/S"
    );
    // And it never exceeds the untiled schedule cost of ~M·N loads.
    assert!(value <= 4096.0 * 4096.0 * 1.1);
}

/// Example 2 (Fig. 3): the combination of loop parametrization and the
/// wavefront bound yields (M−1)(N−S) plus compulsory misses.
#[test]
fn example2_wavefront_decomposition() {
    let _session = EngineCtx::new().enter();
    let dfg = Dfg::builder()
        .statement("S1", "[M, N] -> { S1[t, i] : 0 <= t < M and 0 <= i < N }")
        .statement("S2", "[M, N] -> { S2[t, i] : 0 <= t < M and 0 <= i < N }")
        .edge(
            "S2",
            "S1",
            "[M, N] -> { S2[t, i] -> S1[t2, i2] : t2 = t + 1 and i2 = i and 0 <= t < M - 1 and 0 <= i < N }",
        )
        .edge(
            "S1",
            "S1",
            "[M, N] -> { S1[t, i] -> S1[t2, i2] : t2 = t and i2 = i + 1 and 0 <= t < M and 0 <= i < N - 1 }",
        )
        .edge(
            "S1",
            "S2",
            "[M, N] -> { S1[t, i] -> S2[t2, j] : t2 = t and i = N - 1 and 0 <= t < M and 0 <= j < N }",
        )
        .edge(
            "S2",
            "S2",
            "[M, N] -> { S2[t, i] -> S2[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }",
        )
        .build()
        .unwrap();
    let mut options = AnalysisOptions::with_default_instance(&["M", "N"], 64, 16);
    options.max_parametrization_depth = 1;
    let analysis = analyze(&dfg, &options);
    let value = analysis
        .q_at(&Instance::from_pairs(&[("M", 64), ("N", 64), ("S", 16)]))
        .unwrap();
    // The paper's bound for this sub-structure is (M−1)(N−S) = 63·48 = 3024.
    assert!(
        value >= 3024.0 * 0.9,
        "expected roughly (M-1)(N-S), got {value}"
    );
}

/// Example 3 (Fig. 4): the kernel with `A[i] = f(A[i], A[k])` decomposes into
/// two non-interfering sub-CDAGs whose bounds are summed; the result is at
/// least N²/S-flavoured rather than the single-region N²/(2S).
#[test]
fn example3_decomposition() {
    let _session = EngineCtx::new().enter();
    let dfg = Dfg::builder()
        .input("A", "[N] -> { A[i] : 0 <= i < N }")
        .statement("St", "[N] -> { St[k, i] : 0 <= k < N and 0 <= i < N }")
        .edge("A", "St", "[N] -> { A[i] -> St[k, i2] : k = 0 and i2 = i and 0 <= i < N }")
        // A[i] from the previous k-iteration.
        .edge(
            "St",
            "St",
            "[N] -> { St[k, i] -> St[k + 1, i] : 0 <= k < N - 1 and 0 <= i < N }",
        )
        // A[k], written in the current iteration when i < k (upper part) and
        // in the previous one when i >= k (lower part) — the two broadcasts of
        // Fig. 4.
        .edge(
            "St",
            "St",
            "[N] -> { St[k, i] -> St[k2, i2] : k2 = k + 1 and i = k + 1 and 0 <= k < N - 1 and 0 <= i2 < k + 1 }",
        )
        .edge(
            "St",
            "St",
            "[N] -> { St[k, i] -> St[k2, i2] : k2 = k and i = k and 0 <= k < N and k < i2 < N }",
        )
        .build()
        .unwrap();
    let mut options = AnalysisOptions::with_default_instance(&["N"], 2048, 64);
    options.max_parametrization_depth = 0;
    let analysis = analyze(&dfg, &options);
    let value = analysis
        .q_at(&Instance::from_pairs(&[("N", 2048), ("S", 64)]))
        .unwrap();
    // The single-region geometric bound is N²/(4S); the decomposition of
    // Fig. 4 roughly doubles it. We check the bound lands in the decomposed
    // regime (well above N²/(4S); boundary terms keep it slightly below the
    // idealised N²/(2S)).
    let n2_over_4s = 2048.0 * 2048.0 / (4.0 * 64.0);
    assert!(
        value >= 1.5 * n2_over_4s,
        "decomposed bound {value} should exceed 1.5×N²/(4S) = {}",
        1.5 * n2_over_4s
    );
}
