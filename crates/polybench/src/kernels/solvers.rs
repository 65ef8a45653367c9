//! Factorisation / solver kernels: cholesky, lu, ludcmp, durbin, gramschmidt.
//!
//! cholesky and lu follow the DFGs of Appendices A and B of the paper
//! verbatim; ludcmp shares lu's dominant update; durbin is the category-3
//! kernel whose bound comes from the wavefront argument; gramschmidt is one
//! of the two category-4 kernels where the paper's own bound is optimistic.

use crate::meta::{p, poly_prod, Category, Kernel};
use iolb_dfg::Dfg;
use iolb_math::rat;

/// Cholesky factorisation (Appendix A, Fig. 7).
pub fn cholesky() -> Kernel {
    Kernel {
        name: "cholesky",
        category: Category::Tileable,
        params: &["N"],
        dfg: cholesky_dfg,
        input_data: (p("N") * p("N")).scale(rat(1, 2)),
        ops: (p("N") * p("N") * p("N")).scale(rat(1, 3)),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "2*sqrt(S)",
        paper_oi_up: |s, _| 2.0 * s.sqrt(),
        large: &[("N", 2000)],
        parametrization_depth: 0,
    }
}

/// The cholesky DFG used both by the kernel registry and by the Appendix-A
/// walk-through integration test.
pub fn cholesky_dfg() -> Dfg {
    Dfg::builder()
        .input("A", "[N] -> { A[i, j] : 0 <= i < N and 0 <= j <= i }")
        .statement("S1", "[N] -> { S1[k] : 0 <= k < N }")
        .statement("S2", "[N] -> { S2[k, i] : 0 <= k < N and k + 1 <= i < N }")
        .statement_with_ops(
            "S3",
            "[N] -> { S3[k, i, j] : 0 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }",
            2,
        )
        .edge("A", "S3", "[N] -> { A[i, j] -> S3[k, i2, j2] : k = 0 and i2 = i and j2 = j and 1 <= i < N and 1 <= j <= i }")
        .edge("S3", "S3", "[N] -> { S3[k, i, j] -> S3[k + 1, i, j] : 1 <= k + 1 < N and k + 2 <= i < N and k + 2 <= j <= i }")
        .edge("S2", "S3", "[N] -> { S2[k, j] -> S3[k, i, j2] : j2 = j and 0 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }")
        .edge("S2", "S3", "[N] -> { S2[k, i] -> S3[k, i2, j] : i2 = i and 0 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }")
        .edge("S3", "S2", "[N] -> { S3[k, i, j] -> S2[k2, i2] : k2 = k + 1 and i2 = i and j = k + 1 and 1 <= k + 1 < N and k + 2 <= i < N }")
        .edge("S1", "S2", "[N] -> { S1[k] -> S2[k2, i] : k2 = k and 0 <= k < N and k + 1 <= i < N }")
        .edge("S3", "S1", "[N] -> { S3[k, i, j] -> S1[k2] : k2 = k + 1 and i = k + 1 and j = k + 1 and 1 <= k + 1 < N }")
        .build()
        .unwrap()
}

/// LU factorisation (Appendix B, Fig. 8).
pub fn lu() -> Kernel {
    Kernel {
        name: "lu",
        category: Category::Tileable,
        params: &["N"],
        dfg: lu_dfg,
        input_data: p("N") * p("N"),
        ops: (p("N") * p("N") * p("N")).scale(rat(2, 3)),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "sqrt(S)",
        paper_oi_up: |s, _| s.sqrt(),
        large: &[("N", 2000)],
        parametrization_depth: 0,
    }
}

/// The LU DFG of Appendix B (Fig. 8), exposed for the walk-through test.
pub fn lu_dfg() -> Dfg {
    Dfg::builder()
        .input("A", "[N] -> { A[i, j] : 0 <= i < N and 0 <= j < N }")
        .statement("S1", "[N] -> { S1[k, i] : 0 <= k < N and k + 1 <= i < N }")
        .statement_with_ops(
            "S2",
            "[N] -> { S2[k, i, j] : 0 <= k < N and k + 1 <= i < N and k + 1 <= j < N }",
            2,
        )
        .edge("A", "S2", "[N] -> { A[i, j] -> S2[k, i2, j2] : k = 0 and i2 = i and j2 = j and 1 <= i < N and 1 <= j < N }")
        .edge("S2", "S2", "[N] -> { S2[k, i, j] -> S2[k + 1, i, j] : 1 <= k + 1 < N and k + 2 <= i < N and k + 2 <= j < N }")
        .edge("S2", "S2", "[N] -> { S2[k, i, j] -> S2[k + 1, i2, j] : i = k + 1 and 1 <= k + 1 < N and k + 2 <= i2 < N and k + 2 <= j < N }")
        .edge("S1", "S2", "[N] -> { S1[k, i] -> S2[k2, i2, j] : k2 = k and i2 = i and 0 <= k < N and k + 1 <= i < N and k + 1 <= j < N }")
        .edge("S2", "S1", "[N] -> { S2[k, i, j] -> S1[k2, i2] : k2 = k + 1 and i2 = i and j = k + 1 and 1 <= k + 1 < N and k + 2 <= i < N }")
        .build()
        .unwrap()
}

/// LU decomposition with forward/backward substitution; the factorisation
/// dominates, so it shares lu's DFG while keeping ludcmp's op count.
pub fn ludcmp() -> Kernel {
    Kernel {
        name: "ludcmp",
        category: Category::Tileable,
        params: &["N"],
        dfg: lu_dfg,
        input_data: p("N") * p("N"),
        ops: (p("N") * p("N") * p("N")).scale(rat(2, 3)),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "sqrt(S)",
        paper_oi_up: |s, _| s.sqrt(),
        large: &[("N", 2000)],
        parametrization_depth: 0,
    }
}

/// Durbin's algorithm for Toeplitz systems (category 3: provably not
/// tileable). Iteration `k` rebuilds the whole length-`k` solution vector
/// from the previous one (directly, reversed, and through the reduction that
/// produces α_k), so consecutive iterations are fully connected — the
/// wavefront argument applies.
pub fn durbin() -> Kernel {
    Kernel {
        name: "durbin",
        category: Category::NotTileable,
        params: &["N"],
        dfg: || {
            Dfg::builder()
                .input("r", "[N] -> { r[k] : 0 <= k < N }")
                .statement("Alpha", "[N] -> { Alpha[k] : 1 <= k < N }")
                .statement_with_ops("Z", "[N] -> { Z[k, i] : 1 <= k < N and 0 <= i < k }", 2)
                // alpha_k is a reduction over the previous solution vector.
                .edge("Z", "Alpha", "[N] -> { Z[k, i] -> Alpha[k2] : k2 = k + 1 and 1 <= k < N - 1 and 0 <= i < k }")
                .edge("r", "Alpha", "[N] -> { r[k] -> Alpha[k2] : k2 = k and 1 <= k < N }")
                // z[k][i] uses z[k-1][i], z[k-1][k-1-i] (reversal) and alpha_k.
                .edge("Z", "Z", "[N] -> { Z[k, i] -> Z[k + 1, i] : 1 <= k < N - 1 and 0 <= i < k }")
                .edge("Z", "Z", "[N] -> { Z[k, i] -> Z[k2, i2] : k2 = k + 1 and i2 = k - 1 - i and 1 <= k < N - 1 and 0 <= i < k }")
                .edge("Alpha", "Z", "[N] -> { Alpha[k] -> Z[k2, i] : k2 = k and 1 <= k < N and 0 <= i < k }")
                .build()
                .unwrap()
        },
        input_data: p("N").scale(rat(2, 1)),
        ops: (p("N") * p("N")).scale(rat(2, 1)),
        oi_manual_desc: "2/3",
        oi_manual: |_, _| 2.0 / 3.0,
        paper_oi_up_desc: "4",
        paper_oi_up: |_, _| 4.0,
        large: &[("N", 2000)],
        parametrization_depth: 1,
    }
}

/// Modified Gram-Schmidt orthogonalisation (category 4: the paper's bound of
/// 2√S is optimistic; the best known schedule achieves a constant OI).
pub fn gramschmidt() -> Kernel {
    Kernel {
        name: "gramschmidt",
        category: Category::OpenGap,
        params: &["M", "N"],
        dfg: || {
            Dfg::builder()
                .input("Ain", "[M, N] -> { Ain[i, j] : 0 <= i < M and 0 <= j < N }")
                // R[k][j] = Σ_i Q[i][k]·A[i][j]  (projection coefficients)
                .statement_with_ops(
                    "R",
                    "[M, N] -> { R[k, j, i] : 0 <= k < N and k + 1 <= j < N and 0 <= i < M }",
                    2,
                )
                // A[i][j] -= Q[i][k]·R[k][j]     (update)
                .statement_with_ops(
                    "Upd",
                    "[M, N] -> { Upd[k, j, i] : 0 <= k < N and k + 1 <= j < N and 0 <= i < M }",
                    2,
                )
                .edge("Ain", "R", "[M, N] -> { Ain[i, j] -> R[k, j2, i2] : k = 0 and j2 = j and i2 = i and 1 <= j < N and 0 <= i < M }")
                .edge("R", "R", "[M, N] -> { R[k, j, i] -> R[k2, j2, i + 1] : k2 = k and j2 = j and 0 <= k < N and k + 1 <= j < N and 0 <= i < M - 1 }")
                .edge("R", "Upd", "[M, N] -> { R[k, j, i] -> Upd[k2, j2, i2] : k2 = k and j2 = j and i = M - 1 and 0 <= k < N and k + 1 <= j < N and 0 <= i2 < M }")
                .edge("Upd", "Upd", "[M, N] -> { Upd[k, j, i] -> Upd[k + 1, j, i] : 0 <= k < N - 1 and k + 2 <= j < N and 0 <= i < M }")
                .edge("Upd", "R", "[M, N] -> { Upd[k, j, i] -> R[k2, j2, i2] : k2 = k + 1 and j2 = j and i2 = i and 0 <= k < N - 1 and k + 2 <= j < N and 0 <= i < M }")
                .build()
                .unwrap()
        },
        input_data: poly_prod(&["M", "N"]),
        ops: (p("M") * p("N") * p("N")).scale(rat(2, 1)),
        oi_manual_desc: "1",
        oi_manual: |_, _| 1.0,
        paper_oi_up_desc: "2*sqrt(S)",
        paper_oi_up: |s, _| 2.0 * s.sqrt(),
        large: &[("M", 1000), ("N", 1200)],
        parametrization_depth: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_poly::EngineCtx;

    #[test]
    fn all_solver_kernels_build() {
        let _session = EngineCtx::new().enter();
        for k in [cholesky(), lu(), ludcmp(), durbin(), gramschmidt()] {
            assert!(
                k.dfg().statements().count() >= 1,
                "{} has no statements",
                k.name
            );
            assert!(!k.ops.is_zero());
            assert!(k.ops_at_large() > 0.0);
        }
    }

    #[test]
    fn cholesky_dfg_matches_appendix_a() {
        let _session = EngineCtx::new().enter();
        let g = cholesky_dfg();
        assert_eq!(g.statements().count(), 3);
        // The three dependence families of Fig. 7 into S3 are present.
        assert_eq!(g.edges_into("S3").count(), 4);
        // The S3 update domain has N(N-1)(N+1)/6 points (checked at N = 6).
        let dom = &g.node("S3").unwrap().domain;
        assert_eq!(dom.enumerate(&[("N", 6)], 8).len(), 35);
    }

    #[test]
    fn lu_dfg_matches_appendix_b() {
        let _session = EngineCtx::new().enter();
        let g = lu_dfg();
        assert_eq!(g.statements().count(), 2);
        assert_eq!(g.edges_into("S2").count(), 4);
        let dom = &g.node("S2").unwrap().domain;
        // N = 4: sum over k of (N-1-k)^2 = 9 + 4 + 1 + 0 = 14.
        assert_eq!(dom.enumerate(&[("N", 4)], 6).len(), 14);
    }

    #[test]
    fn durbin_is_marked_not_tileable() {
        let k = durbin();
        assert_eq!(k.category, Category::NotTileable);
        assert_eq!(k.parametrization_depth, 1);
    }
}
