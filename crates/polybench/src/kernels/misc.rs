//! Remaining kernels: correlation, covariance, floyd-warshall, nussinov,
//! deriche.
//!
//! correlation and covariance are dominated by the `cov[i][j] += data[k][i] *
//! data[k][j]` rank-update (a syrk-shaped computation); floyd-warshall is the
//! running example of Fig. 4 lifted to three dimensions; nussinov is the
//! second category-4 kernel; deriche is a constant-OI image filter.

use crate::meta::{p, poly_prod, Category, Kernel};
use iolb_dfg::Dfg;
use iolb_math::rat;

fn covariance_like(name: &'static str) -> Kernel {
    Kernel {
        name,
        category: Category::Tileable,
        params: &["M", "N"],
        dfg: || {
            Dfg::builder()
                .input("Data", "[M, N] -> { Data[k, j] : 0 <= k < N and 0 <= j < M }")
                .statement_with_ops(
                    "Cov",
                    "[M, N] -> { Cov[i, j, k] : 0 <= i < M and 0 <= j <= i and 0 <= k < N }",
                    2,
                )
                .edge("Data", "Cov", "[M, N] -> { Data[k, i] -> Cov[i2, j, k2] : i2 = i and k2 = k and 0 <= i < M and 0 <= j <= i and 0 <= k < N }")
                .edge("Data", "Cov", "[M, N] -> { Data[k, j] -> Cov[i, j2, k2] : j2 = j and k2 = k and 0 <= j <= i and i < M and 0 <= k < N }")
                .edge("Cov", "Cov", "[M, N] -> { Cov[i, j, k] -> Cov[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < M and 0 <= j <= i and 0 <= k < N - 1 }")
                .build()
                .unwrap()
        },
        input_data: poly_prod(&["M", "N"]),
        ops: p("M") * p("M") * p("N"),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "2*sqrt(S)",
        paper_oi_up: |s, _| 2.0 * s.sqrt(),
        large: &[("M", 1200), ("N", 1400)],
        parametrization_depth: 0,
    }
}

/// Pearson correlation matrix (dominated by the rank-update).
pub fn correlation() -> Kernel {
    covariance_like("correlation")
}

/// Covariance matrix (dominated by the rank-update).
pub fn covariance() -> Kernel {
    covariance_like("covariance")
}

/// All-pairs shortest paths. The dependence structure is the 3-D version of
/// Example 3 (Fig. 4): the pivot row and column of step k were last written
/// either at step k (i or j beyond the pivot) or step k−1; the analysis
/// decomposes the iteration space accordingly.
pub fn floyd_warshall() -> Kernel {
    Kernel {
        name: "floyd-warshall",
        category: Category::Tileable,
        params: &["N"],
        dfg: || {
            Dfg::builder()
                .input("W", "[N] -> { W[i, j] : 0 <= i < N and 0 <= j < N }")
                .statement_with_ops(
                    "P",
                    "[N] -> { P[k, i, j] : 0 <= k < N and 0 <= i < N and 0 <= j < N }",
                    2,
                )
                .edge("W", "P", "[N] -> { W[i, j] -> P[k, i2, j2] : k = 0 and i2 = i and j2 = j and 0 <= i < N and 0 <= j < N }")
                .edge("P", "P", "[N] -> { P[k, i, j] -> P[k + 1, i, j] : 0 <= k < N - 1 and 0 <= i < N and 0 <= j < N }")
                // Pivot row k (read by every i) and pivot column k (read by every j),
                // taken from the previous k-slice.
                .edge("P", "P", "[N] -> { P[k, i, j] -> P[k2, i2, j2] : k2 = k + 1 and i = k + 1 and j2 = j and 0 <= k < N - 1 and 0 <= i2 < N and 0 <= j < N }")
                .edge("P", "P", "[N] -> { P[k, i, j] -> P[k2, i2, j2] : k2 = k + 1 and j = k + 1 and i2 = i and 0 <= k < N - 1 and 0 <= i < N and 0 <= j2 < N }")
                .build()
                .unwrap()
        },
        input_data: p("N") * p("N"),
        ops: (p("N") * p("N") * p("N")).scale(rat(2, 1)),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "2*sqrt(S)",
        paper_oi_up: |s, _| 2.0 * s.sqrt(),
        large: &[("N", 2800)],
        parametrization_depth: 0,
    }
}

/// Nussinov RNA folding (dynamic programming over intervals). Category 4: the
/// paper's geometric bound of 2√S is known to be optimistic.
pub fn nussinov() -> Kernel {
    Kernel {
        name: "nussinov",
        category: Category::OpenGap,
        params: &["N"],
        dfg: || {
            Dfg::builder()
                .input("Seq", "[N] -> { Seq[i] : 0 <= i < N }")
                // table[i][j] = max over k of table[i][k] + table[k+1][j].
                .statement_with_ops(
                    "Tb",
                    "[N] -> { Tb[i, j, k] : 0 <= i < j and j < N and i <= k < j }",
                    2,
                )
                .edge("Seq", "Tb", "[N] -> { Seq[i] -> Tb[i2, j, k] : i2 = i and 0 <= i < j and j < N and i <= k < j }")
                .edge("Tb", "Tb", "[N] -> { Tb[i, j, k] -> Tb[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < j and j < N and i <= k < j - 1 }")
                // The maximised sub-problems: (i, k) and (k+1, j).
                .edge("Tb", "Tb", "[N] -> { Tb[i, j, k] -> Tb[i2, j2, k2] : i2 = i and k = j - 1 and k2 = j and 0 <= i < j and j + 1 < N and j <= k2 }")
                .edge("Tb", "Tb", "[N] -> { Tb[i, j, k] -> Tb[i2, j2, k2] : j2 = j and k = j - 1 and i2 = i - 1 and k2 = i - 1 and 1 <= i < j and j < N }")
                .build()
                .unwrap()
        },
        input_data: (p("N") * p("N")).scale(rat(1, 2)),
        ops: (p("N") * p("N") * p("N")).scale(rat(1, 3)),
        oi_manual_desc: "1",
        oi_manual: |_, _| 1.0,
        paper_oi_up_desc: "2*sqrt(S)",
        paper_oi_up: |s, _| 2.0 * s.sqrt(),
        large: &[("N", 2500)],
        parametrization_depth: 0,
    }
}

/// Deriche recursive edge filter: four directional IIR passes over the image,
/// each a streaming recurrence — the OI is a constant.
pub fn deriche() -> Kernel {
    Kernel {
        name: "deriche",
        category: Category::Streaming,
        params: &["W", "H"],
        dfg: || {
            Dfg::builder()
                .input("Img", "[W, H] -> { Img[i, j] : 0 <= i < W and 0 <= j < H }")
                .statement_with_ops("Y1", "[W, H] -> { Y1[i, j] : 0 <= i < W and 0 <= j < H }", 8)
                .statement_with_ops("Y2", "[W, H] -> { Y2[i, j] : 0 <= i < W and 0 <= j < H }", 8)
                .statement_with_ops("Out", "[W, H] -> { Out[i, j] : 0 <= i < W and 0 <= j < H }", 16)
                .edge("Img", "Y1", "[W, H] -> { Img[i, j] -> Y1[i2, j2] : i2 = i and j2 = j and 0 <= i < W and 0 <= j < H }")
                // Horizontal causal recurrence.
                .edge("Y1", "Y1", "[W, H] -> { Y1[i, j] -> Y1[i2, j + 1] : i2 = i and 0 <= i < W and 0 <= j < H - 1 }")
                .edge("Img", "Y2", "[W, H] -> { Img[i, j] -> Y2[i2, j2] : i2 = i and j2 = j and 0 <= i < W and 0 <= j < H }")
                // Horizontal anti-causal recurrence.
                .edge("Y2", "Y2", "[W, H] -> { Y2[i, j] -> Y2[i2, j2] : i2 = i and j2 = j - 1 and 0 <= i < W and 1 <= j < H }")
                .edge("Y1", "Out", "[W, H] -> { Y1[i, j] -> Out[i2, j2] : i2 = i and j2 = j and 0 <= i < W and 0 <= j < H }")
                .edge("Y2", "Out", "[W, H] -> { Y2[i, j] -> Out[i2, j2] : i2 = i and j2 = j and 0 <= i < W and 0 <= j < H }")
                // Vertical recurrence of the combining pass.
                .edge("Out", "Out", "[W, H] -> { Out[i, j] -> Out[i + 1, j2] : j2 = j and 0 <= i < W - 1 and 0 <= j < H }")
                .build()
                .unwrap()
        },
        input_data: poly_prod(&["H", "W"]),
        ops: poly_prod(&["H", "W"]).scale(rat(32, 1)),
        oi_manual_desc: "16/3",
        oi_manual: |_, _| 16.0 / 3.0,
        paper_oi_up_desc: "32",
        paper_oi_up: |_, _| 32.0,
        large: &[("W", 4096), ("H", 2160)],
        parametrization_depth: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_poly::EngineCtx;

    #[test]
    fn all_misc_kernels_build() {
        let _session = EngineCtx::new().enter();
        for k in [
            correlation(),
            covariance(),
            floyd_warshall(),
            nussinov(),
            deriche(),
        ] {
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
    fn floyd_warshall_domain_is_cubic() {
        let _session = EngineCtx::new().enter();
        let dfg = floyd_warshall().dfg();
        let dom = &dfg.node("P").unwrap().domain;
        assert_eq!(dom.enumerate(&[("N", 4)], 6).len(), 64);
    }

    #[test]
    fn open_gap_kernels_are_flagged() {
        assert_eq!(nussinov().category, Category::OpenGap);
    }
}
