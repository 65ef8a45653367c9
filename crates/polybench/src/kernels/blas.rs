//! BLAS-like and streaming PolyBench kernels: gemm, 2mm, 3mm, syrk, syr2k,
//! trmm, symm, doitgen, plus the bandwidth-bound vector kernels (atax, bicg,
//! mvt, gemver, gesummv, trisolv).
//!
//! Each kernel is modelled by the statements that dominate its data movement,
//! with flow-dependence relations written in the ISL-like notation of the
//! paper's figures. `#ops` and input sizes are taken from Table 1 rather than
//! recomputed, so the tabulated columns match the paper exactly.

use crate::meta::{p, poly_prod, Category, Kernel};
use iolb_dfg::Dfg;
use iolb_math::rat;

/// `C[i][j] += A[i][k] * B[k][j]` (plus the `beta*C` initialisation).
pub fn gemm() -> Kernel {
    Kernel {
        name: "gemm",
        category: Category::Tileable,
        params: &["Ni", "Nj", "Nk"],
        dfg: || {
            Dfg::builder()
                .input("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
                .input("B", "[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
                .input("Cin", "[Ni, Nj] -> { Cin[i, j] : 0 <= i < Ni and 0 <= j < Nj }")
                .statement_with_ops(
                    "C",
                    "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                    2,
                )
                .edge("A", "C", "[Ni, Nj, Nk] -> { A[i, k] -> C[i2, j, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }")
                .edge("B", "C", "[Ni, Nj, Nk] -> { B[k, j] -> C[i, j2, k2] : j2 = j and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }")
                .edge("Cin", "C", "[Ni, Nj, Nk] -> { Cin[i, j] -> C[i2, j2, k] : i2 = i and j2 = j and k = 0 and 0 <= i < Ni and 0 <= j < Nj }")
                .edge("C", "C", "[Ni, Nj, Nk] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }")
                .build()
                .unwrap()
        },
        input_data: poly_prod(&["Ni", "Nj"]) + poly_prod(&["Nj", "Nk"]) + poly_prod(&["Ni", "Nk"]),
        ops: poly_prod(&["Ni", "Nj", "Nk"]).scale(rat(2, 1)),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "sqrt(S)",
        paper_oi_up: |s, _| s.sqrt(),
        large: &[("Ni", 1000), ("Nj", 1100), ("Nk", 1200)],
        parametrization_depth: 0,
    }
}

/// tmp = alpha*A*B; D = tmp*C + beta*D — two chained matrix products.
pub fn two_mm() -> Kernel {
    Kernel {
        name: "2mm",
        category: Category::Tileable,
        params: &["Ni", "Nj", "Nk", "Nl"],
        dfg: || {
            Dfg::builder()
                .input("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
                .input("B", "[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
                .input("C", "[Nj, Nl] -> { C[j, l] : 0 <= j < Nj and 0 <= l < Nl }")
                .input("Din", "[Ni, Nl] -> { Din[i, l] : 0 <= i < Ni and 0 <= l < Nl }")
                .statement_with_ops(
                    "T",
                    "[Ni, Nj, Nk] -> { T[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                    2,
                )
                .statement_with_ops(
                    "D",
                    "[Ni, Nj, Nl] -> { D[i, l, j] : 0 <= i < Ni and 0 <= l < Nl and 0 <= j < Nj }",
                    2,
                )
                .edge("A", "T", "[Ni, Nj, Nk] -> { A[i, k] -> T[i2, j, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }")
                .edge("B", "T", "[Ni, Nj, Nk] -> { B[k, j] -> T[i, j2, k2] : j2 = j and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }")
                .edge("T", "T", "[Ni, Nj, Nk] -> { T[i, j, k] -> T[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }")
                .edge("T", "D", "[Ni, Nj, Nk, Nl] -> { T[i, j, k] -> D[i2, l, j2] : i2 = i and j2 = j and k = Nk - 1 and 0 <= i < Ni and 0 <= j < Nj and 0 <= l < Nl }")
                .edge("C", "D", "[Ni, Nj, Nl] -> { C[j, l] -> D[i, l2, j2] : j2 = j and l2 = l and 0 <= i < Ni and 0 <= j < Nj and 0 <= l < Nl }")
                .edge("Din", "D", "[Ni, Nj, Nl] -> { Din[i, l] -> D[i2, l2, j] : i2 = i and l2 = l and j = 0 and 0 <= i < Ni and 0 <= l < Nl }")
                .edge("D", "D", "[Ni, Nj, Nl] -> { D[i, l, j] -> D[i2, l2, j + 1] : i2 = i and l2 = l and 0 <= i < Ni and 0 <= l < Nl and 0 <= j < Nj - 1 }")
                .build()
                .unwrap()
        },
        input_data: poly_prod(&["Ni", "Nk"])
            + poly_prod(&["Nk", "Nj"])
            + poly_prod(&["Nj", "Nl"])
            + poly_prod(&["Ni", "Nl"]),
        ops: poly_prod(&["Ni", "Nj", "Nk"]) + poly_prod(&["Ni", "Nj", "Nl"]),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "sqrt(S)",
        paper_oi_up: |s, _| s.sqrt(),
        large: &[("Ni", 800), ("Nj", 900), ("Nk", 1100), ("Nl", 1200)],
        parametrization_depth: 0,
    }
}

/// E = A*B; F = C*D; G = E*F — three chained matrix products.
pub fn three_mm() -> Kernel {
    Kernel {
        name: "3mm",
        category: Category::Tileable,
        params: &["Ni", "Nj", "Nk", "Nl", "Nm"],
        dfg: || {
            Dfg::builder()
                .input("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
                .input("B", "[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
                .input("C", "[Nj, Nm] -> { C[j, m] : 0 <= j < Nj and 0 <= m < Nm }")
                .input("D", "[Nm, Nl] -> { D[m, l] : 0 <= m < Nm and 0 <= l < Nl }")
                .statement_with_ops(
                    "E",
                    "[Ni, Nj, Nk] -> { E[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                    2,
                )
                .statement_with_ops(
                    "F",
                    "[Nj, Nl, Nm] -> { F[j, l, m] : 0 <= j < Nj and 0 <= l < Nl and 0 <= m < Nm }",
                    2,
                )
                .statement_with_ops(
                    "G",
                    "[Ni, Nj, Nl] -> { G[i, l, j] : 0 <= i < Ni and 0 <= l < Nl and 0 <= j < Nj }",
                    2,
                )
                .edge("A", "E", "[Ni, Nj, Nk] -> { A[i, k] -> E[i2, j, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }")
                .edge("B", "E", "[Ni, Nj, Nk] -> { B[k, j] -> E[i, j2, k2] : j2 = j and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }")
                .edge("E", "E", "[Ni, Nj, Nk] -> { E[i, j, k] -> E[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }")
                .edge("C", "F", "[Nj, Nl, Nm] -> { C[j, m] -> F[j2, l, m2] : j2 = j and m2 = m and 0 <= j < Nj and 0 <= l < Nl and 0 <= m < Nm }")
                .edge("D", "F", "[Nj, Nl, Nm] -> { D[m, l] -> F[j, l2, m2] : l2 = l and m2 = m and 0 <= j < Nj and 0 <= l < Nl and 0 <= m < Nm }")
                .edge("F", "F", "[Nj, Nl, Nm] -> { F[j, l, m] -> F[j2, l2, m + 1] : j2 = j and l2 = l and 0 <= j < Nj and 0 <= l < Nl and 0 <= m < Nm - 1 }")
                .edge("E", "G", "[Ni, Nj, Nk, Nl] -> { E[i, j, k] -> G[i2, l, j2] : i2 = i and j2 = j and k = Nk - 1 and 0 <= i < Ni and 0 <= j < Nj and 0 <= l < Nl }")
                .edge("F", "G", "[Ni, Nj, Nl, Nm] -> { F[j, l, m] -> G[i, l2, j2] : j2 = j and l2 = l and m = Nm - 1 and 0 <= i < Ni and 0 <= j < Nj and 0 <= l < Nl }")
                .edge("G", "G", "[Ni, Nj, Nl] -> { G[i, l, j] -> G[i2, l2, j + 1] : i2 = i and l2 = l and 0 <= i < Ni and 0 <= l < Nl and 0 <= j < Nj - 1 }")
                .build()
                .unwrap()
        },
        input_data: poly_prod(&["Ni", "Nk"])
            + poly_prod(&["Nk", "Nj"])
            + poly_prod(&["Nj", "Nm"])
            + poly_prod(&["Nm", "Nl"]),
        ops: poly_prod(&["Ni", "Nj", "Nk"])
            + poly_prod(&["Nj", "Nl", "Nm"])
            + poly_prod(&["Ni", "Nj", "Nl"]),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "sqrt(S)",
        paper_oi_up: |s, _| s.sqrt(),
        large: &[
            ("Ni", 800),
            ("Nj", 900),
            ("Nk", 1000),
            ("Nl", 1100),
            ("Nm", 1200),
        ],
        parametrization_depth: 0,
    }
}

/// `C[i][j] += A[i][k] * A[j][k]` for `j <= i` (rank-k update on the lower triangle).
pub fn syrk() -> Kernel {
    Kernel {
        name: "syrk",
        category: Category::Tileable,
        params: &["N", "M"],
        dfg: || {
            Dfg::builder()
                .input("A", "[N, M] -> { A[i, k] : 0 <= i < N and 0 <= k < M }")
                .input("Cin", "[N] -> { Cin[i, j] : 0 <= i < N and 0 <= j <= i }")
                .statement_with_ops(
                    "C",
                    "[N, M] -> { C[i, j, k] : 0 <= i < N and 0 <= j <= i and 0 <= k < M }",
                    1,
                )
                .edge("A", "C", "[N, M] -> { A[i, k] -> C[i2, j, k2] : i2 = i and k2 = k and 0 <= i < N and 0 <= j <= i and 0 <= k < M }")
                .edge("A", "C", "[N, M] -> { A[j, k] -> C[i, j2, k2] : j2 = j and k2 = k and 0 <= j <= i and i < N and 0 <= k < M }")
                .edge("Cin", "C", "[N, M] -> { Cin[i, j] -> C[i2, j2, k] : i2 = i and j2 = j and k = 0 and 0 <= i < N and 0 <= j <= i }")
                .edge("C", "C", "[N, M] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < N and 0 <= j <= i and 0 <= k < M - 1 }")
                .build()
                .unwrap()
        },
        input_data: (p("N") * p("N")).scale(rat(1, 2)) + poly_prod(&["M", "N"]),
        ops: (p("M") * p("N") * p("N")),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "2*sqrt(S)",
        paper_oi_up: |s, _| 2.0 * s.sqrt(),
        large: &[("N", 1200), ("M", 1000)],
        parametrization_depth: 0,
    }
}

/// `C[i][j] += A[i][k]*B[j][k] + B[i][k]*A[j][k]` for `j <= i`.
pub fn syr2k() -> Kernel {
    Kernel {
        name: "syr2k",
        category: Category::Tileable,
        params: &["N", "M"],
        dfg: || {
            Dfg::builder()
                .input("A", "[N, M] -> { A[i, k] : 0 <= i < N and 0 <= k < M }")
                .input("B", "[N, M] -> { B[i, k] : 0 <= i < N and 0 <= k < M }")
                .statement_with_ops(
                    "C",
                    "[N, M] -> { C[i, j, k] : 0 <= i < N and 0 <= j <= i and 0 <= k < M }",
                    2,
                )
                .edge("A", "C", "[N, M] -> { A[i, k] -> C[i2, j, k2] : i2 = i and k2 = k and 0 <= i < N and 0 <= j <= i and 0 <= k < M }")
                .edge("A", "C", "[N, M] -> { A[j, k] -> C[i, j2, k2] : j2 = j and k2 = k and 0 <= j <= i and i < N and 0 <= k < M }")
                .edge("B", "C", "[N, M] -> { B[i, k] -> C[i2, j, k2] : i2 = i and k2 = k and 0 <= i < N and 0 <= j <= i and 0 <= k < M }")
                .edge("B", "C", "[N, M] -> { B[j, k] -> C[i, j2, k2] : j2 = j and k2 = k and 0 <= j <= i and i < N and 0 <= k < M }")
                .edge("C", "C", "[N, M] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < N and 0 <= j <= i and 0 <= k < M - 1 }")
                .build()
                .unwrap()
        },
        input_data: (p("N") * p("N")).scale(rat(1, 2)) + poly_prod(&["M", "N"]).scale(rat(2, 1)),
        ops: (p("M") * p("N") * p("N")).scale(rat(2, 1)),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "2*sqrt(S)",
        paper_oi_up: |s, _| 2.0 * s.sqrt(),
        large: &[("N", 1200), ("M", 1000)],
        parametrization_depth: 0,
    }
}

/// `B[i][j] += A[k][i] * B[k][j]` for `k > i` (triangular matrix multiply).
pub fn trmm() -> Kernel {
    Kernel {
        name: "trmm",
        category: Category::Tileable,
        params: &["M", "N"],
        dfg: || {
            Dfg::builder()
                .input("A", "[M] -> { A[k, i] : 0 <= i < M and i < k < M }")
                .input("Bin", "[M, N] -> { Bin[i, j] : 0 <= i < M and 0 <= j < N }")
                .statement_with_ops(
                    "B",
                    "[M, N] -> { B[i, j, k] : 0 <= i < M and 0 <= j < N and i + 1 <= k < M }",
                    2,
                )
                .edge("A", "B", "[M, N] -> { A[k, i] -> B[i2, j, k2] : i2 = i and k2 = k and 0 <= i < M and i < k < M and 0 <= j < N }")
                .edge("Bin", "B", "[M, N] -> { Bin[k, j] -> B[i, j2, k2] : j2 = j and k2 = k and 0 <= i < M and i < k < M and 0 <= j < N }")
                .edge("B", "B", "[M, N] -> { B[i, j, k] -> B[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < M and 0 <= j < N and i + 1 <= k < M - 1 }")
                .build()
                .unwrap()
        },
        input_data: (p("M") * p("M")).scale(rat(1, 2)) + poly_prod(&["M", "N"]),
        ops: p("M") * p("M") * p("N"),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "sqrt(S)",
        paper_oi_up: |s, _| s.sqrt(),
        large: &[("M", 1000), ("N", 1200)],
        parametrization_depth: 0,
    }
}

/// C += alpha*A*B + beta*... with symmetric A (modelled by its dominant
/// triple-loop update).
pub fn symm() -> Kernel {
    Kernel {
        name: "symm",
        category: Category::Tileable,
        params: &["M", "N"],
        dfg: || {
            Dfg::builder()
                .input("A", "[M] -> { A[i, k] : 0 <= i < M and 0 <= k <= i }")
                .input("B", "[M, N] -> { B[i, j] : 0 <= i < M and 0 <= j < N }")
                .input("Cin", "[M, N] -> { Cin[i, j] : 0 <= i < M and 0 <= j < N }")
                .statement_with_ops(
                    "C",
                    "[M, N] -> { C[i, j, k] : 0 <= i < M and 0 <= j < N and 0 <= k < i }",
                    2,
                )
                .edge("A", "C", "[M, N] -> { A[i, k] -> C[i2, j, k2] : i2 = i and k2 = k and 0 <= k < i and i < M and 0 <= j < N }")
                .edge("B", "C", "[M, N] -> { B[k, j] -> C[i, j2, k2] : j2 = j and k2 = k and 0 <= k < i and i < M and 0 <= j < N }")
                .edge("Cin", "C", "[M, N] -> { Cin[i, j] -> C[i2, j2, k] : i2 = i and j2 = j and k = 0 and 1 <= i < M and 0 <= j < N }")
                .edge("C", "C", "[M, N] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < M and 0 <= j < N and 0 <= k < i - 1 }")
                .build()
                .unwrap()
        },
        input_data: (p("M") * p("M")).scale(rat(1, 2)) + poly_prod(&["M", "N"]).scale(rat(2, 1)),
        ops: (p("M") * p("M") * p("N")).scale(rat(2, 1)),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "sqrt(S)",
        paper_oi_up: |s, _| s.sqrt(),
        large: &[("M", 1000), ("N", 1200)],
        parametrization_depth: 0,
    }
}

/// `sum[r][q][p] += A[r][q][s] * C4[s][p]` — a batched matrix product.
pub fn doitgen() -> Kernel {
    // The fully parallel batch dimensions r and q are fused into a single
    // dimension rq of extent Nr·Nq (they carry no reuse), which keeps the
    // statement 3-dimensional — the same shape the geometric reasoning uses.
    Kernel {
        name: "doitgen",
        category: Category::Tileable,
        params: &["Nrq", "Np"],
        dfg: || {
            Dfg::builder()
                .input("A", "[Nrq, Np] -> { A[rq, s] : 0 <= rq < Nrq and 0 <= s < Np }")
                .input("C4", "[Np] -> { C4[s, p] : 0 <= s < Np and 0 <= p < Np }")
                .statement_with_ops(
                    "Sum",
                    "[Nrq, Np] -> { Sum[rq, p, s] : 0 <= rq < Nrq and 0 <= p < Np and 0 <= s < Np }",
                    2,
                )
                .edge("A", "Sum", "[Nrq, Np] -> { A[rq, s] -> Sum[rq2, p, s2] : rq2 = rq and s2 = s and 0 <= rq < Nrq and 0 <= p < Np and 0 <= s < Np }")
                .edge("C4", "Sum", "[Nrq, Np] -> { C4[s, p] -> Sum[rq, p2, s2] : p2 = p and s2 = s and 0 <= rq < Nrq and 0 <= p < Np and 0 <= s < Np }")
                .edge("Sum", "Sum", "[Nrq, Np] -> { Sum[rq, p, s] -> Sum[rq2, p2, s + 1] : rq2 = rq and p2 = p and 0 <= rq < Nrq and 0 <= p < Np and 0 <= s < Np - 1 }")
                .build()
                .unwrap()
        },
        input_data: poly_prod(&["Np", "Nrq"]),
        ops: (p("Nrq") * p("Np") * p("Np")).scale(rat(2, 1)),
        oi_manual_desc: "sqrt(S)",
        oi_manual: |s, _| s.sqrt(),
        paper_oi_up_desc: "sqrt(S)",
        paper_oi_up: |s, _| s.sqrt(),
        // Nrq = Nr·Nq for the LARGE dataset (150·140).
        large: &[("Nrq", 21_000), ("Np", 160)],
        parametrization_depth: 0,
    }
}

/// y = Aᵀ(Ax): two streaming matrix-vector products.
pub fn atax() -> Kernel {
    Kernel {
        name: "atax",
        category: Category::Streaming,
        params: &["M", "N"],
        dfg: || {
            Dfg::builder()
                .input("A", "[M, N] -> { A[i, j] : 0 <= i < M and 0 <= j < N }")
                .input("x", "[N] -> { x[j] : 0 <= j < N }")
                .statement_with_ops("T", "[M, N] -> { T[i, j] : 0 <= i < M and 0 <= j < N }", 2)
                .statement_with_ops("Y", "[M, N] -> { Y[i, j] : 0 <= i < M and 0 <= j < N }", 2)
                .edge("A", "T", "[M, N] -> { A[i, j] -> T[i2, j2] : i2 = i and j2 = j and 0 <= i < M and 0 <= j < N }")
                .edge("x", "T", "[M, N] -> { x[j] -> T[i, j2] : j2 = j and 0 <= i < M and 0 <= j < N }")
                .edge("T", "T", "[M, N] -> { T[i, j] -> T[i2, j + 1] : i2 = i and 0 <= i < M and 0 <= j < N - 1 }")
                .edge("A", "Y", "[M, N] -> { A[i, j] -> Y[i2, j2] : i2 = i and j2 = j and 0 <= i < M and 0 <= j < N }")
                .edge("T", "Y", "[M, N] -> { T[i, j] -> Y[i2, j2] : i2 = i and j = N - 1 and 0 <= i < M and 0 <= j2 < N }")
                .edge("Y", "Y", "[M, N] -> { Y[i, j] -> Y[i + 1, j2] : j2 = j and 0 <= i < M - 1 and 0 <= j < N }")
                .build()
                .unwrap()
        },
        input_data: poly_prod(&["M", "N"]),
        ops: poly_prod(&["M", "N"]).scale(rat(4, 1)),
        oi_manual_desc: "4",
        oi_manual: |_, _| 4.0,
        paper_oi_up_desc: "4",
        paper_oi_up: |_, _| 4.0,
        large: &[("M", 1900), ("N", 2100)],
        parametrization_depth: 0,
    }
}

/// s = Aᵀr; q = Ap — the BiCG sub-kernel.
pub fn bicg() -> Kernel {
    Kernel {
        name: "bicg",
        category: Category::Streaming,
        params: &["M", "N"],
        dfg: || {
            Dfg::builder()
                .input("A", "[M, N] -> { A[i, j] : 0 <= i < M and 0 <= j < N }")
                .input("pvec", "[N] -> { pvec[j] : 0 <= j < N }")
                .input("rvec", "[M] -> { rvec[i] : 0 <= i < M }")
                .statement_with_ops("Q", "[M, N] -> { Q[i, j] : 0 <= i < M and 0 <= j < N }", 2)
                .statement_with_ops(
                    "Sv",
                    "[M, N] -> { Sv[i, j] : 0 <= i < M and 0 <= j < N }",
                    2,
                )
                .edge(
                    "A",
                    "Q",
                    "[M, N] -> { A[i, j] -> Q[i2, j2] : i2 = i and j2 = j and 0 <= i < M and 0 <= j < N }",
                )
                .edge(
                    "pvec",
                    "Q",
                    "[M, N] -> { pvec[j] -> Q[i, j2] : j2 = j and 0 <= i < M and 0 <= j < N }",
                )
                .edge(
                    "Q",
                    "Q",
                    "[M, N] -> { Q[i, j] -> Q[i2, j + 1] : i2 = i and 0 <= i < M and 0 <= j < N - 1 }",
                )
                .edge(
                    "A",
                    "Sv",
                    "[M, N] -> { A[i, j] -> Sv[i2, j2] : i2 = i and j2 = j and 0 <= i < M and 0 <= j < N }",
                )
                .edge(
                    "rvec",
                    "Sv",
                    "[M, N] -> { rvec[i] -> Sv[i2, j] : i2 = i and 0 <= i < M and 0 <= j < N }",
                )
                .edge(
                    "Sv",
                    "Sv",
                    "[M, N] -> { Sv[i, j] -> Sv[i + 1, j2] : j2 = j and 0 <= i < M - 1 and 0 <= j < N }",
                )
                .build()
                .unwrap()
        },
        input_data: poly_prod(&["M", "N"]),
        ops: poly_prod(&["M", "N"]).scale(rat(4, 1)),
        oi_manual_desc: "4",
        oi_manual: |_, _| 4.0,
        paper_oi_up_desc: "4",
        paper_oi_up: |_, _| 4.0,
        large: &[("M", 1900), ("N", 2100)],
        parametrization_depth: 0,
    }
}

/// x1 += A*y1; x2 += Aᵀ*y2.
pub fn mvt() -> Kernel {
    Kernel {
        name: "mvt",
        category: Category::Streaming,
        params: &["N"],
        dfg: || {
            Dfg::builder()
                .input("A", "[N] -> { A[i, j] : 0 <= i < N and 0 <= j < N }")
                .input("y1", "[N] -> { y1[j] : 0 <= j < N }")
                .input("y2", "[N] -> { y2[i] : 0 <= i < N }")
                .statement_with_ops("X1", "[N] -> { X1[i, j] : 0 <= i < N and 0 <= j < N }", 2)
                .statement_with_ops("X2", "[N] -> { X2[i, j] : 0 <= i < N and 0 <= j < N }", 2)
                .edge(
                    "A",
                    "X1",
                    "[N] -> { A[i, j] -> X1[i2, j2] : i2 = i and j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "y1",
                    "X1",
                    "[N] -> { y1[j] -> X1[i, j2] : j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "X1",
                    "X1",
                    "[N] -> { X1[i, j] -> X1[i2, j + 1] : i2 = i and 0 <= i < N and 0 <= j < N - 1 }",
                )
                .edge(
                    "A",
                    "X2",
                    "[N] -> { A[j, i] -> X2[i2, j2] : i2 = i and j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "y2",
                    "X2",
                    "[N] -> { y2[j] -> X2[i, j2] : j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "X2",
                    "X2",
                    "[N] -> { X2[i, j] -> X2[i2, j + 1] : i2 = i and 0 <= i < N and 0 <= j < N - 1 }",
                )
                .build()
                .unwrap()
        },
        input_data: p("N") * p("N"),
        ops: (p("N") * p("N")).scale(rat(4, 1)),
        oi_manual_desc: "4",
        oi_manual: |_, _| 4.0,
        paper_oi_up_desc: "4",
        paper_oi_up: |_, _| 4.0,
        large: &[("N", 2000)],
        parametrization_depth: 0,
    }
}

/// The gemver kernel: A_hat = A + u1v1ᵀ + u2v2ᵀ; x = βA_hatᵀy + z; w = αA_hat x.
pub fn gemver() -> Kernel {
    Kernel {
        name: "gemver",
        category: Category::Streaming,
        params: &["N"],
        dfg: || {
            Dfg::builder()
                .input("A", "[N] -> { A[i, j] : 0 <= i < N and 0 <= j < N }")
                .input("u1", "[N] -> { u1[i] : 0 <= i < N }")
                .input("v1", "[N] -> { v1[j] : 0 <= j < N }")
                .statement_with_ops("Ah", "[N] -> { Ah[i, j] : 0 <= i < N and 0 <= j < N }", 4)
                .statement_with_ops("X", "[N] -> { X[i, j] : 0 <= i < N and 0 <= j < N }", 3)
                .statement_with_ops("W", "[N] -> { W[i, j] : 0 <= i < N and 0 <= j < N }", 3)
                .edge(
                    "A",
                    "Ah",
                    "[N] -> { A[i, j] -> Ah[i2, j2] : i2 = i and j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "u1",
                    "Ah",
                    "[N] -> { u1[i] -> Ah[i2, j] : i2 = i and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "v1",
                    "Ah",
                    "[N] -> { v1[j] -> Ah[i, j2] : j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "Ah",
                    "X",
                    "[N] -> { Ah[j, i] -> X[i2, j2] : i2 = i and j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "X",
                    "X",
                    "[N] -> { X[i, j] -> X[i2, j + 1] : i2 = i and 0 <= i < N and 0 <= j < N - 1 }",
                )
                .edge(
                    "Ah",
                    "W",
                    "[N] -> { Ah[i, j] -> W[i2, j2] : i2 = i and j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "X",
                    "W",
                    "[N] -> { X[j, k] -> W[i, j2] : j2 = j and k = N - 1 and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "W",
                    "W",
                    "[N] -> { W[i, j] -> W[i2, j + 1] : i2 = i and 0 <= i < N and 0 <= j < N - 1 }",
                )
                .build()
                .unwrap()
        },
        input_data: p("N") * p("N"),
        ops: (p("N") * p("N")).scale(rat(10, 1)),
        oi_manual_desc: "5",
        oi_manual: |_, _| 5.0,
        paper_oi_up_desc: "10",
        paper_oi_up: |_, _| 10.0,
        large: &[("N", 2000)],
        parametrization_depth: 0,
    }
}

/// y = αAx + βBx — two dense matrix-vector products sharing x.
pub fn gesummv() -> Kernel {
    Kernel {
        name: "gesummv",
        category: Category::Streaming,
        params: &["N"],
        dfg: || {
            Dfg::builder()
                .input("A", "[N] -> { A[i, j] : 0 <= i < N and 0 <= j < N }")
                .input("B", "[N] -> { B[i, j] : 0 <= i < N and 0 <= j < N }")
                .input("x", "[N] -> { x[j] : 0 <= j < N }")
                .statement_with_ops("Y", "[N] -> { Y[i, j] : 0 <= i < N and 0 <= j < N }", 4)
                .edge(
                    "A",
                    "Y",
                    "[N] -> { A[i, j] -> Y[i2, j2] : i2 = i and j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "B",
                    "Y",
                    "[N] -> { B[i, j] -> Y[i2, j2] : i2 = i and j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "x",
                    "Y",
                    "[N] -> { x[j] -> Y[i, j2] : j2 = j and 0 <= i < N and 0 <= j < N }",
                )
                .edge(
                    "Y",
                    "Y",
                    "[N] -> { Y[i, j] -> Y[i2, j + 1] : i2 = i and 0 <= i < N and 0 <= j < N - 1 }",
                )
                .build()
                .unwrap()
        },
        input_data: (p("N") * p("N")).scale(rat(2, 1)),
        ops: (p("N") * p("N")).scale(rat(4, 1)),
        oi_manual_desc: "2",
        oi_manual: |_, _| 2.0,
        paper_oi_up_desc: "2",
        paper_oi_up: |_, _| 2.0,
        large: &[("N", 1300)],
        parametrization_depth: 0,
    }
}

/// Forward substitution `x[i] = (b[i] − Σ_{j<i} L[i][j]x[j]) / L[i][i]`.
pub fn trisolv() -> Kernel {
    Kernel {
        name: "trisolv",
        category: Category::Streaming,
        params: &["N"],
        dfg: || {
            Dfg::builder()
                .input("L", "[N] -> { L[i, j] : 0 <= i < N and 0 <= j <= i }")
                .input("b", "[N] -> { b[i] : 0 <= i < N }")
                .statement_with_ops("X", "[N] -> { X[i, j] : 0 <= i < N and 0 <= j < i }", 2)
                .edge(
                    "L",
                    "X",
                    "[N] -> { L[i, j] -> X[i2, j2] : i2 = i and j2 = j and 0 <= j < i and i < N }",
                )
                .edge(
                    "b",
                    "X",
                    "[N] -> { b[i] -> X[i2, j] : i2 = i and j = 0 and 1 <= i < N }",
                )
                .edge(
                    "X",
                    "X",
                    "[N] -> { X[i, j] -> X[i2, j + 1] : i2 = i and 0 <= j < i - 1 and i < N }",
                )
                .edge(
                    "X",
                    "X",
                    "[N] -> { X[j, k] -> X[i, j2] : j2 = j and k = j - 1 and j < i < N and 1 <= j < N }",
                )
                .build()
                .unwrap()
        },
        input_data: (p("N") * p("N")).scale(rat(1, 2)),
        ops: p("N") * p("N"),
        oi_manual_desc: "2",
        oi_manual: |_, _| 2.0,
        paper_oi_up_desc: "2",
        paper_oi_up: |_, _| 2.0,
        large: &[("N", 2000)],
        parametrization_depth: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_poly::EngineCtx;

    #[test]
    fn all_blas_kernels_build() {
        let _session = EngineCtx::new().enter();
        let kernels = [
            gemm(),
            two_mm(),
            three_mm(),
            syrk(),
            syr2k(),
            trmm(),
            symm(),
            doitgen(),
            atax(),
            bicg(),
            mvt(),
            gemver(),
            gesummv(),
            trisolv(),
        ];
        for k in &kernels {
            assert!(
                k.dfg().statements().count() >= 1,
                "{} has no statements",
                k.name
            );
            assert!(!k.ops.is_zero(), "{} has zero ops", k.name);
            assert!(!k.input_data.is_zero(), "{} has zero input", k.name);
            assert!(
                k.ops_at_large() > 0.0,
                "{} ops at LARGE not positive",
                k.name
            );
        }
    }

    #[test]
    fn gemm_metadata_matches_table1() {
        let k = gemm();
        assert_eq!(k.ops.to_string(), "2*Ni*Nj*Nk");
        assert_eq!((k.oi_manual)(256.0, &Default::default()), 16.0);
        assert_eq!(k.category, Category::Tileable);
    }

    #[test]
    fn streaming_kernels_have_constant_oi() {
        for k in [atax(), bicg(), mvt(), gesummv(), trisolv()] {
            let oi = (k.paper_oi_up)(1_000_000.0, &Default::default());
            assert!(oi <= 4.0, "{} should be bandwidth bound", k.name);
            assert_eq!(k.category, Category::Streaming);
        }
    }
}
