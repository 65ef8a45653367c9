//! Stencil kernels: jacobi-1d, jacobi-2d, heat-3d, seidel-2d, fdtd-2d, adi.
//!
//! Stencils are modelled by their update statement with one chain circuit per
//! stencil offset; adi (alternating-direction implicit) is the category-3
//! kernel whose OI is bounded by a constant through the wavefront argument —
//! each time step's column sweep then row sweep makes every point of step
//! `t+1` depend on every point of step `t`.

use crate::meta::{p, Category, Kernel};
use iolb_dfg::Dfg;
use iolb_math::rat;

/// 1-D three-point Jacobi stencil iterated T times.
pub fn jacobi_1d() -> Kernel {
    Kernel {
        name: "jacobi-1d",
        category: Category::Tileable,
        params: &["T", "N"],
        dfg: || {
            Dfg::builder()
                .input("Ain", "[N] -> { Ain[i] : 0 <= i < N }")
                .statement_with_ops("A", "[T, N] -> { A[t, i] : 0 <= t < T and 1 <= i < N - 1 }", 3)
                .edge("Ain", "A", "[T, N] -> { Ain[i] -> A[t, i2] : t = 0 and i2 = i and 1 <= i < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i] -> A[t + 1, i] : 0 <= t < T - 1 and 1 <= i < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i] -> A[t2, i2] : t2 = t + 1 and i2 = i + 1 and 0 <= t < T - 1 and 1 <= i < N - 2 }")
                .edge("A", "A", "[T, N] -> { A[t, i] -> A[t2, i2] : t2 = t + 1 and i2 = i - 1 and 0 <= t < T - 1 and 2 <= i < N - 1 }")
                .build()
                .unwrap()
        },
        input_data: p("N"),
        ops: (p("N") * p("T")).scale(rat(6, 1)),
        oi_manual_desc: "(3/2)*S",
        oi_manual: |s, _| 1.5 * s,
        paper_oi_up_desc: "24*S",
        paper_oi_up: |s, _| 24.0 * s,
        large: &[("N", 2000), ("T", 500)],
        parametrization_depth: 0,
    }
}

/// 2-D five-point Jacobi stencil iterated T times.
pub fn jacobi_2d() -> Kernel {
    Kernel {
        name: "jacobi-2d",
        category: Category::Tileable,
        params: &["T", "N"],
        dfg: || {
            Dfg::builder()
                .input("Ain", "[N] -> { Ain[i, j] : 0 <= i < N and 0 <= j < N }")
                .statement_with_ops(
                    "A",
                    "[T, N] -> { A[t, i, j] : 0 <= t < T and 1 <= i < N - 1 and 1 <= j < N - 1 }",
                    5,
                )
                .edge("Ain", "A", "[T, N] -> { Ain[i, j] -> A[t, i2, j2] : t = 0 and i2 = i and j2 = j and 1 <= i < N - 1 and 1 <= j < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t + 1, i, j] : 0 <= t < T - 1 and 1 <= i < N - 1 and 1 <= j < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t2, i2, j2] : t2 = t + 1 and i2 = i + 1 and j2 = j and 0 <= t < T - 1 and 1 <= i < N - 2 and 1 <= j < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t2, i2, j2] : t2 = t + 1 and i2 = i - 1 and j2 = j and 0 <= t < T - 1 and 2 <= i < N - 1 and 1 <= j < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t2, i2, j2] : t2 = t + 1 and i2 = i and j2 = j + 1 and 0 <= t < T - 1 and 1 <= i < N - 1 and 1 <= j < N - 2 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t2, i2, j2] : t2 = t + 1 and i2 = i and j2 = j - 1 and 0 <= t < T - 1 and 1 <= i < N - 1 and 2 <= j < N - 1 }")
                .build()
                .unwrap()
        },
        input_data: p("N") * p("N"),
        ops: (p("N") * p("N") * p("T")).scale(rat(10, 1)),
        oi_manual_desc: "(5/4)*sqrt(S)",
        oi_manual: |s, _| 1.25 * s.sqrt(),
        paper_oi_up_desc: "15*sqrt(3)*sqrt(S)",
        paper_oi_up: |s, _| 15.0 * 3.0_f64.sqrt() * s.sqrt(),
        large: &[("N", 1300), ("T", 500)],
        parametrization_depth: 0,
    }
}

/// 3-D seven-point heat stencil iterated T times (modelled with the six face
/// neighbours plus the centre).
pub fn heat_3d() -> Kernel {
    Kernel {
        name: "heat-3d",
        category: Category::Tileable,
        params: &["T", "N"],
        dfg: || {
            let mut builder = Dfg::builder()
                .input("Ain", "[N] -> { Ain[i, j, k] : 0 <= i < N and 0 <= j < N and 0 <= k < N }")
                .statement_with_ops(
                    "A",
                    "[T, N] -> { A[t, i, j, k] : 0 <= t < T and 1 <= i < N - 1 and 1 <= j < N - 1 and 1 <= k < N - 1 }",
                    15,
                )
                .edge("Ain", "A", "[T, N] -> { Ain[i, j, k] -> A[t, i2, j2, k2] : t = 0 and i2 = i and j2 = j and k2 = k and 1 <= i < N - 1 and 1 <= j < N - 1 and 1 <= k < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j, k] -> A[t + 1, i, j, k] : 0 <= t < T - 1 and 1 <= i < N - 1 and 1 <= j < N - 1 and 1 <= k < N - 1 }");
            // The six face-neighbour chains.
            let shifts: [(i32, i32, i32); 6] = [
                (1, 0, 0),
                (-1, 0, 0),
                (0, 1, 0),
                (0, -1, 0),
                (0, 0, 1),
                (0, 0, -1),
            ];
            for (di, dj, dk) in shifts {
                let rel = format!(
                    "[T, N] -> {{ A[t, i, j, k] -> A[t2, i2, j2, k2] : t2 = t + 1 and i2 = i + {di} and j2 = j + {dj} and k2 = k + {dk} and 0 <= t < T - 1 and 2 <= i < N - 2 and 2 <= j < N - 2 and 2 <= k < N - 2 }}"
                );
                builder = builder.edge("A", "A", &rel);
            }
            builder.build().unwrap()
        },
        input_data: p("N") * p("N") * p("N"),
        ops: (p("N") * p("N") * p("N") * p("T")).scale(rat(30, 1)),
        oi_manual_desc: "(5/2)*S^(1/3)",
        oi_manual: |s, _| 2.5 * s.powf(1.0 / 3.0),
        paper_oi_up_desc: "(160/(3*3^(1/3)))*S^(1/3)",
        paper_oi_up: |s, _| 160.0 / (3.0 * 3.0_f64.powf(1.0 / 3.0)) * s.powf(1.0 / 3.0),
        large: &[("N", 120), ("T", 500)],
        parametrization_depth: 0,
    }
}

/// Gauss-Seidel 2-D sweep iterated T times (in-place nine-point update).
pub fn seidel_2d() -> Kernel {
    Kernel {
        name: "seidel-2d",
        category: Category::Tileable,
        params: &["T", "N"],
        dfg: || {
            Dfg::builder()
                .input("Ain", "[N] -> { Ain[i, j] : 0 <= i < N and 0 <= j < N }")
                .statement_with_ops(
                    "A",
                    "[T, N] -> { A[t, i, j] : 0 <= t < T and 1 <= i < N - 1 and 1 <= j < N - 1 }",
                    9,
                )
                .edge("Ain", "A", "[T, N] -> { Ain[i, j] -> A[t, i2, j2] : t = 0 and i2 = i and j2 = j and 1 <= i < N - 1 and 1 <= j < N - 1 }")
                // In-place: same-sweep dependences on already-updated west/north
                // neighbours, previous-sweep dependences on the rest.
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t2, i2, j2] : t2 = t and i2 = i and j2 = j + 1 and 0 <= t < T and 1 <= i < N - 1 and 1 <= j < N - 2 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t2, i2, j2] : t2 = t and i2 = i + 1 and j2 = j and 0 <= t < T and 1 <= i < N - 2 and 1 <= j < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t + 1, i, j] : 0 <= t < T - 1 and 1 <= i < N - 1 and 1 <= j < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t2, i2, j2] : t2 = t + 1 and i2 = i - 1 and j2 = j and 0 <= t < T - 1 and 2 <= i < N - 1 and 1 <= j < N - 1 }")
                .edge("A", "A", "[T, N] -> { A[t, i, j] -> A[t2, i2, j2] : t2 = t + 1 and i2 = i and j2 = j - 1 and 0 <= t < T - 1 and 1 <= i < N - 1 and 2 <= j < N - 1 }")
                .build()
                .unwrap()
        },
        input_data: p("N") * p("N"),
        ops: (p("N") * p("N") * p("T")).scale(rat(9, 1)),
        oi_manual_desc: "(9/4)*sqrt(S)",
        oi_manual: |s, _| 2.25 * s.sqrt(),
        paper_oi_up_desc: "27*(sqrt(3)/2)*sqrt(S)",
        paper_oi_up: |s, _| 27.0 * 3.0_f64.sqrt() / 2.0 * s.sqrt(),
        large: &[("N", 2000), ("T", 500)],
        parametrization_depth: 0,
    }
}

/// 2-D finite-difference time-domain kernel (ex/ey/hz field updates); hz is
/// the dominant statement, coupled to ex and ey with one-cell shifts.
pub fn fdtd_2d() -> Kernel {
    Kernel {
        name: "fdtd-2d",
        category: Category::Tileable,
        params: &["T", "Nx", "Ny"],
        dfg: || {
            Dfg::builder()
                .input("Hin", "[Nx, Ny] -> { Hin[i, j] : 0 <= i < Nx and 0 <= j < Ny }")
                .statement_with_ops("Ex", "[T, Nx, Ny] -> { Ex[t, i, j] : 0 <= t < T and 0 <= i < Nx and 1 <= j < Ny }", 3)
                .statement_with_ops("Ey", "[T, Nx, Ny] -> { Ey[t, i, j] : 0 <= t < T and 1 <= i < Nx and 0 <= j < Ny }", 3)
                .statement_with_ops("Hz", "[T, Nx, Ny] -> { Hz[t, i, j] : 0 <= t < T and 0 <= i < Nx - 1 and 0 <= j < Ny - 1 }", 5)
                .edge("Hin", "Hz", "[T, Nx, Ny] -> { Hin[i, j] -> Hz[t, i2, j2] : t = 0 and i2 = i and j2 = j and 0 <= i < Nx - 1 and 0 <= j < Ny - 1 }")
                .edge("Hz", "Ex", "[T, Nx, Ny] -> { Hz[t, i, j] -> Ex[t2, i2, j2] : t2 = t + 1 and i2 = i and j2 = j + 1 and 0 <= t < T - 1 and 0 <= i < Nx - 1 and 0 <= j < Ny - 1 }")
                .edge("Hz", "Ex", "[T, Nx, Ny] -> { Hz[t, i, j] -> Ex[t2, i2, j2] : t2 = t + 1 and i2 = i and j2 = j and 0 <= t < T - 1 and 0 <= i < Nx - 1 and 1 <= j < Ny - 1 }")
                .edge("Hz", "Ey", "[T, Nx, Ny] -> { Hz[t, i, j] -> Ey[t2, i2, j2] : t2 = t + 1 and i2 = i + 1 and j2 = j and 0 <= t < T - 1 and 0 <= i < Nx - 1 and 0 <= j < Ny - 1 }")
                .edge("Hz", "Ey", "[T, Nx, Ny] -> { Hz[t, i, j] -> Ey[t2, i2, j2] : t2 = t + 1 and i2 = i and j2 = j and 0 <= t < T - 1 and 1 <= i < Nx - 1 and 0 <= j < Ny - 1 }")
                // The E→Hz couplings are modelled as direct Hz-to-Hz chains one time
                // step later (E fields are produced and consumed within the step);
                // this keeps the circuit compositions small while preserving the
                // stencil's reuse directions.
                .edge("Hz", "Hz", "[T, Nx, Ny] -> { Hz[t, i, j] -> Hz[t2, i2, j2] : t2 = t + 1 and i2 = i and j2 = j + 1 and 0 <= t < T - 1 and 0 <= i < Nx - 1 and 0 <= j < Ny - 2 }")
                .edge("Hz", "Hz", "[T, Nx, Ny] -> { Hz[t, i, j] -> Hz[t2, i2, j2] : t2 = t + 1 and i2 = i + 1 and j2 = j and 0 <= t < T - 1 and 0 <= i < Nx - 2 and 0 <= j < Ny - 1 }")
                .edge("Hz", "Hz", "[T, Nx, Ny] -> { Hz[t, i, j] -> Hz[t + 1, i, j] : 0 <= t < T - 1 and 0 <= i < Nx - 1 and 0 <= j < Ny - 1 }")
                .build()
                .unwrap()
        },
        input_data: (p("Nx") * p("Ny")).scale(rat(3, 1)),
        ops: (p("Nx") * p("Ny") * p("T")).scale(rat(11, 1)),
        oi_manual_desc: "(11/24)*sqrt(3)*sqrt(S)",
        oi_manual: |s, _| 11.0 / 24.0 * 3.0_f64.sqrt() * s.sqrt(),
        paper_oi_up_desc: "22*sqrt(2)*sqrt(S)",
        paper_oi_up: |s, _| 22.0 * 2.0_f64.sqrt() * s.sqrt(),
        large: &[("T", 500), ("Nx", 1000), ("Ny", 1200)],
        parametrization_depth: 0,
    }
}

/// Alternating-direction implicit time stepping (category 3). Each time step
/// performs a column sweep (mixing along i) followed by a row sweep (mixing
/// along j), so every point of step t+1 depends on every point of step t:
/// the wavefront argument bounds the OI by a constant.
pub fn adi() -> Kernel {
    Kernel {
        name: "adi",
        category: Category::NotTileable,
        params: &["T", "N"],
        dfg: || {
            Dfg::builder()
                .input("Uin", "[N] -> { Uin[i, j] : 0 <= i < N and 0 <= j < N }")
                // Column-sweep result at time t.
                .statement_with_ops("Col", "[T, N] -> { Col[t, i, j] : 1 <= t < T and 1 <= i < N - 1 and 1 <= j < N - 1 }", 15)
                // Row-sweep result at time t (the value carried to the next step).
                .statement_with_ops("U", "[T, N] -> { U[t, i, j] : 0 <= t < T and 1 <= i < N - 1 and 1 <= j < N - 1 }", 15)
                .edge("Uin", "U", "[T, N] -> { Uin[i, j] -> U[t, i2, j2] : t = 0 and i2 = i and j2 = j and 1 <= i < N - 1 and 1 <= j < N - 1 }")
                // Column sweep at t+1 mixes the whole column j of step t.
                .edge("U", "Col", "[T, N] -> { U[t, i, j] -> Col[t2, i2, j2] : t2 = t + 1 and j2 = j and 0 <= t < T - 1 and 1 <= i < N - 1 and 1 <= i2 < N - 1 and 1 <= j < N - 1 }")
                // Row sweep at t+1 mixes the whole row i of the column-sweep result.
                .edge("Col", "U", "[T, N] -> { Col[t, i, j] -> U[t2, i2, j2] : t2 = t and i2 = i and 1 <= t < T and 1 <= i < N - 1 and 1 <= j < N - 1 and 1 <= j2 < N - 1 }")
                // Direct reuse of the previous value (right-hand side).
                .edge("U", "U", "[T, N] -> { U[t, i, j] -> U[t + 1, i, j] : 0 <= t < T - 1 and 1 <= i < N - 1 and 1 <= j < N - 1 }")
                .build()
                .unwrap()
        },
        input_data: p("N") * p("N"),
        ops: (p("N") * p("N") * p("T")).scale(rat(30, 1)),
        oi_manual_desc: "5",
        oi_manual: |_, _| 5.0,
        paper_oi_up_desc: "30",
        paper_oi_up: |_, _| 30.0,
        large: &[("N", 1000), ("T", 500)],
        parametrization_depth: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_poly::EngineCtx;

    #[test]
    fn all_stencils_build() {
        let _session = EngineCtx::new().enter();
        for k in [
            jacobi_1d(),
            jacobi_2d(),
            heat_3d(),
            seidel_2d(),
            fdtd_2d(),
            adi(),
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
    fn jacobi_1d_has_three_chains() {
        let _session = EngineCtx::new().enter();
        let chains = jacobi_1d()
            .dfg()
            .edges()
            .iter()
            .filter(|e| e.src == "A" && e.dst == "A")
            .count();
        assert_eq!(chains, 3);
    }

    #[test]
    fn adi_is_not_tileable_category() {
        let k = adi();
        assert_eq!(k.category, Category::NotTileable);
        assert_eq!((k.paper_oi_up)(1e9, &Default::default()), 30.0);
    }
}
