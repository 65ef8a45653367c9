//! K-partition lower-bound derivation (`sub_paramQ_bypartition`, Algorithm 4).
//!
//! Given a set of chain/broadcast DFG-paths that all end at the same
//! statement, this module applies the discrete Brascamp–Lieb machinery of
//! Sec. 5: the path kernels define projections of the embedded iteration
//! space, the interference coefficients tighten the projection budget, the
//! exponents `s_j` are optimised under the subgroup-lattice admissibility
//! constraints, and Lemma 3.9 converts the resulting cardinality bound `U`
//! on `(S+T)`-bounded sets into a parametric I/O lower bound
//! `Q ≥ |D|·T/U − T − |In-set|`.

use crate::bound::{LowerBound, Technique};
use crate::interference::{coeff_interf, Interference};
use iolb_dfg::{DfgPath, PathKind};
use iolb_math::{ExponentProblem, Lattice, Rational, Subspace};
use iolb_poly::{count, BasicSet, Context, UnionSet};
use iolb_symbol::{Expr, Poly};

/// Inputs of the K-partition derivation.
pub struct PartitionInput<'a> {
    /// The chain/broadcast paths ending at the target statement.
    pub paths: &'a [DfgPath],
    /// The (already path-intersected) target domain `D_S`.
    pub domain: &'a BasicSet,
    /// The subgroup lattice generated by the path kernels (Lemma 3.12).
    pub lattice: &'a Lattice,
    /// Parameter context used for symbolic counting.
    pub ctx: &'a Context,
    /// Name of the fast-memory-capacity parameter (usually `"S"`).
    pub cache_param: &'a str,
}

/// Computes `rank(ϕ_j(H)) = dim H − dim(H ∩ Ker ϕ_j)` for every lattice
/// subgroup and path kernel, returning the admissibility constraints of
/// condition (2b).
fn rank_constraints(lattice: &Lattice, kernels: &[Subspace]) -> Vec<(Vec<usize>, usize)> {
    let mut out = Vec::new();
    for h in lattice.iter() {
        if h.is_zero() {
            continue; // rank 0 constraint is trivially satisfied
        }
        let rank_h = h.dim();
        let image_ranks: Vec<usize> = kernels
            .iter()
            .map(|k| rank_h - h.intersect(k).dim())
            .collect();
        out.push((image_ranks, rank_h));
    }
    out
}

/// Computes an exact-or-upper-bounding rational value for `Π_j base_j^{e_j}`
/// with rational bases and exponents. Exact values are returned when the
/// product is a perfect power; otherwise a slightly rounded-up rational is
/// returned (rounding **up** keeps the cardinality bound `U` valid).
fn pow_product_upper(bases: &[Rational], exps: &[Rational]) -> Rational {
    assert_eq!(bases.len(), exps.len());
    // Common denominator q of the exponents: product = (Π base^{p_j})^{1/q}.
    let mut q: i128 = 1;
    for e in exps {
        q = iolb_math::lcm(q, e.denom());
    }
    // The exact route is only worthwhile (and safe from overflow) for small
    // exponent denominators; otherwise go straight to the rounded-up numeric
    // upper bound.
    let exact_feasible = q <= 12
        && bases
            .iter()
            .all(|b| b.numer().abs() <= 1 << 16 && b.denom() <= 1 << 16);
    if exact_feasible {
        let mut inner = Some(Rational::ONE);
        for (b, e) in bases.iter().zip(exps) {
            let p = e.numer() * (q / e.denom());
            let factor = if p >= 0 {
                b.pow(p as i32)
            } else {
                b.recip().pow((-p) as i32)
            };
            inner = inner.and_then(|acc| {
                // Guard against magnitude blow-up before multiplying.
                if acc.numer().abs() > 1 << 100 || factor.numer().abs() > 1 << 100 {
                    None
                } else {
                    Some(acc * factor)
                }
            });
        }
        if let Some(inner) = inner {
            if q == 1 {
                return inner;
            }
            // Try the exact q-th root.
            let root = |x: i128| -> Option<i128> {
                if x < 0 {
                    return None;
                }
                let approx = (x as f64).powf(1.0 / q as f64).round() as i128;
                (approx.saturating_sub(2)..=approx + 2)
                    .find(|&c| c >= 0 && c.checked_pow(q as u32) == Some(x))
            };
            if let (Some(n), Some(d)) = (root(inner.numer()), root(inner.denom())) {
                return Rational::new(n, d);
            }
        }
    }
    // Numeric upper bound with a small safety margin, encoded as a rational.
    let mut log_sum = 0.0_f64;
    for (b, e) in bases.iter().zip(exps) {
        log_sum += e.to_f64() * b.to_f64().ln();
    }
    let approx = log_sum.exp() * (1.0 + 1e-9);
    let scaled = (approx * 1_048_576.0).ceil().max(1.0) as i128;
    Rational::new(scaled, 1_048_576)
}

/// The may-spill set of the sub-CDAG covered by the given paths (Algorithm 4,
/// function `may-spill`).
pub fn may_spill_set(paths: &[DfgPath], domain: &BasicSet) -> UnionSet {
    let mut ms = UnionSet::empty();
    // The target domain itself is always part of the covered sub-CDAG.
    ms.add_set(domain.to_set());
    for (pi, p) in paths.iter().enumerate() {
        match &p.kind {
            PathKind::Broadcast { .. } => {
                // Every intermediate statement's preimage belongs to the
                // may-spill set.
                for (name, sub) in &p.sub_relations {
                    let pre = sub.preimage(domain);
                    if !pre.is_empty() {
                        ms.add_set(
                            pre.with_space(iolb_poly::Space::from_names(
                                name.clone(),
                                pre.space().dims().to_vec(),
                            ))
                            .to_set(),
                        );
                    }
                }
            }
            PathKind::Chain { .. } => {
                // Intermediate vertices (excluding the chain's own source
                // slice) spill; the source slice only spills where it meets
                // another path's preimage.
                for (j, (name, sub)) in p.sub_relations.iter().enumerate() {
                    let pre = sub.preimage(domain);
                    if pre.is_empty() {
                        continue;
                    }
                    let pre = pre.with_space(iolb_poly::Space::from_names(
                        name.clone(),
                        pre.space().dims().to_vec(),
                    ));
                    if j == 0 {
                        // Source of the circuit: only the part shared with
                        // other paths' preimages.
                        let mut shared = iolb_poly::Set::empty(pre.space().clone());
                        for (qi, q) in paths.iter().enumerate() {
                            if qi == pi {
                                continue;
                            }
                            let qpre = q.preimage(domain);
                            if qpre.space().compatible(pre.space()) {
                                shared = shared.union(&pre.intersect(&qpre).to_set());
                            }
                        }
                        ms.add_set(shared);
                    } else {
                        ms.add_set(pre.to_set());
                    }
                }
            }
        }
    }
    ms
}

/// Derives a K-partition lower bound from a path combination (Algorithm 4).
///
/// Returns `None` when no non-trivial bound can be derived: the exponent sum
/// `σ` is not greater than one (no reuse direction is actually constrained),
/// or a required symbolic cardinality falls outside the exactly-countable
/// class.
pub fn partition_bound(input: &PartitionInput<'_>) -> Option<LowerBound> {
    let paths = input.paths;
    if paths.is_empty() {
        return None;
    }
    let d = input.domain;
    let mut notes = Vec::new();

    // Projection kernels.
    let kernels: Vec<Subspace> = paths.iter().map(|p| p.kernel()).collect();

    // Lemma 3.9 bookkeeping on V = D ∪ (path preimages):
    //  * `covered` — vertices of D that provably have a predecessor inside V
    //    (the image of a single-edge path relation applied to its preimage);
    //    the K-partition argument counts |covered| ≤ |V ∖ Sources(V)|.
    //  * `sources_card` — an over-approximation of |Sources(V)|: the part of
    //    D not covered, plus every preimage vertex outside the target space.
    // Under-approximating the numerator and over-approximating the sources
    // only weakens the bound, never invalidates it.
    let mut covered = iolb_poly::Set::empty(d.space().clone());
    for p in paths {
        if p.vertices.len() != 2 {
            // Predecessors along multi-edge paths are intermediate vertices
            // that are not necessarily part of V; skip them (conservative).
            continue;
        }
        let image = p.relation.intersect_range(d).range().intersect(d);
        if !image.is_empty() {
            covered = covered.union(&image.to_set());
        }
    }
    let engine = iolb_poly::EngineCtx::current();
    let covered_card = count::card_in(&engine, &covered, input.ctx)?;

    let mut sources_card = Poly::zero();
    let d_card_full = count::card_basic_in(&engine, d, input.ctx)?;
    // Sources inside D: |D| − |covered|.
    sources_card = sources_card + d_card_full.clone() - covered_card.clone();
    // Preimage vertices outside the target statement count as sources too.
    for p in paths {
        let pre = p.preimage(d);
        if pre.is_empty() {
            continue;
        }
        if p.source() != d.space().name() {
            sources_card = sources_card + count::card_basic_in(&engine, &pre, input.ctx)?;
        } else {
            let outside = pre.to_set().subtract(&d.to_set());
            if !outside.is_empty() {
                sources_card = sources_card + count::card_in(&engine, &outside, input.ctx)?;
            }
        }
    }

    // Interference coefficients β_j.
    let Interference { betas, cliques, .. } = coeff_interf(paths, d);
    notes.push(format!(
        "{} path(s); independence clique cover of size {}; β = {:?}",
        paths.len(),
        cliques.len(),
        betas.iter().map(|b| b.to_string()).collect::<Vec<_>>()
    ));

    // Brascamp–Lieb exponents under the lattice admissibility constraints.
    let mut problem = ExponentProblem::new(paths.len()).with_betas(betas.clone());
    for (image_ranks, rank_h) in rank_constraints(input.lattice, &kernels) {
        problem.add_rank_constraint(image_ranks, rank_h);
    }
    let solution = problem.solve()?;
    let sigma = solution.sigma;
    if sigma <= Rational::ONE {
        // T = S/(σ−1) is undefined or unbounded; the combination carries no
        // usable geometric constraint.
        return None;
    }
    notes.push(format!(
        "exponents s = {:?}, σ = {}",
        solution.s.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        sigma
    ));

    // T := S/(σ−1); K = S+T = σ/(σ−1)·S; U = c·S^σ with
    // c = Π_j (s_j/(β_j(σ−1)))^{s_j}.
    let sigma_minus_1 = sigma - Rational::ONE;
    let t_coeff = sigma_minus_1.recip();
    let bases: Vec<Rational> = solution
        .s
        .iter()
        .zip(&betas)
        .map(|(&sj, &bj)| {
            if sj.is_zero() {
                Rational::ONE
            } else {
                sj / (bj * sigma_minus_1)
            }
        })
        .collect();
    let c = pow_product_upper(&bases, &solution.s);
    notes.push(format!(
        "T = {}·S, U = {}·S^{} (cardinality bound on (S+T)-bounded sets)",
        t_coeff, c, sigma
    ));

    // Q = |V∖Sources|·T/U − T − |Sources|, with the floor of Lemma 3.9
    // dropped conservatively via the −T term.
    let s_pow_1_minus_sigma = Poly::param(input.cache_param)
        .pow_rational(Rational::ONE - sigma)
        .expect("parameter power");
    let t_poly = Poly::param(input.cache_param).scale(t_coeff);
    let leading = covered_card.clone() * s_pow_1_minus_sigma.scale(t_coeff / c);
    let q_poly = leading - t_poly - sources_card.clone();
    notes.push(format!(
        "|V∖Sources| ≥ {}, |Sources| ≤ {}, Q ≥ {}",
        covered_card, sources_card, q_poly
    ));

    Some(LowerBound {
        expr: Expr::from_poly(q_poly),
        may_spill: may_spill_set(paths, d),
        technique: Technique::Partition,
        statement: d.space().name().to_string(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_dfg::{genpaths, Dfg, GenPathsOptions};
    use iolb_math::rat;
    use iolb_poly::EngineCtx;
    use std::collections::BTreeMap;

    fn ctx() -> Context {
        Context::empty()
            .assume_ge("N", 4)
            .assume_ge("M", 4)
            .assume_ge("Ni", 4)
            .assume_ge("Nj", 4)
            .assume_ge("Nk", 4)
    }

    fn build_lattice(paths: &[DfgPath]) -> Lattice {
        let dim = paths[0].relation.n_out();
        let kernels: Vec<Subspace> = paths.iter().map(|p| p.kernel()).collect();
        let (lat, skipped) = Lattice::generate(dim, &kernels, 100_000);
        assert!(skipped.is_empty());
        lat
    }

    fn dominant(expr: &Expr) -> Poly {
        iolb_symbol::asymptotic::simplify(expr, "S")
    }

    fn gemm() -> Dfg {
        Dfg::builder()
            .input("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
            .input("B", "[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
            .statement_with_ops(
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                2,
            )
            .edge(
                "A",
                "C",
                "[Ni, Nj, Nk] -> { A[i, k] -> C[i2, j, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
            )
            .edge(
                "B",
                "C",
                "[Ni, Nj, Nk] -> { B[k, j] -> C[i, j2, k2] : j2 = j and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
            )
            .edge(
                "C",
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }",
            )
            .build()
            .unwrap()
    }

    #[test]
    fn gemm_partition_bound_is_2n3_over_sqrt_s() {
        let _session = EngineCtx::new().enter();
        let g = gemm();
        let dom = g.node("C").unwrap().domain.clone();
        let paths: Vec<DfgPath> = genpaths(&g, "C", &dom, &GenPathsOptions::default())
            .into_iter()
            .filter(|p| p.vertices.len() == 2)
            .collect();
        assert_eq!(paths.len(), 3);
        let lattice = build_lattice(&paths);
        let input = PartitionInput {
            paths: &paths,
            domain: &dom,
            lattice: &lattice,
            ctx: &ctx(),
            cache_param: "S",
        };
        let bound = partition_bound(&input).expect("gemm bound derivable");
        // Asymptotically 2·Ni·Nj·Nk / √S (matches Table 1/2 for gemm).
        let lead = dominant(&bound.expr);
        assert_eq!(lead.to_string(), "2*Ni*Nj*Nk*S^(-1/2)");
        // And numerically sensible: at Ni=Nj=Nk=256, S=1024 the bound is
        // positive and below the trivial schedule cost of 3·N^3.
        let mut env = BTreeMap::new();
        for p in ["Ni", "Nj", "Nk"] {
            env.insert(p.to_string(), 256.0);
        }
        env.insert("S".to_string(), 1024.0);
        let v = bound.expr.eval_f64(&env).unwrap();
        assert!(v > 0.0);
        assert!(v < 3.0 * 256.0_f64.powi(3));
    }

    #[test]
    fn example1_partition_bound_is_mn_over_s() {
        let _session = EngineCtx::new().enter();
        // Example 1 (Fig. 1/2): one chain along t, one broadcast from C.
        // With the summed-projection trick the bound is MN/S·S = MN/S · T
        // with T = S, i.e. asymptotically M·N/S · S = ... the leading term
        // must be M·N·S^{-1}·S = M·N/S·T with T = S → M·N (per Sec. 5.3 the
        // final expression is ⌊MN/S²⌋·S − N − M, leading term MN/S).
        let g = Dfg::builder()
            .input("A", "[N] -> { A[i] : 0 <= i < N }")
            .input("C", "[M] -> { C[t] : 0 <= t < M }")
            .statement("S", "[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }")
            .edge(
                "C",
                "S",
                "[M, N] -> { C[t] -> S[t, i] : 0 <= t < M and 0 <= i < N }",
            )
            .edge(
                "S",
                "S",
                "[M, N] -> { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }",
            )
            .build()
            .unwrap();
        let dom = g.node("S").unwrap().domain.clone();
        let paths: Vec<DfgPath> = genpaths(&g, "S", &dom, &GenPathsOptions::default())
            .into_iter()
            .filter(|p| p.vertices.len() == 2)
            .collect();
        assert_eq!(paths.len(), 2);
        let lattice = build_lattice(&paths);
        let input = PartitionInput {
            paths: &paths,
            domain: &dom,
            lattice: &lattice,
            ctx: &ctx(),
            cache_param: "S",
        };
        let bound = partition_bound(&input).expect("example 1 bound derivable");
        let lead = dominant(&bound.expr);
        // ⌊MN/S²⌋·S ⇒ leading term M·N·S^{-1}.
        assert_eq!(lead.to_string(), "M*N*S^-1");
    }

    #[test]
    fn pow_product_exact_and_rounded() {
        // (1)^(1/2) · 2^(1/2) · 2^(1/2) = 2 exactly (cholesky's constant).
        let c = pow_product_upper(
            &[rat(1, 1), rat(2, 1), rat(2, 1)],
            &[rat(1, 2), rat(1, 2), rat(1, 2)],
        );
        assert_eq!(c, rat(2, 1));
        // 2^(1/2) alone is irrational: the result must upper-bound √2.
        let r = pow_product_upper(&[rat(2, 1)], &[rat(1, 2)]);
        assert!(r.to_f64() >= std::f64::consts::SQRT_2 - 1e-9);
        assert!(r.to_f64() < 1.4143);
    }

    #[test]
    fn zero_paths_gives_no_bound() {
        let _session = EngineCtx::new().enter();
        let g = gemm();
        let dom = g.node("C").unwrap().domain.clone();
        let lattice = Lattice::new(3);
        let input = PartitionInput {
            paths: &[],
            domain: &dom,
            lattice: &lattice,
            ctx: &ctx(),
            cache_param: "S",
        };
        assert!(partition_bound(&input).is_none());
    }

    #[test]
    fn single_full_rank_broadcast_gives_no_bound() {
        let _session = EngineCtx::new().enter();
        // A single broadcast with a full-dimensional kernel complement
        // (σ = 1) cannot produce a K-partition bound.
        let g = Dfg::builder()
            .input("A", "[N] -> { A[i] : 0 <= i < N }")
            .statement("S", "[N, M] -> { S[i, j] : 0 <= i < N and 0 <= j < M }")
            .edge(
                "A",
                "S",
                "[N, M] -> { A[i] -> S[i2, j] : i2 = i and 0 <= i < N and 0 <= j < M }",
            )
            .build()
            .unwrap();
        let dom = g.node("S").unwrap().domain.clone();
        let paths = genpaths(&g, "S", &dom, &GenPathsOptions::default());
        assert_eq!(paths.len(), 1);
        let lattice = build_lattice(&paths);
        let input = PartitionInput {
            paths: &paths,
            domain: &dom,
            lattice: &lattice,
            ctx: &ctx(),
            cache_param: "S",
        };
        assert!(partition_bound(&input).is_none());
    }

    #[test]
    fn may_spill_contains_domain_and_sources() {
        let _session = EngineCtx::new().enter();
        let g = gemm();
        let dom = g.node("C").unwrap().domain.clone();
        let paths: Vec<DfgPath> = genpaths(&g, "C", &dom, &GenPathsOptions::default())
            .into_iter()
            .filter(|p| p.vertices.len() == 2)
            .collect();
        let ms = may_spill_set(&paths, &dom);
        assert!(ms.get("C").is_some());
        assert!(ms.get("A").is_some());
        assert!(ms.get("B").is_some());
    }
}
