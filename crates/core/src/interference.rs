//! Path interference analysis and the sum-of-projections coefficients
//! (Sec. 5.1.1, function `coeffInterf` of Algorithm 4).
//!
//! Two DFG-paths are *independent* on a domain `D` when their preimages
//! `R⁻¹(D)` are disjoint — their contributions to the In-set of a K-bounded
//! set never share vertices, so the corresponding projection cardinalities
//! can be *summed* against the single budget `K`. A clique cover of the
//! independence graph (equivalently, a covering family of maximal independent
//! sets of the interference graph) yields coefficients `β_j` such that
//! `Σ_j β_j·|ϕ_j(E)| ≤ K` for every K-bounded set `E`, which Lemma 5.2 turns
//! into a tighter cardinality bound.

use iolb_dfg::DfgPath;
use iolb_math::Rational;
use iolb_poly::BasicSet;

/// The result of interference analysis for a set of paths on a domain.
#[derive(Clone, Debug)]
pub struct Interference {
    /// `β_j` coefficient per path.
    pub betas: Vec<Rational>,
    /// The covering family of independent sets (indices into the path list).
    pub cliques: Vec<Vec<usize>>,
    /// Pairwise independence matrix (`true` = independent, i.e. preimages are
    /// provably disjoint).
    pub independent: Vec<Vec<bool>>,
}

/// Computes pairwise independence of paths on the target domain `d`.
///
/// Paths rooted at different statements are trivially independent (their
/// preimages live in different spaces). Paths rooted at the same statement
/// are independent only when the intersection of their preimages is provably
/// empty for every parameter value.
pub fn independence_matrix(paths: &[DfgPath], d: &BasicSet) -> Vec<Vec<bool>> {
    let preimages: Vec<(String, BasicSet)> = paths
        .iter()
        .map(|p| (p.source().to_string(), p.preimage(d)))
        .collect();
    let n = paths.len();
    let mut m = vec![vec![false; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let indep = if preimages[i].0 != preimages[j].0 {
                true
            } else {
                preimages[i].1.intersect(&preimages[j].1).is_empty()
            };
            m[i][j] = indep;
            m[j][i] = indep;
        }
    }
    m
}

/// `coeffInterf`: computes the coefficients `β_j` from a greedy covering
/// family of maximal independent sets of the interference graph.
pub fn coeff_interf(paths: &[DfgPath], d: &BasicSet) -> Interference {
    let independent = independence_matrix(paths, d);
    let n = paths.len();
    if n == 0 {
        return Interference {
            betas: vec![],
            cliques: vec![],
            independent,
        };
    }
    // Greedy: for every path not yet covered, grow a maximal independent set
    // seeded with it (preferring not-yet-covered members first so the family
    // stays small).
    let mut cliques: Vec<Vec<usize>> = Vec::new();
    let mut covered = vec![false; n];
    for seed in 0..n {
        if covered[seed] {
            continue;
        }
        let mut clique = vec![seed];
        // First pass: uncovered candidates; second pass: the rest.
        for pass in 0..2 {
            for cand in 0..n {
                if clique.contains(&cand) {
                    continue;
                }
                if pass == 0 && covered[cand] {
                    continue;
                }
                if clique.iter().all(|&m| independent[m][cand]) {
                    clique.push(cand);
                }
            }
        }
        for &m in &clique {
            covered[m] = true;
        }
        clique.sort_unstable();
        cliques.push(clique);
    }
    let total = cliques.len() as i128;
    let betas = (0..n)
        .map(|j| {
            let occurrences = cliques.iter().filter(|c| c.contains(&j)).count() as i128;
            Rational::new(occurrences, total)
        })
        .collect();
    Interference {
        betas,
        cliques,
        independent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_dfg::{genpaths, Dfg, GenPathsOptions};
    use iolb_math::rat;
    use iolb_poly::EngineCtx;

    /// Cholesky DFG (Fig. 7 of the paper, input array omitted).
    fn cholesky() -> Dfg {
        Dfg::builder()
            .statement("S1", "[N] -> { S1[k] : 0 <= k < N }")
            .statement("S2", "[N] -> { S2[k, i] : 0 <= k < N and k + 1 <= i < N }")
            .statement_with_ops(
                "S3",
                "[N] -> { S3[k, i, j] : 0 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }",
                2,
            )
            .edge(
                "S3",
                "S3",
                "[N] -> { S3[k, i, j] -> S3[k + 1, i, j] : 1 <= k + 1 < N and k + 2 <= i < N and k + 2 <= j <= i }",
            )
            .edge(
                "S2",
                "S3",
                "[N] -> { S2[k, j] -> S3[k, i, j2] : j2 = j and 0 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }",
            )
            .edge(
                "S2",
                "S3",
                "[N] -> { S2[k, i] -> S3[k, i2, j] : i2 = i and 0 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }",
            )
            .edge(
                "S3",
                "S2",
                "[N] -> { S3[k, i, j] -> S2[k2, i2] : k2 = k + 1 and i2 = i and j = k + 1 and 1 <= k + 1 < N and k + 2 <= i < N }",
            )
            .edge(
                "S1",
                "S2",
                "[N] -> { S1[k] -> S2[k2, i] : k2 = k and 0 <= k < N and k + 1 <= i < N }",
            )
            .edge(
                "S3",
                "S1",
                "[N] -> { S3[k, i, j] -> S1[k2] : k2 = k + 1 and i = k + 1 and j = k + 1 and 1 <= k + 1 < N }",
            )
            .build()
            .unwrap()
    }

    /// GEMM-like DFG: C accumulation chain plus two input-array broadcasts.
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
    fn gemm_paths_are_mutually_independent() {
        let _session = EngineCtx::new().enter();
        let g = gemm();
        let dom = g.node("C").unwrap().domain.clone();
        let paths = genpaths(&g, "C", &dom, &GenPathsOptions::default());
        // Keep the three one-edge paths (chain from C, broadcasts from A, B).
        let singles: Vec<DfgPath> = paths
            .into_iter()
            .filter(|p| p.vertices.len() == 2)
            .collect();
        assert_eq!(singles.len(), 3);
        let interf = coeff_interf(&singles, &dom);
        // Sources A, B, C are all different spaces -> one clique of all three,
        // betas all 1.
        assert_eq!(interf.cliques.len(), 1);
        assert_eq!(interf.betas, vec![Rational::ONE; 3]);
    }

    #[test]
    fn cholesky_betas_match_appendix_a() {
        let _session = EngineCtx::new().enter();
        let g = cholesky();
        let dom = g.node("S3").unwrap().domain.clone();
        let paths = genpaths(&g, "S3", &dom, &GenPathsOptions::default());
        let singles: Vec<DfgPath> = paths
            .into_iter()
            .filter(|p| p.vertices.len() == 2)
            .collect();
        // Chain S3->S3 plus the two S2->S3 broadcasts.
        assert_eq!(singles.len(), 3);
        let interf = coeff_interf(&singles, &dom);
        // Appendix A: P1 independent of P2 and P3; P2 interferes with P3.
        // Greedy cover: {P1, P2} and {P1, P3} (in some order), so
        // beta = (1, 1/2, 1/2) up to path ordering.
        let chain_idx = singles.iter().position(|p| p.kind.is_chain()).unwrap();
        assert_eq!(interf.betas[chain_idx], Rational::ONE);
        let mut others: Vec<Rational> = (0..3)
            .filter(|&i| i != chain_idx)
            .map(|i| interf.betas[i])
            .collect();
        others.sort();
        assert_eq!(others, vec![rat(1, 2), rat(1, 2)]);
        assert_eq!(interf.cliques.len(), 2);
    }

    #[test]
    fn empty_path_list() {
        let _session = EngineCtx::new().enter();
        let g = gemm();
        let dom = g.node("C").unwrap().domain.clone();
        let interf = coeff_interf(&[], &dom);
        assert!(interf.betas.is_empty());
        assert!(interf.cliques.is_empty());
    }
}
