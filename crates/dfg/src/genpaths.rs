//! Path generation (`genpaths`, Algorithm 3).
//!
//! Starting from a target statement `S`, a backward traversal enumerates the
//! elementary DFG-paths that end in `S`, composes their edge relations, and
//! keeps only those that classify as chain circuits or broadcast paths and
//! whose image covers a full-dimensional part of `S`'s domain. A step budget
//! stands in for the paper's timeout, bounding the combinatorial explosion on
//! dense DFGs.

use crate::graph::Dfg;
use crate::path::{classify, compose_walk, DfgPath};
use iolb_poly::BasicSet;

/// Options controlling path generation.
#[derive(Clone, Debug)]
pub struct GenPathsOptions {
    /// Maximum number of edges in a path.
    pub max_len: usize,
    /// Maximum number of candidate walks examined (the "timeout").
    pub max_walks: usize,
}

impl Default for GenPathsOptions {
    fn default() -> Self {
        GenPathsOptions {
            max_len: 6,
            max_walks: 2_000,
        }
    }
}

/// Generates the chain-circuit and broadcast paths that end at `target`,
/// restricted to the (possibly already shrunk) domain `target_domain`.
///
/// Paths whose image in the target domain has lower intrinsic dimensionality
/// than the domain itself are dropped (Algorithm 3, line 3), because they can
/// only constrain a negligible part of the iteration space.
pub fn genpaths(
    dfg: &Dfg,
    target: &str,
    target_domain: &BasicSet,
    options: &GenPathsOptions,
) -> Vec<DfgPath> {
    let mut walks: Vec<Vec<usize>> = Vec::new();
    let mut examined = 0usize;

    // Backward DFS from the target: build edge sequences (stored reversed,
    // then flipped) whose last edge enters `target` and whose intermediate
    // vertices are pairwise distinct.
    let mut stack: Vec<(Vec<usize>, Vec<String>)> = Vec::new();
    for (ei, e) in dfg.edges_into(target) {
        stack.push((vec![ei], vec![e.src.clone()]));
    }
    while let Some((edges_rev, visited)) = stack.pop() {
        examined += 1;
        if examined > options.max_walks {
            break;
        }
        walks.push(edges_rev.clone());
        if edges_rev.len() >= options.max_len {
            continue;
        }
        let current = visited.last().expect("non-empty walk").clone();
        // A circuit closes when we come back to the target; do not extend
        // beyond that (elementary paths only).
        if current == target && !edges_rev.is_empty() {
            continue;
        }
        for (ei, e) in dfg.edges_into(&current) {
            // Keep the walk elementary: no repeated intermediate vertex.
            if visited.contains(&e.src) && e.src != target {
                continue;
            }
            let mut new_edges = edges_rev.clone();
            new_edges.push(ei);
            let mut new_visited = visited.clone();
            new_visited.push(e.src.clone());
            stack.push((new_edges, new_visited));
        }
    }

    let target_dim_intrinsic = target_domain.intrinsic_dim();
    let mut out = Vec::new();
    for walk_rev in walks {
        // Edges were collected backwards; forward order is source-to-target.
        let walk: Vec<usize> = walk_rev.iter().rev().copied().collect();
        let Some((relation, sub_relations)) = compose_walk(dfg, &walk) else {
            continue;
        };
        // The relation must actually reach the (current) target domain.
        let restricted = relation.intersect_range(target_domain);
        if restricted.is_empty() {
            continue;
        }
        // Drop low-dimensional paths (Algorithm 3, line 3).
        let image = restricted.range();
        if image.intrinsic_dim() < target_dim_intrinsic {
            continue;
        }
        let Some(kind) = classify(dfg, &walk, &restricted) else {
            continue;
        };
        let mut vertices: Vec<String> =
            walk.iter().map(|&ei| dfg.edges()[ei].src.clone()).collect();
        vertices.push(target.to_string());
        out.push(DfgPath {
            vertices,
            relation: restricted,
            sub_relations,
            kind,
        });
    }
    // The driver consumes paths in increasing order of kernel dimension
    // (Algorithm 6, line 11).
    out.sort_by_key(|p| p.kernel().dim());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathKind;
    use iolb_poly::EngineCtx;

    fn example1() -> Dfg {
        Dfg::builder()
            .input("A", "[N] -> { A[i] : 0 <= i < N }")
            .input("C", "[M] -> { C[t] : 0 <= t < M }")
            .statement("S", "[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }")
            .edge(
                "A",
                "S",
                "[N] -> { A[i] -> S[t, i2] : t = 0 and i2 = i and 1 <= i < N }",
            )
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
            .unwrap()
    }

    /// The cholesky DFG of Fig. 7 (input array omitted, as in the paper).
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

    #[test]
    fn example1_paths() {
        let _session = EngineCtx::new().enter();
        let g = example1();
        let dom = g.node("S").unwrap().domain.clone();
        let paths = genpaths(&g, "S", &dom, &GenPathsOptions::default());
        // At least: the chain S->S and the broadcast C->S. The A->S edge is
        // restricted to t = 0 which is lower-dimensional and must be dropped.
        assert!(paths.iter().any(|p| p.kind.is_chain()));
        assert!(paths
            .iter()
            .any(|p| !p.kind.is_chain() && p.source() == "C"));
        assert!(!paths.iter().any(|p| p.source() == "A"));
    }

    #[test]
    fn cholesky_s3_paths() {
        let _session = EngineCtx::new().enter();
        let g = cholesky();
        let dom = g.node("S3").unwrap().domain.clone();
        let paths = genpaths(&g, "S3", &dom, &GenPathsOptions::default());
        // The three paths of Appendix A must be found: the chain S3 -> S3 and
        // the two broadcasts S2 -> S3.
        let chains: Vec<_> = paths.iter().filter(|p| p.kind.is_chain()).collect();
        assert!(!chains.is_empty());
        match &chains[0].kind {
            PathKind::Chain { delta } => assert_eq!(delta, &vec![1, 0, 0]),
            _ => unreachable!(),
        }
        let broadcasts: Vec<_> = paths
            .iter()
            .filter(|p| !p.kind.is_chain() && p.vertices.len() == 2 && p.source() == "S2")
            .collect();
        assert!(broadcasts.len() >= 2);
        // Their kernels are the i and j axes respectively.
        let kernel_dims: Vec<usize> = broadcasts.iter().map(|p| p.kernel().dim()).collect();
        assert!(kernel_dims.iter().all(|&d| d == 1));
    }

    #[test]
    fn kernel_sorting() {
        let _session = EngineCtx::new().enter();
        let g = cholesky();
        let dom = g.node("S3").unwrap().domain.clone();
        let paths = genpaths(&g, "S3", &dom, &GenPathsOptions::default());
        let dims: Vec<usize> = paths.iter().map(|p| p.kernel().dim()).collect();
        let mut sorted = dims.clone();
        sorted.sort();
        assert_eq!(dims, sorted);
    }

    #[test]
    fn budget_limits_walks() {
        let _session = EngineCtx::new().enter();
        let g = cholesky();
        let dom = g.node("S3").unwrap().domain.clone();
        let tight = GenPathsOptions {
            max_len: 6,
            max_walks: 1,
        };
        let paths = genpaths(&g, "S3", &dom, &tight);
        assert!(paths.len() <= 1);
    }

    #[test]
    fn restricted_domain_changes_paths() {
        let _session = EngineCtx::new().enter();
        let g = example1();
        // Restrict S's domain to the first time-slice: the chain circuit can
        // no longer step inside it in a full-dimensional way, but the
        // broadcast from C survives.
        let dom = iolb_poly::parse_set("[M, N] -> { S[t, i] : t = 0 and 0 <= i < N }").unwrap();
        let paths = genpaths(&g, "S", &dom, &GenPathsOptions::default());
        assert!(paths.iter().any(|p| p.source() == "C"));
    }
}
