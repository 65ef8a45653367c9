//! DFG-paths, their composed relations and their classification as chain
//! circuits or broadcast paths (Sec. 3.4 and Definition 5.1).

use crate::graph::Dfg;
use iolb_math::Subspace;
use iolb_poly::{AffineFunction, BasicMap, BasicSet};
use std::fmt;

/// The classification of a DFG-path relevant to the geometric reasoning.
#[derive(Clone, Debug)]
pub enum PathKind {
    /// A chain circuit `S[x] → S[x + δ]`: the associated projection is the
    /// orthogonal projection along `δ`.
    Chain {
        /// The translation vector `δ`.
        delta: Vec<i128>,
    },
    /// A broadcast path `S_a → S_k` whose inverse is the affine function
    /// `S_k[x] → S_a[A·x + b]` with `A` not of full rank.
    Broadcast {
        /// The inverse affine function (target coordinates ↦ source
        /// coordinates).
        function: AffineFunction,
    },
}

impl PathKind {
    /// The kernel of the associated projection, as a subspace of the target
    /// statement's iteration space.
    pub fn kernel(&self, target_dim: usize) -> Subspace {
        match self {
            PathKind::Chain { delta } => {
                Subspace::from_int_vectors(target_dim, std::slice::from_ref(delta))
            }
            PathKind::Broadcast { function } => function.kernel(),
        }
    }

    /// Returns true for chain circuits.
    pub fn is_chain(&self) -> bool {
        matches!(self, PathKind::Chain { .. })
    }
}

/// A directed path in the DFG ending at the target statement, together with
/// its composed relation and per-intermediate-statement sub-relations.
#[derive(Clone, Debug)]
pub struct DfgPath {
    /// Names of the vertices along the path, source first, target last.
    pub vertices: Vec<String>,
    /// Composed relation from the path source to the target statement.
    pub relation: BasicMap,
    /// For every vertex `S_j` on the path (including the source, excluding
    /// the target), the composed suffix relation `R_{S_j → S}` — needed to
    /// materialise the may-spill set of Algorithm 4.
    pub sub_relations: Vec<(String, BasicMap)>,
    /// Chain / broadcast classification.
    pub kind: PathKind,
}

impl DfgPath {
    /// The source vertex name.
    pub fn source(&self) -> &str {
        &self.vertices[0]
    }

    /// The target vertex name.
    pub fn target(&self) -> &str {
        self.vertices.last().expect("path has at least one vertex")
    }

    /// The kernel of the associated projection in the target iteration space.
    pub fn kernel(&self) -> Subspace {
        self.kind.kernel(self.relation.n_out())
    }

    /// The preimage `R_P⁻¹(D)` of a target-space set under the path relation.
    pub fn preimage(&self, d: &BasicSet) -> BasicSet {
        self.relation.preimage(d)
    }
}

impl fmt::Display for DfgPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "path {} [{}]",
            self.vertices.join(" -> "),
            match &self.kind {
                PathKind::Chain { delta } => format!("chain δ={delta:?}"),
                PathKind::Broadcast { .. } => "broadcast".to_string(),
            }
        )
    }
}

/// Composes the edge relations along a vertex-disjoint walk given by edge
/// indices (ordered from source to target), producing the full relation and
/// the suffix sub-relations.
pub(crate) fn compose_walk(
    dfg: &Dfg,
    edge_indices: &[usize],
) -> Option<(BasicMap, Vec<(String, BasicMap)>)> {
    if edge_indices.is_empty() {
        return None;
    }
    let edges = dfg.edges();
    // Full relation: R_{e1} then R_{e2} then … then R_{ek}.
    let mut full = edges[edge_indices[0]].relation.clone();
    for &ei in &edge_indices[1..] {
        full = full.then(&edges[ei].relation);
        if full.is_empty() {
            return None;
        }
    }
    // Suffix relations: for vertex at position j (0-based, excluding target),
    // R_{S_j → S} = compose of edges j.. end.
    let mut subs = Vec::new();
    for j in 0..edge_indices.len() {
        let mut suffix = edges[edge_indices[j]].relation.clone();
        for &ei in &edge_indices[j + 1..] {
            suffix = suffix.then(&edges[ei].relation);
        }
        subs.push((edges[edge_indices[j]].src.clone(), suffix));
    }
    Some((full, subs))
}

/// Classifies a composed path relation as a chain circuit or a broadcast path
/// (Definition 5.1), or returns `None` if it is neither.
pub(crate) fn classify(dfg: &Dfg, edge_indices: &[usize], relation: &BasicMap) -> Option<PathKind> {
    let edges = dfg.edges();
    let first = &edges[edge_indices[0]];
    let last = &edges[*edge_indices.last().unwrap()];
    let is_circuit = first.src == last.dst;
    if is_circuit {
        if let Some(delta) = relation.translation_offsets() {
            if delta.iter().any(|&d| d != 0) {
                return Some(PathKind::Chain { delta });
            }
        }
    }
    // Broadcast: all edges except the first must be injective, and the
    // inverse of the composed relation must be an affine function with a
    // non-trivial kernel.
    let tail_injective = edge_indices[1..]
        .iter()
        .all(|&ei| edges[ei].relation.is_injective());
    if !tail_injective {
        return None;
    }
    let function = relation.as_function_of_range()?;
    if function.is_full_rank() {
        return None;
    }
    Some(PathKind::Broadcast { function })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dfg;
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

    #[test]
    fn chain_classification() {
        let _session = EngineCtx::new().enter();
        let g = example1();
        // Edge 2 is the self-loop S -> S.
        let (rel, subs) = compose_walk(&g, &[2]).unwrap();
        let kind = classify(&g, &[2], &rel).unwrap();
        assert!(kind.is_chain());
        match &kind {
            PathKind::Chain { delta } => assert_eq!(delta, &vec![1, 0]),
            _ => unreachable!(),
        }
        assert_eq!(subs.len(), 1);
        let kernel = kind.kernel(2);
        assert_eq!(kernel.dim(), 1);
    }

    #[test]
    fn broadcast_classification() {
        let _session = EngineCtx::new().enter();
        let g = example1();
        // Edge 1 is the broadcast C -> S.
        let (rel, _) = compose_walk(&g, &[1]).unwrap();
        let kind = classify(&g, &[1], &rel).unwrap();
        assert!(!kind.is_chain());
        let kernel = kind.kernel(2);
        assert_eq!(kernel.dim(), 1);
        // Kernel of C[t] -> S[t, i] is the i direction.
        assert!(kernel.contains_vector(&[iolb_math::Rational::ZERO, iolb_math::Rational::ONE]));
    }

    #[test]
    fn two_step_composition() {
        let _session = EngineCtx::new().enter();
        let g = example1();
        // C -> S then S -> S: still a broadcast into slice t+1.
        let (rel, subs) = compose_walk(&g, &[1, 2]).unwrap();
        assert_eq!(subs.len(), 2);
        assert!(rel.contains(&[1], &[2, 3], &[("M", 5), ("N", 5)]));
        let kind = classify(&g, &[1, 2], &rel);
        assert!(kind.is_some());
        assert!(!kind.unwrap().is_chain());
    }

    #[test]
    fn non_injective_tail_is_rejected() {
        let _session = EngineCtx::new().enter();
        // A -> B broadcast followed by another broadcast edge cannot be a
        // broadcast path (the tail must be injective).
        let g = Dfg::builder()
            .input("A", "[N] -> { A[i] : 0 <= i < N }")
            .statement("B", "[N] -> { B[i, j] : 0 <= i < N and 0 <= j < N }")
            .statement(
                "Ct",
                "[N] -> { Ct[i, j, k] : 0 <= i < N and 0 <= j < N and 0 <= k < N }",
            )
            .edge(
                "A",
                "B",
                "[N] -> { A[i] -> B[i2, j] : i2 = i and 0 <= i < N and 0 <= j < N }",
            )
            .edge(
                "B",
                "Ct",
                "[N] -> { B[i, j] -> Ct[i2, j2, k] : i2 = i and j2 = j and 0 <= k < N }",
            )
            .build()
            .unwrap();
        let (rel, _) = compose_walk(&g, &[0, 1]).unwrap();
        assert!(classify(&g, &[0, 1], &rel).is_none());
        // The single edges individually are broadcasts.
        let (r0, _) = compose_walk(&g, &[0]).unwrap();
        assert!(classify(&g, &[0], &r0).is_some());
    }
}
