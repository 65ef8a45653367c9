//! The data-flow graph (DFG) of Sec. 3.4: the compact, parametric
//! representation of a program's CDAG.
//!
//! Vertices are program statements or input arrays, each with a parametric
//! iteration (or index) domain; edges are flow dependences, each with an
//! affine relation between source and sink coordinates. A single DFG
//! vertex/edge stands for the many CDAG vertices/edges obtained by
//! instantiating the parameters.

use iolb_poly::{parse_map, parse_set, BasicMap, BasicSet, Map, ParseError, Set};
use std::collections::BTreeMap;
use std::fmt;

/// A DFG vertex: a statement or an input array.
#[derive(Clone, Debug)]
pub struct DfgNode {
    /// Statement / array name (also the tuple name of its domain's space).
    pub name: String,
    /// Parametric iteration domain (statements) or index domain (arrays).
    pub domain: BasicSet,
    /// True for input-array vertices (no incoming edges, not counted as
    /// computation).
    pub is_input: bool,
    /// Number of operations performed per domain point (1 for most
    /// statements; 0 for inputs). Used to derive the `#ops` column.
    pub ops_per_instance: u64,
}

/// A DFG edge: a flow dependence from a producer vertex to a consumer vertex
/// with an affine relation between their coordinates.
#[derive(Clone, Debug)]
pub struct DfgEdge {
    /// Producer vertex name.
    pub src: String,
    /// Consumer vertex name.
    pub dst: String,
    /// Dependence relation (producer coordinates → consumer coordinates).
    pub relation: BasicMap,
}

/// Errors produced while constructing a DFG.
#[derive(Debug)]
pub enum DfgError {
    /// A set or relation string failed to parse.
    Parse(ParseError),
    /// An edge refers to a vertex that has not been declared.
    UnknownVertex(String),
    /// A vertex with the same name was declared twice.
    DuplicateVertex(String),
    /// An edge relation's tuple names or arities do not match its endpoints.
    SpaceMismatch {
        /// The offending edge, as `src -> dst`.
        edge: String,
        /// Explanation of the mismatch.
        reason: String,
    },
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::Parse(e) => write!(f, "{e}"),
            DfgError::UnknownVertex(v) => write!(f, "edge refers to unknown vertex `{v}`"),
            DfgError::DuplicateVertex(v) => write!(f, "vertex `{v}` declared twice"),
            DfgError::SpaceMismatch { edge, reason } => {
                write!(f, "space mismatch on edge {edge}: {reason}")
            }
        }
    }
}

impl std::error::Error for DfgError {}

impl From<ParseError> for DfgError {
    fn from(e: ParseError) -> Self {
        DfgError::Parse(e)
    }
}

/// A data-flow graph `G = (S, D)`.
///
/// # Examples
///
/// Example 1 of the paper (Fig. 2):
///
/// ```
/// use iolb_dfg::Dfg;
/// # let _session = iolb_poly::EngineCtx::new().enter();
/// let dfg = Dfg::builder()
///     .input("A", "[N] -> { A[i] : 0 <= i < N }")
///     .input("C", "[M] -> { C[t] : 0 <= t < M }")
///     .statement("S", "[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }")
///     .edge("A", "S", "[N] -> { A[i] -> S[t, i2] : t = 0 and i2 = i and 1 <= i < N }")
///     .edge("C", "S", "[M, N] -> { C[t] -> S[t, i] : 0 <= t < M and 0 <= i < N }")
///     .edge("S", "S", "[M, N] -> { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }")
///     .build()
///     .unwrap();
/// assert_eq!(dfg.statements().count(), 1);
/// assert_eq!(dfg.edges().len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Dfg {
    nodes: Vec<DfgNode>,
    index: BTreeMap<String, usize>,
    edges: Vec<DfgEdge>,
}

impl Dfg {
    /// Starts building a DFG.
    pub fn builder() -> DfgBuilder {
        DfgBuilder::default()
    }

    /// All vertices.
    pub fn nodes(&self) -> &[DfgNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[DfgEdge] {
        &self.edges
    }

    /// Looks up a vertex by name.
    pub fn node(&self, name: &str) -> Option<&DfgNode> {
        self.index.get(name).map(|&i| &self.nodes[i])
    }

    /// Iterates over statement (non-input) vertices.
    pub fn statements(&self) -> impl Iterator<Item = &DfgNode> {
        self.nodes.iter().filter(|n| !n.is_input)
    }

    /// Iterates over input-array vertices.
    pub fn inputs(&self) -> impl Iterator<Item = &DfgNode> {
        self.nodes.iter().filter(|n| n.is_input)
    }

    /// Edges whose consumer is `dst`.
    pub fn edges_into<'a>(&'a self, dst: &str) -> impl Iterator<Item = (usize, &'a DfgEdge)> {
        let dst = dst.to_string();
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.dst == dst)
    }

    /// Edges whose producer is `src`.
    pub fn edges_from<'a>(&'a self, src: &str) -> impl Iterator<Item = (usize, &'a DfgEdge)> {
        let src = src.to_string();
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.src == src)
    }

    /// The union of the edge relations from `src` to `dst`.
    pub fn relation_between(&self, src: &str, dst: &str) -> Option<Map> {
        let parts: Vec<BasicMap> = self
            .edges
            .iter()
            .filter(|e| e.src == src && e.dst == dst)
            .map(|e| e.relation.clone())
            .collect();
        if parts.is_empty() {
            return None;
        }
        let in_space = parts[0].in_space().clone();
        let out_space = parts[0].out_space().clone();
        Some(Map::from_basic_maps(in_space, out_space, parts))
    }

    /// Returns a copy of the DFG in which the domain of every vertex has been
    /// restricted (by subtracting the given per-vertex removal sets). Empty
    /// statements are kept with empty domains so edges remain valid.
    ///
    /// This implements the `G' := G' \ Q.may-spill` step of Algorithm 6.
    pub fn restrict_domains(&self, removals: &iolb_poly::UnionSet) -> Dfg {
        let mut out = self.clone();
        for node in out.nodes.iter_mut() {
            if let Some(rm) = removals.get(&node.name) {
                let remaining: Set = node.domain.to_set().subtract(rm);
                // Keep a single representative basic set when possible; if the
                // difference is a union, approximate by intersecting with the
                // complement pieces conservatively: use the first piece or an
                // empty domain. To stay *valid* (never over-count available
                // vertices), take the largest single piece.
                node.domain = largest_piece(&remaining, &node.domain);
            }
        }
        out
    }

    /// Total number of operations as a symbolic polynomial, assuming
    /// `ops_per_instance` operations per statement instance.
    pub fn total_ops(&self, ctx: &iolb_poly::Context) -> Option<iolb_symbol::Poly> {
        let engine = iolb_poly::EngineCtx::current();
        let mut total = iolb_symbol::Poly::zero();
        for s in self.statements() {
            let card = iolb_poly::count::card_basic_in(&engine, &s.domain, ctx)?;
            total = total + card.scale(iolb_math::Rational::from_int(s.ops_per_instance as i128));
        }
        Some(total)
    }

    /// Total input-data size (sum of input-array domain cardinalities).
    pub fn input_size(&self, ctx: &iolb_poly::Context) -> Option<iolb_symbol::Poly> {
        let engine = iolb_poly::EngineCtx::current();
        let mut total = iolb_symbol::Poly::zero();
        for s in self.inputs() {
            let card = iolb_poly::count::card_basic_in(&engine, &s.domain, ctx)?;
            total = total + card;
        }
        Some(total)
    }
}

/// Picks the largest disjunct of a union as a conservative (under-
/// approximating) convex replacement. Sizes are compared on a fixed sample
/// parameter instance.
fn largest_piece(set: &Set, original: &BasicSet) -> BasicSet {
    if set.parts().is_empty() {
        // Empty domain: original constrained to be empty.
        return original
            .clone()
            .fix_dim(0, 0)
            .constrain(iolb_poly::Constraint::ge0(iolb_poly::LinExpr::constant(
                original.dim(),
                -1,
            )));
    }
    if set.parts().len() == 1 {
        return set.parts()[0].clone();
    }
    let ctx = iolb_poly::Context::empty();
    let engine = iolb_poly::EngineCtx::current();
    let mut best: Option<(&BasicSet, f64)> = None;
    for p in set.parts() {
        let size = iolb_poly::count::card_basic_in(&engine, p, &ctx)
            .and_then(|c| c.eval_f64(&sample_env(&c)))
            .unwrap_or(0.0);
        if best.is_none_or(|(_, s)| size > s) {
            best = Some((p, size));
        }
    }
    best.map(|(p, _)| p.clone())
        .unwrap_or_else(|| set.parts()[0].clone())
}

fn sample_env(p: &iolb_symbol::Poly) -> std::collections::BTreeMap<String, f64> {
    p.params().into_iter().map(|n| (n, 100.0)).collect()
}

/// An edge relation supplied to the builder: ISL-like text (parsed at
/// [`DfgBuilder::build`] time) or an already-constructed relation.
enum EdgeSpec {
    Text(String),
    Rel(BasicMap),
}

/// Incremental builder for [`Dfg`].
#[derive(Default)]
pub struct DfgBuilder {
    nodes: Vec<DfgNode>,
    edges: Vec<(String, String, EdgeSpec)>,
    errors: Vec<DfgError>,
}

impl DfgBuilder {
    /// Declares an input-array vertex with a domain in ISL-like notation.
    pub fn input(mut self, name: &str, domain: &str) -> Self {
        match parse_set(domain) {
            Ok(d) => self = self.input_set(name, d),
            Err(e) => self.errors.push(e.into()),
        }
        self
    }

    /// Declares an input-array vertex from an already-constructed index
    /// domain (the entry point used by generated front ends, which build
    /// domains programmatically instead of via the textual notation).
    pub fn input_set(mut self, name: &str, domain: BasicSet) -> Self {
        self.nodes.push(DfgNode {
            name: name.to_string(),
            domain,
            is_input: true,
            ops_per_instance: 0,
        });
        self
    }

    /// Declares a statement vertex with a domain in ISL-like notation
    /// (1 operation per instance).
    pub fn statement(self, name: &str, domain: &str) -> Self {
        self.statement_with_ops(name, domain, 1)
    }

    /// Declares a statement vertex with an explicit operation count per
    /// instance (used for the `#ops` metadata of Table 1).
    pub fn statement_with_ops(mut self, name: &str, domain: &str, ops: u64) -> Self {
        match parse_set(domain) {
            Ok(d) => self = self.statement_set_with_ops(name, d, ops),
            Err(e) => self.errors.push(e.into()),
        }
        self
    }

    /// Declares a statement vertex from an already-constructed iteration
    /// domain with an explicit per-instance operation count.
    pub fn statement_set_with_ops(mut self, name: &str, domain: BasicSet, ops: u64) -> Self {
        self.nodes.push(DfgNode {
            name: name.to_string(),
            domain,
            is_input: false,
            ops_per_instance: ops,
        });
        self
    }

    /// Declares a flow-dependence edge with a relation in ISL-like notation.
    pub fn edge(mut self, src: &str, dst: &str, relation: &str) -> Self {
        self.edges.push((
            src.to_string(),
            dst.to_string(),
            EdgeSpec::Text(relation.to_string()),
        ));
        self
    }

    /// Declares a flow-dependence edge from an already-constructed relation
    /// (producer coordinates → consumer coordinates). The relation's tuple
    /// names must match the endpoint vertex names, exactly as for textual
    /// edges.
    pub fn edge_rel(mut self, src: &str, dst: &str, relation: BasicMap) -> Self {
        self.edges
            .push((src.to_string(), dst.to_string(), EdgeSpec::Rel(relation)));
        self
    }

    /// Finalises the DFG, validating vertex references and edge spaces.
    ///
    /// # Errors
    ///
    /// Returns the first [`DfgError`] encountered (parse error, unknown or
    /// duplicate vertex, or an edge whose relation spaces do not match its
    /// endpoints).
    pub fn build(mut self) -> Result<Dfg, DfgError> {
        if let Some(e) = self.errors.drain(..).next() {
            return Err(e);
        }
        let mut index = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if index.insert(n.name.clone(), i).is_some() {
                return Err(DfgError::DuplicateVertex(n.name.clone()));
            }
        }
        let mut edges = Vec::new();
        for (src, dst, spec) in &self.edges {
            let Some(&si) = index.get(src) else {
                return Err(DfgError::UnknownVertex(src.clone()));
            };
            let Some(&di) = index.get(dst) else {
                return Err(DfgError::UnknownVertex(dst.clone()));
            };
            let relation = match spec {
                EdgeSpec::Text(rel) => parse_map(rel)?,
                EdgeSpec::Rel(rel) => rel.clone(),
            };
            let edge_name = format!("{src} -> {dst}");
            let src_node = &self.nodes[si];
            let dst_node = &self.nodes[di];
            if relation.in_space().name() != src
                || relation.in_space().dim() != src_node.domain.dim()
            {
                return Err(DfgError::SpaceMismatch {
                    edge: edge_name,
                    reason: format!(
                        "relation input space {} does not match source domain {}",
                        relation.in_space(),
                        src_node.domain.space()
                    ),
                });
            }
            if relation.out_space().name() != dst
                || relation.out_space().dim() != dst_node.domain.dim()
            {
                return Err(DfgError::SpaceMismatch {
                    edge: edge_name,
                    reason: format!(
                        "relation output space {} does not match sink domain {}",
                        relation.out_space(),
                        dst_node.domain.space()
                    ),
                });
            }
            edges.push(DfgEdge {
                src: src.clone(),
                dst: dst.clone(),
                relation,
            });
        }
        Ok(Dfg {
            nodes: self.nodes,
            index,
            edges,
        })
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DFG with {} vertices, {} edges",
            self.nodes.len(),
            self.edges.len()
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "  {}{}: {}",
                n.name,
                if n.is_input { " (input)" } else { "" },
                n.domain
            )?;
        }
        for e in &self.edges {
            writeln!(f, "  {} -> {}: {}", e.src, e.dst, e.relation)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn build_and_query() {
        let _session = EngineCtx::new().enter();
        let g = example1();
        assert_eq!(g.nodes().len(), 3);
        assert_eq!(g.statements().count(), 1);
        assert_eq!(g.inputs().count(), 2);
        assert_eq!(g.edges_into("S").count(), 3);
        assert_eq!(g.edges_from("S").count(), 1);
        assert!(g.node("S").is_some());
        assert!(g.node("X").is_none());
    }

    #[test]
    fn ops_and_input_size() {
        let _session = EngineCtx::new().enter();
        let g = example1();
        let ctx = iolb_poly::Context::empty()
            .assume_ge("N", 2)
            .assume_ge("M", 2);
        assert_eq!(g.total_ops(&ctx).unwrap().to_string(), "M*N");
        assert_eq!(g.input_size(&ctx).unwrap().to_string(), "M + N");
    }

    #[test]
    fn unknown_vertex_is_rejected() {
        let _session = EngineCtx::new().enter();
        let res = Dfg::builder()
            .statement("S", "{ S[i] : 0 <= i < N }")
            .edge("A", "S", "{ A[i] -> S[i2] : i2 = i }")
            .build();
        assert!(matches!(res, Err(DfgError::UnknownVertex(_))));
    }

    #[test]
    fn duplicate_vertex_is_rejected() {
        let _session = EngineCtx::new().enter();
        let res = Dfg::builder()
            .statement("S", "{ S[i] : 0 <= i < N }")
            .statement("S", "{ S[i] : 0 <= i < N }")
            .build();
        assert!(matches!(res, Err(DfgError::DuplicateVertex(_))));
    }

    #[test]
    fn space_mismatch_is_rejected() {
        let _session = EngineCtx::new().enter();
        let res = Dfg::builder()
            .statement("S", "{ S[i, j] : 0 <= i < N and 0 <= j < N }")
            .statement("T", "{ T[i] : 0 <= i < N }")
            .edge("S", "T", "{ S[i] -> T[i2] : i2 = i }")
            .build();
        assert!(matches!(res, Err(DfgError::SpaceMismatch { .. })));
    }

    #[test]
    fn parse_error_is_propagated() {
        let res = Dfg::builder().statement("S", "{ S[i : }").build();
        assert!(matches!(res, Err(DfgError::Parse(_))));
    }

    #[test]
    fn relation_between_unions_parallel_edges() {
        let _session = EngineCtx::new().enter();
        let g = Dfg::builder()
            .statement("S", "[N] -> { S[i] : 0 <= i < N }")
            .edge("S", "S", "[N] -> { S[i] -> S[i + 1] : 0 <= i < N - 1 }")
            .edge("S", "S", "[N] -> { S[i] -> S[i + 2] : 0 <= i < N - 2 }")
            .build()
            .unwrap();
        let r = g.relation_between("S", "S").unwrap();
        assert_eq!(r.parts().len(), 2);
        assert!(g.relation_between("S", "T").is_none());
    }

    #[test]
    fn restrict_domains_shrinks_statements() {
        let _session = EngineCtx::new().enter();
        let g = example1();
        // Remove the first half of S's domain (t < 1).
        let slice = iolb_poly::parse_set("[M, N] -> { S[t, i] : t = 0 and 0 <= i < N }").unwrap();
        let removals = iolb_poly::UnionSet::from_set(slice.to_set());
        let restricted = g.restrict_domains(&removals);
        let s = restricted.node("S").unwrap();
        assert!(!s.domain.contains(&[0, 1], &[("M", 4), ("N", 4)]));
        assert!(s.domain.contains(&[1, 1], &[("M", 4), ("N", 4)]));
    }
}
