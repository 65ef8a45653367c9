//! Wavefront lower-bound derivation (`sub_paramQ_bywavefront`, Algorithm 5).
//!
//! The wavefront argument (Sec. 6) lower-bounds I/O by the number of
//! simultaneously *live* values any schedule must hold: if `V₁` and `V₂` are
//! disjoint vertex sets such that every vertex of `V₂` is reachable from
//! every vertex of `V₁` through disjoint paths `L_j`, then some point of the
//! execution holds at least `m = |{L_j}|` live values and `Q ≥ m − S`
//! (Corollary 6.3).
//!
//! As in the paper, the implementation searches for a constrained pattern:
//! injective circuits on a statement `S` that advance the innermost
//! parametrized loop index by exactly one, connecting the slice `I_d = Ω` to
//! the slice `I_d = Ω + 1`. Reachability between the two slices is computed
//! with a conservative *under*-approximation of the transitive closure
//! (including closures of DFG self-loops met along a circuit), which can only
//! shrink the discovered wavefront and therefore never invalidates the bound.

use crate::bound::{LowerBound, Technique};
use iolb_dfg::Dfg;
use iolb_poly::{count, BasicMap, BasicSet, Constraint, Context, LinExpr, Map, Set, UnionSet};
use iolb_symbol::{Expr, Poly};

/// Inputs of the wavefront derivation.
pub struct WavefrontInput<'a> {
    /// The DFG under analysis (outer parametrized dimensions, if any, already
    /// restricted; the advanced dimension itself must remain free).
    pub dfg: &'a Dfg,
    /// The statement the reasoning is centred on.
    pub statement: &'a str,
    /// The starting slice: the statement domain with the parametrized
    /// dimensions (including the advanced one) fixed to the `Ω` parameters.
    pub slice_domain: &'a BasicSet,
    /// The 0-based index of the loop dimension being advanced (the innermost
    /// parametrized dimension `d` of Sec. 4.3).
    pub advance_dim: usize,
    /// Parameter context used for symbolic counting.
    pub ctx: &'a Context,
    /// Name of the fast-memory-capacity parameter (usually `"S"`).
    pub cache_param: &'a str,
}

/// A circuit through the target statement: its edge sequence, its composed
/// relation, and whether self-loop closures were spliced in (`pure = false`).
struct Circuit {
    edges: Vec<usize>,
    relation: Map,
    pure: bool,
}

/// Enumerates elementary circuits through `statement`, optionally splicing in
/// the reachability closure of self-loop edges met at intermediate vertices
/// (so that reductions expressed as DFG self-loops do not hide reachability).
fn circuit_relations(dfg: &Dfg, statement: &str, max_len: usize) -> Vec<Circuit> {
    let mut out = Vec::new();
    // Precompute self-loop closures per vertex.
    let mut self_closures: std::collections::BTreeMap<String, Map> = Default::default();
    for node in dfg.nodes() {
        if node.name == statement {
            continue;
        }
        if let Some(loops) = dfg.relation_between(&node.name, &node.name) {
            let closure = loops.reachability_closure_underapprox();
            if !closure.is_empty() {
                self_closures.insert(node.name.clone(), closure);
            }
        }
    }

    // DFS forward from `statement` back to itself without repeating
    // intermediate vertices. Each stack entry tracks the composed relation.
    struct Frame {
        edges: Vec<usize>,
        visited: Vec<String>,
        relation: Map,
        pure: bool,
    }
    let mut stack: Vec<Frame> = Vec::new();
    for (ei, e) in dfg.edges_from(statement) {
        stack.push(Frame {
            edges: vec![ei],
            visited: vec![e.dst.clone()],
            relation: Map::from_basic(e.relation.clone()),
            pure: true,
        });
    }
    while let Some(frame) = stack.pop() {
        let current = frame.visited.last().expect("non-empty walk").clone();
        if current == statement {
            if !frame.relation.is_empty() {
                out.push(Circuit {
                    edges: frame.edges,
                    relation: frame.relation,
                    pure: frame.pure,
                });
            }
            continue;
        }
        if frame.edges.len() >= max_len {
            continue;
        }
        // Variants of the relation reaching `current`: with and without the
        // vertex's self-loop closure spliced in.
        let mut variants = vec![(frame.relation.clone(), frame.pure)];
        if let Some(closure) = self_closures.get(&current) {
            let extended = frame.relation.then(closure);
            if !extended.is_empty() {
                variants.push((extended, false));
            }
        }
        for (ei, e) in dfg.edges_from(&current) {
            if frame.visited.contains(&e.dst) && e.dst != statement {
                continue;
            }
            for (rel, pure) in &variants {
                let next_rel = rel.then(&Map::from_basic(e.relation.clone()));
                if next_rel.is_empty() {
                    continue;
                }
                let mut edges = frame.edges.clone();
                edges.push(ei);
                let mut visited = frame.visited.clone();
                visited.push(e.dst.clone());
                stack.push(Frame {
                    edges,
                    visited,
                    relation: next_rel,
                    pure: *pure,
                });
            }
        }
    }
    out
}

/// Builds the "advance dimension `d` by one, keep earlier dimensions" pattern
/// relation over the statement's space: `out_k = in_k` for `k < d`,
/// `out_d = in_d + 1`; later dimensions are kept equal too when
/// `constrain_later_equal` is set (the disjoint-path pattern) and left free
/// otherwise (the completeness pattern `R_complete`).
fn advance_pattern(space: &iolb_poly::Space, d: usize, constrain_later_equal: bool) -> BasicMap {
    let n = space.dim();
    let arity = 2 * n;
    let mut constraints = Vec::new();
    for k in 0..n {
        let diff = LinExpr::var(arity, n + k).sub(&LinExpr::var(arity, k));
        if k < d {
            constraints.push(Constraint::eq(diff));
        } else if k == d {
            constraints.push(Constraint::eq(diff.sub(&LinExpr::constant(arity, 1))));
        } else if constrain_later_equal {
            constraints.push(Constraint::eq(diff));
        }
    }
    BasicMap::from_constraints(space.clone(), space.clone(), constraints)
}

/// Derives a wavefront lower bound (Algorithm 5). Returns `None` when the
/// constrained pattern is not present or the wavefront cardinality cannot be
/// counted symbolically.
pub fn wavefront_bound(input: &WavefrontInput<'_>) -> Option<LowerBound> {
    let dfg = input.dfg;
    let statement = input.statement;
    let node = dfg.node(statement)?;
    let full_domain = &node.domain;
    let slice = input.slice_domain;
    let space = full_domain.space().clone();
    let d = input.advance_dim;
    if d >= space.dim() {
        return None;
    }
    let mut notes = Vec::new();

    let circuits = circuit_relations(dfg, statement, 4);
    if circuits.is_empty() {
        return None;
    }

    // R_{S→S}: union of all circuit relations (used for reachability).
    // R_Id: pure circuits whose edges are all injective and that advance
    // dimension d by exactly one, keeping every other dimension — the
    // disjoint paths L_j.
    let step = Map::from_basic(advance_pattern(&space, d, true));
    let mut r_ss: Option<Map> = None;
    let mut r_id: Option<Map> = None;
    for c in &circuits {
        r_ss = Some(match r_ss {
            Some(acc) => acc.union(&c.relation),
            None => c.relation.clone(),
        });
        if !c.pure {
            continue;
        }
        let all_injective = c
            .edges
            .iter()
            .all(|&ei| dfg.edges()[ei].relation.is_injective());
        if !all_injective {
            continue;
        }
        let stepped = c.relation.intersect(&step);
        if stepped.is_empty() {
            continue;
        }
        r_id = Some(match r_id {
            Some(acc) => acc.union(&stepped),
            None => stepped,
        });
    }
    let r_ss = r_ss?;
    let r_id = r_id?
        .intersect_domain(&slice.to_set())
        .intersect_range(&full_domain.to_set());
    if r_id.is_empty() {
        return None;
    }
    notes.push(format!(
        "{} injective circuit disjunct(s) advance dimension {} by one",
        r_id.parts().len(),
        d
    ));

    // R_complete: every (slice point, next-slice point) pair.
    let complete = Map::from_basic(advance_pattern(&space, d, false))
        .intersect_domain(&slice.to_set())
        .intersect_range(&full_domain.to_set());

    // Reachability (under-approximated) and the unreachable target points X.
    let reach = r_ss.reachability_closure_underapprox();
    let dom_rid: Set = r_id.domain();
    let target_points = complete.intersect_domain(&dom_rid).range();
    let reachable = reach.intersect_domain(&dom_rid).range();
    let unreachable = target_points.subtract(&reachable);

    // W: starting points from which the whole next slice is reachable.
    let w: Set = dom_rid.subtract(&r_id.inverse().apply(&unreachable));
    if w.is_empty() {
        return None;
    }
    let w_card = count::card_in(&iolb_poly::EngineCtx::current(), &w, input.ctx)?;
    notes.push(format!("wavefront size |W| = {}", w_card));

    // Q ≥ |W| − S.
    let q_poly = w_card.clone() - Poly::param(input.cache_param);

    // may-spill: W plus the intermediate vertices on the circuits that leave
    // W and re-enter the statement at the next slice (Algorithm 5's
    // `R_{S→*}(W) ∩ R⁻¹_{S→*}(R_Id(W))`). The re-entry slice itself is *not*
    // part of the may-spill set — exactly what makes consecutive slices
    // non-interfering (Fig. 3's "two bottom rows").
    let mut may_spill = UnionSet::empty();
    may_spill.add_set(rename_to(&w, statement));
    for c in &circuits {
        let mut frontier: Set = w.clone();
        // Walk all edges except the last (which lands back in the statement).
        for &ei in c.edges.iter().take(c.edges.len().saturating_sub(1)) {
            let e = &dfg.edges()[ei];
            frontier = Map::from_basic(e.relation.clone()).apply(&frontier);
            if frontier.is_empty() {
                break;
            }
            may_spill.add_set(rename_to(&frontier, &e.dst));
        }
    }

    Some(LowerBound {
        expr: Expr::from_poly(q_poly),
        may_spill,
        technique: Technique::Wavefront,
        statement: statement.to_string(),
        notes,
    })
}

/// Renames the tuple of every disjunct of a set (sets produced by map
/// application keep their space name; may-spill bookkeeping needs the
/// statement name).
fn rename_to(set: &Set, name: &str) -> Set {
    let parts: Vec<BasicSet> = set
        .parts()
        .iter()
        .map(|p| {
            p.with_space(iolb_poly::Space::from_names(
                name.to_string(),
                p.space().dims().to_vec(),
            ))
        })
        .collect();
    if parts.is_empty() {
        return Set::empty(iolb_poly::Space::from_names(
            name.to_string(),
            set.space().dims().to_vec(),
        ));
    }
    let space = parts[0].space().clone();
    Set::from_basic_sets(space, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_dfg::Dfg;
    use iolb_poly::EngineCtx;

    fn ctx() -> Context {
        Context::empty().assume_ge("N", 4).assume_ge("M", 4)
    }

    /// Example 2 of the paper (Fig. 3): statement S1 accumulates A into a
    /// scalar, statement S2 adds the accumulated value back into every A[i].
    /// S2's values at outer iteration t all feed every S2 instance of
    /// iteration t + 1, creating an N-wide wavefront between slices.
    fn example2() -> Dfg {
        Dfg::builder()
            .statement("S1", "[M, N] -> { S1[t, i] : 0 <= t < M and 0 <= i < N }")
            .statement("S2", "[M, N] -> { S2[t, i] : 0 <= t < M and 0 <= i < N }")
            // A[i] updated at iteration t feeds the accumulation at t+1.
            .edge(
                "S2",
                "S1",
                "[M, N] -> { S2[t, i] -> S1[t2, i2] : t2 = t + 1 and i2 = i and 0 <= t < M - 1 and 0 <= i < N }",
            )
            // The reduction chain within S1.
            .edge(
                "S1",
                "S1",
                "[M, N] -> { S1[t, i] -> S1[t2, i2] : t2 = t and i2 = i + 1 and 0 <= t < M and 0 <= i < N - 1 }",
            )
            // The final accumulated value (i = N-1) broadcasts to every S2 of
            // the same iteration.
            .edge(
                "S1",
                "S2",
                "[M, N] -> { S1[t, i] -> S2[t2, j] : t2 = t and i = N - 1 and 0 <= t < M and 0 <= j < N }",
            )
            // A[i] is also read by the update itself at the next iteration.
            .edge(
                "S2",
                "S2",
                "[M, N] -> { S2[t, i] -> S2[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }",
            )
            .build()
            .unwrap()
    }

    #[test]
    fn example2_wavefront_is_n_minus_s() {
        let _session = EngineCtx::new().enter();
        let g = example2();
        let slice = iolb_poly::parse_set(
            "[M, N, Omega0] -> { S2[t, i] : t = Omega0 and 0 <= t < M and 0 <= i < N }",
        )
        .unwrap();
        let input = WavefrontInput {
            dfg: &g,
            statement: "S2",
            slice_domain: &slice,
            advance_dim: 0,
            ctx: &ctx(),
            cache_param: "S",
        };
        let bound = wavefront_bound(&input).expect("wavefront bound exists");
        // Per outer iteration the wavefront is the N array values: Q ≥ N − S.
        let lead = iolb_symbol::asymptotic::simplify(&bound.expr, "S");
        assert_eq!(lead.to_string(), "N");
        let v = bound
            .expr
            .eval_params(&[("N", 100), ("M", 10), ("S", 16), ("Omega0", 3)])
            .unwrap();
        assert_eq!(v, 100.0 - 16.0);
        // The may-spill set covers the S2 slice and the next S1 slice, but
        // not the next S2 slice — so consecutive slices do not interfere.
        assert!(crate::decompose::slices_are_disjoint(
            &bound.may_spill,
            "Omega0"
        ));
    }

    #[test]
    fn no_circuits_no_bound() {
        let _session = EngineCtx::new().enter();
        // A pure streaming statement with no reuse circuit has no wavefront.
        let g = Dfg::builder()
            .input("A", "[N] -> { A[i] : 0 <= i < N }")
            .statement("St", "[N] -> { St[i] : 0 <= i < N }")
            .edge(
                "A",
                "St",
                "[N] -> { A[i] -> St[i2] : i2 = i and 0 <= i < N }",
            )
            .build()
            .unwrap();
        let slice =
            iolb_poly::parse_set("[N, Omega0] -> { St[i] : i = Omega0 and 0 <= i < N }").unwrap();
        let input = WavefrontInput {
            dfg: &g,
            statement: "St",
            slice_domain: &slice,
            advance_dim: 0,
            ctx: &ctx(),
            cache_param: "S",
        };
        assert!(wavefront_bound(&input).is_none());
    }

    #[test]
    fn gemm_wavefront_is_the_k_slice() {
        let _session = EngineCtx::new().enter();
        // For gemm the only circuit is the accumulation chain along k; the
        // wavefront between consecutive k-slices is the Ni·Nj accumulators.
        let g = Dfg::builder()
            .statement(
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
            )
            .edge(
                "C",
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }",
            )
            .build()
            .unwrap();
        let slice = iolb_poly::parse_set(
            "[Ni, Nj, Nk, Omega0] -> { C[i, j, k] : k = Omega0 and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
        )
        .unwrap();
        let input = WavefrontInput {
            dfg: &g,
            statement: "C",
            slice_domain: &slice,
            advance_dim: 2,
            ctx: &Context::empty()
                .assume_ge("Ni", 4)
                .assume_ge("Nj", 4)
                .assume_ge("Nk", 4),
            cache_param: "S",
        };
        let bound = wavefront_bound(&input).expect("accumulation wavefront");
        let lead = iolb_symbol::asymptotic::simplify(&bound.expr, "S");
        assert_eq!(lead.to_string(), "Ni*Nj");
    }

    #[test]
    fn advance_dim_out_of_range() {
        let _session = EngineCtx::new().enter();
        let g = example2();
        let slice = g.node("S2").unwrap().domain.clone();
        let input = WavefrontInput {
            dfg: &g,
            statement: "S2",
            slice_domain: &slice,
            advance_dim: 7,
            ctx: &ctx(),
            cache_param: "S",
        };
        assert!(wavefront_bound(&input).is_none());
    }
}
