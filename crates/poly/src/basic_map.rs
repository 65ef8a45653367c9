//! Basic (single-disjunct) parametric integer relations.

use crate::affine::{Constraint, ConstraintKind, LinExpr};
use crate::basic_set::BasicSet;
use crate::fm;
use crate::space::Space;
use iolb_math::{Matrix, Rational};
use std::collections::BTreeMap;
use std::fmt;

/// An affine function `x ↦ A·x + B·params + c` extracted from a relation,
/// mapping points of one space to points of another.
///
/// For a broadcast DFG-path `S_a → S_k` this is the inverse relation
/// `S_k[x] → S_a[A·x + b]` of Definition 5.1; its linear part's null space is
/// the projection kernel used in the Brascamp–Lieb reasoning.
#[derive(Clone, Debug, PartialEq)]
pub struct AffineFunction {
    /// Linear coefficients: `result_dim × arg_dim`.
    pub linear: Matrix,
    /// Parameter coefficients per result dimension.
    pub param_coeffs: Vec<BTreeMap<String, Rational>>,
    /// Constant term per result dimension.
    pub constants: Vec<Rational>,
}

impl AffineFunction {
    /// The rank of the linear part.
    pub fn rank(&self) -> usize {
        self.linear.rank()
    }

    /// The kernel (null space) of the linear part, as a subspace of the
    /// argument space.
    pub fn kernel(&self) -> iolb_math::Subspace {
        iolb_math::Subspace::from_vectors(self.linear.num_cols(), &self.linear.null_space())
    }

    /// Whether the linear part has full column rank (the function is
    /// injective on its argument space).
    pub fn is_full_rank(&self) -> bool {
        self.rank() == self.linear.num_cols()
    }
}

/// A single-disjunct parametric relation between two spaces, represented by
/// affine constraints over the concatenated `(in, out)` dimensions.
///
/// # Examples
///
/// ```
/// use iolb_poly::{BasicMap, Space};
/// # let _session = iolb_poly::EngineCtx::new().enter();
/// // { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }
/// let m = BasicMap::translation(Space::new("S", &["t", "i"]), &[1, 0])
///     .constrain_in_ge_const(0, 0)
///     .constrain_in_lt_param_minus(0, "M", 1)
///     .constrain_in_ge_const(1, 0)
///     .constrain_in_lt_param_minus(1, "N", 0);
/// assert_eq!(m.translation_offsets(), Some(vec![1, 0]));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct BasicMap {
    in_space: Space,
    out_space: Space,
    constraints: Vec<Constraint>,
}

impl BasicMap {
    /// The unconstrained relation between two spaces.
    pub fn universe(in_space: Space, out_space: Space) -> Self {
        BasicMap {
            in_space,
            out_space,
            constraints: Vec::new(),
        }
    }

    /// Builds a relation from explicit constraints over the concatenated
    /// `(in, out)` dimensions.
    pub fn from_constraints(
        in_space: Space,
        out_space: Space,
        constraints: Vec<Constraint>,
    ) -> Self {
        let arity = in_space.dim() + out_space.dim();
        for c in &constraints {
            assert_eq!(c.expr.num_vars(), arity, "constraint arity mismatch");
        }
        BasicMap {
            in_space,
            out_space,
            constraints,
        }
    }

    /// The identity-plus-offset relation `{ S[x] → S[x + δ] }` over a space
    /// (domain constraints can be added afterwards).
    pub fn translation(space: Space, delta: &[i128]) -> Self {
        assert_eq!(space.dim(), delta.len(), "offset arity mismatch");
        let n = space.dim();
        let arity = 2 * n;
        let mut constraints = Vec::new();
        for (i, &d) in delta.iter().enumerate() {
            // out_i - in_i - delta_i = 0
            let e = LinExpr::var(arity, n + i)
                .sub(&LinExpr::var(arity, i))
                .sub(&LinExpr::constant(arity, d));
            constraints.push(Constraint::eq(e));
        }
        BasicMap {
            in_space: space.clone(),
            out_space: space,
            constraints,
        }
    }

    /// The input space.
    pub fn in_space(&self) -> &Space {
        &self.in_space
    }

    /// The output space.
    pub fn out_space(&self) -> &Space {
        &self.out_space
    }

    /// Number of input dimensions.
    pub fn n_in(&self) -> usize {
        self.in_space.dim()
    }

    /// Number of output dimensions.
    pub fn n_out(&self) -> usize {
        self.out_space.dim()
    }

    fn arity(&self) -> usize {
        self.n_in() + self.n_out()
    }

    /// The constraints over the concatenated `(in, out)` dimensions.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a constraint (builder style).
    pub fn constrain(mut self, c: Constraint) -> Self {
        assert_eq!(c.expr.num_vars(), self.arity(), "constraint arity mismatch");
        self.constraints.push(c);
        self
    }

    /// Builder: input dimension `i ≥ c`.
    pub fn constrain_in_ge_const(self, i: usize, c: i128) -> Self {
        let a = self.arity();
        self.constrain(Constraint::ge0(
            LinExpr::var(a, i).sub(&LinExpr::constant(a, c)),
        ))
    }

    /// Builder: input dimension `i < p - offset` for a parameter `p`.
    pub fn constrain_in_lt_param_minus(self, i: usize, p: &str, offset: i128) -> Self {
        let a = self.arity();
        self.constrain(Constraint::ge0(
            LinExpr::param(a, p)
                .sub(&LinExpr::constant(a, offset))
                .sub(&LinExpr::var(a, i))
                .sub(&LinExpr::constant(a, 1)),
        ))
    }

    /// Membership test for a concrete `(input, output)` pair.
    pub fn contains(&self, input: &[i128], output: &[i128], params: &[(&str, i128)]) -> bool {
        assert_eq!(input.len(), self.n_in(), "input arity mismatch");
        assert_eq!(output.len(), self.n_out(), "output arity mismatch");
        let env: BTreeMap<String, i128> = params.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let mut point = input.to_vec();
        point.extend_from_slice(output);
        self.constraints.iter().all(|c| c.holds(&point, &env))
    }

    /// Returns true if the relation is empty for every parameter value.
    pub fn is_empty(&self) -> bool {
        crate::engine::EngineCtx::with_current(|e| {
            !fm::is_feasible_in(e, &self.constraints, self.arity())
        })
    }

    /// The domain of the relation (projection on the input dimensions).
    pub fn domain(&self) -> BasicSet {
        let idxs: Vec<usize> = (self.n_in()..self.arity()).collect();
        let cs = crate::engine::EngineCtx::with_current(|e| {
            fm::eliminate_vars_in(e, &self.constraints, idxs)
        });
        BasicSet::from_constraints(self.in_space.clone(), cs)
    }

    /// The range of the relation (projection on the output dimensions).
    pub fn range(&self) -> BasicSet {
        let idxs: Vec<usize> = (0..self.n_in()).collect();
        let cs = crate::engine::EngineCtx::with_current(|e| {
            fm::eliminate_vars_in(e, &self.constraints, idxs)
        });
        BasicSet::from_constraints(self.out_space.clone(), cs)
    }

    /// The inverse relation.
    pub fn inverse(&self) -> BasicMap {
        let n_in = self.n_in();
        let n_out = self.n_out();
        let arity = self.arity();
        // New order: old out dims first, then old in dims.
        let mapping: Vec<usize> = (0..n_in).map(|i| n_out + i).chain(0..n_out).collect();
        let constraints = self
            .constraints
            .iter()
            .map(|c| Constraint {
                expr: c.expr.remap_vars(arity, &mapping),
                kind: c.kind,
            })
            .collect();
        BasicMap {
            in_space: self.out_space.clone(),
            out_space: self.in_space.clone(),
            constraints,
        }
    }

    /// Intersects with another relation over the same pair of spaces.
    pub fn intersect(&self, other: &BasicMap) -> BasicMap {
        assert!(
            self.in_space.compatible(other.in_space())
                && self.out_space.compatible(other.out_space()),
            "intersecting incompatible relations"
        );
        let mut constraints = self.constraints.clone();
        constraints.extend(other.constraints.iter().cloned());
        BasicMap {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            constraints,
        }
    }

    /// Relation difference `self ∖ other`, as a union of basic relations.
    ///
    /// Mirrors [`BasicSet::subtract`] over the concatenated `(in, out)`
    /// dimensions: one piece per constraint of `other`, where that constraint
    /// is (integrally) violated while the preceding ones still hold. Pieces
    /// are passed through [`BasicMap::detect_equalities`], because the
    /// violated-then-bounded inequality pairs this construction produces are
    /// often implied equalities that downstream classification (translation
    /// detection, broadcast extraction) prefers explicit.
    pub fn subtract(&self, other: &BasicMap) -> crate::Map {
        assert!(
            self.in_space.compatible(other.in_space())
                && self.out_space.compatible(other.out_space()),
            "subtracting incompatible relations"
        );
        let n = self.arity();
        let mut pieces = Vec::new();
        let mut prefix: Vec<Constraint> = Vec::new();
        for c in &other.constraints {
            // Integral violation of `c`: expr <= -1 (inequality), or
            // expr >= 1 / expr <= -1 (equality).
            let signs: &[i128] = match c.kind {
                ConstraintKind::Inequality => &[-1],
                ConstraintKind::Equality => &[1, -1],
            };
            for &sign in signs {
                let viol = Constraint::ge0(c.expr.scale(sign).add(&LinExpr::constant(n, -1)));
                let mut cs = self.constraints.clone();
                cs.extend(prefix.iter().cloned());
                cs.push(viol);
                let piece = BasicMap {
                    in_space: self.in_space.clone(),
                    out_space: self.out_space.clone(),
                    constraints: cs,
                };
                if !piece.is_empty() {
                    pieces.push(piece.detect_equalities());
                }
            }
            prefix.push(c.clone());
        }
        if other.constraints.is_empty() {
            // Subtracting the universe leaves nothing.
            return crate::Map::empty(self.in_space.clone(), self.out_space.clone());
        }
        crate::Map::from_basic_maps(self.in_space.clone(), self.out_space.clone(), pieces)
    }

    /// Replaces each pair of opposite inequalities `e ≥ 0`, `−e ≥ 0` by the
    /// single equality `e = 0`, leaving all other constraints untouched.
    pub fn detect_equalities(&self) -> BasicMap {
        let n = self.constraints.len();
        let mut consumed = vec![false; n];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if consumed[i] {
                continue;
            }
            let c = &self.constraints[i];
            if c.kind != ConstraintKind::Inequality {
                out.push(c.clone());
                continue;
            }
            let neg = c.expr.scale(-1);
            let partner = (i + 1..n).find(|&j| {
                !consumed[j]
                    && self.constraints[j].kind == ConstraintKind::Inequality
                    && self.constraints[j].expr == neg
            });
            match partner {
                Some(j) => {
                    consumed[j] = true;
                    out.push(Constraint::eq(c.expr.clone()));
                }
                None => out.push(c.clone()),
            }
        }
        BasicMap {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            constraints: out,
        }
    }

    /// Restricts the domain to a set.
    pub fn intersect_domain(&self, set: &BasicSet) -> BasicMap {
        assert!(
            self.in_space.compatible(set.space()),
            "incompatible domain space"
        );
        let arity = self.arity();
        let mapping: Vec<usize> = (0..self.n_in()).collect();
        let mut constraints = self.constraints.clone();
        for c in set.constraints() {
            constraints.push(Constraint {
                expr: c.expr.remap_vars(arity, &mapping),
                kind: c.kind,
            });
        }
        BasicMap {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            constraints,
        }
    }

    /// Restricts the range to a set.
    pub fn intersect_range(&self, set: &BasicSet) -> BasicMap {
        assert!(
            self.out_space.compatible(set.space()),
            "incompatible range space"
        );
        let arity = self.arity();
        let mapping: Vec<usize> = (self.n_in()..arity).collect();
        let mut constraints = self.constraints.clone();
        for c in set.constraints() {
            constraints.push(Constraint {
                expr: c.expr.remap_vars(arity, &mapping),
                kind: c.kind,
            });
        }
        BasicMap {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            constraints,
        }
    }

    /// The image of a set under the relation.
    pub fn apply(&self, set: &BasicSet) -> BasicSet {
        let restricted = self.intersect_domain(set);
        restricted.range()
    }

    /// The preimage of a set under the relation (`R⁻¹(D)`).
    pub fn preimage(&self, set: &BasicSet) -> BasicSet {
        self.inverse().apply(set)
    }

    /// Sequential composition: `self` then `other` (the paper's
    /// `R_self ∘ R_other`), requiring `self`'s output space to be compatible
    /// with `other`'s input space.
    pub fn then(&self, other: &BasicMap) -> BasicMap {
        assert!(
            self.out_space.compatible(other.in_space()),
            "composing incompatible relations: {} then {}",
            self.out_space,
            other.in_space()
        );
        let n_a = self.n_in();
        let n_b = self.n_out();
        let n_c = other.n_out();
        let total = n_a + n_b + n_c;
        let mut constraints = Vec::new();
        // self's constraints over (a, b).
        let map_self: Vec<usize> = (0..n_a + n_b).collect();
        for c in &self.constraints {
            constraints.push(Constraint {
                expr: c.expr.remap_vars(total, &map_self),
                kind: c.kind,
            });
        }
        // other's constraints over (b, c) shifted by n_a.
        let map_other: Vec<usize> = (n_a..n_a + n_b + n_c).collect();
        for c in &other.constraints {
            constraints.push(Constraint {
                expr: c.expr.remap_vars(total, &map_other),
                kind: c.kind,
            });
        }
        // Project out the shared b dimensions.
        let idxs: Vec<usize> = (n_a..n_a + n_b).collect();
        let projected = crate::engine::EngineCtx::with_current(|e| {
            fm::eliminate_vars_in(e, &constraints, idxs)
        });
        BasicMap {
            in_space: self.in_space.clone(),
            out_space: other.out_space().clone(),
            constraints: projected,
        }
    }

    /// Checks whether the relation is a pure translation `x → x + δ` on a
    /// common space, and returns the offsets if so.
    pub fn translation_offsets(&self) -> Option<Vec<i128>> {
        if !self.in_space.compatible(&self.out_space) {
            return None;
        }
        self.shift_offsets()
    }

    /// Like [`BasicMap::translation_offsets`], but only requires the two
    /// spaces to have equal *dimension counts*, not equal names: detects
    /// `S1[x] → S2[x + δ]` shifts between distinct statement spaces — the
    /// ping-pong form of stencils (jacobi's `A → B → A`), whose
    /// cross-statement dependences are translations in all but name.
    pub fn shift_offsets(&self) -> Option<Vec<i128>> {
        if self.in_space.dim() != self.out_space.dim() {
            return None;
        }
        if self.is_empty() {
            return None;
        }
        let n = self.n_in();
        let arity = self.arity();
        let mut offsets = Vec::with_capacity(n);
        for i in 0..n {
            // Introduce t = out_i - in_i and check whether the relation
            // determines it to a unique parameter-free constant.
            let t_expr = LinExpr::var(arity, n + i).sub(&LinExpr::var(arity, i));
            let delta = self.determined_constant(&t_expr)?;
            offsets.push(delta);
        }
        Some(offsets)
    }

    /// If the relation forces `expr` (over the concatenated dims) to a unique
    /// parameter-free integer constant, returns it.
    fn determined_constant(&self, expr: &LinExpr) -> Option<i128> {
        let arity = self.arity();
        // Augment the system with a fresh variable t = expr, eliminate all
        // original variables and inspect the constraints on t.
        let total = arity + 1;
        let mapping: Vec<usize> = (0..arity).collect();
        let mut sys: Vec<Constraint> = self
            .constraints
            .iter()
            .map(|c| Constraint {
                expr: c.expr.remap_vars(total, &mapping),
                kind: c.kind,
            })
            .collect();
        let t_def = LinExpr::var(total, arity).sub(&expr.remap_vars(total, &mapping));
        sys.push(Constraint::eq(t_def));
        let only_t = crate::engine::EngineCtx::with_current(|e| {
            fm::eliminate_vars_in(e, &sys, (0..arity).collect())
        });
        // Look for a pair of bounds or an equality pinning t (variable 0 of
        // the reduced system) to a constant with no parameters.
        let mut lower: Option<i128> = None;
        let mut upper: Option<i128> = None;
        for c in &only_t {
            let coeff = c.expr.var_coeff(0);
            if coeff == 0 || !c.expr.param_coeffs.is_empty() {
                continue;
            }
            match c.kind {
                ConstraintKind::Equality => {
                    if c.expr.constant % coeff == 0 {
                        return Some(-c.expr.constant / coeff);
                    }
                    return None;
                }
                ConstraintKind::Inequality => {
                    // coeff * t + const >= 0
                    let bound = Rational::new(-c.expr.constant, coeff);
                    if coeff > 0 {
                        let b = bound.ceil();
                        lower = Some(lower.map_or(b, |l| l.max(b)));
                    } else {
                        let b = bound.floor();
                        upper = Some(upper.map_or(b, |u| u.min(b)));
                    }
                }
            }
        }
        match (lower, upper) {
            (Some(l), Some(u)) if l == u => Some(l),
            _ => None,
        }
    }

    /// Attempts to express the *input* coordinates as an affine function of
    /// the *output* coordinates and parameters, i.e. view `R⁻¹` as the affine
    /// function of Definition 5.1. Returns `None` if the inputs are not
    /// uniquely determined by the outputs (the relation is not injective) or
    /// if the function is not affine with the available equalities.
    pub fn as_function_of_range(&self) -> Option<AffineFunction> {
        let n_in = self.n_in();
        let n_out = self.n_out();
        let arity = self.arity();
        // Gather equality constraints; we solve for the input dims.
        let eqs: Vec<&Constraint> = self
            .constraints
            .iter()
            .filter(|c| c.kind == ConstraintKind::Equality)
            .collect();
        if eqs.is_empty() && n_in > 0 {
            return None;
        }
        // Build the linear system: for each equality,
        //   Σ_j a_j · in_j = -(Σ_k b_k · out_k + params + const).
        // Unknowns: the in dims. RHS components tracked symbolically.
        let params: Vec<String> =
            crate::engine::EngineCtx::with_current(|e| fm::collect_params_in(e, &self.constraints));
        let num_rhs = n_out + params.len() + 1; // out dims, params, constant
        let mut lhs_rows: Vec<Vec<Rational>> = Vec::new();
        let mut rhs_rows: Vec<Vec<Rational>> = Vec::new();
        for c in &eqs {
            let mut lhs = vec![Rational::ZERO; n_in];
            for (j, v) in lhs.iter_mut().enumerate() {
                *v = Rational::from_int(c.expr.var_coeff(j));
            }
            let mut rhs = vec![Rational::ZERO; num_rhs];
            for (k, r) in rhs.iter_mut().enumerate().take(n_out) {
                *r = Rational::from_int(-c.expr.var_coeff(n_in + k));
            }
            for (pi, p) in params.iter().enumerate() {
                rhs[n_out + pi] = Rational::from_int(-c.expr.param_coeff(p));
            }
            rhs[num_rhs - 1] = Rational::from_int(-c.expr.constant);
            lhs_rows.push(lhs);
            rhs_rows.push(rhs);
        }
        let _ = arity;
        // Solve via RREF of the augmented system [LHS | RHS].
        let mut aug_rows = Vec::new();
        for (l, r) in lhs_rows.iter().zip(&rhs_rows) {
            let mut row = l.clone();
            row.extend(r.iter().copied());
            aug_rows.push(row);
        }
        let aug = Matrix::from_rows(&aug_rows);
        let (rref, pivots) = aug.rref();
        // Every input dimension must be a pivot column (uniquely determined).
        let mut solution: Vec<Option<Vec<Rational>>> = vec![None; n_in];
        for (row_idx, &pc) in pivots.iter().enumerate() {
            if pc >= n_in {
                // A pivot purely among RHS columns means an inconsistent or
                // parameter-binding equation; ignore (it constrains the
                // domain, not the function).
                continue;
            }
            // Check that no *other* input dim appears in this row.
            let clean = (0..n_in).all(|j| j == pc || rref[(row_idx, j)].is_zero());
            if !clean {
                return None;
            }
            let rhs: Vec<Rational> = (0..num_rhs).map(|k| rref[(row_idx, n_in + k)]).collect();
            solution[pc] = Some(rhs);
        }
        if solution.iter().any(|s| s.is_none()) {
            return None;
        }
        let mut linear = Matrix::zeros(n_in, n_out);
        let mut param_coeffs = vec![BTreeMap::new(); n_in];
        let mut constants = vec![Rational::ZERO; n_in];
        for (j, sol) in solution.into_iter().enumerate() {
            let sol = sol.unwrap();
            for k in 0..n_out {
                linear[(j, k)] = sol[k];
            }
            for (pi, p) in params.iter().enumerate() {
                let v = sol[n_out + pi];
                if !v.is_zero() {
                    param_coeffs[j].insert(p.clone(), v);
                }
            }
            constants[j] = sol[num_rhs - 1];
        }
        Some(AffineFunction {
            linear,
            param_coeffs,
            constants,
        })
    }

    /// Returns true if the relation is injective (each output has at most one
    /// input), detected via [`BasicMap::as_function_of_range`].
    pub fn is_injective(&self) -> bool {
        match self.as_function_of_range() {
            Some(f) => f.is_full_rank() || self.n_in() == 0,
            None => false,
        }
    }

    /// Reachability closure of a translation relation: the relation
    /// `{ x → x + k·δ : k ≥ 1 }` restricted to the original domain and range.
    ///
    /// Returns `None` when the relation is not a translation or when no
    /// offset component is ±1 (which would require divisibility constraints).
    /// The result **under-approximates** true multi-step reachability only in
    /// the direction that keeps wavefront bounds valid (see module docs of
    /// `iolb_core::wavefront`).
    pub fn reachability_closure(&self) -> Option<BasicMap> {
        let delta = self.translation_offsets()?;
        if delta.iter().all(|&d| d == 0) {
            return None;
        }
        // Choose a component with |δ_j| = 1 as the step counter.
        let j = delta.iter().position(|&d| d.abs() == 1)?;
        let n = self.n_in();
        let arity = self.arity();
        let mut constraints = Vec::new();
        // Proportionality: δ_j·(out_i - in_i) - δ_i·(out_j - in_j) = 0.
        for i in 0..n {
            if i == j {
                continue;
            }
            let diff_i = LinExpr::var(arity, n + i).sub(&LinExpr::var(arity, i));
            let diff_j = LinExpr::var(arity, n + j).sub(&LinExpr::var(arity, j));
            let e = diff_i.scale(delta[j]).sub(&diff_j.scale(delta[i]));
            constraints.push(Constraint::eq(e));
        }
        // Step count ≥ 1: δ_j·(out_j - in_j) ≥ δ_j².
        let diff_j = LinExpr::var(arity, n + j).sub(&LinExpr::var(arity, j));
        constraints.push(Constraint::ge0(
            diff_j
                .scale(delta[j])
                .sub(&LinExpr::constant(arity, delta[j] * delta[j])),
        ));
        let closure = BasicMap {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            constraints,
        };
        // Keep endpoints within the original endpoints (domain ∪ range is the
        // convex hull walked by the chain; intersecting with domain/range of
        // the one-step relation is the conservative, valid choice).
        let dom = self.domain();
        let ran = self.range();
        Some(closure.intersect_domain(&dom).intersect_range(&ran))
    }
}

impl fmt::Display for BasicMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ {} -> {} : ", self.in_space, self.out_space)?;
        if self.constraints.is_empty() {
            write!(f, "true")?;
        }
        let mut names: Vec<String> = self.in_space.dims().to_vec();
        names.extend(self.out_space.dims().iter().map(|d| format!("{d}'")));
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{}", c.display_with(&names))?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineCtx;

    /// { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }
    fn chain() -> BasicMap {
        BasicMap::translation(Space::new("S", &["t", "i"]), &[1, 0])
            .constrain_in_ge_const(0, 0)
            .constrain_in_lt_param_minus(0, "M", 1)
            .constrain_in_ge_const(1, 0)
            .constrain_in_lt_param_minus(1, "N", 0)
    }

    /// { C[t] -> S[t, i] : 0 <= t < M and 0 <= i < N }  (broadcast)
    fn broadcast() -> BasicMap {
        let in_space = Space::new("C", &["t"]);
        let out_space = Space::new("S", &["t", "i"]);
        // vars: c_t, s_t, s_i
        let arity = 3;
        BasicMap::from_constraints(
            in_space,
            out_space,
            vec![
                Constraint::eq(LinExpr::var(arity, 1).sub(&LinExpr::var(arity, 0))),
                Constraint::ge0(LinExpr::var(arity, 0)),
                Constraint::ge0(
                    LinExpr::param(arity, "M")
                        .sub(&LinExpr::var(arity, 0))
                        .sub(&LinExpr::constant(arity, 1)),
                ),
                Constraint::ge0(LinExpr::var(arity, 2)),
                Constraint::ge0(
                    LinExpr::param(arity, "N")
                        .sub(&LinExpr::var(arity, 2))
                        .sub(&LinExpr::constant(arity, 1)),
                ),
            ],
        )
    }

    #[test]
    fn membership_and_domain_range() {
        let _session = EngineCtx::new().enter();
        let m = chain();
        assert!(m.contains(&[2, 3], &[3, 3], &[("M", 6), ("N", 7)]));
        assert!(!m.contains(&[2, 3], &[4, 3], &[("M", 6), ("N", 7)]));
        let d = m.domain();
        assert!(d.contains(&[4, 0], &[("M", 6), ("N", 7)]));
        assert!(!d.contains(&[5, 0], &[("M", 6), ("N", 7)]));
        let r = m.range();
        assert!(r.contains(&[5, 0], &[("M", 6), ("N", 7)]));
        assert!(!r.contains(&[0, 0], &[("M", 6), ("N", 7)]));
    }

    #[test]
    fn translation_detection() {
        let _session = EngineCtx::new().enter();
        assert_eq!(chain().translation_offsets(), Some(vec![1, 0]));
        assert_eq!(broadcast().translation_offsets(), None);
    }

    #[test]
    fn inverse_roundtrip() {
        let _session = EngineCtx::new().enter();
        let m = chain();
        let inv = m.inverse();
        assert!(inv.contains(&[3, 3], &[2, 3], &[("M", 6), ("N", 7)]));
        assert_eq!(inv.translation_offsets(), Some(vec![-1, 0]));
    }

    #[test]
    fn apply_and_preimage() {
        let _session = EngineCtx::new().enter();
        let m = chain();
        // Image of the slice {S[0, i]} is {S[1, i]}.
        let slice = BasicSet::universe(Space::new("S", &["t", "i"]))
            .fix_dim(0, 0)
            .ge0_var(1)
            .lt_param(1, "N");
        let img = m.apply(&slice);
        assert!(img.contains(&[1, 3], &[("M", 6), ("N", 7)]));
        assert!(!img.contains(&[2, 3], &[("M", 6), ("N", 7)]));
        let pre = m.preimage(&img);
        assert!(pre.contains(&[0, 3], &[("M", 6), ("N", 7)]));
    }

    #[test]
    fn composition() {
        let _session = EngineCtx::new().enter();
        let m = chain();
        let two_steps = m.then(&m);
        assert_eq!(two_steps.translation_offsets(), Some(vec![2, 0]));
        assert!(two_steps.contains(&[1, 2], &[3, 2], &[("M", 6), ("N", 7)]));
        // Domain shrinks: t <= M - 3.
        let d = two_steps.domain();
        assert!(!d.contains(&[4, 0], &[("M", 6), ("N", 7)]));
    }

    #[test]
    fn broadcast_function_extraction() {
        let _session = EngineCtx::new().enter();
        let b = broadcast();
        // Inverse function: S[t, i] -> C[t]; linear part (1, 0), kernel (0, 1).
        let f = b
            .as_function_of_range()
            .expect("broadcast has a functional inverse");
        assert_eq!(f.linear.num_rows(), 1);
        assert_eq!(f.linear.num_cols(), 2);
        assert_eq!(f.rank(), 1);
        assert!(!f.is_full_rank());
        let k = f.kernel();
        assert_eq!(k.dim(), 1);
        assert!(k.contains_vector(&[Rational::ZERO, Rational::ONE]));
    }

    #[test]
    fn chain_inverse_function_is_full_rank() {
        let _session = EngineCtx::new().enter();
        let m = chain();
        let f = m.as_function_of_range().expect("translation is invertible");
        assert!(f.is_full_rank());
        assert!(m.is_injective());
        assert!(!broadcast().is_injective());
    }

    #[test]
    fn intersect_domain_and_range() {
        let _session = EngineCtx::new().enter();
        let m = chain();
        let slice = BasicSet::universe(Space::new("S", &["t", "i"])).fix_dim(0, 2);
        let restricted = m.intersect_domain(&slice);
        assert!(restricted.contains(&[2, 1], &[3, 1], &[("M", 6), ("N", 7)]));
        assert!(!restricted.contains(&[1, 1], &[2, 1], &[("M", 6), ("N", 7)]));
        let restricted_r = m.intersect_range(&slice.with_space(Space::new("S", &["t", "i"])));
        assert!(restricted_r.contains(&[1, 1], &[2, 1], &[("M", 6), ("N", 7)]));
        assert!(!restricted_r.contains(&[2, 1], &[3, 1], &[("M", 6), ("N", 7)]));
    }

    #[test]
    fn reachability_closure_of_chain() {
        let _session = EngineCtx::new().enter();
        let m = chain();
        let star = m.reachability_closure().expect("chain closure exists");
        let params = [("M", 6i128), ("N", 7i128)];
        // One step and three steps are both reachable.
        assert!(star.contains(&[0, 2], &[1, 2], &params));
        assert!(star.contains(&[0, 2], &[3, 2], &params));
        // Zero steps and backwards are not.
        assert!(!star.contains(&[2, 2], &[2, 2], &params));
        assert!(!star.contains(&[3, 2], &[2, 2], &params));
        // Different i-coordinate is not reachable.
        assert!(!star.contains(&[0, 2], &[3, 3], &params));
    }

    #[test]
    fn emptiness() {
        let _session = EngineCtx::new().enter();
        let m = chain().constrain_in_ge_const(0, 100).constrain(
            // also t <= 1 contradicts t >= 100
            Constraint::ge0(LinExpr::constant(4, 1).sub(&LinExpr::var(4, 0))),
        );
        assert!(m.is_empty());
        assert!(!chain().is_empty());
    }
}
