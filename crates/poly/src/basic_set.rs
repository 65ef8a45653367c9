//! Basic (convex) parametric integer sets.

use crate::affine::{Constraint, ConstraintKind, LinExpr};
use crate::fm;
use crate::scan::{self, ScanPlan};
use crate::set::Set;
use crate::space::Space;
use std::collections::BTreeMap;
use std::fmt;

/// A conjunction of affine constraints over the dimensions of a [`Space`] and
/// named parameters: a single parametric Z-polyhedron.
///
/// # Examples
///
/// ```
/// use iolb_poly::{BasicSet, Space};
/// # let _session = iolb_poly::EngineCtx::new().enter();
/// // { S[i, j] : 0 <= i < N and 0 <= j <= i }
/// let s = BasicSet::universe(Space::new("S", &["i", "j"]))
///     .ge0_var(0)
///     .lt_param(0, "N")
///     .ge0_var(1)
///     .le_var(1, 0);
/// assert!(!s.is_empty());
/// assert!(s.contains(&[3, 2], &[("N", 10)]));
/// assert!(!s.contains(&[3, 4], &[("N", 10)]));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct BasicSet {
    space: Space,
    constraints: Vec<Constraint>,
}

impl BasicSet {
    /// The unconstrained set over a space.
    pub fn universe(space: Space) -> Self {
        BasicSet {
            space,
            constraints: Vec::new(),
        }
    }

    /// Builds a set from explicit constraints.
    ///
    /// # Panics
    ///
    /// Panics if any constraint's arity differs from the space dimension.
    pub fn from_constraints(space: Space, constraints: Vec<Constraint>) -> Self {
        for c in &constraints {
            assert_eq!(c.expr.num_vars(), space.dim(), "constraint arity mismatch");
        }
        BasicSet { space, constraints }
    }

    /// The space of the set.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The dimensionality of the set's space.
    pub fn dim(&self) -> usize {
        self.space.dim()
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a constraint (builder style).
    pub fn constrain(mut self, c: Constraint) -> Self {
        assert_eq!(c.expr.num_vars(), self.dim(), "constraint arity mismatch");
        self.constraints.push(c);
        self
    }

    /// Convenience builder: dimension `i ≥ 0`.
    pub fn ge0_var(self, i: usize) -> Self {
        let n = self.dim();
        self.constrain(Constraint::ge0(LinExpr::var(n, i)))
    }

    /// Convenience builder: dimension `i ≥ c`.
    pub fn ge_const(self, i: usize, c: i128) -> Self {
        let n = self.dim();
        self.constrain(Constraint::ge0(
            LinExpr::var(n, i).sub(&LinExpr::constant(n, c)),
        ))
    }

    /// Convenience builder: dimension `i < p` for a parameter `p`.
    pub fn lt_param(self, i: usize, p: &str) -> Self {
        let n = self.dim();
        self.constrain(Constraint::ge0(
            LinExpr::param(n, p)
                .sub(&LinExpr::var(n, i))
                .sub(&LinExpr::constant(n, 1)),
        ))
    }

    /// Convenience builder: dimension `i ≤ dimension j`.
    pub fn le_var(self, i: usize, j: usize) -> Self {
        let n = self.dim();
        self.constrain(Constraint::ge0(LinExpr::var(n, j).sub(&LinExpr::var(n, i))))
    }

    /// Convenience builder: fixes dimension `i` to the parameter `p`
    /// (the loop-parametrization operation of Sec. 4.3).
    pub fn fix_dim_to_param(self, i: usize, p: &str) -> Self {
        let n = self.dim();
        self.constrain(Constraint::eq(
            LinExpr::var(n, i).sub(&LinExpr::param(n, p)),
        ))
    }

    /// Convenience builder: fixes dimension `i` to a constant.
    pub fn fix_dim(self, i: usize, c: i128) -> Self {
        let n = self.dim();
        self.constrain(Constraint::eq(
            LinExpr::var(n, i).sub(&LinExpr::constant(n, c)),
        ))
    }

    /// Renames a parameter throughout the constraints.
    pub fn rename_param(&self, from: &str, to: &str) -> BasicSet {
        BasicSet {
            space: self.space.clone(),
            constraints: self
                .constraints
                .iter()
                .map(|c| Constraint {
                    expr: c.expr.rename_param(from, to),
                    kind: c.kind,
                })
                .collect(),
        }
    }

    /// Adds a parameter-only constraint (arity 0) as an assumption on the set.
    pub fn constrain_params(&self, c: &Constraint) -> BasicSet {
        assert_eq!(c.expr.num_vars(), 0, "expected a parameter-only constraint");
        let lifted = Constraint {
            expr: c.expr.remap_vars(self.dim(), &[]),
            kind: c.kind,
        };
        self.clone().constrain(lifted)
    }

    /// Returns true if the set has no rational point for any parameter value
    /// (and therefore no integer point).
    pub fn is_empty(&self) -> bool {
        if self.constraints.iter().any(|c| c.is_trivially_false()) {
            return true;
        }
        crate::engine::EngineCtx::with_current(|e| {
            !fm::is_feasible_in(e, &self.constraints, self.dim())
        })
    }

    /// Checks membership of a concrete point under concrete parameter values.
    pub fn contains(&self, point: &[i128], params: &[(&str, i128)]) -> bool {
        assert_eq!(point.len(), self.dim(), "point arity mismatch");
        let env: BTreeMap<String, i128> = params.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        self.constraints.iter().all(|c| c.holds(point, &env))
    }

    /// Intersection with a compatible set (dimension names of `self` win).
    ///
    /// # Panics
    ///
    /// Panics if the spaces are incompatible.
    pub fn intersect(&self, other: &BasicSet) -> BasicSet {
        assert!(
            self.space.compatible(other.space()),
            "intersecting incompatible spaces {} and {}",
            self.space,
            other.space()
        );
        let mut constraints = self.constraints.clone();
        constraints.extend(other.constraints.iter().cloned());
        BasicSet {
            space: self.space.clone(),
            constraints,
        }
    }

    /// Set difference `self ∖ other`, returned as a union of disjoint basic
    /// sets (the standard "first i constraints hold, constraint i is
    /// violated" decomposition).
    ///
    /// Disjoint operands short-circuit: when `self ∩ other` is empty the
    /// result is `self`, established by a single feasibility query instead of
    /// one per subtrahend constraint. This is what keeps the cascaded
    /// subtraction in [`Set::subtract`] near-linear in practice — after the
    /// first split, most fragments are disjoint from every later subtrahend
    /// piece, and without the short-circuit the decomposition re-splits (and
    /// emptiness-tests) each of them per piece.
    pub fn subtract(&self, other: &BasicSet) -> Set {
        assert!(
            self.space.compatible(other.space()),
            "subtracting incompatible spaces"
        );
        if other.constraints.is_empty() {
            // Subtracting the universe leaves nothing.
            return Set::empty(self.space.clone());
        }
        if self.intersect(other).is_empty() {
            return Set::from_basic_sets(self.space.clone(), vec![self.clone()]);
        }
        let n = self.dim();
        let mut pieces = Vec::new();
        let mut prefix: Vec<Constraint> = Vec::new();
        for c in &other.constraints {
            match c.kind {
                ConstraintKind::Inequality => {
                    // Violation: expr <= -1.
                    let viol = Constraint::ge0(c.expr.scale(-1).add(&LinExpr::constant(n, -1)));
                    let mut cs = self.constraints.clone();
                    cs.extend(prefix.iter().cloned());
                    cs.push(viol);
                    let piece = BasicSet {
                        space: self.space.clone(),
                        constraints: cs,
                    };
                    if !piece.is_empty() {
                        pieces.push(piece);
                    }
                    prefix.push(c.clone());
                }
                ConstraintKind::Equality => {
                    // Violation: expr >= 1 or expr <= -1.
                    for sign in [1i128, -1] {
                        let viol =
                            Constraint::ge0(c.expr.scale(sign).add(&LinExpr::constant(n, -1)));
                        let mut cs = self.constraints.clone();
                        cs.extend(prefix.iter().cloned());
                        cs.push(viol);
                        let piece = BasicSet {
                            space: self.space.clone(),
                            constraints: cs,
                        };
                        if !piece.is_empty() {
                            pieces.push(piece);
                        }
                    }
                    prefix.push(c.clone());
                }
            }
        }
        Set::from_basic_sets(self.space.clone(), pieces)
    }

    /// Returns true if `self ⊆ other` (conservative: may return `false` for
    /// sets that are in fact included when integer reasoning would be needed).
    pub fn is_subset(&self, other: &BasicSet) -> bool {
        other.constraints.iter().all(|c| {
            crate::engine::EngineCtx::with_current(|e| {
                fm::implies_in(e, &self.constraints, self.dim(), c)
            })
        })
    }

    /// Projects out dimension `idx`, returning a set over the remaining
    /// dimensions.
    pub fn project_out(&self, idx: usize) -> BasicSet {
        let constraints = crate::engine::EngineCtx::with_current(|e| {
            fm::eliminate_var_in(e, &self.constraints, idx)
        });
        let mut dims: Vec<String> = self.space.dims().to_vec();
        dims.remove(idx);
        BasicSet {
            space: Space::from_names(self.space.name().to_string(), dims),
            constraints,
        }
    }

    /// The effective (intrinsic) dimension of the set: the space dimension
    /// minus the number of independent equality constraints binding the
    /// variables.
    pub fn intrinsic_dim(&self) -> usize {
        use iolb_math::{Matrix, Rational};
        let eqs: Vec<Vec<Rational>> = self
            .constraints
            .iter()
            .filter(|c| c.kind == ConstraintKind::Equality)
            .map(|c| {
                c.expr
                    .var_coeffs
                    .iter()
                    .map(|&x| Rational::from_int(x))
                    .collect()
            })
            .collect();
        if eqs.is_empty() {
            return self.dim();
        }
        let rank = Matrix::from_rows(&eqs).rank();
        self.dim().saturating_sub(rank)
    }

    /// Renames the underlying space tuple (constraints are untouched).
    pub fn with_space(&self, space: Space) -> BasicSet {
        assert_eq!(space.dim(), self.dim(), "space dimension mismatch");
        BasicSet {
            space,
            constraints: self.constraints.clone(),
        }
    }

    /// Converts to a (singleton) union set.
    pub fn to_set(&self) -> Set {
        Set::from_basic_sets(self.space.clone(), vec![self.clone()])
    }

    /// Enumerates all integer points for concrete parameter values, in
    /// ascending lexicographic order, through the concrete scanner
    /// ([`crate::scan`]). `bound` boxes every dimension into
    /// `[-bound, bound]`; points outside the box are not returned.
    ///
    /// # Panics
    ///
    /// Panics if a constraint mentions a parameter missing from `params`,
    /// or if the boxed system cannot be planned (a projection overflows
    /// `i128` or outgrows the scanner's row budget).
    pub fn enumerate(&self, params: &[(&str, i128)], bound: i128) -> Vec<Vec<i128>> {
        let n = self.dim();
        let mut rows = scan::instantiate(&self.constraints, params)
            .unwrap_or_else(|e| panic!("cannot enumerate {self}: {e}"));
        for d in 0..n {
            for sign in [1, -1] {
                let mut coeffs = vec![0; n];
                coeffs[d] = sign;
                rows.push(scan::Row {
                    coeffs,
                    constant: bound,
                    kind: ConstraintKind::Inequality,
                });
            }
        }
        ScanPlan::new(rows, n)
            .unwrap_or_else(|e| panic!("cannot enumerate {self}: {e}"))
            .points(&[])
    }
}

impl fmt::Display for BasicSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ {} : ", self.space)?;
        if self.constraints.is_empty() {
            write!(f, "true")?;
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{}", c.display_with(self.space.dims()))?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineCtx;

    fn triangle() -> BasicSet {
        // { S[i, j] : 0 <= i < N, 0 <= j <= i }
        BasicSet::universe(Space::new("S", &["i", "j"]))
            .ge0_var(0)
            .lt_param(0, "N")
            .ge0_var(1)
            .le_var(1, 0)
    }

    #[test]
    fn membership() {
        let _session = EngineCtx::new().enter();
        let t = triangle();
        assert!(t.contains(&[4, 4], &[("N", 5)]));
        assert!(!t.contains(&[4, 5], &[("N", 5)]));
        assert!(!t.contains(&[5, 0], &[("N", 5)]));
    }

    #[test]
    fn emptiness() {
        let _session = EngineCtx::new().enter();
        let t = triangle();
        assert!(!t.is_empty());
        let empty = t.clone().constrain(Constraint::ge0(
            LinExpr::var(2, 1)
                .sub(&LinExpr::var(2, 0))
                .sub(&LinExpr::constant(2, 1)),
        ));
        assert!(empty.is_empty());
    }

    #[test]
    fn intersection() {
        let _session = EngineCtx::new().enter();
        let t = triangle();
        let diag = BasicSet::universe(Space::new("S", &["i", "j"]))
            .constrain(Constraint::eq(LinExpr::var(2, 0).sub(&LinExpr::var(2, 1))));
        let i = t.intersect(&diag);
        assert!(i.contains(&[3, 3], &[("N", 5)]));
        assert!(!i.contains(&[3, 2], &[("N", 5)]));
    }

    #[test]
    fn subtraction_splits() {
        let _session = EngineCtx::new().enter();
        // Remove the diagonal band j >= i from the triangle: leaves j < i.
        let t = triangle();
        let upper = BasicSet::universe(Space::new("S", &["i", "j"]))
            .constrain(Constraint::ge0(LinExpr::var(2, 1).sub(&LinExpr::var(2, 0))));
        let diff = t.subtract(&upper);
        assert!(!diff.is_empty());
        assert!(diff.contains(&[4, 2], &[("N", 5)]));
        assert!(!diff.contains(&[4, 4], &[("N", 5)]));
    }

    #[test]
    fn subtracting_universe_gives_empty() {
        let _session = EngineCtx::new().enter();
        let t = triangle();
        let u = BasicSet::universe(Space::new("S", &["i", "j"]));
        assert!(t.subtract(&u).is_empty());
    }

    #[test]
    fn subset_checks() {
        let _session = EngineCtx::new().enter();
        let t = triangle();
        let smaller = triangle().ge_const(0, 1);
        assert!(smaller.is_subset(&t));
        assert!(!t.is_subset(&smaller));
    }

    #[test]
    fn projection() {
        let _session = EngineCtx::new().enter();
        let t = triangle();
        let p = t.project_out(1);
        assert_eq!(p.dim(), 1);
        assert!(p.contains(&[0], &[("N", 5)]));
        assert!(p.contains(&[4], &[("N", 5)]));
        assert!(!p.contains(&[5], &[("N", 5)]));
    }

    #[test]
    fn fixing_dimensions() {
        let _session = EngineCtx::new().enter();
        let t = triangle().fix_dim_to_param(0, "Omega");
        assert!(t.contains(&[3, 1], &[("N", 5), ("Omega", 3)]));
        assert!(!t.contains(&[2, 1], &[("N", 5), ("Omega", 3)]));
        let f = triangle().fix_dim(0, 2);
        assert!(f.contains(&[2, 1], &[("N", 5)]));
        assert!(!f.contains(&[3, 1], &[("N", 5)]));
    }

    #[test]
    fn intrinsic_dimension() {
        let _session = EngineCtx::new().enter();
        let t = triangle();
        assert_eq!(t.intrinsic_dim(), 2);
        let line = t.clone().fix_dim(0, 3);
        assert_eq!(line.intrinsic_dim(), 1);
        let point = t.fix_dim(0, 3).fix_dim(1, 1);
        assert_eq!(point.intrinsic_dim(), 0);
    }

    #[test]
    fn enumeration_matches_cardinality() {
        let _session = EngineCtx::new().enter();
        let t = triangle();
        let pts = t.enumerate(&[("N", 4)], 10);
        assert_eq!(pts.len(), 10); // 1 + 2 + 3 + 4
    }

    #[test]
    fn display_is_readable() {
        let _session = EngineCtx::new().enter();
        let t = triangle();
        let s = t.to_string();
        assert!(s.contains("S[i, j]"));
        assert!(s.contains(">= 0"));
    }
}
