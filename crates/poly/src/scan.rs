//! Concrete-instance scanning: the one enumerator of integer points at fixed
//! parameter values.
//!
//! Every consumer that needs the points of a set at a concrete instance —
//! [`crate::BasicSet::enumerate`] (and through it the explicit CDAG), the
//! tightness trace walker's domains and its producer search — goes through
//! a [`ScanPlan`]:
//!
//! 1. [`instantiate`] folds the parameter values into integer [`Row`]s once;
//! 2. [`ScanPlan::new`] derives exact per-depth loop bounds by
//!    Fourier–Motzkin projection of those concrete rows, innermost dimension
//!    first, so depth `d`'s bounds mention only the dimensions before it and
//!    the fixed suffix;
//! 3. [`ScanPlan::scan`] walks the points in ascending lexicographic order,
//!    evaluating only the bound rows of each depth.
//!
//! Each row is checked exactly at the depth of its innermost dimension;
//! derived rows only tighten the ranges, so the plan yields exactly the
//! integer points of the system. A plan may leave a trailing block of
//! dimensions *fixed* (bound per call to [`ScanPlan::scan`]): this is how the
//! producers related to one consumer point are enumerated.
//!
//! All of this is plain integer arithmetic outside the engine session: no
//! cache entries, operation counters or budget charges.

use crate::affine::{Constraint, ConstraintKind};
use crate::engine::EngineCtx;
use iolb_math::gcd;
use std::collections::HashMap;
use std::fmt;

/// Largest system a projection may produce before planning gives up.
const MAX_ROWS: usize = 1 << 14;

/// A concrete integer constraint `coeffs · x + constant (= | ≥) 0`, with
/// every parameter already folded into the constant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Row {
    /// One coefficient per variable.
    pub coeffs: Vec<i128>,
    /// Constant term.
    pub constant: i128,
    /// Equality or inequality.
    pub kind: ConstraintKind,
}

impl Row {
    /// The row's affine value at `vals` (which may extend past the row's
    /// variables; extra entries are ignored).
    #[inline]
    pub fn eval(&self, vals: &[i128]) -> i128 {
        self.coeffs
            .iter()
            .zip(vals)
            .fold(self.constant, |acc, (&c, &v)| acc + c * v)
    }

    /// Whether the row holds at `vals`.
    #[inline]
    pub fn holds(&self, vals: &[i128]) -> bool {
        let v = self.eval(vals);
        match self.kind {
            ConstraintKind::Equality => v == 0,
            ConstraintKind::Inequality => v >= 0,
        }
    }
}

/// Why a concrete system cannot be planned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanError {
    /// A constraint mentions a parameter with no value.
    MissingParam(String),
    /// A scanned dimension has no lower or no upper bound.
    Unbounded {
        /// The offending dimension.
        dim: usize,
    },
    /// A projection outgrew the row budget.
    TooComplex,
    /// Folding parameters or projecting overflowed `i128`.
    Overflow,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::MissingParam(p) => write!(f, "parameter `{p}` has no value"),
            ScanError::Unbounded { dim } => write!(f, "dimension {dim} is unbounded"),
            ScanError::TooComplex => {
                write!(f, "projection exceeds {MAX_ROWS} constraints")
            }
            ScanError::Overflow => write!(f, "integer overflow in a constraint row"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Folds concrete parameter values into a constraint system, producing one
/// integer row per constraint. Parameter names resolve in the **ambient**
/// session (the one the constraints were built in).
pub fn instantiate(
    constraints: &[Constraint],
    params: &[(&str, i128)],
) -> Result<Vec<Row>, ScanError> {
    EngineCtx::with_current(|engine| {
        let mut values: HashMap<crate::interner::ParamId, i128> = HashMap::new();
        constraints
            .iter()
            .map(|c| {
                let mut constant = c.expr.constant;
                for &(id, k) in &c.expr.param_coeffs {
                    let v = match values.get(&id) {
                        Some(&v) => v,
                        None => {
                            let name = engine.resolve(id);
                            let v = params
                                .iter()
                                .find(|(p, _)| *p == &*name)
                                .map(|&(_, v)| v)
                                .ok_or_else(|| ScanError::MissingParam(name.to_string()))?;
                            values.insert(id, v);
                            v
                        }
                    };
                    constant = k
                        .checked_mul(v)
                        .and_then(|kv| constant.checked_add(kv))
                        .ok_or(ScanError::Overflow)?;
                }
                Ok(Row {
                    coeffs: c.expr.var_coeffs.clone(),
                    constant,
                    kind: c.kind,
                })
            })
            .collect()
    })
}

/// Integer-normalises a concrete system (each row divided by the gcd of its
/// coefficients, tautologies dropped, parallel inequalities reduced to the
/// tightest, equalities signed canonically). `None` when some row is
/// contradictory on the integers.
pub fn simplify(rows: impl IntoIterator<Item = Row>) -> Option<Vec<Row>> {
    let sys = System::from_rows(rows);
    (!sys.empty).then_some(sys.rows)
}

/// `⌊a / b⌋` for `b > 0`.
#[inline]
fn floor_div(a: i128, b: i128) -> i128 {
    a.div_euclid(b)
}

/// `⌈a / b⌉` for `b > 0`.
#[inline]
fn ceil_div(a: i128, b: i128) -> i128 {
    -(-a).div_euclid(b)
}

/// A deduplicated, gcd-normalised concrete system. `empty` records a
/// contradiction found while normalising (the system has no integer point).
#[derive(Default)]
struct System {
    rows: Vec<Row>,
    index: HashMap<(Vec<i128>, bool), usize>,
    empty: bool,
}

impl System {
    fn from_rows(rows: impl IntoIterator<Item = Row>) -> System {
        let mut sys = System::default();
        for r in rows {
            sys.push(r);
        }
        sys
    }

    /// Adds a row after integer normalisation: divides by the gcd of the
    /// coefficients (flooring an inequality's constant, which is exact on
    /// the integers), drops tautologies, records contradictions, and keeps
    /// only the tightest of parallel inequalities.
    fn push(&mut self, mut row: Row) {
        if self.empty {
            return;
        }
        let g = row.coeffs.iter().fold(0, |g, &c| gcd(g, c));
        let eq = row.kind == ConstraintKind::Equality;
        if g == 0 {
            let holds = if eq {
                row.constant == 0
            } else {
                row.constant >= 0
            };
            if !holds {
                self.empty = true;
            }
            return;
        }
        if g > 1 {
            if eq && row.constant % g != 0 {
                self.empty = true;
                return;
            }
            for c in row.coeffs.iter_mut() {
                *c /= g;
            }
            row.constant = floor_div(row.constant, g);
        }
        if eq && row.coeffs.iter().find(|&&c| c != 0).is_some_and(|&c| c < 0) {
            for c in row.coeffs.iter_mut() {
                *c = -*c;
            }
            row.constant = -row.constant;
        }
        match self.index.get(&(row.coeffs.clone(), eq)) {
            Some(&i) => {
                let old = &mut self.rows[i];
                if eq {
                    if old.constant != row.constant {
                        self.empty = true;
                    }
                } else if row.constant < old.constant {
                    old.constant = row.constant;
                }
            }
            None => {
                self.index.insert((row.coeffs.clone(), eq), self.rows.len());
                self.rows.push(row);
            }
        }
    }

    /// Projects variable `k` out (its column stays, zeroed): substitution
    /// through an equality when one mentions `k`, otherwise the
    /// Fourier–Motzkin cross product of its lower and upper bounds.
    fn eliminate(&self, k: usize) -> Result<System, ScanError> {
        if self.empty {
            return Ok(System {
                empty: true,
                ..System::default()
            });
        }
        let pivot = self
            .rows
            .iter()
            .filter(|r| r.kind == ConstraintKind::Equality && r.coeffs[k] != 0)
            .min_by_key(|r| r.coeffs[k].abs());
        let mut out = System::default();
        if let Some(e) = pivot {
            let a = e.coeffs[k];
            for r in &self.rows {
                let b = r.coeffs[k];
                if std::ptr::eq(r, e) {
                    continue;
                }
                if b == 0 {
                    out.push(r.clone());
                    continue;
                }
                // Equality: a·r − b·e. Inequality: |a|·r − sgn(a)·b·e, so the
                // row keeps its direction.
                let (kr, ke) = match r.kind {
                    ConstraintKind::Equality => (a, -b),
                    ConstraintKind::Inequality => (a.abs(), -a.signum() * b),
                };
                out.push(combine(r, kr, e, ke)?);
            }
        } else {
            let mut lower = Vec::new();
            let mut upper = Vec::new();
            for r in &self.rows {
                match r.coeffs[k].signum() {
                    0 => out.push(r.clone()),
                    1 => lower.push(r),
                    _ => upper.push(r),
                }
            }
            if out.rows.len() + lower.len() * upper.len() > MAX_ROWS {
                return Err(ScanError::TooComplex);
            }
            for l in &lower {
                for u in &upper {
                    out.push(combine(l, -u.coeffs[k], u, l.coeffs[k])?);
                }
            }
        }
        Ok(out)
    }
}

/// `ka·a + kb·b` as an inequality unless both inputs are equalities.
fn combine(a: &Row, ka: i128, b: &Row, kb: i128) -> Result<Row, ScanError> {
    let lin = |x: i128, y: i128| {
        ka.checked_mul(x)
            .zip(kb.checked_mul(y))
            .and_then(|(p, q)| p.checked_add(q))
            .ok_or(ScanError::Overflow)
    };
    let kind = if a.kind == ConstraintKind::Equality && b.kind == ConstraintKind::Equality {
        ConstraintKind::Equality
    } else {
        ConstraintKind::Inequality
    };
    Ok(Row {
        coeffs: a
            .coeffs
            .iter()
            .zip(&b.coeffs)
            .map(|(&x, &y)| lin(x, y))
            .collect::<Result<_, _>>()?,
        constant: lin(a.constant, b.constant)?,
        kind,
    })
}

/// Narrows `[lo, hi]` by one row `coeff · x + rest (= | ≥) 0` with
/// `coeff ≠ 0` (`rest` already evaluated).
#[inline]
fn tighten(coeff: i128, rest: i128, kind: ConstraintKind, lo: &mut i128, hi: &mut i128) {
    let eq = kind == ConstraintKind::Equality;
    // x (≥ | ≤ | =) num / den with den > 0.
    let (num, den) = if coeff > 0 {
        (-rest, coeff)
    } else {
        (rest, -coeff)
    };
    if den == 1 {
        if coeff > 0 || eq {
            *lo = (*lo).max(num);
        }
        if coeff < 0 || eq {
            *hi = (*hi).min(num);
        }
        return;
    }
    if coeff > 0 || eq {
        *lo = (*lo).max(ceil_div(num, den));
    }
    if coeff < 0 || eq {
        *hi = (*hi).min(floor_div(num, den));
    }
}

/// One bound row of a depth: `coeff · x_d + Σ terms + constant (= | ≥) 0`
/// with `coeff ≠ 0`, where `terms` index earlier dimensions and the fixed
/// suffix.
#[derive(Clone, Debug)]
struct Bound {
    coeff: i128,
    terms: Vec<(usize, i128)>,
    constant: i128,
    kind: ConstraintKind,
}

/// The compiled bounds of one depth.
#[derive(Clone, Debug, Default)]
struct Level {
    bounds: Vec<Bound>,
}

impl Level {
    /// The integer range `[lo, hi]` of this depth's dimension given the
    /// earlier dimensions and the fixed suffix in `vals` (empty when
    /// `lo > hi`).
    #[inline]
    fn range(&self, vals: &[i128]) -> (i128, i128) {
        let (mut lo, mut hi) = (i128::MIN, i128::MAX);
        for b in &self.bounds {
            let rest = b
                .terms
                .iter()
                .fold(b.constant, |acc, &(i, c)| acc + c * vals[i]);
            tighten(b.coeff, rest, b.kind, &mut lo, &mut hi);
        }
        (lo, hi)
    }
}

/// A compiled scan of the integer points of a concrete system (see the
/// module docs). Variables `0..dims` are scanned; the remaining variables
/// form the fixed suffix supplied to each [`ScanPlan::scan`].
#[derive(Clone, Debug)]
pub struct ScanPlan {
    dims: usize,
    fixed: usize,
    levels: Vec<Level>,
    /// Rows over the fixed suffix only, checked once per scan.
    guard: Vec<Row>,
    /// No integer point for any fixed suffix.
    empty: bool,
}

impl ScanPlan {
    /// Compiles `rows` (all of one arity `dims + fixed`) into a scan of the
    /// first `dims` variables. Fails when a scanned dimension is unbounded
    /// (and the system is not empty) or a projection blows up.
    pub fn new(rows: Vec<Row>, dims: usize) -> Result<ScanPlan, ScanError> {
        let arity = rows.first().map_or(dims, |r| r.coeffs.len());
        assert!(dims <= arity, "scanned dimensions exceed the row arity");
        for r in &rows {
            assert_eq!(r.coeffs.len(), arity, "row arity mismatch");
        }
        let mut sys = System::from_rows(rows);
        let mut levels = vec![Level::default(); dims];
        let mut unbounded = None;
        for d in (0..dims).rev() {
            if sys.empty {
                break;
            }
            let mut has = (false, false);
            for r in sys.rows.iter().filter(|r| r.coeffs[d] != 0) {
                let eq = r.kind == ConstraintKind::Equality;
                has.0 |= eq || r.coeffs[d] > 0;
                has.1 |= eq || r.coeffs[d] < 0;
                levels[d].bounds.push(Bound {
                    coeff: r.coeffs[d],
                    terms: r.coeffs[..d]
                        .iter()
                        .chain(&r.coeffs[dims..])
                        .enumerate()
                        .filter(|(_, &c)| c != 0)
                        .map(|(i, &c)| (if i < d { i } else { dims + i - d }, c))
                        .collect(),
                    constant: r.constant,
                    kind: r.kind,
                });
            }
            if !(has.0 && has.1) {
                unbounded = Some(d);
            }
            sys = sys.eliminate(d)?;
        }
        if let Some(dim) = unbounded {
            // An unbounded dimension is an error only in a non-empty system.
            for k in dims..arity {
                sys = sys.eliminate(k)?;
            }
            if !sys.empty {
                return Err(ScanError::Unbounded { dim });
            }
        }
        Ok(ScanPlan {
            dims,
            fixed: arity - dims,
            levels,
            guard: sys.rows,
            empty: sys.empty,
        })
    }

    /// Visits every integer point (the scanned coordinates only) for the
    /// given fixed suffix, in ascending lexicographic order. `buf` is
    /// scratch space reused across calls. The visitor returns `false` to
    /// stop early; `scan` returns `false` iff it was stopped.
    pub fn scan(
        &self,
        fixed: &[i128],
        buf: &mut Vec<i128>,
        mut visit: impl FnMut(&[i128]) -> bool,
    ) -> bool {
        assert_eq!(fixed.len(), self.fixed, "fixed suffix arity mismatch");
        if self.empty {
            return true;
        }
        let n = self.dims;
        let hi_at = n + self.fixed;
        buf.clear();
        buf.resize(n, 0);
        buf.extend_from_slice(fixed);
        buf.resize(hi_at + n, 0);
        if !self.guard.iter().all(|r| r.holds(&buf[..hi_at])) {
            return true;
        }
        if n == 0 {
            return visit(&[]);
        }
        let (lo, hi) = self.levels[0].range(buf);
        buf[0] = lo;
        buf[hi_at] = hi;
        let mut d = 0;
        loop {
            if buf[d] > buf[hi_at + d] {
                if d == 0 {
                    return true;
                }
                d -= 1;
                buf[d] += 1;
                continue;
            }
            if d + 1 == n {
                if !visit(&buf[..n]) {
                    return false;
                }
                buf[d] += 1;
                continue;
            }
            d += 1;
            let (lo, hi) = self.levels[d].range(buf);
            buf[d] = lo;
            buf[hi_at + d] = hi;
        }
    }

    /// Collects every point for the given fixed suffix.
    pub fn points(&self, fixed: &[i128]) -> Vec<Vec<i128>> {
        let mut out = Vec::new();
        self.scan(fixed, &mut Vec::new(), |p| {
            out.push(p.to_vec());
            true
        });
        out
    }
}

/// The integer bounding box of the first `dims` variables of a concrete
/// system (every other variable projected out): `Ok(None)` when the system
/// has no point, [`ScanError::Unbounded`] when some variable has no lower or
/// no upper bound.
pub fn bounding_box(rows: &[Row], dims: usize) -> Result<Option<Vec<(i128, i128)>>, ScanError> {
    let arity = rows.first().map_or(dims, |r| r.coeffs.len());
    let mut out = Vec::with_capacity(dims);
    for v in 0..dims {
        let mut sys = System::from_rows(rows.iter().cloned());
        for k in (0..arity).filter(|&k| k != v) {
            sys = sys.eliminate(k)?;
        }
        if sys.empty {
            return Ok(None);
        }
        let (mut lo, mut hi) = (i128::MIN, i128::MAX);
        for r in &sys.rows {
            tighten(r.coeffs[v], r.constant, r.kind, &mut lo, &mut hi);
        }
        if lo == i128::MIN || hi == i128::MAX {
            return Err(ScanError::Unbounded { dim: v });
        }
        if lo > hi {
            return Ok(None);
        }
        out.push((lo, hi));
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_set;

    fn rows(set: &str, params: &[(&str, i128)]) -> Vec<Row> {
        instantiate(parse_set(set).unwrap().constraints(), params).unwrap()
    }

    #[test]
    fn exact_bounds_follow_parameter_coefficients() {
        let _session = EngineCtx::new().enter();
        let r = rows("[N] -> { S[i] : 0 <= i < 2*N }", &[("N", 16)]);
        let points = ScanPlan::new(r, 1).unwrap().points(&[]);
        assert_eq!(points.len(), 32);
        assert_eq!(points.last(), Some(&vec![31]));
    }

    #[test]
    fn triangle_scans_lexicographically() {
        let _session = EngineCtx::new().enter();
        let r = rows(
            "[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }",
            &[("N", 3)],
        );
        let points = ScanPlan::new(r.clone(), 2).unwrap().points(&[]);
        let want: Vec<Vec<i128>> = vec![
            vec![0, 0],
            vec![1, 0],
            vec![1, 1],
            vec![2, 0],
            vec![2, 1],
            vec![2, 2],
        ];
        assert_eq!(points, want);
        assert_eq!(bounding_box(&r, 2), Ok(Some(vec![(0, 2), (0, 2)])));
    }

    #[test]
    fn unbounded_dimensions_are_errors_unless_the_set_is_empty() {
        let _session = EngineCtx::new().enter();
        let open = rows("{ S[i, j] : i >= 0 and 0 <= j < 4 }", &[]);
        assert_eq!(
            ScanPlan::new(open.clone(), 2).unwrap_err(),
            ScanError::Unbounded { dim: 0 }
        );
        assert_eq!(bounding_box(&open, 2), Err(ScanError::Unbounded { dim: 0 }));

        let empty = rows("{ S[i, j] : i >= 5 and i <= 3 }", &[]);
        let plan = ScanPlan::new(empty.clone(), 2).unwrap();
        assert!(plan.empty);
        assert!(plan.points(&[]).is_empty());
        assert_eq!(bounding_box(&empty, 2), Ok(None));
    }

    #[test]
    fn integer_infeasible_equalities_are_empty() {
        let _session = EngineCtx::new().enter();
        let r = rows("{ S[i] : 2*i = 3 and 0 <= i <= 10 }", &[]);
        assert!(ScanPlan::new(r, 1).unwrap().empty);
        let odd = rows("{ S[i, j] : i = 2*j + 1 and 0 <= i < 7 }", &[]);
        let points = ScanPlan::new(odd, 2).unwrap().points(&[]);
        assert_eq!(points, vec![vec![1, 0], vec![3, 1], vec![5, 2]]);
    }

    #[test]
    fn fixed_suffix_binds_trailing_dimensions() {
        let _session = EngineCtx::new().enter();
        // Producers p with c - 2 <= p <= c for a fixed consumer c, p >= 0.
        let r = rows("{ S[p, c] : p >= 0 and c - 2 <= p <= c }", &[]);
        let plan = ScanPlan::new(r, 1).unwrap();
        assert_eq!(plan.points(&[1]), vec![vec![0], vec![1]]);
        assert_eq!(plan.points(&[5]), vec![vec![3], vec![4], vec![5]]);
        assert!(plan.points(&[-1]).is_empty());
    }

    #[test]
    fn missing_parameters_are_reported_by_name() {
        let _session = EngineCtx::new().enter();
        let set = parse_set("[N] -> { S[i] : 0 <= i < N }").unwrap();
        assert_eq!(
            instantiate(set.constraints(), &[]),
            Err(ScanError::MissingParam("N".to_string()))
        );
    }

    #[test]
    fn scans_stop_when_the_visitor_says_so() {
        let _session = EngineCtx::new().enter();
        let r = rows("{ S[i] : 0 <= i < 100 }", &[]);
        let plan = ScanPlan::new(r, 1).unwrap();
        let mut seen = 0;
        assert!(!plan.scan(&[], &mut Vec::new(), |_| {
            seen += 1;
            seen < 5
        }));
        assert_eq!(seen, 5);
    }
}
