//! Integer affine expressions and constraints over set/map dimensions and
//! symbolic parameters.
//!
//! Parameter names are interned into the engine session (see
//! [`crate::interner`] and [`crate::engine::EngineCtx`]); an expression's
//! parameter part is a compact `Vec<(ParamId, i128)>` sorted by id, so the
//! hot-path operations (add, scale, gcd-normalisation) are allocation-light
//! two-pointer merges over compact keys instead of `BTreeMap<String, _>`
//! walks. Name-based conveniences ([`LinExpr::param`],
//! [`LinExpr::param_coeff`], …) resolve the **ambient** session; the `_in`
//! variants take the session explicitly. An expression is bound to the
//! session whose ids it embeds — build and query it under the same session.

use crate::engine::EngineCtx;
use crate::interner::ParamId;
use std::collections::BTreeMap;
use std::fmt;

/// An integer affine expression
/// `Σ_i var_coeffs[i]·x_i + Σ_p param_coeffs[p]·p + constant`
/// over a fixed number of (anonymous, position-indexed) variables and named
/// program parameters.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LinExpr {
    /// Coefficients of the (positional) variables.
    pub var_coeffs: Vec<i128>,
    /// Coefficients of interned parameters: only non-zero entries are stored,
    /// sorted by [`ParamId`]. Maintain both invariants when mutating directly
    /// (or use [`LinExpr::set_param_coeff`] / [`LinExpr::clear_param`]).
    pub param_coeffs: Vec<(ParamId, i128)>,
    /// Constant term.
    pub constant: i128,
}

/// Merges two sorted coefficient lists as `ka·a + kb·b`, dropping zero
/// entries (the single-allocation kernel under [`LinExpr::add_scaled`] and
/// the Fourier–Motzkin combination step).
pub(crate) fn merge_params_scaled(
    a: &[(ParamId, i128)],
    ka: i128,
    b: &[(ParamId, i128)],
    kb: i128,
) -> Vec<(ParamId, i128)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (pa, ca) = a[i];
        let (pb, cb) = b[j];
        match pa.cmp(&pb) {
            std::cmp::Ordering::Less => {
                out.push((pa, ka * ca));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((pb, kb * cb));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((pa, ka * ca + kb * cb));
                i += 1;
                j += 1;
            }
        }
    }
    for &(p, c) in &a[i..] {
        out.push((p, ka * c));
    }
    for &(p, c) in &b[j..] {
        out.push((p, kb * c));
    }
    out.retain(|&(_, c)| c != 0);
    out
}

impl LinExpr {
    /// The zero expression over `nvars` variables.
    pub fn zero(nvars: usize) -> Self {
        LinExpr {
            var_coeffs: vec![0; nvars],
            param_coeffs: Vec::new(),
            constant: 0,
        }
    }

    /// A constant expression.
    pub fn constant(nvars: usize, c: i128) -> Self {
        let mut e = LinExpr::zero(nvars);
        e.constant = c;
        e
    }

    /// The expression `x_i`.
    pub fn var(nvars: usize, i: usize) -> Self {
        let mut e = LinExpr::zero(nvars);
        e.var_coeffs[i] = 1;
        e
    }

    /// The expression `p` for a named parameter, interned in the **ambient**
    /// session.
    pub fn param(nvars: usize, name: &str) -> Self {
        EngineCtx::with_current(|engine| LinExpr::param_in(engine, nvars, name))
    }

    /// The expression `p` for a named parameter, interned in the given
    /// session.
    pub fn param_in(engine: &EngineCtx, nvars: usize, name: &str) -> Self {
        let mut e = LinExpr::zero(nvars);
        e.param_coeffs.push((engine.intern(name), 1));
        e
    }

    /// Number of positional variables the expression ranges over.
    pub fn num_vars(&self) -> usize {
        self.var_coeffs.len()
    }

    /// Coefficient of variable `i`.
    pub fn var_coeff(&self, i: usize) -> i128 {
        self.var_coeffs[i]
    }

    /// Coefficient of a named parameter (resolved in the **ambient**
    /// session).
    pub fn param_coeff(&self, name: &str) -> i128 {
        EngineCtx::with_current(|engine| self.param_coeff_in(engine, name))
    }

    /// Coefficient of a named parameter, resolved in the given session.
    pub fn param_coeff_in(&self, engine: &EngineCtx, name: &str) -> i128 {
        engine
            .lookup(name)
            .map(|id| self.param_coeff_id(id))
            .unwrap_or(0)
    }

    /// Coefficient of an interned parameter.
    pub fn param_coeff_id(&self, id: ParamId) -> i128 {
        match self.param_coeffs.binary_search_by_key(&id, |&(p, _)| p) {
            Ok(i) => self.param_coeffs[i].1,
            Err(_) => 0,
        }
    }

    /// Sets (or clears, when `c == 0`) the coefficient of an interned
    /// parameter, keeping the list sorted.
    pub fn set_param_coeff(&mut self, id: ParamId, c: i128) {
        match self.param_coeffs.binary_search_by_key(&id, |&(p, _)| p) {
            Ok(i) => {
                if c == 0 {
                    self.param_coeffs.remove(i);
                } else {
                    self.param_coeffs[i].1 = c;
                }
            }
            Err(i) => {
                if c != 0 {
                    self.param_coeffs.insert(i, (id, c));
                }
            }
        }
    }

    /// Removes a parameter from the expression (no-op if absent; the name is
    /// resolved in the **ambient** session).
    pub fn clear_param(&mut self, name: &str) {
        if let Some(id) = EngineCtx::with_current(|engine| engine.lookup(name)) {
            self.set_param_coeff(id, 0);
        }
    }

    /// The `(name, coefficient)` pairs of the (non-zero) parameter terms,
    /// sorted by parameter *name* — the deterministic order for display and
    /// conversion to symbolic polynomials. Names resolve in the **ambient**
    /// session.
    pub fn param_terms_by_name(&self) -> Vec<(std::sync::Arc<str>, i128)> {
        EngineCtx::with_current(|engine| self.param_terms_by_name_in(engine))
    }

    /// [`LinExpr::param_terms_by_name`] against an explicit session.
    pub fn param_terms_by_name_in(&self, engine: &EngineCtx) -> Vec<(std::sync::Arc<str>, i128)> {
        let mut out: Vec<(std::sync::Arc<str>, i128)> = self
            .param_coeffs
            .iter()
            .map(|&(id, c)| (engine.resolve(id), c))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Returns true if every coefficient and the constant are zero.
    pub fn is_zero(&self) -> bool {
        self.constant == 0
            && self.var_coeffs.iter().all(|&c| c == 0)
            && self.param_coeffs.iter().all(|&(_, c)| c == 0)
    }

    /// Returns true if no variable appears (parameters and constant only).
    pub fn is_param_only(&self) -> bool {
        self.var_coeffs.iter().all(|&c| c == 0)
    }

    /// Adds another expression (must have the same number of variables).
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, 1)
    }

    /// Subtracts another expression.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, -1)
    }

    /// Computes `self + k·other` in one pass (the fused form the elimination
    /// inner loops use to avoid intermediate allocations).
    pub fn add_scaled(&self, other: &LinExpr, k: i128) -> LinExpr {
        assert_eq!(self.num_vars(), other.num_vars(), "variable arity mismatch");
        let mut var_coeffs = self.var_coeffs.clone();
        for (i, c) in other.var_coeffs.iter().enumerate() {
            var_coeffs[i] += k * c;
        }
        LinExpr {
            var_coeffs,
            param_coeffs: merge_params_scaled(&self.param_coeffs, 1, &other.param_coeffs, k),
            constant: self.constant + k * other.constant,
        }
    }

    /// Computes `ka·a + kb·b` with variable `drop_idx` — whose combined
    /// coefficient must be zero — removed from the variable list, in a single
    /// allocation pass. This is the Fourier–Motzkin combination step.
    pub(crate) fn combine_drop(
        a: &LinExpr,
        ka: i128,
        b: &LinExpr,
        kb: i128,
        drop_idx: usize,
    ) -> LinExpr {
        debug_assert_eq!(a.num_vars(), b.num_vars(), "variable arity mismatch");
        let n = a.var_coeffs.len();
        let mut vc = Vec::with_capacity(n - 1);
        for i in 0..n {
            let c = ka * a.var_coeffs[i] + kb * b.var_coeffs[i];
            if i == drop_idx {
                debug_assert_eq!(c, 0, "combined coefficient of dropped variable");
            } else {
                vc.push(c);
            }
        }
        LinExpr {
            var_coeffs: vc,
            param_coeffs: merge_params_scaled(&a.param_coeffs, ka, &b.param_coeffs, kb),
            constant: ka * a.constant + kb * b.constant,
        }
    }

    /// Multiplies by an integer scalar.
    pub fn scale(&self, k: i128) -> LinExpr {
        if k == 0 {
            return LinExpr::zero(self.num_vars());
        }
        let mut out = self.clone();
        for c in out.var_coeffs.iter_mut() {
            *c *= k;
        }
        for (_, c) in out.param_coeffs.iter_mut() {
            *c *= k;
        }
        out.constant *= k;
        out
    }

    /// Embeds the expression into a wider variable list: variable `i` becomes
    /// variable `mapping[i]` among `new_nvars` variables.
    pub fn remap_vars(&self, new_nvars: usize, mapping: &[usize]) -> LinExpr {
        assert_eq!(mapping.len(), self.num_vars(), "mapping arity mismatch");
        let mut out = LinExpr::zero(new_nvars);
        for (i, &c) in self.var_coeffs.iter().enumerate() {
            if c != 0 {
                out.var_coeffs[mapping[i]] += c;
            }
        }
        out.param_coeffs = self.param_coeffs.clone();
        out.constant = self.constant;
        out
    }

    /// Drops variable `idx` (which must have zero coefficient) from the
    /// positional variable list.
    pub fn drop_var(&self, idx: usize) -> LinExpr {
        assert_eq!(self.var_coeffs[idx], 0, "dropping a used variable");
        let mut vc = self.var_coeffs.clone();
        vc.remove(idx);
        LinExpr {
            var_coeffs: vc,
            param_coeffs: self.param_coeffs.clone(),
            constant: self.constant,
        }
    }

    /// Substitutes variable `idx` by an affine expression over the same
    /// variable list (the substituted variable must not appear in `repl`).
    pub fn substitute_var(&self, idx: usize, repl: &LinExpr) -> LinExpr {
        assert_eq!(self.num_vars(), repl.num_vars(), "variable arity mismatch");
        assert_eq!(repl.var_coeffs[idx], 0, "self-referential substitution");
        let c = self.var_coeffs[idx];
        if c == 0 {
            return self.clone();
        }
        let mut base = self.clone();
        base.var_coeffs[idx] = 0;
        base.add_scaled(repl, c)
    }

    /// Renames a parameter (no-op if the parameter does not occur; names
    /// resolve in the **ambient** session).
    pub fn rename_param(&self, from: &str, to: &str) -> LinExpr {
        EngineCtx::with_current(|engine| {
            let c = self.param_coeff_in(engine, from);
            if c == 0 {
                return self.clone();
            }
            let mut out = self.clone();
            if let Some(from_id) = engine.lookup(from) {
                out.set_param_coeff(from_id, 0);
            }
            let to_id = engine.intern(to);
            out.set_param_coeff(to_id, out.param_coeff_id(to_id) + c);
            out
        })
    }

    /// Evaluates the expression at integer variable values and parameter
    /// values.
    pub fn eval(&self, vars: &[i128], params: &BTreeMap<String, i128>) -> i128 {
        assert_eq!(vars.len(), self.num_vars(), "variable arity mismatch");
        let mut acc = self.constant;
        for (i, &c) in self.var_coeffs.iter().enumerate() {
            acc += c * vars[i];
        }
        EngineCtx::with_current(|engine| {
            for &(id, c) in &self.param_coeffs {
                let p = engine.resolve(id);
                acc += c * params
                    .get(&*p as &str)
                    .copied()
                    .unwrap_or_else(|| panic!("missing parameter {p}"));
            }
        });
        acc
    }

    /// Renders with the given variable names.
    pub fn display_with(&self, var_names: &[String]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, &c) in self.var_coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = var_names.get(i).cloned().unwrap_or_else(|| format!("x{i}"));
            parts.push(render_term(c, &name));
        }
        for (p, c) in self.param_terms_by_name() {
            if c != 0 {
                parts.push(render_term(c, &p));
            }
        }
        if self.constant != 0 || parts.is_empty() {
            parts.push(format!("{:+}", self.constant));
        }
        let joined = parts.join(" ");
        joined.trim_start_matches('+').trim().to_string()
    }
}

fn render_term(c: i128, name: &str) -> String {
    match c {
        1 => format!("+{name}"),
        -1 => format!("-{name}"),
        _ => format!("{c:+}*{name}"),
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.num_vars()).map(|i| format!("x{i}")).collect();
        write!(f, "{}", self.display_with(&names))
    }
}

/// The kind of a constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ConstraintKind {
    /// `expr = 0`
    Equality,
    /// `expr ≥ 0`
    Inequality,
}

/// An affine constraint `expr = 0` or `expr ≥ 0`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Constraint {
    /// The affine expression.
    pub expr: LinExpr,
    /// Equality or inequality.
    pub kind: ConstraintKind,
}

impl Constraint {
    /// Builds `expr = 0`.
    pub fn eq(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Equality,
        }
    }

    /// Builds `expr ≥ 0`.
    pub fn ge0(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Inequality,
        }
    }

    /// Builds `a ≥ b`.
    pub fn ge(a: LinExpr, b: LinExpr) -> Self {
        Constraint::ge0(a.sub(&b))
    }

    /// Builds `a ≤ b`.
    pub fn le(a: LinExpr, b: LinExpr) -> Self {
        Constraint::ge0(b.sub(&a))
    }

    /// Builds `a = b`.
    pub fn equals(a: LinExpr, b: LinExpr) -> Self {
        Constraint::eq(a.sub(&b))
    }

    /// Returns true if the constraint is trivially satisfied (e.g. `3 ≥ 0`).
    pub fn is_trivially_true(&self) -> bool {
        if !self.expr.var_coeffs.iter().all(|&c| c == 0) || !self.expr.param_coeffs.is_empty() {
            return false;
        }
        match self.kind {
            ConstraintKind::Equality => self.expr.constant == 0,
            ConstraintKind::Inequality => self.expr.constant >= 0,
        }
    }

    /// Returns true if the constraint is trivially unsatisfiable (e.g. `-1 ≥ 0`).
    pub fn is_trivially_false(&self) -> bool {
        if !self.expr.var_coeffs.iter().all(|&c| c == 0) || !self.expr.param_coeffs.is_empty() {
            return false;
        }
        match self.kind {
            ConstraintKind::Equality => self.expr.constant != 0,
            ConstraintKind::Inequality => self.expr.constant < 0,
        }
    }

    /// Checks the constraint at a concrete point.
    pub fn holds(&self, vars: &[i128], params: &BTreeMap<String, i128>) -> bool {
        let v = self.expr.eval(vars, params);
        match self.kind {
            ConstraintKind::Equality => v == 0,
            ConstraintKind::Inequality => v >= 0,
        }
    }

    /// Renders with the given variable names.
    pub fn display_with(&self, var_names: &[String]) -> String {
        let op = match self.kind {
            ConstraintKind::Equality => "=",
            ConstraintKind::Inequality => ">=",
        };
        format!("{} {} 0", self.expr.display_with(var_names), op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, i128)]) -> BTreeMap<String, i128> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn construction_and_eval() {
        let _session = EngineCtx::new().enter();
        // 2*x0 - x1 + N - 3
        let e = LinExpr::var(2, 0)
            .scale(2)
            .sub(&LinExpr::var(2, 1))
            .add(&LinExpr::param(2, "N"))
            .add(&LinExpr::constant(2, -3));
        assert_eq!(e.eval(&[5, 1], &params(&[("N", 10)])), 16);
        assert_eq!(e.var_coeff(0), 2);
        assert_eq!(e.param_coeff("N"), 1);
        assert_eq!(e.param_coeff("M"), 0);
    }

    #[test]
    fn scaling_and_zero() {
        let _session = EngineCtx::new().enter();
        let e = LinExpr::var(1, 0).sub(&LinExpr::var(1, 0));
        assert!(e.is_zero());
        let f = LinExpr::param(1, "N").scale(0);
        assert!(f.is_zero());
        assert!(f.param_coeffs.is_empty());
    }

    #[test]
    fn remap_and_drop() {
        // x0 + 2*x1 over 2 vars, remapped into 4 vars at positions 1 and 3.
        let e = LinExpr::var(2, 0).add(&LinExpr::var(2, 1).scale(2));
        let r = e.remap_vars(4, &[1, 3]);
        assert_eq!(r.var_coeffs, vec![0, 1, 0, 2]);
        let d = r.drop_var(0);
        assert_eq!(d.var_coeffs, vec![1, 0, 2]);
    }

    #[test]
    fn substitution() {
        // x0 + x1 with x1 := x0 + 1 gives 2*x0 + 1.
        let e = LinExpr::var(2, 0).add(&LinExpr::var(2, 1));
        let repl = LinExpr::var(2, 0).add(&LinExpr::constant(2, 1));
        let s = e.substitute_var(1, &repl);
        assert_eq!(s.var_coeffs, vec![2, 0]);
        assert_eq!(s.constant, 1);
    }

    #[test]
    fn constraint_checks() {
        let _session = EngineCtx::new().enter();
        let i = LinExpr::var(1, 0);
        let n = LinExpr::param(1, "N");
        // 0 <= i < N as two constraints.
        let lower = Constraint::ge0(i.clone());
        let upper = Constraint::le(i.clone(), n.sub(&LinExpr::constant(1, 1)));
        let p = params(&[("N", 5)]);
        assert!(lower.holds(&[0], &p));
        assert!(upper.holds(&[4], &p));
        assert!(!upper.holds(&[5], &p));
    }

    #[test]
    fn trivial_constraints() {
        let _session = EngineCtx::new().enter();
        assert!(Constraint::ge0(LinExpr::constant(0, 3)).is_trivially_true());
        assert!(Constraint::ge0(LinExpr::constant(0, -1)).is_trivially_false());
        assert!(Constraint::eq(LinExpr::constant(0, 0)).is_trivially_true());
        assert!(Constraint::eq(LinExpr::constant(0, 2)).is_trivially_false());
        assert!(!Constraint::ge0(LinExpr::param(0, "N")).is_trivially_true());
    }

    #[test]
    fn display() {
        let _session = EngineCtx::new().enter();
        let e = LinExpr::var(2, 0)
            .sub(&LinExpr::var(2, 1).scale(2))
            .add(&LinExpr::param(2, "N"))
            .add(&LinExpr::constant(2, -1));
        let names = vec!["i".to_string(), "j".to_string()];
        assert_eq!(e.display_with(&names), "i -2*j +N -1");
    }
}
