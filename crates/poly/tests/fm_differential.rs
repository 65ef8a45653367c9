//! Differential fuzz oracle for the exact Fourier–Motzkin core.
//!
//! Randomly generated affine systems are answered by the engine and by
//! oracles that share none of its elimination code:
//!
//! * the exact-rational simplex ([`iolb_math::LinearProgram`]) decides
//!   rational feasibility, and entailment of `e ≥ 0` as infeasibility of
//!   `rest ∧ e ≤ −1` — the engine's own definition of both queries, with
//!   parameters treated as free (existential) columns;
//! * brute-force enumeration of integer points at concrete parameter values
//!   checks every symbolic cardinality the engine reports;
//! * a simplex replay of the one-at-a-time sweep checks every bound that
//!   `redundancy::drop_redundant_bounds_in` drops or keeps.
//!
//! Each generated system is a session-independent *spec* (plain coefficient
//! tuples): the oracles read the spec, and the engine reads the spec
//! materialized inside its session. The generator is the same deterministic
//! xorshift used by `interned_semantics.rs` (the workspace depends on no
//! external crates).

use iolb_math::{LinearConstraint, LinearProgram, LpResult, Rational};
use iolb_poly::{count, fm, redundancy, BasicSet, Constraint, Context, EngineCtx, LinExpr, Space};
use std::collections::BTreeMap;

/// Deterministic xorshift generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.next() % (hi - lo + 1) as u64) as i128
    }
}

const PARAMS: [&str; 3] = ["N", "M", "S"];
const ROUNDS: usize = 256;

/// A session-independent constraint description: variable coefficients, one
/// optional parameter term, a constant, and the equality flag.
#[derive(Clone, Debug, PartialEq)]
struct ConstraintSpec {
    var_coeffs: Vec<i128>,
    param: Option<(usize, i128)>,
    constant: i128,
    equality: bool,
}

impl ConstraintSpec {
    fn random(rng: &mut Rng, nvars: usize) -> ConstraintSpec {
        ConstraintSpec {
            var_coeffs: (0..nvars).map(|_| rng.range(-4, 4)).collect(),
            // Parameters appear in roughly half the constraints so both
            // purely existential and parametric systems get exercised.
            param: (rng.range(0, 1) == 1).then(|| {
                (
                    rng.range(0, PARAMS.len() as i128 - 1) as usize,
                    rng.range(-3, 3),
                )
            }),
            constant: rng.range(-8, 8),
            equality: rng.range(0, 5) == 0,
        }
    }

    /// Materializes the spec in the *current* session (parameter interning
    /// is session-scoped).
    fn build(&self) -> Constraint {
        let nvars = self.var_coeffs.len();
        let mut e = LinExpr::zero(nvars);
        for (i, &c) in self.var_coeffs.iter().enumerate() {
            e = e.add(&LinExpr::var(nvars, i).scale(c));
        }
        if let Some((p, c)) = self.param {
            e = e.add(&LinExpr::param(nvars, PARAMS[p]).scale(c));
        }
        e = e.add(&LinExpr::constant(nvars, self.constant));
        if self.equality {
            Constraint::eq(e)
        } else {
            Constraint::ge0(e)
        }
    }

    /// The affine value at an integer point and parameter assignment.
    fn eval(&self, point: &[i128], params: &[i128; 3]) -> i128 {
        let vars: i128 = self.var_coeffs.iter().zip(point).map(|(a, x)| a * x).sum();
        let param = self.param.map_or(0, |(p, c)| c * params[p]);
        vars + param + self.constant
    }

    fn holds(&self, point: &[i128], params: &[i128; 3]) -> bool {
        let v = self.eval(point, params);
        if self.equality {
            v == 0
        } else {
            v >= 0
        }
    }

    /// The inequality `e ≤ −1`, i.e. `−e − 1 ≥ 0`: the integer negation of
    /// `e ≥ 0`.
    fn negated(&self) -> ConstraintSpec {
        ConstraintSpec {
            var_coeffs: self.var_coeffs.iter().map(|a| -a).collect(),
            param: self.param.map(|(p, c)| (p, -c)),
            constant: -self.constant - 1,
            equality: false,
        }
    }
}

/// A random system of 2–8 constraints, mostly inequalities with the
/// occasional equality (equalities drive the substitution path of the
/// elimination kernel).
fn random_system(rng: &mut Rng, nvars: usize) -> Vec<ConstraintSpec> {
    let n = rng.range(2, 8) as usize;
    (0..n).map(|_| ConstraintSpec::random(rng, nvars)).collect()
}

fn build_all(specs: &[ConstraintSpec]) -> Vec<Constraint> {
    specs.iter().map(ConstraintSpec::build).collect()
}

/// Oracle: does the system have a rational solution for some parameter
/// values? Every variable and parameter is a free LP column, split as
/// `x = x⁺ − x⁻` over the simplex's non-negative decision variables.
fn simplex_feasible(specs: &[ConstraintSpec], nvars: usize) -> bool {
    let ncols = nvars + PARAMS.len();
    let mut lp = LinearProgram::minimize(vec![Rational::ZERO; 2 * ncols]);
    for spec in specs {
        let mut coeffs = vec![Rational::ZERO; 2 * ncols];
        let mut set = |col: usize, a: i128| {
            coeffs[col] = Rational::from_int(a);
            coeffs[ncols + col] = Rational::from_int(-a);
        };
        for (i, &a) in spec.var_coeffs.iter().enumerate() {
            set(i, a);
        }
        if let Some((p, c)) = spec.param {
            set(nvars + p, c);
        }
        let rhs = Rational::from_int(-spec.constant);
        lp.add_constraint(if spec.equality {
            LinearConstraint::eq(coeffs, rhs)
        } else {
            LinearConstraint::ge(coeffs, rhs)
        });
    }
    lp.solve() != LpResult::Infeasible
}

/// Oracle: `rest ⊨ target` for an inequality target, decided as rational
/// infeasibility of `rest ∧ target ≤ −1`.
fn simplex_entails(rest: &[ConstraintSpec], target: &ConstraintSpec, nvars: usize) -> bool {
    let mut augmented = rest.to_vec();
    augmented.push(target.negated());
    !simplex_feasible(&augmented, nvars)
}

/// Oracle: every integer point of the system inside `[0, hi]^nvars` at the
/// given parameter values.
fn brute_force_count(specs: &[ConstraintSpec], nvars: usize, hi: i128, params: &[i128; 3]) -> i128 {
    let mut point = vec![0; nvars];
    let mut count = 0;
    loop {
        count += specs.iter().all(|c| c.holds(&point, params)) as i128;
        // Odometer step over the box.
        let mut d = 0;
        loop {
            if d == nvars {
                return count;
            }
            if point[d] < hi {
                point[d] += 1;
                break;
            }
            point[d] = 0;
            d += 1;
        }
    }
}

#[test]
fn feasibility_and_entailment_agree_with_the_simplex() {
    let engine = EngineCtx::new();
    let mut rng = Rng(0xD1FF_FEA5);
    let mut feasible = 0usize;
    let mut entailed = 0usize;
    for round in 0..ROUNDS {
        let nvars = rng.range(1, 4) as usize;
        let sys = random_system(&mut rng, nvars);
        let target = ConstraintSpec {
            equality: false,
            ..ConstraintSpec::random(&mut rng, nvars)
        };

        let (f_engine, i_engine) = engine.scope(|| {
            let built = build_all(&sys);
            let e = EngineCtx::current();
            (
                fm::is_feasible_in(&e, &built, nvars),
                fm::implies_in(&e, &built, nvars, &target.build()),
            )
        });
        assert_eq!(
            f_engine,
            simplex_feasible(&sys, nvars),
            "round {round}: feasibility disagrees with the simplex on {sys:?}"
        );
        assert_eq!(
            i_engine,
            simplex_entails(&sys, &target, nvars),
            "round {round}: entailment disagrees with the simplex on {sys:?} ⊨ {target:?}"
        );
        feasible += f_engine as usize;
        entailed += i_engine as usize;
    }
    // The corpus must exercise both answers of both queries — otherwise the
    // differential proves nothing.
    assert!(feasible > 0 && feasible < ROUNDS, "one-sided feasibility");
    assert!(entailed > 0 && entailed < ROUNDS, "one-sided entailment");
}

#[test]
fn cardinality_agrees_with_brute_force_counts() {
    let engine = EngineCtx::new();
    let ctx = Context::empty();
    let mut rng = Rng(0xCA4D_C0DE);
    // Concrete values for each parameter, negatives included.
    const VALUES: [i128; 6] = [-2, 0, 1, 2, 4, 7];
    let mut nonempty_checked = 0usize;
    let mut empty_checked = 0usize;
    for round in 0..ROUNDS {
        let nvars = rng.range(1, 3) as usize;
        let mut sys = random_system(&mut rng, nvars);
        // Bound every variable into a box so a decent fraction of the random
        // systems fall into the exactly-countable class.
        let mut hi = 0;
        for i in 0..nvars {
            let mut lo = vec![0; nvars];
            lo[i] = 1;
            sys.push(ConstraintSpec {
                var_coeffs: lo.clone(),
                param: None,
                constant: 0,
                equality: false,
            });
            let mut up = lo;
            up[i] = -1;
            let bound = rng.range(1, 6);
            hi = hi.max(bound);
            sys.push(ConstraintSpec {
                var_coeffs: up,
                param: None,
                constant: bound,
                equality: false,
            });
        }
        let card = engine.scope(|| {
            let dims: Vec<String> = (0..nvars).map(|i| format!("d{i}")).collect();
            let dim_refs: Vec<&str> = dims.iter().map(|s| s.as_str()).collect();
            let set = BasicSet::from_constraints(Space::new("F", &dim_refs), build_all(&sys));
            count::card_basic_in(&EngineCtx::current(), &set, &ctx)
        });
        let Some(card) = card else { continue };

        // Every assignment of VALUES to the parameters the system mentions.
        let used: Vec<usize> = (0..PARAMS.len())
            .filter(|&p| sys.iter().any(|c| c.param.is_some_and(|(q, _)| q == p)))
            .collect();
        for mut code in 0..VALUES.len().pow(used.len() as u32) {
            let mut params = [0i128; 3];
            for &p in &used {
                params[p] = VALUES[code % VALUES.len()];
                code /= VALUES.len();
            }
            let brute = brute_force_count(&sys, nvars, hi, &params);
            if card.is_zero() {
                // The engine proved the set empty for every parameter value.
                assert_eq!(brute, 0, "round {round}: empty by the engine on {sys:?}");
                empty_checked += 1;
            } else if brute > 0 {
                // A non-empty instance lies in the parameter domain the
                // closed form is exact on.
                let env: BTreeMap<String, i128> = used
                    .iter()
                    .map(|&p| (PARAMS[p].to_string(), params[p]))
                    .collect();
                assert_eq!(
                    card.eval_exact(&env),
                    Some(Rational::from_int(brute)),
                    "round {round}: |set| = {card} disagrees with brute force at {env:?} on {sys:?}"
                );
                nonempty_checked += 1;
            }
        }
    }
    assert!(nonempty_checked > 0, "no non-empty count was ever checked");
    assert!(empty_checked > 0, "no empty set was ever checked");
}

#[test]
fn redundant_bound_sweep_agrees_with_simplex_replay() {
    let engine = EngineCtx::new();
    let mut rng = Rng(0xB0D5_5EED);
    let mut dropped = 0usize;
    let mut kept = 0usize;
    for round in 0..ROUNDS {
        let nvars = rng.range(1, 3) as usize;
        let sys = random_system(&mut rng, nvars);
        let idx = rng.range(0, nvars as i128 - 1) as usize;

        // The sweep's contract, replayed with the simplex: scan forward and
        // drop an inequality bound on `idx` iff the rest of the current
        // system entails it.
        let mut expected = sys.clone();
        let mut i = 0;
        while i < expected.len() {
            let c = &expected[i];
            if c.equality || c.var_coeffs[idx] == 0 {
                i += 1;
                continue;
            }
            let mut rest = expected.clone();
            rest.remove(i);
            if simplex_entails(&rest, c, nvars) {
                expected = rest;
                dropped += 1;
            } else {
                i += 1;
                kept += 1;
            }
        }

        engine.scope(|| {
            let out = redundancy::drop_redundant_bounds_in(
                &EngineCtx::current(),
                build_all(&sys),
                idx,
                nvars,
            );
            assert_eq!(
                out,
                build_all(&expected),
                "round {round}: redundant-bound sweep disagrees with the simplex on {sys:?} (idx {idx})"
            );
        });
    }
    assert!(dropped > 0, "the sweep never dropped a bound");
    assert!(kept > 0, "the sweep never kept a bound");
}
