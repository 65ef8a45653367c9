//! Redundant-bound elimination: the entailment-backed sweep the counting
//! path uses to prove a bound implied by the rest of its system and remove
//! it.
//!
//! [`drop_redundant_bounds_in`] asks the (cached) Fourier–Motzkin
//! entailment oracle [`crate::fm::implies_in`] whether each bound on one
//! dimension is implied by the rest, and removes implied bounds one at a
//! time so that one of two equivalent bounds always survives. This subsumes
//! the ad-hoc restart loop `count::drop_redundant_bounds` used to carry: a
//! constraint found non-removable can never *become* removable after later
//! removals (implication by a subset is stronger than by a superset), so a
//! single forward scan removes exactly the constraints the restart loop did.

use crate::affine::{Constraint, ConstraintKind};
use crate::engine::EngineCtx;

/// Removes inequality constraints bounding dimension `idx` that are implied
/// by the remaining constraints, using the cached entailment oracle.
/// Constraints are removed one at a time (each check runs against the
/// already-reduced system) so that one of two equivalent bounds always
/// survives. Produces exactly the output of the historical restart-loop
/// formulation (see the module docs) with a linear instead of quadratic
/// number of entailment queries.
pub fn drop_redundant_bounds_in(
    engine: &EngineCtx,
    constraints: Vec<Constraint>,
    idx: usize,
    nvars: usize,
) -> Vec<Constraint> {
    let mut current = constraints;
    let mut i = 0;
    while i < current.len() {
        let c = &current[i];
        if c.kind != ConstraintKind::Inequality || c.expr.var_coeff(idx) == 0 {
            i += 1;
            continue;
        }
        let mut rest: Vec<Constraint> = current.clone();
        rest.remove(i);
        if crate::fm::implies_in(engine, &rest, nvars, c) {
            // Re-examine index i: the next constraint shifted into this slot.
            current = rest;
        } else {
            i += 1;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::LinExpr;
    use std::sync::Arc;

    fn in_session(f: impl FnOnce(&Arc<EngineCtx>)) {
        let engine = EngineCtx::new();
        engine.clone().scope(|| f(&engine));
    }

    fn var(n: usize, i: usize) -> LinExpr {
        LinExpr::var(n, i)
    }
    fn cst(n: usize, c: i128) -> LinExpr {
        LinExpr::constant(n, c)
    }
    fn par(n: usize, p: &str) -> LinExpr {
        LinExpr::param(n, p)
    }

    /// The historical restart-loop formulation from `count`, kept verbatim as
    /// the reference for the single-pass rewrite.
    fn restart_loop_reference(
        engine: &EngineCtx,
        constraints: Vec<Constraint>,
        idx: usize,
        nvars: usize,
    ) -> Vec<Constraint> {
        let mut current = constraints;
        loop {
            let mut removed = false;
            for i in 0..current.len() {
                let c = &current[i];
                if c.kind != ConstraintKind::Inequality || c.expr.var_coeff(idx) == 0 {
                    continue;
                }
                let mut rest: Vec<Constraint> = current.clone();
                rest.remove(i);
                if crate::fm::implies_in(engine, &rest, nvars, c) {
                    current = rest;
                    removed = true;
                    break;
                }
            }
            if !removed {
                return current;
            }
        }
    }

    #[test]
    fn single_pass_matches_restart_loop() {
        in_session(|e| {
            // Bounds on x with several redundant shadows: x >= 0 (twice,
            // once scaled), x >= -3 (implied), x <= N, x <= N + 5 (implied),
            // plus an unrelated equality and a y bound that must survive.
            let sys = vec![
                Constraint::ge0(var(2, 0)),
                Constraint::ge0(var(2, 0).scale(2).add(&cst(2, 1))),
                Constraint::ge0(var(2, 0).add(&cst(2, 3))),
                Constraint::ge0(par(2, "N").sub(&var(2, 0))),
                Constraint::ge0(par(2, "N").add(&cst(2, 5)).sub(&var(2, 0))),
                Constraint::ge0(var(2, 1)),
                Constraint::eq(var(2, 1).sub(&cst(2, 4))),
            ];
            let fast = drop_redundant_bounds_in(e, sys.clone(), 0, 2);
            let reference = restart_loop_reference(e, sys, 0, 2);
            assert_eq!(fast, reference);
            // The implied shadows are gone. Note the integer-style entailment:
            // 2x + 1 >= 0 implies x >= 0 (x <= -1 contradicts x >= -1/2), so
            // x >= 0 is itself dropped and the scaled bound survives.
            assert!(fast.contains(&Constraint::ge0(var(2, 0).scale(2).add(&cst(2, 1)))));
            assert!(fast.contains(&Constraint::ge0(par(2, "N").sub(&var(2, 0)))));
            assert!(!fast.contains(&Constraint::ge0(var(2, 0))));
            assert!(!fast.contains(&Constraint::ge0(var(2, 0).add(&cst(2, 3)))));
        });
    }

    #[test]
    fn equivalent_bounds_keep_exactly_one() {
        in_session(|e| {
            // Two syntactically different but equivalent lower bounds: the
            // one-at-a-time discipline must keep exactly one of them.
            let sys = vec![
                Constraint::ge0(var(1, 0).sub(&cst(1, 2))),
                Constraint::ge0(var(1, 0).scale(3).sub(&cst(1, 6))),
                Constraint::ge0(cst(1, 9).sub(&var(1, 0))),
            ];
            let fast = drop_redundant_bounds_in(e, sys.clone(), 0, 1);
            let reference = restart_loop_reference(e, sys, 0, 1);
            assert_eq!(fast, reference);
            assert_eq!(fast.len(), 2, "one of the two equivalent bounds dropped");
        });
    }
}
