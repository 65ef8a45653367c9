//! Asymptotic simplification of lower-bound expressions (Sec. 8 / Appendix C).
//!
//! The complete formulae produced by the driver are exact lower bounds but
//! hard to read. The paper also reports a simplified form `Q∞` obtained by
//! keeping only the asymptotically dominant terms under the assumption that
//! all program parameters (`N`, `M`, `T`, …) tend to infinity at the same
//! rate while the fast-memory capacity `S` also tends to infinity but slower
//! than any program parameter (`S = o(N, M, …)`).
//!
//! Under that regime a monomial `c · Πp p^{a_p} · S^{b}` is ranked first by
//! its total degree in the program parameters and then (to break ties) by its
//! degree in `S`. The dominant monomials are retained; everything of lower
//! order — including the subtracted boundary corrections — is dropped. The
//! simplified form is *not* itself a lower bound (the paper makes the same
//! caveat in Appendix C); it is reported for readability and for forming
//! asymptotic operational-intensity ratios.

use crate::expr::Expr;
use crate::poly::{Monomial, Poly};
use iolb_math::Rational;

/// Ranking key of a monomial in the asymptotic regime.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct AsymptoticKey {
    /// Total degree in the program-size parameters (numerator/denominator in
    /// a canonical rational encoding for ordering).
    size_deg_num: i128,
    size_deg_den: i128,
    /// Degree in the cache parameter.
    cache_deg_num: i128,
    cache_deg_den: i128,
}

fn key_of(m: &Monomial, cache_param: &str) -> (Rational, Rational) {
    let mut size = Rational::ZERO;
    let mut cache = Rational::ZERO;
    for (p, e) in &m.powers {
        if p == cache_param {
            cache += *e;
        } else {
            size += *e;
        }
    }
    (size, cache)
}

/// Keeps only the asymptotically dominant monomials of a polynomial.
///
/// Ties on (size-degree, cache-degree) are all kept and merged; strictly
/// dominated terms are dropped.
pub fn dominant_terms(p: &Poly, cache_param: &str) -> Poly {
    if p.is_zero() {
        return Poly::zero();
    }
    let best = p
        .terms()
        .iter()
        .map(|m| key_of(m, cache_param))
        .max()
        .expect("non-empty polynomial");
    Poly::from_monomials(
        p.terms()
            .iter()
            .filter(|m| key_of(m, cache_param) == best)
            .cloned()
            .collect(),
    )
}

/// Asymptotically simplifies an expression: every `max` is resolved by keeping
/// the arm whose dominant term grows fastest (using a large sample point to
/// break exact-degree ties), then the dominant monomials of the resulting
/// polynomial are retained. An arm whose dominant term is not positive at
/// the sample point tends to −∞ or 0, so it never wins a `max`.
pub fn simplify(e: &Expr, cache_param: &str) -> Poly {
    match e {
        Expr::Poly(p) => dominant_terms(p, cache_param),
        Expr::Max(args) => {
            let mut best: Option<(Poly, (Rational, Rational), f64)> = None;
            for a in args {
                let cand = simplify(a, cache_param);
                let sample = sample_value(&cand, cache_param);
                if sample <= 0.0 {
                    continue;
                }
                let key = cand
                    .terms()
                    .iter()
                    .map(|m| key_of(m, cache_param))
                    .max()
                    .unwrap();
                let better = match &best {
                    None => true,
                    Some((_, bkey, bsample)) => key > *bkey || (key == *bkey && sample > *bsample),
                };
                if better {
                    best = Some((cand, key, sample));
                }
            }
            best.map(|(p, _, _)| p).unwrap_or_else(Poly::zero)
        }
    }
}

/// Evaluates a polynomial at a representative asymptotic sample point
/// (program parameters = 10⁶, cache parameter = 10³) to break ordering ties.
fn sample_value(p: &Poly, cache_param: &str) -> f64 {
    let env: std::collections::BTreeMap<String, f64> = p
        .params()
        .into_iter()
        .map(|name| {
            let v = if name == cache_param { 1.0e3 } else { 1.0e6 };
            (name, v)
        })
        .collect();
    p.eval_f64(&env).unwrap_or(0.0)
}

/// Asymptotic ratio of two expressions (`numerator / denominator`), expressed
/// as a generalised polynomial when the denominator simplifies to a single
/// monomial. This is how `OI_up = #ops / Q∞` is formed.
///
/// Returns `None` when the simplified denominator is not a single monomial.
pub fn asymptotic_ratio(numerator: &Poly, denominator: &Expr, cache_param: &str) -> Option<Poly> {
    let den = simplify(denominator, cache_param);
    let dm = den.as_monomial()?;
    let inv = dm.pow(Rational::from_int(-1))?;
    let num = dominant_terms(numerator, cache_param);
    Some(num * Poly::from_monomials(vec![inv]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_math::rat;

    fn n() -> Poly {
        Poly::param("N")
    }
    fn s() -> Poly {
        Poly::param("S")
    }

    #[test]
    fn dominant_term_of_gemm_like_bound() {
        // 2*N^3/sqrt(S) - 4*N^2 + N - 8*S  ->  2*N^3*S^(-1/2)
        let bound = n() * n() * n() * s().pow_rational(rat(-1, 2)).unwrap() * Poly::int(2)
            - Poly::int(4) * n() * n()
            + n()
            - Poly::int(8) * s();
        let d = dominant_terms(&bound, "S");
        assert_eq!(d.to_string(), "2*N^3*S^(-1/2)");
    }

    #[test]
    fn cache_degree_breaks_ties() {
        // N^2 vs N^2/S: N^2 dominates because S -> infinity.
        let bound = n() * n() + n() * n() * s().pow_rational(rat(-1, 1)).unwrap();
        let d = dominant_terms(&bound, "S");
        assert_eq!(d.to_string(), "N^2");
    }

    #[test]
    fn max_resolution_picks_fastest_growing_arm() {
        // max(N^2, N^3/sqrt(S) - N^2) -> N^3/sqrt(S).
        let arm1 = Expr::from_poly(n() * n());
        let arm2 =
            Expr::from_poly(n() * n() * n() * s().pow_rational(rat(-1, 2)).unwrap() - n() * n());
        let e = Expr::max(vec![arm1, arm2]);
        let d = simplify(&e, "S");
        assert_eq!(d.to_string(), "N^3*S^(-1/2)");
    }

    #[test]
    fn max_with_equal_degree_uses_sample() {
        // max(N^2, 3*N^2) -> 3*N^2.
        let e = Expr::max(vec![
            Expr::from_poly(n() * n()),
            Expr::from_poly(n() * n() * Poly::int(3)),
        ]);
        assert_eq!(simplify(&e, "S").to_string(), "3*N^2");
    }

    #[test]
    fn max_skips_arms_that_are_negative_at_the_sample_point() {
        // max(2*N^2, -N^2*T): the higher-degree arm is negative, so 2*N^2 wins.
        let t = Poly::param("T");
        let e = Expr::max(vec![
            Expr::from_poly(Poly::int(2) * n() * n()),
            Expr::from_poly(Poly::int(-1) * n() * n() * t),
        ]);
        assert_eq!(simplify(&e, "S").to_string(), "2*N^2");
    }

    #[test]
    fn zero_arms_are_skipped() {
        let e = Expr::max(vec![Expr::zero(), Expr::from_poly(n())]);
        assert_eq!(simplify(&e, "S").to_string(), "N");
    }

    #[test]
    fn oi_ratio_for_gemm() {
        // #ops = 2*N^3, Q = 2*N^3/sqrt(S) -> OI_up = sqrt(S).
        let ops = Poly::int(2) * n() * n() * n();
        let q =
            Expr::from_poly(Poly::int(2) * n() * n() * n() * s().pow_rational(rat(-1, 2)).unwrap());
        let oi = asymptotic_ratio(&ops, &q, "S").unwrap();
        assert_eq!(oi.to_string(), "S^(1/2)");
    }

    #[test]
    fn oi_ratio_constant_kernels() {
        // #ops = 4*M*N, Q = M*N -> OI_up = 4.
        let ops = Poly::int(4) * Poly::param("M") * n();
        let q = Expr::from_poly(Poly::param("M") * n());
        let oi = asymptotic_ratio(&ops, &q, "S").unwrap();
        assert_eq!(oi.as_constant(), Some(rat(4, 1)));
    }
}
