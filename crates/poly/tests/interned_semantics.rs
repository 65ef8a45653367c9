//! Property-style tests: the interned `Vec<(ParamId, i128)>` representation
//! of `LinExpr` must agree with the reference string-keyed semantics (a
//! `BTreeMap<String, i128>` model) under every arithmetic operation, and
//! constraint systems must survive a render → parse round-trip.

use iolb_poly::{parse_set, BasicSet, Constraint, EngineCtx, LinExpr, Space};
use std::collections::BTreeMap;

/// Deterministic xorshift generator (no external crates in this container).
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

const PARAMS: [&str; 5] = ["N", "M", "K", "Omega0", "S"];

/// The reference model: coefficients keyed by parameter name.
#[derive(Clone, Debug, PartialEq)]
struct Model {
    var_coeffs: Vec<i128>,
    params: BTreeMap<String, i128>,
    constant: i128,
}

impl Model {
    fn zero(nvars: usize) -> Model {
        Model {
            var_coeffs: vec![0; nvars],
            params: BTreeMap::new(),
            constant: 0,
        }
    }

    fn add_scaled(&self, other: &Model, k: i128) -> Model {
        let mut out = self.clone();
        for (i, c) in other.var_coeffs.iter().enumerate() {
            out.var_coeffs[i] += k * c;
        }
        for (p, c) in &other.params {
            *out.params.entry(p.clone()).or_insert(0) += k * c;
        }
        out.params.retain(|_, c| *c != 0);
        out.constant += k * other.constant;
        out
    }

    fn scale(&self, k: i128) -> Model {
        let mut out = Model::zero(self.var_coeffs.len());
        for (i, c) in self.var_coeffs.iter().enumerate() {
            out.var_coeffs[i] = c * k;
        }
        for (p, c) in &self.params {
            if c * k != 0 {
                out.params.insert(p.clone(), c * k);
            }
        }
        out.constant = self.constant * k;
        out
    }
}

/// Checks every observable of the interned expression against the model.
fn assert_agrees(e: &LinExpr, m: &Model, what: &str) {
    assert_eq!(e.var_coeffs, m.var_coeffs, "{what}: var coefficients");
    assert_eq!(e.constant, m.constant, "{what}: constant");
    for p in PARAMS {
        assert_eq!(
            e.param_coeff(p),
            m.params.get(p).copied().unwrap_or(0),
            "{what}: coefficient of {p}"
        );
    }
    // The stored representation must be sorted by id with no zero entries
    // (the invariant the merge kernels rely on).
    for w in e.param_coeffs.windows(2) {
        assert!(w[0].0 < w[1].0, "{what}: param list sorted and unique");
    }
    assert!(
        e.param_coeffs.iter().all(|&(_, c)| c != 0),
        "{what}: no zero entries"
    );
    // Evaluation agrees at a fixed assignment.
    let vars: Vec<i128> = (0..e.num_vars() as i128).map(|i| 2 * i - 3).collect();
    let env: BTreeMap<String, i128> = PARAMS
        .iter()
        .enumerate()
        .map(|(i, p)| (p.to_string(), 10 + i as i128))
        .collect();
    let model_val = m.constant
        + m.var_coeffs
            .iter()
            .zip(&vars)
            .map(|(c, v)| c * v)
            .sum::<i128>()
        + m.params.iter().map(|(p, c)| c * env[p]).sum::<i128>();
    assert_eq!(e.eval(&vars, &env), model_val, "{what}: evaluation");
}

fn random_pair(rng: &mut Rng, nvars: usize) -> (LinExpr, Model) {
    let mut e = LinExpr::zero(nvars);
    let mut m = Model::zero(nvars);
    for i in 0..nvars {
        let c = rng.range(-4, 4);
        e = e.add(&LinExpr::var(nvars, i).scale(c));
        m.var_coeffs[i] += c;
    }
    for p in PARAMS {
        let c = rng.range(-3, 3);
        e = e.add(&LinExpr::param(nvars, p).scale(c));
        if c != 0 {
            *m.params.entry(p.to_string()).or_insert(0) += c;
        }
        m.params.retain(|_, c| *c != 0);
    }
    let k = rng.range(-5, 5);
    e = e.add(&LinExpr::constant(nvars, k));
    m.constant += k;
    (e, m)
}

#[test]
fn interned_ops_agree_with_string_model() {
    let _session = EngineCtx::new().enter();
    let mut rng = Rng(0x0010_D01B);
    for round in 0..200 {
        let nvars = rng.range(0, 4) as usize;
        let (a, ma) = random_pair(&mut rng, nvars);
        let (b, mb) = random_pair(&mut rng, nvars);
        assert_agrees(&a, &ma, "construction");

        assert_agrees(&a.add(&b), &ma.add_scaled(&mb, 1), "add");
        assert_agrees(&a.sub(&b), &ma.add_scaled(&mb, -1), "sub");
        let k = rng.range(-6, 6);
        assert_agrees(&a.scale(k), &ma.scale(k), "scale");
        assert_agrees(&a.add_scaled(&b, k), &ma.add_scaled(&mb, k), "add_scaled");

        // Renaming a parameter moves its coefficient.
        let renamed = a.rename_param("N", "K");
        let mut m_renamed = ma.clone();
        if let Some(c) = m_renamed.params.remove("N") {
            *m_renamed.params.entry("K".to_string()).or_insert(0) += c;
            m_renamed.params.retain(|_, c| *c != 0);
        }
        assert_agrees(&renamed, &m_renamed, "rename_param");

        // x + (-1)·x cancels to zero.
        assert!(a.sub(&a).is_zero(), "round {round}: self-subtraction");
    }
}

#[test]
fn parser_round_trip_preserves_membership() {
    let _session = EngineCtx::new().enter();
    let mut rng = Rng(0xB0_07);
    for _ in 0..60 {
        let nvars = rng.range(1, 3) as usize;
        let mut constraints = Vec::new();
        for _ in 0..rng.range(1, 4) {
            let (e, _) = random_pair(&mut rng, nvars);
            constraints.push(Constraint::ge0(e));
        }
        let dims: Vec<String> = (0..nvars).map(|i| format!("d{i}")).collect();
        let dim_refs: Vec<&str> = dims.iter().map(|s| s.as_str()).collect();
        let set = BasicSet::from_constraints(Space::new("S", &dim_refs), constraints);
        let rendered = set.to_string();
        let reparsed =
            parse_set(&rendered).unwrap_or_else(|e| panic!("reparse of `{rendered}` failed: {e}"));
        // Membership agrees on a grid of sample points.
        let params: Vec<(&str, i128)> = PARAMS.iter().map(|p| (*p, 7)).collect();
        let mut point = vec![-2i128; nvars];
        loop {
            assert_eq!(
                set.contains(&point, &params),
                reparsed.contains(&point, &params),
                "membership of {point:?} in `{rendered}`"
            );
            // Advance the grid point over [-2, 2]^nvars.
            let mut i = 0;
            loop {
                if i == nvars {
                    break;
                }
                point[i] += 2;
                if point[i] <= 2 {
                    break;
                }
                point[i] = -2;
                i += 1;
            }
            if i == nvars {
                break;
            }
        }
    }
}

#[test]
fn parser_and_builders_produce_identical_constraints() {
    let _session = EngineCtx::new().enter();
    // The same set written in ISL notation and built programmatically must
    // have identical interned representations.
    let parsed = parse_set("[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }").unwrap();
    let built = BasicSet::universe(Space::new("S", &["i", "j"]))
        .ge0_var(0)
        .lt_param(0, "N")
        .ge0_var(1)
        .le_var(1, 0);
    assert_eq!(parsed.constraints().len(), built.constraints().len());
    for (p, b) in parsed.constraints().iter().zip(built.constraints()) {
        assert_eq!(p, b);
    }
}
