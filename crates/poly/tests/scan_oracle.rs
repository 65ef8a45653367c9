//! Oracle for the concrete scanner: every plan must yield exactly the
//! points, in exactly the order, of the brute-force box scan that
//! `BasicSet::enumerate` used to run (kept here, verbatim in behaviour, as
//! the reference).
//!
//! Inputs are every node domain of the shipped corpus (the 30 built-in
//! kernels and the `.iolb` examples) plus seeded random systems with
//! equalities, negative and non-unit coefficients, parameter-only rows and
//! empty sets, in both the plain and the fixed-suffix mode.

use iolb_core::Workload;
use iolb_poly::scan::{self, Row};
use iolb_poly::{BasicSet, Constraint, ConstraintKind, EngineCtx, LinExpr, ScanPlan, Space};
use std::collections::BTreeMap;

/// The reference: scan every dimension over `-bound..=bound`, pruning a
/// prefix as soon as a constraint over bound dimensions fails.
fn box_scan(set: &BasicSet, params: &[(&str, i128)], bound: i128) -> Vec<Vec<i128>> {
    fn rec(
        set: &BasicSet,
        depth: usize,
        point: &mut Vec<i128>,
        env: &BTreeMap<String, i128>,
        bound: i128,
        out: &mut Vec<Vec<i128>>,
    ) {
        if depth == set.dim() {
            if set.constraints().iter().all(|c| c.holds(point, env)) {
                out.push(point.clone());
            }
            return;
        }
        for v in -bound..=bound {
            point[depth] = v;
            let ok = set.constraints().iter().all(|c| {
                if c.expr.var_coeffs[depth + 1..].iter().any(|&x| x != 0) {
                    true
                } else {
                    c.holds(point, env)
                }
            });
            if ok {
                rec(set, depth + 1, point, env, bound, out);
            }
        }
        point[depth] = 0;
    }
    let env: BTreeMap<String, i128> = params.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    let mut out = Vec::new();
    let mut point = vec![0i128; set.dim()];
    rec(set, 0, &mut point, &env, bound, &mut out);
    out
}

/// Every parameter of `set` bound to `value`.
fn uniform_params(set: &BasicSet, value: i128) -> Vec<(String, i128)> {
    let mut names: Vec<String> = set
        .constraints()
        .iter()
        .flat_map(|c| c.expr.param_terms_by_name())
        .map(|(p, _)| p.to_string())
        .collect();
    names.sort();
    names.dedup();
    names.into_iter().map(|p| (p, value)).collect()
}

fn check_domain(label: &str, set: &BasicSet) -> usize {
    let mut points = 0;
    for (value, bound) in [(5, 12), (9, 12), (4, 6)] {
        let owned = uniform_params(set, value);
        let params: Vec<(&str, i128)> = owned.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let want = box_scan(set, &params, bound);
        let got = set.enumerate(&params, bound);
        assert_eq!(got, want, "{label} at {value} (box {bound}): {set}");
        points += got.len();
    }
    points
}

#[test]
fn scanner_matches_the_box_scan_on_every_corpus_domain() {
    let mut domains = 0;
    let mut points = 0;
    for name in iolb_polybench::kernel_names() {
        EngineCtx::new().scope(|| {
            let kernel = iolb_polybench::kernel_by_name(name).unwrap();
            for node in kernel.dfg().nodes() {
                points += check_domain(&format!("{name}/{}", node.name), &node.domain);
                domains += 1;
            }
        });
    }
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    for file in [
        "gemm.iolb",
        "cholesky.iolb",
        "jacobi-2d.iolb",
        "ai/attention.iolb",
        "ai/conv2d.iolb",
        "ai/mlp.iolb",
    ] {
        EngineCtx::new().scope(|| {
            let prepared = iolb_frontend::IolbFile::new(examples.join(file))
                .prepare()
                .unwrap();
            for node in prepared.dfg.nodes() {
                points += check_domain(&format!("{file}/{}", node.name), &node.domain);
                domains += 1;
            }
        });
    }
    assert!(domains > 100, "only {domains} corpus domains checked");
    assert!(points > 10_000, "only {points} corpus points checked");
}

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

/// A random constraint over `nvars` variables: coefficients in `[-3, 3]`
/// (so negative and non-unit ones), an optional `N` term, one in five an
/// equality, and one in eight parameter-only.
fn random_constraint(rng: &mut Rng, nvars: usize) -> Constraint {
    let param_only = rng.range(0, 7) == 0;
    let mut e = LinExpr::constant(nvars, rng.range(-6, 6));
    if !param_only {
        for i in 0..nvars {
            e = e.add(&LinExpr::var(nvars, i).scale(rng.range(-3, 3)));
        }
    }
    if param_only || rng.range(0, 1) == 1 {
        e = e.add(&LinExpr::param(nvars, "N").scale(rng.range(-2, 2)));
    }
    if rng.range(0, 4) == 0 {
        Constraint::eq(e)
    } else {
        Constraint::ge0(e)
    }
}

fn random_set(rng: &mut Rng, nvars: usize) -> BasicSet {
    let names: Vec<String> = (0..nvars).map(|i| format!("x{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut set = BasicSet::universe(Space::new("R", &refs));
    for _ in 0..rng.range(1, 6) {
        set = set.constrain(random_constraint(rng, nvars));
    }
    set
}

/// Box rows `-bound <= x_d <= bound` for the first `dims` of `arity`
/// variables.
fn box_rows(dims: usize, arity: usize, bound: i128) -> Vec<Row> {
    let mut rows = Vec::new();
    for d in 0..dims {
        for sign in [1, -1] {
            let mut coeffs = vec![0; arity];
            coeffs[d] = sign;
            rows.push(Row {
                coeffs,
                constant: bound,
                kind: ConstraintKind::Inequality,
            });
        }
    }
    rows
}

#[test]
fn scanner_matches_the_box_scan_on_random_systems() {
    const BOUND: i128 = 7;
    let mut rng = Rng(0x5CA9_0AC1E);
    let (mut empty, mut nonempty, mut equalities) = (0, 0, 0);
    EngineCtx::new().scope(|| {
        for round in 0..400 {
            let nvars = rng.range(0, 4) as usize;
            let set = random_set(&mut rng, nvars);
            let n = rng.range(-3, 6);
            let params = [("N", n)];
            let want = box_scan(&set, &params, BOUND);
            let got = set.enumerate(&params, BOUND);
            assert_eq!(got, want, "round {round}: {set} at N = {n}");
            if want.is_empty() {
                empty += 1;
            } else {
                nonempty += 1;
            }
            equalities += set
                .constraints()
                .iter()
                .filter(|c| c.kind == ConstraintKind::Equality)
                .count();
        }
    });
    assert!(
        empty > 20 && nonempty > 100,
        "{empty} empty / {nonempty} non-empty"
    );
    assert!(equalities > 50, "only {equalities} equalities generated");
}

#[test]
fn fixed_suffix_scans_match_the_box_scan_with_the_suffix_pinned() {
    const BOUND: i128 = 6;
    let mut rng = Rng(0xF1DE_5CA9);
    let mut points = 0;
    EngineCtx::new().scope(|| {
        for round in 0..150 {
            let dims = rng.range(1, 3) as usize;
            let fixed = rng.range(1, 2) as usize;
            let arity = dims + fixed;
            let set = random_set(&mut rng, arity);
            let n = rng.range(0, 5);
            let params = [("N", n)];
            let mut rows = scan::instantiate(set.constraints(), &params).unwrap();
            rows.extend(box_rows(dims, arity, BOUND));
            let plan = ScanPlan::new(rows, dims).unwrap();
            let mut buf = Vec::new();
            for code in 0..7i128.pow(fixed as u32) {
                let suffix: Vec<i128> = (0..fixed)
                    .map(|k| (code / 7i128.pow(k as u32)) % 7 - 3)
                    .collect();
                let mut pinned = set.clone();
                for (k, &v) in suffix.iter().enumerate() {
                    pinned = pinned.fix_dim(dims + k, v);
                }
                let want: Vec<Vec<i128>> = box_scan(&pinned, &params, BOUND)
                    .into_iter()
                    .map(|p| p[..dims].to_vec())
                    .collect();
                let mut got = Vec::new();
                plan.scan(&suffix, &mut buf, |p| {
                    got.push(p.to_vec());
                    true
                });
                assert_eq!(
                    got, want,
                    "round {round}: {set} at N = {n}, suffix {suffix:?}"
                );
                points += got.len();
            }
        }
    });
    assert!(points > 1000, "only {points} fixed-suffix points checked");
}
