//! Property tests for the analysis-fingerprint canonicalization
//! (`Analyzer::fingerprint`): everything the normal form erases —
//! whitespace, comments, knob ordering — must not move the fingerprint,
//! while every semantic edit — an option, a parameter value, an access
//! function — must.
//!
//! The perturbations are driven by a small seeded generator rather than
//! a fixed enumeration, so each run covers a few hundred distinct
//! spellings while staying reproducible from the printed seed.

use iolb_core::{AnalysisFingerprint, Analyzer, PreparedWorkload, Workload, WorkloadError};
use iolb_frontend::IolbSource;
use iolb_poly::EngineCtx;

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A workload that exists only as its cache key: `fingerprint` never
/// prepares, so the knob-canonicalization properties need nothing more.
struct Keyed(&'static str);

impl Workload for Keyed {
    fn prepare(&self) -> Result<PreparedWorkload, WorkloadError> {
        Err(WorkloadError::new("fingerprint-only test workload"))
    }

    fn cache_key(&self) -> Option<String> {
        Some(format!("test:{}", self.0))
    }
}

const BASE: &str = "\
parameter Ni, Nj, Nk;
double A[Ni][Nk];
double B[Nk][Nj];
double C[Ni][Nj];
for (i = 0; i < Ni; i++)
  for (j = 0; j < Nj; j++)
    for (k = 0; k < Nk; k++)
      C[i][j] = C[i][j] + A[i][k] * B[k][j];
";

/// Rewrites `src` with randomized whitespace and comments at token-safe
/// positions: every space may widen, gain a tab, or become an inline
/// block comment; lines may gain trailing `//`/`#` comments, leading
/// indentation, blank lines, or standalone block comments between them.
fn perturb_lexically(src: &str, rng: &mut Rng) -> String {
    let mut out = String::new();
    for line in src.lines() {
        if rng.below(4) == 0 {
            out.push('\n');
        }
        if rng.below(5) == 0 {
            out.push_str("/* leading\n   block comment */\n");
        }
        if rng.below(3) == 0 {
            out.push_str("\t ");
        }
        for ch in line.chars() {
            if ch == ' ' {
                match rng.below(5) {
                    0 => out.push(' '),
                    1 => out.push_str("  "),
                    2 => out.push_str(" \t "),
                    3 => out.push_str("   "),
                    _ => out.push_str(" /* c */ "),
                }
            } else {
                out.push(ch);
            }
        }
        match rng.below(4) {
            0 => out.push_str("  // trailing note"),
            1 => out.push_str("  # hash note"),
            _ => {}
        }
        out.push('\n');
    }
    out
}

fn fp_of_source(src: &str) -> AnalysisFingerprint {
    Analyzer::new()
        .fingerprint(&IolbSource::named("prog", src))
        .expect("parseable source is cacheable")
}

#[test]
fn lexical_perturbations_never_move_the_fingerprint() {
    let seed = 0x5eed_0007;
    let mut rng = Rng::new(seed);
    let base = fp_of_source(BASE);
    for round in 0..64 {
        let mutated = perturb_lexically(BASE, &mut rng);
        assert_eq!(
            fp_of_source(&mutated),
            base,
            "seed {seed:#x} round {round}: whitespace/comment perturbation \
             moved the fingerprint:\n{mutated}"
        );
    }
}

#[test]
fn semantic_source_edits_always_move_the_fingerprint() {
    // Each mutation is `BASE` with one semantic edit; all must produce
    // distinct fingerprints (128-bit: collisions would be a bug, not luck).
    let mutations: &[(&str, &str)] = &[
        ("transposed access", "A[k][i]"), // was A[i][k]
        ("different operand", "B[k][k]"), // was B[k][j]
    ];
    let base = fp_of_source(BASE);
    let mut seen = vec![base];
    for (what, replacement) in mutations {
        let src = match *what {
            "transposed access" => BASE.replace("A[i][k]", replacement),
            _ => BASE.replace("B[k][j]", replacement),
        };
        let fp = fp_of_source(&src);
        assert!(
            !seen.contains(&fp),
            "{what}: fingerprint did not move on a semantic edit"
        );
        seen.push(fp);
    }
    // Loop-bound, comparison-op, and name edits, straight substitutions.
    for (from, to) in [
        ("i < Ni", "i <= Ni"),
        ("k = 0", "k = 1"),
        ("double B[Nk][Nj]", "double B[Nk][Ni]"),
        ("C[i][j] = C[i][j] +", "C[i][j] = C[i][j] -"),
    ] {
        let fp = fp_of_source(&BASE.replace(from, to));
        assert!(
            !seen.contains(&fp),
            "`{from}` -> `{to}`: fingerprint did not move"
        );
        seen.push(fp);
    }
    // The report name is part of the content address.
    let renamed = Analyzer::new()
        .fingerprint(&IolbSource::named("other", BASE))
        .unwrap();
    assert!(!seen.contains(&renamed), "report name must be hashed");
}

#[test]
fn knob_order_is_canonicalized_but_knob_values_are_not() {
    let w = Keyed("knobs");
    let seed = 0x5eed_0011_u64;
    let mut rng = Rng::new(seed);
    let knobs: [(&str, i128); 4] = [("Ni", 2000), ("Nj", 1500), ("Nk", 800), ("S", 4096)];
    let reference = {
        let mut a = Analyzer::new();
        for (name, value) in knobs {
            a = a.param(name, value).assume_ge(name, 8);
        }
        a.fingerprint(&w).unwrap()
    };
    for round in 0..64 {
        // A random permutation (Fisher–Yates), applied independently to
        // the `.param()` and `.assume_ge()` call orders, with a random
        // prefix of overridden-then-corrected params (last-wins).
        let mut order: Vec<usize> = (0..knobs.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut a = Analyzer::new();
        for &i in &order {
            if rng.below(3) == 0 {
                // Stale value, immediately superseded below.
                a = a.param(knobs[i].0, -7);
            }
            a = a.param(knobs[i].0, knobs[i].1);
        }
        for &i in order.iter().rev() {
            a = a.assume_ge(knobs[i].0, 8);
        }
        assert_eq!(
            a.fingerprint(&w).unwrap(),
            reference,
            "seed {seed:#x} round {round}: knob order moved the fingerprint"
        );
    }
    // Value and option edits must all move it, each differently.
    let mut distinct = vec![reference];
    let variants: Vec<Analyzer> = vec![
        Analyzer::new().param("Ni", 2000),
        Analyzer::new().param("Ni", 1999),
        Analyzer::new().param("Ni", 2000).assume_ge("Ni", 8),
        Analyzer::new().param("Ni", 2000).assume_ge("Ni", 16),
        Analyzer::new()
            .param("Ni", 2000)
            .max_parametrization_depth(1),
        Analyzer::new().param("Ni", 2000).cache_size(16_384),
        Analyzer::new().param("Ni", 2000).cache_param("S2"),
    ];
    for (i, a) in variants.into_iter().enumerate() {
        let fp = a.fingerprint(&w).unwrap();
        assert!(!distinct.contains(&fp), "variant {i} collided");
        distinct.push(fp);
    }
}

#[test]
fn execution_knobs_are_excluded_and_keyless_workloads_opt_out() {
    let _session = EngineCtx::new().enter();
    let w = Keyed("exec");
    let base = Analyzer::new().fingerprint(&w).unwrap();
    // Parallelism and session-cache sizing cannot change the report bytes
    // (engine equivalence), so they must not fragment the cache.
    assert_eq!(Analyzer::new().parallel(false).fingerprint(&w), Some(base));
    assert_eq!(
        Analyzer::new().cache_capacity(128).fingerprint(&w),
        Some(base)
    );
    assert_eq!(
        Analyzer::new().cache_capacity(0).fingerprint(&w),
        Some(base)
    );
    // Budgets can only produce degraded (never-stored) results, so they
    // share the fingerprint of the clean run that will fill the entry.
    assert_eq!(
        Analyzer::new()
            .deadline(std::time::Duration::from_millis(5))
            .fingerprint(&w),
        Some(base)
    );
    // A workload with no canonical key is uncacheable.
    struct Keyless;
    impl Workload for Keyless {
        fn prepare(&self) -> Result<PreparedWorkload, WorkloadError> {
            Err(WorkloadError::new("unused"))
        }
    }
    assert_eq!(Analyzer::new().fingerprint(&Keyless), None);
}

#[test]
fn kernels_and_files_share_the_canonical_address_space() {
    let gemm = iolb_polybench::kernel_by_name("gemm").unwrap();
    let atax = iolb_polybench::kernel_by_name("atax").unwrap();
    let a = Analyzer::new();
    let fp_gemm = a.fingerprint(&gemm).unwrap();
    assert_eq!(a.fingerprint(&gemm), Some(fp_gemm), "kernel fp is stable");
    assert_ne!(a.fingerprint(&atax), Some(fp_gemm), "kernels are distinct");

    // A file and an equal in-memory source under the same name share a
    // fingerprint: the key is (name, canonical program), not the path.
    let dir = std::env::temp_dir().join(format!(
        "iolb-fp-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.iolb");
    std::fs::write(&path, BASE).unwrap();
    let from_file = a.fingerprint(&iolb_frontend::IolbFile::new(&path));
    let from_src = a.fingerprint(&IolbSource::named("prog", BASE));
    assert_eq!(from_file, from_src);
    assert!(from_file.is_some());
    std::fs::remove_dir_all(&dir).ok();
}
