//! # iolb-preflight
//!
//! A *static* workload analyzer: structural profiling, affine diagnostics
//! and an FM-blowup cost model over any lowered workload DFG, running in
//! microseconds — **before** the Fourier–Motzkin-heavy analysis proper ever
//! starts.
//!
//! The full IOLB pipeline (`iolb-core`) is itself a static analysis, but an
//! expensive one: on the 30-kernel PolyBench suite a single kernel
//! (heat-3d) accounts for ~90% of the suite wall-clock, because its
//! seven-point 4-dimensional stencil drives the chain-circuit enumeration
//! and projection machinery into a combinatorial regime. This crate reads
//! the *shape* of a workload off its [`Dfg`] — domain dimensionality,
//! dependence fan-in/out, and how many dependences are pure *translations*
//! (`x → x + δ`, detected exactly via
//! [`translation_offsets`](iolb_poly::BasicMap::translation_offsets)) — and
//! turns that shape into:
//!
//! * a [`WorkloadProfile`] with one [`StatementProfile`] per statement;
//! * a list of [`Diagnostic`]s — empty (unsatisfiable) iteration domains,
//!   dead arrays, unused/duplicate parameters, contradictory parameter
//!   assumptions, parametrization depth the candidate sweep cannot use —
//!   with 1-based source positions when the front end provides a
//!   [`SourceInfo`];
//! * a [`CostClass`] (`Small`/`Large`) from a blowup-risk score calibrated
//!   against the suite's measured analysis times.
//!
//! ## The cost model
//!
//! The score of a statement is `uniform_in × dim`: the number of incoming
//! dependence edges that are pure translations (the stencil reuse
//! directions Algorithm 3 turns into chain circuits) times the domain
//! dimensionality (the loop depth every projection has to sweep). The
//! workload score is the maximum over its statements, and
//! [`LARGE_SCORE_THRESHOLD`] splits the classes. Calibration against
//! `BENCH_analysis.json` (release, full suite):
//!
//! | kernel     | uniform_in × dim | score | analysis time |
//! |------------|------------------|-------|---------------|
//! | heat-3d    | 7 × 4            | 28    | 6.32 s        |
//! | seidel-2d  | 5 × 3            | 15    | 0.21 s        |
//! | jacobi-2d  | 5 × 3            | 15    | 0.32 s        |
//! | fdtd-2d    | 3 × 3            | 9     | 53 ms         |
//! | jacobi-1d  | 3 × 2            | 6     | 23 ms         |
//! | gemm       | 1 × 3            | 3     | 7 ms          |
//!
//! Every kernel scoring ≥ 12 takes two orders of magnitude longer than
//! every kernel scoring below it, so the threshold sits in that gap.
//!
//! ## Session binding
//!
//! [`preflight`] queries polyhedral objects (emptiness, translation
//! detection), so it must run inside the engine session the DFG was built
//! in — the same ambient-session rule as the analysis itself. The
//! `Analyzer::preflight` door in `iolb-core` handles this automatically.

#![warn(missing_docs)]

use iolb_dfg::Dfg;
use iolb_poly::{Context, EngineCtx};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Statement blowup scores at or above this value classify the workload as
/// [`CostClass::Large`]. See the crate docs for the calibration table.
pub const LARGE_SCORE_THRESHOLD: u64 = 12;

/// A 1-based source position (mirrors the frontend's `Span` without
/// depending on it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceSpan {
    /// Line number (1-based).
    pub line: usize,
    /// Column number (1-based).
    pub col: usize,
}

/// Source-level facts a front end can attach to a prepared workload so
/// diagnostics carry positions and can see through the DFG lowering (e.g.
/// arrays that were declared but never accessed leave no trace in the DFG).
///
/// Everything is optional: workloads without source text (built-in kernels,
/// raw DFGs) simply pass `None` to [`preflight`].
#[derive(Clone, Debug, Default)]
pub struct SourceInfo {
    /// Statement name → position of the assignment.
    pub statement_spans: BTreeMap<String, SourceSpan>,
    /// Array name → position of the declaration.
    pub array_spans: BTreeMap<String, SourceSpan>,
    /// Parameter name → position of the `parameter` declaration.
    pub param_spans: BTreeMap<String, SourceSpan>,
    /// Declared array names, in declaration order.
    pub declared_arrays: Vec<String>,
    /// Array names that appear in at least one read or write access.
    pub referenced_arrays: BTreeSet<String>,
}

impl SourceInfo {
    /// Position of a statement, array or parameter, if recorded.
    fn span_of(&self, table: &BTreeMap<String, SourceSpan>, name: &str) -> Option<SourceSpan> {
        table.get(name).copied()
    }
}

/// Diagnostic severity: errors describe workloads that are degenerate or
/// internally inconsistent; warnings describe suspicious but analysable
/// shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but analysable.
    Warning,
    /// Degenerate or inconsistent; the analysis result will be trivial or
    /// misleading.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One preflight finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `empty-domain`, `dead-array`).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// 1-based source position, when the front end provided one.
    pub span: Option<SourceSpan>,
}

/// Renders `line:col: severity: message [code]` (position omitted when
/// unknown).
impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(SourceSpan { line, col }) = self.span {
            write!(f, "{line}:{col}: ")?;
        }
        write!(f, "{}: {} [{}]", self.severity, self.message, self.code)
    }
}

/// How a statement's incoming dependences look, structurally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// At most two incoming translation dependences and nothing else — a
    /// simple reuse/reduction chain (e.g. gemm's `C[i,j,k] → C[i,j,k+1]`).
    Uniform,
    /// Three or more incoming translation dependences and nothing else — a
    /// multi-point stencil neighbourhood (the FM-blowup signature).
    Stencil,
    /// At least one incoming dependence that is *not* a pure translation.
    GeneralAffine,
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPattern::Uniform => write!(f, "uniform"),
            AccessPattern::Stencil => write!(f, "stencil"),
            AccessPattern::GeneralAffine => write!(f, "general-affine"),
        }
    }
}

/// Predicted analysis cost class; the server schedules by this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostClass {
    /// Expected to analyse in milliseconds.
    Small,
    /// Expected to dominate wall-clock (stencil-driven FM blowup).
    Large,
}

impl CostClass {
    /// The lower-case wire spelling (`"small"` / `"large"`).
    pub fn as_str(self) -> &'static str {
        match self {
            CostClass::Small => "small",
            CostClass::Large => "large",
        }
    }
}

impl fmt::Display for CostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The structural profile of one statement.
#[derive(Clone, Debug)]
pub struct StatementProfile {
    /// Statement name.
    pub name: String,
    /// Domain dimensionality = surrounding loop depth.
    pub dim: usize,
    /// Incoming dependence edges (from statements or inputs).
    pub fan_in: usize,
    /// Outgoing dependence edges.
    pub fan_out: usize,
    /// Incoming edges that are pure translations `x → x + δ`.
    pub uniform_in: usize,
    /// Structural classification of the incoming dependences.
    pub pattern: AccessPattern,
    /// Blowup-risk score: `uniform_in × dim`.
    pub blowup_score: u64,
}

/// The structural profile of a whole workload.
#[derive(Clone, Debug)]
pub struct WorkloadProfile {
    /// Workload display name.
    pub name: String,
    /// Per-statement profiles, in DFG order.
    pub statements: Vec<StatementProfile>,
    /// Number of input-array vertices.
    pub inputs: usize,
    /// Program parameters.
    pub params: Vec<String>,
    /// Number of parameter assumptions in the analysis context.
    pub assumptions: usize,
    /// Deepest statement loop nest.
    pub max_depth: usize,
    /// The `max_parametrization_depth` the analysis would sweep.
    pub parametrization_depth: usize,
    /// Workload blowup score: the maximum statement score.
    pub blowup_score: u64,
    /// Predicted analysis cost class.
    pub cost_class: CostClass,
}

/// Everything preflight produces: the profile plus the diagnostics.
#[derive(Clone, Debug)]
pub struct PreflightReport {
    /// Structural profile and cost prediction.
    pub profile: WorkloadProfile,
    /// Findings, in detection order (errors and warnings interleaved).
    pub diagnostics: Vec<Diagnostic>,
}

impl PreflightReport {
    /// The predicted cost class.
    pub fn cost_class(&self) -> CostClass {
        self.profile.cost_class
    }

    /// True iff any diagnostic has [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

/// Runs the static preflight analysis. Must run inside the engine session
/// the DFG belongs to (see the crate docs on session binding).
///
/// * `name` — workload display name (for the report).
/// * `dfg` — the lowered data-flow graph.
/// * `params` — the program parameters the workload declares.
/// * `ctx` — the parameter assumptions the analysis would run under.
/// * `max_parametrization_depth` — the candidate-sweep depth the analysis
///   would use (checked against the actual loop depth).
/// * `source` — source-level facts from the front end, when available.
pub fn preflight(
    name: &str,
    dfg: &Dfg,
    params: &[String],
    ctx: &Context,
    max_parametrization_depth: usize,
    source: Option<&SourceInfo>,
) -> PreflightReport {
    let mut diagnostics = Vec::new();
    let mut statements = Vec::new();
    let mut max_depth = 0usize;
    let mut score = 0u64;

    for node in dfg.statements() {
        let dim = node.domain.dim();
        max_depth = max_depth.max(dim);

        // Degenerate domain: the statement never executes under *any*
        // parameter values — almost always a bound typo.
        if node.domain.is_empty() {
            diagnostics.push(Diagnostic {
                severity: Severity::Error,
                code: "empty-domain",
                message: format!(
                    "statement `{}` has an empty iteration domain (its loop bounds are unsatisfiable)",
                    node.name
                ),
                span: source.and_then(|s| s.span_of(&s.statement_spans, &node.name)),
            });
        }

        let mut fan_in = 0usize;
        let mut uniform_in = 0usize;
        let mut general_in = 0usize;
        for (_, edge) in dfg.edges_into(&node.name) {
            fan_in += 1;
            // Input→statement gather edges are read patterns, not reuse
            // directions; only statement-level edges shape the dependence
            // structure. `shift_offsets` (not `translation_offsets`) so the
            // ping-pong form of stencils — cross-statement constant shifts
            // like jacobi's `A → B → A`, translations in all but space
            // name — counts as uniform too.
            if dfg.node(&edge.src).map(|n| n.is_input).unwrap_or(false) {
                continue;
            }
            if edge.relation.shift_offsets().is_some() {
                uniform_in += 1;
            } else {
                general_in += 1;
            }
        }
        let fan_out = dfg.edges_from(&node.name).count();
        let pattern = if general_in > 0 {
            AccessPattern::GeneralAffine
        } else if uniform_in >= 3 {
            AccessPattern::Stencil
        } else {
            AccessPattern::Uniform
        };
        let blowup_score = uniform_in as u64 * dim as u64;
        score = score.max(blowup_score);
        statements.push(StatementProfile {
            name: node.name.clone(),
            dim,
            fan_in,
            fan_out,
            uniform_in,
            pattern,
            blowup_score,
        });
    }

    // Parameters that never constrain anything: declared but absent from
    // every domain and dependence relation.
    let used: BTreeSet<String> = EngineCtx::with_current(|engine| {
        let mut out = BTreeSet::new();
        for node in dfg.nodes() {
            out.extend(iolb_poly::fm::collect_params_in(
                engine,
                node.domain.constraints(),
            ));
        }
        for edge in dfg.edges() {
            out.extend(iolb_poly::fm::collect_params_in(
                engine,
                edge.relation.constraints(),
            ));
        }
        out
    });
    let mut seen_params: BTreeSet<&str> = BTreeSet::new();
    for p in params {
        if !seen_params.insert(p.as_str()) {
            diagnostics.push(Diagnostic {
                severity: Severity::Warning,
                code: "duplicate-param",
                message: format!("parameter `{p}` is declared more than once"),
                span: source.and_then(|s| s.span_of(&s.param_spans, p)),
            });
            continue;
        }
        if !used.contains(p) {
            diagnostics.push(Diagnostic {
                severity: Severity::Warning,
                code: "unused-param",
                message: format!(
                    "parameter `{p}` is declared but does not appear in any loop bound, array extent or subscript"
                ),
                span: source.and_then(|s| s.span_of(&s.param_spans, p)),
            });
        }
    }

    // Dead arrays: declared in the source but never read or written. They
    // leave no trace in the DFG (lowering only materialises accessed
    // arrays), so this needs the front end's source facts.
    if let Some(src) = source {
        for a in &src.declared_arrays {
            if !src.referenced_arrays.contains(a) {
                diagnostics.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "dead-array",
                    message: format!("array `{a}` is declared but never read or written"),
                    span: src.span_of(&src.array_spans, a),
                });
            }
        }
    }

    // Contradictory assumptions: the parameter-only context is infeasible,
    // so every "under the assumptions" comparison is vacuous.
    let assumptions = ctx.constraints().len();
    if assumptions > 0 {
        let feasible = EngineCtx::with_current(|engine| {
            iolb_poly::fm::is_feasible_in(engine, ctx.constraints(), 0)
        });
        if !feasible {
            diagnostics.push(Diagnostic {
                severity: Severity::Error,
                code: "contradictory-assumptions",
                message: format!(
                    "the {assumptions} parameter assumptions are mutually contradictory (no parameter values satisfy all of them)"
                ),
                span: None,
            });
        }
    }

    // Parametrization depth the candidate sweep cannot use: depth d
    // parametrizes up to d surrounding loops, so anything beyond the
    // deepest nest is wasted sweep work.
    if max_parametrization_depth > max_depth {
        diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            code: "excess-parametrization-depth",
            message: format!(
                "max_parametrization_depth {max_parametrization_depth} exceeds the deepest loop nest ({max_depth}); the extra levels cannot be used"
            ),
            span: None,
        });
    }

    let cost_class = if score >= LARGE_SCORE_THRESHOLD {
        CostClass::Large
    } else {
        CostClass::Small
    };
    PreflightReport {
        profile: WorkloadProfile {
            name: name.to_string(),
            statements,
            inputs: dfg.inputs().count(),
            params: params.to_vec(),
            assumptions,
            max_depth,
            parametrization_depth: max_parametrization_depth,
            blowup_score: score,
            cost_class,
        },
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_like() -> Dfg {
        Dfg::builder()
            .input("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
            .statement_with_ops(
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                2,
            )
            .edge("A", "C",
                  "[Ni, Nj, Nk] -> { A[i, k] -> C[i2, j, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }")
            .edge("C", "C",
                  "[Ni, Nj, Nk] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }")
            .build()
            .unwrap()
    }

    fn strings(params: &[&str]) -> Vec<String> {
        params.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn gemm_like_profiles_small_uniform() {
        EngineCtx::new().scope(|| {
            let dfg = gemm_like();
            let report = preflight(
                "gemm-like",
                &dfg,
                &strings(&["Ni", "Nj", "Nk"]),
                &Context::empty(),
                0,
                None,
            );
            assert_eq!(report.cost_class(), CostClass::Small);
            assert!(!report.has_errors());
            assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
            let s = &report.profile.statements[0];
            assert_eq!((s.dim, s.fan_in, s.uniform_in), (3, 2, 1));
            assert_eq!(s.pattern, AccessPattern::Uniform);
            assert_eq!(s.blowup_score, 3);
            assert_eq!(report.profile.inputs, 1);
        });
    }

    #[test]
    fn stencil_classifies_large() {
        EngineCtx::new().scope(|| {
            // A 4-deep statement with four translation self-dependences:
            // score 4 × 4 = 16 ≥ threshold.
            let mut b = Dfg::builder().statement_with_ops(
                "A",
                "[T, N] -> { A[t, i, j, k] : 0 <= t < T and 1 <= i < N and 1 <= j < N and 1 <= k < N }",
                8,
            );
            for (di, dj) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                b = b.edge("A", "A", &format!(
                    "[T, N] -> {{ A[t, i, j, k] -> A[t2, i2, j2, k2] : t2 = t + 1 and i2 = i + {di} and j2 = j + {dj} and k2 = k and 0 <= t < T - 1 and 2 <= i < N - 1 and 2 <= j < N - 1 and 1 <= k < N }}"
                ));
            }
            let dfg = b.build().unwrap();
            let report = preflight("stencil", &dfg, &strings(&["T", "N"]), &Context::empty(), 0, None);
            assert_eq!(report.profile.statements[0].pattern, AccessPattern::Stencil);
            assert_eq!(report.profile.blowup_score, 16);
            assert_eq!(report.cost_class(), CostClass::Large);
        });
    }

    #[test]
    fn empty_domain_is_an_error() {
        EngineCtx::new().scope(|| {
            let dfg = Dfg::builder()
                .statement_with_ops("S", "[N] -> { S[i] : 0 <= i < N and i > N }", 1)
                .build()
                .unwrap();
            let report = preflight("bad", &dfg, &strings(&["N"]), &Context::empty(), 0, None);
            assert!(report.has_errors());
            assert_eq!(report.diagnostics[0].code, "empty-domain");
        });
    }

    #[test]
    fn contradictory_assumptions_and_unused_params() {
        EngineCtx::new().scope(|| {
            let dfg = Dfg::builder()
                .statement_with_ops("S", "[N] -> { S[i] : 0 <= i < N }", 1)
                .build()
                .unwrap();
            let ctx = Context::empty()
                .assume_ge("N", 8)
                .assume(iolb_poly::Constraint::le(
                    iolb_poly::LinExpr::param(0, "N"),
                    iolb_poly::LinExpr::constant(0, 4),
                ));
            let report = preflight("bad", &dfg, &strings(&["N", "M"]), &ctx, 0, None);
            let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
            assert!(codes.contains(&"unused-param"), "{codes:?}");
            assert!(codes.contains(&"contradictory-assumptions"), "{codes:?}");
            assert!(report.has_errors());
        });
    }

    #[test]
    fn dead_array_and_depth_warnings() {
        EngineCtx::new().scope(|| {
            let dfg = Dfg::builder()
                .statement_with_ops("S", "[N] -> { S[i] : 0 <= i < N }", 1)
                .build()
                .unwrap();
            let mut src = SourceInfo {
                declared_arrays: vec!["A".to_string(), "B".to_string()],
                ..Default::default()
            };
            src.referenced_arrays.insert("A".to_string());
            src.array_spans
                .insert("B".to_string(), SourceSpan { line: 3, col: 8 });
            let report = preflight(
                "w",
                &dfg,
                &strings(&["N"]),
                &Context::empty(),
                2,
                Some(&src),
            );
            let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
            assert!(codes.contains(&"dead-array"), "{codes:?}");
            assert!(codes.contains(&"excess-parametrization-depth"), "{codes:?}");
            assert!(!report.has_errors());
            let dead = report
                .diagnostics
                .iter()
                .find(|d| d.code == "dead-array")
                .unwrap();
            assert_eq!(dead.span, Some(SourceSpan { line: 3, col: 8 }));
            assert_eq!(
                format!("{dead}"),
                "3:8: warning: array `B` is declared but never read or written [dead-array]"
            );
        });
    }
}
