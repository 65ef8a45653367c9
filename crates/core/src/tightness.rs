//! Two-sided locality reports: the paper's Sec. 8.2 tightness study as a
//! first-class pipeline stage.
//!
//! The analysis half of the system derives a *parametric* data-movement lower
//! bound `Q_low`. This module supplies the other side: it generates a
//! word-granular address trace from **any** [`crate::Workload`]'s DFG at a
//! concrete parameter instance, simulates it through the LRU (and optionally
//! Belady/OPT) cache model of `iolb-cachesim`, and reports the measured miss
//! counts next to `Q_low` evaluated at the same instance. The ratio
//! `Q_low / misses` is the *tightness* of the bound: a sound engine keeps it
//! at most 1, and the closer to 1 the tighter the bound.
//!
//! ## Trace model
//!
//! The walk replays the canonical statement-major schedule: statements in
//! declaration order, each statement's domain points in ascending
//! lexicographic order. For every dynamic statement instance the walker
//! issues one read per incoming flow dependence (resolved through the edge
//! relation to the producer coordinate), then one write of the instance's own
//! value. Reads are ordered by a semantic edge signature so that two DFGs
//! describing the same program — e.g. a built-in kernel and its `.iolb` twin
//! — produce byte-identical traces regardless of edge declaration order.
//!
//! Addresses are assigned on first touch, sequentially, per memory *cell*.
//! A statement's value space collapses along its reduction dimension (the
//! direction of a unique single-offset self dependence, e.g. the `k` in
//! `C[i,j,k] = C[i,j,k-1] + ...`), reconstructing the in-place accumulation
//! of the original program; all other dimensions address distinct cells.
//! Collapsing along the dependence chain is schedule-valid, and any valid
//! schedule's traffic is lower-bounded by `Q_low`, so measured misses remain
//! an upper envelope for the bound (enforced by the soundness gate in
//! `tests/engine_equivalence.rs`).
//!
//! Huge instances degrade instead of hanging: the walker honours the
//! session's [`iolb_poly::budget`] checkpoints (deadline / cancellation) and
//! an explicit trace-length budget, marking the instance as skipped rather
//! than stalling a serve worker.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;

use crate::bound::Instance;
use crate::driver::Analysis;
use crate::json::Json;
use crate::workload::dfg_params;
pub use iolb_cachesim::{simulate_lru, simulate_optimal, CacheStats};
use iolb_cachesim::{DenseTrace, MAX_TRACE_LEN};
use iolb_dfg::Dfg;
use iolb_math::{lcm, Rational};
use iolb_poly::fxhash::BuildFx;
use iolb_poly::scan::{self, Row};
use iolb_poly::{AffineFunction, BasicMap, ConstraintKind, EngineCtx, EngineInterrupt, ScanPlan};

/// Default value assigned to every program parameter when no instance is
/// supplied: small enough to simulate in milliseconds, large enough that
/// boundary effects do not dominate.
pub const DEFAULT_SIMULATION_PARAM: i128 = 16;

/// Default fast-memory capacity (in words) simulated when none is requested.
pub const DEFAULT_CACHE_WORDS: usize = 1024;

/// Default trace-length budget (number of word accesses) per instance.
pub const DEFAULT_MAX_TRACE: u64 = 4_000_000;

/// Largest coordinate magnitude the walker will scan per dimension: a
/// derived loop range beyond it degrades the instance to a skipped entry.
const MAX_ENUM_BOUND: i128 = 1 << 20;

/// How the tightness pass is run: which instances, which cache sizes,
/// whether the (quadratic, hence opt-in) Belady simulation runs too, and the
/// trace-length budget.
#[derive(Clone, Debug)]
pub struct TightnessOptions {
    /// Concrete parameter instances to simulate. Empty means "derive one":
    /// every program parameter set to [`DEFAULT_SIMULATION_PARAM`].
    pub instances: Vec<Instance>,
    /// Fast-memory capacities (words) to simulate. Zero entries are ignored;
    /// empty falls back to [`DEFAULT_CACHE_WORDS`].
    pub cache_sizes: Vec<usize>,
    /// Also run the optimal-replacement (Belady) simulation.
    pub opt: bool,
    /// Trace-length budget per instance; a longer walk is marked skipped.
    pub max_trace: u64,
}

impl Default for TightnessOptions {
    fn default() -> Self {
        TightnessOptions {
            instances: Vec::new(),
            cache_sizes: vec![DEFAULT_CACHE_WORDS],
            opt: false,
            max_trace: DEFAULT_MAX_TRACE,
        }
    }
}

impl TightnessOptions {
    /// Adds one concrete instance to simulate.
    pub fn instance(mut self, instance: Instance) -> Self {
        self.instances.push(instance);
        self
    }

    /// Replaces the simulated cache-size list.
    pub fn cache_sizes(mut self, sizes: &[usize]) -> Self {
        self.cache_sizes = sizes.to_vec();
        self
    }

    /// Enables or disables the Belady (OPT) simulation.
    pub fn opt(mut self, opt: bool) -> Self {
        self.opt = opt;
        self
    }

    /// Sets the trace-length budget per instance.
    pub fn max_trace(mut self, max_trace: u64) -> Self {
        self.max_trace = max_trace;
        self
    }

    /// The cache sizes that will actually be simulated: positive entries,
    /// sorted and deduplicated, defaulting to [`DEFAULT_CACHE_WORDS`].
    pub fn effective_cache_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .cache_sizes
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        if sizes.is_empty() {
            sizes.push(DEFAULT_CACHE_WORDS);
        }
        sizes
    }
}

/// Why a trace could not be generated for an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TraceError {}

fn trace_err(message: impl Into<String>) -> TraceError {
    TraceError {
        message: message.into(),
    }
}

/// The address trace of one DFG walk at one concrete instance.
#[derive(Clone, Debug)]
pub struct GeneratedTrace {
    /// Word-granular address trace (first-touch sequential addresses).
    pub trace: Vec<u64>,
    /// Number of distinct addresses touched.
    pub distinct_addresses: u64,
    /// Arithmetic operations performed by the walked statement instances.
    pub ops: f64,
    /// Dynamic statement instances walked.
    pub points: u64,
    /// True when the walk stopped at the trace-length budget (the trace is a
    /// prefix and must not be fed to the tightness comparison).
    pub truncated: bool,
}

/// Measured misses at one cache size, next to the evaluated bound.
#[derive(Clone, Debug)]
pub struct CachePoint {
    /// Simulated fast-memory capacity in words.
    pub cache_words: usize,
    /// LRU simulation result.
    pub lru: CacheStats,
    /// Belady (OPT) simulation result, when requested.
    pub opt: Option<CacheStats>,
    /// `Q_low` evaluated at the instance with the cache parameter set to
    /// `cache_words` (`None` if the bound does not evaluate numerically).
    pub q_low: Option<f64>,
}

impl CachePoint {
    /// Tightness against LRU misses: `Q_low / lru_misses` (≤ 1 for a sound
    /// bound; closer to 1 is tighter).
    pub fn tightness_lru(&self) -> Option<f64> {
        match (self.q_low, self.lru.misses) {
            (Some(q), m) if m > 0 => Some(q / m as f64),
            _ => None,
        }
    }

    /// Tightness against OPT misses, when the Belady simulation ran.
    pub fn tightness_opt(&self) -> Option<f64> {
        match (self.q_low, &self.opt) {
            (Some(q), Some(o)) if o.misses > 0 => Some(q / o.misses as f64),
            _ => None,
        }
    }
}

/// Simulation results for one concrete instance.
#[derive(Clone, Debug)]
pub struct InstanceTightness {
    /// The instance (program parameters only; the cache parameter varies per
    /// [`CachePoint`]).
    pub instance: Instance,
    /// Generated trace length (prefix length when skipped mid-walk).
    pub trace_len: u64,
    /// Distinct addresses touched by the (possibly partial) walk.
    pub distinct_addresses: u64,
    /// Arithmetic operations covered by the walk.
    pub ops: f64,
    /// `Some(reason)` when the instance degraded (trace budget, engine
    /// budget trip, missing parameter, oversized enumeration) — no cache
    /// points are reported for a skipped instance.
    pub skipped: Option<String>,
    /// One entry per simulated cache size.
    pub caches: Vec<CachePoint>,
}

/// The combined two-sided locality report: measured misses vs. `Q_low` per
/// instance per cache size.
#[derive(Clone, Debug)]
pub struct TightnessReport {
    /// Name of the cache-size parameter of the bound (usually `S`).
    pub cache_param: String,
    /// The trace-length budget the walks ran under.
    pub max_trace: u64,
    /// One entry per requested instance.
    pub instances: Vec<InstanceTightness>,
}

impl TightnessReport {
    /// Instances that produced a full trace and at least one cache point.
    pub fn simulated(&self) -> impl Iterator<Item = &InstanceTightness> {
        self.instances
            .iter()
            .filter(|i| i.skipped.is_none() && !i.caches.is_empty())
    }

    /// The smallest LRU tightness ratio across all simulated points —
    /// the report's one-number summary.
    pub fn min_tightness_lru(&self) -> Option<f64> {
        self.simulated()
            .flat_map(|i| i.caches.iter().filter_map(CachePoint::tightness_lru))
            .fold(None, |acc, t| {
                Some(acc.map_or(t, |a: f64| if t < a { t } else { a }))
            })
    }

    /// The report as a JSON value: the `"tightness"` block of the analysis
    /// report.
    pub fn to_json_value(&self) -> Json {
        let instances = self.instances.iter().map(|inst| {
            let params = inst
                .instance
                .pairs()
                .into_iter()
                .map(|(k, v)| (k, v.into()));
            let caches = inst.caches.iter().map(|cp| {
                Json::obj([
                    ("cache_words", cp.cache_words.into()),
                    ("lru_accesses", cp.lru.accesses.into()),
                    ("lru_misses", cp.lru.misses.into()),
                    ("opt_misses", cp.opt.map(|o| o.misses).into()),
                    ("q_low", cp.q_low.map(Json::Float).into()),
                    ("tightness_lru", cp.tightness_lru().map(Json::Float).into()),
                    ("tightness_opt", cp.tightness_opt().map(Json::Float).into()),
                ])
            });
            Json::obj([
                ("params", Json::obj(params)),
                ("trace_len", inst.trace_len.into()),
                ("distinct_addresses", inst.distinct_addresses.into()),
                ("ops", Json::Float(inst.ops)),
                ("skipped", inst.skipped.as_deref().into()),
                ("caches", Json::Arr(caches.collect())),
            ])
        });
        Json::obj([
            ("cache_param", self.cache_param.as_str().into()),
            ("max_trace", self.max_trace.into()),
            ("instances", Json::Arr(instances.collect())),
        ])
    }

    /// The report as a JSON document in the canonical layout.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }

    /// One-line human summary, e.g. for CLI output.
    pub fn summary_line(&self) -> String {
        let simulated = self.simulated().count();
        let skipped = self.instances.len() - simulated;
        match self.min_tightness_lru() {
            Some(t) => format!(
                "tightness: {simulated} instance(s) simulated, {skipped} skipped, min Q_low/LRU-misses = {t:.4}"
            ),
            None => format!("tightness: {simulated} instance(s) simulated, {skipped} skipped"),
        }
    }
}

/// Achieved operational intensity of an externally generated reference trace
/// (the Figure-6 measurement path): LRU-simulate the trace and divide the
/// operation count by the measured misses.
pub fn achieved_oi(trace: &[u64], ops: f64, cache_words: usize) -> f64 {
    simulate_lru(trace, cache_words).operational_intensity(ops)
}

// ---------------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------------

/// How one incoming dependence resolves its producer coordinate from a
/// consumer point.
enum Resolver {
    /// The relation is reverse-functional: producer coordinate `j` is
    /// `rows[j] · point / den` (no read when it is fractional), guarded by
    /// the relation's rows composed with the function into rows over the
    /// consumer point.
    Function {
        rows: Vec<Row>,
        den: i128,
        guard: Vec<Row>,
    },
    /// General fallback: scan the producers related to the consumer point,
    /// which is the plan's fixed suffix.
    Search(ScanPlan),
}

/// One incoming dependence of a statement, compiled for the walk.
struct ReadPlan {
    src_idx: usize,
    resolver: Resolver,
}

/// One statement of the walk: its domain scan and compiled reads.
struct StatementPlan {
    node_idx: usize,
    domain: ScanPlan,
    ops_per_instance: u64,
    reads: Vec<ReadPlan>,
}

/// Exact packing of one node's memory cells into disjoint `u64` keys: a
/// mixed-radix index over the kept (uncollapsed) dimensions, offset by the
/// node's base.
#[derive(Default)]
struct CellKeys {
    base: u64,
    /// `(coordinate, lowest value, stride)` per kept dimension.
    dims: Vec<(usize, i128, u64)>,
}

impl CellKeys {
    #[inline]
    fn key(&self, coords: &[i128]) -> u64 {
        self.dims.iter().fold(self.base, |k, &(d, lo, stride)| {
            k + (coords[d] - lo) as u64 * stride
        })
    }
}

/// A semantic signature for an edge's read side, independent of constraint
/// declaration order: identical programs produce identical signatures, which
/// keeps the read order (and hence first-touch addresses) byte-identical
/// between a built-in kernel and its `.iolb` twin.
fn read_signature(relation: &BasicMap, function: Option<&AffineFunction>) -> String {
    match function {
        Some(f) => {
            let mut s = String::from("fn:");
            for r in 0..f.constants.len() {
                if r > 0 {
                    s.push(';');
                }
                for c in 0..f.linear.num_cols() {
                    let _ = write!(s, "{},", f.linear[(r, c)]);
                }
                for (p, q) in &f.param_coeffs[r] {
                    let _ = write!(s, "{p}*{q},");
                }
                let _ = write!(s, "+{}", f.constants[r]);
            }
            s
        }
        None => format!("search:{relation}"),
    }
}

/// The per-node memory-cell collapse mask. A statement whose value space
/// carries a *unique* self dependence that is a pure translation along
/// exactly one dimension is a reduction: that dimension is dropped from the
/// cell key (the accumulation happens in place). Inputs and every other
/// shape keep all dimensions — which can only inflate the measured misses,
/// never deflate them below a valid schedule's traffic.
fn collapse_mask(dfg: &Dfg, name: &str, dims: usize) -> Vec<bool> {
    let self_edges: Vec<&iolb_dfg::DfgEdge> = dfg
        .edges()
        .iter()
        .filter(|e| e.src == name && e.dst == name)
        .collect();
    let mut keep = vec![true; dims];
    if let [only] = self_edges.as_slice() {
        if let Some(offsets) = only.relation.translation_offsets() {
            let nonzero: Vec<usize> = offsets
                .iter()
                .enumerate()
                .filter(|(_, &o)| o != 0)
                .map(|(d, _)| d)
                .collect();
            if let [d] = nonzero.as_slice() {
                keep[*d] = false;
            }
        }
    }
    keep
}

/// `producer = f(consumer)` at the instance, as one integer row per producer
/// coordinate over a common denominator (rows used as affine values, so
/// their `kind` is unused).
fn function_rows(f: &AffineFunction, env: &BTreeMap<String, i128>) -> (Vec<Row>, i128) {
    let n_out = f.linear.num_cols();
    let mut exact = Vec::with_capacity(f.constants.len());
    let mut den = 1;
    for j in 0..f.constants.len() {
        let coeffs: Vec<Rational> = (0..n_out).map(|k| f.linear[(j, k)]).collect();
        let mut constant = f.constants[j];
        for (p, q) in &f.param_coeffs[j] {
            constant += *q * Rational::from_int(env[p]);
        }
        for c in coeffs.iter().chain([&constant]) {
            den = lcm(den, c.denom());
        }
        exact.push((coeffs, constant));
    }
    let scaled = |q: Rational| (q * Rational::from_int(den)).numer();
    let rows = exact
        .into_iter()
        .map(|(coeffs, constant)| Row {
            coeffs: coeffs.into_iter().map(scaled).collect(),
            constant: scaled(constant),
            kind: ConstraintKind::Inequality,
        })
        .collect();
    (rows, den)
}

/// Substitutes `producer = rows · point / den` into the relation's rows
/// (over `(producer, consumer)`), scaled by `den`: rows over the consumer
/// point alone, equivalent wherever the producer is integral. Rows the
/// consumer's domain already implies are dropped; `None` means the relation
/// can never hold.
fn compose_guard(relation: &[Row], rows: &[Row], den: i128, domain: &[Row]) -> Option<Vec<Row>> {
    let n_in = rows.len();
    let composed = relation.iter().map(|r| {
        let mut out = Row {
            coeffs: r.coeffs[n_in..].iter().map(|&c| c * den).collect(),
            constant: r.constant * den,
            kind: r.kind,
        };
        for (a, f) in r.coeffs[..n_in].iter().zip(rows) {
            for (o, &c) in out.coeffs.iter_mut().zip(&f.coeffs) {
                *o += a * c;
            }
            out.constant += a * f.constant;
        }
        out
    });
    let guard = scan::simplify(composed)?;
    let implied = |g: &Row| {
        domain.iter().any(|d| {
            let sign = if d.coeffs == g.coeffs {
                1
            } else if d.kind == ConstraintKind::Equality
                && d.coeffs.iter().zip(&g.coeffs).all(|(&x, &y)| x == -y)
            {
                -1
            } else {
                return false;
            };
            // On the domain, g(x) = sign·d(x) + slack.
            let slack = g.constant - sign * d.constant;
            match (d.kind, g.kind) {
                (ConstraintKind::Equality, ConstraintKind::Equality) => slack == 0,
                (ConstraintKind::Equality, ConstraintKind::Inequality) => slack >= 0,
                (ConstraintKind::Inequality, ConstraintKind::Inequality) => slack >= 0,
                (ConstraintKind::Inequality, ConstraintKind::Equality) => false,
            }
        })
    };
    Some(guard.into_iter().filter(|g| !implied(g)).collect())
}

/// Widens `acc` to cover `other` coordinate-wise.
fn hull(acc: &mut Option<Vec<(i128, i128)>>, other: &[(i128, i128)]) {
    match acc {
        Some(cur) => {
            for (c, &(lo, hi)) in cur.iter_mut().zip(other) {
                *c = (c.0.min(lo), c.1.max(hi));
            }
        }
        None => *acc = Some(other.to_vec()),
    }
}

/// The coordinate box a function read can produce from consumer points in
/// `consumer` (interval arithmetic; `None` when no coordinate is integral).
fn image_box(rows: &[Row], den: i128, consumer: &[(i128, i128)]) -> Option<Vec<(i128, i128)>> {
    rows.iter()
        .map(|r| {
            let (mut lo, mut hi) = (r.constant, r.constant);
            for (&c, &(a, b)) in r.coeffs.iter().zip(consumer) {
                lo += (c * a).min(c * b);
                hi += (c * a).max(c * b);
            }
            let (lo, hi) = (-(-lo).div_euclid(den), hi.div_euclid(den));
            (lo <= hi).then_some((lo, hi))
        })
        .collect()
}

/// The scan box of a domain or producer search, checked against
/// [`MAX_ENUM_BOUND`]: unbounded or oversized dimensions are errors.
fn checked_box(
    rows: &[Row],
    dims: usize,
    what: &str,
) -> Result<Option<Vec<(i128, i128)>>, TraceError> {
    let bbox = scan::bounding_box(rows, dims)
        .map_err(|e| trace_err(format!("cannot enumerate {what}: {e}")))?;
    if let Some(b) = &bbox {
        if let Some(&(lo, hi)) = b
            .iter()
            .find(|&&(lo, hi)| lo < -MAX_ENUM_BOUND || hi > MAX_ENUM_BOUND)
        {
            return Err(trace_err(format!(
                "instance too large to enumerate directly ({what} spans {lo}..={hi}, \
                 beyond ±{MAX_ENUM_BOUND}); simulate at smaller parameter values"
            )));
        }
    }
    Ok(bbox)
}

struct Walker {
    engine: std::sync::Arc<EngineCtx>,
    max_trace: u64,
    trace: Vec<u64>,
    /// First-touch addresses by packed cell key. The keys are mixed-radix
    /// indices the walker computes, not raw input, so Fx hashing is safe.
    addresses: HashMap<u64, u64, BuildFx>,
    ops: f64,
    points: u64,
    truncated: bool,
    work: u32,
}

impl Walker {
    /// Records one access to a packed cell key, assigning first-touch
    /// sequential addresses; polls the budget every 1024 accesses.
    #[inline]
    fn touch(&mut self, key: u64) {
        self.work = self.work.wrapping_add(1);
        if self.work.is_multiple_of(1024) {
            self.engine.checkpoint_poll();
        }
        if self.trace.len() as u64 >= self.max_trace {
            self.truncated = true;
            return;
        }
        let next = self.addresses.len() as u64;
        let addr = *self.addresses.entry(key).or_insert(next);
        self.trace.push(addr);
    }

    /// Emits the accesses of one dynamic statement instance; `false` once
    /// the trace budget is exhausted.
    fn visit(
        &mut self,
        st: &StatementPlan,
        keys: &[CellKeys],
        point: &[i128],
        src: &mut Vec<i128>,
        buf: &mut Vec<i128>,
    ) -> bool {
        for read in &st.reads {
            let cells = &keys[read.src_idx];
            match &read.resolver {
                Resolver::Function { rows, den, guard } => {
                    if !guard.iter().all(|g| g.holds(point)) {
                        continue;
                    }
                    src.clear();
                    for r in rows {
                        let acc = r.eval(point);
                        if acc % den != 0 {
                            break;
                        }
                        src.push(acc / den);
                    }
                    if src.len() == rows.len() {
                        self.touch(cells.key(src));
                    }
                }
                Resolver::Search(plan) => {
                    plan.scan(point, buf, |s| {
                        self.touch(cells.key(s));
                        !self.truncated
                    });
                }
            }
            if self.truncated {
                return false;
            }
        }
        self.touch(keys[st.node_idx].key(point));
        self.ops += st.ops_per_instance as f64;
        self.points += 1;
        !self.truncated
    }
}

/// Generates the canonical statement-major address trace of `dfg` at
/// `instance`. Honours the ambient session's budget checkpoints; a walk
/// longer than `max_trace` accesses returns with `truncated = true`.
///
/// The walk is compiled once per instance: parameter values are folded into
/// integer rows, every domain (and every producer search) becomes a
/// [`ScanPlan`] with exact loop bounds, functional reads become integer rows
/// with their relation composed into a guard over the consumer point, and
/// memory cells pack into exact `u64` keys. A scanned dimension that is
/// unbounded or exceeds `±MAX_ENUM_BOUND` at the instance is an error.
pub fn generate_trace(
    dfg: &Dfg,
    instance: &Instance,
    max_trace: u64,
) -> Result<GeneratedTrace, TraceError> {
    let params = dfg_params(dfg);
    let mut env: BTreeMap<String, i128> = BTreeMap::new();
    for p in &params {
        match instance.get(p) {
            Some(v) => {
                env.insert(p.clone(), v);
            }
            None => {
                return Err(trace_err(format!(
                    "parameter `{p}` has no value in the simulation instance"
                )))
            }
        }
    }
    let pairs: Vec<(&str, i128)> = env.iter().map(|(k, &v)| (k.as_str(), v)).collect();
    let fold = |constraints: &[iolb_poly::Constraint]| {
        scan::instantiate(constraints, &pairs).map_err(|e| trace_err(e.to_string()))
    };

    let nodes = dfg.nodes();
    let node_index: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.name.as_str(), i))
        .collect();
    let keeps: Vec<Vec<bool>> = nodes
        .iter()
        .map(|n| {
            if n.is_input {
                vec![true; n.domain.dim()]
            } else {
                collapse_mask(dfg, &n.name, n.domain.dim())
            }
        })
        .collect();

    // Per-node coordinate boxes: statement domains plus every read image.
    let mut boxes: Vec<Option<Vec<(i128, i128)>>> = vec![None; nodes.len()];
    let mut plans: Vec<StatementPlan> = Vec::new();
    for (idx, node) in nodes.iter().enumerate() {
        if node.is_input {
            continue;
        }
        let what = format!("statement `{}`", node.name);
        let domain_rows = fold(node.domain.constraints())?;
        let Some(domain_box) = checked_box(&domain_rows, node.domain.dim(), &what)? else {
            continue; // no points at this instance
        };
        hull(&mut boxes[idx], &domain_box);
        let domain_norm = scan::simplify(domain_rows.iter().cloned()).unwrap_or_default();

        let mut reads: Vec<(String, ReadPlan)> = Vec::new();
        for edge in dfg.edges().iter().filter(|e| e.dst == node.name) {
            let src_idx = *node_index
                .get(edge.src.as_str())
                .ok_or_else(|| trace_err(format!("edge from unknown node `{}`", edge.src)))?;
            let function = edge.relation.as_function_of_range();
            let key = format!(
                "{}\u{0}{}",
                edge.src,
                read_signature(&edge.relation, function.as_ref())
            );
            let relation_rows = fold(edge.relation.constraints())?;
            let resolver = match &function {
                Some(f) => {
                    let (rows, den) = function_rows(f, &env);
                    let Some(guard) = compose_guard(&relation_rows, &rows, den, &domain_norm)
                    else {
                        continue; // the relation never holds at this instance
                    };
                    if let Some(image) = image_box(&rows, den, &domain_box) {
                        hull(&mut boxes[src_idx], &image);
                    }
                    Resolver::Function { rows, den, guard }
                }
                None => {
                    // Producers of in-domain consumers: the consumer's domain
                    // rows bound the fixed suffix for the scan box.
                    let n_in = edge.relation.n_in();
                    let mut rows = relation_rows;
                    rows.extend(domain_rows.iter().map(|r| {
                        let mut coeffs = vec![0; n_in];
                        coeffs.extend_from_slice(&r.coeffs);
                        Row {
                            coeffs,
                            ..r.clone()
                        }
                    }));
                    let what = format!("producers of `{}` read by `{}`", edge.src, node.name);
                    if let Some(image) = checked_box(&rows, n_in, &what)? {
                        hull(&mut boxes[src_idx], &image);
                    }
                    let plan = ScanPlan::new(rows, n_in)
                        .map_err(|e| trace_err(format!("cannot enumerate {what}: {e}")))?;
                    Resolver::Search(plan)
                }
            };
            reads.push((key, ReadPlan { src_idx, resolver }));
        }
        reads.sort_by(|a, b| a.0.cmp(&b.0));
        let domain = ScanPlan::new(domain_rows, node.domain.dim())
            .map_err(|e| trace_err(format!("cannot enumerate {what}: {e}")))?;
        plans.push(StatementPlan {
            node_idx: idx,
            domain,
            ops_per_instance: node.ops_per_instance,
            reads: reads.into_iter().map(|(_, r)| r).collect(),
        });
    }

    // Lay the nodes' cell spaces end to end in one u64 key space.
    let too_large = || {
        trace_err(
            "instance too large to enumerate directly (cell key space exceeds 64 bits); \
             simulate at smaller parameter values",
        )
    };
    let mut keys: Vec<CellKeys> = Vec::with_capacity(nodes.len());
    let mut next_base: u64 = 0;
    for (bbox, keep) in boxes.iter().zip(&keeps) {
        let Some(bbox) = bbox else {
            keys.push(CellKeys::default());
            continue;
        };
        let mut cells = CellKeys {
            base: next_base,
            dims: Vec::new(),
        };
        let mut stride: u64 = 1;
        for (d, &(lo, hi)) in bbox.iter().enumerate().rev() {
            if keep[d] {
                cells.dims.push((d, lo, stride));
                let span = u64::try_from(hi - lo + 1).map_err(|_| too_large())?;
                stride = stride.checked_mul(span).ok_or_else(too_large)?;
            }
        }
        next_base = next_base.checked_add(stride).ok_or_else(too_large)?;
        keys.push(cells);
    }

    let mut walker = Walker {
        engine: EngineCtx::current(),
        max_trace,
        trace: Vec::new(),
        addresses: HashMap::default(),
        ops: 0.0,
        points: 0,
        truncated: false,
        work: 0,
    };
    let (mut src, mut search_buf, mut domain_buf) = (Vec::new(), Vec::new(), Vec::new());
    for st in &plans {
        st.domain.scan(&[], &mut domain_buf, |point| {
            walker.visit(st, &keys, point, &mut src, &mut search_buf)
        });
        if walker.truncated {
            break;
        }
    }

    Ok(GeneratedTrace {
        distinct_addresses: walker.addresses.len() as u64,
        trace: walker.trace,
        ops: walker.ops,
        points: walker.points,
        truncated: walker.truncated,
    })
}

/// Runs the full tightness pass for a prepared workload's DFG against its
/// analysis: walk each requested instance, simulate each cache size, and
/// evaluate `Q_low` alongside. Engine-budget trips and oversized instances
/// degrade to `skipped` entries instead of failing the pass.
pub fn measure(
    dfg: &Dfg,
    analysis: &Analysis,
    params: &[String],
    options: &TightnessOptions,
) -> TightnessReport {
    let cache_sizes = options.effective_cache_sizes();
    let requested: Vec<Instance> = if options.instances.is_empty() {
        let mut inst = Instance::new();
        for p in params {
            inst = inst.set(p, DEFAULT_SIMULATION_PARAM);
        }
        vec![inst]
    } else {
        options.instances.clone()
    };

    let mut instances = Vec::with_capacity(requested.len());
    for instance in requested {
        let generated =
            EngineInterrupt::catch(|| generate_trace(dfg, &instance, options.max_trace));
        let entry = match generated {
            Err(interrupt) => InstanceTightness {
                instance,
                trace_len: 0,
                distinct_addresses: 0,
                ops: 0.0,
                skipped: Some(format!("engine budget tripped: {}", interrupt.code())),
                caches: Vec::new(),
            },
            Ok(Err(err)) => InstanceTightness {
                instance,
                trace_len: 0,
                distinct_addresses: 0,
                ops: 0.0,
                skipped: Some(err.message),
                caches: Vec::new(),
            },
            Ok(Ok(gt)) if gt.truncated => InstanceTightness {
                instance,
                trace_len: gt.trace.len() as u64,
                distinct_addresses: gt.distinct_addresses,
                ops: gt.ops,
                skipped: Some(format!(
                    "trace budget exceeded ({} accesses); raise max_trace or shrink the instance",
                    options.max_trace
                )),
                caches: Vec::new(),
            },
            Ok(Ok(gt)) if gt.trace.len() > MAX_TRACE_LEN => InstanceTightness {
                instance,
                trace_len: gt.trace.len() as u64,
                distinct_addresses: gt.distinct_addresses,
                ops: gt.ops,
                skipped: Some(format!(
                    "trace of {} accesses exceeds the cache simulator limit of {MAX_TRACE_LEN}",
                    gt.trace.len()
                )),
                caches: Vec::new(),
            },
            Ok(Ok(gt)) => {
                // One renumbering serves every cache size and both policies.
                let prepared = DenseTrace::new(&gt.trace);
                let caches = cache_sizes
                    .iter()
                    .map(|&c| {
                        let at = instance.clone().set(&analysis.cache_param, c as i128);
                        CachePoint {
                            cache_words: c,
                            lru: prepared.lru(c),
                            opt: options.opt.then(|| prepared.optimal(c)),
                            q_low: analysis.q_at(&at),
                        }
                    })
                    .collect();
                InstanceTightness {
                    instance,
                    trace_len: gt.trace.len() as u64,
                    distinct_addresses: gt.distinct_addresses,
                    ops: gt.ops,
                    skipped: None,
                    caches,
                }
            }
        };
        instances.push(entry);
    }

    TightnessReport {
        cache_param: analysis.cache_param.clone(),
        max_trace: options.max_trace,
        instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_dfg() -> Dfg {
        iolb_polybench::kernel_by_name("gemm").unwrap().dfg()
    }

    fn touch_oracle(
        addresses: &mut HashMap<(&'static str, Vec<i128>), u64>,
        next: &mut u64,
        trace: &mut Vec<u64>,
        name: &'static str,
        cell: Vec<i128>,
    ) {
        let addr = *addresses.entry((name, cell)).or_insert_with(|| {
            let a = *next;
            *next += 1;
            a
        });
        trace.push(addr);
    }

    /// The trace-generator pin: a hand-written replay of the documented walk
    /// semantics for gemm must reproduce the generated trace byte for byte —
    /// statement-major lex order, reads sorted by (src, signature) so the
    /// self-dependence read lands between B and Cin, first-touch addresses,
    /// and the reduction collapse of `C[i,j,k]` onto the cell `C[i,j]`.
    #[test]
    fn gemm_trace_matches_hand_written_oracle() {
        let _session = EngineCtx::new().enter();
        let (ni, nj, nk) = (3i128, 4i128, 5i128);
        let instance = Instance::new().set("Ni", ni).set("Nj", nj).set("Nk", nk);
        let generated = generate_trace(&gemm_dfg(), &instance, DEFAULT_MAX_TRACE).unwrap();

        let mut addresses = HashMap::new();
        let mut next = 0u64;
        let mut expected = Vec::new();
        for i in 0..ni {
            for j in 0..nj {
                for k in 0..nk {
                    touch_oracle(&mut addresses, &mut next, &mut expected, "A", vec![i, k]);
                    touch_oracle(&mut addresses, &mut next, &mut expected, "B", vec![k, j]);
                    if k > 0 {
                        touch_oracle(&mut addresses, &mut next, &mut expected, "C", vec![i, j]);
                    } else {
                        touch_oracle(&mut addresses, &mut next, &mut expected, "Cin", vec![i, j]);
                    }
                    touch_oracle(&mut addresses, &mut next, &mut expected, "C", vec![i, j]);
                }
            }
        }

        assert_eq!(generated.trace, expected);
        assert_eq!(generated.distinct_addresses, next);
        assert_eq!(
            generated.distinct_addresses,
            (ni * nk + nk * nj + 2 * ni * nj) as u64
        );
        assert_eq!(generated.points, (ni * nj * nk) as u64);
        assert_eq!(generated.ops, (2 * ni * nj * nk) as f64);
        assert!(!generated.truncated);
    }

    #[test]
    fn trace_budget_truncates_instead_of_hanging() {
        let _session = EngineCtx::new().enter();
        let instance = Instance::new().set("Ni", 8).set("Nj", 8).set("Nk", 8);
        let generated = generate_trace(&gemm_dfg(), &instance, 10).unwrap();
        assert!(generated.truncated);
        assert_eq!(generated.trace.len(), 10);
    }

    #[test]
    fn missing_parameter_is_an_error_not_a_panic() {
        let _session = EngineCtx::new().enter();
        let instance = Instance::new().set("Ni", 4).set("Nj", 4);
        let err = generate_trace(&gemm_dfg(), &instance, 100).unwrap_err();
        assert!(err.message.contains("Nk"), "{}", err.message);
    }

    #[test]
    fn oversized_instances_degrade_to_an_error() {
        let _session = EngineCtx::new().enter();
        let instance = Instance::new().set("Ni", 1 << 30).set("Nj", 4).set("Nk", 4);
        let err = generate_trace(&gemm_dfg(), &instance, 100).unwrap_err();
        assert!(err.message.contains("too large"), "{}", err.message);
    }

    #[test]
    fn effective_cache_sizes_filters_sorts_dedups_and_defaults() {
        let opts = TightnessOptions::default().cache_sizes(&[8192, 0, 1024, 8192]);
        assert_eq!(opts.effective_cache_sizes(), vec![1024, 8192]);
        let empty = TightnessOptions::default().cache_sizes(&[0]);
        assert_eq!(empty.effective_cache_sizes(), vec![DEFAULT_CACHE_WORDS]);
    }

    #[test]
    fn generation_is_deterministic_across_runs() {
        let _session = EngineCtx::new().enter();
        let instance = Instance::new().set("Ni", 4).set("Nj", 4).set("Nk", 4);
        let a = generate_trace(&gemm_dfg(), &instance, DEFAULT_MAX_TRACE).unwrap();
        let b = generate_trace(&gemm_dfg(), &instance, DEFAULT_MAX_TRACE).unwrap();
        assert_eq!(a.trace, b.trace);
    }
}
