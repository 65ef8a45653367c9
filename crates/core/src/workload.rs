//! The [`Workload`] trait: one door into the analysis for every program
//! representation.
//!
//! The suite has three ways to describe a program — built-in PolyBench
//! kernels (`iolb-polybench`), hand-written polyhedral IR (`iolb-ir`), and
//! affine-C source / `.iolb` files (`iolb-frontend`). A [`Workload`] turns
//! any of them into a [`PreparedWorkload`]: the DFG to analyse plus the
//! metadata the driver and the report need (name, program parameters, tuned
//! options, the symbolic operation count when known).
//!
//! **Session binding.** [`Workload::prepare`] is always invoked by
//! [`crate::Analyzer`] *inside* the engine session the analysis will run in,
//! so implementations should construct their polyhedral objects from
//! session-independent source data (names, source text, ISL-like notation)
//! at `prepare` time. Implementations over pre-built polyhedral objects
//! (e.g. a raw [`Dfg`]) are bound to the session those objects were created
//! in — analyse them with [`crate::Analyzer::engine`] pointing at that
//! session (resolving a foreign object panics rather than silently aliasing
//! parameter names).

use iolb_dfg::Dfg;
use iolb_poly::EngineCtx;

use crate::driver::AnalysisOptions;

/// A workload made ready for the driver: the DFG plus analysis metadata.
pub struct PreparedWorkload {
    /// Display name (kernel name, file stem, or a generic label).
    pub name: String,
    /// The data-flow graph to analyse.
    pub dfg: Dfg,
    /// The program parameters (sorted by name).
    pub params: Vec<String>,
    /// Workload-tuned analysis options, when the workload carries them
    /// (built-in kernels do); `None` lets the [`crate::Analyzer`] derive
    /// defaults from `params`.
    pub options: Option<AnalysisOptions>,
    /// Symbolic operation count override for the report, when known.
    pub ops: Option<iolb_symbol::Poly>,
    /// Source-level facts for preflight diagnostics (spans, declared vs.
    /// referenced arrays), when the workload was lowered from source text;
    /// `None` for built-in kernels and raw DFGs.
    pub source: Option<iolb_preflight::SourceInfo>,
}

/// An error preparing a workload (file I/O, front-end, lowering, …).
#[derive(Clone, Debug)]
pub struct WorkloadError(pub String);

impl WorkloadError {
    /// Builds an error from any displayable cause.
    pub fn new(msg: impl std::fmt::Display) -> Self {
        WorkloadError(msg.to_string())
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WorkloadError {}

/// Something the [`crate::Analyzer`] can analyse.
///
/// Implemented for [`Dfg`] here, for `Kernel` in `iolb-polybench`, for
/// `Program` / `AccessProgram` in `iolb-ir`, and for `LoweredProgram` /
/// `IolbSource` / `IolbFile` in `iolb-frontend`.
pub trait Workload {
    /// Builds the DFG and metadata. Called inside the analysis session.
    fn prepare(&self) -> Result<PreparedWorkload, WorkloadError>;

    /// A **canonical, session-independent** serialization of this workload
    /// for content-addressed result caching
    /// ([`crate::result_cache::ResultCache`]), or `None` to opt out.
    ///
    /// The contract: two workloads with equal keys must prepare to the same
    /// DFG, metadata and tuned options — byte-identical reports under equal
    /// [`crate::Analyzer`] knobs. Canonical means semantically irrelevant
    /// spelling differences (whitespace, comments) map to the same key.
    /// The default opts out, which is always safe: workloads without a key
    /// bypass the result cache and are computed fresh. Session-bound
    /// workloads (raw [`Dfg`]s, pre-lowered programs) must stay opted out —
    /// their identity lives in interned engine state, not in the value.
    fn cache_key(&self) -> Option<String> {
        None
    }
}

/// The parameters mentioned by a DFG (union over every node domain and edge
/// relation), sorted by name.
pub fn dfg_params(dfg: &Dfg) -> Vec<String> {
    EngineCtx::with_current(|engine| {
        let mut out: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for node in dfg.nodes() {
            for p in iolb_poly::fm::collect_params_in(engine, node.domain.constraints()) {
                out.insert(p);
            }
        }
        for edge in dfg.edges() {
            for p in iolb_poly::fm::collect_params_in(engine, edge.relation.constraints()) {
                out.insert(p);
            }
        }
        out.into_iter().collect()
    })
}

/// A raw DFG is a workload. **Session binding applies**: the DFG embeds
/// interned parameter ids, so analyse it in the session it was built in
/// (pass that session to [`crate::Analyzer::engine`]).
impl Workload for Dfg {
    fn prepare(&self) -> Result<PreparedWorkload, WorkloadError> {
        Ok(PreparedWorkload {
            name: "program".to_string(),
            params: dfg_params(self),
            dfg: self.clone(),
            options: None,
            ops: None,
            source: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfg_params_collects_and_sorts() {
        let _session = EngineCtx::new().enter();
        let dfg = Dfg::builder()
            .input("X", "[N, M] -> { X[i] : 0 <= i < N + M }")
            .statement("S", "[N] -> { S[i] : 0 <= i < N }")
            .edge("X", "S", "[N] -> { X[i] -> S[i2] : i2 = i and 0 <= i < N }")
            .build()
            .unwrap();
        assert_eq!(dfg_params(&dfg), vec!["M".to_string(), "N".to_string()]);
        let prepared = dfg.prepare().unwrap();
        assert_eq!(prepared.name, "program");
        assert!(prepared.options.is_none());
    }
}
