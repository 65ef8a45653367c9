//! # iolb-ir
//!
//! A small polyhedral program representation and front end — the role PET
//! plays for the original IOLB. A [`Program`] lists arrays and statements
//! with parametric iteration domains and affine array accesses (all written
//! in the same ISL-like notation used throughout the suite); [`Program::to_dfg`]
//! derives flow-dependence edges and produces the [`iolb_dfg::Dfg`] consumed
//! by the analysis.
//!
//! Dependence computation is value-based for single-assignment access
//! patterns (each array cell written by at most one statement instance),
//! which covers the way kernels are expressed in this suite; programs outside
//! that class should construct their DFG directly with [`iolb_dfg::Dfg::builder`].
//!
//! ## Example
//!
//! ```
//! use iolb_ir::Program;
//! # let _session = iolb_poly::EngineCtx::new().enter();
//!
//! // The elementary example of Fig. 1: A[i] = A[i] * C[t] in single
//! // assignment form S[t, i].
//! let program = Program::new()
//!     .array("A", "[N] -> { A[i] : 0 <= i < N }")
//!     .array("C", "[M] -> { C[t] : 0 <= t < M }")
//!     .statement(
//!         "S",
//!         "[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }",
//!         // writes S[t, i] (its own value), reads C[t] and the previous S.
//!         &["[M, N] -> { S[t, i] -> C[t2] : t2 = t }"],
//!     )
//!     .flow("S", "S", "[M, N] -> { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }")
//!     .flow("A", "S", "[N] -> { A[i] -> S[t, i2] : t = 0 and i2 = i and 0 <= i < N }")
//!     .build();
//! let dfg = program.to_dfg().unwrap();
//! assert_eq!(dfg.statements().count(), 1);
//! assert_eq!(dfg.edges().len(), 3);
//! ```

#![warn(missing_docs)]

pub mod dataflow;

pub use dataflow::{Access, AccessProgram, AccessStatement, ArrayInfo, DataflowError, SchedStep};

use iolb_dfg::{Dfg, DfgError};

/// A read access of a statement: a relation from statement instances to the
/// producer (array or statement) instances they consume.
#[derive(Clone, Debug)]
struct ReadAccess {
    relation_src: String,
}

/// A statement of the program.
#[derive(Clone, Debug)]
struct Statement {
    name: String,
    domain_src: String,
    reads: Vec<ReadAccess>,
    ops: u64,
}

/// An input array.
#[derive(Clone, Debug)]
struct ArrayDecl {
    name: String,
    domain_src: String,
}

/// An explicit flow-dependence edge added by the user.
#[derive(Clone, Debug)]
struct FlowEdge {
    src: String,
    dst: String,
    relation_src: String,
}

/// Builder for a [`Program`].
#[derive(Default, Debug)]
pub struct ProgramBuilder {
    arrays: Vec<ArrayDecl>,
    statements: Vec<Statement>,
    flows: Vec<FlowEdge>,
}

impl ProgramBuilder {
    /// Declares an input array with its index domain.
    pub fn array(mut self, name: &str, domain: &str) -> Self {
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            domain_src: domain.to_string(),
        });
        self
    }

    /// Declares a statement with its iteration domain and read-access
    /// relations (each written as `{ S[..] -> Producer[..] : .. }`); the
    /// statement performs one operation per instance.
    pub fn statement(self, name: &str, domain: &str, reads: &[&str]) -> Self {
        self.statement_with_ops(name, domain, reads, 1)
    }

    /// Declares a statement with an explicit per-instance operation count.
    pub fn statement_with_ops(
        mut self,
        name: &str,
        domain: &str,
        reads: &[&str],
        ops: u64,
    ) -> Self {
        self.statements.push(Statement {
            name: name.to_string(),
            domain_src: domain.to_string(),
            reads: reads
                .iter()
                .map(|r| ReadAccess {
                    relation_src: r.to_string(),
                })
                .collect(),
            ops,
        });
        self
    }

    /// Adds an explicit flow-dependence edge (producer → consumer), used for
    /// dependences the read-access syntax cannot express directly (e.g.
    /// last-writer relations that the user has already resolved).
    pub fn flow(mut self, src: &str, dst: &str, relation: &str) -> Self {
        self.flows.push(FlowEdge {
            src: src.to_string(),
            dst: dst.to_string(),
            relation_src: relation.to_string(),
        });
        self
    }

    /// Finalises the program description.
    pub fn build(self) -> Program {
        Program {
            arrays: self.arrays,
            statements: self.statements,
            flows: self.flows,
        }
    }
}

/// A polyhedral program: arrays, statements with affine accesses, and
/// (optionally) user-resolved flow dependences.
#[derive(Clone, Debug)]
pub struct Program {
    arrays: Vec<ArrayDecl>,
    statements: Vec<Statement>,
    flows: Vec<FlowEdge>,
}

impl Program {
    /// Starts building a program.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Number of statements.
    pub fn num_statements(&self) -> usize {
        self.statements.len()
    }

    /// Number of declared arrays.
    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }

    /// Lowers the program to a data-flow graph.
    ///
    /// Read accesses `S → Producer` become DFG edges `Producer → S` by
    /// inverting the access relation; explicit flow edges are passed through
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`DfgError`] when a domain or relation fails to
    /// parse or refers to an undeclared array/statement.
    pub fn to_dfg(&self) -> Result<Dfg, DfgError> {
        let mut builder = Dfg::builder();
        for a in &self.arrays {
            builder = builder.input(&a.name, &a.domain_src);
        }
        for s in &self.statements {
            builder = builder.statement_with_ops(&s.name, &s.domain_src, s.ops);
        }
        // Read accesses: parse as statement→producer relations, invert them
        // into producer→statement dependence edges.
        for s in &self.statements {
            for r in &s.reads {
                let access = iolb_poly::parse_map(&r.relation_src).map_err(DfgError::Parse)?;
                let producer = access.out_space().name().to_string();
                let inverted = access.inverse();
                let rendered = render_map_as_source(&inverted, &r.relation_src)?;
                builder = builder.edge(&producer, &s.name, &rendered);
            }
        }
        for f in &self.flows {
            builder = builder.edge(&f.src, &f.dst, &f.relation_src);
        }
        builder.build()
    }
}

/// Re-renders an inverted access relation in the textual notation accepted by
/// the DFG builder. The inversion swaps the tuples of the original source, so
/// the rendered text simply swaps the two tuple sections and keeps the
/// condition.
fn render_map_as_source(
    inverted: &iolb_poly::BasicMap,
    original: &str,
) -> Result<String, DfgError> {
    // Split the original "<params> { IN -> OUT : COND }" and swap IN/OUT.
    let open = original.find('{').ok_or_else(|| parse_err(original))?;
    let close = original.rfind('}').ok_or_else(|| parse_err(original))?;
    let prefix = &original[..open];
    let body = &original[open + 1..close];
    let (tuples, cond) = match body.find(':') {
        Some(c) => (&body[..c], Some(&body[c + 1..])),
        None => (body, None),
    };
    let arrow = tuples.find("->").ok_or_else(|| parse_err(original))?;
    let in_tuple = tuples[..arrow].trim();
    let out_tuple = tuples[arrow + 2..].trim();
    let _ = inverted;
    let mut out = format!("{prefix}{{ {out_tuple} -> {in_tuple}");
    if let Some(c) = cond {
        out.push_str(" : ");
        out.push_str(c.trim());
    }
    out.push_str(" }");
    Ok(out)
}

fn parse_err(original: &str) -> DfgError {
    DfgError::Parse(iolb_poly::ParseError {
        message: format!("malformed access relation: {original}"),
        position: 0,
    })
}

/// A [`Program`] is an [`iolb_core::Workload`]: it holds only textual
/// (session-independent) sources, so the `Analyzer` can lower it inside
/// whichever engine session the analysis runs in.
impl iolb_core::Workload for Program {
    fn prepare(&self) -> Result<iolb_core::PreparedWorkload, iolb_core::WorkloadError> {
        let dfg = self
            .to_dfg()
            .map_err(|e| iolb_core::WorkloadError::new(format!("ir program: {e}")))?;
        Ok(iolb_core::PreparedWorkload {
            name: "program".to_string(),
            params: iolb_core::workload::dfg_params(&dfg),
            dfg,
            options: None,
            ops: None,
            source: None,
        })
    }
}

/// An [`AccessProgram`] is an [`iolb_core::Workload`]. **Session binding
/// applies**: its domains and access expressions embed interned parameter
/// ids, so analyse it in the session it was built in (see
/// `iolb_core::Analyzer::engine`).
impl iolb_core::Workload for AccessProgram {
    fn prepare(&self) -> Result<iolb_core::PreparedWorkload, iolb_core::WorkloadError> {
        let dfg = self
            .to_dfg()
            .map_err(|e| iolb_core::WorkloadError::new(format!("dataflow: {e}")))?;
        Ok(iolb_core::PreparedWorkload {
            name: "program".to_string(),
            params: iolb_core::workload::dfg_params(&dfg),
            dfg,
            options: None,
            ops: None,
            source: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_poly::EngineCtx;

    #[test]
    fn program_lowers_to_dfg() {
        let _session = EngineCtx::new().enter();
        let program = Program::new()
            .array("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
            .array("B", "[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
            .statement_with_ops(
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                &[
                    "[Ni, Nj, Nk] -> { C[i, j, k] -> A[i2, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                    "[Ni, Nj, Nk] -> { C[i, j, k] -> B[k2, j2] : j2 = j and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                ],
                2,
            )
            .flow(
                "C",
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }",
            )
            .build();
        assert_eq!(program.num_statements(), 1);
        assert_eq!(program.num_arrays(), 2);
        let dfg = program.to_dfg().unwrap();
        assert_eq!(dfg.edges().len(), 3);
        // The inverted access edge goes from A into C and relates the right
        // instances.
        let a_edge = dfg.edges().iter().find(|e| e.src == "A").unwrap();
        assert!(a_edge
            .relation
            .contains(&[1, 2], &[1, 0, 2], &[("Ni", 4), ("Nj", 4), ("Nk", 4)]));
    }

    #[test]
    fn lowered_gemm_analyses_like_the_handwritten_dfg() {
        let _session = EngineCtx::new().enter();
        let program = Program::new()
            .array("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
            .array("B", "[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
            .statement_with_ops(
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                &[
                    "[Ni, Nj, Nk] -> { C[i, j, k] -> A[i2, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                    "[Ni, Nj, Nk] -> { C[i, j, k] -> B[k2, j2] : j2 = j and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                ],
                2,
            )
            .flow(
                "C",
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }",
            )
            .build();
        let dfg = program.to_dfg().unwrap();
        let mut options =
            iolb_core::AnalysisOptions::with_default_instance(&["Ni", "Nj", "Nk"], 512, 1024);
        options.max_parametrization_depth = 0;
        let analysis = iolb_core::analyze(&dfg, &options);
        assert_eq!(analysis.q_asymptotic().to_string(), "2*Ni*Nj*Nk*S^(-1/2)");
    }

    #[test]
    fn program_is_an_analyzer_workload() {
        // The same gemm program through the session-scoped builder: the
        // program text is lowered inside the Analyzer's own session.
        let program = Program::new()
            .array("A", "[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
            .array("B", "[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
            .statement_with_ops(
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                &[
                    "[Ni, Nj, Nk] -> { C[i, j, k] -> A[i2, k2] : i2 = i and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                    "[Ni, Nj, Nk] -> { C[i, j, k] -> B[k2, j2] : j2 = j and k2 = k and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
                ],
                2,
            )
            .flow(
                "C",
                "C",
                "[Ni, Nj, Nk] -> { C[i, j, k] -> C[i2, j2, k + 1] : i2 = i and j2 = j and 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk - 1 }",
            )
            .build();
        let outcome = iolb_core::Analyzer::new()
            .max_parametrization_depth(0)
            .param("Ni", 512)
            .param("Nj", 512)
            .param("Nk", 512)
            .analyze(&program)
            .unwrap();
        assert_eq!(
            outcome.analysis().q_asymptotic().to_string(),
            "2*Ni*Nj*Nk*S^(-1/2)"
        );
        assert!(outcome.stats.COUNT_CALLS > 0);
    }

    #[test]
    fn bad_access_relation_is_reported() {
        let _session = EngineCtx::new().enter();
        let program = Program::new()
            .statement("S", "[N] -> { S[i] : 0 <= i < N }", &["not a relation"])
            .build();
        assert!(program.to_dfg().is_err());
    }

    #[test]
    fn unknown_producer_is_reported() {
        let _session = EngineCtx::new().enter();
        let program = Program::new()
            .statement(
                "S",
                "[N] -> { S[i] : 0 <= i < N }",
                &["[N] -> { S[i] -> X[i2] : i2 = i and 0 <= i < N }"],
            )
            .build();
        assert!(matches!(program.to_dfg(), Err(DfgError::UnknownVertex(_))));
    }
}
