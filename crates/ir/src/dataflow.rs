//! Generalized value-based flow-dependence computation.
//!
//! This module is the dependence-analysis half of the front end: given
//! statements with *memory accesses* (affine reads and writes on named
//! arrays) and a syntactic *schedule* (the textual order of an affine loop
//! nest), it derives the flow-dependence edges of the data-flow graph — the
//! role ISL's dataflow analysis plays for the original IOLB tool, which
//! receives programs from PET in exactly this accesses-plus-schedule form.
//!
//! The computation is exact last-writer ("value-based") dataflow on affine
//! programs, implemented with the polyhedral machinery of [`iolb_poly`]:
//!
//! 1. for every read `T[t]` of cell `A[f(t)]` and every statement `W`
//!    writing `A[g(w)]`, build the *memory-based* candidate relation
//!    `M_W = { w → t : g(w) = f(t) ∧ w ≺ t }`, where `≺` is the
//!    lexicographic precedence induced by the schedule;
//! 2. *kill* every candidate that is overwritten in between: a pair
//!    `(w, t)` survives only if no writer instance `w'` with
//!    `g'(w') = f(t)` lies strictly between `w` and `t`. The killed part is
//!    computed by relation composition
//!    `(≺_{W,W'} ⨾ M_{W'})` and removed with [`iolb_poly::Map::subtract`] —
//!    no parametric integer programming is needed;
//! 3. reader instances not covered by any surviving writer take their value
//!    from the array's initial contents, producing edges from an input
//!    vertex (named `<array>in` when the array is also written, matching the
//!    hand-written kernel convention of `iolb-polybench`).
//!
//! The result is a [`iolb_dfg::Dfg`] whose vertices are the statements plus
//! the live input arrays, ready for `iolb-core`'s Algorithm-6 driver.
//!
//! # Example
//!
//! Matrix multiplication `C[i][j] += A[i][k] * B[k][j]` written as accesses
//! over a three-deep loop nest:
//!
//! ```
//! use iolb_ir::dataflow::{Access, AccessProgram, SchedStep};
//! use iolb_poly::{parse_set, LinExpr};
//! # let _session = iolb_poly::EngineCtx::new().enter();
//!
//! let d = 3; // loop depth of the statement
//! let sub = |i: usize| LinExpr::var(d, i);
//! let program = AccessProgram::new()
//!     .array("A", parse_set("{ A[i, k] : 0 <= i < Ni and 0 <= k < Nk }").unwrap())
//!     .array("B", parse_set("{ B[k, j] : 0 <= k < Nk and 0 <= j < Nj }").unwrap())
//!     .array("C", parse_set("{ C[i, j] : 0 <= i < Ni and 0 <= j < Nj }").unwrap())
//!     .statement(
//!         "S",
//!         parse_set("{ S[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }").unwrap(),
//!         vec![
//!             SchedStep::Seq(0), SchedStep::Loop(0), SchedStep::Seq(0), SchedStep::Loop(1),
//!             SchedStep::Seq(0), SchedStep::Loop(2), SchedStep::Seq(0),
//!         ],
//!         Some(Access::new("C", vec![sub(0), sub(1)])),
//!         vec![
//!             Access::new("C", vec![sub(0), sub(1)]),
//!             Access::new("A", vec![sub(0), sub(2)]),
//!             Access::new("B", vec![sub(2), sub(1)]),
//!         ],
//!         2,
//!     )
//!     .build();
//! let dfg = program.to_dfg().unwrap();
//! // A, B, the initial contents of C ("Cin"), and the statement itself.
//! assert_eq!(dfg.nodes().len(), 4);
//! // A→S, B→S broadcasts, Cin→S at k = 0, and the S→S chain along k.
//! assert_eq!(dfg.edges().len(), 4);
//! ```

use iolb_dfg::{Dfg, DfgError};
use iolb_poly::{BasicMap, BasicSet, Constraint, LinExpr, Map, Set, Space};
use std::collections::BTreeMap;
use std::fmt;

/// One step of a statement's syntactic (2d+1)-dimensional schedule: the
/// alternation of sequence positions and loop dimensions that encodes where
/// the statement sits in the loop-nest text.
///
/// A well-formed schedule alternates `Seq` and `Loop` and both starts and
/// ends with `Seq`: `[Seq(c₀), Loop(0), Seq(c₁), …, Loop(d−1), Seq(c_d)]`,
/// where `Loop(i)` names the statement's `i`-th domain dimension and the
/// `Seq` values are the positions among the siblings of the enclosing body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedStep {
    /// Textual position among the statements/loops of the enclosing body.
    Seq(u64),
    /// The loop iterating the given domain dimension of the statement.
    Loop(usize),
}

/// An affine array access: the accessed array and one affine subscript per
/// array dimension, each a [`LinExpr`] over the statement's domain
/// dimensions (and parameters).
#[derive(Clone, Debug)]
pub struct Access {
    /// Name of the accessed array.
    pub array: String,
    /// Affine subscripts, one per array dimension.
    pub subscripts: Vec<LinExpr>,
}

impl Access {
    /// Builds an access from an array name and subscript expressions.
    pub fn new(array: &str, subscripts: Vec<LinExpr>) -> Self {
        Access {
            array: array.to_string(),
            subscripts,
        }
    }
}

/// A statement of an [`AccessProgram`]: iteration domain, schedule, at most
/// one write access, and any number of read accesses.
#[derive(Clone, Debug)]
pub struct AccessStatement {
    /// Statement name (also the tuple name of its domain space).
    pub name: String,
    /// Parametric iteration domain.
    pub domain: BasicSet,
    /// Syntactic schedule (see [`SchedStep`]).
    pub schedule: Vec<SchedStep>,
    /// The written cell, if the statement writes an array.
    pub write: Option<Access>,
    /// The read cells.
    pub reads: Vec<Access>,
    /// Operations performed per statement instance.
    pub ops: u64,
}

/// An array declaration: name and (parametric) index domain.
#[derive(Clone, Debug)]
pub struct ArrayInfo {
    /// Array name.
    pub name: String,
    /// Index domain (the declared bounds).
    pub domain: BasicSet,
}

/// Errors produced by the dataflow computation.
#[derive(Debug)]
pub enum DataflowError {
    /// An access refers to an array that was not declared.
    UnknownArray {
        /// The statement containing the access.
        statement: String,
        /// The undeclared array.
        array: String,
    },
    /// An access has the wrong number of subscripts for its array, or a
    /// subscript ranges over the wrong number of statement dimensions.
    ArityMismatch {
        /// The statement containing the access.
        statement: String,
        /// The accessed array.
        array: String,
        /// Explanation of the mismatch.
        reason: String,
    },
    /// The derived graph failed DFG validation.
    Dfg(DfgError),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::UnknownArray { statement, array } => {
                write!(
                    f,
                    "statement `{statement}` accesses undeclared array `{array}`"
                )
            }
            DataflowError::ArityMismatch {
                statement,
                array,
                reason,
            } => write!(
                f,
                "access to `{array}` in statement `{statement}`: {reason}"
            ),
            DataflowError::Dfg(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DataflowError {}

impl From<DfgError> for DataflowError {
    fn from(e: DfgError) -> Self {
        DataflowError::Dfg(e)
    }
}

/// A program in accesses-plus-schedule form, ready for value-based
/// dependence analysis. Construct with [`AccessProgram::new`] and the
/// builder methods, then lower with [`AccessProgram::to_dfg`].
#[derive(Clone, Debug, Default)]
pub struct AccessProgram {
    arrays: Vec<ArrayInfo>,
    statements: Vec<AccessStatement>,
}

impl AccessProgram {
    /// Starts an empty program.
    pub fn new() -> AccessProgram {
        AccessProgram::default()
    }

    /// Declares an array with its index domain.
    pub fn array(mut self, name: &str, domain: BasicSet) -> Self {
        self.arrays.push(ArrayInfo {
            name: name.to_string(),
            domain,
        });
        self
    }

    /// Declares a statement with its domain, schedule, accesses and
    /// per-instance operation count.
    pub fn statement(
        mut self,
        name: &str,
        domain: BasicSet,
        schedule: Vec<SchedStep>,
        write: Option<Access>,
        reads: Vec<Access>,
        ops: u64,
    ) -> Self {
        self.statements.push(AccessStatement {
            name: name.to_string(),
            domain,
            schedule,
            write,
            reads,
            ops,
        });
        self
    }

    /// Finalises the builder (identity; present for symmetry with the other
    /// program builders).
    pub fn build(self) -> AccessProgram {
        self
    }

    /// The declared arrays.
    pub fn arrays(&self) -> &[ArrayInfo] {
        &self.arrays
    }

    /// The statements.
    pub fn statements(&self) -> &[AccessStatement] {
        &self.statements
    }

    /// Runs value-based flow-dependence analysis and assembles the DFG.
    ///
    /// # Errors
    ///
    /// Returns a [`DataflowError`] when an access refers to an undeclared
    /// array, has mismatched arity, or the assembled graph fails DFG
    /// validation.
    pub fn to_dfg(&self) -> Result<Dfg, DataflowError> {
        self.validate()?;
        let arrays: BTreeMap<&str, &ArrayInfo> =
            self.arrays.iter().map(|a| (a.name.as_str(), a)).collect();
        // Writers per array, in program order.
        let mut writers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.statements.iter().enumerate() {
            if let Some(w) = &s.write {
                writers.entry(w.array.as_str()).or_default().push(i);
            }
        }

        // Edges and the set of input vertices that end up used.
        let mut edges: Vec<(String, String, BasicMap)> = Vec::new();
        let mut used_inputs: Vec<String> = Vec::new();
        // Precedence depends only on the statement pair, not on the read
        // under resolution — compute each pair once.
        let mut precedence_memo: BTreeMap<(usize, usize), Map> = BTreeMap::new();

        for t_stmt in &self.statements {
            for read in &t_stmt.reads {
                let array = arrays[read.array.as_str()];
                let empty = Vec::new();
                let array_writers = writers.get(read.array.as_str()).unwrap_or(&empty);

                // Memory-based candidate relations, one per writer.
                let candidates: Vec<(usize, Map)> = array_writers
                    .iter()
                    .map(|&wi| {
                        (
                            wi,
                            self.candidate_relation(&self.statements[wi], t_stmt, read),
                        )
                    })
                    .collect();

                // Kill: a candidate (w, t) dies when some writer instance w'
                // of any writer statement W' overwrites the cell between w
                // and t. (≺ ⨾ M_W') gives exactly { w → t : ∃ w' ≻ w with
                // (w', t) ∈ M_W' }.
                let mut covered: Option<Set> = None;
                for &(wi, ref m_w) in &candidates {
                    let w_stmt = &self.statements[wi];
                    let mut last = m_w.clone();
                    for &(wj, ref m_w2) in &candidates {
                        let between = precedence_memo
                            .entry((wi, wj))
                            .or_insert_with(|| self.precedence(w_stmt, &self.statements[wj]));
                        if between.is_empty() {
                            continue;
                        }
                        last = last.subtract(&between.then(m_w2));
                    }
                    for part in last.parts() {
                        edges.push((w_stmt.name.clone(), t_stmt.name.clone(), part.clone()));
                    }
                    let range = last.range();
                    covered = Some(match covered {
                        Some(c) => c.union(&range),
                        None => range,
                    });
                }

                // Reads not reached by any surviving writer take the array's
                // initial contents.
                let uncovered = match covered {
                    Some(c) => t_stmt.domain.to_set().subtract(&c),
                    None => t_stmt.domain.to_set(),
                };
                if uncovered.is_empty() {
                    continue;
                }
                let input = input_name(&read.array, !array_writers.is_empty());
                for part in uncovered.parts() {
                    edges.push((
                        input.clone(),
                        t_stmt.name.clone(),
                        self.input_relation(array, &input, t_stmt, read, part),
                    ));
                }
                if !used_inputs.contains(&input) {
                    used_inputs.push(input);
                }
            }
        }

        // Assemble: inputs in array-declaration order, then statements in
        // program order, then the edges (derived in deterministic order).
        let mut builder = Dfg::builder();
        for a in &self.arrays {
            let name = input_name(&a.name, writers.contains_key(a.name.as_str()));
            if used_inputs.contains(&name) {
                let space = Space::from_names(name.clone(), a.domain.space().dims().to_vec());
                builder = builder.input_set(&name, a.domain.with_space(space));
            }
        }
        for s in &self.statements {
            builder = builder.statement_set_with_ops(&s.name, s.domain.clone(), s.ops);
        }
        for (src, dst, rel) in edges {
            builder = builder.edge_rel(&src, &dst, rel);
        }
        Ok(builder.build()?)
    }

    fn validate(&self) -> Result<(), DataflowError> {
        let arrays: BTreeMap<&str, &ArrayInfo> =
            self.arrays.iter().map(|a| (a.name.as_str(), a)).collect();
        for s in &self.statements {
            let n = s.domain.dim();
            for acc in s.write.iter().chain(s.reads.iter()) {
                let Some(a) = arrays.get(acc.array.as_str()) else {
                    return Err(DataflowError::UnknownArray {
                        statement: s.name.clone(),
                        array: acc.array.clone(),
                    });
                };
                if acc.subscripts.len() != a.domain.dim() {
                    return Err(DataflowError::ArityMismatch {
                        statement: s.name.clone(),
                        array: acc.array.clone(),
                        reason: format!(
                            "{} subscripts for a {}-dimensional array",
                            acc.subscripts.len(),
                            a.domain.dim()
                        ),
                    });
                }
                if let Some(sub) = acc.subscripts.iter().find(|e| e.num_vars() != n) {
                    return Err(DataflowError::ArityMismatch {
                        statement: s.name.clone(),
                        array: acc.array.clone(),
                        reason: format!(
                            "subscript ranges over {} variables, statement has {} dimensions",
                            sub.num_vars(),
                            n
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// `M_W = { w → t : g(w) = f(t) ∧ w ≺ t ∧ w ∈ D_W ∧ t ∈ D_T }`.
    fn candidate_relation(
        &self,
        w_stmt: &AccessStatement,
        t_stmt: &AccessStatement,
        read: &Access,
    ) -> Map {
        let write = w_stmt.write.as_ref().expect("writer statement has a write");
        let n_w = w_stmt.domain.dim();
        let n_t = t_stmt.domain.dim();
        let arity = n_w + n_t;
        let w_map: Vec<usize> = (0..n_w).collect();
        let t_map: Vec<usize> = (n_w..arity).collect();

        // Same-cell and domain constraints shared by every precedence piece.
        let mut common: Vec<Constraint> = Vec::new();
        for (g, f) in write.subscripts.iter().zip(&read.subscripts) {
            common.push(Constraint::eq(
                g.remap_vars(arity, &w_map)
                    .sub(&f.remap_vars(arity, &t_map)),
            ));
        }
        for c in w_stmt.domain.constraints() {
            common.push(Constraint {
                expr: c.expr.remap_vars(arity, &w_map),
                kind: c.kind,
            });
        }
        for c in t_stmt.domain.constraints() {
            common.push(Constraint {
                expr: c.expr.remap_vars(arity, &t_map),
                kind: c.kind,
            });
        }

        let in_space = w_stmt.domain.space().clone();
        let out_space = t_stmt.domain.space().clone();
        let parts = precedence_pieces(w_stmt, t_stmt)
            .into_iter()
            .map(|mut piece| {
                piece.extend(common.iter().cloned());
                BasicMap::from_constraints(in_space.clone(), out_space.clone(), piece)
            })
            .collect();
        Map::from_basic_maps(in_space, out_space, parts)
    }

    /// The precedence relation `{ w → w' : w ≺ w' }` between two statements
    /// (pure schedule ordering, no domain constraints — compositions with
    /// candidate relations supply the domains).
    fn precedence(&self, w: &AccessStatement, w2: &AccessStatement) -> Map {
        let in_space = w.domain.space().clone();
        let out_space = w2.domain.space().clone();
        let parts = precedence_pieces(w, w2)
            .into_iter()
            .map(|piece| BasicMap::from_constraints(in_space.clone(), out_space.clone(), piece))
            .collect();
        Map::from_basic_maps(in_space, out_space, parts)
    }

    /// `{ Ain[a] → T[t] : a = f(t) ∧ t ∈ uncovered ∧ a ∈ D_A }`.
    fn input_relation(
        &self,
        array: &ArrayInfo,
        input: &str,
        t_stmt: &AccessStatement,
        read: &Access,
        uncovered: &BasicSet,
    ) -> BasicMap {
        let n_a = array.domain.dim();
        let n_t = t_stmt.domain.dim();
        let arity = n_a + n_t;
        let a_map: Vec<usize> = (0..n_a).collect();
        let t_map: Vec<usize> = (n_a..arity).collect();
        let mut constraints: Vec<Constraint> = Vec::new();
        for (r, f) in read.subscripts.iter().enumerate() {
            constraints.push(Constraint::eq(
                LinExpr::var(arity, r).sub(&f.remap_vars(arity, &t_map)),
            ));
        }
        for c in uncovered.constraints() {
            constraints.push(Constraint {
                expr: c.expr.remap_vars(arity, &t_map),
                kind: c.kind,
            });
        }
        for c in array.domain.constraints() {
            constraints.push(Constraint {
                expr: c.expr.remap_vars(arity, &a_map),
                kind: c.kind,
            });
        }
        let in_space = Space::from_names(input.to_string(), array.domain.space().dims().to_vec());
        BasicMap::from_constraints(in_space, t_stmt.domain.space().clone(), constraints)
    }
}

/// The DFG vertex name carrying an array's initial contents: the array name
/// itself for read-only arrays, `<name>in` for arrays that are also written
/// (so the statement producing the array can keep the bare name).
fn input_name(array: &str, written: bool) -> String {
    if written {
        format!("{array}in")
    } else {
        array.to_string()
    }
}

/// The pieces of the lexicographic-precedence relation `{ w → t : w ≺ t }`
/// induced by two syntactic schedules, as constraint lists over the
/// concatenated `(w, t)` dimensions. One piece per shared loop level
/// (equal outer iterators, strictly smaller at that level), plus — when the
/// first differing sequence position orders `w` textually before `t` — one
/// piece with the shared iterators equal.
fn precedence_pieces(w: &AccessStatement, t: &AccessStatement) -> Vec<Vec<Constraint>> {
    let n_w = w.domain.dim();
    let arity = n_w + t.domain.dim();
    let mut eqs: Vec<Constraint> = Vec::new();
    let mut pieces: Vec<Vec<Constraint>> = Vec::new();
    for (sw, st) in w.schedule.iter().zip(&t.schedule) {
        match (sw, st) {
            (SchedStep::Seq(a), SchedStep::Seq(b)) => {
                if a < b {
                    // Everything with equal shared iterators is before.
                    pieces.push(eqs.clone());
                }
                if a != b {
                    return pieces;
                }
            }
            (SchedStep::Loop(i), SchedStep::Loop(j)) => {
                let wi = LinExpr::var(arity, *i);
                let tj = LinExpr::var(arity, n_w + *j);
                // Strictly earlier at this loop level…
                let mut piece = eqs.clone();
                piece.push(Constraint::le(
                    wi.clone(),
                    tj.clone().sub(&LinExpr::constant(arity, 1)),
                ));
                pieces.push(piece);
                // …or equal here and decided deeper.
                eqs.push(Constraint::equals(wi, tj));
            }
            // Malformed schedule pair (non-alternating): no further order
            // can be derived; well-formed front ends never produce this.
            _ => return pieces,
        }
    }
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_poly::parse_set;
    use iolb_poly::EngineCtx;

    /// The gemm access program of the module example.
    fn gemm() -> AccessProgram {
        let sub = |i: usize| LinExpr::var(3, i);
        AccessProgram::new()
            .array(
                "A",
                parse_set("{ A[i, k] : 0 <= i < Ni and 0 <= k < Nk }").unwrap(),
            )
            .array(
                "B",
                parse_set("{ B[k, j] : 0 <= k < Nk and 0 <= j < Nj }").unwrap(),
            )
            .array(
                "C",
                parse_set("{ C[i, j] : 0 <= i < Ni and 0 <= j < Nj }").unwrap(),
            )
            .statement(
                "S",
                parse_set("{ S[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }").unwrap(),
                vec![
                    SchedStep::Seq(0),
                    SchedStep::Loop(0),
                    SchedStep::Seq(0),
                    SchedStep::Loop(1),
                    SchedStep::Seq(0),
                    SchedStep::Loop(2),
                    SchedStep::Seq(0),
                ],
                Some(Access::new("C", vec![sub(0), sub(1)])),
                vec![
                    Access::new("C", vec![sub(0), sub(1)]),
                    Access::new("A", vec![sub(0), sub(2)]),
                    Access::new("B", vec![sub(2), sub(1)]),
                ],
                2,
            )
            .build()
    }

    #[test]
    fn gemm_dataflow_matches_hand_written_dfg() {
        let _session = EngineCtx::new().enter();
        let dfg = gemm().to_dfg().unwrap();
        let names: Vec<&str> = dfg.nodes().iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "Cin", "S"]);
        assert_eq!(dfg.edges().len(), 4);

        // The self-dependence is the unit chain along k.
        let self_edge = dfg.edges().iter().find(|e| e.src == "S").unwrap();
        assert_eq!(
            self_edge.relation.translation_offsets(),
            Some(vec![0, 0, 1])
        );

        // The initial contents of C feed exactly the k = 0 instances.
        let cin = dfg.edges().iter().find(|e| e.src == "Cin").unwrap();
        let params = [("Ni", 4), ("Nj", 4), ("Nk", 4)];
        assert!(cin.relation.contains(&[1, 2], &[1, 2, 0], &params));
        assert!(!cin.relation.contains(&[1, 2], &[1, 2, 1], &params));

        // A feeds every j along its broadcast.
        let a = dfg.edges().iter().find(|e| e.src == "A").unwrap();
        assert!(a.relation.contains(&[1, 3], &[1, 0, 3], &params));
        assert!(a.relation.contains(&[1, 3], &[1, 2, 3], &params));
    }

    #[test]
    fn sequenced_statements_kill_across_statements() {
        let _session = EngineCtx::new().enter();
        // for i { S1: X[i] = …;  S2: X[i] = X[i] + 1; }  then
        // for i { S3: Y[i] = X[i]; }
        // S3 must read from S2 (the later writer), never from S1.
        let sub = |i: usize| LinExpr::var(1, i);
        let x = parse_set("{ X[i] : 0 <= i < N }").unwrap();
        let sched = |c0: u64| vec![SchedStep::Seq(c0), SchedStep::Loop(0), SchedStep::Seq(0)];
        let program = AccessProgram::new()
            .array("X", x.clone())
            .array("Y", parse_set("{ Y[i] : 0 <= i < N }").unwrap())
            .statement(
                "S1",
                parse_set("{ S1[i] : 0 <= i < N }").unwrap(),
                sched(0),
                Some(Access::new("X", vec![sub(0)])),
                vec![],
                1,
            )
            .statement(
                "S2",
                parse_set("{ S2[i] : 0 <= i < N }").unwrap(),
                vec![SchedStep::Seq(0), SchedStep::Loop(0), SchedStep::Seq(1)],
                Some(Access::new("X", vec![sub(0)])),
                vec![Access::new("X", vec![sub(0)])],
                1,
            )
            .statement(
                "S3",
                parse_set("{ S3[i] : 0 <= i < N }").unwrap(),
                sched(1),
                Some(Access::new("Y", vec![sub(0)])),
                vec![Access::new("X", vec![sub(0)])],
                1,
            )
            .build();
        let dfg = program.to_dfg().unwrap();
        // S2 reads X[i] from S1 (same i, earlier sequence position);
        // S3 reads X[i] from S2 only.
        assert!(dfg.edges().iter().any(|e| e.src == "S1" && e.dst == "S2"));
        assert!(dfg.edges().iter().any(|e| e.src == "S2" && e.dst == "S3"));
        assert!(!dfg.edges().iter().any(|e| e.src == "S1" && e.dst == "S3"));
        // No read escapes to the initial contents of X.
        assert!(!dfg.nodes().iter().any(|n| n.name == "Xin"));
    }

    #[test]
    fn undeclared_array_is_reported() {
        let _session = EngineCtx::new().enter();
        let program = AccessProgram::new().statement(
            "S",
            parse_set("{ S[i] : 0 <= i < N }").unwrap(),
            vec![SchedStep::Seq(0), SchedStep::Loop(0), SchedStep::Seq(0)],
            None,
            vec![Access::new("X", vec![LinExpr::var(1, 0)])],
            1,
        );
        assert!(matches!(
            program.to_dfg(),
            Err(DataflowError::UnknownArray { .. })
        ));
    }

    #[test]
    fn scalar_reduction_forms_a_chain() {
        let _session = EngineCtx::new().enter();
        // s += A[i] * B[i]: the scalar cell is rewritten every iteration, so
        // the value flows along the unit chain i → i + 1.
        let sub = |i: usize| LinExpr::var(1, i);
        let program = AccessProgram::new()
            .array("A", parse_set("{ A[i] : 0 <= i < N }").unwrap())
            .array("B", parse_set("{ B[i] : 0 <= i < N }").unwrap())
            .array("s", BasicSet::universe(Space::new("s", &[])))
            .statement(
                "S",
                parse_set("{ S[i] : 0 <= i < N }").unwrap(),
                vec![SchedStep::Seq(0), SchedStep::Loop(0), SchedStep::Seq(0)],
                Some(Access::new("s", vec![])),
                vec![
                    Access::new("s", vec![]),
                    Access::new("A", vec![sub(0)]),
                    Access::new("B", vec![sub(0)]),
                ],
                2,
            )
            .build();
        let dfg = program.to_dfg().unwrap();
        let self_edge = dfg.edges().iter().find(|e| e.src == "S").unwrap();
        assert_eq!(self_edge.relation.translation_offsets(), Some(vec![1]));
        // The initial value of s feeds only i = 0.
        let sin = dfg.edges().iter().find(|e| e.src == "sin").unwrap();
        assert!(sin.relation.contains(&[], &[0], &[("N", 4)]));
        assert!(!sin.relation.contains(&[], &[1], &[("N", 4)]));
    }
}
