//! # iolb-frontend
//!
//! A textual front end for the IOLB reproduction: a C-like *affine
//! loop-nest* language (conventionally in `.iolb` files), parsed and
//! lowered to the data-flow graphs the analysis consumes. This plays the
//! role PET plays for the original IOLB tool — it opens arbitrary
//! user-supplied affine programs as a workload, instead of only the
//! hard-coded PolyBench kernels of the `iolb-polybench` crate.
//!
//! The pipeline is [`parse`] (text → AST), [`lower()`] (AST →
//! [`iolb_ir::AccessProgram`], with all semantic checks), and
//! [`LoweredProgram::to_dfg`] (value-based flow-dependence analysis →
//! [`iolb_dfg::Dfg`]); [`compile`] runs the first two in one call.
//!
//! ## Example
//!
//! ```
//! # let _session = iolb_poly::EngineCtx::new().enter();
//! // Matrix multiplication, straight from the C source.
//! let src = r#"
//!     parameter Ni, Nj, Nk;
//!     double A[Ni][Nk];
//!     double B[Nk][Nj];
//!     double C[Ni][Nj];
//!
//!     for (i = 0; i < Ni; i++)
//!       for (j = 0; j < Nj; j++)
//!         for (k = 0; k < Nk; k++)
//!           C[i][j] = C[i][j] + A[i][k] * B[k][j];
//! "#;
//! let program = iolb_frontend::compile(src).unwrap();
//! assert_eq!(program.params(), ["Ni", "Nj", "Nk"]);
//! let dfg = program.to_dfg().unwrap();
//! // A, B, the initial contents of C, and the statement.
//! assert_eq!(dfg.nodes().len(), 4);
//! ```
//!
//! ## The language
//!
//! A program is a sequence of declarations and loop nests:
//!
//! ```text
//! program     = { declaration | statement } ;
//! declaration = param-decl | array-decl ;
//! param-decl  = ( "parameter" | "param" ) ident { "," ident } ";" ;
//! array-decl  = type ident { "[" expr "]" } ";" ;
//! type        = "double" | "float" | "real" | "int" ;
//!
//! statement   = loop | assignment ;
//! loop        = "for" "(" ident "=" expr ";"
//!                         ident ( "<" | "<=" ) expr ";"
//!                         ident "++" ")"
//!               ( "{" { statement } "}" | statement ) ;
//! assignment  = [ ident ":" ] access
//!               ( "=" | "+=" | "-=" | "*=" | "/=" ) expr ";" ;
//!
//! access      = ident { "[" expr "]" } ;
//! expr        = term { ( "+" | "-" ) term } ;
//! term        = factor { ( "*" | "/" ) factor } ;
//! factor      = number | access | call
//!             | "(" expr ")" | "-" factor ;
//! call        = ident "(" [ expr { "," expr } ] ")" ;
//! ```
//!
//! Comments are `// …`, `# …` or `/* … */`. The three `ident`s of a loop
//! header must name the same iterator, and the step must be `++` (unit
//! stride).
//!
//! ### Semantic rules
//!
//! * **Affinity.** Loop bounds, array extents and subscripts must be
//!   *affine*: sums of integer multiples of surrounding iterators and
//!   declared parameters, plus a constant. Products of two non-constant
//!   terms, division, array references and calls are rejected in these
//!   positions (with a positioned error). The *value* expression on the
//!   right-hand side of an assignment is unrestricted — only where data
//!   lives is analysed, not what is computed.
//! * **Declarations.** Every array (and scalar — an array with no
//!   brackets) must be declared before use; parameters must be declared
//!   with `parameter`. Names must not collide.
//! * **Statement names.** A labelled assignment (`S2: A[i][j] = …;`)
//!   becomes a DFG vertex of that name; unlabelled assignments are named
//!   `S1`, `S2`, … in textual order.
//! * **Operation counts.** Each assignment counts one operation per binary
//!   operator and intrinsic call on its right-hand side (plus one for a
//!   compound assignment), with a floor of one.
//!
//! ### From text to data-flow graph
//!
//! Lowering extracts each statement's iteration domain and its read/write
//! accesses, and records the loop nest's *syntactic schedule*. Exact
//! last-writer (value-based) dependence analysis — see
//! [`iolb_ir::dataflow`] — then turns reads into flow edges from the
//! producing statement instance, or from the array's initial contents
//! (an input vertex named `<array>in`) where no earlier write reaches.
//! The resulting [`iolb_dfg::Dfg`] is exactly the form the Algorithm-6
//! driver in `iolb-core` analyses.

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use lower::{lower, LoweredProgram};
pub use parser::parse;

use std::fmt;

/// A 1-based source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Line number (1-based).
    pub line: usize,
    /// Column number (1-based).
    pub col: usize,
}

/// A lexical, syntactic or semantic front-end error, rendered as
/// `line:col: message` when the position is known.
#[derive(Clone, Debug)]
pub struct Error {
    message: String,
    span: Option<Span>,
}

impl Error {
    /// An error at a known source position.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        Error {
            message: message.into(),
            span: Some(span),
        }
    }

    /// An error with no useful source position.
    pub fn unpositioned(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
            span: None,
        }
    }

    /// Prefixes the message with where the error arose (e.g. which bound or
    /// subscript was being checked).
    pub fn with_context(mut self, context: impl fmt::Display) -> Self {
        self.message = format!("{context}: {}", self.message);
        self
    }

    /// The error message (without the position prefix).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The source position, when known.
    pub fn span(&self) -> Option<Span> {
        self.span
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(Span { line, col }) => write!(f, "{line}:{col}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for Error {}

/// Parses and lowers a source file in one call.
///
/// # Errors
///
/// Returns the first [`Error`] from tokenizing, parsing or semantic
/// analysis.
pub fn compile(src: &str) -> Result<LoweredProgram, Error> {
    lower(&parse(src)?)
}

/// An affine-C program as source text — the session-safe
/// [`Workload`](iolb_core::Workload) form of a frontend program: the
/// `Analyzer` compiles the text inside its own engine session.
///
/// ```no_run
/// use iolb_core::Analyzer;
/// use iolb_frontend::IolbSource;
///
/// let src = "parameter N; double A[N]; double s;\nfor (i = 0; i < N; i++) s += A[i];";
/// let outcome = Analyzer::new().analyze(&IolbSource::new(src)).unwrap();
/// ```
pub struct IolbSource {
    /// Display name for the report (defaults to `"program"`).
    pub name: String,
    /// The affine-C source text.
    pub src: String,
}

impl IolbSource {
    /// Wraps source text with the default name.
    pub fn new(src: impl Into<String>) -> Self {
        IolbSource {
            name: "program".to_string(),
            src: src.into(),
        }
    }

    /// Wraps source text with an explicit report name.
    pub fn named(name: impl Into<String>, src: impl Into<String>) -> Self {
        IolbSource {
            name: name.into(),
            src: src.into(),
        }
    }
}

/// A `.iolb` file on disk as a workload: read and compiled inside the
/// analysis session (the report is named after the file stem).
pub struct IolbFile(pub std::path::PathBuf);

impl IolbFile {
    /// Wraps a path.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        IolbFile(path.into())
    }
}

fn prepare_lowered(
    name: &str,
    program: &LoweredProgram,
) -> Result<iolb_core::PreparedWorkload, iolb_core::WorkloadError> {
    let dfg = program.to_dfg().map_err(iolb_core::WorkloadError::new)?;
    Ok(iolb_core::PreparedWorkload {
        name: name.to_string(),
        params: program.params().to_vec(),
        dfg,
        options: None,
        ops: None,
        source: Some(program.source_info().clone()),
    })
}

/// The canonical content-address component of an affine-C program: the
/// report name plus the AST pretty-printed back to source. Parsing strips
/// whitespace and comments, and the printer has one spelling per construct,
/// so any two texts that parse to the same program share a key — while any
/// semantic edit (a bound, an access function, an array name) changes it.
/// Programs that do not parse return `None` and bypass the result cache
/// (they would fail preparation anyway).
fn canonical_key(name: &str, src: &str) -> Option<String> {
    let program = parse(src).ok()?;
    Some(format!("iolb:{name}\n{program}"))
}

impl iolb_core::Workload for IolbSource {
    fn prepare(&self) -> Result<iolb_core::PreparedWorkload, iolb_core::WorkloadError> {
        let program = compile(&self.src).map_err(iolb_core::WorkloadError::new)?;
        prepare_lowered(&self.name, &program)
    }

    fn cache_key(&self) -> Option<String> {
        canonical_key(&self.name, &self.src)
    }
}

impl iolb_core::Workload for IolbFile {
    fn prepare(&self) -> Result<iolb_core::PreparedWorkload, iolb_core::WorkloadError> {
        let path = &self.0;
        let src = std::fs::read_to_string(path).map_err(|e| {
            iolb_core::WorkloadError::new(format!("cannot read `{}`: {e}", path.display()))
        })?;
        let program = compile(&src)
            .map_err(|e| iolb_core::WorkloadError::new(format!("{}:{e}", path.display())))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        prepare_lowered(&name, &program)
    }

    /// Keyed by (file stem, canonical program) — *not* by path, so a file
    /// and an equal [`IolbSource`] under the same name share cache entries,
    /// and editing the file changes the key.
    fn cache_key(&self) -> Option<String> {
        let path = &self.0;
        let src = std::fs::read_to_string(path).ok()?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        canonical_key(&name, &src)
    }
}

/// A compiled [`LoweredProgram`] is itself a workload. **Session binding
/// applies**: its access program embeds interned parameter ids, so analyse
/// it in the session it was compiled in (see `iolb_core::Analyzer::engine`)
/// — or hand the `Analyzer` the source via [`IolbSource`] / [`IolbFile`]
/// instead, which is always safe.
impl iolb_core::Workload for LoweredProgram {
    fn prepare(&self) -> Result<iolb_core::PreparedWorkload, iolb_core::WorkloadError> {
        prepare_lowered("program", self)
    }
}
