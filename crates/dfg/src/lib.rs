//! # iolb-dfg
//!
//! The data-flow graph (DFG) layer of the IOLB reproduction: the compact,
//! parametric representation of a program's CDAG (Sec. 3.4 of the paper),
//! DFG-path generation (`genpaths`, Algorithm 3), and the classification of
//! paths into chain circuits and broadcast paths (Definition 5.1) that drives
//! the geometric (Brascamp–Lieb) reasoning.
//!
//! ## Example
//!
//! The elementary example of Fig. 1/2 of the paper:
//!
//! ```
//! use iolb_dfg::{Dfg, genpaths, GenPathsOptions};
//! # let _session = iolb_poly::EngineCtx::new().enter();
//!
//! let dfg = Dfg::builder()
//!     .input("A", "[N] -> { A[i] : 0 <= i < N }")
//!     .input("C", "[M] -> { C[t] : 0 <= t < M }")
//!     .statement("S", "[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }")
//!     .edge("A", "S", "[N] -> { A[i] -> S[t, i2] : t = 0 and i2 = i and 1 <= i < N }")
//!     .edge("C", "S", "[M, N] -> { C[t] -> S[t, i] : 0 <= t < M and 0 <= i < N }")
//!     .edge("S", "S", "[M, N] -> { S[t, i] -> S[t + 1, i] : 0 <= t < M - 1 and 0 <= i < N }")
//!     .build()
//!     .unwrap();
//!
//! let domain = dfg.node("S").unwrap().domain.clone();
//! let paths = genpaths(&dfg, "S", &domain, &GenPathsOptions::default());
//! // A chain circuit along t and a broadcast from C are discovered.
//! assert!(paths.iter().any(|p| p.kind.is_chain()));
//! assert!(paths.iter().any(|p| p.source() == "C"));
//! ```

#![warn(missing_docs)]

pub mod genpaths;
pub mod graph;
pub mod path;

pub use genpaths::{genpaths, GenPathsOptions};
pub use graph::{Dfg, DfgBuilder, DfgEdge, DfgError, DfgNode};
pub use path::{DfgPath, PathKind};
