//! # iolb-polybench
//!
//! The PolyBench/C 4.2 benchmark suite expressed for the IOLB reproduction:
//! every kernel's data-flow graph (in the ISL-like notation of the paper's
//! figures), its Table-1 metadata (input-data size, operation count, the
//! manually derived `OI_manual`, the paper-reported `OI_up`), its LARGE
//! dataset sizes, and — for Figure 6 — reference (tiled or streaming)
//! schedules whose address traces feed the cache simulator.
//!
//! ## Example
//!
//! ```
//! use iolb_polybench::{kernel_by_name, all_kernels};
//! use iolb_core::analyze;
//! use iolb_poly::EngineCtx;
//!
//! // A lookup is free; the DFG is built, and analysed, in the caller's session.
//! let gemm = kernel_by_name("gemm").unwrap();
//! let analysis = EngineCtx::new().scope(|| analyze(&gemm.dfg(), &gemm.analysis_options()));
//! assert_eq!(analysis.q_asymptotic().to_string(), "2*Ni*Nj*Nk*S^(-1/2)");
//! assert_eq!(all_kernels().len(), 30);
//! ```

#![warn(missing_docs)]

pub mod kernels;
pub mod meta;
pub mod schedules;

pub use kernels::{all_kernels, kernel_by_name, kernel_names};
pub use meta::{Category, Kernel};
pub use schedules::{trace, ScheduleTrace};
