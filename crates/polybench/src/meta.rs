//! Kernel metadata: the static facts of Table 1 (input-data size, operation
//! count, manually derived OI, previously published / paper-reported bounds)
//! and the LARGE dataset sizes used for Figure 6.

use iolb_core::AnalysisOptions;
use iolb_dfg::Dfg;
use iolb_symbol::Poly;
use std::collections::BTreeMap;

/// The four categories of Sec. 8.1 (the divisions of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// High ops/input ratio, tileable; IOLB derives a non-trivial bound.
    Tileable,
    /// Constant ops/input ratio; the bound is the input size.
    Streaming,
    /// High ratio but provably not tileable (wavefront-bounded).
    NotTileable,
    /// IOLB's bound is known to be optimistic (open gap).
    OpenGap,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::Tileable => write!(f, "tileable"),
            Category::Streaming => write!(f, "streaming"),
            Category::NotTileable => write!(f, "not-tileable"),
            Category::OpenGap => write!(f, "open-gap"),
        }
    }
}

/// A numeric operational-intensity formula: evaluated from the cache size and
/// a parameter assignment (used to tabulate `OI_manual` and the paper's
/// reported `OI_up` alongside our computed values).
pub type OiFormula = fn(s: f64, params: &BTreeMap<String, f64>) -> f64;

/// One PolyBench kernel: a recipe for its DFG, its Table-1 metadata and
/// dataset sizes. A kernel value holds no engine state.
pub struct Kernel {
    /// Kernel name (PolyBench spelling).
    pub name: &'static str,
    /// Table-1 category.
    pub category: Category,
    /// Program parameters.
    pub params: &'static [&'static str],
    /// Builds the data-flow graph analysed by IOLB (see [`Kernel::dfg`]).
    pub(crate) dfg: fn() -> Dfg,
    /// Symbolic input-data size (Table 1, column 1).
    pub input_data: Poly,
    /// Symbolic operation count (Table 1, column 2).
    pub ops: Poly,
    /// Human-readable form of the manually derived OI lower bound.
    pub oi_manual_desc: &'static str,
    /// Numeric evaluator for the manually derived OI lower bound.
    pub oi_manual: OiFormula,
    /// Human-readable form of the paper's reported OI upper bound.
    pub paper_oi_up_desc: &'static str,
    /// Numeric evaluator for the paper's reported OI upper bound.
    pub paper_oi_up: OiFormula,
    /// LARGE dataset parameter values (PolyBench/C 4.2.1).
    pub large: &'static [(&'static str, i128)],
    /// Maximum loop-parametrization depth the analysis should explore for
    /// this kernel (0 for kernels where the global analysis suffices — this
    /// keeps the whole-suite run fast, mirroring IOLB's own heuristics).
    pub parametrization_depth: usize,
}

/// A built-in kernel is an [`iolb_core::Workload`]: `prepare` builds the
/// DFG and the tuned options inside the analysis session, so a `Kernel`
/// looked up anywhere can be handed to the `Analyzer`.
impl iolb_core::Workload for Kernel {
    fn prepare(&self) -> Result<iolb_core::PreparedWorkload, iolb_core::WorkloadError> {
        // The DFG first: it interns the parameters in their canonical order.
        let dfg = self.dfg();
        Ok(iolb_core::PreparedWorkload {
            name: self.name.to_string(),
            params: self.params.iter().map(|p| p.to_string()).collect(),
            options: Some(self.analysis_options()),
            ops: Some(self.ops.clone()),
            dfg,
            source: None,
        })
    }

    /// Built-in kernels are canonical by name: `prepare` builds the DFG and
    /// tuned options purely from it, so the name alone is a sound
    /// content-address component.
    fn cache_key(&self) -> Option<String> {
        Some(format!("kernel:{}", self.name))
    }
}

impl Kernel {
    /// Builds the kernel's data-flow graph in the caller's engine session.
    pub fn dfg(&self) -> Dfg {
        (self.dfg)()
    }

    /// Analysis options tuned for this kernel: the parameter context assumes
    /// moderately large sizes and the heuristic instance uses the LARGE
    /// dataset.
    pub fn analysis_options(&self) -> AnalysisOptions {
        let mut options = AnalysisOptions {
            max_parametrization_depth: self.parametrization_depth,
            ..AnalysisOptions::default()
        };
        let mut ctx = iolb_poly::Context::empty();
        // Key the heuristic instance by the options' own cache parameter.
        let mut instance = iolb_core::Instance::new().set(&options.cache_param, 32_768);
        for (p, v) in self.large {
            ctx = ctx.assume_ge(p, 8);
            instance = instance.set(p, *v);
        }
        for p in self.params {
            ctx = ctx.assume_ge(p, 8);
            if instance.get(p).is_none() {
                instance = instance.set(p, 1000);
            }
        }
        options.ctx = ctx;
        options.instances = vec![instance];
        options
    }

    /// The LARGE dataset as an [`iolb_core::Instance`] including the cache
    /// size (in words) used in Sec. 8.2 (256 kB of doubles = 32768 words).
    pub fn large_instance(&self) -> iolb_core::Instance {
        let mut inst = iolb_core::Instance::new().set("S", 32_768);
        for (p, v) in self.large {
            inst = inst.set(p, *v);
        }
        inst
    }

    /// Evaluates the kernel's symbolic operation count on the LARGE dataset.
    pub fn ops_at_large(&self) -> f64 {
        let env = self.large_instance().as_f64_env();
        self.ops.eval_f64(&env).unwrap_or(0.0)
    }
}

/// Helper: a program parameter as a `Poly`.
pub(crate) fn p(name: &str) -> Poly {
    Poly::param(name)
}

/// Helper: builds a `Poly` product of parameters.
pub fn poly_prod(params: &[&str]) -> Poly {
    params
        .iter()
        .fold(Poly::one(), |acc, p| acc * Poly::param(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_prod_builds_products() {
        let p = poly_prod(&["M", "N"]);
        assert_eq!(p.to_string(), "M*N");
        assert_eq!(poly_prod(&[]).to_string(), "1");
    }
}
