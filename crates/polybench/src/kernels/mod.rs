//! The 30 kernels of PolyBench/C 4.2, expressed as data-flow graphs with the
//! Table-1 metadata of the paper.

pub mod blas;
pub mod misc;
pub mod solvers;
pub mod stencils;

use crate::meta::Kernel;

/// One registry entry: a kernel name and its constructor.
type KernelBuilder = (&'static str, fn() -> Kernel);

/// The name → constructor registry, in Table-1 order. Each entry's name
/// must equal the `Kernel::name` its builder produces (asserted by a test),
/// so a single kernel can be built without constructing the whole suite.
const REGISTRY: &[KernelBuilder] = &[
    // Division 1: tileable, non-trivial bound.
    ("2mm", blas::two_mm),
    ("3mm", blas::three_mm),
    ("cholesky", solvers::cholesky),
    ("correlation", misc::correlation),
    ("covariance", misc::covariance),
    ("doitgen", blas::doitgen),
    ("fdtd-2d", stencils::fdtd_2d),
    ("floyd-warshall", misc::floyd_warshall),
    ("gemm", blas::gemm),
    ("heat-3d", stencils::heat_3d),
    ("jacobi-1d", stencils::jacobi_1d),
    ("jacobi-2d", stencils::jacobi_2d),
    ("lu", solvers::lu),
    ("ludcmp", solvers::ludcmp),
    ("seidel-2d", stencils::seidel_2d),
    ("symm", blas::symm),
    ("syr2k", blas::syr2k),
    ("syrk", blas::syrk),
    ("trmm", blas::trmm),
    // Division 2: streaming (constant ops/input ratio).
    ("atax", blas::atax),
    ("bicg", blas::bicg),
    ("deriche", misc::deriche),
    ("gemver", blas::gemver),
    ("gesummv", blas::gesummv),
    ("mvt", blas::mvt),
    ("trisolv", blas::trisolv),
    // Division 3: provably not tileable (wavefront-bounded).
    ("adi", stencils::adi),
    ("durbin", solvers::durbin),
    // Division 4: known open gap.
    ("gramschmidt", solvers::gramschmidt),
    ("nussinov", misc::nussinov),
];

/// Returns every kernel of the suite, in the order of Table 1.
pub fn all_kernels() -> Vec<Kernel> {
    REGISTRY.iter().map(|(_, build)| build()).collect()
}

/// The kernel names in Table-1 order, without building any kernel.
pub fn kernel_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _)| *name).collect()
}

/// Looks a kernel up by its PolyBench name, building only that kernel.
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_suite_has_thirty_kernels() {
        assert_eq!(all_kernels().len(), 30);
        assert_eq!(kernel_names().len(), 30);
    }

    #[test]
    fn registry_names_match_the_built_kernels() {
        for (name, build) in super::REGISTRY {
            assert_eq!(*name, build().name, "registry entry out of sync");
        }
    }

    #[test]
    fn kernel_names_are_unique() {
        let names: BTreeSet<&str> = all_kernels().iter().map(|k| k.name).collect();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn lookups_do_no_engine_work() {
        let session = iolb_poly::EngineCtx::new();
        session.scope(|| {
            assert!(kernel_by_name("gemm").is_some());
            assert_eq!(all_kernels().len(), 30);
        });
        assert_eq!(session.stats(), iolb_poly::stats::Snapshot::default());
        assert_eq!(session.interned_params(), 0);
    }

    #[test]
    fn lookup_by_name() {
        assert!(kernel_by_name("gemm").is_some());
        assert!(kernel_by_name("floyd-warshall").is_some());
        assert!(kernel_by_name("spmv").is_none());
    }

    #[test]
    fn every_kernel_has_large_sizes_for_all_params() {
        for k in all_kernels() {
            for p in k.params {
                assert!(
                    k.large.iter().any(|(name, _)| name == p),
                    "{}: parameter {p} missing from LARGE sizes",
                    k.name
                );
            }
        }
    }
}
