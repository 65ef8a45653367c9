//! Trace-walker regressions: loop extents with non-unit parameter
//! coefficients are walked in full, and the walker's own budget checkpoint
//! turns an expired deadline or a tripped cancel token into a typed
//! interrupt (and, through `tightness::measure`, a skipped instance).

use iolb::core::tightness::{generate_trace, measure, TightnessOptions, DEFAULT_MAX_TRACE};
use iolb::core::{analyze, Workload};
use iolb::frontend::{IolbFile, IolbSource};
use iolb::prelude::*;
use std::time::Instant;

/// `i < 2*N` bounds the loop with a coefficient-2 parameter term.
const DOUBLED_EXTENT: &str = "parameter N;
double A[2*N];
double B[2*N];
for (i = 0; i < 2*N; i++)
  B[i] = A[i] + 1;";

#[test]
fn doubled_extent_is_walked_in_full() {
    EngineCtx::new().scope(|| {
        let prepared = IolbSource::new(DOUBLED_EXTENT).prepare().unwrap();
        let instance = Instance::new().set("N", 16);
        let t = generate_trace(&prepared.dfg, &instance, DEFAULT_MAX_TRACE).unwrap();
        assert!(!t.truncated);
        assert_eq!(t.points, 32, "every i in 0..2N is one statement instance");
        // One read of A[i] and one write of B[i] per instance, all distinct.
        assert_eq!(t.trace.len(), 64);
        assert_eq!(t.distinct_addresses, 64);
    });
}

#[test]
fn walker_checkpoint_honours_deadline_and_cancellation() {
    let engine = EngineCtx::new();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs/ai/conv2d.iolb");
    let (dfg, params, analysis) = engine.scope(|| {
        let prepared = IolbFile::new(path).prepare().unwrap();
        let analysis = analyze(
            &prepared.dfg,
            &Analyzer::default_options_for(&prepared.params),
        );
        (prepared.dfg, prepared.params, analysis)
    });
    let mut instance = Instance::new();
    for p in &params {
        instance = instance.set(p, 16);
    }

    let cancelled = CancelToken::new();
    cancelled.cancel();
    for (budget, code) in [
        (Budget::none().deadline_at(Instant::now()), "deadline"),
        (Budget::none().cancel_token(cancelled), "cancelled"),
    ] {
        engine.install_budget(budget);
        engine.scope(|| {
            let walked =
                EngineInterrupt::catch(|| generate_trace(&dfg, &instance, DEFAULT_MAX_TRACE));
            match walked {
                Err(interrupt) => assert_eq!(interrupt.code(), code),
                Ok(_) => panic!("the walk ignored a tripped {code} budget"),
            }

            let report = measure(&dfg, &analysis, &params, &TightnessOptions::default());
            assert_eq!(report.instances.len(), 1);
            let skipped = report.instances[0].skipped.as_deref();
            assert_eq!(
                skipped,
                Some(format!("engine budget tripped: {code}").as_str())
            );
            assert!(report.instances[0].caches.is_empty());
        });
        engine.clear_budget();
    }
}
