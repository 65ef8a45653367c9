//! The acceptance gate for the session-scoped engine: on every PolyBench
//! kernel, the parallel, cached driver must produce a `q_low`
//! **byte-identical** to the serial, uncached path, and two engine sessions
//! running concurrently must share no cache or statistics while still
//! producing byte-identical results.

use iolb::prelude::*;

/// Serial + parallel equivalence, per kernel, across isolated sessions: a
/// serial uncached session and a parallel cached session must agree byte
/// for byte (the PR-1 guarantee, now with per-kernel isolation).
#[test]
fn cached_parallel_q_low_matches_serial_uncached_on_every_kernel() {
    for kernel in iolb::polybench::all_kernels() {
        let serial = Analyzer::new()
            .parallel(false)
            .cache_capacity(0)
            .analyze(&kernel)
            .unwrap();
        let fast = Analyzer::new().parallel(true).analyze(&kernel).unwrap();

        assert_eq!(
            serial.analysis().q_low.to_string(),
            fast.analysis().q_low.to_string(),
            "{}: parallel+cached q_low diverged from serial+uncached",
            kernel.name
        );
        assert_eq!(
            serial.analysis().input_size.to_string(),
            fast.analysis().input_size.to_string(),
            "{}: input-size term diverged",
            kernel.name
        );
        assert_eq!(
            serial.analysis().accepted.len(),
            fast.analysis().accepted.len(),
            "{}: accepted candidate set diverged",
            kernel.name
        );
        // The uncached session must report zero hits; its counters come from
        // this kernel alone.
        assert_eq!(serial.stats.FEASIBILITY_CACHE_HITS, 0, "{}", kernel.name);
        assert_eq!(serial.stats.COUNT_CACHE_HITS, 0, "{}", kernel.name);
    }
}

/// The session-isolation proof: all 30 kernels are analysed **concurrently
/// in two threads**, each kernel in its own session, and every result —
/// `q_low` *and* the per-session operation counters — must be byte-for-byte
/// identical to a serial single-session reference run. If sessions shared
/// any cache entry or counter, the concurrent counters would diverge (extra
/// hits, bled counts).
#[test]
fn concurrent_sessions_share_no_cache_or_stats_and_agree_with_serial_runs() {
    let kernels = iolb::polybench::all_kernels();

    // Serial references: one fresh session per kernel, serial driver (the
    // serial driver keeps the operation counts deterministic).
    let reference: Vec<(String, iolb::poly::stats::Snapshot)> = kernels
        .iter()
        .map(|kernel| {
            let outcome = Analyzer::new().parallel(false).analyze(kernel).unwrap();
            (outcome.analysis().q_low.to_string(), outcome.stats)
        })
        .collect();

    // Concurrent run: two threads split the suite and race.
    let mid = kernels.len() / 2;
    let halves = [&kernels[..mid], &kernels[mid..]];
    let results: Vec<Vec<(String, iolb::poly::stats::Snapshot)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .iter()
            .map(|half| {
                scope.spawn(move || {
                    half.iter()
                        .map(|kernel| {
                            let outcome = Analyzer::new().parallel(false).analyze(kernel).unwrap();
                            (outcome.analysis().q_low.to_string(), outcome.stats)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let concurrent: Vec<(String, iolb::poly::stats::Snapshot)> =
        results.into_iter().flatten().collect();
    assert_eq!(concurrent.len(), reference.len());
    for (i, kernel) in kernels.iter().enumerate() {
        assert_eq!(
            concurrent[i].0, reference[i].0,
            "{}: concurrent-session q_low diverged from the serial reference",
            kernel.name
        );
        assert_eq!(
            concurrent[i].1, reference[i].1,
            "{}: concurrent-session engine counters diverged — sessions are \
             not isolated",
            kernel.name
        );
    }
}

/// The degradation gate: a budget that is installed but never trips must be
/// *invisible* — `q_low` byte-identical to the unbudgeted run and no
/// degradation marker — on every kernel. Budget checkpoints sit inside the
/// FM and counting hot loops, so this is the proof that checking a budget
/// is observation, not perturbation.
#[test]
fn untripped_budgets_leave_q_low_byte_identical_on_every_kernel() {
    use std::time::Duration;
    for kernel in iolb::polybench::all_kernels() {
        let plain = Analyzer::new().parallel(false).analyze(&kernel).unwrap();
        let budgeted = Analyzer::new()
            .parallel(false)
            .deadline(Duration::from_secs(3600))
            .budget(
                Budget::none()
                    .max_fm_steps(u64::MAX)
                    .max_constraints(usize::MAX)
                    .max_cache_entries(usize::MAX)
                    .cancel_token(CancelToken::new()),
            )
            .analyze(&kernel)
            .unwrap();
        assert_eq!(
            plain.analysis().q_low.to_string(),
            budgeted.analysis().q_low.to_string(),
            "{}: an untripped budget changed the bound",
            kernel.name
        );
        assert!(
            budgeted.analysis().degradation.is_none(),
            "{}: an untripped budget reported degradation",
            kernel.name
        );
    }
}

#[test]
fn repeated_analysis_in_one_session_is_deterministic_and_warm() {
    // Two runs of the same analysis in one session (second one fully
    // cache-warm) must agree, and the second must actually hit the cache.
    let kernel = iolb::polybench::kernel_by_name("cholesky").unwrap();
    let first = Analyzer::new().analyze(&kernel).unwrap();
    let second = Analyzer::new()
        .engine(first.engine().clone())
        .analyze(&kernel)
        .unwrap();
    assert_eq!(
        first.analysis().q_low.to_string(),
        second.analysis().q_low.to_string()
    );
    assert_eq!(
        first.analysis().q_asymptotic().to_string(),
        second.analysis().q_asymptotic().to_string()
    );
    // The warm run must be answered from the cache. Comparing hit *counts*
    // across the runs would be misleading: a top-level hit in the warm run
    // short-circuits the whole memoized elimination recursion, so the warm
    // run consults the cache far fewer times than the cold run's
    // intermediate states did. The direct property is that the warm run
    // recomputes nothing: every consult hits and no elimination is ever
    // performed.
    assert!(
        second.stats.FEASIBILITY_CACHE_HITS > 0,
        "second run in the same session should be answered from the warm cache"
    );
    assert_eq!(
        second.stats.FM_ELIMINATIONS, 0,
        "a fully warm run must not recompute any elimination"
    );
    assert_eq!(
        second.stats.feasibility_hit_rate(),
        Some(1.0),
        "every feasibility consult of the warm run must hit"
    );
}

/// The prune pass is a budget checkpoint: on the default engine
/// configuration, an expired deadline must trip `EngineInterrupt::Deadline`
/// from *inside* a plain `fm::is_feasible_in` — before a single
/// Fourier–Motzkin elimination has run — and surface as a typed, catchable
/// interrupt rather than a wedged loop.
#[test]
fn expired_deadline_trips_inside_prune_checkpoints() {
    use iolb::poly::{Constraint, LinExpr};
    use std::time::Duration;

    // `x + k >= 0` for 1100 distinct k, and `x <= 10`: the structural prune
    // of the input system polls the budget every 1024 constraints, so the
    // already-expired deadline raises there, ahead of any elimination.
    let engine = EngineCtx::new();
    engine.install_budget(Budget::none().deadline_in(Duration::ZERO));
    let result = engine.scope(|| {
        EngineInterrupt::catch(|| {
            let mut sys: Vec<Constraint> = (0..1100)
                .map(|k| Constraint::ge0(LinExpr::var(1, 0).add(&LinExpr::constant(1, k))))
                .collect();
            sys.push(Constraint::ge0(
                LinExpr::constant(1, 10).sub(&LinExpr::var(1, 0)),
            ));
            iolb::poly::fm::is_feasible_in(&EngineCtx::current(), &sys, 1)
        })
    });
    engine.clear_budget();
    assert_eq!(result, Err(EngineInterrupt::Deadline));
    assert_eq!(
        engine.stats().FM_ELIMINATIONS,
        0,
        "the deadline fired during pruning, before any elimination"
    );
}

/// A deadline too short for heat-3d must degrade the analysis (or reject it
/// outright before any bound exists) and must **never** publish the partial
/// result to the result cache: the next uncontended request recomputes in
/// full.
#[test]
fn tripped_deadline_never_publishes_to_the_result_cache() {
    use std::time::Duration;

    let cache = ResultCache::new(ResultCacheConfig::default()).unwrap();
    let kernel = iolb::polybench::kernel_by_name("heat-3d").unwrap();
    let rushed = Analyzer::new()
        .parallel(false)
        .deadline(Duration::from_millis(1))
        .result_cache(cache.clone())
        .analyze_cached(&kernel);
    match rushed {
        Ok(reply) => {
            // The deadline tripped after the compulsory-miss term: a valid
            // but degraded bound, computed fresh and not stored.
            assert!(!reply.cached(), "a rushed first request cannot be served");
            let outcome = reply.outcome().expect("computed reply has an outcome");
            assert!(
                outcome.analysis().degradation.is_some(),
                "a 1ms deadline must degrade heat-3d"
            );
        }
        Err(AnalyzeError::Interrupted(interrupt)) => {
            // Tripped before any valid bound existed.
            assert_eq!(interrupt, EngineInterrupt::Deadline);
        }
        Err(other) => panic!("unexpected analyze error: {other}"),
    }
    // Whatever happened above, nothing was published: a fresh unhurried
    // request must compute, not replay a degraded document.
    let relaxed = Analyzer::new()
        .result_cache(cache.clone())
        .analyze_cached(&kernel)
        .unwrap();
    assert!(
        !relaxed.cached(),
        "a degraded or rejected analysis must never be published to the result cache"
    );
    assert!(
        relaxed
            .outcome()
            .expect("computed reply")
            .analysis()
            .degradation
            .is_none(),
        "the unhurried rerun must be complete"
    );
}

/// The result-cache replay gate: every kernel is analysed three times —
/// cold (computing and filling a disk-backed result cache), hot (the
/// memory tier), and from a *fresh* cache over the same directory (the
/// disk tier, i.e. a simulated daemon restart) — and the full report
/// document must be **byte-identical** on all three paths, with the
/// `cached` flag and serving tier correct on each.
#[test]
fn result_cache_replays_every_kernel_byte_identically_across_tiers() {
    use iolb::core::result_cache::Tier;

    let dir = std::env::temp_dir().join(format!("iolb-replay-gate-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let disk_cache = || {
        ResultCache::new(ResultCacheConfig {
            disk: Some(DiskTierConfig::new(dir.clone())),
            ..ResultCacheConfig::default()
        })
        .expect("disk tier opens")
    };

    let cache = disk_cache();
    let kernels = iolb::polybench::all_kernels();

    // Cold pass: every reply computes, carries its fingerprint, and fills
    // both tiers.
    let cold: Vec<String> = kernels
        .iter()
        .map(|kernel| {
            let reply = Analyzer::new()
                .result_cache(cache.clone())
                .analyze_cached(kernel)
                .unwrap();
            assert!(!reply.cached(), "{}: cold pass must compute", kernel.name);
            assert!(reply.fingerprint().is_some(), "{}", kernel.name);
            reply.to_json()
        })
        .collect();

    // Hot pass: the memory tier serves every kernel, byte for byte.
    for (kernel, cold_json) in kernels.iter().zip(&cold) {
        let reply = Analyzer::new()
            .result_cache(cache.clone())
            .analyze_cached(kernel)
            .unwrap();
        match &reply {
            AnalysisReply::Cached { tier, .. } => assert_eq!(
                *tier,
                Tier::Memory,
                "{}: hot pass must hit the memory tier",
                kernel.name
            ),
            AnalysisReply::Computed { .. } => panic!("{}: hot pass recomputed", kernel.name),
        }
        assert_eq!(
            &reply.to_json(),
            cold_json,
            "{}: memory-tier replay is not byte-identical",
            kernel.name
        );
    }

    // Simulated restart: a fresh cache over the same directory has an
    // empty memory tier and must replay every kernel from disk.
    drop(cache);
    let restarted = disk_cache();
    for (kernel, cold_json) in kernels.iter().zip(&cold) {
        let reply = Analyzer::new()
            .result_cache(restarted.clone())
            .analyze_cached(kernel)
            .unwrap();
        match &reply {
            AnalysisReply::Cached { tier, .. } => assert_eq!(
                *tier,
                Tier::Disk,
                "{}: post-restart pass must hit the disk tier",
                kernel.name
            ),
            AnalysisReply::Computed { .. } => panic!("{}: restart pass recomputed", kernel.name),
        }
        assert_eq!(
            &reply.to_json(),
            cold_json,
            "{}: disk-tier replay is not byte-identical",
            kernel.name
        );
    }
    let stats = restarted.stats();
    assert_eq!(stats.disk_hits, kernels.len() as u64);
    assert_eq!(stats.disk_corrupt, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The lower-bound soundness gate: on every kernel with a simulatable
/// instance, the measured LRU miss count must dominate the evaluated
/// parametric `Q_low` at that instance and cache size — a kernel failing
/// this is an engine bug, not a tightness shortfall. And turning the
/// tightness pass on must leave the analytical `q_low` expression
/// byte-identical to the plain path on all 30 kernels: simulation is
/// observation, not perturbation.
#[test]
fn measured_lru_misses_dominate_q_low_and_tightness_leaves_q_low_byte_identical() {
    // Two regimes per kernel: a thrashing cache (64 words) and one large
    // enough that the default all-16 instance fits (1024 words).
    let opts = TightnessOptions::default().cache_sizes(&[64, 1024]);
    let mut kernels_with_sound_points = 0usize;
    for kernel in iolb::polybench::all_kernels() {
        let plain = Analyzer::new().parallel(false).analyze(&kernel).unwrap();
        let simulated = Analyzer::new()
            .parallel(false)
            .analyze_with_tightness(&kernel, &opts)
            .unwrap();

        assert_eq!(
            plain.analysis().q_low.to_string(),
            simulated.analysis().q_low.to_string(),
            "{}: enabling the tightness pass changed q_low",
            kernel.name
        );

        let report = simulated
            .tightness
            .as_ref()
            .expect("analyze_with_tightness always attaches a report");
        let mut sound_points = 0usize;
        for inst in report.simulated() {
            // Cold misses are a floor for any policy; the walker's trace
            // must respect it.
            for point in &inst.caches {
                assert!(
                    point.lru.misses >= inst.distinct_addresses,
                    "{}: LRU misses below the compulsory floor",
                    kernel.name
                );
                let Some(q_low) = point.q_low else { continue };
                assert!(
                    q_low <= point.lru.misses as f64 + 1e-6,
                    "{}: UNSOUND — Q_low {} exceeds measured LRU misses {} at \
                     {} words ({:?})",
                    kernel.name,
                    q_low,
                    point.lru.misses,
                    point.cache_words,
                    inst.instance
                );
                if let Some(ratio) = point.tightness_lru() {
                    assert!(
                        ratio > 0.0 && ratio <= 1.0 + 1e-9,
                        "{}: tightness ratio {ratio} outside (0, 1]",
                        kernel.name
                    );
                }
                sound_points += 1;
            }
        }
        if sound_points > 0 {
            kernels_with_sound_points += 1;
        }
    }
    // The walker must actually cover the suite: a regression that silently
    // skips most kernels (budget trips, enumeration failures) fails here.
    assert!(
        kernels_with_sound_points >= 25,
        "only {kernels_with_sound_points} kernels produced simulatable \
         instances with an evaluable Q_low"
    );
}
