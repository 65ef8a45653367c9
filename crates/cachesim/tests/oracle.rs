//! Trace-oracle property tests for the cache simulator: invariants that any
//! correct LRU / Belady implementation must satisfy, checked over seeded
//! pseudo-random traces, sparse-address traces and real kernel schedule
//! traces, plus a differential pin of the dense-id implementations against
//! naive reference simulators.

use iolb_cachesim::{distinct_addresses, simulate_lru, simulate_optimal, CacheStats, DenseTrace};
use std::collections::{HashMap, HashSet};

/// Deterministic LCG trace over a bounded address universe.
fn lcg_trace(seed: u64, len: usize, universe: u64) -> Vec<u64> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) % universe
        })
        .collect()
}

/// A skewed trace: a hot working set revisited between bursts of cold
/// streaming addresses — the locality shape of tiled kernels.
fn skewed_trace(seed: u64, len: usize) -> Vec<u64> {
    let mut x = seed;
    let mut cold = 1_000_000u64;
    (0..len)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if i % 3 == 0 {
                cold += 1;
                cold
            } else {
                (x >> 33) % 48
            }
        })
        .collect()
}

/// A sparse trace: the LCG trace's addresses scattered over the whole `u64`
/// range — large strides, and the top of the range up to `u64::MAX` itself.
fn sparse_trace(seed: u64, len: usize, universe: u64) -> Vec<u64> {
    lcg_trace(seed, len, universe)
        .into_iter()
        .map(|a| match a % 3 {
            0 => u64::MAX - a,
            1 => a.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            _ => a << 40,
        })
        .collect()
}

/// The corpus: seeded random and sparse-address traces plus real kernel
/// schedule traces.
fn corpus() -> Vec<(String, Vec<u64>)> {
    let mut traces = vec![
        ("lcg-small-universe".to_string(), lcg_trace(1, 4000, 97)),
        ("lcg-large-universe".to_string(), lcg_trace(2, 4000, 2048)),
        ("lcg-tiny".to_string(), lcg_trace(3, 64, 7)),
        ("skewed".to_string(), skewed_trace(4, 4000)),
        ("single-address".to_string(), vec![42; 100]),
        ("strictly-streaming".to_string(), (0..1500).collect()),
        ("sparse-near-max".to_string(), sparse_trace(5, 4000, 300)),
        (
            "sparse-strided".to_string(),
            (0..2000u64).map(|i| ((i % 90) << 48) | (i % 7)).collect(),
        ),
    ];
    for kernel in ["gemm", "atax", "jacobi-2d", "floyd-warshall"] {
        let t = iolb_polybench::trace(kernel, 24, 8).expect("kernel schedule trace");
        traces.push((format!("kernel-{kernel}"), t.trace));
    }
    traces
}

const CAPACITIES: &[usize] = &[1, 2, 3, 7, 16, 64, 255, 1024];

fn check_consistent(name: &str, cap: usize, stats: &CacheStats, trace_len: usize) {
    assert_eq!(stats.accesses, trace_len as u64, "{name} cap={cap}");
    assert_eq!(
        stats.hits + stats.misses,
        stats.accesses,
        "{name} cap={cap}: hits + misses must partition accesses"
    );
}

#[test]
fn opt_misses_never_exceed_lru_misses() {
    for (name, trace) in corpus() {
        // One prepared trace serves every capacity and both policies with
        // exactly the one-shot results.
        let prepared = DenseTrace::new(&trace);
        for &cap in CAPACITIES {
            let lru = simulate_lru(&trace, cap);
            let opt = simulate_optimal(&trace, cap);
            assert_eq!(prepared.lru(cap), lru, "{name} cap={cap} (prepared LRU)");
            assert_eq!(
                prepared.optimal(cap),
                opt,
                "{name} cap={cap} (prepared OPT)"
            );
            check_consistent(&name, cap, &lru, trace.len());
            check_consistent(&name, cap, &opt, trace.len());
            assert!(
                opt.misses <= lru.misses,
                "{name} cap={cap}: OPT ({}) beat by LRU ({})",
                opt.misses,
                lru.misses
            );
        }
    }
}

#[test]
fn misses_are_monotonically_non_increasing_in_capacity() {
    for (name, trace) in corpus() {
        let mut last_lru = u64::MAX;
        let mut last_opt = u64::MAX;
        for &cap in CAPACITIES {
            let lru = simulate_lru(&trace, cap).misses;
            let opt = simulate_optimal(&trace, cap).misses;
            assert!(
                lru <= last_lru,
                "{name}: LRU misses grew {last_lru} -> {lru} at cap={cap}"
            );
            assert!(
                opt <= last_opt,
                "{name}: OPT misses grew {last_opt} -> {opt} at cap={cap}"
            );
            last_lru = lru;
            last_opt = opt;
        }
    }
}

#[test]
fn every_policy_pays_exactly_the_cold_misses_when_everything_fits() {
    for (name, trace) in corpus() {
        let distinct = distinct_addresses(&trace);
        // Any capacity at least the footprint (and the "infinite" cache)
        // misses exactly once per distinct address.
        for cap in [distinct as usize, distinct as usize + 1000, usize::MAX >> 1] {
            let lru = simulate_lru(&trace, cap.max(1));
            let opt = simulate_optimal(&trace, cap.max(1));
            assert_eq!(lru.misses, distinct, "{name} cap={cap} (LRU)");
            assert_eq!(opt.misses, distinct, "{name} cap={cap} (OPT)");
        }
    }
}

#[test]
fn misses_are_always_at_least_the_cold_misses() {
    for (name, trace) in corpus() {
        let distinct = distinct_addresses(&trace);
        for &cap in CAPACITIES {
            // Cold misses are unavoidable at any capacity under any policy.
            assert!(
                simulate_lru(&trace, cap).misses >= distinct,
                "{name} cap={cap}: LRU missed fewer times than distinct addresses"
            );
            assert!(
                simulate_optimal(&trace, cap).misses >= distinct,
                "{name} cap={cap}: OPT missed fewer times than distinct addresses"
            );
        }
    }
}

/// Naive reference LRU: linear min-scan eviction (the pre-optimisation
/// implementation shape).
fn naive_lru_misses(trace: &[u64], capacity: usize) -> u64 {
    let mut resident: HashMap<u64, u64> = HashMap::new();
    let mut clock = 0u64;
    let mut misses = 0u64;
    for &a in trace {
        clock += 1;
        if let Some(stamp) = resident.get_mut(&a) {
            *stamp = clock;
            continue;
        }
        misses += 1;
        if resident.len() >= capacity {
            if let Some((&victim, _)) = resident.iter().min_by_key(|(_, &ts)| ts) {
                resident.remove(&victim);
            }
        }
        resident.insert(a, clock);
    }
    misses
}

/// Naive reference Belady: linear furthest-next-use scan.
fn naive_opt_misses(trace: &[u64], capacity: usize) -> u64 {
    let mut next_use = vec![usize::MAX; trace.len()];
    let mut last_pos: HashMap<u64, usize> = HashMap::new();
    for (i, &a) in trace.iter().enumerate().rev() {
        next_use[i] = last_pos.get(&a).copied().unwrap_or(usize::MAX);
        last_pos.insert(a, i);
    }
    let mut resident: HashMap<u64, usize> = HashMap::new();
    let mut misses = 0u64;
    for (i, &a) in trace.iter().enumerate() {
        if let std::collections::hash_map::Entry::Occupied(mut e) = resident.entry(a) {
            e.insert(next_use[i]);
            continue;
        }
        misses += 1;
        if resident.len() >= capacity {
            if let Some((&victim, _)) = resident.iter().max_by_key(|(_, &nu)| nu) {
                resident.remove(&victim);
            }
        }
        resident.insert(a, next_use[i]);
    }
    misses
}

#[test]
fn log_time_simulators_match_naive_references() {
    for (name, trace) in corpus() {
        for &cap in &[1usize, 2, 7, 64, 255] {
            assert_eq!(
                simulate_lru(&trace, cap).misses,
                naive_lru_misses(&trace, cap),
                "{name} cap={cap} (LRU differential)"
            );
            assert_eq!(
                simulate_optimal(&trace, cap).misses,
                naive_opt_misses(&trace, cap),
                "{name} cap={cap} (OPT differential)"
            );
        }
    }
}

#[test]
fn distinct_addresses_counts_the_footprint() {
    assert_eq!(distinct_addresses(&[]), 0);
    assert_eq!(distinct_addresses(&[5, 5, 5]), 1);
    assert_eq!(distinct_addresses(&[1, 2, 3, 2, 1]), 3);
    let t = lcg_trace(9, 4000, 97);
    assert!(distinct_addresses(&t) <= 97);
    for (name, trace) in corpus() {
        let footprint = trace.iter().collect::<HashSet<_>>().len() as u64;
        assert_eq!(distinct_addresses(&trace), footprint, "{name}");
    }
}
