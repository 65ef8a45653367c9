//! Simulator pins: every built-in kernel and every shipped `.iolb` example
//! (except the intentionally bad ones), walked at every parameter set to
//! 9, must reproduce the pinned LRU and OPT miss and hit counts at cache
//! sizes 1, 7, 64, 256 and 1024 words.
//!
//! `tests/trace_pins.rs` holds the walker to byte-identical traces; these
//! pins hold the cache simulator to identical counts on the same corpus.
//! Sizes 1 and 7 are where an eviction-order bug shows first.

use iolb::cachesim::{simulate_lru, simulate_optimal};
use iolb::core::tightness::{generate_trace, DEFAULT_MAX_TRACE};
use iolb::core::workload::dfg_params;
use iolb::frontend::IolbFile;
use iolb::prelude::*;

/// The parameter value every program is walked at.
const PARAM: i128 = 9;

/// The simulated fast-memory sizes, in words.
const SIZES: [usize; 5] = [1, 7, 64, 256, 1024];

/// `(program, cache words, LRU misses, LRU hits, OPT misses, OPT hits)`.
type Pin = (&'static str, usize, u64, u64, u64, u64);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("2mm", 1, 5103, 648, 5103, 648),
    ("2mm", 7, 3159, 2592, 2430, 3321),
    ("2mm", 64, 1863, 3888, 983, 4768),
    ("2mm", 256, 558, 5193, 486, 5265),
    ("2mm", 1024, 486, 5265, 486, 5265),
    ("3mm", 1, 6561, 1944, 6561, 1944),
    ("3mm", 7, 4617, 3888, 3537, 4968),
    ("3mm", 64, 2673, 5832, 1344, 7161),
    ("3mm", 256, 651, 7854, 567, 7938),
    ("3mm", 1024, 567, 7938, 567, 7938),
    ("cholesky", 1, 477, 120, 477, 120),
    ("cholesky", 7, 331, 266, 258, 339),
    ("cholesky", 64, 195, 402, 126, 471),
    ("cholesky", 256, 117, 480, 117, 480),
    ("cholesky", 1024, 117, 480, 117, 480),
    ("correlation", 1, 1134, 441, 1134, 441),
    ("correlation", 7, 774, 801, 580, 995),
    ("correlation", 64, 311, 1264, 144, 1431),
    ("correlation", 256, 126, 1449, 126, 1449),
    ("correlation", 1024, 126, 1449, 126, 1449),
    ("covariance", 1, 1134, 441, 1134, 441),
    ("covariance", 7, 774, 801, 580, 995),
    ("covariance", 64, 311, 1264, 144, 1431),
    ("covariance", 256, 126, 1449, 126, 1449),
    ("covariance", 1024, 126, 1449, 126, 1449),
    ("doitgen", 1, 2187, 648, 2187, 648),
    ("doitgen", 7, 1539, 1296, 1179, 1656),
    ("doitgen", 64, 891, 1944, 451, 2384),
    ("doitgen", 256, 243, 2592, 243, 2592),
    ("doitgen", 1024, 243, 2592, 243, 2592),
    ("fdtd-2d", 1, 5264, 0, 5264, 0),
    ("fdtd-2d", 7, 4368, 896, 3693, 1571),
    ("fdtd-2d", 64, 3472, 1792, 2900, 2364),
    ("fdtd-2d", 256, 2960, 2304, 2450, 2814),
    ("fdtd-2d", 1024, 2562, 2702, 1936, 3328),
    ("floyd-warshall", 1, 2674, 80, 2674, 80),
    ("floyd-warshall", 7, 2031, 723, 1689, 1065),
    ("floyd-warshall", 64, 1439, 1315, 1007, 1747),
    ("floyd-warshall", 256, 810, 1944, 810, 1944),
    ("floyd-warshall", 1024, 810, 1944, 810, 1944),
    ("gemm", 1, 2268, 648, 2268, 648),
    ("gemm", 7, 1620, 1296, 1260, 1656),
    ("gemm", 64, 972, 1944, 532, 2384),
    ("gemm", 256, 324, 2592, 324, 2592),
    ("gemm", 1024, 324, 2592, 324, 2592),
    ("heat-3d", 1, 12174, 0, 12174, 0),
    ("heat-3d", 7, 10174, 2000, 8832, 3342),
    ("heat-3d", 64, 8174, 4000, 5981, 6193),
    ("heat-3d", 256, 6174, 6000, 4261, 7913),
    ("heat-3d", 1024, 3430, 8744, 3430, 8744),
    ("jacobi-1d", 1, 222, 0, 222, 0),
    ("jacobi-1d", 7, 126, 96, 80, 142),
    ("jacobi-1d", 64, 70, 152, 70, 152),
    ("jacobi-1d", 256, 70, 152, 70, 152),
    ("jacobi-1d", 1024, 70, 152, 70, 152),
    ("jacobi-2d", 1, 2226, 0, 2226, 0),
    ("jacobi-2d", 7, 1554, 672, 1308, 918),
    ("jacobi-2d", 64, 882, 1344, 490, 1736),
    ("jacobi-2d", 256, 490, 1736, 490, 1736),
    ("jacobi-2d", 1024, 490, 1736, 490, 1736),
    ("lu", 1, 816, 0, 816, 0),
    ("lu", 7, 646, 170, 535, 281),
    ("lu", 64, 491, 325, 346, 470),
    ("lu", 256, 329, 487, 304, 512),
    ("lu", 1024, 304, 512, 304, 512),
    ("ludcmp", 1, 816, 0, 816, 0),
    ("ludcmp", 7, 646, 170, 535, 281),
    ("ludcmp", 64, 491, 325, 346, 470),
    ("ludcmp", 256, 329, 487, 304, 512),
    ("ludcmp", 1024, 304, 512, 304, 512),
    ("seidel-2d", 1, 2304, 6, 2304, 6),
    ("seidel-2d", 7, 1596, 714, 1282, 1028),
    ("seidel-2d", 64, 882, 1428, 490, 1820),
    ("seidel-2d", 256, 490, 1820, 490, 1820),
    ("seidel-2d", 1024, 490, 1820, 490, 1820),
    ("symm", 1, 1044, 252, 1044, 252),
    ("symm", 7, 768, 528, 543, 753),
    ("symm", 64, 445, 851, 258, 1038),
    ("symm", 256, 252, 1044, 252, 1044),
    ("symm", 1024, 252, 1044, 252, 1044),
    ("syr2k", 1, 1863, 522, 1863, 522),
    ("syr2k", 7, 1503, 882, 1309, 1076),
    ("syr2k", 64, 794, 1591, 513, 1872),
    ("syr2k", 256, 207, 2178, 207, 2178),
    ("syr2k", 1024, 207, 2178, 207, 2178),
    ("syrk", 1, 1179, 441, 1179, 441),
    ("syrk", 7, 819, 801, 625, 995),
    ("syrk", 64, 392, 1228, 189, 1431),
    ("syrk", 256, 171, 1449, 171, 1449),
    ("syrk", 1024, 171, 1449, 171, 1449),
    ("trmm", 1, 1224, 0, 1224, 0),
    ("trmm", 7, 688, 536, 470, 754),
    ("trmm", 64, 337, 887, 186, 1038),
    ("trmm", 256, 180, 1044, 180, 1044),
    ("trmm", 1024, 180, 1044, 180, 1044),
    ("atax", 1, 558, 72, 558, 72),
    ("atax", 7, 342, 288, 260, 370),
    ("atax", 64, 198, 432, 135, 495),
    ("atax", 256, 108, 522, 108, 522),
    ("atax", 1024, 108, 522, 108, 522),
    ("bicg", 1, 630, 0, 630, 0),
    ("bicg", 7, 342, 288, 260, 370),
    ("bicg", 64, 198, 432, 136, 494),
    ("bicg", 256, 117, 513, 117, 513),
    ("bicg", 1024, 117, 513, 117, 513),
    ("deriche", 1, 639, 144, 639, 144),
    ("deriche", 7, 279, 504, 235, 548),
    ("deriche", 64, 202, 581, 134, 649),
    ("deriche", 256, 108, 675, 108, 675),
    ("deriche", 1024, 108, 675, 108, 675),
    ("gemver", 1, 801, 72, 801, 72),
    ("gemver", 7, 513, 360, 422, 451),
    ("gemver", 64, 338, 535, 243, 630),
    ("gemver", 256, 198, 675, 198, 675),
    ("gemver", 1024, 198, 675, 198, 675),
    ("gesummv", 1, 396, 0, 396, 0),
    ("gesummv", 7, 252, 144, 211, 185),
    ("gesummv", 64, 180, 216, 180, 216),
    ("gesummv", 256, 180, 216, 180, 216),
    ("gesummv", 1024, 180, 216, 180, 216),
    ("mvt", 1, 630, 0, 630, 0),
    ("mvt", 7, 342, 288, 260, 370),
    ("mvt", 64, 188, 442, 136, 494),
    ("mvt", 256, 117, 513, 117, 513),
    ("mvt", 1024, 117, 513, 117, 513),
    ("trisolv", 1, 136, 0, 136, 0),
    ("trisolv", 7, 106, 30, 83, 53),
    ("trisolv", 64, 80, 56, 80, 56),
    ("trisolv", 256, 80, 56, 80, 56),
    ("trisolv", 1024, 80, 56, 80, 56),
    ("adi", 1, 6370, 392, 6370, 392),
    ("adi", 7, 6370, 392, 4017, 2745),
    ("adi", 64, 1302, 5460, 868, 5894),
    ("adi", 256, 882, 5880, 676, 6086),
    ("adi", 1024, 490, 6272, 490, 6272),
    ("durbin", 1, 168, 4, 168, 4),
    ("durbin", 7, 112, 60, 88, 84),
    ("durbin", 64, 52, 120, 52, 120),
    ("durbin", 256, 52, 120, 52, 120),
    ("durbin", 1024, 52, 120, 52, 120),
    ("gramschmidt", 1, 1296, 540, 1296, 540),
    ("gramschmidt", 7, 720, 1116, 644, 1192),
    ("gramschmidt", 64, 342, 1494, 216, 1620),
    ("gramschmidt", 256, 180, 1656, 180, 1656),
    ("gramschmidt", 1024, 180, 1656, 180, 1656),
    ("nussinov", 1, 436, 0, 436, 0),
    ("nussinov", 7, 220, 216, 154, 282),
    ("nussinov", 64, 128, 308, 128, 308),
    ("nussinov", 256, 128, 308, 128, 308),
    ("nussinov", 1024, 128, 308, 128, 308),
    ("gemm.iolb", 1, 2268, 648, 2268, 648),
    ("gemm.iolb", 7, 1620, 1296, 1260, 1656),
    ("gemm.iolb", 64, 972, 1944, 532, 2384),
    ("gemm.iolb", 256, 324, 2592, 324, 2592),
    ("gemm.iolb", 1024, 324, 2592, 324, 2592),
    ("cholesky.iolb", 1, 486, 120, 486, 120),
    ("cholesky.iolb", 7, 340, 266, 267, 339),
    ("cholesky.iolb", 64, 206, 400, 135, 471),
    ("cholesky.iolb", 256, 126, 480, 126, 480),
    ("cholesky.iolb", 1024, 126, 480, 126, 480),
    ("jacobi-2d.iolb", 1, 5292, 0, 5292, 0),
    ("jacobi-2d.iolb", 7, 3780, 1512, 3240, 2052),
    ("jacobi-2d.iolb", 64, 2268, 3024, 1778, 3514),
    ("jacobi-2d.iolb", 256, 1820, 3472, 1567, 3725),
    ("jacobi-2d.iolb", 1024, 987, 4305, 987, 4305),
    ("ai/attention.iolb", 1, 5346, 648, 5346, 648),
    ("ai/attention.iolb", 7, 3402, 2592, 2667, 3327),
    ("ai/attention.iolb", 64, 2106, 3888, 1206, 4788),
    ("ai/attention.iolb", 256, 779, 5215, 648, 5346),
    ("ai/attention.iolb", 1024, 648, 5346, 648, 5346),
    ("ai/conv2d.iolb", 1, 26244, 0, 26244, 0),
    ("ai/conv2d.iolb", 7, 19764, 6480, 19358, 6886),
    ("ai/conv2d.iolb", 64, 19764, 6480, 14741, 11503),
    ("ai/conv2d.iolb", 256, 8036, 18208, 7012, 19232),
    ("ai/conv2d.iolb", 1024, 7012, 19232, 7012, 19232),
    ("ai/mlp.iolb", 1, 5346, 648, 5346, 648),
    ("ai/mlp.iolb", 7, 3402, 2592, 2667, 3327),
    ("ai/mlp.iolb", 64, 2106, 3888, 1206, 4788),
    ("ai/mlp.iolb", 256, 779, 5215, 648, 5346),
    ("ai/mlp.iolb", 1024, 648, 5346, 648, 5346),
];

/// Walks and simulates every program of the corpus at every pinned size.
fn corpus_measurements() -> Vec<Pin> {
    let mut out = Vec::new();
    let mut record = |name: &'static str, dfg: &iolb::dfg::Dfg, params: &[String]| {
        let mut instance = Instance::new();
        for p in params {
            instance = instance.set(p, PARAM);
        }
        let t = generate_trace(dfg, &instance, DEFAULT_MAX_TRACE).expect("trace generates");
        assert!(!t.truncated, "{name}: walk truncated");
        for words in SIZES {
            let lru = simulate_lru(&t.trace, words);
            let opt = simulate_optimal(&t.trace, words);
            out.push((name, words, lru.misses, lru.hits, opt.misses, opt.hits));
        }
    };
    for name in iolb::polybench::kernel_names() {
        EngineCtx::new().scope(|| {
            let kernel = iolb::polybench::kernel_by_name(name).unwrap();
            let params = dfg_params(&kernel.dfg());
            record(name, &kernel.dfg(), &params);
        });
    }
    for file in EXAMPLES {
        EngineCtx::new().scope(|| {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("examples/programs")
                .join(file);
            let prepared = IolbFile::new(path).prepare().unwrap();
            record(file, &prepared.dfg, &prepared.params);
        });
    }
    out
}

/// The shipped example programs (`bad/` excluded).
const EXAMPLES: [&str; 6] = [
    "gemm.iolb",
    "cholesky.iolb",
    "jacobi-2d.iolb",
    "ai/attention.iolb",
    "ai/conv2d.iolb",
    "ai/mlp.iolb",
];

#[test]
fn simulated_misses_match_the_pins_on_the_whole_corpus() {
    let measured = corpus_measurements();
    let rendered: Vec<String> = measured.iter().map(|p| format!("{p:?},")).collect();
    assert_eq!(
        measured.len(),
        PINS.len(),
        "pin table out of date; measured:\n{}",
        rendered.join("\n")
    );
    for (got, want) in measured.iter().zip(PINS) {
        assert_eq!(got, want, "simulator pin mismatch");
    }
}
