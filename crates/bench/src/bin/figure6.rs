//! Regenerates Figure 6: for every PolyBench kernel, the achieved operational
//! intensity of a reference (tiled or streaming) schedule measured with the
//! LRU cache simulator, the analytical upper bound `OI_up`, and the machine
//! balance — classifying each kernel into the three scenarios of Sec. 8.2.
//!
//! Traces are generated at a scaled-down problem size with a proportionally
//! scaled cache so the whole figure regenerates in seconds (by default
//! `n = 96`, tile 16, a 1024-word cache); pass `--full` for larger instances
//! (`n = 256`, tile 32, 4096 words).

use iolb_bench::{evaluate_suite, MACHINE_BALANCE};
use iolb_core::tightness::achieved_oi;
use iolb_core::Regime;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (n, tile, cache_words) = if full {
        (256, 32, 4096)
    } else {
        (96, 16, 1024)
    };

    println!(
        "Figure 6 — achieved OI (LRU, {cache_words}-word cache, scaled instances) vs OI_up vs machine balance ({MACHINE_BALANCE} flops/word)"
    );
    println!(
        "{:<16} {:>12} {:>12} {:>16}",
        "kernel", "OI_tiled", "OI_up", "regime"
    );
    for row in evaluate_suite() {
        let achieved = iolb_polybench::trace(row.name, n, tile)
            .map(|t| achieved_oi(&t.trace, t.ops, cache_words));
        let kernel = iolb_polybench::kernel_by_name(row.name).expect("known kernel");
        let instance = kernel.large_instance();
        let pairs: Vec<(String, i128)> = instance.as_param_slice();
        let borrowed: Vec<(&str, i128)> = pairs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let regime = match (&row.report.oi, achieved) {
            (Some(oi), Some(a)) => Some(oi.classify(a, MACHINE_BALANCE, &borrowed)),
            _ => None,
        };
        println!(
            "{:<16} {:>12} {:>12} {:>16}",
            row.name,
            achieved
                .map(|a| format!("{a:.2}"))
                .unwrap_or_else(|| "-".into()),
            row.our_oi_up
                .map(|o| format!("{o:.2}"))
                .unwrap_or_else(|| "-".into()),
            regime.map(|r| r.to_string()).unwrap_or_else(|| "-".into())
        );
        let _ = Regime::Open;
    }
}
