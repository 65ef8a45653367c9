//! `docs/SERVING.md` documents the report's `engine_stats` object field by
//! field. Its table must list exactly the keys a real outcome emits.

use iolb::core::json::{self, Json};
use iolb::prelude::*;

const SERVING: &str = include_str!("../docs/SERVING.md");

/// The backticked first cells of the first table after the line that starts
/// with `intro`.
fn table_keys(doc: &str, intro: &str) -> Vec<String> {
    doc.lines()
        .skip_while(|line| !line.starts_with(intro))
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        // The header row and the `|---|` separator.
        .skip(2)
        .map(|row| {
            let cell = row.split('|').nth(1).expect("a table row has cells").trim();
            cell.trim_matches('`').to_string()
        })
        .collect()
}

#[test]
fn engine_stats_table_lists_exactly_the_emitted_fields() {
    let kernel = iolb::polybench::kernel_by_name("gemm").unwrap();
    let outcome = Analyzer::new().parallel(false).analyze(&kernel).unwrap();
    let doc = json::parse(&outcome.to_json()).unwrap();
    let mut emitted: Vec<String> = doc
        .get("engine_stats")
        .and_then(Json::as_obj)
        .expect("the outcome carries an engine_stats object")
        .iter()
        .map(|(key, _)| key.clone())
        .collect();
    let mut documented = table_keys(SERVING, "`engine_stats` (a per-request delta");
    assert!(
        !documented.is_empty(),
        "the engine_stats table was not found"
    );
    emitted.sort();
    documented.sort();
    assert_eq!(
        documented, emitted,
        "docs/SERVING.md's engine_stats table and the emitted keys differ"
    );
}
