//! The two batch workloads: `polybench-cold` (every built-in kernel through
//! `Analyzer::analyze`) and `iolb-locality` (every `.iolb` example through
//! `Analyzer::analyze_with_tightness`).

use crate::corpus::{self, Expected, Program, SIM_CACHE_WORDS};
use crate::reference;
use crate::report::{self, Run, Tally};
use crate::spans::{self, Recorder, Span};
use crate::stats::{geomean, median, Rng};
use iolb_core::preflight::preflight;
use iolb_core::tightness::{generate_trace, simulate_lru, simulate_optimal, DEFAULT_MAX_TRACE};
use iolb_core::{
    analyze_interruptible, AnalysisOutcome, Analyzer, Instance, PreparedWorkload, Report, Workload,
};
use iolb_frontend::IolbSource;
use iolb_poly::EngineCtx;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Fewest measured passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Fewest traced (and interleaved untraced) passes in a traced run.
const MIN_TRACED_PASSES: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    PolybenchCold,
    IolbLocality,
}

/// One prepared input: what `Analyzer` is handed.
enum Subject {
    Kernel(iolb_polybench::Kernel),
    Source(IolbSource),
}

struct Item {
    program: Program,
    subject: Subject,
}

impl Item {
    fn analyze(&self, analyzer: &Analyzer) -> Result<AnalysisOutcome, String> {
        let result = match &self.subject {
            Subject::Kernel(kernel) => analyzer.analyze(kernel),
            Subject::Source(source) => {
                analyzer.analyze_with_tightness(source, &corpus::tightness_options())
            }
        };
        result.map_err(|e| e.to_string())
    }
}

/// Loads the workload's inputs: builds each kernel (in a throwaway session)
/// or compiles each source once to validate it.
fn set_up(batch: Batch) -> Vec<Item> {
    let programs = match batch {
        Batch::PolybenchCold => corpus::kernels(),
        Batch::IolbLocality => corpus::iolb_programs(),
    };
    programs
        .into_iter()
        .map(|program| {
            let subject = EngineCtx::new().scope(|| match program {
                Program::Kernel(name) => Subject::Kernel(
                    iolb_polybench::kernel_by_name(name).expect("registered kernel name"),
                ),
                Program::Iolb(name, src) => {
                    iolb_frontend::compile(src)
                        .and_then(|p| p.to_dfg())
                        .unwrap_or_else(|e| panic!("example program {name} does not compile: {e}"));
                    Subject::Source(IolbSource::named(name, src))
                }
            });
            Item { program, subject }
        })
        .collect()
}

/// Checks one analysis against the expected outputs.
fn check(tally: &mut Tally, expected: &Expected, program: &Program, outcome: &AnalysisOutcome) {
    let key = program.key();
    let analysis = outcome.analysis();
    tally.check(analysis.degradation.is_none(), || {
        format!("{key}: degraded")
    });
    let q_low = analysis.q_low.to_string();
    tally.check(
        expected.q_low(program, None) == Some(q_low.as_str()),
        || format!("{key}: q_low {q_low} differs from expected.txt"),
    );
    if let Program::Iolb(..) = program {
        let points: Vec<SimPoint> = match &outcome.tightness {
            Some(report) => report
                .instances
                .iter()
                .filter(|i| i.skipped.is_none())
                .flat_map(|i| {
                    i.caches.iter().map(|c| SimPoint {
                        words: c.cache_words,
                        lru: c.lru.misses,
                        opt: c.opt.map(|o| o.misses),
                        q_low: c.q_low,
                    })
                })
                .collect(),
            None => Vec::new(),
        };
        check_sim(tally, expected, program, &points);
    }
}

struct SimPoint {
    words: usize,
    lru: u64,
    opt: Option<u64>,
    q_low: Option<f64>,
}

/// LRU/OPT misses must match the expected counts, and the bound must be
/// sound against both: `Q_low ≤ LRU` and `OPT ≤ LRU`.
fn check_sim(tally: &mut Tally, expected: &Expected, program: &Program, points: &[SimPoint]) {
    let key = program.key();
    let words: Vec<usize> = points.iter().map(|p| p.words).collect();
    tally.check(words == SIM_CACHE_WORDS, || {
        format!("{key}: simulated cache sizes {words:?}")
    });
    for p in points {
        let want = expected.sim(program, p.words);
        tally.check(p.opt.map(|opt| (p.lru, opt)) == want, || {
            format!(
                "{key}@{}: LRU/OPT {}/{:?}, expected {want:?}",
                p.words, p.lru, p.opt
            )
        });
        tally.check(p.opt.is_some_and(|opt| opt <= p.lru), || {
            format!("{key}@{}: OPT {:?} above LRU {}", p.words, p.opt, p.lru)
        });
        tally.check(p.q_low.is_some_and(|q| q <= p.lru as f64 + 1e-6), || {
            format!("{key}@{}: Q_low {:?} above LRU {}", p.words, p.q_low, p.lru)
        });
    }
}

/// One untraced pass: every program once, in the pass's seeded order.
/// Returns the pass wall time and each program's time in ms (indexed like
/// `items`).
fn untraced_pass(
    items: &[Item],
    order: &[usize],
    expected: &Expected,
    tally: &mut Tally,
    reports: &mut BTreeMap<usize, String>,
) -> (f64, Vec<f64>) {
    let pass = Instant::now();
    let mut times_ms = vec![0.0; items.len()];
    for &i in order {
        let item = &items[i];
        let start = Instant::now();
        let result = item.analyze(&Analyzer::new());
        times_ms[i] = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(outcome) => {
                check(tally, expected, &item.program, &outcome);
                reports.entry(i).or_insert_with(|| outcome.report.to_json());
            }
            Err(e) => tally.fail(format!("{}: {e}", item.program.key())),
        }
    }
    (pass.elapsed().as_secs_f64(), times_ms)
}

fn pass_order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::stream(seed, pass as u64).shuffle(&mut order);
    order
}

fn set_up_timed(batch: Batch) -> (Vec<Item>, f64) {
    let mut setups = Vec::new();
    let mut items = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        items = set_up(batch);
        setups.push(start.elapsed().as_secs_f64());
    }
    (items, median(&setups).expect("set-up ran"))
}

/// The untraced run: end-to-end metrics only. Every pass is bracketed by
/// timings of the reference computation; the gated figures divide each
/// pass (and each program in it) by the mean of its two brackets.
pub fn run(batch: Batch, seed: u64, seconds: f64) -> Run {
    let expected = Expected::load();
    let (items, setup_s) = set_up_timed(batch);
    let mut tally = Tally::default();
    let mut times_ms: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    let mut rel: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    let mut reports = BTreeMap::new();
    let mut passes = Vec::new();
    let mut pass_rel = Vec::new();
    let mut before_s = reference::time_s();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let order = pass_order(seed, passes.len(), items.len());
        let (pass_s, pass_ms) = untraced_pass(&items, &order, &expected, &mut tally, &mut reports);
        let after_s = reference::time_s();
        let ref_s = (before_s + after_s) / 2.0;
        before_s = after_s;
        passes.push(pass_s);
        pass_rel.push(pass_s / ref_s);
        for (i, ms) in pass_ms.into_iter().enumerate() {
            times_ms[i].push(ms);
            rel[i].push(ms / 1e3 / ref_s);
        }
    }

    println!(
        "passes: {} in {:.3} s; pass_s min {:.4} median {:.4} max {:.4}",
        passes.len(),
        start.elapsed().as_secs_f64(),
        passes.iter().copied().fold(f64::INFINITY, f64::min),
        median(&passes).expect("passes ran"),
        passes.iter().copied().fold(0.0, f64::max)
    );
    let medians: Vec<f64> = times_ms.iter().map(|t| median(t).expect("timed")).collect();
    for (item, ms) in items.iter().zip(&medians) {
        println!("program {:<22} median_ms {ms:.3}", item.program.key());
    }
    let rel_medians: Vec<f64> = rel.iter().map(|t| median(t).expect("timed")).collect();
    report::print_raw(
        median(&passes).expect("passes ran"),
        geomean(&medians).expect("positive times"),
    );
    tally.print_failed_ratio();
    for absent in [
        "hot_p50_ms",
        "hot_p99_ms",
        "miss_p50_ms",
        "miss_p90_ms",
        "on_time_ratio",
    ] {
        println!("{absent:<20} n/a (no daemon on this workload)");
    }
    tally.into_run(report::end_to_end(
        setup_s,
        median(&pass_rel).expect("passes ran"),
        geomean(&rel_medians).expect("positive times"),
        report::peak_rss_mb(),
    ))
}

/// Per-pass layer facts a traced pass counts besides its spans.
#[derive(Default)]
struct PassCounts {
    edge_pieces: u64,
    report_bytes: u64,
    accesses: u64,
}

/// Runs one program through the analysis pipeline layer by layer, with a
/// span around each layer's public function. Mirrors what
/// `Analyzer::analyze_with_tightness` does for a fresh session with default
/// knobs, so its outputs must match the untraced path byte for byte.
fn traced_program(
    item: &Item,
    rec: &mut Recorder,
    request: u64,
    counts: &mut PassCounts,
) -> Result<(String, Vec<SimPoint>, String), String> {
    EngineCtx::new().scope(|| {
        let prepared = match &item.subject {
            Subject::Kernel(kernel) => rec
                .span("polybench.prepare", request, || kernel.prepare())
                .map_err(|e| e.to_string())?,
            Subject::Source(source) => {
                let ast = rec
                    .span("frontend.parse", request, || {
                        iolb_frontend::parse(&source.src)
                    })
                    .map_err(|e| e.to_string())?;
                let lowered = rec
                    .span("frontend.lower", request, || iolb_frontend::lower(&ast))
                    .map_err(|e| e.to_string())?;
                let dfg = rec
                    .span("ir.dataflow", request, || lowered.to_dfg())
                    .map_err(|e| e.to_string())?;
                counts.edge_pieces += dfg.edges().len() as u64;
                PreparedWorkload {
                    name: source.name.clone(),
                    params: lowered.params().to_vec(),
                    dfg,
                    options: None,
                    ops: None,
                    source: Some(lowered.source_info().clone()),
                }
            }
        };
        let options = prepared
            .options
            .clone()
            .unwrap_or_else(|| Analyzer::default_options_for(&prepared.params));
        rec.span("preflight", request, || {
            preflight(
                &prepared.name,
                &prepared.dfg,
                &prepared.params,
                &options.ctx,
                options.max_parametrization_depth,
                prepared.source.as_ref(),
            )
        });
        let analysis = rec
            .span("core.driver", request, || {
                analyze_interruptible(&prepared.dfg, &options)
            })
            .map_err(|e| format!("interrupted: {}", e.code()))?;
        let mut points = Vec::new();
        if let Subject::Source(_) = item.subject {
            let mut instance = Instance::new();
            for p in &prepared.params {
                instance = instance.set(p, iolb_core::tightness::DEFAULT_SIMULATION_PARAM);
            }
            let trace = rec
                .span("core.tightness", request, || {
                    generate_trace(&prepared.dfg, &instance, DEFAULT_MAX_TRACE)
                })
                .map_err(|e| e.message)?;
            counts.accesses += trace.trace.len() as u64;
            for words in SIM_CACHE_WORDS {
                let lru = rec.span("cachesim.lru", request, || {
                    simulate_lru(&trace.trace, words)
                });
                let opt = rec.span("cachesim.opt", request, || {
                    simulate_optimal(&trace.trace, words)
                });
                let at = instance.clone().set(&analysis.cache_param, words as i128);
                points.push(SimPoint {
                    words,
                    lru: lru.misses,
                    opt: Some(opt.misses),
                    q_low: analysis.q_at(&at),
                });
            }
        }
        let q_low = analysis.q_low.to_string();
        let json = rec.span("core.report", request, || {
            Report::new(&prepared.name, analysis, prepared.ops.clone()).to_json()
        });
        counts.report_bytes += json.len() as u64;
        Ok((q_low, points, json))
    })
}

/// Engine counters summed over one serial pass, plus resident cache entries.
fn serial_counter_pass(
    items: &[Item],
    order: &[usize],
) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
    for &i in order {
        let outcome = items[i].analyze(&Analyzer::new().parallel(false))?;
        for (name, value) in outcome.stats.as_pairs() {
            *sums.entry(name).or_insert(0) += value;
        }
        *sums.entry("CACHE_ENTRIES").or_insert(0) += outcome.cache_entries as u64;
    }
    Ok(sums)
}

/// Each layer's span name and the per-layer metric of its self time.
const LAYER_MS: [(&str, &str); 10] = [
    ("frontend.parse", "frontend.parse_ms"),
    ("frontend.lower", "frontend.lower_ms"),
    ("ir.dataflow", "ir.dataflow.ms"),
    ("polybench.prepare", "polybench.prepare_ms"),
    ("preflight", "preflight.ms"),
    ("core.driver", "core.driver.ms"),
    ("core.report", "core.report.ms"),
    ("core.tightness", "core.tightness.trace_ms"),
    ("cachesim.lru", "cachesim.lru_ms"),
    ("cachesim.opt", "cachesim.opt_ms"),
];

/// The traced run: per-layer metrics from spans around each layer call,
/// exact engine counters from two serial passes, and the tracing overhead
/// against interleaved untraced passes.
pub fn run_traced(batch: Batch, seed: u64, seconds: f64, spans_out: &std::path::Path) -> Run {
    let expected = Expected::load();
    let items = set_up(batch);
    let mut tally = Tally::default();

    // Exact counters: two serial passes must agree to the last count.
    let order = pass_order(seed, 0, items.len());
    let first = serial_counter_pass(&items, &order);
    let second = serial_counter_pass(&items, &order);
    let (counters, exact) = match (first, second) {
        (Ok(a), Ok(b)) => {
            let exact = a == b;
            (a, exact)
        }
        (Err(e), _) | (_, Err(e)) => {
            tally.fail(format!("serial pass: {e}"));
            (BTreeMap::new(), false)
        }
    };

    // Interleave untraced and traced passes until the time is up.
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let mut reports = BTreeMap::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut counts = Vec::new();
    let mut request = 0u64;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while traced.len() < MIN_TRACED_PASSES || start.elapsed() < budget {
        let pass = traced.len();
        let order = pass_order(seed, pass + 1, items.len());
        untraced.push(untraced_pass(&items, &order, &expected, &mut tally, &mut reports).0);

        let mut pass_counts = PassCounts::default();
        let pass_span = rec.open("pass", pass as u64);
        for &i in &order {
            request += 1;
            let item = &items[i];
            rec.open("program", request);
            let result = traced_program(item, &mut rec, request, &mut pass_counts);
            rec.close();
            match result {
                Ok((q_low, points, json)) => {
                    let key = item.program.key();
                    tally.check(
                        expected.q_low(&item.program, None) == Some(q_low.as_str()),
                        || format!("{key}: traced q_low {q_low} differs from expected.txt"),
                    );
                    tally.check(reports.get(&i) == Some(&json), || {
                        format!("{key}: traced report bytes differ from Analyzer's")
                    });
                    if let Program::Iolb(..) = item.program {
                        check_sim(&mut tally, &expected, &item.program, &points);
                    }
                }
                Err(e) => tally.fail(format!("{}: traced: {e}", item.program.key())),
            }
        }
        rec.close();
        let spans = rec.spans();
        traced.push(spans[pass_span].duration_ns() as f64 / 1e9);
        counts.push(pass_counts);
    }

    let spans = rec.spans();
    write_spans(spans_out, spans);
    let own = spans::self_times(spans);
    let pass_ids: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "pass")
        .collect();
    // Per pass: each layer's self time, and the part no layer span covers
    // (self time of the pass and program spans).
    let mut layer_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut uncovered_ms = Vec::new();
    for (n, &p) in pass_ids.iter().enumerate() {
        let end = pass_ids.get(n + 1).copied().unwrap_or(spans.len());
        let by_name = spans::self_ms_by_name(spans, &own, p..end);
        for (span_name, _) in LAYER_MS {
            layer_ms
                .entry(span_name)
                .or_default()
                .push(by_name.get(span_name).copied().unwrap_or(0.0));
        }
        let uncovered: u64 = (p..end)
            .filter(|&i| matches!(spans[i].name, "pass" | "program"))
            .map(|i| own[i])
            .sum();
        uncovered_ms.push(uncovered as f64 / 1e6);
    }

    let untraced_s = median(&untraced).expect("passes ran");
    let traced_s = median(&traced).expect("passes ran");
    println!(
        "passes: {} untraced (median {untraced_s:.4} s), {} traced (median {traced_s:.4} s)",
        untraced.len(),
        traced.len()
    );
    println!(
        "tracing overhead: {:.3} ms per pass (traced minus untraced pass_s)",
        (traced_s - untraced_s) * 1e3
    );
    for (n, ms) in uncovered_ms.iter().enumerate() {
        println!("traced pass {n}: {ms:.3} ms covered by no layer span");
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (span_name, metric) in LAYER_MS {
        if spans.iter().any(|s| s.name == span_name) {
            values.insert(metric, median(&layer_ms[span_name]).unwrap_or(0.0));
        }
    }
    let pass_median = |f: fn(&PassCounts) -> u64| {
        median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    if values.contains_key("ir.dataflow.ms") {
        values.insert("ir.dataflow.edge_pieces", pass_median(|c| c.edge_pieces));
    }
    if let Some(&trace_ms) = values.get("core.tightness.trace_ms") {
        let accesses = pass_median(|c| c.accesses);
        values.insert("core.tightness.accesses", accesses);
        values.insert(
            "core.tightness.ns_per_access",
            trace_ms * 1e6 / accesses.max(1.0),
        );
    }
    values.insert("core.report.bytes", pass_median(|c| c.report_bytes));

    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let ratio = |hits: u64, total: u64| hits as f64 / total.max(1) as f64;
    let exactness = if exact {
        "exact"
    } else {
        "INEXACT (differs between serial passes; not comparable)"
    };
    println!("poly counters from serial passes: {exactness}");
    for (metric, counter) in [
        ("poly.feasibility_checks", "FEASIBILITY_CHECKS"),
        ("poly.fm_eliminations", "FM_ELIMINATIONS"),
        ("poly.entailment_checks", "ENTAILMENT_CHECKS"),
        ("poly.count_calls", "COUNT_CALLS"),
        ("poly.lp_calls", "LP_CALLS"),
        ("poly.cache_entries", "CACHE_ENTRIES"),
    ] {
        values.insert(metric, count(counter) as f64);
    }
    let feasibility = (count("FEASIBILITY_CACHE_HITS"), count("FEASIBILITY_CHECKS"));
    let projection = (
        count("PROJECTION_CACHE_HITS"),
        count("PROJECTION_CACHE_HITS") + count("FM_ELIMINATIONS"),
    );
    println!(
        "poly.feasibility_hit_rate = {} hits / {} checks; poly.projection_hit_rate = {} hits / {} projections",
        feasibility.0, feasibility.1, projection.0, projection.1
    );
    values.insert(
        "poly.feasibility_hit_rate",
        ratio(feasibility.0, feasibility.1),
    );
    values.insert(
        "poly.projection_hit_rate",
        ratio(projection.0, projection.1),
    );
    values.insert("trace.overhead_ms", (traced_s - untraced_s) * 1e3);
    values.insert("trace.uncovered_ms", median(&uncovered_ms).unwrap_or(0.0));
    tally.into_run(report::per_layer(
        &values,
        "the layer does not run on this workload",
    ))
}

pub fn write_spans(path: &std::path::Path, spans: &[Span]) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, spans::to_json(spans)) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
    }
}
