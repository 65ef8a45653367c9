//! The IOLB benchmark: end-to-end metrics of three workloads, and a traced
//! run that breaks them down by layer. See `LAYERS.md`.
//!
//! ```text
//! perfbench --workload <polybench-cold|iolb-locality|serve-mixed>
//!           [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! perfbench --print-expected    # recompute expected.txt on stdout
//! ```

mod batch;
mod corpus;
mod reference;
mod report;
mod serve;
mod spans;
mod stats;

use batch::Batch;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20200615;
const DEFAULT_SECONDS: f64 = 25.0;
const WORKLOADS: [&str; 3] = ["polybench-cold", "iolb-locality", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
    };
    while let Some(flag) = args.next() {
        if flag == "--print-expected" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--spans" => parsed.spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            parsed.workload
        ));
    }
    Ok(Some(parsed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", print_expected());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let spans = args.spans.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            ".bench_out/spans-{}-{}.json",
            args.workload, args.seed
        ))
    });
    let run = match (args.workload.as_str(), args.trace) {
        ("polybench-cold", false) => batch::run(Batch::PolybenchCold, args.seed, args.seconds),
        ("polybench-cold", true) => {
            batch::run_traced(Batch::PolybenchCold, args.seed, args.seconds, &spans)
        }
        ("iolb-locality", false) => batch::run(Batch::IolbLocality, args.seed, args.seconds),
        ("iolb-locality", true) => {
            batch::run_traced(Batch::IolbLocality, args.seed, args.seconds, &spans)
        }
        ("serve-mixed", false) => serve::run(args.seed, args.seconds),
        (_, _) => serve::run_traced(args.seed, args.seconds, &spans),
    };
    run.print();
    ExitCode::SUCCESS
}

/// Recomputes every expected output with the serial driver in fresh
/// sessions: the plain analyses of all programs, the serve miss variants,
/// and the `.iolb` programs' LRU/OPT misses.
fn print_expected() -> String {
    use iolb_core::{AnalysisOutcome, Analyzer};
    use iolb_frontend::IolbSource;
    let analyze = |program: &corpus::Program, size: Option<i128>| -> AnalysisOutcome {
        let mut analyzer = Analyzer::new().parallel(false);
        if let Some(s) = size {
            analyzer = analyzer.cache_size(s);
        }
        let outcome = match program {
            corpus::Program::Kernel(name) => {
                analyzer.analyze(&iolb_polybench::kernel_by_name(name).expect("kernel"))
            }
            corpus::Program::Iolb(name, src) => analyzer.analyze_with_tightness(
                &IolbSource::named(*name, *src),
                &corpus::tightness_options(),
            ),
        };
        outcome.unwrap_or_else(|e| panic!("{}: {e}", program.key()))
    };
    let mut q_lows = Vec::new();
    let mut sims = Vec::new();
    for program in serve::base_programs() {
        let outcome = analyze(&program, None);
        q_lows.push((program.key(), None, outcome.analysis().q_low.to_string()));
        for instance in outcome.tightness.iter().flat_map(|t| &t.instances) {
            for c in &instance.caches {
                let opt = c.opt.expect("OPT simulated").misses;
                sims.push((program.key(), c.cache_words, c.lru.misses, opt));
            }
        }
    }
    for (program, size) in serve::miss_variants() {
        let outcome = analyze(&program, Some(size));
        q_lows.push((
            program.key(),
            Some(size),
            outcome.analysis().q_low.to_string(),
        ));
    }
    corpus::render_expected(&q_lows, &sims)
}
