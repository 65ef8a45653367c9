//! # iolb-cli
//!
//! The `iolb` command-line tool — the user-facing entry point of the
//! reproduction. Its subcommands:
//!
//! * `iolb analyze <file.iolb>` — parse an affine-C program (see the
//!   `iolb-frontend` grammar), run the Algorithm-6 driver, and print the
//!   parametric lower bound report as text or JSON (`--json`);
//!   `--kernel <name>` analyses a built-in PolyBench kernel instead.
//! * `iolb check <file.iolb>` — run the *preflight* static analyzer
//!   only (no bound computation): structural profile, affine
//!   diagnostics with source positions, and the predicted cost class
//!   (see `iolb-preflight`). Exits non-zero on error-severity
//!   diagnostics.
//! * `iolb simulate <file.iolb>` — the analysis plus the two-sided
//!   tightness pass: measured LRU (and optionally OPT) misses of the
//!   program's trace at a concrete instance, next to `Q_low`.
//! * `iolb kernels` — list the built-in PolyBench kernels.
//! * `iolb serve` — run the long-lived analysis daemon (line-delimited
//!   JSON over TCP or stdio; protocol reference in `docs/SERVING.md`).
//!
//! `analyze`, `check` and `simulate` share one flag parser, and each lists
//! the flags it accepts. The parsed request has the daemon's own shape
//! ([`iolb_server::protocol::SimulateRequest`]), so the CLI and the daemon
//! turn a request into an [`Analyzer`] with the same function.
//!
//! The command implementations live here (returning their output as
//! strings) so they are unit-testable; `src/main.rs` only dispatches.

#![warn(missing_docs)]

use iolb_core::json::Json;
use iolb_core::report::preflight_json;
use iolb_core::{Analyzer, Workload};
use iolb_poly::Budget;
use iolb_server::protocol::{AnalyzeRequest, BudgetSpec, SimulateRequest, WorkloadSpec};

/// A CLI failure: a message for stderr (the process exits non-zero).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The usage text printed by `iolb help` (and on argument errors).
pub const USAGE: &str = "\
iolb — parametric data-movement lower bounds for affine programs

USAGE:
    iolb analyze <file.iolb> [OPTIONS]   analyze an affine-C program
    iolb analyze --kernel <name> [OPTIONS]
                                         analyze a built-in PolyBench kernel
    iolb check <file.iolb> [OPTIONS]     static preflight only: profile,
                                         diagnostics, predicted cost class
    iolb check --kernel <name> [OPTIONS]
    iolb simulate <file.iolb> [OPTIONS]  two-sided locality report: generate
                                         an address trace at a concrete
                                         instance, simulate it, and compare
                                         measured misses against Q_low
    iolb simulate --kernel <name> [OPTIONS]
    iolb kernels [--json]                list the built-in kernels
    iolb serve [OPTIONS]                 run the analysis daemon (docs/SERVING.md)
    iolb help                            show this text

ANALYZE OPTIONS:
    --json               emit the report (plus per-session engine stats) as
                         JSON instead of text
    --param NAME=VALUE   parameter value for the combination heuristics
                         (default: 2000 for every program parameter; bounds
                         that evaluate trivially at this instance are dropped,
                         so pick values of the intended order of magnitude)
    --cache-size WORDS   fast-memory capacity S in words (default: 32768,
                         i.e. 256 kB of doubles)
    --cache-cap ENTRIES  total capacity of the session's memoization cache
                         (default: 3145728 entries; 0 disables storage)
    --depth D            maximum loop-parametrization depth (default: 0;
                         built-in kernels use their tuned depth)
    --serial             disable the parallel driver
    --deadline-ms MS     wall-clock budget; past it the run keeps the best
                         already-proven bound (reported as degraded) or
                         errors when no valid bound exists yet
    --max-fm-steps N     cap on Fourier-Motzkin variable eliminations
                         (same degradation semantics as --deadline-ms)

SIMULATE OPTIONS:
    --json               emit the full analysis report with the
                         \"tightness\" block as JSON
    --param NAME=VALUE   concrete parameter value for trace generation
                         (default: 16 for every program parameter; repeat
                         for each parameter)
    --cache LIST         comma-separated fast-memory sizes in words to
                         simulate (default: 1024)
    --opt                also simulate Belady/optimal replacement
    --max-trace N        trace-length budget; larger instances degrade to
                         a skipped entry instead of hanging (default:
                         4000000)
    --serial             disable the parallel driver
    --deadline-ms MS     wall-clock budget for the whole run

CHECK OPTIONS:
    --json               emit the preflight report as one JSON line
    --assume NAME>=V     add a context assumption for the feasibility
    --assume NAME<=V     diagnostics (contradictory bounds are reported
                         as a contradictory-assumptions error)
    --depth D            maximum loop-parametrization depth checked
                         against each statement's loop depth (default: 0;
                         built-in kernels use their tuned depth)

SERVE OPTIONS:
    --addr HOST:PORT     listen for line-delimited JSON over TCP (port 0
                         picks a free port; the bound address is printed
                         as `listening on HOST:PORT`)
    --stdio              serve stdin/stdout instead of a socket (exits on
                         EOF or a shutdown request)
    --workers N          analysis worker threads (default: all cores)
    --queue N            queued-request bound before `overloaded` replies
                         (default: 64)
    --pool N             warm engine sessions kept between requests
                         (default: 8; 0 serves every request cold)
    --timeout-ms MS      default per-request timeout (default: 120000;
                         requests may override with \"timeout_ms\")
    --cache-dir DIR      persist finished reports in DIR so repeated
                         requests — even across daemon restarts — replay
                         byte-identically without reanalysis
    --cache-bytes N      on-disk result-cache bound in bytes
                         (default: 268435456, i.e. 256 MiB)

Every `analyze` run executes in its own engine session: caches and
statistics are isolated from concurrent runs and freed on exit. The
daemon draws sessions from a bounded warm pool instead; results are
byte-identical either way. Wire protocol: docs/SERVING.md.
";

/// Runs the CLI with the given arguments (excluding the program name).
/// Returns the stdout payload.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown subcommands, malformed options,
/// unreadable files, front-end errors, and unknown kernel names.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("kernels") => cmd_kernels(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => Ok(USAGE.to_string()),
        Some(other) => Err(err(format!("unknown subcommand `{other}`\n\n{USAGE}"))),
    }
}

/// A subcommand that analyses one workload.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Command {
    Analyze,
    Check,
    Simulate,
}

impl Command {
    fn name(self) -> &'static str {
        match self {
            Command::Analyze => "analyze",
            Command::Check => "check",
            Command::Simulate => "simulate",
        }
    }

    /// The flags this subcommand accepts; every other `-…` argument is an
    /// unknown option.
    fn flags(self) -> &'static [&'static str] {
        match self {
            Command::Analyze => &[
                "--json",
                "--kernel",
                "--param",
                "--cache-size",
                "--cache-cap",
                "--depth",
                "--serial",
                "--deadline-ms",
                "--max-fm-steps",
            ],
            Command::Check => &["--json", "--kernel", "--depth", "--assume"],
            Command::Simulate => &[
                "--json",
                "--kernel",
                "--param",
                "--cache",
                "--opt",
                "--max-trace",
                "--serial",
                "--deadline-ms",
            ],
        }
    }

    fn unknown_option(self, flag: &str) -> CliError {
        let kind = match self {
            Command::Analyze => "option",
            Command::Check => "check option",
            Command::Simulate => "simulate option",
        };
        err(format!("unknown {kind} `{flag}`\n\n{USAGE}"))
    }
}

/// The parsed options of `analyze`, `check` or `simulate`. The request half
/// has the daemon's own shape, so both ways in build their [`Analyzer`]
/// with [`AnalyzeRequest::analyzer`].
struct Args {
    json: bool,
    /// `analyze` and `check` read only the analysis half. `simulate`'s
    /// `--param` values are its trace instance, not analysis parameters.
    request: SimulateRequest,
    /// Wall-clock budget for the run (`--deadline-ms`).
    deadline_ms: Option<u64>,
    /// `(name, value, is_upper_bound)` context assumptions from `--assume`.
    assumptions: Vec<(String, i128, bool)>,
}

impl Args {
    fn analyzer(&self) -> Analyzer {
        let mut analyzer = self.request.analyze.analyzer(Budget::none());
        if let Some(ms) = self.deadline_ms {
            analyzer = analyzer.deadline(std::time::Duration::from_millis(ms));
        }
        for (name, value, upper) in &self.assumptions {
            analyzer = if *upper {
                analyzer.assume_le(name.clone(), *value)
            } else {
                analyzer.assume_ge(name.clone(), *value)
            };
        }
        analyzer
    }

    fn workload(&self) -> Result<Box<dyn Workload>, CliError> {
        self.request.analyze.workload.resolve().map_err(|name| {
            err(format!(
                "unknown kernel `{name}` (see `iolb kernels` for the list)"
            ))
        })
    }
}

type ArgIter<'a> = std::slice::Iter<'a, String>;

/// The argument after `flag`.
fn value<'a>(it: &mut ArgIter<'a>, flag: &str, what: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| err(format!("{flag} requires {what}")))
}

/// The number after `flag`.
fn number<T: std::str::FromStr>(
    it: &mut ArgIter<'_>,
    flag: &str,
    what: &str,
) -> Result<T, CliError> {
    let v = value(it, flag, what)?;
    v.parse()
        .map_err(|_| err(format!("malformed {flag} `{v}`")))
}

/// The positive count after `flag`.
fn positive(it: &mut ArgIter<'_>, flag: &str, what: &str) -> Result<u64, CliError> {
    match number(it, flag, what)? {
        0 => Err(err(format!("{flag} must be positive"))),
        n => Ok(n),
    }
}

/// The one flag parser of `analyze`, `check` and `simulate`.
fn parse_args(cmd: Command, args: &[String]) -> Result<Args, CliError> {
    let mut workload = None;
    let mut json = false;
    let mut parallel = true;
    let mut opt = false;
    let mut params = Vec::new();
    let mut instance = Vec::new();
    let mut cache_sizes = Vec::new();
    let mut assumptions = Vec::new();
    let (mut cache_size, mut cache_cap, mut depth) = (None, None, None);
    let (mut deadline_ms, mut fm_steps, mut max_trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_str();
        if arg.starts_with('-') && !cmd.flags().contains(&arg) {
            return Err(cmd.unknown_option(arg));
        }
        match arg {
            "--json" => json = true,
            "--serial" => parallel = false,
            "--opt" => opt = true,
            "--kernel" => {
                let name = value(&mut it, arg, "a kernel name")?;
                if workload.is_some() {
                    return Err(err(format!(
                        "--kernel {name} conflicts with an input file; pass one or the other"
                    )));
                }
                workload = Some(WorkloadSpec::Kernel(name.to_string()));
            }
            "--param" => {
                let kv = value(&mut it, arg, "NAME=VALUE")?;
                let (name, value) = kv
                    .split_once('=')
                    .ok_or_else(|| err(format!("malformed --param `{kv}` (want NAME=VALUE)")))?;
                let value: i128 = value
                    .parse()
                    .map_err(|_| err(format!("malformed --param value in `{kv}`")))?;
                if cmd != Command::Simulate {
                    params.push((name.to_string(), value));
                } else if value > 0 {
                    instance.push((name.to_string(), value));
                } else {
                    return Err(err(format!(
                        "--param {name}={value}: simulated instances must be positive"
                    )));
                }
            }
            "--cache-size" => cache_size = Some(number(&mut it, arg, "a word count")?),
            "--cache-cap" => cache_cap = Some(number(&mut it, arg, "an entry count")?),
            "--depth" => depth = Some(number(&mut it, arg, "a number")?),
            "--deadline-ms" => deadline_ms = Some(positive(&mut it, arg, "a millisecond count")?),
            "--max-fm-steps" => fm_steps = Some(positive(&mut it, arg, "a step count")?),
            "--max-trace" => max_trace = Some(positive(&mut it, arg, "an access count")?),
            "--cache" => {
                let list = value(&mut it, arg, "a comma-separated word-count list")?;
                for piece in list.split(',') {
                    let words: usize = piece
                        .trim()
                        .parse()
                        .map_err(|_| err(format!("malformed --cache entry `{piece}`")))?;
                    if words == 0 {
                        return Err(err("--cache sizes must be positive"));
                    }
                    cache_sizes.push(words);
                }
            }
            "--assume" => {
                let spec = value(&mut it, arg, "NAME>=VALUE or NAME<=VALUE")?;
                let (name, value, upper) = if let Some((n, v)) = spec.split_once(">=") {
                    (n, v, false)
                } else if let Some((n, v)) = spec.split_once("<=") {
                    (n, v, true)
                } else {
                    return Err(err(format!(
                        "malformed --assume `{spec}` (want NAME>=VALUE or NAME<=VALUE)"
                    )));
                };
                let value: i128 = value
                    .parse()
                    .map_err(|_| err(format!("malformed --assume value in `{spec}`")))?;
                assumptions.push((name.to_string(), value, upper));
            }
            file => {
                if workload.is_some() {
                    return Err(err(format!("unexpected argument `{file}`")));
                }
                workload = Some(WorkloadSpec::Path(file.to_string()));
            }
        }
    }
    let workload =
        workload.ok_or_else(|| err(format!("{}: missing input\n\n{USAGE}", cmd.name())))?;
    let analyze = AnalyzeRequest {
        id: Json::Null,
        workload,
        params,
        cache_param: None,
        cache_size,
        cache_cap,
        depth,
        parallel,
        timeout_ms: None,
        budget: fm_steps.map(|n| BudgetSpec {
            fm_steps: Some(n),
            ..BudgetSpec::default()
        }),
    };
    Ok(Args {
        json,
        request: SimulateRequest {
            analyze,
            instance,
            cache_sizes,
            opt,
            max_trace,
        },
        deadline_ms,
        assumptions,
    })
}

fn cmd_analyze(args: &[String]) -> Result<String, CliError> {
    let args = parse_args(Command::Analyze, args)?;
    let outcome = args
        .analyzer()
        .analyze(args.workload()?.as_ref())
        .map_err(|e| err(e.to_string()))?;
    if args.json {
        return Ok(outcome.to_json());
    }
    let mut text = outcome.report.to_string();
    if let Some(d) = &outcome.report.analysis.degradation {
        text.push_str(&format!(
            "\nNOTE: degraded result — the \"{}\" budget tripped after {}/{} candidate \
             jobs. The bound above is valid but may be weaker than the full analysis; \
             raise the budget to tighten it.\n",
            d.interrupt.code(),
            d.sweep_completed,
            d.sweep_total,
        ));
    }
    Ok(text)
}

/// Renders a preflight report as human-readable text (the non-`--json`
/// output of `iolb check`).
fn render_check_text(report: &iolb_core::preflight::PreflightReport) -> String {
    let p = &report.profile;
    let mut out = String::new();
    out.push_str(&format!("workload: {}\n", p.name));
    out.push_str(&format!(
        "cost class: {} (blowup score {}, threshold {})\n",
        p.cost_class.as_str(),
        p.blowup_score,
        iolb_core::preflight::LARGE_SCORE_THRESHOLD,
    ));
    out.push_str(&format!(
        "statements: {}, inputs: {}, params: {} ({}), assumptions: {}\n",
        p.statements.len(),
        p.inputs,
        p.params.len(),
        if p.params.is_empty() {
            "-".to_string()
        } else {
            p.params.join(", ")
        },
        p.assumptions,
    ));
    out.push_str(&format!(
        "max loop depth: {}, parametrization depth: {}\n",
        p.max_depth, p.parametrization_depth,
    ));
    for s in &p.statements {
        out.push_str(&format!(
            "  {}: dim {}, fan-in {}, fan-out {}, uniform deps {}, pattern {}, score {}\n",
            s.name, s.dim, s.fan_in, s.fan_out, s.uniform_in, s.pattern, s.blowup_score,
        ));
    }
    if report.diagnostics.is_empty() {
        out.push_str("no diagnostics\n");
    } else {
        out.push_str(&format!("diagnostics: {}\n", report.diagnostics.len()));
        for d in &report.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
    }
    out
}

fn cmd_check(args: &[String]) -> Result<String, CliError> {
    let args = parse_args(Command::Check, args)?;
    let report = args
        .analyzer()
        .preflight(args.workload()?.as_ref())
        .map_err(|e| err(e.to_string()))?;
    let text = if args.json {
        format!("{}\n", preflight_json(&report).render())
    } else {
        render_check_text(&report)
    };
    // Error-severity diagnostics make the exit code non-zero (the CI gate
    // over examples/); the rendered report still carries every diagnostic.
    if report.has_errors() {
        Err(CliError(format!(
            "preflight found error-severity diagnostics\n{text}"
        )))
    } else {
        Ok(text)
    }
}

/// Renders the tightness report as human-readable text (the non-`--json`
/// tail of `iolb simulate`).
fn render_tightness_text(report: &iolb_core::TightnessReport) -> String {
    let mut out = String::from("\nmeasured locality (LRU simulation of the generated trace):\n");
    for inst in &report.instances {
        if let Some(reason) = &inst.skipped {
            out.push_str(&format!("  {} — skipped: {reason}\n", inst.instance));
            continue;
        }
        out.push_str(&format!(
            "  {} — {} accesses, {} distinct addresses, {} ops\n",
            inst.instance, inst.trace_len, inst.distinct_addresses, inst.ops
        ));
        for cp in &inst.caches {
            let q_low = cp
                .q_low
                .map(|q| format!("{q:.1}"))
                .unwrap_or_else(|| "-".into());
            let ratio = cp
                .tightness_lru()
                .map(|t| format!("{t:.4}"))
                .unwrap_or_else(|| "-".into());
            let opt = cp
                .opt
                .as_ref()
                .map(|o| format!(", OPT misses {}", o.misses))
                .unwrap_or_default();
            out.push_str(&format!(
                "    S={:>8}: LRU misses {:>12}{opt}, Q_low {q_low}, tightness {ratio}\n",
                cp.cache_words, cp.lru.misses
            ));
        }
    }
    out.push_str(&format!("{}\n", report.summary_line()));
    out
}

fn cmd_simulate(args: &[String]) -> Result<String, CliError> {
    let args = parse_args(Command::Simulate, args)?;
    let outcome = args
        .analyzer()
        .analyze_with_tightness(args.workload()?.as_ref(), &args.request.tightness_options())
        .map_err(|e| err(e.to_string()))?;
    if args.json {
        return Ok(outcome.to_json());
    }
    let mut text = outcome.report.to_string();
    let report = outcome
        .tightness
        .as_ref()
        .expect("analyze_with_tightness always attaches a report");
    text.push_str(&render_tightness_text(report));
    Ok(text)
}

fn cmd_kernels(args: &[String]) -> Result<String, CliError> {
    let json = match args {
        [] => false,
        [a] if a == "--json" => true,
        _ => return Err(err(format!("kernels: unexpected arguments\n\n{USAGE}"))),
    };
    let kernels = iolb_polybench::all_kernels();
    if json {
        let entries = kernels.iter().map(|k| {
            let params = k.params.iter().map(|&p| p.into()).collect();
            Json::obj([
                ("name", k.name.into()),
                ("category", k.category.to_string().into()),
                ("params", Json::Arr(params)),
            ])
        });
        return Ok(Json::Arr(entries.collect()).render_pretty());
    }
    let mut out = format!("{:<16} {:<14} parameters\n", "kernel", "category");
    for k in &kernels {
        out.push_str(&format!(
            "{:<16} {:<14} {}\n",
            k.name,
            k.category.to_string(),
            k.params.join(", ")
        ));
    }
    Ok(out)
}

/// Parsed `serve` options (separate from the server's own config so the
/// CLI layer stays unit-testable without starting threads).
#[derive(Debug)]
struct ServeArgs {
    addr: Option<String>,
    stdio: bool,
    config: iolb_server::ServerConfig,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut addr: Option<String> = None;
    let mut stdio = false;
    let mut config = iolb_server::ServerConfig::default();
    fn numeric(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<usize, CliError> {
        let v = it
            .next()
            .ok_or_else(|| err(format!("{name} requires a value")))?;
        v.parse()
            .map_err(|_| err(format!("malformed {name} `{v}`")))
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdio" => stdio = true,
            "--addr" => {
                let v = it.next().ok_or_else(|| err("--addr requires HOST:PORT"))?;
                addr = Some(v.clone());
            }
            "--workers" => config.workers = numeric(&mut it, "--workers")?.max(1),
            "--queue" => config.queue_capacity = numeric(&mut it, "--queue")?,
            "--pool" => config.pool_capacity = numeric(&mut it, "--pool")?,
            "--timeout-ms" => {
                let ms = numeric(&mut it, "--timeout-ms")?;
                if ms == 0 {
                    return Err(err("--timeout-ms must be positive"));
                }
                config.default_timeout_ms = ms as u64;
            }
            "--cache-dir" => {
                let dir = it
                    .next()
                    .ok_or_else(|| err("--cache-dir requires a directory"))?;
                config.cache_dir = Some(std::path::PathBuf::from(dir));
            }
            "--cache-bytes" => {
                let bytes = numeric(&mut it, "--cache-bytes")?;
                if bytes == 0 {
                    return Err(err("--cache-bytes must be positive"));
                }
                config.cache_bytes = bytes as u64;
            }
            other => return Err(err(format!("unknown serve option `{other}`\n\n{USAGE}"))),
        }
    }
    if stdio && addr.is_some() {
        return Err(err("--stdio conflicts with --addr; pass one or the other"));
    }
    if !stdio && addr.is_none() {
        return Err(err(format!(
            "serve: pass --addr HOST:PORT or --stdio\n\n{USAGE}"
        )));
    }
    Ok(ServeArgs {
        addr,
        stdio,
        config,
    })
}

/// Runs the analysis daemon until it drains (shutdown request, or EOF in
/// `--stdio` mode). Unlike the other commands this one serves its output
/// incrementally — protocol responses on the transport, status lines on
/// stderr (plus the `listening on HOST:PORT` line on stdout in TCP mode,
/// which scripts read to discover the bound port).
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let args = parse_serve_args(args)?;
    let server = std::sync::Arc::new(iolb_server::Server::start(args.config));
    if args.stdio {
        server
            .serve_stdio()
            .map_err(|e| err(format!("serve: {e}")))?;
    } else {
        let addr = args.addr.expect("checked by parse_serve_args");
        let listener = std::net::TcpListener::bind(&addr)
            .map_err(|e| err(format!("serve: cannot bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| err(format!("serve: {e}")))?;
        println!("listening on {local}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        server
            .serve_listener(listener)
            .map_err(|e| err(format!("serve: {e}")))?;
    }
    eprintln!("iolb serve: drained, exiting");
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example(name: &str) -> String {
        format!(
            "{}/../../examples/programs/{name}",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    #[test]
    fn help_and_unknown_subcommand() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["help".into()]).unwrap().contains("analyze"));
        let e = run(&["frobnicate".into()]).unwrap_err();
        assert!(e.0.contains("unknown subcommand"));
    }

    #[test]
    fn kernels_lists_all_thirty() {
        let text = run(&["kernels".into()]).unwrap();
        assert!(text.contains("gemm"));
        assert!(text.contains("cholesky"));
        assert_eq!(text.lines().count(), 31); // header + 30 kernels
        let json = run(&["kernels".into(), "--json".into()]).unwrap();
        assert!(json.contains("\"name\": \"gemm\""));
    }

    #[test]
    fn analyze_builtin_kernel_text_and_json() {
        let text = run(&["analyze".into(), "--kernel".into(), "gemm".into()]).unwrap();
        assert!(text.contains("kernel: gemm"));
        assert!(text.contains("Q_low"));
        let json = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "--json".into(),
        ])
        .unwrap();
        assert!(json.contains("\"kernel\": \"gemm\""));
        assert!(json.contains("\"q_asymptotic\": \"2*Ni*Nj*Nk*S^(-1/2)\""));
    }

    #[test]
    fn analyze_file_matches_builtin_gemm() {
        // The CLI's default options on the gemm example must reproduce the
        // built-in kernel's parametric bound (the PR's acceptance
        // criterion; the binary-level version lives in tests/cli.rs).
        let from_file = run(&["analyze".into(), example("gemm.iolb"), "--json".into()]).unwrap();
        let builtin = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "--json".into(),
        ])
        .unwrap();
        let q = |s: &str| {
            s.lines()
                .find(|l| l.contains("\"q_low\""))
                .expect("q_low line")
                .trim()
                .to_string()
        };
        assert_eq!(q(&from_file), q(&builtin));
    }

    #[test]
    fn kernel_instance_overrides_are_applied() {
        // A different --cache-size must change the numeric-instance side of
        // the analysis; for syrk the weaker S makes the non-trivial
        // sub-bound evaluate differently, and at minimum the output must
        // differ from the tuned default (the bound text embeds max(...)
        // selection made at the instance).
        let tuned = run(&["analyze".into(), "--kernel".into(), "2mm".into()]).unwrap();
        let tiny = run(&[
            "analyze".into(),
            "--kernel".into(),
            "2mm".into(),
            "--param".into(),
            "Ni=8".into(),
            "--param".into(),
            "Nj=8".into(),
            "--param".into(),
            "Nk=8".into(),
            "--param".into(),
            "Nl=8".into(),
        ])
        .unwrap();
        assert_ne!(
            tuned, tiny,
            "--param must reach the built-in kernel's instance"
        );
    }

    #[test]
    fn file_and_kernel_targets_conflict() {
        let e = run(&[
            "analyze".into(),
            "prog.iolb".into(),
            "--kernel".into(),
            "gemm".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("conflicts with an input file"), "{}", e.0);
        let e = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "prog.iolb".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("unexpected argument"), "{}", e.0);
    }

    #[test]
    fn budget_flags_trip_or_degrade() {
        // An impossible FM budget interrupts before any valid bound: the
        // CLI surfaces the typed interrupt as its error message.
        let e = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "--max-fm-steps".into(),
            "1".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("budget exhausted"), "{}", e.0);
        // A generous budget changes nothing: same text output, no note.
        let plain = run(&["analyze".into(), "--kernel".into(), "gemm".into()]).unwrap();
        let budgeted = run(&[
            "analyze".into(),
            "--kernel".into(),
            "gemm".into(),
            "--deadline-ms".into(),
            "3600000".into(),
            "--max-fm-steps".into(),
            u64::MAX.to_string(),
        ])
        .unwrap();
        assert_eq!(plain, budgeted);
        assert!(!budgeted.contains("degraded"));
        // Malformed values are rejected up front.
        for (flag, value, want) in [
            ("--deadline-ms", "soon", "malformed"),
            ("--deadline-ms", "0", "must be positive"),
            ("--max-fm-steps", "0", "must be positive"),
        ] {
            let e = run(&[
                "analyze".into(),
                "--kernel".into(),
                "gemm".into(),
                flag.into(),
                value.into(),
            ])
            .unwrap_err();
            assert!(e.0.contains(want), "{flag} {value}: {}", e.0);
        }
    }

    #[test]
    fn serve_args_parse_and_validate() {
        let strs = |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };
        let parsed = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "5",
            "--pool",
            "3",
            "--timeout-ms",
            "1000",
        ]))
        .unwrap();
        assert_eq!(parsed.addr.as_deref(), Some("127.0.0.1:0"));
        assert!(!parsed.stdio);
        assert_eq!(parsed.config.workers, 2);
        assert_eq!(parsed.config.queue_capacity, 5);
        assert_eq!(parsed.config.pool_capacity, 3);
        assert_eq!(parsed.config.default_timeout_ms, 1000);

        let stdio = parse_serve_args(&strs(&["--stdio"])).unwrap();
        assert!(stdio.stdio);

        for (bad, want) in [
            (vec!["--stdio", "--addr", "x:1"], "conflicts"),
            (vec![], "pass --addr HOST:PORT or --stdio"),
            (vec!["--addr", "x:1", "--workers", "lots"], "malformed"),
            (
                vec!["--addr", "x:1", "--timeout-ms", "0"],
                "must be positive",
            ),
            (vec!["--frobnicate"], "unknown serve option"),
        ] {
            let e = parse_serve_args(&strs(&bad)).unwrap_err();
            assert!(e.0.contains(want), "{bad:?}: {}", e.0);
        }
        // `--workers 0` is clamped to one worker rather than deadlocking.
        let clamped = parse_serve_args(&strs(&["--stdio", "--workers", "0"])).unwrap();
        assert_eq!(clamped.config.workers, 1);
    }

    #[test]
    fn simulate_kernel_text_and_json() {
        let text = run(&[
            "simulate".into(),
            "--kernel".into(),
            "gemm".into(),
            "--param".into(),
            "Ni=12".into(),
            "--param".into(),
            "Nj=10".into(),
            "--param".into(),
            "Nk=8".into(),
            "--cache".into(),
            "64,1024".into(),
            "--opt".into(),
        ])
        .unwrap();
        assert!(text.contains("measured locality"), "{text}");
        assert!(text.contains("LRU misses"), "{text}");
        assert!(text.contains("OPT misses"), "{text}");
        assert!(text.contains("tightness:"), "{text}");

        let json = run(&[
            "simulate".into(),
            "--kernel".into(),
            "gemm".into(),
            "--json".into(),
        ])
        .unwrap();
        assert!(json.contains("\"tightness\": {"), "{json}");
        assert!(json.contains("\"lru_misses\""), "{json}");
        assert!(json.contains("\"tightness_lru\""), "{json}");
    }

    #[test]
    fn simulate_file_works_end_to_end() {
        let json = run(&[
            "simulate".into(),
            example("gemm.iolb"),
            "--param".into(),
            "Ni=12".into(),
            "--param".into(),
            "Nj=10".into(),
            "--param".into(),
            "Nk=8".into(),
            "--json".into(),
        ])
        .unwrap();
        assert!(json.contains("\"tightness\": {"), "{json}");
        // 12*10*8 = 960 statement points, 4 accesses each (A, B, C|Cin, C).
        assert!(json.contains("\"trace_len\": 3840"), "{json}");
    }

    #[test]
    fn simulate_rejects_malformed_options() {
        for (args, want) in [
            (vec!["simulate"], "missing input"),
            (
                vec!["simulate", "--kernel", "nonesuch"],
                "unknown kernel `nonesuch`",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--cache", "big"],
                "malformed --cache",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--cache", "0"],
                "must be positive",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--param", "Ni=-3"],
                "must be positive",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--max-trace", "0"],
                "must be positive",
            ),
            (
                vec!["simulate", "--kernel", "gemm", "--frobnicate"],
                "unknown simulate option",
            ),
        ] {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = run(&owned).unwrap_err();
            assert!(e.0.contains(want), "{args:?}: {}", e.0);
        }
    }

    #[test]
    fn check_profiles_kernels_and_files() {
        // Calibration anchors, through the CLI surface: the FM-blowup
        // kernels route large, the dense linear-algebra ones small.
        let heat = run(&["check".into(), "--kernel".into(), "heat-3d".into()]).unwrap();
        assert!(heat.contains("cost class: large"), "{heat}");
        assert!(heat.contains("pattern stencil"), "{heat}");
        let gemm = run(&["check".into(), "--kernel".into(), "gemm".into()]).unwrap();
        assert!(gemm.contains("cost class: small"), "{gemm}");
        assert!(gemm.contains("no diagnostics"), "{gemm}");
        // A file target profiles identically to its built-in twin's shape.
        let file = run(&["check".into(), example("jacobi-2d.iolb")]).unwrap();
        assert!(file.contains("cost class: large"), "{file}");
        // JSON mode is one parseable line with the same verdict.
        let json = run(&[
            "check".into(),
            "--kernel".into(),
            "gemm".into(),
            "--json".into(),
        ])
        .unwrap();
        assert!(json.trim_end().lines().count() == 1, "{json}");
        assert!(json.contains("\"cost_class\":\"small\""), "{json}");
        assert!(json.contains("\"diagnostics\":[]"), "{json}");
    }

    #[test]
    fn check_flags_bad_programs() {
        // Golden diagnostics over the intentionally-bad examples: exact
        // positioned lines, and error severity ⇒ non-zero exit (Err).
        let e = run(&["check".into(), example("bad/empty-domain.iolb")]).unwrap_err();
        assert!(
            e.0.contains(
                "12:9: error: statement `S1` has an empty iteration domain \
                 (its loop bounds are unsatisfiable) [empty-domain]"
            ),
            "{}",
            e.0
        );
        // Warnings alone keep the exit clean but are all reported.
        let warn = run(&["check".into(), example("bad/dead-array.iolb")]).unwrap();
        assert!(
            warn.contains("warning: array `B` is declared but never read or written [dead-array]"),
            "{warn}"
        );
        assert!(
            warn.contains("warning: parameter `M` is declared") && warn.contains("[unused-param]"),
            "{warn}"
        );
        // Contradictory --assume bounds make the context infeasible.
        let e = run(&[
            "check".into(),
            example("bad/contradictory-assumptions.iolb"),
            "--assume".into(),
            "N>=100".into(),
            "--assume".into(),
            "N<=10".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("[contradictory-assumptions]"), "{}", e.0);
        // The same program with sane (or no) assumptions is clean.
        let ok = run(&[
            "check".into(),
            example("bad/contradictory-assumptions.iolb"),
        ])
        .unwrap();
        assert!(ok.contains("no diagnostics"), "{ok}");
        // A program that does not compile fails with the frontend's
        // positioned error, like `analyze`.
        let e = run(&["check".into(), "/nonexistent.iolb".into()]).unwrap_err();
        assert!(e.0.contains("cannot read"), "{}", e.0);
        // Malformed --assume specs are rejected up front.
        let e = run(&[
            "check".into(),
            example("gemm.iolb"),
            "--assume".into(),
            "N=5".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("malformed --assume"), "{}", e.0);
    }

    #[test]
    fn analyze_reports_frontend_errors_with_position() {
        let dir = std::env::temp_dir().join("iolb-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.iolb");
        std::fs::write(
            &path,
            "parameter N;\ndouble A[N];\nfor (i = 0; i < N; i++)\n  A[i*i] = 0;\n",
        )
        .unwrap();
        let e = run(&["analyze".into(), path.to_string_lossy().into_owned()]).unwrap_err();
        assert!(
            e.0.contains("4:5"),
            "error should carry a position: {}",
            e.0
        );
        assert!(e.0.contains("non-affine"));
    }
}
