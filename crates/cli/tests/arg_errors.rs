//! Byte-for-byte pins of every argument error of `iolb analyze`, `check`
//! and `simulate`. Messages that end in the usage text are pinned against
//! [`iolb_cli::USAGE`], so the usage text itself may change while the
//! message around it may not.

use iolb_cli::{run, USAGE};

/// Runs `iolb <args…>` in process and returns its error message.
fn error(args: &[&str]) -> String {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    match run(&owned) {
        Ok(out) => panic!("{args:?} succeeded: {out}"),
        Err(e) => e.0,
    }
}

fn with_usage(message: &str) -> String {
    format!("{message}\n\n{USAGE}")
}

/// `(arguments, message)` for the errors that every subcommand
/// taking a workload reports in the same words.
fn shared_cases(cmd: &'static str) -> Vec<(Vec<&'static str>, String)> {
    vec![
        (vec![cmd], with_usage(&format!("{cmd}: missing input"))),
        (
            vec![cmd, "--kernel"],
            "--kernel requires a kernel name".into(),
        ),
        (
            vec![cmd, "prog.iolb", "--kernel", "gemm"],
            "--kernel gemm conflicts with an input file; pass one or the other".into(),
        ),
        (
            vec![cmd, "--kernel", "gemm", "--kernel", "2mm"],
            "--kernel 2mm conflicts with an input file; pass one or the other".into(),
        ),
        (
            vec![cmd, "--kernel", "gemm", "prog.iolb"],
            "unexpected argument `prog.iolb`".into(),
        ),
        (
            vec![cmd, "a.iolb", "b.iolb"],
            "unexpected argument `b.iolb`".into(),
        ),
        (
            vec![cmd, "--kernel", "nonesuch"],
            "unknown kernel `nonesuch` (see `iolb kernels` for the list)".into(),
        ),
    ]
}

fn check_cases(cases: Vec<(Vec<&'static str>, String)>) {
    for (args, want) in cases {
        assert_eq!(error(&args), want, "{args:?}");
    }
}

#[test]
fn analyze_argument_errors_are_pinned() {
    check_cases(shared_cases("analyze"));
    let unknown = |flag: &str| with_usage(&format!("unknown option `{flag}`"));
    check_cases(vec![
        (vec!["analyze", "--frobnicate"], unknown("--frobnicate")),
        (vec!["analyze", "-x"], unknown("-x")),
        // Flags of the other subcommands.
        (
            vec!["analyze", "--kernel", "gemm", "--assume", "N>=1"],
            unknown("--assume"),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--opt"],
            unknown("--opt"),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--cache", "64"],
            unknown("--cache"),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--max-trace", "9"],
            unknown("--max-trace"),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--param"],
            "--param requires NAME=VALUE".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--param", "N"],
            "malformed --param `N` (want NAME=VALUE)".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--param", "N=x"],
            "malformed --param value in `N=x`".into(),
        ),
        // Analysis parameters may be non-positive: only the flag after
        // `--param` fails here.
        (
            vec![
                "analyze",
                "--kernel",
                "gemm",
                "--param",
                "N=-3",
                "--cache-size",
                "big",
            ],
            "malformed --cache-size `big`".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--cache-size"],
            "--cache-size requires a word count".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--cache-cap"],
            "--cache-cap requires an entry count".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--cache-cap", "-1"],
            "malformed --cache-cap `-1`".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--depth"],
            "--depth requires a number".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--depth", "deep"],
            "malformed --depth `deep`".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--deadline-ms"],
            "--deadline-ms requires a millisecond count".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--deadline-ms", "soon"],
            "malformed --deadline-ms `soon`".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--deadline-ms", "0"],
            "--deadline-ms must be positive".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--max-fm-steps"],
            "--max-fm-steps requires a step count".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--max-fm-steps", "many"],
            "malformed --max-fm-steps `many`".into(),
        ),
        (
            vec!["analyze", "--kernel", "gemm", "--max-fm-steps", "0"],
            "--max-fm-steps must be positive".into(),
        ),
    ]);
}

#[test]
fn check_argument_errors_are_pinned() {
    check_cases(shared_cases("check"));
    let unknown = |flag: &str| with_usage(&format!("unknown check option `{flag}`"));
    check_cases(vec![
        (vec!["check", "--frobnicate"], unknown("--frobnicate")),
        (
            vec!["check", "--kernel", "gemm", "--serial"],
            unknown("--serial"),
        ),
        (
            vec!["check", "--kernel", "gemm", "--param", "N=1"],
            unknown("--param"),
        ),
        (
            vec!["check", "--kernel", "gemm", "--cache-size", "9"],
            unknown("--cache-size"),
        ),
        (
            vec!["check", "--kernel", "gemm", "--deadline-ms", "9"],
            unknown("--deadline-ms"),
        ),
        (vec!["check", "--kernel", "gemm", "--opt"], unknown("--opt")),
        (
            vec!["check", "--kernel", "gemm", "--depth"],
            "--depth requires a number".into(),
        ),
        (
            vec!["check", "--kernel", "gemm", "--depth", "deep"],
            "malformed --depth `deep`".into(),
        ),
        (
            vec!["check", "--kernel", "gemm", "--assume"],
            "--assume requires NAME>=VALUE or NAME<=VALUE".into(),
        ),
        (
            vec!["check", "--kernel", "gemm", "--assume", "N=5"],
            "malformed --assume `N=5` (want NAME>=VALUE or NAME<=VALUE)".into(),
        ),
        (
            vec!["check", "--kernel", "gemm", "--assume", "N>=x"],
            "malformed --assume value in `N>=x`".into(),
        ),
        (
            vec!["check", "--kernel", "gemm", "--assume", "N<=x"],
            "malformed --assume value in `N<=x`".into(),
        ),
    ]);
}

#[test]
fn simulate_argument_errors_are_pinned() {
    check_cases(shared_cases("simulate"));
    let unknown = |flag: &str| with_usage(&format!("unknown simulate option `{flag}`"));
    check_cases(vec![
        (vec!["simulate", "--frobnicate"], unknown("--frobnicate")),
        (
            vec!["simulate", "--kernel", "gemm", "--depth", "1"],
            unknown("--depth"),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--cache-size", "9"],
            unknown("--cache-size"),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--cache-cap", "9"],
            unknown("--cache-cap"),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--max-fm-steps", "9"],
            unknown("--max-fm-steps"),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--assume", "N>=1"],
            unknown("--assume"),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--param"],
            "--param requires NAME=VALUE".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--param", "Ni"],
            "malformed --param `Ni` (want NAME=VALUE)".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--param", "Ni=x"],
            "malformed --param value in `Ni=x`".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--param", "Ni=-3"],
            "--param Ni=-3: simulated instances must be positive".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--param", "Ni=0"],
            "--param Ni=0: simulated instances must be positive".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--cache"],
            "--cache requires a comma-separated word-count list".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--cache", "big"],
            "malformed --cache entry `big`".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--cache", "64,x"],
            "malformed --cache entry `x`".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--cache", "64, 0"],
            "--cache sizes must be positive".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--max-trace"],
            "--max-trace requires an access count".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--max-trace", "lots"],
            "malformed --max-trace `lots`".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--max-trace", "0"],
            "--max-trace must be positive".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--deadline-ms"],
            "--deadline-ms requires a millisecond count".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--deadline-ms", "soon"],
            "malformed --deadline-ms `soon`".into(),
        ),
        (
            vec!["simulate", "--kernel", "gemm", "--deadline-ms", "0"],
            "--deadline-ms must be positive".into(),
        ),
    ]);
}
