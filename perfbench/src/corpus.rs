//! The programs every workload draws from, and the expected outputs they
//! are checked against.

use iolb_core::tightness::TightnessOptions;
use std::collections::BTreeMap;

/// The `.iolb` example programs (everything under `examples/programs/`
/// except the deliberately broken `bad/` ones), by report name.
pub const IOLB_PROGRAMS: [(&str, &str); 6] = [
    ("gemm", include_str!("../../examples/programs/gemm.iolb")),
    (
        "cholesky",
        include_str!("../../examples/programs/cholesky.iolb"),
    ),
    (
        "jacobi-2d",
        include_str!("../../examples/programs/jacobi-2d.iolb"),
    ),
    (
        "ai/attention",
        include_str!("../../examples/programs/ai/attention.iolb"),
    ),
    (
        "ai/conv2d",
        include_str!("../../examples/programs/ai/conv2d.iolb"),
    ),
    (
        "ai/mlp",
        include_str!("../../examples/programs/ai/mlp.iolb"),
    ),
];

/// Cache sizes (words) simulated for every `.iolb` program, at the default
/// instance (every parameter 16), with both LRU and OPT.
pub const SIM_CACHE_WORDS: [usize; 2] = [256, 1024];

pub fn tightness_options() -> TightnessOptions {
    TightnessOptions::default()
        .cache_sizes(&SIM_CACHE_WORDS)
        .opt(true)
}

/// One program of the corpus: a built-in kernel or an `.iolb` source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    Kernel(&'static str),
    Iolb(&'static str, &'static str),
}

impl Program {
    /// The key the expected-output file uses (`kernel:gemm`, `iolb:gemm`).
    pub fn key(&self) -> String {
        match self {
            Program::Kernel(name) => format!("kernel:{name}"),
            Program::Iolb(name, _) => format!("iolb:{name}"),
        }
    }
}

pub fn kernels() -> Vec<Program> {
    iolb_polybench::kernel_names()
        .into_iter()
        .map(Program::Kernel)
        .collect()
}

pub fn iolb_programs() -> Vec<Program> {
    IOLB_PROGRAMS
        .iter()
        .map(|&(name, src)| Program::Iolb(name, src))
        .collect()
}

/// Expected results, parsed from `expected.txt`.
pub struct Expected {
    /// `(program key, cache size or "default")` → `q_low`.
    q_low: BTreeMap<(String, String), String>,
    /// `(program key, cache words)` → `(LRU misses, OPT misses)`.
    sim: BTreeMap<(String, usize), (u64, u64)>,
}

pub const EXPECTED_TXT: &str = include_str!("../expected.txt");

impl Expected {
    pub fn load() -> Expected {
        Expected::parse(EXPECTED_TXT).unwrap_or_else(|e| panic!("expected.txt: {e}"))
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut q_low = BTreeMap::new();
        let mut sim = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("line {}: malformed `{line}`", n + 1);
            match fields.as_slice() {
                ["q_low", program, size, expr] => {
                    q_low.insert((program.to_string(), size.to_string()), expr.to_string());
                }
                ["sim", program, words, lru, opt] => {
                    let words = words.parse().map_err(|_| bad())?;
                    let lru = lru.parse().map_err(|_| bad())?;
                    let opt = opt.parse().map_err(|_| bad())?;
                    sim.insert((program.to_string(), words), (lru, opt));
                }
                _ => return Err(bad()),
            }
        }
        Ok(Expected { q_low, sim })
    }

    /// The expected `q_low` of `program` analysed with `cache_size`
    /// (`None`: the program's default heuristic instance).
    pub fn q_low(&self, program: &Program, cache_size: Option<i128>) -> Option<&str> {
        let size = cache_size.map_or("default".to_string(), |s| s.to_string());
        self.q_low.get(&(program.key(), size)).map(String::as_str)
    }

    /// The expected `(LRU, OPT)` misses of `program` at `words`.
    pub fn sim(&self, program: &Program, words: usize) -> Option<(u64, u64)> {
        self.sim.get(&(program.key(), words)).copied()
    }
}

/// Renders `expected.txt` (`perfbench --print-expected` regenerates it when
/// a change is meant to move a bound; see `LAYERS.md`).
pub fn render_expected(
    q_lows: &[(String, Option<i128>, String)],
    sims: &[(String, usize, u64, u64)],
) -> String {
    let mut out = String::from(
        "# Expected outputs checked by every perfbench run. Tab-separated.\n\
         # q_low<TAB>program<TAB>cache size (or default)<TAB>Q_low\n\
         # sim<TAB>program<TAB>cache words<TAB>LRU misses<TAB>OPT misses (default instance)\n",
    );
    for (program, size, expr) in q_lows {
        let size = size.map_or("default".to_string(), |s| s.to_string());
        out.push_str(&format!("q_low\t{program}\t{size}\t{expr}\n"));
    }
    for (program, words, lru, opt) in sims {
        out.push_str(&format!("sim\t{program}\t{words}\t{lru}\t{opt}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_covers_every_checked_output() {
        let expected = Expected::load();
        for program in kernels().iter().chain(iolb_programs().iter()) {
            assert!(expected.q_low(program, None).is_some(), "{}", program.key());
        }
        for program in iolb_programs() {
            for words in SIM_CACHE_WORDS {
                assert!(expected.sim(&program, words).is_some(), "{}", program.key());
            }
        }
        for variant in crate::serve::miss_variants() {
            assert!(
                expected.q_low(&variant.0, Some(variant.1)).is_some(),
                "{} at {}",
                variant.0.key(),
                variant.1
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Expected::parse("q_low\tkernel:gemm\n").is_err());
        assert!(Expected::parse("sim\tiolb:gemm\t256\tx\t1\n").is_err());
        let ok = Expected::parse("# c\nq_low\tkernel:gemm\tdefault\tN\n").unwrap();
        assert_eq!(ok.q_low(&Program::Kernel("gemm"), None), Some("N"));
    }
}
