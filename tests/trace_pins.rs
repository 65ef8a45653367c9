//! Trace pins for the tightness walker: every built-in kernel and every
//! shipped `.iolb` example (except the intentionally bad ones), walked at
//! every parameter set to 5, 9 and 16, must reproduce the pinned trace
//! length, distinct-address count, statement-instance count, operation
//! count and a 64-bit digest of the address trace itself.
//!
//! The gemm hand-written oracle in `iolb_core::tightness` pins one trace by
//! construction; these pins hold the walker to byte-identical output on the
//! rest of the corpus.

use iolb::core::tightness::{generate_trace, GeneratedTrace, DEFAULT_MAX_TRACE};
use iolb::core::workload::dfg_params;
use iolb::core::Workload;
use iolb::frontend::IolbFile;
use iolb::prelude::*;

/// The parameter values every program is walked at.
const PARAMS: [i128; 3] = [5, 9, 16];

/// `(program, parameter, trace length, distinct addresses, points, ops,
/// digest)`.
type Pin = (&'static str, i128, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("2mm", 5, 975, 150, 250, 500, 15625394985689916530),
    ("2mm", 9, 5751, 486, 1458, 2916, 16961728256547795446),
    ("2mm", 16, 32512, 1536, 8192, 16384, 5146496779149890095),
    ("3mm", 5, 1425, 175, 375, 750, 17883453609710862483),
    ("3mm", 9, 8505, 567, 2187, 4374, 12811446376768342351),
    ("3mm", 16, 48384, 1792, 12288, 24576, 17027340255855111841),
    ("cholesky", 5, 115, 35, 35, 55, 4227563176373229262),
    ("cholesky", 9, 597, 117, 165, 285, 11839692157782559015),
    ("cholesky", 16, 3096, 376, 816, 1496, 15451085278361371036),
    ("correlation", 5, 285, 40, 75, 150, 17297780059612254897),
    ("correlation", 9, 1575, 126, 405, 810, 13131135619433073764),
    ("correlation", 16, 8568, 392, 2176, 4352, 5988607619119142661),
    ("covariance", 5, 285, 40, 75, 150, 17297780059612254897),
    ("covariance", 9, 1575, 126, 405, 810, 13131135619433073764),
    ("covariance", 16, 8568, 392, 2176, 4352, 5988607619119142661),
    ("doitgen", 5, 475, 75, 125, 250, 11190752750950874564),
    ("doitgen", 9, 2835, 243, 729, 1458, 723696907215047952),
    ("doitgen", 16, 16128, 768, 4096, 8192, 7606036736433410063),
    ("fdtd-2d", 5, 680, 296, 280, 1000, 16382745097772695655),
    ("fdtd-2d", 9, 5264, 1936, 1872, 6768, 6463526543587496387),
    ("fdtd-2d", 16, 34230, 11505, 11280, 41040, 9149749398255212357),
    ("floyd-warshall", 5, 450, 150, 125, 250, 7149753791694498760),
    ("floyd-warshall", 9, 2754, 810, 729, 1458, 4356813152058309820),
    ("floyd-warshall", 16, 15872, 4352, 4096, 8192, 6394677388374794533),
    ("gemm", 5, 500, 100, 125, 250, 11408059092825091721),
    ("gemm", 9, 2916, 324, 729, 1458, 13339651235544855329),
    ("gemm", 16, 16384, 1024, 4096, 8192, 17568675717912524937),
    ("heat-3d", 5, 294, 162, 135, 2025, 8638158746361566237),
    ("heat-3d", 9, 12174, 3430, 3087, 46305, 3614154228191939461),
    ("heat-3d", 16, 243328, 46648, 43904, 658560, 4264884360384968709),
    ("jacobi-1d", 5, 46, 18, 15, 45, 13378380619676047893),
    ("jacobi-1d", 9, 222, 70, 63, 189, 7918404202483658169),
    ("jacobi-1d", 16, 838, 238, 224, 672, 11709425279009885642),
    ("jacobi-2d", 5, 186, 54, 45, 225, 3898972799441936282),
    ("jacobi-2d", 9, 2226, 490, 441, 2205, 13704531449486326070),
    ("jacobi-2d", 16, 17192, 3332, 3136, 15680, 12834895734837493873),
    ("lu", 5, 120, 56, 40, 70, 7901162583539650066),
    ("lu", 9, 816, 304, 240, 444, 1105352253568164543),
    ("lu", 16, 4960, 1585, 1360, 2600, 2187983992766273547),
    ("ludcmp", 5, 120, 56, 40, 70, 7901162583539650066),
    ("ludcmp", 9, 816, 304, 240, 444, 1105352253568164543),
    ("ludcmp", 16, 4960, 1585, 1360, 2600, 2187983992766273547),
    ("seidel-2d", 5, 198, 54, 45, 405, 15994004402236813796),
    ("seidel-2d", 9, 2310, 490, 441, 3969, 12312277248598386604),
    ("seidel-2d", 16, 17556, 3332, 3136, 28224, 8020040071237337460),
    ("symm", 5, 200, 70, 50, 100, 13725070875956476025),
    ("symm", 9, 1296, 252, 324, 648, 11384658835999563109),
    ("symm", 16, 7680, 840, 1920, 3840, 12789880743314062859),
    ("syr2k", 5, 435, 65, 75, 150, 5239464698611960772),
    ("syr2k", 9, 2385, 207, 405, 810, 12133305518744781859),
    ("syr2k", 16, 12920, 648, 2176, 4352, 5958649409643531493),
    ("syrk", 5, 300, 55, 75, 75, 15410075908555902694),
    ("syrk", 9, 1620, 171, 405, 405, 9193491797395895474),
    ("syrk", 16, 8704, 528, 2176, 2176, 17282562200079301669),
    ("trmm", 5, 180, 50, 50, 100, 14733807078157734802),
    ("trmm", 9, 1224, 180, 324, 648, 15165929011712230707),
    ("trmm", 16, 7440, 600, 1920, 3840, 8590236864728180936),
    ("atax", 5, 190, 40, 50, 100, 4289639906063602955),
    ("atax", 9, 630, 108, 162, 324, 4568129625092096303),
    ("atax", 16, 2016, 304, 512, 1024, 17748433231179206418),
    ("bicg", 5, 190, 45, 50, 100, 1039036944061554227),
    ("bicg", 9, 630, 117, 162, 324, 13058416588091671071),
    ("bicg", 16, 2016, 320, 512, 1024, 5537904127810023826),
    ("deriche", 5, 235, 40, 75, 800, 6491227981245317376),
    ("deriche", 9, 783, 108, 243, 2592, 7974452443886649164),
    ("deriche", 16, 2512, 304, 768, 8192, 15202537639248087541),
    ("gemver", 5, 265, 70, 75, 250, 3863081160122815480),
    ("gemver", 9, 873, 198, 243, 810, 10626364703704082268),
    ("gemver", 16, 2784, 576, 768, 2560, 7373326125778631883),
    ("gesummv", 5, 120, 60, 25, 100, 14537666050376497773),
    ("gesummv", 9, 396, 180, 81, 324, 16626066174022479729),
    ("gesummv", 16, 1264, 544, 256, 1024, 6869275250485328246),
    ("mvt", 5, 190, 45, 50, 100, 3467899913733885019),
    ("mvt", 9, 630, 117, 162, 324, 16098743970559774431),
    ("mvt", 16, 2016, 320, 512, 1024, 13381546803019699477),
    ("trisolv", 5, 36, 24, 10, 20, 5193002132990826163),
    ("trisolv", 9, 136, 80, 36, 72, 15689781987643626209),
    ("trisolv", 16, 465, 255, 120, 240, 12661069627969113682),
    ("adi", 5, 342, 54, 81, 1215, 4793849420890970283),
    ("adi", 9, 6762, 490, 833, 12495, 12824464209401565475),
    ("adi", 16, 91532, 3332, 6076, 91140, 16596274945865702809),
    ("durbin", 5, 46, 18, 14, 24, 16045867290641541954),
    ("durbin", 9, 172, 52, 44, 80, 16210417597214408509),
    ("durbin", 16, 585, 150, 135, 255, 1730928371788397488),
    ("gramschmidt", 5, 270, 50, 100, 200, 15401136619981328686),
    ("gramschmidt", 9, 1836, 180, 648, 1296, 7538407022424880594),
    ("gramschmidt", 16, 11160, 600, 3840, 7680, 6661893213994391186),
    ("nussinov", 5, 66, 24, 20, 40, 1312019007365811057),
    ("nussinov", 9, 436, 128, 120, 240, 8733561363546908803),
    ("nussinov", 16, 2585, 695, 680, 1360, 6956515013285845508),
    ("gemm.iolb", 5, 500, 100, 125, 250, 11408059092825091721),
    ("gemm.iolb", 9, 2916, 324, 729, 1458, 13339651235544855329),
    ("gemm.iolb", 16, 16384, 1024, 4096, 8192, 17568675717912524937),
    ("cholesky.iolb", 5, 120, 40, 35, 55, 7106367684352480811),
    ("cholesky.iolb", 9, 606, 126, 165, 285, 15134524692670524562),
    ("cholesky.iolb", 16, 3112, 392, 816, 1496, 13987166776288948397),
    ("jacobi-2d.iolb", 5, 540, 123, 90, 450, 4722296379586604493),
    ("jacobi-2d.iolb", 9, 5292, 987, 882, 4410, 3997396284188507661),
    ("jacobi-2d.iolb", 16, 37632, 6580, 6272, 31360, 2276498242351366093),
    ("ai/attention.iolb", 5, 1050, 200, 275, 525, 15569191683901634224),
    ("ai/attention.iolb", 9, 5994, 648, 1539, 2997, 1707157333604805748),
    ("ai/attention.iolb", 16, 33280, 2048, 8448, 16640, 1113086379296402579),
    ("ai/conv2d.iolb", 5, 2500, 756, 625, 1250, 116249825778252073),
    ("ai/conv2d.iolb", 9, 26244, 7012, 6561, 13122, 6050496225492595249),
    ("ai/conv2d.iolb", 16, 262144, 67009, 65536, 131072, 4401357683461977837),
    ("ai/mlp.iolb", 5, 1050, 200, 275, 525, 9200332441234297698),
    ("ai/mlp.iolb", 9, 5994, 648, 1539, 2997, 18207806454918521462),
    ("ai/mlp.iolb", 16, 33280, 2048, 8448, 16640, 18286187618312997979),
];

/// FNV-1a over the trace's addresses, one 64-bit word at a time.
fn digest(trace: &[u64]) -> u64 {
    trace.iter().fold(0xcbf2_9ce4_8422_2325, |h, &a| {
        (h ^ a).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn walk(dfg: &iolb::dfg::Dfg, params: &[String], value: i128) -> GeneratedTrace {
    let mut instance = Instance::new();
    for p in params {
        instance = instance.set(p, value);
    }
    generate_trace(dfg, &instance, DEFAULT_MAX_TRACE).expect("trace generates")
}

/// Walks every program of the corpus at every pinned parameter value.
fn corpus_measurements() -> Vec<Pin> {
    let mut out = Vec::new();
    let mut record = |name: &'static str, dfg: &iolb::dfg::Dfg, params: &[String]| {
        for value in PARAMS {
            let t = walk(dfg, params, value);
            assert!(!t.truncated, "{name} at {value}: walk truncated");
            out.push((
                name,
                value,
                t.trace.len() as u64,
                t.distinct_addresses,
                t.points,
                t.ops as u64,
                digest(&t.trace),
            ));
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
fn walker_traces_match_the_pins_on_the_whole_corpus() {
    let measured = corpus_measurements();
    let rendered: Vec<String> = measured.iter().map(|p| format!("{p:?},")).collect();
    assert_eq!(
        measured.len(),
        PINS.len(),
        "pin table out of date; measured:\n{}",
        rendered.join("\n")
    );
    for (got, want) in measured.iter().zip(PINS) {
        assert_eq!(got, want, "trace pin mismatch");
    }
}
