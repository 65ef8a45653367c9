//! Document pins: every JSON document the system emits, byte for byte.
//!
//! For every built-in kernel and every shipped `.iolb` example (the
//! intentionally bad ones excluded), analysed serially through
//! `Analyzer::simulate` at its defaults, the *compact* form of each
//! document must reproduce its pinned byte length and 64-bit FNV-1a hash:
//!
//! * `report` — `Report::to_json`;
//! * `preflight` — the preflight document;
//! * `tightness` — the tightness document;
//! * `outcome` — `AnalysisOutcome::to_json`, tightness block included;
//! * `plain` — `AnalysisOutcome::to_json` without the tightness block.
//!
//! The outcome's `wall_clock_seconds` is masked by zeroing the elapsed time
//! before rendering. The daemon's wire lines (ok, error, overloaded, pong,
//! draining and stats) are pinned verbatim for fixed inputs, and the key
//! paths of the `stats` reply are pinned in order.

use std::time::Duration;

use iolb::frontend::IolbFile;
use iolb::prelude::*;
use iolb_server::json::{self, Json};
use iolb_server::protocol::{
    error_response, ok_response, overloaded_response, CacheInfo, DegradedInfo, ServiceTimings,
};
use iolb_server::{Server, ServerConfig};

/// `(program, document, compact byte length, FNV-1a hash of the compact bytes)`.
type Pin = (&'static str, &'static str, usize, u64);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("2mm", "report", 864, 13209881215028040652),
    ("2mm", "preflight", 397, 4747611812470860611),
    ("2mm", "tightness", 327, 11861886761696328040),
    ("2mm", "outcome", 2059, 5855866242975399319),
    ("2mm", "plain", 1719, 8576449878506762631),
    ("3mm", "report", 1557, 14726137386866021490),
    ("3mm", "preflight", 499, 5625469212073394903),
    ("3mm", "tightness", 320, 7295971322641684812),
    ("3mm", "outcome", 2848, 14488504219564757441),
    ("3mm", "plain", 2515, 16889014962776747949),
    ("cholesky", "report", 803, 3073654307119777588),
    ("cholesky", "preflight", 499, 17960821914882283290),
    ("cholesky", "tightness", 296, 17405303021255160724),
    ("cholesky", "outcome", 2069, 11599080647262179335),
    ("cholesky", "plain", 1760, 4881247046005838859),
    ("correlation", "report", 878, 9142200032435761394),
    ("correlation", "preflight", 292, 10860560975081319348),
    ("correlation", "tightness", 303, 7893080314916871667),
    ("correlation", "outcome", 1939, 13158468186938396508),
    ("correlation", "plain", 1623, 18203129513209523297),
    ("covariance", "report", 877, 9863008220877349285),
    ("covariance", "preflight", 291, 18051934970484022795),
    ("covariance", "tightness", 303, 7893080314916871667),
    ("covariance", "outcome", 1937, 16442398489927588950),
    ("covariance", "plain", 1621, 15357388429958637811),
    ("doitgen", "report", 213, 389605854493378936),
    ("doitgen", "preflight", 291, 5752848356017621380),
    ("doitgen", "tightness", 308, 18311940283773663148),
    ("doitgen", "outcome", 1279, 8030988298519122811),
    ("doitgen", "plain", 958, 3867045316537704855),
    ("fdtd-2d", "report", 191, 6830135856156468473),
    ("fdtd-2d", "preflight", 487, 14976357068217675711),
    ("fdtd-2d", "tightness", 321, 5607994700191933936),
    ("fdtd-2d", "outcome", 1470, 10251649844463135940),
    ("fdtd-2d", "plain", 1136, 13148102157688527468),
    ("floyd-warshall", "report", 789, 3623186280348333333),
    ("floyd-warshall", "preflight", 296, 6804349131872812235),
    ("floyd-warshall", "tightness", 302, 16383227766162571728),
    ("floyd-warshall", "outcome", 1854, 7407438216054633911),
    ("floyd-warshall", "plain", 1539, 15985305247371426927),
    ("gemm", "report", 789, 2134507217867228906),
    ("gemm", "preflight", 290, 7792588656674683787),
    ("gemm", "tightness", 303, 12092620462771172877),
    ("gemm", "outcome", 1850, 16659695597573187950),
    ("gemm", "plain", 1534, 8598572560615766221),
    ("heat-3d", "report", 183, 10498798936740157130),
    ("heat-3d", "preflight", 288, 12424451063790029313),
    ("heat-3d", "tightness", 315, 12782386618575586062),
    ("heat-3d", "outcome", 1263, 327920526365854144),
    ("heat-3d", "plain", 935, 15151568242340096710),
    ("jacobi-1d", "report", 175, 3202115108523979406),
    ("jacobi-1d", "preflight", 288, 8766605703461348853),
    ("jacobi-1d", "tightness", 300, 3991011850097662459),
    ("jacobi-1d", "outcome", 1233, 16120875000179724787),
    ("jacobi-1d", "plain", 920, 15117191237098034880),
    ("jacobi-2d", "report", 185, 11490030478677306191),
    ("jacobi-2d", "preflight", 290, 7667971828613725702),
    ("jacobi-2d", "tightness", 309, 11730497900762817371),
    ("jacobi-2d", "outcome", 1255, 15799889650528742581),
    ("jacobi-2d", "plain", 933, 3325270524923792500),
    ("lu", "report", 814, 5424308670173770336),
    ("lu", "preflight", 389, 598789696423205720),
    ("lu", "tightness", 299, 16687828919500194576),
    ("lu", "outcome", 1969, 11117560577526205274),
    ("lu", "plain", 1657, 8068097482607433742),
    ("ludcmp", "report", 818, 2128181876542653232),
    ("ludcmp", "preflight", 393, 331781922599491820),
    ("ludcmp", "tightness", 299, 16687828919500194576),
    ("ludcmp", "outcome", 1977, 13695979997742050106),
    ("ludcmp", "plain", 1665, 8058862173900943406),
    ("seidel-2d", "report", 183, 1295088493050833987),
    ("seidel-2d", "preflight", 290, 13283598283104105064),
    ("seidel-2d", "tightness", 309, 8517625533683950069),
    ("seidel-2d", "outcome", 1253, 9515764317413880945),
    ("seidel-2d", "plain", 931, 6390031139317073302),
    ("symm", "report", 830, 13608345294489268883),
    ("symm", "preflight", 283, 855771393715504318),
    ("symm", "tightness", 303, 10213021347781869799),
    ("symm", "outcome", 1884, 6167871536956233740),
    ("symm", "plain", 1568, 9974842898020845629),
    ("syr2k", "report", 870, 2693822110662270716),
    ("syr2k", "preflight", 284, 204849901933179599),
    ("syr2k", "tightness", 305, 9873817559584583641),
    ("syr2k", "outcome", 1926, 2350817144526726852),
    ("syr2k", "plain", 1608, 15976192782741856295),
    ("syrk", "report", 893, 14206139258543232521),
    ("syrk", "preflight", 283, 9991980354842122826),
    ("syrk", "tightness", 303, 1467957651227512633),
    ("syrk", "outcome", 1945, 7663413623092724258),
    ("syrk", "plain", 1629, 13480108063088448713),
    ("trmm", "report", 826, 13360597913554943550),
    ("trmm", "preflight", 283, 16352031561176100979),
    ("trmm", "tightness", 303, 10626543050829629486),
    ("trmm", "outcome", 1880, 3783302704538364147),
    ("trmm", "plain", 1564, 18286933926529065081),
    ("atax", "report", 182, 910730013209206665),
    ("atax", "preflight", 386, 13334738217935316210),
    ("atax", "tightness", 303, 5175845739062989874),
    ("atax", "outcome", 1340, 17076104869600434372),
    ("atax", "plain", 1024, 3950338148139102954),
    ("bicg", "report", 190, 1739984432859929802),
    ("bicg", "preflight", 380, 2590813785207174686),
    ("bicg", "tightness", 288, 6818077991763607678),
    ("bicg", "outcome", 1326, 16158179380821251274),
    ("bicg", "plain", 1025, 1140004005047978706),
    ("deriche", "report", 179, 4016218663533110283),
    ("deriche", "preflight", 482, 8081763688556653027),
    ("deriche", "tightness", 303, 6472788197838200313),
    ("deriche", "outcome", 1428, 6370695611305553062),
    ("deriche", "plain", 1112, 16601031474079518053),
    ("gemver", "report", 190, 13683457092770773982),
    ("gemver", "preflight", 488, 5654542747622993200),
    ("gemver", "tightness", 281, 4267140614199520350),
    ("gemver", "outcome", 1427, 9719238266231110833),
    ("gemver", "plain", 1133, 15574927614618326007),
    ("gesummv", "report", 191, 9921047360454957552),
    ("gesummv", "preflight", 282, 15877398326903228117),
    ("gesummv", "tightness", 296, 16917076703189695331),
    ("gesummv", "outcome", 1232, 937438297263030077),
    ("gesummv", "plain", 923, 11488601289985860466),
    ("mvt", "report", 185, 14873265901097190134),
    ("mvt", "preflight", 376, 6844933122036715224),
    ("mvt", "tightness", 281, 616929848602611400),
    ("mvt", "outcome", 1306, 15786378038766474643),
    ("mvt", "plain", 1012, 2999121644301199459),
    ("trisolv", "report", 203, 3326600703538076559),
    ("trisolv", "preflight", 289, 10249862737974244237),
    ("trisolv", "tightness", 292, 14132982151499021803),
    ("trisolv", "outcome", 1248, 16807628121416584125),
    ("trisolv", "plain", 943, 9486622778003503038),
    ("adi", "report", 488, 13064836406948904914),
    ("adi", "preflight", 394, 6092032393869592769),
    ("adi", "tightness", 309, 11741021285315735544),
    ("adi", "outcome", 1659, 15310504897274668771),
    ("adi", "plain", 1337, 12636994315118974891),
    ("durbin", "report", 172, 9400858972257996798),
    ("durbin", "preflight", 395, 17188881586457219410),
    ("durbin", "tightness", 293, 3099033319582801503),
    ("durbin", "outcome", 1329, 15130980273768242967),
    ("durbin", "plain", 1023, 15610150397343468742),
    ("gramschmidt", "report", 185, 10780239993754012317),
    ("gramschmidt", "preflight", 395, 16694573641474132337),
    ("gramschmidt", "tightness", 305, 2132214349171030913),
    ("gramschmidt", "outcome", 1353, 10073268634925381891),
    ("gramschmidt", "plain", 1035, 11772974335275251704),
    ("nussinov", "report", 180, 8240684748179437820),
    ("nussinov", "preflight", 291, 16377438716528903941),
    ("nussinov", "tightness", 296, 5258862613754199654),
    ("nussinov", "outcome", 1234, 6472225151390880620),
    ("nussinov", "plain", 925, 1789761866314916976),
    ("gemm.iolb", "report", 790, 17369315743283152983),
    ("gemm.iolb", "preflight", 291, 1097530466649895195),
    ("gemm.iolb", "tightness", 303, 12092620462771172877),
    ("gemm.iolb", "outcome", 1854, 4995997308014080918),
    ("gemm.iolb", "plain", 1538, 620318844163509413),
    ("cholesky.iolb", "report", 803, 15577521023877660429),
    ("cholesky.iolb", "preflight", 499, 9049341049054072525),
    ("cholesky.iolb", "tightness", 296, 1162414590831341461),
    ("cholesky.iolb", "outcome", 2070, 17729802493346855765),
    ("cholesky.iolb", "plain", 1761, 10696674037260920),
    ("jacobi-2d.iolb", "report", 206, 14197575066461067252),
    ("jacobi-2d.iolb", "preflight", 390, 10888558461174529390),
    ("jacobi-2d.iolb", "tightness", 311, 7311586778504460097),
    ("jacobi-2d.iolb", "outcome", 1390, 17992128006805569948),
    ("jacobi-2d.iolb", "plain", 1066, 16237160955735625671),
    ("ai/attention.iolb", "report", 1290, 11176985459741208850),
    ("ai/attention.iolb", "preflight", 497, 15053330513616959715),
    ("ai/attention.iolb", "tightness", 296, 13669964448391771974),
    ("ai/attention.iolb", "outcome", 2555, 17448566794693785967),
    ("ai/attention.iolb", "plain", 2246, 12363630796977684341),
    ("ai/conv2d.iolb", "report", 235, 929959623957964589),
    ("ai/conv2d.iolb", "preflight", 293, 4521451170313893074),
    ("ai/conv2d.iolb", "tightness", 316, 16375238842305518484),
    ("ai/conv2d.iolb", "outcome", 1315, 6727431200638265925),
    ("ai/conv2d.iolb", "plain", 986, 7962486602632820329),
    ("ai/mlp.iolb", "report", 1497, 7011354624710090211),
    ("ai/mlp.iolb", "preflight", 502, 8337630904926794989),
    ("ai/mlp.iolb", "tightness", 313, 17712266737448308053),
    ("ai/mlp.iolb", "outcome", 2784, 532021787633952092),
    ("ai/mlp.iolb", "plain", 2458, 7474888424998505451),
];

/// The shipped example programs (`bad/` excluded).
const EXAMPLES: [&str; 6] = [
    "gemm.iolb",
    "cholesky.iolb",
    "jacobi-2d.iolb",
    "ai/attention.iolb",
    "ai/conv2d.iolb",
    "ai/mlp.iolb",
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(out: &mut Vec<Pin>, program: &'static str, document: &'static str, text: &str) {
    let compact = json::compact(text);
    out.push((program, document, compact.len(), fnv1a(compact.as_bytes())));
}

fn documents<W: Workload + ?Sized>(out: &mut Vec<Pin>, program: &'static str, workload: &W) {
    let mut outcome = Analyzer::new()
        .parallel(false)
        .simulate(workload)
        .unwrap_or_else(|e| panic!("{program}: {e}"));
    outcome.elapsed = Duration::ZERO;
    pin(out, program, "report", &outcome.report.to_json());
    pin(out, program, "preflight", &outcome.preflight.to_json());
    let tightness = outcome.tightness.as_ref().expect("simulate attaches");
    pin(out, program, "tightness", &tightness.to_json());
    pin(out, program, "outcome", &outcome.to_json());
    outcome.tightness = None;
    pin(out, program, "plain", &outcome.to_json());
}

#[test]
fn corpus_documents_match_the_pins() {
    let mut measured = Vec::new();
    for name in iolb::polybench::kernel_names() {
        let kernel = iolb::polybench::kernel_by_name(name).unwrap();
        documents(&mut measured, name, &kernel);
    }
    for file in EXAMPLES {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("examples/programs")
            .join(file);
        documents(&mut measured, file, &IolbFile::new(path));
    }
    let rendered: Vec<String> = measured.iter().map(|p| format!("{p:?},")).collect();
    assert_eq!(
        measured.len(),
        PINS.len(),
        "pin table out of date; measured:\n{}",
        rendered.join("\n")
    );
    for (got, want) in measured.iter().zip(PINS) {
        assert_eq!(got, want, "document pin mismatch");
    }
}

const TIMINGS: ServiceTimings = ServiceTimings {
    queue_ms: 1.5,
    service_ms: 2.0004,
    analysis_ms: 0.1235,
    session_warm: true,
    pool_sessions: 3,
    cost_class: "small",
};

/// A multi-line report document with every escape class in a string.
const REPORT: &str = "{\n  \"schema_version\": 1,\n  \"q_low\": \"N^2 \\\"q\\\" \\\\ \\n\",\n  \"engine_stats\": {\n    \"hit\": 0.500000,\n    \"none\": null\n  },\n  \"accepted_bounds\": [\n    { \"bound\": \"N\", \"notes\": [\"a\", \"b c\"] }\n  ]\n}\n";

#[test]
fn wire_lines_match_the_pins() {
    let plain = ok_response("7", REPORT, &TIMINGS, None, &CacheInfo::default());
    assert_eq!(
        plain,
        r#"{"id":7,"status":"ok","cached":false,"report":{"schema_version":1,"q_low":"N^2 \"q\" \\ \n","engine_stats":{"hit":0.500000,"none":null},"accepted_bounds":[{"bound":"N","notes":["a","b c"]}]},"server":{"queue_ms":1.500,"service_ms":2.000,"analysis_ms":0.123,"session_warm":true,"pool_sessions":3,"cost_class":"small"}}"#
    );
    let degraded = ok_response(
        "\"r-1\"",
        REPORT,
        &TIMINGS,
        Some(DegradedInfo {
            tripped: "fm_steps",
            sweep_completed: 2,
            sweep_total: 5,
        }),
        &CacheInfo {
            cached: true,
            fingerprint: Some("00ff".repeat(8)),
        },
    );
    assert_eq!(
        degraded,
        r#"{"id":"r-1","status":"ok","cached":true,"report":{"schema_version":1,"q_low":"N^2 \"q\" \\ \n","engine_stats":{"hit":0.500000,"none":null},"accepted_bounds":[{"bound":"N","notes":["a","b c"]}]},"server":{"queue_ms":1.500,"service_ms":2.000,"analysis_ms":0.123,"session_warm":true,"pool_sessions":3,"cost_class":"small"},"fingerprint":"00ff00ff00ff00ff00ff00ff00ff00ff","degraded":true,"budget":{"tripped":"fm_steps","sweep_completed":2,"sweep_total":5}}"#
    );
    assert_eq!(
        error_response("null", "bad_request", "say \"hi\"\\\n\t\u{1}é😀"),
        r#"{"id":null,"status":"error","error":{"code":"bad_request","message":"say \"hi\"\\\n\t\u0001é😀"}}"#
    );
    assert_eq!(
        overloaded_response("[1,\"a\"]", "small lane is full (3 queued)", 125),
        r#"{"id":[1,"a"],"status":"error","error":{"code":"overloaded","message":"small lane is full (3 queued)","retry_after_ms":125}}"#
    );

    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        pool_capacity: 2,
        ..ServerConfig::default()
    });
    assert_eq!(
        server.handle_line(r#"{"id": 9, "op": "ping"}"#),
        r#"{"id":9,"status":"ok","pong":true}"#
    );
    let stats = server.handle_line(r#"{"id": "s", "op": "stats"}"#);
    assert_eq!(
        stats,
        r#"{"id":"s","status":"ok","server_stats":{"workers":1,"queue_capacity":4,"queue_depth":0,"draining":false,"lanes":{"small":{"queued":0,"queued_peak":0,"served":0,"mean_service_ms":0.000,"p50_ms":0,"p99_ms":0},"large":{"queued":0,"queued_peak":0,"served":0,"mean_service_ms":0.000,"p50_ms":0,"p99_ms":0}},"requests_received":0,"requests_completed":0,"requests_failed":0,"rejected_overloaded":0,"timeouts":0,"abandoned_skipped":0,"abandoned_completed":0,"cancelled_in_flight":0,"degraded":0,"resource_limited":0,"sessions_retired":0,"simulate_requests":0,"simulate_completed":0,"pool":{"capacity":2,"idle_sessions":0,"hits":0,"misses":0,"evictions":0,"retired":0},"result_cache":{"enabled":true,"entries":0,"hits":0,"misses":0,"inflight_coalesced":0,"disk_hits":0,"evictions":0,"disk_evictions":0,"disk_corrupt":0,"stores":0,"uncacheable":0}}}"#
    );
    server.handle_line(r#"{"id": 1, "kernel": "atax"}"#);
    let stats = json::parse(&server.handle_line(r#"{"op": "stats"}"#)).unwrap();
    let mut paths = Vec::new();
    key_paths(&stats, "", &mut paths);
    assert_eq!(paths.join(" "), STATS_PATHS.join(" "));
    assert_eq!(
        server.handle_line(r#"{"id": "bye", "op": "shutdown"}"#),
        r#"{"id":"bye","status":"ok","draining":true}"#
    );
    server.shutdown();
}

/// Every key path of the `stats` reply, in document order.
const STATS_PATHS: &[&str] = &[
    "id",
    "status",
    "server_stats",
    "server_stats.workers",
    "server_stats.queue_capacity",
    "server_stats.queue_depth",
    "server_stats.draining",
    "server_stats.lanes",
    "server_stats.lanes.small",
    "server_stats.lanes.small.queued",
    "server_stats.lanes.small.queued_peak",
    "server_stats.lanes.small.served",
    "server_stats.lanes.small.mean_service_ms",
    "server_stats.lanes.small.p50_ms",
    "server_stats.lanes.small.p99_ms",
    "server_stats.lanes.large",
    "server_stats.lanes.large.queued",
    "server_stats.lanes.large.queued_peak",
    "server_stats.lanes.large.served",
    "server_stats.lanes.large.mean_service_ms",
    "server_stats.lanes.large.p50_ms",
    "server_stats.lanes.large.p99_ms",
    "server_stats.requests_received",
    "server_stats.requests_completed",
    "server_stats.requests_failed",
    "server_stats.rejected_overloaded",
    "server_stats.timeouts",
    "server_stats.abandoned_skipped",
    "server_stats.abandoned_completed",
    "server_stats.cancelled_in_flight",
    "server_stats.degraded",
    "server_stats.resource_limited",
    "server_stats.sessions_retired",
    "server_stats.simulate_requests",
    "server_stats.simulate_completed",
    "server_stats.pool",
    "server_stats.pool.capacity",
    "server_stats.pool.idle_sessions",
    "server_stats.pool.hits",
    "server_stats.pool.misses",
    "server_stats.pool.evictions",
    "server_stats.pool.retired",
    "server_stats.result_cache",
    "server_stats.result_cache.enabled",
    "server_stats.result_cache.entries",
    "server_stats.result_cache.hits",
    "server_stats.result_cache.misses",
    "server_stats.result_cache.inflight_coalesced",
    "server_stats.result_cache.disk_hits",
    "server_stats.result_cache.evictions",
    "server_stats.result_cache.disk_evictions",
    "server_stats.result_cache.disk_corrupt",
    "server_stats.result_cache.stores",
    "server_stats.result_cache.uncacheable",
];

fn key_paths(value: &Json, prefix: &str, out: &mut Vec<String>) {
    for (key, child) in value.as_obj().unwrap_or(&[]) {
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        out.push(path.clone());
        key_paths(child, &path, out);
    }
}
