//! Pins of what the daemon derives from a request, independent of timing:
//!
//! * the `fingerprint` of a reply — the result-cache key, also the file
//!   name of a disk-tier entry, so a moved fingerprint silently orphans
//!   every persisted report;
//! * the non-timing fields of each reply and of the `stats` reply after a
//!   fixed request sequence (cache, session-pool and lane counters).

use iolb_server::json::{self, Json};
use iolb_server::{Server, ServerConfig};

/// A small affine-C program, inlined so the pins do not move with the
/// example files.
const SOURCE: &str = "parameter N, M;\n\
double A[N][M];\n\
double x[M];\n\
double y[N];\n\
for (i = 0; i < N; i++)\n\
  for (j = 0; j < M; j++)\n\
    y[i] = y[i] + A[i][j] * x[j];\n";

fn serial_server() -> Server {
    Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
}

/// Drops every key in `keys` from `doc`, at any depth.
fn without(doc: Json, keys: &[&str]) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .map(|(k, v)| (k, without(v, keys)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(|v| without(v, keys)).collect()),
        other => other,
    }
}

/// A reply line with the report document and every wall-clock field
/// dropped.
fn shape(line: &str) -> String {
    let doc = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("ok"),
        "{line}"
    );
    without(
        doc,
        &[
            "report",
            "queue_ms",
            "service_ms",
            "analysis_ms",
            "mean_service_ms",
            "p50_ms",
            "p99_ms",
        ],
    )
    .render()
}

fn fingerprint(server: &Server, request: &str) -> String {
    let line = server.handle_line(request);
    let doc = json::parse(&line).unwrap();
    doc.get("fingerprint")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no fingerprint: {line}"))
        .to_string()
}

#[test]
fn reply_fingerprints_are_pinned() {
    let dir = std::env::temp_dir().join(format!("iolb-request-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mv.iolb");
    std::fs::write(&path, SOURCE).unwrap();

    let server = serial_server();
    let kernel = fingerprint(&server, r#"{"kernel": "gemm"}"#);
    let shaped = fingerprint(
        &server,
        r#"{"kernel": "2mm", "params": {"Ni": 64, "Nj": 48, "Nk": 40, "Nl": 32},
            "cache_param": "Cap", "cache_size": 512, "depth": 1}"#,
    );
    let source = fingerprint(
        &server,
        &format!(r#"{{"source": {}}}"#, json::escape(SOURCE)),
    );
    let file = fingerprint(
        &server,
        &format!(r#"{{"path": {}}}"#, json::escape(&path.to_string_lossy())),
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(kernel, "0cf2291f68fb81a24fae1c98d80d4971");
    assert_eq!(shaped, "735acc501cecf8e93979c15b75ea63e7");
    assert_eq!(source, "da9719b73a880af9f713159d14988f56");
    assert_eq!(file, "375c35c349a50ad543a36033836c8661");
}

#[test]
fn replies_and_stats_after_a_fixed_sequence_are_pinned() {
    let server = serial_server();
    let replies: Vec<String> = [
        r#"{"id": "cold", "kernel": "gemm"}"#.to_string(),
        r#"{"id": "hot", "kernel": "gemm"}"#.to_string(),
        r#"{"id": "sim", "op": "simulate", "kernel": "gemm",
            "instance": {"Ni": 12, "Nj": 10, "Nk": 8}, "cache_sizes": [64, 1024]}"#
            .to_string(),
        format!(r#"{{"id": "src", "source": {}}}"#, json::escape(SOURCE)),
    ]
    .iter()
    .map(|request| shape(&server.handle_line(request)))
    .collect();
    let stats = json::parse(&server.handle_line(r#"{"op": "stats"}"#)).unwrap();
    server.shutdown();

    let want = [
        r#"{"id":"cold","status":"ok","cached":false,"server":{"session_warm":false,"pool_sessions":0,"cost_class":"small"},"fingerprint":"0cf2291f68fb81a24fae1c98d80d4971"}"#,
        r#"{"id":"hot","status":"ok","cached":true,"server":{"session_warm":false,"pool_sessions":1,"cost_class":"small"},"fingerprint":"0cf2291f68fb81a24fae1c98d80d4971"}"#,
        r#"{"id":"sim","status":"ok","cached":false,"server":{"session_warm":true,"pool_sessions":0,"cost_class":"large"}}"#,
        r#"{"id":"src","status":"ok","cached":false,"server":{"session_warm":true,"pool_sessions":0,"cost_class":"small"},"fingerprint":"da9719b73a880af9f713159d14988f56"}"#,
    ];
    for (reply, want) in replies.iter().zip(want) {
        assert_eq!(reply, want);
    }
    let stats = without(stats, &["mean_service_ms", "p50_ms", "p99_ms"]).render();
    assert_eq!(
        stats,
        concat!(
            r#"{"id":null,"status":"ok","server_stats":{"workers":1,"queue_capacity":64,"#,
            r#""queue_depth":0,"draining":false,"lanes":{"small":{"queued":0,"queued_peak":1,"#,
            r#""served":3},"large":{"queued":0,"queued_peak":1,"served":1}},"#,
            r#""requests_received":4,"requests_completed":4,"requests_failed":0,"#,
            r#""rejected_overloaded":0,"timeouts":0,"abandoned_skipped":0,"#,
            r#""abandoned_completed":0,"cancelled_in_flight":0,"degraded":0,"#,
            r#""resource_limited":0,"sessions_retired":0,"simulate_requests":1,"#,
            r#""simulate_completed":1,"pool":{"capacity":8,"idle_sessions":1,"hits":2,"#,
            r#""misses":1,"evictions":0,"retired":0},"result_cache":{"enabled":true,"#,
            r#""entries":2,"hits":1,"misses":2,"inflight_coalesced":0,"disk_hits":0,"#,
            r#""evictions":0,"disk_evictions":0,"disk_corrupt":0,"stores":2,"#,
            r#""uncacheable":0}}}"#,
        )
    );
}
