//! A request that times out while still queued must leave its lane at the
//! timeout: it may not count toward `queue_depth`, nor hold the lane slot
//! a later request needs, until a worker gets round to skipping it.
//!
//! One worker is held busy by a heat-3d analysis (the slowest kernel: a
//! large share of a second in release, far longer in debug) while short
//! `timeout_ms` gemm requests queue behind it in a one-slot lane.

use iolb_server::json::{self, Json};
use iolb_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn stats(server: &Server) -> Json {
    let line = server.handle_line(r#"{"op": "stats"}"#);
    json::parse(&line).expect("stats response parses")
}

fn count(stats: &Json, key: &str) -> i128 {
    stats
        .get("server_stats")
        .and_then(|s| s.get(key))
        .and_then(|v| v.as_i128())
        .unwrap_or_else(|| panic!("stats field {key} missing"))
}

fn error_code(response: &str) -> String {
    let doc = json::parse(response).expect("response parses");
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(|c| c.as_str())
        .unwrap_or_else(|| panic!("not an error response: {response}"))
        .to_string()
}

#[test]
fn a_timed_out_queued_request_frees_its_lane_slot() {
    let server = Arc::new(Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        pool_capacity: 2,
        default_timeout_ms: 300_000,
        ..ServerConfig::default()
    }));

    // The blocker's timeout bounds the test on a slow build; either way it
    // outlasts the two 20 ms requests below by far.
    let blocker = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.handle_line(r#"{"id": "busy", "kernel": "heat-3d", "timeout_ms": 3000}"#)
        })
    };
    // Wait until the worker has popped the blocker: it reached the large
    // lane, and nothing is queued.
    loop {
        let s = stats(&server);
        let large_peak = s
            .get("server_stats")
            .and_then(|s| s.get("lanes"))
            .and_then(|l| l.get("large"))
            .and_then(|l| l.get("queued_peak"))
            .and_then(|v| v.as_i128());
        if large_peak == Some(1) && count(&s, "queue_depth") == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let abandoned = server.handle_line(r#"{"id": "a", "kernel": "gemm", "timeout_ms": 20}"#);
    assert_eq!(error_code(&abandoned), "timeout", "{abandoned}");
    let s = stats(&server);
    assert_eq!(
        count(&s, "requests_completed"),
        0,
        "the blocker finished early; the worker was not held busy"
    );
    assert_eq!(
        count(&s, "queue_depth"),
        0,
        "the abandoned job is still queued"
    );
    assert_eq!(count(&s, "abandoned_skipped"), 1);

    // The freed slot admits the next request: it queues (and times out
    // behind the blocker) instead of bouncing with `overloaded`.
    let admitted = server.handle_line(r#"{"id": "b", "kernel": "gemm", "timeout_ms": 20}"#);
    assert_eq!(error_code(&admitted), "timeout", "{admitted}");
    let s = stats(&server);
    assert_eq!(count(&s, "rejected_overloaded"), 0);
    assert_eq!(count(&s, "queue_depth"), 0);
    assert_eq!(count(&s, "abandoned_skipped"), 2);

    blocker.join().expect("blocker thread");
    // The worker is back in service, and no abandoned job reached it.
    let probe = server.handle_line(r#"{"id": "c", "kernel": "gemm"}"#);
    let doc = json::parse(&probe).expect("probe response parses");
    assert_eq!(
        doc.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{probe}"
    );
    assert_eq!(count(&stats(&server), "abandoned_skipped"), 2);

    server.shutdown();
}
