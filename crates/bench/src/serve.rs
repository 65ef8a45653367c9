//! `serve_throughput`: the daemon under load.
//!
//! Spins up an in-process [`iolb_server::Server`] (the same code path
//! `iolb serve` runs, minus the socket), hammers it with the full 30-kernel
//! suite from several concurrent client threads, and reports service-level
//! numbers — requests/second and p50/p99 client-observed latency — into
//! `BENCH_analysis.json` alongside the per-kernel suite numbers. This keeps
//! a perf record not just for the *analysis* but for the *serving* layer
//! (queueing, session-pool reuse, response rendering), so regressions in
//! either show up in the same file.

use iolb_core::json::{self, Json};
use iolb_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

/// The result of one load run.
pub struct ServeThroughput {
    /// Concurrent client threads.
    pub clients: usize,
    /// Total requests submitted (clients × suite size).
    pub requests: usize,
    /// Requests answered with `"status":"ok"`.
    pub ok: usize,
    /// Requests answered with an error (overload, timeout, …).
    pub errors: usize,
    /// Responses served by a warm pooled session.
    pub warm: usize,
    /// Whole-run wall-clock in seconds.
    pub seconds: f64,
    /// Completed requests per second of wall-clock.
    pub req_per_sec: f64,
    /// Median client-observed latency (enqueue to response) in ms.
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency in ms.
    pub p99_ms: f64,
    /// Requests whose client timed out (`timeout` errors).
    pub timeouts: u64,
    /// Analyses stopped mid-flight by cooperative cancellation.
    pub cancelled_in_flight: u64,
    /// Successful responses marked `degraded` by a tripped work budget.
    pub degraded: u64,
    /// Load-run responses served from the result cache: a stored entry or
    /// a coalesced in-flight computation of a repeated kernel.
    pub cached_responses: usize,
    /// Result-cache hit rate of the load run from the daemon's own
    /// counters, read before the hot pass:
    /// (hits + coalesced + disk hits) / (those + misses).
    pub hit_rate: f64,
    /// Median latency of the hot replay pass — every kernel re-requested
    /// once after the load run, so this is the pure cache-service path.
    pub hot_p50_ms: f64,
    /// Median latency of requests the preflight classifier routed small.
    pub small_p50_ms: f64,
    /// 99th-percentile latency of small-classified requests — the
    /// number the cost-aware lanes exist to protect (without them, one
    /// in-flight heat-3d drags this to multi-second head-of-line
    /// blocking).
    pub small_p99_ms: f64,
    /// Median latency of large-classified requests.
    pub large_p50_ms: f64,
    /// 99th-percentile latency of large-classified requests.
    pub large_p99_ms: f64,
    /// High-water mark of the small lane's queue depth.
    pub small_queue_peak: u64,
    /// High-water mark of the large lane's queue depth.
    pub large_queue_peak: u64,
}

/// Reads the integer at `path` in a parsed `{"op": "stats"}` reply (0 when
/// absent).
fn counter(stats: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |value, key| value.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// One `analyze` request line for a built-in kernel.
fn request(id: String, kernel: &str) -> String {
    Json::obj([("id", id.into()), ("kernel", kernel.into())]).render()
}

/// Nearest-rank percentile of an ascending-sorted latency sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `clients` concurrent client threads, each submitting the full
/// kernel suite (each from a different starting offset, so the in-flight
/// mix stays varied), against a fresh in-process daemon.
pub fn run(clients: usize) -> ServeThroughput {
    let kernels: Vec<String> = iolb_polybench::all_kernels()
        .iter()
        .map(|k| k.name.to_string())
        .collect();
    let server = Arc::new(Server::start(ServerConfig {
        workers: clients.max(1),
        queue_capacity: clients.max(1) * kernels.len(),
        pool_capacity: 8,
        default_timeout_ms: 600_000,
        ..ServerConfig::default()
    }));

    let start = Instant::now();
    let handles: Vec<_> = (0..clients.max(1))
        .map(|c| {
            let server = server.clone();
            let kernels = kernels.clone();
            std::thread::spawn(move || {
                // Latency paired with the lane the daemon routed the
                // request into (`server.cost_class` in each response).
                let mut latencies_ms: Vec<(f64, bool)> = Vec::with_capacity(kernels.len());
                let mut ok = 0usize;
                let mut warm = 0usize;
                let mut cached = 0usize;
                for i in 0..kernels.len() {
                    let kernel = &kernels[(i + c * 7) % kernels.len()];
                    let sent = Instant::now();
                    let response = server.handle_line(&request(format!("load-{c}-{i}"), kernel));
                    let elapsed_ms = sent.elapsed().as_secs_f64() * 1e3;
                    let doc = json::parse(&response).expect("responses are JSON");
                    let server_field = |key| doc.get("server").and_then(|s| s.get(key));
                    let large = server_field("cost_class").and_then(Json::as_str) == Some("large");
                    latencies_ms.push((elapsed_ms, large));
                    ok += usize::from(doc.get("status").and_then(Json::as_str) == Some("ok"));
                    warm += usize::from(server_field("session_warm") == Some(&Json::Bool(true)));
                    cached += usize::from(doc.get("cached") == Some(&Json::Bool(true)));
                }
                (latencies_ms, ok, warm, cached)
            })
        })
        .collect();

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut small_ms: Vec<f64> = Vec::new();
    let mut large_ms: Vec<f64> = Vec::new();
    let mut ok = 0usize;
    let mut warm = 0usize;
    let mut cached_responses = 0usize;
    for handle in handles {
        let (lat, client_ok, client_warm, client_cached) = handle.join().expect("load client");
        for (ms, large) in lat {
            latencies_ms.push(ms);
            if large {
                large_ms.push(ms);
            } else {
                small_ms.push(ms);
            }
        }
        ok += client_ok;
        warm += client_warm;
        cached_responses += client_cached;
    }
    let seconds = start.elapsed().as_secs_f64();
    small_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    large_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    // Counters of the load run alone: read before the hot pass, so the
    // hit rate describes the same requests as `cached_responses`. A
    // healthy full-suite load run reports zero timeouts, cancellations and
    // degradations; non-zero values flag budget/cancellation churn.
    let stats_line = server.handle_line(&Json::obj([("op", "stats".into())]).render());
    let stats = json::parse(&stats_line).expect("stats reply");
    let stat = |path: &[&str]| counter(&stats, &[&["server_stats"], path].concat());
    let rc_served = stat(&["result_cache", "hits"])
        + stat(&["result_cache", "inflight_coalesced"])
        + stat(&["result_cache", "disk_hits"]);
    let rc_misses = stat(&["result_cache", "misses"]);
    let hit_rate = if rc_served + rc_misses > 0 {
        rc_served as f64 / (rc_served + rc_misses) as f64
    } else {
        0.0
    };

    // Hot replay pass: with the whole suite now resident in the result
    // cache, re-request every kernel once and time the pure cache-service
    // path (fingerprint → lookup → render). Kept out of the load-run
    // latency sample so the cold numbers stay comparable across versions.
    let mut hot_ms: Vec<f64> = Vec::with_capacity(kernels.len());
    for (i, kernel) in kernels.iter().enumerate() {
        let sent = Instant::now();
        server.handle_line(&request(format!("hot-{i}"), kernel));
        hot_ms.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    hot_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    server.shutdown();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = latencies_ms.len();
    ServeThroughput {
        clients: clients.max(1),
        requests,
        ok,
        errors: requests - ok,
        warm,
        seconds,
        req_per_sec: if seconds > 0.0 {
            ok as f64 / seconds
        } else {
            0.0
        },
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        timeouts: stat(&["timeouts"]),
        cancelled_in_flight: stat(&["cancelled_in_flight"]),
        degraded: stat(&["degraded"]),
        cached_responses,
        hit_rate,
        hot_p50_ms: percentile(&hot_ms, 0.50),
        small_p50_ms: percentile(&small_ms, 0.50),
        small_p99_ms: percentile(&small_ms, 0.99),
        large_p50_ms: percentile(&large_ms, 0.50),
        large_p99_ms: percentile(&large_ms, 0.99),
        small_queue_peak: stat(&["lanes", "small", "queued_peak"]),
        large_queue_peak: stat(&["lanes", "large", "queued_peak"]),
    }
}

impl ServeThroughput {
    /// The `serve_throughput` object of `BENCH_analysis.json`.
    pub fn to_json_value(&self) -> Json {
        let lane = |p50: f64, p99: f64, queue_peak: u64| {
            Json::obj([
                ("p50_ms", Json::Fixed(p50, 3)),
                ("p99_ms", Json::Fixed(p99, 3)),
                ("queue_peak", queue_peak.into()),
            ])
        };
        Json::obj([
            ("clients", self.clients.into()),
            ("requests", self.requests.into()),
            ("ok", self.ok.into()),
            ("errors", self.errors.into()),
            ("warm_responses", self.warm.into()),
            ("wall_clock_seconds", Json::Fixed(self.seconds, 6)),
            ("requests_per_second", Json::Fixed(self.req_per_sec, 3)),
            ("p50_latency_ms", Json::Fixed(self.p50_ms, 3)),
            ("p99_latency_ms", Json::Fixed(self.p99_ms, 3)),
            ("timeouts", self.timeouts.into()),
            ("cancelled_in_flight", self.cancelled_in_flight.into()),
            ("degraded", self.degraded.into()),
            ("cached_responses", self.cached_responses.into()),
            ("result_cache_hit_rate", Json::Fixed(self.hit_rate, 3)),
            ("hot_p50_ms", Json::Fixed(self.hot_p50_ms, 4)),
            (
                "lanes",
                Json::obj([
                    (
                        "small",
                        lane(self.small_p50_ms, self.small_p99_ms, self.small_queue_peak),
                    ),
                    (
                        "large",
                        lane(self.large_p50_ms, self.large_p99_ms, self.large_queue_peak),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.50), 2.0);
        assert_eq!(percentile(&sorted, 0.99), 4.0);
        assert_eq!(percentile(&sorted, 0.25), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn json_object_renders_every_field() {
        let row = ServeThroughput {
            clients: 4,
            requests: 120,
            ok: 120,
            errors: 0,
            warm: 100,
            seconds: 10.0,
            req_per_sec: 12.0,
            p50_ms: 80.0,
            p99_ms: 400.0,
            timeouts: 1,
            cancelled_in_flight: 1,
            degraded: 2,
            cached_responses: 110,
            hit_rate: 0.75,
            hot_p50_ms: 0.25,
            small_p50_ms: 10.0,
            small_p99_ms: 150.0,
            large_p50_ms: 900.0,
            large_p99_ms: 7000.0,
            small_queue_peak: 5,
            large_queue_peak: 3,
        };
        let value = row.to_json_value();
        let expected = r#"{"clients":4,"requests":120,"ok":120,"errors":0,"warm_responses":100,"wall_clock_seconds":10.000000,"requests_per_second":12.000,"p50_latency_ms":80.000,"p99_latency_ms":400.000,"timeouts":1,"cancelled_in_flight":1,"degraded":2,"cached_responses":110,"result_cache_hit_rate":0.750,"hot_p50_ms":0.2500,"lanes":{"small":{"p50_ms":10.000,"p99_ms":150.000,"queue_peak":5},"large":{"p50_ms":900.000,"p99_ms":7000.000,"queue_peak":3}}}"#;
        assert_eq!(value.render(), expected);
        let pretty = value.render_pretty();
        assert_eq!(json::compact(&pretty), expected);
        assert_eq!(json::parse(&pretty), json::parse(expected));
    }

    #[test]
    fn counters_read_nested_paths_of_a_stats_reply() {
        let stats = json::parse(
            r#"{"status":"ok","server_stats":{"timeouts":3,"lanes":{"small":{"queued_peak":7},"large":{"queued_peak":2}},"pool":{"hits":9},"result_cache":{"hits":4}}}"#,
        )
        .unwrap();
        assert_eq!(counter(&stats, &["server_stats", "timeouts"]), 3);
        assert_eq!(
            counter(&stats, &["server_stats", "result_cache", "hits"]),
            4
        );
        assert_eq!(counter(&stats, &["server_stats", "pool", "hits"]), 9);
        assert_eq!(
            counter(&stats, &["server_stats", "lanes", "small", "queued_peak"]),
            7
        );
        assert_eq!(
            counter(&stats, &["server_stats", "lanes", "large", "queued_peak"]),
            2
        );
        assert_eq!(counter(&stats, &["server_stats", "no_such_field"]), 0);
        assert_eq!(counter(&stats, &["status"]), 0);
    }
}
